//! RDL analogue: the runtime type-annotation and contract layer that
//! Hummingbird builds on (paper §4).
//!
//! `type`, `var_type`/`field_type`, `pre`, `rdl_cast` and `check_policy`
//! are interpreter builtins that execute at run time and mutate a live
//! [`RdlState`] type table. Method types accumulate intersection arms on
//! repeated `type` calls; `pre` contracts run before dispatch and are
//! where metaprogramming libraries generate types for the methods they
//! create (Fig. 1).
//!
//! The state also carries the embedding-facing *enforcement* surface the
//! engine consults per dispatch (assembled through the
//! `hummingbird::HummingbirdBuilder` in the `hummingbird` crate):
//!
//! * [`CheckPolicy`] — per-declaration enforcement (`Enforce` raises,
//!   `Shadow` records-and-continues, `Off` skips), resolved
//!   method-over-class-over-global; the `check_policy` builtin is its
//!   RubyLite spelling.
//! * [`DiagnosticSink`] — streaming listeners for every recorded blame
//!   [`hb_syntax::TypeDiagnostic`], alongside the bounded store
//!   ([`RdlState::set_diagnostics_cap`]).
//!
//! # Example
//!
//! ```
//! use hb_interp::Interp;
//! use hb_rdl::{install_rdl, CheckPolicy, MethodKey};
//!
//! let mut interp = Interp::new();
//! let rdl = install_rdl(&mut interp);
//! interp
//!     .eval_str(
//!         "check_policy \"shadow\"\n\
//!          class Talk\n type :owner?, \"(User) -> %bool\"\nend",
//!     )
//!     .unwrap();
//! let entry = rdl.entry(&MethodKey::instance("Talk", "owner?")).unwrap();
//! assert_eq!(entry.sig.to_string(), "(User) -> %bool");
//! let key = MethodKey::instance("Talk", "owner?");
//! assert_eq!(rdl.policy_for(&key, &key), CheckPolicy::Shadow);
//! ```

pub mod builtins;
pub mod conform;
pub mod pre;
pub mod state;

pub use builtins::install as install_rdl;
pub use conform::{type_of, value_conforms};
pub use state::{
    AnnotationSource, CheckPolicy, DiagnosticSink, MethodKey, PreHook, RdlEvent, RdlEventSink,
    RdlState, RdlStats, Resolution, TableEntry, DEFAULT_DIAGNOSTICS_CAP,
};
