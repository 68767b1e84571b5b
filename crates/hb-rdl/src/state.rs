//! The runtime type table and annotation state.
//!
//! Keys are interned ([`Sym`]), making [`MethodKey`] a 12-byte `Copy` value
//! and the steady-state dispatch lookup a pair of integer-keyed hash
//! probes: no per-call allocation anywhere on the hot path. Entries are
//! stored behind `Rc`, so handing one to the engine clones a pointer, not
//! a `MethodSig`.

use hb_intern::Sym;
use hb_syntax::{DiagLabel, LabelRole, Span, TypeDiagnostic};
use hb_types::{MethodSig, MethodType, Type};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::rc::Rc;

/// Default retention bound for recorded blame diagnostics: a long-running
/// tenant re-hitting a buggy endpoint produces one diagnostic per request
/// (failures are never cached), so the store keeps only the most recent
/// window instead of growing without bound. Embedders size the window via
/// `HummingbirdBuilder::diagnostics_cap` ([`RdlState::set_diagnostics_cap`]).
pub const DEFAULT_DIAGNOSTICS_CAP: usize = 1024;

/// How blame is enforced for a method — the per-declaration enforcement
/// level that makes just-in-time checking deployable on live traffic
/// (warn-vs-raise in the Gradual Soundness sense).
///
/// * [`CheckPolicy::Enforce`] — blame raises, aborting the call (the
///   paper's behaviour and the default).
/// * [`CheckPolicy::Shadow`] — the full check still runs and the
///   structured [`TypeDiagnostic`] is recorded, but execution continues:
///   the canary-deploy mode. A method whose check failed runs *unchecked*
///   (its callees fall back to dynamic argument checks).
/// * [`CheckPolicy::Deferred`] — a cold call does not wait for the static
///   check: the engine enqueues the check onto the concurrent scheduler
///   and admits the call immediately under full dynamic checks (Shadow
///   semantics for the deferred blame — it is recorded asynchronously and
///   never raises; dynamic argument checks still enforce). The body is
///   only marked checked once the worker's derivation lands *and* its
///   fingerprints still match — soundness is unchanged; first-call
///   latency spikes become background work.
/// * [`CheckPolicy::Off`] — the engine skips type enforcement for the
///   method entirely (no static check, no dynamic argument check).
///   Annotation *execution* is never skipped — metaprogramming `pre`
///   hooks still run; only a falsy contract result is ignored.
///
/// Policies resolve most-specific-first: method override (receiver key,
/// then the annotation's declaring key), class override (receiver class,
/// then declaring class), then the global policy. Lookups are exact-key —
/// no ancestor-chain walk — so resolution stays O(1) off the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CheckPolicy {
    /// Blame raises (default).
    #[default]
    Enforce,
    /// Check, record the diagnostic, continue executing.
    Shadow,
    /// Admit the call immediately; check asynchronously on the scheduler.
    Deferred,
    /// Skip type enforcement for the method.
    Off,
}

impl CheckPolicy {
    /// Parses a policy name (`"enforce"` / `"shadow"` / `"deferred"` /
    /// `"off"`, any case), as accepted by the `check_policy` builtin and
    /// CLI flags.
    pub fn parse(s: &str) -> Option<CheckPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "enforce" => Some(CheckPolicy::Enforce),
            "shadow" => Some(CheckPolicy::Shadow),
            "deferred" => Some(CheckPolicy::Deferred),
            "off" => Some(CheckPolicy::Off),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckPolicy::Enforce => "enforce",
            CheckPolicy::Shadow => "shadow",
            CheckPolicy::Deferred => "deferred",
            CheckPolicy::Off => "off",
        }
    }

    /// The note label appended to EVERY shadowed blame diagnostic —
    /// static-check, dynamic-argument and precondition alike — so a
    /// consumer of the diagnostics stream can tell a blame execution
    /// continued past from one that aborted the call.
    pub fn shadow_note() -> DiagLabel {
        DiagLabel::new(
            LabelRole::Note,
            "shadow check policy: blame recorded, execution continues",
            Span::dummy(),
        )
    }

    /// The note label appended to a blame that a *deferred* check produced
    /// asynchronously: the triggering call had already been admitted under
    /// dynamic checks when the scheduler worker's check blamed, so —
    /// exactly like a shadowed blame — execution continued past it.
    pub fn deferred_note() -> DiagLabel {
        DiagLabel::new(
            LabelRole::Note,
            "deferred check policy: blame recorded asynchronously, the call was admitted under dynamic checks",
            Span::dummy(),
        )
    }
}

impl std::fmt::Display for CheckPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A listener notified of every recorded blame [`TypeDiagnostic`] at the
/// moment it enters the bounded store — the embedder's streaming channel
/// (ship shadow-mode blames to a metrics pipeline without polling
/// `diagnostics()`). Sinks run synchronously on the blaming thread.
pub trait DiagnosticSink {
    /// Called once per recorded diagnostic, in emission order.
    fn on_diagnostic(&self, d: &TypeDiagnostic);
}

// `MethodKey` moved down to `hb-intern` so the structured-diagnostics layer
// in `hb-syntax` can blame annotations by key; re-exported here so every
// existing `hb_rdl::MethodKey` user keeps compiling unchanged.
pub use hb_intern::MethodKey;

/// A (TApp) resolution *witness*: looking `method` up along `start`'s
/// ancestor chain (skipping the receiver itself for `super`) at
/// `class_level` resolved to the annotation at `target` — or to nothing
/// (`target == None`), a negative fact that fallback lookups depend on.
///
/// Witnesses are what make cached derivations portable: Definition 1's
/// validity is about what (TApp) *resolves to*, not merely which table
/// entries it read, so a consumer replays each witness against its own
/// table and class hierarchy. A shadowing annotation anywhere along the
/// chain changes the replay's answer and the derivation is rejected —
/// no global invalidation choreography required.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Resolution {
    /// Class whose ancestor chain the lookup walked.
    pub start: Sym,
    /// Skip the chain's first element (`super` resolves above itself).
    pub skip_receiver: bool,
    /// Whether the lookup was at class level.
    pub class_level: bool,
    /// The method name looked up.
    pub method: Sym,
    /// The annotation key the lookup resolved to, if any.
    pub target: Option<MethodKey>,
}

impl Resolution {
    /// A plain instance/class-level resolution from `start`'s chain.
    pub fn of(
        start: &str,
        class_level: bool,
        method: &str,
        target: Option<MethodKey>,
    ) -> Resolution {
        Resolution {
            start: Sym::intern(start),
            skip_receiver: false,
            class_level,
            method: Sym::intern(method),
            target,
        }
    }
}

/// Where an annotation came from (paper Table 1's "Static types" vs
/// "Dynamic types" columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnotationSource {
    /// Written literally at the top level or in a class body.
    Static,
    /// Generated by executing code (pre-hooks, schema loops, `add_types`).
    Dynamic,
    /// Produced by the whole-program inference pass and *verified* by
    /// `check_sig` before registration — never hand-written. Provenance
    /// only on the hot paths: an inferred entry checks, derives,
    /// snapshots and distributes exactly like a declared one (the source
    /// is deliberately excluded from the table fingerprint, so adopting
    /// an inferred signature perturbs the epoch stream no differently
    /// than declaring it). The source *does* govern lifecycle: inferred
    /// entries are re-derivable by later inference runs and are
    /// [retracted](RdlState::retract_inferred) — not enforced — when a
    /// reload changes the body they were derived from.
    Inferred,
}

/// One method's annotation entry.
#[derive(Debug, Clone)]
pub struct TableEntry {
    pub sig: MethodSig,
    /// Statically check the body at call time (app methods); trusted
    /// otherwise (library/framework methods).
    pub check: bool,
    /// Always dynamically check arguments, even from checked callers (the
    /// Rails `params` exception, paper §4).
    pub always_dyn_check: bool,
    pub source: AnnotationSource,
    /// Bumped on every change, so the engine can validate cache entries.
    pub version: u64,
    /// Where the annotation was registered: the span of the `type` call
    /// that created the entry (updated on `replace`). This is the span
    /// structured diagnostics blame — "the annotation at talks/types.rb:12
    /// disagrees with this body". Dummy for entries registered
    /// programmatically without a source site. Deliberately excluded from
    /// every fingerprint: identical annotations registered from different
    /// locations must still share derivations across tenants.
    pub span: Span,
}

/// A type-table change event, drained by the Hummingbird engine to drive
/// invalidation ((EType) / Definition 1) and phase counting (§5).
#[derive(Debug, Clone, PartialEq)]
pub enum RdlEvent {
    /// A new annotation appeared for a previously untyped method.
    TypeAdded(MethodKey),
    /// An intersection arm was added to an existing signature. Dependents
    /// stay valid (§4 "Cache Invalidation"); the method itself re-checks.
    ArmAdded(MethodKey),
    /// The signature was replaced outright; dependents must be invalidated.
    TypeReplaced(MethodKey),
}

/// A `pre` contract: a proc run before dispatch (paper Fig. 1).
#[derive(Clone)]
pub struct PreHook {
    pub proc_val: std::rc::Rc<hb_interp::ProcVal>,
    /// Where the contract was registered (the `pre` call site), for blame
    /// labels when the contract rejects a call.
    pub span: Span,
}

/// A listener notified of every [`RdlEvent`] at the moment it is emitted,
/// before any engine drains it. This is the fan-out channel by which a
/// tenant's type-table mutations reach *process-wide* structures — the
/// shared derivation tier evicts entries here, so other tenants stop
/// seeing derivations checked against a signature that no longer exists
/// anywhere. Sinks run on the mutating tenant's thread.
pub trait RdlEventSink {
    /// Called once per emitted event, in emission order.
    fn on_rdl_event(&self, ev: &RdlEvent);

    /// Called when enforcement configuration changes in a way emitted
    /// events do not capture: a policy override is set, a `pre` contract
    /// attaches, or a `type` call changes only an annotation's
    /// `check`/`dyn` flags. The bytecode tier's fast-entry patch table
    /// deoptimizes here — patched entries skip the per-call hook probe
    /// entirely, which is only sound while policies are trivial, no
    /// preconditions exist and no dynamic check is forced.
    fn on_enforcement_changed(&self) {}
}

#[derive(Default)]
pub struct RdlInner {
    /// Keyed with [`hb_intern::FastMap`]: `lookup_along` probes this map
    /// once per ancestor on every intercepted call.
    table: hb_intern::FastMap<MethodKey, Rc<TableEntry>>,
    /// Instance-variable types per class (`var_type` / `field_type`),
    /// with the declaration site for blame labels.
    ivar_types: HashMap<(String, String), (Type, Span)>,
    /// Class-variable types per class.
    cvar_types: HashMap<(String, String), (Type, Span)>,
    /// Global-variable types.
    gvar_types: HashMap<String, (Type, Span)>,
    pres: HashMap<MethodKey, Vec<PreHook>>,
    /// Monotonic generation of `pres`: bumped by every `add_pre`, never
    /// otherwise (see [`RdlState::pre_generation`]).
    pre_gen: u64,
    events: Vec<RdlEvent>,
    /// Keys consulted by the static checker (Table 1 "Used" needs the
    /// dynamic subset).
    used: HashSet<MethodKey>,
    version_counter: u64,
    /// Rolling, order-sensitive fingerprint of every table mutation
    /// (annotations and ivar/cvar/gvar registrations). Two `RdlState`s
    /// that performed the identical mutation sequence — e.g. two tenants
    /// booting the same app — have equal fingerprints; any divergence
    /// (content, order, or count) separates them. The shared derivation
    /// tier uses equality as its O(1) "identical type state" fast path.
    table_fp: u64,
    /// Rolling fingerprint of ivar/cvar/gvar type registrations only.
    /// Checked derivations read variable types without recording
    /// per-variable witnesses, so the shared tier's witness-replay path
    /// requires this fingerprint to match exactly.
    var_fp: u64,
    /// Count of dynamic contract checks executed (arguments + casts).
    pub dyn_checks_run: u64,
    /// Count of casts executed at run time.
    pub casts_run: u64,
    /// Every blame diagnostic produced, in emission order, capped at
    /// `diagnostics_cap` (oldest dropped first). One shared store for all
    /// layers — the engine's check/dynamic-argument blames and this
    /// crate's cast/precondition blames — so `Hummingbird::diagnostics()`
    /// sees them interleaved as they happened.
    diagnostics: VecDeque<TypeDiagnostic>,
    /// Retention bound for `diagnostics` (builder-configured; `None` is
    /// [`DEFAULT_DIAGNOSTICS_CAP`]; zero keeps nothing in the store and
    /// relies on sinks alone).
    diagnostics_cap: Option<usize>,
    /// Global enforcement policy (see [`CheckPolicy`]).
    global_policy: CheckPolicy,
    /// Per-class policy overrides, exact class name.
    class_policies: HashMap<Sym, CheckPolicy>,
    /// Per-method policy overrides, exact key.
    method_policies: HashMap<MethodKey, CheckPolicy>,
    /// Blames swallowed by [`CheckPolicy::Shadow`] across every layer —
    /// static checks, dynamic argument checks AND preconditions (the
    /// latter blame from `pre.rs`, which has no engine statistics, so
    /// the counter lives here and `EngineStats` snapshots it).
    shadowed_blames: u64,
}

/// Shared, internally mutable RDL state. Stored as an interpreter extension
/// so builtins and the engine both reach it.
#[derive(Default)]
pub struct RdlState {
    pub inner: RefCell<RdlInner>,
    /// Fan-out listeners (see [`RdlEventSink`]); notified outside the
    /// `inner` borrow so sinks may read the table.
    sinks: RefCell<Vec<Rc<dyn RdlEventSink>>>,
    /// Streaming diagnostic listeners (see [`DiagnosticSink`]); notified
    /// outside the `inner` borrow so sinks may read the table.
    diag_sinks: RefCell<Vec<Rc<dyn DiagnosticSink>>>,
    /// Set once any policy override exists (or the global policy leaves
    /// `Enforce`) — the dispatch hot path reads only this flag, so the
    /// default configuration pays one `Cell` load per intercepted call and
    /// never probes the policy maps.
    policies_nontrivial: std::cell::Cell<bool>,
}

/// Folds one mutation into a rolling fingerprint: order-sensitive, cheap,
/// and stable within the process (Sym indices are process-global, and the
/// hasher is the shared tier's single fingerprint helper).
fn mix_fp(fp: u64, item: impl std::hash::Hash) -> u64 {
    hb_intern::fingerprint64((fp, item))
}

impl RdlState {
    /// Creates empty state.
    pub fn new() -> RdlState {
        RdlState::default()
    }

    /// Registers an event sink; every subsequently emitted [`RdlEvent`]
    /// fans out to it.
    pub fn add_event_sink(&self, sink: Rc<dyn RdlEventSink>) {
        self.sinks.borrow_mut().push(sink);
    }

    fn notify(&self, ev: &RdlEvent) {
        for sink in self.sinks.borrow().iter() {
            sink.on_rdl_event(ev);
        }
    }

    fn notify_enforcement_changed(&self) {
        for sink in self.sinks.borrow().iter() {
            sink.on_enforcement_changed();
        }
    }

    /// Adds a method type with no recorded registration site (tests and
    /// programmatic annotations). See [`RdlState::add_type_at`].
    #[allow(clippy::too_many_arguments)]
    pub fn add_type(
        &self,
        key: MethodKey,
        mt: MethodType,
        check: bool,
        always_dyn_check: bool,
        source: AnnotationSource,
        replace: bool,
    ) {
        self.add_type_at(
            key,
            mt,
            check,
            always_dyn_check,
            source,
            replace,
            Span::dummy(),
        );
    }

    /// Adds a method type. Repeated calls for the same key accumulate
    /// intersection arms unless `replace` is set. `span` is where the
    /// annotation was registered (the `type` call site), kept on the entry
    /// for blame labels.
    #[allow(clippy::too_many_arguments)]
    pub fn add_type_at(
        &self,
        key: MethodKey,
        mt: MethodType,
        check: bool,
        always_dyn_check: bool,
        source: AnnotationSource,
        replace: bool,
        span: Span,
    ) {
        let mut inner = self.inner.borrow_mut();
        let version = inner.version_counter + 1;
        // Fingerprint string contents, not Sym indices: indices depend on
        // process-local interning order, and this fingerprint is compared
        // across processes by the snapshot warm-boot path.
        inner.table_fp = mix_fp(
            inner.table_fp,
            (
                key.class.as_str(),
                key.class_level,
                key.method.as_str(),
                &mt,
                check,
                always_dyn_check,
                replace,
            ),
        );
        let mut changed = true;
        let mut flags_changed = false;
        let event = match inner.table.get_mut(&key) {
            Some(shared)
                if !replace
                    && shared.sig.arms.contains(&mt)
                    && (shared.check || !check)
                    && (shared.always_dyn_check || !always_dyn_check)
                    && (shared.span != Span::dummy() || span == Span::dummy()) =>
            {
                // Re-registering what the entry already says (a Fig. 2
                // pre re-typing a generated method on every call) is no
                // change: the generation stays, so memos keyed by it do.
                changed = false;
                None
            }
            Some(shared) => {
                // Entries are shared with the engine via `Rc`; annotation
                // updates are rare (the annotate phase), so copy-on-write
                // here keeps the read path free of any locking or cloning.
                let entry = Rc::make_mut(shared);
                if replace {
                    entry.sig = MethodSig::single(mt);
                    entry.version = version;
                    entry.check |= check;
                    entry.always_dyn_check |= always_dyn_check;
                    entry.span = span;
                    Some(RdlEvent::TypeReplaced(key))
                } else {
                    let before = entry.sig.arms.len();
                    let flags_before = (entry.check, entry.always_dyn_check);
                    entry.sig.add_arm(mt);
                    entry.check |= check;
                    entry.always_dyn_check |= always_dyn_check;
                    flags_changed = flags_before != (entry.check, entry.always_dyn_check);
                    if entry.span == Span::dummy() {
                        // An arm added from source upgrades a previously
                        // site-less entry to a blameable one.
                        entry.span = span;
                    }
                    if entry.sig.arms.len() != before {
                        entry.version = version;
                        Some(RdlEvent::ArmAdded(key))
                    } else {
                        None
                    }
                }
            }
            None => {
                inner.table.insert(
                    key,
                    Rc::new(TableEntry {
                        sig: MethodSig::single(mt),
                        check,
                        always_dyn_check,
                        source,
                        version,
                        span,
                    }),
                );
                Some(RdlEvent::TypeAdded(key))
            }
        };
        if changed {
            inner.version_counter += 1;
        }
        if let Some(ev) = event {
            inner.events.push(ev.clone());
            drop(inner);
            self.notify(&ev);
        } else if flags_changed {
            // Same arms, new "check"/"dyn" flags: no derivation changes,
            // but what the guarded prologue does per call may (a forced
            // dynamic argument check), so sinks holding per-call
            // shortcuts must drop them.
            drop(inner);
            self.notify_enforcement_changed();
        }
    }

    /// Retracts an *inferred* annotation: removes the entry outright and
    /// emits [`RdlEvent::TypeReplaced`] so dependents invalidate. Returns
    /// whether anything was retracted — entries from any other
    /// [`AnnotationSource`] are user intent and are never touched.
    ///
    /// Inference derives signatures from method bodies, so a redefinition
    /// that changes the body makes the adopted signature *stale evidence*,
    /// not a contract the new body must satisfy: enforcing it would turn a
    /// previously legal reload into a type error. Retraction returns the
    /// method to its unannotated state; the next inference run re-derives
    /// against the new body.
    pub fn retract_inferred(&self, key: &MethodKey) -> bool {
        let mut inner = self.inner.borrow_mut();
        let inferred = inner
            .table
            .get(key)
            .is_some_and(|e| e.source == AnnotationSource::Inferred);
        if !inferred {
            return false;
        }
        inner.table.remove(key);
        inner.version_counter += 1;
        // The mutation history diverged from any tenant that never
        // adopted (or never retracted) — fingerprint the retraction so
        // the shared tier's identical-state fast path stays conservative.
        inner.table_fp = mix_fp(
            inner.table_fp,
            (
                key.class.as_str(),
                key.class_level,
                key.method.as_str(),
                "retract-inferred",
            ),
        );
        let ev = RdlEvent::TypeReplaced(*key);
        inner.events.push(ev.clone());
        drop(inner);
        self.notify(&ev);
        true
    }

    /// Looks up the entry for exactly this key (a pointer clone).
    pub fn entry(&self, key: &MethodKey) -> Option<Rc<TableEntry>> {
        self.inner.borrow().table.get(key).cloned()
    }

    /// Resolves a method type along an ancestor chain of interned class
    /// names — the engine hook's per-call lookup. Returns the annotation's
    /// own key plus a pointer clone of the entry; allocates nothing.
    pub fn lookup_along(
        &self,
        classes: impl IntoIterator<Item = Sym>,
        class_level: bool,
        method: Sym,
    ) -> Option<(MethodKey, Rc<TableEntry>)> {
        let inner = self.inner.borrow();
        for class in classes {
            let key = MethodKey {
                class,
                class_level,
                method,
            };
            if let Some(e) = inner.table.get(&key) {
                return Some((key, e.clone()));
            }
        }
        None
    }

    /// [`RdlState::lookup_along`] over plain class names (the static
    /// checker's resolution path, where chains arrive as strings).
    pub fn lookup_along_names(
        &self,
        classes: &[String],
        class_level: bool,
        method: &str,
    ) -> Option<(MethodKey, Rc<TableEntry>)> {
        let m = Sym::intern(method);
        self.lookup_along(classes.iter().map(|c| Sym::intern(c)), class_level, m)
    }

    /// Records that the checker consulted `key` (for "Used" statistics).
    pub fn mark_used(&self, key: &MethodKey) {
        self.inner.borrow_mut().used.insert(*key);
    }

    /// Registers an instance-variable type (no declaration site).
    pub fn set_ivar_type(&self, class: &str, ivar: &str, ty: Type) {
        self.set_ivar_type_at(class, ivar, ty, Span::dummy());
    }

    /// Registers an instance-variable type with its declaration site.
    pub fn set_ivar_type_at(&self, class: &str, ivar: &str, ty: Type, span: Span) {
        let mut inner = self.inner.borrow_mut();
        inner.table_fp = mix_fp(inner.table_fp, ("ivar", class, ivar, &ty));
        inner.var_fp = mix_fp(inner.var_fp, ("ivar", class, ivar, &ty));
        inner
            .ivar_types
            .insert((class.to_string(), ivar.to_string()), (ty, span));
    }

    /// Looks up an instance-variable type along an ancestor chain.
    pub fn ivar_type(&self, classes: &[String], ivar: &str) -> Option<Type> {
        self.ivar_decl(classes, ivar).map(|(t, _)| t)
    }

    /// Instance-variable type *and* declaration site along a chain.
    pub fn ivar_decl(&self, classes: &[String], ivar: &str) -> Option<(Type, Span)> {
        let inner = self.inner.borrow();
        for c in classes {
            if let Some(t) = inner.ivar_types.get(&(c.clone(), ivar.to_string())) {
                return Some(t.clone());
            }
        }
        None
    }

    /// Registers a class-variable type (no declaration site).
    pub fn set_cvar_type(&self, class: &str, cvar: &str, ty: Type) {
        self.set_cvar_type_at(class, cvar, ty, Span::dummy());
    }

    /// Registers a class-variable type with its declaration site.
    pub fn set_cvar_type_at(&self, class: &str, cvar: &str, ty: Type, span: Span) {
        let mut inner = self.inner.borrow_mut();
        inner.table_fp = mix_fp(inner.table_fp, ("cvar", class, cvar, &ty));
        inner.var_fp = mix_fp(inner.var_fp, ("cvar", class, cvar, &ty));
        inner
            .cvar_types
            .insert((class.to_string(), cvar.to_string()), (ty, span));
    }

    /// Looks up a class-variable type along an ancestor chain.
    pub fn cvar_type(&self, classes: &[String], cvar: &str) -> Option<Type> {
        self.cvar_decl(classes, cvar).map(|(t, _)| t)
    }

    /// Class-variable type *and* declaration site along a chain.
    pub fn cvar_decl(&self, classes: &[String], cvar: &str) -> Option<(Type, Span)> {
        let inner = self.inner.borrow();
        for c in classes {
            if let Some(t) = inner.cvar_types.get(&(c.clone(), cvar.to_string())) {
                return Some(t.clone());
            }
        }
        None
    }

    /// Registers a global-variable type (no declaration site).
    pub fn set_gvar_type(&self, gvar: &str, ty: Type) {
        self.set_gvar_type_at(gvar, ty, Span::dummy());
    }

    /// Registers a global-variable type with its declaration site.
    pub fn set_gvar_type_at(&self, gvar: &str, ty: Type, span: Span) {
        let mut inner = self.inner.borrow_mut();
        inner.table_fp = mix_fp(inner.table_fp, ("gvar", gvar, &ty));
        inner.var_fp = mix_fp(inner.var_fp, ("gvar", gvar, &ty));
        inner.gvar_types.insert(gvar.to_string(), (ty, span));
    }

    /// Looks up a global-variable type.
    pub fn gvar_type(&self, gvar: &str) -> Option<Type> {
        self.gvar_decl(gvar).map(|(t, _)| t)
    }

    /// Global-variable type *and* declaration site.
    pub fn gvar_decl(&self, gvar: &str) -> Option<(Type, Span)> {
        self.inner.borrow().gvar_types.get(gvar).cloned()
    }

    // ----- snapshot export ---------------------------------------------------
    //
    // The concurrent scheduler captures an owned, `Send` copy of the
    // checker-visible table state (the `CheckTask` world snapshot); these
    // accessors are that capture's read surface. Sorted for determinism.

    /// Every instance-variable declaration as `((class, ivar), (type,
    /// span))`, sorted.
    pub fn ivar_decls(&self) -> Vec<((String, String), (Type, Span))> {
        let mut v: Vec<_> = self
            .inner
            .borrow()
            .ivar_types
            .iter()
            .map(|(k, d)| (k.clone(), d.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Every class-variable declaration as `((class, cvar), (type,
    /// span))`, sorted.
    pub fn cvar_decls(&self) -> Vec<((String, String), (Type, Span))> {
        let mut v: Vec<_> = self
            .inner
            .borrow()
            .cvar_types
            .iter()
            .map(|(k, d)| (k.clone(), d.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Every global-variable declaration as `(gvar, (type, span))`, sorted.
    pub fn gvar_decls(&self) -> Vec<(String, (Type, Span))> {
        let mut v: Vec<_> = self
            .inner
            .borrow()
            .gvar_types
            .iter()
            .map(|(k, d)| (k.clone(), d.clone()))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Attaches a `pre` contract.
    pub fn add_pre(&self, key: MethodKey, hook: PreHook) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.pres.entry(key).or_default().push(hook);
            inner.pre_gen += 1;
        }
        self.notify_enforcement_changed();
    }

    /// True when no `pre` contracts exist at all — lets a dispatch
    /// resolution skip the ancestor walk entirely in the common case.
    pub fn no_pres(&self) -> bool {
        self.inner.borrow().pres.is_empty()
    }

    /// Monotonic generation of the `pre` contracts: bumped by every
    /// [`RdlState::add_pre`], never otherwise. Together with
    /// [`RdlState::table_generation`] it stamps memos of per-dispatch
    /// resolutions (which contracts and which annotation apply).
    pub fn pre_generation(&self) -> u64 {
        self.inner.borrow().pre_gen
    }

    /// True when some `pre` contract, on any class, is registered under
    /// this method name. The fast-entry patch gate is name-wide: a class
    /// rename or superclass rewire can bring any such contract onto a
    /// receiver's chain without flushing patches, while a contract added
    /// later flushes them itself. Scans every contract key, so callers
    /// memoise the answer.
    pub fn any_pre_named(&self, method: Sym, class_level: bool) -> bool {
        self.inner
            .borrow()
            .pres
            .keys()
            .any(|k| k.method == method && k.class_level == class_level)
    }

    /// Appends the `pre` contracts registered for `key` into `out`.
    pub fn pres_into(&self, key: &MethodKey, out: &mut Vec<PreHook>) {
        if let Some(ps) = self.inner.borrow().pres.get(key) {
            out.extend(ps.iter().cloned());
        }
    }

    /// Registers a streaming diagnostic sink; every subsequently recorded
    /// diagnostic fans out to it (in addition to the bounded store).
    pub fn add_diagnostic_sink(&self, sink: Rc<dyn DiagnosticSink>) {
        self.diag_sinks.borrow_mut().push(sink);
    }

    /// Sets the retention bound of the diagnostic store (see
    /// [`DEFAULT_DIAGNOSTICS_CAP`]). Shrinking below the current length
    /// drops the oldest entries immediately. A cap of zero keeps nothing —
    /// diagnostics then reach the embedder through sinks only.
    pub fn set_diagnostics_cap(&self, cap: usize) {
        let mut inner = self.inner.borrow_mut();
        inner.diagnostics_cap = Some(cap);
        while inner.diagnostics.len() > cap {
            inner.diagnostics.pop_front();
        }
    }

    /// Records a blame diagnostic, dropping the oldest once the retention
    /// bound is reached, then notifies every [`DiagnosticSink`].
    pub fn record_diagnostic(&self, d: TypeDiagnostic) {
        {
            let mut inner = self.inner.borrow_mut();
            let cap = inner.diagnostics_cap.unwrap_or(DEFAULT_DIAGNOSTICS_CAP);
            while inner.diagnostics.len() >= cap.max(1) {
                inner.diagnostics.pop_front();
            }
            if cap > 0 {
                inner.diagnostics.push_back(d.clone());
            }
        }
        for sink in self.diag_sinks.borrow().iter() {
            sink.on_diagnostic(&d);
        }
    }

    // ----- enforcement policies ---------------------------------------------

    /// True while the policy configuration resolves every dispatch to
    /// `Enforce` — the hot path's one-load fast test.
    pub fn policies_trivial(&self) -> bool {
        !self.policies_nontrivial.get()
    }

    /// Recomputes the hot path's triviality flag after a policy mutation.
    /// Triviality is semantic, not structural: a rollback that sets
    /// everything back to `Enforce` (global and any lingering overrides)
    /// restores the one-`Cell`-load fast path rather than latching the
    /// engine onto the slow path forever.
    fn refresh_policy_triviality(&self, inner: &RdlInner) {
        let trivial = inner.global_policy == CheckPolicy::Enforce
            && inner
                .class_policies
                .values()
                .all(|p| *p == CheckPolicy::Enforce)
            && inner
                .method_policies
                .values()
                .all(|p| *p == CheckPolicy::Enforce);
        self.policies_nontrivial.set(!trivial);
    }

    /// Sets the global enforcement policy.
    pub fn set_global_policy(&self, policy: CheckPolicy) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.global_policy = policy;
            self.refresh_policy_triviality(&inner);
        }
        self.notify_enforcement_changed();
    }

    /// Sets a per-class policy override (exact class name; applies to a
    /// method when the receiver's class or the annotation's declaring
    /// class matches).
    pub fn set_class_policy(&self, class: Sym, policy: CheckPolicy) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.class_policies.insert(class, policy);
            self.refresh_policy_triviality(&inner);
        }
        self.notify_enforcement_changed();
    }

    /// Sets a per-method policy override (exact key; matched against the
    /// receiver-class key and the annotation's own key).
    pub fn set_method_policy(&self, key: MethodKey, policy: CheckPolicy) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.method_policies.insert(key, policy);
            self.refresh_policy_triviality(&inner);
        }
        self.notify_enforcement_changed();
    }

    /// Counts a blame swallowed by [`CheckPolicy::Shadow`] (any layer).
    pub fn note_shadowed_blame(&self) {
        self.inner.borrow_mut().shadowed_blames += 1;
    }

    /// Blames swallowed by Shadow so far (snapshotted into
    /// `EngineStats::shadowed_blames`).
    pub fn shadowed_blames(&self) -> u64 {
        self.inner.borrow().shadowed_blames
    }

    /// Zeroes the shadowed-blame counter (statistics reset).
    pub fn reset_shadowed_blames(&self) {
        self.inner.borrow_mut().shadowed_blames = 0;
    }

    /// Resolves the effective policy for a dispatch: method override
    /// (receiver key, then annotation key), class override (receiver
    /// class, then annotation class), then the global policy.
    pub fn policy_for(&self, cache_key: &MethodKey, annotation_key: &MethodKey) -> CheckPolicy {
        let inner = self.inner.borrow();
        if let Some(&p) = inner
            .method_policies
            .get(cache_key)
            .or_else(|| inner.method_policies.get(annotation_key))
        {
            return p;
        }
        if let Some(&p) = inner
            .class_policies
            .get(&cache_key.class)
            .or_else(|| inner.class_policies.get(&annotation_key.class))
        {
            return p;
        }
        inner.global_policy
    }

    /// The retained blame diagnostics, oldest first.
    pub fn diagnostics(&self) -> Vec<TypeDiagnostic> {
        self.inner.borrow().diagnostics.iter().cloned().collect()
    }

    /// Clears the retained diagnostics.
    pub fn clear_diagnostics(&self) {
        self.inner.borrow_mut().diagnostics.clear();
    }

    /// Drains pending type-table events.
    pub fn drain_events(&self) -> Vec<RdlEvent> {
        std::mem::take(&mut self.inner.borrow_mut().events)
    }

    /// Monotonic generation of the type table: bumped by every annotation
    /// change, never otherwise. Memos keyed by it stay valid exactly as
    /// long as the table is quiescent.
    pub fn table_generation(&self) -> u64 {
        self.inner.borrow().version_counter
    }

    /// The rolling mutation fingerprint (see `RdlInner::table_fp`).
    pub fn table_fingerprint(&self) -> u64 {
        self.inner.borrow().table_fp
    }

    /// The rolling variable-type fingerprint (see `RdlInner::var_fp`).
    pub fn var_fingerprint(&self) -> u64 {
        self.inner.borrow().var_fp
    }

    /// Snapshot statistics for the evaluation tables.
    pub fn stats(&self) -> RdlStats {
        let inner = self.inner.borrow();
        let mut s = RdlStats::default();
        for (k, e) in &inner.table {
            s.total += 1;
            match e.source {
                AnnotationSource::Static => s.static_annotations += 1,
                AnnotationSource::Dynamic => {
                    s.dynamic_generated += 1;
                    if inner.used.contains(k) {
                        s.dynamic_used += 1;
                    }
                }
                AnnotationSource::Inferred => s.inferred_annotations += 1,
            }
            if e.check {
                s.checked_annotations += 1;
            }
        }
        s.used_total = inner.used.len();
        s.dyn_checks_run = inner.dyn_checks_run;
        s.casts_run = inner.casts_run;
        s
    }

    /// All entries, sorted by key (for deterministic reports).
    pub fn entries(&self) -> Vec<(MethodKey, Rc<TableEntry>)> {
        let inner = self.inner.borrow();
        let mut v: Vec<(MethodKey, Rc<TableEntry>)> =
            inner.table.iter().map(|(k, e)| (*k, e.clone())).collect();
        v.sort_by_key(|a| a.0);
        v
    }

    /// All keys with entries, sorted (for deterministic reports).
    pub fn keys(&self) -> Vec<MethodKey> {
        let mut v: Vec<MethodKey> = self.inner.borrow().table.keys().copied().collect();
        v.sort();
        v
    }

    /// Keys the checker consulted, sorted.
    pub fn used_keys(&self) -> Vec<MethodKey> {
        let mut v: Vec<MethodKey> = self.inner.borrow().used.iter().copied().collect();
        v.sort();
        v
    }
}

/// Aggregate annotation statistics (feeds Table 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RdlStats {
    pub total: usize,
    pub static_annotations: usize,
    pub checked_annotations: usize,
    pub dynamic_generated: usize,
    pub dynamic_used: usize,
    /// Entries registered by the checker-verified inference pass.
    pub inferred_annotations: usize,
    pub used_total: usize,
    pub dyn_checks_run: u64,
    pub casts_run: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_types::parse_method_type;

    fn mt(s: &str) -> MethodType {
        parse_method_type(s).unwrap()
    }

    #[test]
    fn add_and_lookup() {
        let st = RdlState::new();
        let key = MethodKey::instance("Talk", "owner?");
        st.add_type(
            key,
            mt("(User) -> %bool"),
            true,
            false,
            AnnotationSource::Static,
            false,
        );
        let e = st.entry(&key).unwrap();
        assert!(e.check);
        assert_eq!(e.sig.arms.len(), 1);
        assert_eq!(key.display(), "Talk#owner?");
    }

    #[test]
    fn repeated_type_builds_intersection() {
        let st = RdlState::new();
        let key = MethodKey::instance("Array", "[]");
        st.add_type(
            key,
            mt("(Fixnum or Float) -> t"),
            false,
            false,
            AnnotationSource::Static,
            false,
        );
        st.add_type(
            key,
            mt("(Fixnum, Fixnum) -> Array<t>"),
            false,
            false,
            AnnotationSource::Static,
            false,
        );
        st.add_type(
            key,
            mt("(Range<Fixnum>) -> Array<t>"),
            false,
            false,
            AnnotationSource::Static,
            false,
        );
        assert_eq!(st.entry(&key).unwrap().sig.arms.len(), 3);
        let ev = st.drain_events();
        assert_eq!(ev[0], RdlEvent::TypeAdded(key));
        assert_eq!(ev[1], RdlEvent::ArmAdded(key));
        assert_eq!(ev[2], RdlEvent::ArmAdded(key));
    }

    #[test]
    fn duplicate_arm_is_harmless_no_event() {
        let st = RdlState::new();
        let key = MethodKey::instance("A", "m");
        st.add_type(
            key,
            mt("() -> %bool"),
            false,
            false,
            AnnotationSource::Dynamic,
            false,
        );
        st.drain_events();
        st.add_type(
            key,
            mt("() -> %bool"),
            false,
            false,
            AnnotationSource::Dynamic,
            false,
        );
        assert!(st.drain_events().is_empty());
        assert_eq!(st.entry(&key).unwrap().sig.arms.len(), 1);
    }

    #[test]
    fn replace_emits_replaced() {
        let st = RdlState::new();
        let key = MethodKey::instance("A", "m");
        st.add_type(
            key,
            mt("() -> %bool"),
            false,
            false,
            AnnotationSource::Static,
            false,
        );
        st.drain_events();
        st.add_type(
            key,
            mt("() -> String"),
            false,
            false,
            AnnotationSource::Static,
            true,
        );
        assert_eq!(st.drain_events(), vec![RdlEvent::TypeReplaced(key)]);
        assert_eq!(st.entry(&key).unwrap().sig.arms.len(), 1);
    }

    #[test]
    fn lookup_along_ancestors() {
        let st = RdlState::new();
        st.add_type(
            MethodKey::instance("Base", "save"),
            mt("() -> %bool"),
            false,
            false,
            AnnotationSource::Static,
            false,
        );
        let chain = vec!["Talk".to_string(), "Base".to_string(), "Object".to_string()];
        let (key, _) = st.lookup_along_names(&chain, false, "save").unwrap();
        assert_eq!(key.class, "Base");
        assert!(st.lookup_along_names(&chain, false, "missing").is_none());
    }

    #[test]
    fn ivar_types_along_chain() {
        let st = RdlState::new();
        st.set_ivar_type(
            "Base",
            "items",
            hb_types::parse_type("Array<Fixnum>").unwrap(),
        );
        let chain = vec!["Sub".to_string(), "Base".to_string()];
        assert_eq!(
            st.ivar_type(&chain, "items").unwrap().to_string(),
            "Array<Fixnum>"
        );
        assert!(st.ivar_type(&chain, "other").is_none());
    }

    #[test]
    fn stats_distinguish_sources_and_usage() {
        let st = RdlState::new();
        let s1 = MethodKey::instance("A", "m1");
        let d1 = MethodKey::instance("A", "m2");
        let d2 = MethodKey::instance("A", "m3");
        st.add_type(
            s1,
            mt("() -> nil"),
            true,
            false,
            AnnotationSource::Static,
            false,
        );
        st.add_type(
            d1,
            mt("() -> nil"),
            false,
            false,
            AnnotationSource::Dynamic,
            false,
        );
        st.add_type(
            d2,
            mt("() -> nil"),
            false,
            false,
            AnnotationSource::Dynamic,
            false,
        );
        st.mark_used(&d1);
        let stats = st.stats();
        assert_eq!(stats.total, 3);
        assert_eq!(stats.static_annotations, 1);
        assert_eq!(stats.checked_annotations, 1);
        assert_eq!(stats.dynamic_generated, 2);
        assert_eq!(stats.dynamic_used, 1);
    }
}
