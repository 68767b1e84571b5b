//! Engine-side glue for the concurrent check scheduler (`hb-sched`).
//!
//! The scheduler's [`WorldSnapshot`] is an owned, `Send` capture of the
//! checker-visible world; this module is where that capture is taken —
//! on the interpreter thread, against the live registry and `RdlState` —
//! and where the diagnostic ordering shared by the serial and parallel
//! `check_all` paths lives.

use hb_rdl::RdlState;
use hb_sched::WorldSnapshot;
use hb_syntax::TypeDiagnostic;
use std::collections::HashMap;

/// Captures the checker-visible world: every registered class's ancestor
/// chain (exactly the chains [`crate::RegistryInfo`] serves), the full
/// annotation table, ivar/cvar/gvar declarations, and the capture-time
/// epoch fingerprints `(table_fp, hierarchy_fp, var_fp)`.
///
/// The capture is O(classes + annotations); the engine memoises the
/// resulting `Arc` per epoch triple, so a burst of task extractions at a
/// quiescent table pays for one capture.
pub fn capture_world(interp: &hb_interp::Interp, rdl: &RdlState) -> WorldSnapshot {
    let registry = &interp.registry;
    let mut chains: HashMap<String, Vec<String>> = HashMap::new();
    for i in 0..registry.class_count() as u32 {
        let cid = hb_interp::ClassId(i);
        let mut names: Vec<String> = registry
            .ancestors(cid)
            .into_iter()
            .map(|c| registry.name(c).to_string())
            .collect();
        if names.last().map(String::as_str) != Some("Object") {
            names.push("Object".to_string());
        }
        chains.insert(registry.name(cid).to_string(), names);
    }
    let table = rdl
        .entries()
        .into_iter()
        .map(|(k, e)| (k, (*e).clone()))
        .collect();
    let ivars = rdl.ivar_decls().into_iter().collect();
    let cvars = rdl.cvar_decls().into_iter().collect();
    let gvars = rdl.gvar_decls().into_iter().collect();
    WorldSnapshot::new(
        chains,
        table,
        ivars,
        cvars,
        gvars,
        world_epochs(interp, rdl),
    )
}

/// The epoch fingerprints of the checker-visible world, `(table_fp,
/// hierarchy_fp, var_fp)`: what a derivation made elsewhere — another
/// tenant's, a worker's, a fleet peer's — was made against.
pub(crate) fn world_epochs(interp: &hb_interp::Interp, rdl: &RdlState) -> (u64, u64, u64) {
    (
        rdl.table_fingerprint(),
        interp.registry.shape_fingerprint(),
        rdl.var_fingerprint(),
    )
}

/// Sorts diagnostics into the stable reporting order shared by serial and
/// parallel whole-program checking: `(file, span, code)`, with message as
/// a final tiebreaker. Golden tests and `hb_lint --json` byte-compare
/// against this order, so it must not depend on worker interleaving or
/// hash-map iteration order.
pub fn sort_diagnostics(diags: &mut [TypeDiagnostic]) {
    diags.sort_by(|a, b| {
        (a.span.file.0, a.span.lo, a.span.hi, a.code)
            .cmp(&(b.span.file.0, b.span.lo, b.span.hi, b.code))
            .then_with(|| a.message.cmp(&b.message))
    });
}
