//! `pre` contracts at dispatch: which ones apply to a call, and running
//! them before it. The engine's call hook drives both (it memoises the
//! first per receiver chain and calls the second on every dispatch).

use crate::state::{CheckPolicy, MethodKey, PreHook, RdlState};
use hb_interp::{DispatchInfo, ErrorKind, Flow, HbError, Interp, Value};
use hb_syntax::{BlameTarget, DiagCode, DiagLabel, LabelRole, TypeDiagnostic};

/// The `pre` contracts that apply to a dispatch, in registration order
/// per class, receiver chain first.
///
/// Contracts may be registered against the defining module or any class
/// in the receiver's ancestry (Fig. 1 registers on the framework module;
/// Fig. 2 style registers on the mixing class), so they are gathered along
/// the whole chain, plus the owner when it is not on it.
pub fn applicable_pres(state: &RdlState, interp: &Interp, info: &DispatchInfo) -> Vec<PreHook> {
    let mut pres = Vec::new();
    if state.no_pres() {
        return pres;
    }
    let key = |class| MethodKey {
        class,
        class_level: info.class_level,
        method: info.name,
    };
    let mut saw_owner = false;
    for (cid, class) in interp.registry.ancestor_syms(info.recv_class) {
        saw_owner |= cid == info.owner;
        state.pres_into(&key(class), &mut pres);
    }
    if !saw_owner {
        state.pres_into(&key(interp.registry.name_sym(info.owner)), &mut pres);
    }
    pres
}

/// Runs `pres` before the call `info` describes. Each proc executes with
/// `self` rebound to the receiver, so Fig. 1's `type ...` calls inside a
/// `belongs_to` pre-hook target the model class. `key` is the receiver's
/// method key (the blame target and the policy lookup key).
///
/// # Errors
///
/// A rejecting contract under [`CheckPolicy::Enforce`] raises
/// [`ErrorKind::ContractBlame`]; an error raised by a contract itself
/// propagates.
pub fn run_pres(
    state: &RdlState,
    interp: &mut Interp,
    info: &DispatchInfo,
    key: MethodKey,
    recv: &Value,
    args: &[Value],
    pres: &[PreHook],
) -> Result<(), HbError> {
    // Enforcement policy for this method. The proc itself ALWAYS runs
    // — pre hooks are where metaprogramming libraries generate types
    // (Fig. 1), so skipping them would change program behaviour; the
    // policy governs only what a falsy (rejecting) result does.
    let policy = if state.policies_trivial() {
        CheckPolicy::Enforce
    } else {
        state.policy_for(&key, &key)
    };
    for p in pres {
        let result = interp
            .call_proc(&p.proc_val, args.to_vec(), None, Some(recv.clone()), false)
            .map_err(Flow::into_error)?;
        if !result.truthy() {
            if policy == CheckPolicy::Off {
                continue;
            }
            let shadowed = policy == CheckPolicy::Shadow;
            let message = format!("precondition of {} failed", key.display());
            let mut diag = TypeDiagnostic::error(
                DiagCode::PreconditionFailed,
                message.clone(),
                info.span,
                BlameTarget::Annotation(key),
            )
            .with_method(key)
            .with_label(
                DiagLabel::new(
                    LabelRole::BlamedAnnotation,
                    "precondition contract registered here",
                    p.span,
                )
                .with_method(key),
            )
            .with_label(DiagLabel::new(
                LabelRole::CallSite,
                "rejected call made here",
                info.span,
            ));
            if shadowed {
                diag.labels.push(CheckPolicy::shadow_note());
            }
            state.record_diagnostic(diag.clone());
            if shadowed {
                // Canary mode: the rejection is recorded and counted,
                // the call proceeds.
                state.note_shadowed_blame();
                continue;
            }
            return Err(HbError::with_diagnostic(
                ErrorKind::ContractBlame,
                message,
                info.span,
                diag,
            ));
        }
    }
    Ok(())
}
