//! The six subject apps in steady state answer every intercepted call
//! from the engine's dispatch memo: after two warm-up request scripts, a
//! third resolves no dispatch afresh, on both tiers. The memo changes how
//! a call is resolved, never what the engine does with it, so the
//! script's intercepted calls, cache hits and dynamic argument checks are
//! pinned to the counts the two-hook engine (before the memo) produced.

use hb_apps::{all_apps, build_app_with, AppSpec};
use hummingbird::{ExecTier, Hummingbird, Mode};

/// Per app: (intercepted calls, cache hits, dynamic argument checks) of
/// one steady-state script. Identical on both tiers (fast-prologue hits
/// fold into both counters).
fn pinned(app: &str) -> (u64, u64, u64) {
    match app {
        "Talks" => (185, 27, 105),
        "Boxroom" => (133, 12, 89),
        "Pubs" => (744, 93, 403),
        "Rolify" => (46, 33, 23),
        "CCT" => (49, 42, 41),
        "Countries" => (212, 211, 106),
        other => panic!("no pinned counts for {other}"),
    }
}

/// Reseeds, since the Rails apps insert rows on every script.
fn reseed(spec: &AppSpec, hb: &mut Hummingbird) {
    if !spec.seed.is_empty() {
        hb.eval(spec.seed).unwrap();
    }
}

fn script(spec: &AppSpec, hb: &mut Hummingbird) {
    hb.eval(&(spec.workload_call)(1))
        .unwrap_or_else(|e| panic!("{}: script raised: {e}", spec.name));
}

#[test]
fn steady_script_resolves_nothing_and_counts_match() {
    for spec in all_apps() {
        for tier in [ExecTier::TreeWalk, ExecTier::Bytecode] {
            let mut hb = build_app_with(
                &spec,
                Hummingbird::builder().mode(Mode::Full).exec_tier(tier),
            );
            // Two warm-up scripts: the first ends with Rolify's Fig. 2 pre
            // typing a generated method, which moves the table generation
            // and clears the memo, so its second script re-resolves 13
            // dispatches once.
            for _ in 0..2 {
                reseed(&spec, &mut hb);
                script(&spec, &mut hb);
            }
            reseed(&spec, &mut hb);
            let before = hb.stats();
            script(&spec, &mut hb);
            let after = hb.stats();
            let at = format!("{} on {tier:?}", spec.name);
            assert_eq!(
                after.dispatch_resolutions, before.dispatch_resolutions,
                "{at}: the third script must resolve no dispatch afresh"
            );
            let counts = (
                after.intercepted_calls - before.intercepted_calls,
                after.cache_hits - before.cache_hits,
                after.dyn_arg_checks - before.dyn_arg_checks,
            );
            assert_eq!(counts, pinned(spec.name), "{at}: per-script counts");
        }
    }
}
