//! `serve`: the six apps in steady state, Orig and Hum interleaved on both
//! tiers — Table 1's overhead.

use crate::alloc;
use crate::apps::{self, guarded};
use crate::report::{Field, Metrics};
use crate::stats::{geomean, median, quantile, Rng, Tally, TIMING_Q};
use hb_apps::AppSpec;
use hummingbird::{ExecTier, Hummingbird, Mode, Value};
use std::time::Instant;

pub const TIERS: [ExecTier; 2] = [ExecTier::TreeWalk, ExecTier::Bytecode];
/// Scripts each app instance runs before timing starts: the first checks
/// every method the script reaches and the bytecode tier patches fast
/// entries as derivations land, so later scripts are steady.
pub const WARMUP_SCRIPTS: usize = 3;

const ORIG: usize = 0;
const HUM: usize = 1;

/// What one script did, from the engine's counters and the allocator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScriptCounts {
    pub intercepted: u64,
    pub cache_hits: u64,
    /// Static checks run (passed or blamed).
    pub checks: u64,
    pub dyn_arg_checks: u64,
    pub allocs: u64,
}

/// The observable outcome of one script: its inspected result and the
/// app state it left.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Observed {
    pub result: String,
    pub state: String,
}

/// One app instance in one mode on one tier.
pub struct Instance {
    pub hb: Hummingbird,
    script: String,
    checks_after_warmup: u64,
    diagnostics_after_warmup: usize,
}

impl Instance {
    pub fn boot(spec: &AppSpec, mode: Mode, tier: ExecTier) -> Result<Instance, String> {
        let mut hb = apps::boot(spec, apps::builder(mode, tier, None))?;
        let script = apps::script(spec);
        for _ in 0..WARMUP_SCRIPTS {
            apps::reseed(spec, &mut hb)?;
            hb.eval(&script)
                .map_err(|e| format!("{}: warm-up script raised: {e}", spec.name))?;
        }
        let s = hb.stats();
        Ok(Instance {
            checks_after_warmup: s.checks_performed + s.checks_failed,
            diagnostics_after_warmup: hb.diagnostics().len(),
            hb,
            script,
        })
    }

    /// Runs one request script after reseeding (both outside the timed
    /// interval, as is reading the observable). With `traced`, also
    /// returns the script's counts.
    pub fn run(
        &mut self,
        spec: &AppSpec,
        traced: bool,
    ) -> Result<(f64, Observed, Option<ScriptCounts>), String> {
        guarded(|| {
            apps::reseed(spec, &mut self.hb)?;
            let (ns, result, counts) = self.script(spec, traced)?;
            let state = self
                .hb
                .eval(apps::observable(spec))
                .map_err(|e| format!("{}: observable raised: {e}", spec.name))?;
            let observed = Observed {
                result: self.hb.interp.inspect(&result),
                state: self.hb.interp.inspect(&state),
            };
            Ok((ns, observed, counts))
        })
    }

    /// Runs the request script once, timed; with `traced`, also counts
    /// what it did.
    fn script(
        &mut self,
        spec: &AppSpec,
        traced: bool,
    ) -> Result<(f64, Value, Option<ScriptCounts>), String> {
        let before = traced.then(|| self.hb.stats());
        let hb = &mut self.hb;
        let script = &self.script;
        let mut timed = || {
            let t = Instant::now();
            let r = hb.eval(script);
            (r, t.elapsed().as_nanos() as f64)
        };
        let ((result, ns), allocs) = if traced {
            alloc::counted(timed)
        } else {
            (timed(), 0)
        };
        let result = result.map_err(|e| format!("{}: script raised: {e}", spec.name))?;
        let counts = before.map(|b| {
            let a = self.hb.stats();
            ScriptCounts {
                intercepted: a.intercepted_calls - b.intercepted_calls,
                cache_hits: a.cache_hits - b.cache_hits,
                checks: (a.checks_performed + a.checks_failed)
                    - (b.checks_performed + b.checks_failed),
                dyn_arg_checks: a.dyn_arg_checks - b.dyn_arg_checks,
                allocs,
            }
        });
        Ok((ns, result, counts))
    }

    /// Steady state runs no checker and blames nothing.
    fn audit(&self, spec: &AppSpec) -> Result<(), String> {
        let s = self.hb.stats();
        let checks = s.checks_performed + s.checks_failed - self.checks_after_warmup;
        let diags = self.hb.diagnostics().len() - self.diagnostics_after_warmup;
        if checks != 0 || diags != 0 {
            return Err(format!(
                "{}: {checks} checks and {diags} diagnostics after warm-up",
                spec.name
            ));
        }
        Ok(())
    }
}

/// One app on one tier, Orig and Hum side by side.
struct Cell {
    app: usize,
    tier: ExecTier,
    inst: [Instance; 2],
    /// Untraced script times, ns, by mode.
    ns: [Vec<f64>; 2],
    /// Traced script times, ns, by mode.
    traced_ns: [Vec<f64>; 2],
    /// Counts of the traced scripts, by mode.
    counts: [Vec<ScriptCounts>; 2],
}

pub struct Serve {
    cells: Vec<Cell>,
    rounds: usize,
}

impl Serve {
    /// Boots every app in both modes on both tiers and warms each up.
    pub fn setup(specs: &[AppSpec]) -> Result<Serve, String> {
        let mut cells = Vec::new();
        for (app, spec) in specs.iter().enumerate() {
            for tier in TIERS {
                cells.push(Cell {
                    app,
                    tier,
                    inst: [
                        Instance::boot(spec, Mode::Original, tier)?,
                        Instance::boot(spec, Mode::Full, tier)?,
                    ],
                    ns: [Vec::new(), Vec::new()],
                    traced_ns: [Vec::new(), Vec::new()],
                    counts: [Vec::new(), Vec::new()],
                });
            }
        }
        Ok(Serve { cells, rounds: 0 })
    }

    /// One round: every (app, tier) cell in a seeded order, one Orig and
    /// one Hum script in each. With `trace`, every other round is traced.
    pub fn round(&mut self, specs: &[AppSpec], trace: bool, rng: &mut Rng, tally: &mut Tally) {
        // Traced rounds alternate with untraced ones, and within each kind
        // the mode that goes first alternates too.
        let traced = trace && self.rounds % 2 == 1;
        let hum_first = (self.rounds / 2) % 2 == 1;
        self.rounds += 1;
        let mut order: Vec<usize> = (0..self.cells.len()).collect();
        rng.shuffle(&mut order);
        for c in order {
            let cell = &mut self.cells[c];
            let spec = &specs[cell.app];
            let modes = if hum_first { [HUM, ORIG] } else { [ORIG, HUM] };
            let mut observed: [Result<Observed, String>; 2] =
                [Err(String::new()), Err(String::new())];
            for mode in modes {
                observed[mode] = cell.inst[mode].run(spec, traced).map(|(ns, obs, counts)| {
                    if traced {
                        cell.traced_ns[mode].push(ns);
                        cell.counts[mode].extend(counts);
                    } else {
                        cell.ns[mode].push(ns);
                    }
                    obs
                });
            }
            let [orig, hum] = observed;
            let hum = match (&orig, hum) {
                (Ok(o), Ok(h)) if *o != h => Err(format!(
                    "{} on {}: Hum observed {h:?}, Orig {o:?}",
                    spec.name,
                    apps::tier_name(cell.tier)
                )),
                (_, h) => h.map(drop),
            };
            tally.record(orig.map(drop));
            tally.record(hum);
        }
    }

    /// Checks, once per Hum instance, that steady state ran no checker and
    /// blamed nothing.
    pub fn audit(&self, specs: &[AppSpec], tally: &mut Tally) {
        for cell in &self.cells {
            tally.record(cell.inst[HUM].audit(&specs[cell.app]));
        }
    }

    pub fn metrics(&self, trace_overhead: bool) -> Metrics {
        let mut m = Metrics::default();
        let mut overhead = (0.0, 0.0);
        for tier in TIERS {
            let t = apps::tier_name(tier);
            let cells: Vec<&Cell> = self.cells.iter().filter(|c| c.tier == tier).collect();
            let apps_n = cells.len() as f64;
            let med = |c: &Cell, mode: usize| median(&c.ns[mode]);
            let hum_scripts: usize = cells.iter().map(|c| c.ns[HUM].len()).sum();
            let pairs = cells
                .iter()
                .map(|c| c.ns[ORIG].len().min(c.ns[HUM].len()))
                .min()
                .unwrap_or(0);
            let hum_sum_ns: f64 = cells.iter().map(|c| med(c, HUM)).sum();
            let orig_sum_ns: f64 = cells.iter().map(|c| med(c, ORIG)).sum();
            // Per second of busy time, one script per app at its p10 time.
            let hum_fast_ns: f64 = cells.iter().map(|c| quantile(&c.ns[HUM], TIMING_Q)).sum();
            m.e2e(
                format!("serve_scripts_per_s.{t}"),
                apps_n / (hum_fast_ns * 1e-9),
                "1/s",
                hum_scripts,
            );
            let ratios: Vec<f64> = cells.iter().map(|c| med(c, HUM) / med(c, ORIG)).collect();
            m.e2e(
                format!("hum_over_orig.{t}"),
                geomean(&ratios),
                "ratio",
                pairs,
            );

            m.layer(
                format!("interp.orig_script_us.{t}"),
                orig_sum_ns / apps_n / 1e3,
                "us",
                pairs,
            );
            if let Some((intercepted, _)) = per_script(&cells, HUM, |c| c.intercepted) {
                m.layer(
                    format!("engine.hook_ns_per_call.{t}"),
                    (hum_sum_ns - orig_sum_ns) / (intercepted * apps_n),
                    "ns",
                    pairs,
                );
            }
            for (mode, name) in [(ORIG, "orig"), (HUM, "hum")] {
                if let Some((value, n)) = per_script(&cells, mode, |c| c.allocs) {
                    m.layer(format!("alloc.per_script.{name}.{t}"), value, "count", n);
                }
            }
            if tier == ExecTier::Bytecode {
                let patched: u64 = cells
                    .iter()
                    .map(|c| c.inst[HUM].hb.stats().fast_entries_patched)
                    .sum();
                m.layer(
                    "engine.fast_entries_patched",
                    patched as f64,
                    "count",
                    cells.len(),
                );
            }
            for c in &cells {
                for mode in [ORIG, HUM] {
                    if !c.traced_ns[mode].is_empty() {
                        overhead.0 += median(&c.traced_ns[mode]);
                        overhead.1 += med(c, mode);
                    }
                }
            }
        }
        let all: Vec<&Cell> = self.cells.iter().collect();
        let engine: [Field<ScriptCounts>; 4] = [
            ("engine.intercepted_per_script", |c| c.intercepted),
            ("engine.cache_hits_per_script", |c| c.cache_hits),
            ("engine.checks_per_script", |c| c.checks),
            ("rdl.dyn_arg_checks_per_script", |c| c.dyn_arg_checks),
        ];
        for (name, f) in engine {
            if let Some((value, n)) = per_script(&all, HUM, f) {
                m.layer(name, value, "count", n);
            }
        }
        if trace_overhead {
            m.layer(
                "trace.overhead",
                overhead.0 / overhead.1,
                "ratio",
                self.cells.len() * 2,
            );
        }
        m
    }
}

/// One count per app-script: the mean over `cells` of each cell's median
/// of `f` over its traced scripts in `mode`, with the number of scripts
/// behind it; `None` until every cell has a traced script.
fn per_script(cells: &[&Cell], mode: usize, f: fn(&ScriptCounts) -> u64) -> Option<(f64, usize)> {
    let mut sum = 0.0;
    let mut n = 0;
    for c in cells {
        let xs: Vec<f64> = c.counts[mode].iter().map(|x| f(x) as f64).collect();
        if xs.is_empty() {
            return None;
        }
        sum += median(&xs);
        n += xs.len();
    }
    Some((sum / cells.len() as f64, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts of scripts 1 and `n` after warm-up.
    fn counts_at(
        spec: &AppSpec,
        mode: Mode,
        tier: ExecTier,
        n: usize,
        reseed: bool,
    ) -> (ScriptCounts, ScriptCounts) {
        let mut inst = Instance::boot(spec, mode, tier).unwrap();
        let mut counts = Vec::new();
        for i in 1..=n {
            if reseed {
                apps::reseed(spec, &mut inst.hb).unwrap();
            }
            let (_, _, c) = inst.script(spec, i == 1 || i == n).unwrap();
            counts.extend(c);
        }
        (counts[0], counts[1])
    }

    /// Scripts 1 and 1000 after warm-up, in every app, mode and tier.
    fn script_1_and_1000() -> Vec<(String, ScriptCounts, ScriptCounts)> {
        let mut out = Vec::new();
        for spec in hb_apps::all_apps() {
            for tier in TIERS {
                for mode in [Mode::Original, Mode::Full] {
                    let (first, last) = counts_at(&spec, mode, tier, 1000, true);
                    let cell = format!("{} {mode:?} on {}", spec.name, apps::tier_name(tier));
                    out.push((cell, first, last));
                }
            }
        }
        out
    }

    #[test]
    fn reseeded_scripts_keep_a_fixed_working_set() {
        for (cell, first, last) in script_1_and_1000() {
            let engine =
                |c: &ScriptCounts| [c.intercepted, c.cache_hits, c.checks, c.dyn_arg_checks];
            assert_eq!(
                engine(&first),
                engine(&last),
                "{cell}: script 1 vs script 1000"
            );
        }
    }

    /// Fails while the Rails apps' allocation counts depend on hash seeds:
    /// `hb_rails`'s `row_to_hash` sorts a row's columns with a comparator
    /// that formats both keys, so the number of allocations follows the
    /// comparisons the sort makes on the row's `HashMap` iteration order.
    #[test]
    fn reseeded_scripts_allocate_the_same() {
        let differing: Vec<String> = script_1_and_1000()
            .into_iter()
            .filter(|(_, first, last)| first.allocs != last.allocs)
            .map(|(cell, first, last)| format!("{cell}: {} vs {}", first.allocs, last.allocs))
            .collect();
        assert!(
            differing.is_empty(),
            "allocations, script 1 vs script 1000: {differing:#?}"
        );
    }

    #[test]
    fn unseeded_talks_grows() {
        let (first, last) = counts_at(
            &hb_apps::talks(),
            Mode::Full,
            ExecTier::TreeWalk,
            100,
            false,
        );
        assert!(
            last.intercepted > first.intercepted,
            "{first:?} vs {last:?}"
        );
    }

    #[test]
    fn the_oracle_sees_what_a_script_writes() {
        let spec = hb_apps::talks();
        let mut orig = Instance::boot(&spec, Mode::Original, ExecTier::Bytecode).unwrap();
        let mut hum = Instance::boot(&spec, Mode::Full, ExecTier::Bytecode).unwrap();
        let (_, o, _) = orig.run(&spec, false).unwrap();
        let (_, h, _) = hum.run(&spec, false).unwrap();
        assert_eq!(o, h);
        assert!(h.state.contains("New talk"), "{}", h.state);
    }
}
