//! `edit`: Talks in development mode, live-reloading its formatter and
//! replaying the Table 2 request script — the write path beside `serve`'s
//! read path.

use crate::alloc;
use crate::apps::{self, elapsed_ns};
use crate::report::{Field, Metrics};
use crate::stats::{median, quantile, Rng, Tally, TAIL_Q};
use hb_apps::talks_history::update_versions;
use hummingbird::{ExecTier, Hummingbird, Mode};
use std::time::Instant;

/// Edits pin the bytecode tier: invalidation also depatches and deopts
/// there.
pub const TIER: ExecTier = ExecTier::Bytecode;
const FORMATTER: &str = "talks/updates/formatter.rb";
const FORMATTER_ANNOTATIONS: &str =
    include_str!("../../crates/hb-apps/apps/talks/updates/annotations.rb");
/// The request script Table 2 replays after every update.
const REQUESTS: &str = r#"
fmt = TalkFormatter.new
list = TalkList.find(1)
talk = Talk.find(1)
fmt.head(talk)
fmt.row(talk)
fmt.page(list)
fmt.footer
fmt.banner(list) if TalkFormatter.method_defined?(:banner)
fmt.sidebar(list) if TalkFormatter.method_defined?(:sidebar)
talks_requests
"#;
/// The first cycle reloads v1..v6 and then v0; its re-checks are Table 2's
/// Chk'd column for v1..v6, then v0's four formatter methods.
pub const FIRST_CYCLE: [usize; 7] = [1, 2, 3, 4, 5, 6, 0];
pub const FIRST_CYCLE_RECHECKS: [usize; 7] = [2, 4, 0, 2, 1, 5, 4];

/// What one update did.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct UpdateRun {
    pub total_ns: u64,
    pub reload_ns: u64,
    pub replay_ns: u64,
    pub rechecks: u64,
    pub invalidations: u64,
    pub dependent_invalidations: u64,
    pub deopts: u64,
    pub allocs: u64,
}

/// The equal-by-value part of an update: everything but its times.
#[cfg(test)]
pub fn counts(r: &UpdateRun) -> [u64; 5] {
    [
        r.rechecks,
        r.invalidations,
        r.dependent_invalidations,
        r.deopts,
        r.allocs,
    ]
}

pub struct Edit {
    pub hb: Hummingbird,
    versions: Vec<&'static str>,
    current: usize,
    steps: usize,
    runs: Vec<UpdateRun>,
    traced: Vec<UpdateRun>,
    first_cycle: Vec<UpdateRun>,
}

impl Edit {
    /// Boots Talks with formatter v0 and serves the request script once.
    pub fn setup(spec: &hb_apps::AppSpec) -> Result<Edit, String> {
        let mut hb = apps::boot(spec, apps::builder(Mode::Full, TIER, None))?;
        let versions: Vec<&'static str> = update_versions().into_iter().map(|(_, s)| s).collect();
        hb.load_file(FORMATTER, versions[0])
            .and_then(|_| hb.load_file("talks/updates/annotations.rb", FORMATTER_ANNOTATIONS))
            .and_then(|_| hb.eval(REQUESTS))
            .map_err(|e| format!("edit setup raised: {e}"))?;
        hb.engine.take_check_log();
        Ok(Edit {
            hb,
            versions,
            current: 0,
            steps: 0,
            runs: Vec::new(),
            traced: Vec::new(),
            first_cycle: Vec::new(),
        })
    }

    /// Reloads the formatter as version `v` and replays the requests.
    /// The database is reseeded first, outside the timed interval, so
    /// every replay sees the same rows.
    pub fn update(&mut self, v: usize, traced: bool) -> Result<UpdateRun, String> {
        let hb = &mut self.hb;
        let src = self.versions[v];
        let out = apps::guarded(|| {
            hb.eval("talks_seed")
                .map_err(|e| format!("reseed raised: {e}"))?;
            hb.engine.take_check_log();
            let diagnostics = hb.diagnostics().len();
            let before = traced.then(|| hb.stats());
            let mut timed = || -> Result<UpdateRun, String> {
                let t0 = Instant::now();
                hb.reload_file(FORMATTER, src)
                    .map_err(|e| format!("reload to v{v} raised: {e}"))?;
                let reload_ns = elapsed_ns(t0);
                let t1 = Instant::now();
                hb.eval(REQUESTS)
                    .map_err(|e| format!("replay after v{v} raised: {e}"))?;
                Ok(UpdateRun {
                    replay_ns: elapsed_ns(t1),
                    reload_ns,
                    total_ns: elapsed_ns(t0),
                    ..UpdateRun::default()
                })
            };
            let (run, allocs) = if traced {
                alloc::counted(timed)
            } else {
                (timed(), 0)
            };
            let mut run = run?;
            run.allocs = allocs;
            let log = hb.engine.take_check_log();
            run.rechecks = log.len() as u64;
            if log.iter().any(|item| !item.outcome.passed())
                || hb.diagnostics().len() != diagnostics
            {
                return Err(format!("update to v{v} blamed"));
            }
            if let Some(b) = before {
                let a = hb.stats();
                run.invalidations = a.invalidations - b.invalidations;
                run.dependent_invalidations = a.dependent_invalidations - b.dependent_invalidations;
                run.deopts = a.deopts - b.deopts;
            }
            Ok(run)
        });
        self.current = v;
        out
    }

    /// The first call runs the first cycle, checked against Table 2 and
    /// traced when `trace`; later calls each make one step of a seeded
    /// walk over v0..v6, every other step traced when `trace`.
    pub fn step(&mut self, trace: bool, rng: &mut Rng, tally: &mut Tally) {
        if self.first_cycle.is_empty() {
            for (&v, &want) in FIRST_CYCLE.iter().zip(&FIRST_CYCLE_RECHECKS) {
                let outcome = self.update(v, trace).and_then(|run| {
                    if run.rechecks != want as u64 {
                        return Err(format!(
                            "v{v}: {} re-checks, Table 2 says {want}",
                            run.rechecks
                        ));
                    }
                    Ok(run)
                });
                // A failed update still fills its slot, so the cycle runs once.
                self.first_cycle.push(outcome.clone().unwrap_or_default());
                tally.record(outcome.map(drop));
            }
            return;
        }
        let traced = trace && self.steps % 2 == 1;
        self.steps += 1;
        let next = (self.current + 1 + rng.below(self.versions.len() - 1)) % self.versions.len();
        let outcome = self.update(next, traced).map(|run| {
            if traced {
                self.traced.push(run);
            } else {
                self.runs.push(run);
            }
        });
        tally.record(outcome);
    }

    #[cfg(test)]
    pub fn first_cycle(&self) -> &[UpdateRun] {
        &self.first_cycle
    }

    pub fn metrics(&self, trace_overhead: bool) -> Metrics {
        let mut m = Metrics::default();
        let ms = |runs: &[UpdateRun], f: fn(&UpdateRun) -> u64| -> Vec<f64> {
            runs.iter().map(|r| f(r) as f64 / 1e6).collect()
        };
        let total = ms(&self.runs, |r| r.total_ns);
        m.e2e(
            "update_ms.p90",
            quantile(&total, TAIL_Q),
            "ms",
            self.runs.len(),
        );
        m.e2e(
            "update_ms.p99",
            quantile(&total, 0.99),
            "ms",
            self.runs.len(),
        );

        let traced = &self.traced;
        m.layer(
            "reload.reload_file_us",
            median(&ms(traced, |r| r.reload_ns)) * 1e3,
            "us",
            traced.len(),
        );
        m.layer(
            "reload.replay_us",
            median(&ms(traced, |r| r.replay_ns)) * 1e3,
            "us",
            traced.len(),
        );
        // Counts are means over the first cycle, which every run makes in
        // the same order whatever the seed, so they repeat exactly.
        let cycle = &self.first_cycle;
        let per_update: [Field<UpdateRun>; 5] = [
            ("reload.invalidations", |r| r.invalidations),
            ("reload.dependent_invalidations", |r| {
                r.dependent_invalidations
            }),
            ("reload.rechecks", |r| r.rechecks),
            ("reload.deopts", |r| r.deopts),
            ("alloc.per_update", |r| r.allocs),
        ];
        for (name, f) in per_update {
            let sum: u64 = cycle.iter().map(f).sum();
            m.layer(name, sum as f64 / cycle.len() as f64, "count", cycle.len());
        }
        if trace_overhead {
            let ratio = median(&ms(traced, |r| r.total_ns)) / median(&total);
            m.layer("trace.overhead", ratio, "ratio", traced.len());
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_apps::talks_history::run_update_experiment;

    #[test]
    fn first_cycle_matches_table_2() {
        let rows = run_update_experiment();
        let table2: Vec<usize> = rows[1..].iter().map(|r| r.checked).collect();
        assert_eq!(table2, FIRST_CYCLE_RECHECKS[..6]);
    }
}
