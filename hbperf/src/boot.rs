//! `boot`: fresh six-app tenant boots, cold (no shared tier) and warm
//! (shared tier rebuilt from an HBSNAP02 snapshot decoded at each boot),
//! alternating — first-request latency and warm boot.

use crate::apps::{self, elapsed_ns, BootParts};
use crate::report::{Field, Metrics};
use crate::stats::{median, quantile, Rng, Tally, TAIL_Q};
use hb_apps::AppSpec;
use hummingbird::{CacheSnapshot, ExecTier, Hummingbird, Mode, SharedCache};
use std::sync::Arc;
use std::time::Instant;

/// Boots pin the bytecode tier: it compiles and patches on top of
/// everything the tree-walker does at boot.
pub const TIER: ExecTier = ExecTier::Bytecode;
/// Methods the six first request scripts check on a cold tenant, and
/// adopt from the snapshot on a warm one.
pub const FIRST_REQUEST_CHECKS: u64 = 70;
/// Largest share of a traced boot its named parts may leave unaccounted,
/// in the median traced boot (a single boot can lose a few ms to the host
/// descheduling it between two parts).
const MAX_UNATTRIBUTED: f64 = 0.05;

/// What one tenant boot did.
#[derive(Clone, Copy, Default, Debug)]
pub struct BootRun {
    pub total_ns: u64,
    pub first_request_ns: u64,
    pub checks: u64,
    pub check_ns: u64,
    pub shared_hits: u64,
    pub adopt_ns: u64,
    /// Traced boots only: layer times.
    pub parts: BootParts,
    pub decode_ns: u64,
    pub load_ns: u64,
}

impl BootRun {
    /// The share of the boot that no named part accounts for.
    pub fn unattributed(&self) -> f64 {
        let p = &self.parts;
        let named = p.builder
            + p.rails
            + p.load
            + p.seed
            + self.decode_ns
            + self.load_ns
            + self.first_request_ns;
        1.0 - named as f64 / self.total_ns as f64
    }
}

/// Boots one tenant: every app in `order` built (against a tier rebuilt
/// from `snapshot` when warm), then each app's first request script.
pub fn tenant_boot(
    specs: &[AppSpec],
    order: &[usize],
    snapshot: Option<&[u8]>,
    traced: bool,
) -> Result<BootRun, String> {
    let mut run = BootRun::default();
    let t0 = Instant::now();
    let shared = match snapshot {
        Some(bytes) => {
            let t = Instant::now();
            let snap = CacheSnapshot::from_bytes(bytes).map_err(|e| format!("decode: {e}"))?;
            run.decode_ns = elapsed_ns(t);
            let t = Instant::now();
            let shared = Arc::new(SharedCache::new());
            shared
                .load_snapshot(&snap)
                .map_err(|e| format!("load_snapshot: {e}"))?;
            run.load_ns = elapsed_ns(t);
            Some(shared)
        }
        None => None,
    };
    let mut tenant: Vec<(usize, Hummingbird)> = Vec::with_capacity(order.len());
    for &i in order {
        let b = apps::builder(Mode::Full, TIER, shared.clone());
        let hb = if traced {
            apps::boot_traced(&specs[i], b, &mut run.parts)?
        } else {
            apps::boot(&specs[i], b)?
        };
        tenant.push((i, hb));
    }
    for (i, hb) in &mut tenant {
        let spec = &specs[*i];
        let script = apps::script(spec);
        let t = Instant::now();
        apps::guarded(|| {
            hb.eval(&script)
                .map(drop)
                .map_err(|e| format!("{}: first request raised: {e}", spec.name))
        })?;
        run.first_request_ns += elapsed_ns(t);
    }
    run.total_ns = elapsed_ns(t0);
    let mut diagnostics = 0;
    for (_, hb) in &tenant {
        let s = hb.stats();
        run.checks += s.checks_performed + s.checks_failed;
        run.check_ns += s.check_ns;
        run.shared_hits += s.shared_hits;
        run.adopt_ns += s.shared_adopt_ns;
        diagnostics += hb.diagnostics().len();
    }
    let warm = snapshot.is_some();
    let (want_checks, want_hits) = if warm {
        (0, FIRST_REQUEST_CHECKS)
    } else {
        (FIRST_REQUEST_CHECKS, 0)
    };
    if diagnostics != 0 || run.checks != want_checks || run.shared_hits != want_hits {
        return Err(format!(
            "{} boot: {} checks, {} shared hits, {diagnostics} diagnostics \
             (want {want_checks} checks, {want_hits} shared hits, 0 diagnostics)",
            if warm { "warm" } else { "cold" },
            run.checks,
            run.shared_hits
        ));
    }
    Ok(run)
}

pub struct Boot {
    /// The encoded snapshot warm boots decode.
    pub snapshot: Vec<u8>,
    boots: usize,
    /// Untraced and traced runs, by kind: `[cold, warm]`.
    runs: [Vec<BootRun>; 2],
    traced: [Vec<BootRun>; 2],
}

impl Boot {
    /// Boots one cold tenant against a fresh shared tier and encodes the
    /// tier it leaves — the snapshot a deploy writes after a canary boot.
    pub fn setup(specs: &[AppSpec]) -> Result<Boot, String> {
        let shared = Arc::new(SharedCache::new());
        for spec in specs {
            let mut hb = apps::boot(spec, apps::builder(Mode::Full, TIER, Some(shared.clone())))?;
            hb.eval(&apps::script(spec))
                .map_err(|e| format!("{}: first request raised: {e}", spec.name))?;
        }
        Ok(Boot {
            snapshot: shared.snapshot().to_bytes(),
            boots: 0,
            runs: Default::default(),
            traced: Default::default(),
        })
    }

    /// One tenant boot with its apps in a seeded order, cold and warm by
    /// turns. With `trace`, every other cold/warm pair is traced.
    pub fn step(&mut self, specs: &[AppSpec], trace: bool, rng: &mut Rng, tally: &mut Tally) {
        let kind = self.boots % 2;
        let traced = trace && (self.boots / 2) % 2 == 1;
        self.boots += 1;
        let mut order: Vec<usize> = (0..specs.len()).collect();
        rng.shuffle(&mut order);
        let snapshot = (kind == 1).then_some(self.snapshot.as_slice());
        let outcome = tenant_boot(specs, &order, snapshot, traced).map(|run| {
            if traced {
                self.traced[kind].push(run);
            } else {
                self.runs[kind].push(run);
            }
        });
        tally.record(outcome);
    }

    /// The unattributed share of every traced boot, cold and warm.
    fn unattributed(&self) -> Vec<f64> {
        self.traced
            .iter()
            .flatten()
            .map(BootRun::unattributed)
            .collect()
    }

    /// Checks that the named parts of a traced boot account for its time.
    pub fn audit(&self, tally: &mut Tally) {
        let traced = self.unattributed();
        if traced.is_empty() {
            return;
        }
        let share = median(&traced);
        tally.record(if share <= MAX_UNATTRIBUTED {
            Ok(())
        } else {
            Err(format!(
                "traced boots: parts leave {:.1}% of the median boot unattributed",
                share * 100.0
            ))
        });
    }

    pub fn metrics(&self, trace_overhead: bool) -> Metrics {
        let mut m = Metrics::default();
        let ms = |runs: &[BootRun], f: fn(&BootRun) -> u64| -> Vec<f64> {
            runs.iter().map(|r| f(r) as f64 / 1e6).collect()
        };
        for (kind, name) in [(0, "cold"), (1, "warm")] {
            let runs = &self.runs[kind];
            m.e2e(
                format!("{name}_boot_ms.p90"),
                quantile(&ms(runs, |r| r.total_ns), TAIL_Q),
                "ms",
                runs.len(),
            );
            m.e2e(
                format!("{name}_first_request_ms.p90"),
                quantile(&ms(runs, |r| r.first_request_ns), TAIL_Q),
                "ms",
                runs.len(),
            );
        }

        let us = |runs: &[BootRun], f: fn(&BootRun) -> u64| median(&ms(runs, f)) * 1e3;
        let [cold, warm] = &self.traced;
        let parts: [Field<BootRun>; 5] = [
            ("boot.builder_us", |r| r.parts.builder),
            ("boot.rails_us", |r| r.parts.rails),
            ("boot.load_us", |r| r.parts.load),
            ("boot.seed_us", |r| r.parts.seed),
            ("boot.first_request_us", |r| r.first_request_ns),
        ];
        for (name, f) in parts {
            m.layer(name, us(cold, f), "us", cold.len());
        }
        let unattributed = self.unattributed();
        m.layer(
            "boot.unattributed_share",
            median(&unattributed),
            "ratio",
            unattributed.len(),
        );
        // Cold boots derive every first-request method; the count is fixed
        // by the oracle, so per-check cost is the layer's own number.
        let check_ns: Vec<f64> = cold
            .iter()
            .map(|r| r.check_ns as f64 / r.checks as f64)
            .collect();
        m.layer("check.ns_per_check", median(&check_ns), "ns", cold.len());

        m.layer("snapshot.bytes", self.snapshot.len() as f64, "bytes", 1);
        m.layer(
            "snapshot.decode_us",
            us(warm, |r| r.decode_ns),
            "us",
            warm.len(),
        );
        m.layer(
            "snapshot.load_us",
            us(warm, |r| r.load_ns),
            "us",
            warm.len(),
        );
        let adopt: Vec<f64> = warm
            .iter()
            .map(|r| r.adopt_ns as f64 / r.shared_hits as f64)
            .collect();
        m.layer("shared.adopt_ns_per_hit", median(&adopt), "ns", warm.len());
        let (hits, checks) = warm
            .iter()
            .fold((0, 0), |(h, c), r| (h + r.shared_hits, c + r.checks));
        m.layer(
            "shared.hit_rate",
            hits as f64 / (hits + checks) as f64,
            "ratio",
            warm.len(),
        );
        if trace_overhead {
            let total = |runs: &[BootRun]| median(&ms(runs, |r| r.total_ns));
            let ratio = (total(cold) + total(warm)) / (total(&self.runs[0]) + total(&self.runs[1]));
            m.layer("trace.overhead", ratio, "ratio", cold.len() + warm.len());
        }
        m
    }
}
