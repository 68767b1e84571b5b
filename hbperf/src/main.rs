//! hbperf: Hummingbird's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path hbperf/Cargo.toml -- \
//!     --workload <serve|boot|edit> --seed <n> --seconds <n> --trace <0|1>
//! cargo test --release --manifest-path hbperf/Cargo.toml
//! ```
//!
//! One client thread drives three kinds of operation closed-loop: steady
//! request scripts (`serve`), fresh six-app tenant boots (`boot`) and live
//! edits of Talks (`edit`). A workload is a mix of all three in which its
//! own kind gets most of the busy time, so every run reports every metric;
//! `BENCHMARK.json` runs `serve` and `boot`. `--own-share 1` runs a kind
//! alone after the first steps, to compare its figures with the mix. With
//! `--trace 0` it prints the end-to-end metrics; `--trace 1` runs the same
//! mix with layer timers and allocation counting on and prints the
//! per-layer metrics. The last line of standard output is the result:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.

mod alloc;
mod apps;
mod boot;
mod edit;
mod probes;
mod report;
mod serve;
mod stats;

use report::{json_number, json_string, Metric, Metrics};
use stats::{quantile, Rng, Tally, TIMING_Q};
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Version of the output's shape.
const SCHEMA_VERSION: u32 = 1;
/// Set-ups per run; `setup_s` is their `TIMING_Q` quantile, like the
/// operations' timings. The first is the one the run measures against; the
/// others are spread evenly over the run and dropped, so the figure does not
/// hang on the host's state in one second. On a 2-core shared host set-up
/// times were bimodal (about 0.11 s or 0.17 s, in spells lasting from
/// seconds to minutes): their median moved up to 60% from run to run, in
/// sets where the operations' p10 timings moved at most 25%.
const SETUP_REPS: usize = 21;
/// Share of `--seconds` the workload's own kind of operation gets, unless
/// `--own-share` says otherwise; the other two kinds split the rest. Every
/// workload reports every metric, so no kind runs alone, and a fifth of the
/// run each still gives the other kinds samples for their p90/p99. The mix
/// does move absolute times against a kind run alone (measured with
/// `--own-share 1`; the workloads' `why` in `BENCHMARK.json` has figures).
const OWN_SHARE: f64 = 0.6;
/// Steps each kind makes first, round robin, however short the run: each
/// kind then has untraced and traced samples, and `peak_rss_mb`, read
/// after them, covers the same work whatever the host's speed.
const FIRST_STEPS: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Workload {
    Serve,
    Boot,
    Edit,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Serve, Workload::Boot, Workload::Edit];

    fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Boot => "boot",
            Workload::Edit => "edit",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    own_share: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10;
    let mut trace = false;
    let mut own_share = OWN_SHARE;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--own-share" => {
                own_share = value.parse().map_err(|_| bad())?;
                if !(own_share > 0.0 && own_share <= 1.0) {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        own_share,
    })
}

/// Everything a run measures against, built before the clock starts.
struct Setup {
    serve: serve::Serve,
    boot: boot::Boot,
    edit: edit::Edit,
}

fn setup(specs: &[hb_apps::AppSpec]) -> Result<Setup, String> {
    let talks = specs
        .iter()
        .find(|s| s.name == "Talks")
        .ok_or("no Talks app")?;
    Ok(Setup {
        serve: serve::Serve::setup(specs)?,
        boot: boot::Boot::setup(specs)?,
        edit: edit::Edit::setup(talks)?,
    })
}

/// Peak resident set size of this process so far, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn run(args: &Args) -> Result<(Vec<Metric>, Tally, usize), String> {
    let cores = hb_bench::host_cores_banner(
        "one client thread; timings are of this shared host, not of a dedicated one.",
    );
    let specs = hb_apps::all_apps();
    let t = Instant::now();
    let Setup {
        mut serve,
        mut boot,
        mut edit,
    } = setup(&specs)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let mut metrics = Metrics::default();
    if args.trace {
        metrics.extend(probes::run(&specs, cores)?);
    }
    // Each kind of operation gets its share of the run's busy time, and
    // the kinds interleave step by step, so a slow spell on the host lands
    // on every metric a little rather than on one kind's whole block.
    let shares = Workload::ALL.map(|w| {
        if w == args.workload {
            args.own_share
        } else {
            (1.0 - args.own_share) / 2.0
        }
    });
    let mut root = Rng::new(args.seed);
    let mut rngs = Workload::ALL.map(|_| Rng::new(root.next_u64()));
    let mut spent = [0.0f64; 3];
    let mut steps = [0usize; 3];
    let mut tally = Tally::default();
    // Each `eval` keeps its source text in the interpreter's source map, so
    // the high-water mark grows with the ops a run fits in; it is read at a
    // fixed point instead, after the first steps.
    let mut rss_mb = None;
    let start = Instant::now();
    let run_for = Duration::from_secs(args.seconds);
    while start.elapsed() < run_for || rss_mb.is_none() {
        let elapsed = start.elapsed().as_secs_f64();
        let first = steps.iter().any(|&n| n < FIRST_STEPS);
        if !first && rss_mb.is_none() {
            rss_mb = Some(peak_rss_mb()?);
        }
        // Set-ups wait until after the first steps, whose peak they would raise.
        if !first
            && setup_s.len() < SETUP_REPS
            && elapsed >= args.seconds as f64 * setup_s.len() as f64 / SETUP_REPS as f64
        {
            let t = Instant::now();
            let again = setup(&specs)?;
            setup_s.push(t.elapsed().as_secs_f64());
            drop(again);
            continue;
        }
        let k = if first {
            (0..3).min_by_key(|&i| steps[i]).expect("three kinds")
        } else {
            (0..3)
                .max_by(|&a, &b| {
                    let owed = |i: usize| shares[i] * elapsed - spent[i];
                    owed(a).total_cmp(&owed(b))
                })
                .expect("three kinds")
        };
        let t = Instant::now();
        let rng = &mut rngs[k];
        match Workload::ALL[k] {
            Workload::Serve => serve.round(&specs, args.trace, rng, &mut tally),
            Workload::Boot => boot.step(&specs, args.trace, rng, &mut tally),
            Workload::Edit => edit.step(args.trace, rng, &mut tally),
        }
        spent[k] += t.elapsed().as_secs_f64();
        steps[k] += 1;
    }
    serve.audit(&specs, &mut tally);
    boot.audit(&mut tally);

    let own = |w: Workload| args.trace && args.workload == w;
    metrics.extend(serve.metrics(own(Workload::Serve)));
    metrics.extend(boot.metrics(own(Workload::Boot)));
    metrics.extend(edit.metrics(own(Workload::Edit)));
    metrics.e2e("setup_s", quantile(&setup_s, TIMING_Q), "s", setup_s.len());
    metrics.e2e(
        "success_rate",
        1.0 - tally.failed as f64 / tally.attempted as f64,
        "ratio",
        tally.attempted as usize,
    );
    let rss_mb = rss_mb.ok_or("peak RSS was never read")?;
    metrics.e2e("peak_rss_mb", rss_mb, "MB", 1);
    let out = if args.trace {
        metrics.layer
    } else {
        metrics.e2e
    };
    if let Some(m) = out.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is {}", m.name, m.value));
    }
    Ok((out, tally, cores))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hbperf: {e}");
            eprintln!(
                "usage: hbperf --workload <serve|boot|edit> --seed <n> --seconds <n> --trace <0|1> [--own-share <0..1>]"
            );
            return ExitCode::from(2);
        }
    };
    let (metrics, tally, cores) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hbperf: {e}");
            return ExitCode::FAILURE;
        }
    };
    for why in &tally.reasons {
        eprintln!("hbperf: failed op: {why}");
    }
    let samples: Vec<String> = metrics
        .iter()
        .map(|m| format!("{}:{}", json_string(&m.name), m.samples))
        .collect();
    let serve_tiers = serve::TIERS.map(|t| json_string(apps::tier_name(t)));
    println!(
        "{{\"schema_version\":{SCHEMA_VERSION},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"tiers\":{{\"serve\":[{}],\"boot\":[{}],\"edit\":[{}]}},\
         \"host_cores\":{cores},\"samples\":{{{}}}}}",
        json_string(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        serve_tiers.join(","),
        json_string(apps::tier_name(boot::TIER)),
        json_string(apps::tier_name(edit::TIER)),
        samples.join(",")
    );
    for m in &metrics {
        println!(
            "{:<40} {:>16.4} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(",")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every traced count of one fresh set-up: the first traced script of
    /// each app, mode and tier, then the first edit cycle.
    fn traced_counts() -> (Vec<serve::ScriptCounts>, Vec<[u64; 5]>) {
        let specs = hb_apps::all_apps();
        let mut scripts = Vec::new();
        for spec in &specs {
            for tier in serve::TIERS {
                for mode in [hummingbird::Mode::Original, hummingbird::Mode::Full] {
                    let mut inst = serve::Instance::boot(spec, mode, tier).unwrap();
                    scripts.extend(inst.run(spec, true).unwrap().2);
                }
            }
        }
        let mut edit = edit::Edit::setup(&hb_apps::talks()).unwrap();
        let mut tally = Tally::default();
        edit.step(true, &mut Rng::new(0), &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.reasons);
        (
            scripts,
            edit.first_cycle().iter().map(edit::counts).collect(),
        )
    }

    #[test]
    fn traced_engine_counts_repeat_across_runs() {
        let engine = |(scripts, updates): (Vec<serve::ScriptCounts>, Vec<[u64; 5]>)| {
            let scripts: Vec<[u64; 4]> = scripts
                .iter()
                .map(|c| [c.intercepted, c.cache_hits, c.checks, c.dyn_arg_checks])
                .collect();
            let updates: Vec<[u64; 4]> = updates.iter().map(|u| [u[0], u[1], u[2], u[3]]).collect();
            (scripts, updates)
        };
        assert_eq!(engine(traced_counts()), engine(traced_counts()));
    }

    /// Fails while the Rails apps' allocation counts depend on hash seeds
    /// (see `serve::tests::reseeded_scripts_allocate_the_same`).
    #[test]
    fn traced_allocation_counts_repeat_across_runs() {
        let allocs = |(scripts, updates): (Vec<serve::ScriptCounts>, Vec<[u64; 5]>)| {
            let scripts: Vec<u64> = scripts.iter().map(|c| c.allocs).collect();
            let updates: Vec<u64> = updates.iter().map(|u| u[4]).collect();
            (scripts, updates)
        };
        let first = allocs(traced_counts());
        assert!(first.0.iter().all(|&n| n > 0));
        assert_eq!(first, allocs(traced_counts()));
    }
}
