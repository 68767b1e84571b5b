//! Multi-tenant scaling probe: T tenant threads × the six subject apps
//! against one process-wide shared derivation tier.
//!
//! Each tenant is an independent interpreter stack (six `Hummingbird`
//! instances, one per app) on its own OS thread; all tenants share one
//! `SharedCache`. The probe records, per fleet size T:
//!
//! * wall time for the whole fleet and per-tenant build/serve splits,
//! * fleet throughput (tenant-boots per second) and its speedup over the
//!   T=1 baseline,
//! * the warm-hit rate for tenants 2..N — the fraction of their
//!   first-call checks answered by adopting another tenant's derivation
//!   instead of running `check_sig`.
//!
//! Prints JSON (BENCH_multitenant.json is this output committed).
//! `--smoke` runs a reduced fleet as a CI regression gate: it asserts
//! that later tenants warm-start from the shared tier.
//!
//! # Snapshot modes (cross-process warm boot)
//!
//! * `--snapshot-smoke` — CI gate: boot one cold tenant, serialize the
//!   shared tier ([`hummingbird::CacheSnapshot`]), then spawn a **fresh
//!   process** (this same binary with `--snapshot-load`) that rebuilds
//!   the tier from the file and boots the six apps. The child asserts
//!   ≥90% of its first calls resolve by adoption — no `check_sig` — and
//!   the parent propagates its exit status.
//! * `--snapshot-bench` — same shape, best-of-R, printing the cold-vs-
//!   warm-boot comparison recorded in `BENCH_snapshot.json`.
//! * `--snapshot-load <path>` — internal child mode.
//!
//! # Fleet modes (daemon-served warm boot, `hb-fleetd`)
//!
//! * `--fleet-smoke` — CI gate: start an in-process `hb-fleetd` server,
//!   warm it from one cold fleet-attached tenant (six apps publish every
//!   derivation over the socket), then spawn a **fresh process** (this
//!   binary with `--fleet-boot`) that boots over the UDS and asserts
//!   100% first-call adoption with zero `check_sig`. A second fetch
//!   asserts the steady-state delta transfers zero entries, and a
//!   one-method redefinition asserts the delta transfers only the
//!   affected derivations.
//! * `--fleet-bench` — same shape plus the cold vs file-snapshot vs
//!   daemon-fetch vs delta-fetch comparison recorded in
//!   `BENCH_fleet.json`.
//! * `--fleet-boot <socket>` — internal child mode.

use hb_apps::{all_apps, fleet_snapshot, run_tenant, run_tenant_fleet, run_workload, TenantRun};
use hb_fleetd::{DaemonConfig, FleetDaemon, FleetServer};
use hummingbird::{
    validate_json, CacheSnapshot, FleetClient, FleetWatermark, Hummingbird, MethodKey, Mode,
    ObsLevel, SharedCache,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

struct FleetResult {
    tenants: usize,
    wall_ns: u64,
    runs: Vec<TenantRun>,
}

impl FleetResult {
    /// Tenant-boots (build + first-request storm + workload) per second of
    /// wall time. On a many-core host this scales with parallelism; it is
    /// reported for context.
    fn boot_throughput(&self) -> f64 {
        self.tenants as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// First-call check throughput: first calls resolved per second of
    /// check-path time (derivation or adoption), summed over the fleet.
    /// This is the quantity the shared tier targets — the per-tenant
    /// check storm is the only work that does *not* replicate with
    /// tenant count — and it is parallelism-independent, so the probe
    /// measures amortisation, not core count.
    fn first_call_throughput(&self) -> f64 {
        let calls: u64 = self.runs.iter().map(|r| r.first_calls()).sum();
        let ns: u64 = self.runs.iter().map(|r| r.first_call_ns()).sum();
        if ns == 0 {
            return 0.0;
        }
        calls as f64 / (ns as f64 / 1e9)
    }

    /// Mean warm-hit rate over tenants 2..N (1.0 = every first call
    /// adopted a shared derivation; undefined for T=1 fleets).
    fn warm_hit_rate(&self) -> Option<f64> {
        let later: Vec<&TenantRun> = self.runs.iter().filter(|r| r.tenant > 0).collect();
        if later.is_empty() {
            return None;
        }
        Some(later.iter().map(|r| r.warm_hit_rate()).sum::<f64>() / later.len() as f64)
    }
}

/// Runs a fleet of `t` tenants against one fresh shared tier. Tenant 0
/// starts first; later tenants boot staggered (a rolling deploy), which is
/// both the realistic arrival pattern and what lets a 1-CPU host still
/// demonstrate amortisation rather than timeslice thrash.
fn run_fleet(t: usize, iters: usize, stagger_ms: u64) -> FleetResult {
    let shared = Arc::new(SharedCache::new());
    let start = Instant::now();
    let handles: Vec<_> = (0..t)
        .map(|i| {
            let shared = shared.clone();
            std::thread::spawn(move || {
                if i > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(stagger_ms * i as u64));
                }
                run_tenant(i, &shared, iters)
            })
        })
        .collect();
    let mut runs: Vec<TenantRun> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let wall_ns = start.elapsed().as_nanos() as u64;
    runs.sort_by_key(|r| r.tenant);
    FleetResult {
        tenants: t,
        wall_ns,
        runs,
    }
}

fn json_runs(runs: &[TenantRun]) -> String {
    let items: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"tenant\": {}, \"build_ms\": {:.1}, \"serve_ms\": {:.1}, \
                 \"checks_performed\": {}, \"shared_hits\": {}, \"cache_hits\": {}, \
                 \"check_ms\": {:.2}, \"adopt_ms\": {:.2}, \"warm_hit_rate\": {:.4}, \
                 \"sched_tasks_enqueued\": {}, \"sched_tasks_completed\": {}, \
                 \"sched_tasks_stale\": {}, \"deferred_admissions\": {}, \
                 \"bytecode_compiled\": {}, \"fast_entries_patched\": {}, \
                 \"deopts\": {}}}",
                r.tenant,
                r.build_ns as f64 / 1e6,
                r.serve_ns as f64 / 1e6,
                r.checks_performed,
                r.shared_hits,
                r.cache_hits,
                r.check_ns as f64 / 1e6,
                r.shared_adopt_ns as f64 / 1e6,
                r.warm_hit_rate(),
                r.sched_tasks_enqueued,
                r.sched_tasks_completed,
                r.sched_tasks_stale,
                r.deferred_admissions,
                r.bytecode_compiled,
                r.fast_entries_patched,
                r.deopts,
            )
        })
        .collect();
    format!("[{}]", items.join(", "))
}

fn tenant_json(label: &str, r: &TenantRun, snapshot_bytes: Option<usize>) -> String {
    let extra = snapshot_bytes
        .map(|b| format!(", \"snapshot_bytes\": {b}"))
        .unwrap_or_default();
    format!(
        "{{\"label\": \"{label}\", \"build_ms\": {:.1}, \"serve_ms\": {:.1}, \
         \"first_calls\": {}, \"checks_performed\": {}, \"shared_hits\": {}, \
         \"check_ms\": {:.2}, \"adopt_ms\": {:.2}, \
         \"first_call_throughput_per_sec\": {:.0}, \"warm_hit_rate\": {:.4}{extra}}}",
        r.build_ns as f64 / 1e6,
        r.serve_ns as f64 / 1e6,
        r.first_calls(),
        r.checks_performed,
        r.shared_hits,
        r.check_ns as f64 / 1e6,
        r.shared_adopt_ns as f64 / 1e6,
        if r.first_call_ns() == 0 {
            0.0
        } else {
            r.first_calls() as f64 / (r.first_call_ns() as f64 / 1e9)
        },
        r.warm_hit_rate(),
    )
}

/// Child mode: rebuild the shared tier from a snapshot file in THIS fresh
/// process (fresh interner, fresh source maps — nothing shared with the
/// writer but the bytes) and boot the six apps against it.
fn snapshot_load_main(path: &str) -> ! {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let snap = CacheSnapshot::from_bytes(&bytes).unwrap_or_else(|e| panic!("parse {path}: {e}"));
    let shared = Arc::new(SharedCache::new());
    let loaded = shared.load_snapshot(&snap).expect("snapshot must load");
    let run = run_tenant(0, &shared, 1);
    println!(
        "{{\"schema_version\": 1, \"loaded_derivations\": {loaded}, \"boot\": {}}}",
        tenant_json("boot-from-snapshot", &run, Some(bytes.len()))
    );
    let rate = run.warm_hit_rate();
    assert!(
        rate >= 0.9,
        "boot-from-snapshot must resolve >= 90% of first calls by adoption \
         (got {rate:.3}: {} adopted, {} re-derived)",
        run.shared_hits,
        run.checks_performed
    );
    std::process::exit(0);
}

/// Writes the snapshot of one cold boot and re-runs this binary in a
/// fresh process against it. Returns the child's parsed stdout.
fn spawn_warm_boot(snapshot: &CacheSnapshot) -> String {
    let path = std::env::temp_dir().join(format!("hb_snapshot_{}.bin", std::process::id()));
    std::fs::write(&path, snapshot.to_bytes()).expect("write snapshot");
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .arg("--snapshot-load")
        .arg(&path)
        .output()
        .expect("spawn warm-boot child");
    let _ = std::fs::remove_file(&path);
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        eprintln!("snapshot warm-boot child failed ({})", out.status);
        std::process::exit(1);
    }
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

fn snapshot_main(bench: bool) -> ! {
    let host_cores = host_cores_banner();
    // Warm-up (discarded): fault in the binary and app sources.
    let _ = fleet_snapshot(1);
    let reps = if bench { 3 } else { 1 };
    let (snapshot, cold) = (0..reps)
        .map(|_| fleet_snapshot(1))
        .max_by(|a, b| {
            let thr = |r: &TenantRun| {
                if r.first_call_ns() == 0 {
                    0.0
                } else {
                    r.first_calls() as f64 / r.first_call_ns() as f64
                }
            };
            thr(&a.1).total_cmp(&thr(&b.1))
        })
        .unwrap();
    let child_json = spawn_warm_boot(&snapshot);
    println!(
        "{{\"mode\": \"{}\", \"schema_version\": 1, \"host_cores\": {host_cores}, \"entries\": {}, \
         \"snapshot_bytes\": {}, \"cold_boot\": {}, \"warm_boot\": {child_json}}}",
        if bench {
            "snapshot-bench"
        } else {
            "snapshot-smoke"
        },
        snapshot.entry_count(),
        snapshot.to_bytes().len(),
        tenant_json("cold-boot", &cold, None),
    );
    eprintln!("snapshot warm boot OK: fresh process adopted >= 90% of first calls from disk");
    std::process::exit(0);
}

/// This probe's clause for the shared [`hb_bench::host_cores_banner`].
const SMALL_HOST_CAVEAT: &str = "Fleet/scaling columns on this host \
     measure shared-tier amortisation under timeslicing, not parallel speedup; \
     compare throughput ratios, not wall times.";

fn host_cores_banner() -> usize {
    hb_bench::host_cores_banner(SMALL_HOST_CAVEAT)
}

/// Minimal Prometheus text-format parser for the smoke gate: every
/// non-comment line must be `series value` with a numeric value.
/// Returns the parsed series (bucket lines keyed with their label part).
fn parse_prometheus(text: &str) -> std::collections::HashMap<String, f64> {
    let mut series = std::collections::HashMap::new();
    for line in text.lines() {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("unparseable metrics line: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric value in metrics line: {line:?}"));
        series.insert(name.to_string(), value);
    }
    series
}

/// Observability mode (`--metrics` / `--metrics-smoke`): boot the six
/// apps with full tracing on, serve one workload iteration each, and
/// report the check-duration and first-request latency distributions
/// from both export surfaces (JSON and Prometheus). Smoke mode gates CI:
/// both exports must parse, the required series must be present and
/// non-zero for every app, the chrome://tracing export must round-trip as
/// valid JSON, and after a second (warm-up) workload iteration a third
/// must resolve no dispatch afresh (`hb_engine_dispatch_resolutions`
/// stays put: the steady state answers every intercepted call from the
/// dispatch memo; Rolify's first iteration ends by typing a generated
/// method, which clears the memo once).
fn metrics_main(smoke: bool) -> ! {
    let host_cores = host_cores_banner();
    let mut apps_json = Vec::new();
    for spec in all_apps() {
        let mut hb = hb_apps::build_app_with(
            &spec,
            Hummingbird::builder()
                .mode(Mode::Full)
                .observability(ObsLevel::Trace),
        );
        run_workload(&spec, &mut hb, 1);
        let obs = hb.engine.obs().expect("observability is on");
        let check = obs.check_duration.summary();
        let first = obs.first_request.summary();
        let trace = hb.trace_json();
        let trace_events = obs.ring_snapshot().len();
        if smoke {
            let json = hb.metrics();
            validate_json(&json).unwrap_or_else(|e| panic!("{}: bad metrics JSON: {e}", spec.name));
            for series in ["hb_check_duration_ns", "hb_first_request_ns"] {
                assert!(
                    json.contains(&format!("\"{series}\"")),
                    "{}: metrics JSON must carry {series}",
                    spec.name
                );
            }
            let prom = parse_prometheus(&hb.metrics_prometheus());
            for series in [
                "hb_checks_observed_total",
                "hb_check_duration_ns_count",
                "hb_first_request_ns_count",
                "hb_engine_checks_performed",
            ] {
                let v = prom
                    .get(series)
                    .unwrap_or_else(|| panic!("{}: missing series {series}", spec.name));
                assert!(*v > 0.0, "{}: series {series} must be non-zero", spec.name);
            }
            validate_json(&trace).unwrap_or_else(|e| panic!("{}: bad trace JSON: {e}", spec.name));
            assert!(
                trace.contains("traceEvents") && trace_events > 0,
                "{}: trace export must carry the recorded events",
                spec.name
            );
        }
        apps_json.push(format!(
            "{{\"app\": \"{}\", \"checks_observed\": {}, \
             \"check_duration_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}, \
             \"first_request_ns\": {{\"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}}}, \
             \"trace_events\": {trace_events}}}",
            spec.name,
            obs.checks_observed.get(),
            check.count,
            check.p50,
            check.p99,
            check.max,
            first.count,
            first.p50,
            first.p99,
            first.max,
        ));
        if smoke {
            let resolutions = |hb: &Hummingbird| {
                parse_prometheus(&hb.metrics_prometheus())["hb_engine_dispatch_resolutions"]
            };
            run_workload(&spec, &mut hb, 1);
            let before = resolutions(&hb);
            run_workload(&spec, &mut hb, 1);
            assert_eq!(
                resolutions(&hb),
                before,
                "{}: a third workload iteration must not resolve any dispatch afresh",
                spec.name
            );
        }
    }
    println!(
        "{{\"mode\": \"{}\", \"schema_version\": 1, \"host_cores\": {host_cores}, \
         \"apps\": [{}]}}",
        if smoke { "metrics-smoke" } else { "metrics" },
        apps_json.join(", "),
    );
    if smoke {
        eprintln!(
            "metrics smoke OK: six apps exported parseable Prometheus text, \
             non-zero check-duration and first-request histograms, valid trace JSON, \
             and no dispatch resolutions on a third iteration"
        );
    }
    std::process::exit(0);
}

/// The two-method fixture for the redefinition-delta assertion: after
/// `Pair#right` is redefined, only *its* derivation may travel on the
/// next delta fetch — `Pair#left` stays put.
const PAIR_RB: &str = r#"
class Pair
  type :left, "() -> Fixnum", { "check" => true }
  def left
    1
  end
  type :right, "() -> Fixnum", { "check" => true }
  def right
    2
  end
end
"#;

const PAIR_REDEF_RB: &str = r#"
class Pair
  def right
    3
  end
end
"#;

/// Child mode: attach to a live fleet daemon from THIS fresh process
/// (nothing shared with the parent but the socket) and boot the six
/// apps over it. The gate is strict: 100% adoption, zero `check_sig`.
fn fleet_boot_main(socket: &str) -> ! {
    let (run, report) = run_tenant_fleet(0, Path::new(socket), 1);
    let report = report.expect("fleet boot child must stay attached through sync");
    println!(
        "{{\"schema_version\": 1, \"boot\": {}, \"post_boot_sync\": {{\"published\": {}, \
         \"fetched_entries\": {}, \"delta\": {}}}}}",
        tenant_json("boot-from-daemon", &run, None),
        report.published,
        report.fetched_entries,
        report.delta,
    );
    assert_eq!(
        run.checks_performed, 0,
        "daemon warm boot must run zero check_sig ({} adopted)",
        run.shared_hits
    );
    assert_eq!(
        run.warm_hit_rate(),
        1.0,
        "daemon warm boot must adopt 100% of first calls"
    );
    std::process::exit(0);
}

/// Re-runs this binary as a fresh `--fleet-boot` process against a live
/// socket and returns its stdout JSON.
fn spawn_fleet_boot(socket: &Path) -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let out = std::process::Command::new(exe)
        .arg("--fleet-boot")
        .arg(socket)
        .output()
        .expect("spawn fleet-boot child");
    if !out.status.success() {
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        eprintln!("fleet warm-boot child failed ({})", out.status);
        std::process::exit(1);
    }
    String::from_utf8_lossy(&out.stdout).trim().to_string()
}

fn resp_keys(snapshot_bytes: &[u8]) -> Vec<MethodKey> {
    CacheSnapshot::from_bytes(snapshot_bytes)
        .expect("parse fetched snapshot")
        .entry_versions()
        .expect("entry versions")
        .into_iter()
        .map(|(key, _, _, _)| key)
        .collect()
}

/// After the six-app smoke: publish a two-method world, redefine one
/// method, and assert the next delta carries only the affected family.
/// Returns (delta_entries, delta_tombstones) for the JSON record.
fn redefinition_delta(socket: &Path, client: &mut FleetClient) -> (usize, usize) {
    let mut publisher = Hummingbird::builder().fleet_socket(socket).build();
    assert!(publisher.fleet_attached(), "{:?}", publisher.fleet_error());
    publisher.load_file("pair.rb", PAIR_RB).unwrap();
    publisher.eval("p = Pair.new\np.left\np.right").unwrap();
    let seeded = publisher.fleet_sync().expect("publish Pair world");
    assert!(
        seeded.published >= 2,
        "both Pair methods published: {seeded:?}"
    );

    let before = client.fetch_full().expect("pre-redefinition watermark");
    let watermark = FleetWatermark {
        seq: before.seq,
        epochs: before.epochs,
    };
    let tier_entries = resp_keys(&before.snapshot).len();

    // One method redefinition: `Pair#right` gets a new body.
    publisher.load_file("pair_v2.rb", PAIR_REDEF_RB).unwrap();
    publisher.eval("Pair.new.right").unwrap();
    publisher
        .fleet_sync()
        .expect("publish redefined derivation");

    let delta = client
        .fetch_delta(watermark)
        .expect("post-redefinition delta");
    assert!(delta.delta, "watermark honoured as a delta");
    let keys = resp_keys(&delta.snapshot);
    let right = MethodKey::instance("Pair", "right");
    let left = MethodKey::instance("Pair", "left");
    assert!(
        keys.contains(&right),
        "the redefined method's new derivation travels: {keys:?}"
    );
    assert!(
        !keys.contains(&left),
        "the untouched sibling does NOT travel: {keys:?}"
    );
    assert!(
        keys.len() < tier_entries,
        "delta ({} entries) transfers only the affected derivations, \
         not the {tier_entries}-entry tier",
        keys.len()
    );
    (keys.len(), delta.tombstones.len())
}

fn fleet_main(bench: bool) -> ! {
    let host_cores = host_cores_banner();
    let socket = std::env::temp_dir().join(format!("hb_fleet_{}.sock", std::process::id()));
    let (daemon, warning) = FleetDaemon::new(DaemonConfig::default());
    assert!(warning.is_none(), "{warning:?}");
    let server = FleetServer::bind(daemon.clone(), &socket).expect("bind fleet socket");

    // Warm-up (discarded): fault in the binary and app sources.
    let _ = fleet_snapshot(1);

    // One cold fleet-attached tenant warms the daemon: every derivation
    // its six apps produce is published over the socket.
    let t0 = Instant::now();
    let (cold, cold_report) = run_tenant_fleet(0, &socket, 1);
    let cold_wall_ns = t0.elapsed().as_nanos() as u64;
    let cold_report = cold_report.expect("cold tenant must stay attached");
    assert!(
        cold_report.published >= 1,
        "the cold tenant publishes its check storm: {cold_report:?}"
    );
    let entries = daemon.cache().len();
    assert!(entries >= 1);

    // A genuinely fresh process boots the six apps over the UDS.
    let child_json = spawn_fleet_boot(&socket);

    // Second fetch: the fleet is quiet, so the delta is empty.
    let mut client = FleetClient::connect(&socket).expect("connect probe client");
    let full = client.fetch_full().expect("full fetch");
    let full_bytes = full.snapshot.len();
    let t1 = Instant::now();
    let quiet = client
        .fetch_delta(FleetWatermark {
            seq: full.seq,
            epochs: full.epochs,
        })
        .expect("steady-state delta");
    let delta_fetch_ns = t1.elapsed().as_nanos() as u64;
    assert!(quiet.delta, "current watermark honoured as a delta");
    let quiet_entries = resp_keys(&quiet.snapshot).len();
    assert_eq!(
        quiet_entries, 0,
        "steady-state delta transfers zero entries"
    );

    // Redefine one method; only the affected derivations travel.
    let (redef_entries, redef_tombstones) = redefinition_delta(&socket, &mut client);

    // Bench mode adds the file-snapshot boot lane for the four-way
    // comparison: cold vs file vs daemon vs delta.
    let file_boot_json = if bench {
        let snap = CacheSnapshot::from_bytes(&full.snapshot).expect("parse tier");
        format!(", \"file_boot\": {}", spawn_warm_boot(&snap))
    } else {
        String::new()
    };

    let stats = client.daemon_stats().expect("daemon stats");
    println!(
        "{{\"mode\": \"{}\", \"schema_version\": 1, \"host_cores\": {host_cores}, \"entries\": {entries}, \
         \"snapshot_bytes\": {full_bytes}, \
         \"cold_boot\": {}, \"cold_wall_ms\": {:.1}, \
         \"daemon_boot\": {child_json}{file_boot_json}, \
         \"delta_fetch\": {{\"entries\": {quiet_entries}, \"bytes\": {}, \"wall_ms\": {:.3}}}, \
         \"redefinition_delta\": {{\"entries\": {redef_entries}, \
         \"tombstones\": {redef_tombstones}}}, \
         \"daemon\": {{\"seq\": {}, \"fetches\": {}, \"deltas\": {}, \"publishes\": {}, \
         \"evictions\": {}}}}}",
        if bench { "fleet-bench" } else { "fleet-smoke" },
        tenant_json("cold-boot-publishing", &cold, None),
        cold_wall_ns as f64 / 1e6,
        quiet.snapshot.len(),
        delta_fetch_ns as f64 / 1e6,
        stats.seq,
        stats.fetches,
        stats.deltas,
        stats.publishes,
        stats.evictions,
    );
    drop(server);
    eprintln!(
        "fleet warm boot OK: fresh process adopted 100% of first calls over the socket; \
         steady-state delta carried 0 entries; redefinition delta carried \
         {redef_entries} (tier: {entries})"
    );
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--snapshot-load") {
        let path = args.get(i + 1).expect("--snapshot-load <path>");
        snapshot_load_main(path);
    }
    if let Some(i) = args.iter().position(|a| a == "--fleet-boot") {
        let socket = args.get(i + 1).expect("--fleet-boot <socket>");
        fleet_boot_main(socket);
    }
    if args.iter().any(|a| a == "--snapshot-smoke") {
        snapshot_main(false);
    }
    if args.iter().any(|a| a == "--snapshot-bench") {
        snapshot_main(true);
    }
    if args.iter().any(|a| a == "--fleet-smoke") {
        fleet_main(false);
    }
    if args.iter().any(|a| a == "--fleet-bench") {
        fleet_main(true);
    }
    if args.iter().any(|a| a == "--metrics-smoke") {
        metrics_main(true);
    }
    if args.iter().any(|a| a == "--metrics") {
        metrics_main(false);
    }
    let host_cores = host_cores_banner();
    let smoke = args.iter().any(|a| a == "--smoke");
    let iters: usize = args
        .iter()
        .rfind(|a| !a.starts_with("--"))
        .and_then(|s| s.parse().ok())
        .unwrap_or(if smoke { 1 } else { 2 });
    let fleet_sizes: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4, 8] };
    let stagger_ms: u64 = 30;

    // Warm-up fleet (discarded): faults in the binary, the allocator and
    // the six apps' sources so the measured T=1 baseline isn't inflated
    // by first-run effects.
    let _ = run_fleet(1, iters, stagger_ms);

    // Best-of-R per fleet size: scheduling noise on small hosts swings
    // individual runs; the best run is the reproducible capability.
    let reps = if smoke { 2 } else { 3 };
    let mut fleets = Vec::new();
    for &t in &fleet_sizes {
        let best = (0..reps)
            .map(|_| run_fleet(t, iters, stagger_ms))
            .max_by(|a, b| {
                a.first_call_throughput()
                    .total_cmp(&b.first_call_throughput())
            })
            .unwrap();
        fleets.push(best);
    }
    let boot_base = fleets[0].boot_throughput();
    let fc_base = fleets[0].first_call_throughput();

    let fleet_json: Vec<String> = fleets
        .iter()
        .map(|f| {
            format!(
                "{{\"tenants\": {}, \"wall_ms\": {:.1}, \
                 \"boot_throughput_tenants_per_sec\": {:.3}, \"boot_speedup_vs_t1\": {:.2}, \
                 \"first_call_throughput_per_sec\": {:.0}, \"first_call_speedup_vs_t1\": {:.2}, \
                 \"warm_hit_rate_tenants_2plus\": {}, \"runs\": {}}}",
                f.tenants,
                f.wall_ns as f64 / 1e6,
                f.boot_throughput(),
                f.boot_throughput() / boot_base,
                f.first_call_throughput(),
                f.first_call_throughput() / fc_base,
                f.warm_hit_rate()
                    .map_or("null".to_string(), |r| format!("{r:.4}")),
                json_runs(&f.runs)
            )
        })
        .collect();
    println!(
        "{{\"schema_version\": 1, \"host_cores\": {host_cores}, \"iters_per_app\": {iters}, \
         \"stagger_ms\": {stagger_ms}, \"smoke\": {smoke}, \"fleets\": [{}]}}",
        fleet_json.join(", ")
    );

    // Regression gates (CI runs --smoke): tenant 2 must warm-start.
    for f in &fleets {
        if let Some(rate) = f.warm_hit_rate() {
            assert!(
                rate >= 0.9,
                "tenants 2..N must get >= 90% of first-call checks from the shared tier \
                 (fleet of {}: {rate:.3})",
                f.tenants
            );
        }
    }
}
