//! The six subject apps as the benchmark drives them: configuration,
//! boot, request scripts and the output oracle's observables.

use hb_apps::AppSpec;
use hummingbird::{ExecTier, Hummingbird, HummingbirdBuilder, Mode, ObsLevel, SharedCache};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// The pinned configuration: the tier is always set on the builder (so
/// `HB_EXEC_TIER` cannot change it) and observability is always off.
pub fn builder(mode: Mode, tier: ExecTier, shared: Option<Arc<SharedCache>>) -> HummingbirdBuilder {
    let b = Hummingbird::builder()
        .mode(mode)
        .exec_tier(tier)
        .observability(ObsLevel::Off);
    match shared {
        Some(s) => b.shared_cache(s),
        None => b,
    }
}

pub fn tier_name(tier: ExecTier) -> &'static str {
    match tier {
        ExecTier::TreeWalk => "treewalk",
        ExecTier::Bytecode => "bytecode",
    }
}

/// One request script: a single iteration of the app's workload driver.
pub fn script(spec: &AppSpec) -> String {
    (spec.workload_call)(1)
}

/// The Rails apps insert rows on every script; reseeding before each one
/// keeps the working set fixed (unseeded, per-script cost grows with the
/// number of scripts run).
pub fn reseed(spec: &AppSpec, hb: &mut Hummingbird) -> Result<(), String> {
    if spec.seed.is_empty() {
        return Ok(());
    }
    hb.eval(spec.seed)
        .map(drop)
        .map_err(|e| format!("{}: reseed raised: {e}", spec.name))
}

/// A RubyLite expression whose inspected value is the app state a script
/// leaves behind: tables read through the `DB` builtins, classes through
/// reflection, and for the two stateless libraries a value the app
/// computes. None of it depends on the checker, so Hum must observe
/// exactly what Orig observes.
pub fn observable(spec: &AppSpec) -> &'static str {
    match spec.name {
        "Talks" => {
            r#"[DB.count("users"), DB.count("talk_lists"), DB.count("subscriptions"), DB.all("talks").map { |r| [r["id"], r["title"], r["speaker"], r["owner_id"], r["completed"]] }]"#
        }
        "Boxroom" => {
            r#"[DB.count("box_users"), DB.count("folders"), DB.all("user_files").map { |r| [r["id"], r["name"], r["folder_id"], r["size_bytes"], r["uploader_id"]] }]"#
        }
        "Pubs" => {
            r#"[DB.count("authors"), DB.all("publications").map { |r| [r["id"], r["title"], r["venue"], r["year"], r["kind"]] }]"#
        }
        "Rolify" => "RoleUser.instance_methods",
        "CCT" => "cct_run_once(8)",
        "Countries" => {
            r#"idx = CountryIndex.new; [idx.total_population, idx.currencies, idx.names_in("Europe")]"#
        }
        other => panic!("no observable for app {other}"),
    }
}

/// Runs `f`, turning a panic into an error so a failed operation is
/// counted instead of ending the run.
pub fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(format!(
            "panic: {}",
            p.downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| p.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    }
}

/// Boots one app through the library's own assembly path
/// (`hb_apps::build_app_with`).
pub fn boot(spec: &AppSpec, builder: HummingbirdBuilder) -> Result<Hummingbird, String> {
    guarded(|| Ok(hb_apps::build_app_with(spec, builder)))
}

/// Nanoseconds spent in each boot layer, summed over the apps of a boot.
#[derive(Clone, Copy, Default, Debug)]
pub struct BootParts {
    pub builder: u64,
    pub rails: u64,
    pub load: u64,
    pub seed: u64,
}

/// [`boot`] decomposed into its layers: the same calls in the same order
/// as `hb_apps::build_app_with`, each timed.
pub fn boot_traced(
    spec: &AppSpec,
    builder: HummingbirdBuilder,
    parts: &mut BootParts,
) -> Result<Hummingbird, String> {
    guarded(|| {
        let name = spec.name;
        let annotated = builder.configured_mode() != Mode::Original;
        let t = Instant::now();
        let mut hb = builder.build();
        parts.builder += elapsed_ns(t);
        if spec.rails {
            let t = Instant::now();
            hb_rails::install_rails(&mut hb, annotated)
                .map_err(|e| format!("{name}: rails install raised: {e}"))?;
            parts.rails += elapsed_ns(t);
        }
        if spec.needs_datafile {
            hb_apps::datafile::install_datafile(&mut hb.interp);
        }
        let t = Instant::now();
        for (file, src) in boot_files(spec, annotated) {
            hb.load_file(file, src)
                .map_err(|e| format!("{name}: load of {file} raised: {e}"))?;
        }
        parts.load += elapsed_ns(t);
        if !spec.seed.is_empty() {
            let t = Instant::now();
            hb.eval(spec.seed)
                .map_err(|e| format!("{name}: seed raised: {e}"))?;
            parts.seed += elapsed_ns(t);
        }
        Ok(hb)
    })
}

/// The app files a boot hands to `load_file`, in load order: schema,
/// sources, annotations (unless Orig) and driver.
pub fn boot_files(spec: &AppSpec, annotated: bool) -> Vec<(&'static str, &'static str)> {
    let annotations: &[(&str, &str)] = if annotated { spec.annotations } else { &[] };
    [spec.schema, spec.sources, annotations, spec.driver].concat()
}

/// Every source text one annotated boot of `spec` parses: the core
/// library, the Rails framework for Rails apps, then the app files.
pub fn boot_sources(spec: &AppSpec) -> Vec<&'static str> {
    let mut out = vec![hummingbird::CORELIB_ANNOTATIONS];
    if spec.rails {
        out.extend([
            hb_rails::ACTIVE_RECORD_SOURCE,
            hb_rails::ACTION_CONTROLLER_SOURCE,
            hb_rails::RAILS_ANNOTATIONS,
        ]);
    }
    out.extend(boot_files(spec, true).into_iter().map(|(_, src)| src));
    out
}

pub fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}
