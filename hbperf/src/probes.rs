//! Layer probes of the traced run: the front end, lowering, bytecode
//! compilation and whole-program checking, each timed over everything one
//! six-app tenant boot hands it.

use crate::apps;
use crate::boot::TIER;
use crate::report::Metrics;
use crate::stats::median;
use hb_apps::AppSpec;
use hb_syntax::parse_program;
use hummingbird::{Hummingbird, Mode};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each probe; the median is reported.
const REPS: usize = 5;

pub fn run(specs: &[AppSpec], jobs: usize) -> Result<Metrics, String> {
    let sources: Vec<&str> = specs.iter().flat_map(apps::boot_sources).collect();
    let bytes: usize = sources.iter().map(|s| s.len()).sum();
    let programs = sources
        .iter()
        .map(|src| parse_program(src, "<probe>").map_err(|e| format!("probe parse: {e:?}")))
        .collect::<Result<Vec<_>, _>>()?;
    let defs: Vec<_> = programs
        .iter()
        .flat_map(hb_il::collect_method_defs)
        .collect();

    let mut parse = Vec::new();
    let mut lower = Vec::new();
    let mut compile = Vec::new();
    let mut check_all = Vec::new();
    let mut parallel = Vec::new();
    let mut derivations = 0u64;
    for _ in 0..REPS {
        parse.push(time_us(|| {
            for src in &sources {
                black_box(parse_program(black_box(src), "<probe>").ok());
            }
        }));
        lower.push(time_us(|| {
            for d in &defs {
                black_box(hb_il::lower_method(&d.def));
            }
        }));
        compile.push(time_us(|| {
            for d in &defs {
                black_box(hb_il::compile_method(&d.def));
            }
        }));
        let (us, n) = check_whole_program(specs, |hb| hb.check_all())?;
        check_all.push(us);
        derivations = n;
        parallel.push(check_whole_program(specs, |hb| hb.check_all_parallel(jobs))?.0);
    }
    let compiled = defs
        .iter()
        .filter(|d| hb_il::compile_method(&d.def).is_some())
        .count();

    let mut m = Metrics::default();
    let parse_us = median(&parse);
    m.layer("syntax.parse_us", parse_us, "us", REPS);
    m.layer(
        "syntax.parse_bytes_per_us",
        bytes as f64 / parse_us,
        "bytes/us",
        REPS,
    );
    m.layer("il.lower_us", median(&lower), "us", REPS);
    m.layer("il.compile_us", median(&compile), "us", REPS);
    m.layer("il.bytecode_compiled", compiled as f64, "count", 1);
    m.layer(
        "il.bytecode_bailed",
        (defs.len() - compiled) as f64,
        "count",
        1,
    );
    m.layer("check.check_all_us", median(&check_all), "us", REPS);
    m.layer("check.derivations", derivations as f64, "count", REPS);
    m.layer("sched.check_all_parallel_us", median(&parallel), "us", REPS);
    Ok(m)
}

fn time_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Builds the six apps fresh and times `check` over each, summed;
/// returns the time and the derivations it produced.
fn check_whole_program(
    specs: &[AppSpec],
    check: impl Fn(&mut Hummingbird) -> Vec<hummingbird::TypeDiagnostic>,
) -> Result<(f64, u64), String> {
    let mut us = 0.0;
    let mut derivations = 0;
    for spec in specs {
        let mut hb = apps::boot(spec, apps::builder(Mode::Full, TIER, None))?;
        let diagnostics = apps::guarded(|| {
            let t = Instant::now();
            let d = check(&mut hb);
            us += t.elapsed().as_nanos() as f64 / 1e3;
            Ok(d)
        })?;
        if !diagnostics.is_empty() {
            return Err(format!(
                "{}: whole-program check reported {} diagnostics",
                spec.name,
                diagnostics.len()
            ));
        }
        derivations += hb.stats().checks_performed;
    }
    Ok((us, derivations))
}
