//! The FQMS repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one named workload through the simulator's public entry points,
//! repeating it until `--seconds` of host time have gone by, checks every
//! run's output, and prints as its last stdout line one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set, measured untraced; with `--trace 1`
//! they are the per-layer set, timed from this package around calls into
//! each crate. The line before it is a manifest (seed, host parallelism,
//! commit, configuration fingerprints, simulated-output digest). See
//! README.md for the workloads and what each metric should move.

use fqms_perfbench::{
    common, declared, metric_problems, run, Args, Outcome, Tally, DEFAULT_SEED, WORKLOADS,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad(&"must be a non-negative number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Formats the result line: every declared metric, in declared order.
fn result_line(tally: &Tally, declared: &[(&str, &str)], measured: &[(&str, f64)]) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .filter_map(|(name, unit)| {
            let (_, value) = measured.iter().find(|(m, _)| m == name)?;
            Some(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tally = Tally::default();
    let outcome = match catch_unwind(AssertUnwindSafe(|| run(&args, &mut tally))) {
        Ok(o) => o,
        Err(_) => {
            // The panicking run was attempted but never recorded.
            tally.record("panic", vec!["the program panicked".into()]);
            Outcome::default()
        }
    };
    if tally.attempted == 0 {
        tally.record("run", vec!["no simulation ran".into()]);
    }
    // A failed run may leave metrics unmeasured; that is already counted.
    if tally.failed == 0 {
        let problems = metric_problems(args.trace, &outcome);
        if !problems.is_empty() {
            tally.record("report", problems);
        }
    }
    for e in &tally.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    let mut manifest = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        (
            "available_parallelism",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("commit", format!("\"{}\"", common::git_commit())),
    ];
    manifest.extend(outcome.manifest);
    let manifest: Vec<String> = manifest
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"manifest\": {{{}}}}}", manifest.join(", "));
    let finite: Vec<(&str, f64)> = outcome
        .metrics
        .into_iter()
        .filter(|(_, v)| v.is_finite())
        .collect();
    println!("{}", result_line(&tally, declared(args.trace), &finite));
    if tally.failed > 0 {
        std::process::exit(1);
    }
}
