//! Smoke test at the smallest input size: every workload runs untraced
//! and traced, every declared metric is present and finite, every
//! correctness check (traced equals untraced included) passes, and
//! `BENCHMARK.json` names exactly the workloads and metrics the
//! benchmark reports.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`;
//! the `paper_2core` cache prewarm is slow in a debug build.

use fqms_perfbench::{metric_problems, run, Args, Tally, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(workload: &str, trace: bool) {
    let args = Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        smoke: true,
    };
    let mut tally = Tally::default();
    let outcome = run(&args, &mut tally);
    assert!(tally.attempted > 0, "{workload}: nothing ran");
    assert_eq!(
        tally.failed, 0,
        "{workload} trace={trace}: {:?}",
        tally.errors
    );
    let problems = metric_problems(trace, &outcome);
    assert!(
        problems.is_empty(),
        "{workload} trace={trace}: {problems:?}"
    );
    assert!(
        outcome.manifest.iter().any(|(k, _)| *k == "passes"),
        "{workload}: manifest lacks the pass count"
    );
}

#[test]
fn paper_2core_smoke() {
    smoke("paper_2core", false);
    smoke("paper_2core", true);
}

#[test]
fn engine_dense_smoke() {
    smoke("engine_dense", false);
    smoke("engine_dense", true);
}

#[test]
fn engine_sparse_smoke() {
    smoke("engine_sparse", false);
    smoke("engine_sparse", true);
}

#[test]
fn tenants_1k_smoke() {
    smoke("tenants_1k", false);
    smoke("tenants_1k", true);
}

/// The value of string field `field` in each object of the top-level
/// array `key` of `BENCHMARK.json`.
fn fields(json: &str, key: &str, field: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split('{')
        .skip(1)
        .map(|object| {
            let at = object
                .find(&format!("\"{field}\""))
                .unwrap_or_else(|| panic!("{key} entry without {field}"));
            object[at + field.len() + 2..]
                .split('"')
                .nth(1)
                .expect("quoted value")
                .to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_metric_sets() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    assert_eq!(fields(&json, "workloads", "name"), WORKLOADS);
    for (key, set) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let own: Vec<_> = set.iter().map(|(n, _)| *n).collect();
        let units: Vec<_> = set.iter().map(|(_, u)| *u).collect();
        assert_eq!(fields(&json, key, "name"), own, "{key} names");
        assert_eq!(fields(&json, key, "unit"), units, "{key} units");
    }
}
