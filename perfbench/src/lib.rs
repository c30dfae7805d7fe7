//! The FQMS repository benchmark as a library: the four workloads, their
//! metric sets, and one entry point that runs a workload and checks its
//! outputs. `src/main.rs` is the command-line front end; the smoke test
//! calls [`run`] directly.

pub mod common;
mod engine;
mod paper;
mod tenants;

pub use common::Tally;

/// End-to-end metrics (`--trace 0`) with their units, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("qos_min_norm_ipc", "ratio"),
    ("hmean_norm_ipc", "ratio"),
    ("qos_p50_cycles", "cycles"),
    ("qos_p99_cycles", "cycles"),
    ("bus_util", "ratio"),
    ("tenant_share_err", "ratio"),
];

/// Per-layer metrics (`--trace 1`) with their units, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("system.build_s", "s"),
    ("cpu.prewarm_s", "s"),
    ("cpu.prewarm_accesses", "count"),
    ("cpu.tick_s", "s"),
    ("cpu.ticks", "count"),
    ("cpu.tick_progress_frac", "ratio"),
    ("cpu.dead_cycle_frac", "ratio"),
    ("memctrl.submit_s", "s"),
    ("memctrl.submit_calls", "count"),
    ("memctrl.submit_accept_frac", "ratio"),
    ("memctrl.step_s", "s"),
    ("memctrl.cycles_stepped", "count"),
    ("memctrl.cycles_skipped", "count"),
    ("memctrl.skip_frac", "ratio"),
    ("memctrl.us_per_req.fq_vftf", "us"),
    ("memctrl.us_per_req.bliss", "us"),
    ("dram.cmd_act", "count"),
    ("dram.cmd_pre", "count"),
    ("dram.cmd_rd", "count"),
    ("dram.cmd_wr", "count"),
    ("dram.cmd_ref", "count"),
    ("dram.bus_busy_frac", "ratio"),
    ("dram.row_hit_frac", "ratio"),
    ("sim.serial_s", "s"),
    ("sim.parallel_s", "s"),
    ("sim.parallel_speedup", "ratio"),
    ("sim.steals", "count"),
    ("sim.free_run_spans", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Workload names accepted by `--workload`.
pub const WORKLOADS: &[&str] = &["paper_2core", "engine_dense", "engine_sparse", "tenants_1k"];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The smallest inputs, for the smoke test: every code path, little
    /// time. The command line always runs the full size.
    pub smoke: bool,
}

/// What one workload measured: metric values by name, and manifest
/// entries as pre-encoded JSON values.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub manifest: Vec<(&'static str, String)>,
}

/// Runs `args.workload`, recording every simulation run in `tally`. A
/// traced run reports 0 for every per-layer metric of a layer the
/// workload never enters (the engine runs no cores, for example).
///
/// # Panics
///
/// Panics if the workload name is not one of [`WORKLOADS`].
pub fn run(args: &Args, tally: &mut Tally) -> Outcome {
    let mut outcome = match args.workload.as_str() {
        "paper_2core" => paper::run(args, tally),
        "engine_dense" => engine::run(engine::Traffic::Dense, args, tally),
        "engine_sparse" => engine::run(engine::Traffic::Sparse, args, tally),
        "tenants_1k" => tenants::run(args, tally),
        other => panic!("unknown workload {other}"),
    };
    if args.trace && !outcome.metrics.is_empty() {
        for (name, _) in PER_LAYER {
            if !outcome.metrics.iter().any(|(m, _)| m == name) {
                outcome.metrics.push((name, 0.0));
            }
        }
    }
    outcome
}

/// The metric set `--trace` selects.
pub fn declared(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Every declared metric that `outcome` lacks or holds as a non-finite
/// number.
pub fn metric_problems(trace: bool, outcome: &Outcome) -> Vec<String> {
    declared(trace)
        .iter()
        .filter_map(
            |(name, _)| match outcome.metrics.iter().find(|(m, _)| m == name) {
                None => Some(format!("metric {name} was not measured")),
                Some((_, v)) if !v.is_finite() => Some(format!("metric {name} is {v}")),
                Some(_) => None,
            },
        )
        .collect()
}
