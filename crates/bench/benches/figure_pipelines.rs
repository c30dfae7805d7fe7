//! Benchmarks of the figure pipelines themselves: short (statistically
//! down-scaled) versions of the paper's experiments, so the bench run
//! exercises every experiment path end to end and tracks simulator
//! throughput regressions.
//!
//! Runs on the in-tree [`fqms_bench::timing::TimingHarness`] (the build is
//! hermetic, so no Criterion); output is TSV on stdout.

use fqms::prelude::*;
use fqms_bench::timing::TimingHarness;
use fqms_cpu::core::{Core, CoreConfig};
use fqms_memctrl::request::ThreadId;
use fqms_workloads::generator::SyntheticTrace;
use std::hint::black_box;

const LEN: RunLength = RunLength {
    instructions: 10_000,
    max_dram_cycles: 2_000_000,
};

fn bench_solo_runs(h: &mut TimingHarness) {
    for name in ["art", "apsi", "vpr", "crafty"] {
        let profile = by_name(name).unwrap();
        h.bench(&format!("fig4_solo_run/{name}"), || {
            run_solo(black_box(profile), LEN.instructions, LEN.max_dram_cycles, 3)
        });
    }
}

fn bench_two_core(h: &mut TimingHarness) {
    let art = by_name("art").unwrap();
    let vpr = by_name("vpr").unwrap();
    for sched in [
        SchedulerKind::FrFcfs,
        SchedulerKind::FrVftf,
        SchedulerKind::FqVftf,
    ] {
        h.bench(&format!("fig5_two_core_vs_art/{}", sched.name()), || {
            two_core_run(black_box(vpr), black_box(art), sched, LEN, 3)
        });
    }
}

fn bench_four_core(h: &mut TimingHarness) {
    let mix = four_core_workloads()[0];
    for sched in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf] {
        h.bench(
            &format!("fig8_four_core_workload1/{}", sched.name()),
            || four_core_run(black_box(&mix), sched, LEN, 3),
        );
    }
}

fn bench_baseline(h: &mut TimingHarness) {
    let swim = by_name("swim").unwrap();
    for factor in [1u64, 2, 4] {
        h.bench(&format!("baseline_time_scaled/x{factor}"), || {
            run_private_baseline(
                black_box(swim),
                factor,
                LEN.instructions,
                LEN.max_dram_cycles * factor,
                3,
            )
        });
    }
}

/// The cache-prewarm kernel alone: a fresh core at the paper geometry
/// streams art's prewarm budget (4 passes over its 32 MiB footprint,
/// 2,097,152 references) through L1D/L2. Divide `mean_us` by 2.097 for
/// ns per access.
fn bench_prewarm(h: &mut TimingHarness) {
    let art = by_name("art").unwrap();
    let config = CoreConfig::paper();
    let accesses = 4 * art.footprint_bytes / config.l1d.line_bytes;
    h.bench(&format!("prewarm/art_{accesses}_accesses"), || {
        let trace = SyntheticTrace::for_thread(art, 3, 0).unwrap();
        let mut core = Core::new(config, ThreadId::new(0), Box::new(trace)).unwrap();
        core.prewarm_caches(black_box(accesses));
        core
    });
}

fn main() {
    let mut h = TimingHarness::new("figure_pipelines");
    bench_prewarm(&mut h);
    bench_solo_runs(&mut h);
    bench_two_core(&mut h);
    bench_four_core(&mut h);
    bench_baseline(&mut h);
}
