//! Fault-injection sweep: graceful degradation under deterministic
//! faults (extension study, ISSUE 4).
//!
//! For every fault class (plus a fault-free baseline) the starvation
//! adversarial mix is run under FR-FCFS and FQ-VFTF with the starvation
//! watchdog armed. The table reports how each scheduler's QoS behaviour
//! degrades: FQ-VFTF's victim latency stays bounded and the watchdog
//! stays dark, while FR-FCFS keeps starving its victim — surfaced as
//! watchdog trips through the observability layer, never as a hang.
//! Every faulted run is replayed to confirm the injection is
//! reproducible, and the fault-free baseline is checked bit-identical to
//! a run with an explicitly empty plan.

use fqms::prelude::*;
use fqms_bench::{f, header, row, run_length, seed};
use fqms_dram::device::Geometry;
use fqms_memctrl::prelude::*;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};

/// Watchdog threshold in DRAM cycles (see the fault differential suite:
/// above FQ-VFTF's worst-case victim latency, below FR-FCFS's episodes).
const WATCHDOG: u64 = 300;

fn spec_for(kind: SchedulerKind) -> EngineSpec {
    let mut spec = EngineSpec::paper(1, 3);
    spec.config.scheduler = kind;
    spec.config.starvation_threshold = Some(WATCHDOG);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec
}

fn main() {
    // Dropped on exit: prints wall-clock and skip-rate to the .log sidecar.
    let _run_log = fqms_bench::RunLog::new();
    let len = run_length();
    let seed = seed();
    // Scale the adversarial schedule with the run budget.
    let gen_cycles = (len.instructions / 2).clamp(10_000, 200_000);
    let events = adversarial_workload(&Geometry::paper(), 3, gen_cycles, seed);

    header(&[
        "fault",
        "scheduler",
        "faults_injected",
        "victim_reads",
        "victim_lat_mean",
        "victim_lat_max",
        "victim_starvations",
        "dropped",
        "rejected",
        "nacks",
        "completed",
    ]);

    let classes: Vec<(&str, Option<FaultKind>)> = std::iter::once(("none", None))
        .chain(FaultKind::ALL.into_iter().map(|k| (k.name(), Some(k))))
        .collect();
    for (name, class) in classes {
        let plan = class.map(|kind| {
            let end = gen_cycles.saturating_sub(gen_cycles / 4).max(2);
            FaultPlan::new(seed).with(kind, FaultWindow::new(end / 8, end), 0.002, 150)
        });
        for sched in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf] {
            let mut spec = spec_for(sched);
            spec.fault_plan = plan.clone();
            if class == Some(FaultKind::NackStorm) {
                // NACK storms are the one class that can wedge an
                // infinite-retry port; bound it (graceful degradation).
                spec.retry = RetryPolicy::bounded(16, 2, 64);
            }
            let report = simulate_serial(&spec, &events)
                .unwrap_or_else(|e| panic!("faults: invalid spec for {sched} under {name}: {e}"));
            let replay = simulate_serial(&spec, &events)
                .unwrap_or_else(|e| panic!("faults: invalid replay spec for {sched}: {e}"));
            assert_eq!(
                report, replay,
                "fault injection not reproducible ({sched} under {name}, seed {seed})"
            );
            if class.is_none() {
                // Fault-free acceptance: an explicitly empty plan must be
                // bit-identical to no plan at all.
                let mut none_spec = spec.clone();
                none_spec.fault_plan = Some(FaultPlan::none());
                let none_report = simulate_serial(&none_spec, &events)
                    .unwrap_or_else(|e| panic!("faults: invalid empty-plan spec: {e}"));
                assert_eq!(
                    report, none_report,
                    "empty fault plan perturbed the {sched} baseline (seed {seed})"
                );
            }
            fqms::telemetry::note_controller_cycles(report.stepped_cycles, report.skipped_cycles);
            let obs = report
                .observations
                .as_ref()
                .expect("faults: spec enables observation");
            let victim = obs.metrics.thread(0);
            let label = format!("faults-{name}");
            fqms::sidecar::append(&label, sched.name(), &obs.metrics);
            row(&[
                name.to_string(),
                sched.name().to_string(),
                obs.metrics.faults_injected.to_string(),
                victim.read_latency.count().to_string(),
                f(victim.read_latency.mean()),
                victim.read_latency.max().to_string(),
                report.per_thread[0].starvations.to_string(),
                report
                    .per_thread
                    .iter()
                    .map(|t| t.requests_dropped)
                    .sum::<u64>()
                    .to_string(),
                report
                    .rejected
                    .iter()
                    .map(Vec::len)
                    .sum::<usize>()
                    .to_string(),
                report
                    .per_thread
                    .iter()
                    .map(|t| t.nacks)
                    .sum::<u64>()
                    .to_string(),
                report.total_completed().to_string(),
            ]);
        }
    }
}
