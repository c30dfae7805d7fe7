//! Fault-injection differential suite (ISSUE 4 tentpole): deterministic
//! faults must (a) inject *nothing* — bit-for-bit — when disabled,
//! (b) replay identically across the serial, parallel, and fast-forward
//! engines, and (c) separate the schedulers the way the paper's QoS
//! analysis predicts: FQ-VFTF's bounded-delay guarantee degrades
//! gracefully under every fault class, while FR-FCFS starves its victim
//! badly enough to trip the starvation watchdog — surfaced through the
//! observability layer, never by hanging the run.

use fqms_dram::device::Geometry;
use fqms_memctrl::engine::{
    adversarial_workload, simulate_parallel, simulate_serial, synthetic_workload, EngineReport,
    EngineSpec, RetryPolicy,
};
use fqms_memctrl::prelude::*;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};

/// Watchdog threshold used throughout: comfortably above FQ-VFTF's
/// worst-case victim read latency in the adversarial mix (< 200 cycles
/// even under fault injection), comfortably below FR-FCFS's starvation
/// episodes (victim reads wait up to ~400 cycles).
const WATCHDOG: u64 = 300;

fn spec_with(kind: SchedulerKind, channels: usize, threads: usize) -> EngineSpec {
    let mut spec = EngineSpec::paper(channels, threads);
    spec.config.scheduler = kind;
    spec.config.starvation_threshold = Some(WATCHDOG);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec
}

/// A plan exercising every fault class in one run.
fn all_faults_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            FaultKind::NackStorm,
            FaultWindow::new(500, 6_000),
            0.002,
            80,
        )
        .with(
            FaultKind::BankStall,
            FaultWindow::new(500, 6_000),
            0.002,
            120,
        )
        .with(
            FaultKind::RefreshPressure,
            FaultWindow::new(500, 6_000),
            0.001,
            60,
        )
        .with(
            FaultKind::RequestDrop,
            FaultWindow::new(500, 6_000),
            0.002,
            1,
        )
}

fn metrics(report: &EngineReport) -> &MetricsSink {
    &report.observations.as_ref().expect("observed run").metrics
}

#[test]
fn disabled_faults_are_bit_identical() {
    // `fault_plan: None`, `Some(FaultPlan::none())`, and a seeded plan
    // with no specs must all produce structurally equal reports: the
    // injector draws all randomness up front, and an empty plan draws
    // nothing at all.
    let events = synthetic_workload(4, 3_000, 0.4, 2006);
    let mut base = EngineSpec::paper(2, 4);
    base.epoch_cycles = 512;
    base.event_capacity = Some(1 << 20);
    let clean = simulate_serial(&base, &events).unwrap();

    let mut with_none = base.clone();
    with_none.fault_plan = Some(FaultPlan::none());
    assert_eq!(
        clean,
        simulate_serial(&with_none, &events).unwrap(),
        "FaultPlan::none() perturbed the run"
    );

    let mut with_empty = base.clone();
    with_empty.fault_plan = Some(FaultPlan::new(0xDEAD_BEEF));
    assert_eq!(
        clean,
        simulate_serial(&with_empty, &events).unwrap(),
        "an empty seeded plan perturbed the run"
    );
    assert_eq!(metrics(&clean).faults_injected, 0);
}

#[test]
fn faulted_runs_replay_identically_across_engines() {
    // With every fault class armed *and* the watchdog attached, the
    // serial, parallel, and cycle-by-cycle reference engines must still
    // agree — fault boundaries and watchdog deadlines feed
    // `next_event_cycle`, so fast-forward may never skip over one.
    let events = synthetic_workload(4, 6_000, 0.4, 42);
    let mut spec = spec_with(SchedulerKind::FqVftf, 2, 4);
    spec.fault_plan = Some(all_faults_plan(7));

    let serial = simulate_serial(&spec, &events).unwrap();
    assert!(
        metrics(&serial).faults_injected > 0,
        "plan never fired: vacuous equivalence"
    );
    let parallel = simulate_parallel(&spec, &events, 4).unwrap();
    assert_eq!(serial, parallel, "fault replay diverged across workers");

    let mut slow = spec.clone();
    slow.fast_forward = false;
    let reference = simulate_serial(&slow, &events).unwrap();
    assert_eq!(serial.cycles, reference.cycles);
    assert_eq!(serial.per_thread, reference.per_thread);
    assert_eq!(serial.completions, reference.completions);
    assert_eq!(serial.rejected, reference.rejected);
    assert_eq!(serial.unsubmitted, reference.unsubmitted);
    assert_eq!(
        serial.observations, reference.observations,
        "fast-forward skipped a fault or watchdog edge"
    );

    // Same seed, same run — twice.
    let again = simulate_serial(&spec, &events).unwrap();
    assert_eq!(serial, again, "fault injection is not reproducible");
}

#[test]
fn dropped_requests_are_conserved_and_counted() {
    let events = synthetic_workload(4, 5_000, 0.4, 11);
    let mut spec = spec_with(SchedulerKind::FqVftf, 2, 4);
    spec.fault_plan = Some(FaultPlan::new(3).with(
        FaultKind::RequestDrop,
        FaultWindow::new(100, 4_000),
        0.01,
        1,
    ));
    let report = simulate_serial(&spec, &events).unwrap();
    assert_eq!(report.unsubmitted, 0, "drop fault wedged the schedule");

    let dropped: u64 = report.per_thread.iter().map(|t| t.requests_dropped).sum();
    assert!(dropped > 0, "drop plan never fired: vacuous test");
    // Dropped requests were admitted but never complete; everything else
    // drains. Accounting must balance exactly.
    assert_eq!(
        report.total_completed() as u64 + dropped,
        events.len() as u64,
        "drops broke request conservation"
    );
    // The metrics sink agrees with the controller's own stats.
    let sink = metrics(&report);
    let sink_dropped: u64 = sink.iter().map(|(_, t)| t.requests_dropped).sum();
    assert_eq!(sink_dropped, dropped, "sink disagrees with stats on drops");
    assert!(sink.faults_injected >= dropped);
}

#[test]
fn nack_storm_with_bounded_retry_drains_instead_of_wedging() {
    let events = synthetic_workload(4, 5_000, 0.4, 19);
    let mut spec = spec_with(SchedulerKind::FqVftf, 2, 4);
    spec.fault_plan = Some(FaultPlan::new(5).with(
        FaultKind::NackStorm,
        FaultWindow::new(100, 4_500),
        0.004,
        400,
    ));
    spec.retry = RetryPolicy::bounded(6, 2, 64);

    let report = simulate_serial(&spec, &events).unwrap();
    assert_eq!(report.unsubmitted, 0, "bounded retry failed to drain");
    let rejected: usize = report.rejected.iter().map(Vec::len).sum();
    assert!(rejected > 0, "storm never exhausted a retry: vacuous test");
    let nacks: u64 = report.per_thread.iter().map(|t| t.nacks).sum();
    assert!(nacks > 0, "storm produced no NACKs");
    // Every submission either completed or was abandoned — none lost.
    assert_eq!(
        report.total_completed() + rejected,
        events.len(),
        "bounded retry broke request conservation"
    );

    // The same storm under the default infinite-retry policy also drains
    // (episodes end), completing strictly more requests.
    let mut infinite = spec.clone();
    infinite.retry = RetryPolicy::immediate();
    let reference = simulate_serial(&infinite, &events).unwrap();
    assert_eq!(reference.unsubmitted, 0);
    assert_eq!(reference.rejected.iter().map(Vec::len).sum::<usize>(), 0);
    assert!(reference.total_completed() > report.total_completed());
}

#[test]
fn watchdog_separates_fr_fcfs_from_fq_vftf() {
    // The adversarial mix with *no* faults: aggressors chain row hits
    // while the victim's row misses wait. FR-FCFS lets the victim's
    // pending reads sit past the watchdog threshold; FQ-VFTF's inversion
    // bound keeps the victim inside its QoS bound and the watchdog dark.
    let events = adversarial_workload(&Geometry::paper(), 3, 20_000, 2006);

    let fr = simulate_serial(&spec_with(SchedulerKind::FrFcfs, 1, 3), &events).unwrap();
    let fq = simulate_serial(&spec_with(SchedulerKind::FqVftf, 1, 3), &events).unwrap();

    let fr_victim = &fr.per_thread[0];
    let fq_victim = &fq.per_thread[0];
    assert!(
        fr_victim.starvations > 0,
        "FR-FCFS never tripped the watchdog: adversarial mix too gentle"
    );
    assert_eq!(
        fq_victim.starvations, 0,
        "FQ-VFTF tripped the watchdog on a fault-free run"
    );
    assert!(
        fq_victim.avg_read_latency() < fr_victim.avg_read_latency(),
        "FQ-VFTF victim latency {:.0} not below FR-FCFS {:.0}",
        fq_victim.avg_read_latency(),
        fr_victim.avg_read_latency()
    );
    // Watchdog trips surface through the observability layer too.
    assert_eq!(
        metrics(&fr).thread(0).starvations,
        fr_victim.starvations,
        "sink disagrees with stats on starvations"
    );
}

#[test]
fn fq_qos_bound_degrades_gracefully_under_each_fault_class() {
    // Per fault class: FQ-VFTF absorbs the fault without ever starving
    // its victim (watchdog stays dark, latency stays bounded), while
    // FR-FCFS keeps starving — the watchdog keeps firing instead of the
    // run hanging or the failure passing silently.
    let events = adversarial_workload(&Geometry::paper(), 3, 20_000, 2006);
    let baseline_fq = simulate_serial(&spec_with(SchedulerKind::FqVftf, 1, 3), &events).unwrap();
    let baseline_victim = baseline_fq.per_thread[0].avg_read_latency();

    for kind in FaultKind::ALL {
        let plan = FaultPlan::new(31).with(kind, FaultWindow::new(2_000, 14_000), 0.002, 150);

        let mut fq_spec = spec_with(SchedulerKind::FqVftf, 1, 3);
        fq_spec.fault_plan = Some(plan.clone());
        let fq = simulate_serial(&fq_spec, &events).unwrap();
        assert!(
            metrics(&fq).faults_injected > 0,
            "{}: plan never fired",
            kind.name()
        );
        let victim = &fq.per_thread[0];
        assert_eq!(
            victim.starvations,
            0,
            "{}: FQ-VFTF victim starved under fault",
            kind.name()
        );
        let faulted = victim.avg_read_latency();
        assert!(
            faulted < 4.0 * baseline_victim.max(1.0),
            "{}: FQ-VFTF victim latency exploded: {:.0} vs fault-free {:.0}",
            kind.name(),
            faulted,
            baseline_victim
        );

        let mut fr_spec = spec_with(SchedulerKind::FrFcfs, 1, 3);
        fr_spec.fault_plan = Some(plan);
        let fr = simulate_serial(&fr_spec, &events).unwrap();
        assert!(
            fr.per_thread[0].starvations > 0,
            "{}: FR-FCFS victim no longer starves under fault",
            kind.name()
        );
    }
}
