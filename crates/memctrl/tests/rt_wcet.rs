//! Real-time mode verification suite (ISSUE 9 tentpole): the analytic
//! WCET bound from [`fqms_memctrl::wcet`] must hold *empirically* on
//! every completion of every in-budget real-time thread, under
//! adversarial best-effort interference and injected faults — and the
//! regulated mode must stay bit-identical across the serial, parallel,
//! fast-forward, and kill-and-resume execution paths.
//!
//! The centrepiece is a shrinking [`CaseRunner`] fuzz over regulated
//! configurations × adversarial fault plans (NACK storms at admission,
//! refresh-deadline pressure, request drops), asserting that **zero**
//! regulated completions exceed the bound computed *before* the run from
//! the case's public fault specs ([`extra_blocking_for`] charges each
//! compiled episode conservatively). Satellite edge cases ride along:
//! zero-budget buckets (pure best-effort demotion), budgets at the run
//! horizon (semantically identical to an unregulated run), replenish
//! boundaries inside fast-forward skip windows, and cross-mode resume
//! rejection by the config fingerprint.

use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::engine::{
    adversarial_workload, realtime_workload, resume_serial, simulate_parallel, simulate_serial,
    simulate_serial_checkpointed, synthetic_workload, EngineReport, EngineSpec, ResumeError,
};
use fqms_memctrl::prelude::*;
use fqms_memctrl::wcet::bound_for;
use fqms_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
use fqms_sim::rng::{CaseRunner, SimRng};
use fqms_sim::snapshot::SnapshotError;

/// A regulated single-channel spec: `rt` real-time threads with the given
/// per-period `budget`, `be` best-effort aggressors, bounds attached so
/// the controller itself counts violations.
fn regulated_spec(rt: usize, be: usize, period: u64, budget: u64, extra: u64) -> EngineSpec {
    let mut spec = EngineSpec::paper(1, rt + be);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    let mut reg = RegulationConfig::new(period);
    for _ in 0..rt {
        reg = reg.rt_class(budget, None);
    }
    for _ in 0..be {
        reg = reg.best_effort();
    }
    // Attach the analytic bound so the controller emits `BoundExceeded`
    // and counts violations on its own.
    let bound = bound_for(&spec.timing, &spec.geometry, &reg, 0, extra);
    for class in reg.classes.iter_mut().filter(|c| c.rt && c.budget > 0) {
        class.wcet = bound;
    }
    spec.config = spec.config.with_regulation(reg);
    spec
}

fn metrics(report: &EngineReport) -> &MetricsSink {
    &report.observations.as_ref().expect("observed run").metrics
}

/// Conservative per-channel fault allowance for the WCET bound, computed
/// from the *public* compiled timeline of the plan the engine will apply
/// to channel 0 (`plan.salted(0)`, matching `build_shards`):
///
/// * each refresh-pressure episode can stall the channel for its full
///   duration plus one trailing `tRFC + tRP` refresh it forced urgent,
/// * each NACK storm defers acceptance and piles up an RT backlog that
///   drains at `budget` per period — at most the storm's duration plus
///   two replenish periods of extra queueing per episode,
/// * request drops only shorten queues: no charge.
fn extra_blocking_for(plan: &FaultPlan, timing: &TimingParams, period: u64) -> u64 {
    let inj = FaultInjector::new(&plan.salted(0));
    let mut extra = 0u64;
    for spec in &plan.specs {
        let episodes = inj.scheduled(spec.kind) as u64;
        let per_episode = match spec.kind {
            FaultKind::RefreshPressure => spec
                .duration
                .saturating_add(timing.t_rfc)
                .saturating_add(timing.t_rp),
            FaultKind::NackStorm => spec.duration.saturating_add(period.saturating_mul(2)),
            FaultKind::RequestDrop | FaultKind::BankStall => 0,
        };
        extra = extra.saturating_add(episodes.saturating_mul(per_episode));
    }
    extra
}

/// Asserts every real-time completion of `report` is within `bound` and
/// that the controller's own violation counter agrees. Returns the count
/// of regulated completions checked (for vacuity guards).
fn assert_rt_within(report: &EngineReport, rt_threads: u32, bound: u64) -> Result<usize, String> {
    let mut checked = 0;
    for completion in report.completions.iter().flatten() {
        if completion.thread.as_u32() < rt_threads {
            checked += 1;
            if completion.latency() > bound {
                return Err(format!(
                    "thread {} request {:?} latency {} exceeds bound {bound}",
                    completion.thread.as_u32(),
                    completion.id,
                    completion.latency()
                ));
            }
        }
    }
    let violations = metrics(report).bound_violations;
    if violations != 0 {
        return Err(format!("controller counted {violations} bound violations"));
    }
    Ok(checked)
}

/// Baseline: two regulated real-time threads against two flooding
/// best-effort aggressors, no faults. Every RT completion obeys the
/// analytic bound and the run conserves requests.
#[test]
fn rt_latency_obeys_bound_under_best_effort_flood() {
    let spec = regulated_spec(2, 2, 2_000, 6, 0);
    let reg = spec.config.regulation.as_ref().unwrap();
    let bound = bound_for(&spec.timing, &spec.geometry, reg, 0, 0).unwrap();
    let events = realtime_workload(reg, 4, 30_000, 0.7, 2006);
    let report = simulate_serial(&spec, &events).unwrap();
    assert_eq!(report.unsubmitted, 0, "regulated run failed to drain");
    assert_eq!(report.total_completed(), events.len());
    let checked = assert_rt_within(&report, 2, bound).unwrap();
    assert!(checked > 50, "only {checked} RT completions: vacuous run");
}

/// The separation the `latency_cdf` figure plots: under the bank-camping
/// adversarial mix, unregulated FR-FCFS lets aggressors chain row hits
/// ahead of the victim's row misses, while the regulated mode gives the
/// victim private banks and the premium tier — its worst observed
/// latency stays inside the analytic bound *and* strictly below the
/// FR-FCFS worst case.
#[test]
fn regulation_beats_fr_fcfs_worst_case_under_bank_camping() {
    let events = adversarial_workload(&Geometry::paper(), 4, 20_000, 2006);
    let tail = |r: &EngineReport| {
        r.completions
            .iter()
            .flatten()
            .filter(|c| c.thread.as_u32() == 0)
            .map(|c| c.latency())
            .max()
            .unwrap_or(0)
    };

    let mut fr = EngineSpec::paper(1, 4);
    fr.epoch_cycles = 512;
    fr.config.scheduler = SchedulerKind::FrFcfs;
    let fr_tail = tail(&simulate_serial(&fr, &events).unwrap());

    // Victim as an RT class: ~2% arrival rate is a mean of 40 requests
    // per 2000-cycle period; budget 96 leaves the arrival-curve
    // assumption intact with wide margin.
    let mut spec = EngineSpec::paper(1, 4);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    let mut reg = RegulationConfig::new(2_000)
        .rt_class(96, None)
        .best_effort()
        .best_effort()
        .best_effort();
    let bound = bound_for(&spec.timing, &spec.geometry, &reg, 0, 0).unwrap();
    reg.classes[0].wcet = Some(bound);
    spec.config = spec.config.with_regulation(reg);
    let regulated = simulate_serial(&spec, &events).unwrap();

    let reg_tail = tail(&regulated);
    assert_rt_within(&regulated, 1, bound).unwrap();
    assert!(
        reg_tail < fr_tail,
        "regulated victim tail {reg_tail} not below FR-FCFS tail {fr_tail}"
    );
}

/// One generated fuzz case: a regulated configuration plus an adversarial
/// fault plan, with the workload horizon to drive through it.
#[derive(Debug, Clone)]
struct RtCase {
    rt: usize,
    be: usize,
    period: u64,
    budget: u64,
    cycles: u64,
    seed: u64,
    plan: FaultPlan,
}

impl RtCase {
    fn generate(rng: &mut SimRng) -> Self {
        let rt = 1 + rng.next_below(2) as usize;
        let be = 1 + rng.next_below(3) as usize;
        let period = 1_000 + rng.next_below(3) * 1_000;
        let budget = 2 + rng.next_below(6);
        let cycles = 15_000 + rng.next_below(3) * 10_000;
        let seed = rng.next_u64();
        let mut plan = FaultPlan::new(rng.next_u64());
        if rng.chance(0.6) {
            plan = plan.with(
                FaultKind::NackStorm,
                FaultWindow::new(1_000, cycles),
                0.0004,
                50 + rng.next_below(150),
            );
        }
        if rng.chance(0.6) {
            plan = plan.with(
                FaultKind::RefreshPressure,
                FaultWindow::new(1_000, cycles),
                0.0004,
                40 + rng.next_below(120),
            );
        }
        if rng.chance(0.5) {
            plan = plan.with(
                FaultKind::RequestDrop,
                FaultWindow::new(1_000, cycles),
                0.001,
                1,
            );
        }
        RtCase {
            rt,
            be,
            period,
            budget,
            cycles,
            seed,
            plan,
        }
    }

    /// Shrinks toward a shorter horizon and a quieter plan (dropping the
    /// last fault spec first, then halving the run).
    fn shrink(&self) -> Vec<RtCase> {
        let mut out = Vec::new();
        if !self.plan.specs.is_empty() {
            let mut calmer = self.clone();
            calmer.plan.specs.pop();
            out.push(calmer);
        }
        if self.cycles > 5_000 {
            let mut shorter = self.clone();
            shorter.cycles /= 2;
            for spec in &mut shorter.plan.specs {
                spec.window.end = spec
                    .window
                    .end
                    .min(shorter.cycles)
                    .max(spec.window.start + 1);
            }
            out.push(shorter);
        }
        if self.be > 1 {
            let mut fewer = self.clone();
            fewer.be -= 1;
            out.push(fewer);
        }
        out
    }

    fn check(&self) -> Result<(), String> {
        let mut spec = regulated_spec(self.rt, self.be, self.period, self.budget, 0);
        let extra = extra_blocking_for(&self.plan, &spec.timing, self.period);
        spec = regulated_spec(self.rt, self.be, self.period, self.budget, extra);
        spec.fault_plan = Some(self.plan.clone());
        let reg = spec.config.regulation.as_ref().unwrap();
        let bound = bound_for(&spec.timing, &spec.geometry, reg, 0, extra)
            .ok_or("fuzz case produced an unschedulable config")?;
        let events =
            realtime_workload(reg, (self.rt + self.be) as u32, self.cycles, 0.7, self.seed);
        let report =
            simulate_serial(&spec, &events).map_err(|e| format!("engine rejected case: {e}"))?;
        let checked = assert_rt_within(&report, self.rt as u32, bound)?;
        if checked == 0 {
            return Err("no RT completions: vacuous case".into());
        }
        Ok(())
    }
}

/// The release gate: shrinking fuzz over regulated configurations and
/// adversarial fault plans. No regulated completion may ever exceed the
/// bound computed before the run.
#[test]
fn fuzz_no_regulated_completion_exceeds_the_bound() {
    let cases = if cfg!(debug_assertions) { 12 } else { 48 };
    CaseRunner::new("rt-wcet")
        .cases(cases)
        .run(RtCase::generate, RtCase::shrink, |case| case.check());
}

/// Regulated runs replay bit-identically across the serial, free-running
/// parallel, and cycle-by-cycle reference engines — replenish
/// boundaries feed `next_event_cycle`, so fast-forward may never skip one.
#[test]
fn regulated_mode_is_bit_identical_across_engines() {
    let mut spec = regulated_spec(2, 2, 1_500, 4, 0);
    spec.num_channels = 2;
    let reg = spec.config.regulation.as_ref().unwrap().clone();
    let events = realtime_workload(&reg, 4, 20_000, 0.6, 31);

    let serial = simulate_serial(&spec, &events).unwrap();
    assert!(
        metrics(&serial).commands_issued > 0,
        "vacuous equivalence: nothing ran"
    );
    for workers in [2, 3, 4] {
        let parallel = simulate_parallel(&spec, &events, workers).unwrap();
        assert_eq!(serial, parallel, "{workers} workers diverged");
    }

    let mut slow = spec.clone();
    slow.fast_forward = false;
    let reference = simulate_serial(&slow, &events).unwrap();
    assert_eq!(serial.cycles, reference.cycles);
    assert_eq!(serial.per_thread, reference.per_thread);
    assert_eq!(serial.completions, reference.completions);
    assert_eq!(
        serial.observations, reference.observations,
        "fast-forward skipped a replenish boundary"
    );
}

/// Kill-and-resume in regulated mode: checkpoints capture regulator and
/// partition state, and resuming reproduces the uninterrupted run bit for
/// bit — including kill points on and around replenish boundaries.
#[test]
fn regulated_kill_and_resume_is_bit_identical() {
    let mut spec = regulated_spec(1, 2, 1_000, 4, 0);
    spec.event_capacity = Some(1 << 16);
    let reg = spec.config.regulation.as_ref().unwrap().clone();
    let events = realtime_workload(&reg, 3, 8_000, 0.6, 43);
    let reference = simulate_serial(&spec, &events).unwrap();
    // 1000 and 2000 are replenish boundaries; 999/1001 straddle one.
    for kill_at in [1, 999, 1_000, 1_001, 2_000, 5_555] {
        let bytes = simulate_serial_checkpointed(&spec, &events, kill_at).unwrap();
        let resumed = resume_serial(&spec, &events, &bytes).unwrap();
        assert_eq!(resumed, reference, "kill at {kill_at} diverged");
    }
}

/// Cross-mode resume is rejected by the config fingerprint: a checkpoint
/// from a regulated run cannot resume into an unregulated controller (or
/// one with different budgets), and vice versa.
#[test]
fn cross_mode_resume_is_rejected_by_fingerprint() {
    let spec = regulated_spec(1, 2, 1_000, 4, 0);
    let reg = spec.config.regulation.as_ref().unwrap().clone();
    let events = realtime_workload(&reg, 3, 6_000, 0.6, 17);
    let bytes = simulate_serial_checkpointed(&spec, &events, 3_000).unwrap();

    // Same workload, regulation stripped: typed rejection, no panic.
    let mut plain = spec.clone();
    plain.config.regulation = None;
    assert!(matches!(
        resume_serial(&plain, &events, &bytes),
        Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
    // Same shape, different budget: also a different fingerprint.
    let other = regulated_spec(1, 2, 1_000, 5, 0);
    assert!(matches!(
        resume_serial(&other, &events, &bytes),
        Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
    // An unregulated checkpoint cannot resume into the regulated mode.
    let plain_bytes = simulate_serial_checkpointed(&plain, &events, 3_000).unwrap();
    assert!(matches!(
        resume_serial(&spec, &events, &plain_bytes),
        Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
}

/// Zero-budget real-time class: permanently demoted — the thread behaves
/// as pure best-effort, carries no bound, and the run still drains with
/// conservation intact.
#[test]
fn zero_budget_class_is_pure_best_effort_demotion() {
    let mut spec = EngineSpec::paper(1, 3);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 18);
    let reg = RegulationConfig::new(1_000)
        .rt_class(0, None)
        .best_effort()
        .best_effort();
    assert_eq!(bound_for(&spec.timing, &spec.geometry, &reg, 0, 0), None);
    spec.config = spec.config.with_regulation(reg.clone());
    let events = realtime_workload(&reg, 3, 10_000, 0.5, 3);
    let report = simulate_serial(&spec, &events).unwrap();
    assert_eq!(report.unsubmitted, 0, "zero-budget run failed to drain");
    assert_eq!(report.total_completed(), events.len());
    assert_eq!(metrics(&report).bound_violations, 0);
    // Thread 0 completed its (budget-0-suppressed) share: workload gives
    // a zero-budget RT thread nothing to submit, so its count is zero —
    // and nothing else may be attributed to it.
    assert_eq!(report.per_thread[0].reads_completed, 0);
}

/// Budget at the run horizon: with partitioning off and every thread an
/// in-budget real-time class (budget no thread can exhaust), regulation
/// changes *scheduling semantics* not at all — per-thread statistics,
/// completions, logs, and event streams match the unregulated run
/// exactly. (`stepped`/`skipped` may differ: replenish boundaries cap
/// fast-forward windows.)
#[test]
fn saturated_budgets_match_unregulated_run_semantically() {
    let mut plain = EngineSpec::paper(2, 3);
    plain.epoch_cycles = 512;
    plain.log_capacity = Some(100_000);
    plain.event_capacity = Some(1 << 20);
    let events = synthetic_workload(3, 6_000, 0.4, 59);
    let baseline = simulate_serial(&plain, &events).unwrap();

    let mut saturated = plain.clone();
    let reg = RegulationConfig::new(500)
        .rt_class(u64::MAX, None)
        .rt_class(u64::MAX, None)
        .rt_class(u64::MAX, None)
        .partitioned(false);
    saturated.config = saturated.config.with_regulation(reg);
    let report = simulate_serial(&saturated, &events).unwrap();

    assert_eq!(report.cycles, baseline.cycles);
    assert_eq!(report.per_thread, baseline.per_thread);
    assert_eq!(report.completions, baseline.completions);
    assert_eq!(report.command_logs, baseline.command_logs);
    assert_eq!(report.unsubmitted, baseline.unsubmitted);
    assert_eq!(report.rejected, baseline.rejected);
    assert_eq!(report.observations, baseline.observations);
}

/// A replenish boundary landing exactly inside a fast-forward skip window
/// must cap the skip: a long idle gap straddling the boundary replays
/// identically with fast-forward on and off, and demoted threads regain
/// their tier on time.
#[test]
fn replenish_boundary_inside_skip_window_is_not_skipped() {
    let spec = regulated_spec(1, 1, 1_000, 2, 0);
    let reg = spec.config.regulation.as_ref().unwrap().clone();
    // Burst at the start of each period, then total silence across the
    // boundary: fast-forward wants to leap the whole gap.
    let mut events = Vec::new();
    for window in 0..6u64 {
        let start = window * 1_000 + 1;
        for i in 0..2u64 {
            events.push(SubmitEvent {
                at: fqms_sim::clock::DramCycle::new(start + i),
                thread: ThreadId::new(0),
                kind: RequestKind::Read,
                phys: i * 64,
            });
        }
        events.push(SubmitEvent {
            at: fqms_sim::clock::DramCycle::new(start + 2),
            thread: ThreadId::new(1),
            kind: RequestKind::Write,
            phys: (1 << 21) + window * 64,
        });
    }
    let fast = simulate_serial(&spec, &events).unwrap();
    assert!(fast.skipped_cycles > 0, "gap never fast-forwarded: vacuous");
    let mut slow_spec = spec.clone();
    slow_spec.fast_forward = false;
    let slow = simulate_serial(&slow_spec, &events).unwrap();
    assert_eq!(fast.per_thread, slow.per_thread);
    assert_eq!(fast.completions, slow.completions);
    assert_eq!(fast.observations, slow.observations);
    // The regulator actually cycled: thread 0 consumed its budget each
    // window and was replenished, so all its requests completed.
    assert_eq!(
        fast.per_thread[0].reads_completed, 12,
        "regulated thread lost requests across replenish boundaries"
    );
    let reg_bound = bound_for(&spec.timing, &spec.geometry, &reg, 0, 0).unwrap();
    assert_rt_within(&fast, 1, reg_bound).unwrap();
}
