//! Overload-control verification suite (ISSUE 10 tentpole): the
//! admission-side throttle + shedder layer must be *inert* when armed
//! but untripped (semantically identical to a controller without the
//! layer), *bit-identical* across the serial, free-running parallel,
//! reference, and kill-and-resume execution paths when it
//! does trip, and *conservative* — every submitted request is accounted
//! for exactly once: `completed + dropped + rejected + shed ==
//! submitted`, fuzzed with shrinking over configurations × workloads ×
//! fault plans.
//!
//! Satellite coverage rides along: protected and real-time-regulated
//! threads are never throttled or shed even under a saturating flood;
//! the starvation watchdog's strict-progress semantics hold when a
//! throttled thread's port backlog is refused at admission (a thread
//! with nothing *admitted* is not starved, however long it is gated);
//! and a checkpoint taken with overload control armed refuses to resume
//! into a controller without it (and vice versa).

use fqms_memctrl::engine::{
    interference_workload, resume_serial, simulate_parallel, simulate_serial,
    simulate_serial_checkpointed, synthetic_workload, EngineReport, EngineSpec, ResumeError,
    RetryPolicy, SubmitEvent,
};
use fqms_memctrl::prelude::*;
use fqms_sim::clock::DramCycle;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use fqms_sim::rng::{CaseRunner, SimRng};
use fqms_sim::snapshot::SnapshotError;

fn metrics(report: &EngineReport) -> &MetricsSink {
    &report.observations.as_ref().expect("observed run").metrics
}

fn total_dropped(report: &EngineReport) -> u64 {
    report.per_thread.iter().map(|t| t.requests_dropped).sum()
}

fn total_throttle_nacks(report: &EngineReport) -> u64 {
    report.per_thread.iter().map(|t| t.throttle_nacks).sum()
}

/// The three-way (plus shed) accounting identity every finished run must
/// satisfy. Only meaningful once the schedule fully drained.
fn assert_conserves(report: &EngineReport, submitted: usize, ctx: &str) {
    assert_eq!(report.unsubmitted, 0, "{ctx}: schedule failed to drain");
    assert_eq!(
        report.total_completed() as u64
            + total_dropped(report)
            + report.total_rejected() as u64
            + report.total_shed() as u64,
        submitted as u64,
        "{ctx}: completed + dropped + rejected + shed != submitted"
    );
    // The per-thread ledger and the per-channel event vectors must agree
    // on how much was shed.
    let shed_stats: u64 = report.per_thread.iter().map(|t| t.requests_shed).sum();
    assert_eq!(
        shed_stats,
        report.total_shed() as u64,
        "{ctx}: shed ledgers"
    );
}

/// A saturating four-thread flood spec with both mechanisms armed and
/// guaranteed to trip: thread 0 is a protected QoS thread; margin 1.0
/// classifies every unprotected streamer a hog at the first replenish
/// boundary, and the streamers' backlog walks the shed ladder. Bounded
/// retries keep the ports draining while hogs are gated.
fn flood_spec(channels: usize, cycles: u64) -> (EngineSpec, Vec<SubmitEvent>) {
    let mut spec = EngineSpec::paper(channels, 4);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.retry = RetryPolicy::bounded(2, 1, 8);
    spec.config = spec.config.with_overload(
        OverloadConfig::new(4)
            .throttled(1_000, 4, 1.0)
            .shedding(500, 24, 8, 48, 8)
            .protect(0),
    );
    let events = interference_workload(4, cycles, 0.05, 0.5, 77);
    (spec, events)
}

/// Guards a flood run against vacuity: both mechanisms actually fired.
fn assert_tripped(report: &EngineReport, ctx: &str) {
    assert!(
        total_throttle_nacks(report) > 0,
        "{ctx}: throttle never fired — vacuous overload run"
    );
    assert!(
        report.total_shed() > 0,
        "{ctx}: shedder never fired — vacuous overload run"
    );
    assert!(
        metrics(report).saturation_entries > 0,
        "{ctx}: detector never escalated"
    );
}

/// Armed but untripped overload control changes scheduling semantics
/// not at all: with an astronomically large hog margin and unreachable
/// shed thresholds, per-thread statistics, completions, command logs,
/// and event streams match a controller without the layer exactly.
/// (`stepped`/`skipped` may differ: the boundary clocks cap
/// fast-forward windows.)
#[test]
fn untripped_overload_matches_plain_controller_semantically() {
    let mut plain = EngineSpec::paper(2, 3);
    plain.epoch_cycles = 512;
    plain.log_capacity = Some(100_000);
    plain.event_capacity = Some(1 << 20);
    let events = synthetic_workload(3, 6_000, 0.4, 59);
    let baseline = simulate_serial(&plain, &events).unwrap();

    let mut armed = plain.clone();
    armed.config =
        armed
            .config
            .with_overload(OverloadConfig::new(3).throttled(1_000, 0, 1e9).shedding(
                500,
                100_000,
                50_000,
                u64::MAX,
                1,
            ));
    let report = simulate_serial(&armed, &events).unwrap();

    assert_eq!(report.cycles, baseline.cycles);
    assert_eq!(report.per_thread, baseline.per_thread);
    assert_eq!(report.completions, baseline.completions);
    assert_eq!(report.command_logs, baseline.command_logs);
    assert_eq!(report.unsubmitted, baseline.unsubmitted);
    assert_eq!(report.rejected, baseline.rejected);
    assert!(
        report.shed.iter().all(Vec::is_empty),
        "untripped layer shed"
    );
    assert_eq!(report.observations, baseline.observations);
}

/// Tripped overload control replays bit-identically across the serial,
/// free-running parallel, and cycle-by-cycle reference
/// engines — both boundary clocks feed `next_event_cycle`, so
/// fast-forward may never skip a reclassification or a detector window.
#[test]
fn overload_mode_is_bit_identical_across_engines() {
    let (mut spec, events) = flood_spec(2, 15_000);
    spec.max_cycles = 60_000;
    let serial = simulate_serial(&spec, &events).unwrap();
    assert_tripped(&serial, "cross-engine");
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
    assert_eq!(serial.rejected, reference.rejected);
    assert_eq!(serial.shed, reference.shed);
    assert_eq!(
        serial.observations, reference.observations,
        "fast-forward skipped an overload boundary"
    );
}

/// Kill-and-resume with overload control tripping: checkpoints capture
/// the hog set, token buckets, detector level, and window NACK counter,
/// and resuming reproduces the uninterrupted run bit for bit — with
/// kill points on and around both boundary clocks (replenish period
/// 1000, detector window 500).
#[test]
fn overload_kill_and_resume_is_bit_identical() {
    let (mut spec, events) = flood_spec(1, 8_000);
    spec.event_capacity = Some(1 << 16);
    spec.max_cycles = 40_000;
    let reference = simulate_serial(&spec, &events).unwrap();
    assert_tripped(&reference, "kill-and-resume");
    for kill_at in [1, 499, 500, 501, 999, 1_000, 1_001, 2_500, 7_777] {
        let bytes = simulate_serial_checkpointed(&spec, &events, kill_at).unwrap();
        let resumed = resume_serial(&spec, &events, &bytes).unwrap();
        assert_eq!(resumed, reference, "kill at {kill_at} diverged");
    }
}

/// Cross-mode resume is rejected by the config fingerprint: a checkpoint
/// from an overload-controlled run cannot resume into a plain controller
/// (or one with different knobs), and vice versa.
#[test]
fn cross_mode_resume_is_rejected_by_fingerprint() {
    let (mut spec, events) = flood_spec(1, 6_000);
    spec.max_cycles = 40_000;
    let bytes = simulate_serial_checkpointed(&spec, &events, 3_000).unwrap();

    let mut plain = spec.clone();
    plain.config.overload = None;
    assert!(matches!(
        resume_serial(&plain, &events, &bytes),
        Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
    // Same shape, different token budget: also a different fingerprint.
    let mut other = spec.clone();
    other.config.overload = Some(
        OverloadConfig::new(4)
            .throttled(1_000, 5, 1.0)
            .shedding(500, 24, 8, 48, 8)
            .protect(0),
    );
    assert!(matches!(
        resume_serial(&other, &events, &bytes),
        Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
    // A plain checkpoint cannot resume into the overload-controlled mode.
    let plain_bytes = simulate_serial_checkpointed(&plain, &events, 3_000).unwrap();
    assert!(matches!(
        resume_serial(&spec, &events, &plain_bytes),
        Err(ResumeError::Snapshot(SnapshotError::ConfigMismatch { .. }))
    ));
}

/// Satellite 3a: a real-time regulated thread is implicitly protected —
/// under a flood that saturates the shedder and gates every streamer,
/// the premium thread is never throttled, never shed, and completes
/// every request it submitted.
#[test]
fn regulated_premium_thread_is_never_throttled_or_shed() {
    let mut spec = EngineSpec::paper(1, 4);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.max_cycles = 200_000;
    // Zero retries: gated streamer heads are abandoned immediately, so
    // head-of-line blocking never starves the premium thread's port slot
    // and the schedule fully drains inside the horizon.
    spec.retry = RetryPolicy::bounded(0, 1, 1);
    let reg = RegulationConfig::new(2_000)
        .rt_class(1 << 40, None) // in-budget forever: always premium
        .best_effort()
        .best_effort()
        .best_effort();
    spec.config = spec.config.with_regulation(reg).with_overload(
        OverloadConfig::new(4)
            .throttled(1_000, 0, 1.0)
            .shedding(500, 24, 8, 48, 8),
    );
    let events = interference_workload(4, 12_000, 0.05, 0.5, 101);
    let report = simulate_serial(&spec, &events).unwrap();

    assert_tripped(&report, "premium-protection");
    assert_conserves(&report, events.len(), "premium-protection");
    let premium = &report.per_thread[0];
    assert_eq!(premium.throttle_nacks, 0, "premium thread throttled");
    assert_eq!(premium.requests_shed, 0, "premium thread shed");
    assert!(
        report
            .rejected
            .iter()
            .flatten()
            .all(|e| e.thread.as_u32() != 0),
        "a premium request was abandoned at the port"
    );
    let submitted_0 = events.iter().filter(|e| e.thread.as_u32() == 0).count();
    let completed_0 = report
        .completions
        .iter()
        .flatten()
        .filter(|c| c.thread.as_u32() == 0)
        .count();
    assert!(submitted_0 > 100, "vacuous premium workload");
    assert_eq!(
        completed_0, submitted_0,
        "premium thread lost requests under the flood"
    );
    // The refusals all landed on the best-effort streamers.
    for t in 1..4 {
        assert!(
            report.per_thread[t].throttle_nacks > 0,
            "streamer {t} was never gated: vacuous protection test"
        );
    }
}

/// Satellite 3b: the starvation watchdog's strict-progress semantics
/// under throttle NACKs. A gated hog whose *admitted* backlog has
/// drained holds no transaction entries, so however long its port is
/// refused at admission it must never be counted starved — starvation
/// means admitted-but-unserved, not refused-at-the-door. Retry
/// exhaustion on throttle NACKs surfaces as `rejected` (the
/// `Event::Rejected` path), honouring `retry_after` in the backoff.
#[test]
fn watchdog_never_counts_a_gated_thread_starved() {
    let mut spec = EngineSpec::paper(1, 2);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.max_cycles = 300_000;
    spec.config.starvation_threshold = Some(400);
    // One retry per head: a gated head waits out `retry_after` once (the
    // backoff must honour it), is refused again at the boundary, and is
    // abandoned — exercising rejection while keeping the port draining.
    spec.retry = RetryPolicy::bounded(1, 1, 4);
    spec.config = spec.config.with_overload(
        // Margin 1.0 + zero tokens: thread 1 is gated outright from the
        // first replenish boundary (cycle 600) onward.
        OverloadConfig::new(2).throttled(600, 0, 1.0).protect(0),
    );
    // Thread 1: a burst admitted before the boundary (it must drain and
    // release every entry), then a trickle the throttle refuses for the
    // rest of the run — thousands of cycles with port traffic pending
    // but nothing admitted, exactly where a naive watchdog would fire.
    // Thread 0: light protected reads throughout.
    let mut events = Vec::new();
    for i in 0..12u64 {
        events.push(SubmitEvent {
            at: DramCycle::new(10 + i),
            thread: ThreadId::new(1),
            kind: RequestKind::Read,
            phys: (1 << 20) + i * 64,
        });
    }
    for c in (40..9_000u64).step_by(20) {
        events.push(SubmitEvent {
            at: DramCycle::new(c),
            thread: ThreadId::new(0),
            kind: RequestKind::Read,
            phys: (c % 1024) * 64,
        });
        if c % 100 == 0 {
            events.push(SubmitEvent {
                at: DramCycle::new(c),
                thread: ThreadId::new(1),
                kind: RequestKind::Read,
                phys: (1 << 20) + c * 64,
            });
        }
    }
    let report = simulate_serial(&spec, &events).unwrap();

    assert_conserves(&report, events.len(), "watchdog-gating");
    let gated = &report.per_thread[1];
    assert!(gated.throttle_nacks > 0, "hog never gated: vacuous test");
    assert!(
        report.total_rejected() > 0,
        "retries never exhausted on throttle NACKs: vacuous test"
    );
    assert_eq!(
        gated.starvations, 0,
        "watchdog counted a thread with no admitted work as starved"
    );
    assert_eq!(report.per_thread[0].starvations, 0, "protected starved");
    // Throttle refusals are NACKs; the ledger must nest.
    assert!(gated.throttle_nacks <= gated.nacks, "ledger inversion");
}

/// One generated fuzz case: an overload configuration (throttle and/or
/// shedder, sometimes protecting thread 0), a workload, a retry budget,
/// and sometimes an adversarial fault plan layered on top.
#[derive(Debug, Clone)]
struct OvCase {
    threads: usize,
    channels: usize,
    cycles: u64,
    intensity: f64,
    seed: u64,
    /// `(period, tokens, margin)`.
    throttle: Option<(u64, u64, f64)>,
    /// `(window, occ_enter, occ_exit, nack_enter, nack_exit)`.
    shed: Option<(u64, usize, usize, u64, u64)>,
    protect0: bool,
    max_retries: u32,
    plan: Option<FaultPlan>,
}

impl OvCase {
    fn generate(rng: &mut SimRng) -> Self {
        let threads = 2 + rng.next_below(3) as usize;
        let channels = 1 + rng.next_below(2) as usize;
        let cycles = 3_000 + rng.next_below(3) * 2_000;
        let intensity = 0.2 + 0.1 * rng.next_below(3) as f64;
        let seed = rng.next_u64();
        let mut throttle = rng.chance(0.8).then(|| {
            (
                300 + rng.next_below(5) * 150,
                rng.next_below(6),
                1.0 + 0.25 * rng.next_below(5) as f64,
            )
        });
        let shed = rng.chance(0.7).then(|| {
            let occ_enter = 6 + rng.next_below(12) as usize;
            let nack_enter = 8 + rng.next_below(40);
            (
                200 + rng.next_below(4) * 100,
                occ_enter,
                occ_enter / 2,
                nack_enter,
                nack_enter / 4,
            )
        });
        if throttle.is_none() && shed.is_none() {
            // The config must arm at least one mechanism to validate.
            throttle = Some((600, 2, 1.0));
        }
        let plan = rng.chance(0.4).then(|| {
            let mut plan = FaultPlan::new(rng.next_u64());
            if rng.chance(0.7) {
                plan = plan.with(
                    FaultKind::NackStorm,
                    FaultWindow::new(500, cycles),
                    0.002,
                    100 + rng.next_below(200),
                );
            }
            if rng.chance(0.5) {
                plan = plan.with(
                    FaultKind::RequestDrop,
                    FaultWindow::new(500, cycles),
                    0.002,
                    1,
                );
            }
            plan
        });
        OvCase {
            threads,
            channels,
            cycles,
            intensity,
            seed,
            throttle,
            shed,
            protect0: rng.chance(0.5),
            max_retries: rng.next_below(2) as u32,
            plan,
        }
    }

    /// Shrinks toward a shorter run, a quieter plan, and a simpler
    /// control layer — always leaving at least one mechanism armed.
    fn shrink(&self) -> Vec<OvCase> {
        let mut out = Vec::new();
        if self.plan.is_some() {
            let mut calm = self.clone();
            calm.plan = None;
            out.push(calm);
        }
        if self.cycles > 1_500 {
            let mut shorter = self.clone();
            shorter.cycles /= 2;
            if let Some(plan) = &mut shorter.plan {
                for spec in &mut plan.specs {
                    spec.window.end = spec
                        .window
                        .end
                        .min(shorter.cycles)
                        .max(spec.window.start + 1);
                }
            }
            out.push(shorter);
        }
        if self.shed.is_some() && self.throttle.is_some() {
            let mut no_shed = self.clone();
            no_shed.shed = None;
            out.push(no_shed);
            let mut no_throttle = self.clone();
            no_throttle.throttle = None;
            out.push(no_throttle);
        }
        if self.threads > 2 {
            let mut fewer = self.clone();
            fewer.threads -= 1;
            out.push(fewer);
        }
        out
    }

    fn check(&self) -> Result<(), String> {
        let mut spec = EngineSpec::paper(self.channels, self.threads);
        spec.epoch_cycles = 512;
        spec.event_capacity = Some(1 << 20);
        // Generous horizon: with one retry per head, a fully-gated port
        // drains one head per throttle period — worst case a few million
        // (mostly fast-forwarded) cycles.
        spec.max_cycles = 20_000_000;
        spec.retry = RetryPolicy::bounded(self.max_retries, 1, 4);
        spec.fault_plan = self.plan.clone();
        let mut ov = OverloadConfig::new(self.threads);
        if let Some((period, tokens, margin)) = self.throttle {
            ov = ov.throttled(period, tokens, margin);
        }
        if let Some((window, oe, ox, ne, nx)) = self.shed {
            ov = ov.shedding(window, oe, ox, ne, nx);
        }
        if self.protect0 {
            ov = ov.protect(0);
        }
        spec.config = spec.config.with_overload(ov);
        let events =
            synthetic_workload(self.threads as u32, self.cycles, self.intensity, self.seed);
        let report =
            simulate_serial(&spec, &events).map_err(|e| format!("engine rejected case: {e}"))?;

        if report.unsubmitted != 0 {
            return Err(format!("{} events never drained", report.unsubmitted));
        }
        let balance = report.total_completed() as u64
            + total_dropped(&report)
            + report.total_rejected() as u64
            + report.total_shed() as u64;
        if balance != events.len() as u64 {
            return Err(format!(
                "conservation broke: {balance} accounted, {} submitted",
                events.len()
            ));
        }
        let shed_stats: u64 = report.per_thread.iter().map(|t| t.requests_shed).sum();
        if shed_stats != report.total_shed() as u64 {
            return Err(format!(
                "shed ledgers disagree: stats {shed_stats}, report {}",
                report.total_shed()
            ));
        }
        for (t, ts) in report.per_thread.iter().enumerate() {
            if ts.throttle_nacks > ts.nacks {
                return Err(format!(
                    "thread {t}: throttle_nacks {} exceeds nacks {}",
                    ts.throttle_nacks, ts.nacks
                ));
            }
        }
        if self.protect0 {
            let p = &report.per_thread[0];
            if p.throttle_nacks != 0 || p.requests_shed != 0 {
                return Err(format!(
                    "protected thread gated: {} throttles, {} shed",
                    p.throttle_nacks, p.requests_shed
                ));
            }
        }
        // Each per-channel detector's level equals its entries minus its
        // exits, so the merged counters can differ by at most two ladder
        // rungs per channel.
        let m = metrics(&report);
        if m.saturation_exits > m.saturation_entries
            || m.saturation_entries - m.saturation_exits > 2 * self.channels as u64
        {
            return Err(format!(
                "detector transitions unbalanced: {} entries, {} exits",
                m.saturation_entries, m.saturation_exits
            ));
        }
        Ok(())
    }
}

/// The release gate: shrinking fuzz over overload configurations,
/// workloads, retry budgets, and fault plans. Conservation and the
/// protection invariant must hold on every drained run.
#[test]
fn fuzz_conservation_holds_under_overload_control() {
    let cases = if cfg!(debug_assertions) { 10 } else { 40 };
    CaseRunner::new("overload")
        .cases(cases)
        .run(OvCase::generate, OvCase::shrink, |case| case.check());
}

/// The flood spec itself conserves: with bounded retries every event
/// either completes, is rejected at the port, or is shed — nothing
/// leaks, even with both mechanisms cycling through their ladders.
#[test]
fn flood_run_conserves_and_drains() {
    let (mut spec, events) = flood_spec(2, 10_000);
    spec.max_cycles = 200_000;
    // Zero retries: gated heads abandon immediately instead of waiting
    // out `retry_after`, so the flood drains inside the horizon.
    spec.retry = RetryPolicy::bounded(0, 1, 1);
    let report = simulate_serial(&spec, &events).unwrap();
    assert_tripped(&report, "flood-conservation");
    assert_conserves(&report, events.len(), "flood-conservation");
    // Shed is terminal: shed requests never reappear as completions.
    let shed_total = report.total_shed();
    assert!(
        report.total_completed() + shed_total <= events.len(),
        "shed requests double-counted as completions"
    );
}
