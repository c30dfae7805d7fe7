//! Free-running executor differential suite (release gate): the
//! work-stealing free-run engine must be bit-identical to the serial
//! engine across all six schedulers × fault plans, and its checkpoint/resume paths must produce
//! byte-identical snapshots and bit-identical resumed runs.
//!
//! This extends the PR 1 `parallel_equivalence` and PR 5
//! `checkpoint_differential` machinery to the PR 8 executor: the former
//! pinned down *what* a parallel run must equal, this suite pins down
//! that every executor (serial, free-run) and every
//! checkpoint path (serial, parallel) is interchangeable.

use fqms_memctrl::engine::{
    resume_parallel, resume_serial, simulate_parallel, simulate_parallel_checkpointed,
    simulate_serial, simulate_serial_checkpointed, synthetic_workload, EngineSpec, RetryPolicy,
};
use fqms_memctrl::policy::SchedulerKind;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};

/// Every fault class in one plan, windowed over the active part of the
/// run so steals and drains land both inside and outside fault episodes.
fn faults(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            FaultKind::NackStorm,
            FaultWindow::new(300, 5_000),
            0.002,
            90,
        )
        .with(
            FaultKind::BankStall,
            FaultWindow::new(300, 5_000),
            0.002,
            110,
        )
        .with(
            FaultKind::RefreshPressure,
            FaultWindow::new(300, 5_000),
            0.001,
            70,
        )
        .with(
            FaultKind::RequestDrop,
            FaultWindow::new(300, 5_000),
            0.003,
            1,
        )
}

fn spec_for(scheduler: SchedulerKind, plan: Option<FaultPlan>) -> EngineSpec {
    let mut spec = EngineSpec::paper(4, 4);
    spec.config.scheduler = scheduler;
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.fault_plan = plan.clone();
    if plan.is_some() {
        spec.retry = RetryPolicy::bounded(6, 2, 64);
    }
    spec
}

#[test]
fn every_executor_agrees_across_schedulers_and_faults() {
    // Six schedulers × {clean, faulted} × three worker counts: serial and
    // free-run must produce the same report down to event streams and
    // diagnostics.
    let events = synthetic_workload(4, 4_000, 0.5, 808);
    for scheduler in SchedulerKind::all() {
        for plan in [None, Some(faults(11))] {
            let spec = spec_for(scheduler, plan.clone());
            let ctx = format!("{scheduler:?}/faults={}", plan.is_some());
            let serial = simulate_serial(&spec, &events).unwrap();
            for workers in [2usize, 3, 8] {
                let free = simulate_parallel(&spec, &events, workers).unwrap();
                assert_eq!(
                    serial, free,
                    "{ctx}: free-run diverged at {workers} workers"
                );
            }
        }
    }
}

#[test]
fn parallel_checkpoints_are_byte_identical_to_serial() {
    // The parallel checkpoint path walks shards concurrently but must
    // assemble the exact bytes the serial path writes: same sections,
    // same order, same fingerprint.
    let events = synthetic_workload(4, 4_000, 0.4, 2006);
    for scheduler in [
        SchedulerKind::FrFcfs,
        SchedulerKind::FqVftf,
        SchedulerKind::Bliss,
    ] {
        for plan in [None, Some(faults(11))] {
            let spec = spec_for(scheduler, plan.clone());
            let ctx = format!("{scheduler:?}/faults={}", plan.is_some());
            for kill_at in [97u64, 1_500, 2_048, 4_099] {
                let serial_bytes = simulate_serial_checkpointed(&spec, &events, kill_at)
                    .unwrap_or_else(|e| panic!("{ctx}: serial checkpoint at {kill_at}: {e}"));
                for workers in [2usize, 5] {
                    let par_bytes =
                        simulate_parallel_checkpointed(&spec, &events, kill_at, workers)
                            .unwrap_or_else(|e| {
                                panic!("{ctx}: parallel checkpoint at {kill_at}: {e}")
                            });
                    assert_eq!(
                        serial_bytes, par_bytes,
                        "{ctx}: snapshot bytes diverged at kill {kill_at}, {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn kill_and_parallel_resume_is_invisible() {
    // Kill-and-resume through the parallel paths (in both directions:
    // parallel checkpoint → serial resume, serial checkpoint → parallel
    // resume) must reproduce the uninterrupted serial run bit for bit.
    let events = synthetic_workload(4, 4_000, 0.4, 313);
    for scheduler in [SchedulerKind::FqVftf, SchedulerKind::SdVftf] {
        for plan in [None, Some(faults(7))] {
            let spec = spec_for(scheduler, plan.clone());
            let ctx = format!("{scheduler:?}/faults={}", plan.is_some());
            let reference = simulate_serial(&spec, &events).unwrap();
            for kill_at in [97u64, 1_500, 2_048, reference.cycles - 311] {
                let bytes = simulate_parallel_checkpointed(&spec, &events, kill_at, 3)
                    .unwrap_or_else(|e| panic!("{ctx}: checkpoint at {kill_at}: {e}"));
                let resumed_serial = resume_serial(&spec, &events, &bytes)
                    .unwrap_or_else(|e| panic!("{ctx}: serial resume from {kill_at}: {e}"));
                assert_eq!(
                    reference, resumed_serial,
                    "{ctx}: parallel checkpoint broke serial resume at {kill_at}"
                );
                for workers in [2usize, 6] {
                    let resumed_par = resume_parallel(&spec, &events, &bytes, workers)
                        .unwrap_or_else(|e| panic!("{ctx}: parallel resume from {kill_at}: {e}"));
                    assert_eq!(
                        reference, resumed_par,
                        "{ctx}: parallel resume diverged at kill {kill_at}, {workers} workers"
                    );
                }
            }
        }
    }
}

#[test]
fn checkpoint_after_drain_fails_identically() {
    // A kill cycle past the run's natural drain must error — with the
    // same message — on both checkpoint paths, never write bytes.
    let spec = spec_for(SchedulerKind::FrFcfs, None);
    let events = synthetic_workload(4, 1_000, 0.4, 5);
    let reference = simulate_serial(&spec, &events).unwrap();
    let kill_at = reference.cycles + 10_000;
    let serial_err = simulate_serial_checkpointed(&spec, &events, kill_at)
        .expect_err("serial checkpoint past drain succeeded");
    let par_err = simulate_parallel_checkpointed(&spec, &events, kill_at, 3)
        .expect_err("parallel checkpoint past drain succeeded");
    assert_eq!(serial_err, par_err, "drain-error messages diverged");
}
