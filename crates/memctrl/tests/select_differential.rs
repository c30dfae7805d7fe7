//! Selection golden suite (release gate). The bank scheduler selects
//! through one O(log n) index that carries the priority tier
//! ([`fqms_memctrl::select`]). Until it did, the controller also shipped
//! a linear reference scan: tier-dependent runs (BLISS, regulation)
//! selected with it, and this suite asserted the two scan kinds
//! equal on every other configuration. This suite pins FNV digests of
//! full [`EngineReport`]s computed on that last two-path revision — so
//! the one remaining path must reproduce the linear scan's completions,
//! statistics, command logs and event streams bit for bit. The
//! `*_agree_across_scan_kinds` tests keep their configurations and
//! names; their digests are the output both scan kinds agreed on.
//!
//! The suite also covers the hierarchical share tree end to end: a
//! two-level tenant → thread allocation must kill-and-resume bit
//! identically, and corrupted checkpoint bytes must fail with a typed
//! `SnapshotError`, never panic or resume silently wrong.

use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::engine::{
    adversarial_workload, interference_workload, realtime_workload, resume_serial, simulate_serial,
    simulate_serial_checkpointed, synthetic_workload, EngineReport, EngineSpec, ResumeError,
    RetryPolicy, SubmitEvent,
};
use fqms_memctrl::policy::{RefreshPolicy, RowPolicy, VftBinding};
use fqms_memctrl::prelude::*;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use fqms_sim::rng::{CaseRunner, SimRng};
use fqms_sim::snapshot::Fingerprint;

fn spec_with(kind: SchedulerKind, channels: usize, threads: usize) -> EngineSpec {
    let mut spec = EngineSpec::paper(channels, threads);
    spec.config.scheduler = kind;
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec
}

/// Every fault class in one plan, so drops, NACK storms, bank stalls and
/// refresh pressure all cross the golden runs.
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

/// FNV digest of a report's full `Debug` rendering: completions,
/// per-thread statistics, command logs, observed event streams (so the
/// `VftBound` order too) and the stepped/skipped diagnostics.
fn digest(report: &EngineReport) -> u64 {
    Fingerprint::new("fqms-golden")
        .push_str(&format!("{report:?}"))
        .finish()
}

/// A regulated single-channel spec: two real-time threads with budget 6
/// per 2000-cycle period against two best-effort threads.
fn regulated_spec(partition: bool) -> EngineSpec {
    let mut spec = spec_with(SchedulerKind::FqVftf, 1, 4);
    spec.log_capacity = Some(1 << 16);
    spec.config = spec.config.with_regulation(
        RegulationConfig::new(2_000)
            .rt_class(6, None)
            .rt_class(6, None)
            .best_effort()
            .best_effort()
            .partitioned(partition),
    );
    spec
}

/// The golden runs: every configuration whose selection depends on the
/// priority tier (BLISS blacklisting, regulated budgets with and without
/// bank partitioning, regulation under overload control), plus every
/// scheduler on a faulted synthetic mix.
fn golden_runs() -> Vec<Run> {
    let mut runs = Vec::new();
    let adversarial = adversarial_workload(&Geometry::paper(), 4, 20_000, 2006);
    for plan in [None, Some(faults(11))] {
        let mut spec = spec_with(SchedulerKind::Bliss, 1, 4);
        spec.log_capacity = Some(1 << 16);
        spec.fault_plan = plan.clone();
        if plan.is_some() {
            spec.retry = RetryPolicy::bounded(6, 2, 64);
        }
        let label = format!("bliss/adversarial/faults={}", plan.is_some());
        runs.push((label, spec, adversarial.clone()));
    }
    let spec = regulated_spec(true);
    let rt_events = realtime_workload(
        spec.config.regulation.as_ref().unwrap(),
        4,
        30_000,
        0.7,
        2006,
    );
    runs.push(("regulated/realtime".into(), spec.clone(), rt_events.clone()));
    let mut overloaded = spec;
    overloaded.retry = RetryPolicy::bounded(2, 1, 8);
    overloaded.config = overloaded.config.with_overload(
        OverloadConfig::new(4)
            .throttled(1_000, 4, 1.0)
            .shedding(500, 24, 8, 48, 8),
    );
    runs.push(("regulated+overload/realtime".into(), overloaded, rt_events));
    // Without partitioning, real-time and best-effort requests share
    // banks, so the tier decides within one bank queue, under the FQ
    // lock, and across flips of queued entries.
    let spec = regulated_spec(false);
    let flood = synthetic_workload(4, 12_000, 0.3, 41);
    runs.push(("regulated-shared-banks/synthetic".into(), spec, flood));
    let events = synthetic_workload(4, 6_000, 0.3, 99);
    for kind in SchedulerKind::all() {
        let mut spec = spec_with(kind, 2, 4);
        spec.fault_plan = Some(faults(5));
        spec.retry = RetryPolicy::bounded(6, 2, 64);
        runs.push((format!("{kind}/synthetic/faults"), spec, events.clone()));
    }
    runs
}

/// One pinned run: label, spec, schedule.
type Run = (String, EngineSpec, Vec<SubmitEvent>);

/// Runs every entry of `runs` and compares its report digest with the
/// pinned value at the same position, reporting every mismatch.
fn assert_golden(runs: Vec<Run>, golden: &[u64]) {
    let mut digests = Vec::new();
    for (label, spec, events) in &runs {
        let report = simulate_serial(spec, events).unwrap();
        assert_eq!(report.unsubmitted, 0, "{label}: schedule failed to drain");
        assert!(report.total_completed() > 0, "{label}: nothing completed");
        let got = digest(&report);
        eprintln!("{label}\t{got:#018x}");
        digests.push((label.clone(), got));
    }
    assert_eq!(runs.len(), golden.len(), "one pinned digest per run");
    let diffs: Vec<String> = digests
        .into_iter()
        .zip(golden)
        .filter(|((_, got), want)| got != *want)
        .map(|((label, got), want)| format!("{label}: digest {got:#018x} != golden {want:#018x}"))
        .collect();
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

/// Digests of [`golden_runs`], in order. Any selection difference of the
/// production index — winner, tie-break, reported tier or `VftBound`
/// order — changes a digest.
const TIERED: [u64; 11] = [
    0xaf14_91e5_83a2_2fd3, // bliss/adversarial/faults=false
    0x5d98_98d1_5c24_e10f, // bliss/adversarial/faults=true
    0x4931_0b65_729d_5e84, // regulated/realtime
    0xb4c7_6b67_e1bf_911d, // regulated+overload/realtime
    0x4fff_40b1_354c_0e7b, // regulated-shared-banks/synthetic
    0x7812_1282_ca6b_d554, // FCFS/synthetic/faults
    0xb66b_707b_501b_3e9f, // FR-FCFS/synthetic/faults
    0x70e2_6b2c_f50a_a16b, // FR-VFTF/synthetic/faults
    0x9ba6_2f64_43a8_5072, // FQ-VFTF/synthetic/faults
    0xd98e_684a_791b_3b18, // BLISS/synthetic/faults
    0x205e_fd21_dec5_f494, // SD-VFTF/synthetic/faults
];

#[test]
fn tiered_selection_matches_linear_scan_golden_digests() {
    assert_golden(golden_runs(), &TIERED);
}

#[test]
fn bliss_golden_runs_exercise_the_blacklist() {
    // Vacuity guard for the BLISS pins: with blacklisting disabled the
    // same run must differ, so the tier actually decided selections.
    for (label, spec, events) in golden_runs().into_iter().take(2) {
        let mut never = spec.clone();
        never.config.bliss_threshold = u32::MAX;
        let with = simulate_serial(&spec, &events).unwrap();
        let without = simulate_serial(&never, &events).unwrap();
        assert_ne!(
            with.completions, without.completions,
            "{label}: blacklist never changed a selection"
        );
    }
}

/// A two-level share tree equivalent to the paper's flat equal-share
/// setup on 4 threads: two tenants at 0.5, two equally-weighted threads
/// each.
fn two_tenant_spec(kind: SchedulerKind) -> EngineSpec {
    let mut spec = spec_with(kind, 2, 4);
    let tree = ShareTree::symmetric(2, 2);
    spec.config.shares = tree.effective_shares();
    spec.config.share_tree = Some(tree);
    spec
}

const ALL_SCHEDULERS: [u64; 6] = [
    0x8876_d897_f7f7_6c44, // FCFS
    0xabf8_faa3_bbbe_c438, // FR-FCFS
    0xaa51_fe47_2781_e0e4, // FR-VFTF
    0xf211_ff8e_8526_2e56, // FQ-VFTF
    0x0e4a_3607_9a08_ca15, // BLISS
    0xe28f_4038_8290_20c5, // SD-VFTF
];

#[test]
fn all_schedulers_agree_across_scan_kinds() {
    let events = synthetic_workload(4, 4_000, 0.3, 2006);
    let runs = SchedulerKind::all()
        .into_iter()
        .map(|kind| {
            (
                kind.name().to_string(),
                spec_with(kind, 2, 4),
                events.clone(),
            )
        })
        .collect();
    assert_golden(runs, &ALL_SCHEDULERS);
}

const REFRESH_AND_FAULTS: [u64; 16] = [
    0xa259_e253_ca60_af14, // FR-FCFS/Strict/faults=false
    0x5804_c240_a3ba_2e06, // FQ-VFTF/Strict/faults=false
    0x707f_e738_c0bd_6965, // BLISS/Strict/faults=false
    0x8054_6619_de38_77e5, // SD-VFTF/Strict/faults=false
    0x77a0_62a1_4046_23ec, // FR-FCFS/Strict/faults=true
    0xab91_002a_9b81_8fc4, // FQ-VFTF/Strict/faults=true
    0x87e0_4bf7_3929_dd3e, // BLISS/Strict/faults=true
    0x5184_6ec5_5209_3aa4, // SD-VFTF/Strict/faults=true
    0xff7b_5780_38e8_613e, // FR-FCFS/Deferred { max_postponed: 4 }/faults=false
    0xd6d7_e589_39a6_2dba, // FQ-VFTF/Deferred { max_postponed: 4 }/faults=false
    0xe492_cab5_0a5c_dc8c, // BLISS/Deferred { max_postponed: 4 }/faults=false
    0xaf9c_f91c_e76c_fcb0, // SD-VFTF/Deferred { max_postponed: 4 }/faults=false
    0xa58e_3bee_ae52_b853, // FR-FCFS/Deferred { max_postponed: 4 }/faults=true
    0x622e_1742_a447_aa62, // FQ-VFTF/Deferred { max_postponed: 4 }/faults=true
    0x43c0_4102_e266_cecd, // BLISS/Deferred { max_postponed: 4 }/faults=true
    0x13f7_c15b_2e41_c9e9, // SD-VFTF/Deferred { max_postponed: 4 }/faults=true
];

#[test]
fn refresh_and_fault_matrix_agrees_across_scan_kinds() {
    let events = synthetic_workload(4, 6_000, 0.25, 99);
    let mut runs = Vec::new();
    for refresh in [
        RefreshPolicy::Strict,
        RefreshPolicy::Deferred { max_postponed: 4 },
    ] {
        for plan in [None, Some(faults(11))] {
            for kind in [
                SchedulerKind::FrFcfs,
                SchedulerKind::FqVftf,
                SchedulerKind::Bliss,
                SchedulerKind::SdVftf,
            ] {
                let mut spec = spec_with(kind, 2, 4);
                spec.timing = TimingParams::ddr2_667();
                spec.config.refresh_policy = refresh;
                spec.fault_plan = plan.clone();
                if plan.is_some() {
                    spec.retry = RetryPolicy::bounded(6, 2, 64);
                }
                let label = format!("{kind}/{refresh:?}/faults={}", plan.is_some());
                runs.push((label, spec, events.clone()));
            }
        }
    }
    assert_golden(runs, &REFRESH_AND_FAULTS);
}

const BINDING_AND_ROW_POLICY: [u64; 4] = [
    0x3aae_c894_1d75_f615, // Open/FirstReady
    0xb073_6c2a_54fa_c88e, // Closed/AtArrival
    0x58f6_0e5e_0a95_e601, // Open/AtArrival
    0xe015_6dda_318e_653f, // Closed/FirstReady
];

#[test]
fn binding_and_row_policy_variants_agree_across_scan_kinds() {
    // At-arrival binding keys every entry at push (no bind pre-pass);
    // first-ready binding exercises the admission-ordered lazy pass.
    // Closed-row policy changes which tournament queries run per cycle.
    let events = synthetic_workload(4, 4_000, 0.2, 7);
    let mut runs = Vec::new();
    for (row, binding) in [
        (RowPolicy::Open, VftBinding::FirstReady),
        (RowPolicy::Closed, VftBinding::AtArrival),
        (RowPolicy::Open, VftBinding::AtArrival),
        (RowPolicy::Closed, VftBinding::FirstReady),
    ] {
        let mut spec = spec_with(SchedulerKind::FqVftf, 2, 4);
        spec.config.row_policy = row;
        spec.config.vft_binding = binding;
        runs.push((format!("{row:?}/{binding:?}"), spec, events.clone()));
    }
    assert_golden(runs, &BINDING_AND_ROW_POLICY);
}

const ADVERSARIAL_LOCK: [u64; 4] = [
    0x759f_392b_1b5a_2f8d, // adversarial/FR-FCFS
    0xe4de_ad0b_3e6a_5fb4, // adversarial/FR-VFTF
    0x8d72_c058_b10d_1345, // adversarial/FQ-VFTF
    0x577f_e976_7c94_dba6, // adversarial/SD-VFTF
];

#[test]
fn adversarial_inversion_lock_agrees_across_scan_kinds() {
    // The starvation-adversarial mix drives the priority-inversion lock
    // (locked-mode selection takes the minimum across both tiers, the
    // trickiest index path) and the watchdog.
    let events = adversarial_workload(&Geometry::paper(), 3, 20_000, 2006);
    let runs = [
        SchedulerKind::FrFcfs,
        SchedulerKind::FrVftf,
        SchedulerKind::FqVftf,
        SchedulerKind::SdVftf,
    ]
    .into_iter()
    .map(|kind| {
        let mut spec = spec_with(kind, 1, 3);
        spec.config.starvation_threshold = Some(300);
        (format!("adversarial/{kind}"), spec, events.clone())
    })
    .collect();
    assert_golden(runs, &ADVERSARIAL_LOCK);
}

const INTERFERENCE: [u64; 1] = [
    0xd4d3_a6dd_f570_1c64, // interference
];

#[test]
fn interference_mix_agrees_across_scan_kinds() {
    let events = interference_workload(4, 6_000, 0.05, 0.8, 2006);
    let spec = spec_with(SchedulerKind::FqVftf, 1, 4);
    assert_golden(vec![("interference".into(), spec, events)], &INTERFERENCE);
}

const SHARE_TREE: [u64; 3] = [
    0x296e_ef3b_f384_0e6b, // tree/FR-VFTF
    0xf036_a73b_f120_1746, // tree/FQ-VFTF
    0x5572_00ce_b200_712b, // tree/SD-VFTF
];

#[test]
fn hierarchical_share_tree_agrees_across_scan_kinds() {
    let events = synthetic_workload(4, 5_000, 0.3, 17);
    let runs = [
        SchedulerKind::FrVftf,
        SchedulerKind::FqVftf,
        SchedulerKind::SdVftf,
    ]
    .into_iter()
    .map(|kind| {
        (
            format!("tree/{kind}"),
            two_tenant_spec(kind),
            events.clone(),
        )
    })
    .collect();
    assert_golden(runs, &SHARE_TREE);
}

#[test]
fn hierarchical_indexed_kill_and_resume_is_bit_identical() {
    // Kill-and-resume with a share tree: the queue
    // snapshot stores only admission-ordered live entries; heaps, the
    // tournament, and the watchdog deadline cache are rebuilt or restored
    // such that the continuation is bit-exact, mid-epoch included.
    let events = synthetic_workload(4, 4_000, 0.4, 2006);
    for plan in [None, Some(faults(11))] {
        let mut spec = two_tenant_spec(SchedulerKind::FqVftf);
        spec.config.starvation_threshold = Some(300);
        spec.fault_plan = plan.clone();
        if plan.is_some() {
            spec.retry = RetryPolicy::bounded(6, 2, 64);
        }
        let reference = simulate_serial(&spec, &events).unwrap();
        let ctx = format!("tree/faults={}", plan.is_some());
        for kill_at in [97, 1_500, 2_048, reference.cycles - 311] {
            let bytes = simulate_serial_checkpointed(&spec, &events, kill_at)
                .unwrap_or_else(|e| panic!("{ctx}: checkpoint at {kill_at}: {e}"));
            let resumed = resume_serial(&spec, &events, &bytes)
                .unwrap_or_else(|e| panic!("{ctx}: resume from {kill_at}: {e}"));
            assert_eq!(
                reference, resumed,
                "{ctx}: kill at {kill_at} changed the run"
            );
        }
    }
}

#[test]
fn corrupted_checkpoints_fail_typed_and_never_panic() {
    // Randomized truncations and bit flips over a mid-run checkpoint of
    // the share-tree configuration (so the damaged bytes cover
    // the queue, watchdog-deadline and stats sections). Every corruption
    // must yield a typed SnapshotError through resume — never a panic,
    // never a silent success.
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let events = synthetic_workload(4, 4_000, 0.4, 2006);
    let mut spec = two_tenant_spec(SchedulerKind::FqVftf);
    spec.config.starvation_threshold = Some(300);
    let pristine = simulate_serial_checkpointed(&spec, &events, 2_000).unwrap();
    resume_serial(&spec, &events, &pristine).expect("pristine checkpoint must resume");
    let n = pristine.len();
    assert!(n > 64, "checkpoint implausibly small: {n} bytes");

    #[derive(Debug, Clone, Copy)]
    enum Mutation {
        Truncate(usize),
        BitFlip(usize, u8),
    }

    CaseRunner::new("checkpoint-corruption").cases(48).run(
        |rng: &mut SimRng| {
            if rng.next_below(2) == 0 {
                Mutation::Truncate(rng.next_below(n as u64) as usize)
            } else {
                Mutation::BitFlip(rng.next_below(n as u64) as usize, rng.next_below(8) as u8)
            }
        },
        |&m| match m {
            Mutation::Truncate(len) if len > 0 => {
                vec![Mutation::Truncate(len / 2), Mutation::Truncate(len - 1)]
            }
            Mutation::Truncate(_) => Vec::new(),
            Mutation::BitFlip(pos, bit) => {
                let mut c = Vec::new();
                if pos > 0 {
                    c.push(Mutation::BitFlip(pos / 2, bit));
                    c.push(Mutation::BitFlip(pos - 1, bit));
                }
                if bit > 0 {
                    c.push(Mutation::BitFlip(pos, 0));
                }
                c
            }
        },
        |&m| {
            let mut corrupt = pristine.clone();
            match m {
                Mutation::Truncate(len) => corrupt.truncate(len),
                Mutation::BitFlip(pos, bit) => corrupt[pos] ^= 1 << bit,
            }
            let outcome =
                catch_unwind(AssertUnwindSafe(|| resume_serial(&spec, &events, &corrupt)));
            match outcome {
                Err(_) => Err(format!("{m:?}: resume panicked")),
                Ok(Ok(_)) => Err(format!("{m:?}: corrupted checkpoint resumed")),
                Ok(Err(ResumeError::Snapshot(_)) | Err(ResumeError::Spec(_))) => Ok(()),
            }
        },
    );
}
