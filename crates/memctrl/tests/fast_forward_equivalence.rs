//! Fast-forward equivalence suite (ISSUE 3 satellite): the event-driven
//! engine must be an *optimisation*, never a semantic change. Every
//! scheduler kind, plus the refresh / row-policy / VFT-binding variants
//! most likely to expose a missed wake-up, is run twice over the same
//! seeded workload — once cycle-by-cycle (`fast_forward: false`) and once
//! with event-driven skipping — and the runs must agree bit-for-bit on
//! completions, per-thread statistics, and the observed event streams.
//!
//! The only fields allowed to differ are the diagnostic skip counters
//! (`stepped_cycles` / `skipped_cycles`): the fast run simulates fewer
//! controller cycles, which is the whole point. `assert_semantic_eq`
//! below compares every other field explicitly so a future `EngineReport`
//! field is compared by default (it breaks compilation-free equality, not
//! silently skipped).

use fqms_dram::timing::TimingParams;
use fqms_memctrl::engine::{
    interference_workload, simulate_parallel, simulate_serial, synthetic_workload, EngineReport,
    EngineSpec,
};
use fqms_memctrl::policy::{RefreshPolicy, RowPolicy, SchedulerKind, VftBinding};

fn spec_with(kind: SchedulerKind, channels: usize, threads: usize, fast: bool) -> EngineSpec {
    let mut spec = EngineSpec::paper(channels, threads);
    spec.config.scheduler = kind;
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.fast_forward = fast;
    spec
}

/// Asserts that two reports agree on every semantic field, ignoring only
/// the `stepped_cycles` / `skipped_cycles` diagnostics (which legitimately
/// differ between a fast-forward run and its cycle-by-cycle reference).
fn assert_semantic_eq(fast: &EngineReport, slow: &EngineReport, label: &str) {
    assert_eq!(fast.cycles, slow.cycles, "{label}: cycles diverged");
    assert_eq!(
        fast.per_thread, slow.per_thread,
        "{label}: per-thread stats diverged"
    );
    assert_eq!(
        fast.completions, slow.completions,
        "{label}: completion streams diverged"
    );
    assert_eq!(
        fast.command_logs, slow.command_logs,
        "{label}: command logs diverged"
    );
    assert_eq!(
        fast.bus_busy_cycles, slow.bus_busy_cycles,
        "{label}: bus occupancy diverged"
    );
    assert_eq!(
        fast.unsubmitted, slow.unsubmitted,
        "{label}: drain state diverged"
    );
    assert_eq!(
        fast.rejected, slow.rejected,
        "{label}: abandoned submissions diverged"
    );
    assert_eq!(
        fast.observations, slow.observations,
        "{label}: observed event streams diverged"
    );
}

/// Runs `spec` fast and slow (serial), plus fast in parallel, and checks
/// all three agree. Returns the fast serial report for extra assertions.
fn check(
    mut spec: EngineSpec,
    events: &[fqms_memctrl::engine::SubmitEvent],
    label: &str,
) -> EngineReport {
    spec.fast_forward = false;
    let slow = simulate_serial(&spec, events).unwrap();
    spec.fast_forward = true;
    let fast = simulate_serial(&spec, events).unwrap();
    assert_semantic_eq(&fast, &slow, label);

    // Serial vs parallel fast runs share identical epoch windows, so even
    // the skip counters must match: full structural equality.
    let par = simulate_parallel(&spec, events, 2).unwrap();
    assert_eq!(fast, par, "{label}: fast serial != fast parallel");
    fast
}

#[test]
fn all_schedulers_are_fast_forward_invariant() {
    // A light mix with plenty of dead cycles: the fast path must both
    // engage (skip something) and change nothing observable.
    let events = synthetic_workload(4, 4_000, 0.15, 2006);
    for kind in SchedulerKind::all() {
        let spec = spec_with(kind, 2, 4, true);
        let fast = check(spec, &events, kind.name());
        assert!(fast.unsubmitted == 0, "{kind}: mix failed to drain");
        assert!(
            fast.skipped_cycles > 0,
            "{kind}: fast path never engaged — vacuous equivalence"
        );
    }
}

#[test]
fn interference_mix_is_fast_forward_invariant() {
    // The paper's QoS-vs-hog mix: bursty per-thread behaviour with long
    // idle tails on the QoS thread's banks. This is also the reference
    // mix the speedup bench gates on.
    let events = interference_workload(4, 6_000, 0.05, 0.8, 2006);
    for kind in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf] {
        let spec = spec_with(kind, 1, 4, true);
        let fast = check(spec, &events, kind.name());
        assert!(fast.skipped_cycles > 0, "{kind}: fast path never engaged");
    }
}

#[test]
fn refresh_heavy_timing_is_fast_forward_invariant() {
    // DDR2-667 refreshes every 2 600 cycles (vs 280 000 for DDR2-800), so
    // a 12 000-cycle run crosses several refresh windows per rank. Refresh
    // engagement, tRFC recovery, and deferred catch-up are the constraints
    // most likely to be missed by a broken `next_event_cycle`.
    let events = synthetic_workload(4, 12_000, 0.08, 99);
    for refresh in [
        RefreshPolicy::Strict,
        RefreshPolicy::Deferred { max_postponed: 4 },
    ] {
        for kind in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf] {
            let mut spec = spec_with(kind, 2, 4, true);
            spec.timing = TimingParams::ddr2_667();
            spec.config.refresh_policy = refresh;
            let label = format!("{kind}/{refresh:?}");
            let fast = check(spec, &events, &label);
            assert!(fast.skipped_cycles > 0, "{label}: fast path never engaged");
        }
    }
}

#[test]
fn policy_variants_are_fast_forward_invariant() {
    // Open-row policy changes which bank thresholds matter (idle
    // precharges disappear, row hits chain); at-arrival binding changes
    // when VFTs are stamped. Neither may interact with cycle skipping.
    let events = synthetic_workload(4, 4_000, 0.2, 7);
    for (row, binding) in [
        (RowPolicy::Open, VftBinding::FirstReady),
        (RowPolicy::Closed, VftBinding::AtArrival),
        (RowPolicy::Open, VftBinding::AtArrival),
    ] {
        let mut spec = spec_with(SchedulerKind::FqVftf, 2, 4, true);
        spec.config.row_policy = row;
        spec.config.vft_binding = binding;
        let label = format!("{row:?}/{binding:?}");
        check(spec, &events, &label);
    }
}

#[test]
fn saturated_mix_is_fast_forward_invariant() {
    // The other extreme: a near-saturated mix where almost no cycle is
    // skippable. The fast path must degrade to cycle-by-cycle without
    // perturbing NACK retry loops or back-pressure.
    let events = synthetic_workload(4, 3_000, 0.9, 13);
    for kind in SchedulerKind::all() {
        let spec = spec_with(kind, 1, 4, true);
        check(spec, &events, kind.name());
    }
}
