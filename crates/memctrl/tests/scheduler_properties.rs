//! Property-style tests for the memory controller: conservation (every
//! accepted request completes exactly once), work conservation, VTMS
//! monotonicity, and QoS-flavoured sanity under adversarial random
//! traffic, across the full `SchedulerKind::all()` enum.
//!
//! Generative properties run on the in-tree shrinking
//! [`fqms_sim::rng::CaseRunner`] (hermetic — no external `proptest`
//! dependency, reproducible bit-for-bit; set `FQMS_CASES` or enable the
//! `proptest` feature to widen the case count). On failure the runner
//! reports a shrunk minimal counterexample.

use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::prelude::*;
use fqms_sim::clock::DramCycle;
use fqms_sim::rng::{CaseRunner, SimRng};
use std::collections::HashSet;

fn all_kinds() -> Vec<SchedulerKind> {
    SchedulerKind::all().to_vec()
}

/// A randomly generated open-loop traffic pattern for one controller.
#[derive(Debug, Clone)]
struct TrafficCase {
    kind: SchedulerKind,
    seed: u64,
    threads: usize,
    cycles: u64,
    submit_prob: f64,
}

impl TrafficCase {
    fn generate(rng: &mut SimRng) -> Self {
        let kinds = all_kinds();
        TrafficCase {
            kind: kinds[rng.next_below(kinds.len() as u64) as usize],
            seed: rng.next_below(1 << 32),
            threads: 1 + rng.next_below(4) as usize,
            cycles: 500 + rng.next_below(3_000),
            submit_prob: 0.1 + 0.1 * rng.next_below(5) as f64,
        }
    }

    /// Shrinks toward shorter, calmer runs (the failure usually survives
    /// and the repro gets much cheaper to stare at).
    fn shrink(&self) -> Vec<TrafficCase> {
        let mut out = Vec::new();
        if self.cycles > 250 {
            out.push(TrafficCase {
                cycles: self.cycles / 2,
                ..self.clone()
            });
        }
        if self.threads > 1 {
            out.push(TrafficCase {
                threads: self.threads - 1,
                ..self.clone()
            });
        }
        if self.submit_prob > 0.15 {
            out.push(TrafficCase {
                submit_prob: self.submit_prob / 2.0,
                ..self.clone()
            });
        }
        out
    }
}

/// Drives a controller with random traffic from `threads` threads for
/// `cycles` cycles, then drains. Returns (accepted ids, completed ids).
fn random_run(
    kind: SchedulerKind,
    threads: usize,
    seed: u64,
    cycles: u64,
    submit_prob: f64,
) -> (MemoryController, Vec<RequestId>, Vec<Completion>) {
    let mut rng = SimRng::new(seed);
    let mut mc = MemoryController::new(
        McConfig::paper(threads, kind),
        Geometry::paper(),
        TimingParams::ddr2_800(),
    )
    .unwrap();
    let mut accepted = Vec::new();
    let mut completed = Vec::new();
    let mut c = 0u64;
    for _ in 0..cycles {
        c += 1;
        let now = DramCycle::new(c);
        if rng.chance(submit_prob) {
            let thread = ThreadId::new(rng.next_below(threads as u64) as u32);
            let kind_r = if rng.chance(0.3) {
                RequestKind::Write
            } else {
                RequestKind::Read
            };
            let phys = rng.next_below(1 << 24) * 64;
            if let Ok(id) = mc.try_submit(thread, kind_r, phys, now) {
                accepted.push(id);
            }
        }
        completed.extend(mc.step(now));
    }
    // Drain.
    while !mc.is_idle() {
        c += 1;
        completed.extend(mc.step(DramCycle::new(c)));
        assert!(c < cycles + 1_000_000, "controller failed to drain");
    }
    mc.finish(DramCycle::new(c));
    (mc, accepted, completed)
}

/// Conservation: every accepted request completes exactly once, under
/// every scheduler.
#[test]
fn every_accepted_request_completes_once() {
    CaseRunner::new("conservation").cases(24).run(
        TrafficCase::generate,
        TrafficCase::shrink,
        |case| {
            let (_, accepted, completed) = random_run(
                case.kind,
                case.threads,
                case.seed,
                case.cycles,
                case.submit_prob,
            );
            let accepted_set: HashSet<_> = accepted.iter().copied().collect();
            let mut completed_set = HashSet::new();
            for c in &completed {
                if !completed_set.insert(c.id) {
                    return Err(format!("{}: {} completed twice", case.kind, c.id));
                }
            }
            if accepted_set != completed_set {
                return Err(format!("{} lost or invented requests", case.kind));
            }
            Ok(())
        },
    );
}

/// Latency sanity: no read finishes before it could physically be
/// serviced (closed-bank unloaded latency) and none is lost forever.
#[test]
fn read_latency_lower_bound() {
    let t = TimingParams::ddr2_800();
    let min_latency = t.t_cl + t.burst; // best case: row hit CAS at arrival
    CaseRunner::new("read-latency-lower-bound").cases(24).run(
        TrafficCase::generate,
        TrafficCase::shrink,
        |case| {
            let (_, _, completed) = random_run(
                case.kind,
                case.threads,
                case.seed,
                case.cycles,
                case.submit_prob,
            );
            for c in completed.iter().filter(|c| c.kind == RequestKind::Read) {
                if c.latency() < min_latency {
                    return Err(format!(
                        "{}: impossible latency {} (< {min_latency})",
                        case.kind,
                        c.latency()
                    ));
                }
            }
            Ok(())
        },
    );
}

/// VTMS bank and channel registers never decrease.
#[test]
fn vtms_registers_are_monotonic() {
    CaseRunner::new("vtms-monotonic").run(TrafficCase::generate, TrafficCase::shrink, |case| {
        let mut rng = SimRng::new(case.seed);
        let threads = case.threads as u32;
        let mut mc = MemoryController::new(
            McConfig::paper(case.threads, SchedulerKind::FqVftf),
            Geometry::paper(),
            TimingParams::ddr2_800(),
        )
        .unwrap();
        let mut prev: Vec<(Vec<f64>, f64)> = (0..threads)
            .map(|i| {
                let v = mc.vtms(ThreadId::new(i));
                ((0..8).map(|b| v.bank_reg(b)).collect(), v.channel_reg())
            })
            .collect();
        for c in 1..case.cycles {
            let now = DramCycle::new(c);
            if rng.chance(case.submit_prob) {
                let thread = ThreadId::new(rng.next_below(threads as u64) as u32);
                let phys = rng.next_below(1 << 20) * 64;
                let _ = mc.try_submit(thread, RequestKind::Read, phys, now);
            }
            mc.step(now);
            for (i, prev_state) in prev.iter_mut().enumerate() {
                let v = mc.vtms(ThreadId::new(i as u32));
                for (b, prev_bank) in prev_state.0.iter_mut().enumerate() {
                    let cur = v.bank_reg(b);
                    if cur < *prev_bank {
                        return Err(format!("bank reg {b} decreased at cycle {c}"));
                    }
                    *prev_bank = cur;
                }
                let cur = v.channel_reg();
                if cur < prev_state.1 {
                    return Err(format!("channel reg decreased at cycle {c}"));
                }
                prev_state.1 = cur;
            }
        }
        Ok(())
    });
}

/// Work conservation (first-ready policies): with pending work and an
/// idle data path, the controller keeps making forward progress — a
/// saturating single-thread run achieves high bus utilization. The run
/// length is fixed (the 0.85 threshold assumes amortized startup), so
/// only the starting line shrinks.
#[test]
fn saturating_stream_utilizes_bus() {
    CaseRunner::new("work-conservation").cases(6).run(
        |rng| rng.next_below(1 << 16),
        |&line| if line > 0 { vec![line / 2] } else { vec![] },
        |&start_line| {
            let mut mc = MemoryController::new(
                McConfig::paper(1, SchedulerKind::FrFcfs),
                Geometry::paper(),
                TimingParams::ddr2_800(),
            )
            .unwrap();
            let thread = ThreadId::new(0);
            let mut next_line = start_line;
            let cycles = 20_000u64;
            for c in 1..=cycles {
                let now = DramCycle::new(c);
                // Keep the transaction buffer as full as possible with
                // sequential (row-friendly) reads.
                while mc.can_accept(thread, RequestKind::Read) {
                    let _ = mc.try_submit(thread, RequestKind::Read, next_line * 64, now);
                    next_line += 1;
                }
                mc.step(now);
            }
            mc.finish(DramCycle::new(cycles));
            let util = mc.dram().bus_busy_cycles() as f64 / cycles as f64;
            if util <= 0.85 {
                return Err(format!(
                    "sequential stream only reached {util:.2} bus utilization"
                ));
            }
            Ok(())
        },
    );
}

#[test]
fn fcfs_services_same_bank_in_order() {
    // Strict FCFS: same-bank requests complete in arrival order even when a
    // younger one is a row hit.
    let mut mc = MemoryController::new(
        McConfig::paper(1, SchedulerKind::Fcfs),
        Geometry::paper(),
        TimingParams::ddr2_800(),
    )
    .unwrap();
    let map = *mc.address_map();
    let mk = |bank: u32, row: u32, col: u32| {
        map.encode(fqms_dram::command::DramAddress {
            rank: fqms_dram::command::RankId::new(0),
            bank: fqms_dram::command::BankId::new(bank),
            row: fqms_dram::command::RowId::new(row),
            col: fqms_dram::command::ColId::new(col),
        })
    };
    let t0 = ThreadId::new(0);
    mc.try_submit(t0, RequestKind::Read, mk(0, 1, 0), DramCycle::new(0))
        .unwrap();
    mc.try_submit(t0, RequestKind::Read, mk(0, 2, 0), DramCycle::new(0))
        .unwrap();
    mc.try_submit(t0, RequestKind::Read, mk(0, 1, 1), DramCycle::new(0))
        .unwrap();
    let mut done = Vec::new();
    let mut c = 0;
    while !mc.is_idle() {
        c += 1;
        done.extend(mc.step(DramCycle::new(c)));
    }
    let order: Vec<u64> = done.iter().map(|d| d.id.as_u64()).collect();
    assert_eq!(order, vec![0, 1, 2]);
}

#[test]
fn frfcfs_reorders_row_hit_ahead() {
    // Same scenario under FR-FCFS: the row hit (id 2) jumps ahead of the
    // conflicting request (id 1).
    let mut mc = MemoryController::new(
        McConfig::paper(1, SchedulerKind::FrFcfs),
        Geometry::paper(),
        TimingParams::ddr2_800(),
    )
    .unwrap();
    let map = *mc.address_map();
    let mk = |bank: u32, row: u32, col: u32| {
        map.encode(fqms_dram::command::DramAddress {
            rank: fqms_dram::command::RankId::new(0),
            bank: fqms_dram::command::BankId::new(bank),
            row: fqms_dram::command::RowId::new(row),
            col: fqms_dram::command::ColId::new(col),
        })
    };
    let t0 = ThreadId::new(0);
    mc.try_submit(t0, RequestKind::Read, mk(0, 1, 0), DramCycle::new(0))
        .unwrap();
    mc.try_submit(t0, RequestKind::Read, mk(0, 2, 0), DramCycle::new(0))
        .unwrap();
    mc.try_submit(t0, RequestKind::Read, mk(0, 1, 1), DramCycle::new(0))
        .unwrap();
    let mut done = Vec::new();
    let mut c = 0;
    while !mc.is_idle() {
        c += 1;
        done.extend(mc.step(DramCycle::new(c)));
    }
    let order: Vec<u64> = done.iter().map(|d| d.id.as_u64()).collect();
    assert_eq!(order, vec![0, 2, 1]);
}

/// The XOR address map is a bijection on any power-of-two geometry:
/// encode is a right inverse of decode over the device, and decode is
/// injective over a full device scan.
#[test]
fn address_map_bijective_on_random_geometries() {
    use fqms_memctrl::address_map::AddressMap;
    use std::collections::HashSet;
    let mut rng = SimRng::new(0xB17EC7);
    for case in 0..16 {
        let g = fqms_dram::device::Geometry {
            ranks: 1 << rng.next_below(2),
            banks: 1 << (1 + rng.next_below(3)),
            rows: 1 << (2 + rng.next_below(4)),
            cols: 1 << (2 + rng.next_below(4)),
        };
        let map = AddressMap::new(g, 64);
        let lines = (g.ranks * g.banks * g.rows * g.cols) as u64;
        let mut seen = HashSet::new();
        for i in 0..lines {
            let addr = map.decode(i * 64);
            assert!(seen.insert(addr), "case {case}: collision at line {i}");
            assert_eq!(map.encode(addr), i * 64, "case {case}");
        }
    }
}

/// Multi-channel address localization is a bijection: distinct physical
/// lines map to distinct (channel, local-line) pairs.
#[test]
fn multichannel_routing_is_injective() {
    use fqms_dram::device::Geometry;
    use fqms_dram::timing::TimingParams;
    use fqms_memctrl::multichannel::MultiChannelController;
    use std::collections::HashSet;
    for channels in 1usize..5 {
        let m = MultiChannelController::new(
            channels,
            McConfig::paper(1, SchedulerKind::FrFcfs),
            Geometry::paper(),
            TimingParams::ddr2_800(),
        )
        .unwrap();
        let mut seen = HashSet::new();
        for line in 0..4096u64 {
            let phys = line * 64;
            let ch = m.route(phys);
            let local = (line / channels as u64) * 64;
            assert!(seen.insert((ch, local)), "collision at line {line}");
        }
    }
}
