//! Extension study: dynamic bandwidth redistribution. A streaming thread
//! runs alone; an identical competitor "arrives" mid-run (a delayed-start
//! trace). The time series of per-thread bus utilization shows how each
//! scheduler reacts — and makes the paper's *real-clock* fairness policy
//! visible: while running alone the early thread consumed excess service
//! (more than its phi = 1/2), so its VTMS registers ran ahead of the real
//! clock; on arrival the newcomer's fresh virtual times win priority
//! until the early thread's excess is paid back (a bounded make-up
//! period of a few windows), after which the split settles at 50/50.
//! This is exactly Section 3's stated policy: "threads that have consumed
//! more memory system bandwidth in the past ... should not receive excess
//! bandwidth before threads that have received less excess bandwidth in
//! the past" — "unlike GPS virtual clock algorithms, a real clock
//! penalizes threads that have consumed more service in the past."
//! FR-FCFS, having no service memory, splits evenly immediately.

use fqms::prelude::*;
use fqms_bench::{f, header, row, seed};
use fqms_memctrl::request::ThreadId;
use fqms_workloads::generator::SyntheticTrace;
use fqms_workloads::patterns::DelayedStart;

const WINDOW: u64 = 20_000; // DRAM cycles per sample
const WINDOWS: u64 = 30;
const ARRIVAL_INSTRUCTIONS: u64 = 6_000_000;

fn main() {
    // Dropped on exit: prints wall-clock and skip-rate to the .log sidecar.
    let _run_log = fqms_bench::RunLog::new();
    let seed = seed();
    header(&[
        "scheduler",
        "window",
        "thread0_bus",
        "thread1_bus",
        "total_bus",
    ]);
    for sched in [SchedulerKind::FrFcfs, SchedulerKind::FqVftf] {
        let swim = by_name("swim")
            .unwrap_or_else(|| panic!("timeline: no workload profile named \"swim\""));
        let early = SyntheticTrace::for_thread(swim, seed, 0).unwrap_or_else(|e| {
            panic!("timeline: invalid trace for early swim thread (seed {seed}): {e}")
        });
        // The late thread gets no prewarm budget: prewarming consumes
        // compute ops, so it would spend the delay prefix (or give up
        // inside it, after as many idle ops as its budget) instead of
        // warming the caches.
        let late_inner = SyntheticTrace::for_thread(swim, seed, 1).unwrap_or_else(|e| {
            panic!("timeline: invalid trace for late swim thread (seed {seed}): {e}")
        });
        let late = DelayedStart::new(late_inner, ARRIVAL_INSTRUCTIONS);
        let mut sys = SystemBuilder::new()
            .scheduler(sched)
            .seed(seed)
            .workload_trace("early", Box::new(early), 50_000)
            .workload_trace("late", Box::new(late), 0)
            .build()
            .unwrap_or_else(|e| {
                panic!("timeline: invalid system config under {sched} (seed {seed}): {e}")
            });
        let mut prev = [0u64; 2];
        for w in 0..WINDOWS {
            for _ in 0..WINDOW {
                sys.step();
            }
            let cur: Vec<u64> = (0..2)
                .map(|i| {
                    sys.controller()
                        .thread_stats(ThreadId::new(i))
                        .bus_busy_cycles
                })
                .collect();
            let d0 = (cur[0] - prev[0]) as f64 / WINDOW as f64;
            let d1 = (cur[1] - prev[1]) as f64 / WINDOW as f64;
            prev = [cur[0], cur[1]];
            row(&[sched.to_string(), w.to_string(), f(d0), f(d1), f(d0 + d1)]);
        }
    }
    eprintln!("# thread1 arrives around window 7; FQ-VFTF shows a bounded make-up period (early thread repays its excess), then 50/50");
}
