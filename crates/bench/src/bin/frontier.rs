//! Fairness-vs-throughput frontier across the full scheduler family
//! (ISSUE 7 tentpole): FCFS, FR-FCFS, FR-VFTF, FQ-VFTF, BLISS and
//! SD-VFTF, swept over the five four-core mixes covering all twenty
//! shipped workload profiles, the starvation-adversarial mix, and the
//! adversarial mix under a combined fault plan (NACK storms, bank
//! stalls, refresh pressure, request drops) with bounded retries.
//!
//! Emits the frontier as TSV on stdout and as `BENCH_pr7.json`
//! (override the path with `FQMS_BENCH_PR7`), written atomically so a
//! killed run never leaves a torn file. The binary doubles as a smoke
//! gate and exits nonzero when:
//!
//! * any engine run violates conservation
//!   (`completed + dropped + rejected + unsubmitted == submitted`), or
//! * FQ-VFTF, SD-VFTF or BLISS shows a *higher* max-slowdown than
//!   FR-FCFS on the fault-free adversarial mix (the fairness claim the
//!   frontier exists to demonstrate).

use fqms::prelude::*;
use fqms_bench::{f, header, row, run_length, seed};
use fqms_dram::device::Geometry;
use fqms_memctrl::prelude::*;
use fqms_sim::fault::{FaultKind, FaultPlan, FaultWindow};
use fqms_sim::snapshot::write_atomic;

/// Watchdog threshold for the adversarial runs (matches `faults.rs`).
const WATCHDOG: u64 = 300;

/// One frontier point: a (workload, scheduler) cell.
struct Point {
    workload: String,
    scheduler: SchedulerKind,
    ipc_sum: f64,
    bus_utilization: f64,
    max_slowdown: f64,
    harmonic_speedup: f64,
    completed: u64,
    starvations: u64,
}

impl Point {
    fn tsv(&self, kind: &str) -> Vec<String> {
        vec![
            kind.to_string(),
            self.workload.clone(),
            self.scheduler.name().to_string(),
            f(self.ipc_sum),
            f(self.bus_utilization),
            f(self.max_slowdown),
            f(self.harmonic_speedup),
            self.completed.to_string(),
            self.starvations.to_string(),
        ]
    }

    fn json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"scheduler\":\"{}\",\"ipc_sum\":{:.6},\
             \"bus_utilization\":{:.6},\"max_slowdown\":{:.6},\
             \"harmonic_speedup\":{:.6},\"completed\":{},\"starvations\":{}}}",
            self.workload,
            self.scheduler.name(),
            self.ipc_sum,
            self.bus_utilization,
            self.max_slowdown,
            self.harmonic_speedup,
            self.completed,
            self.starvations
        )
    }
}

/// The five four-core mixes: the paper's four (profiles 0-15) plus the
/// low-utilization tail (profiles 16-19) so all twenty profiles appear.
fn mixes() -> Vec<(String, [fqms_workloads::profile::WorkloadProfile; 4])> {
    let mut out: Vec<_> = four_core_workloads()
        .into_iter()
        .map(|mix| (mix_label(&mix), mix))
        .collect();
    let p = &SPEC_PROFILES;
    let tail = [p[16], p[17], p[18], p[19]];
    out.push((mix_label(&tail), tail));
    out
}

fn mix_label(mix: &[fqms_workloads::profile::WorkloadProfile; 4]) -> String {
    mix.iter().map(|p| p.name).collect::<Vec<_>>().join("+")
}

/// Runs one four-core system with observation enabled and collects a
/// frontier point from the merged metric sink.
fn workload_point(
    label: &str,
    mix: &[fqms_workloads::profile::WorkloadProfile; 4],
    scheduler: SchedulerKind,
    len: RunLength,
    seed: u64,
) -> Point {
    let mut sys = SystemBuilder::new()
        .scheduler(scheduler)
        .seed(seed)
        .workloads(mix.iter().copied())
        .observe_events(1 << 12)
        .build()
        .expect("four-core frontier configuration is valid");
    let metrics = sys.run(len.instructions, len.max_dram_cycles);
    let sink = sys
        .observed_metrics()
        .expect("frontier systems run observed");
    fqms::sidecar::append(&format!("frontier-{label}"), scheduler.name(), &sink);
    Point {
        workload: label.to_string(),
        scheduler,
        ipc_sum: metrics.threads.iter().map(|t| t.ipc).sum(),
        bus_utilization: metrics.data_bus_utilization,
        max_slowdown: sink.max_slowdown(),
        harmonic_speedup: sink.harmonic_speedup(),
        completed: (0..sink.num_threads() as u32)
            .map(|t| {
                let t = sink.thread(t);
                t.reads_completed + t.writes_completed
            })
            .sum(),
        starvations: (0..sink.num_threads() as u32)
            .map(|t| sink.thread(t).starvations)
            .sum(),
    }
}

/// The combined fault plan exercised by the faulted adversarial sweep.
fn fault_plan(seed: u64, cycles: u64) -> FaultPlan {
    let end = cycles.saturating_sub(cycles / 4).max(2);
    let w = FaultWindow::new(end / 8, end);
    FaultPlan::new(seed)
        .with(FaultKind::NackStorm, w, 0.002, 90)
        .with(FaultKind::BankStall, w, 0.002, 110)
        .with(FaultKind::RefreshPressure, w, 0.001, 70)
        .with(FaultKind::RequestDrop, w, 0.003, 1)
}

/// Runs the adversarial engine workload and returns the point plus the
/// conservation tally (completed + dropped + rejected + unsubmitted,
/// which must equal the submitted schedule length).
fn adversarial_point(
    scheduler: SchedulerKind,
    events: &[SubmitEvent],
    plan: Option<FaultPlan>,
    label: &str,
) -> (Point, usize) {
    let mut spec = EngineSpec::paper(1, 3);
    spec.config.scheduler = scheduler;
    spec.config.starvation_threshold = Some(WATCHDOG);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.fault_plan = plan.clone();
    if plan.is_some() {
        // NACK storms can wedge an infinite-retry port; bound it.
        spec.retry = RetryPolicy::bounded(6, 2, 64);
    }
    let report = simulate_serial(&spec, events)
        .unwrap_or_else(|e| panic!("frontier: invalid spec for {scheduler} ({label}): {e}"));
    fqms::telemetry::note_controller_cycles(report.stepped_cycles, report.skipped_cycles);
    let obs = report
        .observations
        .as_ref()
        .expect("frontier: spec enables observation");
    fqms::sidecar::append(&format!("frontier-{label}"), scheduler.name(), &obs.metrics);
    let dropped: u64 = report.per_thread.iter().map(|t| t.requests_dropped).sum();
    let rejected: usize = report.rejected.iter().map(Vec::len).sum();
    let accounted = report.total_completed() + dropped as usize + rejected + report.unsubmitted;
    let point = Point {
        workload: label.to_string(),
        scheduler,
        // The raw engine has no cores; cycles-per-completion stands in as
        // the throughput axis (lower is better, inverted for the JSON).
        ipc_sum: report.total_completed() as f64 / report.cycles.max(1) as f64,
        bus_utilization: report.bus_busy_cycles as f64 / report.cycles.max(1) as f64,
        max_slowdown: obs.metrics.max_slowdown(),
        harmonic_speedup: obs.metrics.harmonic_speedup(),
        completed: report.total_completed() as u64,
        starvations: report.per_thread.iter().map(|t| t.starvations).sum(),
    };
    (point, accounted)
}

fn main() {
    // Dropped on exit: prints wall-clock and skip-rate to the .log sidecar.
    let _run_log = fqms_bench::RunLog::new();
    let len = run_length();
    let seed = seed();
    let schedulers = SchedulerKind::all();

    header(&[
        "kind",
        "workload",
        "scheduler",
        "throughput",
        "bus_util",
        "max_slowdown",
        "harmonic_speedup",
        "completed",
        "starvations",
    ]);

    let mut workload_points = Vec::new();
    for (label, mix) in mixes() {
        for &scheduler in &schedulers {
            let p = workload_point(&label, &mix, scheduler, len, seed);
            row(&p.tsv("workload"));
            workload_points.push(p);
        }
    }

    let gen_cycles = (len.instructions / 2).clamp(10_000, 200_000);
    let events = adversarial_workload(&Geometry::paper(), 3, gen_cycles, seed);
    let mut gate_failures = Vec::new();
    let mut adversarial_points = Vec::new();
    let mut faulted_points = Vec::new();
    for &scheduler in &schedulers {
        for (plan, label, bucket) in [
            (None, "adversarial", &mut adversarial_points),
            (
                Some(fault_plan(seed, gen_cycles)),
                "adversarial-faulted",
                &mut faulted_points,
            ),
        ] {
            let (point, accounted) = adversarial_point(scheduler, &events, plan, label);
            if accounted != events.len() {
                gate_failures.push(format!(
                    "{scheduler} ({label}): conservation violated — {accounted} accounted \
                     of {} submitted",
                    events.len()
                ));
            }
            row(&point.tsv(label));
            bucket.push(point);
        }
    }

    // The fairness gate: the slowdown-aware schedulers must not be LESS
    // fair than FR-FCFS on the mix built to starve FR-FCFS's victim.
    let adversarial_sd = |kind: SchedulerKind| {
        adversarial_points
            .iter()
            .find(|p| p.scheduler == kind)
            .expect("all schedulers swept")
            .max_slowdown
    };
    let fr = adversarial_sd(SchedulerKind::FrFcfs);
    for kind in [
        SchedulerKind::FqVftf,
        SchedulerKind::SdVftf,
        SchedulerKind::Bliss,
    ] {
        let sd = adversarial_sd(kind);
        if sd > fr {
            gate_failures.push(format!(
                "{kind}: adversarial max-slowdown {sd:.3} exceeds FR-FCFS's {fr:.3}"
            ));
        }
    }

    let json_points = |pts: &[Point]| {
        pts.iter()
            .map(Point::json)
            .collect::<Vec<_>>()
            .join(",\n    ")
    };
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"runlen\": \"{}\",\n  \"schedulers\": [{}],\n  \
         \"workloads\": [\n    {}\n  ],\n  \"adversarial\": [\n    {}\n  ],\n  \
         \"adversarial_faulted\": [\n    {}\n  ],\n  \"gates\": {{\n    \
         \"conservation\": {},\n    \"fq_vftf_max_slowdown_le_frfcfs\": {},\n    \
         \"sd_vftf_max_slowdown_le_frfcfs\": {},\n    \
         \"bliss_max_slowdown_le_frfcfs\": {}\n  }}\n}}\n",
        std::env::var("FQMS_RUNLEN").unwrap_or_else(|_| "standard".into()),
        schedulers
            .iter()
            .map(|s| format!("\"{}\"", s.name()))
            .collect::<Vec<_>>()
            .join(","),
        json_points(&workload_points),
        json_points(&adversarial_points),
        json_points(&faulted_points),
        gate_failures.iter().all(|g| !g.contains("conservation")),
        adversarial_sd(SchedulerKind::FqVftf) <= fr,
        adversarial_sd(SchedulerKind::SdVftf) <= fr,
        adversarial_sd(SchedulerKind::Bliss) <= fr,
    );
    let out = std::env::var("FQMS_BENCH_PR7").unwrap_or_else(|_| "BENCH_pr7.json".into());
    write_atomic(std::path::Path::new(&out), json.as_bytes())
        .unwrap_or_else(|e| panic!("frontier: cannot write {out}: {e}"));
    eprintln!("# frontier JSON written to {out}");

    if !gate_failures.is_empty() {
        for g in &gate_failures {
            eprintln!("GATE FAILED: {g}");
        }
        std::process::exit(1);
    }
}
