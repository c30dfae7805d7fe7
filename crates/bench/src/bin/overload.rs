//! Overload-control study (ISSUE 10 figure bin): a latency-sensitive
//! QoS thread against three streaming-flood aggressors, swept over
//! control modes {none, throttle, throttle+shed} × schedulers
//! {FQ-VFTF, FR-FCFS, BLISS}, with an unloaded baseline per scheduler.
//! The admission throttle (margin 1.0: every unprotected thread is
//! token-gated under flood) and the tiered shedder act in front of the
//! scheduler, so the QoS thread's queue — and therefore its tail
//! latency — stays close to the unloaded case even while the flood is
//! refused at the door.
//!
//! Emits one TSV row per (scheduler, mode) cell on stdout and
//! `BENCH_pr10.json` (override with `FQMS_BENCH_PR10`), written
//! atomically so a killed run never leaves a torn file. The binary
//! doubles as the release smoke gate and exits nonzero when:
//!
//! * `flood_tail_bounded` fails — with control on, the QoS thread's p99
//!   under flood exceeds `TAIL_FACTOR` × its unloaded p99, or the QoS
//!   thread completes nothing,
//! * `conservation` fails — any cell violates
//!   `completed + dropped + rejected + shed + unsubmitted == submitted`,
//! * `control_effective` fails — a control-on flood cell never
//!   throttled (or, with shedding armed, never shed): a vacuous sweep.

use fqms_bench::{header, row, run_length, seed};
use fqms_memctrl::prelude::*;
use fqms_sim::snapshot::write_atomic;

/// One QoS thread plus three streaming aggressors.
const THREADS: usize = 4;
/// Admission-throttle knobs: hogs get `TOKENS` admissions per `PERIOD`.
const PERIOD: u64 = 1_000;
const TOKENS: u64 = 8;
const MARGIN: f64 = 1.0;
/// Shed-detector knobs (window, occupancy enter/exit, NACK enter/exit).
const SHED: (u64, usize, usize, u64, u64) = (500, 24, 8, 48, 8);
/// The release gate: QoS p99 under flood with control on must stay
/// within this factor of the unloaded p99. The first throttle period is
/// necessarily uncontrolled (hogs are classified at the first replenish
/// boundary), so the QoS tail always carries a startup transient.
const TAIL_FACTOR: u64 = 12;

/// Overload-control modes swept per scheduler.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Unloaded,
    None,
    Throttle,
    ThrottleShed,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Unloaded => "unloaded",
            Mode::None => "none",
            Mode::Throttle => "throttle",
            Mode::ThrottleShed => "throttle+shed",
        }
    }

    fn overload(self) -> Option<OverloadConfig> {
        let throttled = OverloadConfig::new(THREADS)
            .throttled(PERIOD, TOKENS, MARGIN)
            .protect(0);
        match self {
            Mode::Unloaded | Mode::None => None,
            Mode::Throttle => Some(throttled),
            Mode::ThrottleShed => {
                let (w, oe, ox, ne, nx) = SHED;
                Some(throttled.shedding(w, oe, ox, ne, nx))
            }
        }
    }
}

/// Everything one (scheduler, mode) cell reports.
struct Cell {
    scheduler: &'static str,
    mode: Mode,
    qos_count: usize,
    qos_p50: u64,
    qos_p99: u64,
    qos_max: u64,
    completed: usize,
    dropped: u64,
    rejected: usize,
    shed: usize,
    throttled: u64,
    saturation_entries: u64,
    unsubmitted: usize,
    conserves: bool,
}

impl Cell {
    fn tsv(&self) -> Vec<String> {
        vec![
            self.scheduler.to_string(),
            self.mode.label().to_string(),
            self.qos_count.to_string(),
            self.qos_p50.to_string(),
            self.qos_p99.to_string(),
            self.qos_max.to_string(),
            self.completed.to_string(),
            self.dropped.to_string(),
            self.rejected.to_string(),
            self.shed.to_string(),
            self.throttled.to_string(),
            self.saturation_entries.to_string(),
            self.unsubmitted.to_string(),
        ]
    }

    fn json(&self) -> String {
        format!(
            "{{\"scheduler\":\"{}\",\"mode\":\"{}\",\"qos_count\":{},\
             \"qos_p50\":{},\"qos_p99\":{},\"qos_max\":{},\"completed\":{},\
             \"dropped\":{},\"rejected\":{},\"shed\":{},\"throttled\":{},\
             \"saturation_entries\":{},\"unsubmitted\":{}}}",
            self.scheduler,
            self.mode.label(),
            self.qos_count,
            self.qos_p50,
            self.qos_p99,
            self.qos_max,
            self.completed,
            self.dropped,
            self.rejected,
            self.shed,
            self.throttled,
            self.saturation_entries,
            self.unsubmitted,
        )
    }
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one cell: builds the spec for (scheduler, mode), simulates the
/// matching workload, and summarises the QoS thread's latency plus the
/// full admission ledger.
fn run_cell(
    scheduler: SchedulerKind,
    name: &'static str,
    mode: Mode,
    events: &[SubmitEvent],
) -> Cell {
    let mut spec = EngineSpec::paper(1, THREADS);
    spec.epoch_cycles = 512;
    spec.event_capacity = Some(1 << 20);
    spec.max_cycles = 20_000_000;
    // One retry per head, honouring `retry_after`: gated heads wait out
    // one throttle period then abandon, so every mode fully drains.
    spec.retry = RetryPolicy::bounded(1, 1, 8);
    spec.config.scheduler = scheduler;
    if let Some(ov) = mode.overload() {
        spec.config = spec.config.with_overload(ov);
    }
    let report = simulate_serial(&spec, events)
        .unwrap_or_else(|e| panic!("overload: invalid spec for {name}/{}: {e}", mode.label()));
    fqms::telemetry::note_controller_cycles(report.stepped_cycles, report.skipped_cycles);
    let obs = report
        .observations
        .as_ref()
        .expect("overload: spec enables observation");
    fqms::sidecar::append(
        "overload",
        &format!("{name}/{}", mode.label()),
        &obs.metrics,
    );

    let mut qos: Vec<u64> = report
        .completions
        .iter()
        .flatten()
        .filter(|c| c.thread.as_u32() == 0)
        .map(|c| c.latency())
        .collect();
    qos.sort_unstable();
    let dropped: u64 = report.per_thread.iter().map(|t| t.requests_dropped).sum();
    let accounted = report.total_completed()
        + dropped as usize
        + report.total_rejected()
        + report.total_shed()
        + report.unsubmitted;
    Cell {
        scheduler: name,
        mode,
        qos_count: qos.len(),
        qos_p50: percentile(&qos, 50.0),
        qos_p99: percentile(&qos, 99.0),
        qos_max: qos.last().copied().unwrap_or(0),
        completed: report.total_completed(),
        dropped,
        rejected: report.total_rejected(),
        shed: report.total_shed(),
        throttled: report.per_thread.iter().map(|t| t.throttle_nacks).sum(),
        saturation_entries: obs.metrics.saturation_entries,
        unsubmitted: report.unsubmitted,
        conserves: accounted == events.len(),
    }
}

fn main() {
    let _run_log = fqms_bench::RunLog::new();
    let len = run_length();
    let seed = seed();
    let cycles = (len.instructions / 2).clamp(20_000, 200_000);

    // The same arrival statistics in every cell: thread 0 is a light,
    // row-local QoS reader; threads 1..3 stream at 0.5 requests/cycle
    // each (30% writes) — far beyond the channel's service rate. The
    // unloaded baseline silences the streamers.
    let flood = interference_workload(THREADS as u32, cycles, 0.05, 0.5, seed);
    let unloaded = interference_workload(THREADS as u32, cycles, 0.05, 0.0, seed);

    header(&[
        "scheduler",
        "mode",
        "qos_count",
        "qos_p50",
        "qos_p99",
        "qos_max",
        "completed",
        "dropped",
        "rejected",
        "shed",
        "throttled",
        "sat_entries",
        "unsubmitted",
    ]);

    let schedulers = [
        (SchedulerKind::FqVftf, "fq-vftf"),
        (SchedulerKind::FrFcfs, "fr-fcfs"),
        (SchedulerKind::Bliss, "bliss"),
    ];
    let mut gate_failures = Vec::new();
    let mut cells = Vec::new();
    for (kind, name) in schedulers {
        let mut unloaded_p99 = 0u64;
        let mut uncontrolled_p99 = 0u64;
        for mode in [
            Mode::Unloaded,
            Mode::None,
            Mode::Throttle,
            Mode::ThrottleShed,
        ] {
            let events = if mode == Mode::Unloaded {
                &unloaded
            } else {
                &flood
            };
            let cell = run_cell(kind, name, mode, events);
            if !cell.conserves {
                gate_failures.push(format!(
                    "{name}/{}: conservation violated ({} submitted)",
                    mode.label(),
                    events.len()
                ));
            }
            match mode {
                Mode::Unloaded => {
                    unloaded_p99 = cell.qos_p99;
                    if cell.qos_count == 0 {
                        gate_failures.push(format!("{name}: unloaded QoS completed nothing"));
                    }
                }
                Mode::None => uncontrolled_p99 = cell.qos_p99,
                Mode::Throttle | Mode::ThrottleShed => {
                    if cell.qos_count == 0 {
                        gate_failures.push(format!(
                            "{name}/{}: QoS thread completed nothing under flood",
                            mode.label()
                        ));
                    } else if cell.qos_p99 > TAIL_FACTOR * unloaded_p99.max(1) {
                        gate_failures.push(format!(
                            "{name}/{}: QoS p99 {} exceeds {TAIL_FACTOR}x unloaded p99 {}",
                            mode.label(),
                            cell.qos_p99,
                            unloaded_p99
                        ));
                    } else if cell.qos_p99 > uncontrolled_p99 {
                        gate_failures.push(format!(
                            "{name}/{}: QoS p99 {} worse than the uncontrolled flood's {}",
                            mode.label(),
                            cell.qos_p99,
                            uncontrolled_p99
                        ));
                    }
                    if cell.throttled == 0 {
                        gate_failures.push(format!(
                            "{name}/{}: throttle never fired — vacuous control cell",
                            mode.label()
                        ));
                    }
                    if mode == Mode::ThrottleShed && cell.shed == 0 {
                        gate_failures.push(format!(
                            "{name}/throttle+shed: shedder never fired — vacuous control cell"
                        ));
                    }
                }
            }
            row(&cell.tsv());
            cells.push(cell);
        }
    }

    let conservation = !gate_failures.iter().any(|g| g.contains("conservation"));
    let tail_bounded = !gate_failures
        .iter()
        .any(|g| g.contains("p99") || g.contains("completed nothing"));
    let effective = !gate_failures.iter().any(|g| g.contains("vacuous"));
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"runlen\": \"{}\",\n  \"cycles\": {cycles},\n  \
         \"threads\": {THREADS},\n  \"period\": {PERIOD},\n  \"tokens\": {TOKENS},\n  \
         \"margin\": {MARGIN},\n  \"tail_factor\": {TAIL_FACTOR},\n  \"cells\": [\n    {}\n  ],\n  \
         \"gates\": {{\n    \"flood_tail_bounded\": {tail_bounded},\n    \
         \"conservation\": {conservation},\n    \"control_effective\": {effective}\n  }}\n}}\n",
        std::env::var("FQMS_RUNLEN").unwrap_or_else(|_| "standard".into()),
        cells
            .iter()
            .map(Cell::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    let out = std::env::var("FQMS_BENCH_PR10").unwrap_or_else(|_| "BENCH_pr10.json".into());
    write_atomic(std::path::Path::new(&out), json.as_bytes())
        .unwrap_or_else(|e| panic!("overload: cannot write {out}: {e}"));
    eprintln!("# overload JSON written to {out}");

    if !gate_failures.is_empty() {
        for g in &gate_failures {
            eprintln!("GATE FAILED: {g}");
        }
        std::process::exit(1);
    }
}
