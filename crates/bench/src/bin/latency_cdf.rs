//! Per-class latency CDFs for the real-time mode (ISSUE 9 figure bin):
//! best-effort FQ-VFTF and FR-FCFS against the regulated mode (bank
//! partitioning + per-bank token-bucket budgets) on the same
//! budget-compliant workload, with the analytic WCET bound from
//! [`fqms_memctrl::wcet`] drawn alongside — plus a faulted regulated run
//! whose bound carries the fault allowance.
//!
//! Emits the CDFs as TSV on stdout and as `BENCH_pr9.json` (override the
//! path with `FQMS_BENCH_PR9`), written atomically so a killed run never
//! leaves a torn file. The binary doubles as the release smoke gate and
//! exits nonzero when:
//!
//! * `no_wcet_violation` fails — any regulated real-time completion
//!   exceeds its analytic bound, or the controller's own
//!   `bound_violations` counter is nonzero, or
//! * any run violates conservation
//!   (`completed + dropped + rejected + unsubmitted == submitted`).

use fqms_bench::{header, row, run_length, seed};
use fqms_memctrl::prelude::*;
use fqms_memctrl::wcet::bound_for;
use fqms_sim::fault::{FaultInjector, FaultKind, FaultPlan, FaultWindow};
use fqms_sim::snapshot::write_atomic;

/// Number of real-time / best-effort threads in the swept system.
const RT_THREADS: usize = 2;
const BE_THREADS: usize = 2;
/// Token-bucket knobs (DRAM cycles / services per period).
const PERIOD: u64 = 2_000;
const BUDGET: u64 = 6;

/// The percentiles each CDF is summarised at (plus the max).
const PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The regulation knob shared by every regulated run: `RT_THREADS`
/// budgeted classes, `BE_THREADS` unregulated aggressors, partitioning on.
fn regulation(bound: Option<u64>) -> RegulationConfig {
    let mut reg = RegulationConfig::new(PERIOD);
    for _ in 0..RT_THREADS {
        reg = reg.rt_class(BUDGET, bound);
    }
    for _ in 0..BE_THREADS {
        reg = reg.best_effort();
    }
    reg
}

/// Latency summary of one (mode, class) cell.
struct Cdf {
    mode: &'static str,
    class: &'static str,
    count: usize,
    percentiles: Vec<u64>,
    max: u64,
    bound: Option<u64>,
}

impl Cdf {
    fn from_latencies(
        mode: &'static str,
        class: &'static str,
        mut lat: Vec<u64>,
        bound: Option<u64>,
    ) -> Self {
        lat.sort_unstable();
        let at = |p: f64| {
            if lat.is_empty() {
                0
            } else {
                let idx = (p / 100.0 * (lat.len() - 1) as f64).round() as usize;
                lat[idx.min(lat.len() - 1)]
            }
        };
        Cdf {
            mode,
            class,
            count: lat.len(),
            percentiles: PERCENTILES.iter().map(|&p| at(p)).collect(),
            max: lat.last().copied().unwrap_or(0),
            bound,
        }
    }

    fn tsv(&self) -> Vec<String> {
        let mut cols = vec![
            self.mode.to_string(),
            self.class.to_string(),
            self.count.to_string(),
        ];
        cols.extend(self.percentiles.iter().map(u64::to_string));
        cols.push(self.max.to_string());
        cols.push(
            self.bound
                .map_or_else(|| "-".to_string(), |b| b.to_string()),
        );
        cols
    }

    fn json(&self) -> String {
        format!(
            "{{\"mode\":\"{}\",\"class\":\"{}\",\"count\":{},\"p50\":{},\
             \"p90\":{},\"p95\":{},\"p99\":{},\"p999\":{},\"max\":{},\"bound\":{}}}",
            self.mode,
            self.class,
            self.count,
            self.percentiles[0],
            self.percentiles[1],
            self.percentiles[2],
            self.percentiles[3],
            self.percentiles[4],
            self.max,
            self.bound
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
        )
    }
}

/// Runs one mode over `events` and splits completion latencies by class.
/// Returns the two CDFs plus the conservation tally and the controller's
/// violation counter.
fn run_mode(
    mode: &'static str,
    spec: &EngineSpec,
    events: &[SubmitEvent],
    bound: Option<u64>,
) -> (Vec<Cdf>, usize, u64) {
    let report = simulate_serial(spec, events)
        .unwrap_or_else(|e| panic!("latency_cdf: invalid spec for {mode}: {e}"));
    fqms::telemetry::note_controller_cycles(report.stepped_cycles, report.skipped_cycles);
    let obs = report
        .observations
        .as_ref()
        .expect("latency_cdf: spec enables observation");
    fqms::sidecar::append("latency_cdf", mode, &obs.metrics);
    let (mut rt, mut be) = (Vec::new(), Vec::new());
    for completion in report.completions.iter().flatten() {
        if (completion.thread.as_u32() as usize) < RT_THREADS {
            rt.push(completion.latency());
        } else {
            be.push(completion.latency());
        }
    }
    let dropped: u64 = report.per_thread.iter().map(|t| t.requests_dropped).sum();
    let rejected: usize = report.rejected.iter().map(Vec::len).sum();
    let accounted = report.total_completed() + dropped as usize + rejected + report.unsubmitted;
    (
        vec![
            Cdf::from_latencies(mode, "rt", rt, bound),
            Cdf::from_latencies(mode, "be", be, None),
        ],
        accounted,
        obs.metrics.bound_violations,
    )
}

/// Conservative fault allowance matching `tests/rt_wcet.rs`: each
/// refresh-pressure episode charges its duration plus one trailing
/// urgent refresh.
fn extra_blocking(plan: &FaultPlan, timing: &fqms_dram::timing::TimingParams) -> u64 {
    let inj = FaultInjector::new(&plan.salted(0));
    plan.specs
        .iter()
        .map(|s| {
            let per = match s.kind {
                FaultKind::RefreshPressure => s
                    .duration
                    .saturating_add(timing.t_rfc)
                    .saturating_add(timing.t_rp),
                _ => 0,
            };
            (inj.scheduled(s.kind) as u64).saturating_mul(per)
        })
        .fold(0u64, |a, b| a.saturating_add(b))
}

fn main() {
    let _run_log = fqms_bench::RunLog::new();
    let len = run_length();
    let seed = seed();
    let cycles = (len.instructions / 2).clamp(20_000, 200_000);
    let threads = (RT_THREADS + BE_THREADS) as u32;

    let mut base = EngineSpec::paper(1, RT_THREADS + BE_THREADS);
    base.epoch_cycles = 512;
    base.event_capacity = Some(1 << 20);

    // The workload every mode sees: real-time threads submit at most
    // BUDGET requests per PERIOD (the bound's arrival-curve assumption),
    // best-effort threads flood.
    let plain_reg = regulation(None);
    let events = realtime_workload(&plain_reg, threads, cycles, 0.7, seed);

    // Analytic bounds (fault-free, and with the fault allowance).
    let bound = bound_for(&base.timing, &base.geometry, &plain_reg, 0, 0)
        .expect("latency_cdf: fault-free regulated config is schedulable");
    let plan = FaultPlan::new(seed).with(
        FaultKind::RefreshPressure,
        FaultWindow::new(1_000, cycles),
        0.0004,
        60,
    );
    let extra = extra_blocking(&plan, &base.timing);
    let faulted_bound = bound_for(&base.timing, &base.geometry, &plain_reg, 0, extra)
        .expect("latency_cdf: faulted regulated config is schedulable");

    // The four modes: two unregulated baselines, the regulated mode, and
    // the regulated mode under refresh pressure.
    let mut fr = base.clone();
    fr.config.scheduler = SchedulerKind::FrFcfs;
    let mut regulated = base.clone();
    regulated.config = regulated.config.with_regulation(regulation(Some(bound)));
    let mut faulted = base.clone();
    faulted.config = faulted
        .config
        .with_regulation(regulation(Some(faulted_bound)));
    faulted.fault_plan = Some(plan);

    header(&[
        "mode", "class", "count", "p50", "p90", "p95", "p99", "p999", "max", "bound",
    ]);

    let mut gate_failures = Vec::new();
    let mut cdfs = Vec::new();
    for (mode, spec, mode_bound) in [
        ("fq-vftf", &base, None),
        ("fr-fcfs", &fr, None),
        ("regulated", &regulated, Some(bound)),
        ("regulated-faulted", &faulted, Some(faulted_bound)),
    ] {
        let (mode_cdfs, accounted, violations) = run_mode(mode, spec, &events, mode_bound);
        if accounted != events.len() {
            gate_failures.push(format!(
                "{mode}: conservation violated — {accounted} accounted of {} submitted",
                events.len()
            ));
        }
        if violations != 0 {
            gate_failures.push(format!(
                "{mode}: controller counted {violations} WCET violations"
            ));
        }
        for cdf in mode_cdfs {
            if let Some(b) = cdf.bound {
                if cdf.count == 0 {
                    gate_failures.push(format!("{mode}/{}: no completions", cdf.class));
                } else if cdf.max > b {
                    gate_failures.push(format!(
                        "{mode}/{}: max latency {} exceeds analytic bound {b}",
                        cdf.class, cdf.max
                    ));
                }
            }
            row(&cdf.tsv());
            cdfs.push(cdf);
        }
    }

    let no_violation = !gate_failures
        .iter()
        .any(|g| g.contains("bound") || g.contains("WCET") || g.contains("completions"));
    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"runlen\": \"{}\",\n  \"period\": {PERIOD},\n  \
         \"budget\": {BUDGET},\n  \"rt_threads\": {RT_THREADS},\n  \
         \"be_threads\": {BE_THREADS},\n  \"bound\": {bound},\n  \
         \"faulted_bound\": {faulted_bound},\n  \"cdfs\": [\n    {}\n  ],\n  \
         \"gates\": {{\n    \"no_wcet_violation\": {},\n    \"conservation\": {}\n  }}\n}}\n",
        std::env::var("FQMS_RUNLEN").unwrap_or_else(|_| "standard".into()),
        cdfs.iter()
            .map(Cdf::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        no_violation,
        gate_failures.iter().all(|g| !g.contains("conservation")),
    );
    let out = std::env::var("FQMS_BENCH_PR9").unwrap_or_else(|_| "BENCH_pr9.json".into());
    write_atomic(std::path::Path::new(&out), json.as_bytes())
        .unwrap_or_else(|e| panic!("latency_cdf: cannot write {out}: {e}"));
    eprintln!("# latency_cdf JSON written to {out}");

    if !gate_failures.is_empty() {
        for g in &gate_failures {
            eprintln!("GATE FAILED: {g}");
        }
        std::process::exit(1);
    }
}
