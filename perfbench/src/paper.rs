//! `paper_2core`: the Figure 5 platform through `SystemBuilder`.
//!
//! Subjects crafty, vpr, mcf and swim each share the memory system with
//! `art` at equal shares under FR-FCFS, FR-VFTF and FQ-VFTF, and each
//! program (art included) also runs alone on the private ×2 time-scaled
//! memory system, exactly as `run_private_baseline` builds it. Every
//! system is built fresh (cache prewarm included) at a fixed instruction
//! budget.
//!
//! The traced run drives the same systems from outside: it assembles the
//! cores and the controller from their public constructors and steps the
//! `System::step` loop itself (`Core::tick`, `MemoryPort::submit` through
//! a counting wrapper, `MultiChannelController::step_into`,
//! `Core::on_completion`), with one timer per phase of each DRAM cycle.
//! Its `SystemMetrics` must equal `System::run`'s bit for bit.

use crate::common::{self, median, ratio, span, timed, Checks, Tally, NOT_APPLICABLE};
use crate::{Args, Outcome};
use fqms::baseline::run_private_baseline;
use fqms::metrics::{SystemMetrics, ThreadMetrics};
use fqms::system::SystemBuilder;
use fqms_cpu::core::{Core, CoreConfig};
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::prelude::*;
use fqms_sim::clock::{CpuCycle, DramCycle};
use fqms_sim::snapshot::Fingerprint;
use fqms_workloads::generator::SyntheticTrace;
use fqms_workloads::profile::WorkloadProfile;
use fqms_workloads::spec::by_name;
use std::time::Instant;

const SUBJECTS: [&str; 4] = ["crafty", "vpr", "mcf", "swim"];
const BACKGROUND: &str = "art";
const SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::FrFcfs,
    SchedulerKind::FrVftf,
    SchedulerKind::FqVftf,
];
/// Private baselines run on memory time-scaled by 1/φ = 2.
const BASELINE_SCALE: u64 = 2;
/// `SystemBuilder`'s CPU:DRAM clock ratio.
const CPU_RATIO: u64 = 5;
/// The traced run times individual submits on one DRAM cycle in this many
/// and scales the sampled time by the call count: a submit costs about as
/// much as the two clock reads that would time it.
const SUBMIT_SAMPLE_EVERY: u64 = 16;

/// Instructions each thread retires, and the shared runs' cycle cap
/// (baselines get twice as much, as in the figure sweep).
#[derive(Debug, Clone, Copy)]
struct Size {
    instructions: u64,
    max_dram_cycles: u64,
}

fn size(args: &Args) -> Size {
    if args.smoke {
        Size {
            instructions: 3_000,
            max_dram_cycles: 3_000_000,
        }
    } else {
        Size {
            instructions: 60_000,
            max_dram_cycles: 20_000_000,
        }
    }
}

fn profile(name: &str) -> WorkloadProfile {
    by_name(name).unwrap_or_else(|| panic!("profile {name} exists"))
}

/// One system of the sweep.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// Thread 0.
    subject: WorkloadProfile,
    /// `None` for a private baseline, else the scheduler of the shared
    /// two-core run with `art` on thread 1.
    shared: Option<SchedulerKind>,
}

impl Cell {
    fn label(&self) -> String {
        match self.shared {
            Some(s) => format!("{}+{BACKGROUND}/{}", self.subject.name, s.name()),
            None => format!("{}/private-x{BASELINE_SCALE}", self.subject.name),
        }
    }

    fn profiles(&self) -> Vec<WorkloadProfile> {
        match self.shared {
            Some(_) => vec![self.subject, profile(BACKGROUND)],
            None => vec![self.subject],
        }
    }

    fn scheduler(&self) -> SchedulerKind {
        self.shared.unwrap_or(SchedulerKind::FrFcfs)
    }

    fn timing(&self) -> TimingParams {
        match self.shared {
            Some(_) => TimingParams::ddr2_800(),
            None => TimingParams::ddr2_800().time_scaled(BASELINE_SCALE),
        }
    }

    fn cap(&self, size: Size) -> u64 {
        match self.shared {
            Some(_) => size.max_dram_cycles,
            None => size.max_dram_cycles * BASELINE_SCALE,
        }
    }

    fn builder(&self, seed: u64) -> SystemBuilder {
        SystemBuilder::new()
            .scheduler(self.scheduler())
            .timing(self.timing())
            .seed(seed)
            .workloads(self.profiles())
    }
}

/// The sweep: art's baseline, then per subject its baseline and one
/// shared run per scheduler.
fn cells() -> Vec<Cell> {
    let mut cells = vec![Cell {
        subject: profile(BACKGROUND),
        shared: None,
    }];
    for name in SUBJECTS {
        let subject = profile(name);
        cells.push(Cell {
            subject,
            shared: None,
        });
        for s in SCHEDULERS {
            cells.push(Cell {
                subject,
                shared: Some(s),
            });
        }
    }
    cells
}

/// One untraced system run: `SystemBuilder::build` then `System::run`.
struct Run {
    metrics: SystemMetrics,
    fingerprint: u64,
    build_s: f64,
    run_s: f64,
}

fn run_untraced(cell: &Cell, seed: u64, size: Size) -> Result<Run, String> {
    let (sys, build_s) = timed(|| cell.builder(seed).build());
    let mut sys = sys?;
    let (metrics, run_s) = timed(|| sys.run(size.instructions, cell.cap(size)));
    Ok(Run {
        metrics,
        fingerprint: sys.config_fingerprint(),
        build_s,
        run_s,
    })
}

/// Conditions every run must meet: all threads reached the instruction
/// budget before the cycle cap.
fn check_run(cell: &Cell, size: Size, m: &SystemMetrics, checks: &mut Checks) {
    checks.expect(m.elapsed_dram_cycles < cell.cap(size), || {
        format!("hit its cycle cap of {}", cell.cap(size))
    });
    for t in &m.threads {
        checks.expect(t.instructions >= size.instructions, || {
            format!(
                "{} retired {} < {} instructions",
                t.name, t.instructions, size.instructions
            )
        });
    }
}

fn push_metrics(fp: &mut Fingerprint, m: &SystemMetrics) {
    fp.push_u64(m.elapsed_dram_cycles)
        .push_f64(m.data_bus_utilization)
        .push_f64(m.bank_utilization);
    for t in &m.threads {
        fp.push_str(&t.name)
            .push_u64(t.instructions)
            .push_u64(t.cpu_cycles)
            .push_f64(t.ipc)
            .push_f64(t.avg_read_latency)
            .push_u64(t.p95_read_latency)
            .push_f64(t.bus_utilization)
            .push_f64(t.row_hit_rate)
            .push_u64(t.mem_reads)
            .push_u64(t.mem_writes);
    }
}

/// The paper's QoS and aggregate metrics from one sweep: min over
/// subjects of FQ-VFTF subject IPC over its private baseline IPC, and
/// the mean over subjects of the FQ-VFTF harmonic mean of both threads'
/// normalized IPCs.
fn paper_metrics(cells: &[Cell], runs: &[SystemMetrics]) -> (f64, f64) {
    let baseline = |name: &str| {
        cells
            .iter()
            .zip(runs)
            .find(|(c, _)| c.shared.is_none() && c.subject.name == name)
            .map(|(_, m)| m.threads[0].ipc)
            .expect("every program has a baseline")
    };
    let art = baseline(BACKGROUND);
    let mut qos_min = f64::INFINITY;
    let mut hmeans = Vec::new();
    for (cell, m) in cells.iter().zip(runs) {
        if cell.shared == Some(SchedulerKind::FqVftf) {
            let base = baseline(cell.subject.name);
            qos_min = qos_min.min(m.threads[0].ipc / base);
            hmeans.push(m.harmonic_mean_normalized_ipc(&[base, art]));
        }
    }
    (qos_min, hmeans.iter().sum::<f64>() / hmeans.len() as f64)
}

pub fn run(args: &Args, tally: &mut Tally) -> Outcome {
    if args.trace {
        traced(args, tally)
    } else {
        untraced(args, tally)
    }
}

struct Pass {
    setup_s: f64,
    sim_s: f64,
}

fn untraced(args: &Args, tally: &mut Tally) -> Outcome {
    let size = size(args);
    let cells = cells();
    let mut first: Option<(Vec<SystemMetrics>, Vec<u64>)> = None;
    let passes = common::repeat(args.seconds, || {
        let mut pass = Pass {
            setup_s: 0.0,
            sim_s: 0.0,
        };
        let mut metrics = Vec::new();
        let mut fingerprints = Vec::new();
        for cell in &cells {
            let mut checks = Checks::default();
            match run_untraced(cell, args.seed, size) {
                Ok(r) => {
                    pass.setup_s += r.build_s;
                    pass.sim_s += r.run_s;
                    check_run(cell, size, &r.metrics, &mut checks);
                    if let Some((m, _)) = &first {
                        checks.expect(m[metrics.len()] == r.metrics, || {
                            "a repeat of the run gave different metrics".into()
                        });
                    }
                    metrics.push(r.metrics);
                    fingerprints.push(r.fingerprint);
                }
                Err(e) => checks.0.push(e),
            }
            tally.record(&cell.label(), checks.0);
        }
        if first.is_none() && metrics.len() == cells.len() {
            first = Some((metrics, fingerprints));
        }
        pass
    });
    let Some((runs, fingerprints)) = first else {
        return Outcome::default();
    };
    let (qos_min, hmean) = paper_metrics(&cells, &runs);
    let cycles: u64 = runs.iter().map(|m| m.elapsed_dram_cycles).sum();
    let (busy, shared_cycles) = cells
        .iter()
        .zip(&runs)
        .filter(|(c, _)| c.shared.is_some())
        .fold((0.0, 0u64), |(b, n), (_, m)| {
            (
                b + m.data_bus_utilization * m.elapsed_dram_cycles as f64,
                n + m.elapsed_dram_cycles,
            )
        });
    let mut fp = common::digest("paper_2core");
    for m in &runs {
        push_metrics(&mut fp, m);
    }
    let setup_s = median(passes.iter().map(|p| p.setup_s));
    let sim_s = median(passes.iter().map(|p| p.sim_s));
    let wall_s = median(passes.iter().map(|p| p.setup_s + p.sim_s));
    Outcome {
        metrics: vec![
            ("setup_s", setup_s),
            ("wall_s", wall_s),
            ("sim_cycles_per_s", cycles as f64 / sim_s),
            ("peak_rss_mb", common::peak_rss_mb().unwrap_or(f64::NAN)),
            ("qos_min_norm_ipc", qos_min),
            ("hmean_norm_ipc", hmean),
            ("qos_p50_cycles", NOT_APPLICABLE),
            ("qos_p99_cycles", NOT_APPLICABLE),
            ("bus_util", busy / shared_cycles as f64),
            ("tenant_share_err", NOT_APPLICABLE),
        ],
        manifest: vec![
            ("passes", passes.len().to_string()),
            ("runs_per_pass", cells.len().to_string()),
            ("instructions", size.instructions.to_string()),
            ("digest", format!("\"{:016x}\"", fp.finish())),
            (
                "system_fingerprints",
                format!(
                    "[{}]",
                    fingerprints
                        .iter()
                        .map(|f| format!("\"{f:016x}\""))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ],
    }
}

/// A `MemoryPort` that counts every submit and times the ones issued
/// while `sample` is set.
struct CountingPort {
    mc: MultiChannelController,
    sample: bool,
    calls: u64,
    accepts: u64,
    sampled_calls: u64,
    sampled_s: f64,
}

impl MemoryPort for CountingPort {
    fn submit(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
    ) -> Result<RequestId, Nack> {
        self.calls += 1;
        let result = if self.sample {
            self.sampled_calls += 1;
            let mc = &mut self.mc;
            span(&mut self.sampled_s, || {
                mc.try_submit(thread, kind, phys, now)
            })
        } else {
            self.mc.try_submit(thread, kind, phys, now)
        };
        self.accepts += u64::from(result.is_ok());
        result
    }
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Default, Clone)]
struct Layers {
    build_s: f64,
    untraced_s: f64,
    traced_s: f64,
    prewarm_s: f64,
    prewarm_accesses: u64,
    core_phase_s: f64,
    submit_s: f64,
    submit_calls: u64,
    submit_accepts: u64,
    step_s: f64,
    ticks: u64,
    progress_ticks: u64,
    dram_cycles: u64,
    dead_cycles: u64,
    cycles_stepped: u64,
    cycles_skipped: u64,
    fq_ctrl_s: f64,
    fq_requests: u64,
    cmds: [u64; 5],
    bus_busy: u64,
    row_hits: u64,
    row_outcomes: u64,
}

/// `SystemBuilder::build` + `System::run`, reassembled from public calls
/// with per-phase timers.
fn run_traced(cell: &Cell, seed: u64, size: Size, l: &mut Layers) -> Result<SystemMetrics, String> {
    let t0 = Instant::now();
    let profiles = cell.profiles();
    let n = profiles.len();
    let config = McConfig::with_shares(cell.scheduler(), vec![1.0 / n as f64; n]);
    let mc = MultiChannelController::new(1, config, Geometry::paper(), cell.timing())?;
    let core_cfg = CoreConfig::paper();
    let mut cores = Vec::with_capacity(n);
    for (i, p) in profiles.iter().enumerate() {
        let trace = SyntheticTrace::for_thread(*p, seed, i as u32)?;
        let mut core = Core::new(core_cfg, ThreadId::new(i as u32), Box::new(trace))?;
        let accesses = (4 * (p.footprint_bytes / core_cfg.l1d.line_bytes)).min(4_000_000);
        span(&mut l.prewarm_s, || core.prewarm_caches(accesses));
        l.prewarm_accesses += accesses;
        cores.push(core);
    }
    let mut port = CountingPort {
        mc,
        sample: false,
        calls: 0,
        accepts: 0,
        sampled_calls: 0,
        sampled_s: 0.0,
    };
    for core in &mut cores {
        core.reset_stats();
    }
    port.mc.reset_stats(DramCycle::ZERO);

    let cap = cell.cap(size);
    let mut finish: Vec<Option<(u64, u64)>> = vec![None; n];
    let mut done = Vec::new();
    let (mut core_s, mut step_s) = (0.0, 0.0);
    let mut now = 0u64;
    let mut mark = Instant::now();
    loop {
        now += 1;
        let dram_now = DramCycle::new(now);
        port.sample = now.is_multiple_of(SUBMIT_SAMPLE_EVERY);
        let mut progressed = false;
        for sub in 0..CPU_RATIO {
            let cpu_now = CpuCycle::new(now * CPU_RATIO + sub);
            for core in &mut cores {
                let before = core.retired();
                core.tick(cpu_now, dram_now, &mut port);
                if core.retired() != before {
                    l.progress_ticks += 1;
                    progressed = true;
                }
            }
        }
        l.ticks += CPU_RATIO * n as u64;
        let stepping = Instant::now();
        core_s += (stepping - mark).as_secs_f64();
        done.clear();
        port.mc.step_into(dram_now, &mut done);
        mark = Instant::now();
        step_s += (mark - stepping).as_secs_f64();
        for c in &done {
            if c.kind == RequestKind::Read {
                let ready = CpuCycle::new(c.finish.as_u64() * CPU_RATIO + core_cfg.memory_overhead);
                cores[c.thread.as_usize()].on_completion(c, ready);
            }
        }
        if !progressed && done.is_empty() {
            l.dead_cycles += 1;
        }
        let mut all_done = true;
        for (f, core) in finish.iter_mut().zip(&cores) {
            if f.is_none() {
                if core.retired() >= size.instructions {
                    *f = Some((core.cycles(), core.retired()));
                } else {
                    all_done = false;
                }
            }
        }
        if all_done {
            break;
        }
        if now >= cap {
            for (f, core) in finish.iter_mut().zip(&cores) {
                f.get_or_insert((core.cycles(), core.retired()));
            }
            break;
        }
    }
    core_s += mark.elapsed().as_secs_f64();
    let mut mc = port.mc;
    mc.finish(DramCycle::new(now));
    l.traced_s += t0.elapsed().as_secs_f64();

    // The submit time is estimated from the sampled cycles; the core
    // phase's self time excludes it.
    let submit_s = port.sampled_s * ratio(port.calls as f64, port.sampled_calls as f64);
    l.core_phase_s += core_s - submit_s;
    l.submit_s += submit_s;
    l.submit_calls += port.calls;
    l.submit_accepts += port.accepts;
    l.step_s += step_s;
    l.dram_cycles += now;
    l.cycles_stepped += mc.stepped_cycles();
    l.cycles_skipped += mc.skipped_cycles();
    common::add_commands(&mut l.cmds, common::commands(mc.channel(0)));
    l.bus_busy += mc.bus_busy_cycles();

    let elapsed = now.max(1);
    let channels = mc.num_channels() as u64;
    let mut threads = Vec::with_capacity(n);
    let mut requests = 0;
    for (i, (core, p)) in cores.iter().zip(&profiles).enumerate() {
        let (cycles, insts) = finish[i].expect("every thread finished or was capped");
        let cycles = cycles.max(1);
        let s = mc.thread_stats(ThreadId::new(i as u32));
        let (hits, outcomes) = common::row_counts([&s]);
        l.row_hits += hits;
        l.row_outcomes += outcomes;
        requests += s.reads_completed + s.writes_completed;
        threads.push(ThreadMetrics {
            name: p.name.to_string(),
            instructions: insts,
            cpu_cycles: cycles,
            ipc: insts as f64 / cycles as f64,
            avg_read_latency: core.stats().avg_miss_latency(),
            p95_read_latency: core.latency_histogram().percentile(0.95),
            bus_utilization: s.bus_utilization(elapsed * channels),
            row_hit_rate: s.row_hit_rate(),
            mem_reads: s.reads_completed,
            mem_writes: s.writes_completed,
        });
    }
    if cell.shared == Some(SchedulerKind::FqVftf) {
        l.fq_ctrl_s += step_s + submit_s;
        l.fq_requests += requests;
    }
    Ok(SystemMetrics {
        threads,
        elapsed_dram_cycles: elapsed,
        data_bus_utilization: mc.bus_busy_cycles() as f64 / (elapsed * channels) as f64,
        bank_utilization: mc.bank_busy_cycles() as f64
            / (elapsed * u64::from(mc.total_banks())) as f64,
    })
}

fn traced(args: &Args, tally: &mut Tally) -> Outcome {
    let size = size(args);
    let cells = cells();
    let mut checked_baselines = false;
    let passes = common::repeat(args.seconds, || {
        let mut l = Layers::default();
        for cell in &cells {
            let mut checks = Checks::default();
            let reference = run_untraced(cell, args.seed, size);
            let traced = run_traced(cell, args.seed, size, &mut l);
            match (reference, traced) {
                (Ok(r), Ok(t)) => {
                    l.build_s += r.build_s;
                    l.untraced_s += r.build_s + r.run_s;
                    check_run(cell, size, &r.metrics, &mut checks);
                    checks.expect(r.metrics == t, || {
                        "the traced loop disagrees with System::run".into()
                    });
                    if cell.shared.is_none() && !checked_baselines {
                        let b = run_private_baseline(
                            cell.subject,
                            BASELINE_SCALE,
                            size.instructions,
                            cell.cap(size),
                            args.seed,
                        );
                        checks.expect(b == r.metrics.threads[0], || {
                            "SystemBuilder baseline disagrees with run_private_baseline".into()
                        });
                    }
                }
                (r, t) => checks.0.extend(r.err().into_iter().chain(t.err())),
            }
            tally.record(&cell.label(), checks.0);
        }
        checked_baselines = true;
        l
    });
    let med = |f: fn(&Layers) -> f64| median(passes.iter().map(f));
    let l = &passes[0];
    let counts = |v: u64| v as f64;
    let mut metrics = vec![
        ("system.build_s", med(|l| l.build_s)),
        ("cpu.prewarm_s", med(|l| l.prewarm_s)),
        ("cpu.prewarm_accesses", counts(l.prewarm_accesses)),
        ("cpu.tick_s", med(|l| l.core_phase_s)),
        ("cpu.ticks", counts(l.ticks)),
        (
            "cpu.tick_progress_frac",
            ratio(l.progress_ticks as f64, l.ticks as f64),
        ),
        (
            "cpu.dead_cycle_frac",
            ratio(l.dead_cycles as f64, l.dram_cycles as f64),
        ),
        ("memctrl.submit_s", med(|l| l.submit_s)),
        ("memctrl.submit_calls", counts(l.submit_calls)),
        (
            "memctrl.submit_accept_frac",
            ratio(l.submit_accepts as f64, l.submit_calls as f64),
        ),
        ("memctrl.step_s", med(|l| l.step_s)),
        ("memctrl.cycles_stepped", counts(l.cycles_stepped)),
        ("memctrl.cycles_skipped", counts(l.cycles_skipped)),
        (
            "memctrl.skip_frac",
            ratio(
                l.cycles_skipped as f64,
                (l.cycles_stepped + l.cycles_skipped) as f64,
            ),
        ),
        (
            "memctrl.us_per_req.fq_vftf",
            med(|l| 1e6 * ratio(l.fq_ctrl_s, l.fq_requests as f64)),
        ),
        (
            "dram.bus_busy_frac",
            ratio(l.bus_busy as f64, l.dram_cycles as f64),
        ),
        (
            "dram.row_hit_frac",
            ratio(l.row_hits as f64, l.row_outcomes as f64),
        ),
        (
            "trace.overhead_frac",
            med(|l| l.traced_s / l.untraced_s - 1.0),
        ),
    ];
    metrics.extend(common::command_metrics(l.cmds));
    Outcome {
        metrics,
        manifest: vec![
            ("passes", passes.len().to_string()),
            ("runs_per_pass", cells.len().to_string()),
            ("instructions", size.instructions.to_string()),
            ("submit_sample_every", SUBMIT_SAMPLE_EVERY.to_string()),
        ],
    }
}
