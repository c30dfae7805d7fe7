//! `engine_dense` and `engine_sparse`: pre-materialized `SubmitEvent`
//! schedules through the channel-sharded engine.
//!
//! Dense traffic (`synthetic_workload`: 4 threads, intensity 0.6, 30%
//! writes, uniform lines, 4 channels) keeps every channel busy, so the
//! fast path skips almost nothing. Sparse traffic (`interference_workload`
//! on 64 channels: a read-only small-footprint QoS thread 0 plus heavy
//! 30%-write streamers at low intensity) leaves ~99% of channel-cycles
//! idle, so the event horizon does the work.
//!
//! The measured call is `simulate_parallel` at `available_parallelism`
//! workers; every run is checked against `simulate_serial` and against
//! the conservation law. The traced run times `simulate_serial` and
//! `simulate_parallel` and drives each channel's `MemoryController` from
//! outside with the engine's own submit/fast-forward loop, whose report
//! must equal `simulate_serial`'s.

use crate::common::{self, median, percentile, ratio, span, timed, Checks, Tally, NOT_APPLICABLE};
use crate::{Args, Outcome};
use fqms_memctrl::prelude::*;
use fqms_sim::clock::DramCycle;
use fqms_sim::parallel::exec_counters;
use fqms_sim::snapshot::Fingerprint;
use std::collections::VecDeque;

/// Set-up is timed this many times per pass and its median kept: one
/// construction of the channels takes well under a millisecond.
const SETUP_REPEATS: usize = 21;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Dense,
    Sparse,
}

impl Traffic {
    fn name(self) -> &'static str {
        match self {
            Traffic::Dense => "engine_dense",
            Traffic::Sparse => "engine_sparse",
        }
    }

    /// Generated cycles of traffic.
    fn cycles(self, smoke: bool) -> u64 {
        match (self, smoke) {
            (Traffic::Dense, false) => 150_000,
            (Traffic::Sparse, false) => 6_000_000,
            (_, true) => 4_000,
        }
    }

    /// The engine spec and the submission schedule for `seed`.
    fn inputs(self, seed: u64, smoke: bool) -> (EngineSpec, Vec<SubmitEvent>) {
        let cycles = self.cycles(smoke);
        let (mut spec, events) = match self {
            Traffic::Dense => (
                EngineSpec::paper(4, 4),
                synthetic_workload(4, cycles, 0.6, seed),
            ),
            Traffic::Sparse => (
                EngineSpec::paper(64, 4),
                interference_workload(4, cycles, 0.005, 0.015, seed),
            ),
        };
        spec.max_cycles = 64 * cycles;
        (spec, events)
    }
}

fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The engine's set-up: constructing one controller per channel, as the
/// engine does before it routes the schedule.
fn setup(spec: &EngineSpec) -> Result<Vec<MemoryController>, String> {
    (0..spec.num_channels)
        .map(|_| MemoryController::new(spec.config.clone(), spec.geometry, spec.timing))
        .collect()
}

/// Conservation, drain and cap checks on one report.
fn check_report(spec: &EngineSpec, events: &[SubmitEvent], r: &EngineReport, checks: &mut Checks) {
    let dropped: u64 = r.per_thread.iter().map(|t| t.requests_dropped).sum();
    let accounted = r.total_completed() as u64
        + dropped
        + r.total_rejected() as u64
        + r.total_shed() as u64
        + r.unsubmitted as u64;
    checks.expect(accounted == events.len() as u64, || {
        format!(
            "conservation: completed+dropped+rejected+shed+unsubmitted = {accounted} != {} submitted",
            events.len()
        )
    });
    checks.expect(r.unsubmitted == 0, || {
        format!("{} events never submitted", r.unsubmitted)
    });
    checks.expect(r.cycles < spec.max_cycles, || {
        format!("hit its cycle cap of {}", spec.max_cycles)
    });
}

fn push_report(fp: &mut Fingerprint, r: &EngineReport) {
    fp.push_u64(r.cycles)
        .push_u64(r.bus_busy_cycles)
        .push_u64(r.unsubmitted as u64)
        .push_u64(r.stepped_cycles)
        .push_u64(r.skipped_cycles)
        .push_u64(r.total_rejected() as u64)
        .push_u64(r.total_shed() as u64);
    for t in &r.per_thread {
        fp.push_str(&format!("{t:?}"));
    }
    for ch in &r.completions {
        fp.push_u64(ch.len() as u64);
        for c in ch {
            fp.push_u64(c.id.as_u64())
                .push_u64(c.thread.as_usize() as u64)
                .push_u64(u64::from(c.kind == RequestKind::Write))
                .push_u64(c.arrival.as_u64())
                .push_u64(c.finish.as_u64());
        }
    }
}

/// Thread 0's read latencies in DRAM cycles, arrival to finish, sorted.
fn qos_latencies(r: &EngineReport) -> Vec<u64> {
    let mut lat: Vec<u64> = r
        .completions
        .iter()
        .flatten()
        .filter(|c| c.thread == ThreadId::new(0) && c.kind == RequestKind::Read)
        .map(|c| c.latency())
        .collect();
    lat.sort_unstable();
    lat
}

pub fn run(traffic: Traffic, args: &Args, tally: &mut Tally) -> Outcome {
    let (spec, events) = traffic.inputs(args.seed, args.smoke);
    let mut checks = Checks::default();
    let serial = simulate_serial(&spec, &events);
    let serial = match serial {
        Ok(r) => {
            check_report(&spec, &events, &r, &mut checks);
            Some(r)
        }
        Err(e) => {
            checks.0.push(e);
            None
        }
    };
    tally.record("simulate_serial", checks.0);
    let Some(serial) = serial else {
        return Outcome::default();
    };
    let mut fp = common::digest(traffic.name());
    push_report(&mut fp, &serial);
    let mut manifest = vec![
        ("digest", format!("\"{:016x}\"", fp.finish())),
        ("events", events.len().to_string()),
        ("channels", spec.num_channels.to_string()),
        ("workers", workers().to_string()),
        (
            "engine_fingerprint",
            format!("\"{:016x}\"", spec.fingerprint(&events)),
        ),
    ];
    let mut outcome = if args.trace {
        traced(&spec, &events, &serial, args, tally)
    } else {
        untraced(&spec, &events, &serial, args, tally)
    };
    manifest.append(&mut outcome.manifest);
    outcome.manifest = manifest;
    outcome
}

/// Runs `simulate_parallel` and checks it against the serial reference.
fn parallel(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    serial: &EngineReport,
    tally: &mut Tally,
) -> Option<(EngineReport, f64)> {
    let mut checks = Checks::default();
    let (report, secs) = timed(|| simulate_parallel(spec, events, workers()));
    let out = match report {
        Ok(r) => {
            check_report(spec, events, &r, &mut checks);
            checks.expect(r == *serial, || {
                "simulate_parallel != simulate_serial".into()
            });
            Some((r, secs))
        }
        Err(e) => {
            checks.0.push(e);
            None
        }
    };
    tally.record("simulate_parallel", checks.0);
    out
}

struct Pass {
    setup_s: f64,
    wall_s: f64,
}

fn untraced(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    serial: &EngineReport,
    args: &Args,
    tally: &mut Tally,
) -> Outcome {
    let passes = common::repeat(args.seconds, || {
        let setup_s = median((0..SETUP_REPEATS).map(|_| {
            let (channels, secs) = timed(|| setup(spec));
            assert!(channels.is_ok(), "the engine spec is valid");
            let _ = std::hint::black_box(channels);
            secs
        }));
        let wall_s = parallel(spec, events, serial, tally).map_or(f64::NAN, |(_, s)| s);
        Pass { setup_s, wall_s }
    });
    let wall_s = median(passes.iter().map(|p| p.wall_s));
    let channel_cycles = serial.cycles * spec.num_channels as u64;
    let lat = qos_latencies(serial);
    Outcome {
        metrics: vec![
            ("setup_s", median(passes.iter().map(|p| p.setup_s))),
            ("wall_s", wall_s),
            ("sim_cycles_per_s", channel_cycles as f64 / wall_s),
            ("peak_rss_mb", common::peak_rss_mb().unwrap_or(f64::NAN)),
            ("qos_min_norm_ipc", NOT_APPLICABLE),
            ("hmean_norm_ipc", NOT_APPLICABLE),
            ("qos_p50_cycles", percentile(&lat, 0.50) as f64),
            ("qos_p99_cycles", percentile(&lat, 0.99) as f64),
            (
                "bus_util",
                serial.bus_busy_cycles as f64 / channel_cycles as f64,
            ),
            ("tenant_share_err", NOT_APPLICABLE),
        ],
        manifest: vec![
            ("passes", passes.len().to_string()),
            ("cycles", serial.cycles.to_string()),
            ("qos_samples", lat.len().to_string()),
        ],
    }
}

/// Host time and work counts of the outside-in per-channel replay.
#[derive(Debug, Default)]
struct Replay {
    submit_s: f64,
    submit_calls: u64,
    submit_accepts: u64,
    step_s: f64,
}

/// One channel's share of [`simulate_serial`]: its controller, its
/// pre-routed schedule and its completions.
struct Channel {
    mc: MemoryController,
    queue: VecDeque<SubmitEvent>,
    /// Cycle before which a NACKed head is not resubmitted.
    head_ready_at: u64,
    completions: Vec<Completion>,
}

/// The engine's per-channel loop for one epoch window `(start, end]`,
/// under immediate retry and no overload control: fast-forward while no
/// submission is due, otherwise submit what is due and step one cycle.
/// Returns whether the channel still holds work.
fn replay_epoch(ch: &mut Channel, start: u64, end: u64, d: &mut Replay) -> bool {
    let mut now = start;
    while now < end {
        let next_due = ch
            .queue
            .front()
            .map_or(u64::MAX, |e| e.at.as_u64().max(ch.head_ready_at));
        if next_due > now + 1 {
            let stop = end.min(next_due - 1);
            let (mc, out) = (&mut ch.mc, &mut ch.completions);
            span(&mut d.step_s, || {
                mc.tick_until(DramCycle::new(now), DramCycle::new(stop), out)
            });
            now = stop;
            continue;
        }
        now += 1;
        let cycle = DramCycle::new(now);
        while let Some(&ev) = ch.queue.front() {
            if ev.at.as_u64() > now || ch.head_ready_at > now {
                break;
            }
            let mc = &mut ch.mc;
            let result = span(&mut d.submit_s, || {
                mc.try_submit(ev.thread, ev.kind, ev.phys, cycle)
            });
            d.submit_calls += 1;
            if result.is_ok() {
                d.submit_accepts += 1;
                ch.queue.pop_front();
                ch.head_ready_at = 0;
            } else {
                ch.head_ready_at = now + 1;
                break;
            }
        }
        let (mc, out) = (&mut ch.mc, &mut ch.completions);
        span(&mut d.step_s, || {
            mc.step_into(cycle, out, &mut NullObserver)
        });
    }
    !(ch.queue.is_empty() && ch.mc.is_idle())
}

/// [`simulate_serial`] reassembled from per-channel controller calls.
fn replay_channels(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    d: &mut Replay,
) -> Result<(EngineReport, Vec<MemoryController>), String> {
    if spec.retry != RetryPolicy::immediate() || spec.config.overload.is_some() {
        return Err(
            "the per-channel replay models immediate retry without overload control".into(),
        );
    }
    let n = spec.num_channels;
    let mut channels = Vec::with_capacity(n);
    for (i, mut mc) in setup(spec)?.into_iter().enumerate() {
        mc.set_id_numbering(i as u64, n as u64);
        channels.push(Channel {
            mc,
            queue: VecDeque::new(),
            head_ready_at: 0,
            completions: Vec::new(),
        });
    }
    for ev in events {
        let (ch, local) = MultiChannelController::localize(spec.config.line_bytes, n, ev.phys);
        channels[ch]
            .queue
            .push_back(SubmitEvent { phys: local, ..*ev });
    }
    // Channels are independent, so each runs the serial executor's epoch
    // windows to its own drain; the run ends at the last drain.
    let mut reached = 0;
    for ch in &mut channels {
        let mut start = 0;
        while start < spec.max_cycles {
            let end = spec.max_cycles.min(start + spec.epoch_cycles);
            let active = replay_epoch(ch, start, end, d);
            start = end;
            if !active {
                break;
            }
        }
        reached = reached.max(start);
    }
    let threads = spec.config.num_threads();
    let mut report = EngineReport {
        cycles: reached,
        per_thread: vec![ThreadStats::default(); threads],
        completions: Vec::with_capacity(n),
        command_logs: Vec::new(),
        bus_busy_cycles: 0,
        unsubmitted: 0,
        rejected: vec![Vec::new(); n],
        shed: vec![Vec::new(); n],
        stepped_cycles: 0,
        skipped_cycles: 0,
        observations: None,
    };
    let mut mcs = Vec::with_capacity(n);
    for mut ch in channels {
        ch.mc.finish(DramCycle::new(reached));
        for (t, agg) in report.per_thread.iter_mut().enumerate() {
            agg.merge(ch.mc.stats().thread(ThreadId::new(t as u32)));
        }
        report.bus_busy_cycles += ch.mc.dram().bus_busy_cycles();
        report.unsubmitted += ch.queue.len();
        report.stepped_cycles += ch.mc.stepped_cycles();
        report.skipped_cycles += ch.mc.skipped_cycles();
        report.completions.push(ch.completions);
        mcs.push(ch.mc);
    }
    Ok((report, mcs))
}

/// Per-layer figures of one traced pass.
#[derive(Debug, Default)]
struct Layers {
    serial_s: f64,
    parallel_s: f64,
    steals: u64,
    spans: u64,
    replay_s: f64,
    replay: Replay,
    cmds: [u64; 5],
}

fn traced(
    spec: &EngineSpec,
    events: &[SubmitEvent],
    serial: &EngineReport,
    args: &Args,
    tally: &mut Tally,
) -> Outcome {
    let passes = common::repeat(args.seconds, || {
        let mut l = Layers::default();
        let mut checks = Checks::default();
        let (reference, serial_s) = timed(|| simulate_serial(spec, events));
        l.serial_s = serial_s;
        checks.expect(reference.as_ref() == Ok(serial), || {
            "a repeat of simulate_serial gave a different report".into()
        });
        tally.record("simulate_serial", checks.0);

        let before = exec_counters();
        if let Some((_, secs)) = parallel(spec, events, serial, tally) {
            l.parallel_s = secs;
        }
        let after = exec_counters();
        l.steals = after.steals - before.steals;
        l.spans = after.free_run_spans - before.free_run_spans;

        let mut checks = Checks::default();
        let mut replay = Replay::default();
        let (replayed, replay_s) = timed(|| replay_channels(spec, events, &mut replay));
        l.replay_s = replay_s;
        l.replay = replay;
        match replayed {
            Ok((report, mcs)) => {
                checks.expect(report == *serial, || {
                    "per-channel replay disagrees with simulate_serial".into()
                });
                for mc in &mcs {
                    common::add_commands(&mut l.cmds, common::commands(mc));
                }
            }
            Err(e) => checks.0.push(e),
        }
        tally.record("per-channel replay", checks.0);
        l
    });
    let med = |f: fn(&Layers) -> f64| median(passes.iter().map(f));
    let l = &passes[0];
    let channel_cycles = (serial.cycles * spec.num_channels as u64) as f64;
    let (hits, accesses) = common::row_counts(&serial.per_thread);
    let counts = |v: u64| v as f64;
    let total_cycles = serial.stepped_cycles + serial.skipped_cycles;
    // `EngineSpec::paper` schedules with FQ-VFTF.
    let us_per_req = med(|l| 1e6 * (l.replay.submit_s + l.replay.step_s));
    let mut metrics = vec![
        ("memctrl.submit_s", med(|l| l.replay.submit_s)),
        ("memctrl.submit_calls", counts(l.replay.submit_calls)),
        (
            "memctrl.submit_accept_frac",
            ratio(l.replay.submit_accepts as f64, l.replay.submit_calls as f64),
        ),
        ("memctrl.step_s", med(|l| l.replay.step_s)),
        ("memctrl.cycles_stepped", counts(serial.stepped_cycles)),
        ("memctrl.cycles_skipped", counts(serial.skipped_cycles)),
        (
            "memctrl.skip_frac",
            ratio(serial.skipped_cycles as f64, total_cycles as f64),
        ),
        (
            "memctrl.us_per_req.fq_vftf",
            us_per_req / serial.total_completed() as f64,
        ),
        (
            "dram.bus_busy_frac",
            serial.bus_busy_cycles as f64 / channel_cycles,
        ),
        ("dram.row_hit_frac", ratio(hits as f64, accesses as f64)),
        ("sim.serial_s", med(|l| l.serial_s)),
        ("sim.parallel_s", med(|l| l.parallel_s)),
        ("sim.parallel_speedup", med(|l| l.serial_s / l.parallel_s)),
        ("sim.steals", med(|l| l.steals as f64)),
        ("sim.free_run_spans", med(|l| l.spans as f64)),
        (
            "trace.overhead_frac",
            med(|l| l.replay_s / l.serial_s - 1.0),
        ),
    ];
    metrics.extend(common::command_metrics(l.cmds));
    Outcome {
        metrics,
        manifest: vec![("passes", passes.len().to_string())],
    }
}
