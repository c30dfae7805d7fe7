//! `tenants_1k`: 1024 closed-loop threads in 64 tenants on one channel.
//!
//! Every thread keeps two reads outstanding, camping on one bank (thread
//! mod banks) at a random row, and replaces each completion at once, as
//! the `scaling` study does. Shares follow the same heterogeneous
//! golden-ratio share tree. The sweep runs FQ-VFTF (indexed selection)
//! and BLISS (linear scan) to the same number of completions; with 1024
//! threads per bank-queue set, request selection dominates host time.
//!
//! The traced run times each `try_submit` and `step_into` call and must
//! reproduce the untraced run's statistics exactly.

use crate::common::{self, median, percentile, ratio, span, Checks, Tally, NOT_APPLICABLE};
use crate::{Args, Outcome};
use fqms_dram::command::{BankId, ColId, DramAddress, RankId, RowId};
use fqms_dram::device::Geometry;
use fqms_dram::timing::TimingParams;
use fqms_memctrl::prelude::*;
use fqms_sim::clock::DramCycle;
use fqms_sim::rng::SimRng;
use fqms_sim::snapshot::Fingerprint;

const THREADS: usize = 1024;
const THREADS_PER_TENANT: usize = 16;
/// Reads each thread keeps outstanding; below the buffer partition, so
/// no submit is ever refused.
const WINDOW: u32 = 2;
const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::FqVftf, SchedulerKind::Bliss];

/// Completions per scheduler in one pass. Passes are kept short (well
/// under a second each) so that a run's host-time median is taken over
/// dozens of them and a few seconds of host contention move it little.
fn target(smoke: bool) -> u64 {
    if smoke {
        4_000
    } else {
        50_000
    }
}

/// The `scaling` study's share tree: tenant shares and thread weights
/// from the golden-ratio sequence, so every thread's φ is distinct.
fn share_tree() -> ShareTree {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let spread = |i: usize| 1.0 + (i as f64 * PHI).fract();
    let tenants = THREADS / THREADS_PER_TENANT;
    let raw: Vec<f64> = (0..tenants).map(spread).collect();
    let total: f64 = raw.iter().sum();
    ShareTree {
        tenants: (0..tenants)
            .map(|t| TenantSpec {
                share: raw[t] / total,
                weights: (0..THREADS_PER_TENANT)
                    .map(|i| spread(t * THREADS_PER_TENANT + i + tenants))
                    .collect(),
            })
            .collect(),
    }
}

/// Host time split of one closed-loop run; the per-call timers are
/// only read when `TRACED`.
#[derive(Debug, Default, Clone)]
struct Times {
    setup_s: f64,
    loop_s: f64,
    submit_s: f64,
    step_s: f64,
}

/// The simulated outcome of one closed-loop run.
#[derive(Debug, PartialEq)]
struct Served {
    cycles: u64,
    submitted: u64,
    completed: u64,
    pending: usize,
    stats: Vec<ThreadStats>,
    bus_busy: u64,
    cmds: [u64; 5],
    stepped: u64,
    skipped: u64,
    /// Thread 0's read latencies, arrival to finish, in DRAM cycles.
    qos_latencies: Vec<u64>,
}

/// Runs one scheduler closed-loop to `target` completions.
fn closed_loop<const TRACED: bool>(
    scheduler: SchedulerKind,
    seed: u64,
    target: u64,
) -> Result<(Served, Times), String> {
    let mut times = Times::default();
    let geometry = Geometry::paper();
    let config = McConfig::hierarchical(scheduler, share_tree());
    let mut mc = span(&mut times.setup_s, || {
        MemoryController::new(config, geometry, TimingParams::ddr2_800())
    })?;
    let map = AddressMap::new(geometry, 64);
    let mut rng = SimRng::new(seed ^ THREADS as u64);
    let address = |t: u32, rng: &mut SimRng| {
        map.encode(DramAddress {
            rank: RankId::new(0),
            bank: BankId::new(t % geometry.banks),
            row: RowId::new(rng.next_below(u64::from(geometry.rows)) as u32),
            col: ColId::new(rng.next_below(u64::from(geometry.cols)) as u32),
        })
    };
    let submit =
        |mc: &mut MemoryController, t: u32, now: DramCycle, rng: &mut SimRng, s: &mut f64| {
            let phys = address(t, rng);
            let r = if TRACED {
                span(s, || {
                    mc.try_submit(ThreadId::new(t), RequestKind::Read, phys, now)
                })
            } else {
                mc.try_submit(ThreadId::new(t), RequestKind::Read, phys, now)
            };
            r.map_err(|nack| format!("thread {t} refused: {nack:?}"))
        };

    let start = std::time::Instant::now();
    let mut submitted = 0u64;
    for t in 0..THREADS as u32 {
        for _ in 0..WINDOW {
            submit(&mut mc, t, DramCycle::ZERO, &mut rng, &mut times.submit_s)?;
            submitted += 1;
        }
    }
    let cap = target.saturating_mul(16);
    let mut done = Vec::new();
    let mut completed = 0u64;
    let mut qos_latencies = Vec::new();
    let mut c = 0u64;
    while completed < target && c < cap {
        c += 1;
        let now = DramCycle::new(c);
        done.clear();
        if TRACED {
            span(&mut times.step_s, || {
                mc.step_into(now, &mut done, &mut NullObserver)
            });
        } else {
            mc.step_into(now, &mut done, &mut NullObserver);
        }
        for d in &done {
            completed += 1;
            if d.thread == ThreadId::new(0) {
                qos_latencies.push(d.latency());
            }
            submit(
                &mut mc,
                d.thread.as_u32(),
                now,
                &mut rng,
                &mut times.submit_s,
            )?;
            submitted += 1;
        }
    }
    times.loop_s = start.elapsed().as_secs_f64();
    mc.finish(DramCycle::new(c));
    qos_latencies.sort_unstable();
    let served = Served {
        cycles: c,
        submitted,
        completed,
        pending: mc.pending_requests(),
        stats: mc.stats().iter().map(|(_, s)| *s).collect(),
        bus_busy: mc.dram().bus_busy_cycles(),
        cmds: common::commands(&mc),
        stepped: mc.stepped_cycles(),
        skipped: mc.skipped_cycles(),
        qos_latencies,
    };
    Ok((served, times))
}

/// Closed-loop invariants: completions equal submissions minus the
/// in-flight window, and the run reached its target before the cap.
fn check(s: &Served, target: u64, checks: &mut Checks) {
    let window = (THREADS as u64) * u64::from(WINDOW);
    checks.expect(s.submitted - s.completed == window, || {
        format!(
            "submitted {} - completed {} != window {window}",
            s.submitted, s.completed
        )
    });
    checks.expect(s.pending as u64 == window, || {
        format!(
            "{} requests pending, expected the window {window}",
            s.pending
        )
    });
    let counted: u64 = s.stats.iter().map(|t| t.reads_completed).sum();
    checks.expect(counted == s.completed, || {
        format!(
            "stats count {counted} completions, the loop saw {}",
            s.completed
        )
    });
    checks.expect(s.completed >= target, || {
        format!(
            "hit its cycle cap after {} of {target} completions",
            s.completed
        )
    });
}

/// Each tenant's relative service error |served share − φ| / φ, in
/// tenant order.
fn tenant_errors(s: &Served) -> Vec<f64> {
    let total = s.completed as f64;
    share_tree()
        .tenants
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let first = i * THREADS_PER_TENANT;
            let served: u64 = s.stats[first..first + THREADS_PER_TENANT]
                .iter()
                .map(|t| t.reads_completed)
                .sum();
            (served as f64 / total - spec.share).abs() / spec.share
        })
        .collect()
}

/// Root mean square of the tenants' relative service errors. (Their
/// maximum, the largest of 64 quantization residues, moves by about a
/// quarter between seeds; it is recorded in the manifest.)
fn tenant_share_err(errors: &[f64]) -> f64 {
    (errors.iter().map(|e| e * e).sum::<f64>() / errors.len() as f64).sqrt()
}

fn push_served(fp: &mut Fingerprint, s: &Served) {
    fp.push_u64(s.cycles)
        .push_u64(s.submitted)
        .push_u64(s.completed)
        .push_u64(s.bus_busy)
        .push_str(&format!("{:?}", s.cmds));
    for t in &s.stats {
        fp.push_str(&format!("{t:?}"));
    }
    for &l in &s.qos_latencies {
        fp.push_u64(l);
    }
}

pub fn run(args: &Args, tally: &mut Tally) -> Outcome {
    if args.trace {
        traced(args, tally)
    } else {
        untraced(args, tally)
    }
}

fn untraced(args: &Args, tally: &mut Tally) -> Outcome {
    let target = target(args.smoke);
    let mut first: Option<Vec<Served>> = None;
    let passes = common::repeat(args.seconds, || {
        let mut pass = Times::default();
        let mut served = Vec::new();
        for s in SCHEDULERS {
            let mut checks = Checks::default();
            match closed_loop::<false>(s, args.seed, target) {
                Ok((out, t)) => {
                    check(&out, target, &mut checks);
                    if let Some(f) = &first {
                        checks.expect(f[served.len()] == out, || {
                            "a repeat of the run gave different statistics".into()
                        });
                    }
                    pass.setup_s += t.setup_s;
                    pass.loop_s += t.loop_s;
                    served.push(out);
                }
                Err(e) => checks.0.push(e),
            }
            tally.record(s.name(), checks.0);
        }
        if first.is_none() && served.len() == SCHEDULERS.len() {
            first = Some(served);
        }
        pass
    });
    let Some(served) = first else {
        return Outcome::default();
    };
    let fq = &served[0];
    let errors = tenant_errors(fq);
    let cycles: u64 = served.iter().map(|s| s.cycles).sum();
    let busy: u64 = served.iter().map(|s| s.bus_busy).sum();
    let loop_s = median(passes.iter().map(|p| p.loop_s));
    let mut fp = common::digest("tenants_1k");
    for s in &served {
        push_served(&mut fp, s);
    }
    Outcome {
        metrics: vec![
            ("setup_s", median(passes.iter().map(|p| p.setup_s))),
            (
                "wall_s",
                median(passes.iter().map(|p| p.setup_s + p.loop_s)),
            ),
            ("sim_cycles_per_s", cycles as f64 / loop_s),
            ("peak_rss_mb", common::peak_rss_mb().unwrap_or(f64::NAN)),
            ("qos_min_norm_ipc", NOT_APPLICABLE),
            ("hmean_norm_ipc", NOT_APPLICABLE),
            ("qos_p50_cycles", percentile(&fq.qos_latencies, 0.50) as f64),
            ("qos_p99_cycles", percentile(&fq.qos_latencies, 0.99) as f64),
            ("bus_util", busy as f64 / cycles as f64),
            ("tenant_share_err", tenant_share_err(&errors)),
        ],
        manifest: vec![
            ("passes", passes.len().to_string()),
            ("completions_per_scheduler", target.to_string()),
            ("qos_samples", fq.qos_latencies.len().to_string()),
            (
                "tenant_share_err_max",
                errors.iter().copied().fold(0.0, f64::max).to_string(),
            ),
            ("digest", format!("\"{:016x}\"", fp.finish())),
        ],
    }
}

/// Per-layer figures of one traced pass, per scheduler in
/// [`SCHEDULERS`] order.
#[derive(Debug, Default)]
struct Layers {
    traced: Vec<Times>,
    untraced_s: f64,
    traced_s: f64,
}

fn traced(args: &Args, tally: &mut Tally) -> Outcome {
    let target = target(args.smoke);
    let mut served: Vec<Served> = Vec::new();
    let passes = common::repeat(args.seconds, || {
        let mut l = Layers::default();
        for s in SCHEDULERS {
            let mut checks = Checks::default();
            let reference = closed_loop::<false>(s, args.seed, target);
            let traced = closed_loop::<true>(s, args.seed, target);
            match (reference, traced) {
                (Ok((r, rt)), Ok((t, tt))) => {
                    check(&r, target, &mut checks);
                    checks.expect(r == t, || {
                        "traced run disagrees with the untraced run".into()
                    });
                    l.untraced_s += rt.setup_s + rt.loop_s;
                    l.traced_s += tt.setup_s + tt.loop_s;
                    l.traced.push(tt);
                    if served.len() < SCHEDULERS.len() {
                        served.push(t);
                    }
                }
                (r, t) => checks.0.extend(r.err().into_iter().chain(t.err())),
            }
            tally.record(s.name(), checks.0);
        }
        l
    });
    if served.len() < SCHEDULERS.len() || passes.iter().any(|l| l.traced.len() < SCHEDULERS.len()) {
        return Outcome::default();
    }
    let sum = |f: fn(&Served) -> u64| served.iter().map(f).sum::<u64>() as f64;
    let mut cmds = [0; 5];
    for s in &served {
        common::add_commands(&mut cmds, s.cmds);
    }
    let med_times = |f: &dyn Fn(&[Times]) -> f64| median(passes.iter().map(|l| f(&l.traced)));
    let us_per_req =
        |i: usize| med_times(&|t| 1e6 * (t[i].submit_s + t[i].step_s) / served[i].completed as f64);
    let (hits, accesses) = common::row_counts(served.iter().flat_map(|s| &s.stats));
    let stepped = sum(|s| s.stepped);
    let skipped = sum(|s| s.skipped);
    let mut metrics = vec![
        (
            "memctrl.submit_s",
            med_times(&|t| t.iter().map(|t| t.submit_s).sum()),
        ),
        ("memctrl.submit_calls", sum(|s| s.submitted)),
        // Every closed-loop submit is admitted; a refusal fails the run.
        ("memctrl.submit_accept_frac", 1.0),
        (
            "memctrl.step_s",
            med_times(&|t| t.iter().map(|t| t.step_s).sum()),
        ),
        ("memctrl.cycles_stepped", stepped),
        ("memctrl.cycles_skipped", skipped),
        ("memctrl.skip_frac", ratio(skipped, stepped + skipped)),
        ("memctrl.us_per_req.fq_vftf", us_per_req(0)),
        ("memctrl.us_per_req.bliss", us_per_req(1)),
        (
            "dram.bus_busy_frac",
            sum(|s| s.bus_busy) / sum(|s| s.cycles),
        ),
        ("dram.row_hit_frac", ratio(hits as f64, accesses as f64)),
        (
            "trace.overhead_frac",
            median(passes.iter().map(|l| l.traced_s / l.untraced_s - 1.0)),
        ),
    ];
    metrics.extend(common::command_metrics(cmds));
    Outcome {
        metrics,
        manifest: vec![
            ("passes", passes.len().to_string()),
            ("completions_per_scheduler", target.to_string()),
        ],
    }
}
