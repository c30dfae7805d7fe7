//! Golden digests for the CPU-driven `System` through stalled cores.
//!
//! On the paper path most core ticks are spent stalled: a load the
//! controller NACKs because the thread's transaction buffer is full, a
//! dependent load waiting on its predecessor, a full ROB or MSHR file, a
//! store or writeback refused by a full queue. How a retry of such a tick
//! is computed may be tuned, but the retry's side effects — cache LRU
//! stamps and miss counters, controller NACK counts and events — are
//! simulated output and must not move. These digests were recorded from
//! the implementation that re-probes the caches and re-submits the request
//! on every retry, and pin:
//!
//! - for all six schedulers × {Partitioned, Shared} transaction buffers ×
//!   next-line prefetch degree {0, 2}, on a 2-core and a 4-core mix:
//!   `System::save_snapshot()` after several step counts (so snapshots
//!   land mid-stall), then the run's `SystemMetrics`, every thread's
//!   controller statistics (NACKs included), the merged observability
//!   sinks and a final snapshot;
//! - the metrics of a run whose cores share one L2 and replay the same
//!   address stream, so one core's fill lands on a line another core is
//!   retrying (a shared L2 cannot be snapshotted);
//! - a run killed mid-flight and resumed from a crash-recovery checkpoint
//!   taken every few hundred cycles, which must match the uninterrupted
//!   run.
//!
//! Every core is warmed with a short prefix of its trace, enough to fill
//! the L2 with dirty lines so writebacks start at once.
//!
//! A mismatch prints every recomputed digest. Never update a digest to
//! make this test pass: a change here is a change to simulated output.

use fqms::system::{System, SystemBuilder};
use fqms_cpu::core::CoreConfig;
use fqms_cpu::trace::{TraceOp, TraceSource};
use fqms_memctrl::policy::BufferSharing;
use fqms_memctrl::prelude::{SchedulerKind, ThreadId};
use fqms_sim::snapshot::{SectionReader, SectionWriter, SnapshotError};
use fqms_workloads::generator::SyntheticTrace;
use fqms_workloads::profile::WorkloadProfile;
use fqms_workloads::spec::by_name;
use std::sync::atomic::{AtomicBool, Ordering};

const SEED: u64 = 42;
/// Trace references streamed through each core's caches before the run.
const PREWARM: u64 = 16_384;
/// Step counts (cumulative) at which the grid snapshots the system.
const SNAP_AT: [u64; 3] = [777, 1_901, 3_313];
const INSTS: u64 = 6_000;
const MAX_CYCLES: u64 = 200_000;
const EVENT_CAPACITY: usize = 64;

const MIX_2: [&str; 2] = ["mcf", "art"];
const MIX_4: [&str; 4] = ["vpr", "swim", "mcf", "art"];

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn debug(&mut self, value: &impl std::fmt::Debug) {
        self.bytes(format!("{value:?}").as_bytes());
    }
}

/// Compares recomputed `(name, digest)` pairs with the golden ones and
/// reports every recomputed value on a mismatch.
fn check(what: &str, golden: &[(&str, u64)], actual: &[(String, u64)]) {
    let names: Vec<&str> = actual.iter().map(|(n, _)| n.as_str()).collect();
    let golden_names: Vec<&str> = golden.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, golden_names, "{what}: case list changed");
    if golden
        .iter()
        .zip(actual)
        .any(|((_, want), (_, got))| want != got)
    {
        let listing: String = actual
            .iter()
            .map(|(n, d)| format!("    ({n:?}, 0x{d:016x}),\n"))
            .collect();
        panic!("{what}: digests differ from the golden values; recomputed:\n{listing}");
    }
}

fn profile(name: &str) -> WorkloadProfile {
    by_name(name).unwrap_or_else(|| panic!("profile {name} exists"))
}

/// A builder for `mix` with every thread's trace laid out as
/// `SystemBuilder::workload` lays it out, but warmed for only
/// [`PREWARM`] references.
fn builder(scheduler: SchedulerKind, mix: &[&str]) -> SystemBuilder {
    mix.iter()
        .enumerate()
        .fold(SystemBuilder::new(), |b, (i, name)| {
            let trace =
                SyntheticTrace::for_thread(profile(name), SEED, i as u32).expect("valid profile");
            b.workload_trace(*name, Box::new(trace), PREWARM)
        })
        .scheduler(scheduler)
        .seed(SEED)
}

/// Digests the run-level outputs: metrics, per-thread controller
/// statistics, merged observability sinks.
fn digest_outputs(h: &mut Fnv, sys: &System, metrics: &fqms::metrics::SystemMetrics) {
    h.debug(metrics);
    for t in 0..sys.num_threads() {
        h.debug(&sys.controller().thread_stats(ThreadId::new(t as u32)));
    }
    h.debug(&sys.observed_metrics());
}

fn grid_case(scheduler: SchedulerKind, sharing: BufferSharing, prefetch: u32, mix: &[&str]) -> u64 {
    let core = CoreConfig {
        prefetch_degree: prefetch,
        ..CoreConfig::paper()
    };
    let mut sys = builder(scheduler, mix)
        .buffer_sharing(sharing)
        .core_config(core)
        .observe_events(EVENT_CAPACITY)
        .build()
        .expect("valid system");
    let mut h = Fnv::new();
    let mut stepped = 0;
    for at in SNAP_AT {
        while stepped < at {
            sys.step();
            stepped += 1;
        }
        h.bytes(&sys.save_snapshot().expect("snapshot"));
    }
    let metrics = sys.run(INSTS, MAX_CYCLES);
    digest_outputs(&mut h, &sys, &metrics);
    h.bytes(&sys.save_snapshot().expect("snapshot"));
    h.0
}

/// The eight grid cases of one scheduler.
fn grid(scheduler: SchedulerKind) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for mix in [&MIX_2[..], &MIX_4[..]] {
        for sharing in [BufferSharing::Partitioned, BufferSharing::Shared] {
            for prefetch in [0, 2] {
                let name = format!("{}/{sharing:?}/pf{prefetch}", mix.join("+"));
                out.push((name, grid_case(scheduler, sharing, prefetch, mix)));
            }
        }
    }
    out
}

const GRID_NAMES: [&str; 8] = [
    "mcf+art/Partitioned/pf0",
    "mcf+art/Partitioned/pf2",
    "mcf+art/Shared/pf0",
    "mcf+art/Shared/pf2",
    "vpr+swim+mcf+art/Partitioned/pf0",
    "vpr+swim+mcf+art/Partitioned/pf2",
    "vpr+swim+mcf+art/Shared/pf0",
    "vpr+swim+mcf+art/Shared/pf2",
];

fn check_grid(scheduler: SchedulerKind, golden: [u64; 8]) {
    let golden: Vec<(&str, u64)> = GRID_NAMES.into_iter().zip(golden).collect();
    check(&format!("{scheduler:?}"), &golden, &grid(scheduler));
}

#[test]
fn fcfs_grid_matches_golden() {
    check_grid(
        SchedulerKind::Fcfs,
        [
            0xe5e9_ba79_dac4_55d3,
            0x31ff_fbd0_e632_b5c9,
            0xd5ac_00f3_aa7d_821c,
            0x34b4_82a8_aa72_271d,
            0xc424_03b8_53b9_df1f,
            0x4aa5_a6ea_ef14_a194,
            0xa5fb_e75e_6192_5eea,
            0x19be_2e61_6133_418b,
        ],
    );
}

#[test]
fn fr_fcfs_grid_matches_golden() {
    check_grid(
        SchedulerKind::FrFcfs,
        [
            0xb5df_085a_b8ba_7a76,
            0x84ba_505a_12f7_7cfa,
            0x819c_ac6a_6cd2_14f5,
            0x12b1_9f32_d666_8429,
            0x0035_99ea_9b0f_db5e,
            0xb48b_bdf9_e5bb_0ba4,
            0x1854_8a0d_b1ea_031f,
            0xf8b2_90a8_3429_9904,
        ],
    );
}

#[test]
fn fr_vftf_grid_matches_golden() {
    check_grid(
        SchedulerKind::FrVftf,
        [
            0x6298_7383_8c2b_a561,
            0x2bb7_8a76_b434_390f,
            0x791e_ce80_6e5b_6180,
            0xc9f5_6a2a_fe7b_45a3,
            0x6a2c_5272_eca5_93f6,
            0x3ea5_b308_ec02_07ea,
            0xf6d2_1aee_9a67_efff,
            0x7fd6_89fd_6079_ee76,
        ],
    );
}

#[test]
fn fq_vftf_grid_matches_golden() {
    check_grid(
        SchedulerKind::FqVftf,
        [
            0xa67e_50e0_bd63_d016,
            0xff7b_a05e_9b39_416b,
            0xe9a2_15db_fb3a_efa2,
            0xa9c4_2533_5507_24f5,
            0xe03e_98e8_22bd_dd6d,
            0xa963_b7a3_6020_b5eb,
            0xbfa6_f915_17e3_809f,
            0xf0ed_aca0_8fbb_b426,
        ],
    );
}

#[test]
fn bliss_grid_matches_golden() {
    check_grid(
        SchedulerKind::Bliss,
        [
            0xca58_f312_7405_767a,
            0xa387_81bc_2b1f_a50d,
            0xc9d9_a8dc_ca16_5ba5,
            0xf55e_74a3_db8e_e474,
            0x06cf_3343_8678_47c5,
            0x5836_fcfc_4b8c_60d3,
            0x8055_9c9a_d6b2_699f,
            0xe3b4_100c_3339_09af,
        ],
    );
}

#[test]
fn sd_vftf_grid_matches_golden() {
    check_grid(
        SchedulerKind::SdVftf,
        [
            0xa7ef_7873_fa44_9c38,
            0x270c_80ec_80a8_015c,
            0xd97b_995d_dc92_353d,
            0xc221_ff3b_151a_52ec,
            0xc992_0040_5a18_3608,
            0xf5db_219e_185c_fa98,
            0x5db0_af4e_e8e9_ba31,
            0x0606_5233_a600_b4c4,
        ],
    );
}

const SHARED_L2_GOLDEN: u64 = 0x629a_33f0_2618_238a;

#[test]
fn shared_l2_run_matches_golden() {
    // Both cores replay one address stream in one region, so a line one
    // core is retrying is often filled by the other core's miss; the
    // shared transaction-buffer pool lets one core be refused while it
    // has no read of its own in flight.
    let mut b = SystemBuilder::new()
        .scheduler(SchedulerKind::FqVftf)
        .seed(SEED)
        .shared_l2(true)
        .buffer_sharing(BufferSharing::Shared)
        .observe_events(EVENT_CAPACITY);
    for _ in 0..2 {
        let trace = SyntheticTrace::new(profile("art"), SEED, 0).expect("valid profile");
        b = b.workload_trace("art", Box::new(trace), PREWARM);
    }
    let mut sys = b.build().expect("valid system");
    let metrics = sys.run(INSTS, MAX_CYCLES);
    let mut h = Fnv::new();
    digest_outputs(&mut h, &sys, &metrics);
    assert_eq!(
        h.0, SHARED_L2_GOLDEN,
        "shared-L2 digest 0x{:016x} differs from the golden value",
        h.0
    );
}

/// A synthetic trace that panics after `crash_at` ops while `armed`,
/// standing in for a killed process.
struct CrashingTrace {
    inner: SyntheticTrace,
    ops: u64,
    crash_at: u64,
    armed: &'static AtomicBool,
}

impl TraceSource for CrashingTrace {
    fn next_op(&mut self) -> TraceOp {
        self.ops += 1;
        if self.ops == self.crash_at && self.armed.load(Ordering::SeqCst) {
            panic!("injected crash after {} trace ops", self.ops);
        }
        self.inner.next_op()
    }

    fn save_state(&self, w: &mut SectionWriter) -> Result<(), SnapshotError> {
        self.inner.save_state(w)
    }

    fn restore_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        self.inner.restore_state(r)
    }
}

const RESUME_GOLDEN: u64 = 0xa5ac_1729_0557_98cd;

#[test]
fn killed_and_resumed_run_matches_golden() {
    static ARMED: AtomicBool = AtomicBool::new(false);
    let dir = std::env::temp_dir().join(format!("fqms-stall-golden-{}-resume", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = |checkpoints: bool| {
        let mut b = SystemBuilder::new()
            .scheduler(SchedulerKind::FqVftf)
            .seed(SEED)
            .observe_events(EVENT_CAPACITY)
            .checkpoint_every(250);
        for (i, name) in MIX_2.iter().enumerate() {
            let trace = CrashingTrace {
                inner: SyntheticTrace::for_thread(profile(name), SEED, i as u32)
                    .expect("valid profile"),
                ops: 0,
                // Thread 0 (mcf) dies partway through the measured run.
                crash_at: if i == 0 { PREWARM + 1_000 } else { u64::MAX },
                armed: &ARMED,
            };
            b = b.workload_trace(*name, Box::new(trace), PREWARM);
        }
        if checkpoints {
            b = b.checkpoint_dir(&dir);
        }
        b.build().expect("valid system")
    };
    let digest = |sys: &mut System| {
        let metrics = sys.run(INSTS, MAX_CYCLES);
        let mut h = Fnv::new();
        digest_outputs(&mut h, sys, &metrics);
        h.0
    };

    let reference = digest(&mut build(false));

    ARMED.store(true, Ordering::SeqCst);
    let crashed =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| digest(&mut build(true))));
    ARMED.store(false, Ordering::SeqCst);
    assert!(crashed.is_err(), "the injected crash should have fired");
    let resumed = digest(&mut build(true));
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(
        resumed, reference,
        "resumed run diverged from the reference"
    );
    assert_eq!(
        resumed, RESUME_GOLDEN,
        "resumed digest 0x{resumed:016x} differs from the golden value"
    );
}
