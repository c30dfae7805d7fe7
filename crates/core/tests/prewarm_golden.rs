//! Golden digests for the cache-prewarm path.
//!
//! `SystemBuilder::build` warms every core's caches by streaming its
//! synthetic trace through L1/L2 without timing. Both kernels on that path
//! — the trace generator and the set-associative cache — are hot enough to
//! be tuned, and neither may change a single simulated bit when they are.
//! These digests were recorded from the straightforward implementations
//! (per-set `Vec`s searched by `probe` then `fill`, a generator evaluating
//! the geometric formula in full on every draw) and pin:
//!
//! - the first 200k [`TraceOp`]s of `SyntheticTrace::for_thread` for every
//!   SPEC profile plus two edge profiles: a sequential walk that wraps a
//!   4 KiB footprint with zero work between references, and one-reference
//!   bursts, whose geometric draw has `p = 1` and must consume no
//!   randomness;
//! - `System::save_snapshot()` straight after `build` (warm caches, line
//!   order inside every set, LRU stamps, hit/miss counters, generator RNG
//!   positions) for the `paper_2core` pairs and art's private baseline;
//! - the metrics of a short run with a shared L2, whose state a snapshot
//!   cannot capture.
//!
//! A mismatch prints every recomputed digest. Never update a digest to
//! make this test pass: a change here is a change to simulated output.

use fqms::system::SystemBuilder;
use fqms_cpu::trace::{TraceOp, TraceSource};
use fqms_dram::timing::TimingParams;
use fqms_memctrl::prelude::SchedulerKind;
use fqms_workloads::generator::SyntheticTrace;
use fqms_workloads::profile::WorkloadProfile;
use fqms_workloads::spec::{by_name, SPEC_PROFILES};

const SEED: u64 = 42;
const TRACE_OPS: usize = 200_000;

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

    fn op(&mut self, op: &TraceOp) {
        self.bytes(&op.work.to_le_bytes());
        match op.access {
            None => self.bytes(&[0]),
            Some(a) => {
                self.bytes(&[1]);
                self.bytes(&a.addr.to_le_bytes());
                self.bytes(&[u8::from(a.is_write), u8::from(a.dependent)]);
            }
        }
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

/// The SPEC profiles followed by the two edge profiles.
fn trace_profiles() -> Vec<WorkloadProfile> {
    let mut profiles = SPEC_PROFILES.to_vec();
    profiles.push(WorkloadProfile {
        name: "seq-wrap",
        work_per_access: 0.0,
        footprint_bytes: 4096,
        row_locality: 1.0,
        ..WorkloadProfile::stream("seq-wrap", 0.0)
    });
    profiles.push(WorkloadProfile {
        name: "unit-burst",
        burstiness: 0.2,
        burst_len: 1.0,
        ..WorkloadProfile::stream("unit-burst", 3.0)
    });
    profiles
}

const TRACE_GOLDEN: [(&str, u64); 22] = [
    ("art", 0x8499630d1beb442e),
    ("swim", 0xe80ceb5a955822b4),
    ("mgrid", 0x8f5b2ccd1db9d022),
    ("mcf", 0x98838cfad45946da),
    ("lucas", 0x34868b7a9dd271b7),
    ("applu", 0x3e93931010884d79),
    ("galgel", 0x15640741ddeb190f),
    ("equake", 0x977ef68e0c843e2a),
    ("apsi", 0x37bd225d5b379938),
    ("wupwise", 0x74ebf06d91079024),
    ("facerec", 0xcc673ab8728b201c),
    ("gap", 0x653f2cdcdbbd8452),
    ("ammp", 0xf416bdac9e06d43b),
    ("bzip2", 0x22f1fbe398f3660d),
    ("twolf", 0x530b865dbca4fe7e),
    ("vpr", 0x215e145e51689aac),
    ("gzip", 0xa53415e7c5358619),
    ("sixtrack", 0x7e21a4af4f6976e3),
    ("perlbmk", 0xa0f3af86011ecb58),
    ("crafty", 0x5ed1bbc0b8992c6f),
    ("seq-wrap", 0xc58f2e7345957c4c),
    ("unit-burst", 0xdb026b75cd09e905),
];

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

#[test]
fn synthetic_traces_match_golden() {
    let actual: Vec<(String, u64)> = trace_profiles()
        .into_iter()
        .map(|p| {
            let mut trace = SyntheticTrace::for_thread(p, SEED, 1).expect("valid profile");
            let mut h = Fnv::new();
            for _ in 0..TRACE_OPS {
                h.op(&trace.next_op());
            }
            (p.name.to_string(), h.0)
        })
        .collect();
    check("trace", &TRACE_GOLDEN, &actual);
}

fn profile(name: &str) -> WorkloadProfile {
    by_name(name).unwrap_or_else(|| panic!("profile {name} exists"))
}

const SNAPSHOT_GOLDEN: [(&str, u64); 5] = [
    ("crafty+art", 0xf9edfc206a63be62),
    ("vpr+art", 0x647e166539cd1f42),
    ("mcf+art", 0xb02c6b92016bd0a1),
    ("swim+art", 0xd3dd13c9ca602069),
    ("art private", 0x5ac6c27535fa77f5),
];

#[test]
fn warmed_snapshots_match_golden() {
    let mut actual = Vec::new();
    for subject in ["crafty", "vpr", "mcf", "swim"] {
        let sys = SystemBuilder::new()
            .scheduler(SchedulerKind::FqVftf)
            .seed(SEED)
            .workload(profile(subject))
            .workload(profile("art"))
            .build()
            .expect("valid system");
        let bytes = sys.save_snapshot().expect("snapshot");
        actual.push((format!("{subject}+art"), digest(&bytes)));
    }
    // Built exactly as `run_private_baseline` builds it (φ = 1/2).
    let sys = SystemBuilder::new()
        .scheduler(SchedulerKind::FrFcfs)
        .timing(TimingParams::ddr2_800().time_scaled(2))
        .seed(SEED)
        .workload(profile("art"))
        .build()
        .expect("valid system");
    let bytes = sys.save_snapshot().expect("snapshot");
    actual.push(("art private".to_string(), digest(&bytes)));
    check("snapshot", &SNAPSHOT_GOLDEN, &actual);
}

const SHARED_L2_GOLDEN: u64 = 0x0cc3_3ad1_6330_55f8;

#[test]
fn shared_l2_run_matches_golden() {
    let mut sys = SystemBuilder::new()
        .scheduler(SchedulerKind::FqVftf)
        .seed(SEED)
        .shared_l2(true)
        .workload(profile("mcf"))
        .workload(profile("art"))
        .build()
        .expect("valid system");
    let metrics = sys.run(2_000, 1_000_000);
    let got = digest(format!("{metrics:?}").as_bytes());
    assert_eq!(
        got, SHARED_L2_GOLDEN,
        "shared-L2 metrics digest 0x{got:016x} differs from the golden value"
    );
}
