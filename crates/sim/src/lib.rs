//! Simulation kernel for the Fair Queuing Memory Systems (FQMS) simulator.
//!
//! This crate provides the foundational, dependency-free building blocks that
//! every other crate in the workspace uses:
//!
//! * [`clock`] — cycle types and the two-domain clock model (CPU clock vs.
//!   DRAM command clock) used throughout the simulator,
//! * [`rng`] — a small, fully deterministic pseudo-random number generator so
//!   that every simulation is exactly reproducible from its seed,
//! * [`bitset`] — a dense fixed-capacity bit set with ascending-order and
//!   union iteration, backing the scheduler hot loop's occupancy and
//!   open-bank masks,
//! * [`stats`] — counters, running statistics, histograms, and the summary
//!   math (harmonic mean, variance) the paper's evaluation metrics need,
//! * [`parallel`] — the free-running work-stealing shard executor that runs
//!   independent simulation partitions (e.g. DDR2 channels) across worker
//!   threads with no cross-shard synchronisation between merge points, with
//!   results bit-identical to a serial run,
//! * [`fault`] — seeded fault plans compiled into deterministic episode
//!   timelines, so adversarial conditions (NACK storms, bank stalls,
//!   refresh pressure, request drops) are as reproducible as the happy
//!   path,
//! * [`snapshot`] — the versioned binary checkpoint codec (magic, format
//!   version, config fingerprint, per-section CRC) and the [`Snapshot`]
//!   trait every stateful layer implements for deterministic
//!   checkpoint/restore.
//!
//! # Example
//!
//! ```
//! use fqms_sim::clock::{ClockDomains, DramCycle};
//! use fqms_sim::stats::Summary;
//!
//! let clocks = ClockDomains::new(5); // 5 CPU cycles per DRAM cycle
//! assert_eq!(clocks.dram_to_cpu(DramCycle::new(10)).as_u64(), 50);
//!
//! let s: Summary = [1.0_f64, 2.0, 4.0].iter().copied().collect();
//! assert!((s.mean() - 7.0 / 3.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod clock;
pub mod fault;
pub mod parallel;
pub mod rng;
pub mod snapshot;
pub mod stats;

pub use bitset::DenseBitSet;
pub use clock::{ClockDomains, CpuCycle, DramCycle};
pub use fault::{Episode, FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultWindow};
pub use parallel::{
    exec_counters, for_each_shard, run_free, run_parallel, run_serial, ExecCounters, FreeRunReport,
    Shard, WorkerStats,
};
pub use rng::SimRng;
pub use snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
pub use stats::{Counter, Histogram, Ratio, Summary};
