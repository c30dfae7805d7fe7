//! Memory controller substrate and schedulers for the Fair Queuing Memory
//! Systems reproduction.
//!
//! This crate provides the paper's Figure 2 memory controller — per-thread
//! transaction/write buffers with NACK back-pressure, an XOR physical
//! address mapping, per-bank schedulers and a channel scheduler — together
//! with the scheduling policies evaluated (or used as ablations):
//! **FR-FCFS** (baseline), **FR-VFTF**, **FQ-VFTF** (the Fair Queuing
//! memory scheduler with its bounded-priority-inversion bank scheduling
//! algorithm), a strict **FCFS** ablation, plus two slowdown-aware
//! policies (ISSUE 7): **BLISS** blacklisting ([`bliss`]) and
//! **SD-VFTF**, which scales VFT keys by the online slowdown estimate
//! ([`slowdown`]).
//!
//! The Fair Queuing machinery — per-thread Virtual Time Memory System
//! registers and the virtual-finish-time equations — lives in [`vtms`].
//!
//! Multi-channel systems compose per-channel controllers either through
//! the coupled [`multichannel::MultiChannelController`] or through the
//! sharded, thread-parallel [`engine`] (bit-identical results, one shard
//! per channel).
//!
//! # Example
//!
//! ```
//! use fqms_memctrl::prelude::*;
//! use fqms_dram::prelude::*;
//! use fqms_sim::clock::DramCycle;
//!
//! let cfg = McConfig::paper(4, SchedulerKind::FqVftf);
//! let mut mc = MemoryController::new(
//!     cfg, Geometry::paper(), TimingParams::ddr2_800(),
//! ).unwrap();
//! mc.try_submit(ThreadId::new(2), RequestKind::Read, 0x10000, DramCycle::new(0))
//!     .unwrap();
//! let mut completed = 0;
//! for c in 1..200u64 {
//!     completed += mc.step(DramCycle::new(c)).len();
//! }
//! assert_eq!(completed, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod address_map;
pub mod bliss;
pub mod buffers;
pub mod cmdlog;
pub mod config;
pub mod controller;
pub mod engine;
pub mod multichannel;
pub mod overload;
pub mod policy;
pub mod port;
pub mod regulate;
pub mod request;
pub mod select;
pub mod slowdown;
pub mod stats;
pub mod vtms;
pub mod wcet;

/// Convenient re-exports of the crate's primary types.
pub mod prelude {
    pub use crate::address_map::AddressMap;
    pub use crate::bliss::BlissState;
    pub use crate::buffers::{Nack, ShedClass, ThreadBuffers};
    pub use crate::cmdlog::{CommandLog, CommandRecord};
    pub use crate::config::{
        ClassSpec, McConfig, OverloadConfig, RegulationConfig, ShareTree, ShedConfig, TenantSpec,
        ThrottleConfig,
    };
    pub use crate::controller::{Completion, MemoryController};
    pub use crate::engine::{
        adversarial_workload, interference_workload, realtime_workload, resume_parallel,
        resume_serial, simulate_parallel, simulate_parallel_checkpointed, simulate_serial,
        simulate_serial_checkpointed, synthetic_workload, EngineReport, EngineSpec, RetryPolicy,
        SubmitEvent,
    };
    pub use crate::multichannel::MultiChannelController;
    pub use crate::overload::{OverloadState, SaturationLevel};
    pub use crate::policy::{InversionBound, Priority, RowPolicy, SchedulerKind, VftBinding};
    pub use crate::port::MemoryPort;
    pub use crate::regulate::RegulatorState;
    pub use crate::request::{MemoryRequest, RequestId, RequestKind, ThreadId};
    pub use crate::select::{IndexedHeap, SelKey, TournamentTree};
    pub use crate::slowdown::SlowdownEstimator;
    pub use crate::stats::{McStats, ThreadStats};
    pub use crate::vtms::{bank_service, update_service, Vtms};
    pub use crate::wcet::{bound_for, breakdown_for, WcetBreakdown};
    pub use fqms_obs::{
        Event, EventRing, MetricsSink, NullObserver, Observations, Observer, ThreadSink,
        TracingObserver,
    };
}

pub use prelude::*;
