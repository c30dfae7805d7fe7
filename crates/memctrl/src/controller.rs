//! The memory controller: transaction admission, bank schedulers, channel
//! scheduler, VTMS updates, refresh, and the closed-row policy.
//!
//! Structure mirrors the paper's Figure 2: a logical priority queue and a
//! bank scheduler per SDRAM bank feeding a channel scheduler that issues at
//! most one command per DRAM cycle. Each bank scheduler selects the
//! highest-priority pending request for its bank and generates that
//! request's next SDRAM command; the channel scheduler picks the
//! highest-priority *ready* command across banks.
//!
//! # Virtual-finish-time binding
//!
//! The paper evaluates the "second solution" of Section 3.2: virtual finish
//! times are calculated *just before requests are scheduled to begin
//! service* — when a request becomes a thread's oldest first-ready request
//! — and the VTMS registers are updated as each SDRAM command actually
//! issues (Equations 8 and 9, Table 4). We implement that as lazy, cached
//! binding: a request's VFT is computed (from the bank's state at that
//! moment, per Table 3) the first time the bank scheduler evaluates it as a
//! ready candidate — i.e. when it first becomes first-ready — or, under the
//! FQ bank scheduler's locked mode, when the bank scheduler must rank it.
//! Once bound, the VFT is stable for the request's lifetime.

use crate::address_map::AddressMap;
use crate::bliss::BlissState;
use crate::buffers::{Nack, ThreadBuffers};
use crate::cmdlog::{CommandLog, CommandRecord};
use crate::config::McConfig;
use crate::overload::OverloadState;
use crate::policy::{BufferSharing, Priority, RefreshPolicy, RowPolicy, SchedulerKind, VftBinding};
use crate::regulate::RegulatorState;
use crate::request::{MemoryRequest, RequestId, RequestKind, ThreadId};
use crate::select::{BankQueue, Pending, ThreadTiers, TIERS};
use crate::slowdown::SlowdownEstimator;
use crate::stats::McStats;
use crate::vtms::{bank_service, Vtms};
use fqms_dram::command::{BankId, ColId, Command, DramAddress, RankId, RowId};
use fqms_dram::device::{DramDevice, Geometry};
use fqms_dram::timing::TimingParams;
use fqms_obs::{Event, NullObserver, Observer};
use fqms_sim::bitset::DenseBitSet;
use fqms_sim::clock::{DramCycle, NextEvent};
use fqms_sim::fault::{FaultInjector, FaultKind, FaultPlan};
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// A request whose service has finished from the requester's perspective:
/// for reads, the last data beat has arrived; for writes, the line has been
/// issued to the SDRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The completed request's id.
    pub id: RequestId,
    /// Originating thread.
    pub thread: ThreadId,
    /// Read or write.
    pub kind: RequestKind,
    /// Arrival cycle at the controller.
    pub arrival: DramCycle,
    /// Completion cycle.
    pub finish: DramCycle,
}

impl Completion {
    /// The request's controller-resident latency in DRAM cycles.
    pub fn latency(&self) -> u64 {
        self.finish - self.arrival
    }
}

/// A command proposed by a bank scheduler to the channel scheduler.
#[derive(Debug, Clone, Copy)]
struct Proposal {
    cmd: Command,
    prio: Priority,
    /// `(global_bank_index, queue_slot)` of the owning request (a stable
    /// [`BankQueue`] slot, not a position); `None` for unowned commands
    /// (closed-row idle precharges).
    source: Option<(usize, usize)>,
}

/// Memoized bank-scheduler decision for one bank.
///
/// A bank scheduler's proposal is a pure function of (queue contents,
/// open row, bank-level readiness per command class, FQ lock engagement,
/// the bound VFTs) — and all of those are stable between the events that
/// dirty them. The cache is therefore keyed on the *live-probed*
/// [`ReadyClasses`] and lock flag (cheap: a handful of integer compares
/// per cycle) and explicitly invalidated on queue mutation (enqueue,
/// CAS dequeue) and on any command issued to the bank (which is what
/// changes the open row, the timing state the probe reads, and the
/// request's pending-command classification). Everything else — VFT keys
/// once bound, arrival keys, queue order — cannot change while the key
/// matches, so a hit replays the cached proposal without rescanning the
/// queue.
#[derive(Debug, Clone, Copy)]
struct BankCache {
    valid: bool,
    ready: ReadyClasses,
    locked: bool,
    proposal: Option<Proposal>,
}

impl BankCache {
    fn empty() -> Self {
        BankCache {
            valid: false,
            ready: ReadyClasses::NONE,
            locked: false,
            proposal: None,
        }
    }
}

/// Runtime state of an attached fault plan (see
/// [`MemoryController::set_fault_plan`]). All episode timing is
/// precompiled in the injector; this struct only caches the consequences
/// of activation edges so hot-path predicates stay cheap `&self` reads.
#[derive(Debug, Clone)]
struct FaultState {
    injector: FaultInjector,
    /// Per-global-bank stall deadline: the bank scheduler proposes nothing
    /// while `now < stall_until[bank]`.
    stall_until: Vec<u64>,
    /// Refresh is forced urgent while `now < pressure_until` (cached on
    /// the activation edge so `refresh_wanted` stays `&self`).
    pressure_until: u64,
    /// Scratch for draining due request-drop selectors without
    /// reallocating.
    drop_scratch: Vec<u64>,
}

/// Per-thread starvation watchdog (see `McConfig::starvation_threshold`).
/// Purely observational: it counts and reports stalls, never alters
/// scheduling.
#[derive(Debug, Clone)]
struct WatchdogState {
    threshold: u64,
    /// Last cycle each thread made progress (admission or completion).
    last_progress: Vec<DramCycle>,
    /// True once the watchdog fired for the current stall episode; re-arms
    /// on the thread's next progress.
    tripped: Vec<bool>,
    /// Earliest cycle any untripped thread with pending work could reach
    /// its stall deadline (`u64::MAX` when none is armed). The per-cycle
    /// check is a single compare against this; the O(threads) deadline
    /// scan runs only when a deadline actually lands. May run stale-low
    /// (a thread progressed after the deadline was recorded), which costs
    /// one extra scan-and-recompute — never a missed trip: deadlines only
    /// move *later* on progress, and [`MemoryController::note_progress`]
    /// pulls `next_due` down when a new deadline is armed.
    next_due: u64,
}

/// The memory controller.
///
/// Drive it by calling [`MemoryController::try_submit`] as requests arrive
/// and [`MemoryController::step`] exactly once per DRAM cycle with a
/// strictly increasing cycle number.
///
/// # Example
///
/// ```
/// use fqms_memctrl::prelude::*;
/// use fqms_dram::prelude::*;
/// use fqms_sim::clock::DramCycle;
///
/// let cfg = McConfig::paper(2, SchedulerKind::FqVftf);
/// let mut mc = MemoryController::new(
///     cfg, Geometry::paper(), TimingParams::ddr2_800(),
/// ).unwrap();
/// mc.try_submit(ThreadId::new(0), RequestKind::Read, 0x4000, DramCycle::new(0))
///     .unwrap();
/// let mut done = Vec::new();
/// for c in 1..100u64 {
///     done.extend(mc.step(DramCycle::new(c)));
/// }
/// assert_eq!(done.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryController {
    config: McConfig,
    dram: DramDevice,
    map: AddressMap,
    /// Pending request queue per global bank: admission order plus the
    /// tiered selection index (see [`crate::select`]).
    queues: Vec<BankQueue>,
    /// Each thread's priority tier and queued entries, present exactly
    /// when a tier source (BLISS or regulation) is configured; without
    /// one every entry stays in tier 0.
    tiers: Option<ThreadTiers>,
    buffers: Vec<ThreadBuffers>,
    vtms: Vec<Vtms>,
    inflight_reads: Vec<Completion>,
    next_id: u64,
    id_stride: u64,
    stats: McStats,
    /// Resolved priority-inversion bound `x` in cycles (None = unbounded).
    inversion_cycles: Option<u64>,
    last_step: Option<DramCycle>,
    /// Optional bounded trace of issued commands.
    cmd_log: Option<CommandLog>,
    /// Per-bank edge detector for [`Event::InversionLock`]: true while the
    /// bank's FQ scheduler is in locked mode and the trip has been
    /// reported for the current activation. Only written under
    /// `O::ENABLED`, so it never influences scheduling.
    lock_armed: Vec<bool>,
    /// Memoized bank-scheduler decisions (see [`BankCache`]).
    bank_cache: Vec<BankCache>,
    /// Requests across all bank queues; tracks
    /// `queues.iter().map(Vec::len).sum()` incrementally.
    queued: usize,
    /// Global indices of banks with a non-empty queue, maintained at the
    /// three queue mutation points (submit, CAS dequeue, fault drop) and
    /// rebuilt on restore. Unioned with the device's open-bank mask, this
    /// is exactly the set of banks that can propose anything — the
    /// scheduler hot loop visits only those, in ascending index order (the
    /// order the dense scan used, which channel-arbitration tie-breaking
    /// depends on).
    occupied: DenseBitSet,
    /// Reusable scratch for the masked scheduler sweep (the union is
    /// materialised once per stepped cycle into this buffer so the loop
    /// body can borrow `self` mutably; no per-cycle allocation).
    sched_scratch: Vec<usize>,
    /// Transaction-buffer entries in use summed over threads (shared-pool
    /// admission check without iterating the buffers).
    tx_used: usize,
    /// Write-buffer entries in use summed over threads.
    wr_used: usize,
    /// Cycles actually simulated by [`MemoryController::step`] /
    /// [`MemoryController::tick_until`].
    stepped_cycles: u64,
    /// Provably-inert cycles fast-forwarded by
    /// [`MemoryController::tick_until`].
    skipped_cycles: u64,
    /// A fast-forward skip clamped at a window edge: `(edge, next_event)`
    /// means cycles `(edge, next_event)` are provably inert but the window
    /// ended at `edge`. The next [`MemoryController::tick_until`] starting
    /// exactly there continues the skip instead of re-stepping the edge,
    /// so the stepped/skipped partition is independent of where windows
    /// (epochs, checkpoints) split the run. Invalidated by any step or
    /// submission.
    skip_marker: Option<(u64, u64)>,
    /// Attached fault plan, compiled ([`MemoryController::set_fault_plan`]).
    fault: Option<FaultState>,
    /// Starvation watchdog, when `config.starvation_threshold` is set.
    watchdog: Option<WatchdogState>,
    /// Online per-thread slowdown estimator ([`crate::slowdown`]).
    /// Maintained for *every* scheduler so fairness indices are comparable
    /// across policies; SD-VFTF additionally reads it when binding keys,
    /// which makes it policy state: it snapshots with the controller and
    /// is not cleared by [`MemoryController::reset_stats`].
    slowdown: SlowdownEstimator,
    /// BLISS blacklist state, present exactly when
    /// `config.scheduler == SchedulerKind::Bliss`.
    bliss: Option<BlissState>,
    /// Real-time token-bucket regulator, present exactly when
    /// `config.regulation` is set ([`crate::regulate`], ISSUE 9).
    regulate: Option<RegulatorState>,
    /// Overload-control layer (admission throttle + tiered shedder),
    /// present exactly when `config.overload` is set ([`crate::overload`],
    /// ISSUE 10). Admission-only: it never alters scheduling tiers, so it
    /// needs no bank-cache interaction.
    overload: Option<OverloadState>,
}

impl MemoryController {
    /// Builds a controller for the given configuration, geometry and
    /// timing.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration is invalid.
    pub fn new(config: McConfig, geometry: Geometry, timing: TimingParams) -> Result<Self, String> {
        config.validate()?;
        geometry.validate()?;
        timing.validate()?;
        let total_banks = geometry.total_banks() as usize;
        let vtms = config
            .shares
            .iter()
            .map(|&phi| Vtms::new(phi, total_banks))
            .collect::<Result<Vec<_>, _>>()?;
        let buffers = vec![
            ThreadBuffers::new(config.transaction_entries, config.write_entries);
            config.num_threads()
        ];
        let inversion_cycles = config.inversion_bound.resolve(timing.t_ras);
        let watchdog = config.starvation_threshold.map(|threshold| WatchdogState {
            threshold,
            last_progress: vec![DramCycle::ZERO; config.num_threads()],
            tripped: vec![false; config.num_threads()],
            next_due: 0,
        });
        let vftf = config.scheduler.uses_vftf();
        let slowdown = SlowdownEstimator::new(config.num_threads());
        let bliss = (config.scheduler == SchedulerKind::Bliss).then(|| {
            BlissState::new(
                config.num_threads(),
                config.bliss_threshold,
                config.bliss_clear_interval,
            )
        });
        let regulate = config.regulation.as_ref().map(RegulatorState::new);
        let overload = config
            .overload
            .as_ref()
            .map(|o| OverloadState::new(o, config.regulation.as_ref()));
        let tiers = (bliss.is_some() || regulate.is_some()).then(|| {
            ThreadTiers::new(
                (0..config.num_threads())
                    .map(|t| tier_of(bliss.as_ref(), regulate.as_ref(), t))
                    .collect(),
            )
        });
        Ok(MemoryController {
            map: AddressMap::new(geometry, config.line_bytes),
            dram: DramDevice::new(geometry, timing),
            queues: vec![BankQueue::new(vftf); total_banks],
            tiers,
            buffers,
            vtms,
            inflight_reads: Vec::new(),
            next_id: 0,
            id_stride: 1,
            stats: McStats::new(config.num_threads()),
            inversion_cycles,
            config,
            last_step: None,
            cmd_log: None,
            lock_armed: vec![false; total_banks],
            bank_cache: vec![BankCache::empty(); total_banks],
            queued: 0,
            occupied: DenseBitSet::new(total_banks),
            sched_scratch: Vec::with_capacity(total_banks),
            tx_used: 0,
            wr_used: 0,
            stepped_cycles: 0,
            skipped_cycles: 0,
            skip_marker: None,
            fault: None,
            watchdog,
            slowdown,
            bliss,
            regulate,
            overload,
        })
    }

    /// Attaches a compiled fault plan. An empty plan detaches fault
    /// injection entirely (the controller is then bit-identical to one
    /// that never had a plan). Must be called before the first step.
    ///
    /// # Panics
    ///
    /// Panics if the controller has already been stepped.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        assert!(
            self.last_step.is_none(),
            "fault plan must be attached before the first step"
        );
        self.fault = if plan.is_empty() {
            None
        } else {
            Some(FaultState {
                injector: FaultInjector::new(plan),
                stall_until: vec![0; self.queues.len()],
                pressure_until: 0,
                drop_scratch: Vec::new(),
            })
        };
    }

    /// The compiled fault injector, when a non-empty plan is attached
    /// (for inspecting per-class injection counts).
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref().map(|f| &f.injector)
    }

    /// Enables command-trace logging, retaining the most recent
    /// `capacity` issued commands (see [`crate::cmdlog`]).
    pub fn enable_command_log(&mut self, capacity: usize) {
        self.cmd_log = Some(CommandLog::new(capacity));
    }

    /// The command log, if logging is enabled.
    pub fn command_log(&self) -> Option<&CommandLog> {
        self.cmd_log.as_ref()
    }

    /// Configures request-id numbering to `start, start + stride, ...`.
    /// A multi-channel composition gives each channel a disjoint id space
    /// (`start = channel`, `stride = num_channels`) so ids stay unique
    /// system-wide. Must be called before any request is submitted.
    ///
    /// # Panics
    ///
    /// Panics if requests have already been submitted or `stride` is zero.
    pub fn set_id_numbering(&mut self, start: u64, stride: u64) {
        assert!(stride > 0, "stride must be positive");
        assert_eq!(self.next_id, 0, "id numbering must be set before use");
        self.next_id = start;
        self.id_stride = stride;
    }

    /// The controller's configuration.
    pub fn config(&self) -> &McConfig {
        &self.config
    }

    /// The underlying DRAM device (for utilization statistics).
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    /// The physical-address mapper in use.
    pub fn address_map(&self) -> &AddressMap {
        &self.map
    }

    /// Per-thread statistics.
    pub fn stats(&self) -> &McStats {
        &self.stats
    }

    /// The VTMS registers of one thread (for inspection/testing).
    pub fn vtms(&self, thread: ThreadId) -> &Vtms {
        &self.vtms[thread.as_usize()]
    }

    /// The online slowdown estimator (see [`crate::slowdown`]).
    pub fn slowdown_estimator(&self) -> &SlowdownEstimator {
        &self.slowdown
    }

    /// The BLISS blacklist state, when the BLISS scheduler is configured.
    pub fn bliss_state(&self) -> Option<&BlissState> {
        self.bliss.as_ref()
    }

    /// The real-time regulator state, when `McConfig::regulation` is set
    /// (see [`crate::regulate`]).
    pub fn regulator_state(&self) -> Option<&RegulatorState> {
        self.regulate.as_ref()
    }

    /// The overload-control state, when `McConfig::overload` is set
    /// (see [`crate::overload`]).
    pub fn overload_state(&self) -> Option<&OverloadState> {
        self.overload.as_ref()
    }

    /// Number of requests currently buffered (not yet fully serviced).
    pub fn pending_requests(&self) -> usize {
        debug_assert_eq!(
            self.queued,
            self.queues.iter().map(BankQueue::len).sum::<usize>()
        );
        self.queued + self.inflight_reads.len()
    }

    /// True if the controller holds no work.
    pub fn is_idle(&self) -> bool {
        self.pending_requests() == 0
    }

    /// True if a request of `kind` from `thread` would be admitted right
    /// now (no NACK).
    pub fn can_accept(&self, thread: ThreadId, kind: RequestKind) -> bool {
        self.buffer_refusal(thread.as_usize(), kind).is_none()
    }

    /// The buffer-full [`Nack`] a request of `kind` from thread `tid`
    /// would be refused with right now, if any: the thread's partition, or
    /// the shared pool (whose refusal is typed by the request's kind).
    fn buffer_refusal(&self, tid: usize, kind: RequestKind) -> Option<Nack> {
        match self.config.buffer_sharing {
            BufferSharing::Partitioned => self.buffers[tid].refusal(kind),
            BufferSharing::Shared => (!self.shared_pool_has_room(kind)).then_some(match kind {
                RequestKind::Write => Nack::WriteBufferFull,
                RequestKind::Read => Nack::TransactionBufferFull,
            }),
        }
    }

    /// Books a buffer-full refusal — a genuine one or a NACK storm's, which
    /// presents exactly like one: the thread's NACK count, the saturation
    /// detector's buffer-NACK signal and the [`Event::Nack`].
    fn refuse<O: Observer>(
        &mut self,
        thread: ThreadId,
        nack: Nack,
        now: DramCycle,
        obs: &mut O,
    ) -> Nack {
        self.stats.thread_mut(thread).nacks += 1;
        if let Some(ov) = self.overload.as_mut() {
            ov.note_buffer_nack();
        }
        if O::ENABLED {
            obs.on_event(&Event::Nack {
                cycle: now.as_u64(),
                thread: thread.as_u32(),
                is_write: nack == Nack::WriteBufferFull,
            });
        }
        nack
    }

    /// Shared-pool admission: total occupancy across threads against the
    /// pooled capacity. Uses the incrementally maintained occupancy
    /// counters, so the NACK decision costs two compares rather than a
    /// per-thread buffer walk.
    fn shared_pool_has_room(&self, kind: RequestKind) -> bool {
        debug_assert_eq!(
            self.tx_used,
            self.buffers
                .iter()
                .map(|b| b.transactions_used())
                .sum::<usize>()
        );
        let n = self.config.num_threads();
        if self.tx_used >= n * self.config.transaction_entries {
            return false;
        }
        if kind == RequestKind::Write && self.wr_used >= n * self.config.write_entries {
            return false;
        }
        true
    }

    /// Submits a memory request for the cache line containing physical
    /// address `phys`.
    ///
    /// # Errors
    ///
    /// Returns the typed [`Nack`] back-pressure signal when the request is
    /// refused — buffer-full (retry when an entry frees), [`Nack::Throttled`]
    /// (retry after the carried delay), or [`Nack::Shed`] (terminal; never
    /// retry). The request is *not* enqueued. Buffer-full and throttle
    /// refusals are counted in the thread's NACK statistics; sheds are
    /// counted separately as drops.
    pub fn try_submit(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
    ) -> Result<RequestId, Nack> {
        self.try_submit_observed(thread, kind, phys, now, &mut NullObserver)
    }

    /// [`MemoryController::try_submit`] with an [`Observer`] attached:
    /// emits [`Event::Nack`] / [`Event::Throttled`] / [`Event::Shed`] /
    /// [`Event::Arrival`] (and, under at-arrival binding,
    /// [`Event::VftBound`]). With [`NullObserver`] this monomorphizes to
    /// exactly `try_submit`.
    ///
    /// # Errors
    ///
    /// Returns the typed [`Nack`] back-pressure signal when the request is
    /// refused, exactly like [`MemoryController::try_submit`].
    pub fn try_submit_observed<O: Observer>(
        &mut self,
        thread: ThreadId,
        kind: RequestKind,
        phys: u64,
        now: DramCycle,
        obs: &mut O,
    ) -> Result<RequestId, Nack> {
        let tid = thread.as_usize();
        assert!(tid < self.config.num_threads(), "unknown thread {thread}");
        // Any admission attempt mutates state (stats, fault cursors), so a
        // clamped-skip marker from a previous window no longer applies.
        self.skip_marker = None;
        // NACK-storm fault: the admission port behaves exactly as if the
        // relevant buffer were full for the episode's duration.
        if let Some(f) = self.fault.as_mut() {
            if f.injector
                .active(FaultKind::NackStorm, now.as_u64())
                .is_some()
            {
                let nack = match kind {
                    RequestKind::Write => Nack::WriteBufferFull,
                    RequestKind::Read => Nack::TransactionBufferFull,
                };
                // A NACK storm presents as buffer pressure, so it also
                // feeds the saturation detector like one.
                return Err(self.refuse(thread, nack, now, obs));
            }
        }
        // Overload control gates admission *before* the buffer checks: a
        // shed or throttled request must not consume detector signal (the
        // detector counts only genuine buffer-full NACKs — anti-windup),
        // and its refusal must be typed so the requester can distinguish
        // "retry later" from "never retry".
        if let Some(nack) = self
            .overload
            .as_ref()
            .and_then(|ov| ov.shed_check(thread.as_u32(), kind == RequestKind::Write))
        {
            self.overload.as_mut().expect("checked above").note_shed();
            self.stats.thread_mut(thread).requests_shed += 1;
            if O::ENABLED {
                let class = match nack {
                    Nack::Shed { class } => class.as_u8(),
                    _ => unreachable!("shed_check returns only Shed"),
                };
                obs.on_event(&Event::Shed {
                    cycle: now.as_u64(),
                    thread: thread.as_u32(),
                    is_write: kind == RequestKind::Write,
                    class,
                });
            }
            return Err(nack);
        }
        if let Some(nack) = self
            .overload
            .as_ref()
            .and_then(|ov| ov.throttle_check(thread.as_u32(), now.as_u64()))
        {
            self.overload
                .as_mut()
                .expect("checked above")
                .note_throttled();
            let ts = self.stats.thread_mut(thread);
            ts.nacks += 1;
            ts.throttle_nacks += 1;
            if O::ENABLED {
                let retry_after = match nack {
                    Nack::Throttled { retry_after } => retry_after,
                    _ => unreachable!("throttle_check returns only Throttled"),
                };
                obs.on_event(&Event::Throttled {
                    cycle: now.as_u64(),
                    thread: thread.as_u32(),
                    retry_after,
                });
            }
            return Err(nack);
        }
        if let Some(nack) = self.buffer_refusal(tid, kind) {
            return Err(self.refuse(thread, nack, now, obs));
        }
        // Per-thread accounting always happens (it tracks who holds what);
        // in shared mode the per-thread cap is lifted to the pool size.
        self.buffers[tid].force_admit(kind);
        self.tx_used += 1;
        if kind == RequestKind::Write {
            self.wr_used += 1;
        }
        // Past every gate: a hog-classified thread pays one admission
        // token (everyone else passes freely).
        if let Some(ov) = self.overload.as_mut() {
            ov.consume(thread.as_u32());
        }
        let mut addr = self.map.decode(phys);
        // Real-time bank partitioning (ISSUE 9): fold the decoded global
        // bank into the submitting thread's private contiguous slice, so
        // no foreign thread can ever conflict on this thread's rows. Row
        // and column are untouched — within its slice the thread keeps the
        // XOR mapping's conflict behaviour.
        if let Some(reg) = &self.config.regulation {
            if reg.partition {
                let g = *self.dram.geometry();
                let (start, len) =
                    g.partition_slice(thread.as_u32(), self.config.num_threads() as u32);
                let global = self.global_bank(addr.rank, addr.bank) as u32;
                let folded = start + (global % len);
                addr.rank = RankId::new(folded / g.banks);
                addr.bank = BankId::new(folded % g.banks);
            }
        }
        let id = RequestId::new(self.next_id);
        self.next_id += self.id_stride;
        let req = MemoryRequest {
            id,
            thread,
            kind,
            addr,
            arrival: now,
        };
        let bank_idx = self.global_bank(addr.rank, addr.bank);
        // Admission precedes scheduling in the event contract (event.rs),
        // so Arrival is emitted before any at-arrival VftBound. The
        // reported depth includes this request, which is pushed below.
        if O::ENABLED {
            obs.on_event(&Event::Arrival {
                cycle: now.as_u64(),
                thread: thread.as_u32(),
                id: id.as_u64(),
                is_write: kind == RequestKind::Write,
                bank: bank_idx as u32,
                queue_depth: (self.queues[bank_idx].len() + 1) as u32,
            });
        }
        // The paper's "first solution" (Section 3.2): bind the virtual
        // finish time at arrival with an average (closed-bank) service
        // requirement and charge the VTMS registers immediately. The
        // evaluated design binds lazily at first-ready instead.
        let vft = if self.config.vft_binding == VftBinding::AtArrival
            && self.config.scheduler.uses_vftf()
        {
            let t = *self.dram.timing();
            let v = &mut self.vtms[tid];
            let mut f = v.virtual_finish_time(now, bank_idx, t.service_closed(), t.burst);
            v.update_bank(now, bank_idx, t.service_closed());
            v.update_channel(bank_idx, t.burst);
            // SD-VFTF: divide the key by the thread's current slowdown
            // estimate so the most-slowed-down thread sorts first. The
            // scaled key is what is stored, emitted, and ranked.
            if self.config.scheduler == SchedulerKind::SdVftf {
                f /= self.slowdown.slowdown(thread.as_u32());
            }
            if O::ENABLED {
                obs.on_event(&Event::VftBound {
                    cycle: now.as_u64(),
                    thread: thread.as_u32(),
                    id: id.as_u64(),
                    vft: f,
                });
            }
            Some(f)
        } else {
            None
        };
        let pending = Pending {
            req,
            vft,
            ras_issued: 0,
        };
        match self.tiers.as_mut() {
            Some(tt) => {
                let slot = self.queues[bank_idx].push(pending, tt.tier(tid));
                tt.note_push(tid, bank_idx, slot, id.as_u64(), &self.queues);
            }
            None => {
                self.queues[bank_idx].push(pending, 0);
            }
        }
        self.queued += 1;
        self.occupied.insert(bank_idx);
        self.bank_cache[bank_idx].valid = false;
        let ts = self.stats.thread_mut(thread);
        match kind {
            RequestKind::Read => ts.reads_accepted += 1,
            RequestKind::Write => ts.writes_accepted += 1,
        }
        // Admission into an *empty* partition restarts the thread's
        // progress clock — its pending-work epoch begins now (and, under
        // fast-forward, `now` may follow a skipped idle window the
        // per-cycle watchdog reset never saw). Admissions on top of an
        // existing backlog are deliberately *not* progress: a thread whose
        // pending requests never complete is starving no matter how many
        // more it manages to enqueue.
        if self.buffers[tid].transactions_used() == 1 {
            self.note_progress(thread, now);
        }
        Ok(id)
    }

    /// Records watchdog progress for `thread` (a completion, or the first
    /// admission into an empty partition) and re-arms its trip detector.
    #[inline]
    fn note_progress(&mut self, thread: ThreadId, now: DramCycle) {
        if let Some(w) = self.watchdog.as_mut() {
            let t = thread.as_usize();
            w.last_progress[t] = now;
            w.tripped[t] = false;
            // This progress arms a fresh deadline; pull the incremental
            // scan trigger down so the deadline cycle is actually checked
            // (essential when `next_due` had drained to `u64::MAX`).
            w.next_due = w.next_due.min(now.as_u64().saturating_add(w.threshold));
        }
    }

    /// Re-derives the priority tier of each thread in `threads` from the
    /// tier source and moves the queued entries of every thread whose
    /// tier flipped, dropping the memoized proposal of each bank an entry
    /// moved in. Called at the four points a tier can flip (a BLISS
    /// blacklisting or clearing, a bucket exhausting or replenishing), so
    /// every entry sits in its thread's current tier whenever a bank
    /// scheduler runs.
    fn sync_tiers(&mut self, threads: std::ops::Range<usize>) {
        let Some(tt) = self.tiers.as_mut() else {
            return;
        };
        let cache = &mut self.bank_cache;
        for t in threads {
            let tier = tier_of(self.bliss.as_ref(), self.regulate.as_ref(), t);
            tt.set(t, tier, &mut self.queues, |bank| cache[bank].valid = false);
        }
    }

    fn global_bank(&self, rank: RankId, bank: BankId) -> usize {
        (rank.as_u32() * self.dram.geometry().banks + bank.as_u32()) as usize
    }

    /// Advances the controller by one DRAM cycle: completes finished reads,
    /// runs the bank and channel schedulers, and issues at most one SDRAM
    /// command.
    ///
    /// Returns the requests that completed this cycle.
    ///
    /// # Panics
    ///
    /// Panics if called with a non-increasing cycle number.
    pub fn step(&mut self, now: DramCycle) -> Vec<Completion> {
        self.step_observed(now, &mut NullObserver)
    }

    /// [`MemoryController::step`] with an [`Observer`] attached: emits
    /// completion, scheduling, and command-issue events as they happen.
    /// With [`NullObserver`] every `if O::ENABLED` guard folds away and
    /// this monomorphizes to exactly `step` — observation is a pure
    /// function of the simulation and never changes it.
    pub fn step_observed<O: Observer>(&mut self, now: DramCycle, obs: &mut O) -> Vec<Completion> {
        let mut out = Vec::new();
        self.step_core(now, &mut out, obs);
        out
    }

    /// Allocation-free [`MemoryController::step_observed`]: appends this
    /// cycle's completions to `out` (a scratch buffer owned by the caller)
    /// instead of returning a fresh `Vec`, and reports whether a command
    /// issued. This is the hot-path entry point used by the engine.
    pub fn step_into<O: Observer>(
        &mut self,
        now: DramCycle,
        out: &mut Vec<Completion>,
        obs: &mut O,
    ) -> bool {
        self.step_core(now, out, obs)
    }

    /// Earliest *strictly future* cycle at which this controller could do
    /// anything differently from what it would do by idling: a timing
    /// constraint expires, a refresh deadline (or deferred-refresh
    /// postponement budget) lands, an in-flight read's data burst
    /// completes, or an FQ bank scheduler's priority-inversion bound
    /// trips. Returns [`DramCycle::MAX`] when no such event is scheduled.
    ///
    /// The bound is conservative (it may name a cycle where nothing
    /// user-visible happens) but never misses an event — the contract
    /// [`MemoryController::tick_until`] relies on. It is only meaningful
    /// when computed from a *quiescent* cycle (one where `step` neither
    /// issued a command nor completed a request): controller state
    /// mutates only on issue/completion/submit, so from a quiescent cycle
    /// every scheduling predicate is frozen until the returned cycle.
    pub fn next_event_cycle(&self, now: DramCycle) -> DramCycle {
        let mut ev = NextEvent::after(now);
        ev.consider(self.dram.next_event_cycle(now));
        for c in &self.inflight_reads {
            ev.consider(c.finish);
        }
        if self.config.scheduler.uses_fq_bank_scheduler() {
            if let Some(x) = self.inversion_cycles {
                // Only open banks can be mid-activation (`active_since`
                // is `Some` exactly while a row is open), so the masked
                // sweep visits the same banks the dense rank×bank scan
                // found trips on.
                let g = *self.dram.geometry();
                for idx in self.dram.open_banks().iter() {
                    let rank = RankId::new(idx as u32 / g.banks);
                    let bank = BankId::new(idx as u32 % g.banks);
                    if let Some(since) = self.dram.bank(rank, bank).active_since() {
                        ev.consider(since.saturating_add(x));
                    }
                }
            }
        }
        if let RefreshPolicy::Deferred { max_postponed } = self.config.refresh_policy {
            let t_refi = self.dram.timing().t_refi;
            let k = u64::from(max_postponed.max(1));
            for r in 0..self.dram.geometry().ranks {
                let deadline = self.dram.refresh_deadline(RankId::new(r));
                ev.consider(deadline.saturating_add((k - 1) * t_refi));
            }
        }
        if let Some(f) = &self.fault {
            // Never skip over a fault-episode edge: every start/end is a
            // cycle where scheduling predicates change.
            if let Some(boundary) = f.injector.next_boundary(now.as_u64()) {
                ev.consider(DramCycle::new(boundary));
            }
            // During refresh pressure the refresh machinery re-evaluates
            // every cycle (its readiness is not in the filtered DRAM
            // next-event set when no deadline is due), so step
            // cycle-by-cycle for the episode's duration.
            if now.as_u64() < f.pressure_until {
                ev.consider(DramCycle::new(now.as_u64() + 1));
            }
        }
        if let Some(w) = &self.watchdog {
            // A watchdog trip is an observable event: make sure the
            // deadline cycle is stepped, not skipped. `next_due` is a
            // conservative (never-late) bound over every armed deadline,
            // so one compare replaces the per-thread scan.
            if w.next_due != u64::MAX {
                ev.consider(DramCycle::new(w.next_due));
            }
        }
        if let Some(b) = &self.bliss {
            // A clearing boundary changes scheduling state (blacklist
            // wipe): the boundary cycle must be stepped, never skipped,
            // so fast-forwarded runs clear at exactly the same cycles as
            // per-cycle runs.
            ev.consider(DramCycle::new(b.next_clear()));
        }
        if let Some(rg) = &self.regulate {
            // A replenish boundary can promote a demoted thread back to
            // the premium tier: the boundary cycle must be stepped, never
            // skipped, or a fast-forwarded run would restore the tier late.
            ev.consider(DramCycle::new(rg.next_replenish()));
        }
        if let Some(ov) = &self.overload {
            // Both overload boundaries must be stepped, never skipped: hog
            // reclassification reads the slowdown estimator *at* the
            // replenish boundary (a completion between a skipped boundary
            // and the next submit would change the hog set), and a window
            // evaluation reads the occupancy *at* the window boundary.
            ev.consider(DramCycle::new(ov.next_replenish()));
            ev.consider(DramCycle::new(ov.next_window()));
        }
        ev.earliest()
    }

    /// Advances the controller from cycle `from` (exclusive, the last
    /// cycle already stepped) to `to` (inclusive), fast-forwarding through
    /// provably-inert stretches.
    ///
    /// Equivalence contract: the skip rule only ever jumps *from a cycle
    /// where `step` did nothing* (no command issued, no completion
    /// drained) *to the cycle before the next scheduled event*. From such
    /// a quiescent cycle no state mutates, so every skipped cycle would
    /// have been an identical no-op; after any activity cycle the next
    /// cycle is stepped unconditionally (a command that lost channel
    /// arbitration may have all its thresholds already in the past).
    /// Completions, statistics, and observer events are therefore
    /// bit-identical to calling [`MemoryController::step`] once per
    /// cycle. Completions are appended to `out`.
    pub fn tick_until(&mut self, from: DramCycle, to: DramCycle, out: &mut Vec<Completion>) {
        self.tick_until_observed(from, to, out, &mut NullObserver);
    }

    /// [`MemoryController::tick_until`] with an [`Observer`] attached.
    pub fn tick_until_observed<O: Observer>(
        &mut self,
        from: DramCycle,
        to: DramCycle,
        out: &mut Vec<Completion>,
        obs: &mut O,
    ) {
        let mut c = from;
        // A skip clamped at the previous window's edge resumes here: the
        // recorded event bound still holds (nothing stepped or arrived
        // since, or the marker would have been invalidated), so the edge
        // cycle is not re-stepped and the stepped/skipped partition is
        // identical to a run whose window never ended at `from`.
        if let Some((edge, next)) = self.skip_marker {
            if edge == c.as_u64() && next > c.as_u64() + 1 {
                let dead_until = DramCycle::new((next - 1).min(to.as_u64()));
                self.skipped_cycles += dead_until - c;
                self.skip_marker = if dead_until.as_u64() < next - 1 {
                    Some((dead_until.as_u64(), next))
                } else {
                    None
                };
                c = dead_until;
            }
        }
        while c < to {
            let before = out.len();
            c = DramCycle::new(c.as_u64() + 1);
            let issued = self.step_core(c, out, obs);
            if issued || out.len() != before {
                continue; // activity: the very next cycle must be stepped
            }
            let next = self.next_event_cycle(c).as_u64();
            if next > c.as_u64() + 1 {
                // Cycles (c, next) are provably inert; jump to just before
                // the event (clamped to the window end). A clamped jump
                // leaves a marker so the next window can finish the skip.
                let dead_until = DramCycle::new((next - 1).min(to.as_u64()));
                self.skipped_cycles += dead_until - c;
                self.skip_marker = if dead_until.as_u64() < next - 1 {
                    Some((dead_until.as_u64(), next))
                } else {
                    None
                };
                c = dead_until;
            }
        }
    }

    /// Cycles actually simulated (per-cycle `step` executions).
    pub fn stepped_cycles(&self) -> u64 {
        self.stepped_cycles
    }

    /// Cycles fast-forwarded by [`MemoryController::tick_until`] without
    /// being simulated.
    pub fn skipped_cycles(&self) -> u64 {
        self.skipped_cycles
    }

    fn step_core<O: Observer>(
        &mut self,
        now: DramCycle,
        out: &mut Vec<Completion>,
        obs: &mut O,
    ) -> bool {
        if let Some(last) = self.last_step {
            assert!(now > last, "step({now}) after step({last})");
        }
        self.last_step = Some(now);
        self.stepped_cycles += 1;
        self.skip_marker = None;

        self.drain_read_completions(now, out, obs);
        if self.fault.is_some() {
            self.apply_faults(now, obs);
        }
        if self.watchdog.is_some() {
            self.check_watchdog(now, obs);
        }
        // BLISS clearing interval: wipe blacklist flags at every elapsed
        // boundary *before* scheduling, so the boundary cycle already
        // schedules with a clean slate (every blacklisted thread's
        // entries return to tier 0).
        if self
            .bliss
            .as_mut()
            .is_some_and(|b| b.maybe_clear(now.as_u64()))
        {
            self.sync_tiers(0..self.config.num_threads());
        }
        // Regulator replenish boundary: refill every token bucket before
        // scheduling, so the boundary cycle already schedules with the
        // restored tiers (a refill promotes every demoted real-time
        // thread).
        if self
            .regulate
            .as_mut()
            .is_some_and(|rg| rg.maybe_replenish(now.as_u64()))
        {
            self.sync_tiers(0..self.config.num_threads());
        }
        // Overload boundaries: refill admission tokens / reclassify hogs,
        // and walk the saturation ladder — before scheduling, so the
        // boundary cycle already admits under the new state. Admission-only
        // state: no memoized proposal depends on it, so no cache drop.
        if let Some(ov) = self.overload.as_mut() {
            ov.maybe_replenish(now.as_u64(), &self.slowdown);
            if let Some((from, to)) = ov.maybe_evaluate(now.as_u64(), self.tx_used) {
                if O::ENABLED {
                    if to > from {
                        obs.on_event(&Event::SaturationEntered {
                            cycle: now.as_u64(),
                            level: to.as_u8(),
                        });
                    } else {
                        obs.on_event(&Event::SaturationExited {
                            cycle: now.as_u64(),
                            level: to.as_u8(),
                        });
                    }
                }
            }
        }

        let urgent_rank = (0..self.dram.geometry().ranks)
            .map(RankId::new)
            .find(|&r| self.refresh_wanted(r, now));

        let scheduled = match urgent_rank {
            Some(rank) => self.schedule_refresh(rank, now).map(|cmd| Proposal {
                cmd,
                prio: Priority {
                    ready: true,
                    tier: 0,
                    cas: false,
                    key: f64::INFINITY,
                    id: RequestId::new(u64::MAX),
                },
                source: None,
            }),
            None => self.schedule_normal(now, obs),
        };

        match scheduled {
            Some(p) => {
                self.issue(p, now, out, obs);
                true
            }
            None => false,
        }
    }

    /// Consumes this cycle's fault-timeline edges: reports activation
    /// edges, caches their consequences (bank stall deadlines, refresh
    /// pressure), and executes due request drops. Runs once per stepped
    /// cycle, between completion drain and scheduling; with no plan
    /// attached it is never called.
    fn apply_faults<O: Observer>(&mut self, now: DramCycle, obs: &mut O) {
        let n = now.as_u64();
        let f = self.fault.as_mut().expect("checked by caller");
        if let Some(e) = f.injector.activated(FaultKind::NackStorm, n) {
            if O::ENABLED {
                obs.on_event(&Event::FaultInjected {
                    cycle: n,
                    kind: FaultKind::NackStorm,
                    until: e.end,
                    bank: None,
                });
            }
        }
        if let Some(e) = f.injector.activated(FaultKind::RefreshPressure, n) {
            f.pressure_until = f.pressure_until.max(e.end);
            if O::ENABLED {
                obs.on_event(&Event::FaultInjected {
                    cycle: n,
                    kind: FaultKind::RefreshPressure,
                    until: e.end,
                    bank: None,
                });
            }
        }
        if let Some(e) = f.injector.activated(FaultKind::BankStall, n) {
            let bank = (e.selector % f.stall_until.len() as u64) as usize;
            f.stall_until[bank] = f.stall_until[bank].max(e.end);
            self.bank_cache[bank].valid = false;
            if O::ENABLED {
                obs.on_event(&Event::FaultInjected {
                    cycle: n,
                    kind: FaultKind::BankStall,
                    until: e.end,
                    bank: Some(bank as u32),
                });
            }
        }
        let mut drops = std::mem::take(&mut f.drop_scratch);
        f.injector.take_due(FaultKind::RequestDrop, n, &mut drops);
        for &selector in &drops {
            if O::ENABLED {
                obs.on_event(&Event::FaultInjected {
                    cycle: n,
                    kind: FaultKind::RequestDrop,
                    until: n + 1,
                    bank: None,
                });
            }
            if self.queued == 0 {
                continue; // nothing queued: the drop lands on air
            }
            // Deterministic victim: flatten the bank queues in bank-index
            // order (admission order within each) and pick the selector'th
            // entry.
            let mut target = (selector % self.queued as u64) as usize;
            let (bank_idx, pos) = self
                .queues
                .iter()
                .enumerate()
                .find_map(|(bi, q)| {
                    if target < q.len() {
                        Some((bi, target))
                    } else {
                        target -= q.len();
                        None
                    }
                })
                .expect("queued tracks the summed queue lengths");
            let slot = self.queues[bank_idx]
                .nth_slot(pos)
                .expect("position bounded by live length");
            let pending = self.queues[bank_idx].remove(slot);
            self.queued -= 1;
            if self.queues[bank_idx].is_empty() {
                self.occupied.remove(bank_idx);
            }
            self.bank_cache[bank_idx].valid = false;
            let req = pending.req;
            // Release the buffer entry exactly as completion would — the
            // requester is never told; the request simply vanishes.
            let buf = &mut self.buffers[req.thread.as_usize()];
            match req.kind {
                RequestKind::Read => {
                    buf.complete(RequestKind::Read);
                    self.tx_used -= 1;
                }
                RequestKind::Write => {
                    buf.release_write_data();
                    buf.complete(RequestKind::Write);
                    self.wr_used -= 1;
                    self.tx_used -= 1;
                }
            }
            self.stats.thread_mut(req.thread).requests_dropped += 1;
            if O::ENABLED {
                obs.on_event(&Event::RequestDropped {
                    cycle: n,
                    thread: req.thread.as_u32(),
                    id: req.id.as_u64(),
                    is_write: req.kind == RequestKind::Write,
                });
            }
        }
        drops.clear();
        self.fault.as_mut().expect("still attached").drop_scratch = drops;
    }

    /// Fires the starvation watchdog for threads that hold pending work
    /// but have made no progress for the configured threshold. Purely
    /// observational: one stat increment and one event per stall episode.
    ///
    /// Incremental: the common case is one compare against the cached
    /// earliest deadline (`next_due`); the O(threads) scan runs only on
    /// cycles where a deadline can actually land. Idle threads are simply
    /// skipped — their stale progress clocks are rewritten by
    /// [`MemoryController::note_progress`] on the admission that makes
    /// them active again, so no per-cycle pinning is needed.
    fn check_watchdog<O: Observer>(&mut self, now: DramCycle, obs: &mut O) {
        let w = self.watchdog.as_mut().expect("checked by caller");
        if now.as_u64() < w.next_due {
            return;
        }
        let mut next = u64::MAX;
        for t in 0..w.last_progress.len() {
            if self.buffers[t].transactions_used() == 0 {
                // Nothing pending: an idle thread is not starved.
                continue;
            }
            if w.tripped[t] {
                continue;
            }
            let due = w.last_progress[t].as_u64().saturating_add(w.threshold);
            if now.as_u64() >= due {
                w.tripped[t] = true;
                self.stats.thread_mut(ThreadId::new(t as u32)).starvations += 1;
                if O::ENABLED {
                    obs.on_event(&Event::StarvationDetected {
                        cycle: now.as_u64(),
                        thread: t as u32,
                        stalled_for: now.as_u64() - w.last_progress[t].as_u64(),
                    });
                }
            } else {
                next = next.min(due);
            }
        }
        w.next_due = next;
    }

    /// Finalizes utilization statistics at the end of a run.
    pub fn finish(&mut self, now: DramCycle) {
        self.dram.advance_stats(now);
    }

    /// Zeroes all measurement counters (per-thread stats and DRAM
    /// utilization) without disturbing queued requests, bank state, or
    /// VTMS registers. Used to exclude warmup from measurement.
    pub fn reset_stats(&mut self, now: DramCycle) {
        self.stats.reset();
        self.dram.reset_stats(now);
        self.stepped_cycles = 0;
        self.skipped_cycles = 0;
    }

    fn drain_read_completions<O: Observer>(
        &mut self,
        now: DramCycle,
        out: &mut Vec<Completion>,
        obs: &mut O,
    ) {
        let mut i = 0;
        while i < self.inflight_reads.len() {
            if self.inflight_reads[i].finish > now {
                i += 1;
                continue;
            }
            let c = self.inflight_reads.swap_remove(i);
            self.buffers[c.thread.as_usize()].complete(RequestKind::Read);
            self.tx_used -= 1;
            self.note_progress(c.thread, now);
            // Alone-time model (DESIGN.md §16): the request's intrinsic
            // closed-bank service cost plus its data burst — what it
            // would have cost on an unloaded bank.
            let alone = {
                let t = self.dram.timing();
                t.service_closed() + t.burst
            };
            self.slowdown.record(c.thread.as_u32(), alone, c.latency());
            let ts = self.stats.thread_mut(c.thread);
            ts.reads_completed += 1;
            ts.read_latency_total += c.latency();
            ts.alone_cycles_est += alone;
            ts.shared_cycles += c.latency();
            if O::ENABLED {
                obs.on_event(&Event::Completed {
                    cycle: now.as_u64(),
                    thread: c.thread.as_u32(),
                    id: c.id.as_u64(),
                    is_write: false,
                    latency: c.latency(),
                    bytes: self.config.line_bytes,
                    alone_cycles: alone,
                });
            }
            // WCET verification hook (ISSUE 9): a regulated completion
            // above its class's configured bound is counted and reported.
            // The release gates assert this never happens.
            if let Some(rg) = self.regulate.as_mut() {
                if let Some(bound) = rg.wcet_bound(c.thread.as_u32()) {
                    if c.latency() > bound {
                        rg.note_violation();
                        if O::ENABLED {
                            obs.on_event(&Event::BoundExceeded {
                                cycle: now.as_u64(),
                                thread: c.thread.as_u32(),
                                id: c.id.as_u64(),
                                is_write: false,
                                latency: c.latency(),
                                bound,
                            });
                        }
                    }
                }
            }
            out.push(c);
        }
    }

    /// Decides whether to enter refresh mode for `rank` this cycle, per
    /// the configured [`RefreshPolicy`].
    fn refresh_wanted(&self, rank: RankId, now: DramCycle) -> bool {
        // Refresh-pressure fault: force refresh urgency (a refresh storm)
        // for the episode's duration, regardless of the real deadline.
        if let Some(f) = &self.fault {
            if now.as_u64() < f.pressure_until {
                return true;
            }
        }
        if !self.dram.refresh_urgent(rank, now) {
            return false;
        }
        match self.config.refresh_policy {
            RefreshPolicy::Strict => true,
            RefreshPolicy::Deferred { max_postponed } => {
                let t_refi = self.dram.timing().t_refi;
                let deadline = self.dram.refresh_deadline(rank);
                let owed = 1 + (now.as_u64().saturating_sub(deadline.as_u64())) / t_refi;
                owed >= max_postponed.max(1) as u64 || self.queued == 0
            }
        }
    }

    /// Refresh urgency: block normal traffic on the rank, close open banks,
    /// then issue the refresh command.
    fn schedule_refresh(&mut self, rank: RankId, now: DramCycle) -> Option<Command> {
        let refresh = Command::Refresh { rank };
        if self.dram.is_ready(&refresh, now) {
            return Some(refresh);
        }
        // Only open banks need closing; the mask visits them in the same
        // ascending bank order the dense scan used.
        let banks = self.dram.geometry().banks;
        let rank_start = (rank.as_u32() * banks) as usize;
        for idx in self.dram.open_banks().iter() {
            if idx < rank_start {
                continue;
            }
            if idx >= rank_start + banks as usize {
                break;
            }
            let bank = BankId::new(idx as u32 % banks);
            let pre = Command::Precharge { rank, bank };
            if self.dram.is_ready(&pre, now) {
                return Some(pre);
            }
        }
        None
    }

    /// Runs every bank scheduler and the channel scheduler; returns the
    /// winning ready command, if any.
    fn schedule_normal<O: Observer>(&mut self, now: DramCycle, obs: &mut O) -> Option<Proposal> {
        let timing = *self.dram.timing();
        let geometry = *self.dram.geometry();
        let kind = self.config.scheduler;
        let inversion = self.inversion_cycles;
        let est = (kind == SchedulerKind::SdVftf).then_some(&self.slowdown);

        // Masked sweep: a bank outside `occupied ∪ open` has an empty
        // queue and a closed row, so the dense loop's body would compute
        // `None` for it and touch no state — skipping it is invisible.
        // The union is materialised into the reusable scratch (taken out
        // of `self` so the body below can borrow `self` mutably) and is
        // ascending, preserving the dense scan's first-proposer
        // tie-breaking at the channel scheduler.
        let mut scratch = std::mem::take(&mut self.sched_scratch);
        scratch.clear();
        scratch.extend(self.occupied.union_iter(self.dram.open_banks()));

        let mut best: Option<Proposal> = None;
        for &bank_idx in &scratch {
            // Bank-stall fault: a stalled bank proposes nothing. Safe to
            // skip before the cache probe — no command issues to the bank
            // while stalled, so its cached decision stays coherent.
            if let Some(f) = &self.fault {
                if now.as_u64() < f.stall_until[bank_idx] {
                    continue;
                }
            }
            let rank = RankId::new(bank_idx as u32 / geometry.banks);
            let bank = BankId::new(bank_idx as u32 % geometry.banks);
            let open_row = self.dram.open_row(rank, bank);

            let proposal = if self.queues[bank_idx].is_empty() {
                // Closed-row policy: once all pending accesses to the row
                // have completed, close it. Lowest priority: it never
                // beats real work at the channel scheduler. (The open-row
                // ablation leaves the row open until a conflicting
                // request arrives.) Not worth caching: it is a single
                // bank-ready probe.
                if self.config.row_policy == RowPolicy::Closed && open_row.is_some() {
                    let pre = Command::Precharge { rank, bank };
                    self.dram.bank_ready(&pre, now).then_some(Proposal {
                        cmd: pre,
                        prio: Priority {
                            ready: true,
                            tier: 0,
                            cas: false,
                            key: f64::INFINITY,
                            id: RequestId::new(u64::MAX),
                        },
                        source: None,
                    })
                } else {
                    None
                }
            } else {
                let ready = ReadyClasses::probe(&self.dram, rank, bank, open_row.is_some(), now);
                // FQ lock engagement (Section 3.3): the bank has been
                // active for at least the inversion bound `x`.
                let lock = if kind.uses_fq_bank_scheduler() {
                    match (self.dram.bank(rank, bank).active_for(now), inversion) {
                        (Some(active_for), Some(x)) if active_for >= x => Some(active_for),
                        _ => None,
                    }
                } else {
                    None
                };
                let cache = &self.bank_cache[bank_idx];
                if cache.valid && cache.ready == ready && cache.locked == lock.is_some() {
                    cache.proposal
                } else {
                    let proposal = propose(
                        &mut self.queues[bank_idx],
                        ready,
                        lock,
                        est,
                        &self.vtms,
                        kind,
                        bank_idx,
                        rank,
                        bank,
                        open_row,
                        now,
                        &timing,
                        &mut self.lock_armed[bank_idx],
                        obs,
                    );
                    debug_assert!(
                        proposal.is_none_or(|p| p.source.is_none_or(|(b, slot)| {
                            let t = self.queues[b].get(slot as u32).req.thread.as_usize();
                            p.prio.tier == tier_of(self.bliss.as_ref(), self.regulate.as_ref(), t)
                        })),
                        "proposal ranked under a stale tier"
                    );
                    self.bank_cache[bank_idx] = BankCache {
                        valid: true,
                        ready,
                        locked: lock.is_some(),
                        proposal,
                    };
                    proposal
                }
            };
            // Channel scheduler: each bank presents at most one command;
            // only commands that are ready with respect to the channel
            // (bus occupancy, tCCD, tWTR, tRRD, refresh) can issue. A
            // bank whose presented command is channel-blocked issues
            // nothing this cycle — its lower-priority pending work stays
            // hidden behind it (the paper's chaining behaviour).
            if let Some(p) = proposal {
                if !self.dram.is_ready(&p.cmd, now) {
                    continue;
                }
                if best.is_none_or(|b| p.prio < b.prio) {
                    best = Some(p);
                }
            }
        }
        self.sched_scratch = scratch;
        best
    }

    /// Issues the chosen command and applies all side effects: DRAM state,
    /// VTMS registers, queue/buffer updates, and statistics.
    fn issue<O: Observer>(
        &mut self,
        p: Proposal,
        now: DramCycle,
        out: &mut Vec<Completion>,
        obs: &mut O,
    ) {
        let timing = *self.dram.timing();
        let data_done = self.dram.issue(&p.cmd, now);
        // Any command to a bank changes the state its scheduler decision
        // was derived from (open row, timing thresholds, or the queue
        // below): drop the memoized proposal. A refresh touches every
        // bank of its rank.
        match p.cmd {
            Command::Refresh { rank } => {
                let start = (rank.as_u32() * self.dram.geometry().banks) as usize;
                let n = self.dram.geometry().banks as usize;
                for cache in &mut self.bank_cache[start..start + n] {
                    cache.valid = false;
                }
            }
            _ => {
                let bank = p.cmd.bank().expect("non-refresh commands target a bank");
                let idx = self.global_bank(p.cmd.rank(), bank);
                self.bank_cache[idx].valid = false;
            }
        }
        if let Some(log) = &mut self.cmd_log {
            log.record(CommandRecord {
                cycle: now,
                cmd: p.cmd,
                thread: p
                    .source
                    .map(|(bank_idx, slot)| self.queues[bank_idx].get(slot as u32).req.thread),
            });
        }
        if O::ENABLED {
            let owner = p
                .source
                .map(|(bank_idx, slot)| self.queues[bank_idx].get(slot as u32).req);
            obs.on_event(&Event::CommandIssued {
                cycle: now.as_u64(),
                kind: p.cmd.kind(),
                bank: p
                    .cmd
                    .bank()
                    .map(|b| p.cmd.rank().as_u32() * self.dram.geometry().banks + b.as_u32()),
                thread: owner.map(|r| r.thread.as_u32()),
                id: owner.map(|r| r.id.as_u64()),
            });
        }
        let Some((bank_idx, slot)) = p.source else {
            return; // unowned command (idle close / refresh): no VTMS update
        };
        let slot = slot as u32;
        let pending = *self.queues[bank_idx].get(slot);
        let req = pending.req;
        if self.config.vft_binding == VftBinding::FirstReady {
            self.vtms[req.thread.as_usize()].apply_command(
                p.cmd.kind(),
                req.arrival,
                bank_idx,
                &timing,
            );
        }
        if !p.cmd.is_cas() {
            // RAS command: request stays queued for its CAS. `ras_issued`
            // is not a selection key, so the in-place update is safe on
            // the indexed queue.
            let e = self.queues[bank_idx].get_mut(slot);
            e.ras_issued = e.ras_issued.saturating_add(1);
            return;
        }
        // CAS issued: the request leaves the bank queue.
        self.queues[bank_idx].remove(slot);
        self.queued -= 1;
        if self.queues[bank_idx].is_empty() {
            self.occupied.remove(bank_idx);
        }
        // BLISS counts one bank service per CAS; a threshold crossing
        // blacklists the thread. The regulator also counts one bank
        // service per CAS; exhausting a bucket demotes the thread to the
        // best-effort tier. Either way only this thread's tier flips.
        let t = req.thread.as_usize();
        if self
            .bliss
            .as_mut()
            .is_some_and(|b| b.record_service(t as u32))
            || self
                .regulate
                .as_mut()
                .is_some_and(|rg| rg.consume(t as u32))
        {
            self.sync_tiers(t..t + 1);
        }
        let ts = self.stats.thread_mut(req.thread);
        ts.bus_busy_cycles += timing.burst;
        match pending.ras_issued {
            0 => ts.row_hits += 1,
            1 => ts.row_closed += 1,
            _ => ts.row_conflicts += 1,
        }
        let finish = data_done.expect("CAS commands return a data completion time");
        let completion = Completion {
            id: req.id,
            thread: req.thread,
            kind: req.kind,
            arrival: req.arrival,
            finish,
        };
        match req.kind {
            RequestKind::Read => self.inflight_reads.push(completion),
            RequestKind::Write => {
                // Writes complete (from the requester's view) at issue: the
                // data has left the controller.
                let buf = &mut self.buffers[req.thread.as_usize()];
                buf.release_write_data();
                buf.complete(RequestKind::Write);
                self.wr_used -= 1;
                self.tx_used -= 1;
                let alone = timing.service_closed() + timing.burst;
                self.slowdown
                    .record(req.thread.as_u32(), alone, completion.latency());
                let ts = self.stats.thread_mut(req.thread);
                ts.writes_completed += 1;
                ts.alone_cycles_est += alone;
                ts.shared_cycles += completion.latency();
                self.note_progress(req.thread, now);
                if O::ENABLED {
                    obs.on_event(&Event::Completed {
                        cycle: now.as_u64(),
                        thread: req.thread.as_u32(),
                        id: req.id.as_u64(),
                        is_write: true,
                        latency: completion.latency(),
                        bytes: self.config.line_bytes,
                        alone_cycles: alone,
                    });
                }
                if let Some(rg) = self.regulate.as_mut() {
                    if let Some(bound) = rg.wcet_bound(req.thread.as_u32()) {
                        if completion.latency() > bound {
                            rg.note_violation();
                            if O::ENABLED {
                                obs.on_event(&Event::BoundExceeded {
                                    cycle: now.as_u64(),
                                    thread: req.thread.as_u32(),
                                    id: req.id.as_u64(),
                                    is_write: true,
                                    latency: completion.latency(),
                                    bound,
                                });
                            }
                        }
                    }
                }
                out.push(completion);
            }
        }
    }
}

fn put_pending(w: &mut SectionWriter, p: &Pending) {
    w.put_u64(p.req.id.as_u64());
    w.put_u32(p.req.thread.as_u32());
    w.put_bool(p.req.kind == RequestKind::Write);
    w.put_u32(p.req.addr.rank.as_u32());
    w.put_u32(p.req.addr.bank.as_u32());
    w.put_u32(p.req.addr.row.as_u32());
    w.put_u32(p.req.addr.col.as_u32());
    w.put_u64(p.req.arrival.as_u64());
    w.put_opt_u64(p.vft.map(f64::to_bits));
    w.put_u8(p.ras_issued);
}

fn get_pending(r: &mut SectionReader<'_>) -> Result<Pending, SnapshotError> {
    Ok(Pending {
        req: MemoryRequest {
            id: RequestId::new(r.get_u64()?),
            thread: ThreadId::new(r.get_u32()?),
            kind: if r.get_bool()? {
                RequestKind::Write
            } else {
                RequestKind::Read
            },
            addr: DramAddress {
                rank: RankId::new(r.get_u32()?),
                bank: BankId::new(r.get_u32()?),
                row: RowId::new(r.get_u32()?),
                col: ColId::new(r.get_u32()?),
            },
            arrival: DramCycle::new(r.get_u64()?),
        },
        vft: r.get_opt_u64()?.map(f64::from_bits),
        ras_issued: r.get_u8()?,
    })
}

pub(crate) fn put_completion(w: &mut SectionWriter, c: &Completion) {
    w.put_u64(c.id.as_u64());
    w.put_u32(c.thread.as_u32());
    w.put_bool(c.kind == RequestKind::Write);
    w.put_u64(c.arrival.as_u64());
    w.put_u64(c.finish.as_u64());
}

pub(crate) fn get_completion(r: &mut SectionReader<'_>) -> Result<Completion, SnapshotError> {
    Ok(Completion {
        id: RequestId::new(r.get_u64()?),
        thread: ThreadId::new(r.get_u32()?),
        kind: if r.get_bool()? {
            RequestKind::Write
        } else {
            RequestKind::Read
        },
        arrival: DramCycle::new(r.get_u64()?),
        finish: DramCycle::new(r.get_u64()?),
    })
}

/// What is serialized vs. rebuilt:
///
/// * **Serialized**: the DRAM device, every bank queue (requests plus their
///   bound VFTs and RAS progress, in admission order), buffer occupancy,
///   VTMS registers, in-flight reads, id allocation, statistics, the
///   command log, fault cursors and cached episode deadlines, watchdog
///   progress clocks plus the incremental `next_due` trigger, the
///   inversion-lock edge detectors, the step/skip counters, the slowdown
///   estimator (SD-VFTF's key scaling depends on it), the BLISS
///   blacklist (streak, flags, next clearing boundary), the real-time
///   regulator (token usage, next replenish boundary, violation count),
///   and the overload layer (hog flags, token usage, saturation level,
///   window NACK counter, both boundary clocks) — every bit of state a
///   resumed run's behaviour or reporting depends on.
/// * **Rebuilt**: configuration (validated via the envelope fingerprint and
///   per-field checks), the address map, fault episode *timelines* (a pure
///   function of plan and seed, already present in the identically-built
///   target), the `BankCache` memo — it is invalidated wholesale on
///   restore and repopulated by the first post-resume scheduling pass,
///   which recomputes exactly the decisions the cache would have replayed —
///   and the `BankQueue` index structures (per-tier row-group heaps and
///   tournaments, unbound list) with every entry's priority tier:
///   re-pushing the serialized admission-order entries reconstructs them,
///   each thread's tier is re-derived from the restored BLISS or
///   regulator state, and the exactness argument in [`crate::select`]
///   guarantees the rebuilt (renumbered) layout selects identically.
impl Snapshot for MemoryController {
    fn save(&self, w: &mut SectionWriter) {
        self.dram.save(w);
        w.put_seq_len(self.queues.len());
        for q in &self.queues {
            w.put_seq_len(q.len());
            for (_, p) in q.iter() {
                put_pending(w, p);
            }
        }
        w.put_seq_len(self.buffers.len());
        for b in &self.buffers {
            b.save(w);
        }
        for v in &self.vtms {
            v.save(w);
        }
        w.put_seq_len(self.inflight_reads.len());
        for c in &self.inflight_reads {
            put_completion(w, c);
        }
        w.put_u64(self.next_id);
        w.put_u64(self.id_stride);
        self.stats.save(w);
        w.put_opt_u64(self.last_step.map(DramCycle::as_u64));
        w.put_bool(self.cmd_log.is_some());
        if let Some(log) = &self.cmd_log {
            log.save(w);
        }
        w.put_seq_len(self.lock_armed.len());
        for &armed in &self.lock_armed {
            w.put_bool(armed);
        }
        w.put_u64(self.stepped_cycles);
        w.put_u64(self.skipped_cycles);
        w.put_bool(self.skip_marker.is_some());
        if let Some((edge, next)) = self.skip_marker {
            w.put_u64(edge);
            w.put_u64(next);
        }
        w.put_bool(self.fault.is_some());
        if let Some(f) = &self.fault {
            f.injector.save(w);
            w.put_seq_len(f.stall_until.len());
            for &until in &f.stall_until {
                w.put_u64(until);
            }
            w.put_u64(f.pressure_until);
        }
        w.put_bool(self.watchdog.is_some());
        if let Some(wd) = &self.watchdog {
            w.put_u64(wd.threshold);
            w.put_seq_len(wd.last_progress.len());
            for (&progress, &tripped) in wd.last_progress.iter().zip(&wd.tripped) {
                w.put_u64(progress.as_u64());
                w.put_bool(tripped);
            }
            w.put_u64(wd.next_due);
        }
        self.slowdown.save(w);
        w.put_bool(self.bliss.is_some());
        if let Some(b) = &self.bliss {
            b.save(w);
        }
        w.put_bool(self.regulate.is_some());
        if let Some(rg) = &self.regulate {
            rg.save(w);
        }
        w.put_bool(self.overload.is_some());
        if let Some(ov) = &self.overload {
            ov.save(w);
        }
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        self.dram.restore(r)?;
        let nq = r.seq_len()?;
        if nq != self.queues.len() {
            return Err(r.malformed(format!(
                "snapshot has {nq} bank queues, controller has {}",
                self.queues.len()
            )));
        }
        let mut queued = 0usize;
        for q in &mut self.queues {
            let len = r.seq_len()?;
            q.clear();
            for _ in 0..len {
                // Tiers are rebuilt below, once the tier sources are back.
                q.push(get_pending(r)?, 0);
            }
            queued += len;
        }
        let nb = r.seq_len()?;
        if nb != self.buffers.len() {
            return Err(r.malformed(format!(
                "snapshot has {nb} thread buffers, controller has {}",
                self.buffers.len()
            )));
        }
        for b in &mut self.buffers {
            b.restore(r)?;
        }
        for v in &mut self.vtms {
            v.restore(r)?;
        }
        let ni = r.seq_len()?;
        let mut inflight = Vec::with_capacity(ni);
        for _ in 0..ni {
            inflight.push(get_completion(r)?);
        }
        self.inflight_reads = inflight;
        self.next_id = r.get_u64()?;
        let stride = r.get_u64()?;
        if stride != self.id_stride {
            return Err(r.malformed(format!(
                "id stride {stride} != configured {}",
                self.id_stride
            )));
        }
        self.stats.restore(r)?;
        self.last_step = r.get_opt_u64()?.map(DramCycle::new);
        let has_log = r.get_bool()?;
        if has_log != self.cmd_log.is_some() {
            return Err(r.malformed(format!(
                "snapshot {} a command log, controller {}",
                if has_log { "carries" } else { "lacks" },
                if self.cmd_log.is_some() {
                    "has one"
                } else {
                    "has none"
                }
            )));
        }
        if let Some(log) = &mut self.cmd_log {
            log.restore(r)?;
        }
        let nl = r.seq_len()?;
        if nl != self.lock_armed.len() {
            return Err(r.malformed(format!(
                "snapshot has {nl} lock detectors, controller has {}",
                self.lock_armed.len()
            )));
        }
        for armed in &mut self.lock_armed {
            *armed = r.get_bool()?;
        }
        self.stepped_cycles = r.get_u64()?;
        self.skipped_cycles = r.get_u64()?;
        self.skip_marker = if r.get_bool()? {
            Some((r.get_u64()?, r.get_u64()?))
        } else {
            None
        };
        let has_fault = r.get_bool()?;
        if has_fault != self.fault.is_some() {
            return Err(r.malformed(
                "snapshot and controller disagree on fault-plan attachment".to_string(),
            ));
        }
        if let Some(f) = &mut self.fault {
            f.injector.restore(r)?;
            let ns = r.seq_len()?;
            if ns != f.stall_until.len() {
                return Err(r.malformed(format!(
                    "snapshot has {ns} bank-stall deadlines, controller has {}",
                    f.stall_until.len()
                )));
            }
            for until in &mut f.stall_until {
                *until = r.get_u64()?;
            }
            f.pressure_until = r.get_u64()?;
            f.drop_scratch.clear();
        }
        let has_watchdog = r.get_bool()?;
        if has_watchdog != self.watchdog.is_some() {
            return Err(
                r.malformed("snapshot and controller disagree on watchdog attachment".to_string())
            );
        }
        if let Some(wd) = &mut self.watchdog {
            let threshold = r.get_u64()?;
            if threshold != wd.threshold {
                return Err(r.malformed(format!(
                    "watchdog threshold {threshold} != configured {}",
                    wd.threshold
                )));
            }
            let nw = r.seq_len()?;
            if nw != wd.last_progress.len() {
                return Err(r.malformed(format!(
                    "snapshot has {nw} watchdog clocks, controller has {}",
                    wd.last_progress.len()
                )));
            }
            for t in 0..nw {
                wd.last_progress[t] = DramCycle::new(r.get_u64()?);
                wd.tripped[t] = r.get_bool()?;
            }
            wd.next_due = r.get_u64()?;
        }
        self.slowdown.restore(r)?;
        let has_bliss = r.get_bool()?;
        if has_bliss != self.bliss.is_some() {
            return Err(
                r.malformed("snapshot and controller disagree on the BLISS scheduler".to_string())
            );
        }
        if let Some(b) = &mut self.bliss {
            b.restore(r)?;
        }
        let has_regulate = r.get_bool()?;
        if has_regulate != self.regulate.is_some() {
            return Err(r.malformed(
                "snapshot and controller disagree on real-time regulation".to_string(),
            ));
        }
        if let Some(rg) = &mut self.regulate {
            rg.restore(r)?;
        }
        let has_overload = r.get_bool()?;
        if has_overload != self.overload.is_some() {
            return Err(
                r.malformed("snapshot and controller disagree on overload control".to_string())
            );
        }
        if let Some(ov) = &mut self.overload {
            ov.restore(r)?;
        }
        // Derived occupancy counters are recomputed from the restored
        // structures (cheaper to re-derive than to cross-validate), and
        // the scheduler memo is dropped: the first post-resume pass
        // recomputes every proposal from live state.
        self.queued = queued;
        self.occupied.clear();
        for (idx, q) in self.queues.iter().enumerate() {
            if !q.is_empty() {
                self.occupied.insert(idx);
            }
        }
        self.tx_used = self.buffers.iter().map(|b| b.transactions_used()).sum();
        self.wr_used = self.buffers.iter().map(|b| b.writes_used()).sum();
        for cache in &mut self.bank_cache {
            cache.valid = false;
        }
        if let Some(tt) = self.tiers.as_mut() {
            let tiers = (0..self.config.num_threads())
                .map(|t| tier_of(self.bliss.as_ref(), self.regulate.as_ref(), t))
                .collect();
            tt.rebuild(tiers, &mut self.queues);
        }
        Ok(())
    }
}

/// Derives the next SDRAM command a request needs, given its bank's state.
fn next_command(
    req: &MemoryRequest,
    open_row: Option<RowId>,
    rank: RankId,
    bank: BankId,
) -> Command {
    match open_row {
        Some(row) if row == req.addr.row => match req.kind {
            RequestKind::Read => Command::Read {
                rank,
                bank,
                col: req.addr.col,
            },
            RequestKind::Write => Command::Write {
                rank,
                bank,
                col: req.addr.col,
            },
        },
        Some(_) => Command::Precharge { rank, bank },
        None => Command::Activate {
            rank,
            bank,
            row: req.addr.row,
        },
    }
}

/// Classifies one pending request against the bank state: is its next
/// command's class ready this cycle, and is that command a CAS?
fn classify(p: &Pending, open_row: Option<RowId>, ready: ReadyClasses) -> (bool, bool) {
    match open_row {
        Some(row) if row == p.req.addr.row => match p.req.kind {
            RequestKind::Read => (ready.read(), true),
            RequestKind::Write => (ready.write(), true),
        },
        Some(_) => (ready.precharge(), false),
        None => (ready.activate(), false),
    }
}

/// The priority tier the active tier source assigns `thread`: 1 when
/// BLISS-blacklisted or outside its real-time budget (best-effort
/// classes and exhausted real-time buckets), else 0. BLISS and
/// regulation are mutually exclusive (`McConfig::validate`), so at most
/// one source demotes.
fn tier_of(bliss: Option<&BlissState>, reg: Option<&RegulatorState>, thread: usize) -> u8 {
    u8::from(
        bliss.is_some_and(|b| b.is_blacklisted(thread as u32))
            || reg.is_some_and(|r| !r.in_budget(thread as u32)),
    )
}

/// The bank scheduler (free function so the borrow of the queue is
/// disjoint from the device and VTMS borrows): selects in O(log n) from
/// the tiered index exactly what a linear scan ranking the queue by
/// [`Priority`] would (see the exactness argument in [`crate::select`]).
/// The caller has already probed bank-level readiness (`ready`) and FQ
/// lock engagement (`lock`, `Some(active_for)` when the inversion bound
/// has tripped); the queue is non-empty. `est` is `Some` exactly under
/// SD-VFTF.
///
/// Structure: first a *bind pre-pass* performs exactly the lazy VFT
/// bindings the ranking does — visiting still-unkeyed entries in
/// admission order and binding those that are ranking candidates (every
/// entry under the FQ lock; the class-ready ones otherwise). Then the
/// winner is read from the index:
///
/// * **locked** (FQ, Section 3.3): the earliest `(key, id)` entry across
///   both tiers, ready or not — the bank waits for it rather than letting
///   other work chain;
/// * **FCFS ablation**: only the oldest entry competes;
/// * **first-ready**: tier by tier, the open-row group's heap minimum for
///   CAS hits (gated per kind), then the tournament minimum excluding
///   that group for the precharge candidate, or the tournament minimum
///   for an activate on a closed bank.
///
/// Every proposal carries the winner's own tier to the channel
/// scheduler: a locked best-effort pick must not outrank a ready
/// in-budget real-time command from another bank, or the WCET
/// channel-interference term would be unsound.
#[allow(clippy::too_many_arguments)]
fn propose<O: Observer>(
    queue: &mut BankQueue,
    ready: ReadyClasses,
    lock: Option<u64>,
    est: Option<&SlowdownEstimator>,
    vtms: &[Vtms],
    kind: SchedulerKind,
    bank_idx: usize,
    rank: RankId,
    bank: BankId,
    open_row: Option<RowId>,
    now: DramCycle,
    timing: &TimingParams,
    lock_armed: &mut bool,
    obs: &mut O,
) -> Option<Proposal> {
    debug_assert!(!queue.is_empty());

    if kind.uses_fq_bank_scheduler() {
        if O::ENABLED && lock.is_none() {
            // The activation ended (or the bound is unreachable): re-arm
            // the inversion-trip edge detector for the next activation.
            *lock_armed = false;
        }
        if let Some(active_for) = lock {
            if O::ENABLED && !*lock_armed {
                *lock_armed = true;
                obs.on_event(&Event::InversionLock {
                    cycle: now.as_u64(),
                    bank: bank_idx as u32,
                    active_for,
                });
            }
        }
    }

    if kind.uses_vftf() {
        let locked = lock.is_some();
        queue.drain_unbound(|p| {
            if !locked && !classify(p, open_row, ready).0 {
                return None;
            }
            let v = vft_for(p, est, vtms, bank_idx, open_row, timing);
            if O::ENABLED {
                obs.on_event(&Event::VftBound {
                    cycle: now.as_u64(),
                    thread: p.req.thread.as_u32(),
                    id: p.req.id.as_u64(),
                    vft: v,
                });
            }
            Some(v)
        });
    }

    let queue = &*queue;
    let owned = |slot: u32, key: f64| {
        let req = queue.get(slot).req;
        let cmd = next_command(&req, open_row, rank, bank);
        Proposal {
            cmd,
            prio: Priority {
                ready: true,
                tier: queue.tier(slot),
                cas: cmd.is_cas(),
                key,
                id: req.id,
            },
            source: Some((bank_idx, slot as usize)),
        }
    };

    if lock.is_some() {
        // Wait for the locked pick when it is not ready: lower-priority
        // work must not chain ahead of it.
        let (sel, slot) = queue.min_any_tier().expect("non-empty, fully keyed queue");
        let pick = owned(slot, sel.key);
        return ready.allows(&pick.cmd).then_some(pick);
    }

    if !kind.uses_first_ready() {
        // FCFS ablation: only the oldest request competes.
        let slot = queue.front_slot().expect("non-empty queue");
        let p = queue.get(slot);
        return classify(p, open_row, ready)
            .0
            .then(|| owned(slot, p.req.arrival.as_f64()));
    }

    // First-ready: a ready CAS hit beats every RAS candidate of its tier,
    // and any candidate beats every candidate of a higher tier, so the
    // classes resolve in order without comparing across them.
    for tier in 0..TIERS as u8 {
        if queue.tier_is_empty(tier) {
            continue;
        }
        let best = match open_row {
            Some(row) => {
                let row = row.as_u32();
                queue
                    .min_cas(row, ready.read(), ready.write(), tier)
                    .or_else(|| {
                        ready
                            .precharge()
                            .then(|| queue.min_excluding_row(row, tier))
                            .flatten()
                    })
            }
            None => ready.activate().then(|| queue.min_all(tier)).flatten(),
        };
        if let Some((sel, slot)) = best {
            return Some(owned(slot, sel.key));
        }
    }
    None
}

/// The virtual finish time a pending request binds to now, classifying
/// its bank service by the bank's current state (Table 3). Under SD-VFTF
/// (`est` is `Some`) the key is the virtual finish time divided by the
/// thread's current slowdown estimate — scaled once, at bind time, then
/// static for the request's lifetime (the estimator only advances on
/// completions), which keeps the index keys static.
fn vft_for(
    p: &Pending,
    est: Option<&SlowdownEstimator>,
    vtms: &[Vtms],
    bank_idx: usize,
    open_row: Option<RowId>,
    timing: &TimingParams,
) -> f64 {
    let state = match open_row {
        Some(r) => fqms_dram::bank::BankState::Open(r),
        None => fqms_dram::bank::BankState::Closed,
    };
    let svc = bank_service(state, p.req.addr.row, timing);
    let v = vtms[p.req.thread.as_usize()].virtual_finish_time(
        p.req.arrival,
        bank_idx,
        svc,
        timing.burst,
    );
    match est {
        Some(e) => v / e.slowdown(p.req.thread.as_u32()),
        None => v,
    }
}

/// Bank-level readiness of each command class at one bank this cycle,
/// packed into one byte (flat layout: the [`BankCache`] key compare and
/// the cache line it sits on both shrink to single-byte operations).
///
/// [`DramDevice::bank_ready`] is a function of the bank's timing state and
/// the command kind only (rows and columns never enter the inequality), so
/// the bank scheduler probes each class once per cycle instead of once per
/// pending request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadyClasses(u8);

impl ReadyClasses {
    /// CAS read to the open row.
    const READ: u8 = 1 << 0;
    /// CAS write to the open row.
    const WRITE: u8 = 1 << 1;
    /// Precharge of the open row.
    const PRECHARGE: u8 = 1 << 2;
    /// Activate on a closed bank.
    const ACTIVATE: u8 = 1 << 3;
    /// No class ready (the empty cache key).
    const NONE: ReadyClasses = ReadyClasses(0);

    fn read(self) -> bool {
        self.0 & Self::READ != 0
    }

    fn write(self) -> bool {
        self.0 & Self::WRITE != 0
    }

    fn precharge(self) -> bool {
        self.0 & Self::PRECHARGE != 0
    }

    fn activate(self) -> bool {
        self.0 & Self::ACTIVATE != 0
    }

    /// Bank-level readiness of `cmd`, looked up by class — equivalent to
    /// `DramDevice::bank_ready` for commands derived from this bank's
    /// state (`next_command` with the same open row the probe saw).
    fn allows(&self, cmd: &Command) -> bool {
        match cmd {
            Command::Read { .. } => self.read(),
            Command::Write { .. } => self.write(),
            Command::Precharge { .. } => self.precharge(),
            Command::Activate { .. } => self.activate(),
            Command::Refresh { .. } => unreachable!("bank schedulers never propose refresh"),
        }
    }

    fn probe(dram: &DramDevice, rank: RankId, bank: BankId, open: bool, now: DramCycle) -> Self {
        let mut bits = 0u8;
        if open {
            let col = ColId::new(0);
            if dram.bank_ready(&Command::Read { rank, bank, col }, now) {
                bits |= Self::READ;
            }
            if dram.bank_ready(&Command::Write { rank, bank, col }, now) {
                bits |= Self::WRITE;
            }
            if dram.bank_ready(&Command::Precharge { rank, bank }, now) {
                bits |= Self::PRECHARGE;
            }
        } else {
            let act = Command::Activate {
                rank,
                bank,
                row: RowId::new(0),
            };
            if dram.bank_ready(&act, now) {
                bits |= Self::ACTIVATE;
            }
        }
        ReadyClasses(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fqms_dram::command::ColId as _ColId;

    fn mc(kind: SchedulerKind, threads: usize) -> MemoryController {
        MemoryController::new(
            McConfig::paper(threads, kind),
            Geometry::paper(),
            TimingParams::ddr2_800(),
        )
        .unwrap()
    }

    /// Physical address that decodes to the given (bank, row, col) on the
    /// paper geometry (single rank), accounting for the XOR fold.
    fn phys(bank: u32, row: u32, col: u32) -> u64 {
        let g = Geometry::paper();
        let map = AddressMap::new(g, 64);
        let addr = fqms_dram::command::DramAddress {
            rank: RankId::new(0),
            bank: BankId::new(bank),
            row: RowId::new(row),
            col: _ColId::new(col),
        };
        map.encode(addr)
    }

    fn run_until_idle(mc: &mut MemoryController, start: u64) -> (Vec<Completion>, u64) {
        let mut out = Vec::new();
        let mut c = start;
        while !mc.is_idle() {
            c += 1;
            out.extend(mc.step(DramCycle::new(c)));
            assert!(c < start + 1_000_000, "controller failed to drain");
        }
        (out, c)
    }

    #[test]
    fn single_read_completes_with_unloaded_latency() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 5, 3),
            DramCycle::new(0),
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut m, 0);
        assert_eq!(done.len(), 1);
        // ACT@1, RD@6, data done @ 6+5+4 = 15 -> latency 15.
        assert_eq!(done[0].latency(), 15);
        assert_eq!(m.stats().thread(ThreadId::new(0)).reads_completed, 1);
    }

    #[test]
    fn row_hits_are_serviced_back_to_back() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        for col in 0..4 {
            m.try_submit(
                ThreadId::new(0),
                RequestKind::Read,
                phys(0, 5, col),
                DramCycle::new(0),
            )
            .unwrap();
        }
        let (done, _) = run_until_idle(&mut m, 0);
        assert_eq!(done.len(), 4);
        // One activate, four reads: 4 bursts * 4 cycles of bus.
        let (acts, _, reads, _, _) = m.dram().command_counts();
        assert_eq!(acts, 1);
        assert_eq!(reads, 4);
    }

    #[test]
    fn bank_conflict_needs_precharge_activate() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(0),
        )
        .unwrap();
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 2, 0),
            DramCycle::new(0),
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut m, 0);
        assert_eq!(done.len(), 2);
        let (acts, pres, reads, _, _) = m.dram().command_counts();
        assert_eq!(acts, 2);
        assert_eq!(reads, 2);
        assert!(pres >= 1);
    }

    #[test]
    fn closed_row_policy_precharges_idle_banks() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(0),
        )
        .unwrap();
        let (_, end) = run_until_idle(&mut m, 0);
        // After the read completes, keep stepping: the idle-close precharge
        // should fire once tRAS/tRTP allow.
        let mut c = end;
        for _ in 0..40 {
            c += 1;
            m.step(DramCycle::new(c));
        }
        let (_, pres, _, _, _) = m.dram().command_counts();
        assert_eq!(pres, 1);
        assert_eq!(m.dram().open_row(RankId::new(0), BankId::new(0)), None);
    }

    #[test]
    fn writes_complete_at_issue_and_free_buffers() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Write,
            phys(2, 7, 0),
            DramCycle::new(0),
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut m, 0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, RequestKind::Write);
        assert_eq!(m.stats().thread(ThreadId::new(0)).writes_completed, 1);
        assert!(m.can_accept(ThreadId::new(0), RequestKind::Write));
    }

    #[test]
    fn nack_when_transaction_buffer_full() {
        let mut m = mc(SchedulerKind::FrFcfs, 2);
        // Fill thread 0's 16 transaction entries without stepping.
        for i in 0..16 {
            m.try_submit(
                ThreadId::new(0),
                RequestKind::Read,
                phys(i % 8, 1, 0),
                DramCycle::new(0),
            )
            .unwrap();
        }
        let err = m
            .try_submit(
                ThreadId::new(0),
                RequestKind::Read,
                phys(0, 2, 0),
                DramCycle::new(0),
            )
            .unwrap_err();
        assert_eq!(err, Nack::TransactionBufferFull);
        assert_eq!(m.stats().thread(ThreadId::new(0)).nacks, 1);
        // Independent partitions: thread 1 is unaffected.
        assert!(m.can_accept(ThreadId::new(1), RequestKind::Read));
    }

    #[test]
    fn fr_fcfs_prefers_row_hit_over_older_conflict() {
        let mut m = mc(SchedulerKind::FrFcfs, 2);
        // Open row 1 in bank 0 via thread 0's request.
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(0),
        )
        .unwrap();
        let mut c = 0u64;
        // Step until the activate + read have issued (row open, read done).
        while m.dram().open_row(RankId::new(0), BankId::new(0)).is_none() {
            c += 1;
            m.step(DramCycle::new(c));
        }
        // Now: an older request from thread 1 to a *different* row, and a
        // younger row-hit from thread 0.
        m.try_submit(
            ThreadId::new(1),
            RequestKind::Read,
            phys(0, 9, 0),
            DramCycle::new(c),
        )
        .unwrap();
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 5),
            DramCycle::new(c),
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut m, c);
        // FR-FCFS: the ready row-hit CAS (thread 0) beats the older
        // conflict (thread 1) whose precharge is also ready but is RAS.
        let reads: Vec<_> = done
            .iter()
            .filter(|d| d.kind == RequestKind::Read)
            .collect();
        let t0_finish = reads
            .iter()
            .find(|d| d.thread == ThreadId::new(0))
            .unwrap()
            .finish;
        let t1_finish = reads
            .iter()
            .find(|d| d.thread == ThreadId::new(1))
            .unwrap()
            .finish;
        assert!(t0_finish < t1_finish, "row hit should finish first");
    }

    #[test]
    fn vtms_registers_advance_on_service() {
        let mut m = mc(SchedulerKind::FqVftf, 2);
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(0),
        )
        .unwrap();
        run_until_idle(&mut m, 0);
        let v = m.vtms(ThreadId::new(0));
        assert!(v.bank_reg(0) > 0.0);
        assert!(v.channel_reg() > 0.0);
        // Thread 1 consumed nothing.
        assert_eq!(m.vtms(ThreadId::new(1)).channel_reg(), 0.0);
    }

    #[test]
    fn refresh_eventually_issues_and_unblocks() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        let mut c = 0u64;
        // Idle until past the refresh deadline.
        for _ in 0..280_100 {
            c += 1;
            m.step(DramCycle::new(c));
        }
        let (.., refreshes) = m.dram().command_counts();
        assert_eq!(refreshes, 1);
        // Traffic still works afterwards.
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(c),
        )
        .unwrap();
        let (done, _) = run_until_idle(&mut m, c);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn deferred_refresh_postpones_under_load() {
        // Keep a stream of work pending across the refresh deadline: the
        // strict controller refreshes at the deadline; the deferred one
        // postpones while work is pending.
        let run = |policy| {
            let mut cfg = McConfig::paper(1, SchedulerKind::FrFcfs);
            cfg.refresh_policy = policy;
            let mut m =
                MemoryController::new(cfg, Geometry::paper(), TimingParams::ddr2_800()).unwrap();
            let mut next_row = 0u32;
            // Step just past the refresh deadline with the queue kept busy.
            for c in 1..=280_400u64 {
                let now = DramCycle::new(c);
                if m.pending_requests() < 8 {
                    next_row += 1;
                    let _ = m.try_submit(
                        ThreadId::new(0),
                        RequestKind::Read,
                        phys(next_row % 8, 1 + next_row / 8, 0),
                        now,
                    );
                }
                m.step(now);
            }
            m.dram().command_counts().4
        };
        let strict = run(crate::policy::RefreshPolicy::Strict);
        let deferred = run(crate::policy::RefreshPolicy::Deferred { max_postponed: 8 });
        assert_eq!(strict, 1, "strict must refresh at the deadline");
        assert_eq!(deferred, 0, "deferred must postpone while work is pending");
    }

    #[test]
    fn deferred_refresh_catches_up_when_idle_or_capped() {
        let mut cfg = McConfig::paper(1, SchedulerKind::FrFcfs);
        cfg.refresh_policy = crate::policy::RefreshPolicy::Deferred { max_postponed: 8 };
        let mut m =
            MemoryController::new(cfg, Geometry::paper(), TimingParams::ddr2_800()).unwrap();
        // Idle system: the deferred policy refreshes as soon as it is due
        // (nothing pending to defer for).
        for c in 1..=281_000u64 {
            m.step(DramCycle::new(c));
        }
        assert_eq!(m.dram().command_counts().4, 1);
    }

    #[test]
    fn shared_buffer_pool_lets_one_thread_occupy_everything() {
        let mut cfg = McConfig::paper(2, SchedulerKind::FqVftf);
        cfg.buffer_sharing = crate::policy::BufferSharing::Shared;
        let mut m =
            MemoryController::new(cfg, Geometry::paper(), TimingParams::ddr2_800()).unwrap();
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        // Thread 0 fills the whole 32-entry pooled transaction buffer
        // (impossible under the paper's 16-entry partitions).
        for i in 0..32u32 {
            m.try_submit(
                t0,
                RequestKind::Read,
                phys(i % 8, 1 + i, 0),
                DramCycle::new(0),
            )
            .unwrap();
        }
        // Thread 1 is now NACKed at admission despite consuming nothing.
        assert!(!m.can_accept(t1, RequestKind::Read));
        assert!(m
            .try_submit(t1, RequestKind::Read, phys(0, 99, 0), DramCycle::new(0))
            .is_err());
        // Under partitioning the same traffic leaves thread 1 untouched.
        let mut part = mc(SchedulerKind::FqVftf, 2);
        for i in 0..16u32 {
            part.try_submit(
                t0,
                RequestKind::Read,
                phys(i % 8, 1 + i, 0),
                DramCycle::new(0),
            )
            .unwrap();
        }
        assert!(part.can_accept(t1, RequestKind::Read));
    }

    #[test]
    fn step_rejects_non_monotonic_cycles() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        m.step(DramCycle::new(5));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.step(DramCycle::new(5));
        }));
        assert!(r.is_err());
    }

    #[test]
    fn open_row_policy_keeps_idle_rows_open() {
        let mut cfg = McConfig::paper(1, SchedulerKind::FrFcfs);
        cfg.row_policy = crate::policy::RowPolicy::Open;
        let mut m =
            MemoryController::new(cfg, Geometry::paper(), TimingParams::ddr2_800()).unwrap();
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(0),
        )
        .unwrap();
        let (_, end) = run_until_idle(&mut m, 0);
        let mut c = end;
        for _ in 0..60 {
            c += 1;
            m.step(DramCycle::new(c));
        }
        // Unlike the closed policy, the row stays open with no pending work.
        assert_eq!(
            m.dram().open_row(RankId::new(0), BankId::new(0)),
            Some(RowId::new(1))
        );
        let (_, pres, ..) = m.dram().command_counts();
        assert_eq!(pres, 0);
    }

    #[test]
    fn at_arrival_binding_charges_vtms_at_submit() {
        let mut cfg = McConfig::paper(2, SchedulerKind::FqVftf);
        cfg.vft_binding = crate::policy::VftBinding::AtArrival;
        let mut m =
            MemoryController::new(cfg, Geometry::paper(), TimingParams::ddr2_800()).unwrap();
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(10),
        )
        .unwrap();
        // Registers move immediately: bank by (tRCD+tCL)/phi, channel by BL/2.
        let v = m.vtms(ThreadId::new(0));
        let bank0 = m.address_map().decode(phys(0, 1, 0)).bank.as_usize();
        assert_eq!(v.bank_reg(bank0), 10.0 + 10.0 / 0.5);
        assert_eq!(v.channel_reg(), 30.0 + 4.0 / 0.5);
        let bank_before = v.bank_reg(bank0);
        let chan_before = v.channel_reg();
        // Servicing the request must NOT charge the registers again.
        run_until_idle(&mut m, 10);
        let v = m.vtms(ThreadId::new(0));
        assert_eq!(v.bank_reg(bank0), bank_before);
        assert_eq!(v.channel_reg(), chan_before);
    }

    #[test]
    fn at_arrival_binding_emits_arrival_before_vft_bound() {
        // event.rs contract: within a cycle, admission events precede
        // scheduling events — replay consumers (differential.rs) key the
        // VFT onto a request first seen via its Arrival.
        let mut cfg = McConfig::paper(2, SchedulerKind::FqVftf);
        cfg.vft_binding = crate::policy::VftBinding::AtArrival;
        let mut m =
            MemoryController::new(cfg, Geometry::paper(), TimingParams::ddr2_800()).unwrap();
        let mut obs = fqms_obs::TracingObserver::new(16, 2);
        m.try_submit_observed(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(10),
            &mut obs,
        )
        .unwrap();
        let events: Vec<Event> = obs.events().iter().copied().collect();
        let arrival = events
            .iter()
            .position(|e| matches!(e, Event::Arrival { .. }))
            .expect("admission emits Arrival");
        let bound = events
            .iter()
            .position(|e| matches!(e, Event::VftBound { .. }))
            .expect("at-arrival binding emits VftBound");
        assert!(arrival < bound, "Arrival must precede VftBound: {events:?}");
    }

    #[test]
    fn channel_scheduler_prefers_cas_over_ras_across_banks() {
        // Thread 0 has a ready row hit in bank 0; thread 1 has a ready
        // activate in bank 1 with an *earlier* arrival. The CAS must win
        // the channel arbitration (priority level 2 beats level 3).
        let mut m = mc(SchedulerKind::FrFcfs, 2);
        // Open row 1 in bank 0.
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(0),
        )
        .unwrap();
        let mut c = 0u64;
        while m.dram().open_row(RankId::new(0), BankId::new(0)).is_none() || !m.is_idle() {
            c += 1;
            m.step(DramCycle::new(c));
            if c > 100 {
                break;
            }
        }
        // Older request: thread 1 activate in bank 1. Newer: thread 0 row
        // hit in bank 0.
        m.try_submit(
            ThreadId::new(1),
            RequestKind::Read,
            phys(1, 2, 0),
            DramCycle::new(c),
        )
        .unwrap();
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 3),
            DramCycle::new(c),
        )
        .unwrap();
        // The next issued command must be the read (CAS), not the activate.
        let reads_before = m.dram().command_counts().2;
        let acts_before = m.dram().command_counts().0;
        loop {
            c += 1;
            m.step(DramCycle::new(c));
            let (acts, _, reads, _, _) = m.dram().command_counts();
            if reads > reads_before {
                break; // CAS issued first: correct
            }
            assert_eq!(acts, acts_before, "activate must not beat the ready CAS");
        }
        run_until_idle(&mut m, c);
    }

    #[test]
    fn vft_is_stable_once_bound() {
        // Under FR-VFTF, a request's priority must not drift while it
        // waits (stable EDF ordering). We observe this indirectly: two
        // same-thread requests to one bank complete in VFT (arrival) order
        // even when the younger becomes ready first... which for one
        // thread and one row cannot invert; so instead check the cached
        // VFT does not change the completion order across a conflicting
        // interleaving.
        let mut m = mc(SchedulerKind::FrVftf, 2);
        let t0 = ThreadId::new(0);
        let t1 = ThreadId::new(1);
        m.try_submit(t0, RequestKind::Read, phys(2, 1, 0), DramCycle::new(0))
            .unwrap();
        m.try_submit(t1, RequestKind::Read, phys(2, 2, 0), DramCycle::new(0))
            .unwrap();
        m.try_submit(t0, RequestKind::Read, phys(2, 1, 1), DramCycle::new(0))
            .unwrap();
        let (done, _) = run_until_idle(&mut m, 0);
        assert_eq!(done.len(), 3);
        // All three complete exactly once (conservation under VFTF).
        let mut ids: Vec<u64> = done.iter().map(|d| d.id.as_u64()).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn command_log_captures_issue_sequence() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        m.enable_command_log(16);
        m.try_submit(
            ThreadId::new(0),
            RequestKind::Read,
            phys(0, 1, 0),
            DramCycle::new(0),
        )
        .unwrap();
        run_until_idle(&mut m, 0);
        let log = m.command_log().unwrap();
        let kinds: Vec<_> = log.iter().map(|r| r.cmd.kind()).collect();
        use fqms_dram::command::CommandKind::*;
        // ACT then RD for the request; the closed-row precharge follows
        // later (possibly beyond this drain window).
        assert!(kinds.starts_with(&[Activate, Read]), "got {kinds:?}");
        assert_eq!(log.iter().next().unwrap().thread, Some(ThreadId::new(0)));
    }

    #[test]
    fn row_locality_classification_counts() {
        let mut m = mc(SchedulerKind::FrFcfs, 1);
        let t0 = ThreadId::new(0);
        // 1) closed-bank access (ACT + RD) -> row_closed.
        m.try_submit(t0, RequestKind::Read, phys(0, 1, 0), DramCycle::new(0))
            .unwrap();
        // 2) row hit (same row, queued behind) -> row_hits.
        m.try_submit(t0, RequestKind::Read, phys(0, 1, 1), DramCycle::new(0))
            .unwrap();
        // 3) conflict (different row, same bank) -> row_conflicts.
        m.try_submit(t0, RequestKind::Read, phys(0, 2, 0), DramCycle::new(0))
            .unwrap();
        run_until_idle(&mut m, 0);
        let s = m.stats().thread(t0);
        assert_eq!(s.row_closed, 1, "{s:?}");
        assert_eq!(s.row_hits, 1, "{s:?}");
        assert_eq!(s.row_conflicts, 1, "{s:?}");
        assert!((s.row_hit_rate() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_thread_bus_accounting_sums_to_device_total() {
        let mut m = mc(SchedulerKind::FrFcfs, 2);
        for i in 0..6 {
            m.try_submit(
                ThreadId::new(i % 2),
                RequestKind::Read,
                phys(i % 8, 1 + i, 0),
                DramCycle::new(0),
            )
            .unwrap();
        }
        run_until_idle(&mut m, 0);
        let per_thread: u64 = m.stats().iter().map(|(_, s)| s.bus_busy_cycles).sum();
        assert_eq!(per_thread, m.dram().bus_busy_cycles());
    }

    // ---- production selection vs the linear reference ranking ---------

    use crate::select::TIERS;
    use fqms_obs::Event;
    use fqms_sim::rng::{CaseRunner, SimRng};

    /// The linear reference ranking — the bank scheduler's specification:
    /// every queued entry is ranked in admission order by [`Priority`]
    /// under the thread tiers `tier`, without touching the queue. Under
    /// the FQ lock the earliest `(key, id)` entry wins regardless of tier
    /// or readiness (and proposes only if ready). Returns the winning
    /// proposal and the `(id, vft)` bindings the evaluation performs, in
    /// order.
    #[allow(clippy::too_many_arguments)]
    fn rank_linear(
        queue: &BankQueue,
        ready: ReadyClasses,
        locked: bool,
        tier: &[u8],
        est: Option<&SlowdownEstimator>,
        vtms: &[Vtms],
        kind: SchedulerKind,
        open_row: Option<RowId>,
        timing: &TimingParams,
    ) -> (Option<Proposal>, Vec<(u64, f64)>) {
        let (rank, bank) = (RankId::new(0), BankId::new(0));
        let mut bound = Vec::new();
        let mut key_of = |p: &Pending| match p.vft {
            Some(v) => v,
            None => {
                let v = vft_for(p, est, vtms, 0, open_row, timing);
                bound.push((p.req.id.as_u64(), v));
                v
            }
        };
        let proposal = |slot: u32, p: &Pending, cas: bool, key: f64| Proposal {
            cmd: next_command(&p.req, open_row, rank, bank),
            prio: Priority {
                ready: true,
                tier: tier[p.req.thread.as_usize()],
                cas,
                key,
                id: p.req.id,
            },
            source: Some((0, slot as usize)),
        };
        if kind.uses_fq_bank_scheduler() && locked {
            let mut best: Option<(u32, f64, RequestId)> = None;
            for (slot, p) in queue.iter() {
                let key = key_of(p);
                match best {
                    Some((_, bk, bid)) if (bk, bid) <= (key, p.req.id) => {}
                    _ => best = Some((slot, key, p.req.id)),
                }
            }
            let (slot, key, _) = best.expect("non-empty queue");
            let p = queue.get(slot);
            let cmd = next_command(&p.req, open_row, rank, bank);
            let pick = ready
                .allows(&cmd)
                .then(|| proposal(slot, p, cmd.is_cas(), key));
            return (pick, bound);
        }
        let mut best: Option<Proposal> = None;
        for (seen, (slot, p)) in queue.iter().enumerate() {
            if seen > 0 && !kind.uses_first_ready() {
                break; // FCFS ablation: only the oldest request competes
            }
            let (class_ready, cas) = classify(p, open_row, ready);
            if !class_ready {
                continue;
            }
            let key = if kind.uses_vftf() {
                key_of(p)
            } else {
                p.req.arrival.as_f64()
            };
            let candidate = proposal(slot, p, cas, key);
            if best.is_none_or(|b| candidate.prio < b.prio) {
                best = Some(candidate);
            }
        }
        (best, bound)
    }

    /// Records every event a scheduling call emits.
    #[derive(Default)]
    struct Recorder(Vec<Event>);

    impl Observer for Recorder {
        const ENABLED: bool = true;
        fn on_event(&mut self, event: &Event) {
            self.0.push(*event);
        }
    }

    /// One step after the queue is filled.
    #[derive(Debug, Clone, Copy)]
    enum SelectStep {
        /// One bank-scheduler evaluation, checked against the oracle.
        Eval {
            ready: u8,
            locked: bool,
            open_row: Option<u32>,
        },
        /// A tier flip of one thread (moves its queued entries).
        Flip { thread: u32, tier: u8 },
        /// Removal of the `n`-th live entry (mod live), as a CAS issue or
        /// a fault drop would.
        Remove(usize),
    }

    /// A random bank queue (`(thread, row, write, arrival, prebound)`
    /// entries), initial thread tiers, VTMS / slowdown history, and a
    /// step sequence.
    #[derive(Debug, Clone)]
    struct SelectCase {
        threads: u32,
        tiers: Vec<u8>,
        entries: Vec<(u32, u32, bool, u64, Option<f64>)>,
        history: Vec<(u32, u64, u64)>,
        steps: Vec<SelectStep>,
    }

    fn gen_select_case(rng: &mut SimRng) -> SelectCase {
        let threads = 1 + rng.next_below(4) as u32;
        let tiers = (0..threads)
            .map(|_| rng.next_below(TIERS as u64) as u8)
            .collect();
        let entries = (0..1 + rng.next_below(24))
            .map(|_| {
                (
                    rng.next_below(u64::from(threads)) as u32,
                    rng.next_below(4) as u32,
                    rng.chance(0.3),
                    rng.next_below(64),
                    // Duplicate-heavy pre-bound keys exercise id tiebreaks.
                    rng.chance(0.25).then(|| rng.next_below(6) as f64 * 40.0),
                )
            })
            .collect();
        let history = (0..rng.next_below(6))
            .map(|_| {
                (
                    rng.next_below(u64::from(threads)) as u32,
                    1 + rng.next_below(40),
                    1 + rng.next_below(400),
                )
            })
            .collect();
        let steps = (0..1 + rng.next_below(8))
            .map(|_| match rng.next_below(6) {
                0..=2 => {
                    let open_row = rng.chance(0.6).then(|| rng.next_below(5) as u32);
                    let ready = if open_row.is_some() {
                        rng.next_below(8) as u8 // READ | WRITE | PRECHARGE
                    } else if rng.chance(0.8) {
                        ReadyClasses::ACTIVATE
                    } else {
                        0
                    };
                    SelectStep::Eval {
                        ready,
                        locked: rng.chance(0.4),
                        open_row,
                    }
                }
                3 | 4 => SelectStep::Flip {
                    thread: rng.next_below(u64::from(threads)) as u32,
                    tier: rng.next_below(TIERS as u64) as u8,
                },
                _ => SelectStep::Remove(rng.next_below(32) as usize),
            })
            .collect();
        SelectCase {
            threads,
            tiers,
            entries,
            history,
            steps,
        }
    }

    fn shrink_select_case(c: &SelectCase) -> Vec<SelectCase> {
        let mut out = Vec::new();
        for i in (0..c.steps.len()).rev() {
            let mut s = c.clone();
            s.steps.remove(i);
            out.push(s);
        }
        for i in (0..c.entries.len()).rev() {
            let mut s = c.clone();
            s.entries.remove(i);
            if !s.entries.is_empty() {
                out.push(s);
            }
        }
        if !c.history.is_empty() {
            let mut s = c.clone();
            s.history.clear();
            out.push(s);
        }
        out
    }

    /// Replays one case under `kind`: every evaluation of the production
    /// [`propose`] must return the oracle's proposal (command, full
    /// priority including the tier, source slot), emit exactly the
    /// oracle's `VftBound` events in order, and store the bound keys.
    fn check_select_case(c: &SelectCase, kind: SchedulerKind) -> Result<(), String> {
        let timing = TimingParams::ddr2_800();
        let n = c.threads as usize;
        let mut vtms: Vec<Vtms> = (0..n)
            .map(|_| Vtms::new(1.0 / n as f64, 1).expect("valid share"))
            .collect();
        let mut est = SlowdownEstimator::new(n);
        for &(t, arrival, svc) in &c.history {
            vtms[t as usize].update_bank(DramCycle::new(arrival), 0, svc);
            vtms[t as usize].update_channel(0, timing.burst);
            est.record(t, svc, svc + arrival);
        }
        let est = (kind == SchedulerKind::SdVftf).then_some(&est);
        let mut queues = vec![BankQueue::new(kind.uses_vftf())];
        let mut tiers = ThreadTiers::new(c.tiers.clone());
        for (id, &(thread, row, write, arrival, vft)) in c.entries.iter().enumerate() {
            let slot = queues[0].push(
                Pending {
                    req: MemoryRequest {
                        id: RequestId::new(id as u64),
                        thread: ThreadId::new(thread),
                        kind: if write {
                            RequestKind::Write
                        } else {
                            RequestKind::Read
                        },
                        addr: DramAddress {
                            rank: RankId::new(0),
                            bank: BankId::new(0),
                            row: RowId::new(row),
                            col: ColId::new(0),
                        },
                        arrival: DramCycle::new(arrival),
                    },
                    vft: vft.filter(|_| kind.uses_vftf()),
                    ras_issued: 0,
                },
                tiers.tier(thread as usize),
            );
            tiers.note_push(thread as usize, 0, slot, id as u64, &queues);
        }
        let mut tier = c.tiers.clone();
        for (step, &s) in c.steps.iter().enumerate() {
            match s {
                SelectStep::Flip { thread, tier: to } => {
                    tiers.set(thread as usize, to, &mut queues, |_| {});
                    tier[thread as usize] = to;
                }
                SelectStep::Remove(k) => {
                    let q = &mut queues[0];
                    if q.len() > 1 {
                        let slot = q.nth_slot(k % q.len()).expect("bounded by len");
                        q.remove(slot);
                    }
                }
                SelectStep::Eval {
                    ready,
                    locked,
                    open_row,
                } => {
                    let ready = ReadyClasses(ready);
                    let open_row = open_row.map(RowId::new);
                    // `schedule_normal` engages the lock only under FQ.
                    let locked = locked && kind.uses_fq_bank_scheduler();
                    let (want, binds) = rank_linear(
                        &queues[0], ready, locked, &tier, est, &vtms, kind, open_row, &timing,
                    );
                    let mut rec = Recorder::default();
                    let got = propose(
                        &mut queues[0],
                        ready,
                        locked.then_some(timing.t_ras),
                        est,
                        &vtms,
                        kind,
                        0,
                        RankId::new(0),
                        BankId::new(0),
                        open_row,
                        DramCycle::new(1_000),
                        &timing,
                        &mut false,
                        &mut rec,
                    );
                    let view = |p: Option<Proposal>| p.map(|p| (p.cmd, p.prio, p.source));
                    if view(got) != view(want) {
                        return Err(format!(
                            "{kind} step {step}: proposal {:?} != oracle {:?}",
                            view(got),
                            view(want)
                        ));
                    }
                    let emitted: Vec<(u64, u64)> = rec
                        .0
                        .iter()
                        .filter_map(|e| match *e {
                            Event::VftBound { id, vft, .. } => Some((id, vft.to_bits())),
                            _ => None,
                        })
                        .collect();
                    let expected: Vec<(u64, u64)> =
                        binds.iter().map(|&(id, v)| (id, v.to_bits())).collect();
                    if emitted != expected {
                        return Err(format!(
                            "{kind} step {step}: VftBound order {emitted:?} != oracle {expected:?}"
                        ));
                    }
                    for &(id, v) in &binds {
                        let stored = queues[0]
                            .iter()
                            .find(|(_, p)| p.req.id.as_u64() == id)
                            .and_then(|(_, p)| p.vft);
                        if stored.map(f64::to_bits) != Some(v.to_bits()) {
                            return Err(format!(
                                "{kind} step {step}: id {id} stored {stored:?}, bound {v}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn indexed_propose_matches_linear_ranking_across_tiers() {
        CaseRunner::new("propose-vs-linear-ranking").cases(256).run(
            gen_select_case,
            shrink_select_case,
            |c| {
                SchedulerKind::all()
                    .into_iter()
                    .try_for_each(|kind| check_select_case(c, kind))
            },
        );
    }
}
