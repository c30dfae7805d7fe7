//! The trace-driven processor core model.
//!
//! A deliberately simplified out-of-order core that preserves exactly the
//! mechanisms this paper's results depend on:
//!
//! * **retirement-limited IPC** — up to `issue_width` instructions retire
//!   per cycle, in order; a load miss at the head of the ROB stalls
//!   retirement until its data returns, so memory latency costs IPC,
//! * **bounded memory-level parallelism** — dispatch may run at most
//!   `rob_size` instructions ahead of retirement and at most `mshrs` load
//!   misses may be outstanding, so latency can only be overlapped up to the
//!   workload's MLP (and `dependent` accesses serialize on the previous
//!   load, modelling pointer chasing),
//! * **private two-level caches** — misses filter through L1/L2 (Table 5
//!   geometry) before reaching the shared memory controller; dirty L2
//!   evictions generate writeback traffic,
//! * **back-pressure** — when the controller NACKs (per-thread buffer
//!   partitions full) dispatch stalls and retries, exactly the paper's
//!   per-thread flow control.
//!
//! Stores are idealized through the L2 store-merge buffer of Table 5: they
//! allocate directly into L2 without a read-for-ownership fetch, so write
//! memory traffic consists of dirty writebacks (documented substitution;
//! see DESIGN.md).

use crate::cache::{Cache, CacheConfig, Lookup};
use crate::trace::{TraceOp, TraceSource};
use fqms_memctrl::controller::Completion;
use fqms_memctrl::port::MemoryPort;
use fqms_memctrl::request::{RequestId, RequestKind, ThreadId};
use fqms_sim::clock::{CpuCycle, DramCycle};
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};
use fqms_sim::stats::Histogram;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Configuration of one core (paper Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Maximum instructions dispatched/retired per cycle.
    pub issue_width: u32,
    /// Reorder-buffer capacity in instructions.
    pub rob_size: u32,
    /// Maximum outstanding load misses (D-cache MSHRs).
    pub mshrs: u32,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Private L2 geometry.
    pub l2: CacheConfig,
    /// Fixed CPU-cycle overhead added to every memory read round trip
    /// (interconnect crossing, controller front-end, return path);
    /// calibrated so the unloaded read latency lands near the paper's
    /// ~180 processor cycles.
    pub memory_overhead: u64,
    /// Writeback queue depth; dispatch of memory ops stalls when full.
    pub writeback_queue: usize,
    /// Next-line prefetch degree: on each demand L2 miss, also fetch the
    /// next `prefetch_degree` sequential lines (0 disables prefetching,
    /// the paper's configuration). Prefetches share the MSHR file and
    /// memory bandwidth with demand misses.
    pub prefetch_degree: u32,
}

impl CoreConfig {
    /// The paper's Table 5 processor configuration.
    pub const fn paper() -> Self {
        CoreConfig {
            issue_width: 8,
            rob_size: 128,
            mshrs: 16,
            l1d: CacheConfig::paper_l1d(),
            l2: CacheConfig::paper_l2(),
            memory_overhead: 96,
            writeback_queue: 16,
            prefetch_degree: 0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if self.issue_width == 0 || self.rob_size == 0 || self.mshrs == 0 {
            return Err("issue width, ROB size, and MSHR count must be non-zero".into());
        }
        if self.writeback_queue == 0 {
            return Err("writeback queue must be non-zero".into());
        }
        self.l1d.validate()?;
        self.l2.validate()?;
        if self.l1d.line_bytes != self.l2.line_bytes {
            return Err("L1 and L2 line sizes must match".into());
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper()
    }
}

/// Execution statistics for one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Loads that hit in L1.
    pub l1_hits: u64,
    /// Loads that hit in L2.
    pub l2_hits: u64,
    /// Demand load misses sent to memory (after MSHR coalescing).
    pub mem_reads: u64,
    /// Loads coalesced into an existing MSHR.
    pub coalesced: u64,
    /// Dirty-line writebacks sent to memory.
    pub writebacks: u64,
    /// Cycles dispatch stalled on a full MSHR file, a controller NACK, or
    /// (for a store) a full writeback queue.
    pub backpressure_stall_cycles: u64,
    /// Cycles dispatch stalled on an address dependence (pointer chase).
    pub dependence_stall_cycles: u64,
    /// Sum of load-miss round-trip latencies in CPU cycles.
    pub miss_latency_total: u64,
    /// Number of load-miss round trips measured.
    pub miss_latency_count: u64,
    /// Prefetch requests issued to memory.
    pub prefetches_issued: u64,
    /// Demand loads that hit a line brought in (or in flight) by a
    /// prefetch.
    pub prefetch_hits: u64,
}

impl CoreStats {
    /// Average memory read (load miss) latency in CPU cycles.
    pub fn avg_miss_latency(&self) -> f64 {
        if self.miss_latency_count == 0 {
            0.0
        } else {
            self.miss_latency_total as f64 / self.miss_latency_count as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    count: u32,
    ready_at: CpuCycle,
}

#[derive(Debug, Clone)]
struct OutstandingMiss {
    line: u64,
    entry_seqs: Vec<u64>,
    issued_at: CpuCycle,
    /// True if this request was initiated by the prefetcher (no ROB entry
    /// waits on it and it does not count toward latency statistics unless
    /// a demand load later coalesces onto it).
    is_prefetch: bool,
}

#[derive(Debug, Clone, Copy)]
struct CurrentOp {
    work_left: u32,
    access: Option<crate::trace::MemAccess>,
    /// A stalled attempt to dispatch this op's load found it missing from
    /// L1 and a *private* L2 with no MSHR for its line. That stays true
    /// until the op dispatches: a private cache fills a line only when an
    /// MSHR for it completes, and while dispatch is stalled on this op no
    /// MSHR for its line can start (prefetches follow a demand
    /// submission). [`Core::on_completion`] asserts this in debug builds.
    /// With a shared L2 another core's fill could make the line present,
    /// so the memo is never set there. Never serialized: a restored core
    /// starts without it and re-derives it.
    missed: bool,
}

/// A core's second-level cache: private (the paper's configuration) or a
/// handle to a cache shared among cores (an extension used to demonstrate
/// that the FQ *memory* scheduler cannot isolate threads once the cache
/// itself is a contended resource — the paper deliberately gives each core
/// private caches so "the SDRAM memory system is the only shared
/// resource").
#[derive(Debug, Clone)]
pub enum L2Handle {
    /// A private per-core L2.
    Private(Box<Cache>),
    /// A cache shared by several cores (single-threaded simulation, so a
    /// plain `Rc<RefCell>` suffices).
    Shared(Rc<RefCell<Cache>>),
}

impl L2Handle {
    fn probe(&mut self, addr: u64, write: bool) -> Lookup {
        match self {
            L2Handle::Private(c) => c.probe(addr, write),
            L2Handle::Shared(c) => c.borrow_mut().probe(addr, write),
        }
    }

    fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        match self {
            L2Handle::Private(c) => c.fill(addr, write),
            L2Handle::Shared(c) => c.borrow_mut().fill(addr, write),
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> Lookup {
        match self {
            L2Handle::Private(c) => c.access(addr, write),
            L2Handle::Shared(c) => c.borrow_mut().access(addr, write),
        }
    }

    fn charge_miss(&mut self) {
        match self {
            L2Handle::Private(c) => c.charge_miss(),
            L2Handle::Shared(c) => c.borrow_mut().charge_miss(),
        }
    }
}

/// A trace-driven core attached to a shared memory controller as one
/// hardware thread.
///
/// Drive it by calling [`Core::tick`] once per CPU cycle and routing read
/// [`Completion`]s from the controller back via [`Core::on_completion`].
pub struct Core {
    config: CoreConfig,
    thread: ThreadId,
    trace: Box<dyn TraceSource>,
    l1d: Cache,
    l2: L2Handle,
    rob: VecDeque<RobEntry>,
    rob_insts: u32,
    next_seq: u64,
    current: Option<CurrentOp>,
    outstanding: HashMap<RequestId, OutstandingMiss>,
    mshr_by_line: HashMap<u64, RequestId>,
    last_load_miss: Option<RequestId>,
    writeback_q: VecDeque<u64>,
    retired: u64,
    cycles: u64,
    stats: CoreStats,
    /// Load-miss round-trip latency distribution (CPU cycles; 32-cycle
    /// buckets out to ~8K cycles).
    latency_hist: Histogram,
    /// Cache probes charged without a set search ([`CurrentOp::missed`]);
    /// diagnostic, never serialized.
    reprobes_charged: u64,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("thread", &self.thread)
            .field("retired", &self.retired)
            .field("cycles", &self.cycles)
            .field("rob_insts", &self.rob_insts)
            .field("outstanding", &self.outstanding.len())
            .finish_non_exhaustive()
    }
}

impl Core {
    /// Creates a core for hardware thread `thread` fed by `trace`.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration is invalid.
    pub fn new(
        config: CoreConfig,
        thread: ThreadId,
        trace: Box<dyn TraceSource>,
    ) -> Result<Self, String> {
        config.validate()?;
        Ok(Core {
            l1d: Cache::new(config.l1d)?,
            l2: L2Handle::Private(Box::new(Cache::new(config.l2)?)),
            config,
            thread,
            trace,
            rob: VecDeque::new(),
            rob_insts: 0,
            next_seq: 0,
            current: None,
            outstanding: HashMap::new(),
            mshr_by_line: HashMap::new(),
            last_load_miss: None,
            writeback_q: VecDeque::new(),
            retired: 0,
            cycles: 0,
            stats: CoreStats::default(),
            latency_hist: Histogram::new(32, 256),
            reprobes_charged: 0,
        })
    }

    /// Creates a core whose L2 is `shared` (see [`L2Handle`]); the
    /// config's `l2` geometry is ignored in favour of the shared cache's.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration is invalid.
    pub fn with_shared_l2(
        config: CoreConfig,
        thread: ThreadId,
        trace: Box<dyn TraceSource>,
        shared: Rc<RefCell<Cache>>,
    ) -> Result<Self, String> {
        let mut core = Core::new(config, thread, trace)?;
        core.l2 = L2Handle::Shared(shared);
        Ok(core)
    }

    /// This core's hardware thread id.
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// CPU cycles simulated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instructions per cycle so far (0.0 before the first cycle).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The distribution of load-miss round-trip latencies in CPU cycles.
    pub fn latency_histogram(&self) -> &Histogram {
        &self.latency_hist
    }

    /// Cache probes this core charged to a load retry without searching
    /// the set (its miss was already known), since the last
    /// [`Core::reset_stats`].
    pub fn reprobes_charged(&self) -> u64 {
        self.reprobes_charged
    }

    /// Zeroes the measurement counters (retired instructions, cycles,
    /// statistics, fast-path charges) while preserving all
    /// microarchitectural state — warm caches, ROB contents, outstanding
    /// misses. Used to exclude warmup from measurement.
    pub fn reset_stats(&mut self) {
        self.retired = 0;
        self.cycles = 0;
        self.stats = CoreStats::default();
        self.latency_hist = Histogram::new(32, 256);
        self.reprobes_charged = 0;
    }

    /// Functionally warms the cache hierarchy by running `accesses` memory
    /// references from the trace through the caches with no timing — the
    /// equivalent of starting from a sampled trace with warm caches.
    /// Writeback traffic and timing are discarded; the trace simply
    /// advances past its warmup prefix, compute-only ops included.
    ///
    /// Each reference costs one [`Cache::access`] per level it reaches
    /// (stores go straight to the L2, loads through the L1D): a single
    /// pass over the set that hits, or misses and fills.
    ///
    /// Warming stops early once `accesses` consecutive ops carry no memory
    /// reference, so a compute-only trace (or one whose first reference
    /// lies further off than that) cannot stall it.
    pub fn prewarm_caches(&mut self, accesses: u64) {
        let mut warmed = 0;
        let mut idle = 0;
        while warmed < accesses {
            let Some(acc) = self.trace.next_op().access else {
                idle += 1;
                if idle >= accesses {
                    return;
                }
                continue;
            };
            idle = 0;
            warmed += 1;
            // The L1D and the L2 keep independent LRU stamps, so the order
            // of the two accesses does not matter.
            if acc.is_write {
                self.l2.access(acc.addr, true);
            } else if self.l1d.access(acc.addr, false) == Lookup::Miss {
                self.l2.access(acc.addr, false);
            }
        }
    }

    /// Advances the core by one CPU cycle: retire, drain one writeback,
    /// dispatch. `now_dram` is the DRAM cycle used to timestamp requests
    /// submitted to the controller this CPU cycle.
    pub fn tick<P: MemoryPort>(&mut self, now: CpuCycle, now_dram: DramCycle, mc: &mut P) {
        self.cycles += 1;
        self.retire(now);
        self.drain_writeback(now_dram, mc);
        self.dispatch(now, now_dram, mc);
    }

    /// Delivers a completed read. `data_ready` is the CPU cycle at which
    /// the data becomes usable (burst completion converted to the CPU
    /// domain plus the fixed memory overhead).
    ///
    /// # Panics
    ///
    /// Panics if the completion does not belong to this core or is not a
    /// read.
    pub fn on_completion(&mut self, c: &Completion, data_ready: CpuCycle) {
        assert_eq!(c.thread, self.thread, "completion routed to wrong core");
        assert_eq!(
            c.kind,
            RequestKind::Read,
            "cores only track read completions"
        );
        let miss = self
            .outstanding
            .remove(&c.id)
            .expect("completion for unknown request");
        self.mshr_by_line.remove(&miss.line);
        if self.last_load_miss == Some(c.id) {
            self.last_load_miss = None;
        }
        debug_assert!(
            !self.current.is_some_and(|cur| cur.missed
                && cur
                    .access
                    .is_some_and(|a| a.addr & !(self.config.l1d.line_bytes - 1) == miss.line)),
            "a completion filled the line a stalled load memoized as missing"
        );
        let demand = !miss.is_prefetch || !miss.entry_seqs.is_empty();
        if demand {
            let latency = data_ready.as_u64() - miss.issued_at.as_u64();
            self.stats.miss_latency_total += latency;
            self.stats.miss_latency_count += 1;
            self.latency_hist.record(latency);
        }
        // Fill the hierarchy; a dirty L2 eviction becomes writeback traffic.
        if let Some(victim) = self.l2.fill(miss.line, false) {
            self.writeback_q.push_back(victim);
            self.stats.writebacks += 1;
        }
        if demand {
            let _ = self.l1d.fill(miss.line, false); // L1 load lines are never dirty
        }
        // ROB sequence numbers strictly increase front to back.
        for &seq in &miss.entry_seqs {
            let i = self.rob.partition_point(|e| e.seq < seq);
            if let Some(e) = self.rob.get_mut(i).filter(|e| e.seq == seq) {
                e.ready_at = data_ready;
            }
        }
    }

    fn retire(&mut self, now: CpuCycle) {
        let mut budget = self.config.issue_width;
        while budget > 0 {
            let Some(front) = self.rob.front_mut() else {
                break;
            };
            if front.ready_at > now {
                break;
            }
            let n = budget.min(front.count);
            front.count -= n;
            budget -= n;
            self.retired += n as u64;
            self.rob_insts -= n;
            if front.count == 0 {
                self.rob.pop_front();
            }
        }
    }

    fn drain_writeback<P: MemoryPort>(&mut self, now_dram: DramCycle, mc: &mut P) {
        if let Some(&addr) = self.writeback_q.front() {
            if mc
                .submit(self.thread, RequestKind::Write, addr, now_dram)
                .is_ok()
            {
                self.writeback_q.pop_front();
            }
        }
    }

    fn push_rob(&mut self, count: u32, ready_at: CpuCycle) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.rob.push_back(RobEntry {
            seq,
            count,
            ready_at,
        });
        self.rob_insts += count;
        seq
    }

    fn dispatch<P: MemoryPort>(&mut self, now: CpuCycle, now_dram: DramCycle, mc: &mut P) {
        let mut budget = self.config.issue_width;
        while budget > 0 && self.rob_insts < self.config.rob_size {
            if self.current.is_none() {
                let op: TraceOp = self.trace.next_op();
                self.current = Some(CurrentOp {
                    work_left: op.work,
                    access: op.access,
                    missed: false,
                });
            }
            let cur = self.current.expect("just ensured");
            if cur.work_left > 0 {
                let n = budget
                    .min(cur.work_left)
                    .min(self.config.rob_size - self.rob_insts);
                self.push_rob(n, now);
                budget -= n;
                self.current = Some(CurrentOp {
                    work_left: cur.work_left - n,
                    ..cur
                });
                continue;
            }
            let Some(acc) = cur.access else {
                self.current = None;
                continue;
            };
            if acc.dependent
                && self
                    .last_load_miss
                    .is_some_and(|prev| self.outstanding.contains_key(&prev))
            {
                self.stats.dependence_stall_cycles += 1;
                break; // pointer chase: wait for the previous load
            }
            let dispatched = if acc.is_write {
                self.dispatch_store(acc.addr, now)
            } else {
                self.dispatch_load(acc.addr, cur.missed, now, now_dram, mc)
            };
            if !dispatched {
                self.stats.backpressure_stall_cycles += 1;
                break;
            }
            budget -= 1;
            self.current = None;
        }
    }

    /// Stores merge into the private L2 (idealized store-merge buffer):
    /// no read-for-ownership; dirty evictions become writebacks.
    fn dispatch_store(&mut self, addr: u64, now: CpuCycle) -> bool {
        if self.writeback_q.len() >= self.config.writeback_queue {
            return false;
        }
        self.stats.stores += 1;
        match self.l2.probe(addr, true) {
            Lookup::Hit => {}
            Lookup::Miss => {
                if let Some(victim) = self.l2.fill(addr, true) {
                    self.writeback_q.push_back(victim);
                    self.stats.writebacks += 1;
                }
            }
        }
        // Keep L1 coherent-ish: if the line is resident in L1, refresh it.
        let _ = self.l1d.probe(addr, false);
        self.push_rob(1, now);
        true
    }

    /// Dispatches a load; `missed` says a stalled attempt already found
    /// it absent from both levels with no MSHR for its line
    /// ([`CurrentOp::missed`]).
    fn dispatch_load<P: MemoryPort>(
        &mut self,
        addr: u64,
        missed: bool,
        now: CpuCycle,
        now_dram: DramCycle,
        mc: &mut P,
    ) -> bool {
        let line = addr & !(self.config.l1d.line_bytes - 1);
        if missed {
            // Charge the two probes the retry would make; both would miss.
            self.l1d.charge_miss();
            self.l2.charge_miss();
            self.reprobes_charged += 2;
        } else {
            // Probe L1.
            if self.l1d.probe(addr, false) == Lookup::Hit {
                self.stats.loads += 1;
                self.stats.l1_hits += 1;
                self.push_rob(1, now + self.config.l1d.latency);
                return true;
            }
            // Probe L2.
            if self.l2.probe(addr, false) == Lookup::Hit {
                self.stats.loads += 1;
                self.stats.l2_hits += 1;
                let _ = self.l1d.fill(line, false);
                self.push_rob(1, now + self.config.l2.latency);
                return true;
            }
            // Memory. Coalesce into an existing MSHR if the line is in flight.
            if let Some(&req) = self.mshr_by_line.get(&line) {
                self.stats.loads += 1;
                self.stats.coalesced += 1;
                let seq = self.push_rob(1, CpuCycle::MAX);
                let miss = self.outstanding.get_mut(&req).expect("mshr map consistent");
                if miss.is_prefetch {
                    self.stats.prefetch_hits += 1;
                }
                miss.entry_seqs.push(seq);
                self.last_load_miss = Some(req);
                return true;
            }
            if let (L2Handle::Private(_), Some(cur)) = (&self.l2, self.current.as_mut()) {
                cur.missed = true;
            }
        }
        if self.mshr_by_line.len() >= self.config.mshrs as usize {
            return false; // all MSHRs busy
        }
        match mc.submit(self.thread, RequestKind::Read, addr, now_dram) {
            Ok(req) => {
                self.stats.loads += 1;
                self.stats.mem_reads += 1;
                let seq = self.push_rob(1, CpuCycle::MAX);
                self.outstanding.insert(
                    req,
                    OutstandingMiss {
                        line,
                        entry_seqs: vec![seq],
                        issued_at: now,
                        is_prefetch: false,
                    },
                );
                self.mshr_by_line.insert(line, req);
                self.last_load_miss = Some(req);
                self.issue_prefetches(line, now, now_dram, mc);
                true
            }
            Err(_) => false, // NACK: retry next cycle
        }
    }

    /// Serializes the core's full microarchitectural state — caches, ROB,
    /// outstanding misses, writeback queue, counters, and the trace
    /// position — for checkpoint/restore ([`fqms_sim::snapshot`]).
    ///
    /// This is a fallible method rather than a [`Snapshot`] impl because
    /// the trace source may decline ([`TraceSource::save_state`]) and a
    /// shared L2 belongs to no single core.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Unsupported`] if the L2 is shared or the trace
    /// source does not implement state capture.
    pub fn save_state(&self, w: &mut SectionWriter) -> Result<(), SnapshotError> {
        w.put_u32(self.thread.as_u32());
        self.l1d.save(w);
        match &self.l2 {
            L2Handle::Private(c) => c.save(w),
            L2Handle::Shared(_) => {
                return Err(SnapshotError::Unsupported {
                    what: "a core with a shared L2".into(),
                })
            }
        }
        w.put_seq_len(self.rob.len());
        for e in &self.rob {
            w.put_u64(e.seq);
            w.put_u32(e.count);
            w.put_u64(e.ready_at.as_u64());
        }
        w.put_u64(self.next_seq);
        match self.current {
            None => w.put_bool(false),
            Some(cur) => {
                w.put_bool(true);
                w.put_u32(cur.work_left);
                match cur.access {
                    None => w.put_bool(false),
                    Some(a) => {
                        w.put_bool(true);
                        w.put_u64(a.addr);
                        w.put_bool(a.is_write);
                        w.put_bool(a.dependent);
                    }
                }
            }
        }
        // HashMap iteration order is nondeterministic; sort by request id so
        // identical states always produce identical bytes.
        let mut misses: Vec<(&RequestId, &OutstandingMiss)> = self.outstanding.iter().collect();
        misses.sort_by_key(|(id, _)| id.as_u64());
        w.put_seq_len(misses.len());
        for (id, m) in misses {
            w.put_u64(id.as_u64());
            w.put_u64(m.line);
            w.put_seq_len(m.entry_seqs.len());
            for s in &m.entry_seqs {
                w.put_u64(*s);
            }
            w.put_u64(m.issued_at.as_u64());
            w.put_bool(m.is_prefetch);
        }
        w.put_opt_u64(self.last_load_miss.map(|id| id.as_u64()));
        w.put_seq_len(self.writeback_q.len());
        for addr in &self.writeback_q {
            w.put_u64(*addr);
        }
        w.put_u64(self.retired);
        w.put_u64(self.cycles);
        let s = &self.stats;
        for v in [
            s.loads,
            s.stores,
            s.l1_hits,
            s.l2_hits,
            s.mem_reads,
            s.coalesced,
            s.writebacks,
            s.backpressure_stall_cycles,
            s.dependence_stall_cycles,
            s.miss_latency_total,
            s.miss_latency_count,
            s.prefetches_issued,
            s.prefetch_hits,
        ] {
            w.put_u64(v);
        }
        self.latency_hist.save(w);
        self.trace.save_state(w)
    }

    /// Restores state written by [`Core::save_state`] into an
    /// identically-configured core. `mshr_by_line` and `rob_insts` are
    /// derived from the restored structures rather than deserialized.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] from decoding, including
    /// [`SnapshotError::Malformed`] when the snapshot disagrees with this
    /// core's configuration (thread id, cache geometry, capacities).
    pub fn restore_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let thread = r.get_u32()?;
        if thread != self.thread.as_u32() {
            return Err(r.malformed(format!(
                "snapshot is for thread {thread}, core is thread {}",
                self.thread.as_u32()
            )));
        }
        self.l1d.restore(r)?;
        match &mut self.l2 {
            L2Handle::Private(c) => c.restore(r)?,
            L2Handle::Shared(_) => {
                return Err(SnapshotError::Unsupported {
                    what: "a core with a shared L2".into(),
                })
            }
        }
        let nrob = r.seq_len()?;
        self.rob.clear();
        self.rob_insts = 0;
        for _ in 0..nrob {
            let entry = RobEntry {
                seq: r.get_u64()?,
                count: r.get_u32()?,
                ready_at: CpuCycle::new(r.get_u64()?),
            };
            self.rob_insts = self
                .rob_insts
                .checked_add(entry.count)
                .filter(|n| *n <= self.config.rob_size)
                .ok_or_else(|| r.malformed("ROB contents exceed configured capacity"))?;
            self.rob.push_back(entry);
        }
        self.next_seq = r.get_u64()?;
        self.current = if r.get_bool()? {
            let work_left = r.get_u32()?;
            let access = if r.get_bool()? {
                Some(crate::trace::MemAccess {
                    addr: r.get_u64()?,
                    is_write: r.get_bool()?,
                    dependent: r.get_bool()?,
                })
            } else {
                None
            };
            Some(CurrentOp {
                work_left,
                access,
                missed: false,
            })
        } else {
            None
        };
        let nmiss = r.seq_len()?;
        if nmiss > self.config.mshrs as usize {
            return Err(r.malformed(format!(
                "{nmiss} outstanding misses exceed {} MSHRs",
                self.config.mshrs
            )));
        }
        self.outstanding.clear();
        self.mshr_by_line.clear();
        for _ in 0..nmiss {
            let id = RequestId::new(r.get_u64()?);
            let line = r.get_u64()?;
            let nseq = r.seq_len()?;
            let mut entry_seqs = Vec::with_capacity(nseq);
            for _ in 0..nseq {
                entry_seqs.push(r.get_u64()?);
            }
            let issued_at = CpuCycle::new(r.get_u64()?);
            let is_prefetch = r.get_bool()?;
            if self.mshr_by_line.insert(line, id).is_some() {
                return Err(r.malformed(format!("duplicate MSHR for line {line:#x}")));
            }
            self.outstanding.insert(
                id,
                OutstandingMiss {
                    line,
                    entry_seqs,
                    issued_at,
                    is_prefetch,
                },
            );
        }
        self.last_load_miss = r.get_opt_u64()?.map(RequestId::new);
        let nwb = r.seq_len()?;
        if nwb > self.config.writeback_queue {
            return Err(r.malformed(format!(
                "{nwb} queued writebacks exceed depth {}",
                self.config.writeback_queue
            )));
        }
        self.writeback_q.clear();
        for _ in 0..nwb {
            self.writeback_q.push_back(r.get_u64()?);
        }
        self.retired = r.get_u64()?;
        self.cycles = r.get_u64()?;
        self.stats = CoreStats {
            loads: r.get_u64()?,
            stores: r.get_u64()?,
            l1_hits: r.get_u64()?,
            l2_hits: r.get_u64()?,
            mem_reads: r.get_u64()?,
            coalesced: r.get_u64()?,
            writebacks: r.get_u64()?,
            backpressure_stall_cycles: r.get_u64()?,
            dependence_stall_cycles: r.get_u64()?,
            miss_latency_total: r.get_u64()?,
            miss_latency_count: r.get_u64()?,
            prefetches_issued: r.get_u64()?,
            prefetch_hits: r.get_u64()?,
        };
        self.latency_hist.restore(r)?;
        self.trace.restore_state(r)
    }

    /// Next-line prefetcher: after a demand miss to `line`, speculatively
    /// fetch the following `prefetch_degree` lines. Best effort: stops at
    /// the first resource limit (present line, busy MSHRs, NACK).
    fn issue_prefetches<P: MemoryPort>(
        &mut self,
        line: u64,
        now: CpuCycle,
        now_dram: DramCycle,
        mc: &mut P,
    ) {
        for k in 1..=self.config.prefetch_degree as u64 {
            let target = line + k * self.config.l1d.line_bytes;
            if self.mshr_by_line.contains_key(&target)
                || self.l2.probe(target, false) == Lookup::Hit
            {
                continue;
            }
            if self.mshr_by_line.len() >= self.config.mshrs as usize {
                return;
            }
            let Ok(req) = mc.submit(self.thread, RequestKind::Read, target, now_dram) else {
                return;
            };
            self.stats.prefetches_issued += 1;
            self.outstanding.insert(
                req,
                OutstandingMiss {
                    line: target,
                    entry_seqs: Vec::new(),
                    issued_at: now,
                    is_prefetch: true,
                },
            );
            self.mshr_by_line.insert(target, req);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::MemAccess;
    use fqms_dram::device::Geometry;
    use fqms_dram::timing::TimingParams;
    use fqms_memctrl::config::McConfig;
    use fqms_memctrl::policy::SchedulerKind;

    fn mc() -> fqms_memctrl::controller::MemoryController {
        fqms_memctrl::controller::MemoryController::new(
            McConfig::paper(1, SchedulerKind::FrFcfs),
            Geometry::paper(),
            TimingParams::ddr2_800(),
        )
        .unwrap()
    }

    /// Runs a core + controller for `cpu_cycles` at ratio 5.
    fn run(core: &mut Core, mc: &mut fqms_memctrl::controller::MemoryController, cpu_cycles: u64) {
        let ratio = 5;
        let overhead = core.config.memory_overhead;
        for dram_c in 1..=(cpu_cycles / ratio) {
            let now_dram = DramCycle::new(dram_c);
            for sub in 0..ratio {
                let now_cpu = CpuCycle::new(dram_c * ratio + sub);
                core.tick(now_cpu, now_dram, mc);
            }
            for c in mc.step(now_dram) {
                if c.kind == RequestKind::Read {
                    let ready = CpuCycle::new(c.finish.as_u64() * ratio + overhead);
                    core.on_completion(&c, ready);
                }
            }
        }
    }

    #[test]
    fn pure_compute_reaches_issue_width_ipc() {
        let mut core = Core::new(
            CoreConfig::paper(),
            ThreadId::new(0),
            Box::new(|| TraceOp::compute(64)),
        )
        .unwrap();
        let mut mc = mc();
        run(&mut core, &mut mc, 10_000);
        assert!(core.ipc() > 7.8, "ipc was {}", core.ipc());
    }

    #[test]
    fn prewarm_of_compute_only_trace_returns() {
        let pulled = Rc::new(std::cell::Cell::new(0u64));
        let counter = Rc::clone(&pulled);
        let trace = move || {
            counter.set(counter.get() + 1);
            TraceOp::compute(1)
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        core.prewarm_caches(1_000);
        assert_eq!(pulled.get(), 1_000, "gives up after the budget of idle ops");
        assert_eq!(core.l1d.hit_miss_counts(), (0, 0));
    }

    #[test]
    fn prewarm_passes_a_compute_prefix_shorter_than_its_budget() {
        // 999 compute ops, then loads cycling over 16 lines.
        let mut i = 0u64;
        let trace = move || {
            i += 1;
            if i < 1_000 {
                return TraceOp::compute(1);
            }
            TraceOp {
                work: 0,
                access: Some(MemAccess {
                    addr: (i % 16) * 64,
                    is_write: false,
                    dependent: false,
                }),
            }
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        core.prewarm_caches(1_000);
        assert_eq!(core.l1d.hit_miss_counts(), (1_000 - 16, 16));
    }

    #[test]
    fn cache_resident_loads_dont_touch_memory() {
        // A tiny working set: after warmup everything hits in L1.
        let mut i = 0u64;
        let trace = move || {
            i += 1;
            TraceOp {
                work: 3,
                access: Some(MemAccess {
                    addr: (i % 16) * 64,
                    is_write: false,
                    dependent: false,
                }),
            }
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        let mut mc = mc();
        run(&mut core, &mut mc, 50_000);
        let s = *core.stats();
        assert!(s.l1_hits > 0);
        assert!(s.mem_reads <= 16, "only compulsory misses: {}", s.mem_reads);
        assert!(core.ipc() > 3.0, "ipc was {}", core.ipc());
    }

    #[test]
    fn streaming_misses_overlap_with_mlp() {
        // Independent sequential misses: IPC should stay reasonable because
        // misses overlap (MLP), despite every line coming from memory.
        let mut i = 0u64;
        let trace = move || {
            i += 1;
            TraceOp {
                work: 7,
                access: Some(MemAccess {
                    addr: i * 64,
                    is_write: false,
                    dependent: false,
                }),
            }
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        let mut mc = mc();
        run(&mut core, &mut mc, 100_000);
        assert!(core.stats().mem_reads > 100);
        let mlp_ipc = core.ipc();

        // Same stream but fully dependent: IPC should collapse.
        let mut j = 0u64;
        let dep_trace = move || {
            j += 1;
            TraceOp {
                work: 7,
                access: Some(MemAccess {
                    addr: j * 64,
                    is_write: false,
                    dependent: true,
                }),
            }
        };
        let mut dep_core =
            Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(dep_trace)).unwrap();
        let mut mc2 = self::tests::mc();
        run(&mut dep_core, &mut mc2, 100_000);
        assert!(
            dep_core.ipc() < mlp_ipc / 2.0,
            "dependent {} vs mlp {}",
            dep_core.ipc(),
            mlp_ipc
        );
        assert!(dep_core.stats().dependence_stall_cycles > 0);
    }

    #[test]
    fn stores_generate_writeback_traffic() {
        // Stream of stores over a footprint larger than L2: dirty evictions
        // must reach memory as writes.
        let mut i = 0u64;
        let trace = move || {
            i += 1;
            TraceOp {
                work: 3,
                access: Some(MemAccess {
                    addr: (i * 64) % (4 * 1024 * 1024),
                    is_write: true,
                    dependent: false,
                }),
            }
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        let mut mc = mc();
        run(&mut core, &mut mc, 200_000);
        assert!(
            core.stats().writebacks > 100,
            "writebacks: {}",
            core.stats().writebacks
        );
        assert!(mc.stats().thread(ThreadId::new(0)).writes_completed > 50);
    }

    #[test]
    fn mshr_coalescing_merges_same_line() {
        // Two loads to the same (missing) line back to back: one memory
        // read, two instructions completed.
        let mut n = 0;
        let trace = move || {
            n += 1;
            if n <= 2 {
                TraceOp {
                    work: 0,
                    access: Some(MemAccess {
                        addr: 0x100000 + (n % 2) * 8,
                        is_write: false,
                        dependent: false,
                    }),
                }
            } else {
                TraceOp::compute(1)
            }
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        let mut mcc = mc();
        run(&mut core, &mut mcc, 5_000);
        assert_eq!(core.stats().mem_reads, 1);
        assert_eq!(core.stats().coalesced, 1);
    }

    #[test]
    fn next_line_prefetcher_helps_sequential_streams() {
        let run_with = |degree: u32| {
            let mut i = 0u64;
            let trace = move || {
                i += 1;
                TraceOp {
                    work: 7,
                    access: Some(MemAccess {
                        addr: i * 64,
                        is_write: false,
                        dependent: true, // serialize so latency dominates
                    }),
                }
            };
            let mut cfg = CoreConfig::paper();
            cfg.prefetch_degree = degree;
            let mut core = Core::new(cfg, ThreadId::new(0), Box::new(trace)).unwrap();
            let mut mcc = mc();
            run(&mut core, &mut mcc, 150_000);
            (core.ipc(), *core.stats())
        };
        let (ipc_off, s_off) = run_with(0);
        let (ipc_on, s_on) = run_with(2);
        assert_eq!(s_off.prefetches_issued, 0);
        assert!(s_on.prefetches_issued > 100, "{s_on:?}");
        assert!(s_on.prefetch_hits > 100, "{s_on:?}");
        assert!(
            ipc_on > 1.3 * ipc_off,
            "prefetching should help a dependent stream: {ipc_on} vs {ipc_off}"
        );
    }

    #[test]
    fn unloaded_latency_near_paper_value() {
        // Dependent pointer chase on an idle memory system: the measured
        // round-trip should land near the paper's ~180 processor cycles.
        let mut i = 0u64;
        let trace = move || {
            i += 1;
            TraceOp {
                work: 0,
                access: Some(MemAccess {
                    addr: i * 8192, // new row every time: closed-bank accesses
                    is_write: false,
                    dependent: true,
                }),
            }
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        let mut mcc = mc();
        run(&mut core, &mut mcc, 100_000);
        let lat = core.stats().avg_miss_latency();
        assert!(
            (150.0..220.0).contains(&lat),
            "unloaded latency {lat} outside the calibrated window"
        );
    }

    #[test]
    fn rob_never_exceeds_capacity() {
        let mut i = 0u64;
        let trace = move || {
            i += 1;
            TraceOp {
                work: 15,
                access: Some(MemAccess {
                    addr: i * 64,
                    is_write: false,
                    dependent: false,
                }),
            }
        };
        let mut core = Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(trace)).unwrap();
        let mut mcc = mc();
        let ratio = 5;
        for dram_c in 1..=2_000u64 {
            let now_dram = DramCycle::new(dram_c);
            for sub in 0..ratio {
                core.tick(CpuCycle::new(dram_c * ratio + sub), now_dram, &mut mcc);
                assert!(core.rob_insts <= core.config.rob_size);
            }
            for c in mcc.step(now_dram) {
                if c.kind == RequestKind::Read {
                    core.on_completion(&c, CpuCycle::new(c.finish.as_u64() * ratio + 96));
                }
            }
        }
    }

    #[test]
    fn stalled_retries_are_charged_not_redone() {
        // Independent streaming misses keep an 8-entry transaction
        // partition full (the 16 MSHRs allow more), so most load retries
        // are refused, and each retry charges its two probes.
        let small = || {
            let mut cfg = McConfig::paper(1, SchedulerKind::FrFcfs);
            cfg.transaction_entries = 8;
            fqms_memctrl::controller::MemoryController::new(
                cfg,
                Geometry::paper(),
                TimingParams::ddr2_800(),
            )
            .unwrap()
        };
        let stream = || {
            let mut i = 0u64;
            move || {
                i += 1;
                TraceOp {
                    work: 0,
                    access: Some(MemAccess {
                        addr: i * 64,
                        is_write: false,
                        dependent: false,
                    }),
                }
            }
        };
        let mut core =
            Core::new(CoreConfig::paper(), ThreadId::new(0), Box::new(stream())).unwrap();
        let mut mcc = small();
        run(&mut core, &mut mcc, 20_000);
        let nacks = mcc.stats().thread(ThreadId::new(0)).nacks;
        assert!(nacks > 1_000, "nacks {nacks}");
        assert!(
            core.reprobes_charged() > nacks,
            "{}",
            core.reprobes_charged()
        );
        core.reset_stats();
        assert_eq!(core.reprobes_charged(), 0);

        // A shared L2 never skips a probe.
        let shared = Rc::new(RefCell::new(Cache::new(CacheConfig::paper_l2()).unwrap()));
        let mut core = Core::with_shared_l2(
            CoreConfig::paper(),
            ThreadId::new(0),
            Box::new(stream()),
            shared,
        )
        .unwrap();
        let mut mcc = small();
        run(&mut core, &mut mcc, 20_000);
        assert!(mcc.stats().thread(ThreadId::new(0)).nacks > 1_000);
        assert_eq!(core.reprobes_charged(), 0);
    }

    #[test]
    fn invalid_config_rejected() {
        let mut cfg = CoreConfig::paper();
        cfg.issue_width = 0;
        assert!(Core::new(cfg, ThreadId::new(0), Box::new(|| TraceOp::compute(1))).is_err());
    }

    /// A deterministic snapshottable trace for checkpoint tests: strided
    /// loads with every fourth access a store.
    #[derive(Debug, Clone)]
    struct StridedTrace {
        i: u64,
    }

    impl TraceSource for StridedTrace {
        fn next_op(&mut self) -> TraceOp {
            self.i += 1;
            TraceOp {
                work: (self.i % 11) as u32,
                access: Some(MemAccess {
                    addr: (self.i * 192) % (8 * 1024 * 1024),
                    is_write: self.i.is_multiple_of(4),
                    dependent: self.i.is_multiple_of(7),
                }),
            }
        }

        fn save_state(
            &self,
            w: &mut fqms_sim::snapshot::SectionWriter,
        ) -> Result<(), fqms_sim::snapshot::SnapshotError> {
            w.put_u64(self.i);
            Ok(())
        }

        fn restore_state(
            &mut self,
            r: &mut fqms_sim::snapshot::SectionReader<'_>,
        ) -> Result<(), fqms_sim::snapshot::SnapshotError> {
            self.i = r.get_u64()?;
            Ok(())
        }
    }

    /// Like `run`, but over an explicit DRAM-cycle window so a restored
    /// pair can continue exactly where the snapshot was taken.
    fn run_range(
        core: &mut Core,
        mc: &mut fqms_memctrl::controller::MemoryController,
        from_dram: u64,
        to_dram: u64,
    ) {
        let ratio = 5;
        let overhead = core.config.memory_overhead;
        for dram_c in (from_dram + 1)..=to_dram {
            let now_dram = DramCycle::new(dram_c);
            for sub in 0..ratio {
                core.tick(CpuCycle::new(dram_c * ratio + sub), now_dram, mc);
            }
            for c in mc.step(now_dram) {
                if c.kind == RequestKind::Read {
                    let ready = CpuCycle::new(c.finish.as_u64() * ratio + overhead);
                    core.on_completion(&c, ready);
                }
            }
        }
    }

    #[test]
    fn core_snapshot_roundtrip_is_bit_identical() {
        use fqms_sim::snapshot::{SnapshotReader, SnapshotWriter};
        let build = || {
            let core = Core::new(
                CoreConfig::paper(),
                ThreadId::new(0),
                Box::new(StridedTrace { i: 0 }),
            )
            .unwrap();
            (core, mc())
        };

        // Reference: uninterrupted run over 8k DRAM cycles.
        let (mut ref_core, mut ref_mc) = build();
        run_range(&mut ref_core, &mut ref_mc, 0, 8_000);

        // Snapshot at 4k DRAM cycles, restore into fresh instances, finish.
        let (mut core, mut mcc) = build();
        run_range(&mut core, &mut mcc, 0, 4_000);
        let mut w = SnapshotWriter::new(5);
        let mut saved = Ok(());
        w.section("core", |s| saved = core.save_state(s));
        saved.unwrap();
        w.section("mc", |s| mcc.save(s));
        let bytes = w.into_bytes();
        drop((core, mcc));

        let (mut core2, mut mc2) = build();
        let mut r = SnapshotReader::new(&bytes, 5).unwrap();
        r.section("core", |s| core2.restore_state(s)).unwrap();
        r.section("mc", |s| mc2.restore(s)).unwrap();
        r.finish().unwrap();
        run_range(&mut core2, &mut mc2, 4_000, 8_000);

        assert_eq!(core2.retired(), ref_core.retired());
        assert_eq!(core2.cycles(), ref_core.cycles());
        assert_eq!(core2.stats(), ref_core.stats());
        assert_eq!(
            core2.latency_histogram().count(),
            ref_core.latency_histogram().count()
        );
        assert_eq!(
            core2.latency_histogram().sum(),
            ref_core.latency_histogram().sum()
        );
    }

    #[test]
    fn shared_l2_and_closure_traces_decline_snapshot() {
        use fqms_sim::snapshot::{SnapshotError, SnapshotWriter};
        let shared = Rc::new(RefCell::new(Cache::new(CacheConfig::paper_l2()).unwrap()));
        let core = Core::with_shared_l2(
            CoreConfig::paper(),
            ThreadId::new(0),
            Box::new(StridedTrace { i: 0 }),
            shared,
        )
        .unwrap();
        let mut w = SnapshotWriter::new(1);
        let mut res = Ok(());
        w.section("core", |s| res = core.save_state(s));
        assert!(matches!(res, Err(SnapshotError::Unsupported { .. })));

        let closure_core = Core::new(
            CoreConfig::paper(),
            ThreadId::new(0),
            Box::new(|| TraceOp::compute(1)),
        )
        .unwrap();
        let mut w2 = SnapshotWriter::new(1);
        let mut res2 = Ok(());
        w2.section("core", |s| res2 = closure_core.save_state(s));
        assert!(matches!(res2, Err(SnapshotError::Unsupported { .. })));
    }

    #[test]
    fn core_restore_rejects_wrong_thread() {
        use fqms_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let core = Core::new(
            CoreConfig::paper(),
            ThreadId::new(0),
            Box::new(StridedTrace { i: 0 }),
        )
        .unwrap();
        let mut w = SnapshotWriter::new(1);
        let mut saved = Ok(());
        w.section("core", |s| saved = core.save_state(s));
        saved.unwrap();
        let bytes = w.into_bytes();
        let mut other = Core::new(
            CoreConfig::paper(),
            ThreadId::new(1),
            Box::new(StridedTrace { i: 0 }),
        )
        .unwrap();
        let mut r = SnapshotReader::new(&bytes, 1).unwrap();
        let err = r.section("core", |s| other.restore_state(s)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }
}
