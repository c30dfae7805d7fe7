//! Per-thread transaction and write buffer accounting.
//!
//! The paper statically partitions the controller's buffers: "Each thread
//! is allocated 16 transaction buffer entries, and 8 write buffer entries.
//! The memory controller NACKs memory requests from a thread when that
//! thread's buffer entries are full, thus applying back pressure to that
//! thread independent of the other threads on the CMP."
//!
//! Every accepted request occupies one transaction-buffer entry until it
//! completes; a write additionally occupies a write-buffer entry (the line
//! data) until its write command issues to the SDRAM.

use crate::request::RequestKind;
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// The request class an overload-control shed decision applies to
/// (ISSUE 10). Premium / real-time threads are never shed; these classes
/// name the best-effort traffic the tiered shedder drops at each level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedClass {
    /// A best-effort writeback, shed in the `Degraded` state: write data
    /// is the least latency-critical traffic, so it is sacrificed first.
    BestEffortWrite,
    /// Any best-effort request, shed in the deeper `Shedding` state.
    BestEffort,
}

impl ShedClass {
    /// Stable wire encoding used by the flat observability event
    /// (`fqms_obs::Event::Shed { class }`).
    pub fn as_u8(self) -> u8 {
        match self {
            ShedClass::BestEffortWrite => 0,
            ShedClass::BestEffort => 1,
        }
    }
}

impl std::fmt::Display for ShedClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedClass::BestEffortWrite => f.write_str("best-effort write"),
            ShedClass::BestEffort => f.write_str("best-effort"),
        }
    }
}

/// Typed back-pressure: why a request was refused admission, and what the
/// requester should do about it.
///
/// The taxonomy distinguishes three fundamentally different signals:
///
/// * **Buffer full** (`TransactionBufferFull` / `WriteBufferFull`) — the
///   thread's static partition has no free entry. Transient; retry once
///   an in-flight request completes.
/// * **`Throttled`** — the overload controller classified the thread as a
///   bandwidth hog and its admission tokens for the current period are
///   exhausted. Retry no earlier than `retry_after` cycles from now, when
///   the token bucket replenishes.
/// * **`Shed`** — the controller is saturated and deliberately dropped
///   the request to protect premium traffic. Terminal: the request will
///   never be admitted; do **not** retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Nack {
    /// The thread's transaction buffer partition is full.
    TransactionBufferFull,
    /// The thread's write buffer partition is full.
    WriteBufferFull,
    /// The thread is token-gated by the admission throttle; retrying
    /// before `retry_after` cycles have elapsed cannot succeed.
    Throttled {
        /// Cycles until the thread's tokens replenish (at least 1).
        retry_after: u64,
    },
    /// The request was dropped by the tiered load shedder; `class` names
    /// the traffic class sacrificed. Terminal — never retried.
    Shed {
        /// Which best-effort class the shed decision applied to.
        class: ShedClass,
    },
}

impl Nack {
    /// True for the buffer-capacity family — the only variants that
    /// signal genuine buffer back-pressure (and the only pressure the
    /// saturation detector counts, so shedding cannot feed itself).
    pub fn is_buffer_full(self) -> bool {
        matches!(self, Nack::TransactionBufferFull | Nack::WriteBufferFull)
    }
}

impl std::fmt::Display for Nack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Nack::TransactionBufferFull => f.write_str("transaction buffer full"),
            Nack::WriteBufferFull => f.write_str("write buffer full"),
            Nack::Throttled { retry_after } => {
                write!(f, "throttled; retry after {retry_after} cycles")
            }
            Nack::Shed { class } => write!(f, "shed ({class} load shed)"),
        }
    }
}

impl std::error::Error for Nack {}

/// Occupancy tracker for one thread's statically partitioned buffer
/// entries.
///
/// # Example
///
/// ```
/// use fqms_memctrl::buffers::ThreadBuffers;
/// use fqms_memctrl::request::RequestKind;
///
/// let mut b = ThreadBuffers::new(2, 1);
/// b.try_admit(RequestKind::Read).unwrap();
/// b.try_admit(RequestKind::Write).unwrap();
/// assert!(b.try_admit(RequestKind::Read).is_err()); // transaction full
/// b.release_write_data();       // write command issued
/// b.complete(RequestKind::Write); // write transaction retires
/// assert!(b.try_admit(RequestKind::Read).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBuffers {
    transaction_capacity: usize,
    write_capacity: usize,
    transactions: usize,
    writes: usize,
}

impl ThreadBuffers {
    /// Creates a tracker with the given per-thread capacities.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    pub fn new(transaction_capacity: usize, write_capacity: usize) -> Self {
        assert!(transaction_capacity > 0, "transaction capacity must be > 0");
        assert!(write_capacity > 0, "write capacity must be > 0");
        ThreadBuffers {
            transaction_capacity,
            write_capacity,
            transactions: 0,
            writes: 0,
        }
    }

    /// The paper's Table 5 partition: 16 transaction entries and 8 write
    /// entries per thread.
    pub fn paper() -> Self {
        ThreadBuffers::new(16, 8)
    }

    /// Current transaction-buffer occupancy.
    pub fn transactions_used(&self) -> usize {
        self.transactions
    }

    /// Current write-buffer occupancy.
    pub fn writes_used(&self) -> usize {
        self.writes
    }

    /// The [`Nack`] a request of `kind` would currently be refused with,
    /// if any: the transaction buffer is checked first, then (for a write)
    /// the write buffer.
    pub fn refusal(&self, kind: RequestKind) -> Option<Nack> {
        if self.transactions >= self.transaction_capacity {
            return Some(Nack::TransactionBufferFull);
        }
        if kind == RequestKind::Write && self.writes >= self.write_capacity {
            return Some(Nack::WriteBufferFull);
        }
        None
    }

    /// Attempts to admit a request, reserving buffer entries.
    ///
    /// # Errors
    ///
    /// Returns the [`Nack`] back-pressure signal if the thread's partition
    /// is full; the caller (the processor's cache hierarchy) must retry
    /// later.
    pub fn try_admit(&mut self, kind: RequestKind) -> Result<(), Nack> {
        match self.refusal(kind) {
            Some(nack) => Err(nack),
            None => {
                self.force_admit(kind);
                Ok(())
            }
        }
    }

    /// Admits a request unconditionally (shared-pool mode: the pool-level
    /// capacity check has already been performed by the controller).
    pub fn force_admit(&mut self, kind: RequestKind) {
        self.transactions += 1;
        if kind == RequestKind::Write {
            self.writes += 1;
        }
    }

    /// Releases the write-data entry when the write command has issued to
    /// the SDRAM (the line data has left the controller).
    ///
    /// # Panics
    ///
    /// Panics if no write entry is outstanding.
    pub fn release_write_data(&mut self) {
        assert!(self.writes > 0, "write buffer underflow");
        self.writes -= 1;
    }

    /// Retires a completed transaction of `kind`, freeing its
    /// transaction-buffer entry.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is outstanding.
    pub fn complete(&mut self, _kind: RequestKind) {
        assert!(self.transactions > 0, "transaction buffer underflow");
        self.transactions -= 1;
    }
}

/// Capacities are configuration (validated against the restore target);
/// only the occupancy counters are state. Shared-pool mode can legitimately
/// push a thread's occupancy past its nominal partition, so occupancy is
/// not bounds-checked against the capacities here.
impl Snapshot for ThreadBuffers {
    fn save(&self, w: &mut SectionWriter) {
        w.put_usize(self.transaction_capacity);
        w.put_usize(self.write_capacity);
        w.put_usize(self.transactions);
        w.put_usize(self.writes);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let tx_cap = r.get_usize()?;
        let wr_cap = r.get_usize()?;
        if tx_cap != self.transaction_capacity || wr_cap != self.write_capacity {
            return Err(r.malformed(format!(
                "buffer capacities {tx_cap}/{wr_cap} != configured {}/{}",
                self.transaction_capacity, self.write_capacity
            )));
        }
        self.transactions = r.get_usize()?;
        self.writes = r.get_usize()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_capacities() {
        let b = ThreadBuffers::paper();
        assert_eq!(b.refusal(RequestKind::Read), None);
        let mut b = b;
        for _ in 0..16 {
            b.try_admit(RequestKind::Read).unwrap();
        }
        assert_eq!(
            b.try_admit(RequestKind::Read),
            Err(Nack::TransactionBufferFull)
        );
    }

    #[test]
    fn write_partition_is_tighter() {
        let mut b = ThreadBuffers::paper();
        for _ in 0..8 {
            b.try_admit(RequestKind::Write).unwrap();
        }
        assert_eq!(b.try_admit(RequestKind::Write), Err(Nack::WriteBufferFull));
        // Reads still admitted: transaction buffer has room.
        assert!(b.try_admit(RequestKind::Read).is_ok());
    }

    #[test]
    fn write_lifecycle_frees_both_entries() {
        let mut b = ThreadBuffers::new(1, 1);
        b.try_admit(RequestKind::Write).unwrap();
        assert_eq!(
            b.refusal(RequestKind::Read),
            Some(Nack::TransactionBufferFull)
        );
        b.release_write_data();
        // Data left, but the transaction entry is still held.
        assert_eq!(
            b.refusal(RequestKind::Read),
            Some(Nack::TransactionBufferFull)
        );
        b.complete(RequestKind::Write);
        assert_eq!(b.refusal(RequestKind::Write), None);
    }

    #[test]
    #[should_panic]
    fn underflow_panics() {
        let mut b = ThreadBuffers::new(1, 1);
        b.complete(RequestKind::Read);
    }

    #[test]
    #[should_panic]
    fn zero_capacity_panics() {
        let _ = ThreadBuffers::new(0, 1);
    }
}
