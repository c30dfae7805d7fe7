//! Process-wide simulation-effort counters.
//!
//! Every [`crate::system::System`] run adds its controller's
//! stepped/skipped cycle counts here when it finishes, so a figure binary
//! can report how much simulated time it covered and what fraction the
//! event-driven fast path skipped — without threading counters through
//! every experiment helper. Engine-level studies (which bypass `System`)
//! call [`note_controller_cycles`] themselves from their reports. A
//! `System` run also adds the cache probes its stalled cores' retries
//! skipped ([`note_core_reprobes`]).
//!
//! The counters are monotone atomics: cheap, thread-safe (parallel sweeps
//! run systems on worker threads), and only ever read for end-of-process
//! diagnostics, so relaxed ordering suffices.

use std::sync::atomic::{AtomicU64, Ordering};

static STEPPED: AtomicU64 = AtomicU64::new(0);
static SKIPPED: AtomicU64 = AtomicU64::new(0);
static REPROBES_CHARGED: AtomicU64 = AtomicU64::new(0);

/// Adds one run's controller cycle counts to the process totals.
pub fn note_controller_cycles(stepped: u64, skipped: u64) {
    STEPPED.fetch_add(stepped, Ordering::Relaxed);
    SKIPPED.fetch_add(skipped, Ordering::Relaxed);
}

/// Returns `(stepped, skipped)` controller cycles accumulated so far.
pub fn controller_cycles() -> (u64, u64) {
    (
        STEPPED.load(Ordering::Relaxed),
        SKIPPED.load(Ordering::Relaxed),
    )
}

/// Adds to the process total one run's cache probes that cores charged to
/// stalled load retries without a set search
/// ([`fqms_cpu::core::Core::reprobes_charged`]).
pub fn note_core_reprobes(reprobes: u64) {
    REPROBES_CHARGED.fetch_add(reprobes, Ordering::Relaxed);
}

/// Cache probes charged by cores so far (see [`note_core_reprobes`]).
pub fn core_reprobes() -> u64 {
    REPROBES_CHARGED.load(Ordering::Relaxed)
}

/// Fraction of accumulated controller time that was skipped (0.0 when
/// nothing has been simulated yet).
pub fn skip_rate() -> f64 {
    let (stepped, skipped) = controller_cycles();
    let total = stepped + skipped;
    if total == 0 {
        0.0
    } else {
        skipped as f64 / total as f64
    }
}

/// Cumulative parallel-executor activity for this process (worker peak,
/// steals, free-run spans), re-exported from the executor itself: the
/// counters live in [`fqms_sim::parallel`] because `fqms-sim` sits below
/// this crate, but figure binaries read them from here alongside
/// [`controller_cycles`]. Surfaced as `#parallel_*` lines in
/// `results/<bin>.log` so executor regressions (a steal storm, free-run
/// spans fragmenting) are diagnosable from sweep logs.
pub fn parallel_exec() -> fqms_sim::parallel::ExecCounters {
    fqms_sim::parallel::exec_counters()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let (s0, k0) = controller_cycles();
        note_controller_cycles(10, 30);
        let (s1, k1) = controller_cycles();
        assert_eq!(s1 - s0, 10);
        assert_eq!(k1 - k0, 30);
        let p0 = core_reprobes();
        note_core_reprobes(8);
        assert_eq!(core_reprobes() - p0, 8);
    }
}
