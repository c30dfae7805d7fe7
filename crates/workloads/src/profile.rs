//! Parametric workload profiles.
//!
//! A [`WorkloadProfile`] captures the handful of statistics of a
//! benchmark's memory behaviour that determine how it interacts with a
//! memory scheduler:
//!
//! * **intensity** — mean non-memory instructions between memory
//!   references (`work_per_access`), which (together with the footprint)
//!   sets the memory-bandwidth demand,
//! * **footprint** — bytes touched; footprints below the 512 KB private L2
//!   produce cache-resident behaviour (< 2% bus utilization, like
//!   sixtrack/perlbmk/crafty), larger footprints stream from memory,
//! * **row locality** — probability the next reference falls in the same
//!   DRAM row neighbourhood (sequential walk) rather than jumping,
//!   controlling the row-buffer hit rate the scheduler can exploit,
//! * **dependence** — probability a reference's address depends on the
//!   previous load (pointer chasing), which destroys memory-level
//!   parallelism and makes the thread latency-sensitive (the paper's
//!   `vpr`),
//! * **write fraction** — share of references that are stores, generating
//!   writeback traffic.

/// Statistical description of one benchmark-like workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadProfile {
    /// Display name (SPEC-2000-like identity).
    pub name: &'static str,
    /// Mean non-memory instructions between memory references (geometric).
    pub work_per_access: f64,
    /// Bytes of address space the workload touches.
    pub footprint_bytes: u64,
    /// Probability the next reference continues a sequential walk.
    pub row_locality: f64,
    /// Probability a load's address depends on the previous load.
    pub dependence: f64,
    /// Fraction of references that are stores.
    pub write_fraction: f64,
    /// Probability per reference of *entering* a miss burst (a phase in
    /// which the work between references collapses toward zero — the
    /// paper's "frequent, long bursts of cache misses" that FCFS rewards).
    /// 0.0 disables bursts.
    pub burstiness: f64,
    /// Mean references per burst (geometric); ignored when `burstiness`
    /// is 0.
    pub burst_len: f64,
}

impl WorkloadProfile {
    /// Validates that every statistic is in range.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.work_per_access >= 0.0 && self.work_per_access.is_finite()) {
            return Err(format!(
                "{}: work_per_access must be finite and >= 0",
                self.name
            ));
        }
        if self.footprint_bytes < 4096 {
            return Err(format!("{}: footprint must be at least 4 KiB", self.name));
        }
        for (field, v) in [
            ("row_locality", self.row_locality),
            ("dependence", self.dependence),
            ("write_fraction", self.write_fraction),
            ("burstiness", self.burstiness),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(format!("{}: {field} must be in [0, 1], got {v}", self.name));
            }
        }
        if self.burstiness > 0.0 && !(self.burst_len >= 1.0 && self.burst_len.is_finite()) {
            return Err(format!(
                "{}: burst_len must be finite and >= 1 when bursts are enabled",
                self.name
            ));
        }
        Ok(())
    }

    /// A convenient streaming profile (high bandwidth, high row locality).
    pub fn stream(name: &'static str, work_per_access: f64) -> Self {
        WorkloadProfile {
            name,
            work_per_access,
            footprint_bytes: 16 * 1024 * 1024,
            row_locality: 0.85,
            dependence: 0.0,
            write_fraction: 0.25,
            burstiness: 0.0,
            burst_len: 0.0,
        }
    }

    /// A convenient pointer-chasing profile (latency-bound, low MLP).
    pub fn pointer_chase(name: &'static str, work_per_access: f64) -> Self {
        WorkloadProfile {
            name,
            work_per_access,
            footprint_bytes: 8 * 1024 * 1024,
            row_locality: 0.1,
            dependence: 0.9,
            write_fraction: 0.1,
            burstiness: 0.0,
            burst_len: 0.0,
        }
    }

    /// A cache-resident profile (negligible memory traffic).
    pub fn cache_resident(name: &'static str, work_per_access: f64) -> Self {
        WorkloadProfile {
            name,
            work_per_access,
            footprint_bytes: 256 * 1024,
            row_locality: 0.7,
            dependence: 0.1,
            write_fraction: 0.3,
            burstiness: 0.0,
            burst_len: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_profiles_are_valid() {
        WorkloadProfile::stream("s", 4.0).validate().unwrap();
        WorkloadProfile::pointer_chase("p", 10.0)
            .validate()
            .unwrap();
        WorkloadProfile::cache_resident("c", 100.0)
            .validate()
            .unwrap();
    }

    #[test]
    fn validation_catches_bad_fields() {
        let mut p = WorkloadProfile::stream("s", 4.0);
        p.row_locality = 1.5;
        assert!(p.validate().is_err());
        let mut p = WorkloadProfile::stream("s", 4.0);
        p.work_per_access = -1.0;
        assert!(p.validate().is_err());
        let mut p = WorkloadProfile::stream("s", 4.0);
        p.footprint_bytes = 64;
        assert!(p.validate().is_err());
        for bad in [f64::NAN, f64::INFINITY] {
            let mut p = WorkloadProfile::stream("s", 4.0);
            p.work_per_access = bad;
            assert!(p.validate().is_err(), "work_per_access {bad}");
            let mut p = WorkloadProfile::stream("s", 4.0);
            p.burstiness = 0.1;
            p.burst_len = bad;
            assert!(p.validate().is_err(), "burst_len {bad}");
        }
    }
}
