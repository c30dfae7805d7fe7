//! Synthetic trace generation from a [`WorkloadProfile`].

use crate::profile::WorkloadProfile;
use fqms_cpu::trace::{MemAccess, TraceOp, TraceSource};
use fqms_sim::rng::{Geometric, SimRng};
use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// An infinite synthetic instruction/reference stream with the statistics
/// of a [`WorkloadProfile`].
///
/// The generator walks the profile's footprint: with probability
/// `row_locality` the next reference is the sequentially next cache line
/// (wrapping inside the footprint), otherwise it jumps to a uniformly
/// random line. Work between references is geometric with the profile's
/// mean; store/dependence flags are Bernoulli draws.
///
/// All randomness comes from the seeded [`SimRng`], so identical seeds
/// reproduce identical traces.
///
/// # Example
///
/// ```
/// use fqms_workloads::generator::SyntheticTrace;
/// use fqms_workloads::profile::WorkloadProfile;
/// use fqms_cpu::trace::TraceSource;
///
/// let mut t = SyntheticTrace::new(WorkloadProfile::stream("s", 4.0), 42, 0).unwrap();
/// let op = t.next_op();
/// assert!(op.access.is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    profile: WorkloadProfile,
    rng: SimRng,
    /// Base byte offset of this stream's address region (used to give each
    /// simulated thread a private image).
    base: u64,
    /// Current line index within the footprint.
    cur_line: u64,
    lines: u64,
    /// References remaining in the current miss burst (0 = not bursting).
    burst_left: u64,
    /// Burst length beyond the first reference (mean `burst_len - 1`).
    burst_len: Geometric,
    /// Work between references inside a burst (mean 0.5).
    burst_work: Geometric,
    /// Work between references outside bursts (mean `work_per_access`);
    /// `None` when that mean is 0.
    work: Option<Geometric>,
}

/// Mean work between references inside a miss burst.
const BURST_WORK_MEAN: f64 = 0.5;

/// Byte alignment of per-thread address regions: 64 MiB keeps four threads'
/// footprints disjoint on the paper's 256 MiB device.
pub const THREAD_REGION_BYTES: u64 = 64 * 1024 * 1024;

impl SyntheticTrace {
    /// Creates a generator for `profile` seeded with `seed`, with addresses
    /// offset by `base` bytes.
    ///
    /// # Errors
    ///
    /// Returns a description if the profile is invalid.
    pub fn new(profile: WorkloadProfile, seed: u64, base: u64) -> Result<Self, String> {
        profile.validate()?;
        let lines = profile.footprint_bytes / 64;
        let mut rng = SimRng::new(seed ^ 0xF0FA_57F0_0D5E_ED00);
        let cur_line = rng.next_below(lines);
        // Geometric with mean `mean`: success probability 1/(1+mean).
        let with_mean = |mean: f64| Geometric::new(1.0 / (1.0 + mean));
        Ok(SyntheticTrace {
            profile,
            rng,
            base,
            cur_line,
            lines,
            burst_left: 0,
            burst_len: Geometric::new(1.0 / profile.burst_len.max(1.0)),
            burst_work: with_mean(BURST_WORK_MEAN),
            work: (profile.work_per_access > 0.0).then(|| with_mean(profile.work_per_access)),
        })
    }

    /// Creates a generator whose address region is the `thread_index`-th
    /// [`THREAD_REGION_BYTES`] slice, the layout used by multi-core runs.
    ///
    /// # Errors
    ///
    /// Returns a description if the profile is invalid.
    pub fn for_thread(
        profile: WorkloadProfile,
        seed: u64,
        thread_index: u32,
    ) -> Result<Self, String> {
        Self::new(
            profile,
            seed.wrapping_add(thread_index as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                | 1,
            thread_index as u64 * THREAD_REGION_BYTES,
        )
    }

    /// The profile driving this stream.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    fn next_addr(&mut self) -> u64 {
        if self.rng.chance(self.profile.row_locality) {
            self.cur_line += 1;
            if self.cur_line == self.lines {
                self.cur_line = 0;
            }
        } else {
            self.cur_line = self.rng.next_below(self.lines);
        }
        self.base + self.cur_line * 64
    }
}

impl TraceSource for SyntheticTrace {
    fn next_op(&mut self) -> TraceOp {
        // Burst phase: references arrive back to back (work ~ 0),
        // modelling the long miss bursts that FCFS scheduling rewards.
        if self.burst_left == 0
            && self.profile.burstiness > 0.0
            && self.rng.chance(self.profile.burstiness)
        {
            self.burst_left = 1 + self.burst_len.sample(&mut self.rng);
        }
        let work = if self.burst_left > 0 {
            self.burst_left -= 1;
            Some(&self.burst_work)
        } else {
            self.work.as_ref()
        };
        let work = work.map_or(0, |g| g.sample(&mut self.rng).min(u32::MAX as u64) as u32);
        let addr = self.next_addr();
        let is_write = self.rng.chance(self.profile.write_fraction);
        let dependent = !is_write && self.rng.chance(self.profile.dependence);
        TraceOp {
            work,
            access: Some(MemAccess {
                addr,
                is_write,
                dependent,
            }),
        }
    }

    fn save_state(&self, w: &mut SectionWriter) -> Result<(), SnapshotError> {
        self.rng.save(w);
        w.put_u64(self.cur_line);
        w.put_u64(self.burst_left);
        Ok(())
    }

    fn restore_state(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        self.rng.restore(r)?;
        let cur_line = r.get_u64()?;
        if cur_line >= self.lines {
            return Err(r.malformed(format!(
                "current line {cur_line} outside footprint of {} lines",
                self.lines
            )));
        }
        self.cur_line = cur_line;
        self.burst_left = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(profile: WorkloadProfile, n: usize) -> Vec<TraceOp> {
        let mut t = SyntheticTrace::new(profile, 7, 0).unwrap();
        (0..n).map(|_| t.next_op()).collect()
    }

    #[test]
    fn deterministic_for_same_seed() {
        let p = WorkloadProfile::stream("s", 4.0);
        let a = collect(p, 1000);
        let b = collect(p, 1000);
        assert_eq!(a, b);
    }

    #[test]
    fn work_mean_matches_profile() {
        let p = WorkloadProfile::stream("s", 10.0);
        let ops = collect(p, 20_000);
        let mean = ops.iter().map(|o| o.work as f64).sum::<f64>() / ops.len() as f64;
        assert!((mean - 10.0).abs() < 0.5, "mean work {mean}");
    }

    #[test]
    fn addresses_stay_in_footprint() {
        let p = WorkloadProfile {
            footprint_bytes: 1024 * 1024,
            ..WorkloadProfile::stream("s", 4.0)
        };
        let mut t = SyntheticTrace::new(p, 3, 0).unwrap();
        for _ in 0..10_000 {
            let a = t.next_op().access.unwrap().addr;
            assert!(a < 1024 * 1024);
        }
    }

    #[test]
    fn base_offsets_addresses() {
        let p = WorkloadProfile::stream("s", 4.0);
        let mut t = SyntheticTrace::for_thread(p, 3, 2).unwrap();
        for _ in 0..1000 {
            let a = t.next_op().access.unwrap().addr;
            assert!(a >= 2 * THREAD_REGION_BYTES);
            assert!(a < 2 * THREAD_REGION_BYTES + p.footprint_bytes);
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let p = WorkloadProfile {
            write_fraction: 0.3,
            ..WorkloadProfile::stream("s", 2.0)
        };
        let ops = collect(p, 20_000);
        let writes = ops.iter().filter(|o| o.access.unwrap().is_write).count() as f64;
        let frac = writes / ops.len() as f64;
        assert!((frac - 0.3).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn sequential_locality_produces_adjacent_lines() {
        let p = WorkloadProfile {
            row_locality: 1.0,
            ..WorkloadProfile::stream("s", 1.0)
        };
        let mut t = SyntheticTrace::new(p, 11, 0).unwrap();
        let a0 = t.next_op().access.unwrap().addr;
        let a1 = t.next_op().access.unwrap().addr;
        if a1 != 0 {
            assert_eq!(a1 - a0, 64);
        }
    }

    #[test]
    fn dependence_applies_to_loads_only() {
        let p = WorkloadProfile {
            dependence: 1.0,
            write_fraction: 0.5,
            ..WorkloadProfile::stream("s", 2.0)
        };
        for op in collect(p, 5_000) {
            let a = op.access.unwrap();
            if a.is_write {
                assert!(!a.dependent);
            } else {
                assert!(a.dependent);
            }
        }
    }

    #[test]
    fn bursts_compress_work_between_references() {
        let quiet = WorkloadProfile::stream("s", 20.0);
        let bursty = WorkloadProfile {
            burstiness: 0.05,
            burst_len: 16.0,
            ..quiet
        };
        let mean = |p| {
            let ops = collect(p, 30_000);
            ops.iter().map(|o| o.work as f64).sum::<f64>() / ops.len() as f64
        };
        let mq = mean(quiet);
        let mb = mean(bursty);
        assert!(
            mb < 0.7 * mq,
            "bursts should compress mean work: {mb:.1} vs {mq:.1}"
        );
        // And produce long runs of near-zero work.
        let ops = collect(bursty, 30_000);
        let mut longest = 0;
        let mut run = 0;
        for o in &ops {
            if o.work <= 2 {
                run += 1;
                longest = longest.max(run);
            } else {
                run = 0;
            }
        }
        assert!(longest >= 8, "longest burst run {longest}");
    }

    #[test]
    fn zero_burstiness_is_unchanged() {
        let p = WorkloadProfile::stream("s", 10.0);
        assert_eq!(p.burstiness, 0.0);
        let ops = collect(p, 1000);
        assert!(!ops.is_empty());
    }

    #[test]
    fn snapshot_roundtrip_resumes_identical_stream() {
        use fqms_sim::snapshot::{SnapshotReader, SnapshotWriter};
        let p = WorkloadProfile {
            burstiness: 0.05,
            burst_len: 16.0,
            ..WorkloadProfile::stream("s", 8.0)
        };
        let mut t = SyntheticTrace::new(p, 13, 0).unwrap();
        for _ in 0..777 {
            t.next_op();
        }
        let mut w = SnapshotWriter::new(3);
        let mut saved = Ok(());
        w.section("trace", |s| saved = t.save_state(s));
        saved.unwrap();
        let bytes = w.into_bytes();

        let reference: Vec<TraceOp> = (0..500).map(|_| t.next_op()).collect();

        let mut resumed = SyntheticTrace::new(p, 13, 0).unwrap();
        let mut r = SnapshotReader::new(&bytes, 3).unwrap();
        r.section("trace", |s| resumed.restore_state(s)).unwrap();
        r.finish().unwrap();
        let replay: Vec<TraceOp> = (0..500).map(|_| resumed.next_op()).collect();
        assert_eq!(reference, replay);
    }

    #[test]
    fn restore_rejects_out_of_footprint_position() {
        use fqms_sim::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
        let small = WorkloadProfile {
            footprint_bytes: 1024 * 1024,
            ..WorkloadProfile::stream("s", 4.0)
        };
        let big = WorkloadProfile::stream("s", 4.0);
        let mut t = SyntheticTrace::new(big, 13, 0).unwrap();
        // Park the walker beyond the small footprint's line count.
        t.cur_line = t.lines - 1;
        let mut w = SnapshotWriter::new(3);
        let mut saved = Ok(());
        w.section("trace", |s| saved = t.save_state(s));
        saved.unwrap();
        let bytes = w.into_bytes();
        let mut victim = SyntheticTrace::new(small, 13, 0).unwrap();
        let mut r = SnapshotReader::new(&bytes, 3).unwrap();
        let err = r.section("trace", |s| victim.restore_state(s)).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
    }

    #[test]
    fn different_threads_see_different_streams() {
        let p = WorkloadProfile::stream("s", 4.0);
        let mut a = SyntheticTrace::for_thread(p, 3, 0).unwrap();
        let mut b = SyntheticTrace::for_thread(p, 3, 1).unwrap();
        let wa: Vec<u32> = (0..100).map(|_| a.next_op().work).collect();
        let wb: Vec<u32> = (0..100).map(|_| b.next_op().work).collect();
        assert_ne!(wa, wb);
    }
}
