//! Deterministic pseudo-random number generation.
//!
//! The simulator must be exactly reproducible: the same configuration and
//! seed must produce bit-identical results on every run and platform. To
//! guarantee that independently of external crates' version churn, the
//! workload generators use this small, self-contained generator — a
//! SplitMix64-seeded xoshiro256** — rather than `rand`'s default engines.
//!
//! The generator is *not* cryptographically secure; it only needs good
//! statistical behaviour for synthetic address streams.

use crate::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// A deterministic xoshiro256** generator seeded via SplitMix64.
///
/// # Example
///
/// ```
/// use fqms_sim::rng::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    state: [u64; 4],
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The four words of xoshiro state are expanded from the seed with
    /// SplitMix64, which guarantees a non-zero state for every seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        SimRng {
            state: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// Derives an independent child generator; used to give each simulated
    /// thread its own stream so per-thread behaviour does not depend on the
    /// interleaving of other threads' draws.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let mixed = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        SimRng::new(mixed)
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [ref mut s0, ref mut s1, ref mut s2, ref mut s3] = self.state;
        let result = (*s1).wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = *s1 << 17;
        *s2 ^= *s0;
        *s3 ^= *s1;
        *s1 ^= *s2;
        *s0 ^= *s3;
        *s2 ^= t;
        *s3 = s3.rotate_left(45);
        result
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below bound must be positive");
        // Lemire's multiply-shift rejection method for unbiased bounded draws.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits for a dyadic uniform in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Draws from a geometric distribution with success probability `p`,
    /// returning the number of failures before the first success (>= 0).
    /// Used for burst-length and gap sampling in workload generation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        Geometric::new(p).sample(self)
    }
}

/// A geometric distribution over the number of failures before the first
/// success, with success probability `p`, sampled by inversion.
///
/// `ln(1 - p)` is computed once here, so a draw costs one `ln`; a sampler
/// built once and drawn many times (as the workload generators do) gives
/// exactly the values of [`SimRng::geometric`].
///
/// # Example
///
/// ```
/// use fqms_sim::rng::{Geometric, SimRng};
///
/// let burst = Geometric::new(0.25);
/// let (mut a, mut b) = (SimRng::new(7), SimRng::new(7));
/// assert_eq!(burst.sample(&mut a), b.geometric(0.25));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    ln_q: f64,
}

impl Geometric {
    /// A sampler with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0, 1]");
        Geometric {
            p,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// Draws one value (>= 0). With `p = 1` the answer is always 0 and
    /// nothing is drawn from `rng`.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        let u = rng.next_f64().max(f64::MIN_POSITIVE);
        // Both logarithms are <= 0, so the quotient is >= 0 (or -inf when
        // `1 - p` rounds to 1, which casts to 0 either way): the
        // truncating, saturating cast is exactly `floor`.
        (u.ln() / self.ln_q) as u64
    }
}

impl Snapshot for SimRng {
    fn save(&self, w: &mut SectionWriter) {
        for word in self.state {
            w.put_u64(word);
        }
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.get_u64()?;
        }
        if state == [0; 4] {
            // xoshiro256** is degenerate at the all-zero state; SplitMix64
            // seeding can never produce it, so a snapshot carrying it is
            // corrupt.
            return Err(r.malformed("all-zero xoshiro256** state"));
        }
        self.state = state;
        Ok(())
    }
}

/// A deterministic generate–check–shrink harness for property-style tests.
///
/// This is the in-tree replacement for the external `proptest` crate the
/// workspace deliberately does not depend on (hermetic builds): cases are
/// generated from [`SimRng`] streams under a fixed seed, failing cases are
/// greedily shrunk through a caller-supplied candidate function, and the
/// minimal failure is reported with everything needed to reproduce it.
///
/// Case counts scale with the environment:
/// * `FQMS_CASES=<n>` overrides the number of cases per property;
/// * building with the workspace's `proptest` feature multiplies the
///   default by 8 (the "generative coverage" configuration — still fully
///   deterministic, just wider).
///
/// # Example
///
/// ```
/// use fqms_sim::rng::{CaseRunner, SimRng};
///
/// // Property: the sum of n ones is n (trivially true).
/// CaseRunner::new("sum-of-ones").run(
///     |rng: &mut SimRng| rng.next_below(100),
///     |&n| (0..n).rev().take(4).collect(), // shrink toward 0
///     |&n| {
///         let sum: u64 = (0..n).map(|_| 1).sum();
///         if sum == n { Ok(()) } else { Err(format!("sum was {sum}")) }
///     },
/// );
/// ```
#[derive(Debug, Clone)]
pub struct CaseRunner {
    name: String,
    seed: u64,
    cases: u64,
    max_shrink_steps: u64,
}

impl CaseRunner {
    /// Default cases per property; the `proptest` feature widens it 8x.
    fn default_cases() -> u64 {
        let base = if cfg!(feature = "proptest") { 128 } else { 16 };
        match std::env::var("FQMS_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            Some(n) if n > 0 => n,
            _ => base,
        }
    }

    /// Creates a runner for the named property with default settings
    /// (seed 2006; case count 16, widened 8x by the `proptest` feature
    /// and overridable via `FQMS_CASES`).
    pub fn new(name: &str) -> Self {
        CaseRunner {
            name: name.to_string(),
            seed: 2006,
            cases: Self::default_cases(),
            max_shrink_steps: 200,
        }
    }

    /// Overrides the number of generated cases.
    pub fn cases(mut self, cases: u64) -> Self {
        self.cases = cases.max(1);
        self
    }

    /// Overrides the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generates `cases` cases, checks the property on each, and panics
    /// with a shrunk minimal counterexample on the first failure.
    ///
    /// `generate` draws a case from a per-case RNG stream; `shrink`
    /// proposes strictly smaller candidate cases (may be empty); `check`
    /// returns `Err(reason)` when the property is violated. Shrinking is a
    /// greedy descent: the first failing candidate at each step becomes
    /// the new case, bounded by an internal step limit.
    ///
    /// # Panics
    ///
    /// Panics (failing the test) if any case violates the property.
    pub fn run<C, G, S, P>(&self, generate: G, shrink: S, check: P)
    where
        C: std::fmt::Debug,
        G: Fn(&mut SimRng) -> C,
        S: Fn(&C) -> Vec<C>,
        P: Fn(&C) -> Result<(), String>,
    {
        let mut root = SimRng::new(self.seed);
        for case_idx in 0..self.cases {
            let mut rng = root.fork(case_idx);
            let case = generate(&mut rng);
            let Err(first_error) = check(&case) else {
                continue;
            };
            // Greedy shrink descent to a minimal failing case.
            let mut minimal = case;
            let mut error = first_error.clone();
            let mut steps = 0u64;
            'descend: while steps < self.max_shrink_steps {
                for candidate in shrink(&minimal) {
                    steps += 1;
                    if let Err(e) = check(&candidate) {
                        minimal = candidate;
                        error = e;
                        continue 'descend;
                    }
                    if steps >= self.max_shrink_steps {
                        break;
                    }
                }
                break; // no candidate fails: minimal reached
            }
            panic!(
                "property '{}' failed (case {case_idx} of {}, seed {}):\n  \
                 minimal case: {minimal:?}\n  error: {error}\n  first error: {first_error}\n  \
                 reproduce with FQMS_CASES={} and the same seed",
                self.name,
                self.cases,
                self.seed,
                case_idx + 1,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut root = SimRng::new(99);
        let mut c1 = root.fork(0);
        let mut c2 = root.fork(1);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SimRng::new(3);
        for bound in [1u64, 2, 3, 7, 8, 1000] {
            for _ in 0..500 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_covers_small_range() {
        let mut rng = SimRng::new(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.next_below(4) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic]
    fn next_below_zero_panics() {
        SimRng::new(0).next_below(0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(11);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = SimRng::new(13);
        let n = 10_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean was {mean}");
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::new(17);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn geometric_mean_matches_theory() {
        let mut rng = SimRng::new(23);
        let p = 0.25;
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = sum as f64 / n as f64;
        let expected = (1.0 - p) / p; // 3.0
        assert!((mean - expected).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut rng = SimRng::new(29);
        assert_eq!(rng.geometric(1.0), 0);
    }

    #[test]
    fn geometric_p_one_draws_nothing() {
        let mut rng = SimRng::new(29);
        let untouched = rng.clone();
        assert_eq!(Geometric::new(1.0).sample(&mut rng), 0);
        assert_eq!(rng, untouched);
    }

    #[test]
    fn geometric_sampler_matches_full_formula() {
        for p in [1e-17, 1e-9, 1e-3, 0.04, 0.25, 2.0 / 3.0, 0.5, 0.999_999] {
            let sampler = Geometric::new(p);
            let mut a = SimRng::new(31);
            let mut b = SimRng::new(31);
            for _ in 0..2_000 {
                let u = b.next_f64().max(f64::MIN_POSITIVE);
                let want = (u.ln() / (1.0 - p).ln()).floor() as u64;
                assert_eq!(sampler.sample(&mut a), want, "p = {p}");
            }
        }
    }

    #[test]
    fn case_runner_passes_true_property() {
        CaseRunner::new("always-true").cases(32).run(
            |rng| rng.next_below(1000),
            |&n| vec![n / 2],
            |_| Ok(()),
        );
    }

    #[test]
    fn case_runner_shrinks_to_minimal_counterexample() {
        // Property "n < 50" fails for n >= 50; shrinking by decrement must
        // land exactly on the boundary case 50.
        let r = std::panic::catch_unwind(|| {
            CaseRunner::new("boundary").cases(64).run(
                |rng| 200 + rng.next_below(800),
                |&n: &u64| if n > 0 { vec![n / 2, n - 1] } else { vec![] },
                |&n| {
                    if n < 50 {
                        Ok(())
                    } else {
                        Err(format!("{n} >= 50"))
                    }
                },
            );
        });
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("minimal case: 50"), "got: {msg}");
        assert!(msg.contains("property 'boundary'"), "got: {msg}");
    }

    #[test]
    fn case_runner_is_deterministic() {
        // Two runs of the same failing property report the same minimal
        // case (the generator streams are seed-derived).
        let capture = || {
            let r = std::panic::catch_unwind(|| {
                CaseRunner::new("det").cases(16).run(
                    |rng| rng.next_below(1 << 20),
                    |&n: &u64| vec![n / 2, n.saturating_sub(1)],
                    |&n| {
                        if n % 7 != 3 {
                            Ok(())
                        } else {
                            Err("hit".into())
                        }
                    },
                );
            });
            *r.unwrap_err().downcast::<String>().unwrap()
        };
        assert_eq!(capture(), capture());
    }

    #[test]
    fn case_runner_shrink_steps_are_bounded() {
        // An endless shrink chain (always another failing candidate) must
        // terminate via the internal step bound.
        let r = std::panic::catch_unwind(|| {
            CaseRunner::new("endless").cases(1).run(
                |rng| rng.next_below(10),
                |&n: &u64| vec![n + 1], // "shrink" never converges
                |_| Err("always fails".into()),
            );
        });
        assert!(r.is_err());
    }
}
