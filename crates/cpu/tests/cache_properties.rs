//! Differential tests for the cache model: the set-associative LRU cache
//! must agree with a naive reference implementation (per-set ordered
//! lists) on hit/miss outcomes and dirty-eviction addresses for random
//! access sequences, and its single-pass [`Cache::access`] must leave
//! exactly the state that `probe` followed by `fill` on a miss leaves.
//!
//! Randomness comes from the in-tree deterministic [`fqms_sim::rng::SimRng`]
//! with fixed seeds, so the build stays hermetic (no external `proptest`
//! dependency) and every run explores exactly the same cases.

use fqms_cpu::cache::{Cache, CacheConfig, Lookup};
use fqms_sim::rng::SimRng;
use fqms_sim::snapshot::{Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use std::collections::VecDeque;

/// A deliberately simple reference model: per set, an LRU-ordered deque of
/// (tag, dirty) with most-recently-used at the back.
struct RefCache {
    cfg: CacheConfig,
    sets: Vec<VecDeque<(u64, bool)>>,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![VecDeque::new(); cfg.sets() as usize],
            cfg,
        }
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.cfg.line_bytes;
        ((line % self.cfg.sets()) as usize, line / self.cfg.sets())
    }

    fn probe(&mut self, addr: u64, write: bool) -> bool {
        let (set, tag) = self.index_tag(addr);
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&(t, _)| t == tag) {
            let (t, d) = s.remove(pos).unwrap();
            s.push_back((t, d || write));
            true
        } else {
            false
        }
    }

    fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        let (set, tag) = self.index_tag(addr);
        let sets_count = self.cfg.sets();
        let line_bytes = self.cfg.line_bytes;
        let ways = self.cfg.ways as usize;
        let s = &mut self.sets[set];
        if let Some(pos) = s.iter().position(|&(t, _)| t == tag) {
            let (t, d) = s.remove(pos).unwrap();
            s.push_back((t, d || write));
            return None;
        }
        let mut evicted = None;
        if s.len() >= ways {
            let (vt, vd) = s.pop_front().unwrap();
            if vd {
                evicted = Some((vt * sets_count + set as u64) * line_bytes);
            }
        }
        s.push_back((tag, write));
        evicted
    }
}

/// Random probe/fill sequences produce identical hit/miss outcomes and
/// identical dirty writebacks in both implementations.
#[test]
fn cache_matches_reference_model() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xC_AC4E_0000 + case);
        let cfg = CacheConfig {
            size_bytes: 1024, // 4 sets x 4 ways
            ways: 4,
            line_bytes: 64,
            latency: 1,
        };
        let mut cache = Cache::new(cfg).unwrap();
        let mut reference = RefCache::new(cfg);
        let ops = 1 + rng.next_below(400) as usize;
        for i in 0..ops {
            let line = rng.next_below(64);
            let write = rng.chance(0.5);
            let do_fill = rng.chance(0.5);
            let addr = line * 64;
            if do_fill {
                let a = cache.fill(addr, write);
                let b = reference.fill(addr, write);
                assert_eq!(a, b, "fill divergence at case {case} op {i}");
            } else {
                let a = cache.probe(addr, write) == Lookup::Hit;
                let b = reference.probe(addr, write);
                assert_eq!(a, b, "probe divergence at case {case} op {i}");
            }
        }
    }
}

/// Capacity invariant: a footprint that fits is fully resident after one
/// pass, whatever the access order.
#[test]
fn fitting_footprint_is_fully_resident() {
    for case in 0..64u64 {
        let mut rng = SimRng::new(0xF007_0000 + case);
        let cfg = CacheConfig {
            size_bytes: 1024, // holds exactly 16 lines
            ways: 4,
            line_bytes: 64,
            latency: 1,
        };
        let mut cache = Cache::new(cfg).unwrap();
        let extra = 16 + rng.next_below(48) as usize;
        let mut lines: Vec<u64> = (0..extra).map(|_| rng.next_below(16)).collect();
        lines.extend(0..16); // make sure every line appears at least once
        for &l in &lines {
            if cache.probe(l * 64, false) == Lookup::Miss {
                cache.fill(l * 64, false);
            }
        }
        for l in 0..16u64 {
            assert_eq!(
                cache.probe(l * 64, false),
                Lookup::Hit,
                "case {case}: line {l} evicted"
            );
        }
    }
}

/// The geometries the equivalence tests cover: the smallest useful cache,
/// the paper's L1D and L2, and a 3-way cache (associativity need not be a
/// power of two; only line size and set count must be).
fn geometries() -> [CacheConfig; 4] {
    let small = |size_bytes, ways| CacheConfig {
        size_bytes,
        ways,
        line_bytes: 64,
        latency: 1,
    };
    [
        small(256, 2), // 2 sets x 2 ways
        CacheConfig::paper_l1d(),
        CacheConfig::paper_l2(),
        small(768, 3), // 4 sets x 3 ways
    ]
}

/// An address that keeps a few sets under pressure: up to 4 distinct sets,
/// about twice the associativity in distinct tags (tag 0 included), a
/// random byte offset inside the line, and now and then a far address.
fn pressured_addr(rng: &mut SimRng, cfg: &CacheConfig) -> u64 {
    if rng.chance(0.03) {
        return rng.next_u64() >> 8;
    }
    let sets = cfg.sets();
    let set = rng.next_below(sets.min(4)) * (sets / sets.min(4));
    let tag = rng.next_below(2 * cfg.ways as u64 + 1);
    (tag * sets + set) * cfg.line_bytes + rng.next_below(cfg.line_bytes)
}

fn snapshot_bytes(cache: &Cache) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0xCAC4E);
    w.section("cache", |s| cache.save(s));
    w.into_bytes()
}

fn restore_into(cache: &mut Cache, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapshotReader::new(bytes, 0xCAC4E)?;
    r.section("cache", |s| cache.restore(s))?;
    r.finish()
}

/// `access` is `probe` then, on a miss, `fill`: after every step both
/// caches report the same lookup, the same hit/miss counts, and serialize
/// to the same bytes (line order inside each set, LRU stamps, dirty bits).
#[test]
fn access_equals_probe_then_fill_on_miss() {
    for (g, cfg) in geometries().into_iter().enumerate() {
        for case in 0..24u64 {
            let mut rng = SimRng::new(0xACCE_5500 + 100 * g as u64 + case);
            let mut single = Cache::new(cfg).unwrap();
            let mut split = Cache::new(cfg).unwrap();
            let ops = 1 + rng.next_below(300) as usize;
            for i in 0..ops {
                let addr = pressured_addr(&mut rng, &cfg);
                let write = rng.chance(0.3);
                let a = single.access(addr, write);
                let b = split.probe(addr, write);
                if b == Lookup::Miss {
                    split.fill(addr, write);
                }
                let at = format!("geometry {g} case {case} op {i}");
                assert_eq!(a, b, "lookup, {at}");
                assert_eq!(
                    single.hit_miss_counts(),
                    split.hit_miss_counts(),
                    "counters, {at}"
                );
                assert_eq!(
                    snapshot_bytes(&single),
                    snapshot_bytes(&split),
                    "state, {at}"
                );
            }
        }
    }
}

/// A warmed cache restored into a freshly built one serializes to the same
/// bytes and then behaves identically.
#[test]
fn restore_into_fresh_cache_round_trips() {
    for (g, cfg) in geometries().into_iter().enumerate() {
        let mut rng = SimRng::new(0x2E57_0000 + g as u64);
        let mut warm = Cache::new(cfg).unwrap();
        for _ in 0..2_000 {
            let addr = pressured_addr(&mut rng, &cfg);
            let write = rng.chance(0.3);
            if rng.chance(0.5) {
                warm.access(addr, write);
            } else if warm.probe(addr, write) == Lookup::Miss {
                warm.fill(addr, write);
            }
        }
        let bytes = snapshot_bytes(&warm);
        let mut fresh = Cache::new(cfg).unwrap();
        restore_into(&mut fresh, &bytes).unwrap();
        assert_eq!(snapshot_bytes(&fresh), bytes, "geometry {g}");
        assert_eq!(fresh.hit_miss_counts(), warm.hit_miss_counts());
        for i in 0..500 {
            let addr = pressured_addr(&mut rng, &cfg);
            let write = rng.chance(0.3);
            assert_eq!(
                fresh.fill(addr, write),
                warm.fill(addr, write),
                "geometry {g} op {i}"
            );
            assert_eq!(
                fresh.access(addr ^ 0x40, write),
                warm.access(addr ^ 0x40, write)
            );
        }
        assert_eq!(snapshot_bytes(&fresh), snapshot_bytes(&warm));
    }
}

/// A snapshot claiming more lines in a set than the associativity allows
/// is rejected as malformed.
#[test]
fn restore_rejects_overfull_set() {
    let cfg = CacheConfig {
        size_bytes: 256,
        ways: 2,
        line_bytes: 64,
        latency: 1,
    };
    let mut w = SnapshotWriter::new(0xCAC4E);
    w.section("cache", |s| {
        s.put_u64(cfg.size_bytes);
        s.put_u32(cfg.ways);
        s.put_u64(cfg.line_bytes);
        s.put_seq_len(2);
        s.put_seq_len(3);
        for tag in 0..3 {
            s.put_u64(tag);
            s.put_bool(false);
            s.put_u64(tag + 1);
        }
        s.put_seq_len(0);
        s.put_u64(3);
        s.put_u64(0);
        s.put_u64(0);
    });
    let mut cache = Cache::new(cfg).unwrap();
    let err = restore_into(&mut cache, &w.into_bytes()).unwrap_err();
    assert!(
        matches!(&err, SnapshotError::Malformed { what, .. } if what.contains("associativity")),
        "{err}"
    );
}
