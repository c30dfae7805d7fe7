//! Set-associative cache model with LRU replacement and write-back lines.
//!
//! The model is a *performance* model: it tracks which lines are present
//! and dirty, not their data. Both the private L1 data cache and the
//! private L2 of the paper's Table 5 are instances of this type.
//!
//! It is also the inner loop of functional cache prewarm (millions of
//! references per core per `SystemBuilder::build`), so lookups are kept
//! cheap: the directory is one flat array rather than one allocation per
//! set, set index and tag come from shifts and masks, and
//! [`Cache::access`] does a probe and its miss fill in one pass over the
//! set.

use fqms_sim::snapshot::{SectionReader, SectionWriter, Snapshot, SnapshotError};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Access latency in CPU cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// The paper's L1 D-cache: 32 KB, 4-way, 64-byte lines, 2-cycle.
    pub const fn paper_l1d() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 4,
            line_bytes: 64,
            latency: 2,
        }
    }

    /// The paper's private L2: 512 KB, 8-way, 64-byte lines, 12-cycle.
    pub const fn paper_l2() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 8,
            line_bytes: 64,
            latency: 12,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (self.ways as u64 * self.line_bytes)
    }

    /// Validates the configuration (power-of-two sets and line size,
    /// non-zero everything).
    ///
    /// # Errors
    ///
    /// Returns a description of the violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if self.size_bytes == 0 || self.ways == 0 || self.line_bytes == 0 {
            return Err("cache dimensions must be non-zero".into());
        }
        if !self.line_bytes.is_power_of_two() {
            return Err(format!(
                "line size {} must be a power of two",
                self.line_bytes
            ));
        }
        if !self
            .size_bytes
            .is_multiple_of(self.ways as u64 * self.line_bytes)
        {
            return Err("size must be divisible by ways * line".into());
        }
        if !self.sets().is_power_of_two() {
            return Err(format!("set count {} must be a power of two", self.sets()));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Line {
    tag: u64,
    dirty: bool,
    lru: u64,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line is present.
    Hit,
    /// The line is absent.
    Miss,
}

/// A set-associative, write-back cache (performance model).
///
/// The line directory is one flat array of `sets × ways` slots: set `s`
/// owns slots `s * ways ..`, of which the first `len[s]` hold lines in
/// fill order. A fill into a full set moves the set's last line into the
/// LRU victim's slot and appends the new line, so the order inside a set —
/// and with it the [`Snapshot`] encoding — is exactly that of a per-set
/// `Vec` under `swap_remove` + `push`. Line size and set count are powers
/// of two ([`CacheConfig::validate`]), so indexing is shifts and masks.
///
/// # Example
///
/// ```
/// use fqms_cpu::cache::{Cache, CacheConfig, Lookup};
///
/// let mut c = Cache::new(CacheConfig::paper_l1d()).unwrap();
/// assert_eq!(c.probe(0x1000, false), Lookup::Miss);
/// c.fill(0x1000, false);
/// assert_eq!(c.probe(0x1000, false), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` line slots, set-major.
    lines: Vec<Line>,
    /// Occupied slots per set (a prefix of the set's slots).
    len: Vec<u32>,
    ways: usize,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_bits: u32,
    /// `sets - 1`.
    set_mask: u64,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Errors
    ///
    /// Returns a description if the configuration is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, String> {
        config.validate()?;
        let sets = config.sets();
        let ways = config.ways as usize;
        Ok(Cache {
            config,
            lines: vec![Line::default(); sets as usize * ways],
            len: vec![0; sets as usize],
            ways,
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets - 1,
            stamp: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// The occupied slots of `set`.
    fn set_lines(&self, set: usize) -> &[Line] {
        let base = set * self.ways;
        &self.lines[base..base + self.len[set] as usize]
    }

    /// One pass over `set`: `Ok` with the slot holding `tag`, or else `Err`
    /// with the slot a fill must evict — the least recently used line,
    /// when the set is full.
    fn search(&self, set: usize, tag: u64) -> Result<usize, Option<usize>> {
        let lines = self.set_lines(set);
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, line) in lines.iter().enumerate() {
            if line.tag == tag {
                return Ok(i);
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = i;
            }
        }
        Err((lines.len() == self.ways).then_some(victim))
    }

    /// Marks the line in `slot` of `set` most recently used, and dirty if
    /// `write`.
    fn touch(&mut self, set: usize, slot: usize, write: bool) {
        let line = &mut self.lines[set * self.ways + slot];
        line.lru = self.stamp;
        line.dirty |= write;
    }

    /// Looks up `addr`; on a hit updates LRU and, if `write`, marks the
    /// line dirty. Does **not** allocate on miss — use [`Cache::fill`].
    pub fn probe(&mut self, addr: u64, write: bool) -> Lookup {
        let (set, tag) = self.index_tag(addr);
        self.stamp += 1;
        match self.search(set, tag) {
            Ok(slot) => {
                self.touch(set, slot, write);
                self.hits += 1;
                Lookup::Hit
            }
            Err(_) => {
                self.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Inserts the line containing `addr` (marking it dirty if `write`),
    /// evicting the LRU line of the set if full.
    ///
    /// Returns the *byte address* of an evicted dirty line (a writeback the
    /// caller must propagate), if any.
    pub fn fill(&mut self, addr: u64, write: bool) -> Option<u64> {
        let (set, tag) = self.index_tag(addr);
        self.stamp += 1;
        match self.search(set, tag) {
            // Already present (e.g. racing fills); just refresh.
            Ok(slot) => {
                self.touch(set, slot, write);
                None
            }
            Err(victim) => self.insert(set, tag, write, victim),
        }
    }

    /// [`Cache::probe`] and, on a miss, [`Cache::fill`], with one pass over
    /// the set that finds the tag or the LRU victim. The effect on lines,
    /// LRU stamps and hit/miss counters is exactly that of the two calls.
    /// A dirty victim's writeback is dropped, so this is for functional
    /// warming, where no memory traffic is modelled.
    pub fn access(&mut self, addr: u64, write: bool) -> Lookup {
        let (set, tag) = self.index_tag(addr);
        self.stamp += 1;
        let stamp = self.stamp;
        let base = set * self.ways;
        let len = self.len[set] as usize;
        // `search` + `touch` fused by hand: this is the prewarm inner loop,
        // and going through the two helpers measured about 10% slower.
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (i, line) in self.lines[base..base + len].iter_mut().enumerate() {
            if line.tag == tag {
                line.lru = stamp;
                line.dirty |= write;
                self.hits += 1;
                return Lookup::Hit;
            }
            if line.lru < oldest {
                oldest = line.lru;
                victim = i;
            }
        }
        self.misses += 1;
        self.stamp += 1;
        let _ = self.insert(set, tag, write, (len == self.ways).then_some(victim));
        Lookup::Miss
    }

    /// Appends a new line for `tag` stamped with the current stamp to
    /// `set`. When `victim` is given the set is full: the victim's slot
    /// takes the set's last line and the new line goes last. Returns the
    /// byte address of a dirty victim.
    fn insert(&mut self, set: usize, tag: u64, write: bool, victim: Option<usize>) -> Option<u64> {
        let new = Line {
            tag,
            dirty: write,
            lru: self.stamp,
        };
        let base = set * self.ways;
        let Some(victim) = victim else {
            self.lines[base + self.len[set] as usize] = new;
            self.len[set] += 1;
            return None;
        };
        let last = base + self.ways - 1;
        let moved = self.lines[last];
        let old = std::mem::replace(&mut self.lines[base + victim], moved);
        self.lines[last] = new;
        old.dirty.then(|| self.line_addr(set, old.tag))
    }

    fn line_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.set_bits) | set as u64) << self.line_shift
    }

    /// `(hits, misses)` counted so far.
    pub fn hit_miss_counts(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

/// Geometry is configuration (validated against the restore target); the
/// line directory, LRU stamp, and hit/miss counters are state.
impl Snapshot for Cache {
    fn save(&self, w: &mut SectionWriter) {
        w.put_u64(self.config.size_bytes);
        w.put_u32(self.config.ways);
        w.put_u64(self.config.line_bytes);
        w.put_seq_len(self.len.len());
        for (set, &len) in self.lines.chunks_exact(self.ways).zip(&self.len) {
            w.put_seq_len(len as usize);
            for line in &set[..len as usize] {
                w.put_u64(line.tag);
                w.put_bool(line.dirty);
                w.put_u64(line.lru);
            }
        }
        w.put_u64(self.stamp);
        w.put_u64(self.hits);
        w.put_u64(self.misses);
    }

    fn restore(&mut self, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        let size = r.get_u64()?;
        let ways = r.get_u32()?;
        let line_bytes = r.get_u64()?;
        if size != self.config.size_bytes
            || ways != self.config.ways
            || line_bytes != self.config.line_bytes
        {
            return Err(r.malformed(format!(
                "cache geometry {size}B/{ways}-way/{line_bytes}B line != configured \
                 {}B/{}-way/{}B line",
                self.config.size_bytes, self.config.ways, self.config.line_bytes
            )));
        }
        let nsets = r.seq_len()?;
        if nsets != self.len.len() {
            return Err(r.malformed(format!(
                "snapshot has {nsets} sets, cache has {}",
                self.len.len()
            )));
        }
        for (set, len) in self.lines.chunks_exact_mut(self.ways).zip(&mut self.len) {
            let n = r.seq_len()?;
            if n > set.len() {
                return Err(r.malformed(format!(
                    "{n} lines in a set exceed {}-way associativity",
                    self.config.ways
                )));
            }
            for slot in &mut set[..n] {
                *slot = Line {
                    tag: r.get_u64()?,
                    dirty: r.get_bool()?,
                    lru: r.get_u64()?,
                };
            }
            *len = n as u32;
        }
        self.stamp = r.get_u64()?;
        self.hits = r.get_u64()?;
        self.misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
        .unwrap()
    }

    #[test]
    fn paper_configs_are_valid() {
        CacheConfig::paper_l1d().validate().unwrap();
        CacheConfig::paper_l2().validate().unwrap();
        assert_eq!(CacheConfig::paper_l1d().sets(), 128);
        assert_eq!(CacheConfig::paper_l2().sets(), 1024);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.probe(0, false), Lookup::Miss);
        assert_eq!(c.fill(0, false), None);
        assert_eq!(c.probe(0, false), Lookup::Hit);
        assert_eq!(c.hit_miss_counts(), (1, 1));
    }

    #[test]
    fn same_line_different_offsets_hit() {
        let mut c = tiny();
        c.fill(0x40, false);
        assert_eq!(c.probe(0x7F, false), Lookup::Hit);
        assert_eq!(c.probe(0x80, false), Lookup::Miss);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 2 (line index even -> set 0).
        c.fill(0, false);
        c.fill(2 * 64, false);
        c.probe(0, false); // touch line 0: line 2 is now LRU
        let evicted = c.fill(4 * 64, false);
        assert_eq!(evicted, None); // clean eviction is silent
        assert_eq!(c.probe(0, false), Lookup::Hit);
        assert_eq!(c.probe(2 * 64, false), Lookup::Miss);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, true); // dirty
        c.fill(2 * 64, false);
        let evicted = c.fill(4 * 64, false); // evicts line 0 (LRU, dirty)
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn write_probe_marks_dirty() {
        let mut c = tiny();
        c.fill(0, false);
        c.probe(0, true); // dirty via store hit
        c.fill(2 * 64, false);
        let evicted = c.fill(4 * 64, false);
        assert_eq!(evicted, Some(0));
    }

    #[test]
    fn refill_of_present_line_is_silent() {
        let mut c = tiny();
        c.fill(0, true);
        assert_eq!(c.fill(0, false), None);
        // Dirty bit preserved.
        c.fill(2 * 64, false);
        assert_eq!(c.fill(4 * 64, false), Some(0));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Cache::new(CacheConfig {
            size_bytes: 100,
            ways: 3,
            line_bytes: 64,
            latency: 1
        })
        .is_err());
    }
}
