//! LRU set-associative cache core.

use std::fmt;

/// Invalid cache geometry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GeometryError {
    /// A size/way/line parameter was zero.
    Zero,
    /// Size, line size, or the derived set count is not a power of two.
    NotPowerOfTwo,
    /// The capacity is smaller than `ways * line` (fewer than one set).
    TooSmall,
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::Zero => write!(f, "geometry parameter was zero"),
            GeometryError::NotPowerOfTwo => write!(f, "sizes must be powers of two"),
            GeometryError::TooSmall => write!(f, "capacity smaller than one set"),
        }
    }
}

impl std::error::Error for GeometryError {}

/// Shape of a cache: capacity, line size, associativity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    line_bytes: u64,
    ways: u32,
}

impl CacheGeometry {
    /// Creates and validates a geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`GeometryError`] if any parameter is zero, sizes are not
    /// powers of two, or fewer than one set results.
    pub fn new(size_bytes: u64, line_bytes: u64, ways: u32) -> Result<Self, GeometryError> {
        if size_bytes == 0 || line_bytes == 0 || ways == 0 {
            return Err(GeometryError::Zero);
        }
        if !size_bytes.is_power_of_two() || !line_bytes.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo);
        }
        if size_bytes < line_bytes * u64::from(ways) {
            return Err(GeometryError::TooSmall);
        }
        if !size_bytes.is_multiple_of(line_bytes * u64::from(ways)) {
            return Err(GeometryError::NotPowerOfTwo);
        }
        let sets = size_bytes / (line_bytes * u64::from(ways));
        if !sets.is_power_of_two() {
            return Err(GeometryError::NotPowerOfTwo);
        }
        Ok(CacheGeometry {
            size_bytes,
            line_bytes,
            ways,
        })
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(self) -> u64 {
        self.size_bytes
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(self) -> u64 {
        self.line_bytes
    }

    /// Associativity.
    #[must_use]
    pub fn ways(self) -> u32 {
        self.ways
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.ways))
    }
}

/// Hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Hits.
    pub hits: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Lines invalidated externally (coherence).
    pub invalidations: u64,
}

sharing_json::json_struct!(CacheStats {
    accesses,
    hits,
    writebacks,
    invalidations
});

impl CacheStats {
    /// Miss count.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss rate in `[0, 1]`; zero for an untouched cache.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// Result of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was resident.
    pub hit: bool,
    /// Line number of a dirty victim that must be written back, if any.
    pub writeback: Option<u64>,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LineEntry {
    line: u64,
    dirty: bool,
}

/// LRU update of one set: `set[..*fill]` holds the resident lines,
/// most-recently-used first. Shared by [`SetAssocCache::access`] and
/// [`SetAssocCache::access_copy`] so a detached copy evolves exactly like
/// the set it was copied from.
fn lru_access(set: &mut [LineEntry], fill: &mut u32, line: u64, is_write: bool) -> AccessOutcome {
    let n = *fill as usize;
    if let Some(pos) = set[..n].iter().position(|e| e.line == line) {
        set[pos].dirty |= is_write;
        set[..=pos].rotate_right(1);
        return AccessOutcome {
            hit: true,
            writeback: None,
        };
    }
    // Miss: allocate at the MRU end, evicting the LRU way if the set is full.
    let mut writeback = None;
    let last = if n == set.len() {
        let victim = set[n - 1];
        writeback = victim.dirty.then_some(victim.line);
        n - 1
    } else {
        *fill += 1;
        n
    };
    set[last] = LineEntry {
        line,
        dirty: is_write,
    };
    set[..=last].rotate_right(1);
    AccessOutcome {
        hit: false,
        writeback,
    }
}

/// One set copied out of a [`SetAssocCache`] ([`SetAssocCache::copy_set`]):
/// a copy-on-write overlay advances it with [`SetAssocCache::access_copy`]
/// while the cache it came from stays untouched.
#[derive(Clone, Debug)]
pub(crate) struct DetachedSet {
    index: usize,
    lines: Box<[LineEntry]>,
    fill: u32,
}

/// An LRU set-associative, write-back, write-allocate cache over *line
/// numbers* (byte address >> line bits). Data values are not stored — the
/// simulator tracks values architecturally — only presence and dirtiness.
///
/// The sets live in one contiguous `sets × ways` array with a per-set fill
/// count, so a lookup touches one slice and a set copy is a slice copy.
///
/// # Example
///
/// ```
/// use sharing_cache::{CacheGeometry, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheGeometry::new(1024, 64, 2)?);
/// c.access(1, true);          // miss, allocate dirty
/// assert!(c.access(1, false).hit);
/// assert_eq!(c.stats().misses(), 1);
/// # Ok::<(), sharing_cache::GeometryError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    geom: CacheGeometry,
    /// `sets - 1`: the set count is a power of two, so a line's set is
    /// its low bits.
    set_mask: u64,
    /// `ways` entries per set; within a set, `[..fill]` is resident,
    /// most-recently-used first.
    lines: Vec<LineEntry>,
    /// Resident lines per set (as wide as `CacheGeometry::ways`).
    fill: Vec<u32>,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets() as usize;
        SetAssocCache {
            geom,
            set_mask: geom.sets() - 1,
            lines: vec![LineEntry::default(); sets * geom.ways() as usize],
            fill: vec![0; sets],
            stats: CacheStats::default(),
        }
    }

    /// The geometry.
    #[must_use]
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The set `line` maps to.
    pub(crate) fn set_index(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// Where set `si`'s ways sit in `lines`.
    fn ways_of(&self, si: usize) -> std::ops::Range<usize> {
        let ways = self.geom.ways() as usize;
        si * ways..(si + 1) * ways
    }

    /// Set `si`'s resident lines, most-recently-used first.
    fn set(&self, si: usize) -> &[LineEntry] {
        &self.lines[self.ways_of(si)][..self.fill[si] as usize]
    }

    fn position(&self, line: u64) -> Option<(usize, usize)> {
        let si = self.set_index(line);
        self.set(si)
            .iter()
            .position(|e| e.line == line)
            .map(|pos| (si, pos))
    }

    /// Accesses `line`; allocates on miss, possibly evicting the LRU way.
    /// `is_write` marks the line dirty.
    pub fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        let si = self.set_index(line);
        let ways = self.ways_of(si);
        let out = lru_access(&mut self.lines[ways], &mut self.fill[si], line, is_write);
        self.stats.accesses += 1;
        self.stats.hits += u64::from(out.hit);
        self.stats.writebacks += u64::from(out.writeback.is_some());
        out
    }

    /// Copies set `si` out of the cache (see [`DetachedSet`]).
    ///
    /// # Panics
    ///
    /// Panics if `si` is not below the geometry's set count.
    pub(crate) fn copy_set(&self, si: usize) -> DetachedSet {
        DetachedSet {
            index: si,
            lines: self.lines[self.ways_of(si)].into(),
            fill: self.fill[si],
        }
    }

    /// [`SetAssocCache::access`] applied to a detached copy of `line`'s
    /// set instead of the cache: same outcome, same LRU evolution, and
    /// neither the cache's sets nor its statistics change.
    ///
    /// # Panics
    ///
    /// Panics if `copy` is not a copy of the set `line` maps to.
    pub(crate) fn access_copy(
        &self,
        copy: &mut DetachedSet,
        line: u64,
        is_write: bool,
    ) -> AccessOutcome {
        assert_eq!(
            copy.index,
            self.set_index(line),
            "line {line} does not map to the detached set"
        );
        lru_access(&mut copy.lines, &mut copy.fill, line, is_write)
    }

    /// Checks residency without updating LRU state or statistics.
    #[must_use]
    pub fn probe(&self, line: u64) -> bool {
        self.position(line).is_some()
    }

    /// Invalidates a line (coherence); returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let Some((si, pos)) = self.position(line) else {
            return false;
        };
        let start = self.ways_of(si).start;
        let end = start + self.fill[si] as usize;
        let dirty = self.lines[start + pos].dirty;
        self.lines[start + pos..end].rotate_left(1);
        self.fill[si] -= 1;
        self.stats.invalidations += 1;
        dirty
    }

    /// Flushes the whole cache (reconfiguration, §3.8); returns the number
    /// of dirty lines written back.
    pub fn flush_all(&mut self) -> u64 {
        let dirty = (0..self.fill.len())
            .map(|si| self.set(si).iter().filter(|e| e.dirty).count() as u64)
            .sum();
        self.fill.fill(0);
        self.stats.writebacks += dirty;
        dirty
    }

    /// Number of resident lines.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        self.fill.iter().map(|&n| u64::from(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 2 ways, 64B lines.
        SetAssocCache::new(CacheGeometry::new(512, 64, 2).unwrap())
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheGeometry::new(16 << 10, 64, 2).is_ok());
        assert_eq!(CacheGeometry::new(0, 64, 2), Err(GeometryError::Zero));
        assert_eq!(
            CacheGeometry::new(1000, 64, 2),
            Err(GeometryError::NotPowerOfTwo)
        );
        assert_eq!(CacheGeometry::new(64, 64, 2), Err(GeometryError::TooSmall));
        // 3-way over power-of-two capacity gives non-power-of-two sets.
        assert_eq!(
            CacheGeometry::new(512, 64, 3),
            Err(GeometryError::NotPowerOfTwo)
        );
        let g = CacheGeometry::new(512, 64, 2).unwrap();
        assert_eq!(g.sets(), 4);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Lines 0, 4, 8 all map to set 0 (line % 4 == 0).
        c.access(0, false);
        c.access(4, false);
        c.access(0, false); // 0 is now MRU
        let out = c.access(8, false); // evicts 4
        assert!(!out.hit);
        assert!(c.probe(0));
        assert!(!c.probe(4));
        assert!(c.probe(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, true);
        c.access(4, false);
        let out = c.access(8, false); // evicts dirty 0? No: LRU is 0 after 4 accessed
                                      // Access order: 0 (dirty), 4 → LRU = 0.
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0, false);
        c.access(4, false);
        let out = c.access(8, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false);
        c.access(0, true); // hit, becomes dirty
        c.access(4, false);
        let out = c.access(8, false); // evicts 4? LRU after (0,0,4) = 0? order: 0 MRU→ 4, LRU=0
                                      // After accesses [0,0w,4]: MRU=4, LRU=0(dirty).
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = small();
        c.access(0, true);
        c.access(1, false);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(1));
        assert!(!c.invalidate(99), "absent line invalidation is a no-op");
        assert_eq!(c.stats().invalidations, 2);
        assert!(!c.probe(0));
    }

    #[test]
    fn flush_counts_dirty_lines_and_empties() {
        let mut c = small();
        c.access(0, true);
        c.access(1, true);
        c.access(2, false);
        assert_eq!(c.flush_all(), 2);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_perturb() {
        let mut c = small();
        c.access(0, false);
        c.access(4, false);
        let _ = c.probe(0); // must NOT refresh LRU
        let _ = c.access(8, false); // evicts true LRU = 0
        assert!(!c.probe(0));
        assert!(c.probe(4));
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = small();
        c.access(0, false);
        c.access(0, false);
        c.access(1, false);
        let s = c.stats();
        assert_eq!(s.accesses, 3);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 2);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn miss_rate_of_empty_cache_is_zero() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    /// The cache as it was before the flat layout: one `Vec` per set,
    /// most-recently-used first. The reference the flat sets must match.
    struct ReferenceLru {
        ways: usize,
        sets: Vec<Vec<LineEntry>>,
        stats: CacheStats,
    }

    impl ReferenceLru {
        fn new(geom: CacheGeometry) -> Self {
            ReferenceLru {
                ways: geom.ways() as usize,
                sets: vec![Vec::new(); geom.sets() as usize],
                stats: CacheStats::default(),
            }
        }

        fn set_of(&mut self, line: u64) -> &mut Vec<LineEntry> {
            let n = self.sets.len() as u64;
            &mut self.sets[(line % n) as usize]
        }

        fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
            self.stats.accesses += 1;
            let ways = self.ways;
            let set = self.set_of(line);
            if let Some(pos) = set.iter().position(|e| e.line == line) {
                let mut e = set.remove(pos);
                e.dirty |= is_write;
                set.insert(0, e);
                self.stats.hits += 1;
                return AccessOutcome {
                    hit: true,
                    writeback: None,
                };
            }
            let mut writeback = None;
            if set.len() == ways {
                let victim = set.pop().unwrap();
                writeback = victim.dirty.then_some(victim.line);
            }
            set.insert(
                0,
                LineEntry {
                    line,
                    dirty: is_write,
                },
            );
            self.stats.writebacks += u64::from(writeback.is_some());
            AccessOutcome {
                hit: false,
                writeback,
            }
        }

        fn probe(&mut self, line: u64) -> bool {
            self.set_of(line).iter().any(|e| e.line == line)
        }

        fn invalidate(&mut self, line: u64) -> bool {
            let set = self.set_of(line);
            let Some(pos) = set.iter().position(|e| e.line == line) else {
                return false;
            };
            let dirty = set.remove(pos).dirty;
            self.stats.invalidations += 1;
            dirty
        }

        fn flush_all(&mut self) -> u64 {
            let dirty = self.sets.iter().flatten().filter(|e| e.dirty).count() as u64;
            self.sets.iter_mut().for_each(Vec::clear);
            self.stats.writebacks += dirty;
            dirty
        }

        fn resident_lines(&self) -> u64 {
            self.sets.iter().map(|s| s.len() as u64).sum()
        }
    }

    /// SplitMix64: a seeded stream for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Eight sets of `ways` ways, 64-byte lines.
    fn eight_sets(ways: u32) -> CacheGeometry {
        CacheGeometry::new(8 * 64 * u64::from(ways), 64, ways).unwrap()
    }

    #[test]
    fn flat_sets_match_the_reference_lru() {
        for ways in [1u32, 2, 4, 16] {
            let geom = eight_sets(ways);
            let mut flat = SetAssocCache::new(geom);
            let mut reference = ReferenceLru::new(geom);
            let mut rng = Rng(u64::from(ways));
            // Lines span three times the capacity, so sets fill and evict.
            let span = 3 * 8 * u64::from(ways);
            for step in 0..20_000 {
                let line = rng.next() % span;
                match rng.next() % 100 {
                    0..=69 => {
                        let write = rng.next().is_multiple_of(3);
                        assert_eq!(
                            flat.access(line, write),
                            reference.access(line, write),
                            "{ways} ways, step {step}: access {line}"
                        );
                    }
                    70..=84 => assert_eq!(flat.probe(line), reference.probe(line)),
                    85..=98 => assert_eq!(flat.invalidate(line), reference.invalidate(line)),
                    _ => assert_eq!(flat.flush_all(), reference.flush_all()),
                }
                assert_eq!(flat.stats(), reference.stats, "{ways} ways, step {step}");
                assert_eq!(flat.resident_lines(), reference.resident_lines());
                for (si, set) in reference.sets.iter().enumerate() {
                    assert_eq!(flat.set(si), &set[..], "{ways} ways, step {step}, set {si}");
                }
            }
        }
    }

    #[test]
    fn detached_set_copies_evolve_like_the_cache() {
        for ways in [1u32, 2, 4, 16] {
            let mut cache = SetAssocCache::new(eight_sets(ways));
            let mut rng = Rng(100 + u64::from(ways));
            let span = 3 * 8 * u64::from(ways);
            for _ in 0..500 {
                cache.access(rng.next() % span, rng.next().is_multiple_of(3));
            }
            let (snapshot, pristine) = (cache.clone(), cache.clone());
            let mut copies: std::collections::HashMap<usize, DetachedSet> = Default::default();
            for _ in 0..5_000 {
                let (line, write) = (rng.next() % span, rng.next().is_multiple_of(3));
                let si = cache.set_index(line);
                let copy = copies.entry(si).or_insert_with(|| snapshot.copy_set(si));
                assert_eq!(
                    snapshot.access_copy(copy, line, write),
                    cache.access(line, write),
                    "{ways} ways: line {line}"
                );
            }
            for (si, copy) in &copies {
                assert_eq!(&copy.lines[..copy.fill as usize], cache.set(*si));
            }
            // The source of the copies never moved.
            assert_eq!(snapshot.lines, pristine.lines);
            assert_eq!(snapshot.fill, pristine.fill);
            assert_eq!(snapshot.stats(), pristine.stats());
        }
    }

    #[test]
    #[should_panic(expected = "does not map to the detached set")]
    fn access_copy_rejects_a_line_of_another_set() {
        let c = small();
        let mut copy = c.copy_set(0);
        let _ = c.access_copy(&mut copy, 1, false);
    }
}
