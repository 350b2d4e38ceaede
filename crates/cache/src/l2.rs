//! The configurable, banked L2: a VCore's slice of the sea of cache banks.

use crate::set_assoc::{AccessOutcome, CacheGeometry, CacheStats, DetachedSet, SetAssocCache};
use std::collections::HashMap;

/// Nominal size of one L2 cache bank (the paper assumes 64 KB banks, §3.5).
pub const BANK_BYTES: u64 = 64 << 10;
/// Modeled (scaled) bank capacity; see [`sharing_isa::CAPACITY_SCALE`].
pub const BANK_EFFECTIVE_BYTES: u64 = BANK_BYTES / sharing_isa::CAPACITY_SCALE;
/// Associativity of an L2 bank (Table 3).
pub const BANK_WAYS: u32 = 4;
/// Line size (Table 3).
pub const LINE_BYTES: u64 = 64;

/// The paper's L2 hit-latency model.
///
/// Table 3 gives an L2 hit delay of `distance*2 + 4`; §5.4 models "an
/// additional 2-cycles of communication delay for each additional 256 KB of
/// cache", which is the same statement under the default placement where
/// each additional 256 KB (four banks) sits one mesh hop further out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2LatencyModel {
    /// Fixed lookup cost.
    pub base: u32,
    /// Cycles per unit of network distance to the bank.
    pub per_distance: u32,
    /// How many banks fit per unit of distance under the default compact
    /// placement (4 banks = 256 KB per hop ring).
    pub banks_per_hop: u32,
}

impl L2LatencyModel {
    /// The paper's model.
    #[must_use]
    pub fn paper() -> Self {
        L2LatencyModel {
            base: 4,
            per_distance: 2,
            banks_per_hop: 4,
        }
    }

    /// Distance of bank `idx` from the VCore under the default compact
    /// placement: banks 0..4 at distance 1, the next four at distance 2, …
    #[must_use]
    pub fn default_distance(self, idx: usize) -> u32 {
        1 + idx as u32 / self.banks_per_hop
    }

    /// Hit latency to a bank at the given distance.
    #[must_use]
    pub fn hit_latency(self, distance: u32) -> u32 {
        self.base + self.per_distance * distance
    }
}

impl Default for L2LatencyModel {
    fn default() -> Self {
        L2LatencyModel::paper()
    }
}

sharing_json::json_struct!(L2LatencyModel {
    base,
    per_distance,
    banks_per_hop
});

/// Outcome of an L2 access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L2Outcome {
    /// Whether the line was resident in its bank.
    pub hit: bool,
    /// Which bank served the access.
    pub bank: usize,
    /// Round-trip-relevant hit latency contribution of the bank (lookup +
    /// distance), regardless of hit/miss — a miss still pays the trip to
    /// the bank before going to memory.
    pub latency: u32,
    /// Dirty victim line written back to memory, if any.
    pub writeback: Option<u64>,
}

impl L2Outcome {
    /// The outcome of any access to a zero-bank L2: a miss straight to
    /// memory with no L2 latency.
    const NO_BANKS: L2Outcome = L2Outcome {
        hit: false,
        bank: 0,
        latency: 0,
        writeback: None,
    };

    fn from_bank(bank: usize, latency: u32, out: AccessOutcome) -> L2Outcome {
        L2Outcome {
            hit: out.hit,
            bank,
            latency,
            writeback: out.writeback,
        }
    }
}

/// A VCore's assigned set of L2 banks with low-order line interleaving.
///
/// A VCore may have **zero** banks (the paper's 0 KB configurations), in
/// which case every access misses straight to memory.
///
/// # Example
///
/// ```
/// use sharing_cache::L2Array;
///
/// let mut l2 = L2Array::new(2); // 128 KB
/// assert_eq!(l2.total_bytes(), 128 << 10);
/// let out = l2.access(0x40 >> 6, false);
/// assert!(!out.hit);
/// assert!(l2.access(0x40 >> 6, false).hit);
/// ```
#[derive(Clone, Debug)]
pub struct L2Array {
    banks: Vec<SetAssocCache>,
    distances: Vec<u32>,
    latency: L2LatencyModel,
}

impl L2Array {
    /// Creates an L2 with `n_banks` 64 KB banks at default distances.
    #[must_use]
    pub fn new(n_banks: usize) -> Self {
        Self::with_latency(n_banks, L2LatencyModel::paper())
    }

    /// Creates an L2 with a custom latency model.
    #[must_use]
    pub fn with_latency(n_banks: usize, latency: L2LatencyModel) -> Self {
        let geom = CacheGeometry::new(BANK_EFFECTIVE_BYTES, LINE_BYTES, BANK_WAYS)
            .expect("bank geometry is statically valid");
        L2Array {
            banks: (0..n_banks).map(|_| SetAssocCache::new(geom)).collect(),
            distances: (0..n_banks).map(|i| latency.default_distance(i)).collect(),
            latency,
        }
    }

    /// Overrides bank distances with a real placement (from the
    /// hypervisor's chip map).
    ///
    /// # Panics
    ///
    /// Panics if `distances.len()` differs from the bank count.
    pub fn set_distances(&mut self, distances: Vec<u32>) {
        assert_eq!(
            distances.len(),
            self.banks.len(),
            "one distance per bank required"
        );
        self.distances = distances;
    }

    /// Number of banks.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Total *nominal* capacity in bytes (what experiment reports print).
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.banks.len() as u64 * BANK_BYTES
    }

    /// Total modeled capacity in bytes (nominal divided by the simulation's
    /// [`sharing_isa::CAPACITY_SCALE`]).
    #[must_use]
    pub fn effective_bytes(&self) -> u64 {
        self.banks.len() as u64 * BANK_EFFECTIVE_BYTES
    }

    /// The bank serving a given line (low-order interleave).
    ///
    /// # Panics
    ///
    /// Panics if the array has no banks.
    #[must_use]
    pub fn bank_of(&self, line: u64) -> usize {
        assert!(!self.banks.is_empty(), "no banks configured");
        (line % self.banks.len() as u64) as usize
    }

    /// Hit latency to the bank that would serve `line` (also paid by
    /// misses on their way to memory). Zero-bank arrays return 0: the
    /// request goes straight to the memory controller.
    #[must_use]
    pub fn access_latency(&self, line: u64) -> u32 {
        if self.banks.is_empty() {
            return 0;
        }
        let b = self.bank_of(line);
        self.latency.hit_latency(self.distances[b])
    }

    /// The bank serving `line`, its hit latency, and the line number
    /// within the bank (interleave bits stripped so the bank's sets are
    /// fully used); `None` with zero banks.
    fn locate(&self, line: u64) -> Option<(usize, u32, u64)> {
        if self.banks.is_empty() {
            return None;
        }
        let b = self.bank_of(line);
        let latency = self.latency.hit_latency(self.distances[b]);
        Some((b, latency, line / self.banks.len() as u64))
    }

    /// Accesses a line. With zero banks this is an unconditional miss with
    /// zero L2 latency.
    pub fn access(&mut self, line: u64, is_write: bool) -> L2Outcome {
        let Some((b, latency, local)) = self.locate(line) else {
            return L2Outcome::NO_BANKS;
        };
        L2Outcome::from_bank(b, latency, self.banks[b].access(local, is_write))
    }

    /// Invalidates a line wherever it lives; returns whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> bool {
        self.locate(line)
            .is_some_and(|(b, _, local)| self.banks[b].invalidate(local))
    }

    /// Flushes every bank (required before reassigning banks to another
    /// VCore, §3.8); returns total dirty lines written back.
    pub fn flush_all(&mut self) -> u64 {
        self.banks.iter_mut().map(SetAssocCache::flush_all).sum()
    }

    /// Aggregated statistics over all banks.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.banks {
            let s = b.stats();
            total.accesses += s.accesses;
            total.hits += s.hits;
            total.writebacks += s.writebacks;
            total.invalidations += s.invalidations;
        }
        total
    }
}

/// The sets one copy-on-write view of an [`L2Array`] has touched.
///
/// [`L2Overlay::access`] copies a line's set out of the base array on
/// first touch and advances the copy from then on, so the view behaves
/// exactly like a private clone of the array while costing one set copy
/// per set it touches. The base is only read; the overlay keeps no
/// statistics.
#[derive(Clone, Debug, Default)]
pub struct L2Overlay {
    /// Touched sets by `(bank, set index within the bank)`.
    sets: HashMap<(usize, usize), DetachedSet>,
}

impl L2Overlay {
    /// [`L2Array::access`] through the overlay: same outcome as the same
    /// access on a clone of `base` carrying this overlay's earlier
    /// accesses.
    pub fn access(&mut self, base: &L2Array, line: u64, is_write: bool) -> L2Outcome {
        let Some((b, latency, local)) = base.locate(line) else {
            return L2Outcome::NO_BANKS;
        };
        let bank = &base.banks[b];
        let si = bank.set_index(local);
        let set = self
            .sets
            .entry((b, si))
            .or_insert_with(|| bank.copy_set(si));
        L2Outcome::from_bank(b, latency, bank.access_copy(set, local, is_write))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_model_matches_table3() {
        let m = L2LatencyModel::paper();
        assert_eq!(m.hit_latency(1), 6);
        assert_eq!(m.hit_latency(2), 8);
        assert_eq!(m.hit_latency(5), 14);
    }

    #[test]
    fn default_distance_adds_a_hop_per_256kb() {
        let m = L2LatencyModel::paper();
        assert_eq!(m.default_distance(0), 1);
        assert_eq!(m.default_distance(3), 1); // 256 KB all at distance 1
        assert_eq!(m.default_distance(4), 2); // next 256 KB one hop out
        assert_eq!(m.default_distance(15), 4);
    }

    #[test]
    fn interleaving_spreads_lines_round_robin() {
        let l2 = L2Array::new(4);
        for line in 0..16u64 {
            assert_eq!(l2.bank_of(line), (line % 4) as usize);
        }
    }

    #[test]
    fn far_banks_cost_more() {
        let l2 = L2Array::new(8);
        // line 0 → bank 0 (distance 1); line 4 → bank 4 (distance 2).
        assert_eq!(l2.access_latency(0), 6);
        assert_eq!(l2.access_latency(4), 8);
    }

    #[test]
    fn zero_bank_l2_always_misses() {
        let mut l2 = L2Array::new(0);
        let out = l2.access(7, true);
        assert!(!out.hit);
        assert_eq!(out.latency, 0);
        assert_eq!(l2.total_bytes(), 0);
        assert!(!l2.invalidate(7));
        assert_eq!(l2.flush_all(), 0);
    }

    #[test]
    fn hits_after_allocation() {
        let mut l2 = L2Array::new(2);
        assert!(!l2.access(10, false).hit);
        assert!(l2.access(10, false).hit);
        assert_eq!(l2.stats().accesses, 2);
        assert_eq!(l2.stats().hits, 1);
    }

    #[test]
    fn flush_reports_dirty_lines() {
        let mut l2 = L2Array::new(2);
        l2.access(0, true);
        l2.access(1, true);
        l2.access(2, false);
        assert_eq!(l2.flush_all(), 2);
        assert!(!l2.access(0, false).hit, "flush empties the banks");
    }

    #[test]
    fn set_distances_overrides_latency() {
        let mut l2 = L2Array::new(2);
        l2.set_distances(vec![3, 7]);
        assert_eq!(l2.access_latency(0), 4 + 2 * 3);
        assert_eq!(l2.access_latency(1), 4 + 2 * 7);
    }

    #[test]
    fn overlay_matches_a_clone_and_copies_only_touched_sets() {
        let mut base = L2Array::new(8);
        for line in 0..200u64 {
            base.access(line * 7, line % 3 == 0);
        }
        let (mut clone, mut overlay) = (base.clone(), L2Overlay::default());
        // Multiples of 8 * 16 all map to set 0 of bank 0 (16 sets of 4
        // ways per bank); six of them hit, miss and evict.
        for line in [0u64, 1, 2, 0, 1, 2, 3, 4, 5, 0].map(|k| k * 8 * 16) {
            assert_eq!(
                overlay.access(&base, line, line % 3 == 0),
                clone.access(line, line % 3 == 0)
            );
        }
        assert_eq!(overlay.sets.len(), 1);
        assert_eq!(base.stats().accesses, 200, "the base is only read");
        let zero = L2Array::new(0);
        assert_eq!(
            L2Overlay::default().access(&zero, 7, true),
            L2Array::new(0).access(7, true)
        );
    }

    #[test]
    #[should_panic(expected = "one distance per bank")]
    fn set_distances_length_checked() {
        let mut l2 = L2Array::new(2);
        l2.set_distances(vec![1]);
    }
}
