//! Directory-based MSI coherence between VCores.
//!
//! The paper places the coherence point between the L1s and a per-VM shared
//! L2 (§3.5): "We modeled this with a detailed model which has a directory
//! in the L2. Our modeled cache coherence protocol includes switched network
//! cost based on distance and L1 invalidations." Within a VCore no coherence
//! is needed (L1D lines are Slice-interleaved); between the VCores of a VM,
//! this directory tracks which VCores' L1s hold each line and emits the
//! invalidation/forward actions whose network cost the simulator charges.

use std::collections::HashMap;

/// Maximum VCores a single directory can track (bitmask width).
pub const MAX_VCORES: usize = 64;

/// MSI state of a line at the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DirState {
    /// No L1 holds the line.
    Invalid,
    /// One or more L1s hold a clean copy.
    Shared,
    /// Exactly one L1 holds a dirty copy.
    Modified,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    state: DirState,
    sharers: u64,
}

impl Entry {
    const INVALID: Entry = Entry {
        state: DirState::Invalid,
        sharers: 0,
    };

    fn sharer_list(&self) -> Vec<usize> {
        (0..MAX_VCORES)
            .filter(|&i| self.sharers & (1 << i) != 0)
            .collect()
    }

    /// MSI transition for a read by `vcore`.
    fn read(&mut self, vcore: usize) -> CoherenceAction {
        let bit = 1u64 << vcore;
        match self.state {
            DirState::Invalid => {
                self.state = DirState::Shared;
                self.sharers = bit;
                CoherenceAction::default()
            }
            DirState::Shared => {
                self.sharers |= bit;
                CoherenceAction::default()
            }
            DirState::Modified => {
                if self.sharers == bit {
                    // Reader is the owner: silent hit.
                    return CoherenceAction::default();
                }
                // Owner forwards the dirty line; both become sharers.
                let owner = self.sharer_list()[0];
                self.state = DirState::Shared;
                self.sharers |= bit;
                CoherenceAction {
                    invalidate: Vec::new(),
                    fetch_from: Some(owner),
                }
            }
        }
    }

    /// MSI transition for a write (ownership request) by `vcore`.
    fn write(&mut self, vcore: usize) -> CoherenceAction {
        let bit = 1u64 << vcore;
        let mut action = CoherenceAction::default();
        match self.state {
            DirState::Invalid => {}
            DirState::Shared => {
                action.invalidate = self
                    .sharer_list()
                    .into_iter()
                    .filter(|&s| s != vcore)
                    .collect();
            }
            DirState::Modified => {
                if self.sharers != bit {
                    let owner = self.sharer_list()[0];
                    action.fetch_from = Some(owner);
                    action.invalidate.push(owner);
                }
            }
        }
        self.state = DirState::Modified;
        self.sharers = bit;
        action
    }
}

/// Coherence work required to satisfy an access.
///
/// The caller (the simulator) turns these into network messages and charges
/// distance-based latency for each.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoherenceAction {
    /// VCores whose L1 copies must be invalidated before the access
    /// proceeds.
    pub invalidate: Vec<usize>,
    /// A VCore holding the line dirty that must forward/write back the
    /// data first.
    pub fetch_from: Option<usize>,
}

impl CoherenceAction {
    /// Whether the access required no coherence traffic.
    #[must_use]
    pub fn is_free(&self) -> bool {
        self.invalidate.is_empty() && self.fetch_from.is_none()
    }
}

/// Counters for coherence activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DirStats {
    /// Read requests processed.
    pub reads: u64,
    /// Write (ownership) requests processed.
    pub writes: u64,
    /// L1 invalidations issued.
    pub invalidations: u64,
    /// Dirty forwards from an owner.
    pub forwards: u64,
}

/// The per-VM L2 directory.
///
/// # Example
///
/// ```
/// use sharing_cache::{Directory, DirState};
///
/// let mut dir = Directory::new();
/// assert!(dir.read(0x10, 0).is_free());      // first reader
/// assert!(dir.read(0x10, 1).is_free());      // second reader, still clean
/// let act = dir.write(0x10, 0);              // writer invalidates reader 1
/// assert_eq!(act.invalidate, vec![1]);
/// assert_eq!(dir.state(0x10), DirState::Modified);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Directory {
    lines: HashMap<u64, Entry>,
    stats: DirStats,
}

impl Directory {
    /// Creates an empty directory.
    #[must_use]
    pub fn new() -> Self {
        Directory::default()
    }

    /// Current state of a line.
    #[must_use]
    pub fn state(&self, line: u64) -> DirState {
        self.lines.get(&line).map_or(DirState::Invalid, |e| e.state)
    }

    /// Current sharer set of a line.
    #[must_use]
    pub fn sharers(&self, line: u64) -> Vec<usize> {
        self.lines
            .get(&line)
            .map_or_else(Vec::new, Entry::sharer_list)
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> DirStats {
        self.stats
    }

    fn check_vcore(vcore: usize) {
        assert!(
            vcore < MAX_VCORES,
            "vcore id {vcore} exceeds directory width"
        );
    }

    /// A VCore's L1 reads `line`.
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn read(&mut self, line: u64, vcore: usize) -> CoherenceAction {
        Self::check_vcore(vcore);
        let action = self.lines.entry(line).or_insert(Entry::INVALID).read(vcore);
        self.stats.reads += 1;
        self.stats.forwards += u64::from(action.fetch_from.is_some());
        action
    }

    /// A VCore's L1 writes `line` (needs exclusive ownership).
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn write(&mut self, line: u64, vcore: usize) -> CoherenceAction {
        Self::check_vcore(vcore);
        let action = self
            .lines
            .entry(line)
            .or_insert(Entry::INVALID)
            .write(vcore);
        self.stats.writes += 1;
        self.stats.invalidations += action.invalidate.len() as u64;
        self.stats.forwards += u64::from(action.fetch_from.is_some());
        action
    }

    /// A VCore's L1 evicts its copy of `line` (silent for clean lines;
    /// dirty write-back data goes to the L2, which the caller models).
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn evict(&mut self, line: u64, vcore: usize) {
        Self::check_vcore(vcore);
        if let Some(e) = self.lines.get_mut(&line) {
            e.sharers &= !(1u64 << vcore);
            if e.sharers == 0 {
                self.lines.remove(&line);
            } else if e.state == DirState::Modified {
                // Owner evicted; remaining state is clean at the L2.
                e.state = DirState::Shared;
            }
        }
    }

    /// Number of lines tracked.
    #[must_use]
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }
}

/// The directory entries one copy-on-write view of a [`Directory`] has
/// touched.
///
/// [`DirectoryOverlay::read`] and [`DirectoryOverlay::write`] copy a
/// line's entry out of the base directory on first touch and advance the
/// copy from then on, so the view issues exactly the coherence actions a
/// private clone of the directory would. The base is only read; the
/// overlay keeps no statistics.
#[derive(Clone, Debug, Default)]
pub struct DirectoryOverlay {
    lines: HashMap<u64, Entry>,
}

impl DirectoryOverlay {
    fn entry(&mut self, base: &Directory, line: u64, vcore: usize) -> &mut Entry {
        Directory::check_vcore(vcore);
        self.lines
            .entry(line)
            .or_insert_with(|| base.lines.get(&line).copied().unwrap_or(Entry::INVALID))
    }

    /// [`Directory::read`] through the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn read(&mut self, base: &Directory, line: u64, vcore: usize) -> CoherenceAction {
        self.entry(base, line, vcore).read(vcore)
    }

    /// [`Directory::write`] through the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `vcore >= MAX_VCORES`.
    pub fn write(&mut self, base: &Directory, line: u64, vcore: usize) -> CoherenceAction {
        self.entry(base, line, vcore).write(vcore)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_read_is_free_and_shared() {
        let mut d = Directory::new();
        assert!(d.read(5, 0).is_free());
        assert_eq!(d.state(5), DirState::Shared);
        assert_eq!(d.sharers(5), vec![0]);
    }

    #[test]
    fn write_invalidates_other_sharers() {
        let mut d = Directory::new();
        d.read(5, 0);
        d.read(5, 1);
        d.read(5, 2);
        let act = d.write(5, 1);
        assert_eq!(act.invalidate, vec![0, 2]);
        assert_eq!(act.fetch_from, None);
        assert_eq!(d.state(5), DirState::Modified);
        assert_eq!(d.sharers(5), vec![1]);
        assert_eq!(d.stats().invalidations, 2);
    }

    #[test]
    fn read_of_modified_forwards_and_downgrades() {
        let mut d = Directory::new();
        d.write(5, 0);
        let act = d.read(5, 1);
        assert_eq!(act.fetch_from, Some(0));
        assert!(act.invalidate.is_empty());
        assert_eq!(d.state(5), DirState::Shared);
        assert_eq!(d.sharers(5), vec![0, 1]);
    }

    #[test]
    fn owner_rereads_silently() {
        let mut d = Directory::new();
        d.write(5, 3);
        assert!(d.read(5, 3).is_free());
        assert_eq!(d.state(5), DirState::Modified);
    }

    #[test]
    fn write_steals_ownership() {
        let mut d = Directory::new();
        d.write(5, 0);
        let act = d.write(5, 1);
        assert_eq!(act.fetch_from, Some(0));
        assert_eq!(act.invalidate, vec![0]);
        assert_eq!(d.sharers(5), vec![1]);
    }

    #[test]
    fn owner_rewrite_is_free() {
        let mut d = Directory::new();
        d.write(5, 0);
        assert!(d.write(5, 0).is_free());
    }

    #[test]
    fn eviction_drops_sharers_and_cleans() {
        let mut d = Directory::new();
        d.read(5, 0);
        d.read(5, 1);
        d.evict(5, 0);
        assert_eq!(d.sharers(5), vec![1]);
        d.evict(5, 1);
        assert_eq!(d.state(5), DirState::Invalid);
        assert_eq!(d.tracked_lines(), 0);

        d.write(6, 2);
        d.evict(6, 2);
        assert_eq!(d.state(6), DirState::Invalid);
    }

    #[test]
    #[should_panic(expected = "exceeds directory width")]
    fn vcore_width_enforced() {
        let mut d = Directory::new();
        let _ = d.read(0, MAX_VCORES);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = Directory::new();
        d.read(1, 0);
        d.write(1, 1);
        d.read(1, 0);
        let s = d.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert!(s.invalidations >= 1);
        assert!(s.forwards >= 1);
    }
}
