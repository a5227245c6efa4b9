//! Tag-only set-associative cache with LRU replacement.
//!
//! Values live in the [`MemoryImage`](crate::MemoryImage); the cache tracks
//! *presence* (tags), dirtiness, and recency. The same structure backs both
//! the per-SM L1 and the per-channel L2 slice. For the value-prediction unit
//! it exposes [`Cache::nearest_resident`], the paper's "search in the nearby
//! cache sets … use the values from cache lines with nearest addresses".

use lazydram_common::snap::Saver;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Line present; recency updated (and dirtiness if a write).
    Hit,
    /// Line absent; the caller decides whether and how to fill.
    Miss,
}

/// Position of a line captured by [`Cache::lookup`]: the set scan's result,
/// held so [`Cache::commit`] can apply the access effects without scanning
/// again. Only valid until the next mutation of the cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheSlot {
    set: usize,
    way: Option<usize>,
}

impl CacheSlot {
    /// Whether the looked-up line was present.
    pub fn is_hit(&self) -> bool {
        self.way.is_some()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    line: u64,
    dirty: bool,
    /// Monotone recency stamp; larger = more recent.
    lru: u64,
}

/// A set-associative, tag-only cache.
#[derive(Debug, Clone, PartialEq)]
pub struct Cache {
    sets: Vec<Vec<Way>>,
    ways: usize,
    line_bytes: u64,
    /// `log2(line_bytes)` — set indexing runs on shift/mask instead of
    /// 64-bit division (the lookup/probe path is the simulator's hottest).
    line_shift: u32,
    /// `num_sets - 1` (set count is asserted to be a power of two).
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `total_bytes` with `ways` associativity and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or the set count is not
    /// a power of two.
    pub fn new(total_bytes: usize, ways: usize, line_bytes: usize) -> Self {
        assert!(ways > 0 && line_bytes > 0);
        let lines = total_bytes / line_bytes;
        assert_eq!(lines % ways, 0, "cache geometry must divide evenly");
        let num_sets = lines / ways;
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            line_bytes: line_bytes as u64,
            line_shift: line_bytes.trailing_zeros(),
            set_mask: (num_sets - 1) as u64,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        ((line >> self.line_shift) & self.set_mask) as usize
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Looks up `addr`; on a hit updates recency and, for writes, dirtiness.
    /// Does **not** allocate on miss — see [`Cache::fill`].
    pub fn access(&mut self, addr: u64, write: bool) -> AccessResult {
        let slot = self.lookup(addr);
        self.commit(slot, write)
    }

    /// Scans the home set of `addr` without mutating anything; pass the
    /// result to [`Cache::commit`] to apply the access effects. Splitting
    /// the scan from the effects lets a caller branch on hit/miss (and do
    /// fallible work, e.g. acquire a downstream queue slot) with exactly one
    /// set scan, and only count the access if it proceeds.
    pub fn lookup(&self, addr: u64) -> CacheSlot {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        CacheSlot {
            set,
            way: self.sets[set].iter().position(|w| w.line == line),
        }
    }

    /// Applies the counter/recency effects of an access whose set scan was
    /// done by [`Cache::lookup`]: identical to [`Cache::access`] minus the
    /// re-scan. The cache must not have been mutated in between.
    pub fn commit(&mut self, slot: CacheSlot, write: bool) -> AccessResult {
        self.tick += 1;
        match slot.way {
            Some(i) => {
                let w = &mut self.sets[slot.set][i];
                w.lru = self.tick;
                if write {
                    w.dirty = true;
                }
                self.hits += 1;
                AccessResult::Hit
            }
            None => {
                self.misses += 1;
                AccessResult::Miss
            }
        }
    }

    /// Probes for `addr` without touching recency or counters.
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        self.sets[self.set_of(line)].iter().any(|w| w.line == line)
    }

    /// Inserts the line containing `addr`, evicting LRU if the set is full.
    /// Returns the evicted line's `(line_addr, dirty)` if one was displaced.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<(u64, bool)> {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        self.tick += 1;
        let tick = self.tick;
        let ways = &mut self.sets[set];
        // One scan finds the line if present *and* the LRU victim if not;
        // strict `<` keeps the first-minimum tie behavior of the old
        // two-pass `min_by_key` form.
        let mut victim = 0usize;
        let mut victim_lru = u64::MAX;
        for (i, w) in ways.iter_mut().enumerate() {
            if w.line == line {
                // Already present (e.g. racing fills): refresh.
                w.lru = tick;
                w.dirty |= dirty;
                return None;
            }
            if w.lru < victim_lru {
                victim_lru = w.lru;
                victim = i;
            }
        }
        if ways.len() < self.ways {
            ways.push(Way {
                line,
                dirty,
                lru: tick,
            });
            return None;
        }
        let old = ways[victim];
        ways[victim] = Way {
            line,
            dirty,
            lru: tick,
        };
        Some((old.line, old.dirty))
    }

    /// Removes the line containing `addr` if present; returns whether it was
    /// dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let pos = self.sets[set].iter().position(|w| w.line == line)?;
        Some(self.sets[set].swap_remove(pos).dirty)
    }

    /// The value-prediction search (paper Section IV-D): scans the home set
    /// of `addr` plus `radius` sets on each side and returns the resident
    /// line whose address is nearest to `addr`'s line (excluding that line
    /// itself). Returns `None` when no line is resident in the window.
    pub fn nearest_resident(&self, addr: u64, radius: u32) -> Option<u64> {
        let line = self.line_of(addr);
        let home = self.set_of(line) as i64;
        let n = self.sets.len() as i64;
        let mut best: Option<(u64, u64)> = None; // (distance, line)
        for d in -(radius as i64)..=(radius as i64) {
            let set = (home + d).rem_euclid(n) as usize;
            for w in &self.sets[set] {
                if w.line == line {
                    continue;
                }
                let dist = w.line.abs_diff(line);
                if best.is_none_or(|(bd, bl)| dist < bd || (dist == bd && w.line < bl)) {
                    best = Some((dist, w.line));
                }
            }
        }
        best.map(|(_, l)| l)
    }

    /// Iterates all resident lines (for drain-time writeback sweeps).
    pub fn resident(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.sets.iter().flatten().map(|w| (w.line, w.dirty))
    }

    /// Serializes the cache's dynamic state (tags, dirtiness, recency,
    /// counters). Geometry is configuration and is not written.
    pub fn save_state(&self, s: &mut Saver) {
        s.u64("tick", self.tick);
        s.u64("hits", self.hits);
        s.u64("misses", self.misses);
        s.seq("sets", self.sets.len());
        for (i, set) in self.sets.iter().enumerate() {
            s.frame("set", i as u32, |s| {
                s.seq("ways", set.len());
                for w in set {
                    s.u64("line", w.line);
                    s.bool("dirty", w.dirty);
                    s.u64("lru", w.lru);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets × 2 ways × 128 B.
        Cache::new(1024, 2, 128)
    }

    #[test]
    fn geometry() {
        let c = small();
        assert_eq!(c.num_sets(), 4);
        let big = Cache::new(128 * 1024, 8, 128);
        assert_eq!(big.num_sets(), 128);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.access(0x1000, false), AccessResult::Miss);
        assert!(c.fill(0x1000, false).is_none());
        assert_eq!(c.access(0x1000, false), AccessResult::Hit);
        assert!(c.probe(0x1000));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines 0x0, 0x800 (stride = sets*line = 512 → 0x200).
        c.fill(0x0, false);
        c.fill(0x200, false);
        c.access(0x0, false); // make 0x0 most recent
        let evicted = c.fill(0x400, true).expect("set full");
        assert_eq!(evicted, (0x200, false));
        assert!(c.probe(0x0) && c.probe(0x400) && !c.probe(0x200));
    }

    #[test]
    fn write_hit_marks_dirty_and_eviction_reports_it() {
        let mut c = small();
        c.fill(0x0, false);
        c.access(0x0, true);
        c.fill(0x200, false);
        c.access(0x200, false);
        c.access(0x200, false); // 0x0 is LRU
        let evicted = c.fill(0x400, false).unwrap();
        assert_eq!(evicted, (0x0, true));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.fill(0x0, true);
        assert_eq!(c.invalidate(0x0), Some(true));
        assert_eq!(c.invalidate(0x0), None);
        assert!(!c.probe(0x0));
    }

    #[test]
    fn fill_of_present_line_does_not_evict() {
        let mut c = small();
        c.fill(0x0, false);
        c.fill(0x200, false);
        assert!(c.fill(0x0, true).is_none());
        // Dirtiness merged.
        let evicted = c.fill(0x400, false).unwrap();
        assert_eq!(evicted.0, 0x200);
    }

    #[test]
    fn nearest_resident_prefers_smallest_distance() {
        let mut c = small();
        c.fill(0x1000, false); // set (0x1000/128)%4 = 32%4 = 0
        c.fill(0x1080, false); // set 1
                               // Target 0x1100 (set 2): nearest is 0x1080 (dist 0x80) vs 0x1000 (0x100).
        assert_eq!(c.nearest_resident(0x1100, 4), Some(0x1080));
        // Target equals a resident line → that line is excluded.
        assert_eq!(c.nearest_resident(0x1080, 4), Some(0x1000));
    }

    #[test]
    fn nearest_resident_respects_radius() {
        let mut c = Cache::new(128 * 128, 1, 128); // 128 sets × 1 way
        c.fill(128 * 10, false); // set 10
                                 // From set 0 with radius 4, set 10 is out of reach.
        assert_eq!(c.nearest_resident(0, 4), None);
        assert_eq!(c.nearest_resident(0, 10), Some(1280));
    }

    #[test]
    fn nearest_resident_empty_cache_is_none() {
        let c = small();
        assert_eq!(c.nearest_resident(0x1234, 4), None);
    }
}
