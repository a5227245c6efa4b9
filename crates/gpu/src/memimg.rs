//! The functional memory image.
//!
//! The simulator separates *timing* from *function*: caches and DRAM model
//! when data moves, while one flat, coherent [`MemoryImage`] holds the actual
//! `f32` values. This is exactly sufficient for the paper's machinery — the
//! value predictor approximates a dropped line with the contents of the
//! nearest-address line *resident in L2*, whose exact values we serve from
//! the image keyed by the L2 tag array.
//!
//! All data is `f32` and 4-byte aligned; a 128-byte line holds
//! [`WORDS_PER_LINE`] words.
//!
//! # Storage layout
//!
//! [`MemoryImage::alloc`] is a contiguous bump allocator starting at a fixed
//! base, so almost every address the simulator ever touches falls in one
//! dense range. The image exploits that: the allocated range is backed by a
//! **paged arena** (64 KiB pages, materialized on first write), where
//! `addr → page → word` is pure arithmetic — no hashing on the per-lane hot
//! path. Addresses outside the arena (stray pointers fabricated by a kernel,
//! or writes past the bump cursor) fall back to a sparse per-line spill map;
//! if a later `alloc` extends the arena over a spilled line, the line
//! migrates into its page so subsequent accesses take the fast path.
//!
//! Footprint: the sparse map stored every touched line behind its own
//! allocation plus hash-table overhead (~1.6× the data). The arena stores
//! 64 KiB per page that has seen at least one write, with a 64-byte bitmask
//! tracking which lines were actually touched — denser for the suite's
//! contiguous arrays, and reads/writes are branch-plus-index instead of a
//! hash probe.
//!
//! # Lane runs
//!
//! Warp loads and stores reach the image as lists of strided lane [`Run`]s.
//! [`MemoryImage::read_runs_into`] and [`MemoryImage::write_runs`] split
//! each run at line boundaries and resolve each line once per stretch of
//! lanes on it; a contiguous stretch is one slice copy. [`OverlayView`]
//! patches such reads with an SM's staged store runs.

use lazydram_common::prof::{self, Phase};
use lazydram_common::snap::Saver;
use lazydram_common::FastMap;
use std::fmt;

/// `f32` words per 128-byte cache line.
pub const WORDS_PER_LINE: usize = 32;

/// Byte size of a line in the image (fixed at the baseline's 128 B).
pub const LINE_BYTES: u64 = 128;

/// Byte size of one arena page. Must be a multiple of [`LINE_BYTES`] and
/// divide [`ARENA_BASE`] so lines never straddle pages.
const PAGE_BYTES: u64 = 64 * 1024;

/// `f32` words per arena page.
const PAGE_WORDS: usize = (PAGE_BYTES / 4) as usize;

/// Cache lines per arena page.
const PAGE_LINES: usize = (PAGE_BYTES / LINE_BYTES) as usize;

/// First address handed out by [`MemoryImage::alloc`]; non-zero so that
/// stray zero addresses stand out. Page-aligned by construction.
const ARENA_BASE: u64 = 0x10_0000;

/// All-zero line served for reads of untouched memory.
static ZERO_LINE: [f32; WORDS_PER_LINE] = [0.0; WORDS_PER_LINE];

/// A strided run of `f32` lanes: `words` lanes from byte address `base` on,
/// `stride` bytes apart.
///
/// A warp load or store is a list of runs in lane order; its lane addresses
/// are the runs' expansions ([`Run::lanes`]) concatenated. Lanes that are
/// evenly spaced in memory share one run: a 32-lane row fetch is one run at
/// stride 4, and one field of an array of 8-byte structs is one run at
/// stride 8, rather than 32 addresses.
///
/// `stride` is a multiple of 4 in `0..=LINE_BYTES` (0 repeats one word).
/// Because consecutive lanes are at most a line apart, a run touches every
/// line from its first lane's to its last lane's, in rising order, and no
/// other line. The emitters give a one-lane run stride 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Byte address of the first lane.
    pub base: u64,
    /// Number of lanes; at least 1.
    pub words: u32,
    /// Byte distance from one lane to the next; 4 for consecutive words.
    pub stride: u32,
}

impl Run {
    /// `words` consecutive words from byte address `base` on.
    #[inline]
    pub const fn contiguous(base: u64, words: u32) -> Self {
        Self {
            base,
            words,
            stride: 4,
        }
    }

    /// Byte address of the last lane.
    #[inline]
    pub(crate) fn last(self) -> u64 {
        self.base + u64::from(self.words - 1) * u64::from(self.stride)
    }

    /// The address a lane appended to the run would have to take.
    #[inline]
    fn next_lane(self) -> u64 {
        self.base + u64::from(self.words) * u64::from(self.stride)
    }

    /// `true` when the base is word aligned and the stride is a word
    /// multiple of at most a line.
    #[inline]
    fn is_well_formed(self) -> bool {
        self.base.is_multiple_of(4)
            && self.stride.is_multiple_of(4)
            && u64::from(self.stride) <= LINE_BYTES
    }

    /// Word step from one lane to the next (`stride / 4`).
    #[inline]
    pub(crate) fn step(self) -> usize {
        (self.stride / 4) as usize
    }

    /// The run's lane addresses, in lane order.
    pub fn lanes(self) -> impl Iterator<Item = u64> {
        (0..u64::from(self.words)).map(move |i| self.base + i * u64::from(self.stride))
    }

    /// Indices of the lanes whose address is `addr`: one lane, or, for a
    /// stride-0 run at `addr`, all of them.
    #[inline]
    pub(crate) fn lanes_at(self, addr: u64) -> std::ops::Range<usize> {
        let Some(off) = addr.checked_sub(self.base) else {
            return 0..0;
        };
        match u64::from(self.stride) {
            0 if off == 0 => 0..self.words as usize,
            0 => 0..0,
            s if off.is_multiple_of(s) && off / s < u64::from(self.words) => {
                let i = (off / s) as usize;
                i..i + 1
            }
            _ => 0..0,
        }
    }

    /// Base addresses of the first and the last line the run touches. The
    /// run covers every line in between, since its stride is at most a
    /// line.
    #[inline]
    pub fn line_span(self) -> (u64, u64) {
        debug_assert!(self.words > 0, "empty run");
        let line = |a: u64| a & !(LINE_BYTES - 1);
        (line(self.base), line(self.last()))
    }

    /// Splits the run at line boundaries: yields `(line base address, word
    /// index of the first lane on it, lanes on it)` per line touched, in
    /// lane order. Lane `k` of a chunk is word `start + k * stride / 4` of
    /// its line.
    pub(crate) fn line_chunks(self) -> impl Iterator<Item = (u64, usize, usize)> {
        debug_assert!(self.is_well_formed(), "malformed run {self:?}");
        let stride = u64::from(self.stride);
        let mut addr = self.base;
        let mut left = self.words as usize;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let line = addr & !(LINE_BYTES - 1);
            let start = ((addr - line) / 4) as usize;
            let take = match stride {
                0 => left,
                4 => (WORDS_PER_LINE - start).min(left),
                s => ((line + LINE_BYTES - addr).div_ceil(s) as usize).min(left),
            };
            addr += take as u64 * stride;
            left -= take;
            Some((line, start, take))
        })
    }
}

/// Appends one lane at byte address `addr` to `runs`. It extends the last
/// run when `addr` continues its stride, or, when that run has one lane,
/// when `addr` lies a multiple of 4 bytes from 0 to [`LINE_BYTES`] above
/// it (which sets the stride). Otherwise a new one-lane run starts. The
/// expansion of `runs` therefore grows by exactly this lane.
#[inline]
pub(crate) fn push_lane(runs: &mut Vec<Run>, addr: u64) {
    if let Some(last) = runs.last_mut() {
        if last.words == 1 {
            let gap = addr.wrapping_sub(last.base);
            if gap <= LINE_BYTES && gap.is_multiple_of(4) {
                last.words = 2;
                last.stride = gap as u32;
                return;
            }
        } else if last.next_lane() == addr {
            last.words += 1;
            return;
        }
    }
    runs.push(Run::contiguous(addr, 1));
}

/// Appends `words` lanes reading the consecutive words from `base` on to
/// `runs`: one lane goes through [`push_lane`]; more extend the last run
/// when it is contiguous and ends at `base`. The expansion of `runs`
/// therefore grows by exactly these lanes, in this order, whichever way
/// they are split into calls.
#[inline]
pub(crate) fn push_run(runs: &mut Vec<Run>, base: u64, words: u32) {
    match words {
        0 => {}
        1 => push_lane(runs, base),
        _ => match runs.last_mut() {
            Some(last) if last.stride == 4 && last.next_lane() == base => last.words += words,
            _ => runs.push(Run::contiguous(base, words)),
        },
    }
}

/// Lanes of a run list (the sum of its run lengths).
#[inline]
pub(crate) fn lane_count(runs: &[Run]) -> usize {
    runs.iter().map(|r| r.words as usize).sum()
}

/// One 64 KiB arena page: a flat word array plus a touched-line bitmask so
/// [`MemoryImage::resident_lines`] keeps the sparse map's "lines ever
/// written" semantics.
#[derive(Clone)]
struct Page {
    words: [f32; PAGE_WORDS],
    touched: [u64; PAGE_LINES / 64],
}

impl Page {
    fn new_boxed() -> Box<Self> {
        Box::new(Page {
            words: [0.0; PAGE_WORDS],
            touched: [0; PAGE_LINES / 64],
        })
    }
}

/// Flat memory of `f32` words, organized in 128-byte lines: a paged arena
/// over the bump-allocated range with a sparse spill map for strays.
#[derive(Clone)]
pub struct MemoryImage {
    /// Arena page directory covering `[ARENA_BASE, next)`; `None` until the
    /// page sees its first write.
    pages: Vec<Option<Box<Page>>>,
    /// Lines at addresses outside the arena, keyed by line base address.
    spill: FastMap<u64, Box<[f32; WORDS_PER_LINE]>>,
    /// Count of set bits across all page `touched` masks.
    arena_touched: usize,
    /// Bump allocator cursor for [`MemoryImage::alloc`].
    next: u64,
}

impl Default for MemoryImage {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for MemoryImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryImage")
            .field("pages", &self.pages.len())
            .field("spill_lines", &self.spill.len())
            .field("resident_lines", &self.resident_lines())
            .field("next", &self.next)
            .finish()
    }
}

impl MemoryImage {
    /// Creates an empty image; allocations start at a non-zero base so that
    /// stray zero addresses stand out.
    pub fn new() -> Self {
        Self {
            pages: Vec::new(),
            spill: FastMap::default(),
            arena_touched: 0,
            next: ARENA_BASE,
        }
    }

    /// Allocates a line-aligned region of `words` `f32`s and returns its base
    /// byte address. Regions are laid out contiguously in allocation order,
    /// mirroring how the benchmark suites place their arrays.
    pub fn alloc(&mut self, words: usize) -> u64 {
        let base = self.next;
        let bytes = (words as u64 * 4).div_ceil(LINE_BYTES) * LINE_BYTES;
        self.next += bytes;
        if self.next > ARENA_BASE {
            let npages = ((self.next - ARENA_BASE).div_ceil(PAGE_BYTES)) as usize;
            if npages > self.pages.len() {
                self.pages.resize_with(npages, || None);
            }
        }
        // Any stray writes that landed in the newly covered range migrate
        // from the spill map into their page, so the range check below stays
        // the single source of truth for where a line lives.
        if !self.spill.is_empty() {
            let lo = base.max(ARENA_BASE);
            let moved: Vec<u64> = self
                .spill
                .keys()
                .copied()
                .filter(|&l| l >= lo && l < self.next)
                .collect();
            for line in moved {
                let data = self.spill.remove(&line).expect("key just listed");
                self.line_words_mut(line).copy_from_slice(&data[..]);
            }
        }
        base
    }

    /// True when `line` (a line base address) is backed by the arena.
    #[inline]
    fn in_arena(&self, line: u64) -> bool {
        (ARENA_BASE..self.next).contains(&line)
    }

    /// The 32 words backing the line at base address `line` (all zeros when
    /// the line was never written).
    #[inline]
    fn line_words(&self, line: u64) -> &[f32] {
        if self.in_arena(line) {
            let off = line - ARENA_BASE;
            match &self.pages[(off / PAGE_BYTES) as usize] {
                Some(p) => {
                    let w = (off % PAGE_BYTES / 4) as usize;
                    &p.words[w..w + WORDS_PER_LINE]
                }
                None => &ZERO_LINE,
            }
        } else {
            self.spill.get(&line).map_or(&ZERO_LINE[..], |l| &l[..])
        }
    }

    /// Mutable words of the line at base address `line`, materializing the
    /// page (or spill entry) and marking the line resident.
    #[inline]
    fn line_words_mut(&mut self, line: u64) -> &mut [f32] {
        if self.in_arena(line) {
            let off = line - ARENA_BASE;
            let page = self.pages[(off / PAGE_BYTES) as usize].get_or_insert_with(Page::new_boxed);
            let li = (off % PAGE_BYTES / LINE_BYTES) as usize;
            let mask = 1u64 << (li % 64);
            if page.touched[li / 64] & mask == 0 {
                page.touched[li / 64] |= mask;
                self.arena_touched += 1;
            }
            let w = li * WORDS_PER_LINE;
            &mut page.words[w..w + WORDS_PER_LINE]
        } else {
            &mut self
                .spill
                .entry(line)
                .or_insert_with(|| Box::new([0.0; WORDS_PER_LINE]))[..]
        }
    }

    /// Reads the `f32` at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn read_f32(&self, addr: u64) -> f32 {
        assert!(addr.is_multiple_of(4), "unaligned f32 read at {addr:#x}");
        let line = addr & !(LINE_BYTES - 1);
        self.line_words(line)[((addr % LINE_BYTES) / 4) as usize]
    }

    /// Writes the `f32` at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        assert!(addr.is_multiple_of(4), "unaligned f32 write at {addr:#x}");
        let line = addr & !(LINE_BYTES - 1);
        self.line_words_mut(line)[((addr % LINE_BYTES) / 4) as usize] = value;
    }

    /// Returns the 32 words of the line containing `addr` (zeroes if the
    /// line was never written).
    pub fn read_line(&self, addr: u64) -> [f32; WORDS_PER_LINE] {
        let mut out = [0.0; WORDS_PER_LINE];
        self.read_line_into(addr, &mut out);
        out
    }

    /// Copies the 32 words of the line containing `addr` into `out`,
    /// resolving the backing line exactly once.
    pub fn read_line_into(&self, addr: u64, out: &mut [f32; WORDS_PER_LINE]) {
        let line = addr & !(LINE_BYTES - 1);
        out.copy_from_slice(self.line_words(line));
    }

    /// Reads the lanes of `runs` into `out` (cleared first), in lane order,
    /// line at a time: the backing line is resolved once per stretch of
    /// lanes on it, not once per lane, and a contiguous stretch is one copy.
    ///
    /// # Panics
    ///
    /// Panics if a run's base address is not 4-byte aligned or its stride
    /// is not a multiple of 4 of at most [`LINE_BYTES`].
    pub fn read_runs_into(&self, runs: &[Run], out: &mut Vec<f32>) {
        let _t = prof::enter(Phase::FuncMem);
        out.clear();
        // One growth step at most, sized by the load.
        out.reserve(lane_count(runs));
        let mut cur_line = u64::MAX;
        let mut words: &[f32] = &ZERO_LINE;
        for r in runs {
            assert!(r.is_well_formed(), "unaligned f32 read in run {r:?}");
            let step = r.step();
            for (line, start, take) in r.line_chunks() {
                if line != cur_line {
                    cur_line = line;
                    words = self.line_words(line);
                }
                if step == 1 {
                    out.extend_from_slice(&words[start..start + take]);
                } else {
                    out.extend((0..take).map(|k| words[start + k * step]));
                }
            }
        }
    }

    /// Writes `values` to the lanes of `runs`, in lane order (a later lane
    /// at the same address wins), line at a time: the backing line is
    /// resolved once per stretch of lanes on it, and a contiguous stretch
    /// is one copy.
    ///
    /// # Panics
    ///
    /// Panics if a run's base address is not 4-byte aligned, its stride is
    /// not a multiple of 4 of at most [`LINE_BYTES`], or `values` holds
    /// fewer values than the runs have lanes.
    pub fn write_runs(&mut self, runs: &[Run], values: &[f32]) {
        let _t = prof::enter(Phase::FuncMem);
        debug_assert_eq!(lane_count(runs), values.len(), "one value per lane");
        let mut rest = values;
        for r in runs {
            assert!(r.is_well_formed(), "unaligned f32 write in run {r:?}");
            let step = r.step();
            for (line, start, take) in r.line_chunks() {
                let (vals, tail) = rest.split_at(take);
                let words = self.line_words_mut(line);
                if step == 1 {
                    words[start..start + take].copy_from_slice(vals);
                } else {
                    for (k, &v) in vals.iter().enumerate() {
                        words[start + k * step] = v;
                    }
                }
                rest = tail;
            }
        }
    }

    /// Reads `n` consecutive `f32`s starting at `base` into `out` (cleared
    /// first), copying line-at-a-time. Allocation-free once `out` has grown
    /// to capacity.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned or `n` exceeds `u32::MAX`.
    pub fn read_slice_into(&self, base: u64, n: usize, out: &mut Vec<f32>) {
        let words = u32::try_from(n).expect("slice longer than u32::MAX words");
        self.read_runs_into(&[Run::contiguous(base, words)], out);
    }

    /// Convenience: reads `n` consecutive `f32`s starting at `base`.
    pub fn read_slice(&self, base: u64, n: usize) -> Vec<f32> {
        let mut out = Vec::new();
        self.read_slice_into(base, n, &mut out);
        out
    }

    /// Convenience: writes a slice of `f32`s starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned or `data` is longer than
    /// `u32::MAX` words.
    pub fn write_slice(&mut self, base: u64, data: &[f32]) {
        assert!(base.is_multiple_of(4), "unaligned f32 write at {base:#x}");
        let words = u32::try_from(data.len()).expect("slice longer than u32::MAX words");
        let mut rest = data;
        for (line, start, take) in Run::contiguous(base, words).line_chunks() {
            self.line_words_mut(line)[start..start + take].copy_from_slice(&rest[..take]);
            rest = &rest[take..];
        }
    }

    /// Number of lines materialized in the image (lines ever written, arena
    /// and spill combined — reads never materialize).
    pub fn resident_lines(&self) -> usize {
        self.arena_touched + self.spill.len()
    }

    /// Serializes the full image: bump cursor, arena pages (absent pages are
    /// one flag byte) and the spill map in sorted-address order.
    pub fn save_state(&self, s: &mut Saver) {
        s.u64("next", self.next);
        s.usize("arena_touched", self.arena_touched);
        s.seq("pages", self.pages.len());
        for (i, page) in self.pages.iter().enumerate() {
            match page {
                None => s.bool("present", false),
                Some(p) => {
                    s.bool("present", true);
                    s.frame("page", i as u32, |s| {
                        s.f32s("words", &p.words);
                        s.u64s("touched", &p.touched);
                    });
                }
            }
        }
        let mut keys: Vec<u64> = self.spill.keys().copied().collect();
        keys.sort_unstable();
        s.seq("spill", keys.len());
        for k in keys {
            s.u64("line", k);
            s.f32s("words", &self.spill[&k][..]);
        }
    }
}

/// A read view of a [`MemoryImage`] patched by an ordered overlay of
/// pending lane writes.
///
/// During phase A of the phased tick each SM stages its functional writes
/// instead of committing them (the image stays read-only until phase B
/// commits); loads issued later in the *same* SM's tick must still observe
/// those writes to match the sequential semantics. The overlay holds the
/// SM's staged writes in program order, as runs plus one value per lane —
/// a forward scan taking the last match gives latest-write-wins. The
/// overlay is small (one SM's stores from one cycle, a few runs each) and
/// usually empty, so the scan is cheaper than any index.
pub struct OverlayView<'a> {
    base: &'a MemoryImage,
    runs: &'a [Run],
    values: &'a [f32],
}

impl<'a> OverlayView<'a> {
    /// Wraps `base` patched by the lane writes `runs` with one value per
    /// lane in `values`, ordered oldest-to-newest.
    pub fn new(base: &'a MemoryImage, runs: &'a [Run], values: &'a [f32]) -> Self {
        debug_assert_eq!(lane_count(runs), values.len(), "one value per lane");
        Self { base, runs, values }
    }

    /// Reads the `f32` at byte address `addr`, honoring overlay writes.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-byte aligned.
    pub fn read_f32(&self, addr: u64) -> f32 {
        let mut v = self.base.read_f32(addr);
        let mut first = 0;
        for r in self.runs {
            if let Some(i) = r.lanes_at(addr).last() {
                v = self.values[first + i];
            }
            first += r.words as usize;
        }
        v
    }

    /// Reads the lanes of `runs` into `out` (cleared first), honoring
    /// overlay writes: an overlay write lands on every lane whose address it
    /// equals, later writes over earlier ones. Mirrors
    /// [`MemoryImage::read_runs_into`].
    ///
    /// # Panics
    ///
    /// Panics if a run's base address is not 4-byte aligned or its stride
    /// is not a multiple of 4 of at most [`LINE_BYTES`].
    pub fn read_runs_into(&self, runs: &[Run], out: &mut Vec<f32>) {
        self.base.read_runs_into(runs, out);
        if self.runs.is_empty() {
            return;
        }
        let mut first = 0;
        for r in runs {
            let (lo, hi) = (r.base, r.last());
            // Only overlay runs whose address range meets this run's can
            // land on its lanes; walk those lane by lane, in order.
            let mut v = 0;
            for w in self.runs {
                if w.base <= hi && w.last() >= lo {
                    for (a, &val) in w.lanes().zip(&self.values[v..]) {
                        for i in r.lanes_at(a) {
                            out[first + i] = val;
                        }
                    }
                }
                v += w.words as usize;
            }
            first += r.words as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_of_untouched_memory_is_zero() {
        let m = MemoryImage::new();
        assert_eq!(m.read_f32(0x10_0000), 0.0);
        assert_eq!(m.read_line(0x10_0000), [0.0; 32]);
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = MemoryImage::new();
        m.write_f32(0x10_0004, 3.5);
        assert_eq!(m.read_f32(0x10_0004), 3.5);
        assert_eq!(m.read_f32(0x10_0000), 0.0);
        let line = m.read_line(0x10_0004);
        assert_eq!(line[1], 3.5);
    }

    #[test]
    fn alloc_is_line_aligned_and_contiguous() {
        let mut m = MemoryImage::new();
        let a = m.alloc(10); // 40 B → 1 line
        let b = m.alloc(33); // 132 B → 2 lines
        let c = m.alloc(1);
        assert_eq!(a % 128, 0);
        assert_eq!(b, a + 128);
        assert_eq!(c, b + 256);
    }

    #[test]
    fn slice_helpers_roundtrip() {
        let mut m = MemoryImage::new();
        let base = m.alloc(100);
        let data: Vec<f32> = (0..100).map(|i| i as f32 * 0.5).collect();
        m.write_slice(base, &data);
        assert_eq!(m.read_slice(base, 100), data);
        assert!(m.resident_lines() >= 3);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_read_panics() {
        let m = MemoryImage::new();
        let _ = m.read_f32(0x10_0001);
    }

    #[test]
    fn stray_out_of_arena_addresses_spill_and_roundtrip() {
        let mut m = MemoryImage::new();
        m.write_f32(0x8, 1.25); // below the arena base
        let far = 0xdead_0000;
        m.write_f32(far, 2.5); // beyond the bump cursor
        assert_eq!(m.read_f32(0x8), 1.25);
        assert_eq!(m.read_f32(far), 2.5);
        assert_eq!(m.resident_lines(), 2);
    }

    #[test]
    fn alloc_over_spilled_line_migrates_it() {
        let mut m = MemoryImage::new();
        // Write past the bump cursor: this line lives in the spill map.
        let stray = ARENA_BASE + 3 * LINE_BYTES + 8;
        m.write_f32(stray, 7.75);
        assert_eq!(m.resident_lines(), 1);
        // Allocating over it moves the line into the arena; the value and
        // the resident count must survive.
        let base = m.alloc(WORDS_PER_LINE * 8);
        assert_eq!(base, ARENA_BASE);
        assert_eq!(m.read_f32(stray), 7.75);
        assert_eq!(m.resident_lines(), 1);
        m.write_f32(stray, 8.5);
        assert_eq!(m.read_f32(stray), 8.5);
        assert_eq!(m.resident_lines(), 1);
    }

    #[test]
    fn lane_batch_apis_match_scalar_ops() {
        let mut m = MemoryImage::new();
        let base = m.alloc(WORDS_PER_LINE * 3);
        let addrs: Vec<u64> = (0..64u64).map(|i| base + i * 4).collect();
        let mut runs = Vec::new();
        for &a in &addrs {
            push_lane(&mut runs, a);
        }
        assert_eq!(runs, vec![Run::contiguous(base, 64)]);
        let values: Vec<f32> = addrs.iter().map(|&a| a as f32).collect();
        m.write_runs(&runs, &values);
        let mut got = Vec::new();
        m.read_runs_into(&runs, &mut got);
        let want: Vec<f32> = addrs.iter().map(|&a| m.read_f32(a)).collect();
        assert_eq!(got, want);
        assert_eq!(got, values);
        assert_eq!(m.resident_lines(), 2);
    }

    #[test]
    fn strided_runs_read_and_write_their_lanes() {
        let mut m = MemoryImage::new();
        let base = m.alloc(WORDS_PER_LINE * 8);
        // Field 1 of 256 8-byte structs: one stride-8 run over 16 lines.
        let mut runs = Vec::new();
        for i in 0..256u64 {
            push_lane(&mut runs, base + 4 + i * 8);
        }
        assert_eq!(
            runs,
            vec![Run {
                base: base + 4,
                words: 256,
                stride: 8
            }]
        );
        assert_eq!(runs[0].line_span(), (base, base + 15 * LINE_BYTES));
        let values: Vec<f32> = (0..256).map(|i| i as f32).collect();
        m.write_runs(&runs, &values);
        for i in 0..256u64 {
            assert_eq!(m.read_f32(base + i * 8), 0.0, "field 0 untouched");
            assert_eq!(m.read_f32(base + 4 + i * 8), i as f32);
        }
        let mut got = Vec::new();
        m.read_runs_into(&runs, &mut got);
        assert_eq!(got, values);
        // A repeated word is one stride-0 run; its last write wins.
        let rep = [Run {
            base,
            words: 3,
            stride: 0,
        }];
        m.write_runs(&rep, &[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f32(base), 3.0);
        m.read_runs_into(&rep, &mut got);
        assert_eq!(got, vec![3.0; 3]);
    }

    #[test]
    fn overlay_view_patches_reads_latest_wins() {
        let mut m = MemoryImage::new();
        let base = m.alloc(WORDS_PER_LINE * 2);
        m.write_f32(base, 1.0);
        m.write_f32(base + 4, 2.0);
        // Two overlay writes to the same address: the later one wins.
        let runs = [
            Run {
                base,
                words: 2,
                stride: 8,
            },
            Run::contiguous(base, 1),
        ];
        let values = [10.0f32, 30.0, 11.0];
        let v = OverlayView::new(&m, &runs, &values);
        assert_eq!(v.read_f32(base), 11.0);
        assert_eq!(v.read_f32(base + 4), 2.0);
        assert_eq!(v.read_f32(base + 8), 30.0);
        let read = [Run::contiguous(base, 4)];
        let mut got = Vec::new();
        v.read_runs_into(&read, &mut got);
        assert_eq!(got, vec![11.0, 2.0, 30.0, 0.0]);
        // A stride-0 read repeats the patched word on every lane.
        v.read_runs_into(
            &[Run {
                base,
                words: 3,
                stride: 0,
            }],
            &mut got,
        );
        assert_eq!(got, vec![11.0; 3]);
        // Empty overlay degenerates to the plain image.
        let plain = OverlayView::new(&m, &[], &[]);
        plain.read_runs_into(&read, &mut got);
        assert_eq!(got, vec![1.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn read_slice_into_reuses_buffer_across_pages() {
        let mut m = MemoryImage::new();
        // Two pages' worth so the slice crosses a page boundary.
        let n = PAGE_WORDS + 100;
        let base = m.alloc(n);
        let data: Vec<f32> = (0..n).map(|i| (i % 977) as f32).collect();
        m.write_slice(base, &data);
        let mut out = Vec::new();
        m.read_slice_into(base, n, &mut out);
        assert_eq!(out, data);
        // Unaligned start within a line.
        m.read_slice_into(base + 12, 50, &mut out);
        assert_eq!(out[..], data[3..53]);
    }
}
