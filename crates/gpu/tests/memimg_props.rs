//! Property test: the paged-arena memory image is observationally identical
//! to a plain sparse per-line map.
//!
//! The arena is a pure performance structure — every read and write must
//! behave exactly as if each touched line lived behind its own map entry
//! (the pre-rework representation). This test drives a [`MemoryImage`] and a
//! reference model through the same random operation sequence — allocations,
//! scalar and batch reads/writes, line and slice reads, including
//! out-of-arena stray addresses and allocations that grow the arena over
//! previously spilled lines — and demands identical observations throughout,
//! plus identical "lines ever written" accounting (`resident_lines`).

use lazydram_common::{FastMap, SplitMix64};
use lazydram_gpu::{MemoryImage, OpBuf, OverlayView, LINE_BYTES, WORDS_PER_LINE};
use proptest::prelude::*;

/// The reference: one map entry per line ever written, zeros elsewhere.
/// Exactly the pre-rework `MemoryImage` representation, minus the allocator
/// (which only hands out addresses and never affects stored values).
#[derive(Default)]
struct ModelImage {
    lines: FastMap<u64, [f32; WORDS_PER_LINE]>,
}

impl ModelImage {
    fn read(&self, addr: u64) -> f32 {
        let line = addr & !(LINE_BYTES - 1);
        let word = ((addr % LINE_BYTES) / 4) as usize;
        self.lines.get(&line).map_or(0.0, |w| w[word])
    }

    fn write(&mut self, addr: u64, value: f32) {
        let line = addr & !(LINE_BYTES - 1);
        let word = ((addr % LINE_BYTES) / 4) as usize;
        self.lines.entry(line).or_insert([0.0; WORDS_PER_LINE])[word] = value;
    }

    fn read_line(&self, addr: u64) -> [f32; WORDS_PER_LINE] {
        let line = addr & !(LINE_BYTES - 1);
        self.lines
            .get(&line)
            .copied()
            .unwrap_or([0.0; WORDS_PER_LINE])
    }
}

/// Draws a 4-aligned address: usually inside an allocated region, sometimes
/// a stray — below the arena base, far above anything allocated, or just
/// past the bump cursor (spills that a later `alloc` may grow over).
fn draw_addr(rng: &mut SplitMix64, regions: &[(u64, u64)]) -> u64 {
    let kind = rng.next_u64() % 10;
    let addr = if kind < 7 && !regions.is_empty() {
        let (base, words) = regions[(rng.next_u64() % regions.len() as u64) as usize];
        // Mostly in range, occasionally a little past the end of the region.
        base + (rng.next_u64() % (words + 64)) * 4
    } else if kind == 7 {
        // Below the arena base (the fixed 0x10_0000 alloc start).
        rng.next_u64() % 0x10_0000
    } else if kind == 8 {
        // Far beyond anything alloc will ever cover in this test.
        (1 << 40) + rng.next_u64() % (1 << 20)
    } else {
        // Just above the arena start: spills early, may be grown over later.
        0x10_0000 + rng.next_u64() % (1 << 22)
    };
    addr & !3
}

fn check_equivalence(seed: u64, ops: usize) {
    let mut rng = SplitMix64::new(seed);
    let mut img = MemoryImage::new();
    let mut model = ModelImage::default();
    let mut regions: Vec<(u64, u64)> = Vec::new();
    let mut scratch = Vec::new();
    let mut buf = OpBuf::new();

    for step in 0..ops {
        match rng.next_u64() % 16 {
            // Grow the arena. Values must be unaffected even when the new
            // range swallows previously spilled lines (migration).
            0 | 1 => {
                let words = 1 + (rng.next_u64() % 20_000) as usize;
                let base = img.alloc(words);
                regions.push((base, words as u64));
            }
            2..=4 => {
                let addr = draw_addr(&mut rng, &regions);
                let val = (rng.next_u64() % 1000) as f32 - 500.0;
                img.write_f32(addr, val);
                model.write(addr, val);
            }
            5..=7 => {
                let addr = draw_addr(&mut rng, &regions);
                assert_eq!(
                    img.read_f32(addr),
                    model.read(addr),
                    "read_f32 at {addr:#x}"
                );
            }
            8 => {
                let addr = draw_addr(&mut rng, &regions);
                assert_eq!(
                    img.read_line(addr),
                    model.read_line(addr),
                    "read_line at {addr:#x}"
                );
            }
            9 | 10 => {
                // Run read of push-merged lanes, with the warp-typical
                // contiguous stretches, line crossings and jumps.
                let n = 1 + (rng.next_u64() % 80) as usize;
                let mut addrs = Vec::with_capacity(n);
                let mut a = draw_addr(&mut rng, &regions);
                for _ in 0..n {
                    if rng.next_u64().is_multiple_of(4) {
                        a = draw_addr(&mut rng, &regions);
                    } else {
                        a = (a + 4) & !3;
                    }
                    addrs.push(a);
                }
                let mut load = buf.begin_load();
                for &a in &addrs {
                    load.push(a);
                }
                img.read_runs_into(buf.runs(), &mut scratch);
                let expect: Vec<f32> = addrs.iter().map(|&a| model.read(a)).collect();
                assert_eq!(scratch, expect, "read_runs_into {addrs:?}");
                // The same read through an overlay of pending writes, some
                // on lane addresses and some repeated: the latest write to
                // a lane's address wins, every other lane reads the image.
                let overlay: Vec<(u64, f32)> = (0..rng.next_u64() % 6)
                    .map(|i| {
                        let at = addrs[(rng.next_u64() % n as u64) as usize];
                        let addr = if i % 3 == 2 {
                            draw_addr(&mut rng, &regions)
                        } else {
                            at
                        };
                        (addr, -1000.0 - i as f32)
                    })
                    .collect();
                let mut staged = OpBuf::new();
                staged.begin_store().extend(overlay.iter().copied());
                let view = OverlayView::new(&img, staged.runs(), staged.values());
                view.read_runs_into(buf.runs(), &mut scratch);
                let latest = |a: u64| overlay.iter().rev().find(|&&(o, _)| o == a);
                let expect: Vec<f32> = addrs
                    .iter()
                    .map(|&a| latest(a).map_or(model.read(a), |&(_, v)| v))
                    .collect();
                assert_eq!(
                    scratch, expect,
                    "overlay read_runs_into {addrs:?} over {overlay:?}"
                );
                let per_lane: Vec<f32> = addrs.iter().map(|&a| view.read_f32(a)).collect();
                assert_eq!(scratch, per_lane, "overlay read_runs_into vs read_f32");
            }
            11 | 12 => {
                // A run write of push-merged lanes: contiguous stretches,
                // evenly strided fields and repeats, with jumps between.
                let n = 1 + (rng.next_u64() % 32) as usize;
                let mut writes = Vec::with_capacity(n);
                let mut a = draw_addr(&mut rng, &regions);
                let mut stride = 4 * (rng.next_u64() % 40);
                for _ in 0..n {
                    if rng.next_u64().is_multiple_of(4) {
                        a = draw_addr(&mut rng, &regions);
                        stride = 4 * (rng.next_u64() % 40);
                    } else {
                        a += stride;
                    }
                    writes.push((a, step as f32 + (rng.next_u64() % 100) as f32));
                }
                let mut store = buf.begin_store();
                store.extend(writes.iter().copied());
                img.write_runs(buf.runs(), buf.values());
                for &(a, v) in &writes {
                    model.write(a, v);
                }
            }
            13 => {
                let base = draw_addr(&mut rng, &regions);
                let n = (rng.next_u64() % 200) as usize;
                img.read_slice_into(base, n, &mut scratch);
                let expect: Vec<f32> = (0..n as u64).map(|i| model.read(base + i * 4)).collect();
                assert_eq!(scratch, expect, "read_slice_into at {base:#x} x{n}");
            }
            14 => {
                let base = draw_addr(&mut rng, &regions);
                let n = (rng.next_u64() % 100) as usize;
                let data: Vec<f32> = (0..n).map(|i| (i as f32) * 0.25 - 7.0).collect();
                img.write_slice(base, &data);
                for (i, &v) in data.iter().enumerate() {
                    model.write(base + i as u64 * 4, v);
                }
            }
            _ => {
                // The arena must keep the sparse map's accounting: a line is
                // resident iff it was ever written (reads never materialize).
                assert_eq!(
                    img.resident_lines(),
                    model.lines.len(),
                    "resident_lines diverged at step {step}"
                );
            }
        }
    }
    assert_eq!(
        img.resident_lines(),
        model.lines.len(),
        "final resident_lines"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn paged_arena_matches_sparse_map(seed in 0u64..u64::MAX, ops in 50usize..400) {
        check_equivalence(seed, ops);
    }
}

/// One long deterministic run so the migration path (spill → alloc growth)
/// is exercised even if the random cases draw unlucky.
#[test]
fn long_run_with_forced_migration() {
    let mut img = MemoryImage::new();
    let mut model = ModelImage::default();
    // Write strays just above the arena start before any allocation...
    for i in 0..200u64 {
        let addr = 0x10_0000 + i * 260; // straddles many distinct lines
        img.write_f32(addr & !3, i as f32);
        model.write(addr & !3, i as f32);
    }
    assert_eq!(img.resident_lines(), model.lines.len());
    // ...then allocate over them, forcing spill → arena migration.
    let base = img.alloc(64 * 1024);
    assert_eq!(base, 0x10_0000);
    assert_eq!(
        img.resident_lines(),
        model.lines.len(),
        "migration must not change accounting"
    );
    for i in 0..200u64 {
        let addr = (0x10_0000 + i * 260) & !3;
        assert_eq!(
            img.read_f32(addr),
            model.read(addr),
            "post-migration value at {addr:#x}"
        );
    }
    check_equivalence(0xD5_2019, 600);
}
