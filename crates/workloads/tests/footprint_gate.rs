//! Footprint gate: a map warp's heap is sized by the batch in flight.
//!
//! Every resident warp keeps its program alive, so a `MapProgram`'s own
//! heap is multiplied by the whole launch (inversek2j keeps all 1,024 of
//! its warps resident). The program holds one batch's input and output
//! words in two flat buffers; this gate pins that with a counting
//! `#[global_allocator]` that tracks live bytes and their peak. After a
//! warm-up run grows the shared op buffer and load vector to their
//! high-water capacity, a fresh inversek2j-shaped program (two input and
//! two output words per item, batches of 8 iterations) is built and driven
//! through three batches with [`apply_functional`]; the peak live heap
//! above the pre-construction level must stay within [`BUDGET`].
//!
//! The gate lives in its own integration-test binary with a **single**
//! `#[test]` so no concurrent test thread can bleed allocations into the
//! measured window.

use lazydram_gpu::{apply_functional, MemoryImage, OpBuf, WarpProgram};
use lazydram_workloads::programs::{MapConfig, MapProgram, LANES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak live heap one program may add: its two batch buffers take
/// 2 × 256 items × 2 words × 4 B = 4 KiB, plus its configuration.
const BUDGET: usize = 8 * 1024;

/// Tracks live heap bytes and their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees to this allocator are the ones `System` needs; the
// counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block arriving before the old one leaves: the
        // pessimistic peak of a moving realloc.
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Iterations per warp: three batches of eight.
const ITERS: usize = 24;
const BATCH: usize = 8;

/// Drives `p` to completion through the functional next+issue cycle and
/// returns the number of ops it issued.
fn drive(
    p: &mut dyn WarpProgram,
    image: &mut MemoryImage,
    buf: &mut OpBuf,
    loaded: &mut Vec<f32>,
) -> usize {
    loaded.clear();
    let mut ops = 0;
    loop {
        p.next(loaded, buf);
        ops += 1;
        if !apply_functional(buf, image, loaded) {
            return ops;
        }
        assert!(ops < 1_000_000, "program did not finish");
    }
}

#[test]
fn map_program_heap_is_one_batch() {
    let mut image = MemoryImage::new();
    let items = LANES * ITERS;
    let input = image.alloc(items * 2);
    let output = image.alloc(items * 2);
    let make = || {
        MapProgram::new(
            0,
            MapConfig {
                inputs: vec![(input, 2)],
                outputs: vec![(output, 2)],
                items,
                iters_per_warp: ITERS,
                compute: 16,
                load_batch: BATCH,
                index: |item, _| item,
                func: |inp, out| {
                    let (x, y) = (inp[0], inp[1]);
                    out.push(y.atan2(x));
                    out.push((x * x + y * y).sqrt());
                },
            },
        )
    };
    let mut buf = OpBuf::new();
    let mut loaded = Vec::new();
    let warm_ops = drive(&mut make(), &mut image, &mut buf, &mut loaded);
    // Per batch: one load, one compute and one store per output word.
    assert!(
        warm_ops > 3 * 4,
        "only {warm_ops} ops: fewer than three batches ran"
    );

    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let mut p = make();
    drive(&mut p, &mut image, &mut buf, &mut loaded);
    drop(p);
    let peak = PEAK.load(Ordering::Relaxed) - base;
    assert!(
        peak <= BUDGET,
        "an inversek2j-shaped map warp peaked at {peak} live heap bytes (budget {BUDGET})"
    );
}
