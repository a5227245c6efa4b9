//! Allocation gate: the steady-state `next` + issue cycle must not touch
//! the heap.
//!
//! PR 4's tentpole claim is that warp-op emission is allocation-free once
//! warm: programs fill a caller-owned [`OpBuf`] whose lane vectors retain
//! capacity, and per-program helper state (`active` triples, `strips`,
//! pair indices) is computed once at construction or reused across calls.
//! This test turns that claim into a regression gate with a counting
//! `#[global_allocator]`: after a warm-up run, a representative map,
//! stencil, matvec and matmul program each execute their measured ops —
//! `next` into a reused buffer, then the functional issue (run reads and
//! lane writes against a page-warm memory image) — under the assertion
//! that the allocation counter does not move.
//!
//! The gate lives in its own integration-test binary with a **single**
//! `#[test]` so no concurrent test thread can bleed allocations into the
//! measured window.

use lazydram_gpu::{apply_functional, MemoryImage, OpBuf, WarpProgram};
use lazydram_workloads::programs::{
    MapConfig, MapProgram, MatVecConfig, MatVecOrientation, MatVecProgram, MatmulConfig,
    MatmulProgram, Stencil2DConfig, Stencil2DProgram,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation-side call (`alloc`, `alloc_zeroed`, `realloc`);
/// frees are not interesting to the gate.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}

/// Drives `p` to completion through the functional next+issue cycle.
/// Returns `(total_ops, allocs_in_measured_window)` where the measured
/// window is every op from index `snapshot_at` on (pass `usize::MAX` for a
/// purely warm-up run).
fn drive(
    p: &mut dyn WarpProgram,
    image: &mut MemoryImage,
    buf: &mut OpBuf,
    loaded: &mut Vec<f32>,
    snapshot_at: usize,
) -> (usize, u64) {
    loaded.clear();
    let mut ops = 0usize;
    let mut base = 0u64;
    loop {
        if ops == snapshot_at {
            base = alloc_calls();
        }
        p.next(loaded, buf);
        ops += 1;
        if !apply_functional(buf, image, loaded) {
            break;
        }
        assert!(ops < 10_000_000, "program did not finish");
    }
    let measured = if ops > snapshot_at {
        alloc_calls() - base
    } else {
        0
    };
    (ops, measured)
}

/// Warm-up pass, op count, then the measured pass of a fresh instance.
///
/// `make` builds a fresh program for the same warp over the same image each
/// time, so the warm-up materializes every memory page and grows the shared
/// buffers to their high-water capacity; only the fresh instance's own
/// early-op scratch growth remains, excluded by measuring from `warm_frac`
/// of the op stream onward (0.0 = the whole run must be alloc-free).
fn gate(
    label: &str,
    image: &mut MemoryImage,
    make: &mut dyn FnMut() -> Box<dyn WarpProgram>,
    warm_frac: f64,
) {
    let mut buf = OpBuf::new();
    let mut loaded: Vec<f32> = Vec::new();
    let mut p = make();
    let (total, _) = drive(p.as_mut(), image, &mut buf, &mut loaded, usize::MAX);
    assert!(
        warm_frac == 0.0 || total >= 8,
        "{label}: too few ops ({total}) to have a steady state"
    );
    let warm = (total as f64 * warm_frac) as usize;
    let mut p = make();
    let (_, delta) = drive(p.as_mut(), image, &mut buf, &mut loaded, warm);
    assert_eq!(
        delta, 0,
        "{label}: {delta} heap allocations during steady-state ops {warm}..{total}"
    );
}

/// One test, four program families. Configs are sized so a single warp has
/// a genuine steady state (several load batches / strips / inner-product
/// batches), unlike some app-level configs whose warps finish in one batch.
#[test]
fn steady_state_emission_is_allocation_free() {
    // Map: 16 iterations in batches of 2 → 8 load/compute/store cycles.
    {
        let mut image = MemoryImage::new();
        let items = 32 * 16;
        let input = image.alloc(items);
        let output = image.alloc(items);
        let mut make = || -> Box<dyn WarpProgram> {
            Box::new(MapProgram::new(
                0,
                MapConfig {
                    inputs: vec![(input, 1)],
                    outputs: vec![(output, 1)],
                    items,
                    iters_per_warp: 16,
                    compute: 4,
                    load_batch: 2,
                    index: |item, _| item,
                    func: |inp, out| out.push(inp[0] * 2.0 + 1.0),
                },
            ))
        };
        gate("map", &mut image, &mut make, 0.5);
    }

    // Stencil: per-warp scratch (`sums`, `centers`, `strips`) is fully
    // sized at construction, so the *entire* run must be alloc-free.
    {
        let mut image = MemoryImage::new();
        let (w, h) = (64, 16);
        let input = image.alloc(w * h);
        let output = image.alloc(w * h);
        let mut make = || -> Box<dyn WarpProgram> {
            Box::new(Stencil2DProgram::new(
                0,
                Stencil2DConfig {
                    input,
                    output,
                    w,
                    h,
                    taps: vec![(0, 0, 0.5), (0, 1, 0.25), (1, 0, 0.25)],
                    compute: 4,
                    strips_per_warp: 8,
                    post: None,
                },
            ))
        };
        gate("stencil", &mut image, &mut make, 0.0);
    }

    // MatVec: n = 256 → 8 inner-product batches of 32 `j`s per lane-row.
    {
        let mut image = MemoryImage::new();
        let n = 256;
        let a = image.alloc(n * n);
        let x = image.alloc(n);
        let y = image.alloc(n);
        let mut make = || -> Box<dyn WarpProgram> {
            Box::new(MatVecProgram::new(
                0,
                MatVecConfig {
                    a,
                    x,
                    y,
                    n,
                    orientation: MatVecOrientation::RowPerLane,
                    accumulate: false,
                },
            ))
        };
        gate("matvec", &mut image, &mut make, 0.5);
    }

    // Matmul: n = 256 → 32 batched loads of one `A` run plus eight `B`
    // rows. Its state is fixed-size, so the entire run must be alloc-free.
    {
        let mut image = MemoryImage::new();
        let n = 256;
        let a = image.alloc(n * n);
        let b = image.alloc(n * n);
        let c = image.alloc(n * n);
        let mut make = || -> Box<dyn WarpProgram> {
            Box::new(MatmulProgram::new(3, MatmulConfig { a, b, c, n, alpha: 1.5 }))
        };
        gate("matmul", &mut image, &mut make, 0.0);
    }
}
