//! Property test: sink-based emission into a dirty, reused [`OpBuf`] is
//! observationally identical to the old per-call `WarpOp` contract.
//!
//! The `OpBuf` contract says a program must overwrite the buffer exactly
//! once per `next` call and may treat its previous contents as garbage.
//! This test pins that down: two instances of the same randomly configured
//! program run in lockstep over one memory image — the *reference* emits
//! into a freshly constructed buffer every call (reconstructing the old
//! allocate-per-op `WarpOp` values via [`OpBuf::to_warp_op`]), while the
//! device-under-test reuses a single buffer that is deliberately left dirty
//! (and occasionally pre-poisoned with junk) between calls. Every emitted
//! op must reconstruct to the same `WarpOp`, over random program families
//! and shapes (map, matvec, stencil, FWT, matmul, scan).

use lazydram_gpu::{apply_functional, MemoryImage, OpBuf, Run, WarpOp, WarpProgram};
use lazydram_workloads::programs::{
    FwtConfig, FwtProgram, MapConfig, MapProgram, MatVecConfig, MatVecOrientation, MatVecProgram,
    MatmulConfig, MatmulProgram, ScanConfig, ScanProgram, Stencil2DConfig, Stencil2DProgram,
};
use proptest::prelude::*;

/// Builds two independent instances of the same program + the image it runs
/// over, from the drawn family and shape parameters.
#[allow(clippy::type_complexity)]
fn build(
    family: u8,
    dim: usize,
    batch: usize,
    warp: usize,
) -> (MemoryImage, Box<dyn WarpProgram>, Box<dyn WarpProgram>) {
    let mut image = MemoryImage::new();
    match family % 6 {
        0 => {
            // Map: `dim` scales iterations, `batch` the load batching.
            let iters = 2 + dim % 14;
            let items = 32 * iters * (warp + 1);
            let input = image.alloc(items);
            let output = image.alloc(items);
            let make = move || -> Box<dyn WarpProgram> {
                Box::new(MapProgram::new(
                    warp,
                    MapConfig {
                        inputs: vec![(input, 1), (input, 1)],
                        outputs: vec![(output, 1)],
                        items,
                        iters_per_warp: iters,
                        compute: 4,
                        load_batch: 1 + batch % 8,
                        index: |item, _| item,
                        func: |inp, out| out.push(inp[0] * 0.5 + inp[1]),
                    },
                ))
            };
            (image, make(), make())
        }
        1 => {
            let n = 32 * (1 + dim % 8);
            let a = image.alloc(n * n);
            let x = image.alloc(n);
            let y = image.alloc(n);
            let orientation = if batch.is_multiple_of(2) {
                MatVecOrientation::RowPerLane
            } else {
                MatVecOrientation::ColPerLane
            };
            let make = move || -> Box<dyn WarpProgram> {
                Box::new(MatVecProgram::new(
                    warp % (n / 32),
                    MatVecConfig {
                        a,
                        x,
                        y,
                        n,
                        orientation,
                        accumulate: dim.is_multiple_of(2),
                    },
                ))
            };
            (image, make(), make())
        }
        2 => {
            let w = 32 * (1 + dim % 4);
            let h = 4 + batch % 12;
            let input = image.alloc(w * h);
            let output = image.alloc(w * h);
            let strips_per_warp = 1 + batch % 6;
            let make = move || -> Box<dyn WarpProgram> {
                Box::new(Stencil2DProgram::new(
                    warp,
                    Stencil2DConfig {
                        input,
                        output,
                        w,
                        h,
                        taps: vec![(0, 0, 0.6), (-1, 0, 0.1), (1, 0, 0.1), (0, -1, 0.1), (0, 1, 0.1)],
                        compute: 2,
                        strips_per_warp,
                        post: None,
                    },
                ))
            };
            (image, make(), make())
        }
        3 => {
            let segment = 64 << (dim % 4);
            let data = image.alloc(segment * (warp + 1));
            let make = move || -> Box<dyn WarpProgram> {
                Box::new(FwtProgram::new(warp, FwtConfig { data, segment }))
            };
            (image, make(), make())
        }
        4 => {
            // Matmul: `dim` sizes the matrices; any strip of any row.
            let n = 32 * (1 + dim % 4);
            let a = image.alloc(n * n);
            let b = image.alloc(n * n);
            let c = image.alloc(n * n);
            let strip = (warp + batch) % (n * n / 32);
            let make = move || -> Box<dyn WarpProgram> {
                Box::new(MatmulProgram::new(strip, MatmulConfig { a, b, c, n, alpha: 0.5 }))
            };
            (image, make(), make())
        }
        _ => {
            // Scan: segments of 1-20 chunks, so the last batch is partial.
            let segment = 32 * (1 + dim % 20);
            let input = image.alloc(segment * (warp + 1));
            let output = image.alloc(segment * (warp + 1));
            let make = move || -> Box<dyn WarpProgram> {
                Box::new(ScanProgram::new(warp, ScanConfig { input, output, segment }))
            };
            (image, make(), make())
        }
    }
}

fn check(family: u8, dim: usize, batch: usize, warp: usize, seed: u64) {
    let (mut image, mut reference, mut dut) = build(family, dim, batch, warp);
    // Seed the image with a deterministic non-trivial pattern so loads carry
    // values the programs actually fold into later ops.
    for i in 0..256u64 {
        image.write_f32(0x10_0000 + i * 4, ((seed ^ i) % 97) as f32 * 0.25 - 3.0);
    }

    let mut dirty = OpBuf::new();
    let mut loaded: Vec<f32> = Vec::new();
    for step in 0..200_000 {
        // The contract says previous contents are unspecified garbage —
        // occasionally make that garbage as misleading as possible.
        if step % 7 == 3 {
            dirty.begin_load().extend([0xDEAD_BEEFu64 * 4, 4, 8]);
        } else if step % 7 == 5 {
            dirty.begin_store().push((12, -1.0e9));
        }

        let mut fresh = OpBuf::new();
        reference.next(&loaded, &mut fresh);
        let expect = fresh.to_warp_op();
        dut.next(&loaded, &mut dirty);
        let got = dirty.to_warp_op();
        assert_eq!(got, expect, "step {step}: dirty-buffer emission diverged");

        // Apply the op once so both programs see identical loaded values.
        if !apply_functional(&dirty, &mut image, &mut loaded) {
            return;
        }
    }
    panic!("program did not finish");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn dirty_buffer_reuse_matches_fresh_per_call(
        family in 0u8..6,
        dim in 0usize..64,
        batch in 0usize..64,
        warp in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        check(family, dim, batch, warp, seed);
    }
}

/// The reconstruction helper itself must round-trip every variant — the
/// reference side of the property is only as good as `to_warp_op`.
#[test]
fn to_warp_op_covers_every_variant() {
    let mut b = OpBuf::new();
    b.set_compute(7);
    assert_eq!(b.to_warp_op(), WarpOp::Compute(7));
    b.begin_load().extend([4u64, 8, 12, 40]);
    assert_eq!(
        b.to_warp_op(),
        WarpOp::Load(vec![Run { base: 4, words: 3 }, Run { base: 40, words: 1 }])
    );
    b.begin_store().extend([(16u64, 1.5f32), (20, -2.0)]);
    assert_eq!(b.to_warp_op(), WarpOp::Store(vec![(16, 1.5), (20, -2.0)]));
    b.set_finished();
    assert_eq!(b.to_warp_op(), WarpOp::Finished);
}

/// GEMM's first load, pinned: one 8-word run of `A`'s row plus eight
/// 32-word rows of `B`, 264 lanes on 9 lines. (The SM's handling of this
/// shape, 9 line requests and 9 warp-load instructions, is pinned in the
/// simulator's own tests.)
#[test]
fn gemm_first_load_is_one_a_run_plus_eight_b_rows() {
    let app = lazydram_workloads::by_name("GEMM").expect("known app");
    let mut launches = app.launches(1.0);
    let kernel = &mut launches[0];
    let mut image = MemoryImage::new();
    kernel.setup(&mut image);
    let mut buf = OpBuf::new();
    kernel.program(0).next(&[], &mut buf);
    let runs = buf.runs();
    let words: Vec<u32> = runs.iter().map(|r| r.words).collect();
    assert_eq!(words, [8, 32, 32, 32, 32, 32, 32, 32, 32]);
    // The B rows are one matrix row apart.
    let stride = runs[2].base - runs[1].base;
    assert!(stride > 32 * 4, "B rows must not be contiguous");
    assert!(runs[2..].windows(2).all(|w| w[1].base - w[0].base == stride));
    let lines: std::collections::BTreeSet<u64> =
        runs.iter().flat_map(|r| r.lanes()).map(|a| a & !127).collect();
    assert_eq!(lines.len(), 9);
}
