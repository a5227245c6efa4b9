//! Property test: the fast loop (SM and controller dormancy) is
//! result-invisible for randomly generated synthetic kernels under randomly
//! drawn scheduler configurations and cycle limits: it must match the
//! reference loop, which visits every component every cycle.
//!
//! The suite-level test (`tests/fast_forward_equivalence.rs` at the
//! workspace root) covers the 20 real applications; this one probes odd
//! corners real apps do not hit — single-warp launches, degenerate strides,
//! tight cycle limits, pathological DMS delays.

use lazydram_common::{AmsMode, DmsMode, GpuConfig, SchedConfig};
use lazydram_gpu::{Kernel, MemoryImage, OpBuf, Saver, SimLimits, Simulator, WarpProgram};
use proptest::prelude::*;

/// One warp of the synthetic kernel: `rounds` iterations of
/// compute → strided load → store, then retire.
struct SynthProgram {
    warp_id: u64,
    base: u64,
    words: u64,
    rounds: u32,
    round: u32,
    stride: u64,
    compute: u32,
    phase: u8,
    acc: f32,
}

impl SynthProgram {
    fn lane_addr(&self, lane: u64) -> u64 {
        let idx =
            (self.warp_id * 131 + u64::from(self.round) * self.stride + lane * 7) % self.words;
        self.base + idx * 4
    }
}

impl WarpProgram for SynthProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        self.acc += loaded.iter().sum::<f32>();
        if self.round >= self.rounds {
            out.set_finished();
            return;
        }
        match self.phase {
            0 => {
                self.phase = 1;
                if self.compute == 0 {
                    self.next(&[], out);
                    return;
                }
                out.set_compute(self.compute);
            }
            1 => {
                self.phase = 2;
                out.begin_load()
                    .extend((0..8).map(|lane| self.lane_addr(lane)));
            }
            _ => {
                self.phase = 0;
                let round = u64::from(self.round);
                self.round += 1;
                let addr = self.base + ((self.warp_id * 17 + round) % self.words) * 4;
                out.begin_store().push(addr, self.acc + round as f32);
            }
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.u32("round", self.round);
        s.u8("phase", self.phase);
        s.f32("acc", self.acc);
    }
}

/// Random-but-deterministic kernel: parameters come from the proptest
/// strategy, data from a fixed ramp, so both loops see identical work.
struct SynthKernel {
    warps: usize,
    rounds: u32,
    stride: u64,
    compute: u32,
    words: u64,
    approx: bool,
    base: u64,
}

impl Kernel for SynthKernel {
    fn name(&self) -> &str {
        "synthetic"
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        self.base = mem.alloc(self.words as usize);
        for i in 0..self.words {
            mem.write_f32(self.base + i * 4, (i % 97) as f32 * 0.5 - 3.0);
        }
    }

    fn total_warps(&self) -> usize {
        self.warps
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        Box::new(SynthProgram {
            warp_id: warp_id as u64,
            base: self.base,
            words: self.words,
            rounds: self.rounds,
            round: 0,
            stride: self.stride,
            compute: self.compute,
            phase: 0,
            acc: 0.0,
        })
    }

    fn approximable(&self, _addr: u64) -> bool {
        self.approx
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        mem.read_slice(self.base, self.words.min(128) as usize)
    }
}

fn scheme(pick: u8, dms_delay: u32, ams_th: u32) -> SchedConfig {
    let mut s = SchedConfig::default();
    match pick % 6 {
        0 => {}
        1 => s.dms = DmsMode::Static(dms_delay),
        2 => s.dms = DmsMode::paper_dynamic(),
        3 => s.ams = AmsMode::Static(ams_th.max(1)),
        4 => s.ams = AmsMode::paper_dynamic(),
        _ => {
            s.dms = DmsMode::Static(dms_delay);
            s.ams = AmsMode::Static(ams_th.max(1));
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn fast_loop_matches_reference_loop(
        warps in 1usize..25,
        rounds in 1u32..6,
        stride in 1u64..97,
        compute in 0u32..9,
        pick in 0u8..6,
        dms_delay in 1u32..2049,
        ams_th in 0u32..16,
        tight_limit in proptest::arbitrary::any::<bool>(),
    ) {
        let sched = scheme(pick, dms_delay, ams_th);
        let limits = SimLimits {
            max_core_cycles: if tight_limit { 5_000 } else { 2_000_000 },
        };
        let build = || SynthKernel {
            warps,
            rounds,
            stride,
            compute,
            words: 2048,
            approx: pick >= 3,
            base: 0,
        };
        let run = |reference: bool| {
            let mut kernel = build();
            Simulator::new(GpuConfig::default(), sched.clone())
                .with_limits(limits)
                .with_trace_capture(true)
                .with_reference_loop(reference)
                .run(&mut kernel)
        };
        let fast = run(false);
        let slow = run(true);
        prop_assert_eq!(fast.hit_cycle_limit, slow.hit_cycle_limit);
        prop_assert_eq!(&fast.output, &slow.output);
        prop_assert!(fast.trace == slow.trace, "DRAM traces differ");
        let (fs, ss) = (&fast.stats, &slow.stats);
        prop_assert!(fs == ss, "stats differ:\nfast: {fs:?}\nslow: {ss:?}");
    }
}
