//! Property test: pausing a run at an arbitrary cycle and resuming from the
//! checkpoint is invisible — the resumed run's result is **bit-identical**
//! to the uninterrupted run's, including the executed/skipped cycle
//! accounting and the DRAM trace, with fast-forward on or off.
//!
//! The suite-level test (`tests/checkpoint_equivalence.rs` at the workspace
//! root) covers the 20 real applications; this one probes odd corners with
//! random synthetic kernels, random schemes, and random pause points —
//! including pauses inside fast-forwarded spans and serializing the
//! checkpoint through bytes.

use lazydram_common::{AmsMode, DmsMode, GpuConfig, SchedConfig};
use lazydram_gpu::{
    Checkpoint, Kernel, Loader, MemoryImage, OpBuf, RunOutcome, RunResult, Saver, SimLimits,
    Simulator, SnapResult, WarpProgram,
};
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

    fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        self.round = l.u32("round")?;
        self.phase = l.u8("phase")?;
        self.acc = l.f32("acc")?;
        Ok(())
    }
}

/// Random-but-deterministic kernel: parameters come from the proptest
/// strategy, data from a fixed ramp, so every instance sees identical work.
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

fn assert_identical(a: &RunResult, b: &RunResult) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.hit_cycle_limit, b.hit_cycle_limit);
    prop_assert_eq!(&a.output, &b.output);
    prop_assert!(a.trace == b.trace, "DRAM traces differ");
    prop_assert!(
        a.stats == b.stats,
        "stats differ:\nuninterrupted: {:?}\nresumed: {:?}",
        a.stats,
        b.stats
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn resume_is_bit_identical(
        warps in 1usize..25,
        rounds in 1u32..6,
        stride in 1u64..97,
        compute in 0u32..9,
        pick in 0u8..6,
        dms_delay in 1u32..2049,
        ams_th in 0u32..16,
        skip in proptest::arbitrary::any::<bool>(),
        compute_skip in proptest::arbitrary::any::<bool>(),
        pause_frac in 0u64..100,
        second_frac in 0u64..100,
    ) {
        let sched = scheme(pick, dms_delay, ams_th);
        let limits = SimLimits { max_core_cycles: 2_000_000 };
        let build = || SynthKernel {
            warps,
            rounds,
            stride,
            compute,
            words: 2048,
            approx: pick >= 3,
            base: 0,
        };
        let sim = || {
            Simulator::new(GpuConfig::default(), sched.clone())
                .with_limits(limits)
                .with_trace_capture(true)
                .with_cycle_skipping(skip)
                .with_compute_skipping(compute_skip)
        };

        // Reference: the uninterrupted run.
        let mut kernel = build();
        let reference = sim().run(&mut kernel);
        let total = reference.stats.core_cycles;

        // Pause somewhere inside the run (also probes 0 and the far end).
        let pause_at = total * pause_frac / 100;
        let mut kernel = build();
        let ck = match sim().run_until(&mut kernel, pause_at) {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(r) => {
                // Pausing at the total (frac rounding) may legitimately
                // complete; the result must still be the reference's.
                assert_identical(&reference, &r)?;
                return Ok(());
            }
        };
        prop_assert!(ck.cycle() >= pause_at);

        // Same pause point → same checkpoint bytes (state is a pure
        // function of the cycle, not of the pausing path).
        let mut kernel = build();
        if let RunOutcome::Paused(ck2) = sim().run_until(&mut kernel, pause_at) {
            prop_assert_eq!(ck.digest(), ck2.digest(), "checkpointing is not deterministic");
        }

        // Round-trip the checkpoint through bytes (the sweep-recovery
        // path: checkpoints are parked on disk between processes).
        let ck = Checkpoint::from_bytes(ck.as_bytes().to_vec())
            .expect("serialized checkpoint must reload");

        // Resume to completion on a freshly built kernel.
        let mut kernel = build();
        let resumed = sim().resume(&mut kernel, &ck).expect("resume failed");
        assert_identical(&reference, &resumed)?;

        // Pause a second time mid-resume, then finish: chained checkpoints
        // must also land on the identical result.
        let second_at = pause_at + (total.saturating_sub(pause_at)) * second_frac / 100;
        let mut kernel = build();
        let outcome = sim().resume_until(&mut kernel, &ck, second_at).expect("resume_until failed");
        let final_result = match outcome {
            RunOutcome::Paused(ck2) => {
                let mut kernel = build();
                sim().resume(&mut kernel, &ck2).expect("second resume failed")
            }
            RunOutcome::Done(r) => r,
        };
        assert_identical(&reference, &final_result)?;
    }

    #[test]
    fn resume_rejects_mismatched_config(
        warps in 1usize..8,
        pause_frac in 10u64..90,
    ) {
        let build = || SynthKernel {
            warps,
            rounds: 2,
            stride: 3,
            compute: 2,
            words: 512,
            approx: true,
            base: 0,
        };
        let base_sched = SchedConfig::default();
        let sim = Simulator::new(GpuConfig::default(), base_sched.clone());
        let mut kernel = build();
        let total = sim.run(&mut kernel).stats.core_cycles;
        let mut kernel = build();
        let ck = match sim.run_until(&mut kernel, total * pause_frac / 100) {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(_) => return Ok(()),
        };
        // A different scheduling policy must be rejected, not silently run.
        let mut other_sched = base_sched;
        other_sched.dms = DmsMode::Static(777);
        let other = Simulator::new(GpuConfig::default(), other_sched);
        let mut kernel = build();
        prop_assert!(other.resume(&mut kernel, &ck).is_err());
        // A different warp count must be rejected too.
        let mut small = SynthKernel { warps: warps + 1, ..build() };
        prop_assert!(sim.resume(&mut small, &ck).is_err());
    }
}
