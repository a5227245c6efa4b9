//! Shared conformance suite for every [`MemoryBackend`] in the matrix.
//!
//! The execute-and-stall contract (DESIGN.md §15) lets the controller stay
//! backend-agnostic only if every backend honors the same obligations.
//! Three are checked here, each over all presets:
//!
//! 1. **Snapshot fidelity** — a backend save/load round-tripped mid-stream
//!    must be observationally identical to the original for the rest of
//!    the stream (guard answers, CAS completion cycles, statistics).
//! 2. **Monotone wake-up** — `refresh_due_at` never overshoots: a refresh
//!    is never due strictly before the advertised cycle, and is due at it
//!    (refresh-free backends advertise `u64::MAX`).
//! 3. **Engine invariance** — end to end per preset, the fast-forward
//!    engine (`cycle_skipping`) must be bit-identical to the reference
//!    interpreter, and a checkpoint/resume run must match an uninterrupted
//!    one.

use lazydram::common::{AccessKind, DramPreset, SimStats};
use lazydram::common::snap::{Loader, Saver};
use lazydram::dram::{DramBackend, MemoryBackend};
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};
use proptest::prelude::*;

const SCALE: f64 = 0.02;

#[derive(Debug, Clone, Copy)]
enum Op {
    Act { bank: u8, row: u8 },
    Pre { bank: u8 },
    Cas { bank: u8, write: bool },
    Refresh,
    Wait { cycles: u8 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, 0u8..8).prop_map(|(bank, row)| Op::Act { bank, row }),
        (0u8..16).prop_map(|bank| Op::Pre { bank }),
        (0u8..16, any::<bool>()).prop_map(|(bank, write)| Op::Cas { bank, write }),
        Just(Op::Refresh),
        (1u8..32).prop_map(|cycles| Op::Wait { cycles }),
    ]
}

/// Applies one guarded op to `b` at `now`, returning an observation trace
/// entry (guard outcome + any CAS completion cycle) for equality checks.
fn step(b: &mut DramBackend, nbanks: usize, op: Op, now: &mut u64) -> (bool, u64) {
    b.advance_to(*now);
    match op {
        Op::Act { bank, row } => {
            let bank = bank as usize % nbanks;
            let legal = b.open_row(bank).is_none() && b.can_activate(bank, *now);
            if legal {
                b.activate(bank, u32::from(row), *now);
            }
            (legal, 0)
        }
        Op::Pre { bank } => {
            let bank = bank as usize % nbanks;
            let legal = b.open_row(bank).is_some() && b.can_precharge(bank, *now);
            if legal {
                b.precharge(bank, *now);
            }
            (legal, 0)
        }
        Op::Cas { bank, write } => {
            let bank = bank as usize % nbanks;
            let kind = if write { AccessKind::Write } else { AccessKind::Read };
            let legal = b.open_row(bank).is_some() && b.can_cas(bank, kind, *now);
            if legal {
                let done = b.cas(bank, kind, !write, *now);
                assert!(done > *now, "CAS completion must be in the future");
                return (true, done);
            }
            (false, 0)
        }
        Op::Refresh => {
            let legal = b.refresh_due(*now) && b.can_refresh(*now);
            if legal {
                b.refresh(*now);
            }
            (legal, 0)
        }
        Op::Wait { cycles } => {
            *now += u64::from(cycles);
            (true, 0)
        }
    }
}

fn roundtrip(b: &DramBackend, preset: DramPreset) -> DramBackend {
    let mut s = Saver::new();
    b.save_state(&mut s);
    let bytes = s.finish();
    let mut fresh = DramBackend::new(&preset.gpu_config());
    let mut l = Loader::new(&bytes);
    fresh.load_state(&mut l).expect("snapshot round-trip");
    fresh
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshot_roundtrip_is_observationally_identical(
        ops in prop::collection::vec(op_strategy(), 1..200),
        split in 0usize..200,
    ) {
        for preset in DramPreset::ALL {
            let cfg = preset.gpu_config();
            let nbanks = cfg.banks_per_channel;
            let mut a = DramBackend::new(&cfg);
            let mut now = 0u64;
            let split = split.min(ops.len());
            for &op in &ops[..split] {
                step(&mut a, nbanks, op, &mut now);
            }
            let mut b = roundtrip(&a, preset);
            let mut now_b = now;
            for &op in &ops[split..] {
                let oa = step(&mut a, nbanks, op, &mut now);
                let ob = step(&mut b, nbanks, op, &mut now_b);
                prop_assert_eq!(oa, ob, "{} diverged after round-trip", preset);
            }
            prop_assert_eq!(now, now_b);
            prop_assert_eq!(a.open_banks(), b.open_banks(), "{}", preset);
            a.drain();
            b.drain();
            prop_assert!(a.stats() == b.stats(), "{}: stats diverged", preset);
            prop_assert_eq!(a.refreshes(), b.refreshes(), "{}", preset);
        }
    }

    #[test]
    fn refresh_due_at_never_overshoots(
        ops in prop::collection::vec(op_strategy(), 1..150),
    ) {
        for preset in DramPreset::ALL {
            let cfg = preset.gpu_config();
            let nbanks = cfg.banks_per_channel;
            let mut b = DramBackend::new(&cfg);
            let mut now = 0u64;
            for &op in &ops {
                let due_at = b.refresh_due_at();
                if due_at == u64::MAX {
                    prop_assert!(
                        !b.refresh_due(now.saturating_add(1 << 20)),
                        "{}: refresh-free backend reported a due refresh",
                        preset
                    );
                } else {
                    prop_assert!(
                        due_at == 0 || !b.refresh_due(due_at - 1),
                        "{}: refresh due before advertised wake-up {due_at}",
                        preset
                    );
                    prop_assert!(
                        b.refresh_due(due_at),
                        "{}: refresh not due at advertised wake-up {due_at}",
                        preset
                    );
                }
                step(&mut b, nbanks, op, &mut now);
            }
        }
    }
}

/// Strips the skip-engine instrumentation (`cycles_skipped` etc.) that is
/// *supposed* to differ between loop modes — everything else must match.
fn normalized(stats: &SimStats) -> SimStats {
    let mut s = stats.clone();
    s.cycles_skipped = 0;
    s.compute_cycles_skipped = 0;
    s.ticks_executed = 0;
    s
}

#[test]
fn engines_are_bit_identical_on_every_backend() {
    let app = by_name("SCP").expect("app");
    for preset in DramPreset::ALL {
        let build = || {
            SimBuilder::new(&app).preset(preset).scheme(Scheme::DynCombo).scale(SCALE)
        };
        let reference = build().cycle_skipping(false).build().run();
        assert!(!reference.hit_cycle_limit, "{preset}");
        let run = build().cycle_skipping(true).build().run();
        assert_eq!(run.output, reference.output, "{preset}: outputs");
        assert_eq!(
            normalized(&run.stats),
            normalized(&reference.stats),
            "{preset}: statistics"
        );
    }
}

#[test]
fn checkpoint_resume_is_invisible_on_every_backend() {
    let app = by_name("meanfilter").expect("app");
    for preset in DramPreset::ALL {
        let build = || SimBuilder::new(&app).preset(preset).scheme(Scheme::DynCombo).scale(SCALE);
        let reference = build().build().run();
        let pause_at = reference.stats.core_cycles / 2;
        let run = build().build();
        let ck = match run.run_until(pause_at) {
            lazydram::gpu::RunOutcome::Paused(ck) => ck,
            lazydram::gpu::RunOutcome::Done(_) => {
                panic!("{preset}: finished before the midpoint pause")
            }
        };
        let bytes = ck.into_bytes();
        let ck = lazydram::gpu::Checkpoint::from_bytes(bytes)
            .unwrap_or_else(|e| panic!("{preset}: checkpoint decode: {e}"));
        let resumed = build().build().resume(&ck).expect("resume");
        assert_eq!(resumed.output, reference.output, "{preset}: outputs");
        assert_eq!(resumed.stats, reference.stats, "{preset}: statistics");
    }
}
