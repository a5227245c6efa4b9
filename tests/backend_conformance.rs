//! Shared conformance suite for every [`MemoryBackend`] in the matrix.
//!
//! The execute-and-stall contract (DESIGN.md §14) lets the controller stay
//! backend-agnostic only if every backend honors the same obligations.
//! Three are checked here, each over every machine in `machines()`: all
//! presets plus the GDDR5 machine with tFAW, tCCDL and refresh turned on
//! (`DramTimings::gddr5_extended`, and a variant whose tFAW binds), since
//! no preset enables those three. Dropping any one of them from its
//! `*_ready_at` threshold fails this suite.
//!
//! 1. **Monotone wake-up** — `refresh_due_at` never overshoots: a refresh
//!    is never due strictly before the advertised cycle, and is due at it
//!    (refresh-free backends advertise `u64::MAX`).
//! 2. **Engine invariance** — end to end per machine, the fast loop must
//!    be bit-identical to the reference loop (`SimBuilder::reference_loop`).
//!    Every scheme at random pause points is checked in
//!    `tests/dormancy_equivalence.rs`.
//! 3. **Honest thresholds** — each `*_ready_at` is the first cycle its
//!    guard opens while no command intervenes (the controller sleeps until
//!    the earliest one), and `cas_floor` never exceeds a bank's CAS
//!    threshold.

use lazydram::common::{AccessKind, DramPreset, DramTimings, GpuConfig};
use lazydram::dram::{DramBackend, MemoryBackend};
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};
use proptest::prelude::*;

const SCALE: f64 = 0.02;

#[derive(Debug, Clone, Copy)]
enum Op {
    Act {
        bank: u8,
        row: u8,
    },
    Pre {
        bank: u8,
    },
    Cas {
        bank: u8,
        write: bool,
    },
    Refresh,
    Wait {
        cycles: u8,
    },
    /// Sleeps until the advertised refresh wake-up, as the controller's
    /// event loop does; without it no stream would reach tREFI.
    SleepToRefresh,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..16, 0u8..8).prop_map(|(bank, row)| Op::Act { bank, row }),
        (0u8..16).prop_map(|bank| Op::Pre { bank }),
        (0u8..16, any::<bool>()).prop_map(|(bank, write)| Op::Cas { bank, write }),
        Just(Op::Refresh),
        (1u8..32).prop_map(|cycles| Op::Wait { cycles }),
        Just(Op::SleepToRefresh),
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
            let kind = if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
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
        Op::SleepToRefresh => {
            let due = b.refresh_due_at();
            if due != u64::MAX {
                *now = (*now).max(due);
            }
            (true, 0)
        }
    }
}

/// The GDDR5 machine with tFAW, tCCDL and refresh turned on: a test
/// input, not a preset.
fn extended(timings: DramTimings) -> GpuConfig {
    GpuConfig {
        timings,
        ..GpuConfig::default()
    }
}

/// `gddr5_extended` with tFAW stretched to 32. At 23, tFAW never binds:
/// four ACTs span at least 3 x tRRD = 18 cycles and the fifth waits another
/// tRRD (24 > 23), so only a longer window checks the four-ACT rule.
fn extended_faw32() -> GpuConfig {
    extended(DramTimings {
        t_faw: 32,
        ..DramTimings::gddr5_extended()
    })
}

/// Every machine the obligations iterate over, labelled: each preset, then
/// the two extended GDDR5 machines.
fn machines() -> Vec<(String, GpuConfig)> {
    let mut m: Vec<_> = DramPreset::ALL
        .iter()
        .map(|p| (p.label().to_string(), p.gpu_config()))
        .collect();
    m.push((
        "gddr5-extended".to_string(),
        extended(DramTimings::gddr5_extended()),
    ));
    m.push(("gddr5-extended-faw32".to_string(), extended_faw32()));
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn refresh_due_at_never_overshoots(
        ops in prop::collection::vec(op_strategy(), 1..150),
    ) {
        for (preset, cfg) in machines() {
            let nbanks = cfg.banks_per_channel;
            let mut b = DramBackend::new(&cfg);
            let mut now = 0u64;
            for &op in &ops {
                check_wake_up(&b, now, &preset)?;
                step(&mut b, nbanks, op, &mut now);
            }
        }
    }
}

/// The monotone wake-up obligation at `now`: a refresh is never due
/// strictly before `refresh_due_at` and is due at it; a refresh-free
/// backend advertises `u64::MAX` and never reports one due. Returns `true`
/// when the refresh branch (a finite wake-up) was checked.
fn check_wake_up(b: &DramBackend, now: u64, preset: &str) -> Result<bool, TestCaseError> {
    let due_at = b.refresh_due_at();
    if due_at == u64::MAX {
        prop_assert!(
            !b.refresh_due(now.saturating_add(1 << 20)),
            "{}: refresh-free backend reported a due refresh",
            preset
        );
        return Ok(false);
    }
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
    Ok(true)
}

/// Checks one guard against its advertised threshold `ready` at `now`:
/// closed before `ready`, open from it on.
fn honest(guard: impl Fn(u64) -> bool, ready: u64, now: u64) -> bool {
    if ready == u64::MAX {
        return !guard(now) && !guard(now + 1000);
    }
    guard(now) == (now >= ready) && guard(ready.max(now)) && (ready <= now || !guard(ready - 1))
}

/// The honest-threshold obligation for every bank's guards at `now`.
fn check_thresholds(
    b: &DramBackend,
    nbanks: usize,
    now: u64,
    preset: &str,
) -> Result<(), TestCaseError> {
    for bank in 0..nbanks {
        let act = b.activate_ready_at(bank);
        prop_assert!(
            honest(|t| b.can_activate(bank, t), act, now),
            "{preset}: ACT bank {bank} at {now}"
        );
        let pre = b.precharge_ready_at(bank);
        prop_assert!(
            honest(|t| b.can_precharge(bank, t), pre, now),
            "{preset}: PRE bank {bank} at {now}"
        );
        for kind in [AccessKind::Read, AccessKind::Write] {
            let cas = b.cas_ready_at(bank, kind);
            prop_assert!(
                honest(|t| b.can_cas(bank, kind, t), cas, now),
                "{preset}: CAS bank {bank} at {now}"
            );
            prop_assert!(
                b.cas_floor() <= cas,
                "{preset}: CAS floor above bank {bank}"
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn ready_at_thresholds_are_honest(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        for (preset, cfg) in machines() {
            let nbanks = cfg.banks_per_channel;
            let mut b = DramBackend::new(&cfg);
            let mut now = 0u64;
            for &op in &ops {
                step(&mut b, nbanks, op, &mut now);
                check_thresholds(&b, nbanks, now, &preset)?;
            }
        }
    }
}

#[test]
fn extended_constraints_bind_and_stay_honest() {
    // Random streams rarely pack five ACTs into one tFAW window, so a fixed
    // stream makes tFAW, tCCDL and refresh each bind at a known cycle,
    // checking both obligations after every op.
    let cfg = extended_faw32();
    let t = cfg.timings;
    let nbanks = cfg.banks_per_channel;
    let mut b = DramBackend::new(&cfg);
    let mut now = 0u64;
    let run = |b: &mut DramBackend, op: Op, now: &mut u64| {
        let (legal, _) = step(b, nbanks, op, now);
        check_thresholds(b, nbanks, *now, "gddr5-extended-faw32").expect("honest thresholds");
        assert!(check_wake_up(b, *now, "gddr5-extended-faw32").expect("wake-up"));
        legal
    };
    let wait_rrd = Op::Wait {
        cycles: t.t_rrd as u8,
    };
    // Four ACTs at tRRD spacing, one per bank group; the fifth, though
    // tRRD-legal at 24, waits for the tFAW window to pass the first ACT.
    for bank in [0, 4, 8, 12] {
        assert!(run(&mut b, Op::Act { bank, row: 1 }, &mut now));
        run(&mut b, wait_rrd, &mut now);
    }
    assert_eq!(now, 4 * u64::from(t.t_rrd));
    assert!(
        !run(&mut b, Op::Act { bank: 1, row: 1 }, &mut now),
        "tFAW must stall the fifth ACT"
    );
    assert_eq!(b.activate_ready_at(1), u64::from(t.t_faw));
    now = u64::from(t.t_faw);
    assert!(run(&mut b, Op::Act { bank: 1, row: 1 }, &mut now));
    // Two reads to one bank group: the second waits tCCDL, not tCCD.
    run(
        &mut b,
        Op::Wait {
            cycles: t.t_rcd as u8,
        },
        &mut now,
    );
    assert!(run(
        &mut b,
        Op::Cas {
            bank: 0,
            write: false
        },
        &mut now
    ));
    assert_eq!(
        b.cas_ready_at(1, AccessKind::Read),
        now + u64::from(t.t_ccdl)
    );
    assert!(b.cas_ready_at(4, AccessKind::Read) < now + u64::from(t.t_ccdl));
    // Refresh: sleep to the wake-up, close every row, refresh; twice.
    for round in 1..=2u64 {
        run(&mut b, Op::SleepToRefresh, &mut now);
        for bank in [0, 1, 4, 8, 12] {
            run(&mut b, Op::Pre { bank }, &mut now);
            run(&mut b, Op::Wait { cycles: 1 }, &mut now);
        }
        assert!(
            run(&mut b, Op::Refresh, &mut now),
            "refresh {round} at {now}"
        );
        assert_eq!(b.refreshes(), round);
        assert_eq!(b.refresh_due_at(), now + u64::from(t.t_refi));
        assert!(
            !b.can_activate(0, now + u64::from(t.t_rfc) - 1),
            "tRFC stalls every ACT"
        );
        run(&mut b, Op::Wait { cycles: 1 }, &mut now);
        for bank in [0u8, 1, 4, 8, 12] {
            now = now.max(b.activate_ready_at(usize::from(bank)));
            assert!(run(&mut b, Op::Act { bank, row: 2 }, &mut now));
        }
    }
}

#[test]
fn engines_are_bit_identical_on_every_backend() {
    let app = by_name("SCP").expect("app");
    for (preset, cfg) in machines() {
        let build = || {
            SimBuilder::new(&app)
                .gpu(cfg.clone())
                .scheme(Scheme::DynCombo)
                .scale(SCALE)
        };
        let reference = build().reference_loop(true).build().run();
        assert!(!reference.hit_cycle_limit, "{preset}");
        let run = build().build().run();
        assert_eq!(run.output, reference.output, "{preset}: outputs");
        assert_eq!(run.stats, reference.stats, "{preset}: statistics");
    }
}
