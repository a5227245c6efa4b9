//! Conformance suite for the [`Channel`] model under every machine.
//!
//! The execute-and-stall contract (DESIGN.md §14) holds only if the
//! channel honors the same obligations under every timing package. Each is
//! checked here over every machine in `machines()`: all presets plus the
//! GDDR5 machine with tFAW, tCCDL and refresh turned on
//! (`DramTimings::gddr5_extended`, and a variant whose tFAW binds), since
//! no preset enables those three.
//!
//! 1. **Determinism** — one guarded random command stream, applied twice,
//!    gives the same guard outcomes, CAS completion cycles and statistics.
//! 2. **Monotone completions** — successive CAS completion cycles never
//!    decrease, so responses retire in issue order.
//!
//! On top of the two obligations, **engine invariance**: end to end per
//! machine, the fast loop must be bit-identical to the reference loop
//! (`SimBuilder::reference_loop`). Every scheme at random pause points is
//! checked in `tests/dormancy_equivalence.rs`. `extended_constraints_bind`
//! pins the edges of the three extended constraints with the guards alone.

mod machines;

use lazydram::common::{AccessKind, GpuConfig};
use lazydram::dram::Channel;
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};
use machines::{extended_faw32, machines};
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
    /// Jumps to the cycle a refresh falls due; without it no stream would
    /// reach tREFI.
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
fn step(b: &mut Channel, cfg: &GpuConfig, op: Op, now: &mut u64) -> (bool, u64) {
    let nbanks = cfg.banks_per_channel;
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
            // A refresh falls due at most tREFI after the previous one; a
            // refresh-free machine (tREFI 0) stays put.
            let t_refi = u64::from(cfg.timings.t_refi);
            if let Some(due) = (*now..=*now + t_refi).find(|&t| b.refresh_due(t)) {
                *now = due;
            }
            (true, 0)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_streams_are_deterministic_with_monotone_completions(
        ops in prop::collection::vec(op_strategy(), 1..120),
    ) {
        for (preset, cfg) in machines() {
            let replay = || {
                let mut b = Channel::new(&cfg);
                let mut now = 0u64;
                let seen: Vec<_> = ops.iter().map(|&op| step(&mut b, &cfg, op, &mut now)).collect();
                (seen, b)
            };
            let (seen, b) = replay();
            let (again, twin) = replay();
            prop_assert_eq!(&seen, &again, "{}: guard outcomes or completions", &preset);
            prop_assert_eq!(b.stats(), twin.stats(), "{}: statistics", &preset);
            let done: Vec<u64> = seen.iter().map(|&(_, d)| d).filter(|&d| d > 0).collect();
            prop_assert!(
                done.windows(2).all(|w| w[0] <= w[1]),
                "{}: completions {:?} decrease", &preset, done
            );
        }
    }
}

#[test]
fn extended_constraints_bind() {
    // Random streams rarely pack five ACTs into one tFAW window, so a fixed
    // stream makes tFAW, tCCDL and refresh each bind at a known cycle, and
    // the guards are checked on both sides of each edge.
    let cfg = extended_faw32();
    let t = cfg.timings;
    let mut b = Channel::new(&cfg);
    let mut now = 0u64;
    let run = |b: &mut Channel, op: Op, now: &mut u64| step(b, &cfg, op, now).0;
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
    let t_faw = u64::from(t.t_faw);
    assert!(
        !b.can_activate(1, t_faw - 1) && b.can_activate(1, t_faw),
        "the fifth ACT is legal from tFAW past the first, not before"
    );
    now = t_faw;
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
    let t_ccdl = u64::from(t.t_ccdl);
    assert!(
        !b.can_cas(1, AccessKind::Read, now + t_ccdl - 1)
            && b.can_cas(1, AccessKind::Read, now + t_ccdl),
        "a same-group read waits tCCDL"
    );
    assert!(
        b.can_cas(4, AccessKind::Read, now + t_ccdl - 1),
        "another group's read does not wait tCCDL"
    );
    // Refresh: jump to when it is due, close every row, refresh; twice.
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
        let next = now + u64::from(t.t_refi);
        assert!(
            !b.refresh_due(next - 1) && b.refresh_due(next),
            "the next refresh falls due exactly tREFI later"
        );
        assert!(
            !b.can_activate(0, now + u64::from(t.t_rfc) - 1),
            "tRFC stalls every ACT"
        );
        run(&mut b, Op::Wait { cycles: 1 }, &mut now);
        for bank in [0u8, 1, 4, 8, 12] {
            let limit = now + u64::from(t.t_rfc) + u64::from(t.t_rp);
            while !b.can_activate(usize::from(bank), now) {
                now += 1;
                assert!(now <= limit, "ACT bank {bank} still stalled at {now}");
            }
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
