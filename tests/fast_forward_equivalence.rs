//! Fast-forward must be invisible in results: for every application and
//! scheme, a run with the full skipper (idle + analytic compute bursts), a
//! run with only the idle skipper (`compute_skipping(false)`), and the
//! naive cycle-by-cycle loop (`cycle_skipping(false)`) must produce
//! bit-identical output, statistics, and DRAM trace. Only `cycles_skipped` /
//! `compute_cycles_skipped` / `ticks_executed` (the instrumentation of the
//! skipping itself) may differ, so those are normalized before comparison.
//! A pause lands every loop mode on the same state: a skip that would
//! cross the pause cycle is clamped there.

use lazydram::common::{SchedConfig, SimStats};
use lazydram::gpu::{RunOutcome, RunResult, SimLimits};
use lazydram::workloads::{all_apps, by_name, AppSpec};
use lazydram::SimBuilder;
use std::collections::BTreeMap;

/// The three loop modes under test, selected through the builder.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Mode {
    /// Idle skip + analytic compute-burst skip (the default).
    Full,
    /// Idle skip only — `compute_skipping(false)`.
    IdleOnly,
    /// Naive cycle-by-cycle loop — `cycle_skipping(false)`.
    Naive,
}

fn run(app: &AppSpec, sched: &SchedConfig, scale: f64, limits: SimLimits, mode: Mode) -> RunResult {
    SimBuilder::new(app)
        .sched(sched.clone(), "equiv")
        .scale(scale)
        .limits(limits)
        .trace(true)
        .cycle_skipping(mode != Mode::Naive)
        .compute_skipping(mode == Mode::Full)
        .build()
        .run()
}

/// Strips the loop-instrumentation counters that legitimately differ
/// between the loop modes.
fn normalized(stats: &SimStats) -> SimStats {
    let mut s = stats.clone();
    s.cycles_skipped = 0;
    s.compute_cycles_skipped = 0;
    s.ticks_executed = 0;
    s
}

/// Runs `app` in all three loop modes and asserts full equivalence; returns
/// `(cycles_skipped, compute_cycles_skipped)` of the full-skip run.
fn assert_equivalent(
    app: &AppSpec,
    sched: &SchedConfig,
    scale: f64,
    limits: SimLimits,
) -> (u64, u64) {
    let full = run(app, sched, scale, limits, Mode::Full);
    let idle = run(app, sched, scale, limits, Mode::IdleOnly);
    let slow = run(app, sched, scale, limits, Mode::Naive);
    let name = app.name;
    assert_eq!(
        slow.stats.cycles_skipped, 0,
        "{name}: naive loop must not skip"
    );
    assert_eq!(
        idle.stats.compute_cycles_skipped, 0,
        "{name}: idle-only mode must not take compute skips"
    );
    if !slow.hit_cycle_limit {
        // On a limit hit the final counted cycle is never executed, so the
        // exact partition below only holds for completed runs.
        assert_eq!(
            slow.stats.ticks_executed, slow.stats.core_cycles,
            "{name}: naive loop must execute every counted cycle"
        );
    }
    for (label, fast) in [("full", &full), ("idle-only", &idle)] {
        assert_eq!(
            fast.hit_cycle_limit, slow.hit_cycle_limit,
            "{name}/{label}: limit flag"
        );
        assert_eq!(fast.output, slow.output, "{name}/{label}: outputs differ");
        assert!(
            fast.trace == slow.trace,
            "{name}/{label}: DRAM traces differ"
        );
        assert_eq!(
            normalized(&fast.stats),
            normalized(&slow.stats),
            "{name}/{label}: statistics differ"
        );
        assert!(
            fast.stats.compute_cycles_skipped <= fast.stats.cycles_skipped,
            "{name}/{label}: compute skips must be a subset of all skips"
        );
        if !fast.hit_cycle_limit {
            assert_eq!(
                fast.stats.ticks_executed + fast.stats.cycles_skipped,
                fast.stats.core_cycles,
                "{name}/{label}: skip accounting must partition the core cycles"
            );
        }
    }
    assert_eq!(
        idle.stats.compute_skip_fraction(),
        0.0,
        "{name}: idle-only fraction"
    );
    let f = full.stats.compute_skip_fraction();
    assert!(
        (0.0..=1.0).contains(&f),
        "{name}: fraction {f} out of range"
    );
    (full.stats.cycles_skipped, full.stats.compute_cycles_skipped)
}

#[test]
fn whole_suite_static_dms_is_equivalent() {
    // Static-DMS creates the longest idle epochs — the adversarial case for
    // fast-forward correctness and the headline case for its speedup.
    let mut total_skipped = 0u64;
    let mut total_compute = 0u64;
    for app in all_apps() {
        let (skipped, compute) =
            assert_equivalent(&app, &SchedConfig::static_dms(), 0.02, SimLimits::default());
        total_skipped += skipped;
        total_compute += compute;
    }
    assert!(
        total_skipped > 0,
        "fast-forward never engaged across the suite"
    );
    assert!(
        total_compute > 0,
        "the analytic compute-burst skipper never engaged across the suite"
    );
}

#[test]
fn scheme_rotation_is_equivalent() {
    // Rotate every other scheme across the suite so each scheme sees
    // several apps and each app sees a second scheme.
    let schemes = [
        SchedConfig::baseline(),
        SchedConfig::dyn_dms(),
        SchedConfig::static_ams(),
        SchedConfig::dyn_ams(),
        SchedConfig::static_combo(),
        SchedConfig::dyn_combo(),
    ];
    for (i, app) in all_apps().into_iter().enumerate() {
        let sched = &schemes[i % schemes.len()];
        assert_equivalent(&app, sched, 0.02, SimLimits::default());
    }
}

#[test]
fn cycle_limit_hit_is_equivalent() {
    // A tight limit exercises the skip-past-the-limit clamp: all loops must
    // report the same truncated statistics and the limit flag.
    let app = lazydram::workloads::by_name("GEMM").expect("app");
    let limits = SimLimits {
        max_core_cycles: 2_000,
    };
    let fast = run(&app, &SchedConfig::static_dms(), 0.3, limits, Mode::Full);
    assert!(fast.hit_cycle_limit, "limit chosen too high for this check");
    assert_equivalent(&app, &SchedConfig::static_dms(), 0.3, limits);
}

/// Fields that differ between loop modes by construction: the config
/// digest (it covers the skipping switches), the skip counters, and a NoC
/// queue's per-cycle pop budget (`current_cycle`, `popped_this_cycle`). The
/// budget resets when the queue is next touched, which is after any pause,
/// so at a pause it is dead; a skip merely leaves it untouched for longer.
fn differs_by_mode(path: &str) -> bool {
    let noc = path.starts_with("rnoc[") || path.starts_with("pnoc[");
    path.ends_with("/cfg_digest")
        || path.ends_with("/cycles_skipped")
        || path.ends_with("/compute_cycles_skipped")
        || path.ends_with("/ticks_executed")
        || (noc && (path.ends_with("/current_cycle") || path.ends_with("/popped_this_cycle")))
}

/// The labelled dump of `app` paused at `at` under `mode`, without the
/// fields [`differs_by_mode`] names.
fn paused_fields(
    app: &AppSpec,
    sched: &SchedConfig,
    mode: Mode,
    at: u64,
) -> BTreeMap<String, String> {
    let run = SimBuilder::new(app)
        .sched(sched.clone(), "equiv")
        .scale(0.02)
        .trace(true)
        .cycle_skipping(mode != Mode::Naive)
        .compute_skipping(mode == Mode::Full)
        .build();
    let RunOutcome::Paused(ck) = run.run_until_labelled(at) else {
        panic!("{}: finished before cycle {at}", app.name);
    };
    ck.fields()
        .iter()
        .filter(|(path, _)| !differs_by_mode(path))
        .cloned()
        .collect()
}

#[test]
fn pauses_land_on_the_naive_loop_state() {
    // 2MM's later pause falls inside its second launch, so the completed
    // launch's statistics are in the dump too.
    for (name, sched) in [
        ("SLA", SchedConfig::static_dms()),
        ("GEMM", SchedConfig::static_dms()),
        ("2MM", SchedConfig::dyn_combo()),
    ] {
        let app = by_name(name).expect("app");
        let total = run(&app, &sched, 0.02, SimLimits::default(), Mode::Naive)
            .stats
            .core_cycles;
        for at in [total / 3, total * 2 / 3] {
            let naive = paused_fields(&app, &sched, Mode::Naive, at);
            assert!(naive.len() > 1000, "{name}: the dump has fields");
            for mode in [Mode::Full, Mode::IdleOnly] {
                let fast = paused_fields(&app, &sched, mode, at);
                let diff: Vec<&String> = naive
                    .iter()
                    .filter(|(k, v)| fast.get(*k) != Some(v))
                    .map(|(k, _)| k)
                    .chain(fast.keys().filter(|k| !naive.contains_key(*k)))
                    .take(5)
                    .collect();
                assert!(diff.is_empty(), "{name} at {at} ({mode:?}): {diff:?}");
            }
        }
    }
}
