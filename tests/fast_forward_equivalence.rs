//! The fast loop must be invisible in results. Every case runs a
//! configuration twice: on the fast loop (SM dormancy, the default) and on
//! the reference loop (`SimBuilder::reference_loop`: every SM visited every
//! cycle). In both loops every controller runs one scheduling pass per
//! memory cycle. Both loops execute every cycle, and they must produce
//! bit-identical output, statistics, DRAM trace, measurement JSON and
//! paused-state fields. Only the dump's configuration digest may differ.
//!
//! Every machine and scheme at random pause points is checked in
//! `tests/dormancy_equivalence.rs`.

mod equiv;

use equiv::{assert_same_run, both, differs_by_mode, field_diff, paused_fields};
use lazydram::bench::measure;
use lazydram::common::{DmsMode, SchedConfig};
use lazydram::gpu::SimLimits;
use lazydram::workloads::{all_apps, by_name, AppSpec};
use lazydram::SimBuilder;

fn equiv_builder(app: &AppSpec, sched: &SchedConfig, scale: f64, limits: SimLimits) -> SimBuilder {
    SimBuilder::new(app)
        .sched(sched.clone(), "equiv")
        .scale(scale)
        .limits(limits)
        .trace(true)
}

/// Runs `app` on both loops and asserts full equivalence.
fn assert_equivalent(app: &AppSpec, sched: &SchedConfig, scale: f64, limits: SimLimits) {
    let (fast, reference) = both(equiv_builder(app, sched, scale, limits));
    assert_same_run(app.name, &fast.run(), &reference.run());
}

#[test]
fn whole_suite_static_dms_is_equivalent() {
    // Static-DMS creates the longest stall epochs, where the most SMs
    // sleep.
    for app in all_apps() {
        assert_equivalent(&app, &SchedConfig::static_dms(), 0.02, SimLimits::default());
    }
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
    // A tight limit stops both loops mid-run: they must report the same
    // truncated statistics and the limit flag.
    let app = by_name("GEMM").expect("app");
    let limits = SimLimits {
        max_core_cycles: 2_000,
    };
    let sched = SchedConfig::static_dms();
    let fast = equiv_builder(&app, &sched, 0.3, limits).build().run();
    assert!(fast.hit_cycle_limit, "limit chosen too high for this check");
    assert_equivalent(&app, &sched, 0.3, limits);
}

#[test]
fn differs_by_mode_names_only_the_loop_fields() {
    assert!(differs_by_mode("meta[0]/cfg_digest"));
    for path in [
        "meta[0]/cycle",
        "stat[1]/core_cycles",
        "stat[1]/ticks_executed",
        "stat[1]/cycles_skipped",
        "mach[1]/core_cycle",
        "mc[0]/cfg_digest",
    ] {
        assert!(!differs_by_mode(path), "{path}");
    }
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
        let (fast, reference) = both(equiv_builder(&app, &sched, 0.02, SimLimits::default()));
        let total = reference.run().stats.core_cycles;
        for at in [total / 3, total * 2 / 3] {
            let want = paused_fields(&reference, at).expect("paused");
            assert!(want.len() > 1000, "{name}: the dump has fields");
            let got = paused_fields(&fast, at).expect("paused");
            let diff = field_diff(&want, &got);
            assert!(diff.is_empty(), "{name} at {at}: {diff:?}");
        }
    }
}

/// The delays `benches/fig04_delay_sweep.rs` sweeps.
const FIG04_DELAYS: [u32; 6] = [64, 128, 256, 512, 1024, 2048];

/// SCP's fig04 cells at scale 0.05 (the baseline and the DMS delay sweep)
/// as measurement JSON.
fn fig04_scp_cells(reference_loop: bool) -> Vec<String> {
    let app = by_name("SCP").expect("SCP is a suite app");
    let mut scheds = vec![(SchedConfig::baseline(), "baseline".to_string())];
    scheds.extend(FIG04_DELAYS.iter().map(|&x| {
        (
            SchedConfig {
                dms: DmsMode::Static(x),
                ..SchedConfig::baseline()
            },
            format!("DMS({x})"),
        )
    }));
    let mut exact = None;
    scheds
        .into_iter()
        .map(|(sched, label)| {
            let run = SimBuilder::new(&app)
                .sched(sched, label)
                .scale(0.05)
                .reference_loop(reference_loop)
                .build();
            let exact = exact.get_or_insert_with(|| run.exact_output());
            let m = measure(&run, exact);
            assert!(!m.truncated, "{} hit the cycle limit", m.scheme);
            m.to_json()
        })
        .collect()
}

#[test]
fn fig04_scp_cells_are_equivalent() {
    assert_eq!(fig04_scp_cells(false), fig04_scp_cells(true));
}
