//! Memory-technology presets and alternative scheduler baselines, end to end.

use lazydram::common::{Arbiter, DramPreset, GpuConfig, RowPolicy, SchedConfig};
use lazydram::workloads::{by_name, run_app};

const SCALE: f64 = 0.05;

#[test]
fn backend_presets_run_and_preserve_outputs() {
    let app = by_name("meanfilter").expect("app");
    let exact = lazydram::workloads::exact_output(&app, SCALE);
    for preset in DramPreset::ALL {
        let r = run_app(&app, &preset.gpu_config(), &SchedConfig::baseline(), SCALE);
        assert!(!r.hit_cycle_limit, "{preset}");
        assert_eq!(
            r.output, exact,
            "{preset}: memory model must not change values"
        );
        assert!(r.stats.dram.activations > 0, "{preset}");
    }
}

/// The extended GDDR5 profile (tCCDL and refresh; its tFAW of 23 never
/// binds at tRRD 6) runs to completion without deadlock.
#[test]
fn extended_timing_profile_runs() {
    use lazydram::common::DramTimings;
    let app = by_name("CONS").expect("app");
    let cfg = GpuConfig {
        timings: DramTimings::gddr5_extended(),
        ..GpuConfig::default()
    };
    let r = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
    assert!(!r.hit_cycle_limit, "refresh must not deadlock");
    assert!(r.stats.dram.activations > 0);
}

#[test]
fn fcfs_baseline_is_no_better_than_frfcfs() {
    let app = by_name("CONS").expect("app");
    let cfg = GpuConfig::default();
    let frfcfs = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
    let fcfs = run_app(
        &app,
        &cfg,
        &SchedConfig {
            arbiter: Arbiter::Fcfs,
            ..SchedConfig::baseline()
        },
        SCALE,
    );
    assert_eq!(fcfs.output, frfcfs.output);
    assert!(
        fcfs.stats.dram.activations >= frfcfs.stats.dram.activations,
        "FCFS {} must not beat FR-FCFS {} on activations",
        fcfs.stats.dram.activations,
        frfcfs.stats.dram.activations
    );
}

#[test]
fn closed_page_never_beats_open_page_on_activations() {
    let app = by_name("meanfilter").expect("app");
    let cfg = GpuConfig::default();
    let open = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
    let closed = run_app(
        &app,
        &cfg,
        &SchedConfig {
            row_policy: RowPolicy::Closed,
            ..SchedConfig::baseline()
        },
        SCALE,
    );
    assert_eq!(closed.output, open.output);
    assert!(closed.stats.dram.activations >= open.stats.dram.activations);
}
