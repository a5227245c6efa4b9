//! End-to-end invariants of the lazy scheduler across apps and schemes.

use lazydram::common::{GpuConfig, SchedConfig};
use lazydram::workloads::{all_apps, by_name, run_app};

const SCALE: f64 = 0.05;

#[test]
fn coverage_never_exceeds_cap_by_more_than_one_row() {
    // The cap is checked before each drop decision; one decision drops a
    // whole row (≤ Th_RBL requests), so the overshoot is bounded.
    let cfg = GpuConfig::default();
    for app in all_apps() {
        if !app.error_tolerant() {
            continue;
        }
        let sched = SchedConfig {
            ams_warmup_requests: 50,
            ..SchedConfig::static_ams()
        };
        let r = run_app(&app, &cfg, &sched, SCALE);
        let d = &r.stats.dram;
        let slack = 6.0 * 8.0 / d.global_reads_received.max(1) as f64; // 6 controllers × Th 8
        assert!(
            d.coverage() <= sched.coverage_cap + slack + 1e-9,
            "{}: coverage {:.3} exceeds cap",
            app.name,
            d.coverage()
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let app = by_name("LPS").expect("app");
    let cfg = GpuConfig::default();
    let sched = SchedConfig::dyn_combo();
    let a = run_app(&app, &cfg, &sched, SCALE);
    let b = run_app(&app, &cfg, &sched, SCALE);
    assert_eq!(a.stats.core_cycles, b.stats.core_cycles);
    assert_eq!(a.stats.dram.activations, b.stats.dram.activations);
    assert_eq!(a.stats.dram.dropped, b.stats.dram.dropped);
    assert_eq!(a.output, b.output);
}

#[test]
fn activations_equal_row_misses() {
    // Every activation serves exactly the requests counted as its row's
    // first access: activations == row misses (open-row policy).
    let cfg = GpuConfig::default();
    for name in ["GEMM", "SCP", "meanfilter"] {
        let app = by_name(name).expect("app");
        let r = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
        assert_eq!(
            r.stats.dram.activations, r.stats.dram.row_misses,
            "{name}: activations vs misses"
        );
    }
}

#[test]
fn rbl_histogram_accounts_every_served_request() {
    let cfg = GpuConfig::default();
    let app = by_name("CONS").expect("app");
    let r = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
    let d = &r.stats.dram;
    assert_eq!(
        d.rbl.requests(),
        d.served(),
        "histogram covers all requests"
    );
    assert_eq!(
        d.rbl.activations(),
        d.activations,
        "histogram covers all activations"
    );
}

#[test]
fn dropped_requests_are_never_served_by_dram() {
    let cfg = GpuConfig::default();
    let app = by_name("MVT").expect("app");
    let sched = SchedConfig {
        ams_warmup_requests: 0,
        ..SchedConfig::static_ams()
    };
    let r = run_app(&app, &cfg, &sched, SCALE);
    let d = &r.stats.dram;
    assert!(d.dropped > 0, "expected drops");
    assert_eq!(
        d.reads + d.writes + d.dropped,
        d.requests_received,
        "every request is either served or dropped"
    );
}

#[test]
fn baseline_never_approximates() {
    let cfg = GpuConfig::default();
    let app = by_name("RAY").expect("app");
    let r = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
    assert_eq!(r.stats.dram.dropped, 0);
    assert_eq!(r.stats.approximated_loads, 0);
    assert_eq!(r.stats.ams_accepts, 0);
}

#[test]
fn dyn_dms_delay_stays_in_bounds() {
    // Indirect check: Dyn-DMS must not blow IPC below the controller's
    // design envelope on a delay-sensitive app.
    let cfg = GpuConfig::default();
    let app = by_name("3MM").expect("app");
    let base = run_app(&app, &cfg, &SchedConfig::baseline(), 0.1);
    let dynd = run_app(&app, &cfg, &SchedConfig::dyn_dms(), 0.1);
    let ratio = dynd.stats.ipc() / base.stats.ipc().max(1e-9);
    assert!(
        ratio > 0.80,
        "Dyn-DMS degraded IPC to {ratio:.2} of baseline"
    );
}

#[test]
fn group4_apps_run_under_delay_only() {
    let cfg = GpuConfig::default();
    for app in lazydram::workloads::group(4).into_iter().take(3) {
        let r = run_app(&app, &cfg, &SchedConfig::static_dms(), SCALE);
        assert!(!r.hit_cycle_limit, "{} truncated", app.name);
        assert_eq!(
            r.stats.dram.dropped, 0,
            "{}: delay-only must not drop",
            app.name
        );
    }
}
