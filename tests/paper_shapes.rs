//! Coarse paper-shape assertions, small scale: the qualitative results the
//! reproduction stands on, checked in CI fashion.

use lazydram::common::{AmsMode, DmsMode, GpuConfig, SchedConfig};
use lazydram::workloads::{by_name, run_app};

const SCALE: f64 = 0.2;

/// Figure 4(a) shape: for a delay-sensitive app, a large static delay must
/// not *increase* activations materially, and some delay reduces them.
#[test]
fn delay_reduces_or_preserves_activations_for_sensitive_apps() {
    let cfg = GpuConfig::default();
    for name in ["MVT", "SCP"] {
        let app = by_name(name).expect("app");
        let base = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
        let mut best = u64::MAX;
        for d in [128u32, 256, 512] {
            let r = run_app(
                &app,
                &cfg,
                &SchedConfig {
                    dms: DmsMode::Static(d),
                    ..SchedConfig::baseline()
                },
                SCALE,
            );
            best = best.min(r.stats.dram.activations);
        }
        assert!(
            (best as f64) < 1.02 * base.stats.dram.activations as f64,
            "{name}: best delayed acts {best} vs baseline {}",
            base.stats.dram.activations
        );
    }
}

/// Figure 12 shape: AMS reduces activations and does not hurt IPC.
#[test]
fn ams_reduces_activations_without_ipc_loss() {
    let cfg = GpuConfig::default();
    for name in ["MVT", "SCP"] {
        let app = by_name(name).expect("app");
        let base = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
        let sched = SchedConfig {
            ams_warmup_requests: 100,
            ..SchedConfig::static_ams()
        };
        let ams = run_app(&app, &cfg, &sched, SCALE);
        assert!(
            ams.stats.dram.activations < base.stats.dram.activations,
            "{name}: AMS acts {} !< base {}",
            ams.stats.dram.activations,
            base.stats.dram.activations
        );
        assert!(
            ams.stats.ipc() > 0.97 * base.stats.ipc(),
            "{name}: AMS IPC fell to {:.2} of baseline",
            ams.stats.ipc() / base.stats.ipc()
        );
    }
}

/// Dyn-DMS shape: respects the BWUTIL-derived performance floor better than
/// an aggressive static delay on a delay-intolerant app.
#[test]
fn dyn_dms_protects_ipc_better_than_large_static_delay() {
    let cfg = GpuConfig::default();
    let app = by_name("3MM").expect("app");
    let base = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
    let aggressive = run_app(
        &app,
        &cfg,
        &SchedConfig {
            dms: DmsMode::Static(1024),
            ..SchedConfig::baseline()
        },
        SCALE,
    );
    let dynd = run_app(&app, &cfg, &SchedConfig::dyn_dms(), SCALE);
    let ipc_static = aggressive.stats.ipc() / base.stats.ipc();
    let ipc_dyn = dynd.stats.ipc() / base.stats.ipc();
    assert!(
        ipc_dyn > ipc_static,
        "Dyn-DMS IPC ratio {ipc_dyn:.3} must beat Static(1024) {ipc_static:.3}"
    );
}

/// Figure 11 direction: every threshold reduces SCP activations (the
/// magnitude ordering across thresholds is scale-sensitive and measured by
/// the `fig11_thrbl` harness at evaluation scale instead).
#[test]
fn every_threshold_reduces_scp_activations() {
    let cfg = GpuConfig::default();
    let app = by_name("SCP").expect("app");
    let base = run_app(&app, &cfg, &SchedConfig::baseline(), SCALE);
    for th in [8u32, 4, 1] {
        let sched = SchedConfig {
            ams: AmsMode::Static(th),
            ams_warmup_requests: 100,
            ..SchedConfig::baseline()
        };
        let r = run_app(&app, &cfg, &sched, SCALE);
        assert!(
            r.stats.dram.activations < base.stats.dram.activations,
            "Th={th}: acts {} !< base {}",
            r.stats.dram.activations,
            base.stats.dram.activations
        );
        assert!(r.stats.dram.coverage() > 0.0, "Th={th}: no drops");
    }
}

/// Figure 2 shape: shrinking the pending queue to 16 entries costs row
/// locality on a thrashing app.
#[test]
fn tiny_queue_increases_activations() {
    let app = by_name("CONS").expect("app");
    let big = run_app(&app, &GpuConfig::default(), &SchedConfig::baseline(), SCALE);
    let small_cfg = GpuConfig {
        pending_queue_size: 16,
        ..GpuConfig::default()
    };
    let small = run_app(&app, &small_cfg, &SchedConfig::baseline(), SCALE);
    assert!(
        small.stats.dram.activations as f64 > 0.98 * big.stats.dram.activations as f64,
        "queue 16 acts {} vs queue 128 acts {}",
        small.stats.dram.activations,
        big.stats.dram.activations
    );
}
