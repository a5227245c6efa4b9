//! Ablation (paper footnote 1): the 4096-cycle profiling window of the
//! dynamic schemes vs smaller and larger windows.

use lazydram_bench::{print_table, MeasureSpec, RunEnv, SimBuilder};
use lazydram_common::config::{DynAmsConfig, DynDmsConfig};
use lazydram_common::{AmsMode, DmsMode, SchedConfig};
use lazydram_workloads::by_name;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let windows = [1024u32, 4096, 16384];
    let apps: Vec<_> = ["SCP", "MVT", "3DCONV"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let runner = env.runner();
    let bases = runner.baselines(&apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for &window in &windows {
            let sched = SchedConfig {
                dms: DmsMode::Dynamic(DynDmsConfig {
                    window,
                    ..DynDmsConfig::default()
                }),
                ams: AmsMode::Dynamic(DynAmsConfig {
                    window,
                    ..DynAmsConfig::default()
                }),
                ..SchedConfig::baseline()
            };
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(sched, format!("window={window}"))
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut rows = Vec::new();
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else {
            rows.push(vec![
                app.name.to_string(),
                "-".to_string(),
                "FAIL".to_string(),
                "FAIL".to_string(),
                "FAIL".to_string(),
            ]);
            continue;
        };
        for (&window, r) in windows.iter().zip(cursor.by_ref().take(windows.len())) {
            rows.push(match r {
                Ok(m) => vec![
                    app.name.to_string(),
                    window.to_string(),
                    format!(
                        "{:.3}",
                        m.activations as f64 / base.measurement.activations.max(1) as f64
                    ),
                    format!("{:.3}", m.ipc / base.measurement.ipc.max(1e-9)),
                    format!("{:.1}%", 100.0 * m.coverage),
                ],
                Err(_) => vec![
                    app.name.to_string(),
                    window.to_string(),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                ],
            });
        }
    }
    print_table(
        "Ablation: Dyn-DMS+Dyn-AMS profiling-window size (paper: 4096)",
        &["app", "window", "norm acts", "norm IPC", "coverage"],
        &rows,
    );
}
