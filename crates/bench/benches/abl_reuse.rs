//! Ablation (paper footnote 2): the simple no-reuse VP model vs the advanced
//! model that inserts approximated lines into L2 (error propagates through
//! reuse).

use lazydram_bench::{print_table, MeasureSpec, RunEnv, SimBuilder};
use lazydram_common::SchedConfig;
use lazydram_workloads::group;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let apps = [group(1), group(2), group(3)].concat();
    let runner = env.runner();
    let bases = runner.baselines(&apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for (label, sched) in [
            ("simple", SchedConfig::static_ams()),
            (
                "reuse",
                SchedConfig {
                    approx_reuse: true,
                    ..SchedConfig::static_ams()
                },
            ),
        ] {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(sched, label)
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut rows = Vec::new();
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut cells = vec![app.name.to_string()];
        let Ok(base) = base else {
            cells.extend(std::iter::repeat_n("FAIL".to_string(), 4));
            rows.push(cells);
            continue;
        };
        let base_acts = base.measurement.activations.max(1) as f64;
        for r in cursor.by_ref().take(2) {
            match r {
                Ok(m) => {
                    cells.push(format!("{:.3}", m.activations as f64 / base_acts));
                    cells.push(format!("{:.1}%", 100.0 * m.app_error));
                }
                Err(_) => {
                    cells.push("FAIL".to_string());
                    cells.push("FAIL".to_string());
                }
            }
        }
        rows.push(cells);
    }
    print_table(
        "Ablation (footnote 2): simple VP vs approx-reuse VP under Static-AMS",
        &[
            "app",
            "acts (simple)",
            "err (simple)",
            "acts (reuse)",
            "err (reuse)",
        ],
        &rows,
    );
}
