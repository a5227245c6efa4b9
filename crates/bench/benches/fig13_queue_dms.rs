//! Figure 13: effect of the pending-queue size on activations when the
//! maximum delay DMS(2048) is applied (normalized to the no-delay baseline
//! at queue size 128).

use lazydram_bench::{mean, print_table, MeasureSpec, RunEnv, SimBuilder};
use lazydram_common::{DmsMode, GpuConfig, SchedConfig};

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let apps = &env.apps;
    let sizes = [32usize, 64, 128, 256];
    let runner = env.runner();
    let cfg = env.preset.gpu_config();
    let bases = runner.baselines(apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for &q in &sizes {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(GpuConfig {
                        pending_queue_size: q,
                        ..cfg.clone()
                    })
                    .sched(
                        SchedConfig {
                            dms: DmsMode::Static(2048),
                            ..SchedConfig::baseline()
                        },
                        format!("DMS(2048)/q={q}"),
                    )
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut rows = Vec::new();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut cells = vec![app.name.to_string()];
        let Ok(base) = base else {
            cells.extend(sizes.iter().map(|_| "FAIL".to_string()));
            rows.push(cells);
            continue;
        };
        let base_acts = base.measurement.activations.max(1) as f64;
        for (i, r) in cursor.by_ref().take(sizes.len()).enumerate() {
            match r {
                Ok(m) => {
                    let norm = m.activations as f64 / base_acts;
                    cols[i].push(norm);
                    cells.push(format!("{norm:.3}"));
                }
                Err(_) => cells.push("FAIL".to_string()),
            }
        }
        rows.push(cells);
    }
    let mut mrow = vec!["MEAN".to_string()];
    for c in &cols {
        mrow.push(format!("{:.3}", mean(c)));
    }
    rows.push(mrow);
    let header: Vec<String> = std::iter::once("app".into())
        .chain(sizes.iter().map(|s| format!("q={s}")))
        .collect();
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Figure 13: activations under DMS(2048) vs queue size (normalized to baseline)",
        &hdr,
        &rows,
    );
}
