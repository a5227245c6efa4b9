//! Ablation: the headline scheme across the memory-backend matrix.
//!
//! Every [`DramPreset`] runs baseline vs `Dyn-DMS+Dyn-AMS` on the same
//! apps. The gddr5/hbm1/hbm2 rows share one banked model under three
//! organizations and timing packages: Section V's claim that the saving
//! is independent of the memory technology holds if their normalized
//! activation savings agree.

use lazydram_bench::{print_table, MeasureSpec, MemoryTech, RunEnv, Scheme, SimBuilder};
use lazydram_common::DramPreset;
use lazydram_workloads::by_name;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let apps: Vec<_> = ["SCP", "MVT", "meanfilter"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let runner = env.runner();
    // One baseline per (app, preset): the cache keys on the full config,
    // so each preset is its own cached cell.
    let mut bases = Vec::new();
    for preset in DramPreset::ALL {
        bases.push(runner.baselines(&apps, &preset.gpu_config(), scale));
    }
    let mut specs = Vec::new();
    for (t, preset) in DramPreset::ALL.into_iter().enumerate() {
        for (app, base) in apps.iter().zip(&bases[t]) {
            let Ok(base) = base else { continue };
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .preset(preset)
                    .scheme(Scheme::DynCombo)
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut rows = Vec::new();
    let mut cursor = results.iter();
    for (t, preset) in DramPreset::ALL.into_iter().enumerate() {
        let tech = MemoryTech::for_preset(preset);
        for (app, base) in apps.iter().zip(&bases[t]) {
            let row = match base {
                Ok(base) => {
                    let lazy = cursor.next().expect("one lazy run per ok baseline");
                    match lazy {
                        Ok(m) => vec![
                            app.name.to_string(),
                            preset.label().to_string(),
                            format!("{tech:?}"),
                            base.measurement.activations.to_string(),
                            format!(
                                "{:.3}",
                                m.activations as f64 / base.measurement.activations.max(1) as f64
                            ),
                            format!("{:.3}", m.ipc / base.measurement.ipc.max(1e-9)),
                            format!(
                                "{:.3}",
                                m.row_energy_pj / base.measurement.row_energy_pj.max(1e-9)
                            ),
                        ],
                        Err(_) => vec![
                            app.name.to_string(),
                            preset.label().to_string(),
                            format!("{tech:?}"),
                            base.measurement.activations.to_string(),
                            "FAIL".to_string(),
                            "FAIL".to_string(),
                            "FAIL".to_string(),
                        ],
                    }
                }
                Err(_) => vec![
                    app.name.to_string(),
                    preset.label().to_string(),
                    format!("{tech:?}"),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                ],
            };
            rows.push(row);
        }
    }
    print_table(
        "Ablation: Dyn-DMS+Dyn-AMS across the memory-backend matrix",
        &[
            "app",
            "backend",
            "energy tech",
            "base acts",
            "norm acts",
            "norm IPC",
            "norm rowE",
        ],
        &rows,
    );
}
