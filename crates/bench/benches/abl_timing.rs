//! Ablation: timing-model fidelity. The paper's Table I timing set vs the
//! extended GDDR5 constraint set (`DramTimings::gddr5_extended`): the lazy
//! scheduler's activation reductions must survive the extra constraints.
//! Of those, bank-group tCCDL and periodic refresh bind; the profile's tFAW
//! of 23 never does, because four ACTs at tRRD 6 already span 18 cycles and
//! a fifth cannot issue before cycle 24.

use lazydram_bench::{print_table, MeasureSpec, RunEnv, Scheme, SimBuilder};
use lazydram_common::{DramTimings, GpuConfig};
use lazydram_workloads::by_name;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let timing_sets = [
        ("Table I", DramTimings::default()),
        ("extended", DramTimings::gddr5_extended()),
    ];
    let apps: Vec<_> = ["SCP", "MVT", "meanfilter", "CONS"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let runner = env.runner();
    let mut bases = Vec::new();
    for (_, timings) in &timing_sets {
        let cfg = GpuConfig {
            timings: *timings,
            ..GpuConfig::default()
        };
        bases.push((cfg.clone(), runner.baselines(&apps, &cfg, scale)));
    }
    let mut specs = Vec::new();
    for (cfg, tech_bases) in &bases {
        for (app, base) in apps.iter().zip(tech_bases) {
            let Ok(base) = base else { continue };
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .scheme(Scheme::DynCombo)
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut cursor = results.iter();
    let mut cells: Vec<Vec<Vec<String>>> = vec![Vec::new(); apps.len()];
    for (t, (tl, _)) in timing_sets.iter().enumerate() {
        for (a, (app, base)) in apps.iter().zip(&bases[t].1).enumerate() {
            let row = match base {
                Ok(base) => {
                    let lazy = cursor.next().expect("one lazy run per ok baseline");
                    match lazy {
                        Ok(m) => vec![
                            app.name.to_string(),
                            tl.to_string(),
                            base.measurement.activations.to_string(),
                            format!(
                                "{:.3}",
                                m.activations as f64 / base.measurement.activations.max(1) as f64
                            ),
                            format!("{:.3}", m.ipc / base.measurement.ipc.max(1e-9)),
                        ],
                        Err(_) => vec![
                            app.name.to_string(),
                            tl.to_string(),
                            base.measurement.activations.to_string(),
                            "FAIL".to_string(),
                            "FAIL".to_string(),
                        ],
                    }
                }
                Err(_) => vec![
                    app.name.to_string(),
                    tl.to_string(),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                ],
            };
            cells[a].push(row);
        }
    }
    let mut rows = Vec::new();
    for app_rows in cells {
        rows.extend(app_rows);
    }
    print_table(
        "Ablation: lazy-scheduler benefit under extended GDDR5 timing (tCCDL/refresh)",
        &[
            "app",
            "timing",
            "base acts",
            "lazy norm acts",
            "lazy norm IPC",
        ],
        &rows,
    );
}
