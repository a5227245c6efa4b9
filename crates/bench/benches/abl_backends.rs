//! Ablation: the headline scheme across the whole memory-backend matrix.
//!
//! The harness varies both the organization (the gddr5/hbm1/hbm2 rows share
//! one banked model, which is Section V's technology claim) and the *model
//! itself*: every [`DramPreset`] —
//! banked GDDR5/HBM, DDR4- and LPDDR4-class timing packages, the
//! bank-state-free Naive backend and the per-bank Flexible-Latency
//! backend — runs baseline vs `Dyn-DMS+Dyn-AMS` on the same apps. The
//! Section V claim generalizes if the normalized activation savings
//! survive on every backend; Naive is the control (no banks, so no row
//! locality to harvest — its "norm acts" column reads 1.000 by design).

use lazydram_bench::{
    print_table, scale_from_env, MeasureSpec, MemoryTech, Scheme, SimBuilder, SweepRunner,
};
use lazydram_common::DramPreset;
use lazydram_workloads::by_name;

fn main() {
    let scale = scale_from_env();
    let apps: Vec<_> = ["SCP", "MVT", "meanfilter"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let runner = SweepRunner::from_env();
    // One baseline per (app, preset): the cache keys on the full config
    // (backend kind included), so each backend is its own cached cell.
    let mut bases = Vec::new();
    for preset in DramPreset::ALL {
        bases.push(runner.baselines(&apps, &preset.gpu_config(), scale));
    }
    let mut specs = Vec::new();
    for (t, preset) in DramPreset::ALL.into_iter().enumerate() {
        for (app, base) in apps.iter().zip(&bases[t]) {
            let Ok(base) = base else { continue };
            specs.push(MeasureSpec::new(
                SimBuilder::new(app).preset(preset).scheme(Scheme::DynCombo).scale(scale),
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
                                m.activations as f64
                                    / base.measurement.activations.max(1) as f64
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
        &["app", "backend", "energy tech", "base acts", "norm acts", "norm IPC", "norm rowE"],
        &rows,
    );
}
