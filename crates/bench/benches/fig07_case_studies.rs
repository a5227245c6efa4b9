//! Figure 7: how AMS helps DMS — LPS (delay-insensitive activations) and
//! SCP (performance-limited delay) case studies.

use lazydram_bench::{print_table, MeasureSpec, RunEnv, SimBuilder};
use lazydram_common::{AmsMode, DmsMode, SchedConfig};
use lazydram_workloads::by_name;

type Case = (&'static str, DmsMode, AmsMode);

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let runner = env.runner();
    let studies: Vec<(&str, Vec<Case>)> = vec![
        (
            "LPS",
            vec![
                ("DMS(256)", DmsMode::Static(256), AmsMode::Off),
                ("DMS(512)", DmsMode::Static(512), AmsMode::Off),
                ("AMS(8)", DmsMode::Off, AmsMode::Static(8)),
            ],
        ),
        (
            "SCP",
            vec![
                ("DMS(128)", DmsMode::Static(128), AmsMode::Off),
                ("DMS(256)", DmsMode::Static(256), AmsMode::Off),
                ("AMS(8)", DmsMode::Off, AmsMode::Static(8)),
                ("DMS(256)+AMS(8)", DmsMode::Static(256), AmsMode::Static(8)),
            ],
        ),
    ];
    let apps: Vec<_> = studies
        .iter()
        .map(|(n, _)| by_name(n).expect("app"))
        .collect();
    let bases = runner.baselines(&apps, &cfg, scale);
    let mut specs = Vec::new();
    for ((app, base), (_, cases)) in apps.iter().zip(&bases).zip(&studies) {
        let Ok(base) = base else { continue };
        for (label, dms, ams) in cases {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(
                        SchedConfig {
                            dms: *dms,
                            ams: *ams,
                            ..SchedConfig::baseline()
                        },
                        *label,
                    )
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut cursor = results.iter();
    for ((app, base), (_, cases)) in apps.iter().zip(&bases).zip(&studies) {
        let mut rows = Vec::new();
        match base {
            Ok(base) => {
                for ((label, _, _), r) in cases.iter().zip(cursor.by_ref().take(cases.len())) {
                    rows.push(match r {
                        Ok(m) => vec![
                            (*label).to_string(),
                            format!(
                                "{:.3}",
                                m.activations as f64 / base.measurement.activations.max(1) as f64
                            ),
                            format!("{:.3}", m.ipc / base.measurement.ipc.max(1e-9)),
                            format!("{:.1}%", 100.0 * m.coverage),
                            format!("{:.1}%", 100.0 * m.app_error),
                        ],
                        Err(_) => vec![(*label).to_string(); 1]
                            .into_iter()
                            .chain(std::iter::repeat_n("FAIL".to_string(), 4))
                            .collect(),
                    });
                }
            }
            Err(f) => rows.push(vec![
                "baseline".to_string(),
                format!("FAILED: {}", f.message),
                String::new(),
                String::new(),
                String::new(),
            ]),
        }
        print_table(
            &format!("Figure 7 ({}): AMS helps DMS", app.name),
            &["scheme", "norm acts", "norm IPC", "coverage", "app error"],
            &rows,
        );
    }
}
