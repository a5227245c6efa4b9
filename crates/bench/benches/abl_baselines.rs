//! Ablation: scheduler baselines. How much row locality does the FR-FCFS +
//! open-page baseline already capture vs strict FCFS and closed-page, and
//! what the lazy scheduler adds on top.

use lazydram_bench::{mean, print_table, MeasureSpec, RunEnv, SimBuilder};
use lazydram_common::{Arbiter, RowPolicy, SchedConfig};
use lazydram_workloads::by_name;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    // "FR-FCFS+open" *is* the baseline scheduler — that column comes from the
    // cached baseline run instead of a duplicate simulation.
    let sweep: Vec<(&str, SchedConfig)> = vec![
        (
            "FCFS+open",
            SchedConfig {
                arbiter: Arbiter::Fcfs,
                ..SchedConfig::baseline()
            },
        ),
        (
            "FR-FCFS+closed",
            SchedConfig {
                row_policy: RowPolicy::Closed,
                ..SchedConfig::baseline()
            },
        ),
        ("lazy (Dyn+Dyn)", SchedConfig::dyn_combo()),
    ];
    let columns = [
        "FCFS+open",
        "FR-FCFS+closed",
        "FR-FCFS+open",
        "lazy (Dyn+Dyn)",
    ];
    let apps: Vec<_> = ["GEMM", "SCP", "CONS", "meanfilter", "MVT", "LPS"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let runner = env.runner();
    let bases = runner.baselines(&apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for (label, sched) in &sweep {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(sched.clone(), *label)
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut rows = Vec::new();
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); columns.len()];
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut cells = vec![app.name.to_string()];
        let Ok(base) = base else {
            cells.extend(columns.iter().map(|_| "FAIL".to_string()));
            rows.push(cells);
            continue;
        };
        let base_acts = base.measurement.activations.max(1) as f64;
        let sweep_res: Vec<_> = cursor.by_ref().take(sweep.len()).collect();
        // Column order: the two non-baseline variants, the baseline itself
        // (ratio 1.000 by construction), then the lazy scheme.
        let ordered = [
            sweep_res[0].as_ref().ok().map(|m| m.activations as f64),
            sweep_res[1].as_ref().ok().map(|m| m.activations as f64),
            Some(base.measurement.activations as f64),
            sweep_res[2].as_ref().ok().map(|m| m.activations as f64),
        ];
        for (i, acts) in ordered.iter().enumerate() {
            match acts {
                Some(a) => {
                    let v = a / base_acts;
                    cols[i].push(v);
                    cells.push(format!("{v:.3}"));
                }
                None => cells.push("FAIL".to_string()),
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
        .chain(columns.iter().map(|l| l.to_string()))
        .collect();
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Ablation: activations under scheduler baselines (normalized to FR-FCFS+open)",
        &hdr,
        &rows,
    );
}
