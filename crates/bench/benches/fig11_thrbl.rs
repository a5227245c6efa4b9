//! Figure 11: effect of reducing Th_RBL on SCP — lower thresholds focus the
//! limited coverage on the lowest-RBL rows and remove more activations.

use lazydram_bench::{print_table, MeasureSpec, RunEnv, SimBuilder};
use lazydram_common::{AmsMode, SchedConfig};
use lazydram_workloads::by_name;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let runner = env.runner();
    let app = by_name("SCP").expect("app");
    let thresholds = [8u32, 4, 2, 1];
    let bases = runner.baselines(std::slice::from_ref(&app), &cfg, scale);
    let base = match &bases[0] {
        Ok(b) => b,
        Err(f) => {
            println!("Figure 11 (SCP): baseline FAILED — {}", f.message);
            return;
        }
    };
    let specs = thresholds
        .iter()
        .map(|&th| {
            MeasureSpec::new(
                SimBuilder::new(&app)
                    .gpu(cfg.clone())
                    .sched(
                        SchedConfig {
                            ams: AmsMode::Static(th),
                            ..SchedConfig::baseline()
                        },
                        format!("AMS({th})"),
                    )
                    .scale(scale),
                base.exact.clone(),
            )
        })
        .collect();
    let results = runner.measure_all(specs);

    let mut rows = Vec::new();
    for (&th, r) in thresholds.iter().zip(&results) {
        rows.push(match r {
            Ok(m) => vec![
                format!("AMS({th})"),
                format!(
                    "{:.3}",
                    m.activations as f64 / base.measurement.activations.max(1) as f64
                ),
                format!("{:.1}%", 100.0 * m.coverage),
                format!("{:.1}%", 100.0 * m.app_error),
            ],
            Err(_) => vec![
                format!("AMS({th})"),
                "FAIL".to_string(),
                "FAIL".to_string(),
                "FAIL".to_string(),
            ],
        });
    }
    print_table(
        "Figure 11 (SCP): normalized activations vs Th_RBL",
        &["scheme", "norm acts", "coverage", "app error"],
        &rows,
    );
    // The request-share of each RBL bucket at baseline, explaining why the
    // best threshold sits where it does (Figure 11(b)).
    let h = &base.measurement.stats.dram.rbl;
    let total = h.requests().max(1) as f64;
    println!("\nbaseline request share by activation RBL:");
    for (lo, hi, label) in [
        (1, 1, "RBL(1)"),
        (2, 8, "RBL(2-8)"),
        (9, u32::MAX - 1, "RBL(9+)"),
    ] {
        let req: u64 = (lo..=hi.min(h.max_rbl()))
            .map(|k| k as u64 * h.count(k))
            .sum();
        println!("  {label:>9}: {:.1}%", 100.0 * req as f64 / total);
    }
}
