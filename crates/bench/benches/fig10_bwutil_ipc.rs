//! Figure 10: IPC and DRAM bandwidth utilization are linearly correlated —
//! the observation Dyn-DMS relies on to profile performance locally at the
//! memory controller.

use lazydram_bench::{bw_util, print_table, MeasureSpec, Measurement, RunEnv, SimBuilder};
use lazydram_common::{DmsMode, SchedConfig};

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let apps = &env.apps;
    let cfg = env.preset.gpu_config();
    let runner = env.runner();
    let delays = [256u32, 1024]; // delay = 0 is the cached baseline run
    let bases = runner.baselines(apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for &delay in &delays {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(
                        SchedConfig {
                            dms: DmsMode::Static(delay),
                            ..SchedConfig::baseline()
                        },
                        format!("DMS({delay})"),
                    )
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut rows = Vec::new();
    let mut corrs = Vec::new();
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut samples: Vec<(u32, Option<&Measurement>)> = Vec::new();
        match base {
            Ok(b) => {
                samples.push((0, Some(&b.measurement)));
                for (&delay, r) in delays.iter().zip(cursor.by_ref().take(delays.len())) {
                    samples.push((delay, r.as_ref().ok()));
                }
            }
            Err(_) => samples.push((0, None)),
        }
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (delay, m) in &samples {
            match m {
                Some(m) => {
                    let bw = bw_util(&m.stats, cfg.num_channels);
                    rows.push(vec![
                        app.name.to_string(),
                        delay.to_string(),
                        format!("{:.4}", bw),
                        format!("{:.3}", m.ipc),
                    ]);
                    xs.push(bw);
                    ys.push(m.ipc);
                }
                None => rows.push(vec![
                    app.name.to_string(),
                    delay.to_string(),
                    "FAIL".to_string(),
                    "FAIL".to_string(),
                ]),
            }
        }
        // Per-app correlation of (BWUTIL, IPC) across the three delays.
        if xs.len() == 3 {
            let mx = xs.iter().sum::<f64>() / 3.0;
            let my = ys.iter().sum::<f64>() / 3.0;
            let cov: f64 = xs.iter().zip(&ys).map(|(a, b)| (a - mx) * (b - my)).sum();
            let vx: f64 = xs.iter().map(|a| (a - mx).powi(2)).sum();
            let vy: f64 = ys.iter().map(|b| (b - my).powi(2)).sum();
            if vx > 1e-12 && vy > 1e-12 {
                corrs.push(cov / (vx.sqrt() * vy.sqrt()));
            }
        }
    }
    print_table(
        "Figure 10: BWUTIL vs IPC samples (baseline + two delays per app)",
        &["app", "delay", "BWUTIL", "IPC"],
        &rows,
    );
    let avg = corrs.iter().sum::<f64>() / corrs.len().max(1) as f64;
    println!("\nmean per-app Pearson correlation of BWUTIL and IPC: {avg:.3} (paper: linear)");
}
