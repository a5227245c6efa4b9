//! Figure 2: effect of the FR-FCFS pending-queue size on the number of row
//! activations, normalized to the baseline size of 128.

use lazydram_bench::{mean, print_table, MeasureSpec, RunEnv, Scheme, SimBuilder};
use lazydram_common::GpuConfig;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let apps = &env.apps;
    let runner = env.runner();
    let cfg = env.preset.gpu_config();
    // q = 128 is the default config, i.e. exactly the cached baseline run.
    let sweep_sizes = [16usize, 32, 64, 256];
    let bases = runner.baselines(apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for &q in &sweep_sizes {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(GpuConfig {
                        pending_queue_size: q,
                        ..cfg.clone()
                    })
                    .sched(Scheme::Baseline.sched(), format!("q={q}"))
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let sizes = [16usize, 32, 64, 128, 256];
    let mut rows = Vec::new();
    let mut per_size: Vec<Vec<f64>> = vec![Vec::new(); sizes.len()];
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut cells = vec![app.name.to_string()];
        let Ok(base) = base else {
            cells.extend(sizes.iter().map(|_| "FAIL".to_string()));
            rows.push(cells);
            continue;
        };
        let norm_base = (base.measurement.activations as f64).max(1.0);
        // Columns q=16,32,64 from the sweep, q=128 from the baseline, q=256 last.
        let sweep: Vec<_> = cursor.by_ref().take(sweep_sizes.len()).collect();
        let mut col = 0;
        for (i, &q) in sizes.iter().enumerate() {
            let acts = if q == 128 {
                Some(base.measurement.activations as f64)
            } else {
                let r = sweep[col];
                col += 1;
                r.as_ref().ok().map(|m| m.activations as f64)
            };
            match acts {
                Some(a) => {
                    let norm = a / norm_base;
                    per_size[i].push(norm);
                    cells.push(format!("{norm:.3}"));
                }
                None => cells.push("FAIL".to_string()),
            }
        }
        rows.push(cells);
    }
    let mut avg = vec!["MEAN".to_string()];
    for v in &per_size {
        avg.push(format!("{:.3}", mean(v)));
    }
    rows.push(avg);
    let header: Vec<String> = std::iter::once("app".to_string())
        .chain(sizes.iter().map(|s| format!("q={s}")))
        .collect();
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Figure 2: activations vs pending-queue size (normalized to 128)",
        &hdr,
        &rows,
    );
}
