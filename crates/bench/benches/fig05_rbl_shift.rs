//! Figure 5: distribution of row activations over RBL buckets as the DMS
//! delay grows, for two applications.

use lazydram_bench::{print_table, MeasureSpec, Measurement, RunEnv, SimBuilder};
use lazydram_common::{DmsMode, SchedConfig};
use lazydram_workloads::by_name;

const BUCKETS: [(u32, u32); 5] = [(1, 1), (2, 2), (3, 4), (5, 8), (9, u32::MAX - 1)];

fn bucket_cells(delay: u32, m: &Measurement) -> Vec<String> {
    let h = &m.stats.dram.rbl;
    let total = h.activations().max(1) as f64;
    let mut cells = vec![format!("delay={delay}")];
    for &(lo, hi) in &BUCKETS {
        cells.push(format!(
            "{:.1}%",
            100.0 * h.count_range(lo, hi) as f64 / total
        ));
    }
    cells.push(format!("{}", h.activations()));
    cells
}

fn fail_cells(delay: u32) -> Vec<String> {
    let mut cells = vec![format!("delay={delay}")];
    cells.extend(std::iter::repeat_n("FAIL".to_string(), BUCKETS.len() + 1));
    cells
}

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let runner = env.runner();
    let apps: Vec<_> = ["GEMM", "SCP"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let delays = [128u32, 512, 2048]; // delay = 0 is the cached baseline run
    let bases = runner.baselines(&apps, &cfg, scale);
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

    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut rows = Vec::new();
        match base {
            Ok(base) => {
                rows.push(bucket_cells(0, &base.measurement));
                for (&delay, r) in delays.iter().zip(cursor.by_ref().take(delays.len())) {
                    rows.push(match r {
                        Ok(m) => bucket_cells(delay, m),
                        Err(_) => fail_cells(delay),
                    });
                }
            }
            Err(_) => rows.push(fail_cells(0)),
        }
        print_table(
            &format!(
                "Figure 5 ({}): activation share per RBL bucket vs delay",
                app.name
            ),
            &[
                "delay",
                "RBL(1)",
                "RBL(2)",
                "RBL(3-4)",
                "RBL(5-8)",
                "RBL(9+)",
                "total acts",
            ],
            &rows,
        );
    }
}
