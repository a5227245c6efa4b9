//! Figure 4: effect of the DMS delay on (a) row activations and (b) IPC,
//! both normalized to the no-delay baseline.

use lazydram_bench::{mean, print_table, MeasureSpec, RunEnv, SimBuilder};
use lazydram_common::{DmsMode, SchedConfig};

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let apps = &env.apps;
    let delays = [64u32, 128, 256, 512, 1024, 2048];
    let cfg = env.preset.gpu_config();
    let runner = env.runner();
    let bases = runner.baselines(apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for &x in &delays {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(
                        SchedConfig {
                            dms: DmsMode::Static(x),
                            ..SchedConfig::baseline()
                        },
                        format!("DMS({x})"),
                    )
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut act_rows = Vec::new();
    let mut ipc_rows = Vec::new();
    let mut act_cols: Vec<Vec<f64>> = vec![Vec::new(); delays.len()];
    let mut ipc_cols: Vec<Vec<f64>> = vec![Vec::new(); delays.len()];
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut acts = vec![app.name.to_string()];
        let mut ipcs = vec![app.name.to_string()];
        let Ok(base) = base else {
            acts.extend(delays.iter().map(|_| "FAIL".to_string()));
            ipcs.extend(delays.iter().map(|_| "FAIL".to_string()));
            act_rows.push(acts);
            ipc_rows.push(ipcs);
            continue;
        };
        for (i, r) in cursor.by_ref().take(delays.len()).enumerate() {
            match r {
                Ok(m) => {
                    let na = m.activations as f64 / base.measurement.activations.max(1) as f64;
                    let ni = m.ipc / base.measurement.ipc.max(1e-9);
                    act_cols[i].push(na);
                    ipc_cols[i].push(ni);
                    acts.push(format!("{na:.3}"));
                    ipcs.push(format!("{ni:.3}"));
                }
                Err(_) => {
                    acts.push("FAIL".to_string());
                    ipcs.push("FAIL".to_string());
                }
            }
        }
        act_rows.push(acts);
        ipc_rows.push(ipcs);
    }
    let mut mrow = vec!["MEAN".to_string()];
    for c in &act_cols {
        mrow.push(format!("{:.3}", mean(c)));
    }
    act_rows.push(mrow);
    let mut mrow = vec!["MEAN".to_string()];
    for c in &ipc_cols {
        mrow.push(format!("{:.3}", mean(c)));
    }
    ipc_rows.push(mrow);
    let header: Vec<String> = std::iter::once("app".into())
        .chain(delays.iter().map(|d| format!("DMS({d})")))
        .collect();
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    print_table(
        "Figure 4(a): activations vs delay (normalized to baseline)",
        &hdr,
        &act_rows,
    );
    print_table(
        "Figure 4(b): IPC vs delay (normalized to baseline)",
        &hdr,
        &ipc_rows,
    );
}
