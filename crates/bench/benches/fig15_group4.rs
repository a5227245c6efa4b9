//! Figure 15: delay-only mode for the low-error-tolerance applications
//! (Group 4): normalized row energy and IPC under Static-DMS and Dyn-DMS.

use lazydram_bench::{mean, print_table, MeasureSpec, RunEnv, Scheme, SimBuilder};
use lazydram_workloads::group;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let schemes = [Scheme::StaticDms, Scheme::DynDms];
    let apps = group(4);
    let runner = env.runner();
    let bases = runner.baselines(&apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for &scheme in &schemes {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .scheme(scheme)
                    .scale(scale),
                base.exact.clone(),
            ));
        }
    }
    let results = runner.measure_all(specs);

    let mut e_rows = Vec::new();
    let mut i_rows = Vec::new();
    let mut e_cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut i_cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut er = vec![app.name.to_string()];
        let mut ir = vec![app.name.to_string()];
        let Ok(base) = base else {
            er.extend(schemes.iter().map(|_| "FAIL".to_string()));
            ir.extend(schemes.iter().map(|_| "FAIL".to_string()));
            e_rows.push(er);
            i_rows.push(ir);
            continue;
        };
        for (i, r) in cursor.by_ref().take(schemes.len()).enumerate() {
            match r {
                Ok(m) => {
                    let ne = m.row_energy_pj / base.measurement.row_energy_pj.max(1e-9);
                    let ni = m.ipc / base.measurement.ipc.max(1e-9);
                    e_cols[i].push(ne);
                    i_cols[i].push(ni);
                    er.push(format!("{ne:.3}"));
                    ir.push(format!("{ni:.3}"));
                }
                Err(_) => {
                    er.push("FAIL".to_string());
                    ir.push("FAIL".to_string());
                }
            }
        }
        e_rows.push(er);
        i_rows.push(ir);
    }
    for (rows, cols) in [(&mut e_rows, &e_cols), (&mut i_rows, &i_cols)] {
        let mut mrow = vec!["MEAN".to_string()];
        for c in cols.iter() {
            mrow.push(format!("{:.3}", mean(c)));
        }
        rows.push(mrow);
    }
    print_table(
        "Figure 15(a): Group-4 normalized row energy (delay-only)",
        &["app", "Static-DMS", "Dyn-DMS"],
        &e_rows,
    );
    print_table(
        "Figure 15(b): Group-4 normalized IPC (delay-only)",
        &["app", "Static-DMS", "Dyn-DMS"],
        &i_rows,
    );
}
