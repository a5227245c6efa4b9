//! Figure 12: the paper's headline result. Normalized row energy, IPC,
//! application error and coverage for all six schemes over the
//! error-tolerant applications (groups 1-3), plus the HBM1/HBM2
//! memory-system-energy projection of Section V.

use lazydram_bench::{mean, print_table, signed_change, MeasureSpec, RunEnv, Scheme, SimBuilder};
use lazydram_energy::{CardBudget, EnergyModel, MemoryTech};
use lazydram_workloads::all_apps;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let apps: Vec<_> = all_apps()
        .into_iter()
        .filter(|a| a.error_tolerant())
        .collect();
    let schemes = Scheme::PAPER;
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

    let mut energy_rows = Vec::new();
    let mut ipc_rows = Vec::new();
    let mut err_rows = Vec::new();
    let mut cov_rows = Vec::new();
    let mut energy_cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut ipc_cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut err_cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut cov_cols: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let mut er = vec![format!("{}(g{})", app.name, app.group)];
        let mut ir = er.clone();
        let mut xr = er.clone();
        let mut cr = er.clone();
        let Ok(base) = base else {
            for row in [&mut er, &mut ir, &mut xr, &mut cr] {
                row.extend(schemes.iter().map(|_| "FAIL".to_string()));
            }
            energy_rows.push(er);
            ipc_rows.push(ir);
            err_rows.push(xr);
            cov_rows.push(cr);
            continue;
        };
        for (i, r) in cursor.by_ref().take(schemes.len()).enumerate() {
            match r {
                Ok(m) => {
                    let ne = m.row_energy_pj / base.measurement.row_energy_pj.max(1e-9);
                    let ni = m.ipc / base.measurement.ipc.max(1e-9);
                    energy_cols[i].push(ne);
                    ipc_cols[i].push(ni);
                    err_cols[i].push(m.app_error);
                    cov_cols[i].push(m.coverage);
                    er.push(format!("{ne:.3}"));
                    ir.push(format!("{ni:.3}"));
                    xr.push(format!("{:.1}%", 100.0 * m.app_error));
                    cr.push(format!("{:.1}%", 100.0 * m.coverage));
                }
                Err(_) => {
                    for row in [&mut er, &mut ir, &mut xr, &mut cr] {
                        row.push("FAIL".to_string());
                    }
                }
            }
        }
        energy_rows.push(er);
        ipc_rows.push(ir);
        err_rows.push(xr);
        cov_rows.push(cr);
    }
    let header: Vec<String> = std::iter::once("app".to_string())
        .chain(schemes.iter().map(|s| s.label().to_string()))
        .collect();
    let hdr: Vec<&str> = header.iter().map(|s| s.as_str()).collect();

    for (title, rows, cols, pctfmt) in [
        (
            "Figure 12(a): normalized row energy",
            &mut energy_rows,
            &energy_cols,
            false,
        ),
        (
            "Figure 12(b): normalized IPC",
            &mut ipc_rows,
            &ipc_cols,
            false,
        ),
        (
            "Figure 12(c): application error",
            &mut err_rows,
            &err_cols,
            true,
        ),
        ("Figure 12(d): coverage", &mut cov_rows, &cov_cols, true),
    ] {
        let mut mrow = vec!["MEAN".to_string()];
        for c in cols {
            mrow.push(if pctfmt {
                format!("{:.1}%", 100.0 * mean(c))
            } else {
                format!("{:.3}", mean(c))
            });
        }
        rows.push(mrow);
        print_table(title, &hdr, rows);
    }

    // Section V: memory-system energy projection for the headline scheme.
    let combo_ratio = mean(&energy_cols[schemes.len() - 1]);
    println!("\n=== Section V: memory-system energy projection (Dyn-DMS+Dyn-AMS) ===");
    println!("mean row-energy ratio: {combo_ratio:.3} (paper: 0.56 → 44% reduction)");
    for tech in [MemoryTech::Hbm1, MemoryTech::Hbm2] {
        let model = EnergyModel::new(tech);
        let red = model.system_energy_reduction(combo_ratio);
        let budget = CardBudget::default();
        println!(
            "{tech:?}: memory-system energy {}  → {:.1} W saved at peak, or +{:.0} GB/s in a 60 W budget",
            signed_change(red),
            budget.power_saving_w(red),
            budget.bandwidth_headroom_gbs(red),
        );
    }
}
