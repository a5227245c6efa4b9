//! Tables II-III: measured feature classification of every application —
//! thrashing level, delay tolerance (MTD), activation sensitivity, Th_RBL
//! sensitivity, and error tolerance, with the paper's thresholds.

use lazydram_bench::{
    print_table, JobResult, MeasureSpec, Measurement, RunEnv, Scheme, SimBuilder,
};
use lazydram_common::{AmsMode, DmsMode, SchedConfig};

const DELAYS: [u32; 5] = [128, 256, 512, 1024, 2048];
const THRESHOLDS: [u32; 4] = [8, 4, 2, 1];

fn class(x: f64, lo: f64, hi: f64) -> &'static str {
    if x < lo {
        "Low"
    } else if x < hi {
        "Medium"
    } else {
        "High"
    }
}

/// Builds one app's row from its baseline and its 10 sweep results
/// (5 delays, 4 thresholds, Static-AMS). Returns `None` if any run the
/// classification depends on failed.
fn classify(
    app_cell: String,
    group: u8,
    base: &Measurement,
    sweep: &[&JobResult<Measurement>],
) -> Option<Vec<String>> {
    let (delay_runs, rest) = sweep.split_at(DELAYS.len());
    let (th_runs, ams_run) = rest.split_at(THRESHOLDS.len());

    // Thrashing level: % of requests in rows with RBL(1-8).
    let h = &base.stats.dram.rbl;
    let req18: u64 = (1..=8).map(|k| k as u64 * h.count(k)).sum();
    let thrash = 100.0 * req18 as f64 / h.requests().max(1) as f64;

    // Delay tolerance: MTD = largest tested delay with ≤ 5 % IPC loss,
    // scanning upward and stopping at the first loss (as the paper does).
    let mut mtd = 0u32;
    for (&d, r) in DELAYS.iter().zip(delay_runs) {
        let m = r.as_ref().ok()?;
        if m.ipc >= 0.95 * base.ipc {
            mtd = d;
        } else {
            break;
        }
    }
    // Activation sensitivity: reduction at DMS(2048) (last delay run).
    let m2048 = delay_runs[DELAYS.len() - 1].as_ref().ok()?;
    let act_sens = 100.0 * (1.0 - m2048.activations as f64 / base.activations.max(1) as f64);

    // Th_RBL sensitivity: extra reduction of the best Th vs AMS(8).
    let mut best_acts = u64::MAX;
    let mut acts8 = u64::MAX;
    for (&th, r) in THRESHOLDS.iter().zip(th_runs) {
        let m = r.as_ref().ok()?;
        if th == 8 {
            acts8 = m.activations;
        }
        best_acts = best_acts.min(m.activations);
    }
    let th_sens = 100.0 * (acts8.saturating_sub(best_acts)) as f64 / base.activations.max(1) as f64;

    // Error tolerance: error at 10 % coverage (Static-AMS).
    let mams = ams_run[0].as_ref().ok()?;
    let err = 100.0 * mams.app_error;
    let err_class = if err >= 20.0 {
        "Low"
    } else if err >= 5.0 {
        "Medium"
    } else {
        "High"
    };

    Some(vec![
        app_cell,
        format!("g{group}"),
        format!("{thrash:.0}% {}", class(thrash, 3.0, 10.0)),
        format!("{mtd} {}", class(f64::from(mtd), 256.0, 1024.0)),
        format!("{act_sens:.0}% {}", class(act_sens, 10.0, 20.0)),
        format!(
            "{th_sens:.0}% {}",
            if th_sens < 5.0 { "Low" } else { "High" }
        ),
        format!("{err:.0}% {err_class} (cov {:.0}%)", 100.0 * mams.coverage),
    ])
}

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let apps = &env.apps;
    let runner = env.runner();
    let bases = runner.baselines(apps, &cfg, scale);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let Ok(base) = base else { continue };
        for &d in &DELAYS {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(
                        SchedConfig {
                            dms: DmsMode::Static(d),
                            ..SchedConfig::baseline()
                        },
                        format!("DMS({d})"),
                    )
                    .scale(scale),
                base.exact.clone(),
            ));
        }
        for &th in &THRESHOLDS {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
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
            ));
        }
        specs.push(MeasureSpec::new(
            SimBuilder::new(app)
                .gpu(cfg.clone())
                .scheme(Scheme::StaticAms)
                .scale(scale),
            base.exact.clone(),
        ));
    }
    let results = runner.measure_all(specs);

    let per_app = DELAYS.len() + THRESHOLDS.len() + 1;
    let mut rows = Vec::new();
    let mut cursor = results.iter();
    for (app, base) in apps.iter().zip(&bases) {
        let cell = app.name.to_string();
        match base {
            Ok(base) => {
                let sweep: Vec<_> = cursor.by_ref().take(per_app).collect();
                rows.push(
                    classify(cell.clone(), app.group, &base.measurement, &sweep).unwrap_or_else(
                        || {
                            let mut r = vec![cell, format!("g{}", app.group)];
                            r.extend(std::iter::repeat_n("FAIL".to_string(), 5));
                            r
                        },
                    ),
                );
            }
            Err(_) => {
                let mut r = vec![cell, format!("g{}", app.group)];
                r.extend(std::iter::repeat_n("FAIL".to_string(), 5));
                rows.push(r);
            }
        }
    }
    print_table(
        "Tables II-III: measured application features (value + class, paper thresholds)",
        &[
            "app",
            "grp",
            "thrashing",
            "MTD/delay-tol",
            "act-sens",
            "ThRBL-sens",
            "err-tol@10%",
        ],
        &rows,
    );
}
