//! Open-loop error envelope of trace replay: for every paper scheme, the
//! execution-driven run against a [`TraceSim`] replay of the app's baseline
//! request trace.
//!
//! ```text
//! dbg_trace envelope APP [SCALE]         replayed-vs-executed error per scheme
//! ```
//!
//! Default `SCALE 0.1`. Open-loop replay loses the closed-loop timing
//! feedback (a held row-miss lets warps keep issuing, so more requests for
//! the same row arrive before it opens), and the DRAM-side metrics differ
//! from the execution-driven run by tens of percent under the static
//! schemes (EXPERIMENTS.md, "Trace capture and replay"). This tool is the
//! source of those numbers. Capturing and replaying single traces is
//! `lazydram capture` / `lazydram replay`.

use lazydram_bench::{print_table, SimBuilder};
use lazydram_common::{GpuConfig, Scheme, SimStats};
use lazydram_energy::{EnergyModel, MemoryTech};
use lazydram_gpu::{Trace, TraceSim};
use lazydram_workloads::{by_name, AppSpec};

fn app_or_exit(name: &str) -> AppSpec {
    by_name(name).unwrap_or_else(|| {
        eprintln!("unknown app {name:?}");
        std::process::exit(2);
    })
}

fn parse_scale(args: &[String], at: usize) -> f64 {
    args.get(at).map_or(0.1, |s| {
        s.parse().unwrap_or_else(|e| {
            eprintln!("bad scale {s:?}: {e}");
            std::process::exit(2);
        })
    })
}

/// Captures the app's baseline request stream, which the envelope replays
/// under every paper scheme.
fn capture(app: &AppSpec, scale: f64) -> Trace {
    let r = SimBuilder::new(app).scheme(Scheme::Baseline).scale(scale).trace(true).build().run();
    r.trace.expect("capture enabled")
}

fn rel_err(replayed: f64, executed: f64) -> f64 {
    if executed == 0.0 {
        if replayed == 0.0 { 0.0 } else { f64::INFINITY }
    } else {
        (replayed - executed).abs() / executed
    }
}

fn row_energy(stats: &SimStats) -> f64 {
    EnergyModel::new(MemoryTech::Gddr5).breakdown(&stats.dram).row_energy_pj
}

/// The validation harness: for every paper scheme, compare the
/// execution-driven run against an open-loop replay of the baseline trace.
fn cmd_envelope(app: &AppSpec, scale: f64) {
    let cfg = GpuConfig::default();
    let trace = capture(app, scale);
    println!(
        "{}: replayed-vs-executed error envelope (scale {scale}, {} recorded requests)",
        app.name,
        trace.len()
    );
    let mut rows = Vec::new();
    let mut worst: f64 = 0.0;
    for scheme in Scheme::PAPER {
        let exec = SimBuilder::new(app).scheme(scheme).scale(scale).build().run().stats;
        let report = TraceSim::new(&cfg, &scheme.sched())
            .replay(&trace)
            .unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.unserved, 0, "replay must serve every request");
        let act = rel_err(report.stats.dram.activations as f64, exec.dram.activations as f64);
        let rbl = rel_err(report.stats.dram.avg_rbl(), exec.dram.avg_rbl());
        let nrg = rel_err(row_energy(&report.stats), row_energy(&exec));
        worst = worst.max(act).max(rbl).max(nrg);
        rows.push(vec![
            scheme.label().to_string(),
            exec.dram.activations.to_string(),
            report.stats.dram.activations.to_string(),
            format!("{:.1}%", 100.0 * act),
            format!("{:.1}%", 100.0 * rbl),
            format!("{:.1}%", 100.0 * nrg),
        ]);
    }
    print_table(
        &format!("{} open-loop error envelope", app.name),
        &["scheme", "exec acts", "replay acts", "act err", "rbl err", "energy err"],
        &rows,
    );
    println!("\nworst relative error across schemes/metrics: {:.1}%", 100.0 * worst);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("envelope") if args.len() >= 2 => {
            cmd_envelope(&app_or_exit(&args[1]), parse_scale(&args, 2));
        }
        _ => {
            eprintln!("usage: dbg_trace envelope APP [SCALE]");
            std::process::exit(2);
        }
    }
}
