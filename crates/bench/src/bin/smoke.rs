//! Quick calibration binary: times one app per program shape at a given
//! scale and prints the key statistics, so bench scales can be tuned.
//!
//! `cargo run --release -p lazydram-bench --bin smoke -- [SCALE] [APP...]`
//!
//! The time is the baseline simulation alone (the exact-output reference
//! is computed first and not timed). `Minst/s` is host throughput in
//! simulated warp instructions per wall-clock second, so a per-app speed
//! change can be checked without the full benchmark. Built with
//! `--features prof`, it also prints the work dormancy skipped: SM visits
//! and memory-controller scheduling passes.

use lazydram_bench::{measure, Scheme, SimBuilder};
use lazydram_common::prof::Counter;
use lazydram_common::GpuConfig;
use lazydram_workloads::by_name;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.25);
    let names: Vec<String> = if args.len() > 2 {
        args[2..].to_vec()
    } else {
        vec!["CONS".into(), "GEMM".into(), "MVT".into(), "SCP".into(), "LPS".into(), "RAY".into()]
    };
    let cfg = GpuConfig::default();
    println!("scale = {scale}");
    for name in names {
        let app = by_name(&name).expect("known app");
        let run = SimBuilder::new(&app)
            .gpu(cfg.clone())
            .scheme(Scheme::Baseline)
            .scale(scale)
            .build();
        let exact = run.exact_output();
        let t0 = Instant::now();
        let m = measure(&run, &exact);
        let dt = t0.elapsed();
        let minst_per_s = m.stats.instructions as f64 / dt.as_secs_f64() / 1e6;
        println!(
            "{:>12}: {:>7.2?}  Minst/s={:>6.2} cycles={:>9} ipc={:>6.2} acts={:>8} avgRBL={:>5.2} reads={:>8} writes={:>8} l2miss={:>8} trunc={}",
            name, dt, minst_per_s, m.stats.core_cycles, m.ipc, m.activations, m.avg_rbl,
            m.stats.dram.reads, m.stats.dram.writes, m.stats.l2_misses, m.truncated
        );
        if !m.stats.prof.is_empty() {
            let skipped = Counter::ALL
                .iter()
                .map(|&c| format!("{}={}", c.name(), m.stats.prof.count(c)))
                .collect::<Vec<_>>()
                .join(" ");
            println!("{:>12}  dormancy: {skipped}", "");
        }
    }
}
