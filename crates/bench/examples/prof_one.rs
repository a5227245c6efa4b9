//! Profile one sweep cell: run a single app/scheme/scale combination
//! (min-of-3 wall clock) and print its host throughput, the simulator's
//! per-phase split and the SM visits dormancy skipped. The workhorse for
//! localizing hot-path regressions without running a whole benchmark.
//! Usage:
//!   cargo run --release -p lazydram-bench --features prof --example prof_one -- SLA baseline 0.2
//! The scheme is any `Scheme` label, e.g. `baseline` or `Dyn-DMS+Dyn-AMS`.
//! `Minst/s` is simulated warp instructions per wall-clock second of the
//! best run; the exact-output reference is not computed. Without
//! `--features prof` the phase and skipped-visit lines read zero.
use lazydram_bench::{Scheme, SimBuilder};
use lazydram_common::prof::Counter;
use lazydram_workloads::by_name;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let app = args.get(1).map(String::as_str).unwrap_or("SLA");
    let scheme = args.get(2).map(String::as_str).unwrap_or("baseline");
    let scale: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let scheme = Scheme::by_label(scheme).unwrap_or_else(|| panic!("unknown scheme {scheme}"));
    let spec = by_name(app).expect("known app");
    let run = SimBuilder::new(&spec).scheme(scheme).scale(scale).build();
    let mut best = f64::INFINITY;
    let mut stats = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = run.run();
        best = best.min(t0.elapsed().as_secs_f64());
        stats = Some(r.stats);
    }
    let stats = stats.unwrap();
    let minst_per_s = stats.instructions as f64 / best / 1e6;
    println!(
        "{app}/{scheme} scale={scale}: wall {best:.4}s, Minst/s {minst_per_s:.2}, cycles {}",
        stats.core_cycles
    );
    for p in lazydram_common::prof::Phase::ALL {
        println!("  {:<13} {:>9.4}s", p.name(), stats.prof.get(p));
    }
    for c in Counter::ALL {
        println!("  {:<18} {:>9}", c.name(), stats.prof.count(c));
    }
}
