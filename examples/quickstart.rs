//! Quickstart: run one GPGPU workload under the baseline FR-FCFS scheduler
//! and under the paper's headline `Dyn-DMS + Dyn-AMS` lazy scheduler, and
//! compare row energy, performance and output quality.
//!
//! ```text
//! cargo run --release --example quickstart [APP] [SCALE]
//! ```

use lazydram::energy::{EnergyModel, MemoryTech};
use lazydram::gpu::application_error;
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).cloned().unwrap_or_else(|| "meanfilter".into());
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let app = by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown app {name:?}; try GEMM, SCP, meanfilter, LPS, RAY …");
        std::process::exit(1);
    });
    let energy = EnergyModel::new(MemoryTech::Gddr5);

    println!("app {name} (group {}), scale {scale}\n", app.group);
    let base_run = SimBuilder::new(&app)
        .scheme(Scheme::Baseline)
        .scale(scale)
        .build();
    let exact = base_run.exact_output();

    let base = base_run.run();
    let base_row = energy.breakdown(&base.stats.dram).row_energy_pj;
    println!(
        "baseline         : {:>8} activations, Avg-RBL {:.2}, IPC {:.2}",
        base.stats.dram.activations,
        base.stats.dram.avg_rbl(),
        base.stats.ipc()
    );

    let lazy = SimBuilder::new(&app)
        .scheme(Scheme::DynCombo)
        .scale(scale)
        .build()
        .run();
    let lazy_row = energy.breakdown(&lazy.stats.dram).row_energy_pj;
    let err = application_error(&exact, &lazy.output);
    println!(
        "Dyn-DMS+Dyn-AMS  : {:>8} activations, Avg-RBL {:.2}, IPC {:.2}",
        lazy.stats.dram.activations,
        lazy.stats.dram.avg_rbl(),
        lazy.stats.ipc()
    );

    if lazy.stats.dram.coverage() == 0.0 {
        println!("\nnote: no requests were approximated — at small scales the run ends");
        println!("      inside the AMS warm-up / Dyn-DMS sampling windows; try scale ≥ 0.5");
    }
    println!(
        "\nrow energy       : {:.1}% of baseline",
        100.0 * lazy_row / base_row.max(1e-9)
    );
    println!(
        "performance      : {:.1}% of baseline IPC",
        100.0 * lazy.stats.ipc() / base.stats.ipc().max(1e-9)
    );
    println!(
        "coverage         : {:.1}% of global reads approximated",
        100.0 * lazy.stats.dram.coverage()
    );
    println!("application error: {:.2}%", 100.0 * err);
}
