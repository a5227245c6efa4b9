//! Sweep the static DMS delay for one application and print the
//! activation / IPC / energy trade-off curve (a per-app slice of Figure 4),
//! with the GDDR5 / HBM1 / HBM2 energy projections.
//!
//! The delay points run in parallel on the sweep runner (`LAZYDRAM_JOBS`
//! workers, default: all cores).
//!
//! ```text
//! cargo run --release --example energy_explorer [APP] [SCALE]
//! ```

use lazydram::common::{DmsMode, GpuConfig, SchedConfig};
use lazydram::energy::{EnergyModel, MemoryTech};
use lazydram::workloads::by_name;
use lazydram_bench::{MeasureSpec, RunEnv, SimBuilder};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).cloned().unwrap_or_else(|| "SCP".into());
    let scale: f64 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let app = by_name(&name).expect("known app");
    let cfg = GpuConfig::default();
    let runner = RunEnv::load().runner();

    let base = runner.baseline(&app, &cfg, scale);
    let base_acts = base.measurement.activations.max(1) as f64;
    let base_ipc = base.measurement.ipc.max(1e-9);
    let delays = [64u32, 128, 256, 512, 1024, 2048]; // delay = 0 is the baseline
    let specs = delays
        .iter()
        .map(|&delay| {
            MeasureSpec::new(
                SimBuilder::new(&app)
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
            )
        })
        .collect();
    let results = runner.measure_all(specs);

    println!(
        "{name}: baseline {} activations, IPC {base_ipc:.2}\n",
        base.measurement.activations
    );
    println!(
        "{:>9} {:>10} {:>9} {:>11} {:>11} {:>11}",
        "delay", "norm acts", "norm IPC", "GDDR5 -E%", "HBM1 -E%", "HBM2 -E%"
    );
    let print_point = |delay: u32, na: f64, ni: f64| {
        let mut cells = format!("{delay:>9} {na:>10.3} {ni:>9.3}");
        for tech in [MemoryTech::Gddr5, MemoryTech::Hbm1, MemoryTech::Hbm2] {
            let red = EnergyModel::new(tech).system_energy_reduction(na);
            cells += &format!(" {:>10.1}%", 100.0 * red);
        }
        println!("{cells}");
    };
    print_point(0, 1.0, 1.0);
    for (&delay, r) in delays.iter().zip(&results) {
        match r {
            Ok(m) => print_point(delay, m.activations as f64 / base_acts, m.ipc / base_ipc),
            Err(f) => println!("{delay:>9} FAILED: {}", f.message),
        }
    }
    println!("\n(-E% = projected memory-system energy reduction from the row-energy ratio)");
}
