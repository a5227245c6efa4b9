//! Figure 6: cumulative distribution of row activations over requests sorted
//! by the RBL of their activation (read-only rows), for GEMM and 3MM.

use lazydram_bench::RunEnv;
use lazydram_workloads::by_name;

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let runner = env.runner();
    let apps: Vec<_> = ["GEMM", "3MM"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let bases = runner.baselines(&apps, &cfg, scale);
    for (app, base) in apps.iter().zip(&bases) {
        let name = app.name;
        println!("\n=== Figure 6 ({name}): cumulative activations vs requests (by RBL) ===");
        let base = match base {
            Ok(b) => b,
            Err(f) => {
                println!("FAILED: {}", f.message);
                continue;
            }
        };
        let d = &base.measurement.stats.dram;
        let all_req = d.served();
        let all_act = d.activations;
        println!(
            "total requests {all_req}, total activations {all_act}, read-only activations {}",
            d.rbl_read_only.activations()
        );
        println!("{:>6} {:>10} {:>10}", "RBL", "req-cum%", "act-cum%");
        for (x, y, rbl) in d.rbl_read_only.cumulative_curve(all_req, all_act) {
            println!("{:>6} {:>9.2}% {:>9.2}%", rbl, 100.0 * x, 100.0 * y);
        }
    }
}
