//! Figure 14: visual output-quality comparison for `laplacian` — writes the
//! exact and the approximated (Dyn-DMS + Dyn-AMS) output images as PGM
//! files and reports the application error.

use lazydram_bench::{Job, RunEnv, Scheme, SimBuilder};
use lazydram_gpu::application_error;
use lazydram_workloads::{by_name, exact_output};

fn write_pgm(path: &str, pixels: &[f32], w: usize) -> std::io::Result<()> {
    use std::io::Write;
    let h = pixels.len() / w;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "P5\n{w} {h}\n255")?;
    let bytes: Vec<u8> = pixels
        .iter()
        .map(|&v| (v.clamp(0.0, 1.0) * 255.0) as u8)
        .collect();
    f.write_all(&bytes)
}

fn main() {
    let env = RunEnv::load();
    let scale = env.scale;
    let cfg = env.preset.gpu_config();
    let app = by_name("laplacian").expect("app");
    let runner = env.runner();
    // The exact (functional) output and the approximated run are independent —
    // compute both in parallel, each isolated against panics.
    let exact_job = {
        let app = app.clone();
        Job::new("laplacian/exact", move || {
            (exact_output(&app, scale), 0.0f64)
        })
    };
    let lazy_job = {
        let app = app.clone();
        let cfg = cfg.clone();
        Job::new("laplacian/Dyn-DMS+Dyn-AMS", move || {
            let r = SimBuilder::new(&app)
                .gpu(cfg)
                .scheme(Scheme::DynCombo)
                .scale(scale)
                .build()
                .run();
            let coverage = r.stats.dram.coverage();
            (r.output, coverage)
        })
    };
    let mut results = runner.run(vec![exact_job, lazy_job]);
    let lazy = results.pop().expect("lazy job");
    let exact = results.pop().expect("exact job");
    let ((exact, _), (lazy_out, coverage)) = match (exact, lazy) {
        (Ok(e), Ok(l)) => (e, l),
        (Err(f), _) | (_, Err(f)) => {
            println!("Figure 14 (laplacian): FAILED — {}", f.message);
            return;
        }
    };
    let err = application_error(&exact, &lazy_out);
    // The image is square at any scale (w == h in the builder).
    let w = (exact.len() as f64).sqrt().round() as usize;
    let dir = env.out_dir.display();
    std::fs::create_dir_all(&env.out_dir).expect("create LAZYDRAM_OUT dir");
    let exact_path = format!("{dir}/fig14_laplacian_exact.pgm");
    let approx_path = format!("{dir}/fig14_laplacian_approx.pgm");
    write_pgm(&exact_path, &exact, w).expect("write exact image");
    write_pgm(&approx_path, &lazy_out, w).expect("write approx image");
    println!("=== Figure 14 (laplacian): output quality under Dyn-DMS+Dyn-AMS ===");
    println!(
        "application error: {:.1}%  coverage: {:.1}%",
        100.0 * err,
        100.0 * coverage
    );
    println!("images written: {exact_path} (exact), {approx_path} (approximated)");
}
