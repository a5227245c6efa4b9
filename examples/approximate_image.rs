//! Run the `laplacian` image-sharpening workload with approximate memory
//! scheduling and write before/after images (the Figure 14 experiment as a
//! library consumer would run it).
//!
//! ```text
//! cargo run --release --example approximate_image [SCALE] [OUT_DIR]
//! ```

use lazydram::gpu::application_error;
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};
use std::io::Write;

fn write_pgm(path: &str, pixels: &[f32], w: usize) -> std::io::Result<()> {
    let h = pixels.len() / w;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "P5\n{w} {h}\n255")?;
    f.write_all(
        &pixels
            .iter()
            .map(|&v| (v.clamp(0.0, 1.0) * 255.0) as u8)
            .collect::<Vec<_>>(),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(0.5);
    let out = args.get(2).cloned().unwrap_or_else(|| "target".into());
    let app = by_name("laplacian").expect("app");

    let lazy_run = SimBuilder::new(&app)
        .scheme(Scheme::DynCombo)
        .scale(scale)
        .build();
    let exact = lazy_run.exact_output();
    let lazy = lazy_run.run();
    let err = application_error(&exact, &lazy.output);
    let w = (exact.len() as f64).sqrt().round() as usize;

    write_pgm(&format!("{out}/laplacian_exact.pgm"), &exact, w).expect("write exact");
    write_pgm(&format!("{out}/laplacian_approx.pgm"), &lazy.output, w).expect("write approx");
    println!("laplacian {w}x{} sharpened image", exact.len() / w);
    println!(
        "coverage {:.1}%, application error {:.2}%",
        100.0 * lazy.stats.dram.coverage(),
        100.0 * err
    );
    println!(
        "row energy {:.1}% of baseline activations equivalent",
        100.0 * lazy.stats.dram.activations as f64
            / SimBuilder::new(&app)
                .scheme(Scheme::Baseline)
                .scale(scale)
                .build()
                .run()
                .stats
                .dram
                .activations
                .max(1) as f64
    );
    println!("images: {out}/laplacian_exact.pgm, {out}/laplacian_approx.pgm");
}
