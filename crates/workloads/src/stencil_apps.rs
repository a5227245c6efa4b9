//! Stencil workloads: 3DCONV, CONS (1-D convolution), srad, LPS (3-D Laplace
//! solver), meanfilter, laplacian (image sharpening).
//!
//! All of these stream strips of rows through [`Stencil2DProgram`] /
//! [`Stencil3DProgram`]; their row-buffer behaviour differs through working
//! set size, tap shape, and how many warps contend at the memory controller.

use crate::programs::{Stencil2DConfig, Stencil2DProgram, Stencil3DConfig, Stencil3DProgram, LANES};
use crate::util::Region;
use lazydram_gpu::{Kernel, MemoryImage, WarpProgram};

/// Shared scaffolding for the 2-D stencil apps.
pub struct Stencil2DApp {
    name: &'static str,
    w: usize,
    h: usize,
    taps: Vec<(i32, i32, f32)>,
    compute: u32,
    strips_per_warp: usize,
    post: Option<fn(f32, f32) -> f32>,
    /// Synthetic-image generator (defaults to seeded random).
    init: InitKind,
    input: Region,
    output_region: Region,
}

enum InitKind {
    Random { seed: u64, lo: f32, hi: f32 },
    /// A viewable synthetic test image: gradient + circles (for Figure 14).
    TestImage,
}

impl Stencil2DApp {
    #[allow(clippy::too_many_arguments)]
    fn new(
        name: &'static str,
        w: usize,
        h: usize,
        taps: Vec<(i32, i32, f32)>,
        compute: u32,
        strips_per_warp: usize,
        post: Option<fn(f32, f32) -> f32>,
        init: InitKind,
    ) -> Self {
        assert!(w.is_multiple_of(LANES), "width must be a multiple of 32");
        Self {
            name,
            w,
            h,
            taps,
            compute,
            strips_per_warp,
            post,
            init,
            input: Region::default(),
            output_region: Region::default(),
        }
    }

    /// Image width.
    pub fn width(&self) -> usize {
        self.w
    }

    /// Image height.
    pub fn height(&self) -> usize {
        self.h
    }
}

impl Kernel for Stencil2DApp {
    fn name(&self) -> &str {
        self.name
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        let words = self.w * self.h;
        self.input = match self.init {
            InitKind::Random { seed, lo, hi } => Region::alloc_smooth(mem, words, seed, lo, hi),
            InitKind::TestImage => {
                let r = Region::alloc(mem, words);
                for y in 0..self.h {
                    for x in 0..self.w {
                        // Gradient plus two bright disks: structured content
                        // so sharpening output is visually meaningful.
                        let mut v = 0.3 + 0.4 * (x as f32 / self.w as f32);
                        let d1 = ((x as f32 - self.w as f32 * 0.3).powi(2)
                            + (y as f32 - self.h as f32 * 0.4).powi(2))
                        .sqrt();
                        let d2 = ((x as f32 - self.w as f32 * 0.7).powi(2)
                            + (y as f32 - self.h as f32 * 0.6).powi(2))
                        .sqrt();
                        if d1 < self.w as f32 * 0.12 {
                            v = 0.9;
                        }
                        if d2 < self.w as f32 * 0.18 {
                            v = 0.1 + 0.05 * ((x + y) % 7) as f32;
                        }
                        mem.write_f32(r.base + ((y * self.w + x) * 4) as u64, v);
                    }
                }
                r
            }
        };
        self.output_region = Region::alloc(mem, words);
    }

    fn total_warps(&self) -> usize {
        let strips = self.w / LANES * self.h;
        strips.div_ceil(self.strips_per_warp)
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        Box::new(Stencil2DProgram::new(
            warp_id,
            Stencil2DConfig {
                input: self.input.base,
                output: self.output_region.base,
                w: self.w,
                h: self.h,
                taps: self.taps.clone(),
                compute: self.compute,
                strips_per_warp: self.strips_per_warp,
                post: self.post,
            },
        ))
    }

    fn approximable(&self, addr: u64) -> bool {
        self.input.contains(addr)
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        self.output_region.read(mem)
    }
}

/// CONS — 1-D convolution (9-tap) over a long signal, modeled as a
/// single-row 2-D stencil.
pub fn cons(width: usize) -> Stencil2DApp {
    let taps: Vec<(i32, i32, f32)> = (-4..=4)
        .map(|dx| {
            let w = 0.2 * (1.0 - (dx as f32).abs() / 5.0);
            (0, dx, w)
        })
        .collect();
    Stencil2DApp::new(
        "CONS",
        width,
        1,
        taps,
        24,
        4,
        None,
        InitKind::Random { seed: 0xC025, lo: -1.0, hi: 1.0 },
    )
}

/// meanfilter — 3×3 box blur for noise reduction.
pub fn meanfilter(w: usize, h: usize) -> Stencil2DApp {
    let mut taps = Vec::new();
    for dy in -1..=1 {
        for dx in -1..=1 {
            taps.push((dy, dx, 1.0 / 9.0));
        }
    }
    Stencil2DApp::new(
        "meanfilter",
        w,
        h,
        taps,
        28,
        4,
        None,
        InitKind::Random { seed: 0x3EA7, lo: 0.0, hi: 1.0 },
    )
}

/// laplacian — 3×3 image sharpening (`5·c − N − S − E − W`), run on a
/// structured synthetic image so Figure 14's before/after comparison is
/// visually meaningful.
pub fn laplacian(w: usize, h: usize) -> Stencil2DApp {
    let taps = vec![
        (0, 0, 5.0),
        (-1, 0, -1.0),
        (1, 0, -1.0),
        (0, -1, -1.0),
        (0, 1, -1.0),
    ];
    Stencil2DApp::new("laplacian", w, h, taps, 24, 4, None, InitKind::TestImage)
}

/// srad — speckle-reducing anisotropic diffusion step: a 4-neighbour
/// Laplacian modulated by a nonlinear diffusion coefficient of the center.
pub fn srad(w: usize, h: usize) -> Stencil2DApp {
    fn diffuse(lap: f32, center: f32) -> f32 {
        // q ≈ |∇²I| / (1 + I): bounded nonlinear coefficient, then one
        // explicit diffusion update.
        let q = lap.abs() / (1.0 + center.abs());
        let c = 1.0 / (1.0 + q * q);
        center + 0.25 * c * lap
    }
    let taps = vec![
        (0, 0, -4.0),
        (-1, 0, 1.0),
        (1, 0, 1.0),
        (0, -1, 1.0),
        (0, 1, 1.0),
    ];
    Stencil2DApp::new(
        "srad",
        w,
        h,
        taps,
        40,
        4,
        Some(diffuse),
        InitKind::Random { seed: 0x52AD, lo: 0.0, hi: 2.0 },
    )
}

/// Shared scaffolding for the 3-D stencil apps.
pub struct Stencil3DApp {
    name: &'static str,
    w: usize,
    h: usize,
    d: usize,
    taps: Vec<(i32, i32, i32, f32)>,
    strips_per_warp: usize,
    seed: u64,
    range: (f32, f32),
    input: Region,
    output_region: Region,
}

impl Kernel for Stencil3DApp {
    fn name(&self) -> &str {
        self.name
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        let words = self.w * self.h * self.d;
        self.input = Region::alloc_smooth(mem, words, self.seed, self.range.0, self.range.1);
        self.output_region = Region::alloc(mem, words);
    }

    fn total_warps(&self) -> usize {
        let strips = self.w / LANES * self.h * self.d;
        strips.div_ceil(self.strips_per_warp)
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        Box::new(Stencil3DProgram::new(
            warp_id,
            Stencil3DConfig {
                input: self.input.base,
                output: self.output_region.base,
                w: self.w,
                h: self.h,
                d: self.d,
                taps: self.taps.clone(),
                strips_per_warp: self.strips_per_warp,
            },
        ))
    }

    fn approximable(&self, addr: u64) -> bool {
        self.input.contains(addr)
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        self.output_region.read(mem)
    }
}

/// 3DCONV — 3×3×3 convolution over a volume.
pub fn conv3d(w: usize, h: usize, d: usize) -> Stencil3DApp {
    let mut taps = Vec::new();
    for dz in -1..=1i32 {
        for dy in -1..=1i32 {
            for dx in -1..=1i32 {
                let dist = (dz.abs() + dy.abs() + dx.abs()) as f32;
                taps.push((dz, dy, dx, (4.0 - dist) / 54.0));
            }
        }
    }
    Stencil3DApp {
        name: "3DCONV",
        w,
        h,
        d,
        taps,
        strips_per_warp: 4,
        seed: 0x3DC0,
        range: (0.5, 2.5),
        input: Region::default(),
        output_region: Region::default(),
    }
}

/// LPS — one Jacobi sweep of a 3-D Laplace solver:
/// `u' = u + ω/6 · (Σ neighbours − 6u)`.
pub fn lps(w: usize, h: usize, d: usize) -> Stencil3DApp {
    let omega = 0.8f32;
    let mut taps = vec![(0, 0, 0, 1.0 - omega)];
    for (dz, dy, dx) in [
        (-1, 0, 0),
        (1, 0, 0),
        (0, -1, 0),
        (0, 1, 0),
        (0, 0, -1),
        (0, 0, 1),
    ] {
        taps.push((dz, dy, dx, omega / 6.0));
    }
    Stencil3DApp {
        name: "LPS",
        w,
        h,
        d,
        taps,
        strips_per_warp: 4,
        seed: 0x1A95,
        range: (1.0, 3.0),
        input: Region::default(),
        output_region: Region::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_gpu::run_functional;

    #[test]
    fn cons_convolves_signal() {
        let mut app = cons(1024);
        let (out, img) = run_functional(&mut app);
        assert_eq!(out.len(), 1024);
        // Interior sample: weighted sum of the 9-neighbourhood.
        let inp = app.input.read(&img);
        let x = 100usize;
        let expect: f32 = (-4i32..=4)
            .map(|dx| 0.2 * (1.0 - (dx as f32).abs() / 5.0) * inp[(x as i32 + dx) as usize])
            .sum();
        assert!((out[x] - expect).abs() < 1e-4);
    }

    #[test]
    fn meanfilter_averages() {
        let mut app = meanfilter(64, 8);
        let (out, img) = run_functional(&mut app);
        let inp = app.input.read(&img);
        let w = 64;
        let (x, y) = (10usize, 3usize);
        let mut expect = 0.0;
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                expect += inp[(y as i32 + dy) as usize * w + (x as i32 + dx) as usize] / 9.0;
            }
        }
        assert!((out[y * w + x] - expect).abs() < 1e-5);
        // A box blur of values in [0,1) stays in [0,1).
        assert!(out.iter().all(|&v| (0.0..1.0).contains(&v)));
    }

    #[test]
    fn laplacian_preserves_flat_regions() {
        let mut app = laplacian(64, 64);
        let (out, img) = run_functional(&mut app);
        // In a perfectly flat area, 5c − 4 neighbours = c.
        let inp = app.input.read(&img);
        let w = 64;
        // Find an interior pixel whose 4-neighbourhood is flat.
        let mut checked = false;
        for y in 1..63usize {
            for x in 1..63usize {
                let c = inp[y * w + x];
                if [inp[(y - 1) * w + x], inp[(y + 1) * w + x], inp[y * w + x - 1], inp[y * w + x + 1]]
                    .iter()
                    .all(|&v| (v - c).abs() < 1e-7)
                {
                    assert!((out[y * w + x] - c).abs() < 1e-5);
                    checked = true;
                }
            }
        }
        assert!(checked, "test image must contain a flat region");
    }

    #[test]
    fn srad_is_bounded_diffusion() {
        let mut app = srad(64, 16);
        let (out, _) = run_functional(&mut app);
        assert_eq!(out.len(), 64 * 16);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn conv3d_interior_matches_reference() {
        let mut app = conv3d(32, 6, 6);
        let (out, img) = run_functional(&mut app);
        let inp = app.input.read(&img);
        let (w, h) = (32usize, 6usize);
        let (x, y, z) = (16usize, 3usize, 3usize);
        let mut expect = 0.0;
        for dz in -1i32..=1 {
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let dist = (dz.abs() + dy.abs() + dx.abs()) as f32;
                    let idx = ((z as i32 + dz) as usize * h + (y as i32 + dy) as usize) * w
                        + (x as i32 + dx) as usize;
                    expect += (4.0 - dist) / 54.0 * inp[idx];
                }
            }
        }
        assert!((out[(z * h + y) * w + x] - expect).abs() < 1e-4);
    }

    #[test]
    fn lps_fixed_point_on_harmonic_input() {
        // A constant field is harmonic: the Jacobi update must leave it
        // unchanged (neighbour average equals the value itself).
        let mut app = lps(32, 4, 4);
        // Overwrite the random init with a constant field via setup-then-patch.
        let mut img = MemoryImage::new();
        app.setup(&mut img);
        for i in 0..app.input.words {
            img.write_f32(app.input.base + (i * 4) as u64, 2.5);
        }
        lazydram_gpu::run_launch_functional(&app, &mut img);
        let out = app.output(&img);
        assert!(out.iter().all(|&v| (v - 2.5).abs() < 1e-5));
    }

    #[test]
    fn warp_counts_cover_all_strips() {
        let app = meanfilter(64, 8);
        // 2 strips/row × 8 rows = 16 strips; 4 per warp → 4 warps.
        assert_eq!(app.total_warps(), 4);
        let app3 = conv3d(32, 4, 4);
        assert_eq!(app3.total_warps(), 4);
    }
}
