//! CUDA-SDK-style workloads: RAY (ray tracing), FWT (fast Walsh transform),
//! SCP (scalar products), SLA (scan of large arrays).

use crate::programs::{
    FwtConfig, FwtProgram, ScanConfig, ScanProgram, ScpConfig, ScpProgram, LANES,
};
use crate::util::{pow2_at_most, Region};
use lazydram_gpu::{Kernel, MemoryImage, OpBuf, Saver, WarpProgram};

// ---------------------------------------------------------------------------
// RAY
// ---------------------------------------------------------------------------

/// RAY — a small sphere-scene ray caster. Each pixel's primary ray is
/// intersected with every sphere; the closest hit produces a data-dependent
/// *scatter* read into a large environment map (the irradiance lookup of the
/// original benchmark), which is what makes RAY a high-thrashing workload.
pub struct Ray {
    w: usize,
    h: usize,
    nspheres: usize,
    env_words: usize,
    spheres: Region,
    env: Region,
    img: Region,
}

impl Ray {
    /// Creates a `w × h` render (width a multiple of 32) over an environment
    /// map of `env_words` floats.
    pub fn new(w: usize, h: usize, env_words: usize) -> Self {
        assert!(w.is_multiple_of(LANES));
        Self {
            w,
            h,
            nspheres: 8,
            env_words,
            spheres: Region::default(),
            env: Region::default(),
            img: Region::default(),
        }
    }
}

impl Kernel for Ray {
    fn name(&self) -> &str {
        "RAY"
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        // Spheres: (cx, cy, cz, r) each, placed in front of the camera.
        self.spheres = Region::alloc_smooth(mem, self.nspheres * 4, 0x5A7E, -1.0, 1.0);
        for s in 0..self.nspheres {
            let b = self.spheres.base + (s * 4 * 4) as u64;
            let cz = 2.0 + 0.5 * s as f32;
            mem.write_f32(b + 8, cz);
            let r = 0.25 + 0.05 * (s % 4) as f32;
            mem.write_f32(b + 12, r);
        }
        self.env = Region::alloc_smooth(mem, self.env_words, 0x5A7F, 0.0, 1.0);
        self.img = Region::alloc(mem, self.w * self.h);
    }

    fn total_warps(&self) -> usize {
        self.w * self.h / LANES
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        Box::new(RayProgram {
            k: RayParams {
                w: self.w,
                h: self.h,
                nspheres: self.nspheres,
                spheres: self.spheres.base,
                env: self.env.base,
                env_words: self.env_words,
                img: self.img.base,
            },
            warp_id,
            stage: RayStage::LoadSpheres,
            sphere_data: Vec::new(),
            env_idx: [0; LANES],
            base_shade: [0.0; LANES],
        })
    }

    fn approximable(&self, addr: u64) -> bool {
        // The environment map is annotated; sphere geometry is not (hitting
        // wrong geometry would be a structural error, cf. pointer safety).
        self.env.contains(addr)
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        self.img.read(mem)
    }
}

#[derive(Clone, Copy)]
struct RayParams {
    w: usize,
    h: usize,
    nspheres: usize,
    spheres: u64,
    env: u64,
    env_words: usize,
    img: u64,
}

enum RayStage {
    LoadSpheres,
    Intersect,
    LoadEnv,
    Store,
    Done,
}

struct RayProgram {
    k: RayParams,
    warp_id: usize,
    stage: RayStage,
    sphere_data: Vec<f32>,
    env_idx: [usize; LANES],
    base_shade: [f32; LANES],
}

impl WarpProgram for RayProgram {
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
        match self.stage {
            RayStage::LoadSpheres => {
                self.stage = RayStage::Intersect;
                out.begin_load().run(self.k.spheres, self.k.nspheres * 4);
            }
            RayStage::Intersect => {
                self.sphere_data.clear();
                self.sphere_data.extend_from_slice(loaded);
                // Per-lane primary ray through its pixel.
                let first_pixel = self.warp_id * LANES;
                for lane in 0..LANES {
                    let p = first_pixel + lane;
                    let (px, py) = (p % self.k.w, p / self.k.w);
                    let dx = (px as f32 / self.k.w as f32) * 2.0 - 1.0;
                    let dy = (py as f32 / self.k.h as f32) * 2.0 - 1.0;
                    let inv = 1.0 / (dx * dx + dy * dy + 1.0).sqrt();
                    let dir = [dx * inv, dy * inv, inv];
                    let mut best_t = f32::INFINITY;
                    let mut best_s = usize::MAX;
                    for s in 0..self.k.nspheres {
                        let c = &self.sphere_data[s * 4..s * 4 + 4];
                        let (r, oc) = (c[3], [c[0], c[1], c[2]]);
                        let b = oc[0] * dir[0] + oc[1] * dir[1] + oc[2] * dir[2];
                        let disc = b * b - (oc[0] * oc[0] + oc[1] * oc[1] + oc[2] * oc[2]) + r * r;
                        if disc > 0.0 {
                            let t = b - disc.sqrt();
                            if t > 0.0 && t < best_t {
                                best_t = t;
                                best_s = s;
                            }
                        }
                    }
                    if best_s == usize::MAX {
                        // Miss: environment lookup indexed by ray direction.
                        let u = ((dir[0] * 0.5 + 0.5) * 1021.0) as usize;
                        let v = ((dir[1] * 0.5 + 0.5) * 997.0) as usize;
                        self.env_idx[lane] = (u * 131 + v * 7919) % self.k.env_words;
                        self.base_shade[lane] = 0.1;
                    } else {
                        // Hit: irradiance lookup at a data-dependent address.
                        let hx = dir[0] * best_t;
                        let hy = dir[1] * best_t;
                        let key = (hx.to_bits() >> 8) as usize
                            ^ ((hy.to_bits() >> 6) as usize)
                            ^ (best_s * 0x9E37);
                        self.env_idx[lane] = key % self.k.env_words;
                        self.base_shade[lane] = 0.3 + 0.08 * best_s as f32;
                    }
                }
                self.stage = RayStage::LoadEnv;
                out.set_compute(64);
            }
            RayStage::LoadEnv => {
                self.stage = RayStage::Store;
                out.begin_load()
                    .extend((0..LANES).map(|lane| self.k.env + (self.env_idx[lane] * 4) as u64));
            }
            RayStage::Store => {
                let first_pixel = self.warp_id * LANES;
                let mut store = out.begin_store();
                for (lane, &env) in loaded.iter().enumerate().take(LANES) {
                    let color = (self.base_shade[lane] + 0.6 * env).min(1.0);
                    store.push(self.k.img + ((first_pixel + lane) * 4) as u64, color);
                }
                self.stage = RayStage::Done;
            }
            RayStage::Done => out.set_finished(),
        }
    }

    fn save_state(&self, s: &mut Saver) {
        s.u8(
            "stage",
            match self.stage {
                RayStage::LoadSpheres => 0,
                RayStage::Intersect => 1,
                RayStage::LoadEnv => 2,
                RayStage::Store => 3,
                RayStage::Done => 4,
            },
        );
        s.f32s("sphere_data", &self.sphere_data);
        s.seq("env_idx", self.env_idx.len());
        for &i in &self.env_idx {
            s.usize("i", i);
        }
        s.f32s("base_shade", &self.base_shade);
    }
}

// ---------------------------------------------------------------------------
// FWT / SCP / SLA
// ---------------------------------------------------------------------------

/// FWT — block-local fast Walsh–Hadamard transform, in place over global
/// memory (the batched-segment formulation of the SDK's fastWalshTransform).
pub struct Fwt {
    words: usize,
    segment: usize,
    data: Region,
}

impl Fwt {
    /// Creates a transform over `words` elements in segments of `segment`
    /// (both rounded to powers of two).
    pub fn new(words: usize, segment: usize) -> Self {
        let segment = pow2_at_most(segment, 64);
        let words = pow2_at_most(words, segment);
        Self {
            words,
            segment,
            data: Region::default(),
        }
    }
}

impl Kernel for Fwt {
    fn name(&self) -> &str {
        "FWT"
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        self.data = Region::alloc_smooth(mem, self.words, 0xF377, -1.0, 1.0);
    }

    fn total_warps(&self) -> usize {
        self.words / self.segment
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        Box::new(FwtProgram::new(
            warp_id,
            FwtConfig {
                data: self.data.base,
                segment: self.segment,
            },
        ))
    }

    fn approximable(&self, addr: u64) -> bool {
        // In-place data is both read and written; rows holding pending writes
        // are excluded by the AMS safety check at the controller, so the
        // annotation itself is safe.
        self.data.contains(addr)
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        self.data.read(mem)
    }
}

/// SCP — scalar products of vector pairs (one dot product per thread,
/// vectors strided in memory: the classic uncoalesced SDK access pattern).
pub struct Scp {
    pairs: usize,
    veclen: usize,
    a: Region,
    b: Region,
    out: Region,
}

impl Scp {
    /// Creates `pairs` dot products over `veclen`-element vectors.
    pub fn new(pairs: usize, veclen: usize) -> Self {
        Self {
            pairs,
            veclen,
            a: Region::default(),
            b: Region::default(),
            out: Region::default(),
        }
    }
}

impl Kernel for Scp {
    fn name(&self) -> &str {
        "SCP"
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        self.a = Region::alloc_smooth(mem, self.pairs * self.veclen, 0x5C91, 0.5, 1.5);
        self.b = Region::alloc_smooth(mem, self.pairs * self.veclen, 0x5C92, 0.5, 1.5);
        self.out = Region::alloc(mem, self.pairs);
    }

    fn total_warps(&self) -> usize {
        self.pairs.div_ceil(LANES)
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        Box::new(ScpProgram::new(
            warp_id,
            ScpConfig {
                a: self.a.base,
                b: self.b.base,
                out: self.out.base,
                veclen: self.veclen,
                pairs: self.pairs,
            },
        ))
    }

    fn approximable(&self, addr: u64) -> bool {
        self.a.contains(addr) || self.b.contains(addr)
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        self.out.read(mem)
    }
}

/// SLA — scan (inclusive prefix sum) of a large array in warp-local
/// segments: pure streaming loads and stores.
pub struct Sla {
    words: usize,
    segment: usize,
    input: Region,
    output_region: Region,
}

impl Sla {
    /// Creates a scan over `words` elements in segments of `segment`
    /// (a multiple of 32).
    pub fn new(words: usize, segment: usize) -> Self {
        assert!(segment.is_multiple_of(LANES));
        let words = words / segment * segment;
        Self {
            words,
            segment,
            input: Region::default(),
            output_region: Region::default(),
        }
    }
}

impl Kernel for Sla {
    fn name(&self) -> &str {
        "SLA"
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        self.input = Region::alloc_smooth(mem, self.words, 0x51A0, -1.0, 1.0);
        self.output_region = Region::alloc(mem, self.words);
    }

    fn total_warps(&self) -> usize {
        self.words / self.segment
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        Box::new(ScanProgram::new(
            warp_id,
            ScanConfig {
                input: self.input.base,
                output: self.output_region.base,
                segment: self.segment,
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

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_gpu::run_functional;

    #[test]
    fn ray_renders_bounded_colors() {
        let mut app = Ray::new(64, 32, 4096);
        let (out, _) = run_functional(&mut app);
        assert_eq!(out.len(), 64 * 32);
        assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // The scene must produce variation (hits and misses shade apart).
        let mn = out.iter().cloned().fold(f32::INFINITY, f32::min);
        let mx = out.iter().cloned().fold(0.0f32, f32::max);
        assert!(mx - mn > 0.1, "flat image: {mn}..{mx}");
    }

    #[test]
    fn fwt_preserves_energy() {
        // Walsh–Hadamard is orthogonal up to a factor: ‖Wx‖² = seg·‖x‖²
        // per segment.
        let mut app = Fwt::new(512, 128);
        let mut ref_img = MemoryImage::new();
        app.setup(&mut ref_img);
        let before = app.data.read(&ref_img);
        // Fresh run through the functional executor (new image, same seed).
        let mut app2 = Fwt::new(512, 128);
        let (after, _) = run_functional(&mut app2);
        for seg in 0..4 {
            let e_in: f32 = before[seg * 128..(seg + 1) * 128]
                .iter()
                .map(|v| v * v)
                .sum();
            let e_out: f32 = after[seg * 128..(seg + 1) * 128]
                .iter()
                .map(|v| v * v)
                .sum();
            assert!(
                (e_out - 128.0 * e_in).abs() / (128.0 * e_in) < 1e-3,
                "segment {seg}: {e_out} vs {}",
                128.0 * e_in
            );
        }
    }

    #[test]
    fn scp_matches_cpu_dots() {
        let mut app = Scp::new(64, 48);
        let (out, img) = run_functional(&mut app);
        let a = app.a.read(&img);
        let b = app.b.read(&img);
        for p in [0usize, 33, 63] {
            let expect: f32 = (0..48).map(|j| a[p * 48 + j] * b[p * 48 + j]).sum();
            assert!((out[p] - expect).abs() < 1e-3);
        }
    }

    #[test]
    fn sla_is_segmented_prefix_sum() {
        let mut app = Sla::new(256, 64);
        let (out, img) = run_functional(&mut app);
        let inp = app.input.read(&img);
        for seg in 0..4 {
            let mut acc = 0.0f32;
            for i in 0..64 {
                acc += inp[seg * 64 + i];
                assert!((out[seg * 64 + i] - acc).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn fwt_rounds_sizes_to_powers_of_two() {
        let f = Fwt::new(1000, 100);
        assert_eq!(f.segment, 64);
        assert_eq!(f.words, 512);
    }
}
