//! Shared helpers for workload construction.

use lazydram_common::SplitMix64;
use lazydram_gpu::{run_launch_functional, Kernel, MemoryImage};

/// A named, line-aligned array in the memory image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Region {
    /// Base byte address.
    pub base: u64,
    /// Length in `f32` words.
    pub words: usize,
}

impl Region {
    /// Allocates a region of `words` `f32`s.
    pub fn alloc(mem: &mut MemoryImage, words: usize) -> Self {
        Self {
            base: mem.alloc(words),
            words,
        }
    }

    /// Allocates and fills with uniform values in `[lo, hi)`.
    pub fn alloc_random(mem: &mut MemoryImage, words: usize, seed: u64, lo: f32, hi: f32) -> Self {
        let r = Self::alloc(mem, words);
        let mut rng = SplitMix64::new(seed);
        for i in 0..words {
            mem.write_f32(r.base + i as u64 * 4, rng.range_f32(lo, hi));
        }
        r
    }

    /// Allocates and fills with a *spatially smooth* random field in
    /// `[lo, hi]`: a sum of two randomly-phased sinusoids plus 2 % noise.
    ///
    /// Real image/matrix/physics inputs are spatially correlated — exactly
    /// the property the paper's value predictor exploits ("nearby addresses
    /// may store similar values"). Neighbouring 128-byte lines differ by a
    /// few percent of the value range, so nearest-line prediction incurs
    /// small-but-nonzero error, as in the original workloads.
    pub fn alloc_smooth(mem: &mut MemoryImage, words: usize, seed: u64, lo: f32, hi: f32) -> Self {
        let r = Self::alloc(mem, words);
        let mut rng = SplitMix64::new(seed);
        let p1: f32 = rng.range_f32(0.0, std::f32::consts::TAU);
        let p2: f32 = rng.range_f32(0.0, std::f32::consts::TAU);
        let l1: f32 = rng.range_f32(3000.0, 6000.0);
        let l2: f32 = rng.range_f32(400.0, 800.0);
        let mid = 0.5 * (lo + hi);
        let amp = 0.5 * (hi - lo);
        for i in 0..words {
            let x = i as f32;
            let v = mid
                + amp
                    * (0.68 * (std::f32::consts::TAU * x / l1 + p1).sin()
                        + 0.28 * (std::f32::consts::TAU * x / l2 + p2).sin()
                        + 0.04 * rng.range_f32(-1.0, 1.0));
            mem.write_f32(r.base + i as u64 * 4, v.clamp(lo, hi));
        }
        r
    }

    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.words as u64 * 4
    }

    /// Reads the whole region into `out` (cleared first), reusing the
    /// buffer's capacity — the allocation-free path for repeated output
    /// snapshots.
    pub fn read_into(&self, mem: &MemoryImage, out: &mut Vec<f32>) {
        mem.read_slice_into(self.base, self.words, out);
    }

    /// Reads the whole region.
    pub fn read(&self, mem: &MemoryImage) -> Vec<f32> {
        let mut out = Vec::new();
        self.read_into(mem, &mut out);
        out
    }
}

/// Scales `base` by `scale` and rounds to a positive multiple of `quantum`.
pub fn scaled(base: usize, scale: f64, quantum: usize) -> usize {
    let raw = (base as f64 * scale).round() as usize;
    (raw / quantum).max(1) * quantum
}

/// Scales a linear dimension so total (2-D) work scales ≈ linearly with
/// `scale`; result is a positive multiple of `quantum`.
pub fn scaled_dim2(base: usize, scale: f64, quantum: usize) -> usize {
    scaled(base, scale.sqrt(), quantum)
}

/// Scales a linear dimension so total (3-D) work scales ≈ linearly.
pub fn scaled_dim3(base: usize, scale: f64, quantum: usize) -> usize {
    scaled(base, scale.cbrt(), quantum)
}

/// Executes a sequence of dependent kernel launches *functionally* on one
/// shared memory image (the reference counterpart of
/// `Simulator::run_sequence`) and returns the last launch's output.
///
/// # Panics
///
/// Panics if `kernels` is empty or a warp program never finishes.
pub fn run_sequence_functional(kernels: &mut [Box<dyn Kernel>]) -> Vec<f32> {
    assert!(!kernels.is_empty(), "need at least one launch");
    let mut image = MemoryImage::new();
    for k in kernels.iter_mut() {
        k.setup(&mut image);
        run_launch_functional(k.as_ref(), &mut image);
    }
    kernels.last().expect("non-empty").output(&image)
}

/// Rounds down to a power of two (≥ `min`).
pub fn pow2_at_most(x: usize, min: usize) -> usize {
    let mut p = min;
    while p * 2 <= x {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_alloc_and_contains() {
        let mut mem = MemoryImage::new();
        let r = Region::alloc(&mut mem, 10);
        assert!(r.contains(r.base));
        assert!(r.contains(r.base + 36));
        assert!(!r.contains(r.base + 40));
        assert!(!r.contains(r.base - 4));
    }

    #[test]
    fn region_random_is_deterministic_and_in_range() {
        let mut m1 = MemoryImage::new();
        let a = Region::alloc_random(&mut m1, 100, 42, -1.0, 1.0);
        let mut m2 = MemoryImage::new();
        let b = Region::alloc_random(&mut m2, 100, 42, -1.0, 1.0);
        assert_eq!(a.read(&m1), b.read(&m2));
        assert!(a.read(&m1).iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn scaling_helpers() {
        assert_eq!(scaled(512, 1.0, 32), 512);
        assert_eq!(scaled(512, 0.5, 32), 256);
        assert_eq!(scaled(512, 0.001, 32), 32, "floors at one quantum");
        assert_eq!(scaled_dim2(512, 0.25, 32), 256);
        assert_eq!(scaled_dim3(64, 0.125, 8), 32);
        assert_eq!(pow2_at_most(100, 8), 64);
        assert_eq!(pow2_at_most(5, 8), 8);
    }
}
