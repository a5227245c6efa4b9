//! PolyBench workloads: GEMM, 2MM, 3MM, MVT, ATAX, BICG.
//!
//! The matrix products use the tiled [`MatmulProgram`]; the matrix-vector
//! kernels use [`MatVecProgram`] in the orientations of the original CUDA
//! codes (row-per-thread for `A·x`, column-per-thread for `Aᵀ·x`), which is
//! what gives MVT/ATAX/BICG their high row-thrashing first pass.
//!
//! Multi-kernel apps (2MM, 3MM, MVT, ATAX, BICG) are sequences of dependent
//! launches sharing one memory image; bases are communicated between launches
//! through a shared cell, exactly like consecutive CUDA kernel launches
//! share device pointers.

use crate::programs::{
    MatVecConfig, MatVecOrientation, MatVecProgram, MatmulConfig, MatmulProgram, LANES,
};
use crate::util::Region;
use lazydram_gpu::{Kernel, MemoryImage, WarpProgram};
use std::cell::RefCell;
use std::rc::Rc;

/// Shared base-address cell between dependent launches of one app.
pub(crate) type Shared<T> = Rc<RefCell<T>>;

/// Builds a [`Shared`] cell.
pub(crate) fn shared<T>(v: T) -> Shared<T> {
    Rc::new(RefCell::new(v))
}

// ---------------------------------------------------------------------------
// GEMM
// ---------------------------------------------------------------------------

/// One dense matrix product `C = A × B` (`n × n`).
pub struct Gemm {
    n: usize,
    name: &'static str,
    /// Input value range; zero-mean ranges give cancellation-prone outputs
    /// (low error tolerance), positive ranges give robust ones.
    range: (f32, f32),
    /// Which array this launch reads as `A` / `B` / writes as `C`; filled in
    /// `setup` (single-launch case) or injected by the owning app.
    st: Shared<GemmArrays>,
    /// When `false`, `setup` expects arrays to already exist (later launch
    /// of a multi-launch app).
    allocates: bool,
    seed: u64,
}

/// The three arrays of one matrix-product launch.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmArrays {
    /// Left operand.
    pub a: Region,
    /// Right operand.
    pub b: Region,
    /// Product.
    pub c: Region,
}

impl Gemm {
    /// Standalone GEMM of dimension `n` (multiple of 32).
    pub fn new(n: usize) -> Self {
        assert!(n.is_multiple_of(LANES), "n must be a multiple of 32");
        Self {
            n,
            name: "GEMM",
            range: (-1.0, 1.0),
            st: shared(GemmArrays::default()),
            allocates: true,
            seed: 0xA11CE,
        }
    }

    /// A launch that allocates fresh inputs and writes `c` (used as the first
    /// launch of 2MM/3MM).
    pub(crate) fn launch_fresh(
        name: &'static str,
        n: usize,
        st: Shared<GemmArrays>,
        seed: u64,
        range: (f32, f32),
    ) -> Self {
        Self {
            n,
            name,
            range,
            st,
            allocates: true,
            seed,
        }
    }

    /// A launch over pre-existing arrays (later launches of 2MM/3MM).
    pub(crate) fn launch_over(name: &'static str, n: usize, st: Shared<GemmArrays>) -> Self {
        Self {
            n,
            name,
            range: (0.0, 1.0),
            st,
            allocates: false,
            seed: 0,
        }
    }
}

impl Kernel for Gemm {
    fn name(&self) -> &str {
        self.name
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        if self.allocates {
            let n2 = self.n * self.n;
            let (lo, hi) = self.range;
            let a = Region::alloc_smooth(mem, n2, self.seed, lo, hi);
            let b = Region::alloc_smooth(mem, n2, self.seed + 1, lo, hi);
            let c = Region::alloc(mem, n2);
            *self.st.borrow_mut() = GemmArrays { a, b, c };
        }
    }

    fn total_warps(&self) -> usize {
        self.n * self.n / LANES
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        let st = self.st.borrow();
        Box::new(MatmulProgram::new(
            warp_id,
            MatmulConfig {
                a: st.a.base,
                b: st.b.base,
                c: st.c.base,
                n: self.n,
                alpha: 1.0,
            },
        ))
    }

    fn approximable(&self, addr: u64) -> bool {
        let st = self.st.borrow();
        st.a.contains(addr) || st.b.contains(addr)
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        self.st.borrow().c.read(mem)
    }
}

/// Builds the 2MM app: `D = A × B`, then `E = D × C`.
pub fn two_mm(n: usize) -> Vec<Box<dyn Kernel>> {
    // Launch 1 allocates A, B and writes D; launch 2 allocates C lazily by
    // reusing the fresh-allocation path with its own cell, then rewires.
    let st1: Shared<GemmArrays> = shared(GemmArrays::default());
    let st2: Shared<GemmArrays> = shared(GemmArrays::default());
    struct Wire {
        inner: Gemm,
        from: Shared<GemmArrays>,
        seed: u64,
        n: usize,
    }
    impl Kernel for Wire {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn setup(&mut self, mem: &mut MemoryImage) {
            // D (the previous product) becomes this launch's A; allocate a
            // fresh right operand and output.
            let d = self.from.borrow().c;
            let n2 = self.n * self.n;
            let c = Region::alloc_smooth(mem, n2, self.seed, -1.0, 1.0);
            let e = Region::alloc(mem, n2);
            *self.inner.st.borrow_mut() = GemmArrays { a: d, b: c, c: e };
        }
        fn total_warps(&self) -> usize {
            self.inner.total_warps()
        }
        fn program(&self, w: usize) -> Box<dyn WarpProgram> {
            self.inner.program(w)
        }
        fn approximable(&self, addr: u64) -> bool {
            self.inner.approximable(addr)
        }
        fn output(&self, mem: &MemoryImage) -> Vec<f32> {
            self.inner.output(mem)
        }
    }
    vec![
        Box::new(Gemm::launch_fresh(
            "2MM",
            n,
            st1.clone(),
            0x2A11,
            (-1.0, 1.0),
        )),
        Box::new(Wire {
            inner: Gemm::launch_over("2MM", n, st2),
            from: st1,
            seed: 0x2A12,
            n,
        }),
    ]
}

/// Builds the 3MM app: `E = A × B`, `F = C × D`, `G = E × F`.
pub fn three_mm(n: usize) -> Vec<Box<dyn Kernel>> {
    let st1: Shared<GemmArrays> = shared(GemmArrays::default());
    let st2: Shared<GemmArrays> = shared(GemmArrays::default());
    let st3: Shared<GemmArrays> = shared(GemmArrays::default());
    struct Join {
        inner: Gemm,
        left: Shared<GemmArrays>,
        right: Shared<GemmArrays>,
        n: usize,
    }
    impl Kernel for Join {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn setup(&mut self, mem: &mut MemoryImage) {
            let e = self.left.borrow().c;
            let f = self.right.borrow().c;
            let g = Region::alloc(mem, self.n * self.n);
            *self.inner.st.borrow_mut() = GemmArrays { a: e, b: f, c: g };
        }
        fn total_warps(&self) -> usize {
            self.inner.total_warps()
        }
        fn program(&self, w: usize) -> Box<dyn WarpProgram> {
            self.inner.program(w)
        }
        fn approximable(&self, addr: u64) -> bool {
            self.inner.approximable(addr)
        }
        fn output(&self, mem: &MemoryImage) -> Vec<f32> {
            self.inner.output(mem)
        }
    }
    vec![
        Box::new(Gemm::launch_fresh(
            "3MM",
            n,
            st1.clone(),
            0x3A11,
            (0.1, 1.1),
        )),
        Box::new(Gemm::launch_fresh(
            "3MM",
            n,
            st2.clone(),
            0x3A21,
            (0.1, 1.1),
        )),
        Box::new(Join {
            inner: Gemm::launch_over("3MM", n, st3),
            left: st1,
            right: st2,
            n,
        }),
    ]
}

// ---------------------------------------------------------------------------
// Matrix-vector apps
// ---------------------------------------------------------------------------

/// Arrays shared by the matrix-vector apps.
#[derive(Debug, Clone, Copy, Default)]
struct MvArrays {
    a: Region,
    x1: Region,
    x2: Region,
    y1: Region,
    y2: Region,
}

/// One matrix-vector launch.
struct MvLaunch {
    name: &'static str,
    n: usize,
    st: Shared<MvArrays>,
    range: (f32, f32),
    orientation: MatVecOrientation,
    /// `true` for the first launch, which allocates everything.
    allocates: bool,
    /// Whether this launch reads `x2`/writes `y2` (second pass).
    second: bool,
    /// Output = concatenation of both result vectors?
    concat_output: bool,
    seed: u64,
}

impl Kernel for MvLaunch {
    fn name(&self) -> &str {
        self.name
    }

    fn setup(&mut self, mem: &mut MemoryImage) {
        if self.allocates {
            let n = self.n;
            let (lo, hi) = self.range;
            let a = Region::alloc_smooth(mem, n * n, self.seed, lo, hi);
            let x1 = Region::alloc_smooth(mem, n, self.seed + 1, lo, hi);
            let x2 = Region::alloc_smooth(mem, n, self.seed + 2, lo, hi);
            let y1 = Region::alloc(mem, n);
            let y2 = Region::alloc(mem, n);
            *self.st.borrow_mut() = MvArrays { a, x1, x2, y1, y2 };
        }
    }

    fn total_warps(&self) -> usize {
        self.n / LANES
    }

    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram> {
        let st = self.st.borrow();
        let (x, y) = if self.second {
            (st.x2, st.y2)
        } else {
            (st.x1, st.y1)
        };
        Box::new(MatVecProgram::new(
            warp_id,
            MatVecConfig {
                a: st.a.base,
                x: x.base,
                y: y.base,
                n: self.n,
                orientation: self.orientation,
                accumulate: false,
            },
        ))
    }

    fn approximable(&self, addr: u64) -> bool {
        let st = self.st.borrow();
        st.a.contains(addr) || st.x1.contains(addr) || st.x2.contains(addr)
    }

    fn output(&self, mem: &MemoryImage) -> Vec<f32> {
        let st = self.st.borrow();
        if self.concat_output {
            let mut out = st.y1.read(mem);
            out.extend(st.y2.read(mem));
            out
        } else {
            st.y2.read(mem)
        }
    }
}

/// Builds MVT: `y1 = A·x1` (row-thrashing) then `y2 = Aᵀ·x2` (coalesced);
/// output is the concatenation of both vectors.
pub fn mvt(n: usize) -> Vec<Box<dyn Kernel>> {
    let st: Shared<MvArrays> = shared(MvArrays::default());
    vec![
        Box::new(MvLaunch {
            name: "MVT",
            n,
            st: st.clone(),
            range: (0.5, 1.5),
            orientation: MatVecOrientation::RowPerLane,
            allocates: true,
            second: false,
            concat_output: false,
            seed: 0x3717,
        }),
        Box::new(MvLaunch {
            name: "MVT",
            n,
            st,
            range: (0.5, 1.5),
            orientation: MatVecOrientation::ColPerLane,
            allocates: false,
            second: true,
            concat_output: true,
            seed: 0,
        }),
    ]
}

/// Builds ATAX: `tmp = A·x` then `y = Aᵀ·tmp`.
pub fn atax(n: usize) -> Vec<Box<dyn Kernel>> {
    let st: Shared<MvArrays> = shared(MvArrays::default());
    struct Second {
        inner: MvLaunch,
    }
    impl Kernel for Second {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn setup(&mut self, mem: &mut MemoryImage) {
            // Second pass reads the first pass's output: x2 := y1.
            let mut st = self.inner.st.borrow_mut();
            st.x2 = st.y1;
            drop(st);
            self.inner.setup(mem);
        }
        fn total_warps(&self) -> usize {
            self.inner.total_warps()
        }
        fn program(&self, w: usize) -> Box<dyn WarpProgram> {
            self.inner.program(w)
        }
        fn approximable(&self, addr: u64) -> bool {
            self.inner.approximable(addr)
        }
        fn output(&self, mem: &MemoryImage) -> Vec<f32> {
            self.inner.output(mem)
        }
    }
    vec![
        Box::new(MvLaunch {
            name: "ATAX",
            n,
            st: st.clone(),
            range: (-1.0, 1.0),
            orientation: MatVecOrientation::RowPerLane,
            allocates: true,
            second: false,
            concat_output: false,
            seed: 0xA7A8,
        }),
        Box::new(Second {
            inner: MvLaunch {
                name: "ATAX",
                n,
                st,
                range: (-1.0, 1.0),
                orientation: MatVecOrientation::ColPerLane,
                allocates: false,
                second: true,
                concat_output: false,
                seed: 0,
            },
        }),
    ]
}

/// Builds BICG: `q = A·p` and `s = Aᵀ·r`; output is the concatenation.
pub fn bicg(n: usize) -> Vec<Box<dyn Kernel>> {
    let st: Shared<MvArrays> = shared(MvArrays::default());
    vec![
        Box::new(MvLaunch {
            name: "BICG",
            n,
            st: st.clone(),
            range: (0.0, 1.0),
            orientation: MatVecOrientation::RowPerLane,
            allocates: true,
            second: false,
            concat_output: false,
            seed: 0xB1C6,
        }),
        Box::new(MvLaunch {
            name: "BICG",
            n,
            st,
            range: (0.0, 1.0),
            orientation: MatVecOrientation::ColPerLane,
            allocates: false,
            second: true,
            concat_output: true,
            seed: 0,
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::run_sequence_functional;
    use lazydram_gpu::run_functional;

    #[test]
    fn gemm_output_matches_cpu_reference() {
        let n = 64;
        let mut g = Gemm::new(n);
        let (out, img) = run_functional(&mut g);
        assert_eq!(out.len(), n * n);
        let st = g.st.borrow();
        let a = st.a.read(&img);
        let b = st.b.read(&img);
        for (i, j) in [(0usize, 0usize), (13, 57), (63, 63)] {
            let expect: f32 = (0..n).map(|k| a[i * n + k] * b[k * n + j]).sum();
            assert!((out[i * n + j] - expect).abs() < 1e-2);
        }
    }

    #[test]
    fn gemm_annotates_inputs_not_output() {
        let mut g = Gemm::new(32);
        let (_, _) = run_functional(&mut g);
        let st = *g.st.borrow();
        assert!(g.approximable(st.a.base));
        assert!(g.approximable(st.b.base + 64));
        assert!(!g.approximable(st.c.base));
    }

    #[test]
    fn two_mm_chains_products() {
        let n = 32;
        let mut launches = two_mm(n);
        let out = run_sequence_functional(&mut launches);
        assert_eq!(out.len(), n * n);
        // Output must be non-trivial (dependent on both products).
        assert!(out.iter().any(|&v| v.abs() > 1e-3));
    }

    #[test]
    fn three_mm_has_three_launches() {
        let n = 32;
        let mut launches = three_mm(n);
        assert_eq!(launches.len(), 3);
        let out = run_sequence_functional(&mut launches);
        assert_eq!(out.len(), n * n);
        assert!(out.iter().any(|&v| v.abs() > 1e-3));
    }

    #[test]
    fn mvt_output_is_both_vectors() {
        let n = 64;
        let mut launches = mvt(n);
        let out = run_sequence_functional(&mut launches);
        assert_eq!(out.len(), 2 * n);
        assert!(out.iter().any(|&v| v.abs() > 1e-3));
    }

    #[test]
    fn atax_second_pass_reads_first_pass_result() {
        let n = 64;
        let mut launches = atax(n);
        let out = run_sequence_functional(&mut launches);
        assert_eq!(out.len(), n);
        // y = Aᵀ(A x): with random A, overwhelmingly non-zero everywhere.
        assert!(out.iter().filter(|v| v.abs() > 1e-4).count() > n / 2);
    }

    #[test]
    fn bicg_output_is_both_vectors() {
        let n = 64;
        let out = run_sequence_functional(&mut bicg(n));
        assert_eq!(out.len(), 2 * n);
    }
}
