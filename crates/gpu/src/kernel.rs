//! The kernel and warp-program abstraction.
//!
//! A [`Kernel`] describes a launch: how many warps run, how each warp behaves
//! (as a [`WarpProgram`] state machine), which data is annotated approximable
//! (the paper's `pragma pred_var`), and where the output lives. Warp programs
//! are *execution-driven*: they issue real addresses and consume the real
//! (or approximated) values the memory system returns, so application error
//! under AMS is measured, not assumed.
//!
//! A warp's loads and stores travel as lists of strided lane [`Run`]s, from
//! emission into an [`OpBuf`] to their completion in the SM; a store carries
//! one value per lane beside its runs.

use crate::memimg::{push_lane, push_run, MemoryImage, Run};
use lazydram_common::snap::Saver;

/// One operation issued by a warp — the *owned* reference representation.
///
/// The hot path never materializes this enum: programs emit into a caller
/// owned [`OpBuf`] instead (allocation-free once the buffers are warm).
/// `WarpOp` survives as the value-semantics form used by tests and by
/// adapters that pin the sink-based emission against the historical
/// contract (see [`OpBuf::to_warp_op`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WarpOp {
    /// `n` single-cycle ALU warp instructions.
    Compute(u32),
    /// A global load, as its lanes' strided runs in lane order. The warp
    /// blocks until all covered cache lines arrive; the loaded values are
    /// passed to the next [`WarpProgram::next`] call in lane order.
    Load(Vec<Run>),
    /// A global store: `(address, value)` per active lane, in lane order.
    /// The warp does not wait for completion (write-through,
    /// fire-and-forget).
    Store(Vec<(u64, f32)>),
    /// The warp has retired.
    Finished,
}

/// Tag of the operation currently held in an [`OpBuf`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `n` single-cycle ALU warp instructions.
    Compute(u32),
    /// A load; its lanes are in [`OpBuf::runs`].
    Load,
    /// A store; its lanes are in [`OpBuf::runs`], their values in
    /// [`OpBuf::values`].
    Store,
    /// The warp has retired.
    Finished,
}

/// A reusable warp-op emission buffer, owned by the caller of
/// [`WarpProgram::next`].
///
/// A load or a store is held as a list of strided lane [`Run`]s, from
/// emission to completion; a store adds one value per lane in a bare `f32`
/// slice. Programs add a load's lanes through the [`LoadEmitter`] that
/// [`OpBuf::begin_load`] returns, either a whole contiguous run at a time
/// ([`LoadEmitter::run`]) or one lane at a time ([`LoadEmitter::push`]),
/// and a store's lanes through the [`StoreEmitter`] that
/// [`OpBuf::begin_store`] returns ([`StoreEmitter::push`]). A pushed lane
/// extends the last run when its address continues that run's stride. The
/// SM coalesces, parks, reads and writes these ops per run, never per
/// lane.
///
/// One warp memory *instruction* covers up to 32 lanes; programs may emit
/// larger batches to model several back-to-back instructions kept in
/// flight by the scoreboard, so a load or store is accounted as
/// ⌈lanes/32⌉ instructions. The buffers are capacity-retaining `Vec`s, and
/// because the same buffer is reused for every op, steady-state emission
/// performs **zero heap allocations** once they have grown to the
/// program's batch size (enforced by the `alloc_gate` integration test).
///
/// Lane ordering is the program's contract with itself: the values handed to
/// the next `next()` call after a load appear in exactly the order the lanes
/// were emitted.
#[derive(Debug)]
pub struct OpBuf {
    kind: OpKind,
    runs: Vec<Run>,
    values: Vec<f32>,
}

/// Adds the lanes of a load to an [`OpBuf`]; returned by
/// [`OpBuf::begin_load`].
#[derive(Debug)]
pub struct LoadEmitter<'a> {
    runs: &'a mut Vec<Run>,
}

impl LoadEmitter<'_> {
    /// Appends `words` lanes reading the consecutive words from byte
    /// address `base` on. Same lanes, same order as `words` calls of
    /// [`LoadEmitter::push`].
    ///
    /// # Panics
    ///
    /// Panics if `words` does not fit in a `u32`.
    #[inline]
    pub fn run(&mut self, base: u64, words: usize) {
        let words = u32::try_from(words).expect("run longer than u32::MAX lanes");
        push_run(self.runs, base, words);
    }

    /// Appends one lane reading byte address `addr`.
    #[inline]
    pub fn push(&mut self, addr: u64) {
        push_lane(self.runs, addr);
    }
}

impl Extend<u64> for LoadEmitter<'_> {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, addrs: I) {
        for a in addrs {
            self.push(a);
        }
    }
}

/// Adds the lanes of a store to an [`OpBuf`]; returned by
/// [`OpBuf::begin_store`].
#[derive(Debug)]
pub struct StoreEmitter<'a> {
    runs: &'a mut Vec<Run>,
    values: &'a mut Vec<f32>,
}

impl StoreEmitter<'_> {
    /// Appends one lane writing `value` to byte address `addr`.
    #[inline]
    pub fn push(&mut self, addr: u64, value: f32) {
        push_lane(self.runs, addr);
        self.values.push(value);
    }
}

impl Extend<(u64, f32)> for StoreEmitter<'_> {
    fn extend<I: IntoIterator<Item = (u64, f32)>>(&mut self, writes: I) {
        for (a, v) in writes {
            self.push(a, v);
        }
    }
}

impl Default for OpBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl OpBuf {
    /// Creates an empty buffer (kind [`OpKind::Finished`]).
    pub fn new() -> Self {
        Self {
            kind: OpKind::Finished,
            runs: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The operation currently held.
    pub fn kind(&self) -> OpKind {
        self.kind
    }

    /// Lane runs of the held load or store, in lane order.
    ///
    /// Meaningful only when [`OpBuf::kind`] is [`OpKind::Load`] or
    /// [`OpKind::Store`].
    pub fn runs(&self) -> &[Run] {
        debug_assert!(
            matches!(self.kind, OpKind::Load | OpKind::Store),
            "runs() on a non-memory op"
        );
        &self.runs
    }

    /// Values of the held store, one per lane of [`OpBuf::runs`].
    ///
    /// Meaningful only when [`OpBuf::kind`] is [`OpKind::Store`].
    pub fn values(&self) -> &[f32] {
        debug_assert_eq!(self.kind, OpKind::Store, "values() on a non-store op");
        &self.values
    }

    /// Emits a compute op.
    pub fn set_compute(&mut self, n: u32) {
        self.kind = OpKind::Compute(n);
    }

    /// Emits warp retirement.
    pub fn set_finished(&mut self) {
        self.kind = OpKind::Finished;
    }

    /// Starts a load: clears the run list (capacity kept) and returns the
    /// emitter that fills it.
    pub fn begin_load(&mut self) -> LoadEmitter<'_> {
        self.kind = OpKind::Load;
        self.runs.clear();
        LoadEmitter {
            runs: &mut self.runs,
        }
    }

    /// Starts a store: clears the run list and the values (capacity kept)
    /// and returns the emitter that fills them.
    pub fn begin_store(&mut self) -> StoreEmitter<'_> {
        self.kind = OpKind::Store;
        self.runs.clear();
        self.values.clear();
        StoreEmitter {
            runs: &mut self.runs,
            values: &mut self.values,
        }
    }

    /// Reconstructs the owned [`WarpOp`] this buffer holds (allocates; for
    /// tests and reference adapters, never the hot path).
    pub fn to_warp_op(&self) -> WarpOp {
        match self.kind {
            OpKind::Compute(n) => WarpOp::Compute(n),
            OpKind::Load => WarpOp::Load(self.runs.clone()),
            OpKind::Store => WarpOp::Store(
                self.runs
                    .iter()
                    .flat_map(|r| r.lanes())
                    .zip(self.values.iter().copied())
                    .collect(),
            ),
            OpKind::Finished => WarpOp::Finished,
        }
    }
}

/// The per-warp state machine of a kernel.
pub trait WarpProgram {
    /// Produces the warp's next operation by filling `out` in place.
    ///
    /// `loaded` holds the values of the most recent load in lane order
    /// (empty on the first call and after non-load operations). The
    /// implementation must set `out` exactly once per call (via
    /// [`OpBuf::set_compute`], [`OpBuf::begin_load`], [`OpBuf::begin_store`]
    /// or [`OpBuf::set_finished`]); any previous contents of the buffer are
    /// unspecified garbage and must not be read.
    fn next(&mut self, loaded: &[f32], out: &mut OpBuf);

    /// Serializes the program's *dynamic* state (loop counters, accumulators,
    /// phase) into a paused run's dump. Configuration passed to the
    /// constructor is not written.
    fn save_state(&self, s: &mut Saver);
}

/// A GPU kernel launch.
pub trait Kernel {
    /// Short workload name (e.g. `"GEMM"`).
    fn name(&self) -> &str;

    /// Allocates and initializes the kernel's arrays in the memory image.
    /// Called exactly once before simulation.
    fn setup(&mut self, mem: &mut MemoryImage);

    /// Total number of warps in the launch.
    fn total_warps(&self) -> usize;

    /// Builds the program for warp `warp_id` (0-based, `< total_warps`).
    fn program(&self, warp_id: usize) -> Box<dyn WarpProgram>;

    /// `pragma pred_var`: is the datum at `addr` annotated error-tolerant?
    /// The AMS unit may only approximate loads from annotated regions.
    fn approximable(&self, addr: u64) -> bool;

    /// Reads the kernel output (for application-error measurement).
    fn output(&self, mem: &MemoryImage) -> Vec<f32>;
}

/// Mean relative error between a baseline output and an approximated output,
/// the paper's *application error* metric (Section II-D).
///
/// Per-element relative error is truncated at 100 % (as in the RFVP line of
/// work the paper builds on) so a single near-zero baseline element cannot
/// dominate the average; elements whose baseline is (near) zero contribute
/// the capped absolute difference instead.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn application_error(exact: &[f32], approx: &[f32]) -> f64 {
    assert_eq!(exact.len(), approx.len(), "output shapes differ");
    if exact.is_empty() {
        return 0.0;
    }
    let mut total = 0.0f64;
    for (&e, &a) in exact.iter().zip(approx) {
        let diff = f64::from((e - a).abs());
        let denom = f64::from(e.abs());
        let rel = if denom > 1e-6 { diff / denom } else { diff };
        total += rel.min(1.0);
    }
    total / exact.len() as f64
}

/// Splits `n` work items across warps of `lanes` threads: returns the item
/// index range `[lo, hi)` covered by `warp_id`'s lane `lane`.
/// A convenience used by many warp programs.
pub fn lane_item(warp_id: usize, lane: usize, lanes: usize) -> usize {
    warp_id * lanes + lane
}

/// Executes a kernel *functionally* — no timing, no caches, every load exact —
/// and returns its output and final memory image.
///
/// This is the reference executor: it runs every warp program to completion,
/// one warp at a time, serving loads straight from the image. Use it to
/// obtain the exact baseline output cheaply (the timed simulator produces the
/// same values when no approximation is enabled) and to unit-test warp
/// programs.
///
/// # Panics
///
/// Panics if a warp program runs for more than 100 million operations
/// (a runaway state machine).
pub fn run_functional(kernel: &mut dyn Kernel) -> (Vec<f32>, MemoryImage) {
    let mut image = MemoryImage::new();
    kernel.setup(&mut image);
    run_launch_functional(kernel, &mut image);
    (kernel.output(&image), image)
}

/// Runs every warp of an already set-up launch functionally against
/// `image`, one warp at a time in warp order.
///
/// # Panics
///
/// Panics if a warp program runs for more than 100 million operations.
pub fn run_launch_functional(kernel: &dyn Kernel, image: &mut MemoryImage) {
    let mut buf = OpBuf::new();
    let mut loaded: Vec<f32> = Vec::new();
    for w in 0..kernel.total_warps() {
        let mut prog = kernel.program(w);
        run_warp_functional(prog.as_mut(), image, &mut buf, &mut loaded);
    }
}

/// Runs one warp program to completion functionally against `image`,
/// reusing `buf` and `loaded` as scratch.
///
/// # Panics
///
/// Panics if the program runs for more than 100 million operations.
pub fn run_warp_functional(
    prog: &mut dyn WarpProgram,
    image: &mut MemoryImage,
    buf: &mut OpBuf,
    loaded: &mut Vec<f32>,
) {
    loaded.clear();
    for _ in 0..100_000_000u32 {
        prog.next(loaded, buf);
        if !apply_functional(buf, image, loaded) {
            return;
        }
    }
    panic!("runaway warp program: over 100 million ops");
}

/// Applies the op held in `buf` to `image` functionally — the one step
/// every functional executor shares. A load refills `loaded` with its
/// values in lane order, a store writes its values to its lanes in lane
/// order, and any other op clears `loaded`. Returns `false` when the op is
/// [`OpKind::Finished`].
pub fn apply_functional(buf: &OpBuf, image: &mut MemoryImage, loaded: &mut Vec<f32>) -> bool {
    match buf.kind() {
        OpKind::Compute(_) => loaded.clear(),
        OpKind::Load => image.read_runs_into(buf.runs(), loaded),
        OpKind::Store => {
            image.write_runs(buf.runs(), buf.values());
            loaded.clear();
        }
        OpKind::Finished => return false,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn application_error_zero_for_identical() {
        let x = vec![1.0, -2.0, 3.0];
        assert_eq!(application_error(&x, &x), 0.0);
    }

    #[test]
    fn application_error_relative() {
        let e = vec![2.0, 4.0];
        let a = vec![1.0, 4.0];
        // |2-1|/2 = 0.5 averaged with 0 → 0.25
        assert!((application_error(&e, &a) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn application_error_near_zero_baseline_uses_absolute() {
        let e = vec![0.0];
        let a = vec![0.5];
        assert!((application_error(&e, &a) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn application_error_empty_is_zero() {
        assert_eq!(application_error(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "output shapes differ")]
    fn application_error_shape_mismatch_panics() {
        let _ = application_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn lane_item_is_dense() {
        assert_eq!(lane_item(0, 0, 32), 0);
        assert_eq!(lane_item(0, 31, 32), 31);
        assert_eq!(lane_item(1, 0, 32), 32);
        assert_eq!(lane_item(2, 5, 32), 69);
    }
}
