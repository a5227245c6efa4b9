//! Execution-driven simplified GPU substrate for the lazy memory scheduler.
//!
//! This crate provides everything between a workload and the DRAM model:
//!
//! * [`MemoryImage`] — the flat functional store of `f32` values,
//! * [`Cache`] — tag-only set-associative cache (L1 and L2 share it), with
//!   the nearest-resident-line search the value predictor needs,
//! * [`DelayQueue`] — the latency/bandwidth-limited interconnect building
//!   block,
//! * [`Kernel`] / [`WarpProgram`] — the workload abstraction: warp-level
//!   state machines that issue real addresses and compute on real values,
//! * [`Simulator`] / [`run_kernel`] — the cycle-level machine: SMs with warp
//!   schedulers and L1s, L2 slices with MSHRs and the VP unit, and one
//!   [`lazydram_core::MemoryController`] per channel.
//!
//! # Quick start
//!
//! ```no_run
//! use lazydram_common::{GpuConfig, SchedConfig};
//! use lazydram_gpu::{run_kernel, Kernel};
//!
//! # fn demo(kernel: &mut dyn Kernel) {
//! let baseline = run_kernel(kernel, &GpuConfig::default(), &SchedConfig::baseline());
//! let lazy = run_kernel(kernel, &GpuConfig::default(), &SchedConfig::dyn_combo());
//! let base_acts = baseline.stats.dram.activations as f64;
//! println!("activation reduction: {:.1}%",
//!          100.0 * (1.0 - lazy.stats.dram.activations as f64 / base_acts));
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod cache;
mod kernel;
mod memimg;
mod noc;
mod sim;
mod slice;
mod sm;
mod trace;

pub use cache::{AccessResult, Cache};
pub use kernel::{
    application_error, apply_functional, lane_item, run_functional, run_launch_functional,
    run_warp_functional, Kernel, LoadEmitter, OpBuf, OpKind, WarpOp, WarpProgram,
};
pub use memimg::{MemoryImage, OverlayView, Run, LINE_BYTES, WORDS_PER_LINE};
pub use lazydram_common::snap::{Loader, Saver, SnapError, SnapResult};
pub use noc::{DelayQueue, NocFull};
pub use sim::{
    parse_no_compute_skip, parse_no_skip, run_kernel, Checkpoint, RunOutcome, RunResult,
    SimLimits, Simulator,
};
pub use trace::{
    ReplayReport, Trace, TraceEntry, TraceError, TraceSim, DEFAULT_DRAIN_GRACE,
};

