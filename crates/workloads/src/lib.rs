//! Functional re-implementations of the paper's 20 GPGPU workloads
//! (Table II) as execution-driven warp programs.
//!
//! Every application issues the *addresses* of the original access pattern
//! (tiled products, strided matrix-vector sweeps, stencil strips, scrambled
//! gathers…) **and** computes on the real values flowing through the
//! simulated memory system, so approximation error under AMS is measured on
//! genuine outputs.
//!
//! * [`suite::suite`] — the 20-app registry with the paper's result groups,
//! * [`builder::SimBuilder`] — the one front door for configuring and
//!   running a timed simulation (scheme, scale, limits, checkpointing),
//! * [`suite::exact_output`] — the functional (error-free) reference output,
//! * [`programs`] — the reusable warp-program shapes.
//!
//! # Example
//!
//! ```no_run
//! use lazydram_common::Scheme;
//! use lazydram_workloads::{by_name, SimBuilder};
//! use lazydram_gpu::application_error;
//!
//! let app = by_name("GEMM").expect("known app");
//! let run = SimBuilder::new(&app).scheme(Scheme::DynCombo).scale(0.25).build();
//! let lazy = run.run();
//! println!("error = {:.2}%", 100.0 * application_error(&run.exact_output(), &lazy.output));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod axbench;
pub mod builder;
pub mod polybench;
pub mod programs;
pub mod sdk;
pub mod stencil_apps;
pub mod suite;
pub mod util;

pub use builder::{
    parse_backend, parse_cache_mode, parse_checkpoint_every, CacheMode, CachePolicy,
    CheckpointPolicy, SimBuilder, SimRun, DEFAULT_CHECKPOINT_EVERY,
};
pub use suite::{by_name, exact_output, group, run_app, run_app_limited, suite as all_apps, AppSpec};
