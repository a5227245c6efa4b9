//! **lazydram** — a from-scratch Rust reproduction of *“Exploiting Latency
//! and Error Tolerance of GPGPU Applications for an Energy-Efficient DRAM”*
//! (Wang & Jog, DSN 2019).
//!
//! This facade re-exports the workspace crates under stable names:
//!
//! * [`common`] — configuration (Table I), address mapping, statistics;
//! * [`dram`] — the cycle-level GDDR5 channel/bank model and protocol auditor;
//! * [`core`] — the lazy memory scheduler (FR-FCFS + DMS + AMS), the paper's
//!   contribution;
//! * [`gpu`] — the execution-driven GPU substrate (SMs, caches, interconnect,
//!   value prediction), plus in-memory request-trace capture and the
//!   open-loop replayer;
//! * [`workloads`] — the 20-application evaluation suite of Table II;
//! * [`energy`] — the GPUWattch-style DRAM energy model;
//! * [`bench`](mod@bench) — the parallel sweep runner and the
//!   content-addressed result store shared by the figure harnesses and the
//!   CLI.
//!
//! The crate root also re-exports the high-level entry points — the
//! [`SimBuilder`] facade, the [`Scheme`] constructors, the paused-run
//! types ([`RunOutcome`], whose [`Checkpoint`] is a write-only state dump),
//! and the trace types ([`Trace`], [`TraceSim`])
//! — so most users never need to reach into the sub-crates. Every reported
//! result is execution-driven; [`TraceSim`] replays an in-memory trace
//! open-loop (Fig. 3's example), and a trace has no file format.
//!
//! # Example
//!
//! ```no_run
//! use lazydram::workloads::by_name;
//! use lazydram::{Scheme, SimBuilder};
//!
//! let app = by_name("SCP").expect("known app");
//! let lazy = SimBuilder::new(&app).scheme(Scheme::DynCombo).scale(1.0).build().run();
//! println!("activations: {}", lazy.stats.dram.activations);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use lazydram_bench as bench;
pub use lazydram_common as common;
pub use lazydram_core as core;
pub use lazydram_dram as dram;
pub use lazydram_energy as energy;
pub use lazydram_gpu as gpu;
pub use lazydram_workloads as workloads;

pub use lazydram_common::Scheme;
pub use lazydram_gpu::{Checkpoint, RunOutcome, Trace, TraceSim};
pub use lazydram_workloads::{SimBuilder, SimRun};
