//! Shared foundation types for the `lazydram` simulator.
//!
//! This crate holds everything that more than one subsystem needs:
//!
//! * [`config`] — the simulated-GPU configuration (Table I of the paper) and the
//!   scheduler-policy configuration (DMS/AMS modes and their knobs),
//! * [`addr`] — the global-address ⇄ DRAM-location mapping (channel, bank group,
//!   bank, row, column) with 256-byte channel interleaving,
//! * [`stats`] — row-buffer-locality histograms and aggregate simulation
//!   statistics shared by the DRAM model, the scheduler and the harnesses,
//! * [`req`] — the memory-request representation exchanged between the GPU
//!   substrate, the memory controller and the DRAM model,
//! * [`rng`] — the deterministic SplitMix64 generator used for workload-input
//!   synthesis (offline replacement for the `rand` crate),
//! * [`json`] — a minimal JSON emitter for machine-readable harness output
//!   (offline replacement for `serde_json`),
//! * [`snap`] — the hand-rolled, versioned, length-prefixed binary snapshot
//!   format of state dumps, trace files and result-store entries.
//!
//! # Example
//!
//! ```
//! use lazydram_common::addr::AddressMap;
//! use lazydram_common::config::GpuConfig;
//!
//! let map = AddressMap::new(&GpuConfig::default());
//! let loc = map.decompose(0x1_2345_6780);
//! assert_eq!(map.compose(loc), 0x1_2345_6780 & !(map.line_bytes() as u64 - 1));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod addr;
pub mod config;
pub mod fasthash;
pub mod json;
pub mod prof;
pub mod req;
pub mod rng;
pub mod snap;
pub mod stats;

/// Version of the *simulation semantics*: the mapping from a fully specified
/// `(app, scheme, machine config, scale)` cell to its measured results.
///
/// The content-addressed result store (`lazydram-bench::store`) folds this
/// constant into every cache key, so bumping it invalidates all previously
/// published entries at once. The contract, pinned by the golden-output test
/// (`tests/semantics_golden.rs`): **any PR that changes what a simulation
/// computes — timing, scheduling, energy, workload inputs, statistics — must
/// bump this constant** (the golden test fails until it does). PRs that only
/// change *how fast* the same results are produced (dormancy, parallel
/// tick, allocation work) leave it untouched; their bit-identity suites prove
/// cached entries are still exact.
///
/// Version 2 prices a sweep cell's `row_energy_pj` with its own preset's
/// energy profile (HBM1/HBM2 cells were priced as GDDR5 before).
pub const SEMANTICS_VERSION: u64 = 2;

pub use addr::{AddressMap, Location};
pub use config::{
    AmsMode, Arbiter, BackendKind, DmsMode, DramPreset, DramTimings, GpuConfig, RowPolicy,
    SchedConfig, Scheme,
};
pub use fasthash::{FastMap, FastSet};
pub use prof::ProfReport;
pub use req::{AccessKind, MemSpace, Request, RequestId};
pub use rng::SplitMix64;
pub use snap::{Loader, Saver, SnapError, SnapResult};
pub use stats::{DramStats, RblHistogram, SimStats};
