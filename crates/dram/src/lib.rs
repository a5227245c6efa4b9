//! The cycle-level DRAM channel model.
//!
//! One [`Channel`] owns a set of banks organized in bank groups, a shared
//! command bus (one command per memory cycle) and a shared data bus (one burst
//! per [`t_ccd`](lazydram_common::DramTimings::t_ccd) cycles). The memory
//! controller (in `lazydram-core`) decides *which* request to serve; this
//! crate answers *whether* the necessary command is legal right now, applies
//! it, and accounts for:
//!
//! * row activations / precharges (the paper's *row energy* drivers),
//! * row-buffer hits vs misses,
//! * per-activation **row-buffer locality** (RBL) histograms, including the
//!   separate histogram over *read-only* activations that AMS targets,
//! * data-bus busy cycles (the BWUTIL signal used by `Dyn-DMS`).
//!
//! The model follows the open-row policy: rows stay open until a conflicting
//! access (or [`Channel::drain`]) closes them. Every memory-technology
//! preset (GDDR5, HBM1, HBM2) runs this one model under its own geometry
//! and timing package; [`Channel`]'s docs state the execute-and-stall
//! contract the controller relies on.
//!
//! # Example
//!
//! ```
//! use lazydram_common::{AccessKind, GpuConfig};
//! use lazydram_dram::Channel;
//!
//! let cfg = GpuConfig::default();
//! let mut ch = Channel::new(&cfg);
//! // Open row 5 of bank 0 and read one line from it.
//! assert!(ch.can_activate(0, 0));
//! ch.activate(0, 5, 0);
//! let t = u64::from(cfg.timings.t_rcd);
//! assert!(ch.can_cas(0, AccessKind::Read, t));
//! let done = ch.cas(0, AccessKind::Read, true, t);
//! assert!(done > t);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod auditor;
mod bank;
mod channel;

pub use auditor::{Auditor, Command, ProtocolViolation};
pub use bank::{ActivationRecord, Bank, BankState};
pub use channel::Channel;
