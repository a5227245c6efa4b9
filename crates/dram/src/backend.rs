//! The [`MemoryBackend`] trait and the backend matrix behind it.
//!
//! The memory controller (`lazydram-core`) is written against this trait
//! instead of a concrete channel model, so one scheduler implementation can
//! drive any memory technology. The contract is **execute-and-stall**: the
//! controller *asks* whether a command is legal right now (`can_*`), then
//! *applies* it (`activate`/`precharge`/`cas`/`refresh`), and the backend
//! owns every piece of timing state behind those answers. There is
//! deliberately no side-effect-free "how long would this take?" query —
//! against a stateful model (shared buses, tFAW windows, refresh FSMs) a
//! latency oracle either duplicates the state machine or silently diverges
//! from it; see DESIGN.md §14.
//!
//! Two models implement it (selected by [`BackendKind`] in the
//! configuration), wrapped by the [`DramBackend`] dispatch enum:
//!
//! * [`Channel`] — the cycle-level banked model, the paper's GDDR5
//!   baseline; under the HBM presets' timing packages it is the HBM1/HBM2
//!   machine. Bit-identical to the pre-trait hard-wired wiring.
//! * [`NaiveBackend`] — fixed-latency, bank-state-free functional tier.

use crate::channel::Channel;
use lazydram_common::snap::Saver;
use lazydram_common::{AccessKind, BackendKind, DramStats, GpuConfig};

/// One memory channel as seen by the memory controller.
///
/// Execute-and-stall: `can_*` answers "is this command legal at `now`?",
/// the paired imperative applies it, and the backend advances its own
/// timing state. Commands must only be applied when the matching `can_*`
/// returned `true` at the same cycle (backends may debug-assert this).
///
/// Contract obligations every implementation must uphold (the conformance
/// suite in `tests/backend_conformance.rs` checks them end to end):
///
/// * **Determinism** — identical command sequences produce identical state,
///   statistics, and [`MemoryBackend::cas`] completion times.
/// * **Monotone completions** — successive `cas` return values never
///   decrease (responses retire in issue order).
/// * **Honest thresholds** — each `*_ready_at` is never later than the
///   first cycle its `can_*` turns true while no command or refresh
///   intervenes, so a controller that sleeps until the earliest threshold
///   it failed never misses a legal command. The controller's dormancy
///   (DESIGN.md §12) depends on this.
pub trait MemoryBackend {
    /// Which model this is; tags state-dump frames and cache cells.
    fn kind(&self) -> BackendKind;

    /// Advances the backend's notion of elapsed time (statistics only);
    /// call once per memory cycle.
    fn advance_to(&mut self, now: u64);

    /// Accumulated channel statistics.
    fn stats(&self) -> &DramStats;

    /// Mutable statistics handle, used by the memory controller to account
    /// controller-side events (requests received, drops) in the same record.
    fn stats_mut(&mut self) -> &mut DramStats;

    /// Bitmask of banks with an open row (bit `b` ⇔ bank `b` open).
    fn open_banks(&self) -> u64;

    /// The row currently open in `bank`, if any.
    fn open_row(&self, bank: usize) -> Option<u32>;

    /// Is an `ACT` of any row of `bank` legal at `now`?
    fn can_activate(&self, bank: usize, now: u64) -> bool;

    /// Issues `ACT bank,row` at `now`.
    fn activate(&mut self, bank: usize, row: u32, now: u64);

    /// Is a `PRE` of `bank` legal at `now`?
    fn can_precharge(&self, bank: usize, now: u64) -> bool;

    /// Issues `PRE bank` at `now`, recording the finished activation's RBL.
    fn precharge(&mut self, bank: usize, now: u64);

    /// Is a CAS (`RD`/`WR`) to the open row of `bank` legal at `now`?
    fn can_cas(&self, bank: usize, kind: AccessKind, now: u64) -> bool;

    /// The timing threshold behind [`MemoryBackend::can_activate`]: the
    /// first cycle an `ACT` of `bank` can be legal if no command or refresh
    /// is issued before then (`u64::MAX` when time alone never makes it
    /// legal). Not a latency oracle: it reports the guard's own stall.
    fn activate_ready_at(&self, bank: usize) -> u64;

    /// The timing threshold behind [`MemoryBackend::can_precharge`]; see
    /// [`MemoryBackend::activate_ready_at`].
    fn precharge_ready_at(&self, bank: usize) -> u64;

    /// The timing threshold behind [`MemoryBackend::can_cas`]; see
    /// [`MemoryBackend::activate_ready_at`].
    fn cas_ready_at(&self, bank: usize, kind: AccessKind) -> u64;

    /// A cycle before which no CAS to any bank is legal: never later than
    /// any bank's [`MemoryBackend::cas_ready_at`]. Lets the scheduler skip
    /// its row-hit scan while the data bus is busy.
    fn cas_floor(&self) -> u64;

    /// Issues a CAS at `now`; returns the cycle at which the data burst
    /// completes. `global_read` marks requests that keep an activation in
    /// AMS's read-only population.
    fn cas(&mut self, bank: usize, kind: AccessKind, global_read: bool, now: u64) -> u64;

    /// `true` when an all-bank refresh is due at `now`.
    fn refresh_due(&self, now: u64) -> bool;

    /// The absolute cycle at which the next refresh falls due (`u64::MAX`
    /// when the backend never refreshes).
    fn refresh_due_at(&self) -> u64;

    /// Is an all-bank `REF` legal at `now`?
    fn can_refresh(&self, now: u64) -> bool;

    /// Issues an all-bank refresh at `now`.
    fn refresh(&mut self, now: u64);

    /// All-bank refreshes performed so far.
    fn refreshes(&self) -> u64;

    /// Closes every open row *without* timing checks, flushing their RBL
    /// into the histograms. Call exactly once, at the end of a simulation.
    fn drain(&mut self);

    /// Serializes the full backend state into a snapshot.
    fn save_state(&self, s: &mut Saver);
}

/// One bank's worth of functional state in the [`NaiveBackend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NaiveRow {
    row: u32,
    served: u32,
    read_only: bool,
}

/// Fixed-latency, bank-state-free functional tier.
///
/// Every command is always legal; a CAS completes a constant
/// tRCD + tCL + tCCD cycles later regardless of bank or bus state. Open
/// rows are still tracked functionally so the scheduler sees row hits,
/// row-buffer-locality histograms, and the BWUTIL signal it needs — but no
/// timing constraint ever stalls a command. Useful as the fast tier for
/// functional runs and as the "what if DRAM were free?" bound.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveBackend {
    /// Constant CAS completion latency in memory cycles.
    latency: u64,
    /// Data-bus beats accounted per burst (keeps BWUTIL meaningful).
    t_ccd: u64,
    open: Vec<Option<NaiveRow>>,
    open_banks: u64,
    stats: DramStats,
}

impl NaiveBackend {
    /// Creates an idle backend per the GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        assert!(
            cfg.banks_per_channel <= 64,
            "the open-bank bitmask caps a channel at 64 banks"
        );
        let t = cfg.timings;
        Self {
            latency: u64::from(t.t_rcd) + u64::from(t.t_cl) + u64::from(t.t_ccd),
            t_ccd: u64::from(t.t_ccd),
            open: vec![None; cfg.banks_per_channel],
            open_banks: 0,
            stats: DramStats::new(),
        }
    }

    fn record_closed(&mut self, rec: NaiveRow) {
        self.stats.precharges += 1;
        if rec.served > 0 {
            self.stats.rbl.record(rec.served);
            if rec.read_only {
                self.stats.rbl_read_only.record(rec.served);
            }
        }
    }
}

impl MemoryBackend for NaiveBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Naive
    }
    fn advance_to(&mut self, now: u64) {
        self.stats.mem_cycles = self.stats.mem_cycles.max(now);
    }
    fn stats(&self) -> &DramStats {
        &self.stats
    }
    fn stats_mut(&mut self) -> &mut DramStats {
        &mut self.stats
    }
    fn open_banks(&self) -> u64 {
        self.open_banks
    }
    fn open_row(&self, bank: usize) -> Option<u32> {
        self.open[bank].map(|r| r.row)
    }
    fn can_activate(&self, bank: usize, _now: u64) -> bool {
        self.open[bank].is_none()
    }
    fn activate(&mut self, bank: usize, row: u32, _now: u64) {
        debug_assert!(self.open[bank].is_none(), "ACT on open bank");
        self.open[bank] = Some(NaiveRow {
            row,
            served: 0,
            read_only: true,
        });
        self.open_banks |= 1 << bank;
        self.stats.activations += 1;
    }
    fn can_precharge(&self, bank: usize, _now: u64) -> bool {
        self.open[bank].is_some()
    }
    fn precharge(&mut self, bank: usize, _now: u64) {
        let rec = self.open[bank].take().expect("PRE on closed bank");
        self.open_banks &= !(1 << bank);
        self.record_closed(rec);
    }
    fn can_cas(&self, bank: usize, _kind: AccessKind, _now: u64) -> bool {
        self.open[bank].is_some()
    }
    fn activate_ready_at(&self, bank: usize) -> u64 {
        if self.open[bank].is_none() {
            0
        } else {
            u64::MAX
        }
    }
    fn precharge_ready_at(&self, bank: usize) -> u64 {
        if self.open[bank].is_some() {
            0
        } else {
            u64::MAX
        }
    }
    fn cas_ready_at(&self, bank: usize, _kind: AccessKind) -> u64 {
        self.precharge_ready_at(bank)
    }
    fn cas_floor(&self) -> u64 {
        0
    }
    fn cas(&mut self, bank: usize, kind: AccessKind, global_read: bool, now: u64) -> u64 {
        let rec = self.open[bank].as_mut().expect("CAS on closed bank");
        if rec.served == 0 {
            self.stats.row_misses += 1;
        } else {
            self.stats.row_hits += 1;
        }
        rec.served += 1;
        if !global_read {
            rec.read_only = false;
        }
        self.stats.bus_busy_cycles += self.t_ccd;
        match kind {
            AccessKind::Read => self.stats.reads += 1,
            AccessKind::Write => self.stats.writes += 1,
        }
        now + self.latency
    }
    fn refresh_due(&self, _now: u64) -> bool {
        false
    }
    fn refresh_due_at(&self) -> u64 {
        u64::MAX
    }
    fn can_refresh(&self, _now: u64) -> bool {
        false
    }
    fn refresh(&mut self, _now: u64) {
        unreachable!("the naive backend never refreshes");
    }
    fn refreshes(&self) -> u64 {
        0
    }
    fn drain(&mut self) {
        for bank in 0..self.open.len() {
            if let Some(rec) = self.open[bank].take() {
                self.record_closed(rec);
            }
        }
        self.open_banks = 0;
    }
    fn save_state(&self, s: &mut Saver) {
        s.seq("nbanks", self.open.len());
        for rec in &self.open {
            match rec {
                None => s.bool("open", false),
                Some(r) => {
                    s.bool("open", true);
                    s.u32("row", r.row);
                    s.u32("served", r.served);
                    s.bool("read_only", r.read_only);
                }
            }
        }
        s.frame("stat", 0, |s| self.stats.save_state(s));
    }
}

/// The backend matrix: one variant per [`BackendKind`], dispatched
/// statically so the GDDR5 hot path calls [`Channel`] directly (and stays
/// byte-identical to the pre-trait wiring).
#[derive(Debug, Clone, PartialEq)]
pub enum DramBackend {
    /// The banked [`Channel`] model (GDDR5, and HBM under its timings).
    Gddr5(Channel),
    /// See [`NaiveBackend`].
    Naive(NaiveBackend),
}

impl DramBackend {
    /// Creates the backend the configuration selects.
    pub fn new(cfg: &GpuConfig) -> Self {
        match cfg.backend {
            BackendKind::Gddr5 => DramBackend::Gddr5(Channel::new(cfg)),
            BackendKind::Naive => DramBackend::Naive(NaiveBackend::new(cfg)),
        }
    }
}

/// Forwards one call to the active model. The `Gddr5` arm resolves to
/// [`Channel`]'s inherent methods, which carry the trait's names.
macro_rules! dispatch {
    ($self:ident, $b:ident => $e:expr) => {
        match $self {
            DramBackend::Gddr5($b) => $e,
            DramBackend::Naive($b) => $e,
        }
    };
}

impl MemoryBackend for DramBackend {
    fn kind(&self) -> BackendKind {
        match self {
            DramBackend::Gddr5(_) => BackendKind::Gddr5,
            DramBackend::Naive(_) => BackendKind::Naive,
        }
    }
    fn advance_to(&mut self, now: u64) {
        dispatch!(self, b => b.advance_to(now))
    }
    fn stats(&self) -> &DramStats {
        dispatch!(self, b => b.stats())
    }
    fn stats_mut(&mut self) -> &mut DramStats {
        dispatch!(self, b => b.stats_mut())
    }
    fn open_banks(&self) -> u64 {
        dispatch!(self, b => b.open_banks())
    }
    fn open_row(&self, bank: usize) -> Option<u32> {
        dispatch!(self, b => b.open_row(bank))
    }
    fn can_activate(&self, bank: usize, now: u64) -> bool {
        dispatch!(self, b => b.can_activate(bank, now))
    }
    fn activate(&mut self, bank: usize, row: u32, now: u64) {
        dispatch!(self, b => b.activate(bank, row, now))
    }
    fn can_precharge(&self, bank: usize, now: u64) -> bool {
        dispatch!(self, b => b.can_precharge(bank, now))
    }
    fn precharge(&mut self, bank: usize, now: u64) {
        dispatch!(self, b => b.precharge(bank, now))
    }
    fn can_cas(&self, bank: usize, kind: AccessKind, now: u64) -> bool {
        dispatch!(self, b => b.can_cas(bank, kind, now))
    }
    fn activate_ready_at(&self, bank: usize) -> u64 {
        dispatch!(self, b => b.activate_ready_at(bank))
    }
    fn precharge_ready_at(&self, bank: usize) -> u64 {
        dispatch!(self, b => b.precharge_ready_at(bank))
    }
    fn cas_ready_at(&self, bank: usize, kind: AccessKind) -> u64 {
        dispatch!(self, b => b.cas_ready_at(bank, kind))
    }
    fn cas_floor(&self) -> u64 {
        dispatch!(self, b => b.cas_floor())
    }
    fn cas(&mut self, bank: usize, kind: AccessKind, global_read: bool, now: u64) -> u64 {
        dispatch!(self, b => b.cas(bank, kind, global_read, now))
    }
    fn refresh_due(&self, now: u64) -> bool {
        dispatch!(self, b => b.refresh_due(now))
    }
    fn refresh_due_at(&self) -> u64 {
        dispatch!(self, b => b.refresh_due_at())
    }
    fn can_refresh(&self, now: u64) -> bool {
        dispatch!(self, b => b.can_refresh(now))
    }
    fn refresh(&mut self, now: u64) {
        dispatch!(self, b => b.refresh(now))
    }
    fn refreshes(&self) -> u64 {
        dispatch!(self, b => b.refreshes())
    }
    fn drain(&mut self) {
        dispatch!(self, b => b.drain())
    }
    fn save_state(&self, s: &mut Saver) {
        dispatch!(self, b => b.save_state(s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_backend_is_always_ready_with_fixed_latency() {
        let cfg = GpuConfig::default();
        let mut b = NaiveBackend::new(&cfg);
        let lat = u64::from(cfg.timings.t_rcd)
            + u64::from(cfg.timings.t_cl)
            + u64::from(cfg.timings.t_ccd);
        assert!(b.can_activate(5, 0));
        b.activate(5, 3, 0);
        // No tRCD stall: a CAS is legal on the very next cycle…
        assert!(b.can_cas(5, AccessKind::Read, 1));
        assert_eq!(b.cas(5, AccessKind::Read, true, 1), 1 + lat);
        // …and so is an immediate precharge (no tRAS).
        assert!(b.can_precharge(5, 2));
        b.precharge(5, 2);
        assert_eq!(b.stats().rbl.count(1), 1);
        assert_eq!(b.stats().row_misses, 1);
        assert!(!b.refresh_due(u64::MAX - 1));
        assert_eq!(b.refresh_due_at(), u64::MAX);
    }

    #[test]
    fn dispatch_enum_selects_by_config() {
        for preset in lazydram_common::DramPreset::ALL {
            let cfg = preset.gpu_config();
            let b = DramBackend::new(&cfg);
            assert_eq!(b.kind(), cfg.backend, "{preset}");
        }
    }
}
