//! Per-bank row-buffer state machine and timing bookkeeping.

use lazydram_common::snap::Saver;
use lazydram_common::{AccessKind, DramTimings};

/// The row-buffer state of one DRAM bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankState {
    /// No row in the row buffer; the bank may accept an `ACT`.
    Closed,
    /// A row's data is (or is being fetched) in the row buffer.
    Open {
        /// The open row index.
        row: u32,
    },
}

/// Bookkeeping for the activation currently in progress, used to compute the
/// RBL of the activation when the row is eventually closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivationRecord {
    /// Row that was activated.
    pub row: u32,
    /// Requests served from this activation so far.
    pub served: u32,
    /// `true` while every request served so far was a global read.
    pub read_only: bool,
}

/// One DRAM bank: state machine plus the earliest-legal-time bookkeeping for
/// each command class.
#[derive(Debug, Clone, PartialEq)]
pub struct Bank {
    state: BankState,
    /// Activation bookkeeping; `Some` iff `state` is `Open`.
    current: Option<ActivationRecord>,
    /// Cycle of the last `ACT` (for tRC).
    last_act: u64,
    /// Earliest cycle a CAS to this bank is legal (tRCD after ACT).
    cas_ready: u64,
    /// Earliest cycle a PRE to this bank is legal (tRAS after ACT, tWR after
    /// the last write burst).
    pre_ready: u64,
    /// Earliest cycle an ACT to this bank is legal (tRP after PRE, tRC after
    /// the previous ACT).
    act_ready: u64,
    /// Whether any ACT has ever been issued (so tRC does not bind at t=0).
    ever_activated: bool,
}

impl Default for Bank {
    fn default() -> Self {
        Self::new()
    }
}

impl Bank {
    /// Creates a closed, immediately usable bank.
    pub fn new() -> Self {
        Self {
            state: BankState::Closed,
            current: None,
            last_act: 0,
            cas_ready: 0,
            pre_ready: 0,
            act_ready: 0,
            ever_activated: false,
        }
    }

    /// Current row-buffer state.
    pub fn state(&self) -> BankState {
        self.state
    }

    /// The open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        match self.state {
            BankState::Open { row } => Some(row),
            BankState::Closed => None,
        }
    }

    /// The in-progress activation record, if the bank is open.
    pub fn activation(&self) -> Option<&ActivationRecord> {
        self.current.as_ref()
    }

    /// Is an `ACT` legal at `now` (bank closed, tRP and tRC satisfied)?
    pub fn can_activate(&self, now: u64) -> bool {
        self.state == BankState::Closed && now >= self.act_ready
    }

    /// Is a CAS (`RD`/`WR`) to the open row legal at `now` (tRCD satisfied)?
    ///
    /// Channel-level constraints (data bus, turnaround, command bus) are
    /// checked by [`crate::Channel`], not here.
    pub fn can_cas(&self, now: u64) -> bool {
        matches!(self.state, BankState::Open { .. }) && now >= self.cas_ready
    }

    /// Is a `PRE` legal at `now` (bank open, tRAS and tWR satisfied)?
    pub fn can_precharge(&self, now: u64) -> bool {
        matches!(self.state, BankState::Open { .. }) && now >= self.pre_ready
    }

    /// Applies an `ACT` for `row` at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the command is illegal at `now`; callers
    /// must check [`Bank::can_activate`] first.
    pub fn activate(&mut self, row: u32, now: u64, t: &DramTimings) {
        debug_assert!(self.can_activate(now), "illegal ACT at {now}");
        self.state = BankState::Open { row };
        self.current = Some(ActivationRecord {
            row,
            served: 0,
            read_only: true,
        });
        self.last_act = now;
        self.ever_activated = true;
        self.cas_ready = now + u64::from(t.t_rcd);
        self.pre_ready = now + u64::from(t.t_ras);
        self.act_ready = now + u64::from(t.t_rc);
    }

    /// Applies a CAS at `now`; `global_read` feeds the read-only-activation
    /// tracking. Returns the updated activation record.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if no row is open or tRCD is not satisfied.
    pub fn cas(&mut self, kind: AccessKind, global_read: bool, now: u64, t: &DramTimings) {
        debug_assert!(self.can_cas(now), "illegal CAS at {now}");
        let rec = self.current.as_mut().expect("open bank must have a record");
        rec.served += 1;
        if !global_read {
            rec.read_only = false;
        }
        if kind == AccessKind::Write {
            // PRE must wait for write recovery after the last write data beat.
            let data_end = now + u64::from(t.t_wl) + u64::from(t.t_ccd);
            self.pre_ready = self.pre_ready.max(data_end + u64::from(t.t_wr));
        }
    }

    /// Serializes the full bank state into a snapshot.
    pub fn save_state(&self, s: &mut Saver) {
        match self.state {
            BankState::Closed => s.u8("state", 0),
            BankState::Open { row } => {
                s.u8("state", 1);
                s.u32("open_row", row);
            }
        }
        match &self.current {
            None => s.bool("has_activation", false),
            Some(rec) => {
                s.bool("has_activation", true);
                s.u32("act_row", rec.row);
                s.u32("act_served", rec.served);
                s.bool("act_read_only", rec.read_only);
            }
        }
        s.u64("last_act", self.last_act);
        s.u64("cas_ready", self.cas_ready);
        s.u64("pre_ready", self.pre_ready);
        s.u64("act_ready", self.act_ready);
        s.bool("ever_activated", self.ever_activated);
    }

    /// Applies a `PRE` at `now`, closing the row. Returns the finished
    /// activation record so the channel can record its RBL.
    ///
    /// # Panics
    ///
    /// Panics (debug assertion) if the bank is closed or tRAS/tWR not met.
    pub fn precharge(&mut self, now: u64, t: &DramTimings) -> ActivationRecord {
        debug_assert!(self.can_precharge(now), "illegal PRE at {now}");
        self.state = BankState::Closed;
        self.act_ready = self.act_ready.max(now + u64::from(t.t_rp));
        self.current.take().expect("open bank must have a record")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::default()
    }

    #[test]
    fn fresh_bank_is_closed_and_ready() {
        let b = Bank::new();
        assert_eq!(b.state(), BankState::Closed);
        assert!(b.can_activate(0));
        assert!(!b.can_cas(0));
        assert!(!b.can_precharge(0));
        assert_eq!(b.open_row(), None);
    }

    #[test]
    fn act_enforces_trcd_before_cas() {
        let mut b = Bank::new();
        b.activate(3, 0, &t());
        assert_eq!(b.open_row(), Some(3));
        assert!(!b.can_cas(11));
        assert!(b.can_cas(12)); // tRCD = 12
    }

    #[test]
    fn act_enforces_tras_before_pre() {
        let mut b = Bank::new();
        b.activate(3, 0, &t());
        assert!(!b.can_precharge(27));
        assert!(b.can_precharge(28)); // tRAS = 28
    }

    #[test]
    fn pre_enforces_trp_before_next_act() {
        let mut b = Bank::new();
        b.activate(3, 0, &t());
        let rec = b.precharge(28, &t());
        assert_eq!(rec.row, 3);
        assert!(!b.can_activate(39)); // PRE at 28 + tRP 12 = 40
        assert!(b.can_activate(40));
    }

    #[test]
    fn trc_binds_between_activates() {
        let mut b = Bank::new();
        b.activate(3, 0, &t());
        b.precharge(28, &t()); // act_ready = max(40, 28+12) = 40 = tRC exactly
        b.activate(4, 40, &t());
        // Close as early as possible: PRE at 40+28=68, tRP -> 80; tRC from 40 -> 80.
        b.precharge(68, &t());
        assert!(!b.can_activate(79));
        assert!(b.can_activate(80));
    }

    #[test]
    fn write_extends_precharge_window() {
        let mut b = Bank::new();
        let tm = t();
        b.activate(1, 0, &tm);
        b.cas(AccessKind::Write, false, 12, &tm);
        // data end = 12 + tWL(4) + tCCD(2) = 18; +tWR(12) = 30 > tRAS(28)
        assert!(!b.can_precharge(29));
        assert!(b.can_precharge(30));
    }

    #[test]
    fn activation_record_tracks_rbl_and_read_only() {
        let mut b = Bank::new();
        let tm = t();
        b.activate(9, 0, &tm);
        b.cas(AccessKind::Read, true, 12, &tm);
        b.cas(AccessKind::Read, true, 14, &tm);
        assert_eq!(b.activation().unwrap().served, 2);
        assert!(b.activation().unwrap().read_only);
        b.cas(AccessKind::Write, false, 16, &tm);
        assert!(!b.activation().unwrap().read_only);
        let rec = b.precharge(40, &tm);
        assert_eq!(rec.served, 3);
        assert!(!rec.read_only);
        assert!(b.activation().is_none());
    }

    #[test]
    fn non_global_read_clears_read_only() {
        let mut b = Bank::new();
        let tm = t();
        b.activate(9, 0, &tm);
        // A read that is not a *global* read (e.g. an instruction fetch)
        // still disqualifies the activation from AMS's read-only population.
        b.cas(AccessKind::Read, false, 12, &tm);
        assert!(!b.activation().unwrap().read_only);
    }
}
