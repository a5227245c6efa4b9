//! The Approximate-Memory-Scheduling (AMS) unit — Section IV-C of the paper.
//!
//! AMS inspects the oldest pending request when it is about to cause a row
//! activation. If the request is an annotated (approximable) global read, its
//! row's pending set contains only global reads, the row's *visible RBL* is
//! at most `Th_RBL`, and the prediction coverage is still under the
//! user-defined cap, then the whole row's pending requests are **dropped**
//! (one per memory cycle) instead of being issued, and the value-prediction
//! unit supplies their values on the way back to the cores.
//!
//! `Static-AMS` keeps `Th_RBL` fixed at 8. `Dyn-AMS` walks `Th_RBL` within
//! `[1, 8]` once per 4096-cycle window: down one step while the achieved
//! coverage meets the target (to focus the limited coverage on the
//! lowest-RBL rows), up one step when coverage falls short.

use crate::queue::PendingQueue;
use lazydram_common::config::AmsMode;
use lazydram_common::snap::Saver;
use lazydram_common::Request;

/// Why an AMS drop check declined (diagnostic histogram indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AmsDecline {
    /// Unit disabled or halted for Dyn-DMS baseline sampling.
    OffOrHalted = 0,
    /// Still warming up the L2.
    Warmup = 1,
    /// Candidate is not an annotated global read.
    NotApproximable = 2,
    /// The DMS delay criterion is not yet met.
    Delay = 3,
    /// Coverage cap reached.
    Coverage = 4,
    /// Row has non-read or non-global pending requests.
    RowHasWrites = 5,
    /// Visible RBL above the threshold.
    AboveThreshold = 6,
}

/// The AMS unit of one memory controller.
#[derive(Debug, Clone, PartialEq)]
pub struct AmsUnit {
    mode: AmsMode,
    /// Threshold currently in force.
    th_rbl: u32,
    /// Coverage cap (fraction of global reads; paper: 0.10).
    coverage_cap: f64,
    /// AMS stays off until this many requests were received (L2 warm-up).
    warmup_requests: u64,
    /// Memory cycle at which the current window started.
    window_start: u64,
    /// Diagnostic histogram of decline reasons (indexed by [`AmsDecline`]).
    pub declines: [u64; 7],
    /// Diagnostic count of accepted drops (decision points, not requests).
    pub accepts: u64,
}

impl AmsUnit {
    /// Creates the unit for a scheduling mode.
    pub fn new(mode: AmsMode, coverage_cap: f64, warmup_requests: u64) -> Self {
        let th_rbl = match mode {
            AmsMode::Off => 0,
            AmsMode::Static(th) => th,
            AmsMode::Dynamic(d) => d.max_th,
        };
        Self {
            mode,
            th_rbl,
            coverage_cap,
            warmup_requests,
            window_start: 0,
            declines: [0; 7],
            accepts: 0,
        }
    }

    /// Whether AMS is enabled at all.
    pub fn is_enabled(&self) -> bool {
        self.mode.is_enabled()
    }

    /// The RBL threshold currently in force.
    pub fn th_rbl(&self) -> u32 {
        self.th_rbl
    }

    /// The coverage cap.
    pub fn coverage_cap(&self) -> f64 {
        self.coverage_cap
    }

    /// Decides whether the oldest pending request `req` (which is about to
    /// open a new row) should instead start a drop sequence, counting the
    /// outcome in `accepts` or `declines`.
    ///
    /// `halted` is raised by the controller while `Dyn-DMS` samples its
    /// baseline BWUTIL (Section IV-B).
    ///
    /// # Errors
    ///
    /// Returns the first criterion the request failed.
    #[allow(clippy::too_many_arguments)]
    pub fn decide(
        &mut self,
        req: &Request,
        queue: &PendingQueue,
        bank: usize,
        dropped: u64,
        global_reads_received: u64,
        oldest_age_ok: bool,
        halted: bool,
    ) -> Result<(), AmsDecline> {
        match self.verdict(
            req,
            queue,
            bank,
            dropped,
            global_reads_received,
            oldest_age_ok,
            halted,
        ) {
            Ok(()) => {
                self.accepts += 1;
                Ok(())
            }
            Err(why) => {
                self.count_decline(why);
                Err(why)
            }
        }
    }

    /// Counts one decline for `why`. A sleeping controller calls this once
    /// per skipped scheduling pass, replaying the reason its last pass
    /// recorded, so the histogram matches a controller that never sleeps.
    pub fn count_decline(&mut self, why: AmsDecline) {
        self.declines[why as usize] += 1;
    }

    #[allow(clippy::too_many_arguments)]
    fn verdict(
        &self,
        req: &Request,
        queue: &PendingQueue,
        bank: usize,
        dropped: u64,
        global_reads_received: u64,
        oldest_age_ok: bool,
        halted: bool,
    ) -> Result<(), AmsDecline> {
        if !self.is_enabled() || halted {
            return Err(AmsDecline::OffOrHalted);
        }
        // Warm-up: let the L2 fill before the VP starts predicting.
        if global_reads_received < self.warmup_requests {
            return Err(AmsDecline::Warmup);
        }
        // Criterion 1: the request itself must be an annotated global read.
        if !req.is_global_read() || !req.approximable {
            return Err(AmsDecline::NotApproximable);
        }
        // Criterion 2: the delay criterion determined by DMS.
        if !oldest_age_ok {
            return Err(AmsDecline::Delay);
        }
        // Criterion 3: coverage below the user-defined cap.
        if global_reads_received == 0
            || (dropped as f64 / global_reads_received as f64) >= self.coverage_cap
        {
            return Err(AmsDecline::Coverage);
        }
        // Criterion 4: visible RBL ≤ Th_RBL and the whole pending row set is
        // global reads (no write or non-global access to the same row).
        let row = req.loc.row;
        if !queue.row_is_all_global_reads(bank, row) {
            return Err(AmsDecline::RowHasWrites);
        }
        if queue.visible_rbl(bank, row) > self.th_rbl {
            return Err(AmsDecline::AboveThreshold);
        }
        Ok(())
    }

    /// Serializes the unit's dynamic state (mode, cap and warm-up are
    /// configuration and are not written).
    pub fn save_state(&self, s: &mut Saver) {
        s.u32("th_rbl", self.th_rbl);
        s.u64("window_start", self.window_start);
        s.u64s("declines", &self.declines);
        s.u64("accepts", self.accepts);
    }

    /// The absolute memory cycle of the next `Dyn-AMS` window boundary
    /// (where [`AmsUnit::tick`] stops being a no-op), or `None` for the
    /// static/off modes whose `tick` never does anything. A sleeping
    /// controller wakes no later than this cycle.
    pub fn next_window_boundary(&self) -> Option<u64> {
        match self.mode {
            AmsMode::Dynamic(cfg) => Some(self.window_start + u64::from(cfg.window)),
            _ => None,
        }
    }

    /// Advances the `Dyn-AMS` window controller; call once per memory cycle
    /// with the running totals.
    pub fn tick(&mut self, now: u64, dropped: u64, global_reads_received: u64) {
        let AmsMode::Dynamic(cfg) = self.mode else {
            return;
        };
        if now.saturating_sub(self.window_start) < u64::from(cfg.window) {
            return;
        }
        self.window_start = now;
        if global_reads_received < self.warmup_requests {
            return;
        }
        let coverage = if global_reads_received == 0 {
            0.0
        } else {
            dropped as f64 / global_reads_received as f64
        };
        if coverage + 1e-12 >= self.coverage_cap {
            // Coverage target met: focus on lower-RBL rows.
            self.th_rbl = self.th_rbl.saturating_sub(1).max(cfg.min_th);
        } else {
            // Short on coverage: widen the candidate set.
            self.th_rbl = (self.th_rbl + 1).min(cfg.max_th);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_common::config::DynAmsConfig;
    use lazydram_common::{AccessKind, Location, MemSpace, RequestId};

    fn req(id: u64, row: u32, kind: AccessKind, approximable: bool) -> Request {
        Request {
            id: RequestId(id),
            addr: id * 128,
            loc: Location {
                channel: 0,
                bank_group: 0,
                bank_in_group: 0,
                row,
                col: 0,
            },
            kind,
            space: MemSpace::Global,
            approximable,
            arrival: 0,
        }
    }

    fn unit() -> AmsUnit {
        AmsUnit::new(AmsMode::Static(8), 0.10, 0)
    }

    /// `should_drop` takes `&mut self` (diagnostics); tests use a throwaway.
    fn unit_mut() -> AmsUnit {
        unit()
    }

    fn queue_with(reqs: &[Request]) -> PendingQueue {
        let mut q = PendingQueue::new(128, 16, 4);
        for r in reqs {
            q.push(*r).unwrap();
        }
        q
    }

    #[test]
    fn drops_low_rbl_read_only_row() {
        let r = req(1, 5, AccessKind::Read, true);
        let q = queue_with(&[r, req(2, 5, AccessKind::Read, true)]);
        assert_eq!(unit_mut().decide(&r, &q, 0, 0, 1000, true, false), Ok(()));
    }

    #[test]
    fn refuses_when_row_has_a_write() {
        let r = req(1, 5, AccessKind::Read, true);
        let q = queue_with(&[r, req(2, 5, AccessKind::Write, false)]);
        assert_eq!(
            unit_mut().decide(&r, &q, 0, 0, 1000, true, false),
            Err(AmsDecline::RowHasWrites)
        );
    }

    #[test]
    fn refuses_unannotated_request() {
        let r = req(1, 5, AccessKind::Read, false);
        let q = queue_with(&[r]);
        assert_eq!(
            unit_mut().decide(&r, &q, 0, 0, 1000, true, false),
            Err(AmsDecline::NotApproximable)
        );
    }

    #[test]
    fn refuses_above_threshold() {
        let r = req(1, 5, AccessKind::Read, true);
        let reqs: Vec<Request> = (1..=9).map(|i| req(i, 5, AccessKind::Read, true)).collect();
        let q = queue_with(&reqs);
        // Visible RBL is 9 > Th_RBL = 8.
        assert_eq!(
            unit_mut().decide(&r, &q, 0, 0, 1000, true, false),
            Err(AmsDecline::AboveThreshold)
        );
    }

    #[test]
    fn refuses_at_coverage_cap() {
        let r = req(1, 5, AccessKind::Read, true);
        let q = queue_with(&[r]);
        assert_eq!(
            unit_mut().decide(&r, &q, 0, 100, 1000, true, false),
            Err(AmsDecline::Coverage)
        );
        assert_eq!(unit_mut().decide(&r, &q, 0, 99, 1000, true, false), Ok(()));
    }

    #[test]
    fn refuses_before_delay_criterion() {
        let r = req(1, 5, AccessKind::Read, true);
        let q = queue_with(&[r]);
        assert_eq!(
            unit_mut().decide(&r, &q, 0, 0, 1000, false, false),
            Err(AmsDecline::Delay)
        );
    }

    #[test]
    fn refuses_while_halted_or_warming() {
        let r = req(1, 5, AccessKind::Read, true);
        let q = queue_with(&[r]);
        assert_eq!(
            unit_mut().decide(&r, &q, 0, 0, 1000, true, true),
            Err(AmsDecline::OffOrHalted)
        );
        let mut cold = AmsUnit::new(AmsMode::Static(8), 0.10, 5_000);
        assert_eq!(
            cold.decide(&r, &q, 0, 0, 1000, true, false),
            Err(AmsDecline::Warmup)
        );
    }

    #[test]
    fn off_mode_never_drops() {
        let r = req(1, 5, AccessKind::Read, true);
        let q = queue_with(&[r]);
        let mut off = AmsUnit::new(AmsMode::Off, 0.10, 0);
        assert_eq!(
            off.decide(&r, &q, 0, 0, 1000, true, false),
            Err(AmsDecline::OffOrHalted)
        );
    }

    #[test]
    fn dynamic_walks_threshold_down_then_up() {
        let mut a = AmsUnit::new(AmsMode::Dynamic(DynAmsConfig::default()), 0.10, 0);
        assert_eq!(a.th_rbl(), 8);
        // Coverage met → step down each window.
        a.tick(4096, 100, 1000);
        assert_eq!(a.th_rbl(), 7);
        a.tick(8192, 200, 2000);
        assert_eq!(a.th_rbl(), 6);
        // Coverage short → step back up.
        a.tick(12288, 200, 4000);
        assert_eq!(a.th_rbl(), 7);
    }

    #[test]
    fn dynamic_threshold_stays_in_bounds() {
        let mut a = AmsUnit::new(AmsMode::Dynamic(DynAmsConfig::default()), 0.10, 0);
        for w in 1..=20u64 {
            a.tick(w * 4096, 1000, 1000); // always above target
        }
        assert_eq!(a.th_rbl(), 1);
        for w in 21..=40u64 {
            a.tick(w * 4096, 0, 1000); // always below target
        }
        assert_eq!(a.th_rbl(), 8);
    }

    #[test]
    fn static_threshold_never_moves() {
        let mut a = unit();
        a.tick(4096, 1000, 1000);
        assert_eq!(a.th_rbl(), 8);
    }
}
