//! One per-channel memory controller running the lazy memory scheduler.
//!
//! Each memory cycle ([`MemoryController::tick`]) the controller:
//!
//! 1. completes finished DRAM bursts and returns their responses,
//! 2. advances the `Dyn-DMS` / `Dyn-AMS` window profilers,
//! 3. continues an in-progress AMS drop sequence (one request per cycle),
//! 4. issues at most one DRAM command, chosen FR-FCFS:
//!    * a CAS for the oldest pending row-buffer hit, if any is legal;
//!    * otherwise row management (PRE / ACT) for the oldest pending request
//!      that needs a new row — gated by the DMS delay criterion, and
//!      intercepted by AMS when the row qualifies for dropping.
//!
//! Rows are managed open-page: an open row is only precharged when a pending
//! request needs a different row in the same bank *and* no pending request
//! still targets the open row.
//!
//! # Dormancy
//!
//! A scheduling pass that issues nothing leaves the controller exactly as
//! it found it, apart from one AMS decline count. So such a pass also works
//! out when the next pass could first do something: the earliest timing
//! threshold among the commands it just failed, the DMS gate opening, or
//! the next Dyn-DMS/Dyn-AMS window boundary. Until then the controller
//! sleeps: [`MemoryController::tick`] still runs the window profilers,
//! completions, drop sequences and refresh, but replaces the pass by
//! replaying its decline count. An enqueue, a drop-sequence step or a
//! command issued outside the pass wakes it early. Passes that do run ask
//! the pending queue afresh; each answer scans one bank's short list. See
//! `DESIGN.md` §12.

use crate::ams::{AmsDecline, AmsUnit};
use crate::dms::DmsUnit;
use crate::queue::{PendingQueue, QueueFull};
use lazydram_common::prof::{self, Counter, Phase};
use lazydram_common::snap::Saver;
use lazydram_common::{AccessKind, Arbiter, GpuConfig, Request, RequestId, RowPolicy, SchedConfig};
use lazydram_dram::{DramBackend, MemoryBackend};
use std::collections::VecDeque;

/// A completed memory request returned to the reply network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Id of the originating request.
    pub id: RequestId,
    /// Line-aligned address of the request.
    pub addr: u64,
    /// `true` when the request was dropped by AMS and its value must be
    /// supplied by the value-prediction unit.
    pub approximated: bool,
}

/// The DRAM guards a scheduling pass found closed, as bank masks. Noting
/// a closed guard is a bit set; only a pass that issues nothing turns the
/// masks into timing thresholds, so passes that issue pay nothing extra.
#[derive(Debug, Clone, Copy)]
struct Blocked {
    /// A cycle before which no CAS can issue, when the pass skipped its
    /// row-hit scan for that reason (`u64::MAX` otherwise).
    cas_floor: u64,
    cas_read: u64,
    cas_write: u64,
    pre: u64,
    act: u64,
}

impl Blocked {
    fn new() -> Self {
        Self {
            cas_floor: u64::MAX,
            cas_read: 0,
            cas_write: 0,
            pre: 0,
            act: 0,
        }
    }

    fn cas(&mut self, bank: usize, kind: AccessKind) {
        match kind {
            AccessKind::Read => self.cas_read |= 1 << bank,
            AccessKind::Write => self.cas_write |= 1 << bank,
        }
    }

    /// The first cycle at which any noted guard can open, or any cycle up
    /// to `soon` if one opens by then (no earlier wake is possible).
    fn earliest(&self, backend: &DramBackend, soon: u64) -> u64 {
        let mut wake = self.cas_floor;
        let mut each = |mut mask: u64, ready: &dyn Fn(usize) -> u64| {
            while mask != 0 && wake > soon {
                wake = wake.min(ready(mask.trailing_zeros() as usize));
                mask &= mask - 1;
            }
        };
        each(self.cas_read, &|b| {
            backend.cas_ready_at(b, AccessKind::Read)
        });
        each(self.cas_write, &|b| {
            backend.cas_ready_at(b, AccessKind::Write)
        });
        each(self.pre, &|b| backend.precharge_ready_at(b));
        each(self.act, &|b| backend.activate_ready_at(b));
        wake
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Inflight {
    ready_at: u64,
    resp: Response,
}

/// The lazy memory scheduler for one channel.
#[derive(Debug, Clone)]
pub struct MemoryController {
    queue: PendingQueue,
    backend: DramBackend,
    banks_per_group: usize,
    arbiter: Arbiter,
    row_policy: RowPolicy,
    dms: DmsUnit,
    ams: AmsUnit,
    /// Read bursts in flight inside DRAM (ready_at, response). Data bursts
    /// serialize on the shared bus, so `ready_at` is strictly increasing in
    /// insertion order: the front is always the earliest completion.
    inflight: VecDeque<Inflight>,
    /// Row currently being drop-sequenced by AMS: (flat bank, row,
    /// remaining requests). Bounded by the pending set at decision time so
    /// newly arriving same-row requests are not swept past the coverage cap.
    dropping: Option<(usize, u32, u32)>,
    now: u64,
    /// Whether no-op scheduling passes put the controller to sleep.
    dormancy: bool,
    /// The first memory cycle at which [`MemoryController::schedule`] must
    /// run again; before it, every pass is a proven no-op. Derived state:
    /// never serialized.
    wake_at: u64,
    /// The AMS decline the last (no-op) pass counted, replayed once per
    /// pass skipped while asleep.
    sleep_decline: Option<AmsDecline>,
}

impl MemoryController {
    /// Creates a controller for one channel.
    pub fn new(cfg: &GpuConfig, sched: &SchedConfig) -> Self {
        Self {
            queue: PendingQueue::new(
                cfg.pending_queue_size,
                cfg.banks_per_channel,
                cfg.banks_per_channel / cfg.bank_groups,
            ),
            backend: DramBackend::new(cfg),
            banks_per_group: cfg.banks_per_channel / cfg.bank_groups,
            arbiter: sched.arbiter,
            row_policy: sched.row_policy,
            dms: DmsUnit::new(sched.dms),
            ams: AmsUnit::new(sched.ams, sched.coverage_cap, sched.ams_warmup_requests),
            inflight: VecDeque::new(),
            dropping: None,
            now: 0,
            dormancy: true,
            wake_at: 0,
            sleep_decline: None,
        }
    }

    /// Turns dormancy on (the default) or off. Off, every memory cycle runs
    /// a full scheduling pass; results are identical either way.
    pub fn set_dormancy(&mut self, enabled: bool) {
        self.dormancy = enabled;
        self.wake_at = 0;
    }

    /// Current memory-cycle time of this controller.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending requests.
    pub fn pending_len(&self) -> usize {
        self.queue.len()
    }

    /// `true` when the pending queue can accept another request.
    pub fn can_accept(&self) -> bool {
        !self.queue.is_full()
    }

    /// `true` when no request is pending, in flight, or being dropped.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.inflight.is_empty() && self.dropping.is_none()
    }

    /// The DMS delay currently in force (memory cycles).
    pub fn current_delay(&self) -> u32 {
        self.dms.current_delay()
    }

    /// The AMS RBL threshold currently in force.
    pub fn current_th_rbl(&self) -> u32 {
        self.ams.th_rbl()
    }

    /// The AMS unit (diagnostics).
    pub fn ams(&self) -> &AmsUnit {
        &self.ams
    }

    /// Accumulated DRAM statistics of this controller's backend.
    pub fn stats(&self) -> &lazydram_common::DramStats {
        self.backend.stats()
    }

    /// All-bank refreshes performed by the backend so far.
    pub fn refreshes(&self) -> u64 {
        self.backend.refreshes()
    }

    /// Enqueues a request; its arrival stamp is set to the current cycle.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the pending queue is at capacity; the
    /// caller must retry later (backpressure).
    pub fn enqueue(&mut self, mut req: Request) -> Result<(), QueueFull> {
        if self.queue.is_full() {
            return Err(QueueFull);
        }
        req.arrival = self.now;
        self.wake_at = 0;
        let stats = self.backend.stats_mut();
        stats.requests_received += 1;
        if req.is_global_read() {
            stats.global_reads_received += 1;
        }
        self.queue.push(req)
    }

    /// Advances one memory cycle, pushing completed responses into `out`.
    ///
    /// The buffer is caller-owned so the hot loop can reuse one allocation
    /// across all controllers and cycles; `tick` only appends, it never
    /// clears.
    pub fn tick(&mut self, out: &mut Vec<Response>) {
        self.now += 1;
        let now = self.now;
        // Not worth a profiler tag: `advance_to` is a single max(), and a
        // per-tick prof guard would cost more than the work it measures.
        self.backend.advance_to(now);

        // Window profilers.
        let busy = self.backend.stats().bus_busy_cycles;
        self.dms.tick(now, busy);
        let (dropped, reads) = {
            let s = self.backend.stats();
            (s.dropped, s.global_reads_received)
        };
        self.ams.tick(now, dropped, reads);

        // Completions: ready_at is monotone, so ready bursts sit at the front.
        while let Some(f) = self.inflight.front() {
            if f.ready_at > now {
                break;
            }
            out.push(f.resp);
            self.inflight.pop_front();
        }

        // Continue an AMS drop sequence: one request per cycle, at most the
        // number that were pending when the decision was made.
        // The count is checked before anything is removed: an exhausted
        // sequence must end without taking (and losing) a request.
        if let Some((bank, row, remaining)) = self.dropping {
            self.wake_at = 0;
            let victim = self
                .queue
                .oldest_for_row(bank, row)
                .filter(|_| remaining > 0)
                .map(|(_, r)| r.id)
                .and_then(|id| self.queue.remove(bank, id));
            match victim {
                Some(req) => {
                    self.backend.stats_mut().dropped += 1;
                    out.push(Response {
                        id: req.id,
                        addr: req.addr,
                        approximated: true,
                    });
                    self.dropping = if remaining > 1 {
                        Some((bank, row, remaining - 1))
                    } else {
                        None
                    };
                }
                _ => self.dropping = None,
            }
        }

        // Refresh extension: when an all-bank refresh falls due, close open
        // rows (one per cycle) and issue the refresh before normal work.
        if self.backend.refresh_due(now) {
            if self.backend.can_refresh(now) {
                self.dram(|b| b.refresh(now));
                self.wake_at = 0;
                return;
            }
            let mut open = self.backend.open_banks();
            while open != 0 {
                let bank = open.trailing_zeros() as usize;
                open &= open - 1;
                if self.backend.can_precharge(bank, now) {
                    self.dram(|b| b.precharge(bank, now));
                    self.wake_at = 0;
                    return;
                }
            }
            // Banks still within tRAS: fall through and keep serving.
        }

        if now < self.wake_at {
            // Asleep: this pass would issue nothing and count the same
            // decline as the last one.
            if let Some(why) = self.sleep_decline {
                self.ams.count_decline(why);
            }
            prof::count(Counter::SchedulesSkipped, 1);
            return;
        }
        self.schedule(out);
    }

    /// Ends a pass that issued nothing: with dormancy on, the controller
    /// sleeps until the earliest of `gate` (the DMS gate opening), the
    /// first cycle a `blocked` guard can open, and the next profiler window
    /// boundary, and replays `decline` for each pass it skips. Only the
    /// inputs an enqueue, a drop or a command would change are left
    /// unchecked; those events reset `wake_at` themselves.
    fn sleep(&mut self, blocked: Blocked, gate: u64, decline: Option<AmsDecline>) {
        if !self.dormancy {
            return;
        }
        let mut wake = gate.min(blocked.earliest(&self.backend, self.now + 1));
        if let Some(b) = self.dms.next_window_boundary() {
            wake = wake.min(b);
        }
        if let Some(b) = self.ams.next_window_boundary() {
            wake = wake.min(b);
        }
        self.wake_at = wake.max(self.now + 1);
        self.sleep_decline = decline;
    }

    /// Issues one DRAM command (ACT, PRE, CAS or REF) under the `dram`
    /// profiler phase. The guard wraps each issued command, never a whole
    /// tick, and compiles out without the `prof` feature.
    fn dram<R>(&mut self, cmd: impl FnOnce(&mut DramBackend) -> R) -> R {
        let _t = prof::enter(Phase::Dram);
        cmd(&mut self.backend)
    }

    /// FR-FCFS + DMS + AMS scheduling: issues at most one DRAM command.
    ///
    /// Each selection query scans one bank's pending list, or the bank
    /// fronts for the oldest request. A pass that issues nothing notes the
    /// guards it found closed and ends in [`MemoryController::sleep`].
    fn schedule(&mut self, out: &mut Vec<Response>) {
        let now = self.now;
        let mut blocked = Blocked::new();

        // Pass 1: a CAS for an open row. FR-FCFS picks the oldest hit across
        // all banks; strict FCFS only serves the globally oldest request
        // (no reordering past it).
        let mut best: Option<(u64, RequestId, usize)> = None;
        let cas_floor = self.backend.cas_floor();
        match self.arbiter {
            Arbiter::FrFcfs if cas_floor > now => {
                // The data or command bus rules out every CAS this cycle:
                // the scan would only fail bank by bank.
                blocked.cas_floor = cas_floor;
            }
            Arbiter::FrFcfs => {
                // A hit needs an open row and pending work in that bank:
                // scan only the intersection of the two occupancy masks.
                let mut scan = self.backend.open_banks() & self.queue.bank_mask();
                while scan != 0 {
                    let bank = scan.trailing_zeros() as usize;
                    scan &= scan - 1;
                    let row = self.backend.open_row(bank).expect("bank in open mask");
                    let Some((seq, req)) = self.queue.oldest_for_row(bank, row) else {
                        continue;
                    };
                    if best.is_some_and(|(s, _, _)| s <= seq) {
                        continue;
                    }
                    if self.backend.can_cas(bank, req.kind, now) {
                        best = Some((seq, req.id, bank));
                    } else {
                        blocked.cas(bank, req.kind);
                    }
                }
            }
            Arbiter::Fcfs => {
                if let Some(req) = self.queue.oldest().copied() {
                    let bank = req.loc.flat_bank(self.banks_per_group);
                    if self.backend.open_row(bank) == Some(req.loc.row) {
                        if self.backend.can_cas(bank, req.kind, now) {
                            best = Some((0, req.id, bank));
                        } else {
                            blocked.cas(bank, req.kind);
                        }
                    }
                }
            }
        }
        if let Some((_, id, bank)) = best {
            let req = self.queue.remove(bank, id).expect("candidate still queued");
            let done = self.dram(|b| b.cas(bank, req.kind, req.is_global_read(), now));
            if req.kind == AccessKind::Read {
                self.inflight.push_back(Inflight {
                    ready_at: done,
                    resp: Response {
                        id: req.id,
                        addr: req.addr,
                        approximated: false,
                    },
                });
            }
            return;
        }

        // Closed-page policy: precharge any open row that has no pending
        // requests left, immediately (not gated by DMS — closing is not a
        // new row opening), even when the queue is empty.
        if self.row_policy == RowPolicy::Closed {
            let mut scan = self.backend.open_banks();
            while scan != 0 {
                let bank = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                let open = self.backend.open_row(bank).expect("bank in open mask");
                if self.queue.any_for_row(bank, open) {
                    continue;
                }
                if self.backend.can_precharge(bank, now) {
                    self.dram(|b| b.precharge(bank, now));
                    return;
                }
                blocked.pre |= 1 << bank;
            }
        }

        // Pass 2: row management for requests that need a new row.
        let Some(oldest) = self.queue.oldest().map(|r| r.arrival) else {
            self.sleep(blocked, u64::MAX, None);
            return;
        };
        let oldest_age_ok = self.dms.row_miss_allowed(now.saturating_sub(oldest));
        // The DMS gate holds back every new-row command (and, via criterion
        // 2, every AMS drop). Checked before the per-candidate work so a
        // gated cycle is a pure no-op — the property that lets the
        // controller sleep through stall epochs until the gate opens.
        if !oldest_age_ok {
            let gate = oldest + u64::from(self.dms.current_delay());
            self.sleep(blocked, gate, None);
            return;
        }
        let halted = self.dms.sampling_baseline();

        // Per-bank candidates: the oldest request of a bank whose row is
        // closed (→ ACT) or whose open row has no pending requests left
        // (→ PRE, open-row policy). Under strict FCFS only the globally
        // oldest request is a candidate.
        // Stack-allocated: `nbanks` ≤ 64 (asserted at construction), and the
        // scheduler runs every busy memory cycle — no heap traffic here.
        let mut cands = [(0u64, 0usize, false); 64];
        let mut ncands = 0;
        match self.arbiter {
            Arbiter::FrFcfs => {
                // Only banks with pending requests can produce a candidate
                // (`oldest_for_bank` is None for the rest).
                let mut scan = self.queue.bank_mask();
                while scan != 0 {
                    let bank = scan.trailing_zeros() as usize;
                    scan &= scan - 1;
                    if let Some(cand) = self.row_candidate(bank) {
                        cands[ncands] = cand;
                        ncands += 1;
                    }
                }
            }
            Arbiter::Fcfs => {
                // Strict FCFS manages rows only for the globally oldest
                // request — and closes an open row even if younger requests
                // still want it (that is exactly why FCFS wastes row energy).
                if let Some(req) = self.queue.oldest().copied() {
                    let bank = req.loc.flat_bank(self.banks_per_group);
                    match self.backend.open_row(bank) {
                        Some(open) if open == req.loc.row => {} // hit pending timing
                        Some(_) => {
                            cands[0] = (0, bank, true);
                            ncands = 1;
                        }
                        None => {
                            cands[0] = (0, bank, false);
                            ncands = 1;
                        }
                    }
                }
            }
        }

        // Walk the candidates oldest first, selecting the oldest remaining
        // one at each step: a pass that issues early orders no more.
        let mut decline = None;
        for i in 0..ncands {
            let next = (i..ncands).min_by_key(|&j| cands[j].0).expect("i < ncands");
            cands.swap(i, next);
            let (_, bank, needs_pre) = cands[i];
            if i == 0 {
                // AMS inspects only the oldest row-management candidate
                // (the request about to cause the next activation).
                let req = *self
                    .queue
                    .oldest_for_bank(bank)
                    .expect("candidate exists")
                    .1;
                let (dropped, reads) = {
                    let s = self.backend.stats();
                    (s.dropped, s.global_reads_received)
                };
                let verdict = self.ams.decide(
                    &req,
                    &self.queue,
                    bank,
                    dropped,
                    reads,
                    oldest_age_ok,
                    halted,
                );
                if let Err(why) = verdict {
                    decline = Some(why);
                } else {
                    let pending_now = self.queue.visible_rbl(bank, req.loc.row);
                    if let Some(victim) = self
                        .queue
                        .oldest_for_row(bank, req.loc.row)
                        .map(|(_, r)| r.id)
                        .and_then(|id| self.queue.remove(bank, id))
                    {
                        self.backend.stats_mut().dropped += 1;
                        out.push(Response {
                            id: victim.id,
                            addr: victim.addr,
                            approximated: true,
                        });
                    }
                    // The rest of the row's pending set follows, one per
                    // cycle (Section IV-C).
                    self.dropping = pending_now
                        .checked_sub(2)
                        .map(|rem| (bank, req.loc.row, rem + 1));
                    return;
                }
            }
            if needs_pre {
                if self.backend.can_precharge(bank, now) {
                    self.dram(|b| b.precharge(bank, now));
                    return;
                }
                blocked.pre |= 1 << bank;
            } else {
                let row = self
                    .queue
                    .oldest_for_bank(bank)
                    .expect("candidate exists")
                    .1
                    .loc
                    .row;
                if self.backend.can_activate(bank, now) {
                    self.dram(|b| b.activate(bank, row, now));
                    return;
                }
                blocked.act |= 1 << bank;
            }
        }
        self.sleep(blocked, u64::MAX, decline);
    }

    /// `bank`'s row-management candidacy under FR-FCFS: the sequence number
    /// of its oldest request, the bank, and whether the open row must close
    /// first; or `None` while requests for the open row are pending (maybe
    /// timing-blocked).
    fn row_candidate(&self, bank: usize) -> Option<(u64, usize, bool)> {
        let needs_pre = match self.backend.open_row(bank) {
            Some(open) => {
                if self.queue.any_for_row(bank, open) {
                    return None;
                }
                true
            }
            None => false,
        };
        self.queue
            .oldest_for_bank(bank)
            .map(|(seq, _)| (seq, bank, needs_pre))
    }

    /// Finishes the simulation: closes all open rows so their RBL is
    /// recorded. Returns any still-inflight responses (flushed immediately).
    pub fn drain(&mut self) -> Vec<Response> {
        self.backend.drain();
        let out: Vec<Response> = self.inflight.drain(..).map(|f| f.resp).collect();
        out
    }

    /// Serializes the controller's complete state (pending queue, DRAM
    /// channel, policy units, in-flight bursts, drop sequence, clock) into a
    /// snapshot. Configuration-derived fields (geometry, arbiter, row
    /// policy, modes) are not serialized.
    pub fn save_state(&self, s: &mut Saver) {
        s.frame("pq", 0, |s| self.queue.save_state(s));
        // The frame index carries the backend's stable wire tag, so dumps
        // taken under two backends differ in this frame's header.
        s.frame("chan", self.backend.kind().tag(), |s| {
            self.backend.save_state(s)
        });
        s.frame("dms", 0, |s| self.dms.save_state(s));
        s.frame("ams", 0, |s| self.ams.save_state(s));
        // The remaining scalars live in their own frame so the whole payload
        // is a sequence of frames — the divergence tool walks snapshot
        // regions frame-by-frame (and skips policy-unit frames when
        // comparing architectural state across configurations).
        s.frame("rest", 0, |s| {
            s.seq("inflight", self.inflight.len());
            for f in &self.inflight {
                s.u64("ready_at", f.ready_at);
                s.u64("resp_id", f.resp.id.0);
                s.u64("resp_addr", f.resp.addr);
                s.bool("resp_approx", f.resp.approximated);
            }
            match self.dropping {
                None => s.bool("has_dropping", false),
                Some((bank, row, remaining)) => {
                    s.bool("has_dropping", true);
                    s.usize("drop_bank", bank);
                    s.u32("drop_row", row);
                    s.u32("drop_remaining", remaining);
                }
            }
            s.u64("now", self.now);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_common::config::{AmsMode, DmsMode};
    use lazydram_common::{AddressMap, MemSpace};

    fn cfg() -> GpuConfig {
        GpuConfig::default()
    }

    /// Builds a channel-0 request for `(bank_linear_region, row, col)` by
    /// composing a real address, so location decomposition stays honest.
    fn mkreq(
        map: &AddressMap,
        id: u64,
        region: u64,
        row: u32,
        col: u16,
        kind: AccessKind,
    ) -> Request {
        // region selects the bank via the mapping's region rotation.
        let g = cfg();
        let region_bytes = (g.row_bytes * g.num_channels) as u64;
        let rows_span = (g.banks_per_channel as u64) * region_bytes;
        // Column `col` counts lines within the row: lines alternate within a
        // 256 B chunk, chunks stride across the 6-way channel interleave.
        let col_off = (u64::from(col) / 2) * (256 * 6) + (u64::from(col) % 2) * 128;
        let addr = map.line_of(u64::from(row) * rows_span + region * region_bytes + col_off);
        Request {
            id: RequestId(id),
            addr,
            loc: map.decompose(addr),
            kind,
            space: MemSpace::Global,
            approximable: true,
            arrival: 0,
        }
    }

    fn baseline_mc() -> MemoryController {
        MemoryController::new(&cfg(), &SchedConfig::baseline())
    }

    /// One tick into a fresh caller-owned buffer (the sink API `tick`
    /// exposes; tests trade the allocation for brevity).
    fn tick1(mc: &mut MemoryController) -> Vec<Response> {
        let mut out = Vec::new();
        mc.tick(&mut out);
        out
    }

    fn run_until_idle(mc: &mut MemoryController, max: u64) -> Vec<Response> {
        let mut out = Vec::new();
        for _ in 0..max {
            mc.tick(&mut out);
            if mc.is_idle() {
                break;
            }
        }
        assert!(mc.is_idle(), "controller did not go idle in {max} cycles");
        out
    }

    #[test]
    fn serves_single_read() {
        let map = AddressMap::new(&cfg());
        let mut mc = baseline_mc();
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        let out = run_until_idle(&mut mc, 200);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, RequestId(1));
        assert!(!out[0].approximated);
        let st = mc.stats();
        assert_eq!(st.activations, 1);
        assert_eq!(st.reads, 1);
        assert_eq!(st.row_misses, 1);
    }

    #[test]
    fn row_hits_are_prioritized_over_older_misses() {
        let map = AddressMap::new(&cfg());
        let mut mc = baseline_mc();
        // Open row 0 via request 1, then queue a miss (row 1) and a hit (row 0).
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        for _ in 0..30 {
            tick1(&mut mc);
        }
        mc.enqueue(mkreq(&map, 2, 0, 1, 0, AccessKind::Read))
            .unwrap(); // miss, older
        mc.enqueue(mkreq(&map, 3, 0, 0, 1, AccessKind::Read))
            .unwrap(); // hit, younger
        let out = run_until_idle(&mut mc, 500);
        let pos = |id: u64| out.iter().position(|r| r.id == RequestId(id)).unwrap();
        assert!(pos(3) < pos(2), "row hit must be served before older miss");
        assert_eq!(mc.stats().row_hits, 1);
    }

    #[test]
    fn writes_produce_no_response() {
        let map = AddressMap::new(&cfg());
        let mut mc = baseline_mc();
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Write))
            .unwrap();
        let out = run_until_idle(&mut mc, 200);
        assert!(out.is_empty());
        assert_eq!(mc.stats().writes, 1);
    }

    #[test]
    fn static_dms_delays_row_opening() {
        let map = AddressMap::new(&cfg());
        let mut nodelay = baseline_mc();
        let mut delayed = MemoryController::new(&cfg(), &SchedConfig::static_dms());
        for mc in [&mut nodelay, &mut delayed] {
            mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
                .unwrap();
        }
        let t_nodelay = {
            let mut t = 0;
            for i in 1..500 {
                if !tick1(&mut nodelay).is_empty() {
                    t = i;
                    break;
                }
            }
            t
        };
        let t_delayed = {
            let mut t = 0;
            for i in 1..500 {
                if !tick1(&mut delayed).is_empty() {
                    t = i;
                    break;
                }
            }
            t
        };
        assert!(t_delayed >= t_nodelay + 120, "{t_delayed} vs {t_nodelay}");
    }

    #[test]
    fn dms_improves_rbl_when_same_row_requests_arrive_late() {
        // Figure 3 scenario: requests to rows R1..R4 arrive, then a second
        // batch to the same rows arrives slightly later. Without DMS the
        // controller opens each row twice; with a large enough delay each
        // row is opened once.
        let map = AddressMap::new(&cfg());
        let run = |sched: SchedConfig, gap: u64| {
            let mut mc = MemoryController::new(&cfg(), &sched);
            let mut id = 0;
            for row in 0..4u32 {
                id += 1;
                mc.enqueue(mkreq(&map, id, 0, row, 0, AccessKind::Read))
                    .unwrap();
            }
            for _ in 0..gap {
                tick1(&mut mc);
            }
            for row in 0..4u32 {
                id += 1;
                mc.enqueue(mkreq(&map, id, 0, row, 1, AccessKind::Read))
                    .unwrap();
            }
            let _ = run_until_idle(&mut mc, 5_000);
            let _ = mc.drain();
            mc.stats().clone()
        };
        let base = run(SchedConfig::baseline(), 150);
        let dms = run(
            SchedConfig {
                dms: DmsMode::Static(256),
                ..SchedConfig::baseline()
            },
            150,
        );
        // Baseline: rows R0..R2 are re-opened for the second batch; only the
        // still-open R3 gets a row hit → 4 + 3 = 7 activations.
        assert_eq!(base.activations, 7, "baseline re-opens three rows");
        assert_eq!(dms.activations, 4, "DMS coalesces both batches");
        assert!(dms.rbl.avg_rbl() > base.rbl.avg_rbl());
    }

    #[test]
    fn ams_drops_low_rbl_read_only_rows() {
        let map = AddressMap::new(&cfg());
        let sched = SchedConfig {
            ams: AmsMode::Static(8),
            ams_warmup_requests: 0,
            coverage_cap: 0.5,
            ..SchedConfig::baseline()
        };
        let mut mc = MemoryController::new(&cfg(), &sched);
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        let out = run_until_idle(&mut mc, 200);
        assert_eq!(out.len(), 1);
        assert!(
            out[0].approximated,
            "isolated low-RBL read should be dropped"
        );
        assert_eq!(mc.stats().activations, 0);
        assert_eq!(mc.stats().dropped, 1);
    }

    #[test]
    fn ams_never_drops_rows_with_writes() {
        let map = AddressMap::new(&cfg());
        let sched = SchedConfig {
            ams: AmsMode::Static(8),
            ams_warmup_requests: 0,
            coverage_cap: 0.5,
            ..SchedConfig::baseline()
        };
        let mut mc = MemoryController::new(&cfg(), &sched);
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        mc.enqueue(mkreq(&map, 2, 0, 0, 1, AccessKind::Write))
            .unwrap();
        let out = run_until_idle(&mut mc, 500);
        assert_eq!(out.len(), 1);
        assert!(!out[0].approximated);
        assert_eq!(mc.stats().dropped, 0);
        assert_eq!(mc.stats().activations, 1);
    }

    #[test]
    fn ams_respects_coverage_cap() {
        let map = AddressMap::new(&cfg());
        let sched = SchedConfig {
            ams: AmsMode::Static(8),
            ams_warmup_requests: 0,
            coverage_cap: 0.10,
            ..SchedConfig::baseline()
        };
        let mut mc = MemoryController::new(&cfg(), &sched);
        // 30 isolated reads to distinct rows; cap 10 % → at most 3 dropped.
        for i in 0..30u64 {
            mc.enqueue(mkreq(&map, i + 1, 0, i as u32, 0, AccessKind::Read))
                .unwrap();
            for _ in 0..60 {
                tick1(&mut mc);
            }
        }
        run_until_idle(&mut mc, 10_000);
        let st = mc.stats();
        assert!(st.dropped <= 3 + 8, "cap plus one bounded drop sequence");
        assert!(st.coverage() <= 0.10 + 8.0 / 30.0);
        assert!(st.dropped >= 1, "some drops must happen");
    }

    #[test]
    fn drop_sequence_drops_whole_row_one_per_cycle() {
        let map = AddressMap::new(&cfg());
        let sched = SchedConfig {
            ams: AmsMode::Static(8),
            ams_warmup_requests: 0,
            coverage_cap: 1.0,
            ..SchedConfig::baseline()
        };
        let mut mc = MemoryController::new(&cfg(), &sched);
        for i in 0..3u64 {
            mc.enqueue(mkreq(&map, i + 1, 0, 0, i as u16, AccessKind::Read))
                .unwrap();
        }
        let out = run_until_idle(&mut mc, 100);
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|r| r.approximated));
        assert_eq!(mc.stats().activations, 0);
        assert_eq!(mc.stats().dropped, 3);
    }

    /// Figure 8: DMS makes AMS drop the *right* request.
    ///
    /// Nine requests target rows R1..R5 of one bank: two each to R1..R4 and
    /// one to R5, but the second batch (one more to each of R1..R4) arrives
    /// late. AMS alone (Th_RBL = 1) sees five RBL(1) rows and wrongly drops
    /// the oldest (R1). With DMS the gate holds until the second batch is
    /// visible, so only R5 still has RBL(1) and gets dropped.
    #[test]
    fn fig8_dms_helps_ams_drop_accuracy() {
        let map = AddressMap::new(&cfg());
        let run = |dms: DmsMode| {
            let sched = SchedConfig {
                dms,
                ams: AmsMode::Static(1),
                ams_warmup_requests: 0,
                coverage_cap: 0.11, // one drop in nine requests
                ..SchedConfig::baseline()
            };
            let mut mc = MemoryController::new(&cfg(), &sched);
            let mut id = 0;
            for row in 1..=5u32 {
                id += 1;
                mc.enqueue(mkreq(&map, id, 0, row, 0, AccessKind::Read))
                    .unwrap();
            }
            // Let AMS-alone act before the second batch arrives, but keep
            // the gap short enough that rows opened for the first batch are
            // still open when the second batch lands (as in Figure 8).
            let mut out = Vec::new();
            for _ in 0..20 {
                out.extend(tick1(&mut mc));
            }
            for row in 1..=4u32 {
                id += 1;
                mc.enqueue(mkreq(&map, id, 0, row, 1, AccessKind::Read))
                    .unwrap();
            }
            out.extend(run_until_idle(&mut mc, 5_000));
            let dropped: Vec<u64> = out
                .iter()
                .filter(|r| r.approximated)
                .map(|r| r.id.0)
                .collect();
            (dropped, mc.stats().clone())
        };

        let (dropped_ams, st_ams) = run(DmsMode::Off);
        assert_eq!(dropped_ams, vec![1], "AMS alone drops oldest (R1)");
        // R1's second request still activates R1: activations stay at 5.
        assert_eq!(st_ams.activations, 5);

        let (dropped_both, st_both) = run(DmsMode::Static(64));
        assert_eq!(
            dropped_both,
            vec![5],
            "with DMS the RBL(1) row R5 is dropped"
        );
        assert_eq!(st_both.activations, 4);
        assert!(st_both.rbl.avg_rbl() > st_ams.rbl.avg_rbl());
    }

    #[test]
    fn queue_full_applies_backpressure() {
        let map = AddressMap::new(&cfg());
        let g = GpuConfig {
            pending_queue_size: 4,
            ..cfg()
        };
        let mut mc = MemoryController::new(&g, &SchedConfig::baseline());
        for i in 0..4u64 {
            mc.enqueue(mkreq(&map, i + 1, 0, i as u32, 0, AccessKind::Read))
                .unwrap();
        }
        assert!(!mc.can_accept());
        assert!(mc
            .enqueue(mkreq(&map, 99, 0, 9, 0, AccessKind::Read))
            .is_err());
    }

    #[test]
    fn fcfs_arbiter_serves_strictly_in_order() {
        use lazydram_common::Arbiter;
        let map = AddressMap::new(&cfg());
        let sched = SchedConfig {
            arbiter: Arbiter::Fcfs,
            ..SchedConfig::baseline()
        };
        let mut mc = MemoryController::new(&cfg(), &sched);
        // Open row 0 via request 1, then queue a miss (row 1) and a would-be
        // hit (row 0). Strict FCFS must serve the older miss first.
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        for _ in 0..30 {
            tick1(&mut mc);
        }
        mc.enqueue(mkreq(&map, 2, 0, 1, 0, AccessKind::Read))
            .unwrap(); // miss, older
        mc.enqueue(mkreq(&map, 3, 0, 0, 1, AccessKind::Read))
            .unwrap(); // hit, younger
        let out = run_until_idle(&mut mc, 2_000);
        let pos = |id: u64| out.iter().position(|r| r.id == RequestId(id)).unwrap();
        assert!(
            pos(2) < pos(3),
            "FCFS must not reorder the hit past the miss"
        );
    }

    #[test]
    fn closed_page_precharges_idle_rows() {
        use lazydram_common::RowPolicy;
        let map = AddressMap::new(&cfg());
        let sched = SchedConfig {
            row_policy: RowPolicy::Closed,
            ..SchedConfig::baseline()
        };
        let mut mc = MemoryController::new(&cfg(), &sched);
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        run_until_idle(&mut mc, 500);
        // Give the policy time to close the row.
        for _ in 0..80 {
            tick1(&mut mc);
        }
        // A second request to the same row must re-activate it.
        mc.enqueue(mkreq(&map, 2, 0, 0, 1, AccessKind::Read))
            .unwrap();
        run_until_idle(&mut mc, 500);
        // Let the policy close the second activation too (tRAS must pass).
        for _ in 0..80 {
            tick1(&mut mc);
        }
        let st = mc.stats();
        assert_eq!(
            st.activations, 2,
            "closed-page must have closed the idle row"
        );
        assert_eq!(st.precharges, 2);
    }

    #[test]
    fn open_page_keeps_idle_rows_open() {
        let map = AddressMap::new(&cfg());
        let mut mc = baseline_mc();
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        run_until_idle(&mut mc, 500);
        for _ in 0..80 {
            tick1(&mut mc);
        }
        mc.enqueue(mkreq(&map, 2, 0, 0, 1, AccessKind::Read))
            .unwrap();
        run_until_idle(&mut mc, 500);
        assert_eq!(mc.stats().activations, 1, "open-page keeps the row");
        assert_eq!(mc.stats().row_hits, 1);
    }

    #[test]
    fn refresh_extension_interleaves_with_service() {
        use lazydram_common::DramTimings;
        let map = AddressMap::new(&cfg());
        let g = GpuConfig {
            timings: DramTimings {
                t_refi: 200,
                t_rfc: 40,
                ..DramTimings::default()
            },
            ..cfg()
        };
        let mut mc = MemoryController::new(&g, &SchedConfig::baseline());
        let mut out = Vec::new();
        let mut id = 0;
        for t in 0..2_000u64 {
            if t % 37 == 0 && mc.can_accept() {
                id += 1;
                mc.enqueue(mkreq(
                    &map,
                    id,
                    id % 4,
                    (id % 3) as u32,
                    0,
                    AccessKind::Read,
                ))
                .unwrap();
            }
            out.extend(tick1(&mut mc));
        }
        while !mc.is_idle() {
            out.extend(tick1(&mut mc));
        }
        assert_eq!(out.len() as u64, id, "all reads answered despite refreshes");
        assert!(mc.refreshes() >= 5, "refreshes kept recurring");
    }

    #[test]
    fn drain_records_open_row_rbl() {
        let map = AddressMap::new(&cfg());
        let mut mc = baseline_mc();
        mc.enqueue(mkreq(&map, 1, 0, 0, 0, AccessKind::Read))
            .unwrap();
        run_until_idle(&mut mc, 200);
        assert_eq!(mc.stats().rbl.activations(), 0, "row still open");
        mc.drain();
        assert_eq!(mc.stats().rbl.count(1), 1);
    }

    #[test]
    fn exhausted_drop_sequence_takes_no_request() {
        let map = AddressMap::new(&cfg());
        let mut mc = baseline_mc();
        let req = mkreq(&map, 1, 0, 0, 0, AccessKind::Read);
        mc.enqueue(req).unwrap();
        mc.dropping = Some((req.loc.flat_bank(mc.banks_per_group), req.loc.row, 0));
        assert!(
            tick1(&mut mc).is_empty(),
            "the empty sequence answers nothing"
        );
        assert_eq!(mc.dropping, None, "the sequence ends");
        assert_eq!(mc.pending_len(), 1, "the request is still queued");
        let out = run_until_idle(&mut mc, 500);
        assert_eq!(out.len(), 1, "the request is served, not lost");
        assert!(out[0].id == RequestId(1) && !out[0].approximated);
        assert_eq!(mc.stats().dropped, 0);
    }

    /// Drives a controller that sleeps and a twin that schedules every
    /// cycle with one random request stream (a few banks and rows, so row
    /// conflicts keep ACT and PRE timing-blocked) and checks them cycle by
    /// cycle: responses, DRAM commands (through the statistics) and the
    /// AMS histogram. Returns how many cycles the sleeper spent asleep.
    fn lockstep(sched: SchedConfig, cycles: u64, seed: u64) -> u64 {
        let map = AddressMap::new(&cfg());
        let mut sleepy = MemoryController::new(&cfg(), &sched);
        let mut eager = MemoryController::new(&cfg(), &sched);
        eager.set_dormancy(false);
        let mut rng = lazydram_common::SplitMix64::new(seed);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (mut id, mut asleep) = (0, 0);
        for t in 0..cycles {
            if rng.below(3) == 0 && sleepy.can_accept() {
                id += 1;
                let kind = if rng.below(4) == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let (region, row, col) = (rng.below(3), rng.below(6) as u32, rng.below(8) as u16);
                let req = mkreq(&map, id, region, row, col, kind);
                sleepy.enqueue(req).unwrap();
                eager.enqueue(req).unwrap();
            }
            if sleepy.wake_at > sleepy.now + 1 {
                asleep += 1;
            }
            a.clear();
            b.clear();
            sleepy.tick(&mut a);
            eager.tick(&mut b);
            assert_eq!(a, b, "responses differ at cycle {t}");
            assert_eq!(
                sleepy.stats(),
                eager.stats(),
                "commands differ at cycle {t}"
            );
            assert_eq!(
                sleepy.ams().declines,
                eager.ams().declines,
                "declines differ at cycle {t}"
            );
            assert_eq!(
                sleepy.ams().accepts,
                eager.ams().accepts,
                "accepts differ at cycle {t}"
            );
        }
        assert!(eager.wake_at == 0, "the eager twin never sleeps");
        asleep
    }

    #[test]
    fn sleeping_controller_matches_an_eager_one_under_static_ams() {
        let sched = SchedConfig {
            ams_warmup_requests: 16,
            ..SchedConfig::static_ams()
        };
        for seed in 1..4 {
            assert!(
                lockstep(sched.clone(), 6_000, seed) > 0,
                "seed {seed} never slept"
            );
        }
    }

    #[test]
    fn sleeping_controller_matches_an_eager_one_under_dyn_ams() {
        // Long enough to cross several 4096-cycle profiler windows.
        for sched in [SchedConfig::dyn_ams(), SchedConfig::dyn_combo()] {
            let sched = SchedConfig {
                ams_warmup_requests: 16,
                ..sched
            };
            assert!(lockstep(sched, 20_000, 7) > 0, "never slept");
        }
    }

    #[test]
    fn sleeping_controller_matches_an_eager_one_under_static_dms() {
        assert!(
            lockstep(SchedConfig::static_dms(), 6_000, 11) > 0,
            "never slept"
        );
    }

    #[test]
    fn enqueue_wakes_a_sleeping_controller() {
        let map = AddressMap::new(&cfg());
        let sched = SchedConfig::static_dms();
        let mut sleepy = MemoryController::new(&cfg(), &sched);
        let mut eager = MemoryController::new(&cfg(), &sched);
        eager.set_dormancy(false);
        let mut both = |req: Option<Request>, ticks: u64| {
            let (mut a, mut b) = (Vec::new(), Vec::new());
            if let Some(req) = req {
                sleepy.enqueue(req).unwrap();
                eager.enqueue(req).unwrap();
                assert_eq!(sleepy.wake_at, 0, "an enqueue wakes the controller");
            }
            for _ in 0..ticks {
                sleepy.tick(&mut a);
                eager.tick(&mut b);
            }
            assert_eq!(a, b);
            assert_eq!(sleepy.stats(), eager.stats());
            (a, sleepy.wake_at > sleepy.now + 1)
        };
        // Open row 0, then park a row miss behind the 128-cycle DMS gate:
        // the controller sleeps until the gate opens.
        let (served, _) = both(Some(mkreq(&map, 1, 0, 0, 0, AccessKind::Read)), 400);
        assert_eq!(served.len(), 1);
        let (_, asleep) = both(Some(mkreq(&map, 2, 0, 1, 0, AccessKind::Read)), 10);
        assert!(asleep, "a gated row miss puts the controller to sleep");
        // A row hit arrives mid-sleep: it must be served at once (hits are
        // never gated), not when the gate opens.
        let (served, _) = both(Some(mkreq(&map, 3, 0, 0, 1, AccessKind::Read)), 60);
        assert_eq!(served.len(), 1, "the hit is served before the gate opens");
        assert_eq!(served[0].id, RequestId(3));
        let (served, _) = both(None, 400);
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].id, RequestId(2), "the gated miss follows");
    }
}
