//! A streaming multiprocessor: warp slots, warp scheduler, L1 cache, MSHRs.
//!
//! Each SM holds up to `warps_per_sm` resident warps and issues up to
//! `issue_width` warp instructions per core cycle with a loose round-robin
//! scheduler. Loads arrive as lists of contiguous lane runs and stay in that
//! form: they are coalesced to 128-byte lines run by run, looked up in the
//! (tag-only) L1, merged in the L1 MSHRs, and forwarded to the home L2 slice
//! through the request interconnect. A warp blocks until every line of its
//! load has arrived; values are assembled line-at-a-time from the functional
//! memory image — or from value-predictor output for lines whose DRAM
//! request was dropped by AMS.
//!
//! The issue path is allocation-free in steady state: programs emit into the
//! SM's reusable [`OpBuf`], and all per-load / per-store bookkeeping lives in
//! slot-persistent buffers whose capacity survives across ops *and* across
//! the warps that occupy the slot.

use crate::cache::{AccessResult, Cache};
use crate::kernel::{Kernel, OpBuf, OpKind, WarpProgram};
use crate::memimg::{line_chunks, push_run, MemoryImage, OverlayView, Run, LINE_BYTES};
use crate::noc::DelayQueue;
use lazydram_common::snap::{Loader, Saver, SnapError, SnapResult};
use lazydram_common::FastMap;
use lazydram_common::{AddressMap, GpuConfig};

/// A request from an SM to an L2 slice (line granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SliceReq {
    /// Originating SM.
    pub sm: usize,
    /// Line-aligned address.
    pub line: u64,
    /// `true` for a write-through store (no reply expected).
    pub write: bool,
    /// `pragma pred_var` annotation for the line.
    pub approximable: bool,
}

/// A reply from an L2 slice to an SM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Reply {
    /// Line-aligned address.
    pub line: u64,
    /// `Some(values)` when the line was approximated by the VP unit; `None`
    /// when exact data should be read from the memory image.
    pub values: Option<[f32; 32]>,
}

/// Blocked-load bookkeeping. Lives permanently in the slot (meaningful only
/// while the warp is `Waiting`) so its buffers are refilled in place instead
/// of reallocated per load.
#[derive(Debug)]
struct LoadWait {
    /// The parked load's lane runs, in lane order.
    runs: Vec<Run>,
    /// Outstanding miss lines; a load coalesces to a handful of lines, so a
    /// flat vector with `swap_remove` beats a hash set.
    pending: Vec<u64>,
    /// Missing lines whose request has not been sent yet (MSHR / NoC
    /// backpressure); drained opportunistically each cycle.
    unsent: Vec<u64>,
    /// Value-predictor data per approximated line, linearly searched — at
    /// most one entry per coalesced line.
    approx: Vec<(u64, [f32; 32])>,
}

impl LoadWait {
    const fn new() -> Self {
        Self {
            runs: Vec::new(),
            pending: Vec::new(),
            unsent: Vec::new(),
            approx: Vec::new(),
        }
    }
}

enum WarpState {
    /// Can issue its next operation.
    Ready,
    /// Burning through a `Compute(n)` op.
    Computing { left: u32 },
    /// Blocked on an outstanding load (details in the slot's `wait`).
    Waiting,
    /// Retired.
    Done,
}

/// A store's line coalescing and per-slice request counts, computed once at
/// first attempt. On NoC backpressure the plan parks in the slot
/// (`store_parked`) and a retry only re-checks free space (O(#channels))
/// instead of re-deriving the whole plan from the lane writes every cycle.
/// Lives permanently in the slot so its buffers are reused across stores.
struct StorePlan {
    writes: Vec<(u64, f32)>,
    /// Distinct line addresses, in first-touch order.
    lines: Vec<u64>,
    /// `(channel, requests)` pairs the store needs to place atomically.
    per_slice: Vec<(usize, usize)>,
}

impl StorePlan {
    const fn new() -> Self {
        Self { writes: Vec::new(), lines: Vec::new(), per_slice: Vec::new() }
    }
}

/// One warp slot. `program.is_none()` ⇔ the slot is empty; the scratch
/// buffers (`wait`, `store`, `last_loaded`) persist for the SM's lifetime,
/// so successive warps occupying the slot inherit warmed capacity.
struct WarpSlot {
    program: Option<Box<dyn WarpProgram>>,
    /// Warp id the occupying program was built for ([`Kernel::program`]);
    /// meaningless while the slot is empty. Checkpoint restore uses it to
    /// reconstruct the program before loading its dynamic state.
    warp_id: usize,
    state: WarpState,
    /// Blocked-load bookkeeping; valid only while `state` is `Waiting`.
    wait: LoadWait,
    /// The current store's coalescing plan; valid while a store is being
    /// issued or is parked on backpressure.
    store: StorePlan,
    /// `true` while `store` holds a plan that hit a structural hazard and
    /// must be retried before the warp can advance.
    store_parked: bool,
    /// Values delivered by the last load, consumed by the next `next()` call.
    last_loaded: Vec<f32>,
    /// [`Sm::mem_epoch`] value as of this slot's last drain attempt. A
    /// retry with an unchanged epoch cannot probe-hit or merge any unsent
    /// line; combined with `unsent_channels` it makes futile retries O(1).
    /// Derived state — not serialized; restore marks it stale.
    drain_epoch: u64,
    /// Bitmask of request-NoC channels the slot's still-unsent miss lines
    /// target, as of the last drain attempt. Valid only when `drain_epoch`
    /// matches the SM's current `mem_epoch`.
    unsent_channels: u32,
}

impl WarpSlot {
    fn empty() -> Self {
        Self {
            program: None,
            warp_id: 0,
            state: WarpState::Done,
            wait: LoadWait::new(),
            store: StorePlan::new(),
            store_parked: false,
            last_loaded: Vec::new(),
            drain_epoch: u64::MAX,
            unsent_channels: 0,
        }
    }
}

/// Per-SM staging area for one cycle of the phased tick.
///
/// During phase A every SM ticks against a *read-only* memory image and a
/// cycle-start snapshot of the request-NoC occupancy; its side effects —
/// outbound slice requests and functional store writes — accumulate here
/// and are committed in phase B in ascending SM order, so no SM observes
/// another SM's effects from the same cycle.
pub(crate) struct SmStage {
    /// `(channel, request)` in stage order; phase B pushes them into the
    /// per-channel `req_noc` queues in exactly this order.
    pub reqs: Vec<(usize, SliceReq)>,
    /// Functional lane writes in program order; phase B commits them to
    /// the shared [`MemoryImage`]. Until then they overlay this SM's own
    /// reads (see [`OverlayView`]).
    pub writes: Vec<(u64, f32)>,
    /// This SM's local view of request-NoC free slots: the cycle-start
    /// snapshot minus what this SM has staged this cycle. Every SM sees
    /// the *same* snapshot, so reservations are interleaving-independent;
    /// the queues absorb the (bounded) oversubscription via
    /// `push_unchecked`.
    free: Vec<usize>,
}

impl SmStage {
    pub fn new(channels: usize) -> Self {
        Self {
            reqs: Vec::new(),
            writes: Vec::new(),
            free: vec![0; channels],
        }
    }

    /// Resets the stage for a new cycle against the given cycle-start
    /// free-slot snapshot (one entry per request-NoC channel).
    pub fn begin_cycle(&mut self, free0: &[usize]) {
        self.reqs.clear();
        self.writes.clear();
        self.free.clear();
        self.free.extend_from_slice(free0);
    }

    /// Free request-NoC slots on `ch` as this SM sees them.
    pub fn free(&self, ch: usize) -> usize {
        self.free[ch]
    }

    /// Stages a request on `ch`, consuming one reserved slot.
    pub fn push_req(&mut self, ch: usize, req: SliceReq) {
        debug_assert!(self.free[ch] > 0, "staging past the reserved snapshot");
        self.free[ch] -= 1;
        self.reqs.push((ch, req));
    }

    /// Stages functional store writes for the phase-B commit.
    pub fn stage_writes(&mut self, writes: &[(u64, f32)]) {
        self.writes.extend_from_slice(writes);
    }
}

/// Context an SM needs while ticking (phase A of the phased tick). The
/// image is shared read-only across concurrently ticking SMs; all side
/// effects go through `stage`.
pub(crate) struct SmCtx<'a> {
    pub image: &'a MemoryImage,
    pub map: &'a AddressMap,
    pub kernel: &'a dyn Kernel,
    /// This SM's staging area for the cycle.
    pub stage: &'a mut SmStage,
}

/// Visits the set bits of `mask` in rotated index order — `start..128`, then
/// `0..start` — calling `f(idx)` for each; stops early when `f` returns
/// `false`. This walks exactly the slots a linear scan from `start` would
/// visit, in the same order, without touching the empty ones.
fn for_each_bit_rotated(mask: u128, start: usize, mut f: impl FnMut(usize) -> bool) {
    let split = u128::MAX << start;
    for mut m in [mask & split, mask & !split] {
        while m != 0 {
            let idx = m.trailing_zeros() as usize;
            if !f(idx) {
                return;
            }
            m &= m - 1;
        }
    }
}

/// Appends to `lines` (which starts empty) the distinct 128-byte lines
/// covered by `spans`, in first-touch order. Each span is the inclusive
/// `(first, last)` line range of a run of consecutive words (a single lane
/// is a one-line span), so walking a span's lines in rising order touches
/// them in exactly the order its lanes do: the result equals per-lane
/// first-touch coalescing of the expanded lane sequence.
///
/// While `lines` is strictly rising — the common case: rising runs, or
/// repeats of the latest line — a line is either the last entry again or
/// new, so it costs one comparison. Anything else falls back to a
/// membership scan, which is correct for arbitrary orders.
fn coalesce_spans(lines: &mut Vec<u64>, spans: impl Iterator<Item = (u64, u64)>) {
    debug_assert!(lines.is_empty(), "coalesce_spans fills a cleared buffer");
    let mut rising = true;
    for (first, last) in spans {
        let mut l = first;
        loop {
            match lines.last() {
                Some(&tail) if tail == l => {}
                Some(&tail) if rising && tail < l => lines.push(l),
                None => lines.push(l),
                Some(_) => {
                    if !lines.contains(&l) {
                        // Either the list is already unordered or `l`
                        // lands below its tail: it is not rising any more.
                        rising = false;
                        lines.push(l);
                    }
                }
            }
            if l == last {
                break;
            }
            l += LINE_BYTES;
        }
    }
}

/// One streaming multiprocessor.
///
/// The warp scheduler is index-based round-robin, but the per-cycle scan
/// runs over two slot bitmasks instead of the slot vector: `issueable`
/// (warps that could issue this cycle) and `unsent` (blocked loads with
/// backpressured miss lines). On stall-heavy cycles — the common case under
/// DMS — both masks are zero and [`Sm::tick`] returns without touching any
/// slot state, which is also what lets [`Sm::has_work`] answer in O(1).
pub(crate) struct Sm {
    id: usize,
    issue_width: usize,
    l1: Cache,
    slots: Vec<WarpSlot>,
    rr: usize,
    mshr: FastMap<u64, Vec<usize>>,
    mshr_capacity: usize,
    /// Round-robin cursor for draining backpressured loads.
    drain_rr: usize,
    /// Bit `i` set ⇔ slot `i` can attempt issue: Ready, Computing, or
    /// retrying a structurally stalled op.
    issueable: u128,
    /// Bit `i` set ⇔ slot `i` is Waiting with a non-empty `unsent` list.
    unsent: u128,
    /// Bit `i` set ⇔ slot `i` holds a parked store plan — issueable, but
    /// only effectful once the request NoC has room for it.
    stalled: u128,
    /// Bit `i` set ⇔ slot `i` is `Computing { .. }`: issueable, but with no
    /// external effect until its burst ends. Disjoint from `stalled` (a
    /// store only parks from `Ready`), so `issueable & !stalled & !computing`
    /// is exactly the slots whose next issue is a real op.
    computing: u128,
    /// Warp instructions retired.
    pub instructions: u64,
    /// Loads whose value was (partly) approximated.
    pub approximated_loads: u64,
    live_warps: usize,
    /// Reusable buffer for miss lines that arrived while unsent (drain path).
    scratch_arrived: Vec<u64>,
    /// Reusable buffer for coalescing lane addresses to distinct lines.
    scratch_lines: Vec<u64>,
    /// The SM's reusable warp-op emission buffer ([`WarpProgram::next`] sink).
    opbuf: OpBuf,
    /// Retired MSHR waiter lists, recycled so a new miss entry does not
    /// allocate.
    waiter_pool: Vec<Vec<usize>>,
    /// Bumped whenever SM-local memory state that can unblock an unsent
    /// miss line changes: an L1 fill (a blocked line may now probe-hit) or
    /// a fresh MSHR entry (a blocked line may now merge). Together with
    /// each slot's `drain_epoch`/`unsent_channels` it proves a drain retry
    /// futile without re-scanning the slot's unsent lines.
    mem_epoch: u64,
    /// `parked_need[ch]`: bit `i` set ⇔ slot `i` holds a parked store whose
    /// plan needs at least one request-NoC slot on channel `ch`. Lets the
    /// issue scan mask out, in O(#channels), every parked retry that is
    /// guaranteed to fail because a needed channel has no free slot at all
    /// — the dominant scan traffic under store backpressure. Maintained on
    /// the park/unpark transitions in [`Sm::commit_store`] (and rebuilt on
    /// snapshot restore); purely an acceleration structure, never consulted
    /// for anything a failed retry's own check would not conclude.
    parked_need: Vec<u128>,
}

impl Sm {
    pub fn new(id: usize, cfg: &GpuConfig) -> Self {
        assert!(
            cfg.warps_per_sm <= 128,
            "warps_per_sm = {} exceeds the 128-slot scheduler bitmask",
            cfg.warps_per_sm
        );
        Self {
            id,
            issue_width: cfg.issue_width,
            l1: Cache::new(cfg.l1_bytes, cfg.l1_ways, cfg.line_bytes),
            slots: (0..cfg.warps_per_sm).map(|_| WarpSlot::empty()).collect(),
            rr: 0,
            mshr: FastMap::default(),
            mshr_capacity: cfg.l1_mshrs,
            drain_rr: 0,
            issueable: 0,
            unsent: 0,
            stalled: 0,
            computing: 0,
            instructions: 0,
            approximated_loads: 0,
            live_warps: 0,
            scratch_arrived: Vec::new(),
            scratch_lines: Vec::new(),
            opbuf: OpBuf::new(),
            waiter_pool: Vec::new(),
            mem_epoch: 0,
            parked_need: vec![0; cfg.num_channels],
        }
    }

    /// Recomputes slot `idx`'s bits in the scheduler masks from its state.
    /// Must be called after any mutation that can change the slot's
    /// issueability or its unsent-miss backlog.
    fn refresh_masks(&mut self, idx: usize) {
        let bit = 1u128 << idx;
        let slot = &self.slots[idx];
        let (issueable, unsent, stalled, computing) = if slot.program.is_none() {
            (false, false, false, false)
        } else {
            (
                slot.store_parked
                    || matches!(slot.state, WarpState::Ready | WarpState::Computing { .. }),
                matches!(slot.state, WarpState::Waiting) && !slot.wait.unsent.is_empty(),
                slot.store_parked,
                matches!(slot.state, WarpState::Computing { .. }),
            )
        };
        self.issueable = if issueable { self.issueable | bit } else { self.issueable & !bit };
        self.unsent = if unsent { self.unsent | bit } else { self.unsent & !bit };
        self.stalled = if stalled { self.stalled | bit } else { self.stalled & !bit };
        self.computing = if computing { self.computing | bit } else { self.computing & !bit };
    }

    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Number of resident, unfinished warps.
    pub fn live_warps(&self) -> usize {
        self.live_warps
    }

    /// `true` when ticking this SM unconditionally does something this
    /// cycle: a warp can issue (Ready or Computing) or a blocked load still
    /// has unsent miss lines *and* a free MSHR to send one through — with
    /// every MSHR occupied, [`Sm::tick`] never even attempts a drain, so the
    /// cycle is a provable no-op despite the backlog. Two kinds of blocked
    /// warps are deliberately excluded: warps waiting purely on replies wake
    /// via the reply NoC, which the event-driven loop tracks separately, and
    /// warps holding a parked store retry are covered by
    /// [`Sm::stalled_store_ready`] — their retry fails identically every
    /// cycle until the request NoC frees up, which can only happen on a
    /// tracked event. O(1): answered from the scheduler masks.
    pub fn has_work(&self) -> bool {
        (self.issueable & !self.stalled) != 0
            || (self.unsent != 0 && self.mshr.len() < self.mshr_capacity)
    }

    /// `true` when some parked store's retry would succeed right now, i.e.
    /// every `(slice, count)` demand of its plan fits in the request NoC.
    /// While no SM pushes and no slice pops, `free()` is constant, so a
    /// retry that fails now fails the same way every cycle of a skipped
    /// span — only a retry that would succeed constitutes an event.
    pub fn stalled_store_ready(&self, req_noc: &[DelayQueue<SliceReq>]) -> bool {
        let mut ready = false;
        for_each_bit_rotated(self.stalled, 0, |idx| {
            let slot = &self.slots[idx];
            let fits = slot.store_parked
                && slot
                    .store
                    .per_slice
                    .iter()
                    .all(|&(slice, count)| req_noc[slice].free() >= count);
            if fits {
                ready = true;
            }
            !fits
        });
        ready
    }

    /// The earliest core cycle at which this SM needs a real [`Sm::tick`] —
    /// the first cycle its behavior stops being analytically predictable
    /// from the current state. `now` is the last completed cycle.
    ///
    /// * `Some(now + 1)` — a `Ready` warp can issue a real op next cycle,
    ///   or a blocked load has unsent miss lines and a free MSHR to drain
    ///   one through.
    /// * `Some(t)`, `t > now + 1` — every issueable warp is `Computing` (or
    ///   holds a parked store whose retry is a scan no-op): the round-robin
    ///   grant schedule is deterministic, so the earliest burst end — and
    ///   with it the first externally visible issue — is computable in
    ///   closed form. [`Sm::advance_compute`] replays any span ending
    ///   strictly before `t`.
    /// * `None` — nothing on this SM can act without an external stimulus:
    ///   no live warps, or only warps waiting on replies / holding parked
    ///   stores. Those wake via events the master loop already tracks
    ///   (reply-NoC heads, [`Sm::stalled_store_ready`]).
    ///
    /// With `w` computing warps and `g = min(w, issue_width)` grants per
    /// cycle, grants rotate through the computing slots purely cyclically
    /// (parked-store retries fail without consuming an issue slot or moving
    /// `rr`), so the warp at rotated position `o` with `left` grants to go
    /// receives its last grant — global grant index `o + (left-1)*w` — on
    /// cycle `now + (o + (left-1)*w) / g + 1` and can issue a real op the
    /// cycle after.
    pub fn next_external_event(&self, now: u64) -> Option<u64> {
        if self.live_warps == 0 {
            return None;
        }
        if (self.issueable & !self.stalled & !self.computing) != 0
            || (self.unsent != 0 && self.mshr.len() < self.mshr_capacity)
        {
            return Some(now + 1);
        }
        if self.computing == 0 {
            return None;
        }
        let n = self.slots.len();
        let w = u64::from(self.computing.count_ones());
        let g = w.min(self.issue_width as u64);
        let mut pos = 0u64;
        let mut first_end = u64::MAX;
        for_each_bit_rotated(self.computing, self.rr % n, |idx| {
            let WarpState::Computing { left } = self.slots[idx].state else {
                unreachable!("computing mask desynced from slot state");
            };
            debug_assert!(left >= 1, "a Computing warp always has work left");
            let last_grant = pos + (u64::from(left) - 1) * w;
            first_end = first_end.min(last_grant / g + 1);
            pos += 1;
            true
        });
        Some(now + first_end + 1)
    }

    /// Replays `cycles` pure compute-issue cycles of the round-robin
    /// schedule in closed form: decrements each `Computing` warp's `left`
    /// by exactly the grants the naive per-cycle loop would have issued it,
    /// transitions warps whose burst ends to `Ready`, and advances
    /// `instructions` and the `rr` cursor to the loop's values. Returns
    /// whether any compute state was advanced (false for idle spans).
    ///
    /// Callers must keep `cycles` strictly below the distance to
    /// [`Sm::next_external_event`]; the total grant count `cycles * g`
    /// splits as `per_warp = total / w` to everyone plus one extra to the
    /// first `total % w` slots in rotated order, and the cursor resumes
    /// after the slot holding the last grant — exactly where the naive scan
    /// would have left it (debug-asserted against each warp's remaining
    /// burst).
    pub fn advance_compute(&mut self, cycles: u64) -> bool {
        if cycles == 0 || self.computing == 0 {
            return false;
        }
        let n = self.slots.len();
        let w = u64::from(self.computing.count_ones());
        let g = w.min(self.issue_width as u64);
        let total = cycles * g;
        let (per_warp, extra) = (total / w, total % w);
        let last_pos = (total - 1) % w;
        let mut pos = 0u64;
        let mut last_slot = 0usize;
        let snapshot = self.computing;
        for_each_bit_rotated(snapshot, self.rr % n, |idx| {
            if pos == last_pos {
                last_slot = idx;
            }
            let grants = per_warp + u64::from(pos < extra);
            if grants > 0 {
                let WarpState::Computing { left } = &mut self.slots[idx].state else {
                    unreachable!("computing mask desynced from slot state");
                };
                debug_assert!(
                    u64::from(*left) >= grants,
                    "advance_compute overran a warp's burst: {left} left, {grants} grants"
                );
                *left -= grants as u32;
                if *left == 0 {
                    self.slots[idx].state = WarpState::Ready;
                    self.refresh_masks(idx);
                }
            }
            pos += 1;
            true
        });
        self.instructions += total;
        self.rr = (last_slot + 1) % n;
        true
    }

    /// `true` when a new warp can be placed. Slots empty out the instant a
    /// warp retires, so occupancy is exactly `live_warps`.
    pub fn has_free_slot(&self) -> bool {
        self.live_warps < self.slots.len()
    }

    /// Places the program of warp `warp_id` into a free slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot is free; check [`Sm::has_free_slot`] first.
    pub fn dispatch(&mut self, warp_id: usize, program: Box<dyn WarpProgram>) {
        let idx = self
            .slots
            .iter()
            .position(|s| s.program.is_none())
            .expect("dispatch requires a free slot");
        let slot = &mut self.slots[idx];
        slot.program = Some(program);
        slot.warp_id = warp_id;
        slot.state = WarpState::Ready;
        slot.store_parked = false;
        slot.last_loaded.clear();
        self.live_warps += 1;
        self.refresh_masks(idx);
    }

    /// Handles a fill/approximation reply from the memory side.
    pub fn on_reply(&mut self, reply: Reply, image: &MemoryImage) {
        // Any reply can change what a blocked drain retry would find
        // (an L1 fill makes unsent lines probe-hittable) — invalidate
        // the slots' futility proofs.
        self.mem_epoch += 1;
        if reply.values.is_none() {
            // Exact data: cache it in L1 (clean).
            self.l1.fill(reply.line, false);
        }
        let Some(mut waiters) = self.mshr.remove(&reply.line) else {
            return;
        };
        for &idx in &waiters {
            let slot = &mut self.slots[idx];
            if slot.program.is_none() || !matches!(slot.state, WarpState::Waiting) {
                continue;
            }
            let Some(p) = slot.wait.pending.iter().position(|&l| l == reply.line) else {
                continue;
            };
            slot.wait.pending.swap_remove(p);
            if let Some(vals) = reply.values {
                slot.wait.approx.push((reply.line, vals));
            }
            if slot.wait.pending.is_empty() {
                // Replies are delivered before the SM ticks, so no writes
                // of this cycle are staged yet — the plain image is the
                // coherent view.
                Self::complete_load(slot, &OverlayView::new(image, &[]), &mut self.approximated_loads);
                self.refresh_masks(idx);
            }
        }
        waiters.clear();
        self.waiter_pool.push(waiters);
    }

    fn complete_load(slot: &mut WarpSlot, view: &OverlayView<'_>, approx_ctr: &mut u64) {
        debug_assert!(
            matches!(slot.state, WarpState::Waiting),
            "complete_load on non-waiting warp"
        );
        let WarpSlot { state, last_loaded, wait, .. } = slot;
        if wait.approx.is_empty() {
            // Exact load: one line resolution per line each run touches,
            // refilling the slot's buffer in place.
            view.read_runs_into(&wait.runs, last_loaded);
        } else {
            // Every approximated line covers at least one lane (pending
            // lines come from coalescing the runs), so reaching this branch
            // means the load used predicted values: read the exact values,
            // then overwrite the lanes on approximated lines.
            view.read_runs_into(&wait.runs, last_loaded);
            let mut first = 0;
            for r in &wait.runs {
                for (a, start, take) in line_chunks(r.base, r.words as usize) {
                    let line = a & !(LINE_BYTES - 1);
                    if let Some((_, vals)) = wait.approx.iter().find(|(l, _)| *l == line) {
                        let lanes = &mut last_loaded[first..first + take];
                        lanes.copy_from_slice(&vals[start..start + take]);
                    }
                    first += take;
                }
            }
            *approx_ctr += 1;
        }
        *state = WarpState::Ready;
    }

    /// Issues up to `issue_width` warp instructions this cycle.
    ///
    /// Both scans iterate a *snapshot* of the relevant mask, so the visit
    /// order is exactly the linear slot scan's: a slot whose bit flips
    /// mid-scan is still visited (or not) precisely as the full scan would
    /// have — within one cycle, slots never wake each other, only
    /// themselves.
    pub fn tick(&mut self, ctx: &mut SmCtx<'_>) {
        let n = self.slots.len();
        if self.live_warps == 0 {
            return;
        }
        // Retry backpressured miss requests of blocked warps. Work is
        // bounded: stop at the first slot that stays blocked (resources are
        // exhausted anyway) and resume there next cycle, so a cycle touches
        // only as many warps as the freed MSHR/NoC space can serve.
        if self.unsent != 0 && self.mshr.len() < self.mshr_capacity {
            // Channels with at least one free staged request slot right
            // now. Free space only shrinks during the tick, so a zero here
            // stays zero for the whole scan.
            let mut avail: u32 = 0;
            for ch in 0..self.parked_need.len() {
                if ctx.stage.free(ch) > 0 {
                    avail |= 1 << ch;
                }
            }
            for_each_bit_rotated(self.unsent, self.drain_rr % n, |idx| {
                if self.mshr.len() >= self.mshr_capacity {
                    return false;
                }
                // A retry is provably futile when nothing changed that
                // could complete (L1 fill), merge (new MSHR entry) or send
                // (channel space) any of the slot's unsent lines. The full
                // attempt would leave every list bit-identical and stop
                // the scan here — do exactly that in O(1).
                let slot = &self.slots[idx];
                if slot.drain_epoch == self.mem_epoch && slot.unsent_channels & avail == 0 {
                    self.drain_rr = idx;
                    return false;
                }
                self.drain_unsent_for(idx, ctx);
                self.refresh_masks(idx);
                if self.unsent & (1u128 << idx) != 0 {
                    self.drain_rr = idx;
                    return false;
                }
                true
            });
        }
        if self.issueable != 0 {
            // Mask out parked stores that provably cannot commit this cycle:
            // a plan needing a channel with zero free request-NoC slots in
            // this SM's staged view fails its structural check at any scan
            // position (staged free space only shrinks within a cycle), and
            // a failed retry has no side effects — visiting it would only
            // burn a scan slot. O(#channels) against the `parked_need`
            // index; parked stores needing a merely-tight channel (free > 0
            // but short of the plan) are still visited and fail normally.
            let mut scan = self.issueable;
            if self.stalled != 0 {
                for (ch, &need) in self.parked_need.iter().enumerate() {
                    if need != 0 && ctx.stage.free(ch) == 0 {
                        scan &= !need;
                    }
                }
            }
            let mut issued = 0;
            for_each_bit_rotated(scan, self.rr % n, |idx| {
                if issued >= self.issue_width {
                    return false;
                }
                if self.try_issue(idx, ctx) {
                    issued += 1;
                    self.rr = (idx + 1) % n;
                }
                self.refresh_masks(idx);
                true
            });
        }
    }

    /// Attempts to issue one instruction from slot `idx`; returns success.
    fn try_issue(&mut self, idx: usize, ctx: &mut SmCtx<'_>) -> bool {
        enum Plan {
            Compute,
            Retry,
            Op,
        }
        let plan = {
            let slot = &mut self.slots[idx];
            if slot.program.is_none() {
                return false;
            }
            match &mut slot.state {
                WarpState::Done | WarpState::Waiting => return false,
                WarpState::Computing { left } => {
                    *left -= 1;
                    let finished = *left == 0;
                    if finished {
                        slot.state = WarpState::Ready;
                    }
                    Plan::Compute
                }
                WarpState::Ready => {
                    if slot.store_parked {
                        Plan::Retry
                    } else {
                        Plan::Op
                    }
                }
            }
        };
        match plan {
            Plan::Compute => {
                self.instructions += 1;
                true
            }
            Plan::Retry => self.commit_store(idx, ctx),
            Plan::Op => {
                // Move the SM's op buffer out to sidestep aliasing with the
                // slot — a `mem::take` of Vec-backed buffers allocates
                // nothing and keeps their capacity.
                let mut buf = std::mem::take(&mut self.opbuf);
                {
                    let slot = &mut self.slots[idx];
                    let program = slot.program.as_mut().expect("occupied slot");
                    program.next(&slot.last_loaded, &mut buf);
                    slot.last_loaded.clear();
                }
                let ok = self.execute_op(idx, &buf, ctx);
                self.opbuf = buf;
                ok
            }
        }
    }

    fn execute_op(&mut self, idx: usize, op: &OpBuf, ctx: &mut SmCtx<'_>) -> bool {
        match op.kind() {
            OpKind::Compute(0) => {
                // Degenerate no-op: retire it without consuming a slot so a
                // buggy kernel cannot stall forever; issue the next op.
                self.slots[idx].state = WarpState::Ready;
                self.instructions += 1;
                true
            }
            OpKind::Compute(n) => {
                // The first of the n instructions issues this cycle.
                self.slots[idx].state = if n == 1 {
                    WarpState::Ready
                } else {
                    WarpState::Computing { left: n - 1 }
                };
                self.instructions += 1;
                true
            }
            OpKind::Load => self.issue_load(idx, op.runs(), ctx),
            OpKind::Store => self.issue_store(idx, op.writes(), ctx),
            OpKind::Finished => {
                let slot = &mut self.slots[idx];
                slot.state = WarpState::Done;
                slot.program = None;
                self.live_warps -= 1;
                true
            }
        }
    }

    fn issue_load(&mut self, idx: usize, runs: &[Run], ctx: &mut SmCtx<'_>) -> bool {
        debug_assert!(!runs.is_empty(), "empty load");
        // Coalesce to distinct lines, preserving first-touch order.
        let mut lines = std::mem::take(&mut self.scratch_lines);
        lines.clear();
        coalesce_spans(&mut lines, runs.iter().map(|r| r.line_span()));
        // Classify: L1 hits complete immediately; everything else is
        // pending. A load always issues — lines that cannot get an MSHR or
        // a NoC slot right now sit in `unsent` and trickle out. The pending
        // and unsent lists refill the slot's persistent buffers.
        {
            let wait = &mut self.slots[idx].wait;
            wait.pending.clear();
            wait.unsent.clear();
            wait.approx.clear();
        }
        for &l in &lines {
            match self.l1.access(l, false) {
                AccessResult::Hit => {}
                AccessResult::Miss => {
                    self.slots[idx].wait.pending.push(l);
                    if let Some(waiters) = self.mshr.get_mut(&l) {
                        waiters.push(idx); // merge with in-flight miss
                    } else {
                        self.slots[idx].wait.unsent.push(l);
                    }
                }
            }
        }
        self.scratch_lines = lines;
        // One warp-load instruction covers up to 32 lanes; larger batches
        // model several back-to-back load instructions kept in flight by
        // the scoreboard (intra-warp MLP).
        let lanes: usize = runs.iter().map(|r| r.words as usize).sum();
        self.instructions += lanes.div_ceil(32) as u64;
        let WarpSlot { state, wait, last_loaded, .. } = &mut self.slots[idx];
        if wait.pending.is_empty() {
            // Pure L1 hit: values available for the next issue of this warp,
            // assembled line-at-a-time into the slot's reusable buffer. The
            // overlay makes stores staged earlier this cycle visible.
            OverlayView::new(ctx.image, &ctx.stage.writes).read_runs_into(runs, last_loaded);
            *state = WarpState::Ready;
        } else {
            wait.runs.clear();
            wait.runs.extend_from_slice(runs);
            *state = WarpState::Waiting;
            self.drain_unsent_for(idx, ctx);
        }
        true
    }

    /// Sends as many of slot `idx`'s unsent miss lines as MSHR capacity and
    /// NoC space allow. Lines that became present in L1 meanwhile complete
    /// immediately.
    fn drain_unsent_for(&mut self, idx: usize, ctx: &mut SmCtx<'_>) {
        // Take the unsent list out to sidestep aliasing with self.mshr/l1;
        // it returns to the slot below, so its capacity is never dropped.
        let mut unsent = {
            let slot = &mut self.slots[idx];
            if !matches!(slot.state, WarpState::Waiting) {
                return;
            }
            std::mem::take(&mut slot.wait.unsent)
        };
        // Lines that stay unsent are compacted in place; arrived lines go
        // to the SM-lifetime scratch buffer — no allocation on this path.
        self.scratch_arrived.clear();
        let mut still_len = 0;
        let mut still_channels: u32 = 0;
        for i in 0..unsent.len() {
            let l = unsent[i];
            if self.l1.probe(l) {
                // Filled by a sibling warp's request while we waited.
                self.scratch_arrived.push(l);
            } else if let Some(waiters) = self.mshr.get_mut(&l) {
                waiters.push(idx);
            } else {
                let ch = ctx.map.channel_of(l);
                if self.mshr.len() < self.mshr_capacity && ctx.stage.free(ch) > 0 {
                    ctx.stage.push_req(
                        ch,
                        SliceReq {
                            sm: self.id,
                            line: l,
                            write: false,
                            approximable: ctx.kernel.approximable(l),
                        },
                    );
                    let mut waiters = self.waiter_pool.pop().unwrap_or_default();
                    waiters.push(idx);
                    self.mshr.insert(l, waiters);
                    // A fresh entry is a merge target for other blocked
                    // lines — invalidate their futility proofs.
                    self.mem_epoch += 1;
                } else {
                    unsent[still_len] = l;
                    still_len += 1;
                    still_channels |= 1 << ch;
                }
            }
        }
        unsent.truncate(still_len);
        let view = OverlayView::new(ctx.image, &ctx.stage.writes);
        let slot = &mut self.slots[idx];
        let wait = &mut slot.wait;
        wait.unsent = unsent;
        slot.drain_epoch = self.mem_epoch;
        slot.unsent_channels = still_channels;
        for &l in &self.scratch_arrived {
            if let Some(p) = wait.pending.iter().position(|&x| x == l) {
                wait.pending.swap_remove(p);
            }
        }
        if wait.pending.is_empty() {
            Self::complete_load(slot, &view, &mut self.approximated_loads);
        }
    }

    fn issue_store(&mut self, idx: usize, writes: &[(u64, f32)], ctx: &mut SmCtx<'_>) -> bool {
        debug_assert!(!writes.is_empty(), "empty store");
        // Build the coalescing plan into the slot's persistent buffers.
        let store = &mut self.slots[idx].store;
        store.writes.clear();
        store.writes.extend_from_slice(writes);
        store.lines.clear();
        coalesce_spans(
            &mut store.lines,
            writes.iter().map(|&(a, _)| (a & !(LINE_BYTES - 1), a & !(LINE_BYTES - 1))),
        );
        store.per_slice.clear();
        for &l in &store.lines {
            let ch = ctx.map.channel_of(l);
            match store.per_slice.iter_mut().find(|&&mut (s, _)| s == ch) {
                Some(&mut (_, ref mut count)) => *count += 1,
                None => store.per_slice.push((ch, 1)),
            }
        }
        self.commit_store(idx, ctx)
    }

    /// Issues the store whose coalescing plan sits in slot `idx`'s `store`
    /// buffers. On backpressure the plan parks in place for a cheap retry
    /// next cycle.
    fn commit_store(&mut self, idx: usize, ctx: &mut SmCtx<'_>) -> bool {
        let sm_id = self.id;
        let slot = &mut self.slots[idx];
        // Structural check before any side effect, against this SM's view
        // of the cycle-start occupancy snapshot.
        if slot
            .store
            .per_slice
            .iter()
            .any(|&(slice, count)| ctx.stage.free(slice) < count)
        {
            // Park, and index the plan's channel demand so the issue scan
            // can skip this retry outright while a needed channel is full.
            let bit = 1u128 << idx;
            for &(slice, _) in &slot.store.per_slice {
                self.parked_need[slice] |= bit;
            }
            slot.store_parked = true;
            return false;
        }
        if slot.store_parked {
            let bit = 1u128 << idx;
            for &(slice, _) in &slot.store.per_slice {
                self.parked_need[slice] &= !bit;
            }
        }
        slot.store_parked = false;
        let store = &slot.store;
        ctx.stage.stage_writes(&store.writes);
        for &l in &store.lines {
            ctx.stage.push_req(
                ctx.map.channel_of(l),
                SliceReq {
                    sm: sm_id,
                    line: l,
                    write: true,
                    approximable: false,
                },
            );
        }
        self.instructions += store.writes.len().div_ceil(32) as u64;
        // Write-through: the warp does not wait for stores.
        true
    }

    /// Serializes the SM's dynamic state: scheduler cursors, counters, L1
    /// contents, MSHR table and every occupied warp slot (including the
    /// resident program's state). Geometry (slot count, cache shape, MSHR
    /// capacity) is configuration and is not written; scratch buffers are
    /// transient and skipped.
    pub fn save_state(&self, s: &mut Saver) {
        s.usize("rr", self.rr);
        s.usize("drain_rr", self.drain_rr);
        s.u64("instructions", self.instructions);
        s.u64("approximated_loads", self.approximated_loads);
        s.frame("l1", 0, |s| self.l1.save_state(s));
        let mut lines: Vec<u64> = self.mshr.keys().copied().collect();
        lines.sort_unstable();
        s.seq("mshr", lines.len());
        for line in lines {
            s.u64("line", line);
            let waiters = &self.mshr[&line];
            s.seq("waiters", waiters.len());
            for &w in waiters {
                s.usize("waiter", w);
            }
        }
        s.seq("slots", self.slots.len());
        for (i, slot) in self.slots.iter().enumerate() {
            s.frame("slot", i as u32, |s| {
                let occupied = slot.program.is_some();
                s.bool("occupied", occupied);
                if !occupied {
                    return;
                }
                s.usize("warp_id", slot.warp_id);
                match slot.state {
                    WarpState::Ready => s.u8("state", 0),
                    WarpState::Computing { left } => {
                        s.u8("state", 1);
                        s.u32("left", left);
                    }
                    WarpState::Waiting => s.u8("state", 2),
                    WarpState::Done => s.u8("state", 3),
                }
                s.bool("store_parked", slot.store_parked);
                // The wire format predates runs: a parked load is written
                // as its expanded lane addresses.
                let lane_addrs: Vec<u64> =
                    slot.wait.runs.iter().flat_map(|r| r.lanes()).collect();
                s.u64s("lane_addrs", &lane_addrs);
                s.u64s("pending", &slot.wait.pending);
                s.u64s("unsent", &slot.wait.unsent);
                s.seq("approx", slot.wait.approx.len());
                for (line, vals) in &slot.wait.approx {
                    s.u64("line", *line);
                    s.f32s("vals", vals);
                }
                s.seq("writes", slot.store.writes.len());
                for &(a, v) in &slot.store.writes {
                    s.u64("addr", a);
                    s.f32("val", v);
                }
                s.u64s("lines", &slot.store.lines);
                s.seq("per_slice", slot.store.per_slice.len());
                for &(ch, count) in &slot.store.per_slice {
                    s.usize("slice", ch);
                    s.usize("count", count);
                }
                s.f32s("last_loaded", &slot.last_loaded);
                s.frame("prog", 0, |s| {
                    slot.program.as_ref().expect("occupied slot").save_state(s);
                });
            });
        }
    }

    /// Restores state written by [`Sm::save_state`] into an SM built from the
    /// same configuration. `kernel` must be the kernel of the checkpointed
    /// launch: each resident warp's program is rebuilt via
    /// [`Kernel::program`] and then fed its saved dynamic state. Scheduler
    /// masks are recomputed from the restored slots.
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot bytes are malformed or the slot
    /// count disagrees with this SM's configuration.
    pub fn load_state(&mut self, l: &mut Loader<'_>, kernel: &dyn Kernel) -> SnapResult<()> {
        self.rr = l.usize("rr")?;
        self.drain_rr = l.usize("drain_rr")?;
        self.instructions = l.u64("instructions")?;
        self.approximated_loads = l.u64("approximated_loads")?;
        l.frame("l1", 0, |l| self.l1.load_state(l))?;
        let n_mshr = l.seq("mshr", 16)?;
        self.mshr.clear();
        self.mshr.reserve(n_mshr);
        for _ in 0..n_mshr {
            let line = l.u64("line")?;
            let n_w = l.seq("waiters", 8)?;
            let mut waiters = self.waiter_pool.pop().unwrap_or_default();
            waiters.clear();
            waiters.reserve(n_w);
            for _ in 0..n_w {
                waiters.push(l.usize("waiter")?);
            }
            if self.mshr.insert(line, waiters).is_some() {
                return Err(SnapError::Malformed {
                    label: "mshr".into(),
                    why: format!("duplicate line {line:#x}"),
                });
            }
        }
        let n_slots = l.seq("slots", 16)?;
        if n_slots != self.slots.len() {
            return Err(SnapError::Malformed {
                label: "slots".into(),
                why: format!("snapshot has {n_slots} slots, SM has {}", self.slots.len()),
            });
        }
        let mut live = 0usize;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            l.frame("slot", i as u32, |l| {
                let occupied = l.bool("occupied")?;
                if !occupied {
                    slot.program = None;
                    slot.warp_id = 0;
                    slot.state = WarpState::Done;
                    slot.store_parked = false;
                    slot.wait.runs.clear();
                    slot.wait.pending.clear();
                    slot.wait.unsent.clear();
                    slot.wait.approx.clear();
                    slot.store.writes.clear();
                    slot.store.lines.clear();
                    slot.store.per_slice.clear();
                    slot.last_loaded.clear();
                    return Ok(());
                }
                slot.warp_id = l.usize("warp_id")?;
                slot.state = match l.u8("state")? {
                    0 => WarpState::Ready,
                    1 => WarpState::Computing { left: l.u32("left")? },
                    2 => WarpState::Waiting,
                    3 => WarpState::Done,
                    x => {
                        return Err(SnapError::Malformed {
                            label: "state".into(),
                            why: format!("unknown warp state {x}"),
                        })
                    }
                };
                slot.store_parked = l.bool("store_parked")?;
                let mut lane_addrs = Vec::new();
                l.u64s("lane_addrs", &mut lane_addrs)?;
                slot.wait.runs.clear();
                for a in lane_addrs {
                    push_run(&mut slot.wait.runs, a, 1);
                }
                l.u64s("pending", &mut slot.wait.pending)?;
                l.u64s("unsent", &mut slot.wait.unsent)?;
                let n_a = l.seq("approx", 8)?;
                slot.wait.approx.clear();
                for _ in 0..n_a {
                    let line = l.u64("line")?;
                    let mut vals = [0.0f32; 32];
                    l.f32_array("vals", &mut vals)?;
                    slot.wait.approx.push((line, vals));
                }
                let n_w = l.seq("writes", 12)?;
                slot.store.writes.clear();
                for _ in 0..n_w {
                    let a = l.u64("addr")?;
                    let v = l.f32("val")?;
                    slot.store.writes.push((a, v));
                }
                l.u64s("lines", &mut slot.store.lines)?;
                let n_ps = l.seq("per_slice", 16)?;
                slot.store.per_slice.clear();
                for _ in 0..n_ps {
                    let ch = l.usize("slice")?;
                    let count = l.usize("count")?;
                    slot.store.per_slice.push((ch, count));
                }
                l.f32s("last_loaded", &mut slot.last_loaded)?;
                let mut program = kernel.program(slot.warp_id);
                l.frame("prog", 0, |l| program.load_state(l))?;
                slot.program = Some(program);
                live += 1;
                Ok(())
            })?;
        }
        self.live_warps = live;
        self.scratch_arrived.clear();
        self.scratch_lines.clear();
        for idx in 0..self.slots.len() {
            self.refresh_masks(idx);
        }
        // The drain-futility proofs are derived state: mark every slot
        // stale so the first post-restore drain attempt runs in full.
        self.mem_epoch = 0;
        for slot in self.slots.iter_mut() {
            slot.drain_epoch = u64::MAX;
            slot.unsent_channels = 0;
        }
        // Rebuild the parked-store channel index from the restored plans.
        self.parked_need.iter_mut().for_each(|m| *m = 0);
        for (idx, slot) in self.slots.iter().enumerate() {
            if slot.program.is_some() && slot.store_parked {
                for &(slice, _) in &slot.store.per_slice {
                    self.parked_need[slice] |= 1u128 << idx;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_common::GpuConfig;

    /// A trivial kernel: each warp loads 32 consecutive floats and stores
    /// their doubles.
    struct MiniKernel {
        base: u64,
    }

    impl Kernel for MiniKernel {
        fn name(&self) -> &str {
            "mini"
        }
        fn setup(&mut self, mem: &mut MemoryImage) {
            self.base = mem.alloc(64);
            for i in 0..32 {
                mem.write_f32(self.base + i * 4, i as f32);
            }
        }
        fn total_warps(&self) -> usize {
            1
        }
        fn program(&self, _warp: usize) -> Box<dyn WarpProgram> {
            Box::new(MiniProgram { base: self.base, step: 0 })
        }
        fn approximable(&self, _addr: u64) -> bool {
            true
        }
        fn output(&self, mem: &MemoryImage) -> Vec<f32> {
            mem.read_slice(self.base + 128, 32)
        }
    }

    struct MiniProgram {
        base: u64,
        step: u32,
    }

    impl WarpProgram for MiniProgram {
        fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
            self.step += 1;
            match self.step {
                1 => out.begin_load().extend((0..32u64).map(|i| self.base + i * 4)),
                2 => out.begin_store().extend(
                    loaded
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (self.base + 128 + i as u64 * 4, v * 2.0)),
                ),
                _ => out.set_finished(),
            }
        }

        fn save_state(&self, s: &mut Saver) {
            s.u32("step", self.step);
        }

        fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
            self.step = l.u32("step")?;
            Ok(())
        }
    }

    fn setup() -> (Sm, MemoryImage, AddressMap, MiniKernel, Vec<DelayQueue<SliceReq>>) {
        let cfg = GpuConfig::default();
        let sm = Sm::new(0, &cfg);
        let mut image = MemoryImage::new();
        let mut kernel = MiniKernel { base: 0 };
        kernel.setup(&mut image);
        let map = AddressMap::new(&cfg);
        let noc: Vec<DelayQueue<SliceReq>> =
            (0..6).map(|_| DelayQueue::new(0, 64, 8)).collect();
        (sm, image, map, kernel, noc)
    }

    /// One phased cycle for a single SM: tick against a stage, then commit
    /// the staged writes and requests the way phase B of the master loop
    /// does.
    fn run_cycle(
        sm: &mut Sm,
        now: u64,
        image: &mut MemoryImage,
        map: &AddressMap,
        kernel: &dyn Kernel,
        noc: &mut [DelayQueue<SliceReq>],
    ) {
        let free0: Vec<usize> = noc.iter().map(|q| q.free()).collect();
        let mut stage = SmStage::new(noc.len());
        stage.begin_cycle(&free0);
        {
            let mut ctx = SmCtx { image, map, kernel, stage: &mut stage };
            sm.tick(&mut ctx);
        }
        if !stage.writes.is_empty() {
            image.write_lanes(&stage.writes);
        }
        for &(ch, req) in &stage.reqs {
            noc[ch].push_unchecked(now, req);
        }
    }

    #[test]
    fn load_coalesces_and_blocks_warp() {
        let (mut sm, mut image, map, kernel, mut noc) = setup();
        sm.dispatch(0, kernel.program(0));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        // 32 floats = 128 B = 1 line → 1 request on its home slice.
        let total: usize = noc.iter().map(|q| q.len()).sum();
        assert_eq!(total, 1);
        assert_eq!(sm.instructions, 1);
        // Warp is blocked: nothing more issues.
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        assert_eq!(sm.instructions, 1);
    }

    #[test]
    fn reply_unblocks_and_store_writes_image() {
        let (mut sm, mut image, map, kernel, mut noc) = setup();
        let base = kernel.base;
        sm.dispatch(0, kernel.program(0));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        sm.on_reply(Reply { line: base, values: None }, &image);
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc); // store issues
        run_cycle(&mut sm, 3, &mut image, &map, &kernel, &mut noc); // finish
        assert_eq!(image.read_f32(base + 128 + 4), 2.0);
        assert_eq!(sm.live_warps(), 0);
        assert_eq!(sm.approximated_loads, 0);
        // L1 was filled by the reply: a fresh probe hits.
        assert!(sm.l1().probe(base));
    }

    #[test]
    fn approximated_reply_supplies_predicted_values() {
        let (mut sm, mut image, map, kernel, mut noc) = setup();
        let base = kernel.base;
        sm.dispatch(0, kernel.program(0));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        sm.on_reply(Reply { line: base, values: Some([7.0; 32]) }, &image);
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        run_cycle(&mut sm, 3, &mut image, &map, &kernel, &mut noc);
        // Stored values come from the prediction, not the image.
        assert_eq!(image.read_f32(base + 128), 14.0);
        assert_eq!(sm.approximated_loads, 1);
        // Approximated lines are not cached in L1 (no-reuse model).
        assert!(!sm.l1().probe(base));
    }

    #[test]
    fn mshr_merges_same_line_across_warps() {
        struct TwoWarps {
            inner: MiniKernel,
        }
        impl Kernel for TwoWarps {
            fn name(&self) -> &str {
                "two"
            }
            fn setup(&mut self, mem: &mut MemoryImage) {
                self.inner.setup(mem);
            }
            fn total_warps(&self) -> usize {
                2
            }
            fn program(&self, _w: usize) -> Box<dyn WarpProgram> {
                self.inner.program(0)
            }
            fn approximable(&self, a: u64) -> bool {
                self.inner.approximable(a)
            }
            fn output(&self, mem: &MemoryImage) -> Vec<f32> {
                self.inner.output(mem)
            }
        }
        let cfg = GpuConfig::default();
        let mut sm = Sm::new(0, &cfg);
        let mut image = MemoryImage::new();
        let mut kernel = TwoWarps { inner: MiniKernel { base: 0 } };
        kernel.setup(&mut image);
        let map = AddressMap::new(&cfg);
        let mut noc: Vec<DelayQueue<SliceReq>> =
            (0..6).map(|_| DelayQueue::new(0, 64, 8)).collect();
        sm.dispatch(0, kernel.program(0));
        sm.dispatch(1, kernel.program(1));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        // Both warps issue their load (issue_width = 2).
        let total: usize = noc.iter().map(|q| q.len()).sum();
        assert_eq!(total, 1, "second warp's identical line must merge");
        let base = kernel.inner.base;
        sm.on_reply(Reply { line: base, values: None }, &image);
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        run_cycle(&mut sm, 3, &mut image, &map, &kernel, &mut noc);
        assert_eq!(sm.live_warps(), 0, "both warps must complete");
    }

    #[test]
    fn noc_backpressure_defers_miss_requests() {
        let (mut sm, mut image, map, kernel, _) = setup();
        let base = kernel.base;
        // Tiny NoC with no room.
        let mut noc: Vec<DelayQueue<SliceReq>> =
            (0..6).map(|_| DelayQueue::new(0, 1, 1)).collect();
        for q in noc.iter_mut() {
            q.push(0, SliceReq { sm: 9, line: 0, write: false, approximable: false }).unwrap();
        }
        sm.dispatch(0, kernel.program(0));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        // The load issues (instruction retired) but its miss request cannot
        // leave yet: no MSHR is allocated, the line sits in `unsent`.
        assert_eq!(sm.instructions, 1, "load issues despite backpressure");
        assert!(sm.mshr.is_empty(), "no MSHR allocated while the NoC is full");
        // Free the queue; the deferred request drains on a later tick.
        for q in noc.iter_mut() {
            let _ = q.pop_ready(1);
        }
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        assert_eq!(sm.mshr.len(), 1, "deferred miss sent once space freed");
        assert!(sm.mshr.contains_key(&base));
    }

    /// Serializes an SM's full dynamic state for bit-identity comparison.
    fn state_bytes(sm: &Sm) -> Vec<u8> {
        let mut s = Saver::new();
        sm.save_state(&mut s);
        s.finish()
    }

    /// How a scheduler slot is populated for the analytic-replay tests.
    #[derive(Debug, Clone, Copy)]
    enum SlotSpec {
        Empty,
        Computing(u32),
        /// A parked store whose per-slice demand can never fit: its retry
        /// is a scan no-op every cycle, exactly like in a skipped span.
        Parked,
        /// Waiting on a reply that never comes: inert for the scheduler.
        Waiting,
    }

    /// Builds an SM whose slots match `specs`, with the round-robin cursor
    /// at `rr`. Deterministic, so two calls produce bit-identical SMs.
    fn build_sm(specs: &[SlotSpec], issue_width: usize, rr: usize) -> Sm {
        let cfg = GpuConfig {
            issue_width,
            warps_per_sm: specs.len().max(1),
            ..GpuConfig::default()
        };
        let mut sm = Sm::new(0, &cfg);
        let kernel = MiniKernel { base: 0 };
        for (i, _) in specs.iter().enumerate() {
            sm.dispatch(i, kernel.program(i));
        }
        for (i, spec) in specs.iter().enumerate() {
            match *spec {
                SlotSpec::Empty => {
                    // Retire the warp the way a Finished op would.
                    sm.slots[i].program = None;
                    sm.slots[i].state = WarpState::Done;
                    sm.live_warps -= 1;
                }
                SlotSpec::Computing(left) => {
                    sm.slots[i].state = WarpState::Computing { left: left.max(1) };
                }
                SlotSpec::Parked => {
                    sm.slots[i].state = WarpState::Ready;
                    sm.slots[i].store_parked = true;
                    sm.slots[i].store.writes.push((0, 1.0));
                    sm.slots[i].store.lines.push(0);
                    sm.slots[i].store.per_slice.push((0, usize::MAX / 2));
                }
                SlotSpec::Waiting => {
                    sm.slots[i].state = WarpState::Waiting;
                    sm.slots[i].wait.pending.push(1 << 20);
                }
            }
            sm.refresh_masks(i);
        }
        sm.rr = rr % specs.len().max(1);
        sm
    }

    /// Naively ticks `sm` for `cycles` cycles and asserts no external effect
    /// (no staged request or write) escaped — the precondition under which
    /// `advance_compute` claims equivalence.
    fn naive_advance(sm: &mut Sm, cycles: u64) {
        let cfg = GpuConfig::default();
        let mut image = MemoryImage::new();
        let kernel = MiniKernel { base: 0 };
        let map = AddressMap::new(&cfg);
        let mut noc: Vec<DelayQueue<SliceReq>> =
            (0..6).map(|_| DelayQueue::new(0, 64, 8)).collect();
        for now in 1..=cycles {
            run_cycle(sm, now, &mut image, &map, &kernel, &mut noc);
        }
        assert!(
            noc.iter().all(|q| q.is_empty()),
            "a compute-only span must not emit requests"
        );
    }

    #[test]
    fn next_external_event_closed_form_matches_hand_computation() {
        // Slots: Computing(5), parked store, Computing(1), Computing(7);
        // issue_width 2 => w = 3 computing warps, g = 2 grants/cycle.
        let specs = [
            SlotSpec::Computing(5),
            SlotSpec::Parked,
            SlotSpec::Computing(1),
            SlotSpec::Computing(7),
        ];
        let sm = build_sm(&specs, 2, 0);
        // Rotated positions o = 0, 1, 2 for slots 0, 2, 3. Burst ends:
        // slot 0: (0 + 4*3)/2 + 1 = 7; slot 2: (1 + 0)/2 + 1 = 1;
        // slot 3: (2 + 6*3)/2 + 1 = 11. Earliest Ready at now+1, so the
        // first real op can issue at now+2.
        assert_eq!(sm.next_external_event(100), Some(102));

        let mut analytic = build_sm(&specs, 2, 0);
        assert!(analytic.advance_compute(1));
        let mut naive = build_sm(&specs, 2, 0);
        naive_advance(&mut naive, 1);
        assert_eq!(state_bytes(&analytic), state_bytes(&naive));
        assert_eq!(analytic.rr, 3, "cursor resumes after the last granted slot");
        assert_eq!(analytic.instructions, 2);
        assert!(
            matches!(analytic.slots[2].state, WarpState::Ready),
            "slot 2's burst ended exactly at the span boundary"
        );
        // The freshly Ready warp is now the SM's next external event.
        assert_eq!(analytic.next_external_event(101), Some(102));
    }

    #[test]
    fn next_external_event_classifies_idle_and_busy_sms() {
        let sm = build_sm(&[SlotSpec::Waiting, SlotSpec::Parked], 2, 0);
        assert_eq!(
            sm.next_external_event(5),
            None,
            "pure waiters/parked stores wake only via tracked events"
        );
        assert!(!sm.has_work());

        let sm = build_sm(&[SlotSpec::Computing(3), SlotSpec::Empty], 2, 0);
        assert_eq!(sm.next_external_event(5), Some(5 + 3 + 1));
        assert!(sm.has_work(), "a computing SM still has work for the naive loop");

        let mut sm = build_sm(&[SlotSpec::Computing(3)], 2, 0);
        sm.slots[0].state = WarpState::Ready;
        sm.refresh_masks(0);
        assert_eq!(sm.next_external_event(5), Some(6), "Ready warps need a real tick");
    }

    #[test]
    fn advance_compute_is_a_noop_without_computing_warps() {
        let mut sm = build_sm(&[SlotSpec::Waiting, SlotSpec::Parked], 2, 0);
        let before = state_bytes(&sm);
        assert!(!sm.advance_compute(1000), "idle spans are not compute-skips");
        assert_eq!(state_bytes(&sm), before);
    }

    /// The PR 2 drain resume-point contract, pinned: when a drain blocks on
    /// MSHR capacity mid-rotation, `drain_rr` records the blocked slot —
    /// even when the rotation started past it — so the next cycle resumes
    /// exactly there. The rotated scan visits each set bit at most once per
    /// cycle, so recording the blocked slot can never cause a double visit.
    #[test]
    fn drain_resumes_at_the_blocked_slot() {
        struct WideKernel {
            base: u64,
        }
        impl Kernel for WideKernel {
            fn name(&self) -> &str {
                "wide"
            }
            fn setup(&mut self, mem: &mut MemoryImage) {
                self.base = mem.alloc(4 * 128);
            }
            fn total_warps(&self) -> usize {
                2
            }
            fn program(&self, warp: usize) -> Box<dyn WarpProgram> {
                // Warp 0 loads lines 0-1, warp 1 loads lines 2-3.
                Box::new(MiniProgram { base: self.base + warp as u64 * 256, step: 0 })
            }
            fn approximable(&self, _addr: u64) -> bool {
                false
            }
            fn output(&self, _mem: &MemoryImage) -> Vec<f32> {
                Vec::new()
            }
        }
        // MiniProgram loads 32 consecutive floats = 1 line; widen by giving
        // each warp two back-to-back load steps? Simpler: two MSHRs total,
        // two warps with one miss line each, plus a third line to create a
        // backlog. Use 1 MSHR so warp 1's line cannot send while warp 0's
        // miss is in flight.
        let cfg = GpuConfig { l1_mshrs: 1, ..GpuConfig::default() };
        let mut sm = Sm::new(0, &cfg);
        let mut image = MemoryImage::new();
        let mut kernel = WideKernel { base: 0 };
        kernel.setup(&mut image);
        let map = AddressMap::new(&cfg);
        let mut noc: Vec<DelayQueue<SliceReq>> =
            (0..6).map(|_| DelayQueue::new(0, 64, 8)).collect();
        sm.dispatch(0, kernel.program(0));
        sm.dispatch(1, kernel.program(1));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        // Both warps issued their load; the single MSHR went to warp 0, so
        // warp 1's miss line sits unsent.
        assert_eq!(sm.mshr.len(), 1);
        assert_eq!(sm.unsent, 0b10, "warp 1 has the unsent backlog");
        // Point the drain cursor *past* the blocked slot: the rotated scan
        // must wrap around and still find it once capacity frees up.
        sm.drain_rr = 7;
        sm.on_reply(Reply { line: kernel.base, values: None }, &image);
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        assert!(
            sm.mshr.contains_key(&(kernel.base + 256)),
            "freed MSHR goes to the wrapped-around blocked slot"
        );
        assert_eq!(sm.unsent, 0, "warp 1's single line drained fully");
        // A drain that *stays* blocked records its slot as the resume
        // point. Refill the MSHR pressure via a third resident warp.
        assert_eq!(sm.drain_rr, 7, "a fully drained scan leaves the cursor alone");
    }

    /// The per-lane coalescer the run coalescer replaced, kept as the
    /// oracle: distinct lines of the lane addresses in first-touch order,
    /// with a one-pass path for monotone line sequences.
    fn coalesce_lines(lines: &mut Vec<u64>, it: impl Iterator<Item = u64> + Clone) {
        let mut rising = true;
        let mut falling = true;
        let mut probe = it.clone().map(|a| a & !127);
        if let Some(mut prev) = probe.next() {
            for l in probe {
                rising &= prev <= l;
                falling &= prev >= l;
                if !(rising || falling) {
                    break;
                }
                prev = l;
            }
        }
        if rising || falling {
            for a in it {
                let l = a & !127;
                if lines.last() != Some(&l) {
                    lines.push(l);
                }
            }
        } else {
            for a in it {
                let l = a & !127;
                if !lines.contains(&l) {
                    lines.push(l);
                }
            }
        }
    }

    /// Push-merges lane addresses into runs, as `LoadEmitter::push` does.
    fn runs_of(addrs: &[u64]) -> Vec<Run> {
        let mut runs = Vec::new();
        for &a in addrs {
            push_run(&mut runs, a, 1);
        }
        runs
    }

    /// Lines of a run list through the run coalescer.
    fn run_lines(runs: &[Run]) -> Vec<u64> {
        let mut lines = Vec::new();
        coalesce_spans(&mut lines, runs.iter().map(|r| r.line_span()));
        lines
    }

    #[test]
    fn coalesce_lines_matches_reference_on_patterns() {
        let reference = |addrs: &[u64]| {
            let mut lines: Vec<u64> = Vec::new();
            for &a in addrs {
                let l = a & !127;
                if !lines.contains(&l) {
                    lines.push(l);
                }
            }
            lines
        };
        let cases: Vec<Vec<u64>> = vec![
            (0..64u64).map(|i| i * 4).collect(),              // rising, dense
            (0..64u64).rev().map(|i| i * 4).collect(),        // falling
            (0..32u64).map(|i| 4096 + i * 128).collect(),     // rising, strided
            vec![100, 100, 100],                              // constant
            vec![0, 300, 40, 700, 40, 0],                     // non-monotone
            vec![5000],                                       // single
            vec![],                                           // empty
            (0..48u64).map(|i| (i * 37) % 1024).collect(),    // scrambled
            (0..40u64).map(|i| 96 + i * 4).chain([0, 4]).collect(), // cross, then back
        ];
        for addrs in cases {
            let mut got = Vec::new();
            coalesce_lines(&mut got, addrs.iter().copied());
            assert_eq!(got, reference(&addrs), "pattern {addrs:?}");
            assert_eq!(run_lines(&runs_of(&addrs)), got, "runs of {addrs:?}");
        }
    }

    /// GEMM's load shape: an 8-word `A` run plus eight 32-word `B` rows,
    /// 264 lanes. It coalesces to the 9 lines its expanded lanes give,
    /// sends 9 line requests and retires ⌈264/32⌉ = 9 instructions.
    #[test]
    fn gemm_shaped_load_issues_nine_lines_and_nine_instructions() {
        struct GemmLoad {
            base: u64,
        }
        impl WarpProgram for GemmLoad {
            fn next(&mut self, _loaded: &[f32], out: &mut OpBuf) {
                let mut load = out.begin_load();
                load.run(self.base, 8);
                for k in 0..8 {
                    load.run(self.base + 4096 + k * 1024, 32);
                }
            }
            fn save_state(&self, _s: &mut Saver) {}
            fn load_state(&mut self, _l: &mut Loader<'_>) -> SnapResult<()> {
                Ok(())
            }
        }
        let (mut sm, mut image, map, kernel, mut noc) = setup();
        let mut buf = OpBuf::new();
        GemmLoad { base: kernel.base }.next(&[], &mut buf);
        let runs = buf.runs().to_vec();
        let lanes: Vec<u64> = runs.iter().flat_map(|r| r.lanes()).collect();
        assert_eq!((runs.len(), lanes.len()), (9, 264));
        assert_eq!(runs_of(&lanes), runs, "push-merging rebuilds the runs");
        let mut oracle = Vec::new();
        coalesce_lines(&mut oracle, lanes.iter().copied());
        assert_eq!(run_lines(&runs), oracle);
        assert_eq!(oracle.len(), 9);
        sm.dispatch(0, Box::new(GemmLoad { base: kernel.base }));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        assert_eq!(noc.iter().map(|q| q.len()).sum::<usize>(), 9);
        assert_eq!(sm.instructions, 9);
    }

    mod coalesce_props {
        use super::*;
        use proptest::prelude::*;

        /// One emitted piece of a load: a run of `words` lanes at word
        /// offset `word` of a small window, so runs cross lines, repeat
        /// and overlap often.
        fn piece() -> impl Strategy<Value = (u64, u32)> {
            prop_oneof![
                (0u64..512, Just(1u32)),
                (0u64..512, 1u32..80),
                (0u64..16, 1u32..8),
            ]
        }

        /// Lays the pieces out in rising, falling or drawn order; orders
        /// 3 and 4 are rising and falling with every piece cut to one
        /// word, the per-lane coalescer's monotone shapes.
        fn layout(pieces: &[(u64, u32)], order: u8) -> Vec<Run> {
            let mut v: Vec<(u64, u32)> = pieces.to_vec();
            if order >= 3 {
                v.iter_mut().for_each(|p| p.1 = 1);
            }
            match order {
                0 | 3 => v.sort_unstable(),
                1 | 4 => v.sort_unstable_by(|x, y| y.cmp(x)),
                _ => {}
            }
            let mut runs = Vec::new();
            for (word, words) in v {
                push_run(&mut runs, 0x10_0000 + word * 4, words);
            }
            runs
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Coalescing a run list gives exactly the line sequence the
            /// per-lane coalescer gives on its expansion.
            #[test]
            fn run_coalescing_equals_per_lane_coalescing(
                pieces in prop::collection::vec(piece(), 1..24),
                order in 0u8..5,
            ) {
                let runs = layout(&pieces, order);
                let lanes: Vec<u64> = runs.iter().flat_map(|r| r.lanes()).collect();
                let mut oracle = Vec::new();
                coalesce_lines(&mut oracle, lanes.iter().copied());
                prop_assert_eq!(run_lines(&runs), oracle);
            }

            /// Push-merging lanes and expanding the runs returns the pushed
            /// lane sequence exactly, and no two neighbouring runs are
            /// contiguous (the runs are maximal).
            #[test]
            fn push_merge_then_expand_is_identity(
                pieces in prop::collection::vec(piece(), 0..24),
                order in 0u8..5,
            ) {
                let lanes: Vec<u64> =
                    layout(&pieces, order).iter().flat_map(|r| r.lanes()).collect();
                let runs = runs_of(&lanes);
                let back: Vec<u64> = runs.iter().flat_map(|r| r.lanes()).collect();
                prop_assert_eq!(back, lanes);
                prop_assert!(runs.windows(2).all(|w| w[0].end() != w[1].base));
            }
        }
    }

    mod analytic_props {
        use super::*;
        use proptest::prelude::*;

        fn slot_spec() -> impl Strategy<Value = SlotSpec> {
            // Computing appears twice to bias the mix toward busy slots.
            prop_oneof![
                Just(SlotSpec::Empty),
                (1u32..24).prop_map(SlotSpec::Computing),
                (24u32..400).prop_map(SlotSpec::Computing),
                Just(SlotSpec::Parked),
                Just(SlotSpec::Waiting),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The tentpole equivalence, pinned at the SM level: for every
            /// mix of computing bursts, parked stores, waiters and holes, at
            /// every issue width and cursor position, `advance_compute` over
            /// any valid span — including any two-chunk split of it, the
            /// checkpoint-pause shape — leaves the SM bit-identical to the
            /// naive per-cycle loop.
            #[test]
            fn advance_compute_matches_naive_loop(
                specs in prop::collection::vec(slot_spec(), 1..48),
                issue_width in 1usize..5,
                rr in 0usize..48,
                span_pct in 0u64..=100,
                split_pct in 0u64..=100,
            ) {
                let sm = build_sm(&specs, issue_width, rr);
                let now = 0u64;
                let event = sm.next_external_event(now);
                if let Some(event) = event {
                    // The event is where a real tick becomes necessary; every
                    // strictly earlier cycle is analytically replayable.
                    let max_span = event - now - 1;
                    if max_span == 0 {
                        return Ok(());
                    }
                    let span = 1 + (max_span - 1) * span_pct / 100;
                    let mut analytic = build_sm(&specs, issue_width, rr);
                    prop_assert!(analytic.advance_compute(span));
                    let mut naive = build_sm(&specs, issue_width, rr);
                    naive_advance(&mut naive, span);
                    prop_assert_eq!(state_bytes(&analytic), state_bytes(&naive));
                    // A split replay (pause + resume mid-span) composes.
                    let split = span * split_pct / 100;
                    let mut chunked = build_sm(&specs, issue_width, rr);
                    if split > 0 {
                        prop_assert!(chunked.advance_compute(split));
                    }
                    if span - split > 0 {
                        prop_assert!(chunked.advance_compute(span - split));
                    }
                    prop_assert_eq!(state_bytes(&chunked), state_bytes(&naive));
                    if span == max_span {
                        // At the span end some warp went Ready: the SM now
                        // needs a real tick next cycle, in both worlds.
                        prop_assert_eq!(
                            analytic.next_external_event(now + span),
                            Some(now + span + 1)
                        );
                    }
                } else {
                    // No event: the naive loop must agree nothing happens.
                    prop_assert!(!sm.has_work());
                }
            }
        }
    }
}
