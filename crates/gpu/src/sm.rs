//! A streaming multiprocessor: warp slots, warp scheduler, L1 cache, MSHRs.
//!
//! Each SM holds up to `warps_per_sm` resident warps and issues up to
//! `issue_width` warp instructions per core cycle with a loose round-robin
//! scheduler. Loads and stores arrive as lists of strided lane runs
//! ([`Run`]; a store adds one value per lane) and stay in that form: they
//! are coalesced to 128-byte lines run by run, looked up in the (tag-only)
//! L1, merged in the L1 MSHRs, and forwarded to the home L2 slice through
//! the request interconnect. A warp blocks until every line of its load has
//! arrived; values are assembled line-at-a-time from the functional memory
//! image — or from value-predictor output for lines whose DRAM request was
//! dropped by AMS. A store's values are staged as runs and written to the
//! image line-at-a-time in phase B. Parking a load or a store in a slot
//! therefore costs 16 bytes per run plus 4 per stored lane, so an
//! array-of-structs access parks as a few strided runs, not as one entry
//! per lane.
//!
//! The issue path is allocation-free in steady state: programs emit into the
//! SM's reusable [`OpBuf`], and per-load / per-store bookkeeping lives in
//! slot-persistent buffers whose capacity survives across ops *and* across
//! the warps that occupy the slot. A completed load's values are the one
//! exception: they sit in a buffer taken from the SM's pool when the load
//! completes and returned once the warp's next `next()` has consumed them,
//! so the SM holds as many value buffers as loads that have completed but
//! are not yet consumed, not one per slot sized by its largest load.

use crate::cache::{AccessResult, Cache};
use crate::kernel::{Kernel, OpBuf, OpKind, WarpProgram};
use crate::memimg::{lane_count, MemoryImage, OverlayView, Run, LINE_BYTES};
use lazydram_common::snap::Saver;
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
    /// The store's lane runs, in lane order.
    runs: Vec<Run>,
    /// One value per lane of `runs`.
    values: Vec<f32>,
    /// Distinct line addresses, in first-touch order.
    lines: Vec<u64>,
    /// `(channel, requests)` pairs the store needs to place atomically.
    per_slice: Vec<(usize, usize)>,
}

impl StorePlan {
    const fn new() -> Self {
        Self {
            runs: Vec::new(),
            values: Vec::new(),
            lines: Vec::new(),
            per_slice: Vec::new(),
        }
    }
}

/// One warp slot. `program.is_none()` ⇔ the slot is empty; the scratch
/// buffers (`wait`, `store`) persist for the SM's lifetime, so successive
/// warps occupying the slot inherit warmed capacity. `last_loaded` holds a
/// buffer from the SM's `load_pool` only between a load's completion and
/// its consumption.
struct WarpSlot {
    program: Option<Box<dyn WarpProgram>>,
    /// Warp id the occupying program was built for ([`Kernel::program`]);
    /// meaningless while the slot is empty.
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
    /// Capacity-free while no completed load awaits consumption.
    last_loaded: Vec<f32>,
    /// [`Sm::mem_epoch`] value as of this slot's last drain attempt. A
    /// retry with an unchanged epoch cannot probe-hit or merge any unsent
    /// line; combined with `unsent_channels` it makes futile retries O(1).
    /// Derived state — not serialized.
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
    /// Lane runs of the functional store writes, in program order; phase B
    /// commits them to the shared [`MemoryImage`]. Until then they overlay
    /// this SM's own reads (see [`OverlayView`]).
    pub write_runs: Vec<Run>,
    /// One value per lane of `write_runs`.
    pub write_values: Vec<f32>,
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
            write_runs: Vec::new(),
            write_values: Vec::new(),
            free: vec![0; channels],
        }
    }

    /// Resets the stage for a new cycle against the given cycle-start
    /// free-slot snapshot (one entry per request-NoC channel).
    pub fn begin_cycle(&mut self, free0: &[usize]) {
        self.reqs.clear();
        self.write_runs.clear();
        self.write_values.clear();
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

    /// Stages a store's lane runs and values for the phase-B commit.
    pub fn stage_writes(&mut self, runs: &[Run], values: &[f32]) {
        self.write_runs.extend_from_slice(runs);
        self.write_values.extend_from_slice(values);
    }

    /// This SM's own reads: the image patched by the writes staged so far.
    pub fn view<'a>(&'a self, image: &'a MemoryImage) -> OverlayView<'a> {
        OverlayView::new(image, &self.write_runs, &self.write_values)
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

/// Gives an empty `last_loaded` a buffer from `pool` (or a fresh one when
/// the pool is dry), so the load's values reuse a retired buffer's
/// capacity.
fn take_load_buf(last_loaded: &mut Vec<f32>, pool: &mut Vec<Vec<f32>>) {
    debug_assert!(last_loaded.is_empty(), "unconsumed load values");
    if last_loaded.capacity() == 0 {
        *last_loaded = pool.pop().unwrap_or_default();
    }
}

/// Returns `last_loaded`'s buffer, if it holds one, to `pool` emptied.
fn release_load_buf(last_loaded: &mut Vec<f32>, pool: &mut Vec<Vec<f32>>) {
    if last_loaded.capacity() > 0 {
        let mut vals = std::mem::take(last_loaded);
        vals.clear();
        pool.push(vals);
    }
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
/// `(first, last)` line range of a run ([`Run::line_span`]). A run's lanes
/// rise at most a line apart, so they touch every line of the span in
/// rising order: walking a span's lines in rising order touches them in
/// exactly the order its lanes do, and the result equals per-lane
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
/// slot state.
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
    /// Empty load-value buffers: a completing load takes one into its
    /// slot's `last_loaded`, and the issue that consumes the values returns
    /// it.
    load_pool: Vec<Vec<f32>>,
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
    /// the park/unpark transitions in [`Sm::commit_store`]; purely an
    /// acceleration structure, never consulted
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
            instructions: 0,
            approximated_loads: 0,
            live_warps: 0,
            scratch_arrived: Vec::new(),
            scratch_lines: Vec::new(),
            opbuf: OpBuf::new(),
            waiter_pool: Vec::new(),
            load_pool: Vec::new(),
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
        let (issueable, unsent, stalled) = if slot.program.is_none() {
            (false, false, false)
        } else {
            (
                slot.store_parked
                    || matches!(slot.state, WarpState::Ready | WarpState::Computing { .. }),
                matches!(slot.state, WarpState::Waiting) && !slot.wait.unsent.is_empty(),
                slot.store_parked,
            )
        };
        self.issueable = if issueable {
            self.issueable | bit
        } else {
            self.issueable & !bit
        };
        self.unsent = if unsent {
            self.unsent | bit
        } else {
            self.unsent & !bit
        };
        self.stalled = if stalled {
            self.stalled | bit
        } else {
            self.stalled & !bit
        };
    }

    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Number of resident, unfinished warps.
    pub fn live_warps(&self) -> usize {
        self.live_warps
    }

    /// `true` when [`Sm::tick`] could change anything this cycle, given the
    /// cycle-start request-NoC free-slot snapshot `free0` (`avail` is the
    /// mask of channels with a free slot) and no reply to deliver (the
    /// caller checks the reply NoC). An SM that is not due ticks as an
    /// exact no-op, so the phased tick may skip it:
    ///
    /// * a warp is `Ready` (not a parked store) or `Computing`;
    /// * a drain retry would act: its first slot's futility proof is stale,
    ///   a channel one of that slot's unsent lines needs has free space, or
    ///   the retry would move the `drain_rr` cursor;
    /// * a parked store's plan fits `free0`.
    ///
    /// A failed drain retry stops at its first slot and a failed store
    /// retry changes nothing, which is what makes the remaining cases
    /// no-ops.
    pub fn is_due(&self, free0: &[usize], avail: u32) -> bool {
        if self.live_warps == 0 {
            return false;
        }
        if self.issueable & !self.stalled != 0 {
            return true;
        }
        if self.unsent != 0 && self.mshr.len() < self.mshr_capacity {
            let idx = self.first_unsent();
            let slot = &self.slots[idx];
            if self.drain_rr != idx
                || slot.drain_epoch != self.mem_epoch
                || slot.unsent_channels & avail != 0
            {
                return true;
            }
        }
        // As in the issue scan, a plan needing a full channel cannot fit.
        let scan = self.stalled & !self.parked_on(!avail);
        let mut fits = false;
        for_each_bit_rotated(scan, 0, |idx| {
            fits = self.slots[idx]
                .store
                .per_slice
                .iter()
                .all(|&(ch, count)| free0[ch] >= count);
            !fits
        });
        fits
    }

    /// For an SM that is not due at `free0` ([`Sm::is_due`]): fills
    /// `need[ch]` with the fewest free request-NoC slots on channel `ch`
    /// that could make it due again (`usize::MAX` for none) and returns the
    /// mask of channels with a finite entry. Until a reply arrives, the SM
    /// stays not due while every channel's free count stays below its
    /// entry: a drain needs one slot on a channel its first slot waits on;
    /// a parked store needs one slot on a full channel of its plan (a
    /// conservative bound, found per channel instead of per plan), or else
    /// its whole share on its first short channel.
    pub fn wake_needs(&self, free0: &[usize], avail: u32, need: &mut [usize]) -> u32 {
        need.fill(usize::MAX);
        let mut ones = 0u32;
        if self.unsent != 0 && self.mshr.len() < self.mshr_capacity {
            ones = self.slots[self.first_unsent()].unsent_channels;
        }
        for (ch, &parked) in self.parked_need.iter().enumerate() {
            if avail & (1 << ch) == 0 && parked != 0 {
                ones |= 1 << ch;
            }
        }
        let mut m = ones;
        while m != 0 {
            need[m.trailing_zeros() as usize] = 1;
            m &= m - 1;
        }
        for_each_bit_rotated(self.stalled & !self.parked_on(!avail), 0, |idx| {
            let plan = &self.slots[idx].store.per_slice;
            if let Some(&(ch, count)) = plan.iter().find(|&&(ch, count)| free0[ch] < count) {
                need[ch] = need[ch].min(count);
            }
            true
        });
        need.iter()
            .enumerate()
            .filter(|&(_, &n)| n != usize::MAX)
            .fold(0u32, |m, (ch, _)| m | 1 << ch)
    }

    /// The parked stores whose plans need at least one of the channels in
    /// `mask`.
    fn parked_on(&self, mask: u32) -> u128 {
        let mut slots = 0u128;
        for (ch, &need) in self.parked_need.iter().enumerate() {
            if mask & (1 << ch) != 0 {
                slots |= need;
            }
        }
        slots
    }

    /// The slot a drain retry visits first: the first `unsent` bit at or
    /// after the `drain_rr` cursor, wrapping. Requires `unsent != 0`.
    fn first_unsent(&self) -> usize {
        let mut first = 0;
        for_each_bit_rotated(self.unsent, self.drain_rr % self.slots.len(), |idx| {
            first = idx;
            false
        });
        first
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
        debug_assert!(
            slot.last_loaded.capacity() == 0,
            "vacated slot holds a load buffer"
        );
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
                Self::complete_load(
                    slot,
                    &mut self.load_pool,
                    &OverlayView::new(image, &[], &[]),
                    &mut self.approximated_loads,
                );
                self.refresh_masks(idx);
            }
        }
        waiters.clear();
        self.waiter_pool.push(waiters);
    }

    fn complete_load(
        slot: &mut WarpSlot,
        pool: &mut Vec<Vec<f32>>,
        view: &OverlayView<'_>,
        approx_ctr: &mut u64,
    ) {
        debug_assert!(
            matches!(slot.state, WarpState::Waiting),
            "complete_load on non-waiting warp"
        );
        let WarpSlot {
            state,
            last_loaded,
            wait,
            ..
        } = slot;
        take_load_buf(last_loaded, pool);
        if wait.approx.is_empty() {
            // Exact load: one line resolution per line each run touches,
            // filling the pooled buffer.
            view.read_runs_into(&wait.runs, last_loaded);
        } else {
            // Every approximated line covers at least one lane (pending
            // lines come from coalescing the runs), so reaching this branch
            // means the load used predicted values: read the exact values,
            // then overwrite the lanes on approximated lines.
            view.read_runs_into(&wait.runs, last_loaded);
            let mut first = 0;
            for r in &wait.runs {
                let step = r.step();
                for (line, start, take) in r.line_chunks() {
                    if let Some((_, vals)) = wait.approx.iter().find(|(l, _)| *l == line) {
                        let lanes = &mut last_loaded[first..first + take];
                        for (k, v) in lanes.iter_mut().enumerate() {
                            *v = vals[start + k * step];
                        }
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
                    release_load_buf(&mut slot.last_loaded, &mut self.load_pool);
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
            OpKind::Store => self.issue_store(idx, op.runs(), op.values(), ctx),
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
        self.instructions += lane_count(runs).div_ceil(32) as u64;
        let WarpSlot {
            state,
            wait,
            last_loaded,
            ..
        } = &mut self.slots[idx];
        if wait.pending.is_empty() {
            // Pure L1 hit: values available for the next issue of this warp,
            // assembled line-at-a-time into a pooled buffer. The overlay
            // makes stores staged earlier this cycle visible.
            take_load_buf(last_loaded, &mut self.load_pool);
            ctx.stage.view(ctx.image).read_runs_into(runs, last_loaded);
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
        let view = ctx.stage.view(ctx.image);
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
            Self::complete_load(
                slot,
                &mut self.load_pool,
                &view,
                &mut self.approximated_loads,
            );
        }
    }

    fn issue_store(
        &mut self,
        idx: usize,
        runs: &[Run],
        values: &[f32],
        ctx: &mut SmCtx<'_>,
    ) -> bool {
        debug_assert!(!runs.is_empty(), "empty store");
        // Build the coalescing plan into the slot's persistent buffers.
        let store = &mut self.slots[idx].store;
        store.runs.clear();
        store.runs.extend_from_slice(runs);
        store.values.clear();
        store.values.extend_from_slice(values);
        store.lines.clear();
        coalesce_spans(&mut store.lines, runs.iter().map(|r| r.line_span()));
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
        ctx.stage.stage_writes(&store.runs, &store.values);
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
        self.instructions += store.values.len().div_ceil(32) as u64;
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
                let lane_addrs: Vec<u64> = slot.wait.runs.iter().flat_map(|r| r.lanes()).collect();
                s.u64s("lane_addrs", &lane_addrs);
                s.u64s("pending", &slot.wait.pending);
                s.u64s("unsent", &slot.wait.unsent);
                s.seq("approx", slot.wait.approx.len());
                for (line, vals) in &slot.wait.approx {
                    s.u64("line", *line);
                    s.f32s("vals", vals);
                }
                // Stores are written expanded too, one `(addr, val)` per lane.
                s.seq("writes", slot.store.values.len());
                let addrs = slot.store.runs.iter().flat_map(|r| r.lanes());
                for (a, &v) in addrs.zip(&slot.store.values) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memimg::push_lane;
    use crate::noc::DelayQueue;
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
            Box::new(MiniProgram {
                base: self.base,
                step: 0,
            })
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
                1 => out
                    .begin_load()
                    .extend((0..32u64).map(|i| self.base + i * 4)),
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
    }

    fn setup() -> (
        Sm,
        MemoryImage,
        AddressMap,
        MiniKernel,
        Vec<DelayQueue<SliceReq>>,
    ) {
        let cfg = GpuConfig::default();
        let sm = Sm::new(0, &cfg);
        let mut image = MemoryImage::new();
        let mut kernel = MiniKernel { base: 0 };
        kernel.setup(&mut image);
        let map = AddressMap::new(&cfg);
        let noc: Vec<DelayQueue<SliceReq>> = (0..6).map(|_| DelayQueue::new(0, 64, 8)).collect();
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
            let mut ctx = SmCtx {
                image,
                map,
                kernel,
                stage: &mut stage,
            };
            sm.tick(&mut ctx);
        }
        if !stage.write_runs.is_empty() {
            image.write_runs(&stage.write_runs, &stage.write_values);
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
        sm.on_reply(
            Reply {
                line: base,
                values: None,
            },
            &image,
        );
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
        sm.on_reply(
            Reply {
                line: base,
                values: Some([7.0; 32]),
            },
            &image,
        );
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
        let mut kernel = TwoWarps {
            inner: MiniKernel { base: 0 },
        };
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
        sm.on_reply(
            Reply {
                line: base,
                values: None,
            },
            &image,
        );
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        run_cycle(&mut sm, 3, &mut image, &map, &kernel, &mut noc);
        assert_eq!(sm.live_warps(), 0, "both warps must complete");
    }

    #[test]
    fn noc_backpressure_defers_miss_requests() {
        let (mut sm, mut image, map, kernel, _) = setup();
        let base = kernel.base;
        // Tiny NoC with no room.
        let mut noc: Vec<DelayQueue<SliceReq>> = (0..6).map(|_| DelayQueue::new(0, 1, 1)).collect();
        for q in noc.iter_mut() {
            q.push(
                0,
                SliceReq {
                    sm: 9,
                    line: 0,
                    write: false,
                    approximable: false,
                },
            )
            .unwrap();
        }
        sm.dispatch(0, kernel.program(0));
        run_cycle(&mut sm, 1, &mut image, &map, &kernel, &mut noc);
        // The load issues (instruction retired) but its miss request cannot
        // leave yet: no MSHR is allocated, the line sits in `unsent`.
        assert_eq!(sm.instructions, 1, "load issues despite backpressure");
        assert!(
            sm.mshr.is_empty(),
            "no MSHR allocated while the NoC is full"
        );
        // Free the queue; the deferred request drains on a later tick.
        for q in noc.iter_mut() {
            let _ = q.pop_ready(1);
        }
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        assert_eq!(sm.mshr.len(), 1, "deferred miss sent once space freed");
        assert!(sm.mshr.contains_key(&base));
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
                Box::new(MiniProgram {
                    base: self.base + warp as u64 * 256,
                    step: 0,
                })
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
        let cfg = GpuConfig {
            l1_mshrs: 1,
            ..GpuConfig::default()
        };
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
        sm.on_reply(
            Reply {
                line: kernel.base,
                values: None,
            },
            &image,
        );
        run_cycle(&mut sm, 2, &mut image, &map, &kernel, &mut noc);
        assert!(
            sm.mshr.contains_key(&(kernel.base + 256)),
            "freed MSHR goes to the wrapped-around blocked slot"
        );
        assert_eq!(sm.unsent, 0, "warp 1's single line drained fully");
        // A drain that *stays* blocked records its slot as the resume
        // point. Refill the MSHR pressure via a third resident warp.
        assert_eq!(
            sm.drain_rr, 7,
            "a fully drained scan leaves the cursor alone"
        );
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
            push_lane(&mut runs, a);
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
            (0..64u64).map(|i| i * 4).collect(),           // rising, dense
            (0..64u64).rev().map(|i| i * 4).collect(),     // falling
            (0..32u64).map(|i| 4096 + i * 128).collect(),  // rising, strided
            vec![100, 100, 100],                           // constant
            vec![0, 300, 40, 700, 40, 0],                  // non-monotone
            vec![5000],                                    // single
            vec![],                                        // empty
            (0..48u64).map(|i| (i * 37) % 1024).collect(), // scrambled
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

    /// Load values live in pooled buffers: 48 resident warps whose
    /// 3DCONV-sized loads (3,456 words, 13.5 KiB) complete one after
    /// another, each consumed before the next completes, leave the SM with
    /// one buffer, not one per slot.
    #[test]
    fn consumed_loads_share_one_pooled_buffer() {
        const WORDS: usize = 3456;
        /// Loads its own region, then computes long enough to stay resident.
        struct LoadThenCompute {
            base: u64,
            loaded: bool,
        }
        impl WarpProgram for LoadThenCompute {
            fn next(&mut self, loaded: &[f32], out: &mut OpBuf) {
                if self.loaded {
                    assert_eq!(loaded.len(), WORDS);
                    out.set_compute(1_000_000);
                } else {
                    self.loaded = true;
                    out.begin_load().run(self.base, WORDS);
                }
            }
            fn save_state(&self, _s: &mut Saver) {}
        }
        let (mut sm, mut image, map, kernel, _) = setup();
        let slots = sm.slots.len();
        assert_eq!(slots, 48);
        let region = image.alloc(slots * WORDS);
        let buffers = |sm: &Sm| {
            sm.load_pool.len()
                + sm.slots
                    .iter()
                    .filter(|s| s.last_loaded.capacity() > 0)
                    .count()
        };
        let mut now = 0;
        for w in 0..slots {
            let base = region + (w as u64) * WORDS as u64 * 4;
            sm.dispatch(
                w,
                Box::new(LoadThenCompute {
                    base,
                    loaded: false,
                }),
            );
            // Nothing drains the request NoC here; a fresh one per warp
            // keeps every warp's requests from backing up behind the last.
            let mut noc: Vec<DelayQueue<SliceReq>> =
                (0..6).map(|_| DelayQueue::new(0, 64, 8)).collect();
            while !matches!(sm.slots[w].state, WarpState::Waiting) {
                now += 1;
                run_cycle(&mut sm, now, &mut image, &map, &kernel, &mut noc);
            }
            // Every line misses (each warp has its own region). Answer
            // the lines in the MSHRs, let the next cycle send the lines
            // that did not fit, and repeat: the last reply completes it.
            while matches!(sm.slots[w].state, WarpState::Waiting) {
                let lines: Vec<u64> = sm.mshr.keys().copied().collect();
                for line in lines {
                    sm.on_reply(Reply { line, values: None }, &image);
                }
                if matches!(sm.slots[w].state, WarpState::Waiting) {
                    now += 1;
                    run_cycle(&mut sm, now, &mut image, &map, &kernel, &mut noc);
                }
            }
            assert!(
                matches!(sm.slots[w].state, WarpState::Ready),
                "warp {w} load incomplete"
            );
            assert_eq!(
                buffers(&sm),
                1,
                "warp {w}: completed load holds the one buffer"
            );
            while !matches!(sm.slots[w].state, WarpState::Computing { .. }) {
                now += 1;
                run_cycle(&mut sm, now, &mut image, &map, &kernel, &mut noc);
            }
        }
        assert_eq!(sm.live_warps(), slots);
        assert_eq!(
            sm.load_pool.len(),
            1,
            "one pooled buffer after 48 consumed loads"
        );
        assert!(sm.load_pool[0].capacity() >= WORDS);
        assert!(sm.slots.iter().all(|s| s.last_loaded.capacity() == 0));
    }

    /// An inversek2j-shaped slot: a load of 2 words × 256 items of 8-byte
    /// structs, every line a miss, parked behind a 256-lane store at
    /// stride 8. Both park as strided runs, so the slot's run and store
    /// bookkeeping is one value per stored lane plus a few runs (1,152 B),
    /// not 16 bytes per lane (12 KiB as one-word runs and per-lane pairs).
    #[test]
    fn strided_slot_bookkeeping_stays_small() {
        const ITEMS: u64 = 256;
        /// Stores one field of `ITEMS` structs, then loads both fields.
        struct StoreThenLoad {
            input: u64,
            output: u64,
            step: u32,
        }
        impl WarpProgram for StoreThenLoad {
            fn next(&mut self, _loaded: &[f32], out: &mut OpBuf) {
                self.step += 1;
                match self.step {
                    1 => {
                        let mut store = out.begin_store();
                        for i in 0..ITEMS {
                            store.push(self.output + i * 8, i as f32);
                        }
                    }
                    2 => {
                        let mut load = out.begin_load();
                        for w in 0..2 {
                            for i in 0..ITEMS {
                                load.push(self.input + (i * 2 + w) * 4);
                            }
                        }
                    }
                    _ => out.set_finished(),
                }
            }
            fn save_state(&self, _s: &mut Saver) {}
        }
        let (mut sm, mut image, map, kernel, mut noc) = setup();
        let input = image.alloc(2 * ITEMS as usize);
        let output = image.alloc(2 * ITEMS as usize);
        sm.dispatch(
            0,
            Box::new(StoreThenLoad {
                input,
                output,
                step: 0,
            }),
        );
        let mut now = 0;
        while !matches!(sm.slots[0].state, WarpState::Waiting) {
            now += 1;
            run_cycle(&mut sm, now, &mut image, &map, &kernel, &mut noc);
        }
        let slot = &sm.slots[0];
        assert!(!slot.store_parked);
        assert_eq!(slot.wait.pending.len(), 16, "all 16 lines of the load miss");
        assert_eq!(lane_count(&slot.wait.runs), 2 * ITEMS as usize);
        assert_eq!(slot.store.values.len(), ITEMS as usize);
        for i in 0..ITEMS {
            assert_eq!(image.read_f32(output + i * 8), i as f32, "store committed");
        }
        let run = std::mem::size_of::<Run>();
        let bytes = slot.wait.runs.capacity() * run
            + slot.store.runs.capacity() * run
            + slot.store.values.capacity() * std::mem::size_of::<f32>();
        assert!(
            bytes <= 1229,
            "slot run and store bookkeeping is {bytes} B, over 1.2 KiB"
        );
    }

    mod coalesce_props {
        use super::*;
        use proptest::prelude::*;

        /// Word offset of the lane window from the image base; descending
        /// pieces walk down from their start, so the window starts high.
        const WINDOW: u64 = 4096;

        /// One emitted piece of a lane sequence, at a word offset of a small
        /// window, so pieces cross lines, repeat and overlap often.
        #[derive(Debug, Clone, Copy)]
        enum Piece {
            /// `words` consecutive words, emitted as one `run`.
            Run(u64, u32),
            /// `lanes` lanes `step` words apart, rising; step 0 repeats one
            /// word and steps above 32 leave gaps over 128 B.
            Strided(u64, u32, u64),
            /// `lanes` lanes `step` words apart, falling.
            Descending(u64, u32, u64),
            /// A clamped border tap: the first word repeated `front` times,
            /// `lanes` consecutive words, the last one repeated `back` times.
            Clamped(u64, u32, u32, u32),
        }

        impl Piece {
            fn lanes(self) -> Vec<u64> {
                let at = |w: u64| 0x10_0000 + (WINDOW + w) * 4;
                match self {
                    Piece::Run(w, n) => (0..u64::from(n)).map(|i| at(w + i)).collect(),
                    Piece::Strided(w, n, step) => {
                        (0..u64::from(n)).map(|i| at(w + i * step)).collect()
                    }
                    Piece::Descending(w, n, step) => {
                        (0..u64::from(n)).map(|i| at(w) - i * step * 4).collect()
                    }
                    Piece::Clamped(w, n, front, back) => {
                        let last = w + u64::from(n) - 1;
                        std::iter::repeat_n(at(w), front as usize)
                            .chain((w..=last).map(at))
                            .chain(std::iter::repeat_n(at(last), back as usize))
                            .collect()
                    }
                }
            }

            fn first(self) -> u64 {
                self.lanes()[0]
            }
        }

        fn piece() -> impl Strategy<Value = Piece> {
            prop_oneof![
                (0u64..512).prop_map(|w| Piece::Run(w, 1)),
                (0u64..512, 1u32..80).prop_map(|(w, n)| Piece::Run(w, n)),
                (0u64..16, 1u32..8).prop_map(|(w, n)| Piece::Run(w, n)),
                (0u64..512, 1u32..40, 0u64..=48).prop_map(|(w, n, s)| Piece::Strided(w, n, s)),
                (0u64..512, 1u32..40, 1u64..=48).prop_map(|(w, n, s)| Piece::Descending(w, n, s)),
                (0u64..512, 1u32..33, 0u32..4, 0u32..4)
                    .prop_map(|(w, n, f, b)| Piece::Clamped(w, n, f, b)),
            ]
        }

        /// Orders the pieces rising, falling or as drawn; orders 3 and 4
        /// are rising and falling with every piece cut to its first lane,
        /// the per-lane coalescer's monotone shapes.
        fn order_pieces(pieces: &[Piece], order: u8) -> Vec<Piece> {
            let mut v: Vec<Piece> = pieces.to_vec();
            if order >= 3 {
                v.iter_mut()
                    .for_each(|p| *p = Piece::Run((p.first() - 0x10_0000) / 4 - WINDOW, 1));
            }
            match order {
                0 | 3 => v.sort_by_key(|p| p.first()),
                1 | 4 => v.sort_by_key(|p| std::cmp::Reverse(p.first())),
                _ => {}
            }
            v
        }

        /// The lane sequence of the ordered pieces.
        fn lanes_of(pieces: &[Piece]) -> Vec<u64> {
            pieces.iter().flat_map(|p| p.lanes()).collect()
        }

        /// Emits the ordered pieces as a program would: `Run` pieces through
        /// `push_run`, every other lane through `push_lane`.
        fn layout(pieces: &[Piece]) -> Vec<Run> {
            let mut runs = Vec::new();
            for &p in pieces {
                match p {
                    Piece::Run(..) => {
                        let lanes = p.lanes();
                        crate::memimg::push_run(&mut runs, lanes[0], lanes.len() as u32);
                    }
                    _ => p.lanes().into_iter().for_each(|a| push_lane(&mut runs, a)),
                }
            }
            runs
        }

        /// Runs that contiguous-only merging would build for `lanes`.
        fn contiguous_runs(lanes: &[u64]) -> usize {
            (0..lanes.len())
                .filter(|&i| i == 0 || lanes[i] != lanes[i - 1] + 4)
                .count()
        }

        /// Words from the image base past the highest lane a piece reaches.
        const SPAN: u64 = WINDOW + 4096;

        /// The image the read and write properties run against: every word
        /// of the lane window holds a distinct value.
        fn window_image() -> MemoryImage {
            let mut img = MemoryImage::new();
            let words = SPAN as usize;
            let base = img.alloc(words);
            let data: Vec<f32> = (0..words).map(|i| i as f32).collect();
            img.write_slice(base, &data);
            img
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
                let runs = layout(&order_pieces(&pieces, order));
                let lanes: Vec<u64> = runs.iter().flat_map(|r| r.lanes()).collect();
                let mut oracle = Vec::new();
                coalesce_lines(&mut oracle, lanes.iter().copied());
                prop_assert_eq!(run_lines(&runs), oracle);
            }

            /// Push-merging lanes and expanding the runs returns the pushed
            /// lane sequence exactly, every run is well formed, no lane
            /// could have extended the run before it (the runs are
            /// maximal), and there are never more runs than contiguous-only
            /// merging would build.
            #[test]
            fn push_merge_then_expand_is_identity(
                pieces in prop::collection::vec(piece(), 0..24),
                order in 0u8..5,
            ) {
                let ordered = order_pieces(&pieces, order);
                let lanes = lanes_of(&ordered);
                let emitted: Vec<u64> =
                    layout(&ordered).iter().flat_map(|r| r.lanes()).collect();
                prop_assert_eq!(&emitted, &lanes);
                let runs = runs_of(&lanes);
                let back: Vec<u64> = runs.iter().flat_map(|r| r.lanes()).collect();
                prop_assert_eq!(&back, &lanes);
                for r in &runs {
                    prop_assert!(r.words >= 1 && r.stride.is_multiple_of(4));
                    prop_assert!(u64::from(r.stride) <= LINE_BYTES);
                    prop_assert!(r.words > 1 || r.stride == 4);
                }
                prop_assert!(runs.windows(2).all(|w| {
                    let mut tail = vec![w[0]];
                    push_lane(&mut tail, w[1].base);
                    tail.len() == 2
                }));
                prop_assert!(runs.len() <= contiguous_runs(&lanes));
            }

            /// Run-based reads and writes equal per-lane ones: reading runs
            /// from the image or through an overlay of staged run writes
            /// gives each lane's `read_f32`, latest overlay write winning,
            /// and writing runs leaves the image a per-lane `write_f32` in
            /// lane order leaves.
            #[test]
            fn run_reads_and_writes_equal_per_lane_access(
                reads in prop::collection::vec(piece(), 1..12),
                writes in prop::collection::vec(piece(), 0..6),
                order in 0u8..5,
            ) {
                let img = window_image();
                let read_pieces = order_pieces(&reads, order);
                let read_runs = layout(&read_pieces);
                let read_lanes = lanes_of(&read_pieces);
                let mut got = Vec::new();
                img.read_runs_into(&read_runs, &mut got);
                let plain: Vec<f32> = read_lanes.iter().map(|&a| img.read_f32(a)).collect();
                prop_assert_eq!(&got, &plain);

                let write_runs = layout(&writes);
                let write_lanes = lanes_of(&writes);
                let values: Vec<f32> = (0..write_lanes.len()).map(|i| -1.0 - i as f32).collect();
                let view = OverlayView::new(&img, &write_runs, &values);
                view.read_runs_into(&read_runs, &mut got);
                let latest = |a: u64| {
                    write_lanes.iter().zip(&values).rev().find(|&(&w, _)| w == a).map(|(_, &v)| v)
                };
                let want: Vec<f32> =
                    read_lanes.iter().map(|&a| latest(a).unwrap_or(img.read_f32(a))).collect();
                prop_assert_eq!(&got, &want);
                let per_lane: Vec<f32> = read_lanes.iter().map(|&a| view.read_f32(a)).collect();
                prop_assert_eq!(&got, &per_lane);

                let mut by_runs = img.clone();
                by_runs.write_runs(&write_runs, &values);
                let mut by_lanes = img;
                for (&a, &v) in write_lanes.iter().zip(&values) {
                    by_lanes.write_f32(a, v);
                }
                let window = 0x10_0000..0x10_0000 + SPAN * 4;
                for a in window.step_by(4) {
                    prop_assert_eq!(by_runs.read_f32(a), by_lanes.read_f32(a), "word {:#x}", a);
                }
                prop_assert_eq!(by_runs.resident_lines(), by_lanes.resident_lines());
            }
        }
    }
}
