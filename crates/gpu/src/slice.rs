//! An L2 slice: the shared cache bank of one memory partition, its MSHRs,
//! its writeback path, and the value-prediction (VP) unit.
//!
//! The slice sits between the request interconnect and its memory
//! controller. Reads that miss are forwarded to the controller (with MSHR
//! merging); responses flagged `approximated` never touch DRAM data —
//! instead the VP unit searches nearby L2 sets for the resident line with
//! the nearest address and serves *its* values (paper Section IV-D). In the
//! default model approximated lines are not inserted into the cache; with
//! [`approx_reuse`](lazydram_common::SchedConfig::approx_reuse) they are,
//! modeling the paper's footnote-2 "advanced model" including error
//! propagation through reuse.

use crate::cache::{AccessResult, Cache};
use crate::memimg::MemoryImage;
use crate::noc::DelayQueue;
use crate::sm::{Reply, SliceReq};
use crate::trace::{Trace, TraceEntry};
use lazydram_common::snap::Saver;
use lazydram_common::FastMap;
use lazydram_common::{
    AccessKind, AddressMap, GpuConfig, MemSpace, Request, RequestId, SchedConfig,
};
use lazydram_core::{MemoryController, Response};
use std::collections::VecDeque;

/// One L2 slice and its glue to the memory controller.
pub(crate) struct Slice {
    id: usize,
    l2: Cache,
    mshr: FastMap<u64, Vec<usize>>,
    mshr_capacity: usize,
    /// Retired MSHR waiter lists, recycled so a new miss entry does not
    /// allocate.
    waiter_pool: Vec<Vec<usize>>,
    throughput: usize,
    vp_radius: u32,
    approx_reuse: bool,
    /// Responses delivered by the memory controller during memory ticks.
    pub responses: VecDeque<Response>,
    /// Dirty lines evicted while the controller was full.
    wb_buffer: VecDeque<u64>,
    /// Replies that could not enter the reply NoC yet.
    reply_retry: VecDeque<(usize, Reply)>,
    /// Replies produced this cycle (phase C), merged into the reply NoC in
    /// phase D by [`Slice::flush_replies`]. Always empty
    /// between cycles.
    staged_replies: Vec<(usize, Reply)>,
    /// Per-slice request-id counter; ids are globally unique via the
    /// slice-id tag in the low bits (see [`Slice::alloc_id`]), so slices
    /// allocate ids concurrently without coordination.
    next_id: u64,
    /// Approximate contents of L2-resident approximated lines (reuse mode).
    approx_store: FastMap<u64, [f32; 32]>,
    /// Reads that returned VP-predicted values.
    pub approx_replies: u64,
    /// When enabled, every request handed to the controller is recorded.
    pub trace: Option<Trace>,
}

impl Slice {
    pub fn new(id: usize, cfg: &GpuConfig, sched: &SchedConfig) -> Self {
        assert!(
            id < 8,
            "slice id {id} does not fit the 3-bit request-id tag"
        );
        Self {
            id,
            l2: Cache::new(cfg.l2_bytes, cfg.l2_ways, cfg.line_bytes),
            mshr: FastMap::default(),
            mshr_capacity: cfg.l2_mshrs,
            waiter_pool: Vec::new(),
            throughput: cfg.l2_throughput,
            vp_radius: sched.vp_set_radius,
            approx_reuse: sched.approx_reuse,
            responses: VecDeque::new(),
            wb_buffer: VecDeque::new(),
            reply_retry: VecDeque::new(),
            staged_replies: Vec::new(),
            next_id: 0,
            approx_store: FastMap::default(),
            approx_replies: 0,
            trace: None,
        }
    }

    /// Allocates the next request id: the slice-local counter shifted past
    /// a 3-bit slice tag. Ids are globally unique and monotonic per slice,
    /// and — unlike a machine-global counter — independent of the order in
    /// which slices tick.
    fn alloc_id(&mut self) -> RequestId {
        self.next_id += 1;
        RequestId((self.next_id << 3) | self.id as u64)
    }

    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// `true` when the slice holds no outstanding work.
    pub fn is_idle(&self) -> bool {
        self.mshr.is_empty()
            && self.responses.is_empty()
            && self.wb_buffer.is_empty()
            && self.reply_retry.is_empty()
    }

    /// The VP prediction for a dropped line: values of the nearest-address
    /// line resident in this slice's L2, or zeroes when none is in range.
    fn predict(&self, line: u64, image: &MemoryImage) -> [f32; 32] {
        let mut vals = [0.0; 32];
        if let Some(neighbor) = self.l2.nearest_resident(line, self.vp_radius) {
            match self.approx_store.get(&neighbor) {
                Some(v) => vals = *v,
                None => image.read_line_into(neighbor, &mut vals),
            }
        }
        vals
    }

    /// Stages a reply for the phase-D merge into the reply NoC.
    fn send_reply(&mut self, sm: usize, reply: Reply) {
        self.staged_replies.push((sm, reply));
    }

    fn forward_write(
        &mut self,
        line: u64,
        space: MemSpace,
        map: &AddressMap,
        mc: &mut MemoryController,
    ) -> bool {
        if !mc.can_accept() {
            return false;
        }
        let req = Request {
            id: self.alloc_id(),
            addr: line,
            loc: map.decompose(line),
            kind: AccessKind::Write,
            space,
            approximable: false,
            arrival: 0,
        };
        self.record(mc.now(), &req);
        mc.enqueue(req).expect("can_accept checked");
        true
    }

    fn record(&mut self, cycle: u64, req: &Request) {
        if let Some(trace) = &mut self.trace {
            trace.push(TraceEntry {
                cycle,
                channel: req.loc.channel,
                request: *req,
            });
        }
    }

    fn fill_l2(&mut self, line: u64, map: &AddressMap, mc: &mut MemoryController) {
        if let Some((victim, dirty)) = self.l2.fill(line, false) {
            self.approx_store.remove(&victim);
            if dirty && !self.forward_write(victim, MemSpace::Other, map, mc) {
                self.wb_buffer.push_back(victim);
            }
        }
    }

    /// One core cycle of slice work (phase C of the phased tick). Touches
    /// only partition-local state — this slice, its controller, its
    /// incoming queue — plus the image read-only, so no partition observes
    /// another's work from the same cycle. Replies are staged;
    /// [`Slice::flush_replies`] merges them into the reply NoC in phase D.
    pub fn tick(
        &mut self,
        now: u64,
        incoming: &mut DelayQueue<SliceReq>,
        mc: &mut MemoryController,
        image: &MemoryImage,
        map: &AddressMap,
    ) {
        // 0. Retry stalled writebacks first (oldest work). Stalled replies
        // are retried in flush_replies, ahead of this cycle's.
        while let Some(&line) = self.wb_buffer.front() {
            if self.forward_write(line, MemSpace::Other, map, mc) {
                self.wb_buffer.pop_front();
            } else {
                break;
            }
        }

        // 1. Absorb memory-controller responses.
        while let Some(resp) = self.responses.pop_front() {
            let line = resp.addr;
            let reply = if resp.approximated {
                self.approx_replies += 1;
                let vals = self.predict(line, image);
                if self.approx_reuse {
                    self.fill_l2(line, map, mc);
                    self.approx_store.insert(line, vals);
                }
                Reply {
                    line,
                    values: Some(vals),
                }
            } else {
                self.fill_l2(line, map, mc);
                self.approx_store.remove(&line);
                Reply { line, values: None }
            };
            if let Some(mut waiters) = self.mshr.remove(&line) {
                for &sm in &waiters {
                    self.send_reply(sm, reply);
                }
                waiters.clear();
                self.waiter_pool.push(waiters);
            }
        }

        // 2. Service incoming requests. One set scan per request: `lookup`
        // answers hit/miss, `commit` applies the recency/counter effects at
        // exactly the points the old probe-then-access pair counted them.
        for _ in 0..self.throughput {
            let Some(req) = incoming.pop_ready(now) else {
                break;
            };
            let slot = self.l2.lookup(req.line);
            if req.write {
                if slot.is_hit() {
                    let r = self.l2.commit(slot, true);
                    debug_assert_eq!(r, AccessResult::Hit);
                    // The store overwrote (part of) the line; if it was an
                    // approximation, the written words are now exact — we
                    // conservatively treat the whole line as corrected.
                    self.approx_store.remove(&req.line);
                } else {
                    // Write-through, no allocate: forward to DRAM. Count the
                    // miss only when the request actually proceeds, so
                    // backpressure retries do not inflate the statistics.
                    if !self.forward_write(req.line, MemSpace::Global, map, mc) {
                        incoming.push_front(req);
                        break;
                    }
                    let r = self.l2.commit(slot, true);
                    debug_assert_eq!(r, AccessResult::Miss);
                }
            } else if slot.is_hit() {
                let r = self.l2.commit(slot, false);
                debug_assert_eq!(r, AccessResult::Hit);
                let values = self.approx_store.get(&req.line).copied();
                if values.is_some() {
                    self.approx_replies += 1;
                }
                let reply = Reply {
                    line: req.line,
                    values,
                };
                self.send_reply(req.sm, reply);
            } else if let Some(waiters) = self.mshr.get_mut(&req.line) {
                waiters.push(req.sm);
                let r = self.l2.commit(slot, false); // merged miss
                debug_assert_eq!(r, AccessResult::Miss);
            } else if self.mshr.len() < self.mshr_capacity && mc.can_accept() {
                let r = self.l2.commit(slot, false);
                debug_assert_eq!(r, AccessResult::Miss);
                let dram_req = Request {
                    id: self.alloc_id(),
                    addr: req.line,
                    loc: map.decompose(req.line),
                    kind: AccessKind::Read,
                    space: MemSpace::Global,
                    approximable: req.approximable,
                    arrival: 0,
                };
                self.record(mc.now(), &dram_req);
                mc.enqueue(dram_req).expect("can_accept checked");
                let mut waiters = self.waiter_pool.pop().unwrap_or_default();
                waiters.push(req.sm);
                self.mshr.insert(req.line, waiters);
            } else {
                incoming.push_front(req);
                break;
            }
        }
    }

    /// Phase D: merges this slice's replies into the reply NoC, retries
    /// first (oldest work, matching the sequential loop's step 0), then the
    /// replies staged this cycle. Runs on the coordinating thread in
    /// ascending slice order, so the NoC contents are canonical.
    pub fn flush_replies(&mut self, now: u64, reply_noc: &mut [DelayQueue<Reply>]) {
        while let Some((sm, reply)) = self.reply_retry.pop_front() {
            if reply_noc[sm].push(now, reply).is_err() {
                self.reply_retry.push_front((sm, reply));
                break;
            }
        }
        for (sm, reply) in self.staged_replies.drain(..) {
            if reply_noc[sm].push(now, reply).is_err() {
                self.reply_retry.push_back((sm, reply));
            }
        }
    }

    /// Serializes the slice's dynamic state: L2 contents, MSHR table,
    /// buffered controller responses, writeback and reply-retry queues, the
    /// approximate-line store and (when capturing) the request trace.
    /// Configuration (capacities, VP radius, reuse mode) is not written.
    pub fn save_state(&self, s: &mut Saver) {
        debug_assert!(
            self.staged_replies.is_empty(),
            "state dumps are taken between cycles, after the phase-D flush"
        );
        s.u64("next_id", self.next_id);
        s.u64("approx_replies", self.approx_replies);
        s.frame("l2", 0, |s| self.l2.save_state(s));
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
        s.seq("responses", self.responses.len());
        for r in &self.responses {
            s.u64("id", r.id.0);
            s.u64("addr", r.addr);
            s.bool("approximated", r.approximated);
        }
        s.seq("wb_buffer", self.wb_buffer.len());
        for &line in &self.wb_buffer {
            s.u64("line", line);
        }
        s.seq("reply_retry", self.reply_retry.len());
        for (sm, reply) in &self.reply_retry {
            s.usize("sm", *sm);
            s.u64("line", reply.line);
            s.bool("has_values", reply.values.is_some());
            if let Some(vals) = &reply.values {
                s.f32s("values", vals);
            }
        }
        let mut approx_lines: Vec<u64> = self.approx_store.keys().copied().collect();
        approx_lines.sort_unstable();
        s.seq("approx_store", approx_lines.len());
        for line in approx_lines {
            s.u64("line", line);
            s.f32s("vals", &self.approx_store[&line]);
        }
        s.bool("has_trace", self.trace.is_some());
        if let Some(trace) = &self.trace {
            trace.save_state(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_common::GpuConfig;

    /// Ticks the controller once and forwards its responses to the slice.
    fn pump_mc(mc: &mut MemoryController, slice: &mut Slice) {
        let mut out = Vec::new();
        mc.tick(&mut out);
        for resp in out {
            slice.responses.push_back(resp);
        }
    }

    fn setup(
        sched: SchedConfig,
    ) -> (
        Slice,
        MemoryController,
        MemoryImage,
        AddressMap,
        DelayQueue<SliceReq>,
        Vec<DelayQueue<Reply>>,
    ) {
        let cfg = GpuConfig::default();
        let slice = Slice::new(0, &cfg, &sched);
        let mc = MemoryController::new(&cfg, &sched);
        let image = MemoryImage::new();
        let map = AddressMap::new(&cfg);
        let incoming = DelayQueue::new(0, 64, 8);
        let replies: Vec<DelayQueue<Reply>> = (0..2).map(|_| DelayQueue::new(0, 64, 8)).collect();
        (slice, mc, image, map, incoming, replies)
    }

    /// Drives the slice + controller until the given SM receives a reply.
    #[allow(clippy::too_many_arguments)]
    fn run_to_reply(
        slice: &mut Slice,
        mc: &mut MemoryController,
        image: &MemoryImage,
        map: &AddressMap,
        incoming: &mut DelayQueue<SliceReq>,
        replies: &mut [DelayQueue<Reply>],
        sm: usize,
        max: u64,
    ) -> Reply {
        for now in 1..max {
            slice.tick(now, incoming, mc, image, map);
            slice.flush_replies(now, replies);
            pump_mc(mc, slice);
            if let Some(r) = replies[sm].pop_ready(now) {
                return r;
            }
        }
        panic!("no reply within {max} cycles");
    }

    #[test]
    fn read_miss_goes_to_dram_and_fills_l2() {
        let (mut slice, mut mc, image, map, mut incoming, mut replies) =
            setup(SchedConfig::baseline());
        incoming
            .push(
                0,
                SliceReq {
                    sm: 0,
                    line: 0x10_0000,
                    write: false,
                    approximable: false,
                },
            )
            .unwrap();
        let r = run_to_reply(
            &mut slice,
            &mut mc,
            &image,
            &map,
            &mut incoming,
            &mut replies,
            0,
            500,
        );
        assert_eq!(r.line, 0x10_0000);
        assert!(r.values.is_none());
        assert!(slice.l2().probe(0x10_0000));
        assert_eq!(mc.stats().reads, 1);
    }

    #[test]
    fn a_fill_returns_its_waiter_list_for_the_next_miss() {
        let (mut slice, mut mc, image, map, mut incoming, mut replies) =
            setup(SchedConfig::baseline());
        let read = |line| SliceReq {
            sm: 0,
            line,
            write: false,
            approximable: false,
        };
        incoming.push(0, read(0x10_0000)).unwrap();
        run_to_reply(
            &mut slice,
            &mut mc,
            &image,
            &map,
            &mut incoming,
            &mut replies,
            0,
            500,
        );
        assert!(slice.mshr.is_empty());
        assert_eq!(slice.waiter_pool.len(), 1, "the fill retires its list");
        let pooled = slice.waiter_pool[0].as_ptr();
        incoming.push(500, read(0x20_0000)).unwrap();
        slice.tick(501, &mut incoming, &mut mc, &image, &map);
        assert!(
            slice.waiter_pool.is_empty(),
            "the miss takes the pooled list"
        );
        let waiters = &slice.mshr[&0x20_0000];
        assert_eq!(waiters, &[0]);
        assert_eq!(waiters.as_ptr(), pooled, "no new allocation");
    }

    #[test]
    fn second_read_hits_l2_without_dram() {
        let (mut slice, mut mc, image, map, mut incoming, mut replies) =
            setup(SchedConfig::baseline());
        incoming
            .push(
                0,
                SliceReq {
                    sm: 0,
                    line: 0x10_0000,
                    write: false,
                    approximable: false,
                },
            )
            .unwrap();
        run_to_reply(
            &mut slice,
            &mut mc,
            &image,
            &map,
            &mut incoming,
            &mut replies,
            0,
            500,
        );
        incoming
            .push(
                500,
                SliceReq {
                    sm: 1,
                    line: 0x10_0000,
                    write: false,
                    approximable: false,
                },
            )
            .unwrap();
        slice.tick(501, &mut incoming, &mut mc, &image, &map);
        slice.flush_replies(501, &mut replies);
        assert!(replies[1].pop_ready(501).is_some());
        assert_eq!(mc.stats().reads, 1, "L2 hit must not touch DRAM");
    }

    #[test]
    fn write_miss_forwards_to_dram_write() {
        let (mut slice, mut mc, image, map, mut incoming, mut replies) =
            setup(SchedConfig::baseline());
        incoming
            .push(
                0,
                SliceReq {
                    sm: 0,
                    line: 0x10_0000,
                    write: true,
                    approximable: false,
                },
            )
            .unwrap();
        slice.tick(1, &mut incoming, &mut mc, &image, &map);
        slice.flush_replies(1, &mut replies);
        while !mc.is_idle() {
            pump_mc(&mut mc, &mut slice);
        }
        assert_eq!(mc.stats().writes, 1);
        assert!(!slice.l2().probe(0x10_0000), "write-no-allocate");
    }

    #[test]
    fn approximated_response_uses_nearest_l2_neighbor() {
        let sched = SchedConfig {
            ams: lazydram_common::AmsMode::Static(8),
            ams_warmup_requests: 0,
            coverage_cap: 1.0,
            ..SchedConfig::baseline()
        };
        let (mut slice, mut mc, mut image, map, mut incoming, mut replies) = setup(sched);
        // Warm a neighbor line into L2 whose image values are known.
        image.write_slice(0x10_0000, &[42.0; 32]);
        incoming
            .push(
                0,
                SliceReq {
                    sm: 0,
                    line: 0x10_0000,
                    write: false,
                    approximable: false,
                },
            )
            .unwrap();
        run_to_reply(
            &mut slice,
            &mut mc,
            &image,
            &map,
            &mut incoming,
            &mut replies,
            0,
            500,
        );
        // Now request the next row of the same bank (+196608 B keeps the
        // same L2 set but a different, closed DRAM row, so the request is a
        // row miss). The AMS controller drops it (single pending low-RBL
        // read) and the VP must serve the neighbor's 42.0s.
        incoming
            .push(
                600,
                SliceReq {
                    sm: 1,
                    line: 0x13_0000,
                    write: false,
                    approximable: true,
                },
            )
            .unwrap();
        let r = run_to_reply(
            &mut slice,
            &mut mc,
            &image,
            &map,
            &mut incoming,
            &mut replies,
            1,
            2_000,
        );
        assert_eq!(r.line, 0x13_0000);
        assert_eq!(r.values.expect("approximated")[0], 42.0);
        assert_eq!(slice.approx_replies, 1);
        assert!(!slice.l2().probe(0x13_0000), "no reuse by default");
    }

    #[test]
    fn approx_reuse_mode_caches_predictions() {
        let sched = SchedConfig {
            ams: lazydram_common::AmsMode::Static(8),
            ams_warmup_requests: 0,
            coverage_cap: 1.0,
            approx_reuse: true,
            ..SchedConfig::baseline()
        };
        let (mut slice, mut mc, mut image, map, mut incoming, mut replies) = setup(sched);
        image.write_slice(0x10_0000, &[42.0; 32]);
        incoming
            .push(
                0,
                SliceReq {
                    sm: 0,
                    line: 0x10_0000,
                    write: false,
                    approximable: false,
                },
            )
            .unwrap();
        run_to_reply(
            &mut slice,
            &mut mc,
            &image,
            &map,
            &mut incoming,
            &mut replies,
            0,
            500,
        );
        incoming
            .push(
                600,
                SliceReq {
                    sm: 1,
                    line: 0x13_0000,
                    write: false,
                    approximable: true,
                },
            )
            .unwrap();
        run_to_reply(
            &mut slice,
            &mut mc,
            &image,
            &map,
            &mut incoming,
            &mut replies,
            1,
            2_000,
        );
        assert!(slice.l2().probe(0x13_0000), "reuse mode caches the line");
        // A subsequent read is an L2 hit that still returns approximate data.
        incoming
            .push(
                3_000,
                SliceReq {
                    sm: 0,
                    line: 0x13_0000,
                    write: false,
                    approximable: true,
                },
            )
            .unwrap();
        slice.tick(3_001, &mut incoming, &mut mc, &image, &map);
        slice.flush_replies(3_001, &mut replies);
        let r = replies[0].pop_ready(3_001).expect("hit replies same cycle");
        assert_eq!(r.values.expect("approx data on reuse")[5], 42.0);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let cfg = GpuConfig::default();
        let sched = SchedConfig::baseline();
        let mut slice = Slice::new(0, &cfg, &sched);
        let mut mc = MemoryController::new(&cfg, &sched);
        let image = MemoryImage::new();
        let map = AddressMap::new(&cfg);
        let mut incoming = DelayQueue::new(0, 8192, 8192);
        let mut replies: Vec<DelayQueue<Reply>> = vec![DelayQueue::new(0, 8192, 8192)];
        // Fill one L2 set (8 ways) with dirty lines, then displace them.
        // Lines mapping to set 0: stride = sets(128) * 128 B = 16 KiB.
        let mut now = 0;
        for i in 0..9u64 {
            let line = 0x10_0000 + i * 128 * 128;
            // Make the line present by filling via a read.
            incoming
                .push(
                    now,
                    SliceReq {
                        sm: 0,
                        line,
                        write: false,
                        approximable: false,
                    },
                )
                .unwrap();
            for _ in 0..400 {
                now += 1;
                slice.tick(now, &mut incoming, &mut mc, &image, &map);
                slice.flush_replies(now, &mut replies);
                pump_mc(&mut mc, &mut slice);
            }
            // Dirty it.
            incoming
                .push(
                    now,
                    SliceReq {
                        sm: 0,
                        line,
                        write: true,
                        approximable: false,
                    },
                )
                .unwrap();
            now += 1;
            slice.tick(now, &mut incoming, &mut mc, &image, &map);
            slice.flush_replies(now, &mut replies);
        }
        // 9 fills into an 8-way set → at least one dirty eviction → ≥1 write.
        while !mc.is_idle() {
            pump_mc(&mut mc, &mut slice);
        }
        assert!(mc.stats().writes >= 1, "dirty eviction must write back");
    }
}
