//! DRAM request-trace capture and replay.
//!
//! The execution-driven simulator can record every request handed to the
//! memory controllers ([`Simulator::with_trace_capture`], which
//! `SimBuilder::trace` sets). The recording is an in-memory **memory
//! trace** that can be replayed through the scheduler alone, with no GPU
//! substrate. Replay is *open-loop* (arrival times are fixed by the
//! recording), so it drops the feedback DMS and AMS rely on: a held row-miss
//! no longer lets warps issue more requests to the same row, and replayed
//! activations differ from the execution-driven run by tens of percent
//! under the static schemes. That is why no result is ever replayed: a
//! trace drives Fig. 3's example, the tests and the benchmark's replay
//! probe, and it has no file format of its own.
//!
//! The pieces:
//!
//! * [`Trace`] — the recorded `(cycle, channel, request)` stream. A state
//!   dump carries it in its `trc` frame ([`Trace::save_state`]).
//! * [`TraceSim`] — the open-loop replayer: fresh [`MemoryController`]s
//!   (with their full AMS/DMS policy state and refresh behavior), recorded
//!   arrivals restamped onto the replay clock, and a [`ReplayReport`] that
//!   accounts for every recorded request as served or unserved — nothing is
//!   dropped silently.
//!
//! [`Simulator::with_trace_capture`]: crate::Simulator::with_trace_capture

use lazydram_common::snap::Saver;
use lazydram_common::{GpuConfig, Request, SchedConfig, SimStats};
use lazydram_core::MemoryController;

/// Default post-arrival drain budget for [`TraceSim`], in memory cycles:
/// the replay clock keeps running this long past the point of last forward
/// progress before declaring the remaining requests unserved.
///
/// Far larger than any realistic queue drain (the longest DMS delay is
/// thousands of cycles); only a stuck scheduler exhausts it.
pub const DEFAULT_DRAIN_GRACE: u64 = 10_000_000;

/// One recorded DRAM request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEntry {
    /// Memory cycle at which the request entered its controller.
    pub cycle: u64,
    /// Destination channel.
    pub channel: u16,
    /// The request (line address, kind, space, annotation).
    pub request: Request,
}

/// A malformed [`Trace`]: what [`Trace::validate`] rejects before a
/// replay starts.
#[derive(Debug)]
pub enum TraceError {
    /// Entry `index` is stamped earlier than its predecessor — the trace is
    /// not time-ordered (a hand-built stream or a tooling bug).
    OutOfOrder {
        /// Index of the offending entry.
        index: usize,
        /// Cycle stamp of the preceding entry.
        prev_cycle: u64,
        /// Cycle stamp of the offending entry.
        cycle: u64,
    },
    /// Entry `index` targets a channel the replay machine does not have.
    BadChannel {
        /// Index of the offending entry.
        index: usize,
        /// Recorded destination channel.
        channel: u16,
        /// Channels of the replay machine.
        channels: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::OutOfOrder {
                index,
                prev_cycle,
                cycle,
            } => write!(
                f,
                "trace entry {index} at cycle {cycle} precedes its predecessor at cycle \
                 {prev_cycle}; the trace is not time-ordered"
            ),
            Self::BadChannel {
                index,
                channel,
                channels,
            } => write!(
                f,
                "trace entry {index} targets channel {channel} but the replay machine has \
                 only {channels} channels"
            ),
        }
    }
}

impl std::error::Error for TraceError {}

/// A captured DRAM request trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps raw entries without checking time order — for tooling and
    /// tests that need to build (possibly malformed) traces directly.
    /// [`Trace::validate`] / replay reject out-of-order streams.
    pub fn from_entries(entries: Vec<TraceEntry>) -> Self {
        Self { entries }
    }

    /// Appends an entry (must be fed in non-decreasing cycle order; the
    /// capture path guarantees this, and replay re-validates).
    pub fn push(&mut self, entry: TraceEntry) {
        debug_assert!(
            self.entries.last().is_none_or(|e| e.cycle <= entry.cycle),
            "trace entries must be time-ordered"
        );
        self.entries.push(entry);
    }

    /// Number of recorded requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates the recorded entries in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Checks the invariants replay depends on: entries in non-decreasing
    /// cycle order, every destination channel within `channels`.
    ///
    /// # Errors
    ///
    /// [`TraceError::OutOfOrder`] or [`TraceError::BadChannel`] at the first
    /// offending entry.
    pub fn validate(&self, channels: usize) -> Result<(), TraceError> {
        let mut prev_cycle = 0u64;
        for (index, e) in self.entries.iter().enumerate() {
            if e.cycle < prev_cycle {
                return Err(TraceError::OutOfOrder {
                    index,
                    prev_cycle,
                    cycle: e.cycle,
                });
            }
            prev_cycle = e.cycle;
            if usize::from(e.channel) >= channels {
                return Err(TraceError::BadChannel {
                    index,
                    channel: e.channel,
                    channels,
                });
            }
        }
        Ok(())
    }

    /// Serializes the trace (every entry, in order): the `trc` frame of a
    /// state dump.
    pub fn save_state(&self, s: &mut Saver) {
        s.seq("entries", self.entries.len());
        for e in &self.entries {
            s.u64("cycle", e.cycle);
            s.u16("channel", e.channel);
            e.request.save_state(s);
        }
    }
}

/// Outcome of one open-loop replay: the DRAM statistics plus a full
/// accounting of the recorded requests.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Aggregate DRAM statistics across all channels (core-side fields are
    /// zero — replay never runs the GPU).
    pub stats: SimStats,
    /// Recorded requests fully processed by the controllers (reads, writes,
    /// and AMS-approximated drops all count as served).
    pub served: u64,
    /// Recorded requests left behind when the drain budget expired: never
    /// offered, stuck in a backlog, or still pending in a controller. Zero
    /// in every healthy replay.
    pub unserved: u64,
    /// Memory cycles the replay clock ran.
    pub replay_cycles: u64,
}

/// Open-loop trace replayer: MC + DRAM only, no GPU substrate.
///
/// Requests are offered to their controller at the recorded cycle (or as
/// soon afterwards as the pending queue has room — open-loop backpressure),
/// with arrivals restamped onto the replay clock. The clock runs until every
/// request is served or no forward progress has been made for
/// [`DEFAULT_DRAIN_GRACE`] cycles past the last recorded arrival; leftover
/// requests are *counted*, never silently discarded.
pub struct TraceSim {
    cfg: GpuConfig,
    sched: SchedConfig,
    drain_grace: u64,
}

impl TraceSim {
    /// A replayer for `cfg`'s memory system under scheduling policy `sched`.
    pub fn new(cfg: &GpuConfig, sched: &SchedConfig) -> Self {
        Self {
            cfg: cfg.clone(),
            sched: sched.clone(),
            drain_grace: DEFAULT_DRAIN_GRACE,
        }
    }

    /// Overrides the drain budget: how many memory cycles without forward
    /// progress (past the last recorded arrival) before the replay gives up
    /// and reports the leftovers as unserved.
    pub fn drain_grace(mut self, cycles: u64) -> Self {
        self.drain_grace = cycles;
        self
    }

    /// Replays `trace`, returning statistics plus the served/unserved
    /// accounting.
    ///
    /// # Errors
    ///
    /// [`Trace::validate`] errors on a malformed trace (checked up front —
    /// a release build refuses an out-of-order stream instead of silently
    /// mis-simulating it).
    pub fn replay(&self, trace: &Trace) -> Result<ReplayReport, TraceError> {
        trace.validate(self.cfg.num_channels)?;
        let mut mcs: Vec<MemoryController> = (0..self.cfg.num_channels)
            .map(|_| MemoryController::new(&self.cfg, &self.sched))
            .collect();
        let mut cursor = 0usize;
        // Per-channel overflow queues for entries whose controller was full.
        let mut backlog: Vec<std::collections::VecDeque<Request>> =
            vec![std::collections::VecDeque::new(); self.cfg.num_channels];
        let mut now = 0u64;
        let last_arrival = trace.entries.last().map_or(0, |e| e.cycle);
        // The deadline advances with forward progress (completions), so a
        // slow-but-draining queue is never cut off; only a genuinely stuck
        // replay exhausts the budget — and then the leftovers are counted.
        let mut deadline = last_arrival.saturating_add(self.drain_grace);
        let mut completed = 0u64;
        let mut resp_buf: Vec<lazydram_core::Response> = Vec::new();
        loop {
            now += 1;
            while cursor < trace.entries.len() && trace.entries[cursor].cycle <= now {
                let e = trace.entries[cursor];
                let mut req = e.request;
                // Replay runs on a fresh clock: whatever arrival stamp the
                // recording (or a hand-built trace) carries is meaningless
                // here. The controller restamps on enqueue; zeroing first
                // keeps replay independent of the recorded value.
                req.arrival = 0;
                backlog[usize::from(e.channel)].push_back(req);
                cursor += 1;
            }
            for (ch, mc) in mcs.iter_mut().enumerate() {
                while mc.can_accept() {
                    match backlog[ch].pop_front() {
                        Some(req) => mc.enqueue(req).expect("can_accept checked"),
                        None => break,
                    }
                }
                resp_buf.clear();
                mc.tick(&mut resp_buf);
            }
            let completed_now: u64 = mcs
                .iter()
                .map(|m| {
                    let s = m.stats();
                    s.reads + s.writes + s.dropped
                })
                .sum();
            if completed_now > completed {
                completed = completed_now;
                deadline = deadline.max(now.saturating_add(self.drain_grace));
            }
            let drained = cursor >= trace.entries.len()
                && backlog.iter().all(|b| b.is_empty())
                && mcs.iter().all(|m| m.is_idle());
            if drained || now > deadline {
                break;
            }
        }
        let mut stats = SimStats::new();
        for mc in &mut mcs {
            let _ = mc.drain();
            stats.dram.merge(mc.stats());
        }
        let served = stats.dram.reads + stats.dram.writes + stats.dram.dropped;
        Ok(ReplayReport {
            stats,
            served,
            unserved: (trace.len() as u64).saturating_sub(served),
            replay_cycles: now,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazydram_common::{AccessKind, AddressMap, DmsMode, MemSpace, RequestId};

    fn entry(map: &AddressMap, id: u64, cycle: u64, addr: u64) -> TraceEntry {
        let addr = map.line_of(addr);
        TraceEntry {
            cycle,
            channel: map.channel_of(addr) as u16,
            request: Request {
                id: RequestId(id),
                addr,
                loc: map.decompose(addr),
                kind: AccessKind::Read,
                space: MemSpace::Global,
                approximable: false,
                arrival: 0,
            },
        }
    }

    /// Replays `trace` and requires every request served.
    fn replay(trace: &Trace, cfg: &GpuConfig, sched: &SchedConfig) -> SimStats {
        let report = TraceSim::new(cfg, sched)
            .replay(trace)
            .expect("valid trace");
        assert_eq!(report.unserved, 0, "replay left requests unserved");
        report.stats
    }

    #[test]
    fn replay_serves_every_request() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut trace = Trace::new();
        for i in 0..200u64 {
            trace.push(entry(&map, i, i * 3, i * 512 + (i % 7) * 65_536));
        }
        assert_eq!(trace.len(), 200);
        let stats = replay(&trace, &cfg, &SchedConfig::baseline());
        assert_eq!(stats.dram.reads, 200);
        assert_eq!(stats.dram.requests_received, 200);
        assert!(stats.dram.activations > 0);
    }

    #[test]
    fn replay_is_deterministic() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut trace = Trace::new();
        for i in 0..100u64 {
            trace.push(entry(&map, i, i * 2, i * 128 * 13));
        }
        let a = replay(&trace, &cfg, &SchedConfig::baseline());
        let b = replay(&trace, &cfg, &SchedConfig::baseline());
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn delayed_replay_reduces_activations_on_split_bursts() {
        // Two bursts to the same rows, 200 cycles apart (the Figure 3
        // pattern): DMS coalesces them in trace replay too.
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut trace = Trace::new();
        let row_stride = 2048 * 6; // next region of channel 0
        for burst in 0..2u64 {
            for row in 0..4u64 {
                trace.push(entry(
                    &map,
                    burst * 4 + row,
                    burst * 200,
                    row * row_stride * 16 + burst * 128,
                ));
            }
        }
        let base = replay(&trace, &cfg, &SchedConfig::baseline());
        let dms = replay(
            &trace,
            &cfg,
            &SchedConfig {
                dms: DmsMode::Static(256),
                ..SchedConfig::baseline()
            },
        );
        assert!(
            dms.dram.activations < base.dram.activations,
            "DMS {} vs base {}",
            dms.dram.activations,
            base.dram.activations
        );
    }

    #[test]
    fn empty_trace_replays_to_zero() {
        let cfg = GpuConfig::default();
        let stats = replay(&Trace::new(), &cfg, &SchedConfig::baseline());
        assert_eq!(stats.dram.requests_received, 0);
        assert!(Trace::new().is_empty());
    }

    #[test]
    fn validate_rejects_out_of_order_entries() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let trace = Trace::from_entries(vec![entry(&map, 0, 100, 0), entry(&map, 1, 50, 512)]);
        match trace.validate(cfg.num_channels) {
            Err(TraceError::OutOfOrder {
                index: 1,
                prev_cycle: 100,
                cycle: 50,
            }) => {}
            other => panic!("expected OutOfOrder, got {other:?}"),
        }
        // ... and the replayer refuses it before simulating.
        assert!(matches!(
            TraceSim::new(&cfg, &SchedConfig::baseline()).replay(&trace),
            Err(TraceError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn validate_rejects_out_of_range_channels() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut e = entry(&map, 0, 0, 0);
        e.channel = cfg.num_channels as u16; // one past the end
        let trace = Trace::from_entries(vec![e]);
        assert!(matches!(
            trace.validate(cfg.num_channels),
            Err(TraceError::BadChannel { index: 0, .. })
        ));
    }

    #[test]
    fn exhausted_drain_budget_reports_unserved_instead_of_dropping() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut trace = Trace::new();
        for i in 0..64u64 {
            trace.push(entry(&map, i, 0, i * 512));
        }
        // Zero grace: the clock stops right after the burst arrives, long
        // before the queues drain — every leftover must be accounted for.
        let report = TraceSim::new(&cfg, &SchedConfig::baseline())
            .drain_grace(0)
            .replay(&trace)
            .expect("valid trace");
        assert!(report.unserved > 0, "zero grace must leave requests behind");
        assert_eq!(report.served + report.unserved, trace.len() as u64);
    }

    #[test]
    fn replay_ignores_recorded_arrival_stamps() {
        // A trace whose arrival stamps are garbage (e.g. a hand-built
        // stream) must replay byte-identically to the clean version: replay
        // restamps arrivals on its own clock. DMS makes arrival semantics
        // observable (the delay gate compares against oldest arrival).
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut clean = Vec::new();
        let mut poisoned = Vec::new();
        for i in 0..150u64 {
            let e = entry(&map, i, i * 5, i * 384 + (i % 5) * 131_072);
            clean.push(e);
            let mut bad = e;
            bad.request.arrival = 987_654_321 + i;
            poisoned.push(bad);
        }
        let sched = SchedConfig {
            dms: DmsMode::Static(256),
            ..SchedConfig::baseline()
        };
        let a = replay(&Trace::from_entries(clean), &cfg, &sched);
        let b = replay(&Trace::from_entries(poisoned), &cfg, &sched);
        assert_eq!(
            a.dram, b.dram,
            "recorded arrivals must not leak into replay"
        );
    }
}
