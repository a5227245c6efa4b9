//! DRAM request-trace capture and replay.
//!
//! The execution-driven simulator can record every request handed to the
//! memory controllers, producing a **memory trace** that can be replayed
//! through the scheduler alone — orders of magnitude faster than re-running
//! the GPU, and exactly the methodology of trace-driven DRAM studies. Replay
//! is *open-loop* (arrival times are fixed by the recording), so it drops
//! the feedback DMS and AMS rely on: a held row-miss no longer lets warps
//! issue more requests to the same row. `dbg_trace envelope` measures the
//! resulting activation error per scheme (tens of percent on SCP), which is
//! why sweeps never replay: a trace is a single-run tool (Fig. 3's example,
//! `lazydram capture` / `replay`).
//!
//! The pieces:
//!
//! * [`Trace`] — the recorded `(cycle, channel, request)` stream, with
//!   `snap`-based file persistence ([`Trace::save_file`] /
//!   [`Trace::load_file`]). Files carry a **stream-geometry digest**
//!   ([`Trace::stream_digest`]) covering exactly the [`GpuConfig`] fields
//!   that shape the request stream (channel count, banks, row/line/chunk
//!   geometry, memory clock); loading against an incompatible machine is a
//!   [`TraceError::ConfigMismatch`], while queue sizes, DRAM timings, and
//!   scheduler policy — the things sweeps vary — are free to differ.
//! * [`TraceSim`] — the open-loop replayer: fresh [`MemoryController`]s
//!   (with their full AMS/DMS policy state and refresh behavior), recorded
//!   arrivals restamped onto the replay clock, and a [`ReplayReport`] that
//!   accounts for every recorded request as served or unserved — nothing is
//!   dropped silently.
//! * [`Trace::replay`] — the strict harness wrapper over [`TraceSim`]:
//!   panics on a malformed trace or on any unserved request, returning bare
//!   [`SimStats`] for contexts (tests, examples) where an incomplete replay
//!   is a bug, not a result.

use lazydram_common::snap::{digest, Loader, Saver, SnapError, SnapResult};
use lazydram_common::{GpuConfig, Request, SchedConfig, SimStats};
use lazydram_core::MemoryController;
use std::path::Path;

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

/// Everything that can go wrong capturing, persisting, or replaying a
/// [`Trace`].
#[derive(Debug)]
pub enum TraceError {
    /// Entry `index` is stamped earlier than its predecessor — the trace is
    /// not time-ordered (a corrupted or hand-edited file, or a tooling bug).
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
    /// The trace was captured on a machine whose request-stream geometry
    /// (see [`Trace::stream_digest`]) differs from the replay machine's.
    ConfigMismatch {
        /// Geometry digest recorded in the trace file.
        trace: u64,
        /// Geometry digest of the replay machine.
        machine: u64,
    },
    /// Replay ran out of drain budget with requests still unserved.
    Unserved {
        /// Requests fully processed by the controllers.
        served: u64,
        /// Requests left in the backlog, pending queues, or never offered.
        unserved: u64,
    },
    /// The trace file bytes are malformed.
    Snap(SnapError),
    /// Reading or writing the trace file failed.
    Io(String),
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
            Self::ConfigMismatch { trace, machine } => write!(
                f,
                "trace geometry digest {trace:016x} does not match the replay machine's \
                 {machine:016x}; capture and replay configs must agree on channel/bank/row \
                 geometry"
            ),
            Self::Unserved { served, unserved } => write!(
                f,
                "replay served {served} requests but left {unserved} unserved after the \
                 drain budget expired"
            ),
            Self::Snap(e) => write!(f, "malformed trace snapshot: {e}"),
            Self::Io(e) => write!(f, "trace file IO failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<SnapError> for TraceError {
    fn from(e: SnapError) -> Self {
        Self::Snap(e)
    }
}

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
    /// capture path guarantees this, and load/replay re-validate).
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

    /// Digest over exactly the [`GpuConfig`] fields that shape the captured
    /// request stream: channel count and interleaving, bank/row/line
    /// geometry, and the memory clock the cycle stamps are denominated in.
    ///
    /// Deliberately *excludes* queue sizes, DRAM timings, caches, SM counts,
    /// and scheduler policy — a trace captured once replays under any
    /// queue size, timing package or scheduling policy of that geometry.
    pub fn stream_digest(cfg: &GpuConfig) -> u64 {
        digest(
            format!(
                "trace-geometry|{}|{}|{}|{}|{}|{}|{}",
                cfg.num_channels,
                cfg.banks_per_channel,
                cfg.bank_groups,
                cfg.row_bytes,
                cfg.line_bytes,
                cfg.chunk_bytes,
                cfg.mem_clock_mhz,
            )
            .as_bytes(),
        )
    }

    /// Serializes the trace (every entry, in order).
    pub fn save_state(&self, s: &mut Saver) {
        s.seq("entries", self.entries.len());
        for e in &self.entries {
            s.u64("cycle", e.cycle);
            s.u16("channel", e.channel);
            e.request.save_state(s);
        }
    }

    /// Reads entries written by [`Trace::save_state`] (the `trc` frame of a
    /// trace file), replacing current entries.
    ///
    /// # Errors
    ///
    /// Returns an error when the snapshot bytes are malformed.
    pub fn load_state(&mut self, l: &mut Loader<'_>) -> SnapResult<()> {
        let n = l.seq("entries", 10)?;
        self.entries.clear();
        self.entries.reserve(n);
        for _ in 0..n {
            self.entries.push(TraceEntry {
                cycle: l.u64("cycle")?,
                channel: l.u16("channel")?,
                request: Request::load_state(l)?,
            });
        }
        Ok(())
    }

    /// Serializes the trace as a standalone versioned snapshot: the snap
    /// header, a `tmta` frame carrying the stream-geometry digest of the
    /// capture machine, then the entries in a `trc` frame (the wire format
    /// is documented in DESIGN.md §11).
    pub fn to_bytes(&self, cfg: &GpuConfig) -> Vec<u8> {
        let mut s = Saver::new();
        s.header();
        s.frame("tmta", 0, |s| {
            s.u64("geometry", Self::stream_digest(cfg));
            s.u64("entries", self.entries.len() as u64);
        });
        s.frame("trc", 0, |s| self.save_state(s));
        s.finish()
    }

    /// Deserializes a trace written by [`Trace::to_bytes`], rejecting
    /// snapshots captured under an incompatible stream geometry and
    /// re-validating the entry invariants (time order, channel range).
    ///
    /// # Errors
    ///
    /// [`TraceError::ConfigMismatch`] on a geometry digest mismatch,
    /// [`TraceError::Snap`] on malformed bytes, and the
    /// [`Trace::validate`] errors on a decoded-but-inconsistent stream.
    pub fn from_bytes(bytes: &[u8], cfg: &GpuConfig) -> Result<Self, TraceError> {
        let mut l = Loader::new(bytes);
        l.expect_header()?;
        let (geometry, declared) =
            l.frame("tmta", 0, |l| Ok((l.u64("geometry")?, l.u64("entries")?)))?;
        let machine = Self::stream_digest(cfg);
        if geometry != machine {
            return Err(TraceError::ConfigMismatch {
                trace: geometry,
                machine,
            });
        }
        let mut trace = Self::new();
        l.frame("trc", 0, |l| trace.load_state(l))?;
        if trace.entries.len() as u64 != declared {
            return Err(TraceError::Snap(SnapError::Malformed {
                label: "entries".into(),
                why: format!(
                    "trace declares {declared} entries but carries {}",
                    trace.entries.len()
                ),
            }));
        }
        trace.validate(cfg.num_channels)?;
        Ok(trace)
    }

    /// Writes the trace to `path` atomically (write-then-rename: a crash
    /// mid-write never leaves a torn file).
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be written.
    pub fn save_file(&self, path: &Path, cfg: &GpuConfig) -> Result<(), TraceError> {
        let tmp = path.with_extension("trace.tmp");
        std::fs::write(&tmp, self.to_bytes(cfg))
            .and_then(|()| std::fs::rename(&tmp, path))
            .map_err(|e| TraceError::Io(format!("cannot write {}: {e}", path.display())))
    }

    /// Reads and decodes a trace file written by [`Trace::save_file`].
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be read, plus every
    /// [`Trace::from_bytes`] error.
    pub fn load_file(path: &Path, cfg: &GpuConfig) -> Result<Self, TraceError> {
        let bytes = std::fs::read(path)
            .map_err(|e| TraceError::Io(format!("cannot read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes, cfg)
    }

    /// Replays the trace through fresh memory controllers under `sched`,
    /// returning aggregate DRAM statistics — the strict harness entry point.
    ///
    /// # Panics
    ///
    /// Panics on a malformed trace or when any recorded request goes
    /// unserved; contexts that want to handle those outcomes use
    /// [`TraceSim`] directly.
    pub fn replay(&self, cfg: &GpuConfig, sched: &SchedConfig) -> SimStats {
        TraceSim::new(cfg, sched)
            .replay(self)
            .and_then(ReplayReport::complete)
            .map(|r| r.stats)
            .unwrap_or_else(|e| panic!("trace replay failed: {e}"))
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

impl ReplayReport {
    /// Requires a complete replay.
    ///
    /// # Errors
    ///
    /// [`TraceError::Unserved`] when any recorded request was left behind.
    pub fn complete(self) -> Result<Self, TraceError> {
        if self.unserved > 0 {
            Err(TraceError::Unserved {
                served: self.served,
                unserved: self.unserved,
            })
        } else {
            Ok(self)
        }
    }
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
                // recording (or a hand-edited file) carries is meaningless
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

    #[test]
    fn replay_serves_every_request() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut trace = Trace::new();
        for i in 0..200u64 {
            trace.push(entry(&map, i, i * 3, i * 512 + (i % 7) * 65_536));
        }
        assert_eq!(trace.len(), 200);
        let stats = trace.replay(&cfg, &SchedConfig::baseline());
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
        let a = trace.replay(&cfg, &SchedConfig::baseline());
        let b = trace.replay(&cfg, &SchedConfig::baseline());
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
        let base = trace.replay(&cfg, &SchedConfig::baseline());
        let dms = trace.replay(
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
        let stats = Trace::new().replay(&cfg, &SchedConfig::baseline());
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
        // The Result-returning replayer surfaces the same error...
        assert!(matches!(
            TraceSim::new(&cfg, &SchedConfig::baseline()).replay(&trace),
            Err(TraceError::OutOfOrder { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "not time-ordered")]
    fn strict_replay_panics_on_out_of_order_entries() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let trace = Trace::from_entries(vec![entry(&map, 0, 100, 0), entry(&map, 1, 50, 512)]);
        let _ = trace.replay(&cfg, &SchedConfig::baseline());
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
        assert!(matches!(
            report.complete(),
            Err(TraceError::Unserved { .. })
        ));
    }

    #[test]
    fn replay_ignores_recorded_arrival_stamps() {
        // A trace whose arrival stamps are garbage (e.g. a hand-edited
        // file) must replay byte-identically to the clean version: replay
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
        let a = Trace::from_entries(clean).replay(&cfg, &sched);
        let b = Trace::from_entries(poisoned).replay(&cfg, &sched);
        assert_eq!(
            a.dram, b.dram,
            "recorded arrivals must not leak into replay"
        );
    }

    #[test]
    fn bytes_round_trip_preserves_entries_and_stats() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let mut trace = Trace::new();
        for i in 0..80u64 {
            trace.push(entry(&map, i, i * 4, i * 640));
        }
        let bytes = trace.to_bytes(&cfg);
        let loaded = Trace::from_bytes(&bytes, &cfg).expect("round trip");
        assert_eq!(loaded, trace);
        let a = trace.replay(&cfg, &SchedConfig::baseline());
        let b = loaded.replay(&cfg, &SchedConfig::baseline());
        assert_eq!(a.dram, b.dram);
    }

    #[test]
    fn from_bytes_rejects_incompatible_geometry() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let trace = Trace::from_entries(vec![entry(&map, 0, 0, 0)]);
        let bytes = trace.to_bytes(&cfg);
        let other = GpuConfig {
            num_channels: 4,
            ..GpuConfig::default()
        };
        assert!(matches!(
            Trace::from_bytes(&bytes, &other),
            Err(TraceError::ConfigMismatch { .. })
        ));
        // ... but sweep-varied knobs (queue size, timings) stay compatible.
        let swept = GpuConfig {
            pending_queue_size: 16,
            ..GpuConfig::default()
        };
        assert!(Trace::from_bytes(&bytes, &swept).is_ok());
    }

    #[test]
    fn from_bytes_rejects_truncated_snapshots() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let trace = Trace::from_entries(vec![entry(&map, 0, 0, 0)]);
        let bytes = trace.to_bytes(&cfg);
        assert!(matches!(
            Trace::from_bytes(&bytes[..bytes.len() - 3], &cfg),
            Err(TraceError::Snap(_))
        ));
    }

    #[test]
    fn from_bytes_refuses_a_version_1_trace() {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let trace = Trace::from_entries(vec![entry(&map, 0, 0, 0)]);
        let mut bytes = trace.to_bytes(&cfg);
        assert_eq!(lazydram_common::snap::SNAP_VERSION, 2);
        // The version follows the 4 magic bytes, little-endian.
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert!(matches!(
            Trace::from_bytes(&bytes, &cfg),
            Err(TraceError::Snap(SnapError::Version { found: 1 }))
        ));
    }

    #[test]
    fn stream_digest_tracks_geometry_not_sweep_knobs() {
        let base = GpuConfig::default();
        let queue = GpuConfig {
            pending_queue_size: 16,
            ..GpuConfig::default()
        };
        let sms = GpuConfig {
            num_sms: 4,
            ..GpuConfig::default()
        };
        let chans = GpuConfig {
            num_channels: 4,
            ..GpuConfig::default()
        };
        assert_eq!(Trace::stream_digest(&base), Trace::stream_digest(&queue));
        assert_eq!(Trace::stream_digest(&base), Trace::stream_digest(&sms));
        assert_ne!(Trace::stream_digest(&base), Trace::stream_digest(&chans));
    }
}
