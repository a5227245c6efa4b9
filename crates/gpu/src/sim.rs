//! The top-level execution-driven simulator.
//!
//! [`Simulator::run`] wires 30 SMs, a request/reply crossbar, 6 L2 slices and
//! 6 lazy memory controllers together, runs a [`Kernel`] to completion (or a
//! cycle limit), and returns per-run statistics plus the kernel output for
//! application-error measurement.
//!
//! The master loop runs in *core* cycles (1400 MHz); an exact integer
//! accumulator ticks the memory side at the 924 / 1400 clock ratio, so every
//! DRAM timing parameter and every DMS/AMS window is honored in memory cycles
//! exactly as in the paper.
//!
//! # Phased tick
//!
//! Each executed cycle runs as four phases on the calling thread: every SM
//! ticks against a read-only memory image, staging its outbound requests
//! and functional writes (phase A); the staged effects commit in ascending
//! SM order (phase B); the six memory partitions — L2 slice, controller,
//! DRAM channel — tick, staging replies (phase C); and the staged replies
//! merge into the reply NoC in ascending slice order (phase D). The phases
//! and the canonical merge orders *are* the semantics: an SM never sees
//! another SM's writes or requests from the same cycle. See `DESIGN.md`
//! §12 for why the staging stays even though nothing runs concurrently.
//!
//! # Event-driven fast-forward
//!
//! DMS deliberately *creates* long stall epochs (it delays row activations by
//! up to 2048 memory cycles), so in the paper's most interesting
//! configurations the majority of cycles tick every component for no effect.
//! Instead of executing those, the loop asks each component for its next
//! event:
//!
//! * SMs: [`Sm::has_work`] — conservative "could issue this cycle";
//! * [`DelayQueue`]s: head ready-time (the head is always the earliest item);
//! * slices: [`Slice::has_work`] — buffered responses / writebacks / retries;
//! * controllers: [`MemoryController::next_event_cycle`] — earliest in-flight
//!   completion, DMS delay expiry, refresh, or Dyn-DMS/Dyn-AMS window
//!   boundary, in memory cycles.
//!
//! When nothing has work *this* cycle, `core_cycle` jumps to the minimum next
//! event and the clock accumulator advances analytically, so the memory clock
//! lands on exactly the same cycles as the naive loop. Executed cycles run
//! the identical phase code, and skips only cover cycles every component has
//! proven to be no-ops — results are **bit-identical** with skipping on or
//! off (enforced by the `fast_forward_equivalence` suite test and a
//! proptest). [`Simulator::with_cycle_skipping`] forces the naive loop for
//! debugging.
//!
//! # Dormancy
//!
//! Inside an executed cycle, phases A and B visit only the SMs that are
//! due ([`Sm::is_due`]): one with a ready reply, an issueable warp, a drain
//! retry that could act, or a parked store that would fit. An SM that is
//! not due sleeps until a reply reaches its NoC head or a slice frees
//! request-NoC space on a channel it waits on. The controllers sleep the
//! same way between scheduling passes ([`MemoryController`]'s own
//! dormancy). A skipped visit is an exact no-op, so results, checkpoints
//! and the loop counters are identical with dormancy off
//! ([`Simulator::with_dormancy`]). See `DESIGN.md` §12.
//!
//! # Checkpoint / resume
//!
//! All per-launch state lives in one [`LaunchMachine`] struct, so a run can
//! be paused at any cumulative core cycle ([`Simulator::run_until`]) and
//! serialized into a [`Checkpoint`] — a self-contained byte blob in the
//! `snap` wire format. [`Simulator::resume`] restores it and continues;
//! the resumed run's [`RunResult`] is **byte-identical** to the
//! uninterrupted run's (enforced by `tests/checkpoint_equivalence.rs` and a
//! proptest). Pausing clamps an in-flight fast-forward at the pause cycle
//! and the resumed loop re-derives the remainder of the skip, so even the
//! executed/skipped cycle accounting survives the round trip unchanged.
//!
//! A checkpoint stores only *dynamic* state: configuration-derived geometry
//! is rebuilt from the resuming [`Simulator`] (a config fingerprint is
//! validated), and warp programs are reconstructed from the resuming
//! [`Kernel`] before their dynamic state is loaded into them.

use crate::kernel::Kernel;
use crate::memimg::MemoryImage;
use crate::noc::DelayQueue;
use crate::slice::Slice;
use crate::trace::{Trace, TraceEntry};
use crate::sm::{Reply, Sm, SmCtx, SliceReq, SmStage};
use lazydram_common::prof::{self, Counter, Phase};
use lazydram_common::snap::{digest, list_frames, FrameInfo, Loader, Saver, SnapError, SnapResult};
use lazydram_common::{AddressMap, GpuConfig, SchedConfig, SimStats};
use lazydram_core::{MemoryController, Response};

/// Safety limits for one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimLimits {
    /// Hard cap on core cycles (guards against livelock in experiments).
    pub max_core_cycles: u64,
}

impl Default for SimLimits {
    fn default() -> Self {
        Self {
            max_core_cycles: 50_000_000,
        }
    }
}

/// The result of one kernel run.
#[derive(Debug)]
pub struct RunResult {
    /// Aggregated statistics.
    pub stats: SimStats,
    /// Kernel output (for application-error comparison across runs).
    pub output: Vec<f32>,
    /// `true` when the run hit [`SimLimits::max_core_cycles`] before the
    /// kernel finished; statistics are still meaningful but partial.
    pub hit_cycle_limit: bool,
    /// The DRAM request trace, when capture was enabled
    /// ([`Simulator::with_trace_capture`]). Entries are in per-controller
    /// arrival order, merged across channels by cycle.
    pub trace: Option<Trace>,
}

/// A paused simulation, serialized into a self-contained byte blob in the
/// `snap` wire format (see `DESIGN.md` §10).
///
/// Produced by [`Simulator::run_until`] and consumed by
/// [`Simulator::resume`]; the bytes round-trip through
/// [`Checkpoint::into_bytes`] / [`Checkpoint::from_bytes`] so sweeps can
/// park them on disk and survive a crash.
///
/// Layout after the 6-byte `snap` header: a flat sequence of frames —
/// `meta[0]` (launch index, config fingerprint, pause cycle), `stat[0]`
/// (statistics of completed launches), `trc[0]`, `img[0]`, `mach[0]`
/// (loop scalars), then one `sm[i]` / `slc[i]` / `mc[i]` / `rnoc[i]` /
/// `pnoc[i]` frame per component. The flat framing is what lets
/// `dbg_diverge` digest and diff checkpoint regions component by component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    data: Vec<u8>,
    launch_idx: usize,
    cycle: u64,
}

impl Checkpoint {
    /// The serialized bytes (header included), ready to write to disk.
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Consumes the checkpoint and returns the serialized bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }

    /// Reconstructs a checkpoint from bytes produced by
    /// [`Checkpoint::into_bytes`], validating the header, the `meta` frame
    /// and the overall frame structure (component payloads are validated
    /// later, on [`Simulator::resume`]).
    ///
    /// # Errors
    ///
    /// Returns an error when the bytes are not a structurally valid
    /// checkpoint.
    pub fn from_bytes(data: Vec<u8>) -> SnapResult<Self> {
        let mut l = Loader::new(&data);
        l.expect_header()?;
        let body_start = l.pos();
        let (launch_idx, cycle) = l.frame("meta", 0, |l| {
            let li = l.usize("launch_idx")?;
            let _cfg_digest = l.u64("cfg_digest")?;
            let c = l.u64("cycle")?;
            Ok((li, c))
        })?;
        list_frames(&data[body_start..])?;
        Ok(Self {
            data,
            launch_idx,
            cycle,
        })
    }

    /// Index of the in-progress launch within the kernel sequence (always
    /// `0` for single-kernel runs).
    pub fn launch_idx(&self) -> usize {
        self.launch_idx
    }

    /// Cumulative core cycle at which the simulation paused.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Canonical digest of the full checkpoint (SplitMix64 fold over the
    /// serialized bytes). Two runs in identical states produce identical
    /// digests — the primitive `dbg_diverge` bisects on.
    pub fn digest(&self) -> u64 {
        digest(&self.data)
    }

    /// The byte region after the `snap` header: a flat frame sequence.
    pub fn body(&self) -> &[u8] {
        let mut l = Loader::new(&self.data);
        l.expect_header().expect("constructed checkpoints have a valid header");
        &self.data[l.pos()..]
    }

    /// Locates the top-level frames (`meta`, `stat`, `img`, `sm[i]`, …)
    /// inside [`Checkpoint::body`], for component-granular comparison.
    ///
    /// # Errors
    ///
    /// Returns an error when the frame structure is malformed (cannot
    /// happen for checkpoints built by [`Simulator::run_until`]).
    pub fn frames(&self) -> SnapResult<Vec<FrameInfo>> {
        list_frames(self.body())
    }
}

/// Outcome of a bounded run ([`Simulator::run_until`] and friends).
// A transient return value consumed immediately at each call site — never
// stored in collections — so the Done/Paused size skew is harmless and
// boxing would only push an allocation onto the completion path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum RunOutcome {
    /// The kernel (sequence) ran to completion — or hit its cycle limit —
    /// before reaching the pause target.
    Done(RunResult),
    /// The pause target was reached first; the checkpoint resumes the run.
    Paused(Checkpoint),
}

impl RunOutcome {
    /// Unwraps the completed result.
    ///
    /// # Panics
    ///
    /// Panics if the run paused instead.
    pub fn expect_done(self, msg: &str) -> RunResult {
        match self {
            RunOutcome::Done(r) => r,
            RunOutcome::Paused(ck) => panic!("{msg}: run paused at cycle {}", ck.cycle()),
        }
    }

    /// Unwraps the checkpoint of a paused run.
    ///
    /// # Panics
    ///
    /// Panics if the run completed instead.
    pub fn expect_paused(self, msg: &str) -> Checkpoint {
        match self {
            RunOutcome::Paused(ck) => ck,
            RunOutcome::Done(_) => panic!("{msg}: run completed before the pause target"),
        }
    }
}

/// All mutable state of one kernel launch — the SMs, slices, controllers,
/// crossbar queues, and the cycle-loop scalars — gathered into one struct so
/// it can be serialized as a unit and restored bit-identically.
struct LaunchMachine {
    map: AddressMap,
    sms: Vec<Sm>,
    slices: Vec<Slice>,
    mcs: Vec<MemoryController>,
    req_noc: Vec<DelayQueue<SliceReq>>,
    reply_noc: Vec<DelayQueue<Reply>>,
    total_warps: usize,
    next_warp: usize,
    /// Clock-divider residue: each core cycle adds `mem_hz` units and one
    /// memory tick fires per `core_hz` units accumulated. Unlike a floating
    /// accumulator this is drift-free and can be advanced analytically
    /// across skipped spans.
    acc: u64,
    mem_time: u64,
    core_cycle: u64,
    ticks_executed: u64,
    cycles_skipped: u64,
    /// The subset of `cycles_skipped` classified as compute-skip: spans
    /// where at least one SM replayed `Computing` warps analytically.
    compute_cycles_skipped: u64,
    /// Per-SM staging areas for phase A of the tick. Transient: drained in
    /// phase B every cycle, so they are always empty between cycles and
    /// are never serialized.
    stages: Vec<SmStage>,
    /// Controller response scratch for phase C. Transient: drained into
    /// the owning slice within the phase.
    resp_buf: Vec<Response>,
    /// Which SMs sleep. Derived state, never serialized.
    dormancy: SmDormancy,
}

/// The SM side of dormancy (see the module docs). Derived state: a fresh
/// or restored machine starts with every SM awake, and the first cycle
/// re-derives who sleeps.
struct SmDormancy {
    /// Off: every SM is visited every cycle.
    enabled: bool,
    /// Per SM: asleep until a reply arrives or a channel it waits on frees
    /// enough space.
    asleep: Vec<bool>,
    /// Per SM: the request-NoC channels it waits on while asleep, as a
    /// bitmask ([`Sm::wake_needs`]).
    wait: Vec<u32>,
    /// Per SM, one row of `channels` entries: the free-slot count on each
    /// channel that could wake it ([`Sm::wake_needs`]).
    need: Vec<usize>,
    channels: usize,
    /// Per SM: visited in this cycle's phase A, so phase B commits it.
    due: Vec<bool>,
    /// The request-NoC free-slot snapshot of the previous executed cycle;
    /// a channel whose count rose since wakes the SMs waiting on it.
    last_free: Vec<usize>,
}

impl SmDormancy {
    fn new(enabled: bool, sms: usize, channels: usize) -> Self {
        Self {
            enabled,
            asleep: vec![false; sms],
            wait: vec![0; sms],
            need: vec![usize::MAX; sms * channels],
            channels,
            due: vec![true; sms],
            last_free: vec![usize::MAX; channels],
        }
    }

    /// Starts a cycle at the free-slot snapshot `free0`: returns the
    /// channels whose free count grew since the last executed cycle, and
    /// those with a free slot.
    fn begin_cycle(&mut self, free0: &[usize]) -> (u32, u32) {
        let (mut grown, mut avail) = (0u32, 0u32);
        for (ch, (&f, last)) in free0.iter().zip(self.last_free.iter_mut()).enumerate() {
            if f > *last {
                grown |= 1 << ch;
            }
            if f > 0 {
                avail |= 1 << ch;
            }
            *last = f;
        }
        (grown, avail)
    }

    /// Decides whether phase A visits SM `i` this cycle and records it in
    /// `due`. `reply` says its reply-NoC head is ready; `grown` and `avail`
    /// come from [`SmDormancy::begin_cycle`].
    fn visit(&mut self, i: usize, sm: &Sm, reply: bool, free0: &[usize], grown: u32, avail: u32) -> bool {
        let row = i * self.channels..(i + 1) * self.channels;
        let mut woken = self.wait[i] & grown;
        while woken != 0 && self.asleep[i] {
            let ch = woken.trailing_zeros() as usize;
            self.asleep[i] = free0[ch] < self.need[row.start + ch];
            woken &= woken - 1;
        }
        let due = reply || (!self.asleep[i] && sm.is_due(free0, avail));
        if !due && !self.asleep[i] {
            self.asleep[i] = true;
            self.wait[i] = sm.wake_needs(free0, avail, &mut self.need[row]);
        } else if due {
            self.asleep[i] = false;
        }
        self.due[i] = due;
        due
    }
}

impl LaunchMachine {
    /// Builds an empty machine from configuration (no warps dispatched yet).
    fn new(
        cfg: &GpuConfig,
        sched: &SchedConfig,
        capture_trace: bool,
        dormancy: bool,
        total_warps: usize,
    ) -> Self {
        Self {
            map: AddressMap::new(cfg),
            sms: (0..cfg.num_sms).map(|i| Sm::new(i, cfg)).collect(),
            slices: (0..cfg.num_channels)
                .map(|i| {
                    let mut s = Slice::new(i, cfg, sched);
                    if capture_trace {
                        s.trace = Some(Trace::new());
                    }
                    s
                })
                .collect(),
            mcs: (0..cfg.num_channels)
                .map(|_| {
                    let mut mc = MemoryController::new(cfg, sched);
                    mc.set_dormancy(dormancy);
                    mc
                })
                .collect(),
            req_noc: (0..cfg.num_channels)
                .map(|_| {
                    DelayQueue::new(
                        u64::from(cfg.noc_latency) + u64::from(cfg.l2_latency),
                        64,
                        cfg.noc_width,
                    )
                })
                .collect(),
            reply_noc: (0..cfg.num_sms)
                .map(|_| DelayQueue::new(u64::from(cfg.noc_latency), 256, 8))
                .collect(),
            total_warps,
            next_warp: 0,
            acc: 0,
            mem_time: 0,
            core_cycle: 0,
            ticks_executed: 0,
            cycles_skipped: 0,
            compute_cycles_skipped: 0,
            stages: (0..cfg.num_sms)
                .map(|_| SmStage::new(cfg.num_channels))
                .collect(),
            resp_buf: Vec::new(),
            dormancy: SmDormancy::new(dormancy, cfg.num_sms, cfg.num_channels),
        }
    }

    /// Initial dispatch: round-robin across SMs (like GPGPU-Sim's block
    /// dispatcher), so small launches spread over all cores instead of
    /// piling onto SM 0 and thrashing its L1.
    fn fill(&mut self, kernel: &dyn Kernel) {
        'fill: loop {
            let mut placed = false;
            for sm in &mut self.sms {
                if self.next_warp >= self.total_warps {
                    break 'fill;
                }
                if sm.has_free_slot() {
                    sm.dispatch(self.next_warp, kernel.program(self.next_warp));
                    self.next_warp += 1;
                    placed = true;
                }
            }
            if !placed {
                break;
            }
        }
    }

    /// Serializes the machine as a flat sequence of per-component frames.
    fn save_frames(&self, s: &mut Saver) {
        s.frame("mach", 1, |s| {
            s.usize("total_warps", self.total_warps);
            s.usize("next_warp", self.next_warp);
            s.u64("acc", self.acc);
            s.u64("mem_time", self.mem_time);
            s.u64("core_cycle", self.core_cycle);
            s.u64("ticks_executed", self.ticks_executed);
            s.u64("cycles_skipped", self.cycles_skipped);
            s.u64("compute_cycles_skipped", self.compute_cycles_skipped);
        });
        for (i, sm) in self.sms.iter().enumerate() {
            s.frame("sm", i as u32, |s| sm.save_state(s));
        }
        for (i, slice) in self.slices.iter().enumerate() {
            s.frame("slc", i as u32, |s| slice.save_state(s));
        }
        for (i, mc) in self.mcs.iter().enumerate() {
            s.frame("mc", i as u32, |s| mc.save_state(s));
        }
        for (i, q) in self.req_noc.iter().enumerate() {
            s.frame("rnoc", i as u32, |s| {
                q.save_state(s, |s, r: &SliceReq| {
                    s.usize("sm", r.sm);
                    s.u64("line", r.line);
                    s.bool("write", r.write);
                    s.bool("approximable", r.approximable);
                });
            });
        }
        for (i, q) in self.reply_noc.iter().enumerate() {
            s.frame("pnoc", i as u32, |s| {
                q.save_state(s, |s, r: &Reply| {
                    s.u64("line", r.line);
                    s.bool("has_values", r.values.is_some());
                    if let Some(v) = &r.values {
                        s.f32s("values", v);
                    }
                });
            });
        }
    }

    /// Restores a machine built by [`LaunchMachine::new`] with the same
    /// configuration; warp programs are reconstructed from `kernel` and
    /// their dynamic state loaded into them.
    fn load_frames(&mut self, l: &mut Loader<'_>, kernel: &dyn Kernel) -> SnapResult<()> {
        let expect_warps = self.total_warps;
        let scalars = l.frame("mach", 1, |l| {
            let tw = l.usize("total_warps")?;
            if tw != expect_warps {
                return Err(SnapError::Malformed {
                    label: "total_warps".into(),
                    why: format!(
                        "checkpoint was taken with {tw} warps but the supplied \
                         kernel launches {expect_warps}"
                    ),
                });
            }
            Ok([
                l.u64("next_warp")?,
                l.u64("acc")?,
                l.u64("mem_time")?,
                l.u64("core_cycle")?,
                l.u64("ticks_executed")?,
                l.u64("cycles_skipped")?,
                l.u64("compute_cycles_skipped")?,
            ])
        })?;
        self.next_warp = scalars[0] as usize;
        self.acc = scalars[1];
        self.mem_time = scalars[2];
        self.core_cycle = scalars[3];
        self.ticks_executed = scalars[4];
        self.cycles_skipped = scalars[5];
        self.compute_cycles_skipped = scalars[6];
        for (i, sm) in self.sms.iter_mut().enumerate() {
            l.frame("sm", i as u32, |l| sm.load_state(l, kernel))?;
        }
        for (i, slice) in self.slices.iter_mut().enumerate() {
            l.frame("slc", i as u32, |l| slice.load_state(l))?;
        }
        for (i, mc) in self.mcs.iter_mut().enumerate() {
            l.frame("mc", i as u32, |l| mc.load_state(l))?;
        }
        for (i, q) in self.req_noc.iter_mut().enumerate() {
            l.frame("rnoc", i as u32, |l| {
                q.load_state(l, |l| {
                    Ok(SliceReq {
                        sm: l.usize("sm")?,
                        line: l.u64("line")?,
                        write: l.bool("write")?,
                        approximable: l.bool("approximable")?,
                    })
                })
            })?;
        }
        for (i, q) in self.reply_noc.iter_mut().enumerate() {
            l.frame("pnoc", i as u32, |l| {
                q.load_state(l, |l| {
                    let line = l.u64("line")?;
                    let values = if l.bool("has_values")? {
                        let mut v = [0f32; 32];
                        l.f32_array("values", &mut v)?;
                        Some(v)
                    } else {
                        None
                    };
                    Ok(Reply { line, values })
                })
            })?;
        }
        Ok(())
    }
}

/// One configured GPU simulation.
pub struct Simulator {
    cfg: GpuConfig,
    sched: SchedConfig,
    limits: SimLimits,
    capture_trace: bool,
    cycle_skipping: bool,
    compute_skipping: bool,
    dormancy: bool,
}

/// Outcome of driving one launch's machine.
enum StepOutcome {
    /// The launch finished (or hit the cycle limit).
    Finished { hit_limit: bool },
    /// The pause target was reached; the machine is mid-launch.
    Paused,
}

/// A kernel sequence passed either as one `&mut dyn Kernel` or a boxed
/// slice; lets the single- and multi-launch entry points share one driver.
enum SeqMut<'a> {
    One(&'a mut dyn Kernel),
    Many(&'a mut [Box<dyn Kernel>]),
}

impl SeqMut<'_> {
    fn len(&self) -> usize {
        match self {
            SeqMut::One(_) => 1,
            SeqMut::Many(ks) => ks.len(),
        }
    }

    fn get(&mut self, i: usize) -> &mut dyn Kernel {
        match self {
            SeqMut::One(k) => {
                debug_assert_eq!(i, 0);
                &mut **k
            }
            SeqMut::Many(ks) => ks[i].as_mut(),
        }
    }
}

/// State restored from a checkpoint, ready to continue driving.
struct Restored {
    stats: SimStats,
    trace: Option<Trace>,
    image: MemoryImage,
    machine: LaunchMachine,
}

impl Simulator {
    /// Creates a simulator for a GPU configuration and scheduling policy,
    /// with event-driven cycle skipping, compute-burst skipping and
    /// dormancy on.
    pub fn new(cfg: GpuConfig, sched: SchedConfig) -> Self {
        Self {
            cfg,
            sched,
            limits: SimLimits::default(),
            capture_trace: false,
            cycle_skipping: true,
            compute_skipping: true,
            dormancy: true,
        }
    }

    /// Overrides the default safety limits.
    pub fn with_limits(mut self, limits: SimLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables DRAM request-trace capture; the trace lands in
    /// [`RunResult::trace`] and can be replayed with [`Trace::replay`].
    pub fn with_trace_capture(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Turns event-driven cycle skipping on (the default) or off. Results
    /// are bit-identical either way; only wall-clock changes.
    pub fn with_cycle_skipping(mut self, enabled: bool) -> Self {
        self.cycle_skipping = enabled;
        self
    }

    /// Turns analytic compute-burst skipping on (the default) or off. Only
    /// effective while cycle skipping itself is enabled; results are
    /// bit-identical either way, only wall-clock changes.
    pub fn with_compute_skipping(mut self, enabled: bool) -> Self {
        self.compute_skipping = enabled;
        self
    }

    /// Turns dormancy on (the default) or off: whether executed cycles
    /// skip SMs that are not due and controller passes that cannot issue.
    /// Results, checkpoint bytes and loop counters are identical either
    /// way, so unlike the skipping switches it is not part of the
    /// checkpoint's configuration fingerprint: a checkpoint taken with
    /// dormancy resumes without it, and the other way round.
    pub fn with_dormancy(mut self, enabled: bool) -> Self {
        self.dormancy = enabled;
        self
    }

    /// Runs `kernel` to completion and returns statistics plus output.
    pub fn run(&self, kernel: &mut dyn Kernel) -> RunResult {
        self.drive(&mut SeqMut::One(kernel), None, None)
            .expect("fresh runs deserialize nothing")
            .expect_done("no pause target was set")
    }

    /// Runs several dependent kernel launches back to back on one shared
    /// memory image (e.g. the two matrix products of `2MM`), accumulating
    /// statistics. The returned output is the **last** launch's output.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn run_sequence(&self, kernels: &mut [Box<dyn Kernel>]) -> RunResult {
        self.drive(&mut SeqMut::Many(kernels), None, None)
            .expect("fresh runs deserialize nothing")
            .expect_done("no pause target was set")
    }

    /// Runs `kernel` until it completes or the cumulative core-cycle count
    /// reaches `pause_at`, whichever comes first. A paused run returns a
    /// [`Checkpoint`] that [`Simulator::resume`] continues bit-identically.
    pub fn run_until(&self, kernel: &mut dyn Kernel, pause_at: u64) -> RunOutcome {
        self.drive(&mut SeqMut::One(kernel), None, Some(pause_at))
            .expect("fresh runs deserialize nothing")
    }

    /// [`Simulator::run_until`] for a multi-launch sequence; the pause
    /// target counts core cycles cumulatively across launches.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn run_sequence_until(&self, kernels: &mut [Box<dyn Kernel>], pause_at: u64) -> RunOutcome {
        self.drive(&mut SeqMut::Many(kernels), None, Some(pause_at))
            .expect("fresh runs deserialize nothing")
    }

    /// Resumes a paused run to completion. `kernel` must be a freshly built
    /// instance of the same kernel the checkpoint was taken from (its
    /// `setup` is replayed against a scratch image to rebuild internal
    /// region pointers; the checkpointed memory image is what the run uses).
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint bytes are malformed or were
    /// taken under a different configuration or kernel.
    pub fn resume(&self, kernel: &mut dyn Kernel, ck: &Checkpoint) -> SnapResult<RunResult> {
        Ok(self
            .drive(&mut SeqMut::One(kernel), Some(ck), None)?
            .expect_done("no pause target was set"))
    }

    /// Resumes a paused run until completion or a (later) pause target.
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint bytes are malformed or were
    /// taken under a different configuration or kernel.
    pub fn resume_until(
        &self,
        kernel: &mut dyn Kernel,
        ck: &Checkpoint,
        pause_at: u64,
    ) -> SnapResult<RunOutcome> {
        self.drive(&mut SeqMut::One(kernel), Some(ck), Some(pause_at))
    }

    /// Resumes a paused multi-launch sequence to completion.
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint bytes are malformed or were
    /// taken under a different configuration or kernel sequence.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn resume_sequence(
        &self,
        kernels: &mut [Box<dyn Kernel>],
        ck: &Checkpoint,
    ) -> SnapResult<RunResult> {
        Ok(self
            .drive(&mut SeqMut::Many(kernels), Some(ck), None)?
            .expect_done("no pause target was set"))
    }

    /// Resumes a paused multi-launch sequence until completion or a (later)
    /// pause target.
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint bytes are malformed or were
    /// taken under a different configuration or kernel sequence.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn resume_sequence_until(
        &self,
        kernels: &mut [Box<dyn Kernel>],
        ck: &Checkpoint,
        pause_at: u64,
    ) -> SnapResult<RunOutcome> {
        self.drive(&mut SeqMut::Many(kernels), Some(ck), Some(pause_at))
    }

    /// Re-serializes `ck` with field labels and returns every primitive as
    /// a `(path, value)` pair (e.g. `("sm[2]/slot[5]/rr", "3")`) — the
    /// input to `dbg_diverge`'s component-level field diff. `kernel` plays
    /// the same role as in [`Simulator::resume`].
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint cannot be restored under this
    /// simulator and kernel.
    pub fn checkpoint_fields(
        &self,
        kernel: &mut dyn Kernel,
        ck: &Checkpoint,
    ) -> SnapResult<Vec<(String, String)>> {
        self.checkpoint_fields_inner(&mut SeqMut::One(kernel), ck)
    }

    /// [`Simulator::checkpoint_fields`] for a multi-launch sequence.
    ///
    /// # Errors
    ///
    /// Returns an error when the checkpoint cannot be restored under this
    /// simulator and kernel sequence.
    pub fn checkpoint_fields_sequence(
        &self,
        kernels: &mut [Box<dyn Kernel>],
        ck: &Checkpoint,
    ) -> SnapResult<Vec<(String, String)>> {
        self.checkpoint_fields_inner(&mut SeqMut::Many(kernels), ck)
    }

    fn checkpoint_fields_inner(
        &self,
        kernels: &mut SeqMut<'_>,
        ck: &Checkpoint,
    ) -> SnapResult<Vec<(String, String)>> {
        let st = self.restore(kernels, ck)?;
        let mut s = Saver::with_labels();
        s.header();
        self.write_checkpoint(
            &mut s,
            ck.launch_idx(),
            &st.stats,
            st.trace.as_ref(),
            &st.image,
            &st.machine,
        );
        let (bytes, labels) = s.finish_with_labels();
        debug_assert_eq!(
            bytes,
            ck.as_bytes(),
            "checkpoint load/save round trip must be byte-identical"
        );
        Ok(labels)
    }

    /// Fingerprint of everything that affects simulation results, folded
    /// into the checkpoint so a resume under a different configuration is
    /// rejected instead of silently diverging.
    fn config_digest(&self) -> u64 {
        digest(
            format!(
                "{:?}|{:?}|{:?}|{}|{}|{}",
                self.cfg,
                self.sched,
                self.limits,
                self.capture_trace,
                self.cycle_skipping,
                self.compute_skipping
            )
            .as_bytes(),
        )
    }

    /// Serializes a paused run's full state as checkpoint frames into `s`.
    fn write_checkpoint(
        &self,
        s: &mut Saver,
        launch_idx: usize,
        total: &SimStats,
        trace: Option<&Trace>,
        image: &MemoryImage,
        m: &LaunchMachine,
    ) {
        s.frame("meta", 0, |s| {
            s.usize("launch_idx", launch_idx);
            s.u64("cfg_digest", self.config_digest());
            s.u64("cycle", total.core_cycles + m.core_cycle);
        });
        s.frame("stat", 1, |s| total.save_state(s));
        s.frame("trc", 0, |s| {
            s.bool("has", trace.is_some());
            if let Some(t) = trace {
                t.save_state(s);
            }
        });
        s.frame("img", 0, |s| image.save_state(s));
        m.save_frames(s);
    }

    fn save_checkpoint(
        &self,
        launch_idx: usize,
        total: &SimStats,
        trace: Option<&Trace>,
        image: &MemoryImage,
        m: &LaunchMachine,
    ) -> Checkpoint {
        let mut s = Saver::new();
        s.header();
        self.write_checkpoint(&mut s, launch_idx, total, trace, image, m);
        Checkpoint {
            data: s.finish(),
            launch_idx,
            cycle: total.core_cycles + m.core_cycle,
        }
    }

    /// Restores a checkpoint against the supplied kernel sequence: replays
    /// the in-progress launch's `setup` on a scratch image (allocation is
    /// deterministic, so region pointers match the original run), then
    /// deserializes statistics, trace, memory image and machine.
    fn restore(&self, kernels: &mut SeqMut<'_>, ck: &Checkpoint) -> SnapResult<Restored> {
        let li = ck.launch_idx();
        if li >= kernels.len() {
            return Err(SnapError::Malformed {
                label: "launch_idx".into(),
                why: format!(
                    "checkpoint is inside launch {li} but only {} launches were supplied",
                    kernels.len()
                ),
            });
        }
        {
            // Replay *every* setup up to and including the in-progress
            // launch on one scratch image: later launches read region
            // pointers earlier setups published (shared cells), and their
            // own allocations start where the earlier ones ended, so the
            // whole prefix must be rebuilt in order for the pointers to
            // match the original run. Allocation is deterministic and the
            // scratch image is discarded — the run uses the checkpointed
            // image.
            let mut scratch = MemoryImage::new();
            for i in 0..=li {
                kernels.get(i).setup(&mut scratch);
            }
        }
        let kernel: &dyn Kernel = kernels.get(li);

        let bytes = ck.as_bytes();
        let mut l = Loader::new(bytes);
        l.expect_header()?;
        l.frame("meta", 0, |l| {
            let _ = l.usize("launch_idx")?;
            let cfg_digest = l.u64("cfg_digest")?;
            if cfg_digest != self.config_digest() {
                return Err(SnapError::Malformed {
                    label: "cfg_digest".into(),
                    why: "checkpoint was taken under a different GPU/scheduler \
                          configuration (or limits/trace/skipping settings)"
                        .into(),
                });
            }
            let _ = l.u64("cycle")?;
            Ok(())
        })?;
        let mut stats = SimStats::new();
        l.frame("stat", 1, |l| stats.load_state(l))?;
        let mut trace = None;
        l.frame("trc", 0, |l| {
            if l.bool("has")? {
                let mut t = Trace::new();
                t.load_state(l)?;
                trace = Some(t);
            }
            Ok(())
        })?;
        let mut image = MemoryImage::new();
        l.frame("img", 0, |l| image.load_state(l))?;
        let mut machine = LaunchMachine::new(
            &self.cfg,
            &self.sched,
            self.capture_trace,
            self.dormancy,
            kernel.total_warps(),
        );
        machine.load_frames(&mut l, kernel)?;
        if l.pos() != bytes.len() {
            return Err(SnapError::Malformed {
                label: "checkpoint".into(),
                why: format!("{} trailing bytes after the last frame", bytes.len() - l.pos()),
            });
        }
        Ok(Restored {
            stats,
            trace,
            image,
            machine,
        })
    }

    /// The shared driver behind every `run*` / `resume*` entry point: walks
    /// the launch sequence, building a fresh [`LaunchMachine`] per launch
    /// (or restoring one from `resume`), and folds each finished launch
    /// into the accumulated statistics. A reached `pause_at` target
    /// serializes the current state and returns early.
    fn drive(
        &self,
        kernels: &mut SeqMut<'_>,
        resume: Option<&Checkpoint>,
        pause_at: Option<u64>,
    ) -> SnapResult<RunOutcome> {
        let n = kernels.len();
        assert!(n > 0, "at least one kernel launch is required");
        let mut hit = false;
        let (mut image, mut total, mut trace, start, mut restored) = match resume {
            Some(ck) => {
                let st = self.restore(kernels, ck)?;
                // Discard profiler totals left over from earlier work on
                // this thread, as a fresh launch would.
                let _ = prof::take();
                (st.image, st.stats, st.trace, ck.launch_idx(), Some(st.machine))
            }
            None => (
                MemoryImage::new(),
                SimStats::new(),
                self.capture_trace.then(Trace::new),
                0,
                None,
            ),
        };
        for li in start..n {
            let kernel = kernels.get(li);
            let mut m = match restored.take() {
                Some(m) => m,
                None => {
                    // Fresh launch: clear stale profiler totals, set up the
                    // kernel's memory regions, dispatch the initial warps.
                    let _ = prof::take();
                    kernel.setup(&mut image);
                    let mut m = LaunchMachine::new(
                        &self.cfg,
                        &self.sched,
                        self.capture_trace,
                        self.dormancy,
                        kernel.total_warps(),
                    );
                    m.fill(kernel);
                    m
                }
            };
            let prior = total.core_cycles;
            match self.run_machine(kernel, &mut image, &mut m, prior, pause_at) {
                StepOutcome::Paused => {
                    let ck = self.save_checkpoint(li, &total, trace.as_ref(), &image, &m);
                    return Ok(RunOutcome::Paused(ck));
                }
                StepOutcome::Finished { hit_limit } => {
                    hit |= hit_limit;
                    m.fold_into(&mut total, &mut trace);
                }
            }
        }
        let output = kernels.get(n - 1).output(&image);
        Ok(RunOutcome::Done(RunResult {
            stats: total,
            output,
            hit_cycle_limit: hit,
            trace,
        }))
    }

    /// Drives one launch's machine until the launch finishes, the cycle
    /// limit trips, or the cumulative pause target is reached.
    ///
    /// Each executed cycle is a *phased tick* (see `DESIGN.md` §12):
    ///
    /// * **A** — every due SM ticks against a read-only memory image and a
    ///   private staging area;
    /// * **B** — the due SMs' staged image writes and NoC requests commit
    ///   in ascending SM order, then new warps dispatch;
    /// * **C** — every memory partition (slice + controller) ticks against
    ///   its own queues, staging replies;
    /// * **D** — staged replies merge into the reply NoC in ascending slice
    ///   order, and the termination check runs.
    fn run_machine(
        &self,
        kernel: &dyn Kernel,
        image: &mut MemoryImage,
        m: &mut LaunchMachine,
        prior_cycles: u64,
        pause_at: Option<u64>,
    ) -> StepOutcome {
        let cfg = &self.cfg;
        let LaunchMachine {
            map,
            sms,
            slices,
            mcs,
            req_noc,
            reply_noc,
            total_warps,
            next_warp,
            acc,
            mem_time,
            core_cycle,
            ticks_executed,
            cycles_skipped,
            compute_cycles_skipped,
            stages,
            resp_buf,
            dormancy,
        } = m;
        let compute_skipping = self.compute_skipping;
        let total_warps = *total_warps;
        let core_hz = u64::from(cfg.core_clock_mhz);
        let mem_hz = u64::from(cfg.mem_clock_mhz);
        let limit = self.limits.max_core_cycles;
        // The pause target in this launch's local cycles; zero when the
        // target lies before this launch (pause immediately).
        let pause = pause_at.map(|t| t.saturating_sub(prior_cycles));
        // Cycle-start request-NoC occupancy snapshot, refilled per cycle and
        // allocated once so the loop body stays allocation-free.
        let mut free0: Vec<usize> = Vec::with_capacity(req_noc.len());

        loop {
            // 0. Fast-forward over provably idle — or busy but analytically
            //    predictable — cycles. Runs at the top of the iteration,
            //    before the next cycle executes, so a resumed run re-derives
            //    the remainder of a skip the pause cut short, keeping the
            //    executed/skipped accounting bit-identical to the
            //    uninterrupted run.
            if self.cycle_skipping && *core_cycle > 0 {
                let _t_ff = prof::enter(Phase::FastForward);
                let mut target = next_interesting_cycle(
                    *core_cycle, limit, *acc, core_hz, mem_hz, *mem_time, compute_skipping,
                    sms, slices, req_noc, reply_noc, mcs,
                );
                if let Some(p) = pause {
                    // Never skip past the pause point: any prefix of a
                    // skippable span is itself skippable (idle cycles stay
                    // idle; a compute replay is valid for every shorter
                    // span), so clamping preserves equivalence.
                    target = target.min(p.saturating_add(1));
                }
                if target > *core_cycle + 1 {
                    let skipped = target - *core_cycle - 1;
                    // Replay each SM's round-robin compute schedule over the
                    // span in closed form — the exact grants, `rr` cursor
                    // moves and `Computing -> Ready` transitions the naive
                    // loop would have produced. A span where any SM did so
                    // is accounted as compute-skip; pure idle spans keep the
                    // PR 2 idle-skip classification.
                    let mut advanced_compute = false;
                    if compute_skipping {
                        for sm in sms.iter_mut() {
                            advanced_compute |= sm.advance_compute(skipped);
                        }
                    }
                    // Advance the memory clock analytically over the
                    // skipped span; the controllers see the exact same tick
                    // count (all of them no-ops) as the naive loop would
                    // have executed.
                    let units =
                        u128::from(*acc) + u128::from(skipped) * u128::from(mem_hz);
                    let mem_ticks = (units / u128::from(core_hz)) as u64;
                    *acc = (units % u128::from(core_hz)) as u64;
                    if mem_ticks > 0 {
                        *mem_time += mem_ticks;
                        for mc in mcs.iter_mut() {
                            mc.advance_idle(*mem_time);
                        }
                    }
                    *cycles_skipped += skipped;
                    if advanced_compute {
                        *compute_cycles_skipped += skipped;
                    }
                    *core_cycle = target - 1;
                }
            }

            if let Some(p) = pause {
                if *core_cycle >= p {
                    return StepOutcome::Paused;
                }
            }

            *core_cycle += 1;
            if *core_cycle > limit {
                return StepOutcome::Finished { hit_limit: true };
            }
            *ticks_executed += 1;
            let now = *core_cycle;

            // Phase A: deliver replies and issue from each due SM. Every SM
            // sees the same read-only image and the same cycle-start NoC
            // occupancy snapshot; all effects land in its private `SmStage`.
            {
                let _t = prof::enter(Phase::SmIssue);
                free0.clear();
                free0.extend(req_noc.iter().map(|q| q.free()));
                let (grown, avail) = dormancy.begin_cycle(&free0);
                let mut skipped = 0u64;
                for (i, ((sm, replies), stage)) in
                    sms.iter_mut().zip(reply_noc.iter_mut()).zip(stages.iter_mut()).enumerate()
                {
                    // Polling stamps the queue's cycle exactly as the empty
                    // `pop_ready` of a visit would.
                    if dormancy.enabled
                        && !dormancy.visit(i, sm, replies.poll(now), &free0, grown, avail)
                    {
                        skipped += 1;
                        continue;
                    }
                    while let Some(reply) = replies.pop_ready(now) {
                        sm.on_reply(reply, image);
                    }
                    stage.begin_cycle(&free0);
                    let mut ctx = SmCtx {
                        image,
                        map,
                        kernel,
                        stage,
                    };
                    sm.tick(&mut ctx);
                }
                prof::count(Counter::SmVisitsSkipped, skipped);
            }

            // Phase B: commit the due SMs' staged effects in ascending SM
            // order — functional writes first, then the SM's requests in
            // stage order — and greedily dispatch new warps. An SM that
            // was not due staged nothing, and cannot have a free slot while
            // warps remain: a slot frees only when its SM ticks, and phase
            // B refills it in that same cycle.
            {
                let _t = prof::enter(Phase::SmIssue);
                for ((sm, stage), &due) in
                    sms.iter_mut().zip(stages.iter_mut()).zip(dormancy.due.iter())
                {
                    if !due {
                        debug_assert!(*next_warp >= total_warps || !sm.has_free_slot());
                        continue;
                    }
                    if !stage.writes.is_empty() {
                        image.write_lanes(&stage.writes);
                    }
                    for &(ch, req) in &stage.reqs {
                        req_noc[ch].push_unchecked(now, req);
                    }
                    while *next_warp < total_warps && sm.has_free_slot() {
                        sm.dispatch(*next_warp, kernel.program(*next_warp));
                        *next_warp += 1;
                    }
                }
            }

            // Phase C: tick each memory partition — its L2 slice, then its
            // controller for this cycle's memory tick(s). Partitions share
            // nothing: a slice talks only to its own controller and its own
            // request queue, and replies are staged slice-locally.
            {
                let _t = prof::enter(Phase::Slice);
                *acc += mem_hz;
                let mut mem_ticks = 0u64;
                while *acc >= core_hz {
                    *acc -= core_hz;
                    *mem_time += 1;
                    mem_ticks += 1;
                }
                for ((slice, mc), incoming) in
                    slices.iter_mut().zip(mcs.iter_mut()).zip(req_noc.iter_mut())
                {
                    slice.tick(now, incoming, mc, image, map);
                    let _t = prof::enter(Phase::Controller);
                    for _ in 0..mem_ticks {
                        resp_buf.clear();
                        mc.tick(resp_buf);
                        for &resp in resp_buf.iter() {
                            slice.responses.push_back(resp);
                        }
                    }
                }
            }

            // Phase D: merge staged replies into the reply NoC in ascending
            // slice order, stalled retries first.
            {
                let _t = prof::enter(Phase::Slice);
                for slice in slices.iter_mut() {
                    slice.flush_replies(now, &mut reply_noc[..]);
                }
            }

            // Termination (exact: no alignment gate, so the reported
            // cycle count carries no phantom tail cycles).
            if *next_warp >= total_warps
                && sms.iter().all(|s| s.live_warps() == 0)
                && req_noc.iter().all(|q| q.is_empty())
                && reply_noc.iter().all(|q| q.is_empty())
                && slices.iter().all(|s| s.is_idle())
                && mcs.iter().all(|m| m.is_idle())
            {
                return StepOutcome::Finished { hit_limit: false };
            }
        }
    }
}

impl LaunchMachine {
    /// Folds a *finished* launch into the accumulated run statistics:
    /// drains the controllers (closing open rows so final RBL lands in the
    /// histograms), sums per-component counters, and merges trace / DRAM
    /// stats / profiler totals.
    fn fold_into(&mut self, total: &mut SimStats, trace: &mut Option<Trace>) {
        for mc in &mut self.mcs {
            let _ = mc.drain();
        }

        total.core_cycles += self.core_cycle;
        total.ticks_executed += self.ticks_executed;
        total.cycles_skipped += self.cycles_skipped;
        total.compute_cycles_skipped += self.compute_cycles_skipped;
        for sm in &self.sms {
            total.instructions += sm.instructions;
            total.l1_hits += sm.l1().hits();
            total.l1_misses += sm.l1().misses();
            total.approximated_loads += sm.approximated_loads;
        }
        for slice in &self.slices {
            total.l2_hits += slice.l2().hits();
            total.l2_misses += slice.l2().misses();
        }
        if let Some(total_trace) = trace {
            // Merge per-slice traces by arrival cycle (stable across
            // slices). Each launch's memory clock restarts at zero, so
            // entries are rebased onto the end of the previous launches'
            // channel time to keep the accumulated trace time-ordered.
            let base = total.dram.mem_cycles;
            let mut merged: Vec<_> = self
                .slices
                .iter_mut()
                .filter_map(|s| s.trace.take())
                .flat_map(|t| t.iter().copied().collect::<Vec<_>>())
                .collect();
            merged.sort_by_key(|e| e.cycle);
            for e in merged {
                total_trace.push(TraceEntry {
                    cycle: base + e.cycle,
                    ..e
                });
            }
        }

        let mut launch_dram = lazydram_common::DramStats::new();
        for mc in &self.mcs {
            launch_dram.merge(mc.stats());
            let d = &mc.ams().declines;
            if total.ams_declines.len() < d.len() {
                total.ams_declines.resize(d.len(), 0);
            }
            for (t, &v) in total.ams_declines.iter_mut().zip(d.iter()) {
                *t += v;
            }
            total.ams_accepts += mc.ams().accepts;
        }
        // Across launches, channel time accumulates rather than maxing.
        let prior_cycles = total.dram.mem_cycles;
        total.dram.merge(&launch_dram);
        total.dram.mem_cycles = prior_cycles + launch_dram.mem_cycles;

        // Fold this launch's wall-clock phase breakdown into the run stats
        // (empty unless the `prof` feature is enabled).
        total.prof.merge(&prof::take());
    }
}

/// The next core cycle at which executing the loop body could have any
/// *externally unpredictable* effect, given that the current cycle's phases
/// just completed and the termination check failed. Every cycle strictly
/// between `now` and the returned cycle is either a provable no-op for
/// every component or (with `compute_skip`) a pure compute-issue cycle that
/// [`Sm::advance_compute`] replays in closed form. Clamped to `limit + 1`,
/// where the loop exits without running phases; with no event at all (a
/// stalled run headed for the cycle limit) the clamp is returned.
#[allow(clippy::too_many_arguments)]
fn next_interesting_cycle(
    now: u64,
    limit: u64,
    acc: u64,
    core_hz: u64,
    mem_hz: u64,
    mem_time: u64,
    compute_skip: bool,
    sms: &[Sm],
    slices: &[Slice],
    req_noc: &[DelayQueue<SliceReq>],
    reply_noc: &[DelayQueue<Reply>],
    mcs: &mut [MemoryController],
) -> u64 {
    let mut next = limit.saturating_add(1);
    if next <= now + 1 || slices.iter().any(Slice::has_work) {
        return now + 1;
    }
    if compute_skip {
        // An SM needs a real tick no later than its next external event:
        // the earliest cycle it can emit a request, complete a drain, or
        // issue a non-compute op. Purely computing SMs report the closed-
        // form end of their round-robin burst instead of bailing, which is
        // what extends fast-forward from idle spans to busy ones.
        for sm in sms {
            match sm.next_external_event(now) {
                Some(event) if event <= now + 1 => return now + 1,
                Some(event) => next = next.min(event),
                None => {}
            }
        }
    } else if sms.iter().any(Sm::has_work) {
        return now + 1;
    }
    // Parked store retries are events only when they would succeed; a
    // failing retry leaves the warp exactly as it found it, and request-NoC
    // occupancy cannot change during the span (no SM has drainable work, no
    // slice services a head) so it keeps failing identically.
    if sms.iter().any(|s| s.stalled_store_ready(req_noc)) {
        return now + 1;
    }
    for (i, q) in req_noc.iter().enumerate() {
        let Some(ready) = q.next_ready_cycle() else {
            continue;
        };
        if ready > now + 1 {
            next = next.min(ready);
        } else if q.peek().is_some_and(|req| slices[i].would_service(req, &mcs[i])) {
            return now + 1;
        }
        // A ready head the slice cannot service (controller backpressure)
        // is not an event: the slice would pop it and park it right back.
        // The unblocking condition changes only on a controller event,
        // which the controller scan below contributes.
    }
    for q in reply_noc {
        if let Some(ready) = q.next_ready_cycle() {
            next = next.min(ready.max(now + 1));
        }
    }
    if next == now + 1 {
        return next;
    }
    // Memory-side events arrive in memory cycles (in-flight completions,
    // DMS expiries, window boundaries). Map the j-th future memory tick
    // back to the core cycle whose accumulator step fires it: the smallest
    // k >= 1 with acc + k * mem_hz >= j * core_hz.
    for mc in mcs.iter_mut() {
        if let Some(me) = mc.next_event_cycle() {
            debug_assert!(me > mem_time, "memory event must lie in the future");
            let j = u128::from(me - mem_time);
            let need = j * u128::from(core_hz) - u128::from(acc);
            let k = need.div_ceil(u128::from(mem_hz));
            let event = u128::from(now).saturating_add(k);
            if event < u128::from(next) {
                next = event as u64;
            }
        }
    }
    next.max(now + 1)
}

/// Convenience: runs `kernel` under `sched` on the default GPU and returns
/// the result.
///
/// # Example
///
/// ```no_run
/// use lazydram_common::{GpuConfig, SchedConfig};
/// use lazydram_gpu::{run_kernel, Kernel};
/// # fn demo(kernel: &mut dyn Kernel) {
/// let result = run_kernel(kernel, &GpuConfig::default(), &SchedConfig::dyn_combo());
/// println!("IPC = {:.2}", result.stats.ipc());
/// # }
/// ```
pub fn run_kernel(kernel: &mut dyn Kernel, cfg: &GpuConfig, sched: &SchedConfig) -> RunResult {
    Simulator::new(cfg.clone(), sched.clone()).run(kernel)
}
