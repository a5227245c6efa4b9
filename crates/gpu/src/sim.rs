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
//! Each core cycle runs as four phases on the calling thread: every SM
//! ticks against a read-only memory image, staging its outbound requests
//! and functional writes (phase A); the staged effects commit in ascending
//! SM order (phase B); the six memory partitions — L2 slice, controller,
//! DRAM channel — tick, staging replies (phase C); and the staged replies
//! merge into the reply NoC in ascending slice order (phase D). The phases
//! and the canonical merge orders *are* the semantics: an SM never sees
//! another SM's writes or requests from the same cycle. See `DESIGN.md`
//! §12 for why the staging stays even though nothing runs concurrently.
//!
//! # Dormancy
//!
//! Inside each cycle, phases A and B visit only the SMs that are
//! due ([`Sm::is_due`]): one with a ready reply, an issueable warp, a drain
//! retry that could act, or a parked store that would fit. An SM that is
//! not due sleeps until a reply reaches its NoC head or a slice frees
//! request-NoC space on a channel it waits on. A skipped visit is an exact
//! no-op. The controllers never sleep: each runs a full scheduling pass
//! in every memory cycle. See `DESIGN.md` §12.
//!
//! # Two loops
//!
//! Both loops execute every core cycle. The fast loop (the default) lets
//! SMs sleep; the reference loop ([`Simulator::with_reference_loop`])
//! visits every SM in each cycle. The two are **bit-identical** in results and
//! state dumps, apart from the dump's configuration digest;
//! `tests/fast_forward_equivalence.rs` and a proptest over synthetic
//! kernels hold them together.
//!
//! # Pausing a run
//!
//! All per-launch state lives in one [`LaunchMachine`] struct, so a run can
//! be paused at any cumulative core cycle ([`Simulator::run_until`]) and
//! dumped into a [`Checkpoint`]: a self-contained byte blob in the `snap`
//! wire format, plus a labelled `(path, value)` list of every field when
//! the caller asks for one ([`Simulator::run_sequence_until_labelled`]).
//! The dump is write-only; nothing loads it back. It exists to be
//! compared: `dbg_diverge` digests it to find the first cycle at which two
//! configurations disagree, and the equivalence suite compares the two
//! loops' fields. The dump carries no loop-mode state: the launch's
//! executed-cycle counter and the NoC queues' per-cycle pop budget (which
//! records when a sleeping SM last popped its replies) are not written.
//!
//! A dump holds only *dynamic* state: configuration-derived geometry is
//! not written, only a fingerprint of the configuration (`meta`'s
//! `cfg_digest`).

use crate::kernel::Kernel;
use crate::memimg::MemoryImage;
use crate::noc::DelayQueue;
use crate::slice::Slice;
use crate::sm::{Reply, SliceReq, Sm, SmCtx, SmStage};
use crate::trace::{Trace, TraceEntry};
use lazydram_common::prof::{self, Counter, Phase};
use lazydram_common::snap::{digest, Loader, Saver};
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

/// The state dump of a paused simulation: a self-contained byte blob in
/// the `snap` wire format (see `DESIGN.md` §10), plus the labelled field
/// list the same save recorded when the run was asked for one.
///
/// Produced by [`Simulator::run_until`] and its sequence and labelled
/// variants. A dump is write-only: nothing loads it back. Two dumps are
/// compared, by digest, frame by frame or field by field.
///
/// Layout after the 6-byte `snap` header: a flat sequence of frames —
/// `meta[0]` (launch index, config fingerprint, pause cycle), `stat[1]`
/// (statistics of completed launches), `trc[0]`, `img[0]`, `mach[1]`
/// (warp dispatch and clock scalars), then one `sm[i]` / `slc[i]` /
/// `mc[i]` / `rnoc[i]` / `pnoc[i]` frame per component. The flat framing is what lets
/// `dbg_diverge` digest and diff dump regions component by component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    data: Vec<u8>,
    fields: Vec<(String, String)>,
    cycle: u64,
}

impl Checkpoint {
    /// The serialized bytes (header included).
    pub fn as_bytes(&self) -> &[u8] {
        &self.data
    }

    /// Cumulative core cycle at which the simulation paused.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Every primitive of the dump as a `(path, value)` pair (e.g.
    /// `("sm[2]/slot[5]/rr", "3")`), recorded by the save itself — the
    /// input to `dbg_diverge`'s field diff. Empty unless the run paused
    /// under [`Simulator::run_sequence_until_labelled`].
    pub fn fields(&self) -> &[(String, String)] {
        &self.fields
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
        l.expect_header()
            .expect("constructed checkpoints have a valid header");
        &self.data[l.pos()..]
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
    /// The pause target was reached first; the dump holds the state there.
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
}

/// All mutable state of one kernel launch — the SMs, slices, controllers,
/// crossbar queues, and the cycle-loop scalars — gathered into one struct so
/// a paused run can dump it as a unit.
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
    /// accumulator this is drift-free.
    acc: u64,
    mem_time: u64,
    core_cycle: u64,
    /// Executed cycles: a record of the loop, not the machine's state, so
    /// the dump leaves it out (it reaches [`SimStats`] when the launch
    /// finishes).
    ticks_executed: u64,
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
/// machine starts with every SM awake, and the first cycle re-derives who
/// sleeps.
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
    fn visit(
        &mut self,
        i: usize,
        sm: &Sm,
        reply: bool,
        free0: &[usize],
        grown: u32,
        avail: u32,
    ) -> bool {
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
                .map(|_| MemoryController::new(cfg, sched))
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
}

/// One configured GPU simulation.
pub struct Simulator {
    cfg: GpuConfig,
    sched: SchedConfig,
    limits: SimLimits,
    capture_trace: bool,
    reference_loop: bool,
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

impl Simulator {
    /// Creates a simulator for a GPU configuration and scheduling policy,
    /// running the fast loop: every cycle, with dormant SMs asleep (see
    /// the module docs).
    pub fn new(cfg: GpuConfig, sched: SchedConfig) -> Self {
        Self {
            cfg,
            sched,
            limits: SimLimits::default(),
            capture_trace: false,
            reference_loop: false,
        }
    }

    /// Overrides the default safety limits.
    pub fn with_limits(mut self, limits: SimLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables DRAM request-trace capture; the trace lands in
    /// [`RunResult::trace`] and can be replayed with [`crate::TraceSim`].
    pub fn with_trace_capture(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Selects the reference loop (`true`) or the fast loop (`false`, the
    /// default). The reference loop visits every SM in every core cycle:
    /// nothing sleeps. Results and state dumps are
    /// identical either way, except for the dump's configuration digest;
    /// the reference loop is the one the fast loop is tested against.
    pub fn with_reference_loop(mut self, enabled: bool) -> Self {
        self.reference_loop = enabled;
        self
    }

    /// Runs `kernel` to completion and returns statistics plus output.
    pub fn run(&self, kernel: &mut dyn Kernel) -> RunResult {
        self.drive(&mut SeqMut::One(kernel), None, false)
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
        self.drive(&mut SeqMut::Many(kernels), None, false)
            .expect_done("no pause target was set")
    }

    /// Runs `kernel` until it completes or the cumulative core-cycle count
    /// reaches `pause_at`, whichever comes first. A paused run returns the
    /// [`Checkpoint`] dump of its state at the pause.
    pub fn run_until(&self, kernel: &mut dyn Kernel, pause_at: u64) -> RunOutcome {
        self.drive(&mut SeqMut::One(kernel), Some(pause_at), false)
    }

    /// [`Simulator::run_until`] for a multi-launch sequence; the pause
    /// target counts core cycles cumulatively across launches.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn run_sequence_until(&self, kernels: &mut [Box<dyn Kernel>], pause_at: u64) -> RunOutcome {
        self.drive(&mut SeqMut::Many(kernels), Some(pause_at), false)
    }

    /// [`Simulator::run_sequence_until`] whose dump also records every
    /// field's `(path, value)` pair ([`Checkpoint::fields`]). Recording the
    /// labels costs far more than the dump itself, so only a field diff
    /// asks for it.
    ///
    /// # Panics
    ///
    /// Panics if `kernels` is empty.
    pub fn run_sequence_until_labelled(
        &self,
        kernels: &mut [Box<dyn Kernel>],
        pause_at: u64,
    ) -> RunOutcome {
        self.drive(&mut SeqMut::Many(kernels), Some(pause_at), true)
    }

    /// Fingerprint of everything that affects simulation results, written
    /// into the dump's `meta` frame so two dumps show whether they came
    /// from the same configuration.
    fn config_digest(&self) -> u64 {
        digest(
            format!(
                "{:?}|{:?}|{:?}|{}|{}",
                self.cfg, self.sched, self.limits, self.capture_trace, self.reference_loop
            )
            .as_bytes(),
        )
    }

    /// Dumps a paused run's full state, recording the field labels as it
    /// writes when `labelled`.
    fn save_checkpoint(
        &self,
        labelled: bool,
        launch_idx: usize,
        total: &SimStats,
        trace: Option<&Trace>,
        image: &MemoryImage,
        m: &LaunchMachine,
    ) -> Checkpoint {
        let cycle = total.core_cycles + m.core_cycle;
        let mut s = if labelled {
            Saver::with_labels()
        } else {
            Saver::new()
        };
        s.header();
        s.frame("meta", 0, |s| {
            s.usize("launch_idx", launch_idx);
            s.u64("cfg_digest", self.config_digest());
            s.u64("cycle", cycle);
        });
        s.frame("stat", 1, |s| total.save_state(s));
        s.frame("trc", 0, |s| {
            s.bool("has", trace.is_some());
            if let Some(t) = trace {
                t.save_state(s);
            }
        });
        s.frame("img", 0, |s| image.save_state(s));
        m.save_frames(&mut s);
        let (data, fields) = s.finish_with_labels();
        Checkpoint {
            data,
            fields,
            cycle,
        }
    }

    /// The shared driver behind every `run*` entry point: walks the launch
    /// sequence, building a fresh [`LaunchMachine`] per launch, and folds
    /// each finished launch into the accumulated statistics. A reached
    /// `pause_at` target dumps the current state (with field labels when
    /// `labelled`) and returns early.
    fn drive(&self, kernels: &mut SeqMut<'_>, pause_at: Option<u64>, labelled: bool) -> RunOutcome {
        let n = kernels.len();
        assert!(n > 0, "at least one kernel launch is required");
        let mut hit = false;
        let mut image = MemoryImage::new();
        let mut total = SimStats::new();
        let mut trace = self.capture_trace.then(Trace::new);
        for li in 0..n {
            let kernel = kernels.get(li);
            // Fresh launch: clear stale profiler totals, set up the kernel's
            // memory regions, dispatch the initial warps.
            let _ = prof::take();
            kernel.setup(&mut image);
            let mut m = LaunchMachine::new(
                &self.cfg,
                &self.sched,
                self.capture_trace,
                !self.reference_loop,
                kernel.total_warps(),
            );
            m.fill(kernel);
            let prior = total.core_cycles;
            match self.run_machine(kernel, &mut image, &mut m, prior, pause_at) {
                StepOutcome::Paused => {
                    let ck = self.save_checkpoint(labelled, li, &total, trace.as_ref(), &image, &m);
                    return RunOutcome::Paused(ck);
                }
                StepOutcome::Finished { hit_limit } => {
                    hit |= hit_limit;
                    m.fold_into(&mut total, &mut trace);
                }
            }
        }
        let output = kernels.get(n - 1).output(&image);
        RunOutcome::Done(RunResult {
            stats: total,
            output,
            hit_cycle_limit: hit,
            trace,
        })
    }

    /// Drives one launch's machine until the launch finishes, the cycle
    /// limit trips, or the cumulative pause target is reached.
    ///
    /// Each cycle is a *phased tick* (see `DESIGN.md` §12):
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
            stages,
            resp_buf,
            dormancy,
        } = m;
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
                for (i, ((sm, replies), stage)) in sms
                    .iter_mut()
                    .zip(reply_noc.iter_mut())
                    .zip(stages.iter_mut())
                    .enumerate()
                {
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
                for ((sm, stage), &due) in sms
                    .iter_mut()
                    .zip(stages.iter_mut())
                    .zip(dormancy.due.iter())
                {
                    if !due {
                        debug_assert!(*next_warp >= total_warps || !sm.has_free_slot());
                        continue;
                    }
                    if !stage.write_runs.is_empty() {
                        image.write_runs(&stage.write_runs, &stage.write_values);
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
                for ((slice, mc), incoming) in slices
                    .iter_mut()
                    .zip(mcs.iter_mut())
                    .zip(req_noc.iter_mut())
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
