//! A lightweight self-profiler attributing wall-clock time to simulator
//! phases.
//!
//! The simulator's hot loop interleaves very different kinds of work —
//! SM issue, L2 slice service, memory-controller scheduling, the DRAM
//! timing model and the functional memory image. When optimizing, "where
//! did the seconds go" must be measured, not guessed. This module provides
//! exactly that: scoped phase timers whose per-phase **exclusive** totals
//! (time in a phase minus time in nested phases) are drained into a
//! [`ProfReport`] per run.
//!
//! # Zero cost when disabled
//!
//! The whole implementation is gated on the `prof` cargo feature of this
//! crate. Without it, [`enter`] is an inline empty function returning a
//! zero-sized guard and [`take`] returns an empty report — call sites need
//! no `cfg` and the optimizer erases them. With the feature on, a phase
//! transition is one `RDTSC` read plus a handful of `Cell` load/stores in a
//! thread-local accumulator. Each thread accumulates independently: sweeps
//! run one simulation per job thread, and each simulation drains its own
//! totals with [`take`]. Spans shorter than the `RDTSC` measurement floor
//! are dropped rather than accumulated, so guard overhead is not reported
//! as phase time; the tick→seconds scale is recovered once per [`take`].
//!
//! # Usage
//!
//! ```
//! use lazydram_common::prof::{self, Phase};
//!
//! let _t = prof::enter(Phase::Slice);
//! // ... slice work; nested `enter` calls pause this phase ...
//! drop(_t);
//! let report = prof::take(); // drain totals (empty unless `prof` enabled)
//! assert!(report.total_secs() >= 0.0);
//! ```

/// A simulator phase that can be timed. Phases nest; time is attributed
/// exclusively (a nested phase pauses its parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// SM warp scheduling + issue (including L1 and MSHR work) and reply
    /// delivery.
    SmIssue,
    /// L2 slice service: request queues, L2 lookups, VP replies, writebacks.
    Slice,
    /// Memory-controller scheduling: FR-FCFS selection, DMS/AMS decisions,
    /// pending-queue maintenance.
    Controller,
    /// The DRAM timing model: bank state machines, timing-constraint
    /// bookkeeping, refresh.
    Dram,
    /// The functional memory image: batch lane reads/writes and line copies.
    FuncMem,
    /// Never entered: no loop skips cycles, so there is no event scan to
    /// time. Kept, always zero, only because the benchmark's per-layer
    /// schema reports it as `gpu.fast_forward_s`.
    FastForward,
    /// Never entered: the simulator runs on one thread and has no barrier
    /// to wait on. Kept, always zero, only because the benchmark's
    /// per-layer schema reports it as `gpu.pool_sync_s`.
    Sync,
    /// Never entered, like [`Phase::Sync`]. Kept, always zero, only because
    /// the benchmark's per-layer schema reports it as `gpu.pool_idle_s`.
    Idle,
}

/// Number of [`Phase`] variants ([`Phase::ALL`]'s length).
pub const NUM_PHASES: usize = 8;

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::SmIssue,
        Phase::Slice,
        Phase::Controller,
        Phase::Dram,
        Phase::FuncMem,
        Phase::FastForward,
        Phase::Sync,
        Phase::Idle,
    ];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Phase::SmIssue => "sm_issue",
            Phase::Slice => "slice",
            Phase::Controller => "controller",
            Phase::Dram => "dram",
            Phase::FuncMem => "func_mem",
            Phase::FastForward => "fast_forward",
            Phase::Sync => "sync",
            Phase::Idle => "idle",
        }
    }
}

/// An event the profiler counts alongside the phase timers. Counters say
/// how much work a fast path avoided, which phase time alone cannot show.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// SM visits the phased tick skipped because the SM was not due.
    SmVisitsSkipped,
}

/// Number of [`Counter`] variants ([`Counter::ALL`]'s length).
pub const NUM_COUNTERS: usize = 1;

impl Counter {
    /// Every counter, in display order.
    pub const ALL: [Counter; NUM_COUNTERS] = [Counter::SmVisitsSkipped];

    /// Stable snake_case name (used as the JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Counter::SmVisitsSkipped => "sm_visits_skipped",
        }
    }
}

/// Exclusive wall-clock seconds per [`Phase`], drained by [`take`].
///
/// Always present in `SimStats` but empty unless the `prof` feature is on.
/// Deliberately **excluded from equality**: wall-clock is nondeterministic,
/// and the suite's bit-identity checks compare simulation results, not
/// profiling overhead (see `SimStats`'s `PartialEq`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfReport {
    /// Exclusive seconds, indexed in [`Phase::ALL`] order.
    pub secs: [f64; NUM_PHASES],
    /// Event counts, indexed in [`Counter::ALL`] order.
    pub counts: [u64; NUM_COUNTERS],
}

impl ProfReport {
    /// `true` when nothing was recorded (profiling off or nothing ran).
    pub fn is_empty(&self) -> bool {
        self.secs.iter().all(|&s| s == 0.0) && self.counts.iter().all(|&c| c == 0)
    }

    /// How often `counter` fired.
    pub fn count(&self, counter: Counter) -> u64 {
        self.counts[counter as usize]
    }

    /// Sum of all phase times.
    pub fn total_secs(&self) -> f64 {
        self.secs.iter().sum()
    }

    /// Seconds attributed to `phase`.
    pub fn get(&self, phase: Phase) -> f64 {
        let idx = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("phase in ALL");
        self.secs[idx]
    }

    /// Accumulates another report into this one (multi-launch runs).
    pub fn merge(&mut self, other: &ProfReport) {
        for (a, b) in self.secs.iter_mut().zip(&other.secs) {
            *a += b;
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Serializes as a JSON object keyed by phase and counter name.
    pub fn to_json(&self) -> String {
        let mut o = crate::json::JsonObject::new();
        for (phase, &secs) in Phase::ALL.iter().zip(&self.secs) {
            o.f64(phase.name(), secs);
        }
        for (counter, &n) in Counter::ALL.iter().zip(&self.counts) {
            o.u64(counter.name(), n);
        }
        o.finish()
    }
}

#[cfg(feature = "prof")]
mod imp {
    use super::{Counter, Phase, ProfReport, NUM_COUNTERS, NUM_PHASES};
    use std::cell::Cell;
    use std::time::Instant;

    /// Raw timestamp in abstract "ticks" (TSC cycles on x86_64, nanoseconds
    /// elsewhere). The phase guards sit inside per-cycle hot loops, so the
    /// clock read must be as cheap as possible: `RDTSC` is a handful of
    /// cycles versus the ~20–30 ns of a `clock_gettime` vDSO call, and the
    /// tick→seconds scale is recovered once per [`take`] by comparing a
    /// tick span against an `Instant` span over the whole run.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn now_ticks() -> u64 {
        // SAFETY: RDTSC has no preconditions; it only reads the TSC.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[inline(always)]
    fn now_ticks() -> u64 {
        use std::sync::OnceLock;
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Sentinel for "no open phase" in [`State::open_phase`].
    const NONE: usize = NUM_PHASES;

    /// Spans shorter than this many ticks are dropped instead of
    /// accumulated: at that size the reading is mostly the `RDTSC`
    /// serialization cost itself, so charging it would report guard
    /// overhead as phase time. 32 TSC ticks is ~10 ns on common parts —
    /// well below anything the hot loops do per guard.
    const MEASUREMENT_FLOOR_TICKS: u64 = 32;

    /// Per-thread accumulator. All fields are `Cell`s: the simulator is
    /// single-threaded per run and every access is a straight load/store,
    /// with none of `RefCell`'s borrow-flag bookkeeping on the hot
    /// enter/drop path.
    struct State {
        /// Accumulated exclusive ticks per phase.
        acc: [Cell<u64>; NUM_PHASES],
        /// Innermost open phase ([`NONE`] when idle).
        open_phase: Cell<usize>,
        /// Tick at which the open phase's current *exclusive* span began.
        open_since: Cell<u64>,
        /// Wall-clock anchor taken at the first outermost [`enter`] after a
        /// [`take`]: converts accumulated ticks to seconds.
        anchor_tick: Cell<u64>,
        anchor_instant: Cell<Option<Instant>>,
        /// Accumulated event counts per [`Counter`].
        counts: [Cell<u64>; NUM_COUNTERS],
    }

    thread_local! {
        static STATE: State = const {
            State {
                acc: [const { Cell::new(0) }; NUM_PHASES],
                open_phase: Cell::new(NONE),
                open_since: Cell::new(0),
                anchor_tick: Cell::new(0),
                anchor_instant: Cell::new(None),
                counts: [const { Cell::new(0) }; NUM_COUNTERS],
            }
        };
    }

    /// Adds `n` to `counter`.
    #[inline]
    pub fn count(counter: Counter, n: u64) {
        STATE.with(|s| {
            let c = &s.counts[counter as usize];
            c.set(c.get() + n);
        });
    }

    /// Scope guard of one [`enter`] call; restores the enclosing phase on
    /// drop, charging the elapsed exclusive time to its own phase.
    pub struct Guard {
        phase: usize,
        prev: usize,
    }

    /// Starts timing `phase` until the returned guard drops. The enclosing
    /// phase (if any) is paused for the duration — exclusive attribution.
    #[must_use = "the phase ends when the guard drops"]
    pub fn enter(phase: Phase) -> Guard {
        // `Phase::ALL` lists variants in declaration order, so the
        // discriminant is the accumulator index.
        let phase = phase as usize;
        let now = now_ticks();
        let prev = STATE.with(|s| {
            let prev = s.open_phase.get();
            if prev != NONE {
                let span = now.wrapping_sub(s.open_since.get());
                if span >= MEASUREMENT_FLOOR_TICKS {
                    s.acc[prev].set(s.acc[prev].get().wrapping_add(span));
                }
            } else if s.anchor_instant.get().is_none() {
                // Only an *outermost* enter can be the first event after a
                // take(), so nested guards skip the anchor check entirely.
                s.anchor_tick.set(now);
                s.anchor_instant.set(Some(Instant::now()));
            }
            s.open_phase.set(phase);
            s.open_since.set(now);
            prev
        });
        Guard { phase, prev }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            let now = now_ticks();
            STATE.with(|s| {
                let p = s.open_phase.get();
                debug_assert_eq!(p, self.phase, "prof guards must nest");
                let span = now.wrapping_sub(s.open_since.get());
                if span >= MEASUREMENT_FLOOR_TICKS {
                    s.acc[p].set(s.acc[p].get().wrapping_add(span));
                }
                s.open_phase.set(self.prev);
                s.open_since.set(now);
            });
        }
    }

    /// Drains this thread's accumulated totals into a report and resets
    /// them. Call at run boundaries (no phase should be open).
    pub fn take() -> ProfReport {
        STATE.with(|s| {
            // Seconds per tick, recovered from the span since the anchor.
            // Assumes an invariant TSC (standard on every x86_64 this
            // simulator targets); the non-x86 fallback ticks in nanoseconds
            // so the measured scale lands on 1e-9 by construction.
            let scale = match s.anchor_instant.take() {
                Some(i0) => {
                    let dt = now_ticks().wrapping_sub(s.anchor_tick.get());
                    if dt == 0 {
                        0.0
                    } else {
                        i0.elapsed().as_secs_f64() / dt as f64
                    }
                }
                None => 0.0,
            };
            let mut report = ProfReport::default();
            for (out, acc) in report.secs.iter_mut().zip(&s.acc) {
                *out = acc.replace(0) as f64 * scale;
            }
            for (out, c) in report.counts.iter_mut().zip(&s.counts) {
                *out = c.replace(0);
            }
            report
        })
    }
}

#[cfg(not(feature = "prof"))]
mod imp {
    use super::{Counter, Phase, ProfReport};

    /// Zero-sized no-op guard (profiling compiled out).
    pub struct Guard {
        _priv: (),
    }

    /// No-op: profiling is compiled out without the `prof` feature.
    #[inline(always)]
    #[must_use = "the phase ends when the guard drops"]
    pub fn enter(_phase: Phase) -> Guard {
        Guard { _priv: () }
    }

    /// No-op: profiling is compiled out without the `prof` feature.
    #[inline(always)]
    pub fn count(_counter: Counter, _n: u64) {}

    /// Always returns an empty report without the `prof` feature.
    #[inline(always)]
    pub fn take() -> ProfReport {
        ProfReport::default()
    }
}

pub use imp::{count, enter, take, Guard};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_starts_empty_and_merges() {
        let mut a = ProfReport::default();
        assert!(a.is_empty());
        let mut b = ProfReport::default();
        b.secs[0] = 1.5;
        b.secs[3] = 0.5;
        a.merge(&b);
        a.merge(&b);
        assert!((a.total_secs() - 4.0).abs() < 1e-12);
        assert!((a.get(Phase::SmIssue) - 3.0).abs() < 1e-12);
        assert!((a.get(Phase::Dram) - 1.0).abs() < 1e-12);
        b.counts[Counter::SmVisitsSkipped as usize] = 3;
        a.merge(&b);
        assert_eq!(a.count(Counter::SmVisitsSkipped), 3);
    }

    #[test]
    fn json_has_all_phase_keys() {
        let r = ProfReport::default();
        let j = r.to_json();
        for p in Phase::ALL {
            assert!(j.contains(p.name()), "{j} missing {}", p.name());
        }
        for c in Counter::ALL {
            assert!(j.contains(c.name()), "{j} missing {}", c.name());
        }
    }

    #[test]
    fn enter_take_roundtrip() {
        // Without the `prof` feature this exercises the no-op path; with it,
        // the real accumulator. Either way take() leaves a clean slate.
        {
            let _outer = enter(Phase::Slice);
            let _inner = enter(Phase::FuncMem);
        }
        count(Counter::SmVisitsSkipped, 2);
        let first = take();
        let second = take();
        assert!(second.is_empty(), "take must reset the accumulator");
        if cfg!(feature = "prof") {
            assert!(first.total_secs() >= 0.0);
            assert_eq!(first.count(Counter::SmVisitsSkipped), 2);
        } else {
            assert!(first.is_empty());
        }
    }
}
