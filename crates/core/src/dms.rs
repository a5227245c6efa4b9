//! The Delayed-Memory-Scheduling (DMS) unit — Section IV-B of the paper.
//!
//! DMS gates the opening of *new rows*: a row-miss request may trigger
//! PRE/ACT only once the **oldest** request in the pending queue has aged at
//! least `X` memory cycles. Row hits are never delayed.
//!
//! `Static-DMS` keeps `X` fixed. `Dyn-DMS` is a profiling controller: at the
//! start of every macro-period it samples the baseline bandwidth utilization
//! (BWUTIL) with the delay forced to zero (and AMS temporarily halted), then
//! raises the delay in steps per window while BWUTIL stays within 95 % of the
//! baseline, backing off one step when it drops.

use lazydram_common::config::{DmsMode, DynDmsConfig};
use lazydram_common::snap::Saver;

/// Phase of the `Dyn-DMS` profiling state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Measuring baseline BWUTIL with delay = 0 (AMS halted).
    Sampling,
    /// Raising the delay step by step.
    Searching,
    /// Found the knee; holding the recorded delay until restart.
    Holding,
}

/// The DMS unit of one memory controller.
#[derive(Debug, Clone, PartialEq)]
pub struct DmsUnit {
    mode: DmsMode,
    /// Delay currently enforced, in memory cycles.
    current: u32,
    /// Dynamic state (meaningful only for [`DmsMode::Dynamic`]).
    phase: Phase,
    /// Baseline BWUTIL sampled in the current macro-period.
    baseline_bw: f64,
    /// Last delay that kept BWUTIL above threshold ("recorded X").
    recorded: u32,
    /// Windows elapsed in the current macro-period.
    windows_in_period: u32,
    /// Memory cycle at which the current window started.
    window_start: u64,
    /// `bus_busy_cycles` snapshot at window start.
    busy_at_window_start: u64,
}

impl DmsUnit {
    /// Creates the unit for a scheduling mode.
    pub fn new(mode: DmsMode) -> Self {
        let (current, recorded, phase) = match mode {
            DmsMode::Off => (0, 0, Phase::Holding),
            DmsMode::Static(x) => (x, x, Phase::Holding),
            DmsMode::Dynamic(d) => (0, d.start, Phase::Sampling),
        };
        Self {
            mode,
            current,
            phase,
            baseline_bw: 0.0,
            recorded,
            windows_in_period: 0,
            window_start: 0,
            busy_at_window_start: 0,
        }
    }

    /// The delay `X` currently in force, in memory cycles.
    pub fn current_delay(&self) -> u32 {
        self.current
    }

    /// `true` while `Dyn-DMS` is sampling its baseline; the AMS unit must be
    /// halted during this window so the baseline is unpolluted (Section IV-B).
    pub fn sampling_baseline(&self) -> bool {
        matches!(self.mode, DmsMode::Dynamic(_)) && self.phase == Phase::Sampling
    }

    /// May a new row be opened at `now`, given the age of the oldest pending
    /// request? Row hits must *not* consult this.
    pub fn row_miss_allowed(&self, oldest_age: u64) -> bool {
        oldest_age >= u64::from(self.current)
    }

    /// Advances profiling; call once per memory cycle with the running
    /// `bus_busy_cycles` counter of the channel.
    pub fn tick(&mut self, now: u64, bus_busy_cycles: u64) {
        let DmsMode::Dynamic(cfg) = self.mode else {
            return;
        };
        if now.saturating_sub(self.window_start) < u64::from(cfg.window) {
            return;
        }
        // Window boundary.
        let window_len = now - self.window_start;
        let busy = bus_busy_cycles.saturating_sub(self.busy_at_window_start);
        let bw = busy as f64 / window_len.max(1) as f64;
        self.window_start = now;
        self.busy_at_window_start = bus_busy_cycles;
        self.windows_in_period += 1;

        if self.windows_in_period >= cfg.restart_windows {
            // Restart: re-sample the baseline, then search again starting
            // from the recorded delay (quick settling, Section IV-B).
            self.windows_in_period = 0;
            self.phase = Phase::Sampling;
            self.current = 0;
            return;
        }

        match self.phase {
            Phase::Sampling => {
                self.baseline_bw = bw;
                self.phase = Phase::Searching;
                self.current = self.recorded.clamp(cfg.min, cfg.max);
            }
            Phase::Searching => {
                if bw + 1e-12 >= cfg.bw_threshold * self.baseline_bw {
                    // This delay is fine; record it and push further.
                    self.recorded = self.current;
                    if self.current >= cfg.max {
                        self.phase = Phase::Holding;
                    } else {
                        self.current = (self.current + cfg.step).min(cfg.max);
                    }
                } else {
                    // Dropped below threshold: back off to the last good value
                    // and hold until the next restart.
                    self.current = self.current.saturating_sub(cfg.step).max(cfg.min);
                    self.recorded = self.current;
                    self.phase = Phase::Holding;
                }
            }
            Phase::Holding => {}
        }
    }

    /// The absolute memory cycle of the next `Dyn-DMS` window boundary
    /// (where [`DmsUnit::tick`] stops being a no-op), or `None` for the
    /// static/off modes whose `tick` never does anything. A sleeping
    /// controller wakes no later than this cycle.
    pub fn next_window_boundary(&self) -> Option<u64> {
        match self.mode {
            DmsMode::Dynamic(cfg) => Some(self.window_start + u64::from(cfg.window)),
            _ => None,
        }
    }

    /// Serializes the unit's dynamic state (the mode is configuration and
    /// is not written).
    pub fn save_state(&self, s: &mut Saver) {
        s.u32("current", self.current);
        s.u8(
            "phase",
            match self.phase {
                Phase::Sampling => 0,
                Phase::Searching => 1,
                Phase::Holding => 2,
            },
        );
        s.f64("baseline_bw", self.baseline_bw);
        s.u32("recorded", self.recorded);
        s.u32("windows_in_period", self.windows_in_period);
        s.u64("window_start", self.window_start);
        s.u64("busy_at_window_start", self.busy_at_window_start);
    }

    /// Dynamic configuration, if the unit is dynamic.
    pub fn dynamic_config(&self) -> Option<DynDmsConfig> {
        match self.mode {
            DmsMode::Dynamic(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_never_delays() {
        let d = DmsUnit::new(DmsMode::Off);
        assert_eq!(d.current_delay(), 0);
        assert!(d.row_miss_allowed(0));
        assert!(!d.sampling_baseline());
    }

    #[test]
    fn static_gate_respects_age() {
        let d = DmsUnit::new(DmsMode::Static(128));
        assert!(!d.row_miss_allowed(0));
        assert!(!d.row_miss_allowed(127));
        assert!(d.row_miss_allowed(128));
    }

    #[test]
    fn dynamic_starts_sampling_with_zero_delay() {
        let d = DmsUnit::new(DmsMode::paper_dynamic());
        assert!(d.sampling_baseline());
        assert_eq!(d.current_delay(), 0);
    }

    /// Drives a `DmsUnit` through whole windows with a synthetic BWUTIL
    /// response: utilization stays high until the delay exceeds `knee`,
    /// then halves. Keeps absolute time across calls.
    struct WindowDriver {
        now: u64,
        busy: u64,
    }

    impl WindowDriver {
        fn new() -> Self {
            Self { now: 0, busy: 0 }
        }

        fn run(&mut self, d: &mut DmsUnit, windows: u32, knee: u32) -> Vec<u32> {
            let cfg = d.dynamic_config().unwrap();
            let mut delays = Vec::new();
            for _ in 0..windows {
                let bw = if d.current_delay() <= knee { 0.8 } else { 0.4 };
                self.now += u64::from(cfg.window);
                self.busy += (bw * f64::from(cfg.window)) as u64;
                d.tick(self.now, self.busy);
                delays.push(d.current_delay());
            }
            delays
        }
    }

    #[test]
    fn dynamic_search_finds_knee_and_holds() {
        let mut d = DmsUnit::new(DmsMode::paper_dynamic());
        let delays = WindowDriver::new().run(&mut d, 10, 512);
        // Window 1 ends sampling → delay 128; then 256, 384, 512;
        // at 640 BW drops → back to 512 and hold.
        assert_eq!(delays[0], 128);
        assert!(delays.contains(&512));
        assert!(delays.iter().all(|&x| x <= 640));
        assert_eq!(*delays.last().unwrap(), 512);
        assert!(!d.sampling_baseline());
    }

    #[test]
    fn dynamic_caps_at_max() {
        let mut d = DmsUnit::new(DmsMode::paper_dynamic());
        let delays = WindowDriver::new().run(&mut d, 31, u32::MAX);
        assert_eq!(*delays.last().unwrap(), 2048);
    }

    #[test]
    fn dynamic_restarts_after_period() {
        let mut d = DmsUnit::new(DmsMode::paper_dynamic());
        let mut drv = WindowDriver::new();
        let delays = drv.run(&mut d, 32, 512);
        // After 32 windows the unit re-enters sampling with delay 0.
        assert_eq!(*delays.last().unwrap(), 0);
        assert!(d.sampling_baseline());
        // The next search starts from the recorded 512, not from scratch.
        let delays2 = drv.run(&mut d, 2, 512);
        assert_eq!(delays2[0], 512);
    }

    #[test]
    fn dynamic_backoff_floor_is_min() {
        let mut d = DmsUnit::new(DmsMode::Dynamic(DynDmsConfig {
            start: 128,
            ..DynDmsConfig::default()
        }));
        // BW immediately bad at any delay > 0 → first search window fails,
        // delay falls back to 0 (min) and holds.
        let delays = WindowDriver::new().run(&mut d, 3, 0);
        assert_eq!(*delays.last().unwrap(), 0);
    }
}
