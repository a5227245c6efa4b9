//! [`SimBuilder`] — the one front door for running an application on the
//! timed simulator.
//!
//! Every consumer (figure harness, debug binary, example, CLI, test) builds
//! runs the same way:
//!
//! ```no_run
//! use lazydram_common::Scheme;
//! use lazydram_workloads::{by_name, SimBuilder};
//!
//! let app = by_name("GEMM").expect("known app");
//! let run = SimBuilder::new(&app).scheme(Scheme::DynCombo).scale(0.5).build();
//! let result = run.run();
//! println!("IPC {:.2}", result.stats.ipc());
//! ```
//!
//! [`SimRun::run_until`] pauses a run at any cycle and returns the
//! [`Checkpoint`](lazydram_gpu::Checkpoint) dump of its state there. The
//! dump is write-only: `dbg_diverge` compares dumps of two configurations
//! taken by fresh runs from cycle 0, and nothing resumes from one. A killed
//! sweep recovers through the result store, which re-runs only the cells
//! it never published.
//!
//! Trace capture is one more builder option: [`SimBuilder::trace`] records
//! the coalesced request stream at the NoC→MC boundary into
//! [`RunResult::trace`], an in-memory stream that the open-loop
//! [`TraceSim`](lazydram_gpu::TraceSim) can replay. Nothing reports a
//! replayed result: every sweep cell and CLI result runs execution-driven.

use crate::suite::AppSpec;
use lazydram_common::snap::digest;
use lazydram_common::{DramPreset, GpuConfig, SchedConfig, Scheme};
use lazydram_gpu::{Kernel, RunOutcome, RunResult, SimLimits, Simulator};
use std::path::PathBuf;

/// Parses a `LAZYDRAM_BACKEND` value: a (case-insensitive) [`DramPreset`]
/// label. A malformed value is a hard error naming the valid labels —
/// like `LAZYDRAM_CACHE_MODE`, never a silent fallback to the default
/// machine.
///
/// # Errors
///
/// Returns a message listing every valid label on anything else.
pub fn parse_backend(s: &str) -> Result<DramPreset, String> {
    DramPreset::by_label(s.trim()).ok_or_else(|| {
        format!(
            "LAZYDRAM_BACKEND={s:?} is not a DRAM backend preset; expected one of: {}",
            DramPreset::labels().join(", ")
        )
    })
}

/// What the content-addressed result store does on lookup and publish (the
/// `LAZYDRAM_CACHE_MODE` knob; the store itself lives in
/// `lazydram-bench::store`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Cache disabled even when `LAZYDRAM_CACHE_DIR` is set (an explicit
    /// escape hatch; unsetting the directory does the same).
    Off,
    /// Serve hits, simulate misses, publish the results — the default.
    Auto,
    /// Never simulate: a miss is a loud per-job error with a remediation
    /// hint (run once in `auto` mode to populate the store).
    Require,
    /// Never serve: re-simulate every cell and overwrite its entry
    /// (rebuild a store after a semantics bump, or distrust old entries).
    Refresh,
}

/// Parses a `LAZYDRAM_CACHE_MODE` value (case-insensitive: `off`, `auto`,
/// `require`, `refresh`).
///
/// Kept separate from the environment read so the validation is
/// unit-testable, following the `parse_scale` pattern.
///
/// # Errors
///
/// Returns a message naming the valid modes on anything else.
pub fn parse_cache_mode(s: &str) -> Result<CacheMode, String> {
    match s.trim().to_ascii_lowercase().as_str() {
        "off" => Ok(CacheMode::Off),
        "auto" => Ok(CacheMode::Auto),
        "require" => Ok(CacheMode::Require),
        "refresh" => Ok(CacheMode::Refresh),
        _ => Err(format!(
            "LAZYDRAM_CACHE_MODE={s:?} is not a cache mode; expected off, auto, require, \
             or refresh"
        )),
    }
}

/// Where the content-addressed result store lives and how it is used.
#[derive(Debug, Clone)]
pub struct CachePolicy {
    /// Directory holding one `.meas` entry per published cell.
    pub dir: PathBuf,
    /// Lookup/publish behavior.
    pub mode: CacheMode,
}

impl CachePolicy {
    /// A policy over `dir` in the given mode.
    pub fn new(dir: impl Into<PathBuf>, mode: CacheMode) -> Self {
        Self {
            dir: dir.into(),
            mode,
        }
    }
}

/// Builder for one `(application, scheme, machine)` simulation. See the
/// [module docs](self) for the role it plays.
#[derive(Clone)]
pub struct SimBuilder {
    app: AppSpec,
    cfg: GpuConfig,
    sched: SchedConfig,
    label: String,
    scale: f64,
    limits: SimLimits,
    trace: bool,
    reference_loop: bool,
}

impl SimBuilder {
    /// Starts a builder for `app` with the defaults every harness shares:
    /// baseline scheme, default GPU, scale 1.0, default safety limits, no
    /// trace capture, the fast loop.
    pub fn new(app: &AppSpec) -> Self {
        Self {
            app: app.clone(),
            cfg: GpuConfig::default(),
            sched: SchedConfig::baseline(),
            label: Scheme::Baseline.label().to_string(),
            scale: 1.0,
            limits: SimLimits::default(),
            trace: false,
            reference_loop: false,
        }
    }

    /// Selects one of the paper's named schemes (policy + label together).
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.sched = scheme.sched();
        self.label = scheme.label().to_string();
        self
    }

    /// Selects an off-menu scheduling policy (parameter sweeps) with an
    /// explicit display label, e.g. `DMS(256)`.
    pub fn sched(mut self, sched: SchedConfig, label: impl Into<String>) -> Self {
        self.sched = sched;
        self.label = label.into();
        self
    }

    /// Overrides the GPU/DRAM machine configuration.
    pub fn gpu(mut self, cfg: GpuConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Selects a named memory-technology preset from the backend matrix
    /// (geometry and timing package together).
    pub fn preset(self, preset: DramPreset) -> Self {
        self.gpu(preset.gpu_config())
    }

    /// Sets the work scale (1.0 = the paper's input sizes).
    pub fn scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Overrides the safety cycle limits.
    pub fn limits(mut self, limits: SimLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Enables request-trace capture into [`RunResult::trace`].
    pub fn trace(mut self, capture: bool) -> Self {
        self.trace = capture;
        self
    }

    /// Runs the reference loop instead of the fast one (default: off): every
    /// SM visited in every cycle (see
    /// [`Simulator::with_reference_loop`]). Results are identical either
    /// way; only wall clock differs.
    pub fn reference_loop(mut self, enabled: bool) -> Self {
        self.reference_loop = enabled;
        self
    }

    /// The application this builder runs.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// The scheme display label.
    pub fn scheme_label(&self) -> &str {
        &self.label
    }

    /// Content digest of this *cell*: everything that determines the
    /// simulation's results — app, scheme label, scale bits, machine config,
    /// scheduling policy, safety limits. Deliberately **excludes** the knobs
    /// proven result-invariant by the bit-identity suites (`reference_loop`,
    /// trace capture), so the result store keyed on this digest serves hits
    /// across them.
    pub fn cell_digest(&self) -> u64 {
        digest(
            format!(
                "{}|{}|{:x}|{:?}|{:?}|{:?}",
                self.app.name,
                self.label,
                self.scale.to_bits(),
                self.cfg,
                self.sched,
                self.limits,
            )
            .as_bytes(),
        )
    }

    /// Finalizes the configuration into a runnable [`SimRun`].
    pub fn build(self) -> SimRun {
        let preset = DramPreset::ALL
            .into_iter()
            .find(|p| p.gpu_config() == self.cfg);
        let sim = Simulator::new(self.cfg, self.sched)
            .with_limits(self.limits)
            .with_trace_capture(self.trace)
            .with_reference_loop(self.reference_loop);
        SimRun {
            app: self.app,
            scale: self.scale,
            label: self.label,
            preset,
            sim,
        }
    }
}

/// A fully configured simulation, ready to run (possibly several times —
/// every call builds fresh kernel launches, so runs are independent).
pub struct SimRun {
    app: AppSpec,
    scale: f64,
    label: String,
    preset: Option<DramPreset>,
    sim: Simulator,
}

impl SimRun {
    /// The application this run simulates.
    pub fn app(&self) -> &AppSpec {
        &self.app
    }

    /// The scheme display label.
    pub fn scheme_label(&self) -> &str {
        &self.label
    }

    /// The work scale.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The preset whose machine this run simulates, or `None` for a
    /// hand-built [`GpuConfig`] that equals no preset's
    /// [`DramPreset::gpu_config`]. The sweep's energy pricing picks its
    /// technology profile from this.
    pub fn preset(&self) -> Option<DramPreset> {
        self.preset
    }

    fn launches(&self) -> Vec<Box<dyn Kernel>> {
        self.app.launches(self.scale)
    }

    /// The application's exact functional output at this scale (the
    /// application-error reference).
    pub fn exact_output(&self) -> Vec<f32> {
        crate::suite::exact_output(&self.app, self.scale)
    }

    /// Runs to completion.
    pub fn run(&self) -> RunResult {
        self.sim.run_sequence(&mut self.launches())
    }

    /// Runs until `pause_at` total core cycles, returning either the
    /// finished result or the [`Checkpoint`](lazydram_gpu::Checkpoint) dump
    /// of the state there.
    pub fn run_until(&self, pause_at: u64) -> RunOutcome {
        self.sim.run_sequence_until(&mut self.launches(), pause_at)
    }

    /// [`SimRun::run_until`] whose dump also carries every field's label
    /// ([`Checkpoint::fields`](lazydram_gpu::Checkpoint::fields)).
    pub fn run_until_labelled(&self, pause_at: u64) -> RunOutcome {
        self.sim
            .run_sequence_until_labelled(&mut self.launches(), pause_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_cache_mode_accepts_known_modes() {
        assert_eq!(parse_cache_mode("off"), Ok(CacheMode::Off));
        assert_eq!(parse_cache_mode(" Auto "), Ok(CacheMode::Auto));
        assert_eq!(parse_cache_mode("REQUIRE"), Ok(CacheMode::Require));
        assert_eq!(parse_cache_mode("refresh"), Ok(CacheMode::Refresh));
    }

    #[test]
    fn parse_cache_mode_rejects_garbage() {
        for bad in ["", "on", "auto,require", "1", "rw"] {
            let err = parse_cache_mode(bad).unwrap_err();
            assert!(err.contains("off, auto, require, or refresh"), "{err}");
        }
    }

    #[test]
    fn cell_digest_tracks_results_not_speed_knobs() {
        let app = crate::suite::by_name("SCP").expect("app");
        let base = SimBuilder::new(&app).scheme(Scheme::DynCombo);
        let d = base.clone().cell_digest();
        // Result-invariant knobs (proven by the bit-identity suites) do not
        // split the cache namespace…
        assert_eq!(d, base.clone().reference_loop(true).cell_digest());
        assert_eq!(d, base.clone().trace(true).cell_digest());
        // …while anything that changes the measured results does.
        assert_ne!(d, base.clone().scale(0.5).cell_digest());
        assert_ne!(d, base.clone().scheme(Scheme::StaticDms).cell_digest());
        assert_ne!(
            d,
            base.clone()
                .gpu(GpuConfig {
                    pending_queue_size: 16,
                    ..GpuConfig::default()
                })
                .cell_digest()
        );
        // scheme() and an equivalent sched() agree (same policy, same label).
        assert_eq!(
            d,
            SimBuilder::new(&app)
                .sched(SchedConfig::dyn_combo(), "Dyn-DMS+Dyn-AMS")
                .cell_digest()
        );
    }

    #[test]
    fn parse_backend_is_strict() {
        assert_eq!(parse_backend("gddr5"), Ok(DramPreset::Gddr5));
        assert_eq!(parse_backend(" HBM2 "), Ok(DramPreset::Hbm2));
        assert_eq!(parse_backend("Hbm1"), Ok(DramPreset::Hbm1));
        // The retired ddr4/lpddr4/flex/naive presets must fail, not fall back.
        for bad in [
            "",
            "gddr6",
            "hbm2,hbm1",
            "1",
            "ddr4",
            "lpddr4",
            "flex",
            "naive",
        ] {
            let err = parse_backend(bad).unwrap_err();
            assert!(err.contains("not a DRAM backend preset"), "{err}");
            assert!(
                err.ends_with("expected one of: gddr5, hbm1, hbm2"),
                "must list the three labels: {err}"
            );
        }
    }

    #[test]
    fn preset_splits_the_cell_namespace() {
        let app = crate::suite::by_name("SCP").expect("app");
        let base = SimBuilder::new(&app).scheme(Scheme::DynCombo);
        let d = base.clone().cell_digest();
        // The default preset is the default machine…
        assert_eq!(d, base.clone().preset(DramPreset::Gddr5).cell_digest());
        // …and every other backend keys its own cells.
        let mut seen = vec![d];
        for p in DramPreset::ALL.into_iter().skip(1) {
            let dp = base.clone().preset(p).cell_digest();
            assert!(!seen.contains(&dp), "{p} must not collide");
            seen.push(dp);
        }
        // A run knows its preset; a hand-built machine matches none.
        assert_eq!(
            base.clone().preset(DramPreset::Hbm1).build().preset(),
            Some(DramPreset::Hbm1)
        );
        let odd = GpuConfig {
            pending_queue_size: 16,
            ..GpuConfig::default()
        };
        assert_eq!(base.gpu(odd).build().preset(), None);
    }

    #[test]
    fn builder_runs_to_completion() {
        let app = crate::suite::by_name("SCP").expect("app");
        let run = SimBuilder::new(&app).scale(0.02).build();
        let r = run.run();
        assert!(r.stats.core_cycles > 0);
        assert_eq!(r.output, run.exact_output());
    }
}
