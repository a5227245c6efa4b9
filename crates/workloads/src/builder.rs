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
//! Because every option funnels through the builder, checkpoint/resume
//! lands in exactly one place: attach a [`CheckpointPolicy`] and
//! [`SimRun::run`] transparently pauses every `every` cycles, parks the
//! serialized [`Checkpoint`] in the policy's directory (atomic
//! write-then-rename), and — when a matching checkpoint is already on disk,
//! e.g. after a killed sweep — resumes from it instead of starting at cycle
//! 0. The bit-identical restore guarantee of
//! [`Simulator::resume`](lazydram_gpu::Simulator::resume) makes the
//! recovery invisible in the results.
//!
//! Trace capture is one more builder option: [`SimBuilder::trace`] records
//! the coalesced request stream at the NoC→MC boundary into
//! [`RunResult::trace`], the input of the single-trace
//! [`TraceSim`](lazydram_gpu::TraceSim) tools. Sweeps never replay traces;
//! every sweep cell runs execution-driven.

use crate::suite::AppSpec;
use lazydram_common::snap::digest;
use lazydram_common::{BackendKind, DramPreset, GpuConfig, SchedConfig, Scheme};
use lazydram_gpu::{Checkpoint, Kernel, RunOutcome, RunResult, SimLimits, Simulator, SnapResult};
use std::path::PathBuf;

/// Default checkpoint interval in core cycles when `LAZYDRAM_CHECKPOINT_DIR`
/// is set without `LAZYDRAM_CHECKPOINT_EVERY`.
///
/// Large enough that serialization is a rounding error next to simulation
/// (well under the 5 % overhead budget), small enough that a killed
/// multi-minute sweep loses at most a modest slice of work.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 5_000_000;

/// Parses a `LAZYDRAM_CHECKPOINT_EVERY` value: a positive cycle count.
///
/// Kept separate from [`CheckpointPolicy::from_env`] so the validation is
/// unit-testable, following the `parse_scale` pattern.
pub fn parse_checkpoint_every(s: &str) -> Result<u64, String> {
    match s.trim().parse::<u64>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "LAZYDRAM_CHECKPOINT_EVERY={s:?} is not a positive cycle count; \
             expected e.g. 100000 or 5000000"
        )),
    }
}

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
/// Kept separate from [`CachePolicy::from_env`] so the validation is
/// unit-testable, following the `parse_scale`/`parse_checkpoint_every` pattern.
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
        Self { dir: dir.into(), mode }
    }

    /// Builds the policy from `LAZYDRAM_CACHE_DIR` / `LAZYDRAM_CACHE_MODE`.
    /// Returns `Ok(None)` when caching is not requested (no directory, or an
    /// explicit `LAZYDRAM_CACHE_MODE=off`), and an error (never a silent
    /// fallback) when the variables are malformed — including a non-`off`
    /// `LAZYDRAM_CACHE_MODE` without a directory, which would otherwise be
    /// dead configuration.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn from_env() -> Result<Option<Self>, String> {
        Self::resolve(
            std::env::var("LAZYDRAM_CACHE_DIR").ok(),
            std::env::var("LAZYDRAM_CACHE_MODE").ok(),
        )
    }

    /// [`CachePolicy::from_env`] over explicit variable values (the
    /// unit-testable core — tests cannot mutate the process environment
    /// safely under the parallel test harness).
    fn resolve(dir: Option<String>, mode: Option<String>) -> Result<Option<Self>, String> {
        let dir = dir.filter(|s| !s.trim().is_empty());
        let mode = match mode {
            Some(s) => Some(parse_cache_mode(&s)?),
            None => None,
        };
        match (dir, mode) {
            (_, Some(CacheMode::Off)) | (None, None) => Ok(None),
            (None, Some(m)) => Err(format!(
                "LAZYDRAM_CACHE_MODE={m:?} is set but LAZYDRAM_CACHE_DIR is not; \
                 set the directory too (or unset the mode)"
            )),
            (Some(d), mode) => Ok(Some(Self::new(d, mode.unwrap_or(CacheMode::Auto)))),
        }
    }

    /// [`CachePolicy::from_env`], panicking on malformed variables (matching
    /// the checkpoint-policy handling: a loud error beats a silently
    /// uncached — or silently wrongly-keyed — overnight sweep).
    pub fn from_env_or_die() -> Option<Self> {
        Self::from_env().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Where and how often [`SimRun::run`] checkpoints a simulation.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory holding one `.ckpt` file per `(app, scheme, config)` run.
    pub dir: PathBuf,
    /// Checkpoint interval in core cycles.
    pub every: u64,
}

impl CheckpointPolicy {
    /// A policy writing to `dir` every `every` core cycles.
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        Self { dir: dir.into(), every: every.max(1) }
    }

    /// Builds the policy from `LAZYDRAM_CHECKPOINT_DIR` /
    /// `LAZYDRAM_CHECKPOINT_EVERY`. Returns `Ok(None)` when checkpointing is
    /// not requested, and an error (never a silent fallback) when the
    /// variables are malformed — including `LAZYDRAM_CHECKPOINT_EVERY`
    /// without a directory, which would otherwise be dead configuration.
    pub fn from_env() -> Result<Option<Self>, String> {
        let dir = std::env::var("LAZYDRAM_CHECKPOINT_DIR")
            .ok()
            .filter(|s| !s.trim().is_empty());
        let every = std::env::var("LAZYDRAM_CHECKPOINT_EVERY").ok();
        match (dir, every) {
            (None, None) => Ok(None),
            (None, Some(e)) => Err(format!(
                "LAZYDRAM_CHECKPOINT_EVERY={e:?} is set but LAZYDRAM_CHECKPOINT_DIR is not; \
                 set the directory too (or unset the interval)"
            )),
            (Some(d), every) => {
                let every = match every {
                    Some(s) => parse_checkpoint_every(&s)?,
                    None => DEFAULT_CHECKPOINT_EVERY,
                };
                Ok(Some(Self::new(d, every)))
            }
        }
    }

    /// [`CheckpointPolicy::from_env`], panicking on malformed variables
    /// (matching `scale_from_env` / `jobs` handling: a loud error beats a
    /// silently un-checkpointed overnight sweep).
    pub fn from_env_or_die() -> Option<Self> {
        Self::from_env().unwrap_or_else(|e| panic!("{e}"))
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
    skip: Option<bool>,
    compute_skip: Option<bool>,
    dormancy: bool,
    checkpoints: Option<CheckpointPolicy>,
}

impl SimBuilder {
    /// Starts a builder for `app` with the defaults every harness shares:
    /// baseline scheme, default GPU, scale 1.0, default safety limits, no
    /// trace capture, cycle skipping, compute skipping and dormancy on.
    pub fn new(app: &AppSpec) -> Self {
        Self {
            app: app.clone(),
            cfg: GpuConfig::default(),
            sched: SchedConfig::baseline(),
            label: Scheme::Baseline.label().to_string(),
            scale: 1.0,
            limits: SimLimits::default(),
            trace: false,
            skip: None,
            compute_skip: None,
            dormancy: true,
            checkpoints: None,
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
    /// (geometry + timing package + backend model together).
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

    /// Turns the event-driven fast-forward on or off (default: on).
    pub fn cycle_skipping(mut self, enabled: bool) -> Self {
        self.skip = Some(enabled);
        self
    }

    /// Turns the analytic compute-burst fast-forward on or off (default:
    /// on). Only meaningful while cycle skipping itself is enabled: with
    /// skipping off entirely, the master loop never consults the SM
    /// schedule analytically.
    pub fn compute_skipping(mut self, enabled: bool) -> Self {
        self.compute_skip = Some(enabled);
        self
    }

    /// Turns dormancy on or off (default: on): whether executed cycles skip
    /// SMs that are not due and controller passes that cannot issue (see
    /// [`Simulator::with_dormancy`]). Results and checkpoints are identical
    /// either way.
    pub fn dormancy(mut self, enabled: bool) -> Self {
        self.dormancy = enabled;
        self
    }

    /// Attaches a periodic checkpoint policy; `None` disables checkpointing.
    pub fn checkpoints(mut self, policy: Option<CheckpointPolicy>) -> Self {
        self.checkpoints = policy;
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
    /// proven result-invariant by the bit-identity suites (`cycle_skipping`,
    /// `compute_skipping`, `dormancy`, trace capture), so the result store keyed on this digest
    /// serves hits across them. The checkpoint tag (which guards *trajectory*
    /// resumption, not results) keeps including them.
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
        // The checkpoint filename tag must change whenever *any* knob that
        // affects the trajectory changes, so a stale file from a different
        // sweep can never be resumed by accident (resume would reject it
        // anyway; the tag avoids even attempting it). Dormancy leaves the
        // checkpoint bytes unchanged, so it stays out of the tag.
        let tag = digest(
            format!(
                "{}|{}|{:x}|{:?}|{:?}|{:?}|{}|{:?}|{:?}",
                self.app.name,
                self.label,
                self.scale.to_bits(),
                self.cfg,
                self.sched,
                self.limits,
                self.trace,
                self.skip,
                self.compute_skip
            )
            .as_bytes(),
        );
        let backend = self.cfg.backend;
        let mut sim = Simulator::new(self.cfg, self.sched)
            .with_limits(self.limits)
            .with_trace_capture(self.trace)
            .with_dormancy(self.dormancy);
        if let Some(skip) = self.skip {
            sim = sim.with_cycle_skipping(skip);
        }
        if let Some(compute_skip) = self.compute_skip {
            sim = sim.with_compute_skipping(compute_skip);
        }
        SimRun {
            app: self.app,
            scale: self.scale,
            label: self.label,
            backend,
            checkpoints: self.checkpoints,
            tag,
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
    backend: BackendKind,
    checkpoints: Option<CheckpointPolicy>,
    tag: u64,
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

    /// The memory-backend model this run's controllers use (the energy
    /// model picks its technology profile from this).
    pub fn backend(&self) -> BackendKind {
        self.backend
    }

    fn launches(&self) -> Vec<Box<dyn Kernel>> {
        self.app.launches(self.scale)
    }

    /// The application's exact functional output at this scale (the
    /// application-error reference).
    pub fn exact_output(&self) -> Vec<f32> {
        crate::suite::exact_output(&self.app, self.scale)
    }

    /// Runs to completion. With a [`CheckpointPolicy`] attached this is the
    /// crash-recoverable path (resumes a parked checkpoint, then pauses and
    /// re-parks every `every` cycles); IO errors panic — use
    /// [`SimRun::run_recoverable`] to handle them.
    pub fn run(&self) -> RunResult {
        self.run_recoverable().unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`SimRun::run`], surfacing checkpoint-IO failures as `Err` instead
    /// of panicking (the sweep runner turns them into `FAIL` rows).
    pub fn run_recoverable(&self) -> Result<RunResult, String> {
        match &self.checkpoints {
            None => Ok(self.sim.run_sequence(&mut self.launches())),
            Some(policy) => self.run_with_checkpoints(policy),
        }
    }

    /// Runs until `pause_at` total core cycles, returning either the
    /// finished result or a resumable [`Checkpoint`].
    pub fn run_until(&self, pause_at: u64) -> RunOutcome {
        self.sim.run_sequence_until(&mut self.launches(), pause_at)
    }

    /// Resumes a checkpoint to completion.
    pub fn resume(&self, ck: &Checkpoint) -> SnapResult<RunResult> {
        self.sim.resume_sequence(&mut self.launches(), ck)
    }

    /// Resumes a checkpoint until `pause_at` total core cycles.
    pub fn resume_until(&self, ck: &Checkpoint, pause_at: u64) -> SnapResult<RunOutcome> {
        self.sim.resume_sequence_until(&mut self.launches(), ck, pause_at)
    }

    /// Labeled `(field path, value)` dump of a checkpoint's full state —
    /// the component-level diff source for `dbg_diverge`.
    pub fn checkpoint_fields(&self, ck: &Checkpoint) -> SnapResult<Vec<(String, String)>> {
        self.sim.checkpoint_fields_sequence(&mut self.launches(), ck)
    }

    /// The `.ckpt` file this run parks its state in, when a policy is set.
    pub fn checkpoint_path(&self) -> Option<PathBuf> {
        self.checkpoints.as_ref().map(|p| {
            let clean: String = format!("{}-{}", self.app.name, self.label)
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '.' { c } else { '_' })
                .collect();
            p.dir.join(format!("{clean}-{:016x}.ckpt", self.tag))
        })
    }

    fn run_with_checkpoints(&self, policy: &CheckpointPolicy) -> Result<RunResult, String> {
        std::fs::create_dir_all(&policy.dir).map_err(|e| {
            format!("cannot create LAZYDRAM_CHECKPOINT_DIR {}: {e}", policy.dir.display())
        })?;
        let path = self.checkpoint_path().expect("policy is set");
        let mut ck: Option<Checkpoint> = None;
        let mut from_disk = false;
        if let Ok(bytes) = std::fs::read(&path) {
            match Checkpoint::from_bytes(bytes) {
                Ok(c) => {
                    ck = Some(c);
                    from_disk = true;
                }
                Err(e) => eprintln!(
                    "ignoring unreadable checkpoint {} ({e}); restarting from cycle 0",
                    path.display()
                ),
            }
        }
        loop {
            let at = ck.as_ref().map_or(0, Checkpoint::cycle);
            let target = (at / policy.every + 1) * policy.every;
            let outcome = match &ck {
                None => Ok(self.run_until(target)),
                Some(c) => self.resume_until(c, target),
            };
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) if from_disk => {
                    // A parked checkpoint from an older sweep that no longer
                    // matches this run is not a failure of *this* job.
                    eprintln!(
                        "checkpoint {} does not match this run ({e}); restarting from cycle 0",
                        path.display()
                    );
                    ck = None;
                    from_disk = false;
                    continue;
                }
                Err(e) => return Err(format!("resume from checkpoint failed: {e}")),
            };
            from_disk = false;
            match outcome {
                RunOutcome::Done(r) => return Ok(r),
                RunOutcome::Paused(c) => {
                    // Atomic park: a crash mid-write leaves the previous
                    // (complete) checkpoint in place, never a torn file.
                    // The final checkpoint is deliberately kept after
                    // completion, so re-running a finished sweep only
                    // replays the last partial interval.
                    let tmp = path.with_extension("ckpt.tmp");
                    std::fs::write(&tmp, c.as_bytes())
                        .and_then(|()| std::fs::rename(&tmp, &path))
                        .map_err(|e| {
                            format!("cannot write checkpoint {}: {e}", path.display())
                        })?;
                    ck = Some(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn parse_checkpoint_every_accepts_positive_counts() {
        assert_eq!(parse_checkpoint_every("1"), Ok(1));
        assert_eq!(parse_checkpoint_every(" 500000 "), Ok(500_000));
    }

    #[test]
    fn parse_checkpoint_every_rejects_garbage_and_zero() {
        for bad in ["0", "-5", "1e6", "many", ""] {
            let err = parse_checkpoint_every(bad).unwrap_err();
            assert!(err.contains("positive cycle count"), "{err}");
        }
    }

    #[test]
    fn checkpoint_paths_are_distinct_and_filesystem_safe() {
        let app = crate::suite::by_name("SCP").expect("app");
        let policy = Some(CheckpointPolicy::new("ckpts", 1000));
        let a = SimBuilder::new(&app)
            .scheme(Scheme::DynCombo)
            .checkpoints(policy.clone())
            .build();
        let b = SimBuilder::new(&app)
            .scheme(Scheme::DynCombo)
            .scale(0.5)
            .checkpoints(policy.clone())
            .build();
        let c = SimBuilder::new(&app)
            .sched(SchedConfig::dyn_combo(), "Dyn-DMS+Dyn-AMS")
            .checkpoints(policy)
            .build();
        let (pa, pb, pc) = (
            a.checkpoint_path().unwrap(),
            b.checkpoint_path().unwrap(),
            c.checkpoint_path().unwrap(),
        );
        // Same knobs through scheme() or sched() agree; a scale change does not.
        assert_eq!(pa, pc);
        assert_ne!(pa, pb);
        let name = pa.file_name().unwrap().to_str().unwrap();
        assert!(name.ends_with(".ckpt"));
        assert!(
            name.chars().all(|ch| ch.is_ascii_alphanumeric() || ch == '-' || ch == '.' || ch == '_'),
            "unsafe checkpoint file name {name:?}"
        );
    }

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
    fn cache_policy_resolution_is_strict() {
        let some = |s: &str| Some(s.to_string());
        // Not requested at all, or explicitly off.
        assert!(CachePolicy::resolve(None, None).unwrap().is_none());
        assert!(CachePolicy::resolve(some("  "), None).unwrap().is_none());
        assert!(CachePolicy::resolve(some("/tmp/c"), some("off")).unwrap().is_none());
        assert!(CachePolicy::resolve(None, some("off")).unwrap().is_none());
        // Directory alone defaults to auto; explicit modes stick.
        let p = CachePolicy::resolve(some("/tmp/c"), None).unwrap().unwrap();
        assert_eq!((p.dir.as_path(), p.mode), (Path::new("/tmp/c"), CacheMode::Auto));
        let p = CachePolicy::resolve(some("/tmp/c"), some("REQUIRE")).unwrap().unwrap();
        assert_eq!(p.mode, CacheMode::Require);
        // Dead configuration and garbage fail loudly, never silently.
        let err = CachePolicy::resolve(None, some("auto")).unwrap_err();
        assert!(err.contains("LAZYDRAM_CACHE_DIR is not"), "{err}");
        let err = CachePolicy::resolve(some("/tmp/c"), some("cached")).unwrap_err();
        assert!(err.contains("not a cache mode"), "{err}");
    }

    #[test]
    fn cell_digest_tracks_results_not_speed_knobs() {
        let app = crate::suite::by_name("SCP").expect("app");
        let base = SimBuilder::new(&app).scheme(Scheme::DynCombo);
        let d = base.clone().cell_digest();
        // Result-invariant knobs (proven by the bit-identity suites) do not
        // split the cache namespace…
        assert_eq!(d, base.clone().cycle_skipping(false).cell_digest());
        assert_eq!(d, base.clone().compute_skipping(false).cell_digest());
        assert_eq!(d, base.clone().dormancy(false).cell_digest());
        assert_eq!(d, base.clone().trace(true).cell_digest());
        // …while anything that changes the measured results does.
        assert_ne!(d, base.clone().scale(0.5).cell_digest());
        assert_ne!(d, base.clone().scheme(Scheme::StaticDms).cell_digest());
        assert_ne!(
            d,
            base.clone()
                .gpu(GpuConfig { pending_queue_size: 16, ..GpuConfig::default() })
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
        assert_eq!(parse_backend("Naive"), Ok(DramPreset::Naive));
        // The retired ddr4/lpddr4/flex presets must fail, not fall back.
        for bad in ["", "gddr6", "naive,hbm1", "1", "ddr4", "lpddr4", "flex"] {
            let err = parse_backend(bad).unwrap_err();
            assert!(err.contains("not a DRAM backend preset"), "{err}");
            assert!(
                err.ends_with("expected one of: gddr5, hbm1, hbm2, naive"),
                "must list the four labels: {err}"
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
        let run = base.preset(DramPreset::Naive).build();
        assert_eq!(run.backend(), BackendKind::Naive);
    }

    #[test]
    fn builder_runs_without_checkpoints() {
        let app = crate::suite::by_name("SCP").expect("app");
        let run = SimBuilder::new(&app).scale(0.02).build();
        assert!(run.checkpoint_path().is_none());
        let r = run.run();
        assert!(r.stats.core_cycles > 0);
        assert_eq!(r.output, run.exact_output());
    }
}
