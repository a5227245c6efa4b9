//! Parallel sweep runner with panic isolation.
//!
//! The full reproduction sweep runs hundreds of independent, deterministic
//! `(app × scheme)` simulations. This module fans them across a
//! [`std::thread::scope`] worker pool:
//!
//! * **Worker count** is set at construction; harnesses take it from
//!   `LAZYDRAM_JOBS` through [`RunEnv::runner`](crate::RunEnv::runner)
//!   (default: [`std::thread::available_parallelism`]). One worker
//!   reproduces the sequential run bit for bit. It is the only parallelism
//!   setting: each simulation runs on the one worker thread that picked up
//!   its job.
//! * **Determinism** — results are collected in submission order, so harness
//!   output is byte-identical regardless of worker count or completion
//!   order.
//! * **Panic isolation** — each job runs under
//!   [`std::panic::catch_unwind`]; one panicking simulation becomes a
//!   [`JobFailure`] (rendered by harnesses as a `FAIL` row) instead of
//!   killing the whole sweep.
//! * **Baseline sharing** — `(app, config, scale)` baseline measurements are
//!   computed once in a concurrent cache and shared across schemes, instead
//!   of once per figure as the sequential harnesses used to do. Each
//!   baseline carries the app's exact functional output (the
//!   application-error reference) as a lazy, shared [`ExactOutput`]: only a
//!   cell that simulates forces it, and at most once per runner. A sweep the
//!   result store serves entirely never runs an app functionally; a cold
//!   sweep computes each reference exactly once.
//! * **Observability** — per-job wall-clock timing and `[k/n]` progress
//!   lines on stderr, plus an optional JSONL results file
//!   (`LAZYDRAM_RESULTS=path`) with one schema-stable [`Measurement`]
//!   record per line for downstream plotting. Timing never enters the JSONL
//!   records, so result files from parallel and sequential runs are
//!   byte-identical.
//! * **Crash recovery** — through the result store: with a persistent
//!   `LAZYDRAM_CACHE_DIR`, re-running a killed sweep serves every cell it
//!   published and simulates only the rest, byte-identical to an
//!   uninterrupted sweep. A cell that was in flight restarts from cycle 0.
//! * **Result cache** — with `LAZYDRAM_CACHE_DIR` set (behavior via
//!   `LAZYDRAM_CACHE_MODE`: `auto` (default), `require`, `refresh`, `off`),
//!   every finished `(app × scheme × config)` cell is published to the
//!   content-addressed [`Store`](crate::store) and later sweeps — any
//!   harness, any process — serve it from disk instead of re-simulating.
//!   Cache hits are byte-identical to execution (the
//!   [`Measurement::cached`] provenance flag never enters stdout or the
//!   JSONL), flagged `[cache hit]` on the progress line, and tallied in the
//!   end-of-sweep summary. `require` turns a miss into a [`JobFailure`]
//!   with a remediation hint; `refresh` re-simulates and overwrites. See
//!   [`crate::store`] for the key structure and the lock-free multi-process
//!   publish protocol.
//! * **Execution-driven cells** — every cell the store does not serve runs
//!   the full GPU simulation. Open-loop trace replay drops the closed-loop
//!   feedback that DMS relies on (a held row-miss lets warps keep issuing),
//!   so it stays a single-trace tool ([`lazydram_gpu::TraceSim`]) and never
//!   stands in for a sweep cell.
//! * **End-of-sweep summary** — dropping the runner prints one stderr line
//!   (jobs run, failures, elapsed wall clock, cache counters, and how many
//!   exact-output references were computed), suppressed under
//!   `LAZYDRAM_QUIET` or when no jobs ran.

use crate::store::{Fidelity, Store};
use crate::{measure, Measurement};
use lazydram_common::json::JsonObject;
use lazydram_common::{GpuConfig, Scheme};
use lazydram_workloads::{exact_output, AppSpec, CacheMode, CachePolicy, SimBuilder};
use std::collections::HashMap;
use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Report for one job that panicked instead of producing a value.
#[derive(Debug, Clone)]
pub struct JobFailure {
    /// The job's display label.
    pub label: String,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} panicked: {}", self.label, self.message)
    }
}

/// Outcome of one isolated job.
pub type JobResult<T> = Result<T, JobFailure>;

type BoxedWork<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;
type NoteFn<'a, T> = Box<dyn Fn(&T) -> String + Send + 'a>;
/// A claimable job slot: the work closure plus its optional note formatter,
/// taken exactly once by whichever worker claims the index.
type JobSlot<'a, T> = Mutex<Option<(BoxedWork<'a, T>, Option<NoteFn<'a, T>>)>>;

/// One unit of work for [`SweepRunner::run`]: a label plus a closure.
pub struct Job<'a, T> {
    label: String,
    work: BoxedWork<'a, T>,
    note: Option<NoteFn<'a, T>>,
}

impl<'a, T> Job<'a, T> {
    /// Wraps a closure with a display label.
    pub fn new(label: impl Into<String>, work: impl FnOnce() -> T + Send + 'a) -> Self {
        Self {
            label: label.into(),
            work: Box::new(work),
            note: None,
        }
    }

    /// Adds an annotation rendered on the job's stderr progress line after a
    /// successful run (e.g. a cache hit).
    pub fn with_note(mut self, note: impl Fn(&T) -> String + Send + 'a) -> Self {
        self.note = Some(Box::new(note));
        self
    }
}

/// An app's exact functional output at one scale — the application-error
/// reference — computed on first dereference and shared by every clone.
///
/// Clones share one [`OnceLock`], so the reference is computed at most once
/// however many cells use it; concurrent first uses block on that single
/// computation. Nothing dereferences it until a cell actually simulates, so
/// cells served from the result store never pay for it.
#[derive(Clone)]
pub struct ExactOutput(Arc<LazyExact>);

struct LazyExact {
    app: AppSpec,
    scale: f64,
    output: OnceLock<Vec<f32>>,
}

impl ExactOutput {
    /// The (not yet computed) reference of `app` at `scale`.
    pub(crate) fn new(app: &AppSpec, scale: f64) -> Self {
        Self(Arc::new(LazyExact {
            app: app.clone(),
            scale,
            output: OnceLock::new(),
        }))
    }

    /// Whether the reference has been computed (through any clone).
    pub fn is_computed(&self) -> bool {
        self.0.output.get().is_some()
    }
}

impl std::ops::Deref for ExactOutput {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        let e = &self.0;
        e.output.get_or_init(|| exact_output(&e.app, e.scale))
    }
}

impl std::fmt::Debug for ExactOutput {
    /// The app, the scale and whether the reference is computed — never
    /// the vector itself.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExactOutput")
            .field("app", &self.0.app.name)
            .field("scale", &self.0.scale)
            .field("computed", &self.is_computed())
            .finish()
    }
}

/// A cached `(app, config, scale)` baseline: the measurement under
/// [`SchedConfig::baseline`](lazydram_common::SchedConfig::baseline) plus
/// the exact functional output shared by every scheme of that app.
#[derive(Debug)]
pub struct Baseline {
    /// Baseline measurement (scheme label `"baseline"`).
    pub measurement: Measurement,
    /// Exact functional output (application-error reference). Lazy: a
    /// baseline simulated here has forced it, but one served from the result
    /// store leaves it uncomputed until a simulating cell of the app needs
    /// it.
    pub exact: ExactOutput,
}

/// Everything needed to run one `(app, scheme)` measurement job: the fully
/// configured [`SimBuilder`] plus the app's shared exact output.
#[derive(Clone)]
pub struct MeasureSpec {
    /// The configured simulation (app, scheme, machine, scale, …).
    pub builder: SimBuilder,
    /// Exact output shared across the app's schemes. Only forced when this
    /// cell simulates; a cache hit never computes it.
    pub exact: ExactOutput,
}

impl MeasureSpec {
    /// Pairs a configured builder with its app's exact reference output.
    pub fn new(builder: SimBuilder, exact: ExactOutput) -> Self {
        Self { builder, exact }
    }
}

type BaselineKey = (String, u64, String);

/// Parallel sweep runner. See the [module docs](self) for the full design.
pub struct SweepRunner {
    workers: usize,
    quiet: bool,
    results: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    cache: Option<Store>,
    baselines: Mutex<HashMap<BaselineKey, Arc<OnceLock<Arc<Baseline>>>>>,
    jobs_run: AtomicU64,
    jobs_failed: AtomicU64,
    started: Instant,
}

/// Parses a `LAZYDRAM_JOBS` value: a positive worker count.
pub fn parse_jobs(s: &str) -> Result<usize, String> {
    match s.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "LAZYDRAM_JOBS={s:?} is not a positive worker count; expected e.g. 1, 4 or 8"
        )),
    }
}

/// Parses a `LAZYDRAM_QUIET` value: `1`/`true` silence the stderr progress
/// and summary lines, `0`/`false` keep them.
///
/// Kept separate from the env lookup so the validation is unit-testable.
pub fn parse_quiet(s: &str) -> Result<bool, String> {
    match s.trim() {
        "1" | "true" => Ok(true),
        "0" | "false" => Ok(false),
        _ => Err(format!(
            "LAZYDRAM_QUIET={s:?} is not a boolean; expected 1/true to silence the \
             progress lines or 0/false to keep them"
        )),
    }
}

impl SweepRunner {
    /// Builds a runner with an explicit worker count (≥ 1).
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            quiet: false,
            results: None,
            cache: None,
            baselines: Mutex::new(HashMap::new()),
            jobs_run: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Attaches (or clears) the content-addressed result cache: sweep cells
    /// consult the [`Store`] before simulating and publish finished
    /// measurements into it. A policy in [`CacheMode::Off`] detaches the
    /// cache entirely.
    ///
    /// # Panics
    ///
    /// Panics when the store directory cannot be created.
    pub fn with_cache(mut self, policy: Option<CachePolicy>) -> Self {
        self.cache = match policy {
            Some(p) if p.mode != CacheMode::Off => {
                Some(Store::open(&p.dir, p.mode).unwrap_or_else(|e| panic!("{e}")))
            }
            _ => None,
        };
        self
    }

    /// The attached result store, when caching is enabled.
    pub fn cache(&self) -> Option<&Store> {
        self.cache.as_ref()
    }

    /// Enables the JSONL results file (truncates `path`).
    ///
    /// # Panics
    ///
    /// Panics if the file cannot be created.
    pub fn with_results_file(mut self, path: impl AsRef<Path>) -> Self {
        let path = path.as_ref();
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("cannot create LAZYDRAM_RESULTS={path:?}: {e}"));
        self.results = Some(Mutex::new(std::io::BufWriter::new(file)));
        self
    }

    /// Suppresses the stderr progress and summary lines.
    pub fn quiet(mut self) -> Self {
        self.quiet = true;
        self
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// `(computed, baselines)`: how many of this runner's finished baselines
    /// have had their exact-output reference computed, out of all of them.
    pub fn references_computed(&self) -> (usize, usize) {
        // A read-only walk: a poisoned map still holds valid entries.
        let map = self
            .baselines
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let ready: Vec<&Arc<Baseline>> = map.values().filter_map(|cell| cell.get()).collect();
        (
            ready.iter().filter(|b| b.exact.is_computed()).count(),
            ready.len(),
        )
    }

    /// Runs `jobs` on the worker pool and returns their outcomes **in
    /// submission order**. A panicking job yields `Err(JobFailure)`; all
    /// other jobs are unaffected.
    pub fn run<T: Send>(&self, jobs: Vec<Job<'_, T>>) -> Vec<JobResult<T>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut labels = Vec::with_capacity(n);
        let mut slots: Vec<JobSlot<'_, T>> = Vec::with_capacity(n);
        for job in jobs {
            labels.push(job.label);
            slots.push(Mutex::new(Some((job.work, job.note))));
        }
        let results: Vec<Mutex<Option<JobResult<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let sweep_start = Instant::now();
        let workers = self.workers.min(n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let (work, note) = slots[i]
                        .lock()
                        .expect("job slot lock")
                        .take()
                        .expect("job taken once");
                    let job_start = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(work));
                    let elapsed = job_start.elapsed();
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    self.jobs_run.fetch_add(1, Ordering::Relaxed);
                    let (res, status, annotation) = match outcome {
                        Ok(v) => {
                            let a = note.as_ref().map_or_else(String::new, |f| f(&v));
                            (Ok(v), "ok", a)
                        }
                        Err(payload) => {
                            self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                            (
                                Err(JobFailure {
                                    label: labels[i].clone(),
                                    message: panic_message(payload.as_ref()),
                                }),
                                "FAILED",
                                String::new(),
                            )
                        }
                    };
                    if !self.quiet {
                        eprintln!(
                            "[{finished}/{n}] {label} {status} in {job:.1}s (elapsed {total:.1}s){annotation}",
                            label = labels[i],
                            job = elapsed.as_secs_f64(),
                            total = sweep_start.elapsed().as_secs_f64(),
                        );
                    }
                    *results[i].lock().expect("result slot lock") = Some(res);
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result lock")
                    .expect("every job ran")
            })
            .collect()
    }

    /// Computes (or returns the cached) baseline for `(app, cfg, scale)`.
    ///
    /// Concurrent callers of the same key block until the single
    /// computation finishes; different keys compute in parallel. The exact
    /// output is forced only when the baseline simulates; a store hit leaves
    /// it to the app's simulating cells, if any.
    pub fn baseline(&self, app: &AppSpec, cfg: &GpuConfig, scale: f64) -> Arc<Baseline> {
        let key: BaselineKey = (app.name.to_string(), scale.to_bits(), format!("{cfg:?}"));
        let cell = self
            .baselines
            .lock()
            .expect("baseline cache lock")
            .entry(key)
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone();
        cell.get_or_init(|| {
            let exact = ExactOutput::new(app, scale);
            let builder = SimBuilder::new(app)
                .gpu(cfg.clone())
                .scheme(Scheme::Baseline)
                .scale(scale);
            let measurement = self
                .measure_one(builder, &exact)
                .unwrap_or_else(|e| panic!("{e}"));
            Arc::new(Baseline { measurement, exact })
        })
        .clone()
    }

    /// Computes all apps' baselines **in parallel** (through the cache) and
    /// records them in the JSONL results file. Returns one outcome per app,
    /// in order.
    pub fn baselines(
        &self,
        apps: &[AppSpec],
        cfg: &GpuConfig,
        scale: f64,
    ) -> Vec<JobResult<Arc<Baseline>>> {
        let jobs = apps
            .iter()
            .map(|app| {
                Job::new(format!("{}/baseline", app.name), move || {
                    self.baseline(app, cfg, scale)
                })
                .with_note(|b: &Arc<Baseline>| cache_note(&b.measurement))
            })
            .collect();
        let results = self.run(jobs);
        for res in &results {
            match res {
                Ok(b) => self.record_measurement(&b.measurement),
                Err(f) => self.record_failure(f),
            }
        }
        self.flush_results();
        results
    }

    /// Runs every measurement spec on the pool, records the outcomes in the
    /// JSONL results file (submission order, so files are byte-identical
    /// across worker counts), and returns the outcomes in submission order.
    /// A cell that cannot be served (a `require`-mode store miss) becomes
    /// that job's [`JobFailure`] record.
    pub fn measure_all(&self, specs: Vec<MeasureSpec>) -> Vec<JobResult<Measurement>> {
        let labels: Vec<String> = specs
            .iter()
            .map(|s| format!("{}/{}", s.builder.app().name, s.builder.scheme_label()))
            .collect();
        let jobs = specs
            .into_iter()
            .zip(&labels)
            .map(|(spec, label)| {
                let MeasureSpec { builder, exact } = spec;
                Job::new(label.clone(), move || self.measure_one(builder, &exact)).with_note(
                    |r: &Result<Measurement, String>| match r {
                        Ok(m) => cache_note(m),
                        Err(_) => String::new(),
                    },
                )
            })
            .collect();
        let results: Vec<JobResult<Measurement>> = self
            .run(jobs)
            .into_iter()
            .zip(labels)
            .map(|(res, label)| match res {
                Ok(Ok(m)) => Ok(m),
                Ok(Err(message)) => {
                    self.jobs_failed.fetch_add(1, Ordering::Relaxed);
                    Err(JobFailure { label, message })
                }
                Err(f) => Err(f),
            })
            .collect();
        for res in &results {
            match res {
                Ok(m) => self.record_measurement(m),
                Err(f) => self.record_failure(f),
            }
        }
        self.flush_results();
        results
    }

    /// One sweep cell, execution-driven behind the result cache. `exact` is
    /// dereferenced (and so computed) only after the lookup missed.
    fn measure_one(&self, builder: SimBuilder, exact: &ExactOutput) -> Result<Measurement, String> {
        let key = Store::cell_key(builder.cell_digest(), Fidelity::Execute);
        if let Some(m) = self.cache_lookup(key, &builder)? {
            return Ok(m);
        }
        let m = measure(&builder.build(), exact);
        self.cache_publish(key, &m);
        Ok(m)
    }

    /// Consults the result store for one configured cell under its `key`.
    /// `Ok(Some)` is a hit (with [`Measurement::cached`] set); `Ok(None)`
    /// means simulate (store off, `refresh` mode, or a plain miss); `Err` is
    /// a `require`-mode miss with a remediation hint.
    fn cache_lookup(&self, key: u64, builder: &SimBuilder) -> Result<Option<Measurement>, String> {
        let Some(store) = &self.cache else {
            return Ok(None);
        };
        if store.mode() == CacheMode::Refresh {
            return Ok(None);
        }
        let app = builder.app().name;
        let scheme = builder.scheme_label();
        match store.lookup(key, app, scheme) {
            Some(m) => Ok(Some(m)),
            None if store.mode() == CacheMode::Require => Err(format!(
                "no cache entry for {app}/{scheme} (key {key:#018x}) in {} and \
                 LAZYDRAM_CACHE_MODE=require forbids simulating; populate the store by \
                 re-running with LAZYDRAM_CACHE_MODE=auto, or point LAZYDRAM_CACHE_DIR \
                 at a store that already holds this sweep",
                store.dir().display()
            )),
            None => Ok(None),
        }
    }

    /// Publishes a finished cell into the result store. Publish failures
    /// cost only future cache hits, never the sweep: they are reported as a
    /// stderr warning (unless quiet), not raised.
    fn cache_publish(&self, key: u64, m: &Measurement) {
        let Some(store) = &self.cache else { return };
        if let Err(e) = store.publish(key, m) {
            if !self.quiet {
                eprintln!("warning: {e}");
            }
        }
    }

    fn record_measurement(&self, m: &Measurement) {
        if let Some(out) = &self.results {
            let mut out = out.lock().expect("results lock");
            writeln!(out, "{}", m.to_json()).expect("write LAZYDRAM_RESULTS");
        }
    }

    fn record_failure(&self, f: &JobFailure) {
        if let Some(out) = &self.results {
            let mut o = JsonObject::new();
            o.str("record", "failure")
                .str("label", &f.label)
                .str("error", &f.message);
            let mut out = out.lock().expect("results lock");
            writeln!(out, "{}", o.finish()).expect("write LAZYDRAM_RESULTS");
        }
    }

    fn flush_results(&self) {
        if let Some(out) = &self.results {
            out.lock()
                .expect("results lock")
                .flush()
                .expect("flush LAZYDRAM_RESULTS");
        }
    }
}

impl Drop for SweepRunner {
    /// Prints the end-of-sweep summary line: jobs run, failures, elapsed
    /// wall clock, the cache counters and the exact-output references
    /// computed. On stderr (like the progress lines, so stdout tables stay
    /// byte-identical); suppressed when quiet or when the runner never ran
    /// a job.
    fn drop(&mut self) {
        let jobs = self.jobs_run.load(Ordering::Relaxed);
        if self.quiet || jobs == 0 {
            return;
        }
        let failed = self.jobs_failed.load(Ordering::Relaxed);
        let cache = match &self.cache {
            Some(store) => {
                let s = store.stats();
                format!(
                    "cache: {} hits ({} disk + {} hot), {} misses, {} published, {} rejected",
                    s.hits(),
                    s.disk_hits,
                    s.hot_hits,
                    s.misses,
                    s.published,
                    s.rejected
                )
            }
            None => "cache: off".to_string(),
        };
        let (computed, refs) = self.references_computed();
        eprintln!(
            "sweep summary: {jobs} jobs, {failed} failed, {elapsed:.1}s elapsed; {cache}; \
             refs: {computed} of {refs} computed",
            elapsed = self.started.elapsed().as_secs_f64()
        );
    }
}

/// Flags a cache-served measurement on its progress line.
fn cache_note(m: &Measurement) -> String {
    if m.cached {
        " [cache hit]".to_string()
    } else {
        String::new()
    }
}

/// Extracts a readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_quiet_accepts_booleans_and_names_the_variable() {
        assert_eq!(parse_quiet("1"), Ok(true));
        assert_eq!(parse_quiet("true"), Ok(true));
        assert_eq!(parse_quiet(" 0 "), Ok(false));
        assert_eq!(parse_quiet("false"), Ok(false));
        for bad in ["", "yes", "2", "quiet"] {
            let err = parse_quiet(bad).expect_err("only 1|true|0|false are booleans");
            assert!(err.starts_with("LAZYDRAM_QUIET="), "{err}");
        }
    }

    #[test]
    fn exact_output_is_lazy_shared_and_never_prints_the_vector() {
        let app = lazydram_workloads::by_name("SCP").expect("app");
        let exact = ExactOutput::new(&app, 0.02);
        let shared = exact.clone();
        assert!(!shared.is_computed(), "nothing computed before first use");
        assert_eq!(
            format!("{exact:?}"),
            "ExactOutput { app: \"SCP\", scale: 0.02, computed: false }"
        );
        assert_eq!(&*exact, exact_output(&app, 0.02).as_slice());
        assert!(shared.is_computed(), "clones share one reference");
        assert!(format!("{shared:?}").ends_with("computed: true }"));
    }
}
