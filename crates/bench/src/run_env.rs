//! [`RunEnv`]: the `LAZYDRAM_*` environment knobs, read once per process.
//!
//! Every figure harness, `examples/energy_explorer.rs` and the `lazydram`
//! CLI start from [`RunEnv::load`], and nothing else in the workspace reads
//! a `LAZYDRAM_*` variable (`tests/knob_inventory.rs` checks that each knob
//! name appears in this file only). The simulator crates and
//! `lazydram-workloads` take their configuration as values.
//!
//! Loading is strict: a value with a fixed form that does not parse aborts
//! with a message naming the variable, never a silent fallback. The value
//! formats live in the pure `parse_*` functions next to the types they
//! produce ([`parse_scale`], [`parse_apps`], [`parse_backend`],
//! [`parse_jobs`], [`parse_quiet`], [`parse_cache_mode`]).

use crate::runner::{parse_jobs, parse_quiet, SweepRunner};
use crate::{parse_apps, parse_scale, BENCH_SCALE};
use lazydram_common::DramPreset;
use lazydram_workloads::{parse_backend, parse_cache_mode, AppSpec, CacheMode, CachePolicy};
use std::path::PathBuf;

/// The nine knobs of one process, parsed. See the [module docs](self).
pub struct RunEnv {
    /// Work scale: `LAZYDRAM_SCALE`, any finite positive number (default
    /// [`BENCH_SCALE`]).
    pub scale: f64,
    /// The apps a per-app sweep covers: the comma-separated
    /// `LAZYDRAM_APPS` (default: all 20).
    pub apps: Vec<AppSpec>,
    /// Memory-backend preset: `LAZYDRAM_BACKEND` (default GDDR5). Harnesses
    /// simulate its [`DramPreset::gpu_config`], so `LAZYDRAM_BACKEND=<label>`
    /// re-runs any figure on any backend.
    pub preset: DramPreset,
    /// Sweep worker threads: `LAZYDRAM_JOBS` (default: one per core).
    pub jobs: usize,
    /// `LAZYDRAM_QUIET`: silence the stderr progress and summary lines.
    pub quiet: bool,
    /// `LAZYDRAM_RESULTS`: the JSONL results file, if any.
    pub results: Option<PathBuf>,
    /// `LAZYDRAM_CACHE_DIR` and `LAZYDRAM_CACHE_MODE`: the result store,
    /// or `None` without a directory. A directory with mode `off` stays a
    /// policy in [`CacheMode::Off`], which sweeps ignore and `lazydram
    /// cache` still administers.
    pub cache: Option<CachePolicy>,
    /// `LAZYDRAM_OUT`: where `fig14_laplacian` writes its images (default
    /// `target`).
    pub out_dir: PathBuf,
}

impl RunEnv {
    /// Reads and parses every knob from the process environment.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the variable on the first malformed
    /// value: a loud error beats a silently full-scale, uncached or
    /// wrong-machine overnight sweep.
    pub fn load() -> Self {
        Self::from_vars(|name| std::env::var(name).ok()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RunEnv::load`] over an explicit variable lookup (the testable
    /// core: tests cannot mutate the process environment safely under the
    /// parallel test harness).
    fn from_vars(var: impl Fn(&str) -> Option<String>) -> Result<Self, String> {
        let set = |name: &str| var(name).filter(|s| !s.trim().is_empty());
        Ok(Self {
            scale: var("LAZYDRAM_SCALE").map_or(Ok(BENCH_SCALE), |s| {
                parse_scale(&s).map_err(|e| format!("LAZYDRAM_SCALE={e}"))
            })?,
            apps: set("LAZYDRAM_APPS")
                .map_or_else(|| Ok(lazydram_workloads::all_apps()), |s| parse_apps(&s))?,
            preset: var("LAZYDRAM_BACKEND").map_or(Ok(DramPreset::Gddr5), |s| parse_backend(&s))?,
            jobs: match var("LAZYDRAM_JOBS") {
                Some(s) => parse_jobs(&s)?,
                None => std::thread::available_parallelism().map_or(1, |n| n.get()),
            },
            quiet: var("LAZYDRAM_QUIET").map_or(Ok(false), |s| parse_quiet(&s))?,
            results: set("LAZYDRAM_RESULTS").map(PathBuf::from),
            cache: cache_policy(set("LAZYDRAM_CACHE_DIR"), var("LAZYDRAM_CACHE_MODE"))?,
            out_dir: var("LAZYDRAM_OUT").map_or_else(|| PathBuf::from("target"), PathBuf::from),
        })
    }

    /// A sweep runner with this environment's worker count, quiet flag,
    /// result store and JSONL results file.
    ///
    /// # Panics
    ///
    /// Panics when the results file or the store directory cannot be
    /// created.
    pub fn runner(&self) -> SweepRunner {
        let mut runner = SweepRunner::with_workers(self.jobs).with_cache(self.cache.clone());
        if self.quiet {
            runner = runner.quiet();
        }
        match &self.results {
            Some(path) => runner.with_results_file(path),
            None => runner,
        }
    }
}

/// Resolves the two cache variables. A mode without a directory is dead
/// configuration and an error, not a silent no-op.
fn cache_policy(dir: Option<String>, mode: Option<String>) -> Result<Option<CachePolicy>, String> {
    let mode = mode.map(|s| parse_cache_mode(&s)).transpose()?;
    match (dir, mode) {
        (None, None | Some(CacheMode::Off)) => Ok(None),
        (None, Some(m)) => Err(format!(
            "LAZYDRAM_CACHE_MODE={m:?} is set but LAZYDRAM_CACHE_DIR is not; \
             set the directory too (or unset the mode)"
        )),
        (Some(d), mode) => Ok(Some(CachePolicy::new(d, mode.unwrap_or(CacheMode::Auto)))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn env(vars: &[(&str, &str)]) -> Result<RunEnv, String> {
        RunEnv::from_vars(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn unset_environment_gives_the_defaults() {
        let e = env(&[]).unwrap();
        assert_eq!(e.scale, BENCH_SCALE);
        assert_eq!(e.apps.len(), 20);
        assert_eq!(e.preset, DramPreset::Gddr5);
        assert!(e.jobs >= 1);
        assert!(!e.quiet);
        assert!(e.results.is_none() && e.cache.is_none());
        assert_eq!(e.out_dir, Path::new("target"));
        // Blank lists and paths count as unset.
        let e = env(&[("LAZYDRAM_APPS", " "), ("LAZYDRAM_RESULTS", "")]).unwrap();
        assert_eq!((e.apps.len(), e.results), (20, None));
    }

    #[test]
    fn set_knobs_are_parsed() {
        let e = env(&[
            ("LAZYDRAM_SCALE", "0.25"),
            ("LAZYDRAM_APPS", "GEMM,scp"),
            ("LAZYDRAM_JOBS", "3"),
            ("LAZYDRAM_QUIET", "true"),
            ("LAZYDRAM_RESULTS", "r.jsonl"),
            ("LAZYDRAM_OUT", "images"),
        ])
        .unwrap();
        assert_eq!((e.scale, e.jobs, e.quiet), (0.25, 3, true));
        let names: Vec<&str> = e.apps.iter().map(|a| a.name).collect();
        assert_eq!(names, ["GEMM", "SCP"]);
        assert_eq!(e.results.as_deref(), Some(Path::new("r.jsonl")));
        assert_eq!(e.out_dir, Path::new("images"));
    }

    #[test]
    fn backend_env_helpers_expand_presets() {
        let e = env(&[("LAZYDRAM_BACKEND", "hbm2")]).unwrap();
        assert_eq!(e.preset, DramPreset::Hbm2);
        assert_eq!(e.preset.gpu_config().mem_clock_mhz, 1000);
        for bad in ["gddr6", "naive"] {
            let err = env(&[("LAZYDRAM_BACKEND", bad)]).err().unwrap();
            assert!(err.contains("LAZYDRAM_BACKEND"), "{err}");
            assert!(err.contains("not a DRAM backend preset"), "{err}");
        }
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (name, bad) in [
            ("LAZYDRAM_SCALE", "fast"),
            ("LAZYDRAM_SCALE", "0"),
            ("LAZYDRAM_APPS", "BOGUS"),
            ("LAZYDRAM_JOBS", "0"),
            ("LAZYDRAM_QUIET", "yes"),
            ("LAZYDRAM_CACHE_MODE", "cached"),
        ] {
            let err = env(&[("LAZYDRAM_CACHE_DIR", "/tmp/c"), (name, bad)])
                .err()
                .unwrap();
            assert!(err.contains(name), "{name}={bad}: {err}");
        }
    }

    #[test]
    fn cache_policy_resolution_is_strict() {
        let some = |s: &str| Some(s.to_string());
        // Not requested at all, or explicitly off without a directory.
        assert!(cache_policy(None, None).unwrap().is_none());
        assert!(cache_policy(None, some("off")).unwrap().is_none());
        assert!(env(&[("LAZYDRAM_CACHE_DIR", "  ")])
            .unwrap()
            .cache
            .is_none());
        // A directory keeps its policy, `off` included (sweeps ignore it).
        let p = cache_policy(some("/tmp/c"), some("off")).unwrap().unwrap();
        assert_eq!(p.mode, CacheMode::Off);
        // Directory alone defaults to auto; explicit modes stick.
        let p = cache_policy(some("/tmp/c"), None).unwrap().unwrap();
        assert_eq!(
            (p.dir.as_path(), p.mode),
            (Path::new("/tmp/c"), CacheMode::Auto)
        );
        let p = cache_policy(some("/tmp/c"), some("REQUIRE"))
            .unwrap()
            .unwrap();
        assert_eq!(p.mode, CacheMode::Require);
        // Dead configuration and garbage fail loudly, never silently.
        let err = cache_policy(None, some("auto")).unwrap_err();
        assert!(err.contains("LAZYDRAM_CACHE_DIR is not"), "{err}");
        let err = cache_policy(some("/tmp/c"), some("cached")).unwrap_err();
        assert!(err.contains("not a cache mode"), "{err}");
    }
}
