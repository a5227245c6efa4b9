//! Shared harness utilities for the figure/table benchmarks.
//!
//! Each `benches/figNN_*.rs` target (built with `harness = false`) prints the
//! rows/series of one table or figure of the paper. This library holds the
//! common machinery: running an app under a scheme, collecting the metrics
//! the paper reports, formatting aligned tables, and — via [`runner`] — the
//! parallel sweep runner that fans `(app × scheme)` jobs across a worker
//! pool with panic isolation.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

use lazydram_common::{GpuConfig, SimStats};
use lazydram_gpu::application_error;
use lazydram_workloads::{exact_output, AppSpec};

pub mod run_env;
pub mod runner;
pub mod store;

pub use lazydram_common::Scheme;
pub use lazydram_energy::{EnergyModel, MemoryTech};
pub use lazydram_gpu::TraceSim;
pub use lazydram_workloads::{
    parse_backend, parse_cache_mode, CacheMode, CachePolicy, SimBuilder, SimRun,
};
pub use run_env::RunEnv;
pub use runner::{Baseline, ExactOutput, Job, JobFailure, JobResult, MeasureSpec, SweepRunner};
pub use store::{CacheStats, EntryInfo, Fidelity, Store};

/// Default work scale for the benchmark harnesses. Chosen so the whole
/// evaluation runs on a laptop in minutes while every app still issues
/// 10⁴–10⁵ DRAM requests.
pub const BENCH_SCALE: f64 = 1.0;

/// Parses a work scale (`LAZYDRAM_SCALE`, `lazydram --scale`): must be a
/// finite, positive number. The error describes the value; the caller
/// prefixes the variable or flag it came from.
///
/// Kept separate from [`RunEnv::load`] so the validation is unit-testable.
pub fn parse_scale(s: &str) -> Result<f64, String> {
    match s.trim().parse::<f64>() {
        Err(_) => Err(format!(
            "{s:?} is not a number; expected a positive work scale such as 0.5 or 1.0"
        )),
        Ok(v) if !v.is_finite() || v <= 0.0 => Err(format!(
            "{s:?} must be a finite, positive work scale (e.g. 0.5 for a half-size \
             run); got {v}"
        )),
        Ok(v) => Ok(v),
    }
}

/// Parses a comma-separated `LAZYDRAM_APPS` list into app specs.
///
/// Unknown names produce an error listing every valid name.
pub fn parse_apps(list: &str) -> Result<Vec<AppSpec>, String> {
    list.split(',')
        .map(|n| {
            let n = n.trim();
            lazydram_workloads::by_name(n).ok_or_else(|| {
                let valid: Vec<&str> = lazydram_workloads::all_apps()
                    .iter()
                    .map(|a| a.name)
                    .collect();
                format!(
                    "unknown app {n:?} in LAZYDRAM_APPS; valid names (case-insensitive): {}",
                    valid.join(", ")
                )
            })
        })
        .collect()
}

/// Aggregate DRAM data-bus utilization of a run: busy cycles across all
/// channels over `channels × elapsed memory cycles`.
pub fn bw_util(stats: &SimStats, channels: usize) -> f64 {
    let cycles = stats.dram.mem_cycles.max(1) * channels as u64;
    stats.dram.bus_busy_cycles as f64 / cycles as f64
}

/// All metrics the paper reports for one (app, scheme) run.
///
/// Equality compares every reported field (via [`SimStats`]'s equality,
/// which ignores the wall-clock profiler attribution).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Application name.
    pub app: String,
    /// Scheme label (e.g. `"Dyn-DMS+Dyn-AMS"`).
    pub scheme: String,
    /// Raw statistics.
    pub stats: SimStats,
    /// Instructions per core cycle.
    pub ipc: f64,
    /// Row activations.
    pub activations: u64,
    /// Average row-buffer locality (served requests / activations).
    pub avg_rbl: f64,
    /// Achieved prediction coverage.
    pub coverage: f64,
    /// Application error vs. the exact output (0 when no approximation).
    pub app_error: f64,
    /// Row energy in pJ, priced with the run's own memory technology
    /// ([`MemoryTech::for_preset`] of [`SimRun::preset`]), as `lazydram run`
    /// prices it. A hand-built machine that equals no preset is priced with
    /// the GDDR5 profile.
    pub row_energy_pj: f64,
    /// `true` if the run hit the safety cycle limit.
    pub truncated: bool,
    /// Always `false`: every measurement is execution-driven. A vestige of
    /// the removed sweep trace-replay route, kept so the JSONL schema, the
    /// store's entry bytes and every result digest stay unchanged; the next
    /// benchmark change removes it together with the benchmark's check of
    /// it.
    pub replayed: bool,
    /// `true` when this measurement was served from the content-addressed
    /// result store ([`store::Store`]) instead of being simulated.
    ///
    /// In-process provenance only: deliberately **excluded** from
    /// [`Measurement::to_json`] and the store's serialized bytes, so a warm
    /// sweep's stdout tables and `LAZYDRAM_RESULTS` JSONL are byte-identical
    /// to a cold one. Surfaces on stderr progress notes and in the
    /// end-of-sweep cache summary instead.
    pub cached: bool,
}

impl Measurement {
    /// Serializes the measurement as one schema-stable JSON object — the
    /// record format of the `LAZYDRAM_RESULTS` JSONL file.
    ///
    /// Schema (stable; only additive changes allowed):
    /// `record`, `app`, `scheme`, `ipc`, `activations`, `avg_rbl`,
    /// `coverage`, `app_error`, `row_energy_pj`, `truncated`, `replayed`,
    /// `stats{…}`.
    pub fn to_json(&self) -> String {
        let mut o = lazydram_common::json::JsonObject::new();
        o.str("record", "measurement")
            .str("app", &self.app)
            .str("scheme", &self.scheme)
            .f64("ipc", self.ipc)
            .u64("activations", self.activations)
            .f64("avg_rbl", self.avg_rbl)
            .f64("coverage", self.coverage)
            .f64("app_error", self.app_error)
            .f64("row_energy_pj", self.row_energy_pj)
            .bool("truncated", self.truncated)
            .bool("replayed", self.replayed)
            .raw("stats", &self.stats.to_json());
        o.finish()
    }
}

/// Runs a configured simulation and collects every reported metric.
///
/// `exact` is the functional reference output (compute it once per app with
/// [`lazydram_workloads::exact_output`] and share it across schemes — the
/// [`SweepRunner`] baseline cache does this automatically).
pub fn measure(run: &SimRun, exact: &[f32]) -> Measurement {
    let r = run.run();
    let tech = run
        .preset()
        .map_or(MemoryTech::Gddr5, MemoryTech::for_preset);
    let row_energy_pj = EnergyModel::new(tech)
        .breakdown(&r.stats.dram)
        .row_energy_pj;
    Measurement {
        app: run.app().name.to_string(),
        scheme: run.scheme_label().to_string(),
        ipc: r.stats.ipc(),
        activations: r.stats.dram.activations,
        avg_rbl: r.stats.dram.avg_rbl(),
        coverage: r.stats.dram.coverage(),
        app_error: application_error(exact, &r.output),
        row_energy_pj,
        truncated: r.hit_cycle_limit,
        replayed: false,
        cached: false,
        stats: r.stats,
    }
}

/// [`measure`] wrapped in `Ok`: it never fails. A vestige of the removed
/// sweep-level checkpoints, whose IO errors it used to surface, kept with
/// its `Result` because the repository benchmark calls it; the next
/// benchmark change removes it together with [`store::Fidelity`] and
/// [`Measurement::replayed`].
///
/// # Errors
///
/// None.
pub fn try_measure(run: &SimRun, exact: &[f32]) -> Result<Measurement, String> {
    Ok(measure(run, exact))
}

/// Convenience: the baseline measurement plus its exact output.
///
/// Sequential helper kept for tests and one-off tools; sweeping harnesses
/// should use [`SweepRunner::baselines`], which computes each `(app, scale)`
/// baseline exactly once and shares it across schemes.
pub fn measure_baseline(app: &AppSpec, cfg: &GpuConfig, scale: f64) -> (Measurement, Vec<f32>) {
    let exact = exact_output(app, scale);
    let run = SimBuilder::new(app)
        .gpu(cfg.clone())
        .scheme(Scheme::Baseline)
        .scale(scale)
        .build();
    let m = measure(&run, &exact);
    (m, exact)
}

/// Geometric-mean helper (the paper reports means across applications).
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean needs positive values"
    );
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Prints an aligned table: a header row and rows of cells.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats an energy `reduction` (a fraction; negative when energy grew)
/// as the signed change it causes: `−12.3%` for a saving, `+8.6%` for a
/// growth, and `−0.0%` when the change rounds to zero.
pub fn signed_change(reduction: f64) -> String {
    let magnitude = format!("{:.1}", 100.0 * reduction.abs());
    if reduction < 0.0 && magnitude != "0.0" {
        format!("+{magnitude}%")
    } else {
        format!("−{magnitude}%")
    }
}

/// Serializes measurements as a JSON array (for downstream plotting).
pub fn to_json(measurements: &[Measurement]) -> String {
    let items: Vec<String> = measurements.iter().map(Measurement::to_json).collect();
    lazydram_common::json::array(&items)
}

#[cfg(test)]
mod tests {
    #[test]
    fn signed_change_prints_one_sign() {
        use super::signed_change;
        assert_eq!(signed_change(0.123), "−12.3%");
        assert_eq!(signed_change(0.0), "−0.0%");
        assert_eq!(signed_change(-0.0), "−0.0%");
        assert_eq!(signed_change(-0.0004), "−0.0%");
        assert_eq!(signed_change(-0.086), "+8.6%");
    }

    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn parse_scale_accepts_positive_numbers() {
        assert_eq!(parse_scale("0.5"), Ok(0.5));
        assert_eq!(parse_scale(" 2 "), Ok(2.0));
    }

    #[test]
    fn parse_scale_rejects_garbage_zero_and_negative() {
        assert!(parse_scale("O.5").unwrap_err().contains("not a number"));
        assert!(parse_scale("0").unwrap_err().contains("positive"));
        assert!(parse_scale("-1").unwrap_err().contains("positive"));
        assert!(parse_scale("inf").unwrap_err().contains("finite"));
        assert!(parse_scale("nan").unwrap_err().contains("finite"));
    }

    #[test]
    fn parse_apps_lists_valid_names_on_error() {
        let apps = parse_apps("GEMM, scp").unwrap();
        assert_eq!(apps.len(), 2);
        assert_eq!(apps[0].name, "GEMM");
        assert_eq!(apps[1].name, "SCP");
        let err = parse_apps("GEMM,telepathy").unwrap_err();
        assert!(err.contains("telepathy"), "{err}");
        assert!(err.contains("GEMM") && err.contains("laplacian"), "{err}");
    }

    #[test]
    fn measurement_json_is_schema_stable() {
        let m = Measurement {
            app: "GEMM".into(),
            scheme: "baseline".into(),
            stats: SimStats::new(),
            ipc: 1.25,
            activations: 42,
            avg_rbl: 3.5,
            coverage: 0.0,
            app_error: 0.0,
            row_energy_pj: 1e6,
            truncated: false,
            replayed: false,
            cached: false,
        };
        let j = m.to_json();
        assert!(
            !j.contains("cached"),
            "cache provenance must not leak into JSONL: {j}"
        );
        for key in [
            "\"record\":\"measurement\"",
            "\"app\":\"GEMM\"",
            "\"scheme\":\"baseline\"",
            "\"ipc\":1.25",
            "\"activations\":42",
            "\"replayed\":false",
            "\"stats\":{",
            "\"dram\":{",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert_eq!(to_json(&[m.clone(), m]).matches("\"record\"").count(), 2);
    }
}
