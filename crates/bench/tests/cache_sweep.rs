//! The result cache's sweep-level contract: warm sweeps are byte-identical
//! to cold ones, cross-harness baseline reuse works through a shared store
//! directory, `require` mode fails misses with a remediation hint, and
//! `refresh` mode re-simulates. Exact-output references are computed only
//! by cells that simulate: never on a fully served sweep, once per app when
//! only the baselines are stored.

use lazydram_bench::{Baseline, CacheMode, CachePolicy, MeasureSpec, SimBuilder, SweepRunner};
use lazydram_common::{DmsMode, GpuConfig, SchedConfig};
use lazydram_workloads::by_name;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SCALE: f64 = 0.05;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("lazydram_cache_sweep_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn runner(dir: &Path, mode: CacheMode, results: &Path) -> SweepRunner {
    SweepRunner::with_workers(2)
        .quiet()
        .with_cache(Some(CachePolicy::new(dir, mode)))
        .with_results_file(results.to_str().unwrap())
}

/// One small fig04-like sweep (baselines + two DMS delays per app) through
/// `runner`; returns the measurement JSON lines and the apps' baselines.
fn sweep(runner: &SweepRunner) -> (Vec<String>, Vec<Arc<Baseline>>) {
    let apps: Vec<_> = ["SCP", "GEMM"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let cfg = GpuConfig::default();
    let bases = runner.baselines(&apps, &cfg, SCALE);
    let mut specs = Vec::new();
    for (app, base) in apps.iter().zip(&bases) {
        let base = base.as_ref().expect("baseline runs");
        for delay in [128u32, 512] {
            specs.push(MeasureSpec::new(
                SimBuilder::new(app)
                    .gpu(cfg.clone())
                    .sched(
                        SchedConfig {
                            dms: DmsMode::Static(delay),
                            ..SchedConfig::baseline()
                        },
                        format!("DMS({delay})"),
                    )
                    .scale(SCALE),
                base.exact.clone(),
            ));
        }
    }
    let mut out: Vec<String> = bases
        .iter()
        .map(|r| r.as_ref().expect("baseline").measurement.to_json())
        .collect();
    out.extend(
        runner
            .measure_all(specs)
            .into_iter()
            .map(|r| r.expect("cell runs").to_json()),
    );
    (
        out,
        bases.into_iter().map(|b| b.expect("baseline")).collect(),
    )
}

#[test]
fn warm_sweep_is_byte_identical_and_served_from_disk() {
    let dir = fresh_dir("warm");
    let cold_jsonl = dir.join("cold.jsonl");
    let warm_jsonl = dir.join("warm.jsonl");
    std::fs::create_dir_all(&dir).unwrap();

    let cold_runner = runner(&dir, CacheMode::Auto, &cold_jsonl);
    let (cold, _) = sweep(&cold_runner);
    let cold_stats = cold_runner.cache().expect("cache attached").stats();
    assert_eq!(cold_stats.hits(), 0, "empty store cannot hit");
    assert_eq!(cold_stats.published, 6, "2 baselines + 4 cells published");
    drop(cold_runner);

    // A second runner = a second harness process: fresh hot tier, shared
    // disk store. Everything must come back from disk, byte for byte.
    let warm_runner = runner(&dir, CacheMode::Auto, &warm_jsonl);
    let (warm, _) = sweep(&warm_runner);
    assert_eq!(cold, warm, "warm measurements must match cold ones exactly");
    let warm_stats = warm_runner.cache().expect("cache attached").stats();
    assert_eq!(warm_stats.disk_hits, 6, "every cell served from disk");
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.published, 0, "nothing re-simulated");
    drop(warm_runner);

    let cold_bytes = std::fs::read(&cold_jsonl).unwrap();
    let warm_bytes = std::fs::read(&warm_jsonl).unwrap();
    assert!(!cold_bytes.is_empty());
    assert_eq!(
        cold_bytes, warm_bytes,
        "JSONL must be byte-identical cold vs warm"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_harness_reuses_first_harness_baselines() {
    let dir = fresh_dir("xharness");
    std::fs::create_dir_all(&dir).unwrap();
    let apps: Vec<_> = ["SCP", "MVT"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let cfg = GpuConfig::default();

    // Harness 1 (fig04 analog): computes the baselines, publishing them.
    let first = SweepRunner::with_workers(2)
        .quiet()
        .with_cache(Some(CachePolicy::new(&dir, CacheMode::Auto)));
    let cold: Vec<String> = first
        .baselines(&apps, &cfg, SCALE)
        .into_iter()
        .map(|r| r.expect("baseline").measurement.to_json())
        .collect();
    assert_eq!(first.cache().unwrap().stats().published, 2);

    // Harness 2 (fig12 analog): a different runner over the same store must
    // serve both baselines from disk without simulating.
    let second = SweepRunner::with_workers(2)
        .quiet()
        .with_cache(Some(CachePolicy::new(&dir, CacheMode::Auto)));
    let warm: Vec<String> = second
        .baselines(&apps, &cfg, SCALE)
        .into_iter()
        .map(|r| r.expect("baseline").measurement.to_json())
        .collect();
    assert_eq!(cold, warm);
    let stats = second.cache().unwrap().stats();
    assert_eq!(stats.disk_hits, 2, "baselines served across harnesses");
    assert_eq!(stats.published, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn require_mode_miss_fails_with_remediation_hint() {
    let dir = fresh_dir("require");
    std::fs::create_dir_all(&dir).unwrap();
    let app = by_name("SCP").expect("app");
    let cfg = GpuConfig::default();
    let runner = SweepRunner::with_workers(1)
        .quiet()
        .with_cache(Some(CachePolicy::new(&dir, CacheMode::Require)));
    let results = runner.baselines(&[app], &cfg, SCALE);
    let failure = results[0]
        .as_ref()
        .expect_err("empty store + require must fail");
    assert!(
        failure.message.contains("LAZYDRAM_CACHE_MODE=auto"),
        "failure must tell the user how to populate the store: {}",
        failure.message
    );
    assert!(
        failure.message.contains("no cache entry"),
        "{}",
        failure.message
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn refresh_mode_resimulates_and_republishes() {
    let dir = fresh_dir("refresh");
    std::fs::create_dir_all(&dir).unwrap();
    let app = by_name("SCP").expect("app");
    let cfg = GpuConfig::default();

    let seed = SweepRunner::with_workers(1)
        .quiet()
        .with_cache(Some(CachePolicy::new(&dir, CacheMode::Auto)));
    let first = seed.baselines(std::slice::from_ref(&app), &cfg, SCALE);
    let first = first[0].as_ref().expect("baseline").measurement.to_json();

    let refresh = SweepRunner::with_workers(1)
        .quiet()
        .with_cache(Some(CachePolicy::new(&dir, CacheMode::Refresh)));
    let again = refresh.baselines(&[app], &cfg, SCALE);
    let again = again[0].as_ref().expect("baseline").measurement.to_json();
    assert_eq!(
        first, again,
        "determinism: a refresh reproduces the same bytes"
    );
    let stats = refresh.cache().unwrap().stats();
    assert_eq!(stats.hits(), 0, "refresh never consults the store");
    assert_eq!(stats.published, 1, "refresh overwrites the entry");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn require_mode_sweep_never_computes_a_reference() {
    let dir = fresh_dir("lazyref");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let (cold_jsonl, warm_jsonl) = (dir.join("cold.jsonl"), dir.join("require.jsonl"));

    let cold = runner(&store, CacheMode::Auto, &cold_jsonl);
    sweep(&cold);
    assert_eq!(
        cold.references_computed(),
        (2, 2),
        "a cold sweep computes every reference"
    );
    drop(cold);

    // A fresh runner over the filled store: every cell is a hit, so no cell
    // ever needs an app's reference.
    let warm = runner(&store, CacheMode::Require, &warm_jsonl);
    let (_, bases) = sweep(&warm);
    for b in &bases {
        assert!(
            !b.exact.is_computed(),
            "{:?} computed on a served sweep",
            b.exact
        );
    }
    assert_eq!(warm.references_computed(), (0, 2));
    drop(warm);

    let cold_bytes = std::fs::read(&cold_jsonl).unwrap();
    assert!(!cold_bytes.is_empty());
    assert_eq!(
        cold_bytes,
        std::fs::read(&warm_jsonl).unwrap(),
        "JSONL must be cmp-equal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn baseline_only_store_forces_each_reference_once() {
    let dir = fresh_dir("baseonly");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("store");
    let apps: Vec<_> = ["SCP", "GEMM"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    SweepRunner::with_workers(2)
        .quiet()
        .with_cache(Some(CachePolicy::new(&store, CacheMode::Auto)))
        .baselines(&apps, &GpuConfig::default(), SCALE);

    let (mixed_jsonl, cold_jsonl) = (dir.join("mixed.jsonl"), dir.join("cold.jsonl"));
    let mixed = runner(&store, CacheMode::Auto, &mixed_jsonl);
    let (mixed_lines, bases) = sweep(&mixed);
    let stats = mixed.cache().expect("cache attached").stats();
    assert_eq!(
        (stats.disk_hits, stats.misses),
        (2, 4),
        "baselines hit, scheme cells simulate"
    );
    // Every cell of an app shares the baseline's one `OnceLock`: the first
    // simulating cell forces it and the others reuse it.
    for b in &bases {
        assert!(b.exact.is_computed(), "{:?} was never forced", b.exact);
    }
    assert_eq!(mixed.references_computed(), (2, 2));
    drop(mixed);

    let cold = runner(&dir.join("cold_store"), CacheMode::Auto, &cold_jsonl);
    let (cold_lines, _) = sweep(&cold);
    drop(cold);
    assert_eq!(mixed_lines, cold_lines);
    assert_eq!(
        std::fs::read(&mixed_jsonl).unwrap(),
        std::fs::read(&cold_jsonl).unwrap(),
        "JSONL must be byte-identical to an all-cold sweep"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
