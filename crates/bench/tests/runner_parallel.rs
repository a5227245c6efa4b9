//! The sweep runner's contract: parallel execution is observably identical
//! to sequential execution, panics are isolated per job, and the baseline
//! cache is transparent.

use lazydram_bench::{measure_baseline, Job, MeasureSpec, SimBuilder, SweepRunner};
use lazydram_common::{DmsMode, GpuConfig, SchedConfig};
use lazydram_workloads::by_name;
use std::sync::Arc;

const SCALE: f64 = 0.05;

fn subset() -> Vec<lazydram_workloads::AppSpec> {
    ["SCP", "GEMM", "MVT"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect()
}

fn sweep_json(workers: usize, path: &str) -> Vec<String> {
    let apps = subset();
    let cfg = GpuConfig::default();
    let runner = SweepRunner::with_workers(workers)
        .quiet()
        .with_results_file(path);
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
    let results = runner.measure_all(specs);
    results
        .into_iter()
        .map(|r| r.expect("no panics in this sweep").to_json())
        .collect()
}

#[test]
fn parallel_results_identical_to_sequential() {
    let dir = std::env::temp_dir();
    let seq_path = dir.join("lazydram_runner_test_seq.jsonl");
    let par_path = dir.join("lazydram_runner_test_par.jsonl");
    let seq = sweep_json(1, seq_path.to_str().unwrap());
    let par = sweep_json(4, par_path.to_str().unwrap());
    assert_eq!(seq, par, "parallel measurements must match sequential ones");
    // The JSONL results files must be byte-identical too: same records, same
    // order, no timing data.
    let seq_file = std::fs::read(&seq_path).expect("sequential results file");
    let par_file = std::fs::read(&par_path).expect("parallel results file");
    assert!(!seq_file.is_empty(), "results file has records");
    assert_eq!(seq_file, par_file, "JSONL files must be byte-identical");
    let _ = std::fs::remove_file(seq_path);
    let _ = std::fs::remove_file(par_path);
}

#[test]
fn panicking_job_is_isolated_and_reported() {
    let runner = SweepRunner::with_workers(4).quiet();
    let results = runner.run(vec![
        Job::new("ok-1", || 1 + 1),
        Job::new("boom", || -> i32 { panic!("deliberate test panic") }),
        Job::new("ok-2", || 40 + 2),
    ]);
    assert_eq!(results.len(), 3);
    assert_eq!(*results[0].as_ref().expect("ok-1 runs"), 2);
    let failure = results[1].as_ref().expect_err("boom must fail");
    assert_eq!(failure.label, "boom");
    assert!(
        failure.message.contains("deliberate test panic"),
        "panic payload surfaces: {}",
        failure.message
    );
    assert_eq!(*results[2].as_ref().expect("ok-2 runs"), 42);
}

#[test]
fn baseline_cache_returns_same_measurement_as_fresh_computation() {
    let app = by_name("SCP").expect("app");
    let cfg = GpuConfig::default();
    let runner = SweepRunner::with_workers(2).quiet();
    let cached = runner.baseline(&app, &cfg, SCALE);
    let again = runner.baseline(&app, &cfg, SCALE);
    assert!(
        Arc::ptr_eq(&cached, &again),
        "second lookup must hit the cache, not recompute"
    );
    let (fresh, fresh_exact) = measure_baseline(&app, &cfg, SCALE);
    assert_eq!(
        cached.measurement.to_json(),
        fresh.to_json(),
        "cached baseline must equal a fresh sequential computation"
    );
    assert_eq!(*cached.exact, fresh_exact, "exact outputs must match");
}

/// A sweep cell prices its row energy with its own preset's technology:
/// the `row_energy_pj` in an hbm2 cell's JSONL record is the HBM2 profile
/// applied to that cell's statistics, the figure `lazydram run --backend
/// hbm2` prints, not the GDDR5 one.
#[test]
fn hbm2_cell_row_energy_uses_its_own_technology() {
    use lazydram_bench::{EnergyModel, MemoryTech};
    use lazydram_common::json::JsonObject;
    use lazydram_common::DramPreset;

    let path = std::env::temp_dir().join("lazydram_runner_test_hbm2.jsonl");
    let app = by_name("SCP").expect("app");
    let runner = SweepRunner::with_workers(1)
        .quiet()
        .with_results_file(&path);
    let base = runner.baselines(
        std::slice::from_ref(&app),
        &DramPreset::Hbm2.gpu_config(),
        SCALE,
    );
    let m = &base[0].as_ref().expect("hbm2 baseline runs").measurement;
    drop(runner);

    let want = EnergyModel::new(MemoryTech::Hbm2)
        .breakdown(&m.stats.dram)
        .row_energy_pj;
    let gddr5 = EnergyModel::new(MemoryTech::Gddr5)
        .breakdown(&m.stats.dram)
        .row_energy_pj;
    assert_eq!(m.row_energy_pj, want);
    assert_ne!(
        want, gddr5,
        "the two profiles must price this cell differently"
    );
    let mut field = JsonObject::new();
    field.f64("row_energy_pj", want);
    let field = field.finish();
    let field = &field[1..field.len() - 1];
    let jsonl = std::fs::read_to_string(&path).expect("results file");
    assert!(jsonl.contains(field), "JSONL lacks {field}: {jsonl}");
    let _ = std::fs::remove_file(&path);
}
