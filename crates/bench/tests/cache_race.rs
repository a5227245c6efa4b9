//! Multi-process stress: two separate runner processes racing on one cache
//! directory must (a) produce byte-identical JSONL results and (b) leave the
//! store with only complete, valid entries — the lock-free tmp+rename
//! publish protocol never exposes a torn file.

use lazydram_bench::{CacheMode, CachePolicy, MeasureSpec, SimBuilder, SweepRunner};
use lazydram_common::{DmsMode, GpuConfig, SchedConfig};
use lazydram_workloads::by_name;
use std::path::{Path, PathBuf};

const SCALE: f64 = 0.05;
const CHILD_ENV: &str = "LAZYDRAM_TEST_CACHE_RACE_CHILD";

fn race_sweep(cache_dir: &Path, results: &Path) {
    let apps: Vec<_> = ["SCP", "GEMM"]
        .iter()
        .map(|n| by_name(n).expect("app"))
        .collect();
    let cfg = GpuConfig::default();
    let runner = SweepRunner::with_workers(2)
        .quiet()
        .with_cache(Some(CachePolicy::new(cache_dir, CacheMode::Auto)))
        .with_results_file(results.to_str().unwrap());
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
    for r in runner.measure_all(specs) {
        r.expect("cell runs");
    }
}

/// Child-process entry point: runs the sweep when spawned by the race test
/// below, returns immediately under a normal `cargo test`.
#[test]
fn child_worker() {
    let Ok(spec) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (cache_dir, results) = spec.split_once('\x1f').expect("dir\\x1fresults spec");
    race_sweep(Path::new(cache_dir), Path::new(results));
}

#[test]
fn racing_processes_converge_without_torn_entries() {
    let base = std::env::temp_dir().join(format!("lazydram_cache_race_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache_dir = base.join("store");
    std::fs::create_dir_all(&cache_dir).unwrap();
    let exe = std::env::current_exe().expect("test binary path");

    let spawn = |jsonl: &PathBuf| {
        std::process::Command::new(&exe)
            .args(["--exact", "child_worker", "--nocapture"])
            .env(
                CHILD_ENV,
                format!("{}\x1f{}", cache_dir.display(), jsonl.display()),
            )
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn child")
    };

    // Two uncoordinated processes, same store, same sweep: publishes race.
    let a_jsonl = base.join("a.jsonl");
    let b_jsonl = base.join("b.jsonl");
    let mut a = spawn(&a_jsonl);
    let mut b = spawn(&b_jsonl);
    assert!(a.wait().expect("child a").success(), "racer A must succeed");
    assert!(b.wait().expect("child b").success(), "racer B must succeed");

    let a_bytes = std::fs::read(&a_jsonl).expect("racer A results");
    let b_bytes = std::fs::read(&b_jsonl).expect("racer B results");
    assert!(!a_bytes.is_empty());
    assert_eq!(
        a_bytes, b_bytes,
        "racing processes must emit byte-identical JSONL"
    );

    // Every surviving entry is complete and valid — no torn files, no
    // leftover publish temporaries.
    let store = lazydram_bench::Store::open(&cache_dir, CacheMode::Auto).unwrap();
    let entries = store.entries().unwrap();
    assert_eq!(entries.len(), 6, "2 baselines + 4 cells, each exactly once");
    for e in &entries {
        e.identity.as_ref().unwrap_or_else(|err| {
            panic!("torn/invalid entry {} after race: {err}", e.path.display())
        });
    }
    let tmps: Vec<_> = std::fs::read_dir(&cache_dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
        .collect();
    assert!(
        tmps.is_empty(),
        "publish temporaries must not survive: {tmps:?}"
    );
    let _ = std::fs::remove_dir_all(&base);
}
