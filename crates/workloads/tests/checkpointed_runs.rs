//! Crash-recovery contract of the checkpointed run path: a run that parks
//! and resumes checkpoints on disk must be bit-identical to a plain run, a
//! re-run over the kept final checkpoint must replay only the tail and
//! still match, and stale checkpoints from a different configuration must
//! be rejected (warn + fresh restart), never silently resumed.

use lazydram_common::Scheme;
use lazydram_workloads::{by_name, CheckpointPolicy, SimBuilder};
use std::path::PathBuf;

const SCALE: f64 = 0.02;

/// Fresh per-test scratch dir under the system temp dir (the test harness
/// runs tests in one process, so the test name disambiguates).
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("lazydram_ckpt_test_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn checkpointed_run_matches_plain_run_and_resumes_from_kept_file() {
    let app = by_name("SCP").expect("app");
    let dir = scratch("roundtrip");

    let plain = SimBuilder::new(&app).scheme(Scheme::StaticDms).scale(SCALE).build().run();
    // A small interval forces several park/resume hops within the run.
    let every = (plain.stats.core_cycles / 7).max(1);
    let ckpt = SimBuilder::new(&app)
        .scheme(Scheme::StaticDms)
        .scale(SCALE)
        .checkpoints(Some(CheckpointPolicy::new(&dir, every)))
        .build();

    let first = ckpt.run();
    assert_eq!(plain.output, first.output, "checkpointed output differs");
    assert_eq!(plain.stats, first.stats, "checkpointed stats differ");

    // The final checkpoint is deliberately kept: a re-run resumes from it,
    // replays only the tail, and must land on the same result again.
    let path = ckpt.checkpoint_path().expect("policy set");
    assert!(path.exists(), "final checkpoint must be kept after completion");
    let second = ckpt.run();
    assert_eq!(plain.output, second.output, "resumed re-run output differs");
    assert_eq!(plain.stats, second.stats, "resumed re-run stats differ");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_checkpoint_from_other_config_restarts_fresh() {
    let app = by_name("CONS").expect("app");
    let dir = scratch("stale");
    // Interval small enough that both runs park at least one checkpoint.
    let probe = SimBuilder::new(&app).scheme(Scheme::DynDms).scale(SCALE).build().run();
    let every = (probe.stats.core_cycles / 5).max(1);

    let a = SimBuilder::new(&app)
        .scheme(Scheme::DynDms)
        .scale(SCALE)
        .checkpoints(Some(CheckpointPolicy::new(&dir, every)))
        .build();
    let b = SimBuilder::new(&app)
        .scheme(Scheme::StaticDms)
        .scale(SCALE)
        .checkpoints(Some(CheckpointPolicy::new(&dir, every)))
        .build();
    // Different schemes get different checkpoint files — a sweep sharing one
    // directory can never cross-resume.
    let (pa, pb) = (a.checkpoint_path().unwrap(), b.checkpoint_path().unwrap());
    assert_ne!(pa, pb, "distinct configs must use distinct checkpoint files");

    let ra = a.run();
    // Corrupt b's slot with a's checkpoint: the config-digest check must
    // reject it and restart fresh rather than resume a foreign trajectory.
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(&pa, &pb).unwrap();
    let rb = b.run_recoverable().expect("stale checkpoint must not be fatal");
    let plain_b = SimBuilder::new(&app).scheme(Scheme::StaticDms).scale(SCALE).build().run();
    assert_eq!(plain_b.output, rb.output, "fresh restart output differs");
    assert_eq!(plain_b.stats, rb.stats, "fresh restart stats differ");
    assert_eq!(ra.stats.core_cycles, a.run().stats.core_cycles);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Warps parked on GEMM's batched loads (one `A` run plus eight `B` rows)
/// survive a checkpoint: the slot's lane list goes out as expanded lane
/// addresses and comes back push-merged into the same runs, so save →
/// restore → save is byte-identical and the resumed run equals the
/// uninterrupted one.
#[test]
fn gemm_paused_on_multi_run_loads_resumes_identically() {
    let app = by_name("GEMM").expect("app");
    // Scale 0.05 gives n = 64, so the eight `B` rows are separate runs.
    let run = SimBuilder::new(&app).scheme(Scheme::StaticDms).scale(0.05).build();
    let plain = run.run();
    let mut paused_on_batches = 0;
    for pct in [5u64, 25, 50, 75] {
        let pause_at = plain.stats.core_cycles * pct / 100;
        let ck = run.run_until(pause_at).expect_paused("GEMM must still be running");
        // Count the slots waiting (state 2) on a whole 264-lane batch.
        let fields = run.checkpoint_fields(&ck).expect("fields");
        let mut waiting = false;
        for (path, value) in &fields {
            if path.ends_with("/state") {
                waiting = value == "2";
            } else if path.ends_with("/lane_addrs") && waiting && value.starts_with("[u64; 264]") {
                paused_on_batches += 1;
            }
        }
        let again = run.resume_until(&ck, ck.cycle()).expect("restore");
        let ck2 = again.expect_paused("a pause at the checkpoint's own cycle");
        assert!(ck.as_bytes() == ck2.as_bytes(), "save, restore, save changed bytes at {pct}%");
        let resumed = run.resume(&ck).expect("resume");
        assert_eq!(plain.output, resumed.output, "resumed output differs at {pct}%");
        assert_eq!(plain.stats, resumed.stats, "resumed stats differ at {pct}%");
    }
    assert!(paused_on_batches > 0, "no pause caught a warp waiting on a batched load");
}

#[test]
fn checkpoint_env_parsing_is_strict() {
    // Temp-env tests must not run concurrently with each other; Rust runs
    // tests in threads within one process, so serialize on a lock.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = ENV_LOCK.lock().unwrap();

    std::env::remove_var("LAZYDRAM_CHECKPOINT_DIR");
    std::env::remove_var("LAZYDRAM_CHECKPOINT_EVERY");
    assert!(
        CheckpointPolicy::from_env().expect("unset env is valid").is_none(),
        "unset env means no checkpointing"
    );

    std::env::set_var("LAZYDRAM_CHECKPOINT_EVERY", "1000");
    assert!(
        CheckpointPolicy::from_env().is_err(),
        "EVERY without DIR is dead config and must be loud"
    );

    std::env::set_var("LAZYDRAM_CHECKPOINT_DIR", "/tmp/lazydram_env_test");
    std::env::set_var("LAZYDRAM_CHECKPOINT_EVERY", "nonsense");
    assert!(CheckpointPolicy::from_env().is_err(), "malformed EVERY must be loud");

    std::env::remove_var("LAZYDRAM_CHECKPOINT_EVERY");
    let p = CheckpointPolicy::from_env().expect("DIR alone is valid").expect("policy");
    assert_eq!(p.every, lazydram_workloads::DEFAULT_CHECKPOINT_EVERY);
    std::env::remove_var("LAZYDRAM_CHECKPOINT_DIR");
}
