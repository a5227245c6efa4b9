//! The in-memory checkpoint API of a built run: pausing with
//! `SimRun::run_until` and resuming with `SimRun::resume` or
//! `SimRun::resume_until` must be bit-identical to an uninterrupted run.

use lazydram_common::Scheme;
use lazydram_workloads::{by_name, SimBuilder};

/// Warps parked on GEMM's batched loads (one `A` run plus eight `B` rows)
/// survive a checkpoint: the slot's lane list goes out as expanded lane
/// addresses and comes back push-merged into the same runs, so save →
/// restore → save is byte-identical and the resumed run equals the
/// uninterrupted one.
#[test]
fn gemm_paused_on_multi_run_loads_resumes_identically() {
    let app = by_name("GEMM").expect("app");
    // Scale 0.05 gives n = 64, so the eight `B` rows are separate runs.
    let run = SimBuilder::new(&app)
        .scheme(Scheme::StaticDms)
        .scale(0.05)
        .build();
    let plain = run.run();
    let mut paused_on_batches = 0;
    for pct in [5u64, 25, 50, 75] {
        let pause_at = plain.stats.core_cycles * pct / 100;
        let ck = run
            .run_until(pause_at)
            .expect_paused("GEMM must still be running");
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
        assert!(
            ck.as_bytes() == ck2.as_bytes(),
            "save, restore, save changed bytes at {pct}%"
        );
        let resumed = run.resume(&ck).expect("resume");
        assert_eq!(
            plain.output, resumed.output,
            "resumed output differs at {pct}%"
        );
        assert_eq!(plain.stats, resumed.stats, "resumed stats differ at {pct}%");
    }
    assert!(
        paused_on_batches > 0,
        "no pause caught a warp waiting on a batched load"
    );
}
