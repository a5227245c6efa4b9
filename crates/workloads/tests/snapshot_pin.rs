//! Snapshot pin: the bytes of a paused run's checkpoint, taken while
//! warp-side value buffers are in use, are fixed.
//!
//! Each case pauses a baseline GDDR5 run at scale 0.05 mid-run, at a cycle
//! where the named buffers hold values: a `MapProgram`'s batch rows
//! (`prog[0]/vals`) for the map apps, and an SM slot's completed-but-not-
//! yet-consumed load (`last_loaded`) for 3DCONV. At this scale the map
//! apps' warps consume every load in the cycle it completes, so their
//! pauses never catch `last_loaded` filled. The checkpoint digest must
//! equal the pinned value, which fixes the wire format and its contents
//! however the simulator holds these buffers in memory, and resuming the
//! checkpoint must reproduce the plain run.

use lazydram_common::{DramPreset, Scheme};
use lazydram_gpu::RunOutcome;
use lazydram_workloads::{by_name, SimBuilder};

/// `(app, pause cycle, label suffix of the buffers that must be non-empty,
/// pinned checkpoint digest)`.
const PINS: [(&str, u64, &str, u64); 3] = [
    ("inversek2j", 640, "prog[0]/vals", 0xaaa1553e0589aae4),
    ("jmeint", 500, "prog[0]/vals", 0xefa39fbccb6aada4),
    ("3DCONV", 358, "/last_loaded", 0x7492ec15a70c6e12),
];

#[test]
fn paused_checkpoints_keep_their_bytes_and_resume_exactly() {
    for (app, at, filled_label, want) in PINS {
        let spec = by_name(app).expect("app");
        let run = SimBuilder::new(&spec)
            .scheme(Scheme::Baseline)
            .preset(DramPreset::Gddr5)
            .scale(0.05)
            .build();
        let plain = run.run();
        let RunOutcome::Paused(ck) = run.run_until(at) else {
            panic!("{app}: finished before cycle {at}");
        };
        let filled = run
            .checkpoint_fields(&ck)
            .expect("checkpoint restores")
            .iter()
            .filter(|(k, v)| k.ends_with(filled_label) && !v.starts_with("[f32; 0]"))
            .count();
        assert!(filled > 0, "{app}: no `{filled_label}` buffer holds values at cycle {at}");
        assert_eq!(
            ck.digest(),
            want,
            "{app}: checkpoint at cycle {at} drifted (got digest {:#018x})",
            ck.digest()
        );
        let resumed = run.resume(&ck).expect("checkpoint resumes");
        assert_eq!(plain.output, resumed.output, "{app}: resumed output differs");
        assert_eq!(plain.stats, resumed.stats, "{app}: resumed stats differ");
    }
}
