//! Snapshot pin: the bytes of a paused run's state dump, taken while
//! warp-side buffers are in use, are fixed.
//!
//! Each case pauses a baseline GDDR5 run at scale 0.05 mid-run, at a cycle
//! where the named buffers hold data:
//!
//! * a `MapProgram`'s batch rows (`prog[0]/vals`) for the map apps;
//! * an SM slot's completed-but-not-yet-consumed load (`last_loaded`) for
//!   3DCONV (at this scale the map apps' warps consume every load in the
//!   cycle it completes, so their pauses never catch `last_loaded` filled);
//! * a slot blocked on a load, whose parked lanes are written as
//!   `lane_addrs`, for inversek2j (strided array-of-structs lanes);
//! * a slot holding a store parked on request-NoC backpressure, whose lanes
//!   are written as `writes`, for SLA.
//!
//! The dump digest must equal the pinned value, which fixes the wire format
//! and its contents however the simulator holds these buffers in memory.
//! A labelled dump must carry the same bytes as a plain one.

use lazydram_common::{DramPreset, Scheme};
use lazydram_gpu::RunOutcome;
use lazydram_workloads::{by_name, SimBuilder};

/// A dump's labeled fields, as `(path, rendered value)`.
type Fields = [(String, String)];

/// Some field whose path ends with `label` is a non-empty `f32` slice.
fn filled_vals(fields: &Fields, label: &str) -> bool {
    fields
        .iter()
        .any(|(k, v)| k.ends_with(label) && !v.starts_with("[f32; 0]"))
}

/// The value of the field at `path`.
fn field<'a>(fields: &'a Fields, path: &str) -> Option<&'a str> {
    fields
        .iter()
        .find(|(k, _)| k == path)
        .map(|(_, v)| v.as_str())
}

/// The path prefixes (ending in `/`) of the warp slots whose field `label`
/// reads `value`.
fn slots_with<'a>(
    fields: &'a Fields,
    label: &'a str,
    value: &'a str,
) -> impl Iterator<Item = &'a str> {
    fields.iter().filter_map(move |(k, v)| {
        let prefix = k.strip_suffix(label)?;
        let slot = prefix.strip_suffix('/')?.rsplit('/').next()?;
        (slot.starts_with("slot[") && v == value).then_some(prefix)
    })
}

/// `prog[0]/vals`: some `MapProgram` batch row holds values.
fn map_rows(fields: &Fields) -> bool {
    filled_vals(fields, "prog[0]/vals")
}

/// `/last_loaded`: some slot holds a completed, unconsumed load.
fn unconsumed_load(fields: &Fields) -> bool {
    filled_vals(fields, "/last_loaded")
}

/// Some slot is `Waiting` (state 2) on a load with parked lanes.
fn waiting_load(fields: &Fields) -> bool {
    slots_with(fields, "state", "2").any(|slot| {
        field(fields, &format!("{slot}lane_addrs")).is_some_and(|v| !v.starts_with("[u64; 0]"))
    })
}

/// Some slot holds a parked store with lanes.
fn parked_store(fields: &Fields) -> bool {
    slots_with(fields, "store_parked", "1")
        .any(|slot| field(fields, &format!("{slot}writes")).is_some_and(|v| v != "0"))
}

/// `(app, pause cycle, what must hold at the pause, its name, pinned
/// dump digest)`. Re-pinned when the dump dropped its loop-mode state: the
/// `mach` frame's loop counters and each NoC queue's per-cycle pop budget
/// went, a request-NoC head retried under backpressure keeps its own ready
/// stamp instead of the last retry's cycle, and the config digest covers
/// one loop switch instead of two. Every other field kept its value.
/// Re-pinned again when the `stat` frame dropped its three loop counters
/// (`cycles_skipped`, `compute_cycles_skipped`, `ticks_executed`); a
/// labelled field diff of all five dumps showed no other change.
/// Re-pinned again when `GpuConfig` lost its `backend` field: its debug
/// form, and so `meta[0]/cfg_digest`, changed; a labelled field diff of
/// all five dumps showed that digest as the only differing field.
type Pin = (&'static str, u64, fn(&Fields) -> bool, &'static str, u64);

const PINS: [Pin; 5] = [
    (
        "inversek2j",
        640,
        map_rows,
        "prog[0]/vals",
        0xafa1aca75592ddb4,
    ),
    ("jmeint", 500, map_rows, "prog[0]/vals", 0x86a6238915d58bc1),
    (
        "3DCONV",
        358,
        unconsumed_load,
        "/last_loaded",
        0x9da2745aef3b557c,
    ),
    (
        "inversek2j",
        300,
        waiting_load,
        "a waiting slot's lane_addrs",
        0xc63f81576cb38984,
    ),
    (
        "SLA",
        300,
        parked_store,
        "a parked store's writes",
        0x252e4dd6104252cb,
    ),
];

#[test]
fn paused_dumps_keep_their_bytes() {
    for (app, at, holds, what, want) in PINS {
        let spec = by_name(app).expect("app");
        let run = SimBuilder::new(&spec)
            .scheme(Scheme::Baseline)
            .preset(DramPreset::Gddr5)
            .scale(0.05)
            .build();
        let RunOutcome::Paused(ck) = run.run_until(at) else {
            panic!("{app}: finished before cycle {at}");
        };
        assert_eq!(
            ck.digest(),
            want,
            "{app}: dump at cycle {at} drifted (got digest {:#018x})",
            ck.digest()
        );
        let RunOutcome::Paused(labelled) = run.run_until_labelled(at) else {
            panic!("{app}: labelled run finished before cycle {at}");
        };
        assert_eq!(
            labelled.as_bytes(),
            ck.as_bytes(),
            "{app}: labels moved dump bytes"
        );
        assert!(
            holds(labelled.fields()),
            "{app}: no {what} holds data at cycle {at}"
        );
    }
}
