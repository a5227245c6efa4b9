//! Helpers shared by the suites that hold the fast loop to the reference
//! loop (`tests/fast_forward_equivalence.rs`, `tests/dormancy_equivalence.rs`).

use lazydram::gpu::{RunOutcome, RunResult};
use lazydram::{SimBuilder, SimRun};
use std::collections::BTreeMap;

/// `builder` on the fast loop and on the reference loop.
pub fn both(builder: SimBuilder) -> (SimRun, SimRun) {
    (
        builder.clone().build(),
        builder.reference_loop(true).build(),
    )
}

/// Asserts that `fast` and `reference` ran the same simulation, with the
/// same number of executed cycles.
pub fn assert_same_run(what: &str, fast: &RunResult, reference: &RunResult) {
    assert_eq!(
        fast.hit_cycle_limit, reference.hit_cycle_limit,
        "{what}: limit flag"
    );
    assert_eq!(fast.output, reference.output, "{what}: outputs differ");
    assert!(fast.trace == reference.trace, "{what}: DRAM traces differ");
    assert_eq!(fast.stats, reference.stats, "{what}: statistics differ");
    assert_eq!(
        fast.stats.ticks_executed, reference.stats.ticks_executed,
        "{what}: both loops execute every cycle"
    );
}

/// Fields that differ between the loops by construction: only the config
/// digest, which covers the loop switch.
pub fn differs_by_mode(path: &str) -> bool {
    path == "meta[0]/cfg_digest"
}

/// The labelled dump of `run` paused at `at`, without the fields
/// [`differs_by_mode`] names; `None` when the run finished first.
pub fn paused_fields(run: &SimRun, at: u64) -> Option<BTreeMap<String, String>> {
    let RunOutcome::Paused(ck) = run.run_until_labelled(at) else {
        return None;
    };
    Some(
        ck.fields()
            .iter()
            .filter(|(path, _)| !differs_by_mode(path))
            .cloned()
            .collect(),
    )
}

/// The first few paths whose values differ between two field maps.
pub fn field_diff<'a>(
    a: &'a BTreeMap<String, String>,
    b: &'a BTreeMap<String, String>,
) -> Vec<&'a String> {
    a.iter()
        .filter(|(k, v)| b.get(*k) != Some(v))
        .map(|(k, _)| k)
        .chain(b.keys().filter(|k| !a.contains_key(*k)))
        .take(5)
        .collect()
}
