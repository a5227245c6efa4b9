//! Helpers shared by the suites that hold the fast loop to the reference
//! loop (`tests/fast_forward_equivalence.rs`, `tests/dormancy_equivalence.rs`).

use lazydram::common::SimStats;
use lazydram::gpu::{RunOutcome, RunResult};
use lazydram::{SimBuilder, SimRun};
use std::collections::BTreeMap;

/// The counters that record which loop ran.
pub const LOOP_COUNTERS: [&str; 3] = ["cycles_skipped", "compute_cycles_skipped", "ticks_executed"];

/// `builder` on the fast loop and on the reference loop.
pub fn both(builder: SimBuilder) -> (SimRun, SimRun) {
    (
        builder.clone().build(),
        builder.reference_loop(true).build(),
    )
}

/// Strips the loop counters.
pub fn normalized(stats: &SimStats) -> SimStats {
    let mut s = stats.clone();
    s.cycles_skipped = 0;
    s.compute_cycles_skipped = 0;
    s.ticks_executed = 0;
    s
}

/// Asserts that `fast` and `reference` ran the same simulation, and that
/// each loop's counters account for its cycles.
pub fn assert_same_run(what: &str, fast: &RunResult, reference: &RunResult) {
    assert_eq!(
        reference.stats.cycles_skipped, 0,
        "{what}: the reference loop must not skip"
    );
    // A limit hit counts one final cycle the loop never executes.
    let limit = u64::from(reference.hit_cycle_limit);
    assert_eq!(
        reference.stats.ticks_executed + limit,
        reference.stats.core_cycles,
        "{what}: the reference loop must execute every counted cycle"
    );
    assert_eq!(
        fast.hit_cycle_limit, reference.hit_cycle_limit,
        "{what}: limit flag"
    );
    assert_eq!(fast.output, reference.output, "{what}: outputs differ");
    assert!(fast.trace == reference.trace, "{what}: DRAM traces differ");
    assert_eq!(
        normalized(&fast.stats),
        normalized(&reference.stats),
        "{what}: statistics differ"
    );
    assert!(
        fast.stats.compute_cycles_skipped <= fast.stats.cycles_skipped,
        "{what}: compute skips must be a subset of all skips"
    );
    assert_eq!(
        fast.stats.ticks_executed + fast.stats.cycles_skipped + limit,
        fast.stats.core_cycles,
        "{what}: skip accounting must partition the core cycles"
    );
}

/// Fields that differ between the loops by construction: the config
/// digest (it covers the loop switch) and the loop counters of the
/// completed launches' statistics.
pub fn differs_by_mode(path: &str) -> bool {
    path == "meta[0]/cfg_digest"
        || path.starts_with("stat[")
            && LOOP_COUNTERS
                .iter()
                .any(|c| path.strip_suffix(c).is_some_and(|p| p.ends_with('/')))
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

/// Removes every `"key":<digits>,` pair for the loop counters.
pub fn strip_loop_counters(json: &str) -> String {
    let mut out = json.to_string();
    for key in LOOP_COUNTERS {
        let pat = format!("\"{key}\":");
        while let Some(at) = out.find(&pat) {
            let digits = out[at + pat.len()..]
                .bytes()
                .take_while(u8::is_ascii_digit)
                .count();
            let mut end = at + pat.len() + digits;
            if out[end..].starts_with(',') {
                end += 1;
            }
            out.replace_range(at..end, "");
        }
    }
    out
}
