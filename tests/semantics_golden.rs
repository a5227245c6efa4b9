//! Pins the simulation semantics behind the result cache.
//!
//! The content-addressed store (`lazydram::bench::store`) folds
//! [`lazydram::common::SEMANTICS_VERSION`] into every cache key, trusting
//! that two builds with the same version compute identical measurements.
//! This test makes that contract enforceable: it runs a small fixed set of
//! cells and digests their exact stored bytes.
//!
//! * **If this test fails and you changed simulator behavior on purpose**
//!   (timing, scheduling, energy, workload inputs, statistics): bump
//!   `SEMANTICS_VERSION` in `crates/common/src/lib.rs` — invalidating every
//!   existing cache entry — and re-pin `PINNED` below with the printed
//!   values.
//! * **If you did not mean to change behavior**: this is a regression; the
//!   digest caught results drifting. Fix the code, not the pin.
//! * Speed-only changes (dormancy, parallelism, allocation) must NOT
//!   trip this test — if one does, it changed results, not just speed.
//! * **Wire-format changes** (a new serialized statistics field, a `snap`
//!   frame version bump) change the stored *bytes* without changing the
//!   measured results. Those re-pin the digest here and bump
//!   `STORE_VERSION` in `crates/bench/src/store.rs`, but leave
//!   `SEMANTICS_VERSION` alone — prove results are untouched via the
//!   bit-identity suites (`tests/fast_forward_equivalence.rs` and the
//!   tier1 figure captures) before re-pinning.

use lazydram::bench::store::encode_entry;
use lazydram::bench::{measure, Measurement};
use lazydram::common::snap::{digest, fold};
use lazydram::common::{DramPreset, SEMANTICS_VERSION};
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder};

/// `(SEMANTICS_VERSION, golden digest)` — see the module docs for the
/// re-pin protocol. (The digest covers stored bytes, so `STORE_VERSION`
/// bumps re-pin it too; v3 re-pin carried no behavior change — the
/// default-machine cells were byte-identical across the bump.) Version 2
/// prices HBM sweep cells with their own energy profile. These GDDR5 cells
/// measure the same as under version 1 (whose digest was
/// `0xd2c685aaa0c7f114`); their stored bytes moved only because an entry
/// embeds the semantics version. Re-pinned for `STORE_VERSION` 4, which
/// dropped the three loop counters from the stored statistics (version-2
/// digest before it: `0x86a12183b8ff06a6`); the measurement JSON of every
/// fig04 and fig12 capture cell lost only those three keys.
const PINNED: (u64, u64) = (2, 0x2ba1acc5f89f3277);

fn cell(app: &str, scheme: Scheme) -> Measurement {
    let app = by_name(app).expect("known app");
    let run = SimBuilder::new(&app)
        .preset(DramPreset::Gddr5)
        .scheme(scheme)
        .scale(0.05)
        .build();
    let exact = run.exact_output();
    measure(&run, &exact)
}

#[test]
fn semantics_version_pins_golden_outputs() {
    // A small cross-section: the baseline path, the full combined scheme
    // (DMS delay + AMS approximation + value prediction), and a pure-DMS
    // cell on a second app. Digested over the exact bytes the store would
    // serve, so anything the cache can possibly return is covered.
    let mut h = 0u64;
    for m in [
        cell("SCP", Scheme::Baseline),
        cell("SCP", Scheme::DynCombo),
        cell("GEMM", Scheme::DynDms),
    ] {
        h = fold(h, digest(&encode_entry(0, &m)));
    }
    assert_eq!(
        (SEMANTICS_VERSION, h),
        PINNED,
        "simulation semantics drifted from the pinned golden outputs \
         (got version {SEMANTICS_VERSION}, digest {h:#018x}). If the behavior change is \
         intentional, bump SEMANTICS_VERSION in crates/common/src/lib.rs (this \
         invalidates all cached results) and re-pin PINNED in this test; \
         otherwise find and fix the regression."
    );
}
