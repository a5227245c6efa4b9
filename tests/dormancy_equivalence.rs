//! Dormancy must be invisible: the fast loop, which skips SMs that are
//! not due, must match the reference loop (`SimBuilder::reference_loop`),
//! which visits every SM every cycle; in both loops every controller runs
//! one scheduling pass per memory cycle. For a random app and pause point,
//! every machine of the backend matrix runs under every scheme, and each
//! cell must give the same measurement JSON (the AMS decline histogram
//! included), the same output, statistics and DRAM trace, and the same
//! labelled dump fields at the pause.

mod equiv;
mod machines;

use equiv::{assert_same_run, both, field_diff, paused_fields};
use lazydram::bench::measure;
use lazydram::common::GpuConfig;
use lazydram::workloads::{all_apps, AppSpec};
use lazydram::{Scheme, SimBuilder};
use machines::machines;
use proptest::prelude::*;

/// One machine × scheme cell: the measurement JSON, the outputs, and the
/// labelled dump at `pause_frac` percent of the reference run.
fn check_cell(
    app: &AppSpec,
    machine: &str,
    cfg: &GpuConfig,
    scheme: Scheme,
    pause_frac: u64,
) -> Result<(), TestCaseError> {
    let what = format!("{}/{machine}/{}", app.name, scheme.label());
    let (fast, reference) = both(
        SimBuilder::new(app)
            .gpu(cfg.clone())
            .scheme(scheme)
            .scale(0.02)
            .trace(true),
    );
    let exact = fast.exact_output();
    prop_assert_eq!(
        measure(&fast, &exact).to_json(),
        measure(&reference, &exact).to_json(),
        "{}: measurements",
        what
    );
    let want = reference.run();
    assert_same_run(&what, &fast.run(), &want);
    let at = want.stats.core_cycles * pause_frac / 100;
    match (paused_fields(&fast, at), paused_fields(&reference, at)) {
        (Some(got), Some(want)) => {
            let diff = field_diff(&want, &got);
            prop_assert!(diff.is_empty(), "{} at {}: {:?}", what, at, diff);
        }
        (None, None) => {}
        _ => {
            return Err(TestCaseError::fail(format!(
                "{what}: only one loop paused at {at}"
            )))
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dormancy_is_invisible(
        app_pick in 0usize..64,
        pause_frac in 0u64..100,
    ) {
        let apps = all_apps();
        let app = &apps[app_pick % apps.len()];
        for (machine, cfg) in machines() {
            for scheme in Scheme::ALL {
                check_cell(app, &machine, &cfg, scheme, pause_frac)?;
            }
        }
    }
}
