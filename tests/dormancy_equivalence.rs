//! Dormancy must be invisible: a run whose executed cycles skip SMs that
//! are not due and controller passes that cannot issue
//! (`SimBuilder::dormancy`, on by default) must match a run that visits
//! every component every cycle — the same measurement JSON (loop counters
//! and AMS decline histogram included), the same output, and the same
//! state-dump bytes at any pause point, on every memory backend.

use lazydram::bench::measure;
use lazydram::common::DramPreset;
use lazydram::gpu::RunOutcome;
use lazydram::workloads::{all_apps, AppSpec};
use lazydram::{Scheme, SimBuilder, SimRun};
use proptest::prelude::*;

const SCALE: f64 = 0.02;

fn build(app: &AppSpec, preset: DramPreset, scheme: Scheme, dormancy: bool) -> SimRun {
    SimBuilder::new(app)
        .preset(preset)
        .scheme(scheme)
        .scale(SCALE)
        .trace(true)
        .dormancy(dormancy)
        .build()
}

fn check(
    app: &AppSpec,
    preset: DramPreset,
    scheme: Scheme,
    pause_frac: u64,
) -> Result<(), TestCaseError> {
    let (on, off) = (
        build(app, preset, scheme, true),
        build(app, preset, scheme, false),
    );
    let exact = on.exact_output();
    let m_on = measure(&on, &exact);
    let m_off = measure(&off, &exact);
    prop_assert_eq!(
        m_on.to_json(),
        m_off.to_json(),
        "{}/{}: measurements",
        app.name,
        scheme.label()
    );
    let reference = off.run();
    let pause_at = reference.stats.core_cycles * pause_frac / 100;
    let (ck_on, ck_off) = match (on.run_until(pause_at), off.run_until(pause_at)) {
        (RunOutcome::Paused(a), RunOutcome::Paused(b)) => (a, b),
        (RunOutcome::Done(a), RunOutcome::Done(b)) => {
            prop_assert_eq!(&a.output, &b.output);
            prop_assert!(
                a.stats == b.stats,
                "{}/{}: finished runs differ",
                app.name,
                scheme.label()
            );
            return Ok(());
        }
        _ => {
            return Err(TestCaseError::fail(format!(
                "{}/{}: only one run paused",
                app.name,
                scheme.label()
            )))
        }
    };
    prop_assert!(
        ck_on.as_bytes() == ck_off.as_bytes(),
        "{}/{}: dump bytes differ at cycle {}",
        app.name,
        scheme.label(),
        pause_at
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dormancy_is_invisible(
        app_pick in 0usize..64,
        preset_pick in 0usize..64,
        pause_frac in 0u64..100,
    ) {
        let apps = all_apps();
        let app = &apps[app_pick % apps.len()];
        let preset = DramPreset::ALL[preset_pick % DramPreset::ALL.len()];
        for scheme in Scheme::ALL {
            check(app, preset, scheme, pause_frac)?;
        }
    }
}
