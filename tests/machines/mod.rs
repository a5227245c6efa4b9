//! The machines that the channel contract and loop-equivalence suites
//! (`tests/backend_conformance.rs`, `tests/dormancy_equivalence.rs`)
//! iterate over.

use lazydram::common::{DramPreset, DramTimings, GpuConfig};

/// The GDDR5 machine with tFAW, tCCDL and refresh turned on: a test
/// input, not a preset.
fn extended(timings: DramTimings) -> GpuConfig {
    GpuConfig {
        timings,
        ..GpuConfig::default()
    }
}

/// `gddr5_extended` with tFAW stretched to 32. At 23, tFAW never binds:
/// four ACTs span at least 3 x tRRD = 18 cycles and the fifth waits another
/// tRRD (24 > 23), so only a longer window checks the four-ACT rule.
pub fn extended_faw32() -> GpuConfig {
    extended(DramTimings {
        t_faw: 32,
        ..DramTimings::gddr5_extended()
    })
}

/// Every machine, labelled: each preset, then the two extended GDDR5
/// machines (no preset enables tFAW, tCCDL or refresh).
pub fn machines() -> Vec<(String, GpuConfig)> {
    let mut m: Vec<_> = DramPreset::ALL
        .iter()
        .map(|p| (p.label().to_string(), p.gpu_config()))
        .collect();
    m.push((
        "gddr5-extended".to_string(),
        extended(DramTimings::gddr5_extended()),
    ));
    m.push(("gddr5-extended-faw32".to_string(), extended_faw32()));
    m
}
