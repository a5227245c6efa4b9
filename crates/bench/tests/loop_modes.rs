//! The loop modes are result-invisible: SCP's fig04 cells (the baseline and
//! the DMS delay sweep) at scale 0.05, run in four modes — naive
//! cycle-by-cycle, idle-only fast-forward, full fast-forward (the default,
//! with dormancy), and full fast-forward without dormancy — must produce
//! the same measurement JSON once the loop counters, which legitimately
//! differ between fast-forward modes, are stripped. Dormancy leaves even
//! the loop counters alone, so the last two modes must match byte for byte.

use lazydram_bench::{measure, SimBuilder};
use lazydram_common::{DmsMode, SchedConfig};
use lazydram_workloads::by_name;

const SCALE: f64 = 0.05;
/// The delays `benches/fig04_delay_sweep.rs` sweeps.
const DELAYS: [u32; 6] = [64, 128, 256, 512, 1024, 2048];
const LOOP_COUNTERS: [&str; 3] = ["cycles_skipped", "compute_cycles_skipped", "ticks_executed"];

#[derive(Debug, Clone, Copy)]
struct Mode {
    skip: bool,
    compute_skip: bool,
    dormancy: bool,
}

const NAIVE: Mode = Mode {
    skip: false,
    compute_skip: false,
    dormancy: true,
};
const IDLE_ONLY: Mode = Mode {
    skip: true,
    compute_skip: false,
    dormancy: true,
};
const FULL: Mode = Mode {
    skip: true,
    compute_skip: true,
    dormancy: true,
};
const FULL_AWAKE: Mode = Mode {
    skip: true,
    compute_skip: true,
    dormancy: false,
};

/// Removes every `"key":<digits>,` pair for the loop counters.
fn strip_loop_counters(json: &str) -> String {
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

fn cells(mode: Mode) -> Vec<String> {
    let app = by_name("SCP").expect("SCP is a suite app");
    let mut scheds = vec![(SchedConfig::baseline(), "baseline".to_string())];
    scheds.extend(DELAYS.iter().map(|&x| {
        (
            SchedConfig {
                dms: DmsMode::Static(x),
                ..SchedConfig::baseline()
            },
            format!("DMS({x})"),
        )
    }));
    let mut exact = None;
    scheds
        .into_iter()
        .map(|(sched, label)| {
            let run = SimBuilder::new(&app)
                .sched(sched, label)
                .scale(SCALE)
                .cycle_skipping(mode.skip)
                .compute_skipping(mode.compute_skip)
                .dormancy(mode.dormancy)
                .build();
            let exact = exact.get_or_insert_with(|| run.exact_output());
            let m = measure(&run, exact);
            assert!(!m.truncated, "{mode:?}: {} hit the cycle limit", m.scheme);
            m.to_json()
        })
        .collect()
}

#[test]
fn strip_removes_only_the_loop_counters() {
    let json = r#"{"a":1,"ticks_executed":42,"cycles_skipped":7,"compute_cycles_skipped":0,"b":2}"#;
    assert_eq!(strip_loop_counters(json), r#"{"a":1,"b":2}"#);
}

#[test]
fn fig04_scp_cells_agree_across_loop_modes() {
    let full = cells(FULL);
    assert_eq!(
        cells(FULL_AWAKE),
        full,
        "dormancy changed a result or a loop counter"
    );
    let strip = |v: &[String]| v.iter().map(|j| strip_loop_counters(j)).collect::<Vec<_>>();
    let full = strip(&full);
    assert_eq!(
        strip(&cells(IDLE_ONLY)),
        full,
        "idle-only fast-forward changed a result"
    );
    assert_eq!(
        strip(&cells(NAIVE)),
        full,
        "the naive loop changed a result"
    );
}
