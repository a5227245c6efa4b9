//! Trace capture + replay at the application level.

use lazydram::common::{AccessKind, GpuConfig, SchedConfig, SimStats};
use lazydram::workloads::by_name;
use lazydram::{Scheme, SimBuilder, Trace, TraceSim};

/// Replays `trace` under `sched` and requires every request served.
fn replay(trace: &Trace, cfg: &GpuConfig, sched: &SchedConfig) -> SimStats {
    let report = TraceSim::new(cfg, sched)
        .replay(trace)
        .expect("valid trace");
    assert_eq!(report.unserved, 0, "replay left requests unserved");
    report.stats
}

#[test]
fn captured_trace_replays_with_matching_request_counts() {
    let app = by_name("CONS").expect("app");
    let cfg = GpuConfig::default();
    let run = SimBuilder::new(&app)
        .scheme(Scheme::Baseline)
        .scale(0.05)
        .trace(true)
        .build()
        .run();
    let trace = run.trace.expect("capture enabled");
    assert_eq!(
        trace.len() as u64,
        run.stats.dram.requests_received,
        "trace records every controller request"
    );
    // Replay through a fresh scheduler: same requests served.
    let stats = replay(&trace, &cfg, &SchedConfig::baseline());
    assert_eq!(
        stats.dram.requests_received,
        run.stats.dram.requests_received
    );
    assert_eq!(
        stats.dram.reads + stats.dram.writes,
        run.stats.dram.reads + run.stats.dram.writes
    );
    // Open-loop replay sees the same address stream: activation counts land
    // in the same ballpark as the closed-loop run.
    let a = stats.dram.activations as f64;
    let b = run.stats.dram.activations as f64;
    assert!(
        a / b > 0.5 && a / b < 2.0,
        "replay acts {a} vs run acts {b}"
    );
}

#[test]
fn trace_capture_off_by_default() {
    let app = by_name("CONS").expect("app");
    let run = SimBuilder::new(&app)
        .scheme(Scheme::Baseline)
        .scale(0.05)
        .build()
        .run();
    assert!(run.trace.is_none());
}

#[test]
fn trace_replay_responds_to_dms() {
    let app = by_name("SCP").expect("app");
    let cfg = GpuConfig::default();
    let run = SimBuilder::new(&app)
        .scheme(Scheme::Baseline)
        .scale(0.1)
        .trace(true)
        .build()
        .run();
    let trace = run.trace.expect("capture enabled");
    let base = replay(&trace, &cfg, &SchedConfig::baseline());
    let dms = replay(
        &trace,
        &cfg,
        &SchedConfig {
            dms: lazydram::common::DmsMode::Static(512),
            ..SchedConfig::baseline()
        },
    );
    // The delayed replay must not lose requests and should not *increase*
    // activations by more than noise.
    assert_eq!(
        dms.dram.reads + dms.dram.writes,
        base.dram.reads + base.dram.writes
    );
    assert!(
        (dms.dram.activations as f64) < 1.15 * base.dram.activations as f64,
        "DMS replay acts {} vs {}",
        dms.dram.activations,
        base.dram.activations
    );
}

fn capture(app_name: &str, scale: f64) -> Trace {
    let app = by_name(app_name).expect("app");
    SimBuilder::new(&app)
        .scheme(Scheme::Baseline)
        .scale(scale)
        .trace(true)
        .build()
        .run()
        .trace
        .expect("capture enabled")
}

/// Write requests must survive capture and replay — the original replayer
/// was only ever exercised on read-dominated streams.
#[test]
fn write_requests_replay_fully() {
    let cfg = GpuConfig::default();
    let trace = capture("CONS", 0.05);
    let writes_recorded = trace
        .iter()
        .filter(|e| e.request.kind == AccessKind::Write)
        .count() as u64;
    assert!(
        writes_recorded > 0,
        "CONS's trace must contain write requests"
    );
    let report = TraceSim::new(&cfg, &SchedConfig::baseline())
        .replay(&trace)
        .expect("replay");
    assert_eq!(report.unserved, 0, "no request may be dropped");
    assert_eq!(
        report.stats.dram.writes, writes_recorded,
        "every write is served"
    );
    assert_eq!(
        report.stats.dram.reads + report.stats.dram.writes,
        trace.len() as u64
    );
}

/// Approximable lines must keep their annotation through capture so an
/// AMS replay can drop them — and dropped-by-AMS still counts
/// as served, not lost.
#[test]
fn approximable_lines_replay_under_ams() {
    let cfg = GpuConfig::default();
    let trace = capture("SCP", 0.05);
    assert!(
        trace.iter().any(|e| e.request.approximable),
        "SCP's trace must carry approximable lines"
    );
    let sched = SchedConfig {
        ams: lazydram::common::AmsMode::Static(4),
        ams_warmup_requests: 0,
        ..SchedConfig::baseline()
    };
    let report = TraceSim::new(&cfg, &sched).replay(&trace).expect("replay");
    assert!(
        report.stats.dram.dropped > 0,
        "AMS must approximate some lines"
    );
    assert_eq!(
        report.unserved, 0,
        "AMS drops count as served, not unserved"
    );
    assert_eq!(
        report.served,
        report.stats.dram.reads + report.stats.dram.writes + report.stats.dram.dropped
    );
}
