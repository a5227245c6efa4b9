//! A pedagogical walk through the paper's two illustrative examples using
//! the memory controller directly (no GPU substrate):
//!
//! * Figure 3 — delaying lets the controller coalesce two bursts of
//!   requests to the same four rows into half the activations;
//! * Figure 8 — with DMS, AMS drops the *right* (truly low-RBL) request.
//!
//! ```text
//! cargo run --release --example scheduler_traces
//! ```

use lazydram::common::{
    AccessKind, AddressMap, AmsMode, DmsMode, GpuConfig, MemSpace, Request, RequestId, SchedConfig,
};
use lazydram::core::MemoryController;
use lazydram::gpu::{Trace, TraceEntry, TraceSim};

fn request(map: &AddressMap, id: u64, row: u32, col: u16) -> Request {
    let g = GpuConfig::default();
    let region_bytes = (g.row_bytes * g.num_channels) as u64;
    let rows_span = (g.banks_per_channel as u64) * region_bytes;
    let col_off = (u64::from(col) / 2) * (256 * 6) + (u64::from(col) % 2) * 128;
    let addr = map.line_of(u64::from(row) * rows_span + col_off);
    Request {
        id: RequestId(id),
        addr,
        loc: map.decompose(addr),
        kind: AccessKind::Read,
        space: MemSpace::Global,
        approximable: true,
        arrival: 0,
    }
}

fn drive(mc: &mut MemoryController, cycles: u64) -> Vec<(u64, bool)> {
    let mut served = Vec::new();
    let mut out = Vec::new();
    for _ in 0..cycles {
        out.clear();
        mc.tick(&mut out);
        for r in &out {
            served.push((r.id.0, r.approximated));
        }
    }
    served
}

fn fig3(delay: DmsMode, label: &str) {
    let cfg = GpuConfig::default();
    let map = AddressMap::new(&cfg);
    let mut mc = MemoryController::new(
        &cfg,
        &SchedConfig {
            dms: delay,
            ..SchedConfig::baseline()
        },
    );
    // First burst: one request to each of R1..R4.
    for row in 1..=4u32 {
        mc.enqueue(request(&map, u64::from(row), row, 0)).unwrap();
    }
    let mut served = drive(&mut mc, 150);
    // Second burst, 150 memory cycles later, to the same rows.
    for row in 1..=4u32 {
        mc.enqueue(request(&map, u64::from(row) + 4, row, 1))
            .unwrap();
    }
    for _ in 0..30_000 {
        let mut out = Vec::new();
        mc.tick(&mut out);
        served.extend(out.into_iter().map(|r| (r.id.0, r.approximated)));
        if mc.is_idle() {
            break;
        }
    }
    let _ = mc.drain();
    let st = mc.stats();
    println!(
        "  {label:<18} activations {} (8 requests)  Avg-RBL {:.2}  order {:?}",
        st.activations,
        st.rbl.avg_rbl(),
        served.iter().map(|s| s.0).collect::<Vec<_>>()
    );
}

fn main() {
    println!("=== Figure 3: timely vs delayed scheduling of two request bursts ===");
    fig3(DmsMode::Off, "baseline FR-FCFS:");
    fig3(DmsMode::Static(256), "DMS(256):");
    println!("  → the delayed scheduler opens each row once instead of twice\n");

    println!("=== Figure 8: which request does AMS drop? ===");
    for (dms, label) in [
        (DmsMode::Off, "AMS(1) alone"),
        (DmsMode::Static(64), "AMS(1) + DMS(64)"),
    ] {
        let cfg = GpuConfig::default();
        let map = AddressMap::new(&cfg);
        let sched = SchedConfig {
            dms,
            ams: AmsMode::Static(1),
            ams_warmup_requests: 0,
            coverage_cap: 0.11,
            ..SchedConfig::baseline()
        };
        let mut mc = MemoryController::new(&cfg, &sched);
        for row in 1..=5u32 {
            mc.enqueue(request(&map, u64::from(row), row, 0)).unwrap();
        }
        let mut served = drive(&mut mc, 20);
        for row in 1..=4u32 {
            mc.enqueue(request(&map, u64::from(row) + 5, row, 1))
                .unwrap();
        }
        for _ in 0..30_000 {
            let mut out = Vec::new();
            mc.tick(&mut out);
            served.extend(out.into_iter().map(|r| (r.id.0, r.approximated)));
            if mc.is_idle() {
                break;
            }
        }
        let _ = mc.drain();
        let dropped: Vec<u64> = served.iter().filter(|s| s.1).map(|s| s.0).collect();
        let st = mc.stats();
        println!(
            "  {label:<18} dropped req {dropped:?}  activations {}  Avg-RBL {:.2}",
            st.activations,
            st.rbl.avg_rbl()
        );
    }
    println!("  → delaying makes the approximation decision accurate (R5, the true RBL(1) row)");

    // The same Figure-3 story, replayed open-loop: record the two bursts as
    // an in-memory Trace (what `SimBuilder::trace` captures from a run,
    // DESIGN.md §11) and push it through the MC+DRAM-only replayer under
    // both policies.
    println!("\n=== Figure 3 again, as an open-loop trace replay ===");
    let cfg = GpuConfig::default();
    let map = AddressMap::new(&cfg);
    let mut trace = Trace::new();
    for row in 1..=4u32 {
        let req = request(&map, u64::from(row), row, 0);
        trace.push(TraceEntry {
            cycle: 0,
            channel: map.channel_of(req.addr) as u16,
            request: req,
        });
    }
    for row in 1..=4u32 {
        let req = request(&map, u64::from(row) + 4, row, 1);
        trace.push(TraceEntry {
            cycle: 150,
            channel: map.channel_of(req.addr) as u16,
            request: req,
        });
    }
    for (dms, label) in [
        (DmsMode::Off, "baseline FR-FCFS:"),
        (DmsMode::Static(256), "DMS(256):"),
    ] {
        let sched = SchedConfig {
            dms,
            ..SchedConfig::baseline()
        };
        let report = TraceSim::new(&cfg, &sched)
            .replay(&trace)
            .expect("valid trace");
        assert_eq!(report.unserved, 0);
        println!(
            "  {label:<18} activations {} ({} requests served in {} memory cycles)",
            report.stats.dram.activations, report.served, report.replay_cycles
        );
    }
    println!("  → the replayer reproduces the activation savings without any GPU substrate");
}
