//! Figure 8: DMS makes AMS drop the *right* request. A nine-request
//! micro-trace over five rows of one bank: AMS alone drops the oldest
//! request (wrongly), AMS+DMS drops the only true RBL(1) row.

use lazydram_bench::{Job, RunEnv};
use lazydram_common::{
    AccessKind, AddressMap, AmsMode, DmsMode, GpuConfig, MemSpace, Request, RequestId, SchedConfig,
};
use lazydram_core::MemoryController;

fn mkreq(map: &AddressMap, id: u64, row: u32, col: u16) -> Request {
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

fn run(dms: DmsMode) -> (Vec<u64>, u64, f64) {
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
    let mut id = 0;
    for row in 1..=5u32 {
        id += 1;
        mc.enqueue(mkreq(&map, id, row, 0)).unwrap();
    }
    let mut dropped = Vec::new();
    let mut out = Vec::new();
    let mut batch = Vec::new();
    for _ in 0..20 {
        batch.clear();
        mc.tick(&mut batch);
        out.append(&mut batch);
    }
    for row in 1..=4u32 {
        id += 1;
        mc.enqueue(mkreq(&map, id, row, 1)).unwrap();
    }
    for _ in 0..20_000 {
        batch.clear();
        mc.tick(&mut batch);
        out.append(&mut batch);
        if mc.is_idle() {
            break;
        }
    }
    let _ = mc.drain();
    for r in out {
        if r.approximated {
            dropped.push(r.id.0);
        }
    }
    let st = mc.stats();
    (dropped, st.activations, st.rbl.avg_rbl())
}

fn main() {
    println!("=== Figure 8: drop accuracy of AMS alone vs AMS+DMS ===");
    println!("nine requests over rows R1..R5 of one bank; second batch to R1..R4 arrives late\n");
    let runner = RunEnv::load().runner();
    let results = runner.run(vec![
        Job::new("fig08/AMS-alone", || run(DmsMode::Off)),
        Job::new("fig08/AMS+DMS", || run(DmsMode::Static(64))),
    ]);
    let captions = [
        ("AMS alone  ", "(oldest, row R1 — inaccurate)"),
        ("AMS + DMS  ", "(request 5, row R5 — the true RBL(1) row)"),
    ];
    for (res, (tag, note)) in results.iter().zip(captions) {
        match res {
            Ok((d, acts, rbl)) => {
                println!("{tag}: dropped request ids {d:?} {note}");
                println!("             activations {acts}, Avg-RBL {rbl:.2}");
            }
            Err(f) => println!("{tag}: FAILED — {}", f.message),
        }
    }
}
