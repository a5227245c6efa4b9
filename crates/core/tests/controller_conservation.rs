//! Conservation property: every request enqueued into the controller comes
//! out exactly once — served by DRAM (reads produce responses, writes are
//! counted) or dropped — under random traffic and every scheme.

use lazydram_common::{
    AccessKind, AddressMap, GpuConfig, MemSpace, Request, RequestId, SchedConfig,
};
use lazydram_core::MemoryController;
use proptest::prelude::*;
use std::collections::HashSet;

fn run_conservation(
    seed_reqs: Vec<(u32, u8, bool)>,
    sched: SchedConfig,
) -> Result<(), TestCaseError> {
    let cfg = GpuConfig::default();
    let map = AddressMap::new(&cfg);
    let mut mc = MemoryController::new(&cfg, &sched);
    let mut sent: HashSet<u64> = HashSet::new();
    let mut read_ids: HashSet<u64> = HashSet::new();
    let mut responses: Vec<u64> = Vec::new();
    let mut next_id = 0u64;
    let mut pending: Vec<(u32, u8, bool)> = seed_reqs;
    pending.reverse();
    let mut out = Vec::new();

    for _ in 0..2_000_000u64 {
        // Feed one request per cycle while the queue has room.
        if let Some(&(chunk, kind, approx)) = pending.last() {
            if mc.can_accept() {
                pending.pop();
                next_id += 1;
                // Spread addresses over rows/banks of channel 0.
                let addr = map.line_of(u64::from(chunk) * 128 * 7 % (1 << 26));
                let is_write = kind % 3 == 0;
                let req = Request {
                    id: RequestId(next_id),
                    addr,
                    loc: map.decompose(addr),
                    kind: if is_write {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    space: MemSpace::Global,
                    approximable: approx,
                    arrival: 0,
                };
                sent.insert(next_id);
                if !is_write {
                    read_ids.insert(next_id);
                }
                mc.enqueue(req).unwrap();
            }
        }
        out.clear();
        mc.tick(&mut out);
        for r in &out {
            responses.push(r.id.0);
        }
        if pending.is_empty() && mc.is_idle() {
            break;
        }
    }
    prop_assert!(
        pending.is_empty() && mc.is_idle(),
        "controller did not drain"
    );
    let _ = mc.drain();

    // Every read answered exactly once; no duplicates; no unknown ids.
    let mut seen = HashSet::new();
    for id in &responses {
        prop_assert!(read_ids.contains(id), "response for non-read {id}");
        prop_assert!(seen.insert(*id), "duplicate response for {id}");
    }
    prop_assert_eq!(seen.len(), read_ids.len(), "missing responses");

    // Served + dropped == received.
    let st = mc.stats();
    prop_assert_eq!(st.reads + st.writes + st.dropped, st.requests_received);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn baseline_conserves_requests(reqs in prop::collection::vec((0u32..5000, any::<u8>(), any::<bool>()), 1..300)) {
        run_conservation(reqs, SchedConfig::baseline())?;
    }

    #[test]
    fn static_combo_conserves_requests(reqs in prop::collection::vec((0u32..5000, any::<u8>(), any::<bool>()), 1..300)) {
        let sched = SchedConfig { ams_warmup_requests: 10, ..SchedConfig::static_combo() };
        run_conservation(reqs, sched)?;
    }

    #[test]
    fn dyn_combo_conserves_requests(reqs in prop::collection::vec((0u32..5000, any::<u8>(), any::<bool>()), 1..300)) {
        let sched = SchedConfig { ams_warmup_requests: 10, ..SchedConfig::dyn_combo() };
        run_conservation(reqs, sched)?;
    }
}
