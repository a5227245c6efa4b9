//! Property tests for the open-loop trace replayer: for randomly generated
//! (but time-ordered) request streams under assorted scheduling policies,
//! every recorded request is accounted for and replay is deterministic —
//! even when the recorded `arrival` stamps are garbage (replay restamps on
//! its own clock).

use lazydram_common::{
    AccessKind, AddressMap, AmsMode, DmsMode, GpuConfig, MemSpace, Request, RequestId, SchedConfig,
};
use lazydram_gpu::{Trace, TraceEntry, TraceSim};
use proptest::prelude::*;

/// Deterministically generates `n` time-ordered entries from `seed`; the
/// `arrival` stamps are deliberately filled with junk.
fn build_trace(cfg: &GpuConfig, n: usize, seed: u64, gap: u64) -> Trace {
    let map = AddressMap::new(cfg);
    let mut cycle = 0u64;
    let mut state = seed | 1;
    let mut t = Trace::new();
    for i in 0..n {
        state = state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03);
        let addr = map.line_of(state % (1 << 22));
        cycle += state % (gap + 1);
        t.push(TraceEntry {
            cycle,
            channel: map.channel_of(addr) as u16,
            request: Request {
                id: RequestId(i as u64),
                addr,
                loc: map.decompose(addr),
                kind: if state & 0x1_0000 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                },
                space: MemSpace::Global,
                approximable: state & 0x2_0000 != 0,
                arrival: state, // junk on purpose: replay must restamp
            },
        });
    }
    t
}

fn scheme(pick: u8) -> SchedConfig {
    match pick % 4 {
        0 => SchedConfig::baseline(),
        1 => SchedConfig {
            dms: DmsMode::Static(512),
            ..SchedConfig::baseline()
        },
        2 => SchedConfig {
            ams: AmsMode::Static(4),
            ams_warmup_requests: 0,
            ..SchedConfig::baseline()
        },
        _ => SchedConfig {
            dms: DmsMode::Static(128),
            ams: AmsMode::Static(2),
            ams_warmup_requests: 0,
            ..SchedConfig::baseline()
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn replay_accounts_for_every_request_and_is_deterministic(
        n in 1usize..250,
        seed in proptest::arbitrary::any::<u64>(),
        gap in 0u64..40,
        pick in 0u8..4,
    ) {
        let cfg = GpuConfig::default();
        let sched = scheme(pick);
        let trace = build_trace(&cfg, n, seed, gap);
        let a = TraceSim::new(&cfg, &sched).replay(&trace).expect("valid trace");
        // Full accounting, and the generous default drain budget never
        // strands a realistic stream.
        prop_assert_eq!(a.served + a.unserved, n as u64);
        prop_assert_eq!(a.unserved, 0);
        prop_assert_eq!(
            a.served,
            a.stats.dram.reads + a.stats.dram.writes + a.stats.dram.dropped
        );
        // A second replay of the same trace is identical.
        let b = TraceSim::new(&cfg, &sched).replay(&trace).expect("valid trace");
        prop_assert_eq!(a.stats.dram, b.stats.dram);
        prop_assert_eq!(a.replay_cycles, b.replay_cycles);
    }
}
