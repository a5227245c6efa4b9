//! Micro-benchmarks for the hot data structures: pending-queue operations,
//! FR-FCFS candidate selection, DRAM channel commands, cache lookups, and
//! the address map.
//!
//! Uses a small self-contained timing harness (adaptive batching around
//! `std::hint::black_box`) instead of `criterion`, which is unavailable in
//! the offline build environment. Reported numbers are median-of-5 batch
//! averages — stable enough to track order-of-magnitude regressions.

use lazydram_common::{
    AccessKind, AddressMap, GpuConfig, Location, MemSpace, Request, RequestId, SchedConfig,
};
use lazydram_core::{MemoryController, PendingQueue};
use lazydram_dram::Channel;
use lazydram_gpu::Cache;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` adaptively: grows the batch size until one batch takes ≥ 50 ms,
/// then reports the median ns/iteration over five batches.
fn bench(name: &str, mut f: impl FnMut()) {
    // Warm up + find a batch size.
    let mut batch: u64 = 1;
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed() >= Duration::from_millis(50) || batch >= 1 << 30 {
            break;
        }
        batch *= 4;
    }
    let mut per_iter: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.total_cmp(b));
    println!("{name:<28} {:>12.1} ns/iter   (batch {batch})", per_iter[2]);
}

fn mkreq(map: &AddressMap, id: u64) -> Request {
    let addr = map.line_of(id.wrapping_mul(0x9E37_79B9) % (1 << 30));
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

fn bench_queue(map: &AddressMap) {
    let reqs: Vec<Request> = (0..128u64).map(|i| mkreq(map, i)).collect();
    bench("queue_push_remove_128", || {
        let mut q = PendingQueue::new(128, 16, 4);
        for &r in &reqs {
            q.push(r).unwrap();
        }
        for r in &reqs {
            black_box(q.remove(r.loc.flat_bank(4), r.id));
        }
    });
    let mut q = PendingQueue::new(128, 16, 4);
    for &r in &reqs {
        q.push(r).unwrap();
    }
    bench("queue_visible_rbl", || {
        black_box(q.visible_rbl(3, 7));
    });
    // Worst case: the whole queue in one bank, so every row query scans
    // all 128 entries (the row asked for is never pending).
    let mut q = PendingQueue::new(128, 16, 4);
    for (i, &r) in reqs.iter().enumerate() {
        let loc = Location {
            bank_group: 0,
            bank_in_group: 0,
            row: i as u32 % 16,
            ..r.loc
        };
        q.push(Request { loc, ..r }).unwrap();
    }
    bench("queue_single_bank_128", || {
        black_box(q.oldest_for_row(0, 99));
        black_box(q.visible_rbl(0, 99));
    });
}

fn bench_controller_tick(cfg: &GpuConfig, map: &AddressMap) {
    let mut mc = MemoryController::new(cfg, &SchedConfig::baseline());
    let mut next = 0u64;
    for _ in 0..96 {
        next += 1;
        let _ = mc.enqueue(mkreq(map, next));
    }
    let mut out = Vec::new();
    bench("controller_tick_loaded", || {
        if mc.pending_len() < 64 {
            for _ in 0..32 {
                next += 1;
                let _ = mc.enqueue(mkreq(map, next));
            }
        }
        out.clear();
        mc.tick(&mut out);
        black_box(&mut out);
    });
}

fn bench_channel(cfg: &GpuConfig) {
    bench("channel_act_cas_pre", || {
        let mut ch = Channel::new(cfg);
        let mut t = 0u64;
        for row in 0..8u32 {
            while !ch.can_activate(0, t) {
                t += 1;
            }
            ch.activate(0, row, t);
            while !ch.can_cas(0, AccessKind::Read, t) {
                t += 1;
            }
            ch.cas(0, AccessKind::Read, true, t);
            while !ch.can_precharge(0, t) {
                t += 1;
            }
            ch.precharge(0, t);
        }
        black_box(ch.stats().activations);
    });
}

fn bench_cache() {
    let mut l2 = Cache::new(128 * 1024, 8, 128);
    let mut i = 0u64;
    bench("l2_access_fill", || {
        i = i.wrapping_add(0x9E37).wrapping_mul(31) % (1 << 24);
        let a = i * 128;
        if l2.access(a, false) == lazydram_gpu::AccessResult::Miss {
            l2.fill(a, false);
        }
    });
    let mut l2 = Cache::new(128 * 1024, 8, 128);
    for i in 0..512u64 {
        l2.fill(i * 37 * 128, false);
    }
    bench("l2_nearest_resident", || {
        black_box(l2.nearest_resident(12_345_600, 4));
    });
}

fn bench_addr(map: &AddressMap) {
    let mut a = 0u64;
    bench("addr_decompose", || {
        a = a.wrapping_add(4096);
        black_box(map.decompose(a));
    });
}

fn main() {
    let cfg = GpuConfig::default();
    let map = AddressMap::new(&cfg);
    println!("=== micro-benchmarks (hot structures) ===");
    bench_queue(&map);
    bench_controller_tick(&cfg, &map);
    bench_channel(&cfg);
    bench_cache();
    bench_addr(&map);
}
