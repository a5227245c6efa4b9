//! Outside probes of single layers, run only in a traced run so they never
//! touch the untraced numbers. Each times calls into one layer's public
//! functions and counts its operations in the run's report.

use crate::report::Report;
use crate::stats::median;
use lazydram_bench::{CacheMode, Fidelity, SimBuilder, Store, TraceSim};
use lazydram_common::{AccessKind, GpuConfig, SchedConfig};
use lazydram_dram::Channel;
use lazydram_gpu::Trace;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Every probe repeats its measurement this often and reports the median.
const REPS: usize = 3;

/// `core.replay_ns_per_req`: host nanoseconds per recorded request of
/// `TraceSim::replay` over `traces` under `sched`. Every unserved request
/// counts as a failed operation.
pub fn replay_ns_per_req(
    cfg: &GpuConfig,
    sched: &SchedConfig,
    traces: &[Trace],
    r: &mut Report,
) -> f64 {
    let requests: usize = traces.iter().map(Trace::len).sum();
    let mut ns = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        for trace in traces {
            let unserved = match TraceSim::new(cfg, sched).replay(trace) {
                Ok(report) => report.unserved,
                Err(_) => trace.len() as u64,
            };
            r.attempted += trace.len() as u64;
            r.failed += unserved;
            r.check("replay_complete", unserved == 0);
        }
        ns.push(t.elapsed().as_secs_f64() * 1e9 / requests.max(1) as f64);
    }
    median(&ns)
}

/// `dram.cmd_ns`: host nanoseconds per command of an ACT→RD→PRE loop over
/// one `Channel`'s banks, each command issued at its first legal cycle.
pub fn channel_cmd_ns(cfg: &GpuConfig, r: &mut Report) -> f64 {
    const ROWS: u64 = 200_000;
    let mut ns = Vec::new();
    for _ in 0..REPS {
        let mut ch = Channel::new(cfg);
        let banks = ch.num_banks();
        let mut now = 0u64;
        let t = Instant::now();
        for i in 0..ROWS {
            let bank = i as usize % banks;
            while !ch.can_activate(bank, now) {
                now += 1;
            }
            ch.activate(bank, black_box(i as u32), now);
            while !ch.can_cas(bank, AccessKind::Read, now) {
                now += 1;
            }
            ch.cas(bank, AccessKind::Read, true, now);
            while !ch.can_precharge(bank, now) {
                now += 1;
            }
            ch.precharge(bank, now);
        }
        ns.push(t.elapsed().as_secs_f64() * 1e9 / (3 * ROWS) as f64);
        let s = ch.stats();
        r.check(
            "channel_probe_counts",
            s.activations == ROWS && s.reads == ROWS && s.precharges == ROWS,
        );
    }
    median(&ns)
}

/// `bench.store.lookup_us`: the median microseconds of one direct
/// `Store::lookup` per cell, on a fresh `Store` over `dir` so every hit
/// reads from disk. A miss counts as a failed operation.
pub fn store_lookup_us(dir: &Path, cells: &[SimBuilder], r: &mut Report) -> f64 {
    let store = Store::open(dir, CacheMode::Auto).unwrap_or_else(|e| panic!("{e}"));
    let mut us = Vec::new();
    for b in cells {
        let key = Store::cell_key(b.cell_digest(), Fidelity::Execute);
        let t = Instant::now();
        let hit = store.lookup(key, b.app().name, b.scheme_label());
        us.push(t.elapsed().as_secs_f64() * 1e6);
        r.attempt(hit.is_some());
        r.check("lookup_all_hits", hit.is_some());
    }
    median(&us)
}

/// `prof.overhead_frac`: runs the untraced build at `bin` on the same
/// workload, seed and duration, and returns its `wall_s`. The traced run's
/// own `wall_s` over this, minus one, is what the profiler costs.
pub fn untraced_wall_s(bin: &Path, args: &[String]) -> Result<f64, String> {
    let out = Command::new(bin)
        .args(args)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", bin.display()))?;
    if !out.status.success() {
        return Err(format!("{} exited with {}", bin.display(), out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| crate::json::Json::parse(l).ok())
        .find_map(|rec| rec.get("metrics")?.get("wall_s")?.as_f64())
        .ok_or_else(|| format!("{} printed no wall_s", bin.display()))
}
