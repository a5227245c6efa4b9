//! What one benchmark run reports, and the per-layer numbers every
//! workload derives from the simulator's own statistics.

use crate::stats::median;
use lazydram_bench::Measurement;
use lazydram_common::prof::Phase;
use lazydram_common::{ProfReport, SimStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics; reported only from an untraced run.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-layer metrics; reported only from a traced run.
    pub layers: BTreeMap<&'static str, f64>,
    /// Named correctness checks of the run's outputs.
    pub checks: BTreeMap<&'static str, bool>,
    /// One `wall_s` sample per measured iteration (sweep, pass or rep).
    pub wall: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Hash over the `result_json` of every result the run produced, in a
    /// fixed order, so it depends on neither the seed nor the build.
    pub result_digest: u64,
    /// Extra provenance numbers for the JSON record (not metrics).
    pub notes: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Counts one operation, failed or not.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn check(&mut self, name: &'static str, ok: bool) {
        *self.checks.entry(name).or_insert(true) &= ok;
    }

    /// `true` when every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.values().all(|&ok| ok)
    }
}

/// Per-iteration samples of named values, reduced to medians at the end.
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    pub fn extend(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        for (k, v) in values {
            self.push(k, v);
        }
    }

    /// Writes the median of every sampled name into `out`.
    pub fn medians_into(&self, out: &mut BTreeMap<&'static str, f64>) {
        for (k, v) in &self.0 {
            out.insert(k, median(v));
        }
    }
}

/// How often a run repeats its workload's set-up; `setup_s` is the median.
const SETUPS: usize = 5;

/// Times a workload's set-up `SETUPS` times. `once` performs one set-up
/// and returns its `(build_s, exact_output_s)` parts: `setup_s` is the
/// median total, the `workloads.*` layers the medians of the parts.
pub fn measure_setup(r: &mut Report, mut once: impl FnMut() -> (f64, f64)) {
    let mut s = Samples::default();
    for _ in 0..SETUPS {
        let (build, exact) = once();
        s.push("setup_s", build + exact);
        s.push("workloads.build_s", build);
        s.push("workloads.exact_output_s", exact);
    }
    let mut all = BTreeMap::new();
    s.medians_into(&mut all);
    for (k, v) in all {
        match k {
            "setup_s" => r.metrics.insert(k, v),
            _ => r.layers.insert(k, v),
        };
    }
}

/// Calls `f(0)`, `f(1)`, … until `seconds` have passed and at least `min`
/// iterations ran.
pub fn repeat_for(seconds: f64, min: usize, mut f: impl FnMut(usize)) {
    let t0 = Instant::now();
    let mut i = 0;
    while i < min || t0.elapsed().as_secs_f64() < seconds {
        f(i);
        i += 1;
    }
}

/// The layer metric each profiler phase reports under.
fn phase_layer(p: Phase) -> &'static str {
    match p {
        Phase::SmIssue => "gpu.sm_issue_s",
        Phase::Slice => "gpu.slice_s",
        Phase::Controller => "core.controller_s",
        Phase::Dram => "dram.dram_s",
        Phase::FuncMem => "gpu.func_mem_s",
        Phase::FastForward => "gpu.fast_forward_s",
        Phase::Sync => "gpu.pool_sync_s",
        Phase::Idle => "gpu.pool_idle_s",
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulator-side layer metrics of one iteration: profiler phase
/// seconds summed over `stats`, the counters behind the paper's metrics,
/// and the fast-forward ratios. `sim_s` is the host time the iteration
/// spent inside the simulation calls (wall clock on one thread, CPU
/// seconds for a multi-worker sweep; 0 when nothing was simulated, as on a
/// warm sweep). `channels` is the machine's DRAM channel count.
pub fn sim_layers(stats: &[&SimStats], sim_s: f64, channels: usize) -> Vec<(&'static str, f64)> {
    let sum = |f: &dyn Fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>();
    let mut out: Vec<(&'static str, f64)> = Phase::ALL
        .iter()
        .map(|&p| (phase_layer(p), stats.iter().map(|s| s.prof.get(p)).sum()))
        .collect();
    let phases: f64 = out.iter().map(|(_, v)| v).sum();
    let ticks = sum(&|s| s.ticks_executed);
    let cycles = sum(&|s| s.core_cycles);
    let d = |f: &dyn Fn(&lazydram_common::DramStats) -> u64| sum(&|s| f(&s.dram));
    out.extend([
        ("prof.unattributed_s", sim_s - phases),
        (
            "prof.covered_frac",
            if sim_s > 0.0 { phases / sim_s } else { 0.0 },
        ),
        ("gpu.ticks_executed", ticks as f64),
        (
            "gpu.ns_per_tick",
            if ticks > 0 {
                sim_s * 1e9 / ticks as f64
            } else {
                0.0
            },
        ),
        ("gpu.skip_frac", ratio(sum(&|s| s.cycles_skipped), cycles)),
        (
            "gpu.compute_skip_frac",
            ratio(sum(&|s| s.compute_cycles_skipped), cycles),
        ),
        (
            "gpu.l1_hit_frac",
            ratio(sum(&|s| s.l1_hits), sum(&|s| s.l1_hits + s.l1_misses)),
        ),
        (
            "gpu.l2_hit_frac",
            ratio(sum(&|s| s.l2_hits), sum(&|s| s.l2_hits + s.l2_misses)),
        ),
        ("sim.core_cycles", cycles as f64),
        ("sim.instructions", sum(&|s| s.instructions) as f64),
        ("dram.activations", d(&|x| x.activations) as f64),
        ("dram.reads", d(&|x| x.reads) as f64),
        ("dram.writes", d(&|x| x.writes) as f64),
        (
            "dram.row_hit_frac",
            ratio(d(&|x| x.row_hits), d(&|x| x.row_hits + x.row_misses)),
        ),
        (
            "dram.bw_util",
            ratio(
                d(&|x| x.bus_busy_cycles),
                d(&|x| x.mem_cycles) * channels as u64,
            ),
        ),
        ("core.ams_dropped", d(&|x| x.dropped) as f64),
        ("core.ams_accepts", sum(&|s| s.ams_accepts) as f64),
    ]);
    out
}

/// `Measurement::to_json` without the profiler's wall-clock phases, which a
/// `prof` build adds to every simulated result: the result itself, equal
/// across reps, builds and store round trips.
pub fn result_json(m: &Measurement) -> String {
    let mut m = m.clone();
    m.stats.prof = ProfReport::default();
    m.to_json()
}

/// Folds a sequence of `result_json` strings into one digest.
pub fn digest_of<S: AsRef<str>>(jsons: impl IntoIterator<Item = S>) -> u64 {
    use lazydram_common::snap::{digest, fold};
    jsons
        .into_iter()
        .fold(0, |h, j| fold(h, digest(j.as_ref().as_bytes())))
}
