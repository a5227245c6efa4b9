//! The two Fig. 12 workloads: the paper's headline sweep, 11 error-tolerant
//! apps × (baseline + the six paper schemes) = 77 cells at scale 1.0 on
//! GDDR5, driven through the repository's `SweepRunner` and result `Store`.
//!
//! * `fig12-cold` times whole sweeps, each on a fresh empty store: every
//!   simulator layer, the runner and the store's publish path.
//! * `fig12-warm` fills a store once, then times passes that a fresh
//!   `SweepRunner` and `Store` serve from disk: only the runner, the store
//!   and the exact-output references run, so a simulator-core gain must
//!   not move it.

use crate::probes;
use crate::report::{
    digest_of, measure_setup, repeat_for, result_json, sim_layers, Report, Samples,
};
use crate::stats::cpu_seconds;
use crate::Ctx;
use lazydram_bench::{
    CacheMode, CachePolicy, CacheStats, JobFailure, MeasureSpec, Measurement, Scheme, SimBuilder,
    SweepRunner,
};
use lazydram_common::{AmsMode, DramPreset, GpuConfig, SplitMix64};
use lazydram_workloads::{all_apps, exact_output, AppSpec};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const SCALE: f64 = 1.0;
/// Cells per app: the baseline, then `Scheme::PAPER` in order.
const PER_APP: usize = 1 + Scheme::PAPER.len();
/// The headline scheme whose means Fig. 12 reports.
const HEADLINE: Scheme = Scheme::DynCombo;

/// The sweep's fixed cell grid plus this run's seed-permuted submission
/// order. Cells are indexed canonically: `app * PER_APP + k`, where `k = 0`
/// is the baseline and `k ≥ 1` is `Scheme::PAPER[k - 1]`.
struct Fig12 {
    apps: Vec<AppSpec>,
    cfg: GpuConfig,
    workers: usize,
    /// Submission order of the apps' baselines.
    app_order: Vec<usize>,
    /// Submission order of the non-baseline cells.
    cell_order: Vec<usize>,
}

/// One sweep or warm pass, cells in canonical order.
struct Sweep {
    cells: Vec<Result<Measurement, JobFailure>>,
    wall_s: f64,
    cpu_s: f64,
    baselines_s: f64,
    measure_all_s: f64,
    store: CacheStats,
}

fn scheme_of(slot: usize) -> Scheme {
    match slot % PER_APP {
        0 => Scheme::Baseline,
        k => Scheme::PAPER[k - 1],
    }
}

/// Fisher–Yates shuffle driven by the repository's SplitMix64.
fn shuffled(mut v: Vec<usize>, rng: &mut SplitMix64) -> Vec<usize> {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}

impl Fig12 {
    /// The grid in canonical submission order.
    fn canonical(workers: usize) -> Self {
        let apps: Vec<AppSpec> = all_apps()
            .into_iter()
            .filter(AppSpec::error_tolerant)
            .collect();
        let app_order = (0..apps.len()).collect();
        let cell_order = (0..apps.len() * PER_APP)
            .filter(|s| s % PER_APP != 0)
            .collect();
        Self {
            apps,
            cfg: DramPreset::Gddr5.gpu_config(),
            workers,
            app_order,
            cell_order,
        }
    }

    /// The grid in the submission order the run's seed permutes it into.
    fn new(ctx: &Ctx) -> Self {
        let mut f = Self::canonical(ctx.workers);
        let mut rng = SplitMix64::new(ctx.seed);
        f.app_order = shuffled(std::mem::take(&mut f.app_order), &mut rng);
        f.cell_order = shuffled(std::mem::take(&mut f.cell_order), &mut rng);
        f
    }

    fn builder(&self, slot: usize) -> SimBuilder {
        SimBuilder::new(&self.apps[slot / PER_APP])
            .gpu(self.cfg.clone())
            .scheme(scheme_of(slot))
            .scale(SCALE)
    }

    /// One set-up: build every cell's simulation and compute every app's
    /// exact output, the inputs a sweep prepares. Returns `(build_s,
    /// exact_output_s)`.
    fn prepare(&self) -> (f64, f64) {
        let t = Instant::now();
        for slot in 0..self.apps.len() * PER_APP {
            black_box(self.builder(slot).build());
        }
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        for app in &self.apps {
            black_box(exact_output(app, SCALE));
        }
        (build_s, t.elapsed().as_secs_f64())
    }

    /// Runs the sweep as `fig12_main` does — all baselines, then the
    /// paper's schemes — through a fresh runner and store over `dir`.
    fn sweep(&self, dir: &Path, mode: CacheMode) -> Sweep {
        let runner = SweepRunner::with_workers(self.workers)
            .quiet()
            .with_cache(Some(CachePolicy::new(dir, mode)));
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let apps: Vec<AppSpec> = self
            .app_order
            .iter()
            .map(|&a| self.apps[a].clone())
            .collect();
        let bases = runner.baselines(&apps, &self.cfg, SCALE);
        let baselines_s = t0.elapsed().as_secs_f64();

        let mut base_of = vec![None; self.apps.len()];
        for (&a, b) in self.app_order.iter().zip(&bases) {
            base_of[a] = Some(b);
        }
        let mut cells: Vec<Option<Result<Measurement, JobFailure>>> =
            (0..self.apps.len() * PER_APP).map(|_| None).collect();
        for (a, b) in base_of.iter().enumerate() {
            let b = b.expect("every app has a baseline result");
            cells[a * PER_APP] = Some(
                b.as_ref()
                    .map(|b| b.measurement.clone())
                    .map_err(Clone::clone),
            );
        }
        let mut specs = Vec::new();
        let mut slots = Vec::new();
        for &slot in &self.cell_order {
            match base_of[slot / PER_APP].expect("every app has a baseline result") {
                Ok(b) => {
                    specs.push(MeasureSpec::new(self.builder(slot), b.exact.clone()));
                    slots.push(slot);
                }
                Err(f) => {
                    cells[slot] = Some(Err(JobFailure {
                        label: format!("{}/{}", self.apps[slot / PER_APP].name, scheme_of(slot)),
                        message: format!("baseline failed: {}", f.message),
                    }))
                }
            }
        }
        let t1 = Instant::now();
        for (slot, res) in slots.into_iter().zip(runner.measure_all(specs)) {
            cells[slot] = Some(res);
        }
        Sweep {
            cells: cells
                .into_iter()
                .map(|c| c.expect("every cell ran"))
                .collect(),
            wall_s: t0.elapsed().as_secs_f64(),
            cpu_s: cpu_seconds() - cpu0,
            baselines_s,
            measure_all_s: t1.elapsed().as_secs_f64(),
            store: runner.cache().expect("the sweep attaches a store").stats(),
        }
    }
}

impl Sweep {
    fn jsons(&self) -> Vec<Option<String>> {
        self.cells
            .iter()
            .map(|c| c.as_ref().ok().map(result_json))
            .collect()
    }

    fn ok(&self) -> impl Iterator<Item = &Measurement> {
        self.cells.iter().filter_map(|c| c.as_ref().ok())
    }

    /// Counts every cell as one operation. A cell fails when its job
    /// failed, it hit the cycle limit, or its JSON differs from
    /// `reference` (the first sweep, or the cold fill of a warm run).
    fn account(&self, r: &mut Report, reference: &[Option<String>]) {
        for (slot, (cell, want)) in self.cells.iter().zip(reference).enumerate() {
            let ok = match cell {
                Ok(m) => {
                    // A scheme without AMS never changes values.
                    if matches!(scheme_of(slot).sched().ams, AmsMode::Off) {
                        r.check("exact_without_ams", m.app_error == 0.0);
                    }
                    !m.truncated && !m.replayed && want.as_deref() == Some(result_json(m).as_str())
                }
                Err(_) => false,
            };
            r.attempt(ok);
        }
    }

    /// The Fig. 12 means of the headline scheme over the apps:
    /// `(energy_norm, ipc_norm, accuracy_pct)`. `None` when a cell failed.
    fn headline(&self) -> Option<(f64, f64, f64)> {
        let k = 1 + Scheme::PAPER
            .iter()
            .position(|&s| s == HEADLINE)
            .expect("headline is a paper scheme");
        let apps = self.cells.len() / PER_APP;
        let (mut e, mut i, mut err) = (0.0, 0.0, 0.0);
        for a in 0..apps {
            let base = self.cells[a * PER_APP].as_ref().ok()?;
            let m = self.cells[a * PER_APP + k].as_ref().ok()?;
            e += m.row_energy_pj / base.row_energy_pj;
            i += m.ipc / base.ipc;
            err += m.app_error;
        }
        let n = apps as f64;
        Some((e / n, i / n, 100.0 * (1.0 - err / n)))
    }

    /// Per-iteration end-to-end samples common to both workloads.
    fn metrics(&self, m: &mut Samples) {
        if let Some((e, i, acc)) = self.headline() {
            m.extend([("energy_norm", e), ("ipc_norm", i), ("accuracy_pct", acc)]);
        }
        let instructions: u64 = self.ok().map(|m| m.stats.instructions).sum();
        m.push("sim_minst_per_s", instructions as f64 / self.wall_s / 1e6);
    }

    /// Per-iteration layer samples. `simulated` is false for a warm pass,
    /// whose simulator layers did no work.
    fn layers(&self, l: &mut Samples, workers: usize, channels: usize, simulated: bool) {
        let stats: Vec<_> = self.ok().map(|m| &m.stats).collect();
        l.extend(sim_layers(
            &stats,
            if simulated { self.cpu_s } else { 0.0 },
            channels,
        ));
        let s = self.store;
        l.extend([
            ("bench.runner.baselines_s", self.baselines_s),
            ("bench.runner.measure_all_s", self.measure_all_s),
            (
                "bench.runner.worker_util",
                self.cpu_s / (self.wall_s * workers as f64),
            ),
            ("bench.store.disk_hits", s.disk_hits as f64),
            ("bench.store.hot_hits", s.hot_hits as f64),
            ("bench.store.misses", s.misses as f64),
            ("bench.store.rejected", s.rejected as f64),
            ("bench.store.bytes_read", s.bytes_read as f64),
            ("bench.store.published", s.published as f64),
            ("bench.store.bytes_written", s.bytes_written as f64),
        ]);
    }
}

/// `fig12-cold`: whole sweeps, each on a fresh empty store.
pub fn cold(ctx: &Ctx) -> Report {
    let f = Fig12::new(ctx);
    let mut r = Report::default();
    measure_setup(&mut r, || f.prepare());
    let (mut m, mut l) = (Samples::default(), Samples::default());
    let mut reference: Option<Vec<Option<String>>> = None;
    let mut last = None;
    // Host noise moves a single sweep by several percent; the median of at
    // least three keeps `wall_s` steady.
    repeat_for(ctx.seconds, 3, |i| {
        let dir = ctx.scratch.join(format!("cold-{i}"));
        let sweep = f.sweep(&dir, CacheMode::Auto);
        let reference = reference.get_or_insert_with(|| sweep.jsons());
        sweep.account(&mut r, reference);
        r.wall.push(sweep.wall_s);
        sweep.metrics(&mut m);
        sweep.layers(&mut l, f.workers, f.cfg.num_channels, true);
        if let Some(prev) = last.replace((dir, sweep)) {
            let _ = std::fs::remove_dir_all(prev.0);
        }
    });
    let (dir, sweep) = last.expect("at least one sweep ran");
    finish(ctx, &f, &mut r, &m, &l, &dir, &sweep);
    r
}

/// `fig12-warm`: passes served from a store that one cold sweep filled.
pub fn warm(ctx: &Ctx) -> Report {
    let f = Fig12::new(ctx);
    let mut r = Report::default();
    measure_setup(&mut r, || f.prepare());
    let dir = ctx.scratch.join("warm");
    // The fill is set-up, in canonical order so it is the same for every
    // seed: which cells overlap on the workers sets the process's peak RSS.
    let fill = Fig12::canonical(ctx.workers).sweep(&dir, CacheMode::Auto);
    r.notes.insert("fill_s", fill.wall_s);
    let reference = fill.jsons();
    let (mut m, mut l) = (Samples::default(), Samples::default());
    let mut last = None;
    repeat_for(ctx.seconds, 3, |_| {
        // `require` turns any miss into a failed cell instead of a silent
        // re-simulation.
        let pass = f.sweep(&dir, CacheMode::Require);
        pass.account(&mut r, &reference);
        r.check(
            "all_disk_hits",
            pass.store.disk_hits == pass.cells.len() as u64,
        );
        r.wall.push(pass.wall_s);
        pass.metrics(&mut m);
        pass.layers(&mut l, f.workers, f.cfg.num_channels, false);
        last = Some(pass);
    });
    let pass = last.expect("at least one pass ran");
    finish(ctx, &f, &mut r, &m, &l, &dir, &pass);
    r
}

/// Shared tail of both workloads: medians, the digest, and in a traced run
/// the outside probes against the last sweep's store.
fn finish(
    ctx: &Ctx,
    f: &Fig12,
    r: &mut Report,
    m: &Samples,
    l: &Samples,
    dir: &Path,
    last: &Sweep,
) {
    m.medians_into(&mut r.metrics);
    r.result_digest = digest_of(
        last.jsons()
            .iter()
            .map(|j| j.as_deref().unwrap_or("failed")),
    );
    if !ctx.traced {
        return;
    }
    l.medians_into(&mut r.layers);
    let cells: Vec<SimBuilder> = (0..f.apps.len() * PER_APP).map(|s| f.builder(s)).collect();
    let lookup_us = probes::store_lookup_us(dir, &cells, r);
    r.layers.insert("bench.store.lookup_us", lookup_us);
    // The replay probe streams every app's baseline requests through the
    // headline scheme's controllers.
    let traces = f
        .apps
        .iter()
        .map(|app| {
            SimBuilder::new(app)
                .gpu(f.cfg.clone())
                .scale(SCALE)
                .trace(true)
                .build()
                .run()
                .trace
        })
        .collect::<Option<Vec<_>>>()
        .expect("trace capture was requested");
    let replay_ns = probes::replay_ns_per_req(&f.cfg, &HEADLINE.sched(), &traces, r);
    r.layers.insert("core.replay_ns_per_req", replay_ns);
    let cmd_ns = probes::channel_cmd_ns(&f.cfg, r);
    r.layers.insert("dram.cmd_ns", cmd_ns);
}
