//! The two long execution-driven workloads: one simulation repeated on one
//! thread, with fixed inputs.
//!
//! * `sla-long`: SLA under Dyn-DMS+Dyn-AMS at scale 2.0. Memory-bound, with
//!   as many writes as reads; the dynamic controllers act here, so the
//!   controller, L2 slice and DRAM layers do most of the work.
//! * `gemm-long`: GEMM under Static-DMS at scale 1.0. Compute-bound: SM
//!   issue and functional memory dominate, so a controller or DRAM gain
//!   should leave it unchanged. Above scale 1.0 its working set overflows
//!   L2 and it turns memory-bound, so the scale stays at 1.0.

use crate::probes;
use crate::report::{
    digest_of, measure_setup, repeat_for, result_json, sim_layers, Report, Samples,
};
use crate::Ctx;
use lazydram_bench::{try_measure, Measurement, Scheme, SimBuilder};
use lazydram_common::{AmsMode, DramPreset};
use lazydram_workloads::{by_name, exact_output};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One long workload's fixed input.
pub struct Long {
    app: &'static str,
    scheme: Scheme,
    scale: f64,
}

pub const SLA: Long = Long {
    app: "SLA",
    scheme: Scheme::DynCombo,
    scale: 2.0,
};
pub const GEMM: Long = Long {
    app: "GEMM",
    scheme: Scheme::StaticDms,
    scale: 1.0,
};

/// Layers the long runs never reach: they use neither the sweep runner nor
/// the result store.
const UNUSED_LAYERS: [&str; 11] = [
    "bench.runner.baselines_s",
    "bench.runner.measure_all_s",
    "bench.runner.worker_util",
    "bench.store.lookup_us",
    "bench.store.disk_hits",
    "bench.store.hot_hits",
    "bench.store.misses",
    "bench.store.rejected",
    "bench.store.bytes_read",
    "bench.store.published",
    "bench.store.bytes_written",
];

pub fn run(ctx: &Ctx, w: &Long) -> Report {
    let app = by_name(w.app).expect("long workloads name suite apps");
    let cfg = DramPreset::Gddr5.gpu_config();
    let builder = |scheme: Scheme| {
        SimBuilder::new(&app)
            .gpu(cfg.clone())
            .scheme(scheme)
            .scale(w.scale)
    };
    let mut r = Report::default();
    let mut prepared = None;
    measure_setup(&mut r, || {
        let t = Instant::now();
        let run = builder(w.scheme).build();
        let build_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let exact = exact_output(&app, w.scale);
        let exact_s = t.elapsed().as_secs_f64();
        prepared = Some((run, exact));
        (build_s, exact_s)
    });
    let (run, exact) = prepared.expect("set-up ran");
    let measure = |run: &lazydram_bench::SimRun| {
        catch_unwind(AssertUnwindSafe(|| try_measure(run, &exact)))
            .map_err(|_| "simulation panicked".to_string())
            .and_then(|res| res)
    };

    // The reference for energy_norm and ipc_norm, run once outside the
    // timed reps.
    let t = Instant::now();
    let base = measure(&builder(Scheme::Baseline).build());
    r.notes.insert("baseline_s", t.elapsed().as_secs_f64());
    r.attempt(base.as_ref().is_ok_and(|b| !b.truncated));

    let mut first: Option<Measurement> = None;
    let (mut m, mut l) = (Samples::default(), Samples::default());
    repeat_for(ctx.seconds, 3, |_| {
        let t = Instant::now();
        let rep = measure(&run);
        let wall = t.elapsed().as_secs_f64();
        let Ok(rep) = rep else {
            r.attempt(false);
            return;
        };
        let same = first.get_or_insert_with(|| rep.clone()).stats == rep.stats;
        r.check("reps_identical", same);
        if matches!(w.scheme.sched().ams, AmsMode::Off) {
            // A scheme without AMS never changes values.
            r.check("exact_without_ams", rep.app_error == 0.0);
        }
        r.attempt(same && !rep.truncated);
        r.wall.push(wall);
        m.push(
            "sim_minst_per_s",
            rep.stats.instructions as f64 / wall / 1e6,
        );
        if let Ok(b) = &base {
            m.extend([
                ("energy_norm", rep.row_energy_pj / b.row_energy_pj),
                ("ipc_norm", rep.ipc / b.ipc),
            ]);
        }
        m.push("accuracy_pct", 100.0 * (1.0 - rep.app_error));
        l.extend(sim_layers(&[&rep.stats], wall, cfg.num_channels));
    });
    m.medians_into(&mut r.metrics);
    r.result_digest = digest_of(first.iter().chain(base.as_ref().ok()).map(result_json));

    if ctx.traced {
        l.medians_into(&mut r.layers);
        for name in UNUSED_LAYERS {
            r.layers.insert(name, 0.0);
        }
        let trace = builder(Scheme::Baseline)
            .trace(true)
            .build()
            .run()
            .trace
            .expect("trace capture was requested");
        let replay_ns = probes::replay_ns_per_req(&cfg, &w.scheme.sched(), &[trace], &mut r);
        r.layers.insert("core.replay_ns_per_req", replay_ns);
        let cmd_ns = probes::channel_cmd_ns(&cfg, &mut r);
        r.layers.insert("dram.cmd_ns", cmd_ns);
    }
    r
}
