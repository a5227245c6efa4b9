//! Divergence bisection: pinpoints the first cycle at which two
//! configurations of the same app leave a common trajectory, then prints a
//! component-level diff of the two machine states at that cycle.
//!
//! The tool runs both configurations in lockstep through chained
//! checkpoints (stride cycles at a time), comparing a *comparable digest*
//! of each checkpoint — the full architectural state minus the frames that
//! differ by construction (the `meta` config digest and the per-controller
//! `dms`/`ams` policy state). When a stride window shows a digest mismatch,
//! it binary-searches inside the window, resuming from the last agreeing
//! checkpoints, until the exact first divergent cycle is found.
//!
//! ```text
//! dbg_diverge [APP] [X1] [X2] [SCALE] [STRIDE]
//! ```
//!
//! Defaults: `SLA 128 256 0.05 4096` — Static-DMS with delay X1 vs X2.

use lazydram_bench::SimBuilder;
use lazydram_common::snap::{digest, fold, list_frames};
use lazydram_common::{DmsMode, SchedConfig};
use lazydram_gpu::{Checkpoint, RunOutcome};
use lazydram_workloads::{by_name, SimRun};
use std::collections::BTreeMap;

/// Digest over the architectural frames only: `meta` (holds the config
/// digest, different by construction) is skipped entirely, and the
/// per-controller `dms`/`ams` subframes (the policy parameters and their
/// windowed profiling state) are skipped inside each `mc` frame. What
/// remains — queues, DRAM banks, SMs, caches, NoC, stats, memory image —
/// agrees between two configs exactly until the policies first *act*
/// differently.
fn comparable_digest(ck: &Checkpoint) -> u64 {
    let body = ck.body();
    let mut h = 0x5EED_D1FF_u64;
    for f in list_frames(body).expect("checkpoint frames") {
        if f.tag == "meta" {
            continue;
        }
        let payload = f.payload(body);
        h = fold(h, digest(f.tag.as_bytes()));
        h = fold(h, u64::from(f.index));
        if f.tag == "mc" {
            for sub in list_frames(payload).expect("mc subframes") {
                if sub.tag == "dms" || sub.tag == "ams" {
                    continue;
                }
                h = fold(h, digest(sub.payload(payload)));
            }
        } else {
            h = fold(h, digest(payload));
        }
    }
    h
}

/// Advances one run to `target` cycles, either from the start or from a
/// checkpoint at an earlier cycle.
fn step(run: &SimRun, from: Option<&Checkpoint>, target: u64) -> RunOutcome {
    match from {
        None => run.run_until(target),
        Some(ck) => run.resume_until(ck, target).expect("resume own checkpoint"),
    }
}

/// State probe for the bisection: a paused run compares by comparable
/// digest (policy frames excused), while a completed run compares by
/// completion shape (cycle count and output digest), so an early finish on
/// one side registers as divergence.
fn probe(run: &SimRun, from: Option<&Checkpoint>, target: u64) -> (u64, Option<Checkpoint>) {
    match step(run, from, target) {
        RunOutcome::Paused(ck) => (comparable_digest(&ck), Some(ck)),
        RunOutcome::Done(r) => {
            let mut h = fold(0xD0E_u64, r.stats.core_cycles);
            for v in &r.output {
                h = fold(h, u64::from(v.to_bits()));
            }
            (h, None)
        }
    }
}

fn frame_diff(a: &Checkpoint, b: &Checkpoint) -> Vec<String> {
    let (ba, bb) = (a.body(), b.body());
    let fa = list_frames(ba).expect("frames");
    let fb = list_frames(bb).expect("frames");
    let mut out = Vec::new();
    for (x, y) in fa.iter().zip(&fb) {
        assert_eq!(
            (&x.tag, x.index),
            (&y.tag, y.index),
            "frame layout mismatch"
        );
        if x.tag == "meta" {
            continue;
        }
        let (pa, pb) = (x.payload(ba), y.payload(bb));
        if x.tag == "mc" {
            for (sx, sy) in list_frames(pa)
                .expect("mc subframes")
                .iter()
                .zip(&list_frames(pb).expect("mc subframes"))
            {
                if sx.tag == "dms" || sx.tag == "ams" {
                    continue;
                }
                if sx.payload(pa) != sy.payload(pb) {
                    out.push(format!("mc[{}].{}", x.index, sx.tag));
                }
            }
        } else if pa != pb {
            out.push(format!("{}[{}]", x.tag, x.index));
        }
    }
    out
}

/// `true` for field paths that differ by construction between the two
/// configurations (policy parameters / policy-internal profiling state),
/// as opposed to architectural state that should agree until divergence.
fn expected_diff(path: &str) -> bool {
    path.starts_with("meta") || path.contains("/dms[") || path.contains("/ams[")
}

fn field_diff(run_a: &SimRun, ck_a: &Checkpoint, run_b: &SimRun, ck_b: &Checkpoint) {
    let fields_a: BTreeMap<String, String> = run_a
        .checkpoint_fields(ck_a)
        .expect("fields")
        .into_iter()
        .collect();
    let fields_b: BTreeMap<String, String> = run_b
        .checkpoint_fields(ck_b)
        .expect("fields")
        .into_iter()
        .collect();
    let mut architectural = 0usize;
    println!("\nfield-level diff (architectural state; policy/config fields marked *):");
    for (path, va) in &fields_a {
        let Some(vb) = fields_b.get(path) else {
            if expected_diff(path) {
                println!("  * {path}: only in first run ({va})   (expected: policy config/state)");
            } else {
                println!("    {path}: only in first run ({va})");
            }
            continue;
        };
        if va == vb {
            continue;
        }
        if expected_diff(path) {
            println!("  * {path}: {va} vs {vb}   (expected: policy config/state)");
        } else {
            architectural += 1;
            if architectural <= 40 {
                println!("    {path}: {va} vs {vb}");
            }
        }
    }
    if architectural > 40 {
        println!(
            "    … and {} more architectural field diffs",
            architectural - 40
        );
    }
    println!("\n{architectural} architectural field(s) differ at the divergence cycle");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().cloned().unwrap_or_else(|| "SLA".into());
    let x1: u32 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(128);
    let x2: u32 = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(256);
    let scale: f64 = args.get(3).and_then(|s| s.parse().ok()).unwrap_or(0.05);
    let stride: u64 = args
        .get(4)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4096)
        .max(2);
    let app = by_name(&name).expect("known app");

    let build = |x: u32| {
        SimBuilder::new(&app)
            .sched(
                SchedConfig {
                    dms: DmsMode::Static(x),
                    ..SchedConfig::baseline()
                },
                format!("DMS({x})"),
            )
            .scale(scale)
            .build()
    };
    let (run_a, run_b) = (build(x1), build(x2));
    let (label_a, label_b) = (format!("DMS({x1})"), format!("DMS({x2})"));
    println!("{name} @ scale {scale}: bisecting Static-DMS X={x1} vs X={x2} (stride {stride})");

    // Phase 1: lockstep coarse scan. `lo` is the last cycle where the two
    // comparable digests agreed; the checkpoints at `lo` seed the bisection.
    let mut lo = 0u64;
    let mut ck_a: Option<Checkpoint> = None;
    let mut ck_b: Option<Checkpoint> = None;
    let hi = loop {
        let target = lo + stride;
        let (da, na) = probe(&run_a, ck_a.as_ref(), target);
        let (db, nb) = probe(&run_b, ck_b.as_ref(), target);
        if da != db {
            break target;
        }
        match (na, nb) {
            (Some(a), Some(b)) => {
                lo = target;
                ck_a = Some(a);
                ck_b = Some(b);
            }
            _ => {
                // Both runs completed with identical completion shape and no
                // digest mismatch at any stride boundary.
                println!(
                    "no divergence detected up to completion at stride {stride}; \
                     the runs agree at every probed cycle"
                );
                return;
            }
        }
    };
    println!("digests agree at cycle {lo}, differ by cycle {hi} — bisecting…");

    // Phase 2: binary search in (lo, hi], always resuming from the agreeing
    // checkpoints at `lo`. Invariant: digests agree at `lo`, differ at `hi`.
    let mut hi = hi;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        let (da, na) = probe(&run_a, ck_a.as_ref(), mid);
        let (db, nb) = probe(&run_b, ck_b.as_ref(), mid);
        if da == db {
            lo = mid;
            if let (Some(a), Some(b)) = (na, nb) {
                ck_a = Some(a);
                ck_b = Some(b);
            }
        } else {
            hi = mid;
        }
    }
    println!("first divergent cycle: {hi} (last agreeing cycle: {lo})");

    // Phase 3: component- and field-level diff at the divergence cycle.
    let at_a = step(&run_a, ck_a.as_ref(), hi);
    let at_b = step(&run_b, ck_b.as_ref(), hi);
    match (at_a, at_b) {
        (RunOutcome::Paused(a), RunOutcome::Paused(b)) => {
            let diff = frame_diff(&a, &b);
            println!("\ndivergent components at cycle {hi}:");
            for d in &diff {
                println!("  {d}");
            }
            if diff.is_empty() {
                println!("  (none at frame granularity — divergence is in completion shape)");
            }
            field_diff(&run_a, &a, &run_b, &b);
        }
        (RunOutcome::Done(ra), RunOutcome::Done(rb)) => {
            println!(
                "both runs complete before cycle {hi}: {} vs {} total cycles",
                ra.stats.core_cycles, rb.stats.core_cycles
            );
        }
        (RunOutcome::Done(r), RunOutcome::Paused(_)) => {
            println!(
                "{label_a} completes at cycle {} while {label_b} is still running",
                r.stats.core_cycles
            );
        }
        (RunOutcome::Paused(_), RunOutcome::Done(r)) => {
            println!(
                "{label_b} completes at cycle {} while {label_a} is still running",
                r.stats.core_cycles
            );
        }
    }
}
