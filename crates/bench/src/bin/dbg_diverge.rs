//! Divergence bisection: pinpoints the first cycle at which two
//! configurations of the same app leave a common trajectory, then prints a
//! component-level diff of the two machine states at that cycle.
//!
//! The tool pauses both configurations at the same cycles (stride cycles
//! apart) and compares a *comparable digest* of each state dump — the full
//! architectural state minus the frames that differ by construction (the
//! `meta` config digest and the per-controller `dms`/`ams` policy state).
//! When a stride window shows a digest mismatch, it binary-searches inside
//! the window until the exact first divergent cycle is found. Every probe is
//! a fresh run from cycle 0 to the probed cycle; dumps are never loaded back.
//!
//! ```text
//! dbg_diverge [APP] [A] [B] [SCALE] [STRIDE]
//! ```
//!
//! `A` and `B` are each a scheme label (`baseline`, `Static-AMS`, …) or a
//! bare number, which means Static-DMS with that delay. Defaults:
//! `SLA 128 256 0.05 4096`. An unknown app or scheme, a SCALE that is not a
//! positive number, or a STRIDE that is not a whole number exits with
//! status 2 and a message naming the argument, before any simulation.

use lazydram_bench::SimBuilder;
use lazydram_common::snap::{digest, fold, list_frames};
use lazydram_common::{DmsMode, SchedConfig, Scheme};
use lazydram_gpu::{Checkpoint, RunOutcome};
use lazydram_workloads::{all_apps, by_name, AppSpec, SimRun};
use std::collections::BTreeMap;
use std::str::FromStr;

/// Reports a malformed command line and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("dbg_diverge: {msg}");
    std::process::exit(2)
}

/// Parses the positional argument `name`, or returns `default` when it is
/// absent; a value that does not parse, or fails `valid`, exits with
/// status 2 naming the argument, its value and what it should be.
fn parse_arg<T: FromStr>(
    name: &str,
    what: &str,
    arg: Option<&String>,
    default: T,
    valid: fn(&T) -> bool,
) -> T {
    let Some(arg) = arg else {
        return default;
    };
    match arg.parse() {
        Ok(v) if valid(&v) => v,
        _ => usage_error(&format!("{name} {arg:?} is not {what}")),
    }
}

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

/// State probe for the bisection, a fresh run from cycle 0 to `target`: a
/// paused run compares by comparable digest (policy frames excused), while
/// a completed run compares by completion shape (cycle count and output
/// digest), so an early finish on one side registers as divergence.
/// Returns the digest and whether the run paused.
fn probe(run: &SimRun, target: u64) -> (u64, bool) {
    match run.run_until(target) {
        RunOutcome::Paused(ck) => (comparable_digest(&ck), true),
        RunOutcome::Done(r) => {
            let mut h = fold(0xD0E_u64, r.stats.core_cycles);
            for v in &r.output {
                h = fold(h, u64::from(v.to_bits()));
            }
            (h, false)
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

fn field_diff(ck_a: &Checkpoint, ck_b: &Checkpoint) {
    let fields_a: BTreeMap<&str, &str> = ck_a
        .fields()
        .iter()
        .map(|(p, v)| (p.as_str(), v.as_str()))
        .collect();
    let fields_b: BTreeMap<&str, &str> = ck_b
        .fields()
        .iter()
        .map(|(p, v)| (p.as_str(), v.as_str()))
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

/// One side of the comparison: a scheme label, or a bare number meaning
/// Static-DMS with that delay.
enum Side {
    Scheme(Scheme),
    StaticDms(u32),
}

impl Side {
    fn parse(arg: Option<&String>, default: u32) -> Side {
        let Some(arg) = arg else {
            return Side::StaticDms(default);
        };
        if let Ok(x) = arg.parse() {
            return Side::StaticDms(x);
        }
        Scheme::by_label(arg).map(Side::Scheme).unwrap_or_else(|| {
            let labels: Vec<&str> = Scheme::ALL.iter().map(|s| s.label()).collect();
            usage_error(&format!(
                "{arg:?} is neither a delay nor a scheme label ({})",
                labels.join(", ")
            ))
        })
    }

    fn label(&self) -> String {
        match self {
            Side::Scheme(s) => s.label().to_string(),
            Side::StaticDms(x) => format!("DMS({x})"),
        }
    }

    fn build(&self, app: &AppSpec, scale: f64) -> SimRun {
        let builder = match self {
            Side::Scheme(s) => SimBuilder::new(app).scheme(*s),
            Side::StaticDms(x) => SimBuilder::new(app).sched(
                SchedConfig {
                    dms: DmsMode::Static(*x),
                    ..SchedConfig::baseline()
                },
                self.label(),
            ),
        };
        builder.scale(scale).build()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().cloned().unwrap_or_else(|| "SLA".into());
    let app = by_name(&name).unwrap_or_else(|| {
        let names: Vec<&str> = all_apps().iter().map(|a| a.name).collect();
        usage_error(&format!(
            "APP {name:?} is not a suite app ({})",
            names.join(", ")
        ))
    });
    let side_a = Side::parse(args.get(1), 128);
    let side_b = Side::parse(args.get(2), 256);
    let scale: f64 = parse_arg("SCALE", "a positive number", args.get(3), 0.05, |s| {
        s.is_finite() && *s > 0.0
    });
    let stride: u64 = parse_arg("STRIDE", "a whole number", args.get(4), 4096, |_| true).max(2);

    let (run_a, run_b) = (side_a.build(&app, scale), side_b.build(&app, scale));
    let (label_a, label_b) = (side_a.label(), side_b.label());
    let what = match (&side_a, &side_b) {
        (Side::StaticDms(x1), Side::StaticDms(x2)) => format!("Static-DMS X={x1} vs X={x2}"),
        _ => format!("{label_a} vs {label_b}"),
    };
    println!("{name} @ scale {scale}: bisecting {what} (stride {stride})");

    // Phase 1: lockstep coarse scan. `lo` is the last cycle where the two
    // comparable digests agreed.
    let mut lo = 0u64;
    let hi = loop {
        let target = lo + stride;
        let (da, paused_a) = probe(&run_a, target);
        let (db, paused_b) = probe(&run_b, target);
        if da != db {
            break target;
        }
        if !(paused_a && paused_b) {
            // Both runs completed with identical completion shape and no
            // digest mismatch at any stride boundary.
            println!(
                "no divergence detected up to completion at stride {stride}; \
                 the runs agree at every probed cycle"
            );
            return;
        }
        lo = target;
    };
    println!("digests agree at cycle {lo}, differ by cycle {hi} — bisecting…");

    // Phase 2: binary search in (lo, hi]. Invariant: digests agree at `lo`,
    // differ at `hi`.
    let mut hi = hi;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe(&run_a, mid).0 == probe(&run_b, mid).0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    println!("first divergent cycle: {hi} (last agreeing cycle: {lo})");

    // Phase 3: component- and field-level diff at the divergence cycle.
    match (run_a.run_until_labelled(hi), run_b.run_until_labelled(hi)) {
        (RunOutcome::Paused(a), RunOutcome::Paused(b)) => {
            let diff = frame_diff(&a, &b);
            println!("\ndivergent components at cycle {hi}:");
            for d in &diff {
                println!("  {d}");
            }
            if diff.is_empty() {
                println!("  (none at frame granularity — divergence is in completion shape)");
            }
            field_diff(&a, &b);
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
