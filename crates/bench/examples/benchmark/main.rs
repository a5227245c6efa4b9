//! The repository benchmark: four workloads, end-to-end metrics from an
//! untraced build and a per-layer breakdown from a build with the `prof`
//! feature. See README.md in this directory for the workloads, the metrics
//! and how to run and compare them.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace [0|1]] [--untraced-bin PATH]
//! benchmark --compare A.jsonl B.jsonl
//! ```
//!
//! A traced run needs `--untraced-bin`, the plain build, which it runs once
//! more to measure the profiler's own overhead.
//!
//! A run prints a readable table to stderr and two JSON lines to stdout:
//! the full record (which `--compare` reads), then a summary line with the
//! keys `correct`, `attempted`, `failed` and `metrics`.

mod compare;
mod fig12;
mod json;
mod long;
mod probes;
mod report;
mod stats;

use json::{MetricSpec, Spec};
use lazydram_common::json::JsonObject;
use report::Report;
use std::path::{Path, PathBuf};

/// What every workload needs to know about its run.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// A traced run: built with `prof`, reports per-layer metrics.
    pub traced: bool,
    /// Sweep workers: `min(2, nproc)`.
    pub workers: usize,
    /// A private directory for result stores, removed on exit.
    pub scratch: PathBuf,
}

const USAGE: &str = "usage: benchmark --workload <fig12-cold|fig12-warm|sla-long|gemm-long> \
                     [--seed N] [--seconds S] [--trace [0|1]] [--untraced-bin PATH]\n       \
                     benchmark --compare A.jsonl B.jsonl";

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    /// The untraced build, which a traced run runs once more to measure the
    /// profiler's overhead.
    untraced_bin: Option<PathBuf>,
}

impl Opts {
    fn parse(args: &[String], spec: &Spec) -> Result<Opts, String> {
        let mut o = Opts {
            workload: String::new(),
            seed: 1,
            seconds: spec.run_seconds,
            traced: false,
            untraced_bin: None,
        };
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} needs a value\n{USAGE}"));
            match a.as_str() {
                "--workload" => o.workload = value()?.clone(),
                "--seed" => {
                    o.seed = value()?
                        .parse()
                        .map_err(|_| format!("--seed takes an integer\n{USAGE}"))?
                }
                "--seconds" => {
                    o.seconds = value()?
                        .parse()
                        .map_err(|_| format!("--seconds takes a number\n{USAGE}"))?;
                    if !(o.seconds.is_finite() && o.seconds > 0.0) {
                        return Err(format!("--seconds must be positive\n{USAGE}"));
                    }
                }
                "--untraced-bin" => o.untraced_bin = Some(PathBuf::from(value()?)),
                "--trace" => {
                    o.traced = true;
                    if let Some(v) = it.next_if(|v| *v == "0" || *v == "1") {
                        o.traced = v == "1";
                    }
                }
                _ => return Err(format!("unknown argument {a:?}\n{USAGE}")),
            }
        }
        if o.traced && o.untraced_bin.is_none() {
            return Err(format!(
                "--trace needs --untraced-bin <plain build> to measure prof.overhead_frac\n{USAGE}"
            ));
        }
        if !spec.workloads.contains(&o.workload) {
            return Err(format!(
                "unknown workload {:?}; BENCHMARK.json names {}",
                o.workload,
                spec.workloads.join(", ")
            ));
        }
        Ok(o)
    }
}

/// The private scratch directory, removed when the run ends, together
/// with its parent once no other run uses that.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn run() -> Result<i32, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let spec = Spec::load(Path::new("BENCHMARK.json"))?;
    if args.first().map(String::as_str) == Some("--compare") {
        let [a, b] = &args[1..] else {
            return Err(USAGE.into());
        };
        return compare::run(&spec, Path::new(a), Path::new(b));
    }
    let opts = Opts::parse(&args, &spec)?;
    // SimBuilder, SweepRunner and the simulator read their knobs from
    // LAZYDRAM_* variables; an exported one would silently change what is
    // measured.
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LAZYDRAM_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {} set; unset it",
            knobs.join(", ")
        ));
    }
    if opts.traced != cfg!(feature = "prof") {
        return Err(if opts.traced {
            "--trace needs the build with the `prof` feature".into()
        } else {
            "this build has the `prof` feature, whose profiler would distort the untraced \
             metrics; pass --trace or use the plain build"
                .into()
        });
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let scratch = Scratch(target.join("benchmark-scratch").join(format!(
        "{}-{}",
        opts.workload,
        std::process::id()
    )));
    std::fs::create_dir_all(&scratch.0)
        .map_err(|e| format!("cannot create {}: {e}", scratch.0.display()))?;
    let ctx = Ctx {
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.traced,
        workers: nproc.min(2),
        scratch: scratch.0.clone(),
    };
    let mut r = match opts.workload.as_str() {
        "fig12-cold" => fig12::cold(&ctx),
        "fig12-warm" => fig12::warm(&ctx),
        "sla-long" => long::run(&ctx, &long::SLA),
        "gemm-long" => long::run(&ctx, &long::GEMM),
        other => {
            return Err(format!(
                "BENCHMARK.json names workload {other:?}, which this benchmark does not implement"
            ))
        }
    };
    let workers = if opts.workload.starts_with("fig12") {
        ctx.workers
    } else {
        1
    };

    let wall = stats::median(&r.wall);
    r.metrics.insert("wall_s", wall);
    r.metrics.insert("peak_rss_mb", stats::peak_rss_mb());
    r.metrics
        .insert("ok_frac", 1.0 - r.failed as f64 / r.attempted.max(1) as f64);
    if let Some(bin) = opts.untraced_bin.as_ref().filter(|_| opts.traced) {
        let child_args: Vec<String> = [
            "--workload",
            &opts.workload,
            "--seed",
            &opts.seed.to_string(),
            "--seconds",
            &opts.seconds.to_string(),
            "--trace",
            "0",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let untraced = probes::untraced_wall_s(bin, &child_args)?;
        r.layers.insert("prof.overhead_frac", wall / untraced - 1.0);
    }

    let (wanted, values) = if opts.traced {
        (&spec.per_layer, &r.layers)
    } else {
        (&spec.end_to_end, &r.metrics)
    };
    let selected: Vec<(&MetricSpec, f64)> = wanted
        .iter()
        .map(|m| match values.get(m.name.as_str()) {
            Some(&v) if v.is_finite() => Ok((m, v)),
            Some(v) => Err(format!("{} on {} is {v}", m.name, opts.workload)),
            None => Err(format!("{} produced no {}", opts.workload, m.name)),
        })
        .collect::<Result<_, _>>()?;

    print_table(&opts, &r, &selected);
    println!("{}", record(&opts, nproc, workers, &r, &selected));
    let mut metrics = JsonObject::new();
    for (m, v) in &selected {
        let mut o = JsonObject::new();
        o.f64("value", *v).str("unit", &m.unit);
        metrics.raw(&m.name, &o.finish());
    }
    let mut summary = JsonObject::new();
    summary
        .bool("correct", r.correct())
        .u64("attempted", r.attempted)
        .u64("failed", r.failed)
        .raw("metrics", &metrics.finish());
    println!("{}", summary.finish());
    Ok(0)
}

/// The full JSON record of one run, which `--compare` reads.
fn record(
    opts: &Opts,
    nproc: usize,
    workers: usize,
    r: &Report,
    selected: &[(&MetricSpec, f64)],
) -> String {
    let obj = |kv: &mut dyn Iterator<Item = (&str, f64)>| {
        let mut o = JsonObject::new();
        kv.for_each(|(k, v)| {
            o.f64(k, v);
        });
        o.finish()
    };
    let values = obj(&mut selected.iter().map(|(m, v)| (m.name.as_str(), *v)));
    let (metrics, layers) = if opts.traced {
        ("{}".to_string(), values)
    } else {
        (values, "{}".to_string())
    };
    let (p25, p75) = stats::quartiles(&r.wall);
    let mut wall = JsonObject::new();
    let samples: Vec<String> = r
        .wall
        .iter()
        .map(|&x| lazydram_common::json::number(x))
        .collect();
    wall.u64("n", r.wall.len() as u64)
        .f64("p25", p25)
        .f64("p50", stats::median(&r.wall))
        .f64("p75", p75)
        .raw("all", &lazydram_common::json::array(&samples));
    let wall = wall.finish();
    let mut host = JsonObject::new();
    host.u64("nproc", nproc as u64);
    let mut checks = JsonObject::new();
    for (k, &ok) in &r.checks {
        checks.bool(k, ok);
    }
    let mut o = JsonObject::new();
    o.str("record", "benchmark")
        .str("workload", &opts.workload)
        .u64("seed", opts.seed)
        .bool("traced", opts.traced)
        .f64("seconds", opts.seconds)
        .raw("host", &host.finish())
        .u64("workers", workers as u64)
        .u64("attempted", r.attempted)
        .u64("failed", r.failed)
        .raw("metrics", &metrics)
        .raw("wall_samples", &wall)
        .raw("layers", &layers)
        .raw("checks", &checks.finish())
        .raw("notes", &obj(&mut r.notes.iter().map(|(k, v)| (*k, *v))))
        .str("result_digest", &format!("{:016x}", r.result_digest));
    o.finish()
}

/// The readable summary on stderr.
fn print_table(opts: &Opts, r: &Report, selected: &[(&MetricSpec, f64)]) {
    let kind = if opts.traced { "traced" } else { "untraced" };
    eprintln!(
        "== {} (seed {}, {kind}, {} iterations) ==",
        opts.workload,
        opts.seed,
        r.wall.len()
    );
    for (m, v) in selected {
        eprintln!("  {:<28} {:>16.6} {}", m.name, v, m.unit);
    }
    let failed: Vec<&str> = r
        .checks
        .iter()
        .filter(|(_, ok)| !**ok)
        .map(|(k, _)| *k)
        .collect();
    eprintln!(
        "  operations: {} attempted, {} failed; checks: {}",
        r.attempted,
        r.failed,
        if failed.is_empty() {
            "all passed".to_string()
        } else {
            format!("FAILED {}", failed.join(", "))
        }
    );
}
