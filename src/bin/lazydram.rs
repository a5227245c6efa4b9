//! `lazydram` — command-line front end for the simulator.
//!
//! ```text
//! lazydram apps                         list the 20 workloads and groups
//! lazydram backends                     list the memory-backend presets
//! lazydram run <APP> [--scheme S] [--scale F] [--backend B]
//! lazydram sweep <APP> [--scale F] [--backend B]      DMS delay sweep for one app
//! lazydram schemes <APP> [--scale F] [--backend B]    all six paper schemes side by side
//! lazydram cache <stats | ls | gc --max-bytes N | clear>
//!                                       administer the result store (LAZYDRAM_CACHE_DIR)
//! ```
//!
//! `--backend` picks a memory-technology preset (`lazydram backends` lists
//! the labels); the default is the paper's GDDR5 machine.
//! `--scale` is a finite, positive work scale (default 0.5). Each
//! subcommand accepts only the flags and arguments listed above: an
//! unknown, repeated or stray argument, a malformed value, or a flag given
//! without one exits with status 2 before anything is simulated. A reader
//! that closes stdout early (`| head`) ends the run quietly.

use lazydram::bench::{parse_scale, CacheMode, EntryInfo, RunEnv, Store};
use lazydram::common::{DmsMode, DramPreset, SchedConfig};
use lazydram::energy::{EnergyModel, MemoryTech};
use lazydram::gpu::application_error;
use lazydram::workloads::{all_apps, by_name, AppSpec};
use lazydram::{Scheme, SimBuilder};
use std::io::{self, ErrorKind, Write};

const USAGE: &str = "usage: lazydram <apps | backends | run APP [--scheme S] | sweep APP | \
                     schemes APP | cache <stats|ls|gc --max-bytes N|clear>> [--scale F] [--backend B]";

const CACHE_USAGE: &str = "usage: lazydram cache <stats | ls | gc --max-bytes N | clear>";

/// Reports a command-line error and exits with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// One subcommand's command line: its positional arguments and the values
/// of the `--flag value` pairs it accepts.
struct Args {
    positional: Vec<String>,
    flags: Vec<(&'static str, String)>,
}

impl Args {
    /// Splits the arguments after subcommand `cmd` into at most
    /// `positionals` positional arguments and the `flags` it accepts. An
    /// unknown or repeated flag, a flag without a value, or a stray
    /// positional exits with status 2, naming the argument.
    fn parse(cmd: &str, args: &[String], positionals: usize, flags: &[&'static str]) -> Self {
        let mut parsed = Args {
            positional: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if let Some(&flag) = flags.iter().find(|&&f| f == arg) {
                let Some(value) = it.next() else {
                    usage_error(&format!("{flag} needs a value"));
                };
                if parsed.flag(flag).is_some() {
                    usage_error(&format!("{flag} given twice"));
                }
                parsed.flags.push((flag, value.clone()));
            } else if arg.starts_with('-') {
                let accepted = if flags.is_empty() {
                    "no flags".to_string()
                } else {
                    flags.join(", ")
                };
                usage_error(&format!(
                    "unknown flag {arg:?} for `lazydram {cmd}` (it accepts {accepted})"
                ));
            } else if parsed.positional.len() < positionals {
                parsed.positional.push(arg.clone());
            } else {
                usage_error(&format!("unexpected argument {arg:?} to `lazydram {cmd}`"));
            }
        }
        parsed
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(f, _)| *f == name)
            .map(|(_, v)| v.as_str())
    }

    /// The APP argument, which must be a suite app.
    fn app(&self) -> AppSpec {
        let Some(name) = self.positional.first() else {
            usage_error(USAGE);
        };
        by_name(name).unwrap_or_else(|| {
            usage_error(&format!(
                "unknown app {name:?}; run `lazydram apps` for the list"
            ))
        })
    }

    fn scale(&self) -> f64 {
        self.flag("--scale").map_or(0.5, |s| {
            parse_scale(s).unwrap_or_else(|e| usage_error(&format!("--scale {e}")))
        })
    }

    fn backend(&self) -> DramPreset {
        self.flag("--backend").map_or(DramPreset::Gddr5, |label| {
            DramPreset::by_label(label).unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown backend {label:?}; valid labels: {}",
                    DramPreset::labels().join(", ")
                ))
            })
        })
    }

    fn scheme(&self) -> Scheme {
        let label = self.flag("--scheme").unwrap_or("Dyn-DMS+Dyn-AMS");
        Scheme::by_label(label).unwrap_or_else(|| {
            let labels = Scheme::ALL.map(Scheme::label);
            usage_error(&format!("unknown scheme {label:?} ({})", labels.join(", ")))
        })
    }
}

fn cmd_backends(out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<8} {:>4}  {:>6}  {:>5}  {:>6}",
        "label", "ch", "MHz", "banks", "rowB"
    )?;
    for p in DramPreset::ALL {
        let c = p.gpu_config();
        writeln!(
            out,
            "{:<8} {:>4}  {:>6}  {:>5}  {:>6}",
            p.label(),
            c.num_channels,
            c.mem_clock_mhz,
            c.banks_per_channel,
            c.row_bytes,
        )?;
    }
    Ok(())
}

fn cmd_apps(out: &mut impl Write) -> io::Result<()> {
    writeln!(out, "{:<14} {:>5}  description", "app", "group")?;
    for a in all_apps() {
        writeln!(out, "{:<14} {:>5}  {}", a.name, a.group, a.description)?;
    }
    writeln!(
        out,
        "\ngroups 1-3 are error tolerant (AMS applies); group 4 is delay-only"
    )
}

fn cmd_run(out: &mut impl Write, args: &Args) -> io::Result<()> {
    let (app, scheme) = (&args.app(), args.scheme());
    let (scale, preset) = (args.scale(), args.backend());
    let run = SimBuilder::new(app)
        .preset(preset)
        .scheme(scheme)
        .scale(scale)
        .build();
    let exact = run.exact_output();
    let r = run.run();
    let e = EnergyModel::new(MemoryTech::for_preset(preset)).breakdown(&r.stats.dram);
    writeln!(
        out,
        "{} under {} (scale {scale}, backend {preset})",
        app.name,
        scheme.label()
    )?;
    writeln!(out, "  core cycles      {:>12}", r.stats.core_cycles)?;
    writeln!(out, "  IPC              {:>12.3}", r.stats.ipc())?;
    writeln!(out, "  DRAM activations {:>12}", r.stats.dram.activations)?;
    writeln!(out, "  Avg-RBL          {:>12.2}", r.stats.dram.avg_rbl())?;
    writeln!(out, "  row energy       {:>12.1} µJ", e.row_energy_pj / 1e6)?;
    writeln!(
        out,
        "  coverage         {:>11.1}%",
        100.0 * r.stats.dram.coverage()
    )?;
    writeln!(
        out,
        "  app error        {:>11.2}%",
        100.0 * application_error(&exact, &r.output)
    )?;
    if scheme.sched().ams.is_enabled() {
        // Declines are indexed by `lazydram::core::AmsDecline`.
        writeln!(
            out,
            "  ams_accepts {}  ams_declines {:?}",
            r.stats.ams_accepts, r.stats.ams_declines
        )?;
    }
    Ok(())
}

fn cmd_sweep(out: &mut impl Write, args: &Args) -> io::Result<()> {
    let (app, scale, preset) = (&args.app(), args.scale(), args.backend());
    let base = SimBuilder::new(app)
        .preset(preset)
        .scheme(Scheme::Baseline)
        .scale(scale)
        .build()
        .run();
    writeln!(
        out,
        "{}: DMS delay sweep (scale {scale}, backend {preset})",
        app.name
    )?;
    writeln!(out, "{:>7} {:>10} {:>9}", "delay", "norm acts", "norm IPC")?;
    for d in [0u32, 64, 128, 256, 512, 1024, 2048] {
        let sched = SchedConfig {
            dms: if d == 0 {
                DmsMode::Off
            } else {
                DmsMode::Static(d)
            },
            ..SchedConfig::baseline()
        };
        let r = SimBuilder::new(app)
            .preset(preset)
            .sched(sched, format!("DMS({d})"))
            .scale(scale)
            .build()
            .run();
        writeln!(
            out,
            "{d:>7} {:>10.3} {:>9.3}",
            r.stats.dram.activations as f64 / base.stats.dram.activations.max(1) as f64,
            r.stats.ipc() / base.stats.ipc().max(1e-9),
        )?;
    }
    Ok(())
}

fn cmd_schemes(out: &mut impl Write, args: &Args) -> io::Result<()> {
    let (app, scale, preset) = (&args.app(), args.scale(), args.backend());
    let base_run = SimBuilder::new(app)
        .preset(preset)
        .scheme(Scheme::Baseline)
        .scale(scale)
        .build();
    let exact = base_run.exact_output();
    let base = base_run.run();
    writeln!(
        out,
        "{}: all schemes (scale {scale}, backend {preset})",
        app.name
    )?;
    writeln!(
        out,
        "baseline: {} activations, IPC {:.3}, Avg-RBL {:.2}",
        base.stats.dram.activations,
        base.stats.ipc(),
        base.stats.dram.avg_rbl()
    )?;
    writeln!(
        out,
        "{:>24} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "scheme", "acts", "norm acts", "norm IPC", "coverage", "error", "Avg-RBL"
    )?;
    for scheme in Scheme::PAPER {
        let r = SimBuilder::new(app)
            .preset(preset)
            .scheme(scheme)
            .scale(scale)
            .build()
            .run();
        writeln!(
            out,
            "{:>24} {:>10} {:>10.3} {:>9.3} {:>8.1}% {:>8.2}% {:>8.2}",
            scheme.label(),
            r.stats.dram.activations,
            r.stats.dram.activations as f64 / base.stats.dram.activations.max(1) as f64,
            r.stats.ipc() / base.stats.ipc().max(1e-9),
            100.0 * r.stats.dram.coverage(),
            100.0 * application_error(&exact, &r.output),
            r.stats.dram.avg_rbl(),
        )?;
    }
    Ok(())
}

/// Opens the result store named by `LAZYDRAM_CACHE_DIR` for administration
/// (the mode knob only affects sweeps, not `cache` subcommands).
fn cache_store() -> Store {
    let dir = RunEnv::load().cache.map(|p| p.dir).unwrap_or_else(|| {
        eprintln!("LAZYDRAM_CACHE_DIR is not set; point it at the result store to administer");
        std::process::exit(2);
    });
    Store::open(&dir, CacheMode::Auto).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn entry_age(e: &EntryInfo) -> String {
    match e.used.and_then(|t| t.elapsed().ok()) {
        Some(d) => format!("{}s ago", d.as_secs()),
        None => "-".to_string(),
    }
}

/// `lazydram cache ACTION`: `args` are the arguments after `cache`.
fn cmd_cache(out: &mut impl Write, args: &[String]) -> io::Result<()> {
    let (action, rest) = match args.split_first() {
        Some((a, rest)) if matches!(a.as_str(), "stats" | "ls" | "gc" | "clear") => {
            (a.as_str(), rest)
        }
        _ => usage_error(CACHE_USAGE),
    };
    let flags: &[&str] = if action == "gc" {
        &["--max-bytes"]
    } else {
        &[]
    };
    let parsed = Args::parse(&format!("cache {action}"), rest, 0, flags);
    let store = cache_store();
    let entries = |msg: &str| -> Vec<EntryInfo> {
        store.entries().unwrap_or_else(|e| {
            eprintln!("{msg}: {e}");
            std::process::exit(1);
        })
    };
    match action {
        "stats" => {
            let es = entries("cannot stat store");
            let bytes: u64 = es.iter().map(|e| e.bytes).sum();
            let invalid = es.iter().filter(|e| e.identity.is_err()).count();
            writeln!(out, "store {}", store.dir().display())?;
            writeln!(out, "  entries {:>12}", es.len())?;
            writeln!(out, "  invalid {:>12}", invalid)?;
            writeln!(out, "  bytes   {:>12}", bytes)?;
        }
        "ls" => {
            for e in entries("cannot list store") {
                let what = match &e.identity {
                    Ok((app, scheme)) => format!("{app}/{scheme}"),
                    Err(err) => format!("INVALID ({err})"),
                };
                let name = e.path.file_name().map_or_else(
                    || e.path.display().to_string(),
                    |n| n.to_string_lossy().into_owned(),
                );
                writeln!(
                    out,
                    "{:>10}  {:>12}  {:<28} {}",
                    e.bytes,
                    entry_age(&e),
                    what,
                    name
                )?;
            }
        }
        "gc" => {
            let max_bytes: u64 = parsed
                .flag("--max-bytes")
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    usage_error(
                        "usage: lazydram cache gc --max-bytes N (a byte budget, e.g. 104857600)",
                    )
                });
            let evicted = store.gc(max_bytes).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            let freed: u64 = evicted.iter().map(|e| e.bytes).sum();
            for e in &evicted {
                writeln!(out, "evicted {}", e.path.display())?;
            }
            writeln!(
                out,
                "gc: evicted {} entries, freed {freed} bytes",
                evicted.len()
            )?;
        }
        "clear" => {
            let n = store.clear().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            writeln!(out, "cleared {n} files from {}", store.dir().display())?;
        }
        _ => unreachable!("actions are checked above"),
    }
    Ok(())
}

/// Parses the command line and runs one subcommand, writing its report to
/// `out`. Each subcommand reads its arguments before it simulates.
fn dispatch(args: &[String], out: &mut impl Write) -> io::Result<()> {
    let Some((cmd, rest)) = args.split_first() else {
        usage_error(USAGE);
    };
    let parse = |positionals, flags| Args::parse(cmd, rest, positionals, flags);
    let sweep_flags = &["--scale", "--backend"];
    match cmd.as_str() {
        "apps" => {
            parse(0, &[]);
            cmd_apps(out)
        }
        "backends" => {
            parse(0, &[]);
            cmd_backends(out)
        }
        "run" => cmd_run(out, &parse(1, &["--scheme", "--scale", "--backend"])),
        "sweep" => cmd_sweep(out, &parse(1, sweep_flags)),
        "schemes" => cmd_schemes(out, &parse(1, sweep_flags)),
        "cache" => cmd_cache(out, rest),
        _ => usage_error(USAGE),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args, &mut io::stdout().lock()) {
        Ok(()) => {}
        // The reader went away (`| head`): nothing is left to report to.
        Err(e) if e.kind() == ErrorKind::BrokenPipe => {}
        Err(e) => {
            eprintln!("lazydram: writing to stdout: {e}");
            std::process::exit(1);
        }
    }
}
