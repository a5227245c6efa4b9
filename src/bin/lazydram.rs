//! `lazydram` — command-line front end for the simulator.
//!
//! ```text
//! lazydram apps                         list the 20 workloads and groups
//! lazydram run <APP> [--scheme S] [--scale F] [--backend B]
//! lazydram sweep <APP> [--scale F] [--backend B]      DMS delay sweep for one app
//! lazydram schemes <APP> [--scale F] [--backend B]    all six paper schemes side by side
//! lazydram cache <stats | ls | gc --max-bytes N | clear>
//!                                       administer the result store (LAZYDRAM_CACHE_DIR)
//! ```
//!
//! `--backend` picks a memory model from the backend matrix (`lazydram
//! backends` lists the labels); the default is the paper's GDDR5 machine.
//! `--scale` is a finite, positive work scale (default 0.5). A malformed
//! value, or a flag given without one, exits with status 2 before anything
//! is simulated.

use lazydram::bench::{parse_scale, CacheMode, EntryInfo, RunEnv, Store};
use lazydram::common::{DmsMode, DramPreset, SchedConfig};
use lazydram::energy::{EnergyModel, MemoryTech};
use lazydram::gpu::application_error;
use lazydram::workloads::{all_apps, by_name, AppSpec};
use lazydram::{Scheme, SimBuilder};

/// The value after `flag`, or `None` when the flag is absent. A flag given
/// as the last argument, with no value, exits with status 2.
fn parse_flag(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(value) = args.get(i + 1) else {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    };
    Some(value.clone())
}

fn scale_or_exit(args: &[String]) -> f64 {
    let Some(s) = parse_flag(args, "--scale") else {
        return 0.5;
    };
    parse_scale(&s).unwrap_or_else(|e| {
        eprintln!("--scale {e}");
        std::process::exit(2);
    })
}

fn app_or_exit(name: &str) -> AppSpec {
    by_name(name).unwrap_or_else(|| {
        eprintln!("unknown app {name:?}; run `lazydram apps` for the list");
        std::process::exit(2);
    })
}

fn backend_or_exit(args: &[String]) -> DramPreset {
    let Some(label) = parse_flag(args, "--backend") else {
        return DramPreset::Gddr5;
    };
    DramPreset::by_label(&label).unwrap_or_else(|| {
        eprintln!(
            "unknown backend {label:?}; valid labels: {}",
            DramPreset::labels().join(", ")
        );
        std::process::exit(2);
    })
}

fn cmd_backends() {
    println!(
        "{:<8} {:>4}  {:>6}  {:>5}  {:>6}  model",
        "label", "ch", "MHz", "banks", "rowB"
    );
    for p in DramPreset::ALL {
        let c = p.gpu_config();
        println!(
            "{:<8} {:>4}  {:>6}  {:>5}  {:>6}  {:?}",
            p.label(),
            c.num_channels,
            c.mem_clock_mhz,
            c.banks_per_channel,
            c.row_bytes,
            c.backend,
        );
    }
}

fn cmd_apps() {
    println!("{:<14} {:>5}  description", "app", "group");
    for a in all_apps() {
        println!("{:<14} {:>5}  {}", a.name, a.group, a.description);
    }
    println!("\ngroups 1-3 are error tolerant (AMS applies); group 4 is delay-only");
}

fn cmd_run(app: &AppSpec, scheme: &str, scale: f64, preset: DramPreset) {
    let scheme = Scheme::by_label(scheme).unwrap_or_else(|| {
        eprintln!("unknown scheme {scheme:?} (baseline, Static-DMS, Dyn-DMS, Static-AMS, Dyn-AMS, Static-DMS+Static-AMS, Dyn-DMS+Dyn-AMS)");
        std::process::exit(2);
    });
    let run = SimBuilder::new(app)
        .preset(preset)
        .scheme(scheme)
        .scale(scale)
        .build();
    let exact = run.exact_output();
    let r = run.run();
    let e = EnergyModel::new(MemoryTech::for_preset(preset)).breakdown(&r.stats.dram);
    println!(
        "{} under {} (scale {scale}, backend {preset})",
        app.name,
        scheme.label()
    );
    println!("  core cycles      {:>12}", r.stats.core_cycles);
    println!("  IPC              {:>12.3}", r.stats.ipc());
    println!("  DRAM activations {:>12}", r.stats.dram.activations);
    println!("  Avg-RBL          {:>12.2}", r.stats.dram.avg_rbl());
    println!("  row energy       {:>12.1} µJ", e.row_energy_pj / 1e6);
    println!(
        "  coverage         {:>11.1}%",
        100.0 * r.stats.dram.coverage()
    );
    println!(
        "  app error        {:>11.2}%",
        100.0 * application_error(&exact, &r.output)
    );
    if scheme.sched().ams.is_enabled() {
        // Declines are indexed by `lazydram::core::AmsDecline`.
        println!(
            "  ams_accepts {}  ams_declines {:?}",
            r.stats.ams_accepts, r.stats.ams_declines
        );
    }
}

fn cmd_sweep(app: &AppSpec, scale: f64, preset: DramPreset) {
    let base = SimBuilder::new(app)
        .preset(preset)
        .scheme(Scheme::Baseline)
        .scale(scale)
        .build()
        .run();
    println!(
        "{}: DMS delay sweep (scale {scale}, backend {preset})",
        app.name
    );
    println!("{:>7} {:>10} {:>9}", "delay", "norm acts", "norm IPC");
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
        println!(
            "{d:>7} {:>10.3} {:>9.3}",
            r.stats.dram.activations as f64 / base.stats.dram.activations.max(1) as f64,
            r.stats.ipc() / base.stats.ipc().max(1e-9),
        );
    }
}

fn cmd_schemes(app: &AppSpec, scale: f64, preset: DramPreset) {
    let base_run = SimBuilder::new(app)
        .preset(preset)
        .scheme(Scheme::Baseline)
        .scale(scale)
        .build();
    let exact = base_run.exact_output();
    let base = base_run.run();
    println!(
        "{}: all schemes (scale {scale}, backend {preset})",
        app.name
    );
    println!(
        "baseline: {} activations, IPC {:.3}, Avg-RBL {:.2}",
        base.stats.dram.activations,
        base.stats.ipc(),
        base.stats.dram.avg_rbl()
    );
    println!(
        "{:>24} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8}",
        "scheme", "acts", "norm acts", "norm IPC", "coverage", "error", "Avg-RBL"
    );
    for scheme in Scheme::PAPER {
        let r = SimBuilder::new(app)
            .preset(preset)
            .scheme(scheme)
            .scale(scale)
            .build()
            .run();
        println!(
            "{:>24} {:>10} {:>10.3} {:>9.3} {:>8.1}% {:>8.2}% {:>8.2}",
            scheme.label(),
            r.stats.dram.activations,
            r.stats.dram.activations as f64 / base.stats.dram.activations.max(1) as f64,
            r.stats.ipc() / base.stats.ipc().max(1e-9),
            100.0 * r.stats.dram.coverage(),
            100.0 * application_error(&exact, &r.output),
            r.stats.dram.avg_rbl(),
        );
    }
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

fn cmd_cache(args: &[String]) {
    let store = cache_store();
    let entries = |msg: &str| -> Vec<EntryInfo> {
        store.entries().unwrap_or_else(|e| {
            eprintln!("{msg}: {e}");
            std::process::exit(1);
        })
    };
    match args.get(1).map(String::as_str) {
        Some("stats") => {
            let es = entries("cannot stat store");
            let bytes: u64 = es.iter().map(|e| e.bytes).sum();
            let invalid = es.iter().filter(|e| e.identity.is_err()).count();
            println!("store {}", store.dir().display());
            println!("  entries {:>12}", es.len());
            println!("  invalid {:>12}", invalid);
            println!("  bytes   {:>12}", bytes);
        }
        Some("ls") => {
            for e in entries("cannot list store") {
                let what = match &e.identity {
                    Ok((app, scheme)) => format!("{app}/{scheme}"),
                    Err(err) => format!("INVALID ({err})"),
                };
                let name = e.path.file_name().map_or_else(
                    || e.path.display().to_string(),
                    |n| n.to_string_lossy().into_owned(),
                );
                println!(
                    "{:>10}  {:>12}  {:<28} {}",
                    e.bytes,
                    entry_age(&e),
                    what,
                    name
                );
            }
        }
        Some("gc") => {
            let max_bytes: u64 = parse_flag(args, "--max-bytes")
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| {
                    eprintln!(
                        "usage: lazydram cache gc --max-bytes N (a byte budget, e.g. 104857600)"
                    );
                    std::process::exit(2);
                });
            let evicted = store.gc(max_bytes).unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            let freed: u64 = evicted.iter().map(|e| e.bytes).sum();
            for e in &evicted {
                println!("evicted {}", e.path.display());
            }
            println!("gc: evicted {} entries, freed {freed} bytes", evicted.len());
        }
        Some("clear") => {
            let n = store.clear().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(1);
            });
            println!("cleared {n} files from {}", store.dir().display());
        }
        _ => {
            eprintln!("usage: lazydram cache <stats | ls | gc --max-bytes N | clear>");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = scale_or_exit(&args);
    let preset = backend_or_exit(&args);
    match args.first().map(String::as_str) {
        Some("apps") => cmd_apps(),
        Some("backends") => cmd_backends(),
        Some("run") if args.len() >= 2 => {
            let scheme = parse_flag(&args, "--scheme").unwrap_or_else(|| "Dyn-DMS+Dyn-AMS".into());
            cmd_run(&app_or_exit(&args[1]), &scheme, scale, preset);
        }
        Some("sweep") if args.len() >= 2 => cmd_sweep(&app_or_exit(&args[1]), scale, preset),
        Some("schemes") if args.len() >= 2 => cmd_schemes(&app_or_exit(&args[1]), scale, preset),
        Some("cache") => cmd_cache(&args),
        _ => {
            eprintln!(
                "usage: lazydram <apps | backends | run APP [--scheme S] | sweep APP | \
                 schemes APP | cache <stats|ls|gc --max-bytes N|clear>> [--scale F] [--backend B]"
            );
            std::process::exit(2);
        }
    }
}
