//! The `lazydram` CLI refuses a malformed command line before simulating:
//! a malformed `--scale`, an unknown flag or a stray argument exits with
//! status 2, a message naming the argument, and nothing on stdout. A
//! reader that closes stdout early ends the run without a panic. The
//! retired `naive` backend label is refused like any unknown one.

use std::process::{Command, Stdio};

fn lazydram(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lazydram"))
        .args(args)
        .output()
        .expect("lazydram starts")
}

/// Asserts that `args` exit with status 2 before printing anything, with a
/// message on stderr that contains `named`.
fn refused(args: &[&str], named: &str) {
    let out = lazydram(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(named), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} simulated something");
}

#[test]
fn malformed_scale_exits_2_before_simulating() {
    for args in [
        &["run", "SLA", "--scale", "abc"][..],
        &["run", "SLA", "--scale"],
        &["run", "SLA", "--scale", "0"],
        &["run", "SLA", "--scale", "-1"],
    ] {
        refused(args, "--scale");
    }
}

#[test]
fn unknown_and_stray_arguments_exit_2_before_simulating() {
    refused(&["run", "SLA", "--scal", "0.02"], "\"--scal\"");
    refused(&["apps", "--scael", "2"], "\"--scael\"");
    refused(&["run", "SLA", "extra"], "\"extra\"");
}

#[test]
fn naive_backend_is_refused_listing_the_three_presets() {
    let out = lazydram(&["run", "SCP", "--backend", "naive"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty(), "simulated under naive");
    assert_eq!(
        stderr.trim_end(),
        "unknown backend \"naive\"; valid labels: gddr5, hbm1, hbm2"
    );
}

#[test]
fn naive_backend_env_is_refused_naming_the_variable() {
    // `cache` is the subcommand that loads the knob environment; it parses
    // every knob before it looks for the store directory.
    let out = Command::new(env!("CARGO_BIN_EXE_lazydram"))
        .args(["cache", "stats"])
        .env("LAZYDRAM_BACKEND", "naive")
        .env_remove("LAZYDRAM_CACHE_DIR")
        .output()
        .expect("lazydram starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert!(out.stdout.is_empty(), "{stderr}");
    assert!(
        stderr.contains("LAZYDRAM_BACKEND=\"naive\" is not a DRAM backend preset"),
        "{stderr}"
    );
    assert!(
        stderr.contains("expected one of: gddr5, hbm1, hbm2\n"),
        "{stderr}"
    );
}

#[test]
fn backends_lists_exactly_the_three_presets() {
    let out = lazydram(&["backends"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let labels: Vec<&str> = stdout
        .lines()
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(labels, ["gddr5", "hbm1", "hbm2"], "{stdout}");
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lazydram"))
        .args(["run", "SLA", "--scale", "0.02"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lazydram starts");
    // The report is written only after the simulation, so closing the read
    // end now makes its first line hit a closed pipe.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("lazydram exits");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
