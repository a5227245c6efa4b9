//! `dbg_diverge` refuses a malformed command line: a SCALE or STRIDE that
//! does not parse, or an unknown APP, exits with status 2 and a message
//! naming the argument, before any simulation starts (stdout stays empty:
//! the bisection header is the first thing a simulating run prints). A
//! reader that closes stdout early ends the run without a panic.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Runs `dbg_diverge` with `args`; returns its stdout and stderr after
/// asserting that it exited with status 2.
fn refused(args: &[&str]) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dbg_diverge"))
        .args(args)
        .output()
        .expect("dbg_diverge starts");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

#[test]
fn malformed_scale_is_refused() {
    let (stdout, stderr) = refused(&["SLA", "128", "256", "0,05", "4096"]);
    assert!(stdout.is_empty(), "simulated: {stdout}");
    assert!(
        stderr.contains("SCALE") && stderr.contains("\"0,05\""),
        "{stderr}"
    );
}

#[test]
fn malformed_stride_is_refused() {
    let (stdout, stderr) = refused(&["SLA", "128", "256", "0.05", "40x"]);
    assert!(stdout.is_empty(), "simulated: {stdout}");
    assert!(
        stderr.contains("STRIDE") && stderr.contains("\"40x\""),
        "{stderr}"
    );
}

#[test]
fn unknown_app_is_refused_with_the_app_list() {
    let (stdout, stderr) = refused(&["NOPE", "128", "256", "0.05", "4096"]);
    assert!(stdout.is_empty(), "simulated: {stdout}");
    assert!(stderr.contains("\"NOPE\""), "{stderr}");
    for app in lazydram_workloads::all_apps() {
        assert!(
            stderr.contains(app.name),
            "{} not listed: {stderr}",
            app.name
        );
    }
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbg_diverge"))
        .args(["SLA", "128", "256", "0.05", "4096"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("dbg_diverge starts");
    // The header line comes before any simulation; closing the pipe right
    // after it makes the bisection's next line hit a closed pipe.
    let mut reader = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut header = String::new();
    reader.read_line(&mut header).expect("header line");
    assert!(header.starts_with("SLA @ scale 0.05"), "{header}");
    drop(reader);
    let out = child.wait_with_output().expect("dbg_diverge exits");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "{stderr}");
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
}
