//! `dbg_diverge` refuses a malformed command line: a SCALE or STRIDE that
//! does not parse, or an unknown APP, exits with status 2 and a message
//! naming the argument, before any simulation starts (stdout stays empty:
//! the bisection header is the first thing a simulating run prints).

use std::process::Command;

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
