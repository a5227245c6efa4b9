//! The `lazydram` CLI refuses a malformed command line before simulating:
//! a malformed `--scale`, an unknown flag or a stray argument exits with
//! status 2, a message naming the argument, and nothing on stdout. A
//! reader that closes stdout early ends the run without a panic.

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
