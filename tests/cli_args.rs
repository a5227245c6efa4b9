//! The `lazydram` CLI refuses a malformed `--scale` before simulating:
//! exit status 2, a message naming the flag, and nothing on stdout.

use std::process::Command;

fn lazydram(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lazydram"))
        .args(args)
        .output()
        .expect("lazydram starts")
}

#[test]
fn malformed_scale_exits_2_before_simulating() {
    for args in [
        &["run", "SLA", "--scale", "abc"][..],
        &["run", "SLA", "--scale"],
        &["run", "SLA", "--scale", "0"],
        &["run", "SLA", "--scale", "-1"],
    ] {
        let out = lazydram(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--scale"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} simulated something");
    }
}
