//! Every `LAZYDRAM_*` environment knob the code reads is documented in the
//! README's knob table, and every row of that table names a knob something
//! reads.
//!
//! A knob is a string literal that is exactly a `LAZYDRAM_…` name in a `.rs`
//! file under `crates/`, `src/` or `examples/`. Two kinds are not knobs: the
//! benchmark's own sources (`crates/bench/examples/benchmark/`, which refuse
//! any `LAZYDRAM_*` variable rather than read one) and the
//! `LAZYDRAM_TEST_…` variables tests use to talk to their own child
//! processes.
//!
//! Every knob is read once, in one place: `RunEnv` in
//! `crates/bench/src/run_env.rs` is the only file that names one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

const PREFIX: &str = "LAZYDRAM_";

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The names of every `"LAZYDRAM_…"` string literal in `src`.
fn knob_literals(src: &str) -> Vec<String> {
    let quoted = format!("\"{PREFIX}");
    let mut names = Vec::new();
    let mut rest = src;
    while let Some(at) = rest.find(&quoted) {
        let tail = &rest[at + 1..];
        let len = tail
            .find(|c: char| !(c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'))
            .unwrap_or(tail.len());
        if tail[len..].starts_with('"') && len > PREFIX.len() {
            names.push(tail[..len].to_string());
        }
        rest = &tail[len..];
    }
    names
}

/// Every knob read, with the files (relative to the root) that name it.
fn knob_files() -> BTreeMap<String, BTreeSet<PathBuf>> {
    let root = root();
    let excluded = root.join("crates/bench/examples/benchmark");
    let mut files = Vec::new();
    for dir in ["crates", "src", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut knobs: BTreeMap<String, BTreeSet<PathBuf>> = BTreeMap::new();
    for f in files.iter().filter(|f| !f.starts_with(&excluded)) {
        let names = knob_literals(&fs::read_to_string(f).expect("read source"));
        for name in names
            .into_iter()
            .filter(|n| !n.starts_with("LAZYDRAM_TEST_"))
        {
            let rel = f.strip_prefix(&root).expect("under the root").to_path_buf();
            knobs.entry(name).or_default().insert(rel);
        }
    }
    knobs
}

fn knobs_read() -> BTreeSet<String> {
    knob_files().into_keys().collect()
}

/// The knob named by each ``| `LAZYDRAM_X=example` | effect |`` row.
fn knobs_documented(readme: &str) -> Vec<String> {
    let row = format!("| `{PREFIX}");
    readme
        .lines()
        .filter_map(|line| line.strip_prefix(&row))
        .map(|rest| {
            let len = rest.find(['=', '`']).expect("knob row names its variable");
            format!("{PREFIX}{}", &rest[..len])
        })
        .collect()
}

#[test]
fn literal_scanner_finds_exact_names_only() {
    let src = r#"env::var("LAZYDRAM_JOBS"); "LAZYDRAM_"; "LAZYDRAM_X is bad"; "LAZYDRAM_A1_B""#;
    assert_eq!(knob_literals(src), ["LAZYDRAM_JOBS", "LAZYDRAM_A1_B"]);
}

#[test]
fn every_knob_read_has_a_readme_row_and_every_row_is_read() {
    let readme = fs::read_to_string(root().join("README.md")).expect("read README.md");
    let rows = knobs_documented(&readme);
    let documented: BTreeSet<String> = rows.iter().cloned().collect();
    assert_eq!(
        documented.len(),
        rows.len(),
        "README knob table repeats a row: {rows:?}"
    );

    let read = knobs_read();
    let undocumented: Vec<_> = read.difference(&documented).collect();
    let unread: Vec<_> = documented.difference(&read).collect();
    assert!(
        undocumented.is_empty(),
        "knobs read but missing from README's table: {undocumented:?}"
    );
    assert!(
        unread.is_empty(),
        "README table rows that nothing reads: {unread:?}"
    );

    let count = format!("{} environment knobs", read.len());
    assert!(
        readme.contains(&count),
        "README must state the knob count as {count:?}"
    );
}

#[test]
fn every_knob_is_read_in_run_env_only() {
    let run_env = Path::new("crates/bench/src/run_env.rs");
    let knobs = knob_files();
    assert!(!knobs.is_empty(), "no knob found; is the scanner broken?");
    let elsewhere: Vec<_> = knobs
        .iter()
        .filter(|(_, files)| files.len() != 1 || !files.contains(run_env))
        .collect();
    assert!(
        elsewhere.is_empty(),
        "knobs named outside {} (read every knob once, in RunEnv): {elsewhere:?}",
        run_env.display()
    );
}
