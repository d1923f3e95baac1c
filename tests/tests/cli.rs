//! Contract tests of the `vccmin-repro` CLI: the worker count never reaches
//! the result bytes, bad flags are parse errors, not panics or silently
//! ignored input, and a value that does not exist prints as an empty cell or
//! `n/a`, never as a zero.
//!
//! `RAYON_NUM_THREADS=1` is the one way to run single-threaded (the pool then
//! maps every job in order on the calling thread), so the tests compare the
//! stdout of one worker against two. They shell out to the real binary so the
//! process contract (stdout bytes, exit codes, diagnostics) is pinned, not
//! just the library.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn workspace_root() -> PathBuf {
    // tests/ lives directly under the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ has a parent")
        .to_path_buf()
}

fn repro(args: &[&str], threads: &str) -> Output {
    Command::new(env!("CARGO"))
        .args(["run", "-p", "vccmin-experiments", "--bin", "vccmin-repro", "--quiet", "--"])
        .args(args)
        .env("RAYON_NUM_THREADS", threads)
        .current_dir(workspace_root())
        .output()
        .expect("failed to spawn cargo run --bin vccmin-repro")
}

fn assert_stdout_independent_of_worker_count(args: &[&str]) {
    let one = repro(args, "1");
    let two = repro(args, "2");
    for out in [&one, &two] {
        assert!(
            out.status.success(),
            "vccmin-repro {args:?} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(!one.stdout.is_empty(), "vccmin-repro {args:?} printed nothing");
    assert_eq!(
        String::from_utf8_lossy(&one.stdout),
        String::from_utf8_lossy(&two.stdout),
        "vccmin-repro {args:?}: one worker and two workers disagree"
    );
}

#[test]
fn schemes_csv_is_byte_identical_on_one_and_two_workers() {
    assert_stdout_independent_of_worker_count(&["schemes", "--smoke", "--csv"]);
}

#[test]
fn yield_csv_is_byte_identical_on_one_and_two_workers() {
    assert_stdout_independent_of_worker_count(&["yield", "--smoke", "--csv"]);
}

/// A checkpointed campaign prints the plain run's bytes twice: cold, when it
/// computes and persists every shard, and resumed, when every shard is loaded
/// from disk.
#[test]
fn checkpointed_yield_csv_matches_the_plain_run_cold_and_resumed() {
    let plain = repro(&["yield", "--smoke", "--csv"], "2");
    assert!(plain.status.success());
    let dir = std::env::temp_dir().join(format!("vccmin-cli-checkpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("a UTF-8 temp path");
    for run in ["cold", "resumed"] {
        let out = repro(&["yield", "--smoke", "--csv", "--checkpoint", dir_arg], "2");
        assert!(
            out.status.success(),
            "{run} run failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&plain.stdout),
            "{run} checkpointed run differs from the plain run"
        );
        // The smoke campaign is a single shard: after the cold run it is on
        // disk, so the resumed run computes nothing.
        let shards = std::fs::read_dir(&dir).expect("the checkpoint directory exists").count();
        assert_eq!(shards, 1, "{run}: the smoke campaign's one shard must be persisted");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The CLI contract for bad input: (args, exit code, stderr substring). Every
/// row must also print nothing on stdout and must not panic.
const REJECTED: &[(&[&str], i32, &str)] = &[
    // Degenerate counts would print all-zero tables that read as results.
    (&["schemes", "--smoke", "--instructions", "0"], 1, "--instructions must be at least 1"),
    (&["schemes", "--smoke", "--pairs", "0", "--csv"], 1, "--pairs must be at least 1"),
    (&["yield", "--smoke", "--dies", "0"], 1, "--dies must be at least 1"),
    // A flag the target does not read is an error, not silently ignored.
    (&["yield", "--smoke", "--pfail", "0.5"], 1, "--pfail does not apply to the `yield` target"),
    (&["yield", "--smoke", "--pairs", "3"], 1, "--pairs does not apply to the `yield` target"),
    (
        &["yield", "--smoke", "--instructions", "5"],
        1,
        "--instructions does not apply to the `yield` target",
    ),
    (&["yield", "--core", "in-order"], 1, "--core does not apply to the `yield` target"),
    (&["lowvolt", "--scheme", "bit-fix"], 1, "--scheme does not apply to the `lowvolt` target"),
    (&["highvolt", "--pairs", "2"], 1, "--pairs does not apply to the `highvolt` target"),
    // --pfail must be a probability.
    (&["schemes", "--smoke", "--pfail", "nan"], 1, "--pfail must be a probability"),
    (&["schemes", "--smoke", "--pfail", "-1"], 1, "--pfail must be a probability"),
    (&["schemes", "--smoke", "--pfail", "2"], 1, "--pfail must be a probability"),
    (&["schemes", "--smoke", "--pfail", "inf"], 1, "--pfail must be a probability"),
    // A checkpoint path that is a regular file cannot hold shard records.
    (&["yield", "--smoke", "--checkpoint", "Cargo.toml"], 1, "checkpoint directory"),
];

#[test]
fn bad_flags_are_parse_errors_naming_the_flag() {
    for &(args, code, expected) in REJECTED {
        let out = repro(args, "1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(code), "{args:?} must exit {code}:\n{stderr}");
        assert!(stderr.contains(expected), "{args:?}: stderr must contain {expected:?}:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not run a campaign");
    }
}

#[test]
fn serial_flag_is_gone() {
    let out = repro(&["schemes", "--smoke", "--serial"], "1");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --serial"));
}

/// A scheme none of whose fault maps can be repaired has no performance: its
/// cells are empty and its summary reads `n/a`, not a `0.000000` cell that
/// reads as "loses all performance" or a summary gain of `inf%`. At
/// `--pfail 0.02` word disabling cannot repair any fault map of the smoke
/// campaign.
#[test]
fn unrepairable_schemes_render_empty_cells_not_zeros() {
    let flags = ["--smoke", "--pfail", "0.02", "--pairs", "2", "--instructions", "3000", "--csv"];
    let schemes = repro(&[&["schemes"][..], &flags[..]].concat(), "2");
    assert!(schemes.status.success());
    let csv = String::from_utf8_lossy(&schemes.stdout);
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("a CSV header").split(',').collect();
    let word = header.iter().position(|&l| l == "word disabling avg").expect("a word column");
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        assert_eq!(cells.len(), header.len(), "{line}");
        assert_eq!(&cells[word..word + 2], ["", ""], "word disabling must be empty: {line}");
        assert!(cells[1..].iter().all(|&c| c != "0.000000"), "silent zero in {line}");
    }

    let lowvolt = repro(&[&["lowvolt"][..], &flags[..]].concat(), "2");
    assert!(lowvolt.status.success());
    let stdout = String::from_utf8_lossy(&lowvolt.stdout);
    assert!(!stdout.contains("0.000000"), "silent zero in:\n{stdout}");
    let stderr = String::from_utf8_lossy(&lowvolt.stderr);
    assert!(stderr.contains("word=n/a"), "{stderr}");
    assert!(stderr.contains("improves on word by n/a"), "{stderr}");
    assert!(!stderr.contains("inf%"), "{stderr}");
}
