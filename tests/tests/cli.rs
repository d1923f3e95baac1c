//! Contract tests of the `vccmin-repro` CLI: the worker count never reaches
//! the result bytes, and bad flag values are parse errors, not panics.
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

#[test]
fn bad_pfail_is_a_parse_error_naming_the_flag() {
    for bad in ["nan", "-1", "2", "inf"] {
        let out = repro(&["schemes", "--smoke", "--pfail", bad], "1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--pfail {bad} must exit 1:\n{stderr}");
        assert!(stderr.contains("--pfail"), "--pfail {bad}: error must name the flag:\n{stderr}");
        assert!(!stderr.contains("panicked"), "--pfail {bad} panicked:\n{stderr}");
        assert!(out.stdout.is_empty(), "--pfail {bad} must not run a campaign");
    }
}

#[test]
fn serial_flag_is_gone() {
    let out = repro(&["schemes", "--smoke", "--serial"], "1");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option --serial"));
}
