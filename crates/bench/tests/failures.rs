//! Integration test for the failure contract of `all_experiments`: a
//! panicking harness must not take down the run — every other harness
//! completes, the failure is reported in a FAILURES section, and the
//! process exits 1 — while a malformed command line exits 2 before any
//! simulation runs.

use std::process::Command;

const SCALE: &str = "0.02";

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(["--scale", SCALE, "--jobs", "2"])
        .args(args)
        .output()
        .expect("spawn all_experiments")
}

#[test]
fn forced_panic_is_isolated_and_reported() {
    let out = run(&["--force-panic", "fig14"]);
    let stdout = String::from_utf8_lossy(&out.stdout);

    assert_eq!(
        out.status.code(),
        Some(1),
        "a failed harness must give exit 1"
    );
    assert!(
        stdout.contains("FAILURES:"),
        "missing FAILURES section:\n{stdout}"
    );
    assert!(
        stdout.contains("fig14: forced panic in fig14"),
        "failure line must carry the panic payload:\n{stdout}"
    );
    // Every other harness still ran to completion and printed its
    // timing annotation.
    let completed = stdout.matches(" took ").count();
    assert_eq!(completed, 16, "expected 16 surviving harnesses:\n{stdout}");
    assert!(
        !stdout.contains("[fig14 took"),
        "the panicked harness must not report success:\n{stdout}"
    );
}

#[test]
fn clean_run_exits_zero() {
    let out = run(&[]);
    let stdout = String::from_utf8_lossy(&out.stdout);

    assert_eq!(out.status.code(), Some(0));
    assert!(!stdout.contains("FAILURES:"));
    assert_eq!(stdout.matches(" took ").count(), 17);
}

#[test]
fn malformed_command_lines_exit_two_before_running() {
    for args in [&["--scale", "abc"][..], &["--deadline", "5"]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
    }
}
