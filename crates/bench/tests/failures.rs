//! Integration test for the failure contract of `all_experiments`: a
//! panicking harness must not take down the run — every other harness
//! completes, the failure is reported in a FAILURES section, and the
//! process exits 1 — a requested report that cannot be written also
//! exits 1, and a malformed command line exits 2 before any simulation
//! runs — in the campaign binaries too.

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
fn an_unwritable_report_fails_the_run() {
    let out = run(&["--trace-out", "/no/such/dir/t.json"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stdout.matches(" took ").count(), 17, "{stdout}");
    assert!(
        stderr.contains("error: writing /no/such/dir/t.json"),
        "{stderr}"
    );
}

#[test]
fn malformed_command_lines_exit_two_before_running() {
    let journal = std::env::temp_dir().join(format!("tako-failures-{}", std::process::id()));
    let journal = journal.to_str().expect("utf-8 temp path");
    for args in [
        &["--scale", "abc"][..],
        &["--deadline", "5"],
        &["--only", "nosuch"],
        &["--only", ""],
        &["--force-panic", "nosuch"],
        // A harness that is not selected cannot fail, so the failure
        // contract would pass vacuously.
        &["--only", "fig06", "--force-panic", "fig14"],
        // A misspelled flag is not ignored: it would run all 17.
        &["--olny", "fig13"],
        // Recovery is `--resume`, not a flag.
        &["--journal", journal, "--retries", "1"],
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran experiments");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args[args.len() - 2];
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
        if flag == "--only" {
            assert!(stderr.contains("fig06,fig07,"), "known names: {stderr}");
        }
        if ["--olny", "--retries"].contains(&flag) {
            assert!(stderr.contains("unknown argument"), "{args:?}: {stderr}");
            assert!(stderr.contains("--only <names>"), "known flags: {stderr}");
        }
    }
    assert!(
        !std::path::Path::new(journal).exists(),
        "a rejected command line created its journal"
    );
}

#[test]
fn only_runs_the_selection_in_table_order() {
    let out = run(&["--only", "table2,fig06,table2"]);
    let stdout = String::from_utf8_lossy(&out.stdout);

    assert_eq!(out.status.code(), Some(0));
    let took: Vec<&str> = stdout.lines().filter(|l| l.contains(" took ")).collect();
    assert_eq!(took.len(), 2, "{stdout}");
    assert!(took[0].starts_with("  [fig06 took"), "{stdout}");
    assert!(took[1].starts_with("  [table2 took"), "{stdout}");
}

#[test]
fn malformed_campaign_command_lines_exit_two_before_running() {
    let cases: [(&str, &[&str]); 6] = [
        (env!("CARGO_BIN_EXE_crash_campaign"), &["--kinds", ""]),
        (env!("CARGO_BIN_EXE_crash_campaign"), &["--seed", "x"]),
        (
            env!("CARGO_BIN_EXE_fault_campaign"),
            &["--scenarios", "abc"],
        ),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--faults"]),
        (
            env!("CARGO_BIN_EXE_fault_campaign"),
            &["--watchdog-cycles", "abc"],
        ),
        (env!("CARGO_BIN_EXE_fault_campaign"), &["--scenario", "2"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("spawn campaign");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(args[0]), "{bin} {args:?}: {stderr}");
    }
}
