//! Drives the `crash_campaign` binary — the recovery-equivalence
//! sweep — as an integration test, so `cargo test` proves the
//! property, not just CI.
//!
//! The binary enumerates every I/O site of a small journaled campaign
//! (counting pass), then for each fault kind and each site injects the
//! fault there, resumes on clean storage (repairing with the journal
//! doctor when the manifest is the casualty), and requires the resumed
//! output digest to equal the uninterrupted run's golden digest. Zero
//! panics, zero mismatches, every site.

use std::process::Command;

fn sweep(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_crash_campaign"))
        .args(args)
        .output()
        .expect("run crash_campaign");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn crash_point_sweep_recovers_every_site_for_every_fault_kind() {
    let root = std::env::temp_dir().join(format!("tako-sweep-test-{}", std::process::id()));
    let (ok, stdout, stderr) = sweep(&["--root", root.to_str().unwrap(), "--seed", "7"]);
    assert!(ok, "sweep failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("crash sweep: every site recovered to the golden digest"),
        "{stdout}"
    );
    // All seven deterministic fault kinds swept, none with failures.
    for kind in [
        "crash",
        "crash-after",
        "torn",
        "drop-rename",
        "flip",
        "dup-append",
        "error",
    ] {
        let line = stdout
            .lines()
            .find(|l| l.starts_with(kind))
            .unwrap_or_else(|| panic!("no summary line for {kind}:\n{stdout}"));
        assert!(line.contains("0 failures: ok"), "{line}");
    }
    // The counting pass found a non-trivial number of I/O sites.
    let sites: u64 = stdout
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(4).and_then(|s| s.parse().ok()))
        .expect("site count in header line");
    assert!(sites >= 20, "suspiciously few I/O sites: {sites}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sweep_is_deterministic_across_invocations() {
    let root = std::env::temp_dir().join(format!("tako-sweep-det-{}", std::process::id()));
    let (ok1, out1, _) = sweep(&["--root", root.to_str().unwrap(), "--kinds", "crash"]);
    let (ok2, out2, _) = sweep(&["--root", root.to_str().unwrap(), "--kinds", "crash"]);
    assert!(ok1 && ok2);
    assert_eq!(out1, out2, "sweep output must be invocation-deterministic");
    let _ = std::fs::remove_dir_all(&root);
}
