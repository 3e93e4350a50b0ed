//! Integration tests for the journal doctor (`tako_fsck`) over the
//! committed corrupt fixtures in `regressions/fsck/`.
//!
//! The fixture directory is a real campaign journal (two synthetic
//! experiments, seed 42) that was deliberately damaged after the run:
//!
//! * `manifest.txt` — one checksum hex digit flipped (corrupt);
//! * `alpha.done` — one payload byte flipped, so the envelope digest
//!   fails (corrupt);
//! * `beta.units` — last 10 bytes chopped off, tearing the third unit
//!   record; the documented salvage prefix is **2 intact units**;
//! * `alpha.done.tmp` — stranded atomic-write staging debris;
//! * `beta.triage.txt`, `attempts.log`, `alpha.units` — legitimate
//!   survivors the doctor must leave alone.
//!
//! `--verify` must flag exactly the four damaged files; `--repair`
//! must quarantine the corrupt two, truncate the torn journal to its
//! documented prefix, delete the debris — and leave a journal a
//! `--resume` campaign completes correctly from. The `#[ignore]`d
//! `regenerate_fsck_fixtures` test rebuilds the fixtures after a
//! format change (`cargo test -p tako-bench --test fsck -- --ignored`).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, Ordering};

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::doctor::{self, Verdict};
use tako_bench::{run_variants, Experiment, Opts};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("regressions/fsck")
}

fn opts() -> Opts {
    Opts {
        scale: 1.0,
        paper: false,
        seed: 42,
        jobs: 1,
    }
}

static BETA_PANICS: AtomicBool = AtomicBool::new(false);

fn exp_alpha(o: Opts) -> String {
    let out = run_variants(o, &[1u64, 2, 3], |v| v + o.seed);
    format!("alpha {out:?}\n")
}

fn exp_beta(o: Opts) -> String {
    let out = run_variants(o, &[4u64, 5, 6], |v| v * v);
    if BETA_PANICS.swap(false, Ordering::SeqCst) {
        panic!("beta dies after journaling its units (fixture generator)");
    }
    format!("beta {out:?}\n")
}

const EXPS: &[(&str, Experiment)] = &[
    ("alpha", exp_alpha as Experiment),
    ("beta", exp_beta as Experiment),
];

const ALPHA_OUT: &str = "alpha [43, 44, 45]\n";
const BETA_OUT: &str = "beta [16, 25, 36]\n";

/// Build the damaged fixture journal at `dir` (see module docs).
fn build_fixture(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    BETA_PANICS.store(true, Ordering::SeqCst);
    let outcome = run_campaign(opts(), &CampaignOpts::fresh(dir), EXPS).expect("campaign");
    assert_eq!(
        outcome.results[0].1.as_ref().expect("alpha ok").output,
        ALPHA_OUT
    );
    assert!(outcome.results[1].1.is_err(), "beta must die in generator");

    // manifest: flip the final checksum hex digit.
    let manifest = dir.join("manifest.txt");
    let mut text = std::fs::read_to_string(&manifest).unwrap();
    let last = text.trim_end().len() - 1;
    let c = text.as_bytes()[last];
    text.replace_range(last..=last, if c == b'0' { "1" } else { "0" });
    std::fs::write(&manifest, text).unwrap();

    // alpha.done: flip one payload byte (envelope header is 52 bytes).
    let done = dir.join("alpha.done");
    let mut bytes = std::fs::read(&done).unwrap();
    bytes[60] ^= 0x10;
    std::fs::write(&done, bytes).unwrap();

    // beta.units: tear the third record's tail.
    let units = dir.join("beta.units");
    let bytes = std::fs::read(&units).unwrap();
    std::fs::write(&units, &bytes[..bytes.len() - 10]).unwrap();

    // Stranded staging file from an interrupted atomic write.
    std::fs::write(dir.join("alpha.done.tmp"), b"interrupted staging write").unwrap();
}

#[test]
#[ignore = "regenerates the committed fixtures; run after a format change"]
fn regenerate_fsck_fixtures() {
    build_fixture(&fixture_dir());
}

fn copy_fixture_to_tmp(name: &str) -> PathBuf {
    let dst = std::env::temp_dir().join(format!("tako-fsck-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dst);
    std::fs::create_dir_all(&dst).unwrap();
    for e in std::fs::read_dir(fixture_dir()).unwrap() {
        let p = e.unwrap().path();
        if p.is_file() {
            std::fs::copy(&p, dst.join(p.file_name().unwrap())).unwrap();
        }
    }
    dst
}

fn fsck(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tako_fsck"))
        .args(args)
        .output()
        .expect("run tako_fsck");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn verify_flags_every_committed_corruption() {
    let (ok, stdout) = fsck(&["--verify", fixture_dir().to_str().unwrap()]);
    assert!(!ok, "verify must exit nonzero on the corrupt fixtures");
    assert!(
        stdout.contains("4 flagged"),
        "expected 4 flagged:\n{stdout}"
    );
    for needle in [
        "manifest.txt  CORRUPT: checksum mismatch",
        "alpha.done  CORRUPT: done record",
        "beta.units  salvageable: 2 intact units",
        "alpha.done.tmp  tmp debris",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    // The survivors stay unflagged.
    assert!(stdout.contains("alpha.units  clean"), "{stdout}");
}

#[test]
fn repair_salvages_documented_prefix_and_campaign_resumes() {
    let dir = copy_fixture_to_tmp("repair");
    let summary = doctor::repair(&dir).expect("repair");
    assert_eq!(summary.quarantined.len(), 2, "{summary:?}");
    assert_eq!(summary.truncated.len(), 1, "{summary:?}");
    assert_eq!(summary.removed.len(), 1, "{summary:?}");
    let report = std::fs::read_to_string(dir.join("quarantine/report.txt")).unwrap();
    for needle in ["manifest.txt", "alpha.done", "beta.units", "alpha.done.tmp"] {
        assert!(report.contains(needle), "report misses {needle}:\n{report}");
    }

    // The repaired journal is clean (quarantine/ is not rescanned)...
    let rescanned = doctor::scan(&dir).expect("scan");
    assert_eq!(rescanned.flagged(), 0, "{}", rescanned.render());
    assert!(rescanned
        .entries
        .iter()
        .any(|e| e.path.ends_with("beta.units") && e.verdict == Verdict::Clean));
    let (ok, _) = fsck(&["--verify", dir.to_str().unwrap()]);
    assert!(ok, "verify must pass after repair");

    // ...and resumable: alpha re-runs (its .done was quarantined),
    // beta resumes from the 2 salvaged units, the manifest is rebuilt,
    // and the outputs match the uninterrupted run exactly.
    let mut c = CampaignOpts::fresh(&dir);
    c.resume = true;
    let outcome = run_campaign(opts(), &c, EXPS).expect("resume after repair");
    assert_eq!(
        outcome.results[0].1.as_ref().expect("alpha").output,
        ALPHA_OUT
    );
    assert_eq!(
        outcome.results[1].1.as_ref().expect("beta").output,
        BETA_OUT
    );
    assert!(dir.join("manifest.txt").exists(), "manifest rebuilt");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repair_is_idempotent() {
    let dir = copy_fixture_to_tmp("idem");
    doctor::repair(&dir).expect("first repair");
    let second = doctor::repair(&dir).expect("second repair");
    assert!(second.untouched(), "{second:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unit_journal_byte_fuzz_never_panics_the_doctor() {
    // Flip every bit of the torn fixture journal one at a time; the
    // doctor must classify each mutant (any verdict) without panicking.
    let bytes = std::fs::read(fixture_dir().join("beta.units")).unwrap();
    let dir = std::env::temp_dir().join(format!("tako-fsck-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let target = dir.join("mutant.units");
    for off in 0..bytes.len() {
        for bit in 0..8 {
            let mut bad = bytes.clone();
            bad[off] ^= 1 << bit;
            std::fs::write(&target, &bad).unwrap();
            let report = doctor::scan(&dir).expect("scan");
            assert_eq!(report.entries.len(), 1);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
