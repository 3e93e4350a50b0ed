//! Integration tests for the journal doctor (`tako_fsck`) over the
//! committed corrupt fixtures in `regressions/fsck/`.
//!
//! The fixture directory is a real campaign journal (two synthetic
//! experiments, seed 42) that was deliberately damaged after the run:
//!
//! * `manifest.txt` — one checksum hex digit flipped (corrupt);
//! * `alpha.units` — its `UJH1` header magic mangled (corrupt);
//! * `beta.units` — last 10 bytes chopped off, tearing the third unit
//!   record; the documented salvage prefix is **2 intact units**;
//! * `manifest.txt.tmp` — stranded atomic-write staging debris;
//! * `beta.triage.txt`, `attempts.log` — legitimate survivors the
//!   doctor must leave alone.
//!
//! `--verify` must flag exactly the four damaged files; `--repair`
//! must quarantine the corrupt two, truncate the torn journal to its
//! documented prefix, delete the debris — and leave a journal a
//! `--resume` campaign completes correctly from. The `#[ignore]`d
//! `regenerate_fsck_fixtures` test rebuilds the fixtures after a
//! format change (`cargo test -p tako-bench --test fsck -- --ignored`);
//! the generator writes the same bytes wherever it runs.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::doctor::{self, Verdict};
use tako_bench::{run_once, run_variants, Experiment, Opts};

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

/// Alpha and beta units simulated (not found in the run list).
static ALPHA_UNITS: AtomicU64 = AtomicU64::new(0);
static BETA_UNITS: AtomicU64 = AtomicU64::new(0);

/// Held by every test that runs the campaign below, so one test's
/// `BETA_PANICS` and unit counts never leak into another's.
fn campaign_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn exp_alpha(o: Opts) -> String {
    let out = run_variants(o, &[1u64, 2, 3], |v| {
        run_once(("add", v), || {
            ALPHA_UNITS.fetch_add(1, Ordering::SeqCst);
            v + o.seed
        })
    });
    format!("alpha {out:?}\n")
}

fn exp_beta(o: Opts) -> String {
    let out = run_variants(o, &[4u64, 5, 6], |v| {
        run_once(("square", v), || {
            BETA_UNITS.fetch_add(1, Ordering::SeqCst);
            v * v
        })
    });
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

/// The fixture directory as the committed triage bundle's resume line
/// names it, whichever directory the generator ran in.
const FIXTURE_JOURNAL: &str = "crates/bench/regressions/fsck";

/// Build the damaged fixture journal at `dir` (see module docs). The
/// caller holds [`campaign_lock`].
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

    // alpha.units: mangle the header magic.
    let alpha = dir.join("alpha.units");
    let mut bytes = std::fs::read(&alpha).unwrap();
    bytes[0] ^= 0x20;
    std::fs::write(&alpha, bytes).unwrap();

    // beta.units: tear the third record's tail.
    let units = dir.join("beta.units");
    let bytes = std::fs::read(&units).unwrap();
    std::fs::write(&units, &bytes[..bytes.len() - 10]).unwrap();

    // Stranded staging file from an interrupted atomic write.
    std::fs::write(dir.join("manifest.txt.tmp"), b"interrupted staging write").unwrap();

    // The resume line names the journal by its absolute path; name the
    // committed fixture instead, so the bytes do not depend on `dir`.
    let triage = dir.join("beta.triage.txt");
    let text = std::fs::read_to_string(&triage).unwrap();
    std::fs::write(
        &triage,
        text.replace(&dir.display().to_string(), FIXTURE_JOURNAL),
    )
    .unwrap();
}

#[test]
#[ignore = "regenerates the committed fixtures; run after a format change"]
fn regenerate_fsck_fixtures() {
    let _serial = campaign_lock();
    build_fixture(&fixture_dir());
}

/// Every file in `dir` (not recursive), by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.is_file())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

#[test]
fn fixture_generator_is_reproducible() {
    let _serial = campaign_lock();
    let root = std::env::temp_dir().join(format!("tako-fsck-{}-regen", std::process::id()));
    let (a, b) = (root.join("a"), root.join("elsewhere/b"));
    build_fixture(&a);
    build_fixture(&b);
    let built = files(&a);
    assert_eq!(
        built,
        files(&b),
        "the fixture depends on where it was built"
    );
    assert_eq!(
        built,
        files(&fixture_dir()),
        "the committed fixtures are stale; regenerate them \
         (cargo test -p tako-bench --test fsck -- --ignored)"
    );
    let _ = std::fs::remove_dir_all(&root);
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
        "alpha.units  CORRUPT: missing or mangled UJH1 header",
        "beta.units  salvageable: 2 intact units",
        "manifest.txt.tmp  tmp debris",
    ] {
        assert!(stdout.contains(needle), "missing `{needle}` in:\n{stdout}");
    }
    // The survivors stay unflagged.
    assert!(stdout.contains("beta.triage.txt  unchecked"), "{stdout}");
}

#[test]
fn repair_salvages_documented_prefix_and_campaign_resumes() {
    let _serial = campaign_lock();
    let dir = copy_fixture_to_tmp("repair");
    let summary = doctor::repair(&dir).expect("repair");
    assert_eq!(summary.quarantined.len(), 2, "{summary:?}");
    assert_eq!(summary.truncated.len(), 1, "{summary:?}");
    assert_eq!(summary.removed.len(), 1, "{summary:?}");
    let report = std::fs::read_to_string(dir.join("quarantine/report.txt")).unwrap();
    for needle in [
        "manifest.txt ->",
        "alpha.units ->",
        "beta.units to",
        "manifest.txt.tmp",
    ] {
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

    // ...and resumable: alpha simulates all 3 of its units again (its
    // journal was quarantined), beta resumes from the 2 salvaged units
    // and simulates only the torn third, the manifest is rebuilt, and
    // the outputs match the uninterrupted run exactly.
    let mut c = CampaignOpts::fresh(&dir);
    c.resume = true;
    let alpha_before = ALPHA_UNITS.load(Ordering::SeqCst);
    let beta_before = BETA_UNITS.load(Ordering::SeqCst);
    let outcome = run_campaign(opts(), &c, EXPS).expect("resume after repair");
    assert_eq!(ALPHA_UNITS.load(Ordering::SeqCst) - alpha_before, 3);
    assert_eq!(BETA_UNITS.load(Ordering::SeqCst) - beta_before, 1);
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
