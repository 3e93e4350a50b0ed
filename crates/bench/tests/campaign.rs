//! End-to-end tests for the supervised campaign runner: journaled
//! resume at experiment and unit granularity, deadline kills with
//! triage bundles, storage-fault handling, and manifest guards. Every
//! recovery here is a second `run_campaign` call with `resume = true`,
//! so it reads the journals back from disk.
//!
//! The experiments here are synthetic `fn(Opts) -> String` harnesses
//! with observable side effects (atomic counters), so the tests can
//! prove the resume contract — *a journaled run is re-rendered, never
//! re-simulated* — rather than just eyeballing output equality. One test
//! drives a real `TakoSystem` so the deadline kill exercises the
//! hierarchy's watchdog-epoch probe and its triage bundle.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::{experiments, run_once, run_variants, Experiment, ExperimentResult, Opts};
use tako_core::TakoSystem;
use tako_cpu::{AccessKind, MemSystem};
use tako_sim::config::SystemConfig;
use tako_sim::rng::Rng;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tako-campaign-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts() -> Opts {
    Opts {
        scale: 1.0,
        paper: false,
        seed: 42,
        jobs: 2,
    }
}

// --- experiment-granularity resume ----------------------------------

/// Alpha runs simulated (not found in the run list).
static ALPHA_RUNS: AtomicU64 = AtomicU64::new(0);

fn exp_alpha(o: Opts) -> String {
    let out = run_variants(o, &[1u64, 2, 3], |v| {
        run_once(("square", v), || {
            ALPHA_RUNS.fetch_add(1, Ordering::SeqCst);
            v * v
        })
    });
    format!("alpha {out:?}\n")
}

fn exp_beta(o: Opts) -> String {
    let out = run_variants(o, &[10u64, 20], |v| run_once(("add", v), || v + o.seed));
    format!("beta {out:?}\n")
}

const RESUME_EXPS: &[(&str, Experiment)] = &[
    ("alpha", exp_alpha as Experiment),
    ("beta", exp_beta as Experiment),
];

#[test]
fn failed_experiment_is_triaged_and_resume_skips_completed_work() {
    let dir = tmp("resume");
    // First invocation: beta dies (forced), alpha completes.
    let mut c = CampaignOpts::fresh(&dir);
    c.force_panic = Some("beta".into());
    let first = run_campaign(opts(), &c, RESUME_EXPS).expect("campaign");
    let alpha_out = first[0].1.as_ref().expect("alpha ok").output.clone();
    assert_eq!(alpha_out, "alpha [1, 4, 9]\n");
    let beta_err = first[1].1.as_ref().expect_err("beta failed");
    assert!(
        beta_err.contains("forced panic"),
        "unexpected error: {beta_err}"
    );

    // The dead experiment left a triage bundle with the resume line.
    let triage = std::fs::read_to_string(dir.join("beta.triage.txt")).expect("triage file");
    assert!(triage.contains("forced panic in beta"), "triage: {triage}");
    assert!(triage.contains("--resume"), "no resume line: {triage}");
    assert!(triage.contains("--journal"), "no journal path: {triage}");

    // Resume: alpha re-renders from its journaled runs (no run is
    // simulated again), beta executes and the campaign completes with
    // byte-identical output.
    let alpha_runs_before = ALPHA_RUNS.load(Ordering::SeqCst);
    let mut c2 = CampaignOpts::fresh(&dir);
    c2.resume = true;
    let second = run_campaign(opts(), &c2, RESUME_EXPS).expect("resume");
    assert_eq!(
        ALPHA_RUNS.load(Ordering::SeqCst),
        alpha_runs_before,
        "a completed experiment's runs were simulated again on resume"
    );
    assert_eq!(second[0].1.as_ref().expect("alpha").output, alpha_out);
    assert_eq!(
        second[1].1.as_ref().expect("beta").output,
        format!("beta [{}, {}]\n", 10 + 42, 20 + 42)
    );
    // The completed experiment lost its stale triage bundle.
    assert!(!dir.join("beta.triage.txt").exists());
}

// --- unit-granularity resume ----------------------------------------

static GAMMA_UNITS: AtomicU64 = AtomicU64::new(0);

fn exp_gamma(o: Opts) -> String {
    let out = run_variants(o, &[0u64, 1, 2, 3, 4, 5], |v| {
        run_once(("times7", v), || {
            GAMMA_UNITS.fetch_add(1, Ordering::SeqCst);
            v * 7
        })
    });
    format!("gamma {out:?}\n")
}

#[test]
fn crash_mid_experiment_resumes_from_journaled_units() {
    let dir = tmp("units");
    let exps = &[("gamma", exp_gamma as Experiment)];
    let mut c = CampaignOpts::fresh(&dir);
    c.crash_after_units = Some(3); // die with half the units journaled
    let before = GAMMA_UNITS.load(Ordering::SeqCst);
    let crashed = run_campaign(opts(), &c, exps).expect("campaign");
    let err = crashed[0].1.as_ref().expect_err("gamma crashed");
    assert!(err.contains("--crash-after-units"), "error: {err}");
    let triage = std::fs::read_to_string(dir.join("gamma.triage.txt")).expect("triage");
    assert!(triage.contains("journaled units: 3"), "triage: {triage}");

    let mut c = CampaignOpts::fresh(&dir);
    c.resume = true;
    let resumed = run_campaign(opts(), &c, exps).expect("resume");
    let res = resumed[0].1.as_ref().expect("gamma resumed");
    assert_eq!(res.output, "gamma [0, 7, 14, 21, 28, 35]\n");
    // 3 units computed before the crash, 3 after: the resume read the
    // first 3 from gamma.units instead of recomputing (else this would
    // be 9).
    assert_eq!(GAMMA_UNITS.load(Ordering::SeqCst) - before, 6);
}

// --- deadline kill through the hierarchy ----------------------------

/// A real simulation long enough to cross many watchdog epochs; under a
/// zero deadline the hierarchy kills it at the first epoch boundary
/// with a triage panic.
fn exp_slowpoke(_: Opts) -> String {
    let mut cfg = SystemConfig::default_16core();
    cfg.watchdog.epoch_cycles = 2_000;
    let mut sys = TakoSystem::new(cfg);
    let _r = sys.alloc_real(1 << 18);
    let base = 0x1000_0000u64;
    let mut rng = Rng::new(1);
    let mut t = 0u64;
    for _ in 0..5_000 {
        let off = rng.below(1 << 12) * 8;
        t = sys.timed_access(0, AccessKind::Read, base + off, t);
    }
    format!("slowpoke survived to cycle {t}\n")
}

#[test]
fn deadline_kill_leaves_triage_bundle() {
    let dir = tmp("deadline");
    let mut c = CampaignOpts::fresh(&dir);
    c.deadline = Some(Duration::ZERO);
    let out =
        run_campaign(opts(), &c, &[("slowpoke", exp_slowpoke as Experiment)]).expect("campaign");
    let err = out[0].1.as_ref().expect_err("deadline must kill");
    assert!(err.contains("deadline exceeded"), "error: {err}");

    // The triage bundle carries the hierarchy's diagnostics (with the
    // observer ring's event tail, which supervision alone attaches)
    // and the exact command line that resumes the campaign.
    let triage = std::fs::read_to_string(dir.join("slowpoke.triage.txt")).expect("triage");
    for needle in [
        "deadline exceeded",
        "machine state",
        "fault plan",
        "event tail",
        "--resume",
        "--only slowpoke",
        "--deadline 0",
    ] {
        assert!(
            triage.contains(needle),
            "triage missing {needle:?}: {triage}"
        );
    }
}

// --- manifest guard ---------------------------------------------------

fn exp_trivial(_: Opts) -> String {
    "trivial\n".to_string()
}

#[test]
fn resume_into_a_different_campaign_is_rejected() {
    let dir = tmp("manifest");
    let exps = &[("trivial", exp_trivial as Experiment)];
    run_campaign(opts(), &CampaignOpts::fresh(&dir), exps).expect("fresh campaign");
    let mut c = CampaignOpts::fresh(&dir);
    c.resume = true;
    let skewed = Opts { seed: 7, ..opts() };
    let err = run_campaign(skewed, &c, exps).expect_err("manifest mismatch must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn resume_with_a_different_selection_is_rejected() {
    let dir = tmp("selection");
    let journal = dir.to_str().expect("utf-8 temp path");
    let run = |only: &str, resume: bool| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_all_experiments"));
        cmd.args(["--scale", "0.01", "--jobs", "1", "--journal", journal]);
        cmd.args(["--only", only]);
        if resume {
            cmd.arg("--resume");
        }
        cmd.output().expect("spawn all_experiments")
    };
    assert_eq!(run("table2", false).status.code(), Some(0));
    let out = run("table2,sens_rtlb", true);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(out.stdout.is_empty());
    assert!(
        stderr.contains("--resume into a different campaign"),
        "{stderr}"
    );
    // The same selection resumes.
    assert_eq!(run("table2", true).status.code(), Some(0));
}

// --- storage errors --------------------------------------------------

fn exp_delta(o: Opts) -> String {
    let out = run_variants(o, &[7u64, 8, 9], |v| run_once(("double", v), || v * 2));
    format!("delta {out:?}\n")
}

const FAULT_EXPS: &[(&str, Experiment)] = &[("delta", exp_delta as Experiment)];

#[test]
fn io_error_mid_experiment_is_triaged_and_resume_completes() {
    use std::sync::Arc;
    use tako_sim::storage::{FaultStorage, IoFaultKind};

    let dir = tmp("io-error");
    let counting = Arc::new(FaultStorage::counting());
    let mut c = CampaignOpts::fresh(&dir);
    c.storage = counting.clone();
    run_campaign(opts(), &c, FAULT_EXPS).expect("counting pass");
    let sites = counting.ops_performed();

    // Walk the sites until the error lands inside the experiment (a
    // unit-journal open, append or sync): the experiment must die with
    // the injected error and leave a triage bundle. Sites in campaign
    // bookkeeping (manifest prep, triage write) surface as a structured
    // error instead.
    let mut failed_inside = 0;
    for at_op in 0..sites {
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = CampaignOpts::fresh(&dir);
        c.storage = Arc::new(FaultStorage::new(at_op, IoFaultKind::Error));
        let Ok(outcome) = run_campaign(opts(), &c, FAULT_EXPS) else {
            continue;
        };
        let Err(err) = &outcome[0].1 else {
            continue;
        };
        assert!(err.contains("injected I/O error"), "payload: {err}");
        let triage = std::fs::read_to_string(dir.join("delta.triage.txt")).expect("triage");
        assert!(triage.contains("injected I/O error"), "triage: {triage}");
        assert!(triage.contains("--resume"), "triage: {triage}");

        // Recovery is a resume on clean storage.
        let mut c = CampaignOpts::fresh(&dir);
        c.resume = true;
        let resumed = run_campaign(opts(), &c, FAULT_EXPS).expect("resume");
        assert_eq!(
            resumed[0].1.as_ref().expect("delta resumed").output,
            "delta [14, 16, 18]\n",
            "resume after an I/O error at site {at_op}"
        );
        failed_inside += 1;
    }
    assert!(
        failed_inside > 0,
        "no site landed an I/O error inside an experiment ({sites} sites swept)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// --- a run list's producer and its view -----------------------------

/// Fig 7 is a view over Fig 6's run list.
const VIEW_EXPS: &[(&str, Experiment)] = &[
    ("fig06", experiments::fig06_decompress as Experiment),
    ("fig07", experiments::fig07_decompress_count as Experiment),
];

fn outputs(results: &[(&str, Result<ExperimentResult, String>)]) -> Vec<String> {
    results
        .iter()
        .map(|(name, r)| {
            r.as_ref()
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .output
                .clone()
        })
        .collect()
}

#[test]
fn crash_between_producer_and_view_resumes_byte_identical() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use tako_sim::storage::{FaultStorage, IoFaultKind};

    let o = Opts {
        scale: 0.01,
        jobs: 1,
        ..opts()
    };
    let dir = tmp("view");
    let counting = Arc::new(FaultStorage::counting());
    let mut c = CampaignOpts::fresh(&dir);
    c.storage = counting.clone();
    let clean = outputs(&run_campaign(o, &c, VIEW_EXPS).expect("clean campaign"));
    assert_eq!(
        clean,
        [
            experiments::fig06_decompress(o),
            experiments::fig07_decompress_count(o)
        ]
    );

    // Crash at every I/O site, then resume. The resumed invocation's run
    // list starts with whatever runs reached the journal; the view
    // simulates only the rest.
    let mut between = 0;
    for at_op in 0..counting.ops_performed() {
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = CampaignOpts::fresh(&dir);
        c.storage = Arc::new(FaultStorage::new(at_op, IoFaultKind::Crash));
        let crashed = catch_unwind(AssertUnwindSafe(|| run_campaign(o, &c, VIEW_EXPS)));
        assert!(crashed.is_err(), "site {at_op} did not crash");
        if dir.join("fig06.units").exists() && !dir.join("fig07.units").exists() {
            between += 1;
        }
        let mut c = CampaignOpts::fresh(&dir);
        c.resume = true;
        let resumed = run_campaign(o, &c, VIEW_EXPS).expect("resume");
        assert_eq!(
            outputs(&resumed),
            clean,
            "resume after a crash at site {at_op}"
        );
    }
    assert!(between > 0, "no crash fell between producer and view");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- a resumed view reads its producer's journaled runs ----------------

static PRODUCER_RUNS: AtomicU64 = AtomicU64::new(0);

/// The producer's runs, each one journaled unit.
fn producer_runs(o: Opts) -> Vec<u64> {
    run_variants(o, &[3u64, 5, 7], |v| {
        run_once(("cube", v), || {
            PRODUCER_RUNS.fetch_add(1, Ordering::SeqCst);
            v * v * v
        })
    })
}

fn exp_producer(o: Opts) -> String {
    format!("producer {:?}\n", producer_runs(o))
}

fn exp_view(o: Opts) -> String {
    let sum: u64 = producer_runs(o).iter().sum();
    format!("view {sum}\n")
}

const PRODUCER_VIEW: &[(&str, Experiment)] = &[
    ("producer", exp_producer as Experiment),
    ("view", exp_view as Experiment),
];

#[test]
fn forced_panic_view_resumes_without_rerunning_its_producers_runs() {
    let dir = tmp("view-resume");
    let mut c = CampaignOpts::fresh(&dir);
    c.force_panic = Some("view".into());
    let before = PRODUCER_RUNS.load(Ordering::SeqCst);
    let first = run_campaign(opts(), &c, PRODUCER_VIEW).expect("campaign");
    assert!(first[1].1.is_err(), "view must die on entry");
    assert_eq!(PRODUCER_RUNS.load(Ordering::SeqCst) - before, 3);

    // The producer re-renders and the view renders from the run list
    // seeded from producer.units; neither simulates a run.
    let mut c = CampaignOpts::fresh(&dir);
    c.resume = true;
    let second = run_campaign(opts(), &c, PRODUCER_VIEW).expect("resume");
    assert_eq!(
        outputs(&second),
        ["producer [27, 125, 343]\n", "view 495\n"]
    );
    assert_eq!(
        PRODUCER_RUNS.load(Ordering::SeqCst) - before,
        3,
        "the resumed view re-ran its producer's journaled runs"
    );
    // A run is journaled once, by the worker that simulated it.
    let view_units = std::fs::read(dir.join("view.units")).expect("view journal");
    assert_eq!(view_units.len(), 12, "the view journaled runs: header only");
    let _ = std::fs::remove_dir_all(&dir);
}

// --- resuming a completed campaign ------------------------------------

#[test]
fn resuming_a_completed_campaign_simulates_and_journals_nothing() {
    let dir = tmp("completed");
    let journal = dir.to_str().expect("utf-8 temp path");
    let run = |resume: bool| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_all_experiments"));
        cmd.args(["--only", "fig06,fig07", "--scale", "0.01", "--jobs", "1"]);
        cmd.args(["--journal", journal]);
        if resume {
            cmd.arg("--resume");
        }
        let out = cmd.output().expect("spawn all_experiments");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.contains(" took "))
            .collect::<Vec<_>>()
            .join("\n");
        (stdout, stderr)
    };
    let sizes = || {
        ["fig06.units", "fig07.units"].map(|f| {
            std::fs::metadata(dir.join(f))
                .unwrap_or_else(|e| panic!("{f}: {e}"))
                .len()
        })
    };
    let (clean, clean_log) = run(false);
    assert!(!clean_log.contains(" 0 simulated accesses "), "{clean_log}");
    let journaled = sizes();
    // Every experiment re-renders from the journal: the same output,
    // no simulation, and not one unit record appended.
    let (resumed, resumed_log) = run(true);
    assert_eq!(resumed, clean);
    assert!(
        resumed_log.contains(" 0 simulated accesses "),
        "{resumed_log}"
    );
    assert_eq!(sizes(), journaled, "a resume appended unit records");
    let _ = std::fs::remove_dir_all(&dir);
}
