//! `crash_campaign` — the systematic crash-point sweep behind the
//! recovery-equivalence property.
//!
//! The claim: resume after a crash at *any* I/O site of a journaled
//! campaign either reproduces the uninterrupted run's output
//! byte-for-byte, or quarantines the damaged piece (via `tako_fsck
//! --repair`) and *then* reproduces it — never panics, never resumes
//! wrong.
//!
//! The proof is by exhaustion:
//!
//! 1. **Counting pass** — run the campaign uninterrupted on a counting
//!    [`FaultStorage`], recording the golden output digest and the
//!    number of I/O sites `M`.
//! 2. **Sweep** — for every fault kind and every site `k < M`, run a
//!    fresh campaign with that fault scheduled at site `k` (the run
//!    dies mid-flight), then resume it on clean storage. If the resume
//!    refuses (corrupt manifest), repair with the journal doctor and
//!    resume again. The resumed output digest must equal the golden
//!    digest.
//!
//! The campaign under the sweep is a trio of small synthetic
//! experiments (the same shape as `tests/campaign.rs` uses) so the
//! sweep exhausts in seconds; the I/O path it exercises — manifest,
//! unit journals, triage bundles — is byte-identical to what the full
//! `all_experiments --journal` run uses.
//!
//! ```text
//! crash_campaign [--root <dir>] [--kinds a,b,c] [--seed n] [--verbose]
//! ```
//!
//! Default kinds: `crash,crash-after,torn,drop-rename,flip,dup-append,error`
//! (every deterministic fault the backend can inject; an `error` fails
//! the experiment or the campaign call it hits, and the resume recovers
//! it like any other failure). Exits 1 if
//! any site fails to recover, and 2 on a malformed command line (a
//! missing or malformed value, an unknown flag or fault kind, an empty
//! `--kinds` list) before anything runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::{
    doctor, exit_error, flag_value_or_exit, run_once, run_variants, Experiment, ExperimentResult,
    Opts,
};
use tako_sim::digest::Sha256;
use tako_sim::storage::{
    DiskStorage, FaultStorage, IoFaultKind, Storage, CRASH_MARKER, INJECTED_ERROR,
};

// --- the synthetic campaign under test -------------------------------

fn exp_squares(o: Opts) -> String {
    let out = run_variants(o, &[1u64, 2, 3, 4], |v| {
        run_once(("squares", v), || v * v + o.seed)
    });
    format!("squares {out:?}\n")
}

fn exp_fib(o: Opts) -> String {
    let out = run_variants(o, &[5u64, 8, 13], |v| {
        run_once(("fib", v), || {
            let (mut a, mut b) = (0u64, 1u64);
            for _ in 0..v {
                (a, b) = (b, a.wrapping_add(b));
            }
            a ^ o.seed
        })
    });
    format!("fib {out:?}\n")
}

fn exp_twophase(o: Opts) -> String {
    let first = run_variants(o, &[2u64, 3], |v| run_once(("shift", v), || v << 4));
    let second = run_variants(o, &[7u64], |v| run_once(("scale", v), || v * o.seed));
    format!("twophase {first:?} {second:?}\n")
}

const SWEEP_EXPS: &[(&str, Experiment)] = &[
    ("squares", exp_squares as Experiment),
    ("fib", exp_fib as Experiment),
    ("twophase", exp_twophase as Experiment),
];

fn sweep_opts(seed: u64) -> Opts {
    Opts {
        scale: 1.0,
        paper: false,
        seed,
        // Single worker: the sequence of I/O sites must be identical
        // across the counting pass and every sweep run, and thread
        // interleaving would perturb the numbering.
        jobs: 1,
    }
}

/// Digest of a campaign's observable output: every experiment name and
/// its full printed output, in table order. Timing never enters.
fn outcome_digest(results: &[(&str, Result<ExperimentResult, String>)]) -> Result<String, String> {
    let mut h = Sha256::new();
    for (name, r) in results {
        match r {
            Ok(res) => {
                h.update(name.as_bytes());
                h.update(&[0]);
                h.update(res.output.as_bytes());
                h.update(&[0]);
            }
            Err(e) => return Err(format!("{name} failed: {e}")),
        }
    }
    Ok(h.finish_hex())
}

fn campaign_opts(dir: &Path, resume: bool, storage: Arc<dyn Storage>) -> CampaignOpts {
    let mut c = CampaignOpts::fresh(dir);
    c.resume = resume;
    c.storage = storage;
    c
}

type Outcome = Vec<(&'static str, Result<ExperimentResult, String>)>;

/// Run one campaign, turning an injected-crash panic into `Err(msg)`.
/// Any *other* panic is a sweep failure and propagates.
fn run_guarded(opts: Opts, c: &CampaignOpts) -> Result<std::io::Result<Outcome>, String> {
    let prior = std::panic::take_hook();
    // The sweep injects hundreds of crashes and I/O errors on purpose
    // (an injected error fails its experiment with a panic); keep the
    // default hook from spraying a backtrace for each while letting
    // genuine panics through untouched.
    std::panic::set_hook(Box::new(|info| {
        let msg = info.payload().downcast_ref::<String>().map(String::as_str);
        let msg = msg.or_else(|| info.payload().downcast_ref::<&str>().copied());
        let msg = msg.unwrap_or("");
        if !(msg.contains(CRASH_MARKER) || msg.contains(INJECTED_ERROR)) {
            eprintln!("panic: {info}");
        }
    }));
    let r = catch_unwind(AssertUnwindSafe(|| run_campaign(opts, c, SWEEP_EXPS)));
    std::panic::set_hook(prior);
    match r {
        Ok(io) => Ok(io),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".into());
            Err(msg)
        }
    }
}

struct KindTally {
    kind: IoFaultKind,
    sites: u64,
    survived_run: u64,
    repairs: u64,
    failures: Vec<String>,
}

fn sweep_kind(
    root: &Path,
    seed: u64,
    kind: IoFaultKind,
    sites: u64,
    golden: &str,
    verbose: bool,
) -> KindTally {
    let mut tally = KindTally {
        kind,
        sites,
        survived_run: 0,
        repairs: 0,
        failures: Vec::new(),
    };
    for k in 0..sites {
        let dir = root.join(format!("{}-{k}", kind.name()));
        let _ = std::fs::remove_dir_all(&dir);
        let faulty: Arc<dyn Storage> = Arc::new(FaultStorage::new(k, kind));
        let first = run_guarded(sweep_opts(seed), &campaign_opts(&dir, false, faulty));
        match &first {
            Err(msg) if msg.contains(CRASH_MARKER) => {} // died as planned
            Err(msg) => {
                tally
                    .failures
                    .push(format!("site {k}: unexpected panic in faulted run: {msg}"));
                continue;
            }
            // Silent-corruption kinds (flip, dup-append) and the error
            // kind let the run finish or fail tidily; both are fine —
            // the property under test is what resume does next.
            Ok(_) => tally.survived_run += 1,
        }

        // Recovery: resume on clean storage. A refusal (corrupt
        // manifest) is repaired by the journal doctor and retried; a
        // panic at any point is an immediate sweep failure.
        let clean: Arc<dyn Storage> = Arc::new(DiskStorage);
        let resumed = match run_guarded(sweep_opts(seed), &campaign_opts(&dir, true, clean)) {
            Ok(Ok(outcome)) => outcome,
            Ok(Err(_refusal)) => {
                tally.repairs += 1;
                match doctor::repair(&dir) {
                    Ok(_) => {}
                    Err(e) => {
                        tally.failures.push(format!("site {k}: repair failed: {e}"));
                        continue;
                    }
                }
                let clean: Arc<dyn Storage> = Arc::new(DiskStorage);
                match run_guarded(sweep_opts(seed), &campaign_opts(&dir, true, clean)) {
                    Ok(Ok(outcome)) => outcome,
                    Ok(Err(e)) => {
                        tally
                            .failures
                            .push(format!("site {k}: resume refused even after repair: {e}"));
                        continue;
                    }
                    Err(msg) => {
                        tally
                            .failures
                            .push(format!("site {k}: resume panicked after repair: {msg}"));
                        continue;
                    }
                }
            }
            Err(msg) => {
                tally
                    .failures
                    .push(format!("site {k}: resume panicked: {msg}"));
                continue;
            }
        };
        match outcome_digest(&resumed) {
            Ok(d) if d == golden => {}
            Ok(d) => tally
                .failures
                .push(format!("site {k}: resumed digest {d} != golden {golden}")),
            Err(e) => tally
                .failures
                .push(format!("site {k}: resumed campaign not fully ok: {e}")),
        }
        if verbose {
            eprintln!("  {} site {k}: recovered", kind.name());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    tally
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root: Option<PathBuf> = None;
    let mut seed = 42u64;
    let mut verbose = false;
    let mut kinds: Vec<IoFaultKind> = vec![
        IoFaultKind::Crash,
        IoFaultKind::CrashAfter,
        IoFaultKind::TornWrite { keep: 7 },
        IoFaultKind::DropRename,
        IoFaultKind::BitFlip { offset: 5, bit: 3 },
        IoFaultKind::DuplicateAppend,
        IoFaultKind::Error,
    ];
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => root = Some(flag_value_or_exit(&args, &mut i)),
            "--seed" => seed = flag_value_or_exit(&args, &mut i),
            "--kinds" => {
                let spec: String = flag_value_or_exit(&args, &mut i);
                kinds = spec
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| {
                        IoFaultKind::ALL
                            .into_iter()
                            .find(|k| k.name() == s)
                            .unwrap_or_else(|| exit_error(&format!("unknown fault kind `{s}`")))
                    })
                    .collect();
                if kinds.is_empty() {
                    exit_error(&format!("--kinds `{spec}` names no fault kind"));
                }
            }
            "--verbose" => verbose = true,
            other => exit_error(&format!(
                "unknown flag `{other}`\n\
                 usage: crash_campaign [--root dir] [--seed n] [--kinds a,b,c] [--verbose]"
            )),
        }
        i += 1;
    }
    let root = root.unwrap_or_else(|| {
        std::env::temp_dir().join(format!("tako-crash-sweep-{}", std::process::id()))
    });
    let _ = std::fs::create_dir_all(&root);

    // Counting pass: golden digest + I/O-site count.
    let golden_dir = root.join("golden");
    let _ = std::fs::remove_dir_all(&golden_dir);
    let counter = Arc::new(FaultStorage::counting());
    let storage: Arc<dyn Storage> = Arc::clone(&counter) as Arc<dyn Storage>;
    let results = match run_campaign(
        sweep_opts(seed),
        &campaign_opts(&golden_dir, false, storage),
        SWEEP_EXPS,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("crash_campaign: golden run failed: {e}");
            std::process::exit(2);
        }
    };
    let golden = match outcome_digest(&results) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("crash_campaign: golden run not fully ok: {e}");
            std::process::exit(2);
        }
    };
    let sites = counter.ops_performed();
    let _ = std::fs::remove_dir_all(&golden_dir);
    println!("golden digest {golden} over {sites} I/O sites, seed {seed}");

    let mut failed = false;
    for kind in kinds {
        let t = sweep_kind(&root, seed, kind, sites, &golden, verbose);
        let verdict = if t.failures.is_empty() {
            "ok"
        } else {
            "FAILED"
        };
        println!(
            "{:<12} {} sites swept, {} runs survived injection, {} repairs, {} failures: {verdict}",
            t.kind.name(),
            t.sites,
            t.survived_run,
            t.repairs,
            t.failures.len()
        );
        for f in &t.failures {
            println!("    {f}");
            failed = true;
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    if failed {
        println!("crash sweep: recovery-equivalence VIOLATED");
        std::process::exit(1);
    }
    println!("crash sweep: every site recovered to the golden digest");
}
