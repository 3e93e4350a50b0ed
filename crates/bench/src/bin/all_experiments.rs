//! Runs the figure/table harnesses, fanned out across `--jobs` worker
//! threads, printing each harness's output in the fixed table order
//! (use `--scale` to shrink workloads).
//!
//! Extra flags beyond the shared [`Opts`] set:
//!
//! ```text
//! --only <n1,n2,...>    run only the named harnesses (`fig06` ...
//!                       `ablations`), still in table order; a lone
//!                       harness gets all `--jobs` for its variants
//! --force-panic <name>  panic inside the named harness, which must be
//!                       selected (tests the failure contract below)
//! --trace-out <path>    arm the observability layer and write the
//!                       merged event trace as Chrome trace_event JSON
//!                       (load in chrome://tracing or Perfetto)
//! --profile             arm the observability layer and print the
//!                       per-stage cycle-attribution table
//! ```
//!
//! Supervised-campaign flags (see `tako_bench::campaign`); every one
//! but `--journal` needs `--journal`:
//!
//! ```text
//! --journal <dir>           journal the run: one unit record per
//!                           simulation, in per-experiment .units files
//! --resume                  resume a campaign from the journal instead
//!                           of starting fresh: every experiment
//!                           re-renders from the journaled runs and
//!                           simulates only what no journal holds
//! --deadline <secs>         wall-clock budget per experiment;
//!                           exceeded -> triage bundle, then --resume
//! --crash-after-units <n>   die after n journaled units (the
//!                           interrupt/resume smoke's crash hook)
//! ```
//!
//! Every harness runs behind a panic guard: a panicking harness does
//! not stop the others, and the run prints a `FAILURES:` section and
//! exits 1. A requested report (`--trace-out`, `<journal>/metrics.json`)
//! that cannot be written also exits 1, after the status line. A
//! malformed command line, an unknown argument included, exits 2 before
//! anything runs.
//!
//! The printed experiment output is byte-identical for every `--jobs`
//! value — and for a journaled run whether it completed in one go or
//! was interrupted and resumed; only the timing annotations vary. A
//! resumed experiment's `[… took …]` is the time it took to re-render
//! from the journal plus whatever it had left to simulate.

use std::time::{Duration, Instant};

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::{
    exit_error, flag_value, run_all, select, Experiment, ExperimentResult, Opts, EXPERIMENTS,
    OPTS_FLAGS,
};
use tako_sim::storage::{DiskStorage, Storage};

/// Flags specific to this binary, parsed from the leftovers of
/// [`Opts::parse`].
#[derive(Default)]
struct BenchFlags {
    experiments: Vec<(&'static str, Experiment)>,
    force_panic: Option<String>,
    trace_out: Option<String>,
    profile: bool,
    journal: Option<String>,
    resume: bool,
    deadline: Option<f64>,
    crash_after_units: Option<u64>,
}

/// Flags that only mean something to a journaled campaign.
const JOURNAL_ONLY: [&str; 3] = ["--resume", "--deadline", "--crash-after-units"];

fn parse_bench_flags(unknown: &[String]) -> Result<BenchFlags, String> {
    let mut flags = BenchFlags {
        experiments: EXPERIMENTS.to_vec(),
        ..BenchFlags::default()
    };
    let mut journal_only = None;
    let mut i = 0;
    while i < unknown.len() {
        let flag = unknown[i].as_str();
        match flag {
            "--only" => flags.experiments = select(&flag_value::<String>(unknown, &mut i)?)?,
            "--trace-out" => flags.trace_out = Some(flag_value(unknown, &mut i)?),
            "--profile" => flags.profile = true,
            "--force-panic" => flags.force_panic = Some(flag_value(unknown, &mut i)?),
            "--journal" => flags.journal = Some(flag_value(unknown, &mut i)?),
            "--resume" => flags.resume = true,
            "--deadline" => {
                let secs: f64 = flag_value(unknown, &mut i)?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--deadline {secs}: must be finite and > 0"));
                }
                flags.deadline = Some(secs);
            }
            "--crash-after-units" => flags.crash_after_units = Some(flag_value(unknown, &mut i)?),
            other => {
                return Err(format!(
                    "unknown argument `{other}` (known: {OPTS_FLAGS}, --only <names>, \
                     --force-panic <name>, --trace-out <path>, --profile, --journal <dir>, \
                     --resume, --deadline <secs>, --crash-after-units <n>)"
                ))
            }
        }
        if JOURNAL_ONLY.contains(&flag) {
            journal_only = Some(flag);
        }
        i += 1;
    }
    if let (Some(flag), None) = (journal_only, &flags.journal) {
        return Err(format!("{flag} needs --journal <dir>"));
    }
    if let Some(name) = &flags.force_panic {
        if !flags.experiments.iter().any(|(n, _)| n == name) {
            return Err(format!("--force-panic {name}: not a selected experiment"));
        }
    }
    Ok(flags)
}

fn main() {
    let (opts, unknown) = Opts::parse_args();
    let flags = parse_bench_flags(&unknown).unwrap_or_else(|e| exit_error(&e));

    // Arm observability before any system is built: hierarchies attach
    // their observer at construction.
    let tracing = flags.trace_out.is_some() || flags.profile;
    if tracing {
        tako_sim::trace::arm();
    }

    let t0 = Instant::now();
    let results: Vec<(&str, Result<ExperimentResult, String>)> = if let Some(dir) = &flags.journal {
        let c = CampaignOpts {
            resume: flags.resume,
            deadline: flags.deadline.map(Duration::from_secs_f64),
            force_panic: flags.force_panic.clone(),
            crash_after_units: flags.crash_after_units,
            ..CampaignOpts::fresh(dir)
        };
        match run_campaign(opts, &c, &flags.experiments) {
            Ok(results) => results,
            Err(e) => {
                eprintln!("error: campaign journal: {e}");
                std::process::exit(2);
            }
        }
    } else {
        run_all(opts, &flags.experiments, flags.force_panic.as_deref())
    };
    let total_wall = t0.elapsed();

    let mut failures: Vec<(&str, &str)> = Vec::new();
    for (name, r) in &results {
        match r {
            Ok(res) => println!("{}  [{} took {:.1?}]\n", res.output, res.name, res.wall),
            Err(msg) => failures.push((name, msg)),
        }
    }
    if !failures.is_empty() {
        println!("FAILURES:");
        for (name, msg) in &failures {
            println!("  {name}: {msg}");
        }
    }

    let mut report_failed = false;
    if tracing {
        tako_sim::trace::disarm();
        let report = tako_sim::trace::drain();
        // Reports are evidence: write them atomically so a crash
        // mid-write can't leave a half-formed file masquerading as a
        // real one.
        let report_store = DiskStorage;
        if let Some(path) = &flags.trace_out {
            match report_store.write_atomic(
                std::path::Path::new(path),
                report.chrome_trace_json().as_bytes(),
            ) {
                Ok(()) => eprintln!(
                    "wrote {path} ({} trace events, {} interval samples, {} systems)",
                    report.events.len(),
                    report.samples.len(),
                    report.systems
                ),
                Err(e) => {
                    eprintln!("error: writing {path}: {e}");
                    report_failed = true;
                }
            }
        }
        if flags.profile {
            println!("PROFILE:\n{}", report.profile_table());
        }
        if let Some(dir) = &flags.journal {
            let path = std::path::Path::new(dir).join("metrics.json");
            match report_store.write_atomic(&path, report.metrics_json().as_bytes()) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error: writing {}: {e}", path.display());
                    report_failed = true;
                }
            }
        }
    }

    let accesses = tako_sim::stats::simulated_accesses();
    let total_s = total_wall.as_secs_f64();
    eprintln!(
        "all experiments: {}/{} ok in {total_s:.1}s wall on {} jobs, \
         {accesses} simulated accesses ({:.0}/s)",
        results.len() - failures.len(),
        results.len(),
        opts.jobs,
        accesses as f64 / total_s.max(1e-9),
    );

    if !failures.is_empty() || report_failed {
        std::process::exit(1);
    }
}
