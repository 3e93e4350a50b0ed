//! Runs every figure/table harness, fanned out across `--jobs` worker
//! threads, printing each harness's output in the fixed table order
//! (use `--scale` to shrink workloads).
//!
//! Extra flags beyond the shared [`Opts`] set:
//!
//! ```text
//! --keep-going          isolate harness panics: finish the others,
//!                       print a FAILURES section, exit nonzero
//! --force-panic <name>  panic inside the named harness (tests the
//!                       --keep-going contract)
//! --trace-out <path>    arm the observability layer and write the
//!                       merged event trace as Chrome trace_event JSON
//!                       (load in chrome://tracing or Perfetto)
//! --profile             arm the observability layer and print the
//!                       per-stage cycle-attribution table
//! ```
//!
//! Supervised-campaign flags (see `tako_bench::campaign`):
//!
//! ```text
//! --journal <dir>           journal the run: per-experiment .done
//!                           records and in-experiment unit checkpoints
//! --resume                  resume an interrupted campaign from the
//!                           journal instead of starting fresh
//! --deadline <secs>         wall-clock budget per experiment attempt;
//!                           exceeded -> triage bundle + retry
//! --retries <n>             retries per failed experiment, with a
//!                           seeded deterministic backoff schedule
//! --checkpoint-every <n>    sync the unit journal every n units
//! --crash-after-units <n>   die after n journaled units (the
//!                           interrupt/resume smoke's crash hook)
//! --io-faults <plan>        run the journal on the fault-injecting
//!                           storage backend; plan is
//!                           `seed:kind[:count]` with kind one of
//!                           crash, crash-after, torn, drop-rename,
//!                           dup-append, flip, transient, permanent
//! ```
//!
//! The printed experiment output is byte-identical for every `--jobs`
//! value — and for a journaled run whether it completed in one go or
//! was interrupted and resumed; only the timing annotations vary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::{
    run_all, run_all_catch, validate_base_config, warn_unknown, ExperimentResult, Opts, EXPERIMENTS,
};
use tako_sim::storage::{DiskStorage, FaultStorage, IoFaultPlan, Storage};

/// Flags specific to this binary, parsed from the leftovers of
/// [`Opts::parse`].
struct BenchFlags {
    keep_going: bool,
    force_panic: Option<String>,
    trace_out: Option<String>,
    profile: bool,
    journal: Option<String>,
    resume: bool,
    deadline: Option<f64>,
    retries: u32,
    checkpoint_every: u64,
    crash_after_units: Option<u64>,
    io_faults: Option<IoFaultPlan>,
}

fn parse_bench_flags(unknown: Vec<String>) -> BenchFlags {
    let mut flags = BenchFlags {
        keep_going: false,
        force_panic: None,
        trace_out: None,
        profile: false,
        journal: None,
        resume: false,
        deadline: None,
        retries: 0,
        checkpoint_every: 1,
        crash_after_units: None,
        io_faults: None,
    };
    let mut rest = Vec::new();
    let mut i = 0;
    while i < unknown.len() {
        match unknown[i].as_str() {
            "--keep-going" => flags.keep_going = true,
            "--trace-out" => {
                if let Some(p) = unknown.get(i + 1) {
                    flags.trace_out = Some(p.clone());
                    i += 1;
                } else {
                    eprintln!("warning: --trace-out needs a path");
                }
            }
            "--profile" => flags.profile = true,
            "--force-panic" => {
                if let Some(n) = unknown.get(i + 1) {
                    flags.force_panic = Some(n.clone());
                    i += 1;
                } else {
                    eprintln!("warning: --force-panic needs a harness name");
                }
            }
            "--journal" => {
                if let Some(p) = unknown.get(i + 1) {
                    flags.journal = Some(p.clone());
                    i += 1;
                } else {
                    eprintln!("warning: --journal needs a directory");
                }
            }
            "--resume" => flags.resume = true,
            "--deadline" => {
                if let Some(v) = unknown.get(i + 1) {
                    flags.deadline = v.parse().ok();
                    i += 1;
                } else {
                    eprintln!("warning: --deadline needs seconds");
                }
            }
            "--retries" => {
                if let Some(v) = unknown.get(i + 1) {
                    flags.retries = v.parse().unwrap_or(0);
                    i += 1;
                } else {
                    eprintln!("warning: --retries needs a count");
                }
            }
            "--checkpoint-every" => {
                if let Some(v) = unknown.get(i + 1) {
                    flags.checkpoint_every = v.parse::<u64>().unwrap_or(1).max(1);
                    i += 1;
                } else {
                    eprintln!("warning: --checkpoint-every needs a count");
                }
            }
            "--crash-after-units" => {
                if let Some(v) = unknown.get(i + 1) {
                    flags.crash_after_units = v.parse().ok();
                    i += 1;
                } else {
                    eprintln!("warning: --crash-after-units needs a count");
                }
            }
            "--io-faults" => {
                if let Some(v) = unknown.get(i + 1) {
                    match IoFaultPlan::parse(v) {
                        Ok(plan) => flags.io_faults = Some(plan),
                        Err(e) => {
                            eprintln!("error: --io-faults {v}: {e}");
                            std::process::exit(2);
                        }
                    }
                    i += 1;
                } else {
                    eprintln!("warning: --io-faults needs seed:kind[:count]");
                }
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    warn_unknown(&rest);
    flags
}

fn main() {
    validate_base_config();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, unknown) = Opts::parse(&args);
    let flags = parse_bench_flags(unknown);
    if flags.force_panic.is_some() && !flags.keep_going && flags.journal.is_none() {
        eprintln!("warning: --force-panic without --keep-going aborts the run");
    }

    // Arm observability before any system is built: hierarchies attach
    // their observer at construction.
    let tracing = flags.trace_out.is_some() || flags.profile;
    if tracing {
        tako_sim::trace::arm();
    }

    let t0 = Instant::now();
    let results: Vec<(&str, Result<ExperimentResult, String>)> = if let Some(dir) = &flags.journal {
        let storage: Arc<dyn Storage> = match flags.io_faults.clone() {
            Some(plan) => Arc::new(FaultStorage::new(Arc::new(DiskStorage::new()), plan)),
            None => Arc::new(DiskStorage::new()),
        };
        let c = CampaignOpts {
            dir: dir.into(),
            resume: flags.resume,
            deadline: flags.deadline.map(Duration::from_secs_f64),
            retries: flags.retries,
            checkpoint_every: flags.checkpoint_every,
            force_panic: flags.force_panic.clone(),
            crash_after_units: flags.crash_after_units,
            storage,
        };
        match run_campaign(opts, &c, EXPERIMENTS) {
            Ok(outcome) => {
                eprintln!(
                    "campaign: {} replayed from journal, {} attempts executed",
                    outcome.replayed, outcome.attempts
                );
                if !outcome.io.is_clean() {
                    eprintln!("campaign: storage degraded: {}", outcome.io);
                }
                outcome.results
            }
            Err(e) => {
                eprintln!("error: campaign journal: {e}");
                std::process::exit(2);
            }
        }
    } else if flags.keep_going {
        run_all_catch(opts, flags.force_panic.as_deref())
    } else {
        run_all(opts).into_iter().map(|r| (r.name, Ok(r))).collect()
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

    if tracing {
        tako_sim::trace::disarm();
        let report = tako_sim::trace::drain();
        // Reports are evidence: write them atomically so a crash
        // mid-write can't leave a half-formed file masquerading as a
        // real one.
        let report_store = DiskStorage::new();
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
                Err(e) => eprintln!("error: writing {path}: {e}"),
            }
        }
        if flags.profile {
            println!("PROFILE:\n{}", report.profile_table());
        }
        if let Some(dir) = &flags.journal {
            let path = std::path::Path::new(dir).join("metrics.json");
            match report_store.write_atomic(&path, report.metrics_json().as_bytes()) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => eprintln!("error: writing {}: {e}", path.display()),
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

    if !failures.is_empty() {
        std::process::exit(1);
    }
}
