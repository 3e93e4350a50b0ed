//! Exhaustive small-config model checking of the callback protocol.
//!
//! Drives `tako-check` over the four case-study Morph families on the
//! tiny bounded hierarchy (2 tiles, 2 sets, 2 ways, 2-entry MSHR
//! files), exhausting every architectural action and every scheduler
//! interleaving to the depth bound, and reporting state counts and the
//! per-depth frontier. Safety (Sec 4.3 restrictions, the Sec 5.2 MSHR
//! callback reservation, trrîp's free-line rule, coherence SWMR) and
//! liveness (no parked callbacks, no checked-out engines, no stage-walk
//! livelock) are asserted on every reachable state.
//!
//! Flags beyond the shared [`Opts`] set (`--jobs` parallelizes across
//! families; output is byte-identical at any job count):
//!
//! ```text
//! --depth <n>        action bound along any path (default 3)
//! --tiles <n>        tiles in the system under check (default 2)
//! --morphs a,b,c     families to sweep (default decompress,soa,nvm,trrip)
//! --max-scripts <n>  schedule scripts per (state, action) (default 64)
//! --faults seed:kind[:count]  arm a deterministic fault plan
//! --mutant           arm the canonical illegal-action mutant and
//!                    require every family to catch and shrink it
//! --write-cex <file> where to write the shrunk counterexample
//! --replay <file>    replay a committed counterexample; exit 0 iff it
//!                    still reproduces its recorded violation
//! ```
//!
//! Exit codes: 0 clean (or mutant caught / replay reproduced), 1 a
//! violation was found (or mutant missed / replay stale), 2 usage.

use std::process::ExitCode;

use tako_bench::Opts;
use tako_check::{cex, check_family, Bounds, Counterexample, Family, FAMILIES};
use tako_sim::fault::FaultPlan;
use tako_sim::parallel::parallel_map;

/// The canonical illegal-action mutant: seed 9 injects before the first
/// action's logical clock, so every family trips it on its first
/// callback. Committed counterexamples in `crates/bench/regressions/`
/// replay this plan string through `FaultPlan::parse`, and
/// `fault_campaign --faults` accepts it unchanged.
const MUTANT_PLAN: &str = "9:illegal:1";

struct Flags {
    depth: usize,
    tiles: usize,
    max_scripts: usize,
    families: Vec<Family>,
    faults: Option<String>,
    mutant: bool,
    write_cex: Option<String>,
    replay: Option<String>,
}

fn parse_flags(unknown: Vec<String>) -> Result<Flags, String> {
    let mut f = Flags {
        depth: 3,
        tiles: 2,
        max_scripts: 64,
        families: FAMILIES.to_vec(),
        faults: None,
        mutant: false,
        write_cex: None,
        replay: None,
    };
    let mut i = 0;
    while i < unknown.len() {
        let arg = unknown[i].as_str();
        let mut value = |name: &str| -> Result<String, String> {
            i += 1;
            unknown
                .get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg {
            "--depth" => {
                f.depth = value("--depth")?
                    .parse()
                    .map_err(|e| format!("--depth: {e}"))?
            }
            "--tiles" => {
                f.tiles = value("--tiles")?
                    .parse()
                    .map_err(|e| format!("--tiles: {e}"))?
            }
            "--max-scripts" => {
                f.max_scripts = value("--max-scripts")?
                    .parse()
                    .map_err(|e| format!("--max-scripts: {e}"))?;
            }
            "--morphs" => {
                let list = value("--morphs")?;
                f.families = list
                    .split(',')
                    .map(|s| Family::parse(s.trim()).ok_or_else(|| format!("unknown family {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            "--faults" => {
                let plan = value("--faults")?;
                FaultPlan::parse(&plan).map_err(|e| format!("--faults: {e}"))?;
                f.faults = Some(plan);
            }
            "--mutant" => f.mutant = true,
            "--write-cex" => f.write_cex = Some(value("--write-cex")?),
            "--replay" => f.replay = Some(value("--replay")?),
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if f.tiles < 2 || !f.tiles.is_power_of_two() {
        return Err(format!("--tiles {} must be a power of two >= 2", f.tiles));
    }
    if f.mutant && f.faults.is_some() {
        return Err("--mutant and --faults are mutually exclusive".to_string());
    }
    if f.mutant {
        f.faults = Some(MUTANT_PLAN.to_string());
    }
    Ok(f)
}

fn replay_file(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("protocol_check: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let cex = match Counterexample::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("protocol_check: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match cex::replay_cex(&cex) {
        Some((kind, message)) if kind == cex.kind => {
            println!(
                "replay {path}: {} violation reproduced in {} steps: {message}",
                kind,
                cex.steps.len()
            );
            ExitCode::SUCCESS
        }
        Some((kind, message)) => {
            println!(
                "replay {path}: reproduced a {kind} violation but the file records {}: {message}",
                cex.kind
            );
            ExitCode::FAILURE
        }
        None => {
            println!(
                "replay {path}: recorded {} violation no longer reproduces",
                cex.kind
            );
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let (opts, unknown) = Opts::parse_args();
    let flags = match parse_flags(unknown) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("protocol_check: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &flags.replay {
        return replay_file(path);
    }

    let bounds = Bounds {
        depth: flags.depth,
        tiles: flags.tiles,
        max_scripts: flags.max_scripts,
    };
    let plan = flags
        .faults
        .as_deref()
        .map(|s| FaultPlan::parse(s).expect("plan validated at flag parse"));
    let family_names = flags
        .families
        .iter()
        .map(|f| f.name())
        .collect::<Vec<_>>()
        .join(",");
    println!(
        "protocol_check: tiles {}, depth {}, max-scripts {}, faults {}, families {}",
        flags.tiles,
        flags.depth,
        flags.max_scripts,
        flags.faults.as_deref().unwrap_or("none"),
        family_names,
    );

    // One exploration per family; `--jobs` fans the families out and
    // results come back in family order, so the report is byte-identical
    // at any job count.
    let reports = parallel_map(opts.jobs, flags.families.clone(), |_, family| {
        check_family(family, &bounds, plan.as_ref())
    });

    let mut total_states = 0usize;
    let mut total_edges = 0usize;
    let mut first_violation = None;
    let mut caught = 0usize;
    for report in &reports {
        print!("{}", report.render());
        total_states += report.states;
        total_edges += report.edges;
        if let Some(v) = &report.violation {
            caught += 1;
            if first_violation.is_none() {
                first_violation = Some((report.family, v.clone()));
            }
        }
    }
    println!(
        "protocol_check: {} families, {} states, {} edges",
        reports.len(),
        total_states,
        total_edges,
    );

    if flags.mutant {
        if caught != reports.len() {
            println!(
                "MUTANT MISSED: only {caught} of {} families caught the armed illegal action",
                reports.len()
            );
            return ExitCode::FAILURE;
        }
        let (family, v) = first_violation.expect("caught > 0");
        let (steps, message) = cex::shrink(family, flags.tiles, plan.as_ref(), v.kind, &v.steps);
        if steps.len() > 8 {
            println!(
                "MUTANT CAUGHT but the witness only shrank to {} steps",
                steps.len()
            );
            return ExitCode::FAILURE;
        }
        let cex = Counterexample {
            family,
            tiles: flags.tiles,
            faults: flags.faults.clone(),
            kind: v.kind,
            message,
            steps,
        };
        println!(
            "mutant caught by every family; shrunk witness: {} steps on {}",
            cex.steps.len(),
            family.name()
        );
        return emit_cex(&cex, flags.write_cex.as_deref());
    }

    match first_violation {
        None => {
            println!("protocol_check: all clean");
            ExitCode::SUCCESS
        }
        Some((family, v)) => {
            let (steps, message) =
                cex::shrink(family, flags.tiles, plan.as_ref(), v.kind, &v.steps);
            let cex = Counterexample {
                family,
                tiles: flags.tiles,
                faults: flags.faults.clone(),
                kind: v.kind,
                message,
                steps,
            };
            println!(
                "protocol_check: VIOLATION on {} (shrunk to {} steps)",
                family.name(),
                cex.steps.len()
            );
            let _ = emit_cex(&cex, flags.write_cex.as_deref());
            ExitCode::FAILURE
        }
    }
}

/// Write (or print) the counterexample document.
fn emit_cex(cex: &Counterexample, path: Option<&str>) -> ExitCode {
    let text = cex.render();
    match path {
        Some(p) => {
            if let Err(e) = std::fs::write(p, &text) {
                eprintln!("protocol_check: cannot write {p}: {e}");
                return ExitCode::from(2);
            }
            println!("counterexample written to {p}");
            ExitCode::SUCCESS
        }
        None => {
            print!("{text}");
            ExitCode::SUCCESS
        }
    }
}
