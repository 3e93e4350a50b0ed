//! # tako-bench — the benchmark harness
//!
//! One experiment harness per figure/table in the paper's evaluation,
//! listed in [`EXPERIMENTS`]; the one runner is the `all_experiments`
//! binary, and `all_experiments --only <names>` runs a selection of
//! them. Every experiment prints the rows/series the paper plots
//! (speedup and relative energy per variant, per-phase access
//! breakdowns, sweeps).
//!
//! All experiments accept a [`Opts`] parsed from the command line:
//!
//! ```text
//! --scale <f>   scale workload sizes by f (default 1.0 — minutes-scale)
//! --paper       use the paper's full sizes (much slower)
//! --seed <n>    override the RNG seed
//! --jobs <n>    worker threads for the per-variant / per-experiment
//!               fan-out (default: available parallelism)
//! ```
//!
//! Output is **deterministic and independent of `--jobs`**: every
//! simulation is seeded, single-threaded, and isolated in its own
//! `TakoSystem`, and [`run_variants`] / [`run_all`] collect results in
//! input order, so `--jobs 1` and `--jobs 8` produce byte-identical
//! experiment output (a test asserts this).
//!
//! Absolute cycle counts differ from the paper's testbed (see
//! EXPERIMENTS.md); the *shape* — who wins, by roughly what factor —
//! is what these harnesses regenerate.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Debug;
use std::str::FromStr;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use tako_sim::checkpoint::{Record, SnapReader, SnapWriter};
use tako_sim::config::SystemConfig;
use tako_sim::digest::Sha256;
use tako_sim::parallel::{default_jobs, parallel_map, parallel_map_catch};

pub mod campaign;
pub mod doctor;
pub mod experiments;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload-size multiplier.
    pub scale: f64,
    /// Use the paper's full workload sizes.
    pub paper: bool,
    /// RNG seed override.
    pub seed: u64,
    /// Worker threads for fan-out (the variants of a lone selected
    /// experiment, or the experiments of a larger selection).
    pub jobs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            scale: 1.0,
            paper: false,
            seed: 0x7AC0,
            jobs: default_jobs(),
        }
    }
}

impl Opts {
    /// Parse `args` (without the program name). Returns the options and
    /// any arguments that were not recognized, so binaries with extra
    /// flags can consume the leftovers and reject the rest.
    ///
    /// # Errors
    ///
    /// A flag whose value is missing or does not parse, and a `--scale`
    /// that is not finite and positive.
    pub fn parse(args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut opts = Opts::default();
        let mut unknown = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    opts.scale = flag_value(args, &mut i)?;
                    if !(opts.scale.is_finite() && opts.scale > 0.0) {
                        return Err(format!("--scale {}: must be finite and > 0", opts.scale));
                    }
                }
                "--seed" => opts.seed = flag_value(args, &mut i)?,
                "--jobs" => opts.jobs = flag_value::<usize>(args, &mut i)?.max(1),
                "--paper" => opts.paper = true,
                other => unknown.push(other.to_string()),
            }
            i += 1;
        }
        Ok((opts, unknown))
    }

    /// Parse `std::env::args`, returning the options and the
    /// unrecognized arguments. Also validates the base system
    /// configuration every harness builds from, so a broken config
    /// fails fast in every binary. Either failure exits with status 2
    /// before anything runs.
    pub fn parse_args() -> (Self, Vec<String>) {
        if let Err(e) = SystemConfig::default_16core().validate() {
            exit_error(&format!("invalid base configuration: {e}"));
        }
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| exit_error(&e))
    }

    /// Scale an integer size.
    pub fn sized(&self, base: usize) -> usize {
        ((base as f64) * self.scale).max(1.0) as usize
    }

    /// These options with the fan-out disabled; handed to experiments
    /// that run *inside* an outer fan-out so the machine is not
    /// oversubscribed.
    pub fn serial(&self) -> Self {
        Opts { jobs: 1, ..*self }
    }
}

/// Parse the value of the flag at `args[*i]` and step `*i` onto it.
///
/// # Errors
///
/// The value is missing or does not parse as `T`.
pub fn flag_value<T: FromStr>(args: &[String], i: &mut usize) -> Result<T, String> {
    let flag = &args[*i];
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} {v}: malformed value"))
}

/// [`flag_value`] for a binary's own flags: a missing or malformed value
/// exits with status 2 ([`exit_error`]).
pub fn flag_value_or_exit<T: FromStr>(args: &[String], i: &mut usize) -> T {
    flag_value(args, i).unwrap_or_else(|e| exit_error(&e))
}

/// Print `msg` as an error and exit with status 2: the outcome of a
/// malformed command line, before anything runs.
pub fn exit_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// The shared [`Opts`] flags, for the usage line of a binary that
/// rejects an unknown argument.
pub const OPTS_FLAGS: &str = "--scale <f>, --paper, --seed <n>, --jobs <n>";

/// The key of a simulation in the run list and in the unit journal: the
/// first 16 bytes of the SHA-256 of its key text.
pub(crate) type RunKey = [u8; 16];

/// The run list of one runner invocation: the kept record of every
/// distinct simulation the invocation has run or found journaled, by
/// key. A runner invocation is one [`run_all`] or
/// [`campaign::run_campaign`] call; its run list lives exactly as long
/// as the call.
#[derive(Default)]
pub(crate) struct RunList(Mutex<HashMap<RunKey, Arc<OnceLock<Vec<u8>>>>>);

impl RunList {
    fn slot(&self, key: RunKey) -> Arc<OnceLock<Vec<u8>>> {
        let mut slots = self.0.lock().expect("run list poisoned");
        Arc::clone(slots.entry(key).or_default())
    }

    /// Keep `record` as the result of run `key`, as if this invocation
    /// had simulated it (a resumed campaign seeds its journaled runs).
    pub(crate) fn seed(&self, key: RunKey, record: Vec<u8>) {
        // A duplicated journal record holds the same bytes.
        let _ = self.slot(key).set(record);
    }
}

thread_local! {
    static RUN_LIST: RefCell<Option<Arc<RunList>>> = const { RefCell::new(None) };
}

/// RAII scope making a run list this thread's; dropping (including
/// during a panic unwind) restores the one it replaced.
pub(crate) struct RunListScope(Option<Arc<RunList>>);

impl RunListScope {
    pub(crate) fn enter(list: Option<Arc<RunList>>) -> Self {
        RunListScope(RUN_LIST.with(|l| l.replace(list)))
    }
}

impl Drop for RunListScope {
    fn drop(&mut self) {
        RUN_LIST.with(|l| *l.borrow_mut() = self.0.take());
    }
}

fn current_run_list() -> Option<Arc<RunList>> {
    RUN_LIST.with(|l| l.borrow().clone())
}

/// The kept record of the simulation `key` names: `run` simulates it
/// only if this runner invocation has neither simulated it yet nor found
/// it journaled, and a caller that asks while another worker is
/// simulating it waits for that result. `key` must name everything the
/// simulation depends on (variant, params, config); the kept record's
/// type, which names the workload, is part of the key. Outside a runner
/// invocation (a harness called directly) every call simulates.
///
/// Under a supervised campaign, the worker that simulates a run appends
/// it to its experiment's unit journal, so every simulation is one
/// journaled unit. Every caller gets the record's [`Record`] round
/// trip, so a fresh, a shared and a journaled result are bit-identical.
pub fn run_once<R: Record>(key: impl Debug, run: impl FnOnce() -> R) -> R {
    let Some(list) = current_run_list() else {
        return run();
    };
    let mut h = Sha256::new();
    h.update(format!("{}:{key:?}", std::any::type_name::<R>()).as_bytes());
    let key: RunKey = h.finish()[..16].try_into().expect("16-byte prefix");
    let slot = list.slot(key);
    let mut run = Some(run);
    let bytes = slot.get_or_init(|| {
        let mut w = SnapWriter::new();
        (run.take().expect("simulated once"))().record(&mut w);
        w.into_bytes()
    });
    if run.is_none() {
        // Journaled after the slot is kept, so a crash hook that fires
        // here still leaves the run to every worker that asks for it.
        campaign::record_unit(&key, bytes);
    }
    let mut r = SnapReader::new(bytes);
    match (R::replay(&mut r).and_then(|v| r.finish().map(|()| v)), run) {
        (Ok(v), _) => v,
        // A journaled record that does not decode (written by another
        // build) is recomputed, which is always correct.
        (Err(_), Some(run)) => run(),
        (Err(e), None) => panic!("run list record does not round-trip: {e}"),
    }
}

/// Run `f` over each variant on `opts.jobs` workers, returning results
/// in `variants` order. Each simulation owns its `TakoSystem`, so runs
/// are independent and the output is identical to the serial loop.
/// Workers share the caller's run list.
pub fn run_variants<V, R, F>(opts: Opts, variants: &[V], f: F) -> Vec<R>
where
    V: Clone + Send,
    R: Send,
    F: Fn(V) -> R + Sync,
{
    let runs = current_run_list();
    parallel_map(opts.jobs, variants.to_vec(), |_, v| {
        let _runs = RunListScope::enter(runs.clone());
        f(v)
    })
}

/// One experiment harness: regenerates a figure/table as printable text.
pub type Experiment = fn(Opts) -> String;

/// Every figure/table harness, in the order `all_experiments` prints.
pub const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig06", experiments::fig06_decompress),
    ("fig07", experiments::fig07_decompress_count),
    ("fig13", experiments::fig13_phi),
    ("fig14", experiments::fig14_phi_dram),
    ("fig16", experiments::fig16_hats),
    ("fig17", experiments::fig17_hats_breakdown),
    ("fig19", experiments::fig19_nvm),
    ("fig20", experiments::fig20_nvm_instrs),
    ("fig21", experiments::fig21_sidechannel),
    ("fig22", experiments::fig22_fabric_size),
    ("fig23", experiments::fig23_pe_latency),
    ("fig24", experiments::fig24_core_uarch),
    ("fig25", experiments::fig25_scalability),
    ("table2", experiments::table2_overhead),
    ("sens_cb", experiments::sens_callback_buffer),
    ("sens_rtlb", experiments::sens_rtlb),
    ("ablations", experiments::ablations),
];

/// The experiments `names` selects: a comma-separated list of
/// [`EXPERIMENTS`] names (the `--only` flag), returned in table order
/// with duplicates collapsed.
///
/// # Errors
///
/// An unknown name, which includes an empty list or an empty item; the
/// message lists the known names.
pub fn select(names: &str) -> Result<Vec<(&'static str, Experiment)>, String> {
    let wanted: Vec<&str> = names.split(',').collect();
    if let Some(bad) = wanted
        .iter()
        .find(|w| !EXPERIMENTS.iter().any(|(n, _)| n == *w))
    {
        let known: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "--only {names}: unknown experiment `{bad}` (known: {})",
            known.join(",")
        ));
    }
    Ok(EXPERIMENTS
        .iter()
        .filter(|(n, _)| wanted.contains(n))
        .copied()
        .collect())
}

/// The outcome of one experiment under [`run_all`].
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Harness name (`fig06` … `ablations`).
    pub name: &'static str,
    /// The experiment's printable output.
    pub output: String,
    /// Wall-clock time the harness took on its worker.
    pub wall: Duration,
}

/// The harnesses that only render other harnesses' run lists. Runners
/// start them after every other harness, so at `--jobs > 1` they find
/// their runs done instead of holding a worker while they wait.
const VIEWS: [&str; 3] = ["fig07", "fig14", "fig17"];

/// Run `experiments` on `jobs` workers, [`VIEWS`] last, each behind a
/// panic guard, and return the results in `experiments` order: a
/// panicking experiment becomes `Err(panic payload)` while every other
/// one still runs to completion. `run` runs one experiment on its
/// worker.
pub(crate) fn fan_out(
    jobs: usize,
    experiments: &[(&'static str, Experiment)],
    run: impl Fn(&'static str, Experiment) -> ExperimentResult + Sync,
) -> Vec<(&'static str, Result<ExperimentResult, String>)> {
    let mut order = experiments.to_vec();
    order.sort_by_key(|(name, _)| VIEWS.contains(name));
    let results = parallel_map_catch(jobs, order.clone(), |_, (name, f)| run(name, f));
    let mut results: Vec<_> = order.iter().map(|(name, _)| *name).zip(results).collect();
    results.sort_by_key(|(name, _)| experiments.iter().position(|(n, _)| n == name));
    results
}

/// Run harness `name` on `runs`, timed; `force_panic` makes it panic on
/// entry instead (the `--force-panic` hook).
pub(crate) fn run_experiment(
    name: &'static str,
    f: Experiment,
    opts: Opts,
    runs: &Arc<RunList>,
    force_panic: bool,
) -> ExperimentResult {
    if force_panic {
        panic!("forced panic in {name} (--force-panic)");
    }
    let _runs = RunListScope::enter(Some(Arc::clone(runs)));
    let t0 = Instant::now();
    let output = f(opts);
    ExperimentResult {
        name,
        output,
        wall: t0.elapsed(),
    }
}

/// Run `experiments` (a slice of [`EXPERIMENTS`] in table order, or
/// any harness list) across `opts.jobs` workers and return the results
/// in `experiments` order. A lone experiment gets all `opts.jobs` for
/// its variants; with two or more the machine is reserved for the
/// experiment-level fan-out, and each harness runs with `jobs = 1`
/// inside.
///
/// Each harness runs behind a panic guard: a panicking experiment
/// becomes `Err(panic payload)` while every other harness still runs to
/// completion. When `force_panic` names a harness it panics on entry
/// (the `--force-panic` hook).
pub fn run_all(
    opts: Opts,
    experiments: &[(&'static str, Experiment)],
    force_panic: Option<&str>,
) -> Vec<(&'static str, Result<ExperimentResult, String>)> {
    let inner = if experiments.len() == 1 {
        opts
    } else {
        opts.serial()
    };
    let runs = Arc::new(RunList::default());
    fan_out(opts.jobs, experiments, |name, f| {
        run_experiment(name, f, inner, &runs, Some(name) == force_panic)
    })
}

/// Render one labelled row of `(label, value)` pairs.
pub fn row(label: &str, cols: &[(&str, String)]) -> String {
    let mut s = format!("{label:<16}");
    for (name, v) in cols {
        s.push_str(&format!(" {name}={v}"));
    }
    s.push('\n');
    s
}

/// Format a ratio as `x.xx×`.
pub fn fx(x: f64) -> String {
    format!("{x:.2}x")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_known_flags() {
        let (o, unknown) = Opts::parse(&s(&[
            "--scale", "0.5", "--paper", "--seed", "7", "--jobs", "3",
        ]))
        .unwrap();
        assert!(unknown.is_empty());
        assert_eq!(o.scale, 0.5);
        assert!(o.paper);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 3);

        // A malformed value is an error, never a silently kept default.
        for bad in [
            &["--scale", "abc"][..],
            &["--scale", "0"],
            &["--scale", "-1"],
            &["--scale", "inf"],
            &["--scale", "NaN"],
            &["--seed", "x7"],
            &["--seed", "-1"],
            &["--jobs", "two"],
            &["--jobs", "-1"],
            &["--scale"],
            &["--paper", "--jobs"],
        ] {
            assert!(Opts::parse(&s(bad)).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn parse_collects_unknown() {
        let (o, unknown) = Opts::parse(&s(&["--wat", "--seed", "9"])).unwrap();
        assert_eq!(unknown, vec!["--wat".to_string()]);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn jobs_zero_clamps_to_one() {
        let (o, _) = Opts::parse(&s(&["--jobs", "0"])).unwrap();
        assert_eq!(o.jobs, 1);
    }

    #[test]
    fn run_variants_preserves_order() {
        let opts = Opts {
            jobs: 4,
            ..Opts::default()
        };
        let out = run_variants(opts, &[3u64, 1, 4, 1, 5], |v| v * 10);
        assert_eq!(out, vec![30, 10, 40, 10, 50]);
    }
}
