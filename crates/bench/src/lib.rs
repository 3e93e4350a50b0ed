//! # tako-bench — the benchmark harness
//!
//! One experiment module per figure/table in the paper's evaluation; the
//! binaries in `src/bin/` are thin wrappers. Every experiment prints the
//! rows/series the paper plots (speedup and relative energy per variant,
//! per-phase access breakdowns, sweeps).
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

use std::time::{Duration, Instant};

use tako_sim::checkpoint::Record;
use tako_sim::config::SystemConfig;
use tako_sim::parallel::{default_jobs, parallel_map, parallel_map_catch};

pub mod campaign;
pub mod doctor;
pub mod experiments;

/// Validate the base system configuration every harness builds from,
/// exiting with a diagnostic when it cannot describe real hardware.
/// Every bench binary calls this at startup (via [`Opts::from_args`]).
pub fn validate_base_config() {
    if let Err(e) = SystemConfig::default_16core().validate() {
        eprintln!("error: invalid base configuration: {e}");
        std::process::exit(2);
    }
}

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload-size multiplier.
    pub scale: f64,
    /// Use the paper's full workload sizes.
    pub paper: bool,
    /// RNG seed override.
    pub seed: u64,
    /// Worker threads for fan-out (variants within a figure, or
    /// experiments within `all_experiments`).
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
    /// flags can consume the leftovers before warning.
    pub fn parse(args: &[String]) -> (Self, Vec<String>) {
        let mut opts = Opts::default();
        let mut unknown = Vec::new();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.scale = v.parse().unwrap_or(opts.scale);
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.seed = v.parse().unwrap_or(opts.seed);
                        i += 1;
                    }
                }
                "--jobs" => {
                    if let Some(v) = args.get(i + 1) {
                        opts.jobs = v.parse().unwrap_or(opts.jobs).max(1);
                        i += 1;
                    }
                }
                "--paper" => opts.paper = true,
                other => unknown.push(other.to_string()),
            }
            i += 1;
        }
        (opts, unknown)
    }

    /// Parse from `std::env::args`, warning on stderr about any
    /// unrecognized argument. Also validates the base system
    /// configuration, so a broken config fails fast in every binary.
    pub fn from_args() -> Self {
        validate_base_config();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let (opts, unknown) = Self::parse(&args);
        warn_unknown(&unknown);
        opts
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

/// Print a warning for each unrecognized command-line argument.
pub fn warn_unknown(unknown: &[String]) {
    for u in unknown {
        eprintln!(
            "warning: unknown argument `{u}` \
             (known: --scale <f>, --paper, --seed <n>, --jobs <n>)"
        );
    }
}

/// Run `f` over each variant on `opts.jobs` workers, returning results
/// in `variants` order. Each simulation owns its `TakoSystem`, so runs
/// are independent and the output is identical to the serial loop.
///
/// Under a supervised campaign (a [`campaign`] unit journal armed on
/// this thread), every completed variant is journaled as a checkpoint
/// unit and the loop runs serially: a crashed experiment resumes here
/// by replaying already-journaled units bit-exactly and simulating only
/// the remainder. Experiments run `opts.serial()` inside the campaign
/// fan-out anyway, so the serial journaled loop changes nothing else.
pub fn run_variants<V, R, F>(opts: Opts, variants: &[V], f: F) -> Vec<R>
where
    V: Clone + Send,
    R: Record + Send,
    F: Fn(V) -> R + Sync,
{
    if let Some(call) = campaign::next_call_id() {
        return variants
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, v)| match campaign::replay_unit::<R>(call, i as u64) {
                Some(r) => r,
                None => {
                    let r = f(v);
                    campaign::record_unit(call, i as u64, &r);
                    r
                }
            })
            .collect();
    }
    parallel_map(opts.jobs, variants.to_vec(), |_, v| f(v))
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

/// Run every harness in [`EXPERIMENTS`] across `opts.jobs` workers and
/// return the results in table order. The machine is reserved for the
/// experiment-level fan-out: each harness runs with `jobs = 1` inside.
pub fn run_all(opts: Opts) -> Vec<ExperimentResult> {
    let inner = opts.serial();
    parallel_map(opts.jobs, EXPERIMENTS.to_vec(), move |_, (name, f)| {
        let t0 = Instant::now();
        let output = f(inner);
        ExperimentResult {
            name,
            output,
            wall: t0.elapsed(),
        }
    })
}

/// Like [`run_all`], but each harness runs behind a panic guard: a
/// panicking experiment becomes `Err(panic payload)` while every other
/// harness still runs to completion — the `--keep-going` contract of
/// `all_experiments`. When `force_panic` names a harness it panics on
/// entry (the hook the keep-going integration test drives).
pub fn run_all_catch(
    opts: Opts,
    force_panic: Option<&str>,
) -> Vec<(&'static str, Result<ExperimentResult, String>)> {
    let inner = opts.serial();
    let results = parallel_map_catch(opts.jobs, EXPERIMENTS.to_vec(), move |_, (name, f)| {
        if Some(name) == force_panic {
            panic!("forced panic in {name} (--force-panic)");
        }
        let t0 = Instant::now();
        let output = f(inner);
        ExperimentResult {
            name,
            output,
            wall: t0.elapsed(),
        }
    });
    EXPERIMENTS
        .iter()
        .zip(results)
        .map(|((name, _), r)| (*name, r))
        .collect()
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
        ]));
        assert!(unknown.is_empty());
        assert_eq!(o.scale, 0.5);
        assert!(o.paper);
        assert_eq!(o.seed, 7);
        assert_eq!(o.jobs, 3);
    }

    #[test]
    fn parse_collects_unknown() {
        let (o, unknown) = Opts::parse(&s(&["--wat", "--seed", "9"]));
        assert_eq!(unknown, vec!["--wat".to_string()]);
        assert_eq!(o.seed, 9);
    }

    #[test]
    fn jobs_zero_clamps_to_one() {
        let (o, _) = Opts::parse(&s(&["--jobs", "0"]));
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
