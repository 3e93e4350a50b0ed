//! `tako_perf`: the simulator's host-time benchmark (see README.md).
//!
//! ```text
//! tako_perf --workload <phi|hats|nvm|soa> [--seed N] [--seconds S]
//!           [--trace 0|1|PATH] [--scale F]
//! tako_perf --all [--seed N] [--seconds S] [--trace 0|1|PATH] [--scale F]
//! tako_perf diff <base.jsonl> <cand.jsonl>
//! ```
//!
//! A run prints one JSON line per metric, a `sim_digest` line, span lines
//! when traced, and last a result line with `correct`, `attempted`,
//! `failed` and the metrics (end-to-end untraced, per-layer traced).
//! `--trace PATH` traces and also writes the spans there as Chrome trace
//! JSON. It exits 1 if any unit failed, 2 on a usage error.

use std::ffi::OsStr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use tako_perf::diff;
use tako_perf::json::{self, Value};
use tako_perf::run::{self, Options, E2E};
use tako_perf::workload::Workload;

/// The default input seed: the harness default `0x7AC0`.
const DEFAULT_SEED: u64 = 31424;
/// The measurement budget `BENCHMARK.json` gives (`run_seconds`).
const DEFAULT_SECONDS: f64 = 20.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("diff") {
        diff_main(&args[1..])
    } else {
        parse(&args).and_then(|cli| {
            if cli.all {
                all_main(&cli)
            } else {
                one_main(&cli)
            }
        })
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("tako_perf: {e}");
            ExitCode::from(2)
        }
    }
}

struct Cli {
    all: bool,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    scale: f64,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        all: false,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        scale: 1.0,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--all" {
            cli.all = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |what: &str| {
            value
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("{flag}: `{value}` is not a {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                cli.workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}` (phi|hats|nvm|soa)"))?,
                );
            }
            "--seed" => {
                cli.seed = value
                    .parse()
                    .map_err(|_| format!("--seed: `{value}` is not an unsigned integer"))?;
            }
            "--seconds" => cli.seconds = number("number of seconds")?,
            "--scale" => {
                cli.scale = number("scale")?;
                if cli.scale == 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--trace" => match value.as_str() {
                "0" => cli.trace = false,
                "1" => cli.trace = true,
                path => {
                    cli.trace = true;
                    cli.trace_out = Some(PathBuf::from(path));
                }
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !cli.all && cli.workload.is_none() {
        return Err("give --workload <phi|hats|nvm|soa>, --all, or diff".into());
    }
    Ok(cli)
}

fn one_main(cli: &Cli) -> Result<ExitCode, String> {
    let report = run::run(&Options {
        workload: cli.workload.expect("checked in parse"),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        trace_out: cli.trace_out.clone(),
        scale: cli.scale,
    });
    for line in report.lines() {
        println!("{line}");
    }
    let names = if cli.trace {
        run::layer_names()
    } else {
        E2E.to_vec()
    };
    println!("{}", report.summary(&names));
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run one child process of `--all` with `--trace <trace>`; prints its
/// lines and returns its result line.
fn child(cli: &Cli, w: Workload, trace: &OsStr) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--scale", &cli.scale.to_string()])
        .arg("--trace")
        .arg(trace)
        .output()
        .map_err(|e| format!("cannot run {}: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for l in lines {
        println!("{l}");
    }
    json::parse(last).map_err(|e| format!("{}: no result line ({e})", w.name()))
}

fn all_main(cli: &Cli) -> Result<ExitCode, String> {
    let mut correct = true;
    let (mut attempted, mut failed) = (0.0, 0.0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        // End-to-end numbers come from the untraced run; a traced run
        // follows it, and their difference is the tracing overhead.
        let mut results = vec![child(cli, w, OsStr::new("0"))?];
        if cli.trace {
            let trace = match &cli.trace_out {
                Some(p) => p
                    .with_extension(format!("{}.json", w.name()))
                    .into_os_string(),
                None => "1".into(),
            };
            results.push(child(cli, w, &trace)?);
        }
        let get = |r: &Value, m: &str| {
            r.get("metrics")
                .and_then(|ms| ms.get(m))
                .and_then(|x| x.get("value"))
                .and_then(Value::as_f64)
        };
        if let (Some(traced), Some(untraced)) = (
            results.get(1).and_then(|r| get(r, "workloads.host_s")),
            get(&results[0], "wall_s"),
        ) {
            println!(
                "{{\"workload\":{},\"seed\":{},\"metric\":\"trace.overhead_s\",\"value\":{},\"unit\":\"s\",\"kind\":\"layer\"}}",
                json::string(w.name()),
                cli.seed,
                json::number(traced - untraced)
            );
        }
        for r in &results {
            correct &= r.get("correct") == Some(&Value::Bool(true));
            attempted += r.get("attempted").and_then(Value::as_f64).unwrap_or(0.0);
            failed += r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
            if let Some(Value::Obj(ms)) = r.get("metrics") {
                for (name, v) in ms {
                    let (Some(x), Some(unit)) = (
                        v.get("value").and_then(Value::as_f64),
                        v.get("unit").and_then(Value::as_str),
                    ) else {
                        continue;
                    };
                    metrics.push(format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        json::string(&format!("{}.{name}", w.name())),
                        json::number(x),
                        json::string(unit)
                    ));
                }
            }
        }
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        metrics.join(",")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json` in the working directory or the nearest ancestor.
fn find_benchmark_json() -> Option<PathBuf> {
    let cwd = std::env::current_dir().ok()?;
    cwd.ancestors()
        .map(|d| d.join("BENCHMARK.json"))
        .find(|p| p.is_file())
}

fn diff_main(args: &[String]) -> Result<ExitCode, String> {
    let [base, cand] = args else {
        return Err("usage: tako_perf diff <base.jsonl> <cand.jsonl>".into());
    };
    let bench = find_benchmark_json().ok_or("no BENCHMARK.json in this directory or above")?;
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = diff::bounds(&read(&bench)?)?;
    let (report, regressed) = diff::diff(&read(Path::new(base))?, &read(Path::new(cand))?, &bounds);
    print!("{report}");
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
