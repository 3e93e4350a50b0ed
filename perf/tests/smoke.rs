//! Smoke test of the benchmark at a tiny, test-only `--scale`: every
//! workload prints every metric `BENCHMARK.json` declares with its unit,
//! counts and `sim_digest` repeat exactly (run to run, and traced against
//! untraced), the Chrome trace loads beside the simulator's own trace
//! export, and the output checks reject a perturbed reference.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use tako_perf::json::{self, Value};
use tako_perf::workload::{check_health, check_nvm, check_ranks, check_soa, HEALTH_COUNTERS};
use tako_sim::config::SystemConfig;
use tako_sim::stats::Stats;

const SCALE: &str = "0.002";

struct Run {
    /// metric → (value as printed, unit, kind), from the metric lines.
    lines: BTreeMap<String, (String, String, String)>,
    /// The final result line.
    result: Value,
}

fn tako_perf(workload: &str, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_tako_perf"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "0",
            "--scale",
            SCALE,
        ])
        .args(extra)
        .output()
        .expect("run tako_perf");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} {extra:?} failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut all: Vec<&str> = text.lines().collect();
    let result = json::parse(all.pop().expect("a result line")).expect("result line is JSON");
    let mut lines = BTreeMap::new();
    for l in all {
        let v = json::parse(l).expect("every line is JSON");
        assert_eq!(v.get("workload").and_then(Value::as_str), Some(workload));
        let Some(name) = v.get("metric").and_then(Value::as_str) else {
            assert!(v.get("span").is_some(), "neither a metric nor a span: {l}");
            continue;
        };
        let shown = match v.get("value") {
            Some(Value::Str(s)) => s.clone(),
            Some(Value::Num(x)) => json::number(*x),
            other => panic!("{name}: bad value {other:?}"),
        };
        let field = |k: &str| v.get(k).and_then(Value::as_str).expect(k).to_string();
        lines.insert(name.to_string(), (shown, field("unit"), field("kind")));
    }
    Run { lines, result }
}

/// `(name, unit)` of each entry of BENCHMARK.json's `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let v = json::parse(&text).expect("BENCHMARK.json is JSON");
    v.get(section)
        .and_then(Value::as_array)
        .expect(section)
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// The exact per-layer results: every count and the digest.
fn exact(run: &Run) -> BTreeMap<String, String> {
    run.lines
        .iter()
        .filter(|(_, (_, unit, kind))| {
            kind == "digest" || unit == "count" || unit == "ratio" && kind == "layer"
        })
        .map(|(k, (v, _, _))| (k.clone(), v.clone()))
        .collect()
}

/// `(name, unit)` of the result line's metrics, sorted.
fn result_metrics(run: &Run) -> Vec<(String, String)> {
    let mut ms: Vec<(String, String)> = match run.result.get("metrics") {
        Some(Value::Obj(ms)) => ms
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.get("unit")
                        .and_then(Value::as_str)
                        .expect("unit")
                        .to_string(),
                )
            })
            .collect(),
        other => panic!("no metrics object: {other:?}"),
    };
    ms.sort();
    ms
}

fn sorted(mut xs: Vec<(String, String)>) -> Vec<(String, String)> {
    xs.sort();
    xs
}

#[test]
fn every_workload_reports_every_declared_metric_and_repeats_exactly() {
    let e2e = declared("end_to_end");
    let layer = declared("per_layer");
    let trace_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    for w in ["phi", "hats", "nvm", "soa"] {
        let a = tako_perf(w, &["--trace", "0"]);
        let b = tako_perf(w, &[]);
        let trace_path = trace_dir.join(format!("smoke_{w}.trace.json"));
        let t = tako_perf(w, &["--trace", trace_path.to_str().expect("utf-8 path")]);

        for run in [&a, &b, &t] {
            assert_eq!(run.result.get("correct"), Some(&Value::Bool(true)), "{w}");
            assert_eq!(
                run.result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{w}"
            );
            for (name, unit) in &e2e {
                let (_, got, kind) = run
                    .lines
                    .get(name)
                    .unwrap_or_else(|| panic!("{w}: no {name}"));
                assert_eq!((got, kind.as_str()), (unit, "e2e"), "{w} {name}");
            }
        }
        assert_eq!(
            result_metrics(&a),
            sorted(e2e.clone()),
            "{w}: untraced result line"
        );
        assert_eq!(
            result_metrics(&t),
            sorted(layer.clone()),
            "{w}: traced result line"
        );
        for (name, unit) in &layer {
            let (_, got, _) = t
                .lines
                .get(name)
                .unwrap_or_else(|| panic!("{w}: no {name}"));
            assert_eq!(got, unit, "{w} {name}");
        }

        let exact_a = exact(&a);
        assert!(exact_a.contains_key("sim_digest") && exact_a.contains_key("core.l1d_hits"));
        assert_eq!(exact_a, exact(&b), "{w}: counts differ between two runs");
        assert_eq!(exact_a, exact(&t), "{w}: tracing changed a count");

        let trace = json::parse(&std::fs::read_to_string(&trace_path).expect("trace written"))
            .expect("Chrome trace is JSON");
        let events = trace
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents");
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Value::as_str) == Some("pass")));
        assert!(t
            .lines
            .keys()
            .any(|k| k.starts_with("workloads.") && k.ends_with(".host_s")));
    }
}

#[test]
fn chrome_trace_loads_beside_the_simulator_trace_export() {
    // The simulator's export, as `all_experiments --trace-out` writes it.
    tako_sim::trace::arm();
    let params = tako_workloads::soa::Params {
        elements: 256,
        field: 1,
        passes: 1,
        seed: 3,
    };
    tako_workloads::soa::run(
        tako_workloads::soa::Variant::Tako,
        params,
        &SystemConfig::default_16core(),
    );
    let sim = tako_sim::trace::drain().chrome_trace_json();
    tako_sim::trace::disarm();

    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_merge.trace.json");
    tako_perf("soa", &["--trace", path.to_str().expect("utf-8 path")]);
    let ours = std::fs::read_to_string(&path).expect("trace written");

    // Merge the two event arrays into one document, as a viewer loading
    // both files does, and check that no process id is shared.
    let events = |text: &str| -> Vec<Value> {
        json::parse(text)
            .expect("trace is JSON")
            .get("traceEvents")
            .and_then(Value::as_array)
            .expect("traceEvents")
            .to_vec()
    };
    let pids = |evs: &[Value]| -> Vec<u64> {
        let mut p: Vec<u64> = evs
            .iter()
            .filter_map(|e| e.get("pid")?.as_f64())
            .map(|x| x as u64)
            .collect();
        p.sort_unstable();
        p.dedup();
        p
    };
    let (sim_events, our_events) = (events(&sim), events(&ours));
    assert!(!sim_events.is_empty() && !our_events.is_empty());
    let (sim_pids, our_pids) = (pids(&sim_events), pids(&our_events));
    assert!(
        sim_pids.iter().all(|p| !our_pids.contains(p)),
        "{sim_pids:?} vs {our_pids:?}"
    );
    let sim_body = sim
        .strip_prefix("{\"traceEvents\":[")
        .and_then(|s| s.split_once("],"))
        .expect("sim layout")
        .0;
    let merged = ours.replacen(
        "{\"traceEvents\":[",
        &format!("{{\"traceEvents\":[{sim_body},"),
        1,
    );
    assert_eq!(events(&merged).len(), sim_events.len() + our_events.len());
}

#[test]
fn hats_input_avoids_the_empty_slot_sentinel() {
    // At the smoke scale seed 24 draws the edge 0 → 0, which HATS packs
    // as its empty-slot value 0 and drops; the benchmark leaves it out.
    let run = tako_perf("hats", &["--seed", "24"]);
    assert_eq!(run.result.get("correct"), Some(&Value::Bool(true)));
}

#[test]
fn output_checks_reject_a_perturbed_reference() {
    let reference: Vec<f64> = (1..=64).map(|i| 1.0 / f64::from(i)).collect();
    assert!(check_ranks(&reference, &reference).is_ok());
    let mut perturbed = reference.clone();
    perturbed[17] += 1e-6;
    assert!(
        check_ranks(&reference, &perturbed).is_err(),
        "a 1e-6 error must fail"
    );
    perturbed[17] = reference[17] + 1e-12;
    assert!(
        check_ranks(&reference, &perturbed).is_ok(),
        "within tolerance"
    );
    assert!(
        check_ranks(&reference[..63], &reference).is_err(),
        "length mismatch"
    );
    let mut nan = reference.clone();
    nan[3] = f64::NAN;
    assert!(check_ranks(&nan, &reference).is_err(), "NaN must fail");

    assert!(check_soa(41, 41).is_ok());
    assert!(check_soa(41, 42).is_err());
    assert!(check_nvm(true).is_ok());
    assert!(check_nvm(false).is_err());

    assert!(check_health(&Stats::new()).is_ok());
    for c in HEALTH_COUNTERS {
        let mut s = Stats::new();
        s.bump(c);
        assert!(check_health(&s).is_err(), "{} must fail a unit", c.name());
    }
}
