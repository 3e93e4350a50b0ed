//! `tako_perf diff <base.jsonl> <cand.jsonl>`: compare two sets of runs.
//!
//! Each file holds the metric lines of any number of runs (concatenated
//! stdout of `tako_perf`). For every workload and end-to-end metric the
//! report gives each side's median, Q1–Q3 and n, the % change of the
//! medians and a verdict read from the bounds in `BENCHMARK.json`:
//!
//! * `improved` — the candidate wins at least 9 of every 10 pairs (run
//!   *i* of one file against run *i* of the other; ties count for
//!   neither; at least 10 pairs) and the medians differ by more than the
//!   base's interquartile range;
//! * `worse` — the candidate's median is worse than the base's by more
//!   than the bound;
//! * `unresolved` — either side's spread (IQR / median) is wider than the
//!   bound, unless every candidate run beats every base run;
//! * `within` — none of the above.
//!
//! Every count and `sim_digest` is compared exactly, seed by seed, and
//! any difference is flagged.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stat::{median, quartiles, spread};

/// Whether smaller or larger values are better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// An end-to-end metric's direction and regression bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bound {
    /// Direction.
    pub better: Better,
    /// Share of the base median the metric may worsen by.
    pub bound: f64,
}

/// Read the `end_to_end` bounds from the text of `BENCHMARK.json`.
///
/// # Errors
///
/// A message if the text is not JSON or an entry lacks a field.
pub fn bounds(benchmark_json: &str) -> Result<BTreeMap<String, Bound>, String> {
    let v = json::parse(benchmark_json)?;
    let list = v
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or("metric without name")?;
        let better = match m.get("better").and_then(Value::as_str) {
            Some("lower") => Better::Lower,
            Some("higher") => Better::Higher,
            _ => return Err(format!("{name}: `better` must be lower or higher")),
        };
        let bound = m
            .get("bound")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name}: no bound"))?;
        out.insert(name.to_string(), Bound { better, bound });
    }
    Ok(out)
}

/// The verdict on one end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Won ≥ 9/10 pairs by more than the base IQR.
    Improved,
    /// Median worse than the bound allows.
    Worse,
    /// Spread wider than the bound.
    Unresolved,
    /// Within the bound.
    Within,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "unresolved",
            Verdict::Within => "within",
        }
    }
}

/// Judge `cand` against `base` (runs in pairing order) under `b`.
///
/// # Panics
///
/// Panics if either side is empty.
pub fn verdict(base: &[f64], cand: &[f64], b: Bound) -> Verdict {
    let (mb, mc) = (median(base), median(cand));
    let gain = |x: f64, y: f64| match b.better {
        Better::Lower => y - x,
        Better::Higher => x - y,
    };
    let pairs = base.len().min(cand.len());
    let wins = base
        .iter()
        .zip(cand)
        .filter(|(&x, &y)| gain(y, x) > 0.0)
        .count();
    let (q1, q3) = quartiles(base);
    if pairs >= 10 && wins * 10 >= pairs * 9 && gain(mc, mb) > q3 - q1 {
        return Verdict::Improved;
    }
    let worse_by = -gain(mc, mb);
    if worse_by > b.bound * mb.abs() {
        return Verdict::Worse;
    }
    let all_better = cand.iter().all(|&y| base.iter().all(|&x| gain(y, x) > 0.0));
    if (spread(base) > b.bound || spread(cand) > b.bound) && !all_better {
        return Verdict::Unresolved;
    }
    Verdict::Within
}

#[derive(Default)]
struct Runs {
    /// (workload, metric) → (unit, kind, values in file order).
    numeric: BTreeMap<(String, String), (String, String, Vec<f64>)>,
    /// (workload, metric, seed) → exact values (counts and digests).
    exact: BTreeMap<(String, String, String), Vec<String>>,
}

fn load(text: &str) -> Runs {
    let mut runs = Runs::default();
    for line in text.lines() {
        let Ok(v) = json::parse(line) else { continue };
        let field = |k: &str| v.get(k).and_then(Value::as_str).map(str::to_string);
        let (Some(w), Some(m), Some(unit), Some(kind)) = (
            field("workload"),
            field("metric"),
            field("unit"),
            field("kind"),
        ) else {
            continue;
        };
        let value = v.get("value");
        if kind == "digest" || unit == "count" || (unit == "ratio" && kind == "layer") {
            let seed = v.get("seed").and_then(Value::as_f64).unwrap_or(-1.0);
            let shown = match value {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::Num(x)) => json::number(*x),
                _ => continue,
            };
            runs.exact
                .entry((w, m, format!("{seed}")))
                .or_default()
                .push(shown);
        } else if let Some(x) = value.and_then(Value::as_f64) {
            runs.numeric
                .entry((w, m))
                .or_insert_with(|| (unit, kind, Vec::new()))
                .2
                .push(x);
        }
    }
    runs
}

fn summary(xs: &[f64]) -> String {
    let (q1, q3) = quartiles(xs);
    format!("{:.6e} [{:.4e}–{:.4e}] n={}", median(xs), q1, q3, xs.len())
}

/// Compare the runs in `base_text` and `cand_text` under `bounds`.
/// Returns the report and whether anything regressed (an end-to-end
/// metric `WORSE`, or a count or digest that changed).
pub fn diff(base_text: &str, cand_text: &str, bounds: &BTreeMap<String, Bound>) -> (String, bool) {
    let (base, cand) = (load(base_text), load(cand_text));
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "{:<6} {:<34} {:<44} {:<44} {:>9}  verdict\n",
        "wl", "metric", "base median [Q1–Q3] n", "cand median [Q1–Q3] n", "change"
    ));
    for ((w, m), (_, kind, bv)) in &base.numeric {
        let Some((_, _, cv)) = cand.numeric.get(&(w.clone(), m.clone())) else {
            out.push_str(&format!("{w:<6} {m:<34} missing from the candidate\n"));
            continue;
        };
        let (mb, mc) = (median(bv), median(cv));
        let change = if mb == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.2}%", (mc - mb) / mb.abs() * 100.0)
        };
        let judged = match (kind.as_str(), bounds.get(m)) {
            ("e2e", Some(&b)) => {
                let v = verdict(bv, cv, b);
                regressed |= v == Verdict::Worse;
                format!("{} (bound {:.1}%)", v.name(), b.bound * 100.0)
            }
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{w:<6} {m:<34} {:<44} {:<44} {change:>9}  {judged}\n",
            summary(bv),
            summary(cv)
        ));
    }
    let mut same = 0;
    for (key @ (w, m, seed), bv) in &base.exact {
        match cand.exact.get(key) {
            Some(cv) if cv.iter().chain(bv).all(|x| *x == bv[0]) => same += 1,
            Some(cv) => {
                regressed = true;
                out.push_str(&format!(
                    "CHANGED {w} {m} seed {seed}: base {:?} cand {:?}\n",
                    dedup(bv),
                    dedup(cv)
                ));
            }
            None => out.push_str(&format!("missing {w} {m} seed {seed} from the candidate\n")),
        }
    }
    out.push_str(&format!("{same} counts and digests identical\n"));
    (out, regressed)
}

fn dedup(xs: &[String]) -> Vec<&str> {
    let mut v: Vec<&str> = xs.iter().map(String::as_str).collect();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: Bound = Bound {
        better: Better::Lower,
        bound: 0.05,
    };

    #[test]
    fn verdicts_follow_the_rules() {
        let base: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&base, &faster, LOWER), Verdict::Improved);
        assert_eq!(verdict(&base, &slower, LOWER), Verdict::Worse);
        assert_eq!(verdict(&base, &base, LOWER), Verdict::Within);
        // Fewer than ten pairs never claims a gain.
        assert_eq!(verdict(&base[..5], &faster[..5], LOWER), Verdict::Within);
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 9.0, 11.0, 6.0, 14.0, 10.0];
        assert_eq!(verdict(&base, &noisy, LOWER), Verdict::Unresolved);
    }

    #[test]
    fn counts_and_digests_compare_exactly() {
        let run = |count: u64, digest: &str| {
            format!(
                "{{\"workload\":\"phi\",\"seed\":1,\"metric\":\"wall_s\",\"value\":1.0,\"unit\":\"s\",\"kind\":\"e2e\"}}\n\
                 {{\"workload\":\"phi\",\"seed\":1,\"metric\":\"core.rmos\",\"value\":{count},\"unit\":\"count\",\"kind\":\"layer\"}}\n\
                 {{\"workload\":\"phi\",\"seed\":1,\"metric\":\"sim_digest\",\"value\":\"{digest}\",\"unit\":\"sha256\",\"kind\":\"digest\"}}\n"
            )
        };
        let bounds = bounds(
            r#"{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.05}]}"#,
        )
        .unwrap();
        let (report, regressed) = diff(&run(7, "ab"), &run(7, "ab"), &bounds);
        assert!(!regressed, "{report}");
        assert!(report.contains("2 counts and digests identical"));
        let (report, regressed) = diff(&run(7, "ab"), &run(8, "ab"), &bounds);
        assert!(
            regressed && report.contains("CHANGED phi core.rmos"),
            "{report}"
        );
        let (_, regressed) = diff(&run(7, "ab"), &run(7, "cd"), &bounds);
        assert!(regressed);
    }
}
