//! One benchmark run: set-up, the closed measurement loop, the checks,
//! and the report.
//!
//! The loop has one client: units run back to back on one thread, each
//! starting only after the previous one ends. A *pass* runs every unit of
//! the workload once. A run makes a fixed number of passes, set by
//! `--seconds` and the workload alone ([`pass_count`]), and `wall_s` is
//! its fastest pass; `setup_s` is the median of [`SETUP_REPEATS`] set-ups
//! made before the first pass.

use std::time::{Duration, Instant};

use tako_sim::digest::Sha256;
use tako_sim::stats::{Counter, Stats};

use crate::json;
use crate::probes;
use crate::span::Tracer;
use crate::stat::median;
use crate::workload::{Inputs, Workload};

/// Regenerations of the inputs whose median is `setup_s`.
const SETUP_REPEATS: usize = 11;

/// Passes a run of `w` makes for a budget of `seconds`: as many as fit at
/// the reference host's pass time, at least one. Every commit measured
/// with the same command line makes the same number of passes, so the
/// fastest pass is a minimum over equally many samples on both sides of
/// a comparison.
pub fn pass_count(w: Workload, seconds: f64) -> usize {
    ((seconds / w.pass_s()) as usize).max(1)
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget, turned into a pass count by [`pass_count`].
    pub seconds: f64,
    /// Record spans and run the probes (per-layer metrics).
    pub trace: bool,
    /// Where to write the Chrome trace JSON of a traced run.
    pub trace_out: Option<std::path::PathBuf>,
    /// Input and probe size multiplier (1 = benchmark sizes).
    pub scale: f64,
}

/// How a metric is reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// End-to-end: host time or memory a user of the simulator sees.
    E2e,
    /// One layer: an exact count, a span or a probe.
    Layer,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::E2e => "e2e",
            Kind::Layer => "layer",
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// End-to-end or per-layer.
    pub kind: Kind,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, kind: Kind) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        kind,
    }
}

/// The end-to-end metrics `BENCHMARK.json` declares, in report order.
pub const E2E: [&str; 4] = ["wall_s", "sim_accesses_per_s", "setup_s", "peak_rss_mib"];

/// A per-layer count: name, unit, and its value from a pass's counters.
type Count = (&'static str, &'static str, fn(&Stats) -> f64);

/// Per-layer counts, summed over one pass's units. Exact: a change that
/// only speeds up the simulator must leave every one identical.
const COUNTS: [Count; 22] = [
    ("sim.accesses", "count", |s| s.memory_accesses() as f64),
    ("core.l1d_hits", "count", |s| c(s, &[Counter::L1dHit])),
    ("core.l1d_misses", "count", |s| c(s, &[Counter::L1dMiss])),
    ("core.l2_misses", "count", |s| c(s, &[Counter::L2Miss])),
    ("core.llc_misses", "count", |s| c(s, &[Counter::LlcMiss])),
    ("core.writebacks", "count", |s| {
        c(s, &[Counter::L2Writeback, Counter::LlcWriteback])
    }),
    ("core.coherence_invals", "count", |s| {
        c(s, &[Counter::CoherenceInval])
    }),
    ("core.rmos", "count", |s| c(s, &[Counter::CoreRmo])),
    ("core.callbacks", "count", |s| {
        c(
            s,
            &[
                Counter::CbOnMiss,
                Counter::CbOnEviction,
                Counter::CbOnWriteback,
            ],
        )
    }),
    ("core.engine_mem_ops", "count", |s| {
        c(s, &[Counter::EngineMemOp])
    }),
    ("core.cb_buffer_stall_cycles", "count", |s| {
        c(s, &[Counter::CbBufferStallCycles])
    }),
    ("core.rtlb_misses", "count", |s| c(s, &[Counter::RtlbMiss])),
    ("core.flushed_lines", "count", |s| {
        c(s, &[Counter::FlushedLines])
    }),
    ("dataflow.engine_instrs", "count", |s| {
        c(s, &[Counter::EngineInstr])
    }),
    ("cache.mshr_stalls", "count", |s| {
        c(s, &[Counter::MshrStall])
    }),
    ("cache.prefetch_issued", "count", |s| {
        c(s, &[Counter::PrefetchIssued])
    }),
    ("cache.prefetch_useful_ratio", "ratio", |s| {
        let issued = s.get(Counter::PrefetchIssued);
        if issued == 0 {
            0.0
        } else {
            s.get(Counter::PrefetchUseful) as f64 / issued as f64
        }
    }),
    ("mem.dram_reads", "count", |s| c(s, &[Counter::DramRead])),
    ("mem.dram_writes", "count", |s| c(s, &[Counter::DramWrite])),
    ("noc.flit_hops", "count", |s| c(s, &[Counter::NocFlitHops])),
    ("cpu.instrs", "count", |s| c(s, &[Counter::CoreInstr])),
    ("cpu.branch_mispredicts", "count", |s| {
        c(s, &[Counter::BranchMispredict])
    }),
];

fn c(s: &Stats, counters: &[Counter]) -> f64 {
    counters.iter().map(|&k| s.get(k)).sum::<u64>() as f64
}

/// Span metrics of the traced run.
const SPANS: [&str; 5] = [
    "graph.gen_s",
    "graph.reference_s",
    "core.system_build_s",
    "workloads.host_s",
    "workloads.ns_per_access",
];

/// Every per-layer metric a traced run reports in its final line, in
/// order: `sim.cycles`, the counts, the spans, then the probes.
pub fn layer_names() -> Vec<&'static str> {
    let mut names = vec!["sim.cycles"];
    names.extend(COUNTS.iter().map(|(n, _, _)| *n));
    names.extend(SPANS);
    names.extend(probes::names());
    names
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Unit calls made.
    pub attempted: u64,
    /// Unit calls whose output failed a check, ran unhealthy or panicked.
    pub failed: u64,
    /// No unit failed, and regenerated inputs and repeated passes were
    /// identical.
    pub correct: bool,
    /// SHA-256 over every unit's result record, in unit order.
    pub sim_digest: String,
    /// Every metric, end-to-end first.
    pub metrics: Vec<Metric>,
    /// Per-span `(name, id, parent name, duration, self time)` of a
    /// traced run.
    pub spans: Vec<(String, String, String, Duration, Duration)>,
}

struct Pass {
    host: Vec<Duration>,
    cycles: u64,
    stats: Vec<Stats>,
    digest: String,
    failed: u64,
}

impl Pass {
    /// Host seconds of the pass's unit calls.
    fn total_s(&self) -> f64 {
        self.host.iter().sum::<Duration>().as_secs_f64()
    }
}

/// Run `opts` and report. Failure messages go to stderr as they happen.
pub fn run(opts: &Options) -> Report {
    let w = opts.workload;
    let mut tracer = Tracer::new(opts.trace);
    let root = tracer.enter(&format!("tako_perf.{}", w.name()), w.name());

    // ---- set-up: regenerate SETUP_REPEATS times, keep the last ----
    let mut inputs: Option<Inputs> = None;
    let mut digests = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Free the previous copy first: only one copy is ever live, as
        // in a run that sets up once.
        drop(inputs.take());
        let s = tracer.enter("setup", w.name());
        let t = Instant::now();
        let fresh = Inputs::generate(w, opts.seed, opts.scale, &mut tracer);
        setups.push(t.elapsed().as_secs_f64());
        tracer.exit(s);
        digests.push(fresh.digest());
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    let mut correct = digests.iter().all(|d| *d == digests[0]);
    if !correct {
        eprintln!(
            "{}: regenerated inputs differ for seed {}",
            w.name(),
            opts.seed
        );
    }

    // ---- the closed measurement loop: a fixed number of passes ----
    let passes: Vec<Pass> = (0..pass_count(w, opts.seconds))
        .map(|k| {
            let pass = run_pass(&inputs, &mut tracer);
            eprintln!("{} pass {k}: {:.6} s", w.name(), pass.total_s());
            pass
        })
        .collect();

    let first = &passes[0];
    for (k, p) in passes.iter().enumerate().skip(1) {
        if p.digest != first.digest {
            eprintln!("{}: pass {k} result differs from pass 0", w.name());
            correct = false;
        }
    }
    let attempted = (passes.len() * inputs.units.len()) as u64;
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    correct &= failed == 0;

    // `wall_s` is the fastest whole pass, and the per-unit times come from
    // that same pass. The work is deterministic, so interference from
    // other tenants of the host only ever adds time; the fastest pass
    // drops the bursts shorter than the run, which a median over the
    // passes would keep (README.md, Calibration).
    let fastest = passes
        .iter()
        .min_by(|a, b| a.total_s().total_cmp(&b.total_s()))
        .expect("at least one pass");
    let unit_host: Vec<f64> = fastest.host.iter().map(Duration::as_secs_f64).collect();
    let wall = fastest.total_s();
    let per_unit: Vec<f64> = first
        .stats
        .iter()
        .map(|s| s.memory_accesses() as f64)
        .collect();
    let accesses: f64 = per_unit.iter().sum();

    let mut metrics = vec![
        metric("wall_s", wall, "s", Kind::E2e),
        metric("sim_accesses_per_s", accesses / wall, "1/s", Kind::E2e),
        metric("setup_s", median(&setups), "s", Kind::E2e),
        metric("peak_rss_mib", peak_rss_mib(), "MiB", Kind::E2e),
        metric("sim.cycles", first.cycles as f64, "count", Kind::Layer),
    ];
    let mut total = Stats::new();
    for s in &first.stats {
        for k in Counter::ALL {
            total.add(k, s.get(k));
        }
    }
    for (name, unit, f) in COUNTS {
        metrics.push(metric(name, f(&total), unit, Kind::Layer));
    }

    let mut spans = Vec::new();
    if opts.trace {
        // Each set-up step's median over the SETUP_REPEATS set-ups; 0
        // for a step the workload does not take.
        for (name, span) in [
            ("graph.gen_s", "graph.gen"),
            ("graph.reference_s", "graph.reference"),
            ("core.system_build_s", "core.system_build"),
        ] {
            let times: Vec<f64> = tracer
                .spans()
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.duration().as_secs_f64())
                .collect();
            let value = if times.is_empty() {
                0.0
            } else {
                median(&times)
            };
            metrics.push(metric(name, value, "s", Kind::Layer));
        }
        metrics.push(metric("workloads.host_s", wall, "s", Kind::Layer));
        metrics.push(metric(
            "workloads.ns_per_access",
            wall * 1e9 / accesses,
            "ns",
            Kind::Layer,
        ));
        for (i, u) in inputs.units.iter().enumerate() {
            let host = unit_host[i];
            metrics.push(metric(
                format!("workloads.{}.host_s", u.label),
                host,
                "s",
                Kind::Layer,
            ));
            metrics.push(metric(
                format!("workloads.{}.ns_per_access", u.label),
                host * 1e9 / per_unit[i],
                "ns",
                Kind::Layer,
            ));
        }
        let s = tracer.enter("probes", "probes");
        let probed = probes::run_all(opts.scale, &mut tracer);
        tracer.exit(s);
        for (name, ns) in probed {
            metrics.push(metric(name, ns, "ns", Kind::Layer));
        }
        tracer.exit(root);
        let all = tracer.spans();
        spans = all
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(String::new(), |p| all[p].name.clone());
                (
                    s.name.clone(),
                    s.id.clone(),
                    parent,
                    s.duration(),
                    tracer.self_time(i),
                )
            })
            .collect();
        if let Some(path) = &opts.trace_out {
            let text = tracer.chrome_json(&format!("tako_perf {}", w.name()));
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write {}: {e}", path.display());
                correct = false;
            }
        }
    }

    Report {
        workload: w,
        seed: opts.seed,
        attempted,
        failed,
        correct,
        sim_digest: first.digest.clone(),
        metrics,
        spans,
    }
}

fn run_pass(inputs: &Inputs, tracer: &mut Tracer) -> Pass {
    let w = inputs.workload.name();
    let s = tracer.enter("pass", w);
    let mut pass = Pass {
        host: Vec::new(),
        cycles: 0,
        stats: Vec::new(),
        digest: String::new(),
        failed: 0,
    };
    let mut h = Sha256::new();
    for u in &inputs.units {
        let id = format!("{w}/{}", u.label);
        let us = tracer.enter(&format!("workloads.{}", u.label), &id);
        let r = inputs.run(u);
        tracer.exit(us);
        if let Err(e) = &r.verdict {
            eprintln!("{id}: FAILED: {e}");
            pass.failed += 1;
        }
        h.update(u.label.as_bytes());
        h.update(&(r.record.len() as u64).to_le_bytes());
        h.update(&r.record);
        pass.host.push(r.host);
        pass.cycles += r.cycles;
        pass.stats.push(r.stats);
    }
    pass.digest = h.finish_hex();
    tracer.exit(s);
    pass
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 where
/// `/proc/self/status` is unavailable.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

impl Report {
    /// The per-metric JSON lines plus the `sim_digest` line.
    pub fn lines(&self) -> Vec<String> {
        let head = format!(
            "{{\"workload\":{},\"seed\":{}",
            json::string(self.workload.name()),
            self.seed
        );
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{head},\"metric\":{},\"value\":{},\"unit\":{},\"kind\":\"{}\"}}",
                    json::string(&m.name),
                    json::number(m.value),
                    json::string(m.unit),
                    m.kind.name()
                )
            })
            .collect();
        out.push(format!(
            "{head},\"metric\":\"sim_digest\",\"value\":{},\"unit\":\"sha256\",\"kind\":\"digest\"}}",
            json::string(&self.sim_digest)
        ));
        for (name, id, parent, dur, own) in &self.spans {
            out.push(format!(
                "{head},\"span\":{},\"id\":{},\"parent\":{},\"dur_s\":{},\"self_s\":{}}}",
                json::string(name),
                json::string(id),
                json::string(parent),
                json::number(dur.as_secs_f64()),
                json::number(own.as_secs_f64())
            ));
        }
        out
    }

    /// The final result line: `correct`, `attempted`, `failed` and the
    /// metrics `names` (every end-to-end metric untraced, every per-layer
    /// metric traced).
    pub fn summary(&self, names: &[&str]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .filter_map(|&n| self.metrics.iter().find(|m| m.name == n))
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::string(&m.name),
                    json::number(m.value),
                    json::string(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}
