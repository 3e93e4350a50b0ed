//! The four workloads: their inputs, their units, the host references
//! and the checks that decide whether a unit's output is correct.
//!
//! A *unit* is one call into a public workload entry point
//! (`phi::run_on_graph`, `hats::run_on_graph`, `nvm::run`, `soa::run`).
//! Every simulation starts with empty caches: the benchmark measures
//! cold-start runs and takes no sampled warm-up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use tako_core::TakoSystem;
use tako_graph::{pagerank, Csr};
use tako_sim::checkpoint::{Record, SnapWriter};
use tako_sim::config::SystemConfig;
use tako_sim::digest::Sha256;
use tako_sim::rng::Rng;
use tako_sim::stats::{Counter, Stats};
use tako_workloads::{hats, nvm, phi, soa, RunResult};

use crate::span::Tracer;

/// Tolerance of the rank and push-sum checks against the host reference.
pub const RANK_TOLERANCE: f64 = 1e-9;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// PHI PageRank on 16 tiles: shared-LLC RMOs, SHARED Morph, NoC.
    Phi,
    /// Single-tile HATS: PRIVATE Morph callbacks, prefetcher, branches.
    Hats,
    /// NVM transactions: stores, dirty evictions, `onWriteback`.
    Nvm,
    /// AoS→SoA scans: the miss/fill walk, MSHRs and DRAM.
    Soa,
}

impl Workload {
    /// Every workload, in the order `--all` runs them.
    pub const ALL: [Workload; 4] = [Workload::Phi, Workload::Hats, Workload::Nvm, Workload::Soa];

    /// Command-line and report name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Phi => "phi",
            Workload::Hats => "hats",
            Workload::Nvm => "nvm",
            Workload::Soa => "soa",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Host seconds of one pass at `--scale 1` on the reference host
    /// (README.md, Calibration). A run makes `seconds / pass_s` passes: the
    /// count depends only on the command line, never on how fast the code
    /// under test happens to be.
    pub fn pass_s(self) -> f64 {
        match self {
            Workload::Phi => 3.0,
            Workload::Hats => 1.9,
            Workload::Nvm => 0.5,
            Workload::Soa => 0.5,
        }
    }
}

// ----------------------------------------------------------------------
// Sizes at `--scale 1`
// ----------------------------------------------------------------------

// phi and hats run a quarter of fig13's and fig16's inputs; `--scale 4`
// runs the figures' own inputs and caches. README.md compares the two
// sizes' per-layer counts.

/// Fig13's input at a quarter size, under its capacity rule: 2 MB of
/// vertex data against a 512 KB LLC (4 : 1).
const PHI_VERTICES: usize = 256 * 1024;
const PHI_EDGES: usize = 1 << 20;
/// PHI's in-place threshold: above the 8 updates a line can buffer, so
/// every evicted line is binned. PHI's in-place path loses updates when
/// a line is written back more than once (README.md, "Known divergences").
const PHI_THRESHOLD: u32 = 9;
/// Fig16's input at a quarter size on fig16's caches; the fig22/fig23
/// and rTLB sweeps run this input.
const HATS_VERTICES: usize = 128 * 1024;
const HATS_EDGES: usize = 1 << 20;
const HATS_COMMUNITIES: usize = 512;
/// Bytes written per NVM transaction size.
const NVM_BYTES_PER_SIZE: u64 = 4 << 20;
/// Transaction sizes: below, at and above the 128 KB L2.
const NVM_TXN_KB: [u64; 3] = [4, 32, 128];
/// 4 MB of AoS against a 2 MB LLC (the ablation's 16 MB : 8 MB).
const SOA_ELEMENTS: u64 = 64 * 1024;
const SOA_PASSES: u64 = 16;
const SOA_LLC_BANK: u64 = 128 * 1024;

fn scaled(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(1)
}

/// The PHI system: 16 tiles with the fig13 capacity rule (vertex data :
/// LLC = 4:1, banks clamped to 16 KB..512 KB).
fn phi_config(vertices: usize) -> SystemConfig {
    let mut cfg = SystemConfig::with_tiles(16);
    cfg.llc_bank.size_bytes = (vertices as u64 * 8 / 4 / 16)
        .next_power_of_two()
        .clamp(16 * 1024, 512 * 1024);
    cfg
}

/// The HATS system of fig16: 64 KB L2 and 64 KB LLC banks.
fn hats_config() -> SystemConfig {
    let mut cfg = SystemConfig::default_16core();
    cfg.llc_bank.size_bytes = 64 * 1024;
    cfg.l2.size_bytes = 64 * 1024;
    cfg
}

/// The SoA system: the default tile with 128 KB LLC banks.
fn soa_config() -> SystemConfig {
    let mut cfg = SystemConfig::default_16core();
    cfg.llc_bank.size_bytes = SOA_LLC_BANK;
    cfg
}

// ----------------------------------------------------------------------
// Units and inputs
// ----------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Spec {
    Phi(phi::Variant),
    Hats(hats::Variant),
    Nvm(nvm::Variant, nvm::Params),
    /// The SoA variant and whether trrîp's distant engine inserts are on.
    Soa(soa::Variant, bool),
}

/// One call into a workload entry point.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Report label, unique within the workload.
    pub label: String,
    spec: Spec,
}

/// Everything a workload's units read: generated once per run from the
/// seed (the same seed gives the same inputs), plus the host reference.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The units, in the order a pass runs them.
    pub units: Vec<Unit>,
    graph: Option<Csr>,
    /// PHI: reference ranks; HATS: reference push sums (`next`).
    reference: Vec<f64>,
    phi: phi::Params,
    hats: hats::Params,
    soa: soa::Params,
    cfg: SystemConfig,
}

impl Inputs {
    /// Generate `workload`'s inputs from `seed` at `scale` (1 = the
    /// benchmark's sizes; smaller scales are for tests), with a span
    /// around each step: `graph.gen`, `graph.reference` (phi and hats)
    /// and `core.system_build`.
    pub fn generate(workload: Workload, seed: u64, scale: f64, tracer: &mut Tracer) -> Inputs {
        let phi = phi::Params {
            vertices: scaled(PHI_VERTICES, scale),
            edges: scaled(PHI_EDGES, scale),
            threshold: PHI_THRESHOLD,
            seed,
            ..Default::default()
        };
        let hats = hats::Params {
            vertices: scaled(HATS_VERTICES, scale),
            edges: scaled(HATS_EDGES, scale),
            communities: scaled(HATS_COMMUNITIES, scale),
            block: 16,
            seed,
            ..Default::default()
        };
        let soa = soa::Params {
            elements: scaled(SOA_ELEMENTS as usize, scale) as u64,
            field: 2,
            passes: SOA_PASSES,
            seed,
        };
        let (cfg, units) = match workload {
            Workload::Phi => (
                phi_config(phi.vertices),
                [
                    phi::Variant::Software,
                    phi::Variant::UpdateBatching,
                    phi::Variant::Tako,
                ]
                .map(|v| unit(v.label(), Spec::Phi(v)))
                .to_vec(),
            ),
            Workload::Hats => (
                hats_config(),
                [
                    hats::Variant::VertexOrdered,
                    hats::Variant::SoftwareBdfs,
                    hats::Variant::Tako,
                ]
                .map(|v| unit(v.label(), Spec::Hats(v)))
                .to_vec(),
            ),
            Workload::Nvm => {
                let mut units = Vec::new();
                for kb in NVM_TXN_KB {
                    let txn_bytes = kb * 1024;
                    let params = nvm::Params {
                        txn_bytes,
                        txns: (scaled(NVM_BYTES_PER_SIZE as usize, scale) as u64 / txn_bytes)
                            .max(1),
                        seed,
                    };
                    for v in [nvm::Variant::Journaling, nvm::Variant::Tako] {
                        units.push(unit(&format!("{}-{kb}k", v.label()), Spec::Nvm(v, params)));
                    }
                }
                (SystemConfig::default_16core(), units)
            }
            Workload::Soa => (
                soa_config(),
                vec![
                    unit("aos-baseline", Spec::Soa(soa::Variant::Aos, true)),
                    unit("tako-trrip", Spec::Soa(soa::Variant::Tako, true)),
                    unit("tako-no-trrip", Spec::Soa(soa::Variant::Tako, false)),
                ],
            ),
        };

        let mut graph = None;
        let mut reference = Vec::new();
        if matches!(workload, Workload::Phi | Workload::Hats) {
            let s = tracer.enter("graph.gen", workload.name());
            let mut rng = Rng::new(seed);
            let g = if workload == Workload::Phi {
                tako_graph::gen::power_law(phi.vertices, phi.edges, phi.theta, &mut rng)
            } else {
                let g = tako_graph::gen::community_blocked(
                    hats.vertices,
                    hats.edges,
                    hats.communities,
                    hats.p_intra,
                    hats.block,
                    &mut rng,
                );
                // HATS packs an edge as `src << 32 | dst` and reads 0 as
                // an empty stream slot, so it drops an edge 0 → 0 (about
                // one seed in 40 draws one; README.md, "Known
                // divergences"). Leave that edge out of the input.
                if g.neighbors(0).contains(&0) {
                    let edges: Vec<(u32, u32)> = g.edges().filter(|&e| e != (0, 0)).collect();
                    Csr::from_edges(g.num_vertices(), &edges)
                } else {
                    g
                }
            };
            tracer.exit(s);

            let s = tracer.enter("graph.reference", workload.name());
            let n = g.num_vertices();
            reference = pagerank::iteration(&g, &vec![1.0 / n as f64; n]);
            if workload == Workload::Hats {
                // `next` holds only the pushed sums, not the base term.
                let base = (1.0 - pagerank::DAMPING) / n as f64;
                reference.iter_mut().for_each(|x| *x -= base);
            }
            tracer.exit(s);
            graph = Some(g);
        }

        let inputs = Inputs {
            workload,
            units,
            graph,
            reference,
            phi,
            hats,
            soa,
            cfg,
        };
        let s = tracer.enter("core.system_build", workload.name());
        for u in &inputs.units {
            let sys = TakoSystem::try_new(inputs.unit_config(u)).unwrap_or_else(|e| {
                panic!("{}: invalid configuration: {e}", u.label);
            });
            std::hint::black_box(&sys);
        }
        tracer.exit(s);
        inputs
    }

    /// SHA-256 over everything a unit reads: the graph, the reference and
    /// the unit plan. Regenerating from the same seed must reproduce it.
    pub fn digest(&self) -> String {
        let mut h = Sha256::new();
        if let Some(g) = &self.graph {
            for off in g.offsets() {
                h.update(&off.to_le_bytes());
            }
            for t in g.targets() {
                h.update(&t.to_le_bytes());
            }
        }
        for x in &self.reference {
            h.update(&x.to_bits().to_le_bytes());
        }
        for u in &self.units {
            h.update(format!("{}={:?};", u.label, u.spec).as_bytes());
        }
        h.update(format!("{:?}{:?}{:?}", self.phi, self.hats, self.soa).as_bytes());
        h.finish_hex()
    }

    fn unit_config(&self, u: &Unit) -> SystemConfig {
        let mut cfg = self.cfg.clone();
        if let Spec::Soa(_, trrip) = u.spec {
            cfg.engine.trrip = trrip;
        }
        cfg
    }

    /// Run `u` once: the timed call into the workload entry point,
    /// isolated with `catch_unwind`, then the output checks (untimed).
    pub fn run(&self, u: &Unit) -> UnitRun {
        let cfg = self.unit_config(u);
        let graph = self.graph.as_ref();
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| match u.spec {
            Spec::Phi(v) => Output::Phi(phi::run_on_graph(
                v,
                &self.phi,
                &cfg,
                graph.expect("phi inputs hold a graph"),
            )),
            Spec::Hats(v) => Output::Hats(hats::run_on_graph(
                v,
                &self.hats,
                &cfg,
                graph.expect("hats inputs hold a graph"),
            )),
            Spec::Nvm(v, p) => Output::Nvm(nvm::run(v, p, &cfg)),
            Spec::Soa(v, _) => Output::Soa(soa::run(v, self.soa, &cfg)),
        }));
        let host = t.elapsed();
        match out {
            Ok(out) => {
                let run = out.run();
                let verdict = self.check(&out).and_then(|()| check_health(&run.stats));
                UnitRun {
                    host,
                    record: out.record_bytes(),
                    cycles: run.cycles,
                    stats: run.stats.clone(),
                    verdict,
                }
            }
            Err(payload) => UnitRun {
                host,
                record: Vec::new(),
                cycles: 0,
                stats: Stats::new(),
                verdict: Err(format!("panicked: {}", panic_message(&*payload))),
            },
        }
    }

    fn check(&self, out: &Output) -> Result<(), String> {
        match out {
            Output::Phi(r) => check_ranks(&r.ranks, &self.reference),
            Output::Hats(r) => check_ranks(&r.next, &self.reference),
            Output::Nvm(r) => check_nvm(r.data_correct),
            Output::Soa(r) => check_soa(r.sum, r.expected),
        }
    }
}

fn unit(label: &str, spec: Spec) -> Unit {
    Unit {
        label: label.to_string(),
        spec,
    }
}

enum Output {
    Phi(phi::PhiResult),
    Hats(hats::HatsResult),
    Nvm(nvm::NvmResult),
    Soa(soa::SoaResult),
}

impl Output {
    fn run(&self) -> &RunResult {
        match self {
            Output::Phi(r) => &r.run,
            Output::Hats(r) => &r.run,
            Output::Nvm(r) => &r.run,
            Output::Soa(r) => &r.run,
        }
    }

    /// The unit's full result record (`tako_sim::checkpoint::Record`):
    /// cycles, energy, every counter and the functional output.
    fn record_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        match self {
            Output::Phi(r) => r.record(&mut w),
            Output::Hats(r) => r.record(&mut w),
            Output::Nvm(r) => r.record(&mut w),
            Output::Soa(r) => r.record(&mut w),
        }
        w.into_bytes()
    }
}

/// The outcome of one unit call.
pub struct UnitRun {
    /// Host time of the entry-point call alone.
    pub host: Duration,
    /// The result record (empty if the call panicked).
    pub record: Vec<u8>,
    /// Simulated cycles of the run (zero if the call panicked).
    pub cycles: u64,
    /// The run's simulator counters (zero if the call panicked).
    pub stats: Stats,
    /// `Ok` when the output matched the reference and the run was healthy.
    pub verdict: Result<(), String>,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

// ----------------------------------------------------------------------
// Output checks
// ----------------------------------------------------------------------

/// A rank (or push-sum) vector against its host reference: same length,
/// every value finite, `max_diff < RANK_TOLERANCE`.
pub fn check_ranks(got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{} values, reference has {}",
            got.len(),
            want.len()
        ));
    }
    if let Some(i) = got.iter().position(|x| !x.is_finite()) {
        return Err(format!("value {i} is {}", got[i]));
    }
    let diff = pagerank::max_diff(got, want);
    if diff < RANK_TOLERANCE {
        Ok(())
    } else {
        Err(format!("max_diff {diff:e} against the host reference"))
    }
}

/// The NVM home region holds exactly the committed data.
pub fn check_nvm(data_correct: bool) -> Result<(), String> {
    if data_correct {
        Ok(())
    } else {
        Err("NVM image differs from the committed data".to_string())
    }
}

/// The SoA column checksum equals the host reference.
pub fn check_soa(sum: u64, expected: u64) -> Result<(), String> {
    if sum == expected {
        Ok(())
    } else {
        Err(format!("checksum {sum} != expected {expected}"))
    }
}

/// Counters that mark an unhealthy run even when the output is right.
pub const HEALTH_COUNTERS: [Counter; 4] = [
    Counter::MorphQuarantined,
    Counter::InvariantViolation,
    Counter::WatchdogStallEvents,
    Counter::CbDegraded,
];

/// Every [`HEALTH_COUNTERS`] entry is zero.
pub fn check_health(stats: &Stats) -> Result<(), String> {
    match HEALTH_COUNTERS.iter().find(|&&c| stats.get(c) != 0) {
        Some(&c) => Err(format!("{} = {}", c.name(), stats.get(c))),
        None => Ok(()),
    }
}
