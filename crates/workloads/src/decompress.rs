//! In-cache data transformation: lossy base+delta decompression (Sec 3).
//!
//! The motivating example: compute the average of a data set stored in an
//! approximate, compressed format (a per-group base plus a per-value
//! delta). 32 K Zipfian-distributed indices over 16 K values by default
//! (Fig 6). Four variants; Fig 6's fifth row, "ideal", is
//! [`Variant::Tako`] on [`EngineConfig::ideal`](tako_sim::config::EngineConfig::ideal):
//!
//! * [`Variant::Software`] — the core decompresses on every access.
//! * [`Variant::Precompute`] — the core decompresses all values into a
//!   separate array first (vectorized, a full line at a time), then
//!   reads decompressed values; costs memory and decompresses values
//!   that are never accessed.
//! * [`Variant::Ndc`] — a near-data-computing design (à la Livia): every
//!   access offloads a decompression to the L2 engine; no result reuse,
//!   so locality in the private caches is lost (the paper shows NDC
//!   *hurts* here).
//! * [`Variant::Tako`] — the täkō Morph: a phantom range holds
//!   decompressed values; `onMiss` decompresses one line (8 values) on
//!   the engine and the caches memoize it, eliminating redundant work.
//!
//! [`Counter::Decompression`] counts decompressed *values* (Fig 7).

use tako_core::{EngineCtx, Morph, MorphLevel, TakoSystem};
use tako_cpu::{run_single, CoreEnv, CoreTiming, MemSystem, StepResult, ThreadProgram};
use tako_mem::addr::Addr;
use tako_sim::config::SystemConfig;
use tako_sim::rng::{Rng, Zipfian};
use tako_sim::stats::Counter;

use crate::common::RunResult;

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Software baseline: decompress on the core per access.
    Software,
    /// Software pre-computation into a decompressed array.
    Precompute,
    /// Near-data offload per access (no memoization).
    Ndc,
    /// täkō: onMiss decompression memoized in the caches.
    Tako,
}

impl Variant {
    /// All variants, in the order Fig 6 plots them.
    pub const ALL: [Variant; 4] = [
        Variant::Software,
        Variant::Precompute,
        Variant::Ndc,
        Variant::Tako,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Software => "software",
            Variant::Precompute => "precompute",
            Variant::Ndc => "ndc",
            Variant::Tako => "tako",
        }
    }
}

/// Workload parameters (defaults follow Sec 3.3).
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of compressed values.
    pub values: u64,
    /// Number of accesses (Zipfian indices).
    pub accesses: u64,
    /// Zipfian skew.
    pub theta: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            values: 16 * 1024,
            accesses: 32 * 1024,
            theta: 0.99,
            seed: 0xDEC0,
        }
    }
}

/// Values per compression group (one base per group; one group per line
/// of decompressed output).
const GROUP: u64 = 8;

/// The decompression function both host and simulated code use.
fn decompress(base: i64, delta: u8) -> f64 {
    (base + i64::from(delta)) as f64
}

struct DataSet {
    bases: Addr,
    deltas: Addr,
    indices: Addr,
    /// Host-side reference average.
    expect_avg: f64,
}

fn install(sys: &mut TakoSystem, p: Params) -> DataSet {
    let mut rng = Rng::new(p.seed);
    let zipf = Zipfian::new(p.values, p.theta);
    // Ceiling division: at scaled-down sizes `values` need not be a
    // multiple of GROUP, and the top group must still have a base. The
    // delta array is padded to a whole group so group-granular readers
    // (precompute, the täkō Morph) never touch a neighboring
    // allocation; pad bytes decompress to unreferenced values.
    let groups = p.values.div_ceil(GROUP);
    let bases = sys.alloc_real(groups * 8);
    let deltas = sys.alloc_real(groups * GROUP);
    let indices = sys.alloc_real(p.accesses * 4);
    // Generate compressed data.
    let mut base_vals = vec![0i64; groups as usize];
    let mut delta_vals = vec![0u8; p.values as usize];
    for (g, b) in base_vals.iter_mut().enumerate() {
        *b = rng.below(1 << 20) as i64 + g as i64;
    }
    for d in delta_vals.iter_mut() {
        *d = rng.below(256) as u8;
    }
    let mut idx = vec![0u32; p.accesses as usize];
    for i in idx.iter_mut() {
        *i = zipf.sample(&mut rng) as u32;
    }
    let mut sum = 0.0;
    for &i in &idx {
        sum += decompress(
            base_vals[i as usize / GROUP as usize],
            delta_vals[i as usize],
        );
    }
    let mem = sys.data();
    for (g, b) in base_vals.iter().enumerate() {
        mem.write_u64(bases.base + g as u64 * 8, *b as u64);
    }
    for (i, d) in delta_vals.iter().enumerate() {
        mem.write_u8(deltas.base + i as u64, *d);
    }
    for (k, i) in idx.iter().enumerate() {
        mem.write_u32(indices.base + k as u64 * 4, *i);
    }
    DataSet {
        bases: bases.base,
        deltas: deltas.base,
        indices: indices.base,
        expect_avg: sum / p.accesses as f64,
    }
}

// ----------------------------------------------------------------------
// Morphs
// ----------------------------------------------------------------------

/// The täkō Morph: `onMiss` decompresses one line (8 values).
struct DecompressMorph {
    bases: Addr,
    deltas: Addr,
}

impl Morph for DecompressMorph {
    fn name(&self) -> &str {
        "decompress"
    }

    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        // The phantom line holds 8 decompressed f64s = one group.
        let group = ctx.offset() / 64;
        let v = ctx.arg();
        let (base, b) = ctx.load_u64(self.bases + group * 8, &[v]);
        let (_, d) = ctx.load_u64(self.deltas + group * GROUP, &[v]);
        // SIMD add of base + deltas across the line.
        let sum = ctx.alu(&[b, d]);
        let mut vals = [0.0f64; 8];
        for (i, val) in vals.iter_mut().enumerate() {
            let delta = ctx.data().read_u8(self.deltas + group * GROUP + i as u64);
            *val = decompress(base as i64, delta);
        }
        ctx.line_write_all_f64(&vals, &[sum]);
        ctx.stats().add(Counter::Decompression, GROUP);
    }

    fn static_instrs(&self) -> u32 {
        12
    }
}

/// The NDC Morph: one request line per access, decompressing a single
/// value each time (no memoization — every request is a fresh line).
struct NdcMorph {
    bases: Addr,
    deltas: Addr,
    indices: Addr,
}

impl Morph for NdcMorph {
    fn name(&self) -> &str {
        "ndc-decompress"
    }

    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let req = ctx.offset() / 64;
        let v = ctx.arg();
        let (idx, i) = ctx.load_u32(self.indices + req * 4, &[v]);
        let idx = u64::from(idx);
        let (base, b) = ctx.load_u64(self.bases + (idx / GROUP) * 8, &[i]);
        let (_, d) = ctx.load_u64(self.deltas + (idx / GROUP) * GROUP, &[i]);
        let add = ctx.alu(&[b, d]);
        let delta = ctx.data().read_u8(self.deltas + idx);
        ctx.line_write_f64(0, decompress(base as i64, delta), &[add]);
        ctx.stats().add(Counter::Decompression, 1);
    }

    fn static_instrs(&self) -> u32 {
        14
    }
}

// ----------------------------------------------------------------------
// Thread programs
// ----------------------------------------------------------------------

const CHUNK: u64 = 16;

/// Core-side program for all variants; `mode` selects where the value
/// comes from.
struct AvgProgram {
    ds_bases: Addr,
    ds_deltas: Addr,
    indices: Addr,
    accesses: u64,
    pos: u64,
    sum: f64,
    mode: Mode,
    // Precompute state.
    pre_dst: Addr,
    pre_group: u64,
    pre_groups: u64,
    /// Final computed average.
    result: f64,
    done: bool,
}

enum Mode {
    Software,
    /// Reads from the decompressed array at `pre_dst`.
    FromArray,
    /// Reads value `i` from `stream + idx*8` (täkō phantom).
    Phantom(Addr),
    /// Reads request `k` from `stream + k*64` (NDC request lines).
    NdcStream(Addr),
}

impl AvgProgram {
    fn precompute_step(&mut self, env: &mut CoreEnv<'_>) -> bool {
        // Decompress one group (8 values, vectorized) per inner step.
        if self.pre_group >= self.pre_groups {
            return false;
        }
        let g = self.pre_group;
        self.pre_group += 1;
        let base = env.load_u64(self.ds_bases + g * 8) as i64;
        env.load_u64(self.ds_deltas + g * GROUP);
        env.compute(4); // vector unpack + add + convert
        env.stats().add(Counter::Decompression, GROUP);
        for i in 0..GROUP {
            let d = env.data().read_u8(self.ds_deltas + g * GROUP + i);
            let val = decompress(base, d);
            // One vector store per line (8 f64 = 64 B).
            if i == 0 {
                env.store_f64(self.pre_dst + g * GROUP * 8, val);
            } else {
                env.data()
                    .write_f64(self.pre_dst + (g * GROUP + i) * 8, val);
            }
        }
        true
    }
}

impl ThreadProgram for AvgProgram {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        if self.done {
            return StepResult::Done;
        }
        if matches!(self.mode, Mode::FromArray) && self.precompute_step(env) {
            return StepResult::Running;
        }
        for _ in 0..CHUNK {
            if self.pos >= self.accesses {
                self.result = self.sum / self.accesses as f64;
                self.done = true;
                return StepResult::Done;
            }
            let k = self.pos;
            self.pos += 1;
            // The index array streams once: non-temporal loads with
            // software prefetch ahead of the scan.
            if k.is_multiple_of(16) {
                env.prefetch_stream(self.indices + (k + 32) * 4);
            }
            let idx = u64::from(env.load_stream_u32(self.indices + k * 4));
            let val = match &self.mode {
                Mode::Software => {
                    let base = env.load_u64(self.ds_bases + (idx / GROUP) * 8) as i64;
                    env.load_u64(self.ds_deltas + idx); // delta byte's line
                    env.compute(6); // unpack, add, convert
                    env.stats().add(Counter::Decompression, 1);
                    let d = env.data().read_u8(self.ds_deltas + idx);
                    decompress(base, d)
                }
                Mode::FromArray => env.load_f64(self.pre_dst + idx * 8),
                Mode::Phantom(base) => env.load_f64(base + idx * 8),
                Mode::NdcStream(base) => env.load_f64(base + k * 64),
            };
            self.sum += val;
            env.compute(2); // accumulate + loop
        }
        StepResult::Running
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// The functional and timing outcome of one decompression run.
#[derive(Debug, Clone)]
pub struct DecompressResult {
    /// Timing/energy/statistics.
    pub run: RunResult,
    /// The computed average (must equal the host reference).
    pub average: f64,
    /// The host reference average.
    pub expected: f64,
    /// Decompressed values (Fig 7).
    pub decompressions: u64,
}

impl tako_sim::checkpoint::Record for DecompressResult {
    fn record(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        self.run.record(w);
        w.put_f64(self.average);
        w.put_f64(self.expected);
        w.put_u64(self.decompressions);
    }
    fn replay(
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<Self, tako_sim::checkpoint::SnapError> {
        Ok(DecompressResult {
            run: RunResult::replay(r)?,
            average: r.get_f64()?,
            expected: r.get_f64()?,
            decompressions: r.get_u64()?,
        })
    }
}

/// Run one variant with `params` on a system configured by `cfg`.
pub fn run(variant: Variant, params: Params, cfg: &SystemConfig) -> DecompressResult {
    let mut cfg = cfg.clone();
    if variant == Variant::Ndc {
        // NDC offload requests are engine dispatches, not loads — they
        // do not flow through (or train) the L2 stride prefetcher. The
        // phantom-line encoding of the requests is a simulation artifact.
        cfg.prefetch.enabled = false;
    }
    let mut sys = TakoSystem::new(cfg.clone());
    let ds = install(&mut sys, params);

    let mut prog = AvgProgram {
        ds_bases: ds.bases,
        ds_deltas: ds.deltas,
        indices: ds.indices,
        accesses: params.accesses,
        pos: 0,
        sum: 0.0,
        mode: Mode::Software,
        pre_dst: 0,
        pre_group: 0,
        pre_groups: 0,
        result: 0.0,
        done: false,
    };
    match variant {
        Variant::Software => {}
        Variant::Precompute => {
            // Whole groups (see `install`): the tail group decompresses
            // pad deltas into dst slots no access index reaches.
            let groups = params.values.div_ceil(GROUP);
            let dst = sys.alloc_real(groups * GROUP * 8);
            prog.pre_dst = dst.base;
            prog.pre_groups = groups;
            prog.mode = Mode::FromArray;
        }
        Variant::Ndc => {
            let h = sys
                .register_phantom(
                    MorphLevel::Private,
                    params.accesses * 64,
                    Box::new(NdcMorph {
                        bases: ds.bases,
                        deltas: ds.deltas,
                        indices: ds.indices,
                    }),
                )
                .expect("register NDC morph");
            prog.mode = Mode::NdcStream(h.range().base);
        }
        Variant::Tako => {
            let h = sys
                .register_phantom(
                    MorphLevel::Private,
                    params.values * 8,
                    Box::new(DecompressMorph {
                        bases: ds.bases,
                        deltas: ds.deltas,
                    }),
                )
                .expect("register täkō morph");
            prog.mode = Mode::Phantom(h.range().base);
        }
    }

    let max_steps = 40 * params.accesses.max(params.values) + 10_000;
    let cycles = run_single(0, &mut prog, CoreTiming::new(cfg.core), &mut sys, max_steps);
    let decompressions = sys.stats_view().get(Counter::Decompression);
    DecompressResult {
        run: RunResult::collect(&sys, cycles),
        average: prog.result,
        expected: ds.expect_avg,
        decompressions,
    }
}

/// Convenience: run with a fresh default system per variant.
pub fn run_default(variant: Variant, params: Params) -> DecompressResult {
    run(variant, params, &SystemConfig::default_16core())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::with_ideal_engine;
    use tako_sim::config::EngineConfig;

    fn small() -> Params {
        Params {
            values: 512,
            accesses: 1024,
            theta: 0.9,
            seed: 7,
        }
    }

    #[test]
    fn all_variants_compute_reference_average() {
        let cfg = SystemConfig::default_16core();
        for (label, v, cfg) in with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg)
        {
            let r = run(v, small(), &cfg);
            assert!(
                (r.average - r.expected).abs() < 1e-9,
                "{}: avg {} != expected {}",
                label,
                r.average,
                r.expected
            );
        }
    }

    #[test]
    fn tako_decompresses_less_than_software() {
        let sw = run_default(Variant::Software, small());
        let tk = run_default(Variant::Tako, small());
        assert_eq!(sw.decompressions, 1024);
        assert!(
            tk.decompressions < sw.decompressions,
            "täkō should memoize: {} vs {}",
            tk.decompressions,
            sw.decompressions
        );
    }

    #[test]
    fn tako_beats_software_and_ndc() {
        let p = Params {
            values: 4096,
            accesses: 8192,
            theta: 0.99,
            seed: 3,
        };
        let sw = run_default(Variant::Software, p);
        let tk = run_default(Variant::Tako, p);
        let ndc = run_default(Variant::Ndc, p);
        assert!(
            tk.run.cycles < sw.run.cycles,
            "täkō {} vs software {}",
            tk.run.cycles,
            sw.run.cycles
        );
        assert!(
            tk.run.cycles < ndc.run.cycles,
            "täkō {} vs ndc {}",
            tk.run.cycles,
            ndc.run.cycles
        );
    }

    #[test]
    fn ideal_at_least_as_fast_as_tako() {
        let p = small();
        let tk = run_default(Variant::Tako, p);
        let mut cfg = SystemConfig::default_16core();
        cfg.engine = EngineConfig::ideal();
        let ideal = run(Variant::Tako, p, &cfg);
        assert!(ideal.run.cycles <= tk.run.cycles);
    }
}
