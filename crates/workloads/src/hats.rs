//! Decoupled graph traversal: HATS on täkō (Sec 8.2, Figs 16–17, 22–23).
//!
//! One PageRank iteration on a single thread over a community-structured
//! graph. HATS improves locality by traversing edges in bounded
//! depth-first order so that communities are visited together; the
//! challenge is that BDFS runs poorly on cores (data-dependent branches,
//! pointer chasing). täkō implements HATS as a *programmable stream*:
//!
//! * the application allocates a phantom range big enough to hold every
//!   edge; the core reads it sequentially;
//! * `onMiss` fills each requested line with the next 8 edges in BDFS
//!   order, walking the CSR arrays on the engine (Table 5);
//! * the L2 stride prefetcher triggers `onMiss` for upcoming lines while
//!   the core processes the current ones — the decoupling that hides the
//!   traversal;
//! * the core marks each consumed edge `INVALID` with an atomic exchange;
//!   evictions log any unprocessed edges (`onEviction`/`onWriteback`),
//!   and the core drains the log after flushing the stream, so no edge
//!   is ever lost.
//!
//! Variants: vertex-ordered baseline, software BDFS on the core, and
//! täkō. Fig 16's "ideal" row is täkō on
//! [`EngineConfig::ideal`](tako_sim::config::EngineConfig::ideal).

use tako_core::{EngineCtx, Morph, MorphLevel, TakoSystem};
use tako_cpu::{run_single, CoreEnv, CoreTiming, StepResult, ThreadProgram};
use tako_dataflow::Val;
use tako_graph::Csr;
use tako_mem::addr::Addr;
use tako_sim::config::SystemConfig;
use tako_sim::rng::Rng;
use tako_sim::stats::Counter;

use crate::common::{GraphLayout, RunResult};

/// Sentinel marking a consumed or empty edge slot: the only slot value
/// that is not an edge. Every edge of a graph with fewer than
/// `u32::MAX` vertices packs to another value, edge 0 → 0 to 0.
pub const INVALID_EDGE: u64 = u64::MAX;

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Process edges in CSR (vertex) order on the core.
    VertexOrdered,
    /// The core itself runs the bounded DFS (branches + pointer chasing).
    SoftwareBdfs,
    /// HATS on täkō: engine-filled phantom stream.
    Tako,
}

impl Variant {
    /// All variants in Fig 16's order.
    pub const ALL: [Variant; 3] = [Variant::VertexOrdered, Variant::SoftwareBdfs, Variant::Tako];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::VertexOrdered => "vertex-ordered",
            Variant::SoftwareBdfs => "sw-bdfs",
            Variant::Tako => "tako",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct Params {
    /// Vertices.
    pub vertices: usize,
    /// Edges.
    pub edges: usize,
    /// Communities (membership scattered across the id space).
    pub communities: usize,
    /// Intra-community edge probability.
    pub p_intra: f64,
    /// Contiguous-run length of community members in the id space.
    pub block: usize,
    /// BDFS stack bound.
    pub depth_bound: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            vertices: 1 << 20,
            edges: 8 << 20,
            communities: 256,
            p_intra: 0.95,
            block: 64,
            depth_bound: 32,
            seed: 0x4A75,
        }
    }
}

/// Stream-slot encoding of edge `src → dst`.
fn pack(src: u32, dst: u32) -> u64 {
    (u64::from(src) << 32) | u64::from(dst)
}

fn unpack(e: u64) -> (u32, u32) {
    ((e >> 32) as u32, e as u32)
}

// ----------------------------------------------------------------------
// The HATS Morph
// ----------------------------------------------------------------------

/// Engine-side BDFS traversal state. The stack and per-vertex cursors are
/// Morph-local state (the paper's HATS keeps a small stack on the
/// engine); the CSR arrays are read through timed engine loads — the
/// pointer chasing runs near-cache, off the core.
struct HatsMorph {
    offsets: Addr,
    targets: Addr,
    n: u64,
    depth_bound: usize,
    /// (vertex, next edge index, end edge index, offsets-ready value).
    stack: Vec<(u32, u64, u64, Val)>,
    discovered: Vec<bool>,
    seed: u32,
    exhausted: bool,
    /// Control block in real memory: `+0` done flag, `+8` log count.
    ctrl: Addr,
    log: Addr,
    log_cursor: u64,
    emitted: u64,
}

impl HatsMorph {
    /// Push `v` on the stack, loading its offsets on the engine. The
    /// entry's readiness value is the offsets load — later edge fetches
    /// from `v` depend on it, not on each other (the fabric overlaps
    /// neighbor loads; only the traversal decisions are sequential).
    fn push(&mut self, ctx: &mut EngineCtx<'_>, v: u32, dep: Val) {
        let (lo, _d1) = ctx.load_u64(self.offsets + u64::from(v) * 8, &[dep]);
        let (hi, d2) = ctx.load_u64(self.offsets + (u64::from(v) + 1) * 8, &[dep]);
        // Warm the vertex's first target line while the traversal
        // continues (hides the offsets→targets dependence).
        if lo < hi {
            ctx.prefetch(self.targets + lo * 4);
        }
        self.stack.push((v, lo, hi, d2));
    }

    /// Produce the next edge in BDFS order, or `None` when exhausted.
    /// Returns the edge and the value handle of its target load.
    fn next_edge(&mut self, ctx: &mut EngineCtx<'_>) -> Option<((u32, u32), Val)> {
        loop {
            while self.stack.is_empty() {
                while (self.seed as u64) < self.n && self.discovered[self.seed as usize] {
                    self.seed += 1;
                }
                if self.seed as u64 >= self.n {
                    self.exhausted = true;
                    return None;
                }
                self.discovered[self.seed as usize] = true;
                let s = self.seed;
                let dep = ctx.arg();
                self.push(ctx, s, dep);
            }
            let &(v, cur, end, ready) = self.stack.last().expect("nonempty");
            if cur >= end {
                self.stack.pop();
                continue;
            }
            self.stack.last_mut().expect("nonempty").1 += 1;
            let (dst, d) = ctx.load_u32(self.targets + cur * 4, &[ready]);
            // Crossing into a new target line: warm the next one.
            if cur + 1 < end && ((cur + 1) * 4) % 64 == 0 {
                ctx.prefetch(self.targets + (cur + 1) * 4);
            }
            // Per-edge fabric work: visited check, bound compare, pack.
            let chk = ctx.alu(&[d]);
            let packed = ctx.alu(&[chk]);
            if !self.discovered[dst as usize] && self.stack.len() < self.depth_bound {
                self.discovered[dst as usize] = true;
                self.push(ctx, dst, chk);
            }
            self.emitted += 1;
            ctx.stats().bump(Counter::HatsEdgeEmitted);
            return Some(((v, dst), packed));
        }
    }

    /// Log unprocessed edges of the evicted line (Table 5).
    fn log_unprocessed(&mut self, ctx: &mut EngineCtx<'_>) {
        let (vals, read) = ctx.line_read_all_u64(&[]);
        let mut dep = ctx.alu(&[read]);
        let mut logged = 0u64;
        for &e in &vals {
            if e == INVALID_EDGE {
                continue;
            }
            dep = ctx.store_stream_u64(self.log + (self.log_cursor + logged) * 8, e, &[dep]);
            logged += 1;
        }
        if logged > 0 {
            self.log_cursor += logged;
            ctx.store_u64(self.ctrl + 8, self.log_cursor, &[dep]);
            ctx.stats().add(Counter::HatsEdgeLogged, logged);
        }
    }
}

impl Morph for HatsMorph {
    fn name(&self) -> &str {
        "hats"
    }

    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let mut slots = [INVALID_EDGE; 8];
        let mut deps: Vec<Val> = Vec::with_capacity(8);
        for s in slots.iter_mut() {
            match self.next_edge(ctx) {
                Some(((src, dst), d)) => {
                    *s = pack(src, dst);
                    deps.push(d);
                }
                None => break,
            }
        }
        // The line write waits for all of its edges' target loads.
        let fin = ctx.line_write_all_u64(&slots, &deps);
        if self.exhausted {
            ctx.store_u64(self.ctrl, 1, &[fin]);
        }
    }

    fn on_eviction(&mut self, ctx: &mut EngineCtx<'_>) {
        self.log_unprocessed(ctx);
    }

    fn on_writeback(&mut self, ctx: &mut EngineCtx<'_>) {
        self.log_unprocessed(ctx);
    }

    fn static_instrs(&self) -> u32 {
        94 // the paper's largest Morph (Sec 5.3)
    }

    fn serialize_callbacks(&self) -> bool {
        // The engine's dynamic tag matching runs callbacks concurrently;
        // the traversal state is updated at dispatch (in order), so the
        // memory phases of consecutive onMisses overlap. (The paper's
        // prototype sequentialized onMiss calls and reports lower speedup
        // than hardware HATS for exactly that reason, Sec 8.2.)
        false
    }
}

// ----------------------------------------------------------------------
// Thread programs
// ----------------------------------------------------------------------

const CHUNK: usize = 8;

/// Shared edge-processing step: one PageRank push.
fn process_edge(env: &mut CoreEnv<'_>, layout: &GraphLayout, src: u32, dst: u32) {
    let share = env.load_f64(layout.shares + u64::from(src) * 8);
    let addr = layout.next + u64::from(dst) * 8;
    let old = env.load_f64(addr);
    env.compute(2);
    env.store_f64(addr, old + share);
}

/// Vertex-ordered baseline.
struct VertexOrderedProgram {
    layout: GraphLayout,
    v: u64,
    e: u64,
    e_end: u64,
    src: u32,
}

impl ThreadProgram for VertexOrderedProgram {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        for _ in 0..CHUNK {
            while self.e >= self.e_end {
                if self.v >= self.layout.n {
                    return StepResult::Done;
                }
                let v = self.v;
                self.v += 1;
                self.src = v as u32;
                self.e = env.load_u64(self.layout.offsets + v * 8);
                self.e_end = env.load_u64(self.layout.offsets + (v + 1) * 8);
                env.branch(0x10, true); // outer-loop branch, predictable
            }
            let e = self.e;
            self.e += 1;
            let dst = env.load_u32(self.layout.targets + e * 4);
            env.branch(0x14, self.e < self.e_end); // inner loop
            process_edge(env, &self.layout, self.src, dst);
        }
        StepResult::Running
    }
}

/// Software BDFS: the core runs the traversal itself. Offsets and targets
/// are dependent loads (the address comes from the previous load) and the
/// push/pop decisions are data-dependent branches — the control-flow
/// behaviour Fig 17 measures.
struct SwBdfsProgram {
    layout: GraphLayout,
    stack: Vec<(u32, u64, u64)>,
    discovered: Vec<bool>,
    seed: u32,
    remaining: u64,
    depth_bound: usize,
}

impl SwBdfsProgram {
    fn push(&mut self, env: &mut CoreEnv<'_>, v: u32) {
        let lo = env.load_u64_dep(self.layout.offsets + u64::from(v) * 8);
        let hi = env.load_u64(self.layout.offsets + (u64::from(v) + 1) * 8);
        env.compute(3); // stack bookkeeping
        self.stack.push((v, lo, hi));
    }
}

impl ThreadProgram for SwBdfsProgram {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        for _ in 0..CHUNK {
            if self.remaining == 0 {
                return StepResult::Done;
            }
            loop {
                while self.stack.is_empty() {
                    while (self.seed as u64) < self.layout.n && self.discovered[self.seed as usize]
                    {
                        self.seed += 1;
                        env.compute(2);
                    }
                    if self.seed as u64 >= self.layout.n {
                        return StepResult::Done;
                    }
                    self.discovered[self.seed as usize] = true;
                    let s = self.seed;
                    self.push(env, s);
                }
                let &(v, cur, end) = self.stack.last().expect("nonempty");
                if cur >= end {
                    self.stack.pop();
                    env.branch(0x20, true); // pop decision: data-dependent
                    env.compute(1);
                    continue;
                }
                self.stack.last_mut().expect("nonempty").1 += 1;
                env.branch(0x20, false);
                let dst = env.load_u32(self.layout.targets + cur * 4);
                // Visited check: a dependent load + data-dependent branch.
                let take = !self.discovered[dst as usize] && self.stack.len() < self.depth_bound;
                env.load_u64_dep(self.layout.offsets + u64::from(dst) * 8 / 8 * 8);
                env.branch(0x24, take);
                if take {
                    self.discovered[dst as usize] = true;
                    self.push(env, dst);
                }
                self.remaining -= 1;
                process_edge(env, &self.layout, v, dst);
                break;
            }
        }
        StepResult::Running
    }
}

/// täkō HATS: the core consumes the engine-filled phantom stream.
struct TakoHatsProgram {
    layout: GraphLayout,
    stream: Addr,
    ctrl: Addr,
    log: Addr,
    pos: u64,
    processed: u64,
    state: HatsState,
    log_pos: u64,
    log_count: u64,
    handle: tako_core::MorphHandle,
}

#[derive(PartialEq)]
enum HatsState {
    Streaming,
    Flush,
    DrainLog,
    Done,
}

impl ThreadProgram for TakoHatsProgram {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        match self.state {
            HatsState::Streaming => {
                for _ in 0..CHUNK {
                    let addr = self.stream + self.pos * 8;
                    let e = env.exchange_u64(addr, INVALID_EDGE);
                    env.branch(0x30, e != INVALID_EDGE);
                    if e == INVALID_EDGE {
                        // Stream exhausted (the Morph set the done flag
                        // before filling INVALID slots).
                        let done = env.load_u64(self.ctrl);
                        assert_eq!(done, 1, "INVALID edge before exhaustion");
                        self.state = HatsState::Flush;
                        return StepResult::Running;
                    }
                    self.pos += 1;
                    // Last slot of the line consumed: demote the dead
                    // stream line so it stops polluting the L2.
                    if self.pos.is_multiple_of(8) {
                        env.demote_line(addr);
                    }
                    let (src, dst) = unpack(e);
                    env.compute(2);
                    process_edge(env, &self.layout, src, dst);
                    self.processed += 1;
                }
                StepResult::Running
            }
            HatsState::Flush => {
                // Flush the stream so every unprocessed edge is logged.
                env.flush(self.handle.range());
                self.log_count = env.load_u64(self.ctrl + 8);
                self.state = if self.log_count > 0 {
                    HatsState::DrainLog
                } else {
                    HatsState::Done
                };
                StepResult::Running
            }
            HatsState::DrainLog => {
                for _ in 0..CHUNK {
                    if self.log_pos >= self.log_count {
                        self.state = HatsState::Done;
                        return StepResult::Running;
                    }
                    if self.log_pos.is_multiple_of(4) {
                        env.prefetch_stream(self.log + (self.log_pos + 8) * 8);
                    }
                    // The log holds only edges: onEviction skips empty slots.
                    let e = env.load_stream_u64(self.log + self.log_pos * 8);
                    self.log_pos += 1;
                    let (src, dst) = unpack(e);
                    env.compute(2);
                    process_edge(env, &self.layout, src, dst);
                    self.processed += 1;
                }
                StepResult::Running
            }
            HatsState::Done => StepResult::Done,
        }
    }
}

// ----------------------------------------------------------------------
// Runner
// ----------------------------------------------------------------------

/// Outcome of a HATS run.
#[derive(Debug, Clone)]
pub struct HatsResult {
    /// Timing/energy/statistics.
    pub run: RunResult,
    /// The scatter accumulator (must match the reference iteration).
    pub next: Vec<f64>,
    /// Edges processed by the core (täkō variants).
    pub processed: u64,
    /// Branch mispredictions per edge (Fig 17, middle).
    pub mispredicts_per_edge: f64,
    /// Mean core load latency (Fig 17, right).
    pub mean_load_latency: f64,
}

impl tako_sim::checkpoint::Record for HatsResult {
    fn record(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        self.run.record(w);
        self.next.record(w);
        w.put_u64(self.processed);
        w.put_f64(self.mispredicts_per_edge);
        w.put_f64(self.mean_load_latency);
    }
    fn replay(
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<Self, tako_sim::checkpoint::SnapError> {
        Ok(HatsResult {
            run: RunResult::replay(r)?,
            next: Vec::replay(r)?,
            processed: r.get_u64()?,
            mispredicts_per_edge: r.get_f64()?,
            mean_load_latency: r.get_f64()?,
        })
    }
}

/// Run one variant on `cfg` with a freshly generated community graph.
pub fn run(variant: Variant, params: &Params, cfg: &SystemConfig) -> HatsResult {
    let mut rng = Rng::new(params.seed);
    let g = tako_graph::gen::community_blocked(
        params.vertices,
        params.edges,
        params.communities,
        params.p_intra,
        params.block,
        &mut rng,
    );
    run_on_graph(variant, params, cfg, &g)
}

/// Run one variant on a pre-built graph.
pub fn run_on_graph(variant: Variant, params: &Params, cfg: &SystemConfig, g: &Csr) -> HatsResult {
    let mut sys = TakoSystem::new(cfg.clone());
    let layout = GraphLayout::install(&mut sys, g);
    let m = layout.m;
    let max_steps = 60 * (m + layout.n) + 100_000;
    let core = CoreTiming::new(cfg.core);

    let (cycles, processed) = match variant {
        Variant::VertexOrdered => {
            let mut prog = VertexOrderedProgram {
                layout,
                v: 0,
                e: 0,
                e_end: 0,
                src: 0,
            };
            let c = run_single(0, &mut prog, core, &mut sys, max_steps);
            (c, m)
        }
        Variant::SoftwareBdfs => {
            let mut prog = SwBdfsProgram {
                layout,
                stack: Vec::new(),
                discovered: vec![false; layout.n as usize],
                seed: 0,
                remaining: m,
                depth_bound: params.depth_bound,
            };
            let c = run_single(0, &mut prog, core, &mut sys, max_steps);
            (c, m)
        }
        Variant::Tako => {
            assert!(
                layout.n < u64::from(u32::MAX),
                "vertex ids must not pack to INVALID_EDGE"
            );
            let ctrl = sys.alloc_real(64).base;
            let log = sys.alloc_real(m * 8 + 4096).base;
            let stream_bytes = m * 8 + 64 * 64;
            let handle = sys
                .register_phantom(
                    MorphLevel::Private,
                    stream_bytes,
                    Box::new(HatsMorph {
                        offsets: layout.offsets,
                        targets: layout.targets,
                        n: layout.n,
                        depth_bound: params.depth_bound,
                        stack: Vec::new(),
                        discovered: vec![false; layout.n as usize],
                        seed: 0,
                        exhausted: false,
                        ctrl,
                        log,
                        log_cursor: 0,
                        emitted: 0,
                    }),
                )
                .expect("register HATS morph");
            let mut prog = TakoHatsProgram {
                layout,
                stream: handle.range().base,
                ctrl,
                log,
                pos: 0,
                processed: 0,
                state: HatsState::Streaming,
                log_pos: 0,
                log_count: 0,
                handle,
            };
            let c = run_single(0, &mut prog, core, &mut sys, max_steps);
            // Audit: every emitted edge was processed exactly once, none
            // stranded in the phantom stream.
            debug_assert_eq!(
                prog.processed,
                sys.stats_view().get(Counter::HatsEdgeEmitted),
                "edges stranded in or duplicated from the phantom stream"
            );
            (c, prog.processed)
        }
    };

    let stats = sys.stats_view();
    let mispredicts_per_edge = stats.get(Counter::BranchMispredict) as f64 / m as f64;
    let mean_load_latency = stats.load_latency.mean();
    let next = layout.read_next(&mut sys);
    HatsResult {
        run: RunResult::collect(&sys, cycles),
        next,
        processed,
        mispredicts_per_edge,
        mean_load_latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::with_ideal_engine;
    use tako_graph::pagerank;
    use tako_sim::config::EngineConfig;

    fn small() -> Params {
        Params {
            vertices: 4096,
            edges: 32 * 1024,
            communities: 16,
            p_intra: 0.9,
            block: 16,
            depth_bound: 32,
            seed: 77,
        }
    }

    fn reference_next(p: &Params) -> Vec<f64> {
        let mut rng = Rng::new(p.seed);
        let g = tako_graph::gen::community_blocked(
            p.vertices,
            p.edges,
            p.communities,
            p.p_intra,
            p.block,
            &mut rng,
        );
        let init = vec![1.0 / p.vertices as f64; p.vertices];
        let full = pagerank::iteration(&g, &init);
        // `next` holds only the pushed sums (no base term).
        let base = (1.0 - pagerank::DAMPING) / p.vertices as f64;
        full.into_iter().map(|x| x - base).collect()
    }

    #[test]
    fn all_variants_push_identical_sums() {
        let p = small();
        let expect = reference_next(&p);
        let cfg = SystemConfig::default_16core();
        for (label, v, cfg) in with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg)
        {
            let r = run(v, &p, &cfg);
            let diff = pagerank::max_diff(&r.next, &expect);
            assert!(
                diff < 1e-9,
                "{label}: next mismatch {diff} (processed {})",
                r.processed
            );
        }
    }

    #[test]
    fn edge_zero_to_zero_is_an_edge_not_an_empty_slot() {
        // Edge 0 -> 0 packs to 0 and is the first edge the traversal
        // emits, so it lands in slot 0 of the first stream line.
        let p = small();
        let mut rng = Rng::new(p.seed);
        let g = tako_graph::gen::community_blocked(
            p.vertices,
            p.edges,
            p.communities,
            p.p_intra,
            p.block,
            &mut rng,
        );
        let edges: Vec<(u32, u32)> = std::iter::once((0, 0)).chain(g.edges()).collect();
        let g = Csr::from_edges(p.vertices, &edges);
        assert_eq!(g.neighbors(0)[0], 0);
        let init = vec![1.0 / p.vertices as f64; p.vertices];
        let base = (1.0 - pagerank::DAMPING) / p.vertices as f64;
        let expect: Vec<f64> = pagerank::iteration(&g, &init)
            .into_iter()
            .map(|x| x - base)
            .collect();
        let cfg = SystemConfig::default_16core();
        for (label, v, cfg) in with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg)
        {
            let r = run_on_graph(v, &p, &cfg, &g);
            let diff = pagerank::max_diff(&r.next, &expect);
            assert!(diff < 1e-9, "{label}: next mismatch {diff}");
            assert_eq!(r.processed, edges.len() as u64, "{label}");
        }
    }

    #[test]
    fn tako_processes_every_edge_once() {
        let p = small();
        let r = run(Variant::Tako, &p, &SystemConfig::default_16core());
        assert_eq!(r.processed, p.edges as u64);
    }

    #[test]
    fn decoupling_uses_the_prefetcher() {
        let p = small();
        let r = run(Variant::Tako, &p, &SystemConfig::default_16core());
        assert!(
            r.run.get(Counter::PrefetchUseful) > 0,
            "prefetcher should trigger onMiss ahead of the core"
        );
        assert!(r.run.get(Counter::CbOnMiss) > 0);
    }

    #[test]
    fn sw_bdfs_mispredicts_more_than_vertex_order() {
        let p = small();
        let vo = run(Variant::VertexOrdered, &p, &SystemConfig::default_16core());
        let sb = run(Variant::SoftwareBdfs, &p, &SystemConfig::default_16core());
        assert!(
            sb.mispredicts_per_edge > 1.5 * vo.mispredicts_per_edge,
            "sw-bdfs {} vs vertex-ordered {}",
            sb.mispredicts_per_edge,
            vo.mispredicts_per_edge
        );
    }

    #[test]
    fn tako_beats_software_bdfs_and_tracks_ideal() {
        // The decoupled engine-side traversal must clearly beat the same
        // traversal on the core (the paper's software-BDFS baseline gets
        // "minimal benefits"), and the real fabric must track the ideal
        // engine closely. The vertex-ordered comparison needs the paper's
        // scale (vertex data >> LLC) and runs in the fig16 bench.
        let mut cfg = SystemConfig::default_16core();
        cfg.llc_bank.size_bytes = 16 * 1024; // 256 KB LLC
        cfg.l2.size_bytes = 32 * 1024;
        let p = Params {
            vertices: 32 * 1024,
            edges: 512 * 1024, // degree 16, like uk-2002
            communities: 64,
            p_intra: 0.95,
            block: 8,
            depth_bound: 32,
            seed: 3,
        };
        let sb = run(Variant::SoftwareBdfs, &p, &cfg);
        let tk = run(Variant::Tako, &p, &cfg);
        let mut ideal_cfg = cfg.clone();
        ideal_cfg.engine = EngineConfig::ideal();
        let ideal = run(Variant::Tako, &p, &ideal_cfg);
        assert!(
            (tk.run.cycles as f64) < 0.67 * sb.run.cycles as f64,
            "tako {} vs sw-bdfs {}",
            tk.run.cycles,
            sb.run.cycles
        );
        assert!(
            tk.run.dram_accesses() < sb.run.dram_accesses(),
            "tako {} vs sw-bdfs {} DRAM",
            tk.run.dram_accesses(),
            sb.run.dram_accesses()
        );
        // Fig 22: the 5x5 fabric tracks the ideal engine closely.
        assert!(
            (tk.run.cycles as f64) < 1.15 * ideal.run.cycles as f64,
            "tako {} vs ideal {}",
            tk.run.cycles,
            ideal.run.cycles
        );
    }
}
