//! Shared workload plumbing: result records, simulated-memory layout,
//! and the ideal-engine row of the figures that plot one.

use tako_core::TakoSystem;
use tako_cpu::MemSystem;
use tako_graph::Csr;
use tako_mem::addr::Addr;
use tako_sim::checkpoint::{Record, SnapError, SnapReader, SnapWriter};
use tako_sim::config::{EngineConfig, SystemConfig};
use tako_sim::stats::{Counter, Stats};
use tako_sim::Cycle;

/// A figure's rows over one workload: each of `programs` on `cfg`,
/// labelled by `label`, then `tako` on `cfg` with the idealized engine
/// ([`EngineConfig::ideal`]), labelled `ideal`. The engine is a machine
/// choice, so the ideal row is a config, not a program variant.
pub fn with_ideal_engine<V: Copy>(
    programs: &[V],
    label: fn(V) -> &'static str,
    tako: V,
    cfg: &SystemConfig,
) -> Vec<(&'static str, V, SystemConfig)> {
    let mut ideal = cfg.clone();
    ideal.engine = EngineConfig::ideal();
    programs
        .iter()
        .map(|&v| (label(v), v, cfg.clone()))
        .chain([("ideal", tako, ideal)])
        .collect()
}

/// The outcome of one simulated workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Cycle the last thread finished.
    pub cycles: Cycle,
    /// Total dynamic energy in microjoules.
    pub energy_uj: f64,
    /// Snapshot of all simulator counters at the end of the run.
    pub stats: Stats,
}

impl RunResult {
    /// Collect the result record from a finished system. Also feeds the
    /// run's access count into the process-wide throughput tally
    /// ([`tako_sim::stats::simulated_accesses`]).
    pub fn collect(sys: &TakoSystem, cycles: Cycle) -> Self {
        let stats = sys.stats_view().clone();
        tako_sim::stats::record_simulated_accesses(stats.memory_accesses());
        RunResult {
            cycles,
            energy_uj: sys.energy().total_uj(),
            stats,
        }
    }

    /// Speedup of this run relative to `baseline` (by cycles).
    pub fn speedup_over(&self, baseline: &RunResult) -> f64 {
        baseline.cycles as f64 / self.cycles as f64
    }

    /// Energy of this run relative to `baseline` (1.0 = equal).
    pub fn energy_ratio_to(&self, baseline: &RunResult) -> f64 {
        self.energy_uj / baseline.energy_uj
    }

    /// Total DRAM accesses.
    pub fn dram_accesses(&self) -> u64 {
        self.stats.dram_accesses()
    }

    /// Shorthand for a counter value.
    pub fn get(&self, c: Counter) -> u64 {
        self.stats.get(c)
    }
}

impl Record for RunResult {
    /// Journaled as a campaign unit: a replayed result feeds the same
    /// report formatting as a computed one, so the round trip must be
    /// bit-exact (f64s use the to_bits/from_bits path in `put_f64`).
    fn record(&self, w: &mut SnapWriter) {
        w.put_u64(self.cycles);
        w.put_f64(self.energy_uj);
        self.stats.record(w);
    }
    fn replay(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(RunResult {
            cycles: r.get_u64()?,
            energy_uj: r.get_f64()?,
            stats: Stats::replay(r)?,
        })
    }
}

/// Where a graph lives in simulated memory.
///
/// Layout: `offsets` (8 B per vertex + 1), `targets` (4 B per edge),
/// `shares` (8 B per vertex: the per-vertex push value,
/// `damping * rank / out_degree`), `next` (8 B per vertex: the
/// accumulator the edge phase scatters into), `ranks` (8 B per vertex).
#[derive(Debug, Clone, Copy)]
pub struct GraphLayout {
    /// Number of vertices.
    pub n: u64,
    /// Number of edges.
    pub m: u64,
    /// CSR offsets array base.
    pub offsets: Addr,
    /// CSR targets array base.
    pub targets: Addr,
    /// Per-vertex push share array base.
    pub shares: Addr,
    /// Scatter-destination accumulator array base.
    pub next: Addr,
    /// Rank vector base.
    pub ranks: Addr,
}

impl GraphLayout {
    /// Write `g` (and the rank/share vectors for one PageRank iteration
    /// from the uniform initial vector) into simulated memory.
    pub fn install(sys: &mut TakoSystem, g: &Csr) -> Self {
        let n = g.num_vertices() as u64;
        let m = g.num_edges() as u64;
        let offsets = sys.alloc_real((n + 1) * 8);
        let targets = sys.alloc_real(m.max(1) * 4);
        let shares = sys.alloc_real(n * 8);
        let next = sys.alloc_real(n * 8);
        let ranks = sys.alloc_real(n * 8);
        let init = 1.0 / n as f64;
        let damping = tako_graph::pagerank::DAMPING;
        let mem = sys.data();
        for (v, off) in g.offsets().iter().enumerate() {
            mem.write_u64(offsets.base + v as u64 * 8, *off);
        }
        for (e, t) in g.targets().iter().enumerate() {
            mem.write_u32(targets.base + e as u64 * 4, *t);
        }
        for v in 0..n {
            mem.write_f64(ranks.base + v * 8, init);
            let deg = g.out_degree(v as u32);
            let share = if deg == 0 {
                0.0
            } else {
                damping * init / deg as f64
            };
            mem.write_f64(shares.base + v * 8, share);
            mem.write_f64(next.base + v * 8, 0.0);
        }
        GraphLayout {
            n,
            m,
            offsets: offsets.base,
            targets: targets.base,
            shares: shares.base,
            next: next.base,
            ranks: ranks.base,
        }
    }

    /// Read back the scatter accumulator (for validation against the
    /// host-side reference iteration).
    pub fn read_next(&self, sys: &mut TakoSystem) -> Vec<f64> {
        let mem = sys.data();
        (0..self.n)
            .map(|v| mem.read_f64(self.next + v * 8))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_sim::config::SystemConfig;
    use tako_sim::rng::Rng;

    #[test]
    fn layout_roundtrips_graph() {
        let mut sys = TakoSystem::new(SystemConfig::default_16core());
        let g = tako_graph::gen::uniform(64, 512, &mut Rng::new(5));
        let l = GraphLayout::install(&mut sys, &g);
        assert_eq!(l.n, 64);
        assert_eq!(l.m, 512);
        let mem = sys.data();
        // Offsets and targets round-trip.
        assert_eq!(mem.read_u64(l.offsets), 0);
        assert_eq!(
            mem.read_u64(l.offsets + 64 * 8),
            512,
            "last offset = edge count"
        );
        let t0 = mem.read_u32(l.targets);
        assert_eq!(t0, g.targets()[0]);
        // Shares consistent with rank/degree.
        let v0deg = g.out_degree(0);
        let s0 = mem.read_f64(l.shares);
        if v0deg > 0 {
            let expect = tako_graph::pagerank::DAMPING * (1.0 / 64.0) / v0deg as f64;
            assert!((s0 - expect).abs() < 1e-12);
        } else {
            assert_eq!(s0, 0.0);
        }
    }

    #[test]
    fn run_result_ratios() {
        let sys = TakoSystem::new(SystemConfig::default_16core());
        let a = RunResult::collect(&sys, 100);
        let b = RunResult::collect(&sys, 50);
        assert_eq!(b.speedup_over(&a), 2.0);
    }
}
