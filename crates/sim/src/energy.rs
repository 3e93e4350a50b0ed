//! Dynamic-energy model.
//!
//! The paper reports *dynamic* execution energy using parameters from the
//! literature it cites. The authors' exact numbers are not public, so this
//! model uses representative per-event energies (picojoules) whose
//! *orderings* carry the paper's conclusions: DRAM accesses dominate,
//! followed by LLC and L2 accesses and NoC traffic; an out-of-order core
//! instruction costs an order of magnitude more than an engine PE
//! operation (the fetch/decode/rename overhead the dataflow fabric avoids).
//!
//! Energy is computed post-hoc from the [`Stats`] counters, which keeps
//! the simulator's hot path free of floating-point work. Per-interval
//! energy comes from the same tally: the observer's
//! [`MetricsRecorder`](crate::trace::MetricsRecorder) diffs it at every
//! watchdog epoch.

use crate::stats::{Counter, Stats};

/// Per-event dynamic energies in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Average energy of one core instruction (incl. pipeline overheads).
    pub core_instr_pj: f64,
    /// One L1d access.
    pub l1_access_pj: f64,
    /// One L2 access.
    pub l2_access_pj: f64,
    /// One LLC-bank access.
    pub llc_access_pj: f64,
    /// One full cache-line DRAM access.
    pub dram_access_pj: f64,
    /// One flit traversing one hop (router + link).
    pub noc_flit_hop_pj: f64,
    /// One engine PE operation.
    pub engine_op_pj: f64,
    /// One engine L1d access.
    pub engine_l1_access_pj: f64,
}

impl EnergyModel {
    /// Default parameters (22 nm-class, consistent with the sources the
    /// paper cites: register-file-scale ops are a few pJ, SRAM accesses
    /// tens of pJ growing with capacity, DRAM line accesses ~nJ).
    pub fn default_params() -> Self {
        EnergyModel {
            core_instr_pj: 70.0,
            l1_access_pj: 15.0,
            l2_access_pj: 46.0,
            llc_access_pj: 240.0,
            dram_access_pj: 15_000.0,
            noc_flit_hop_pj: 26.0,
            engine_op_pj: 4.0,
            engine_l1_access_pj: 8.0,
        }
    }

    /// Total dynamic energy for the events in `stats`, in picojoules,
    /// broken down by component.
    pub fn tally(&self, stats: &Stats) -> EnergyBreakdown {
        let g = |c| stats.get(c) as f64;
        let core = g(Counter::CoreInstr) * self.core_instr_pj;
        let l1 = (g(Counter::L1dHit) + g(Counter::L1dMiss)) * self.l1_access_pj;
        let l2 =
            (g(Counter::L2Hit) + g(Counter::L2Miss) + g(Counter::L2Writeback)) * self.l2_access_pj;
        let llc = (g(Counter::LlcHit) + g(Counter::LlcMiss) + g(Counter::LlcWriteback))
            * self.llc_access_pj;
        let dram = (g(Counter::DramRead) + g(Counter::DramWrite)) * self.dram_access_pj;
        let noc = g(Counter::NocFlitHops) * self.noc_flit_hop_pj;
        let engine = g(Counter::EngineInstr) * self.engine_op_pj
            + (g(Counter::EngineL1Hit) + g(Counter::EngineL1Miss)) * self.engine_l1_access_pj;
        EnergyBreakdown {
            core_pj: core,
            l1_pj: l1,
            l2_pj: l2,
            llc_pj: llc,
            dram_pj: dram,
            noc_pj: noc,
            engine_pj: engine,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::default_params()
    }
}

/// Dynamic energy attributed to each component, in picojoules.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core pipelines.
    pub core_pj: f64,
    /// L1 data caches.
    pub l1_pj: f64,
    /// Private L2s.
    pub l2_pj: f64,
    /// LLC banks.
    pub llc_pj: f64,
    /// DRAM.
    pub dram_pj: f64,
    /// Mesh NoC.
    pub noc_pj: f64,
    /// täkō engines (fabric + engine L1d).
    pub engine_pj: f64,
}

impl EnergyBreakdown {
    /// Total dynamic energy in picojoules.
    pub fn total_pj(&self) -> f64 {
        self.core_pj
            + self.l1_pj
            + self.l2_pj
            + self.llc_pj
            + self.dram_pj
            + self.noc_pj
            + self.engine_pj
    }

    /// Total dynamic energy in microjoules (convenience for reports).
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orderings_hold() {
        let e = EnergyModel::default_params();
        assert!(e.dram_access_pj > e.llc_access_pj);
        assert!(e.llc_access_pj > e.l2_access_pj);
        assert!(e.l2_access_pj > e.l1_access_pj);
        assert!(e.core_instr_pj > 10.0 * e.engine_op_pj);
    }

    #[test]
    fn tally_counts_events() {
        let e = EnergyModel::default_params();
        let mut s = Stats::new();
        s.add(Counter::DramRead, 2);
        s.add(Counter::CoreInstr, 10);
        let b = e.tally(&s);
        assert_eq!(b.dram_pj, 2.0 * e.dram_access_pj);
        assert_eq!(b.core_pj, 10.0 * e.core_instr_pj);
        assert_eq!(b.total_pj(), b.dram_pj + b.core_pj);
    }

    #[test]
    fn empty_stats_zero_energy() {
        let e = EnergyModel::default_params();
        let b = e.tally(&Stats::new());
        assert_eq!(b.total_pj(), 0.0);
        assert_eq!(b.total_uj(), 0.0);
    }

    #[test]
    fn writebacks_charged() {
        let e = EnergyModel::default_params();
        let mut s = Stats::new();
        s.add(Counter::L2Writeback, 4);
        assert_eq!(e.tally(&s).l2_pj, 4.0 * e.l2_access_pj);
    }
}
