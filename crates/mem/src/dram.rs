//! Off-chip memory timing model.
//!
//! Table 3: four memory controllers, 100-cycle access latency, 11.8 GB/s
//! per controller. Each controller serves an interleaved slice of the
//! line-address space and enforces its bandwidth with a rolling
//! `next_free` bound: a line transfer occupies the controller for
//! `line_bytes / bytes_per_cycle` cycles, and requests that arrive while
//! the controller is busy queue behind it. This captures the
//! bandwidth-bound behaviour that PHI and update batching optimize for.

use tako_sim::config::{Interleave, MemConfig, LINE_BYTES};
use tako_sim::event::{TxnEvent, TxnSink};
use tako_sim::Cycle;

use crate::addr::Addr;

/// The DRAM (or NVM) timing model.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: MemConfig,
    next_free: Vec<Cycle>,
    controllers: Interleave,
    occupancy: Cycle,
}

impl Dram {
    /// A memory system with `cfg.controllers` idle controllers.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.controllers` is zero (`SystemConfig::validate`
    /// rejects it).
    pub fn new(cfg: MemConfig) -> Self {
        Dram {
            next_free: vec![0; cfg.controllers],
            controllers: Interleave::new(cfg.controllers as u64),
            occupancy: cfg.line_occupancy(),
            cfg,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    #[inline]
    fn controller_of(&self, line_addr: Addr) -> usize {
        self.controllers.slot(line_addr / LINE_BYTES)
    }

    /// Simulate a line read issued at `now`; returns the cycle the line
    /// is available. The transfer is charged as [`TxnEvent::DramRead`]
    /// on `sink`.
    pub fn read_line(&mut self, line_addr: Addr, now: Cycle, sink: &mut impl TxnSink) -> Cycle {
        sink.emit(TxnEvent::DramRead);
        self.access(line_addr, now)
    }

    /// Simulate a line write issued at `now`; returns the cycle the write
    /// is absorbed (writes are posted, but they still consume bandwidth).
    /// The transfer is charged as [`TxnEvent::DramWrite`] on `sink`.
    pub fn write_line(&mut self, line_addr: Addr, now: Cycle, sink: &mut impl TxnSink) -> Cycle {
        sink.emit(TxnEvent::DramWrite);
        self.access(line_addr, now)
    }

    fn access(&mut self, line_addr: Addr, now: Cycle) -> Cycle {
        let ctrl = self.controller_of(line_addr);
        let start = now.max(self.next_free[ctrl]);
        self.next_free[ctrl] = start + self.occupancy;
        start + self.cfg.latency
    }

    /// The earliest cycle at which all controllers are idle (used to
    /// account for posted writes at the end of a run).
    pub fn drain_cycle(&self) -> Cycle {
        self.next_free.iter().copied().max().unwrap_or(0)
    }

    /// Queue depth at `now`, in cycles: how far the busiest controller's
    /// committed work extends past the present. Zero when idle; sampled
    /// by the observability layer as the DRAM backlog gauge.
    pub fn backlog(&self, now: Cycle) -> Cycle {
        self.next_free
            .iter()
            .map(|&f| f.saturating_sub(now))
            .max()
            .unwrap_or(0)
    }
}

impl tako_sim::checkpoint::Snapshot for Dram {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("dram");
        w.put_len(self.next_free.len());
        for c in &self.next_free {
            w.put_u64(*c);
        }
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        r.section("dram")?;
        r.get_len_expect("DRAM controllers", self.next_free.len())?;
        for c in &mut self.next_free {
            *c = r.get_u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_sim::stats::{Counter, Stats};

    fn dram() -> (Dram, Stats) {
        (Dram::new(MemConfig::default()), Stats::new())
    }

    #[test]
    fn uncontended_latency() {
        let (mut d, mut s) = dram();
        let done = d.read_line(0, 1000, &mut s);
        assert_eq!(done, 1000 + 100);
        assert_eq!(s.get(Counter::DramRead), 1);
    }

    #[test]
    fn bandwidth_queues_same_controller() {
        let (mut d, mut s) = dram();
        let ctrls = MemConfig::default().controllers as u64;
        // Two back-to-back reads to the same controller: second queues.
        let a = d.read_line(0, 0, &mut s);
        let b = d.read_line(ctrls * LINE_BYTES, 0, &mut s);
        assert_eq!(a, 100);
        assert_eq!(b, 100 + d.occupancy);
    }

    #[test]
    fn different_controllers_parallel() {
        let (mut d, mut s) = dram();
        let a = d.read_line(0, 0, &mut s);
        let b = d.read_line(LINE_BYTES, 0, &mut s); // next controller
        assert_eq!(a, b);
    }

    #[test]
    fn controller_interleave_equals_modulo() {
        for n in [4usize, 9] {
            let d = Dram::new(MemConfig {
                controllers: n,
                ..MemConfig::default()
            });
            for line in (0..64 * n as u64).map(|k| k * LINE_BYTES) {
                assert_eq!(d.controller_of(line), (line / LINE_BYTES) as usize % n);
            }
        }
    }

    #[test]
    fn writes_consume_bandwidth() {
        let (mut d, mut s) = dram();
        d.write_line(0, 0, &mut s);
        assert_eq!(s.get(Counter::DramWrite), 1);
        assert!(d.drain_cycle() > 0);
    }

    #[test]
    fn backlog_tracks_busiest_controller() {
        let (mut d, mut s) = dram();
        assert_eq!(d.backlog(0), 0);
        let ctrls = MemConfig::default().controllers as u64;
        // Three queued reads on controller 0: backlog is its occupancy
        // horizon, and it decays as time passes.
        for i in 0..3 {
            d.read_line(i * ctrls * LINE_BYTES, 0, &mut s);
        }
        let occ = d.occupancy;
        assert_eq!(d.backlog(0), 3 * occ);
        assert_eq!(d.backlog(occ), 2 * occ);
        assert_eq!(d.backlog(10 * occ), 0);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let (mut d, mut s) = dram();
        let ctrls = MemConfig::default().controllers as u64;
        d.read_line(0, 0, &mut s);
        // Long idle gap: no queueing penalty remains.
        let late = d.read_line(ctrls * LINE_BYTES, 10_000, &mut s);
        assert_eq!(late, 10_000 + 100);
    }
}
