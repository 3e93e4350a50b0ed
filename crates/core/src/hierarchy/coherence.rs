//! Coherence stages: directory-driven actions on private caches.
//!
//! Every path that pulls a line out of a tile's private caches — LLC
//! evictions invalidating inclusive copies, write-hit sharer
//! invalidations, upgrades, RMOs, flushes, CLDEMOTE — funnels through
//! [`Hierarchy::merge_private_dirty`], so the L1-before-L2 order and the
//! dirty-bit merge exist in exactly one place. Callers that owe a
//! coherence-invalidation charge emit [`TxnEvent::CoherenceInval`]
//! themselves: the charge belongs to protocol traffic (demand-side
//! invalidations), not to every private-copy removal (flush walks and
//! silent merges are free).

use tako_mem::addr::{is_phantom, Addr, AddrRange};
use tako_noc::Payload;
use tako_sim::event::{TxnEvent, TxnSink};
use tako_sim::{Cycle, TileId};

use super::Hierarchy;

/// How much of a tile's private hierarchy a merge covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum PrivateScope {
    /// Only the L1d (the L2 copy is handled separately by the caller,
    /// e.g. it is itself the eviction victim).
    L1Only,
    /// Both the L1d and the L2 (full private-copy removal).
    L1AndL2,
}

impl Hierarchy {
    /// Invalidate `tile`'s private copies of `line` (L1d first, then —
    /// for [`PrivateScope::L1AndL2`] — the L2), returning whether any
    /// removed copy was dirty. The single definition of the
    /// "merge the private dirty state" stage.
    pub(super) fn merge_private_dirty(
        &mut self,
        tile: TileId,
        line: Addr,
        scope: PrivateScope,
    ) -> bool {
        let mut dirty = false;
        if let Some(ev) = self.tiles[tile].l1d.invalidate(line) {
            dirty |= ev.dirty;
        }
        if scope == PrivateScope::L1AndL2 {
            if let Some(ev) = self.tiles[tile].l2.invalidate(line) {
                dirty |= ev.dirty;
            }
        }
        dirty
    }

    /// Dirty data for a hit line lives in owner `o`'s L2: fetch it
    /// through the bank and downgrade the owner to a clean sharer.
    /// Returns the completion cycle of the three-leg transfer.
    pub(super) fn downgrade_owner(&mut self, bank: usize, o: usize, line: Addr, t: Cycle) -> Cycle {
        let t = t
            + self.mesh.transfer(bank, o, Payload::Control, &mut self.bus)
            + self.cfg.l2.data_latency
            + self.mesh.transfer(o, bank, Payload::Line, &mut self.bus);
        if let Some(mut le) = self.tiles[o].l2.probe_mut(line) {
            le.set_dirty(false);
            le.set_exclusive(false);
        }
        if let Some(mut le) = self.tiles[o].l1d.probe_mut(line) {
            le.set_dirty(false);
        }
        // A concurrent callback may have evicted the line between the
        // probe and here; skip the directory update rather than assume
        // presence.
        if let Some(mut e) = self.llc[bank].probe_mut(line) {
            e.set_dirty(true);
            e.set_owner(None);
        }
        t
    }

    /// Obtain write permission for a line held shared (upgrade): a
    /// control round-trip to the home bank that invalidates other copies.
    pub(super) fn upgrade(&mut self, tile: TileId, line: Addr, t: Cycle) -> Cycle {
        let bank = self.mesh.bank_of_line(line);
        let mut t = t + self
            .mesh
            .transfer(tile, bank, Payload::Control, &mut self.bus);
        t = self.bank_start(bank, t);
        let sharers = self.llc[bank]
            .probe(line)
            .map(|e| e.sharers() & !(1u64 << tile))
            .unwrap_or(0);
        let mut inval = 0;
        for s in Self::sharer_tiles(sharers) {
            self.bus.emit(TxnEvent::CoherenceInval);
            self.merge_private_dirty(s, line, PrivateScope::L1AndL2);
            inval = inval.max(self.mesh.transfer(bank, s, Payload::Control, &mut self.bus));
        }
        if let Some(mut e) = self.llc[bank].probe_mut(line) {
            e.set_sharers(1 << tile);
            e.set_owner(Some(tile as u8));
        }
        t + inval
            + self
                .mesh
                .transfer(bank, tile, Payload::Control, &mut self.bus)
    }

    /// Invalidate every cached copy of `range` at every level of every
    /// tile (used when (un)registering a Morph: Sec 4.1's range flush).
    /// Dirty real lines write back; no callbacks run (the range has no
    /// Morph at this moment).
    pub fn invalidate_range_everywhere(&mut self, range: AddrRange, now: Cycle) {
        for tile in 0..self.tiles.len() {
            for line in self.tiles[tile].l1d.lines_in_range(range) {
                self.tiles[tile].l1d.invalidate(line);
            }
            for line in self.tiles[tile].l2.lines_in_range(range) {
                if let Some(ev) = self.tiles[tile].l2.invalidate(line) {
                    if ev.dirty && !is_phantom(line) {
                        self.writeback_to_llc(tile, line, now);
                    }
                }
            }
        }
        for bank in 0..self.llc.len() {
            for line in self.llc[bank].lines_in_range(range) {
                if let Some(ev) = self.llc[bank].invalidate(line) {
                    if ev.dirty && !is_phantom(line) {
                        self.dram.write_line(line, now, &mut self.bus);
                    }
                    let _ = ev;
                }
            }
        }
        // Engine L1ds may also hold copies.
        for e in self.engines.iter_mut().flatten() {
            for line in e.l1d.lines_in_range(range) {
                e.l1d.invalidate(line);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_cache::array::InsertKind;
    use tako_sim::config::SystemConfig;

    fn small() -> Hierarchy {
        Hierarchy::new(SystemConfig::default_16core())
    }

    #[test]
    fn merge_reports_dirty_from_either_level() {
        let mut h = small();
        // Clean L1 + dirty L2 copy.
        h.tiles[0]
            .l1d
            .insert(64, false, false, InsertKind::Demand, 0);
        h.tiles[0].l2.insert(64, true, false, InsertKind::Demand, 0);
        assert!(h.merge_private_dirty(0, 64, PrivateScope::L1AndL2));
        assert!(h.tiles[0].l1d.probe(64).is_none());
        assert!(h.tiles[0].l2.probe(64).is_none());
        // Nothing cached at all: clean merge.
        assert!(!h.merge_private_dirty(0, 64, PrivateScope::L1AndL2));
    }

    #[test]
    fn sharer_tiles_ascend_over_set_bits() {
        let collect = |m: u64| Hierarchy::sharer_tiles(m).collect::<Vec<_>>();
        assert_eq!(collect(0), Vec::<usize>::new());
        assert_eq!(collect(1), vec![0]);
        assert_eq!(collect(1 << 63), vec![63]);
        assert_eq!(collect(1 | 1 << 5 | 1 << 63), vec![0, 5, 63]);
        assert_eq!(collect(u64::MAX), (0..64).collect::<Vec<_>>());
        let mut rng = tako_sim::rng::Rng::new(0x5A5A);
        for _ in 0..256 {
            let m = rng.next_u64() | 1 | 1 << 63;
            let want: Vec<usize> = (0..64).filter(|i| m & (1 << i) != 0).collect();
            assert_eq!(collect(m), want, "mask {m:#x}");
        }
    }

    #[test]
    fn l1_only_scope_leaves_l2_untouched() {
        let mut h = small();
        h.tiles[1]
            .l1d
            .insert(128, true, false, InsertKind::Demand, 0);
        h.tiles[1]
            .l2
            .insert(128, false, false, InsertKind::Demand, 0);
        assert!(h.merge_private_dirty(1, 128, PrivateScope::L1Only));
        assert!(h.tiles[1].l1d.probe(128).is_none());
        assert!(
            h.tiles[1].l2.probe(128).is_some(),
            "L1Only scope must not invalidate the L2 copy"
        );
    }
}
