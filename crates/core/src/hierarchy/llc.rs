//! Shared-level stages: the banked LLC and everything below it.
//!
//! [`Hierarchy::fetch_shared`] is the spine of the pipeline — every
//! demand, prefetch, and engine fill that misses the private level
//! arrives here as a [`MemTxn`] and is served by a composition of
//! stages: bank arbitration ([`Hierarchy::bank_start`]), the directory
//! hit path (owner downgrade + sharer invalidation, `coherence.rs`),
//! MSHR admission ([`Hierarchy::mshr_admit`], Sec 5.2), and the
//! below-LLC resolve ([`Hierarchy::fetch_line_below`]: DRAM in parallel
//! with `onMiss`, or callback-materialized phantoms).

use tako_cache::array::InsertKind;
use tako_mem::addr::{is_phantom, Addr};
use tako_noc::Payload;
use tako_sim::config::LINE_BYTES;
use tako_sim::event::{LevelId, TxnEvent, TxnSink};
use tako_sim::fault::FaultKind;
use tako_sim::{Cycle, TileId};

use super::coherence::PrivateScope;
use super::txn::{CachePort, MemTxn};
use super::{Hierarchy, SchedPoint};
use crate::morph::{CallbackKind, MorphId, MorphLevel};

impl Hierarchy {
    /// Serialize access to one LLC bank: each request occupies the tag
    /// pipeline for a cycle.
    #[inline]
    pub(super) fn bank_start(&mut self, bank: usize, t: Cycle) -> Cycle {
        let start = t.max(self.llc_next_free[bank]);
        self.llc_next_free[bank] = start + 1;
        start
    }

    /// Fetch `txn.line` through the LLC, arriving at the private level's
    /// edge at `t`. Returns `(completion, at_bank, exclusive)`: the
    /// cycle the line arrives back at the requester, the cycle it was
    /// ready at the bank, and whether no other tile holds a copy.
    pub(super) fn fetch_shared(&mut self, txn: &mut MemTxn, t: Cycle) -> (Cycle, Cycle, bool) {
        let (tile, line) = (txn.tile, txn.line);
        let write = txn.is_write();
        let bank = self.mesh.bank_of_line(line);
        let mut t = t + self
            .mesh
            .transfer(tile, bank, Payload::Control, &mut self.bus);
        t = self.bank_start(bank, t) + self.cfg.llc_bank.tag_latency;
        txn.stamps.llc = Some(t);

        // lookup (not probe) so a hit is found and promoted in one walk;
        // the field updates below re-probe only on the paths that need
        // coherence work in between.
        let mut port = CachePort::new(&mut self.llc[bank], LevelId::Llc);
        let probe = port.lookup_counted(line, &mut self.bus).map(|mut e| {
            e.set_prefetched(false);
            (e.ready_at(), e.owner(), e.sharers())
        });
        let exclusive;
        match probe {
            Some((ready_at, owner, sharers)) => {
                t = t.max(ready_at);
                // Dirty data lives in another tile's L2: fetch & downgrade.
                if let Some(o) = owner {
                    let o = o as usize;
                    if o != tile {
                        t = self.downgrade_owner(bank, o, line, t);
                    }
                }
                if write {
                    let others = sharers & !(1u64 << tile);
                    let mut inval_lat = 0;
                    for s in Self::sharer_tiles(others) {
                        self.bus.emit(TxnEvent::CoherenceInval);
                        let d = self.merge_private_dirty(s, line, PrivateScope::L1AndL2);
                        let hop = self.mesh.transfer(bank, s, Payload::Control, &mut self.bus);
                        inval_lat = inval_lat.max(hop);
                        if d {
                            if let Some(mut e) = self.llc[bank].probe_mut(line) {
                                e.set_dirty(true);
                            }
                        }
                    }
                    t += inval_lat;
                    if let Some(mut e) = self.llc[bank].probe_mut(line) {
                        e.set_sharers(if txn.track_sharer { 1 << tile } else { 0 });
                        e.set_owner(txn.track_sharer.then_some(tile as u8));
                    }
                    exclusive = true;
                } else if let Some(mut e) = self.llc[bank].probe_mut(line) {
                    if txn.track_sharer {
                        e.set_sharers(e.sharers() | (1 << tile));
                    }
                    exclusive = e.sharers() & !(1u64 << tile) == 0 && e.owner().is_none();
                    // A second sharer ends any clean-exclusive copy: the
                    // holder must stop taking silent write hits before
                    // this response is visible (E -> S). The downgrade
                    // notification rides the directory's existing
                    // response traffic, so no extra hop is charged.
                    for s in Self::sharer_tiles(sharers & !(1u64 << tile)) {
                        if let Some(mut le) = self.tiles[s].l2.probe_mut(line) {
                            le.set_exclusive(false);
                        }
                    }
                } else {
                    // Line evicted out from under the hit path: claim
                    // nothing (a later write pays for an upgrade).
                    exclusive = false;
                }
                t += self.cfg.llc_bank.data_latency;
            }
            None => {
                let morph = self.registry.lookup(line);
                let for_callback = matches!(morph, Some((_, MorphLevel::Shared)));
                t = self.mshr_admit(bank, t, for_callback);
                let (mut ready, is_morph) = self.fetch_line_below(bank, line, t, morph);
                txn.stamps.fill = Some(ready);
                // Injected lost/late memory response. Prefetch fills are
                // skipped: a delayed prefetch that is evicted unused
                // would never surface to a demand access, and the
                // campaign asserts every injected stall is detected.
                if txn.fill_kind != InsertKind::Prefetch {
                    if let Some(delay) = self.bus.poll_fault(t, FaultKind::DelayedDram) {
                        ready += delay;
                    }
                }
                self.mshrs[bank].try_alloc(line, ready, for_callback);
                if let Some(ev) = self.llc[bank].insert(line, false, is_morph, txn.fill_kind, ready)
                {
                    self.handle_llc_evict(bank, ev, t);
                }
                // Genuinely fallible: handle_llc_evict can run callbacks
                // whose own traffic evicts the just-inserted line.
                if txn.track_sharer {
                    if let Some(mut e) = self.llc[bank].probe_mut(line) {
                        e.set_sharers(1 << tile);
                        e.set_owner(write.then_some(tile as u8));
                    }
                }
                exclusive = true;
                t = ready + self.cfg.llc_bank.data_latency;
            }
        }
        let resp = self.mesh.transfer(bank, tile, Payload::Line, &mut self.bus);
        (t + resp, t, exclusive)
    }

    /// LLC MSHR admission (Sec 5.2): drain retired fills, apply injected
    /// pressure, and — in fault campaigns only — stall until an entry
    /// (outside the callback reservation) frees up. Returns the
    /// admission cycle.
    fn mshr_admit(&mut self, bank: usize, mut t: Cycle, for_callback: bool) -> Cycle {
        // A scheduler may hold retired fills across this admission to
        // explore admit/drain orderings; hardware always drains first.
        if self.sched_choose(SchedPoint::MshrDrain, 2, 0) == 0 {
            self.mshrs[bank].drain(t);
        }
        if let Some(extra) = self.bus.poll_fault(t, FaultKind::MshrPressure) {
            // Injected pressure spike: phantom fills occupy entries for
            // a while, forcing the stall path below.
            for k in 0..extra {
                self.mshrs[bank].try_alloc(u64::MAX - k * LINE_BYTES, t + 100 + k, false);
            }
        }
        // The stall path engages only in fault campaigns: the recursive
        // timing model retires accesses in order, so a full file in a
        // normal run is a tracking artifact and stalling on it would
        // perturb the calibrated baseline.
        if !self.bus.faults_inert() {
            while !self.mshrs[bank].can_alloc(for_callback) {
                self.bus.emit(TxnEvent::MshrStall);
                t = self.mshrs[bank]
                    .earliest_completion()
                    .map_or(t + 1, |c| c.max(t + 1));
                self.mshrs[bank].drain(t);
            }
        }
        t
    }

    /// Resolve a line below the LLC: a SHARED Morph's `onMiss` runs at
    /// the bank (in parallel with the DRAM fetch for real lines; alone
    /// for phantom lines, which it materializes); unmanaged real lines
    /// come from DRAM. Returns `(ready, is_morph)`.
    fn fetch_line_below(
        &mut self,
        bank: usize,
        line: Addr,
        t: Cycle,
        morph: Option<(MorphId, MorphLevel)>,
    ) -> (Cycle, bool) {
        match morph {
            Some((id, MorphLevel::Shared)) => {
                if is_phantom(line) {
                    self.zero_line(line);
                    let cb = self.run_callback(bank, id, CallbackKind::OnMiss, line, t);
                    (cb, true)
                } else {
                    // onMiss runs in parallel with the fetch.
                    let mem = self.dram.read_line(line, t, &mut self.bus);
                    let cb = self.run_callback(bank, id, CallbackKind::OnMiss, line, t);
                    (mem.max(cb), true)
                }
            }
            _ => {
                if is_phantom(line) {
                    // A shared phantom line with no Morph (e.g. after
                    // unregistration): materialize zeroes.
                    (t, false)
                } else {
                    (self.dram.read_line(line, t, &mut self.bus), false)
                }
            }
        }
    }

    /// Write a dirty line from a tile's L2 (or engine L1d) back to the
    /// LLC; phantom (SHARED-Morph) lines re-insert, real lines mark dirty.
    pub(super) fn writeback_to_llc(&mut self, tile: TileId, line: Addr, t: Cycle) {
        let bank = self.mesh.bank_of_line(line);
        let t = t + self.mesh.transfer(tile, bank, Payload::Line, &mut self.bus);
        let t = self.bank_start(bank, t);
        if let Some(mut e) = self.llc[bank].probe_mut(line) {
            e.set_dirty(true);
            e.set_sharers(e.sharers() & !(1u64 << tile));
            if e.owner() == Some(tile as u8) {
                e.set_owner(None);
            }
            return;
        }
        // Not present (engine L1ds and streaming stores are not covered
        // by inclusion): install the dirty line in the LLC so it can
        // coalesce further writes; phantom SHARED-Morph lines keep their
        // Morph bit so the eventual eviction still triggers a callback.
        let is_morph =
            is_phantom(line) && matches!(self.registry.lookup(line), Some((_, MorphLevel::Shared)));
        if let Some(ev) = self.llc[bank].insert(line, true, is_morph, InsertKind::Engine, t) {
            self.handle_llc_evict(bank, ev, t);
        }
    }

    /// A remote memory operation on a SHARED Morph executes directly at
    /// the owning LLC bank (no private-cache allocation).
    pub(super) fn rmo_shared(&mut self, tile: TileId, id: MorphId, line: Addr, t: Cycle) -> Cycle {
        let bank = self.mesh.bank_of_line(line);
        let mut t = t + self
            .mesh
            .transfer(tile, bank, Payload::Control, &mut self.bus);
        t = self.bank_start(bank, t) + self.cfg.llc_bank.tag_latency;
        // Single-pass hit: promote, read the old sharer set, and apply
        // the RMO's unconditional state updates in one tag walk.
        let mut port = CachePort::new(&mut self.llc[bank], LevelId::Llc);
        let present = port.lookup_counted(line, &mut self.bus).map(|mut e| {
            let sharers = e.sharers();
            e.set_prefetched(false);
            e.set_dirty(true);
            e.set_sharers(0);
            (e.ready_at(), sharers)
        });
        match present {
            Some((ready_at, sharers)) => {
                t = t.max(ready_at);
                for s in Self::sharer_tiles(sharers) {
                    self.bus.emit(TxnEvent::CoherenceInval);
                    self.merge_private_dirty(s, line, PrivateScope::L1AndL2);
                }
                t += self.cfg.llc_bank.data_latency;
            }
            None => {
                let (ready, _) =
                    self.fetch_line_below(bank, line, t, Some((id, MorphLevel::Shared)));
                if let Some(ev) = self.llc[bank].insert(line, true, true, InsertKind::Demand, ready)
                {
                    self.handle_llc_evict(bank, ev, t);
                }
                t = ready + self.cfg.llc_bank.data_latency;
            }
        }
        t
    }

    /// Fetch for a non-temporal load: served from the LLC if present
    /// (without promotion or sharer tracking), else straight from DRAM
    /// **without installing in the LLC** — streaming data must not churn
    /// the inclusive LLC, whose evictions would invalidate the L1/L2
    /// copy before the scan finishes the line.
    pub(crate) fn fetch_stream(&mut self, tile: TileId, line: Addr, t: Cycle) -> Cycle {
        let bank = self.mesh.bank_of_line(line);
        let mut t = t + self
            .mesh
            .transfer(tile, bank, Payload::Control, &mut self.bus);
        t = self.bank_start(bank, t) + self.cfg.llc_bank.tag_latency;
        let hit = CachePort::new(&mut self.llc[bank], LevelId::Llc)
            .probe_counted(line, &mut self.bus)
            .map(|e| e.ready_at());
        t = match hit {
            Some(ready_at) => t.max(ready_at) + self.cfg.llc_bank.data_latency,
            None if is_phantom(line) => t,
            None => self.dram.read_line(line, t, &mut self.bus),
        };
        t + self.mesh.transfer(bank, tile, Payload::Line, &mut self.bus)
    }

    // ------------------------------------------------------------------
    // Engine-side access
    // ------------------------------------------------------------------

    /// A memory access issued by a callback running on `tile`'s engine.
    /// PRIVATE-level callbacks reach memory through the tile's L2 (the
    /// engine is clustered with it); SHARED-level callbacks go straight
    /// to the LLC. Fills insert at trrîp's distant priority.
    ///
    /// The engine's own L1d is probed/filled by the caller (`EngineCtx`),
    /// which holds it checked out; this method models everything below.
    pub fn engine_fill(
        &mut self,
        tile: TileId,
        write: bool,
        line: Addr,
        t: Cycle,
        level: MorphLevel,
    ) -> Cycle {
        match level {
            MorphLevel::Private => {
                let l2_cfg = self.cfg.l2;
                // Single-pass hit: promote and update state in one walk.
                let mut port = CachePort::new(&mut self.tiles[tile].l2, LevelId::L2);
                let hit = port.lookup_counted(line, &mut self.bus).map(|mut e| {
                    e.set_prefetched(false);
                    if write {
                        e.set_dirty(true);
                    }
                    e.ready_at()
                });
                match hit {
                    Some(ready_at) => (t + l2_cfg.tag_latency + l2_cfg.data_latency).max(ready_at),
                    None => {
                        let t2 = t + l2_cfg.tag_latency;
                        // trrîp: engine *streaming* traffic (writes)
                        // inserts at distant priority; engine loads with
                        // reuse insert like demands so the L2 backstops
                        // the small engine L1d.
                        let kind = if write && self.cfg.engine.trrip {
                            InsertKind::Engine
                        } else {
                            InsertKind::Demand
                        };
                        let mut txn = MemTxn::engine(tile, write, line, t2, kind, true);
                        let (fetch, _, _) = self.fetch_shared(&mut txn, t2);
                        let done = fetch + l2_cfg.data_latency;
                        if let Some(ev) = self.tiles[tile].l2.insert(line, write, false, kind, done)
                        {
                            self.handle_l2_evict(tile, ev, t2);
                        }
                        done
                    }
                }
            }
            MorphLevel::Shared => {
                let kind = if self.cfg.engine.trrip {
                    InsertKind::Engine
                } else {
                    InsertKind::Demand
                };
                let mut txn = MemTxn::engine(tile, write, line, t, kind, false);
                let (_, at_bank, _) = self.fetch_shared(&mut txn, t);
                if write {
                    let bank = self.mesh.bank_of_line(line);
                    if let Some(mut e) = self.llc[bank].probe_mut(line) {
                        e.set_dirty(true);
                    }
                }
                at_bank
            }
        }
    }

    /// Writeback of a dirty line displaced from an engine L1d.
    pub fn engine_writeback(&mut self, tile: TileId, line: Addr, t: Cycle) {
        if let Some(mut e) = self.tiles[tile].l2.probe_mut(line) {
            e.set_dirty(true);
            return;
        }
        if !is_phantom(line) {
            self.writeback_to_llc(tile, line, t);
        }
    }
}
