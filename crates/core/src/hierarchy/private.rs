//! Private-level stages: the core-side L1d/L2 walk.
//!
//! [`Hierarchy::core_access`] is the pipeline's front end. One walk
//! serves every core access: an L1d hit completes at the L1d port
//! before any transaction exists; a miss mints a [`MemTxn`] and
//! advances it stage by stage — L2 port, then one of the shared-level
//! stages (`fetch_shared`, `fetch_stream`, `rmo_shared` in `llc.rs`) —
//! stamping the transaction as it goes. The watchdog observes every
//! completed walk here, off the walk body, and the epoch sweep reads its
//! counters through the bus.

use tako_cache::array::InsertKind;
use tako_cpu::AccessKind;
use tako_mem::addr::{is_phantom, line_of, Addr};
use tako_sim::energy::EnergyModel;
use tako_sim::event::{LevelId, TxnEvent, TxnSink};
use tako_sim::{Cycle, TileId};

use super::coherence::PrivateScope;
use super::txn::{CachePort, MemTxn, TxnKind};
use super::Hierarchy;
use crate::morph::{CallbackKind, MorphLevel};
use crate::watchdog::{DiagnosticSnapshot, MshrSnapshot};

impl Hierarchy {
    /// A core-side access: the full L1 → L2 → LLC → memory walk with
    /// Morph interposition, observed by the watchdog. Returns the
    /// completion cycle.
    pub fn core_access(&mut self, tile: TileId, kind: AccessKind, addr: Addr, t: Cycle) -> Cycle {
        self.bus.observe_at(t, tile);
        let done = self.core_walk(tile, kind, addr, t);
        if self.watchdog.enabled() {
            self.watchdog_observe(line_of(addr), t, done);
        }
        done
    }

    /// The watchdog tail every completed core access runs: stall
    /// detection plus the epoch sweep. `line` is the accessed cache
    /// line; on the first stall the snapshot names it (and its LLC
    /// bank/set) as the blocked line.
    fn watchdog_observe(&mut self, line: Addr, t: Cycle, done: Cycle) {
        if let Some(latency) = self.watchdog.observe_access(t, done) {
            self.bus.emit(TxnEvent::StallDetected { latency });
            if self.watchdog.snapshot().is_none() {
                let snap = self.diagnostic_snapshot(done, latency, Some(line));
                self.watchdog.attach_snapshot(snap);
            }
        }
        if self.watchdog.epoch_due(done) {
            self.watchdog_epoch(done);
        }
    }

    /// The epoch invariant sweep: trrîp's one-callback-free-line-per-set
    /// rule, MSHR accounting (no overflow, reservation intact), and
    /// progress-counter monotonicity.
    fn watchdog_epoch(&mut self, now: Cycle) {
        let instrs = self.bus.stats.total_instrs();
        let dram = self.bus.stats.dram_accesses();
        let accesses = self.bus.stats.memory_accesses();
        // Energy is a positive-weighted tally of monotone counters, so
        // a regression means counter corruption (same params as
        // `TakoSystem::energy`).
        let energy_pj = EnergyModel::default_params()
            .tally(&self.bus.stats)
            .total_pj() as u64;
        let before = self.watchdog.violation_count();
        let wd = &mut self.watchdog;
        wd.begin_epoch(now);
        for (i, tile) in self.tiles.iter().enumerate() {
            wd.check(tile.l2.morph_invariant_holds(), || {
                format!("tile {i} L2: set of all-Morph lines (trrîp rule)")
            });
        }
        for (b, bank) in self.llc.iter().enumerate() {
            wd.check(bank.morph_invariant_holds(), || {
                format!("LLC bank {b}: set of all-Morph lines (trrîp rule)")
            });
        }
        for (b, m) in self.mshrs.iter().enumerate() {
            wd.check(m.len() <= m.capacity(), || {
                format!(
                    "LLC bank {b} MSHRs overflowed: {}/{}",
                    m.len(),
                    m.capacity()
                )
            });
            wd.check(m.callback_entries() < m.capacity(), || {
                format!(
                    "LLC bank {b}: callbacks hold all {} MSHRs \
                     (Sec 5.2 reservation broken)",
                    m.capacity()
                )
            });
        }
        wd.check_progress(instrs, dram, accesses, energy_pj);
        let delta = self.watchdog.violation_count() - before;
        if delta > 0 {
            self.bus.emit(TxnEvent::InvariantViolations(delta));
        }
        // Observability interval sampling rides the same quiescent
        // point: close the epoch's interval with counter deltas plus the
        // energy and DRAM-backlog gauges. Disjoint field borrows: the
        // observer lives in `bus.tap`, the counters in `bus.stats`.
        if let Some(obs) = self.bus.tap.as_deref_mut() {
            let epoch = self.watchdog.epochs_run();
            let backlog = self.dram.backlog(now);
            let energy = EnergyModel::default_params()
                .tally(&self.bus.stats)
                .total_pj();
            obs.sample_epoch(epoch, now, &self.bus.stats, energy, backlog);
        }
        // Checkpoint cadence piggybacks on the epoch sweep: the epoch
        // boundary is the hierarchy's only guaranteed quiescent point
        // (no walk in flight, engines checked in). Raising the flag is a
        // branch and a bool store — the armed-but-idle cost is zero
        // allocations on the walk (pinned by `no_alloc.rs`).
        if let Some(ck) = &self.cfg.checkpoint {
            if self.watchdog.epochs_run().is_multiple_of(ck.every_epochs) {
                self.ckpt_due = true;
            }
        }
        // Supervised deadline probe: wall-clock only, checked at epoch
        // cadence so an arbitrarily stalled walk still gets killed at
        // the next completed access. The panic payload is the triage
        // bundle; the campaign runner catches it and journals it.
        if tako_sim::supervise::armed() {
            if let Some((budget, elapsed)) = tako_sim::supervise::deadline_exceeded() {
                panic!("{}", self.deadline_triage(now, budget, elapsed));
            }
        }
    }

    /// The crash-triage bundle for a deadline kill: where the machine
    /// was, what it was doing (the observer ring's tail), how far the
    /// fault plan had advanced, and the last checkpoint to resume from.
    fn deadline_triage(
        &self,
        now: Cycle,
        budget: std::time::Duration,
        elapsed: std::time::Duration,
    ) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "deadline exceeded: {:.1}s elapsed against a {:.1}s budget at cycle {now}",
            elapsed.as_secs_f64(),
            budget.as_secs_f64()
        );
        let snap = self
            .watchdog
            .snapshot()
            .cloned()
            .unwrap_or_else(|| self.diagnostic_snapshot(now, 0, None));
        let _ = writeln!(s, "machine state: {snap:?}");
        let _ = writeln!(s, "fault plan: {}", self.bus.faults.cursor());
        if let Some(obs) = self.bus.observer() {
            let _ = writeln!(s, "event tail: {}", obs.ring.render());
        }
        match tako_sim::supervise::last_checkpoint() {
            Some(id) => {
                let _ = writeln!(s, "last checkpoint: {id}");
            }
            None => {
                let _ = writeln!(s, "last checkpoint: none (restart from scratch)");
            }
        }
        s
    }

    /// Structured machine-state dump for the first detected stall.
    /// `blocked` is the stalled access's line, when known; the snapshot
    /// resolves its home LLC bank and set so the dump names exactly
    /// where the trrîp/MSHR argument broke, not just that it did.
    fn diagnostic_snapshot(
        &self,
        cycle: Cycle,
        latency: Cycle,
        blocked: Option<Addr>,
    ) -> DiagnosticSnapshot {
        let blocked_set = blocked.map(|line| {
            let bank = self.mesh.bank_of_line(line);
            (bank, self.llc[bank].set_index(line))
        });
        DiagnosticSnapshot {
            cycle,
            latency,
            bound: self.watchdog.stall_bound(),
            l2_occupancy: self.tiles.iter().map(|t| t.l2.occupancy()).collect(),
            llc_occupancy: self.llc.iter().map(|b| b.occupancy()).collect(),
            mshrs: self
                .mshrs
                .iter()
                .map(|m| MshrSnapshot {
                    len: m.len(),
                    for_callback: m.callback_entries(),
                    capacity: m.capacity(),
                })
                .collect(),
            pending_callbacks: self.pending_callbacks.len(),
            quarantined_morphs: self.registry.quarantined_morphs().count(),
            blocked_line: blocked,
            blocked_set,
        }
    }

    /// Retire `txn`, first feeding its observational stage stamps to an
    /// attached observer (stage profile + miss latency). Returns `done`.
    fn retire_profiled(&mut self, txn: MemTxn, done: Cycle) -> Cycle {
        if let Some(obs) = self.bus.observer_mut() {
            let s = &txn.stamps;
            obs.record_txn(txn.issued, s.l1, s.l2, s.llc, s.fill, done);
        }
        done
    }

    /// The core-side walk. An L1d hit completes in the hit arm before
    /// any [`MemTxn`] is minted; a miss mints one and carries on from
    /// the L2 without walking the L1d tags again.
    fn core_walk(&mut self, tile: TileId, kind: AccessKind, addr: Addr, t: Cycle) -> Cycle {
        let line = line_of(addr);
        if kind == AccessKind::Rmo {
            if let Some((id, MorphLevel::Shared)) = self.registry.lookup(addr) {
                return self.rmo_shared(tile, id, line, t);
            }
        }
        if kind == AccessKind::WriteStream {
            return self.core_write_stream(tile, line, t);
        }
        let write = TxnKind::from_access(kind).is_write();
        let l1_cfg = self.cfg.l1d;
        let l2_cfg = self.cfg.l2;

        // ---- L1d ----
        // Single-pass hit: the port's lookup promotes and returns the
        // entry, so the dirty update needs no second tag walk.
        let mut l1 = CachePort::new(&mut self.tiles[tile].l1d, LevelId::L1d);
        if let Some(mut e) = l1.lookup_counted(line, &mut self.bus) {
            let mut done = (t + l1_cfg.tag_latency + l1_cfg.data_latency).max(e.ready_at());
            e.set_prefetched(false);
            if write {
                e.set_dirty(true);
                let needs_upgrade = self.tiles[tile]
                    .l2
                    .probe(line)
                    .map(|le| !le.exclusive())
                    .unwrap_or(false);
                if needs_upgrade {
                    done = self.upgrade(tile, line, done);
                    if let Some(mut le) = self.tiles[tile].l2.probe_mut(line) {
                        le.set_exclusive(true);
                        le.set_dirty(true);
                    }
                } else if let Some(mut le) = self.tiles[tile].l2.probe_mut(line) {
                    le.set_dirty(true);
                }
            }
            if let Some(obs) = self.bus.observer_mut() {
                obs.record_txn(t, Some(t), None, None, None, done);
            }
            return done;
        }
        let mut txn = MemTxn::core(kind, tile, line, t);
        txn.stamps.l1 = Some(t);
        let stream = txn.kind.is_stream();
        let t1 = t + l1_cfg.tag_latency;
        // Morph interposition only matters below the L1: deferring the
        // registry scan here keeps it off the L1-hit path entirely.
        let morph = self.registry.lookup(addr);

        // ---- L2 ----
        // Non-temporal hits do not promote (scans stay cold), so only the
        // demand path takes the promoting single-pass lookup.
        txn.stamps.l2 = Some(t1);
        let mut l2 = CachePort::new(&mut self.tiles[tile].l2, LevelId::L2);
        let l2_probe = if stream {
            l2.probe_counted(line, &mut self.bus)
                .map(|e| (e.ready_at(), e.exclusive(), e.prefetched()))
        } else {
            l2.lookup_counted(line, &mut self.bus).map(|mut e| {
                let prefetched = e.prefetched();
                e.set_prefetched(false);
                (e.ready_at(), e.exclusive(), prefetched)
            })
        };
        let done = match l2_probe {
            Some((ready_at, exclusive, prefetched)) => {
                if prefetched {
                    self.bus.emit(TxnEvent::PrefetchUseful);
                }
                let mut done = (t1 + l2_cfg.tag_latency + l2_cfg.data_latency).max(ready_at);
                if write && !exclusive {
                    done = self.upgrade(tile, line, done);
                }
                if write {
                    if let Some(mut e) = self.tiles[tile].l2.probe_mut(line) {
                        e.set_dirty(true);
                        e.set_exclusive(true);
                    }
                }
                self.fill_l1(tile, line, write, done);
                done
            }
            None => {
                let t2 = t1 + l2_cfg.tag_latency;
                let (ready, is_morph, exclusive) = match morph {
                    Some((id, MorphLevel::Private)) => {
                        if is_phantom(line) {
                            self.zero_line(line);
                            let cb = self.run_callback(tile, id, CallbackKind::OnMiss, line, t2);
                            (cb, true, true)
                        } else {
                            let (fetch, _, excl) = self.fetch_shared(&mut txn, t2);
                            let cb = self.run_callback(tile, id, CallbackKind::OnMiss, line, t2);
                            (fetch.max(cb), true, excl)
                        }
                    }
                    _ if stream => {
                        let fetch = self.fetch_stream(tile, line, t2);
                        (fetch, false, false)
                    }
                    _ => {
                        let (fetch, _, excl) = self.fetch_shared(&mut txn, t2);
                        (fetch, false, excl)
                    }
                };
                let done = ready + l2_cfg.data_latency;
                if stream {
                    // Non-temporal fills bypass the L2 entirely: the line
                    // lives briefly in the L1 and is dropped silently.
                    self.fill_l1(tile, line, write, done);
                    return self.retire_profiled(txn, done);
                }
                if let Some(ev) =
                    self.tiles[tile]
                        .l2
                        .insert(line, write, is_morph, InsertKind::Demand, done)
                {
                    self.handle_l2_evict(tile, ev, t2);
                }
                if let Some(mut e) = self.tiles[tile].l2.probe_mut(line) {
                    // Exclusivity comes from the directory (or a write,
                    // which invalidated other sharers in fetch_shared).
                    // Phantom lines get no exception: a SHARED-morph
                    // phantom line another tile still caches must not
                    // take silent write hits here, or the copies
                    // diverge and writebacks lose updates. PRIVATE
                    // phantom fills pass `exclusive = true` explicitly.
                    e.set_exclusive(exclusive || write);
                }
                self.fill_l1(tile, line, write, done);
                done
            }
        };
        // ---- prefetcher (trains on L2 accesses; NT scans bypass it) ----
        if !stream {
            self.train_prefetcher(tile, addr, t1);
        }
        self.retire_profiled(txn, done)
    }

    /// Fill `line` into `tile`'s L1d, merging any displaced dirty line
    /// into the (inclusive) L2.
    pub(super) fn fill_l1(&mut self, tile: TileId, line: Addr, dirty: bool, ready: Cycle) {
        if self.tiles[tile].l1d.probe(line).is_some() {
            if dirty {
                if let Some(mut e) = self.tiles[tile].l1d.probe_mut(line) {
                    e.set_dirty(true);
                }
            }
            return;
        }
        self.l1_install(tile, line, dirty, InsertKind::Demand, ready);
    }

    /// Insert into the L1d and route the displaced victim: dirty lines
    /// merge into the (inclusive) L2, or — for lines the L2 does not
    /// back, e.g. streaming stores — flow down to the LLC.
    fn l1_install(
        &mut self,
        tile: TileId,
        line: Addr,
        dirty: bool,
        kind: InsertKind,
        ready: Cycle,
    ) {
        if let Some(ev) = self.tiles[tile].l1d.insert(line, dirty, false, kind, ready) {
            if ev.dirty {
                if let Some(mut e) = self.tiles[tile].l2.probe_mut(ev.line) {
                    e.set_dirty(true);
                } else if !is_phantom(ev.line) {
                    self.writeback_to_llc(tile, ev.line, ready);
                }
            }
        }
    }

    /// A core-side non-temporal store: write-combining in the L1d with no
    /// read-for-ownership fetch; displaced dirty lines flow down the
    /// hierarchy normally.
    fn core_write_stream(&mut self, tile: TileId, line: Addr, t: Cycle) -> Cycle {
        let l1_cfg = self.cfg.l1d;
        if let Some(mut e) = self.tiles[tile].l1d.probe_mut(line) {
            e.set_dirty(true);
            self.bus.emit(TxnEvent::Hit(LevelId::L1d));
            return t + l1_cfg.tag_latency + l1_cfg.data_latency;
        }
        self.bus.emit(TxnEvent::Miss(LevelId::L1d));
        let done = t + l1_cfg.tag_latency + l1_cfg.data_latency;
        self.l1_install(tile, line, true, InsertKind::Engine, done);
        done
    }

    /// CLDEMOTE: drop the L1 copy (merging dirty state into the L2) and
    /// move the L2 entry to the preferred-victim position. No callback —
    /// the line is not evicted, just deprioritized.
    pub fn demote_line(&mut self, tile: TileId, line: Addr) {
        let line = line_of(line);
        let dirty = self.merge_private_dirty(tile, line, PrivateScope::L1Only);
        if let Some(mut e) = self.tiles[tile].l2.probe_mut(line) {
            e.set_dirty(e.dirty() | dirty);
            e.set_rrpv(3);
            e.set_lru_stamp(0);
        }
    }
}
