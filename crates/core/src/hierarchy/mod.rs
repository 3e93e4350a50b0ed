//! The assembled memory hierarchy with täkō interposition (Sec 5),
//! structured as a staged memory-transaction pipeline.
//!
//! [`Hierarchy`] owns every timing-relevant component of the tiled CMP:
//! per-tile L1d/L2/prefetcher, the banked inclusive LLC with an in-tag
//! directory, the mesh, the DRAM controllers, the per-tile engines, the
//! Morph registry, and the backing store. All agents — cores, engines,
//! prefetchers — walk the same arrays, so locality, pollution, and
//! contention interact exactly as they would in hardware.
//!
//! # The pipeline
//!
//! A request is a [`MemTxn`] that flows through stage functions, each in
//! the submodule that owns its level; all side-channel accounting rides
//! the [`AccountingBus`] (`tako_sim::event`), never inline in a walk:
//!
//! ```text
//!            core_access (private)            engine_fill / rmo (llc)
//!                  │                                   │
//!   ┌──────────────▼───────────────────────────────────▼─────────────┐
//!   │ L1d ──miss──▶ L2 ──miss──▶ fetch_shared @ LLC bank ──miss──▶   │
//!   │  │hit          │hit          │hit                  fetch_line  │
//!   │ fill_l1   fill_l1 ◀── insert └─ downgrade_owner /  _below      │
//!   │                      │        sharer invals        (DRAM ∥     │
//!   │                handle_l2_evict (evict)              onMiss)    │
//!   │                      │                              │          │
//!   │            merge_private_dirty (coherence)     handle_llc_evict│
//!   │                      │                              (evict)    │
//!   │              writeback_to_llc ────────────────────▶ │          │
//!   └──────────────────────┬───────────────────────────────┼─────────┘
//!                          ▼                               ▼
//!                   AccountingBus ◀──every stage──  eviction_callback
//!              (Stats + faults + tap)                → run_callback
//! ```
//!
//! * [`txn`] — the transaction vocabulary: [`MemTxn`], [`TxnKind`],
//!   [`StageStamps`], and the [`CachePort`] that charges per-level
//!   accounting at the tag array.
//! * `private.rs` — the core-side walk: L1d/L2 stages, non-temporal
//!   stores, the watchdog epoch hook.
//! * `llc.rs` — the shared level: bank arbitration, `fetch_shared`,
//!   MSHR admission (Sec 5.2), below-LLC fills, RMOs, engine fills.
//! * `coherence.rs` — directory actions: `merge_private_dirty`,
//!   owner downgrade, upgrades, range invalidation.
//! * `evict.rs` — eviction chains at both levels, flushData walks, and
//!   the shared `eviction_callback` dispatch.
//! * `prefetch.rs` — stride-prefetch training and issue.
//!
//! The walk implements the paper's semantics:
//!
//! * Misses on a Morph's range invoke `onMiss` at the registered level's
//!   engine. Phantom lines are materialized by the callback alone (no
//!   memory access); real lines fetch in parallel with the callback.
//! * Evictions invoke `onEviction`/`onWriteback` *off the critical path*
//!   of the evicting access; phantom victims are then discarded, real
//!   dirty victims written back after the callback interposes.
//! * The triggering line is locked for the duration of the callback
//!   (enforced by the engine scheduler + the line's `ready_at`).
//! * Remote memory operations on a SHARED Morph execute directly at the
//!   owning LLC bank (PHI's push updates, Sec 8.1).
//! * Engine-issued fills insert at trrîp's distant priority, and every
//!   set keeps a callback-free line (deadlock avoidance).

mod coherence;
mod evict;
mod llc;
mod prefetch;
mod private;
pub mod txn;

pub use txn::{CachePort, MemTxn, StageStamps, TxnKind};

use tako_cache::array::CacheArray;
use tako_cache::mshr::MshrFile;
use tako_cache::prefetch::StridePrefetcher;
use tako_mem::addr::Addr;
use tako_mem::backing::PhysMem;
use tako_mem::dram::Dram;
use tako_noc::Mesh;
use tako_sim::checkpoint::{SnapError, SnapReader, SnapWriter, Snapshot};
use tako_sim::config::{EngineConfig, SystemConfig, LINE_BYTES};
use tako_sim::event::{AccountingBus, TxnEvent, TxnSink};
use tako_sim::fault::{FaultInjector, FaultKind};
use tako_sim::{Cycle, TileId};

use crate::ctx::EngineCtx;
use crate::engine::Engine;
use crate::morph::{CallbackKind, MorphId, MorphRegistry};
use crate::watchdog::Watchdog;

/// A nondeterministic decision point in the txn stage walk.
///
/// Hardware resolves each of these with a fixed policy; a model checker
/// installs a [`StageScheduler`] to explore the alternatives. With no
/// scheduler installed every point takes its hardware default, so the
/// walk is byte-identical to a seam-less build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPoint {
    /// Which deferred callback to drain next out of `n` pending.
    /// Hardware drains the writeback buffer LIFO (index `n - 1`).
    DrainPick,
    /// Whether a ready callback runs now (`0`, the hardware path) or is
    /// parked in the writeback buffer first (`1`), exploring the
    /// trigger-vs-drain interleaving of Sec 5.2.
    DeferCallback,
    /// Whether completed MSHR entries drain on bank entry (`0`, the
    /// hardware path) or are held across this admission (`1`),
    /// exploring admit/drain orderings against the Sec 5.2 callback
    /// reservation.
    MshrDrain,
}

/// Pluggable scheduler for the nondeterministic points of the stage
/// walk. `choose` returns an index in `0..n`; out-of-range answers are
/// clamped. Implementations must eventually fall back to the hardware
/// default (e.g. a finite choice script) — a scheduler that defers the
/// same callback forever livelocks the walk by construction.
pub trait StageScheduler {
    /// Pick one of `n` alternatives at `point`.
    fn choose(&mut self, point: SchedPoint, n: usize) -> usize;
}

/// A user-space interrupt raised by a callback (Sec 4.3 / Sec 8.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interrupt {
    /// Tile whose thread is interrupted (the Morph's registering tile).
    pub tile: TileId,
    /// Cycle the interrupt was raised.
    pub cycle: Cycle,
    /// The cache line whose event triggered it.
    pub line: Addr,
}

/// Per-tile private components.
#[derive(Debug)]
pub struct Tile {
    /// L1 data cache.
    pub l1d: CacheArray,
    /// Private L2.
    pub l2: CacheArray,
    /// L2 stride prefetcher.
    pub prefetcher: StridePrefetcher,
}

/// The full simulated memory system.
pub struct Hierarchy {
    /// System parameters.
    pub cfg: SystemConfig,
    /// The unified accounting bus: counters, fault injector, optional
    /// tap. Every stage emits here; no walk body counts inline.
    pub bus: AccountingBus,
    /// Functional backing store (real *and* phantom data).
    pub mem: PhysMem,
    /// Off-chip memory timing.
    pub dram: Dram,
    /// Mesh interconnect.
    pub mesh: Mesh,
    /// Per-tile private caches.
    pub tiles: Vec<Tile>,
    /// LLC banks (one per tile), inclusive, with in-tag directory.
    pub llc: Vec<CacheArray>,
    llc_next_free: Vec<Cycle>,
    /// Registered Morphs (the TLB bits + OS table).
    pub registry: MorphRegistry,
    /// Per-tile engines; `None` while checked out to run a callback.
    pub engines: Vec<Option<Engine>>,
    /// Interrupts raised by callbacks, awaiting delivery.
    pub interrupts: Vec<Interrupt>,
    /// Callbacks whose Morph was busy when they triggered (a callback's
    /// own memory traffic evicted another line of the same Morph). The
    /// evicted line sits in the writeback buffer until the engine frees
    /// up (Sec 5.2); we run them as soon as the running callback ends.
    pending_callbacks: Vec<(TileId, MorphId, CallbackKind, Addr, Cycle)>,
    callback_depth: usize,
    /// Per-bank LLC MSHR files: bound outstanding fills and enforce the
    /// Sec 5.2 callback reservation.
    pub mshrs: Vec<MshrFile>,
    /// Runtime invariant watchdog and forward-progress detector.
    pub watchdog: Watchdog,
    /// Optional scheduler for the walk's nondeterministic points.
    /// `None` (the default, and the only production configuration)
    /// means every [`SchedPoint`] takes its hardware policy. Host-side
    /// harness state: never serialized by [`Snapshot`].
    scheduler: Option<Box<dyn StageScheduler>>,
}

impl Hierarchy {
    /// Build an idle system from `cfg`, which must pass
    /// [`SystemConfig::validate`] ([`TakoSystem::new`](crate::TakoSystem::new)
    /// checks it).
    pub fn new(cfg: SystemConfig) -> Self {
        let tiles = (0..cfg.tiles)
            .map(|_| Tile {
                l1d: CacheArray::new(cfg.l1d),
                l2: CacheArray::new(cfg.l2),
                prefetcher: StridePrefetcher::new(cfg.prefetch),
            })
            .collect();
        // LLC banks are selected by the low line-number bits; each
        // bank's set index must skip them.
        let bank_bits = (cfg.tiles as u64).trailing_zeros();
        let llc = (0..cfg.tiles)
            .map(|_| CacheArray::with_index_shift(cfg.llc_bank, bank_bits))
            .collect();
        let engines = (0..cfg.tiles)
            .map(|_| Some(Engine::new(cfg.engine)))
            .collect();
        let mshrs = (0..cfg.tiles)
            .map(|_| MshrFile::new(cfg.llc_mshrs as usize))
            .collect();
        let mut bus = AccountingBus::new(FaultInjector::new(cfg.faults.as_ref()));
        // The observer is diagnostic-only: simulation observables never
        // read it, so attaching one cannot perturb timing. Tracing
        // collects it; campaign supervision reads its event ring so a
        // deadline kill can show what the machine was doing.
        if tako_sim::trace::armed() || tako_sim::supervise::armed() {
            bus.tap = Some(Box::default());
        }
        Hierarchy {
            bus,
            mem: PhysMem::new(),
            dram: Dram::new(cfg.mem),
            mesh: Mesh::new(cfg.mesh),
            tiles,
            llc,
            llc_next_free: vec![0; cfg.tiles],
            registry: MorphRegistry::new(),
            engines,
            interrupts: Vec::new(),
            pending_callbacks: Vec::new(),
            callback_depth: 0,
            mshrs,
            watchdog: Watchdog::new(cfg.watchdog),
            scheduler: None,
            cfg,
        }
    }

    /// Install (or remove) the stage-walk scheduler. Returns the
    /// previous one. The scheduler survives [`Snapshot`] restores — it
    /// is harness state, not machine state.
    pub fn install_scheduler(
        &mut self,
        s: Option<Box<dyn StageScheduler>>,
    ) -> Option<Box<dyn StageScheduler>> {
        std::mem::replace(&mut self.scheduler, s)
    }

    /// Resolve a [`SchedPoint`] with `n` alternatives; `hw` is the
    /// hardware policy used when no scheduler is installed.
    fn sched_choose(&mut self, point: SchedPoint, n: usize, hw: usize) -> usize {
        match &mut self.scheduler {
            Some(s) => s.choose(point, n).min(n.saturating_sub(1)),
            None => hw,
        }
    }

    /// Callbacks currently parked in the writeback buffer (deferred
    /// because their Morph was mid-callback, or by a scheduler).
    pub fn pending_callbacks(&self) -> &[(TileId, MorphId, CallbackKind, Addr, Cycle)] {
        &self.pending_callbacks
    }

    /// Zero a line in the backing store (the controller zeroes phantom
    /// lines before invoking onMiss, Sec 4.3).
    pub fn zero_line(&mut self, line: Addr) {
        self.mem.write_bytes(line, &[0u8; LINE_BYTES as usize]);
    }

    /// The tiles named in a directory sharer mask, in ascending order:
    /// one step per set bit (lowest set bit, then clear it).
    fn sharer_tiles(mut mask: u64) -> impl Iterator<Item = usize> {
        std::iter::from_fn(move || {
            (mask != 0).then(|| {
                let tile = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                tile
            })
        })
    }

    // ------------------------------------------------------------------
    // Callback execution
    // ------------------------------------------------------------------

    /// Run `kind` for `morph_id` on `line` at `engine_tile`'s engine,
    /// arriving at `arrival`. Returns the callback's completion cycle.
    /// Once the outermost callback finishes, any events deferred while
    /// its Morph was busy are drained.
    pub fn run_callback(
        &mut self,
        engine_tile: TileId,
        morph_id: MorphId,
        kind: CallbackKind,
        line: Addr,
        arrival: Cycle,
    ) -> Cycle {
        let done = self.run_callback_inner(engine_tile, morph_id, kind, line, arrival);
        while self.callback_depth == 0 && !self.pending_callbacks.is_empty() {
            let n = self.pending_callbacks.len();
            let i = self.sched_choose(SchedPoint::DrainPick, n, n - 1);
            let (t, m, k, l, a) = self.pending_callbacks.remove(i);
            self.run_callback_inner(t, m, k, l, a.max(done));
        }
        done
    }

    fn run_callback_inner(
        &mut self,
        engine_tile: TileId,
        morph_id: MorphId,
        kind: CallbackKind,
        line: Addr,
        arrival: Cycle,
    ) -> Cycle {
        self.bus.observe_at(arrival, engine_tile);
        let Some(entry) = self.registry.entry(morph_id) else {
            return arrival;
        };
        if entry.quarantined.is_some() {
            // Graceful degradation: the event falls through to baseline
            // hardware behavior and the skipped callback is counted.
            self.bus.emit(TxnEvent::CallbackDegraded);
            return arrival;
        }
        let range = entry.range;
        let level = entry.level;
        let home_tile = entry.home_tile;
        // Injected fabric-capacity exhaustion: the engine cannot hold the
        // bitstream, so the Morph degrades before the callback starts.
        if self
            .bus
            .poll_fault_at(arrival, FaultKind::FabricExhaustion, engine_tile)
            .is_some()
        {
            self.quarantine_morph(morph_id, "fabric capacity exhausted");
            self.bus.emit(TxnEvent::CallbackDegraded);
            return arrival;
        }
        // A scheduler may park a ready callback in the writeback buffer
        // to explore trigger-vs-drain orderings; hardware never does.
        if self.scheduler.is_some() && self.sched_choose(SchedPoint::DeferCallback, 2, 0) == 1 {
            self.pending_callbacks
                .push((engine_tile, morph_id, kind, line, arrival));
            return arrival;
        }
        let Some(mut morph) = self.registry.checkout(morph_id) else {
            // The Morph is mid-callback and this event was triggered by
            // that callback's own traffic: the line waits in the
            // writeback buffer and the event runs when the engine frees.
            self.pending_callbacks
                .push((engine_tile, morph_id, kind, line, arrival));
            return arrival;
        };
        self.callback_depth += 1;
        // The paper sequentializes HATS's onMiss calls (Sec 8.2);
        // eviction-side callbacks interleave freely.
        let serialize = morph.serialize_callbacks() && kind == CallbackKind::OnMiss;
        // Take the engine out so the callback context can borrow both the
        // engine's fabric/L1d and the rest of the hierarchy. If this
        // engine is itself mid-callback (nested event on the same tile),
        // run on a transient engine with the same resources.
        let taken = self.engines[engine_tile].take();
        let is_temp = taken.is_none();
        let mut engine = taken.unwrap_or_else(|| Engine::new(self.cfg.engine));
        let start = engine.admit(morph_id, line, arrival, serialize, &mut self.bus.stats);
        self.bus.emit(TxnEvent::CallbackRun(kind));
        // Injected callback misbehavior, applied through the same ctx the
        // Morph uses so the timing and suppression paths are the real ones.
        let overrun = self
            .bus
            .poll_fault_at(start, FaultKind::CallbackOverrun, engine_tile);
        let illegal = self
            .bus
            .poll_fault_at(start, FaultKind::IllegalAction, engine_tile);
        let (result, violation) = {
            let mut ctx = EngineCtx::new(
                self,
                &mut engine,
                start,
                engine_tile,
                home_tile,
                line,
                kind,
                range,
                level,
                morph_id,
            );
            match kind {
                CallbackKind::OnMiss => morph.on_miss(&mut ctx),
                CallbackKind::OnEviction => morph.on_eviction(&mut ctx),
                CallbackKind::OnWriteback => morph.on_writeback(&mut ctx),
            }
            if let Some(n) = overrun {
                ctx.alu_chain(&[], n);
            }
            if illegal.is_some() {
                ctx.inject_illegal();
            }
            let violation = ctx.take_violation();
            (ctx.finish(), violation)
        };
        self.bus.emit(TxnEvent::EngineWork {
            instrs: result.instrs,
            mem_ops: result.mem_ops,
        });
        engine.complete(
            morph_id,
            line,
            start,
            result.completion,
            serialize,
            &mut self.bus.stats,
        );
        if !is_temp {
            self.engines[engine_tile] = Some(engine);
        }
        self.registry.checkin(morph_id, morph);
        self.callback_depth -= 1;
        if result.instrs > EngineConfig::CALLBACK_INSTR_BUDGET {
            self.quarantine_morph(morph_id, "callback instruction budget overrun");
        }
        if let Some(v) = violation {
            self.quarantine_morph(morph_id, format!("illegal callback action: {v}"));
        }
        tako_sim::span!(
            self.bus,
            tako_sim::trace::Stage::Callback,
            start,
            result.completion
        )
    }

    /// Quarantine a Morph (counted once per Morph). Its range keeps
    /// routing through the hierarchy but behaves like baseline hardware
    /// from here on.
    fn quarantine_morph(&mut self, id: MorphId, reason: impl Into<String>) {
        if self.registry.quarantine(id, reason) {
            self.bus.emit(TxnEvent::MorphQuarantined);
        }
    }
}

impl Drop for Hierarchy {
    /// While tracing is armed, flush the observer (and the callback
    /// latency `Stats` recorded) into the process-wide trace collector
    /// so `tako_sim::trace::drain` sees every system that ran. A
    /// supervised-only system leaves the collector alone.
    fn drop(&mut self) {
        if tako_sim::trace::armed() {
            if let Some(obs) = self.bus.take_observer() {
                tako_sim::trace::collect(*obs, &self.bus.stats);
            }
        }
    }
}

impl Snapshot for Hierarchy {
    /// The whole machine, component by component. Snapshots are taken at
    /// epoch boundaries — the only guaranteed quiescent points: no walk
    /// is in flight, every engine is checked in, `callback_depth` is
    /// zero. Structure (tile count, geometries, capacities) is rebuilt
    /// from config by [`Hierarchy::new`] and *verified* by each
    /// component's `load`, never restored, so resuming into a mismatched
    /// config fails loudly. The observer is not machine state and is
    /// never serialized: a traced and an untraced system that did the
    /// same work save the same bytes, and a restored system keeps
    /// whatever observer its own process attached at construction.
    fn save(&self, w: &mut SnapWriter) {
        w.section("hierarchy");
        self.bus.stats.save(w);
        self.bus.faults.save(w);
        self.mem.save(w);
        self.dram.save(w);
        self.mesh.save(w);
        w.put_len(self.tiles.len());
        for t in &self.tiles {
            t.l1d.save(w);
            t.l2.save(w);
            t.prefetcher.save(w);
        }
        w.put_len(self.llc.len());
        for bank in &self.llc {
            bank.save(w);
        }
        w.put_len(self.llc_next_free.len());
        for c in &self.llc_next_free {
            w.put_u64(*c);
        }
        self.registry.save(w);
        w.put_len(self.engines.len());
        for e in &self.engines {
            w.put_bool(e.is_some());
            if let Some(e) = e {
                e.save(w);
            }
        }
        w.put_len(self.interrupts.len());
        for i in &self.interrupts {
            w.put_usize(i.tile);
            w.put_u64(i.cycle);
            w.put_u64(i.line);
        }
        w.put_len(self.pending_callbacks.len());
        for (tile, morph, kind, line, at) in &self.pending_callbacks {
            w.put_usize(*tile);
            w.put_usize(*morph);
            w.put_u8(match kind {
                CallbackKind::OnMiss => 0,
                CallbackKind::OnEviction => 1,
                CallbackKind::OnWriteback => 2,
            });
            w.put_u64(*line);
            w.put_u64(*at);
        }
        w.put_usize(self.callback_depth);
        w.put_len(self.mshrs.len());
        for m in &self.mshrs {
            m.save(w);
        }
        self.watchdog.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("hierarchy")?;
        self.bus.stats.load(r)?;
        self.bus.faults.load(r)?;
        self.mem.load(r)?;
        self.dram.load(r)?;
        self.mesh.load(r)?;
        r.get_len_expect("tiles", self.tiles.len())?;
        for t in &mut self.tiles {
            t.l1d.load(r)?;
            t.l2.load(r)?;
            t.prefetcher.load(r)?;
        }
        r.get_len_expect("LLC banks", self.llc.len())?;
        for bank in &mut self.llc {
            bank.load(r)?;
        }
        r.get_len_expect("LLC bank ports", self.llc_next_free.len())?;
        for c in &mut self.llc_next_free {
            *c = r.get_u64()?;
        }
        self.registry.load(r)?;
        r.get_len_expect("engines", self.engines.len())?;
        for (i, e) in self.engines.iter_mut().enumerate() {
            let occupied = r.get_bool()?;
            if occupied != e.is_some() {
                return Err(SnapError::StateMismatch(format!(
                    "engine {i}: snapshot occupied={occupied}, rebuilt \
                     occupied={} (snapshot taken mid-callback?)",
                    e.is_some()
                )));
            }
            if let Some(e) = e {
                e.load(r)?;
            }
        }
        let n = r.get_len()?;
        self.interrupts.clear();
        for _ in 0..n {
            self.interrupts.push(Interrupt {
                tile: r.get_usize()?,
                cycle: r.get_u64()?,
                line: r.get_u64()?,
            });
        }
        let n = r.get_len()?;
        self.pending_callbacks.clear();
        for _ in 0..n {
            let tile = r.get_usize()?;
            let morph = r.get_usize()?;
            let kind = match r.get_u8()? {
                0 => CallbackKind::OnMiss,
                1 => CallbackKind::OnEviction,
                2 => CallbackKind::OnWriteback,
                tag => {
                    return Err(SnapError::StateMismatch(format!(
                        "unknown callback kind tag {tag}"
                    )))
                }
            };
            let line = r.get_u64()?;
            let at = r.get_u64()?;
            self.pending_callbacks.push((tile, morph, kind, line, at));
        }
        self.callback_depth = r.get_usize()?;
        r.get_len_expect("LLC MSHR files", self.mshrs.len())?;
        for m in &mut self.mshrs {
            m.load(r)?;
        }
        self.watchdog.load(r)?;
        Ok(())
    }
}
