//! The täkō system facade.
//!
//! [`TakoSystem`] is the public entry point: it owns the full
//! [`Hierarchy`], exposes the Morph programming interface of Sec 4
//! (`register_phantom`, `register_real`, `unregister`, `flush_data`), and
//! implements [`tako_cpu::MemSystem`] so any `ThreadProgram` runs on it.

use tako_cpu::{AccessKind, MemSystem};
use tako_mem::addr::{Addr, AddrRange, Allocator};
use tako_mem::backing::PhysMem;
use tako_sim::checkpoint::{self, SnapError, SnapReader, SnapWriter, Snapshot};
use tako_sim::config::SystemConfig;
use tako_sim::digest::Sha256;
use tako_sim::energy::{EnergyBreakdown, EnergyModel};
use tako_sim::stats::Stats;
use tako_sim::{Cycle, TileId};

use crate::error::TakoError;
use crate::hierarchy::{Hierarchy, Interrupt};
use crate::morph::{Morph, MorphEntry, MorphHandle, MorphLevel};

/// A complete simulated täkō system: the tiled CMP of Table 3 plus the
/// Morph registry, engines, and allocator.
pub struct TakoSystem {
    hier: Hierarchy,
    alloc: Allocator,
    energy: EnergyModel,
}

impl TakoSystem {
    /// Build an idle system from `cfg`.
    pub fn new(cfg: SystemConfig) -> Self {
        TakoSystem {
            hier: Hierarchy::new(cfg),
            alloc: Allocator::new(),
            energy: EnergyModel::default_params(),
        }
    }

    /// Build a system after validating `cfg`, rejecting configurations
    /// the hardware could not exist in (zero-way caches, non-power-of-two
    /// set counts, no DRAM controllers, ...).
    ///
    /// # Errors
    ///
    /// [`TakoError::InvalidConfig`] describing the first problem found.
    pub fn try_new(cfg: SystemConfig) -> Result<Self, TakoError> {
        cfg.validate()?;
        Ok(Self::new(cfg))
    }

    /// Post-run health verdict from the robustness machinery.
    ///
    /// # Errors
    ///
    /// [`TakoError::WatchdogStall`] if the watchdog flagged an access
    /// exceeding its stall bound; [`TakoError::CallbackQuarantined`] if
    /// any Morph was quarantined for a misbehaving callback. A clean run
    /// returns `Ok(())`.
    pub fn health(&self) -> Result<(), TakoError> {
        if let Some((latency, bound)) = self.hier.watchdog.stall() {
            return Err(TakoError::WatchdogStall { latency, bound });
        }
        if let Some((morph, reason)) = self.hier.registry.quarantined_morphs().next() {
            return Err(TakoError::CallbackQuarantined {
                morph,
                reason: reason.to_string(),
            });
        }
        Ok(())
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.hier.cfg
    }

    /// The underlying hierarchy (arrays, engines, registry) — exposed for
    /// tests and detailed inspection.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.hier
    }

    /// Mutable access to the hierarchy.
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.hier
    }

    /// The address-space allocator (for workload setup).
    pub fn allocator(&mut self) -> &mut Allocator {
        &mut self.alloc
    }

    /// Allocate DRAM-backed memory for workload data.
    pub fn alloc_real(&mut self, size: u64) -> AddrRange {
        self.alloc.alloc_real(size)
    }

    // ------------------------------------------------------------------
    // Morph interface (Sec 4)
    // ------------------------------------------------------------------

    fn check_capacity(&self, morph: &dyn Morph) -> Result<(), TakoError> {
        let available = self.hier.cfg.engine.instr_capacity();
        let required = morph.static_instrs();
        if required > available {
            return Err(TakoError::FabricCapacity {
                required,
                available,
            });
        }
        Ok(())
    }

    /// Allocate a phantom address range of `size` bytes and register
    /// `morph` on it at `level`, on behalf of `register_tile` (whose
    /// engine runs PRIVATE callbacks). Phantom data lives only in the
    /// caches; the callbacks define load/store semantics.
    ///
    /// # Errors
    ///
    /// [`TakoError::EmptyRange`] for `size == 0`;
    /// [`TakoError::FabricCapacity`] if the Morph's callbacks exceed the
    /// fabric's instruction memory.
    pub fn register_phantom_at(
        &mut self,
        register_tile: TileId,
        level: MorphLevel,
        size: u64,
        morph: Box<dyn Morph>,
    ) -> Result<MorphHandle, TakoError> {
        if size == 0 {
            return Err(TakoError::EmptyRange);
        }
        self.check_capacity(morph.as_ref())?;
        let range = self.alloc.alloc_phantom(size);
        // Registration flushes the range from the caches (Sec 4.1) —
        // even freshly allocated phantom addresses can be cached already
        // (prefetcher overshoot past a neighbouring range).
        self.hier.invalidate_range_everywhere(range, 0);
        let id = self.hier.registry.insert(MorphEntry {
            range,
            level,
            morph: Some(morph),
            home_tile: register_tile,
            quarantined: None,
        });
        Ok(MorphHandle::new(id, range, level))
    }

    /// [`TakoSystem::register_phantom_at`] registered from tile 0.
    ///
    /// # Errors
    ///
    /// See [`TakoSystem::register_phantom_at`].
    pub fn register_phantom(
        &mut self,
        level: MorphLevel,
        size: u64,
        morph: Box<dyn Morph>,
    ) -> Result<MorphHandle, TakoError> {
        self.register_phantom_at(0, level, size, morph)
    }

    /// Register `morph` on an existing DRAM-backed `range` (Sec 4.1's
    /// registerReal). Load-store semantics are preserved: `onMiss` runs
    /// in parallel with the fetch, `onWriteback` interposes before the
    /// writeback. The range is flushed first, as the paper requires.
    ///
    /// # Errors
    ///
    /// [`TakoError::RangeOverlap`] if another Morph covers any byte of
    /// `range`; [`TakoError::EmptyRange`] / [`TakoError::FabricCapacity`]
    /// as for phantom registration.
    pub fn register_real_at(
        &mut self,
        register_tile: TileId,
        level: MorphLevel,
        range: AddrRange,
        morph: Box<dyn Morph>,
        now: Cycle,
    ) -> Result<MorphHandle, TakoError> {
        if range.size == 0 {
            return Err(TakoError::EmptyRange);
        }
        self.check_capacity(morph.as_ref())?;
        if let Some(existing) = self.hier.registry.overlapping(range) {
            return Err(TakoError::RangeOverlap {
                requested: range,
                existing,
            });
        }
        // Registration flushes the range from the caches (Sec 4.1).
        self.hier.invalidate_range_everywhere(range, now);
        let id = self.hier.registry.insert(MorphEntry {
            range,
            level,
            morph: Some(morph),
            home_tile: register_tile,
            quarantined: None,
        });
        Ok(MorphHandle::new(id, range, level))
    }

    /// [`TakoSystem::register_real_at`] registered from tile 0 at cycle 0.
    ///
    /// # Errors
    ///
    /// See [`TakoSystem::register_real_at`].
    pub fn register_real(
        &mut self,
        level: MorphLevel,
        range: AddrRange,
        morph: Box<dyn Morph>,
    ) -> Result<MorphHandle, TakoError> {
        self.register_real_at(0, level, range, morph, 0)
    }

    /// Unregister a Morph: flush its range (triggering final callbacks),
    /// remove the registration, and shoot down engine rTLBs. Returns the
    /// Morph object and the completion cycle.
    ///
    /// # Errors
    ///
    /// [`TakoError::NotRegistered`] if the handle is stale.
    pub fn unregister(
        &mut self,
        handle: MorphHandle,
        now: Cycle,
    ) -> Result<(Box<dyn Morph>, Cycle), TakoError> {
        let entry = self
            .hier
            .registry
            .entry(handle.id())
            .ok_or(TakoError::NotRegistered)?;
        let tile = entry.home_tile;
        let done = self.hier.flush_range(tile, handle.range(), now);
        let entry = self
            .hier
            .registry
            .remove(handle.id())
            .ok_or(TakoError::NotRegistered)?;
        for engine in self.hier.engines.iter_mut().flatten() {
            engine.forget_morph(handle.id());
            engine.rtlb.shootdown();
        }
        let morph = entry.morph.ok_or(TakoError::NotRegistered)?;
        Ok((morph, done))
    }

    /// täkō's flushData (Sec 4.4): flush every cached line of the Morph's
    /// range, blocking until all callbacks complete. Returns that cycle.
    pub fn flush_data(&mut self, handle: MorphHandle, now: Cycle) -> Cycle {
        let tile = self
            .hier
            .registry
            .entry(handle.id())
            .map(|e| e.home_tile)
            .unwrap_or(0);
        self.hier.flush_range(tile, handle.range(), now)
    }

    /// Borrow a registered Morph's object for inspection (e.g., reading
    /// application-level results accumulated in Morph-local state).
    pub fn with_morph<R>(
        &mut self,
        handle: MorphHandle,
        f: impl FnOnce(&mut dyn Morph) -> R,
    ) -> Option<R> {
        let mut m = self.hier.registry.checkout(handle.id())?;
        let r = f(m.as_mut());
        self.hier.registry.checkin(handle.id(), m);
        Some(r)
    }

    // ------------------------------------------------------------------
    // Results & inspection
    // ------------------------------------------------------------------

    /// Interrupts raised so far, draining the queue.
    pub fn take_interrupts(&mut self) -> Vec<Interrupt> {
        std::mem::take(&mut self.hier.interrupts)
    }

    /// Statistics (immutable view).
    pub fn stats_view(&self) -> &Stats {
        &self.hier.bus.stats
    }

    /// Dynamic energy of everything simulated so far.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy.tally(&self.hier.bus.stats)
    }

    /// The observability observer attached to the accounting bus, when
    /// tracing (`tako_sim::trace::arm`) or supervision on this thread
    /// (`tako_sim::supervise::arm`) was armed before this system was
    /// built. `None` otherwise; restoring a snapshot never changes it.
    pub fn observer(&self) -> Option<&tako_sim::trace::Observer> {
        self.hier.bus.observer()
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume
    // ------------------------------------------------------------------

    /// A short fingerprint of the configuration, embedded in every
    /// snapshot so a resume into a differently parameterized system is
    /// rejected before any component state is touched.
    fn config_fingerprint(cfg: &SystemConfig) -> String {
        let mut h = Sha256::new();
        h.update(format!("{cfg:?}").as_bytes());
        let d = h.finish();
        d[..8].iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Serialize the entire system — hierarchy, allocator, and config
    /// fingerprint — into a versioned, checksummed snapshot envelope.
    /// Call only at a quiescent point (between accesses).
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        checkpoint::encode(self)
    }

    /// Restore a snapshot produced by [`TakoSystem::snapshot_bytes`]
    /// into this freshly built system. The caller must first rebuild the
    /// system from the *same configuration* and re-register the same
    /// Morphs in the same order — object structure (geometries, engine
    /// fabrics, Morph code) is reconstructed from config, then verified
    /// against the snapshot; only mutable state is restored.
    ///
    /// # Errors
    ///
    /// [`TakoError::BadSnapshot`] on a corrupt or truncated envelope,
    /// version skew, or any component whose rebuilt structure contradicts
    /// the snapshot (wrong geometry, missing Morph, config mismatch).
    pub fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), TakoError> {
        checkpoint::decode(bytes, self)?;
        Ok(())
    }

    /// Functional read of a `u64` *with timing*, as a one-off core access
    /// from `tile` at cycle `now` (useful in tests and docs). Returns the
    /// value and the completion cycle.
    pub fn debug_read_u64(&mut self, tile: TileId, addr: Addr, now: Cycle) -> (u64, Cycle) {
        let done = self.hier.core_access(tile, AccessKind::Read, addr, now);
        (self.hier.mem.read_u64(addr), done)
    }
}

impl Snapshot for TakoSystem {
    fn save(&self, w: &mut SnapWriter) {
        w.section("tako");
        w.put_str(&Self::config_fingerprint(&self.hier.cfg));
        self.alloc.save(w);
        self.hier.save(w);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("tako")?;
        let fp = r.get_str()?;
        let ours = Self::config_fingerprint(&self.hier.cfg);
        if fp != ours {
            return Err(SnapError::StateMismatch(format!(
                "config fingerprint: snapshot {fp}, rebuilt {ours}"
            )));
        }
        self.alloc.load(r)?;
        self.hier.load(r)?;
        Ok(())
    }
}

impl MemSystem for TakoSystem {
    fn data(&mut self) -> &mut PhysMem {
        &mut self.hier.mem
    }

    fn timed_access(&mut self, tile: TileId, kind: AccessKind, addr: Addr, now: Cycle) -> Cycle {
        self.hier.core_access(tile, kind, addr, now)
    }

    fn timed_flush(&mut self, tile: TileId, range: AddrRange, now: Cycle) -> Cycle {
        self.hier.flush_range(tile, range, now)
    }

    #[inline]
    fn stats(&mut self) -> &mut Stats {
        &mut self.hier.bus.stats
    }

    fn timed_demote(&mut self, tile: TileId, addr: Addr, now: Cycle) -> Cycle {
        self.hier.demote_line(tile, addr);
        now
    }

    fn take_interrupt(&mut self, tile: TileId) -> Option<Cycle> {
        let pos = self.hier.interrupts.iter().position(|i| i.tile == tile)?;
        Some(self.hier.interrupts.remove(pos).cycle)
    }
}
