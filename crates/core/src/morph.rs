//! The Morph programming interface and registry (Sec 4).
//!
//! A [`Morph`] bundles the callbacks (and any local state) that define a
//! polymorphic cache hierarchy instance. Registering it associates the
//! callbacks with an address range at the private L2 or the shared LLC;
//! the [`MorphRegistry`] is the simulator's model of the TLB registration
//! bits (Sec 5.1) plus the OS-side table of registered ranges (Sec 6).

use tako_mem::addr::{Addr, AddrRange};

use crate::ctx::EngineCtx;

// Defined with the accounting events, which tag callback dispatch with it.
pub use tako_sim::event::CallbackKind;

/// Identifier of a registered Morph.
pub type MorphId = usize;

/// Where a Morph's callbacks run (Sec 4.1): täkō supports the private L2
/// and the shared LLC, but not the L1 (too tightly coupled to the core)
/// or the memory controller (below the coherence protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MorphLevel {
    /// Registered at the requesting tile's private L2.
    Private,
    /// Registered at the shared LLC (callbacks run at the owning bank's
    /// engine).
    Shared,
}

/// A polymorphic cache hierarchy instance: callbacks plus local state.
///
/// All callbacks default to doing nothing, so a Morph implements only the
/// events it cares about (e.g., the side-channel detector implements only
/// [`Morph::on_eviction`], Table 7). Callback code runs on the engine's
/// dataflow fabric; every operation performed through the [`EngineCtx`]
/// is timed by the fabric model.
///
/// Callbacks should follow the paper's restrictions (Sec 4.3): `on_miss`
/// and `on_eviction` should write only the affected line and Morph-local
/// state; callbacks must not access data with a Morph registered at the
/// same or a higher level of the hierarchy. The restriction is enforced:
/// the context suppresses the illegal access and the hierarchy
/// quarantines the offending Morph, degrading its range to baseline
/// hardware behavior (mirroring the architecture's deadlock rule without
/// taking the simulation down).
pub trait Morph {
    /// Short name for diagnostics.
    fn name(&self) -> &str;

    /// Handle a miss on `ctx.addr()` (Table 1: generates data for the
    /// requested address).
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let _ = ctx;
    }

    /// Handle the eviction of an unmodified line.
    fn on_eviction(&mut self, ctx: &mut EngineCtx<'_>) {
        let _ = ctx;
    }

    /// Handle the eviction of a modified line.
    fn on_writeback(&mut self, ctx: &mut EngineCtx<'_>) {
        let _ = ctx;
    }

    /// Static fabric instructions this Morph's callbacks occupy (checked
    /// against Table 2's 25 PEs × 16 instructions at registration). The
    /// paper's largest Morph (HATS) uses 94.
    fn static_instrs(&self) -> u32 {
        32
    }

    /// If true, the engine serializes this Morph's callbacks with respect
    /// to each other (not just per line). HATS uses this to simplify
    /// contention on its shared traversal stack (Sec 8.2).
    fn serialize_callbacks(&self) -> bool {
        false
    }

    /// Serialize Morph-local mutable state into a checkpoint. Morphs
    /// whose callbacks keep no state outside simulated memory (the
    /// common case — counters and work lists usually live in phantom or
    /// real ranges, which the backing store snapshots) can keep the
    /// default, which writes nothing.
    fn save_state(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        let _ = w;
    }

    /// Restore state written by [`Morph::save_state`]. The registry
    /// frames each Morph's bytes, so a Morph that reads more or less
    /// than it wrote fails the resume loudly instead of corrupting its
    /// neighbours.
    fn load_state(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// A registered Morph, as returned by `register_*`. Software threads use
/// the handle to flush or unregister the Morph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorphHandle {
    id: MorphId,
    range: AddrRange,
    level: MorphLevel,
}

impl MorphHandle {
    pub(crate) fn new(id: MorphId, range: AddrRange, level: MorphLevel) -> Self {
        MorphHandle { id, range, level }
    }

    /// The registry id.
    pub fn id(&self) -> MorphId {
        self.id
    }

    /// The address range the Morph is registered on.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// The registration level.
    pub fn level(&self) -> MorphLevel {
        self.level
    }
}

pub(crate) struct MorphEntry {
    pub range: AddrRange,
    pub level: MorphLevel,
    /// `None` while the Morph is checked out for callback execution.
    pub morph: Option<Box<dyn Morph>>,
    /// The tile whose engine runs PRIVATE callbacks (the registering
    /// tile). Unused for SHARED Morphs, whose callbacks run at the owning
    /// bank.
    pub home_tile: usize,
    /// Why this Morph was quarantined, or `None` while healthy. A
    /// quarantined Morph stays registered (so its range keeps routing
    /// through the hierarchy) but its callbacks are skipped and its
    /// range behaves like baseline SRRIP hardware.
    pub quarantined: Option<String>,
}

/// The table of registered Morphs: models the TLB registration bits and
/// the OS bookkeeping of Sec 6.
#[derive(Default)]
pub struct MorphRegistry {
    entries: Vec<Option<MorphEntry>>,
}

impl MorphRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MorphRegistry {
            entries: Vec::new(),
        }
    }

    /// Find the registration covering `range`, if any overlaps.
    pub fn overlapping(&self, range: AddrRange) -> Option<AddrRange> {
        self.entries
            .iter()
            .flatten()
            .map(|e| e.range)
            .find(|r| r.overlaps(&range))
    }

    pub(crate) fn insert(&mut self, entry: MorphEntry) -> MorphId {
        if let Some(i) = self.entries.iter().position(|e| e.is_none()) {
            self.entries[i] = Some(entry);
            i
        } else {
            self.entries.push(Some(entry));
            self.entries.len() - 1
        }
    }

    pub(crate) fn remove(&mut self, id: MorphId) -> Option<MorphEntry> {
        self.entries.get_mut(id)?.take()
    }

    pub(crate) fn entry(&self, id: MorphId) -> Option<&MorphEntry> {
        self.entries.get(id)?.as_ref()
    }

    /// The Morph covering `addr`, with its level — the per-access lookup
    /// the TLB bits provide (two bits per page in hardware; a scan over
    /// the handful of live registrations here).
    #[inline]
    pub fn lookup(&self, addr: Addr) -> Option<(MorphId, MorphLevel)> {
        self.entries.iter().enumerate().find_map(|(i, e)| {
            let e = e.as_ref()?;
            e.range.contains(addr).then_some((i, e.level))
        })
    }

    /// Check out the Morph object for callback execution (hardware
    /// analogy: the bitstream is loaded on the fabric).
    pub(crate) fn checkout(&mut self, id: MorphId) -> Option<Box<dyn Morph>> {
        self.entries.get_mut(id)?.as_mut()?.morph.take()
    }

    /// Return a checked-out Morph object.
    pub(crate) fn checkin(&mut self, id: MorphId, morph: Box<dyn Morph>) {
        if let Some(Some(e)) = self.entries.get_mut(id) {
            debug_assert!(e.morph.is_none(), "double check-in");
            e.morph = Some(morph);
        }
    }

    /// Quarantine a Morph after a callback fault. Returns true the
    /// first time (so the caller counts each Morph once); the first
    /// reason sticks.
    pub(crate) fn quarantine(&mut self, id: MorphId, reason: impl Into<String>) -> bool {
        match self.entries.get_mut(id) {
            Some(Some(e)) if e.quarantined.is_none() => {
                e.quarantined = Some(reason.into());
                true
            }
            _ => false,
        }
    }

    /// The quarantine reason for `id`, if it has been quarantined.
    pub fn quarantined(&self, id: MorphId) -> Option<&str> {
        self.entries.get(id)?.as_ref()?.quarantined.as_deref()
    }

    /// All quarantined Morphs, as `(id, reason)`.
    pub fn quarantined_morphs(&self) -> impl Iterator<Item = (MorphId, &str)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| Some((i, e.as_ref()?.quarantined.as_deref()?)))
    }

    /// Number of live registrations.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl tako_sim::checkpoint::Snapshot for MorphRegistry {
    /// Boxed Morph objects cannot be rebuilt from bytes; a resume
    /// re-registers the same Morphs first (structure comes from the
    /// driver), then this load verifies every slot matches the snapshot
    /// — range, level, home tile — and restores the mutable bits:
    /// quarantine status and each Morph's [`Morph::save_state`] payload.
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("registry");
        w.put_len(self.entries.len());
        for slot in &self.entries {
            w.put_bool(slot.is_some());
            let Some(e) = slot else { continue };
            w.put_u64(e.range.base);
            w.put_u64(e.range.size);
            w.put_u8(match e.level {
                MorphLevel::Private => 0,
                MorphLevel::Shared => 1,
            });
            w.put_usize(e.home_tile);
            w.put_bool(e.quarantined.is_some());
            w.put_str(e.quarantined.as_deref().unwrap_or(""));
            // Frame the Morph's own state so a buggy save/load pair
            // cannot desynchronize the rest of the snapshot.
            let mut state = tako_sim::checkpoint::SnapWriter::new();
            if let Some(m) = &e.morph {
                m.save_state(&mut state);
            }
            w.put_bytes(state.as_bytes());
        }
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        use tako_sim::checkpoint::{SnapError, SnapReader};
        r.section("registry")?;
        r.get_len_expect("morph registry slots", self.entries.len())?;
        for (i, slot) in self.entries.iter_mut().enumerate() {
            let occupied = r.get_bool()?;
            if occupied != slot.is_some() {
                return Err(SnapError::StateMismatch(format!(
                    "morph slot {i}: snapshot occupied={occupied}, rebuilt occupied={}",
                    slot.is_some()
                )));
            }
            let Some(e) = slot else { continue };
            let range = AddrRange {
                base: r.get_u64()?,
                size: r.get_u64()?,
            };
            let level = match r.get_u8()? {
                0 => MorphLevel::Private,
                1 => MorphLevel::Shared,
                x => {
                    return Err(SnapError::StateMismatch(format!(
                        "morph slot {i}: unknown level tag {x}"
                    )))
                }
            };
            let home_tile = r.get_usize()?;
            if range != e.range || level != e.level || home_tile != e.home_tile {
                return Err(SnapError::StateMismatch(format!(
                    "morph slot {i}: snapshot ({range:?}, {level:?}, tile {home_tile}) \
                     does not match re-registration ({:?}, {:?}, tile {})",
                    e.range, e.level, e.home_tile
                )));
            }
            let has_quarantine = r.get_bool()?;
            let reason = r.get_str()?;
            e.quarantined = has_quarantine.then_some(reason);
            let state = r.get_bytes()?;
            let mut sr = SnapReader::new(state);
            if let Some(m) = &mut e.morph {
                m.load_state(&mut sr)?;
            }
            sr.finish()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Morph for Nop {
        fn name(&self) -> &str {
            "nop"
        }
    }

    fn entry(base: Addr, size: u64, level: MorphLevel) -> MorphEntry {
        MorphEntry {
            range: AddrRange::new(base, size),
            level,
            morph: Some(Box::new(Nop)),
            home_tile: 0,
            quarantined: None,
        }
    }

    #[test]
    fn insert_lookup_remove() {
        let mut r = MorphRegistry::new();
        let a = r.insert(entry(0x1000, 0x100, MorphLevel::Private));
        let b = r.insert(entry(0x2000, 0x100, MorphLevel::Shared));
        assert_eq!(r.len(), 2);
        assert_eq!(r.lookup(0x1010), Some((a, MorphLevel::Private)));
        assert_eq!(r.lookup(0x20FF), Some((b, MorphLevel::Shared)));
        assert_eq!(r.lookup(0x3000), None);
        assert!(r.remove(a).is_some());
        assert_eq!(r.lookup(0x1010), None);
        assert!(r.remove(a).is_none());
        // Freed slots are reused.
        let c = r.insert(entry(0x3000, 0x40, MorphLevel::Private));
        assert_eq!(c, a);
    }

    #[test]
    fn overlap_detection() {
        let mut r = MorphRegistry::new();
        r.insert(entry(0x1000, 0x100, MorphLevel::Private));
        assert!(r.overlapping(AddrRange::new(0x10FF, 1)).is_some());
        assert!(r.overlapping(AddrRange::new(0x1100, 64)).is_none());
    }

    #[test]
    fn checkout_checkin() {
        let mut r = MorphRegistry::new();
        let id = r.insert(entry(0, 64, MorphLevel::Private));
        let m = r.checkout(id).expect("morph present");
        assert!(r.checkout(id).is_none(), "double checkout");
        // Lookup still works while checked out (TLB bits stay set).
        assert!(r.lookup(0).is_some());
        r.checkin(id, m);
        assert!(r.checkout(id).is_some());
    }

    #[test]
    fn quarantine_is_sticky_and_counted_once() {
        let mut r = MorphRegistry::new();
        let id = r.insert(entry(0, 64, MorphLevel::Private));
        assert_eq!(r.quarantined(id), None);
        assert!(r.quarantine(id, "budget overrun"));
        assert!(!r.quarantine(id, "illegal action"), "second is a no-op");
        assert_eq!(r.quarantined(id), Some("budget overrun"));
        // Lookup still resolves (the range stays registered, degraded).
        assert!(r.lookup(0).is_some());
        assert_eq!(
            r.quarantined_morphs().collect::<Vec<_>>(),
            vec![(id, "budget overrun")]
        );
        assert!(!r.quarantine(999, "nonexistent"));
    }

    #[test]
    fn default_callbacks_are_noops() {
        let mut n = Nop;
        assert_eq!(n.static_instrs(), 32);
        assert!(!n.serialize_callbacks());
        let _ = &mut n; // on_miss etc. exercised in integration tests
    }
}
