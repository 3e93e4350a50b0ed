//! The per-tile täkō engine: hardware scheduler + dataflow fabric (Sec 5.3).
//!
//! Each tile's engine runs all callbacks for that tile's L2 and LLC bank.
//! It consists of:
//!
//! * a **callback buffer** of `callback_buffer` entries — a callback
//!   occupies one entry from admission to completion; when the buffer is
//!   full, arriving callbacks queue (for evictions, the registered line
//!   occupies a writeback-buffer entry until a slot frees up);
//! * **per-line locking** — the address that triggered a callback is
//!   locked until the callback completes; later operations on the same
//!   line wait (Sec 4.3);
//! * a **bitstream cache** mapping Morphs to fabric configurations; a
//!   callback whose bitstream is not loaded pays a reconfiguration
//!   penalty;
//! * an **rTLB** for reverse (physical→virtual) translation of the
//!   triggering address, plus a small TLB for other data (Sec 6);
//! * the engine's coherent **L1d** and the **dataflow fabric**
//!   (`tako-dataflow`), shared by all concurrent callbacks.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use tako_cache::CacheArray;
use tako_dataflow::Fabric;
use tako_mem::addr::Addr;
use tako_sim::config::EngineConfig;
use tako_sim::stats::{Counter, Stats};
use tako_sim::Cycle;

use crate::morph::MorphId;

/// Cycles to load a callback bitstream onto the fabric when it is not in
/// the bitstream cache.
pub const BITSTREAM_LOAD_CYCLES: Cycle = 16;
/// Cycles for a reverse-translation walk on an rTLB miss.
pub const RTLB_WALK_CYCLES: Cycle = 30;
/// Morphs whose bitstreams stay resident on the fabric.
const BITSTREAM_CACHE_SLOTS: usize = 4;
/// Simulated page size for the rTLB (the paper uses 2 MB pages, Sec 9).
pub const RTLB_PAGE_BITS: u32 = 21;
/// Write-combining buffers per engine.
pub const WC_BUFFERS: usize = 8;

/// A small fully-associative LRU reverse TLB.
#[derive(Debug, Clone)]
pub struct Rtlb {
    capacity: usize,
    entries: HashMap<u64, u64>,
    clock: u64,
}

impl Rtlb {
    /// An rTLB with `capacity` entries, at least one
    /// (`SystemConfig::validate` rejects zero).
    pub fn new(capacity: usize) -> Self {
        Rtlb {
            capacity,
            entries: HashMap::new(),
            clock: 0,
        }
    }

    /// Translate the page of `addr`; returns true on a hit. Misses
    /// install the translation (evicting the LRU entry when full).
    pub fn access(&mut self, addr: Addr) -> bool {
        let page = addr >> RTLB_PAGE_BITS;
        self.clock += 1;
        let clock = self.clock;
        if let Some(stamp) = self.entries.get_mut(&page) {
            *stamp = clock;
            return true;
        }
        if self.entries.len() >= self.capacity {
            if let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, &s)| s) {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(page, clock);
        false
    }

    /// Drop all translations (TLB shootdown on register/unregister).
    pub fn shootdown(&mut self) {
        self.entries.clear();
    }
}

/// The engine's hardware scheduler state plus its fabric and L1d.
pub struct Engine {
    cfg: EngineConfig,
    /// The spatial dataflow fabric executing callbacks.
    pub fabric: Fabric,
    /// The engine's coherent L1 data cache.
    pub l1d: CacheArray,
    /// Reverse TLB for triggering addresses.
    pub rtlb: Rtlb,
    /// Write-combining buffers for engine streaming stores (line
    /// addresses, oldest first; x86-class cores have ~8-10).
    pub wc_lines: Vec<Addr>,
    slots: BinaryHeap<Reverse<Cycle>>,
    /// Slots borrowed while the buffer was oversubscribed (more nested
    /// concurrent callbacks than `callback_buffer` entries). Repaid in
    /// [`Engine::complete`]; zero at every quiescent point, so it is
    /// not serialized.
    slot_debt: usize,
    line_locks: HashMap<Addr, Cycle>,
    morph_last: HashMap<MorphId, Cycle>,
    bitstreams: Vec<MorphId>,
    callbacks_run: u64,
}

impl Engine {
    /// An idle engine with `cfg`'s resources; `cfg` must have at least
    /// one callback-buffer entry and one rTLB entry
    /// (`SystemConfig::validate` rejects zero).
    pub fn new(cfg: EngineConfig) -> Self {
        let mut slots = BinaryHeap::new();
        for _ in 0..cfg.callback_buffer {
            slots.push(Reverse(0));
        }
        Engine {
            fabric: Fabric::new(cfg),
            l1d: CacheArray::new(cfg.l1d),
            rtlb: Rtlb::new(cfg.rtlb_entries as usize),
            wc_lines: Vec::with_capacity(WC_BUFFERS),
            slots,
            slot_debt: 0,
            line_locks: HashMap::new(),
            morph_last: HashMap::new(),
            bitstreams: Vec::new(),
            callbacks_run: 0,
            cfg,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Total callbacks executed.
    pub fn callbacks_run(&self) -> u64 {
        self.callbacks_run
    }

    /// Admit a callback that arrived at `arrival`: returns the cycle its
    /// execution may begin, after waiting for a callback-buffer slot, the
    /// line lock, optional Morph-level serialization, the bitstream load,
    /// and the rTLB.
    pub fn admit(
        &mut self,
        morph: MorphId,
        line: Addr,
        arrival: Cycle,
        serialize: bool,
        stats: &mut Stats,
    ) -> Cycle {
        // Callback-buffer slot: one entry held until completion. With
        // more nested concurrent callbacks than buffer entries the pop
        // fails; hardware would backpressure the writeback buffer, so
        // degrade by borrowing a slot (repaid in `complete`) and
        // charging a full-buffer stall instead of panicking.
        let slot_free = match self.slots.pop() {
            Some(Reverse(c)) => c,
            None => {
                self.slot_debt += 1;
                arrival + 1
            }
        };
        let mut start = arrival.max(slot_free);
        if slot_free > arrival {
            stats.bump(Counter::CbBufferFull);
            stats.add(Counter::CbBufferStallCycles, slot_free - arrival);
        }
        // Per-line lock (Sec 4.3: the cache controller serializes
        // operations on each address).
        if let Some(&locked_until) = self.line_locks.get(&line) {
            start = start.max(locked_until);
        }
        // Optional whole-Morph serialization (HATS).
        if serialize {
            if let Some(&last) = self.morph_last.get(&morph) {
                start = start.max(last);
            }
        }
        // Bitstream cache.
        if let Some(pos) = self.bitstreams.iter().position(|&m| m == morph) {
            let id = self.bitstreams.remove(pos);
            self.bitstreams.push(id);
        } else {
            self.bitstreams.push(morph);
            if self.bitstreams.len() > BITSTREAM_CACHE_SLOTS {
                self.bitstreams.remove(0);
            }
            start += BITSTREAM_LOAD_CYCLES;
        }
        // Reverse translation of the triggering address (eagerly filled
        // for onMiss; hit ratios are very high, Sec 6).
        if self.rtlb.access(line) {
            stats.bump(Counter::RtlbHit);
        } else {
            stats.bump(Counter::RtlbMiss);
            start += RTLB_WALK_CYCLES;
        }
        start
    }

    /// Record a callback's completion: frees its buffer slot, updates the
    /// line lock and serialization cursor, and tallies statistics.
    pub fn complete(
        &mut self,
        morph: MorphId,
        line: Addr,
        start: Cycle,
        completion: Cycle,
        serialize: bool,
        stats: &mut Stats,
    ) {
        if self.slot_debt > 0 {
            self.slot_debt -= 1;
        } else {
            self.slots.push(Reverse(completion));
        }
        self.line_locks.insert(line, completion);
        if serialize {
            self.morph_last
                .entry(morph)
                .and_modify(|c| *c = (*c).max(completion))
                .or_insert(completion);
        }
        self.callbacks_run += 1;
        stats
            .callback_latency
            .record(completion.saturating_sub(start));
        if self.line_locks.len() > 8192 {
            let horizon = start;
            self.line_locks.retain(|_, &mut c| c > horizon);
        }
    }

    /// The cycle the line is locked until, if a callback is (or was)
    /// running on it.
    pub fn locked_until(&self, line: Addr) -> Option<Cycle> {
        self.line_locks.get(&line).copied()
    }

    /// Drop scheduler history (used when a Morph is unregistered).
    pub fn forget_morph(&mut self, morph: MorphId) {
        self.morph_last.remove(&morph);
        self.bitstreams.retain(|&m| m != morph);
    }
}

impl tako_sim::checkpoint::Snapshot for Rtlb {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("rtlb");
        w.put_usize(self.capacity);
        w.put_u64(self.clock);
        let mut entries: Vec<(u64, u64)> = self.entries.iter().map(|(p, s)| (*p, *s)).collect();
        entries.sort_unstable();
        w.put_len(entries.len());
        for (page, stamp) in entries {
            w.put_u64(page);
            w.put_u64(stamp);
        }
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        use tako_sim::checkpoint::SnapError;
        r.section("rtlb")?;
        let capacity = r.get_usize()?;
        if capacity != self.capacity {
            return Err(SnapError::StateMismatch(format!(
                "rTLB capacity: snapshot {capacity}, rebuilt {}",
                self.capacity
            )));
        }
        self.clock = r.get_u64()?;
        let n = r.get_len()?;
        self.entries.clear();
        for _ in 0..n {
            let page = r.get_u64()?;
            let stamp = r.get_u64()?;
            self.entries.insert(page, stamp);
        }
        Ok(())
    }
}

impl tako_sim::checkpoint::Snapshot for Engine {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("engine");
        self.fabric.save(w);
        self.l1d.save(w);
        self.rtlb.save(w);
        w.put_len(self.wc_lines.len());
        for l in &self.wc_lines {
            w.put_u64(*l);
        }
        // Callback-buffer slots: heap order is arbitrary, write sorted.
        let mut slots: Vec<Cycle> = self.slots.iter().map(|Reverse(c)| *c).collect();
        slots.sort_unstable();
        w.put_len(slots.len());
        for c in slots {
            w.put_u64(c);
        }
        let mut locks: Vec<(Addr, Cycle)> = self.line_locks.iter().map(|(a, c)| (*a, *c)).collect();
        locks.sort_unstable();
        w.put_len(locks.len());
        for (a, c) in locks {
            w.put_u64(a);
            w.put_u64(c);
        }
        let mut last: Vec<(MorphId, Cycle)> =
            self.morph_last.iter().map(|(m, c)| (*m, *c)).collect();
        last.sort_unstable();
        w.put_len(last.len());
        for (m, c) in last {
            w.put_usize(m);
            w.put_u64(c);
        }
        // Bitstream-cache order is LRU state: preserved verbatim.
        w.put_len(self.bitstreams.len());
        for m in &self.bitstreams {
            w.put_usize(*m);
        }
        w.put_u64(self.callbacks_run);
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        r.section("engine")?;
        self.fabric.load(r)?;
        self.l1d.load(r)?;
        self.rtlb.load(r)?;
        let n = r.get_len()?;
        self.wc_lines.clear();
        for _ in 0..n {
            self.wc_lines.push(r.get_u64()?);
        }
        let n = r.get_len_expect("callback-buffer slots", self.slots.len())?;
        let mut slots = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            slots.push(Reverse(r.get_u64()?));
        }
        self.slots = slots;
        let n = r.get_len()?;
        self.line_locks.clear();
        for _ in 0..n {
            let a = r.get_u64()?;
            let c = r.get_u64()?;
            self.line_locks.insert(a, c);
        }
        let n = r.get_len()?;
        self.morph_last.clear();
        for _ in 0..n {
            let m = r.get_usize()?;
            let c = r.get_u64()?;
            self.morph_last.insert(m, c);
        }
        let n = r.get_len()?;
        self.bitstreams.clear();
        for _ in 0..n {
            self.bitstreams.push(r.get_usize()?);
        }
        self.callbacks_run = r.get_u64()?;
        Ok(())
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("callbacks_run", &self.callbacks_run)
            .field("outstanding_locks", &self.line_locks.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(EngineConfig::default_5x5())
    }

    #[test]
    fn rtlb_hit_miss_lru() {
        let mut r = Rtlb::new(2);
        let page = 1u64 << RTLB_PAGE_BITS;
        assert!(!r.access(0));
        assert!(r.access(0));
        assert!(!r.access(page));
        assert!(!r.access(2 * page)); // evicts page 0 (LRU)
        assert!(!r.access(0));
        r.shootdown();
        assert!(!r.access(2 * page));
    }

    #[test]
    fn admit_charges_bitstream_once() {
        let mut e = engine();
        let mut s = Stats::new();
        let s1 = e.admit(0, 0, 1000, false, &mut s);
        assert_eq!(s1, 1000 + BITSTREAM_LOAD_CYCLES + RTLB_WALK_CYCLES);
        e.complete(0, 0, s1, s1 + 10, false, &mut s);
        // Same Morph, different line in the same page: warm bitstream+rTLB.
        let s2 = e.admit(0, 64, 2000, false, &mut s);
        assert_eq!(s2, 2000);
    }

    #[test]
    fn line_lock_serializes_same_line() {
        let mut e = engine();
        let mut s = Stats::new();
        let s1 = e.admit(0, 0, 0, false, &mut s);
        e.complete(0, 0, s1, s1 + 100, false, &mut s);
        let s2 = e.admit(0, 0, 0, false, &mut s);
        assert!(s2 >= s1 + 100, "second callback on same line must wait");
        let s3 = e.admit(0, 64, 0, false, &mut s);
        assert!(s3 < s1 + 100, "different line need not wait");
    }

    #[test]
    fn buffer_slots_backpressure() {
        let mut cfg = EngineConfig::default_5x5();
        cfg.callback_buffer = 1;
        let mut e = Engine::new(cfg);
        let mut s = Stats::new();
        let s1 = e.admit(0, 0, 0, false, &mut s);
        e.complete(0, 0, s1, s1 + 500, false, &mut s);
        let s2 = e.admit(0, 64, 0, false, &mut s);
        assert!(s2 >= s1 + 500, "single-entry buffer serializes callbacks");
        assert!(s.get(Counter::CbBufferFull) > 0);
        assert!(s.get(Counter::CbBufferStallCycles) > 0);
    }

    #[test]
    fn morph_serialization_flag() {
        let mut e = engine();
        let mut s = Stats::new();
        let s1 = e.admit(3, 0, 0, true, &mut s);
        e.complete(3, 0, s1, s1 + 200, true, &mut s);
        let s2 = e.admit(3, 640, 0, true, &mut s);
        assert!(s2 >= s1 + 200, "serialized Morph waits across lines");
    }

    #[test]
    fn bitstream_cache_eviction() {
        let mut e = engine();
        let mut s = Stats::new();
        // Load 5 distinct morphs into the 4-slot cache; morph 0 evicted.
        for m in 0..5 {
            let st = e.admit(m, m as u64 * 64, 0, false, &mut s);
            e.complete(m, m as u64 * 64, st, st, false, &mut s);
        }
        let warm = e.admit(4, 4 * 64, 100_000, false, &mut s);
        assert_eq!(warm, 100_000);
        let cold = e.admit(0, 0, 200_000, false, &mut s);
        assert_eq!(cold, 200_000 + BITSTREAM_LOAD_CYCLES);
    }
}
