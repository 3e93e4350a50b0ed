//! Integration tests of the täkō hierarchy: baseline cache behaviour,
//! Morph callback semantics (Table 1), phantom-line life cycle, flushes,
//! prefetch-triggered callbacks, and the Sec 4.3 restrictions.

use tako_core::{EngineCtx, Morph, MorphLevel, TakoError, TakoSystem};
use tako_cpu::{AccessKind, MemSystem};
use tako_mem::addr::{is_phantom, AddrRange};
use tako_sim::config::{SystemConfig, LINE_BYTES};
use tako_sim::stats::Counter;

fn sys() -> TakoSystem {
    TakoSystem::new(SystemConfig::default_16core())
}

/// A Morph that fills missing lines with a constant and counts events.
#[derive(Default)]
struct CountingMorph {
    misses: u64,
    evictions: u64,
    writebacks: u64,
    fill: u64,
}

impl Morph for CountingMorph {
    fn name(&self) -> &str {
        "counting"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        self.misses += 1;
        let v = ctx.arg();
        ctx.line_fill_u64(self.fill, &[v]);
    }
    fn on_eviction(&mut self, ctx: &mut EngineCtx<'_>) {
        self.evictions += 1;
        let _ = ctx;
    }
    fn on_writeback(&mut self, ctx: &mut EngineCtx<'_>) {
        self.writebacks += 1;
        let _ = ctx;
    }
}

#[test]
fn baseline_read_hits_after_miss() {
    let mut s = sys();
    let range = s.alloc_real(4096);
    let (_, t1) = s.debug_read_u64(0, range.base, 0);
    // Cold miss goes to DRAM.
    assert!(t1 >= 100, "cold miss too fast: {t1}");
    assert_eq!(s.stats_view().get(Counter::DramRead), 1);
    let (_, t2) = s.debug_read_u64(0, range.base + 8, 100_000);
    // Same line: L1 hit, a few cycles.
    assert!(t2 - 100_000 < 10, "hit too slow: {}", t2 - 100_000);
    assert_eq!(s.stats_view().get(Counter::L1dHit), 1);
    assert_eq!(s.stats_view().get(Counter::DramRead), 1);
}

#[test]
fn no_morph_system_never_runs_callbacks() {
    let mut s = sys();
    let range = s.alloc_real(1 << 20);
    for i in 0..10_000u64 {
        s.timed_access(0, AccessKind::Read, range.base + i * 40, i * 10);
    }
    let st = s.stats_view();
    assert_eq!(st.get(Counter::CbOnMiss), 0);
    assert_eq!(st.get(Counter::CbOnEviction), 0);
    assert_eq!(st.get(Counter::CbOnWriteback), 0);
}

#[test]
fn writes_produce_writebacks_under_pressure() {
    let mut s = sys();
    let range = s.alloc_real(16 << 20); // larger than the LLC
    let mut t = 0;
    for i in 0..(range.size / LINE_BYTES) {
        t = s.timed_access(0, AccessKind::Write, range.base + i * LINE_BYTES, t);
    }
    assert!(s.stats_view().get(Counter::DramWrite) > 0);
    assert!(s.stats_view().get(Counter::L2Writeback) > 0);
}

#[test]
fn phantom_miss_runs_onmiss_then_hits() {
    let mut s = sys();
    let h = s
        .register_phantom(
            MorphLevel::Private,
            4096,
            Box::new(CountingMorph {
                fill: 42,
                ..Default::default()
            }),
        )
        .expect("register");
    assert!(is_phantom(h.range().base));
    let (v, _) = s.debug_read_u64(0, h.range().base + 16, 0);
    assert_eq!(v, 42);
    assert_eq!(s.stats_view().get(Counter::CbOnMiss), 1);
    // No DRAM traffic for phantom data.
    assert_eq!(s.stats_view().get(Counter::DramRead), 0);
    // Re-read: cache hit, no new callback.
    let (v2, _) = s.debug_read_u64(0, h.range().base + 24, 10_000);
    assert_eq!(v2, 42);
    assert_eq!(s.stats_view().get(Counter::CbOnMiss), 1);
    let misses = s.with_morph(h, |m| {
        // Downcast via name — the object is ours.
        m.name().to_string()
    });
    assert_eq!(misses.as_deref(), Some("counting"));
}

#[test]
fn dirty_phantom_eviction_triggers_onwriteback_not_dram() {
    let mut s = sys();
    // Phantom range far larger than the L2 so lines get evicted.
    let h = s
        .register_phantom(
            MorphLevel::Private,
            1 << 20,
            Box::new(CountingMorph::default()),
        )
        .expect("register");
    let base = h.range().base;
    let mut t = 0;
    for i in 0..(1u64 << 20) / LINE_BYTES {
        t = s.timed_access(0, AccessKind::Write, base + i * LINE_BYTES, t);
    }
    let st = s.stats_view();
    assert!(st.get(Counter::CbOnWriteback) > 0, "no onWriteback ran");
    // Phantom lines are never written to DRAM.
    assert_eq!(st.get(Counter::DramWrite), 0);
    assert_eq!(st.get(Counter::DramRead), 0);
}

#[test]
fn clean_phantom_eviction_triggers_oneviction() {
    let mut s = sys();
    let h = s
        .register_phantom(
            MorphLevel::Private,
            1 << 20,
            Box::new(CountingMorph::default()),
        )
        .expect("register");
    let base = h.range().base;
    let mut t = 0;
    for i in 0..(1u64 << 20) / LINE_BYTES {
        t = s.timed_access(0, AccessKind::Read, base + i * LINE_BYTES, t);
    }
    assert!(s.stats_view().get(Counter::CbOnEviction) > 0);
    assert_eq!(s.stats_view().get(Counter::CbOnWriteback), 0);
}

#[test]
fn flush_data_writes_back_all_dirty_lines() {
    let mut s = sys();
    let h = s
        .register_phantom(
            MorphLevel::Private,
            16 * LINE_BYTES,
            Box::new(CountingMorph::default()),
        )
        .expect("register");
    let base = h.range().base;
    let mut t = 0;
    for i in 0..16u64 {
        t = s.timed_access(0, AccessKind::Write, base + i * LINE_BYTES, t);
    }
    let done = s.flush_data(h, t);
    assert!(done >= t);
    assert_eq!(s.stats_view().get(Counter::CbOnWriteback), 16);
    assert_eq!(s.stats_view().get(Counter::FlushedLines), 16);
    // After the flush, a read misses again (lines were discarded).
    s.debug_read_u64(0, base, done);
    assert_eq!(s.stats_view().get(Counter::CbOnMiss), 17);
}

#[test]
fn rmo_on_shared_phantom_executes_at_llc() {
    let mut s = sys();
    let h = s
        .register_phantom(MorphLevel::Shared, 4096, Box::new(CountingMorph::default()))
        .expect("register");
    let base = h.range().base;
    let done = s.timed_access(3, AccessKind::Rmo, base, 0);
    s.data().add_f64(base, 1.5);
    assert!(done > 0);
    let st = s.stats_view();
    assert_eq!(st.get(Counter::CbOnMiss), 1);
    // RMO bypasses the private caches entirely.
    assert_eq!(st.get(Counter::L1dMiss), 0);
    assert_eq!(st.get(Counter::L2Miss), 0);
    // Second RMO to the same line: LLC hit, no callback.
    s.timed_access(5, AccessKind::Rmo, base + 8, done);
    assert_eq!(s.stats_view().get(Counter::CbOnMiss), 1);
    assert_eq!(s.stats_view().get(Counter::LlcHit), 1);
}

/// Morph raising an interrupt on every eviction (Sec 8.4's detector).
struct Alarm;
impl Morph for Alarm {
    fn name(&self) -> &str {
        "alarm"
    }
    fn on_eviction(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.raise_interrupt();
    }
    fn on_writeback(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.raise_interrupt();
    }
}

#[test]
fn real_morph_preserves_data_and_detects_eviction() {
    let mut s = sys();
    let secure = s.alloc_real(4 * LINE_BYTES);
    s.data().write_u64(secure.base, 0xAE5);
    let h = s
        .register_real_at(2, MorphLevel::Shared, secure, Box::new(Alarm), 0)
        .expect("register");
    // Load-store semantics preserved: reads still see the data.
    let (v, _) = s.debug_read_u64(2, secure.base, 0);
    assert_eq!(v, 0xAE5);
    assert_eq!(s.stats_view().get(Counter::CbOnMiss), 1); // ran in parallel
                                                          // Force the LLC set to evict the secure line: hammer conflicting
                                                          // lines (same bank, same set). LLC set index uses line/64 % 512,
                                                          // bank uses line/64 % 16.
    let llc_period = 16 * 512 * LINE_BYTES; // lines mapping to same bank+set
    let attacker = s.alloc_real(64 * llc_period);
    let first_conflict = attacker.base
        + (secure.base % llc_period + llc_period - attacker.base % llc_period) % llc_period;
    let mut t = 1_000_000;
    for w in 0..32u64 {
        t = s.timed_access(9, AccessKind::Read, first_conflict + w * llc_period, t);
    }
    let ints = s.take_interrupts();
    assert!(
        !ints.is_empty(),
        "eviction of monitored line must raise an interrupt"
    );
    assert_eq!(ints[0].tile, 2, "interrupt goes to the registering tile");
    let _ = h;
}

#[test]
fn prefetcher_triggers_onmiss_ahead_of_demand() {
    let mut s = sys();
    let h = s
        .register_phantom(
            MorphLevel::Private,
            1 << 16,
            Box::new(CountingMorph::default()),
        )
        .expect("register");
    let base = h.range().base;
    let mut t = 0;
    // Stream sequentially: the stride prefetcher should run onMiss for
    // lines before the demand reaches them.
    for i in 0..256u64 {
        t = s.timed_access(0, AccessKind::Read, base + i * 8, t);
    }
    let st = s.stats_view();
    assert!(st.get(Counter::PrefetchIssued) > 0, "prefetcher silent");
    assert!(st.get(Counter::PrefetchUseful) > 0, "prefetches unused");
    // Demands + prefetches both triggered callbacks, once per line
    // (plus up to `degree` overshoot past the end of the stream).
    let lines = 256 * 8 / LINE_BYTES;
    let cb = st.get(Counter::CbOnMiss);
    assert!(
        (lines..=lines + 8).contains(&cb),
        "expected ~{lines} onMiss callbacks, got {cb}"
    );
}

#[test]
fn registration_rejects_overlap_and_empty() {
    let mut s = sys();
    let range = s.alloc_real(4096);
    s.register_real(MorphLevel::Shared, range, Box::new(Alarm))
        .expect("first registration");
    let sub = AddrRange::new(range.base + 64, 64);
    let err = s
        .register_real(MorphLevel::Shared, sub, Box::new(Alarm))
        .expect_err("overlap must fail");
    assert!(matches!(err, tako_core::TakoError::RangeOverlap { .. }));
    let err = s
        .register_phantom(MorphLevel::Private, 0, Box::new(Alarm))
        .expect_err("empty must fail");
    assert!(matches!(err, tako_core::TakoError::EmptyRange));
}

#[test]
fn unregister_flushes_and_frees_range() {
    let mut s = sys();
    let h = s
        .register_phantom(
            MorphLevel::Private,
            8 * LINE_BYTES,
            Box::new(CountingMorph::default()),
        )
        .expect("register");
    let base = h.range().base;
    let mut t = 0;
    for i in 0..8u64 {
        t = s.timed_access(0, AccessKind::Write, base + i * LINE_BYTES, t);
    }
    let (morph, done) = s.unregister(h, t).expect("unregister");
    assert!(done >= t);
    assert_eq!(morph.name(), "counting");
    assert_eq!(s.stats_view().get(Counter::CbOnWriteback), 8);
    // Handle is now stale.
    assert!(s.unregister(h, done).is_err());
}

/// PRIVATE callback that reads from a SHARED Morph's range (allowed).
struct ReadsShared {
    shared_base: u64,
}
impl Morph for ReadsShared {
    fn name(&self) -> &str {
        "reads-shared"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let (v, dep) = ctx.load_u64(self.shared_base, &[]);
        ctx.line_write_u64(0, v + 1, &[dep]);
    }
}

#[test]
fn private_callback_may_trigger_shared_callback() {
    let mut s = sys();
    let shared = s
        .register_phantom(
            MorphLevel::Shared,
            4096,
            Box::new(CountingMorph {
                fill: 7,
                ..Default::default()
            }),
        )
        .expect("shared");
    let private = s
        .register_phantom(
            MorphLevel::Private,
            4096,
            Box::new(ReadsShared {
                shared_base: shared.range().base,
            }),
        )
        .expect("private");
    let (v, _) = s.debug_read_u64(0, private.range().base, 0);
    // The private onMiss loaded from the shared phantom range, which
    // triggered the shared onMiss (fill 7), then wrote 7 + 1.
    assert_eq!(v, 8);
    assert_eq!(s.stats_view().get(Counter::CbOnMiss), 2);
}

/// A callback that illegally touches a PRIVATE Morph's range.
struct TouchesPrivate {
    victim: u64,
}
impl Morph for TouchesPrivate {
    fn name(&self) -> &str {
        "touches-private"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.load_u64(self.victim, &[]);
    }
}

#[test]
fn shared_callback_touching_private_morph_is_quarantined() {
    let mut s = sys();
    let private = s
        .register_phantom(
            MorphLevel::Private,
            4096,
            Box::new(CountingMorph::default()),
        )
        .expect("private");
    let shared = s
        .register_phantom(
            MorphLevel::Shared,
            4096,
            Box::new(TouchesPrivate {
                victim: private.range().base,
            }),
        )
        .expect("shared");
    // The illegal access is suppressed (the run completes) and the
    // offending Morph is quarantined, degrading its range to baseline.
    s.debug_read_u64(0, shared.range().base, 0);
    let st = s.stats_view();
    assert_eq!(st.get(Counter::CbIllegalOp), 1);
    assert_eq!(st.get(Counter::MorphQuarantined), 1);
    assert!(s.hierarchy().registry.quarantined(shared.id()).is_some());
    match s.health() {
        Err(TakoError::CallbackQuarantined { morph, reason }) => {
            assert_eq!(morph, shared.id());
            assert!(reason.contains("illegal"));
        }
        other => panic!("expected CallbackQuarantined, got {other:?}"),
    }
    // Further misses on the quarantined range skip the callback and are
    // counted as degraded.
    s.debug_read_u64(0, shared.range().base + 4032, 0);
    assert!(s.stats_view().get(Counter::CbDegraded) >= 1);
    assert_eq!(s.stats_view().get(Counter::MorphQuarantined), 1);
}

#[test]
fn callback_latency_tracked_and_line_locked() {
    let mut s = sys();
    let h = s
        .register_phantom(
            MorphLevel::Private,
            4096,
            Box::new(CountingMorph::default()),
        )
        .expect("register");
    s.debug_read_u64(0, h.range().base, 0);
    let st = s.stats_view();
    assert!(st.callback_latency.count() > 0);
    assert!(st.callback_latency.mean() > 0.0);
}

#[test]
fn energy_accumulates_dram_dominant() {
    let mut s = sys();
    let range = s.alloc_real(1 << 22);
    let mut t = 0;
    for i in 0..(range.size / LINE_BYTES) {
        t = s.timed_access(0, AccessKind::Read, range.base + i * LINE_BYTES, t);
    }
    let e = s.energy();
    assert!(e.total_pj() > 0.0);
    assert!(
        e.dram_pj > e.l1_pj,
        "for a streaming scan DRAM energy should dominate L1"
    );
}

#[test]
fn nt_stores_skip_the_read_for_ownership_fetch() {
    let mut s = sys();
    let range = s.alloc_real(1 << 20);
    let mut t = 0;
    for i in 0..(range.size / LINE_BYTES) {
        t = s.timed_access(
            0,
            tako_cpu::AccessKind::WriteStream,
            range.base + i * LINE_BYTES,
            t,
        );
    }
    // Write-combining appends never read memory; the dirty lines flow
    // down the hierarchy (parked in the LLC at this footprint).
    assert_eq!(s.stats_view().get(Counter::DramRead), 0);
    let resident: usize = s
        .hierarchy()
        .llc
        .iter()
        .map(|b| b.lines_in_range(range).len())
        .sum();
    assert!(
        resident > 0 || s.stats_view().get(Counter::DramWrite) > 0,
        "streamed writes must flow downward"
    );
}

#[test]
fn nt_reads_do_not_install_in_the_llc() {
    let mut s = sys();
    let range = s.alloc_real(1 << 20);
    let mut t = 0;
    for i in 0..(range.size / LINE_BYTES) {
        t = s.timed_access(
            3,
            tako_cpu::AccessKind::ReadStream,
            range.base + i * LINE_BYTES,
            t,
        );
    }
    let resident: usize = s
        .hierarchy()
        .llc
        .iter()
        .map(|b| b.lines_in_range(range).len())
        .sum();
    assert_eq!(resident, 0, "NT scan must not fill the shared cache");
}

#[test]
fn demote_makes_a_line_the_preferred_victim() {
    let mut s = sys();
    let range = s.alloc_real(1 << 20);
    // Load two lines mapping to the same L2 set (256 sets x 64 B apart).
    let a = range.base;
    let b = range.base + 256 * LINE_BYTES;
    s.timed_access(0, AccessKind::Read, a, 0);
    s.timed_access(0, AccessKind::Read, b, 1_000);
    s.hierarchy_mut().demote_line(0, a);
    // a's L1 copy is gone; its L2 entry is at distant priority.
    assert!(s.hierarchy().tiles[0].l1d.probe(a).is_none());
    let e = s.hierarchy().tiles[0].l2.probe(a).expect("still in L2");
    assert_eq!(e.get().rrpv, 3);
    // Fill the set: the demoted line leaves before the fresh one.
    let mut t = 2_000;
    for k in 2..10u64 {
        t = s.timed_access(0, AccessKind::Read, a + k * 256 * LINE_BYTES, t);
    }
    assert!(s.hierarchy().tiles[0].l2.probe(a).is_none());
    assert!(s.hierarchy().tiles[0].l2.probe(b).is_some());
}

#[test]
fn registration_flush_clears_stale_prefetched_lines() {
    // Prefetcher overshoot caches zeroed no-morph phantom lines past a
    // range's end; a later registration over those addresses must still
    // see onMiss (regression test for the range-flush-on-register rule).
    let mut s = sys();
    let first = s
        .register_phantom(
            MorphLevel::Private,
            8 * LINE_BYTES,
            Box::new(CountingMorph {
                fill: 1,
                ..Default::default()
            }),
        )
        .expect("first");
    let mut t = 0;
    for i in 0..64u64 {
        // Sequential 8 B reads train the prefetcher and overshoot.
        let (_, done) = s.debug_read_u64(0, first.range().base + i * 8, t);
        t = done;
    }
    let second = s
        .register_phantom(
            MorphLevel::Private,
            8 * LINE_BYTES,
            Box::new(CountingMorph {
                fill: 2,
                ..Default::default()
            }),
        )
        .expect("second");
    let (v, _) = s.debug_read_u64(0, second.range().base, t);
    assert_eq!(v, 2, "stale overshoot line served instead of onMiss");
}

#[test]
fn interrupts_deliver_to_the_registering_tile_only() {
    let mut s = sys();
    let secure = s.alloc_real(2 * LINE_BYTES);
    s.register_real_at(7, MorphLevel::Shared, secure, Box::new(Alarm), 0)
        .expect("register");
    // Cache the line, then force it out with conflicting fills.
    s.debug_read_u64(7, secure.base, 0);
    let sets = s.config().llc_bank.sets();
    let period = s.config().tiles as u64 * sets * LINE_BYTES;
    let pool = s.alloc_real(64 * period);
    let first = pool.base + (secure.base % period + period - pool.base % period) % period;
    let mut t = 100_000;
    for w in 0..32u64 {
        t = s.timed_access(1, AccessKind::Read, first + w * period, t);
    }
    use tako_cpu::MemSystem as _;
    assert!(
        s.take_interrupt(3).is_none(),
        "wrong tile got the interrupt"
    );
    assert!(
        s.take_interrupt(7).is_some(),
        "registering tile must get it"
    );
}

/// A Morph whose onMiss burns a long dataflow chain: the triggering
/// access is pinned behind the callback (trrîp inserts the engine's
/// fills at distant priority and the line stays locked), so a tight
/// stall bound trips the watchdog on the very first phantom miss.
struct SlowMorph;
impl Morph for SlowMorph {
    fn name(&self) -> &str {
        "slow"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.alu_chain(&[], 5_000);
    }
}

#[test]
fn stall_snapshot_names_the_blocked_set_and_line() {
    let mut cfg = SystemConfig::default_16core();
    cfg.watchdog.stall_cycles = 100;
    let mut s = TakoSystem::new(cfg);
    let handle = s
        .register_phantom(MorphLevel::Shared, 4096, Box::new(SlowMorph))
        .expect("register");
    let addr = handle.range().base + 3 * LINE_BYTES;
    let (_, done) = s.debug_read_u64(2, addr, 0);
    assert!(done > 100, "callback should stall the access: {done}");

    let hier = s.hierarchy();
    assert!(hier.watchdog.stall().is_some(), "stall not detected");
    let snap = hier.watchdog.snapshot().expect("snapshot attached");
    // The snapshot must name the blocked line and where it lives, not
    // just that something somewhere stalled.
    let line = addr & !(LINE_BYTES - 1);
    assert_eq!(snap.blocked_line, Some(line), "wrong blocked line");
    let bank = hier.mesh.bank_of_line(line);
    let set = hier.llc[bank].set_index(line);
    assert_eq!(snap.blocked_set, Some((bank, set)), "wrong blocked set");
    let text = snap.to_string();
    assert!(
        text.contains(&format!("LLC bank {bank}, set {set}")),
        "dump must name the blocked set: {text}"
    );
}

// ---------------------------------------------------------------------
// The core access walk: one L1d tag walk per access, hit or miss.
// ---------------------------------------------------------------------

#[test]
fn l1d_write_hit_on_a_shared_line_charges_one_upgrade() {
    let mut s = sys();
    let line = s.alloc_real(4096).base;
    let t = s.timed_access(0, AccessKind::Read, line, 0);
    let t = s.timed_access(1, AccessKind::Read, line, t);
    let st = s.stats_view();
    let (hits, invals) = (st.get(Counter::L1dHit), st.get(Counter::CoherenceInval));
    s.timed_access(0, AccessKind::Write, line, t);
    let st = s.stats_view();
    assert_eq!(
        st.get(Counter::L1dHit),
        hits + 1,
        "the write must hit the L1d"
    );
    assert_eq!(st.get(Counter::CoherenceInval), invals + 1);
    let h = s.hierarchy();
    assert!(
        h.tiles[1].l1d.probe(line).is_none(),
        "tile 1 L1d kept a copy"
    );
    assert!(h.tiles[1].l2.probe(line).is_none(), "tile 1 L2 kept a copy");
    let l2 = h.tiles[0].l2.probe(line).expect("tile 0 L2 holds the line");
    assert!(
        l2.dirty() && l2.exclusive(),
        "L2 entry must be dirty and exclusive"
    );
}

#[test]
fn rmo_without_a_shared_morph_takes_the_l1d_hit_arm() {
    let mut s = sys();
    let line = s.alloc_real(4096).base;
    let t = s.timed_access(2, AccessKind::Read, line, 0);
    let st = s.stats_view();
    let (hits, llc) = (
        st.get(Counter::L1dHit),
        st.get(Counter::LlcHit) + st.get(Counter::LlcMiss),
    );
    s.timed_access(2, AccessKind::Rmo, line, t);
    let st = s.stats_view();
    assert_eq!(st.get(Counter::L1dHit), hits + 1);
    assert_eq!(st.get(Counter::LlcHit) + st.get(Counter::LlcMiss), llc);
    // The RMO wants write permission, like a store hit.
    let h = s.hierarchy();
    assert!(h.tiles[2].l1d.probe(line).expect("L1d copy").dirty());
}

#[test]
fn a_read_miss_charges_exactly_one_l1d_miss() {
    let mut s = sys();
    let line = s.alloc_real(4096).base;
    s.timed_access(0, AccessKind::Read, line, 0);
    let st = s.stats_view();
    assert_eq!(st.get(Counter::L1dMiss), 1);
    assert_eq!(st.get(Counter::L1dHit), 0);
    assert_eq!(st.get(Counter::L2Miss), 1);
}
