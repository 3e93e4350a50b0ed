//! Micro-benchmark guard: the per-access tag-array hot path must not
//! allocate. A counting global allocator wraps the system allocator;
//! each assertion exercises an entry point on a pre-built array and
//! checks the allocation count did not move.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tako_cache::{CacheArray, InsertKind, StridePrefetcher};
use tako_sim::config::{CacheConfig, PrefetchConfig, ReplPolicy, LINE_BYTES};

struct CountingAlloc;

// Per-thread so concurrently running tests don't see each other's
// allocations. Const-initialized: reading it never allocates.
thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Run `f` and return how many heap allocations this thread performed.
fn allocs_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(|c| c.get());
    f();
    ALLOCS.with(|c| c.get()) - before
}

fn array(repl: ReplPolicy) -> CacheArray {
    CacheArray::new(CacheConfig {
        size_bytes: 64 * 1024,
        ways: 8,
        tag_latency: 2,
        data_latency: 3,
        repl,
        mshrs: 8,
    })
}

#[test]
fn hot_path_is_allocation_free() {
    for repl in [ReplPolicy::Lru, ReplPolicy::Rrip, ReplPolicy::Trrip] {
        let mut a = array(repl);
        // Warm the array past capacity so inserts evict.
        for k in 0..2048u64 {
            let line = k * LINE_BYTES;
            if a.probe(line).is_none() {
                a.insert(line, k % 3 == 0, k % 5 == 0, InsertKind::Demand, 0);
            }
        }
        let n = allocs_in(|| {
            for k in 0..4096u64 {
                let line = (k % 3072) * LINE_BYTES;
                if a.lookup(line).is_none() {
                    a.insert(line, k % 2 == 0, k % 7 == 0, InsertKind::Demand, k);
                }
                a.probe(line);
                a.probe_mut(line);
                a.touch(line);
            }
            a.invalidate(123 * LINE_BYTES);
        });
        assert_eq!(n, 0, "hot path allocated under {repl:?}");
    }
}

/// The staged-pipeline vocabulary on top of the arrays — building a
/// [`MemTxn`], walking the tags through a [`CachePort`], reading a line
/// from DRAM, and emitting accounting on the [`AccountingBus`] — must be
/// as allocation-free as the raw tag walks it wraps.
#[test]
fn txn_pipeline_hot_path_is_allocation_free() {
    use tako_core::hierarchy::{CachePort, MemTxn};
    use tako_mem::dram::Dram;
    use tako_sim::config::SystemConfig;
    use tako_sim::event::{AccountingBus, LevelId, TxnEvent, TxnSink};
    use tako_sim::fault::{FaultInjector, FaultKind};

    let cfg = SystemConfig::default_16core();
    let mut a = array(ReplPolicy::Trrip);
    let mut dram = Dram::new(cfg.mem);
    let mut bus = AccountingBus::new(FaultInjector::new(None));
    // Warm the array past capacity so lookups hit both outcomes.
    for k in 0..2048u64 {
        let line = k * LINE_BYTES;
        if a.probe(line).is_none() {
            a.insert(line, k % 3 == 0, false, InsertKind::Demand, 0);
        }
    }
    let n = allocs_in(|| {
        for k in 0..4096u64 {
            let line = (k % 3072) * LINE_BYTES;
            let mut txn = MemTxn::prefetch(0, line, k);
            txn.stamps.l2 = Some(k);
            let mut port = CachePort::new(&mut a, LevelId::Llc);
            if port.lookup_counted(line, &mut bus).is_none() {
                txn.stamps.fill = Some(dram.read_line(line, k, &mut bus));
                a.insert(line, txn.is_write(), false, txn.fill_kind, k);
            }
            let t1 = txn.stamps.fill.or(txn.stamps.l2).unwrap_or(k);
            let mut port = CachePort::new(&mut a, LevelId::Llc);
            let done = port
                .probe_counted(line, &mut bus)
                .map_or(t1, |e| t1.max(e.ready_at()));
            bus.emit(TxnEvent::Hit(LevelId::L1d));
            bus.emit(TxnEvent::CoherenceInval);
            bus.emit(TxnEvent::NocHops { flits: 9, hops: 2 });
            bus.emit(TxnEvent::EngineWork {
                instrs: 3,
                mem_ops: 1,
            });
            bus.poll_fault(done, FaultKind::DelayedDram);
        }
    });
    assert_eq!(n, 0, "MemTxn/TxnSink pipeline hot path allocated");
    assert!(bus.stats.get(tako_sim::stats::Counter::DramRead) > 0);
}

/// A core access that hits the L1d completes in the walk's hit arm and
/// allocates nothing — reads and writes alike, with the bus disarmed
/// and with an observer attached (the hit arm then also records the
/// transaction). The watchdog epoch lies beyond the loop, so the epoch
/// sweep never runs inside it.
#[test]
fn core_access_l1d_hits_are_allocation_free() {
    use tako_core::TakoSystem;
    use tako_cpu::{AccessKind, MemSystem};
    use tako_sim::config::SystemConfig;
    use tako_sim::stats::Counter;
    use tako_sim::trace::Observer;

    for observed in [false, true] {
        let mut cfg = SystemConfig::default_16core();
        cfg.watchdog.enabled = true;
        cfg.watchdog.epoch_cycles = 1 << 40;
        let mut sys = TakoSystem::new(cfg);
        if observed {
            sys.hierarchy_mut().bus.tap = Some(Box::new(Observer::new()));
        }
        let base = sys.alloc_real(1 << 12).base;
        let mut t = 0u64;
        // Warm: bring 8 lines into tile 0's L1d with write permission.
        for i in 0..8u64 {
            t = sys.timed_access(0, AccessKind::Write, base + i * LINE_BYTES, t);
        }
        let hits = sys.stats_view().get(Counter::L1dHit);
        let n = allocs_in(|| {
            for k in 0..4096u64 {
                let kind = if k % 2 == 0 {
                    AccessKind::Read
                } else {
                    AccessKind::Write
                };
                t = sys.timed_access(0, kind, base + (k % 8) * LINE_BYTES, t);
            }
        });
        assert_eq!(n, 0, "L1d hit arm allocated (observer: {observed})");
        assert_eq!(sys.stats_view().get(Counter::L1dHit) - hits, 4096);
        assert_eq!(sys.observer().is_some(), observed);
    }
}

/// With tracing disarmed (the default), the observability layer's bus
/// hooks — the cursor update, the span recorder, the event tap — must
/// all reduce to one null test of the observer slot and allocate
/// nothing.
#[test]
fn tracing_off_hot_path_is_allocation_free() {
    use tako_sim::event::{AccountingBus, LevelId, TxnEvent, TxnSink};
    use tako_sim::fault::FaultInjector;
    use tako_sim::trace::Stage;

    let mut bus = AccountingBus::new(FaultInjector::new(None));
    assert!(bus.observer().is_none(), "tap must default to None");
    let n = allocs_in(|| {
        for k in 0..4096u64 {
            bus.observe_at(k, (k % 16) as usize);
            bus.emit(TxnEvent::Hit(LevelId::L1d));
            bus.emit(TxnEvent::Miss(LevelId::L2));
            bus.emit(TxnEvent::NocHops { flits: 5, hops: 2 });
            let done = tako_sim::span!(bus, Stage::Callback, k, k + 40);
            bus.span_record(Stage::L1, k, done);
        }
    });
    assert_eq!(n, 0, "tracing-off observability hooks allocated");
}

/// With an observer attached, recording must still be allocation-free:
/// every structure (trace ring, sample ring, histograms, profile)
/// preallocates at construction, and each record is a slot write.
#[test]
fn armed_observer_recording_is_allocation_free() {
    use tako_sim::event::{AccountingBus, LevelId, TxnEvent, TxnSink};
    use tako_sim::fault::FaultInjector;
    use tako_sim::stats::Counter;
    use tako_sim::trace::{Observer, Stage};

    let mut bus = AccountingBus::new(FaultInjector::new(None));
    bus.tap = Some(Box::new(Observer::new()));
    let mut stats = tako_sim::stats::Stats::new();
    let n = allocs_in(|| {
        for k in 0..4096u64 {
            bus.observe_at(k, (k % 16) as usize);
            bus.emit(TxnEvent::Hit(LevelId::L1d));
            bus.emit(TxnEvent::Miss(LevelId::Llc));
            bus.span_record(Stage::L2, k, k + 9);
            stats.add(Counter::L1dHit, 1);
            if let Some(obs) = bus.observer_mut() {
                obs.record_callback(k % 500);
                obs.record_txn(k, Some(k), Some(k + 2), None, None, k + 60);
                if k % 64 == 0 {
                    // Epoch sampling wraps the sample ring several times
                    // over; it must stay slot-writes only.
                    obs.sample_epoch(k / 64, k, &stats, k as f64, 3);
                }
            }
        }
    });
    assert_eq!(n, 0, "armed observer recording allocated");
    let obs = bus.observer().expect("observer still attached");
    assert_eq!(obs.ring.total(), 2 * 4096);
    assert_eq!(obs.metrics.total_samples(), 64);
}

#[test]
fn prefetcher_observe_is_allocation_free() {
    let mut p = StridePrefetcher::new(PrefetchConfig::default());
    // Train every region the loop below revisits (stream-table churn in
    // the steady state reuses existing slots).
    for k in 0..64u64 {
        p.observe(k * LINE_BYTES);
    }
    let n = allocs_in(|| {
        for k in 64..4096u64 {
            let batch = p.observe(k * LINE_BYTES);
            assert!(batch.len() <= 8);
        }
    });
    assert_eq!(n, 0, "StridePrefetcher::observe allocated");
}
