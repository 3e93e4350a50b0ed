//! Layer probes: one layer's public function called in isolation on
//! fixed inputs, reported as host nanoseconds per call (median of
//! three repetitions). Each probe names the workloads whose `wall_s`
//! it should move (see README.md).
//!
//! Set-up (building a system, pre-filling an array) is outside the
//! timed loop; each repetition starts from a fresh instance so every
//! repetition does the same work.

use std::hint::black_box;
use std::time::Instant;

use tako_cache::{CacheArray, InsertKind};
use tako_core::engine::Engine;
use tako_core::{EngineCtx, Morph, MorphLevel, TakoSystem};
use tako_cpu::{AccessKind, MemSystem};
use tako_dataflow::{Fabric, Val};
use tako_mem::Dram;
use tako_sim::config::{CacheConfig, EngineConfig, MemConfig, SystemConfig, LINE_BYTES};
use tako_sim::stats::Stats;
use tako_sim::Cycle;

use crate::span::Tracer;

/// Repetitions per probe; the median is reported.
const REPS: usize = 3;

/// Bytes streamed by the miss probes: 8× the 8 MB LLC.
const STREAM_BYTES: u64 = 64 << 20;
/// Bytes of the RMO probe's SHARED phantom range (fits the LLC).
const RMO_BYTES: u64 = 4 << 20;
/// Bytes of the phantom-miss probe's PRIVATE range.
const PHANTOM_BYTES: u64 = 16 << 20;

/// A probe: its name and its body, which takes the size scale and
/// returns host nanoseconds per call.
type Probe = (&'static str, fn(f64) -> f64);

/// Every probe, in report order.
const PROBES: [Probe; 10] = [
    ("core.l1_hit_access_ns", |k| l1_hit_access(n(2_000_000, k))),
    ("core.miss_access_ns", |k| {
        stream_access(AccessKind::Read, n(STREAM_BYTES, k))
    }),
    ("core.store_miss_access_ns", |k| {
        stream_access(AccessKind::Write, n(STREAM_BYTES, k))
    }),
    ("core.rmo_access_ns", |k| {
        rmo_access(n(RMO_BYTES, k), n(1 << 20, k))
    }),
    ("core.phantom_miss_access_ns", |k| {
        phantom_miss_access(n(PHANTOM_BYTES, k))
    }),
    ("core.engine_admit_ns", |k| engine_admit(n(2_000_000, k))),
    ("dataflow.callback_ns", |k| fabric_callback(n(1_000_000, k))),
    ("cache.lookup_hit_ns", |k| lookup_hit(n(8_000_000, k))),
    ("cache.insert_evict_ns", |k| insert_evict(n(4_000_000, k))),
    ("mem.dram_read_ns", |k| dram_read(n(8_000_000, k))),
];

/// `base` calls (or bytes) at `scale`, at least 64.
fn n(base: u64, scale: f64) -> u64 {
    ((base as f64 * scale) as u64).max(64)
}

/// Probe names, in report order.
pub fn names() -> impl Iterator<Item = &'static str> {
    PROBES.iter().map(|(name, _)| *name)
}

/// Run every probe at `scale` (1 = full size; smaller shrinks call
/// counts and streamed bytes for tests). Returns `(name, ns per call)`.
pub fn run_all(scale: f64, tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    PROBES
        .iter()
        .map(|&(name, body)| {
            let s = tracer.enter(name, "probes");
            let mut reps: Vec<f64> = (0..REPS).map(|_| body(scale)).collect();
            tracer.exit(s);
            reps.sort_by(f64::total_cmp);
            (name, reps[REPS / 2])
        })
        .collect()
}

fn ns_per(t: Instant, calls: u64) -> f64 {
    t.elapsed().as_nanos() as f64 / calls as f64
}

/// `TakoSystem::timed_access` reads of 8 resident lines on tile 0.
fn l1_hit_access(calls: u64) -> f64 {
    let mut sys = TakoSystem::new(SystemConfig::default_16core());
    let base = sys.alloc_real(8 * LINE_BYTES).base;
    let mut now: Cycle = 0;
    for i in 0..8 {
        now = sys.timed_access(0, AccessKind::Read, base + i * LINE_BYTES, now);
    }
    let t = Instant::now();
    for i in 0..calls {
        now = sys.timed_access(
            0,
            AccessKind::Read,
            black_box(base + (i % 8) * LINE_BYTES),
            now,
        );
    }
    black_box(now);
    ns_per(t, calls)
}

/// A system whose misses go all the way down: the stride prefetcher is
/// off so every streamed line is a demand miss.
fn miss_system() -> TakoSystem {
    let mut cfg = SystemConfig::default_16core();
    cfg.prefetch.enabled = false;
    TakoSystem::new(cfg)
}

/// `bytes` of never-touched lines accessed round-robin from 16 tiles.
fn stream_access(kind: AccessKind, bytes: u64) -> f64 {
    let mut sys = miss_system();
    let base = sys.alloc_real(bytes).base;
    let lines = bytes / LINE_BYTES;
    let mut now: Cycle = 0;
    let t = Instant::now();
    for i in 0..lines {
        now = sys.timed_access((i % 16) as usize, kind, base + i * LINE_BYTES, now);
    }
    black_box(now);
    ns_per(t, lines)
}

/// Fills every missed line with zero, like PHI's identity `onMiss`.
struct ZeroFill;

impl Morph for ZeroFill {
    fn name(&self) -> &str {
        "zero-fill"
    }

    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let v = ctx.arg();
        ctx.line_fill_u64(0, &[v]);
    }
}

/// `AccessKind::Rmo` pushes from 16 tiles into a SHARED phantom range,
/// scattered over its lines (PHI's edge phase).
fn rmo_access(bytes: u64, calls: u64) -> f64 {
    let mut sys = miss_system();
    let h = sys
        .register_phantom(MorphLevel::Shared, bytes, Box::new(ZeroFill))
        .expect("register the RMO probe Morph");
    let lines = bytes / LINE_BYTES;
    let mut now: Cycle = 0;
    let t = Instant::now();
    for i in 0..calls {
        let line = i.wrapping_mul(7919) % lines;
        now = sys.timed_access(
            (i % 16) as usize,
            AccessKind::Rmo,
            h.range().base + line * LINE_BYTES,
            now,
        );
    }
    black_box(now);
    ns_per(t, calls)
}

/// Tile-0 reads streaming through a PRIVATE phantom range whose
/// `onMiss` fills one line: every access runs a callback.
fn phantom_miss_access(bytes: u64) -> f64 {
    let mut sys = miss_system();
    let h = sys
        .register_phantom(MorphLevel::Private, bytes, Box::new(ZeroFill))
        .expect("register the phantom probe Morph");
    let lines = bytes / LINE_BYTES;
    let mut now: Cycle = 0;
    let t = Instant::now();
    for i in 0..lines {
        now = sys.timed_access(0, AccessKind::Read, h.range().base + i * LINE_BYTES, now);
    }
    black_box(now);
    ns_per(t, lines)
}

/// One `Engine::admit` + `Engine::complete` pair per call.
fn engine_admit(calls: u64) -> f64 {
    let mut engine = Engine::new(EngineConfig::default_5x5());
    let mut stats = Stats::new();
    let t = Instant::now();
    for i in 0..calls {
        let line = (i % 4096) * LINE_BYTES;
        let start = engine.admit(0, line, i * 4, false, &mut stats);
        engine.complete(0, line, start, start + 20, false, &mut stats);
    }
    black_box(&stats);
    ns_per(t, calls)
}

/// One `Fabric::begin`…`finish` callback per call: 8 loads, 4 ALU ops.
fn fabric_callback(calls: u64) -> f64 {
    let mut fabric = Fabric::new(EngineConfig::default_5x5());
    let t = Instant::now();
    for i in 0..calls {
        let mut tr = fabric.begin(i * 50);
        let arg = tr.arg();
        let mut loads = [Val::at(0); 8];
        for l in &mut loads {
            let fire = tr.mem_fire(&[arg]);
            *l = tr.mem_complete(fire + 4);
        }
        let a = tr.alu(&loads[..4]);
        let b = tr.alu(&loads[4..]);
        let c = tr.alu(&[a, b]);
        tr.alu(&[c]);
        black_box(tr.finish());
    }
    ns_per(t, calls)
}

/// `CacheArray::lookup` hits on 8 resident lines of an L2-sized array.
fn lookup_hit(calls: u64) -> f64 {
    let mut a = CacheArray::new(CacheConfig::l2_default());
    for i in 0..8 {
        a.insert(i * LINE_BYTES, false, false, InsertKind::Demand, 0);
    }
    let mut hits = 0u64;
    let t = Instant::now();
    for i in 0..calls {
        hits += a.lookup(black_box((i % 8) * LINE_BYTES)).is_some() as u64;
    }
    let ns = ns_per(t, calls);
    assert_eq!(hits, calls, "lookup probe lines must stay resident");
    ns
}

/// `CacheArray::insert` of new lines into a full L2-sized array: every
/// insert picks and returns a victim.
fn insert_evict(calls: u64) -> f64 {
    let cfg = CacheConfig::l2_default();
    let mut a = CacheArray::new(cfg);
    for i in 0..cfg.lines() {
        a.insert(i * LINE_BYTES, false, false, InsertKind::Demand, 0);
    }
    let t = Instant::now();
    for i in 0..calls {
        let line = (cfg.lines() + i) * LINE_BYTES;
        black_box(a.insert(line, false, false, InsertKind::Demand, i));
    }
    ns_per(t, calls)
}

/// `Dram::read_line` of consecutive lines across the controllers.
fn dram_read(calls: u64) -> f64 {
    let mut dram = Dram::new(MemConfig::default());
    let mut stats = Stats::new();
    let mut done: Cycle = 0;
    let t = Instant::now();
    for i in 0..calls {
        done = done.max(dram.read_line(i * LINE_BYTES, i * 2, &mut stats));
    }
    black_box(done);
    ns_per(t, calls)
}
