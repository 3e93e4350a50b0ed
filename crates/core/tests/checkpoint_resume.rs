//! Deterministic checkpoint/resume across the full system: a resumed
//! run must be *byte-identical* to an uninterrupted one — same cycles,
//! same counters, same canonical snapshot bytes at the end — including
//! Morph-local state, replacement state, and the fault-plan cursor.

use tako_core::{EngineCtx, Morph, MorphHandle, MorphLevel, TakoError, TakoSystem};
use tako_cpu::{AccessKind, MemSystem};
use tako_sim::checkpoint::{encode, SnapError};
use tako_sim::config::{SystemConfig, LINE_BYTES};
use tako_sim::fault::{FaultEvent, FaultKind, FaultPlan};
use tako_sim::rng::Rng;

/// A Morph with observable local state: counts its misses and fills a
/// verifiable pattern. If resume dropped or duplicated Morph-local
/// state, the final counts would diverge.
struct Tally {
    tag: u64,
    misses: u64,
}

impl Morph for Tally {
    fn name(&self) -> &str {
        "tally"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        self.misses += 1;
        let line_idx = ctx.offset() / LINE_BYTES;
        let dep = ctx.arg();
        let mut vals = [0u64; 8];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = self.tag ^ (line_idx << 8) ^ i as u64;
        }
        ctx.line_write_all_u64(&vals, &[dep]);
    }
    fn save_state(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.put_u64(self.misses);
    }
    fn load_state(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        self.misses = r.get_u64()?;
        Ok(())
    }
}

fn test_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::default_16core();
    cfg.watchdog.epoch_cycles = 5_000;
    cfg
}

/// Build a system and register the standard Morph set for these tests.
/// Registration order matters: resume re-registers in the same order so
/// Morph ids and phantom ranges line up with the snapshot.
fn build(cfg: &SystemConfig) -> (TakoSystem, MorphHandle) {
    let mut sys = TakoSystem::new(cfg.clone());
    let _real = sys.alloc_real(1 << 18);
    let h = sys
        .register_phantom(
            MorphLevel::Private,
            1 << 16,
            Box::new(Tally {
                tag: 0xBEEF,
                misses: 0,
            }),
        )
        .expect("register morph");
    (sys, h)
}

/// One seeded driver step. Depends only on the rng and the system, so
/// two systems in identical states driven by identical rngs must
/// produce identical cycle results.
fn step(sys: &mut TakoSystem, h: MorphHandle, rng: &mut Rng, t: u64) -> u64 {
    let real_base = 0x1000_0000u64 & !(LINE_BYTES - 1);
    let tile = rng.below(16) as usize;
    match rng.below(8) {
        0..=2 => {
            let off = rng.below(1 << 12) * 8;
            sys.timed_access(tile, AccessKind::Write, real_base + off, t)
        }
        3..=4 => {
            let off = rng.below(1 << 12) * 8;
            sys.timed_access(tile, AccessKind::Read, real_base + off, t)
        }
        _ => {
            let off = rng.below(h.range().size / 8) * 8;
            let (_, done) = sys.debug_read_u64(0, h.range().base + off, t);
            done
        }
    }
}

fn run_split(cfg: &SystemConfig, total: usize, split: usize) -> (Vec<u8>, u64, Vec<u8>) {
    // Uninterrupted reference run, snapshotting (without stopping) at
    // the split point.
    let (mut sys, h) = build(cfg);
    let mut rng = Rng::new(0xC0FFEE);
    let mut t = 0u64;
    let mut mid = Vec::new();
    let mut mid_rng = rng.clone();
    let mut mid_t = 0u64;
    for i in 0..total {
        if i == split {
            mid = sys.snapshot_bytes();
            mid_rng = rng.clone();
            mid_t = t;
        }
        t = step(&mut sys, h, &mut rng, t);
    }
    let final_ref = encode(&sys);

    // Resumed run: fresh system, same registration order, restore the
    // mid-run snapshot, replay the tail.
    let (mut sys2, h2) = build(cfg);
    sys2.restore_bytes(&mid).expect("restore");
    let mut rng2 = mid_rng;
    let mut t2 = mid_t;
    for _ in split..total {
        t2 = step(&mut sys2, h2, &mut rng2, t2);
    }
    assert_eq!(t2, t, "resumed run diverged in time");
    let final_resumed = encode(&sys2);
    (final_ref, t, final_resumed)
}

#[test]
fn resume_is_byte_identical_midstream() {
    let cfg = test_cfg();
    let (reference, t, resumed) = run_split(&cfg, 1200, 700);
    assert!(t > 0);
    assert_eq!(
        reference, resumed,
        "resumed system state is not byte-identical to the uninterrupted run"
    );
}

#[test]
fn resume_is_byte_identical_inside_fault_window() {
    // Snapshot lands while a delayed-DRAM fault plan is mid-flight:
    // one event consumed before the split, one pending after it. The
    // injector cursor must survive the round trip or the tail run
    // would double-fire or drop an event.
    let mut cfg = test_cfg();
    cfg.faults = Some(FaultPlan {
        seed: 7,
        events: vec![
            FaultEvent {
                at: 100,
                kind: FaultKind::DelayedDram,
                magnitude: 50_000,
                site: None,
            },
            FaultEvent {
                at: 40_000,
                kind: FaultKind::DelayedDram,
                magnitude: 50_000,
                site: Some(3),
            },
        ],
    });
    let (reference, _, resumed) = run_split(&cfg, 1200, 600);
    assert_eq!(
        reference, resumed,
        "resume under an active fault plan diverged"
    );
}

#[test]
fn restore_rejects_corruption_and_config_skew() {
    let cfg = test_cfg();
    let (sys, _) = build(&cfg);
    let snap = sys.snapshot_bytes();

    // Bit flip in the payload → checksum failure.
    let mut bad = snap.clone();
    let n = bad.len();
    bad[n - 1] ^= 0x40;
    let (mut fresh, _) = build(&cfg);
    match fresh.restore_bytes(&bad) {
        Err(TakoError::BadSnapshot(SnapError::BadChecksum)) => {}
        other => panic!("corrupt snapshot accepted: {other:?}"),
    }

    // A snapshot stamped with the previous format version (2 — the
    // pre-SoA tag-array layout) → rejected on the envelope version
    // before any payload decoding is attempted.
    let mut stale = snap.clone();
    stale[8..12].copy_from_slice(&2u32.to_le_bytes());
    let (mut fresh2, _) = build(&cfg);
    match fresh2.restore_bytes(&stale) {
        Err(TakoError::BadSnapshot(SnapError::BadVersion { found: 2 })) => {}
        other => panic!("stale-version snapshot accepted: {other:?}"),
    }

    // Same snapshot into a differently parameterized system → rejected
    // on the config fingerprint before any state is touched.
    let mut skewed = cfg.clone();
    skewed.l2.size_bytes *= 2;
    let (mut other, _) = build(&skewed);
    match other.restore_bytes(&snap) {
        Err(TakoError::BadSnapshot(SnapError::StateMismatch(m))) => {
            assert!(m.contains("fingerprint"), "unexpected mismatch: {m}")
        }
        other => panic!("config-skewed restore accepted: {other:?}"),
    }
}
