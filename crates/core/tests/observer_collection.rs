//! Which systems reach the process-wide trace collector, and why a
//! snapshot never carries an observer.
//!
//! Tracing and campaign supervision both attach an observer to a
//! hierarchy, but only tracing collects it: a system dropped while
//! tracing is disarmed must leave the collector empty. The observer is
//! observation, not machine state, so a traced system snapshots to the
//! same bytes as an untraced one, and a restore never attaches one. The
//! collector is process-global, so these tests live in their own binary
//! and serialize on a lock.

use std::sync::{Mutex, MutexGuard};

use tako_core::TakoSystem;
use tako_cpu::{AccessKind, MemSystem};
use tako_sim::config::SystemConfig;
use tako_sim::{supervise, trace};

static LOCK: Mutex<()> = Mutex::new(());

/// Take the collector lock; a failed sibling test must not poison the
/// others.
fn serialize() -> MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A small system that has done a little work.
fn busy_system() -> TakoSystem {
    let mut sys = TakoSystem::new(SystemConfig::with_tiles(4));
    let base = sys.alloc_real(1 << 12).base;
    let mut t = 0;
    for i in 0..16u64 {
        t = sys.timed_access(0, AccessKind::Read, base + i * 64, t);
    }
    sys
}

#[test]
fn supervised_untraced_systems_are_not_collected() {
    let _guard = serialize();
    trace::disarm();
    let _ = trace::drain();

    supervise::arm(None);
    let sys = busy_system();
    supervise::disarm();
    let obs = sys.observer().expect("supervision attaches an observer");
    assert!(obs.ring.total() > 0, "the triage ring saw no events");
    drop(sys);
    assert_eq!(trace::drain().systems, 0);
}

#[test]
fn observation_is_not_snapshot_state() {
    let _guard = serialize();
    let _ = trace::drain();
    trace::arm();
    let traced = busy_system();
    trace::disarm();
    let untraced = busy_system();
    let obs = traced.observer().expect("tracing attaches an observer");
    assert!(obs.ring.total() > 0, "the traced system saw no events");
    assert!(untraced.observer().is_none());
    let snap = traced.snapshot_bytes();
    assert!(
        snap == untraced.snapshot_bytes(),
        "the observer leaked into the snapshot"
    );
    drop(traced);
    drop(untraced);

    let mut resumed = TakoSystem::new(SystemConfig::with_tiles(4));
    resumed.restore_bytes(&snap).expect("restore snapshot");
    assert!(
        resumed.observer().is_none(),
        "a restore attached an observer"
    );
    drop(resumed);
    assert_eq!(trace::drain().systems, 0);
}

#[test]
fn traced_systems_are_collected() {
    let _guard = serialize();
    let _ = trace::drain();
    trace::arm();
    drop(busy_system());
    trace::disarm();
    assert_eq!(trace::drain().systems, 1);
}
