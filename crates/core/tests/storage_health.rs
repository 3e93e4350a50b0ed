//! `TakoSystem::health()` surfaces persistence-fabric degradation: a
//! *permanent* I/O failure tallied on the simulating thread fails
//! health with [`TakoError::StorageDegraded`]; transient failures are
//! absorbed (checkpointing degrades, the simulation is still sound).
//!
//! Each test runs on its own thread, so the thread-local tally is
//! naturally isolated from the rest of the suite.

use std::path::Path;
use std::sync::Arc;

use tako_core::{TakoError, TakoSystem};
use tako_sim::config::SystemConfig;
use tako_sim::storage::{
    reset_io_health, DiskStorage, FaultStorage, IoFault, IoFaultKind, IoFaultPlan, Storage,
};

fn sys() -> TakoSystem {
    TakoSystem::new(SystemConfig::with_tiles(4))
}

fn faulty(kind: IoFaultKind) -> FaultStorage {
    FaultStorage::new(
        Arc::new(DiskStorage::new()),
        IoFaultPlan {
            seed: 1,
            events: vec![IoFault { at_op: 0, kind }],
        },
    )
}

#[test]
fn permanent_io_failure_fails_health() {
    reset_io_health();
    let s = sys();
    assert!(s.health().is_ok(), "fresh system must be healthy");

    let storage = faulty(IoFaultKind::PermanentError);
    let err = storage
        .append(Path::new("/tako-nonexistent/x.units"), b"payload")
        .expect_err("injected permanent error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    match s.health() {
        Err(TakoError::StorageDegraded {
            permanent,
            transient,
            last,
        }) => {
            assert_eq!(permanent, 1);
            assert_eq!(transient, 0);
            assert!(
                last.contains("x.units"),
                "last failure names the path: {last}"
            );
        }
        other => panic!("expected StorageDegraded, got {other:?}"),
    }
    reset_io_health();
    assert!(s.health().is_ok(), "tally resets cleanly");
}

#[test]
fn transient_io_failure_does_not_fail_health() {
    reset_io_health();
    let s = sys();
    let storage = faulty(IoFaultKind::TransientError);
    let err = storage
        .append(Path::new("/tako-nonexistent/y.units"), b"payload")
        .expect_err("injected transient error");
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    assert!(
        s.health().is_ok(),
        "a transient failure must not fail health"
    );
    reset_io_health();
}
