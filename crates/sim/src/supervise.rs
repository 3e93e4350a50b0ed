//! Per-thread experiment supervision: deadlines and triage context.
//!
//! The supervised campaign runner executes each experiment harness on a
//! worker thread behind a panic guard. This module is the thin,
//! thread-local channel between that runner and the simulation stack:
//!
//! * the runner **arms** a wall-clock deadline (and a supervision mark)
//!   before invoking the harness and disarms it after;
//! * the hierarchy **probes** the deadline from its watchdog-epoch path
//!   — the same cadence the invariant sweeps run at — so a runaway or
//!   stalled simulation is killed at a point where a structured
//!   diagnostic can still be produced;
//! * components **note** triage context (the last checkpoint id, the
//!   campaign unit cursor) that the runner folds into the triage bundle
//!   when a harness dies.
//!
//! Everything here is wall-clock and thread-local: it never touches
//! simulated state, so arming supervision cannot perturb simulated
//! cycles, counters, or output (the noninterference contract). The
//! deadline *kill point* is inherently nondeterministic — what is
//! deterministic is the simulation itself and the retry schedule the
//! runner derives from its seed.

use std::cell::{Cell, RefCell};
use std::time::{Duration, Instant};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static DEADLINE: Cell<Option<(Instant, Duration)>> = const { Cell::new(None) };
    static LAST_CHECKPOINT: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Arm supervision on this thread with an optional wall-clock deadline.
/// Hierarchies built on this thread while armed attach a
/// [`trace::Observer`](crate::trace::Observer); a deadline kill's
/// triage bundle prints the tail of its event ring.
pub fn arm(deadline: Option<Duration>) {
    ARMED.with(|a| a.set(true));
    DEADLINE.with(|d| d.set(deadline.map(|t| (Instant::now(), t))));
    LAST_CHECKPOINT.with(|c| c.borrow_mut().take());
}

/// Disarm supervision on this thread.
pub fn disarm() {
    ARMED.with(|a| a.set(false));
    DEADLINE.with(|d| d.set(None));
    LAST_CHECKPOINT.with(|c| c.borrow_mut().take());
}

/// Whether supervision is armed on this thread.
pub fn armed() -> bool {
    ARMED.with(|a| a.get())
}

/// If the armed deadline has expired, the configured budget and the
/// wall time actually elapsed. `None` while within budget or unarmed.
pub fn deadline_exceeded() -> Option<(Duration, Duration)> {
    DEADLINE.with(|d| {
        let (start, budget) = d.get()?;
        let elapsed = start.elapsed();
        (elapsed > budget).then_some((budget, elapsed))
    })
}

/// Record the id of the most recent durable checkpoint on this thread
/// (a snapshot id or a campaign unit cursor), for triage bundles.
pub fn note_checkpoint(id: &str) {
    LAST_CHECKPOINT.with(|c| *c.borrow_mut() = Some(id.to_string()));
}

/// The most recent checkpoint id noted on this thread, if any.
pub fn last_checkpoint() -> Option<String> {
    LAST_CHECKPOINT.with(|c| c.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_disarm_cycle() {
        assert!(!armed());
        arm(None);
        assert!(armed());
        assert!(deadline_exceeded().is_none(), "no deadline configured");
        note_checkpoint("abc123");
        assert_eq!(last_checkpoint().as_deref(), Some("abc123"));
        disarm();
        assert!(!armed());
        assert!(last_checkpoint().is_none());
    }

    #[test]
    fn deadline_trips_after_budget() {
        arm(Some(Duration::from_nanos(1)));
        std::thread::sleep(Duration::from_millis(2));
        let (budget, elapsed) = deadline_exceeded().expect("deadline should be exceeded");
        assert!(elapsed >= budget);
        disarm();
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        arm(Some(Duration::from_secs(3600)));
        assert!(deadline_exceeded().is_none());
        disarm();
    }

    #[test]
    fn state_is_thread_local() {
        arm(None);
        std::thread::spawn(|| assert!(!armed()))
            .join()
            .expect("spawned probe thread");
        disarm();
    }
}
