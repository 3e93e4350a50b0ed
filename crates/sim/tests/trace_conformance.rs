//! Trace conformance suite: every [`TxnEvent`] variant emitted through
//! the accounting bus must appear exactly once in the observer's ring
//! trace, with monotonically non-decreasing cycle stamps and correct
//! tile attribution.
//!
//! The suite is exhaustive over variants *at compile time*:
//! [`variant_index`] matches every `TxnEvent` variant with no wildcard
//! arm, so adding a variant fails this test's build until it is given
//! an index — and the index-coverage assertion then forces it into
//! [`all_variants`], the list actually driven through the bus.

use tako_sim::event::{AccountingBus, CbPhase, LevelId, TxnEvent, TxnSink};
use tako_sim::fault::FaultInjector;
use tako_sim::stats::Counter;
use tako_sim::trace::Observer;

/// Number of `TxnEvent` variants under test (level- and phase-carrying
/// variants are exercised once each; their payloads are covered by the
/// event-to-counter mapping tests in `tako_sim::event`).
const VARIANT_COUNT: usize = 19;

/// Maps each variant to a dense index in `0..VARIANT_COUNT`.
///
/// Deliberately wildcard-free: a new `TxnEvent` variant is a compile
/// error here until the conformance suite covers it.
fn variant_index(ev: TxnEvent) -> usize {
    match ev {
        TxnEvent::Hit(_) => 0,
        TxnEvent::Miss(_) => 1,
        TxnEvent::Eviction(_) => 2,
        TxnEvent::Writeback(_) => 3,
        TxnEvent::CoherenceInval => 4,
        TxnEvent::PrefetchIssued => 5,
        TxnEvent::PrefetchUseful => 6,
        TxnEvent::NocHops { .. } => 7,
        TxnEvent::DramRead => 8,
        TxnEvent::DramWrite => 9,
        TxnEvent::MshrStall => 10,
        TxnEvent::FlushedLine => 11,
        TxnEvent::FaultInjected => 12,
        TxnEvent::CallbackRun(_) => 13,
        TxnEvent::CallbackDegraded => 14,
        TxnEvent::MorphQuarantined => 15,
        TxnEvent::EngineWork { .. } => 16,
        TxnEvent::StallDetected { .. } => 17,
        TxnEvent::InvariantViolations(_) => 18,
    }
}

/// One representative of every variant, in [`variant_index`] order.
fn all_variants() -> [TxnEvent; VARIANT_COUNT] {
    [
        TxnEvent::Hit(LevelId::L1d),
        TxnEvent::Miss(LevelId::L2),
        TxnEvent::Eviction(LevelId::Llc),
        TxnEvent::Writeback(LevelId::L2),
        TxnEvent::CoherenceInval,
        TxnEvent::PrefetchIssued,
        TxnEvent::PrefetchUseful,
        TxnEvent::NocHops { flits: 5, hops: 3 },
        TxnEvent::DramRead,
        TxnEvent::DramWrite,
        TxnEvent::MshrStall,
        TxnEvent::FlushedLine,
        TxnEvent::FaultInjected,
        TxnEvent::CallbackRun(CbPhase::OnEviction),
        TxnEvent::CallbackDegraded,
        TxnEvent::MorphQuarantined,
        TxnEvent::EngineWork {
            instrs: 7,
            mem_ops: 2,
        },
        TxnEvent::StallDetected { latency: 640 },
        TxnEvent::InvariantViolations(4),
    ]
}

fn observed_bus() -> AccountingBus {
    let mut bus = AccountingBus::new(FaultInjector::new(None));
    bus.tap = Some(Box::new(Observer::new()));
    bus
}

#[test]
fn variant_indices_are_a_dense_permutation() {
    let mut seen = [false; VARIANT_COUNT];
    for ev in all_variants() {
        let idx = variant_index(ev);
        assert!(
            !seen[idx],
            "variant index {idx} assigned twice ({ev:?}); the \
             conformance list no longer covers every variant exactly once"
        );
        seen[idx] = true;
    }
    assert!(
        seen.iter().all(|&s| s),
        "a TxnEvent variant is missing from all_variants()"
    );
}

#[test]
fn every_variant_appears_exactly_once_with_ordered_stamps() {
    let mut bus = observed_bus();
    for (i, ev) in all_variants().into_iter().enumerate() {
        bus.observe_at(100 * i as u64, i);
        bus.emit(ev);
    }
    let obs = bus.observer().expect("observer tap attached");
    let tail: Vec<_> = obs.ring.tail().collect();
    assert_eq!(tail.len(), VARIANT_COUNT, "one trace record per variant");

    let mut seen = [0u32; VARIANT_COUNT];
    let mut prev_cycle = 0;
    for (i, rec) in tail.iter().enumerate() {
        seen[variant_index(rec.event)] += 1;
        assert_eq!(rec.seq, i as u64, "seq is gap-free in emission order");
        assert_eq!(rec.cycle, 100 * i as u64, "cycle stamp from the cursor");
        assert_eq!(rec.tile, i as u32, "tile attribution from the cursor");
        assert!(
            rec.cycle >= prev_cycle,
            "cycle stamps must be monotonically non-decreasing"
        );
        prev_cycle = rec.cycle;
        assert_eq!(rec.event, all_variants()[i], "payload preserved verbatim");
    }
    assert!(
        seen.iter().all(|&n| n == 1),
        "every variant must appear exactly once: {seen:?}"
    );
}

#[test]
fn stale_cursor_updates_cannot_move_time_backwards() {
    let mut bus = observed_bus();
    // Completion-ordered walks can report earlier cycles after later
    // ones; the cursor clamps so the trace stays ordered regardless.
    let cycles = [500u64, 200, 900, 100, 900, 1_000];
    for (i, (&cycle, ev)) in cycles.iter().zip(all_variants()).enumerate() {
        bus.observe_at(cycle, i);
        bus.emit(ev);
    }
    let obs = bus.observer().unwrap();
    let stamps: Vec<u64> = obs.ring.tail().map(|r| r.cycle).collect();
    assert_eq!(stamps, vec![500, 500, 900, 900, 900, 1_000]);
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn ring_keeps_a_bounded_tail_and_counts_everything() {
    let mut bus = observed_bus();
    let cap = bus.observer().unwrap().ring.capacity() as u64;
    for i in 0..cap + 7 {
        bus.observe_at(i, 0);
        bus.emit(TxnEvent::DramRead);
    }
    let obs = bus.observer().unwrap();
    assert_eq!(obs.ring.total(), cap + 7);
    let tail: Vec<_> = obs.ring.tail().collect();
    assert_eq!(tail.len(), cap as usize);
    assert_eq!(tail[0].seq, 7, "oldest retained record follows the drops");
    assert_eq!(tail.last().unwrap().seq, cap + 6);
}

#[test]
fn observing_never_perturbs_counting() {
    let mut plain = AccountingBus::new(FaultInjector::new(None));
    let mut observed = observed_bus();
    for (i, ev) in all_variants().into_iter().enumerate() {
        plain.emit(ev);
        observed.observe_at(10 * i as u64, i);
        observed.emit(ev);
    }
    for c in Counter::ALL {
        assert_eq!(
            plain.stats.get(c),
            observed.stats.get(c),
            "counter {} diverged under observation",
            c.name()
        );
    }
}
