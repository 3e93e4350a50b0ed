//! The unified accounting bus of the memory-transaction pipeline.
//!
//! Every side effect of a hierarchy walk that is *not* the walk itself —
//! counter bumps, energy-relevant event tallies, NoC hop charges, DRAM
//! traffic, fault-injector polls, watchdog stall reports — flows through
//! this module as a [`TxnEvent`] emitted into a [`TxnSink`]. The walk
//! bodies in `tako-core` contain **no** inline `stats.bump` calls; they
//! describe *what happened* and the subscribers decide *what to count*.
//!
//! ```text
//!   pipeline stage ──emit(TxnEvent)──▶ AccountingBus ──▶ Stats    (counters)
//!                  ◀─poll_fault()────        │      └──▶ Observer (optional:
//!                                     FaultInjector            event ring,
//!                                                              interval metrics,
//!                                                              stage profile)
//! ```
//!
//! [`AccountingBus`] is the assembled bus: it owns the [`Stats`]
//! registry and the [`FaultInjector`] and forwards every event to an
//! optional [`Observer`] (a boxed concrete type, so dispatch is static
//! and the disarmed hot path costs one null test). Tracing and campaign
//! supervision both attach it. Consumers that only need counting can
//! use a bare [`Stats`] as the sink — it implements [`TxnSink`]
//! directly, which is what `tako-noc` and `tako-mem` unit tests do.
//!
//! Events are small `Copy` values; emitting one compiles down to the
//! same flat-array increment the old inline bumps performed, so routing
//! accounting through the bus costs nothing on the hot path (guarded by
//! the `no_alloc` test suite) and gives later work — live tracing,
//! per-interval metrics, cache inspection à la "Observing the
//! Invisible" — a single attach point instead of ~45 scattered call
//! sites.

use crate::fault::{FaultInjector, FaultKind};
use crate::stats::{Counter, Stats};
use crate::trace::Observer;
use crate::Cycle;

/// A level of the cache hierarchy, as tagged on [`TxnEvent`]s.
///
/// The DRAM edge is not a `LevelId`: memory traffic has its own event
/// variants ([`TxnEvent::DramRead`]/[`TxnEvent::DramWrite`]) because it
/// is charged per line transfer, not per tag access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LevelId {
    /// A tile's private L1 data cache.
    L1d,
    /// A tile's private L2.
    L2,
    /// A bank of the shared, inclusive LLC.
    Llc,
}

/// Which callback a Morph ran (mirrors `tako_core::CallbackKind`
/// without the dependency inversion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CbPhase {
    /// `onMiss` — a miss on the Morph's range.
    OnMiss,
    /// `onEviction` — a clean line of the range was evicted.
    OnEviction,
    /// `onWriteback` — a dirty line of the range was evicted.
    OnWriteback,
}

/// One accounting event emitted by a pipeline stage.
///
/// Variants are semantic ("an L2 eviction happened"), not counter names;
/// the mapping to [`Counter`]s lives in the [`Stats`] sink so the
/// [`Observer`] can record the same stream verbatim.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TxnEvent {
    /// A tag lookup hit at `LevelId`.
    Hit(LevelId),
    /// A tag lookup missed at `LevelId`.
    Miss(LevelId),
    /// A valid line was displaced from `LevelId` (L2/LLC only).
    Eviction(LevelId),
    /// A dirty line was written back out of `LevelId` (L2/LLC only).
    Writeback(LevelId),
    /// A coherence invalidation was delivered to a private cache.
    CoherenceInval,
    /// The L2 stride prefetcher issued a prefetch.
    PrefetchIssued,
    /// A previously prefetched line was demanded.
    PrefetchUseful,
    /// `flits * hops` flit-hops crossed the mesh.
    NocHops {
        /// Flits in the message.
        flits: u64,
        /// Hops the message traversed.
        hops: u64,
    },
    /// DRAM served a line read.
    DramRead,
    /// DRAM absorbed a line write.
    DramWrite,
    /// A request found every usable MSHR entry busy and stalled.
    MshrStall,
    /// One line was flushed by a flushData tag walk.
    FlushedLine,
    /// A scheduled fault fired (emitted by the bus itself on a
    /// successful [`AccountingBus::poll_fault`]).
    FaultInjected,
    /// A callback of the given phase was dispatched to an engine.
    CallbackRun(CbPhase),
    /// A callback was skipped because its Morph is quarantined.
    CallbackDegraded,
    /// A Morph was quarantined.
    MorphQuarantined,
    /// A callback finished, having executed `instrs` fabric
    /// instructions and `mem_ops` memory operations.
    EngineWork {
        /// Fabric instructions executed.
        instrs: u64,
        /// Memory operations issued.
        mem_ops: u64,
    },
    /// The watchdog flagged an access `latency` cycles past its bound.
    StallDetected {
        /// Cycles past the stall bound.
        latency: Cycle,
    },
    /// The watchdog's epoch sweep found `.0` new invariant violations.
    InvariantViolations(u64),
}

/// A subscriber to the transaction event stream.
///
/// `emit` must be cheap and allocation-free: it runs on every simulated
/// cache access. `poll_fault` exists because fault injection is the one
/// piece of accounting that feeds *back* into the walk (a fired fault
/// perturbs timing); sinks without an injector keep the default no-op.
pub trait TxnSink {
    /// Deliver one event.
    fn emit(&mut self, ev: TxnEvent);

    /// Fire the first due, untaken fault of `kind` at `now`, returning
    /// its magnitude. The default sink has no faults to fire.
    fn poll_fault(&mut self, _now: Cycle, _kind: FaultKind) -> Option<u64> {
        None
    }
}

impl TxnSink for Stats {
    // always: call sites pass literal variants, so once inlined the
    // match constant-folds to the single counter increment the
    // pre-bus code performed — left to its own devices LLVM keeps
    // this many-armed match outlined and every bump pays a call.
    #[inline(always)]
    fn emit(&mut self, ev: TxnEvent) {
        match ev {
            TxnEvent::Hit(LevelId::L1d) => self.bump(Counter::L1dHit),
            TxnEvent::Hit(LevelId::L2) => self.bump(Counter::L2Hit),
            TxnEvent::Hit(LevelId::Llc) => self.bump(Counter::LlcHit),
            TxnEvent::Miss(LevelId::L1d) => self.bump(Counter::L1dMiss),
            TxnEvent::Miss(LevelId::L2) => self.bump(Counter::L2Miss),
            TxnEvent::Miss(LevelId::Llc) => self.bump(Counter::LlcMiss),
            TxnEvent::Eviction(LevelId::L2) => self.bump(Counter::L2Eviction),
            TxnEvent::Eviction(LevelId::Llc) => self.bump(Counter::LlcEviction),
            TxnEvent::Eviction(LevelId::L1d) => {}
            TxnEvent::Writeback(LevelId::L2) => self.bump(Counter::L2Writeback),
            TxnEvent::Writeback(LevelId::Llc) => self.bump(Counter::LlcWriteback),
            TxnEvent::Writeback(LevelId::L1d) => {}
            TxnEvent::CoherenceInval => self.bump(Counter::CoherenceInval),
            TxnEvent::PrefetchIssued => self.bump(Counter::PrefetchIssued),
            TxnEvent::PrefetchUseful => self.bump(Counter::PrefetchUseful),
            TxnEvent::NocHops { flits, hops } => self.add(Counter::NocFlitHops, flits * hops),
            TxnEvent::DramRead => self.bump(Counter::DramRead),
            TxnEvent::DramWrite => self.bump(Counter::DramWrite),
            TxnEvent::MshrStall => self.bump(Counter::MshrStall),
            TxnEvent::FlushedLine => self.bump(Counter::FlushedLines),
            TxnEvent::FaultInjected => self.bump(Counter::FaultInjected),
            TxnEvent::CallbackRun(CbPhase::OnMiss) => self.bump(Counter::CbOnMiss),
            TxnEvent::CallbackRun(CbPhase::OnEviction) => self.bump(Counter::CbOnEviction),
            TxnEvent::CallbackRun(CbPhase::OnWriteback) => self.bump(Counter::CbOnWriteback),
            TxnEvent::CallbackDegraded => self.bump(Counter::CbDegraded),
            TxnEvent::MorphQuarantined => self.bump(Counter::MorphQuarantined),
            TxnEvent::EngineWork { instrs, mem_ops } => {
                self.add(Counter::EngineInstr, instrs);
                self.add(Counter::EngineMemOp, mem_ops);
            }
            TxnEvent::StallDetected { latency } => {
                self.bump(Counter::WatchdogStallEvents);
                self.stall_detection.record(latency);
            }
            TxnEvent::InvariantViolations(n) => self.add(Counter::InvariantViolation, n),
        }
    }
}

/// The assembled accounting bus: the [`Stats`] subscriber, the
/// [`FaultInjector`], and an optional [`Observer`] tap.
///
/// The hierarchy owns one bus and passes `&mut self.bus` (a disjoint
/// field borrow) into components like the mesh and DRAM model, so a
/// stage can charge accounting while holding other parts of the
/// hierarchy mutably.
#[derive(Debug, Clone, Default)]
pub struct AccountingBus {
    /// Event counters and histograms (the primary subscriber).
    pub stats: Stats,
    /// Deterministic fault injector (inert unless armed).
    pub faults: FaultInjector,
    /// The observer, attached while tracing or supervision is armed.
    pub tap: Option<Box<Observer>>,
}

impl AccountingBus {
    /// A bus with zeroed stats, faults from `plan`, and no tap.
    pub fn new(faults: FaultInjector) -> Self {
        AccountingBus {
            stats: Stats::new(),
            faults,
            tap: None,
        }
    }

    /// True if the fault injector can never fire (the byte-identical
    /// fast path: stall modeling that only exists for fault campaigns
    /// is skipped).
    pub fn faults_inert(&self) -> bool {
        self.faults.is_inert()
    }

    /// Like [`TxnSink::poll_fault`], but at a specific site (tile or
    /// LLC-bank index): fires un-addressed events *and* events
    /// addressed to `site`. Pipeline stages that know where they are
    /// use this so site-addressed fault plans land where they say.
    #[inline]
    pub fn poll_fault_at(&mut self, now: Cycle, kind: FaultKind, site: usize) -> Option<u64> {
        let hit = self.faults.poll_at(now, kind, site);
        if hit.is_some() {
            self.emit(TxnEvent::FaultInjected);
        }
        hit
    }

    /// Advance the observer's cycle/tile stamp cursor (no-op without an
    /// observer): subsequent events are attributed to `tile` at `cycle`.
    #[inline(always)]
    pub fn observe_at(&mut self, cycle: Cycle, tile: usize) {
        if let Some(obs) = &mut self.tap {
            obs.observe_at(cycle, tile as u32);
        }
    }

    /// Attribute a pipeline-stage span to the observer's profile (no-op
    /// without an observer); call sites use the [`span!`](crate::span!)
    /// macro.
    #[inline(always)]
    pub fn span_record(&mut self, stage: crate::trace::Stage, start: Cycle, done: Cycle) {
        if let Some(obs) = &mut self.tap {
            obs.record_span(stage, start, done);
        }
    }

    /// The attached observer, if any.
    #[inline]
    pub fn observer(&self) -> Option<&Observer> {
        self.tap.as_deref()
    }

    /// The attached observer, mutably, if any.
    #[inline(always)]
    pub fn observer_mut(&mut self) -> Option<&mut Observer> {
        self.tap.as_deref_mut()
    }

    /// Detach and return the observer, if any.
    pub fn take_observer(&mut self) -> Option<Box<Observer>> {
        self.tap.take()
    }
}

impl TxnSink for AccountingBus {
    #[inline(always)]
    fn emit(&mut self, ev: TxnEvent) {
        self.stats.emit(ev);
        if let Some(obs) = &mut self.tap {
            obs.emit(ev);
        }
    }

    /// Polls the injector; a fired fault is counted as
    /// [`TxnEvent::FaultInjected`] before the magnitude is returned, so
    /// call sites never pair a poll with a manual bump.
    #[inline]
    fn poll_fault(&mut self, now: Cycle, kind: FaultKind) -> Option<u64> {
        let hit = self.faults.poll(now, kind);
        if hit.is_some() {
            self.emit(TxnEvent::FaultInjected);
        }
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    #[test]
    fn stats_sink_maps_levels() {
        let mut s = Stats::new();
        s.emit(TxnEvent::Hit(LevelId::L1d));
        s.emit(TxnEvent::Miss(LevelId::L2));
        s.emit(TxnEvent::Eviction(LevelId::Llc));
        s.emit(TxnEvent::Writeback(LevelId::L2));
        s.emit(TxnEvent::NocHops { flits: 5, hops: 3 });
        s.emit(TxnEvent::EngineWork {
            instrs: 7,
            mem_ops: 2,
        });
        assert_eq!(s.get(Counter::L1dHit), 1);
        assert_eq!(s.get(Counter::L2Miss), 1);
        assert_eq!(s.get(Counter::LlcEviction), 1);
        assert_eq!(s.get(Counter::L2Writeback), 1);
        assert_eq!(s.get(Counter::NocFlitHops), 15);
        assert_eq!(s.get(Counter::EngineInstr), 7);
        assert_eq!(s.get(Counter::EngineMemOp), 2);
    }

    #[test]
    fn stall_event_records_histogram() {
        let mut s = Stats::new();
        s.emit(TxnEvent::StallDetected { latency: 640 });
        assert_eq!(s.get(Counter::WatchdogStallEvents), 1);
        assert_eq!(s.stall_detection.count(), 1);
        assert_eq!(s.stall_detection.max(), 640);
    }

    #[test]
    fn bus_counts_fired_faults() {
        let plan = FaultPlan::single(100, FaultKind::DelayedDram, 9);
        let mut bus = AccountingBus::new(FaultInjector::new(Some(&plan)));
        assert!(!bus.faults_inert());
        assert_eq!(bus.poll_fault(50, FaultKind::DelayedDram), None);
        assert_eq!(bus.stats.get(Counter::FaultInjected), 0);
        assert_eq!(bus.poll_fault(200, FaultKind::DelayedDram), Some(9));
        assert_eq!(bus.stats.get(Counter::FaultInjected), 1);
    }

    #[test]
    fn inert_bus_polls_are_free() {
        let mut bus = AccountingBus::new(FaultInjector::new(None));
        assert!(bus.faults_inert());
        assert_eq!(bus.poll_fault(u64::MAX, FaultKind::MshrPressure), None);
        assert_eq!(bus.stats.get(Counter::FaultInjected), 0);
    }

    #[test]
    fn observer_tap_keeps_a_bounded_tail() {
        let mut bus = AccountingBus::new(FaultInjector::new(None));
        bus.tap = Some(Box::new(Observer::new()));
        let cap = bus.observer().unwrap().ring.capacity() as u64;
        for i in 0..(cap + 10) {
            bus.emit(TxnEvent::NocHops { flits: i, hops: 1 });
        }
        let ring = &bus.observer().expect("observer attached").ring;
        assert_eq!(ring.total(), cap + 10);
        let tail: Vec<TxnEvent> = ring.tail().map(|r| r.event).collect();
        assert_eq!(tail.len(), cap as usize);
        assert_eq!(tail[0], TxnEvent::NocHops { flits: 10, hops: 1 });
        let rendered = ring.render();
        assert!(rendered.contains("trace tail"));
        assert!(rendered.contains("NocHops"));
        // Observing must not perturb counting.
        assert_eq!(
            bus.stats.get(Counter::NocFlitHops),
            (0..(cap + 10)).sum::<u64>()
        );
    }

    #[test]
    fn site_aware_poll_respects_addressing() {
        let mut plan = FaultPlan::single(0, FaultKind::MshrPressure, 5);
        plan.events[0].site = Some(7);
        let mut bus = AccountingBus::new(FaultInjector::new(Some(&plan)));
        assert_eq!(bus.poll_fault(1_000, FaultKind::MshrPressure), None);
        assert_eq!(bus.poll_fault_at(1_000, FaultKind::MshrPressure, 0), None);
        assert_eq!(
            bus.poll_fault_at(1_000, FaultKind::MshrPressure, 7),
            Some(5)
        );
        assert_eq!(bus.stats.get(Counter::FaultInjected), 1);
    }
}
