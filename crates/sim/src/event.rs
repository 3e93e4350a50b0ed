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
//!   pipeline stage ──emit(TxnEvent)──▶ AccountingBus ──▶ Stats   (counters)
//!                  ◀─poll_fault()────        │      └──▶ SinkTap (optional:
//!                                     FaultInjector           energy meter,
//!                                                             future tracer)
//! ```
//!
//! [`AccountingBus`] is the assembled bus: it owns the [`Stats`]
//! registry and the [`FaultInjector`] and forwards every event to an
//! optional extra subscriber ([`SinkTap`], an enum so dispatch is static
//! and the hot path stays allocation- and vtable-free). Consumers that
//! only need counting can use a bare [`Stats`] as the sink — it
//! implements [`TxnSink`] directly, which is what `tako-noc` and
//! `tako-mem` unit tests do.
//!
//! Events are small `Copy` values; emitting one compiles down to the
//! same flat-array increment the old inline bumps performed, so routing
//! accounting through the bus costs nothing on the hot path (guarded by
//! the `no_alloc` test suite) and gives later work — live tracing,
//! per-interval metrics, cache inspection à la "Observing the
//! Invisible" — a single attach point instead of ~45 scattered call
//! sites.

use crate::energy::EnergyAccumulator;
use crate::fault::{FaultInjector, FaultKind};
use crate::stats::{Counter, Stats};
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
/// the mapping to [`Counter`]s lives in the [`Stats`] sink so other
/// subscribers (energy meters, tracers) can interpret the same stream
/// differently.
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

/// Capacity of the [`EventTrace`] ring buffer.
pub const TRACE_CAPACITY: usize = 64;

/// A fixed-capacity ring buffer over the last [`TRACE_CAPACITY`]
/// [`TxnEvent`]s, for crash triage: when a supervised experiment is
/// killed (panic, deadline, watchdog stall), the tail of the event
/// stream shows what the pipeline was doing per stage right before
/// death. Recording is allocation-free (a slot write and two adds);
/// rendering only happens on the triage path.
#[derive(Debug, Clone)]
pub struct EventTrace {
    ring: [Option<TxnEvent>; TRACE_CAPACITY],
    total: u64,
}

impl Default for EventTrace {
    fn default() -> Self {
        EventTrace {
            ring: [None; TRACE_CAPACITY],
            total: 0,
        }
    }
}

impl EventTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events observed (not just the retained tail).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> impl Iterator<Item = TxnEvent> + '_ {
        let n = (self.total as usize).min(TRACE_CAPACITY);
        let start = self.total as usize - n;
        (start..self.total as usize).filter_map(move |i| self.ring[i % TRACE_CAPACITY])
    }

    /// Render the tail for a triage bundle, one event per line with its
    /// stream position.
    pub fn render(&self) -> String {
        let n = (self.total as usize).min(TRACE_CAPACITY);
        let start = self.total as usize - n;
        let mut out = format!("event tail ({n} of {} total):\n", self.total);
        for (pos, ev) in (start..).zip(self.tail()) {
            out.push_str(&format!("  [{pos}] {ev:?}\n"));
        }
        out
    }
}

impl TxnSink for EventTrace {
    #[inline(always)]
    fn emit(&mut self, ev: TxnEvent) {
        self.ring[self.total as usize % TRACE_CAPACITY] = Some(ev);
        self.total += 1;
    }
}

/// An optional extra subscriber slot on the bus.
///
/// An enum (not a `Box<dyn TxnSink>`) so the common case — no tap —
/// costs one discriminant test and the bus stays `Clone`-free of heap
/// indirection. New subscriber kinds (a per-interval metrics
/// aggregator) are added as variants.
#[derive(Debug, Clone, Default)]
pub enum SinkTap {
    /// No extra subscriber (the default; the hot path's only cost is
    /// the discriminant test).
    #[default]
    None,
    /// Live energy metering (see [`EnergyAccumulator`]).
    Energy(EnergyAccumulator),
    /// Ring-buffer event tracer for crash triage (see [`EventTrace`]);
    /// attached while a supervised campaign runs.
    Trace(Box<EventTrace>),
    /// Full observability recorder (see [`crate::trace::Observer`]):
    /// stamped event trace, interval metrics, and stage profile;
    /// attached while `trace::armed()` experiments run.
    Observer(Box<crate::trace::Observer>),
}

impl TxnSink for SinkTap {
    #[inline(always)]
    fn emit(&mut self, ev: TxnEvent) {
        match self {
            SinkTap::None => {}
            SinkTap::Energy(acc) => acc.emit(ev),
            SinkTap::Trace(trace) => trace.emit(ev),
            SinkTap::Observer(obs) => obs.emit(ev),
        }
    }
}

/// The assembled accounting bus: the [`Stats`] subscriber, the
/// [`FaultInjector`], and an optional [`SinkTap`].
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
    /// Optional extra subscriber.
    pub tap: SinkTap,
}

impl AccountingBus {
    /// A bus with zeroed stats, faults from `plan`, and no tap.
    pub fn new(faults: FaultInjector) -> Self {
        AccountingBus {
            stats: Stats::new(),
            faults,
            tap: SinkTap::None,
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

    /// The triage tail of the event stream, when a [`SinkTap::Trace`]
    /// is attached.
    pub fn trace(&self) -> Option<&EventTrace> {
        match &self.tap {
            SinkTap::Trace(t) => Some(t.as_ref()),
            _ => None,
        }
    }

    /// Advance the observer's cycle/tile stamp cursor (no-op without an
    /// observer tap): subsequent events are attributed to `tile` at
    /// `cycle`.
    #[inline(always)]
    pub fn observe_at(&mut self, cycle: Cycle, tile: usize) {
        if let SinkTap::Observer(obs) = &mut self.tap {
            obs.observe_at(cycle, tile as u32);
        }
    }

    /// Attribute a pipeline-stage span to the observer's profile (no-op
    /// without an observer tap); call sites use the
    /// [`span!`](crate::span!) macro.
    #[inline(always)]
    pub fn span_record(&mut self, stage: crate::trace::Stage, start: Cycle, done: Cycle) {
        if let SinkTap::Observer(obs) = &mut self.tap {
            obs.record_span(stage, start, done);
        }
    }

    /// The attached observer, if any.
    #[inline]
    pub fn observer(&self) -> Option<&crate::trace::Observer> {
        match &self.tap {
            SinkTap::Observer(obs) => Some(obs.as_ref()),
            _ => None,
        }
    }

    /// The attached observer, mutably, if any.
    #[inline(always)]
    pub fn observer_mut(&mut self) -> Option<&mut crate::trace::Observer> {
        match &mut self.tap {
            SinkTap::Observer(obs) => Some(obs.as_mut()),
            _ => None,
        }
    }

    /// Detach and return the observer tap, leaving [`SinkTap::None`];
    /// `None` (tap untouched) when no observer is attached.
    pub fn take_observer(&mut self) -> Option<Box<crate::trace::Observer>> {
        if matches!(self.tap, SinkTap::Observer(_)) {
            match std::mem::take(&mut self.tap) {
                SinkTap::Observer(obs) => Some(obs),
                _ => unreachable!(),
            }
        } else {
            None
        }
    }
}

impl TxnSink for AccountingBus {
    #[inline(always)]
    fn emit(&mut self, ev: TxnEvent) {
        self.stats.emit(ev);
        self.tap.emit(ev);
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
    fn trace_tap_keeps_a_bounded_tail() {
        let mut bus = AccountingBus::new(FaultInjector::new(None));
        bus.tap = SinkTap::Trace(Box::new(EventTrace::new()));
        for i in 0..(TRACE_CAPACITY as u64 + 10) {
            bus.emit(TxnEvent::NocHops { flits: i, hops: 1 });
        }
        let trace = bus.trace().expect("trace tap attached");
        assert_eq!(trace.total(), TRACE_CAPACITY as u64 + 10);
        let tail: Vec<TxnEvent> = trace.tail().collect();
        assert_eq!(tail.len(), TRACE_CAPACITY);
        assert_eq!(tail[0], TxnEvent::NocHops { flits: 10, hops: 1 });
        let rendered = trace.render();
        assert!(rendered.contains("event tail"));
        assert!(rendered.contains("NocHops"));
        // Tracing must not perturb counting.
        assert_eq!(
            bus.stats.get(Counter::NocFlitHops),
            (0..(TRACE_CAPACITY as u64 + 10)).sum::<u64>()
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

    #[test]
    fn energy_tap_sees_events() {
        let mut bus = AccountingBus::new(FaultInjector::new(None));
        bus.tap = SinkTap::Energy(EnergyAccumulator::default());
        bus.emit(TxnEvent::DramRead);
        let SinkTap::Energy(acc) = &bus.tap else {
            panic!("tap replaced");
        };
        assert!(acc.total_pj() > 0.0);
    }
}
