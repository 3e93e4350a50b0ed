//! Structured tracing, per-phase interval metrics, and profiling hooks.
//!
//! This module is the observability layer on top of the accounting bus
//! ([`crate::event`]): a zero-overhead-when-off subsystem that turns the
//! existing [`TxnEvent`] stream into
//!
//! 1. a bounded **ring-buffer event trace** with cycle stamps and
//!    tile attribution, exportable as Chrome `trace_event` JSON
//!    (loadable in `chrome://tracing` / Perfetto),
//! 2. **per-interval metrics** (hit/miss rates, MPKI, callback
//!    occupancy, fabric utilization, DRAM queue depth, energy) sampled
//!    at watchdog epochs into a [`MetricsRecorder`] with a fixed-size
//!    log2-bucket miss-latency histogram, and
//! 3. **profiling spans** that attribute transaction cycles to pipeline
//!    stages (L1/L2/LLC/fill/callback) via the [`span!`](crate::span) macro and the
//!    observational `StageStamps` carried by every `MemTxn`.
//!
//! ```text
//!   pipeline ──TxnEvent──▶ AccountingBus ──▶ Stats
//!                                │
//!                          bus.tap: Observer ──▶ TraceRing   (events) ──▶ triage tail
//!                                │          ├─▶ MetricsRecorder (epochs)
//!                                │          └─▶ StageProfile    (spans)
//!                                ▼ drop, while armed
//!                         trace::collect ──▶ trace::drain ──▶ TraceReport
//!                                                    │   ├─ chrome_trace_json
//!                                                    │   ├─ profile_table
//!                                                    │   └─ metrics_json
//! ```
//!
//! # Zero overhead when off
//!
//! Nothing here runs unless tracing ([`arm`]) or campaign supervision
//! ([`crate::supervise::arm`]) is armed: the hierarchy only attaches an
//! [`Observer`] then, so the disarmed hot path pays one null test of
//! `AccountingBus::tap` per event (pinned by the `no_alloc` test suite,
//! and by the golden-digest differential test which proves tracing is
//! strictly observational). Supervision reads the ring for its triage
//! tail; only tracing flushes observers into the process-wide
//! collector.
//!
//! When armed, recording stays allocation-free: every structure below
//! preallocates at construction and records by overwriting fixed slots.
//!
//! [`TxnEvent`]: crate::event::TxnEvent

use crate::event::{LevelId, TxnEvent, TxnSink};
use crate::stats::{Counter, LatencyHistogram, Stats};
use crate::Cycle;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Slots in each per-system [`TraceRing`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Slots in each per-system [`MetricsRecorder`] sample ring.
pub const DEFAULT_SAMPLE_CAPACITY: usize = 512;

/// Cap on events retained by the process-wide collector across all
/// systems; overflow is counted, never silently dropped.
pub const MAX_COLLECTED_EVENTS: usize = 1 << 17;

/// Cap on interval samples retained by the process-wide collector.
pub const MAX_COLLECTED_SAMPLES: usize = 1 << 14;

/// Simulated clock, used to convert cycle stamps to trace-viewer
/// microseconds (the default system runs at 2.4 GHz).
pub const CYCLES_PER_US: f64 = 2400.0;

// ----------------------------------------------------------------------
// Event trace ring
// ----------------------------------------------------------------------

/// One traced bus event: the raw [`TxnEvent`] plus when/where it
/// happened and its position in the per-system stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Position in the per-system event stream (0-based, gap-free).
    pub seq: u64,
    /// Cycle stamp (the observer cursor at emit time).
    pub cycle: Cycle,
    /// Tile attribution (the observer cursor at emit time).
    pub tile: u32,
    /// Which simulated system produced the event (assigned when the
    /// observer is collected; `0` while recording).
    pub sys: u32,
    /// The event itself.
    pub event: TxnEvent,
}

/// A bounded ring buffer of [`TraceRecord`]s. Recording is a slot
/// write; when the ring wraps, the oldest records are overwritten (and
/// the loss is visible as a gap between `total` and the retained tail).
#[derive(Debug, Clone)]
pub struct TraceRing {
    slots: Box<[Option<TraceRecord>]>,
    total: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::with_capacity(DEFAULT_TRACE_CAPACITY)
    }
}

impl TraceRing {
    /// An empty ring with `capacity` slots (at least 1).
    pub fn with_capacity(capacity: usize) -> Self {
        TraceRing {
            slots: vec![None; capacity.max(1)].into_boxed_slice(),
            total: 0,
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever observed (not just the retained tail).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Append one record (allocation-free slot write).
    #[inline(always)]
    pub fn record(&mut self, rec: TraceRecord) {
        let cap = self.slots.len();
        self.slots[self.total as usize % cap] = Some(rec);
        self.total += 1;
    }

    /// The retained tail, oldest first.
    pub fn tail(&self) -> impl Iterator<Item = TraceRecord> + '_ {
        let cap = self.slots.len();
        let n = (self.total as usize).min(cap);
        let start = self.total as usize - n;
        (start..self.total as usize).filter_map(move |i| self.slots[i % cap])
    }

    /// Render the tail for a triage bundle, one record per line.
    pub fn render(&self) -> String {
        let n = (self.total as usize).min(self.slots.len());
        let mut out = format!("trace tail ({n} of {} total):\n", self.total);
        for rec in self.tail() {
            out.push_str(&format!(
                "  [{}] cycle={} tile={} {:?}\n",
                rec.seq, rec.cycle, rec.tile, rec.event
            ));
        }
        out
    }
}

// ----------------------------------------------------------------------
// Pipeline stage profile
// ----------------------------------------------------------------------

/// A pipeline stage that cycles can be attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Private L1d access window.
    L1,
    /// Private L2 window of an L1 miss.
    L2,
    /// Shared LLC window of an L2 miss.
    Llc,
    /// Fill path (DRAM edge and return) of an LLC miss.
    Fill,
    /// Callback execution on an engine.
    Callback,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 5;

    /// All stages, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::L1,
        Stage::L2,
        Stage::Llc,
        Stage::Fill,
        Stage::Callback,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::L1 => "L1",
            Stage::L2 => "L2",
            Stage::Llc => "LLC",
            Stage::Fill => "Fill",
            Stage::Callback => "Callback",
        }
    }
}

/// Cycles attributed per pipeline stage, fed by [`span!`](crate::span) scopes and by
/// the retiring transaction's `StageStamps`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageProfile {
    visits: [u64; Stage::COUNT],
    cycles: [u64; Stage::COUNT],
    txns: u64,
    txn_cycles: u64,
}

impl StageProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attribute the closed interval `start..done` to `stage`.
    #[inline]
    pub fn record_span(&mut self, stage: Stage, start: Cycle, done: Cycle) {
        self.visits[stage as usize] += 1;
        self.cycles[stage as usize] += done.saturating_sub(start);
    }

    /// Attribute one retired transaction's stage windows from its
    /// observational stamps. Each window runs from its own stamp to the
    /// next stamp that was set (or retirement).
    #[inline]
    pub fn record_txn(
        &mut self,
        issued: Cycle,
        l1: Option<Cycle>,
        l2: Option<Cycle>,
        llc: Option<Cycle>,
        fill: Option<Cycle>,
        done: Cycle,
    ) {
        self.txns += 1;
        self.txn_cycles += done.saturating_sub(issued);
        if let Some(t) = l1 {
            let end = l2.or(llc).or(fill).unwrap_or(done);
            self.record_span(Stage::L1, t, end);
        }
        if let Some(t) = l2 {
            let end = llc.or(fill).unwrap_or(done);
            self.record_span(Stage::L2, t, end);
        }
        if let Some(t) = llc {
            let end = fill.unwrap_or(done);
            self.record_span(Stage::Llc, t, end);
        }
        if let Some(t) = fill {
            self.record_span(Stage::Fill, t, done);
        }
    }

    /// Visits recorded for `stage`.
    pub fn visits(&self, stage: Stage) -> u64 {
        self.visits[stage as usize]
    }

    /// Cycles attributed to `stage`.
    pub fn cycles(&self, stage: Stage) -> u64 {
        self.cycles[stage as usize]
    }

    /// Transactions retired through the profile.
    pub fn txns(&self) -> u64 {
        self.txns
    }

    /// Total issue-to-retire cycles across profiled transactions.
    pub fn txn_cycles(&self) -> u64 {
        self.txn_cycles
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &StageProfile) {
        for i in 0..Stage::COUNT {
            self.visits[i] += other.visits[i];
            self.cycles[i] += other.cycles[i];
        }
        self.txns += other.txns;
        self.txn_cycles += other.txn_cycles;
    }

    /// Render the `--profile` table: per-stage visits, cycles, mean
    /// cycles/visit, and share of total attributed cycles.
    pub fn render(&self) -> String {
        let total: u64 = self.cycles.iter().sum();
        let mut out = String::from(
            "stage         visits       cycles   cyc/visit   share\n\
             --------  ----------  -----------  ----------  ------\n",
        );
        for s in Stage::ALL {
            let v = self.visits(s);
            let c = self.cycles(s);
            let per = if v == 0 { 0.0 } else { c as f64 / v as f64 };
            let share = if total == 0 {
                0.0
            } else {
                100.0 * c as f64 / total as f64
            };
            out.push_str(&format!(
                "{:<8}  {v:>10}  {c:>11}  {per:>10.1}  {share:>5.1}%\n",
                s.name()
            ));
        }
        out.push_str(&format!(
            "{} txns profiled, {} issue-to-retire cycles\n",
            self.txns, self.txn_cycles
        ));
        out
    }
}

/// Time the hierarchy-stage expression `$body` and attribute its
/// `start..done` window to `$stage` on `$bus` (a no-op unless an
/// observer tap is attached). `$body` must evaluate to the completion
/// cycle; the macro returns it unchanged.
///
/// ```
/// use tako_sim::event::AccountingBus;
/// use tako_sim::fault::FaultInjector;
/// use tako_sim::trace::Stage;
///
/// let mut bus = AccountingBus::new(FaultInjector::new(None));
/// let start = 100u64;
/// let done = tako_sim::span!(bus, Stage::Callback, start, start + 40);
/// assert_eq!(done, 140);
/// ```
#[macro_export]
macro_rules! span {
    ($bus:expr, $stage:expr, $start:expr, $body:expr) => {{
        let __tako_span_start: $crate::Cycle = $start;
        let __tako_span_done: $crate::Cycle = $body;
        $bus.span_record($stage, __tako_span_start, __tako_span_done);
        __tako_span_done
    }};
}

// ----------------------------------------------------------------------
// Interval metrics
// ----------------------------------------------------------------------

/// One per-epoch interval sample: counter *deltas* over the epoch plus
/// instantaneous gauges, from which the rate metrics derive.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IntervalSample {
    /// Which simulated system produced the sample (assigned at collect
    /// time; `0` while recording).
    pub sys: u32,
    /// Watchdog epoch index the sample closed.
    pub epoch: u64,
    /// Cycle at which the sample was taken.
    pub at_cycle: Cycle,
    /// Cycles elapsed since the previous sample.
    pub cycles: Cycle,
    /// L1d hits in the interval.
    pub l1d_hits: u64,
    /// L1d misses in the interval.
    pub l1d_misses: u64,
    /// L2 hits in the interval.
    pub l2_hits: u64,
    /// L2 misses in the interval.
    pub l2_misses: u64,
    /// LLC hits in the interval.
    pub llc_hits: u64,
    /// LLC misses in the interval.
    pub llc_misses: u64,
    /// DRAM line reads in the interval.
    pub dram_reads: u64,
    /// DRAM line writes in the interval.
    pub dram_writes: u64,
    /// NoC flit-hops in the interval.
    pub noc_flit_hops: u64,
    /// MSHR stalls in the interval.
    pub mshr_stalls: u64,
    /// Callbacks dispatched in the interval (all phases).
    pub callbacks: u64,
    /// Engine cycles consumed by callbacks in the interval.
    pub cb_cycles: u64,
    /// Fabric instructions executed in the interval.
    pub engine_instrs: u64,
    /// Instructions (core + engine) in the interval.
    pub instrs: u64,
    /// Dynamic energy (picojoules) spent in the interval.
    pub energy_pj: f64,
    /// DRAM queue depth at sample time: cycles of already-committed
    /// work backlogged on the busiest controller.
    pub dram_backlog: Cycle,
}

impl IntervalSample {
    /// Interval miss rate at `level`, or 0.0 with no accesses.
    pub fn miss_rate(&self, level: LevelId) -> f64 {
        let (hits, misses) = match level {
            LevelId::L1d => (self.l1d_hits, self.l1d_misses),
            LevelId::L2 => (self.l2_hits, self.l2_misses),
            LevelId::Llc => (self.llc_hits, self.llc_misses),
        };
        let total = hits + misses;
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// LLC misses per thousand instructions over the interval.
    pub fn mpki(&self) -> f64 {
        if self.instrs == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1000.0 / self.instrs as f64
        }
    }

    /// Fabric utilization: engine instructions per elapsed cycle.
    pub fn fabric_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.engine_instrs as f64 / self.cycles as f64
        }
    }

    /// Callback occupancy: fraction of the interval spent executing
    /// callbacks (can exceed 1.0 when engines overlap).
    pub fn callback_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.cb_cycles as f64 / self.cycles as f64
        }
    }
}

/// Per-epoch interval metrics plus a log2-bucket miss-latency histogram.
///
/// [`MetricsRecorder::sample`] runs at watchdog epochs (quiescent
/// points): it diffs the live [`Stats`] counters and callback-latency
/// sum against the previous epoch's values, derives the interval
/// sample, and stores it in a bounded ring — all slot writes, no
/// allocation. Callback latency itself lives only in
/// [`Stats::callback_latency`].
#[derive(Debug, Clone)]
pub struct MetricsRecorder {
    prev: [u64; Counter::COUNT],
    prev_energy_pj: f64,
    prev_cb_cycles: u64,
    prev_cycle: Cycle,
    samples: Box<[Option<IntervalSample>]>,
    total_samples: u64,
    /// Issue-to-retire latency of L1-missing transactions.
    pub miss_latency: LatencyHistogram,
}

impl Default for MetricsRecorder {
    fn default() -> Self {
        MetricsRecorder::with_capacity(DEFAULT_SAMPLE_CAPACITY)
    }
}

impl MetricsRecorder {
    /// An empty recorder retaining up to `capacity` interval samples.
    pub fn with_capacity(capacity: usize) -> Self {
        MetricsRecorder {
            prev: [0; Counter::COUNT],
            prev_energy_pj: 0.0,
            prev_cb_cycles: 0,
            prev_cycle: 0,
            samples: vec![None; capacity.max(1)].into_boxed_slice(),
            total_samples: 0,
            miss_latency: LatencyHistogram::new(),
        }
    }

    /// Total samples ever taken (not just the retained tail).
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }

    /// The retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = IntervalSample> + '_ {
        let cap = self.samples.len();
        let n = (self.total_samples as usize).min(cap);
        let start = self.total_samples as usize - n;
        (start..self.total_samples as usize).filter_map(move |i| self.samples[i % cap])
    }

    /// Record one L1-missing transaction's issue-to-retire latency.
    #[inline(always)]
    pub fn record_miss(&mut self, latency: Cycle) {
        self.miss_latency.record(latency);
    }

    /// Close the interval ending at `now` (watchdog epoch `epoch`):
    /// diff `stats` against the previous sample point and retain the
    /// deltas plus the `energy_pj`/`dram_backlog` gauges.
    pub fn sample(
        &mut self,
        epoch: u64,
        now: Cycle,
        stats: &Stats,
        energy_pj: f64,
        dram_backlog: Cycle,
    ) {
        let d = |c: Counter| stats.get(c).saturating_sub(self.prev[c as usize]);
        let cb_cycles = stats
            .callback_latency
            .sum()
            .saturating_sub(self.prev_cb_cycles);
        let sample = IntervalSample {
            sys: 0,
            epoch,
            at_cycle: now,
            cycles: now.saturating_sub(self.prev_cycle),
            l1d_hits: d(Counter::L1dHit),
            l1d_misses: d(Counter::L1dMiss),
            l2_hits: d(Counter::L2Hit),
            l2_misses: d(Counter::L2Miss),
            llc_hits: d(Counter::LlcHit),
            llc_misses: d(Counter::LlcMiss),
            dram_reads: d(Counter::DramRead),
            dram_writes: d(Counter::DramWrite),
            noc_flit_hops: d(Counter::NocFlitHops),
            mshr_stalls: d(Counter::MshrStall),
            callbacks: d(Counter::CbOnMiss) + d(Counter::CbOnEviction) + d(Counter::CbOnWriteback),
            cb_cycles,
            engine_instrs: d(Counter::EngineInstr),
            instrs: d(Counter::CoreInstr) + d(Counter::EngineInstr),
            energy_pj: (energy_pj - self.prev_energy_pj).max(0.0),
            dram_backlog,
        };
        for c in Counter::ALL {
            self.prev[c as usize] = stats.get(c);
        }
        self.prev_energy_pj = energy_pj;
        self.prev_cb_cycles = stats.callback_latency.sum();
        self.prev_cycle = now;
        let cap = self.samples.len();
        self.samples[self.total_samples as usize % cap] = Some(sample);
        self.total_samples += 1;
    }
}

// ----------------------------------------------------------------------
// Observer: the bus-attached recorder
// ----------------------------------------------------------------------

/// The bus-attached observability recorder: an event [`TraceRing`], a
/// [`MetricsRecorder`], and a [`StageProfile`], stamped by a
/// cycle/tile cursor the hierarchy advances with
/// `AccountingBus::observe_at`.
///
/// The cursor is clamped monotonically non-decreasing so ring stamps
/// are ordered by construction even when the hierarchy replays
/// out-of-order completion times.
///
/// An observer is observation, not machine state: it is never part of
/// a system snapshot, and it keeps nothing [`Stats`] already keeps.
#[derive(Debug, Clone, Default)]
pub struct Observer {
    /// The bounded event trace.
    pub ring: TraceRing,
    /// Interval metrics and the miss-latency histogram.
    pub metrics: MetricsRecorder,
    /// Per-stage cycle attribution.
    pub profile: StageProfile,
    cursor_cycle: Cycle,
    cursor_tile: u32,
}

impl Observer {
    /// A fresh observer with default ring capacities.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance the stamp cursor: subsequent events are attributed to
    /// `tile` at `cycle` (clamped non-decreasing).
    #[inline(always)]
    pub fn observe_at(&mut self, cycle: Cycle, tile: u32) {
        self.cursor_cycle = self.cursor_cycle.max(cycle);
        self.cursor_tile = tile;
    }

    /// Attribute a stage span (see [`span!`](crate::span)).
    #[inline(always)]
    pub fn record_span(&mut self, stage: Stage, start: Cycle, done: Cycle) {
        self.profile.record_span(stage, start, done);
    }

    /// Record one retired transaction: stage attribution from its
    /// observational stamps, plus miss latency when it left the L1.
    #[inline(always)]
    pub fn record_txn(
        &mut self,
        issued: Cycle,
        l1: Option<Cycle>,
        l2: Option<Cycle>,
        llc: Option<Cycle>,
        fill: Option<Cycle>,
        done: Cycle,
    ) {
        self.profile.record_txn(issued, l1, l2, llc, fill, done);
        if l2.is_some() {
            self.metrics.record_miss(done.saturating_sub(issued));
        }
    }

    /// Close the interval at a watchdog epoch (see
    /// [`MetricsRecorder::sample`]).
    pub fn sample_epoch(
        &mut self,
        epoch: u64,
        now: Cycle,
        stats: &Stats,
        energy_pj: f64,
        dram_backlog: Cycle,
    ) {
        self.metrics
            .sample(epoch, now, stats, energy_pj, dram_backlog);
    }
}

impl TxnSink for Observer {
    #[inline(always)]
    fn emit(&mut self, ev: TxnEvent) {
        self.ring.record(TraceRecord {
            seq: self.ring.total,
            cycle: self.cursor_cycle,
            tile: self.cursor_tile,
            sys: 0,
            event: ev,
        });
    }
}

// ----------------------------------------------------------------------
// Process-wide arming and collection
// ----------------------------------------------------------------------

/// Process-global arming flag: when set, every newly constructed
/// hierarchy attaches an [`Observer`], and a hierarchy dropped while it
/// is set flushes its observer into the collector. Process-global (not
/// thread-local) because experiments fan out across worker threads.
static ARMED: AtomicBool = AtomicBool::new(false);

/// The process-wide collector: the report every collected system has
/// been merged into so far.
static COLLECTOR: Mutex<Option<TraceReport>> = Mutex::new(None);

/// Arm tracing process-wide and reset the collector. Hierarchies built
/// after this attach observers; call before running experiments.
pub fn arm() {
    let mut guard = COLLECTOR.lock().unwrap();
    *guard = Some(TraceReport::default());
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarm tracing: hierarchies built after this run untapped. Already
/// collected data stays until [`drain`].
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// True while tracing is armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Flush one finished system's observer into the process-wide
/// collector, assigning it the next system id, together with the
/// callback latency the system's own `stats` recorded. Called by the
/// hierarchy on drop while tracing is armed (and explicitly by tests).
pub fn collect(obs: Observer, stats: &Stats) {
    let mut guard = COLLECTOR.lock().unwrap();
    let c = guard.get_or_insert_with(TraceReport::default);
    let sys = c.systems;
    c.systems += 1;
    let retained = (obs.ring.total() as usize).min(obs.ring.capacity()) as u64;
    c.events_dropped += obs.ring.total() - retained;
    for mut rec in obs.ring.tail() {
        if c.events.len() < MAX_COLLECTED_EVENTS {
            rec.sys = sys;
            c.events.push(rec);
        } else {
            c.events_dropped += 1;
        }
    }
    let kept_samples = (obs.metrics.total_samples() as usize).min(obs.metrics.samples.len()) as u64;
    c.samples_dropped += obs.metrics.total_samples() - kept_samples;
    for mut s in obs.metrics.samples() {
        if c.samples.len() < MAX_COLLECTED_SAMPLES {
            s.sys = sys;
            c.samples.push(s);
        } else {
            c.samples_dropped += 1;
        }
    }
    c.profile.merge(&obs.profile);
    c.miss_latency.merge(&obs.metrics.miss_latency);
    c.callback_latency.merge(&stats.callback_latency);
}

/// Take everything collected since [`arm`] as a [`TraceReport`],
/// leaving the collector empty.
pub fn drain() -> TraceReport {
    COLLECTOR.lock().unwrap().take().unwrap_or_default()
}

// ----------------------------------------------------------------------
// The drained report and its exporters
// ----------------------------------------------------------------------

/// Everything the observability layer gathered over a run: the merged
/// event trace, interval samples, stage profile, and latency
/// histograms across every collected system.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Retained trace events, grouped by system in collection order.
    pub events: Vec<TraceRecord>,
    /// Events lost to ring overwrite or the collector cap.
    pub events_dropped: u64,
    /// Retained interval samples.
    pub samples: Vec<IntervalSample>,
    /// Samples lost to ring overwrite or the collector cap.
    pub samples_dropped: u64,
    /// Merged per-stage cycle attribution.
    pub profile: StageProfile,
    /// Merged issue-to-retire latency of L1-missing transactions.
    pub miss_latency: LatencyHistogram,
    /// Merged callback engine latency, from each system's
    /// [`Stats::callback_latency`].
    pub callback_latency: LatencyHistogram,
    /// Number of systems collected.
    pub systems: u32,
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:.3}"));
    } else {
        out.push('0');
    }
}

impl TraceReport {
    /// Render the trace as Chrome `trace_event` JSON (the "JSON object
    /// format": a `traceEvents` array), loadable by `chrome://tracing`
    /// and Perfetto. Each trace event becomes an instant event (`"i"`)
    /// on pid=system / tid=tile at `cycle /` [`CYCLES_PER_US`] µs; each
    /// interval sample becomes counter events (`"C"`) for MPKI, DRAM
    /// backlog, and interval energy.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut sep = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for sys in 0..self.systems {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"M\",\"pid\":{sys},\"name\":\"process_name\",\
                 \"args\":{{\"name\":\"tako system {sys}\"}}}}"
            ));
        }
        for rec in &self.events {
            sep(&mut out);
            out.push_str(&format!(
                "{{\"ph\":\"i\",\"pid\":{},\"tid\":{},\"ts\":",
                rec.sys, rec.tile
            ));
            push_json_f64(&mut out, rec.cycle as f64 / CYCLES_PER_US);
            // Debug-rendered event names contain no quotes/backslashes,
            // so they embed in JSON strings without escaping.
            out.push_str(&format!(
                ",\"s\":\"t\",\"name\":\"{:?}\",\"args\":{{\"seq\":{},\"cycle\":{}}}}}",
                rec.event, rec.seq, rec.cycle
            ));
        }
        for s in &self.samples {
            let ts = s.at_cycle as f64 / CYCLES_PER_US;
            for (name, value) in [
                ("mpki", s.mpki()),
                ("dram_backlog", s.dram_backlog as f64),
                ("energy_pj", s.energy_pj),
            ] {
                sep(&mut out);
                out.push_str(&format!(
                    "{{\"ph\":\"C\",\"pid\":{},\"tid\":0,\"ts\":",
                    s.sys
                ));
                push_json_f64(&mut out, ts);
                out.push_str(&format!(",\"name\":\"{name}\",\"args\":{{\"{name}\":"));
                push_json_f64(&mut out, value);
                out.push_str("}}");
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Render the `--profile` table plus latency histogram summary.
    pub fn profile_table(&self) -> String {
        let mut out = self.profile.render();
        out.push_str(&format!(
            "miss latency:     {} samples, mean {:.1} cyc, max {} cyc\n\
             callback latency: {} samples, mean {:.1} cyc, max {} cyc\n",
            self.miss_latency.count(),
            self.miss_latency.mean(),
            self.miss_latency.max(),
            self.callback_latency.count(),
            self.callback_latency.mean(),
            self.callback_latency.max(),
        ));
        out
    }

    /// A compact JSON summary for BENCH output and campaign journals:
    /// totals, per-stage cycles, and histogram statistics.
    pub fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"systems\":{},\"events\":{},\"events_dropped\":{},\
             \"samples\":{},\"samples_dropped\":{}",
            self.systems,
            self.events.len(),
            self.events_dropped,
            self.samples.len(),
            self.samples_dropped
        ));
        out.push_str(",\"stages\":{");
        for (i, s) in Stage::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"visits\":{},\"cycles\":{}}}",
                s.name(),
                self.profile.visits(*s),
                self.profile.cycles(*s)
            ));
        }
        out.push_str("},\"miss_latency\":{");
        out.push_str(&format!(
            "\"count\":{},\"mean\":",
            self.miss_latency.count()
        ));
        push_json_f64(&mut out, self.miss_latency.mean());
        out.push_str(&format!(",\"max\":{}}}", self.miss_latency.max()));
        out.push_str(",\"callback_latency\":{");
        out.push_str(&format!(
            "\"count\":{},\"mean\":",
            self.callback_latency.count()
        ));
        push_json_f64(&mut out, self.callback_latency.mean());
        out.push_str(&format!(",\"max\":{}}}", self.callback_latency.max()));
        if let Some(last) = self.samples.last() {
            out.push_str(&format!(
                ",\"last_interval\":{{\"epoch\":{},\"mpki\":",
                last.epoch
            ));
            push_json_f64(&mut out, last.mpki());
            out.push_str(",\"llc_miss_rate\":");
            push_json_f64(&mut out, last.miss_rate(LevelId::Llc));
            out.push_str(",\"callback_occupancy\":");
            push_json_f64(&mut out, last.callback_occupancy());
            out.push_str(",\"fabric_utilization\":");
            push_json_f64(&mut out, last.fabric_utilization());
            out.push_str(&format!(",\"dram_backlog\":{}}}", last.dram_backlog));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that touch the process-global collector.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn ring_bounds_and_orders() {
        let mut ring = TraceRing::with_capacity(4);
        for i in 0..6u64 {
            ring.record(TraceRecord {
                seq: i,
                cycle: i * 10,
                tile: 0,
                sys: 0,
                event: TxnEvent::DramRead,
            });
        }
        assert_eq!(ring.total(), 6);
        let tail: Vec<_> = ring.tail().collect();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail[0].seq, 2);
        assert_eq!(tail[3].seq, 5);
        assert!(ring.render().contains("trace tail (4 of 6 total)"));
    }

    #[test]
    fn observer_stamps_with_monotonic_cursor() {
        let mut obs = Observer::new();
        obs.observe_at(100, 3);
        obs.emit(TxnEvent::Hit(LevelId::L1d));
        // A stale (earlier) cursor update must not move time backwards.
        obs.observe_at(50, 5);
        obs.emit(TxnEvent::Miss(LevelId::L2));
        obs.observe_at(200, 1);
        obs.emit(TxnEvent::DramRead);
        let tail: Vec<_> = obs.ring.tail().collect();
        assert_eq!(tail[0].cycle, 100);
        assert_eq!(tail[1].cycle, 100);
        assert_eq!(tail[1].tile, 5);
        assert_eq!(tail[2].cycle, 200);
        assert_eq!(tail[0].seq, 0);
        assert_eq!(tail[2].seq, 2);
    }

    #[test]
    fn profile_attributes_txn_windows() {
        let mut p = StageProfile::new();
        // L1 hit: only the L1 window.
        p.record_txn(10, Some(10), None, None, None, 14);
        assert_eq!(p.visits(Stage::L1), 1);
        assert_eq!(p.cycles(Stage::L1), 4);
        // Full miss: every stage gets its slice.
        p.record_txn(0, Some(0), Some(4), Some(20), Some(60), 200);
        assert_eq!(p.cycles(Stage::L1), 4 + 4);
        assert_eq!(p.cycles(Stage::L2), 16);
        assert_eq!(p.cycles(Stage::Llc), 40);
        assert_eq!(p.cycles(Stage::Fill), 140);
        assert_eq!(p.txns(), 2);
        assert_eq!(p.txn_cycles(), 4 + 200);
        let table = p.render();
        assert!(table.contains("Fill"));
        assert!(table.contains("2 txns profiled"));
    }

    #[test]
    fn span_macro_passes_through_and_records() {
        use crate::event::AccountingBus;
        use crate::fault::FaultInjector;
        let mut bus = AccountingBus::new(FaultInjector::new(None));
        bus.tap = Some(Box::default());
        let done = crate::span!(bus, Stage::Callback, 100, 100 + 40);
        assert_eq!(done, 140);
        let obs = bus.observer().unwrap();
        assert_eq!(obs.profile.visits(Stage::Callback), 1);
        assert_eq!(obs.profile.cycles(Stage::Callback), 40);
    }

    #[test]
    fn metrics_sample_diffs_counters() {
        let mut m = MetricsRecorder::with_capacity(8);
        let mut stats = Stats::new();
        stats.add(Counter::L1dHit, 90);
        stats.add(Counter::L1dMiss, 10);
        stats.add(Counter::LlcMiss, 4);
        stats.add(Counter::CoreInstr, 1000);
        stats.callback_latency.record(25);
        m.sample(0, 2_000, &stats, 50.0, 7);
        stats.add(Counter::L1dMiss, 30);
        stats.add(Counter::CoreInstr, 1000);
        stats.callback_latency.record(75);
        m.sample(1, 5_000, &stats, 80.0, 0);
        let samples: Vec<_> = m.samples().collect();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].l1d_misses, 10);
        assert_eq!(samples[0].cycles, 2_000);
        assert_eq!(samples[0].cb_cycles, 25);
        assert!((samples[0].mpki() - 4.0).abs() < 1e-9);
        assert!((samples[0].miss_rate(LevelId::L1d) - 0.1).abs() < 1e-9);
        assert_eq!(samples[1].l1d_misses, 30);
        assert_eq!(samples[1].cycles, 3_000);
        assert_eq!(samples[1].cb_cycles, 75);
        assert!((samples[1].energy_pj - 30.0).abs() < 1e-9);
        assert_eq!(samples[1].llc_misses, 0);
    }

    #[test]
    fn collect_and_drain_assign_system_ids() {
        let _guard = TEST_LOCK.lock().unwrap();
        arm();
        let mut a = Observer::new();
        a.observe_at(10, 0);
        a.emit(TxnEvent::DramRead);
        let mut b = Observer::new();
        b.observe_at(20, 1);
        b.emit(TxnEvent::DramWrite);
        let mut b_stats = Stats::new();
        b_stats.callback_latency.record(40);
        collect(a, &Stats::new());
        collect(b, &b_stats);
        disarm();
        let report = drain();
        assert_eq!(report.systems, 2);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].sys, 0);
        assert_eq!(report.events[1].sys, 1);
        assert_eq!(report.callback_latency.count(), 1);
        // Draining empties the collector.
        assert_eq!(drain().systems, 0);
    }

    #[test]
    fn chrome_json_is_wellformed() {
        let _guard = TEST_LOCK.lock().unwrap();
        arm();
        let mut obs = Observer::new();
        obs.observe_at(2400, 7);
        obs.emit(TxnEvent::Miss(LevelId::Llc));
        let mut stats = Stats::new();
        stats.add(Counter::CoreInstr, 100);
        stats.add(Counter::LlcMiss, 1);
        obs.sample_epoch(0, 2400, &stats, 12.5, 9);
        collect(obs, &stats);
        disarm();
        let report = drain();
        let json = report.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("}"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"tid\":7"));
        assert!(json.contains("Miss(Llc)"));
        assert!(json.contains("\"ts\":1.000"));
        let metrics = report.metrics_json();
        assert!(metrics.contains("\"systems\":1"));
        assert!(metrics.contains("\"last_interval\""));
        let table = report.profile_table();
        assert!(table.contains("miss latency"));
    }
}
