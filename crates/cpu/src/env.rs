//! The environment a thread program executes in.
//!
//! [`CoreEnv`] couples the *functional* side (reading and writing the
//! simulated memory) with the *timing* side (the core model and the
//! memory hierarchy behind [`MemSystem`]): every access moves data **and**
//! advances the clock, so callbacks triggered by a miss functionally
//! initialize the line before the program reads it — exactly the
//! execution-driven behaviour the paper's simulator has.

use tako_mem::addr::{Addr, AddrRange};
use tako_mem::backing::PhysMem;
use tako_sim::stats::{Counter, Stats};
use tako_sim::{Cycle, TileId};

use crate::predictor::BranchPredictor;
use crate::timing::CoreTiming;

/// Kind of a timed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A demand load.
    Read,
    /// A store (write-allocate).
    Write,
    /// A remote memory operation: a relaxed atomic update executed at the
    /// cache level where the target line lives (Sec 8.1's RMO pushes).
    Rmo,
    /// A non-temporal load: data is streamed once (bin drains, log
    /// replays); fills insert at distant replacement priority and hits do
    /// not promote, so scans do not pollute the caches.
    ReadStream,
    /// A non-temporal store: write-combining without a read-for-ownership
    /// fetch (bin/journal appends).
    WriteStream,
}

/// The memory system a core talks to. `tako-core`'s `TakoSystem`
/// implements this for the full hierarchy; unit tests use flat mocks.
pub trait MemSystem {
    /// Functional access to the backing store.
    fn data(&mut self) -> &mut PhysMem;

    /// Simulate `kind` on `addr` issued by `tile` at `now`; returns the
    /// completion cycle. The access must leave the backing store
    /// up-to-date with any callback side effects before returning.
    fn timed_access(&mut self, tile: TileId, kind: AccessKind, addr: Addr, now: Cycle) -> Cycle;

    /// Flush `range` from the caches (täkō's flushData, Sec 4.4),
    /// blocking until all triggered callbacks complete; returns the
    /// completion cycle.
    fn timed_flush(&mut self, tile: TileId, range: AddrRange, now: Cycle) -> Cycle;

    /// The statistics registry.
    fn stats(&mut self) -> &mut Stats;

    /// Demote `addr`'s line to the preferred-victim position in the
    /// private caches (CLDEMOTE-style hint for consumed streaming data).
    /// Default: no-op.
    fn timed_demote(&mut self, tile: TileId, addr: Addr, now: Cycle) -> Cycle {
        let _ = (tile, addr);
        now
    }

    /// Deliver the earliest pending user-space interrupt for `tile`, if
    /// any (raised by a callback via `EngineCtx::raise_interrupt`).
    /// Default: none.
    fn take_interrupt(&mut self, tile: TileId) -> Option<Cycle> {
        let _ = tile;
        None
    }
}

/// Result of one [`ThreadProgram::step`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// More work remains.
    Running,
    /// The program finished.
    Done,
}

/// A workload thread. Each `step` performs one small unit of work through
/// the environment; the runner interleaves programs between steps.
pub trait ThreadProgram {
    /// Perform one unit of work.
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult;
}

/// The per-step execution environment handed to a [`ThreadProgram`].
pub struct CoreEnv<'a> {
    tile: TileId,
    core: &'a mut CoreTiming,
    predictor: &'a mut BranchPredictor,
    sys: &'a mut dyn MemSystem,
}

impl<'a> CoreEnv<'a> {
    /// Wire a program's environment to a core, predictor, and memory
    /// system.
    pub fn new(
        tile: TileId,
        core: &'a mut CoreTiming,
        predictor: &'a mut BranchPredictor,
        sys: &'a mut dyn MemSystem,
    ) -> Self {
        CoreEnv {
            tile,
            core,
            predictor,
            sys,
        }
    }

    /// The tile this program runs on.
    pub fn tile(&self) -> TileId {
        self.tile
    }

    /// The core-local clock.
    pub fn now(&self) -> Cycle {
        self.core.now()
    }

    fn timed_load(&mut self, addr: Addr, dep: bool) {
        let issue = self.core.load_issue(dep);
        let done = self
            .sys
            .timed_access(self.tile, AccessKind::Read, addr, issue);
        let lat = self.core.load_complete(issue, done);
        let stats = self.sys.stats();
        stats.add(Counter::CoreLoad, 1);
        stats.add(Counter::CoreInstr, 1);
        stats.load_latency.record(lat);
    }

    /// Load a `u64`, timing the access as independent of prior loads.
    pub fn load_u64(&mut self, addr: Addr) -> u64 {
        self.timed_load(addr, false);
        self.sys.data().read_u64(addr)
    }

    /// Load a `u64` whose address depends on the previous load's value
    /// (pointer chasing — serializes in the core).
    pub fn load_u64_dep(&mut self, addr: Addr) -> u64 {
        self.timed_load(addr, true);
        self.sys.data().read_u64(addr)
    }

    /// Load an `f64` (independent).
    pub fn load_f64(&mut self, addr: Addr) -> f64 {
        self.timed_load(addr, false);
        self.sys.data().read_f64(addr)
    }

    /// Load a `u32` (independent).
    pub fn load_u32(&mut self, addr: Addr) -> u32 {
        self.timed_load(addr, false);
        self.sys.data().read_u32(addr)
    }

    fn timed_load_stream(&mut self, addr: Addr) {
        let issue = self.core.load_issue(false);
        let done = self
            .sys
            .timed_access(self.tile, AccessKind::ReadStream, addr, issue);
        let lat = self.core.load_complete(issue, done);
        let stats = self.sys.stats();
        stats.add(Counter::CoreLoad, 1);
        stats.add(Counter::CoreInstr, 1);
        stats.load_latency.record(lat);
    }

    /// Non-temporal load of a `u64` (streaming scans: bin drains, logs).
    pub fn load_stream_u64(&mut self, addr: Addr) -> u64 {
        self.timed_load_stream(addr);
        self.sys.data().read_u64(addr)
    }

    /// Non-temporal load of an `f64`.
    pub fn load_stream_f64(&mut self, addr: Addr) -> f64 {
        self.timed_load_stream(addr);
        self.sys.data().read_f64(addr)
    }

    /// Non-temporal load of a `u32`.
    pub fn load_stream_u32(&mut self, addr: Addr) -> u32 {
        self.timed_load_stream(addr);
        self.sys.data().read_u32(addr)
    }

    /// Poll for a pending user-space interrupt (the handler dispatch
    /// costs a pipeline flush worth of cycles when one is delivered).
    pub fn take_interrupt(&mut self) -> Option<Cycle> {
        let hit = self.sys.take_interrupt(self.tile);
        if hit.is_some() {
            self.core.compute(20); // handler entry/exit
            self.sys.stats().add(Counter::CoreInstr, 20);
        }
        hit
    }

    /// Demote a consumed line to preferred-victim position (CLDEMOTE).
    pub fn demote_line(&mut self, addr: Addr) {
        let issue = self.core.post_write();
        let _ = self.sys.timed_demote(self.tile, addr, issue);
        self.sys.stats().add(Counter::CoreInstr, 1);
    }

    /// Software prefetch of a streaming line: starts the fetch without
    /// blocking the core (the demand load later overlaps with it).
    pub fn prefetch_stream(&mut self, addr: Addr) {
        let issue = self.core.post_write();
        let _ = self
            .sys
            .timed_access(self.tile, AccessKind::ReadStream, addr, issue);
        self.sys.stats().add(Counter::CoreInstr, 1);
    }

    /// Non-temporal store of a `u64` (streaming appends).
    pub fn store_stream_u64(&mut self, addr: Addr, val: u64) {
        let issue = self.core.post_write();
        let _ = self
            .sys
            .timed_access(self.tile, AccessKind::WriteStream, addr, issue);
        let stats = self.sys.stats();
        stats.add(Counter::CoreStore, 1);
        stats.add(Counter::CoreInstr, 1);
        self.sys.data().write_u64(addr, val);
    }

    /// Non-temporal store of an `f64`.
    pub fn store_stream_f64(&mut self, addr: Addr, val: f64) {
        let issue = self.core.post_write();
        let _ = self
            .sys
            .timed_access(self.tile, AccessKind::WriteStream, addr, issue);
        let stats = self.sys.stats();
        stats.add(Counter::CoreStore, 1);
        stats.add(Counter::CoreInstr, 1);
        self.sys.data().write_f64(addr, val);
    }

    fn timed_store(&mut self, addr: Addr) {
        let issue = self.core.post_write();
        let _done = self
            .sys
            .timed_access(self.tile, AccessKind::Write, addr, issue);
        let stats = self.sys.stats();
        stats.add(Counter::CoreStore, 1);
        stats.add(Counter::CoreInstr, 1);
    }

    /// Store a `u64` (posted; does not block the core).
    pub fn store_u64(&mut self, addr: Addr, val: u64) {
        self.timed_store(addr);
        self.sys.data().write_u64(addr, val);
    }

    /// Store an `f64` (posted).
    pub fn store_f64(&mut self, addr: Addr, val: f64) {
        self.timed_store(addr);
        self.sys.data().write_f64(addr, val);
    }

    /// Remote atomic add on an `f64` (relaxed; executed at the cache
    /// holding the line, after any onMiss callback initializes it).
    pub fn rmo_add_f64(&mut self, addr: Addr, val: f64) {
        let issue = self.core.post_write();
        let _done = self
            .sys
            .timed_access(self.tile, AccessKind::Rmo, addr, issue);
        let stats = self.sys.stats();
        stats.add(Counter::CoreRmo, 1);
        stats.add(Counter::CoreInstr, 1);
        self.sys.data().add_f64(addr, val);
    }

    /// Atomic exchange of a `u64`, returning the old value (the LL/SC
    /// exchange HATS uses to mark edges processed). Times as a load.
    pub fn exchange_u64(&mut self, addr: Addr, val: u64) -> u64 {
        self.timed_load(addr, false);
        let mem = self.sys.data();
        let old = mem.read_u64(addr);
        mem.write_u64(addr, val);
        old
    }

    /// Retire `n` plain compute instructions.
    pub fn compute(&mut self, n: u64) {
        self.core.compute(n);
        self.sys.stats().add(Counter::CoreInstr, n);
    }

    /// Execute a conditional branch at `pc` with outcome `taken`; the
    /// predictor decides whether the pipeline mispredicts.
    pub fn branch(&mut self, pc: u64, taken: bool) {
        let miss = self.predictor.mispredicts(pc, taken);
        self.core.branch(miss);
        let stats = self.sys.stats();
        stats.add(Counter::CoreBranch, 1);
        stats.add(Counter::CoreInstr, 1);
        if miss {
            stats.add(Counter::BranchMispredict, 1);
        }
    }

    /// Flush `range` from the caches, blocking until all callbacks
    /// complete (täkō's flushData).
    pub fn flush(&mut self, range: AddrRange) {
        let now = self.core.drain();
        let done = self.sys.timed_flush(self.tile, range, now);
        self.core.stall_until(done);
    }

    /// Wait for all outstanding loads.
    pub fn fence(&mut self) {
        self.core.drain();
    }

    /// Switch the statistics phase (edge/bin/vertex breakdowns).
    pub fn set_phase(&mut self, phase: usize) {
        self.sys.stats().set_phase(phase);
    }

    /// Functional (untimed) view of memory, for setup and verification.
    pub fn data(&mut self) -> &mut PhysMem {
        self.sys.data()
    }

    /// The statistics registry.
    pub fn stats(&mut self) -> &mut Stats {
        self.sys.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_sim::config::CoreConfig;

    /// A flat memory with fixed 50-cycle access latency.
    struct FlatSys {
        mem: PhysMem,
        stats: Stats,
        accesses: u64,
    }

    impl MemSystem for FlatSys {
        fn data(&mut self) -> &mut PhysMem {
            &mut self.mem
        }
        fn timed_access(
            &mut self,
            _tile: TileId,
            _kind: AccessKind,
            _addr: Addr,
            now: Cycle,
        ) -> Cycle {
            self.accesses += 1;
            now + 50
        }
        fn timed_flush(&mut self, _tile: TileId, _range: AddrRange, now: Cycle) -> Cycle {
            now + 500
        }
        fn stats(&mut self) -> &mut Stats {
            &mut self.stats
        }
    }

    fn flat() -> FlatSys {
        FlatSys {
            mem: PhysMem::new(),
            stats: Stats::new(),
            accesses: 0,
        }
    }

    #[test]
    fn load_returns_functional_data() {
        let mut sys = flat();
        sys.mem.write_u64(128, 777);
        let mut core = CoreTiming::new(CoreConfig::goldmont());
        let mut pred = BranchPredictor::new();
        let mut env = CoreEnv::new(0, &mut core, &mut pred, &mut sys);
        assert_eq!(env.load_u64(128), 777);
        assert_eq!(sys.accesses, 1);
        assert_eq!(sys.stats.get(Counter::CoreLoad), 1);
        assert!(sys.stats.load_latency.mean() >= 50.0);
    }

    #[test]
    fn store_visible_to_later_load() {
        let mut sys = flat();
        let mut core = CoreTiming::new(CoreConfig::goldmont());
        let mut pred = BranchPredictor::new();
        let mut env = CoreEnv::new(0, &mut core, &mut pred, &mut sys);
        env.store_f64(64, 2.5);
        assert_eq!(env.load_f64(64), 2.5);
    }

    #[test]
    fn exchange_swaps() {
        let mut sys = flat();
        sys.mem.write_u64(0, 5);
        let mut core = CoreTiming::new(CoreConfig::goldmont());
        let mut pred = BranchPredictor::new();
        let mut env = CoreEnv::new(0, &mut core, &mut pred, &mut sys);
        assert_eq!(env.exchange_u64(0, 9), 5);
        assert_eq!(env.load_u64(0), 9);
    }

    #[test]
    fn flush_blocks_core() {
        let mut sys = flat();
        let mut core = CoreTiming::new(CoreConfig::goldmont());
        let mut pred = BranchPredictor::new();
        let mut env = CoreEnv::new(0, &mut core, &mut pred, &mut sys);
        env.flush(AddrRange::new(0, 4096));
        assert!(env.now() >= 500);
    }

    #[test]
    fn rmo_applies_add() {
        let mut sys = flat();
        let mut core = CoreTiming::new(CoreConfig::goldmont());
        let mut pred = BranchPredictor::new();
        let mut env = CoreEnv::new(0, &mut core, &mut pred, &mut sys);
        env.rmo_add_f64(8, 1.25);
        env.rmo_add_f64(8, 1.25);
        assert_eq!(sys.mem.read_f64(8), 2.5);
        assert_eq!(sys.stats.get(Counter::CoreRmo), 2);
    }

    struct CountDown(u64);
    impl ThreadProgram for CountDown {
        fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
            if self.0 == 0 {
                return StepResult::Done;
            }
            self.0 -= 1;
            env.compute(3);
            env.load_u64(self.0 * 64);
            StepResult::Running
        }
    }

    #[test]
    fn runner_single_program() {
        let mut sys = flat();
        let mut prog = CountDown(10);
        let end = crate::run_single(
            0,
            &mut prog,
            CoreTiming::new(CoreConfig::goldmont()),
            &mut sys,
            1_000,
        );
        assert!(end > 0);
        assert_eq!(sys.accesses, 10);
    }

    #[test]
    fn runner_interleaves_by_time() {
        let mut sys = flat();
        let mut a = CountDown(5);
        let mut b = CountDown(50);
        let mut cores = vec![
            CoreTiming::new(CoreConfig::goldmont()),
            CoreTiming::new(CoreConfig::goldmont()),
        ];
        let mut preds = vec![BranchPredictor::new(), BranchPredictor::new()];
        let mut programs: Vec<(TileId, &mut dyn ThreadProgram)> = vec![(0, &mut a), (1, &mut b)];
        let end = crate::run_multicore(&mut programs, &mut cores, &mut preds, &mut sys, 10_000);
        assert_eq!(sys.accesses, 55);
        assert!(end >= cores[1].now());
    }

    #[test]
    fn stream_and_prefetch_helpers() {
        let mut sys = flat();
        sys.mem.write_u64(64, 9);
        sys.mem.write_f64(128, 2.5);
        sys.mem.write_u32(256, 77);
        let mut core = CoreTiming::new(CoreConfig::goldmont());
        let mut pred = BranchPredictor::new();
        let mut env = CoreEnv::new(0, &mut core, &mut pred, &mut sys);
        assert_eq!(env.load_stream_u64(64), 9);
        assert_eq!(env.load_stream_f64(128), 2.5);
        assert_eq!(env.load_stream_u32(256), 77);
        env.store_stream_u64(512, 5);
        env.store_stream_f64(520, 1.5);
        env.prefetch_stream(1024);
        env.demote_line(64); // default MemSystem impl: no-op
        assert_eq!(sys.mem.read_u64(512), 5);
        assert_eq!(sys.mem.read_f64(520), 1.5);
        // 3 loads + 2 stores + prefetch + demote = 7 instructions.
        assert_eq!(sys.stats.get(Counter::CoreInstr), 7);
    }

    #[test]
    fn interrupt_polling_defaults_to_none() {
        let mut sys = flat();
        let mut core = CoreTiming::new(CoreConfig::goldmont());
        let mut pred = BranchPredictor::new();
        let mut env = CoreEnv::new(0, &mut core, &mut pred, &mut sys);
        assert!(env.take_interrupt().is_none());
    }

    #[test]
    #[should_panic(expected = "runaway")]
    fn runner_step_limit() {
        struct Forever;
        impl ThreadProgram for Forever {
            fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
                env.compute(1);
                StepResult::Running
            }
        }
        let mut sys = flat();
        let mut prog = Forever;
        crate::run_single(
            0,
            &mut prog,
            CoreTiming::new(CoreConfig::goldmont()),
            &mut sys,
            100,
        );
    }
}
