//! The execution context handed to Morph callbacks.
//!
//! [`EngineCtx`] is what callback code programs against (Fig 8's
//! `täkō::Morph` methods). Every operation is *functionally* applied to
//! the simulated memory and *timed* on the engine's dataflow fabric
//! through `tako-dataflow` [`Val`] handles, so callback latency is the
//! dependence-constrained, resource-constrained critical path.
//!
//! The context exposes three classes of operations:
//!
//! * **ALU ops** ([`EngineCtx::alu`], [`EngineCtx::alu_chain`]) — SIMD
//!   fabric instructions; an op across a full cache line counts once.
//! * **Line ops** (`line_read_*` / `line_write_*`) — accesses to the
//!   locked, triggering cache line held by the adjacent cache controller.
//! * **Memory ops** (`load_*` / `store_*`) — coherent accesses through
//!   the engine's L1d and the hierarchy below. These enforce the paper's
//!   restriction (Sec 4.3): a callback may not access data with a Morph
//!   registered at the same or a higher level (PRIVATE → SHARED is
//!   allowed and triggers the SHARED callback).
//!
//! # Misbehaving callbacks
//!
//! A callback that violates the Sec 4.3 restriction (or reaches outside
//! the locked line) does not take the simulator down: the illegal
//! operation is suppressed (it burns a fabric slot but never touches
//! the hierarchy), counted in `Counter::CbIllegalOp`, and recorded as a
//! violation. When the callback returns, the hierarchy quarantines the
//! offending Morph — its range degrades to baseline hardware behavior —
//! mirroring the architecture's deadlock-avoidance rule without
//! aborting the run.

use tako_cache::array::{CacheArray, InsertKind};
use tako_dataflow::{Trace, TraceResult, Val};
use tako_mem::addr::{line_of, Addr, AddrRange};
use tako_mem::backing::PhysMem;
use tako_sim::config::LINE_BYTES;
use tako_sim::stats::{Counter, Stats};
use tako_sim::{Cycle, TileId};

use crate::engine::Engine;
use crate::hierarchy::{Hierarchy, Interrupt};
use crate::morph::{CallbackKind, MorphId, MorphLevel};

/// The context of one executing callback.
pub struct EngineCtx<'a> {
    hier: &'a mut Hierarchy,
    trace: Trace<'a>,
    l1d: &'a mut CacheArray,
    tile: TileId,
    home_tile: TileId,
    line: Addr,
    kind: CallbackKind,
    range: AddrRange,
    level: MorphLevel,
    morph_id: MorphId,
    /// Write-combining buffers (engine state, persist across callbacks
    /// so sequential appends combine).
    wc_lines: &'a mut Vec<Addr>,
    /// First illegal action this callback attempted (Sec 4.3 violation
    /// or out-of-bounds line access); the hierarchy quarantines the
    /// Morph when set.
    violation: Option<String>,
}

impl<'a> EngineCtx<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        hier: &'a mut Hierarchy,
        engine: &'a mut Engine,
        start: Cycle,
        tile: TileId,
        home_tile: TileId,
        line: Addr,
        kind: CallbackKind,
        range: AddrRange,
        level: MorphLevel,
        morph_id: MorphId,
    ) -> Self {
        let Engine {
            fabric,
            l1d,
            wc_lines,
            ..
        } = engine;
        EngineCtx {
            trace: fabric.begin(start),
            hier,
            l1d,
            tile,
            home_tile,
            line,
            kind,
            range,
            level,
            morph_id,
            wc_lines,
            violation: None,
        }
    }

    pub(crate) fn finish(self) -> TraceResult {
        self.trace.finish()
    }

    /// Record the callback's first illegal action; subsequent ones only
    /// count (the first is what the quarantine reports).
    fn note_violation(&mut self, msg: impl FnOnce() -> String) {
        self.hier.bus.stats.bump(Counter::CbIllegalOp);
        if self.violation.is_none() {
            self.violation = Some(format!(
                "{} ({} fabric instrs in)",
                msg(),
                self.trace.instrs_so_far()
            ));
        }
    }

    /// Take the recorded violation, if any (read by the hierarchy after
    /// the callback body returns, before `finish`).
    pub(crate) fn take_violation(&mut self) -> Option<String> {
        self.violation.take()
    }

    /// Fault injection: perform an illegal action (a coherent load of
    /// the callback's own Morph range), exercising the same suppression
    /// path a buggy Morph would.
    pub(crate) fn inject_illegal(&mut self) {
        let base = self.range.base;
        self.engine_mem(base, false, &[]);
    }

    // ---- introspection -------------------------------------------------

    /// The line address that triggered this callback.
    pub fn addr(&self) -> Addr {
        self.line
    }

    /// Byte offset of the triggering line within the Morph's range.
    pub fn offset(&self) -> u64 {
        self.line - self.range.base
    }

    /// The Morph's registered address range.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// Which event triggered the callback.
    pub fn kind(&self) -> CallbackKind {
        self.kind
    }

    /// The registration level.
    pub fn level(&self) -> MorphLevel {
        self.level
    }

    /// The tile whose engine is executing this callback.
    pub fn engine_tile(&self) -> TileId {
        self.tile
    }

    /// The cycle the callback started executing.
    pub fn start(&self) -> Cycle {
        self.trace.start()
    }

    /// A dataflow value available at callback start (e.g., `addr`).
    pub fn arg(&self) -> Val {
        self.trace.arg()
    }

    // ---- fabric ALU ops -------------------------------------------------

    /// One SIMD fabric instruction consuming `deps`.
    pub fn alu(&mut self, deps: &[Val]) -> Val {
        self.trace.alu(deps)
    }

    /// A chain of `n` dependent fabric instructions.
    pub fn alu_chain(&mut self, deps: &[Val], n: u64) -> Val {
        self.trace.alu_chain(deps, n)
    }

    // ---- locked-line ops -------------------------------------------------

    fn host_line_latency(&self) -> Cycle {
        match self.level {
            MorphLevel::Private => self.hier.cfg.l2.data_latency,
            MorphLevel::Shared => self.hier.cfg.llc_bank.data_latency,
        }
    }

    /// Clamp a line access into bounds. A well-formed callback is
    /// untouched; an out-of-bounds one is pulled back to the last
    /// `width`-sized slot and recorded as a violation (the locked line
    /// is the only data the callback may touch, so the simulator must
    /// not let a buggy offset corrupt the neighboring line).
    fn clamp_line_offset(&mut self, offset: usize, width: usize) -> usize {
        let max = LINE_BYTES as usize - width.min(LINE_BYTES as usize);
        if offset > max {
            self.note_violation(|| {
                format!("line access out of bounds: offset {offset} width {width}")
            });
            return max;
        }
        offset
    }

    fn line_op(&mut self, offset: usize, width: usize, deps: &[Val]) -> (usize, Val) {
        let offset = self.clamp_line_offset(offset, width);
        let fire = self.trace.mem_fire(deps);
        let done = fire + self.host_line_latency();
        (offset, self.trace.mem_complete(done))
    }

    /// Read a `u64` from the locked line at byte `offset`.
    pub fn line_read_u64(&mut self, offset: usize, deps: &[Val]) -> (u64, Val) {
        let (offset, v) = self.line_op(offset, 8, deps);
        (self.hier.mem.read_u64(self.line + offset as u64), v)
    }

    /// Read an `f64` from the locked line at byte `offset`.
    pub fn line_read_f64(&mut self, offset: usize, deps: &[Val]) -> (f64, Val) {
        let (offset, v) = self.line_op(offset, 8, deps);
        (self.hier.mem.read_f64(self.line + offset as u64), v)
    }

    /// Write a `u64` into the locked line at byte `offset`.
    pub fn line_write_u64(&mut self, offset: usize, val: u64, deps: &[Val]) -> Val {
        let (offset, v) = self.line_op(offset, 8, deps);
        self.hier.mem.write_u64(self.line + offset as u64, val);
        v
    }

    /// Write an `f64` into the locked line at byte `offset`.
    pub fn line_write_f64(&mut self, offset: usize, val: f64, deps: &[Val]) -> Val {
        let (offset, v) = self.line_op(offset, 8, deps);
        self.hier.mem.write_f64(self.line + offset as u64, val);
        v
    }

    /// Read the whole locked line as eight `u64`s with one SIMD access.
    pub fn line_read_all_u64(&mut self, deps: &[Val]) -> ([u64; 8], Val) {
        let (_, v) = self.line_op(0, LINE_BYTES as usize, deps);
        let mut out = [0u64; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.hier.mem.read_u64(self.line + 8 * i as u64);
        }
        (out, v)
    }

    /// Read the whole locked line as eight `f64`s with one SIMD access.
    pub fn line_read_all_f64(&mut self, deps: &[Val]) -> ([f64; 8], Val) {
        let (_, v) = self.line_op(0, LINE_BYTES as usize, deps);
        let mut out = [0.0f64; 8];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.hier.mem.read_f64(self.line + 8 * i as u64);
        }
        (out, v)
    }

    /// Fill the whole locked line with a repeated `u64` (one SIMD store).
    pub fn line_fill_u64(&mut self, val: u64, deps: &[Val]) -> Val {
        let (_, v) = self.line_op(0, LINE_BYTES as usize, deps);
        for i in 0..8 {
            self.hier.mem.write_u64(self.line + 8 * i, val);
        }
        v
    }

    /// Write eight `u64`s across the locked line with one SIMD store.
    pub fn line_write_all_u64(&mut self, vals: &[u64; 8], deps: &[Val]) -> Val {
        let (_, v) = self.line_op(0, LINE_BYTES as usize, deps);
        for (i, x) in vals.iter().enumerate() {
            self.hier.mem.write_u64(self.line + 8 * i as u64, *x);
        }
        v
    }

    /// Write eight `f64`s across the locked line with one SIMD store.
    pub fn line_write_all_f64(&mut self, vals: &[f64; 8], deps: &[Val]) -> Val {
        let (_, v) = self.line_op(0, LINE_BYTES as usize, deps);
        for (i, x) in vals.iter().enumerate() {
            self.hier.mem.write_f64(self.line + 8 * i as u64, *x);
        }
        v
    }

    // ---- coherent memory ops ---------------------------------------------

    /// Enforce the Sec 4.3 restriction. Returns true when `addr` is
    /// legal for this callback; an illegal access is recorded as a
    /// violation (the caller suppresses the operation and the hierarchy
    /// quarantines the Morph after the callback returns).
    fn check_restriction(&mut self, addr: Addr) -> bool {
        let reason = match self.hier.registry.lookup(addr) {
            None => return true,
            Some((id, _)) if id == self.morph_id => "callback accessed its own Morph range",
            Some((_, MorphLevel::Private)) => {
                "callback accessed data with a PRIVATE Morph \
                 (Sec 4.3 restriction: same/higher level)"
            }
            Some((_, MorphLevel::Shared)) if self.level == MorphLevel::Shared => {
                "SHARED callback accessed SHARED Morph data \
                 (Sec 4.3 restriction)"
            }
            Some((_, MorphLevel::Shared)) => return true,
        };
        self.note_violation(|| format!("{reason} at {addr:#x}"));
        false
    }

    /// The timing of a suppressed illegal memory op: it occupies a
    /// fabric slot (the instruction fired before the check tripped it)
    /// but never reaches the hierarchy or the functional store.
    fn suppressed_mem(&mut self, deps: &[Val]) -> Val {
        let fire = self.trace.mem_fire(deps);
        self.trace.mem_complete(fire + 1)
    }

    fn engine_mem(&mut self, addr: Addr, write: bool, deps: &[Val]) -> Val {
        if !self.check_restriction(addr) {
            return self.suppressed_mem(deps);
        }
        let line = line_of(addr);
        let fire = self.trace.mem_fire(deps);
        if let Some(mut e) = self.l1d.lookup(line) {
            let done = (fire + 1).max(e.ready_at());
            e.set_prefetched(false);
            if write {
                e.set_dirty(true);
            }
            self.hier.bus.stats.bump(Counter::EngineL1Hit);
            return self.trace.mem_complete(done);
        }
        self.hier.bus.stats.bump(Counter::EngineL1Miss);
        let done = self
            .hier
            .engine_fill(self.tile, write, line, fire + 1, self.level);
        if let Some(ev) = self
            .l1d
            .insert(line, write, false, InsertKind::Demand, done)
        {
            if ev.dirty {
                self.hier.engine_writeback(self.tile, ev.line, done);
            }
        }
        // Stores are posted; loads complete when the data arrives.
        let seen = if write { fire + 1 } else { done };
        self.trace.mem_complete(seen)
    }

    /// A non-temporal engine load for data the callback touches once
    /// (e.g., the compressed/AoS source of a transformation). The line
    /// fills the engine L1d only and bypasses the L2 — this is how
    /// trrîp's "engine accesses insert at lower priority" (Sec 5.2)
    /// avoids polluting the core's caches with callback streams.
    fn engine_mem_nt(&mut self, addr: Addr, deps: &[Val]) -> Val {
        if !self.check_restriction(addr) {
            return self.suppressed_mem(deps);
        }
        let line = line_of(addr);
        let fire = self.trace.mem_fire(deps);
        if let Some(mut e) = self.l1d.lookup(line) {
            let done = (fire + 1).max(e.ready_at());
            e.set_prefetched(false);
            self.hier.bus.stats.bump(Counter::EngineL1Hit);
            return self.trace.mem_complete(done);
        }
        self.hier.bus.stats.bump(Counter::EngineL1Miss);
        let done = self.hier.fetch_stream(self.tile, line, fire + 1);
        if let Some(ev) = self
            .l1d
            .insert(line, false, false, InsertKind::Engine, done)
        {
            if ev.dirty {
                self.hier.engine_writeback(self.tile, ev.line, done);
            }
        }
        self.trace.mem_complete(done)
    }

    /// Non-temporal load of a `u64` (see [`EngineCtx::load_u64`] for the
    /// allocating variant).
    pub fn load_stream_u64(&mut self, addr: Addr, deps: &[Val]) -> (u64, Val) {
        let v = self.engine_mem_nt(addr, deps);
        (self.hier.mem.read_u64(addr), v)
    }

    /// Non-temporal load of an `f64`.
    pub fn load_stream_f64(&mut self, addr: Addr, deps: &[Val]) -> (f64, Val) {
        let v = self.engine_mem_nt(addr, deps);
        (self.hier.mem.read_f64(addr), v)
    }

    /// Engine-side software prefetch: starts a coherent read of `addr`'s
    /// line into the engine L1d without joining the dataflow graph (the
    /// later demand load completes early).
    pub fn prefetch(&mut self, addr: Addr) {
        if !self.check_restriction(addr) {
            return;
        }
        let line = line_of(addr);
        if self.l1d.probe(line).is_some() {
            return;
        }
        let fire = self.trace.mem_fire(&[]);
        self.hier.bus.stats.bump(Counter::EngineL1Miss);
        let done = self
            .hier
            .engine_fill(self.tile, false, line, fire + 1, self.level);
        if let Some(ev) = self
            .l1d
            .insert(line, false, false, InsertKind::Prefetch, done)
        {
            if ev.dirty {
                self.hier.engine_writeback(self.tile, ev.line, done);
            }
        }
        self.trace.mem_complete(fire + 1);
    }

    /// Coherent load of a `u64`.
    pub fn load_u64(&mut self, addr: Addr, deps: &[Val]) -> (u64, Val) {
        let v = self.engine_mem(addr, false, deps);
        (self.hier.mem.read_u64(addr), v)
    }

    /// Coherent load of an `f64`.
    pub fn load_f64(&mut self, addr: Addr, deps: &[Val]) -> (f64, Val) {
        let v = self.engine_mem(addr, false, deps);
        (self.hier.mem.read_f64(addr), v)
    }

    /// Coherent load of a `u32`.
    pub fn load_u32(&mut self, addr: Addr, deps: &[Val]) -> (u32, Val) {
        let v = self.engine_mem(addr, false, deps);
        (self.hier.mem.read_u32(addr), v)
    }

    /// A non-allocating streaming store, absorbed by a one-line
    /// write-combining buffer (hardware streaming stores combine
    /// sequential appends like PHI's bins or the NVM journal without
    /// disturbing the engine L1d). When the append stream moves to a new
    /// line, the combined line writes back through the hierarchy.
    fn engine_mem_stream(&mut self, addr: Addr, deps: &[Val]) -> Val {
        if !self.check_restriction(addr) {
            return self.suppressed_mem(deps);
        }
        let line = line_of(addr);
        let fire = self.trace.mem_fire(deps);
        if let Some(pos) = self.wc_lines.iter().position(|&l| l == line) {
            // Keep the active buffer most-recent.
            let l = self.wc_lines.remove(pos);
            self.wc_lines.push(l);
        } else {
            if self.wc_lines.len() >= crate::engine::WC_BUFFERS {
                let victim = self.wc_lines.remove(0);
                self.hier.engine_writeback(self.tile, victim, fire + 1);
            }
            self.wc_lines.push(line);
        }
        self.trace.mem_complete(fire + 1)
    }

    /// Streaming (non-allocating) store of a `u64`; see
    /// [`EngineCtx::store_u64`] for the allocating variant.
    pub fn store_stream_u64(&mut self, addr: Addr, val: u64, deps: &[Val]) -> Val {
        let v = self.engine_mem_stream(addr, deps);
        self.hier.mem.write_u64(addr, val);
        v
    }

    /// Streaming (non-allocating) store of an `f64`.
    pub fn store_stream_f64(&mut self, addr: Addr, val: f64, deps: &[Val]) -> Val {
        let v = self.engine_mem_stream(addr, deps);
        self.hier.mem.write_f64(addr, val);
        v
    }

    /// Coherent posted store of a `u64`.
    pub fn store_u64(&mut self, addr: Addr, val: u64, deps: &[Val]) -> Val {
        let v = self.engine_mem(addr, true, deps);
        self.hier.mem.write_u64(addr, val);
        v
    }

    /// Coherent posted store of an `f64`.
    pub fn store_f64(&mut self, addr: Addr, val: f64, deps: &[Val]) -> Val {
        let v = self.engine_mem(addr, true, deps);
        self.hier.mem.write_f64(addr, val);
        v
    }

    /// Add to an `f64` in memory (engine-side read-modify-write).
    pub fn add_f64(&mut self, addr: Addr, val: f64, deps: &[Val]) -> Val {
        let (old, v0) = self.load_f64(addr, deps);
        let sum = self.alu(&[v0]);
        self.store_f64(addr, old + val, &[sum])
    }

    /// Copy `len` bytes of the locked line (starting at `offset`) to
    /// `dst` in memory — the NVM study's data-copy primitive. One line op
    /// plus one store per destination line touched.
    pub fn copy_line_out(&mut self, offset: usize, dst: Addr, len: usize, deps: &[Val]) -> Val {
        let len = len.min(LINE_BYTES as usize);
        let (offset, read) = self.line_op(offset, len, deps);
        let mut buf = vec![0u8; len];
        self.hier
            .mem
            .read_bytes(self.line + offset as u64, &mut buf);
        let mut last = read;
        for dl in AddrRange::new(dst, len as u64).lines() {
            last = self.engine_mem_stream(dl.max(dst), &[read]);
        }
        self.hier.mem.write_bytes(dst, &buf);
        last
    }

    // ---- system ----------------------------------------------------------

    /// Raise a user-space interrupt to the Morph's registering thread
    /// (Sec 8.4's defense mechanism).
    pub fn raise_interrupt(&mut self) {
        self.hier.bus.stats.bump(Counter::UserInterrupt);
        let cycle = self.start();
        let interrupt = Interrupt {
            tile: self.home_tile,
            cycle,
            line: self.line,
        };
        self.hier.interrupts.push(interrupt);
    }

    /// Functional (untimed) memory access — for Morph-local bookkeeping
    /// that hardware would keep in the engine's registers.
    pub fn data(&mut self) -> &mut PhysMem {
        &mut self.hier.mem
    }

    /// The statistics registry (for application-level counters such as
    /// [`Counter::Decompression`]).
    pub fn stats(&mut self) -> &mut Stats {
        &mut self.hier.bus.stats
    }
}
