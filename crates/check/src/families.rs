//! The bounded systems under check: a tiny two-tile hierarchy plus one
//! probe Morph per case-study family.
//!
//! Each family registers a single, deliberately well-behaved probe
//! Morph whose callbacks exercise that family's characteristic protocol
//! traffic — decompress-style phantom fills from a backing buffer,
//! SoA-style gathers and scatters, NVM-style writeback logging, and
//! trrîp-style engine fills issued *during evictions* (the deadlock
//! scenario the one-callback-free-line-per-set rule exists for). The
//! probes are stateless so snapshot restore never has Morph state to
//! disagree about.

use tako_core::{EngineCtx, Morph, MorphLevel, TakoSystem};
use tako_mem::addr::Addr;
use tako_sim::config::{SystemConfig, LINE_BYTES};
use tako_sim::fault::FaultPlan;

/// All checkable Morph families, in the canonical report order.
pub const FAMILIES: [Family; 4] = [Family::Decompress, Family::Soa, Family::Nvm, Family::Trrip];

/// One per-family probe workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Phantom SHARED range materialized from a backing buffer.
    Decompress,
    /// Phantom PRIVATE range gathered/scattered against real data.
    Soa,
    /// Real SHARED range whose writebacks append to a redo log.
    Nvm,
    /// Phantom SHARED range whose evictions issue engine fills.
    Trrip,
}

impl Family {
    /// Stable lowercase name (CLI + report + counterexample files).
    pub fn name(self) -> &'static str {
        match self {
            Family::Decompress => "decompress",
            Family::Soa => "soa",
            Family::Nvm => "nvm",
            Family::Trrip => "trrip",
        }
    }

    /// Parse a [`Family::name`] back.
    pub fn parse(s: &str) -> Option<Family> {
        FAMILIES.into_iter().find(|f| f.name() == s)
    }
}

/// The bounded geometry every exploration runs on: `tiles` tiles, and
/// every cache level squeezed to 2 sets × 2 ways (256 B), the minimum
/// legal 2 LLC MSHRs per bank — so the Sec 5.2 callback reservation
/// leaves exactly one entry — and a 2-deep callback buffer. The watchdog is
/// disabled: the checker asserts the same invariants itself after every
/// action, over every interleaving, rather than sampling them at epoch
/// cadence.
pub fn tiny_config(tiles: usize) -> SystemConfig {
    let mut cfg = SystemConfig::with_tiles(tiles);
    for c in [
        &mut cfg.l1d,
        &mut cfg.l2,
        &mut cfg.llc_bank,
        &mut cfg.engine.l1d,
    ] {
        c.size_bytes = 2 * 2 * LINE_BYTES;
        c.ways = 2;
    }
    cfg.llc_mshrs = 2;
    cfg.engine.callback_buffer = 2;
    cfg.prefetch.enabled = false;
    cfg.watchdog.enabled = false;
    cfg
}

/// A built system under check plus its action-alphabet lines.
pub struct CheckSystem {
    /// The real täkō system (full staged pipeline, tiny geometry).
    pub sys: TakoSystem,
    /// The line addresses actions may touch: six lines of the Morph's
    /// range (covering every `(bank, set)` pair twice over, so two-way
    /// sets conflict) followed by two unmanaged DRAM-backed lines.
    pub lines: Vec<Addr>,
}

/// Build the family's system: tiny config, optional fault plan, the
/// probe Morph registered, and the action alphabet chosen to cover
/// both banks and both sets with conflicts.
pub fn build(family: Family, tiles: usize, faults: Option<&FaultPlan>) -> CheckSystem {
    let mut cfg = tiny_config(tiles);
    cfg.faults = faults.cloned();
    let mut sys = TakoSystem::new(cfg);
    // Unmanaged DRAM-backed scratch every probe may legally touch from
    // a callback (Sec 4.3 allows unmanaged data from any level).
    let data = sys.alloc_real(16 * LINE_BYTES);
    let morph_size = 8 * LINE_BYTES;
    let range = match family {
        Family::Decompress => sys
            .register_phantom(
                MorphLevel::Shared,
                morph_size,
                Box::new(DecompressProbe { src: data.base }),
            )
            .expect("register decompress probe")
            .range(),
        Family::Soa => sys
            .register_phantom(
                MorphLevel::Private,
                morph_size,
                Box::new(SoaProbe { data: data.base }),
            )
            .expect("register soa probe")
            .range(),
        Family::Nvm => {
            let r = sys.alloc_real(morph_size);
            sys.register_real(MorphLevel::Shared, r, Box::new(NvmProbe { log: data.base }))
                .expect("register nvm probe")
                .range()
        }
        Family::Trrip => sys
            .register_phantom(
                MorphLevel::Shared,
                morph_size,
                Box::new(TrripProbe { aux: data.base }),
            )
            .expect("register trrip probe")
            .range(),
    };
    let mut lines: Vec<Addr> = (0..6).map(|i| range.base + i * LINE_BYTES).collect();
    lines.push(data.base);
    lines.push(data.base + LINE_BYTES);
    CheckSystem { sys, lines }
}

/// Phantom lines decompressed out of a packed backing buffer: `onMiss`
/// loads the packed word coherently, "expands" it through the fabric,
/// and fills the line.
struct DecompressProbe {
    src: Addr,
}

impl Morph for DecompressProbe {
    fn name(&self) -> &str {
        "check-decompress"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let off = ctx.offset();
        let (packed, v) = ctx.load_u64(self.src + off % (2 * LINE_BYTES), &[]);
        let v2 = ctx.alu(&[v]);
        ctx.line_fill_u64(packed.wrapping_add(off), &[v2]);
    }
}

/// SoA view: `onMiss` gathers two fields from the real array into the
/// phantom line; `onWriteback` scatters the line's first word back.
struct SoaProbe {
    data: Addr,
}

impl Morph for SoaProbe {
    fn name(&self) -> &str {
        "check-soa"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let off = ctx.offset();
        let (a, va) = ctx.load_u64(self.data + off % (4 * LINE_BYTES), &[]);
        let (b, vb) = ctx.load_u64(self.data + (off + 2 * LINE_BYTES) % (4 * LINE_BYTES), &[]);
        ctx.line_write_u64(0, a, &[va]);
        ctx.line_write_u64(8, b, &[vb]);
    }
    fn on_writeback(&mut self, ctx: &mut EngineCtx<'_>) {
        let off = ctx.offset();
        let (w, v) = ctx.line_read_u64(0, &[]);
        ctx.store_u64(self.data + off % (4 * LINE_BYTES), w, &[v]);
    }
}

/// NVM transactions: `onWriteback` appends the dirty line's head word
/// to a redo log with a streaming store before the writeback proceeds.
struct NvmProbe {
    log: Addr,
}

impl Morph for NvmProbe {
    fn name(&self) -> &str {
        "check-nvm"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.alu(&[]);
    }
    fn on_eviction(&mut self, ctx: &mut EngineCtx<'_>) {
        ctx.alu(&[]);
    }
    fn on_writeback(&mut self, ctx: &mut EngineCtx<'_>) {
        let off = ctx.offset();
        let (w, v) = ctx.line_read_u64(0, &[]);
        ctx.store_stream_u64(self.log + off % (4 * LINE_BYTES), w, &[v]);
    }
}

/// trrîp stressor: `onEviction` issues a coherent engine fill, so
/// engine traffic lands in the very sets being evicted — exactly the
/// churn the one-callback-free-line-per-set rule must survive.
struct TrripProbe {
    aux: Addr,
}

impl Morph for TrripProbe {
    fn name(&self) -> &str {
        "check-trrip"
    }
    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let off = ctx.offset();
        ctx.line_fill_u64(off, &[]);
    }
    fn on_eviction(&mut self, ctx: &mut EngineCtx<'_>) {
        let off = ctx.offset();
        let (_, v) = ctx.load_u64(self.aux + off % (2 * LINE_BYTES), &[]);
        ctx.alu(&[v]);
    }
}
