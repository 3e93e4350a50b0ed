//! System configuration (Table 3 of the paper).
//!
//! The full system is described by [`SystemConfig`]; substrate crates
//! consume the sub-configs ([`CacheConfig`], [`MemConfig`],
//! [`EngineConfig`], [`CoreConfig`]). All defaults follow Table 3:
//! 16 out-of-order cores at 2.4 GHz in a 4×4 mesh, 32 KB L1s, 128 KB L2s,
//! an 8 MB inclusive LLC (512 KB/bank), 5×5 dataflow engines, and four
//! memory controllers at 100-cycle latency and 11.8 GB/s each.
//!
//! Table 3 values that no experiment varies are constants, not fields:
//! the DRAM latency and bandwidth ([`DRAM_LATENCY`],
//! [`DRAM_BYTES_PER_CYCLE`]) here, the NoC's flit width and router and
//! link latencies in `tako-noc`, and the prefetcher's degree and
//! training threshold in `tako-cache`'s `prefetch` module.
//!
//! [`SystemConfig::validate`] rejects nonsense geometries with a typed
//! [`ConfigError`] before a simulation is built; the robustness knobs
//! live in [`WatchdogConfig`] and the optional
//! [`fault plan`](crate::fault::FaultPlan).

use crate::fault::FaultPlan;

/// Cache line size used throughout the hierarchy, in bytes.
pub const LINE_BYTES: u64 = 64;

/// Uncontended DRAM access latency in cycles (Table 3).
pub const DRAM_LATENCY: u64 = 100;

/// Sustained bandwidth of one memory controller in bytes per cycle
/// (Table 3: 11.8 GB/s at 2.4 GHz).
pub const DRAM_BYTES_PER_CYCLE: f64 = 4.9;

/// Most tiles a system may have: the LLC directory keeps each line's
/// sharers as a `u64` bit mask and its owner as a `u8`.
pub const MAX_TILES: usize = 64;

/// `x % n` for a divisor fixed when a component is built: a mask when
/// `n` is a power of two (every cache's set count, 4- and 16-tile
/// meshes, 4 DRAM controllers), a division otherwise (fig25's 36 tiles
/// and 9 controllers). Cache sets, LLC banks and DRAM controllers all
/// interleave lines through one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interleave {
    n: u64,
    pow2: bool,
}

impl Interleave {
    /// Interleave over `n` slots.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "interleave over zero slots");
        Interleave {
            n,
            pow2: n.is_power_of_two(),
        }
    }

    /// The slot `x` maps to: `x % n`.
    #[inline(always)]
    pub fn slot(self, x: u64) -> usize {
        if self.pow2 {
            (x & (self.n - 1)) as usize
        } else {
            (x % self.n) as usize
        }
    }
}

/// Replacement policy selector for a cache array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplPolicy {
    /// Classic least-recently-used.
    Lru,
    /// täkō's RRIP variant (Sec 5.2): static re-reference interval
    /// prediction (SRRIP) \[62\] in which engine-issued fills insert at
    /// distant RRPV, and victim selection guarantees at least one line
    /// per set with no Morph registered (deadlock avoidance). Without
    /// Morph inserts or engine fills it is plain SRRIP.
    Trrip,
}

/// Geometry and timing of one cache array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: u32,
    /// Latency of a tag lookup, in cycles.
    pub tag_latency: u64,
    /// Latency of a data-array access, in cycles (charged on hits/fills).
    pub data_latency: u64,
    /// Replacement policy.
    pub repl: ReplPolicy,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not describe at least one set.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / LINE_BYTES;
        let sets = lines / u64::from(self.ways);
        assert!(sets > 0, "cache too small for its associativity");
        sets
    }

    /// Total number of lines.
    pub fn lines(&self) -> u64 {
        self.size_bytes / LINE_BYTES
    }

    /// The paper's 32 KB, 8-way L1 data cache.
    pub fn l1d_default() -> Self {
        CacheConfig {
            size_bytes: 32 * 1024,
            ways: 8,
            tag_latency: 1,
            data_latency: 2,
            repl: ReplPolicy::Lru,
        }
    }

    /// The paper's 128 KB, 8-way private L2 (2-cycle tag, 4-cycle data).
    pub fn l2_default() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            ways: 8,
            tag_latency: 2,
            data_latency: 4,
            repl: ReplPolicy::Trrip,
        }
    }

    /// One 512 KB, 16-way bank of the paper's 8 MB inclusive LLC
    /// (3-cycle tag, 5-cycle data).
    pub fn llc_bank_default() -> Self {
        CacheConfig {
            size_bytes: 512 * 1024,
            ways: 16,
            tag_latency: 3,
            data_latency: 5,
            repl: ReplPolicy::Trrip,
        }
    }

    /// The engine's small coherent 8 KB L1d (Table 2).
    pub fn engine_l1d_default() -> Self {
        CacheConfig {
            size_bytes: 8 * 1024,
            ways: 4,
            tag_latency: 1,
            data_latency: 1,
            repl: ReplPolicy::Lru,
        }
    }
}

/// Kind of core pipeline to model (Fig 24 sweeps these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreKind {
    /// Stall-on-use in-order pipeline: one outstanding miss.
    InOrder,
    /// Out-of-order core with a bounded window of outstanding loads.
    OutOfOrder,
}

/// A core model's parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreConfig {
    /// Pipeline style.
    pub kind: CoreKind,
    /// Sustained issue width (instructions per cycle for non-memory work).
    pub width: u32,
    /// Maximum outstanding loads (memory-level parallelism window).
    /// Ignored for [`CoreKind::InOrder`], which behaves as window 1.
    pub mlp_window: u32,
    /// Branch misprediction penalty in cycles.
    pub mispredict_penalty: u64,
}

impl CoreConfig {
    /// Goldmont-like 3-wide out-of-order core (paper baseline).
    pub fn goldmont() -> Self {
        CoreConfig {
            kind: CoreKind::OutOfOrder,
            width: 3,
            mlp_window: 8,
            mispredict_penalty: 14,
        }
    }

    /// 2-wide out-of-order core (Fig 24 "small OOO").
    pub fn small_ooo() -> Self {
        CoreConfig {
            kind: CoreKind::OutOfOrder,
            width: 2,
            mlp_window: 4,
            mispredict_penalty: 12,
        }
    }

    /// Scalar in-order core (Fig 24 "in-order").
    pub fn in_order() -> Self {
        CoreConfig {
            kind: CoreKind::InOrder,
            width: 1,
            mlp_window: 1,
            mispredict_penalty: 8,
        }
    }
}

/// Memory-system parameters (Table 3: 4 controllers). Each controller
/// has the fixed [`DRAM_LATENCY`] and [`DRAM_BYTES_PER_CYCLE`]; only
/// the controller count varies, with the tile count
/// ([`SystemConfig::with_tiles`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Number of memory controllers, each serving an address slice.
    pub controllers: usize,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig { controllers: 4 }
    }
}

impl MemConfig {
    /// Cycles of controller occupancy for transferring one cache line.
    pub fn line_occupancy(&self) -> u64 {
        (LINE_BYTES as f64 / DRAM_BYTES_PER_CYCLE).ceil() as u64
    }
}

/// Kind of near-cache engine to model (Figs 22/23 sweep these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// The paper's spatial dataflow fabric with asynchronous firing.
    Dataflow,
    /// An in-order scalar core used as the engine (performs poorly, Sec 9).
    InOrderCore,
    /// Idealized engine: unlimited, zero-latency PEs; callbacks are bound
    /// only by memory latency and data dependences.
    Ideal,
}

/// Parameters of the per-tile täkō engine (Sec 5.3, Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Engine execution model. [`EngineConfig::ideal`] is the one
    /// switch for the idealized-engine runs of Figs 6, 13, 16, 20 and 22.
    pub kind: EngineKind,
    /// Number of integer (ALU) processing elements.
    pub alu_pes: u32,
    /// Number of memory processing elements (ports into the engine L1d).
    pub mem_pes: u32,
    /// Latency of one PE operation in cycles (Fig 23 sweeps 1–8).
    pub pe_latency: u64,
    /// Entries in the hardware callback buffer (Sec 9: 8 is sufficient),
    /// the engine's only admission bound. A callback holds one entry
    /// from admission to completion; a callback that finds every entry
    /// busy waits for the earliest to free, and a nested callback that
    /// finds none left borrows one and is charged a full-buffer stall.
    /// Any size of at least 1 is a legal machine.
    pub callback_buffer: u32,
    /// Reverse-TLB entries (Sec 9: 256 with 2 MB pages).
    pub rtlb_entries: u32,
    /// trrîp (Sec 5.2): engine-issued fills insert at distant priority.
    /// The one switch for the ablation study: disabled, engine fills
    /// insert like demand fills.
    pub trrip: bool,
    /// The engine's coherent L1 data cache.
    pub l1d: CacheConfig,
}

impl EngineConfig {
    /// Static instructions storable per PE (Table 2: 16).
    pub const INSTRS_PER_PE: u32 = 16;

    /// Token-store entries per PE (Table 2: 8).
    pub const TOKENS_PER_PE: u32 = 8;

    /// Dynamic instructions one callback may execute before the
    /// hierarchy declares it runaway and quarantines its Morph. Far
    /// above anything a well-behaved callback needs (they run tens to
    /// hundreds of instructions).
    pub const CALLBACK_INSTR_BUDGET: u64 = 100_000;

    /// The paper's default 5×5 fabric: 15 integer PEs, 10 memory PEs,
    /// 1-cycle PE latency, 8-entry callback buffer.
    pub fn default_5x5() -> Self {
        EngineConfig {
            kind: EngineKind::Dataflow,
            alu_pes: 15,
            mem_pes: 10,
            pe_latency: 1,
            callback_buffer: 8,
            rtlb_entries: 256,
            trrip: true,
            l1d: CacheConfig::engine_l1d_default(),
        }
    }

    /// A square fabric of `dim`×`dim` PEs, split 3:2 between ALU and
    /// memory PEs like the paper's 5×5 (15 ALU + 10 memory).
    pub fn square(dim: u32) -> Self {
        let total = dim * dim;
        let alu = (total * 3).div_ceil(5);
        EngineConfig {
            alu_pes: alu,
            mem_pes: total - alu,
            ..Self::default_5x5()
        }
    }

    /// Idealized engine (unbounded, instantaneous compute).
    pub fn ideal() -> Self {
        EngineConfig {
            kind: EngineKind::Ideal,
            alu_pes: u32::MAX,
            mem_pes: u32::MAX,
            pe_latency: 0,
            ..Self::default_5x5()
        }
    }

    /// In-order-core engine (prior NDC designs; Sec 9 shows this is slow).
    pub fn in_order_core() -> Self {
        EngineConfig {
            kind: EngineKind::InOrderCore,
            ..Self::default_5x5()
        }
    }

    /// Total PEs in the fabric.
    pub fn total_pes(&self) -> u32 {
        self.alu_pes.saturating_add(self.mem_pes)
    }

    /// Total static-instruction capacity of the fabric.
    pub fn instr_capacity(&self) -> u32 {
        self.total_pes().saturating_mul(Self::INSTRS_PER_PE)
    }
}

/// Whether the L2 includes a strided prefetcher (Table 3: yes). Its
/// degree and training threshold are the constants `DEGREE` and
/// `TRAIN_THRESHOLD` of `tako-cache`'s `prefetch` module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrefetchConfig {
    /// Enable the stride prefetcher at the L2.
    pub enabled: bool,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig { enabled: true }
    }
}

/// Knobs of the runtime invariant watchdog (`tako-core::watchdog`).
///
/// The watchdog is observational: it never alters timing, it only
/// samples invariants once per epoch and flags accesses whose latency
/// exceeds the stall bound, dumping a diagnostic snapshot instead of
/// letting the run hang silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Master switch. Disabled, the watchdog never runs.
    pub enabled: bool,
    /// Cycles between sampled invariant sweeps (trrîp safe-line rule,
    /// MSHR accounting, counter monotonicity).
    pub epoch_cycles: u64,
    /// A single access whose end-to-end latency exceeds this bound is
    /// reported as a stall (`--watchdog-cycles`). Must comfortably
    /// exceed a worst-case legitimate miss (DRAM latency + queueing +
    /// a callback chain), which is a few thousand cycles.
    pub stall_cycles: u64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            enabled: true,
            epoch_cycles: 1 << 17,
            stall_cycles: 200_000,
        }
    }
}

/// A rejected configuration, from [`SystemConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `tiles` is zero.
    NoTiles,
    /// `mesh.0 * mesh.1 != tiles`.
    MeshMismatch {
        /// Configured mesh dimensions.
        mesh: (usize, usize),
        /// Configured tile count.
        tiles: usize,
    },
    /// More tiles than the LLC directory's sharer mask can name.
    TooManyTiles {
        /// Configured tile count.
        tiles: usize,
        /// Largest supported tile count ([`MAX_TILES`]).
        max: usize,
    },
    /// A cache level has zero ways.
    ZeroWays(&'static str),
    /// A cache level is smaller than one line per way.
    CacheTooSmall(&'static str),
    /// A cache level's set count is not a power of two (the index
    /// function is a shift/mask).
    SetsNotPowerOfTwo {
        /// Which cache level.
        level: &'static str,
        /// The offending set count.
        sets: u64,
    },
    /// `llc_mshrs` is below 2 (one entry is reserved for callback-free
    /// requests, so 1 leaves nothing for callbacks).
    TooFewMshrs,
    /// `mem.controllers` is zero.
    NoDramControllers,
    /// The engine fabric has no PEs of some class.
    NoEnginePes(&'static str),
    /// The engine callback buffer has zero entries.
    NoCallbackBuffer,
    /// The engine's reverse TLB has zero entries.
    NoRtlbEntries,
    /// A fault-plan event is addressed to a site (tile/bank index)
    /// outside the configured mesh.
    FaultSiteOutOfRange {
        /// The offending site index.
        site: usize,
        /// Configured tile count (valid sites are `0..tiles`).
        tiles: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoTiles => write!(f, "system has zero tiles"),
            ConfigError::MeshMismatch { mesh, tiles } => {
                write!(f, "mesh {}x{} does not cover {tiles} tiles", mesh.0, mesh.1)
            }
            ConfigError::TooManyTiles { tiles, max } => {
                write!(
                    f,
                    "system has {tiles} tiles; the LLC directory tracks at most {max}"
                )
            }
            ConfigError::ZeroWays(level) => {
                write!(f, "{level} cache has zero ways")
            }
            ConfigError::CacheTooSmall(level) => {
                write!(f, "{level} cache too small for its associativity")
            }
            ConfigError::SetsNotPowerOfTwo { level, sets } => {
                write!(f, "{level} cache has {sets} sets (must be a power of two)")
            }
            ConfigError::TooFewMshrs => {
                write!(f, "LLC bank cache needs at least 2 MSHRs")
            }
            ConfigError::NoDramControllers => {
                write!(f, "memory system has zero DRAM controllers")
            }
            ConfigError::NoEnginePes(class) => {
                write!(f, "engine fabric has zero {class} PEs")
            }
            ConfigError::NoCallbackBuffer => {
                write!(f, "engine callback buffer has zero entries")
            }
            ConfigError::NoRtlbEntries => {
                write!(f, "engine reverse TLB has zero entries")
            }
            ConfigError::FaultSiteOutOfRange { site, tiles } => {
                write!(
                    f,
                    "fault event addressed to site {site}, but the mesh has only {tiles} tiles"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full system configuration (Table 3). The NoC has no fields: its
/// flit width and router and link latencies are `tako-noc` constants,
/// and its shape is `mesh`.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Number of tiles (each: core + L1s + L2 + LLC bank + engine).
    pub tiles: usize,
    /// Mesh dimensions; `mesh.0 * mesh.1 == tiles`.
    pub mesh: (usize, usize),
    /// Core model.
    pub core: CoreConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Private L2.
    pub l2: CacheConfig,
    /// One LLC bank (the LLC as a whole is `tiles` banks, inclusive).
    pub llc_bank: CacheConfig,
    /// Miss-status holding registers per LLC bank: the outstanding
    /// misses one bank tracks. One entry is reserved away from
    /// callback-waiting requests (Sec 5.2's deadlock-avoidance rule).
    /// The private levels do not model MSHRs.
    pub llc_mshrs: u32,
    /// L2 prefetcher.
    pub prefetch: PrefetchConfig,
    /// Memory system.
    pub mem: MemConfig,
    /// Per-tile täkō engine.
    pub engine: EngineConfig,
    /// Runtime invariant watchdog.
    pub watchdog: WatchdogConfig,
    /// Optional deterministic fault plan; `None` (the default) injects
    /// nothing and leaves the simulation byte-identical.
    pub faults: Option<FaultPlan>,
}

impl SystemConfig {
    /// The paper's default 16-core system (Table 3).
    pub fn default_16core() -> Self {
        SystemConfig {
            tiles: 16,
            mesh: (4, 4),
            core: CoreConfig::goldmont(),
            l1d: CacheConfig::l1d_default(),
            l2: CacheConfig::l2_default(),
            llc_bank: CacheConfig::llc_bank_default(),
            llc_mshrs: 16,
            prefetch: PrefetchConfig::default(),
            mem: MemConfig::default(),
            engine: EngineConfig::default_5x5(),
            watchdog: WatchdogConfig::default(),
            faults: None,
        }
    }

    /// A system with `n` tiles arranged in the squarest possible mesh.
    /// Memory bandwidth scales proportionally with cores (Fig 25).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_tiles(n: usize) -> Self {
        assert!(n > 0, "system needs at least one tile");
        let mut cfg = Self::default_16core();
        cfg.tiles = n;
        cfg.mesh = squarest_mesh(n);
        // Paper (Fig 25): "memory bandwidth scales proportionally with
        // cores" — keep controllers at 1 per 4 tiles, min 1.
        cfg.mem.controllers = (n / 4).max(1);
        cfg
    }

    /// Reject nonsense configurations with a typed error before any
    /// simulation state is built. `TakoSystem::new` calls this, and
    /// every bench binary calls it at startup.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.tiles == 0 {
            return Err(ConfigError::NoTiles);
        }
        if self.mesh.0 * self.mesh.1 != self.tiles {
            return Err(ConfigError::MeshMismatch {
                mesh: self.mesh,
                tiles: self.tiles,
            });
        }
        if self.tiles > MAX_TILES {
            return Err(ConfigError::TooManyTiles {
                tiles: self.tiles,
                max: MAX_TILES,
            });
        }
        for (level, c) in [
            ("L1d", &self.l1d),
            ("L2", &self.l2),
            ("LLC bank", &self.llc_bank),
            ("engine L1d", &self.engine.l1d),
        ] {
            if c.ways == 0 {
                return Err(ConfigError::ZeroWays(level));
            }
            let sets = (c.size_bytes / LINE_BYTES) / u64::from(c.ways);
            if sets == 0 {
                return Err(ConfigError::CacheTooSmall(level));
            }
            if !sets.is_power_of_two() {
                return Err(ConfigError::SetsNotPowerOfTwo { level, sets });
            }
        }
        if self.llc_mshrs < 2 {
            return Err(ConfigError::TooFewMshrs);
        }
        if self.mem.controllers == 0 {
            return Err(ConfigError::NoDramControllers);
        }
        if self.engine.alu_pes == 0 {
            return Err(ConfigError::NoEnginePes("ALU"));
        }
        if self.engine.mem_pes == 0 {
            return Err(ConfigError::NoEnginePes("memory"));
        }
        if self.engine.callback_buffer == 0 {
            return Err(ConfigError::NoCallbackBuffer);
        }
        if self.engine.rtlb_entries == 0 {
            return Err(ConfigError::NoRtlbEntries);
        }
        if let Some(plan) = &self.faults {
            for ev in &plan.events {
                if let Some(site) = ev.site {
                    if site >= self.tiles {
                        return Err(ConfigError::FaultSiteOutOfRange {
                            site,
                            tiles: self.tiles,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::default_16core()
    }
}

/// The most square `(rows, cols)` factorization of `n`.
fn squarest_mesh(n: usize) -> (usize, usize) {
    let mut best = (1, n);
    let mut r = 1;
    while r * r <= n {
        if n.is_multiple_of(r) {
            best = (r, n / r);
        }
        r += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let cfg = SystemConfig::default_16core();
        assert_eq!(cfg.tiles, 16);
        assert_eq!(cfg.mesh, (4, 4));
        assert_eq!(cfg.l1d.size_bytes, 32 * 1024);
        assert_eq!(cfg.l2.size_bytes, 128 * 1024);
        assert_eq!(cfg.llc_bank.size_bytes, 512 * 1024);
        assert_eq!(cfg.llc_bank.size_bytes * cfg.tiles as u64, 8 * 1024 * 1024);
        assert_eq!(cfg.mem.controllers, 4);
        assert_eq!(DRAM_LATENCY, 100);
        assert_eq!(DRAM_BYTES_PER_CYCLE, 4.9);
        assert_eq!(cfg.engine.alu_pes, 15);
        assert_eq!(cfg.engine.mem_pes, 10);
    }

    #[test]
    fn cache_geometry() {
        let l2 = CacheConfig::l2_default();
        assert_eq!(l2.lines(), 2048);
        assert_eq!(l2.sets(), 256);
        let llc = CacheConfig::llc_bank_default();
        assert_eq!(llc.sets(), 512);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_cache_panics() {
        CacheConfig {
            size_bytes: 64,
            ways: 8,
            tag_latency: 1,
            data_latency: 1,
            repl: ReplPolicy::Lru,
        }
        .sets();
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(SystemConfig::default_16core().validate(), Ok(()));
        assert_eq!(SystemConfig::with_tiles(7).validate(), Ok(()));
        assert_eq!(SystemConfig::with_tiles(64).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_nonsense() {
        let base = SystemConfig::default_16core;

        let mut cfg = base();
        cfg.tiles = 0;
        cfg.mesh = (0, 0);
        assert_eq!(cfg.validate(), Err(ConfigError::NoTiles));

        let mut cfg = base();
        cfg.mesh = (3, 4);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::MeshMismatch {
                mesh: (3, 4),
                tiles: 16
            })
        );

        // One tile past the directory's u64 sharer mask: tile 64 would
        // alias tile 0.
        assert_eq!(
            SystemConfig::with_tiles(65).validate(),
            Err(ConfigError::TooManyTiles { tiles: 65, max: 64 })
        );

        let mut cfg = base();
        cfg.l2.ways = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::ZeroWays("L2")));

        let mut cfg = base();
        cfg.l1d.size_bytes = 64;
        assert_eq!(cfg.validate(), Err(ConfigError::CacheTooSmall("L1d")));

        let mut cfg = base();
        cfg.llc_bank.size_bytes = 3 * 64 * 16;
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::SetsNotPowerOfTwo {
                level: "LLC bank",
                sets: 3
            })
        );

        let mut cfg = base();
        cfg.llc_mshrs = 1;
        assert_eq!(cfg.validate(), Err(ConfigError::TooFewMshrs));

        let mut cfg = base();
        cfg.mem.controllers = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoDramControllers));

        let mut cfg = base();
        cfg.engine.mem_pes = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoEnginePes("memory")));

        let mut cfg = base();
        cfg.engine.callback_buffer = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoCallbackBuffer));

        let mut cfg = base();
        cfg.engine.rtlb_entries = 0;
        assert_eq!(cfg.validate(), Err(ConfigError::NoRtlbEntries));

        let mut cfg = base();
        let mut plan = FaultPlan::empty();
        plan.events.push(crate::fault::FaultEvent {
            at: 1,
            kind: crate::fault::FaultKind::DelayedDram,
            magnitude: 100,
            site: Some(16),
        });
        cfg.faults = Some(plan);
        assert_eq!(
            cfg.validate(),
            Err(ConfigError::FaultSiteOutOfRange {
                site: 16,
                tiles: 16
            })
        );
        // The same plan addressed inside the mesh is fine.
        let mut cfg = base();
        let mut plan = FaultPlan::empty();
        plan.events.push(crate::fault::FaultEvent {
            at: 1,
            kind: crate::fault::FaultKind::DelayedDram,
            magnitude: 100,
            site: Some(15),
        });
        cfg.faults = Some(plan);
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn sec9_callback_buffer_sweep_validates() {
        // Every buffer size the Sec 9 sweep runs is a legal machine: the
        // engine borrows an admission slot when the buffer is full.
        for entries in [1, 2, 4, 8, 16, 64] {
            let mut cfg = SystemConfig::default_16core();
            cfg.engine.callback_buffer = entries;
            assert_eq!(cfg.validate(), Ok(()), "callback_buffer = {entries}");
        }
    }

    #[test]
    fn config_error_display() {
        assert_eq!(
            ConfigError::ZeroWays("L2").to_string(),
            "L2 cache has zero ways"
        );
        assert_eq!(
            ConfigError::SetsNotPowerOfTwo {
                level: "LLC bank",
                sets: 3
            }
            .to_string(),
            "LLC bank cache has 3 sets (must be a power of two)"
        );
        assert_eq!(
            ConfigError::TooManyTiles { tiles: 65, max: 64 }.to_string(),
            "system has 65 tiles; the LLC directory tracks at most 64"
        );
        assert_eq!(
            ConfigError::TooFewMshrs.to_string(),
            "LLC bank cache needs at least 2 MSHRs"
        );
        assert_eq!(
            ConfigError::NoDramControllers.to_string(),
            "memory system has zero DRAM controllers"
        );
        assert_eq!(
            ConfigError::FaultSiteOutOfRange {
                site: 99,
                tiles: 16
            }
            .to_string(),
            "fault event addressed to site 99, but the mesh has only 16 tiles"
        );
    }

    #[test]
    fn interleave_equals_modulo() {
        for n in [1u64, 4, 9, 16, 36, 64] {
            let il = Interleave::new(n);
            for x in (0..4096).chain([u64::MAX - 1, u64::MAX]) {
                assert_eq!(il.slot(x) as u64, x % n, "x={x} n={n}");
            }
        }
    }

    #[test]
    fn mesh_factorization() {
        assert_eq!(squarest_mesh(16), (4, 4));
        assert_eq!(squarest_mesh(36), (6, 6));
        assert_eq!(squarest_mesh(8), (2, 4));
        assert_eq!(squarest_mesh(7), (1, 7));
        assert_eq!(squarest_mesh(1), (1, 1));
    }

    #[test]
    fn scaled_system_scales_bandwidth() {
        let cfg = SystemConfig::with_tiles(36);
        assert_eq!(cfg.mesh, (6, 6));
        assert_eq!(cfg.mem.controllers, 9);
        let tiny = SystemConfig::with_tiles(2);
        assert_eq!(tiny.mem.controllers, 1);
    }

    #[test]
    fn engine_variants() {
        let sq = EngineConfig::square(5);
        assert_eq!(sq.alu_pes, 15);
        assert_eq!(sq.mem_pes, 10);
        let sq3 = EngineConfig::square(3);
        assert_eq!(sq3.total_pes(), 9);
        assert_eq!(EngineConfig::ideal().pe_latency, 0);
        assert_eq!(EngineConfig::default_5x5().instr_capacity(), 25 * 16);
    }

    #[test]
    fn mem_line_occupancy() {
        // 64 B at 4.9 B/cycle → 14 cycles.
        assert_eq!(DRAM_BYTES_PER_CYCLE, 4.9);
        assert_eq!(MemConfig::default().line_occupancy(), 14);
    }
}
