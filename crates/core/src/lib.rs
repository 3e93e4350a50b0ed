//! # tako-core — the täkō polymorphic cache hierarchy
//!
//! This crate is the paper's contribution: a cache hierarchy whose misses,
//! evictions, and writebacks trigger *software callbacks* that run on
//! reconfigurable dataflow engines placed next to each L2 and LLC bank.
//!
//! ## The programming interface (Sec 4)
//!
//! Software defines a [`Morph`] — a set of callbacks plus whatever local
//! state they need — and registers it on an address range at either the
//! private L2 ([`MorphLevel::Private`]) or the shared LLC
//! ([`MorphLevel::Shared`]):
//!
//! * [`TakoSystem::register_phantom`] allocates a *phantom* address range
//!   that lives only in the caches and is never backed by off-chip
//!   memory; `onMiss` and `onWriteback` define the semantics of loads and
//!   stores to it.
//! * [`TakoSystem::register_real`] attaches callbacks to an existing
//!   DRAM-backed range, preserving load-store semantics by default
//!   (`onMiss` runs in parallel with the fetch; `onWriteback` interposes
//!   before the writeback).
//! * [`TakoSystem::flush_data`] (the paper's `flushData`) walks the tag
//!   arrays, evicts every line of a Morph's range — triggering
//!   `onEviction`/`onWriteback` — and blocks until all callbacks finish.
//!
//! Callbacks execute on the per-tile [`engine::Engine`]: a hardware
//! scheduler with a bounded callback buffer, per-line locking, a bitstream
//! cache, an rTLB, a coherent engine L1d, and a spatial dataflow fabric
//! (`tako-dataflow`). The [`EngineCtx`] handed to each callback exposes
//! dataflow-tracked ALU ops, accesses to the locked line, and coherent
//! loads/stores that walk the same hierarchy as every other agent.
//!
//! ## The system (Sec 5)
//!
//! [`TakoSystem`] assembles the full tiled CMP of Table 3 — out-of-order
//! cores, L1/L2, banked inclusive LLC with directory coherence, mesh NoC,
//! DRAM controllers, engines — and implements `tako_cpu::MemSystem`, so
//! any `ThreadProgram` runs against it unchanged. A system with no Morphs
//! registered behaves exactly like the baseline multicore: täkō adds no
//! latency to conventional loads and stores.
//!
//! # Example
//!
//! ```
//! use tako_core::{Morph, MorphLevel, EngineCtx, TakoSystem};
//! use tako_sim::config::SystemConfig;
//!
//! /// A phantom range whose lines materialize as sequential counters.
//! struct Iota;
//! impl Morph for Iota {
//!     fn name(&self) -> &str { "iota" }
//!     fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
//!         let base = ctx.offset() / 8;
//!         let v = ctx.arg();
//!         for i in 0..8 {
//!             ctx.line_write_u64(i as usize * 8, base + i, &[v]);
//!         }
//!     }
//! }
//!
//! let mut sys = TakoSystem::new(SystemConfig::default_16core());
//! let handle = sys.register_phantom(MorphLevel::Private, 4096, Box::new(Iota))?;
//! let base = handle.range().base;
//! // A core-side read of phantom word 10 triggers onMiss, which fills
//! // the line; the value is 10.
//! let (val, _cycle) = sys.debug_read_u64(0, base + 80, 0);
//! assert_eq!(val, 10);
//! # Ok::<(), tako_core::TakoError>(())
//! ```

pub mod ctx;
pub mod engine;
pub mod error;
pub mod hierarchy;
pub mod morph;
pub mod overhead;
pub mod system;
pub mod watchdog;

pub use ctx::EngineCtx;
pub use error::TakoError;
pub use hierarchy::{SchedPoint, StageScheduler};
pub use morph::{CallbackKind, Morph, MorphHandle, MorphId, MorphLevel};
pub use system::TakoSystem;
pub use watchdog::{DiagnosticSnapshot, Watchdog};
