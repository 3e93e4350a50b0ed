//! In-cache layout transformation: array-of-structs → struct-of-arrays.
//!
//! Sec 5.2 of the paper mentions that in "a simple Morph that maps
//! array-of-structs to struct-of-arrays, we have observed speedup of
//! >4×" from trrîp's pollution avoidance. This module implements that
//! > Morph and the ablation behind the claim.
//!
//! The application repeatedly scans one 8-byte field of an array of
//! 64-byte structs. The baseline drags the full struct lines through the
//! caches (8× wasted capacity and bandwidth). The täkō version registers
//! a phantom SoA range: `onMiss` gathers the field from eight structs
//! into one dense line; the packed column then *fits* in the private
//! cache, so later passes hit. The engine's gather uses non-temporal
//! loads, which fill only the engine's L1d. [`Variant::TakoAllocating`]
//! is the same Morph gathering with allocating loads; whether its fills
//! insert at trrîp's distant priority is the machine's choice
//! (`engine.trrip`), and without it the AoS stream evicts the very
//! column the Morph is building.

use tako_core::{EngineCtx, Morph, MorphLevel, TakoSystem};
use tako_cpu::{run_single, CoreEnv, CoreTiming, MemSystem, StepResult, ThreadProgram};
use tako_mem::addr::Addr;
use tako_sim::config::{SystemConfig, LINE_BYTES};

use crate::common::RunResult;

/// Bytes per struct (one cache line: 8 fields of 8 bytes).
pub const STRUCT_BYTES: u64 = LINE_BYTES;

/// Which implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// Scan the field directly from the array of structs.
    Aos,
    /// täkō SoA Morph with non-temporal engine gathers.
    Tako,
    /// The same Morph with allocating engine loads: the gather stream
    /// pollutes the shared cache unless `engine.trrip` inserts it at
    /// distant priority.
    TakoAllocating,
}

impl Variant {
    /// All variants.
    pub const ALL: [Variant; 3] = [Variant::Aos, Variant::Tako, Variant::TakoAllocating];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Aos => "aos-baseline",
            Variant::Tako => "tako-trrip",
            Variant::TakoAllocating => "tako-allocating",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of structs.
    pub elements: u64,
    /// Field index scanned (0..8).
    pub field: u64,
    /// Scan passes over the column.
    pub passes: u64,
    /// Seed for the field values.
    pub seed: u64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            elements: 256 * 1024, // AoS = 16 MB, column = 2 MB
            field: 2,
            passes: 8,
            seed: 0x50A,
        }
    }
}

fn field_value(seed: u64, i: u64) -> u64 {
    (seed ^ i).wrapping_mul(0x9E37_79B9) >> 8
}

/// The layout Morph: phantom line `k` holds `field` of structs
/// `8k..8k+8`.
struct SoaMorph {
    aos: Addr,
    field: u64,
    /// Use non-temporal gathers (trrîp behaviour).
    streaming: bool,
}

impl Morph for SoaMorph {
    fn name(&self) -> &str {
        "aos-to-soa"
    }

    fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
        let first = ctx.offset() / 8;
        let dep = ctx.arg();
        let mut vals = [0u64; 8];
        let mut deps = Vec::with_capacity(8);
        for (i, v) in vals.iter_mut().enumerate() {
            let addr = self.aos + (first + i as u64) * STRUCT_BYTES + self.field * 8;
            let (x, d) = if self.streaming {
                ctx.load_stream_u64(addr, &[dep])
            } else {
                ctx.load_u64(addr, &[dep])
            };
            *v = x;
            deps.push(d);
        }
        let pack = ctx.alu(&deps);
        ctx.line_write_all_u64(&vals, &[pack]);
    }

    fn static_instrs(&self) -> u32 {
        18
    }
}

struct ScanProgram {
    /// Base of the column being scanned (AoS field or phantom SoA).
    base: Addr,
    /// Stride between consecutive elements' field words.
    stride: u64,
    elements: u64,
    passes: u64,
    i: u64,
    pass: u64,
    sum: u64,
}

impl ThreadProgram for ScanProgram {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        for _ in 0..16 {
            if self.i >= self.elements {
                self.i = 0;
                self.pass += 1;
            }
            if self.pass >= self.passes {
                return StepResult::Done;
            }
            let v = env.load_u64(self.base + self.i * self.stride);
            self.sum = self.sum.wrapping_add(v);
            env.compute(2);
            self.i += 1;
        }
        StepResult::Running
    }
}

/// Outcome of one run.
#[derive(Debug, Clone)]
pub struct SoaResult {
    /// Timing/energy/statistics.
    pub run: RunResult,
    /// The column checksum (must equal the host reference).
    pub sum: u64,
    /// The host reference checksum.
    pub expected: u64,
}

impl tako_sim::checkpoint::Record for SoaResult {
    fn record(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        self.run.record(w);
        w.put_u64(self.sum);
        w.put_u64(self.expected);
    }
    fn replay(
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<Self, tako_sim::checkpoint::SnapError> {
        Ok(SoaResult {
            run: RunResult::replay(r)?,
            sum: r.get_u64()?,
            expected: r.get_u64()?,
        })
    }
}

/// Run one variant.
pub fn run(variant: Variant, params: Params, cfg: &SystemConfig) -> SoaResult {
    let mut sys = TakoSystem::new(cfg.clone());
    let aos = sys.alloc_real(params.elements * STRUCT_BYTES).base;
    let mut expected = 0u64;
    for i in 0..params.elements {
        let v = field_value(params.seed, i);
        sys.data()
            .write_u64(aos + i * STRUCT_BYTES + params.field * 8, v);
        expected = expected.wrapping_add(v);
    }
    expected = expected.wrapping_mul(params.passes);

    let (base, stride) = match variant {
        Variant::Aos => (aos + params.field * 8, STRUCT_BYTES),
        Variant::Tako | Variant::TakoAllocating => {
            let h = sys
                .register_phantom(
                    MorphLevel::Shared,
                    params.elements * 8,
                    Box::new(SoaMorph {
                        aos,
                        field: params.field,
                        streaming: variant == Variant::Tako,
                    }),
                )
                .expect("register SoA morph");
            (h.range().base, 8)
        }
    };
    let mut prog = ScanProgram {
        base,
        stride,
        elements: params.elements,
        passes: params.passes,
        i: 0,
        pass: 0,
        sum: 0,
    };
    let max_steps = 10 * params.elements * params.passes + 10_000;
    let cycles = run_single(0, &mut prog, CoreTiming::new(cfg.core), &mut sys, max_steps);
    SoaResult {
        run: RunResult::collect(&sys, cycles),
        sum: prog.sum,
        expected,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Params {
        Params {
            elements: 16 * 1024, // AoS 1 MB, column 128 KB
            field: 5,
            passes: 6,
            seed: 3,
        }
    }

    /// AoS larger than the LLC, column smaller: the regime the Morph
    /// targets.
    fn pressure_cfg() -> SystemConfig {
        let mut cfg = SystemConfig::default_16core();
        cfg.llc_bank.size_bytes = 16 * 1024; // 256 KB LLC
        cfg
    }

    #[test]
    fn all_variants_compute_the_same_checksum() {
        for v in Variant::ALL {
            let r = run(v, small(), &pressure_cfg());
            assert_eq!(r.sum, r.expected, "{}", v.label());
        }
    }

    #[test]
    fn soa_morph_beats_aos_scans() {
        let p = small();
        let cfg = pressure_cfg();
        let aos = run(Variant::Aos, p, &cfg);
        let tako = run(Variant::Tako, p, &cfg);
        assert!(
            (tako.run.cycles as f64) < 0.6 * aos.run.cycles as f64,
            "tako {} vs aos {}",
            tako.run.cycles,
            aos.run.cycles
        );
        assert!(
            tako.run.dram_accesses() < aos.run.dram_accesses(),
            "tako {} vs aos {} DRAM",
            tako.run.dram_accesses(),
            aos.run.dram_accesses()
        );
    }

    #[test]
    fn trrip_pollution_avoidance_matters() {
        // Sec 5.2's claim: without distant-priority engine insertions,
        // callback traffic pollutes the shared cache and the benefit
        // shrinks. The config flag is the one switch; the allocating
        // gather is the program whose fills it acts on.
        let p = small();
        let cfg = pressure_cfg();
        let mut no_trrip = pressure_cfg();
        no_trrip.engine.trrip = false;
        let with = run(Variant::TakoAllocating, p, &cfg);
        let without = run(Variant::TakoAllocating, p, &no_trrip);
        assert!(
            with.run.cycles < without.run.cycles,
            "trrîp {} vs no-trrîp {}",
            with.run.cycles,
            without.run.cycles
        );
    }
}
