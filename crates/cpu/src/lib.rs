//! # tako-cpu — core models and thread programs
//!
//! Execution-driven simulation needs real programs. A workload implements
//! [`ThreadProgram`]: each call to `step` performs one small unit of work
//! (one edge, one element, one transaction record) through a
//! [`CoreEnv`], which *functionally* reads and writes the simulated
//! memory while *timing* every operation on the core model:
//!
//! * [`timing::CoreTiming`] — the per-core clock: an out-of-order core
//!   overlaps loads through a bounded MLP window and retires compute at
//!   its issue width; an in-order core stalls on every load (Fig 24
//!   sweeps these models).
//! * [`predictor::BranchPredictor`] — a small gshare predictor; workloads
//!   report `(pc, taken)` and the core charges the misprediction penalty.
//!   Irregular traversal (software BDFS) mispredicts heavily, which is
//!   one of the effects HATS removes (Fig 17, middle).
//! * [`run_multicore`] — the interleaving runner: always steps the program
//!   whose core clock is furthest behind, so contention on shared LLC
//!   banks, DRAM controllers, and engines is causally consistent.
//!
//! The memory system itself is abstracted behind [`MemSystem`]; the full
//! täkō hierarchy in `tako-core` implements it.

pub mod env;
pub mod predictor;
pub mod timing;

pub use env::{AccessKind, CoreEnv, MemSystem, StepResult, ThreadProgram};
pub use predictor::BranchPredictor;
pub use timing::CoreTiming;

use tako_sim::{Cycle, TileId};

/// Drives a set of thread programs to completion on a shared memory
/// system, interleaving them by core-local time.
///
/// Returns the cycle at which the last program finished (including
/// draining its outstanding loads).
///
/// # Panics
///
/// Panics if `programs` is empty or if any program runs for more than
/// `max_steps` steps (runaway-loop protection).
pub fn run_multicore(
    programs: &mut [(TileId, &mut dyn ThreadProgram)],
    cores: &mut [CoreTiming],
    predictors: &mut [BranchPredictor],
    sys: &mut dyn MemSystem,
    max_steps: u64,
) -> Cycle {
    assert!(!programs.is_empty(), "need at least one program");
    assert_eq!(programs.len(), cores.len());
    assert_eq!(programs.len(), predictors.len());
    let n = programs.len();
    let mut done = vec![false; n];
    let mut finish = vec![0 as Cycle; n];
    let mut remaining = n;
    let mut steps = 0u64;
    while remaining > 0 {
        steps += 1;
        assert!(
            steps <= max_steps,
            "program exceeded {max_steps} steps; runaway loop?"
        );
        // Step the laggard: the unfinished program with the earliest clock.
        let i = (0..n)
            .filter(|&i| !done[i])
            .min_by_key(|&i| cores[i].now())
            .expect("some program unfinished");
        let (tile, ref mut prog) = programs[i];
        let mut env = CoreEnv::new(tile, &mut cores[i], &mut predictors[i], sys);
        if prog.step(&mut env) == StepResult::Done {
            done[i] = true;
            finish[i] = cores[i].drain();
            remaining -= 1;
        }
    }
    finish.into_iter().max().unwrap_or(0)
}

/// Convenience wrapper of [`run_multicore`] for a single program.
pub fn run_single(
    tile: TileId,
    prog: &mut dyn ThreadProgram,
    core: CoreTiming,
    sys: &mut dyn MemSystem,
    max_steps: u64,
) -> Cycle {
    let mut cores = [core];
    let mut preds = [BranchPredictor::new()];
    let mut programs: [(TileId, &mut dyn ThreadProgram); 1] = [(tile, prog)];
    run_multicore(&mut programs, &mut cores, &mut preds, sys, max_steps)
}
