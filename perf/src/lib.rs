//! # tako-perf — the simulator's host-time benchmark
//!
//! Drives the simulator only through its public entry points and times
//! those calls from outside: four workloads (`phi`, `hats`, `nvm`, `soa`)
//! that load different layers of the hierarchy, end-to-end host metrics
//! (`wall_s`, `sim_accesses_per_s`, `setup_s`, `peak_rss_mib`), exact
//! per-layer counts, and — in a traced run — spans, self times and layer
//! probes. README.md maps each layer metric to the end-to-end metric and
//! workload it should move.
//!
//! * [`workload`] — inputs from the seed, units, host references, checks;
//! * [`run`] — set-up, the closed measurement loop and the report;
//! * [`probes`] — one layer's public function timed in isolation;
//! * [`span`] — in-memory spans, self times, Chrome trace export;
//! * [`diff`] — base-vs-candidate comparison with verdicts;
//! * [`json`], [`stat`] — std-only JSON and Python-compatible quartiles.

pub mod diff;
pub mod json;
pub mod probes;
pub mod run;
pub mod span;
pub mod stat;
pub mod workload;
