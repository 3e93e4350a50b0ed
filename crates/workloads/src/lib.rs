//! # tako-workloads — the paper's five case studies, with all baselines
//!
//! Each module implements one evaluation workload as simulated
//! `ThreadProgram`s plus the täkō Morphs it needs, alongside every
//! baseline the paper compares against:
//!
//! | Module | Paper section | Variants |
//! |---|---|---|
//! | [`decompress`] | Sec 3 (Figs 6–7) | software, software pre-compute, NDC, täkō |
//! | [`phi`] | Sec 8.1 (Figs 13–14, 24–25) | software, update batching, täkō/PHI |
//! | [`hats`] | Sec 8.2 (Figs 16–17, 22–23) | vertex-ordered, software BDFS, täkō/HATS |
//! | [`nvm`] | Sec 8.3 (Figs 19–20) | journaling, täkō |
//! | [`sidechannel`] | Sec 8.4 (Fig 21) | undefended baseline, täkō detector |
//! | [`soa`] | Sec 5.2 (trrîp) | AoS scan, täkō SoA Morph with non-temporal or allocating gathers |
//!
//! A variant names a program; machine choices are [`SystemConfig`]
//! settings. The figures' "ideal" rows run täkō on the idealized engine
//! ([`with_ideal_engine`]), and the trrîp ablation flips `engine.trrip`.
//!
//! [`SystemConfig`]: tako_sim::config::SystemConfig
//!
//! Every variant returns a [`RunResult`] with cycles, energy, and the
//! statistics snapshot the figures are drawn from, plus functional output
//! that the integration tests compare against a host-side reference.

pub mod common;
pub mod decompress;
pub mod hats;
pub mod nvm;
pub mod phi;
pub mod sidechannel;
pub mod soa;

pub use common::{with_ideal_engine, GraphLayout, RunResult};
