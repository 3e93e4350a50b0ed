//! The per-figure/table experiment harnesses.
//!
//! Each function regenerates one figure or table of the paper's
//! evaluation section, printing the same rows/series the paper reports.
//! DESIGN.md §4 maps experiments to modules; EXPERIMENTS.md records
//! paper-vs-measured outcomes.
//!
//! Variant sweeps fan out across `opts.jobs` workers via
//! [`run_variants`]: every simulation is an independent, seeded,
//! single-threaded `TakoSystem`, and results are collected in input
//! order, so the printed output does not depend on the job count.
//!
//! Every simulation goes through the runner invocation's run list
//! ([`run_once`]), which simulates each distinct run once and, under a
//! campaign, journals it. Several harnesses ask for the same runs:
//! Fig 7, Fig 14 and Fig 17 are views over the run lists of Fig 6,
//! Fig 13 and Fig 16; Fig 22 and Fig 23 share one vertex-ordered
//! baseline; Fig 22's 5x5 point, Fig 23's 1-cycle point, the 256-entry
//! rTLB point and the with-prefetch ablation are one HATS run; and
//! Fig 24's 3-wide point is Fig 25's 16-core, larger-graph point.

use tako_sim::config::{CoreConfig, EngineConfig, SystemConfig};
use tako_sim::stats::Counter;
use tako_workloads::{decompress, hats, nvm, phi, sidechannel, soa, with_ideal_engine, RunResult};

use crate::{fx, pct, row, run_once, run_variants, Opts};

/// One row of a speedup & energy figure: `run` relative to `base`.
fn baseline_relative(out: &mut String, label: &str, run: &RunResult, base: &RunResult) {
    out.push_str(&row(
        label,
        &[
            ("speedup", fx(run.speedup_over(base))),
            ("energy", pct(run.energy_ratio_to(base))),
            ("cycles", run.cycles.to_string()),
        ],
    ));
}

/// Run a figure's labelled rows ([`with_ideal_engine`]) through
/// [`run_variants`], pairing each result with its row label.
fn run_rows<V: Clone + Send, R: Send>(
    opts: Opts,
    rows: Vec<(&'static str, V, SystemConfig)>,
    f: impl Fn(V, &SystemConfig) -> R + Sync,
) -> Vec<(&'static str, R)> {
    let results = run_variants(opts, &rows, |(_, v, cfg)| f(v, &cfg));
    rows.iter().map(|row| row.0).zip(results).collect()
}

// ----------------------------------------------------------------------
// Fig 6 / Fig 7 — decompression
// ----------------------------------------------------------------------

/// Workload sizes of the decompression run list.
fn decompress_params(opts: Opts) -> decompress::Params {
    decompress::Params {
        values: if opts.paper {
            16 * 1024
        } else {
            opts.sized(16 * 1024) as u64
        },
        accesses: if opts.paper {
            32 * 1024
        } else {
            opts.sized(32 * 1024) as u64
        },
        theta: 0.99,
        seed: opts.seed,
    }
}

/// The decompression run list: every variant, in `Variant::ALL` order,
/// then täkō on the ideal engine. Fig 6 times it and Fig 7 counts its
/// decompressions.
fn decompress_runs(opts: Opts) -> Vec<(&'static str, decompress::DecompressResult)> {
    use decompress::Variant;
    let params = decompress_params(opts);
    let cfg = SystemConfig::default_16core();
    let rows = with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg);
    run_rows(opts, rows, |v, cfg| {
        run_once((v, params, cfg), || decompress::run(v, params, cfg))
    })
}

/// Fig 6: speedup and relative dynamic energy for the decompression
/// example, per variant. The paper reports täkō at 2.2x speedup / 61%
/// energy savings vs software, with NDC *hurting*.
pub fn fig06_decompress(opts: Opts) -> String {
    let mut out = String::from("# Fig 6: decompression — speedup & energy vs software baseline\n");
    let results = decompress_runs(opts);
    for (label, r) in &results {
        assert!((r.average - r.expected).abs() < 1e-9, "functional check");
        baseline_relative(&mut out, label, &r.run, &results[0].1.run); // ALL[0] = Software
    }
    out
}

/// Fig 7: number of decompressions per variant (a view over Fig 6's runs).
pub fn fig07_decompress_count(opts: Opts) -> String {
    let mut out = String::from("# Fig 7: number of decompressions\n");
    for (label, r) in decompress_runs(opts) {
        out.push_str(&row(
            label,
            &[("decompressions", r.decompressions.to_string())],
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Fig 13 / Fig 14 — PHI
// ----------------------------------------------------------------------

fn phi_params(opts: Opts) -> phi::Params {
    if opts.paper {
        phi::Params {
            vertices: 16 << 20,
            edges: 160 << 20,
            theta: 0.6,
            threads: 16,
            threshold: 3,
            seed: opts.seed,
        }
    } else {
        phi::Params {
            vertices: opts.sized(1 << 20),
            edges: opts.sized(4 << 20),
            theta: 0.6,
            threads: 16,
            threshold: 3,
            seed: opts.seed,
        }
    }
}

/// The PHI harnesses preserve the paper's vertex-data : LLC capacity
/// ratio when running scaled-down: at `--paper` sizes (128 MB vertex
/// data vs the 8 MB LLC) the default system is used; at bench sizes
/// (8 MB vertex data) the LLC is scaled to 2 MB.
fn phi_cfg_for(opts: Opts, vertices: usize, tiles: usize) -> SystemConfig {
    let mut cfg = SystemConfig::with_tiles(tiles);
    if !opts.paper {
        // Keep ~4:1 vertex-data : LLC capacity (the paper runs 16:1).
        let bank = (vertices as u64 * 8 / 4 / tiles as u64)
            .next_power_of_two()
            .clamp(16 * 1024, 512 * 1024);
        cfg.llc_bank.size_bytes = bank;
    }
    cfg
}

/// One PHI simulation through the run list, kept without its rank
/// vector.
fn phi_run(v: phi::Variant, params: &phi::Params, cfg: &SystemConfig) -> phi::PhiResult {
    run_once((v, params, cfg), || phi::PhiResult {
        ranks: Vec::new(),
        ..phi::run(v, params, cfg)
    })
}

/// The PHI run list: every variant, in `Variant::ALL` order, then PHI
/// on the ideal engine. Fig 13 times it and Fig 14 breaks down its DRAM
/// accesses.
fn phi_runs(opts: Opts) -> Vec<(&'static str, phi::PhiResult)> {
    use phi::Variant;
    let params = phi_params(opts);
    let cfg = phi_cfg_for(opts, params.vertices, 16);
    let rows = with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg);
    run_rows(opts, rows, |v, cfg| phi_run(v, &params, cfg))
}

/// Fig 13: PHI PageRank speedup & energy (paper: täkō 4.2x, UB 3.2x).
pub fn fig13_phi(opts: Opts) -> String {
    let mut out = String::from("# Fig 13: PHI PageRank — speedup & energy vs software baseline\n");
    let results = phi_runs(opts);
    for (label, r) in &results {
        baseline_relative(&mut out, label, &r.run, &results[0].1.run); // ALL[0] = Software
    }
    out
}

/// Fig 14: DRAM accesses per PageRank phase (edge/bin/vertex), a view
/// over Fig 13's runs.
pub fn fig14_phi_dram(opts: Opts) -> String {
    let mut out = String::from("# Fig 14: DRAM accesses per phase (edge/bin/vertex)\n");
    for (label, r) in phi_runs(opts) {
        let ph = r.run.stats.phases();
        out.push_str(&row(
            label,
            &[
                ("edge", ph[0].dram_accesses.to_string()),
                ("bin", ph[1].dram_accesses.to_string()),
                ("vertex", ph[2].dram_accesses.to_string()),
                ("total", r.run.dram_accesses().to_string()),
            ],
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Fig 16 / Fig 17 — HATS
// ----------------------------------------------------------------------

fn hats_params(opts: Opts) -> hats::Params {
    if opts.paper {
        // uk-2002 scale: 18.5 M vertices / 298 M edges (substituted by
        // the community generator; DESIGN.md §5).
        hats::Params {
            vertices: 18 << 20,
            edges: 256 << 20,
            communities: 16 * 1024,
            p_intra: 0.95,
            block: 16,
            depth_bound: 32,
            seed: opts.seed,
        }
    } else {
        hats::Params {
            vertices: opts.sized(512 * 1024),
            edges: opts.sized(4 << 20),
            communities: opts.sized(2048),
            p_intra: 0.95,
            block: 16,
            depth_bound: 32,
            seed: opts.seed,
        }
    }
}

/// The HATS sweeps run on a capacity-scaled system so the single-thread
/// working set exceeds the LLC as it does at paper scale.
fn hats_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::default_16core();
    cfg.llc_bank.size_bytes = 64 * 1024; // 1 MB LLC vs ~12 MB arrays
    cfg.l2.size_bytes = 64 * 1024;
    cfg
}

/// The small HATS input of the engine sweeps (Figs 22–23, the rTLB
/// sweep and the prefetch ablation).
fn hats_small_params(opts: Opts) -> hats::Params {
    hats::Params {
        vertices: opts.sized(128 * 1024),
        edges: opts.sized(1 << 20),
        communities: opts.sized(512),
        ..hats_params(opts)
    }
}

/// One HATS simulation through the run list, kept without its `next`
/// vector.
fn hats_run(v: hats::Variant, params: &hats::Params, cfg: &SystemConfig) -> hats::HatsResult {
    run_once((v, params, cfg), || hats::HatsResult {
        next: Vec::new(),
        ..hats::run(v, params, cfg)
    })
}

/// The HATS run list: every variant, in `Variant::ALL` order, then
/// HATS on the ideal engine. Fig 16 times it and Fig 17 breaks it down.
fn hats_runs(opts: Opts) -> Vec<(&'static str, hats::HatsResult)> {
    use hats::Variant;
    let params = hats_params(opts);
    let rows = with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &hats_cfg());
    run_rows(opts, rows, |v, cfg| hats_run(v, &params, cfg))
}

/// Fig 16: HATS speedup & energy (paper: täkō +43%, ideal +46%,
/// software BDFS ≈ baseline).
pub fn fig16_hats(opts: Opts) -> String {
    let mut out = String::from("# Fig 16: HATS PageRank — speedup & energy vs vertex-ordered\n");
    let results = hats_runs(opts);
    for (label, r) in &results {
        baseline_relative(&mut out, label, &r.run, &results[0].1.run); // ALL[0] = VertexOrdered
    }
    out
}

/// Fig 17: HATS breakdown — DRAM accesses, branch mispredictions per
/// edge, mean load latency — a view over Fig 16's runs.
pub fn fig17_hats_breakdown(opts: Opts) -> String {
    let mut out =
        String::from("# Fig 17: HATS breakdown (DRAM / mispredicts per edge / load latency)\n");
    for (label, r) in hats_runs(opts) {
        out.push_str(&row(
            label,
            &[
                ("dram", r.run.dram_accesses().to_string()),
                (
                    "mispredicts_per_edge",
                    format!("{:.3}", r.mispredicts_per_edge),
                ),
                ("mean_load_lat", format!("{:.1}", r.mean_load_latency)),
            ],
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Fig 19 / Fig 20 — NVM transactions
// ----------------------------------------------------------------------

/// One NVM simulation through the run list.
fn nvm_run(v: nvm::Variant, params: nvm::Params, cfg: &SystemConfig) -> nvm::NvmResult {
    run_once((v, params, cfg), || nvm::run(v, params, cfg))
}

/// Fig 19: NVM transaction speedup & energy vs transaction size
/// (paper: up to 2.1x under the L2 capacity, falling back beyond).
pub fn fig19_nvm(opts: Opts) -> String {
    let cfg = SystemConfig::default_16core();
    let sizes: [u64; 6] = [1, 4, 16, 32, 64, 128];
    let mut out =
        String::from("# Fig 19: NVM transactions — speedup & energy vs journaling, by txn size\n");
    // One worker item per transaction size (each runs its own baseline).
    let results = run_variants(opts, &sizes, |kb| {
        let params = nvm::Params {
            txn_bytes: kb * 1024,
            txns: (opts.sized(4 << 20) as u64 / (kb * 1024)).clamp(4, 256),
            seed: opts.seed,
        };
        let base = nvm_run(nvm::Variant::Journaling, params, &cfg);
        let tako = nvm_run(nvm::Variant::Tako, params, &cfg);
        (base, tako)
    });
    for (kb, (base, tako)) in sizes.iter().zip(&results) {
        assert!(base.data_correct && tako.data_correct);
        out.push_str(&row(
            &format!("{kb}KB"),
            &[
                (
                    "speedup",
                    fx(base.run.cycles as f64 / tako.run.cycles as f64),
                ),
                ("energy", pct(tako.run.energy_uj / base.run.energy_uj)),
                ("journal_writes", tako.journal_writes.to_string()),
            ],
        ));
    }
    out
}

/// Fig 20: instructions executed per 8 B written (core vs engine).
pub fn fig20_nvm_instrs(opts: Opts) -> String {
    use nvm::Variant;
    let cfg = SystemConfig::default_16core();
    let params = nvm::Params {
        txn_bytes: 16 * 1024,
        txns: opts.sized(64) as u64,
        seed: opts.seed,
    };
    let mut out = String::from("# Fig 20: instructions per 8 B written (16 KB txns)\n");
    let rows = with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg);
    for (label, r) in run_rows(opts, rows, |v, cfg| nvm_run(v, params, cfg)) {
        out.push_str(&row(
            label,
            &[
                ("core", format!("{:.2}", r.core_instrs_per_word)),
                ("engine", format!("{:.2}", r.engine_instrs_per_word)),
                (
                    "total",
                    format!("{:.2}", r.core_instrs_per_word + r.engine_instrs_per_word),
                ),
            ],
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Fig 21 — side channel
// ----------------------------------------------------------------------

/// Fig 21: prime+probe trace — the attack succeeds on the baseline and
/// is detected immediately with täkō.
pub fn fig21_sidechannel(opts: Opts) -> String {
    let cfg = SystemConfig::default_16core();
    let params = sidechannel::Params {
        rounds: opts.sized(64),
        ..sidechannel::Params::default()
    };
    let mut out = String::from("# Fig 21: prime+probe attack trace\n");
    let variants = [
        ("baseline", sidechannel::Variant::Baseline),
        ("tako", sidechannel::Variant::Tako),
    ];
    let results = run_variants(opts, &variants, |(_, v)| {
        run_once((v, params, &cfg), || sidechannel::run(v, params, &cfg))
    });
    for ((label, _), r) in variants.iter().zip(&results) {
        let trace: String = r
            .touched
            .iter()
            .zip(&r.inferred)
            .take(48)
            .map(|(&t, &i)| match (t, i) {
                (true, true) => 'X',   // access leaked
                (true, false) => 'o',  // access missed by attacker
                (false, true) => '!',  // false positive
                (false, false) => '.', // quiet
            })
            .collect();
        out.push_str(&row(
            label,
            &[
                ("accuracy", pct(r.attacker_accuracy())),
                (
                    "detected_at",
                    r.detected_at
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "-".into()),
                ),
                ("interrupts", r.interrupts.to_string()),
                ("trace", trace),
            ],
        ));
    }
    out.push_str("(X = secret access leaked, o = missed, ! = false positive, . = quiet)\n");
    out
}

// ----------------------------------------------------------------------
// Fig 22 / Fig 23 — engine microarchitecture sensitivity
// ----------------------------------------------------------------------

/// Cycles of the vertex-ordered baseline and of täkō with `engine` on
/// the small HATS input. The baseline does not depend on the engine, so
/// every Fig 22 and Fig 23 point shares one run of it.
fn hats_speedup_with_engine(opts: Opts, engine: EngineConfig) -> (u64, u64) {
    let params = hats_small_params(opts);
    let mut cfg = hats_cfg();
    let base = hats_run(hats::Variant::VertexOrdered, &params, &cfg);
    cfg.engine = engine;
    let tako = hats_run(hats::Variant::Tako, &params, &cfg);
    (base.run.cycles, tako.run.cycles)
}

/// Fig 22: HATS sensitivity to the fabric size (3x3 … 7x7, in-order
/// core, ideal). Paper: dataflow vastly outperforms in-order; 5x5 is
/// within 1.8% of ideal.
pub fn fig22_fabric_size(opts: Opts) -> String {
    let mut out = String::from("# Fig 22: HATS speedup vs engine fabric size\n");
    let mut configs: Vec<(String, EngineConfig)> =
        vec![("in-order".into(), EngineConfig::in_order_core())];
    for dim in [3u32, 4, 5, 6, 7] {
        configs.push((format!("{dim}x{dim}"), EngineConfig::square(dim)));
    }
    configs.push(("ideal".into(), EngineConfig::ideal()));
    let results = run_variants(opts, &configs, |(_, engine)| {
        hats_speedup_with_engine(opts, engine)
    });
    for ((label, _), (base, tako)) in configs.iter().zip(&results) {
        out.push_str(&row(label, &[("speedup", fx(*base as f64 / *tako as f64))]));
    }
    out
}

/// Fig 23: HATS sensitivity to PE latency (1–8 cycles). Paper: even at
/// 8 cycles, speedup only drops ~30% — MLP, not arithmetic, dominates.
pub fn fig23_pe_latency(opts: Opts) -> String {
    let mut out = String::from("# Fig 23: HATS speedup vs PE latency\n");
    let lats: [u64; 4] = [1, 2, 4, 8];
    let results = run_variants(opts, &lats, |lat| {
        let mut engine = EngineConfig::default_5x5();
        engine.pe_latency = lat;
        hats_speedup_with_engine(opts, engine)
    });
    for (lat, (base, tako)) in lats.iter().zip(&results) {
        out.push_str(&row(
            &format!("{lat}-cycle"),
            &[("speedup", fx(*base as f64 / *tako as f64))],
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Fig 24 / Fig 25 — core microarchitecture & scalability
// ----------------------------------------------------------------------

/// Fig 24: PHI speedup across core microarchitectures (paper: memory-
/// bound PageRank is insensitive to the core).
pub fn fig24_core_uarch(opts: Opts) -> String {
    let mut params = phi_params(opts);
    params.vertices = opts.sized(512 * 1024);
    params.edges = opts.sized(2 << 20);
    let mut out = String::from("# Fig 24: PHI speedup across core microarchitectures\n");
    let uarchs = [
        ("in-order", CoreConfig::in_order()),
        ("2-wide-ooo", CoreConfig::small_ooo()),
        ("3-wide-ooo", CoreConfig::goldmont()),
    ];
    let results = run_variants(opts, &uarchs, |(_, core)| {
        let mut cfg = SystemConfig::default_16core();
        cfg.core = core;
        let base = phi_run(phi::Variant::Software, &params, &cfg);
        let tako = phi_run(phi::Variant::Tako, &params, &cfg);
        (base.run.cycles, tako.run.cycles)
    });
    for ((label, _), (base, tako)) in uarchs.iter().zip(&results) {
        out.push_str(&row(
            label,
            &[
                ("speedup", fx(*base as f64 / *tako as f64)),
                ("base_cycles", base.to_string()),
                ("tako_cycles", tako.to_string()),
            ],
        ));
    }
    out
}

/// Fig 25: PHI scalability across core counts and graph sizes (paper:
/// täkō outperforms update batching by ~34%/32%/21% at 8/16/36 cores).
pub fn fig25_scalability(opts: Opts) -> String {
    let mut out =
        String::from("# Fig 25: PHI speedup vs update batching across cores & graph sizes\n");
    let mut points: Vec<(usize, usize)> = Vec::new();
    for &tiles in &[8usize, 16, 36] {
        for &scale in &[1usize, 2] {
            points.push((tiles, scale));
        }
    }
    let results = run_variants(opts, &points, |(tiles, scale)| {
        let params = phi::Params {
            vertices: opts.sized(256 * 1024 * scale),
            edges: opts.sized((1 << 20) * scale),
            theta: 0.6,
            threads: tiles,
            threshold: 3,
            seed: opts.seed,
        };
        let cfg = SystemConfig::with_tiles(tiles);
        let sw = phi_run(phi::Variant::Software, &params, &cfg);
        let ub = phi_run(phi::Variant::UpdateBatching, &params, &cfg);
        let tako = phi_run(phi::Variant::Tako, &params, &cfg);
        (
            params.edges,
            sw.run.cycles as f64 / tako.run.cycles as f64,
            ub.run.cycles as f64 / tako.run.cycles as f64,
        )
    });
    for ((tiles, _), (edges, vs_sw, vs_ub)) in points.iter().zip(&results) {
        out.push_str(&row(
            &format!("{tiles}c/{}Ke", edges >> 10),
            &[("tako_vs_sw", fx(*vs_sw)), ("tako_vs_ub", fx(*vs_ub))],
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Table 2 and Sec 9 sweeps
// ----------------------------------------------------------------------

/// Table 2: hardware overhead per LLC bank.
pub fn table2_overhead(_opts: Opts) -> String {
    let report = tako_core::overhead::OverheadReport::for_config(&SystemConfig::default_16core());
    format!(
        "# Table 2: hardware overhead per LLC bank\n{}",
        report.table()
    )
}

/// Sec 9: callback-buffer size sweep on the NVM flush storm (paper:
/// plateaus at 4 entries; 8 used).
pub fn sens_callback_buffer(opts: Opts) -> String {
    let mut out = String::from("# Sec 9: NVM speedup vs callback-buffer size\n");
    let params = nvm::Params {
        txn_bytes: 16 * 1024,
        txns: opts.sized(32) as u64,
        seed: opts.seed,
    };
    let base = nvm_run(
        nvm::Variant::Journaling,
        params,
        &SystemConfig::default_16core(),
    );
    let entries: [u32; 6] = [1, 2, 4, 8, 16, 64];
    let results = run_variants(opts, &entries, |n| {
        let mut cfg = SystemConfig::default_16core();
        cfg.engine.callback_buffer = n;
        nvm_run(nvm::Variant::Tako, params, &cfg)
    });
    for (n, r) in entries.iter().zip(&results) {
        out.push_str(&row(
            &format!("{n}-entry"),
            &[("speedup", fx(base.run.cycles as f64 / r.run.cycles as f64))],
        ));
    }
    out
}

/// Sec 9: rTLB size sweep on HATS (paper: ≤2.1% variation).
pub fn sens_rtlb(opts: Opts) -> String {
    let mut out = String::from("# Sec 9: HATS cycles vs rTLB entries\n");
    let params = hats_small_params(opts);
    let entries: [u32; 3] = [64, 256, 1024];
    let results = run_variants(opts, &entries, |n| {
        let mut cfg = hats_cfg();
        cfg.engine.rtlb_entries = n;
        hats_run(hats::Variant::Tako, &params, &cfg)
    });
    let reference = results[0].run.cycles;
    for (n, r) in entries.iter().zip(&results) {
        out.push_str(&row(
            &format!("{n}-entry"),
            &[
                ("cycles", r.run.cycles.to_string()),
                ("vs_64", pct(r.run.cycles as f64 / reference as f64 - 1.0)),
                (
                    "rtlb_miss_rate",
                    pct(r.run.get(Counter::RtlbMiss) as f64
                        / (r.run.get(Counter::RtlbMiss) + r.run.get(Counter::RtlbHit)).max(1)
                            as f64),
                ),
            ],
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Ablations of design choices (DESIGN.md §7)
// ----------------------------------------------------------------------

/// Ablations: (1) trrîp's distant-priority engine accesses on the
/// AoS→SoA Morph (Sec 5.2 claims >4x from pollution avoidance), with
/// the allocating gather whose shared-cache fills trrîp acts on;
/// (2) HATS without the stride prefetcher (no decoupling — the core
/// waits for every onMiss).
pub fn ablations(opts: Opts) -> String {
    let mut out = String::from("# Ablations\n");

    // --- trrîp on AoS -> SoA ---
    out.push_str("## trrîp distant-priority engine accesses (AoS->SoA)\n");
    let sp = soa::Params {
        elements: opts.sized(256 * 1024) as u64, // AoS 16 MB vs 8 MB LLC
        field: 2,
        passes: 8,
        seed: opts.seed,
    };
    let cfg = SystemConfig::default_16core();
    let mut no_trrip_cfg = cfg.clone();
    no_trrip_cfg.engine.trrip = false;
    let soa_points = [
        ("aos-baseline", soa::Variant::Aos, false),
        ("tako-trrip", soa::Variant::TakoAllocating, false),
        ("tako-no-trrip", soa::Variant::TakoAllocating, true),
    ];
    let soa_results = run_variants(opts, &soa_points, |(_, v, no_trrip)| {
        let c = if no_trrip { &no_trrip_cfg } else { &cfg };
        run_once((v, sp, c), || soa::run(v, sp, c))
    });
    let aos_cycles = soa_results[0].run.cycles;
    for ((label, _, _), r) in soa_points.iter().zip(&soa_results) {
        assert_eq!(r.sum, r.expected);
        out.push_str(&row(
            label,
            &[
                ("speedup", fx(aos_cycles as f64 / r.run.cycles as f64)),
                ("dram", r.run.dram_accesses().to_string()),
            ],
        ));
    }

    // --- HATS decoupling via the prefetcher ---
    out.push_str("## HATS decoupling (prefetch-triggered onMiss)\n");
    let hp = hats_small_params(opts);
    let cfg = hats_cfg();
    let coupled_cfg = {
        let mut c = cfg.clone();
        c.prefetch.enabled = false;
        c
    };
    let hats_results = run_variants(opts, &[false, true], |coupled| {
        let c = if coupled { &coupled_cfg } else { &cfg };
        hats_run(hats::Variant::Tako, &hp, c)
    });
    let (tako, coupled) = (&hats_results[0], &hats_results[1]);
    out.push_str(&row(
        "with-prefetch",
        &[("cycles", tako.run.cycles.to_string())],
    ));
    out.push_str(&row(
        "no-prefetch",
        &[
            ("cycles", coupled.run.cycles.to_string()),
            (
                "slowdown",
                fx(coupled.run.cycles as f64 / tako.run.cycles as f64),
            ),
        ],
    ));
    out
}
