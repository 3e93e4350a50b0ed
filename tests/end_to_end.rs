//! End-to-end integration tests spanning the whole workspace: Morph
//! registration through the facade, case-study functional equivalence,
//! and system-level invariants.

use tako::core::{EngineCtx, Morph, MorphLevel, TakoSystem};
use tako::cpu::{AccessKind, MemSystem};
use tako::graph::pagerank;
use tako::sim::config::{SystemConfig, LINE_BYTES};
use tako::sim::rng::Rng;
use tako::sim::stats::Counter;
use tako::workloads::{decompress, hats, nvm, phi, sidechannel, with_ideal_engine};

#[test]
fn facade_reexports_are_usable() {
    struct Nop;
    impl Morph for Nop {
        fn name(&self) -> &str {
            "nop"
        }
        fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
            let v = ctx.arg();
            ctx.line_fill_u64(7, &[v]);
        }
    }
    let mut sys = TakoSystem::new(SystemConfig::default_16core());
    let h = sys
        .register_phantom(MorphLevel::Shared, 4096, Box::new(Nop))
        .expect("register through facade");
    let (v, _) = sys.debug_read_u64(5, h.range().base, 0);
    assert_eq!(v, 7);
}

#[test]
fn a_morph_free_system_is_a_plain_multicore() {
    // täkō must add nothing to conventional loads and stores: the same
    // access sequence costs exactly the same cycles with and without the
    // (unused) täkō machinery exercised elsewhere in the address space.
    let run = |register: bool| -> (u64, u64) {
        struct Nop;
        impl Morph for Nop {
            fn name(&self) -> &str {
                "nop"
            }
        }
        let mut sys = TakoSystem::new(SystemConfig::default_16core());
        let data = sys.alloc_real(1 << 20);
        if register {
            sys.register_phantom(MorphLevel::Private, 4096, Box::new(Nop))
                .expect("register");
        }
        let mut t = 0;
        for i in 0..4096u64 {
            t = sys.timed_access(0, AccessKind::Read, data.base + (i * 192) % data.size, t);
        }
        (t, sys.stats_view().dram_accesses())
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn all_pagerank_implementations_agree() {
    // PHI and HATS (every variant, and täkō on the ideal engine) must
    // produce the exact ranks/sums of the host-side reference on the
    // same graph.
    let phi_params = phi::Params {
        vertices: 1024,
        edges: 8192,
        theta: 0.6,
        threads: 3,
        threshold: 3,
        seed: 99,
    };
    let mut rng = Rng::new(phi_params.seed);
    let g = tako::graph::gen::power_law(
        phi_params.vertices,
        phi_params.edges,
        phi_params.theta,
        &mut rng,
    );
    let init = vec![1.0 / phi_params.vertices as f64; phi_params.vertices];
    let reference = pagerank::iteration(&g, &init);
    let cfg = SystemConfig::default_16core();
    for (label, v, cfg) in with_ideal_engine(
        &phi::Variant::ALL,
        phi::Variant::label,
        phi::Variant::Tako,
        &cfg,
    ) {
        let r = phi::run_on_graph(v, &phi_params, &cfg, &g);
        assert!(
            pagerank::max_diff(&r.ranks, &reference) < 1e-9,
            "phi {label} diverged"
        );
    }

    let hats_params = hats::Params {
        vertices: 1024,
        edges: 8192,
        communities: 8,
        p_intra: 0.9,
        block: 16,
        depth_bound: 16,
        seed: 99,
    };
    let mut rng = Rng::new(hats_params.seed);
    let g2 = tako::graph::gen::community_blocked(
        hats_params.vertices,
        hats_params.edges,
        hats_params.communities,
        hats_params.p_intra,
        hats_params.block,
        &mut rng,
    );
    let init2 = vec![1.0 / hats_params.vertices as f64; hats_params.vertices];
    let ref2 = pagerank::iteration(&g2, &init2);
    let base = (1.0 - pagerank::DAMPING) / hats_params.vertices as f64;
    let expect: Vec<f64> = ref2.iter().map(|x| x - base).collect();
    for (label, v, cfg) in with_ideal_engine(
        &hats::Variant::ALL,
        hats::Variant::label,
        hats::Variant::Tako,
        &cfg,
    ) {
        let r = hats::run_on_graph(v, &hats_params, &cfg, &g2);
        assert!(
            pagerank::max_diff(&r.next, &expect) < 1e-9,
            "hats {label} diverged"
        );
    }
}

#[test]
fn decompression_and_nvm_functional_equivalence() {
    let cfg = SystemConfig::default_16core();
    let dp = decompress::Params {
        values: 1024,
        accesses: 2048,
        theta: 0.9,
        seed: 1,
    };
    for (label, v, cfg) in with_ideal_engine(
        &decompress::Variant::ALL,
        decompress::Variant::label,
        decompress::Variant::Tako,
        &cfg,
    ) {
        let r = decompress::run(v, dp, &cfg);
        assert!((r.average - r.expected).abs() < 1e-9, "{label}");
    }
    let np = nvm::Params {
        txn_bytes: 2048,
        txns: 4,
        seed: 2,
    };
    for (label, v, cfg) in with_ideal_engine(
        &nvm::Variant::ALL,
        nvm::Variant::label,
        nvm::Variant::Tako,
        &cfg,
    ) {
        assert!(nvm::run(v, np, &cfg).data_correct, "{label}");
    }
}

#[test]
fn tako_wins_where_the_paper_says_it_wins() {
    let cfg = SystemConfig::default_16core();
    // Decompression: täkō fastest, NDC hurts (Fig 6).
    let dp = decompress::Params {
        values: 4096,
        accesses: 8192,
        theta: 0.99,
        seed: 5,
    };
    let sw = decompress::run(decompress::Variant::Software, dp, &cfg);
    let tk = decompress::run(decompress::Variant::Tako, dp, &cfg);
    let ndc = decompress::run(decompress::Variant::Ndc, dp, &cfg);
    assert!(tk.run.cycles < sw.run.cycles, "täkō beats software");
    assert!(ndc.run.cycles > sw.run.cycles, "NDC hurts (Fig 6)");
    assert!(tk.run.energy_uj < sw.run.energy_uj, "täkō saves energy");

    // NVM: in-cache transactions beat journaling (Fig 19).
    let np = nvm::Params {
        txn_bytes: 8 * 1024,
        txns: 8,
        seed: 6,
    };
    let base = nvm::run(nvm::Variant::Journaling, np, &cfg);
    let tako = nvm::run(nvm::Variant::Tako, np, &cfg);
    assert!(tako.run.cycles * 3 < base.run.cycles * 2, "≥1.5x speedup");
    assert_eq!(tako.journal_writes, 0);
}

#[test]
fn sidechannel_defense_end_to_end() {
    let cfg = SystemConfig::default_16core();
    let params = sidechannel::Params {
        rounds: 48,
        ..sidechannel::Params::default()
    };
    let base = sidechannel::run(sidechannel::Variant::Baseline, params, &cfg);
    let tako = sidechannel::run(sidechannel::Variant::Tako, params, &cfg);
    assert!(base.attacker_accuracy() > 0.8, "attack works undefended");
    assert!(tako.interrupts > 0, "alarm fires");
    assert!(
        tako.rounds_leaked_before_detection() <= 3,
        "defense engages within the first rounds"
    );
}

#[test]
fn interleaved_morphs_do_not_interfere() {
    // Two Morph instances of different types registered simultaneously
    // (Sec 4.2) keep their semantics separate.
    struct Fill(u64);
    impl Morph for Fill {
        fn name(&self) -> &str {
            "fill"
        }
        fn on_miss(&mut self, ctx: &mut EngineCtx<'_>) {
            let v = ctx.arg();
            ctx.line_fill_u64(self.0, &[v]);
        }
    }
    let mut sys = TakoSystem::new(SystemConfig::default_16core());
    let a = sys
        .register_phantom(MorphLevel::Private, 64 * LINE_BYTES, Box::new(Fill(0xA)))
        .expect("a");
    let b = sys
        .register_phantom(MorphLevel::Shared, 64 * LINE_BYTES, Box::new(Fill(0xB)))
        .expect("b");
    let mut t = 0;
    for i in 0..64u64 {
        let (va, d1) = sys.debug_read_u64(1, a.range().base + i * LINE_BYTES, t);
        let (vb, d2) = sys.debug_read_u64(2, b.range().base + i * LINE_BYTES, d1);
        assert_eq!(va, 0xA);
        assert_eq!(vb, 0xB);
        t = d2;
    }
    assert_eq!(sys.stats_view().get(Counter::CbOnMiss), 128);
}
