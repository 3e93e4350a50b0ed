//! PHI on täkō (Sec 8.1): one push-based PageRank iteration where the
//! shared cache becomes a write-combining buffer for commutative
//! scatter-updates. Prints the per-phase breakdown of Fig 14.
//!
//! Run with: `cargo run --release --example pagerank_phi`

use tako::graph::pagerank;
use tako::sim::config::SystemConfig;
use tako::sim::rng::Rng;
use tako::sim::stats::Counter;
use tako::workloads::phi::{run_on_graph, Params, Variant};
use tako::workloads::with_ideal_engine;

fn main() {
    let params = Params {
        vertices: 256 * 1024,
        edges: 1 << 20,
        theta: 0.6,
        threads: 16,
        threshold: 3,
        seed: 42,
    };
    // Preserve the paper's vertex-data : LLC ratio at this scale.
    let mut cfg = SystemConfig::default_16core();
    cfg.llc_bank.size_bytes = 64 * 1024;

    let mut rng = Rng::new(params.seed);
    let g = tako::graph::gen::power_law(params.vertices, params.edges, params.theta, &mut rng);
    let reference = {
        let init = vec![1.0 / params.vertices as f64; params.vertices];
        pagerank::iteration(&g, &init)
    };

    println!(
        "PageRank: {} vertices, {} edges, {} threads\n",
        params.vertices, params.edges, params.threads
    );
    println!(
        "{:<16} {:>10} {:>8}  {:>9} {:>9} {:>9}",
        "variant", "cycles", "speedup", "edge-DRAM", "bin-DRAM", "vtx-DRAM"
    );
    let base = run_on_graph(Variant::Software, &params, &cfg, &g);
    for (label, v, cfg) in with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg) {
        let r = run_on_graph(v, &params, &cfg, &g);
        let diff = pagerank::max_diff(&r.ranks, &reference);
        assert!(diff < 1e-9, "ranks must match the host reference");
        let ph = r.run.stats.phases();
        println!(
            "{:<16} {:>10} {:>7.2}x  {:>9} {:>9} {:>9}",
            label,
            r.run.cycles,
            base.run.cycles as f64 / r.run.cycles as f64,
            ph[0].dram_accesses,
            ph[1].dram_accesses,
            ph[2].dram_accesses,
        );
        if label == "tako" {
            println!(
                "{:<16} ({} updates applied in place, {} binned)",
                "",
                r.run.get(Counter::PhiInPlace),
                r.run.get(Counter::PhiBinned)
            );
        }
    }
}
