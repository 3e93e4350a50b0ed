//! The paper's motivating example (Sec 3): a lossily-compressed data set
//! decompressed on demand by `onMiss`, with the caches memoizing the
//! decompressed lines. Compares all four implementations, and täkō on
//! the idealized engine.
//!
//! Run with: `cargo run --release --example compressed_array`

use tako::sim::config::SystemConfig;
use tako::workloads::decompress::{run, Params, Variant};
use tako::workloads::with_ideal_engine;

fn main() {
    let params = Params::default(); // 16 K values, 32 K Zipfian accesses
    let cfg = SystemConfig::default_16core();
    println!(
        "averaging {} compressed values over {} Zipfian accesses\n",
        params.values, params.accesses
    );

    let base = run(Variant::Software, params, &cfg);
    println!(
        "{:<12} {:>10} {:>9} {:>8} {:>14}",
        "variant", "cycles", "speedup", "energy", "decompressions"
    );
    for (label, v, cfg) in with_ideal_engine(&Variant::ALL, Variant::label, Variant::Tako, &cfg) {
        let r = run(v, params, &cfg);
        assert!(
            (r.average - r.expected).abs() < 1e-9,
            "every variant computes the same average"
        );
        println!(
            "{:<12} {:>10} {:>8.2}x {:>7.0}% {:>14}",
            label,
            r.run.cycles,
            base.run.cycles as f64 / r.run.cycles as f64,
            100.0 * r.run.energy_uj / base.run.energy_uj,
            r.decompressions,
        );
    }
    println!("\n(täkō memoizes decompressions in-cache: fewer decompressions,");
    println!(" lower energy; NDC recomputes on every access and loses.)");
}
