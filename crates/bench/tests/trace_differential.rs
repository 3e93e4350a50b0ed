//! Differential pin: observability is *strictly observational*.
//!
//! Runs the decompress, soa-ablation, and nvm harnesses with tracing
//! OFF and then ON (observer taps attached to every hierarchy, spans
//! recorded, epochs sampled) and requires the outputs byte-identical —
//! the SHA-256 of the concatenated outputs must not move by a single
//! byte when the observability layer is armed. The armed run must also
//! actually observe something, or the pin would pass vacuously.
//!
//! Runs as one `#[test]` because arming is process-global; the golden
//! digest suite lives in a separate test binary (its own process), so
//! arming here cannot leak into it.

use tako_bench::{experiments, Opts};
use tako_sim::digest::Sha256;
use tako_sim::trace::Stage;

type Harness = fn(Opts) -> String;

const HARNESSES: &[(&str, Harness)] = &[
    ("decompress", experiments::fig06_decompress),
    ("soa", experiments::ablations),
    ("nvm", experiments::fig19_nvm),
];

fn digest_all(opts: Opts) -> String {
    let mut h = Sha256::new();
    for (name, f) in HARNESSES {
        h.update(name.as_bytes());
        h.update(b"\n");
        h.update(f(opts).as_bytes());
        h.update(b"\n");
    }
    h.finish_hex()
}

#[test]
fn tracing_on_and_off_produce_identical_output() {
    let opts = Opts {
        scale: 0.02,
        paper: false,
        seed: 0x7AC0,
        jobs: 1,
    };

    let off = digest_all(opts);

    tako_sim::trace::arm();
    let on = digest_all(opts);
    tako_sim::trace::disarm();
    let report = tako_sim::trace::drain();

    assert_eq!(
        off, on,
        "simulation output changed when the observability layer was \
         armed; tracing must be strictly observational"
    );

    // The armed run must have genuinely traced, profiled, and sampled —
    // otherwise the byte-identity above proves nothing.
    assert!(report.systems > 0, "no system flushed an observer");
    assert!(!report.events.is_empty(), "no trace events collected");
    assert!(
        report.profile.txns() > 0,
        "no transactions profiled through StageStamps"
    );
    assert!(
        report.profile.cycles(Stage::L1) > 0,
        "no cycles attributed to the L1 stage"
    );
    assert!(
        report.miss_latency.count() > 0,
        "no miss latencies recorded"
    );
    let json = report.chrome_trace_json();
    assert!(json.contains("\"ph\":\"i\""), "chrome export has no events");
}
