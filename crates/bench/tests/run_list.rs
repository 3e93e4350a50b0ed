//! Run lists are scoped to one runner invocation. Within one, each
//! distinct simulation runs once; across invocations nothing is shared,
//! so every invocation simulates the same access total.
//!
//! One `#[test]`, in its own test binary, because the simulated-access
//! tally it reads is process-wide.

use tako_bench::{experiments, run_all, Opts, EXPERIMENTS};
use tako_sim::stats::simulated_accesses;

fn tiny() -> Opts {
    Opts {
        scale: 0.01,
        paper: false,
        seed: 0x7AC0,
        jobs: 2,
    }
}

/// Simulated accesses `f` adds to the process-wide tally.
fn accesses_of<T>(f: impl FnOnce() -> T) -> u64 {
    let before = simulated_accesses();
    f();
    simulated_accesses() - before
}

#[test]
fn every_invocation_simulates_the_same_access_total() {
    let all_ok = || {
        assert!(run_all(tiny(), EXPERIMENTS, None)
            .iter()
            .all(|(_, r)| r.is_ok()))
    };
    let first = accesses_of(all_ok);
    let second = accesses_of(all_ok);
    assert!(first > 0);
    assert_eq!(
        first, second,
        "a second run_all reused the first one's runs"
    );

    // A view called directly is its own invocation: it simulates its
    // producer's runs, exactly as many as the producer does.
    let fig13 = accesses_of(|| experiments::fig13_phi(tiny()));
    let fig14 = accesses_of(|| experiments::fig14_phi_dram(tiny()));
    assert!(fig13 > 0);
    assert_eq!(fig13, fig14);
}
