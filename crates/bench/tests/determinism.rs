//! The determinism guarantee behind the `--jobs` fan-out: experiment
//! output must be byte-identical regardless of worker count, because
//! every simulation is seeded and isolated and results are collected in
//! input order.

use tako_bench::{run_all, Opts, EXPERIMENTS};

fn tiny_opts(jobs: usize) -> Opts {
    Opts {
        scale: 0.01, // seconds, not minutes
        paper: false,
        seed: 0x7AC0,
        jobs,
    }
}

/// Every experiment's name and output, in table order.
fn outputs(opts: Opts) -> Vec<(&'static str, String)> {
    run_all(opts, EXPERIMENTS, None)
        .into_iter()
        .map(|(name, r)| {
            (
                name,
                r.unwrap_or_else(|e| panic!("{name} failed: {e}")).output,
            )
        })
        .collect()
}

#[test]
fn output_is_byte_identical_across_job_counts() {
    let serial = outputs(tiny_opts(1));
    let fanned = outputs(tiny_opts(8));
    assert_eq!(serial.len(), fanned.len());
    for ((name, a), (other, b)) in serial.iter().zip(&fanned) {
        assert_eq!(name, other, "experiment order changed");
        assert_eq!(a, b, "{name} output differs between --jobs 1 and --jobs 8");
    }
}

#[test]
fn seed_changes_output() {
    let a = outputs(tiny_opts(4));
    let b = outputs(Opts {
        seed: 0xDEAD,
        ..tiny_opts(4)
    });
    // Sanity check that the comparison above is not vacuous: a
    // different seed really changes at least one experiment's rows.
    assert!(
        a.iter().zip(&b).any(|(x, y)| x.1 != y.1),
        "seed had no effect on any experiment"
    );
}
