//! The determinism guarantee behind the `--jobs` fan-out: experiment
//! output must be byte-identical regardless of worker count, because
//! every simulation is seeded and isolated and results are collected in
//! input order.

use tako_bench::{run_all, Opts};

fn tiny_opts(jobs: usize) -> Opts {
    Opts {
        scale: 0.01, // seconds, not minutes
        paper: false,
        seed: 0x7AC0,
        jobs,
    }
}

#[test]
fn output_is_byte_identical_across_job_counts() {
    let serial = run_all(tiny_opts(1));
    let fanned = run_all(tiny_opts(8));
    assert_eq!(serial.len(), fanned.len());
    for (a, b) in serial.iter().zip(&fanned) {
        assert_eq!(a.name, b.name, "experiment order changed");
        assert_eq!(
            a.output, b.output,
            "{} output differs between --jobs 1 and --jobs 8",
            a.name
        );
    }
}

#[test]
fn seed_changes_output() {
    let a = run_all(tiny_opts(4));
    let b = run_all(Opts {
        seed: 0xDEAD,
        ..tiny_opts(4)
    });
    // Sanity check that the comparison above is not vacuous: a
    // different seed really changes at least one experiment's rows.
    assert!(
        a.iter().zip(&b).any(|(x, y)| x.output != y.output),
        "seed had no effect on any experiment"
    );
}
