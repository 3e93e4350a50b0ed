//! Golden-output regression pin for the full experiment suite.
//!
//! The staged transaction pipeline (and any future hierarchy work) is
//! required to be *byte-identical* to the pre-refactor simulator: the
//! walks were restructured, not retimed. This test runs every harness at
//! the same tiny scale the determinism suite uses and pins the SHA-256
//! of the concatenated outputs to the digest captured on the monolithic
//! hierarchy. Any change to any byte of any experiment's output — a
//! counter, a latency, a formatting tweak — fails here loudly.
//!
//! If a *deliberate* behavior or format change invalidates the digest,
//! re-capture it by running this test and copying the "actual" digest
//! from the failure message into `GOLDEN_SHA256`, and say why in the
//! commit message.

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::{run_all, Opts, EXPERIMENTS};
use tako_sim::digest::Sha256;

/// SHA-256 of the concatenated `name` + `output` of every experiment at
/// scale 0.01, seed 0x7AC0. Re-captured after the protocol checker
/// exposed two coherence holes whose fixes deliberately change timing:
/// a second sharer now downgrades a clean-exclusive private copy
/// (E -> S), and SHARED-Morph phantom lines lost their
/// always-exclusive exception, so writes to shared phantom lines pay
/// the same upgrade traffic as real lines.
const GOLDEN_SHA256: &str = "5f9a31a9fd7285b413baa361af5bf035a5a50ffb336fa77b3f545bb03cf61b65";

#[test]
fn all_experiments_match_golden_digest() {
    let results = run_all(
        Opts {
            scale: 0.01,
            paper: false,
            seed: 0x7AC0,
            jobs: 1,
        },
        EXPERIMENTS,
        None,
    );
    assert!(!results.is_empty(), "experiment table is empty");
    let mut h = Sha256::new();
    for (name, r) in &results {
        let r = r.as_ref().unwrap_or_else(|e| panic!("{name} failed: {e}"));
        h.update(name.as_bytes());
        h.update(b"\n");
        h.update(r.output.as_bytes());
        h.update(b"\n");
    }
    let actual = h.finish_hex();
    assert_eq!(
        actual, GOLDEN_SHA256,
        "experiment output diverged from the golden capture \
         (actual digest: {actual})"
    );
}

/// The resume contract, pinned against the same digest: a campaign
/// whose every experiment is crashed mid-run (after two journaled
/// units) and then resumed must reproduce the golden output *exactly* —
/// replayed units, recomputed tails, and replayed `.done` records are
/// all byte-identical to an uninterrupted run.
#[test]
fn interrupted_and_resumed_campaign_matches_golden_digest() {
    let dir = std::env::temp_dir().join(format!("tako-golden-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = Opts {
        scale: 0.01,
        paper: false,
        seed: 0x7AC0,
        jobs: 2,
    };
    let mut c = CampaignOpts::fresh(&dir);
    c.crash_after_units = Some(2);
    c.retries = 1;
    let out = run_campaign(opts, &c, EXPERIMENTS).expect("campaign");
    let mut h = Sha256::new();
    for (name, r) in &out.results {
        let r = r
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} failed after retry: {e}"));
        h.update(name.as_bytes());
        h.update(b"\n");
        h.update(r.output.as_bytes());
        h.update(b"\n");
    }
    let actual = h.finish_hex();
    assert_eq!(
        actual, GOLDEN_SHA256,
        "resumed campaign output diverged from the golden capture \
         (actual digest: {actual})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
