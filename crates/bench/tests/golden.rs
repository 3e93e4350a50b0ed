//! Golden-output regression pin for the full experiment suite, one
//! digest per experiment.
//!
//! Every harness runs at the same tiny scale the determinism suite uses,
//! and the SHA-256 of each experiment's output is pinned in [`GOLDEN`].
//! Any change to any byte of any experiment's output — a counter, a
//! latency, a formatting tweak — fails here loudly, and the failure
//! names every experiment that moved, so a re-bless says exactly which
//! rows changed.
//!
//! If a *deliberate* behavior or format change invalidates a digest,
//! re-capture it by running this test and copying the "actual" lines
//! from the failure message into [`GOLDEN`], and say why in the commit
//! message.

use tako_bench::campaign::{run_campaign, CampaignOpts};
use tako_bench::{run_all, ExperimentResult, Opts, EXPERIMENTS};
use tako_sim::digest::Sha256;

/// SHA-256 of each experiment's output at scale 0.01, seed 0x7AC0, in
/// table order: one `name digest` line per experiment.
const GOLDEN: &str = "\
fig06     accad7b7efceae33b17e2ff61b7d7de19c8a42a50bb5182687c867d4e1f04b7a
fig07     593989f0401af02ede05484b1846ad189668d3c219077b43bf0f2e028d348528
fig13     11220a2933bf5b3239f514e017aac4227e7a4c384bf05c48d1ff934ac6317f8c
fig14     a8fccdf6e879dd9e8880b1e0c30f4acc73852b61f0809bc3b341a71a6d288499
fig16     30d28438bd88f922b80e5fb74c61c4986147773f1d7ba51b54b814765489d322
fig17     4fa0d9c02a1f60684afbbae118ffd06bbc069d0cd1f78792c053cb62bd90c0c3
fig19     b38517fbf68ab166a66b638dcce6843bcccd59876633ebb1bb1f75da60b827bf
fig20     f05da322a33db089bfc9af64fe69c4ac0fc5de2fffb9d266a920e5a754faf43c
fig21     2e047e366c9b0fc8e06d08fd1065c5bed659e7027f9213969b6cb6582c41bbba
fig22     0b7a266f57891cad1812b5a21fd412d061fdc3d9e6e01221366f57eb12d331e8
fig23     acc3981fe94c0c7f18bcf24d344bc80df38c6bb17d3bbd710462931985c67f06
fig24     aed2b1747cc700173f6bae0764ef149f97af9bb5dce321f7af20253cdef9d78c
fig25     aa5cadb1b95693aba8d8ed7c7a06e3e4587186951898a7a750592a4683e410bf
table2    afccc6d4ac37bc33ff7497123b8059abed8e726064fafca399b31970906b4a08
sens_cb   034dd60911f11f96d5a8c156a8f7d597ae70e54874d727bf03aca9e11dbd9b6f
sens_rtlb 0f504090f1c7a5e27b85131bb9cd6e30f182d0e110b073206e23d72b2f92d349
ablations 65f7112017e0d883fc4de54d699f14c48f09847d9b6fbccd85fc74c162cfc808
";

fn tiny(jobs: usize) -> Opts {
    Opts {
        scale: 0.01,
        paper: false,
        seed: 0x7AC0,
        jobs,
    }
}

/// Compare every experiment's output digest against [`GOLDEN`]; on a
/// mismatch, panic naming each experiment that moved and printing the
/// full actual table.
fn assert_golden(what: &str, results: &[(&str, Result<ExperimentResult, String>)]) {
    let actual: Vec<(&str, String)> = results
        .iter()
        .map(|(name, r)| {
            let r = r
                .as_ref()
                .unwrap_or_else(|e| panic!("{what}: {name} failed: {e}"));
            let mut h = Sha256::new();
            h.update(r.output.as_bytes());
            (*name, h.finish_hex())
        })
        .collect();
    let want: Vec<(&str, String)> = GOLDEN
        .lines()
        .filter_map(|l| l.split_once(' '))
        .map(|(n, d)| (n, d.trim().to_string()))
        .collect();
    if actual != want {
        let moved: Vec<&str> = actual
            .iter()
            .filter(|a| !want.contains(a))
            .map(|(n, _)| *n)
            .collect();
        let table: String = actual
            .iter()
            .map(|(n, d)| format!("{n:<9} {d}\n"))
            .collect();
        panic!("{what}: output moved in {moved:?}; actual digests:\n{table}");
    }
}

#[test]
fn every_experiment_matches_its_golden_digest() {
    let results = run_all(tiny(1), EXPERIMENTS, None);
    assert_golden("run_all", &results);
}

/// The resume contract, pinned against the same table: a campaign
/// whose every experiment is crashed mid-run (after two journaled
/// units) and then resumed from its journals by a second invocation
/// must reproduce the golden output *exactly* — output rendered from
/// journaled runs and from recomputed ones is byte-identical to an
/// uninterrupted run's. The resume simulates only what no journal
/// holds, so every run is journaled exactly once.
#[test]
fn interrupted_and_resumed_campaign_matches_golden_digests() {
    let dir = std::env::temp_dir().join(format!("tako-golden-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = CampaignOpts::fresh(&dir);
    c.crash_after_units = Some(2);
    let crashed = run_campaign(tiny(2), &c, EXPERIMENTS).expect("crashed campaign");
    assert!(
        crashed.iter().any(|(_, r)| r.is_err()),
        "no experiment crashed"
    );
    let journaled = journaled_keys(&dir);
    assert!(
        !journaled.is_empty(),
        "the crashed campaign journaled nothing"
    );

    let mut c = CampaignOpts::fresh(&dir);
    c.resume = true;
    let out = run_campaign(tiny(2), &c, EXPERIMENTS).expect("resumed campaign");
    assert_golden("resumed campaign", &out);
    let mut keys = journaled_keys(&dir);
    let total = keys.len();
    keys.sort_unstable();
    keys.dedup();
    assert_eq!(
        keys.len(),
        total,
        "the resume simulated and journaled runs a journal already held"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The run key of every unit record in the `.units` journals in `dir`.
/// A journal is a 12-byte `UJH1` header (magic, campaign fingerprint)
/// followed by `UNT1` records: magic, 16-byte key, payload length,
/// payload, 8-byte checksum.
fn journaled_keys(dir: &std::path::Path) -> Vec<[u8; 16]> {
    let mut keys = Vec::new();
    for entry in std::fs::read_dir(dir).expect("journal dir") {
        let path = entry.expect("journal entry").path();
        if path.extension().is_none_or(|e| e != "units") {
            continue;
        }
        let buf = std::fs::read(&path).expect("unit journal");
        let mut at = 12;
        while at < buf.len() {
            keys.push(buf[at + 4..at + 20].try_into().unwrap());
            let len = u64::from_le_bytes(buf[at + 20..at + 28].try_into().unwrap());
            at += 28 + len as usize + 8;
        }
    }
    keys
}
