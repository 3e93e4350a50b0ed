//! Seeded fault-injection campaigns over three case studies.
//!
//! Each campaign takes a täkō case study (decompression, SoA layout,
//! NVM transactions), measures a clean run, then replays it under a
//! deterministic [`FaultPlan`] — callback overruns, illegal callback
//! actions, fabric exhaustion, MSHR pressure, delayed DRAM responses —
//! and asserts the robustness contract:
//!
//! * the run completes with **zero invariant violations**,
//! * misbehaving callbacks are quarantined (their range degrades to
//!   baseline behavior instead of wedging the machine),
//! * every injected stall is detected by the watchdog within
//!   `magnitude + stall bound` cycles, with a diagnostic snapshot
//!   instead of a hang,
//! * with injection disabled, output is byte-identical to a run without
//!   the robustness machinery (noninterference).
//!
//! Flags beyond the shared [`Opts`] set:
//!
//! ```text
//! --scenarios <n>        seeded scenarios per case study (default 8)
//! --watchdog-cycles <n>  forward-progress stall bound (default 200000)
//! --faults seed:kind[:count]  replace the seeded set with one ad-hoc
//!                        plan (kinds: overrun illegal fabric mshr dram mix)
//! ```
//!
//! A missing or malformed value, or an unknown argument, exits 2 before
//! anything runs.

use tako_bench::{exit_error, flag_value_or_exit as value, run_variants, Opts, OPTS_FLAGS};
use tako_core::TakoSystem;
use tako_cpu::{
    run_multicore, AccessKind, BranchPredictor, CoreEnv, CoreTiming, MemSystem, StepResult,
    ThreadProgram,
};
use tako_sim::checkpoint::encode;
use tako_sim::config::{SystemConfig, WatchdogConfig};
use tako_sim::fault::{FaultKind, FaultPlan};
use tako_sim::rng::Rng;
use tako_sim::stats::Counter;
use tako_workloads::common::RunResult;
use tako_workloads::{decompress, nvm, soa};

/// One case study: a name and a runner producing timing + stats for the
/// täkō variant under an arbitrary system configuration.
struct CaseStudy {
    name: &'static str,
    run: fn(&SystemConfig, &Opts) -> RunResult,
}

fn run_decompress(cfg: &SystemConfig, opts: &Opts) -> RunResult {
    let p = decompress::Params {
        values: opts.sized(4096) as u64,
        accesses: opts.sized(8192) as u64,
        seed: opts.seed,
        ..Default::default()
    };
    decompress::run(decompress::Variant::Tako, p, cfg).run
}

fn run_soa(cfg: &SystemConfig, opts: &Opts) -> RunResult {
    let p = soa::Params {
        elements: opts.sized(16 * 1024) as u64,
        passes: 2,
        seed: opts.seed,
        ..Default::default()
    };
    soa::run(soa::Variant::Tako, p, cfg).run
}

fn run_nvm(cfg: &SystemConfig, opts: &Opts) -> RunResult {
    let p = nvm::Params {
        txn_bytes: 4096,
        txns: opts.sized(8) as u64,
        seed: opts.seed,
    };
    nvm::run(nvm::Variant::Tako, p, cfg).run
}

const CASE_STUDIES: &[CaseStudy] = &[
    CaseStudy {
        name: "decompress",
        run: run_decompress,
    },
    CaseStudy {
        name: "soa",
        run: run_soa,
    },
    CaseStudy {
        name: "nvm",
        run: run_nvm,
    },
];

/// Scenario rotation: each single kind, then a mixed plan.
const ROTATION: &[Option<FaultKind>] = &[
    Some(FaultKind::CallbackOverrun),
    Some(FaultKind::IllegalAction),
    Some(FaultKind::FabricExhaustion),
    Some(FaultKind::MshrPressure),
    Some(FaultKind::DelayedDram),
    None, // mix of all kinds
];

struct CampaignFlags {
    scenarios: usize,
    watchdog_cycles: u64,
    adhoc: Option<FaultPlan>,
}

/// Parse the campaign's own flags out of the arguments [`Opts`] left
/// over; a missing or malformed value exits 2 before anything runs.
fn parse_campaign_flags(unknown: Vec<String>) -> CampaignFlags {
    let mut flags = CampaignFlags {
        scenarios: 8,
        watchdog_cycles: WatchdogConfig::default().stall_cycles,
        adhoc: None,
    };
    let mut i = 0;
    while i < unknown.len() {
        match unknown[i].as_str() {
            "--scenarios" => flags.scenarios = value(&unknown, &mut i),
            "--watchdog-cycles" => flags.watchdog_cycles = value::<u64>(&unknown, &mut i).max(1),
            "--faults" => {
                let spec: String = value(&unknown, &mut i);
                flags.adhoc = Some(FaultPlan::parse(&spec).unwrap_or_else(|e| exit_error(&e)));
            }
            other => exit_error(&format!(
                "unknown argument `{other}` (known: {OPTS_FLAGS}, --scenarios <n>, \
                 --watchdog-cycles <n>, --faults <seed:kind[:count]>)"
            )),
        }
        i += 1;
    }
    flags
}

/// The base configuration for campaign runs.
fn base_cfg(watchdog_cycles: u64) -> SystemConfig {
    let mut cfg = SystemConfig::default_16core();
    cfg.watchdog.enabled = true;
    cfg.watchdog.stall_cycles = watchdog_cycles;
    cfg
}

/// Force magnitudes that make the contract checkable regardless of the
/// configured bound: DRAM delays must exceed the stall bound to be
/// detectable, and MSHR spikes must overflow a 16-entry file to force
/// the stall path. Then anchor the earliest event of each kind at
/// cycle 1: the case studies cache their working sets within a few
/// hundred cycles, so a point drawn deep in the window can land after
/// the last pollable miss and never fire. A poll fires the first due
/// event *at or after* its cycle, so the anchor guarantees every plan
/// fires while the remaining events exercise mid-run cycle points.
fn arm(plan: &mut FaultPlan, watchdog_cycles: u64) {
    for e in &mut plan.events {
        match e.kind {
            FaultKind::DelayedDram => e.magnitude = 2 * watchdog_cycles,
            FaultKind::MshrPressure => e.magnitude = 64,
            _ => {}
        }
    }
    for kind in FaultKind::ALL {
        if let Some(e) = plan
            .events
            .iter_mut()
            .filter(|e| e.kind == kind)
            .min_by_key(|e| e.at)
        {
            e.at = 1;
        }
    }
}

/// The outcome of one faulted scenario, with its contract verdicts.
struct Verdict {
    label: String,
    problems: Vec<String>,
}

fn check_scenario(
    case: &CaseStudy,
    idx: usize,
    kind: Option<FaultKind>,
    plan: &FaultPlan,
    clean: &RunResult,
    r: &RunResult,
    watchdog_cycles: u64,
) -> Verdict {
    let kind_name = kind.map_or("mix", |k| k.name());
    let mut problems = Vec::new();
    let fired = r.get(Counter::FaultInjected);
    let viol = r.get(Counter::InvariantViolation);
    let quarantined = r.get(Counter::MorphQuarantined);
    let stalls = r.get(Counter::WatchdogStallEvents);
    if viol != 0 {
        problems.push(format!("{viol} invariant violations"));
    }
    if fired == 0 {
        problems.push("no fault fired (window missed the run)".into());
    }
    match kind {
        Some(FaultKind::CallbackOverrun)
        | Some(FaultKind::IllegalAction)
        | Some(FaultKind::FabricExhaustion) => {
            if fired > 0 && quarantined == 0 {
                problems.push("callback fault not quarantined".into());
            }
            if kind == Some(FaultKind::IllegalAction)
                && fired > 0
                && r.get(Counter::CbIllegalOp) == 0
            {
                problems.push("illegal op not recorded".into());
            }
        }
        Some(FaultKind::MshrPressure) if fired > 0 && r.get(Counter::MshrStall) == 0 => {
            problems.push("pressure spike caused no MSHR stall".into());
        }
        Some(FaultKind::DelayedDram) if fired > 0 => {
            if stalls == 0 {
                problems.push("injected stall not detected".into());
            } else {
                // Detection bound: observed latency is the delay on
                // top of a base latency that is itself under the
                // bound (the clean run has no stalls).
                let max = r.stats.stall_detection.max();
                let magnitude = 2 * watchdog_cycles;
                if max > magnitude + watchdog_cycles {
                    problems.push(format!(
                        "stall detected at latency {max}, past the \
                         {magnitude}+{watchdog_cycles} bound"
                    ));
                }
            }
        }
        _ => {}
    }
    let label = format!(
        "{:<11} s{idx:02} kind={kind_name:<7} events={} fired={fired} \
         quarantined={quarantined} mshr_stalls={} wd_stalls={stalls} \
         violations={viol} cycles={} (clean {})",
        case.name,
        plan.events.len(),
        r.get(Counter::MshrStall),
        r.cycles,
        clean.cycles,
    );
    Verdict { label, problems }
}

/// Checkpoint-under-fault: snapshot a seeded run while `kind`'s fault
/// plan is live (one event consumed, one pending), resume it in a fresh
/// system, and require the final canonical snapshot bytes to match the
/// uninterrupted run exactly — the injector cursor, the degraded state
/// the fault left behind, and every counter must survive the round
/// trip.
fn checkpoint_under_fault(kind: FaultKind, opts: &Opts, watchdog_cycles: u64) -> bool {
    let mut cfg = base_cfg(watchdog_cycles);
    cfg.watchdog.epoch_cycles = 5_000;
    let mut plan = FaultPlan::seeded(opts.seed ^ kind as u64, &[kind], 2, 1, 20_000);
    arm(&mut plan, watchdog_cycles);
    cfg.faults = Some(plan);

    fn drive(sys: &mut TakoSystem, rng: &mut Rng, t: u64) -> u64 {
        let tile = rng.below(16) as usize;
        let off = rng.below(1 << 12) * 8;
        let ak = if rng.below(4) == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        sys.timed_access(tile, ak, 0x1000_0000 + off, t)
    }

    let (total, split) = (800, 400);
    let mut sys = TakoSystem::new(cfg.clone());
    let _ = sys.alloc_real(1 << 18);
    let mut rng = Rng::new(opts.seed ^ 0xCC);
    let (mut t, mut mid, mut mid_rng, mut mid_t) = (0u64, Vec::new(), rng.clone(), 0u64);
    for i in 0..total {
        if i == split {
            mid = sys.snapshot_bytes();
            mid_rng = rng.clone();
            mid_t = t;
        }
        t = drive(&mut sys, &mut rng, t);
    }
    let reference = encode(&sys);

    let mut sys2 = TakoSystem::new(cfg);
    let _ = sys2.alloc_real(1 << 18);
    if sys2.restore_bytes(&mid).is_err() {
        return false;
    }
    let (mut rng2, mut t2) = (mid_rng, mid_t);
    for _ in split..total {
        t2 = drive(&mut sys2, &mut rng2, t2);
    }
    t2 == t && encode(&sys2) == reference
}

/// A minimal thread program: a read-modify-write stride walk over a
/// private slice of a real range, one per tile, so sixteen of them
/// drive the multicore interleaver across watchdog epochs.
struct StrideWalker {
    base: u64,
    i: u64,
    n: u64,
}

impl ThreadProgram for StrideWalker {
    fn step(&mut self, env: &mut CoreEnv<'_>) -> StepResult {
        if self.i >= self.n {
            return StepResult::Done;
        }
        let a = self.base + (self.i % (1 << 9)) * 8;
        let v = env.load_u64(a);
        env.store_u64(a, v.wrapping_add(1));
        env.compute(2);
        self.i += 1;
        if self.i >= self.n {
            StepResult::Done
        } else {
            StepResult::Running
        }
    }
}

/// Checkpoint-under-multicore: snapshot a system between two
/// 16-program interleaved runs, resume in a fresh system, replay the
/// second run, and require
/// byte-identical final snapshots plus identical finish cycles. Pins
/// that the SoA tag-array state the interleaver mutates round-trips
/// exactly.
fn checkpoint_multicore(opts: &Opts, watchdog_cycles: u64) -> bool {
    let mut cfg = base_cfg(watchdog_cycles);
    cfg.watchdog.epoch_cycles = 5_000;

    fn multicore_run(sys: &mut TakoSystem, base: u64, work: u64, phase: u64) -> u64 {
        let tiles = 16usize;
        let mut programs: Vec<StrideWalker> = (0..tiles as u64)
            .map(|k| StrideWalker {
                base: base + k * (1 << 14),
                i: phase * work,
                n: (phase + 1) * work,
            })
            .collect();
        let mut cores: Vec<CoreTiming> = (0..tiles)
            .map(|_| CoreTiming::new(tako_sim::config::SystemConfig::default_16core().core))
            .collect();
        let mut preds: Vec<BranchPredictor> = (0..tiles).map(|_| BranchPredictor::new()).collect();
        let mut progs: Vec<(usize, &mut dyn ThreadProgram)> = programs
            .iter_mut()
            .enumerate()
            .map(|(k, p)| (k, p as &mut dyn ThreadProgram))
            .collect();
        run_multicore(&mut progs, &mut cores, &mut preds, sys, 1 << 20)
    }

    let work = opts.sized(2048) as u64;
    let mut sys = TakoSystem::new(cfg.clone());
    let base = 0x1000_0000;
    let _ = sys.alloc_real(1 << 20);
    multicore_run(&mut sys, base, work, 0);
    let mid = sys.snapshot_bytes();
    let t_ref = multicore_run(&mut sys, base, work, 1);
    let reference = encode(&sys);

    let mut sys2 = TakoSystem::new(cfg);
    let _ = sys2.alloc_real(1 << 20);
    if sys2.restore_bytes(&mid).is_err() {
        return false;
    }
    let t2 = multicore_run(&mut sys2, base, work, 1);
    t2 == t_ref && encode(&sys2) == reference
}

/// Noninterference: with faults disabled, the robustness machinery must
/// not change a single counter or cycle.
fn check_noninterference(case: &CaseStudy, opts: &Opts, bound: u64) -> bool {
    let mut plain = SystemConfig::default_16core();
    plain.watchdog.enabled = false;
    plain.faults = None;
    let mut armed = base_cfg(bound);
    armed.faults = Some(FaultPlan::empty());
    let a = (case.run)(&plain, opts);
    let b = (case.run)(&armed, opts);
    let mut same = a.cycles == b.cycles && a.energy_uj.to_bits() == b.energy_uj.to_bits();
    for c in Counter::ALL {
        same &= a.get(c) == b.get(c);
    }
    same
}

fn main() {
    let (opts, unknown) = Opts::parse_args();
    let flags = parse_campaign_flags(unknown);

    let mut total = 0usize;
    let mut failed = 0usize;
    let mut total_violations = 0u64;

    for case in CASE_STUDIES {
        let clean_cfg = base_cfg(flags.watchdog_cycles);
        let clean = (case.run)(&clean_cfg, &opts);
        let horizon = clean.cycles.max(1000);
        assert_eq!(
            clean.get(Counter::InvariantViolation),
            0,
            "{}: clean run violated invariants",
            case.name
        );
        assert_eq!(
            clean.get(Counter::WatchdogStallEvents),
            0,
            "{}: clean run tripped the watchdog (bound too tight?)",
            case.name
        );
        let noninterference = check_noninterference(case, &opts, flags.watchdog_cycles);
        println!(
            "{:<11} clean: {} cycles, watchdog noninterference {}",
            case.name,
            clean.cycles,
            if noninterference { "ok" } else { "FAILED" }
        );
        if !noninterference {
            failed += 1;
        }

        // The scenario set: the ad-hoc plan, or `--scenarios` seeded
        // plans rotating through every fault kind. Points are drawn
        // from the early third of the measured clean horizon (misses
        // and callbacks are densest there); `arm` then anchors one
        // event per kind at the very start so every plan fires.
        let (lo, hi) = (1, (horizon / 3).max(3));
        let scenarios: Vec<(usize, Option<FaultKind>, FaultPlan)> = match &flags.adhoc {
            Some(p) => {
                let mut p = p.clone();
                arm(&mut p, flags.watchdog_cycles);
                vec![(0, None, p)]
            }
            None => (0..flags.scenarios)
                .map(|s| {
                    let kind = ROTATION[s % ROTATION.len()];
                    let kinds: Vec<FaultKind> = match kind {
                        Some(k) => vec![k],
                        None => FaultKind::ALL.to_vec(),
                    };
                    let count = kinds.len().max(1 + s / ROTATION.len());
                    let mut plan =
                        FaultPlan::seeded(opts.seed ^ (s as u64) << 8, &kinds, count, lo, hi);
                    arm(&mut plan, flags.watchdog_cycles);
                    (s, kind, plan)
                })
                .collect(),
        };

        let verdicts = run_variants(opts, &scenarios, |(idx, kind, plan)| {
            let mut cfg = base_cfg(flags.watchdog_cycles);
            cfg.faults = Some(plan.clone());
            let r = (case.run)(&cfg, &opts);
            let v = check_scenario(case, idx, kind, &plan, &clean, &r, flags.watchdog_cycles);
            (v, r.get(Counter::InvariantViolation))
        });
        for (v, viol) in verdicts {
            total += 1;
            total_violations += viol;
            if v.problems.is_empty() {
                println!("{}  ok", v.label);
            } else {
                failed += 1;
                println!("{}  FAILED: {}", v.label, v.problems.join("; "));
            }
        }
    }

    // Checkpoint-under-fault: every fault kind's window must survive a
    // snapshot/resume round trip byte-identically.
    for kind in FaultKind::ALL {
        total += 1;
        let ok = checkpoint_under_fault(kind, &opts, flags.watchdog_cycles);
        println!(
            "checkpoint  kind={:<7} mid-window resume {}",
            kind.name(),
            if ok { "byte-identical" } else { "DIVERGED" }
        );
        if !ok {
            failed += 1;
        }
    }

    // Checkpoint-under-multicore: sixteen interleaved programs and the
    // SoA tag arrays they mutate must survive the same round trip.
    {
        total += 1;
        let ok = checkpoint_multicore(&opts, flags.watchdog_cycles);
        println!(
            "checkpoint  multicore mid-run resume {}",
            if ok { "byte-identical" } else { "DIVERGED" }
        );
        if !ok {
            failed += 1;
        }
    }

    println!(
        "fault campaign: {total} scenarios across {} case studies, \
         {total_violations} invariant violations, {failed} failed",
        CASE_STUDIES.len()
    );
    assert_eq!(total_violations, 0, "invariant violations under fault");
    if failed > 0 {
        std::process::exit(1);
    }
}
