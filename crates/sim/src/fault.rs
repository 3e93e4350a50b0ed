//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded, pre-computed list of misbehaving-Morph
//! scenarios to inject at configured cycle points: callback overruns past
//! the engine instruction budget, callbacks that issue illegal actions
//! (Sec 4.3 restriction violations), fabric-capacity exhaustion, MSHR
//! pressure spikes, and delayed DRAM responses. Plans are built from a
//! seed via the in-tree [`crate::rng`] so a campaign is reproducible
//! bit-for-bit, and are carried in
//! [`SystemConfig::faults`](crate::config::SystemConfig) so every
//! workload inherits them without signature changes.
//!
//! At run time the hierarchy holds a [`FaultInjector`] and polls it at
//! the few sites where each fault kind is meaningful. Polling an
//! injector built from `None`/an empty plan is a branch on an empty
//! vector — the hot path is unchanged and disabled runs stay
//! byte-identical.

use std::fmt;

use crate::checkpoint::{SnapError, SnapReader, SnapWriter, Snapshot};
use crate::rng::Rng;
use crate::Cycle;

/// The kinds of fault the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The callback body runs `magnitude` extra engine instructions,
    /// blowing through the configured per-callback budget.
    CallbackOverrun,
    /// The callback issues an action the Sec 4.3 restriction forbids
    /// (an access to data covered by a Morph at the same level).
    IllegalAction,
    /// The dataflow fabric reports no capacity for a scheduled
    /// callback, as if every PE were wedged.
    FabricExhaustion,
    /// `magnitude` phantom MSHR entries appear at an LLC bank,
    /// squeezing real misses against the callback reservation.
    MshrPressure,
    /// A DRAM response is delayed by `magnitude` cycles, emulating a
    /// stalled memory controller.
    DelayedDram,
}

impl FaultKind {
    /// All kinds, in a fixed order (used by `mix` plans).
    pub const ALL: [FaultKind; 5] = [
        FaultKind::CallbackOverrun,
        FaultKind::IllegalAction,
        FaultKind::FabricExhaustion,
        FaultKind::MshrPressure,
        FaultKind::DelayedDram,
    ];

    /// Short name used by the `--faults seed:kind[:count]` flag.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::CallbackOverrun => "overrun",
            FaultKind::IllegalAction => "illegal",
            FaultKind::FabricExhaustion => "fabric",
            FaultKind::MshrPressure => "mshr",
            FaultKind::DelayedDram => "dram",
        }
    }

    /// The default magnitude for this kind: extra instructions for
    /// overruns, phantom entries for MSHR pressure, extra cycles for
    /// DRAM delays, unused otherwise.
    pub fn default_magnitude(self) -> u64 {
        match self {
            FaultKind::CallbackOverrun => 150_000,
            FaultKind::IllegalAction => 0,
            FaultKind::FabricExhaustion => 0,
            FaultKind::MshrPressure => 12,
            FaultKind::DelayedDram => 400_000,
        }
    }
}

/// One scheduled fault: at or after cycle `at`, the next poll for
/// `kind` fires with `magnitude`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Earliest cycle at which the fault may fire.
    pub at: Cycle,
    /// What goes wrong.
    pub kind: FaultKind,
    /// Kind-specific severity (see [`FaultKind::default_magnitude`]).
    pub magnitude: u64,
    /// The tile/LLC-bank the fault is addressed to, or `None` for
    /// "wherever the next poll happens". Plans naming a site outside
    /// the configured mesh are rejected by
    /// [`SystemConfig::validate`](crate::config::SystemConfig::validate)
    /// instead of silently never firing.
    pub site: Option<usize>,
}

/// A seeded, deterministic schedule of faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// The seed the plan was derived from (0 for hand-built ones).
    pub seed: u64,
    /// The faults to inject, in no particular order. At most one fires per
    /// poll; the first match in vector order wins.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful to prove the armed-but-empty
    /// path is inert).
    pub fn empty() -> Self {
        FaultPlan {
            seed: 0,
            events: Vec::new(),
        }
    }

    /// A plan with a single hand-placed fault.
    pub fn single(at: Cycle, kind: FaultKind, magnitude: u64) -> Self {
        FaultPlan {
            seed: 0,
            events: vec![FaultEvent {
                at,
                kind,
                magnitude,
                site: None,
            }],
        }
    }

    /// A seeded plan of `count` faults drawn from `kinds` (round-robin)
    /// at cycles uniform in `[lo, hi)`, with default magnitudes.
    /// Identical arguments always produce an identical plan.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty or `lo >= hi`.
    pub fn seeded(seed: u64, kinds: &[FaultKind], count: usize, lo: Cycle, hi: Cycle) -> Self {
        assert!(!kinds.is_empty(), "kinds must be non-empty");
        assert!(lo < hi, "window must be non-empty");
        let mut rng = Rng::new(seed);
        let events = (0..count)
            .map(|i| {
                let kind = kinds[i % kinds.len()];
                FaultEvent {
                    at: lo + rng.below(hi - lo),
                    kind,
                    magnitude: kind.default_magnitude(),
                    site: None,
                }
            })
            .collect();
        FaultPlan { seed, events }
    }

    /// Parse the plan syntax `seed:kind[:count]` (`fault_campaign
    /// --faults`), e.g. `7:dram`, `3:overrun:4`, or `11:mix:10`
    /// (`mix`/`all` cycles through every kind). Faults are spread over
    /// the first million cycles; callers that know the run horizon
    /// should use [`FaultPlan::seeded`].
    pub fn parse(s: &str) -> Result<Self, String> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() < 2 || parts.len() > 3 {
            return Err(format!("--faults wants seed:kind[:count], got `{s}`"));
        }
        let seed: u64 = parts[0]
            .parse()
            .map_err(|_| format!("bad fault seed `{}`", parts[0]))?;
        let kinds: Vec<FaultKind> = match parts[1] {
            "mix" | "all" => FaultKind::ALL.to_vec(),
            other => vec![FaultKind::ALL
                .into_iter()
                .find(|k| k.name() == other)
                .ok_or_else(|| {
                    let names: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
                    format!(
                        "unknown fault kind `{other}` (want {}, or mix)",
                        names.join(", ")
                    )
                })?],
        };
        let count: usize = match parts.get(2) {
            Some(c) => c.parse().map_err(|_| format!("bad fault count `{c}`"))?,
            None => kinds.len(),
        };
        Ok(Self::seeded(seed, &kinds, count, 1_000, 1_000_000))
    }
}

/// Runtime state for one run: the plan's events, one taken bit per
/// event, and the fired count.
///
/// The hierarchy polls the injector at each site where a fault kind is
/// meaningful; a poll fires the first due, untaken event of that kind
/// and returns its magnitude. With no events the poll is a single
/// `is_empty` branch, so disabled runs are byte-identical.
#[derive(Debug, Clone, Default)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    taken: Vec<bool>,
    fired: u64,
}

impl FaultInjector {
    /// An injector for a plan (or an inert one for `None`).
    pub fn new(plan: Option<&FaultPlan>) -> Self {
        let events = plan.map(|p| p.events.clone()).unwrap_or_default();
        let taken = vec![false; events.len()];
        FaultInjector {
            events,
            taken,
            fired: 0,
        }
    }

    /// True if this injector can never fire.
    pub fn is_inert(&self) -> bool {
        self.events.is_empty()
    }

    /// Fire the first due, untaken, un-addressed event of `kind` at
    /// cycle `now`, returning its magnitude. Events addressed to a
    /// specific site only fire through [`FaultInjector::poll_at`].
    pub fn poll(&mut self, now: Cycle, kind: FaultKind) -> Option<u64> {
        self.poll_where(now, kind, None)
    }

    /// Fire the first due, untaken event of `kind` at cycle `now` that
    /// is either un-addressed or addressed to `site` (a tile/LLC-bank
    /// index), returning its magnitude.
    pub fn poll_at(&mut self, now: Cycle, kind: FaultKind, site: usize) -> Option<u64> {
        self.poll_where(now, kind, Some(site))
    }

    fn poll_where(&mut self, now: Cycle, kind: FaultKind, site: Option<usize>) -> Option<u64> {
        if self.events.is_empty() {
            return None;
        }
        let i = self
            .events
            .iter()
            .zip(&self.taken)
            .position(|(ev, &taken)| {
                !taken && ev.kind == kind && ev.at <= now && ev.site.is_none_or(|s| site == Some(s))
            })?;
        self.taken[i] = true;
        self.fired += 1;
        Some(self.events[i].magnitude)
    }

    /// How many events have fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// How many scheduled events have not fired yet.
    pub fn pending(&self) -> usize {
        self.taken.iter().filter(|t| !**t).count()
    }
}

/// The one-line summary (`fired/pending/scheduled`) for triage bundles.
impl fmt::Display for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} fired, {} pending of {}",
            self.fired,
            self.pending(),
            self.taken.len()
        )
    }
}

/// The taken bits and fired count are the injector's only mutable
/// state: the events are rebuilt from the plan, and `load` verifies the
/// count matches.
impl Snapshot for FaultInjector {
    fn save(&self, w: &mut SnapWriter) {
        w.section("fault");
        w.put_len(self.taken.len());
        for t in &self.taken {
            w.put_bool(*t);
        }
        w.put_u64(self.fired);
    }

    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section("fault")?;
        let n = r.get_len_expect("fault.taken", self.taken.len())?;
        for i in 0..n {
            self.taken[i] = r.get_bool()?;
        }
        self.fired = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let mut inj = FaultInjector::new(None);
        assert!(inj.is_inert());
        assert_eq!(inj.poll(u64::MAX, FaultKind::DelayedDram), None);
        let mut inj = FaultInjector::new(Some(&FaultPlan::empty()));
        assert!(inj.is_inert());
        assert_eq!(inj.poll(u64::MAX, FaultKind::CallbackOverrun), None);
    }

    #[test]
    fn single_fires_once_when_due() {
        let plan = FaultPlan::single(100, FaultKind::DelayedDram, 7);
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll(99, FaultKind::DelayedDram), None);
        assert_eq!(inj.poll(50, FaultKind::MshrPressure), None);
        assert_eq!(inj.poll(100, FaultKind::DelayedDram), Some(7));
        assert_eq!(inj.poll(200, FaultKind::DelayedDram), None);
        assert_eq!(inj.fired(), 1);
        assert_eq!(inj.pending(), 0);
    }

    #[test]
    fn kind_filter_respected() {
        let plan = FaultPlan::single(0, FaultKind::IllegalAction, 0);
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll(1_000, FaultKind::CallbackOverrun), None);
        assert_eq!(inj.poll(1_000, FaultKind::IllegalAction), Some(0));
    }

    #[test]
    fn seeded_is_deterministic() {
        let a = FaultPlan::seeded(9, &FaultKind::ALL, 20, 100, 10_000);
        let b = FaultPlan::seeded(9, &FaultKind::ALL, 20, 100, 10_000);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 20);
        for ev in &a.events {
            assert!((100..10_000).contains(&ev.at));
        }
        let c = FaultPlan::seeded(10, &FaultKind::ALL, 20, 100, 10_000);
        assert_ne!(a, c);
    }

    #[test]
    fn seeded_round_robins_kinds() {
        let p = FaultPlan::seeded(1, &FaultKind::ALL, 10, 0, 100);
        for (i, ev) in p.events.iter().enumerate() {
            assert_eq!(ev.kind, FaultKind::ALL[i % FaultKind::ALL.len()]);
        }
    }

    #[test]
    fn parse_forms() {
        let p = FaultPlan::parse("7:dram").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].kind, FaultKind::DelayedDram);

        let p = FaultPlan::parse("3:overrun:4").unwrap();
        assert_eq!(p.events.len(), 4);
        assert!(p
            .events
            .iter()
            .all(|e| e.kind == FaultKind::CallbackOverrun));

        let p = FaultPlan::parse("11:mix:10").unwrap();
        assert_eq!(p.events.len(), 10);

        assert!(FaultPlan::parse("x:dram").is_err());
        assert!(FaultPlan::parse("1:bogus").is_err());
        assert!(FaultPlan::parse("1:dram:zzz").is_err());
        assert!(FaultPlan::parse("1").is_err());
        assert!(FaultPlan::parse("1:dram:2:3").is_err());
    }

    #[test]
    fn site_addressed_events_fire_only_at_their_site() {
        let mut plan = FaultPlan::single(10, FaultKind::MshrPressure, 4);
        plan.events[0].site = Some(3);
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll(100, FaultKind::MshrPressure), None);
        assert_eq!(inj.poll_at(100, FaultKind::MshrPressure, 2), None);
        assert_eq!(inj.poll_at(100, FaultKind::MshrPressure, 3), Some(4));
        assert_eq!(inj.poll_at(200, FaultKind::MshrPressure, 3), None);
    }

    #[test]
    fn unaddressed_events_fire_at_any_site() {
        let plan = FaultPlan::single(10, FaultKind::DelayedDram, 7);
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll_at(100, FaultKind::DelayedDram, 5), Some(7));
    }

    #[test]
    fn cursor_snapshot_roundtrip() {
        let plan = FaultPlan::seeded(4, &FaultKind::ALL, 10, 1, 1_000);
        let mut inj = FaultInjector::new(Some(&plan));
        inj.poll(2_000, FaultKind::DelayedDram);
        inj.poll(2_000, FaultKind::MshrPressure);
        let env = crate::checkpoint::encode(&inj);
        let mut fresh = FaultInjector::new(Some(&plan));
        crate::checkpoint::decode(&env, &mut fresh).unwrap();
        assert_eq!(fresh.fired(), inj.fired());
        assert_eq!(fresh.pending(), inj.pending());
        assert_eq!(fresh.taken, inj.taken);
        // Taken bits from a differently sized plan is rejected.
        let other = FaultPlan::seeded(4, &FaultKind::ALL, 3, 1, 1_000);
        let mut wrong = FaultInjector::new(Some(&other));
        assert!(crate::checkpoint::decode(&env, &mut wrong).is_err());
    }

    /// The `fault` snapshot section is part of the checkpoint format:
    /// section name, taken-bit count, one byte per taken bit, fired
    /// count.
    #[test]
    fn cursor_bytes_are_pinned() {
        let plan = FaultPlan::seeded(4, &FaultKind::ALL, 10, 1, 1_000);
        let mut inj = FaultInjector::new(Some(&plan));
        assert_eq!(inj.poll(2_000, FaultKind::DelayedDram), Some(400_000));
        assert_eq!(inj.poll(2_000, FaultKind::MshrPressure), Some(12));
        let mut w = SnapWriter::new();
        inj.save(&mut w);
        #[rustfmt::skip]
        let expect: [u8; 33] = [
            5, 0, b'f', b'a', b'u', b'l', b't',
            10, 0, 0, 0, 0, 0, 0, 0,
            0, 0, 0, 1, 1, 0, 0, 0, 0, 0,
            2, 0, 0, 0, 0, 0, 0, 0,
        ];
        assert_eq!(w.into_bytes(), expect);
        assert_eq!(inj.to_string(), "2 fired, 8 pending of 10");
    }

    /// Every kind name parses back to its kind, `mix`/`all` expand to
    /// `ALL` in order, seeded cycles stay inside the parse window, and
    /// the parse errors are pinned.
    #[test]
    fn every_kind_round_trips_through_parse() {
        for k in FaultKind::ALL {
            let p = FaultPlan::parse(&format!("5:{}:3", k.name())).unwrap();
            assert_eq!(p.events.len(), 3);
            assert!(p.events.iter().all(|e| e.kind == k));
        }
        let mix = FaultPlan::parse("9:mix").unwrap();
        assert_eq!(mix.seed, 9);
        assert_eq!(
            mix.events.iter().map(|e| e.kind).collect::<Vec<_>>(),
            FaultKind::ALL
        );
        assert_eq!(FaultPlan::parse("9:all").unwrap(), mix);
        let wide = FaultPlan::parse("11:mix:500").unwrap();
        assert!(wide
            .events
            .iter()
            .all(|e| (1_000..1_000_000).contains(&e.at)));
        for (input, want) in [
            ("1", "--faults wants seed:kind[:count], got `1`"),
            (
                "1:mix:2:3",
                "--faults wants seed:kind[:count], got `1:mix:2:3`",
            ),
            ("x:mix", "bad fault seed `x`"),
            (
                "1:bogus",
                "unknown fault kind `bogus` (want overrun, illegal, fabric, mshr, dram, or mix)",
            ),
            ("1:mix:zzz", "bad fault count `zzz`"),
        ] {
            assert_eq!(FaultPlan::parse(input).unwrap_err(), want);
        }
    }
}
