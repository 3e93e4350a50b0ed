//! Supervised campaign runner: persistent journal, resume, deadlines,
//! bounded deterministic retries, and crash triage.
//!
//! A *campaign* is one `all_experiments` invocation with `--journal`.
//! The journal directory holds:
//!
//! * `manifest.txt` — the campaign parameters (scale/paper/seed and the
//!   experiment list), a generation number bumped by every invocation
//!   that touches the journal, and a trailing content checksum. A
//!   resume into a differently parameterized campaign is rejected
//!   before anything runs; a corrupt manifest is refused with a
//!   pointer at `tako_fsck --repair`.
//! * `<name>.units` — the run list's on-disk image and the campaign's
//!   only durable result store: a fingerprinted header followed by one
//!   self-checking record per *unit*, one simulation this experiment's
//!   worker ran through [`run_once`](crate::run_once), keyed by the
//!   16-byte digest of its run-list key. A run is journaled once, by
//!   the worker that simulated it, so a view that finds its producer's
//!   runs journals nothing. A resume seeds the run list with the intact
//!   records of every selected experiment and runs every selected
//!   experiment against it: a completed experiment re-renders its
//!   output from its journaled runs, an interrupted one resumes
//!   *mid-run*, and a view finds its producer's runs; only what no
//!   journal holds simulates. Completion is not recorded in a file.
//! * `<name>.triage.txt` — written when an attempt dies (panic or
//!   deadline kill): the panic payload — which for a deadline kill is
//!   the hierarchy's triage bundle (diagnostic snapshot, fault-plan
//!   cursor, observer event tail, last checkpoint id) — plus the unit
//!   cursor and the exact command line that resumes the campaign.
//! * `attempts.log` — one line per attempt with its outcome and the
//!   deterministic backoff that preceded it.
//!
//! **Every durable write goes through [`tako_sim::storage`]**: whole
//! files are written atomically (temp + sync + rename), appends carry
//! per-record checksums, and the fault-injecting backend can crash the
//! campaign at any I/O site — the crash-point sweep (`crash_campaign`)
//! proves that resume from *every* such crash reproduces the
//! uninterrupted run's output byte-for-byte. Failures that classify as
//! *transient* (interrupted syscall, timeout, resource pressure) are
//! retried in place at every campaign-level I/O site; only failures
//! that outlive the retry budget surface.
//!
//! Failed experiments are retried up to `--retries` times with bounded
//! exponential backoff. The schedule is *seeded and deterministic*:
//! derived from the campaign seed, the experiment name, and the attempt
//! number, never from wall-clock state, so a re-run of the same failing
//! campaign produces the same journaled schedule. Retries apply only to
//! failures that might go away: an attempt that died on a *permanent*
//! storage error (see [`tako_sim::storage::IoClass`]) is reported
//! immediately instead of burning the backoff schedule.
//!
//! Deadlines ride the watchdog: the worker arms
//! [`tako_sim::supervise`] before entering the experiment, and the
//! hierarchy's epoch sweep probes it at every quiescent point — a
//! stalled simulation is killed from *inside* (a panic carrying the
//! triage bundle) at its next epoch boundary, without any second
//! thread or signal machinery.

use std::cell::RefCell;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use tako_sim::digest::Sha256;
use tako_sim::parallel::parallel_map_catch;
use tako_sim::rng::Rng;
use tako_sim::storage::{
    classify, DiskStorage, IoClass, IoHealth, Storage, CRASH_MARKER, PERMANENT_MARKER,
};
use tako_sim::supervise;

use crate::{run_experiment, start_order, Experiment, ExperimentResult, Opts, RunKey, RunList};

// ---------------------------------------------------------------------
// In-experiment unit journal
// ---------------------------------------------------------------------

/// Per-record magic for the append-only unit file ("UNT1").
pub(crate) const UNIT_MAGIC: [u8; 4] = *b"UNT1";

/// Header magic of a unit journal ("UJH1"), followed by the campaign
/// fingerprint. A journal whose header names a different campaign is
/// discarded wholesale instead of replaying foreign units.
pub(crate) const UNIT_HEADER_MAGIC: [u8; 4] = *b"UJH1";

/// Size of the unit-journal header: magic + fingerprint.
pub(crate) const UNIT_HEADER_LEN: usize = 4 + 8;

struct UnitJournal {
    storage: Arc<dyn Storage>,
    path: PathBuf,
    crash_after: Option<u64>,
}

thread_local! {
    static JOURNAL: RefCell<Option<UnitJournal>> = const { RefCell::new(None) };
}

/// RAII scope for armed supervision; dropping disarms (including
/// during a panic unwind, so a dead attempt's deadline never bleeds
/// into the next experiment scheduled on the same worker thread).
struct SuperviseScope(());

impl SuperviseScope {
    fn arm(deadline: Option<Duration>) -> Self {
        supervise::arm(deadline);
        SuperviseScope(())
    }
}

impl Drop for SuperviseScope {
    fn drop(&mut self) {
        supervise::disarm();
    }
}

/// RAII scope for an armed unit journal; dropping disarms (including
/// during a panic unwind, so a dead attempt never leaks its journal
/// into the next experiment scheduled on the same worker thread).
struct UnitScope(());

impl Drop for UnitScope {
    fn drop(&mut self) {
        JOURNAL.with(|j| *j.borrow_mut() = None);
    }
}

/// Arm the calling thread's unit journal on `path` under `storage`.
/// The intact records a previous attempt left there stay; they already
/// seeded the run list. `fingerprint` identifies the campaign; a
/// journal written by a different campaign (or with no header at all)
/// is discarded.
///
/// # Errors
///
/// Propagates I/O errors opening or reading the journal file. A
/// *corrupt or truncated tail* is not an error: it is the expected
/// debris of a crash and is discarded (the file is truncated to the
/// last intact record).
fn unit_journal(
    storage: Arc<dyn Storage>,
    path: &Path,
    fingerprint: u64,
) -> std::io::Result<UnitScope> {
    if storage.exists(path) {
        let buf = retrying(|| storage.read(path))?;
        let intact = unit_header_matches(&buf, fingerprint)
            .map_or(0, |rest| UNIT_HEADER_LEN + read_units(rest).1) as u64;
        // Drop the crash tail (or an entire foreign/headerless journal)
        // so appends start at a record boundary.
        retrying(|| storage.truncate(path, intact))?;
        if intact == 0 {
            retrying(|| storage.append(path, &unit_header(fingerprint)))?;
        }
    } else {
        retrying(|| storage.append(path, &unit_header(fingerprint)))?;
    }
    JOURNAL.with(|j| {
        *j.borrow_mut() = Some(UnitJournal {
            storage,
            path: path.to_path_buf(),
            crash_after: None,
        })
    });
    Ok(UnitScope(()))
}

/// Render a unit-journal header for `fingerprint`.
fn unit_header(fingerprint: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(UNIT_HEADER_LEN);
    h.extend_from_slice(&UNIT_HEADER_MAGIC);
    h.extend_from_slice(&fingerprint.to_le_bytes());
    h
}

/// If `buf` starts with a valid header for `fingerprint`, return the
/// record bytes after it.
pub(crate) fn unit_header_matches(buf: &[u8], fingerprint: u64) -> Option<&[u8]> {
    if buf.len() < UNIT_HEADER_LEN || buf[..4] != UNIT_HEADER_MAGIC {
        return None;
    }
    let fp = u64::from_le_bytes(buf[4..12].try_into().ok()?);
    if fp != fingerprint {
        return None;
    }
    Some(&buf[UNIT_HEADER_LEN..])
}

/// Parse the unit records after a journal header: every intact record
/// as (run key, payload), and the length of the prefix they fill. The
/// reader stops at the first truncated or corrupt record; everything
/// from there on is crash debris.
pub(crate) fn read_units(buf: &[u8]) -> (Vec<(RunKey, &[u8])>, usize) {
    const HDR: usize = 4 + 16 + 8;
    let mut units = Vec::new();
    let mut at = 0;
    while buf.len() >= at + HDR && buf[at..at + 4] == UNIT_MAGIC {
        let key: RunKey = buf[at + 4..at + 20].try_into().unwrap();
        let len = u64::from_le_bytes(buf[at + 20..at + HDR].try_into().unwrap());
        let start = at + HDR;
        let Some(end) = usize::try_from(len).ok().and_then(|l| start.checked_add(l)) else {
            break;
        };
        if buf.len() < end || buf.len() - end < 8 {
            break;
        }
        let payload = &buf[start..end];
        if unit_checksum(payload).to_le_bytes() != buf[end..end + 8] {
            break;
        }
        units.push((key, payload));
        at = end + 8;
    }
    (units, at)
}

/// First 8 bytes of the payload's SHA-256, as the per-record checksum.
fn unit_checksum(payload: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(payload);
    u64::from_le_bytes(h.finish()[..8].try_into().unwrap())
}

/// Append the run `key` this worker just simulated to the armed unit
/// journal, sync it, and note it as the experiment's most recent
/// checkpoint (named in deadline triage). A no-op when no journal is
/// armed on this thread (the common, non-campaign path).
///
/// A *transient* append failure is retried in place; if it persists,
/// checkpointing degrades (the run will recompute on resume) but the
/// simulation continues. A *permanent* failure aborts the attempt with
/// a [`PERMANENT_MARKER`] panic, which the campaign runner reports
/// without retrying.
pub(crate) fn record_unit(key: &RunKey, payload: &[u8]) {
    let crash = JOURNAL.with(|j| {
        let mut j = j.borrow_mut();
        let j = j.as_mut()?;
        let mut rec = Vec::with_capacity(payload.len() + 36);
        rec.extend_from_slice(&UNIT_MAGIC);
        rec.extend_from_slice(key);
        rec.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        rec.extend_from_slice(payload);
        rec.extend_from_slice(&unit_checksum(payload).to_le_bytes());
        match retrying(|| j.storage.append(&j.path, &rec)) {
            Ok(()) => {
                // A failed sync is at worst a lost checkpoint; the
                // backend has already classified and counted it.
                let _ = j.storage.sync(&j.path);
            }
            Err(e) => {
                if classify(&e) == IoClass::Permanent {
                    panic!(
                        "{PERMANENT_MARKER} unit journal append to {}: {e}",
                        j.path.display()
                    );
                }
                // Transient: checkpointing degraded, simulation goes on.
            }
        }
        Some(match &mut j.crash_after {
            Some(0) => true,
            Some(n) => {
                *n -= 1;
                *n == 0
            }
            None => false,
        })
    });
    let Some(crash) = crash else { return };
    let id: String = key[..6].iter().map(|b| format!("{b:02x}")).collect();
    supervise::note_checkpoint(&format!("unit {id}"));
    if crash {
        // The deterministic interrupt hook (--crash-after-units): dies
        // *after* the unit is journaled, like a machine losing power
        // between a checkpoint and the next one.
        panic!("crashed by --crash-after-units (unit {id} journaled)");
    }
}

/// Arrange for the current journal scope to panic after `n` more units
/// are recorded — the deterministic stand-in for yanking the process
/// mid-experiment (used by the interrupt/resume smoke and tests).
pub fn crash_after_units(n: u64) {
    JOURNAL.with(|j| {
        if let Some(j) = j.borrow_mut().as_mut() {
            j.crash_after = Some(n);
        }
    });
}

// ---------------------------------------------------------------------
// Campaign journal (experiment granularity)
// ---------------------------------------------------------------------

/// Options for a supervised, journaled campaign.
#[derive(Clone)]
pub struct CampaignOpts {
    /// Journal directory.
    pub dir: PathBuf,
    /// Resume: keep the units a previous run of the same campaign
    /// journaled, and re-render every experiment from them.
    pub resume: bool,
    /// Wall-clock budget per experiment attempt; exceeded → the
    /// hierarchy kills the run at its next epoch with a triage panic.
    pub deadline: Option<Duration>,
    /// Retries after the first failed attempt.
    pub retries: u32,
    /// Panic on entry of the named experiment (test hook, mirrors
    /// `--force-panic`). Only the first attempt panics, so a retry
    /// succeeds — which is exactly what the retry test wants.
    pub force_panic: Option<String>,
    /// Die after this many journaled units in each experiment that
    /// runs, counting only the runs its worker simulates (test hook
    /// behind `--crash-after-units`).
    pub crash_after_units: Option<u64>,
    /// The persistence backend every journal byte flows through. The
    /// default is the real filesystem; the crash-point sweep passes a
    /// [`tako_sim::storage::FaultStorage`].
    pub storage: Arc<dyn Storage>,
}

impl fmt::Debug for CampaignOpts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CampaignOpts")
            .field("dir", &self.dir)
            .field("resume", &self.resume)
            .field("deadline", &self.deadline)
            .field("retries", &self.retries)
            .field("force_panic", &self.force_panic)
            .field("crash_after_units", &self.crash_after_units)
            .finish_non_exhaustive()
    }
}

impl CampaignOpts {
    /// A campaign journaling into `dir` with everything else default:
    /// fresh (no resume), no deadline, no retries, real-filesystem
    /// storage.
    pub fn fresh(dir: impl Into<PathBuf>) -> Self {
        CampaignOpts {
            dir: dir.into(),
            resume: false,
            deadline: None,
            retries: 0,
            force_panic: None,
            crash_after_units: None,
            storage: Arc::new(DiskStorage::new()),
        }
    }
}

/// What [`run_campaign`] hands back, beyond the per-experiment results.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Per-experiment outcomes in table order. `Err` carries the final
    /// failure message after all retries were exhausted.
    pub results: Vec<(&'static str, Result<ExperimentResult, String>)>,
    /// Attempts actually executed (first tries + retries).
    pub attempts: u64,
    /// The storage backend's failure tally for this run —
    /// transient-vs-permanent I/O degradation, surfaced in the
    /// campaign status line.
    pub io: IoHealth,
}

fn manifest_params(opts: Opts, experiments: &[(&'static str, Experiment)]) -> String {
    let names: Vec<&str> = experiments.iter().map(|(n, _)| *n).collect();
    format!(
        "scale={}\npaper={}\nseed={}\nexperiments={}\n",
        opts.scale,
        opts.paper,
        opts.seed,
        names.join(",")
    )
}

/// Render a full manifest: parameters, generation, content checksum.
fn render_manifest(params: &str, generation: u64) -> String {
    let body = format!("{params}generation={generation}\n");
    let mut h = Sha256::new();
    h.update(body.as_bytes());
    let sum = &h.finish_hex()[..16];
    format!("{body}checksum={sum}\n")
}

/// What a manifest on disk turned out to be.
pub(crate) enum ManifestState {
    /// Valid, with its parameter block and generation.
    Valid { params: String, generation: u64 },
    /// Present but failing its checksum or structurally unparseable.
    Corrupt(String),
}

/// Parse and verify a manifest file's content.
pub(crate) fn parse_manifest(text: &str) -> ManifestState {
    let Some((body, tail)) = text.rsplit_once("checksum=") else {
        return ManifestState::Corrupt("missing checksum line".into());
    };
    let mut h = Sha256::new();
    h.update(body.as_bytes());
    let want = &h.finish_hex()[..16];
    if tail.trim() != want {
        return ManifestState::Corrupt(format!(
            "checksum mismatch: recorded {}, content hashes to {want}",
            tail.trim()
        ));
    }
    let Some((params, gen_line)) = body.rsplit_once("generation=") else {
        return ManifestState::Corrupt("missing generation line".into());
    };
    match gen_line.trim().parse::<u64>() {
        Ok(generation) => ManifestState::Valid {
            params: params.to_string(),
            generation,
        },
        Err(_) => ManifestState::Corrupt(format!("bad generation `{}`", gen_line.trim())),
    }
}

/// FNV-1a of `text`. Of an experiment name it seeds that experiment's
/// backoff; of the manifest parameter block it is the campaign
/// fingerprint stamped into every unit-journal header, so the journals
/// are self-describing even if the manifest is lost.
fn name_hash(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |a, b| {
        (a ^ b as u64).wrapping_mul(0x1_0000_0000_01b3)
    })
}

/// The deterministic backoff (ms) that precedes `attempt` (1-based) of
/// `name`: bounded exponential plus seeded jitter. Pure function of its
/// arguments — a re-run journals the identical schedule.
pub fn backoff_ms(seed: u64, name: &str, attempt: u32) -> u64 {
    let base = (25u64 << (attempt - 1).min(6)).min(800);
    base + Rng::new(seed ^ name_hash(name) ^ attempt as u64).below(25)
}

/// The command line that resumes this campaign, embedded in every
/// triage bundle. It names the experiment selection, since the manifest
/// rejects a resume into any other one.
fn resume_cmdline(opts: Opts, c: &CampaignOpts, names: &[&str]) -> String {
    let mut s = format!(
        "all_experiments --journal {} --resume --only {} --scale {} --seed {} --jobs {}",
        c.dir.display(),
        names.join(","),
        opts.scale,
        opts.seed,
        opts.jobs
    );
    if opts.paper {
        s.push_str(" --paper");
    }
    if let Some(d) = c.deadline {
        s.push_str(&format!(" --deadline {}", d.as_secs_f64()));
    }
    if c.retries > 0 {
        s.push_str(&format!(" --retries {}", c.retries));
    }
    s
}

fn append_line(storage: &dyn Storage, path: &Path, line: &str) {
    let _ = retrying(|| storage.append(path, format!("{line}\n").as_bytes()));
}

/// Retry budget for transient I/O failures at campaign-level sites.
const TRANSIENT_IO_RETRIES: u32 = 3;

/// Run `op`, retrying immediately on failures that classify as
/// *transient* (interrupted syscall, timeout, resource pressure).
/// Permanent failures propagate on first sight — retrying corrupt data
/// or a missing file only burns time. No sleep is needed: a transient
/// condition is one that clears on re-issue, and the fault-injecting
/// backend models exactly that (its op cursor has moved past the
/// injected site by the time the retry runs).
fn retrying<T>(mut op: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < TRANSIENT_IO_RETRIES && classify(&e) == IoClass::Transient => {
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Prepare the manifest for this invocation and return the campaign
/// fingerprint. Fresh campaigns clear stale records; resumes verify
/// the parameters and bump the generation. A resume whose manifest
/// vanished (e.g. quarantined by `tako_fsck`) proceeds on the strength
/// of the journal-header fingerprints and rewrites the manifest.
fn prepare_manifest(
    opts: Opts,
    c: &CampaignOpts,
    experiments: &[(&'static str, Experiment)],
) -> std::io::Result<u64> {
    let manifest_path = c.dir.join("manifest.txt");
    let params = manifest_params(opts, experiments);
    let fingerprint = name_hash(&params);
    if c.resume {
        let generation = if c.storage.exists(&manifest_path) {
            let text =
                String::from_utf8_lossy(&retrying(|| c.storage.read(&manifest_path))?).into_owned();
            match parse_manifest(&text) {
                ManifestState::Valid {
                    params: prior,
                    generation,
                } => {
                    if prior != params {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "--resume into a different campaign: journal has\n{prior}\
                                 but this invocation is\n{params}"
                            ),
                        ));
                    }
                    generation
                }
                ManifestState::Corrupt(why) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "campaign manifest {} is corrupt ({why}); \
                             run `tako_fsck --repair {}` to quarantine it, then resume",
                            manifest_path.display(),
                            c.dir.display()
                        ),
                    ));
                }
            }
        } else {
            // Manifest lost (crash before it landed, or quarantined).
            // The unit journals carry the fingerprint, so resume
            // is still safe; restore the manifest for the next reader.
            0
        };
        retrying(|| {
            c.storage.write_atomic(
                &manifest_path,
                render_manifest(&params, generation + 1).as_bytes(),
            )
        })?;
    } else {
        // Fresh campaign: clear any stale records so nothing replays.
        for (name, _) in experiments {
            for ext in ["units", "triage.txt"] {
                let stale = c.dir.join(format!("{name}.{ext}"));
                retrying(|| c.storage.remove(&stale))?;
            }
        }
        retrying(|| c.storage.remove(&c.dir.join("attempts.log")))?;
        retrying(|| {
            c.storage
                .write_atomic(&manifest_path, render_manifest(&params, 1).as_bytes())
        })?;
    }
    Ok(fingerprint)
}

/// Run `experiments` as a supervised, journaled campaign.
///
/// # Errors
///
/// I/O errors on the journal directory, a manifest mismatch when
/// resuming into a campaign run with different parameters, and a
/// corrupt manifest (pointer at `tako_fsck --repair`). Individual
/// experiment failures are *not* errors: they are journaled, retried,
/// and reported per-experiment in the outcome.
///
/// # Panics
///
/// Re-raises an injected storage crash ([`CRASH_MARKER`]) so a
/// simulated power loss behaves like one: nothing after the crashed
/// I/O site executes. The crash-point sweep catches it and resumes.
pub fn run_campaign(
    opts: Opts,
    c: &CampaignOpts,
    experiments: &[(&'static str, Experiment)],
) -> std::io::Result<CampaignOutcome> {
    std::fs::create_dir_all(&c.dir)?;
    let fingerprint = prepare_manifest(opts, c, experiments)?;
    let names: Vec<&str> = experiments.iter().map(|(n, _)| *n).collect();

    // Placeholders keep table order; every experiment runs.
    let mut results: Vec<(&'static str, Result<ExperimentResult, String>)> = experiments
        .iter()
        .map(|&(name, _)| (name, Err(String::from("never attempted"))))
        .collect();
    let mut todo = start_order(experiments);
    let inner = opts.serial();
    // One run list for the whole call: retries and views reuse what
    // earlier attempts and producers simulated. A resume seeds it with
    // every run the selected experiments journaled, so nothing on disk
    // is simulated again, whichever experiment asks for it.
    let runs = Arc::new(RunList::default());
    if c.resume {
        for (name, _) in experiments {
            let path = c.dir.join(format!("{name}.units"));
            if !c.storage.exists(&path) {
                continue;
            }
            // An unreadable journal seeds nothing: its runs recompute.
            let Ok(buf) = retrying(|| c.storage.read(&path)) else {
                continue;
            };
            if let Some(rest) = unit_header_matches(&buf, fingerprint) {
                for (key, payload) in read_units(rest).0 {
                    runs.seed(key, payload.to_vec());
                }
            }
        }
    }
    let log = c.dir.join("attempts.log");
    let mut attempts = 0u64;
    for attempt in 1..=(1 + c.retries) {
        if todo.is_empty() {
            break;
        }
        if attempt > 1 {
            // Deterministic, bounded exponential backoff before each
            // retry wave; the schedule is journaled so a post-mortem
            // can see exactly when each attempt was eligible to run.
            let mut wait = 0u64;
            for (name, _) in &todo {
                let b = backoff_ms(opts.seed, name, attempt);
                append_line(
                    c.storage.as_ref(),
                    &log,
                    &format!("{name} attempt={attempt} backoff_ms={b}"),
                );
                wait = wait.max(b);
            }
            std::thread::sleep(Duration::from_millis(wait));
        }
        attempts += todo.len() as u64;
        let force = if attempt == 1 {
            c.force_panic.clone()
        } else {
            None
        };
        let dir = c.dir.clone();
        let deadline = c.deadline;
        let storage = Arc::clone(&c.storage);
        let runs = Arc::clone(&runs);
        let crash = if attempt == 1 {
            c.crash_after_units
        } else {
            None
        };
        let batch = parallel_map_catch(opts.jobs, todo.clone(), move |_, (name, f)| {
            let units_path = dir.join(format!("{name}.units"));
            let _units = unit_journal(Arc::clone(&storage), &units_path, fingerprint)
                .unwrap_or_else(|e| {
                    // Carry the classification into the panic payload so
                    // the runner suppresses retries iff the failure is
                    // permanent (transient ones already got their
                    // in-place retries and may clear by the next wave).
                    if classify(&e) == IoClass::Permanent {
                        panic!(
                            "{PERMANENT_MARKER} unit journal open {}: {e}",
                            units_path.display()
                        );
                    }
                    panic!("unit journal open {}: {e}", units_path.display());
                });
            if let Some(n) = crash {
                crash_after_units(n);
            }
            let _sup = SuperviseScope::arm(deadline);
            run_experiment(name, f, inner, &runs, Some(name) == force.as_deref())
        });

        let mut still_failing = Vec::new();
        for ((name, f), r) in todo.into_iter().zip(batch) {
            match r {
                Ok(res) => {
                    append_line(
                        c.storage.as_ref(),
                        &log,
                        &format!("{name} attempt={attempt} outcome=ok"),
                    );
                    let slot = results.iter_mut().find(|(n, _)| *n == name).unwrap();
                    slot.1 = Ok(res);
                }
                Err(msg) if msg.contains(CRASH_MARKER) => {
                    // An injected storage crash is a simulated power
                    // loss: the process is gone, nothing else runs.
                    // Re-raise so the sweep harness sees a dead
                    // campaign, not a tidy failure report.
                    std::panic::panic_any(msg);
                }
                Err(msg) => {
                    let permanent = msg.contains(PERMANENT_MARKER);
                    let units = units_on_disk(
                        c.storage.as_ref(),
                        &c.dir.join(format!("{name}.units")),
                        fingerprint,
                    );
                    let triage = format!(
                        "experiment: {name}\nattempt: {attempt} of {}\n\
                         journaled units: {units}\n--- failure ---\n{msg}\n\
                         --- resume ---\n{}\n",
                        1 + c.retries,
                        resume_cmdline(opts, c, &names),
                    );
                    let triage_path = c.dir.join(format!("{name}.triage.txt"));
                    retrying(|| c.storage.write_atomic(&triage_path, triage.as_bytes()))?;
                    append_line(
                        c.storage.as_ref(),
                        &log,
                        &format!(
                            "{name} attempt={attempt} outcome=failed class={}",
                            if permanent {
                                "permanent-io"
                            } else {
                                "retryable"
                            }
                        ),
                    );
                    let slot = results.iter_mut().find(|(n, _)| *n == name).unwrap();
                    slot.1 = Err(msg);
                    if permanent {
                        // Backoff only helps transient faults; a
                        // permanent storage error fails fast.
                        append_line(
                            c.storage.as_ref(),
                            &log,
                            &format!("{name} retries=suppressed (permanent storage error)"),
                        );
                    } else {
                        still_failing.push((name, f));
                    }
                }
            }
        }
        todo = still_failing;
    }

    Ok(CampaignOutcome {
        results,
        attempts,
        io: c.storage.health(),
    })
}

/// Count the intact unit records in a journal file (for triage).
fn units_on_disk(storage: &dyn Storage, path: &Path, fingerprint: u64) -> usize {
    let Ok(buf) = storage.read(path) else {
        return 0;
    };
    unit_header_matches(&buf, fingerprint).map_or(0, |rest| read_units(rest).0.len())
}
