//! Supervised campaign runner: persistent journal, resume, deadlines,
//! and crash triage.
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
//! * `<name>.triage.txt` — written when an experiment dies (panic,
//!   deadline kill or unit-journal I/O error): the panic payload —
//!   which for a deadline kill is the hierarchy's triage bundle
//!   (diagnostic snapshot, fault-plan cursor, observer event tail, last
//!   checkpoint id) — plus the unit cursor and the exact command line
//!   that resumes the campaign. A run that completes the experiment
//!   removes it.
//!
//! **Every durable write goes through [`tako_sim::storage`]**: whole
//! files are written atomically (temp + sync + rename), appends carry
//! per-record checksums, and the fault-injecting backend can crash the
//! campaign at any I/O site — the crash-point sweep (`crash_campaign`)
//! proves that resume from *every* such crash reproduces the
//! uninterrupted run's output byte-for-byte.
//!
//! Recovery is `--resume` and nothing else. A storage error is never
//! re-issued in place: at a campaign-level site (manifest, journal
//! seeding, triage bundle) [`run_campaign`] returns it, and in an
//! experiment's unit journal (open, append or sync) it fails that
//! experiment, which is reported with its triage bundle, never re-run
//! in-process. The simulations are deterministic, so re-running one in
//! the same process only repeats its failure; a resume continues from
//! what the journals hold, whatever ended the run — a panic, a deadline
//! kill, a storage error, or the process itself.
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
use tako_sim::storage::{DiskStorage, Storage, CRASH_MARKER};
use tako_sim::supervise;

use crate::{fan_out, run_experiment, Experiment, ExperimentResult, Opts, RunKey, RunList};

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
/// during a panic unwind, so a dead experiment's deadline never bleeds
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
/// during a panic unwind, so a dead experiment never leaks its journal
/// into the next experiment scheduled on the same worker thread).
struct UnitScope(());

impl Drop for UnitScope {
    fn drop(&mut self) {
        JOURNAL.with(|j| *j.borrow_mut() = None);
    }
}

/// Arm the calling thread's unit journal on `path` under `storage`.
/// The intact records a previous run left there stay; a resume already
/// seeded the run list with them. `fingerprint` identifies the campaign; a
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
        let buf = storage.read(path)?;
        let intact = unit_header_matches(&buf, fingerprint)
            .map_or(0, |rest| UNIT_HEADER_LEN + read_units(rest).1) as u64;
        // Drop the crash tail (or an entire foreign/headerless journal)
        // so appends start at a record boundary.
        storage.truncate(path, intact)?;
        if intact == 0 {
            storage.append(path, &unit_header(fingerprint))?;
        }
    } else {
        storage.append(path, &unit_header(fingerprint))?;
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
/// A failed append or sync fails the experiment with a panic, which
/// the campaign runner reports and triages; `--resume` recovers it.
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
        if let Err(e) = j
            .storage
            .append(&j.path, &rec)
            .and_then(|()| j.storage.sync(&j.path))
        {
            panic!("unit journal {}: {e}", j.path.display());
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
    /// Wall-clock budget per experiment; exceeded → the hierarchy
    /// kills the run at its next epoch with a triage panic.
    pub deadline: Option<Duration>,
    /// Panic on entry of the named experiment (test hook, mirrors
    /// `--force-panic`).
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
            .field("force_panic", &self.force_panic)
            .field("crash_after_units", &self.crash_after_units)
            .finish_non_exhaustive()
    }
}

impl CampaignOpts {
    /// A campaign journaling into `dir` with everything else default:
    /// fresh (no resume), no deadline, real-filesystem storage.
    pub fn fresh(dir: impl Into<PathBuf>) -> Self {
        CampaignOpts {
            dir: dir.into(),
            resume: false,
            deadline: None,
            force_panic: None,
            crash_after_units: None,
            storage: Arc::new(DiskStorage),
        }
    }
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

/// The campaign fingerprint stamped into every unit-journal header: the
/// FNV-1a of the manifest parameter block, so the journals are
/// self-describing even if the manifest is lost.
fn campaign_fingerprint(params: &str) -> u64 {
    params.bytes().fold(0xcbf2_9ce4_8422_2325u64, |a, b| {
        (a ^ b as u64).wrapping_mul(0x1_0000_0000_01b3)
    })
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
    s
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
    let fingerprint = campaign_fingerprint(&params);
    if c.resume {
        let generation = if c.storage.exists(&manifest_path) {
            let text = String::from_utf8_lossy(&c.storage.read(&manifest_path)?).into_owned();
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
        c.storage.write_atomic(
            &manifest_path,
            render_manifest(&params, generation + 1).as_bytes(),
        )?;
    } else {
        // Fresh campaign: clear any stale records so nothing replays.
        for (name, _) in experiments {
            for ext in ["units", "triage.txt"] {
                let stale = c.dir.join(format!("{name}.{ext}"));
                c.storage.remove(&stale)?;
            }
        }
        c.storage
            .write_atomic(&manifest_path, render_manifest(&params, 1).as_bytes())?;
    }
    Ok(fingerprint)
}

/// Run `experiments` as a supervised, journaled campaign and return
/// the per-experiment outcomes in table order, as [`run_all`](crate::run_all)
/// does. `Err` carries the failure message, which the experiment's
/// triage bundle also holds.
///
/// # Errors
///
/// I/O errors on the journal directory (manifest, journal seeding,
/// triage bundles), a manifest mismatch when resuming into a campaign
/// run with different parameters, and a corrupt manifest (pointer at
/// `tako_fsck --repair`). Individual experiment failures, a unit-journal
/// I/O error included, are *not* errors: they are triaged and reported
/// per experiment.
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
) -> std::io::Result<Vec<(&'static str, Result<ExperimentResult, String>)>> {
    std::fs::create_dir_all(&c.dir)?;
    let fingerprint = prepare_manifest(opts, c, experiments)?;

    // One run list for the whole call: views reuse what their producers
    // simulated. A resume seeds it with every run the selected
    // experiments journaled, so nothing on disk is simulated again,
    // whichever experiment asks for it.
    let runs = Arc::new(RunList::default());
    if c.resume {
        for (name, _) in experiments {
            let path = c.dir.join(format!("{name}.units"));
            if !c.storage.exists(&path) {
                continue;
            }
            let buf = c.storage.read(&path)?;
            if let Some(rest) = unit_header_matches(&buf, fingerprint) {
                for (key, payload) in read_units(rest).0 {
                    runs.seed(key, payload.to_vec());
                }
            }
        }
    }

    // The unit journal and the deadline are thread-locals of the
    // experiment's worker, so an experiment runs its variants there.
    let inner = opts.serial();
    let results = fan_out(opts.jobs, experiments, |name, f| {
        let units_path = c.dir.join(format!("{name}.units"));
        let _units = unit_journal(Arc::clone(&c.storage), &units_path, fingerprint)
            .unwrap_or_else(|e| panic!("unit journal open {}: {e}", units_path.display()));
        if let Some(n) = c.crash_after_units {
            crash_after_units(n);
        }
        let _sup = SuperviseScope::arm(c.deadline);
        let force_panic = c.force_panic.as_deref() == Some(name);
        run_experiment(name, f, inner, &runs, force_panic)
    });

    // An injected storage crash is a simulated power loss: the process
    // is gone, nothing else runs. Re-raise so the sweep harness sees a
    // dead campaign, not a tidy failure report.
    if let Some(msg) = results
        .iter()
        .find_map(|(_, r)| r.as_ref().err().filter(|msg| msg.contains(CRASH_MARKER)))
    {
        std::panic::panic_any(msg.clone());
    }
    // A failed experiment gets a triage bundle; one that succeeded
    // loses the bundle an earlier run left it.
    let names: Vec<&str> = experiments.iter().map(|(n, _)| *n).collect();
    for (name, r) in &results {
        let triage_path = c.dir.join(format!("{name}.triage.txt"));
        let Err(msg) = r else {
            if c.storage.exists(&triage_path) {
                c.storage.remove(&triage_path)?;
            }
            continue;
        };
        let units = units_on_disk(
            c.storage.as_ref(),
            &c.dir.join(format!("{name}.units")),
            fingerprint,
        );
        let triage = format!(
            "experiment: {name}\njournaled units: {units}\n--- failure ---\n{msg}\n\
             --- resume ---\n{}\n",
            resume_cmdline(opts, c, &names),
        );
        c.storage.write_atomic(&triage_path, triage.as_bytes())?;
    }
    Ok(results)
}

/// Count the intact unit records in a journal file (for triage).
fn units_on_disk(storage: &dyn Storage, path: &Path, fingerprint: u64) -> usize {
    let Ok(buf) = storage.read(path) else {
        return 0;
    };
    unit_header_matches(&buf, fingerprint).map_or(0, |rest| read_units(rest).0.len())
}
