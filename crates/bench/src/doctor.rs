//! The journal doctor behind the `tako_fsck` binary: offline
//! inspection and repair of a campaign journal directory.
//!
//! Three modes, composing into the usual fsck workflow:
//!
//! * **scan** — classify every file in the directory and report its
//!   verdict (clean, salvageable with the documented prefix, corrupt,
//!   tmp debris) without touching anything.
//! * **verify** — scan, then exit nonzero if anything is not clean;
//!   the CI hook over the committed corrupt fixtures.
//! * **repair** — make the journal safe to resume: truncate unit
//!   journals to their longest valid prefix, move corrupt unit
//!   journals and the manifest (if bad) into `quarantine/`, delete `.tmp`
//!   debris, and write a `quarantine/report.txt` describing every
//!   action. Repair never deletes payload bytes: anything it cannot
//!   keep in place is preserved in quarantine.
//!
//! The doctor validates *structure*, not *semantics*: a `.units` file
//! must carry its header and a chain of checksummed records, the
//! manifest must hash to its trailing checksum. Whether the surviving
//! records belong to the campaign the user intends to resume is decided
//! at resume time by the fingerprint in each journal's header.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use tako_sim::storage::{DiskStorage, Storage};

use crate::campaign::{
    parse_manifest, read_units, unit_header_matches, ManifestState, UNIT_HEADER_LEN,
    UNIT_HEADER_MAGIC,
};

/// What the doctor concluded about one file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Structurally valid end to end.
    Clean,
    /// A valid prefix followed by a torn/corrupt tail; repair keeps
    /// the prefix.
    Salvageable {
        /// Intact unit records in the prefix.
        intact: u64,
        /// Bytes of the file that survive repair.
        keep_bytes: u64,
        /// Bytes currently on disk.
        total_bytes: u64,
    },
    /// Structurally invalid; repair quarantines the whole file.
    Corrupt(String),
    /// A stranded `.tmp` staging file from an interrupted atomic
    /// write; repair deletes it (the rename never happened, so the
    /// final file was never at risk).
    Debris,
    /// Free-form evidence (triage bundles) the doctor has no structure
    /// to check.
    Unchecked,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Clean => write!(f, "clean"),
            Verdict::Salvageable {
                intact,
                keep_bytes,
                total_bytes,
            } => write!(
                f,
                "salvageable: {intact} intact units, keep {keep_bytes} of {total_bytes} bytes"
            ),
            Verdict::Corrupt(why) => write!(f, "CORRUPT: {why}"),
            Verdict::Debris => write!(f, "tmp debris (stranded atomic-write staging file)"),
            Verdict::Unchecked => write!(f, "unchecked (free-form)"),
        }
    }
}

/// One scanned file.
#[derive(Debug)]
pub struct Entry {
    /// The file.
    pub path: PathBuf,
    /// What kind of journal artifact it is.
    pub kind: &'static str,
    /// The verdict.
    pub verdict: Verdict,
}

/// The scan result for a journal directory.
#[derive(Debug, Default)]
pub struct Report {
    /// Per-file verdicts, sorted by path for deterministic output.
    pub entries: Vec<Entry>,
}

impl Report {
    /// Files that verify would flag (corrupt, salvageable, or debris).
    pub fn flagged(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| !matches!(e.verdict, Verdict::Clean | Verdict::Unchecked))
            .count()
    }

    /// Human-readable listing, one line per file.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for e in &self.entries {
            s.push_str(&format!(
                "{:<12} {}  {}\n",
                e.kind,
                e.path.display(),
                e.verdict
            ));
        }
        s.push_str(&format!(
            "{} files scanned, {} flagged\n",
            self.entries.len(),
            self.flagged()
        ));
        s
    }
}

/// Classify one `.units` journal.
fn check_units(bytes: &[u8]) -> Verdict {
    if bytes.len() < UNIT_HEADER_LEN || bytes[..4] != UNIT_HEADER_MAGIC {
        return Verdict::Corrupt("missing or mangled UJH1 header".into());
    }
    let fp = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
    let (units, at) = read_units(unit_header_matches(bytes, fp).unwrap());
    let intact = units.len() as u64;
    let keep = (UNIT_HEADER_LEN + at) as u64;
    if keep == bytes.len() as u64 {
        Verdict::Clean
    } else {
        Verdict::Salvageable {
            intact,
            keep_bytes: keep,
            total_bytes: bytes.len() as u64,
        }
    }
}

/// Classify the manifest.
fn check_manifest(bytes: &[u8]) -> Verdict {
    match parse_manifest(&String::from_utf8_lossy(bytes)) {
        ManifestState::Valid { .. } => Verdict::Clean,
        ManifestState::Corrupt(why) => Verdict::Corrupt(why),
    }
}

/// Scan `dir` and classify every file (non-recursive; the quarantine
/// subdirectory is deliberately not rescanned).
///
/// # Errors
///
/// I/O errors listing the directory or reading a file. A *corrupt*
/// file is a verdict, not an error.
pub fn scan(dir: &Path) -> io::Result<Report> {
    let storage = DiskStorage;
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    names.sort();
    let mut report = Report::default();
    for path in names {
        let fname = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let (kind, verdict) = if fname.ends_with(".tmp") {
            ("tmp", Verdict::Debris)
        } else if fname == "manifest.txt" {
            ("manifest", check_manifest(&storage.read(&path)?))
        } else if fname.ends_with(".units") {
            ("units", check_units(&storage.read(&path)?))
        } else {
            ("other", Verdict::Unchecked)
        };
        report.entries.push(Entry {
            path,
            kind,
            verdict,
        });
    }
    Ok(report)
}

/// What [`repair`] did.
#[derive(Debug, Default)]
pub struct RepairSummary {
    /// Files moved into `quarantine/`.
    pub quarantined: Vec<PathBuf>,
    /// Unit journals truncated to their longest valid prefix, with the
    /// byte length kept.
    pub truncated: Vec<(PathBuf, u64)>,
    /// `.tmp` staging debris deleted.
    pub removed: Vec<PathBuf>,
}

impl RepairSummary {
    /// Whether repair changed anything at all.
    pub fn untouched(&self) -> bool {
        self.quarantined.is_empty() && self.truncated.is_empty() && self.removed.is_empty()
    }
}

/// Repair `dir` in place: truncate salvageable unit journals, move
/// corrupt files to `dir/quarantine/`, delete `.tmp` debris, and write
/// `dir/quarantine/report.txt` describing every action. Idempotent: a
/// second run finds a clean journal and does nothing.
///
/// # Errors
///
/// I/O errors performing the repairs.
pub fn repair(dir: &Path) -> io::Result<RepairSummary> {
    let report = scan(dir)?;
    let storage = DiskStorage;
    let quarantine = dir.join("quarantine");
    let mut summary = RepairSummary::default();
    let mut log = String::from("tako_fsck repair report\n");
    for e in &report.entries {
        match &e.verdict {
            Verdict::Clean | Verdict::Unchecked => {}
            Verdict::Debris => {
                storage.remove(&e.path)?;
                log.push_str(&format!("removed debris {}\n", e.path.display()));
                summary.removed.push(e.path.clone());
            }
            Verdict::Salvageable {
                intact, keep_bytes, ..
            } => {
                storage.truncate(&e.path, *keep_bytes)?;
                log.push_str(&format!(
                    "truncated {} to {keep_bytes} bytes ({intact} intact units)\n",
                    e.path.display()
                ));
                summary.truncated.push((e.path.clone(), *keep_bytes));
            }
            Verdict::Corrupt(why) => {
                std::fs::create_dir_all(&quarantine)?;
                let dst = quarantine.join(e.path.file_name().unwrap_or_default());
                std::fs::rename(&e.path, &dst)?;
                log.push_str(&format!(
                    "quarantined {} -> {} ({why})\n",
                    e.path.display(),
                    dst.display()
                ));
                summary.quarantined.push(dst);
            }
        }
    }
    if !summary.untouched() {
        std::fs::create_dir_all(&quarantine)?;
        storage.write_atomic(&quarantine.join("report.txt"), log.as_bytes())?;
    }
    Ok(summary)
}
