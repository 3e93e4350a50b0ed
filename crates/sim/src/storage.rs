//! Crash-safe persistence fabric with deterministic I/O fault injection.
//!
//! Every durable write in the stack — campaign manifests, unit-journal
//! appends, triage bundles, attempt logs, `metrics.json` — goes
//! through a [`Storage`] backend instead of calling `std::fs` directly.
//! Two backends exist:
//!
//! * [`DiskStorage`] — the real filesystem, with an atomic-write
//!   discipline: whole-file writes land in a temp file that is synced
//!   and renamed into place, so a crash mid-write can never leave a
//!   half-record under the final name.
//! * [`FaultStorage`] — a deterministic wrapper that counts every
//!   durable operation as an *I/O site* and injects a scheduled fault
//!   at the N-th site: crash before or after the operation, tear a
//!   write at byte k, drop the rename of an atomic write (leaving only
//!   temp debris), duplicate an append, flip a bit in the written
//!   bytes, or surface a transient/permanent I/O error. The plan is the
//!   same seeded [`Schedule`] and [`FaultCursor`] the hierarchy's
//!   [`FaultPlan`](crate::fault::FaultPlan) uses, so a crash-point sweep
//!   can enumerate *every* site of a campaign and prove recovery from
//!   each.
//!
//! Injected crashes are modeled as panics carrying the
//! [`CRASH_MARKER`] prefix; the sweep harness catches them with
//! `catch_unwind`, exactly as the campaign runner already treats
//! `--crash-after-units`. Torn writes, dropped renames, bit flips, and
//! duplicated appends corrupt *silently* (optionally crashing right
//! after), which is what real power loss and bit rot do.
//!
//! Failed operations are classified [`IoClass::Transient`] or
//! [`IoClass::Permanent`] and recorded per backend instance
//! ([`Storage::health`]); the campaign runner reports that tally in its
//! status line.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::fault::{FaultCursor, Schedule, Scheduled};

/// Panic-payload prefix for injected storage crashes; sweep harnesses
/// and the campaign runner recognize interrupted attempts by it.
pub const CRASH_MARKER: &str = "io-crash:";

/// Message prefix for permanent storage failures surfaced as panics by
/// code that cannot return an error (the unit-journal append path).
/// The campaign runner suppresses retries when it sees this marker —
/// backoff only helps transient faults.
pub const PERMANENT_MARKER: &str = "storage[permanent]:";

// ---------------------------------------------------------------------
// Error classification & health accounting
// ---------------------------------------------------------------------

/// Whether an I/O error is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoClass {
    /// Plausibly goes away on its own (interrupted syscall, timeout,
    /// resource pressure): the seeded retry backoff applies.
    Transient,
    /// Will not improve with retries (corrupt data, missing file,
    /// permission denied, disk full): fail fast, no backoff.
    Permanent,
}

/// Classify an `io::Error` for retry purposes.
pub fn classify(e: &io::Error) -> IoClass {
    use io::ErrorKind::*;
    match e.kind() {
        Interrupted | WouldBlock | TimedOut | ResourceBusy | Deadlock => IoClass::Transient,
        _ => IoClass::Permanent,
    }
}

/// Running tally of storage failures, kept per backend instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IoHealth {
    /// Failed operations classified transient.
    pub transient: u64,
    /// Failed operations classified permanent.
    pub permanent: u64,
    /// Description of the most recent failure.
    pub last: Option<String>,
}

impl IoHealth {
    /// True when no failure has been recorded.
    pub fn is_clean(&self) -> bool {
        self.transient == 0 && self.permanent == 0
    }

    fn note(&mut self, class: IoClass, detail: String) {
        match class {
            IoClass::Transient => self.transient += 1,
            IoClass::Permanent => self.permanent += 1,
        }
        self.last = Some(detail);
    }
}

impl fmt::Display for IoHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} transient, {} permanent I/O failures",
            self.transient, self.permanent
        )?;
        if let Some(last) = &self.last {
            write!(f, " (last: {last})")?;
        }
        Ok(())
    }
}

fn note_failure(shared: &Mutex<IoHealth>, op: &str, path: &Path, e: &io::Error) -> IoClass {
    let class = classify(e);
    let detail = format!("{op} {}: {e} ({class:?})", path.display());
    if let Ok(mut h) = shared.lock() {
        h.note(class, detail);
    }
    class
}

// ---------------------------------------------------------------------
// The Storage trait
// ---------------------------------------------------------------------

/// A durable byte store. Everything the campaign fabric persists goes
/// through one of these, so a fault-injecting backend can interpose on
/// every I/O site.
///
/// All whole-file writes are atomic (temp + sync + rename); appends
/// are raw (the record formats layered above carry per-record
/// checksums and tolerate torn tails).
pub trait Storage: Send + Sync {
    /// Read the whole file.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from the underlying store.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Atomically replace `path` with `bytes`: a crash at any point
    /// leaves either the old content or the new, never a mixture.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from the underlying store.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Append `bytes` to `path`, creating it if absent. Not atomic: a
    /// crash can tear the tail, which the record formats above detect
    /// by checksum.
    ///
    /// # Errors
    ///
    /// Any `io::Error` from the underlying store.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Flush `path`'s content to stable media (the durability point of
    /// a batch of appends).
    ///
    /// # Errors
    ///
    /// Any `io::Error` from the underlying store.
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// Truncate `path` to `len` bytes (dropping a corrupt tail).
    ///
    /// # Errors
    ///
    /// Any `io::Error` from the underlying store.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;

    /// Remove `path`; absent files are not an error.
    ///
    /// # Errors
    ///
    /// Any `io::Error` other than `NotFound`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// This backend's accumulated failure tally.
    fn health(&self) -> IoHealth;
}

// ---------------------------------------------------------------------
// DiskStorage
// ---------------------------------------------------------------------

/// The real filesystem, with the atomic-write discipline.
#[derive(Debug, Default)]
pub struct DiskStorage {
    health: Mutex<IoHealth>,
}

impl DiskStorage {
    /// A fresh backend with a clean health tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh backend behind an `Arc`, ready for [`CampaignOpts`-style
    /// sharing](crate::storage::Storage).
    pub fn shared() -> Arc<dyn Storage> {
        Arc::new(Self::new())
    }

    fn track<T>(&self, op: &str, path: &Path, r: io::Result<T>) -> io::Result<T> {
        if let Err(e) = &r {
            note_failure(&self.health, op, path, e);
        }
        r
    }
}

/// The temp-file sibling an atomic write stages into before renaming.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

fn disk_write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_sibling(path);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)
}

fn disk_append(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut f = OpenOptions::new().create(true).append(true).open(path)?;
    f.write_all(bytes)
}

impl Storage for DiskStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.track("read", path, std::fs::read(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.track("write", path, disk_write_atomic(path, bytes))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.track("append", path, disk_append(path, bytes))
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let r = File::open(path).and_then(|f| f.sync_data());
        self.track("sync", path, r)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let r = OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(len));
        self.track("truncate", path, r)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let r = match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        };
        self.track("remove", path, r)
    }

    fn health(&self) -> IoHealth {
        self.health.lock().map(|h| h.clone()).unwrap_or_default()
    }
}

// ---------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------

/// What goes wrong at a scheduled I/O site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFaultKind {
    /// Die before the operation performs any I/O.
    Crash,
    /// Perform the operation, then die — power loss between a write
    /// reaching the OS and the process continuing.
    CrashAfter,
    /// A write/append persists only its first `keep` bytes, then the
    /// process dies (the canonical torn write).
    TornWrite {
        /// Bytes that reach the file before the crash.
        keep: u64,
    },
    /// An atomic write stages its temp file but dies before the
    /// rename: the final name keeps its old content, temp debris
    /// remains.
    DropRename,
    /// The append is applied twice (a retried write that actually
    /// landed the first time). No crash.
    DuplicateAppend,
    /// One bit of the written bytes is flipped on its way to the
    /// medium. No crash — silent corruption.
    BitFlip {
        /// Byte offset within the written buffer (wrapped by len).
        offset: u64,
        /// Bit index 0..8 within that byte.
        bit: u8,
    },
    /// The operation fails with a transient error (`Interrupted`).
    TransientError,
    /// The operation fails with a permanent error (`InvalidData`).
    PermanentError,
}

impl IoFaultKind {
    /// All kinds, in a fixed order (used by `mix` plans).
    pub const ALL: [IoFaultKind; 8] = [
        IoFaultKind::Crash,
        IoFaultKind::CrashAfter,
        IoFaultKind::TornWrite { keep: 7 },
        IoFaultKind::DropRename,
        IoFaultKind::DuplicateAppend,
        IoFaultKind::BitFlip { offset: 3, bit: 5 },
        IoFaultKind::TransientError,
        IoFaultKind::PermanentError,
    ];

    /// Short name used by the `--io-faults seed:kind[:count]` flag.
    pub fn name(self) -> &'static str {
        match self {
            IoFaultKind::Crash => "crash",
            IoFaultKind::CrashAfter => "crash-after",
            IoFaultKind::TornWrite { .. } => "torn",
            IoFaultKind::DropRename => "drop-rename",
            IoFaultKind::DuplicateAppend => "dup-append",
            IoFaultKind::BitFlip { .. } => "flip",
            IoFaultKind::TransientError => "transient",
            IoFaultKind::PermanentError => "permanent",
        }
    }
}

/// One scheduled I/O fault: at the `at_op`-th durable operation the
/// backend performs (0-based), `kind` happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoFault {
    /// Which I/O site (operation index) the fault fires at.
    pub at_op: u64,
    /// What goes wrong there.
    pub kind: IoFaultKind,
}

impl Scheduled for IoFault {
    type Kind = IoFaultKind;
    const ALL: &'static [IoFaultKind] = &IoFaultKind::ALL;
    const NOUN: &'static str = "io-fault";
    const WINDOW: Range<u64> = 0..64;
    fn name(kind: IoFaultKind) -> &'static str {
        kind.name()
    }
    fn at(at_op: u64, kind: IoFaultKind) -> Self {
        IoFault { at_op, kind }
    }
}

/// A seeded, deterministic schedule of I/O faults — the persistence
/// sibling of [`FaultPlan`](crate::fault::FaultPlan). Sweeps that know
/// the site count place one fault per site with
/// [`IoFaultPlan::single`].
pub type IoFaultPlan = Schedule<IoFault>;

impl IoFaultPlan {
    /// A plan with a single hand-placed fault.
    pub fn single(at_op: u64, kind: IoFaultKind) -> Self {
        IoFaultPlan {
            seed: 0,
            events: vec![IoFault { at_op, kind }],
        }
    }
}

// ---------------------------------------------------------------------
// FaultStorage
// ---------------------------------------------------------------------

/// Deterministic fault-injecting wrapper around another [`Storage`].
///
/// Every trait call counts as one I/O site; a scheduled fault fires
/// when its site comes up. Crashes are panics carrying
/// [`CRASH_MARKER`]; corruption kinds silently mangle the bytes that
/// reach the inner backend.
pub struct FaultStorage {
    inner: Arc<dyn Storage>,
    plan: IoFaultPlan,
    ops: AtomicU64,
    cursor: Mutex<FaultCursor>,
    health: Mutex<IoHealth>,
}

impl fmt::Debug for FaultStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultStorage")
            .field("plan", &self.plan)
            .field("ops", &self.ops_performed())
            .finish_non_exhaustive()
    }
}

impl FaultStorage {
    /// Wrap `inner` with `plan`.
    pub fn new(inner: Arc<dyn Storage>, plan: IoFaultPlan) -> Self {
        let cursor = Mutex::new(FaultCursor::new(plan.events.len()));
        FaultStorage {
            inner,
            plan,
            ops: AtomicU64::new(0),
            cursor,
            health: Mutex::new(IoHealth::default()),
        }
    }

    /// A counting backend over a fresh [`DiskStorage`] with no faults —
    /// the first pass of a crash-point sweep, measuring how many I/O
    /// sites a campaign has.
    pub fn counting() -> Self {
        Self::new(Arc::new(DiskStorage::new()), IoFaultPlan::empty())
    }

    /// Total durable operations performed (the I/O-site count).
    pub fn ops_performed(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// How many scheduled faults have fired.
    pub fn faults_fired(&self) -> u64 {
        self.cursor.lock().map(|c| c.fired()).unwrap_or(0)
    }

    /// Advance the op cursor and return the fault due at this site, if
    /// any.
    fn step(&self, op: &str, path: &Path) -> Option<IoFaultKind> {
        let site = self.ops.fetch_add(1, Ordering::SeqCst);
        let kind = (self.cursor.lock().ok()?)
            .fire(&self.plan.events, |f| f.at_op == site)?
            .kind;
        // Error kinds are reported through note_failure when the
        // synthesized error is returned, not here.
        if !matches!(
            kind,
            IoFaultKind::TransientError | IoFaultKind::PermanentError
        ) {
            if let Ok(mut h) = self.health.lock() {
                h.last = Some(format!(
                    "injected {} at io site {site} ({op} {})",
                    kind.name(),
                    path.display()
                ));
            }
        }
        Some(kind)
    }

    fn crash(&self, op: &str, path: &Path, when: &str) -> ! {
        panic!(
            "{CRASH_MARKER} injected crash {when} {op} {} \
             (deterministic I/O fault plan, seed {})",
            path.display(),
            self.plan.seed
        );
    }

    fn synth_error(&self, kind: IoFaultKind, op: &str, path: &Path) -> io::Error {
        let (ek, what) = match kind {
            IoFaultKind::TransientError => (io::ErrorKind::Interrupted, "transient"),
            _ => (io::ErrorKind::InvalidData, "permanent"),
        };
        let e = io::Error::new(ek, format!("injected {what} I/O error"));
        note_failure(&self.health, op, path, &e);
        e
    }

    /// Apply `kind` to a buffered write of `bytes`, returning the bytes
    /// that actually reach the medium (and whether to crash after).
    fn mangle(kind: IoFaultKind, bytes: &[u8]) -> (Vec<u8>, bool) {
        match kind {
            IoFaultKind::TornWrite { keep } => {
                let keep = (keep as usize).min(bytes.len());
                (bytes[..keep].to_vec(), true)
            }
            IoFaultKind::BitFlip { offset, bit } => {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let at = (offset as usize) % out.len();
                    out[at] ^= 1u8 << (bit % 8);
                }
                (out, false)
            }
            _ => (bytes.to_vec(), false),
        }
    }
}

impl Storage for FaultStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.step("read", path) {
            Some(IoFaultKind::Crash) => self.crash("read", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let r = self.inner.read(path);
                drop(r);
                self.crash("read", path, "after")
            }
            Some(k @ (IoFaultKind::TransientError | IoFaultKind::PermanentError)) => {
                Err(self.synth_error(k, "read", path))
            }
            _ => self.inner.read(path),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.step("write", path) {
            Some(IoFaultKind::Crash) => self.crash("write", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = self.inner.write_atomic(path, bytes);
                self.crash("write", path, "after")
            }
            Some(IoFaultKind::DropRename) => {
                // Stage the temp file exactly as the atomic path would,
                // then die before the rename: final name untouched.
                let _ = self.inner.write_atomic(&tmp_sibling(path), bytes);
                self.crash("write", path, "mid (rename dropped)")
            }
            Some(k @ IoFaultKind::TornWrite { .. }) => {
                // A torn whole-file write tears the *temp* file and then
                // dies before the rename would happen — the atomic
                // discipline means the final name never sees the tear.
                let (torn, _) = Self::mangle(k, bytes);
                let _ = self.inner.write_atomic(&tmp_sibling(path), &torn);
                self.crash("write", path, "mid (torn)")
            }
            Some(k @ IoFaultKind::BitFlip { .. }) => {
                let (flipped, _) = Self::mangle(k, bytes);
                self.inner.write_atomic(path, &flipped)
            }
            Some(k @ (IoFaultKind::TransientError | IoFaultKind::PermanentError)) => {
                Err(self.synth_error(k, "write", path))
            }
            Some(IoFaultKind::DuplicateAppend) | None => self.inner.write_atomic(path, bytes),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.step("append", path) {
            Some(IoFaultKind::Crash) => self.crash("append", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = self.inner.append(path, bytes);
                self.crash("append", path, "after")
            }
            Some(k @ IoFaultKind::TornWrite { .. }) => {
                // Appends have no rename shield: the tear lands in the
                // journal itself and the per-record checksums must
                // catch it on resume.
                let (torn, _) = Self::mangle(k, bytes);
                let _ = self.inner.append(path, &torn);
                self.crash("append", path, "mid (torn)")
            }
            Some(IoFaultKind::DuplicateAppend) => {
                self.inner.append(path, bytes)?;
                self.inner.append(path, bytes)
            }
            Some(k @ IoFaultKind::BitFlip { .. }) => {
                let (flipped, _) = Self::mangle(k, bytes);
                self.inner.append(path, &flipped)
            }
            Some(k @ (IoFaultKind::TransientError | IoFaultKind::PermanentError)) => {
                Err(self.synth_error(k, "append", path))
            }
            Some(IoFaultKind::DropRename) | None => self.inner.append(path, bytes),
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.step("sync", path) {
            Some(IoFaultKind::Crash | IoFaultKind::TornWrite { .. }) => {
                self.crash("sync", path, "before")
            }
            Some(IoFaultKind::CrashAfter | IoFaultKind::DropRename) => {
                let _ = self.inner.sync(path);
                self.crash("sync", path, "after")
            }
            Some(k @ (IoFaultKind::TransientError | IoFaultKind::PermanentError)) => {
                Err(self.synth_error(k, "sync", path))
            }
            _ => self.inner.sync(path),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.step("truncate", path) {
            Some(IoFaultKind::Crash) => self.crash("truncate", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = self.inner.truncate(path, len);
                self.crash("truncate", path, "after")
            }
            Some(k @ (IoFaultKind::TransientError | IoFaultKind::PermanentError)) => {
                Err(self.synth_error(k, "truncate", path))
            }
            _ => self.inner.truncate(path, len),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes are metadata, not durable I/O: not a site.
        self.inner.exists(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.step("remove", path) {
            Some(IoFaultKind::Crash) => self.crash("remove", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = self.inner.remove(path);
                self.crash("remove", path, "after")
            }
            Some(k @ (IoFaultKind::TransientError | IoFaultKind::PermanentError)) => {
                Err(self.synth_error(k, "remove", path))
            }
            _ => self.inner.remove(path),
        }
    }

    fn health(&self) -> IoHealth {
        let mut h = self.health.lock().map(|h| h.clone()).unwrap_or_default();
        let inner = self.inner.health();
        h.transient += inner.transient;
        h.permanent += inner.permanent;
        if h.last.is_none() {
            h.last = inner.last;
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tako-storage-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn disk_atomic_write_roundtrip_and_overwrite() {
        let d = tmpdir("atomic");
        let s = DiskStorage::new();
        let p = d.join("file.bin");
        s.write_atomic(&p, b"first").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"first");
        s.write_atomic(&p, b"second").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"second");
        assert!(!s.exists(&tmp_sibling(&p)), "temp debris left behind");
        assert!(s.health().is_clean());
    }

    #[test]
    fn disk_append_and_truncate() {
        let d = tmpdir("append");
        let s = DiskStorage::new();
        let p = d.join("log");
        s.append(&p, b"ab").unwrap();
        s.append(&p, b"cd").unwrap();
        s.sync(&p).unwrap();
        assert_eq!(s.read(&p).unwrap(), b"abcd");
        s.truncate(&p, 3).unwrap();
        assert_eq!(s.read(&p).unwrap(), b"abc");
        s.remove(&p).unwrap();
        s.remove(&p).unwrap(); // absent is fine
        assert!(!s.exists(&p));
    }

    #[test]
    fn disk_read_failure_is_classified_permanent() {
        let d = tmpdir("classify");
        let s = DiskStorage::new();
        assert!(s.read(&d.join("nope")).is_err());
        let h = s.health();
        assert_eq!(h.permanent, 1);
        assert_eq!(h.transient, 0);
    }

    #[test]
    fn fault_crash_fires_at_exact_site() {
        let d = tmpdir("crash");
        let s = FaultStorage::new(
            Arc::new(DiskStorage::new()),
            IoFaultPlan::single(2, IoFaultKind::Crash),
        );
        let p = d.join("f");
        s.write_atomic(&p, b"0").unwrap(); // site 0
        s.append(&p, b"1").unwrap(); // site 1
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.append(&p, b"2") // site 2 → crash before
        }));
        let msg = *r.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.starts_with(CRASH_MARKER), "payload: {msg}");
        // The crash fired *before* the op: nothing appended.
        assert_eq!(std::fs::read(&p).unwrap(), b"01");
        assert_eq!(s.faults_fired(), 1);
    }

    #[test]
    fn fault_torn_append_persists_prefix_then_crashes() {
        let d = tmpdir("torn");
        let s = FaultStorage::new(
            Arc::new(DiskStorage::new()),
            IoFaultPlan::single(0, IoFaultKind::TornWrite { keep: 3 }),
        );
        let p = d.join("j");
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.append(&p, b"ABCDEFGH")));
        assert!(r.is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"ABC");
    }

    #[test]
    fn fault_drop_rename_leaves_old_content() {
        let d = tmpdir("rename");
        let disk: Arc<dyn Storage> = Arc::new(DiskStorage::new());
        let p = d.join("m");
        disk.write_atomic(&p, b"old").unwrap();
        let s = FaultStorage::new(disk, IoFaultPlan::single(0, IoFaultKind::DropRename));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.write_atomic(&p, b"new-and-longer")
        }));
        assert!(r.is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"old", "rename must not land");
        assert!(p.with_file_name("m.tmp").exists(), "temp debris expected");
    }

    #[test]
    fn fault_bit_flip_corrupts_silently() {
        let d = tmpdir("flip");
        let s = FaultStorage::new(
            Arc::new(DiskStorage::new()),
            IoFaultPlan::single(0, IoFaultKind::BitFlip { offset: 1, bit: 0 }),
        );
        let p = d.join("b");
        s.write_atomic(&p, &[0u8, 0, 0]).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), vec![0u8, 1, 0]);
    }

    #[test]
    fn fault_duplicate_append_doubles_the_record() {
        let d = tmpdir("dup");
        let s = FaultStorage::new(
            Arc::new(DiskStorage::new()),
            IoFaultPlan::single(0, IoFaultKind::DuplicateAppend),
        );
        let p = d.join("dup");
        s.append(&p, b"rec").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"recrec");
    }

    #[test]
    fn fault_errors_classify_and_count() {
        let d = tmpdir("errs");
        let plan = IoFaultPlan {
            seed: 0,
            events: vec![
                IoFault {
                    at_op: 0,
                    kind: IoFaultKind::TransientError,
                },
                IoFault {
                    at_op: 1,
                    kind: IoFaultKind::PermanentError,
                },
            ],
        };
        let s = FaultStorage::new(Arc::new(DiskStorage::new()), plan);
        let p = d.join("x");
        let e = s.append(&p, b"a").unwrap_err();
        assert_eq!(classify(&e), IoClass::Transient);
        let e = s.append(&p, b"b").unwrap_err();
        assert_eq!(classify(&e), IoClass::Permanent);
        let h = s.health();
        assert_eq!((h.transient, h.permanent), (1, 1));
        // Un-faulted sites pass through untouched.
        s.append(&p, b"c").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"c");
    }

    #[test]
    fn counting_backend_counts_ops_and_never_fires() {
        let d = tmpdir("count");
        let s = FaultStorage::counting();
        let p = d.join("c");
        s.write_atomic(&p, b"1").unwrap();
        s.append(&p, b"2").unwrap();
        s.sync(&p).unwrap();
        let _ = s.read(&p).unwrap();
        s.truncate(&p, 1).unwrap();
        s.remove(&p).unwrap();
        assert_eq!(s.ops_performed(), 6);
        assert_eq!(s.faults_fired(), 0);
    }

    #[test]
    fn seeded_plan_is_deterministic_and_parse_forms_work() {
        let a = IoFaultPlan::seeded(9, &IoFaultKind::ALL, 12, 0, 100);
        let b = IoFaultPlan::seeded(9, &IoFaultKind::ALL, 12, 0, 100);
        assert_eq!(a, b);
        assert_ne!(a, IoFaultPlan::seeded(10, &IoFaultKind::ALL, 12, 0, 100));
        for (i, f) in a.events.iter().enumerate() {
            assert!(f.at_op < 100);
            assert_eq!(f.kind, IoFaultKind::ALL[i % IoFaultKind::ALL.len()]);
        }
        let p = IoFaultPlan::parse("7:torn").unwrap();
        assert_eq!(p.events.len(), 1);
        assert!(matches!(p.events[0].kind, IoFaultKind::TornWrite { .. }));
        assert_eq!(IoFaultPlan::parse("3:mix:5").unwrap().events.len(), 5);
        assert!(IoFaultPlan::parse("x:torn").is_err());
        assert!(IoFaultPlan::parse("1:bogus").is_err());
        assert!(IoFaultPlan::parse("1").is_err());
    }
}
