//! Crash-safe persistence fabric with deterministic I/O fault injection.
//!
//! Every durable write in the stack — campaign manifests, unit-journal
//! appends, triage bundles, `metrics.json` — goes
//! through a [`Storage`] backend instead of calling `std::fs` directly.
//! Two backends exist:
//!
//! * [`DiskStorage`] — the real filesystem, with an atomic-write
//!   discipline: whole-file writes land in a temp file that is synced
//!   and renamed into place, so a crash mid-write can never leave a
//!   half-record under the final name.
//! * [`FaultStorage`] — a deterministic wrapper over the disk that
//!   counts every durable operation as an *I/O site* and injects one
//!   fault at a chosen site: crash before or after the operation, tear
//!   a write at byte k, drop the rename of an atomic write (leaving only
//!   temp debris), duplicate an append, flip a bit in the written
//!   bytes, or fail with an I/O error. A crash-point sweep runs one
//!   campaign per site and kind, so it can enumerate *every* site and
//!   prove recovery from each.
//!
//! Injected crashes are modeled as panics carrying the
//! [`CRASH_MARKER`] prefix; the sweep harness catches them with
//! `catch_unwind`, exactly as the campaign runner already treats
//! `--crash-after-units`. Torn writes, dropped renames, bit flips, and
//! duplicated appends corrupt *silently* (optionally crashing right
//! after), which is what real power loss and bit rot do.
//!
//! A failed operation returns its `io::Error` and nothing more: no
//! backend re-issues it or keeps a tally. The caller fails what it was
//! doing, and recovery is the campaign's `--resume`.

use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Panic-payload prefix for injected storage crashes; sweep harnesses
/// and the campaign runner recognize an interrupted run by it.
pub const CRASH_MARKER: &str = "io-crash:";

/// The message of the error [`FaultStorage`] injects; the sweep harness
/// tells an injected failure from a genuine one by it.
pub const INJECTED_ERROR: &str = "injected I/O error";

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
}

// ---------------------------------------------------------------------
// DiskStorage
// ---------------------------------------------------------------------

/// The real filesystem, with the atomic-write discipline.
#[derive(Debug)]
pub struct DiskStorage;

/// The temp-file sibling an atomic write stages into before renaming.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

impl Storage for DiskStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_sibling(path);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        File::open(path)?.sync_data()
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        OpenOptions::new().write(true).open(path)?.set_len(len)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }
}

// ---------------------------------------------------------------------
// FaultStorage
// ---------------------------------------------------------------------

/// What goes wrong at the faulted I/O site.
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
    /// The operation performs no I/O and returns an error.
    Error,
}

impl IoFaultKind {
    /// Every kind, in a fixed order, each with its default payload.
    pub const ALL: [IoFaultKind; 7] = [
        IoFaultKind::Crash,
        IoFaultKind::CrashAfter,
        IoFaultKind::TornWrite { keep: 7 },
        IoFaultKind::DropRename,
        IoFaultKind::DuplicateAppend,
        IoFaultKind::BitFlip { offset: 3, bit: 5 },
        IoFaultKind::Error,
    ];

    /// Short name, as `crash_campaign --kinds` spells it.
    pub fn name(self) -> &'static str {
        match self {
            IoFaultKind::Crash => "crash",
            IoFaultKind::CrashAfter => "crash-after",
            IoFaultKind::TornWrite { .. } => "torn",
            IoFaultKind::DropRename => "drop-rename",
            IoFaultKind::DuplicateAppend => "dup-append",
            IoFaultKind::BitFlip { .. } => "flip",
            IoFaultKind::Error => "error",
        }
    }
}

/// Deterministic fault-injecting wrapper around [`DiskStorage`].
///
/// Every trait call but `exists` counts as one I/O site; the one
/// fault, if any, fires when its site comes up. Crashes are panics
/// carrying [`CRASH_MARKER`]; corruption kinds silently mangle the
/// bytes that reach the disk.
#[derive(Debug)]
pub struct FaultStorage {
    fault: Option<(u64, IoFaultKind)>,
    ops: AtomicU64,
}

impl FaultStorage {
    /// A backend that injects `kind` at the `at_op`-th durable
    /// operation (0-based).
    pub fn new(at_op: u64, kind: IoFaultKind) -> Self {
        FaultStorage {
            fault: Some((at_op, kind)),
            ops: AtomicU64::new(0),
        }
    }

    /// A counting backend with no fault — the first pass of a
    /// crash-point sweep, measuring how many I/O sites a campaign has.
    pub fn counting() -> Self {
        FaultStorage {
            fault: None,
            ops: AtomicU64::new(0),
        }
    }

    /// Total durable operations performed (the I/O-site count).
    pub fn ops_performed(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Advance the op counter and return the fault due at this site, if
    /// any.
    fn step(&self) -> Option<IoFaultKind> {
        let site = self.ops.fetch_add(1, Ordering::SeqCst);
        self.fault
            .filter(|&(at_op, _)| at_op == site)
            .map(|(_, kind)| kind)
    }

    fn crash(op: &str, path: &Path, when: &str) -> ! {
        panic!(
            "{CRASH_MARKER} injected crash {when} {op} {} (deterministic I/O fault)",
            path.display()
        );
    }

    fn error() -> io::Error {
        io::Error::other(INJECTED_ERROR)
    }

    /// Apply `kind` to a buffered write of `bytes`, returning the bytes
    /// that actually reach the medium.
    fn mangle(kind: IoFaultKind, bytes: &[u8]) -> Vec<u8> {
        match kind {
            IoFaultKind::TornWrite { keep } => bytes[..(keep as usize).min(bytes.len())].to_vec(),
            IoFaultKind::BitFlip { offset, bit } => {
                let mut out = bytes.to_vec();
                if !out.is_empty() {
                    let at = (offset as usize) % out.len();
                    out[at] ^= 1u8 << (bit % 8);
                }
                out
            }
            _ => bytes.to_vec(),
        }
    }
}

impl Storage for FaultStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.step() {
            Some(IoFaultKind::Crash) => Self::crash("read", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = DiskStorage.read(path);
                Self::crash("read", path, "after")
            }
            Some(IoFaultKind::Error) => Err(Self::error()),
            _ => DiskStorage.read(path),
        }
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.step() {
            Some(IoFaultKind::Crash) => Self::crash("write", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = DiskStorage.write_atomic(path, bytes);
                Self::crash("write", path, "after")
            }
            Some(IoFaultKind::DropRename) => {
                // Stage the temp file exactly as the atomic path would,
                // then die before the rename: final name untouched.
                let _ = DiskStorage.write_atomic(&tmp_sibling(path), bytes);
                Self::crash("write", path, "mid (rename dropped)")
            }
            Some(k @ IoFaultKind::TornWrite { .. }) => {
                // A torn whole-file write tears the *temp* file and then
                // dies before the rename would happen — the atomic
                // discipline means the final name never sees the tear.
                let _ = DiskStorage.write_atomic(&tmp_sibling(path), &Self::mangle(k, bytes));
                Self::crash("write", path, "mid (torn)")
            }
            Some(k @ IoFaultKind::BitFlip { .. }) => {
                DiskStorage.write_atomic(path, &Self::mangle(k, bytes))
            }
            Some(IoFaultKind::Error) => Err(Self::error()),
            Some(IoFaultKind::DuplicateAppend) | None => DiskStorage.write_atomic(path, bytes),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.step() {
            Some(IoFaultKind::Crash) => Self::crash("append", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = DiskStorage.append(path, bytes);
                Self::crash("append", path, "after")
            }
            Some(k @ IoFaultKind::TornWrite { .. }) => {
                // Appends have no rename shield: the tear lands in the
                // journal itself and the per-record checksums must
                // catch it on resume.
                let _ = DiskStorage.append(path, &Self::mangle(k, bytes));
                Self::crash("append", path, "mid (torn)")
            }
            Some(IoFaultKind::DuplicateAppend) => {
                DiskStorage.append(path, bytes)?;
                DiskStorage.append(path, bytes)
            }
            Some(k @ IoFaultKind::BitFlip { .. }) => {
                DiskStorage.append(path, &Self::mangle(k, bytes))
            }
            Some(IoFaultKind::Error) => Err(Self::error()),
            Some(IoFaultKind::DropRename) | None => DiskStorage.append(path, bytes),
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        match self.step() {
            Some(IoFaultKind::Crash | IoFaultKind::TornWrite { .. }) => {
                Self::crash("sync", path, "before")
            }
            Some(IoFaultKind::CrashAfter | IoFaultKind::DropRename) => {
                let _ = DiskStorage.sync(path);
                Self::crash("sync", path, "after")
            }
            Some(IoFaultKind::Error) => Err(Self::error()),
            _ => DiskStorage.sync(path),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        match self.step() {
            Some(IoFaultKind::Crash) => Self::crash("truncate", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = DiskStorage.truncate(path, len);
                Self::crash("truncate", path, "after")
            }
            Some(IoFaultKind::Error) => Err(Self::error()),
            _ => DiskStorage.truncate(path, len),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        // Existence probes are metadata, not durable I/O: not a site.
        DiskStorage.exists(path)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match self.step() {
            Some(IoFaultKind::Crash) => Self::crash("remove", path, "before"),
            Some(IoFaultKind::CrashAfter) => {
                let _ = DiskStorage.remove(path);
                Self::crash("remove", path, "after")
            }
            Some(IoFaultKind::Error) => Err(Self::error()),
            _ => DiskStorage.remove(path),
        }
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
        let s = DiskStorage;
        let p = d.join("file.bin");
        s.write_atomic(&p, b"first").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"first");
        s.write_atomic(&p, b"second").unwrap();
        assert_eq!(s.read(&p).unwrap(), b"second");
        assert!(!s.exists(&tmp_sibling(&p)), "temp debris left behind");
    }

    #[test]
    fn disk_append_and_truncate() {
        let d = tmpdir("append");
        let s = DiskStorage;
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
    fn fault_crash_fires_at_exact_site() {
        let d = tmpdir("crash");
        let s = FaultStorage::new(2, IoFaultKind::Crash);
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
        assert_eq!(s.ops_performed(), 3);
    }

    #[test]
    fn fault_torn_append_persists_prefix_then_crashes() {
        let d = tmpdir("torn");
        let s = FaultStorage::new(0, IoFaultKind::TornWrite { keep: 3 });
        let p = d.join("j");
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.append(&p, b"ABCDEFGH")));
        assert!(r.is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"ABC");
    }

    #[test]
    fn fault_drop_rename_leaves_old_content() {
        let d = tmpdir("rename");
        let p = d.join("m");
        DiskStorage.write_atomic(&p, b"old").unwrap();
        let s = FaultStorage::new(0, IoFaultKind::DropRename);
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
        let s = FaultStorage::new(0, IoFaultKind::BitFlip { offset: 1, bit: 0 });
        let p = d.join("b");
        s.write_atomic(&p, &[0u8, 0, 0]).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), vec![0u8, 1, 0]);
    }

    #[test]
    fn fault_duplicate_append_doubles_the_record() {
        let d = tmpdir("dup");
        let s = FaultStorage::new(0, IoFaultKind::DuplicateAppend);
        let p = d.join("dup");
        s.append(&p, b"rec").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"recrec");
    }

    #[test]
    fn fault_errors_classify_and_count() {
        let d = tmpdir("errs");
        let s = FaultStorage::new(1, IoFaultKind::Error);
        let p = d.join("x");
        s.append(&p, b"a").unwrap();
        // The faulted site performs no I/O and returns the error.
        let e = s.append(&p, b"b").unwrap_err();
        assert_eq!(e.to_string(), "injected I/O error");
        // Un-faulted sites pass through untouched.
        s.append(&p, b"c").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"ac");
        assert_eq!(s.ops_performed(), 3);
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
    }
}
