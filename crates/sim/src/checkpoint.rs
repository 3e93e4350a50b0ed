//! Deterministic snapshot serialization for checkpoint/resume.
//!
//! Long campaigns must survive preemption: a panic, an OS kill, or a
//! deadline enforcement action may interrupt a simulation that has run
//! for minutes. This module provides the wire format every component of
//! the stack serializes through, with a hard contract:
//!
//! > **Resume-from-snapshot is byte-identical to an uninterrupted run.**
//! > Restoring a snapshot into a freshly built system (same
//! > configuration, same registration sequence) and continuing must
//! > produce exactly the cycles, counters, energy bits, and output the
//! > uninterrupted run produces.
//!
//! The format is deliberately simple and offline-auditable:
//!
//! ```text
//! envelope := magic("TAKOSNP\0") version:u32 payload_len:u64
//!             sha256(payload):[u8;32] payload
//! payload  := section*            (each component writes one section)
//! section  := name_len:u16 name:[u8] fields…
//! ```
//!
//! * **Versioned** — [`SNAP_VERSION`] is bumped on any layout change
//!   an older reader could misread; a reader refuses a mismatched
//!   version rather than misinterpreting bytes.
//! * **Checksummed** — the payload digest (via [`crate::digest`])
//!   detects truncated or corrupted snapshot files before any state is
//!   overwritten.
//! * **Canonical** — unordered containers (hash maps, binary heaps) are
//!   serialized in sorted order, so the same logical state always
//!   produces the same bytes and snapshot ids are stable.
//!
//! Components implement [`Snapshot`]: `save` appends the component's
//! mutable state, `load` overwrites it in a freshly *rebuilt* object.
//! Structure that is derivable from the configuration (array geometry,
//! fault-plan events, Morph code) is **not** serialized — resume
//! reconstructs the system from the same `SystemConfig` and the same
//! registration sequence, then `load` replays only the mutable state on
//! top. Section names make a mismatch fail loudly ([`SnapError::Section`])
//! instead of silently shearing fields.
//!
//! [`Record`] is the sibling trait for *campaign unit* checkpoints: the
//! benchmark runner keeps and journals each simulation's result record
//! (value-level, not machine-level) so a resumed campaign does not
//! recompute finished simulations. `f64` round-trips through its exact
//! bit pattern, preserving byte-identical rendered output.

use std::fmt;

use crate::digest::Sha256;

/// Leading magic bytes of a snapshot envelope.
pub const SNAP_MAGIC: [u8; 8] = *b"TAKOSNP\0";

/// Snapshot format version; bump on any serialized-layout change an
/// older reader could misread.
///
/// Version 3: cache tag arrays serialize their structure-of-arrays
/// storage field-by-field (per-way rrpv/lru/flag planes) instead of the
/// old per-line record stream.
/// Version 4: the watchdog diagnostic snapshot gained the blocked
/// line and its LLC `(bank, set)` location.
///
/// The hierarchy section later dropped its trailing observer flag and
/// observer (the observer is not machine state) without a bump, for two
/// reasons. Campaign `.done` envelopes share this version, so a bump
/// would orphan every committed journal and fsck fixture although
/// their layout did not change. And the change only removed the
/// hierarchy's last field, so an older system snapshot still fails to
/// decode, with [`SnapError::TrailingBytes`], instead of being
/// misread.
pub const SNAP_VERSION: u32 = 4;

/// Errors surfaced while decoding a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// The envelope does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The envelope was written by an incompatible format version.
    BadVersion {
        /// Version found in the envelope.
        found: u32,
    },
    /// The payload digest does not match the envelope checksum.
    BadChecksum,
    /// A section header named a different component than expected —
    /// the snapshot and the rebuilt system disagree on structure.
    Section {
        /// Section name the reader expected next.
        expected: String,
        /// Section name found in the stream.
        found: String,
    },
    /// The snapshot's recorded structure does not match the rebuilt
    /// system (different config fingerprint, registration sequence,
    /// or container geometry).
    StateMismatch(String),
    /// Bytes remained after the last expected field.
    TrailingBytes,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a tako snapshot (bad magic)"),
            SnapError::BadVersion { found } => write!(
                f,
                "snapshot format version {found} (this build reads {SNAP_VERSION})"
            ),
            SnapError::BadChecksum => write!(f, "snapshot payload checksum mismatch"),
            SnapError::Section { expected, found } => write!(
                f,
                "snapshot section mismatch: expected `{expected}`, found `{found}`"
            ),
            SnapError::StateMismatch(why) => {
                write!(f, "snapshot does not match the rebuilt system: {why}")
            }
            SnapError::TrailingBytes => write!(f, "trailing bytes after snapshot payload"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only writer for snapshot payload bytes.
///
/// All integers are little-endian; `f64` is written as its exact bit
/// pattern so restored values compare bitwise-equal.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The payload bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consume the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Begin a named section; the reader must expect the same name.
    pub fn section(&mut self, name: &str) {
        debug_assert!(name.len() <= u16::MAX as usize);
        self.put_u16(name.len() as u16);
        self.buf.extend_from_slice(name.as_bytes());
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Append an `f64` as its exact bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append an element count (for the container about to follow).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }
}

/// Cursor over snapshot payload bytes; every getter mirrors a
/// [`SnapWriter`] putter and fails with [`SnapError::Truncated`] when
/// the stream ends early.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from `buf` starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail with [`SnapError::TrailingBytes`] unless fully consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Expect the named section header next.
    ///
    /// # Errors
    ///
    /// [`SnapError::Section`] if a different name is found,
    /// [`SnapError::Truncated`] if the stream ends.
    pub fn section(&mut self, name: &str) -> Result<(), SnapError> {
        let len = self.get_u16()? as usize;
        let found = String::from_utf8_lossy(self.take(len)?).into_owned();
        if found == name {
            Ok(())
        } else {
            Err(SnapError::Section {
                expected: name.to_string(),
                found,
            })
        }
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `bool` (any nonzero byte is `true`).
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `usize` (written as `u64`).
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        Ok(self.get_u64()? as usize)
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.get_u64()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string (lossy).
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        Ok(String::from_utf8_lossy(self.get_bytes()?).into_owned())
    }

    /// Read an element count, verifying it against `expect` when the
    /// container's size is fixed by configuration.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        self.get_usize()
    }

    /// Read an element count that must equal `expect`.
    ///
    /// # Errors
    ///
    /// [`SnapError::StateMismatch`] naming `what` on disagreement.
    pub fn get_len_expect(&mut self, what: &str, expect: usize) -> Result<usize, SnapError> {
        let n = self.get_len()?;
        if n != expect {
            return Err(SnapError::StateMismatch(format!(
                "{what}: snapshot has {n} elements, rebuilt system has {expect}"
            )));
        }
        Ok(n)
    }
}

/// A component whose mutable state can be captured and restored.
///
/// `save` must serialize every field that influences future simulated
/// behavior or reported results; `load` overwrites those fields in an
/// object freshly rebuilt from the same configuration. Unordered
/// containers must be written in a canonical (sorted) order so equal
/// states produce equal bytes.
pub trait Snapshot {
    /// Append this component's state to `w`.
    fn save(&self, w: &mut SnapWriter);

    /// Restore this component's state from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] from the stream, or
    /// [`SnapError::StateMismatch`] when the snapshot's structure
    /// disagrees with the rebuilt object.
    fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError>;
}

/// Serialize `root` into a self-describing envelope: magic, version,
/// payload length, payload checksum, payload.
pub fn encode(root: &dyn Snapshot) -> Vec<u8> {
    let mut w = SnapWriter::new();
    root.save(&mut w);
    let payload = w.into_bytes();
    let mut h = Sha256::new();
    h.update(&payload);
    let sum = h.finish();
    let mut out = Vec::with_capacity(8 + 4 + 8 + 32 + payload.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&SNAP_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&sum);
    out.extend_from_slice(&payload);
    out
}

/// Validate an envelope and return its payload slice.
///
/// # Errors
///
/// [`SnapError::BadMagic`] / [`SnapError::BadVersion`] /
/// [`SnapError::Truncated`] / [`SnapError::BadChecksum`] as each check
/// fails.
pub fn payload(envelope: &[u8]) -> Result<&[u8], SnapError> {
    const HDR: usize = 8 + 4 + 8 + 32;
    if envelope.len() < HDR {
        return Err(if envelope.len() >= 8 && envelope[..8] != SNAP_MAGIC {
            SnapError::BadMagic
        } else {
            SnapError::Truncated
        });
    }
    if envelope[..8] != SNAP_MAGIC {
        return Err(SnapError::BadMagic);
    }
    let version = u32::from_le_bytes(envelope[8..12].try_into().unwrap());
    if version != SNAP_VERSION {
        return Err(SnapError::BadVersion { found: version });
    }
    let len = u64::from_le_bytes(envelope[12..20].try_into().unwrap()) as usize;
    if envelope.len() != HDR + len {
        return Err(SnapError::Truncated);
    }
    let sum: [u8; 32] = envelope[20..52].try_into().unwrap();
    let payload = &envelope[HDR..];
    let mut h = Sha256::new();
    h.update(payload);
    if h.finish() != sum {
        return Err(SnapError::BadChecksum);
    }
    Ok(payload)
}

/// Decode an envelope into `root`, consuming the whole payload.
///
/// # Errors
///
/// Envelope errors from [`payload`], then any [`SnapError`] raised by
/// `root.load`, then [`SnapError::TrailingBytes`] if the payload is
/// longer than `root` consumes.
pub fn decode(envelope: &[u8], root: &mut dyn Snapshot) -> Result<(), SnapError> {
    let payload = payload(envelope)?;
    let mut r = SnapReader::new(payload);
    root.load(&mut r)?;
    r.finish()
}

/// A short, stable identifier for a snapshot: the first 12 hex digits
/// of the envelope's SHA-256. Used in journal records and triage
/// bundles to say *which* checkpoint a resume should start from.
pub fn snapshot_id(envelope: &[u8]) -> String {
    let mut h = Sha256::new();
    h.update(envelope);
    h.finish_hex()[..12].to_string()
}

// ---------------------------------------------------------------------
// Campaign unit records
// ---------------------------------------------------------------------

/// A simulation result that can be kept in a run list, journaled as one
/// campaign unit, and replayed on resume.
///
/// Implementations must round-trip exactly: `decode(encode(x)) == x`
/// bit-for-bit, because replayed units feed the same output formatting
/// as freshly computed ones and the rendered output is pinned by the
/// golden digests.
pub trait Record: Sized {
    /// Append this value to `w`.
    fn record(&self, w: &mut SnapWriter);

    /// Read a value back from `r`.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] from the stream.
    fn replay(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! record_uint {
    ($($t:ty),*) => {$(
        impl Record for $t {
            fn record(&self, w: &mut SnapWriter) {
                w.put_u64(*self as u64);
            }
            fn replay(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(r.get_u64()? as $t)
            }
        }
    )*};
}

record_uint!(u32, u64, usize);

impl Record for bool {
    fn record(&self, w: &mut SnapWriter) {
        w.put_bool(*self);
    }
    fn replay(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_bool()
    }
}

impl Record for f64 {
    fn record(&self, w: &mut SnapWriter) {
        w.put_f64(*self);
    }
    fn replay(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        r.get_f64()
    }
}

impl<T: Record> Record for Option<T> {
    fn record(&self, w: &mut SnapWriter) {
        w.put_bool(self.is_some());
        if let Some(x) = self {
            x.record(w);
        }
    }
    fn replay(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        if r.get_bool()? {
            Ok(Some(T::replay(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: Record> Record for Vec<T> {
    fn record(&self, w: &mut SnapWriter) {
        w.put_len(self.len());
        for x in self {
            x.record(w);
        }
    }
    fn replay(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(T::replay(r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Blob {
        a: u64,
        b: Vec<u64>,
        s: String,
    }

    impl Snapshot for Blob {
        fn save(&self, w: &mut SnapWriter) {
            w.section("blob");
            w.put_u64(self.a);
            w.put_len(self.b.len());
            for x in &self.b {
                w.put_u64(*x);
            }
            w.put_str(&self.s);
        }
        fn load(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            r.section("blob")?;
            self.a = r.get_u64()?;
            let n = r.get_len_expect("blob.b", self.b.len())?;
            for i in 0..n {
                self.b[i] = r.get_u64()?;
            }
            self.s = r.get_str()?;
            Ok(())
        }
    }

    fn blob() -> Blob {
        Blob {
            a: 0xDEAD_BEEF,
            b: vec![1, 2, 3],
            s: "täkō".to_string(),
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let b = blob();
        let env = encode(&b);
        let mut out = Blob {
            a: 0,
            b: vec![0; 3],
            s: String::new(),
        };
        decode(&env, &mut out).unwrap();
        assert_eq!(out.a, b.a);
        assert_eq!(out.b, b.b);
        assert_eq!(out.s, b.s);
    }

    #[test]
    fn snapshot_ids_are_stable_and_short() {
        let env = encode(&blob());
        let id = snapshot_id(&env);
        assert_eq!(id.len(), 12);
        assert_eq!(id, snapshot_id(&encode(&blob())));
    }

    #[test]
    fn corrupted_payload_is_rejected() {
        let mut env = encode(&blob());
        let last = env.len() - 1;
        env[last] ^= 0xFF;
        assert_eq!(payload(&env).unwrap_err(), SnapError::BadChecksum);
    }

    #[test]
    fn truncated_envelope_is_rejected() {
        let env = encode(&blob());
        assert_eq!(
            payload(&env[..env.len() - 1]).unwrap_err(),
            SnapError::Truncated
        );
        assert_eq!(payload(&env[..10]).unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut env = encode(&blob());
        env[0] = b'X';
        assert_eq!(payload(&env).unwrap_err(), SnapError::BadMagic);
        let mut env = encode(&blob());
        env[8] = 0xEE;
        assert!(matches!(
            payload(&env).unwrap_err(),
            SnapError::BadVersion { found: _ }
        ));
    }

    #[test]
    fn section_mismatch_is_loud() {
        let mut w = SnapWriter::new();
        w.section("dram");
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let e = r.section("mshr").unwrap_err();
        assert!(matches!(e, SnapError::Section { .. }));
        assert!(e.to_string().contains("mshr"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut env = encode(&blob());
        // Splice one extra payload byte and fix up the length; checksum
        // then fails first, which is fine — rebuild properly instead.
        let b = blob();
        let mut w = SnapWriter::new();
        b.save(&mut w);
        w.put_u8(7);
        let payload_bytes = w.into_bytes();
        let mut h = Sha256::new();
        h.update(&payload_bytes);
        let sum = h.finish();
        env.clear();
        env.extend_from_slice(&SNAP_MAGIC);
        env.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        env.extend_from_slice(&(payload_bytes.len() as u64).to_le_bytes());
        env.extend_from_slice(&sum);
        env.extend_from_slice(&payload_bytes);
        let mut out = Blob {
            a: 0,
            b: vec![0; 3],
            s: String::new(),
        };
        assert_eq!(
            decode(&env, &mut out).unwrap_err(),
            SnapError::TrailingBytes
        );
    }

    #[test]
    fn records_roundtrip_bit_exactly() {
        let mut w = SnapWriter::new();
        42u64.record(&mut w);
        0.1f64.record(&mut w);
        Some(7usize).record(&mut w);
        vec![1u32, 2, 3].record(&mut w);
        true.record(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(u64::replay(&mut r).unwrap(), 42);
        assert_eq!(f64::replay(&mut r).unwrap().to_bits(), 0.1f64.to_bits());
        assert_eq!(Option::<usize>::replay(&mut r).unwrap(), Some(7));
        assert_eq!(Vec::<u32>::replay(&mut r).unwrap(), vec![1, 2, 3]);
        assert!(bool::replay(&mut r).unwrap());
        assert_eq!(r.remaining(), 0);
    }
}
