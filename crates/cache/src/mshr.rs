//! Miss-status holding registers.
//!
//! An [`MshrFile`] tracks outstanding fills at one cache: a primary miss
//! allocates an entry, secondary misses to the same line merge into it,
//! and the file bounds the number of concurrently outstanding lines.
//! täkō additionally requires that at least one MSHR is never consumed by
//! a request waiting on a callback (Sec 5.2's forward-progress rule);
//! [`MshrFile::try_alloc`] enforces the reservation.

use tako_mem::addr::Addr;
use tako_sim::Cycle;

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// A new entry was allocated: issue the fill down the hierarchy.
    Primary,
    /// The line is already being fetched; this miss merged. The payload is
    /// the completion cycle of the in-flight fill.
    Secondary(Cycle),
    /// No entry available: the request must stall.
    Full,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    completes_at: Cycle,
    for_callback: bool,
}

/// A bounded file of outstanding misses.
///
/// Entries live in a flat `Vec` rather than a map: the file holds at
/// most a few dozen lines, and at that size a linear scan is faster
/// than hashing and — unlike map-based draining — never allocates on
/// the access hot path.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    entries: Vec<(Addr, Entry)>,
}

impl MshrFile {
    /// A file with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR file needs at least one entry");
        MshrFile {
            capacity,
            entries: Vec::with_capacity(capacity),
        }
    }

    /// Present a miss on `line`. `for_callback` marks requests that wait
    /// on a täkō callback; these may never occupy the last free entry.
    pub fn try_alloc(
        &mut self,
        line: Addr,
        completes_at: Cycle,
        for_callback: bool,
    ) -> MshrOutcome {
        if let Some((_, e)) = self.entries.iter().find(|(a, _)| *a == line) {
            return MshrOutcome::Secondary(e.completes_at);
        }
        let used = self.entries.len();
        let limit = if for_callback {
            self.capacity - 1
        } else {
            self.capacity
        };
        if used >= limit {
            return MshrOutcome::Full;
        }
        self.entries.push((
            line,
            Entry {
                completes_at,
                for_callback,
            },
        ));
        MshrOutcome::Primary
    }

    /// Retire all entries whose fill completed at or before `now`;
    /// returns the earliest completion among the retired (if any).
    #[inline]
    pub fn drain(&mut self, now: Cycle) -> Option<Cycle> {
        let mut earliest = None;
        let mut i = 0;
        while i < self.entries.len() {
            let done = self.entries[i].1.completes_at;
            if done <= now {
                self.entries.swap_remove(i);
                earliest = Some(match earliest {
                    None => done,
                    Some(x) => done.min(x),
                });
            } else {
                i += 1;
            }
        }
        earliest
    }

    /// Completion cycle of the in-flight fill for `line`, if any.
    pub fn inflight(&self, line: Addr) -> Option<Cycle> {
        self.entries
            .iter()
            .find(|(a, _)| *a == line)
            .map(|(_, e)| e.completes_at)
    }

    /// Number of outstanding entries held by callback-waiting requests.
    pub fn callback_entries(&self) -> usize {
        self.entries.iter().filter(|(_, e)| e.for_callback).count()
    }

    /// Earliest completion among all outstanding fills (what a stalled
    /// request should wait for).
    pub fn earliest_completion(&self) -> Option<Cycle> {
        self.entries.iter().map(|(_, e)| e.completes_at).min()
    }

    /// The file's total entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether a fresh allocation would succeed right now (secondary
    /// merges aside). Mirrors [`MshrFile::try_alloc`]'s reservation:
    /// callback-waiting requests may not take the last free entry.
    pub fn can_alloc(&self, for_callback: bool) -> bool {
        let limit = if for_callback {
            self.capacity - 1
        } else {
            self.capacity
        };
        self.entries.len() < limit
    }

    /// Number of outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no fills are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl tako_sim::checkpoint::Snapshot for MshrFile {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("mshr");
        w.put_usize(self.capacity);
        // Canonical order: `drain`'s `swap_remove` reorders the entry
        // vector, so its order records retirement history rather than
        // the set of outstanding lines; entries are written sorted by
        // address.
        let mut entries: Vec<(Addr, Entry)> = self.entries.clone();
        entries.sort_unstable_by_key(|(a, _)| *a);
        w.put_len(entries.len());
        for (addr, e) in entries {
            w.put_u64(addr);
            w.put_u64(e.completes_at);
            w.put_bool(e.for_callback);
        }
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        use tako_sim::checkpoint::SnapError;
        r.section("mshr")?;
        let capacity = r.get_usize()?;
        if capacity != self.capacity {
            return Err(SnapError::StateMismatch(format!(
                "MSHR capacity: snapshot {capacity}, rebuilt {}",
                self.capacity
            )));
        }
        let n = r.get_len()?;
        if n > capacity {
            return Err(SnapError::StateMismatch(format!(
                "MSHR snapshot holds {n} entries but capacity is {capacity}"
            )));
        }
        self.entries.clear();
        for _ in 0..n {
            let addr = r.get_u64()?;
            let completes_at = r.get_u64()?;
            let for_callback = r.get_bool()?;
            self.entries.push((
                addr,
                Entry {
                    completes_at,
                    for_callback,
                },
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_then_secondary() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.try_alloc(64, 100, false), MshrOutcome::Primary);
        assert_eq!(m.try_alloc(64, 999, false), MshrOutcome::Secondary(100));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn capacity_bound() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.try_alloc(0, 10, false), MshrOutcome::Primary);
        assert_eq!(m.try_alloc(64, 10, false), MshrOutcome::Primary);
        assert_eq!(m.try_alloc(128, 10, false), MshrOutcome::Full);
    }

    #[test]
    fn callback_reservation() {
        let mut m = MshrFile::new(2);
        // A callback-waiting request may not take the last entry.
        assert_eq!(m.try_alloc(0, 10, true), MshrOutcome::Primary);
        assert_eq!(m.try_alloc(64, 10, true), MshrOutcome::Full);
        // ...but a plain request may.
        assert_eq!(m.try_alloc(64, 10, false), MshrOutcome::Primary);
    }

    #[test]
    fn drain_retires_completed() {
        let mut m = MshrFile::new(4);
        m.try_alloc(0, 10, false);
        m.try_alloc(64, 20, false);
        assert_eq!(m.drain(15), Some(10));
        assert_eq!(m.len(), 1);
        assert_eq!(m.inflight(64), Some(20));
        assert_eq!(m.earliest_completion(), Some(20));
        m.drain(25);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        MshrFile::new(0);
    }

    #[test]
    fn fill_to_capacity_then_drain_frees() {
        let mut m = MshrFile::new(4);
        for i in 0..4u64 {
            assert_eq!(m.try_alloc(i * 64, 100 + i, false), MshrOutcome::Primary);
        }
        assert_eq!(m.len(), m.capacity());
        assert!(!m.can_alloc(false));
        assert!(!m.can_alloc(true));
        assert_eq!(m.try_alloc(1024, 200, false), MshrOutcome::Full);
        // Retiring one fill makes room for a plain request, but the
        // callback reservation still needs two free entries.
        assert_eq!(m.drain(100), Some(100));
        assert!(m.can_alloc(false));
        assert!(!m.can_alloc(true));
        assert_eq!(m.try_alloc(1024, 200, false), MshrOutcome::Primary);
    }

    #[test]
    fn reservation_held_across_fills() {
        let mut m = MshrFile::new(3);
        // Callback-waiting requests can take all but the last entry...
        assert_eq!(m.try_alloc(0, 50, true), MshrOutcome::Primary);
        assert_eq!(m.try_alloc(64, 60, true), MshrOutcome::Primary);
        assert_eq!(m.callback_entries(), 2);
        assert_eq!(m.try_alloc(128, 70, true), MshrOutcome::Full);
        // ...the reserved entry serves a plain miss, which can then
        // merge secondaries even while the file is full.
        assert_eq!(m.try_alloc(128, 70, false), MshrOutcome::Primary);
        assert_eq!(m.try_alloc(128, 999, true), MshrOutcome::Secondary(70));
        // As fills retire, the reservation re-opens for callbacks.
        assert_eq!(m.drain(55), Some(50));
        assert!(m.can_alloc(false));
        assert!(!m.can_alloc(true));
        assert_eq!(m.drain(70), Some(60));
        assert!(m.can_alloc(true));
        assert_eq!(m.try_alloc(192, 200, true), MshrOutcome::Primary);
    }

    #[test]
    fn snapshot_roundtrip_restores_outstanding_fills() {
        use tako_sim::checkpoint::{decode, encode, SnapError};
        let mut m = MshrFile::new(8);
        m.try_alloc(0, 100, false);
        m.try_alloc(64, 120, true);
        m.try_alloc(640, 90, false);
        let snap = encode(&m);
        let mut n = MshrFile::new(8);
        n.try_alloc(4096, 5, false); // stale state, must be overwritten
        decode(&snap, &mut n).unwrap();
        assert_eq!(n.len(), 3);
        assert_eq!(n.inflight(64), Some(120));
        assert_eq!(n.inflight(4096), None);
        assert_eq!(n.callback_entries(), 1);
        assert_eq!(n.earliest_completion(), Some(90));
        // Capacity is structural: restoring into a different file is loud.
        let mut wrong = MshrFile::new(4);
        assert!(matches!(
            decode(&snap, &mut wrong),
            Err(SnapError::StateMismatch(_))
        ));
    }

    #[test]
    fn drain_is_leak_free() {
        let mut m = MshrFile::new(8);
        for round in 0..10u64 {
            for i in 0..8u64 {
                let addr = (round * 8 + i) * 64;
                assert_eq!(
                    m.try_alloc(addr, round * 100 + i, i % 2 == 0),
                    MshrOutcome::Primary
                );
            }
            assert_eq!(m.len(), 8);
            m.drain(round * 100 + 7);
            assert!(m.is_empty(), "round {round} leaked entries");
            assert_eq!(m.callback_entries(), 0);
            assert_eq!(m.earliest_completion(), None);
        }
    }
}
