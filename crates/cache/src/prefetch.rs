//! L2 stride prefetcher (Table 3).
//!
//! A small table of streams indexed by 4 KB region. When consecutive
//! demand accesses within a region exhibit a constant line-granularity
//! stride for [`TRAIN_THRESHOLD`] accesses, the prefetcher emits
//! [`DEGREE`] line addresses ahead of the demand stream.
//!
//! In the HATS case study (Sec 8.2) this component is what decouples the
//! engine from the core: prefetches into the phantom stream range miss in
//! the L2 and trigger `onMiss`, so the engine fills future edges while the
//! core processes the present ones ("while the core processes one part of
//! the stream, the prefetcher triggers onMiss for subsequent edges").

use tako_mem::addr::{line_of, Addr};
use tako_sim::config::{PrefetchConfig, LINE_BYTES};

const REGION_BITS: u32 = 12;
const TABLE_SLOTS: usize = 16;

/// Prefetch degree: lines fetched ahead per detected stream (Table 3).
pub const DEGREE: usize = 4;
/// Accesses with a constant stride required before issuing prefetches.
pub const TRAIN_THRESHOLD: u32 = 2;

/// A fixed-capacity batch of prefetch line addresses, returned by value
/// so the per-access hot path ([`StridePrefetcher::observe`]) performs
/// no heap allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchBatch {
    addrs: [Addr; DEGREE],
    len: u8,
}

impl PrefetchBatch {
    #[inline]
    fn push(&mut self, addr: Addr) {
        self.addrs[self.len as usize] = addr;
        self.len += 1;
    }

    /// The batched addresses, in issue order.
    #[inline]
    pub fn as_slice(&self) -> &[Addr] {
        &self.addrs[..self.len as usize]
    }

    /// Number of addresses in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the observation produced no prefetches.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    region: u64,
    last_line: Addr,
    stride: i64,
    confidence: u32,
    lru: u64,
}

/// A per-cache stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    enabled: bool,
    streams: Vec<Stream>,
    clock: u64,
}

impl StridePrefetcher {
    /// A prefetcher, silent unless `cfg.enabled`.
    pub fn new(cfg: PrefetchConfig) -> Self {
        StridePrefetcher {
            enabled: cfg.enabled,
            streams: Vec::with_capacity(TABLE_SLOTS),
            clock: 0,
        }
    }

    /// Observe a demand access and return the line addresses to prefetch
    /// (empty if disabled, untrained, or stride zero). Allocation-free:
    /// the batch is a fixed-size value of [`DEGREE`] slots.
    pub fn observe(&mut self, addr: Addr) -> PrefetchBatch {
        let mut batch = PrefetchBatch::default();
        if !self.enabled {
            return batch;
        }
        self.clock += 1;
        let line = line_of(addr);
        let region = addr >> REGION_BITS;
        let clock = self.clock;

        if let Some(s) = self.streams.iter_mut().find(|s| s.region == region) {
            s.lru = clock;
            let stride = line as i64 - s.last_line as i64;
            if stride == 0 {
                return batch;
            }
            if stride == s.stride {
                s.confidence += 1;
            } else {
                s.stride = stride;
                s.confidence = 1;
            }
            s.last_line = line;
            if s.confidence >= TRAIN_THRESHOLD {
                let stride = s.stride;
                for k in 1..=DEGREE as i64 {
                    if let Some(a) = line.checked_add_signed(stride * k) {
                        batch.push(line_of(a));
                    }
                }
            }
            return batch;
        }

        // Allocate a new stream, evicting the LRU slot if full.
        let s = Stream {
            region,
            last_line: line,
            stride: LINE_BYTES as i64,
            confidence: 0,
            lru: clock,
        };
        if self.streams.len() < TABLE_SLOTS {
            self.streams.push(s);
        } else if let Some(victim) = self.streams.iter_mut().min_by_key(|s| s.lru) {
            *victim = s;
        }
        batch
    }

    /// Forget all trained streams (e.g., on a Morph flush).
    pub fn reset(&mut self) {
        self.streams.clear();
    }
}

impl tako_sim::checkpoint::Snapshot for StridePrefetcher {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("prefetch");
        w.put_u64(self.clock);
        // Vec order is preserved verbatim: slot position breaks LRU ties
        // during eviction, so a canonical re-sort would perturb timing.
        w.put_len(self.streams.len());
        for s in &self.streams {
            w.put_u64(s.region);
            w.put_u64(s.last_line);
            w.put_i64(s.stride);
            w.put_u32(s.confidence);
            w.put_u64(s.lru);
        }
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        use tako_sim::checkpoint::SnapError;
        r.section("prefetch")?;
        self.clock = r.get_u64()?;
        let n = r.get_len()?;
        if n > TABLE_SLOTS {
            return Err(SnapError::StateMismatch(format!(
                "prefetcher snapshot holds {n} streams but the table has {TABLE_SLOTS} slots"
            )));
        }
        self.streams.clear();
        for _ in 0..n {
            self.streams.push(Stream {
                region: r.get_u64()?,
                last_line: r.get_u64()?,
                stride: r.get_i64()?,
                confidence: r.get_u32()?,
                lru: r.get_u64()?,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pf() -> StridePrefetcher {
        StridePrefetcher::new(PrefetchConfig::default())
    }

    #[test]
    fn trains_on_sequential_stream() {
        let mut p = pf();
        assert!(p.observe(0).is_empty());
        assert!(p.observe(64).is_empty()); // confidence 1
        let out = p.observe(128); // confidence 2 == threshold
        assert_eq!(out.as_slice(), [192, 256, 320, 384]);
    }

    #[test]
    fn trains_on_negative_stride() {
        let mut p = pf();
        p.observe(1024);
        p.observe(960);
        let out = p.observe(896);
        assert_eq!(out.as_slice(), [832, 768, 704, 640]);
    }

    #[test]
    fn same_line_reaccess_is_ignored() {
        let mut p = pf();
        p.observe(0);
        p.observe(64);
        assert!(p.observe(64).is_empty());
        // Stream remains trained on stride 64.
        assert_eq!(p.observe(128).len(), 4);
    }

    #[test]
    fn irregular_stream_never_fires() {
        let mut p = pf();
        p.observe(0);
        for addr in [64, 320, 128, 3776, 512] {
            assert!(p.observe(addr).is_empty());
        }
    }

    #[test]
    fn disabled_prefetcher_silent() {
        let mut p = StridePrefetcher::new(PrefetchConfig { enabled: false });
        p.observe(0);
        p.observe(64);
        assert!(p.observe(128).is_empty());
    }

    #[test]
    fn reset_forgets_training() {
        let mut p = pf();
        p.observe(0);
        p.observe(64);
        p.reset();
        assert!(p.observe(128).is_empty()); // retrains from scratch
        assert!(p.observe(192).is_empty());
        assert!(!p.observe(256).is_empty());
    }

    #[test]
    fn snapshot_roundtrip_keeps_training() {
        use tako_sim::checkpoint::{decode, encode};
        let mut p = pf();
        p.observe(0);
        p.observe(64); // confidence 1 — one access short of firing
        let snap = encode(&p);
        let mut q = pf();
        q.observe(1 << 20); // stale stream, must be overwritten
        decode(&snap, &mut q).unwrap();
        // The restored prefetcher fires on the very next access, exactly
        // like the original.
        assert_eq!(p.observe(128), q.observe(128));
        assert_eq!(q.observe(192).as_slice(), [256, 320, 384, 448]);
        assert!(q.observe((1 << 20) + 64).is_empty());
    }

    #[test]
    fn table_capacity_evicts_lru() {
        let mut p = pf();
        // Fill the table with TABLE_SLOTS distinct regions.
        for r in 0..TABLE_SLOTS as u64 + 4 {
            p.observe(r << REGION_BITS);
        }
        // Oldest streams were evicted; table keeps working.
        assert!(p.observe((1u64 << REGION_BITS) + 64).len() <= 4);
    }
}
