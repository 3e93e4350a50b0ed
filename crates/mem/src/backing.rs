//! Sparse, byte-accurate backing store.
//!
//! The simulator is execution-driven, so loads must return real data.
//! [`PhysMem`] stores bytes in 4 KB pages allocated on first touch; reads
//! of untouched memory return zero (like fresh OS pages). Both real and
//! phantom addresses can be stored — phantom data functionally lives here
//! while the *timing* model keeps it cache-only (the hierarchy never
//! charges DRAM time or energy for phantom lines).
//!
//! Storage is data-oriented: the two address regions the allocator
//! actually hands out — the low/real heap growing up from zero and the
//! phantom region growing up from [`PHANTOM_BIT`] — live in dense
//! `Vec<Option<Box<Page>>>` tables indexed by page number, so the
//! functional read under every simulated access is an index + deref
//! instead of a hash. Addresses outside both dense windows (stress tests
//! poke near `u64::MAX`) fall back to a `HashMap`.

use std::collections::HashMap;

use crate::addr::{Addr, PHANTOM_BIT};

/// Bytes per backing page.
pub const PAGE_BYTES: u64 = 4096;

type Page = Box<[u8; PAGE_BYTES as usize]>;

/// First page index of the phantom region.
const PHANTOM_PAGE: u64 = PHANTOM_BIT / PAGE_BYTES;

/// Dense-table width in pages (16 GiB of address space per region).
/// The tables grow only to the highest page actually touched, and the
/// bump allocator hands out addresses contiguously from the region base,
/// so table length tracks real footprint, not address magnitude.
const DENSE_PAGES: u64 = 1 << 22;

/// Where a page index lives.
enum Slot {
    /// Dense low/real table, at this offset.
    Real(usize),
    /// Dense phantom table, at this offset.
    Phantom(usize),
    /// Outside both dense windows: HashMap fallback.
    Far,
}

#[inline]
fn slot_of(page: u64) -> Slot {
    if page < DENSE_PAGES {
        Slot::Real(page as usize)
    } else if page >= PHANTOM_PAGE && page - PHANTOM_PAGE < DENSE_PAGES {
        Slot::Phantom((page - PHANTOM_PAGE) as usize)
    } else {
        Slot::Far
    }
}

/// A sparse byte-addressable memory.
#[derive(Debug, Clone, Default)]
pub struct PhysMem {
    real: Vec<Option<Page>>,
    phantom: Vec<Option<Page>>,
    far: HashMap<u64, Page>,
    resident: usize,
}

impl PhysMem {
    /// An empty memory; all addresses read as zero.
    pub fn new() -> Self {
        PhysMem::default()
    }

    #[inline]
    fn split(addr: Addr) -> (u64, usize) {
        (addr / PAGE_BYTES, (addr % PAGE_BYTES) as usize)
    }

    /// The page holding `page` index, if materialized.
    #[inline]
    fn page(&self, page: u64) -> Option<&Page> {
        match slot_of(page) {
            Slot::Real(i) => self.real.get(i)?.as_ref(),
            Slot::Phantom(i) => self.phantom.get(i)?.as_ref(),
            Slot::Far => self.far.get(&page),
        }
    }

    /// The page holding `page` index, materializing it zero-filled.
    fn page_mut(&mut self, page: u64) -> &mut Page {
        let (table, i) = match slot_of(page) {
            Slot::Real(i) => (&mut self.real, i),
            Slot::Phantom(i) => (&mut self.phantom, i),
            Slot::Far => {
                let resident = &mut self.resident;
                return self.far.entry(page).or_insert_with(|| {
                    *resident += 1;
                    Box::new([0; PAGE_BYTES as usize])
                });
            }
        };
        if table.len() <= i {
            table.resize_with(i + 1, || None);
        }
        let slot = &mut table[i];
        if slot.is_none() {
            *slot = Some(Box::new([0; PAGE_BYTES as usize]));
            self.resident += 1;
        }
        slot.as_mut().unwrap()
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: Addr) -> u8 {
        let (page, off) = Self::split(addr);
        self.page(page).map_or(0, |p| p[off])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: Addr, val: u8) {
        let (page, off) = Self::split(addr);
        self.page_mut(page)[off] = val;
    }

    /// Read `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        let mut cur = addr;
        let mut done = 0;
        while done < buf.len() {
            let (page, off) = Self::split(cur);
            let chunk = (PAGE_BYTES as usize - off).min(buf.len() - done);
            match self.page(page) {
                Some(p) => buf[done..done + chunk].copy_from_slice(&p[off..off + chunk]),
                None => buf[done..done + chunk].fill(0),
            }
            done += chunk;
            cur += chunk as u64;
        }
    }

    /// Write `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: Addr, buf: &[u8]) {
        let mut cur = addr;
        let mut done = 0;
        while done < buf.len() {
            let (page, off) = Self::split(cur);
            let chunk = (PAGE_BYTES as usize - off).min(buf.len() - done);
            let p = self.page_mut(page);
            p[off..off + chunk].copy_from_slice(&buf[done..done + chunk]);
            done += chunk;
            cur += chunk as u64;
        }
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let (page, off) = Self::split(addr);
        if off <= PAGE_BYTES as usize - 8 {
            // Hot path: the whole word sits inside one page.
            match self.page(page) {
                Some(p) => u64::from_le_bytes(p[off..off + 8].try_into().unwrap()),
                None => 0,
            }
        } else {
            let mut b = [0u8; 8];
            self.read_bytes(addr, &mut b);
            u64::from_le_bytes(b)
        }
    }

    /// Write a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: Addr, val: u64) {
        let (page, off) = Self::split(addr);
        if off <= PAGE_BYTES as usize - 8 {
            self.page_mut(page)[off..off + 8].copy_from_slice(&val.to_le_bytes());
        } else {
            self.write_bytes(addr, &val.to_le_bytes());
        }
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: Addr) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, addr: Addr, val: u32) {
        self.write_bytes(addr, &val.to_le_bytes());
    }

    /// Read a little-endian `f64`.
    pub fn read_f64(&self, addr: Addr) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write a little-endian `f64`.
    pub fn write_f64(&mut self, addr: Addr, val: f64) {
        self.write_u64(addr, val.to_bits());
    }

    /// Add `val` to the little-endian `f64` at `addr` (commutative
    /// floating-point scatter update, as in PageRank's rank pushes).
    pub fn add_f64(&mut self, addr: Addr, val: f64) {
        let old = self.read_f64(addr);
        self.write_f64(addr, old + val);
    }

    /// Number of pages materialized so far (memory-footprint metric used
    /// by the pre-compute baseline comparison in the decompression study).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// All materialized page indices, sorted (the canonical snapshot
    /// order).
    fn sorted_indices(&self) -> Vec<u64> {
        let mut indices: Vec<u64> = Vec::with_capacity(self.resident);
        indices.extend(
            self.real
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(i, _)| i as u64),
        );
        indices.extend(
            self.phantom
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(i, _)| PHANTOM_PAGE + i as u64),
        );
        indices.extend(self.far.keys().copied());
        indices.sort_unstable();
        indices
    }

    fn clear(&mut self) {
        self.real.clear();
        self.phantom.clear();
        self.far.clear();
        self.resident = 0;
    }
}

impl tako_sim::checkpoint::Snapshot for PhysMem {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("physmem");
        // Canonical order: pages sorted by index — the encoding predates
        // the dense tables and must stay byte-identical.
        let indices = self.sorted_indices();
        w.put_len(indices.len());
        for idx in indices {
            w.put_u64(idx);
            w.put_bytes(&self.page(idx).expect("listed page")[..]);
        }
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        use tako_sim::checkpoint::SnapError;
        r.section("physmem")?;
        let n = r.get_len()?;
        self.clear();
        for _ in 0..n {
            let idx = r.get_u64()?;
            let bytes = r.get_bytes()?;
            let page: &[u8; PAGE_BYTES as usize] = bytes.try_into().map_err(|_| {
                SnapError::StateMismatch(format!("backing page {idx} is not {PAGE_BYTES} bytes"))
            })?;
            self.page_mut(idx).copy_from_slice(page);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_sim::rng::Rng;

    #[test]
    fn zero_fill_semantics() {
        let mem = PhysMem::new();
        assert_eq!(mem.read_u64(0x1234), 0);
        assert_eq!(mem.read_u8(u64::MAX - 8), 0);
    }

    #[test]
    fn rw_roundtrip_scalars() {
        let mut mem = PhysMem::new();
        mem.write_u64(100, 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(100), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u32(100), 0x0506_0708);
        mem.write_f64(200, -3.25);
        assert_eq!(mem.read_f64(200), -3.25);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = PhysMem::new();
        let addr = PAGE_BYTES - 3;
        mem.write_u64(addr, 0xAABB_CCDD_EEFF_1122);
        assert_eq!(mem.read_u64(addr), 0xAABB_CCDD_EEFF_1122);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn float_accumulate() {
        let mut mem = PhysMem::new();
        mem.add_f64(0, 1.5);
        mem.add_f64(0, 2.5);
        assert_eq!(mem.read_f64(0), 4.0);
    }

    #[test]
    fn every_region_stores_and_counts() {
        let mut mem = PhysMem::new();
        let real = crate::addr::REAL_BASE + 17;
        let phantom = PHANTOM_BIT + 5 * PAGE_BYTES + 3;
        let far = u64::MAX - 100; // beyond both dense windows
        mem.write_u64(real, 1);
        mem.write_u64(phantom, 2);
        mem.write_u64(far, 3);
        assert_eq!(mem.read_u64(real), 1);
        assert_eq!(mem.read_u64(phantom), 2);
        assert_eq!(mem.read_u64(far), 3);
        assert_eq!(mem.resident_pages(), 3);
    }

    // Deterministic randomized tests (the in-tree Rng replaces proptest,
    // which the offline build cannot fetch).

    #[test]
    fn bytes_roundtrip() {
        let mut rng = Rng::new(0xB17E);
        for _ in 0..128 {
            let addr = rng.below(100_000);
            let len = 1 + rng.below(511) as usize;
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut mem = PhysMem::new();
            mem.write_bytes(addr, &data);
            let mut back = vec![0u8; data.len()];
            mem.read_bytes(addr, &mut back);
            assert_eq!(back, data);
        }
    }

    #[test]
    fn snapshot_roundtrip_restores_every_byte() {
        use tako_sim::checkpoint::{decode, encode};
        let mut rng = Rng::new(0x5AB2);
        let mut mem = PhysMem::new();
        for _ in 0..64 {
            mem.write_u64(rng.below(1_000_000), rng.next_u64());
        }
        // Cover the phantom table and the far fallback too.
        mem.write_u64(PHANTOM_BIT + 123, 0xFEED);
        mem.write_u64(u64::MAX - 77, 0xFA5);
        let snap = encode(&mem);
        let mut back = PhysMem::new();
        back.write_u64(0xDEAD, 1); // stale page, must be dropped
        decode(&snap, &mut back).unwrap();
        assert_eq!(back.resident_pages(), mem.resident_pages());
        assert_eq!(back.read_u64(0xDEAD), mem.read_u64(0xDEAD));
        assert_eq!(back.read_u64(PHANTOM_BIT + 123), 0xFEED);
        assert_eq!(back.read_u64(u64::MAX - 77), 0xFA5);
        let mut check = Rng::new(0x5AB2);
        for _ in 0..64 {
            let addr = check.below(1_000_000);
            let _ = check.next_u64();
            assert_eq!(back.read_u64(addr), mem.read_u64(addr));
        }
        // Two encodes of the same memory are byte-identical (canonical
        // page order regardless of which table holds a page).
        assert_eq!(snap, encode(&back));
    }

    #[test]
    fn disjoint_writes_independent() {
        let mut rng = Rng::new(0xD15);
        for _ in 0..128 {
            let a = rng.below(10_000);
            let b = 20_000 + rng.below(10_000);
            let x = rng.next_u64();
            let y = rng.next_u64();
            let mut mem = PhysMem::new();
            mem.write_u64(a, x);
            mem.write_u64(b, y);
            assert_eq!(mem.read_u64(a), x);
            assert_eq!(mem.read_u64(b), y);
        }
    }
}
