//! Simulated address space, ranges, and allocation.
//!
//! Addresses are plain `u64`s ([`Addr`]) for arithmetic speed; the address
//! space is carved into a *real* region (backed by DRAM) and a *phantom*
//! region (bit 46 set). Phantom addresses are allocated for täkō Morphs
//! whose data lives only in caches (Sec 4.1: "phantom address ranges are
//! requested only by their size, and registerPhantom allocates and assigns
//! the address range").

use tako_sim::config::LINE_BYTES;

/// A simulated 64-bit address.
pub type Addr = u64;

/// Base of the real (DRAM-backed) heap.
pub const REAL_BASE: Addr = 0x0000_1000_0000;

/// Bit that marks an address as phantom (cache-only, not DRAM-backed).
pub const PHANTOM_BIT: Addr = 1 << 46;

/// Returns true if `addr` lies in the phantom region.
#[inline]
pub fn is_phantom(addr: Addr) -> bool {
    addr & PHANTOM_BIT != 0
}

/// The address of the cache line containing `addr`.
#[inline]
pub fn line_of(addr: Addr) -> Addr {
    addr & !(LINE_BYTES - 1)
}

/// A half-open address range `[base, base + size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    /// First address in the range.
    pub base: Addr,
    /// Size in bytes.
    pub size: u64,
}

impl AddrRange {
    /// A range starting at `base` covering `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range wraps around the address space.
    pub fn new(base: Addr, size: u64) -> Self {
        assert!(
            base.checked_add(size).is_some(),
            "address range wraps the address space"
        );
        AddrRange { base, size }
    }

    /// One past the last address.
    pub fn end(&self) -> Addr {
        self.base + self.size
    }

    /// Whether `addr` lies inside the range.
    #[inline]
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Whether the two ranges share any address.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.base < other.end() && other.base < self.end()
    }

    /// Whether the range lies in the phantom region.
    pub fn is_phantom(&self) -> bool {
        is_phantom(self.base)
    }

    /// Iterate over the line-aligned addresses covering the range.
    pub fn lines(&self) -> impl Iterator<Item = Addr> {
        let first = line_of(self.base);
        let last = if self.size == 0 {
            first
        } else {
            line_of(self.end() - 1) + LINE_BYTES
        };
        (first..last).step_by(LINE_BYTES as usize)
    }

    /// Byte offset of `addr` from the base.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not inside the range.
    pub fn offset_of(&self, addr: Addr) -> u64 {
        assert!(self.contains(addr), "address outside range");
        addr - self.base
    }
}

/// A bump allocator for the simulated address space.
///
/// Real allocations come from the DRAM-backed heap; phantom allocations
/// come from the phantom region. Allocations are line-aligned and never
/// overlap (a property test asserts this).
#[derive(Debug, Clone)]
pub struct Allocator {
    next_real: Addr,
    next_phantom: Addr,
    allocated: Vec<AddrRange>,
}

impl Allocator {
    /// A fresh allocator with empty real and phantom heaps.
    pub fn new() -> Self {
        Allocator {
            next_real: REAL_BASE,
            next_phantom: PHANTOM_BIT,
            allocated: Vec::new(),
        }
    }

    fn bump(cursor: &mut Addr, size: u64) -> AddrRange {
        let aligned = size.max(1).div_ceil(LINE_BYTES) * LINE_BYTES;
        let range = AddrRange::new(*cursor, aligned);
        *cursor += aligned;
        range
    }

    /// Allocate `size` bytes of DRAM-backed memory (line-aligned).
    pub fn alloc_real(&mut self, size: u64) -> AddrRange {
        let r = Self::bump(&mut self.next_real, size);
        self.allocated.push(r);
        r
    }

    /// Allocate `size` bytes of phantom (cache-only) address space.
    pub fn alloc_phantom(&mut self, size: u64) -> AddrRange {
        let r = Self::bump(&mut self.next_phantom, size);
        self.allocated.push(r);
        r
    }

    /// All ranges handed out so far, in allocation order.
    pub fn allocations(&self) -> &[AddrRange] {
        &self.allocated
    }
}

impl tako_sim::checkpoint::Snapshot for Allocator {
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("alloc");
        w.put_u64(self.next_real);
        w.put_u64(self.next_phantom);
        w.put_len(self.allocated.len());
        for r in &self.allocated {
            w.put_u64(r.base);
            w.put_u64(r.size);
        }
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        r.section("alloc")?;
        self.next_real = r.get_u64()?;
        self.next_phantom = r.get_u64()?;
        let n = r.get_len()?;
        self.allocated.clear();
        for _ in 0..n {
            let base = r.get_u64()?;
            let size = r.get_u64()?;
            self.allocated.push(AddrRange { base, size });
        }
        Ok(())
    }
}

impl Default for Allocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_sim::rng::Rng;

    #[test]
    fn line_math() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
    }

    #[test]
    fn range_contains_and_overlap() {
        let a = AddrRange::new(100, 50);
        assert!(a.contains(100));
        assert!(a.contains(149));
        assert!(!a.contains(150));
        let b = AddrRange::new(149, 10);
        let c = AddrRange::new(150, 10);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn range_lines_cover() {
        let r = AddrRange::new(60, 10); // spans lines 0 and 64
        let lines: Vec<_> = r.lines().collect();
        assert_eq!(lines, vec![0, 64]);
        let empty = AddrRange::new(128, 0);
        assert_eq!(empty.lines().count(), 0);
    }

    #[test]
    fn phantom_detection() {
        let mut alloc = Allocator::new();
        let real = alloc.alloc_real(100);
        let ph = alloc.alloc_phantom(100);
        assert!(!real.is_phantom());
        assert!(ph.is_phantom());
        assert!(is_phantom(ph.base + 10));
    }

    #[test]
    fn alloc_alignment() {
        let mut alloc = Allocator::new();
        let a = alloc.alloc_real(1);
        assert_eq!(a.size, LINE_BYTES);
        assert_eq!(a.base % LINE_BYTES, 0);
        let b = alloc.alloc_real(65);
        assert_eq!(b.size, 2 * LINE_BYTES);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn offset_of_outside() {
        AddrRange::new(0, 64).offset_of(64);
    }

    // Deterministic randomized tests (the in-tree Rng replaces proptest,
    // which the offline build cannot fetch).

    #[test]
    fn allocations_never_overlap() {
        let mut rng = Rng::new(0xA110C);
        for _ in 0..32 {
            let mut alloc = Allocator::new();
            let n = 1 + rng.below(39) as usize;
            for i in 0..n {
                let s = 1 + rng.below(9_999);
                if i % 2 == 0 {
                    alloc.alloc_real(s);
                } else {
                    alloc.alloc_phantom(s);
                }
            }
            let rs = alloc.allocations();
            for i in 0..rs.len() {
                for j in (i + 1)..rs.len() {
                    assert!(!rs[i].overlaps(&rs[j]));
                }
            }
        }
    }

    #[test]
    fn lines_cover_every_address() {
        let mut rng = Rng::new(0x11E5);
        for _ in 0..256 {
            let base = rng.below(1_000_000);
            let size = 1 + rng.below(4095);
            let r = AddrRange::new(base, size);
            let lines: Vec<_> = r.lines().collect();
            // Every address in the range falls in some listed line.
            for probe in [r.base, r.end() - 1, r.base + size / 2] {
                assert!(lines.contains(&line_of(probe)));
            }
            // And every listed line intersects the range.
            for l in &lines {
                assert!(*l < r.end() && l + LINE_BYTES > r.base);
            }
        }
    }
}
