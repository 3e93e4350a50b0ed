//! # tako-noc — mesh network-on-chip model
//!
//! Table 3's interconnect: tiles arranged in a 2-D mesh with 128-bit flits
//! and links, 2-cycle routers, and 1-cycle links, using dimension-ordered
//! (X-then-Y) routing. The model charges per-hop latency and counts
//! flit-hops for the energy model; it does not simulate per-flit
//! contention (the memory controllers are the bandwidth bottleneck in all
//! of the paper's workloads).
//!
//! Addresses map to LLC banks by line-address interleaving, matching the
//! banked, physically distributed LLC of the baseline CMP.
//!
//! # Example
//!
//! ```
//! use tako_noc::Mesh;
//!
//! let mesh = Mesh::new((4, 4));
//! assert_eq!(mesh.hops(0, 15), 6); // corner to corner on a 4x4 mesh
//! ```

use tako_sim::config::{Interleave, LINE_BYTES, MAX_TILES};
use tako_sim::event::{TxnEvent, TxnSink};
use tako_sim::{Cycle, TileId};

/// Flit and link width in bytes (Table 3: 128 bits).
pub const FLIT_BYTES: u64 = 16;
/// Per-hop router traversal latency in cycles (Table 3).
pub const ROUTER_LATENCY: Cycle = 2;
/// Per-hop link traversal latency in cycles (Table 3).
pub const LINK_LATENCY: Cycle = 1;
/// Flits of a full cache-line message: one header plus the data.
const LINE_FLITS: u64 = 1 + LINE_BYTES.div_ceil(FLIT_BYTES);

/// Message payload classes, determining flit counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Payload {
    /// A request/acknowledgement carrying only an address (1 flit header).
    Control,
    /// A full cache-line transfer (header + data flits).
    Line,
}

/// The mesh interconnect.
///
/// Everything a transfer needs is computed once here: the hop count of
/// every tile pair (at most 64 × 64 one-byte entries, 4 KB) and the bank
/// interleave, so the per-message path does no division.
#[derive(Debug, Clone)]
pub struct Mesh {
    dims: (usize, usize),
    tiles: usize,
    /// `hop_table[from * tiles + to]`: Manhattan distance under
    /// dimension-ordered routing.
    hop_table: Box<[u8]>,
    banks: Interleave,
}

impl Mesh {
    /// A mesh of `dims.0 × dims.1` tiles.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or if the mesh has more than
    /// [`MAX_TILES`] tiles (`SystemConfig::validate` rejects both).
    pub fn new(dims: (usize, usize)) -> Self {
        assert!(dims.0 > 0 && dims.1 > 0, "mesh dimensions must be positive");
        let tiles = dims.0 * dims.1;
        assert!(tiles <= MAX_TILES, "mesh has more than {MAX_TILES} tiles");
        let hop_table = (0..tiles * tiles)
            .map(|i| {
                let (from, to) = (i / tiles, i % tiles);
                let (r0, c0) = (from / dims.1, from % dims.1);
                let (r1, c1) = (to / dims.1, to % dims.1);
                (r0.abs_diff(r1) + c0.abs_diff(c1)) as u8
            })
            .collect();
        Mesh {
            dims,
            tiles,
            hop_table,
            banks: Interleave::new(tiles as u64),
        }
    }

    /// Number of tiles in the mesh.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Manhattan hop count between two tiles (dimension-ordered routing).
    #[inline]
    pub fn hops(&self, from: TileId, to: TileId) -> u64 {
        debug_assert!(from < self.tiles && to < self.tiles, "tile off the mesh");
        u64::from(self.hop_table[from * self.tiles + to])
    }

    /// Flits needed to carry `payload`.
    #[inline]
    pub fn flits(&self, payload: Payload) -> u64 {
        match payload {
            Payload::Control => 1,
            Payload::Line => LINE_FLITS,
        }
    }

    /// Latency of sending `payload` from `from` to `to`, charging the
    /// flit-hops as a [`TxnEvent::NocHops`] on `sink` (the stats sink
    /// counts them for the energy model). Zero-hop (same tile) messages
    /// are free.
    pub fn transfer(
        &self,
        from: TileId,
        to: TileId,
        payload: Payload,
        sink: &mut impl TxnSink,
    ) -> Cycle {
        let hops = self.hops(from, to);
        if hops == 0 {
            return 0;
        }
        let flits = self.flits(payload);
        sink.emit(TxnEvent::NocHops { flits, hops });
        // Head-flit latency; body flits pipeline behind it one cycle each.
        hops * (ROUTER_LATENCY + LINK_LATENCY) + (flits - 1)
    }

    /// The LLC bank (tile) holding `line_addr`, by line interleaving.
    #[inline]
    pub fn bank_of_line(&self, line_addr: u64) -> TileId {
        self.banks.slot(line_addr / LINE_BYTES)
    }

    /// Average hop distance from `from` to all tiles (useful for modeling
    /// traffic to the "average" bank).
    pub fn mean_hops_from(&self, from: TileId) -> f64 {
        let total: u64 = (0..self.tiles).map(|t| self.hops(from, t)).sum();
        total as f64 / self.tiles as f64
    }
}

impl tako_sim::checkpoint::Snapshot for Mesh {
    /// The mesh holds no mutable state; the snapshot records its geometry
    /// so a resume into a differently shaped system fails loudly instead
    /// of silently re-routing traffic.
    fn save(&self, w: &mut tako_sim::checkpoint::SnapWriter) {
        w.section("mesh");
        w.put_usize(self.dims.0);
        w.put_usize(self.dims.1);
    }

    fn load(
        &mut self,
        r: &mut tako_sim::checkpoint::SnapReader<'_>,
    ) -> Result<(), tako_sim::checkpoint::SnapError> {
        use tako_sim::checkpoint::SnapError;
        r.section("mesh")?;
        let dims = (r.get_usize()?, r.get_usize()?);
        if dims != self.dims {
            return Err(SnapError::StateMismatch(format!(
                "mesh geometry: snapshot {}x{}, rebuilt {}x{}",
                dims.0, dims.1, self.dims.0, self.dims.1
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tako_sim::stats::{Counter, Stats};

    fn mesh4() -> Mesh {
        Mesh::new((4, 4))
    }

    #[test]
    fn hop_counts() {
        let m = mesh4();
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 1), 1);
        assert_eq!(m.hops(0, 4), 1);
        assert_eq!(m.hops(0, 5), 2);
        assert_eq!(m.hops(0, 15), 6);
        assert_eq!(m.hops(15, 0), 6);
    }

    #[test]
    fn flit_counts() {
        let m = mesh4();
        assert_eq!(m.flits(Payload::Control), 1);
        assert_eq!(m.flits(Payload::Line), 5); // 1 + 64/16
    }

    #[test]
    fn transfer_latency_and_energy() {
        let m = mesh4();
        let mut s = Stats::new();
        // Same tile: free.
        assert_eq!(m.transfer(3, 3, Payload::Line, &mut s), 0);
        assert_eq!(s.get(Counter::NocFlitHops), 0);
        // One hop control: router + link.
        assert_eq!(m.transfer(0, 1, Payload::Control, &mut s), 3);
        assert_eq!(s.get(Counter::NocFlitHops), 1);
        // Corner-to-corner line: 6 hops * 3 cycles + 4 pipelined flits.
        assert_eq!(m.transfer(0, 15, Payload::Line, &mut s), 22);
        assert_eq!(s.get(Counter::NocFlitHops), 1 + 30);
    }

    #[test]
    fn bank_interleave() {
        let m = mesh4();
        assert_eq!(m.bank_of_line(0), 0);
        assert_eq!(m.bank_of_line(64), 1);
        assert_eq!(m.bank_of_line(64 * 16), 0);
    }

    #[test]
    fn hop_table_matches_manhattan_formula() {
        for dims in [(1, 1), (2, 4), (3, 3), (4, 4), (6, 6)] {
            let m = Mesh::new(dims);
            let coords = |t: usize| (t / dims.1, t % dims.1);
            for from in 0..m.tiles() {
                for to in 0..m.tiles() {
                    let ((r0, c0), (r1, c1)) = (coords(from), coords(to));
                    let want = (r0.abs_diff(r1) + c0.abs_diff(c1)) as u64;
                    assert_eq!(m.hops(from, to), want, "{dims:?}: {from} -> {to}");
                }
            }
        }
    }

    #[test]
    fn bank_interleave_equals_modulo() {
        for (dims, tiles) in [((4, 4), 16u64), ((6, 6), 36)] {
            let m = Mesh::new(dims);
            for line in (0..4 * 64 * tiles).map(|k| k * LINE_BYTES) {
                assert_eq!(m.bank_of_line(line) as u64, (line / LINE_BYTES) % tiles);
            }
        }
    }

    #[test]
    #[should_panic(expected = "more than 64 tiles")]
    fn oversized_mesh_panics() {
        Mesh::new((5, 13));
    }

    #[test]
    fn mean_hops_reasonable() {
        let m = mesh4();
        let mean = m.mean_hops_from(0);
        assert!(mean > 2.9 && mean < 3.1); // corner tile on 4x4: 3.0
        let center = m.mean_hops_from(5);
        assert!(center < mean);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_panics() {
        Mesh::new((0, 4));
    }
}
