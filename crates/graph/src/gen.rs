//! Synthetic graph generators.
//!
//! The paper evaluates PHI on synthetic graphs (16 M vertices / 160 M
//! edges, Fig 13) and HATS on the uk-2002 web crawl (Fig 16). uk-2002 is
//! not redistributable here, so HATS runs on a planted-partition
//! [`community`] graph: strong community structure is exactly the
//! property BDFS exploits ("many graphs exhibit strong community
//! structure, so it is much better to process graphs one community at a
//! time", Sec 8.2), so the generator exercises the same code path and
//! produces the same locality contrast.

use tako_sim::rng::{Rng, Zipfian};

use crate::csr::Csr;

/// A uniform random directed graph: `m` edges with independently chosen
/// endpoints.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn uniform(n: usize, m: usize, rng: &mut Rng) -> Csr {
    assert!(n > 0, "graph needs vertices");
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
        .collect();
    Csr::from_edges(n, &edges)
}

/// A power-law graph: uniformly random sources, Zipfian-skewed
/// destinations (popular vertices receive many updates — the skew that
/// makes PHI's in-cache update buffering effective).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn power_law(n: usize, m: usize, theta: f64, rng: &mut Rng) -> Csr {
    assert!(n > 0, "graph needs vertices");
    let zipf = Zipfian::new(n as u64, theta);
    // Scatter popular ranks across the vertex id space so hot vertices
    // are not all in the same few cache lines.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut perm);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            let src = rng.below(n as u64) as u32;
            let dst = perm[zipf.sample(rng) as usize];
            (src, dst)
        })
        .collect();
    Csr::from_edges(n, &edges)
}

/// A planted-partition community graph: `n` vertices split into
/// `communities` equal groups; each of the `m` edges stays inside its
/// source's community with probability `p_intra`, else goes to a uniform
/// random vertex.
///
/// # Panics
///
/// Panics if `n == 0`, `communities == 0`, or `p_intra` is not in
/// `[0, 1]`.
pub fn community(n: usize, m: usize, communities: usize, p_intra: f64, rng: &mut Rng) -> Csr {
    assert!(n > 0 && communities > 0, "need vertices and communities");
    assert!((0.0..=1.0).contains(&p_intra), "p_intra must be in [0,1]");
    let csize = n.div_ceil(communities);
    let edges: Vec<(u32, u32)> = (0..m)
        .map(|_| {
            let src = rng.below(n as u64) as usize;
            let dst = if rng.chance(p_intra) {
                let c = src / csize;
                let lo = c * csize;
                let hi = ((c + 1) * csize).min(n);
                lo + rng.below((hi - lo) as u64) as usize
            } else {
                rng.below(n as u64) as usize
            };
            (src as u32, dst as u32)
        })
        .collect();
    Csr::from_edges(n, &edges)
}

/// A community graph whose community *membership* is scattered across
/// the vertex-id space: the relabeling permutes *blocks* of `block`
/// consecutive vertices. Real graphs (web crawls) keep community
/// members in short contiguous runs while interleaving communities
/// across the id space (crawl order does not group communities);
/// `block` controls that run length, and `block = 1` scatters single
/// vertices. A vertex-ordered traversal then cycles through all
/// communities per window (large working set) while BDFS stays inside
/// one (compact, cache-resident working set) — the Fig 16 contrast.
///
/// # Panics
///
/// Panics if `block == 0`.
pub fn community_blocked(
    n: usize,
    m: usize,
    communities: usize,
    p_intra: f64,
    block: usize,
    rng: &mut Rng,
) -> Csr {
    assert!(block > 0, "block must be positive");
    let grouped = community(n, m, communities, p_intra, rng);
    let nblocks = n.div_ceil(block);
    let mut bperm: Vec<u64> = (0..nblocks as u64).collect();
    rng.shuffle(&mut bperm);
    // Explicit injective relabeling: blocks laid out in permuted order.
    let mut perm = vec![0u32; n];
    let mut next_id = 0u32;
    for &b in &bperm {
        let lo = b as usize * block;
        let hi = (lo + block).min(n);
        for slot in perm.iter_mut().take(hi).skip(lo) {
            *slot = next_id;
            next_id += 1;
        }
    }
    let edges: Vec<(u32, u32)> = grouped
        .edges()
        .map(|(s, d)| (perm[s as usize], perm[d as usize]))
        .collect();
    Csr::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_shape() {
        let mut rng = Rng::new(1);
        let g = uniform(100, 1000, &mut rng);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 1000);
    }

    #[test]
    fn power_law_is_skewed() {
        let mut rng = Rng::new(2);
        let g = power_law(1000, 20_000, 0.9, &mut rng);
        // In-degree skew: the max in-degree should far exceed the mean.
        let mut indeg = vec![0u32; 1000];
        for (_, d) in g.edges() {
            indeg[d as usize] += 1;
        }
        let max = *indeg.iter().max().expect("nonempty");
        assert!(max > 200, "power-law graph not skewed (max={max})");
    }

    #[test]
    fn community_locality() {
        let mut rng = Rng::new(3);
        let n = 1000;
        let comms = 10;
        let g = community(n, 20_000, comms, 0.9, &mut rng);
        let csize = n / comms;
        let intra = g
            .edges()
            .filter(|(s, d)| (*s as usize) / csize == (*d as usize) / csize)
            .count();
        let frac = intra as f64 / g.num_edges() as f64;
        assert!(frac > 0.8, "intra-community fraction {frac}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = uniform(50, 500, &mut Rng::new(42));
        let b = uniform(50, 500, &mut Rng::new(42));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "p_intra")]
    fn community_rejects_bad_probability() {
        community(10, 10, 2, 1.5, &mut Rng::new(0));
    }
}
