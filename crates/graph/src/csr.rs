//! Compressed sparse row (CSR) topology storage.
//!
//! [`AdjacencyList`] is the *validated builder*: it checks self-loops,
//! duplicates, and range at construction but stores neighbours as
//! `Vec<Vec<usize>>` — two dependent pointer loads per partner draw, with
//! per-node heap allocations scattered across the heap. [`Csr`] is the
//! *simulation format* those builders lower into: one flat `offsets` array
//! and one flat `neighbors` array, so [`Topology::sample_partner`] is a
//! single contiguous-slice read. Every graph constructor in this crate can
//! reach it via [`AdjacencyList::to_csr`] or [`Csr::from_topology`].
//!
//! Node ids are stored as `u32` (half the memory traffic of `usize`); the
//! constructors reject graphs with more than `u32::MAX` nodes.

use crate::{check_node, AdjacencyList, Topology};
use rand::{Rng, RngExt};

/// A topology in compressed-sparse-row form: the neighbours of node `u` are
/// `neighbors[offsets[u]..offsets[u + 1]]`, sorted ascending.
///
/// # Examples
///
/// ```
/// use pp_graph::{AdjacencyList, Csr, Topology};
///
/// let g = AdjacencyList::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).to_csr();
/// assert_eq!(g.degree(2), 3);
/// assert!(g.contains_edge(2, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<usize>,
    neighbors: Vec<u32>,
    /// When every node has the same degree `d > 0`, set to `d`: the hot
    /// path then computes `offsets[u] = u·d` instead of loading it,
    /// removing one random memory access per partner draw. `0` means
    /// degrees vary and `offsets` is authoritative.
    uniform_degree: usize,
    num_edges: usize,
    name: String,
    /// The layout reported by [`Topology::preferred_partition`]: the
    /// source topology's preference (contiguous ranges for builder graphs,
    /// right for geometric numberings and community-contiguous SBMs).
    preferred: crate::PartitionKind,
}

impl Csr {
    /// Lowers any topology into CSR form by materialising every neighbour
    /// list. The result keeps the source's [`name`](Topology::name).
    ///
    /// Use this for the structured families (cycle, torus, hypercube, …)
    /// when an experiment wants one uniform representation; the arithmetic
    /// originals need no memory at all, so lowering them only pays off when
    /// heterogeneous sweeps want a single concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the topology has more than `u32::MAX` nodes.
    pub fn from_topology<T: Topology + ?Sized>(topology: &T) -> Self {
        let n = topology.len();
        assert!(
            u32::try_from(n).is_ok(),
            "CSR stores node ids as u32; {n} nodes is too many"
        );
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut neighbors = Vec::new();
        for u in 0..n {
            let mut ns = topology.neighbors(u);
            ns.sort_unstable();
            neighbors.extend(ns.iter().map(|&v| v as u32));
            offsets.push(neighbors.len());
        }
        let first_degree = offsets.get(1).copied().unwrap_or(0);
        let uniform_degree =
            if first_degree > 0 && offsets.windows(2).all(|w| w[1] - w[0] == first_degree) {
                first_degree
            } else {
                0
            };
        Csr {
            offsets,
            uniform_degree,
            num_edges: neighbors.len() / 2,
            neighbors,
            name: topology.name(),
            preferred: topology.preferred_partition(),
        }
    }

    /// Lowers a validated [`AdjacencyList`] into CSR form.
    ///
    /// Equivalent to [`AdjacencyList::to_csr`]; both preserve the builder's
    /// per-node neighbour order (sorted ascending), so partner sampling
    /// consumes the RNG identically in either representation.
    ///
    /// # Panics
    ///
    /// Panics if the graph has more than `u32::MAX` nodes.
    pub fn from_adjacency(adj: &AdjacencyList) -> Self {
        Self::from_topology(adj)
    }

    /// Sets the display name used in experiment tables.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The neighbours of `u` as a contiguous sorted slice (no allocation —
    /// this is the hot-path view [`neighbors`](Topology::neighbors) copies).
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()`.
    pub fn neighbor_slice(&self, u: usize) -> &[u32] {
        check_node(u, self.len());
        &self.neighbors[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Minimum degree over all nodes (`0` for an empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.len())
            .map(|u| self.offsets[u + 1] - self.offsets[u])
            .min()
            .unwrap_or(0)
    }

    #[inline]
    fn sample_impl<R: Rng>(&self, u: usize, rng: &mut R) -> usize {
        let (start, degree) = if self.uniform_degree != 0 {
            (u * self.uniform_degree, self.uniform_degree)
        } else {
            let start = self.offsets[u];
            (start, self.offsets[u + 1] - start)
        };
        assert!(degree > 0, "node {u} is isolated; cannot sample a partner");
        self.neighbors[start + rng.random_index(degree)] as usize
    }
}

impl Topology for Csr {
    fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    fn degree(&self, u: usize) -> usize {
        check_node(u, self.len());
        self.offsets[u + 1] - self.offsets[u]
    }

    fn sample_partner(&self, u: usize, mut rng: &mut dyn Rng) -> usize {
        check_node(u, self.len());
        self.sample_impl(u, &mut rng)
    }

    fn sample_partner_mono<R: Rng>(&self, u: usize, rng: &mut R) -> usize {
        self.sample_impl(u, rng)
    }

    fn sample_partner_turbo(&self, u: usize, bits: u64) -> usize {
        // Multiply-shift over the degree (bias d/2^64) instead of Lemire
        // rejection; otherwise identical to the exact sampler.
        let (start, degree) = if self.uniform_degree != 0 {
            (u * self.uniform_degree, self.uniform_degree)
        } else {
            let start = self.offsets[u];
            (start, self.offsets[u + 1] - start)
        };
        assert!(degree > 0, "node {u} is isolated; cannot sample a partner");
        let idx = ((bits as u128 * degree as u128) >> 64) as usize;
        self.neighbors[start + idx] as usize
    }

    fn preferred_partition(&self) -> crate::PartitionKind {
        self.preferred
    }

    fn contains_edge(&self, u: usize, v: usize) -> bool {
        check_node(v, self.len());
        self.neighbor_slice(u).binary_search(&(v as u32)).is_ok()
    }

    fn neighbors(&self, u: usize) -> Vec<usize> {
        self.neighbor_slice(u).iter().map(|&v| v as usize).collect()
    }

    fn name(&self) -> String {
        self.name.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cycle, Torus2d};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lowering_preserves_structure() {
        let adj = AdjacencyList::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]);
        let csr = adj.to_csr();
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.num_edges(), 4);
        for u in 0..4 {
            assert_eq!(csr.degree(u), adj.degree(u));
            assert_eq!(csr.neighbors(u), adj.neighbors(u));
        }
        assert!(csr.contains_edge(0, 2));
        assert!(!csr.contains_edge(0, 3));
    }

    #[test]
    fn sampling_matches_adjacency_draw_for_draw() {
        // Same sorted neighbour order + same range draw ⇒ identical samples
        // from identical RNG states.
        let adj = AdjacencyList::from_edges(5, &[(0, 1), (0, 2), (0, 4), (1, 3), (3, 4)]);
        let csr = adj.to_csr();
        let mut ra = StdRng::seed_from_u64(9);
        let mut rc = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            for u in 0..5 {
                assert_eq!(
                    adj.sample_partner(u, &mut ra),
                    csr.sample_partner(u, &mut rc)
                );
            }
        }
    }

    #[test]
    fn from_structured_topology() {
        let cycle = Cycle::new(8);
        let csr = Csr::from_topology(&cycle);
        assert_eq!(csr.name(), "cycle");
        for u in 0..8 {
            let mut expect = cycle.neighbors(u);
            expect.sort_unstable();
            assert_eq!(csr.neighbors(u), expect);
        }
        let torus = Torus2d::new(3, 4);
        let csr = Csr::from_topology(&torus);
        assert_eq!(csr.num_edges(), 24);
        assert_eq!(csr.min_degree(), 4);
    }

    #[test]
    fn mono_sampling_agrees_with_dyn() {
        let csr = Csr::from_topology(&Torus2d::new(4, 4));
        let mut ra = StdRng::seed_from_u64(3);
        let mut rb = StdRng::seed_from_u64(3);
        for u in 0..16 {
            let dyn_rng: &mut dyn Rng = &mut ra;
            assert_eq!(
                csr.sample_partner(u, dyn_rng),
                csr.sample_partner_mono(u, &mut rb)
            );
        }
    }

    #[test]
    fn with_name_changes_label() {
        let csr = AdjacencyList::from_edges(2, &[(0, 1)])
            .to_csr()
            .with_name("x");
        assert_eq!(csr.name(), "x");
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn isolated_node_cannot_sample() {
        let adj = AdjacencyList::from_edges(3, &[(0, 1)]);
        let csr = adj.to_csr();
        let mut rng = StdRng::seed_from_u64(2);
        csr.sample_partner(2, &mut rng);
    }
}
