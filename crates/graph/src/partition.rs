//! Node-set partitioning for the graph-partitioned parallel engine.
//!
//! A [`Partition`] splits the nodes `0..n` of a topology into `shards`
//! disjoint, jointly exhaustive shards of near-equal size (sizes differ by
//! at most one). Two layouts exist:
//!
//! * [`PartitionKind::Contiguous`] — shard `s` owns one contiguous index
//!   range. The right layout for topologies whose node numbering is
//!   geometric (cycles, paths, row-major tori, CSR lowerings of them):
//!   contiguous ranges cut few edges, so almost every interaction is
//!   shard-local.
//! * [`PartitionKind::Strided`] — shard `s` owns `{u : u mod shards = s}`.
//!   The right layout for the complete graph and other index-symmetric
//!   families: no layout can reduce the cut there, but striding keeps each
//!   shard's sub-population representative of index-patterned initial
//!   configurations (experiments assign colours by `u mod k` or put
//!   special agents at index 0), so per-shard work and boundary-queue
//!   sizes stay statistically uniform.
//!
//! [`Topology::preferred_partition`] lets each family pick its layout;
//! [`Partition::boundary_edges`] extracts the cross-shard edges of a
//! [`Csr`] — the interactions a partitioned engine must reconcile rather
//! than run shard-locally — and [`Partition::cross_edge_fraction`] is the
//! planning number: the expected fraction of interactions that land on the
//! reconciliation path.

use crate::{Csr, Topology};

/// How a [`Partition`] maps node indices to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// Shard `s` owns one contiguous index range.
    Contiguous,
    /// Shard `s` owns the indices congruent to `s` modulo the shard count.
    Strided,
}

/// A disjoint, exhaustive split of the node set `0..len` into shards.
///
/// # Examples
///
/// ```
/// use pp_graph::{Partition, PartitionKind};
///
/// let p = Partition::contiguous(10, 3);
/// assert_eq!(p.shards(), 3);
/// // Sizes are balanced to within one.
/// assert_eq!((0..3).map(|s| p.size(s)).collect::<Vec<_>>(), vec![4, 3, 3]);
/// // Every node belongs to exactly one shard.
/// assert_eq!(p.shard_of(3), 0);
/// assert_eq!(p.shard_of(4), 1);
/// let s = Partition::new(10, 3, PartitionKind::Strided);
/// assert_eq!(s.shard_of(7), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    n: usize,
    shards: usize,
    kind: PartitionKind,
}

impl Partition {
    /// Creates a partition of `0..n` into `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `shards == 0`, or `shards > n` (an empty shard
    /// would schedule no work but still cost a merge participant).
    pub fn new(n: usize, shards: usize, kind: PartitionKind) -> Self {
        assert!(n > 0, "cannot partition an empty node set");
        assert!(shards > 0, "need at least one shard");
        assert!(
            shards <= n,
            "{shards} shards over {n} nodes would leave empty shards"
        );
        Partition { n, shards, kind }
    }

    /// A contiguous-range partition of `0..n` into `shards` shards.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn contiguous(n: usize, shards: usize) -> Self {
        Self::new(n, shards, PartitionKind::Contiguous)
    }

    /// An index-strided partition of `0..n` into `shards` shards.
    ///
    /// # Panics
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn strided(n: usize, shards: usize) -> Self {
        Self::new(n, shards, PartitionKind::Strided)
    }

    /// Number of nodes partitioned.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `false`: partitions are never empty (enforced at
    /// construction); provided for API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The layout.
    pub fn kind(&self) -> PartitionKind {
        self.kind
    }

    /// Number of nodes in shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shards()`.
    pub fn size(&self, s: usize) -> usize {
        self.check_shard(s);
        let base = self.n / self.shards;
        // Both layouts hand the remainder to the lowest-indexed shards.
        base + usize::from(s < self.n % self.shards)
    }

    /// The shard owning node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()`.
    pub fn shard_of(&self, u: usize) -> usize {
        self.check_node(u);
        match self.kind {
            PartitionKind::Strided => u % self.shards,
            PartitionKind::Contiguous => {
                let base = self.n / self.shards;
                let rem = self.n % self.shards;
                let fat = rem * (base + 1);
                if u < fat {
                    u / (base + 1)
                } else {
                    rem + (u - fat) / base
                }
            }
        }
    }

    /// The position of node `u` inside its shard's local state array.
    ///
    /// # Panics
    ///
    /// Panics if `u >= len()`.
    pub fn local_index(&self, u: usize) -> usize {
        self.check_node(u);
        match self.kind {
            PartitionKind::Strided => u / self.shards,
            PartitionKind::Contiguous => u - self.range(self.shard_of(u)).start,
        }
    }

    /// The node at local position `j` of shard `s` — the inverse of
    /// [`local_index`](Self::local_index).
    ///
    /// # Panics
    ///
    /// Panics if `s >= shards()` or `j >= size(s)`.
    pub fn global_index(&self, s: usize, j: usize) -> usize {
        self.check_shard(s);
        assert!(
            j < self.size(s),
            "local index {j} out of range for shard {s} of {} nodes",
            self.size(s)
        );
        match self.kind {
            PartitionKind::Strided => j * self.shards + s,
            PartitionKind::Contiguous => self.range(s).start + j,
        }
    }

    /// The contiguous index range of shard `s` under the contiguous
    /// layout.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shards()` or the layout is
    /// [`Strided`](PartitionKind::Strided) (a strided shard has no
    /// contiguous range).
    pub fn range(&self, s: usize) -> core::ops::Range<usize> {
        self.check_shard(s);
        assert!(
            self.kind == PartitionKind::Contiguous,
            "range() is only defined for contiguous partitions"
        );
        let base = self.n / self.shards;
        let rem = self.n % self.shards;
        let start = s * base + s.min(rem);
        start..start + self.size(s)
    }

    /// Iterates the nodes of shard `s` in increasing order.
    ///
    /// # Panics
    ///
    /// Panics if `s >= shards()`.
    pub fn members(&self, s: usize) -> impl Iterator<Item = usize> + '_ {
        self.check_shard(s);
        (0..self.size(s)).map(move |j| self.global_index(s, j))
    }

    /// The cross-shard edges of `g`: every undirected edge `{u, v}` (as
    /// `(u, v)` with `u < v`) whose endpoints fall in different shards, in
    /// lexicographic order. These are exactly the interactions a
    /// partitioned engine cannot run shard-locally.
    ///
    /// # Panics
    ///
    /// Panics if `g.len() != len()`.
    pub fn boundary_edges(&self, g: &Csr) -> Vec<(u32, u32)> {
        assert_eq!(
            g.len(),
            self.n,
            "partition over {} nodes applied to a graph of {} nodes",
            self.n,
            g.len()
        );
        let mut out = Vec::new();
        for u in 0..self.n {
            let su = self.shard_of(u);
            for &v in g.neighbor_slice(u) {
                let v = v as usize;
                if u < v && self.shard_of(v) != su {
                    out.push((u as u32, v as u32));
                }
            }
        }
        out
    }

    /// The fraction of partner draws that cross shards when every edge is
    /// equally likely to carry the next interaction — `0.0` for a
    /// single-shard partition, approaching `(shards − 1)/shards` on
    /// expanders and the complete graph. This is the planning number for
    /// the partitioned engine: it is the expected share of interactions
    /// that must take the (sequential) reconciliation path instead of the
    /// parallel shard-local one.
    ///
    /// Exact under uniform scheduling on regular graphs; on irregular
    /// graphs it weights each node by its degree, which matches the edge
    /// (not the activation) distribution and is the conventional cut
    /// metric.
    ///
    /// # Panics
    ///
    /// Panics if `g.len() != len()` or `g` has no edges.
    pub fn cross_edge_fraction(&self, g: &Csr) -> f64 {
        assert!(g.num_edges() > 0, "cut fraction of an edgeless graph");
        self.boundary_edges(g).len() as f64 / g.num_edges() as f64
    }

    fn check_shard(&self, s: usize) {
        assert!(
            s < self.shards,
            "shard index {s} out of range for {} shards",
            self.shards
        );
    }

    fn check_node(&self, u: usize) {
        assert!(
            u < self.n,
            "node index {u} out of range for partition of {} nodes",
            self.n
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AdjacencyList, Complete, Cycle};

    #[test]
    fn contiguous_layout_round_trips() {
        for n in [1usize, 2, 7, 10, 64, 65] {
            for shards in [1usize, 2, 3, 5].into_iter().filter(|&s| s <= n) {
                let p = Partition::contiguous(n, shards);
                let total: usize = (0..shards).map(|s| p.size(s)).sum();
                assert_eq!(total, n);
                for u in 0..n {
                    let s = p.shard_of(u);
                    assert!(p.range(s).contains(&u));
                    assert_eq!(p.global_index(s, p.local_index(u)), u);
                }
            }
        }
    }

    #[test]
    fn strided_layout_round_trips() {
        for n in [1usize, 2, 7, 10, 64, 65] {
            for shards in [1usize, 2, 3, 5].into_iter().filter(|&s| s <= n) {
                let p = Partition::strided(n, shards);
                for u in 0..n {
                    assert_eq!(p.shard_of(u), u % shards);
                    assert_eq!(p.global_index(p.shard_of(u), p.local_index(u)), u);
                }
                for s in 0..shards {
                    let members: Vec<usize> = p.members(s).collect();
                    assert_eq!(members.len(), p.size(s));
                    assert!(members.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    #[test]
    fn sizes_differ_by_at_most_one() {
        for kind in [PartitionKind::Contiguous, PartitionKind::Strided] {
            let p = Partition::new(11, 4, kind);
            let sizes: Vec<usize> = (0..4).map(|s| p.size(s)).collect();
            assert_eq!(sizes, vec![3, 3, 3, 2]);
        }
    }

    #[test]
    fn cycle_boundary_edges_are_the_cut_points() {
        // A 12-cycle in 3 contiguous shards of 4: the cut edges are the
        // three range borders plus the wrap-around edge.
        let csr = Csr::from_topology(&Cycle::new(12));
        let p = Partition::contiguous(12, 3);
        assert_eq!(p.boundary_edges(&csr), vec![(0, 11), (3, 4), (7, 8)],);
        assert!((p.cross_edge_fraction(&csr) - 3.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn complete_cut_fraction_matches_closed_form() {
        // K_8 in 4 strided shards of 2: within-shard edges are 4 of 28.
        let csr = Csr::from_topology(&Complete::new(8));
        let p = Partition::strided(8, 4);
        assert_eq!(p.boundary_edges(&csr).len(), 24);
        assert!((p.cross_edge_fraction(&csr) - 24.0 / 28.0).abs() < 1e-12);
    }

    #[test]
    fn single_shard_has_no_boundary() {
        let csr = AdjacencyList::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]).to_csr();
        let p = Partition::contiguous(5, 1);
        assert!(p.boundary_edges(&csr).is_empty());
        assert_eq!(p.cross_edge_fraction(&csr), 0.0);
    }

    #[test]
    fn preferred_partition_follows_topology() {
        assert_eq!(
            Complete::new(8).preferred_partition(),
            PartitionKind::Strided
        );
        assert_eq!(
            Cycle::new(8).preferred_partition(),
            PartitionKind::Contiguous
        );
    }

    #[test]
    #[should_panic(expected = "empty shards")]
    fn rejects_more_shards_than_nodes() {
        Partition::contiguous(3, 4);
    }

    #[test]
    #[should_panic(expected = "only defined for contiguous")]
    fn strided_has_no_ranges() {
        Partition::strided(8, 2).range(0);
    }
}
