//! One-dimensional orderings: the transformation `T : V → {1, 2, …, n}`.
//!
//! An [`Ordering`] is a bijection between vertex ids and positions on the
//! one-dimensional list. "The goal of this transformation is to achieve good
//! partitioning for a wide range of partitions" (§3.1): after relabeling the
//! graph along the ordering, every contiguous block partition inherits the
//! spatial locality the ordering captured.

use crate::graph::Graph;
use crate::rcb;
use crate::rcm;
use crate::rib;
use crate::sfc;
use crate::spectral;

/// A bijection `vertex id ↔ position on the 1-D list`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ordering {
    /// `position_of[v]` = position of vertex `v` on the list.
    position_of: Vec<u32>,
}

impl Ordering {
    /// The identity ordering ("natural" vertex numbering).
    pub fn identity(n: usize) -> Self {
        Ordering {
            position_of: (0..n as u32).collect(),
        }
    }

    /// Builds from a `position_of` map.
    ///
    /// # Panics
    /// Panics unless the map is a permutation of `0..n`.
    pub fn from_positions(position_of: Vec<u32>) -> Self {
        let n = position_of.len();
        let mut seen = vec![false; n];
        for &p in &position_of {
            assert!(
                (p as usize) < n && !seen[p as usize],
                "position map is not a permutation"
            );
            seen[p as usize] = true;
        }
        Ordering { position_of }
    }

    /// Builds from a sequence: `sequence[i]` is the vertex placed at
    /// position `i`.
    ///
    /// # Panics
    /// Panics unless the sequence is a permutation of `0..n`.
    pub fn from_sequence(sequence: &[u32]) -> Self {
        let n = sequence.len();
        let mut position_of = vec![u32::MAX; n];
        for (pos, &v) in sequence.iter().enumerate() {
            assert!(
                (v as usize) < n && position_of[v as usize] == u32::MAX,
                "sequence is not a permutation"
            );
            position_of[v as usize] = pos as u32;
        }
        Ordering { position_of }
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.position_of.len()
    }

    /// Whether the ordering is over the empty vertex set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.position_of.is_empty()
    }

    /// Position of vertex `v`.
    #[inline]
    pub fn position_of(&self, v: usize) -> usize {
        self.position_of[v] as usize
    }

    /// The raw position map.
    #[inline]
    pub fn positions(&self) -> &[u32] {
        &self.position_of
    }

    /// The inverse map: `sequence()[i]` is the vertex at position `i`.
    pub fn sequence(&self) -> Vec<u32> {
        let mut seq = vec![0u32; self.position_of.len()];
        for (v, &p) in self.position_of.iter().enumerate() {
            seq[p as usize] = v as u32;
        }
        seq
    }

    /// Relabels a graph so vertex ids coincide with list positions. After
    /// this, block partitions of `0..n` are partitions of the mesh.
    pub fn apply(&self, graph: &Graph) -> Graph {
        graph.relabel(&self.position_of)
    }
}

/// The available one-dimensional indexing methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingMethod {
    /// Keep the input numbering (baseline — no locality improvement).
    Natural,
    /// Recursive coordinate bisection (Fig. 2 of the paper).
    Rcb,
    /// Recursive inertial bisection (splits along the principal axis).
    Inertial,
    /// Morton (Z-order) space-filling curve.
    Morton,
    /// Hilbert space-filling curve.
    Hilbert,
    /// Recursive spectral bisection (Fiedler vectors; the paper's choice for
    /// its experiments, citing \[19\]).
    Spectral,
    /// Reverse Cuthill–McKee (combinatorial BFS bandwidth reducer; needs no
    /// geometry).
    CuthillMcKee,
}

impl OrderingMethod {
    /// All methods, for sweeps/ablations.
    pub const ALL: [OrderingMethod; 7] = [
        OrderingMethod::Natural,
        OrderingMethod::Rcb,
        OrderingMethod::Inertial,
        OrderingMethod::Morton,
        OrderingMethod::Hilbert,
        OrderingMethod::Spectral,
        OrderingMethod::CuthillMcKee,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OrderingMethod::Natural => "natural",
            OrderingMethod::Rcb => "rcb",
            OrderingMethod::Inertial => "inertial",
            OrderingMethod::Morton => "morton",
            OrderingMethod::Hilbert => "hilbert",
            OrderingMethod::Spectral => "spectral",
            OrderingMethod::CuthillMcKee => "rcm",
        }
    }
}

impl std::fmt::Display for OrderingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Computes the one-dimensional ordering of `graph` with `method`.
pub fn compute_ordering(graph: &Graph, method: OrderingMethod) -> Ordering {
    match method {
        OrderingMethod::Natural => Ordering::identity(graph.num_vertices()),
        OrderingMethod::Rcb => rcb::rcb_ordering(graph),
        OrderingMethod::Inertial => rib::inertial_ordering(graph),
        OrderingMethod::Morton => sfc::morton_ordering(graph),
        OrderingMethod::Hilbert => sfc::hilbert_ordering(graph),
        OrderingMethod::Spectral => spectral::spectral_ordering(graph),
        OrderingMethod::CuthillMcKee => rcm::rcm_ordering(graph),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let o = Ordering::identity(5);
        assert_eq!(o.len(), 5);
        assert_eq!(o.position_of(3), 3);
        assert_eq!(o.sequence(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sequence_and_positions_are_inverse() {
        let o = Ordering::from_sequence(&[2, 0, 3, 1]);
        assert_eq!(o.position_of(2), 0);
        assert_eq!(o.position_of(0), 1);
        assert_eq!(o.position_of(1), 3);
        assert_eq!(o.sequence(), vec![2, 0, 3, 1]);
        let p = Ordering::from_positions(o.positions().to_vec());
        assert_eq!(p, o);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_positions_rejected() {
        let _ = Ordering::from_positions(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn bad_sequence_rejected() {
        let _ = Ordering::from_sequence(&[1, 1, 2]);
    }

    #[test]
    fn apply_relabels_graph() {
        let g = Graph::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![[0.0; 3], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            2,
        );
        let o = Ordering::from_sequence(&[2, 1, 0]); // reverse the path
        let h = o.apply(&g);
        // Path structure preserved: middle vertex still has degree 2.
        assert_eq!(h.degree(1), 2);
        assert_eq!(h.neighbors(0), &[1]);
        // Old vertex 2 (coord x=2) now sits at position 0.
        assert_eq!(h.coord(0)[0], 2.0);
    }

    #[test]
    fn method_names_unique() {
        let names: std::collections::HashSet<_> =
            OrderingMethod::ALL.iter().map(|m| m.name()).collect();
        assert_eq!(names.len(), OrderingMethod::ALL.len());
    }
}
