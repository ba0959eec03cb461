//! Each processor's local view of the computational graph.
//!
//! After Phase A the graph is relabeled so vertex ids equal list positions;
//! each rank owns a contiguous interval. [`LocalAdjacency`] is that rank's
//! slice of the CSR structure: for every owned vertex, the *global* ids of
//! its neighbors (which the inspector will classify as local or
//! off-processor). This is exactly the indirection array `ia` of the
//! paper's Fig. 8 loop, restricted to one processor.

use stance_locality::Graph;
use stance_onedim::{BlockPartition, Interval};

use crate::schedule::TranslatedAdjacency;

/// One rank's slice of the (reordered) computational graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAdjacency {
    /// The global interval this rank owns.
    interval: Interval,
    /// CSR row pointers over owned vertices, length `len + 1`.
    xadj: Vec<usize>,
    /// Global neighbor ids.
    refs: Vec<u32>,
}

impl LocalAdjacency {
    /// Extracts rank `rank`'s slice from the reordered graph.
    ///
    /// # Panics
    /// Panics if the partition does not cover the graph's vertex set.
    pub fn extract(graph: &Graph, partition: &BlockPartition, rank: usize) -> Self {
        assert_eq!(
            graph.num_vertices(),
            partition.n(),
            "partition covers {} elements but the graph has {} vertices",
            partition.n(),
            graph.num_vertices()
        );
        let interval = partition.interval_of(rank);
        // A rank's rows are contiguous in the graph's CSR as well: one copy
        // of the window's references, and its row pointers rebased to zero.
        let (rows, adjncy) = graph.csr_window(interval.start..interval.end);
        let base = rows[0];
        LocalAdjacency {
            interval,
            xadj: rows.iter().map(|&x| x - base).collect(),
            refs: adjncy[base..rows[interval.len()]].to_vec(),
        }
    }

    /// Builds directly from parts (for tests and custom pipelines).
    ///
    /// # Panics
    /// Panics if the CSR shape is inconsistent.
    pub fn from_parts(interval: Interval, xadj: Vec<usize>, refs: Vec<u32>) -> Self {
        assert_eq!(xadj.len(), interval.len() + 1, "xadj length mismatch");
        assert_eq!(*xadj.first().expect("nonempty xadj"), 0);
        assert_eq!(*xadj.last().expect("nonempty xadj"), refs.len());
        assert!(
            xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj must be monotone"
        );
        LocalAdjacency {
            interval,
            xadj,
            refs,
        }
    }

    /// The owned global interval.
    #[inline]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Number of owned vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.interval.len()
    }

    /// Whether this rank owns no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.interval.is_empty()
    }

    /// Global neighbor ids of the `local`-th owned vertex.
    #[inline]
    pub fn neighbors_of(&self, local: usize) -> &[u32] {
        &self.refs[self.xadj[local]..self.xadj[local + 1]]
    }

    /// Degree of the `local`-th owned vertex.
    #[inline]
    pub fn degree_of(&self, local: usize) -> usize {
        self.xadj[local + 1] - self.xadj[local]
    }

    /// All global references in CSR order (the raw indirection array).
    #[inline]
    pub fn refs(&self) -> &[u32] {
        &self.refs
    }

    /// Total number of references (2 × local edges + cut edges).
    #[inline]
    pub fn num_refs(&self) -> usize {
        self.refs.len()
    }

    /// All references of the contiguous local-vertex range `lo..hi`, as one
    /// slice (rows are CSR-adjacent, so a whole range of rows bulk-copies
    /// with a single `extend_from_slice` instead of one call per row).
    #[inline]
    pub fn refs_in(&self, lo: usize, hi: usize) -> &[u32] {
        &self.refs[self.xadj[lo]..self.xadj[hi]]
    }

    /// The raw CSR window backing local vertices `range`: the row-pointer
    /// slice `xadj[range.start..=range.end]` (so `window.0[i + 1] -
    /// window.0[i]` is the degree of local vertex `range.start + i`)
    /// together with the full reference array it indexes into — what a
    /// bulk consumer (the remap's adjacency move, a chunked inspector
    /// pass) wants instead of one [`LocalAdjacency::neighbors_of`] call
    /// per row.
    #[inline]
    pub fn csr_window(&self, range: std::ops::Range<usize>) -> (&[usize], &[u32]) {
        (&self.xadj[range.start..=range.end], &self.refs)
    }

    /// Walks the rows in fixed chunks of
    /// [`TranslatedAdjacency::BLOCK_ROWS`], yielding each chunk's
    /// local-vertex range with the contiguous slice of references its rows
    /// make — the unit the inspector's passes decide "interior or not" on.
    pub(crate) fn row_chunks(&self) -> impl Iterator<Item = (std::ops::Range<usize>, &[u32])> + '_ {
        const ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;
        (0..self.len()).step_by(ROWS).map(move |lo| {
            let hi = self.len().min(lo + ROWS);
            (lo..hi, self.refs_in(lo, hi))
        })
    }

    /// Dismantles the structure into `(interval, xadj, refs)` so a retired
    /// adjacency's storage can be recycled into the next rebuild.
    pub fn into_parts(self) -> (Interval, Vec<usize>, Vec<u32>) {
        (self.interval, self.xadj, self.refs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
        Graph::from_edges(n, &edges, coords, 2)
    }

    #[test]
    fn extract_middle_rank() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        assert_eq!(adj.interval(), Interval::new(3, 6));
        assert_eq!(adj.len(), 3);
        // Vertex 3's neighbors: 2 (off-proc) and 4 (local).
        assert_eq!(adj.neighbors_of(0), &[2, 4]);
        assert_eq!(adj.neighbors_of(2), &[4, 6]);
        assert_eq!(adj.degree_of(1), 2);
        assert_eq!(adj.num_refs(), 6);
    }

    #[test]
    fn extract_edge_ranks() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let first = LocalAdjacency::extract(&g, &part, 0);
        assert_eq!(first.neighbors_of(0), &[1]);
        let last = LocalAdjacency::extract(&g, &part, 2);
        assert_eq!(last.neighbors_of(2), &[7]);
    }

    #[test]
    fn empty_rank_slice() {
        let g = path_graph(4);
        let part = BlockPartition::from_sizes(&[4, 0]);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        assert!(adj.is_empty());
        assert_eq!(adj.num_refs(), 0);
    }

    #[test]
    fn from_parts_validation() {
        let adj = LocalAdjacency::from_parts(Interval::new(5, 7), vec![0, 2, 3], vec![1, 6, 5]);
        assert_eq!(adj.neighbors_of(0), &[1, 6]);
        assert_eq!(adj.neighbors_of(1), &[5]);
    }

    #[test]
    #[should_panic(expected = "xadj length mismatch")]
    fn from_parts_rejects_bad_shape() {
        let _ = LocalAdjacency::from_parts(Interval::new(0, 3), vec![0, 1], vec![1]);
    }
}
