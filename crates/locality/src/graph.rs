//! Computational graphs in compressed sparse row form, with vertex
//! coordinates.
//!
//! "The nodes of these graphs represent tasks that can be executed
//! concurrently, while the edges represent the interactions between them"
//! (§3.1). Vertices carry 2-D or 3-D coordinates because the geometric
//! partitioners (RCB, inertial, space-filling curves) need them; purely
//! combinatorial methods (spectral) ignore them.

use crate::bisect::{host_threads, FORK_MIN};

/// An undirected computational graph in CSR form with coordinates, each
/// array at the width it needs: `u32` row pointers and column indices, and
/// `dim` coordinates per vertex — a 2-D vertex costs 20 bytes plus 4 per
/// reference.
///
/// Invariants (checked at construction):
/// * adjacency is symmetric: `v ∈ adj(u) ⇔ u ∈ adj(v)` (by construction:
///   every constructor writes both directions of an edge);
/// * no self-loops, no duplicate edges;
/// * neighbor lists are sorted ascending;
/// * one coordinate per vertex, with `z = 0` for 2-D graphs (not stored);
/// * at most `u32::MAX` references (twice the edge count), the reach of a
///   32-bit row pointer.
#[derive(Debug, Clone, PartialEq)]
pub struct Graph {
    /// CSR row pointers, length `n + 1`.
    xadj: Vec<u32>,
    /// CSR column indices, length `2m` (each undirected edge appears twice).
    adjncy: Vec<u32>,
    /// Vertex coordinates, `dim` per vertex: `v`'s are
    /// `coords[dim·v..dim·(v + 1)]`.
    coords: Vec<f64>,
    /// Geometric dimensionality (2 or 3).
    dim: usize,
}

/// `refs` as a 32-bit row pointer.
///
/// # Panics
/// Panics past `u32::MAX`: a [`Graph`]'s row pointers are 32-bit.
#[inline]
pub(crate) fn row_pointer(refs: usize) -> u32 {
    u32::try_from(refs).unwrap_or_else(|_| {
        panic!("a graph holds at most u32::MAX references (32-bit row pointers), not {refs}")
    })
}

impl Graph {
    /// Builds a graph from an undirected edge list. The coordinates are
    /// stored `dim` per vertex, so a 2-D graph's must have `z = 0`.
    ///
    /// Edges may appear in either orientation; duplicates and self-loops are
    /// rejected.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range, a self-loop or duplicate edge
    /// is present, `coords.len() != n`, `dim` is not 2 or 3, a 2-D vertex
    /// has a nonzero z (naming it), or the edges make more than `u32::MAX`
    /// references.
    pub fn from_edges(n: usize, edges: &[(u32, u32)], coords: Vec<[f64; 3]>, dim: usize) -> Self {
        assert!(dim == 2 || dim == 3, "dim must be 2 or 3, got {dim}");
        assert_eq!(coords.len(), n, "need one coordinate per vertex");
        if dim == 2 {
            if let Some(v) = coords.iter().position(|c| c[2] != 0.0) {
                panic!(
                    "a 2-D graph has z = 0, but vertex {v} is at {:?}",
                    coords[v]
                );
            }
        }
        let packed = coords.iter().flat_map(|c| &c[..dim]).copied().collect();
        Self::from_edge_list(n, edges, packed, dim)
    }

    /// [`Graph::from_edges`] with the coordinates already stored `dim` per
    /// vertex: what the generators write.
    pub(crate) fn from_edge_list(
        n: usize,
        edges: &[(u32, u32)],
        coords: Vec<f64>,
        dim: usize,
    ) -> Self {
        assert!(dim == 2 || dim == 3, "dim must be 2 or 3, got {dim}");
        assert_eq!(coords.len(), dim * n, "need one coordinate per vertex");
        // Refuses more references than the `u32` degrees below can count.
        row_pointer(2 * edges.len());
        let mut degree = vec![0u32; n];
        for &(u, v) in edges {
            assert!(
                (u as usize) < n && (v as usize) < n,
                "edge ({u}, {v}) out of range for n = {n}"
            );
            assert_ne!(u, v, "self-loop at vertex {u}");
            degree[u as usize] += 1;
            degree[v as usize] += 1;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        let mut acc = 0;
        xadj.push(0);
        for d in &degree {
            acc += d;
            xadj.push(acc);
        }
        let mut adjncy = vec![0u32; acc as usize];
        let mut cursor = xadj.clone();
        for &(u, v) in edges {
            adjncy[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            adjncy[cursor[v as usize] as usize] = u;
            cursor[v as usize] += 1;
        }
        for v in 0..n {
            let row = &mut adjncy[xadj[v] as usize..xadj[v + 1] as usize];
            row.sort_unstable();
            for w in row.windows(2) {
                assert_ne!(w[0], w[1], "duplicate edge at vertex {v}");
            }
        }
        Graph {
            xadj,
            adjncy,
            coords,
            dim,
        }
    }

    /// Adopts CSR arrays built elsewhere (a generator that writes its rows
    /// directly), making the checks [`Graph::from_edges`] makes in one pass
    /// and without allocating: every id in range, no self-loop, every row
    /// strictly ascending (which excludes duplicates). Symmetry is the
    /// caller's to guarantee. `coords` holds `dim` values per vertex.
    ///
    /// # Panics
    /// Panics if any of those checks fails, if `xadj` does not run from 0
    /// to `adjncy.len()` without decreasing, if `coords.len()` is not `dim`
    /// times the vertex count, or if `dim` is not 2 or 3.
    pub(crate) fn from_csr(xadj: Vec<u32>, adjncy: Vec<u32>, coords: Vec<f64>, dim: usize) -> Self {
        assert!(dim == 2 || dim == 3, "dim must be 2 or 3, got {dim}");
        let n = xadj.len() - 1;
        assert_eq!(coords.len(), dim * n, "need one coordinate per vertex");
        assert_eq!(xadj[0], 0, "row pointers must start at 0");
        assert_eq!(
            xadj[n] as usize,
            adjncy.len(),
            "row pointers must end at the column count"
        );
        for (v, bounds) in xadj.windows(2).enumerate() {
            // Slicing also rejects a decreasing row pointer.
            let row = &adjncy[bounds[0] as usize..bounds[1] as usize];
            for (i, &w) in row.iter().enumerate() {
                assert!((w as usize) < n, "edge ({v}, {w}) out of range for n = {n}");
                assert_ne!(w as usize, v, "self-loop at vertex {v}");
                assert!(
                    i == 0 || row[i - 1] < w,
                    "row {v} is not strictly ascending (duplicate edge or unsorted)"
                );
            }
        }
        Graph {
            xadj,
            adjncy,
            coords,
            dim,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Geometric dimensionality (2 or 3).
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjncy[self.xadj[v] as usize..self.xadj[v + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        (self.xadj[v + 1] - self.xadj[v]) as usize
    }

    /// The raw CSR window backing vertices `range`: the row-pointer slice
    /// `xadj[range.start..=range.end]` together with the full column-index
    /// array it indexes into. Consecutive vertices' rows are adjacent, so
    /// a rank extracting its block copies one slice instead of calling
    /// [`Graph::neighbors`] per vertex. The row pointers are `u32`, like
    /// the column indices: a graph holds at most `u32::MAX` references.
    #[inline]
    pub fn csr_window(&self, range: std::ops::Range<usize>) -> (&[u32], &[u32]) {
        (&self.xadj[range.start..=range.end], &self.adjncy)
    }

    /// Coordinate of `v`, with `z = 0` in a 2-D graph.
    #[inline]
    pub fn coord(&self, v: usize) -> [f64; 3] {
        let c = &self.coords[self.dim * v..self.dim * (v + 1)];
        [c[0], c[1], if self.dim == 3 { c[2] } else { 0.0 }]
    }

    /// All coordinates, [`Graph::dim`] per vertex: vertex `v`'s are
    /// `coords()[dim·v..dim·(v + 1)]`.
    #[inline]
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Iterates over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_vertices()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| (u as u32) < v)
                .map(move |&v| (u as u32, v))
        })
    }

    /// Whether the graph is connected (trivially true for `n ≤ 1`).
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Connected components: returns `(component_id_per_vertex, count)`.
    pub fn connected_components(&self) -> (Vec<u32>, usize) {
        let n = self.num_vertices();
        let mut comp = vec![u32::MAX; n];
        let mut count = 0;
        let mut stack = Vec::new();
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            comp[start] = count as u32;
            stack.push(start);
            while let Some(u) = stack.pop() {
                for &v in self.neighbors(u) {
                    let v = v as usize;
                    if comp[v] == u32::MAX {
                        comp[v] = count as u32;
                        stack.push(v);
                    }
                }
            }
            count += 1;
        }
        (comp, count)
    }

    /// Relabels vertices: vertex `v` becomes `new_of_old[v]`. The result has
    /// identical structure under the renaming; coordinates follow their
    /// vertices.
    ///
    /// The CSR arrays are permuted directly — new row pointers from the old
    /// degrees, then each new row mapped through `new_of_old` and sorted in
    /// place — with the rows split over the host's threads on large graphs.
    ///
    /// # Panics
    /// Panics unless `new_of_old` is a permutation of `0..n`.
    pub fn relabel(&self, new_of_old: &[u32]) -> Graph {
        let threads = host_threads().min(self.num_vertices() / FORK_MIN);
        self.relabel_on_threads(new_of_old, threads.max(1))
    }

    /// [`Graph::relabel`] with the rows filled by `threads` threads; the
    /// same graph for any number.
    pub(crate) fn relabel_on_threads(&self, new_of_old: &[u32], threads: usize) -> Graph {
        let n = self.num_vertices();
        assert_eq!(new_of_old.len(), n, "permutation length mismatch");
        // Inverting the map is also the check that it is a permutation.
        let mut old_of_new = vec![u32::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            assert!(
                (new as usize) < n && old_of_new[new as usize] == u32::MAX,
                "not a permutation"
            );
            old_of_new[new as usize] = old as u32;
        }
        let mut xadj = Vec::with_capacity(n + 1);
        xadj.push(0);
        for &old in &old_of_new {
            xadj.push(xadj[xadj.len() - 1] + self.degree(old as usize) as u32);
        }
        let dim = self.dim;
        let mut adjncy = vec![0u32; self.adjncy.len()];
        let mut coords = vec![0.0; self.coords.len()];

        // Fills the rows and coordinates of new vertices `first..`, `dim`
        // elements of `coords` each; `adjncy` is exactly their slice of the
        // array.
        let fill = |first: usize, mut adjncy: &mut [u32], coords: &mut [f64]| {
            for (new, coord) in (first..).zip(coords.chunks_exact_mut(dim)) {
                let old = old_of_new[new] as usize;
                let row;
                (row, adjncy) =
                    std::mem::take(&mut adjncy).split_at_mut((xadj[new + 1] - xadj[new]) as usize);
                for (slot, &neighbor) in row.iter_mut().zip(self.neighbors(old)) {
                    *slot = new_of_old[neighbor as usize];
                }
                row.sort_unstable();
                for w in row.windows(2) {
                    assert_ne!(w[0], w[1], "duplicate edge at vertex {new}");
                }
                coord.copy_from_slice(&self.coords[dim * old..dim * (old + 1)]);
            }
        };
        let fill = &fill;
        let rows_per_thread = n.div_ceil(threads).max(1);
        std::thread::scope(|s| {
            let mut adjncy = adjncy.as_mut_slice();
            let mut chunks = coords
                .chunks_mut(dim * rows_per_thread)
                .enumerate()
                .peekable();
            while let Some((i, coords)) = chunks.next() {
                let first = i * rows_per_thread;
                let rows;
                (rows, adjncy) = std::mem::take(&mut adjncy)
                    .split_at_mut((xadj[first + coords.len() / dim] - xadj[first]) as usize);
                if chunks.peek().is_some() {
                    s.spawn(move || fill(first, rows, coords));
                } else {
                    // The last chunk (the only one on small graphs) runs here.
                    fill(first, rows, coords);
                }
            }
        });
        Graph {
            xadj,
            adjncy,
            coords,
            dim,
        }
    }

    /// The induced subgraph on `vertices` (given as original ids). Returns
    /// the subgraph and the mapping `sub_id → original_id`.
    pub fn induced_subgraph(&self, vertices: &[u32]) -> (Graph, Vec<u32>) {
        let n = self.num_vertices();
        let mut sub_id = vec![u32::MAX; n];
        for (i, &v) in vertices.iter().enumerate() {
            assert!(
                sub_id[v as usize] == u32::MAX,
                "vertex {v} listed twice in induced_subgraph"
            );
            sub_id[v as usize] = i as u32;
        }
        let mut edges = Vec::new();
        for &v in vertices {
            for &w in self.neighbors(v as usize) {
                if v < w && sub_id[w as usize] != u32::MAX {
                    edges.push((sub_id[v as usize], sub_id[w as usize]));
                }
            }
        }
        let dim = self.dim;
        let coords = vertices
            .iter()
            .flat_map(|&v| &self.coords[dim * v as usize..dim * (v as usize + 1)])
            .copied()
            .collect();
        (
            Graph::from_edge_list(vertices.len(), &edges, coords, dim),
            vertices.to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2×2 grid: 0-1, 2-3 horizontal; 0-2, 1-3 vertical.
    fn square() -> Graph {
        Graph::from_edges(
            4,
            &[(0, 1), (2, 3), (0, 2), (1, 3)],
            vec![
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [1.0, 1.0, 0.0],
            ],
            2,
        )
    }

    #[test]
    fn construction_and_accessors() {
        let g = square();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(3), &[1, 2]);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.dim(), 2);
        assert_eq!(g.coord(3), [1.0, 1.0, 0.0]);
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let g = square();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn rejects_self_loop() {
        let _ = Graph::from_edges(2, &[(0, 0)], vec![[0.0; 3]; 2], 2);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        let _ = Graph::from_edges(2, &[(0, 1), (1, 0)], vec![[0.0; 3]; 2], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range() {
        let _ = Graph::from_edges(2, &[(0, 2)], vec![[0.0; 3]; 2], 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_csr_rejects_out_of_range() {
        let _ = Graph::from_csr(vec![0, 1, 2], vec![1, 2], vec![0.0; 4], 2);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn from_csr_rejects_self_loop() {
        let _ = Graph::from_csr(vec![0, 1, 2], vec![1, 1], vec![0.0; 4], 2);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_csr_rejects_duplicate_edges() {
        let _ = Graph::from_csr(vec![0, 2, 4], vec![1, 1, 0, 0], vec![0.0; 4], 2);
    }

    #[test]
    #[should_panic(expected = "not strictly ascending")]
    fn from_csr_rejects_unsorted_rows() {
        let _ = Graph::from_csr(vec![0, 2, 3, 4], vec![2, 1, 0, 0], vec![0.0; 6], 2);
    }

    #[test]
    #[should_panic(expected = "vertex 2 is at [0.0, 1.0, 0.5]")]
    fn rejects_nonzero_z_in_2d() {
        let coords = vec![[0.0; 3], [1.0, 0.0, 0.0], [0.0, 1.0, 0.5]];
        let _ = Graph::from_edges(3, &[(0, 1), (1, 2)], coords, 2);
    }

    #[test]
    #[should_panic(expected = "at most u32::MAX references")]
    fn row_pointers_stop_at_u32_max() {
        assert_eq!(row_pointer(u32::MAX as usize), u32::MAX);
        let _ = row_pointer(u32::MAX as usize + 1);
    }

    /// The footprint through the public API: `dim` coordinates a vertex,
    /// 32-bit row pointers.
    #[test]
    fn stores_dim_coordinates_and_u32_row_pointers() {
        let grid = crate::meshgen::triangulated_grid(7, 5, 0.3, 1);
        assert_eq!(grid.coords().len(), 2 * 35);
        assert_eq!(grid.coord(34)[2], 0.0);
        let cloud = Graph::from_edges(4, &[(0, 3)], vec![[1.0, 2.0, 3.0]; 4], 3);
        assert_eq!(cloud.coords().len(), 3 * 4);
        let (xadj, adjncy): (&[u32], &[u32]) = grid.csr_window(0..35);
        assert_eq!(std::mem::size_of_val(xadj), 4 * 36);
        assert_eq!(xadj[35] as usize, adjncy.len());
    }

    /// A 3-D graph's z follows its vertex through every writer that copies
    /// coordinates. (The thinning writes only 2-D grids.)
    #[test]
    fn z_survives_relabel_and_subgraph() {
        let coords: Vec<[f64; 3]> = (0..6)
            .map(|v| [f64::from(v), -f64::from(v), 0.5 + f64::from(v)])
            .collect();
        let edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)];
        let g = Graph::from_edges(6, &edges, coords.clone(), 3);
        let perm = [3, 5, 0, 1, 4, 2];
        let relabelled = g.relabel(&perm);
        for (v, &new) in perm.iter().enumerate() {
            assert_eq!(relabelled.coord(new as usize), coords[v]);
        }
        let (sub, back) = g.induced_subgraph(&[4, 1, 5]);
        for (i, &v) in back.iter().enumerate() {
            assert_eq!(sub.coord(i), coords[v as usize]);
        }
    }

    #[test]
    fn connectivity() {
        assert!(square().is_connected());
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)], vec![[0.0; 3]; 4], 2);
        assert!(!disconnected.is_connected());
        let (comp, count) = disconnected.connected_components();
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn empty_and_singleton() {
        let empty = Graph::from_edges(0, &[], vec![], 2);
        assert!(empty.is_connected());
        assert_eq!(empty.num_edges(), 0);
        let single = Graph::from_edges(1, &[], vec![[0.0; 3]], 3);
        assert!(single.is_connected());
        assert_eq!(single.degree(0), 0);
    }

    #[test]
    fn relabel_preserves_structure() {
        let g = square();
        // Swap 0 and 3.
        let h = g.relabel(&[3, 1, 2, 0]);
        assert_eq!(h.num_edges(), 4);
        // Old 0's neighbors {1,2} are new 3's neighbors.
        assert_eq!(h.neighbors(3), &[1, 2]);
        // Coordinates moved with the vertex.
        assert_eq!(h.coord(3), [0.0, 0.0, 0.0]);
        assert_eq!(h.coord(0), [1.0, 1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_non_permutation() {
        let _ = square().relabel(&[0, 0, 1, 2]);
    }

    #[test]
    fn induced_subgraph_maps_edges() {
        let g = square();
        let (sub, back) = g.induced_subgraph(&[0, 1, 3]);
        assert_eq!(sub.num_vertices(), 3);
        // Edges among {0,1,3}: (0,1) and (1,3).
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(back, vec![0, 1, 3]);
        assert_eq!(sub.neighbors(1), &[0, 2]); // sub 1 = old 1, adjacent to old 0 and old 3
    }
}
