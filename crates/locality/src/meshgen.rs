//! Synthetic unstructured meshes.
//!
//! The paper's experiments use an unstructured mesh of 30 269 vertices and
//! 44 929 edges (Fig. 9) whose origin is not given. We substitute generated
//! meshes with the same statistics: planar-embedded, irregular, sparse
//! (average degree ≈ 3) and spatially local — the properties the runtime's
//! behaviour actually depends on. All generators are seeded and
//! deterministic, and always return *connected* graphs (the spectral
//! partitioner and the symmetric-schedule optimizations assume
//! connectivity-friendly meshes; disconnected inputs are still handled but
//! make worse test fixtures).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::graph::{row_pointer, Graph};

/// Vertex/edge counts of the paper's Fig. 9 mesh.
pub const PAPER_MESH_VERTICES: usize = 30_269;
/// Edge count of the paper's Fig. 9 mesh.
pub const PAPER_MESH_EDGES: usize = 44_929;

/// A triangulated `nx × ny` grid with jittered coordinates: each unit cell
/// has its horizontal, vertical and one diagonal edge. Jitter displaces
/// vertex coordinates by up to `jitter/2` in each axis (structure is
/// unchanged; only geometry becomes irregular).
///
/// # Panics
/// Panics if `nx` or `ny` is zero or `jitter` is negative/non-finite.
pub fn triangulated_grid(nx: usize, ny: usize, jitter: f64, seed: u64) -> Graph {
    assert!(nx >= 1 && ny >= 1, "grid must be at least 1×1");
    assert!(
        jitter.is_finite() && jitter >= 0.0,
        "jitter must be finite and non-negative"
    );
    grid_prefix(nx, ny, jitter, seed, nx * ny)
}

/// The first `n` vertices of [`triangulated_grid`]`(nx, ny, jitter, seed)`
/// and the edges among them — the grid's induced subgraph on `0..n`,
/// written as sorted CSR rows straight from the cell pattern. Cell
/// `(x, y)` carries the diagonal `(x, y)–(x+1, y+1)` when `x + y` is even
/// and `(x+1, y)–(x, y+1)` otherwise, so a vertex with `x + y` even meets
/// all eight neighbours around it and any other vertex its four axis
/// neighbours. The rows push those in id order and drop ids `≥ n`.
pub(crate) fn grid_prefix(nx: usize, ny: usize, jitter: f64, seed: u64, n: usize) -> Graph {
    assert!(n <= nx * ny, "a {nx}×{ny} grid has no {n}-vertex prefix");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = Vec::with_capacity(2 * n);
    for v in 0..n {
        let dx = (rng.random::<f64>() - 0.5) * jitter;
        let dy = (rng.random::<f64>() - 0.5) * jitter;
        coords.extend([(v % nx) as f64 + dx, (v / nx) as f64 + dy]);
    }
    // Twice the whole grid's edge count: every prefix fits.
    let full = (nx - 1) * ny + nx * (ny - 1) + (nx - 1) * (ny - 1);
    let mut adjncy = Vec::with_capacity(2 * full);
    let mut xadj = Vec::with_capacity(n + 1);
    xadj.push(0);
    for v in 0..n {
        let (x, y) = (v % nx, v / nx);
        let (left, right) = (x > 0, x + 1 < nx);
        let (below, above) = (y > 0, y + 1 < ny);
        let diagonals = (x + y) % 2 == 0;
        let candidates = [
            (below && left && diagonals, v.wrapping_sub(nx + 1)),
            (below, v.wrapping_sub(nx)),
            (below && right && diagonals, v.wrapping_sub(nx - 1)),
            (left, v.wrapping_sub(1)),
            (right, v + 1),
            (above && left && diagonals, v + nx - 1),
            (above, v + nx),
            (above && right && diagonals, v + nx + 1),
        ];
        for (present, w) in candidates {
            if present && w < n {
                adjncy.push(w as u32);
            }
        }
        xadj.push(row_pointer(adjncy.len()));
    }
    Graph::from_csr(xadj, adjncy, coords, 2)
}

/// Removes random non-tree edges until exactly `target_edges` remain,
/// preserving connectivity. The kept set is exactly the BFS tree from
/// vertex 0 plus the first `target_edges − (n − 1)` edges of a shuffle,
/// seeded with `seed`, of the non-tree edges in [`Graph::edges`] order: the
/// contract that keeps every thinned mesh bitwise-stable. Each row is
/// copied from the input with only its kept slots, so it stays sorted.
///
/// # Panics
/// Panics if the graph is disconnected, or if `target_edges` is below
/// `n − 1` (connectivity would be impossible) or above the current count.
pub fn thin_to_edges(graph: &Graph, target_edges: usize, seed: u64) -> Graph {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    assert!(
        target_edges <= m,
        "cannot thin {m} edges up to {target_edges}"
    );
    assert!(
        target_edges + 1 >= n,
        "target {target_edges} cannot keep {n} vertices connected"
    );
    // BFS parents. The root is its own, which no edge matches (there are no
    // self-loops), so `(u, w)` is a tree edge iff one is the other's parent.
    let mut parent = vec![u32::MAX; n];
    let mut queue = Vec::with_capacity(n);
    if n > 0 {
        parent[0] = 0;
        queue.push(0);
    }
    for i in 0..n {
        assert!(i < queue.len(), "thin_to_edges requires a connected graph");
        let u = queue[i];
        for &w in graph.neighbors(u as usize) {
            if parent[w as usize] == u32::MAX {
                parent[w as usize] = u;
                queue.push(w);
            }
        }
    }
    let is_tree = |u: u32, w: u32| parent[w as usize] == u || parent[u as usize] == w;
    // Each non-tree edge `(u, w)`, `u < w`, as its slot in `u`'s row: the
    // order of `Graph::edges`, in 4 bytes an edge. The shuffle's draws do
    // not depend on what it permutes.
    let (xadj, adjncy) = graph.csr_window(0..n);
    let mut non_tree = Vec::with_capacity(m - n.saturating_sub(1));
    for (u, bounds) in xadj.windows(2).enumerate() {
        for s in bounds[0]..bounds[1] {
            let w = adjncy[s as usize];
            if u < w as usize && !is_tree(u as u32, w) {
                non_tree.push(s);
            }
        }
    }
    non_tree.shuffle(&mut StdRng::seed_from_u64(seed));
    let mut kept = vec![false; adjncy.len()];
    for &s in &non_tree[..target_edges - n.saturating_sub(1)] {
        // The row holding slot `s`, and the mirror slot in `w`'s row.
        let u = xadj.partition_point(|&p| p <= s) - 1;
        let w = adjncy[s as usize] as usize;
        let mirror = graph.neighbors(w).binary_search(&(u as u32)).unwrap();
        kept[s as usize] = true;
        kept[xadj[w] as usize + mirror] = true;
    }
    // Not held while the thinned rows are written.
    drop(non_tree);
    let mut thin_xadj = Vec::with_capacity(n + 1);
    let mut thin_adjncy = Vec::with_capacity(2 * target_edges);
    thin_xadj.push(0);
    for (u, bounds) in xadj.windows(2).enumerate() {
        for s in bounds[0] as usize..bounds[1] as usize {
            if kept[s] || is_tree(u as u32, adjncy[s]) {
                thin_adjncy.push(adjncy[s]);
            }
        }
        // At most the input's references: no overflow.
        thin_xadj.push(thin_adjncy.len() as u32);
    }
    Graph::from_csr(thin_xadj, thin_adjncy, graph.coords().to_vec(), graph.dim())
}

/// Randomly permutes vertex labels (structure and geometry unchanged).
/// Mesh files rarely number vertices in a spatially coherent order, so a
/// shuffle makes the "natural ordering" baseline honest.
pub fn shuffle_labels(graph: &Graph, seed: u64) -> Graph {
    let n = graph.num_vertices();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    perm.shuffle(&mut rng);
    graph.relabel(&perm)
}

/// The Fig. 9 substitute: a jittered triangulated grid trimmed to exactly
/// [`PAPER_MESH_VERTICES`] vertices, thinned to [`PAPER_MESH_EDGES`] edges
/// (average degree ≈ 2.97, matching the paper's mesh), with vertex labels
/// shuffled as in a real mesh file.
pub fn paper_mesh(seed: u64) -> Graph {
    // 174 × 174 = 30 276 vertices less the trailing 7 (end of the last
    // row — removal keeps the grid connected), written without them.
    let trimmed = grid_prefix(174, 174, 0.6, seed, PAPER_MESH_VERTICES);
    debug_assert!(trimmed.is_connected());
    let g = thin_to_edges(&trimmed, PAPER_MESH_EDGES, seed ^ 0x5EED_CAFE);
    debug_assert_eq!(g.num_vertices(), PAPER_MESH_VERTICES);
    debug_assert_eq!(g.num_edges(), PAPER_MESH_EDGES);
    shuffle_labels(&g, seed ^ 0x0BAD_C0DE)
}

/// An annulus ("airfoil-like") mesh: `rings` concentric rings of `sectors`
/// vertices each, radius growing geometrically so cells cluster near the
/// inner boundary — mimicking meshes refined around a body.
///
/// # Panics
/// Panics unless `rings ≥ 2` and `sectors ≥ 3`.
pub fn annulus_mesh(rings: usize, sectors: usize, seed: u64) -> Graph {
    assert!(
        rings >= 2 && sectors >= 3,
        "annulus needs rings ≥ 2, sectors ≥ 3"
    );
    let n = rings * sectors;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = Vec::with_capacity(2 * n);
    let growth: f64 = 1.15;
    for r in 0..rings {
        let radius = growth.powi(r as i32);
        for s in 0..sectors {
            let jitter = (rng.random::<f64>() - 0.5) * 0.05;
            let theta = (s as f64 + jitter) / sectors as f64 * std::f64::consts::TAU;
            coords.extend([radius * theta.cos(), radius * theta.sin()]);
        }
    }
    let idx = |r: usize, s: usize| (r * sectors + s % sectors) as u32;
    let mut edges = Vec::new();
    for r in 0..rings {
        for s in 0..sectors {
            // Ring edge.
            let a = idx(r, s);
            let b = idx(r, s + 1);
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
            // Radial edge + alternating diagonal.
            if r + 1 < rings {
                edges.push((idx(r, s), idx(r + 1, s)));
                if (r + s) % 2 == 0 {
                    let c = idx(r, s);
                    let d = idx(r + 1, (s + 1) % sectors);
                    edges.push((c.min(d), c.max(d)));
                }
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edge_list(n, &edges, coords, 2)
}

/// A random geometric graph: `n` uniform points in the unit square, edges
/// between pairs closer than `radius`, then augmented with a path through
/// the points in x-order so the result is always connected.
pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Graph {
    assert!(n >= 1, "need at least one vertex");
    assert!(
        radius > 0.0 && radius.is_finite(),
        "radius must be positive"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<f64> = (0..2 * n).map(|_| rng.random::<f64>()).collect();
    // Cell grid for neighbor search.
    let cell = radius;
    let cells_per_axis = (1.0 / cell).ceil() as i64 + 1;
    let mut grid: std::collections::HashMap<(i64, i64), Vec<u32>> =
        std::collections::HashMap::new();
    for (v, c) in coords.chunks_exact(2).enumerate() {
        let key = ((c[0] / cell) as i64, (c[1] / cell) as i64);
        grid.entry(key).or_default().push(v as u32);
    }
    let mut edges = Vec::new();
    let r2 = radius * radius;
    for (v, c) in coords.chunks_exact(2).enumerate() {
        let (cx, cy) = ((c[0] / cell) as i64, (c[1] / cell) as i64);
        for dx in -1..=1 {
            for dy in -1..=1 {
                let (nx, ny) = (cx + dx, cy + dy);
                if nx < 0 || ny < 0 || nx >= cells_per_axis || ny >= cells_per_axis {
                    continue;
                }
                if let Some(cands) = grid.get(&(nx, ny)) {
                    for &w in cands {
                        if (w as usize) > v {
                            let cw = &coords[2 * w as usize..];
                            let d2 = (cw[0] - c[0]).powi(2) + (cw[1] - c[1]).powi(2);
                            if d2 <= r2 {
                                edges.push((v as u32, w));
                            }
                        }
                    }
                }
            }
        }
    }
    // Connectivity backbone: path through x-sorted order.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|&a, &b| {
        coords[2 * a as usize]
            .partial_cmp(&coords[2 * b as usize])
            .expect("coords are finite")
            .then(a.cmp(&b))
    });
    for w in order.windows(2) {
        let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
        edges.push((a, b));
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edge_list(n, &edges, coords, 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangulated_grid_counts() {
        let g = triangulated_grid(4, 3, 0.0, 1);
        assert_eq!(g.num_vertices(), 12);
        // Edges: horizontal 3×3=9, vertical 4×2=8, diagonals 3×2=6 → 23.
        assert_eq!(g.num_edges(), 23);
        assert!(g.is_connected());
    }

    #[test]
    fn triangulated_grid_jitter_moves_coords_not_structure() {
        let a = triangulated_grid(5, 5, 0.0, 7);
        let b = triangulated_grid(5, 5, 0.5, 7);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_ne!(a.coords(), b.coords());
        // Jitter is bounded by 0.25 in each axis.
        for v in 0..a.num_vertices() {
            let ca = a.coord(v);
            let cb = b.coord(v);
            assert!((ca[0] - cb[0]).abs() <= 0.25 + 1e-12);
            assert!((ca[1] - cb[1]).abs() <= 0.25 + 1e-12);
        }
    }

    #[test]
    fn thin_preserves_connectivity_and_count() {
        let g = triangulated_grid(10, 10, 0.3, 3);
        let target = g.num_vertices() + 20;
        let thinned = thin_to_edges(&g, target, 9);
        assert_eq!(thinned.num_edges(), target);
        assert_eq!(thinned.num_vertices(), g.num_vertices());
        assert!(thinned.is_connected());
    }

    #[test]
    fn thin_to_tree() {
        let g = triangulated_grid(6, 6, 0.0, 2);
        let tree = thin_to_edges(&g, g.num_vertices() - 1, 5);
        assert_eq!(tree.num_edges(), 35);
        assert!(tree.is_connected());
        assert_eq!(tree, crate::oracles::thin_to_edges_oracle(&g, 35, 5));
    }

    #[test]
    fn thin_to_every_edge_is_the_input() {
        // The empty and one-vertex graphs have no `n − 1` edges to keep.
        let empty = Graph::from_edges(0, &[], vec![], 2);
        for g in [
            empty,
            triangulated_grid(1, 1, 0.3, 4),
            triangulated_grid(7, 5, 0.3, 4),
        ] {
            assert_eq!(thin_to_edges(&g, g.num_edges(), 1), g);
        }
    }

    #[test]
    #[should_panic(expected = "requires a connected graph")]
    fn thin_rejects_disconnected_input() {
        let triangle_and_pair = [(0, 1), (0, 2), (1, 2), (3, 4)];
        let g = Graph::from_edges(5, &triangle_and_pair, vec![[0.0; 3]; 5], 2);
        let _ = thin_to_edges(&g, 4, 0);
    }

    #[test]
    #[should_panic(expected = "cannot keep")]
    fn thin_below_tree_rejected() {
        let g = triangulated_grid(4, 4, 0.0, 2);
        let _ = thin_to_edges(&g, 10, 0);
    }

    #[test]
    fn paper_mesh_matches_figure9() {
        let g = paper_mesh(42);
        assert_eq!(g.num_vertices(), PAPER_MESH_VERTICES);
        assert_eq!(g.num_edges(), PAPER_MESH_EDGES);
        assert!(g.is_connected());
        // Average degree ≈ 2.97 as in the paper.
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!((avg - 2.97).abs() < 0.01, "average degree {avg}");
    }

    #[test]
    fn paper_mesh_deterministic_per_seed() {
        assert_eq!(paper_mesh(1), paper_mesh(1));
        assert_ne!(paper_mesh(1), paper_mesh(2));
    }

    #[test]
    fn annulus_connected_and_planar_sized() {
        let g = annulus_mesh(6, 24, 11);
        assert_eq!(g.num_vertices(), 144);
        assert!(g.is_connected());
        // Inner ring is denser in space: radius grows with ring index.
        let inner = g.coord(0);
        let outer = g.coord(143);
        let rin = (inner[0].powi(2) + inner[1].powi(2)).sqrt();
        let rout = (outer[0].powi(2) + outer[1].powi(2)).sqrt();
        assert!(rout > rin);
    }

    #[test]
    fn random_geometric_connected() {
        for seed in 0..3 {
            let g = random_geometric(200, 0.05, seed);
            assert!(g.is_connected(), "seed {seed} gave a disconnected graph");
            assert_eq!(g.num_vertices(), 200);
        }
    }

    #[test]
    fn random_geometric_radius_controls_density() {
        let sparse = random_geometric(300, 0.03, 5);
        let dense = random_geometric(300, 0.12, 5);
        assert!(dense.num_edges() > sparse.num_edges());
    }
}
