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
//!
//! [`paper_mesh`] and [`small_mesh`] are one construction at two sizes: a
//! jittered triangulated grid, thinned to a target edge count and
//! relabelled at random. One writer makes both in a single pass, from the
//! cell pattern to the thinned, relabelled rows; its documentation states
//! the thinning contract that keeps every such mesh bitwise-stable.

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

/// The eight neighbour candidates of vertex `v` of an `nx × ny`
/// triangulated grid, in ascending id order, each with whether the cell
/// pattern has that edge. Cell `(x, y)` carries the diagonal
/// `(x, y)–(x+1, y+1)` when `x + y` is even and `(x+1, y)–(x, y+1)`
/// otherwise, so a vertex with `x + y` even meets all eight neighbours
/// around it and any other vertex its four axis neighbours. Candidate `k`
/// of `v` is `v`'s edge to `w` exactly when candidate `7 − k` of `w` is
/// the same edge back; candidates `4..8` are the ones above `v`.
#[inline]
fn candidates(nx: usize, ny: usize, v: usize) -> [(bool, usize); 8] {
    let (x, y) = (v % nx, v / nx);
    let (left, right) = (x > 0, x + 1 < nx);
    let (below, above) = (y > 0, y + 1 < ny);
    let diagonals = (x + y) % 2 == 0;
    [
        (below && left && diagonals, v.wrapping_sub(nx + 1)),
        (below, v.wrapping_sub(nx)),
        (below && right && diagonals, v.wrapping_sub(nx - 1)),
        (left, v.wrapping_sub(1)),
        (right, v + 1),
        (above && left && diagonals, v + nx - 1),
        (above, v + nx),
        (above && right && diagonals, v + nx + 1),
    ]
}

/// The jittered coordinates of grid vertex `v`: the draws every grid
/// generator makes, two per vertex in id order from `rng`.
#[inline]
fn jittered(rng: &mut StdRng, nx: usize, jitter: f64, v: usize) -> [f64; 2] {
    let dx = (rng.random::<f64>() - 0.5) * jitter;
    let dy = (rng.random::<f64>() - 0.5) * jitter;
    [(v % nx) as f64 + dx, (v / nx) as f64 + dy]
}

/// The first `n` vertices of [`triangulated_grid`]`(nx, ny, jitter, seed)`
/// and the edges among them — the grid's induced subgraph on `0..n`,
/// written as sorted CSR rows straight from the cell pattern
/// ([`candidates`], dropping ids `≥ n`).
pub(crate) fn grid_prefix(nx: usize, ny: usize, jitter: f64, seed: u64, n: usize) -> Graph {
    assert!(n <= nx * ny, "a {nx}×{ny} grid has no {n}-vertex prefix");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = Vec::with_capacity(2 * n);
    for v in 0..n {
        coords.extend(jittered(&mut rng, nx, jitter, v));
    }
    // Twice the whole grid's edge count: every prefix fits.
    let full = (nx - 1) * ny + nx * (ny - 1) + (nx - 1) * (ny - 1);
    let mut adjncy = Vec::with_capacity(2 * full);
    let mut xadj = Vec::with_capacity(n + 1);
    xadj.push(0);
    for v in 0..n {
        for (present, w) in candidates(nx, ny, v) {
            if present && w < n {
                adjncy.push(w as u32);
            }
        }
        xadj.push(row_pointer(adjncy.len()));
    }
    Graph::from_csr(xadj, adjncy, coords, 2)
}

/// The grid prefix [`grid_prefix`]`(nx, ny, jitter, seed, n)` thinned to
/// `target_edges` edges and relabelled, in one pass: no grid, no thinned
/// copy, only the returned graph's arrays and four per-vertex or per-edge
/// scratch lists.
///
/// The thinning keeps the mesh connected, and its kept set is exactly the
/// BFS tree from vertex 0 plus the first `target_edges − (n − 1)` edges of
/// a shuffle, seeded with `thin_seed`, of the non-tree edges in
/// [`Graph::edges`] order — the contract that keeps every thinned mesh
/// bitwise-stable. Vertex `v` is then labelled `perm[v]`, where `perm` is
/// `0..n` shuffled with `shuffle_seed`, as mesh files rarely number
/// vertices in a spatially coherent order.
///
/// The grid's rows are never written: a vertex's neighbours are its
/// [`candidates`], the BFS and the non-tree list walk those, an edge is
/// coded `u·8 + k` for `u`'s candidate `k`, and the kept edges are one
/// direction mask per vertex. Each row is written once, at its new label,
/// and sorted.
///
/// # Panics
/// Panics if `n` exceeds the grid or `2^29` vertices, or if `target_edges`
/// is below `n − 1` (connectivity would be impossible) or above the
/// prefix's edge count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn thinned_grid(
    nx: usize,
    ny: usize,
    jitter: f64,
    seed: u64,
    n: usize,
    target_edges: usize,
    thin_seed: u64,
    shuffle_seed: u64,
) -> Graph {
    assert!(n <= nx * ny, "a {nx}×{ny} grid has no {n}-vertex prefix");
    assert!(n <= 1 << 29, "edge codes u·8 + k must fit a u32");
    let tree = n.saturating_sub(1);
    assert!(
        target_edges >= tree,
        "target {target_edges} cannot keep {n} vertices connected"
    );
    // The labels first (their own RNG), so each coordinate is written once,
    // at its vertex's new label.
    let mut new_of: Vec<u32> = (0..n as u32).collect();
    new_of.shuffle(&mut StdRng::seed_from_u64(shuffle_seed));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = vec![0.0; 2 * n];
    for (v, &new) in new_of.iter().enumerate() {
        let at = 2 * new as usize;
        coords[at..at + 2].copy_from_slice(&jittered(&mut rng, nx, jitter, v));
    }
    // Bit `k` of `kept[v]`: `v` keeps its edge to candidate `k`. The BFS
    // sets the tree's, so once the root's row is walked (no candidate of
    // the root is the root) a vertex is reached exactly when its mask is
    // not empty.
    let mut kept = vec![0u8; n];
    let mut queue = Vec::with_capacity(n);
    if n > 0 {
        queue.push(0u32);
    }
    let mut refs = 0;
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        head += 1;
        let u = u as usize;
        for (k, (present, w)) in candidates(nx, ny, u).into_iter().enumerate() {
            if present && w < n {
                refs += 1;
                if kept[w] == 0 {
                    kept[u] |= 1 << k;
                    kept[w] |= 1 << (7 - k);
                    queue.push(w as u32);
                }
            }
        }
    }
    assert_eq!(queue.len(), n, "a grid prefix is connected");
    drop(queue);
    let edges = refs / 2;
    assert!(
        target_edges <= edges,
        "cannot thin {edges} edges up to {target_edges}"
    );
    // The non-tree edges in `Graph::edges` order: by lower end, then by
    // candidate. The shuffle's draws do not depend on what it permutes.
    let mut non_tree = Vec::with_capacity(edges - tree);
    for (u, &mask) in kept.iter().enumerate() {
        for (k, (present, w)) in candidates(nx, ny, u).into_iter().enumerate().skip(4) {
            if present && w < n && mask & 1 << k == 0 {
                non_tree.push((8 * u + k) as u32);
            }
        }
    }
    non_tree.shuffle(&mut StdRng::seed_from_u64(thin_seed));
    for &code in &non_tree[..target_edges - tree] {
        let (u, k) = (code as usize / 8, code as usize % 8);
        let w = candidates(nx, ny, u)[k].1;
        kept[u] |= 1 << k;
        kept[w] |= 1 << (7 - k);
    }
    // Not held while the rows are written.
    drop(non_tree);
    let mut xadj = vec![0; n + 1];
    for (v, &new) in new_of.iter().enumerate() {
        xadj[new as usize + 1] = kept[v].count_ones();
    }
    for i in 0..n {
        xadj[i + 1] += xadj[i];
    }
    let mut adjncy = vec![0; 2 * target_edges];
    for (v, &new) in new_of.iter().enumerate() {
        let row = &mut adjncy[xadj[new as usize] as usize..xadj[new as usize + 1] as usize];
        let neighbours = candidates(nx, ny, v)
            .into_iter()
            .enumerate()
            .filter(|&(k, _)| kept[v] & 1 << k != 0)
            .map(|(_, (_, w))| new_of[w]);
        for (slot, w) in row.iter_mut().zip(neighbours) {
            *slot = w;
        }
        row.sort_unstable();
    }
    Graph::from_csr(xadj, adjncy, coords, 2)
}

/// The Fig. 9 substitute: a jittered 174 × 174 triangulated grid trimmed to
/// exactly [`PAPER_MESH_VERTICES`] vertices (the last row loses its trailing
/// 7, which keeps it connected), thinned to [`PAPER_MESH_EDGES`] edges
/// (average degree ≈ 2.97, matching the paper's mesh), with vertex labels
/// shuffled as in a real mesh file.
pub fn paper_mesh(seed: u64) -> Graph {
    thinned_grid(
        174,
        174,
        0.6,
        seed,
        PAPER_MESH_VERTICES,
        PAPER_MESH_EDGES,
        seed ^ 0x5EED_CAFE,
        seed ^ 0x0BAD_C0DE,
    )
}

/// A smaller stand-in with the paper mesh's construction, for quick runs
/// and debug builds: a jittered 56 × 56 triangulated grid thinned to 4 704
/// edges (average degree 3), with vertex labels shuffled.
pub fn small_mesh(seed: u64) -> Graph {
    let n = 56 * 56;
    thinned_grid(
        56,
        56,
        0.6,
        seed,
        n,
        n * 3 / 2,
        seed ^ 0xABCD,
        seed ^ 0x51AB,
    )
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
        let target = 100 + 20;
        let thinned = thinned_grid(10, 10, 0.3, 3, 100, target, 9, 1);
        assert_eq!(thinned.num_edges(), target);
        assert_eq!(thinned.num_vertices(), 100);
        assert!(thinned.is_connected());
    }

    #[test]
    fn thin_to_tree() {
        let tree = thinned_grid(6, 6, 0.0, 2, 36, 35, 5, 1);
        assert_eq!(tree.num_edges(), 35);
        assert!(tree.is_connected());
    }

    #[test]
    fn thin_to_every_edge_keeps_the_grid() {
        // The empty and one-vertex grids have no `n − 1` edges to keep.
        for (nx, ny) in [(1, 1), (7, 5)] {
            let grid = triangulated_grid(nx, ny, 0.3, 4);
            let (n, m) = (grid.num_vertices(), grid.num_edges());
            let whole = thinned_grid(nx, ny, 0.3, 4, n, m, 1, 2);
            assert_eq!((whole.num_vertices(), whole.num_edges()), (n, m));
        }
        assert_eq!(thinned_grid(3, 3, 0.3, 4, 0, 0, 1, 2).num_vertices(), 0);
    }

    #[test]
    #[should_panic(expected = "cannot keep")]
    fn thin_below_tree_rejected() {
        let _ = thinned_grid(4, 4, 0.0, 2, 16, 10, 0, 0);
    }

    #[test]
    #[should_panic(expected = "cannot thin 33 edges up to 34")]
    fn thin_above_the_grid_rejected() {
        let _ = thinned_grid(4, 4, 0.0, 2, 16, 34, 0, 0);
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
    fn small_mesh_is_the_paper_construction_at_56_by_56() {
        let g = small_mesh(5);
        assert_eq!((g.num_vertices(), g.num_edges()), (3136, 4704));
        assert!(g.is_connected());
        assert_eq!(small_mesh(5), g);
        assert_ne!(small_mesh(6), g);
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
