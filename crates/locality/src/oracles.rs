//! Test-only references for Phase A's fast paths: the implementations that
//! [`crate::bisect`], the in-place [`Graph::relabel`], the CSR-writing
//! grid generator and the one-pass thinned-mesh writer replaced, kept
//! verbatim as oracles, plus the property and golden tests that hold the
//! replacements to them bit for bit. The writer's reference is the three
//! stages it fused: [`grid_prefix`], then [`thin_to_edges`] (itself held to
//! the `HashSet` thinning before it), then [`shuffle_labels`].

use proptest::prelude::*;
use proptest::TestRng;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::graph::Graph;
use crate::meshgen::{self, grid_prefix, thinned_grid};
use crate::ordering::Ordering;
use crate::rcb::{rcb_on_threads, rcb_ordering};
use crate::rib::{inertial_on_threads, inertial_ordering};

/// Every vertex's coordinate as `[x, y, z]`, the form the oracles read.
fn coords_of(graph: &Graph) -> Vec<[f64; 3]> {
    (0..graph.num_vertices()).map(|v| graph.coord(v)).collect()
}

/// RCB as it was: ids through `coords[id]`, `partial_cmp` per comparison.
fn rcb_oracle(graph: &Graph) -> Ordering {
    fn recurse(ids: &mut [u32], coords: &[[f64; 3]], dim: usize) {
        if ids.len() <= 2 {
            ids.sort_unstable();
            return;
        }
        let axis = widest_axis(ids, coords, dim);
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            let ca = coords[a as usize][axis];
            let cb = coords[b as usize][axis];
            ca.partial_cmp(&cb)
                .expect("coordinates must not be NaN")
                .then(a.cmp(&b))
        });
        let (left, right) = ids.split_at_mut(mid);
        recurse(left, coords, dim);
        recurse(right, coords, dim);
    }

    fn widest_axis(ids: &[u32], coords: &[[f64; 3]], dim: usize) -> usize {
        let mut lo = [f64::INFINITY; 3];
        let mut hi = [f64::NEG_INFINITY; 3];
        for &v in ids {
            let c = coords[v as usize];
            for d in 0..dim {
                lo[d] = lo[d].min(c[d]);
                hi[d] = hi[d].max(c[d]);
            }
        }
        let mut best = 0;
        let mut best_extent = hi[0] - lo[0];
        for d in 1..dim {
            let e = hi[d] - lo[d];
            if e > best_extent {
                best_extent = e;
                best = d;
            }
        }
        best
    }

    let mut ids: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    recurse(&mut ids, &coords_of(graph), graph.dim());
    Ordering::from_sequence(&ids)
}

/// RIB as it was: centroid and both projections recomputed per comparison.
fn rib_oracle(graph: &Graph) -> Ordering {
    fn recurse(ids: &mut [u32], coords: &[[f64; 3]], dim: usize) {
        if ids.len() <= 2 {
            ids.sort_unstable();
            return;
        }
        let axis = principal_axis(ids, coords, dim);
        let centroid = centroid(ids, coords);
        let mid = ids.len() / 2;
        ids.select_nth_unstable_by(mid, |&a, &b| {
            let pa = project(coords[a as usize], centroid, axis);
            let pb = project(coords[b as usize], centroid, axis);
            pa.partial_cmp(&pb)
                .expect("projections are finite")
                .then(a.cmp(&b))
        });
        let (left, right) = ids.split_at_mut(mid);
        recurse(left, coords, dim);
        recurse(right, coords, dim);
    }

    fn centroid(ids: &[u32], coords: &[[f64; 3]]) -> [f64; 3] {
        let mut c = [0.0; 3];
        for &v in ids {
            let p = coords[v as usize];
            for d in 0..3 {
                c[d] += p[d];
            }
        }
        let inv = 1.0 / ids.len() as f64;
        [c[0] * inv, c[1] * inv, c[2] * inv]
    }

    fn project(p: [f64; 3], centroid: [f64; 3], axis: [f64; 3]) -> f64 {
        (p[0] - centroid[0]) * axis[0]
            + (p[1] - centroid[1]) * axis[1]
            + (p[2] - centroid[2]) * axis[2]
    }

    #[allow(clippy::needless_range_loop)]
    fn principal_axis(ids: &[u32], coords: &[[f64; 3]], dim: usize) -> [f64; 3] {
        let c = centroid(ids, coords);
        let mut m = [[0.0f64; 3]; 3];
        for &v in ids {
            let p = coords[v as usize];
            let d = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
            for i in 0..3 {
                for j in i..3 {
                    m[i][j] += d[i] * d[j];
                }
            }
        }
        for i in 0..3 {
            for j in 0..i {
                m[i][j] = m[j][i];
            }
        }
        let mut v = if dim == 2 {
            [1.0, 0.5, 0.0]
        } else {
            [1.0, 0.5, 0.25]
        };
        for _ in 0..30 {
            let mut w = [0.0; 3];
            for i in 0..3 {
                for j in 0..3 {
                    w[i] += m[i][j] * v[j];
                }
            }
            let norm = (w[0] * w[0] + w[1] * w[1] + w[2] * w[2]).sqrt();
            if norm < 1e-30 {
                return [1.0, 0.0, 0.0];
            }
            v = [w[0] / norm, w[1] / norm, w[2] / norm];
        }
        v
    }

    let mut ids: Vec<u32> = (0..graph.num_vertices() as u32).collect();
    recurse(&mut ids, &coords_of(graph), graph.dim());
    Ordering::from_sequence(&ids)
}

/// `Graph::relabel` as it was: an edge list rebuilt through `from_edges`.
fn relabel_oracle(graph: &Graph, new_of_old: &[u32]) -> Graph {
    let n = graph.num_vertices();
    let edges: Vec<(u32, u32)> = graph
        .edges()
        .map(|(u, v)| (new_of_old[u as usize], new_of_old[v as usize]))
        .collect();
    let mut coords = vec![[0.0; 3]; n];
    for v in 0..n {
        coords[new_of_old[v] as usize] = graph.coord(v);
    }
    Graph::from_edges(n, &edges, coords, graph.dim())
}

/// `meshgen::triangulated_grid` as it was: an edge list through
/// `from_edges`.
fn triangulated_grid_oracle(nx: usize, ny: usize, jitter: f64, seed: u64) -> Graph {
    let n = nx * ny;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coords = Vec::with_capacity(n);
    for y in 0..ny {
        for x in 0..nx {
            let dx = (rng.random::<f64>() - 0.5) * jitter;
            let dy = (rng.random::<f64>() - 0.5) * jitter;
            coords.push([x as f64 + dx, y as f64 + dy, 0.0]);
        }
    }
    let mut edges = Vec::new();
    let idx = |x: usize, y: usize| (y * nx + x) as u32;
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                edges.push((idx(x, y), idx(x + 1, y)));
            }
            if y + 1 < ny {
                edges.push((idx(x, y), idx(x, y + 1)));
            }
            if x + 1 < nx && y + 1 < ny {
                // Alternate diagonal direction per cell for irregularity.
                if (x + y) % 2 == 0 {
                    edges.push((idx(x, y), idx(x + 1, y + 1)));
                } else {
                    edges.push((idx(x + 1, y), idx(x, y + 1)));
                }
            }
        }
    }
    Graph::from_edges(n, &edges, coords, 2)
}

/// `meshgen::thin_to_edges` as it was: the tree edges in a `HashSet`, the
/// kept edges rebuilt through `from_edges`. The spanning tree is the
/// `Graph::spanning_tree_edges` it called.
fn thin_to_edges_oracle(graph: &Graph, target_edges: usize, seed: u64) -> Graph {
    fn spanning_tree_edges(graph: &Graph) -> Vec<(u32, u32)> {
        let n = graph.num_vertices();
        if n == 0 {
            return Vec::new();
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        let mut tree = Vec::with_capacity(n.saturating_sub(1));
        seen[0] = true;
        queue.push_back(0usize);
        while let Some(u) = queue.pop_front() {
            for &v in graph.neighbors(u) {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    let (a, b) = if u < v { (u, v) } else { (v, u) };
                    tree.push((a as u32, b as u32));
                    queue.push_back(v);
                }
            }
        }
        assert_eq!(
            tree.len(),
            n - 1,
            "spanning_tree_edges requires a connected graph"
        );
        tree
    }

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
    let tree: std::collections::HashSet<(u32, u32)> =
        spanning_tree_edges(graph).into_iter().collect();
    let mut non_tree: Vec<(u32, u32)> = graph.edges().filter(|e| !tree.contains(e)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    non_tree.shuffle(&mut rng);
    let keep_extra = target_edges - tree.len();
    let mut edges: Vec<(u32, u32)> = tree.into_iter().collect();
    edges.sort_unstable(); // deterministic base order
    edges.extend(non_tree.into_iter().take(keep_extra));
    Graph::from_edges(n, &edges, coords_of(graph), graph.dim())
}

/// `meshgen::thin_to_edges` as it was before the one-pass writer: removes
/// random non-tree edges until exactly `target_edges` remain, keeping the
/// BFS tree from vertex 0 plus the first `target_edges − (n − 1)` edges of
/// a shuffle, seeded with `seed`, of the non-tree edges in [`Graph::edges`]
/// order. Each row is copied from the input with only its kept slots, so
/// it stays sorted.
///
/// # Panics
/// Panics if the graph is disconnected, or if `target_edges` is below
/// `n − 1` (connectivity would be impossible) or above the current count.
fn thin_to_edges(graph: &Graph, target_edges: usize, seed: u64) -> Graph {
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
    // Each non-tree edge `(u, w)`, `u < w`, as its slot in `u`'s row.
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
    let mut thin_xadj = Vec::with_capacity(n + 1);
    let mut thin_adjncy = Vec::with_capacity(2 * target_edges);
    thin_xadj.push(0);
    for (u, bounds) in xadj.windows(2).enumerate() {
        for s in bounds[0] as usize..bounds[1] as usize {
            if kept[s] || is_tree(u as u32, adjncy[s]) {
                thin_adjncy.push(adjncy[s]);
            }
        }
        thin_xadj.push(thin_adjncy.len() as u32);
    }
    Graph::from_csr(thin_xadj, thin_adjncy, graph.coords().to_vec(), graph.dim())
}

/// `meshgen::shuffle_labels` as it was before the one-pass writer:
/// randomly permutes vertex labels (structure and geometry unchanged).
fn shuffle_labels(graph: &Graph, seed: u64) -> Graph {
    graph.relabel(&permutation(graph.num_vertices(), seed))
}

/// The writer's reference: the three stages it fused, each writing a graph.
#[allow(clippy::too_many_arguments)]
fn three_stages(
    nx: usize,
    ny: usize,
    jitter: f64,
    seed: u64,
    n: usize,
    target_edges: usize,
    thin_seed: u64,
    shuffle_seed: u64,
) -> Graph {
    let grid = grid_prefix(nx, ny, jitter, seed, n);
    shuffle_labels(&thin_to_edges(&grid, target_edges, thin_seed), shuffle_seed)
}

/// Random 2-D and 3-D graphs built to hit the comparator's corners: clouds
/// on a five-value lattice holding both zeros (exact ties on every axis,
/// coincident points), clouds where every other point repeats an earlier
/// one, plain uniform clouds, and the sizes where the recursion bottoms out
/// at once. A 2-D cloud has `z = 0`, as a 2-D graph must. Edges are a
/// random sparse set, for the relabel property.
struct Clouds;

impl Strategy for Clouds {
    type Value = Graph;

    fn generate(&self, rng: &mut TestRng) -> Graph {
        const LATTICE: [f64; 5] = [-2.0, -0.0, 0.0, 1.0, 1.5];
        let n = match rng.below(4) {
            0 => rng.below(4) as usize,
            _ => 4 + rng.below(200) as usize,
        };
        let dim = 2 + rng.below(2) as usize;
        let style = rng.below(3);
        let mut coords: Vec<[f64; 3]> = Vec::with_capacity(n);
        for v in 0..n {
            if style == 1 && v % 2 == 1 {
                coords.push(coords[rng.below(v as u64) as usize]);
                continue;
            }
            let mut c = [0.0; 3];
            for x in &mut c[..dim] {
                *x = match style {
                    0 => LATTICE[rng.below(5) as usize],
                    _ => rng.unit_f64() * 2.0 - 1.0,
                };
            }
            coords.push(c);
        }
        let mut edges: Vec<(u32, u32)> = (0..2 * n)
            .map(|_| (rng.below(n as u64) as u32, rng.below(n as u64) as u32))
            .filter(|(u, v)| u != v)
            .map(|(u, v)| (u.min(v), u.max(v)))
            .collect();
        edges.sort_unstable();
        edges.dedup();
        Graph::from_edges(n, &edges, coords, dim)
    }
}

/// A uniformly random permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..n as u32).collect();
    perm.shuffle(&mut StdRng::seed_from_u64(seed));
    perm
}

/// Bitwise graph equality: `Graph`'s `==` would let `-0.0` pass for `0.0`.
fn assert_same_graph(a: &Graph, b: &Graph) {
    assert_eq!(a, b);
    let bits = |g: &Graph| -> Vec<u64> { g.coords().iter().map(|c| c.to_bits()).collect() };
    assert_eq!(bits(a), bits(b));
}

/// Thinning inputs: a grid of 1 × 1 to 12 × 12 cells, with or without
/// jitter, in half the cases with its labels shuffled so BFS parents are not
/// monotone in id; a target of `n − 1`, `m` or anything between; and a
/// thinning seed.
struct ThinCases;

impl Strategy for ThinCases {
    type Value = (Graph, usize, u64);

    fn generate(&self, rng: &mut TestRng) -> (Graph, usize, u64) {
        let (nx, ny) = (1 + rng.below(12) as usize, 1 + rng.below(12) as usize);
        let jitter = [0.0, 0.3][rng.below(2) as usize];
        let mut grid = meshgen::triangulated_grid(nx, ny, jitter, rng.next_u64());
        if rng.below(2) == 0 {
            grid = shuffle_labels(&grid, rng.next_u64());
        }
        let (tree, m) = (grid.num_vertices() - 1, grid.num_edges());
        let target = match rng.below(4) {
            0 => tree,
            1 => m,
            _ => tree + rng.below((m - tree + 1) as u64) as usize,
        };
        (grid, target, rng.next_u64())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rcb_equals_its_oracle(graph in Clouds) {
        prop_assert_eq!(rcb_ordering(&graph), rcb_oracle(&graph));
    }

    #[test]
    fn rib_equals_its_oracle(graph in Clouds) {
        prop_assert_eq!(inertial_ordering(&graph), rib_oracle(&graph));
    }

    #[test]
    fn relabel_equals_its_oracle(graph in Clouds, seed in 0u64..1 << 32, threads in 1usize..6) {
        let perm = permutation(graph.num_vertices(), seed);
        let expected = relabel_oracle(&graph, &perm);
        assert_same_graph(&graph.relabel(&perm), &expected);
        assert_same_graph(&graph.relabel_on_threads(&perm, threads), &expected);
    }

    #[test]
    fn thinning_equals_its_oracle(case in ThinCases) {
        let (graph, target, seed) = case;
        assert_same_graph(
            &thin_to_edges(&graph, target, seed),
            &thin_to_edges_oracle(&graph, target, seed),
        );
    }
}

/// The CSR writer against the edge-list generator it replaced: every grid
/// up to 6 × 6 with and without jitter on two seeds, plus the paper's
/// 174 × 174; and each prefix the writer can stop at against the oracle's
/// induced subgraph on the same vertices.
#[test]
fn grid_writer_equals_its_oracle() {
    let mut cases = vec![(174, 174, 0.6, 7)];
    for nx in 1..=6 {
        for ny in 1..=6 {
            for jitter in [0.0, 0.3] {
                for seed in [3, 11] {
                    cases.push((nx, ny, jitter, seed));
                }
            }
        }
    }
    for (nx, ny, jitter, seed) in cases {
        let oracle = triangulated_grid_oracle(nx, ny, jitter, seed);
        assert_same_graph(&meshgen::triangulated_grid(nx, ny, jitter, seed), &oracle);
        let all = nx * ny;
        let prefixes = [1, nx - 1, nx, nx + 1, all.saturating_sub(7), all];
        for n in prefixes.into_iter().filter(|&n| n <= all) {
            let ids: Vec<u32> = (0..n as u32).collect();
            let (expected, _) = oracle.induced_subgraph(&ids);
            assert_same_graph(&grid_prefix(nx, ny, jitter, seed, n), &expected);
        }
    }
}

/// The one-pass writer's inputs: a grid of 1 × 1 to 12 × 12 cells, with or
/// without jitter; a prefix of any length (most end mid-row); a target of
/// `n − 1`, every edge or anything between; and the three seeds.
struct WriterCases;

impl Strategy for WriterCases {
    type Value = (usize, usize, f64, u64, usize, usize, u64, u64);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let (nx, ny) = (1 + rng.below(12) as usize, 1 + rng.below(12) as usize);
        let jitter = [0.0, 0.3][rng.below(2) as usize];
        let n = match rng.below(4) {
            0 => nx * ny,
            _ => rng.below((nx * ny + 1) as u64) as usize,
        };
        let seed = rng.next_u64();
        let m = grid_prefix(nx, ny, jitter, seed, n).num_edges();
        let tree = n.saturating_sub(1);
        let target = match rng.below(4) {
            0 => tree,
            1 => m,
            _ => tree + rng.below((m - tree + 1) as u64) as usize,
        };
        (
            nx,
            ny,
            jitter,
            seed,
            n,
            target,
            rng.next_u64(),
            rng.next_u64(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn writer_equals_the_three_stages(case in WriterCases) {
        let (nx, ny, jitter, seed, n, target, thin_seed, shuffle_seed) = case;
        assert_same_graph(
            &thinned_grid(nx, ny, jitter, seed, n, target, thin_seed, shuffle_seed),
            &three_stages(nx, ny, jitter, seed, n, target, thin_seed, shuffle_seed),
        );
    }
}

/// Both meshes the writer ships, at the seeds the tables, figures and
/// ablations use and then some, against the three stages they replaced.
#[test]
fn paper_and_small_mesh_equal_the_three_stages() {
    for seed in 0..8 {
        let expected = three_stages(
            174,
            174,
            0.6,
            seed,
            meshgen::PAPER_MESH_VERTICES,
            meshgen::PAPER_MESH_EDGES,
            seed ^ 0x5EED_CAFE,
            seed ^ 0x0BAD_C0DE,
        );
        assert_same_graph(&meshgen::paper_mesh(seed), &expected);
    }
    for seed in [0, 1, 5, 7, 42, 999] {
        let grid = meshgen::triangulated_grid(56, 56, 0.6, seed);
        let thinned = thin_to_edges(&grid, 56 * 56 * 3 / 2, seed ^ 0xABCD);
        let expected = shuffle_labels(&thinned, seed ^ 0x51AB);
        assert_same_graph(&meshgen::small_mesh(seed), &expected);
    }
}

/// The ends of the thinning's range and a prefix that stops mid-row, at
/// the paper mesh's width: a tree-only target (`n − 1` edges), a target
/// that thins nothing, and the paper mesh's own prefix of its grid.
#[test]
fn writer_equals_the_three_stages_at_the_edges_of_its_range() {
    let mid_row = 174 * 40 + 77;
    let every_edge = grid_prefix(174, 174, 0.6, 3, mid_row).num_edges();
    for (n, target) in [
        (mid_row, mid_row - 1),
        (mid_row, every_edge),
        (mid_row, mid_row * 3 / 2),
        (
            meshgen::PAPER_MESH_VERTICES,
            meshgen::PAPER_MESH_VERTICES - 1,
        ),
    ] {
        assert_same_graph(
            &thinned_grid(174, 174, 0.6, 3, n, target, 11, 12),
            &three_stages(174, 174, 0.6, 3, n, target, 11, 12),
        );
    }
}

/// Word-wise FNV-1a.
fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        (h ^ u64::from(w)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Digest of a graph's rows (degree, neighbours, coordinate bits).
fn graph_digest(g: &Graph) -> u64 {
    fnv((0..g.num_vertices()).flat_map(|v| {
        let coord_words = g.coord(v).into_iter().flat_map(|c| {
            let bits = c.to_bits();
            [bits as u32, (bits >> 32) as u32]
        });
        std::iter::once(g.degree(v) as u32)
            .chain(g.neighbors(v).iter().copied())
            .chain(coord_words)
    }))
}

/// One mesh per generator with the digests of its RCB positions, its RIB
/// positions and its RCB-relabelled CSR, all captured at commit `4652aeb`
/// (the last with the oracle loops in charge); `small_mesh(42)`'s, the
/// ablations' mesh, at `98ed230` (the last with the three mesh stages in
/// charge).
#[test]
fn golden_digests_per_generator() {
    let grid = meshgen::triangulated_grid(60, 50, 0.3, 2);
    let cases: [(&str, Graph, [u64; 3]); 7] = [
        (
            "paper_mesh(7)",
            meshgen::paper_mesh(7),
            [
                0x8411_794f_56da_0907,
                0xbcfc_a4e8_a697_85db,
                0x6592_5fde_2bb0_a474,
            ],
        ),
        (
            "small_mesh(42)",
            meshgen::small_mesh(42),
            [
                0x109d_ead3_1b0b_a1a1,
                0x53be_500e_514b_59ab,
                0xce64_2d09_05f9_09e9,
            ],
        ),
        (
            "triangulated_grid(40, 30, 0.0, 3)",
            meshgen::triangulated_grid(40, 30, 0.0, 3),
            [
                0x1a36_f01d_3a9c_9485,
                0x5b87_2756_c953_d125,
                0x99c6_4c09_b65a_b1b8,
            ],
        ),
        (
            "annulus_mesh(40, 120, 5)",
            meshgen::annulus_mesh(40, 120, 5),
            [
                0x40e8_5b4b_3b1c_8373,
                0xe025_13ef_71da_37d3,
                0xa48d_5140_e99d_5b56,
            ],
        ),
        (
            "random_geometric(5000, 0.03, 11)",
            meshgen::random_geometric(5000, 0.03, 11),
            [
                0xdc5b_528d_502a_27d7,
                0xa5e4_cd3f_bd07_4e35,
                0x227b_d3ba_339d_6b9f,
            ],
        ),
        (
            "shuffle_labels(triangulated_grid(60, 50, 0.3, 2), 9)",
            shuffle_labels(&grid, 9),
            [
                0x54dd_a7aa_7930_be87,
                0x9b7b_4f0f_6464_0b4f,
                0x2d9c_a7c3_fd6c_4f46,
            ],
        ),
        (
            "thin_to_edges(triangulated_grid(60, 50, 0.3, 2), 5000, 4)",
            thin_to_edges(&grid, 5000, 4),
            [
                0x528a_0c8c_de2a_cd91,
                0x175a_2cb0_4481_90a1,
                0x1a96_0d8b_75d6_e19a,
            ],
        ),
    ];
    for (name, mesh, [rcb, rib, relabelled]) in cases {
        let ordering = rcb_ordering(&mesh);
        assert_eq!(
            fnv(ordering.positions().iter().copied()),
            rcb,
            "{name}: rcb"
        );
        assert_eq!(
            fnv(inertial_ordering(&mesh).positions().iter().copied()),
            rib,
            "{name}: rib"
        );
        assert_eq!(
            graph_digest(&ordering.apply(&mesh)),
            relabelled,
            "{name}: relabel"
        );
    }
}

/// The benchmark's `sweep-1m` input, the one mesh here large enough for
/// every level of forking (and for `relabel`'s row threads) on a many-core
/// host. Digests from commit `4652aeb`.
#[test]
fn golden_digests_of_the_million_vertex_grid() {
    let mesh = meshgen::triangulated_grid(1000, 1000, 0.3, 7);
    let ordering = rcb_ordering(&mesh);
    assert_eq!(
        fnv(ordering.positions().iter().copied()),
        0x4cde_fd19_b039_8a09
    );
    assert_eq!(graph_digest(&ordering.apply(&mesh)), 0xaa6d_8407_178f_92de);
}

/// Forking is decided by size and by the thread budget alone, so the budget
/// must not show in the result. 150 000 points fork at two levels under a
/// budget of 8 and unevenly (1 + 2) under 3; a third of them sit on lattice
/// ties.
#[test]
fn ordering_does_not_depend_on_the_thread_count() {
    let mut rng = TestRng::for_test("thread-count invariance");
    let coords: Vec<[f64; 3]> = (0..150_000)
        .map(|v| {
            let mut x = || match v % 3 {
                0 => (rng.below(9) as f64 - 4.0) * 0.25,
                _ => rng.unit_f64() * 2.0 - 1.0,
            };
            [x(), x(), x()]
        })
        .collect();
    let cloud = Graph::from_edges(coords.len(), &[], coords, 3);
    let rcb = rcb_on_threads(&cloud, 1);
    let rib = inertial_on_threads(&cloud, 1);
    for threads in [2, 3, 8] {
        assert_eq!(rcb_on_threads(&cloud, threads), rcb, "rcb on {threads}");
        assert_eq!(
            inertial_on_threads(&cloud, threads),
            rib,
            "rib on {threads}"
        );
    }
}
