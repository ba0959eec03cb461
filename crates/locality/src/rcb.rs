//! Recursive coordinate bisection indexing (Fig. 2 of the paper).
//!
//! The point set is recursively split at the median of its widest coordinate
//! axis; the 1-D index of a vertex is its leaf position in the recursion
//! tree (left subtree first). Physically proximate vertices end up close on
//! the list, so contiguous blocks of the list are compact regions of the
//! mesh.
//!
//! Each level costs expected `O(n)` (a median selection on integer keys, see
//! `bisect.rs`), `O(n log n)` in total, with a deterministic tie-break
//! on vertex id and independent halves ordered on separate threads — the
//! ordering is the same for every thread count.

use crate::bisect::{bisection_ordering, host_threads, value_of, Point};
use crate::graph::Graph;
use crate::ordering::Ordering;

/// Computes the RCB ordering of a graph from its vertex coordinates.
///
/// # Panics
/// Panics if a coordinate is NaN or infinite.
pub fn rcb_ordering(graph: &Graph) -> Ordering {
    rcb_on_threads(graph, host_threads())
}

/// [`rcb_ordering`] on at most `threads` threads; the same ordering for any.
/// A 2-D mesh travels on its two coordinates alone (24-byte records, not
/// 32): RCB never splits a 2-D mesh on z.
pub(crate) fn rcb_on_threads(graph: &Graph, threads: usize) -> Ordering {
    if graph.dim() == 2 {
        bisection_ordering(graph, threads, |points: &mut [Point<2>]| {
            widest_axis(points)
        })
    } else {
        bisection_ordering(graph, threads, |points: &mut [Point<3>]| {
            widest_axis(points)
        })
    }
}

/// The key slot with the largest coordinate extent over `points`.
fn widest_axis<const K: usize>(points: &[Point<K>]) -> usize {
    let mut lo = [u64::MAX; K];
    let mut hi = [u64::MIN; K];
    for p in points {
        for d in 0..K {
            lo[d] = lo[d].min(p.key[d]);
            hi[d] = hi[d].max(p.key[d]);
        }
    }
    let extent = |d: usize| value_of(hi[d]) - value_of(lo[d]);
    let mut best = 0;
    for d in 1..K {
        if extent(d) > extent(best) {
            best = d;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 4×4 grid graph with unit spacing.
    fn grid4() -> Graph {
        let n = 16;
        let mut edges = Vec::new();
        let mut coords = Vec::new();
        for y in 0..4u32 {
            for x in 0..4u32 {
                let v = y * 4 + x;
                if x + 1 < 4 {
                    edges.push((v, v + 1));
                }
                if y + 1 < 4 {
                    edges.push((v, v + 4));
                }
                coords.push([f64::from(x), f64::from(y), 0.0]);
            }
        }
        Graph::from_edges(n, &edges, coords, 2)
    }

    #[test]
    fn rcb_is_a_permutation() {
        let g = grid4();
        let o = rcb_ordering(&g);
        assert_eq!(o.len(), 16);
        let mut seq = o.sequence();
        seq.sort_unstable();
        assert_eq!(seq, (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn rcb_first_half_is_one_side() {
        // The first split of a 4×4 grid puts one half of the plane in the
        // first 8 positions.
        let g = grid4();
        let o = rcb_ordering(&g);
        let seq = o.sequence();
        let first_half: Vec<f64> = seq[..8].iter().map(|&v| g.coord(v as usize)[0]).collect();
        let second_half: Vec<f64> = seq[8..].iter().map(|&v| g.coord(v as usize)[0]).collect();
        let max_first = first_half.iter().copied().fold(f64::MIN, f64::max);
        let min_second = second_half.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max_first <= min_second,
            "first half (x ≤ {max_first}) should precede second (x ≥ {min_second})"
        );
    }

    #[test]
    fn rcb_improves_locality_over_shuffled() {
        use crate::metrics::average_edge_span;
        // Shuffle the grid labels, then check RCB restores locality.
        let g = grid4();
        let shuffled = g.relabel(&[7, 3, 11, 15, 2, 6, 10, 14, 1, 5, 9, 13, 0, 4, 8, 12]);
        let natural = average_edge_span(&shuffled, &Ordering::identity(16));
        let rcb = average_edge_span(&shuffled, &rcb_ordering(&shuffled));
        assert!(
            rcb < natural,
            "RCB span {rcb} should beat shuffled-natural span {natural}"
        );
    }

    #[test]
    fn rcb_tiny_inputs() {
        let g1 = Graph::from_edges(1, &[], vec![[0.0; 3]], 2);
        assert_eq!(rcb_ordering(&g1).len(), 1);
        let g2 = Graph::from_edges(2, &[(0, 1)], vec![[0.0; 3], [1.0, 0.0, 0.0]], 2);
        let o = rcb_ordering(&g2);
        assert_eq!(o.len(), 2);
    }

    #[test]
    fn rcb_deterministic() {
        let g = grid4();
        assert_eq!(rcb_ordering(&g), rcb_ordering(&g));
    }

    #[test]
    fn rcb_3d_uses_z() {
        // Two layers of 4 points; z is the widest axis.
        let mut coords = Vec::new();
        for z in 0..2 {
            for x in 0..2 {
                for y in 0..2 {
                    coords.push([f64::from(x), f64::from(y), f64::from(z) * 10.0]);
                }
            }
        }
        let g = Graph::from_edges(8, &[(0, 4), (1, 5), (2, 6), (3, 7)], coords, 3);
        let o = rcb_ordering(&g);
        let seq = o.sequence();
        // First four positions should be one z-layer.
        let zs: Vec<f64> = seq[..4].iter().map(|&v| g.coord(v as usize)[2]).collect();
        assert!(zs.iter().all(|&z| z == zs[0]));
    }

    /// Three collinear points with vertex 1 moved to `bad` on the y axis.
    fn with_bad_coordinate(bad: f64) -> Graph {
        let coords = vec![[0.0; 3], [1.0, bad, 0.0], [2.0, 0.0, 0.0]];
        Graph::from_edges(3, &[], coords, 2)
    }

    #[test]
    #[should_panic(expected = "coordinates must not be NaN or infinite: vertex 1")]
    fn rcb_rejects_nan() {
        let _ = rcb_ordering(&with_bad_coordinate(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "coordinates must not be NaN or infinite: vertex 1")]
    fn rcb_rejects_positive_infinity() {
        let _ = rcb_ordering(&with_bad_coordinate(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "coordinates must not be NaN or infinite: vertex 1")]
    fn rcb_rejects_negative_infinity() {
        let _ = rcb_ordering(&with_bad_coordinate(f64::NEG_INFINITY));
    }
}
