//! Recursive inertial bisection: split along the principal (inertial) axis.
//!
//! Where RCB always cuts perpendicular to a coordinate axis, inertial
//! bisection computes the axis of maximum spatial variance (the dominant
//! eigenvector of the coordinate covariance matrix) and splits at the median
//! projection. It handles meshes whose natural grain is diagonal to the
//! coordinate system. Listed among the paper's "important heuristics" for
//! coordinate-based partitioning (§3.1).
//!
//! Each level finds the centroid and the axis, then projects every point
//! **once** and splits on the projections with the integer-key median
//! selection of `bisect.rs`: `O(n log n)` in total, halves on
//! separate threads, the same ordering for every thread count.

use crate::bisect::{bisection_ordering, host_threads, key_of, value_of, Point};
use crate::graph::Graph;
use crate::ordering::Ordering;

/// The key slot holding a point's projection onto the current level's axis
/// (slots 0–2 hold its coordinates).
const PROJECTION: usize = 3;

/// Computes the recursive inertial bisection ordering.
///
/// # Panics
/// Panics if a coordinate is NaN or infinite, or so large that a
/// projection onto the principal axis overflows.
pub fn inertial_ordering(graph: &Graph) -> Ordering {
    inertial_on_threads(graph, host_threads())
}

/// [`inertial_ordering`] on at most `threads` threads; the same ordering
/// for any.
pub(crate) fn inertial_on_threads(graph: &Graph, threads: usize) -> Ordering {
    let dim = graph.dim();
    bisection_ordering(graph, threads, |points: &mut [Point<4>]| {
        let centroid = centroid(points);
        let axis = principal_axis(points, centroid, dim);
        for p in points {
            let projection = project(position(p), centroid, axis);
            assert!(
                projection.is_finite(),
                "coordinates too large for inertial bisection: the projection of vertex {} \
                 onto the principal axis is {projection}",
                p.id
            );
            p.key[PROJECTION] = key_of(projection);
        }
        PROJECTION
    })
}

/// A point's coordinates, back from its keys.
#[inline]
fn position(p: &Point<4>) -> [f64; 3] {
    [value_of(p.key[0]), value_of(p.key[1]), value_of(p.key[2])]
}

fn centroid(points: &[Point<4>]) -> [f64; 3] {
    let mut c = [0.0; 3];
    for p in points {
        let p = position(p);
        for d in 0..3 {
            c[d] += p[d];
        }
    }
    let inv = 1.0 / points.len() as f64;
    [c[0] * inv, c[1] * inv, c[2] * inv]
}

#[inline]
fn project(p: [f64; 3], centroid: [f64; 3], axis: [f64; 3]) -> f64 {
    (p[0] - centroid[0]) * axis[0] + (p[1] - centroid[1]) * axis[1] + (p[2] - centroid[2]) * axis[2]
}

/// Dominant eigenvector of the 3×3 coordinate covariance matrix about
/// centroid `c`, found by power iteration (deterministic start, ~30
/// iterations is plenty for a partitioning axis — exactness is not needed,
/// only a good direction).
#[allow(clippy::needless_range_loop)] // index pairs over a tiny fixed matrix
fn principal_axis(points: &[Point<4>], c: [f64; 3], dim: usize) -> [f64; 3] {
    // Covariance (upper triangle; symmetric).
    let mut m = [[0.0f64; 3]; 3];
    for p in points {
        let p = position(p);
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
    // Power iteration from a deterministic non-axis-aligned start.
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
            // Degenerate cloud (all points coincide): any axis works.
            return [1.0, 0.0, 0.0];
        }
        v = [w[0] / norm, w[1] / norm, w[2] / norm];
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inertial_is_permutation() {
        let coords: Vec<[f64; 3]> = (0..10).map(|i| [f64::from(i), 0.0, 0.0]).collect();
        let edges: Vec<(u32, u32)> = (0..9).map(|i| (i, i + 1)).collect();
        let g = Graph::from_edges(10, &edges, coords, 2);
        let o = inertial_ordering(&g);
        let mut seq = o.sequence();
        seq.sort_unstable();
        assert_eq!(seq, (0..10).collect::<Vec<u32>>());
    }

    #[test]
    fn diagonal_strip_split_along_diagonal() {
        // Points along the line y = x, jittered perpendicular. The inertial
        // axis is the diagonal, so the first half of the ordering is the
        // lower-left half of the strip.
        let mut coords = Vec::new();
        let mut edges = Vec::new();
        for i in 0..20u32 {
            let t = f64::from(i);
            let off = if i % 2 == 0 { 0.1 } else { -0.1 };
            coords.push([t + off, t - off, 0.0]);
            if i > 0 {
                edges.push((i - 1, i));
            }
        }
        let g = Graph::from_edges(20, &edges, coords, 2);
        let o = inertial_ordering(&g);
        let seq = o.sequence();
        let first: Vec<f64> = seq[..10]
            .iter()
            .map(|&v| g.coord(v as usize)[0] + g.coord(v as usize)[1])
            .collect();
        let second: Vec<f64> = seq[10..]
            .iter()
            .map(|&v| g.coord(v as usize)[0] + g.coord(v as usize)[1])
            .collect();
        let max_first = first.iter().copied().fold(f64::MIN, f64::max);
        let min_second = second.iter().copied().fold(f64::MAX, f64::min);
        assert!(
            max_first < min_second,
            "split should be along the diagonal: {max_first} vs {min_second}"
        );
    }

    #[test]
    fn degenerate_coincident_points() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)], vec![[1.0, 1.0, 0.0]; 3], 2);
        // Must terminate and produce a permutation despite zero variance.
        let o = inertial_ordering(&g);
        assert_eq!(o.len(), 3);
    }

    #[test]
    fn deterministic() {
        let coords: Vec<[f64; 3]> = (0..50)
            .map(|i| {
                let x = f64::from(i % 7);
                let y = f64::from(i / 7);
                [x, y, 0.0]
            })
            .collect();
        let g = Graph::from_edges(50, &[], coords, 2);
        assert_eq!(inertial_ordering(&g), inertial_ordering(&g));
    }

    /// Three collinear points with vertex 2 moved to `bad` on the x axis.
    fn with_bad_coordinate(bad: f64) -> Graph {
        let coords = vec![[0.0; 3], [1.0, 0.0, 0.0], [bad, 0.0, 0.0]];
        Graph::from_edges(3, &[], coords, 2)
    }

    #[test]
    #[should_panic(expected = "must not be NaN or infinite: vertex 2")]
    fn rejects_nan() {
        let _ = inertial_ordering(&with_bad_coordinate(f64::NAN));
    }

    #[test]
    #[should_panic(expected = "must not be NaN or infinite: vertex 2")]
    fn rejects_positive_infinity() {
        let _ = inertial_ordering(&with_bad_coordinate(f64::INFINITY));
    }

    #[test]
    #[should_panic(expected = "must not be NaN or infinite: vertex 2")]
    fn rejects_negative_infinity() {
        let _ = inertial_ordering(&with_bad_coordinate(f64::NEG_INFINITY));
    }

    #[test]
    #[should_panic(expected = "coordinates too large for inertial bisection")]
    fn rejects_coordinates_whose_projection_overflows() {
        let coords = vec![[f64::MAX, 0.0, 0.0], [-f64::MAX, 0.0, 0.0], [0.0; 3]];
        let _ = inertial_ordering(&Graph::from_edges(3, &[], coords, 2));
    }
}
