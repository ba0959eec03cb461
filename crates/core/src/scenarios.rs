//! Reproducible builders for the paper's experimental scenarios (§5).
//!
//! The evaluation ran on up to five SUN4 workstations on Ethernet, solving
//! 500 iterations of the Fig. 8 loop over a 30 269-vertex unstructured mesh
//! indexed by recursive spectral bisection. These builders construct the
//! equivalent simulated setups so benches, examples and tests share one
//! source of truth.

use stance_locality::{meshgen, Graph, OrderingMethod};
use stance_sim::{ClusterSpec, LoadTimeline, NetworkSpec};

use crate::prepare_mesh;

/// Iterations of the parallel loop in the paper's experiments.
pub const PAPER_ITERATIONS: usize = 500;

/// The iteration count between load-balance checks in the paper's adaptive
/// experiment ("the loop was executed for 10 iterations. A check was made
/// after 10 iterations").
pub const PAPER_CHECK_INTERVAL: usize = 10;

/// The Fig. 9 substitute mesh, already renumbered along the given 1-D
/// indexing (the paper used "Recursive Spectral Bisection-based indexing").
pub fn paper_mesh_ordered(method: OrderingMethod, seed: u64) -> Graph {
    let raw = meshgen::paper_mesh(seed);
    prepare_mesh(&raw, method).0
}

/// [`meshgen::small_mesh`], the smaller stand-in with the same
/// construction (for quick runs and debug builds), renumbered along the
/// given 1-D indexing.
pub fn small_mesh_ordered(method: OrderingMethod, seed: u64) -> Graph {
    prepare_mesh(&meshgen::small_mesh(seed), method).0
}

/// The static test-bed of Tables 4–5: `p` equal workstations on 10 Mbit/s
/// **shared-bus** Ethernet. The shared medium is what makes efficiency fall
/// as workstations are added (Table 4): all gather transmissions serialize
/// on the wire. (Bus arbitration order depends on host scheduling, so
/// repeated runs can differ by a transmission's worth of virtual time —
/// tests needing exact determinism use the point-to-point model instead.)
pub fn static_cluster(p: usize) -> ClusterSpec {
    ClusterSpec::paper_cluster(p).with_network(NetworkSpec::ethernet_10mbit_shared())
}

/// The adaptive test-bed of Table 5: the static cluster with "a constant
/// competing load … added to one of the processors (processor 1)". Two
/// competing CPU-bound processes pin workstation 1 (our rank 0) at 1/3
/// availability, matching the paper's 97.61 s → 290.93 s sequential
/// slowdown.
pub fn adaptive_cluster(p: usize) -> ClusterSpec {
    static_cluster(p).with_load(0, LoadTimeline::competing_load(0.0, f64::INFINITY, 2))
}

/// The paper's initial-value convention for the Fig. 8 loop is not
/// specified; any smooth function works. We use a deterministic mix of
/// coordinates of the global index so results are reproducible.
pub fn initial_value(g: usize) -> f64 {
    let x = g as f64;
    (x * 0.01).sin() * 10.0 + (x * 0.003).cos() * 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mesh_reasonable() {
        let m = small_mesh_ordered(OrderingMethod::Rcb, 5);
        assert_eq!(m.num_vertices(), 3136);
        assert!(m.is_connected());
        let avg_deg = 2.0 * m.num_edges() as f64 / m.num_vertices() as f64;
        assert!(avg_deg > 2.5 && avg_deg < 3.5, "avg degree {avg_deg}");
    }

    #[test]
    fn adaptive_cluster_loads_rank0_only() {
        let spec = adaptive_cluster(3);
        let caps = spec.capabilities_at(stance_sim::VTime::ZERO);
        assert!(caps[0] < caps[1]);
        assert!((caps[1] - caps[2]).abs() < 1e-12);
        // Rank 0 at 1/3 of the others.
        assert!((caps[0] * 3.0 - caps[1]).abs() < 1e-12);
    }

    #[test]
    fn initial_values_deterministic() {
        assert_eq!(initial_value(42), initial_value(42));
        assert_ne!(initial_value(1), initial_value(2));
    }

    #[test]
    fn constants_match_paper() {
        assert_eq!(PAPER_ITERATIONS, 500);
        assert_eq!(PAPER_CHECK_INTERVAL, 10);
    }
}
