//! # STANCE — runtime support for data-parallel applications on adaptive
//! and nonuniform computational environments
//!
//! A from-scratch Rust reproduction of the runtime library described in
//! Kaddoura & Ranka, *"Runtime Support for Parallelization of Data-Parallel
//! Applications on Adaptive and Nonuniform Computational Environments"*
//! (HPDC 1996). The library parallelizes iterative unstructured data-parallel
//! applications (sparse sweeps over meshes) on clusters whose machines
//! differ in speed (*nonuniform*) and whose available capacity changes over
//! time (*adaptive*), through four phases (the paper's Fig. 1):
//!
//! | Phase | Component | Crate |
//! |-------|-----------|-------|
//! | A — data partitioning | 1-D locality transform + block partitions | [`locality`], [`onedim`] |
//! | B — inspector | translation tables + communication schedules | [`inspector`] |
//! | C — executor | gather/scatter + the application's kernel | [`executor`] |
//! | D — load balancing | monitor, controller, MCR, redistribution | [`balance`] |
//!
//! The cluster itself — heterogeneous workstations on an Ethernet-era
//! network — is simulated deterministically by [`sim`] (one thread per rank,
//! real data movement, virtual clocks).
//!
//! ## The application API: `Element` + `Kernel`
//!
//! The runtime owns partitioning, ghost exchange, scheduling and load
//! balancing; the *application* supplies exactly two things:
//!
//! * an [`Element`] — the fixed-size, `Copy`, byte-serializable
//!   per-vertex state (`f64` for the paper's arrays, `[f64; K]` for
//!   multi-field state, or any custom record);
//! * a [`Kernel`](executor::Kernel) — the sweep that reads the gathered
//!   (owned ++ ghost) buffer through the translated adjacency and writes one
//!   output per owned vertex, plus an optional cost hook that keeps
//!   virtual-time accounting honest for non-default arithmetic.
//!
//! Two kernels ship in-tree: [`RelaxationKernel`](executor::RelaxationKernel)
//! (the paper's Fig. 8 loop) and
//! [`LaplacianKernel`](executor::LaplacianKernel) (the matvec behind the
//! `cg_solver` example). Everything else — `GhostedArray`, gather/scatter,
//! redistribution, [`AdaptiveSession`] — is generic over them.
//!
//! A custom element needs only `zero`/`write_bytes`/`read_bytes`. If it is
//! a plain fixed-size record *and* ghost exchange shows up in profiles,
//! also override the bulk codecs
//! [`pack_into`](sim::Element::pack_into)/[`unpack_into`](sim::Element::unpack_into)
//! with memcpy-class copies: that is what keeps the runtime's steady-state
//! communication path allocation-free and at memory-bandwidth speed (the
//! built-in elements all do; the override must stay byte-identical to the
//! per-element loop — see the README's *Wire format & transport*).
//!
//! ## Quickstart
//!
//! ```
//! use stance::prelude::*;
//!
//! // A small unstructured mesh, reordered for locality (Phase A).
//! let mesh = stance::locality::meshgen::triangulated_grid(16, 16, 0.4, 7);
//! let (mesh, _ordering) = stance::prepare_mesh(&mesh, OrderingMethod::Rcb);
//!
//! // Three equal workstations; run 50 iterations of the Fig. 8 loop.
//! let spec = ClusterSpec::uniform(3);
//! let config = StanceConfig::default();
//! let report = Cluster::new(spec).run(|env| {
//!     let mut session =
//!         AdaptiveSession::setup(env, &mesh, RelaxationKernel, |g| g as f64, &config);
//!     session.run_adaptive(env, 50)
//! });
//! assert!(report.makespan() > 0.0);
//! ```
//!
//! ## Writing your own kernel
//!
//! A new workload is a type implementing `Kernel<E>` — typically a few
//! dozen lines, with partitioning, communication and load balancing
//! inherited from the session:
//!
//! ```
//! use stance::prelude::*;
//! use stance::inspector::TranslatedAdjacency;
//!
//! /// Diffusion with a per-step decay: out = 0.9 · avg(neighbors).
//! struct DecayKernel;
//!
//! impl<E: Field> Kernel<E> for DecayKernel {
//!     fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[E], out: &mut [E]) {
//!         for (l, o) in out.iter_mut().enumerate() {
//!             let nbrs = tadj.neighbors_of(l);
//!             if nbrs.is_empty() {
//!                 *o = combined[l];
//!                 continue;
//!             }
//!             let mut t = E::zero();
//!             for &s in nbrs {
//!                 t = t.add(combined[s as usize]);
//!             }
//!             *o = t.div(nbrs.len() as f64).scale(0.9);
//!         }
//!     }
//! }
//!
//! let mesh = stance::locality::meshgen::triangulated_grid(8, 8, 0.2, 1);
//! let config = StanceConfig::free();
//! // Multi-field state: each vertex carries a [f64; 2].
//! let report = Cluster::new(ClusterSpec::uniform(2)).run(|env| {
//!     let mut session =
//!         AdaptiveSession::setup(env, &mesh, DecayKernel, |g| [g as f64, 1.0], &config);
//!     session.run_adaptive(env, 10);
//!     session.local_values().to_vec()
//! });
//! assert_eq!(report.ranks.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod config;
pub mod dataflow;
pub mod efficiency;
pub mod recovery;
pub mod scenarios;
pub mod session;

pub use checkpoint::{CheckpointError, SessionCheckpoint};
pub use config::{DetectorConfig, RecoveryPolicy, StanceConfig};
pub use dataflow::{DataflowSession, StageGraph, StageGraphBuilder};
pub use efficiency::{adaptive_efficiency, static_efficiency};
pub use recovery::{probe_and_decide, probe_membership, survivors_of, RecoveryAction};
pub use session::{AdaptiveSession, SessionReport};

/// Re-export: the cluster simulator / messaging substrate.
pub use stance_sim as sim;

/// Re-export: Phase A (graphs, orderings, mesh generators).
pub use stance_locality as locality;

/// Re-export: 1-D partitions, arrangements, MCR.
pub use stance_onedim as onedim;

/// Re-export: Phase B (translation, schedules).
pub use stance_inspector as inspector;

/// Re-export: Phase C (gather/scatter, kernels).
pub use stance_executor as executor;

/// Re-export: Phase D (monitoring, controller, redistribution).
pub use stance_balance as balance;

/// Re-export: the SPMD-contract verifier (schedule audit + protocol
/// checker), driven by `StanceConfig::with_verification`.
pub use stance_verify as verify;

use stance_locality::{compute_ordering, Graph, Ordering, OrderingMethod};
use stance_onedim::BlockPartition;
use stance_sim::Element;

/// Phase A in one call: computes the 1-D ordering of `graph` with `method`
/// and relabels the graph along it. Returns the reordered graph and the
/// ordering (to map results back to original vertex ids).
pub fn prepare_mesh(graph: &Graph, method: OrderingMethod) -> (Graph, Ordering) {
    let ordering = compute_ordering(graph, method);
    (ordering.apply(graph), ordering)
}

/// Reassembles per-rank local blocks into a single global vector, given the
/// final partition. Examples and tests use this to compare a distributed
/// result against a sequential reference.
///
/// # Panics
/// Panics if the number of blocks or any block length does not match the
/// partition.
pub fn reassemble<E: Element>(partition: &BlockPartition, blocks: Vec<Vec<E>>) -> Vec<E> {
    // Caller error: one block per rank of the partition.
    assert_eq!(
        blocks.len(),
        partition.num_procs(),
        "one block per processor"
    );
    let mut out = vec![E::zero(); partition.n()];
    for (rank, block) in blocks.into_iter().enumerate() {
        let iv = partition.interval_of(rank);
        // Caller error: each block fills exactly its rank's interval.
        assert_eq!(block.len(), iv.len(), "rank {rank} block size mismatch");
        out[iv.start..iv.end].copy_from_slice(&block);
    }
    out
}

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::checkpoint::SessionCheckpoint;
    pub use crate::config::{DetectorConfig, RecoveryPolicy, StanceConfig};
    pub use crate::dataflow::{DataflowSession, StageGraph, StageGraphBuilder};
    pub use crate::efficiency::{adaptive_efficiency, static_efficiency};
    pub use crate::prepare_mesh;
    pub use crate::reassemble;
    pub use crate::recovery::{probe_and_decide, probe_membership, survivors_of, RecoveryAction};
    pub use crate::session::{AdaptiveSession, SessionReport};
    pub use stance_balance::{BalancerConfig, Decision};
    pub use stance_executor::{
        CommBuffers, ComputeCostModel, Field, GhostedArray, Kernel, LaplacianKernel, LoopRunner,
        RelaxationKernel,
    };
    pub use stance_inspector::{InspectorCostModel, ScheduleStrategy};
    pub use stance_locality::{Graph, Ordering, OrderingMethod};
    pub use stance_onedim::{Arrangement, BlockPartition, RedistCostModel};
    pub use stance_sim::{
        Cluster, ClusterSpec, Collectives, Comm, Element, Env, LoadTimeline, MachineSpec,
        NetworkSpec, Payload, SurvivorComm, Tag,
    };
}

/// Fixtures shared by the session unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::prelude::*;

    pub fn init(g: usize) -> f64 {
        (g as f64).cos() * 5.0
    }

    pub fn mesh() -> Graph {
        let raw = stance_locality::meshgen::triangulated_grid(12, 10, 0.4, 3);
        crate::prepare_mesh(&raw, OrderingMethod::Rcb).0
    }

    /// A balancer scaled to the tiny test mesh: the default hints assume the
    /// paper's 30k-vertex workload, where remap costs are repaid in a few
    /// iterations; at 120 vertices they would never be.
    pub fn test_balancer() -> BalancerConfig {
        BalancerConfig {
            redist_model: RedistCostModel {
                per_message: 1.0e-4,
                per_element: 1.0e-7,
            },
            rebuild_cost_hint: 1.0e-4,
            profitability_margin: 1.0,
            use_mcr: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_mesh_round_trip() {
        let mesh = locality::meshgen::triangulated_grid(6, 6, 0.2, 1);
        let (ordered, o) = prepare_mesh(&mesh, OrderingMethod::Hilbert);
        assert_eq!(ordered.num_vertices(), mesh.num_vertices());
        assert_eq!(ordered.num_edges(), mesh.num_edges());
        // The ordering maps original vertex v to its new id.
        for v in 0..mesh.num_vertices() {
            assert_eq!(ordered.coord(o.position_of(v)), mesh.coord(v));
        }
    }

    #[test]
    fn reassemble_orders_blocks() {
        let part = BlockPartition::from_sizes(&[2, 3]);
        let out = reassemble(&part, vec![vec![1.0, 2.0], vec![3.0, 4.0, 5.0]]);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn reassemble_is_generic_over_elements() {
        let part = BlockPartition::from_sizes(&[1, 2]);
        let out = reassemble(&part, vec![vec![[1.0, 2.0]], vec![[3.0, 4.0], [5.0, 6.0]]]);
        assert_eq!(out, vec![[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]);
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn reassemble_checks_sizes() {
        let part = BlockPartition::from_sizes(&[2, 2]);
        let _ = reassemble(&part, vec![vec![1.0], vec![2.0, 3.0]]);
    }
}
