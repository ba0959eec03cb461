//! # stance-native — the real-hardware backend
//!
//! The simulator (`stance-sim`) answers "what would this run cost on the
//! paper's cluster?"; this crate answers "how fast does it actually go on
//! this machine?". [`NativeCluster::run`] executes the same SPMD closures
//! the simulator runs, on one **real OS thread per rank**, through the same
//! [`Comm`] trait — so every generic layer of the runtime (gather/scatter,
//! redistribution, the load balancer, the adaptive session) runs unmodified
//! on actual hardware.
//!
//! Differences from the simulator, by design:
//!
//! * **Time is the wall clock.** [`Comm::now_secs`] reads a monotonic
//!   `Instant` shared by the whole run; the compute-charging hook
//!   [`Comm::compute`] is a no-op, because on real threads the work itself
//!   takes the time. The load monitor therefore feeds on *measured*
//!   per-item times — the paper's adaptivity loop becomes
//!   measurement-driven instead of model-driven.
//! * **Nothing else differs.** The transport is the same warm mailbox
//!   (`stance_sim::mailbox`) the simulator uses — a mutex-protected
//!   `VecDeque` per (source, destination) pair whose capacity converges
//!   over the first iterations, after which steady-state sends and
//!   receives allocate nothing. Collectives use the [`Comm`] trait's
//!   default rank-order implementations, so reductions fold in exactly
//!   the simulator's order and numeric results are **bitwise identical**
//!   across backends (pinned by `tests/backend_equivalence.rs` at the
//!   workspace root).
//!
//! ## Example
//!
//! ```
//! use stance_native::NativeCluster;
//! use stance_sim::{Collectives, Comm, Payload, Tag};
//!
//! let report = NativeCluster::new(4).run(|comm| {
//!     // Every rank contributes its id; everyone gets the rank-order sum.
//!     comm.allreduce_f64(Tag(1), comm.rank() as f64, |a, b| a + b)
//! });
//! assert_eq!(report.into_results(), vec![6.0; 4]);
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod comm;

pub use cluster::{NativeCluster, NativeRankReport, NativeRunReport};
pub use comm::NativeComm;
pub use stance_sim::{Collectives, Comm, Payload, Tag};
