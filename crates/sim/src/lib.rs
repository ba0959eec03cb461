//! # stance-sim — deterministic heterogeneous-cluster simulator
//!
//! The STANCE paper (Kaddoura & Ranka, HPDC '96) evaluated its runtime library
//! on a cluster of SUN4 workstations connected by Ethernet, using the P4
//! message-passing environment. This crate is the substitute substrate: it runs
//! SPMD programs with one OS thread per simulated *workstation*, moves real
//! data between ranks over channels, and accounts time on a **virtual clock**
//! per rank instead of the wall clock.
//!
//! Why virtual time? The paper's experiments hinge on three quantities:
//!
//! 1. per-message setup cost (what makes the "simple" inspector strategy
//!    degrade as processors are added — Table 3),
//! 2. bytes moved across the network (what MinimizeCostRedistribution
//!    minimizes — Table 2),
//! 3. idle time induced by nonuniform and *adapting* compute capability
//!    (Tables 4 and 5).
//!
//! All three are properties of a cost model, not of any particular host
//! machine. Using a latency + bandwidth network model and a per-machine
//! speed/external-load model makes every experiment deterministic and
//! repeatable while the actual data movement (and therefore the correctness of
//! communication schedules, gathers, scatters and redistributions) is fully
//! exercised.
//!
//! The messaging contract itself — tagged send/receive, barrier,
//! collectives, compute charging — is captured by the [`Comm`] trait
//! (module [`comm`]), which this crate's [`Env`] implements with virtual
//! time and the `stance-native` crate implements with real threads and
//! wall-clock time. Runtime layers above the transport are generic over
//! `Comm`, so the same SPMD program runs on either backend.
//!
//! ## Model
//!
//! * Each rank `r` owns a monotone virtual clock `C_r` (seconds).
//! * [`Env::compute`] charges `w` *reference seconds* of work: the clock
//!   advances so that the integral of available compute capacity (machine
//!   speed × availability under external load) over the interval equals `w`.
//! * [`Env::send`] charges the sender a per-message setup, and stamps the
//!   message with its arrival time `send_completion + latency + bytes ×
//!   byte_time`.
//! * [`Env::recv`] sets `C_r ← max(C_r, arrival)`, recording the difference as
//!   idle (wait) time.
//! * Collectives ([`Env::barrier`], [`Comm::bcast_from`], …) are built from the
//!   same primitives (a shared-memory fast path is used for the barrier; its
//!   cost model is the usual `O(log p)` latency tree).
//!
//! The simulation is deterministic: all clock arithmetic depends only on
//! message causality and the [`ClusterSpec`], never on host scheduling. (The
//! optional shared-bus Ethernet arbitration is the single documented
//! exception; see [`NetworkKind::SharedBus`].)
//!
//! ## Example
//!
//! ```
//! use stance_sim::{Cluster, ClusterSpec, Comm, Payload, Tag};
//!
//! let spec = ClusterSpec::uniform(4);
//! let report = Cluster::new(spec).run(|env| {
//!     // Every rank computes for 1 reference second, then rank 0 gathers
//!     // everyone's rank id.
//!     env.compute(1.0);
//!     let gathered = env.gather_to(0, Tag(7), Payload::from_u32(vec![env.rank() as u32]));
//!     if env.rank() == 0 {
//!         let ids: Vec<u32> = gathered
//!             .unwrap()
//!             .into_iter()
//!             .flat_map(|p| p.into_u32())
//!             .collect();
//!         assert_eq!(ids, vec![0, 1, 2, 3]);
//!     }
//!     env.now()
//! });
//! assert!(report.makespan() >= 1.0);
//! ```

#![forbid(unsafe_code)]

pub mod cluster;
pub mod comm;
pub mod env;
pub mod launch;
pub mod machine;
pub mod mailbox;
pub mod network;
pub mod payload;
pub mod stats;
pub mod survivor;
pub mod tags;
pub mod time;
pub mod wait;

pub use cluster::{Cluster, ClusterSpec, RankReport, RunReport};
pub use comm::Comm;
pub use env::Env;
pub use machine::{LoadPhase, LoadTimeline, MachineSpec};
pub use network::{NetworkKind, NetworkSpec};
pub use payload::{Element, Payload, Tag};
pub use stats::EnvStats;
pub use survivor::SurvivorComm;
pub use time::VTime;
