//! Process-per-rank TCP backend: the [`Comm`](stance_sim::Comm) trait
//! over real sockets, built to survive real failures.
//!
//! The simulator backend models a machine; the native backend shares one
//! address space across thread-ranks. This crate is the third point on
//! that line: **every rank is an OS process**, and every `Comm`
//! primitive — send/recv, the barrier, `post`, `recv_deadline` — runs
//! over length-prefixed framed TCP with a versioned handshake. The
//! paper's adaptive runtime
//! is precisely about surviving nonuniform, failure-prone clusters;
//! this backend is where those claims meet an actual kernel:
//!
//! * **Rendezvous** retries with capped exponential backoff
//!   ([`wire::connect_with_backoff`]) — a peer that is still being
//!   spawned is a transient, not an error.
//! * **Deadline-bounded receives** use real socket timeouts; a deadline
//!   expiring mid-frame leaves the partial bytes buffered
//!   ([`link::PeerLink`]) — nothing ever tears a frame.
//! * **Peer death** (EOF, `ECONNRESET`) surfaces as the same clean
//!   "dead" verdict the failure detector's `probe_membership` consumes
//!   on the in-process backends — never a hang, never a panic from
//!   deep inside the transport.
//! * **Garbage on the wire** (bad magic, wrong version, absurd length
//!   prefix) is a structured [`WireError`] and a clean disconnect,
//!   with the length validated *before* any allocation.
//!
//! [`TcpCluster`] spawns and supervises the rank processes;
//! [`maybe_rank_main`] turns any binary into a rank worker;
//! [`TcpComm`] is the `Comm` each rank computes against. The same
//! conformance, equivalence and fault-injection suites that gate the
//! other two backends gate this one.

#![deny(unsafe_code)] // sys.rs opts back in, alone, with a stated policy

pub mod cluster;
pub mod codec;
pub mod comm;
pub mod link;
pub mod sys;
pub mod wire;
pub mod worker;

pub use cluster::{RankOutcome, TcpCluster, TcpRunReport};
pub use comm::TcpComm;
pub use link::{PeerLink, TcpMsg};
// `PeerLink::recv` speaks the mailbox error vocabulary — re-exported so
// transport callers name it without a stance-sim dep.
pub use stance_sim::mailbox::RecvTimeoutError;
pub use wire::{WireError, MAX_FRAME, PROTOCOL_VERSION};
pub use worker::{maybe_rank_main, ScenarioFn, ScenarioRegistry};
