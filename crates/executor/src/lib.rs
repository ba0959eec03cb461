//! # stance-executor — Phase C: gather and the generic parallel loop
//!
//! §3.3 of the paper: "The executor uses the communication schedules
//! generated by the inspector to move data between the processors … There
//! are two basic primitives, gather and scatter. Gather is used to fetch
//! off-processor elements, while scatter is used to send off-processor
//! elements." Every kernel here reads ghosts and writes owned rows only,
//! so gather is the one primitive this executor carries.
//!
//! The executor is generic over the *application*: the runtime owns data
//! movement and scheduling, the application supplies its per-vertex
//! [`Element`](stance_sim::Element) type and a [`Kernel`] sweeping over it.
//!
//! * [`GhostedArray`] — a rank's data block plus its ghost region, laid out
//!   exactly as the paper's Fig. 4 local buffer ("local data" followed by
//!   "off processor data"), for any element type;
//! * [`gather`] — the exchange primitive, driven by a
//!   [`CommSchedule`](stance_inspector::CommSchedule); received payloads
//!   decode straight into the ghost region through the [`Element`
//!   bulk codecs](stance_sim::Element::unpack_into), with send staging
//!   recycled through [`CommBuffers`] so steady-state iterations are
//!   allocation-free;
//! * [`gather_fused`] — the same gather for a *group* of arrays, one
//!   message per neighbor ([`gather`] is its group-of-one spelling);
//! * [`kernel`] — the [`Kernel`] trait and [`LoopRunner`] (the one
//!   exchange + sweep stage step every session runs: send, sweep the
//!   blocks that read no ghost, receive, sweep the rest), plus the two
//!   built-in kernels: [`RelaxationKernel`] (the paper's Fig. 8 loop,
//!   `t[i] = Σ y[ia[k]]; y[i] = t[i]/deg(i)`) and [`LaplacianKernel`] (the
//!   shifted graph-Laplacian matvec driving the CG example), both one row
//!   closure over [`sweep_rows`] — the block walk that reads each 512-row
//!   block's references as one forward stream, stored by the inspector in
//!   the order this walk consumes them;
//! * [`ComputeCostModel`] — prices kernel work in reference seconds so the
//!   simulator's clock reflects the paper's SUN4-era magnitudes (500
//!   iterations of the 30k mesh ≈ 97.6 s sequentially);
//! * [`team`] — intra-rank worker teams ([`SweepTeam`]): ranks stay the
//!   unit of address space and communication, a team of parked threads
//!   splits each rank's sweeps across cores with bitwise-identical
//!   results for any team size.

// `deny` rather than `forbid`: the `team` module carries the crate's two
// documented unsafe blocks (a lifetime erasure for dispatching borrowed
// sweep closures to parked worker threads, and the carve of a sweep's
// output into disjoint lane windows) behind a module-level allow.
#![deny(unsafe_code)]

pub mod buffers;
pub mod cost;
pub mod ghosted;
pub mod kernel;
pub mod primitives;
pub mod team;

pub use buffers::CommBuffers;
pub use cost::ComputeCostModel;
pub use ghosted::GhostedArray;
pub use kernel::{
    sequential_laplacian_matvec, sequential_relaxation, sweep_rows, Field, Kernel, LaplacianKernel,
    LoopRunner, LoopStats, RelaxationKernel,
};
pub use primitives::{gather, gather_fused};
pub use team::SweepTeam;
