//! # stance-locality — Phase A: the one-dimensional model of locality
//!
//! §3.1 of the paper: computational graphs from physical domains (meshes
//! embedded in two or three dimensions) can be transformed into "a simple
//! architecture-independent one-dimensional representation that encapsulates
//! the locality in these graphs". Once vertices are renumbered along such an
//! order, *any* partition into contiguous blocks is a decent spatial
//! partition — which is what makes remapping on adaptive environments cheap.
//!
//! This crate provides:
//!
//! * [`Graph`] — a CSR computational graph with vertex coordinates;
//! * [`meshgen`] — synthetic unstructured meshes (the paper's Fig. 9 mesh is
//!   substituted by a generated mesh of identical size: 30 269 vertices,
//!   44 929 edges);
//! * one-dimensional orderings (`T : V → {1..n}` in the paper's notation):
//!   - [`rcb`] — recursive coordinate bisection (Fig. 2),
//!   - [`rib`] — recursive inertial bisection,
//!   - [`sfc`] — Morton and Hilbert space-filling-curve indexings,
//!   - [`spectral`] — recursive spectral bisection via a self-contained
//!     Lanczos Fiedler-vector solver (the method the paper used, via \[19\]);
//! * [`metrics`] — ordering/partition quality: edge cut, boundary vertices,
//!   locality, bandwidth.

#![forbid(unsafe_code)]

mod bisect;
pub mod graph;
pub mod meshgen;
pub mod metrics;
#[cfg(test)]
mod oracles;
pub mod ordering;
pub mod rcb;
pub mod rcm;
pub mod rib;
pub mod sfc;
pub mod spectral;

pub use graph::Graph;
pub use ordering::{compute_ordering, Ordering, OrderingMethod};
