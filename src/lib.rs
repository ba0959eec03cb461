//! Integration surface of the STANCE reproduction workspace.
//!
//! This crate exists to host the workspace-level `examples/` and `tests/`
//! (Cargo attaches those to a package, not a workspace), with the test
//! bodies and scenarios they share; depend on [`stance`] directly in real
//! use.
//!
//! See `README.md` for the project overview and migration notes for the
//! trait-based application API.

pub mod conformance;
pub mod scenarios;
