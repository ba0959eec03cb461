//! # stance-balance — Phase D: adaptive load balancing
//!
//! §3.5 of the paper divides remapping into four steps:
//!
//! 1. **Monitoring** local load on each processor — implemented by
//!    [`LoadMonitor`], which tracks the paper's metric: "the average
//!    computation time per data item";
//! 2. **Exchanging** load information — each processor sends its estimate to
//!    a *controller* processor (centralized, "suitable for an environment
//!    with a small number of processors");
//! 3. **Deciding** whether to remap — remapping is profitable "if its cost
//!    is offset by an improvement in time for the next phase"; if so the
//!    controller picks new intervals (optionally arranged by
//!    `MinimizeCostRedistribution`) and broadcasts them;
//! 4. **Moving** the data — [`redistribute_values`] and
//!    [`redistribute_adjacency`] ship the array blocks and the mesh rows to
//!    their new owners following the redistribution plan.
//!
//! The decision protocol ([`load_balance_step`]) is a collective: all ranks
//! must call it together. Its message cost (a gather of one f64 per rank and
//! a broadcast of the decision) is exactly the "load balance check" column
//! of the paper's Table 5. A check charges one price for a remap, the
//! static model in [`BalancerConfig`]: `redist_model` on the redistribution
//! plan plus `rebuild_cost_hint`.

#![forbid(unsafe_code)]

pub mod controller;
pub mod monitor;
pub mod redistribute;

pub use controller::{load_balance_step, BalancerConfig, Decision};
pub use monitor::{LoadMonitor, MonitorSnapshot};
pub use redistribute::{redistribute_adjacency, redistribute_values, RemapScratch};
