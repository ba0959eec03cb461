//! Top-level runtime configuration.

use stance_balance::BalancerConfig;
use stance_executor::ComputeCostModel;
use stance_inspector::InspectorCostModel;

/// Configuration for a session ([`DataflowSession`](crate::DataflowSession)
/// and its one-field spelling, [`AdaptiveSession`](crate::AdaptiveSession)):
/// only what the session reads — the cost models, the adaptive loop's
/// balancer and check interval (§3.5), verification and the lane count.
/// Surviving a lost rank is the caller's loop, not a setting: it probes
/// with its own patience ([`probe_membership`](crate::probe_membership))
/// and restores onto the survivors itself.
#[derive(Debug, Clone, PartialEq)]
pub struct StanceConfig {
    /// Pricing of kernel work on the reference machine.
    pub compute_cost: ComputeCostModel,
    /// Pricing of inspector work on the reference machine.
    pub inspector_cost: InspectorCostModel,
    /// Remap policy (profitability, MCR, movement model). Its static cost
    /// model — `redist_model` on the plan plus `rebuild_cost_hint` — is
    /// the one price every load-balance check charges for a remap.
    pub balancer: BalancerConfig,
    /// Iterations between load-balance checks. "The frequency of this
    /// load-balancing check has to be set based on … the overhead of load
    /// balancing \[and\] the rate at which the underlying computational
    /// resources adapt" (§3.5). The paper's experiment used 10. Must be at
    /// least 1 (session setup rejects zero).
    pub check_interval: usize,
    /// Whether the session verifies the SPMD contract as it runs: every
    /// schedule build and remap is followed by a collective audit of the
    /// global schedule invariants (see `stance_verify::audit_schedules`),
    /// the redistribution plan of every remap is audited against the old
    /// and new partitions, and all session communication passes a
    /// recording `stance_verify::TraceHook` (the hook `CheckedComm` is
    /// built from) whose trace
    /// [`AdaptiveSession::verify_protocol`](crate::session::AdaptiveSession::verify_protocol)
    /// analyzes collectively. A violated invariant panics with the full
    /// diagnostic report. Verification never changes what is
    /// communicated — results stay bitwise identical — but costs audit
    /// messages and trace memory, so it is off by default; with it off,
    /// the session's `Interposed` communicator carries no hook and no
    /// verification machinery is even constructed.
    pub verify: bool,
    /// Compute lanes per rank — the intra-rank worker-team size. `1` (the
    /// default) keeps the paper's one-processor-per-rank model: every
    /// sweep runs on the rank thread and no worker threads exist. Larger
    /// values make each rank split its sweeps across a persistent team of
    /// parked threads (`stance_executor::SweepTeam`), with **bitwise
    /// identical** results for any value. The one lane count: the session
    /// hands it to its runner, which prices sweeps by it, so
    /// `compute_cost` never holds a copy. Set it via
    /// [`StanceConfig::with_team`]. Must be at least 1 (session setup
    /// rejects zero).
    pub team_threads: usize,
}

impl Default for StanceConfig {
    fn default() -> Self {
        StanceConfig {
            compute_cost: ComputeCostModel::sun4(),
            inspector_cost: InspectorCostModel::sun4(),
            balancer: BalancerConfig::default(),
            check_interval: 10,
            verify: false,
            team_threads: 1,
        }
    }
}

impl StanceConfig {
    /// A configuration with zero-cost models: moves data correctly but
    /// charges no virtual time for compute or inspection. For structural
    /// tests.
    pub fn free() -> Self {
        StanceConfig {
            compute_cost: ComputeCostModel::zero(),
            inspector_cost: InspectorCostModel::zero(),
            ..Self::default()
        }
    }

    /// Enables (or disables) runtime verification of the SPMD contract:
    /// schedule audits after every build/remap, redistribution-plan
    /// audits, and protocol tracing through a `TraceHook` (analyzed by
    /// [`AdaptiveSession::verify_protocol`](crate::session::AdaptiveSession::verify_protocol)).
    /// Results are bitwise identical either way; a violated invariant
    /// panics with the diagnostic report.
    pub fn with_verification(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets the intra-rank worker-team size: each rank splits its sweeps
    /// across `lanes` compute lanes (the rank thread plus `lanes - 1`
    /// persistent worker threads). Numerically free — results are bitwise
    /// identical for any `lanes` on every backend. The session's runner
    /// prices its sweeps by `lanes`, so the simulated clock and the load
    /// balancer see the rank's effective speed.
    ///
    /// # Panics
    /// Panics if `lanes` is zero.
    pub fn with_team(mut self, lanes: usize) -> Self {
        // Caller error: the rank thread itself is lane 0.
        assert!(lanes >= 1, "a rank has at least one compute lane");
        self.team_threads = lanes;
        self
    }

    /// Sets the check interval.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn with_check_interval(mut self, interval: usize) -> Self {
        // Caller error: the controller checks every `interval` passes.
        assert!(interval >= 1, "check interval must be at least 1");
        self.check_interval = interval;
        self
    }

    /// Disables load balancing entirely (checks never run). Used for the
    /// "without load balancing" rows of Table 5.
    pub fn without_load_balancing(mut self) -> Self {
        self.check_interval = usize::MAX;
        self
    }

    /// Whether load balancing is enabled.
    pub fn load_balancing_enabled(&self) -> bool {
        self.check_interval != usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_choices() {
        let c = StanceConfig::default();
        assert_eq!(c.check_interval, 10);
        assert!(c.load_balancing_enabled());
    }

    #[test]
    fn builders() {
        let c = StanceConfig::free().with_check_interval(25);
        assert_eq!(c.check_interval, 25);
        let off = StanceConfig::default().without_load_balancing();
        assert!(!off.load_balancing_enabled());
        // Verification is strictly opt-in: the default and free configs
        // must construct no checking machinery at all.
        assert!(!StanceConfig::default().verify);
        assert!(!StanceConfig::free().verify);
        assert!(StanceConfig::free().with_verification(true).verify);
        // Teams are strictly opt-in (paper model: one processor per
        // rank).
        assert_eq!(StanceConfig::default().team_threads, 1);
        assert_eq!(StanceConfig::free().team_threads, 1);
        let teamed = StanceConfig::free().with_team(4);
        assert_eq!(teamed.team_threads, 4);
    }

    #[test]
    #[should_panic(expected = "at least one compute lane")]
    fn zero_team_rejected() {
        let _ = StanceConfig::default().with_team(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_interval_rejected() {
        let _ = StanceConfig::default().with_check_interval(0);
    }
}
