//! Top-level runtime configuration.

use stance_balance::BalancerConfig;
use stance_executor::ComputeCostModel;
use stance_inspector::{InspectorCostModel, ScheduleStrategy};

/// What the runtime does when the failure detector reaches a verdict
/// that some rank is dead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Propagate the failure: surviving ranks panic with the verdict.
    /// The pre-fault behaviour, and the default — recovery is strictly
    /// opt-in.
    #[default]
    FailFast,
    /// Survivors restore the last checkpoint onto the contracted rank
    /// count and continue — the lost block is reconstructed from the
    /// checkpoint, nothing is abandoned. Requires the application to
    /// have taken a checkpoint ([`crate::checkpoint::SessionCheckpoint`]).
    RestoreAndShrink,
}

/// Failure-detection tuning: how long a silent peer is waited on before
/// it is suspected, and how suspicion is retried before the collective
/// verdict. A dead peer (closed mailbox) is detected immediately
/// regardless of these settings; the timeout exists for the
/// wedged-but-alive case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Seconds a single heartbeat receive waits before suspecting the
    /// peer (wall clock on the native backend, charged virtual time on
    /// the simulator).
    pub timeout_secs: f64,
    /// How many additional bounded waits a suspected peer is granted
    /// before the suspicion stands.
    pub retries: u32,
    /// Multiplier applied to the timeout on each retry (≥ 1.0): a
    /// transiently slow peer gets geometrically more patience.
    pub backoff: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            timeout_secs: 0.2,
            retries: 2,
            backoff: 2.0,
        }
    }
}

impl DetectorConfig {
    /// Total worst-case seconds one peer can be waited on across the
    /// initial attempt and all retries.
    pub fn total_patience_secs(&self) -> f64 {
        let mut total = 0.0;
        let mut t = self.timeout_secs;
        for _ in 0..=self.retries {
            total += t;
            t *= self.backoff;
        }
        total
    }
}

/// Configuration for a session ([`DataflowSession`](crate::DataflowSession)
/// and its one-field spelling, [`AdaptiveSession`](crate::AdaptiveSession)).
#[derive(Debug, Clone, PartialEq)]
pub struct StanceConfig {
    /// How communication schedules are built (Table 3's strategies).
    pub schedule_strategy: ScheduleStrategy,
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
    /// Load-monitor window: the capability estimate is the mean of the
    /// last `monitor_window` measurement blocks. `1` is the paper's
    /// estimate, the previous phase (§3.5); the default, 4, is its
    /// footnote 2's prediction from "more than one previous phase". Must
    /// be at least 1 (session setup rejects zero).
    pub monitor_window: usize,
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
    /// What to do when the failure detector concludes a rank is dead:
    /// fail fast (default — the pre-fault behaviour), shrink onto the
    /// survivors, or restore the last checkpoint onto the survivors.
    pub recovery: RecoveryPolicy,
    /// Failure-detection timeouts and retry policy (only consulted by
    /// the recovery paths; a run that never probes membership never
    /// reads it).
    pub detector: DetectorConfig,
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
            schedule_strategy: ScheduleStrategy::Sort2,
            compute_cost: ComputeCostModel::sun4(),
            inspector_cost: InspectorCostModel::sun4(),
            balancer: BalancerConfig::default(),
            check_interval: 10,
            monitor_window: 4,
            verify: false,
            recovery: RecoveryPolicy::default(),
            detector: DetectorConfig::default(),
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

    /// Sets the recovery policy: what survivors do when the failure
    /// detector concludes a rank is dead. The default
    /// ([`RecoveryPolicy::FailFast`]) is the pre-fault behaviour.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the failure-detection timeouts and retry policy.
    ///
    /// # Panics
    /// Panics if the timeout is not finite and positive or the backoff
    /// is below 1.0.
    pub fn with_detector(mut self, detector: DetectorConfig) -> Self {
        // Caller error: every wait needs a finite, positive deadline.
        assert!(
            detector.timeout_secs.is_finite() && detector.timeout_secs > 0.0,
            "detector timeout must be finite and positive, got {}",
            detector.timeout_secs
        );
        // Caller error: retries must not shrink the patience window.
        assert!(
            detector.backoff >= 1.0,
            "detector backoff must be at least 1.0, got {}",
            detector.backoff
        );
        self.detector = detector;
        self
    }

    /// Sets the schedule strategy.
    pub fn with_strategy(mut self, strategy: ScheduleStrategy) -> Self {
        self.schedule_strategy = strategy;
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
        assert_eq!(c.schedule_strategy, ScheduleStrategy::Sort2);
        assert!(c.load_balancing_enabled());
    }

    #[test]
    fn builders() {
        let c = StanceConfig::free()
            .with_strategy(ScheduleStrategy::Sort1)
            .with_check_interval(25);
        assert_eq!(c.schedule_strategy, ScheduleStrategy::Sort1);
        assert_eq!(c.check_interval, 25);
        let off = StanceConfig::default().without_load_balancing();
        assert!(!off.load_balancing_enabled());
        // Verification is strictly opt-in: the default and free configs
        // must construct no checking machinery at all.
        assert!(!StanceConfig::default().verify);
        assert!(!StanceConfig::free().verify);
        assert!(StanceConfig::free().with_verification(true).verify);
        // Recovery is strictly opt-in: the default is the pre-fault
        // fail-fast behaviour.
        assert_eq!(StanceConfig::default().recovery, RecoveryPolicy::FailFast);
        assert_eq!(StanceConfig::free().recovery, RecoveryPolicy::FailFast);
        assert_eq!(
            StanceConfig::free()
                .with_recovery(RecoveryPolicy::RestoreAndShrink)
                .recovery,
            RecoveryPolicy::RestoreAndShrink
        );
        let det = DetectorConfig {
            timeout_secs: 0.05,
            retries: 1,
            backoff: 1.5,
        };
        assert_eq!(StanceConfig::free().with_detector(det).detector, det);
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
    fn detector_patience_sums_geometric_backoff() {
        let det = DetectorConfig {
            timeout_secs: 0.1,
            retries: 2,
            backoff: 2.0,
        };
        // 0.1 + 0.2 + 0.4
        assert!((det.total_patience_secs() - 0.7).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "backoff must be at least")]
    fn sub_unit_backoff_rejected() {
        let _ = StanceConfig::free().with_detector(DetectorConfig {
            timeout_secs: 0.1,
            retries: 0,
            backoff: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_interval_rejected() {
        let _ = StanceConfig::default().with_check_interval(0);
    }
}
