//! Local load monitoring.
//!
//! §5: "One metric we have used is the average computation time per data
//! item. Each processor computes this information by dividing the total time
//! spent on the computation by the number of data elements it owned. This
//! assumes that the variation in computational cost per data unit is
//! relatively small."
//!
//! The monitor keeps a sliding window of recent measurements so a transient
//! spike does not trigger a remap on its own, and exposes both the per-item
//! time (what the controller exchanges) and its reciprocal, the capability
//! estimate (items per second).

/// How the next phase's per-item time is estimated from the sample window.
///
/// The paper's implementation uses the previous phase directly; its
/// footnote 2 suggests "techniques that would predict the available
/// computational resources based on more than one previous phase" — the
/// window average implements that suggestion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapabilityEstimator {
    /// The most recent measurement block (the paper's §3.5 behaviour).
    LastPhase,
    /// Mean over the window: smooths transient spikes.
    #[default]
    WindowAverage,
}

/// Smoothing factor of the remap-cost EWMAs: new measurements count half,
/// history the other half — responsive to genuine cost shifts (e.g. the
/// environment got slower) without letting one outlier remap dominate.
const COST_EWMA_ALPHA: f64 = 0.5;

/// How many consecutive checks a carried estimate may answer while the
/// window stays empty ([`LoadMonitor::per_item_for_check`]). A rank whose
/// block is empty cannot observe its own speed, so its carried estimate
/// can never be refuted by measurement; without an expiry, a rank that
/// was *transiently* slow at remap time would be starved forever. After
/// the budget, the monitor reports `None` again and the controller's
/// average-capability fallback probes the silent rank with work — if it
/// is still slow the very next check measures that and moves the work
/// away again; if it recovered, the cluster gets its capacity back.
const CARRY_CHECK_BUDGET: u32 = 3;

/// Exponential forgetting factor of the movement-cost normal-equation
/// accumulators: each new redistribution observation discounts history by
/// this factor, so the fitted per-message/per-element constants track a
/// drifting network without being dominated by any one remap.
const MOVEMENT_FORGETTING: f64 = 0.7;

/// Relative determinant threshold below which the movement normal
/// equations are treated as degenerate (all observations collinear in
/// (messages, elements) space) and the fit falls back to proportionally
/// scaling the caller's prior model.
const MOVEMENT_DEGENERATE: f64 = 1e-6;

/// A bitwise snapshot of the monitor state worth carrying across a
/// checkpoint/restore: the current per-item estimate and every calibrated
/// cost statistic. The sample *window* is deliberately not included — its
/// timing composition describes the pre-checkpoint block layout, and the
/// restore may land on a different rank count entirely; the estimate is
/// reinstalled as a carry (exactly as [`LoadMonitor::rollover`] carries
/// it across a remap) with a fresh check budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorSnapshot {
    /// The per-item estimate at snapshot time (restored as the carry).
    pub per_item: Option<f64>,
    /// The rebuild-cost EWMA ([`LoadMonitor::rebuild_cost`]).
    pub rebuild_cost: Option<f64>,
    /// The total-remap-cost EWMA ([`LoadMonitor::remap_cost`]).
    pub remap_cost: Option<f64>,
    /// Movement-cost normal-equation accumulators, in the order
    /// `[Σm², Σm·e, Σe², Σm·s, Σe·s]` (exponentially forgotten).
    pub movement: [f64; 5],
    /// Number of movement observations folded into the accumulators.
    pub movement_obs: u32,
}

/// Sliding-window tracker of per-item computation time on one rank, plus
/// the rank's **measured remap-cost calibration** (an EWMA over observed
/// rebuild costs that can replace the controller's static
/// `rebuild_cost_hint`, and a least-squares fit of per-message /
/// per-element movement constants that can replace its static
/// `RedistCostModel`, once remaps have been observed).
#[derive(Debug, Clone)]
pub struct LoadMonitor {
    window: usize,
    samples: std::collections::VecDeque<f64>,
    estimator: CapabilityEstimator,
    /// Per-item estimate carried across a remap ([`LoadMonitor::rollover`]):
    /// used only while the window is empty, so a check that lands before
    /// any post-remap measurement is still informed.
    carry: Option<f64>,
    /// Checks the carry may still answer before it expires
    /// ([`CARRY_CHECK_BUDGET`], decremented by
    /// [`LoadMonitor::per_item_for_check`]).
    carry_checks_left: u32,
    /// EWMA of the measured schedule-rebuild share of remap cost (seconds).
    rebuild_cost_ewma: Option<f64>,
    /// EWMA of the measured total remap cost (movement + rebuild, seconds).
    remap_cost_ewma: Option<f64>,
    /// Movement-cost accumulators `[Σm², Σm·e, Σe², Σm·s, Σe·s]` over
    /// observed redistributions (m = messages, e = elements, s = seconds),
    /// exponentially forgotten ([`MOVEMENT_FORGETTING`]).
    movement: [f64; 5],
    /// Observations folded into [`LoadMonitor::movement`].
    movement_obs: u32,
}

impl LoadMonitor {
    /// Creates a monitor averaging over the last `window` samples.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        Self::with_estimator(window, CapabilityEstimator::default())
    }

    /// Creates a monitor with an explicit estimator.
    ///
    /// # Panics
    /// Panics if `window` is zero.
    pub fn with_estimator(window: usize, estimator: CapabilityEstimator) -> Self {
        assert!(window >= 1, "window must be at least 1");
        LoadMonitor {
            window,
            samples: std::collections::VecDeque::with_capacity(window),
            estimator,
            carry: None,
            carry_checks_left: 0,
            rebuild_cost_ewma: None,
            remap_cost_ewma: None,
            movement: [0.0; 5],
            movement_obs: 0,
        }
    }

    /// Records one measurement block: `compute_seconds` spent computing
    /// over `iterations` sweeps of `owned_items` items (virtual seconds on
    /// the simulator, measured wall-clock seconds on the native backend).
    ///
    /// Blocks with no work (zero items or iterations) are ignored — an
    /// empty block tells us nothing about the machine's speed.
    pub fn record(&mut self, compute_seconds: f64, iterations: usize, owned_items: usize) {
        if iterations == 0 || owned_items == 0 {
            return;
        }
        let per_item = compute_seconds / (iterations as f64 * owned_items as f64);
        if self.samples.len() == self.window {
            self.samples.pop_front();
        }
        self.samples.push_back(per_item);
    }

    /// Whether any samples have been recorded.
    pub fn has_samples(&self) -> bool {
        !self.samples.is_empty()
    }

    /// The estimated computation time per data item for the *next* phase
    /// (seconds), per the configured [`CapabilityEstimator`], or `None`
    /// before the first sample. While the window is empty after a
    /// [`LoadMonitor::rollover`], the estimate carried across the remap is
    /// returned — the metric is *per element*, so it survives a block
    /// resize, and a check landing before any post-remap measurement (e.g.
    /// on a rank whose new block is empty) still reports real information
    /// instead of flying blind.
    pub fn per_item_time(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return self.carry;
        }
        Some(self.windowed_estimate())
    }

    /// [`LoadMonitor::per_item_time`] as consumed by a load-balance
    /// *check*: identical while the window has samples, but a carried
    /// estimate answers at most `CARRY_CHECK_BUDGET` consecutive
    /// checks before expiring to `None`. An empty-block rank cannot
    /// refresh its estimate by measurement, so the expiry is what lets
    /// the controller eventually probe it with work again instead of
    /// starving a once-slow machine forever.
    pub fn per_item_for_check(&mut self) -> Option<f64> {
        if !self.samples.is_empty() {
            return Some(self.windowed_estimate());
        }
        if self.carry.is_some() {
            if self.carry_checks_left == 0 {
                self.carry = None;
                return None;
            }
            self.carry_checks_left -= 1;
        }
        self.carry
    }

    /// The window estimate per the configured [`CapabilityEstimator`].
    /// Callers guarantee the window is nonempty.
    fn windowed_estimate(&self) -> f64 {
        let last = *self.samples.back().expect("nonempty");
        match self.estimator {
            CapabilityEstimator::LastPhase => last,
            CapabilityEstimator::WindowAverage => {
                self.samples.iter().sum::<f64>() / self.samples.len() as f64
            }
        }
    }

    /// The capability estimate: items per second (reciprocal of
    /// [`Self::per_item_time`]).
    pub fn capability(&self) -> Option<f64> {
        self.per_item_time().map(|t| {
            assert!(t > 0.0, "per-item time must be positive");
            1.0 / t
        })
    }

    /// Clears history (after a remap, old measurements describe the old
    /// block size and are no longer comparable). Also discards any carried
    /// estimate; the remap-cost calibration is kept (it describes the
    /// machine and pipeline, not the block). Prefer
    /// [`LoadMonitor::rollover`] across remaps — the per-item metric *is*
    /// comparable across block sizes, and dropping it blinds the first
    /// post-remap check on ranks that record nothing (e.g. an empty block).
    pub fn reset(&mut self) {
        self.samples.clear();
        self.carry = None;
    }

    /// Rolls the monitor across a remap: the window is cleared (its
    /// *timing composition* — which blocks contributed — restarts), but
    /// the current per-item estimate is carried and keeps answering
    /// [`LoadMonitor::per_item_time`] until the first post-remap sample
    /// arrives. Per-item time is per element, so the estimate survives the
    /// block resize unchanged.
    pub fn rollover(&mut self) {
        self.carry = self.per_item_time();
        self.carry_checks_left = CARRY_CHECK_BUDGET;
        self.samples.clear();
    }

    /// Records the measured cost of one remap: `rebuild_seconds` is the
    /// schedule-rebuild share (inspector + runner + value-buffer rebuild),
    /// `total_seconds` the whole remap (data movement included). Both feed
    /// EWMAs (`COST_EWMA_ALPHA`); the first observation seeds them
    /// directly — the caller's static hint serves as the prior *until*
    /// this first call, after which measurement replaces it.
    pub fn record_remap_cost(&mut self, rebuild_seconds: f64, total_seconds: f64) {
        let fold = |ewma: &mut Option<f64>, x: f64| {
            *ewma = Some(match *ewma {
                None => x,
                Some(e) => (1.0 - COST_EWMA_ALPHA) * e + COST_EWMA_ALPHA * x,
            });
        };
        fold(&mut self.rebuild_cost_ewma, rebuild_seconds);
        fold(&mut self.remap_cost_ewma, total_seconds);
    }

    /// The calibrated schedule-rebuild cost (seconds): an EWMA of measured
    /// rebuild shares, or `None` before the first observed remap. This is
    /// what replaces the controller's static `rebuild_cost_hint` when
    /// calibration is enabled — modelled seconds on the simulator, wall
    /// clock on the native backend, either way the cost the profitability
    /// rule should actually be charging.
    pub fn rebuild_cost(&self) -> Option<f64> {
        self.rebuild_cost_ewma
    }

    /// The calibrated total remap cost (seconds; movement + rebuild), or
    /// `None` before the first observed remap. Observability companion to
    /// [`LoadMonitor::rebuild_cost`].
    pub fn remap_cost(&self) -> Option<f64> {
        self.remap_cost_ewma
    }

    /// Records the measured cost of one redistribution's data movement:
    /// `seconds` spent moving `elements` elements in `messages` messages.
    /// Feeds the exponentially-forgotten normal-equation accumulators the
    /// calibrated [`LoadMonitor::movement_model`] is fitted from. A remap
    /// that moved nothing teaches nothing and is ignored.
    pub fn record_movement_cost(&mut self, messages: usize, elements: usize, seconds: f64) {
        if messages == 0 && elements == 0 {
            return;
        }
        let m = messages as f64;
        let e = elements as f64;
        let s = seconds.max(0.0);
        for acc in &mut self.movement {
            *acc *= MOVEMENT_FORGETTING;
        }
        self.movement[0] += m * m;
        self.movement[1] += m * e;
        self.movement[2] += e * e;
        self.movement[3] += m * s;
        self.movement[4] += e * s;
        self.movement_obs = self.movement_obs.saturating_add(1);
    }

    /// The calibrated movement-cost model: per-message and per-element
    /// constants least-squares fitted (with exponential forgetting) to
    /// the redistributions this rank has actually performed, or `None`
    /// before the first observation.
    ///
    /// When the observations are collinear in (messages, elements) space
    /// — e.g. every remap so far moved the same elements-per-message
    /// ratio, so the two constants cannot be separated — the fit degrades
    /// gracefully: `prior` is scaled by the least-squares factor that
    /// best predicts the observed costs, preserving the prior's *ratio*
    /// while correcting its *magnitude*.
    pub fn movement_model(
        &self,
        prior: stance_onedim::RedistCostModel,
    ) -> Option<stance_onedim::RedistCostModel> {
        if self.movement_obs == 0 {
            return None;
        }
        let [mm, me, ee, ms, es] = self.movement;
        let det = mm * ee - me * me;
        if det > MOVEMENT_DEGENERATE * mm * ee {
            let per_message = (ms * ee - es * me) / det;
            let per_element = (mm * es - me * ms) / det;
            // A negative constant means the observations are too noisy to
            // separate the two terms — fall through to the scaled prior
            // rather than report a nonsensical model.
            if per_message >= 0.0 && per_element >= 0.0 && per_message + per_element > 0.0 {
                return Some(stance_onedim::RedistCostModel {
                    per_message,
                    per_element,
                });
            }
        }
        // Degenerate: scale the prior. The least-squares scale over the
        // accumulators is α = Σp·s / Σp² with p the prior's prediction —
        // both sums expand exactly in terms of the stored moments.
        let pm = prior.per_message;
        let pe = prior.per_element;
        let pp = pm * pm * mm + 2.0 * pm * pe * me + pe * pe * ee;
        let ps = pm * ms + pe * es;
        if pp > 0.0 && ps > 0.0 {
            Some(stance_onedim::RedistCostModel {
                per_message: pm * (ps / pp),
                per_element: pe * (ps / pp),
            })
        } else {
            None
        }
    }

    /// A bitwise snapshot of everything worth checkpointing: the current
    /// per-item estimate plus all calibrated cost statistics. Restore
    /// with [`LoadMonitor::restore_snapshot`].
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            per_item: self.per_item_time(),
            rebuild_cost: self.rebuild_cost_ewma,
            remap_cost: self.remap_cost_ewma,
            movement: self.movement,
            movement_obs: self.movement_obs,
        }
    }

    /// Reinstalls a [`MonitorSnapshot`]: the sample window clears, the
    /// snapshot's per-item estimate becomes the carry (with a fresh check
    /// budget, exactly as after a [`LoadMonitor::rollover`]), and the
    /// calibrated cost statistics are restored bit-for-bit.
    pub fn restore_snapshot(&mut self, snap: &MonitorSnapshot) {
        self.samples.clear();
        self.carry = snap.per_item;
        self.carry_checks_left = CARRY_CHECK_BUDGET;
        self.rebuild_cost_ewma = snap.rebuild_cost;
        self.remap_cost_ewma = snap.remap_cost;
        self.movement = snap.movement;
        self.movement_obs = snap.movement_obs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_window() {
        let mut m = LoadMonitor::new(2);
        assert!(!m.has_samples());
        assert_eq!(m.per_item_time(), None);
        m.record(10.0, 1, 10); // 1.0 per item
        m.record(20.0, 1, 10); // 2.0 per item
        assert_eq!(m.per_item_time(), Some(1.5));
        // Window evicts the oldest.
        m.record(30.0, 1, 10); // 3.0 per item → window = [2, 3]
        assert_eq!(m.per_item_time(), Some(2.5));
    }

    #[test]
    fn capability_is_reciprocal() {
        let mut m = LoadMonitor::new(4);
        m.record(4.0, 2, 100); // 0.02 per item
        assert!((m.capability().unwrap() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_empty_blocks() {
        let mut m = LoadMonitor::new(4);
        m.record(5.0, 0, 10);
        m.record(5.0, 10, 0);
        assert!(!m.has_samples());
    }

    #[test]
    fn reset_clears() {
        let mut m = LoadMonitor::new(4);
        m.record(1.0, 1, 1);
        m.reset();
        assert_eq!(m.per_item_time(), None);
    }

    #[test]
    fn rollover_carries_estimate_until_next_sample() {
        let mut m = LoadMonitor::new(3);
        m.record(10.0, 1, 10); // 1.0
        m.record(20.0, 1, 10); // 2.0
        assert_eq!(m.per_item_time(), Some(1.5));
        m.rollover();
        // Window is empty, but the pre-remap estimate still answers.
        assert!(!m.has_samples());
        assert_eq!(m.per_item_time(), Some(1.5));
        assert_eq!(m.capability(), Some(1.0 / 1.5));
        // The first fresh sample supersedes the carried value entirely.
        m.record(40.0, 1, 10); // 4.0
        assert_eq!(m.per_item_time(), Some(4.0));
        // A second rollover carries the *new* estimate.
        m.rollover();
        assert_eq!(m.per_item_time(), Some(4.0));
    }

    #[test]
    fn carried_estimate_expires_after_check_budget() {
        let mut m = LoadMonitor::new(3);
        m.record(10.0, 1, 10); // 1.0
        m.rollover();
        // Reads don't consume the budget; checks do.
        assert_eq!(m.per_item_time(), Some(1.0));
        assert_eq!(m.per_item_time(), Some(1.0));
        // The carry answers a bounded number of checks with an empty
        // window, then expires so the controller can probe the rank again.
        assert_eq!(m.per_item_for_check(), Some(1.0));
        assert_eq!(m.per_item_for_check(), Some(1.0));
        assert_eq!(m.per_item_for_check(), Some(1.0));
        assert_eq!(m.per_item_for_check(), None, "budget must expire");
        assert_eq!(m.per_item_time(), None, "expired carry is gone");
        // A fresh sample ends the blackout; a new rollover gets a new budget.
        m.record(20.0, 1, 10);
        assert_eq!(m.per_item_for_check(), Some(2.0));
        m.rollover();
        assert_eq!(m.per_item_for_check(), Some(2.0));
    }

    #[test]
    fn check_with_samples_does_not_consume_budget() {
        let mut m = LoadMonitor::new(3);
        m.record(10.0, 1, 10);
        m.rollover();
        m.record(30.0, 1, 10); // window nonempty again
        for _ in 0..10 {
            assert_eq!(m.per_item_for_check(), Some(3.0));
        }
    }

    #[test]
    fn reset_discards_carry() {
        let mut m = LoadMonitor::new(2);
        m.record(10.0, 1, 10);
        m.rollover();
        assert!(m.per_item_time().is_some());
        m.reset();
        assert_eq!(m.per_item_time(), None);
    }

    #[test]
    fn remap_cost_ewma_seeds_then_smooths() {
        let mut m = LoadMonitor::new(2);
        assert_eq!(m.rebuild_cost(), None);
        assert_eq!(m.remap_cost(), None);
        m.record_remap_cost(0.1, 0.4);
        // First observation seeds directly (the static hint was the prior).
        assert_eq!(m.rebuild_cost(), Some(0.1));
        assert_eq!(m.remap_cost(), Some(0.4));
        m.record_remap_cost(0.3, 0.8);
        assert!((m.rebuild_cost().unwrap() - 0.2).abs() < 1e-12);
        assert!((m.remap_cost().unwrap() - 0.6).abs() < 1e-12);
        // Calibration survives window resets and rollovers.
        m.reset();
        m.rollover();
        assert!((m.rebuild_cost().unwrap() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn movement_model_recovers_exact_constants() {
        let mut m = LoadMonitor::new(2);
        let prior = stance_onedim::RedistCostModel {
            per_message: 1.0,
            per_element: 1.0,
        };
        assert_eq!(m.movement_model(prior), None);
        // Two independent observations generated by per_message = 2e-3,
        // per_element = 1e-5: the normal equations recover them.
        m.record_movement_cost(10, 1000, 10.0 * 2e-3 + 1000.0 * 1e-5);
        m.record_movement_cost(2, 5000, 2.0 * 2e-3 + 5000.0 * 1e-5);
        let fit = m.movement_model(prior).expect("fit exists");
        assert!((fit.per_message - 2e-3).abs() < 1e-9, "{fit:?}");
        assert!((fit.per_element - 1e-5).abs() < 1e-11, "{fit:?}");
    }

    #[test]
    fn movement_model_collinear_observations_scale_the_prior() {
        let mut m = LoadMonitor::new(2);
        // Every observation has the same elements-per-message ratio, so
        // the two constants cannot be separated; costs are exactly 3x
        // what the prior predicts.
        let prior = stance_onedim::RedistCostModel {
            per_message: 1e-3,
            per_element: 1e-6,
        };
        for k in [1usize, 2, 4] {
            let msgs = 10 * k;
            let elems = 1000 * k;
            let true_cost = 3.0 * (msgs as f64 * 1e-3 + elems as f64 * 1e-6);
            m.record_movement_cost(msgs, elems, true_cost);
        }
        let fit = m.movement_model(prior).expect("fit exists");
        let ratio_msg = fit.per_message / prior.per_message;
        let ratio_elem = fit.per_element / prior.per_element;
        assert!((ratio_msg - 3.0).abs() < 1e-6, "{fit:?}");
        assert!((ratio_elem - 3.0).abs() < 1e-6, "{fit:?}");
    }

    #[test]
    fn movement_model_ignores_empty_remaps() {
        let mut m = LoadMonitor::new(2);
        m.record_movement_cost(0, 0, 1.0);
        assert_eq!(
            m.movement_model(stance_onedim::RedistCostModel::ethernet_f64()),
            None
        );
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let mut m = LoadMonitor::new(3);
        m.record(10.0, 1, 10);
        m.record(25.0, 1, 10);
        m.record_remap_cost(0.1, 0.4);
        m.record_remap_cost(0.3, 0.9);
        m.record_movement_cost(10, 1000, 0.05);
        m.record_movement_cost(3, 4000, 0.07);
        let snap = m.snapshot();

        let mut fresh = LoadMonitor::new(3);
        fresh.restore_snapshot(&snap);
        assert_eq!(fresh.per_item_time(), m.per_item_time());
        assert_eq!(fresh.rebuild_cost(), m.rebuild_cost());
        assert_eq!(fresh.remap_cost(), m.remap_cost());
        let prior = stance_onedim::RedistCostModel::ethernet_f64();
        let (a, b) = (m.movement_model(prior), fresh.movement_model(prior));
        let (a, b) = (a.expect("fit"), b.expect("fit"));
        assert_eq!(a.per_message.to_bits(), b.per_message.to_bits());
        assert_eq!(a.per_element.to_bits(), b.per_element.to_bits());
        // The restored snapshot behaves like a rollover: estimate answers
        // a bounded number of checks until fresh samples arrive.
        assert_eq!(fresh.per_item_for_check(), m.per_item_time());
    }

    #[test]
    #[should_panic(expected = "window must be")]
    fn zero_window_rejected() {
        let _ = LoadMonitor::new(0);
    }

    #[test]
    fn last_phase_estimator_tracks_newest() {
        let mut m = LoadMonitor::with_estimator(4, CapabilityEstimator::LastPhase);
        m.record(10.0, 1, 10);
        m.record(30.0, 1, 10);
        assert_eq!(m.per_item_time(), Some(3.0));
    }
}
