//! Local load monitoring.
//!
//! §5: "One metric we have used is the average computation time per data
//! item. Each processor computes this information by dividing the total time
//! spent on the computation by the number of data elements it owned. This
//! assumes that the variation in computational cost per data unit is
//! relatively small."
//!
//! The monitor keeps a sliding window of the last four measurements and
//! estimates the next phase's per-item time as the window's mean — the
//! paper's footnote 2, a prediction from "more than one previous phase"
//! (§3.5), so a transient spike does not trigger a remap on its own. It
//! exposes the per-item time the controller exchanges. That metric is
//! all it tracks: what a remap costs is priced by the controller's static
//! model (`BalancerConfig::redist_model` and `rebuild_cost_hint`), not
//! measured here.

/// Measurement blocks the estimate averages over: footnote 2's "more
/// than one previous phase", four blocks of `check_interval` passes each.
const WINDOW: usize = 4;

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

/// A bitwise snapshot of the monitor state worth carrying across a
/// checkpoint/restore: the current per-item estimate. The sample *window*
/// is deliberately not included — its timing composition describes the
/// pre-checkpoint block layout, and the restore may land on a different
/// rank count entirely; the estimate is reinstalled as a carry (exactly as
/// [`LoadMonitor::rollover`] carries it across a remap) with a fresh check
/// budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorSnapshot {
    /// The per-item estimate at snapshot time (restored as the carry).
    pub per_item: Option<f64>,
}

/// Sliding-window tracker of per-item computation time on one rank: the
/// last `WINDOW` (4) samples, whose mean is the estimate, and the estimate
/// carried across a remap ([`LoadMonitor::rollover`]) with its check
/// budget.
#[derive(Debug, Clone)]
pub struct LoadMonitor {
    samples: std::collections::VecDeque<f64>,
    /// Per-item estimate carried across a remap ([`LoadMonitor::rollover`]):
    /// used only while the window is empty, so a check that lands before
    /// any post-remap measurement is still informed.
    carry: Option<f64>,
    /// Checks the carry may still answer before it expires
    /// ([`CARRY_CHECK_BUDGET`], decremented by
    /// [`LoadMonitor::per_item_for_check`]).
    carry_checks_left: u32,
}

impl LoadMonitor {
    /// Creates a monitor averaging over the last `WINDOW` (4) samples.
    pub fn new() -> Self {
        LoadMonitor {
            samples: std::collections::VecDeque::with_capacity(WINDOW),
            carry: None,
            carry_checks_left: 0,
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
        if self.samples.len() == WINDOW {
            self.samples.pop_front();
        }
        self.samples.push_back(per_item);
    }

    /// The estimated computation time per data item for the *next* phase
    /// (seconds) — the mean of the window — or `None`
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

    /// The window's mean. Callers guarantee the window is nonempty; with
    /// one sample the mean is that sample bit for bit.
    fn windowed_estimate(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
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

    /// A bitwise snapshot of everything worth checkpointing: the current
    /// per-item estimate. Restore with [`LoadMonitor::restore_snapshot`].
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            per_item: self.per_item_time(),
        }
    }

    /// Reinstalls a [`MonitorSnapshot`]: the sample window clears, the
    /// snapshot's per-item estimate becomes the carry (with a fresh check
    /// budget, exactly as after a [`LoadMonitor::rollover`]).
    pub fn restore_snapshot(&mut self, snap: &MonitorSnapshot) {
        self.samples.clear();
        self.carry = snap.per_item;
        self.carry_checks_left = CARRY_CHECK_BUDGET;
    }
}

impl Default for LoadMonitor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_over_window() {
        let mut m = LoadMonitor::new();
        assert_eq!(m.per_item_time(), None);
        for per_item in 1..=WINDOW {
            m.record(10.0 * per_item as f64, 1, 10);
        }
        // Window = [1, 2, 3, 4].
        assert_eq!(m.per_item_time(), Some(2.5));
        // Window evicts the oldest.
        m.record(50.0, 1, 10); // 5.0 per item → window = [2, 3, 4, 5]
        assert_eq!(m.per_item_time(), Some(3.5));
    }

    #[test]
    fn ignores_empty_blocks() {
        let mut m = LoadMonitor::new();
        m.record(5.0, 0, 10);
        m.record(5.0, 10, 0);
        assert_eq!(m.per_item_time(), None);
    }

    #[test]
    fn rollover_carries_estimate_until_next_sample() {
        let mut m = LoadMonitor::new();
        m.record(10.0, 1, 10); // 1.0
        m.record(20.0, 1, 10); // 2.0
        assert_eq!(m.per_item_time(), Some(1.5));
        m.rollover();
        // Window is empty, but the pre-remap estimate still answers.
        assert_eq!(m.per_item_time(), Some(1.5));
        // The first fresh sample supersedes the carried value entirely.
        m.record(40.0, 1, 10); // 4.0
        assert_eq!(m.per_item_time(), Some(4.0));
        // A second rollover carries the *new* estimate.
        m.rollover();
        assert_eq!(m.per_item_time(), Some(4.0));
    }

    #[test]
    fn carried_estimate_expires_after_check_budget() {
        let mut m = LoadMonitor::new();
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
        let mut m = LoadMonitor::new();
        m.record(10.0, 1, 10);
        m.rollover();
        m.record(30.0, 1, 10); // window nonempty again
        for _ in 0..10 {
            assert_eq!(m.per_item_for_check(), Some(3.0));
        }
    }

    #[test]
    fn snapshot_round_trips_bitwise() {
        let mut m = LoadMonitor::new();
        m.record(10.0, 1, 10);
        m.record(25.0, 1, 10);
        let snap = m.snapshot();

        let mut fresh = LoadMonitor::new();
        fresh.restore_snapshot(&snap);
        assert_eq!(
            fresh.per_item_time().map(f64::to_bits),
            m.per_item_time().map(f64::to_bits)
        );
        // The restored snapshot behaves like a rollover: estimate answers
        // a bounded number of checks until fresh samples arrive.
        assert_eq!(fresh.per_item_for_check(), m.per_item_time());
    }

    #[test]
    fn window_forgets_all_but_the_last_blocks() {
        let mut m = LoadMonitor::new();
        m.record(10.0, 1, 10);
        m.record(30.0, 1, 10);
        // One sample is its own mean, bit for bit.
        let mut one = LoadMonitor::new();
        one.record(1.0, 3, 7);
        assert_eq!(
            one.per_item_time().map(f64::to_bits),
            Some((1.0f64 / 21.0).to_bits())
        );
        // After WINDOW newer blocks the old ones are gone entirely.
        for _ in 0..WINDOW {
            m.record(1.0, 3, 7);
        }
        assert_eq!(m.per_item_time(), one.per_item_time());
    }
}
