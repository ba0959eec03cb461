//! Machine model: relative speed plus a timeline of external competing load.
//!
//! The paper distinguishes *static*, *dynamic* and *adaptive* resources (§1).
//! We model a workstation by
//!
//! * a **relative speed** — how fast it executes one reference second of work
//!   when fully available (nonuniformity), and
//! * a **load timeline** — a piecewise-constant function of virtual time
//!   giving the fraction of the machine available to our SPMD process
//!   (adaptivity). A constant competing CPU-bound process, as in the paper's
//!   §5 adaptive experiment, gives availability `1/(1+k)` for `k` competitors.
//!
//! Charging `w` reference seconds of work starting at time `t` advances the
//! clock to the unique `t' ≥ t` with
//! `∫ₜ^t' speed · avail(τ) dτ = w`.

use crate::time::VTime;

/// One piece of the piecewise-constant availability function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPhase {
    /// Virtual time at which this phase begins.
    pub start: f64,
    /// Fraction of the machine available to the application in `(0, 1]`.
    pub available: f64,
}

/// Piecewise-constant availability over virtual time.
///
/// An empty timeline means the machine is fully available forever.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadTimeline {
    phases: Vec<LoadPhase>,
}

impl LoadTimeline {
    /// Fully available at all times.
    pub fn always_available() -> Self {
        LoadTimeline { phases: Vec::new() }
    }

    /// A constant availability for the whole run.
    ///
    /// `LoadTimeline::constant(1.0 / 3.0)` models the paper's adaptive
    /// experiment where a competing load pinned one workstation at a third of
    /// its capacity.
    pub fn constant(available: f64) -> Self {
        Self::from_phases(vec![LoadPhase {
            start: 0.0,
            available,
        }])
    }

    /// Builds a timeline from phases.
    ///
    /// # Panics
    /// Panics if the phases are not sorted by strictly increasing start time,
    /// if the first phase does not start at 0, or if any availability is
    /// outside `(0, 1]`. (Zero availability would stall virtual time forever;
    /// model "machine temporarily withdrawn" with a small epsilon instead.)
    pub fn from_phases(phases: Vec<LoadPhase>) -> Self {
        if let Some(first) = phases.first() {
            assert!(
                first.start == 0.0,
                "first load phase must start at t=0, got {}",
                first.start
            );
        }
        for w in phases.windows(2) {
            assert!(
                w[0].start < w[1].start,
                "load phases must have strictly increasing start times"
            );
        }
        for p in &phases {
            assert!(
                p.available > 0.0 && p.available <= 1.0,
                "availability must be in (0, 1], got {}",
                p.available
            );
        }
        LoadTimeline { phases }
    }

    /// `k` competing CPU-bound processes arriving at `start` and departing at
    /// `end` (fair-share scheduling: availability drops to `1/(1+k)`).
    pub fn competing_load(start: f64, end: f64, competitors: u32) -> Self {
        assert!(start >= 0.0 && end > start, "invalid competing-load window");
        let avail = 1.0 / (1.0 + f64::from(competitors));
        let mut phases = Vec::with_capacity(3);
        phases.push(LoadPhase {
            start: 0.0,
            available: 1.0,
        });
        if start == 0.0 {
            phases.clear();
            phases.push(LoadPhase {
                start: 0.0,
                available: avail,
            });
        } else {
            phases.push(LoadPhase {
                start,
                available: avail,
            });
        }
        if end.is_finite() {
            phases.push(LoadPhase {
                start: end,
                available: 1.0,
            });
        }
        Self::from_phases(phases)
    }

    /// Availability at time `t`.
    pub fn available_at(&self, t: VTime) -> f64 {
        self.phase_index_at(t.as_secs())
            .map_or(1.0, |i| self.phases[i].available)
    }

    /// Index of the phase active at `t` (or `None` before any phase / when
    /// empty).
    fn phase_index_at(&self, t: f64) -> Option<usize> {
        // Phases are sorted by start; find the last with start <= t.
        match self.phases.binary_search_by(|p| {
            p.start
                .partial_cmp(&t)
                .expect("load phase start is never NaN")
        }) {
            Ok(i) => Some(i),
            Err(0) => None,
            Err(i) => Some(i - 1),
        }
    }

    /// Advances from `t0`, consuming `demand` seconds of *fully available*
    /// machine time, and returns the completion time.
    pub fn advance(&self, t0: VTime, demand: f64) -> VTime {
        assert!(
            demand.is_finite() && demand >= 0.0,
            "compute demand must be finite and non-negative, got {demand}"
        );
        if demand == 0.0 {
            return t0;
        }
        if self.phases.is_empty() {
            return t0 + demand;
        }
        let mut t = t0.as_secs();
        let mut remaining = demand;
        let mut idx = self.phase_index_at(t);
        loop {
            let (avail, seg_end) = match idx {
                None => (1.0, self.phases[0].start),
                Some(i) => {
                    let avail = self.phases[i].available;
                    let seg_end = self.phases.get(i + 1).map_or(f64::INFINITY, |p| p.start);
                    (avail, seg_end)
                }
            };
            if seg_end.is_infinite() {
                return VTime::from_secs(t + remaining / avail);
            }
            let capacity = (seg_end - t) * avail;
            if remaining <= capacity {
                return VTime::from_secs(t + remaining / avail);
            }
            remaining -= capacity;
            t = seg_end;
            idx = Some(idx.map_or(0, |i| i + 1));
        }
    }
}

/// A simulated workstation.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Relative speed: reference seconds of work completed per second of
    /// fully-available machine time. 1.0 is the reference workstation.
    pub speed: f64,
    /// External-load availability over time.
    pub load: LoadTimeline,
}

impl MachineSpec {
    /// A reference workstation: speed 1.0, always fully available.
    pub fn reference() -> Self {
        MachineSpec {
            speed: 1.0,
            load: LoadTimeline::always_available(),
        }
    }

    /// A workstation with the given relative speed, always fully available.
    ///
    /// # Panics
    /// Panics unless `speed > 0`.
    pub fn with_speed(speed: f64) -> Self {
        assert!(speed > 0.0, "machine speed must be positive, got {speed}");
        MachineSpec {
            speed,
            load: LoadTimeline::always_available(),
        }
    }

    /// Attaches a load timeline.
    pub fn with_load(mut self, load: LoadTimeline) -> Self {
        self.load = load;
        self
    }

    /// Completion time of `work` reference seconds started at `t0`.
    pub fn finish_time(&self, t0: VTime, work: f64) -> VTime {
        assert!(
            work.is_finite() && work >= 0.0,
            "work must be finite and non-negative, got {work}"
        );
        self.load.advance(t0, work / self.speed)
    }

    /// Effective capability (reference seconds of work per second of virtual
    /// time) at time `t`: `speed × availability`.
    pub fn capability_at(&self, t: VTime) -> f64 {
        self.speed * self.load.available_at(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> VTime {
        VTime::from_secs(s)
    }

    #[test]
    fn empty_timeline_is_fully_available() {
        let tl = LoadTimeline::always_available();
        assert_eq!(tl.available_at(t(5.0)), 1.0);
        assert_eq!(tl.advance(t(2.0), 3.0), t(5.0));
    }

    #[test]
    fn constant_availability_scales_time() {
        let tl = LoadTimeline::constant(0.5);
        assert_eq!(tl.available_at(t(0.0)), 0.5);
        // 3 seconds of demand at half availability takes 6 seconds.
        assert_eq!(tl.advance(t(1.0), 3.0), t(7.0));
    }

    #[test]
    fn competing_load_window() {
        // One competitor between t=10 and t=20: availability 1, then 1/2, then 1.
        let tl = LoadTimeline::competing_load(10.0, 20.0, 1);
        assert_eq!(tl.available_at(t(0.0)), 1.0);
        assert_eq!(tl.available_at(t(10.0)), 0.5);
        assert_eq!(tl.available_at(t(19.9)), 0.5);
        assert_eq!(tl.available_at(t(20.0)), 1.0);
        // Start at t=8 with 6s demand: 2s at full, then 4s of demand at 1/2
        // availability = 8s of wall, finishing at t=18.
        assert_eq!(tl.advance(t(8.0), 6.0), t(18.0));
        // Demand that spills past the window: start t=8, demand 9s.
        // 2s full (2 done), 10s at half (5 done), remaining 2 at full → t=22.
        assert_eq!(tl.advance(t(8.0), 9.0), t(22.0));
    }

    #[test]
    fn competing_load_from_zero() {
        let tl = LoadTimeline::competing_load(0.0, f64::INFINITY, 2);
        assert!((tl.available_at(t(0.0)) - 1.0 / 3.0).abs() < 1e-12);
        let end = tl.advance(t(0.0), 1.0);
        assert!((end.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn advance_zero_demand_is_identity() {
        let tl = LoadTimeline::constant(0.25);
        assert_eq!(tl.advance(t(3.0), 0.0), t(3.0));
    }

    #[test]
    fn advance_starting_mid_phase() {
        let tl = LoadTimeline::from_phases(vec![
            LoadPhase {
                start: 0.0,
                available: 1.0,
            },
            LoadPhase {
                start: 4.0,
                available: 0.25,
            },
        ]);
        // Start inside the second phase.
        assert_eq!(tl.advance(t(8.0), 1.0), t(12.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_phases_rejected() {
        let _ = LoadTimeline::from_phases(vec![
            LoadPhase {
                start: 0.0,
                available: 1.0,
            },
            LoadPhase {
                start: 0.0,
                available: 0.5,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "availability must be in (0, 1]")]
    fn zero_availability_rejected() {
        let _ = LoadTimeline::constant(0.0);
    }

    #[test]
    #[should_panic(expected = "must start at t=0")]
    fn first_phase_must_start_at_zero() {
        let _ = LoadTimeline::from_phases(vec![LoadPhase {
            start: 1.0,
            available: 1.0,
        }]);
    }

    #[test]
    fn machine_speed_scales_work() {
        let m = MachineSpec::with_speed(2.0);
        assert_eq!(m.finish_time(t(0.0), 4.0), t(2.0));
        let slow = MachineSpec::with_speed(0.5);
        assert_eq!(slow.finish_time(t(0.0), 4.0), t(8.0));
    }

    #[test]
    fn machine_capability_combines_speed_and_load() {
        let m = MachineSpec::with_speed(2.0).with_load(LoadTimeline::constant(0.5));
        assert_eq!(m.capability_at(t(0.0)), 1.0);
        assert_eq!(m.finish_time(t(0.0), 2.0), t(2.0));
    }

    #[test]
    fn paper_adaptive_scenario_triples_time() {
        // §5: constant competing load on workstation 1 tripled the sequential
        // time (97.61s → 290.93s), i.e. availability ≈ 1/3 (2 competitors).
        let m =
            MachineSpec::reference().with_load(LoadTimeline::competing_load(0.0, f64::INFINITY, 2));
        let end = m.finish_time(t(0.0), 97.61);
        assert!((end.as_secs() - 292.83).abs() < 1e-9);
    }
}
