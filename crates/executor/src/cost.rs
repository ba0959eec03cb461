//! Pricing of executor work in reference seconds.
//!
//! Calibrated so the paper's headline sequential measurement reproduces: 500
//! iterations of the Fig. 8 loop on the 30 269-vertex / 44 929-edge mesh took
//! 97.61 s on one SUN4 workstation (Table 4), i.e. ≈ 195 ms per sweep over
//! ~90k references — a few microseconds per indirect reference, which is
//! what mid-90s workstations delivered on pointer-chasing float code.

/// Seconds of reference-machine time per unit of kernel work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComputeCostModel {
    /// Per indirect reference (load via indirection array + add).
    pub per_reference: f64,
    /// Per owned vertex (loop overhead + divide + store).
    pub per_vertex: f64,
    /// Per element packed into / unpacked from a message buffer.
    pub per_pack: f64,
    /// Compute lanes per rank — the intra-rank worker-team size (rank =
    /// address space, team = cores). `1` (every calibration constructor)
    /// models the paper's one-processor ranks; only
    /// [`LoopRunner::with_team`](crate::LoopRunner::with_team) sets it, to
    /// the team it spawns, and [`ComputeCostModel::sweep_work`] divides by
    /// the effective speedup so the load monitor (and therefore the remap
    /// controller) sees the rank's *effective* per-item speed.
    pub(crate) team_lanes: usize,
}

/// Marginal efficiency of each lane beyond the first: the effective
/// speedup of a `T`-lane team is `1 + (T − 1) · TEAM_EFFICIENCY` (static
/// chunking splits the sweep near-perfectly and every lane writes its own
/// window of the output, but the wake/join handshake and the cores' shared
/// memory bandwidth tax every extra lane).
const TEAM_EFFICIENCY: f64 = 0.85;

impl ComputeCostModel {
    /// SUN4-class calibration (see module docs): reproduces T(1) ≈ 97.6 s
    /// for the paper's workload.
    pub fn sun4() -> Self {
        ComputeCostModel {
            per_reference: 1.84e-6,
            per_vertex: 1.0e-6,
            per_pack: 0.4e-6,
            team_lanes: 1,
        }
    }

    /// Free model for structure-only tests.
    pub fn zero() -> Self {
        ComputeCostModel {
            per_reference: 0.0,
            per_vertex: 0.0,
            per_pack: 0.0,
            team_lanes: 1,
        }
    }

    /// The same model with `lanes` compute lanes per rank (see
    /// [`ComputeCostModel::team_lanes`]).
    ///
    /// # Panics
    /// Panics if `lanes` is zero.
    pub(crate) fn with_team(mut self, lanes: usize) -> Self {
        // `team_speedup` divides by the lane count.
        assert!(lanes >= 1, "a rank has at least one compute lane");
        self.team_lanes = lanes;
        self
    }

    /// Effective sweep speedup of this model's worker team:
    /// `1 + (team_lanes − 1) · TEAM_EFFICIENCY`, i.e. exactly `1.0` for
    /// the single-lane default.
    pub(crate) fn team_speedup(&self) -> f64 {
        if self.team_lanes <= 1 {
            1.0
        } else {
            1.0 + (self.team_lanes as f64 - 1.0) * TEAM_EFFICIENCY
        }
    }

    /// Work (reference seconds) of one relaxation sweep over `vertices`
    /// owned vertices with `references` total neighbor references,
    /// divided by the worker team's effective speedup (a no-op at the
    /// single-lane default — the calibrated tables are untouched).
    pub fn sweep_work(&self, vertices: usize, references: usize) -> f64 {
        (vertices as f64 * self.per_vertex + references as f64 * self.per_reference)
            / self.team_speedup()
    }

    /// Work of packing or unpacking `elements` values. Deliberately *not*
    /// team-scaled: staging runs on the rank thread, serial with respect
    /// to the worker team.
    pub fn pack_work(&self, elements: usize) -> f64 {
        elements as f64 * self.per_pack
    }
}

impl Default for ComputeCostModel {
    fn default() -> Self {
        Self::sun4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sequential_time_reproduced() {
        // 500 iterations over the Fig. 9 mesh: 30 269 vertices, 2 × 44 929
        // references.
        let m = ComputeCostModel::sun4();
        let per_iter = m.sweep_work(30_269, 2 * 44_929);
        let total = 500.0 * per_iter;
        assert!(
            (total - 97.61).abs() < 3.0,
            "expected ≈ 97.61 s, got {total:.2} s"
        );
    }

    #[test]
    fn zero_model() {
        let m = ComputeCostModel::zero();
        assert_eq!(m.sweep_work(100, 1000), 0.0);
        assert_eq!(m.pack_work(50), 0.0);
    }

    #[test]
    fn pack_work_linear() {
        let m = ComputeCostModel {
            per_pack: 2.0,
            ..ComputeCostModel::zero()
        };
        assert_eq!(m.pack_work(3), 6.0);
    }

    #[test]
    fn single_lane_team_is_identity() {
        let m = ComputeCostModel::sun4();
        assert_eq!(m.team_speedup(), 1.0);
        assert_eq!(m, m.with_team(1));
    }

    #[test]
    fn team_scales_sweep_but_not_pack() {
        let serial = ComputeCostModel::sun4();
        let team = serial.with_team(4);
        let speedup = 1.0 + 3.0 * TEAM_EFFICIENCY;
        assert_eq!(team.team_speedup(), speedup);
        assert_eq!(
            team.sweep_work(1000, 4000),
            serial.sweep_work(1000, 4000) / speedup
        );
        assert_eq!(team.pack_work(1000), serial.pack_work(1000));
    }

    #[test]
    #[should_panic(expected = "at least one compute lane")]
    fn zero_lane_team_rejected() {
        let _ = ComputeCostModel::sun4().with_team(0);
    }
}
