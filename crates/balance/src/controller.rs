//! The centralized remap controller.
//!
//! §3.5: "each processor monitors its own load and sends it to a controller
//! processor, which makes the decision about repartitioning the data …
//! Remapping is considered profitable if its cost is offset by an
//! improvement in time for the next phase. If it is not profitable, the
//! controller broadcasts an appropriate message to all the processors, and
//! computations are resumed for the next phase. Otherwise, the controller
//! computes new data intervals for each processor based on its estimated
//! computational capability in the previous phase. The new intervals are
//! broadcast to all the processors."

use stance_onedim::{
    mcr::{keep_arrangement, minimize_cost_redistribution},
    Arrangement, BlockPartition, RedistCostModel, RedistributionPlan,
};
use stance_sim::{Collectives, Comm, Element, Payload, Tag};

/// Tag for the load gather (workers → controller).
const TAG_LOAD: Tag = stance_sim::tags::TAG_LOAD;
/// Tag for the decision broadcast (controller → workers).
const TAG_DECISION: Tag = stance_sim::tags::TAG_DECISION;

/// The controller rank (the paper uses a fixed controller processor).
pub const CONTROLLER: usize = 0;

/// Remap policy parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct BalancerConfig {
    /// Cost model for the data movement a remap would trigger.
    pub redist_model: RedistCostModel,
    /// Estimated cost (seconds) of rebuilding the communication schedule
    /// after a remap — part of what the expected saving must offset. A
    /// static price: every check charges this value, never a measured one.
    pub rebuild_cost_hint: f64,
    /// Remap only if `saving > margin × (movement + rebuild)`. 1.0 is the
    /// paper's break-even rule; > 1 adds hysteresis.
    pub profitability_margin: f64,
    /// Use `MinimizeCostRedistribution` to pick the arrangement (§3.4);
    /// otherwise the old arrangement is kept and only block sizes change.
    pub use_mcr: bool,
}

impl Default for BalancerConfig {
    fn default() -> Self {
        BalancerConfig {
            redist_model: RedistCostModel::ethernet_f64(),
            rebuild_cost_hint: 0.1,
            profitability_margin: 1.0,
            use_mcr: true,
        }
    }
}

/// The controller's verdict, known to all ranks after the collective.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep the current partition.
    Keep,
    /// Move to this partition (same list, new intervals).
    Remap(BlockPartition),
}

/// One load-balancing check (a collective — all ranks must call it).
///
/// Every rank contributes its measured per-item computation time;
/// the controller estimates the next phase under the current and the
/// rebalanced partitions, applies the profitability rule, and broadcasts
/// the decision. Message and compute costs land on the ranks' virtual
/// clocks, which is exactly the "Load Balance Check" column of Table 5.
///
/// `remaining_iters` is the number of iterations the new partition would
/// serve ("using information from the current phase, the data should be
/// redistributed such that the idle time for the next phase is minimized").
///
/// What a remap costs is priced by `config` alone: `redist_model` on the
/// redistribution plan plus `rebuild_cost_hint` (see [`decide`]).
///
/// # Panics
/// Panics if `per_item_time` is negative, infinite or NaN, and on the
/// controller if a gathered load sample is not exactly one `f64`.
pub fn load_balance_step<C: Comm>(
    env: &mut C,
    partition: &BlockPartition,
    per_item_time: f64,
    remaining_iters: usize,
    config: &BalancerConfig,
) -> Decision {
    assert!(
        per_item_time.is_finite() && per_item_time >= 0.0,
        "per-item time must be finite and non-negative, got {per_item_time}"
    );
    let gathered = env.gather_to(CONTROLLER, TAG_LOAD, f64::pack(&[per_item_time]));

    let decision_payload = if env.rank() == CONTROLLER {
        // `gather_to` returns `Some` exactly on the root, and this is it.
        // Each part is a peer's bytes (another process on TCP), so it is
        // read into an exact one-`f64` buffer: anything else panics.
        let times: Vec<f64> = gathered
            .expect("controller receives the gather")
            .into_iter()
            .map(|p| {
                let mut t = [0.0];
                f64::unpack_into(p.as_bytes(), &mut t);
                t[0]
            })
            .collect();
        let decision = decide(partition, &times, remaining_iters, config);
        // A little controller compute: O(p³) for MCR is priced inside
        // `decide`'s caller via message costs; the arithmetic itself is
        // negligible at these scales but charged for honesty.
        env.compute(1.0e-5 * times.len() as f64);
        let payload = encode_decision(&decision);
        env.bcast_from(CONTROLLER, TAG_DECISION, payload)
    } else {
        env.bcast_from(CONTROLLER, TAG_DECISION, Payload::Empty)
    };

    decode_decision(decision_payload, partition.n())
}

/// The controller's pure decision logic: remap iff the projected saving
/// over `remaining_iters` exceeds `profitability_margin ×
/// (redist_model.cost(plan) + rebuild_cost_hint)`.
///
/// # Panics
/// Panics unless `per_item_times` holds one sample per rank of `partition`.
pub fn decide(
    partition: &BlockPartition,
    per_item_times: &[f64],
    remaining_iters: usize,
    config: &BalancerConfig,
) -> Decision {
    let p = partition.num_procs();
    assert_eq!(per_item_times.len(), p, "one load sample per rank");
    if remaining_iters == 0 {
        return Decision::Keep;
    }

    // Phase-time estimate under the current partition: the slowest rank.
    let sizes = partition.sizes();
    let t_current = phase_time(&sizes, per_item_times);

    // Capabilities ∝ 1 / per-item time. A rank that reported no data (zero
    // time) gets the mean capability — we know nothing about it.
    let caps = capabilities(per_item_times);

    // Candidate partition with new weights.
    let candidate = if config.use_mcr {
        minimize_cost_redistribution(partition, &caps, &config.redist_model).partition
    } else {
        keep_arrangement(partition, &caps)
    };
    let t_candidate = phase_time(&candidate.sizes(), per_item_times);

    let saving = (t_current - t_candidate) * remaining_iters as f64;
    let movement = config
        .redist_model
        .cost(&RedistributionPlan::between(partition, &candidate));
    let cost = movement + config.rebuild_cost_hint;
    if saving > cost * config.profitability_margin {
        Decision::Remap(candidate)
    } else {
        Decision::Keep
    }
}

/// Max over ranks of `block size × per-item time`.
fn phase_time(sizes: &[usize], per_item_times: &[f64]) -> f64 {
    sizes
        .iter()
        .zip(per_item_times)
        .map(|(&s, &t)| s as f64 * t)
        .fold(0.0, f64::max)
}

/// Normalized capabilities from per-item times.
fn capabilities(per_item_times: &[f64]) -> Vec<f64> {
    let known: Vec<f64> = per_item_times
        .iter()
        .filter(|&&t| t > 0.0)
        .map(|&t| 1.0 / t)
        .collect();
    let fallback = if known.is_empty() {
        1.0
    } else {
        known.iter().sum::<f64>() / known.len() as f64
    };
    per_item_times
        .iter()
        .map(|&t| if t > 0.0 { 1.0 / t } else { fallback })
        .collect()
}

/// Wire encoding of a decision: `\[0\]` = keep; `[1, p, sizes in block order…,
/// arrangement…]` = remap.
fn encode_decision(decision: &Decision) -> Payload {
    match decision {
        Decision::Keep => u64::pack(&[0]),
        Decision::Remap(part) => {
            let p = part.num_procs() as u64;
            let mut words = Vec::with_capacity(2 + 2 * part.num_procs());
            words.push(1);
            words.push(p);
            words.extend(part.block_sizes().iter().map(|&s| s as u64));
            words.extend(part.arrangement().as_slice().iter().map(|&q| q as u64));
            u64::pack(&words)
        }
    }
}

/// Decodes [`encode_decision`]'s wire format.
///
/// # Panics
/// Panics unless `payload` is `[0]`, or `[1, p]` followed by `2p` words —
/// the controller's encoding, sent in the same collective — and the
/// partition it names covers `expected_n` items.
fn decode_decision(payload: Payload, expected_n: usize) -> Decision {
    let words = u64::unpack(payload);
    match words[..] {
        [0] => Decision::Keep,
        [1, p, ref rest @ ..] => {
            let p = p as usize;
            assert_eq!(
                rest.len(),
                2 * p,
                "a remap decision for p = {p} ranks is 2 + 2p words, got {}",
                words.len()
            );
            let (sizes, order) = rest.split_at(p);
            let sizes: Vec<usize> = sizes.iter().map(|&w| w as usize).collect();
            let order: Vec<usize> = order.iter().map(|&w| w as usize).collect();
            let part = BlockPartition::from_sizes_with_arrangement(&sizes, Arrangement::new(order));
            // The controller's candidate repartitions the same `n` items.
            assert_eq!(part.n(), expected_n, "decoded partition has wrong length");
            Decision::Remap(part)
        }
        _ => panic!(
            "a decision is [0] (keep) or [1, p, …] (remap), got {} words",
            words.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::{Cluster, ClusterSpec, NetworkSpec};

    fn config_free_movement() -> BalancerConfig {
        BalancerConfig {
            redist_model: RedistCostModel {
                per_message: 0.0,
                per_element: 0.0,
            },
            rebuild_cost_hint: 0.0,
            profitability_margin: 1.0,
            use_mcr: true,
        }
    }

    #[test]
    fn balanced_load_keeps() {
        let part = BlockPartition::uniform(100, 4);
        let d = decide(&part, &[1e-3; 4], 100, &config_free_movement());
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn skewed_load_remaps() {
        let part = BlockPartition::uniform(100, 2);
        // Rank 0 three times slower.
        let d = decide(&part, &[3e-3, 1e-3], 100, &config_free_movement());
        match d {
            Decision::Remap(new) => {
                let sizes = new.sizes();
                // Capabilities 1/3 : 1 → sizes 25 : 75.
                assert_eq!(sizes, vec![25, 75]);
            }
            Decision::Keep => panic!("expected a remap"),
        }
    }

    #[test]
    fn zero_remaining_iters_keeps() {
        let part = BlockPartition::uniform(100, 2);
        let d = decide(&part, &[3e-3, 1e-3], 0, &config_free_movement());
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn expensive_remap_not_profitable() {
        let part = BlockPartition::uniform(100, 2);
        let config = BalancerConfig {
            redist_model: RedistCostModel {
                per_message: 1000.0,
                per_element: 1000.0,
            },
            rebuild_cost_hint: 0.0,
            profitability_margin: 1.0,
            use_mcr: true,
        };
        // Saving per phase is ~milliseconds; cost is enormous.
        let d = decide(&part, &[3e-3, 1e-3], 10, &config);
        assert_eq!(d, Decision::Keep);
    }

    #[test]
    fn margin_adds_hysteresis() {
        let part = BlockPartition::uniform(100, 2);
        let mut config = config_free_movement();
        config.rebuild_cost_hint = 0.1;
        // Mild imbalance: saving per iteration = (52·1.05e-3 − 50·1.05e-3)…
        // With 3 iterations remaining the saving is small.
        let d_low = decide(&part, &[1.10e-3, 1.0e-3], 3, &config);
        assert_eq!(d_low, Decision::Keep);
        // Plenty of iterations: profitable.
        let d_high = decide(&part, &[1.10e-3, 1.0e-3], 100_000, &config);
        assert!(matches!(d_high, Decision::Remap(_)));
    }

    #[test]
    fn zero_time_rank_gets_mean_capability() {
        let part = BlockPartition::from_sizes(&[100, 0]);
        // Rank 1 owned nothing, so reported 0. It should still get work.
        let d = decide(&part, &[1e-3, 0.0], 1000, &config_free_movement());
        match d {
            Decision::Remap(new) => {
                assert_eq!(new.sizes(), vec![50, 50]);
            }
            Decision::Keep => panic!("expected remap to include idle rank"),
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let keep = Decision::Keep;
        assert_eq!(decode_decision(encode_decision(&keep), 100), keep);
        let part =
            BlockPartition::from_weights(100, &[0.3, 0.5, 0.2], Arrangement::new(vec![2, 0, 1]));
        let remap = Decision::Remap(part.clone());
        match decode_decision(encode_decision(&remap), 100) {
            Decision::Remap(got) => {
                assert_eq!(got.sizes(), part.sizes());
                assert_eq!(got.arrangement(), part.arrangement());
                for g in 0..100 {
                    assert_eq!(got.owner_of(g), part.owner_of(g));
                }
            }
            Decision::Keep => panic!("round trip lost the remap"),
        }
    }

    #[test]
    #[should_panic(expected = "2 + 2p words")]
    fn short_remap_decision_is_refused() {
        decode_decision(u64::pack(&[1, 2, 50, 50, 1]), 100);
    }

    #[test]
    fn collective_step_agrees_on_decision() {
        let part = BlockPartition::uniform(120, 3);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            // Rank 0 claims to be 4× slower.
            let t = if env.rank() == 0 { 4e-3 } else { 1e-3 };
            load_balance_step(env, &part, t, 500, &config_free_movement())
        });
        let decisions: Vec<Decision> = report.into_results();
        assert!(matches!(decisions[0], Decision::Remap(_)));
        assert_eq!(decisions[0], decisions[1]);
        assert_eq!(decisions[1], decisions[2]);
    }

    /// A load sample is a peer's bytes: the controller reads exactly one
    /// `f64` and refuses a longer payload instead of reading its first word.
    #[test]
    #[should_panic(expected = "bulk unpack of 16 bytes into 1 8-byte elements")]
    fn two_word_load_sample_is_refused() {
        let part = BlockPartition::uniform(100, 2);
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            if env.rank() == CONTROLLER {
                load_balance_step(env, &part, 1e-3, 100, &config_free_movement());
            } else {
                env.send(CONTROLLER, TAG_LOAD, f64::pack(&[1e-3, 2e-3]));
                let _ = env.recv(CONTROLLER, TAG_DECISION);
            }
        });
    }

    #[test]
    fn check_cost_is_small_and_scales_with_p() {
        // The virtual cost of a check should be a few messages' worth —
        // the order of magnitude in Table 5's "Load Balance Check" column.
        let cost_for = |p: usize| {
            let part = BlockPartition::uniform(1000, p);
            let spec = ClusterSpec::paper_cluster(p);
            let report = Cluster::new(spec).run(|env| {
                let t0 = env.now();
                load_balance_step(env, &part, 1e-3, 500, &BalancerConfig::default());
                env.now() - t0
            });
            report.into_results().into_iter().fold(0.0f64, f64::max)
        };
        let c2 = cost_for(2);
        let c5 = cost_for(5);
        assert!(c2 > 0.0 && c2 < 0.1, "check cost for 2 ws was {c2}");
        assert!(c5 > c2, "check cost should grow with p: {c2} vs {c5}");
        assert!(c5 < 0.1, "check cost for 5 ws was {c5}");
    }

    #[test]
    fn mcr_off_keeps_arrangement() {
        let part = BlockPartition::uniform(100, 3);
        let mut config = config_free_movement();
        config.use_mcr = false;
        let d = decide(&part, &[5e-3, 1e-3, 1e-3], 10_000, &config);
        match d {
            Decision::Remap(new) => {
                assert_eq!(new.arrangement(), part.arrangement());
            }
            Decision::Keep => panic!("expected remap"),
        }
    }
}
