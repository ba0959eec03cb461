//! The golden fingerprint of the session engine.
//!
//! `AdaptiveSession` used to be an engine of its own (`session.rs` +
//! `LoopRunner<E, K>`), proven bit-for-bit equal to a one-stage
//! `DataflowSession` by a unit test that compared the two. When the
//! second engine was deleted and `AdaptiveSession` became a façade over
//! the first, that comparison would have gone vacuous (the engine against
//! itself) — and `tests/determinism.rs` only compares a run with itself,
//! so neither could see an engine swap. This file pins what the retired
//! engine *produced* instead.
//!
//! The constants were captured at commit `bc52760` (the parent of the
//! collapse) from `AdaptiveSession::setup(..).run_adaptive(env, 40)` on
//! the scenario below, debug and release builds agreeing; the capture
//! run is quoted in CHANGES.md. They are portable by construction:
//! initial values come from integer arithmetic (no libm), the mesh is
//! RCB-ordered, and both networks are point-to-point (deterministic).

use stance::prelude::*;

fn golden_mesh() -> Graph {
    let raw = stance::locality::meshgen::triangulated_grid(12, 10, 0.4, 3);
    stance::prepare_mesh(&raw, OrderingMethod::Rcb).0
}

fn golden_init(g: usize) -> f64 {
    ((g * 37 + 11) % 101) as f64 * 0.25 - 12.0
}

/// Position-sensitive digest of a block's bit patterns.
fn golden_digest(values: &[f64]) -> u64 {
    values
        .iter()
        .enumerate()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, (i, v)| {
            (h ^ v.to_bits() ^ (i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// A balancer scaled to the tiny mesh (the default hints assume the
/// paper's 30k-vertex workload).
fn golden_balancer() -> BalancerConfig {
    BalancerConfig {
        redist_model: RedistCostModel {
            per_message: 1.0e-4,
            per_element: 1.0e-7,
        },
        rebuild_cost_hint: 1.0e-4,
        profitability_margin: 1.0,
        use_mcr: true,
    }
}

// Every rank reported the same decisions and final partition, in every leg.
const GOLDEN_REMAPS: usize = 1;
const GOLDEN_CHECKS: usize = 3;
const GOLDEN_SIZES: [usize; 3] = [17, 51, 52];
/// Per-rank digest of the final owned block — identical in both legs:
/// the network may not change a value.
const GOLDEN_DIGESTS: [u64; 3] = [0xd3cf0c688913b0fa, 0x7a6588d2ee240615, 0xe649ae2f3548cada];

/// One leg: network, and per rank the bits of the final virtual clock
/// and the messages sent.
struct GoldenLeg {
    network: fn() -> NetworkSpec,
    clock_bits: [u64; 3],
    messages_sent: [u64; 3],
}

const GOLDEN_LEGS: [GoldenLeg; 2] = [
    GoldenLeg {
        network: NetworkSpec::zero_cost,
        clock_bits: [0x3fa295f5f610e8da, 0x3fa2998aab144053, 0x3fa29ab09ae7f84b],
        messages_sent: [45, 85, 43],
    },
    // Point-to-point Ethernet: message charging (setup, latency, per-byte
    // time, receive overhead) enters the clock.
    GoldenLeg {
        network: NetworkSpec::ethernet_10mbit,
        clock_bits: [0x3fc63f4760d0340f, 0x3fc64e1fb12fe72e, 0x3fc6619016c4b5ba],
        messages_sent: [48, 85, 43],
    },
];

/// 3 ranks, rank 0 at 1/3 availability, check interval 10, 40
/// iterations: the façade **and** a hand-built one-stage
/// `DataflowSession` must both reproduce what the retired engine
/// produced — controller decisions, final partition, values, virtual
/// clocks and message counts — with message charging off and on.
#[test]
fn one_stage_sessions_reproduce_the_golden_fingerprint() {
    let m = golden_mesh();
    for (l, leg) in GOLDEN_LEGS.iter().enumerate() {
        let mut config = StanceConfig::default().with_check_interval(10);
        config.balancer = golden_balancer();
        for facade in [true, false] {
            let spec = ClusterSpec::uniform(3)
                .with_network((leg.network)())
                .with_load(0, LoadTimeline::constant(1.0 / 3.0));
            let report = Cluster::new(spec).run(|env| {
                if facade {
                    let mut s =
                        AdaptiveSession::setup(env, &m, RelaxationKernel, golden_init, &config);
                    let rep = s.run_adaptive(env, 40);
                    (rep, golden_digest(s.local_values()), s.partition().sizes())
                } else {
                    let graph = StageGraphBuilder::new()
                        .field("y")
                        .stage("relax", RelaxationKernel, "y", "y")
                        .build();
                    let init = |_: &str, g| golden_init(g);
                    let mut s = DataflowSession::setup(env, &m, graph, init, &config);
                    let rep = s.run_adaptive(env, 40);
                    (rep, golden_digest(s.local("y")), s.partition().sizes())
                }
            });
            for (rank, r) in report.ranks.iter().enumerate() {
                let at = format!("leg {l}, facade = {facade}, rank {rank}");
                let (rep, digest, sizes) = &r.result;
                assert_eq!(rep.remaps, GOLDEN_REMAPS, "remaps: {at}");
                assert_eq!(rep.checks, GOLDEN_CHECKS, "checks: {at}");
                assert_eq!(sizes[..], GOLDEN_SIZES, "partition: {at}");
                assert_eq!(*digest, GOLDEN_DIGESTS[rank], "values: {at}");
                let clock = r.clock.as_secs().to_bits();
                assert_eq!(clock, leg.clock_bits[rank], "virtual clock: {at}");
                let sent = r.stats.messages_sent;
                assert_eq!(sent, leg.messages_sent[rank], "messages sent: {at}");
            }
        }
    }
}
