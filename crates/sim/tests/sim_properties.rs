//! Property tests for the cluster simulator: ordering, delivery and clock
//! invariants under randomized workloads.

use proptest::prelude::*;
use stance_sim::{Cluster, ClusterSpec, Comm, NetworkSpec, Payload, Tag};

proptest! {
    // Each case spins up real threads; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FIFO per channel: messages between a fixed pair with the same tag
    /// arrive in send order, with non-decreasing arrival clocks.
    #[test]
    fn per_channel_fifo_and_monotone_arrivals(
        values in proptest::collection::vec(0u32..1000, 1..40),
        latency in 0.0f64..0.01,
    ) {
        let mut net = NetworkSpec::zero_cost();
        net.latency = latency;
        net.send_setup = latency / 2.0;
        let spec = ClusterSpec::uniform(2).with_network(net);
        let sent = values.clone();
        let report = Cluster::new(spec).run(move |env| {
            if env.rank() == 0 {
                for &v in &sent {
                    env.send(1, Tag(9), Payload::from_u32(vec![v]));
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                let mut clocks = Vec::new();
                for _ in 0..sent.len() {
                    got.push(env.recv(0, Tag(9)).into_u32()[0]);
                    clocks.push(env.now().as_secs());
                }
                assert!(clocks.windows(2).all(|w| w[0] <= w[1]), "clock regressed");
                got
            }
        });
        let results: Vec<Vec<u32>> = report.into_results();
        prop_assert_eq!(&results[1], &values);
    }

    /// Allgather returns the same, rank-ordered vector everywhere.
    #[test]
    fn allgather_consistent(p in 2usize..5, seed in 0u64..1000) {
        let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            let mine = (seed ^ env.rank() as u64) as u32;
            let all = env.allgather(Tag(1), Payload::from_u32(vec![mine]));
            all.into_iter().map(|pl| pl.into_u32()[0]).collect::<Vec<u32>>()
        });
        let results: Vec<Vec<u32>> = report.into_results();
        for r in 1..p {
            prop_assert_eq!(&results[0], &results[r]);
        }
        for (rank, &v) in results[0].iter().enumerate() {
            prop_assert_eq!(v, (seed ^ rank as u64) as u32);
        }
    }

    /// All-pairs delivery, the self-send included: every receiver gets
    /// exactly the payload each sender addressed to it, for a random
    /// traffic matrix.
    #[test]
    fn exchange_delivers_traffic_matrix(
        p in 2usize..5,
        matrix_seed in 0u64..500,
    ) {
        let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            let me = env.rank();
            // Everyone sends to everyone (value encodes the pair).
            for dst in 0..p {
                let value = (matrix_seed as u32).wrapping_add((me * 31 + dst) as u32);
                env.send(dst, Tag(2), Payload::from_u32(vec![value]));
            }
            (0..p)
                .map(|src| (src, env.recv(src, Tag(2)).into_u32()[0]))
                .collect::<Vec<_>>()
        });
        for (me, got) in report.into_results().into_iter().enumerate() {
            for (src, value) in got {
                let expected = (matrix_seed as u32).wrapping_add((src * 31 + me) as u32);
                prop_assert_eq!(value, expected, "pair {} -> {}", src, me);
            }
        }
    }

    /// Compute charges exactly work/speed on an unloaded machine, for any
    /// split of the work into chunks.
    #[test]
    fn compute_chunking_invariant(
        chunks in proptest::collection::vec(0.0f64..2.0, 1..20),
        speed in 0.1f64..4.0,
    ) {
        let spec = ClusterSpec::heterogeneous(&[speed]);
        let total: f64 = chunks.iter().sum();
        let report = Cluster::new(spec).run(move |env| {
            for &c in &chunks {
                env.compute(c);
            }
            env.now().as_secs()
        });
        let clock = report.into_results()[0];
        prop_assert!((clock - total / speed).abs() < 1e-9 * (1.0 + total),
            "clock {} vs expected {}", clock, total / speed);
    }

    /// Barrier release time equals the max participant clock plus the fixed
    /// barrier cost, regardless of which rank is slow.
    #[test]
    fn barrier_takes_max_clock(p in 2usize..5, slow in 0usize..5, work in 0.0f64..3.0) {
        let slow = slow % p;
        let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            if env.rank() == slow {
                env.compute(work);
            }
            env.barrier();
            env.now().as_secs()
        });
        let clocks: Vec<f64> = report.into_results();
        for &c in &clocks {
            prop_assert!((c - work).abs() < 1e-12, "clock {} vs slowest {}", c, work);
        }
    }
}

/// A receive completes at `max(now, modelled arrival)`: a message still
/// on the wire is waited for, one that landed while the receiver computed
/// costs nothing. A pure 10 ms wire latency and no CPU costs, so the clock
/// arithmetic is exact.
#[test]
fn recv_completes_at_the_later_of_clock_and_arrival() {
    let latency = 10.0e-3;
    let mut net = NetworkSpec::zero_cost();
    net.latency = latency;
    for work in [4.0e-3, 50.0e-3] {
        let spec = ClusterSpec::uniform(2).with_network(net.clone());
        let report = Cluster::new(spec).run(move |env| {
            if env.rank() == 0 {
                env.send(1, Tag(1), Payload::from_u32(vec![7]));
            } else {
                env.compute(work);
                assert_eq!(env.recv(0, Tag(1)).into_u32(), vec![7]);
            }
            env.now_secs()
        });
        let clock = report.into_results()[1];
        assert!(
            (clock - work.max(latency)).abs() < 1e-12,
            "work {work}: receiver clock {clock}"
        );
    }
}
