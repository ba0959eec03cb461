//! Cluster description and the SPMD launcher.
//!
//! A [`ClusterSpec`] is the reproducible description of a computational
//! environment: one [`MachineSpec`] per workstation plus a [`NetworkSpec`].
//! [`Cluster::run`] executes an SPMD closure on one OS thread per rank and
//! returns a [`RunReport`] with every rank's result, final virtual clock and
//! accounting counters.

use std::sync::Arc;

use crate::env::{Env, Msg};
use crate::launch::{run_ranks, BarrierShared};
use crate::machine::{LoadTimeline, MachineSpec};
use crate::mailbox::mailbox_matrix;
use crate::network::{NetworkSpec, NetworkState};
use crate::stats::EnvStats;
use crate::time::VTime;

/// A complete, reproducible description of a computational environment.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// One entry per workstation; index = rank.
    pub machines: Vec<MachineSpec>,
    /// The interconnect.
    pub network: NetworkSpec,
}

impl ClusterSpec {
    /// `p` identical reference workstations on default (Ethernet) network.
    pub fn uniform(p: usize) -> Self {
        assert!(p >= 1, "a cluster needs at least one machine");
        ClusterSpec {
            machines: (0..p).map(|_| MachineSpec::reference()).collect(),
            network: NetworkSpec::default(),
        }
    }

    /// Workstations with the given relative speeds.
    pub fn heterogeneous(speeds: &[f64]) -> Self {
        assert!(!speeds.is_empty(), "a cluster needs at least one machine");
        ClusterSpec {
            machines: speeds.iter().map(|&s| MachineSpec::with_speed(s)).collect(),
            network: NetworkSpec::default(),
        }
    }

    /// The paper's §5 test-bed: `p ≤ 5` SUN4-class workstations of equal
    /// speed on 10 Mbit/s Ethernet. (Table 4's efficiencies imply the five
    /// machines were nearly identical: the sequential time is ~97.6 s on each;
    /// the efficiency loss comes from communication and residual imbalance.)
    pub fn paper_cluster(p: usize) -> Self {
        assert!((1..=20).contains(&p), "paper cluster sizes are 1..=20");
        ClusterSpec {
            machines: (0..p).map(|_| MachineSpec::reference()).collect(),
            network: NetworkSpec::ethernet_10mbit(),
        }
    }

    /// Replaces the network.
    pub fn with_network(mut self, network: NetworkSpec) -> Self {
        self.network = network;
        self
    }

    /// Attaches an external-load timeline to one machine (e.g. the paper's
    /// competing load on workstation 1).
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn with_load(mut self, rank: usize, load: LoadTimeline) -> Self {
        self.machines[rank].load = load;
        self
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the cluster has no machines (never true for a validated spec).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Relative capabilities (speed × availability) at time `t`, normalized
    /// to sum to 1. This is what a perfectly informed partitioner would use
    /// as block weights.
    pub fn capabilities_at(&self, t: VTime) -> Vec<f64> {
        let caps: Vec<f64> = self.machines.iter().map(|m| m.capability_at(t)).collect();
        let sum: f64 = caps.iter().sum();
        caps.iter().map(|c| c / sum).collect()
    }
}

/// Outcome of one rank's SPMD execution.
#[derive(Debug)]
pub struct RankReport<R> {
    /// Value returned by the SPMD closure on this rank.
    pub result: R,
    /// The rank's virtual clock when the closure returned.
    pub clock: VTime,
    /// Time/communication accounting.
    pub stats: EnvStats,
}

/// Outcome of a whole cluster run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-rank outcomes, indexed by rank.
    pub ranks: Vec<RankReport<R>>,
}

impl<R> RunReport<R> {
    /// The completion time of the run: the maximum rank clock.
    pub fn makespan(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.clock.as_secs())
            .fold(0.0, f64::max)
    }

    /// Summed counters over all ranks.
    pub fn total_stats(&self) -> EnvStats {
        let mut total = EnvStats::default();
        for r in &self.ranks {
            total.merge(&r.stats);
        }
        total
    }

    /// The per-rank results, consuming the report.
    pub fn into_results(self) -> Vec<R> {
        self.ranks.into_iter().map(|r| r.result).collect()
    }

    /// Borrowed per-rank results.
    pub fn results(&self) -> impl Iterator<Item = &R> {
        self.ranks.iter().map(|r| &r.result)
    }
}

/// The SPMD launcher.
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
}

impl Cluster {
    /// Creates a launcher for the given environment.
    ///
    /// # Panics
    /// Panics on an invalid spec (no machines, bad network parameters).
    pub fn new(spec: ClusterSpec) -> Self {
        assert!(
            !spec.machines.is_empty(),
            "a cluster needs at least one machine"
        );
        spec.network.validate();
        Cluster { spec }
    }

    /// The environment description.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Runs `f` as an SPMD program: one invocation per rank, each on its own
    /// OS thread with its own [`Env`]. Returns when every rank has finished.
    ///
    /// # Panics
    /// If any rank panics, the whole run fails with the **first** panic's
    /// original payload (message). A failing rank poisons the barrier and
    /// closes its mailboxes, so peers blocked in `recv` or `barrier` abort
    /// instead of deadlocking; their secondary panics are swallowed in
    /// favour of the original one.
    pub fn run<R, F>(&self, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&mut Env) -> R + Send + Sync,
    {
        let p = self.spec.machines.len();
        let net = Arc::new(NetworkState::new(self.spec.network.clone()));
        let barrier = BarrierShared::new(p, self.spec.network.latency);

        let envs: Vec<Env> = mailbox_matrix::<Msg>(p)
            .into_iter()
            .enumerate()
            .map(|(rank, (txs, rxs))| {
                Env::new(
                    rank,
                    p,
                    self.spec.machines[rank].clone(),
                    Arc::clone(&net),
                    txs,
                    rxs,
                    Arc::clone(&barrier),
                )
            })
            .collect();

        // The shared launch harness owns the panic protocol (first panic
        // wins, barrier poisoning, mailbox closure via context drop).
        let ranks = run_ranks(
            "rank-",
            envs,
            || barrier.poison(),
            &f,
            |env, result| {
                let (clock, stats) = env.into_parts();
                RankReport {
                    result,
                    clock,
                    stats,
                }
            },
        );
        RunReport { ranks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;
    use crate::payload::{Payload, Tag};
    use crate::wait::{with_forced_budget, REGIMES};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn single_rank_compute_only() {
        let report = Cluster::new(ClusterSpec::uniform(1)).run(|env| {
            env.compute(2.5);
            env.now().as_secs()
        });
        assert_eq!(report.ranks.len(), 1);
        assert!((report.makespan() - 2.5).abs() < 1e-12);
        assert!((report.ranks[0].stats.compute_time - 2.5).abs() < 1e-12);
    }

    #[test]
    fn heterogeneous_speeds_scale_clocks() {
        let spec = ClusterSpec::heterogeneous(&[1.0, 2.0, 0.5]);
        let report = Cluster::new(spec).run(|env| {
            env.compute(1.0);
            env.now().as_secs()
        });
        let clocks: Vec<f64> = report.into_results();
        assert!((clocks[0] - 1.0).abs() < 1e-12);
        assert!((clocks[1] - 0.5).abs() < 1e-12);
        assert!((clocks[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn send_recv_moves_data_and_time() {
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec {
            send_setup: 0.1,
            latency: 0.2,
            byte_time: 0.0,
            recv_overhead: 0.0,
            multicast: false,
            kind: crate::network::NetworkKind::PointToPoint,
        });
        let report = Cluster::new(spec).run(|env| {
            if env.rank() == 0 {
                env.compute(1.0);
                env.send(1, Tag(1), Payload::from_f64(vec![42.0]));
                env.now().as_secs()
            } else {
                let data = env.recv(0, Tag(1)).into_f64();
                assert_eq!(data, vec![42.0]);
                env.now().as_secs()
            }
        });
        let clocks: Vec<f64> = report.into_results();
        // Sender: 1.0 compute + 0.1 setup.
        assert!((clocks[0] - 1.1).abs() < 1e-12);
        // Receiver: arrival at 1.1 + 0.2 latency.
        assert!((clocks[1] - 1.3).abs() < 1e-12);
    }

    #[test]
    fn tag_mismatch_is_buffered() {
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            if env.rank() == 0 {
                env.send(1, Tag(10), Payload::from_u32(vec![10]));
                env.send(1, Tag(20), Payload::from_u32(vec![20]));
            } else {
                // Receive out of order: tag 20 first.
                assert_eq!(env.recv(0, Tag(20)).into_u32(), vec![20]);
                assert_eq!(env.recv(0, Tag(10)).into_u32(), vec![10]);
            }
        });
    }

    #[test]
    fn self_send_works() {
        let spec = ClusterSpec::uniform(1).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            env.send(0, Tag(3), Payload::from_u64(vec![7]));
            assert_eq!(env.recv(0, Tag(3)).into_u64(), vec![7]);
        });
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let spec = ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            env.compute(env.rank() as f64); // ranks finish at 0,1,2,3
            env.barrier();
            env.now().as_secs()
        });
        for clock in report.results() {
            assert!((clock - 3.0).abs() < 1e-12, "clock {clock} != 3.0");
        }
    }

    #[test]
    fn barrier_cost_charged_with_latency() {
        let mut net = NetworkSpec::zero_cost();
        net.latency = 0.5;
        let spec = ClusterSpec::uniform(4).with_network(net);
        let report = Cluster::new(spec).run(|env| {
            env.barrier();
            env.now().as_secs()
        });
        // ceil(log2(4)) = 2 rounds × 2 × 0.5 latency = 2.0.
        for clock in report.results() {
            assert!((clock - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn repeated_barriers() {
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            for i in 0..50 {
                if env.rank() == i % 3 {
                    env.compute(0.01);
                }
                env.barrier();
            }
            env.now().as_secs()
        });
        let clocks: Vec<f64> = report.into_results();
        for &c in &clocks {
            assert!((c - 0.5).abs() < 1e-9, "clock {c}");
        }
    }

    #[test]
    fn bcast_delivers_everywhere() {
        let spec = ClusterSpec::uniform(5).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let payload = if env.rank() == 2 {
                Payload::from_f64(vec![3.25])
            } else {
                Payload::Empty
            };
            env.bcast_from(2, Tag(9), payload).into_f64()
        });
        for data in report.results() {
            assert_eq!(data, &vec![3.25]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let spec = ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let mine = Payload::from_u32(vec![env.rank() as u32 * 10]);
            env.gather_to(0, Tag(4), mine).map(|v| {
                v.into_iter()
                    .flat_map(super::super::payload::Payload::into_u32)
                    .collect::<Vec<_>>()
            })
        });
        let results: Vec<_> = report.into_results();
        assert_eq!(results[0], Some(vec![0, 10, 20, 30]));
        assert_eq!(results[1], None);
    }

    #[test]
    fn allgather_and_allreduce() {
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let all = env.allgather(Tag(5), Payload::from_u32(vec![env.rank() as u32]));
            let ids: Vec<u32> = all
                .into_iter()
                .flat_map(super::super::payload::Payload::into_u32)
                .collect();
            assert_eq!(ids, vec![0, 1, 2]);
            env.allreduce_f64(Tag(6), (env.rank() + 1) as f64, |a, b| a + b)
        });
        for total in report.results() {
            assert_eq!(*total, 6.0);
        }
    }

    #[test]
    fn multicast_single_setup_when_supported() {
        let net = NetworkSpec {
            send_setup: 1.0,
            latency: 0.0,
            byte_time: 0.0,
            recv_overhead: 0.0,
            multicast: true,
            kind: crate::network::NetworkKind::PointToPoint,
        };
        let spec = ClusterSpec::uniform(4).with_network(net);
        let report = Cluster::new(spec).run(|env| {
            if env.rank() == 0 {
                env.multicast(&[1, 2, 3], Tag(1), Payload::Empty);
            } else {
                env.recv(0, Tag(1));
            }
            env.now().as_secs()
        });
        let clocks: Vec<f64> = report.into_results();
        // One setup only: sender finishes at 1.0, not 3.0.
        assert!((clocks[0] - 1.0).abs() < 1e-12);
        for &c in &clocks[1..] {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn multicast_fallback_loops_sends() {
        let net = NetworkSpec {
            send_setup: 1.0,
            latency: 0.0,
            byte_time: 0.0,
            recv_overhead: 0.0,
            multicast: false,
            kind: crate::network::NetworkKind::PointToPoint,
        };
        let spec = ClusterSpec::uniform(4).with_network(net);
        let report = Cluster::new(spec).run(|env| {
            if env.rank() == 0 {
                env.multicast(&[1, 2, 3], Tag(1), Payload::Empty);
            } else {
                env.recv(0, Tag(1));
            }
            env.now().as_secs()
        });
        let clocks: Vec<f64> = report.into_results();
        assert!((clocks[0] - 3.0).abs() < 1e-12);
        // Last destination sees the third setup completion.
        assert!((clocks[3] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn wait_time_accounted() {
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            if env.rank() == 0 {
                env.compute(5.0);
                env.send(1, Tag(1), Payload::Empty);
                0.0
            } else {
                env.recv(0, Tag(1));
                env.stats().wait_time
            }
        });
        let waits: Vec<f64> = report.into_results();
        assert!((waits[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn load_timeline_slows_rank() {
        let spec = ClusterSpec::uniform(2)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(0.5));
        let report = Cluster::new(spec).run(|env| {
            env.compute(2.0);
            env.now().as_secs()
        });
        let clocks: Vec<f64> = report.into_results();
        assert!((clocks[0] - 4.0).abs() < 1e-12);
        assert!((clocks[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capabilities_normalized() {
        let spec = ClusterSpec::heterogeneous(&[1.0, 3.0]);
        let caps = spec.capabilities_at(VTime::ZERO);
        assert!((caps[0] - 0.25).abs() < 1e-12);
        assert!((caps[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn report_total_stats() {
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            if env.rank() == 0 {
                env.send(1, Tag(1), Payload::from_f64(vec![0.0; 16]));
            } else {
                env.recv(0, Tag(1));
            }
        });
        let total = report.total_stats();
        assert_eq!(total.messages_sent, 1);
        assert_eq!(total.bytes_sent, 128);
        assert_eq!(total.messages_received, 1);
        assert_eq!(total.bytes_received, 128);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn rank_panic_propagates() {
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            if env.rank() == 1 {
                panic!("boom");
            }
        });
    }

    /// Runs a doomed cluster under both wait regimes, with the failing
    /// rank panicking at once (its peers are still in their spin phase)
    /// and after 20 ms (they are parked): every combination must surface
    /// the original message, not hang and not a peer's secondary panic.
    fn surfaces_original_boom(run: impl Fn(Duration)) {
        for spin in REGIMES {
            for delay in [Duration::ZERO, Duration::from_millis(20)] {
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    with_forced_budget(spin, || run(delay));
                }))
                .expect_err("the run must fail");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"original boom"));
            }
        }
    }

    /// A rank that panics while its peers sit in `barrier` must fail the
    /// whole run with the *original* panic message — before the poisoning
    /// fix this deadlocked, and before first-panic recording it could
    /// surface a secondary "peer rank panicked" message instead.
    #[test]
    fn rank_panic_unblocks_peers_in_barrier() {
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        surfaces_original_boom(|delay| {
            Cluster::new(spec.clone()).run(|env| {
                if env.rank() == 2 {
                    std::thread::sleep(delay);
                    panic!("original boom");
                }
                env.barrier();
            });
        });
    }

    /// Same for peers blocked in `recv`: the failing rank's mailboxes close
    /// and the run surfaces the original message, not the receiver's
    /// secondary "sender exited" panic.
    #[test]
    fn rank_panic_unblocks_peers_in_recv() {
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        surfaces_original_boom(|delay| {
            Cluster::new(spec.clone()).run(|env| {
                if env.rank() == 1 {
                    std::thread::sleep(delay);
                    panic!("original boom");
                }
                env.recv(1, Tag(1));
            });
        });
    }

    #[test]
    fn infinite_timeout_is_no_deadline_not_a_panic() {
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec.clone()).run(|env| {
            if env.rank() == 0 {
                env.send(1, Tag(3), Payload::from_u32(vec![7]));
                return None;
            }
            // Already queued (or on its way): delivered, however long the wait.
            env.recv_deadline(0, Tag(3), f64::INFINITY)
                .map(Payload::into_u32)
        });
        assert_eq!(report.into_results(), vec![None, Some(vec![7])]);
        // A dead peer ends an unbounded wait promptly, with `None`.
        let t0 = std::time::Instant::now();
        let report = Cluster::new(spec).run(|env| {
            (env.rank() == 0).then(|| env.recv_deadline(1, Tag(3), f64::INFINITY).is_none())
        });
        assert_eq!(report.into_results(), vec![Some(true), None]);
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn determinism_across_runs() {
        let spec = ClusterSpec::paper_cluster(4);
        let run = || {
            Cluster::new(spec.clone()).run(|env| {
                // A non-trivial communication pattern.
                for step in 0..10u32 {
                    env.compute(0.01 * f64::from(env.rank() as u32 + 1));
                    let next = (env.rank() + 1) % env.size();
                    let prev = (env.rank() + env.size() - 1) % env.size();
                    env.send(next, Tag(step), Payload::from_f64(vec![0.0; 100]));
                    env.recv(prev, Tag(step));
                    env.barrier();
                }
                env.now().as_secs()
            })
        };
        let a: Vec<f64> = run().into_results();
        let b: Vec<f64> = run().into_results();
        assert_eq!(a, b, "virtual clocks must be bit-identical across runs");
    }
}
