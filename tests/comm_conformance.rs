//! Backend-conformance suite for the [`Comm`] trait.
//!
//! Every test body lives in [`stance_repro::conformance`], written once,
//! generically over `C: Comm`, and instantiated here against **three**
//! backends — the virtual-time simulator (`stance_sim::Env` on a
//! zero-cost network), the native thread pool
//! (`stance_native::NativeComm`), and the process-per-rank TCP cluster
//! (`stance_tcp::TcpCluster`, where each body runs as a named worker
//! scenario in real OS processes over real sockets) — and against the
//! survivor communicator the recovery path shrinks onto (`SurvivorComm`
//! over the simulator, one rank gone). A backend that buffers, orders, or
//! folds differently fails the same body everywhere.
//!
//! On every backend the body runs under [`CheckedComm`] and its recorded
//! traffic must analyze clean — for the TCP backend the traces are
//! recorded *inside the worker processes* and shipped back with each
//! rank's result.

use stance::prelude::*;
use stance::sim::wait::{with_forced_budget, REGIMES};
use stance_native::NativeCluster;
use stance_repro::conformance::{self as bodies, expect_protocol_clean};
use stance_tcp::TcpCluster;
use stance_verify::{CheckedComm, FaultPlan, FaultyComm, Interposed, RankTrace, TraceHook};

/// Launches a generic body on the simulator backend (zero-cost network —
/// conformance is about data movement, not cost modelling), with every
/// point-to-point event recorded through [`CheckedComm`] and the traces
/// analyzed after the run.
fn run_sim(p: usize, body: impl Fn(&mut CheckedComm<'_, Env>) + Send + Sync) {
    let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
    let report = Cluster::new(spec).run(|env| {
        let mut trace = RankTrace::new(env.rank(), env.size());
        body(&mut CheckedComm::attach(env, &mut trace));
        trace
    });
    expect_protocol_clean("sim", &report.into_results());
}

/// Launches a generic body on the native thread-pool backend, checked
/// exactly like [`run_sim`] — twice: with every mailbox and barrier wait
/// forced to park-only and forced to spin-then-park, whatever the host's
/// width would have chosen. The contract may not notice the difference.
fn run_native(
    p: usize,
    body: impl Fn(&mut CheckedComm<'_, stance_native::NativeComm>) + Send + Sync,
) {
    for spin in REGIMES {
        let report = with_forced_budget(spin, || {
            NativeCluster::new(p).run(|comm| {
                let mut trace = RankTrace::new(comm.rank(), comm.size());
                body(&mut CheckedComm::attach(comm, &mut trace));
                trace
            })
        });
        expect_protocol_clean("native", &report.into_results());
    }
}

/// Launches a generic body in survivor space: `p + 1` simulator ranks,
/// rank 1 leaves at once, and the other `p` run the body through
/// [`CheckedComm`] over a [`SurvivorComm`] of the survivors — held, like
/// every backend, to the same bodies and a clean protocol analysis.
fn run_survivor(
    p: usize,
    body: impl Fn(&mut CheckedComm<'_, SurvivorComm<'_, Env>>) + Send + Sync,
) {
    let spec = ClusterSpec::uniform(p + 1).with_network(NetworkSpec::zero_cost());
    let survivors: Vec<usize> = (0..=p).filter(|&r| r != 1).collect();
    let report = Cluster::new(spec).run(|env| {
        if env.rank() == 1 {
            return None;
        }
        let mut sc = SurvivorComm::new(env, survivors.clone());
        let mut trace = RankTrace::new(sc.rank(), sc.size());
        body(&mut CheckedComm::attach(&mut sc, &mut trace));
        Some(trace)
    });
    let traces: Vec<RankTrace> = report.into_results().into_iter().flatten().collect();
    expect_protocol_clean("survivor", &traces);
}

/// Launches a registered conformance scenario on the TCP process
/// backend: `p` worker processes over loopback sockets, each recording
/// its trace under `CheckedComm` and returning it as the rank result.
fn run_tcp(p: usize, scenario: &str) {
    let cluster = TcpCluster::new(p, env!("CARGO_BIN_EXE_tcp-rank-worker"));
    let traces: Vec<RankTrace> = cluster
        .run_scenario(scenario, &[])
        .into_results()
        .iter()
        .map(|bytes| stance_repro::scenarios::trace_from_result(bytes))
        .collect();
    expect_protocol_clean("tcp", &traces);
}

// The bodies are generic `fn` items, but the launchers want a closure
// callable at *every* wrapper lifetime (`for<'a> Fn(&mut
// CheckedComm<'a, _>)`), which a monomorphized fn item cannot provide —
// hence the `|c| bodies::f(c)` eta-expansion at each call site.
macro_rules! conformance_suite {
    ($backend:ident, $launch:expr) => {
        mod $backend {
            use super::*;

            #[test]
            fn send_recv_ordering() {
                ($launch)(3, |c| bodies::send_recv_ordering(c));
            }

            #[test]
            fn tag_isolation() {
                ($launch)(2, |c| bodies::tag_isolation(c));
            }

            #[test]
            fn barrier_rounds() {
                ($launch)(4, |c| bodies::barrier_rounds(c));
            }

            #[test]
            fn allreduce_ops() {
                ($launch)(4, |c| bodies::allreduce_ops(c));
            }

            #[test]
            fn bcast_and_gather() {
                ($launch)(4, |c| bodies::bcast_and_gather(c));
            }

            #[test]
            fn post_and_recv_deadline() {
                ($launch)(2, |c| bodies::post_and_recv_deadline(c));
            }

            #[test]
            fn deadline_timeout_preserves_stream() {
                ($launch)(2, |c| bodies::deadline_timeout_preserves_stream(c));
            }

            #[test]
            fn barrier_waits_for_the_last_arrival() {
                ($launch)(5, |c| bodies::barrier_waits_for_the_last_arrival(c));
            }

            #[test]
            fn multicast_reaches_each_destination() {
                ($launch)(4, |c| bodies::multicast_reaches_each_destination(c));
            }
        }
    };
}

conformance_suite!(sim_backend, run_sim);
conformance_suite!(native_backend, run_native);
conformance_suite!(survivor_space, run_survivor);

// The TCP instantiation names scenarios instead of passing closures —
// the body runs in another process — so it gets its own expansion, with
// the same body names and rank counts as the in-process suites above.
macro_rules! tcp_conformance_suite {
    ($($name:ident => $p:expr),* $(,)?) => {
        mod tcp_backend {
            use super::*;
            $(
                #[test]
                fn $name() {
                    run_tcp($p, concat!("conformance:", stringify!($name)));
                }
            )*
        }
    };
}

tcp_conformance_suite!(
    send_recv_ordering => 3,
    tag_isolation => 2,
    barrier_rounds => 4,
    allreduce_ops => 4,
    bcast_and_gather => 4,
    post_and_recv_deadline => 2,
    deadline_timeout_preserves_stream => 2,
    barrier_waits_for_the_last_arrival => 5,
    multicast_reaches_each_destination => 4,
);

/// Every wrapper is invisible to the simulator: the same body — three
/// conformance bodies, a hardware multicast, a rank-dependent `compute`
/// and a barrier — leaves every rank's virtual clock and counters exactly
/// where the bare run leaves them, under the checker, under an unarmed
/// fault injector and under an interposer with no hook. A wrapper that
/// lets a trait default stand in for the backend's own implementation
/// (the simulator's multicast above all) moves both. The checker's traces
/// of that body, collectives and multicast included, analyze clean.
#[test]
fn wrappers_are_invisible_to_the_simulator() {
    fn body<C: Comm>(c: &mut C) {
        bodies::bcast_and_gather(c);
        bodies::allreduce_ops(c);
        bodies::barrier_rounds(c);
        if c.rank() == 0 {
            c.multicast(&[1, 2, 3], Tag(50), f64::pack(&[1.5; 64]));
        } else {
            c.recv(0, Tag(50));
        }
        c.compute(1e-3 * (c.rank() + 1) as f64);
        c.barrier();
    }
    let plan = FaultPlan::none();
    let run = |wrapper: usize| {
        let net = NetworkSpec::ethernet_10mbit().with_multicast(true);
        let report = Cluster::new(ClusterSpec::uniform(4).with_network(net)).run(|env| {
            let mut trace = RankTrace::new(env.rank(), env.size());
            match wrapper {
                0 => body(env),
                1 => body(&mut CheckedComm::attach(env, &mut trace)),
                2 => body(&mut FaultyComm::attach(env, &plan)),
                _ => body(&mut Interposed::new(env, None::<TraceHook<'_>>)),
            }
            trace
        });
        let traces: Vec<RankTrace> = report.ranks.iter().map(|r| r.result.clone()).collect();
        expect_protocol_clean("sim", &traces);
        let ranks = report.ranks.into_iter();
        ranks
            .map(|r| (r.clock.as_secs().to_bits(), r.stats))
            .collect::<Vec<_>>()
    };
    let bare = run(0);
    for wrapper in 1..4 {
        assert_eq!(
            run(wrapper),
            bare,
            "wrapper {wrapper} changed clocks or counts"
        );
    }
}

/// The checker sees the messages a collective moves: a trace of
/// `bcast_and_gather` holds one event per message each rank sends or
/// receives — the broadcast from rank 2, the gather to rank 1 and the
/// allgather — and analyzes clean.
#[test]
fn collective_messages_are_traced() {
    let spec = ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
    let report = Cluster::new(spec).run(|env| {
        let mut trace = RankTrace::new(env.rank(), env.size());
        bodies::bcast_and_gather(&mut CheckedComm::attach(env, &mut trace));
        trace
    });
    let traces = report.into_results();
    let events: Vec<usize> = traces.iter().map(|t| t.events.len()).collect();
    assert_eq!(events, vec![8, 10, 10, 8]);
    expect_protocol_clean("sim", &traces);
}
