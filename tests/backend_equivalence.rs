//! Cross-backend equivalence: the simulator, the native thread-pool
//! backend, and the TCP process backend must produce **bitwise-identical
//! numeric results** for the same SPMD program at every rank count.
//!
//! This is the payoff of the `Comm` abstraction's determinism contract:
//! data flows in rank order on every backend (messages, gathers,
//! reductions), so the only thing that differs is what a second of time
//! means — virtual clocks, shared-memory channels, or framed bytes on a
//! loopback socket. Three workloads are checked:
//!
//! * the quickstart relaxation (the paper's Fig. 8 loop, run through
//!   `AdaptiveSession` exactly as `examples/quickstart.rs` does), at 1, 2
//!   and 4 ranks;
//! * the same relaxation under forced churn — `remap_to` through the
//!   benchmark's partition cycle at 2 ranks and a shuffled chain with an
//!   empty block at 3, on one and two lanes — the remap path's leg;
//! * a conjugate-gradient solve (the `cg_solver` example's iteration,
//!   driven by `LoopRunner` + rank-order `allreduce_f64` dot products —
//!   the numerically touchiest path, since CG compounds every rounding
//!   decision across iterations), at 1, 2 and 4 ranks.
//!
//! Both are also compared against the sequential reference, so
//! "identical" can never mean "identically wrong". The bodies live in
//! [`stance_repro::scenarios`] — one copy for the in-process launchers
//! here and for the worker processes behind the TCP legs.
//!
//! Each workload additionally runs with **worker teams** at sizes 2 and 4
//! (the in-process backends): splitting a rank's sweeps across a team of
//! threads must be bitwise identical to the plain run.
//!
//! Both workloads run **fully verified**: sessions enable
//! `StanceConfig::with_verification(true)`, the hand-driven CG wraps its
//! backend in [`CheckedComm`](stance_verify::CheckedComm) directly (both
//! are a `TraceHook` on the one `Interposed` communicator), and every
//! run's traces must analyze clean — including traces recorded
//! inside TCP worker processes and shipped back as bytes.

use stance::executor::sequential_relaxation;
use stance::prelude::*;
use stance::sim::wait::{with_forced_budget, REGIMES};
use stance_native::NativeCluster;
use stance_repro::scenarios::{
    bits, cg_body, cg_problem, churn_body, churn_mesh, equiv_init, equiv_mesh, relaxation_body,
};
use stance_tcp::codec::Wire;
use stance_tcp::TcpCluster;
use stance_verify::{analyze_traces, RankTrace};

// ---------------------------------------------------------------------
// Workload 1: quickstart relaxation through the session API.
// ---------------------------------------------------------------------

fn relaxation_on_sim(mesh: &Graph, p: usize, iters: usize, team: usize) -> Vec<f64> {
    let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
    let report = Cluster::new(spec).run(|env| relaxation_body(env, mesh, iters, team));
    let results: Vec<_> = report.into_results();
    let partition = results[0].1.clone();
    stance::reassemble(&partition, results.into_iter().map(|(v, _)| v).collect())
}

/// Runs a native launch twice — every mailbox, barrier and sweep-team wait
/// forced to park-only, then forced to spin-then-park, whatever the host's
/// width would have chosen — and returns the values after asserting that
/// the two regimes agree bitwise: how a rank waits moves wall time only.
fn native_in_both_wait_regimes(run: impl Fn() -> Vec<f64>) -> Vec<f64> {
    let [parked, spun] = REGIMES.map(|spin| with_forced_budget(spin, &run));
    assert_eq!(
        bits(&parked),
        bits(&spun),
        "native park-only and spin-then-park runs disagree bitwise"
    );
    spun
}

fn relaxation_on_native(mesh: &Graph, p: usize, iters: usize, team: usize) -> Vec<f64> {
    native_in_both_wait_regimes(|| {
        let report = NativeCluster::new(p).run(|comm| relaxation_body(comm, mesh, iters, team));
        let results: Vec<_> = report.into_results();
        let partition = results[0].1.clone();
        stance::reassemble(&partition, results.into_iter().map(|(v, _)| v).collect())
    })
}

/// The same relaxation on `p` OS processes over loopback TCP; each
/// worker returns `(values, block_sizes)` and the partition is
/// reconstructed parent-side for reassembly.
fn relaxation_on_tcp(p: usize, iters: usize, team: usize) -> Vec<f64> {
    let cluster = TcpCluster::new(p, env!("CARGO_BIN_EXE_tcp-rank-worker"));
    let args = (iters, team).to_wire();
    let results = cluster.run_scenario("equiv_relax", &args).into_results();
    let decoded: Vec<(Vec<f64>, Vec<usize>)> = results
        .iter()
        .map(|bytes| <(Vec<f64>, Vec<usize>)>::from_wire(bytes))
        .collect();
    let partition = BlockPartition::from_sizes(&decoded[0].1);
    stance::reassemble(&partition, decoded.into_iter().map(|(v, _)| v).collect())
}

#[test]
fn relaxation_bitwise_identical_across_backends_and_paths() {
    let m = equiv_mesh();
    let iters = 25;
    let mut reference: Vec<f64> = (0..m.num_vertices()).map(equiv_init).collect();
    sequential_relaxation(&m, &mut reference, iters);

    for p in [1usize, 2, 4] {
        let sim = relaxation_on_sim(&m, p, iters, 1);
        let native = relaxation_on_native(&m, p, iters, 1);
        assert_eq!(sim, reference, "sim diverged from sequential at p = {p}");
        assert_eq!(
            bits(&sim),
            bits(&native),
            "backends disagree bitwise at p = {p}"
        );
    }
}

/// The process backend closes the loop: values crossing real sockets as
/// framed bytes must land bitwise identical to the simulator's, at every
/// rank count.
#[test]
fn relaxation_bitwise_identical_on_tcp_processes() {
    let m = equiv_mesh();
    let iters = 25;
    for p in [1usize, 2, 4] {
        let sim = relaxation_on_sim(&m, p, iters, 1);
        let tcp = relaxation_on_tcp(p, iters, 1);
        assert_eq!(bits(&sim), bits(&tcp), "tcp diverged from sim at p = {p}");
    }
}

/// Worker teams are numerically free: team sizes 2 and 4 must match the
/// single-lane (T = 1) run bitwise on both backends at every rank count
/// — and the protocol traces (the session runs fully verified) must stay
/// clean.
#[test]
fn relaxation_bitwise_identical_across_team_sizes() {
    let m = equiv_mesh();
    let iters = 25;
    for p in [1usize, 2, 4] {
        let sim_serial = relaxation_on_sim(&m, p, iters, 1);
        let native_serial = relaxation_on_native(&m, p, iters, 1);
        for team in [2usize, 4] {
            let sim = relaxation_on_sim(&m, p, iters, team);
            assert_eq!(
                bits(&sim_serial),
                bits(&sim),
                "sim team = {team} diverged from T = 1 at p = {p}"
            );
            let native = relaxation_on_native(&m, p, iters, team);
            assert_eq!(
                bits(&native_serial),
                bits(&native),
                "native team = {team} diverged from T = 1 at p = {p}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Workload 2: the relaxation under forced churn (the remap path).
// ---------------------------------------------------------------------

/// Forced churn on all three backends: every remap moves values and
/// adjacency, rebuilds the schedule and rebases the kept blocks'
/// translation, and the relaxation must still equal the sequential
/// reference bitwise — on the simulator, the native threads and the TCP
/// processes alike, at 2 ranks (the benchmark's cycle) and 3 (shuffled
/// arrangements, an empty block), on one and two lanes, fully verified.
#[test]
fn forced_churn_bitwise_identical_on_sim_native_and_tcp() {
    let m = churn_mesh();
    let per_block = 3;
    let mut reference: Vec<f64> = (0..m.num_vertices()).map(equiv_init).collect();
    sequential_relaxation(&m, &mut reference, 5 * per_block);
    let reassembled = |results: Vec<(Vec<f64>, BlockPartition)>| {
        let partition = results[0].1.clone();
        stance::reassemble(&partition, results.into_iter().map(|(v, _)| v).collect())
    };
    for p in [2usize, 3] {
        for lanes in [1usize, 2] {
            let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
            let sim = reassembled(
                Cluster::new(spec)
                    .run(|env| churn_body(env, &m, per_block, lanes))
                    .into_results(),
            );
            assert_eq!(bits(&sim), bits(&reference), "sim p = {p} lanes = {lanes}");
            let native = native_in_both_wait_regimes(|| {
                reassembled(
                    NativeCluster::new(p)
                        .run(|comm| churn_body(comm, &m, per_block, lanes))
                        .into_results(),
                )
            });
            assert_eq!(bits(&native), bits(&sim), "native p = {p} lanes = {lanes}");
            let cluster = TcpCluster::new(p, env!("CARGO_BIN_EXE_tcp-rank-worker"));
            let args = (per_block, lanes).to_wire();
            let results = cluster.run_scenario("equiv_churn", &args).into_results();
            let decoded: Vec<(Vec<f64>, Vec<usize>, Vec<usize>)> =
                results.iter().map(|b| Wire::from_wire(b)).collect();
            let (_, sizes, arrangement) = &decoded[0];
            let partition = BlockPartition::from_sizes_with_arrangement(
                sizes,
                Arrangement::new(arrangement.clone()),
            );
            let blocks = decoded.into_iter().map(|(v, _, _)| v).collect();
            let tcp = stance::reassemble(&partition, blocks);
            assert_eq!(bits(&tcp), bits(&sim), "tcp p = {p} lanes = {lanes}");
        }
    }
}

// ---------------------------------------------------------------------
// Workload 3: conjugate gradient (the cg_solver example's iteration).
// ---------------------------------------------------------------------

#[test]
fn cg_solver_bitwise_identical_across_backends() {
    let (m, b, x_star, shift) = cg_problem();
    let n = m.num_vertices();

    for p in [1usize, 2, 4] {
        let m2 = &m;
        let b2 = &b;
        let part = BlockPartition::uniform(n, p);
        let check = |results: Vec<(Vec<f64>, RankTrace)>| {
            let (blocks, traces): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            let diags = analyze_traces(&traces);
            assert!(diags.is_empty(), "CG protocol diagnostics: {diags:?}");
            stance::reassemble(&part, blocks)
        };
        let run_sim = |team: usize| {
            let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
            check(
                Cluster::new(spec)
                    .run(|env| cg_body(env, m2, b2, shift, 120, team))
                    .into_results(),
            )
        };
        let run_native = |team: usize| {
            native_in_both_wait_regimes(|| {
                check(
                    NativeCluster::new(p)
                        .run(|comm| cg_body(comm, m2, b2, shift, 120, team))
                        .into_results(),
                )
            })
        };
        let sim = run_sim(1);
        let native = run_native(1);
        assert_eq!(
            bits(&sim),
            bits(&native),
            "CG backends disagree bitwise at p = {p}"
        );
        // A worker team inside CG — the touchiest consumer, since CG
        // compounds every rounding decision — must not change one bit:
        // the matvec splits across lanes, each row computed exactly as a
        // single lane would, so 120 compounding CG iterations stay bitwise
        // identical at T = 2 and 4 on both backends.
        for team in [2usize, 4] {
            assert_eq!(
                bits(&sim),
                bits(&run_sim(team)),
                "sim team = {team} CG diverged at p = {p}"
            );
            assert_eq!(
                bits(&native),
                bits(&run_native(team)),
                "native team = {team} CG diverged at p = {p}"
            );
        }
        // And the answer is actually the solution.
        let max_err = sim
            .iter()
            .zip(&x_star)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-8, "CG did not converge at p = {p}: {max_err}");
    }
}

/// CG on real processes: 120 compounding iterations of dot products and
/// ghost exchanges crossing framed loopback sockets, bitwise against the
/// simulator — with every worker's protocol trace shipped back and
/// analyzed parent-side.
#[test]
fn cg_solver_bitwise_identical_on_tcp_processes() {
    let (m, b, _x_star, shift) = cg_problem();
    let n = m.num_vertices();

    for p in [1usize, 2, 4] {
        let part = BlockPartition::uniform(n, p);
        let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
        let sim_blocks: Vec<_> = Cluster::new(spec)
            .run(|env| cg_body(env, &m, &b, shift, 120, 1))
            .into_results()
            .into_iter()
            .map(|(x, _)| x)
            .collect();
        let sim = stance::reassemble(&part, sim_blocks);

        let cluster = TcpCluster::new(p, env!("CARGO_BIN_EXE_tcp-rank-worker"));
        let args = (120usize, 1usize).to_wire();
        let results = cluster.run_scenario("equiv_cg", &args).into_results();
        let (blocks, traces): (Vec<_>, Vec<_>) = results
            .iter()
            .map(|bytes| {
                let (x, words) = <(Vec<f64>, Vec<u32>)>::from_wire(bytes);
                (x, RankTrace::from_payload(Payload::from_u32(words)))
            })
            .unzip();
        let diags = analyze_traces(&traces);
        assert!(diags.is_empty(), "tcp CG protocol diagnostics: {diags:?}");
        let tcp = stance::reassemble(&part, blocks);
        assert_eq!(
            bits(&sim),
            bits(&tcp),
            "CG over real sockets diverged bitwise at p = {p}"
        );
    }
}
