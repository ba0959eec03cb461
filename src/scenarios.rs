//! Shared end-to-end scenario bodies — fault-injection drivers and the
//! cross-backend equivalence workloads — written once, generic over
//! [`Comm`], plus the **TCP worker registry** that exposes each of them
//! (and every conformance body) as a named scenario a
//! [`TcpCluster`](stance_tcp::TcpCluster) rank process can run.
//!
//! The integration suites (`tests/fault_injection.rs`,
//! `tests/backend_equivalence.rs`, `tests/comm_conformance.rs`)
//! instantiate these against the simulator and the native thread pool
//! in-process, and against real OS processes through
//! `src/bin/tcp-rank-worker.rs` — three backends, one copy of every
//! workload, so a divergence is always the backend's fault and never a
//! drifted test.

use stance::executor::sequential_laplacian_matvec;
use stance::locality::meshgen;
use stance::prelude::*;
use stance_verify::{catch_fault, CheckedComm, FaultKind, FaultPlan, FaultyComm, RankTrace};

// ---------------------------------------------------------------------
// Fault-injection scenario (the kill / stall / wedge matrix).
// ---------------------------------------------------------------------

/// Iterations per epoch of the fault scenario.
pub const BLOCK: usize = 10;
/// Epochs in the fault scenario (each: probe → block → checkpoint).
pub const EPOCHS: usize = 4;
/// The epoch at whose membership probe the victim is killed.
pub const FAULT_EPOCH: usize = 2;
/// The rank the kill plan targets.
pub const VICTIM: usize = 2;

/// The mesh every fault-injection leg computes on.
pub fn fault_mesh() -> Graph {
    let raw = meshgen::triangulated_grid(12, 10, 0.4, 3);
    stance::prepare_mesh(&raw, OrderingMethod::Rcb).0
}

/// Initial value of global vertex `g` in the fault scenario.
pub fn fault_init(g: usize) -> f64 {
    (g as f64).cos() * 5.0
}

/// The membership probe's patience, in seconds: short enough for tests,
/// long enough not to false-positive on a loaded CI host.
pub const PATIENCE_SECS: f64 = 0.35;

/// The fault scenario's session configuration: zero-cost models (the
/// scenario checks data, not clocks).
pub fn fault_config() -> StanceConfig {
    StanceConfig::free()
}

/// One survivor's recovery outcome: its new (survivor-space) rank, final
/// local values, and the serialized checkpoint it restored from.
pub type SurvivorOutcome = (usize, Vec<f64>, Vec<u8>);

/// Runs the epoch loop fault-free and returns this rank's operation
/// count at the start of each epoch's membership probe — the aiming
/// table for a kill that must land exactly on a probe boundary (where
/// every mailbox is drained, so survivors recover from a clean slate).
pub fn epoch_op_marks<C: Comm>(env: &mut C, m: &Graph) -> Vec<u64> {
    let cfg = fault_config();
    let plan = FaultPlan::none();
    let mut faulty = FaultyComm::attach(env, &plan);
    let mut s = AdaptiveSession::setup(&mut faulty, m, RelaxationKernel, fault_init, &cfg);
    let _ = s.checkpoint(&mut faulty, &[]);
    let mut marks = Vec::new();
    for _ in 0..EPOCHS {
        marks.push(faulty.ops());
        let survivors = probe_membership(&mut faulty, PATIENCE_SECS);
        assert_eq!(
            survivors.len(),
            faulty.size(),
            "a fault-free probe sees everyone"
        );
        s.run_block(&mut faulty, BLOCK);
        let _ = s.checkpoint(&mut faulty, &[]);
    }
    marks
}

/// The faulted scenario on one rank. Survivors return
/// `Some((new_rank, final_values, checkpoint_blob))`; the victim
/// returns `None` after its injected death is caught — on the
/// in-process backends, that is; on the process backend the injected
/// kill is a real SIGKILL and the victim never returns at all.
pub fn faulted_run<C: Comm>(env: &mut C, m: &Graph, kill_at: u64) -> Option<SurvivorOutcome> {
    let cfg = fault_config();
    let plan = FaultPlan::kill(VICTIM, kill_at);
    let mut faulty = FaultyComm::attach(env, &plan);
    match catch_fault(|| drive(&mut faulty, m, &cfg)) {
        Ok(result) => result,
        Err(fault) => {
            assert_eq!(fault.rank, VICTIM, "only the planned victim may die");
            assert_eq!(fault.op, kill_at, "the kill must fire at the aimed op");
            assert!(matches!(fault.kind, FaultKind::Kill));
            None
        }
    }
}

/// The epoch loop with shrink-onto-survivors recovery. Must mirror
/// [`epoch_op_marks`] operation-for-operation up to the fault.
pub fn drive<C: Comm>(env: &mut C, m: &Graph, cfg: &StanceConfig) -> Option<SurvivorOutcome> {
    let mut s = AdaptiveSession::setup(env, m, RelaxationKernel, fault_init, cfg);
    let mut ckpt = s.checkpoint(env, &[]);
    for e in 0..EPOCHS {
        let survivors = probe_membership(env, PATIENCE_SECS);
        if survivors.len() == env.size() {
            s.run_block(env, BLOCK);
            ckpt = s.checkpoint(env, &[]);
            continue;
        }
        assert_eq!(e, FAULT_EPOCH, "the fault must surface at the aimed epoch");
        assert_eq!(survivors, vec![0, 1, 3], "exactly the victim is evicted");
        let mut sc = SurvivorComm::new(env, survivors);
        // The recovered run re-checks the whole SPMD contract: audits
        // after setup, every p2p event traced.
        let vcfg = cfg.clone().with_verification(true);
        let (mut r, aux) = AdaptiveSession::restore(&mut sc, m, RelaxationKernel, &ckpt, &vcfg)
            .expect("the checkpoint fits the mesh");
        assert!(aux.is_empty());
        for _ in e..EPOCHS {
            r.run_block(&mut sc, BLOCK);
        }
        let diags = r.verify_protocol(&mut sc);
        assert!(
            diags.is_empty(),
            "recovered-run protocol diagnostics: {diags:?}"
        );
        return Some((sc.rank(), r.local_values().to_vec(), ckpt.to_bytes()));
    }
    unreachable!("the planned kill fires before the loop completes")
}

/// Checks a faulted run's outcome against (a) an uninterrupted 3-rank
/// continuation from the same checkpoint on the same backend and (b) the
/// sequential reference; `clean` runs that continuation.
pub fn check_recovery(
    m: &Graph,
    results: Vec<Option<SurvivorOutcome>>,
    clean: impl FnOnce(SessionCheckpoint<f64>) -> Vec<(Vec<f64>, BlockPartition)>,
) {
    assert!(results[VICTIM].is_none(), "the victim must die");
    let survivors: Vec<_> = results.into_iter().flatten().collect();
    assert_eq!(survivors.len(), 3, "three survivors must recover");
    assert!(
        survivors.windows(2).all(|w| w[0].2 == w[1].2),
        "the replicated checkpoint must be identical on every survivor"
    );
    let ckpt = SessionCheckpoint::<f64>::from_bytes(&survivors[0].2)
        .expect("survivors replicate a well-formed checkpoint");
    assert_eq!(ckpt.num_procs(), 4, "the checkpoint predates the loss");

    let clean_results = clean(ckpt);
    for (new_rank, values, _) in &survivors {
        assert_eq!(
            values, &clean_results[*new_rank].0,
            "survivor {new_rank} diverged from the clean 3-rank continuation"
        );
    }
    let n = m.num_vertices();
    let mut expected: Vec<f64> = (0..n).map(fault_init).collect();
    stance::executor::sequential_relaxation(m, &mut expected, EPOCHS * BLOCK);
    let partition = clean_results[0].1.clone();
    let blocks = clean_results.into_iter().map(|(v, _)| v).collect();
    assert_eq!(
        reassemble(&partition, blocks),
        expected,
        "recovered computation diverged from the sequential reference"
    );
}

/// The uninterrupted 3-rank continuation from a checkpoint: the clean
/// half of [`check_recovery`], written once for every backend's `clean`
/// closure (and for the TCP `fault_continue` worker scenario).
pub fn continue_from_checkpoint<C: Comm>(
    env: &mut C,
    m: &Graph,
    ckpt: &SessionCheckpoint<f64>,
) -> (Vec<f64>, BlockPartition) {
    let cfg = fault_config();
    let (mut s, _) = AdaptiveSession::restore(env, m, RelaxationKernel, ckpt, &cfg)
        .expect("the checkpoint fits the mesh");
    for _ in FAULT_EPOCH..EPOCHS {
        s.run_block(env, BLOCK);
    }
    (s.local_values().to_vec(), s.partition().clone())
}

// ---------------------------------------------------------------------
// Equivalence workloads (relaxation, forced churn, conjugate gradient).
// ---------------------------------------------------------------------

/// The mesh both equivalence workloads compute on.
pub fn equiv_mesh() -> Graph {
    let raw = meshgen::triangulated_grid(14, 11, 0.4, 5);
    stance::prepare_mesh(&raw, OrderingMethod::Rcb).0
}

/// Initial value of global vertex `g` in the equivalence workloads.
pub fn equiv_init(g: usize) -> f64 {
    (g as f64 * 0.01).sin() * 5.0
}

/// One rank's share of the quickstart relaxation, generic over the
/// backend. Load balancing is disabled so every backend runs the
/// identical static schedule (remaps would not change the numbers —
/// relaxation is partition-invariant — but a wall-clock-driven remap
/// decision would make the *communication pattern* differ between runs
/// for no test value).
pub fn relaxation_body<C: Comm>(
    env: &mut C,
    mesh: &Graph,
    iters: usize,
    team: usize,
) -> (Vec<f64>, BlockPartition) {
    let config = StanceConfig::free()
        .without_load_balancing()
        .with_verification(true)
        .with_team(team);
    let mut session = AdaptiveSession::setup(env, mesh, RelaxationKernel, equiv_init, &config);
    session.run_adaptive(env, iters);
    let diags = session.verify_protocol(env);
    assert!(diags.is_empty(), "protocol diagnostics: {diags:?}");
    (session.local_values().to_vec(), session.partition().clone())
}

/// The mesh the forced-churn legs compute on: large enough to span several
/// 512-row blocks, so a remap keeps whole blocks and rebases them.
pub fn churn_mesh() -> Graph {
    let raw = meshgen::triangulated_grid(60, 40, 0.4, 8);
    stance::prepare_mesh(&raw, OrderingMethod::Rcb).0
}

/// The partitions a forced-churn run remaps to, in order, from the uniform
/// start. Two ranks run the benchmark's cycle, 1:3 → uniform → 0.85:1 →
/// uniform; three run a chain of shuffled arrangements, one of them with
/// an empty block.
///
/// # Panics
/// Panics for rank counts other than 2 and 3.
pub fn churn_script(n: usize, p: usize) -> Vec<BlockPartition> {
    let weighted = |weights: &[f64], order: &[usize]| {
        BlockPartition::from_weights(n, weights, Arrangement::new(order.to_vec()))
    };
    match p {
        2 => vec![
            weighted(&[1.0, 3.0], &[0, 1]),
            BlockPartition::uniform(n, 2),
            weighted(&[0.85, 1.0], &[0, 1]),
            BlockPartition::uniform(n, 2),
        ],
        3 => vec![
            weighted(&[1.0, 2.0, 1.0], &[2, 0, 1]),
            weighted(&[1.0, 0.0, 2.0], &[1, 2, 0]),
            weighted(&[0.5, 1.0, 1.5], &[0, 2, 1]),
            BlockPartition::uniform(n, 3),
        ],
        _ => panic!("no churn script for {p} ranks"),
    }
}

/// One rank's share of a forced-churn relaxation, generic over the
/// backend: `per_block` passes, then a remap to the next partition of
/// [`churn_script`], through the script, then `per_block` more — fully
/// verified, on `lanes` compute lanes. The values are partition-invariant,
/// so they must equal the sequential reference bitwise on every backend.
pub fn churn_body<C: Comm>(
    env: &mut C,
    mesh: &Graph,
    per_block: usize,
    lanes: usize,
) -> (Vec<f64>, BlockPartition) {
    let config = StanceConfig::free()
        .without_load_balancing()
        .with_verification(true)
        .with_team(lanes);
    let mut session = AdaptiveSession::setup(env, mesh, RelaxationKernel, equiv_init, &config);
    for partition in churn_script(mesh.num_vertices(), env.size()) {
        session.run_block(env, per_block);
        session.remap_to(env, partition, &mut []);
    }
    session.run_block(env, per_block);
    let diags = session.verify_protocol(env);
    assert!(diags.is_empty(), "protocol diagnostics: {diags:?}");
    (session.local_values().to_vec(), session.partition().clone())
}

/// The manufactured CG problem: `(L + shift·I) x* = b` on
/// [`equiv_mesh`], with `x*` the reference every backend's solve is
/// checked against. Built identically in test launchers and TCP workers.
pub fn cg_problem() -> (Graph, Vec<f64>, Vec<f64>, f64) {
    let m = equiv_mesh();
    let n = m.num_vertices();
    let shift = 1.0;
    let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut b = vec![0.0; n];
    sequential_laplacian_matvec(&m, &x_star, shift, &mut b);
    (m, b, x_star, shift)
}

/// One rank's share of a fixed-iteration CG solve of `(L + shift·I)x =
/// b`, generic over the backend: a one-stage `p → Ap` session does the
/// gather + matvec, `allreduce_f64` the dot products. Every branch depends
/// only on allreduced values, which are bitwise identical everywhere — so
/// all ranks and every backend walk the same path. The recorded trace
/// rides back with the result for cross-rank protocol analysis.
pub fn cg_body<C: Comm>(
    env: &mut C,
    mesh: &Graph,
    b: &[f64],
    shift: f64,
    max_iters: usize,
    team: usize,
) -> (Vec<f64>, RankTrace) {
    // The dot products run outside the session, so the protocol checker
    // is attached by hand and the session's own verification stays off.
    let mut trace = RankTrace::new(env.rank(), env.size());
    let mut checked = CheckedComm::attach(env, &mut trace);
    let env = &mut checked;
    let graph = StageGraphBuilder::new()
        .field("p")
        .field("Ap")
        .stage("matvec", LaplacianKernel { shift }, "p", "Ap")
        .build();
    let config = StanceConfig::free().with_team(team);
    // `p` starts as `b` (= `r`); every pass overwrites `Ap` whole.
    let mut session = DataflowSession::setup(env, mesh, graph, |_, g| b[g], &config);
    let iv = session.partition().interval_of(env.rank());
    let mut x = vec![0.0f64; iv.len()];
    let mut r: Vec<f64> = iv.iter().map(|g| b[g]).collect();
    let mut p = r.clone();

    let mut rho = {
        let local: f64 = r.iter().map(|v| v * v).sum();
        env.allreduce_f64(Tag(1), local, |a, b| a + b)
    };
    let rho0 = rho;
    for _ in 0..max_iters {
        session.set_local("p", &p);
        session.run_block(env, 1);
        let ap = session.local("Ap");
        let p_dot_ap = {
            let local: f64 = p.iter().zip(ap).map(|(a, c)| a * c).sum();
            env.allreduce_f64(Tag(2), local, |a, b| a + b)
        };
        let alpha = rho / p_dot_ap;
        for i in 0..x.len() {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rho_next = {
            let local: f64 = r.iter().map(|v| v * v).sum();
            env.allreduce_f64(Tag(3), local, |a, b| a + b)
        };
        if rho_next <= rho0 * 1e-24 {
            break;
        }
        let beta = rho_next / rho;
        for i in 0..p.len() {
            p[i] = r[i] + beta * p[i];
        }
        rho = rho_next;
    }
    (x, trace)
}

/// f64 slices compared as raw bit patterns (catches -0.0 vs 0.0 and NaN
/// payload differences that `==` would hide or over-reject).
pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

// ---------------------------------------------------------------------
// The TCP worker registry.
// ---------------------------------------------------------------------

/// Every scenario `src/bin/tcp-rank-worker.rs` can run by name: the 9
/// conformance bodies (each under [`CheckedComm`], returning its trace
/// for parent-side analysis), the three equivalence workloads, and the
/// fault-injection legs — including `fault_kill`, where the injected
/// kill is a real SIGKILL and the victim's "result" is its exit status.
pub const TCP_SCENARIOS: stance_tcp::ScenarioRegistry = &[
    ("conformance:send_recv_ordering", tcp::send_recv_ordering),
    ("conformance:tag_isolation", tcp::tag_isolation),
    ("conformance:barrier_rounds", tcp::barrier_rounds),
    ("conformance:allreduce_ops", tcp::allreduce_ops),
    ("conformance:bcast_and_gather", tcp::bcast_and_gather),
    (
        "conformance:post_and_recv_deadline",
        tcp::post_and_recv_deadline,
    ),
    (
        "conformance:deadline_timeout_preserves_stream",
        tcp::deadline_timeout_preserves_stream,
    ),
    (
        "conformance:barrier_waits_for_the_last_arrival",
        tcp::barrier_waits_for_the_last_arrival,
    ),
    (
        "conformance:multicast_reaches_each_destination",
        tcp::multicast_reaches_each_destination,
    ),
    ("equiv_relax", tcp::equiv_relax),
    ("equiv_cg", tcp::equiv_cg),
    ("equiv_churn", tcp::equiv_churn),
    ("fault_marks", tcp::fault_marks),
    ("fault_kill", tcp::fault_kill),
    ("fault_continue", tcp::fault_continue),
    ("fault_wedge", tcp::fault_wedge),
    ("fault_stall", tcp::fault_stall),
];

/// Decodes the trace words a TCP conformance worker returns.
pub fn trace_from_result(bytes: &[u8]) -> RankTrace {
    use stance_tcp::codec::Wire;
    RankTrace::from_payload(u32::pack(&Vec::<u32>::from_wire(bytes)))
}

/// The worker-side wrappers: each adapts one generic body to the
/// `fn(&mut TcpComm, &[u8]) -> Vec<u8>` scenario shape.
mod tcp {
    use super::*;
    use stance_tcp::codec::Wire;
    use stance_tcp::TcpComm;

    fn with_trace(c: &mut TcpComm, body: fn(&mut CheckedComm<'_, TcpComm>)) -> Vec<u8> {
        let mut trace = RankTrace::new(c.rank(), c.size());
        body(&mut CheckedComm::attach(c, &mut trace));
        u32::unpack(trace.to_payload()).to_wire()
    }

    macro_rules! conformance_scenarios {
        ($($name:ident),* $(,)?) => {$(
            pub fn $name(c: &mut TcpComm, _args: &[u8]) -> Vec<u8> {
                with_trace(c, |c| crate::conformance::$name(c))
            }
        )*};
    }

    conformance_scenarios!(
        send_recv_ordering,
        tag_isolation,
        barrier_rounds,
        allreduce_ops,
        bcast_and_gather,
        post_and_recv_deadline,
        deadline_timeout_preserves_stream,
        barrier_waits_for_the_last_arrival,
        multicast_reaches_each_destination,
    );

    pub fn equiv_relax(c: &mut TcpComm, args: &[u8]) -> Vec<u8> {
        let (iters, team) = <(usize, usize)>::from_wire(args);
        let m = equiv_mesh();
        let (values, part) = relaxation_body(c, &m, iters, team);
        (values, part.block_sizes()).to_wire()
    }

    pub fn equiv_cg(c: &mut TcpComm, args: &[u8]) -> Vec<u8> {
        let (max_iters, team) = <(usize, usize)>::from_wire(args);
        let (m, b, _x_star, shift) = cg_problem();
        let (x, trace) = cg_body(c, &m, &b, shift, max_iters, team);
        (x, u32::unpack(trace.to_payload())).to_wire()
    }

    pub fn equiv_churn(c: &mut TcpComm, args: &[u8]) -> Vec<u8> {
        let (per_block, lanes) = <(usize, usize)>::from_wire(args);
        let m = churn_mesh();
        let (values, part) = churn_body(c, &m, per_block, lanes);
        let arrangement = part.arrangement().as_slice().to_vec();
        (values, part.block_sizes(), arrangement).to_wire()
    }

    pub fn fault_marks(c: &mut TcpComm, _args: &[u8]) -> Vec<u8> {
        let m = fault_mesh();
        epoch_op_marks(c, &m).to_wire()
    }

    pub fn fault_kill(c: &mut TcpComm, args: &[u8]) -> Vec<u8> {
        let kill_at = u64::from_wire(args);
        let m = fault_mesh();
        // On this backend the victim SIGKILLs itself inside `faulted_run`
        // and never reaches the encode below; the coordinator sees its
        // death as `RankOutcome::Died { signal: Some(9), .. }`.
        faulted_run(c, &m, kill_at).to_wire()
    }

    pub fn fault_continue(c: &mut TcpComm, args: &[u8]) -> Vec<u8> {
        let ckpt_bytes = Vec::<u8>::from_wire(args);
        let m = fault_mesh();
        let ckpt = SessionCheckpoint::<f64>::from_bytes(&ckpt_bytes)
            .expect("the coordinator forwards a survivor's checkpoint");
        let (values, part) = continue_from_checkpoint(c, &m, &ckpt);
        (values, part.block_sizes()).to_wire()
    }

    /// Runs `f` with a panic hook that stays silent for injected-fault
    /// payloads. Injected faults unwind through [`catch_fault`] by
    /// design; without this, the worker process's default hook would
    /// splatter an expected unwind's backtrace across the parent test's
    /// stderr. Real panics still report message and location.
    fn with_quiet_injected_faults<R>(f: impl FnOnce() -> R) -> R {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|info| {
            if info
                .payload()
                .downcast_ref::<stance_verify::InjectedFault>()
                .is_none()
            {
                eprintln!("{info}");
            }
        }));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    pub fn fault_wedge(c: &mut TcpComm, _args: &[u8]) -> Vec<u8> {
        let plan = FaultPlan::wedge(1, 2);
        let mut faulty = FaultyComm::attach(c, &plan);
        let verdict = match with_quiet_injected_faults(|| {
            catch_fault(|| probe_membership(&mut faulty, PATIENCE_SECS))
        }) {
            Ok(survivors) => Some(survivors),
            Err(fault) => {
                assert_eq!(fault.rank, 1);
                assert!(matches!(fault.kind, FaultKind::Wedge));
                // Wedged, not dead: this process stays alive with every
                // socket open but silent, past the survivors' patience
                // window — so eviction must happen by timeout, never by
                // disconnection.
                std::thread::sleep(std::time::Duration::from_secs_f64(PATIENCE_SECS * 2.0));
                None
            }
        };
        verdict.to_wire()
    }

    pub fn fault_stall(c: &mut TcpComm, _args: &[u8]) -> Vec<u8> {
        let m = fault_mesh();
        let plan = FaultPlan::stall(1, 8, 2.0e-3);
        let mut faulty = FaultyComm::attach(c, &plan);
        let cfg = fault_config();
        let mut s = AdaptiveSession::setup(&mut faulty, &m, RelaxationKernel, fault_init, &cfg);
        let survivors = probe_membership(&mut faulty, PATIENCE_SECS);
        s.run_block(&mut faulty, BLOCK);
        (
            survivors,
            s.local_values().to_vec(),
            s.partition().block_sizes(),
        )
            .to_wire()
    }
}
