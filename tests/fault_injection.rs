//! Fault injection and elastic recovery, end to end on all three
//! backends — including the one where "kill" means a real SIGKILL.
//!
//! The centerpiece is the deterministic recovery scenario the
//! fault-tolerance work promises: a 4-rank adaptive relaxation
//! checkpoints after every epoch; a seeded [`FaultPlan`] kills one rank
//! at a precisely aimed operation; the survivors detect the death
//! through the bounded membership probe, reach a collective verdict,
//! restore the last checkpoint onto a [`SurvivorComm`]-contracted
//! 3-rank world and finish the run — with final values **bitwise
//! identical** to an uninterrupted 3-rank continuation from the same
//! checkpoint, and to the sequential reference. The recovered run
//! executes under full protocol verification, so its traces must also
//! analyze clean. The scenario bodies live in
//! [`stance_repro::scenarios`], shared by every backend's leg here and
//! by the TCP worker binary.
//!
//! On the TCP process backend the same scenario runs with nothing
//! simulated: the victim SIGKILLs its own OS process mid-run (the
//! coordinator observes `Died { signal: Some(9) }`), the survivors see
//! its sockets reset, evict it through the same detector verdict, and
//! continue — bitwise identical to a clean 3-process continuation from
//! the replicated checkpoint.
//!
//! Around the centerpiece: the kill/stall/wedge matrix — a stalled rank
//! stays *alive* to the detector and numerically harmless, a wedged
//! (silent-but-running) rank holds open-but-silent sockets and is
//! evicted by timeout exactly like a crashed one, and seeded plans
//! reproduce run-for-run.

use stance::executor::sequential_relaxation;
use stance::prelude::*;
use stance_native::NativeCluster;
use stance_repro::scenarios::{
    check_recovery, continue_from_checkpoint, detector, epoch_op_marks, fault_config, fault_init,
    fault_mesh, faulted_run, SurvivorOutcome, BLOCK, FAULT_EPOCH, VICTIM,
};
use stance_tcp::codec::Wire;
use stance_tcp::{RankOutcome, TcpCluster};
use stance_verify::{catch_fault, FaultKind, FaultPlan, FaultyComm};

/// The acceptance scenario on the virtual-time simulator.
#[test]
fn sim_kill_recovery_matches_uninterrupted_shrink() {
    let m = fault_mesh();
    let spec4 = || ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
    let kill_at = Cluster::new(spec4())
        .run(|env| epoch_op_marks(env, &m))
        .into_results()[VICTIM][FAULT_EPOCH];

    let results = Cluster::new(spec4())
        .run(|env| faulted_run(env, &m, kill_at))
        .into_results();
    check_recovery(&m, results, |ckpt| {
        Cluster::new(ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost()))
            .run(|env| continue_from_checkpoint(env, &m, &ckpt))
            .into_results()
    });
}

/// The same scenario on the native thread-pool backend (wall-clock
/// timeouts, OS threads, real sleeps).
#[test]
fn native_kill_recovery_matches_uninterrupted_shrink() {
    let m = fault_mesh();
    let kill_at = NativeCluster::new(4)
        .run(|comm| epoch_op_marks(comm, &m))
        .into_results()[VICTIM][FAULT_EPOCH];

    let results = NativeCluster::new(4)
        .run(|comm| faulted_run(comm, &m, kill_at))
        .into_results();
    check_recovery(&m, results, |ckpt| {
        NativeCluster::new(3)
            .run(|comm| continue_from_checkpoint(comm, &m, &ckpt))
            .into_results()
    });
}

fn tcp_cluster(p: usize) -> TcpCluster {
    TcpCluster::new(p, env!("CARGO_BIN_EXE_tcp-rank-worker"))
}

/// The acceptance scenario with nothing simulated: 4 OS processes over
/// loopback sockets; the victim SIGKILLs itself mid-run; the survivors
/// detect the death through socket resets feeding the same detector
/// verdict, restore the replicated checkpoint onto a 3-rank
/// `SurvivorComm` world, and finish — bitwise identical to a clean
/// 3-process continuation and to the sequential reference.
#[test]
fn tcp_sigkill_recovery_matches_uninterrupted_shrink() {
    let m = fault_mesh();

    // Aim the kill using the TCP backend's own op marks.
    let marks: Vec<Vec<u64>> = tcp_cluster(4)
        .run_scenario("fault_marks", &[])
        .into_results()
        .iter()
        .map(|bytes| Vec::<u64>::from_wire(bytes))
        .collect();
    let kill_at = marks[VICTIM][FAULT_EPOCH];

    // The faulted run: one real process dies by SIGKILL.
    let report = tcp_cluster(4).run_scenario("fault_kill", &kill_at.to_wire());
    let mut results: Vec<Option<SurvivorOutcome>> = Vec::new();
    for (rank, outcome) in report.outcomes().iter().enumerate() {
        match outcome {
            RankOutcome::Died { signal, code } => {
                assert_eq!(rank, VICTIM, "only the victim may die");
                assert_eq!(
                    (*signal, *code),
                    (Some(9), None),
                    "the victim must die by SIGKILL, not exit"
                );
                results.push(None);
            }
            RankOutcome::Completed(bytes) => {
                results.push(Option::<SurvivorOutcome>::from_wire(bytes));
            }
            RankOutcome::Panicked(msg) => panic!("rank {rank} panicked: {msg}"),
        }
    }

    check_recovery(&m, results, |ckpt| {
        // The clean continuation also runs on real processes, restoring
        // from the same checkpoint bytes the survivors replicated.
        tcp_cluster(3)
            .run_scenario("fault_continue", &ckpt.to_bytes().to_wire())
            .into_results()
            .iter()
            .map(|bytes| {
                let (values, sizes) = <(Vec<f64>, Vec<usize>)>::from_wire(bytes);
                (values, BlockPartition::from_sizes(&sizes))
            })
            .collect()
    });
}

/// All three backends aim the kill identically: the operation count at
/// each epoch boundary is a property of the SPMD program, not of the
/// backend executing it.
#[test]
fn epoch_op_marks_agree_across_backends() {
    let m = fault_mesh();
    let sim_marks = Cluster::new(ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost()))
        .run(|env| epoch_op_marks(env, &m))
        .into_results();
    let native_marks = NativeCluster::new(4)
        .run(|comm| epoch_op_marks(comm, &m))
        .into_results();
    assert_eq!(
        sim_marks, native_marks,
        "op accounting diverged across backends"
    );
    let tcp_marks: Vec<Vec<u64>> = tcp_cluster(4)
        .run_scenario("fault_marks", &[])
        .into_results()
        .iter()
        .map(|bytes| Vec::<u64>::from_wire(bytes))
        .collect();
    assert_eq!(
        sim_marks, tcp_marks,
        "op accounting diverged on the process backend"
    );
}

/// A stalled rank is slow, not dead: the membership probe stays
/// unanimous and the block's values are bitwise unaffected.
#[test]
fn stall_is_alive_to_the_detector_and_numerically_free() {
    let m = fault_mesh();
    let n = m.num_vertices();
    let mut expected: Vec<f64> = (0..n).map(fault_init).collect();
    sequential_relaxation(&m, &mut expected, BLOCK);

    let plan = FaultPlan::stall(1, 8, 2.0e-3);
    let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
    let report = Cluster::new(spec).run(|env| {
        let mut faulty = FaultyComm::attach(env, &plan);
        let cfg = fault_config();
        let mut s = AdaptiveSession::setup(&mut faulty, &m, RelaxationKernel, fault_init, &cfg);
        let alive = probe_membership(&mut faulty, &detector());
        s.run_block(&mut faulty, BLOCK);
        (alive, s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    for (alive, _, _) in &results {
        assert_eq!(
            alive,
            &vec![true; 3],
            "a stalled rank must stay in the group"
        );
    }
    let partition = results[0].2.clone();
    let blocks = results.into_iter().map(|(_, v, _)| v).collect();
    assert_eq!(
        reassemble(&partition, blocks),
        expected,
        "stall changed values"
    );
}

/// The stall leg on real processes: a rank that sleeps mid-protocol is
/// late bytes on a socket, not a dead socket — the probe stays
/// unanimous and the values stay bitwise equal to the sequential
/// reference.
#[test]
fn tcp_stall_is_alive_to_the_detector_and_numerically_free() {
    let m = fault_mesh();
    let n = m.num_vertices();
    let mut expected: Vec<f64> = (0..n).map(fault_init).collect();
    sequential_relaxation(&m, &mut expected, BLOCK);

    let results: Vec<(Vec<bool>, Vec<f64>, Vec<usize>)> = tcp_cluster(3)
        .run_scenario("fault_stall", &[])
        .into_results()
        .iter()
        .map(|bytes| <(Vec<bool>, Vec<f64>, Vec<usize>)>::from_wire(bytes))
        .collect();
    for (alive, _, _) in &results {
        assert_eq!(
            alive,
            &vec![true; 3],
            "a stalled process must stay in the group"
        );
    }
    let partition = BlockPartition::from_sizes(&results[0].2);
    let blocks = results.into_iter().map(|(_, v, _)| v).collect();
    assert_eq!(
        reassemble(&partition, blocks),
        expected,
        "stall changed values on the process backend"
    );
}

/// A wedged rank — silent but still running — is evicted by timeout
/// with the same collective verdict as a crash. This exercises the
/// "died between rounds" detector path: the victim's heartbeats go out
/// before the wedge fires, so round 1 sees it alive and round 2's
/// verdict wait is what times out.
#[test]
fn wedge_is_evicted_by_collective_timeout() {
    let det = detector();
    // The victim's probe ops: two heartbeat posts (ops 0, 1), then the
    // wedge fires on its first bounded receive (op 2).
    let plan = FaultPlan::wedge(1, 2);
    let report = Cluster::new(ClusterSpec::uniform(3)).run(|env| {
        let mut faulty = FaultyComm::attach(env, &plan);
        match catch_fault(|| probe_membership(&mut faulty, &det)) {
            Ok(alive) => Some(alive),
            Err(fault) => {
                assert_eq!(fault.rank, 1);
                assert!(matches!(fault.kind, FaultKind::Wedge));
                // Wedged, not dead: hold the mailboxes open past the
                // survivors' patience window so eviction happens by
                // timeout, not by disconnection.
                std::thread::sleep(std::time::Duration::from_secs_f64(
                    det.total_patience_secs() * 2.0,
                ));
                None
            }
        }
    });
    for (rank, alive) in report.into_results().into_iter().enumerate() {
        if rank == 1 {
            assert_eq!(alive, None, "the victim must wedge");
        } else {
            assert_eq!(
                alive,
                Some(vec![true, false, true]),
                "rank {rank} verdict diverged"
            );
        }
    }
}

/// The wedge leg on real processes: the victim's sockets stay **open
/// but silent** — connected at the TCP level, never writing another
/// frame — so the survivors cannot lean on a reset and must evict it
/// purely by detector timeout, exactly like the in-process backends.
#[test]
fn tcp_wedge_is_evicted_by_collective_timeout() {
    let report = tcp_cluster(3).run_scenario("fault_wedge", &[]);
    for (rank, outcome) in report.outcomes().iter().enumerate() {
        let bytes = match outcome {
            RankOutcome::Completed(bytes) => bytes,
            other => panic!("rank {rank} did not complete: {other:?}"),
        };
        let verdict = Option::<Vec<bool>>::from_wire(bytes);
        if rank == 1 {
            assert_eq!(verdict, None, "the victim must wedge");
        } else {
            assert_eq!(
                verdict,
                Some(vec![true, false, true]),
                "rank {rank} verdict diverged"
            );
        }
    }
}

/// Seeded plans reproduce: the same seed yields the same fault at the
/// same operation, run after run, so every red run can be replayed.
#[test]
fn seeded_faults_reproduce_run_for_run() {
    for seed in [3, 17, 0xDEAD_BEEF] {
        let run_once = || {
            let plan = FaultPlan::randomized(seed, 4, 64);
            Cluster::new(ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost()))
                .run(|env| {
                    let mut faulty = FaultyComm::attach(env, &plan);
                    // A bounded all-to-all ring: every wait has a
                    // deadline, so no fault can deadlock the workload.
                    let outcome = catch_fault(|| {
                        let me = faulty.rank();
                        let p = faulty.size();
                        let mut received = Vec::new();
                        for step in 0..8u32 {
                            let next = (me + 1) % p;
                            let prev = (me + p - 1) % p;
                            faulty.post(next, Tag(5), u32::pack(&[step]));
                            if let Some(got) = faulty.recv_deadline(prev, Tag(5), 0.3) {
                                received.extend(u32::unpack(got));
                            }
                        }
                        received
                    });
                    match outcome {
                        Ok(received) => Ok(received),
                        Err(fault) => Err((fault.rank, fault.op)),
                    }
                })
                .into_results()
        };
        assert_eq!(run_once(), run_once(), "seed {seed} did not reproduce");
    }
}
