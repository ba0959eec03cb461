//! The probe phase of a traced run: each layer's public functions timed
//! on the workload's own inputs — same mesh, same backend, from outside
//! the program. Nothing here is gated; the numbers exist so that a change
//! in an end-to-end metric can be located in a layer, and so the ledger
//! can split a `run_block` span into sweep and exchange.
//!
//! Conventions: single-rank probes (inspector, sweep) use rank 0's block
//! under the workload's own rank count; everything that communicates uses
//! two ranks (`P2`), also for the one-rank `sweep-1m`, where the result
//! bounds what a second rank would pay. Collective probes take the max
//! over ranks; repeat counts are functions of the mesh size only, so all
//! ranks agree on them without talking.

use std::time::Instant;

use stance::balance::controller::decide;
use stance::balance::{redistribute_adjacency, redistribute_values, BalancerConfig};
use stance::executor::{gather, gather_fused, ComputeCostModel, SweepTeam};
use stance::inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
use stance::locality::meshgen;
use stance::onedim::RedistributionPlan;
use stance::prelude::*;
use stance::scenarios::initial_value;
use stance::sim::{LoadPhase, VTime};
use stance_native::NativeCluster;
use stance_tcp::codec::Wire;
use stance_tcp::TcpComm;

use crate::host;
use crate::json::Json;
use crate::rep::{run_tcp, RepArgs};
use crate::stats::median;
use crate::workloads::{build_mesh, cg_stage_graph, config, JacobiKernel, Workload, CG_SHIFT};

/// Ranks in every communicating probe.
const P2: usize = 2;

/// Repeat count for an operation that touches the whole mesh: about three
/// million vertex visits in total, at least 3 and at most 200 repeats.
fn reps_for(n: usize) -> usize {
    (3_000_000 / n.max(1)).clamp(3, 200)
}

/// Median seconds of `reps` calls of `f`.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Median seconds per call of `f` over `samples` samples of `inner` calls
/// each — for operations too short to time one at a time.
fn time_per_call(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    time_median(samples, || {
        for _ in 0..inner {
            f();
        }
    }) / inner as f64
}

fn skewed(n: usize) -> BlockPartition {
    BlockPartition::from_weights(n, &[1.0, 3.0], Arrangement::identity(P2))
}

fn mild(n: usize) -> BlockPartition {
    BlockPartition::from_weights(n, &[0.85, 1.0], Arrangement::identity(P2))
}

/// Max over ranks of a per-rank `Vec<f64>` result, component by component.
fn max_over_ranks(results: Vec<Vec<f64>>) -> Vec<f64> {
    let mut it = results.into_iter();
    let first = it.next().expect("a cluster has at least one rank");
    it.fold(first, |acc, r| {
        acc.iter().zip(&r).map(|(a, b)| a.max(*b)).collect()
    })
}

// ---------------------------------------------------------------------
// Transport probes, generic over the backend.
// ---------------------------------------------------------------------

const TAG_PROBE: Tag = Tag(0x0B01);
const STREAM_MSG_BYTES: usize = 1 << 20;
const STREAM_MSGS: usize = 24;

/// `[pingpong_us, stream_mbs, barrier_us, allreduce_us]` between ranks 0
/// and 1. Ping-pong is half a round trip of an 8-byte message; stream is
/// one-way MiB/s of 1 MiB messages, acknowledged once at the end.
fn transport_probe<C: Comm>(env: &mut C) -> Vec<f64> {
    assert_eq!(env.size(), P2, "transport probes run on two ranks");
    let rank = env.rank();
    let peer = 1 - rank;
    let rounds = 2000;

    for timed in [false, true] {
        // First leg warms sockets, mailboxes and allocator; second is kept.
        let n = if timed { rounds } else { 50 };
        env.barrier();
        let t0 = Instant::now();
        for _ in 0..n {
            if rank == 0 {
                env.send(peer, TAG_PROBE, Payload::from_f64(vec![1.0]));
                std::hint::black_box(env.recv(peer, TAG_PROBE));
            } else {
                let p = env.recv(peer, TAG_PROBE);
                env.send(peer, TAG_PROBE, p);
            }
        }
        if timed {
            let pingpong_us = t0.elapsed().as_secs_f64() / rounds as f64 / 2.0 * 1e6;

            let payloads: Vec<Payload> = (0..STREAM_MSGS)
                .map(|_| Payload::from_bytes(vec![0x5A; STREAM_MSG_BYTES]))
                .collect();
            env.barrier();
            let t1 = Instant::now();
            if rank == 0 {
                for p in payloads {
                    env.send(peer, TAG_PROBE, p);
                }
                env.recv(peer, TAG_PROBE);
            } else {
                for _ in 0..STREAM_MSGS {
                    std::hint::black_box(env.recv(peer, TAG_PROBE));
                }
                env.send(peer, TAG_PROBE, Payload::Empty);
            }
            let stream_mbs = (STREAM_MSGS * STREAM_MSG_BYTES) as f64
                / (1 << 20) as f64
                / t1.elapsed().as_secs_f64();

            env.barrier();
            let t2 = Instant::now();
            for _ in 0..rounds {
                env.barrier();
            }
            let barrier_us = t2.elapsed().as_secs_f64() / rounds as f64 * 1e6;

            let t3 = Instant::now();
            let mut acc = 0.0;
            for i in 0..rounds {
                acc += env.allreduce_f64(TAG_PROBE, i as f64, |a, b| a + b);
            }
            std::hint::black_box(acc);
            let allreduce_us = t3.elapsed().as_secs_f64() / rounds as f64 * 1e6;
            return vec![pingpong_us, stream_mbs, barrier_us, allreduce_us];
        }
    }
    unreachable!("the timed leg returns")
}

/// Microseconds per blocking ghost gather of one `f64` field (and, with
/// `fused`, per fused gather of two fields) over the two-rank uniform
/// partition of `mesh`.
fn gather_probe<C: Comm>(env: &mut C, mesh: &Graph, fused: bool) -> Vec<f64> {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, P2);
    let rank = env.rank();
    let adj = LocalAdjacency::extract(mesh, &part, rank);
    let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
    let iv = part.interval_of(rank);
    let ghosts = sched.num_ghosts() as usize;
    let cost = ComputeCostModel::zero();
    let mut bufs = CommBuffers::for_schedule(&sched);
    let mut arrays: Vec<GhostedArray<f64>> = (0..2)
        .map(|_| GhostedArray::from_local(iv.iter().map(initial_value).collect(), ghosts))
        .collect();
    let rounds = 1000;
    let mut out = Vec::new();

    for _ in 0..5 {
        gather(env, &sched, &mut arrays[0], &cost, &mut bufs);
    }
    env.barrier();
    let t0 = Instant::now();
    for _ in 0..rounds {
        gather(env, &sched, &mut arrays[0], &cost, &mut bufs);
    }
    out.push(t0.elapsed().as_secs_f64() / rounds as f64 * 1e6);

    if fused {
        for _ in 0..5 {
            gather_fused(env, &sched, &mut arrays, &[0, 1], &cost, &mut bufs);
        }
        env.barrier();
        let t1 = Instant::now();
        for _ in 0..rounds {
            gather_fused(env, &sched, &mut arrays, &[0, 1], &cost, &mut bufs);
        }
        out.push(t1.elapsed().as_secs_f64() / rounds as f64 * 1e6);
    }
    env.barrier();
    out
}

/// TCP rank body of the probe phase: transport probes, then the gather
/// probe on the workload's mesh (each rank process regenerates it).
pub fn tcp_probe_rank(comm: &mut TcpComm, args: &[u8]) -> Vec<u8> {
    let (name, seed, quick) = <(String, u64, bool)>::from_wire(args);
    let w = Workload::from_name(&name).expect("the coordinator sends a known workload");
    let scale = w.scale(quick);
    let mesh = build_mesh(&scale, seed).mesh;
    let mut out = transport_probe(comm);
    out.extend(gather_probe(comm, &mesh, false));
    out.to_wire()
}

// ---------------------------------------------------------------------
// The probe phase.
// ---------------------------------------------------------------------

/// Computed bytes one pass of the workload's kernels moves over a block
/// with `n` owned vertices and `refs` neighbour references: 4 B slot +
/// 8 B value per reference, 8 B row pointer + 8 B output per vertex; the
/// CG pass adds the Laplacian's diagonal read and the pointwise Jacobi
/// stage (3 × 8 B per vertex). Computed from array sizes — cache misses
/// and write-allocate traffic are not in it.
fn sweep_bytes(w: Workload, n: usize, refs: usize) -> f64 {
    let stencil = 12 * refs + 16 * n;
    match w {
        Workload::Cg30k => (stencil + 8 * n + 24 * n) as f64,
        _ => stencil as f64,
    }
}

/// Runs every probe for `args.workload` and returns `name → value`.
pub fn run(args: &RepArgs) -> Json {
    let w = args.workload;
    let scale = w.scale(args.quick);
    let built = build_mesh(&scale, args.seed);
    let mesh = &built.mesh;
    let n = mesh.num_vertices();
    // Same reason as before a repetition: the mesh build above was
    // single-threaded, and half the probes below need both cores.
    host::guard();
    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| m.push((name.to_string(), v));

    // --- host ---------------------------------------------------------
    let refs_total = 2 * mesh.num_edges();
    let working_set = 4 * refs_total + 8 * (n + 1) + 16 * n;
    let triad_t1 = host::triad_gbs(1, working_set);
    put("host.triad_gbs.t1", triad_t1);
    put("host.triad_gbs.t2", host::triad_gbs(2, working_set));

    // --- onedim -------------------------------------------------------
    let uniform2 = BlockPartition::uniform(n, P2);
    let plan_s = time_per_call(5, 2000, || {
        std::hint::black_box(RedistributionPlan::between(&uniform2, &skewed(n)));
    });
    put("onedim.plan_us", plan_s * 1e6);

    // --- inspector (rank 0's block under the workload's own rank count)
    let part = BlockPartition::uniform(n, w.ranks());
    let big = reps_for(n).min(9);
    put(
        "inspector.extract_ms",
        1e3 * time_median(big, || {
            std::hint::black_box(LocalAdjacency::extract(mesh, &part, 0));
        }),
    );
    let adj = LocalAdjacency::extract(mesh, &part, 0);
    put(
        "inspector.schedule_ms",
        1e3 * time_median(big, || {
            std::hint::black_box(build_schedule_symmetric(
                &part,
                &adj,
                0,
                ScheduleStrategy::Sort2,
            ));
        }),
    );
    let (sched, _) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort2);
    put(
        "inspector.translate_ms",
        1e3 * time_median(big, || {
            std::hint::black_box(sched.translate_adjacency(&adj));
        }),
    );
    put("inspector.ghosts_per_rank", f64::from(sched.num_ghosts()));
    put("inspector.sends_per_rank", sched.total_send_volume() as f64);

    // --- executor: the kernels of one iteration over rank 0's block ----
    let tadj = sched.translate_adjacency(&adj);
    let local = tadj.len();
    let combined: Vec<f64> = (0..tadj.buffer_len()).map(initial_value).collect();
    let mut out = vec![0.0; local];
    let sweeps = reps_for(local).max(7);
    let sweep_once = |out: &mut [f64]| match w {
        Workload::Cg30k => {
            JacobiKernel { shift: CG_SHIFT }.sweep(&tadj, &combined, out);
            LaplacianKernel { shift: CG_SHIFT }.sweep_chunked(&tadj, &combined, out, 0..local);
        }
        _ => RelaxationKernel.sweep_chunked(&tadj, &combined, out, 0..local),
    };
    sweep_once(&mut out);
    let sweep_s = time_median(sweeps, || sweep_once(std::hint::black_box(&mut out)));
    put("executor.sweep_us", sweep_s * 1e6);
    let sweep_gbs = sweep_bytes(w, local, tadj.num_refs()) / sweep_s / 1e9;
    put("executor.sweep_gbs", sweep_gbs);
    put("executor.sweep_frac_of_triad", sweep_gbs / triad_t1);

    let mut team = SweepTeam::<f64>::new(2);
    team.rebuild_splits(&tadj);
    // Everything above ran on one thread, and this class of host takes most
    // of a second of two-thread demand to hand the second core back
    // (`host::guard`): sweep on both lanes for that long before timing them,
    // as a repetition's warm-up run does, and time the lone lane afterwards.
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < 0.6 {
        team.sweep_full(&RelaxationKernel, &tadj, &combined, &mut out);
    }
    let team_s = time_median(sweeps, || {
        team.sweep_full(
            &RelaxationKernel,
            &tadj,
            &combined,
            std::hint::black_box(&mut out),
        );
    });
    let solo_s = time_median(sweeps, || {
        RelaxationKernel.sweep_chunked(&tadj, &combined, std::hint::black_box(&mut out), 0..local);
    });
    put("executor.team2_speedup", solo_s / team_s);
    {
        // Two lanes over a single 512-vertex cache block: the sweep itself
        // is ~1 µs, so this is the dispatch handshake.
        let tiny = stance::prepare_mesh(
            &meshgen::triangulated_grid(32, 16, 0.3, args.seed),
            OrderingMethod::Rcb,
        )
        .0;
        let tpart = BlockPartition::uniform(512, 1);
        let tadj_small = {
            let a = LocalAdjacency::extract(&tiny, &tpart, 0);
            build_schedule_symmetric(&tpart, &a, 0, ScheduleStrategy::Sort2)
                .0
                .translate_adjacency(&a)
        };
        let vals: Vec<f64> = (0..512).map(initial_value).collect();
        let mut o = vec![0.0; 512];
        team.rebuild_splits(&tadj_small);
        let dispatch_s = time_per_call(7, 500, || {
            team.sweep_full(&RelaxationKernel, &tadj_small, &vals, &mut o);
        });
        put("executor.team_dispatch_us", dispatch_s * 1e6);
    }
    drop(team);

    // --- transports and gathers on every backend (two ranks) -----------
    let zero_cost = || ClusterSpec::uniform(P2).with_network(NetworkSpec::zero_cost());
    let sim = max_over_ranks(
        Cluster::new(zero_cost())
            .run(|env| {
                let mut v = transport_probe(env);
                v.extend(gather_probe(env, mesh, false));
                v
            })
            .into_results(),
    );
    let native = max_over_ranks(
        NativeCluster::new(P2)
            .run(|env| {
                let mut v = transport_probe(env);
                v.extend(gather_probe(env, mesh, true));
                v
            })
            .into_results(),
    );
    let tcp = match run_tcp(
        P2,
        "probe_rank",
        &(w.name().to_string(), args.seed, args.quick).to_wire(),
    ) {
        Ok(results) => max_over_ranks(results.iter().map(|b| Vec::<f64>::from_wire(b)).collect()),
        Err(e) => return Json::obj().set("ok", false).set("error", e),
    };
    for (backend, v) in [("sim", &sim), ("native", &native), ("tcp", &tcp)] {
        put(&format!("{backend}.pingpong_us"), v[0]);
        put(&format!("{backend}.stream_mbs"), v[1]);
        put(&format!("{backend}.barrier_us"), v[2]);
        put(&format!("{backend}.allreduce_us"), v[3]);
        put(&format!("executor.gather_us.{backend}"), v[4]);
    }
    put("executor.gather_fused_us.native", native[5]);
    put(
        "native.launch_us",
        1e6 * time_median(21, || {
            NativeCluster::new(P2).run(|env| env.rank());
        }),
    );
    let mut tcp_launch_failed = None;
    put(
        "tcp.launch_ms",
        1e3 * time_median(3, || {
            if let Err(e) = run_tcp(P2, "noop", &[]) {
                tcp_launch_failed = Some(e);
            }
        }),
    );
    if let Some(e) = tcp_launch_failed {
        return Json::obj().set("ok", false).set("error", e);
    }

    // Exact message and byte counts of the workload's own iteration, from
    // the simulator's `EnvStats` (the only backend that counts today).
    {
        let iters = 20u64;
        let counts: Vec<(u64, u64)> = Cluster::new(zero_cost())
            .run(|env| {
                let cfg = StanceConfig::free();
                let sent = |env: &Env| (env.stats().messages_sent, env.stats().bytes_sent);
                let (before, after) = if w == Workload::Cg30k {
                    let mut s = DataflowSession::setup(
                        env,
                        mesh,
                        cg_stage_graph(CG_SHIFT),
                        |_, g| initial_value(g),
                        &cfg,
                    );
                    let before = sent(env);
                    s.run_block(env, iters as usize);
                    (before, sent(env))
                } else {
                    let mut s =
                        AdaptiveSession::setup(env, mesh, RelaxationKernel, initial_value, &cfg);
                    let before = sent(env);
                    s.run_block(env, iters as usize);
                    (before, sent(env))
                };
                (after.0 - before.0, after.1 - before.1)
            })
            .into_results();
        let (msgs, bytes) = counts.iter().fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        put("sim.messages_per_iter", msgs as f64 / iters as f64);
        put("sim.bytes_per_iter", bytes as f64 / iters as f64);
    }

    // --- balance ------------------------------------------------------
    let balancer = BalancerConfig::default();
    put(
        "balance.decide_us",
        1e6 * time_per_call(5, 2000, || {
            std::hint::black_box(decide(&uniform2, &[1.0e-8, 3.0e-8], 100, &balancer));
        }),
    );
    let moves = reps_for(n).clamp(3, 7);
    let redist = max_over_ranks(
        NativeCluster::new(P2)
            .run(|env| {
                let rank = env.rank();
                let (old, new) = (BlockPartition::uniform(n, P2), skewed(n));
                let vals: Vec<f64> = old.interval_of(rank).iter().map(initial_value).collect();
                let adj = LocalAdjacency::extract(mesh, &old, rank);
                let (mut tv, mut ta) = (Vec::new(), Vec::new());
                for _ in 0..moves {
                    env.barrier();
                    let t0 = Instant::now();
                    let moved = redistribute_values(env, &old, &new, &vals);
                    tv.push(t0.elapsed().as_secs_f64());
                    std::hint::black_box(redistribute_values(env, &new, &old, &moved));
                    env.barrier();
                    let t1 = Instant::now();
                    let moved = redistribute_adjacency(env, &old, &new, &adj);
                    ta.push(t1.elapsed().as_secs_f64());
                    std::hint::black_box(moved);
                }
                vec![median(&tv), median(&ta)]
            })
            .into_results(),
    );
    put("balance.redistribute_values_ms", redist[0] * 1e3);
    put("balance.redistribute_adjacency_ms", redist[1] * 1e3);
    // The two fixed-shape probes run on the paper-scale mesh for this seed
    // (a small one under `--quick`), whatever the workload.
    let paper_scale = build_mesh(&Workload::Halo30k.scale(args.quick), args.seed).mesh;
    let (sim_remaps, sim_makespan) = sim_oscillating(&paper_scale);
    put("balance.sim_remaps", sim_remaps as f64);
    put("balance.sim_makespan_vs", sim_makespan);

    // --- core: the session's public calls, native, two ranks -----------
    let core = max_over_ranks(
        NativeCluster::new(P2)
            .run(|env| core_probe(env, w, mesh))
            .into_results(),
    );
    for (name, v) in [
        "core.setup_ms",
        "core.check_us",
        "core.remap_large_ms",
        "core.remap_small_ms",
        "core.checkpoint_ms",
        "core.checkpoint_bytes",
        "core.restore_ms",
        "core.dataflow_pass_us",
        "core.set_local_us",
    ]
    .iter()
    .zip(&core)
    {
        put(name, *v);
    }

    // --- verify ---------------------------------------------------------
    let verify_iters = if args.quick { 100 } else { 300 };
    put(
        "verify.overhead_frac",
        verify_overhead(&paper_scale, verify_iters),
    );

    let mut doc = Json::obj()
        .set("ok", true)
        .set("working_set_bytes", working_set)
        .set("llc_bytes", host::llc_bytes());
    for (name, v) in m {
        doc = doc.set(&name, v);
    }
    doc
}

/// `[setup_ms, check_us, remap_large_ms, remap_small_ms, checkpoint_ms,
/// checkpoint_bytes, restore_ms, dataflow_pass_us, set_local_us]` on one
/// native rank of two.
fn core_probe<C: Comm>(env: &mut C, w: Workload, mesh: &Graph) -> Vec<f64> {
    let n = mesh.num_vertices();
    let cfg = config(w).with_team(1);
    let few = reps_for(n).clamp(3, 5);
    let timed = |env: &mut C, f: &mut dyn FnMut(&mut C)| {
        env.barrier();
        let t0 = Instant::now();
        f(env);
        t0.elapsed().as_secs_f64()
    };

    let setups: Vec<f64> = (0..few)
        .map(|_| {
            timed(env, &mut |env| {
                std::hint::black_box(AdaptiveSession::setup(
                    env,
                    mesh,
                    RelaxationKernel,
                    initial_value,
                    &cfg,
                ));
            })
        })
        .collect();
    let mut s = AdaptiveSession::setup(env, mesh, RelaxationKernel, initial_value, &cfg);
    s.run_block(env, 10);

    let checks: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let (remapped, _, _) = s.check_and_rebalance(env, 1000);
            assert!(!remapped, "margin 1e12 must decide Keep");
            t0.elapsed().as_secs_f64()
        })
        .collect();

    let uniform = BlockPartition::uniform(n, P2);
    let mut remap_times = |target: &BlockPartition| -> f64 {
        let mut t = Vec::new();
        for _ in 0..few {
            t.push(timed(env, &mut |env| {
                s.remap_to(env, target.clone(), &mut [])
            }));
            t.push(timed(env, &mut |env| {
                s.remap_to(env, uniform.clone(), &mut [])
            }));
        }
        median(&t)
    };
    let remap_large = remap_times(&skewed(n));
    let remap_small = remap_times(&mild(n));

    let mut ckpt = s.checkpoint(env, &[]);
    let ckpts: Vec<f64> = (0..few)
        .map(|_| timed(env, &mut |env| ckpt = s.checkpoint(env, &[])))
        .collect();
    let ckpt_bytes = ckpt.to_bytes().len();
    let restores: Vec<f64> = (0..few)
        .map(|_| {
            timed(env, &mut |env| {
                std::hint::black_box(AdaptiveSession::restore(
                    env,
                    mesh,
                    RelaxationKernel,
                    &ckpt,
                    &cfg,
                ));
            })
        })
        .collect();
    drop(s);

    let mut d = DataflowSession::setup(
        env,
        mesh,
        cg_stage_graph(CG_SHIFT),
        |_, g| initial_value(g),
        &cfg,
    );
    d.run_block(env, 3);
    let rounds = reps_for(n).max(20);
    env.barrier();
    let t0 = Instant::now();
    d.run_block(env, rounds);
    let pass_s = t0.elapsed().as_secs_f64() / rounds as f64;
    let buf: Vec<f64> = d.local("p").to_vec();
    let set_local_s = time_per_call(5, rounds, || d.set_local("p", &buf));

    vec![
        median(&setups) * 1e3,
        median(&checks) * 1e6,
        remap_large * 1e3,
        remap_small * 1e3,
        median(&ckpts) * 1e3,
        ckpt_bytes as f64,
        median(&restores) * 1e3,
        pass_s * 1e6,
        set_local_s * 1e6,
    ]
}

/// Decision-quality guard: a deterministic simulator run of the paper's
/// adaptive loop — controller **on**, paper cost models, point-to-point
/// Ethernet — under a load on rank 0 that oscillates between free and
/// one-third availability. Returns `(remaps, makespan in virtual
/// seconds)`; both must repeat exactly for a given seed.
fn sim_oscillating(mesh: &Graph) -> (usize, f64) {
    let iters = 300;
    // Phase length: a tenth of the balanced two-rank run, so the load
    // flips about ten times and the controller must keep re-deciding.
    let cfg = StanceConfig::default();
    let per_iter = cfg
        .compute_cost
        .sweep_work(mesh.num_vertices(), 2 * mesh.num_edges())
        / 2.0;
    let phase = per_iter * iters as f64 / 10.0;
    let phases = (0..40)
        .map(|k| LoadPhase {
            start: k as f64 * phase,
            available: if k % 2 == 0 { 1.0 } else { 1.0 / 3.0 },
        })
        .collect();
    let spec = ClusterSpec::paper_cluster(P2).with_load(0, LoadTimeline::from_phases(phases));
    let report = Cluster::new(spec).run(|env| {
        let mut s = AdaptiveSession::setup(env, mesh, RelaxationKernel, initial_value, &cfg);
        s.run_adaptive(env, iters).remaps
    });
    debug_assert!(report.ranks[0].clock >= VTime::ZERO);
    (report.ranks[0].result, report.makespan())
}

/// Cost of `with_verification(true)` on a `halo-30k`-shaped native run,
/// as a share of the same run with it off (medians of alternating runs).
fn verify_overhead(mesh: &Graph, iters: usize) -> f64 {
    let run = |verify: bool| {
        let cfg = config(Workload::Halo30k).with_verification(verify);
        NativeCluster::new(P2)
            .run(|env| {
                let mut s =
                    AdaptiveSession::setup(env, mesh, RelaxationKernel, initial_value, &cfg);
                env.barrier();
                let t0 = Instant::now();
                s.run_adaptive(env, iters);
                env.barrier();
                t0.elapsed().as_secs_f64()
            })
            .into_results()
            .into_iter()
            .fold(0.0, f64::max)
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        off.push(run(false));
        on.push(run(true));
    }
    median(&on) / median(&off) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_counts_shrink_with_the_mesh() {
        assert_eq!(reps_for(1_000_000), 3);
        assert_eq!(reps_for(30_000), 100);
        assert_eq!(reps_for(100), 200);
        assert_eq!(reps_for(0), 200);
    }

    #[test]
    fn max_over_ranks_is_componentwise() {
        assert_eq!(
            max_over_ranks(vec![vec![1.0, 5.0], vec![2.0, 3.0]]),
            vec![2.0, 5.0]
        );
    }

    #[test]
    fn transport_probe_reports_four_positive_numbers_on_native() {
        let v = max_over_ranks(NativeCluster::new(P2).run(transport_probe).into_results());
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|x| *x > 0.0 && x.is_finite()), "{v:?}");
    }

    #[test]
    fn simulator_guard_repeats_exactly() {
        let mesh = build_mesh(&Workload::Halo30k.scale(true), 3).mesh;
        assert_eq!(sim_oscillating(&mesh), sim_oscillating(&mesh));
    }
}
