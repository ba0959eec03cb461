//! One repetition: the body of a fresh child process.
//!
//! In order: build the mesh from the seed → host-availability guard →
//! launch the ranks (threads, or TCP rank processes of this same binary) →
//! collective setup → an untimed warm-up run → the **timed runs**, back to
//! back, each between two barriers and each from the initial values → read
//! `VmHWM` → benchmark-owned serial reference, timed → verify → one JSON
//! line on stdout. The parent (`main.rs`) only ever reads that line.
//!
//! The guard sits here rather than in the parent because of what it has
//! to detect: this host parks the second vCPU while only one thread is
//! busy (the previous repetition's serial reference, this one's mesh
//! build) and hands it back only after most of a second of two-thread
//! demand. A probe taken in the parent, before the child's single-threaded
//! set-up, would say nothing about the moment the ranks launch.

use std::time::{Duration, Instant};

use stance::prelude::*;
use stance::scenarios::initial_value;
use stance_native::NativeCluster;
use stance_tcp::codec::Wire;
use stance_tcp::{RankOutcome, ScenarioRegistry, TcpCluster, TcpComm};

use crate::host::{self, vm_hwm_kb};
use crate::json::Json;
use crate::laps;
use crate::stats;
use crate::trace::{self, SpanKind};
use crate::workloads::{
    assemble, build_mesh, cycle_partition, digest, run_rank, serial_pcg, serial_relaxation,
    Backend, RankOut, Workload, BLOCK, CG_SHIFT, CG_VERIFY_TOL,
};

/// The scenarios this binary runs when `TcpCluster` spawns it as a rank.
pub const SCENARIOS: ScenarioRegistry = &[
    ("bench_rank", tcp_bench_rank),
    ("probe_rank", crate::probes::tcp_probe_rank),
    ("noop", tcp_noop),
];

/// What a repetition is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RepArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed the inputs are generated from.
    pub seed: u64,
    /// `--quick` scale.
    pub quick: bool,
    /// Record spans around the session calls.
    pub traced: bool,
}

fn tcp_noop(_: &mut TcpComm, _: &[u8]) -> Vec<u8> {
    Vec::new()
}

/// TCP rank body: regenerate the inputs from the seed (each rank process
/// builds its own copy, in parallel with its peers) and run the shared
/// per-rank driver.
fn tcp_bench_rank(comm: &mut TcpComm, args: &[u8]) -> Vec<u8> {
    let (name, seed, flags) = <(String, u64, u8)>::from_wire(args);
    let w = Workload::from_name(&name).expect("the coordinator sends a known workload");
    let scale = w.scale(flags & 1 != 0);
    let built = build_mesh(&scale, seed);
    run_rank(comm, w, &scale, &built.mesh, flags & 2 != 0).to_bytes()
}

/// Runs `scenario` on a fresh TCP cluster of this same binary and returns
/// every rank's result bytes, or a description of the rank that failed.
pub fn run_tcp(ranks: usize, scenario: &str, args: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let report = TcpCluster::new(ranks, exe)
        .with_run_timeout(Duration::from_secs(60))
        .run_scenario(scenario, args);
    report
        .outcomes()
        .iter()
        .enumerate()
        .map(|(rank, outcome)| match outcome {
            RankOutcome::Completed(bytes) => Ok(bytes.clone()),
            other => Err(format!("tcp rank {rank} did not complete: {other:?}")),
        })
        .collect()
}

fn launch(args: &RepArgs, mesh: &Graph) -> Result<Vec<RankOut>, String> {
    let w = args.workload;
    let scale = w.scale(args.quick);
    match w.backend() {
        Backend::Native => Ok(NativeCluster::new(w.ranks())
            .run(|env| run_rank(env, w, &scale, mesh, args.traced))
            .into_results()),
        Backend::Tcp => {
            let flags = u8::from(args.quick) | (u8::from(args.traced) << 1);
            let results = run_tcp(
                w.ranks(),
                "bench_rank",
                &(w.name().to_string(), args.seed, flags).to_wire(),
            )?;
            Ok(results
                .iter()
                .enumerate()
                .map(|(rank, bytes)| RankOut::from_bytes(rank, bytes))
                .collect())
        }
    }
}

/// Outcome of checking a repetition's outputs against the serial
/// reference.
struct Verdict {
    serial_s: f64,
    /// `None` when every check passed.
    failure: Option<String>,
    /// PCG iterations of the reference (0 for relaxation).
    reference_cg_iterations: u64,
    /// Largest absolute PCG error over `‖u‖∞` (0 for relaxation, which is
    /// compared bitwise).
    rel_err: f64,
}

fn first_bitwise_mismatch(got: &[f64], want: &[f64]) -> Option<usize> {
    got.iter()
        .zip(want)
        .position(|(a, b)| a.to_bits() != b.to_bits())
}

/// Runs (and times) the serial reference and verifies the ranks' results.
fn verify(args: &RepArgs, mesh: &Graph, outs: &[RankOut]) -> Verdict {
    let w = args.workload;
    let scale = w.scale(args.quick);
    let n = mesh.num_vertices();
    let got = assemble(n, outs);
    let mut failure = None;
    let mut fail = |msg: String| {
        failure.get_or_insert(msg);
    };
    // Every timed run starts from the initial values, so each must end
    // exactly where the last one ended — the state checked below.
    for (rank, o) in outs.iter().enumerate() {
        let last = digest(o.start, &o.values);
        if o.runs_s.len() != scale.rounds || o.finals != vec![last; scale.rounds] {
            fail(format!(
                "rank {rank}: its {} timed runs (of {}) did not all end in the same state",
                o.runs_s.len(),
                scale.rounds
            ));
        }
    }
    let (serial_s, reference_cg_iterations, rel_err) = if w == Workload::Cg30k {
        let t0 = Instant::now();
        let reference = serial_pcg(mesh, scale.count, CG_SHIFT, w.ranks());
        let serial_s = t0.elapsed().as_secs_f64();
        let norm = reference.u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = got
            .iter()
            .zip(&reference.u)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        // A NaN anywhere must fail, so "not within tolerance" is spelled
        // through `partial_cmp` rather than `err > tol`.
        let within = matches!(
            err.partial_cmp(&(CG_VERIFY_TOL * norm)),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        );
        if !within {
            fail(format!(
                "PCG error {err:e} exceeds {CG_VERIFY_TOL:e}·‖u‖∞ = {:e}",
                CG_VERIFY_TOL * norm
            ));
        }
        (
            serial_s,
            reference.iterations * scale.rounds as u64,
            err / norm,
        )
    } else {
        // The reference advances in the run's own blocks. `churn-200k`
        // remaps after each one: the ranks' post-remap digests must equal
        // the digests of the reference state over the partition they
        // remapped *to*. Only the sweeps are timed — the digests are the
        // verifier's.
        let scripted = w == Workload::Churn200k;
        let (blocks, per_block) = if scripted {
            (scale.count, BLOCK)
        } else {
            (1, scale.count)
        };
        let mut y: Vec<f64> = (0..n).map(initial_value).collect();
        let mut scratch = Vec::new();
        let mut serial_s = 0.0;
        for b in 0..blocks {
            let t0 = Instant::now();
            serial_relaxation(mesh, &mut y, &mut scratch, per_block);
            serial_s += t0.elapsed().as_secs_f64();
            if scripted {
                let part = cycle_partition(n, b + 1);
                for (rank, o) in outs.iter().enumerate() {
                    let iv = part.interval_of(rank);
                    let want = digest(iv.start, &y[iv.start..iv.end]);
                    for round in 0..scale.rounds {
                        if o.digests.get(round * blocks + b) != Some(&want) {
                            fail(format!(
                                "rank {rank} diverged from the reference after remap {b} of run {round}"
                            ));
                        }
                    }
                }
            }
        }
        if let Some(i) = first_bitwise_mismatch(&got, &y) {
            fail(format!(
                "vertex {i}: got {:e}, reference {:e}",
                got[i], y[i]
            ));
        }
        // Under the Keep-only margin the script's remaps are the only ones.
        let rounds = scale.rounds as u64;
        let (want_iterations, want_remaps) = (
            rounds * (blocks * per_block) as u64,
            if scripted { rounds * blocks as u64 } else { 0 },
        );
        for (rank, o) in outs.iter().enumerate() {
            if (o.iterations, o.remaps) != (want_iterations, want_remaps) {
                fail(format!(
                    "rank {rank} ran {} iterations with {} remaps; expected {want_iterations} and {want_remaps}",
                    o.iterations, o.remaps
                ));
            }
        }
        (serial_s, 0, 0.0)
    };
    Verdict {
        serial_s,
        failure,
        reference_cg_iterations,
        rel_err,
    }
}

/// Per-kind self times and the block/check/remap/checkpoint durations of
/// rank 0's spans, for the parent's ledger. Rank 0's spans tile the wall
/// clock (every phase is a collective, so all ranks leave it together).
fn span_summary(outs: &[RankOut]) -> Json {
    let spans = &outs[0].spans;
    let mut o = Json::obj();
    for (kind, ns) in trace::self_times_ns(spans) {
        o = o.set(&format!("self_s.{}", kind.name()), ns as f64 * 1e-9);
    }
    let ms = |kind| -> Vec<f64> {
        // Pooled over ranks: the slower rank sets every block.
        outs.iter()
            .flat_map(|r| trace::durations_ns(&r.spans, kind))
            .map(|ns| ns as f64 * 1e-6)
            .collect()
    };
    let unit = if spans.iter().any(|s| s.kind == SpanKind::Pass) {
        SpanKind::Pass
    } else {
        SpanKind::Block
    };
    let blocks = stats::sorted(&ms(unit));
    o = o
        .set("block_ms.p50", stats::percentile(&blocks, 50.0))
        .set("block_ms.p99", stats::percentile(&blocks, 99.0))
        .set("block_samples", blocks.len());
    for (key, kind) in [
        ("check_ms", SpanKind::Check),
        ("remap_ms", SpanKind::Remap),
        ("checkpoint_ms", SpanKind::Checkpoint),
        ("collective_ms", SpanKind::Collective),
    ] {
        let d = ms(kind);
        if !d.is_empty() {
            o = o
                .set(&format!("{key}.median"), stats::median(&d))
                .set(&format!("{key}.count"), d.len() / outs.len());
        }
    }
    o
}

/// Runs one repetition and returns its report. `started` is the child's
/// process-start instant; `trace_path` is where a traced repetition writes
/// its Chrome trace.
pub fn run(args: &RepArgs, started: Instant, trace_path: Option<&std::path::Path>) -> Json {
    let w = args.workload;
    let scale = w.scale(args.quick);
    let built = build_mesh(&scale, args.seed);
    let guard = host::guard();
    let outs = match launch(args, &built.mesh) {
        Ok(outs) => outs,
        Err(e) => return Json::obj().set("ok", false).set("error", e),
    };
    // "Results collected": everything before this instant that was not the
    // measured phase — warm-up and timed runs — (or the guard, which is the
    // harness's) is set-up: mesh generation, ordering, launch, rendezvous,
    // session setup, teardown.
    let lifetime_s = started.elapsed().as_secs_f64() - guard.seconds;
    let measured_s = outs.iter().map(|o| o.measured_s).fold(0.0, f64::max);
    // A run — and a lap of it — ends when its slowest rank gets there.
    let runs_s: Vec<f64> = (0..scale.rounds)
        .map(|k| {
            outs.iter()
                .filter_map(|o| o.runs_s.get(k))
                .fold(0.0, |m: f64, v| m.max(*v))
        })
        .collect();
    let rank_laps: Vec<&[_]> = outs.iter().map(|o| o.laps.as_slice()).collect();
    let Some(lap_kinds) = laps::slowest_rank(&rank_laps) else {
        return Json::obj()
            .set("ok", false)
            .set("error", "the ranks disagree about the laps of a run");
    };
    let rss_kb = match w.backend() {
        // One process holds every native rank (and the mesh they share).
        Backend::Native => vm_hwm_kb(),
        Backend::Tcp => outs.iter().map(|o| o.hwm_kb).sum(),
    };

    let verdict = verify(args, &built.mesh, &outs);
    let mut report = Json::obj()
        .set("ok", verdict.failure.is_none())
        .set("workload", w.name())
        .set(
            "run_s",
            runs_s.iter().map(|v| Json::Num(*v)).collect::<Vec<_>>(),
        )
        .set("laps", laps::to_json(&lap_kinds))
        .set("setup_s", lifetime_s - measured_s)
        .set("serial_s", verdict.serial_s)
        .set(
            "speedup_vs_serial",
            verdict.serial_s / stats::median(&runs_s),
        )
        .set("rounds", scale.rounds)
        .set("peak_rss_mb", rss_kb as f64 / 1024.0)
        .set("vertices", built.mesh.num_vertices())
        .set("edges", built.mesh.num_edges())
        .set("meshgen_ms", built.meshgen_s * 1e3)
        .set("order_rcb_ms", built.order_s * 1e3)
        .set(
            "session_setup_ms",
            outs.iter().map(|o| o.session_setup_s).fold(0.0, f64::max) * 1e3,
        )
        .set("iterations", outs[0].iterations)
        .set("checks", outs[0].checks)
        .set("remaps", outs[0].remaps)
        .set("checkpoints", outs[0].checkpoints)
        .set("checkpoint_bytes", outs[0].checkpoint_bytes)
        .set("cg_iterations", outs[0].cg_iterations)
        .set("cg_iterations_reference", verdict.reference_cg_iterations)
        .set("cg_rel_err", verdict.rel_err)
        .set("spin2_ratio", guard.ratio)
        .set("guard_retries", guard.retries)
        .set("guard_s", guard.seconds)
        .set("disturbed", guard.disturbed());
    if let Some(msg) = verdict.failure {
        report = report.set("error", msg);
    }
    if args.traced {
        report = report.set("spans", span_summary(&outs));
        if let Some(path) = trace_path {
            let ranks: Vec<_> = outs.iter().map(|o| o.spans.clone()).collect();
            let doc = trace::chrome_trace(w.name(), &ranks).render();
            if let Err(e) = std::fs::write(path, doc) {
                report = report.set("trace_error", format!("{}: {e}", path.display()));
            }
        }
    }
    report
}
