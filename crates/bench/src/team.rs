//! Worker-team micro-harness: the measurements behind `bench_team` and
//! the `results/BENCH_team.json` perf-trajectory entry.
//!
//! Two questions, answered in one file:
//!
//! 1. **Team scaling.** With a rank's interior sweep split across a
//!    persistent [`SweepTeam`](stance::executor::SweepTeam) of T lanes,
//!    what does T buy in vertex updates per second? The workload is a
//!    deliberately **interior-heavy** paper-scale mesh — a deep
//!    triangulated grid whose 1-D block cuts sever few edges — because
//!    teams parallelize the sweep, not the exchange: on the
//!    boundary-heavy overlap mesh the gather dominates and a team has
//!    little to split.
//! 2. **Chunked vs scalar sweeps.** What did rewriting the built-in
//!    kernels as cache-blocked, bounds-check-free loops (autovectorizable
//!    by rustc) buy over the frozen per-vertex formulation? Measured as a
//!    single-rank full-sweep ratio on the same host.
//!
//! Methodology, recorded in the JSON: every native cell reports
//! per-iteration wall seconds of the slowest rank (median over
//! order-balanced samples, warm-up excluded) and the derived vertex
//! updates per second. **Teams need real cores**: on a 1-vCPU host the
//! lanes time-slice one CPU and the curve is flat by construction, so
//! hosts with fewer than 4 hardware threads report `ratio_vs_team_1`
//! (informational) instead of `speedup_vs_team_1` (CI-gated) — the same
//! honesty convention as `BENCH_overlap.json`. The `modelled_team_*`
//! entries are the deterministic half: virtual time on the simulator's
//! paper cluster with the team-aware cost model, bit-reproducible on any
//! host, so the regression gate always has cells to hold.

use std::time::Instant;

use stance::executor::{ComputeCostModel, Kernel, LoopRunner, RelaxationKernel};
use stance::inspector::{
    build_schedule_symmetric, LocalAdjacency, ScheduleStrategy, TranslatedAdjacency,
};
use stance::locality::meshgen;
use stance::prelude::*;
use stance_native::NativeCluster;

/// The interior-heavy paper-scale bench mesh: 30k vertices as a deep
/// 150-wide grid, so a 1-D block cut severs ~150 edges and nearly every
/// vertex of every rank is interior — the regime where splitting the
/// sweep across team lanes is the whole story.
pub fn team_mesh() -> Graph {
    meshgen::triangulated_grid(150, 200, 0.3, 17)
}

/// Team sizes the trajectory entry sweeps.
pub const TEAM_SIZES: [usize; 4] = [1, 2, 4, 8];

/// Rank counts the trajectory entry sweeps (ranks × teams is the
/// hierarchy: address spaces outside, lanes inside).
pub const RANK_COUNTS: [usize; 2] = [1, 2];

/// Runs `iters` gather + relaxation-sweep iterations over `mesh`, block
/// partitioned across `ranks` native ranks each driving a `team`-lane
/// worker team, and returns wall-clock seconds **per iteration** (slowest
/// rank, setup and warm-up excluded). Overlap is on: the split-phase
/// gather is the production configuration and the one whose interior
/// phase the team actually splits.
pub fn time_team_iters(mesh: &Graph, ranks: usize, team: usize, iters: usize) -> f64 {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, ranks);
    let report = NativeCluster::new(ranks).run(|comm| {
        let rank = comm.rank();
        let adj = LocalAdjacency::extract(mesh, &part, rank);
        let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
        let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero())
            .with_overlap(true)
            .with_team(team);
        let iv = part.interval_of(rank);
        let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());

        // Warm-up: mailboxes, recycled buffers, team staging and the
        // parked lanes all reach steady state.
        runner.run(comm, &RelaxationKernel, &mut values, 3);
        comm.barrier();
        let t0 = Instant::now();
        runner.run(comm, &RelaxationKernel, &mut values, iters);
        let elapsed = t0.elapsed().as_secs_f64();
        comm.barrier();
        elapsed / iters as f64
    });
    report.into_results().into_iter().fold(0.0, f64::max)
}

/// One virtual-time iteration (seconds) on the **simulator's** paper
/// cluster with the team-aware cost model: SUN4-class compute divided by
/// the configured team speedup for sweep work (packing stays serial, so
/// the modelled curve bends exactly where a real team's would).
/// Deterministic — depends only on the cost model, never on the host.
pub fn modelled_team_secs_per_iter(mesh: &Graph, ranks: usize, team: usize, iters: usize) -> f64 {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, ranks);
    let spec = ClusterSpec::paper_cluster(ranks);
    let report = stance::sim::Cluster::new(spec).run(|env| {
        let rank = env.rank();
        let adj = LocalAdjacency::extract(mesh, &part, rank);
        let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
        let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::sun4())
            .with_overlap(false)
            .with_team(team);
        let iv = part.interval_of(rank);
        let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());
        runner.run(env, &RelaxationKernel, &mut values, iters);
        env.now().as_secs()
    });
    report.into_results().into_iter().fold(0.0, f64::max) / iters as f64
}

/// The frozen pre-blocking relaxation formulation — per-vertex
/// `neighbors_of` indexing, two row-pointer loads and a bounds check per
/// vertex — kept verbatim as the comparison point for the cache-blocked
/// rewrite. Bitwise identical output by construction (same accumulation
/// order), different machine code.
#[derive(Clone, Copy)]
pub struct ScalarRelaxation;

impl Kernel<f64> for ScalarRelaxation {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
        for (l, o) in out.iter_mut().enumerate() {
            let nbrs = tadj.neighbors_of(l);
            if nbrs.is_empty() {
                *o = combined[l];
                continue;
            }
            let mut t = 0.0;
            for &s in nbrs {
                t += combined[s as usize];
            }
            *o = t / nbrs.len() as f64;
        }
    }
}

/// Median single-rank full-sweep seconds for `kernel` over `mesh`
/// (`reps` samples, one warm-up sweep excluded). Single-threaded and
/// communication-free: this isolates the sweep loop's machine code.
pub fn time_full_sweeps<K: Kernel<f64>>(mesh: &Graph, kernel: &K, reps: usize) -> f64 {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, 1);
    let adj = LocalAdjacency::extract(mesh, &part, 0);
    let (sched, _) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort2);
    let tadj = sched.translate_adjacency(&adj);
    let combined: Vec<f64> = (0..n).map(|g| (g as f64).sin()).collect();
    let mut out = vec![0.0; n];
    kernel.sweep(&tadj, &combined, &mut out);
    let mut samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            kernel.sweep(&tadj, &combined, &mut out);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

/// Runs the team-scaling sweep across [`RANK_COUNTS`] × [`TEAM_SIZES`]
/// plus the chunked-vs-scalar comparison and renders the
/// `BENCH_team.json` perf-trajectory entry.
///
/// Sampling is **order-balanced** within each rank count: each repetition
/// times every team size back to back, alternating ascending/descending
/// order, and medians are taken per team size — so host-performance drift
/// cannot masquerade as a team-size difference.
pub fn report_json() -> String {
    let reps = crate::sample_count().clamp(3, 9);
    let iters = 20;
    let mesh = team_mesh();
    let n = mesh.num_vertices();

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut lines = vec![
        "{".to_string(),
        "  \"bench\": \"team\",".to_string(),
        format!(
            "  \"workload\": {{ \"vertices\": {n}, \"mesh\": \"150x200 grid (interior-heavy)\", \"kernel\": \"relaxation\", \"iters_per_sample\": {iters}, \"samples\": {reps}, \"host_threads\": {host_threads} }},"
        ),
        "  \"methodology\": \"native backend, split-phase gather; per-iteration wall seconds = slowest rank, median over order-balanced samples (each repetition times every team size back to back, alternating order), warm-up excluded; vertex_updates_per_sec = vertices / secs_per_iter; teams need real cores — hosts with < 4 hardware threads report 'ratio_vs_team_1' (informational) instead of 'speedup_vs_team_1' (CI-gated), same convention as BENCH_overlap; 'chunked_vs_scalar' compares the cache-blocked built-in sweep against the frozen per-vertex formulation single-threaded on this host ('ratio', informational); 'modelled_team_*' entries are the deterministic simulator (SUN4 compute, team-aware cost model), host-independent and CI-gated\",".to_string(),
    ];
    let mut entries: Vec<String> = Vec::new();
    for &ranks in &RANK_COUNTS {
        let mut samples: Vec<Vec<f64>> = vec![Vec::with_capacity(reps); TEAM_SIZES.len()];
        for rep in 0..reps {
            let order: Vec<usize> = if rep % 2 == 0 {
                (0..TEAM_SIZES.len()).collect()
            } else {
                (0..TEAM_SIZES.len()).rev().collect()
            };
            for ti in order {
                samples[ti].push(time_team_iters(&mesh, ranks, TEAM_SIZES[ti], iters));
            }
        }
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
            v[v.len() / 2]
        };
        let secs: Vec<f64> = samples.into_iter().map(median).collect();
        for (ti, &team) in TEAM_SIZES.iter().enumerate() {
            let updates = n as f64 / secs[ti];
            let mut cell = format!(
                "  \"ranks_{ranks}_team_{team}\": {{ \"secs_per_iter\": {:.3e}, \"vertex_updates_per_sec\": {:.3e}",
                secs[ti], updates
            );
            if team > 1 {
                let key = if host_threads >= 4 {
                    "speedup_vs_team_1"
                } else {
                    "ratio_vs_team_1"
                };
                cell.push_str(&format!(", \"{key}\": {:.2}", secs[0] / secs[ti]));
            }
            cell.push_str(" }");
            entries.push(cell);
        }
    }

    // Chunked vs scalar: same sweep, same bits, different machine code.
    // Order-balanced like everything else in this crate.
    let mut scalar = Vec::with_capacity(reps);
    let mut chunked = Vec::with_capacity(reps);
    for rep in 0..reps {
        if rep % 2 == 0 {
            scalar.push(time_full_sweeps(&mesh, &ScalarRelaxation, 3));
            chunked.push(time_full_sweeps(&mesh, &RelaxationKernel, 3));
        } else {
            chunked.push(time_full_sweeps(&mesh, &RelaxationKernel, 3));
            scalar.push(time_full_sweeps(&mesh, &ScalarRelaxation, 3));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let (scalar, chunked) = (median(scalar), median(chunked));
    entries.push(format!(
        "  \"chunked_vs_scalar\": {{ \"scalar_secs_per_sweep\": {:.3e}, \"chunked_secs_per_sweep\": {:.3e}, \"ratio\": {:.2} }}",
        scalar,
        chunked,
        scalar / chunked
    ));

    // The deterministic, host-independent half: modelled virtual time with
    // the team-aware cost model. These cells carry "speedup" and hold the
    // CI regression gate on any host, including single-vCPU containers.
    let base = modelled_team_secs_per_iter(&mesh, 2, 1, 5);
    for team in [2usize, 4] {
        let teamed = modelled_team_secs_per_iter(&mesh, 2, team, 5);
        entries.push(format!(
            "  \"modelled_team_{team}\": {{ \"modelled_secs_team_1\": {:.3e}, \"modelled_secs\": {:.3e}, \"speedup\": {:.2} }}",
            base,
            teamed,
            base / teamed
        ));
    }

    lines.push(entries.join(",\n"));
    lines.push("}".to_string());
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance::executor::sequential_relaxation;

    /// The bench workload itself must be correct: teamed runs at every
    /// bench team size match the sequential reference bitwise (a
    /// mis-timed bench is noise; a wrong one is a lie).
    #[test]
    fn bench_workload_matches_sequential_at_every_team_size() {
        let mesh = meshgen::triangulated_grid(30, 8, 0.3, 17);
        let n = mesh.num_vertices();
        let iters = 7;
        let mut expected: Vec<f64> = (0..n).map(|g| (g as f64).sin()).collect();
        sequential_relaxation(&mesh, &mut expected, iters);

        for team in TEAM_SIZES {
            let part = BlockPartition::uniform(n, 2);
            let report = NativeCluster::new(2).run(|comm| {
                let rank = comm.rank();
                let adj = LocalAdjacency::extract(&mesh, &part, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero())
                    .with_overlap(true)
                    .with_team(team);
                let iv = part.interval_of(rank);
                let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());
                runner.run(comm, &RelaxationKernel, &mut values, iters);
                values.local().to_vec()
            });
            let got = stance::reassemble(&part, report.into_results());
            assert_eq!(got, expected, "team = {team} diverged");
        }
    }

    /// The scalar comparison kernel is the same function, bitwise — the
    /// ratio it anchors compares machine code, not arithmetic.
    #[test]
    fn scalar_reference_matches_chunked_bitwise() {
        let mesh = meshgen::triangulated_grid(23, 9, 0.3, 17);
        let n = mesh.num_vertices();
        let part = BlockPartition::uniform(n, 1);
        let adj = LocalAdjacency::extract(&mesh, &part, 0);
        let (sched, _) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort2);
        let tadj = sched.translate_adjacency(&adj);
        let combined: Vec<f64> = (0..n).map(|g| (g as f64 * 0.37).cos()).collect();
        let mut scalar = vec![0.0; n];
        let mut chunked = vec![0.0; n];
        ScalarRelaxation.sweep(&tadj, &combined, &mut scalar);
        Kernel::<f64>::sweep(&RelaxationKernel, &tadj, &combined, &mut chunked);
        for (i, (a, b)) in scalar.iter().zip(&chunked).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "vertex {i}");
        }
    }

    /// The bench mesh is actually interior-heavy at the bench rank
    /// counts — otherwise team scaling measures the wrong regime.
    #[test]
    fn team_mesh_is_interior_heavy() {
        let mesh = team_mesh();
        let part = BlockPartition::uniform(mesh.num_vertices(), 2);
        let adj = LocalAdjacency::extract(&mesh, &part, 1);
        let (sched, _) = build_schedule_symmetric(&part, &adj, 1, ScheduleStrategy::Sort2);
        let tadj = sched.translate_adjacency(&adj);
        let interior_fraction = tadj.num_interior() as f64 / tadj.len() as f64;
        assert!(
            interior_fraction > 0.9,
            "bench mesh is not interior-heavy: {interior_fraction:.2}"
        );
    }

    /// The deterministic half of the story: the modelled team speedup is
    /// real (> 1 at T = 4), bounded by the configured efficiency, and
    /// exactly reproducible run to run.
    #[test]
    fn modelled_team_speedup_wins_and_is_deterministic() {
        let mesh = meshgen::triangulated_grid(60, 40, 0.3, 17);
        let base = modelled_team_secs_per_iter(&mesh, 2, 1, 3);
        let teamed = modelled_team_secs_per_iter(&mesh, 2, 4, 3);
        let speedup = base / teamed;
        let cap = ComputeCostModel::sun4().with_team(4).team_speedup();
        assert!(
            speedup > 1.0 && speedup <= cap + 1e-9,
            "modelled team-4 speedup {speedup} outside (1, {cap}]"
        );
        assert_eq!(
            teamed,
            modelled_team_secs_per_iter(&mesh, 2, 4, 3),
            "modelled timing must be deterministic"
        );
    }

    #[test]
    fn timing_is_positive() {
        let mesh = meshgen::triangulated_grid(30, 6, 0.2, 1);
        assert!(time_team_iters(&mesh, 2, 2, 2) > 0.0);
        assert!(time_full_sweeps(&mesh, &RelaxationKernel, 2) > 0.0);
    }
}
