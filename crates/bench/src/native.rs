//! Native-backend micro-harness: the measurements behind `bench_native`
//! and the `results/BENCH_native.json` perf-trajectory entry.
//!
//! This is the perf trajectory's first **real-hardware** datapoint: where
//! `BENCH_transport.json` times transport code paths inside the
//! simulator's threads, this harness runs the full executor iteration —
//! ghost gather + relaxation sweep — on the native thread-pool backend
//! (`stance-native`), with real ranks on real OS threads and nothing but
//! the wall clock. The workload is a paper-scale mesh (≈30k vertices,
//! the size behind Tables 4–5) block-partitioned across 1/2/4/8 threads.
//!
//! Throughput is reported as vertex-updates per second (owned vertices ×
//! iterations / wall seconds, cluster-wide), plus the speedup over the
//! single-thread run. On a many-core host the speedup curve is the
//! backend's scaling story; on a constrained host (CI runners are often
//! 1–2 vCPUs — the JSON records `host_threads`) the absolute
//! single-thread throughput is the comparable number.

use std::time::Instant;

use stance::executor::{ComputeCostModel, LoopRunner, RelaxationKernel};
use stance::inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
use stance::locality::meshgen;
use stance::prelude::*;
use stance_native::NativeCluster;

/// The paper-scale bench mesh: a noisy triangulated grid of ≈30k vertices
/// in row-major (naturally local) order.
pub fn bench_mesh() -> Graph {
    meshgen::triangulated_grid(200, 150, 0.3, 11)
}

/// Thread counts the native trajectory entry sweeps.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `iters` gather + relaxation-sweep iterations over `mesh`, block
/// partitioned across `threads` native ranks, and returns the measured
/// wall-clock seconds **per iteration** (slowest rank, excluding setup and
/// warm-up).
pub fn time_sweep_gather(mesh: &Graph, threads: usize, iters: usize) -> f64 {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, threads);
    let report = NativeCluster::new(threads).run(|comm| {
        let rank = comm.rank();
        let adj = LocalAdjacency::extract(mesh, &part, rank);
        let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
        let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
        let iv = part.interval_of(rank);
        let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());

        // Warm-up: mailbox deques and recycled buffers reach steady state.
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

/// Runs the native sweep+gather measurement across [`THREAD_COUNTS`] and
/// renders the `BENCH_native.json` perf-trajectory entry.
pub fn report_json() -> String {
    let reps = crate::sample_count().clamp(3, 9);
    let iters = 30;
    let mesh = bench_mesh();
    let n = mesh.num_vertices();

    let secs: Vec<f64> = THREAD_COUNTS
        .iter()
        .map(|&t| crate::median_secs(reps, || time_sweep_gather(&mesh, t, iters)))
        .collect();
    let base = secs[0];

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut lines = vec![
        "{".to_string(),
        "  \"bench\": \"native\",".to_string(),
        format!(
            "  \"workload\": {{ \"vertices\": {n}, \"kernel\": \"relaxation\", \"iters_per_sample\": {iters}, \"samples\": {reps}, \"host_threads\": {host_threads} }},"
        ),
    ];
    let entries: Vec<String> = THREAD_COUNTS
        .iter()
        .zip(&secs)
        .map(|(&t, &s)| {
            format!(
                "  \"threads_{t}\": {{ \"secs_per_iter\": {:.3e}, \"vertex_updates_per_sec\": {:.0}, \"speedup_vs_1\": {:.2} }}",
                s,
                n as f64 / s,
                base / s
            )
        })
        .collect();
    lines.push(entries.join(",\n"));
    lines.push("}".to_string());
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance::executor::sequential_relaxation;

    /// The bench workload itself must be correct: the native sweep+gather
    /// iteration at any thread count matches the sequential reference
    /// bitwise (a mis-timed bench is noise; a wrong one is a lie).
    #[test]
    fn bench_workload_matches_sequential() {
        let mesh = meshgen::triangulated_grid(12, 9, 0.3, 11);
        let n = mesh.num_vertices();
        let iters = 7;
        let mut expected: Vec<f64> = (0..n).map(|g| (g as f64).sin()).collect();
        sequential_relaxation(&mesh, &mut expected, iters);

        let part = BlockPartition::uniform(n, 3);
        let report = NativeCluster::new(3).run(|comm| {
            let rank = comm.rank();
            let adj = LocalAdjacency::extract(&mesh, &part, rank);
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
            let iv = part.interval_of(rank);
            let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());
            runner.run(comm, &RelaxationKernel, &mut values, iters);
            values.local().to_vec()
        });
        let got = stance::reassemble(&part, report.into_results());
        assert_eq!(got, expected);
    }

    #[test]
    fn timing_is_positive_and_json_well_formed() {
        let mesh = meshgen::triangulated_grid(10, 8, 0.2, 1);
        let t = time_sweep_gather(&mesh, 2, 2);
        assert!(t > 0.0);
    }
}
