//! Split-phase-gather micro-harness: the measurements behind
//! `bench_overlap` and the `results/BENCH_overlap.json` perf-trajectory
//! entry.
//!
//! The question this answers: on the native backend, what does posting
//! the ghost exchange and sweeping the interior while bytes are in flight
//! buy over the synchronous gather-then-sweep order? The workload is a
//! deliberately **boundary-heavy** paper-scale mesh — a wide, shallow
//! triangulated grid whose 1-D block partition cuts across whole
//! 1000-vertex rows, so each rank's ghost traffic is large relative to
//! its sweep (the regime where latency hiding matters; on a deep, narrow
//! mesh the gather is already negligible and overlap has nothing to
//! hide).
//!
//! Methodology, recorded in the JSON: both flavours run the identical
//! mesh, partition, schedule and kernel in the same process; per-iteration
//! wall seconds are the slowest rank's, the median over `samples`
//! repetitions, warm-up excluded. The `speedup` field is
//! synchronous ÷ split-phase from the *same run*, so host speed divides
//! out — but **overlap needs real cores**: on a single-vCPU host the
//! interior sweep and the peer's send compete for the same CPU and the
//! ratio sits near 1.0 by construction. `host_threads` says which regime
//! produced the numbers; the CI perf job regenerates this file on a
//! multi-core runner. Thread counts below 4 report the same measurement
//! under `ratio` instead of `speedup`, keeping them out of the CI
//! regression gate (at 1–2 ranks there is little communication to hide
//! and the gate would track noise).

use std::time::Instant;

use stance::executor::{ComputeCostModel, LoopRunner, RelaxationKernel};
use stance::inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
use stance::locality::meshgen;
use stance::prelude::*;
use stance_native::NativeCluster;

/// The boundary-heavy paper-scale bench mesh: 30k vertices as a 1000-wide
/// strip, so every 1-D block cut severs ~1000 edges and each rank's ghost
/// region is a large fraction of its block.
pub fn overlap_mesh() -> Graph {
    meshgen::triangulated_grid(1000, 30, 0.3, 17)
}

/// Thread counts the overlap trajectory entry sweeps.
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs `iters` gather + relaxation-sweep iterations over `mesh`, block
/// partitioned across `threads` native ranks, with the synchronous
/// (`overlap = false`) or split-phase (`overlap = true`) gather, and
/// returns the measured wall-clock seconds **per iteration** (slowest
/// rank, excluding setup and warm-up).
pub fn time_sweep_gather(mesh: &Graph, threads: usize, iters: usize, overlap: bool) -> f64 {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, threads);
    let report = NativeCluster::new(threads).run(|comm| {
        let rank = comm.rank();
        let adj = LocalAdjacency::extract(mesh, &part, rank);
        let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
        let mut runner =
            LoopRunner::new(sched, &adj, ComputeCostModel::zero()).with_overlap(overlap);
        let iv = part.interval_of(rank);
        let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());

        // Warm-up: mailbox deques, recycled buffers and the request pool
        // reach steady state.
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

/// One virtual-time iteration (seconds) of the gather + sweep loop on the
/// **simulator's** paper cluster — SUN4-class compute, 10 Mbit Ethernet
/// message costs — with the synchronous or split-phase gather.
/// Deterministic: depends only on the cost model, never on the host, so
/// it is the reproducible half of the overlap story (the modelled
/// latency-hiding the executor was built for), alongside the
/// host-dependent native wall clock.
pub fn modelled_secs_per_iter(mesh: &Graph, ranks: usize, iters: usize, overlap: bool) -> f64 {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, ranks);
    let spec = ClusterSpec::paper_cluster(ranks);
    let report = stance::sim::Cluster::new(spec).run(|env| {
        let rank = env.rank();
        let adj = LocalAdjacency::extract(mesh, &part, rank);
        let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
        let mut runner =
            LoopRunner::new(sched, &adj, ComputeCostModel::sun4()).with_overlap(overlap);
        let iv = part.interval_of(rank);
        let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());
        runner.run(env, &RelaxationKernel, &mut values, iters);
        env.now().as_secs()
    });
    report.into_results().into_iter().fold(0.0, f64::max) / iters as f64
}

/// Runs the synchronous-vs-split-phase comparison across
/// [`THREAD_COUNTS`] and renders the `BENCH_overlap.json` perf-trajectory
/// entry.
///
/// Sampling is **order-balanced**: each repetition times both flavours
/// back to back, alternating which goes first, and the medians are taken
/// per flavour. Batching all of one flavour before the other lets any
/// drift in host performance (CPU-frequency ramps, noisy neighbours on a
/// shared runner) masquerade as a flavour difference of ±20% — observed,
/// which is why the harness insists on interleaving.
pub fn report_json() -> String {
    let reps = crate::sample_count().clamp(3, 9);
    let iters = 30;
    let mesh = overlap_mesh();
    let n = mesh.num_vertices();

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut lines = vec![
        "{".to_string(),
        "  \"bench\": \"overlap\",".to_string(),
        format!(
            "  \"workload\": {{ \"vertices\": {n}, \"mesh\": \"1000x30 strip (boundary-heavy)\", \"kernel\": \"relaxation\", \"iters_per_sample\": {iters}, \"samples\": {reps}, \"host_threads\": {host_threads} }},"
        ),
        "  \"methodology\": \"native backend; per-iteration wall seconds = slowest rank, median over order-balanced interleaved samples (each repetition times sync and split back to back, alternating which runs first), warm-up excluded; speedup = synchronous / split-phase on the same host; real overlap needs real cores — entries measured with host_threads < threads mostly reflect reduced blocking overhead, so regenerate on a multi-core host (the CI perf job does) for the scaling story; thread counts < 4 report 'ratio' instead of 'speedup' to stay out of the CI regression gate; 'modelled_*' entries are the deterministic simulator (SUN4 compute + 10 Mbit Ethernet cost model), host-independent\",".to_string(),
    ];
    let mut entries: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&t| {
            let mut sync = Vec::with_capacity(reps);
            let mut split = Vec::with_capacity(reps);
            for i in 0..reps {
                if i % 2 == 0 {
                    sync.push(time_sweep_gather(&mesh, t, iters, false));
                    split.push(time_sweep_gather(&mesh, t, iters, true));
                } else {
                    split.push(time_sweep_gather(&mesh, t, iters, true));
                    sync.push(time_sweep_gather(&mesh, t, iters, false));
                }
            }
            let median = |mut v: Vec<f64>| {
                v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
                v[v.len() / 2]
            };
            let (sync, split) = (median(sync), median(split));
            let key = if t >= 4 { "speedup" } else { "ratio" };
            format!(
                "  \"threads_{t}\": {{ \"sync_secs_per_iter\": {:.3e}, \"split_secs_per_iter\": {:.3e}, \"{key}\": {:.2} }}",
                sync,
                split,
                sync / split
            )
        })
        .collect();
    // The deterministic, host-independent half: modelled virtual time on
    // the paper's Ethernet cluster, where message latency is real and the
    // split phase hides it behind the interior sweep.
    for ranks in [4usize, 8] {
        let sync = modelled_secs_per_iter(&mesh, ranks, 10, false);
        let split = modelled_secs_per_iter(&mesh, ranks, 10, true);
        entries.push(format!(
            "  \"modelled_ethernet_ranks_{ranks}\": {{ \"sync_secs_per_iter\": {:.3e}, \"split_secs_per_iter\": {:.3e}, \"modelled_speedup\": {:.2} }}",
            sync,
            split,
            sync / split
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

    /// The bench workload itself must be correct: both gather flavours
    /// match the sequential reference bitwise at any thread count (a
    /// mis-timed bench is noise; a wrong one is a lie).
    #[test]
    fn bench_workload_matches_sequential_both_flavours() {
        let mesh = meshgen::triangulated_grid(40, 6, 0.3, 17);
        let n = mesh.num_vertices();
        let iters = 7;
        let mut expected: Vec<f64> = (0..n).map(|g| (g as f64).sin()).collect();
        sequential_relaxation(&mesh, &mut expected, iters);

        for overlap in [false, true] {
            let part = BlockPartition::uniform(n, 3);
            let report = NativeCluster::new(3).run(|comm| {
                let rank = comm.rank();
                let adj = LocalAdjacency::extract(&mesh, &part, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                let mut runner =
                    LoopRunner::new(sched, &adj, ComputeCostModel::zero()).with_overlap(overlap);
                let iv = part.interval_of(rank);
                let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());
                runner.run(comm, &RelaxationKernel, &mut values, iters);
                values.local().to_vec()
            });
            let got = stance::reassemble(&part, report.into_results());
            assert_eq!(got, expected, "overlap = {overlap} diverged");
        }
    }

    /// The bench mesh is actually boundary-heavy: at 4 ranks, a
    /// substantial fraction of each middle rank's vertices are boundary.
    #[test]
    fn overlap_mesh_is_boundary_heavy() {
        let mesh = overlap_mesh();
        let part = BlockPartition::uniform(mesh.num_vertices(), 4);
        let adj = LocalAdjacency::extract(&mesh, &part, 1);
        let (sched, _) = build_schedule_symmetric(&part, &adj, 1, ScheduleStrategy::Sort2);
        let tadj = sched.translate_adjacency(&adj);
        let boundary_fraction = tadj.num_boundary() as f64 / tadj.len() as f64;
        assert!(
            boundary_fraction > 0.2,
            "bench mesh is not boundary-heavy: {boundary_fraction:.2}"
        );
    }

    /// The deterministic half of the story: on the modelled Ethernet
    /// cluster the split phase must actually hide communication — virtual
    /// time strictly improves on the boundary-heavy mesh — and be exactly
    /// reproducible run to run.
    #[test]
    fn modelled_overlap_wins_and_is_deterministic() {
        let mesh = meshgen::triangulated_grid(120, 10, 0.3, 17);
        let sync = modelled_secs_per_iter(&mesh, 4, 5, false);
        let split = modelled_secs_per_iter(&mesh, 4, 5, true);
        assert!(
            split < sync,
            "modelled split-phase ({split}) must beat synchronous ({sync})"
        );
        assert_eq!(
            split,
            modelled_secs_per_iter(&mesh, 4, 5, true),
            "modelled timing must be deterministic"
        );
    }

    #[test]
    fn timing_is_positive_for_both_flavours() {
        let mesh = meshgen::triangulated_grid(30, 4, 0.2, 1);
        assert!(time_sweep_gather(&mesh, 2, 2, false) > 0.0);
        assert!(time_sweep_gather(&mesh, 2, 2, true) > 0.0);
    }
}
