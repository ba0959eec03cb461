//! TCP process-backend micro-harness: the measurements behind the
//! `results/BENCH_tcp.json` perf-trajectory entry.
//!
//! Where `BENCH_native.json` times the executor iteration on thread-ranks
//! sharing one address space, this harness runs the same ghost gather +
//! relaxation sweep with **every rank a separate OS process** and every
//! ghost byte a framed message on a loopback socket. The gap between the
//! two files is the price of process isolation: syscalls, kernel socket
//! buffers, and frame codecs instead of a `memcpy` between threads.
//!
//! The measurement is honest about its host: process counts of 2/4/8 run
//! regardless of core count, the JSON records `host_threads`, and the
//! ratio cells are **informational** — on a 2-vCPU CI runner the 8-rank
//! row measures oversubscription, not scaling. Timing happens inside the
//! workers (between barriers, after warm-up), so process spawn and
//! rendezvous cost is excluded — this is steady-state transport
//! throughput, not launch latency.

use std::path::PathBuf;

use stance::executor::{ComputeCostModel, LoopRunner, RelaxationKernel};
use stance::inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
use stance::prelude::*;
use stance_tcp::codec::Wire;
use stance_tcp::{ScenarioRegistry, TcpCluster, TcpComm};

/// Process counts the TCP trajectory entry sweeps.
pub const PROCESS_COUNTS: [usize; 3] = [2, 4, 8];

/// The named scenarios a bench worker process can run. `repro_all` passes
/// this to [`stance_tcp::maybe_rank_main`] at the top of `main`, making
/// the bench binary its own rank worker.
pub const BENCH_SCENARIOS: ScenarioRegistry = &[("bench_sweep", bench_sweep)];

/// Worker-side body: `iters` gather + relaxation-sweep iterations over
/// the paper-scale bench mesh, timed between barriers after warm-up.
/// Returns this rank's measured wall-clock seconds per iteration.
fn bench_sweep(comm: &mut TcpComm, args: &[u8]) -> Vec<u8> {
    let iters = usize::from_wire(args);
    let mesh = crate::native::bench_mesh();
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, comm.size());
    let rank = comm.rank();
    let adj = LocalAdjacency::extract(&mesh, &part, rank);
    let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
    let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
    let iv = part.interval_of(rank);
    let mut values = runner.make_values(iv.iter().map(|g| (g as f64).sin()).collect());

    // Warm-up: socket buffers, link accumulators and recycled frame
    // scratch reach steady state before the clock starts.
    runner.run(comm, &RelaxationKernel, &mut values, 3);
    comm.barrier();
    let t0 = std::time::Instant::now();
    runner.run(comm, &RelaxationKernel, &mut values, iters);
    let elapsed = t0.elapsed().as_secs_f64();
    comm.barrier();
    (elapsed / iters as f64).to_wire()
}

/// One cluster launch: `p` worker processes over loopback, returning the
/// slowest rank's measured seconds per iteration.
fn time_sweep_gather_tcp(worker: &PathBuf, p: usize, iters: usize) -> f64 {
    TcpCluster::new(p, worker)
        .run_scenario("bench_sweep", &iters.to_wire())
        .into_results()
        .iter()
        .map(|bytes| f64::from_wire(bytes))
        .fold(0.0, f64::max)
}

/// Runs the loopback sweep+gather measurement across [`PROCESS_COUNTS`]
/// and renders the `BENCH_tcp.json` perf-trajectory entry. `worker` is
/// the rank-worker binary — `repro_all` passes its own executable.
pub fn report_json(worker: &PathBuf) -> String {
    let reps = crate::sample_count().clamp(3, 9);
    let iters = 30;
    let n = crate::native::bench_mesh().num_vertices();

    let secs: Vec<f64> = PROCESS_COUNTS
        .iter()
        .map(|&p| crate::median_secs(reps, || time_sweep_gather_tcp(worker, p, iters)))
        .collect();

    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    render_json(n, iters, reps, host_threads, &secs)
}

fn render_json(n: usize, iters: usize, reps: usize, host_threads: usize, secs: &[f64]) -> String {
    let base = secs[0];
    let mut lines = vec![
        "{".to_string(),
        "  \"bench\": \"tcp\",".to_string(),
        format!(
            "  \"workload\": {{ \"vertices\": {n}, \"kernel\": \"relaxation\", \"iters_per_sample\": {iters}, \"samples\": {reps}, \"host_threads\": {host_threads} }},"
        ),
        // The ratio column is informational: with fewer host threads than
        // ranks it measures oversubscription, not the backend's scaling.
        "  \"note\": \"ranks are OS processes on loopback TCP; ratio_vs_2_ranks is informational when host_threads < ranks\",".to_string(),
    ];
    let entries: Vec<String> = PROCESS_COUNTS
        .iter()
        .zip(secs)
        .map(|(&p, &s)| {
            format!(
                "  \"ranks_{p}\": {{ \"secs_per_iter\": {:.3e}, \"vertex_updates_per_sec\": {:.0}, \"ratio_vs_2_ranks\": {:.2} }}",
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

    /// The JSON renderer stays well formed (balanced braces, one entry
    /// per process count, the honest-host note present) without having to
    /// spawn a process cluster inside a unit test.
    #[test]
    fn rendered_json_is_well_formed() {
        let s = render_json(30_000, 30, 3, 2, &[1.0e-3, 6.0e-4, 7.0e-4]);
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "unbalanced braces:\n{s}"
        );
        for p in PROCESS_COUNTS {
            assert!(
                s.contains(&format!("\"ranks_{p}\"")),
                "missing ranks_{p}:\n{s}"
            );
        }
        assert!(s.contains("\"host_threads\": 2"));
        assert!(s.contains("informational"));
    }
}
