//! The native SPMD launcher: one OS thread per rank.

use std::sync::Arc;
use std::time::Instant;

use stance_sim::launch::{run_ranks, BarrierShared};
use stance_sim::mailbox::mailbox_matrix;

use crate::comm::{NativeComm, NativeMsg};

/// Outcome of one rank's native execution.
#[derive(Debug)]
pub struct NativeRankReport<R> {
    /// Value returned by the SPMD closure on this rank.
    pub result: R,
    /// Wall-clock seconds from run start to this rank's return.
    pub elapsed_secs: f64,
}

/// Outcome of a whole native run.
#[derive(Debug)]
pub struct NativeRunReport<R> {
    /// Per-rank outcomes, indexed by rank.
    pub ranks: Vec<NativeRankReport<R>>,
}

impl<R> NativeRunReport<R> {
    /// The completion time of the run: the slowest rank's wall-clock
    /// seconds.
    pub fn makespan(&self) -> f64 {
        self.ranks
            .iter()
            .map(|r| r.elapsed_secs)
            .fold(0.0, f64::max)
    }

    /// The per-rank results, consuming the report.
    pub fn into_results(self) -> Vec<R> {
        self.ranks.into_iter().map(|r| r.result).collect()
    }

    /// Borrowed per-rank results.
    pub fn results(&self) -> impl Iterator<Item = &R> {
        self.ranks.iter().map(|r| &r.result)
    }
}

/// The native SPMD launcher: runs a closure on `threads` real OS threads,
/// one rank each, communicating through [`NativeComm`].
#[derive(Debug, Clone)]
pub struct NativeCluster {
    threads: usize,
}

impl NativeCluster {
    /// A launcher for `threads` ranks.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a native cluster needs at least one thread");
        NativeCluster { threads }
    }

    /// Number of ranks (= OS threads) a run will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f` as an SPMD program: one invocation per rank, each on its
    /// own OS thread with its own [`NativeComm`]. Returns when every rank
    /// has finished.
    ///
    /// # Panics
    /// If any rank panics, the whole run fails with the **first** panic's
    /// original payload (message). A failing rank poisons the barrier and
    /// closes its mailboxes, so peers blocked in `recv` or `barrier` abort
    /// instead of deadlocking; their secondary panics are swallowed in
    /// favour of the original one (the protocol lives in
    /// [`stance_sim::launch`], shared with the simulator's launcher).
    pub fn run<R, F>(&self, f: F) -> NativeRunReport<R>
    where
        R: Send,
        F: Fn(&mut NativeComm) -> R + Send + Sync,
    {
        let p = self.threads;
        let barrier = BarrierShared::new(p, 0.0);
        let start = Instant::now();

        let comms: Vec<NativeComm> = mailbox_matrix::<NativeMsg>(p)
            .into_iter()
            .enumerate()
            .map(|(rank, (txs, rxs))| {
                NativeComm::new(rank, p, start, txs, rxs, Arc::clone(&barrier))
            })
            .collect();

        let ranks = run_ranks(
            "native-rank-",
            comms,
            || barrier.poison(),
            &f,
            |_, result| NativeRankReport {
                result,
                elapsed_secs: start.elapsed().as_secs_f64(),
            },
        );
        NativeRunReport { ranks }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::wait::{with_forced_budget, REGIMES};
    use stance_sim::{Collectives, Comm, Element, Tag};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn single_rank_runs() {
        let report = NativeCluster::new(1).run(|comm| comm.rank());
        assert_eq!(report.into_results(), vec![0]);
    }

    #[test]
    fn send_recv_moves_data() {
        let report = NativeCluster::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(1), f64::pack(&[42.0]));
                0.0
            } else {
                f64::unpack(comm.recv(0, Tag(1)))[0]
            }
        });
        assert_eq!(report.into_results(), vec![0.0, 42.0]);
    }

    #[test]
    fn tag_mismatch_is_buffered() {
        NativeCluster::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(10), u32::pack(&[10]));
                comm.send(1, Tag(20), u32::pack(&[20]));
            } else {
                assert_eq!(u32::unpack(comm.recv(0, Tag(20))), vec![20]);
                assert_eq!(u32::unpack(comm.recv(0, Tag(10))), vec![10]);
            }
        });
    }

    #[test]
    fn collectives_agree_with_rank_order() {
        let report = NativeCluster::new(4).run(|comm| {
            let all = comm.allgather(Tag(5), u32::pack(&[comm.rank() as u32]));
            let ids: Vec<u32> = all.into_iter().flat_map(u32::unpack).collect();
            assert_eq!(ids, vec![0, 1, 2, 3]);
            comm.allreduce_f64(Tag(6), (comm.rank() + 1) as f64, |a, b| a + b)
        });
        for total in report.results() {
            assert_eq!(*total, 10.0);
        }
    }

    #[test]
    fn wall_clock_is_monotone_and_shared() {
        let report = NativeCluster::new(2).run(|comm| {
            let t0 = comm.now_secs();
            comm.barrier();
            std::thread::sleep(std::time::Duration::from_millis(5));
            let t1 = comm.now_secs();
            assert!(t1 > t0, "wall clock must advance");
            t1
        });
        assert!(report.makespan() >= 0.005);
    }

    #[test]
    fn compute_hook_is_free() {
        let report = NativeCluster::new(1).run(|comm| {
            let t0 = comm.now_secs();
            comm.compute(1.0e9); // a billion reference seconds, charged to nobody
            comm.now_secs() - t0
        });
        assert!(report.into_results()[0] < 0.5);
    }

    /// Runs a doomed cluster under both wait regimes, with the failing
    /// rank panicking at once (its peers are still in their spin phase)
    /// and after 20 ms (they are parked): every combination must surface
    /// the original message, not hang and not a peer's secondary panic.
    fn surfaces_original_boom(run: impl Fn(Duration)) {
        for spin in REGIMES {
            for delay in [Duration::ZERO, Duration::from_millis(20)] {
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    with_forced_budget(spin, || run(delay));
                }))
                .expect_err("the run must fail");
                assert_eq!(payload.downcast_ref::<&str>(), Some(&"original boom"));
            }
        }
    }

    #[test]
    fn rank_panic_unblocks_peers_in_barrier() {
        surfaces_original_boom(|delay| {
            NativeCluster::new(3).run(|comm| {
                if comm.rank() == 2 {
                    std::thread::sleep(delay);
                    panic!("original boom");
                }
                comm.barrier();
            });
        });
    }

    #[test]
    fn rank_panic_unblocks_peers_in_recv() {
        surfaces_original_boom(|delay| {
            NativeCluster::new(2).run(|comm| {
                if comm.rank() == 1 {
                    std::thread::sleep(delay);
                    panic!("original boom");
                }
                comm.recv(1, Tag(1));
            });
        });
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = NativeCluster::new(0);
    }
}
