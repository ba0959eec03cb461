//! Intra-rank worker teams: a persistent pool of parked threads that
//! splits one rank's sweeps across cores.
//!
//! The paper's model is one rank per processor; on a modern manycore host
//! that maps one rank per *core* and pays ghost exchange between every
//! pair of cores. The hierarchical alternative keeps ranks = address
//! spaces (few, communicating) and adds teams = cores (many, sharing the
//! rank's memory): a [`SweepTeam`] owns `lanes - 1` worker threads that
//! wait between sweeps by the spin-then-park contract below and split each
//! sweep by *deterministic static chunking* of the rows it is handed: a
//! sweep covers a list of ascending runs of rows, and lane `w` of `L` sweeps
//! rows `w·R/L..(w+1)·R/L` of its `R` rows laid end to end — for the whole
//! block, the one run `0..len`, rows `w·len/L..(w+1)·len/L`.
//!
//! # How the lanes wait
//!
//! Both directions of the handshake — a worker waiting for the next
//! dispatch, the rank thread waiting for the last worker at the join — use
//! the one wait of [`stance_sim::wait`]: poll a lock-free hint (`Shared::
//! epoch_hint`, a mirror of `epoch`/`shutdown`; `Shared::remaining_hint`,
//! a mirror of `remaining`) for at most the team's [`SpinBudget`], then
//! take the lock, read the real state there, and park on the condvar if
//! it has not moved. The hints are stored only under the lock and decide
//! nothing; the publisher and the last worker notify only when the
//! lock-protected `parked_workers` / `rank_parked` records say somebody is
//! asleep, so back-to-back sweeps hand off without a futex call. The
//! budget is [`stance_sim::wait::SPIN_BUDGET`], or zero — the plain
//! lock → check → `Condvar::wait` handshake — when ranks × lanes exceed
//! the host's cores.
//!
//! # Bitwise reproducibility
//!
//! Team size is purely a throughput knob — outputs are bitwise identical
//! for every lane count on every backend:
//!
//! * every output slot is produced by a `sweep_chunked` call over a range
//!   containing it, reading the same immutable `combined` buffer, so the
//!   per-vertex accumulation order never changes;
//! * a lane's share is a pure function of the run list and the lane count
//!   (never of timing), so the same runs always yield the same shares;
//! * every lane writes its rows where the result lives: lane `w` owns the
//!   windows of the output that its share cuts out of the runs — one per
//!   run it touches — the runs ascend and never overlap — asserted at
//!   every dispatch — and the shares tile them, so there are no concurrent
//!   writes to any slot, no copy and no order dependence.
//!
//! # Steady-state allocation freedom
//!
//! Threads are spawned once, a lane walks the run list to find its share
//! instead of reading a stored table, and dispatching a sweep publishes one
//! borrowed closure under a mutex — no boxing, no channels, no per-lane
//! buffers.
//! `tests/alloc_free.rs` pins the team-mode steady state at zero
//! allocations on both backends.

// The two unsafe blocks in this crate live here — the lifetime erasure in
// `TeamCore::run` and the carve of the output into lane windows in
// `SweepTeam::sweep_runs`, both resting on `run`'s join; everything else
// stays checked.
#![allow(unsafe_code)]

use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use stance_inspector::TranslatedAdjacency;
use stance_sim::wait::SpinBudget;
use stance_sim::Element;

use crate::kernel::Kernel;

/// One published sweep dispatch: the job closure runs once per worker
/// lane, with the lane index as its argument.
///
/// The reference is type-erased to `'static` by [`TeamCore::run`], which
/// guarantees the underlying closure outlives the job (it blocks until
/// every worker has retired the epoch before returning).
#[derive(Clone, Copy)]
struct Job {
    f: &'static (dyn Fn(usize) + Sync),
}

/// State shared between the rank thread and its waiting workers.
struct Shared {
    state: Mutex<State>,
    /// Signalled by the publisher when a new epoch (or shutdown) is posted
    /// and a worker is parked.
    work: Condvar,
    /// Signalled by the last worker to retire the current epoch, if the
    /// rank thread is parked.
    done: Condvar,
    /// Hint for the workers' spin phase: [`State::epoch_hint`] as of the
    /// last dispatch or shutdown. Like `remaining_hint`, stored
    /// (`Release`) only under `state`'s lock, polled (`Acquire`) without
    /// it, never acted on.
    epoch_hint: AtomicU64,
    /// Hint for the rank thread's spin phase at the join: `remaining`.
    remaining_hint: AtomicUsize,
    spin: SpinBudget,
}

struct State {
    /// Monotonic dispatch counter; a worker runs one job per observed
    /// increment, so a spurious condvar wakeup can never re-run a job.
    epoch: u64,
    job: Option<Job>,
    /// Workers still running the current epoch's job.
    remaining: usize,
    /// Set when any worker's job panicked; re-raised on the rank thread.
    panicked: bool,
    shutdown: bool,
    /// Workers currently asleep on `work`.
    parked_workers: usize,
    /// The rank thread is asleep on `done`.
    rank_parked: bool,
}

impl State {
    /// What a waiting worker watches: changes whenever `epoch` or
    /// `shutdown` does.
    fn epoch_hint(&self) -> u64 {
        self.epoch << 1 | u64::from(self.shutdown)
    }
}

impl Shared {
    /// Publishes a change workers watch for — call with the lock held,
    /// after moving `epoch` or `shutdown` — and wakes the parked ones.
    fn publish_and_wake(&self, st: &State) {
        self.epoch_hint.store(st.epoch_hint(), Ordering::Release);
        if st.parked_workers > 0 {
            self.work.notify_all();
        }
    }
}

/// The element-type-independent thread pool: worker threads + handshake.
struct TeamCore {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl TeamCore {
    /// Spawns `workers` waiting worker threads (lanes `1..=workers`).
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
                parked_workers: 0,
                rank_parked: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch_hint: AtomicU64::new(0),
            remaining_hint: AtomicUsize::new(0),
            spin: SpinBudget::for_threads(workers + 1),
        });
        let handles = (1..=workers)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("stance-team-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    // A team the OS cannot give threads cannot exist.
                    .expect("spawn sweep-team worker")
            })
            .collect();
        TeamCore {
            shared,
            workers: handles,
        }
    }

    /// Runs `worker_job(lane)` on every worker lane while `lane0` runs on
    /// the calling thread, returning only after **all** lanes finished.
    /// A panic on any lane is re-raised here (after the join, so the
    /// borrowed closure is never outlived).
    fn run(&self, worker_job: &(dyn Fn(usize) + Sync), lane0: impl FnOnce()) {
        // SAFETY: we erase `worker_job`'s lifetime so the waiting threads
        // (whose loop is necessarily `'static`) can call it. The borrow
        // cannot be outlived (nor can what the closure borrows — the lane
        // windows `SweepTeam::sweep_runs` carves rest on this too): this
        // function publishes the job, then unconditionally blocks — even
        // when `lane0` panics — until `remaining` (read under the lock;
        // the spin on its hint only shortens the wait) drops to zero, i.e.
        // until every worker has finished calling the closure and will
        // never touch it again (the epoch check stops re-runs).
        let job = Job {
            f: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(
                    worker_job,
                )
            },
        };
        let shared = &*self.shared;
        {
            // Never poisoned: no code panics while holding the lock (jobs
            // run outside it). The same holds for every lock and wait below.
            let mut st = shared.state.lock().expect("team state poisoned");
            st.job = Some(job);
            st.remaining = self.workers.len();
            shared.remaining_hint.store(st.remaining, Ordering::Release);
            st.epoch += 1;
            shared.publish_and_wake(&st);
        }

        let lane0_result = catch_unwind(AssertUnwindSafe(lane0));

        shared
            .spin
            .spin_until(None, || shared.remaining_hint.load(Ordering::Acquire) == 0);
        let worker_panicked = {
            // Never poisoned, as above.
            let mut st = shared.state.lock().expect("team state poisoned");
            while st.remaining != 0 {
                st.rank_parked = true;
                // Never poisoned, as above.
                st = shared.done.wait(st).expect("team state poisoned");
                st.rank_parked = false;
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        if let Err(payload) = lane0_result {
            resume_unwind(payload);
        }
        // A lane's panic is re-raised on the rank thread, after the join.
        assert!(!worker_panicked, "a sweep-team worker lane panicked");
    }
}

impl Drop for TeamCore {
    fn drop(&mut self) {
        {
            let mut st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            st.shutdown = true;
            self.shared.publish_and_wake(&st);
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen = 0u64;
    loop {
        shared.spin.spin_until(None, || {
            shared.epoch_hint.load(Ordering::Acquire) != seen << 1
        });
        let job = {
            // Never poisoned: see `TeamCore::run`.
            let mut st = shared.state.lock().expect("team state poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    // `run` sets the job before it moves the epoch.
                    break st.job.expect("published epoch carries a job");
                }
                st.parked_workers += 1;
                // Never poisoned: see `TeamCore::run`.
                st = shared.work.wait(st).expect("team state poisoned");
                st.parked_workers -= 1;
            }
        };
        let ok = catch_unwind(AssertUnwindSafe(|| (job.f)(lane))).is_ok();
        // Never poisoned: see `TeamCore::run`.
        let mut st = shared.state.lock().expect("team state poisoned");
        if !ok {
            st.panicked = true;
        }
        st.remaining -= 1;
        shared.remaining_hint.store(st.remaining, Ordering::Release);
        if st.remaining == 0 && st.rank_parked {
            shared.done.notify_one();
        }
    }
}

/// Lane `lane`'s share of a run list holding `rows` rows in all: the rows
/// `lane·rows/lanes..(lane+1)·rows/lanes` of the runs laid end to end, cut
/// back into the pieces each run holds — so the lanes' shares tile the
/// runs, ascending with the lane index and disjoint, lengths differing by
/// at most one (with more lanes than rows, the surplus lanes get nothing).
/// For the one run `0..len` that is rows `lane·len/lanes..(lane+1)·len/lanes`.
fn lane_pieces(
    runs: &[Range<usize>],
    rows: usize,
    lanes: usize,
    lane: usize,
) -> impl Iterator<Item = Range<usize>> + '_ {
    let (lo, hi) = (lane * rows / lanes, (lane + 1) * rows / lanes);
    runs.iter()
        .scan(0, |at, run| {
            // `at` is where `run` starts in the runs laid end to end.
            let first = *at;
            *at += run.len();
            Some((first, run))
        })
        .map(move |(first, run)| {
            let from = lo.max(first).min(first + run.len()) - first;
            let to = hi.max(first).min(first + run.len()) - first;
            run.start + from..run.start + to
        })
        .filter(|piece| !piece.is_empty())
}

/// A rank's persistent worker team for splitting sweeps across cores.
///
/// Construct once per rank (or let [`LoopRunner::with_team`] do it), call
/// [`SweepTeam::rebuild_splits`] whenever the translated adjacency
/// changes, then dispatch [`SweepTeam::sweep_runs`] (or
/// [`SweepTeam::sweep_full`]) every iteration. See the module docs for the
/// reproducibility and allocation arguments.
///
/// [`LoopRunner::with_team`]: crate::LoopRunner::with_team
pub struct SweepTeam<E: Element> {
    lanes: usize,
    /// `None` when `lanes == 1`: no threads, every sweep runs inline.
    core: Option<TeamCore>,
    /// `tadj.len()` of the adjacency [`SweepTeam::rebuild_splits`] last
    /// saw; a sweep of a block with any other row count is refused.
    built_for: usize,
    /// Lanes write `E`s into the caller's output; the team stores none.
    element: PhantomData<fn(E)>,
}

impl<E: Element> SweepTeam<E> {
    /// Creates a team with `lanes` compute lanes: the calling rank thread
    /// (lane 0) plus `lanes - 1` spawned worker threads, waiting until a
    /// sweep is dispatched. Call [`SweepTeam::rebuild_splits`] before the
    /// first sweep.
    ///
    /// # Panics
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        // A team of no lanes could sweep nothing.
        assert!(lanes >= 1, "a sweep team has at least one lane");
        SweepTeam {
            lanes,
            core: (lanes > 1).then(|| TeamCore::new(lanes - 1)),
            built_for: 0,
            element: PhantomData,
        }
    }

    /// The number of compute lanes (including the calling thread).
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Records the row count of the block the team now sweeps — call after
    /// every (re)translation of the adjacency, so a runner that missed a
    /// remap is refused instead of sweeping a block of another shape. The
    /// lane shares themselves are a pure function of each dispatch's run
    /// list; nothing is stored.
    pub fn rebuild_splits(&mut self, tadj: &TranslatedAdjacency) {
        self.built_for = tadj.len();
    }

    /// Sweeps all owned vertices (`0..len`) split across the team: the
    /// one-run [`SweepTeam::sweep_runs`], writing `out` exactly as
    /// `kernel.sweep` would.
    ///
    /// # Panics
    /// As [`SweepTeam::sweep_runs`].
    pub fn sweep_full<K: Kernel<E> + ?Sized>(
        &mut self,
        kernel: &K,
        tadj: &TranslatedAdjacency,
        combined: &[E],
        out: &mut [E],
    ) {
        let whole = 0..tadj.len();
        self.sweep_runs(kernel, tadj, combined, out, std::slice::from_ref(&whole));
    }

    /// Sweeps the rows of `runs` split across the team, writing each row's
    /// output to its slot of `out` (one slot per owned vertex) and leaving
    /// every other slot alone. The runs laid end to end are cut into one
    /// contiguous share per lane, lane `w` of `L` taking rows
    /// `w·R/L..(w+1)·R/L` of the `R` rows; a share that straddles runs is
    /// swept piece by piece, every piece one `kernel.sweep_chunked` call on
    /// its range and that range's window of `out`. A list without rows
    /// dispatches nothing.
    ///
    /// # Panics
    /// Panics if `tadj` has another row count than the adjacency
    /// [`SweepTeam::rebuild_splits`] last saw, if `out` is not one slot
    /// per owned vertex, or if `runs` do not ascend without overlap inside
    /// `0..len`.
    pub fn sweep_runs<K: Kernel<E> + ?Sized>(
        &mut self,
        kernel: &K,
        tadj: &TranslatedAdjacency,
        combined: &[E],
        out: &mut [E],
        runs: &[Range<usize>],
    ) {
        // The runner rebuilds the team with every translation; a mismatch
        // means a sweep of a block the caller never announced.
        assert_eq!(
            tadj.len(),
            self.built_for,
            "stale lane splits: rebuild_splits saw another row count"
        );
        // Every lane window below is carved out of `out`, which must hold
        // exactly the block's rows.
        assert_eq!(out.len(), tadj.len(), "output length mismatch");
        let mut rows = 0;
        let mut floor = 0;
        for run in runs {
            // What the carve below rests on: pieces of distinct runs, and
            // distinct pieces of one run, never share a slot of `out`.
            assert!(
                floor <= run.start && run.start <= run.end && run.end <= out.len(),
                "runs must ascend without overlap inside the block"
            );
            floor = run.end;
            rows += run.len();
        }
        if rows == 0 {
            return;
        }
        let lanes = self.lanes;
        // `out` itself is not touched again until every lane is done (for
        // a team, until `run` has joined them): all windows derive from
        // this one pointer. The atomic is only a `Sync` cell for it (hence
        // `Relaxed`) — the dispatch handshake's lock orders every lane's
        // load after this store.
        let base = AtomicPtr::new(out.as_mut_ptr());
        let sweep_lane = |lane: usize| {
            for piece in lane_pieces(runs, rows, lanes, lane) {
                // SAFETY: the runs were just checked to ascend without
                // overlap inside `out`, and `lane_pieces` cuts them into
                // disjoint pieces of one lane each — so every window lies
                // inside `out` and no two windows, of one lane or of two,
                // share a slot. Each lane index runs once per dispatch,
                // and `TeamCore::run` joins every lane before it returns,
                // so no window outlives the borrow of `out`.
                let window = unsafe {
                    let first = base.load(Ordering::Relaxed).add(piece.start);
                    std::slice::from_raw_parts_mut(first, piece.len())
                };
                kernel.sweep_chunked(tadj, combined, window, piece);
            }
        };
        match &self.core {
            None => sweep_lane(0),
            Some(core) => core.run(&sweep_lane, || sweep_lane(0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RelaxationKernel;
    use stance_inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
    use stance_locality::Graph;
    use stance_onedim::BlockPartition;
    use stance_sim::wait::{stress_rounds, with_forced_budget, Jitter, REGIMES};

    /// For every run list, length and lane count the lanes' pieces tile
    /// the runs exactly, ascend with the lane index, and the lanes' shares
    /// differ in length by at most one; with more lanes than rows the
    /// surplus lanes get nothing, and the one run `0..len` is cut at
    /// `lane·len/lanes`.
    #[test]
    // The one-range vectors are run lists of one run, not ranges to expand.
    #[allow(clippy::single_range_in_vec_init)]
    fn lane_pieces_tile_the_runs_in_near_equal_ascending_shares() {
        let lists: Vec<Vec<Range<usize>>> = vec![
            vec![],
            vec![3..4],
            vec![0..512, 1024..1100, 1500..2048],
            vec![0..7, 7..9, 20..21, 30..41],
            vec![100..1300],
        ];
        let wholes = (0..=40)
            .chain([511, 512, 513, 1300, 100_003])
            .map(|len| vec![0..len]);
        for runs in lists.into_iter().chain(wholes) {
            let rows: usize = runs.iter().map(ExactSizeIterator::len).sum();
            let tiled: Vec<usize> = runs.iter().flat_map(Clone::clone).collect();
            for lanes in 1..=6usize {
                let what = format!("{runs:?}, {lanes} lanes");
                let mut got = Vec::new();
                let mut sizes = Vec::new();
                for lane in 0..lanes {
                    let pieces: Vec<_> = lane_pieces(&runs, rows, lanes, lane).collect();
                    if let [whole @ Range { start: 0, .. }] = runs.as_slice() {
                        let share = lane * whole.end / lanes..(lane + 1) * whole.end / lanes;
                        let expected = if share.is_empty() {
                            vec![]
                        } else {
                            vec![share]
                        };
                        assert_eq!(pieces, expected, "{what}: lane {lane} of one run");
                    }
                    let before = got.len();
                    for piece in pieces {
                        assert!(!piece.is_empty(), "{what}: empty piece");
                        got.extend(piece);
                    }
                    sizes.push(got.len() - before);
                }
                assert_eq!(got, tiled, "{what}: the pieces must tile the runs in order");
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "{what}: shares {lo}..={hi}");
                let empty = sizes.iter().filter(|&&n| n == 0).count();
                assert_eq!(empty, lanes.saturating_sub(rows), "{what}: empty lanes");
            }
        }
    }

    /// A team whose lanes wait with `spin`, whatever the host's width.
    fn core(workers: usize, spin: SpinBudget) -> TeamCore {
        with_forced_budget(spin, || TeamCore::new(workers))
    }

    #[test]
    fn core_runs_every_lane_and_recycles() {
        for spin in REGIMES {
            let core = core(3, spin);
            let hits = AtomicUsize::new(0);
            for round in 1..=5usize {
                let job = |lane: usize| {
                    hits.fetch_add(lane, Ordering::Relaxed);
                };
                core.run(&job, || {
                    hits.fetch_add(100, Ordering::Relaxed);
                });
                // Lanes 1+2+3 plus lane 0's 100, every round.
                assert_eq!(hits.load(Ordering::Relaxed), round * 106);
            }
        }
    }

    #[test]
    fn worker_panic_reaches_the_rank_thread() {
        for spin in REGIMES {
            let team = core(2, spin);
            let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                team.run(
                    &|lane| {
                        if lane == 1 {
                            panic!("lane 1 exploded");
                        }
                    },
                    || {},
                );
            }));
            assert!(result.is_err(), "worker panic must propagate");
            // The team must still be usable afterwards.
            let hits = AtomicUsize::new(0);
            team.run(
                &|_| {
                    hits.fetch_add(1, Ordering::Relaxed);
                },
                || {},
            );
            assert_eq!(hits.load(Ordering::Relaxed), 2);
        }
    }

    // Miri: thousands of jittered rounds take the interpreter hours, and
    // it is the handshake, not aliasing, that they probe — TSan's job.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn three_lane_dispatch_never_loses_a_wakeup() {
        // Seeded pauses on every lane land the workers' wait for the next
        // dispatch and the rank thread's wait at the join in the spin
        // phase, at the budget's expiry, and deep in the park phase. A
        // lost wake-up hangs the test; a skipped or repeated job fails the
        // per-lane round count.
        let rounds = stress_rounds(100_000);
        for spin in REGIMES {
            let team = core(2, spin);
            let done: [AtomicUsize; 3] = Default::default();
            let jitters: [Mutex<Jitter>; 3] = [1, 2, 3].map(|seed| Mutex::new(Jitter::new(seed)));
            let lane_body = |lane: usize| {
                jitters[lane].lock().expect("one lane each").pause();
                done[lane].fetch_add(1, Ordering::Relaxed);
            };
            for round in 1..=rounds {
                team.run(&lane_body, || lane_body(0));
                for lane in &done {
                    assert_eq!(lane.load(Ordering::Relaxed), round);
                }
            }
        }
    }

    /// Rank 0's translated block of `len` rows on a two-rank chain: every
    /// row references its chain neighbors, every seventh one also a vertex
    /// of rank 1 — so ghost-reading rows fall inside every lane's range.
    fn chain_block(len: usize) -> TranslatedAdjacency {
        let n = len + 8;
        let mut edges: Vec<(u32, u32)> = (1..n as u32).map(|i| (i - 1, i)).collect();
        edges.extend(
            (0..len.saturating_sub(1))
                .step_by(7)
                .map(|i| (i as u32, (len + i % 8) as u32)),
        );
        let g = Graph::from_edges(n, &edges, vec![[0.0; 3]; n], 2);
        let part = BlockPartition::from_sizes(&[len, 8]);
        let adj = LocalAdjacency::extract(&g, &part, 0);
        let (sched, _) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort2);
        sched.translate_adjacency(&adj)
    }

    #[test]
    fn lanes_write_their_own_windows_and_nothing_else() {
        const SENTINEL: f64 = -4.242_424_242e242;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for len in [0usize, 1, 511, 513, 1300] {
            let tadj = chain_block(len);
            let combined: Vec<f64> = (0..tadj.buffer_len())
                .map(|i| (i as f64).sin() * 10.0)
                .collect();
            let mut single = vec![SENTINEL; len];
            RelaxationKernel.sweep(&tadj, &combined, &mut single);
            for lanes in 1..=4 {
                let what = format!("len {len}, {lanes} lanes");
                let mut team = SweepTeam::new(lanes);
                team.rebuild_splits(&tadj);
                let mut got = vec![SENTINEL; len];
                team.sweep_full(&RelaxationKernel, &tadj, &combined, &mut got);
                // The lanes tile the block, so every slot lost its
                // sentinel to exactly one of them: bit for bit what a
                // single lane writes.
                assert_eq!(bits(&got), bits(&single), "{what}");
            }
        }
    }

    /// A dispatch over three runs whose lane shares straddle them: with
    /// two lanes each lane writes windows of two runs. Every row of a run
    /// comes out bit for bit as a single lane writes it, and every row
    /// outside the runs keeps its sentinel.
    #[test]
    fn lanes_write_the_windows_of_their_runs_and_nothing_else() {
        const SENTINEL: f64 = -4.242_424_242e242;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let tadj = chain_block(1300);
        let combined: Vec<f64> = (0..tadj.buffer_len())
            .map(|i| (i as f64).cos() * 10.0)
            .collect();
        let mut single = vec![0.0; tadj.len()];
        RelaxationKernel.sweep(&tadj, &combined, &mut single);
        let runs = [0..300, 500..900, 1000..1300];
        let mut expected = vec![SENTINEL; tadj.len()];
        for run in &runs {
            expected[run.clone()].copy_from_slice(&single[run.clone()]);
        }
        assert_eq!(lane_pieces(&runs, 1000, 2, 0).count(), 2);
        assert_eq!(lane_pieces(&runs, 1000, 2, 1).count(), 2);
        for lanes in 1..=4 {
            let mut team = SweepTeam::new(lanes);
            team.rebuild_splits(&tadj);
            let mut got = vec![SENTINEL; tadj.len()];
            team.sweep_runs(&RelaxationKernel, &tadj, &combined, &mut got, &runs);
            assert_eq!(bits(&got), bits(&expected), "{lanes} lanes");
        }
    }

    #[test]
    #[should_panic(expected = "runs must ascend without overlap")]
    fn overlapping_runs_panic() {
        let tadj = chain_block(40);
        let mut team = SweepTeam::new(2);
        team.rebuild_splits(&tadj);
        let combined = vec![0.0; tadj.buffer_len()];
        let mut out = vec![0.0; tadj.len()];
        let runs = [0..20, 10..30];
        team.sweep_runs(&RelaxationKernel, &tadj, &combined, &mut out, &runs);
    }

    #[test]
    #[should_panic(expected = "stale lane splits")]
    fn sweep_of_a_block_the_splits_were_not_built_for_panics() {
        let (built, other) = (chain_block(40), chain_block(41));
        let mut team = SweepTeam::new(2);
        team.rebuild_splits(&built);
        let combined = vec![0.0; other.buffer_len()];
        let mut out = vec![0.0; other.len()];
        team.sweep_full(&RelaxationKernel, &other, &combined, &mut out);
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn sweep_into_an_output_of_the_wrong_length_panics() {
        let tadj = chain_block(40);
        let mut team = SweepTeam::new(2);
        team.rebuild_splits(&tadj);
        let combined = vec![0.0; tadj.buffer_len()];
        let mut out = vec![0.0; tadj.len() - 1];
        team.sweep_full(&RelaxationKernel, &tadj, &combined, &mut out);
    }
}
