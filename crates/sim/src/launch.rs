//! The shared SPMD thread-launch harness.
//!
//! The two in-process backends (the simulator and the native thread
//! pool; the TCP backend runs one OS process per rank) launch ranks the
//! same way: one OS thread per rank, a generous stack (partitioners
//! recurse over meshes), and a fail-without-deadlock panic protocol. The
//! protocol lives here, once, so the two cannot drift apart on failure
//! semantics:
//!
//! 1. every rank body runs under `catch_unwind`;
//! 2. the **first** panic's payload is recorded (later ones are fallout —
//!    disconnected mailboxes, poisoned barrier — and are swallowed);
//! 3. the failing rank calls the backend's `poison` hook (which poisons
//!    its barrier) and then drops its per-rank context, closing its
//!    mailboxes — so peers blocked in `barrier` or `recv` abort instead
//!    of waiting forever;
//! 4. after every thread has been joined, the original payload is
//!    resumed, so the caller sees the original panic message.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use crate::time::VTime;
use crate::wait::{RankContext, SpinBudget};

/// Stack size for rank threads: partitioners recurse over meshes, so be
/// generous — this costs only virtual address space.
pub const RANK_STACK_BYTES: usize = 16 * 1024 * 1024;

/// The poisonable, clock-synchronizing barrier both backends share.
///
/// The arrive/release protocol is a sense-reversing barrier with a
/// `poisoned` flag wired into the panic protocol above: a failing rank
/// calls [`BarrierShared::poison`], and every waiter panics out instead
/// of waiting for a participant that will never arrive. The virtual-clock
/// fold (release = max participant clock + the cost of a dissemination
/// barrier's rounds) is the simulator's time model; the native backend
/// constructs the barrier with zero cost and passes [`VTime::ZERO`], which
/// reduces `wait` to a plain synchronization barrier — one copy of the
/// protocol for both backends.
///
/// Early arrivers wait by the spin-then-park contract of [`crate::wait`]:
/// they poll `hint` (a lock-free mirror of `generation`/`poisoned`, stored
/// under the lock) for at most the barrier's [`SpinBudget`], then re-take
/// the lock, read the real state, and park on the condvar until the
/// release or the poison. The last arriver and `poison` notify only when
/// the lock-protected `parked` count says somebody is asleep.
pub struct BarrierShared {
    inner: Mutex<BarrierInner>,
    cv: Condvar,
    size: usize,
    /// Virtual seconds a barrier adds beyond the max participant clock
    /// (log-tree latency model).
    cost: f64,
    /// Hint for the spin phase: [`BarrierInner::hint`] as of the last
    /// release or poison. Stored (`Release`) only under `inner`'s lock,
    /// polled (`Acquire`) without it, never acted on.
    hint: AtomicU64,
    spin: SpinBudget,
}

struct BarrierInner {
    arrived: usize,
    generation: u64,
    max_clock: VTime,
    release: VTime,
    /// Set when a rank panics: waiters must not keep waiting for a
    /// participant that will never arrive.
    poisoned: bool,
    /// Waiters currently asleep on the condvar.
    parked: usize,
}

impl BarrierInner {
    /// What a waiter watches: changes whenever `generation` or `poisoned`
    /// does.
    fn hint(&self) -> u64 {
        self.generation << 1 | u64::from(self.poisoned)
    }
}

impl BarrierShared {
    /// A barrier for `size` ranks whose release charges a dissemination
    /// barrier's rounds at `per_message_latency` (pass `0.0` for a pure
    /// synchronization barrier).
    pub fn new(size: usize, per_message_latency: f64) -> Arc<Self> {
        // A dissemination barrier needs ceil(log2(p)) rounds of messages.
        let rounds = if size <= 1 {
            0.0
        } else {
            (size as f64).log2().ceil()
        };
        Arc::new(BarrierShared {
            inner: Mutex::new(BarrierInner {
                arrived: 0,
                generation: 0,
                max_clock: VTime::ZERO,
                release: VTime::ZERO,
                poisoned: false,
                parked: 0,
            }),
            cv: Condvar::new(),
            size,
            cost: 2.0 * per_message_latency * rounds,
            hint: AtomicU64::new(0),
            spin: SpinBudget::for_threads(size),
        })
    }

    fn lock(&self) -> MutexGuard<'_, BarrierInner> {
        // The barrier's own `poisoned` flag is the protocol state; a
        // poisoned *mutex* carries no extra information, so read through it.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Publishes a change waiters watch for — call with the lock held,
    /// after moving `generation` or `poisoned` — and wakes the parked ones.
    fn publish_and_wake(&self, g: &BarrierInner) {
        self.hint.store(g.hint(), Ordering::Release);
        if g.parked > 0 {
            self.cv.notify_all();
        }
    }

    /// Blocks until all ranks arrive; returns the synchronized release time.
    /// The last arriver releases the generation; everyone else spins on the
    /// hint, then lock → check → park until the release or the poison.
    ///
    /// # Panics
    /// Panics if the barrier was [poisoned](Self::poison) by a rank that
    /// failed — the missing participant would otherwise deadlock everyone.
    pub fn wait(&self, clock: VTime) -> VTime {
        // Panicking with the lock held is fine: `lock` reads through a
        // poisoned mutex.
        const POISONED: &str = "barrier poisoned: a peer rank panicked";
        let mut g = self.lock();
        assert!(!g.poisoned, "{POISONED}");
        g.max_clock = g.max_clock.max(clock);
        g.arrived += 1;
        if g.arrived == self.size {
            g.release = g.max_clock + self.cost;
            g.generation = g.generation.wrapping_add(1);
            g.arrived = 0;
            g.max_clock = VTime::ZERO;
            self.publish_and_wake(&g);
            return g.release;
        }
        let gen = g.generation;
        if !self.spin.is_zero() {
            let arrived_at = g.hint();
            drop(g);
            self.spin
                .spin_until(None, || self.hint.load(Ordering::Acquire) != arrived_at);
            g = self.lock();
        }
        loop {
            if g.generation != gen {
                return g.release;
            }
            assert!(!g.poisoned, "{POISONED}");
            g.parked += 1;
            g = self
                .cv
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            g.parked -= 1;
        }
    }

    /// Marks the barrier unusable and wakes every waiter (which then
    /// panics out of [`Self::wait`]). Called when a rank fails so peers
    /// blocked on the barrier don't deadlock waiting for it.
    pub fn poison(&self) {
        let mut g = self.lock();
        g.poisoned = true;
        self.publish_and_wake(&g);
    }
}

/// Runs one thread per context in `ctxs` (index = rank), executing
/// `rank_main` on each, and returns the per-rank results in rank order.
///
/// The two-phase shape is load-bearing for the panic protocol:
/// `rank_main` only *borrows* the context, so when it panics the context
/// is still alive while the payload is recorded — the failing rank's
/// mailboxes must not close (unblocking peers into their secondary
/// "sender exited" panics) until the original panic has been recorded as
/// first. Only then is the context dropped. On success, `finish` consumes
/// the context to assemble the rank's report (e.g. extracting the final
/// clock); it runs outside the catch and must not panic in normal
/// operation.
///
/// # Panics
/// If any rank panics, resumes the **first** panic's original payload
/// after all threads have been joined.
pub fn run_ranks<Ctx, T, R>(
    name_prefix: &str,
    ctxs: Vec<Ctx>,
    poison: impl Fn() + Sync,
    rank_main: impl Fn(&mut Ctx) -> T + Send + Sync,
    finish: impl Fn(Ctx, T) -> R + Send + Sync,
) -> Vec<R>
where
    Ctx: Send,
    R: Send,
{
    let p = ctxs.len();
    let wait_context = RankContext::capture(p);
    let first_panic: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);
    let record_first = |payload: Box<dyn std::any::Any + Send>| {
        let mut g = first_panic
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if g.is_none() {
            *g = Some(payload);
        }
    };
    let mut outcomes: Vec<Option<R>> = (0..p).map(|_| None).collect();
    thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, mut ctx) in ctxs.into_iter().enumerate() {
            let poison = &poison;
            let rank_main = &rank_main;
            let finish = &finish;
            let record_first = &record_first;
            let handle = thread::Builder::new()
                .name(format!("{name_prefix}{rank}"))
                .stack_size(RANK_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    wait_context.enter();
                    match catch_unwind(AssertUnwindSafe(|| rank_main(&mut ctx))) {
                        Ok(result) => Some(finish(ctx, result)),
                        Err(payload) => {
                            record_first(payload);
                            // Only now unblock peers: waiters in `barrier`
                            // abort via the poison, and dropping `ctx` (on
                            // return) closes this rank's mailboxes so
                            // waiters in `recv` abort via `Disconnected` —
                            // strictly after the original panic was
                            // recorded, so theirs can never win.
                            poison();
                            None
                        }
                    }
                })
                .expect("failed to spawn rank thread");
            handles.push(handle);
        }
        for (rank, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(outcome) => outcomes[rank] = outcome,
                // A panic that escaped catch_unwind (can't happen today,
                // but must not be silently dropped if it ever does).
                Err(payload) => record_first(payload),
            }
        }
    });
    if let Some(payload) = first_panic
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        resume_unwind(payload);
    }
    outcomes
        .into_iter()
        .map(|o| o.expect("all ranks completed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wait::{stress_rounds, with_forced_budget, Jitter, REGIMES};
    use std::sync::atomic::AtomicUsize;

    /// A zero-cost barrier whose waiters use `spin`, whatever the host.
    fn barrier(size: usize, spin: SpinBudget) -> Arc<BarrierShared> {
        with_forced_budget(spin, || BarrierShared::new(size, 0.0))
    }

    #[test]
    fn results_in_rank_order() {
        let out = run_ranks(
            "t-",
            vec![0usize, 1, 2],
            || {},
            |rank| *rank * 10,
            |_, result| result,
        );
        assert_eq!(out, vec![0, 10, 20]);
    }

    #[test]
    fn wait_panics_on_poison() {
        // The poison must reach a waiter wherever it is: the jittered
        // pause after its arrival lands it in the spin phase, at the
        // budget's expiry, and parked.
        let panics = |b: &BarrierShared| catch_unwind(AssertUnwindSafe(|| b.wait(VTime::ZERO)));
        let mut jitter = Jitter::new(7);
        for spin in REGIMES {
            for _ in 0..40 {
                let barrier = barrier(2, spin);
                let b2 = Arc::clone(&barrier);
                let waiter = thread::spawn(move || panics(&b2).is_err());
                while barrier.lock().arrived == 0 {
                    thread::yield_now();
                }
                jitter.pause();
                barrier.poison();
                assert!(waiter.join().unwrap(), "the waiter panicked out");
                // A poisoned barrier refuses further arrivals outright.
                assert!(panics(&barrier).is_err());
            }
        }
    }

    #[test]
    fn three_party_barrier_never_loses_a_wakeup() {
        // Every round each party stamps its slot, waits, and checks that
        // both peers have stamped at least this round — and that all three
        // read the same release (the max of the clocks they brought).
        const ROUNDS: usize = stress_rounds(100_000);
        for spin in REGIMES {
            let barrier = barrier(3, spin);
            let stamps: Arc<[AtomicUsize; 3]> = Arc::new(Default::default());
            let parties: Vec<_> = (0..3)
                .map(|me| {
                    let barrier = Arc::clone(&barrier);
                    let stamps = Arc::clone(&stamps);
                    thread::spawn(move || {
                        let mut jitter = Jitter::new(me as u64 + 1);
                        for round in 1..=ROUNDS {
                            jitter.pause();
                            stamps[me].store(round, Ordering::Release);
                            let clock = VTime::from_secs((round * 3 + me) as f64);
                            let release = barrier.wait(clock);
                            assert_eq!(release, VTime::from_secs((round * 3 + 2) as f64));
                            for peer in stamps.iter() {
                                assert!(peer.load(Ordering::Acquire) >= round);
                            }
                        }
                    })
                })
                .collect();
            for party in parties {
                party.join().expect("no party panicked");
            }
        }
    }

    #[test]
    #[should_panic(expected = "first boom")]
    fn first_panic_wins_and_poison_runs() {
        let poisons = AtomicUsize::new(0);
        run_ranks(
            "t-",
            vec![0usize, 1],
            || {
                poisons.fetch_add(1, Ordering::SeqCst);
            },
            |rank| {
                if *rank == 0 {
                    panic!("first boom");
                }
                // Give rank 0 time to record its panic first.
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("second boom");
            },
            |_, ()| (),
        );
    }
}
