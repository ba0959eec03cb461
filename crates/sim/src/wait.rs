//! How an in-process rank waits: spin briefly on a hint, then park.
//!
//! Every blocking point between threads of one process is one of two
//! wait sites — the mailbox receive and the barrier
//! ([`crate::launch::BarrierShared`], which is also the sweep team's
//! dispatch and join: two rounds per sweep) — and both used to go
//! straight to `Condvar::wait`. When the peer it waits for is *already
//! running on another core* and will deliver within microseconds, that
//! puts the core to sleep and pays a futex (and, in a VM, a hypervisor)
//! wake-up to bring it back: ≈ 20 µs per message on the hosts the
//! benchmark ledger was recorded on, none of it data movement.
//!
//! The contract both sites share:
//!
//! * **Spin, bounded, on a hint.** Before taking the lock a waiter polls a
//!   lock-free *hint* — an atomic the other side stores, under its lock,
//!   whenever the protected state changes in a way a waiter cares about —
//!   for at most a [`SpinBudget`] (and never past the caller's deadline).
//! * **The hint decides nothing.** Whatever the spin saw, the waiter then
//!   takes the lock and reads the real state there; messages, generations,
//!   close/poison/panic flags are only ever acted on under the mutex. A
//!   stale hint costs a little time, never correctness.
//! * **Then park exactly as before**, recording under the lock that it is
//!   parked. The waking side reads that record under the same lock, so it
//!   issues the futex wake only when somebody is actually asleep — and a
//!   waiter that was not yet parked must still take the lock, where it
//!   sees the new state. Lost wake-ups are impossible by the usual
//!   mutex/condvar argument; the atomics are not part of it.
//!
//! # The budget
//!
//! [`SPIN_BUDGET`] is one constant, sized by the classic competitive
//! argument: spinning for as long as one park + wake round trip costs
//! bounds the loss against a clairvoyant waiter at 2×. It drops to **zero**
//! — the wait is then exactly lock → check → `Condvar::wait` — when a
//! cluster (ranks × team lanes) is wider than the host
//! ([`SpinBudget::for_threads`]): a spinner on an oversubscribed core only
//! delays the peer it is waiting for.

use std::cell::Cell;
use std::sync::{Condvar, LockResult, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long a waiter polls its hint before parking: about one park + wake
/// round trip (`native.pingpong_us` ≈ 21 µs and `executor.team_dispatch_us`
/// ≈ 46 µs with bare condvar waits on the 2-vCPU benchmark host, each
/// holding one or two such round trips).
pub const SPIN_BUDGET: Duration = Duration::from_micros(50);

/// A timeout no wait outlives; what an unrepresentable one is clamped to.
const FOREVER: Duration = Duration::from_secs(100 * 365 * 24 * 3600);

/// The spin phase of one wait site, fixed when the site is constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpinBudget(Duration);

/// What the constructing thread knows about the cluster it belongs to.
#[derive(Clone, Copy)]
struct Context {
    /// Ranks of the enclosing in-process cluster (1 outside any).
    ranks: usize,
    /// Test override, see [`with_forced_budget`].
    forced: Option<SpinBudget>,
}

thread_local! {
    static CONTEXT: Cell<Context> = const {
        Cell::new(Context { ranks: 1, forced: None })
    };
}

fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

impl SpinBudget {
    /// No spin phase: lock → check → park, the pre-spin behaviour.
    pub const PARK_ONLY: SpinBudget = SpinBudget(Duration::ZERO);
    /// The full [`SPIN_BUDGET`].
    pub const SPIN: SpinBudget = SpinBudget(SPIN_BUDGET);

    /// The budget for a wait site shared by `threads` threads created on
    /// the calling thread: [`SPIN_BUDGET`] while every thread of the
    /// enclosing cluster can have a core of its own, zero otherwise. On a
    /// rank thread (see [`RankContext`]) `threads` counts per rank, so a
    /// sweep team of `lanes` inside a `p`-rank cluster spins only when
    /// `p × lanes` fits the host.
    pub fn for_threads(threads: usize) -> Self {
        let ctx = CONTEXT.get();
        match ctx.forced {
            Some(forced) => forced,
            None if threads.saturating_mul(ctx.ranks) > host_threads() => SpinBudget::PARK_ONLY,
            None => SpinBudget::SPIN,
        }
    }

    /// Whether the spin phase is skipped altogether.
    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// Polls `ready` until it returns `true`, the budget is spent, or
    /// `deadline` passes — whichever comes first. Returns nothing on
    /// purpose: the caller re-reads the real state under its lock either
    /// way. With a zero budget `ready` is never called.
    pub fn spin_until(self, deadline: Option<Instant>, ready: impl Fn() -> bool) {
        if self.is_zero() || ready() {
            return;
        }
        let mut limit = Instant::now() + self.0;
        if let Some(deadline) = deadline {
            limit = limit.min(deadline);
        }
        loop {
            std::hint::spin_loop();
            if ready() || Instant::now() >= limit {
                return;
            }
        }
    }
}

/// The park phase of a wait: sleeps on `cv` until notified — or, with
/// `remaining` time to a deadline, until that has passed.
pub fn park<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    remaining: Option<Duration>,
) -> LockResult<MutexGuard<'a, T>> {
    match remaining {
        None => cv.wait(guard),
        Some(left) => cv
            .wait_timeout(guard, left)
            .map(|(guard, _timed_out)| guard)
            .map_err(|poisoned| PoisonError::new(poisoned.into_inner().0)),
    }
}

/// The instant `timeout_secs` from now, for the backends' deadline-bounded
/// `Comm` primitives. NaN and negative timeouts mean zero; one too large to
/// represent (`f64::INFINITY`, or past the end of the clock) means "no
/// deadline" and is clamped to a century away instead of overflowing.
pub fn deadline_after(timeout_secs: f64) -> Instant {
    let now = Instant::now();
    Duration::try_from_secs_f64(timeout_secs.max(0.0))
        .ok()
        .and_then(|timeout| now.checked_add(timeout))
        .unwrap_or_else(|| now + FOREVER)
}

/// Carries the launching thread's wait context onto the rank threads it
/// spawns, so wait sites constructed *inside* a rank (its sweep team) know
/// how wide the whole cluster is.
#[derive(Clone, Copy)]
pub struct RankContext(Context);

impl RankContext {
    /// Captured on the launching thread, for a cluster of `ranks` ranks.
    pub fn capture(ranks: usize) -> Self {
        let outer = CONTEXT.get();
        RankContext(Context {
            ranks: ranks.saturating_mul(outer.ranks),
            forced: outer.forced,
        })
    }

    /// Installed on a freshly spawned rank thread (never restored: the
    /// thread ends with the rank).
    pub fn enter(self) {
        CONTEXT.set(self.0);
    }
}

/// Test hook, not API: runs `f` with every wait site constructed on this
/// thread — and on the rank threads of clusters launched from it — forced
/// to `budget`, whatever the host's width. The suites use it to run the
/// same bodies park-only and spinning.
#[doc(hidden)]
pub fn with_forced_budget<R>(budget: SpinBudget, f: impl FnOnce() -> R) -> R {
    struct Restore(Context);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.set(self.0);
        }
    }
    let outer = CONTEXT.get();
    let _restore = Restore(outer);
    CONTEXT.set(Context {
        forced: Some(budget),
        ..outer
    });
    f()
}

/// Both regimes, for tests that run a blocking scenario under each.
#[doc(hidden)]
pub const REGIMES: [SpinBudget; 2] = [SpinBudget::PARK_ONLY, SpinBudget::SPIN];

/// Rounds for the lost-wake-up stress tests: `full` in release builds; a
/// fiftieth of it in debug builds, where tier-1 runs them — a parked round
/// trip costs tens of microseconds whatever the code does — and a handful
/// under Miri's interpreter.
#[doc(hidden)]
pub const fn stress_rounds(full: usize) -> usize {
    if cfg!(miri) {
        full / 2000
    } else if cfg!(debug_assertions) {
        full / 50
    } else {
        full
    }
}

/// Test helper, not API: a seeded stream of pauses that lands a peer's
/// waits in every phase. Most calls return at once (the peer is caught
/// while it still spins); one in sixteen busy-waits for a uniform draw
/// from 0–3× [`SPIN_BUDGET`] — inside the spin phase, right at its expiry,
/// and deep into the park phase.
#[doc(hidden)]
pub struct Jitter(u64);

impl Jitter {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Jitter(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    /// The next pause.
    pub fn pause(&mut self) {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        let draw = self.0.wrapping_mul(0x2545_F491_4F6C_DD1D);
        if draw >> 60 != 0 {
            return;
        }
        let span = 3 * SPIN_BUDGET.as_nanos() as u64;
        let until = Instant::now() + Duration::from_nanos((draw >> 8) % span);
        while Instant::now() < until {
            std::hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn unrepresentable_timeouts_clamp_instead_of_panicking() {
        let now = Instant::now();
        for huge in [f64::INFINITY, f64::MAX, 1.9e19] {
            assert!(deadline_after(huge) > now + Duration::from_secs(3600));
        }
        for zero in [f64::NAN, -1.0, f64::NEG_INFINITY, 0.0] {
            assert!(deadline_after(zero) <= Instant::now());
        }
        let soon = deadline_after(0.25);
        assert!(soon > now + Duration::from_millis(200));
        assert!(soon < now + Duration::from_secs(5));
    }

    #[test]
    fn zero_budget_never_polls() {
        SpinBudget::PARK_ONLY.spin_until(None, || panic!("polled"));
    }

    #[test]
    fn spin_is_bounded_by_budget_and_deadline() {
        let never = AtomicBool::new(false);
        let t0 = Instant::now();
        SpinBudget::SPIN.spin_until(None, || never.load(Ordering::Relaxed));
        assert!(t0.elapsed() >= SPIN_BUDGET);
        // An already-passed deadline cuts the spin to one poll.
        let polls = Cell::new(0u32);
        SpinBudget::SPIN.spin_until(Some(t0), || {
            polls.set(polls.get() + 1);
            false
        });
        assert_eq!(polls.get(), 2, "the entry poll and one in the loop");
    }

    #[test]
    fn width_decides_and_force_overrides() {
        assert_eq!(SpinBudget::for_threads(1), SpinBudget::SPIN);
        assert_eq!(SpinBudget::for_threads(usize::MAX), SpinBudget::PARK_ONLY);
        with_forced_budget(SpinBudget::SPIN, || {
            assert_eq!(SpinBudget::for_threads(usize::MAX), SpinBudget::SPIN);
            // Rank threads inherit the override and multiply the width.
            let ctx = RankContext::capture(4);
            std::thread::spawn(move || {
                ctx.enter();
                assert_eq!(SpinBudget::for_threads(usize::MAX), SpinBudget::SPIN);
            })
            .join()
            .unwrap();
        });
        assert_eq!(SpinBudget::for_threads(usize::MAX), SpinBudget::PARK_ONLY);
        let wide = RankContext::capture(host_threads());
        std::thread::spawn(move || {
            wide.enter();
            assert_eq!(SpinBudget::for_threads(1), SpinBudget::SPIN);
            assert_eq!(SpinBudget::for_threads(2), SpinBudget::PARK_ONLY);
        })
        .join()
        .unwrap();
    }
}
