//! Deterministic fault injection: a [`Comm`] wrapper that kills, wedges,
//! or stalls a rank at a planned operation count.
//!
//! [`FaultyComm`] is the [`Interposed`] communicator with a [`FaultHook`]
//! — the destructive sibling of [`CheckedComm`](crate::CheckedComm)'s
//! [`TraceHook`](crate::TraceHook): where the checker's [`Hook`] records
//! the protocol, the injector's breaks it — on purpose, at a
//! *reproducible* point. Every communication operation the wrapped rank
//! performs advances an operation counter;
//! when the counter crosses a planned [`FaultEvent`] the fault fires:
//!
//! * [`FaultKind::Kill`] — the rank dies abruptly: an [`InjectedFault`]
//!   panic unwinds out of the communication call. The SPMD closure
//!   catches it with [`catch_fault`] and returns early, which closes the
//!   rank's mailboxes — the *cooperative death* peers then observe as an
//!   instant `Disconnected` on [`Comm::recv_deadline`] / [`Comm::post`].
//! * [`FaultKind::Wedge`] — the rank goes silent but stays alive: the
//!   same panic fires, but the catcher is expected to *hold its comm
//!   handle open* (sleep past the detection window) before returning, so
//!   peers see timeouts rather than a closed mailbox — the hard
//!   detection case.
//! * [`FaultKind::Stall`] — the rank survives but every subsequent
//!   operation is delayed by the configured time (charged to the virtual
//!   clock on the simulator, slept in wall time on native threads). No
//!   recovery triggers; the run just degrades.
//!
//! The plan is pure data ([`FaultPlan`]), keyed by rank and operation
//! count — not wall time — so the same plan reproduces the same fault at
//! the same protocol point on both backends, every run.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use stance_sim::Comm;

use crate::interpose::{Hook, Interposed};

/// What an injected fault does to the victim rank. See the module
/// docs for the observable consequences of each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Abrupt death: unwind out of the communication call; the catcher
    /// returns early and the rank's mailboxes close.
    Kill,
    /// Silent wedge: unwind out of the call, but the catcher keeps the
    /// rank alive (mailboxes open) past the detection window.
    Wedge,
    /// Slowdown: every operation from the trigger on is delayed by this
    /// many seconds.
    Stall {
        /// Per-operation delay, in seconds.
        delay_secs: f64,
    },
}

/// One planned fault: `kind` fires on `rank`'s first communication
/// operation *after* it has completed `after_ops` of them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// The victim rank (in the wrapped comm's rank space).
    pub rank: usize,
    /// How many operations the victim completes before the fault fires.
    pub after_ops: u64,
    /// What happens when it fires.
    pub kind: FaultKind,
}

/// A reproducible fault schedule: a list of [`FaultEvent`]s. Pure data —
/// cloneable, comparable, and identical in effect on both backends.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no fault ever fires. A [`FaultyComm`] driven by
    /// this plan is a pure pass-through (and allocation-free per
    /// operation — pinned by `tests/alloc_free.rs`).
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// Plan that kills `rank` after it completes `after_ops` operations.
    pub fn kill(rank: usize, after_ops: u64) -> Self {
        FaultPlan::none().with_event(FaultEvent {
            rank,
            after_ops,
            kind: FaultKind::Kill,
        })
    }

    /// Plan that wedges `rank` after it completes `after_ops` operations.
    pub fn wedge(rank: usize, after_ops: u64) -> Self {
        FaultPlan::none().with_event(FaultEvent {
            rank,
            after_ops,
            kind: FaultKind::Wedge,
        })
    }

    /// Plan that stalls `rank`'s every operation by `delay_secs` once it
    /// has completed `after_ops` of them.
    pub fn stall(rank: usize, after_ops: u64, delay_secs: f64) -> Self {
        assert!(
            delay_secs >= 0.0 && delay_secs.is_finite(),
            "stall delay must be finite and non-negative, got {delay_secs}"
        );
        FaultPlan::none().with_event(FaultEvent {
            rank,
            after_ops,
            kind: FaultKind::Stall { delay_secs },
        })
    }

    /// Adds an event to the plan (builder style).
    pub fn with_event(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// A deterministic pseudo-random single-fault plan for a cluster of
    /// `size` ranks: the victim, trigger point (within `horizon_ops`
    /// operations), and fault kind all derive from `seed` via a xorshift
    /// generator — the same seed always produces the same plan. The seed
    /// is mixed (a splitmix64 finaliser, a bijection) before it becomes
    /// the generator's state, so distinct seeds start distinct streams.
    pub fn randomized(seed: u64, size: usize, horizon_ops: u64) -> Self {
        assert!(size > 0, "cluster must have at least one rank");
        let mut s = splitmix64(seed).max(1); // xorshift state must be nonzero
        s = xorshift64(s);
        let rank = (s % size as u64) as usize;
        s = xorshift64(s);
        let after_ops = s % horizon_ops.max(1);
        s = xorshift64(s);
        let kind = match s % 3 {
            0 => FaultKind::Kill,
            1 => FaultKind::Wedge,
            _ => FaultKind::Stall {
                delay_secs: 1e-3 * ((s >> 8) % 10 + 1) as f64,
            },
        };
        FaultPlan::none().with_event(FaultEvent {
            rank,
            after_ops,
            kind,
        })
    }

    /// The planned events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn xorshift64(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// The panic payload an injected [`FaultKind::Kill`] or
/// [`FaultKind::Wedge`] unwinds with. Catch it at the SPMD closure
/// boundary with [`catch_fault`]; anything else unwinding through that
/// catch is a genuine bug and is re-raised.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectedFault {
    /// The rank the fault fired on.
    pub rank: usize,
    /// The victim's operation count when it fired (the fault fired *on*
    /// this operation; it did not complete).
    pub op: u64,
    /// The fault that fired ([`FaultKind::Kill`] or [`FaultKind::Wedge`];
    /// stalls never unwind).
    pub kind: FaultKind,
}

/// Runs `f`, converting an [`InjectedFault`] unwind into `Err(fault)`.
/// Any other panic is resumed untouched — only *injected* faults are
/// survivable; real bugs still fail the run (and, on the simulator,
/// poison the barrier exactly as before).
pub fn catch_fault<R>(f: impl FnOnce() -> R) -> Result<R, InjectedFault> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => Ok(r),
        Err(payload) => match payload.downcast::<InjectedFault>() {
            Ok(fault) => Err(*fault),
            Err(other) => resume_unwind(other),
        },
    }
}

/// The fault injector's [`Hook`]: counts every communication operation
/// and fires the events a [`FaultPlan`] schedules for this rank.
///
/// Ranks with no planned events pay one counter increment and one
/// comparison per operation — no allocation, no behavioural change.
/// Collectives count as **one** operation each (they are opaque to every
/// hook), so a plan's `after_ops` means the same thing whether the
/// program uses collectives or spells them out. `crash` is how an
/// injected kill reaches the backend and `compute` is not a protocol
/// action, so neither advances the counter.
pub struct FaultHook {
    /// Operations completed (or faulted on) so far.
    ops: u64,
    /// This rank's planned events, sorted by trigger point, soonest last
    /// (so the next event is `schedule.last()` and firing is a `pop`).
    schedule: Vec<FaultEvent>,
    /// Active per-operation stall, seconds (0 = none).
    stall_secs: f64,
}

impl Hook for FaultHook {
    /// Counts one operation, firing any fault scheduled at this point.
    /// Kill/Wedge unwind with an [`InjectedFault`]; a stall arms the
    /// per-operation delay and charges it from this operation on.
    fn before<C: Comm>(&mut self, inner: &mut C) {
        let op = self.ops;
        self.ops += 1;
        while let Some(&event) = self.schedule.last() {
            if op < event.after_ops {
                break;
            }
            self.schedule.pop();
            match event.kind {
                FaultKind::Stall { delay_secs } => self.stall_secs = delay_secs,
                kind @ (FaultKind::Kill | FaultKind::Wedge) => {
                    if kind == FaultKind::Kill {
                        // A backend that can die for real (one OS process
                        // per rank) does so here and never returns; the
                        // in-process backends report `false` and the kill
                        // falls back to the panic-unwind below.
                        let _ = inner.crash();
                    }
                    std::panic::panic_any(InjectedFault {
                        rank: inner.rank(),
                        op,
                        kind,
                    });
                }
            }
        }
        if self.stall_secs > 0.0 {
            // Virtual-clock backends charge the delay; wall-clock
            // backends live it. (`compute` is a no-op on native, sleep
            // is invisible to the simulator's clock — both paths are
            // charged exactly once.)
            inner.compute(self.stall_secs);
            std::thread::sleep(std::time::Duration::from_secs_f64(self.stall_secs));
        }
    }
}

/// A [`Comm`] wrapper that injects the faults a [`FaultPlan`] schedules
/// for this rank, and otherwise forwards every operation unchanged: the
/// [`Interposed`] communicator with a [`FaultHook`].
pub type FaultyComm<'a, C> = Interposed<'a, C, FaultHook>;

impl<'a, C: Comm> FaultyComm<'a, C> {
    /// Wraps `inner`, arming whatever events `plan` schedules for its
    /// rank.
    pub fn attach(inner: &'a mut C, plan: &FaultPlan) -> Self {
        let rank = inner.rank();
        let mut schedule: Vec<FaultEvent> = plan
            .events()
            .iter()
            .filter(|e| e.rank == rank)
            .copied()
            .collect();
        schedule.sort_by_key(|e| e.after_ops);
        schedule.reverse();
        let hook = FaultHook {
            ops: 0,
            schedule,
            stall_secs: 0.0,
        };
        Interposed::new(inner, hook)
    }

    /// Operations this rank has performed through the wrapper.
    pub fn ops(&self) -> u64 {
        self.hook.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::cluster::{Cluster, ClusterSpec};
    use stance_sim::{Payload, Tag};

    #[test]
    fn randomized_plans_are_seed_deterministic() {
        let a = FaultPlan::randomized(42, 4, 100);
        let b = FaultPlan::randomized(42, 4, 100);
        assert_eq!(a, b);
        assert_eq!(a.events().len(), 1);
        assert!(a.events()[0].rank < 4);
        assert!(a.events()[0].after_ops < 100);
        // Neighbouring seeds start distinct streams (a mix that drops the
        // low bit would map 2k and 2k + 1 to the same plan).
        assert_ne!(a.events(), FaultPlan::randomized(43, 4, 100).events());
        let differing = (0..100u64)
            .filter(|k| {
                FaultPlan::randomized(2 * k, 4, 100) != FaultPlan::randomized(2 * k + 1, 4, 100)
            })
            .count();
        assert!(differing >= 90, "only {differing} of 100 seed pairs differ");
    }

    #[test]
    fn kill_fires_at_the_planned_op_and_is_catchable() {
        let report = Cluster::new(ClusterSpec::uniform(2)).run(|env| {
            let plan = FaultPlan::kill(1, 2);
            let rank = env.rank();
            let outcome = catch_fault(|| {
                let mut comm = FaultyComm::attach(env, &plan);
                // ops 0, 1: survive. Rank 1's op 2 fires.
                comm.post(rank ^ 1, Tag(5), Payload::from_u64(vec![1]));
                comm.recv_deadline(rank ^ 1, Tag(5), 1.0);
                comm.post(rank ^ 1, Tag(5), Payload::from_u64(vec![2]));
                comm.ops()
            });
            match outcome {
                Ok(ops) => {
                    assert_eq!(rank, 0, "only rank 0 survives");
                    assert_eq!(ops, 3);
                    0u64
                }
                Err(fault) => {
                    assert_eq!(rank, 1);
                    assert_eq!(fault.rank, 1);
                    assert_eq!(fault.op, 2);
                    assert_eq!(fault.kind, FaultKind::Kill);
                    1u64
                }
            }
        });
        let outcomes: Vec<u64> = report.results().copied().collect();
        assert_eq!(outcomes, vec![0, 1]);
    }

    #[test]
    fn empty_plan_is_a_pass_through() {
        let report = Cluster::new(ClusterSpec::uniform(2)).run(|env| {
            let plan = FaultPlan::none();
            let peer = env.rank() ^ 1;
            let mut comm = FaultyComm::attach(env, &plan);
            comm.send(peer, Tag(3), Payload::from_u64(vec![comm.rank() as u64]));
            let got = comm.recv(peer, Tag(3)).into_u64()[0];
            comm.barrier();
            assert_eq!(comm.ops(), 3);
            got
        });
        let got: Vec<u64> = report.results().copied().collect();
        assert_eq!(got, vec![1, 0]);
    }

    #[test]
    fn stall_charges_virtual_time() {
        let report = Cluster::new(ClusterSpec::uniform(1)).run(|env| {
            let plan = FaultPlan::stall(0, 1, 0.001);
            let mut comm = FaultyComm::attach(env, &plan);
            comm.barrier(); // op 0: clean
            comm.barrier(); // op 1: stall arms and charges
            comm.barrier(); // op 2: charged again
            comm.now_secs()
        });
        let t = report.ranks[0].result;
        assert!(t >= 0.002, "two stalled ops must charge 2ms, got {t}");
    }

    #[test]
    fn foreign_panics_pass_through_catch_fault() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            catch_fault(|| panic!("a genuine bug")).ok();
        }));
        assert!(caught.is_err(), "non-fault panic must be re-raised");
    }
}
