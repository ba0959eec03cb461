//! Failure detection and the shrink-onto-survivors recovery protocol.
//!
//! The runtime's collectives assume every rank shows up; a dead rank
//! turns them into deadlocks. This module is the escape hatch: a
//! *membership probe* built entirely on the lossy/bounded primitives
//! ([`Comm::post`], [`Comm::recv_deadline`]), so it terminates no matter
//! who died. The probe returns data — who is alive — and the caller
//! decides what a loss means: losing a resource is a routine event for
//! the application's own loop, not a runtime policy.
//!
//! The probe is two rounds:
//!
//! 1. **Heartbeats** — every rank posts a heartbeat to every other rank
//!    (`TAG_HEARTBEAT`), then waits for each peer's heartbeat with one
//!    `recv_deadline` of the caller's patience. A peer whose mailbox is
//!    closed (it exited) or that stays silent past the patience is
//!    *suspected*.
//! 2. **Verdict** — every rank posts its suspicion bitmask to the peers
//!    it believes alive (`TAG_VERDICT`) and folds the masks it receives
//!    into its own. Because every surviving rank's round-1 mask reaches
//!    every other survivor, the folded verdict is **identical on all
//!    survivors**: a collective agreement on who is dead, reached without
//!    any collective primitive.
//!
//! One wait per peer and round is enough: a timed-out `recv_deadline`
//! consumes nothing, so retries would wait no longer in total — they
//! would only add operations for the fault injector to count and, on
//! the simulator, timed-out attempts to charge to the virtual clock.
//!
//! With the verdict in hand — the survivors, ascending — a caller that
//! carries on wraps the backend in a
//! [`SurvivorComm`](stance_sim::SurvivorComm), restores the last
//! [`SessionCheckpoint`](crate::SessionCheckpoint) onto the contracted
//! rank space, and continues (`src/scenarios.rs::drive` in the
//! repository root is that loop).
//!
//! False suspicion is possible on a wildly overloaded host (a live rank
//! slower than the whole patience); the protocol then excludes it like a
//! dead one, which is safe — shrink-recovery never depends on the
//! excluded rank — but wasteful, so the patience should comfortably
//! exceed worst-case scheduling noise. The probe supports up to 64 ranks
//! (the verdict travels as one `u64` bitmask).

use stance_sim::tags::{TAG_HEARTBEAT, TAG_VERDICT};
use stance_sim::{Comm, Element, Payload};

/// Probes cluster membership: returns the surviving ranks in ascending
/// order, this rank included — **identical on every surviving rank**
/// (see the module docs for the two-round protocol). Everyone is alive
/// when the list is `env.size()` long.
///
/// Terminates in bounded time regardless of who died: every wait is one
/// `recv_deadline` of `patience_secs` (wall clock on the native and TCP
/// backends, charged virtual time on the simulator when it expires). A
/// dead peer (closed mailbox, reset socket) is detected at once; the
/// patience exists for the wedged-but-alive case. Collective among
/// survivors only — dead ranks are neither waited on past the patience
/// nor required to participate.
///
/// # Panics
/// Panics if `patience_secs` is not finite and positive (a zero or NaN
/// patience would suspect every peer whose heartbeat is not already
/// queued), if the cluster has more than 64 ranks (the verdict bitmask
/// is a `u64`), or if a peer's verdict mask is not exactly one `u64`.
pub fn probe_membership<C: Comm>(env: &mut C, patience_secs: f64) -> Vec<usize> {
    // Caller error: every wait needs a finite, positive deadline.
    assert!(
        patience_secs.is_finite() && patience_secs > 0.0,
        "detector patience must be finite and positive, got {patience_secs}"
    );
    let p = env.size();
    let me = env.rank();
    // Limit: the verdict travels as one `u64` bitmask.
    assert!(p <= 64, "membership probe supports at most 64 ranks");
    if p == 1 {
        return vec![0];
    }

    // Round 1: heartbeats out, then bounded waits in. Posting *all*
    // heartbeats before waiting on any keeps the round one-pass: by the
    // time the slowest rank starts waiting, every live peer's heartbeat
    // is already in flight.
    for q in 0..p {
        if q != me {
            env.post(q, TAG_HEARTBEAT, Payload::Empty);
        }
    }
    let mut suspected = 0u64;
    for q in 0..p {
        if q != me && env.recv_deadline(q, TAG_HEARTBEAT, patience_secs).is_none() {
            suspected |= 1 << q;
        }
    }

    // Round 2: exchange suspicion masks with believed-alive peers and
    // fold. A peer that answered round 1 but misses round 2 (it died
    // between rounds) is folded in as dead too.
    for q in 0..p {
        if q != me && suspected & (1 << q) == 0 {
            env.post(q, TAG_VERDICT, u64::pack(&[suspected]));
        }
    }
    let mut verdict = suspected;
    for q in 0..p {
        if q == me || suspected & (1 << q) != 0 {
            continue;
        }
        match env.recv_deadline(q, TAG_VERDICT, patience_secs) {
            Some(mask) => {
                // A peer's bytes: exactly one `u64`, or a named panic.
                let mut m = [0u64];
                u64::unpack_into(mask.as_bytes(), &mut m);
                verdict |= m[0];
            }
            None => verdict |= 1 << q,
        }
    }
    (0..p)
        .filter(|&q| q == me || verdict & (1 << q) == 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::{Cluster, ClusterSpec};

    /// Patient enough not to suspect a live peer on a loaded test host.
    const PATIENCE: f64 = 0.35;

    #[test]
    fn all_alive_probe_is_unanimous() {
        let report =
            Cluster::new(ClusterSpec::uniform(4)).run(|env| probe_membership(env, PATIENCE));
        for survivors in report.results() {
            assert_eq!(survivors, &vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn survivors_agree_on_a_dead_rank() {
        // Rank 2 exits immediately without participating; the other
        // three must each conclude exactly {0, 1, 3} alive.
        let report = Cluster::new(ClusterSpec::uniform(4)).run(|env| {
            if env.rank() == 2 {
                return Vec::new();
            }
            probe_membership(env, PATIENCE)
        });
        let results: Vec<_> = report.into_results();
        for (rank, survivors) in results.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert_eq!(survivors, &vec![0, 1, 3], "rank {rank} verdict diverged");
        }
    }

    /// A verdict mask is a peer's bytes: the probe reads exactly one `u64`
    /// and refuses a longer payload instead of reading its first word.
    #[test]
    #[should_panic(expected = "bulk unpack of 16 bytes into 1 8-byte elements")]
    fn two_word_verdict_mask_is_refused() {
        Cluster::new(ClusterSpec::uniform(2)).run(|env| {
            if env.rank() == 0 {
                probe_membership(env, PATIENCE);
            } else {
                env.post(0, TAG_HEARTBEAT, Payload::Empty);
                let _ = env.recv(0, TAG_HEARTBEAT);
                env.post(0, TAG_VERDICT, u64::pack(&[0, 0]));
                let _ = env.recv(0, TAG_VERDICT);
            }
        });
    }

    /// The probe checks the patience it waits with: a zero, negative,
    /// infinite or NaN patience is refused with a named message.
    #[test]
    fn unchecked_patience_is_refused() {
        for patience in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            let refused = std::panic::catch_unwind(|| {
                Cluster::new(ClusterSpec::uniform(2)).run(|env| probe_membership(env, patience))
            })
            .expect_err("an unchecked patience must be refused");
            let message = refused.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                message.starts_with("detector patience must be finite and positive"),
                "{patience}: {message}"
            );
        }
    }

    #[test]
    fn single_rank_probe_is_trivially_alive() {
        let report =
            Cluster::new(ClusterSpec::uniform(1)).run(|env| probe_membership(env, PATIENCE));
        assert_eq!(report.into_results(), vec![vec![0]]);
    }
}
