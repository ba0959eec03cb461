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
//!    (`TAG_HEARTBEAT`), then waits for each peer's heartbeat with a
//!    bounded timeout, retried with exponential backoff per
//!    [`DetectorConfig`]. A peer whose mailbox is closed (it exited) or
//!    that stays silent past the full patience window is *suspected*.
//! 2. **Verdict** — every rank posts its suspicion bitmask to the peers
//!    it believes alive (`TAG_VERDICT`) and folds the masks it receives
//!    into its own. Because every surviving rank's round-1 mask reaches
//!    every other survivor, the folded verdict is **identical on all
//!    survivors**: a collective agreement on who is dead, reached without
//!    any collective primitive.
//!
//! With the verdict in hand, a caller that carries on lists the
//! survivors ([`survivors_of`]), wraps the backend in a
//! [`SurvivorComm`](stance_sim::SurvivorComm), restores the last
//! [`SessionCheckpoint`](crate::SessionCheckpoint) onto the contracted
//! rank space, and continues (`src/scenarios.rs::drive` in the
//! repository root is that loop).
//!
//! False suspicion is possible on a wildly overloaded host (a live rank
//! slower than the whole patience window); the protocol then excludes it
//! like a dead one, which is safe — shrink-recovery never depends on the
//! excluded rank — but wasteful, so patience should comfortably exceed
//! worst-case scheduling noise. The probe supports up to 64 ranks (the
//! verdict travels as one `u64` bitmask).

use stance_sim::tags::{TAG_HEARTBEAT, TAG_VERDICT};
use stance_sim::{Comm, Element, Payload};

/// Failure-detection tuning: how long a silent peer is waited on before
/// it is suspected, and how suspicion is retried before the collective
/// verdict. A dead peer (closed mailbox) is detected immediately
/// regardless of these settings; the timeout exists for the
/// wedged-but-alive case.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Seconds a single heartbeat receive waits before suspecting the
    /// peer (wall clock on the native backend, charged virtual time on
    /// the simulator).
    pub timeout_secs: f64,
    /// How many additional bounded waits a suspected peer is granted
    /// before the suspicion stands.
    pub retries: u32,
    /// Multiplier applied to the timeout on each retry (≥ 1.0): a
    /// transiently slow peer gets geometrically more patience.
    pub backoff: f64,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            timeout_secs: 0.2,
            retries: 2,
            backoff: 2.0,
        }
    }
}

impl DetectorConfig {
    /// Total worst-case seconds one peer can be waited on across the
    /// initial attempt and all retries.
    pub fn total_patience_secs(&self) -> f64 {
        let mut total = 0.0;
        let mut t = self.timeout_secs;
        for _ in 0..=self.retries {
            total += t;
            t *= self.backoff;
        }
        total
    }
}

/// Probes cluster membership: returns `alive[q]` for every rank `q`,
/// **identical on every surviving rank** (see the module docs for the
/// two-round protocol). The caller's own entry is always `true`.
///
/// Terminates in bounded time regardless of who died: every wait is a
/// `recv_deadline` with at most [`DetectorConfig::total_patience_secs`]
/// of patience. Collective among survivors only — dead ranks are
/// neither waited on (past the patience window) nor required to
/// participate.
///
/// # Panics
/// Panics if `det`'s timeout is not finite and positive (a zero or NaN
/// timeout would suspect every peer whose heartbeat is not already
/// queued) or its backoff is below 1.0, if the cluster has more than 64
/// ranks (the verdict bitmask is a `u64`), or if a peer's verdict mask
/// is not exactly one `u64`.
pub fn probe_membership<C: Comm>(env: &mut C, det: &DetectorConfig) -> Vec<bool> {
    // Caller error: every wait needs a finite, positive deadline.
    assert!(
        det.timeout_secs.is_finite() && det.timeout_secs > 0.0,
        "detector timeout must be finite and positive, got {}",
        det.timeout_secs
    );
    // Caller error: retries must not shrink the patience window.
    assert!(
        det.backoff >= 1.0,
        "detector backoff must be at least 1.0, got {}",
        det.backoff
    );
    let p = env.size();
    let me = env.rank();
    // Limit: the verdict travels as one `u64` bitmask.
    assert!(p <= 64, "membership probe supports at most 64 ranks");
    if p == 1 {
        return vec![true];
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
        if q != me && recv_patient(env, q, TAG_HEARTBEAT, det).is_none() {
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
        match recv_patient(env, q, TAG_VERDICT, det) {
            Some(mask) => {
                // A peer's bytes: exactly one `u64`, or a named panic.
                let mut m = [0u64];
                u64::unpack_into(mask.as_bytes(), &mut m);
                verdict |= m[0];
            }
            None => verdict |= 1 << q,
        }
    }
    (0..p).map(|q| q == me || verdict & (1 << q) == 0).collect()
}

/// One bounded wait with the detector's retry/backoff schedule: tries
/// `retries + 1` times, each timeout `backoff` times the previous.
fn recv_patient<C: Comm>(
    env: &mut C,
    src: usize,
    tag: stance_sim::Tag,
    det: &DetectorConfig,
) -> Option<Payload> {
    let mut timeout = det.timeout_secs;
    for _ in 0..=det.retries {
        if let Some(payload) = env.recv_deadline(src, tag, timeout) {
            return Some(payload);
        }
        timeout *= det.backoff;
    }
    None
}

/// The survivor list of a probe verdict: ranks still alive, ascending.
pub fn survivors_of(alive: &[bool]) -> Vec<usize> {
    (0..alive.len()).filter(|&q| alive[q]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::{Cluster, ClusterSpec};

    fn fast_detector() -> DetectorConfig {
        DetectorConfig {
            timeout_secs: 0.05,
            retries: 2,
            backoff: 2.0,
        }
    }

    #[test]
    fn all_alive_probe_is_unanimous() {
        let det = fast_detector();
        let report =
            Cluster::new(ClusterSpec::uniform(4)).run(move |env| probe_membership(env, &det));
        for alive in report.results() {
            assert_eq!(alive, &vec![true; 4]);
        }
    }

    #[test]
    fn survivors_agree_on_a_dead_rank() {
        // Rank 2 exits immediately without participating; the other
        // three must each conclude exactly {0, 1, 3} alive.
        let det = fast_detector();
        let report = Cluster::new(ClusterSpec::uniform(4)).run(move |env| {
            if env.rank() == 2 {
                return Vec::new();
            }
            probe_membership(env, &det)
        });
        let results: Vec<_> = report.into_results();
        for (rank, alive) in results.iter().enumerate() {
            if rank == 2 {
                continue;
            }
            assert_eq!(
                alive,
                &vec![true, true, false, true],
                "rank {rank} verdict diverged"
            );
            assert_eq!(survivors_of(alive), vec![0, 1, 3]);
        }
    }

    /// A verdict mask is a peer's bytes: the probe reads exactly one `u64`
    /// and refuses a longer payload instead of reading its first word.
    #[test]
    #[should_panic(expected = "bulk unpack of 16 bytes into 1 8-byte elements")]
    fn two_word_verdict_mask_is_refused() {
        let det = fast_detector();
        Cluster::new(ClusterSpec::uniform(2)).run(move |env| {
            if env.rank() == 0 {
                probe_membership(env, &det);
            } else {
                env.post(0, TAG_HEARTBEAT, Payload::Empty);
                let _ = env.recv(0, TAG_HEARTBEAT);
                env.post(0, TAG_VERDICT, u64::pack(&[0, 0]));
                let _ = env.recv(0, TAG_VERDICT);
            }
        });
    }

    /// The probe checks the settings it reads: a zero or NaN timeout and
    /// a shrinking backoff are refused with named messages.
    #[test]
    fn unchecked_detector_settings_are_refused() {
        const TIMEOUT: &str = "detector timeout must be finite and positive";
        const BACKOFF: &str = "detector backoff must be at least 1.0";
        let base = fast_detector();
        let cases = [
            (0.0, base.backoff, TIMEOUT),
            (f64::NAN, base.backoff, TIMEOUT),
            (base.timeout_secs, 0.5, BACKOFF),
        ];
        for (timeout_secs, backoff, expected) in cases {
            let det = DetectorConfig {
                timeout_secs,
                backoff,
                ..base
            };
            let refused = std::panic::catch_unwind(|| {
                Cluster::new(ClusterSpec::uniform(2)).run(move |env| probe_membership(env, &det))
            })
            .expect_err("unchecked detector settings must be refused");
            let message = refused.downcast_ref::<String>().expect("a formatted panic");
            assert!(message.starts_with(expected), "{det:?}: {message}");
        }
    }

    #[test]
    fn single_rank_probe_is_trivially_alive() {
        let det = fast_detector();
        let report =
            Cluster::new(ClusterSpec::uniform(1)).run(move |env| probe_membership(env, &det));
        assert_eq!(report.into_results(), vec![vec![true]]);
    }

    #[test]
    fn detector_patience_sums_geometric_backoff() {
        let det = DetectorConfig {
            timeout_secs: 0.1,
            retries: 2,
            backoff: 2.0,
        };
        // 0.1 + 0.2 + 0.4
        assert!((det.total_patience_secs() - 0.7).abs() < 1e-12);
    }
}
