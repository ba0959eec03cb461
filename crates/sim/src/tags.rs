//! The registry of runtime-internal reserved tags.
//!
//! Every internal protocol of the runtime library sends on a tag in the
//! reserved band (`Tag::RESERVED_BASE ..`), and every such tag is listed
//! **here** — one documented module, so the band is auditable at a glance
//! and the protocol checker can diagnose traffic on a reserved tag that no
//! runtime protocol owns (a user application straying into the band, or a
//! runtime component inventing an unregistered tag).
//!
//! | Offset | Const | Protocol |
//! |--------|-------|----------|
//! | 16 | [`TAG_SCHED_QUERY`] | inspector: ghost-owner queries |
//! | 17 | [`TAG_SCHED_REPLY`] | inspector: ghost-owner replies |
//! | 18 | [`TAG_SCHED_REQUEST`] | inspector: send-list requests |
//! | 32 | [`TAG_GATHER`] | executor: ghost-value gather |
//! | 34 | [`TAG_GATHER_FUSED`] | executor: fused multi-field ghost gather |
//! | 48 | [`TAG_REDIST_VALUES`] | redistribution: coalesced value blocks |
//! | 49 | [`TAG_REDIST_ADJ`] | redistribution: adjacency rows |
//! | 50 | [`TAG_LOAD`] | load balancing: per-item time gather |
//! | 51 | [`TAG_DECISION`] | load balancing: decision broadcast |
//! | 64 | [`TAG_AUDIT`] | verifier: schedule-summary allgather |
//! | 65 | [`TAG_TRACE`] | verifier: protocol-trace allgather |
//! | 66 | [`TAG_HEARTBEAT`] | failure detection: liveness probes |
//! | 67 | [`TAG_VERDICT`] | failure detection: suspicion exchange |
//! | 68 | [`TAG_CHECKPOINT`] | checkpoint: replicated state allgather |
//! | 69 | [`TAG_SHRINK`] | survivor communicator: dissemination barrier |
//! | 70 | [`TAG_TCP_BARRIER`] | TCP backend: dissemination barrier |

use crate::payload::Tag;

/// Inspector (simple strategy): ghost-owner query messages.
pub const TAG_SCHED_QUERY: Tag = Tag::reserved(16);

/// Inspector (simple strategy): ghost-owner reply messages.
pub const TAG_SCHED_REPLY: Tag = Tag::reserved(17);

/// Inspector (simple strategy): send-list request messages.
pub const TAG_SCHED_REQUEST: Tag = Tag::reserved(18);

/// Executor: the ghost-value gather that precedes each sweep.
pub const TAG_GATHER: Tag = Tag::reserved(32);

/// Executor: the fused multi-field ghost gather — one message per
/// neighbor carrying the concatenated ghost segments of every field a
/// stage graph exchanges at the same dataflow point.
pub const TAG_GATHER_FUSED: Tag = Tag::reserved(34);

/// Redistribution: coalesced value-block messages (`RemapScratch`).
pub const TAG_REDIST_VALUES: Tag = Tag::reserved(48);

/// Redistribution: adjacency-row messages (`RemapScratch`).
pub const TAG_REDIST_ADJ: Tag = Tag::reserved(49);

/// Load balancing: per-item compute-time gather to the controller.
pub const TAG_LOAD: Tag = Tag::reserved(50);

/// Load balancing: the controller's decision broadcast.
pub const TAG_DECISION: Tag = Tag::reserved(51);

/// Verifier: the static audit's schedule-summary allgather.
pub const TAG_AUDIT: Tag = Tag::reserved(64);

/// Verifier: the protocol checker's trace allgather.
pub const TAG_TRACE: Tag = Tag::reserved(65);

/// Failure detection: heartbeat probes between suspicious ranks.
pub const TAG_HEARTBEAT: Tag = Tag::reserved(66);

/// Failure detection: the suspicion-bitmask exchange that turns local
/// timeouts into a collective verdict.
pub const TAG_VERDICT: Tag = Tag::reserved(67);

/// Checkpoint: the allgather replicating session recovery state.
pub const TAG_CHECKPOINT: Tag = Tag::reserved(68);

/// Survivor communicator: the rounds of its
/// [`dissemination_barrier`](crate::comm::dissemination_barrier) among
/// surviving ranks (the backend's own barrier would hang on the dead).
pub const TAG_SHRINK: Tag = Tag::reserved(69);

/// TCP process backend: the rounds of its
/// [`dissemination_barrier`](crate::comm::dissemination_barrier). Rides
/// the ordinary framed message stream so data-vs-barrier FIFO order per
/// peer pair is the socket's own order.
pub const TAG_TCP_BARRIER: Tag = Tag::reserved(70);

/// All registered runtime tags (the full contents of the table above).
pub const RUNTIME_TAGS: &[Tag] = &[
    TAG_SCHED_QUERY,
    TAG_SCHED_REPLY,
    TAG_SCHED_REQUEST,
    TAG_GATHER,
    TAG_GATHER_FUSED,
    TAG_REDIST_VALUES,
    TAG_REDIST_ADJ,
    TAG_LOAD,
    TAG_DECISION,
    TAG_AUDIT,
    TAG_TRACE,
    TAG_HEARTBEAT,
    TAG_VERDICT,
    TAG_CHECKPOINT,
    TAG_SHRINK,
    TAG_TCP_BARRIER,
];

/// Whether `tag` is a **registered** runtime-internal tag. Reserved-band
/// tags that are *not* registered here are protocol violations — the
/// trace analyzer reports them as `ReservedTagMisuse`.
#[inline]
pub fn is_runtime_tag(tag: Tag) -> bool {
    RUNTIME_TAGS.contains(&tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_tag_is_in_the_reserved_band() {
        for &t in RUNTIME_TAGS {
            assert!(t.is_reserved(), "{t:?} is registered but not reserved");
        }
    }

    #[test]
    fn registry_has_no_duplicates() {
        for (i, a) in RUNTIME_TAGS.iter().enumerate() {
            for b in &RUNTIME_TAGS[i + 1..] {
                assert_ne!(a, b, "duplicate registry entry");
            }
        }
    }

    #[test]
    fn membership() {
        assert!(is_runtime_tag(TAG_AUDIT));
        assert!(is_runtime_tag(TAG_HEARTBEAT));
        assert!(!is_runtime_tag(Tag(7)));
        assert!(!is_runtime_tag(Tag::reserved(200)));
    }
}
