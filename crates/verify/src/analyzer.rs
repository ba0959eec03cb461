//! Offline analysis of recorded protocol traces.
//!
//! The analyzer replays every rank's [`RankTrace`] and matches traffic
//! per `(source, destination, tag)` stream — the FIFO unit of the
//! [`Comm`](stance_sim::Comm) contract. Each event's barrier epoch is
//! recomputed from the `Barrier` events preceding it in its trace.

use std::collections::{BTreeMap, BTreeSet};

use stance_sim::Comm;

use crate::audit::TAG_TRACE;
use crate::checked::{PayloadShape, RankTrace, TraceEvent};
use crate::diag::{Diagnostic, DiagnosticKind};

/// A stream key: (sender, receiver, tag value).
type Stream = (usize, usize, u32);

/// Analyzes a full set of per-rank traces and returns every protocol
/// violation found: unmatched sends, receives no in-flight message could
/// satisfy, payload kind/size corruption, barrier arity mismatches, and
/// matched pairs whose receive completed in an earlier barrier epoch
/// than the send was posted in.
pub fn analyze_traces(traces: &[RankTrace]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // Replay each trace once, bucketing events by stream.
    let mut sends: BTreeMap<Stream, Vec<(PayloadShape, u32)>> = BTreeMap::new();
    let mut recvs: BTreeMap<Stream, Vec<(PayloadShape, u32)>> = BTreeMap::new();
    let mut barriers: Vec<(usize, u32)> = Vec::new();
    // (rank, tag) pairs caught using a reserved tag the runtime does not
    // register — one diagnostic per pair, not per event.
    let mut reserved_misuse: BTreeSet<(usize, u32)> = BTreeSet::new();
    for t in traces {
        let mut epoch = 0u32;
        for ev in &t.events {
            let tag_of = match *ev {
                TraceEvent::Send { tag, .. } | TraceEvent::Recv { tag, .. } => Some(tag),
                TraceEvent::Barrier => None,
            };
            if let Some(tag) = tag_of {
                if tag.is_reserved() && !stance_sim::tags::is_runtime_tag(tag) {
                    reserved_misuse.insert((t.rank, tag.0));
                }
            }
            match *ev {
                TraceEvent::Send { dst, tag, shape } => {
                    sends
                        .entry((t.rank, dst, tag.0))
                        .or_default()
                        .push((shape, epoch));
                }
                TraceEvent::Recv { src, tag, shape } => {
                    recvs
                        .entry((src, t.rank, tag.0))
                        .or_default()
                        .push((shape, epoch));
                }
                TraceEvent::Barrier => epoch += 1,
            }
        }
        barriers.push((t.rank, epoch));
    }

    // Reserved-band hygiene: traffic on a reserved tag that is not a
    // registered runtime tag can silently collide with a future runtime
    // protocol — flag it now, while it is still harmless.
    for &(rank, tag) in &reserved_misuse {
        diags.push(
            Diagnostic::new(
                DiagnosticKind::ReservedTagMisuse,
                rank,
                format!(
                    "traffic on reserved tag {tag} which is not a registered runtime \
                     tag (reserved band starts at {}; see stance_sim::tags)",
                    stance_sim::Tag::RESERVED_BASE
                ),
            )
            .with_tag(stance_sim::Tag(tag)),
        );
    }

    // Barrier arity: every rank must have passed the same number of
    // barriers — a rank that skipped one would have hung the run (or
    // consumed a later epoch's signal).
    if let Some(&(first_rank, first)) = barriers.first() {
        for &(rank, count) in &barriers[1..] {
            if count != first {
                diags.push(Diagnostic::new(
                    DiagnosticKind::BarrierArity,
                    rank,
                    format!("passed {count} barriers where rank {first_rank} passed {first}"),
                ));
            }
        }
    }

    // Stream matching: sends and receives pair up FIFO per stream.
    let streams: Vec<Stream> = sends.keys().chain(recvs.keys()).copied().collect();
    let mut seen: Vec<Stream> = Vec::new();
    for key in streams {
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let (src, dst, tag) = key;
        let tag = stance_sim::Tag(tag);
        let empty = Vec::new();
        let s = sends.get(&key).unwrap_or(&empty);
        let r = recvs.get(&key).unwrap_or(&empty);
        for (i, ((s_shape, s_epoch), (r_shape, r_epoch))) in s.iter().zip(r).enumerate() {
            if s_shape != r_shape {
                diags.push(
                    Diagnostic::new(
                        DiagnosticKind::PayloadMismatch,
                        dst,
                        format!(
                            "message {i} from rank {src}: sent {} ({} bytes), \
                             received {} ({} bytes)",
                            s_shape.kind_name(),
                            s_shape.bytes,
                            r_shape.kind_name(),
                            r_shape.bytes
                        ),
                    )
                    .with_peer(src)
                    .with_tag(tag),
                );
            }
            if r_epoch < s_epoch {
                diags.push(
                    Diagnostic::new(
                        DiagnosticKind::EpochCrossing,
                        dst,
                        format!(
                            "message {i} from rank {src} was received in barrier epoch \
                             {r_epoch} but sent in epoch {s_epoch} — the trace is \
                             inconsistent"
                        ),
                    )
                    .with_peer(src)
                    .with_tag(tag),
                );
            }
        }
        if s.len() > r.len() {
            diags.push(
                Diagnostic::new(
                    DiagnosticKind::UnmatchedSend,
                    src,
                    format!(
                        "{} of {} messages to rank {dst} were never received",
                        s.len() - r.len(),
                        s.len()
                    ),
                )
                .with_peer(dst)
                .with_tag(tag),
            );
        }
        if r.len() > s.len() {
            diags.push(
                Diagnostic::new(
                    DiagnosticKind::PhantomRecv,
                    dst,
                    format!(
                        "{} of {} receives from rank {src} have no in-flight message \
                         to satisfy them",
                        r.len() - s.len(),
                        r.len()
                    ),
                )
                .with_peer(src)
                .with_tag(tag),
            );
        }
    }
    diags
}

/// Collective trace analysis: allgathers every rank's serialized trace
/// on [`TAG_TRACE`] and analyzes the full set. Every rank returns the
/// same diagnostics. The allgather itself runs on the *raw* backend —
/// it must not append to the traces being analyzed.
pub fn analyze_collective<C: Comm>(env: &mut C, mine: &RankTrace) -> Vec<Diagnostic> {
    let parts = env.allgather(TAG_TRACE, mine.to_payload());
    let traces: Vec<RankTrace> = parts.into_iter().map(RankTrace::from_payload).collect();
    analyze_traces(&traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::Tag;

    fn shape(bytes: u32) -> PayloadShape {
        PayloadShape { kind: 2, bytes }
    }

    fn send(dst: usize, tag: u32, bytes: u32) -> TraceEvent {
        TraceEvent::Send {
            dst,
            tag: Tag(tag),
            shape: shape(bytes),
        }
    }

    fn recv(src: usize, tag: u32, bytes: u32) -> TraceEvent {
        TraceEvent::Recv {
            src,
            tag: Tag(tag),
            shape: shape(bytes),
        }
    }

    fn traces(a: Vec<TraceEvent>, b: Vec<TraceEvent>) -> Vec<RankTrace> {
        vec![
            RankTrace {
                rank: 0,
                size: 2,
                events: a,
            },
            RankTrace {
                rank: 1,
                size: 2,
                events: b,
            },
        ]
    }

    #[test]
    fn clean_exchange_has_no_diagnostics() {
        let ts = traces(
            vec![send(1, 5, 8), recv(1, 5, 8), TraceEvent::Barrier],
            vec![send(0, 5, 8), recv(0, 5, 8), TraceEvent::Barrier],
        );
        assert_eq!(analyze_traces(&ts), Vec::new());
    }

    #[test]
    fn unmatched_send_names_stream() {
        let ts = traces(vec![send(1, 5, 8), send(1, 5, 8)], vec![recv(0, 5, 8)]);
        let diags = analyze_traces(&ts);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::UnmatchedSend);
        assert_eq!(
            (diags[0].rank, diags[0].peer, diags[0].tag),
            (0, Some(1), Some(Tag(5)))
        );
    }

    #[test]
    fn phantom_recv_names_stream() {
        let ts = traces(vec![send(1, 5, 8)], vec![recv(0, 5, 8), recv(0, 9, 8)]);
        let diags = analyze_traces(&ts);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::PhantomRecv);
        assert_eq!((diags[0].rank, diags[0].tag), (1, Some(Tag(9))));
    }

    #[test]
    fn epoch_crossing_only_flags_the_impossible_direction() {
        // Send in epoch 0, receive in epoch 2: legal (buffered across
        // barriers). Receive in epoch 0 of a message sent in epoch 1:
        // impossible.
        let legal = traces(
            vec![send(1, 5, 8), TraceEvent::Barrier, TraceEvent::Barrier],
            vec![TraceEvent::Barrier, TraceEvent::Barrier, recv(0, 5, 8)],
        );
        assert_eq!(analyze_traces(&legal), Vec::new());

        let impossible = traces(
            vec![TraceEvent::Barrier, send(1, 5, 8)],
            vec![recv(0, 5, 8), TraceEvent::Barrier],
        );
        let diags = analyze_traces(&impossible);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::EpochCrossing);
    }

    #[test]
    fn reserved_tag_misuse_flags_unregistered_reserved_traffic() {
        let stray = Tag::reserved(999).0;
        let ts = traces(vec![send(1, stray, 8)], vec![recv(0, stray, 8)]);
        let diags = analyze_traces(&ts);
        let misuses: Vec<&Diagnostic> = diags
            .iter()
            .filter(|d| d.kind == DiagnosticKind::ReservedTagMisuse)
            .collect();
        // Both the sender and the receiver are flagged, once each.
        assert_eq!(misuses.len(), 2, "{diags:?}");
        assert_eq!(misuses[0].rank, 0);
        assert_eq!(misuses[1].rank, 1);
    }

    #[test]
    fn registered_runtime_tags_are_not_misuse() {
        let load = stance_sim::tags::TAG_LOAD.0;
        let ts = traces(
            vec![send(1, load, 8), recv(1, load, 8)],
            vec![send(0, load, 8), recv(0, load, 8)],
        );
        assert_eq!(analyze_traces(&ts), Vec::new());
    }

    #[test]
    fn barrier_arity_mismatch_names_counts() {
        let ts = traces(
            vec![TraceEvent::Barrier, TraceEvent::Barrier],
            vec![TraceEvent::Barrier],
        );
        let diags = analyze_traces(&ts);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::BarrierArity);
        assert!(diags[0].detail.contains('1') && diags[0].detail.contains('2'));
    }
}
