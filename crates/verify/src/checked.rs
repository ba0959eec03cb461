//! The dynamic protocol checker: a [`TraceHook`] on the one
//! [`Interposed`] communicator records every point-to-point and barrier
//! event into a per-rank [`RankTrace`] — the messages of the collectives
//! included, which are built from those primitives (see [`Interposed`]).
//!
//! Traces are analyzed offline by [`analyze_traces`](crate::analyze_traces)
//! after the run (typically: allgather the serialized traces on
//! [`TAG_TRACE`](crate::TAG_TRACE) or collect them at cluster teardown).

use std::sync::atomic::{AtomicUsize, Ordering};

use stance_sim::{Comm, Element, Payload, Tag};

use crate::interpose::{Hook, Interposed};

/// Global count of [`TraceHook`] constructions, for pinning that
/// verification machinery is never engaged unless enabled (see
/// `tests/alloc_free.rs`).
static CONSTRUCTIONS: AtomicUsize = AtomicUsize::new(0);

/// How many [`TraceHook`]s — the recording half of every [`CheckedComm`]
/// — have been constructed process-wide. Strictly monotone; tests snapshot it before and after a
/// run with verification disabled and assert it did not move.
pub fn checked_comm_constructions() -> usize {
    CONSTRUCTIONS.load(Ordering::Relaxed)
}

/// One recorded communication event. Epochs are not stored: the analyzer
/// recomputes each event's barrier epoch from the `Barrier` events
/// preceding it in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A `send` (or an accepted `post`).
    Send {
        /// Destination rank.
        dst: usize,
        /// Message tag.
        tag: Tag,
        /// Payload size in bytes at the send side.
        bytes: u32,
    },
    /// A completed receive.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// Payload size in bytes at the receive side.
        bytes: u32,
    },
    /// A cluster-wide barrier (advances this rank's epoch).
    Barrier,
}

/// One rank's recorded protocol history. Public fields so negative-path
/// tests can hand-build corrupted traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankTrace {
    /// The recording rank.
    pub rank: usize,
    /// Cluster size at recording time.
    pub size: usize,
    /// Events in program order.
    pub events: Vec<TraceEvent>,
}

impl RankTrace {
    /// An empty trace for `rank` of `size`.
    pub fn new(rank: usize, size: usize) -> Self {
        RankTrace {
            rank,
            size,
            events: Vec::new(),
        }
    }

    /// Serializes the trace to packed `u32` words, four per event (for
    /// gathering traces to one place for analysis).
    pub fn to_payload(&self) -> Payload {
        let mut w: Vec<u32> = Vec::with_capacity(3 + self.events.len() * 4);
        w.push(self.rank as u32);
        w.push(self.size as u32);
        w.push(self.events.len() as u32);
        for ev in &self.events {
            match *ev {
                TraceEvent::Send { dst, tag, bytes } => w.extend([0, dst as u32, tag.0, bytes]),
                TraceEvent::Recv { src, tag, bytes } => w.extend([1, src as u32, tag.0, bytes]),
                TraceEvent::Barrier => w.extend([2, 0, 0, 0]),
            }
        }
        u32::pack(&w)
    }

    /// Decodes a payload produced by [`RankTrace::to_payload`].
    ///
    /// # Panics
    /// Panics on a malformed payload (the trace protocol is internal).
    pub fn from_payload(p: Payload) -> Self {
        let w = u32::unpack(p);
        let rank = w[0] as usize;
        let size = w[1] as usize;
        let count = w[2] as usize;
        let mut events = Vec::with_capacity(count);
        for chunk in w[3..3 + count * 4].chunks_exact(4) {
            let [op, peer, tag, bytes] = [chunk[0], chunk[1], chunk[2], chunk[3]];
            events.push(match op {
                0 => TraceEvent::Send {
                    dst: peer as usize,
                    tag: Tag(tag),
                    bytes,
                },
                1 => TraceEvent::Recv {
                    src: peer as usize,
                    tag: Tag(tag),
                    bytes,
                },
                2 => TraceEvent::Barrier,
                other => panic!("unknown trace opcode {other}"),
            });
        }
        RankTrace { rank, size, events }
    }
}

/// The protocol checker's [`Hook`]: appends every delivered message and
/// every barrier to a borrowed [`RankTrace`]. Construction is counted
/// (see [`checked_comm_constructions`]) so the
/// zero-overhead-when-disabled guarantee is pinnable.
pub struct TraceHook<'a> {
    trace: &'a mut RankTrace,
}

impl<'a> TraceHook<'a> {
    /// A hook appending events to `trace`.
    pub fn new(trace: &'a mut RankTrace) -> Self {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        TraceHook { trace }
    }
}

impl Hook for TraceHook<'_> {
    // `Interposed` calls `sent` for a `post` only once the transport
    // accepted it, and `received` for a `recv_deadline` only when it
    // returned a message: a post refused because the peer died delivered
    // nothing, and a timeout consumed nothing, so recording either would
    // fabricate an `UnmatchedSend` or a `PhantomRecv` in an otherwise
    // clean recovered run. A rank that crashes leaves no event at all.

    fn sent(&mut self, dst: usize, tag: Tag, bytes: u32) {
        self.trace.events.push(TraceEvent::Send { dst, tag, bytes });
    }

    fn received(&mut self, src: usize, tag: Tag, bytes: u32) {
        self.trace.events.push(TraceEvent::Recv { src, tag, bytes });
    }

    fn barrier(&mut self) {
        self.trace.events.push(TraceEvent::Barrier);
    }
}

/// A [`Comm`] that records every point-to-point and barrier event into a
/// borrowed [`RankTrace`] and forwards everything to the wrapped backend:
/// the [`Interposed`] communicator with a [`TraceHook`].
pub type CheckedComm<'a, C> = Interposed<'a, C, TraceHook<'a>>;

impl<'a, C: Comm> CheckedComm<'a, C> {
    /// Wraps `inner`, appending events to `trace`.
    pub fn attach(inner: &'a mut C, trace: &'a mut RankTrace) -> Self {
        Interposed::new(inner, TraceHook::new(trace))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{Mutex, MutexGuard, PoisonError};

    use stance_sim::cluster::{Cluster, ClusterSpec};

    use super::*;

    #[test]
    fn trace_payload_round_trips() {
        let mut t = RankTrace::new(1, 4);
        t.events.push(TraceEvent::Send {
            dst: 2,
            tag: Tag(7),
            bytes: 24,
        });
        t.events.push(TraceEvent::Barrier);
        t.events.push(TraceEvent::Recv {
            src: 0,
            tag: Tag(3),
            bytes: 8,
        });
        assert_eq!(RankTrace::from_payload(t.to_payload()), t);
    }

    /// Serialises the tests that construct a [`TraceHook`], so the
    /// construction-counter test sees only its own.
    fn counter_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn construction_counter_moves_only_when_attached() {
        let _serial = counter_lock();
        Cluster::new(ClusterSpec::uniform(1)).run(|env| {
            let before = checked_comm_constructions();
            Interposed::new(&mut *env, None::<TraceHook<'_>>).send(0, Tag(1), Payload::Empty);
            assert_eq!(checked_comm_constructions(), before);
            let mut trace = RankTrace::new(0, 1);
            Interposed::new(env, Some(TraceHook::new(&mut trace))).send(0, Tag(1), Payload::Empty);
            assert_eq!(checked_comm_constructions(), before + 1);
            assert_eq!(trace.events.len(), 1);
        });
    }

    #[test]
    fn a_dead_peer_leaves_no_trace_event() {
        let _serial = counter_lock();
        let report = Cluster::new(ClusterSpec::uniform(2)).run(|env| {
            let mut trace = RankTrace::new(env.rank(), env.size());
            if env.rank() == 0 {
                // Rank 1 returns at once, closing its mailboxes.
                let mut checked = CheckedComm::attach(env, &mut trace);
                assert!(checked.recv_deadline(1, Tag(5), 30.0).is_none());
                assert!(!checked.post(1, Tag(5), u32::pack(&[1])));
            }
            trace
        });
        for trace in report.results() {
            assert_eq!(trace.events, [], "rank {} recorded a message", trace.rank);
        }
    }
}
