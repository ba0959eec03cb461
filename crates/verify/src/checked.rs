//! The dynamic protocol checker: a [`Comm`] wrapper that records every
//! point-to-point and barrier event into a per-rank [`RankTrace`].
//!
//! [`CheckedComm`] forwards **every** trait method to the wrapped
//! backend explicitly — relying on the trait defaults would silently
//! bypass backend overrides (the simulator's multicast cost accounting,
//! the TCP backend's process-killing `crash`) and change behaviour under
//! test, which is exactly what a checker must not do. Collectives are
//! delegated *untraced*: their data movement is the backend's own
//! (already covered by the conformance suite), and leaving them out keeps
//! a checked run's messages and clocks identical to an unchecked run —
//! the bitwise-equivalence tests hold with verification enabled for free.
//!
//! Traces are analyzed offline by [`analyze_traces`](crate::analyze_traces)
//! after the run (typically: allgather the serialized traces on
//! [`TAG_TRACE`](crate::TAG_TRACE) or collect them at cluster teardown).

use std::sync::atomic::{AtomicUsize, Ordering};

use stance_sim::{Comm, Payload, Tag};

/// Global count of [`CheckedComm`] constructions, for pinning that
/// verification machinery is never engaged unless enabled (see
/// `tests/alloc_free.rs`).
static CONSTRUCTIONS: AtomicUsize = AtomicUsize::new(0);

/// How many [`CheckedComm`] wrappers have been constructed
/// process-wide. Strictly monotone; tests snapshot it before and after a
/// run with verification disabled and assert it did not move.
pub fn checked_comm_constructions() -> usize {
    CONSTRUCTIONS.load(Ordering::Relaxed)
}

/// The shape of a payload as the analyzer compares it: the variant and
/// its length in bytes. Enough to catch kind and size corruption without
/// hauling the data itself through the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PayloadShape {
    /// Payload variant discriminant (0 = Empty, 1 = F64, 2 = U32,
    /// 3 = U64, 4 = Bytes).
    pub kind: u8,
    /// Payload size in bytes.
    pub bytes: u32,
}

impl PayloadShape {
    /// The shape of `p`.
    pub fn of(p: &Payload) -> Self {
        let kind = match p {
            Payload::Empty => 0,
            Payload::F64(_) => 1,
            Payload::U32(_) => 2,
            Payload::U64(_) => 3,
            Payload::Bytes(_) => 4,
        };
        PayloadShape {
            kind,
            bytes: p.size_bytes() as u32,
        }
    }

    /// The variant's name, for diagnostics.
    pub fn kind_name(self) -> &'static str {
        match self.kind {
            0 => "Empty",
            1 => "F64",
            2 => "U32",
            3 => "U64",
            _ => "Bytes",
        }
    }
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
        /// Payload shape at the send side.
        shape: PayloadShape,
    },
    /// A completed receive.
    Recv {
        /// Source rank.
        src: usize,
        /// Message tag.
        tag: Tag,
        /// Payload shape at the receive side.
        shape: PayloadShape,
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

    /// Serializes the trace to a `u32` payload (for gathering traces to
    /// one place for analysis).
    pub fn to_payload(&self) -> Payload {
        let mut w: Vec<u32> = Vec::with_capacity(3 + self.events.len() * 5);
        w.push(self.rank as u32);
        w.push(self.size as u32);
        w.push(self.events.len() as u32);
        for ev in &self.events {
            match *ev {
                TraceEvent::Send { dst, tag, shape } => {
                    w.extend([0, dst as u32, tag.0, u32::from(shape.kind), shape.bytes]);
                }
                TraceEvent::Recv { src, tag, shape } => {
                    w.extend([1, src as u32, tag.0, u32::from(shape.kind), shape.bytes]);
                }
                TraceEvent::Barrier => w.extend([2, 0, 0, 0, 0]),
            }
        }
        Payload::from_u32(w)
    }

    /// Decodes a payload produced by [`RankTrace::to_payload`].
    ///
    /// # Panics
    /// Panics on a malformed payload (the trace protocol is internal).
    pub fn from_payload(p: Payload) -> Self {
        let w = p.into_u32();
        let rank = w[0] as usize;
        let size = w[1] as usize;
        let count = w[2] as usize;
        let mut events = Vec::with_capacity(count);
        for chunk in w[3..3 + count * 5].chunks_exact(5) {
            let [op, peer, tag, kind, bytes] = [chunk[0], chunk[1], chunk[2], chunk[3], chunk[4]];
            let shape = PayloadShape {
                kind: kind as u8,
                bytes,
            };
            events.push(match op {
                0 => TraceEvent::Send {
                    dst: peer as usize,
                    tag: Tag(tag),
                    shape,
                },
                1 => TraceEvent::Recv {
                    src: peer as usize,
                    tag: Tag(tag),
                    shape,
                },
                2 => TraceEvent::Barrier,
                other => panic!("unknown trace opcode {other}"),
            });
        }
        RankTrace { rank, size, events }
    }
}

/// A [`Comm`] that records every point-to-point and barrier event into a
/// borrowed [`RankTrace`] and forwards everything to the wrapped
/// backend. Construction is counted (see [`checked_comm_constructions`])
/// so the zero-overhead-when-disabled guarantee is pinnable.
pub struct CheckedComm<'a, C: Comm> {
    inner: &'a mut C,
    trace: &'a mut RankTrace,
}

impl<'a, C: Comm> CheckedComm<'a, C> {
    /// Wraps `inner`, appending events to `trace`.
    pub fn attach(inner: &'a mut C, trace: &'a mut RankTrace) -> Self {
        CONSTRUCTIONS.fetch_add(1, Ordering::Relaxed);
        CheckedComm { inner, trace }
    }
}

impl<C: Comm> Comm for CheckedComm<'_, C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn compute(&mut self, work: f64) {
        self.inner.compute(work);
    }

    fn now_secs(&self) -> f64 {
        self.inner.now_secs()
    }

    fn send(&mut self, dst: usize, tag: Tag, payload: Payload) {
        self.trace.events.push(TraceEvent::Send {
            dst,
            tag,
            shape: PayloadShape::of(&payload),
        });
        self.inner.send(dst, tag, payload);
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Payload {
        let payload = self.inner.recv(src, tag);
        self.trace.events.push(TraceEvent::Recv {
            src,
            tag,
            shape: PayloadShape::of(&payload),
        });
        payload
    }

    fn barrier(&mut self) {
        self.trace.events.push(TraceEvent::Barrier);
        self.inner.barrier();
    }

    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        // Recorded as an ordinary send only when the transport accepted
        // it: a post refused because the peer died delivered nothing, so
        // tracing it would fabricate an `UnmatchedSend` in an otherwise
        // clean recovered run.
        let shape = PayloadShape::of(&payload);
        let delivered = self.inner.post(dst, tag, payload);
        if delivered {
            self.trace.events.push(TraceEvent::Send { dst, tag, shape });
        }
        delivered
    }

    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        // Dual of `post`: only a delivered message becomes a `Recv`
        // event. A timeout consumed nothing, so recording it would
        // fabricate a `PhantomRecv`.
        let payload = self.inner.recv_deadline(src, tag, timeout_secs)?;
        self.trace.events.push(TraceEvent::Recv {
            src,
            tag,
            shape: PayloadShape::of(&payload),
        });
        Some(payload)
    }

    fn crash(&mut self) -> bool {
        // Untraced: a rank that dies abruptly leaves no trace event (and
        // on a process backend this call never returns at all).
        self.inner.crash()
    }

    // Collectives delegate untraced (see the module docs): the wrapped
    // backend's own (possibly overridden) implementations run, so a
    // checked run moves exactly the bytes an unchecked run moves.

    fn multicast(&mut self, dsts: &[usize], tag: Tag, payload: Payload) {
        self.inner.multicast(dsts, tag, payload);
    }

    fn bcast_from(&mut self, root: usize, tag: Tag, payload: Payload) -> Payload {
        self.inner.bcast_from(root, tag, payload)
    }

    fn gather_to(&mut self, root: usize, tag: Tag, payload: Payload) -> Option<Vec<Payload>> {
        self.inner.gather_to(root, tag, payload)
    }

    fn allgather(&mut self, tag: Tag, payload: Payload) -> Vec<Payload> {
        self.inner.allgather(tag, payload)
    }

    fn allreduce_f64(&mut self, tag: Tag, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        self.inner.allreduce_f64(tag, value, op)
    }
}

/// A backend that is either plain or checked, decided at runtime — the
/// session's way of wrapping its communication behind one code path
/// without constructing a [`CheckedComm`] (or touching the construction
/// counter) when verification is off.
pub enum MaybeChecked<'a, C: Comm> {
    /// Verification off: the raw backend.
    Plain(&'a mut C),
    /// Verification on: every event recorded.
    Checked(CheckedComm<'a, C>),
}

impl<'a, C: Comm> MaybeChecked<'a, C> {
    /// Wraps `inner`, checked iff a trace is supplied.
    pub fn new(inner: &'a mut C, trace: Option<&'a mut RankTrace>) -> Self {
        match trace {
            Some(t) => MaybeChecked::Checked(CheckedComm::attach(inner, t)),
            None => MaybeChecked::Plain(inner),
        }
    }
}

macro_rules! forward {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            MaybeChecked::Plain($inner) => $e,
            MaybeChecked::Checked($inner) => $e,
        }
    };
}

impl<C: Comm> Comm for MaybeChecked<'_, C> {
    fn rank(&self) -> usize {
        forward!(self, c => c.rank())
    }

    fn size(&self) -> usize {
        forward!(self, c => c.size())
    }

    fn compute(&mut self, work: f64) {
        forward!(self, c => c.compute(work));
    }

    fn now_secs(&self) -> f64 {
        forward!(self, c => c.now_secs())
    }

    fn send(&mut self, dst: usize, tag: Tag, payload: Payload) {
        forward!(self, c => c.send(dst, tag, payload));
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Payload {
        forward!(self, c => c.recv(src, tag))
    }

    fn barrier(&mut self) {
        forward!(self, c => c.barrier());
    }

    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        forward!(self, c => c.post(dst, tag, payload))
    }

    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        forward!(self, c => c.recv_deadline(src, tag, timeout_secs))
    }

    fn crash(&mut self) -> bool {
        forward!(self, c => c.crash())
    }

    fn multicast(&mut self, dsts: &[usize], tag: Tag, payload: Payload) {
        forward!(self, c => c.multicast(dsts, tag, payload));
    }

    fn bcast_from(&mut self, root: usize, tag: Tag, payload: Payload) -> Payload {
        forward!(self, c => c.bcast_from(root, tag, payload))
    }

    fn gather_to(&mut self, root: usize, tag: Tag, payload: Payload) -> Option<Vec<Payload>> {
        forward!(self, c => c.gather_to(root, tag, payload))
    }

    fn allgather(&mut self, tag: Tag, payload: Payload) -> Vec<Payload> {
        forward!(self, c => c.allgather(tag, payload))
    }

    fn allreduce_f64(&mut self, tag: Tag, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        forward!(self, c => c.allreduce_f64(tag, value, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_payload_round_trips() {
        let mut t = RankTrace::new(1, 4);
        t.events.push(TraceEvent::Send {
            dst: 2,
            tag: Tag(7),
            shape: PayloadShape { kind: 4, bytes: 24 },
        });
        t.events.push(TraceEvent::Barrier);
        t.events.push(TraceEvent::Recv {
            src: 0,
            tag: Tag(3),
            shape: PayloadShape { kind: 2, bytes: 8 },
        });
        assert_eq!(RankTrace::from_payload(t.to_payload()), t);
    }

    #[test]
    fn construction_counter_moves_only_when_attached() {
        struct Dummy;
        impl Comm for Dummy {
            fn rank(&self) -> usize {
                0
            }
            fn size(&self) -> usize {
                1
            }
            fn compute(&mut self, _work: f64) {}
            fn now_secs(&self) -> f64 {
                0.0
            }
            fn send(&mut self, _dst: usize, _tag: Tag, _payload: Payload) {}
            fn recv(&mut self, _src: usize, _tag: Tag) -> Payload {
                Payload::Empty
            }
            fn barrier(&mut self) {}
            fn post(&mut self, _dst: usize, _tag: Tag, _payload: Payload) -> bool {
                true
            }
            fn recv_deadline(&mut self, _src: usize, _tag: Tag, _secs: f64) -> Option<Payload> {
                Some(Payload::Empty)
            }
        }
        let mut inner = Dummy;
        let before = checked_comm_constructions();
        {
            let mut plain = MaybeChecked::new(&mut inner, None);
            plain.send(0, Tag(1), Payload::Empty);
        }
        assert_eq!(checked_comm_constructions(), before);
        let mut trace = RankTrace::new(0, 1);
        {
            let mut checked = MaybeChecked::new(&mut inner, Some(&mut trace));
            checked.send(0, Tag(1), Payload::Empty);
        }
        assert_eq!(checked_comm_constructions(), before + 1);
        assert_eq!(trace.events.len(), 1);
    }
}
