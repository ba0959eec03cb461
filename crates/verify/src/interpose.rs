//! The one [`Comm`] interposer: [`Interposed`] wraps a backend, forwards
//! every trait method to it, and calls a [`Hook`] at the protocol points
//! an observer or a fault injector needs. The protocol checker
//! ([`CheckedComm`](crate::CheckedComm), a [`TraceHook`](crate::TraceHook))
//! and the fault injector ([`FaultyComm`](crate::FaultyComm), a
//! [`FaultHook`](crate::FaultHook)) are two hooks on it; an `Option` of a
//! hook is a hook that may be switched off at run time.
//!
//! [`Interposed`] forwards **every** trait method to the wrapped backend
//! explicitly — relying on the trait defaults would silently bypass
//! backend overrides (the simulator's multicast cost accounting, the TCP
//! backend's process-killing `crash`) and change behaviour under test,
//! which is exactly what an observer must not do. Collectives are
//! forwarded *opaque*: one operation, run by the backend's own
//! implementation, with no `sent`/`received` calls for the messages inside
//! it. Their data movement is the backend's own (already covered by the
//! conformance suite), and leaving them out keeps a wrapped run's messages
//! and clocks identical to a bare run — the bitwise-equivalence tests hold
//! with verification enabled for free.

use stance_sim::{Comm, Payload, Tag};

use crate::checked::PayloadShape;

/// What an [`Interposed`] communicator calls as operations pass through
/// it. Every method defaults to a no-op, so a hook names only the points
/// it cares about.
pub trait Hook {
    /// Called before every communication operation — `send`, `recv`,
    /// `barrier`, `post`, `recv_deadline` and each collective — with the
    /// wrapped backend. Never called for `rank`, `size`, `compute`,
    /// `now_secs` or `crash`: those are not protocol actions.
    fn before<C: Comm>(&mut self, _inner: &mut C) {}

    /// A message is about to be handed to the transport: called for every
    /// `send`, and for a `post` only once the transport reports delivery
    /// (a refused post delivered nothing).
    fn sent(&mut self, _dst: usize, _tag: Tag, _shape: PayloadShape) {}

    /// A message was delivered: called after every `recv`, and after a
    /// `recv_deadline` only when it returns a message (a timeout consumed
    /// nothing).
    fn received(&mut self, _src: usize, _tag: Tag, _shape: PayloadShape) {}

    /// Called before the barrier is entered.
    fn barrier(&mut self) {}
}

/// A hook that may be absent: `None` observes nothing, so
/// `Interposed<C, Option<H>>` is one type whether or not `H` is engaged.
impl<H: Hook> Hook for Option<H> {
    fn before<C: Comm>(&mut self, inner: &mut C) {
        if let Some(h) = self {
            h.before(inner);
        }
    }

    fn sent(&mut self, dst: usize, tag: Tag, shape: PayloadShape) {
        if let Some(h) = self {
            h.sent(dst, tag, shape);
        }
    }

    fn received(&mut self, src: usize, tag: Tag, shape: PayloadShape) {
        if let Some(h) = self {
            h.received(src, tag, shape);
        }
    }

    fn barrier(&mut self) {
        if let Some(h) = self {
            h.barrier();
        }
    }
}

/// A [`Comm`] that forwards every operation to `inner` and calls `hook`
/// at the points [`Hook`] documents.
pub struct Interposed<'a, C: Comm, H: Hook> {
    pub(crate) inner: &'a mut C,
    pub(crate) hook: H,
}

impl<'a, C: Comm, H: Hook> Interposed<'a, C, H> {
    /// Wraps `inner`, calling `hook` as operations pass through.
    pub fn new(inner: &'a mut C, hook: H) -> Self {
        Interposed { inner, hook }
    }
}

impl<C: Comm, H: Hook> Comm for Interposed<'_, C, H> {
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
        self.hook.before(self.inner);
        self.hook.sent(dst, tag, PayloadShape::of(&payload));
        self.inner.send(dst, tag, payload);
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Payload {
        self.hook.before(self.inner);
        let payload = self.inner.recv(src, tag);
        self.hook.received(src, tag, PayloadShape::of(&payload));
        payload
    }

    fn barrier(&mut self) {
        self.hook.before(self.inner);
        self.hook.barrier();
        self.inner.barrier();
    }

    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        self.hook.before(self.inner);
        let shape = PayloadShape::of(&payload);
        let delivered = self.inner.post(dst, tag, payload);
        if delivered {
            self.hook.sent(dst, tag, shape);
        }
        delivered
    }

    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        self.hook.before(self.inner);
        let payload = self.inner.recv_deadline(src, tag, timeout_secs)?;
        self.hook.received(src, tag, PayloadShape::of(&payload));
        Some(payload)
    }

    fn crash(&mut self) -> bool {
        self.inner.crash()
    }

    fn multicast(&mut self, dsts: &[usize], tag: Tag, payload: Payload) {
        self.hook.before(self.inner);
        self.inner.multicast(dsts, tag, payload);
    }

    fn bcast_from(&mut self, root: usize, tag: Tag, payload: Payload) -> Payload {
        self.hook.before(self.inner);
        self.inner.bcast_from(root, tag, payload)
    }

    fn gather_to(&mut self, root: usize, tag: Tag, payload: Payload) -> Option<Vec<Payload>> {
        self.hook.before(self.inner);
        self.inner.gather_to(root, tag, payload)
    }

    fn allgather(&mut self, tag: Tag, payload: Payload) -> Vec<Payload> {
        self.hook.before(self.inner);
        self.inner.allgather(tag, payload)
    }

    fn allreduce_f64(&mut self, tag: Tag, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        self.hook.before(self.inner);
        self.inner.allreduce_f64(tag, value, op)
    }
}
