//! The one [`Comm`] interposer: [`Interposed`] wraps a backend, forwards
//! every trait method to it, and calls a [`Hook`] at the protocol points
//! an observer or a fault injector needs. The protocol checker
//! ([`CheckedComm`](crate::CheckedComm), a [`TraceHook`](crate::TraceHook))
//! and the fault injector ([`FaultyComm`](crate::FaultyComm), a
//! [`FaultHook`](crate::FaultHook)) are two hooks on it; an `Option` of a
//! hook is a hook that may be switched off at run time.
//!
//! [`Interposed`] forwards **every** [`Comm`] method to the wrapped
//! backend explicitly — relying on the trait defaults would silently
//! bypass backend overrides (the simulator's multicast cost accounting,
//! the TCP backend's process-killing `crash`) and change behaviour under
//! test, which is exactly what an observer must not do. The collectives
//! ([`Collectives`](stance_sim::Collectives)) are not `Comm` methods: they
//! run on the interposer itself, built from the primitives it forwards,
//! so a hook sees every message a collective moves while the backend
//! moves exactly the messages, in exactly the order, of a bare run — a
//! wrapped run's clocks are a bare run's.

use stance_sim::{Comm, Payload, Tag};

/// What an [`Interposed`] communicator calls as operations pass through
/// it. Every method defaults to a no-op, so a hook names only the points
/// it cares about.
pub trait Hook {
    /// Called before every communication operation — `send`, `recv`,
    /// `barrier`, `post`, `recv_deadline`, `multicast`, a collective's own
    /// included — with the wrapped backend. Never called for `rank`,
    /// `size`, `compute`, `now_secs` or `crash`: not protocol actions.
    fn before<C: Comm>(&mut self, _inner: &mut C) {}

    /// A message is about to be handed to the transport: called for every
    /// `send`, each `multicast` destination, and a `post` only once the
    /// transport reports delivery (a refused post delivered nothing).
    fn sent(&mut self, _dst: usize, _tag: Tag, _bytes: u32) {}

    /// A message was delivered: called after every `recv`, and after a
    /// `recv_deadline` only when it returns a message (a timeout consumed
    /// nothing).
    fn received(&mut self, _src: usize, _tag: Tag, _bytes: u32) {}

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

    fn sent(&mut self, dst: usize, tag: Tag, bytes: u32) {
        if let Some(h) = self {
            h.sent(dst, tag, bytes);
        }
    }

    fn received(&mut self, src: usize, tag: Tag, bytes: u32) {
        if let Some(h) = self {
            h.received(src, tag, bytes);
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
        self.hook.sent(dst, tag, size(&payload));
        self.inner.send(dst, tag, payload);
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Payload {
        self.hook.before(self.inner);
        let payload = self.inner.recv(src, tag);
        self.hook.received(src, tag, size(&payload));
        payload
    }

    fn barrier(&mut self) {
        self.hook.before(self.inner);
        self.hook.barrier();
        self.inner.barrier();
    }

    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        self.hook.before(self.inner);
        let bytes = size(&payload);
        let delivered = self.inner.post(dst, tag, payload);
        if delivered {
            self.hook.sent(dst, tag, bytes);
        }
        delivered
    }

    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        self.hook.before(self.inner);
        let payload = self.inner.recv_deadline(src, tag, timeout_secs)?;
        self.hook.received(src, tag, size(&payload));
        Some(payload)
    }

    fn crash(&mut self) -> bool {
        self.inner.crash()
    }

    fn multicast(&mut self, dsts: &[usize], tag: Tag, payload: Payload) {
        self.hook.before(self.inner);
        let bytes = size(&payload);
        for &dst in dsts {
            self.hook.sent(dst, tag, bytes);
        }
        self.inner.multicast(dsts, tag, payload);
    }
}

/// A payload's size as a [`Hook`] sees it and a trace records it.
fn size(payload: &Payload) -> u32 {
    payload.size_bytes() as u32
}
