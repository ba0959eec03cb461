//! The backend-independent communication interface.
//!
//! Every layer of the runtime above the transport — the executor's
//! gather, the load balancer's redistribution and
//! controller protocol, the inspector's "simple" strategy, the adaptive
//! session — is written against this trait instead of a concrete backend.
//! Three backends implement it:
//!
//! * [`Env`](crate::Env) — the deterministic virtual-time simulator in this
//!   crate (one thread per simulated workstation, cost-modelled clocks);
//! * `NativeComm` (crate `stance-native`) — one real OS thread per rank with
//!   wall-clock timing, for running the same SPMD programs on actual
//!   hardware;
//! * `TcpComm` (crate `stance-tcp`) — one OS process per rank over loopback
//!   or real sockets, also on wall-clock time.
//!
//! The trait is the paper's §2 SPMD messaging contract: point-to-point
//! tagged send/receive with per-(source, destination) FIFO order, a
//! cluster-wide barrier, and collectives ([`Collectives`]) built from
//! those primitives. Two extra hooks make time portable across backends:
//!
//! * [`Comm::compute`] — the *compute-cost charging hook*. The simulator
//!   advances its virtual clock by the charged work (scaled by machine
//!   speed and external load); a wall-clock backend does nothing, because
//!   real work already takes real time.
//! * [`Comm::now_secs`] — seconds since the start of the run: virtual
//!   seconds on the simulator, wall-clock seconds on a native backend. The
//!   load monitor's per-item times are derived from differences of this
//!   quantity, so the paper's load-balancing loop works unmodified on both
//!   backends (model-driven in the simulator, measurement-driven on real
//!   threads).
//!
//! [`Collectives`] has one implementation, built from `send`, `recv` and
//! `multicast`, with **deterministic rank-order data flow**: `allgather`
//! returns payloads in rank order and `allreduce_f64` folds in rank order,
//! so a floating-point reduction is bitwise identical on every backend. A
//! backend refines only a collective's *cost*, through its primitives
//! (hardware multicast), and a wrapper sees each message a collective moves.

use crate::payload::{Element, Payload, Tag};

/// One rank's handle onto its cluster: the SPMD communication interface
/// every backend provides. See the [module docs](self) for the contract.
///
/// All methods take `&mut self`: a rank is a single sequential process,
/// exactly as in the paper's SPMD model (§2). Methods documented as
/// *collective* must be called by every rank of the cluster in the same
/// order.
pub trait Comm {
    /// This rank's id in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the cluster.
    fn size(&self) -> usize;

    /// Charges `work` reference seconds of computation (the compute-cost
    /// charging hook). The simulator advances this rank's virtual clock
    /// according to machine speed and external load; wall-clock backends
    /// are a no-op — on real hardware the work itself takes the time.
    fn compute(&mut self, work: f64);

    /// Seconds since the start of the run on this rank: virtual seconds on
    /// the simulator, wall-clock seconds on a native backend. Monotone
    /// non-decreasing; differences of this value are what the load monitor
    /// records.
    fn now_secs(&self) -> f64;

    /// Sends `payload` to `dst` with `tag`. Sending to self is allowed.
    /// Messages between one (source, destination) pair are delivered in
    /// FIFO order per tag match.
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    fn send(&mut self, dst: usize, tag: Tag, payload: Payload);

    /// Receives the next message from `src` carrying `tag`, blocking until
    /// it arrives. Messages with other tags from `src` are buffered and
    /// returned by later matching receives (tag isolation).
    ///
    /// # Panics
    /// Panics if `src` is out of range, or if `src` terminates without ever
    /// sending a matching message (a deadlocked protocol is a bug).
    fn recv(&mut self, src: usize, tag: Tag) -> Payload;

    /// Synchronizes all ranks. Collective.
    fn barrier(&mut self);

    /// **Lossy** send: like [`Comm::send`] but, where `send` panics if the
    /// receiving rank has terminated, `post` reports it by returning
    /// `false` (and delivers nothing). This is the failure detector's send
    /// primitive — heartbeats and verdict exchanges must survive a dead
    /// peer. Required, like [`Comm::recv_deadline`]: a fallback to the
    /// blocking primitive would turn the detector into the hang it exists
    /// to prevent.
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool;

    /// Bounded receive: like [`Comm::recv`] but gives up after
    /// `timeout_secs`, returning `None` instead of blocking forever — and
    /// `None` (immediately) if the sender is provably gone. This is the
    /// failure detector's receive primitive: a wedged-but-alive peer is
    /// *detected* (timeout) rather than hung on. Messages with other tags
    /// pulled in while waiting are buffered exactly as `recv` buffers
    /// them; a timed-out wait loses nothing.
    ///
    /// Clock semantics per backend: the simulator charges the full
    /// `timeout_secs` to its virtual clock on a timeout (deterministic —
    /// the wait really cost that long); the wall-clock backends wait in
    /// wall time.
    ///
    /// # Panics
    /// Panics if `src` is out of range.
    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload>;

    /// Terminates this rank as abruptly as the backend can manage — the
    /// fault injector's "kill" hook. In-process backends cannot die
    /// abruptly (every rank shares one OS process with its peers), so
    /// the default returns `false` and the injector falls back to a
    /// panic-unwind kill. A process-per-rank backend overrides this to
    /// terminate its whole OS process (SIGKILL — no unwinding, no drop
    /// glue, no goodbye on the wire) and therefore never returns.
    fn crash(&mut self) -> bool {
        false
    }

    /// Sends the same payload to several destinations. The default is a
    /// loop of unicast sends; backends with hardware multicast override it.
    fn multicast(&mut self, dsts: &[usize], tag: Tag, payload: Payload) {
        match dsts {
            [] => {}
            [dst] => self.send(*dst, tag, payload),
            [head @ .., last] => {
                for &dst in head {
                    self.send(dst, tag, payload.clone());
                }
                self.send(*last, tag, payload);
            }
        }
    }
}

/// The collectives, built once from [`Comm`]'s primitives (see the
/// [module docs](self)). The blanket impl below is the only one, so no
/// backend or wrapper can replace a collective.
pub trait Collectives: Comm {
    /// Broadcast from `root`: the root multicasts `payload` to everyone and
    /// returns it; the others receive it. Collective.
    fn bcast_from(&mut self, root: usize, tag: Tag, payload: Payload) -> Payload {
        if self.rank() == root {
            let others: Vec<usize> = (0..self.size()).filter(|&r| r != root).collect();
            self.multicast(&others, tag, payload.clone());
            payload
        } else {
            self.recv(root, tag)
        }
    }

    /// Gathers every rank's payload at `root` (in rank order). Returns
    /// `Some(payloads)` at the root and `None` elsewhere. Collective.
    fn gather_to(&mut self, root: usize, tag: Tag, payload: Payload) -> Option<Vec<Payload>> {
        if self.rank() == root {
            let mut out = Vec::with_capacity(self.size());
            for src in 0..self.size() {
                if src == root {
                    out.push(payload.clone());
                } else {
                    out.push(self.recv(src, tag));
                }
            }
            Some(out)
        } else {
            self.send(root, tag, payload);
            None
        }
    }

    /// All-gather: every rank ends up with every rank's payload, in rank
    /// order. Collective.
    fn allgather(&mut self, tag: Tag, payload: Payload) -> Vec<Payload> {
        let others: Vec<usize> = (0..self.size()).filter(|&r| r != self.rank()).collect();
        self.multicast(&others, tag, payload.clone());
        let mut out = Vec::with_capacity(self.size());
        for src in 0..self.size() {
            if src == self.rank() {
                out.push(payload.clone());
            } else {
                out.push(self.recv(src, tag));
            }
        }
        out
    }

    /// All-reduce of one `f64` per rank with a binary operation. Everyone
    /// returns the reduction over all ranks, **folded in rank order** — the
    /// result is bitwise identical on every backend and every rank.
    /// Collective.
    fn allreduce_f64(&mut self, tag: Tag, value: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
        let parts = self.allgather(tag, f64::pack(&[value]));
        parts
            .into_iter()
            .map(|p| {
                let mut v = [0.0];
                f64::unpack_into(p.as_bytes(), &mut v);
                v[0]
            })
            .reduce(&op)
            .expect("cluster has at least one rank")
    }
}

impl<C: Comm + ?Sized> Collectives for C {}

/// The one barrier built from messages, for communicators without a
/// shared-memory barrier (the TCP backend, the survivor communicator): a
/// dissemination barrier on `tag`. In round `k` of ⌈log₂ p⌉ every rank
/// sends one [`Payload::Empty`] to `rank + 2^k` and receives one from
/// `rank − 2^k` (mod p), so after the last round each rank has heard,
/// through the chain, from every other — and no rank is special. A
/// barrier's rounds have distinct sources, so per-(source, tag) FIFO keeps
/// consecutive barriers apart. This is the algorithm whose cost
/// [`BarrierShared::new`](crate::launch::BarrierShared::new) charges the
/// simulator.
///
/// A dead peer fails it the way it fails a blocking [`Comm::send`] or
/// [`Comm::recv`]: with a panic, never a hang. Collective.
pub fn dissemination_barrier<C: Comm + ?Sized>(c: &mut C, tag: Tag) {
    let (p, me) = (c.size(), c.rank());
    let mut dist = 1;
    while dist < p {
        c.send((me + dist) % p, tag, Payload::Empty);
        c.recv((me + p - dist) % p, tag);
        dist *= 2;
    }
}

#[cfg(test)]
mod tests {
    // The collectives are exercised against every backend by the
    // workspace-level `tests/comm_conformance.rs` suite; `Env`'s
    // implementation is covered by `cluster.rs` tests.
}
