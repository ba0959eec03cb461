//! The one [`Comm`] interposer: [`Interposed`] wraps a backend, forwards
//! every trait method to it, and calls a [`Hook`] at the protocol points
//! an observer or a fault injector needs. The protocol checker
//! ([`CheckedComm`](crate::CheckedComm), a [`TraceHook`](crate::TraceHook))
//! and the fault injector ([`FaultyComm`](crate::FaultyComm), a
//! [`FaultHook`](crate::FaultHook)) are two hooks on it; an `Option` of a
//! hook is a hook that may be switched off at run time.
//!
//! [`Interposed`] forwards the seven required [`Comm`] methods and the
//! two a backend may override — `multicast` and `crash` — to the wrapped
//! backend explicitly. That is every path into the backend: `send` and
//! `recv` are provided methods built on `post` and `recv_deadline`, which
//! no backend overrides, so a `send` through the interposer is its `post`
//! and the hook sees it once. Leaving `multicast` or `crash` to the trait
//! defaults would silently bypass backend overrides (the simulator's
//! multicast cost accounting, the TCP backend's process-killing `crash`)
//! and change behaviour under test, which is exactly what an observer
//! must not do. The collectives
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

    /// A message was handed to the transport: called for each `multicast`
    /// destination, and for a `post` — a `send` is one — only once the
    /// transport reports delivery (a refused post delivered nothing).
    fn sent(&mut self, _dst: usize, _tag: Tag, _bytes: u32) {}

    /// A message was delivered: called after a `recv_deadline` — a `recv`
    /// is one — only when it returns a message (a timeout consumed
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

#[cfg(test)]
mod tests {
    //! `send` and `recv` are built on `post` and `recv_deadline`, so a
    //! hook must not tell the two spellings of one protocol apart.

    use stance_native::NativeCluster;
    use stance_sim::cluster::{Cluster, ClusterSpec};
    use stance_sim::{Comm, Element, Tag};

    use crate::{catch_fault, CheckedComm, FaultPlan, FaultyComm, RankTrace, TraceEvent};

    const ROUNDS: u32 = 3;

    /// Two ranks swap one value per round, with the blocking calls or with
    /// the primitives they are built on, counting rounds in `rounds_done`.
    fn exchange<C: Comm>(c: &mut C, primitives: bool, rounds_done: &mut u32) {
        let peer = c.rank() ^ 1;
        for round in 0..ROUNDS {
            let out = u64::pack(&[u64::from(round)]);
            let back = if primitives {
                assert!(c.post(peer, Tag(round), out));
                c.recv_deadline(peer, Tag(round), f64::INFINITY)
                    .expect("the peer sent")
            } else {
                c.send(peer, Tag(round), out);
                c.recv(peer, Tag(round))
            };
            assert_eq!(u64::unpack(back), [u64::from(round)]);
            *rounds_done += 1;
        }
    }

    /// Each spelling's trace, and the operations a fault hook counted.
    fn observe<C: Comm>(c: &mut C) -> [(Vec<TraceEvent>, u64); 2] {
        [false, true].map(|primitives| {
            let mut trace = RankTrace::new(c.rank(), c.size());
            exchange(&mut CheckedComm::attach(c, &mut trace), primitives, &mut 0);
            let mut faulty = FaultyComm::attach(c, &FaultPlan::none());
            exchange(&mut faulty, primitives, &mut 0);
            (trace.events, faulty.ops())
        })
    }

    /// Rank 1 runs the exchange under `FaultPlan::kill(1, at)`, and rank 0
    /// feeds it with lossy calls that survive its death. Returns, for the
    /// victim, the operation the fault fired on and the rounds it finished.
    fn killed_at<C: Comm>(c: &mut C, at: u64, primitives: bool) -> Option<(u64, u32)> {
        if c.rank() == 0 {
            for round in 0..ROUNDS {
                c.post(1, Tag(round), u64::pack(&[u64::from(round)]));
            }
            for round in 0..ROUNDS {
                c.recv_deadline(1, Tag(round), f64::INFINITY);
            }
            return None;
        }
        let mut rounds_done = 0;
        let fault = catch_fault(|| {
            let mut faulty = FaultyComm::attach(c, &FaultPlan::kill(1, at));
            exchange(&mut faulty, primitives, &mut rounds_done);
        })
        .expect_err("the planned kill fires");
        Some((fault.op, rounds_done))
    }

    fn check_observed(per_rank: Vec<[(Vec<TraceEvent>, u64); 2]>) {
        for (rank, [blocking, primitives]) in per_rank.into_iter().enumerate() {
            let peer = rank ^ 1;
            let expected: Vec<TraceEvent> = (0..ROUNDS)
                .flat_map(|round| {
                    let tag = Tag(round);
                    [
                        TraceEvent::Send {
                            dst: peer,
                            tag,
                            bytes: 8,
                        },
                        TraceEvent::Recv {
                            src: peer,
                            tag,
                            bytes: 8,
                        },
                    ]
                })
                .collect();
            assert_eq!(blocking.0, expected, "rank {rank}, send/recv");
            assert_eq!(primitives.0, expected, "rank {rank}, post/recv_deadline");
            assert_eq!(blocking.1, u64::from(2 * ROUNDS), "rank {rank}, send/recv");
            assert_eq!(primitives.1, blocking.1, "rank {rank}, post/recv_deadline");
        }
    }

    fn check_kill(run: impl Fn(u64, bool) -> Vec<Option<(u64, u32)>>) {
        for at in 0..u64::from(2 * ROUNDS) {
            for primitives in [false, true] {
                let expected = Some((at, (at / 2) as u32));
                assert_eq!(run(at, primitives), [None, expected], "kill at {at}");
            }
        }
    }

    #[test]
    fn both_spellings_look_the_same_to_hooks_on_the_simulator() {
        let cluster = Cluster::new(ClusterSpec::uniform(2));
        check_observed(cluster.run(observe).into_results());
        check_kill(|at, primitives| {
            cluster
                .run(|env| killed_at(env, at, primitives))
                .into_results()
        });
    }

    #[test]
    fn both_spellings_look_the_same_to_hooks_on_native() {
        let cluster = NativeCluster::new(2);
        check_observed(cluster.run(observe).into_results());
        check_kill(|at, primitives| {
            cluster
                .run(|comm| killed_at(comm, at, primitives))
                .into_results()
        });
    }
}
