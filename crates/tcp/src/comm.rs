//! [`TcpComm`]: the [`Comm`] trait over one framed socket per peer.
//!
//! Tag isolation is **not** reimplemented here: every peer's frames flow
//! through the same [`TagBuffer`] the simulator and the thread backend
//! use, with the [`PeerLink`] acting as the message source. The one copy
//! of the matching semantics the conformance suite pins therefore covers
//! this backend too.
//!
//! ## Ordering
//!
//! One socket per (unordered) rank pair carries everything — data,
//! heartbeats, barrier control — so per-pair FIFO order is the socket's
//! own byte order, and "a message sent before a barrier arrives before
//! traffic sent after it" holds for free.
//!
//! ## The barrier protocol
//!
//! The barrier is centralized at rank 0 and sequence-numbered on
//! [`TAG_TCP_BARRIER`]. Every rank tracks `gen`, the count of barriers
//! that have *released*; only a release advances it, so all ranks agree
//! on `gen` at every barrier call.
//!
//! * Plain barrier: non-root sends `ARRIVE(gen)` and blocks for
//!   `RELEASE(gen)`; root collects all arrivals, then releases everyone.
//! * Bounded barrier ([`Comm::barrier_deadline`]): the same, except every
//!   wait is deadline-bounded and **no rank ever decides failure
//!   unilaterally while the root might still release it**:
//!   - a non-root whose wait times out sends `WITHDRAW(gen)` and then
//!     waits (briefly) for the root's verdict — `RELEASE` (the barrier
//!     completed after all: return `true`), `WITHDRAWN` (arrival
//!     discounted: return `false`), or `ABORT` (the root gave up on this
//!     attempt: return `false`);
//!   - a root whose collection times out answers every recorded arrival
//!     with `ABORT(gen)` and discards them, so no peer is left waiting
//!     on a verdict that never comes.
//!
//!   Either way `gen` never advances except by a global release, so a
//!   failed bounded barrier composes with later barriers — the property
//!   `tests/comm_conformance.rs` exercises and the recovery path relies
//!   on. A dead root is detected as
//!   [`Disconnected`](stance_sim::mailbox::Disconnected) and surfaces as
//!   `false`, never a hang.
//!
//! ## Failure surfaces
//!
//! Exactly the in-process mailbox contract: blocking `recv` from a dead
//! peer panics (a deadlocked protocol is a bug), `recv_deadline` returns
//! `None` *immediately* on proof of death (EOF/reset — not after the
//! timeout), `post` returns `false` instead of panicking, and
//! [`Comm::crash`] really kills the process (SIGKILL, no unwinding) so
//! an injected kill looks like a crashed workstation, not a tidy exit.

use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stance_sim::comm::Comm;
use stance_sim::mailbox::{RecvTimeoutError, TagBuffer, Tagged};
use stance_sim::tags::TAG_TCP_BARRIER;
use stance_sim::wait::deadline_after;
use stance_sim::{Payload, Tag};

use crate::link::{PeerLink, TcpMsg};
use crate::wire::WireError;

/// Barrier control-message kinds (first word of the `U64` payload; the
/// second word is the barrier generation).
const ARRIVE: u64 = 0;
const WITHDRAW: u64 = 1;
const RELEASE: u64 = 2;
const WITHDRAWN: u64 = 3;
const ABORT: u64 = 4;

/// How long the root's collection loop blocks on one missing peer before
/// re-polling the others. Bounds the latency of noticing an arrival on a
/// different socket; loopback arrivals are typically sub-millisecond.
const POLL_SLICE: Duration = Duration::from_millis(2);

/// Grace period a withdrawing rank allows the root to answer its
/// `WITHDRAW` beyond the caller's own deadline. A live root answers at
/// poll-slice speed; only a root that violates the collective-call
/// contract (never calls the barrier again, yet stays alive) can exhaust
/// this — and that is reported loudly rather than hung on.
const WITHDRAW_GRACE: Duration = Duration::from_secs(5);

/// One rank of a process cluster, speaking framed TCP to every peer.
pub struct TcpComm {
    rank: usize,
    size: usize,
    /// `links[peer]` is the socket to `peer`; `None` at `links[rank]`.
    links: Vec<Option<PeerLink>>,
    /// The shared tag-isolation layer (one copy across all backends).
    pending: TagBuffer<TcpMsg>,
    /// Self-sends: delivered without touching the wire.
    selfq: VecDeque<TcpMsg>,
    /// Wall-clock origin for [`Comm::now_secs`] (set at mesh
    /// completion, so rendezvous cost is not charged to the run).
    start: Instant,
    /// Barriers released so far (the protocol's sequence number).
    barrier_gen: u64,
    /// Root only: which peers have an un-withdrawn `ARRIVE` for the
    /// current generation. Persists across a timed-out bounded barrier
    /// only until the abort answers them.
    barrier_arrived: Vec<bool>,
}

impl TcpComm {
    /// Wraps an established, fully-handshaken mesh: `streams[peer]` is
    /// the connection to `peer` (`None` at `streams[rank]`). The caller
    /// — normally the worker rendezvous in [`crate::worker`] — has
    /// already validated every handshake.
    ///
    /// # Panics
    /// Panics if the stream table's shape does not match `rank`/`size`.
    pub fn from_streams(
        rank: usize,
        size: usize,
        streams: Vec<Option<TcpStream>>,
    ) -> std::io::Result<Self> {
        assert!(rank < size, "rank {rank} of {size}");
        assert_eq!(streams.len(), size, "one stream slot per rank");
        let mut links = Vec::with_capacity(size);
        for (peer, stream) in streams.into_iter().enumerate() {
            match stream {
                None => {
                    assert_eq!(peer, rank, "missing stream for peer {peer}");
                    links.push(None);
                }
                Some(s) => {
                    assert_ne!(peer, rank, "a rank does not dial itself");
                    links.push(Some(PeerLink::new(s)?));
                }
            }
        }
        Ok(TcpComm {
            rank,
            size,
            links,
            pending: TagBuffer::new(size),
            selfq: VecDeque::new(),
            start: Instant::now(),
            barrier_gen: 0,
            barrier_arrived: vec![false; size],
        })
    }

    /// The error that broke the link to `peer`, if it is broken — the
    /// structured verdict the negative wire tests inspect.
    pub fn link_fault(&self, peer: usize) -> Option<WireError> {
        self.links[peer].as_ref().and_then(|l| l.fault().cloned())
    }

    fn link_mut(&mut self, peer: usize) -> &mut PeerLink {
        self.links[peer]
            .as_mut()
            .expect("peer is not this rank itself")
    }

    fn take_self(&mut self, tag: Tag) -> Option<Payload> {
        let pos = self.selfq.iter().position(|m| m.tag() == tag)?;
        Some(
            self.selfq
                .remove(pos)
                .expect("position was just found")
                .payload,
        )
    }

    // ---- barrier protocol ------------------------------------------------

    fn barrier_msg(kind: u64, gen: u64) -> Payload {
        Payload::from_u64(vec![kind, gen])
    }

    fn decode_barrier(msg: TcpMsg) -> (u64, u64) {
        let words = msg.payload.into_u64();
        assert_eq!(words.len(), 2, "barrier control message shape");
        (words[0], words[1])
    }

    /// Sends one barrier control message to `peer`; `false` if the link
    /// is broken (the peer is dead — barrier logic treats that per mode).
    fn barrier_send(&mut self, peer: usize, kind: u64) -> bool {
        let gen = self.barrier_gen;
        self.link_mut(peer)
            .send(TAG_TCP_BARRIER, &Self::barrier_msg(kind, gen))
            .is_ok()
    }

    /// Consumes the next already-available barrier message from `src`,
    /// without blocking. Data frames drained along the way stay buffered
    /// for their own receives.
    fn try_take_barrier(&mut self, src: usize) -> Option<(u64, u64)> {
        let link = self.links[src].as_mut()?;
        if self.pending.poll_matching(link, src, TAG_TCP_BARRIER) {
            let msg = self
                .pending
                .recv_matching(link, self.rank, src, TAG_TCP_BARRIER);
            Some(Self::decode_barrier(msg))
        } else {
            None
        }
    }

    /// Blocks up to `deadline` for the next barrier message from `src`.
    fn recv_barrier_deadline(
        &mut self,
        src: usize,
        deadline: Instant,
    ) -> Result<(u64, u64), RecvTimeoutError> {
        let link = self.links[src].as_mut().expect("src is a peer");
        self.pending
            .recv_matching_deadline(link, src, TAG_TCP_BARRIER, deadline)
            .map(Self::decode_barrier)
    }

    fn barrier_impl(&mut self, deadline: Option<Instant>) -> bool {
        if self.size == 1 {
            self.barrier_gen += 1;
            return true;
        }
        if self.rank == 0 {
            self.barrier_root(deadline)
        } else {
            self.barrier_leaf(deadline)
        }
    }

    /// Root side: collect an un-withdrawn `ARRIVE(gen)` from every peer,
    /// then release everyone. Bounded mode aborts every recorded arrival
    /// on timeout so no peer is left awaiting a verdict.
    fn barrier_root(&mut self, deadline: Option<Instant>) -> bool {
        let gen = self.barrier_gen;
        // Peers whose links broke: they can never arrive. In plain mode
        // that is a deadlock bug and panics below; in bounded mode they
        // just make completion impossible, which the deadline converts
        // into a clean `false` (short-circuited once all missing peers
        // are dead).
        let mut dead = vec![false; self.size];
        loop {
            // Drain whatever is already here, from every peer — including
            // withdraws from peers currently marked arrived.
            for src in 1..self.size {
                while let Some((kind, g)) = self.try_take_barrier(src) {
                    self.barrier_root_handle(src, kind, g, gen);
                }
            }
            if (1..self.size).all(|s| self.barrier_arrived[s]) {
                for dst in 1..self.size {
                    // A peer that died after arriving cannot read its
                    // release; everyone alive still must advance.
                    let _ = self.barrier_send(dst, RELEASE);
                }
                for flag in &mut self.barrier_arrived {
                    *flag = false;
                }
                self.barrier_gen += 1;
                return true;
            }
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            let unreachable_barrier =
                deadline.is_some() && (1..self.size).all(|s| self.barrier_arrived[s] || dead[s]);
            if expired || unreachable_barrier {
                for src in 1..self.size {
                    if self.barrier_arrived[src] {
                        let _ = self.barrier_send(src, ABORT);
                        self.barrier_arrived[src] = false;
                    }
                }
                return false;
            }
            // Block briefly on one peer that could still arrive.
            let Some(src) = (1..self.size).find(|&s| !self.barrier_arrived[s] && !dead[s]) else {
                // Plain mode with every missing peer dead: deadlock.
                let gone = (1..self.size)
                    .find(|&s| dead[s])
                    .expect("a dead peer exists");
                panic!("rank 0 waiting at a barrier, but rank {gone} exited");
            };
            let mut slice = POLL_SLICE;
            if let Some(d) = deadline {
                slice = slice.min(d.saturating_duration_since(Instant::now()));
            }
            match self
                .recv_barrier_deadline(src, Instant::now() + slice.max(Duration::from_micros(100)))
            {
                Ok((kind, g)) => self.barrier_root_handle(src, kind, g, gen),
                Err(RecvTimeoutError::TimedOut) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    if deadline.is_none() {
                        panic!("rank 0 waiting at a barrier, but rank {src} exited");
                    }
                    dead[src] = true;
                }
            }
        }
    }

    fn barrier_root_handle(&mut self, src: usize, kind: u64, g: u64, gen: u64) {
        match kind {
            ARRIVE => {
                assert_eq!(
                    g, gen,
                    "rank {src} arrived for generation {g}, root is at {gen}"
                );
                self.barrier_arrived[src] = true;
            }
            WITHDRAW => {
                // Current-generation withdraw from a recorded arrival:
                // discount it and say so. Anything else is stale — a
                // withdraw whose attempt was already released or aborted
                // (that response answered it) — and is ignored.
                if g == gen && self.barrier_arrived[src] {
                    self.barrier_arrived[src] = false;
                    let _ = self.barrier_send(src, WITHDRAWN);
                }
            }
            other => panic!("rank {src} sent barrier control {other} to the root"),
        }
    }

    /// Non-root side: arrive, await the verdict, withdraw on timeout.
    fn barrier_leaf(&mut self, deadline: Option<Instant>) -> bool {
        let gen = self.barrier_gen;
        let bounded = deadline.is_some();
        if !self.barrier_send(0, ARRIVE) {
            if bounded {
                return false;
            }
            panic!(
                "rank {} arriving at a barrier, but rank 0 exited",
                self.rank
            );
        }
        let far = Instant::now() + Duration::from_secs(86_400);
        loop {
            match self.recv_barrier_deadline(0, deadline.unwrap_or(far)) {
                Ok((RELEASE, g)) => {
                    assert_eq!(g, gen, "released for generation {g}, expected {gen}");
                    self.barrier_gen += 1;
                    return true;
                }
                Ok((ABORT, g)) => {
                    assert_eq!(g, gen, "aborted for generation {g}, expected {gen}");
                    if bounded {
                        return false;
                    }
                    // The root's *previous* bounded attempt timed out and
                    // aborted our arrival; this blocking barrier simply
                    // re-arrives and keeps waiting.
                    if !self.barrier_send(0, ARRIVE) {
                        panic!(
                            "rank {} arriving at a barrier, but rank 0 exited",
                            self.rank
                        );
                    }
                }
                Ok((kind, g)) => {
                    panic!("unexpected barrier control {kind} (generation {g}) before withdrawing")
                }
                Err(RecvTimeoutError::TimedOut) => {
                    debug_assert!(bounded, "unbounded wait cannot time out");
                    return self.barrier_leaf_withdraw(gen);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    if bounded {
                        return false;
                    }
                    panic!("rank {} waiting at a barrier, but rank 0 exited", self.rank);
                }
            }
        }
    }

    /// The caller's deadline passed: withdraw the arrival and wait for
    /// the root's verdict. No unilateral `false` — the root may already
    /// have counted us into a release that is on the wire.
    fn barrier_leaf_withdraw(&mut self, gen: u64) -> bool {
        if !self.barrier_send(0, WITHDRAW) {
            return false;
        }
        let verdict_by = Instant::now() + WITHDRAW_GRACE;
        match self.recv_barrier_deadline(0, verdict_by) {
            Ok((RELEASE, g)) => {
                // The barrier completed while the withdraw was in
                // flight: it *did* release (late), and the stale
                // withdraw is ignored by the root.
                assert_eq!(g, gen);
                self.barrier_gen += 1;
                true
            }
            Ok((WITHDRAWN, g)) | Ok((ABORT, g)) => {
                assert_eq!(g, gen);
                false
            }
            Ok((kind, g)) => {
                panic!("unexpected barrier control {kind} (generation {g}) awaiting verdict")
            }
            Err(RecvTimeoutError::Disconnected) => false,
            Err(RecvTimeoutError::TimedOut) => panic!(
                "rank {}: barrier withdrawal for generation {gen} unresolved — the root \
                 neither released, acknowledged, nor died within {WITHDRAW_GRACE:?} \
                 (barrier_deadline is collective: every rank must keep calling it)",
                self.rank
            ),
        }
    }
}

impl Comm for TcpComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn compute(&mut self, _work: f64) {
        // Wall-clock backend: real work already takes real time.
    }

    fn now_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn send(&mut self, dst: usize, tag: Tag, payload: Payload) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        if dst == self.rank {
            self.selfq.push_back(TcpMsg { tag, payload });
            return;
        }
        if self.link_mut(dst).send(tag, &payload).is_err() {
            panic!("receiver rank terminated before message was delivered");
        }
    }

    fn recv(&mut self, src: usize, tag: Tag) -> Payload {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        if src == self.rank {
            return self.take_self(tag).unwrap_or_else(|| {
                panic!(
                    "rank {} waiting on tag {tag:?} from itself, but no self-send is pending",
                    self.rank
                )
            });
        }
        let rank = self.rank;
        let link = self.links[src].as_mut().expect("src is a peer");
        self.pending.recv_matching(link, rank, src, tag).payload
    }

    fn barrier(&mut self) {
        let released = self.barrier_impl(None);
        debug_assert!(released, "unbounded barrier always releases");
    }

    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        assert!(dst < self.size, "post to rank {dst} of {}", self.size);
        if dst == self.rank {
            self.selfq.push_back(TcpMsg { tag, payload });
            return true;
        }
        self.link_mut(dst).send(tag, &payload).is_ok()
    }

    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let deadline = deadline_after(timeout_secs);
        if src == self.rank {
            if let Some(p) = self.take_self(tag) {
                return Some(p);
            }
            // A single sequential rank cannot self-send while waiting;
            // live the timeout (wall-clock parity with the native
            // backend) and give up.
            std::thread::sleep(deadline.saturating_duration_since(Instant::now()));
            return None;
        }
        let link = self.links[src].as_mut().expect("src is a peer");
        self.pending
            .recv_matching_deadline(link, src, tag, deadline)
            .ok()
            .map(|m| m.payload)
    }

    fn barrier_deadline(&mut self, timeout_secs: f64) -> bool {
        self.barrier_impl(Some(deadline_after(timeout_secs)))
    }

    fn crash(&mut self) -> bool {
        // Real death: SIGKILL to our own process. No unwinding, no drop
        // glue, no FIN beyond the kernel's cleanup — peers observe
        // exactly what a crashed workstation produces.
        crate::sys::die_hard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Wires an `n`-rank all-pairs mesh over loopback socket pairs, all
    /// inside this process — each returned comm is driven by one thread.
    fn mesh(n: usize) -> Vec<TcpComm> {
        let mut streams: Vec<Vec<Option<TcpStream>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Each pair writes into two rows at once, so indices beat iterators.
        #[allow(clippy::needless_range_loop)]
        for lo in 0..n {
            for hi in lo + 1..n {
                let a = TcpStream::connect(addr).unwrap();
                let (b, _) = listener.accept().unwrap();
                streams[lo][hi] = Some(a);
                streams[hi][lo] = Some(b);
            }
        }
        streams
            .into_iter()
            .enumerate()
            .map(|(rank, row)| TcpComm::from_streams(rank, n, row).unwrap())
            .collect()
    }

    fn run_ranks<R: Send + 'static>(comms: Vec<TcpComm>, body: fn(&mut TcpComm) -> R) -> Vec<R> {
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| std::thread::spawn(move || body(&mut c)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    }

    #[test]
    fn data_and_barriers_across_three_ranks() {
        let out = run_ranks(mesh(3), |c| {
            // Ring: pass a growing vector around twice, with barriers
            // separating the laps.
            let rank = c.rank();
            let next = (rank + 1) % 3;
            let prev = (rank + 2) % 3;
            let mut acc = vec![rank as u64];
            for lap in 0..2u32 {
                c.send(next, Tag(10 + lap), Payload::from_u64(acc.clone()));
                let mut got = c.recv(prev, Tag(10 + lap)).into_u64();
                got.push(rank as u64);
                acc = got;
                c.barrier();
            }
            acc
        });
        for (rank, acc) in out.iter().enumerate() {
            assert_eq!(acc.len(), 3, "rank {rank} saw two hops plus itself");
            assert_eq!(*acc.last().unwrap(), rank as u64);
        }
    }

    #[test]
    fn self_send_and_deadline_receive() {
        let out = run_ranks(mesh(2), |c| {
            // Self-sends never touch the wire.
            c.send(c.rank(), Tag(1), Payload::from_u32(vec![7]));
            let me = c.recv(c.rank(), Tag(1)).into_u32();
            assert_eq!(me, vec![7]);

            // Bounded receive with nothing coming: clean None.
            let t0 = Instant::now();
            assert!(c.recv_deadline(1 - c.rank(), Tag(2), 0.05).is_none());
            assert!(t0.elapsed() < Duration::from_secs(10));

            // Bounded receive with data coming: delivers.
            c.send(
                1 - c.rank(),
                Tag(3),
                Payload::from_u64(vec![c.rank() as u64]),
            );
            let got = c
                .recv_deadline(1 - c.rank(), Tag(3), 20.0)
                .expect("peer sent");
            got.into_u64()
        });
        assert_eq!(out[0], vec![1]);
        assert_eq!(out[1], vec![0]);
    }

    #[test]
    fn bounded_barrier_times_out_then_recovers() {
        let out = run_ranks(mesh(2), |c| {
            let mut verdicts = Vec::new();
            if c.rank() == 1 {
                // Arrive early with a short budget: the root is asleep,
                // so this attempt fails...
                verdicts.push(c.barrier_deadline(0.05));
                std::thread::sleep(Duration::from_millis(1000));
            } else {
                std::thread::sleep(Duration::from_millis(300));
                // ...and the root's own bounded attempt finds nobody
                // (rank 1 already withdrew) and fails too...
                verdicts.push(c.barrier_deadline(0.2));
            }
            // ...but the generation stayed consistent, so a plain
            // barrier afterwards completes for everyone.
            c.barrier();
            verdicts.push(true);
            verdicts
        });
        assert_eq!(out[0], vec![false, true], "root: timed out, then recovered");
        assert_eq!(out[1], vec![false, true], "leaf: withdrew, then recovered");
    }

    #[test]
    fn bounded_barrier_succeeds_when_everyone_shows_up() {
        let out = run_ranks(mesh(3), |c| {
            let mut ok = Vec::new();
            for _ in 0..3 {
                ok.push(c.barrier_deadline(20.0));
            }
            ok
        });
        for verdicts in out {
            assert_eq!(verdicts, vec![true, true, true]);
        }
    }

    #[test]
    fn dead_root_fails_bounded_barrier_without_hanging() {
        let comms = mesh(2);
        let mut iter = comms.into_iter();
        let root = iter.next().unwrap();
        let mut leaf = iter.next().unwrap();
        // The root vanishes (sockets close, like a killed process).
        drop(root);
        let t0 = Instant::now();
        assert!(
            !leaf.barrier_deadline(30.0),
            "dead root is failure, not a hang"
        );
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "death detected at socket speed, not deadline speed"
        );
    }

    #[test]
    fn infinite_timeout_is_no_deadline_not_a_panic() {
        let out = run_ranks(mesh(2), |c| {
            c.send(
                1 - c.rank(),
                Tag(3),
                Payload::from_u32(vec![c.rank() as u32]),
            );
            // Already on the wire: delivered, however long the wait.
            let got = c.recv_deadline(1 - c.rank(), Tag(3), f64::INFINITY);
            assert!(c.barrier_deadline(f64::INFINITY));
            got.map(Payload::into_u32)
        });
        assert_eq!(out, vec![Some(vec![1]), Some(vec![0])]);
        // A dead peer ends an unbounded wait promptly, with `None`.
        let mut comms = mesh(2);
        let mut alive = comms.swap_remove(0);
        drop(comms);
        let t0 = Instant::now();
        assert!(alive.recv_deadline(1, Tag(3), f64::INFINITY).is_none());
        assert!(!alive.barrier_deadline(f64::INFINITY));
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn post_to_dead_peer_reports_false() {
        let comms = mesh(2);
        let mut iter = comms.into_iter();
        let mut alive = iter.next().unwrap();
        let dead = iter.next().unwrap();
        drop(dead);
        // The kernel may accept a few sends into its buffer before the
        // reset surfaces; bounded retries observe the failure.
        let t0 = Instant::now();
        let mut refused = false;
        while t0.elapsed() < Duration::from_secs(20) {
            if !alive.post(1, Tag(4), Payload::from_u64(vec![0; 2048])) {
                refused = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(refused, "post to a dead peer reports false, never panics");
        assert!(alive.link_fault(1).is_some(), "the link records why");
    }
}
