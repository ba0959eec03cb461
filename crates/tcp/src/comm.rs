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
//! heartbeats, barrier rounds — so per-pair FIFO order is the socket's
//! own byte order, and "a message sent before a barrier arrives before
//! traffic sent after it" holds for free.
//!
//! ## The barrier
//!
//! [`dissemination_barrier`] on [`TAG_TCP_BARRIER`]: ⌈log₂ p⌉ rounds of one
//! empty frame out and one in, no root and no state kept between barriers.
//! A dead peer ends it the way it ends a blocking `recv`: with a panic.
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
use std::time::Instant;

use stance_sim::comm::{dissemination_barrier, Comm};
use stance_sim::mailbox::{TagBuffer, Tagged};
use stance_sim::tags::TAG_TCP_BARRIER;
use stance_sim::wait::deadline_after;
use stance_sim::{Payload, Tag};

use crate::link::{PeerLink, TcpMsg};
use crate::wire::WireError;

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
        if let Err(e) = self.link_mut(dst).send(tag, &payload) {
            refuse_oversize(&e, &payload);
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
        dissemination_barrier(self, TAG_TCP_BARRIER);
    }

    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        assert!(dst < self.size, "post to rank {dst} of {}", self.size);
        if dst == self.rank {
            self.selfq.push_back(TcpMsg { tag, payload });
            return true;
        }
        match self.link_mut(dst).send(tag, &payload) {
            Ok(()) => true,
            Err(e) => {
                refuse_oversize(&e, &payload);
                false
            }
        }
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

    fn crash(&mut self) -> bool {
        // Real death: SIGKILL to our own process. No unwinding, no drop
        // glue, no FIN beyond the kernel's cleanup — peers observe
        // exactly what a crashed workstation produces.
        crate::sys::die_hard()
    }
}

/// Panics if `e` is the sender's refusal of a payload too large for one
/// frame: a caller's bug to name as such, not a peer's death.
fn refuse_oversize(e: &WireError, payload: &Payload) {
    if let WireError::FrameTooLarge { max, .. } = e {
        panic!(
            "a {}-byte payload does not fit one TCP frame (at most {max} bytes, {} of them header)",
            payload.size_bytes(),
            crate::wire::FRAME_OVERHEAD
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::Element;
    use std::net::{TcpListener, TcpStream};
    use std::time::Duration;

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
                c.send(next, Tag(10 + lap), u64::pack(&acc));
                let mut got = u64::unpack(c.recv(prev, Tag(10 + lap)));
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

    /// A payload too large for one frame is the sender's bug: `send` and
    /// `post` name its size and the cap instead of blaming the receiver.
    #[test]
    fn oversize_send_panics_naming_size_and_cap() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let max = crate::wire::MAX_FRAME;
        let mut comms = mesh(2);
        let huge = || Payload::from_bytes(vec![0; max as usize]);
        let send = catch_unwind(AssertUnwindSafe(|| comms[0].send(1, Tag(1), huge())));
        let post = catch_unwind(AssertUnwindSafe(|| comms[0].post(1, Tag(1), huge())));
        for err in [
            send.expect_err("send panics"),
            post.expect_err("post panics"),
        ] {
            let msg = err.downcast_ref::<String>().expect("a formatted panic");
            assert!(
                msg.contains(&format!("a {max}-byte payload"))
                    && msg.contains(&format!("at most {max} bytes")),
                "{msg}"
            );
        }
        assert!(comms[0].link_fault(1).is_none(), "the link stays usable");
    }

    #[test]
    fn self_send_and_deadline_receive() {
        let out = run_ranks(mesh(2), |c| {
            // Self-sends never touch the wire.
            c.send(c.rank(), Tag(1), u32::pack(&[7]));
            let me = u32::unpack(c.recv(c.rank(), Tag(1)));
            assert_eq!(me, vec![7]);

            // Bounded receive with nothing coming: clean None.
            let t0 = Instant::now();
            assert!(c.recv_deadline(1 - c.rank(), Tag(2), 0.05).is_none());
            assert!(t0.elapsed() < Duration::from_secs(10));

            // Bounded receive with data coming: delivers.
            c.send(1 - c.rank(), Tag(3), u64::pack(&[c.rank() as u64]));
            let got = c
                .recv_deadline(1 - c.rank(), Tag(3), 20.0)
                .expect("peer sent");
            u64::unpack(got)
        });
        assert_eq!(out[0], vec![1]);
        assert_eq!(out[1], vec![0]);
    }

    #[test]
    fn infinite_timeout_is_no_deadline_not_a_panic() {
        let out = run_ranks(mesh(2), |c| {
            c.send(1 - c.rank(), Tag(3), u32::pack(&[c.rank() as u32]));
            // Already on the wire: delivered, however long the wait.
            c.recv_deadline(1 - c.rank(), Tag(3), f64::INFINITY)
                .map(u32::unpack)
        });
        assert_eq!(out, vec![Some(vec![1]), Some(vec![0])]);
        // A dead peer ends an unbounded wait promptly, with `None`.
        let mut comms = mesh(2);
        let mut alive = comms.swap_remove(0);
        drop(comms);
        let t0 = Instant::now();
        assert!(alive.recv_deadline(1, Tag(3), f64::INFINITY).is_none());
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn dead_peer_at_a_barrier_panics_promptly() {
        // Rank 2 vanishes (sockets close, like a killed process); both
        // survivors enter a barrier. Each must panic out — the partner's
        // `Disconnected` in some round — at socket speed, never hang.
        let mut comms = mesh(3);
        drop(comms.pop());
        let t0 = Instant::now();
        let survivors: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                std::thread::spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.barrier())).is_err()
                })
            })
            .collect();
        for (rank, s) in survivors.into_iter().enumerate() {
            assert!(
                s.join().expect("rank thread"),
                "rank {rank} passed a barrier missing rank 2"
            );
        }
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
            if !alive.post(1, Tag(4), u64::pack(&[0; 2048])) {
                refused = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(refused, "post to a dead peer reports false, never panics");
        assert!(alive.link_fault(1).is_some(), "the link records why");
    }
}
