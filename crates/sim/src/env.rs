//! Per-rank execution environment: the SPMD process's view of the cluster.
//!
//! An [`Env`] is handed to the SPMD closure on each simulated workstation. It
//! owns that rank's virtual clock and provides point-to-point messaging,
//! multicast, collectives and compute-charging. All methods take `&mut self`:
//! a rank is a single sequential process, exactly as in the paper's SPMD
//! model (§2).

use std::sync::Arc;

use crate::comm::Comm;
use crate::launch::BarrierShared;
use crate::machine::MachineSpec;
use crate::mailbox::{MailboxReceiver, MailboxSender, TagBuffer, Tagged};
use crate::network::NetworkState;
use crate::payload::{Payload, Tag};
use crate::stats::EnvStats;
use crate::time::VTime;

/// A message in flight between two ranks.
#[derive(Debug)]
pub(crate) struct Msg {
    pub tag: Tag,
    pub arrival: VTime,
    pub payload: Payload,
}

impl Tagged for Msg {
    fn tag(&self) -> Tag {
        self.tag
    }
}

/// One rank's handle onto the simulated cluster.
pub struct Env {
    rank: usize,
    size: usize,
    clock: VTime,
    machine: MachineSpec,
    net: Arc<NetworkState>,
    /// `txs[dst]` sends into `dst`'s mailbox slot for this rank.
    txs: Vec<MailboxSender<Msg>>,
    /// `rxs[src]` receives messages sent by `src`.
    rxs: Vec<MailboxReceiver<Msg>>,
    /// Tag-matched receive buffering (shared semantics with the native
    /// backend — see [`TagBuffer`]).
    pending: TagBuffer<Msg>,
    barrier: Arc<BarrierShared>,
    stats: EnvStats,
}

impl Env {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        machine: MachineSpec,
        net: Arc<NetworkState>,
        txs: Vec<MailboxSender<Msg>>,
        rxs: Vec<MailboxReceiver<Msg>>,
        barrier: Arc<BarrierShared>,
    ) -> Self {
        let pending = TagBuffer::new(size);
        Env {
            rank,
            size,
            clock: VTime::ZERO,
            machine,
            net,
            txs,
            rxs,
            pending,
            barrier,
            stats: EnvStats::default(),
        }
    }

    /// Current virtual time on this rank.
    #[inline]
    pub fn now(&self) -> VTime {
        self.clock
    }

    /// This rank's machine description.
    #[inline]
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Counters accumulated so far.
    #[inline]
    pub fn stats(&self) -> &EnvStats {
        &self.stats
    }

    pub(crate) fn into_parts(self) -> (VTime, EnvStats) {
        (self.clock, self.stats)
    }
}

/// The simulator backend's [`Comm`] implementation: every primitive is
/// cost-modelled on this rank's virtual clock, and `multicast` is
/// overridden because the network model has a hardware-multicast fast
/// path (§3.6) the trait's unicast-loop default can't express. The
/// collectives ([`Collectives`](crate::Collectives)) are built from these
/// primitives — so they charge virtual time exactly as hand-rolled
/// versions would, and there is exactly one copy of each collective's
/// data-movement logic for all backends (see [`crate::comm`]).
impl Comm for Env {
    /// This rank's id in `0..size()`.
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the cluster.
    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    /// Charges `work` reference seconds of computation. The clock advances
    /// according to this machine's speed and external-load timeline, so the
    /// same work takes longer on a slow or loaded workstation.
    #[inline]
    fn compute(&mut self, work: f64) {
        let end = self.machine.finish_time(self.clock, work);
        self.stats.compute_time += end - self.clock;
        self.clock = end;
    }

    #[inline]
    fn now_secs(&self) -> f64 {
        self.now().as_secs()
    }

    /// Sends `payload` to `dst` with `tag`. Charges this rank the
    /// per-message setup cost; the message arrives at
    /// `setup-completion + latency + bytes × byte_time`.
    ///
    /// Sending to self is allowed (the message is delivered through the same
    /// mailbox with zero network cost beyond setup).
    ///
    /// # Panics
    /// Panics if `dst` is out of range.
    fn send(&mut self, dst: usize, tag: Tag, payload: Payload) {
        assert!(dst < self.size, "send to rank {dst} of {}", self.size);
        let bytes = payload.size_bytes();
        let spec = self.net.spec();
        self.clock += spec.send_setup;
        self.stats.send_time += spec.send_setup;
        let arrival = if dst == self.rank {
            self.clock
        } else {
            self.net.arrival(self.clock, bytes)
        };
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        if self.txs[dst]
            .send(Msg {
                tag,
                arrival,
                payload,
            })
            .is_err()
        {
            panic!("receiver rank terminated before message was delivered");
        }
    }

    /// Sends the same payload to several destinations. If the network
    /// supports multicast (§3.6), one setup and one transmission serve all
    /// destinations; otherwise this degenerates to a loop of unicast sends.
    fn multicast(&mut self, dsts: &[usize], tag: Tag, payload: Payload) {
        if dsts.is_empty() {
            return;
        }
        if dsts.len() == 1 {
            self.send(dsts[0], tag, payload);
            return;
        }
        if self.net.multicast_supported() {
            let bytes = payload.size_bytes();
            let spec = self.net.spec();
            self.clock += spec.send_setup;
            self.stats.send_time += spec.send_setup;
            let arrival = self.net.arrival(self.clock, bytes);
            self.stats.messages_sent += 1;
            self.stats.bytes_sent += bytes as u64;
            for &dst in dsts {
                assert!(dst < self.size, "multicast to rank {dst} of {}", self.size);
                let arrival = if dst == self.rank {
                    self.clock
                } else {
                    arrival
                };
                if self.txs[dst]
                    .send(Msg {
                        tag,
                        arrival,
                        payload: payload.clone(),
                    })
                    .is_err()
                {
                    panic!("receiver rank terminated before message was delivered");
                }
            }
        } else {
            for &dst in dsts {
                self.send(dst, tag, payload.clone());
            }
        }
    }

    /// Receives the next message from `src` carrying `tag`, blocking until it
    /// arrives. The clock advances to the message's arrival time (waiting is
    /// accounted) plus the receive overhead.
    ///
    /// # Panics
    /// Panics if `src` is out of range, or if `src` terminates without ever
    /// sending a matching message (a deadlocked protocol is a bug).
    fn recv(&mut self, src: usize, tag: Tag) -> Payload {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let msg = self
            .pending
            .recv_matching(&mut self.rxs[src], self.rank, src, tag);
        self.stats.wait_time += msg.arrival.saturating_gap(self.clock);
        self.clock = self.clock.max(msg.arrival);
        let overhead = self.net.spec().recv_overhead;
        self.clock += overhead;
        self.stats.recv_time += overhead;
        self.stats.messages_received += 1;
        self.stats.bytes_received += msg.payload.size_bytes() as u64;
        msg.payload
    }

    /// Synchronizes all ranks: every clock advances to the maximum
    /// participant clock plus the barrier's log-tree latency.
    fn barrier(&mut self) {
        let entry = self.clock;
        let release = self.barrier.wait(entry);
        debug_assert!(release >= entry, "barrier released before entry");
        self.stats.barrier_time += release - entry;
        self.clock = release;
    }

    /// Lossy send (the failure detector's primitive): identical cost
    /// accounting to [`Comm::send`], but a terminated receiver yields
    /// `false` instead of a panic. The setup cost is charged either way —
    /// the sender cannot know the peer is gone until it tries.
    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        assert!(dst < self.size, "post to rank {dst} of {}", self.size);
        let bytes = payload.size_bytes();
        let spec = self.net.spec();
        self.clock += spec.send_setup;
        self.stats.send_time += spec.send_setup;
        let arrival = if dst == self.rank {
            self.clock
        } else {
            self.net.arrival(self.clock, bytes)
        };
        match self.txs[dst].send(Msg {
            tag,
            arrival,
            payload,
        }) {
            Ok(()) => {
                self.stats.messages_sent += 1;
                self.stats.bytes_sent += bytes as u64;
                true
            }
            Err(_undelivered) => false,
        }
    }

    /// Bounded receive (the failure detector's primitive). A terminated
    /// sender yields `None` immediately; otherwise the wait is bounded by
    /// `timeout_secs` of *host* time (the peer's send must physically
    /// execute for its virtual arrival stamp to exist — a rank that will
    /// never send cannot be waited out in virtual time alone). On a
    /// timeout the full `timeout_secs` is charged to this rank's virtual
    /// clock as wait time, so a timed-out probe costs in the model what
    /// it costs on real hardware. A delivered message advances the clock
    /// exactly as [`Comm::recv`] does; mismatched tags buffered while
    /// waiting are preserved.
    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let deadline = crate::wait::deadline_after(timeout_secs);
        match self
            .pending
            .recv_matching_deadline(&mut self.rxs[src], src, tag, deadline)
        {
            Ok(msg) => {
                self.stats.wait_time += msg.arrival.saturating_gap(self.clock);
                self.clock = self.clock.max(msg.arrival);
                let overhead = self.net.spec().recv_overhead;
                self.clock += overhead;
                self.stats.recv_time += overhead;
                self.stats.messages_received += 1;
                self.stats.bytes_received += msg.payload.size_bytes() as u64;
                Some(msg.payload)
            }
            Err(crate::mailbox::RecvTimeoutError::Disconnected) => None,
            Err(crate::mailbox::RecvTimeoutError::TimedOut) => {
                self.stats.wait_time += timeout_secs.max(0.0);
                self.clock += timeout_secs.max(0.0);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    // Env construction needs a full cluster; behavioural tests live in
    // `cluster.rs` and in the crate-level integration tests.
}
