//! One rank's handle onto the native thread-pool cluster.

use std::sync::Arc;
use std::time::Instant;

use stance_sim::launch::BarrierShared;
use stance_sim::mailbox::{MailboxReceiver, MailboxSender, TagBuffer, Tagged};
use stance_sim::time::VTime;
use stance_sim::wait::deadline_after;
use stance_sim::{Comm, Payload, Tag};

/// A message between two native ranks: no arrival stamp — delivery is
/// whenever the receiving thread gets to it.
pub(crate) struct NativeMsg {
    pub tag: Tag,
    pub payload: Payload,
}

impl Tagged for NativeMsg {
    fn tag(&self) -> Tag {
        self.tag
    }
}

/// One rank's handle onto a [`NativeCluster`](crate::NativeCluster) run:
/// the wall-clock [`Comm`] backend.
///
/// Point-to-point transport is the simulator's warm mailbox (one FIFO
/// deque per (source, destination) pair); tag-mismatched messages are
/// buffered per source exactly as the simulator buffers them, so receive
/// semantics (FIFO per matching tag, tag isolation) are identical across
/// backends. Collectives are the rank-order blanket impl of
/// [`Collectives`](stance_sim::Collectives).
pub struct NativeComm {
    rank: usize,
    size: usize,
    /// The run's shared time origin (captured before any rank starts).
    start: Instant,
    /// `txs[dst]` sends into `dst`'s mailbox slot for this rank.
    txs: Vec<MailboxSender<NativeMsg>>,
    /// `rxs[src]` receives messages sent by `src`.
    rxs: Vec<MailboxReceiver<NativeMsg>>,
    /// Tag-matched receive buffering (shared semantics with the simulator
    /// — see [`TagBuffer`]).
    pending: TagBuffer<NativeMsg>,
    barrier: Arc<BarrierShared>,
}

impl NativeComm {
    pub(crate) fn new(
        rank: usize,
        size: usize,
        start: Instant,
        txs: Vec<MailboxSender<NativeMsg>>,
        rxs: Vec<MailboxReceiver<NativeMsg>>,
        barrier: Arc<BarrierShared>,
    ) -> Self {
        let pending = TagBuffer::new(size);
        NativeComm {
            rank,
            size,
            start,
            txs,
            rxs,
            pending,
            barrier,
        }
    }
}

impl Comm for NativeComm {
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

    /// No-op: on real threads the work itself takes the time. The hook
    /// exists so virtual-time backends can charge modelled cost.
    #[inline]
    fn compute(&mut self, _work: f64) {}

    /// Wall-clock seconds since the run started (shared origin across all
    /// ranks).
    #[inline]
    fn now_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn barrier(&mut self) {
        // Zero-cost barrier: the shared protocol's clock fold collapses to
        // a no-op (see `BarrierShared`); only the synchronization and the
        // poison semantics remain.
        let _ = self.barrier.wait(VTime::ZERO);
    }

    /// The one send: a terminated receiver yields `false`.
    fn post(&mut self, dst: usize, tag: Tag, payload: Payload) -> bool {
        assert!(dst < self.size, "post to rank {dst} of {}", self.size);
        self.txs[dst].send(NativeMsg { tag, payload }).is_ok()
    }

    /// The one receive, bounded in wall-clock time: waits up to
    /// `timeout_secs` for the matching message (forever for an infinite
    /// one), returning `None` on timeout — and `None`
    /// immediately once the sender is provably gone (closed mailbox), so
    /// dead peers are detected at mailbox-teardown speed while wedged
    /// ones take the full timeout. Mismatched tags buffered while waiting
    /// are preserved in FIFO order.
    fn recv_deadline(&mut self, src: usize, tag: Tag, timeout_secs: f64) -> Option<Payload> {
        assert!(src < self.size, "recv from rank {src} of {}", self.size);
        let deadline = deadline_after(timeout_secs);
        self.pending
            .recv_matching(&mut self.rxs[src], src, tag, deadline)
            .ok()
            .map(|m| m.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NativeCluster;
    use stance_sim::wait::{with_forced_budget, Jitter, REGIMES};
    use stance_sim::Element;

    #[test]
    fn zero_cost_barrier_synchronizes_two_threads() {
        for spin in REGIMES {
            let b = with_forced_budget(spin, || BarrierShared::new(2, 0.0));
            let b2 = Arc::clone(&b);
            let h = std::thread::spawn(move || b2.wait(VTime::ZERO));
            b.wait(VTime::ZERO);
            h.join().expect("peer reached the barrier");
        }
    }

    #[test]
    fn poisoned_barrier_wakes_waiter() {
        // Poison at once (the waiter is spinning, or not even there yet),
        // after a jittered pause, and after 10 ms (it is parked).
        let mut jitter = Jitter::new(3);
        for spin in REGIMES {
            for round in 0..20 {
                let b = with_forced_budget(spin, || BarrierShared::new(2, 0.0));
                let b2 = Arc::clone(&b);
                let h = std::thread::spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b2.wait(VTime::ZERO)))
                        .is_err()
                });
                if round == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                jitter.pause();
                b.poison();
                assert!(h.join().expect("waiter thread"), "waiter must panic out");
            }
        }
    }

    #[test]
    fn infinite_timeout_is_no_deadline_not_a_panic() {
        let got = NativeCluster::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, Tag(3), u32::pack(&[7]));
                return None;
            }
            // Already queued (or on its way): delivered, however long the wait.
            comm.recv_deadline(0, Tag(3), f64::INFINITY)
                .map(u32::unpack)
        });
        assert_eq!(got.into_results(), vec![None, Some(vec![7])]);
        // A dead peer ends an unbounded wait promptly, with `None`.
        let t0 = Instant::now();
        let got = NativeCluster::new(2).run(|comm| {
            (comm.rank() == 0).then(|| comm.recv_deadline(1, Tag(3), f64::INFINITY).is_none())
        });
        assert_eq!(got.into_results(), vec![Some(true), None]);
        assert!(t0.elapsed() < std::time::Duration::from_secs(10));
    }
}
