//! Warm point-to-point mailboxes between ranks.
//!
//! The message transport used to ride on `std::sync::mpsc`, which allocates
//! a heap node for **every** send — invisible in wall-clock terms for the
//! inspector's occasional protocol rounds, but a per-message allocation on
//! the executor's hot path, where the paper's loop runs thousands of
//! gathers between inspector invocations. A mailbox is the minimal
//! replacement: a mutex-protected ring (`VecDeque`) whose single receiver
//! waits by the spin-then-park contract of [`crate::wait`]. The deque's
//! capacity warms up over the first iterations of a run and is then reused
//! forever, so steady-state sends and receives perform **zero heap
//! allocations** (the payload buffers themselves are recycled one layer
//! up, by the executor's `CommBuffers`).
//!
//! # How a receive waits
//!
//! `ready` is a lock-free mirror of "the queue is non-empty or the mailbox
//! is closed", stored under the lock by whoever changes either. It is a
//! *hint only*: a receiver polls it for at most the mailbox's
//! [`SpinBudget`] (never past its deadline), then takes the lock and reads
//! the queue and `closed` there, whatever the hint said. If there is still
//! nothing it records `parked` under the lock and sleeps on the condvar as
//! it always did; `send` and the sender's drop issue the futex wake only
//! when they find `parked` set under that same lock — so a sender whose
//! peer is spinning or busy pays no syscall at all, and a wake-up cannot be
//! lost (the receiver either is parked and gets notified, or has yet to
//! take the lock and will find the message). The budget is fixed at
//! construction: [`crate::wait::SPIN_BUDGET`], or zero — exactly the old
//! lock → check → `Condvar::wait` — when the cluster is wider than the
//! host.
//!
//! Semantics match the mpsc channel it replaces: FIFO per (source,
//! destination) pair, blocking receive, and disconnection reporting — a
//! send fails once the receiver is gone, a receive fails once the sender is
//! gone *and* the queue is drained (buffered messages are still delivered,
//! exactly as mpsc does).
//!
//! The mailbox is generic over its message type so both backends share the
//! same transport: the simulator carries arrival-stamped messages
//! (`Msg`), the native thread-pool backend (crate `stance-native`) carries
//! plain `(tag, payload)` records — same deque, same warm-up behaviour,
//! same zero-allocation steady state on real threads.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use crate::payload::Tag;
use crate::wait::{park, SpinBudget};

/// The error a [`MailboxReceiver::recv`] returns when the sending rank
/// terminated without ever sending a matching message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

/// Why a deadline-bounded receive returned without a message: the sender
/// is gone (and the queue drained), or the deadline passed first. The
/// distinction matters to failure detection — `Disconnected` is *proof*
/// the peer died, `TimedOut` is only suspicion (the peer may be wedged,
/// stalled, or slow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline passed with no message available.
    TimedOut,
    /// The sender hung up and the queue is drained.
    Disconnected,
}

/// Messages that carry a [`Tag`] for receive matching.
pub trait Tagged {
    /// The message's tag.
    fn tag(&self) -> Tag;
}

/// A stream of messages from one source — the transport half a
/// [`TagBuffer`] matches over. [`MailboxReceiver`] is the in-process
/// implementation; the TCP backend implements it over a framed socket, so
/// the tag-isolation semantics the conformance suite pins stay one copy.
pub trait MsgSource<T> {
    /// Blocks until the next message arrives; `Err` once the source is
    /// provably gone with nothing left buffered.
    fn recv_msg(&mut self) -> Result<T, Disconnected>;

    /// Deadline-bounded receive, distinguishing a passed deadline from a
    /// provably-dead source.
    fn recv_msg_deadline(&mut self, deadline: Instant) -> Result<T, RecvTimeoutError>;
}

impl<T> MsgSource<T> for MailboxReceiver<T> {
    fn recv_msg(&mut self) -> Result<T, Disconnected> {
        self.recv()
    }

    fn recv_msg_deadline(&mut self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        self.recv_deadline(deadline)
    }
}

/// Per-source tag-matched receive buffering, shared by both backends: a
/// receive for tag `t` skips (and preserves, in order) earlier messages
/// with other tags, so per-tag FIFO order survives out-of-order receives.
/// This is the one copy of the tag-isolation semantics the
/// `comm_conformance` suite pins.
#[derive(Debug)]
pub struct TagBuffer<T> {
    /// Buffered messages per source whose tag did not match an earlier
    /// recv.
    pending: Vec<VecDeque<T>>,
}

impl<T: Tagged> TagBuffer<T> {
    /// A buffer for a `size`-rank cluster.
    pub fn new(size: usize) -> Self {
        TagBuffer {
            pending: (0..size).map(|_| VecDeque::new()).collect(),
        }
    }

    /// Returns the next message from `src` carrying `tag`: from the pending
    /// buffer if one matched earlier, otherwise blocking on `rx` and
    /// buffering mismatches. `rank` is the receiver's id, used in the
    /// diagnostic when `src` terminates without ever sending a match.
    ///
    /// # Panics
    /// Panics if `src`'s mailbox disconnects before a matching message
    /// arrives — a deadlocked protocol is a bug.
    pub fn recv_matching<S: MsgSource<T>>(
        &mut self,
        rx: &mut S,
        rank: usize,
        src: usize,
        tag: Tag,
    ) -> T {
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag() == tag) {
            return self.pending[src]
                .remove(pos)
                .expect("position was just found");
        }
        loop {
            let msg = rx.recv_msg().unwrap_or_else(|_disconnected| {
                panic!("rank {rank} waiting on tag {tag:?} from rank {src}, but the sender exited")
            });
            if msg.tag() == tag {
                return msg;
            }
            self.pending[src].push_back(msg);
        }
    }

    /// Deadline-bounded variant of [`TagBuffer::recv_matching`]: returns
    /// the next matching message if one arrives before `deadline`, or the
    /// reason it could not ([`RecvTimeoutError::Disconnected`] the moment
    /// the sender is provably gone, [`RecvTimeoutError::TimedOut`] when
    /// the deadline passes). Mismatched tags pulled in while waiting are
    /// buffered in arrival order, exactly as the blocking variant does —
    /// a timed-out wait loses nothing.
    pub fn recv_matching_deadline<S: MsgSource<T>>(
        &mut self,
        rx: &mut S,
        src: usize,
        tag: Tag,
        deadline: Instant,
    ) -> Result<T, RecvTimeoutError> {
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag() == tag) {
            return Ok(self.pending[src]
                .remove(pos)
                .expect("position was just found"));
        }
        loop {
            let msg = rx.recv_msg_deadline(deadline)?;
            if msg.tag() == tag {
                return Ok(msg);
            }
            self.pending[src].push_back(msg);
        }
    }
}

struct MailboxState<T> {
    queue: VecDeque<T>,
    /// Set when either endpoint is dropped; each mailbox has exactly one
    /// sender and one receiver, so one flag serves both directions.
    closed: bool,
    /// The receiver is asleep on `cv` (or about to be: it sets this and
    /// waits without releasing the lock in between). The waker clears it.
    parked: bool,
}

struct Mailbox<T> {
    state: Mutex<MailboxState<T>>,
    cv: Condvar,
    /// Hint for the receiver's spin phase: `!queue.is_empty() || closed`
    /// as of the last change. Stored (`Release`) only under `state`'s
    /// lock, polled (`Acquire`) without it; never trusted — see the module
    /// docs.
    ready: AtomicBool,
    spin: SpinBudget,
}

impl<T> Mailbox<T> {
    fn lock(&self) -> MutexGuard<'_, MailboxState<T>> {
        self.state.lock().expect("mailbox lock poisoned")
    }

    /// Republishes the hint; call with the lock held, after every change
    /// to the queue or `closed`.
    fn publish(&self, g: &MailboxState<T>) {
        self.ready
            .store(!g.queue.is_empty() || g.closed, Ordering::Release);
    }

    /// Publishes a change the receiver may be waiting for and wakes it if
    /// — and only if — it is parked.
    fn publish_and_wake(&self, mut g: MutexGuard<'_, MailboxState<T>>) {
        self.publish(&g);
        let wake = std::mem::take(&mut g.parked);
        drop(g);
        if wake {
            self.cv.notify_one();
        }
    }
}

/// Creates one directed mailbox: the sender half enqueues, the receiver
/// half dequeues in FIFO order.
pub fn mailbox<T>() -> (MailboxSender<T>, MailboxReceiver<T>) {
    mailbox_with(SpinBudget::for_threads(2))
}

fn mailbox_with<T>(spin: SpinBudget) -> (MailboxSender<T>, MailboxReceiver<T>) {
    let core = Arc::new(Mailbox {
        state: Mutex::new(MailboxState {
            queue: VecDeque::new(),
            closed: false,
            parked: false,
        }),
        cv: Condvar::new(),
        ready: AtomicBool::new(false),
        spin,
    });
    (MailboxSender(Arc::clone(&core)), MailboxReceiver(core))
}

/// The enqueueing half of a mailbox (held by the source rank).
pub struct MailboxSender<T>(Arc<Mailbox<T>>);

impl<T> MailboxSender<T> {
    /// Enqueues a message; returns it back if the receiver hung up.
    pub fn send(&self, msg: T) -> Result<(), T> {
        let mut g = self.0.lock();
        if g.closed {
            return Err(msg);
        }
        g.queue.push_back(msg);
        self.0.publish_and_wake(g);
        Ok(())
    }
}

impl<T> Drop for MailboxSender<T> {
    fn drop(&mut self) {
        let mut g = self.0.lock();
        g.closed = true;
        self.0.publish_and_wake(g);
    }
}

/// One rank's transport endpoints, as built by [`mailbox_matrix`]:
/// `txs[dst]` sends into `dst`'s slot for this rank, `rxs[src]` receives
/// messages sent by `src`.
pub type RankMailboxes<T> = (Vec<MailboxSender<T>>, Vec<MailboxReceiver<T>>);

/// Builds the full `p × p` mailbox matrix for a cluster: one directed
/// mailbox per (source, destination) pair, including self-sends. Returns
/// one [`RankMailboxes`] pair per rank.
pub fn mailbox_matrix<T>(p: usize) -> Vec<RankMailboxes<T>> {
    let spin = SpinBudget::for_threads(p);
    let mut tx_rows: Vec<Vec<Option<MailboxSender<T>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    let mut rx_rows: Vec<Vec<Option<MailboxReceiver<T>>>> =
        (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
    for (src, tx_row) in tx_rows.iter_mut().enumerate() {
        for (dst, slot) in tx_row.iter_mut().enumerate() {
            let (tx, rx) = mailbox_with(spin);
            *slot = Some(tx);
            rx_rows[dst][src] = Some(rx);
        }
    }
    tx_rows
        .into_iter()
        .zip(rx_rows)
        .map(|(tx_row, rx_row)| {
            let txs = tx_row
                .into_iter()
                .map(|t| t.expect("mailbox matrix fully populated"))
                .collect();
            let rxs = rx_row
                .into_iter()
                .map(|r| r.expect("mailbox matrix fully populated"))
                .collect();
            (txs, rxs)
        })
        .collect()
}

/// The dequeueing half of a mailbox (held by the destination rank).
pub struct MailboxReceiver<T>(Arc<Mailbox<T>>);

impl<T> MailboxReceiver<T> {
    /// Blocks until a message is available and returns it; already-buffered
    /// messages are delivered even after the sender hung up.
    pub fn recv(&self) -> Result<T, Disconnected> {
        // Without a deadline the only way out empty-handed is the close.
        self.wait_for_msg(None).map_err(|_closed| Disconnected)
    }

    /// Like [`MailboxReceiver::recv`] but bounded by a wall-clock
    /// `deadline`: returns [`RecvTimeoutError::TimedOut`] once the
    /// deadline passes with no message, and
    /// [`RecvTimeoutError::Disconnected`] as soon as the sender is gone
    /// with the queue drained (dead peers are detected immediately, not
    /// after the full timeout). Buffered messages are always delivered.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        self.wait_for_msg(Some(deadline))
    }

    /// The one receive wait (module docs): spin on the hint, then lock →
    /// check → park, until a message, the close, or the deadline.
    fn wait_for_msg(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mb = &*self.0;
        mb.spin
            .spin_until(deadline, || mb.ready.load(Ordering::Acquire));
        let mut g = mb.lock();
        loop {
            if let Some(msg) = g.queue.pop_front() {
                mb.publish(&g);
                return Ok(msg);
            }
            if g.closed {
                return Err(RecvTimeoutError::Disconnected);
            }
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if remaining.is_some_and(|left| left.is_zero()) {
                return Err(RecvTimeoutError::TimedOut);
            }
            g.parked = true;
            g = park(&mb.cv, g, remaining).expect("mailbox lock poisoned");
            // A timeout or spurious wake-up finds the record still set.
            g.parked = false;
        }
    }
}

impl<T> Drop for MailboxReceiver<T> {
    fn drop(&mut self) {
        let mut g = self.0.lock();
        g.closed = true;
        // No notify needed: only the sender could be waiting, and senders
        // never block.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Msg;
    use crate::payload::{Element, Payload, Tag};
    use crate::time::VTime;
    use crate::wait::{stress_rounds, Jitter, REGIMES, SPIN_BUDGET};
    use std::time::Duration;

    fn msg(tag: u32) -> Msg {
        Msg {
            tag: Tag(tag),
            arrival: VTime::ZERO,
            payload: Payload::Empty,
        }
    }

    #[test]
    fn fifo_delivery() {
        let (tx, rx) = mailbox();
        tx.send(msg(1)).unwrap();
        tx.send(msg(2)).unwrap();
        assert_eq!(rx.recv().unwrap().tag, Tag(1));
        assert_eq!(rx.recv().unwrap().tag, Tag(2));
    }

    #[test]
    fn buffered_messages_survive_sender_drop() {
        let (tx, rx) = mailbox();
        tx.send(msg(7)).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap().tag, Tag(7));
        assert!(matches!(rx.recv(), Err(Disconnected)));
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = mailbox();
        drop(rx);
        assert!(tx.send(msg(1)).is_err());
    }

    #[test]
    fn cross_thread_blocking_recv() {
        for spin in REGIMES {
            let (tx, rx) = mailbox_with::<Msg>(spin);
            let handle = std::thread::spawn(move || rx.recv().unwrap().tag);
            std::thread::sleep(Duration::from_millis(10));
            tx.send(msg(42)).unwrap();
            assert_eq!(handle.join().unwrap(), Tag(42));
        }
    }

    #[test]
    fn sender_drop_reaches_a_blocked_receiver() {
        // The close must reach a receiver wherever it is: the jittered
        // pause lands the drop in its spin phase, at the budget's expiry,
        // and after it parked.
        let mut jitter = Jitter::new(11);
        for spin in REGIMES {
            for _ in 0..40 {
                let (tx, rx) = mailbox_with::<Msg>(spin);
                let (started_tx, started_rx) = mailbox_with::<()>(spin);
                let handle = std::thread::spawn(move || {
                    started_tx.send(()).unwrap();
                    let far = Instant::now() + Duration::from_secs(60);
                    (rx.recv_deadline(far).err(), rx.recv().err())
                });
                started_rx.recv().unwrap();
                jitter.pause();
                drop(tx);
                assert_eq!(
                    handle.join().unwrap(),
                    (Some(RecvTimeoutError::Disconnected), Some(Disconnected))
                );
            }
        }
    }

    #[test]
    fn ping_pong_never_loses_a_wakeup() {
        // Two threads bounce a counter; the seeded pause before each send
        // lands the peer's receive in the spin phase, exactly at the
        // budget's expiry, and deep in the park phase. A lost wake-up
        // hangs the test; a lost or reordered message fails the count.
        const ROUNDS: u32 = stress_rounds(100_000) as u32;
        for spin in REGIMES {
            let (to_peer, from_main) = mailbox_with::<u32>(spin);
            let (to_main, from_peer) = mailbox_with::<u32>(spin);
            let peer = std::thread::spawn(move || {
                let mut jitter = Jitter::new(2);
                let far = Instant::now() + Duration::from_secs(600);
                for round in 0..ROUNDS {
                    // Alternate the two receive entry points.
                    let got = if round % 2 == 0 {
                        from_main.recv().unwrap()
                    } else {
                        from_main.recv_deadline(far).unwrap()
                    };
                    assert_eq!(got, round);
                    jitter.pause();
                    to_main.send(got + 1).unwrap();
                }
            });
            let mut jitter = Jitter::new(1);
            for round in 0..ROUNDS {
                jitter.pause();
                to_peer.send(round).unwrap();
                assert_eq!(from_peer.recv().unwrap(), round + 1);
            }
            peer.join().expect("the peer saw every message");
        }
    }

    #[test]
    fn recv_deadline_times_out_then_delivers() {
        for spin in REGIMES {
            let (tx, rx) = mailbox_with::<Msg>(spin);
            let soon = Instant::now() + Duration::from_millis(5);
            assert!(matches!(
                rx.recv_deadline(soon),
                Err(RecvTimeoutError::TimedOut)
            ));
            tx.send(msg(2)).unwrap();
            let later = Instant::now() + Duration::from_secs(5);
            assert_eq!(rx.recv_deadline(later).unwrap().tag, Tag(2));
        }
    }

    #[test]
    fn recv_deadline_shorter_than_the_budget_is_honoured() {
        // The spin phase must stop at the deadline, not at the budget. A
        // preempted attempt proves nothing, so the fastest of a few stands:
        // if the spin overshot, every attempt would last the full budget.
        let (_tx, rx) = mailbox_with::<Msg>(SpinBudget::SPIN);
        let fastest = (0..50)
            .map(|_| {
                let t0 = Instant::now();
                assert!(matches!(
                    rx.recv_deadline(t0 + SPIN_BUDGET / 10),
                    Err(RecvTimeoutError::TimedOut)
                ));
                t0.elapsed()
            })
            .min()
            .expect("attempts were made");
        assert!(fastest < SPIN_BUDGET / 2, "fastest attempt {fastest:?}");
    }

    #[test]
    fn recv_deadline_reports_disconnect_immediately() {
        for spin in REGIMES {
            let (tx, rx) = mailbox_with::<Msg>(spin);
            tx.send(msg(1)).unwrap();
            drop(tx);
            let far = Instant::now() + Duration::from_secs(60);
            // Buffered messages still deliver; then disconnect, not timeout.
            assert_eq!(rx.recv_deadline(far).unwrap().tag, Tag(1));
            let t0 = Instant::now();
            assert!(matches!(
                rx.recv_deadline(far),
                Err(RecvTimeoutError::Disconnected)
            ));
            assert!(t0.elapsed() < Duration::from_secs(10));
        }
    }

    #[test]
    fn recv_deadline_wakes_on_cross_thread_send() {
        for spin in REGIMES {
            let (tx, rx) = mailbox_with::<Msg>(spin);
            let handle = std::thread::spawn(move || {
                let deadline = Instant::now() + Duration::from_secs(30);
                rx.recv_deadline(deadline).unwrap().tag
            });
            std::thread::sleep(Duration::from_millis(10));
            tx.send(msg(6)).unwrap();
            assert_eq!(handle.join().unwrap(), Tag(6));
        }
    }

    #[test]
    fn recv_matching_deadline_buffers_mismatches() {
        let (tx, mut rx) = mailbox::<Msg>();
        let mut buf = TagBuffer::new(1);
        tx.send(msg(9)).unwrap();
        let soon = Instant::now() + std::time::Duration::from_millis(5);
        // Waiting for tag 5 times out, but the tag-9 message is preserved.
        assert!(matches!(
            buf.recv_matching_deadline(&mut rx, 0, Tag(5), soon),
            Err(RecvTimeoutError::TimedOut)
        ));
        assert_eq!(buf.recv_matching(&mut rx, 0, 0, Tag(9)).tag, Tag(9));
    }

    #[test]
    fn generic_over_plain_message_types() {
        // The native backend's message shape: no arrival stamp.
        let (tx, rx) = mailbox::<(Tag, Payload)>();
        tx.send((Tag(9), u32::pack(&[3]))).unwrap();
        let (tag, payload) = rx.recv().unwrap();
        assert_eq!(tag, Tag(9));
        assert_eq!(u32::unpack(payload), vec![3]);
    }
}
