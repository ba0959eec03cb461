//! One live connection to a peer rank: framing, short-read/short-write
//! handling, deadline-bounded receives, and broken-link bookkeeping.
//!
//! A [`PeerLink`] owns the socket plus an accumulator of
//! partially-received bytes, so a deadline expiring mid-frame never tears
//! the frame: whatever arrived stays buffered and the next receive picks
//! up exactly where the wire left off. Write-side short writes are
//! handled by `write_all` (which also retries `EINTR`), so a frame is
//! either fully on the wire or the link is broken — never half a frame.
//!
//! Failure surfaces exactly like the in-process mailbox: EOF, reset, or a
//! wire-format violation marks the link broken and every subsequent
//! operation reports [`RecvTimeoutError::Disconnected`] — *proof* the peer
//! is unusable —
//! while a deadline that merely passes reports
//! [`RecvTimeoutError::TimedOut`], which is only suspicion. That is the
//! distinction the failure detector's `probe_membership` consumes, and it
//! is why a SIGKILLed peer produces a clean "dead" verdict instead of a
//! hang.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use stance_sim::mailbox::{MsgSource, RecvTimeoutError, Tagged};
use stance_sim::{Payload, Tag};

use crate::wire::{self, WireError};

/// A tagged message as carried by the TCP transport.
#[derive(Debug)]
pub struct TcpMsg {
    /// The message's tag.
    pub tag: Tag,
    /// The message's payload.
    pub payload: Payload,
}

impl Tagged for TcpMsg {
    fn tag(&self) -> Tag {
        self.tag
    }
}

/// Largest read: one kernel `read` per pump keeps syscall count low.
const READ_CHUNK: usize = 64 * 1024;

/// A link's first read buffer. A read that fills it doubles it, up to
/// [`READ_CHUNK`], so a link that carries small frames keeps one page.
const FIRST_READ: usize = 4 * 1024;

/// One framed, fault-tracking connection to a peer rank.
#[derive(Debug)]
pub struct PeerLink {
    stream: TcpStream,
    /// Bytes received but not yet parsed into a complete frame. A frame
    /// is extracted only once all its bytes are here — partial reads
    /// (deadline mid-frame, short socket reads) accumulate losslessly.
    acc: Vec<u8>,
    /// Recycled scratch for outgoing frames.
    wbuf: Vec<u8>,
    /// What one socket read lands in before it joins `acc`: allocated with
    /// the link and zeroed only when a full read doubles it, so a read
    /// neither zeroes nor allocates.
    rbuf: Vec<u8>,
    /// The read timeout last applied to the socket, or `None` when it is
    /// unknown (a fresh link, or one whose socket was handed out by
    /// [`PeerLink::stream_mut`]): a receive asks the kernel to change the
    /// timeout only when it differs from this.
    timeout: Option<Option<Duration>>,
    /// Set once the link is unusable, with the first error observed;
    /// every later operation fails without touching the socket again.
    fault: Option<WireError>,
}

impl PeerLink {
    /// Wraps an established, handshaken stream. Enables `TCP_NODELAY`:
    /// the runtime's protocol messages are small and latency-bound.
    pub fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(PeerLink {
            stream,
            acc: Vec::new(),
            wbuf: Vec::new(),
            rbuf: vec![0; FIRST_READ],
            timeout: None,
            fault: None,
        })
    }

    /// The first error that broke this link, if it is broken.
    pub fn fault(&self) -> Option<&WireError> {
        self.fault.as_ref()
    }

    /// Direct access to the underlying socket, for the rendezvous steps
    /// that happen outside framing (handshake records, shutdown drains).
    /// The caller may change the socket's read timeout, so the link
    /// forgets the one it applied and sets it again on the next receive.
    pub fn stream_mut(&mut self) -> &mut TcpStream {
        self.timeout = None;
        &mut self.stream
    }

    fn break_link(&mut self, err: WireError) -> WireError {
        if self.fault.is_none() {
            self.fault = Some(err.clone());
        }
        err
    }

    /// Sends one complete frame, or reports why the peer can no longer
    /// receive. Short writes and `EINTR` are absorbed by `write_all`;
    /// `EPIPE`/reset break the link. A payload too large for one frame is
    /// refused with [`WireError::FrameTooLarge`] before a byte is written,
    /// and the link stays usable.
    pub fn send(&mut self, tag: Tag, payload: &Payload) -> Result<(), WireError> {
        if let Some(f) = &self.fault {
            return Err(f.clone());
        }
        self.wbuf.clear();
        wire::encode_frame(tag, payload, &mut self.wbuf)?;
        match self.stream.write_all(&self.wbuf) {
            Ok(()) => Ok(()),
            Err(e) => Err(self.break_link(io_to_wire(&e))),
        }
    }

    /// Parses a complete frame out of the accumulator if one is fully
    /// present. A malformed header or body breaks the link.
    fn try_extract(&mut self) -> Result<Option<TcpMsg>, WireError> {
        if self.acc.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.acc[0..4].try_into().expect("fixed slice"));
        // Validated before any reservation: an absurd prefix breaks the
        // link here, with the accumulator still tiny.
        let body_len = match wire::check_frame_len(len) {
            Ok(n) => n,
            Err(e) => return Err(self.break_link(e)),
        };
        if self.acc.len() < 4 + body_len {
            return Ok(None);
        }
        let msg = match wire::decode_frame_body(&self.acc[4..4 + body_len]) {
            Ok((tag, payload)) => TcpMsg { tag, payload },
            Err(e) => return Err(self.break_link(e)),
        };
        self.acc.drain(..4 + body_len);
        Ok(Some(msg))
    }

    /// One socket read into the accumulator: `Ok` whether bytes arrived
    /// or the read timed out (the caller re-checks its deadline).
    fn fill_once(&mut self) -> Result<(), WireError> {
        loop {
            match self.stream.read(&mut self.rbuf) {
                Ok(0) => return Err(self.break_link(WireError::Disconnected)),
                Ok(n) => {
                    self.acc.extend_from_slice(&self.rbuf[..n]);
                    if n == self.rbuf.len() && n < READ_CHUNK {
                        self.rbuf.resize(2 * n, 0);
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(())
                }
                Err(e) => return Err(self.break_link(io_to_wire(&e))),
            }
        }
    }

    /// Applies `timeout` to the socket's reads, unless it already is the
    /// one applied — a blocking receive after a blocking receive costs no
    /// system call.
    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), WireError> {
        if self.timeout == Some(timeout) {
            return Ok(());
        }
        // `set_read_timeout(Some(0))` is an invalid argument; a zero
        // remaining budget is expressed as an (arbitrary small) nonzero
        // timeout by the callers.
        self.stream
            .set_read_timeout(timeout)
            .map_err(|e| self.break_link(io_to_wire(&e)))?;
        self.timeout = Some(timeout);
        Ok(())
    }

    /// The next frame, waiting until `deadline` (`None`: for as long as it
    /// takes): `TimedOut` when the clock wins (partial bytes stay buffered
    /// — nothing tears), `Disconnected` the moment the peer is provably
    /// gone (EOF/reset/garbage) with no complete frame buffered. Without a
    /// deadline the socket read blocks, and a receive with no deadline
    /// after another costs no `set_read_timeout` call.
    pub fn recv(&mut self, deadline: Option<Instant>) -> Result<TcpMsg, RecvTimeoutError> {
        loop {
            if self.fault.is_some() {
                return self
                    .drain_after_fault()
                    .ok_or(RecvTimeoutError::Disconnected);
            }
            match self.try_extract() {
                Ok(Some(msg)) => return Ok(msg),
                Ok(None) => {}
                Err(_) => return Err(RecvTimeoutError::Disconnected),
            }
            let timeout = deadline
                .map(|deadline| {
                    deadline
                        .checked_duration_since(Instant::now())
                        .filter(|d| !d.is_zero())
                        .ok_or(RecvTimeoutError::TimedOut)
                })
                .transpose()?;
            if self.set_timeout(timeout).is_err() {
                return Err(RecvTimeoutError::Disconnected);
            }
            if self.fill_once().is_err() {
                // The peer is gone — but a complete frame may already be
                // buffered; deliver it first, exactly as a mailbox drains
                // its queue after the sender hangs up. (`try_extract` at
                // the top of the loop would miss it because `fault` is now
                // set, so check here.)
                return self
                    .drain_after_fault()
                    .ok_or(RecvTimeoutError::Disconnected);
            }
        }
    }

    /// After the link broke, hand out any complete frames that made it
    /// into the accumulator before the failure.
    fn drain_after_fault(&mut self) -> Option<TcpMsg> {
        if self.acc.len() < 4 {
            return None;
        }
        let len = u32::from_le_bytes(self.acc[0..4].try_into().expect("fixed slice"));
        let body_len = wire::check_frame_len(len).ok()?;
        if self.acc.len() < 4 + body_len {
            return None;
        }
        let (tag, payload) = wire::decode_frame_body(&self.acc[4..4 + body_len]).ok()?;
        self.acc.drain(..4 + body_len);
        Some(TcpMsg { tag, payload })
    }
}

impl MsgSource<TcpMsg> for PeerLink {
    fn recv_msg(&mut self, deadline: Option<Instant>) -> Result<TcpMsg, RecvTimeoutError> {
        self.recv(deadline)
    }
}

fn io_to_wire(e: &std::io::Error) -> WireError {
    match e.kind() {
        std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::UnexpectedEof => WireError::Disconnected,
        kind => WireError::Io(kind),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::Element;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn frames_cross_a_real_socket() {
        let (a, b) = pair();
        let mut tx = PeerLink::new(a).unwrap();
        let mut rx = PeerLink::new(b).unwrap();
        tx.send(Tag(5), &u64::pack(&[1, 2, 3])).unwrap();
        tx.send(Tag(6), &Payload::Empty).unwrap();
        let m = rx.recv(None).unwrap();
        assert_eq!(m.tag, Tag(5));
        assert_eq!(u64::unpack(m.payload), vec![1, 2, 3]);
        assert_eq!(rx.recv(None).unwrap().tag, Tag(6));
    }

    #[test]
    fn deadline_mid_frame_never_tears() {
        let (mut raw, b) = pair();
        let mut rx = PeerLink::new(b).unwrap();

        // Hand-craft a frame and send only half of it.
        let mut frame = Vec::new();
        wire::encode_frame(Tag(9), &u64::pack(&[7, 8, 9, 10]), &mut frame).unwrap();
        let split = frame.len() / 2;
        raw.write_all(&frame[..split]).unwrap();

        // The deadline expires mid-frame: a clean timeout, nothing torn.
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_millis(150);
        assert!(matches!(
            rx.recv(Some(deadline)),
            Err(RecvTimeoutError::TimedOut)
        ));
        assert!(rx.fault().is_none(), "a timeout is not a link fault");

        // The rest arrives: the same receive path completes the frame
        // from the buffered half.
        raw.write_all(&frame[split..]).unwrap();
        let m = rx
            .recv(Some(Instant::now() + Duration::from_secs(20)))
            .expect("second half completes the frame");
        assert_eq!(m.tag, Tag(9));
        assert_eq!(u64::unpack(m.payload), vec![7, 8, 9, 10]);
    }

    /// A deadline that expires leaves its timeout on the socket; the
    /// blocking receive after it must clear it and block until the frame
    /// comes, not wake every time the old deadline's timeout fires.
    #[test]
    fn blocking_recv_after_a_timed_out_deadline_still_blocks() {
        let (a, b) = pair();
        let mut tx = PeerLink::new(a).unwrap();
        let mut rx = PeerLink::new(b).unwrap();
        let deadline = Instant::now() + Duration::from_millis(20);
        assert!(matches!(
            rx.recv(Some(deadline)),
            Err(RecvTimeoutError::TimedOut)
        ));
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(300));
            tx.send(Tag(4), &u32::pack(&[11])).unwrap();
            tx
        });
        let m = rx
            .recv(None)
            .expect("the blocking receive waits for the frame");
        assert_eq!(u32::unpack(m.payload), vec![11]);
        assert_eq!(rx.timeout, Some(None), "blocking receives leave no timeout");
        assert_eq!(rx.stream.read_timeout().unwrap(), None);
        drop(late.join().unwrap());
    }

    /// Whatever the socket's timeout became through `stream_mut`, the next
    /// receive applies its own again: a short timeout set behind the link's
    /// back cannot turn a blocking receive into an early return.
    #[test]
    fn stream_mut_makes_the_next_recv_set_its_timeout() {
        let (a, b) = pair();
        let mut tx = PeerLink::new(a).unwrap();
        let mut rx = PeerLink::new(b).unwrap();
        tx.send(Tag(1), &u32::pack(&[1])).unwrap();
        assert_eq!(u32::unpack(rx.recv(None).unwrap().payload), vec![1]);
        assert_eq!(rx.timeout, Some(None));
        rx.stream_mut()
            .set_read_timeout(Some(Duration::from_millis(1)))
            .unwrap();
        assert_eq!(rx.timeout, None, "stream_mut forgets the timeout");
        let late = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            tx.send(Tag(2), &u32::pack(&[2])).unwrap();
            tx
        });
        assert_eq!(u32::unpack(rx.recv(None).unwrap().payload), vec![2]);
        assert_eq!(rx.stream.read_timeout().unwrap(), None);
        drop(late.join().unwrap());
    }

    /// A frame written a few bytes at a time reaches the blocking receive
    /// in many reads and still comes out whole — as do two frames that
    /// share one read, and a frame many read buffers long, over which the
    /// buffer grows to at most `READ_CHUNK`.
    #[test]
    fn a_frame_split_across_reads_reassembles() {
        let (mut raw, b) = pair();
        let mut rx = PeerLink::new(b).unwrap();
        let mut frames = Vec::new();
        wire::encode_frame(
            Tag(7),
            &u64::pack(&(0..300).collect::<Vec<_>>()),
            &mut frames,
        )
        .unwrap();
        wire::encode_frame(Tag(8), &u32::pack(&[5, 6]), &mut frames).unwrap();
        let mut large = Vec::new();
        wire::encode_frame(
            Tag(9),
            &u64::pack(&(0..50_000).collect::<Vec<_>>()),
            &mut large,
        )
        .unwrap();
        let writer = std::thread::spawn(move || {
            for piece in frames.chunks(97) {
                raw.write_all(piece).unwrap();
                raw.flush().unwrap();
                std::thread::sleep(Duration::from_millis(2));
            }
            raw.write_all(&large).unwrap();
            raw
        });
        let m = rx.recv(None).unwrap();
        assert_eq!(m.tag, Tag(7));
        assert_eq!(u64::unpack(m.payload), (0..300).collect::<Vec<u64>>());
        let m = rx.recv(None).unwrap();
        assert_eq!(m.tag, Tag(8));
        assert_eq!(u32::unpack(m.payload), vec![5, 6]);
        let m = rx.recv(None).unwrap();
        assert_eq!(m.tag, Tag(9));
        assert_eq!(u64::unpack(m.payload), (0..50_000).collect::<Vec<u64>>());
        assert!(rx.rbuf.len() <= READ_CHUNK, "read buffer {}", rx.rbuf.len());
        drop(writer.join().unwrap());
    }

    #[test]
    fn peer_death_beats_deadline() {
        let (raw, b) = pair();
        let mut rx = PeerLink::new(b).unwrap();
        // Peer dies: the bounded receive must report Disconnected well
        // before the (generous) deadline — death is proof, not suspicion.
        drop(raw);
        let t0 = Instant::now();
        assert!(matches!(
            rx.recv(Some(t0 + Duration::from_secs(30))),
            Err(RecvTimeoutError::Disconnected)
        ));
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "death detected at socket speed, not deadline speed"
        );
    }

    #[test]
    fn buffered_frames_survive_peer_death() {
        let (a, b) = pair();
        let mut tx = PeerLink::new(a).unwrap();
        let mut rx = PeerLink::new(b).unwrap();
        tx.send(Tag(3), &u32::pack(&[42])).unwrap();
        drop(tx);
        // The frame written before death still delivers — mailbox
        // semantics ("buffered messages are still delivered").
        let m = rx.recv(None).expect("pre-death frame delivers");
        assert_eq!(u32::unpack(m.payload), vec![42]);
        assert!(rx.recv(None).is_err(), "then the disconnect is reported");
    }

    #[test]
    fn corrupt_length_prefix_breaks_link_without_allocation() {
        let (mut raw, b) = pair();
        let mut rx = PeerLink::new(b).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert!(
            rx.recv(None).is_err(),
            "absurd prefix is a clean disconnect"
        );
        assert_eq!(
            rx.fault(),
            Some(&WireError::FrameTooLarge {
                len: u32::MAX,
                max: wire::MAX_FRAME
            })
        );
        // The accumulator never grew toward the announced length.
        assert!(rx.acc.capacity() < 1024 * 1024);
    }

    #[test]
    fn send_to_dead_peer_reports_broken_link() {
        let (a, b) = pair();
        let mut tx = PeerLink::new(a).unwrap();
        drop(b);
        // The first write may land in the kernel buffer before the RST
        // is processed; a short retry loop observes the break without
        // sleeping arbitrarily long.
        let t0 = Instant::now();
        let mut broke = false;
        while t0.elapsed() < Duration::from_secs(20) {
            if tx.send(Tag(1), &u64::pack(&[0; 4096])).is_err() {
                broke = true;
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(broke, "writes to a dead peer eventually surface the break");
        assert!(tx.fault().is_some());
    }
}
