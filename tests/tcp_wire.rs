//! Wire-format negative tests for the TCP process backend, run against
//! **live loopback sockets** through the transport's public API.
//!
//! The robustness contract under test: any garbage a socket can carry —
//! wrong magic, wrong protocol version, truncated handshakes, absurd or
//! impossible length prefixes — produces a *structured* [`WireError`] and
//! a clean disconnect. Never a panic, never a hang, and never an
//! allocation sized by attacker-chosen bytes (the length prefix is
//! validated **before** any buffer is reserved). A frame is
//! `[len][tag][bytes]`, and the codec is total and exact over every
//! length prefix and body (property tests below); a payload too large for
//! one frame is refused by its sender, not by the peer. The same tests
//! pin down the timing edges: a deadline
//! expiring mid-frame is suspicion (the partial bytes stay buffered and
//! the frame is delivered intact later), peer death mid-frame is proof,
//! and the connect-phase backoff is capped so rendezvous polling can
//! neither spin nor sleep unboundedly.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use proptest::prelude::*;
use stance::prelude::{Element, Payload, Tag};
use stance_tcp::wire::{
    self, Backoff, WireError, FRAME_OVERHEAD, HANDSHAKE_LEN, KIND_HELLO, KIND_PEER, MAX_FRAME,
    PROTOCOL_VERSION,
};
use stance_tcp::{PeerLink, RecvTimeoutError};

/// One connected loopback socket pair.
fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let client = TcpStream::connect(addr).expect("connect loopback");
    let (server, _) = listener.accept().expect("accept loopback");
    (client, server)
}

/// Writes raw bytes from a rogue peer, closes the connection, and
/// returns the fault a [`PeerLink`] reports for them. Asserts the
/// structured-failure contract along the way: the first receive reports
/// `Disconnected` (proof, not suspicion), the link records the *first*
/// error it saw, every later receive keeps failing without touching the
/// socket, and the whole exchange is prompt — no hang, no retry spin.
fn fault_from_rogue_bytes(bytes: &[u8]) -> WireError {
    let (attacker, victim) = pair();
    let mut link = PeerLink::new(victim).expect("wrap victim socket");
    let mut attacker = attacker;
    attacker.write_all(bytes).expect("rogue write");
    drop(attacker);

    let started = Instant::now();
    assert!(link.recv().is_err(), "garbage must not decode to a message");
    let fault = link
        .fault()
        .expect("broken link must record a fault")
        .clone();
    // Sticky: the link is dead for good, and says so immediately.
    assert!(link.recv().is_err(), "fault must be sticky");
    assert_eq!(link.fault(), Some(&fault), "first error must be preserved");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "rejection must be prompt, not a hang"
    );
    fault
}

#[test]
fn bad_magic_is_a_structured_rejection() {
    let mut hs = wire::encode_handshake(KIND_HELLO, 0, 2, 0);
    hs[0] ^= 0xFF;
    let got = u32::from_le_bytes(hs[0..4].try_into().expect("fixed slice"));
    assert_eq!(
        wire::decode_handshake(&hs, 2),
        Err(WireError::BadMagic { got }),
        "an HTTP client, a port scanner, or line noise must be named as such"
    );
}

#[test]
fn version_mismatch_is_a_structured_rejection() {
    let mut hs = wire::encode_handshake(KIND_PEER, 1, 4, 0);
    let future = PROTOCOL_VERSION + 1;
    hs[4..6].copy_from_slice(&future.to_le_bytes());
    assert_eq!(
        wire::decode_handshake(&hs, 4),
        Err(WireError::VersionMismatch {
            got: future,
            expected: PROTOCOL_VERSION
        }),
        "a newer worker must be turned away by name, not by garbled frames"
    );
}

#[test]
fn alien_universe_and_rank_are_structured_rejections() {
    let hs = wire::encode_handshake(KIND_HELLO, 0, 8, 0);
    assert_eq!(
        wire::decode_handshake(&hs, 4),
        Err(WireError::UniverseMismatch {
            got: 8,
            expected: 4
        }),
        "a worker from another launch must not join this one"
    );
    let hs = wire::encode_handshake(KIND_PEER, 7, 4, 0);
    assert_eq!(
        wire::decode_handshake(&hs, 4),
        Err(WireError::RankOutOfRange { rank: 7, size: 4 }),
    );
    let hs = wire::encode_handshake(9, 0, 4, 0);
    assert_eq!(
        wire::decode_handshake(&hs, 4),
        Err(WireError::BadHandshakeKind { got: 9 }),
    );
}

/// A peer that dies mid-handshake (or a client that sends a short blurb
/// and hangs up) must cost the acceptor one bounded read, not a stall.
#[test]
fn truncated_handshake_never_hangs_the_acceptor() {
    let (mut rogue, mut acceptor) = pair();
    acceptor
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("bound the read");
    rogue.write_all(&[0x53, 0x54, 0x4E]).expect("partial write");
    drop(rogue); // hang up mid-handshake

    let started = Instant::now();
    let mut buf = [0u8; HANDSHAKE_LEN];
    let err = acceptor
        .read_exact(&mut buf)
        .expect_err("a truncated handshake must not decode");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(started.elapsed() < Duration::from_secs(5), "must not hang");
}

/// The attacker claims a 4 GiB frame is coming. The length check runs
/// before any buffer is reserved, so the link breaks with the prefix
/// named in the error and process memory never moves.
#[test]
fn absurd_length_prefix_is_rejected_before_allocation() {
    let fault = fault_from_rogue_bytes(&u32::MAX.to_le_bytes());
    assert_eq!(
        fault,
        WireError::FrameTooLarge {
            len: u32::MAX,
            max: MAX_FRAME
        }
    );
}

/// One past the cap is as dead as 4 GiB: the bound is exact.
#[test]
fn just_past_max_frame_is_rejected() {
    let fault = fault_from_rogue_bytes(&(MAX_FRAME + 1).to_le_bytes());
    assert_eq!(
        fault,
        WireError::FrameTooLarge {
            len: MAX_FRAME + 1,
            max: MAX_FRAME
        }
    );
}

/// A length too short to even hold the frame header is impossible, not
/// merely empty — accepting it would desynchronize the stream forever.
#[test]
fn impossible_short_length_prefix_is_rejected() {
    let fault = fault_from_rogue_bytes(&2u32.to_le_bytes());
    assert_eq!(fault, WireError::FrameTooShort { len: 2 });
}

/// A payload too large for one frame is refused by the link that would
/// send it, before a byte is written: the failure surfaces on the sending
/// rank, the link stays usable, and the next frame arrives intact.
#[test]
fn oversize_payload_is_refused_at_the_sender() {
    let (a, b) = pair();
    let mut tx = PeerLink::new(a).expect("wrap sender socket");
    let mut rx = PeerLink::new(b).expect("wrap receiver socket");
    let huge = Payload::from_bytes(vec![0; MAX_FRAME as usize]);
    assert_eq!(
        tx.send(Tag(1), &huge),
        Err(WireError::FrameTooLarge {
            len: MAX_FRAME + FRAME_OVERHEAD,
            max: MAX_FRAME
        })
    );
    assert!(tx.fault().is_none(), "a refused send is not a link fault");
    tx.send(Tag(2), &u32::pack(&[5, 6]))
        .expect("the link still sends");
    let msg = rx.recv().expect("the small frame arrives");
    assert_eq!(msg.tag, Tag(2));
    assert_eq!(u32::unpack(msg.payload), vec![5, 6]);
}

/// Bytes drawn from `0..256`, for the codec properties.
fn bytes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(0u16..256, len)
}

proptest! {
    /// Every length prefix is accepted or rejected, never a panic: exactly
    /// the ones in `FRAME_OVERHEAD..=MAX_FRAME` are frame bodies of that
    /// length. (One draw over the whole word, one near the bounds.)
    #[test]
    fn every_length_prefix_is_judged(any in 0u32..u32::MAX, near in 0u32..MAX_FRAME + 64) {
        for len in [any, near, 0, FRAME_OVERHEAD - 1, FRAME_OVERHEAD, MAX_FRAME, MAX_FRAME + 1, u32::MAX] {
            match wire::check_frame_len(len) {
                Ok(n) => prop_assert!(n == len as usize && (FRAME_OVERHEAD..=MAX_FRAME).contains(&len)),
                Err(WireError::FrameTooShort { len: l }) => prop_assert!(l == len && len < FRAME_OVERHEAD),
                Err(WireError::FrameTooLarge { len: l, max }) => {
                    prop_assert!(l == len && max == MAX_FRAME && len > MAX_FRAME);
                }
                Err(other) => prop_assert!(false, "unexpected {other:?} for {len}"),
            }
        }
    }

    /// Any body that can hold a tag decodes: its first four bytes are the
    /// tag and the rest, whatever they are, the payload.
    #[test]
    fn every_body_decodes(body in bytes(FRAME_OVERHEAD as usize..4096)) {
        let body: Vec<u8> = body.into_iter().map(|b| b as u8).collect();
        let (tag, payload) = wire::decode_frame_body(&body).expect("a body with a tag decodes");
        prop_assert_eq!(tag.0.to_le_bytes(), [body[0], body[1], body[2], body[3]]);
        prop_assert_eq!(payload.as_bytes(), &body[4..]);
    }

    /// Encode, check the length prefix, decode: the same tag and bytes come
    /// back, in a frame of exactly `8 + n` bytes.
    #[test]
    fn frames_round_trip_exactly(tag in 0u32..u32::MAX, data in bytes(0..4097)) {
        let data: Vec<u8> = data.into_iter().map(|b| b as u8).collect();
        let n = data.len();
        let payload = Payload::from_bytes(data);
        let mut frame = Vec::new();
        wire::encode_frame(Tag(tag), &payload, &mut frame).expect("fits a frame");
        prop_assert_eq!(frame.len(), 8 + n);
        let len = u32::from_le_bytes(frame[0..4].try_into().expect("fixed slice"));
        let body_len = wire::check_frame_len(len).expect("a legal length");
        prop_assert_eq!(body_len, 4 + n);
        let decoded = wire::decode_frame_body(&frame[4..]).expect("decodes");
        prop_assert_eq!(decoded, (Tag(tag), payload));
    }
}

/// Valid traffic already buffered ahead of the garbage is still
/// delivered — death never destroys evidence that arrived intact.
#[test]
fn valid_frames_ahead_of_garbage_are_still_delivered() {
    let (mut attacker, victim) = pair();
    let mut link = PeerLink::new(victim).expect("wrap victim socket");
    let mut good = Vec::new();
    wire::encode_frame(Tag(9), &u32::pack(&[1, 2, 3]), &mut good).expect("fits a frame");
    good.extend_from_slice(&u32::MAX.to_le_bytes()); // then the lie
    attacker.write_all(&good).expect("write frame + garbage");
    drop(attacker);

    let msg = link.recv().expect("the intact frame must be delivered");
    assert_eq!(msg.tag, Tag(9));
    assert_eq!(u32::unpack(msg.payload), vec![1, 2, 3]);
    assert!(link.recv().is_err(), "then the link is dead");
    assert_eq!(
        link.fault(),
        Some(&WireError::FrameTooLarge {
            len: u32::MAX,
            max: MAX_FRAME
        })
    );
}

/// A deadline expiring mid-frame is *suspicion*: the link stays healthy,
/// the partial bytes stay buffered, and when the rest of the frame
/// arrives it is delivered intact. This is the edge the accumulator
/// exists for — a slow sender straddling a deadline must never tear.
#[test]
fn deadline_mid_frame_is_suspicion_and_the_frame_survives() {
    let (mut sender, receiver) = pair();
    let mut link = PeerLink::new(receiver).expect("wrap receiver socket");
    let mut frame = Vec::new();
    wire::encode_frame(Tag(4), &f64::pack(&[1.5, -2.5]), &mut frame).expect("fits a frame");
    let split = frame.len() / 2;
    sender.write_all(&frame[..split]).expect("first half");

    let verdict = link.recv_deadline(Instant::now() + Duration::from_millis(50));
    assert!(
        matches!(verdict, Err(RecvTimeoutError::TimedOut)),
        "mid-frame deadline must be TimedOut (suspicion), got {verdict:?}"
    );
    assert!(link.fault().is_none(), "a timeout must not break the link");

    sender.write_all(&frame[split..]).expect("second half");
    let msg = link
        .recv_deadline(Instant::now() + Duration::from_secs(5))
        .expect("completed frame must arrive intact");
    assert_eq!(msg.tag, Tag(4));
    assert_eq!(f64::unpack(msg.payload), vec![1.5, -2.5]);
}

/// Peer death mid-frame is *proof*: the half-frame can never complete,
/// so the receive reports `Disconnected` — the verdict the failure
/// detector consumes — rather than timing out forever.
#[test]
fn peer_death_mid_frame_is_proof() {
    let (mut sender, receiver) = pair();
    let mut link = PeerLink::new(receiver).expect("wrap receiver socket");
    let mut frame = Vec::new();
    wire::encode_frame(Tag(2), &u64::pack(&[42]), &mut frame).expect("fits a frame");
    sender
        .write_all(&frame[..frame.len() - 3])
        .expect("almost all of it");
    drop(sender); // SIGKILL's view from the other end: reset, mid-frame

    let verdict = link.recv_deadline(Instant::now() + Duration::from_secs(5));
    assert!(
        matches!(verdict, Err(RecvTimeoutError::Disconnected)),
        "death mid-frame must be Disconnected (proof), got {verdict:?}"
    );
    assert!(link.fault().is_some(), "the link must record the death");
}

/// The rendezvous backoff is clamped on both sides: never below `base`
/// (a retry loop cannot busy-spin) and never above `cap` (a late peer is
/// polled at a fixed polite rate, not slept past). Huge attempt numbers
/// must not overflow into panic or zero.
#[test]
fn backoff_is_clamped_at_both_ends() {
    let b = Backoff::default();
    let mut last = Duration::ZERO;
    for attempt in 0..40 {
        let d = b.delay(attempt);
        assert!(d >= b.base, "attempt {attempt}: below base");
        assert!(d <= b.cap, "attempt {attempt}: above cap");
        assert!(d >= last, "attempt {attempt}: delays must not shrink");
        last = d;
    }
    assert_eq!(b.delay(10_000), b.cap, "huge attempts must pin at the cap");
}

/// Dialing a port nobody listens on gives up within the stated budget —
/// with an error, not a panic, and without sleeping far past it.
#[test]
fn connect_backoff_gives_up_within_budget() {
    // Bind-then-drop yields a port that was just proven unoccupied.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind probe");
        listener.local_addr().expect("local addr")
    };
    let budget = Duration::from_millis(300);
    let started = Instant::now();
    let res = wire::connect_with_backoff(addr, budget, Backoff::default());
    assert!(res.is_err(), "nobody listens there");
    assert!(
        started.elapsed() < budget + Duration::from_secs(5),
        "give-up must track the budget"
    );
}
