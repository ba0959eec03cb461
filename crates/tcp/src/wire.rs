//! The wire format: versioned handshakes, length-prefixed data frames,
//! structured decode errors, and the capped-backoff connect helper.
//!
//! Everything a byte can do wrong is an enumerated [`WireError`], never a
//! panic: a peer sending garbage gets its link marked broken and is
//! disconnected cleanly, and an absurd length prefix is rejected *before*
//! any allocation happens ([`MAX_FRAME`]), so a malicious peer cannot ask
//! this process to reserve gigabytes.
//!
//! ## Handshake (fixed 20 bytes)
//!
//! ```text
//! [magic: u32 LE] [version: u16 LE] [kind: u8] [rank: u32 LE] [size: u32 LE] [port: u16 LE] [reserved: 3 × u8 = 0]
//! ```
//!
//! `kind` distinguishes the child→coordinator `HELLO` (where `port` is the
//! child's peer-listener port) from the rank→rank `PEER` introduction
//! (where `port` is zero). Decoding validates magic, protocol version,
//! kind, universe size and rank range — anything else is a [`WireError`]
//! and the connection is dropped.
//!
//! ## Data frames
//!
//! ```text
//! [len: u32 LE] [tag: u32 LE] [payload bytes]
//! ```
//!
//! `len` counts everything after itself (so `len = 4 + payload bytes`) and
//! must be in `4..=MAX_FRAME`. A [`Payload`] is bytes, carried as they
//! are: typing them is the layer above's business ([`stance_sim::Element`]),
//! so a round trip is bitwise exact — the cross-backend equivalence tests
//! depend on that. A sender refuses a payload too large for one frame
//! before it writes a byte ([`encode_frame`]).

use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use stance_sim::{Payload, Tag};

/// Frame and handshake magic: `"STNC"` as a little-endian `u32`.
pub const MAGIC: u32 = 0x434E_5453;

/// The protocol version this build speaks. Bumped on any incompatible
/// wire change; the handshake rejects mismatches on both sides.
pub const PROTOCOL_VERSION: u16 = 2;

/// Hard cap on a data frame's `len` field. A length prefix above this is
/// rejected before any buffer is reserved — the defense against a corrupt
/// or malicious peer driving unbounded allocation.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Bytes of frame body that precede the payload (the `tag`), and
/// therefore the minimum legal `len`.
pub const FRAME_OVERHEAD: u32 = 4;

/// Size of the fixed handshake record.
pub const HANDSHAKE_LEN: usize = 20;

/// Handshake `kind` byte: child introducing itself to the coordinator.
pub const KIND_HELLO: u8 = 0;

/// Handshake `kind` byte: rank introducing itself to a higher rank.
pub const KIND_PEER: u8 = 1;

/// Everything that can be wrong with bytes received from a peer. One
/// structured error per failure mode — the negative wire-format tests
/// enumerate these — plus [`WireError::Disconnected`] for a peer that is
/// simply gone (EOF or a reset mid-frame).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The handshake did not start with [`MAGIC`] — not a stance peer.
    BadMagic {
        /// The four bytes received where the magic belonged.
        got: u32,
    },
    /// The peer speaks a different protocol version.
    VersionMismatch {
        /// The version the peer announced.
        got: u16,
        /// The version this build speaks ([`PROTOCOL_VERSION`]).
        expected: u16,
    },
    /// The handshake `kind` byte is not a known kind.
    BadHandshakeKind {
        /// The byte received.
        got: u8,
    },
    /// The announced rank is not in `0..size`.
    RankOutOfRange {
        /// The rank the peer announced.
        rank: u32,
        /// The universe size the receiver expects.
        size: u32,
    },
    /// The peer believes the cluster has a different number of ranks.
    UniverseMismatch {
        /// The size the peer announced.
        got: u32,
        /// The size the receiver expects.
        expected: u32,
    },
    /// A frame length prefix above [`MAX_FRAME`] — rejected before any
    /// allocation.
    FrameTooLarge {
        /// The announced length.
        len: u32,
        /// The cap ([`MAX_FRAME`]).
        max: u32,
    },
    /// A frame length prefix too small to hold even the frame header.
    FrameTooShort {
        /// The announced length.
        len: u32,
    },
    /// The peer is gone: EOF, connection reset, or broken pipe.
    Disconnected,
    /// Any other I/O failure on the socket.
    Io(std::io::ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic { got } => {
                write!(
                    f,
                    "bad handshake magic {got:#010x} (expected {MAGIC:#010x})"
                )
            }
            WireError::VersionMismatch { got, expected } => {
                write!(f, "protocol version {got} (this build speaks {expected})")
            }
            WireError::BadHandshakeKind { got } => write!(f, "unknown handshake kind {got}"),
            WireError::RankOutOfRange { rank, size } => {
                write!(f, "announced rank {rank} out of range for {size} ranks")
            }
            WireError::UniverseMismatch { got, expected } => {
                write!(
                    f,
                    "peer believes the cluster has {got} ranks, not {expected}"
                )
            }
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the {max}-byte cap")
            }
            WireError::FrameTooShort { len } => {
                write!(f, "frame length {len} cannot hold a frame header")
            }
            WireError::Disconnected => write!(f, "peer disconnected"),
            WireError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A validated handshake record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// [`KIND_HELLO`] or [`KIND_PEER`].
    pub kind: u8,
    /// The announcing peer's rank.
    pub rank: u32,
    /// The universe size the peer believes in.
    pub size: u32,
    /// For `HELLO`: the port the child's peer listener is bound to.
    pub port: u16,
}

/// Encodes a handshake record for the wire.
pub fn encode_handshake(kind: u8, rank: u32, size: u32, port: u16) -> [u8; HANDSHAKE_LEN] {
    let mut out = [0u8; HANDSHAKE_LEN];
    out[0..4].copy_from_slice(&MAGIC.to_le_bytes());
    out[4..6].copy_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    out[6] = kind;
    out[7..11].copy_from_slice(&rank.to_le_bytes());
    out[11..15].copy_from_slice(&size.to_le_bytes());
    out[15..17].copy_from_slice(&port.to_le_bytes());
    out
}

/// Decodes and validates a handshake against the receiver's universe
/// size. Every rejection is a distinct [`WireError`]; the caller's answer
/// to any of them is a clean disconnect.
pub fn decode_handshake(
    buf: &[u8; HANDSHAKE_LEN],
    expected_size: u32,
) -> Result<Handshake, WireError> {
    let magic = u32::from_le_bytes(buf[0..4].try_into().expect("fixed slice"));
    if magic != MAGIC {
        return Err(WireError::BadMagic { got: magic });
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("fixed slice"));
    if version != PROTOCOL_VERSION {
        return Err(WireError::VersionMismatch {
            got: version,
            expected: PROTOCOL_VERSION,
        });
    }
    let kind = buf[6];
    if kind != KIND_HELLO && kind != KIND_PEER {
        return Err(WireError::BadHandshakeKind { got: kind });
    }
    let rank = u32::from_le_bytes(buf[7..11].try_into().expect("fixed slice"));
    let size = u32::from_le_bytes(buf[11..15].try_into().expect("fixed slice"));
    if size != expected_size {
        return Err(WireError::UniverseMismatch {
            got: size,
            expected: expected_size,
        });
    }
    if rank >= size {
        return Err(WireError::RankOutOfRange { rank, size });
    }
    let port = u16::from_le_bytes(buf[15..17].try_into().expect("fixed slice"));
    Ok(Handshake {
        kind,
        rank,
        size,
        port,
    })
}

/// Validates a frame's length prefix **before any allocation**. Returns
/// the body length (everything after the `len` word) on success.
pub fn check_frame_len(len: u32) -> Result<usize, WireError> {
    if len < FRAME_OVERHEAD {
        return Err(WireError::FrameTooShort { len });
    }
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_FRAME,
        });
    }
    Ok(len as usize)
}

/// Appends one complete frame (length prefix included) to `out`. The
/// caller recycles `out` across sends, so steady-state framing allocates
/// only when a payload outgrows every previous one.
///
/// # Errors
/// [`WireError::FrameTooLarge`] for a payload too large for one frame —
/// the sender's check, so an oversize message fails on the rank that sent
/// it instead of breaking the link at the peer. `out` is left as it was,
/// and `len` is reported saturated at `u32::MAX` when it does not fit the
/// word at all.
pub fn encode_frame(tag: Tag, payload: &Payload, out: &mut Vec<u8>) -> Result<(), WireError> {
    let len = u64::from(FRAME_OVERHEAD) + payload.size_bytes() as u64;
    if len > u64::from(MAX_FRAME) {
        return Err(WireError::FrameTooLarge {
            len: u32::try_from(len).unwrap_or(u32::MAX),
            max: MAX_FRAME,
        });
    }
    let len = len as u32;
    out.reserve(4 + len as usize);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&tag.0.to_le_bytes());
    out.extend_from_slice(payload.as_bytes());
    Ok(())
}

/// Decodes a frame body (the bytes after the length prefix, already
/// validated by [`check_frame_len`]) into its tag and payload.
///
/// # Errors
/// [`WireError::FrameTooShort`] for a body that cannot hold a tag.
pub fn decode_frame_body(body: &[u8]) -> Result<(Tag, Payload), WireError> {
    let Some((tag, data)) = body.split_first_chunk::<4>() else {
        return Err(WireError::FrameTooShort {
            len: body.len() as u32,
        });
    };
    Ok((
        Tag(u32::from_le_bytes(*tag)),
        Payload::from_bytes(data.to_vec()),
    ))
}

/// Connect-phase retry policy: exponential backoff from `base` by
/// `factor`, clamped at `cap`. Every delay is at least `base` — a retry
/// loop over this policy can never busy-spin — and at most `cap`, so a
/// long rendezvous degrades to polite fixed-rate polling instead of
/// sleeping past the peer's arrival.
#[derive(Debug, Clone, Copy)]
pub struct Backoff {
    /// First retry delay.
    pub base: Duration,
    /// Multiplier applied per attempt (≥ 1).
    pub factor: f64,
    /// Upper clamp on any delay.
    pub cap: Duration,
}

impl Default for Backoff {
    /// 1 ms doubling to a 100 ms cap: loopback rendezvous resolves in a
    /// few attempts, a slow-starting peer costs ten polls a second.
    fn default() -> Self {
        Backoff {
            base: Duration::from_millis(1),
            factor: 2.0,
            cap: Duration::from_millis(100),
        }
    }
}

impl Backoff {
    /// The delay before retry number `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Duration {
        let secs = self.base.as_secs_f64() * self.factor.powi(attempt.min(64) as i32);
        let capped = secs.min(self.cap.as_secs_f64());
        Duration::from_secs_f64(capped.max(self.base.as_secs_f64()))
    }
}

/// Dials `addr`, retrying with capped exponential backoff until
/// `total_timeout` has elapsed. This is the connect half of rendezvous:
/// the listener may simply not exist yet (its process is still being
/// spawned), so refusal is an expected transient, not an error — until
/// the deadline says otherwise.
pub fn connect_with_backoff(
    addr: SocketAddr,
    total_timeout: Duration,
    backoff: Backoff,
) -> std::io::Result<TcpStream> {
    let give_up = Instant::now() + total_timeout;
    let mut attempt = 0u32;
    loop {
        let remaining = give_up.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!("connect to {addr} did not succeed within {total_timeout:?}"),
            ));
        }
        match TcpStream::connect_timeout(&addr, remaining) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                let remaining = give_up.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(e);
                }
                std::thread::sleep(backoff.delay(attempt).min(remaining));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_sim::Element;

    #[test]
    fn handshake_round_trip() {
        let bytes = encode_handshake(KIND_HELLO, 3, 8, 45123);
        let h = decode_handshake(&bytes, 8).expect("valid handshake");
        assert_eq!(
            h,
            Handshake {
                kind: KIND_HELLO,
                rank: 3,
                size: 8,
                port: 45123
            }
        );
    }

    #[test]
    fn handshake_rejections_are_structured() {
        let mut bad_magic = encode_handshake(KIND_PEER, 0, 2, 0);
        bad_magic[0] ^= 0xFF;
        assert!(matches!(
            decode_handshake(&bad_magic, 2),
            Err(WireError::BadMagic { .. })
        ));

        let mut bad_version = encode_handshake(KIND_PEER, 0, 2, 0);
        bad_version[4..6].copy_from_slice(&999u16.to_le_bytes());
        assert_eq!(
            decode_handshake(&bad_version, 2),
            Err(WireError::VersionMismatch {
                got: 999,
                expected: PROTOCOL_VERSION
            })
        );

        let mut bad_kind = encode_handshake(KIND_PEER, 0, 2, 0);
        bad_kind[6] = 77;
        assert_eq!(
            decode_handshake(&bad_kind, 2),
            Err(WireError::BadHandshakeKind { got: 77 })
        );

        let wrong_universe = encode_handshake(KIND_PEER, 0, 4, 0);
        assert_eq!(
            decode_handshake(&wrong_universe, 2),
            Err(WireError::UniverseMismatch {
                got: 4,
                expected: 2
            })
        );

        let bad_rank = encode_handshake(KIND_PEER, 2, 2, 0);
        assert_eq!(
            decode_handshake(&bad_rank, 2),
            Err(WireError::RankOutOfRange { rank: 2, size: 2 })
        );
    }

    #[test]
    fn frame_round_trip() {
        let cases = vec![
            Payload::Empty,
            f64::pack(&[1.5, -0.0, f64::NAN, 1e300]),
            u32::pack(&[0, 1, u32::MAX]),
            Payload::from_bytes(vec![0, 255, 7]),
        ];
        for payload in cases {
            let mut buf = Vec::new();
            encode_frame(Tag(99), &payload, &mut buf).expect("fits a frame");
            let len = u32::from_le_bytes(buf[0..4].try_into().unwrap());
            let body_len = check_frame_len(len).expect("legal length");
            assert_eq!(buf.len(), 4 + body_len);
            let decoded = decode_frame_body(&buf[4..]).expect("decodes");
            assert_eq!(decoded, (Tag(99), payload));
        }
    }

    #[test]
    fn absurd_length_rejected_before_allocation() {
        assert_eq!(
            check_frame_len(u32::MAX),
            Err(WireError::FrameTooLarge {
                len: u32::MAX,
                max: MAX_FRAME
            })
        );
        assert_eq!(check_frame_len(2), Err(WireError::FrameTooShort { len: 2 }));
        assert_eq!(check_frame_len(FRAME_OVERHEAD), Ok(FRAME_OVERHEAD as usize));
    }

    #[test]
    fn oversize_payload_is_refused_before_encoding() {
        let payload = Payload::from_bytes(vec![0; (MAX_FRAME - FRAME_OVERHEAD) as usize + 1]);
        let mut out = vec![7];
        assert_eq!(
            encode_frame(Tag(1), &payload, &mut out),
            Err(WireError::FrameTooLarge {
                len: MAX_FRAME + 1,
                max: MAX_FRAME
            })
        );
        assert_eq!(out, vec![7], "nothing was written");
        assert_eq!(
            decode_frame_body(&[1, 2, 3]),
            Err(WireError::FrameTooShort { len: 3 })
        );
    }

    #[test]
    fn backoff_caps_and_never_spins() {
        let b = Backoff::default();
        let mut prev = Duration::ZERO;
        for attempt in 0..40 {
            let d = b.delay(attempt);
            assert!(d >= b.base, "delay {d:?} below base — would busy-spin");
            assert!(d <= b.cap, "delay {d:?} above cap");
            assert!(d >= prev, "backoff must be monotone non-decreasing");
            prev = d;
        }
        assert_eq!(b.delay(39), b.cap, "large attempts saturate at the cap");
    }

    #[test]
    fn connect_backoff_gives_up_cleanly() {
        // A port nobody listens on (bind-then-drop reserves a fresh one).
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let t0 = Instant::now();
        let err = connect_with_backoff(addr, Duration::from_millis(200), Backoff::default())
            .expect_err("nothing listens there");
        // Clean error after roughly the budget — not a hang, not a panic.
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "gave up in bounded time"
        );
        let _ = err;
    }
}
