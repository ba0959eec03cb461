//! The backend-conformance bodies, written once against the [`Comm`]
//! trait and instantiated by `tests/comm_conformance.rs` against **all
//! three** backends: the virtual-time simulator, the native thread pool,
//! and the process-per-rank TCP cluster (where each body becomes a named
//! worker scenario). A backend that buffers, orders, or folds differently
//! fails the same body everywhere, which is the point of keeping exactly
//! one copy here.
//!
//! Covered contract points: per-(source, tag) FIFO ordering, tag
//! isolation (mismatched tags are buffered, not dropped or misdelivered,
//! however long before the receiver asks they were sent), repeated
//! barriers, a barrier holding every rank until the last arrives,
//! rank-order `allreduce_f64` folding, the broadcast/gather/allgather
//! collectives, and the lossy/bounded primitives (`post`,
//! `recv_deadline`).

use std::time::{Duration, SystemTime, UNIX_EPOCH};

use stance::prelude::*;
use stance_verify::{analyze_traces, RankTrace};

/// Analyzer gate shared by every launcher: a conformance body must not
/// only produce the right data, its recorded traffic must satisfy the
/// protocol checker — matched sends, agreeing barrier counts.
pub fn expect_protocol_clean(backend: &str, traces: &[RankTrace]) {
    let diags = analyze_traces(traces);
    assert!(
        diags.is_empty(),
        "{backend} conformance traffic violated the protocol: {diags:?}"
    );
}

/// Messages between one (source, destination) pair with one tag are
/// received in send order, from every source at once. Run with 3 ranks.
pub fn send_recv_ordering<C: Comm>(c: &mut C) {
    const MSGS: u32 = 10;
    let me = c.rank() as u32;
    for dst in 0..c.size() {
        if dst != c.rank() {
            for seq in 0..MSGS {
                c.send(dst, Tag(7), Payload::from_u32(vec![me, seq]));
            }
        }
    }
    for src in 0..c.size() {
        if src != c.rank() {
            for seq in 0..MSGS {
                let words = c.recv(src, Tag(7)).into_u32();
                assert_eq!(words, vec![src as u32, seq], "out-of-order from {src}");
            }
        }
    }
}

/// A receive for tag B must skip (and preserve) earlier tag-A traffic;
/// per-tag FIFO order survives the buffering — also for messages sent
/// long before the receiver asks. Run with 2 ranks.
pub fn tag_isolation<C: Comm>(c: &mut C) {
    if c.rank() == 0 {
        // Interleave two tag streams.
        c.send(1, Tag(1), Payload::from_u32(vec![10]));
        c.send(1, Tag(2), Payload::from_u32(vec![20]));
        c.send(1, Tag(1), Payload::from_u32(vec![11]));
        c.send(1, Tag(2), Payload::from_u32(vec![21]));
    } else if c.rank() == 1 {
        // Drain tag 2 first, then tag 1: both streams stay FIFO.
        assert_eq!(c.recv(0, Tag(2)).into_u32(), vec![20]);
        assert_eq!(c.recv(0, Tag(2)).into_u32(), vec![21]);
        assert_eq!(c.recv(0, Tag(1)).into_u32(), vec![10]);
        assert_eq!(c.recv(0, Tag(1)).into_u32(), vec![11]);
    }
    // The same with no sender in sight: two barriers, so the sender
    // completed its sends strictly before the first and has nothing left
    // to do by the second. The messages are buffered, and delivered FIFO
    // per (source, tag) whichever tag is asked for first.
    if c.rank() == 0 {
        c.send(1, Tag(8), Payload::from_u64(vec![77]));
        c.send(1, Tag(9), Payload::from_u64(vec![90]));
        c.send(1, Tag(8), Payload::from_u64(vec![78]));
    }
    c.barrier();
    c.barrier();
    if c.rank() == 1 {
        assert_eq!(c.recv(0, Tag(9)).into_u64(), vec![90]);
        assert_eq!(c.recv(0, Tag(8)).into_u64(), vec![77]);
        assert_eq!(c.recv(0, Tag(8)).into_u64(), vec![78]);
    }
}

/// Repeated barriers separate communication rounds: a ring exchange
/// per round, with the round number as the tag, never cross-talks.
/// Run with 4 ranks.
pub fn barrier_rounds<C: Comm>(c: &mut C) {
    let p = c.size();
    for round in 0..20u32 {
        let next = (c.rank() + 1) % p;
        let prev = (c.rank() + p - 1) % p;
        c.send(next, Tag(round), Payload::from_u32(vec![round]));
        let got = c.recv(prev, Tag(round)).into_u32();
        assert_eq!(got, vec![round]);
        c.barrier();
    }
}

/// `allreduce_f64` folds in rank order on every backend, so even
/// non-commutative floating-point effects are reproducible. Run with 4
/// ranks.
pub fn allreduce_ops<C: Comm>(c: &mut C) {
    let p = c.size();
    let sum = c.allreduce_f64(Tag(1), (c.rank() + 1) as f64, |a, b| a + b);
    assert_eq!(sum, (p * (p + 1)) as f64 / 2.0);
    let max = c.allreduce_f64(Tag(2), c.rank() as f64, f64::max);
    assert_eq!(max, (p - 1) as f64);
    // A deliberately order-sensitive fold: rank-order means every rank
    // and every backend computes exactly this sequential reference.
    let folded = c.allreduce_f64(Tag(3), 1.0 + c.rank() as f64 * 0.1, |a, b| a / 3.0 + b);
    let expected = (0..p)
        .map(|r| 1.0 + r as f64 * 0.1)
        .reduce(|a, b| a / 3.0 + b)
        .unwrap();
    assert_eq!(folded.to_bits(), expected.to_bits());
}

/// `post` delivers like `send` (and reports delivery); `recv_deadline`
/// returns the message when one is in flight and `None` once the
/// deadline lapses with nothing to receive. Run with 2 ranks.
pub fn post_and_recv_deadline<C: Comm>(c: &mut C) {
    if c.rank() == 0 {
        assert!(
            c.post(1, Tag(40), Payload::from_u32(vec![99])),
            "post to a live rank must report delivery"
        );
    } else if c.rank() == 1 {
        let got = c
            .recv_deadline(0, Tag(40), 5.0)
            .expect("posted message must arrive within the deadline");
        assert_eq!(got.into_u32(), vec![99]);
        // Nothing else is coming on this tag: the deadline lapses.
        assert!(c.recv_deadline(0, Tag(40), 0.05).is_none());
    }
    c.barrier();
}

/// A timed-out `recv_deadline` consumes nothing: traffic sent later
/// on the same stream is received intact and in order. Run with 2
/// ranks.
pub fn deadline_timeout_preserves_stream<C: Comm>(c: &mut C) {
    if c.rank() == 1 {
        assert!(
            c.recv_deadline(0, Tag(41), 0.05).is_none(),
            "nothing was sent yet"
        );
    }
    c.barrier();
    if c.rank() == 0 {
        c.send(1, Tag(41), Payload::from_u32(vec![1]));
        c.send(1, Tag(41), Payload::from_u32(vec![2]));
    } else if c.rank() == 1 {
        assert_eq!(c.recv(0, Tag(41)).into_u32(), vec![1]);
        assert_eq!(
            c.recv_deadline(0, Tag(41), 5.0)
                .expect("second message is in flight")
                .into_u32(),
            vec![2]
        );
    }
    c.barrier();
}

/// A barrier holds every rank until the last one arrives: once a first
/// barrier has lined everyone up, the last rank sleeps 60 ms, stamps the
/// clock as it enters the second barrier and broadcasts the stamp after
/// it, and no rank may have left the second barrier before that stamp.
/// The check is causal, so a slow host cannot fail a correct barrier; one
/// that skips a round — or does nothing — lets some rank out about 60 ms
/// early. Run with 5 ranks (not a power of two, so the rounds wrap).
pub fn barrier_waits_for_the_last_arrival<C: Comm>(c: &mut C) {
    // The wall clock, in nanoseconds: the one clock the ranks of a
    // multi-process backend share.
    let now = || {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .expect("clock is past the epoch")
            .as_nanos() as u64
    };
    let last = c.size() - 1;
    c.barrier();
    let mut entered = 0;
    if c.rank() == last {
        std::thread::sleep(Duration::from_millis(60));
        entered = now();
    }
    c.barrier();
    let left = now();
    let entered = c
        .bcast_from(last, Tag(42), Payload::from_u64(vec![entered]))
        .into_u64()[0];
    assert!(
        left >= entered,
        "rank {} left the barrier {} µs before the last rank arrived",
        c.rank(),
        (entered - left) / 1000
    );
}

/// Broadcast, rooted gather, and allgather deliver rank-ordered data.
/// Run with 4 ranks.
pub fn bcast_and_gather<C: Comm>(c: &mut C) {
    let payload = if c.rank() == 2 {
        Payload::from_f64(vec![3.25])
    } else {
        Payload::Empty
    };
    assert_eq!(c.bcast_from(2, Tag(9), payload).into_f64(), vec![3.25]);

    let mine = Payload::from_u32(vec![c.rank() as u32 * 10]);
    let gathered = c.gather_to(1, Tag(5), mine);
    if c.rank() == 1 {
        let ids: Vec<u32> = gathered
            .expect("root receives the gather")
            .into_iter()
            .flat_map(Payload::into_u32)
            .collect();
        let expected: Vec<u32> = (0..c.size() as u32).map(|r| r * 10).collect();
        assert_eq!(ids, expected);
    } else {
        assert!(gathered.is_none());
    }

    let all = c.allgather(Tag(6), Payload::from_u64(vec![c.rank() as u64]));
    let ids: Vec<u64> = all.into_iter().flat_map(Payload::into_u64).collect();
    let expected: Vec<u64> = (0..c.size() as u64).collect();
    assert_eq!(ids, expected);
}
