//! Reusable communication scratch for the executor's steady-state loop.
//!
//! The paper's execution structure runs thousands of gather/sweep
//! iterations between inspector invocations (§3.3), so per-iteration
//! constant factors dominate. [`CommBuffers`] removes the allocation the
//! transport used to make per message: send staging buffers are recycled
//! from received payloads (a message's byte buffer makes a round trip
//! through the cluster instead of being freed). After a short warm-up —
//! buffer capacities converge as each byte buffer circulates through its
//! fixed send/receive cycle — a steady-state
//! [`LoopRunner`](crate::LoopRunner) iteration performs **zero heap
//! allocations** (pinned by `tests/alloc_free.rs`).
//!
//! The zero-allocation guarantee assumes the symmetric schedules the
//! paper's sort strategies build (each rank receives as many messages per
//! gather as it sends, so the buffer pool neither drains nor grows). With
//! an asymmetric schedule the pool is capped — extra received buffers are
//! dropped and missing send buffers are allocated fresh — so behaviour
//! degrades to the old per-message allocation, never to unbounded memory.

use std::marker::PhantomData;

use stance_inspector::CommSchedule;
use stance_sim::Element;

/// Recycled transport scratch owned by one
/// [`LoopRunner`](crate::LoopRunner) (or built standalone for hand-driven
/// primitive calls), rebuilt only on remap.
#[derive(Debug)]
pub struct CommBuffers<E: Element> {
    /// Reusable byte buffers: popped for send staging, refilled from
    /// received payloads after their contents are unpacked in place.
    pool: Vec<Vec<u8>>,
    /// Upper bound on `pool.len()`, so asymmetric schedules cannot grow
    /// the pool without bound.
    pool_cap: usize,
    /// The element type whose wire width sizes the staging buffers.
    _elem: PhantomData<E>,
}

impl<E: Element> CommBuffers<E> {
    /// An empty buffer set; capacities warm up over the first iterations.
    pub fn new() -> Self {
        CommBuffers {
            pool: Vec::new(),
            pool_cap: 8,
            _elem: PhantomData,
        }
    }

    /// Buffers pre-sized from a schedule: one staging buffer per send
    /// segment (capacity = one array's worth of that segment).
    ///
    /// Buffers are stacked in reverse peer order so the peer-ascending
    /// send loop pops them with matching capacities on the very first
    /// iteration.
    pub fn for_schedule(schedule: &CommSchedule) -> Self {
        let pool: Vec<Vec<u8>> = schedule
            .sends()
            .iter()
            .rev()
            .map(|(_, locals)| Vec::with_capacity(locals.len() * E::SIZE_BYTES))
            .collect();
        let pool_cap = schedule.sends().len().max(schedule.recvs().len()).max(8);
        CommBuffers {
            pool,
            pool_cap,
            _elem: PhantomData,
        }
    }

    /// Re-targets recycled buffers at a new schedule (after a remap):
    /// pooled byte buffers are kept — only the pool cap is adjusted, so a
    /// rebuild allocates nothing (compare [`CommBuffers::for_schedule`],
    /// which starts from scratch). Any buffer that turns out undersized
    /// for the new schedule grows lazily in `take_bytes`, exactly as
    /// during warm-up.
    pub fn rebuild(&mut self, schedule: &CommSchedule) {
        self.pool_cap = schedule.sends().len().max(schedule.recvs().len()).max(8);
        self.pool.truncate(self.pool_cap);
    }

    /// A cleared byte buffer with at least `capacity` bytes reserved —
    /// recycled if one is pooled, freshly allocated otherwise.
    pub(crate) fn take_bytes(&mut self, capacity: usize) -> Vec<u8> {
        match self.pool.pop() {
            Some(mut buf) => {
                buf.clear();
                buf.reserve(capacity);
                buf
            }
            None => Vec::with_capacity(capacity),
        }
    }

    /// Returns a spent buffer (typically a received payload whose contents
    /// were unpacked in place) to the pool for the next send.
    pub(crate) fn recycle(&mut self, buf: Vec<u8>) {
        if self.pool.len() < self.pool_cap {
            self.pool.push(buf);
        }
    }
}

impl<E: Element> Default for CommBuffers<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_round_trip_reuses_capacity() {
        let mut bufs: CommBuffers<f64> = CommBuffers::new();
        let mut b = bufs.take_bytes(64);
        assert!(b.capacity() >= 64);
        b.extend_from_slice(&[1, 2, 3]);
        let ptr = b.as_ptr();
        bufs.recycle(b);
        let b2 = bufs.take_bytes(16);
        assert_eq!(b2.as_ptr(), ptr, "pooled buffer must be reused");
        assert!(b2.is_empty(), "recycled buffer must come back cleared");
    }

    #[test]
    fn pool_is_capped() {
        let mut bufs: CommBuffers<f64> = CommBuffers::new();
        for _ in 0..100 {
            bufs.recycle(Vec::with_capacity(8));
        }
        assert!(bufs.pool.len() <= bufs.pool_cap);
    }
}
