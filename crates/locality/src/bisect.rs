//! The one recursive-bisection driver behind [`crate::rcb`] and
//! [`crate::rib`].
//!
//! Points travel through the recursion as records of integer keys plus the
//! vertex id, so a median split moves whole records and compares integers:
//! no `coords[id]` lookup and no floating-point branch per comparison. A
//! method only says, per level, which key slot to split on (RCB: the widest
//! axis; RIB: a slot it fills with the projections onto the principal axis).
//!
//! The two halves of a split are independent, so they are handed to scoped
//! threads while they are large and the host has cores left. The resulting
//! permutation is a pure function of the input: the key order is total
//! (ties break on id), a half's contents do not depend on who orders it, and
//! leaves are sorted by id.

use std::sync::OnceLock;

use crate::graph::Graph;
use crate::ordering::Ordering;

/// A half is worth its own thread (a spawn plus a cold cache) only from
/// this many points up. Also the row grain of [`Graph::relabel`].
pub(crate) const FORK_MIN: usize = 32 * 1024;

/// Threads this process may use (cgroup- and affinity-aware), probed once:
/// the probe reads cgroup files, tens of µs a call, and every ordering and
/// relabel asks.
pub(crate) fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// One vertex on its way through the recursion: `K` order-preserving keys
/// (see [`key_of`]) and the vertex id.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Point<const K: usize> {
    pub key: [u64; K],
    pub id: u32,
}

/// Maps a non-NaN `f64` to a `u64` whose integer order is the float's
/// numeric order, with `-0.0` folded onto `+0.0`: `key_of(a) < key_of(b)`
/// iff `a < b`, and equal keys iff `a == b` — exactly what
/// `a.partial_cmp(&b)` answers.
#[inline]
pub(crate) fn key_of(x: f64) -> u64 {
    let bits = if x == 0.0 { 0 } else { x.to_bits() };
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The inverse of [`key_of`] (yielding `+0.0` for either zero).
#[inline]
pub(crate) fn value_of(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// Orders the vertices of `graph` by recursive bisection on at most
/// `threads` threads (the ordering does not depend on how many); `choose`
/// names the key slot each level splits on.
///
/// # Panics
/// Panics, naming the first offending vertex, if a coordinate is NaN or
/// infinite.
pub(crate) fn bisection_ordering<const K: usize>(
    graph: &Graph,
    threads: usize,
    choose: impl Fn(&mut [Point<K>]) -> usize + Sync,
) -> Ordering {
    let mut points = points_of(graph);
    bisect(&mut points, threads, &choose);
    // The position map straight from the records, which are then gone
    // (8·K + 8 bytes per vertex) before the caller relabels.
    let mut position_of = vec![0; points.len()];
    for (position, p) in points.iter().enumerate() {
        position_of[p.id as usize] = position as u32;
    }
    drop(points);
    Ordering::from_positions(position_of)
}

/// One point per vertex, in id order: the first `K.min(3)` coordinates
/// (`z = 0` in a 2-D graph) as keys, any further slot zero.
fn points_of<const K: usize>(graph: &Graph) -> Vec<Point<K>> {
    let load = |(v, c): (usize, &[f64])| {
        assert!(
            c.iter().all(|x| x.is_finite()),
            "coordinates must not be NaN or infinite: vertex {v} is at {c:?}"
        );
        let mut key = [0; K];
        for (d, k) in key.iter_mut().enumerate().take(3) {
            *k = key_of(c.get(d).copied().unwrap_or(0.0));
        }
        Point { key, id: v as u32 }
    };
    let coords = graph.coords().chunks_exact(graph.dim());
    coords.enumerate().map(load).collect()
}

/// Recursively orders `points` in place: split at the median of the slot
/// `choose` names (ties by id), left half first; `threads` is how many
/// threads this subtree may occupy.
fn bisect<const K: usize>(
    points: &mut [Point<K>],
    threads: usize,
    choose: &(impl Fn(&mut [Point<K>]) -> usize + Sync),
) {
    if points.len() <= 2 {
        // Keep leaves deterministic: order by id.
        points.sort_unstable_by_key(|p| p.id);
        return;
    }
    let slot = choose(points);
    let mid = points.len() / 2;
    points.select_nth_unstable_by_key(mid, |p| (p.key[slot], p.id));
    let (left, right) = points.split_at_mut(mid);
    if threads > 1 && mid >= FORK_MIN {
        let left_threads = threads / 2;
        std::thread::scope(|s| {
            s.spawn(|| bisect(left, left_threads, choose));
            bisect(right, threads - left_threads, choose);
        });
    } else {
        bisect(left, 1, choose);
        bisect(right, 1, choose);
    }
}
