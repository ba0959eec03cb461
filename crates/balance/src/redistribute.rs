//! Data movement after a remap decision.
//!
//! Both the value arrays and the distributed mesh structure (each vertex's
//! adjacency row) move with their vertices, following the
//! [`RedistributionPlan`] — every rank can derive the full plan locally from
//! the two `O(p)` partitions, so no coordination messages are needed beyond
//! the data itself. Receives follow the plan's deterministic
//! `(source, range-start)` order.
//!
//! ## Allocation-lean remaps: [`RemapScratch`]
//!
//! The paper's value proposition is *cheap adaptation*: the MCR controller
//! can only afford frequent remaps if a remap itself is cheap. The hot
//! steady-state loop got its recycled scratch in the executor
//! (`CommBuffers`); [`RemapScratch`] is the same idea for the remap path.
//! One scratch, owned by the session and recycled across remaps, carries:
//!
//! * the [`RedistributionPlan`] (recomputed in place, computed **once** per
//!   remap and shared by the value move and the adjacency move);
//! * pooled byte buffers for value- and row-message staging, one pool
//!   each (received payloads are recycled back into the pools, so buffers
//!   circulate through the cluster);
//! * the destination value blocks, one per moved array: the caller swaps
//!   each into place afterwards (the session hands them to its fields'
//!   buffers), so every array's values are copied once per remap and the
//!   retired storage becomes the next remap's destination;
//! * the [`MovedRows`] the rows move into, and a [`ScheduleScratch`], for
//!   the inspector rebuild that follows.
//!
//! A rank keeps its rows only in its translation, so the adjacency is not
//! assembled anew at all: [`RemapScratch::redistribute_adjacency`] decodes
//! the rows it sends away straight out of the translation, and hands the
//! received packets to [`MovedRows`], which stages them and leaves every
//! block kept whole where it lies — a remap's adjacency move costs what
//! moved plus the boundary blocks, not what the rank owns.
//!
//! The destination blocks are **not pre-zeroed**: the kept intersection
//! plus the plan's receive ranges provably tile the new interval (the plan
//! moves exactly `new ∖ old` per rank), so every slot is overwritten; a
//! hard assertion (the tile counter is free) checks this on every remap,
//! so a mismatched plan panics instead of leaving stale elements behind.
//! Wire format, message order and virtual-time charging are identical to
//! the allocating path, so simulated results and clocks are bitwise
//! unchanged.

use stance_inspector::moved::{pack_degrees, read_words};
use stance_inspector::{
    CommSchedule, LocalAdjacency, MovedRows, ScheduleScratch, TranslatedAdjacency,
};
use stance_onedim::{BlockPartition, Interval, RedistributionPlan};
use stance_sim::{Comm, Element, Payload, Tag};

const TAG_VALUES: Tag = stance_sim::tags::TAG_REDIST_VALUES;
const TAG_ADJ: Tag = stance_sim::tags::TAG_REDIST_ADJ;

/// Bound on each pool of staging buffers: enough for any realistic
/// per-remap fan-out, small enough to cap retained memory.
const POOL_CAP: usize = 16;

/// Recycled scratch for the adaptive remap pipeline. See the module docs.
#[derive(Debug)]
pub struct RemapScratch<E: Element> {
    /// The shared plan, recomputed in place each remap.
    plan: Option<RedistributionPlan>,
    /// Byte staging for value messages (recycled through send/receive).
    bytes_pool: Vec<Vec<u8>>,
    /// Destination value blocks, one per moved array, in the order the
    /// last [`RemapScratch::redistribute`] was given the arrays.
    blocks: Vec<Vec<E>>,
    /// How many of `blocks` the last redistribution filled.
    moved: usize,
    /// Byte staging for row messages. Kept apart from `bytes_pool`
    /// because a pooled buffer keeps the capacity of the largest message
    /// it carried, and a row packet is several times a value message: one
    /// shared pool holds every buffer at row size (+1.7 MiB
    /// `peak_rss_mb` on `churn-200k`, measured).
    rows_pool: Vec<Vec<u8>>,
    /// Received row packets, held until the rows take them.
    packets: Vec<Vec<u8>>,
    /// Received runs: `(global range start, row count, packet index)`.
    segs: Vec<(usize, usize, usize)>,
    /// The rows after the last [`RemapScratch::redistribute_adjacency`],
    /// for the inspector's rebuild.
    pub rows: MovedRows,
    /// Scratch for the inspector's schedule rebuild.
    pub schedule: ScheduleScratch,
}

impl<E: Element> RemapScratch<E> {
    /// An empty scratch; pools warm up over the first remap (plus its
    /// recycle calls) and stay warm from then on.
    pub fn new() -> Self {
        RemapScratch {
            plan: None,
            bytes_pool: Vec::new(),
            blocks: Vec::new(),
            moved: 0,
            rows_pool: Vec::new(),
            packets: Vec::new(),
            segs: Vec::new(),
            rows: MovedRows::new(),
            schedule: ScheduleScratch::new(),
        }
    }

    /// The redistribution plan for `old → new`, recomputed into recycled
    /// storage. Compute it once per remap, pass it to both
    /// [`RemapScratch::redistribute`] and
    /// [`RemapScratch::redistribute_adjacency`], and hand it back with
    /// [`RemapScratch::put_plan`].
    pub fn take_plan(&mut self, old: &BlockPartition, new: &BlockPartition) -> RedistributionPlan {
        match self.plan.take() {
            Some(mut plan) => {
                plan.recompute(old, new);
                plan
            }
            None => RedistributionPlan::between(old, new),
        }
    }

    /// Returns a plan (from [`RemapScratch::take_plan`]) for reuse by the
    /// next remap.
    pub fn put_plan(&mut self, plan: RedistributionPlan) {
        self.plan = Some(plan);
    }

    /// The new blocks (in new-interval order) of the arrays the last
    /// [`RemapScratch::redistribute`] moved, in the order it was given
    /// them. Swap each into place: the storage swapped out becomes the
    /// next remap's destination, so nothing is copied or freed.
    pub fn new_blocks(&mut self) -> &mut [Vec<E>] {
        &mut self.blocks[..self.moved]
    }

    /// Moves `arrays` value arrays — array `a` is `source(a)`, one element
    /// per owned vertex of the old interval — to the new distribution,
    /// coalescing all of a destination's segments into one message per
    /// destination (§2 message coalescing) and drawing all staging and
    /// destination storage from the scratch. Each array's kept values are
    /// copied once, straight out of the caller's storage; the new blocks
    /// land in [`RemapScratch::new_blocks`].
    ///
    /// Wire format: one message per destination carrying `arrays`
    /// segments, in array order; receives in the plan's `(src, range)`
    /// order. For `k` arrays that is `1/k` of the messages `k` separate
    /// moves send (the §2 coalescing the executor's `gather_fused`
    /// applies). A collective — every rank must pass the same number of
    /// arrays.
    ///
    /// # Panics
    /// Panics if any array does not match the rank's old interval, or if
    /// `plan` was not computed for `old → new`.
    pub fn redistribute<'a, C: Comm>(
        &mut self,
        env: &mut C,
        old: &BlockPartition,
        new: &BlockPartition,
        plan: &RedistributionPlan,
        arrays: usize,
        source: impl Fn(usize) -> &'a [E],
    ) {
        let rank = env.rank();
        let old_iv = old.interval_of(rank);
        let new_iv = new.interval_of(rank);
        for a in 0..arrays {
            assert_eq!(
                source(a).len(),
                old_iv.len(),
                "value block does not match old interval"
            );
        }

        // Send every outgoing range: one message per destination, all
        // arrays' segments back to back, each bulk-packed straight from
        // the source block (the range is contiguous in interval order).
        for m in plan.sends_of(rank) {
            let range = m.range.start - old_iv.start..m.range.end - old_iv.start;
            let mut bytes = pool_take(&mut self.bytes_pool, range.len() * arrays * E::SIZE_BYTES);
            for a in 0..arrays {
                E::pack_into(&source(a)[range.clone()], &mut bytes);
            }
            env.send(m.dst, TAG_VALUES, Payload::from_bytes(bytes));
        }

        // Size the destination blocks WITHOUT pre-zeroing: `resize` only
        // touches a grown tail, and every slot is overwritten below
        // because the kept intersection plus the plan's receive ranges
        // tile the new interval exactly (hard-asserted below).
        if self.blocks.len() < arrays {
            self.blocks.resize_with(arrays, Vec::new);
        }
        self.moved = arrays;
        let blocks = &mut self.blocks[..arrays];
        for block in blocks.iter_mut() {
            block.resize(new_iv.len(), E::zero());
        }

        let kept = old_iv.intersect(&new_iv);
        let mut covered = kept.len();
        if !kept.is_empty() {
            let dst = kept.start - new_iv.start..kept.end - new_iv.start;
            let src = kept.start - old_iv.start..kept.end - old_iv.start;
            for (a, block) in blocks.iter_mut().enumerate() {
                block[dst.clone()].copy_from_slice(&source(a)[src.clone()]);
            }
        }
        for m in plan.recvs_of(rank) {
            let seg = m.range.len();
            let bytes = env.recv(m.src, TAG_VALUES).into_bytes();
            // The sender packed this range for the same plan and array count.
            assert_eq!(
                bytes.len(),
                seg * arrays * E::SIZE_BYTES,
                "redistribution packet length"
            );
            let lo = m.range.start - new_iv.start;
            let seg_bytes = seg * E::SIZE_BYTES;
            for (a, block) in blocks.iter_mut().enumerate() {
                let packed = &bytes[a * seg_bytes..(a + 1) * seg_bytes];
                E::unpack_into(packed, &mut block[lo..lo + seg]);
            }
            pool_put(&mut self.bytes_pool, bytes);
            covered += seg;
        }
        // Hard assert (the counter is free): the blocks are not pre-zeroed,
        // so a plan that does not tile the new interval — e.g. one computed
        // for a different partition pair — must fail loudly rather than
        // leave stale elements in the uncovered slots.
        assert_eq!(
            covered,
            new_iv.len(),
            "kept intersection + plan receives must tile the new interval \
             (was the plan computed for these partitions?)"
        );
    }

    /// Moves the distributed mesh rows (each vertex's global neighbor
    /// list) to their new owners, out of `tadj` — this rank's translation,
    /// which `schedule` made — and into [`RemapScratch::rows`], which the
    /// schedule rebuild and the re-translation read: rows sent away are
    /// decoded on their way out, received ones staged, and the blocks
    /// kept whole are left in the translation ([`MovedRows`]). Staging
    /// bytes come from the recycled row pool, so a warm move allocates
    /// nothing.
    ///
    /// Wire format per moved range: `[deg(v) for v in range] ++ [refs…]`
    /// as little-endian `u32`s in one payload, receives in the plan's deterministic
    /// `(src, range)` order — the messages and order of
    /// [`redistribute_adjacency`], so virtual time is unchanged.
    ///
    /// # Panics
    /// Panics if `schedule` does not cover the rank's old interval, or
    /// `tadj` is not its translation.
    pub fn redistribute_adjacency<C: Comm>(
        &mut self,
        env: &mut C,
        old: &BlockPartition,
        new: &BlockPartition,
        plan: &RedistributionPlan,
        schedule: &CommSchedule,
        tadj: &TranslatedAdjacency,
    ) {
        let rank = env.rank();
        let old_iv = old.interval_of(rank);
        assert_eq!(
            schedule.interval(),
            old_iv,
            "schedule does not match old interval"
        );
        let rows = &mut self.rows;
        rows.start(schedule, tadj);
        send_rows(env, plan, old_iv, &mut self.rows_pool, |range, bytes| {
            rows.pack(tadj, range, bytes);
        });
        recv_rows(env, plan, &mut self.segs, &mut self.packets);
        let packets = &self.packets;
        rows.finish(
            tadj,
            new.interval_of(rank),
            self.segs.iter().map(|&(start, count, packet)| {
                (Interval::new(start, start + count), &packets[packet][..])
            }),
        );
        while let Some(packet) = self.packets.pop() {
            pool_put(&mut self.rows_pool, packet);
        }
    }
}

/// Sends every range of rows `plan` moves away from this rank — whose old
/// interval is `old_iv` — as one message: `pack(local rows, bytes)` fills
/// a pooled, empty buffer with the range's degrees, then its references,
/// as little-endian `u32`s.
fn send_rows<C: Comm>(
    env: &mut C,
    plan: &RedistributionPlan,
    old_iv: Interval,
    pool: &mut Vec<Vec<u8>>,
    mut pack: impl FnMut(std::ops::Range<usize>, &mut Vec<u8>),
) {
    for m in plan.sends_of(env.rank()) {
        let rows = m.range.start - old_iv.start..m.range.end - old_iv.start;
        let mut bytes = pool_take(pool, 0);
        pack(rows, &mut bytes);
        env.send(m.dst, TAG_ADJ, Payload::from_bytes(bytes));
    }
}

/// Receives every range of rows `plan` moves to this rank, in its
/// deterministic `(src, range)` order, into `packets`, and lists them in
/// ascending-interval order in `segs` as `(range start, rows, packet)`.
fn recv_rows<C: Comm>(
    env: &mut C,
    plan: &RedistributionPlan,
    segs: &mut Vec<(usize, usize, usize)>,
    packets: &mut Vec<Vec<u8>>,
) {
    segs.clear();
    packets.clear();
    for m in plan.recvs_of(env.rank()) {
        segs.push((m.range.start, m.range.len(), packets.len()));
        packets.push(env.recv(m.src, TAG_ADJ).into_bytes());
    }
    segs.sort_unstable();
}

/// Pops a cleared buffer with at least `capacity` reserved from `pool`,
/// or allocates one on a pool miss.
fn pool_take(pool: &mut Vec<Vec<u8>>, capacity: usize) -> Vec<u8> {
    match pool.pop() {
        Some(mut buf) => {
            buf.clear();
            buf.reserve(capacity);
            buf
        }
        None => Vec::with_capacity(capacity),
    }
}

/// Returns a spent buffer to `pool`, bounded by [`POOL_CAP`].
fn pool_put(pool: &mut Vec<Vec<u8>>, buf: Vec<u8>) {
    if pool.len() < POOL_CAP {
        pool.push(buf);
    }
}

impl<E: Element> Default for RemapScratch<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Moves owned values from the old distribution to the new one. Returns
/// this rank's new local block (in new-interval order). Generic over the
/// application's [`Element`] — the paper's remapping experiments move
/// single-precision arrays, the relaxation kernel moves doubles, a
/// multi-field application moves `[f64; K]` records; all travel as packed
/// bytes, so the wire cost scales with the element size.
///
/// A collective: every rank calls it with its current block.
///
/// On an identity remap (`old == new`) no messages are sent and no
/// elements are reshuffled; the only remaining cost is the one owned-block
/// copy this function's *return type* demands. Otherwise the move runs
/// through a fresh [`RemapScratch`], reading straight from `local_values`;
/// a long-lived adaptive runtime holds one scratch and calls
/// [`RemapScratch::redistribute`] itself, which moves several arrays per
/// message and recycles every allocation across remaps.
///
/// # Panics
/// Panics if `local_values` does not match the rank's old interval.
pub fn redistribute_values<E: Element, C: Comm>(
    env: &mut C,
    old: &BlockPartition,
    new: &BlockPartition,
    local_values: &[E],
) -> Vec<E> {
    assert_eq!(
        local_values.len(),
        old.interval_of(env.rank()).len(),
        "value block does not match old interval"
    );
    // Identity remap: the only cost is the owned copy the return type
    // demands — no messages, no plan, no reshuffling.
    if old == new {
        return local_values.to_vec();
    }
    let mut scratch = RemapScratch::new();
    let plan = scratch.take_plan(old, new);
    scratch.redistribute(env, old, new, &plan, 1, |_| local_values);
    std::mem::take(&mut scratch.new_blocks()[0])
}

/// Moves the distributed mesh rows (each vertex's global neighbor list) to
/// the new owners, returning this rank's new [`LocalAdjacency`].
///
/// Wire format per moved range: `[deg(v) for v in range] ++ [refs…]` as
/// little-endian `u32`s in one payload (the receiver knows the range length
/// from the plan) — the messages [`RemapScratch::redistribute_adjacency`]
/// sends.
///
/// # Panics
/// Panics if `adj` does not cover the rank's old interval.
pub fn redistribute_adjacency<C: Comm>(
    env: &mut C,
    old: &BlockPartition,
    new: &BlockPartition,
    adj: &LocalAdjacency,
) -> LocalAdjacency {
    let rank = env.rank();
    let (old_iv, new_iv) = (old.interval_of(rank), new.interval_of(rank));
    assert_eq!(
        adj.interval(),
        old_iv,
        "adjacency does not match old interval"
    );
    let plan = RedistributionPlan::between(old, new);
    send_rows(env, &plan, old_iv, &mut Vec::new(), |rows, bytes| {
        let refs = adj.refs_in(rows.start, rows.end);
        bytes.reserve(4 * (rows.len() + refs.len()));
        pack_degrees(rows.map(|l| adj.degree_of(l)), bytes);
        u32::pack_into(refs, bytes);
    });
    let (mut segs, mut packets) = (Vec::new(), Vec::new());
    recv_rows(env, &plan, &mut segs, &mut packets);
    let received: usize = segs
        .iter()
        .map(|&(_, rows, p)| packets[p].len() / 4 - rows)
        .sum();
    // The kept rows between the received runs, in interval order.
    let kept = old_iv.intersect(&new_iv);
    let mut kept_refs = 0;
    if !kept.is_empty() {
        segs.push((kept.start, kept.len(), usize::MAX));
        segs.sort_unstable();
        kept_refs = adj
            .refs_in(kept.start - old_iv.start, kept.end - old_iv.start)
            .len();
    }
    // 32-bit row pointers; `from_parts` refuses a last one that was cut
    // short.
    let mut xadj = Vec::with_capacity(new_iv.len() + 1);
    xadj.push(0);
    let mut refs = Vec::with_capacity(received + kept_refs);
    let mut next = new_iv.start;
    for (start, count, packet) in segs {
        assert_eq!(start, next, "segments must tile the interval");
        next += count;
        let mut at = refs.len();
        if packet == usize::MAX {
            let rows = start - old_iv.start..next - old_iv.start;
            xadj.extend(rows.clone().map(|l| {
                at += adj.degree_of(l);
                at as u32
            }));
            refs.extend_from_slice(adj.refs_in(rows.start, rows.end));
        } else {
            let (degrees, packed) = packets[packet].split_at(4 * count);
            xadj.extend(read_words(degrees).map(|d| {
                at += d as usize;
                at as u32
            }));
            refs.extend(read_words(packed));
        }
        assert_eq!(at, refs.len(), "adjacency packet fully consumed");
    }
    assert_eq!(next, new_iv.end, "segments must cover the interval");
    LocalAdjacency::from_parts(new_iv, xadj, refs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stance_inspector::schedule::reference::{
        assert_decodes_to, symmetric_oracle, translate_oracle,
    };
    use stance_inspector::{
        build_schedule_symmetric, build_schedule_symmetric_with, ScheduleStrategy,
    };
    use stance_locality::{meshgen, Graph};
    use stance_native::NativeCluster;
    use stance_onedim::Arrangement;
    use stance_sim::{Cluster, ClusterSpec, NetworkSpec};

    fn old_new_partitions(n: usize) -> (BlockPartition, BlockPartition) {
        let old = BlockPartition::uniform(n, 3);
        let new =
            BlockPartition::from_weights(n, &[0.2, 0.5, 0.3], Arrangement::new(vec![1, 0, 2]));
        (old, new)
    }

    #[test]
    fn values_follow_their_elements() {
        let n = 91;
        let (old, new) = old_new_partitions(n);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let old_iv = old.interval_of(env.rank());
            // Value of element g is g².
            let mine: Vec<f64> = old_iv.iter().map(|g| (g * g) as f64).collect();
            redistribute_values(env, &old, &new, &mine)
        });
        for (rank, values) in report.into_results().into_iter().enumerate() {
            let new_iv = new.interval_of(rank);
            let expected: Vec<f64> = new_iv.iter().map(|g| (g * g) as f64).collect();
            assert_eq!(values, expected, "rank {rank} block wrong after move");
        }
    }

    /// Coalesced redistribution must deliver exactly what k separate
    /// redistributions would, with 1/k of the messages.
    #[test]
    fn coalesced_redistribution_equivalent_and_cheaper() {
        let n = 91;
        let (old, new) = old_new_partitions(n);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let old_iv = old.interval_of(env.rank());
            let mk = |f: fn(usize) -> f64| -> Vec<f64> { old_iv.iter().map(f).collect() };
            let a = mk(|g| g as f64);
            let b = mk(|g| (g * g) as f64);
            let c = mk(|g| -(g as f64));

            // Reference: separate moves.
            let a_ref = redistribute_values(env, &old, &new, &a);
            let b_ref = redistribute_values(env, &old, &new, &b);
            let c_ref = redistribute_values(env, &old, &new, &c);
            let msgs_separate = env.stats().messages_sent;

            let mut scratch = RemapScratch::new();
            let plan = scratch.take_plan(&old, &new);
            let arrays = [&a[..], &b[..], &c[..]];
            scratch.redistribute(env, &old, &new, &plan, 3, |k| arrays[k]);
            let msgs_coalesced = env.stats().messages_sent - msgs_separate;

            assert_eq!(scratch.new_blocks(), [a_ref, b_ref, c_ref]);
            assert_eq!(
                msgs_separate,
                3 * msgs_coalesced,
                "coalescing must cut messages 3x"
            );
        });
    }

    /// A recycled [`RemapScratch`] driven through a chain of remaps must
    /// deliver exactly what separate one-array moves deliver, for every
    /// array alike.
    #[test]
    fn scratch_redistribute_matches_separate_moves_across_remaps() {
        let n = 91;
        let parts = [
            BlockPartition::uniform(n, 3),
            BlockPartition::from_weights(n, &[0.2, 0.5, 0.3], Arrangement::new(vec![1, 0, 2])),
            BlockPartition::from_weights(n, &[0.6, 0.2, 0.2], Arrangement::identity(3)),
            BlockPartition::uniform(n, 3),
        ];
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let mut scratch: RemapScratch<f64> = RemapScratch::new();
            let iv0 = parts[0].interval_of(rank);
            let mut primary: Vec<f64> = iv0.iter().map(|g| (g as f64).sin()).collect();
            let mut aux: Vec<f64> = iv0.iter().map(|g| 3.0 * g as f64).collect();
            let mut primary_ref = primary.clone();
            let mut aux_ref = aux.clone();
            for w in parts.windows(2) {
                let (old, new) = (&w[0], &w[1]);
                // Reference path: one array per move.
                primary_ref = redistribute_values(env, old, new, &primary_ref);
                aux_ref = redistribute_values(env, old, new, &aux_ref);
                // Scratch path, recycled across iterations.
                let plan = scratch.take_plan(old, new);
                let arrays = [&primary[..], &aux[..]];
                scratch.redistribute(env, old, new, &plan, 2, |a| arrays[a]);
                scratch.put_plan(plan);
                let [p, a] = scratch.new_blocks() else {
                    unreachable!("two arrays moved")
                };
                std::mem::swap(&mut primary, p);
                std::mem::swap(&mut aux, a);
                assert_eq!(primary, primary_ref, "primary diverged");
                assert_eq!(aux, aux_ref, "aux diverged");
            }
        });
    }

    #[test]
    fn identity_redistribution_no_messages() {
        let part = BlockPartition::uniform(30, 3);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let iv = part.interval_of(env.rank());
            let mine: Vec<f64> = iv.iter().map(|g| g as f64).collect();
            let out = redistribute_values(env, &part, &part, &mine);
            assert_eq!(out, mine);
            env.stats().messages_sent
        });
        for msgs in report.results() {
            assert_eq!(*msgs, 0, "identity remap must move nothing");
        }
    }

    #[test]
    fn adjacency_matches_fresh_extraction() {
        let g = meshgen::triangulated_grid(13, 7, 0.3, 9);
        let n = g.num_vertices();
        let (old, new) = old_new_partitions(n);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let adj = LocalAdjacency::extract(&g, &old, env.rank());
            redistribute_adjacency(env, &old, &new, &adj)
        });
        for (rank, got) in report.into_results().into_iter().enumerate() {
            let expected = LocalAdjacency::extract(&g, &new, rank);
            assert_eq!(got, expected, "rank {rank} adjacency wrong after move");
        }
    }

    /// The in-place adjacency path, chained remap over remap through one
    /// recycled scratch, must match fresh extraction at every step.
    #[test]
    fn scratch_adjacency_matches_fresh_across_remaps() {
        let g = meshgen::triangulated_grid(13, 7, 0.3, 9);
        let n = g.num_vertices();
        let parts = [
            BlockPartition::uniform(n, 3),
            BlockPartition::from_weights(n, &[0.2, 0.5, 0.3], Arrangement::new(vec![1, 0, 2])),
            BlockPartition::from_weights(n, &[0.5, 0.2, 0.3], Arrangement::identity(3)),
            BlockPartition::uniform(n, 3),
        ];
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| move_adjacency_along(env, &g, &parts));
    }

    /// One rank's share of a chain of remaps through one recycled scratch,
    /// rebuilt after every move the way a session rebuilds — rows moved
    /// out of the translation, the schedule built from them, the
    /// translation rewritten in place: the schedule equals the
    /// per-reference oracle on a fresh extraction, counted work included,
    /// under both sort strategies; the translation equals the oracle and a
    /// fresh translation, decodes back to the extraction and carries every
    /// block's bounds.
    fn move_adjacency_along<C: Comm>(env: &mut C, g: &Graph, parts: &[BlockPartition]) {
        let rank = env.rank();
        let mut scratch: RemapScratch<f64> = RemapScratch::new();
        let adj = LocalAdjacency::extract(g, &parts[0], rank);
        let sort2 = ScheduleStrategy::Sort2;
        let (mut schedule, _) = build_schedule_symmetric(&parts[0], &adj, rank, sort2);
        let mut tadj = schedule.translate_adjacency(&adj);
        for w in parts.windows(2) {
            let (old, new) = (&w[0], &w[1]);
            let plan = scratch.take_plan(old, new);
            scratch.redistribute_adjacency(env, old, new, &plan, &schedule, &tadj);
            scratch.put_plan(plan);
            let what = format!("rank {rank}: {:?} → {:?}", old.sizes(), new.sizes());
            let adj = LocalAdjacency::extract(g, new, rank);
            for strategy in [ScheduleStrategy::Sort1, sort2] {
                let rows = &scratch.rows;
                let built =
                    build_schedule_symmetric_with(new, rows, rank, strategy, &mut scratch.schedule);
                assert_eq!(built, symmetric_oracle(new, &adj, rank, strategy), "{what}");
                let built = built.0;
                if strategy == sort2 {
                    built.translate_adjacency_into(rows, &mut tadj);
                    assert_eq!(tadj, translate_oracle(&built, &adj), "{what}");
                    assert_eq!(tadj, built.translate_adjacency(&adj), "{what}");
                    assert_decodes_to(&built, &tadj, &adj);
                    let retired = std::mem::replace(&mut schedule, built);
                    scratch.schedule.recycle(retired);
                } else {
                    scratch.schedule.recycle(built);
                }
            }
        }
    }

    /// A mesh and a chain of weighted partitions of it: zero weights (empty
    /// blocks) and shuffled block arrangements included, so kept segments
    /// land at the front, in the middle and at the back of the new block.
    struct PartitionChains;

    impl Strategy for PartitionChains {
        type Value = (Graph, Vec<BlockPartition>);

        fn generate(&self, rng: &mut proptest::TestRng) -> Self::Value {
            let g = meshgen::triangulated_grid(
                8 + rng.below(60) as usize,
                8 + rng.below(60) as usize,
                0.3,
                rng.next_u64(),
            );
            let p = 2 + rng.below(3) as usize;
            let parts = (0..5)
                .map(|_| {
                    let mut weights: Vec<f64> = (0..p)
                        .map(|_| match rng.below(4) {
                            0 => 0.0,
                            _ => 0.1 + rng.unit_f64(),
                        })
                        .collect();
                    weights[rng.below(p as u64) as usize] += 1.0;
                    let mut order: Vec<usize> = (0..p).collect();
                    for i in (1..p).rev() {
                        order.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    BlockPartition::from_weights(
                        g.num_vertices(),
                        &weights,
                        Arrangement::new(order),
                    )
                })
                .collect();
            (g, parts)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn adjacency_move_equals_extraction_on_sim_and_native(case in PartitionChains) {
            let (g, parts) = &case;
            let p = parts[0].num_procs();
            let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
            Cluster::new(spec).run(|env| move_adjacency_along(env, g, parts));
            NativeCluster::new(p).run(|comm| move_adjacency_along(comm, g, parts));
        }
    }

    #[test]
    fn shrinking_to_empty_block() {
        let n = 20;
        let old = BlockPartition::uniform(n, 2);
        let new = BlockPartition::from_sizes(&[20, 0]);
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let iv = old.interval_of(env.rank());
            let mine: Vec<f64> = iv.iter().map(|g| g as f64).collect();
            redistribute_values(env, &old, &new, &mine)
        });
        let results: Vec<Vec<f64>> = report.into_results();
        assert_eq!(results[0].len(), 20);
        assert!(results[1].is_empty());
        assert_eq!(results[0][19], 19.0);
    }

    #[test]
    fn movement_cost_reflected_in_clock() {
        // Moving half the data over a slow network takes proportional time.
        let n = 1 << 16;
        let old = BlockPartition::from_sizes(&[n, 0]);
        let new = BlockPartition::from_sizes(&[0, n]);
        let spec = ClusterSpec::uniform(2); // default Ethernet
        let report = Cluster::new(spec).run(|env| {
            let iv = old.interval_of(env.rank());
            let mine: Vec<f64> = iv.iter().map(|g| g as f64).collect();
            redistribute_values(env, &old, &new, &mine);
            env.now().as_secs()
        });
        // 512 KiB at ~1.1 MB/s ≈ 0.48 s on the receiving side.
        let t_recv = report.ranks[1].clock.as_secs();
        assert!(
            t_recv > 0.4 && t_recv < 0.6,
            "expected ≈ 0.48 s for the move, got {t_recv}"
        );
    }
}
