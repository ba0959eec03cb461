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
//! * pooled byte buffers for value-message staging and pooled `u32`
//!   buffers for adjacency-message staging (received payloads are recycled
//!   back into the pools, so buffers circulate through the cluster);
//! * the destination value blocks (swapped with the caller's aux vectors,
//!   so retired aux storage becomes next remap's scratch);
//! * CSR assembly storage for the new [`LocalAdjacency`] (a retired
//!   adjacency donates its vectors back via
//!   [`RemapScratch::recycle_adjacency`]); the new CSR is assembled
//!   segment by segment — the kept rows and each received packet are one
//!   copy of their references plus one mapped pass that rebases their row
//!   pointers — never row by row;
//! * a [`ScheduleScratch`] for the inspector rebuild that follows.
//!
//! The destination blocks are **not pre-zeroed**: the kept intersection
//! plus the plan's receive ranges provably tile the new interval (the plan
//! moves exactly `new ∖ old` per rank), so every slot is overwritten; a
//! hard assertion (the tile counter is free) checks this on every remap,
//! so a mismatched plan panics instead of leaving stale elements behind.
//! Wire format, message order and virtual-time charging are identical to
//! the allocating path, so simulated results and clocks are bitwise
//! unchanged.

use stance_inspector::{LocalAdjacency, ScheduleScratch};
use stance_onedim::{BlockPartition, RedistributionPlan};
use stance_sim::{Comm, Element, Payload, Tag};

const TAG_VALUES: Tag = stance_sim::tags::TAG_REDIST_VALUES;
const TAG_ADJ: Tag = stance_sim::tags::TAG_REDIST_ADJ;

/// Bound on pooled staging buffers (bytes and words): enough for any
/// realistic per-remap fan-out, small enough to cap retained memory.
const POOL_CAP: usize = 16;

/// Sentinel in the assembly segment list: the segment comes from the kept
/// intersection of the old adjacency rather than a received packet.
const SEG_KEPT: usize = usize::MAX;

/// Recycled scratch for the adaptive remap pipeline. See the module docs.
#[derive(Debug)]
pub struct RemapScratch<E: Element> {
    /// The shared plan, recomputed in place each remap.
    plan: Option<RedistributionPlan>,
    /// Byte staging for value messages (recycled through send/receive).
    bytes_pool: Vec<Vec<u8>>,
    /// Destination value blocks, one per moved array; `blocks[0]` is the
    /// session's primary block, the rest swap with the caller's aux
    /// vectors.
    blocks: Vec<Vec<E>>,
    /// `u32` staging for adjacency messages.
    words_pool: Vec<Vec<u32>>,
    /// Received adjacency packets held between the receive phase and the
    /// in-order CSR assembly.
    packets: Vec<Vec<u32>>,
    /// Assembly segment descriptors: `(global range start, row count,
    /// packet index or `SEG_KEPT`)`.
    segs: Vec<(usize, usize, usize)>,
    /// Recycled CSR storage for the next adjacency build.
    adj_parts: Option<(Vec<usize>, Vec<u32>)>,
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
            words_pool: Vec::new(),
            packets: Vec::new(),
            segs: Vec::new(),
            adj_parts: None,
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

    /// Donates a retired adjacency's CSR storage to the next
    /// [`RemapScratch::redistribute_adjacency`].
    pub fn recycle_adjacency(&mut self, adj: LocalAdjacency) {
        let (_, xadj, refs) = adj.into_parts();
        self.adj_parts = Some((xadj, refs));
    }

    /// The new primary value block produced by the last
    /// [`RemapScratch::redistribute`] (in new-interval order).
    pub fn primary_block(&self) -> &[E] {
        &self.blocks[0]
    }

    /// Moves the primary value slice plus the caller's aux arrays to the
    /// new distribution, coalescing all of a destination's segments into
    /// one message per destination (§2 message coalescing) and drawing all
    /// staging and destination storage from the scratch.
    ///
    /// The primary source is a *slice* so the session can redistribute
    /// straight out of the `GhostedArray`'s storage — no upfront copy of
    /// the owned block. The new primary block lands in
    /// [`RemapScratch::primary_block`]; each aux vector is **swapped**
    /// with its destination block, so the retired aux storage becomes the
    /// next remap's scratch and nothing is copied or freed.
    ///
    /// Wire format and message order are identical to
    /// [`redistribute_values_coalesced`]: `1 + aux.len()` segments per
    /// message, primary first, receives in the plan's `(src, range)`
    /// order. A collective — every rank must pass the same number of
    /// arrays.
    ///
    /// # Panics
    /// Panics if `primary` or any aux array does not match the rank's old
    /// interval, or if `plan` was not computed for `old → new`.
    pub fn redistribute<C: Comm>(
        &mut self,
        env: &mut C,
        old: &BlockPartition,
        new: &BlockPartition,
        plan: &RedistributionPlan,
        primary: &[E],
        aux: &mut [&mut Vec<E>],
    ) {
        let k = 1 + aux.len();
        let rank = env.rank();
        let old_iv = old.interval_of(rank);
        let new_iv = new.interval_of(rank);
        assert_eq!(
            primary.len(),
            old_iv.len(),
            "value block does not match old interval"
        );
        for a in aux.iter() {
            assert_eq!(
                a.len(),
                old_iv.len(),
                "value block does not match old interval"
            );
        }

        // Send every outgoing range: one message per destination, all
        // arrays' segments back to back, each bulk-packed straight from
        // the source block (the range is contiguous in interval order).
        for m in plan.sends_of(rank) {
            let lo = m.range.start - old_iv.start;
            let hi = m.range.end - old_iv.start;
            let mut bytes = pool_take(&mut self.bytes_pool, (hi - lo) * k * E::SIZE_BYTES);
            E::pack_into(&primary[lo..hi], &mut bytes);
            for a in aux.iter() {
                E::pack_into(&a[lo..hi], &mut bytes);
            }
            env.send(m.dst, TAG_VALUES, Payload::from_bytes(bytes));
        }

        // Size the destination blocks WITHOUT pre-zeroing: `resize` only
        // touches a grown tail, and every slot is overwritten below
        // because the kept intersection plus the plan's receive ranges
        // tile the new interval exactly (hard-asserted below).
        while self.blocks.len() < k {
            self.blocks.push(Vec::new());
        }
        for block in self.blocks.iter_mut().take(k) {
            block.resize(new_iv.len(), E::zero());
        }

        let kept = old_iv.intersect(&new_iv);
        let mut covered = kept.len();
        if !kept.is_empty() {
            let dst = kept.start - new_iv.start..kept.end - new_iv.start;
            let src = kept.start - old_iv.start..kept.end - old_iv.start;
            self.blocks[0][dst.clone()].copy_from_slice(&primary[src.clone()]);
            for (block, a) in self.blocks[1..k].iter_mut().zip(aux.iter()) {
                block[dst.clone()].copy_from_slice(&a[src.clone()]);
            }
        }
        for m in plan.recvs_of(rank) {
            let seg = m.range.len();
            let bytes = env.recv(m.src, TAG_VALUES).into_bytes();
            assert_eq!(
                bytes.len(),
                seg * k * E::SIZE_BYTES,
                "redistribution packet length"
            );
            let lo = m.range.start - new_iv.start;
            let seg_bytes = seg * E::SIZE_BYTES;
            for (i, block) in self.blocks.iter_mut().take(k).enumerate() {
                E::unpack_into(
                    &bytes[i * seg_bytes..(i + 1) * seg_bytes],
                    &mut block[lo..lo + seg],
                );
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

        // Hand each aux its new block; its old storage joins the scratch.
        for (block, a) in self.blocks[1..k].iter_mut().zip(aux.iter_mut()) {
            std::mem::swap(*a, block);
        }
    }

    /// Moves the distributed mesh rows (each vertex's global neighbor
    /// list) to the new owners, returning this rank's new
    /// [`LocalAdjacency`] — assembled **directly in CSR form** from the
    /// kept rows and the received packets, one bulk copy of references
    /// and one rebased run of row pointers per segment. Staging words come
    /// from a recycled pool and the CSR arrays reuse the storage a
    /// previous remap retired ([`RemapScratch::recycle_adjacency`]), so a
    /// warm move allocates nothing.
    ///
    /// Wire format per moved range: `[deg(v) for v in range] ++ [refs…]`
    /// as one `u32` payload, receives in the plan's deterministic
    /// `(src, range)` order — identical messages and ordering to the
    /// allocating path, so virtual time is unchanged.
    pub fn redistribute_adjacency<C: Comm>(
        &mut self,
        env: &mut C,
        old: &BlockPartition,
        new: &BlockPartition,
        plan: &RedistributionPlan,
        adj: &LocalAdjacency,
    ) -> LocalAdjacency {
        let rank = env.rank();
        let old_iv = old.interval_of(rank);
        let new_iv = new.interval_of(rank);
        assert_eq!(
            adj.interval(),
            old_iv,
            "adjacency does not match old interval"
        );

        for m in plan.sends_of(rank) {
            let lo = m.range.start - old_iv.start;
            let hi = m.range.end - old_iv.start;
            // Rows are CSR-adjacent: the range's degrees are one pass over
            // its row pointers and its refs are one slice.
            let (rows, _) = adj.csr_window(lo..hi);
            let refs = adj.refs_in(lo, hi);
            let mut words = pool_take(&mut self.words_pool, m.range.len() + refs.len());
            words.extend(rows.windows(2).map(|w| (w[1] - w[0]) as u32));
            words.extend_from_slice(refs);
            env.send(m.dst, TAG_ADJ, Payload::from_u32(words));
        }

        // Receive packets in the plan's deterministic (src, range) order,
        // then assemble the CSR in ascending-interval order.
        self.segs.clear();
        let kept = old_iv.intersect(&new_iv);
        if !kept.is_empty() {
            self.segs.push((kept.start, kept.len(), SEG_KEPT));
        }
        self.packets.clear();
        for m in plan.recvs_of(rank) {
            self.segs
                .push((m.range.start, m.range.len(), self.packets.len()));
            self.packets.push(env.recv(m.src, TAG_ADJ).into_u32());
        }
        self.segs.sort_unstable();

        let (mut xadj, mut refs) = self.adj_parts.take().unwrap_or_default();
        xadj.clear();
        refs.clear();
        xadj.reserve(new_iv.len() + 1);
        xadj.push(0);
        let mut expected_start = new_iv.start;
        for &(start, count, source) in &self.segs {
            // Hard asserts (O(p) total): a plan/partition mismatch must not
            // silently assemble a wrong CSR.
            assert_eq!(start, expected_start, "segments must tile the interval");
            // Each segment's row pointers are rebased onto the refs
            // assembled so far with one mapped `extend`.
            let base = refs.len();
            if source == SEG_KEPT {
                let lo = kept.start - old_iv.start;
                let (rows, _) = adj.csr_window(lo..lo + count);
                let first = rows[0];
                xadj.extend(rows[1..].iter().map(|&x| x - first + base));
                refs.extend_from_slice(adj.refs_in(lo, lo + count));
            } else {
                let (degrees, packet_refs) = self.packets[source].split_at(count);
                let mut end = base;
                xadj.extend(degrees.iter().map(|&d| {
                    end += d as usize;
                    end
                }));
                refs.extend_from_slice(packet_refs);
                assert_eq!(end, refs.len(), "adjacency packet fully consumed");
            }
            expected_start = start + count;
        }
        assert_eq!(
            expected_start, new_iv.end,
            "segments must cover the interval"
        );
        while let Some(packet) = self.packets.pop() {
            pool_put(&mut self.words_pool, packet);
        }
        LocalAdjacency::from_parts(new_iv, xadj, refs)
    }
}

/// Pops a cleared buffer with at least `capacity` reserved from `pool`,
/// or allocates one on a pool miss. One implementation serves the byte
/// and word pools alike.
fn pool_take<T>(pool: &mut Vec<Vec<T>>, capacity: usize) -> Vec<T> {
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
fn pool_put<T>(pool: &mut Vec<Vec<T>>, buf: Vec<T>) {
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
/// copy this function's *return type* demands. Callers that can accept
/// in-place movement should use [`redistribute_values_coalesced`] (or a
/// [`RemapScratch`]), which on identity touches nothing at all.
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
    let mut values = local_values.to_vec();
    redistribute_values_coalesced(env, old, new, &mut [&mut values]);
    values
}

/// Moves **several value arrays at once** to the new distribution,
/// coalescing all of a destination's segments into one message (the same
/// §2 message-coalescing optimization the executor's `gather_fused`
/// applies: for `k` arrays, `1/k` of the messages, paying the per-message
/// setup once). Each array must hold one element per owned vertex of the
/// old interval and is replaced in place with its new block.
///
/// Wire format per move: `k` consecutive segments, one per array, each in
/// range order, bulk-packed straight from the source block and decoded
/// straight into the destination block (the
/// [`Element::pack_into`]/[`Element::unpack_into`] codecs — no per-element
/// calls, no intermediate `Vec<E>`). When the old and new partitions are
/// identical the call returns immediately: zero messages, zero copies, the
/// caller's vectors untouched in place. A collective — every rank must
/// pass the same number of arrays.
///
/// This is the convenience entry point; a long-lived adaptive runtime
/// holds a [`RemapScratch`] and calls [`RemapScratch::redistribute`]
/// instead, which is the same movement with every allocation recycled
/// across remaps.
///
/// # Panics
/// Panics if any array does not match the rank's old interval.
pub fn redistribute_values_coalesced<E: Element, C: Comm>(
    env: &mut C,
    old: &BlockPartition,
    new: &BlockPartition,
    arrays: &mut [&mut Vec<E>],
) {
    if arrays.is_empty() {
        return;
    }
    // Identity remap: every rank keeps exactly its block. Return before
    // building the plan or touching the arrays — zero messages, zero
    // copies (the caller's vectors are left untouched in place).
    if old == new {
        let rank = env.rank();
        let old_iv = old.interval_of(rank);
        for a in arrays.iter() {
            assert_eq!(
                a.len(),
                old_iv.len(),
                "value block does not match old interval"
            );
        }
        return;
    }
    let mut scratch = RemapScratch::new();
    let plan = scratch.take_plan(old, new);
    let (first, rest) = arrays.split_first_mut().expect("nonempty");
    // The first array is the primary source; swap its new block in
    // afterwards (the scratch is transient here, so the swap just moves
    // ownership of the freshly built block).
    let primary: Vec<E> = std::mem::take(*first);
    scratch.redistribute(env, old, new, &plan, &primary, rest);
    **first = std::mem::replace(&mut scratch.blocks[0], primary);
}

/// Moves the distributed mesh rows (each vertex's global neighbor list) to
/// the new owners, returning this rank's new [`LocalAdjacency`].
///
/// Wire format per moved range: `[deg(v) for v in range] ++ [refs…]` as one
/// `u32` payload (the receiver knows the range length from the plan).
/// Convenience wrapper over [`RemapScratch::redistribute_adjacency`] with
/// a transient scratch.
pub fn redistribute_adjacency<C: Comm>(
    env: &mut C,
    old: &BlockPartition,
    new: &BlockPartition,
    adj: &LocalAdjacency,
) -> LocalAdjacency {
    let mut scratch: RemapScratch<f64> = RemapScratch::new();
    let plan = scratch.take_plan(old, new);
    scratch.redistribute_adjacency(env, old, new, &plan, adj)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
            let mut a = mk(|g| g as f64);
            let mut b = mk(|g| (g * g) as f64);
            let mut c = mk(|g| -(g as f64));

            // Reference: separate moves.
            let a_ref = redistribute_values(env, &old, &new, &a);
            let b_ref = redistribute_values(env, &old, &new, &b);
            let c_ref = redistribute_values(env, &old, &new, &c);
            let msgs_separate = env.stats().messages_sent;

            redistribute_values_coalesced(env, &old, &new, &mut [&mut a, &mut b, &mut c]);
            let msgs_coalesced = env.stats().messages_sent - msgs_separate;

            assert_eq!(a, a_ref);
            assert_eq!(b, b_ref);
            assert_eq!(c, c_ref);
            assert_eq!(
                msgs_separate,
                3 * msgs_coalesced,
                "coalescing must cut messages 3x"
            );
        });
    }

    /// A recycled [`RemapScratch`] driven through a chain of remaps must
    /// deliver exactly what the convenience path delivers, for the primary
    /// slice and the aux vectors alike.
    #[test]
    fn scratch_redistribute_matches_coalesced_across_remaps() {
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
                // Reference path: the convenience function.
                redistribute_values_coalesced(env, old, new, &mut [&mut primary_ref, &mut aux_ref]);
                // Scratch path, recycled across iterations.
                let plan = scratch.take_plan(old, new);
                scratch.redistribute(env, old, new, &plan, &primary, &mut [&mut aux]);
                scratch.put_plan(plan);
                primary.clear();
                primary.extend_from_slice(scratch.primary_block());
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

    /// The identity early-return must be copy-free, not just message-free:
    /// the coalesced call leaves the caller's vectors physically in place
    /// (same heap allocation, same contents), and no bytes hit the wire.
    #[test]
    fn identity_redistribution_zero_copies() {
        let part = BlockPartition::uniform(30, 3);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let iv = part.interval_of(env.rank());
            let mut a: Vec<f64> = iv.iter().map(|g| g as f64).collect();
            let mut b: Vec<f64> = iv.iter().map(|g| (g * 2) as f64).collect();
            let (ptr_a, ptr_b) = (a.as_ptr(), b.as_ptr());
            let (copy_a, copy_b) = (a.clone(), b.clone());
            redistribute_values_coalesced(env, &part, &part, &mut [&mut a, &mut b]);
            assert_eq!(env.stats().messages_sent, 0);
            assert_eq!(env.stats().bytes_sent, 0);
            assert_eq!(
                (a.as_ptr(), b.as_ptr()),
                (ptr_a, ptr_b),
                "identity remap must not reallocate or replace the blocks"
            );
            assert_eq!(a, copy_a);
            assert_eq!(b, copy_b);
        });
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

    /// The recycled adjacency path, chained remap over remap with retired
    /// structures donated back, must match fresh extraction at every step.
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

    /// One rank's share of a chain of adjacency moves through one recycled
    /// scratch, each step held to fresh extraction on the new partition.
    fn move_adjacency_along<C: Comm>(env: &mut C, g: &Graph, parts: &[BlockPartition]) {
        let rank = env.rank();
        let mut scratch: RemapScratch<f64> = RemapScratch::new();
        let mut adj = LocalAdjacency::extract(g, &parts[0], rank);
        for w in parts.windows(2) {
            let (old, new) = (&w[0], &w[1]);
            let plan = scratch.take_plan(old, new);
            let next = scratch.redistribute_adjacency(env, old, new, &plan, &adj);
            scratch.put_plan(plan);
            scratch.recycle_adjacency(adj);
            assert_eq!(
                next,
                LocalAdjacency::extract(g, new, rank),
                "rank {rank}: {old:?} → {new:?}"
            );
            adj = next;
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
                8 + rng.below(30) as usize,
                8 + rng.below(30) as usize,
                0.3,
                rng.next_u64(),
            );
            let p = 2 + rng.below(3) as usize;
            let parts = (0..4)
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
