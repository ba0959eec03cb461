//! The executor's exchange primitive: gather.
//!
//! §3.3: "Gather is used to fetch off-processor elements". It walks the
//! communication schedule and moves owner → ghost.
//!
//! All ranks must call it collectively with matched schedules (the
//! inspector guarantees matching; `CommSchedule::validate` checks it).
//!
//! Both spellings are generic over the application's
//! [`Element`]: values travel as packed little-endian
//! bytes, so the wire size the network model charges is
//! `count × E::SIZE_BYTES` for every element type. Packing work is charged
//! per *element* (one data item), matching the paper's per-item cost model.
//!
//! The transport is zero-copy on the hot path: received payloads are
//! decoded **directly into** the ghost region, never via an
//! intermediate `Vec<E>`; send staging rides in byte buffers recycled
//! through [`CommBuffers`], so steady-state iterations allocate nothing.
//! Gathers come in one blocking body ([`gather_fused`]; [`gather`] is its
//! group-of-one spelling), which is two halves called back to back: send to
//! every peer, then receive from every peer. A
//! [`LoopRunner`](crate::LoopRunner)'s stage step calls the halves itself,
//! with the sweep of the blocks that read no ghost between them — `send` is
//! buffered on every backend, so nothing waits on the far side while it
//! sweeps. Both take the caller's [`CommBuffers`] — a
//! [`LoopRunner`](crate::LoopRunner) owns one and rebuilds it only on
//! remap; hand-driven callers build one with
//! [`CommBuffers::for_schedule`].

use stance_inspector::CommSchedule;
use stance_sim::{Comm, Element, Payload, Tag};

use crate::buffers::CommBuffers;
use crate::cost::ComputeCostModel;
use crate::ghosted::GhostedArray;

const TAG_GATHER: Tag = stance_sim::tags::TAG_GATHER;
pub(crate) const TAG_GATHER_FUSED: Tag = stance_sim::tags::TAG_GATHER_FUSED;

/// Whether an index list is one strictly consecutive ascending run
/// (`l, l+1, …, l+n−1`). Block-partitioned boundary segments usually are,
/// and a consecutive segment bulk-packs straight from the owned block —
/// one memcpy-class [`Element::pack_into`] instead of `n` calls through
/// `write_bytes`. The detection is a single vectorizable pass over `u32`s,
/// orders of magnitude cheaper than the encode it elides.
#[inline]
fn consecutive_run(locals: &[u32]) -> bool {
    locals.windows(2).all(|w| w[1] == w[0] + 1)
}

/// Appends the listed elements of `local` to `bytes`: bulk-packed when the
/// list is one consecutive run, per-element otherwise.
#[inline]
fn pack_indexed<E: Element>(local: &[E], locals: &[u32], bytes: &mut Vec<u8>) {
    if !locals.is_empty() && consecutive_run(locals) {
        let first = locals[0] as usize;
        E::pack_into(&local[first..first + locals.len()], bytes);
    } else {
        for &l in locals {
            local[l as usize].write_bytes(bytes);
        }
    }
}

/// Fetches all off-processor elements into the ghost region of `values`.
///
/// For each send segment: packs the listed local values and sends them to
/// the peer. For each receive segment: receives the peer's packet and stores
/// it contiguously in the ghost region (the slots the schedule assigned).
/// Packing/unpacking work is charged to `env` via `cost`.
///
/// This is [`gather_fused`] with a group of one, on the plain
/// [`TAG_GATHER`](stance_sim::tags::TAG_GATHER) stream — the spelling for
/// hand-driven callers that hold a single array.
pub fn gather<E: Element, C: Comm>(
    env: &mut C,
    schedule: &CommSchedule,
    values: &mut GhostedArray<E>,
    cost: &ComputeCostModel,
    bufs: &mut CommBuffers<E>,
) {
    let group = std::slice::from_mut(values);
    send_ghosts(env, schedule, group, &[0], cost, bufs, TAG_GATHER);
    recv_ghosts(env, schedule, group, &[0], cost, bufs, TAG_GATHER);
}

/// Gathers ghosts for the fields selected by `which` (indices into
/// `arrays`) in **one fused message per neighbor**, on the dedicated
/// [`TAG_GATHER_FUSED`](stance_sim::tags::TAG_GATHER_FUSED) stream. This
/// is the stage-graph exchange primitive: a dataflow session groups all
/// fields whose ghosts are due at the same point of the stage schedule
/// and moves them in a single packet, paying the per-message setup once
/// instead of once per field (the paper's §2 "message coalescing": `k`
/// fields cost `1/k` of the messages of `k` separate gathers).
///
/// The selection-by-index signature (rather than `&mut [&mut
/// GhostedArray<E>]`) lets a caller that owns all its fields in one
/// `Vec` pick an iteration-dependent subset without building a slice of
/// mutable borrows — the steady-state loop stays allocation-free.
///
/// Wire format per peer: `which.len()` consecutive segments, one per
/// selected field in `which` order, each in send-list order. All ranks
/// must pass the same selection (the dirty-tracking that produces
/// `which` is replicated SPMD state). An empty selection sends nothing.
///
/// # Panics
/// Panics (in debug) if any selected array's shape does not match the
/// schedule or an index repeats.
pub fn gather_fused<E: Element, C: Comm>(
    env: &mut C,
    schedule: &CommSchedule,
    arrays: &mut [GhostedArray<E>],
    which: &[usize],
    cost: &ComputeCostModel,
    bufs: &mut CommBuffers<E>,
) {
    send_ghosts(env, schedule, arrays, which, cost, bufs, TAG_GATHER_FUSED);
    recv_ghosts(env, schedule, arrays, which, cost, bufs, TAG_GATHER_FUSED);
}

/// The gather's first half: packs and sends my boundary values of the
/// selected fields to every peer that needs them, on stream `tag`. Returns
/// without waiting for anything (every backend buffers `send`).
pub(crate) fn send_ghosts<E: Element, C: Comm>(
    env: &mut C,
    schedule: &CommSchedule,
    arrays: &[GhostedArray<E>],
    which: &[usize],
    cost: &ComputeCostModel,
    bufs: &mut CommBuffers<E>,
    tag: Tag,
) {
    if which.is_empty() {
        return;
    }
    debug_assert_selection(schedule, arrays, which);
    for (peer, locals) in schedule.sends() {
        let payload = pack_segments(env, arrays, which, locals, cost, bufs);
        env.send(*peer, tag, payload);
    }
}

/// The gather's second half: receives every peer's message on stream
/// `tag` and lands it in the selected fields' ghost regions.
pub(crate) fn recv_ghosts<E: Element, C: Comm>(
    env: &mut C,
    schedule: &CommSchedule,
    arrays: &mut [GhostedArray<E>],
    which: &[usize],
    cost: &ComputeCostModel,
    bufs: &mut CommBuffers<E>,
    tag: Tag,
) {
    if which.is_empty() {
        return;
    }
    // Receive ghost segments in schedule (peer-ascending) order; slots are
    // contiguous across segments by construction.
    let mut slot = 0usize;
    for (peer, globals) in schedule.recvs() {
        let bytes = env.recv(*peer, tag).into_bytes();
        land_segments(
            env,
            bytes,
            *peer,
            arrays,
            which,
            slot,
            globals.len(),
            cost,
            bufs,
        );
        slot += globals.len();
    }
}

/// Charges and packs one peer's message: every selected field's `locals`
/// segment, back to back in `which` order, staged in a recycled buffer
/// (consecutive send runs bulk-pack straight from the owned block).
#[inline]
fn pack_segments<E: Element, C: Comm>(
    env: &mut C,
    arrays: &[GhostedArray<E>],
    which: &[usize],
    locals: &[u32],
    cost: &ComputeCostModel,
    bufs: &mut CommBuffers<E>,
) -> Payload {
    let elements = locals.len() * which.len();
    env.compute(cost.pack_work(elements));
    let mut bytes = bufs.take_bytes(elements * E::SIZE_BYTES);
    for &w in which {
        pack_indexed(arrays[w].local(), locals, &mut bytes);
    }
    Payload::from_bytes(bytes)
}

/// Lands one peer's message: checks its length, charges the unpack, and
/// decodes each selected field's segment (`seg` elements, starting at
/// ghost `slot`) **directly into** that field's ghost-region slice — no
/// intermediate `Vec<E>` — then recycles the byte buffer.
#[inline]
#[allow(clippy::too_many_arguments)]
fn land_segments<E: Element, C: Comm>(
    env: &mut C,
    bytes: Vec<u8>,
    peer: usize,
    arrays: &mut [GhostedArray<E>],
    which: &[usize],
    slot: usize,
    seg: usize,
    cost: &ComputeCostModel,
    bufs: &mut CommBuffers<E>,
) {
    let seg_bytes = seg * E::SIZE_BYTES;
    // Matched schedules: the peer packs exactly the segment we expect, once
    // per selected field — anything else is a schedule or wire bug.
    assert_eq!(
        bytes.len(),
        seg_bytes * which.len(),
        "gather packet from rank {peer} has wrong length"
    );
    env.compute(cost.pack_work(seg * which.len()));
    for (i, &w) in which.iter().enumerate() {
        E::unpack_into(
            &bytes[i * seg_bytes..(i + 1) * seg_bytes],
            &mut arrays[w].ghosts_mut()[slot..slot + seg],
        );
    }
    bufs.recycle(bytes);
}

/// Debug-build shape check of a selection: every selected array matches
/// the schedule and no index repeats.
#[inline]
fn debug_assert_selection<E: Element>(
    schedule: &CommSchedule,
    arrays: &[GhostedArray<E>],
    which: &[usize],
) {
    if cfg!(debug_assertions) {
        for (i, &w) in which.iter().enumerate() {
            // Packing and landing index by the schedule's shape; a field
            // selected twice would be packed twice into one message.
            assert_eq!(arrays[w].local_len(), schedule.interval().len());
            assert_eq!(arrays[w].num_ghosts(), schedule.num_ghosts() as usize);
            assert!(!which[..i].contains(&w), "field {w} selected twice");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
    use stance_locality::meshgen;
    use stance_onedim::BlockPartition;
    use stance_sim::{Cluster, ClusterSpec, NetworkSpec};

    /// Runs gather on a mesh where every element's value is its global id;
    /// every ghost slot must then hold its global id.
    #[test]
    fn gather_fetches_correct_values() {
        let g = meshgen::triangulated_grid(9, 7, 0.3, 2);
        let part = BlockPartition::from_sizes(&[20, 23, 20]);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let iv = part.interval_of(rank);
            let local: Vec<f64> = iv.iter().map(|g| g as f64).collect();
            let mut values = GhostedArray::from_local(local, sched.num_ghosts() as usize);
            gather(
                env,
                &sched,
                &mut values,
                &ComputeCostModel::zero(),
                &mut CommBuffers::for_schedule(&sched),
            );
            // Every ghost slot holds the value of its global element.
            for (_, globals) in sched.recvs() {
                for &gl in globals {
                    let slot = sched.ghost_slot(gl).unwrap() as usize;
                    assert_eq!(values.ghosts()[slot], f64::from(gl));
                }
            }
        });
    }

    /// Gather must be deterministic and charge identical virtual time across
    /// runs.
    #[test]
    fn gather_deterministic_timing() {
        let g = meshgen::triangulated_grid(8, 8, 0.2, 4);
        let part = BlockPartition::uniform(64, 4);
        let run = || {
            let g = g.clone();
            let part = part.clone();
            let spec = ClusterSpec::paper_cluster(4);
            Cluster::new(spec)
                .run(move |env| {
                    let rank = env.rank();
                    let adj = LocalAdjacency::extract(&g, &part, rank);
                    let (sched, _) =
                        build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                    let mut values: GhostedArray = GhostedArray::zeros(
                        part.interval_of(rank).len(),
                        sched.num_ghosts() as usize,
                    );
                    let mut bufs = CommBuffers::for_schedule(&sched);
                    for _ in 0..5 {
                        gather(
                            env,
                            &sched,
                            &mut values,
                            &ComputeCostModel::sun4(),
                            &mut bufs,
                        );
                        env.barrier();
                    }
                    env.now().as_secs()
                })
                .into_results()
        };
        assert_eq!(run(), run());
    }

    /// Fused gather of a selection — a group of one, a proper subset, and
    /// all fields (the paper's message coalescing) — must deliver exactly
    /// what separate gathers of those fields would, bitwise, in one
    /// message per neighbor (`1/k` of the separate count).
    #[test]
    fn fused_gather_equivalent_to_separate_and_single_message() {
        let g = meshgen::triangulated_grid(9, 7, 0.3, 2);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 3);
        for which in [&[0usize][..], &[0, 2], &[0, 1, 2]] {
            let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
            let report = Cluster::new(spec).run(|env| {
                let rank = env.rank();
                let adj = LocalAdjacency::extract(&g, &part, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                let iv = part.interval_of(rank);
                let ghosts = sched.num_ghosts() as usize;
                let mk = |f: fn(usize) -> f64| {
                    GhostedArray::from_local(iv.iter().map(f).collect(), ghosts)
                };
                // Three registered fields with distinct value patterns.
                let mut fields = vec![
                    mk(|g| g as f64),
                    mk(|g| (g * g) as f64),
                    mk(|g| -(g as f64)),
                ];
                let mut separate = fields.clone();
                let mut bufs = CommBuffers::for_schedule(&sched);
                let cost = ComputeCostModel::zero();

                // Reference: one plain gather per selected field.
                for &w in which {
                    gather(env, &sched, &mut separate[w], &cost, &mut bufs);
                }
                let msgs_separate = env.stats().messages_sent;

                gather_fused(env, &sched, &mut fields, which, &cost, &mut bufs);
                let msgs_fused = env.stats().messages_sent - msgs_separate;

                // Selected fields match their separate gathers; unselected
                // fields' ghosts were never touched (still zero, like the
                // reference copies nobody gathered).
                assert_eq!(fields, separate, "fused ghosts differ");
                (msgs_separate, msgs_fused)
            });
            for (separate, fused) in report.results() {
                assert_eq!(
                    *separate,
                    which.len() as u64 * fused,
                    "fusing {} fields must cut messages {}x ({separate} vs {fused})",
                    which.len(),
                    which.len()
                );
            }
        }
    }

    /// An empty selection is a complete no-op.
    #[test]
    fn fused_gather_empty_selection_is_noop() {
        let g = meshgen::triangulated_grid(4, 4, 0.0, 1);
        let part = BlockPartition::uniform(16, 2);
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let adj = LocalAdjacency::extract(&g, &part, env.rank());
            let (sched, _) =
                build_schedule_symmetric(&part, &adj, env.rank(), ScheduleStrategy::Sort2);
            let mut fields: Vec<GhostedArray<f64>> =
                vec![GhostedArray::zeros(8, sched.num_ghosts() as usize)];
            let mut bufs = CommBuffers::new();
            let cost = ComputeCostModel::zero();
            gather_fused(env, &sched, &mut fields, &[], &cost, &mut bufs);
            assert_eq!(env.stats().messages_sent, 0);
        });
    }

    /// With two ranks and a single cut edge, gather sends exactly one
    /// element each way.
    #[test]
    fn gather_message_volume() {
        use stance_locality::Graph;
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)], vec![[0.0; 3]; 4], 2);
        let part = BlockPartition::uniform(4, 2);
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let mut values: GhostedArray = GhostedArray::zeros(2, sched.num_ghosts() as usize);
            gather(
                env,
                &sched,
                &mut values,
                &ComputeCostModel::zero(),
                &mut CommBuffers::for_schedule(&sched),
            );
            (env.stats().messages_sent, env.stats().bytes_sent)
        });
        for (msgs, bytes) in report.results() {
            assert_eq!(*msgs, 1);
            assert_eq!(*bytes, 8);
        }
    }
}
