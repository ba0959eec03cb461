//! The inspector's passes by their definition, one reference at a time:
//! the symmetric builder and the translation that
//! [`build_schedule_symmetric_with`] and
//! [`CommSchedule::translate_adjacency_into`] replaced, kept as test
//! oracles. Public (and hidden) so that the remap pipeline's tests in other
//! crates can hold a moved adjacency's schedule and translation to them.

use std::collections::HashSet;

use super::*;

const BLOCK_ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;

/// The symmetric builder as it was: every reference dereferenced one at a
/// time, (local, peer) pairs deduplicated through a set keyed on the pair
/// itself (the old packed `u32` key could wrap).
pub fn symmetric_oracle(
    partition: &BlockPartition,
    adj: &LocalAdjacency,
    rank: usize,
    strategy: ScheduleStrategy,
) -> (CommSchedule, InspectorWork) {
    let mut work = InspectorWork::default();
    let p = partition.num_procs();
    let interval = partition.interval_of(rank);
    let mut ghost_dedup = RefHashMap::with_capacity(16);
    let mut seen_pairs = HashSet::new();
    let mut recv_segments = vec![Vec::new(); p];
    let mut send_segments = vec![Vec::new(); p];
    for l in 0..adj.len() {
        for &g in adj.neighbors_of(l) {
            work.translate_ops += 1;
            if interval.contains(g as usize) {
                continue;
            }
            let owner = partition.owner_of(g as usize);
            work.hash_ops += 1;
            if ghost_dedup.insert_if_absent(g, 0).is_none() {
                recv_segments[owner].push(g);
                work.scan_ops += 1;
            }
            work.hash_ops += 1;
            if seen_pairs.insert((l, owner)) {
                send_segments[owner].push(l as u32);
                work.scan_ops += 1;
            }
        }
    }
    for seg in &mut recv_segments {
        work.add_sort(seg.len());
        seg.sort_unstable();
    }
    if strategy == ScheduleStrategy::Sort1 {
        for seg in &mut send_segments {
            work.add_sort(seg.len());
            seg.sort_unstable();
        }
    }
    let keep = |segments: Vec<Vec<u32>>| -> Vec<(usize, Vec<u32>)> {
        segments
            .into_iter()
            .enumerate()
            .filter(|(peer, seg)| *peer != rank && !seg.is_empty())
            .collect()
    };
    let schedule =
        CommSchedule::from_parts(rank, interval, keep(send_segments), keep(recv_segments));
    (schedule, work)
}

/// One reference's combined-buffer index, through `resolve`.
pub(crate) fn slot_of(schedule: &CommSchedule, g: u32) -> u32 {
    match schedule.resolve(g) {
        LocalRef::Local(i) => i,
        LocalRef::Ghost(s) => schedule.interval.len() as u32 + s,
    }
}

/// Translation by its definition, one `resolve` and one `push` per
/// reference: a block ends wherever the next global row is a multiple of
/// `BLOCK_ROWS`, its degree index is a stable sort of its row numbers on
/// `min(degree, 9)`, every row's visit position is where that sort put it,
/// and the slots are the rows laid out one at a time in that order, each
/// row's references in CSR order, from where the block's slots start. A
/// row's degree byte is its degree, or 255 with `(global row, degree)`
/// listed when it makes 255 or more references. A class `d` from 1 to 8
/// is skewed by its first visit position times `d` less its first slot,
/// both counted over the rows of lower classes; its bounds are the
/// smallest and largest of its references. A block reads no ghost when
/// every slot it stores is below `local_len`; the runs of such blocks, and
/// of the others, are merged one block at a time.
pub fn translate_oracle(schedule: &CommSchedule, adj: &LocalAdjacency) -> TranslatedAdjacency {
    let local_len = schedule.interval.len() as u32;
    let start = schedule.interval.start;
    let mut out = TranslatedAdjacency {
        local_len,
        num_ghosts: schedule.num_ghosts,
        start: start as u32,
        id: 0,
        slots: Vec::new(),
        block_start: Vec::new(),
        order: Vec::new(),
        visit: vec![0; adj.len()],
        degree: Vec::new(),
        wide: Vec::new(),
        class_rows: Vec::new(),
        class_skew: Vec::new(),
        bounds: Vec::new(),
        interior: Vec::new(),
        boundary: Vec::new(),
    };
    for l in 0..adj.len() {
        let degree = adj.degree_of(l);
        out.degree.push(degree.min(255) as u8);
        if degree >= 255 {
            out.wide.push(((start + l) as u32, degree as u32));
        }
    }
    let mut next = 0;
    while next < adj.len() {
        let lo = next;
        next = adj.len().min(lo + BLOCK_ROWS - (start + lo) % BLOCK_ROWS);
        let rows = next - lo;
        let class_of = |&i: &u16| adj.degree_of(lo + i as usize).min(9);
        let mut block: Vec<u16> = (0..rows as u16).collect();
        block.sort_by_key(class_of);
        out.class_rows.push(std::array::from_fn(|class| {
            block.iter().filter(|&i| class_of(i) == class).count() as u16
        }));
        out.class_skew.push(std::array::from_fn(|c| {
            let d = c + 1;
            let below: Vec<&u16> = block.iter().filter(|&i| class_of(i) < d).collect();
            let slots: usize = below.iter().map(|&&i| adj.degree_of(lo + i as usize)).sum();
            (below.len() * d - slots) as u16
        }));
        let refs = (lo..next).flat_map(|l| adj.neighbors_of(l));
        out.bounds.push((
            refs.clone().copied().min().unwrap_or(u32::MAX),
            refs.copied().max().unwrap_or(0),
        ));
        out.block_start.push(out.slots.len() as u32);
        for (k, &i) in block.iter().enumerate() {
            let l = lo + i as usize;
            out.visit[l] = k as u16;
            let row = adj.neighbors_of(l).iter();
            out.slots.extend(row.map(|&g| slot_of(schedule, g)));
        }
        out.order.extend(block);
    }
    out.block_start.push(out.slots.len() as u32);
    for b in 0..out.num_blocks() {
        let rows = out.block_rows(b);
        let runs = if out.block_slots(b).iter().all(|&s| s < local_len) {
            &mut out.interior
        } else {
            &mut out.boundary
        };
        match runs.last_mut() {
            Some(last) if last.end == rows.start => last.end = rows.end,
            _ => runs.push(rows),
        }
    }
    out
}

/// Holds a translation to the rows it was made from: `schedule` decodes
/// it back to `adj`, and every block carries the smallest and largest
/// global id its rows reference, found by looking at every one.
///
/// # Panics
/// Panics, naming what differs, if either does not hold.
pub fn assert_decodes_to(
    schedule: &CommSchedule,
    tadj: &TranslatedAdjacency,
    adj: &LocalAdjacency,
) {
    assert_eq!(schedule.decode_adjacency(tadj), *adj, "decoded translation");
    for b in 0..tadj.num_blocks() {
        let refs = tadj.block_rows(b).flat_map(|l| adj.neighbors_of(l));
        let scanned = (
            refs.clone().copied().min().unwrap_or(u32::MAX),
            refs.copied().max().unwrap_or(0),
        );
        assert_eq!(tadj.bounds(b), scanned, "bounds of block {b}");
    }
}
