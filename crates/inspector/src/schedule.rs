//! Communication-schedule construction: the paper's schedule_sort1,
//! schedule_sort2 and the general ("simple") strategy.
//!
//! A [`CommSchedule`] tells the executor, for one rank:
//!
//! * **send lists** — per peer, which of my local elements to ship
//!   (the paper's Fig. 4 "send list"), and
//! * **receive segments** — per peer, which global elements arrive and in
//!   what order; ghost-buffer slots are assigned to them contiguously
//!   (the paper's "permutation list" — where each received value lands
//!   in the local buffer, which stores "local data" followed by
//!   "off processor data", exactly as in Fig. 4).
//!
//! ## Symmetric builders (sort1, sort2)
//!
//! "For many irregular applications the accesses are symmetric … One can
//! exploit this symmetry to eliminate the communication required to generate
//! the communication schedule" (§3.2). If the mesh edge (u, v) crosses ranks
//! then *u's owner must send u to v's owner and vice versa*, so each side can
//! derive both directions locally — the only open question is message
//! *order*, settled by sorting by index:
//!
//! * `sort1` builds send lists in reference-stream order, then sorts both
//!   the send lists and each receive segment;
//! * `sort2` traverses owned nodes in increasing local order so send lists
//!   are born sorted; only receive segments are sorted.
//!
//! Both produce identical schedules; they differ only in counted work.
//!
//! ## What a build costs us, as opposed to the paper
//!
//! The *counted* work ([`InspectorWork`]) is the paper's algorithm: one
//! dereference per reference, one hash probe per off-processor reference
//! and per (vertex, peer) pair. The *executed* work is proportional to the
//! boundary. The builder and
//! [`CommSchedule::translate_adjacency_into`] walk a rank's [`Rows`] in blocks
//! of 512 rows ([`TranslatedAdjacency::BLOCK_ROWS`]) that sit at global
//! multiples of the block size, and every block carries the smallest and
//! largest global id its rows reference, so whether it leaves the owned
//! interval is one comparison. On a locality-ordered mesh almost no block
//! does (24 of 196 for a 100k-row block of the 200k benchmark mesh): an
//! interior block costs the builder one addition to the counted work and
//! costs translation one subtraction per reference on the way to where the
//! sweep will read it, and single references are looked at only inside
//! the blocks that hold a boundary row. There is one builder and one
//! translation routine — the per-reference loop is the slow arm of the
//! same function, taken block by block — and set-up, remap and restore all
//! run that code. `schedule/reference.rs` keeps the plain per-reference
//! versions as test oracles; `schedule/oracles.rs` holds the builder, the
//! translation and remap chains to them.
//!
//! ## What survives a remap
//!
//! The schedule itself does not: it is rebuilt, from recycled storage.
//! What survives is what the translation already holds for rows that
//! stayed on their rank — a rank keeps no other copy of its rows. A
//! block's bounds live in the translation and move with it, so a remap's
//! [`MovedRows`](crate::MovedRows) hands the builder a kept block that is
//! interior before and after the move as bounds and a reference count
//! only, and the builder skips it like any interior block — and still
//! charges its references, so the counted work, and the simulator's clock
//! priced from it, is a fresh build's. Such a block holds no ghost slot,
//! and its slots depend only on its rows and on the interval's start: its
//! translation is the old one with every slot shifted by the change of
//! start. Everything else it holds is relative to the block — its rows'
//! visit order, visit positions and degree bytes, its degree index — and
//! moves as plain bytes; only where its slots start is written anew.
//! [`CommSchedule::translate_adjacency_into`] moves such blocks and
//! applies the one constant add in the same pass — a `copy_within` that
//! adds on the way — or does nothing, when neither the blocks' position nor
//! the interval's start moved. A kept block that reads a ghost before or after
//! the move keeps its layout as well: only its slots are read back and
//! resolved anew, in place. Every other block is translated fresh. The
//! result is therefore a fresh translation, vector for vector.
//!
//! ## Simple strategy
//!
//! The general path (no symmetry assumption), as in PARTI/CHAOS \[27\]: the
//! explicit per-element translation table is block-distributed, so the
//! inspector (1) queries table owners to dereference its unique off-processor
//! references, then (2) sends each data owner the list of elements it needs.
//! Three all-to-all message rounds — which is why Table 3 shows it degrading
//! as processors are added while the sort strategies get *cheaper*.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use stance_onedim::{BlockPartition, Interval};
use stance_sim::{Comm, Element, Tag};

use crate::adjacency::{
    block_rows, move_within, shared_blocks, within, BlockRefs, Bounds, LocalAdjacency, RowBlock,
    Rows,
};
use crate::cost::{InspectorCostModel, InspectorWork};
use crate::refhash::RefHashMap;
use crate::translation::DenseTable;

/// Reserved tags for the simple strategy's protocol rounds (registered in
/// `stance_sim::tags`).
const TAG_QUERY: Tag = stance_sim::tags::TAG_SCHED_QUERY;
const TAG_REPLY: Tag = stance_sim::tags::TAG_SCHED_REPLY;
const TAG_REQUEST: Tag = stance_sim::tags::TAG_SCHED_REQUEST;

/// How to build the communication schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleStrategy {
    /// Symmetry-exploiting; sorts send lists and receive segments (§3.2).
    Sort1,
    /// Symmetry-exploiting; send lists sorted by construction.
    Sort2,
    /// General strategy via a distributed explicit translation table
    /// (requires communication).
    Simple,
}

impl ScheduleStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [ScheduleStrategy; 3] = [
        ScheduleStrategy::Sort1,
        ScheduleStrategy::Sort2,
        ScheduleStrategy::Simple,
    ];

    /// Display name matching the paper's Table 3 rows.
    pub fn name(self) -> &'static str {
        match self {
            ScheduleStrategy::Sort1 => "Sort1",
            ScheduleStrategy::Sort2 => "Sort2",
            ScheduleStrategy::Simple => "Simple Strategy",
        }
    }
}

/// A local or ghost reference after translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalRef {
    /// Index into the rank's own block.
    Local(u32),
    /// Index into the rank's ghost buffer.
    Ghost(u32),
}

/// One rank's communication schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommSchedule {
    rank: usize,
    interval: Interval,
    /// `(peer, local indices to send)`, peers ascending.
    sends: Vec<(usize, Vec<u32>)>,
    /// `(peer, globals received in segment order)`, peers ascending; ghost
    /// slots are assigned contiguously across segments in this order.
    recvs: Vec<(usize, Vec<u32>)>,
    /// global → ghost slot.
    ghost_of: RefHashMap,
    num_ghosts: u32,
}

impl CommSchedule {
    fn from_parts(
        rank: usize,
        interval: Interval,
        sends: Vec<(usize, Vec<u32>)>,
        recvs: Vec<(usize, Vec<u32>)>,
    ) -> Self {
        let num_ghosts: usize = recvs.iter().map(|(_, g)| g.len()).sum();
        let ghost_of = RefHashMap::with_capacity(num_ghosts);
        Self::from_parts_with(rank, interval, sends, recvs, ghost_of)
    }

    /// Like `from_parts`, but refills a recycled ghost map instead of
    /// allocating a fresh one (the map is cleared first; it grows in place
    /// if undersized).
    fn from_parts_with(
        rank: usize,
        interval: Interval,
        sends: Vec<(usize, Vec<u32>)>,
        recvs: Vec<(usize, Vec<u32>)>,
        mut ghost_of: RefHashMap,
    ) -> Self {
        ghost_of.clear();
        let mut slot = 0u32;
        for (_, globals) in &recvs {
            for &g in globals {
                let prev = ghost_of.insert_if_absent(g, slot);
                assert!(prev.is_none(), "global {g} received twice");
                slot += 1;
            }
        }
        CommSchedule {
            rank,
            interval,
            sends,
            recvs,
            ghost_of,
            num_ghosts: slot,
        }
    }

    /// The owning rank.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The rank's owned interval.
    #[inline]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Send lists `(peer, local indices)`, peers ascending.
    #[inline]
    pub fn sends(&self) -> &[(usize, Vec<u32>)] {
        &self.sends
    }

    /// Receive segments `(peer, globals)`, peers ascending.
    #[inline]
    pub fn recvs(&self) -> &[(usize, Vec<u32>)] {
        &self.recvs
    }

    /// Number of ghost (off-processor) elements fetched per gather.
    #[inline]
    pub fn num_ghosts(&self) -> u32 {
        self.num_ghosts
    }

    /// Total elements sent per gather.
    pub fn total_send_volume(&self) -> usize {
        self.sends.iter().map(|(_, l)| l.len()).sum()
    }

    /// The ghost slot holding global `g`, if it is fetched.
    #[inline]
    pub fn ghost_slot(&self, g: u32) -> Option<u32> {
        self.ghost_of.get(g)
    }

    /// Translates a global reference to a [`LocalRef`].
    ///
    /// # Panics
    /// Panics if `g` is neither owned nor in the ghost set — that means the
    /// schedule was built from different references than it is used with.
    pub fn resolve(&self, g: u32) -> LocalRef {
        if self.interval.contains(g as usize) {
            LocalRef::Local(g - self.interval.start as u32)
        } else {
            match self.ghost_of.get(g) {
                Some(slot) => LocalRef::Ghost(slot),
                None => panic!(
                    "rank {}: global {g} is neither owned ({}) nor scheduled as a ghost",
                    self.rank, self.interval
                ),
            }
        }
    }

    /// Translates a rank's rows into combined-buffer indices: values
    /// `< local_len` index the block, values `≥ local_len` index ghosts at
    /// `local_len + slot`. This is the executor-ready indirection array.
    ///
    /// # Panics
    /// As [`CommSchedule::translate_adjacency_into`]; and if the rows keep
    /// blocks of a translation ([`Rows::kept_from`]), which a fresh one
    /// cannot hold.
    pub fn translate_adjacency(&self, adj: &impl Rows) -> TranslatedAdjacency {
        // Runs of one kind alternate with runs of the other, so neither list
        // outgrows half the blocks: sized here, they are not grown by the
        // remaps of a block no wider than this one. They are allocated
        // before the large vectors, not among or after them, where a small
        // long-lived block can split the free space a remap's large buffers
        // reuse (measured: +1.5 MiB peak on a two-rank 200k-row remap cycle).
        let len = adj.interval().len();
        let runs = adj.num_blocks().div_ceil(2);
        let (interior, boundary) = (Vec::with_capacity(runs), Vec::with_capacity(runs));
        let mut out = TranslatedAdjacency {
            local_len: 0,
            num_ghosts: 0,
            start: 0,
            id: 0,
            slots: vec![0; adj.num_refs()],
            block_start: Vec::new(),
            order: vec![0; len],
            visit: vec![0; len],
            degree: vec![0; len],
            wide: Vec::new(),
            class_rows: Vec::new(),
            class_skew: Vec::new(),
            bounds: Vec::new(),
            interior,
            boundary,
        };
        self.translate_adjacency_into(adj, &mut out);
        out
    }

    /// [`CommSchedule::translate_adjacency`] into recycled storage,
    /// refilling `out`'s vectors in place (capacity never shrinks), so a
    /// remap's re-translation stops allocating once the runner's scratch
    /// has warmed up. The result is identical to a fresh translation.
    ///
    /// When the rows came out of a remap ([`MovedRows`](crate::MovedRows))
    /// and `out` is the translation they were moved out of, the blocks the
    /// move kept whole and that are interior before and after it are not
    /// read again — the rows do not even hold them: they are moved to their
    /// new position in `out` and their slots shifted by the change of start
    /// (see the module docs). Every other block is translated fresh by the
    /// same loop.
    ///
    /// # Panics
    /// Panics if the rows and the schedule cover different intervals, if
    /// the rows keep blocks of a translation other than `out`, or if the
    /// rank makes more than `u32::MAX` references (the translated block
    /// starts are 32-bit).
    pub fn translate_adjacency_into(&self, adj: &impl Rows, out: &mut TranslatedAdjacency) {
        const ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;
        assert_eq!(adj.interval(), self.interval, "adjacency/schedule mismatch");
        let refs = adj.num_refs();
        check_block_starts_fit(self.rank, refs);
        let new = self.interval;
        let (len, blocks) = (new.len(), adj.num_blocks());
        let new_first = new.start / ROWS;
        // The blocks the rows keep are `out`'s own, its slots read through
        // its own interval and `ghosts`.
        let (old, old_len, ghosts) = match adj.kept_from() {
            Some((id, ghosts)) => {
                assert_eq!(id, out.id, "rows keep the blocks of another translation");
                (out.interval(), out.local_len, ghosts)
            }
            None => (Interval::EMPTY, 0, &[][..]),
        };
        let shared = shared_blocks(old, new);
        let by_start = (old.start as u32).wrapping_sub(new.start as u32);
        // The wide rows of the blocks kept whole stay listed — by global
        // row, which a move does not change; every other block lists its
        // own again below.
        let kept_whole = |g: u32| {
            let b = g as usize / ROWS;
            shared.contains(&b) && matches!(adj.block(b - new_first).refs, BlockRefs::Kept(_))
        };
        out.wide.retain(|&(g, _)| kept_whole(g));
        // Move what the shared blocks hold to where they now go, shifting
        // every slot on the way by the change of start — in one pass, and
        // not at all when nothing moved. What a block holds besides its
        // slots is relative to the block and moves as it is. That is the
        // whole work for a kept block interior before and after; another
        // kept block has its slots read again below, and a shared block
        // the rows hold is written again. Size every vector for the new
        // layout: each block not kept overwrites its own windows, so
        // recycled content need not be cleared first.
        let shifted = (!shared.is_empty())
            .then(|| {
                let rows = |iv: Interval| {
                    let lo = (shared.start * ROWS).max(iv.start) - iv.start;
                    lo..(shared.end * ROWS).min(iv.end) - iv.start
                };
                let (from, to) = (rows(old), rows(new).start);
                let old_first = old.start / ROWS;
                let kept = shared.start - old_first..shared.end - old_first;
                let slots =
                    out.block_start[kept.start] as usize..out.block_start[kept.end] as usize;
                // Where the shared blocks' slots now start: after every
                // block before them.
                let at: usize = (0..shared.start - new_first)
                    .map(|b| adj.block(b).num_refs)
                    .sum();
                (from, to, kept, slots, at)
            })
            .filter(|(.., slots, at)| by_start != 0 || *at != slots.start);
        if let Some((from, to, kept, slots, at)) = shifted {
            move_within(&mut out.slots, slots, at, refs, |x| {
                x.wrapping_add(by_start)
            });
            move_within(&mut out.order, from.clone(), to, len, |x| x);
            move_within(&mut out.visit, from.clone(), to, len, |x| x);
            move_within(&mut out.degree, from, to, len, |x| x);
            let to = shared.start - new_first;
            move_within(&mut out.class_rows, kept.clone(), to, blocks, |x| x);
            move_within(&mut out.class_skew, kept.clone(), to, blocks, |x| x);
            move_within(&mut out.bounds, kept, to, blocks, |x| x);
        } else {
            out.order.resize(len, 0);
            out.visit.resize(len, 0);
            out.degree.resize(len, 0);
            out.slots.resize(refs, 0);
            out.class_rows
                .resize(blocks, [0; TranslatedAdjacency::DEGREE_CLASSES]);
            out.class_skew
                .resize(blocks, [0; TranslatedAdjacency::SKEWED]);
            out.bounds.resize(blocks, (u32::MAX, 0));
        }
        out.block_start.resize(blocks + 1, 0);
        out.local_len = len as u32;
        out.num_ghosts = self.num_ghosts;
        out.start = new.start as u32;
        out.id = fresh_id();
        out.interior.clear();
        out.boundary.clear();
        let mut at = 0;
        for b in 0..blocks {
            let block = adj.block(b);
            let interior = within(block.bounds, new);
            let runs = if interior {
                &mut out.interior
            } else {
                &mut out.boundary
            };
            extend_runs(runs, block.rows.clone());
            let slots = at..at + block.num_refs;
            out.block_start[b] = at as u32;
            match block.refs {
                BlockRefs::Csr(row_ptrs, store) => {
                    out.bounds[b] = block.bounds;
                    self.translate_block(b, block.rows, (row_ptrs, store), at, interior, out);
                }
                BlockRefs::Kept(_) => {
                    assert!(
                        shared.contains(&(new_first + b)),
                        "only a shared block is kept"
                    );
                    if !(interior && within(block.bounds, old)) {
                        let was = (old, old_len, ghosts);
                        self.resolve_kept(&mut out.slots[slots.clone()], was, by_start);
                    }
                }
            }
            at = slots.end;
        }
        out.block_start[blocks] = at as u32;
        // Blocks before the kept ones listed their wide rows after them.
        out.wide.sort_unstable();
    }

    /// Resolves anew the `slots` of a kept block that reads a ghost before
    /// or after a move — same rows, same layout, only what a slot names
    /// changes. The slots were moved and shifted by `by_start`, which is
    /// right for a slot owned before and after; every other one is read
    /// back through the interval, local length and `ghosts` it had
    /// (`was`) and resolved through this schedule.
    fn resolve_kept(&self, slots: &mut [u32], was: (Interval, u32, &[u32]), by_start: u32) {
        let (old, old_len, ghosts) = was;
        let len = self.interval.len() as u32;
        for slot in slots {
            let s = slot.wrapping_sub(by_start);
            if s < old_len && *slot < len {
                continue;
            }
            let g = match s.checked_sub(old_len) {
                None => old.start as u32 + s,
                Some(ghost) => ghosts[ghost as usize],
            };
            *slot = match self.resolve(g) {
                LocalRef::Local(l) => l,
                LocalRef::Ghost(k) => len + k,
            };
        }
    }

    /// Translates block `block` (local rows `rows`, whose CSR is
    /// `(row_ptrs, store)` and whose slots start at `at`) fresh into its
    /// windows of `out`, whose vectors are already sized: its rows' degree
    /// bytes (its wide rows appended to `out`'s list), its degree index,
    /// and its slots in the order the sweep reads them. `interior` says its
    /// bounds lie in the owned interval.
    fn translate_block(
        &self,
        block: usize,
        rows: std::ops::Range<usize>,
        (row_ptrs, store): (&[u32], &[u32]),
        at: usize,
        interior: bool,
        out: &mut TranslatedAdjacency,
    ) {
        const LAST: usize = TranslatedAdjacency::DEGREE_CLASSES - 1;
        let (start, local_len) = (self.interval.start as u32, out.local_len);
        // While the block's row pointers are in L1, group its rows by
        // degree for the sweep.
        let classes = group_by_degree(
            row_ptrs,
            (&mut out.order[rows.clone()], &mut out.visit[rows.clone()]),
            &mut out.degree[rows.clone()],
        );
        out.class_rows[block] = classes;
        out.class_skew[block] = class_skew(&classes);
        // Only the last class holds rows too wide for their degree byte.
        let order = &out.order[rows.clone()];
        for &i in &order[order.len() - classes[LAST] as usize..] {
            let i = i as usize;
            if out.degree[rows.start + i] == TranslatedAdjacency::WIDE {
                let row = (self.interval.start + rows.start + i) as u32;
                out.wide.push((row, row_ptrs[i + 1] - row_ptrs[i]));
            }
        }
        // A block's rows stay together, so its slots are one window. Write
        // them there in the order the sweep will read them, translated as
        // if the block were interior — one subtraction per reference, no
        // branch.
        let refs = &store[row_ptrs[0] as usize..row_ptrs[rows.len()] as usize];
        let slots = &mut out.slots[at..at + refs.len()];
        emit_in_visit_order((row_ptrs, refs, start), (order, &classes), &mut *slots);
        if !interior {
            // A boundary row somewhere in the block: an owned global landed
            // below `local_len`, anything else wrapped above it. Send the
            // references that wrapped — the only ones touched one at a
            // time — through the schedule's ghost map.
            for slot in slots {
                if *slot >= local_len {
                    let LocalRef::Ghost(s) = self.resolve(slot.wrapping_add(start)) else {
                        unreachable!("an owned global translates below local_len");
                    };
                    *slot = local_len + s;
                }
            }
        }
    }

    /// The globals the ghost slots hold, slot by slot: the receive
    /// segments laid end to end.
    pub(crate) fn ghost_globals(&self) -> impl Iterator<Item = u32> + '_ {
        self.recvs
            .iter()
            .flat_map(|(_, globals)| globals.iter().copied())
    }

    /// The rows `tadj` — this schedule's translation — was made from:
    /// every slot decoded back to its global id, an owned slot `s` to
    /// `start + s` and a ghost slot through the receive segments. The
    /// inverse of [`CommSchedule::translate_adjacency`], for audits and
    /// tests that want the rows a rank no longer keeps beside its
    /// translation.
    ///
    /// # Panics
    /// Panics if `tadj` does not cover this schedule's interval or reads a
    /// slot beyond its ghosts.
    pub fn decode_adjacency(&self, tadj: &TranslatedAdjacency) -> LocalAdjacency {
        assert_eq!(
            tadj.interval(),
            self.interval,
            "translation/schedule mismatch"
        );
        let ghosts: Vec<u32> = self.ghost_globals().collect();
        let mut refs = Vec::with_capacity(tadj.num_refs());
        tadj.decode_rows(&ghosts, 0..tadj.len(), &mut Vec::new(), |r| {
            refs.extend_from_slice(r);
        });
        let mut xadj = Vec::with_capacity(tadj.len() + 1);
        xadj.push(0);
        xadj.extend(tadj.degrees(0..tadj.len()).scan(0, |at, d| {
            *at += d as u32;
            Some(*at)
        }));
        LocalAdjacency::from_parts(self.interval, xadj, refs)
    }

    /// Structural sanity checks (used by tests and debug assertions):
    /// peers sorted and distinct, send locals in range, recv globals owned by
    /// their peer, no self segments.
    pub fn validate(&self, partition: &BlockPartition) {
        for w in self.sends.windows(2) {
            assert!(w[0].0 < w[1].0, "send peers must be ascending");
        }
        for w in self.recvs.windows(2) {
            assert!(w[0].0 < w[1].0, "recv peers must be ascending");
        }
        for (peer, locals) in &self.sends {
            assert_ne!(*peer, self.rank, "self-send in schedule");
            for &l in locals {
                assert!(
                    (l as usize) < self.interval.len(),
                    "send local {l} out of block"
                );
            }
        }
        for (peer, globals) in &self.recvs {
            assert_ne!(*peer, self.rank, "self-recv in schedule");
            for &g in globals {
                assert_eq!(
                    partition.owner_of(g as usize),
                    *peer,
                    "recv global {g} not owned by peer {peer}"
                );
                assert!(self.ghost_of.get(g).is_some());
            }
        }
    }
}

/// Executor-ready indirection: every owned vertex's references as
/// combined-buffer indices (block values first, ghosts appended), **stored
/// in the order the sweep reads them**.
///
/// The irregular loop's cost on a cache-resident block is not its memory
/// traffic but the exit of the variable-trip `for s in neighbors` loop,
/// mispredicted whenever consecutive rows differ in degree — on an
/// unstructured mesh, most of the time. So every block of
/// [`TranslatedAdjacency::BLOCK_ROWS`] rows records its rows grouped by
/// degree ([`TranslatedAdjacency::degree_classes`]), planned once here so
/// that the executor visits a block class by class with a constant trip
/// count — and the slots are laid out the same way: block by block, within
/// a block class by class, within a class rows ascending
/// ([`TranslatedAdjacency::block_slots`]), so that visit is one forward
/// walk over one array with no row pointer to chase. Within a row the
/// references stay in CSR order.
///
/// Beside its 4-byte references the translation keeps 5 bytes per row: its
/// place in its block's visit order (`order`, 2 bytes), the inverse of that
/// (`visit`, 2 bytes) and its degree (1 byte; a row of 255 or more
/// references finds its degree in a short sorted list of wide rows). Per
/// block it keeps where the block's slots start, its class sizes, a skew
/// for each degree from 1 to 8 and its bounds. That keeps
/// [`TranslatedAdjacency::neighbors_of`] an O(1) contiguous slice with no
/// per-row start table: a row of degree `d` at visit position `k` starts
/// `k · d` slots into its block, less its class's skew; a row of the open
/// last class adds the degrees of the block's earlier last-class rows.
///
/// Blocks sit at global multiples of [`TranslatedAdjacency::BLOCK_ROWS`],
/// like the adjacency's ([`TranslatedAdjacency::block_rows`]): a rank's
/// first block may be short, as may its last, and a block that stays on
/// its rank across a remap keeps its rows, its degree index and its slot
/// layout.
///
/// Each block carries the smallest and largest global id its rows
/// reference ([`TranslatedAdjacency::bounds`]), so that the translation is
/// all a rank keeps of its rows: a remap asks a block whether it stays
/// interior with one comparison, and decodes only the rows it sends away
/// and the kept rows of the blocks it cuts differently
/// ([`MovedRows`](crate::MovedRows)).
///
/// Each block is also filed by whether it reads a ghost: the blocks whose
/// every slot is below `local_len` form the
/// [`TranslatedAdjacency::interior_runs`], the others the
/// [`TranslatedAdjacency::boundary_runs`], each a list of maximal runs of
/// consecutive blocks. The executor sweeps the first while the ghosts are
/// in flight and the second once they have landed.
///
/// Equality compares the translation, not which adjacency it came from.
#[derive(Debug, Clone)]
pub struct TranslatedAdjacency {
    local_len: u32,
    num_ghosts: u32,
    /// The first owned global row, which places the block boundaries.
    start: u32,
    /// Names this translation: fresh for every translation written, so
    /// rows moved out of it can tell it from any other (0 for none yet).
    id: u64,
    /// The references, each block's in its visit order.
    slots: Vec<u32>,
    /// Per block, and once more after the last, where the block's slots
    /// start in `slots`: a block's rows stay together, so its slots are
    /// `slots[block_start[b]..block_start[b + 1]]`.
    block_start: Vec<u32>,
    /// Per row of each block, the block's row-in-block numbers grouped by
    /// degree class, each class ascending: a block's rows own the same
    /// positions of `order`.
    order: Vec<u16>,
    /// Per row, its position in its block's part of `order`: the inverse.
    visit: Vec<u16>,
    /// Per row, its degree, or [`TranslatedAdjacency::WIDE`] for a row
    /// listed in `wide`.
    degree: Vec<u8>,
    /// `(global row, degree)` of every row of `WIDE` or more references,
    /// ascending. Keyed by global row, so a move does not change it.
    wide: Vec<(u32, u32)>,
    /// Per block, how many of its rows fall into each degree class — the
    /// lengths of the consecutive groups of its `order`.
    class_rows: Vec<[u16; TranslatedAdjacency::DEGREE_CLASSES]>,
    /// Per block, for each degree `d` from 1 to 8, how far class `d`'s
    /// first slot lies before `pos · d`, `pos` its first visit position:
    /// a row of class `d` at visit position `k` starts `k · d - skew`
    /// slots into its block. The last class starts where a row of degree
    /// 8 at its first position would.
    class_skew: Vec<[u16; TranslatedAdjacency::SKEWED]>,
    /// Per block, the smallest and largest global id its rows reference.
    bounds: Vec<Bounds>,
    /// The rows of the blocks that read no ghost, as maximal runs of
    /// consecutive blocks, ascending.
    interior: Vec<Range<usize>>,
    /// The rows of every other block, likewise.
    boundary: Vec<Range<usize>>,
}

impl PartialEq for TranslatedAdjacency {
    fn eq(&self, other: &Self) -> bool {
        (self.local_len, self.num_ghosts, self.start)
            == (other.local_len, other.num_ghosts, other.start)
            && self.slots == other.slots
            && self.block_start == other.block_start
            && self.order == other.order
            && self.visit == other.visit
            && self.degree == other.degree
            && self.wide == other.wide
            && self.class_rows == other.class_rows
            && self.class_skew == other.class_skew
            && self.bounds == other.bounds
            && self.interior == other.interior
            && self.boundary == other.boundary
    }
}

impl Eq for TranslatedAdjacency {}

impl TranslatedAdjacency {
    /// Rows per block: the unit of the inspector's walks, of the degree
    /// index and of the executor's cache block — ~12 KiB of references on a
    /// degree-6 mesh, so a block touched twice is still in L1 the second
    /// time, and a row-in-block number fits 16 bits. Blocks sit at global
    /// multiples of it ([`TranslatedAdjacency::block_rows`]).
    pub const BLOCK_ROWS: usize = 512;

    /// Degree classes of the per-block index: class `d < 9` holds the rows
    /// with exactly `d` references, the last class every row with more.
    pub const DEGREE_CLASSES: usize = 10;

    /// The degree byte of a row whose degree is in the list of wide rows.
    const WIDE: u8 = u8::MAX;

    /// The classes of constant degree that have a skew: degrees 1 to 8.
    const SKEWED: usize = Self::DEGREE_CLASSES - 2;

    /// Number of owned vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.degree.len()
    }

    /// Whether there are no owned vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block length (start of the ghost region in the combined buffer).
    #[inline]
    pub fn local_len(&self) -> u32 {
        self.local_len
    }

    /// Number of ghost slots.
    #[inline]
    pub fn num_ghosts(&self) -> u32 {
        self.num_ghosts
    }

    /// Required combined-buffer length (`local_len + num_ghosts`).
    #[inline]
    pub fn buffer_len(&self) -> usize {
        (self.local_len + self.num_ghosts) as usize
    }

    /// Combined-buffer indices of vertex `local`'s neighbors, in CSR order.
    #[inline]
    pub fn neighbors_of(&self, local: usize) -> &[u32] {
        let d = self.degree[local] as usize;
        if d == 0 {
            return &[];
        }
        if d > Self::SKEWED {
            return self.last_class_row(local);
        }
        let block = self.block_of(local);
        let k = self.visit[local] as usize;
        let from = self.block_start[block] as usize + k * d;
        let from = from - self.class_skew[block][d - 1] as usize;
        &self.slots[from..from + d]
    }

    /// [`TranslatedAdjacency::neighbors_of`] for a row of the open last
    /// class: its references follow those of the class's rows before it,
    /// and the class starts where a row of degree 8 at its first position
    /// would.
    fn last_class_row(&self, local: usize) -> &[u32] {
        const LAST: usize = TranslatedAdjacency::DEGREE_CLASSES - 1;
        let block = self.block_of(local);
        let rows = self.block_rows(block);
        let pos = rows.len() - self.class_rows[block][LAST] as usize;
        let before = &self.order[rows.start + pos..rows.start + self.visit[local] as usize];
        let skew = self.class_skew[block][Self::SKEWED - 1] as usize;
        let from = self.block_start[block] as usize + pos * Self::SKEWED - skew
            + before
                .iter()
                .map(|&i| self.degree_of(rows.start + i as usize))
                .sum::<usize>();
        &self.slots[from..from + self.degree_of(local)]
    }

    /// Degree of vertex `local`.
    #[inline]
    pub fn degree_of(&self, local: usize) -> usize {
        // With no wide row the byte is the degree. The test does not
        // depend on the row, so a loop over rows is split on it once and
        // its fast copy vectorizes; a lookup call in the loop would stop
        // that (2× on a per-row Jacobi loop).
        if self.wide.is_empty() {
            return self.degree[local] as usize;
        }
        match self.degree[local] {
            Self::WIDE => self.wide_degree(local),
            d => d as usize,
        }
    }

    /// The degree of a wide row, from the list.
    #[cold]
    #[inline(never)]
    fn wide_degree(&self, local: usize) -> usize {
        let row = self.start + local as u32;
        let at = self
            .wide
            .binary_search_by_key(&row, |&(r, _)| r)
            .unwrap_or_else(|_| panic!("row {local} is marked wide but not listed"));
        self.wide[at].1 as usize
    }

    /// The degree index of block `block` (the local vertices
    /// [`TranslatedAdjacency::block_rows`]): the block's row-in-block
    /// numbers — offsets from its first row — grouped by degree class, and
    /// the number of rows in each class. The first `classes[0]` entries of
    /// the order are the rows of degree 0, ascending; the next `classes[1]`
    /// those of degree 1; and so on, the last class taking every degree of
    /// [`TranslatedAdjacency::DEGREE_CLASSES`]` - 1` and above.
    ///
    /// # Panics
    /// Panics if `block` is not below
    /// [`TranslatedAdjacency::num_blocks`].
    #[inline]
    pub fn degree_classes(&self, block: usize) -> (&[u16], &[u16; Self::DEGREE_CLASSES]) {
        (&self.order[self.block_rows(block)], &self.class_rows[block])
    }

    /// The references of block `block`, in the order
    /// [`TranslatedAdjacency::degree_classes`] visits its rows: row
    /// `order[k]`'s references follow row `order[k - 1]`'s, each row's in
    /// CSR order. A class of `rows` rows of degree `d < DEGREE_CLASSES - 1`
    /// is therefore `rows · d` consecutive slots, `d` to a row, starting
    /// where the class before it ended; the rows of the last class — of
    /// any degree — are the tail of the stream.
    ///
    /// # Panics
    /// Panics if `block` is not below
    /// [`TranslatedAdjacency::num_blocks`].
    #[inline]
    pub fn block_slots(&self, block: usize) -> &[u32] {
        &self.slots[self.block_start[block] as usize..self.block_start[block + 1] as usize]
    }

    /// The local vertices of block `block`. Blocks sit at global multiples
    /// of [`TranslatedAdjacency::BLOCK_ROWS`], so the first block ends at
    /// the first such multiple after the rank's first global row and may
    /// be short, as may the last.
    #[inline]
    pub fn block_rows(&self, block: usize) -> std::ops::Range<usize> {
        block_rows(self.start as usize, self.len(), block)
    }

    /// The block holding local vertex `local`.
    #[inline]
    pub fn block_of(&self, local: usize) -> usize {
        (local + self.start as usize % Self::BLOCK_ROWS) / Self::BLOCK_ROWS
    }

    /// Number of blocks.
    #[inline]
    pub fn num_blocks(&self) -> usize {
        self.class_rows.len()
    }

    /// Total references.
    #[inline]
    pub fn num_refs(&self) -> usize {
        self.slots.len()
    }

    /// The rows that read no ghost: the blocks whose every slot is below
    /// [`TranslatedAdjacency::local_len`], as maximal runs of consecutive
    /// blocks, ascending. With [`TranslatedAdjacency::boundary_runs`] they
    /// tile `0..len`, cut only where a block starts.
    #[inline]
    pub fn interior_runs(&self) -> &[Range<usize>] {
        &self.interior
    }

    /// The rows of the blocks that read at least one ghost, as maximal
    /// runs of consecutive blocks, ascending.
    #[inline]
    pub fn boundary_runs(&self) -> &[Range<usize>] {
        &self.boundary
    }

    /// The smallest and largest global id block `block`'s rows reference;
    /// `(u32::MAX, 0)` when they reference nothing.
    ///
    /// # Panics
    /// Panics if `block` is not below
    /// [`TranslatedAdjacency::num_blocks`].
    #[inline]
    pub fn bounds(&self, block: usize) -> (u32, u32) {
        self.bounds[block]
    }

    /// The owned global interval.
    pub(crate) fn interval(&self) -> Interval {
        let start = self.start as usize;
        Interval::new(start, start + self.len())
    }

    /// The degrees of local rows `rows`, in order: their degree bytes, a
    /// wide row's looked up — read as one slice, for the loops that take
    /// a run of rows at a time.
    #[inline]
    pub(crate) fn degrees(&self, rows: Range<usize>) -> impl Iterator<Item = usize> + '_ {
        let wide = !self.wide.is_empty();
        let bytes = self.degree[rows.clone()].iter();
        bytes.zip(rows).map(move |(&d, l)| {
            if wide && d == Self::WIDE {
                self.wide_degree(l)
            } else {
                d as usize
            }
        })
    }

    /// This translation's id (see the field).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The global id slot `slot` holds: an owned slot past the interval's
    /// start, a ghost slot the entry of `ghosts` (the schedule's
    /// [`CommSchedule::ghost_globals`]) it indexes.
    #[inline]
    pub(crate) fn global(&self, ghosts: &[u32], slot: u32) -> u32 {
        match slot.checked_sub(self.local_len) {
            None => self.start + slot,
            Some(ghost) => *ghosts
                .get(ghost as usize)
                .unwrap_or_else(|| panic!("slot {slot} reads beyond the ghost region")),
        }
    }

    /// Appends to `out` every reference of block `block` that leaves
    /// `interval`, as `(local row, global id)` in CSR order, the block's
    /// rows numbered from `first` on. The block's slots are
    /// scanned in the order they are stored, one comparison each: a slot
    /// owned by `interval` cannot leave it. Only the others are read back
    /// ([`Self::global`]), and those that leave are sorted into CSR order
    /// through `found`, recycled storage.
    pub(crate) fn leaving(
        &self,
        (ghosts, block, interval): (&[u32], usize, Interval),
        first: usize,
        found: &mut Vec<(u16, u32, u32)>,
        out: &mut Vec<(u32, u32)>,
    ) {
        const LAST: usize = TranslatedAdjacency::DEGREE_CLASSES - 1;
        // The slots of the owned rows `interval` holds: `lo..lo + span`.
        let kept = self.interval().intersect(&interval);
        let (lo, span) = (
            (kept.start as u32).wrapping_sub(self.start),
            kept.len() as u32,
        );
        let rows = self.block_rows(block);
        let (mut order, classes) = self.degree_classes(block);
        let mut stream = self.block_slots(block);
        found.clear();
        // Row `i`'s reference `j` is slot `s`: kept unless it leaves.
        let mut keep = |(i, j): (u16, usize), s: u32| {
            let g = self.global(ghosts, s);
            if !interval.contains(g as usize) {
                found.push((i, j as u32, g));
            }
        };
        for (degree, &rows_in) in classes.iter().enumerate() {
            let class;
            (class, order) = order.split_at(rows_in as usize);
            if (1..LAST).contains(&degree) {
                // `degree` slots to a row: a hit's row is its position's.
                let region;
                (region, stream) = stream.split_at(class.len() * degree);
                for (p, &s) in region.iter().enumerate() {
                    if s.wrapping_sub(lo) >= span {
                        keep((class[p / degree], p % degree), s);
                    }
                }
            } else {
                for &i in class {
                    let row;
                    (row, stream) = stream.split_at(self.degree_of(rows.start + i as usize));
                    for (j, &s) in row.iter().enumerate() {
                        if s.wrapping_sub(lo) >= span {
                            keep((i, j), s);
                        }
                    }
                }
            }
        }
        found.sort_unstable();
        out.extend(
            found
                .iter()
                .map(|&(i, _, g)| ((first + i as usize) as u32, g)),
        );
    }

    /// Hands the references of local rows `rows` to `out`, row by row in
    /// CSR order, each slot read back to its global id ([`Self::global`]),
    /// one block's part of `rows` per call, decoded into `block`. A block
    /// is read whole, in the order it is stored, each row written to its
    /// place in `block` ([`decode_block`]), and its part of `rows` handed
    /// on; a block that reads no ghost needs no lookup.
    pub(crate) fn decode_rows(
        &self,
        ghosts: &[u32],
        rows: Range<usize>,
        block: &mut Vec<u32>,
        mut out: impl FnMut(&[u32]),
    ) {
        let mut ends = [0u32; Self::BLOCK_ROWS + 1];
        let mut l = rows.start;
        while l < rows.end {
            let b = self.block_of(l);
            let whole = self.block_rows(b);
            let end = rows.end.min(whole.end);
            // The block's CSR offsets, from its rows' degrees.
            let ends = &mut ends[..=whole.len()];
            let mut at = 0;
            for (end, d) in ends[1..].iter_mut().zip(self.degrees(whole.clone())) {
                at += d as u32;
                *end = at;
            }
            block.clear();
            block.resize(ends[whole.len()] as usize, 0);
            if within(self.bounds[b], self.interval()) {
                let start = self.start;
                decode_block(self, b, ends, block, |s| s.wrapping_add(start));
            } else {
                decode_block(self, b, ends, block, |s| self.global(ghosts, s));
            }
            let part = ends[l - whole.start] as usize..ends[end - whole.start] as usize;
            out(&block[part]);
            l = end;
        }
    }
}

/// Hands out translation ids; 0 is never one, so it can stand for "none".
fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Calls `f(local row, reference)` for every reference of `block` that
/// leaves `interval`, in CSR order.
fn for_each_leaving(block: &RowBlock, interval: Interval, mut f: impl FnMut(usize, u32)) {
    match block.refs {
        BlockRefs::Csr(row_ptrs, store) => {
            for (l, w) in block.rows.clone().zip(row_ptrs.windows(2)) {
                for &g in &store[w[0] as usize..w[1] as usize] {
                    if !interval.contains(g as usize) {
                        f(l, g);
                    }
                }
            }
        }
        BlockRefs::Kept(refs) => refs.iter().for_each(|&(l, g)| f(l as usize, g)),
    }
}

/// Appends `rows` to `runs`, merged into the last run when it ends where
/// `rows` starts.
fn extend_runs(runs: &mut Vec<Range<usize>>, rows: Range<usize>) {
    match runs.last_mut() {
        Some(last) if last.end == rows.start => last.end = rows.end,
        _ => runs.push(rows),
    }
}

/// Translated block starts are 32-bit: a rank with more references than
/// that cannot be translated.
fn check_block_starts_fit(rank: usize, num_refs: usize) {
    assert!(
        u32::try_from(num_refs).is_ok(),
        "rank {rank} makes {num_refs} references, more than the u32::MAX a translated \
         adjacency's 32-bit block starts can address"
    );
}

/// Groups one block's rows by degree class: writes the block's
/// row-in-block numbers to `order`, one per row, class by class, each
/// class ascending, and every row's position in it to `visit`; writes
/// every row's degree byte to `degree`; and returns the class sizes.
/// `row_ptrs` are the block's row pointers, one more than it has rows.
fn group_by_degree(
    row_ptrs: &[u32],
    (order, visit): (&mut [u16], &mut [u16]),
    degree: &mut [u8],
) -> [u16; TranslatedAdjacency::DEGREE_CLASSES] {
    const LAST: usize = TranslatedAdjacency::DEGREE_CLASSES - 1;
    const WIDE: u32 = TranslatedAdjacency::WIDE as u32;
    // One row list per class, each with room for a whole block.
    let mut lists = [[0u16; TranslatedAdjacency::BLOCK_ROWS]; LAST + 1];
    let mut rows = [0usize; LAST + 1];
    for ((i, w), byte) in row_ptrs.windows(2).enumerate().zip(degree) {
        let d = w[1] - w[0];
        *byte = d.min(WIDE) as u8;
        let class = (d as usize).min(LAST);
        lists[class][rows[class]] = i as u16;
        rows[class] += 1;
    }
    let mut at = 0;
    for (list, &rows) in lists.iter().zip(&rows) {
        order[at..at + rows].copy_from_slice(&list[..rows]);
        at += rows;
    }
    for (k, &i) in order.iter().enumerate() {
        visit[i as usize] = k as u16;
    }
    rows.map(|rows| rows as u16)
}

/// A block's skews ([`TranslatedAdjacency`]'s `class_skew`) from its class
/// sizes: class `d`'s is `Σ_{j<d} rows_j · (d - j)`, each class's the one
/// before plus the rows before it. At most `8 · BLOCK_ROWS`.
fn class_skew(
    classes: &[u16; TranslatedAdjacency::DEGREE_CLASSES],
) -> [u16; TranslatedAdjacency::SKEWED] {
    let (mut before, mut skew) = (0, 0);
    std::array::from_fn(|d| {
        before += classes[d];
        skew += before;
        skew
    })
}

/// Lays one block's references out in the order the sweep reads them:
/// writes row `order[k]`'s references — `refs`, the block's references,
/// indexed through its `row_ptrs` — after row `order[k - 1]`'s into
/// `block`, each minus `start`. Class by class like the sweep, and for the
/// same reason: in a class below the last a row is a copy of constant
/// length.
fn emit_in_visit_order(
    (row_ptrs, refs, start): (&[u32], &[u32], u32),
    (mut order, classes): (&[u16], &[u16; TranslatedAdjacency::DEGREE_CLASSES]),
    block: &mut [u32],
) {
    let src = (row_ptrs, refs, start);
    let mut at = 0;
    for (degree, &rows) in classes.iter().enumerate() {
        let class;
        (class, order) = order.split_at(rows as usize);
        let dst = &mut block[at..];
        at += match degree {
            1 => emit_class::<1>(class, src, dst),
            2 => emit_class::<2>(class, src, dst),
            3 => emit_class::<3>(class, src, dst),
            4 => emit_class::<4>(class, src, dst),
            5 => emit_class::<5>(class, src, dst),
            6 => emit_class::<6>(class, src, dst),
            7 => emit_class::<7>(class, src, dst),
            8 => emit_class::<8>(class, src, dst),
            _ => emit_rows(class, src, dst),
        };
    }
}

/// Writes block `block` of `tadj` — read in the order it is stored, class
/// by class — row by row in CSR order into `out`, row `i` of the block
/// from `out[ends[i]]` on, `ends` the block's CSR offsets from 0, each
/// slot through `f`: the inverse of [`emit_in_visit_order`], and for the
/// same reason class by class — in a class below the last, a row is a
/// copy of constant length.
fn decode_block(
    tadj: &TranslatedAdjacency,
    block: usize,
    ends: &[u32],
    out: &mut [u32],
    f: impl Fn(u32) -> u32,
) {
    let (mut order, classes) = tadj.degree_classes(block);
    let mut stream = tadj.block_slots(block);
    for (degree, &rows) in classes.iter().enumerate() {
        let class;
        (class, order) = order.split_at(rows as usize);
        let dst = (&mut *out, ends);
        let read = match degree {
            1 => decode_class::<1>(class, stream, dst, &f),
            2 => decode_class::<2>(class, stream, dst, &f),
            3 => decode_class::<3>(class, stream, dst, &f),
            4 => decode_class::<4>(class, stream, dst, &f),
            5 => decode_class::<5>(class, stream, dst, &f),
            6 => decode_class::<6>(class, stream, dst, &f),
            7 => decode_class::<7>(class, stream, dst, &f),
            8 => decode_class::<8>(class, stream, dst, &f),
            _ => {
                let mut read = 0;
                for &i in class {
                    let (from, to) = (ends[i as usize], ends[i as usize + 1]);
                    let row = &stream[read..read + (to - from) as usize];
                    let at = from as usize;
                    for (g, &s) in out[at..at + row.len()].iter_mut().zip(row) {
                        *g = f(s);
                    }
                    read += row.len();
                }
                read
            }
        };
        stream = &stream[read..];
    }
}

/// One degree class of [`decode_block`], every row in `class` making
/// exactly `D` references: reads the first `class.len() · D` slots of
/// `stream` and returns how many that was.
#[inline(always)]
fn decode_class<const D: usize>(
    class: &[u16],
    stream: &[u32],
    (out, ends): (&mut [u32], &[u32]),
    f: impl Fn(u32) -> u32,
) -> usize {
    for (&i, row) in class.iter().zip(stream.chunks_exact(D)) {
        let at = ends[i as usize] as usize;
        let dst: &mut [u32; D] = (&mut out[at..at + D]).try_into().expect("D references");
        let row: &[u32; D] = row.try_into().expect("a chunk of D slots");
        *dst = row.map(&f);
    }
    class.len() * D
}

/// One degree class of [`emit_in_visit_order`], every row in `class` making
/// exactly `D` references: fills the first `class.len() · D` slots of
/// `dst` and returns how many that was.
#[inline(always)]
fn emit_class<const D: usize>(
    class: &[u16],
    (row_ptrs, refs, start): (&[u32], &[u32], u32),
    dst: &mut [u32],
) -> usize {
    let dst = dst[..class.len() * D].chunks_exact_mut(D);
    for (&i, slots) in class.iter().zip(dst) {
        let from = (row_ptrs[i as usize] - row_ptrs[0]) as usize;
        let row: &[u32; D] = refs[from..from + D].try_into().expect("D references");
        let slots: &mut [u32; D] = slots.try_into().expect("a chunk of D slots");
        *slots = row.map(|g| g.wrapping_sub(start));
    }
    class.len() * D
}

/// [`emit_class`] for rows of any length — the class of no references and
/// the open-ended last one.
fn emit_rows(
    class: &[u16],
    (row_ptrs, refs, start): (&[u32], &[u32], u32),
    dst: &mut [u32],
) -> usize {
    let mut at = 0;
    for &i in class {
        let i = i as usize;
        let row =
            &refs[(row_ptrs[i] - row_ptrs[0]) as usize..(row_ptrs[i + 1] - row_ptrs[0]) as usize];
        for (slot, &g) in dst[at..at + row.len()].iter_mut().zip(row) {
            *slot = g.wrapping_sub(start);
        }
        at += row.len();
    }
    at
}

/// Bound on pooled segment vectors in a [`ScheduleScratch`] — generous for
/// any realistic peer count, small enough that a pathological schedule
/// cannot hoard memory.
const SEG_POOL_CAP: usize = 64;

/// Recycled storage for repeated symmetric schedule builds (one per rank,
/// owned by whoever rebuilds schedules on remap — the session keeps one
/// inside its `RemapScratch`).
///
/// A fresh build allocates the dedup hash map, two per-peer segment
/// tables, the send/receive lists and the ghost map; with a scratch, all
/// of that storage is recycled remap over remap (capacity never shrinks),
/// and a retired schedule's vectors are donated back via
/// [`ScheduleScratch::recycle`]. [`build_schedule_symmetric_with`]
/// produces schedules and counted work identical to
/// [`build_schedule_symmetric`].
#[derive(Debug)]
pub struct ScheduleScratch {
    ghost_dedup: RefHashMap,
    recv_segments: Vec<Vec<u32>>,
    send_segments: Vec<Vec<u32>>,
    seg_pool: Vec<Vec<u32>>,
    outer_pool: Vec<Vec<(usize, Vec<u32>)>>,
    map_pool: Vec<RefHashMap>,
}

impl ScheduleScratch {
    /// An empty scratch; capacities warm up over the first build.
    pub fn new() -> Self {
        ScheduleScratch {
            ghost_dedup: RefHashMap::with_capacity(16),
            recv_segments: Vec::new(),
            send_segments: Vec::new(),
            seg_pool: Vec::new(),
            outer_pool: Vec::new(),
            map_pool: Vec::new(),
        }
    }

    /// Ensures both segment tables have `p` cleared slots, refilling
    /// capacity-less slots from the pool of donated vectors.
    fn prepare_segments(&mut self, p: usize) {
        let ScheduleScratch {
            recv_segments,
            send_segments,
            seg_pool,
            ..
        } = self;
        for segs in [recv_segments, send_segments] {
            if segs.len() < p {
                segs.resize_with(p, Vec::new);
            }
            for s in segs.iter_mut().take(p) {
                s.clear();
                if s.capacity() == 0 {
                    if let Some(mut spare) = seg_pool.pop() {
                        spare.clear();
                        *s = spare;
                    }
                }
            }
        }
    }

    /// Donates a retired schedule's storage (segment vectors, outer lists,
    /// ghost map) back to the pools, so the next build draws on it instead
    /// of the allocator. Call this with the schedule a remap replaced.
    pub fn recycle(&mut self, schedule: CommSchedule) {
        let CommSchedule {
            sends,
            recvs,
            ghost_of,
            ..
        } = schedule;
        for mut outer in [sends, recvs] {
            for (_, seg) in outer.drain(..) {
                if self.seg_pool.len() < SEG_POOL_CAP {
                    self.seg_pool.push(seg);
                }
            }
            if self.outer_pool.len() < 2 {
                self.outer_pool.push(outer);
            }
        }
        if self.map_pool.is_empty() {
            self.map_pool.push(ghost_of);
        }
    }
}

impl Default for ScheduleScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds a schedule by exploiting access symmetry — no communication.
/// Returns the schedule plus counted work (the caller charges it through an
/// [`InspectorCostModel`]).
///
/// # Panics
/// Panics (in debug) if the reference pattern is not symmetric; the strategy
/// is only valid for symmetric accesses (§3.2).
pub fn build_schedule_symmetric(
    partition: &BlockPartition,
    adj: &impl Rows,
    rank: usize,
    strategy: ScheduleStrategy,
) -> (CommSchedule, InspectorWork) {
    build_schedule_symmetric_with(partition, adj, rank, strategy, &mut ScheduleScratch::new())
}

/// [`build_schedule_symmetric`] drawing all working storage from a recycled
/// [`ScheduleScratch`]: after the scratch has warmed up (one build plus one
/// [`ScheduleScratch::recycle`] of the schedule it replaced), a rebuild's
/// allocation count is bounded and independent of how many rebuilds came
/// before. Output (schedule and counted work) is identical to the fresh
/// builder's.
///
/// # Panics
/// Panics (in debug) if the reference pattern is not symmetric.
pub fn build_schedule_symmetric_with(
    partition: &BlockPartition,
    adj: &impl Rows,
    rank: usize,
    strategy: ScheduleStrategy,
    scratch: &mut ScheduleScratch,
) -> (CommSchedule, InspectorWork) {
    assert!(
        matches!(strategy, ScheduleStrategy::Sort1 | ScheduleStrategy::Sort2),
        "build_schedule_symmetric only implements Sort1/Sort2"
    );
    let mut work = InspectorWork::default();
    let p = partition.num_procs();
    let interval = partition.interval_of(rank);
    debug_assert_eq!(adj.interval(), interval);

    scratch.prepare_segments(p);
    let ScheduleScratch {
        ghost_dedup,
        recv_segments,
        send_segments,
        outer_pool,
        map_pool,
        ..
    } = scratch;
    // Receive side: unique off-processor globals per owner, through one
    // dedup hash over the reference stream (§3.2 phase 1). Send side:
    // boundary locals per destination, each (local, peer) pair once.
    ghost_dedup.clear();

    for b in 0..adj.num_blocks() {
        // The paper's algorithm dereferences every reference; that is what
        // the counted work charges. Ours asks the block's bounds first, and
        // an interior block — all but the few that hold a boundary row on
        // a locality-ordered mesh — is done.
        let block = adj.block(b);
        work.translate_ops += block.num_refs as u64;
        if within(block.bounds, interval) {
            continue;
        }
        for_each_leaving(&block, interval, |l, g| {
            let owner = partition.owner_of(g as usize);
            work.hash_ops += 1;
            if ghost_dedup.insert_if_absent(g, 0).is_none() {
                recv_segments[owner].push(g);
                work.scan_ops += 1;
            }
            // Symmetric accesses: the owner of g references my vertex l.
            // Rows are visited in ascending l, so a repeated (l, owner)
            // pair is always the segment's last entry; the probe is
            // charged as the paper's hash lookup regardless.
            work.hash_ops += 1;
            if send_segments[owner].last() != Some(&(l as u32)) {
                send_segments[owner].push(l as u32);
                work.scan_ops += 1;
            }
        });
    }

    // Receive segments: both variants sort by the sender's local reference,
    // which for an interval block is the same as sorting by global index.
    for seg in recv_segments.iter_mut().take(p) {
        if seg.len() > 1 {
            work.add_sort(seg.len());
            seg.sort_unstable();
        }
    }
    // Send lists: sort1 sorts; sort2 relied on the ascending traversal above
    // (locals were appended in increasing l), so the lists are already
    // sorted and no work is charged.
    if strategy == ScheduleStrategy::Sort1 {
        for seg in send_segments.iter_mut().take(p) {
            if seg.len() > 1 {
                work.add_sort(seg.len());
                seg.sort_unstable();
            }
        }
    } else {
        debug_assert!(send_segments
            .iter()
            .all(|s| s.windows(2).all(|w| w[0] < w[1])));
    }

    // Move the non-empty segments into the schedule's lists (the vacated
    // slots are refilled from the pool on the next build).
    let mut sends = outer_pool.pop().unwrap_or_default();
    sends.clear();
    for (peer, seg) in send_segments.iter_mut().enumerate().take(p) {
        if peer != rank && !seg.is_empty() {
            sends.push((peer, std::mem::take(seg)));
        }
    }
    let mut recvs = outer_pool.pop().unwrap_or_default();
    recvs.clear();
    for (peer, seg) in recv_segments.iter_mut().enumerate().take(p) {
        if peer != rank && !seg.is_empty() {
            recvs.push((peer, std::mem::take(seg)));
        }
    }

    let num_ghosts: usize = recvs.iter().map(|(_, g)| g.len()).sum();
    let ghost_of = map_pool
        .pop()
        .unwrap_or_else(|| RefHashMap::with_capacity(num_ghosts));
    (
        CommSchedule::from_parts_with(rank, interval, sends, recvs, ghost_of),
        work,
    )
}

/// Builds a schedule with the general ("simple") strategy over the cluster:
/// dereference through the block-distributed explicit translation table,
/// then exchange request lists. Compute work is charged to `env` as it
/// happens; message costs follow from the sends themselves.
///
/// All ranks must call this collectively.
pub fn build_schedule_simple<C: Comm>(
    env: &mut C,
    partition: &BlockPartition,
    adj: &impl Rows,
    cost: &InspectorCostModel,
) -> CommSchedule {
    let rank = env.rank();
    let p = env.size();
    let n = partition.n();
    let interval = partition.interval_of(rank);
    debug_assert_eq!(adj.interval(), interval);

    // Phase 1: dedup references, keeping first-occurrence order, grouped by
    // *table owner* (we pretend not to know data owners yet — that is what
    // the explicit table is for). Unlike the symmetric builders, there is no
    // interval table to pre-filter with, so the dedup hash processes the
    // whole reference stream [27].
    let mut work = InspectorWork::default();
    let mut dedup = RefHashMap::with_capacity(adj.num_refs() / 4 + 4);
    let mut queries: Vec<Vec<u32>> = vec![Vec::new(); p];
    for b in 0..adj.num_blocks() {
        // One hash operation per reference; an owned one is done.
        let block = adj.block(b);
        work.hash_ops += block.num_refs as u64;
        if within(block.bounds, interval) {
            continue;
        }
        for_each_leaving(&block, interval, |_, g| {
            if dedup.insert_if_absent(g, 0).is_none() {
                let table_owner = DenseTable::table_owner_of(g as usize, n, p);
                queries[table_owner].push(g);
                work.scan_ops += 1;
            }
        });
    }
    env.compute(cost.seconds(&work));

    // Round 1a: send query lists to table owners (empty messages included:
    // the receiver cannot otherwise know nobody needs it).
    for (dst, qs) in queries.iter().enumerate() {
        if dst != rank {
            env.send(dst, TAG_QUERY, u32::pack(qs));
        }
    }
    // Serve queries against my table segment. Each protocol message costs
    // real servicing CPU (see `InspectorCostModel::per_message_service`).
    let my_table = DenseTable::from_partition(partition);
    let mut incoming_queries: Vec<(usize, Vec<u32>)> = Vec::with_capacity(p - 1);
    for src in 0..p {
        if src != rank {
            incoming_queries.push((src, u32::unpack(env.recv(src, TAG_QUERY))));
            env.compute(cost.per_message_service);
        }
    }
    for (src, qs) in incoming_queries {
        let mut reply_work = InspectorWork::default();
        let reply: Vec<u64> = qs
            .iter()
            .map(|&g| {
                reply_work.translate_ops += 1;
                let (proc, local) = my_table.locate(g as usize);
                ((proc as u64) << 32) | local as u64
            })
            .collect();
        env.compute(cost.seconds(&reply_work));
        env.send(src, TAG_REPLY, u64::pack(&reply));
    }

    // Round 1b: collect replies; now each unique global has (owner, local).
    let mut located: Vec<(u32, u32, u32)> = Vec::new(); // (global, owner, local)
    let mut local_queries_work = InspectorWork::default();
    for (table_owner, qs) in queries.iter().enumerate() {
        if table_owner == rank {
            for &g in qs {
                local_queries_work.translate_ops += 1;
                let (proc, local) = my_table.locate(g as usize);
                located.push((g, proc as u32, local as u32));
            }
            continue;
        }
        let reply = u64::unpack(env.recv(table_owner, TAG_REPLY));
        env.compute(cost.per_message_service);
        for (&g, &packed) in qs.iter().zip(&reply) {
            located.push((g, (packed >> 32) as u32, (packed & 0xFFFF_FFFF) as u32));
        }
    }
    env.compute(cost.seconds(&local_queries_work));

    // Phase 2: group by data owner (preserving discovery order) and send
    // request lists; the owner's send list is the request list order.
    let mut request_globals: Vec<Vec<u32>> = vec![Vec::new(); p];
    let mut request_locals: Vec<Vec<u32>> = vec![Vec::new(); p];
    let mut group_work = InspectorWork::default();
    for &(g, owner, local) in &located {
        group_work.scan_ops += 1;
        request_globals[owner as usize].push(g);
        request_locals[owner as usize].push(local);
    }
    env.compute(cost.seconds(&group_work));
    for (dst, locals) in request_locals.iter().enumerate() {
        if dst != rank {
            env.send(dst, TAG_REQUEST, u32::pack(locals));
        }
    }
    let mut sends: Vec<(usize, Vec<u32>)> = Vec::new();
    for src in 0..p {
        if src != rank {
            let locals = u32::unpack(env.recv(src, TAG_REQUEST));
            env.compute(cost.per_message_service);
            if !locals.is_empty() {
                sends.push((src, locals));
            }
        }
    }

    let recvs: Vec<(usize, Vec<u32>)> = request_globals
        .into_iter()
        .enumerate()
        .filter(|(peer, seg)| *peer != rank && !seg.is_empty())
        .collect();

    CommSchedule::from_parts(rank, interval, sends, recvs)
}

#[doc(hidden)]
pub mod reference;

#[cfg(test)]
mod oracles;

#[cfg(test)]
mod tests {
    use super::*;
    use stance_locality::meshgen;
    use stance_locality::Graph;
    use stance_sim::{Cluster, ClusterSpec, NetworkSpec};

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
        Graph::from_edges(n, &edges, coords, 2)
    }

    fn schedules_for(
        graph: &Graph,
        partition: &BlockPartition,
        strategy: ScheduleStrategy,
    ) -> Vec<CommSchedule> {
        (0..partition.num_procs())
            .map(|r| {
                let adj = LocalAdjacency::extract(graph, partition, r);
                let (s, _) = build_schedule_symmetric(partition, &adj, r, strategy);
                s.validate(partition);
                s
            })
            .collect()
    }

    /// Cross-rank consistency: what q sends to r must be exactly what r
    /// expects from q, element for element.
    fn assert_matched(partition: &BlockPartition, schedules: &[CommSchedule]) {
        let p = partition.num_procs();
        for q in 0..p {
            for r in 0..p {
                if q == r {
                    continue;
                }
                let sent: Vec<u32> = schedules[q]
                    .sends()
                    .iter()
                    .find(|(peer, _)| *peer == r)
                    .map(|(_, locals)| {
                        let start = partition.interval_of(q).start as u32;
                        locals.iter().map(|&l| l + start).collect()
                    })
                    .unwrap_or_default();
                let expected: Vec<u32> = schedules[r]
                    .recvs()
                    .iter()
                    .find(|(peer, _)| *peer == q)
                    .map(|(_, globals)| globals.clone())
                    .unwrap_or_default();
                assert_eq!(sent, expected, "segment {q} → {r} mismatched");
            }
        }
    }

    #[test]
    fn path_schedule_sort2() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let schedules = schedules_for(&g, &part, ScheduleStrategy::Sort2);
        assert_matched(&part, &schedules);
        // Middle rank: receives 1 ghost from each side, sends 1 to each.
        let mid = &schedules[1];
        assert_eq!(mid.num_ghosts(), 2);
        assert_eq!(mid.total_send_volume(), 2);
        assert_eq!(mid.recvs()[0], (0, vec![2]));
        assert_eq!(mid.recvs()[1], (2, vec![6]));
        assert_eq!(mid.sends()[0], (0, vec![0]));
        assert_eq!(mid.sends()[1], (2, vec![2]));
    }

    #[test]
    fn sort1_and_sort2_produce_identical_schedules() {
        let g = meshgen::triangulated_grid(12, 9, 0.4, 7);
        let part = BlockPartition::from_sizes(&[30, 40, 20, 18]);
        let s1 = schedules_for(&g, &part, ScheduleStrategy::Sort1);
        let s2 = schedules_for(&g, &part, ScheduleStrategy::Sort2);
        assert_eq!(s1, s2);
        assert_matched(&part, &s1);
    }

    #[test]
    fn sort1_charges_more_sort_work() {
        let g = meshgen::triangulated_grid(12, 12, 0.4, 3);
        let part = BlockPartition::uniform(144, 4);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        let (_, w1) = build_schedule_symmetric(&part, &adj, 1, ScheduleStrategy::Sort1);
        let (_, w2) = build_schedule_symmetric(&part, &adj, 1, ScheduleStrategy::Sort2);
        assert!(w1.sort_item_log > w2.sort_item_log);
        assert_eq!(w1.hash_ops, w2.hash_ops);
    }

    #[test]
    fn ghost_slots_contiguous_and_resolvable() {
        let g = meshgen::triangulated_grid(10, 10, 0.2, 1);
        let part = BlockPartition::uniform(100, 3);
        let schedules = schedules_for(&g, &part, ScheduleStrategy::Sort2);
        for s in &schedules {
            let mut expected_slot = 0u32;
            for (_, globals) in s.recvs() {
                for &gl in globals {
                    assert_eq!(s.ghost_slot(gl), Some(expected_slot));
                    assert_eq!(s.resolve(gl), LocalRef::Ghost(expected_slot));
                    expected_slot += 1;
                }
            }
            assert_eq!(s.num_ghosts(), expected_slot);
        }
    }

    #[test]
    fn resolve_local_references() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let schedules = schedules_for(&g, &part, ScheduleStrategy::Sort2);
        assert_eq!(schedules[1].resolve(4), LocalRef::Local(1));
        assert_eq!(schedules[0].resolve(0), LocalRef::Local(0));
    }

    #[test]
    #[should_panic(expected = "neither owned")]
    fn resolve_unscheduled_panics() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let schedules = schedules_for(&g, &part, ScheduleStrategy::Sort2);
        // Global 8 is not referenced by rank 0 (path graph).
        let _ = schedules[0].resolve(8);
    }

    #[test]
    fn translated_adjacency_roundtrip() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        let (s, _) = build_schedule_symmetric(&part, &adj, 1, ScheduleStrategy::Sort2);
        let t = s.translate_adjacency(&adj);
        assert_eq!(t.len(), 3);
        assert_eq!(t.local_len(), 3);
        assert_eq!(t.num_ghosts(), 2);
        assert_eq!(t.buffer_len(), 5);
        // Vertex 3 (local 0): neighbors 2 (ghost slot 0 → 3+0) and 4 (local 1).
        assert_eq!(t.neighbors_of(0), &[3, 1]);
        // Vertex 5 (local 2): neighbors 4 (local 1) and 6 (ghost slot 1 → 4).
        assert_eq!(t.neighbors_of(2), &[1, 4]);
        assert_eq!(t.num_refs(), 6);
    }

    #[test]
    fn single_rank_has_empty_schedule() {
        let g = path_graph(5);
        let part = BlockPartition::uniform(5, 1);
        let adj = LocalAdjacency::extract(&g, &part, 0);
        let (s, w) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort1);
        assert_eq!(s.num_ghosts(), 0);
        assert!(s.sends().is_empty());
        assert_eq!(w.sort_item_log, 0.0);
    }

    #[test]
    fn empty_block_schedule() {
        let g = path_graph(6);
        let part = BlockPartition::from_sizes(&[6, 0]);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        let (s, _) = build_schedule_symmetric(&part, &adj, 1, ScheduleStrategy::Sort2);
        assert_eq!(s.num_ghosts(), 0);
        assert!(s.sends().is_empty());
    }

    /// The scratch-backed builder must produce schedules and counted work
    /// identical to the fresh builder, on its first use and on every reuse
    /// (including after recycling the schedule it replaced).
    #[test]
    fn scratch_builder_matches_fresh_across_rebuilds() {
        let g = meshgen::triangulated_grid(12, 9, 0.4, 7);
        let parts = [
            BlockPartition::from_sizes(&[30, 40, 20, 18]),
            BlockPartition::from_sizes(&[10, 50, 28, 20]),
            BlockPartition::from_sizes(&[30, 40, 20, 18]),
            BlockPartition::from_sizes(&[40, 20, 28, 20]),
        ];
        for strategy in [ScheduleStrategy::Sort1, ScheduleStrategy::Sort2] {
            for rank in 0..4 {
                let mut scratch = ScheduleScratch::new();
                let mut previous: Option<CommSchedule> = None;
                for part in &parts {
                    let adj = LocalAdjacency::extract(&g, part, rank);
                    let (fresh, fresh_work) = build_schedule_symmetric(part, &adj, rank, strategy);
                    let (reused, reused_work) =
                        build_schedule_symmetric_with(part, &adj, rank, strategy, &mut scratch);
                    assert_eq!(fresh, reused, "schedules diverged under reuse");
                    assert_eq!(fresh_work, reused_work, "counted work diverged");
                    if let Some(old) = previous.replace(reused) {
                        scratch.recycle(old);
                    }
                }
            }
        }
    }

    /// After one build + recycle cycle the scratch's pools are populated,
    /// so a rebuild of the same shape draws its segment storage from the
    /// pool rather than the allocator (observable through pointer reuse).
    #[test]
    fn recycle_feeds_the_next_build() {
        let g = meshgen::triangulated_grid(10, 10, 0.2, 1);
        let part = BlockPartition::uniform(100, 3);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        let mut scratch = ScheduleScratch::new();
        let (first, _) =
            build_schedule_symmetric_with(&part, &adj, 1, ScheduleStrategy::Sort2, &mut scratch);
        let donated: Vec<*const u32> = first
            .sends()
            .iter()
            .chain(first.recvs())
            .map(|(_, seg)| seg.as_ptr())
            .collect();
        scratch.recycle(first);
        let (second, _) =
            build_schedule_symmetric_with(&part, &adj, 1, ScheduleStrategy::Sort2, &mut scratch);
        let reused = second
            .sends()
            .iter()
            .chain(second.recvs())
            .filter(|(_, seg)| donated.contains(&seg.as_ptr()))
            .count();
        assert!(
            reused > 0,
            "no donated segment storage was reused by the rebuild"
        );
    }

    #[test]
    fn translate_adjacency_into_matches_fresh_and_reuses_storage() {
        let g = meshgen::triangulated_grid(13, 9, 0.4, 8);
        let parts = [
            BlockPartition::from_sizes(&[30, 40, 27, 20]),
            BlockPartition::from_sizes(&[50, 30, 17, 20]),
        ];
        let mut out = {
            let adj = LocalAdjacency::extract(&g, &parts[0], 2);
            let (s, _) = build_schedule_symmetric(&parts[0], &adj, 2, ScheduleStrategy::Sort2);
            s.translate_adjacency(&adj)
        };
        let slots_ptr = {
            // Shrinking rebuild: recycled storage must be reused in place.
            let adj = LocalAdjacency::extract(&g, &parts[1], 2);
            let (s, _) = build_schedule_symmetric(&parts[1], &adj, 2, ScheduleStrategy::Sort2);
            let fresh = s.translate_adjacency(&adj);
            let before = out.slots.as_ptr();
            s.translate_adjacency_into(&adj, &mut out);
            assert_eq!(out, fresh, "reused translation diverged");
            (before, out.slots.as_ptr())
        };
        assert_eq!(slots_ptr.0, slots_ptr.1, "slot storage was reallocated");
    }

    #[test]
    fn simple_strategy_matches_symmetric_content() {
        // The simple strategy must fetch exactly the same ghost *sets* and
        // produce matched segments, even though segment order may differ.
        let g = meshgen::triangulated_grid(10, 8, 0.3, 5);
        let n = g.num_vertices();
        let part = BlockPartition::from_sizes(&[25, 30, 25]);
        assert_eq!(part.n(), n);
        let part_for_run = part.clone();
        let g_for_run = g.clone();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            let adj = LocalAdjacency::extract(&g_for_run, &part_for_run, env.rank());
            let s = build_schedule_simple(env, &part_for_run, &adj, &InspectorCostModel::zero());
            s.validate(&part_for_run);
            s
        });
        let simple: Vec<CommSchedule> = report.into_results();
        // Cross-rank matched.
        for q in 0..3 {
            for r in 0..3 {
                if q == r {
                    continue;
                }
                let start = part.interval_of(q).start as u32;
                let sent: Vec<u32> = simple[q]
                    .sends()
                    .iter()
                    .find(|(peer, _)| *peer == r)
                    .map(|(_, l)| l.iter().map(|&x| x + start).collect())
                    .unwrap_or_default();
                let expected: Vec<u32> = simple[r]
                    .recvs()
                    .iter()
                    .find(|(peer, _)| *peer == q)
                    .map(|(_, g)| g.clone())
                    .unwrap_or_default();
                assert_eq!(sent, expected, "simple segment {q} → {r}");
            }
        }
        // Same ghost sets as the symmetric builder.
        for (r, simple_r) in simple.iter().enumerate() {
            let adj = LocalAdjacency::extract(&g, &part, r);
            let (sym, _) = build_schedule_symmetric(&part, &adj, r, ScheduleStrategy::Sort2);
            let mut a: Vec<u32> = simple_r
                .recvs()
                .iter()
                .flat_map(|(_, g)| g.clone())
                .collect();
            let mut b: Vec<u32> = sym.recvs().iter().flat_map(|(_, g)| g.clone()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "rank {r} ghost sets differ");
        }
    }

    #[test]
    fn simple_strategy_sends_more_messages() {
        let g = meshgen::triangulated_grid(10, 8, 0.3, 5);
        let part = BlockPartition::uniform(80, 4);
        let part2 = part.clone();
        let spec = ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            let adj = LocalAdjacency::extract(&g, &part2, env.rank());
            let _ = build_schedule_simple(env, &part2, &adj, &InspectorCostModel::zero());
            env.stats().messages_sent
        });
        for msgs in report.results() {
            // Three all-to-all rounds: ≥ 3 × (p − 1) messages per rank.
            assert!(*msgs >= 9, "expected ≥ 9 messages, got {msgs}");
        }
    }

    #[test]
    fn strategy_names() {
        assert_eq!(ScheduleStrategy::Sort1.name(), "Sort1");
        assert_eq!(ScheduleStrategy::Simple.name(), "Simple Strategy");
        assert_eq!(ScheduleStrategy::ALL.len(), 3);
    }
}
