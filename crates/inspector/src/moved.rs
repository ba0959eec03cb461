//! What a remap hands the inspector: a rank's rows after the move, read
//! out of the translation it already holds and the packets it was sent.
//!
//! A rank keeps one copy of its rows — its [`TranslatedAdjacency`], local
//! slots in the order the sweep reads them, and the
//! [`CommSchedule`] that names its ghosts. A remap therefore moves rows
//! out of the translation and into the next one:
//!
//! * a row sent away is decoded on its way out ([`MovedRows::pack`]): an
//!   owned slot `s` is global `start + s`, a ghost slot the global its
//!   receive segment names; it travels as `[deg(v)…] ++ [refs…]`, each a
//!   little-endian `u32` — the remap's wire format, written straight into
//!   the message's bytes and read straight out of them;
//! * a block whose rows all stay, cut alike before and after the move, is
//!   kept where it lies: the translation moves it, and rebases its slots
//!   ([`CommSchedule::translate_adjacency_into`]) — which is all a block
//!   interior before and after needs; the slots of any other kept block
//!   are read back and resolved anew in place. The schedule builder skips
//!   a kept interior block like any interior block and, of a kept block
//!   that leaves the new interval, reads only the references that leave
//!   it, listed here in one pass over the block;
//! * every other block of the new interval — one that holds a received
//!   row, or a kept row cut differently — is staged here with global
//!   references: received rows copied from their packets, kept rows
//!   decoded from the translation.
//!
//! So a move costs what moved plus the boundary blocks, whatever the size
//! of the kept run, and every buffer is recycled remap over remap.

use std::ops::Range;

use stance_onedim::Interval;
use stance_sim::Element;

use crate::adjacency::{block_rows, num_blocks, scan, shared_blocks, within, Bounds};
use crate::adjacency::{BlockRefs, RowBlock, Rows};
use crate::schedule::{CommSchedule, TranslatedAdjacency};

const ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;

/// Where a block's references are held.
#[derive(Debug, Clone)]
enum Held {
    /// Staged, its rows from this staged row on.
    Staged(usize),
    /// Kept in the translation; these of the leaving references are its.
    Kept(Range<usize>),
}

/// A rank's rows after a remap, as the schedule builder and the
/// translation read them ([`Rows`]): the blocks the translation keeps, and
/// every other block staged with global references. One per rank, owned by
/// the remap's scratch and recycled across remaps (capacity never
/// shrinks). See the module docs.
#[derive(Debug)]
pub struct MovedRows {
    /// The interval after the move.
    interval: Interval,
    /// The id of the translation the rows were moved out of.
    from: u64,
    /// Per block of the interval: its reference count, its bounds, and
    /// where its references are held.
    blocks: Vec<(usize, Bounds, Held)>,
    num_refs: usize,
    /// The staged rows' CSR: row pointers into `refs`, from 0 — 32-bit,
    /// as the rows come from a `Graph`, whose references fit in `u32`.
    ptrs: Vec<u32>,
    refs: Vec<u32>,
    /// The references of the kept blocks that leave the interval, with
    /// their local rows, in CSR order.
    leaving: Vec<(u32, u32)>,
    /// Those of one block, before they are sorted into CSR order.
    found: Vec<(u16, u32, u32)>,
    /// The global id of every ghost slot of the translation moved out of.
    ghosts: Vec<u32>,
    /// One block's references, decoded before they are appended.
    block: Vec<u32>,
}

impl Default for MovedRows {
    fn default() -> Self {
        Self::new()
    }
}

impl MovedRows {
    /// Empty storage; it grows to what the moves need.
    pub fn new() -> Self {
        MovedRows {
            interval: Interval::EMPTY,
            from: 0,
            blocks: Vec::new(),
            num_refs: 0,
            ptrs: Vec::new(),
            refs: Vec::new(),
            leaving: Vec::new(),
            found: Vec::new(),
            ghosts: Vec::new(),
            block: Vec::new(),
        }
    }

    /// Starts moving rows out of `tadj`, the translation `schedule` made.
    ///
    /// # Panics
    /// Panics if the two cover different intervals.
    pub fn start(&mut self, schedule: &CommSchedule, tadj: &TranslatedAdjacency) {
        assert_eq!(
            tadj.interval(),
            schedule.interval(),
            "translation/schedule mismatch"
        );
        self.ghosts.clear();
        self.ghosts.extend(schedule.ghost_globals());
        self.from = tadj.id();
    }

    /// Appends local rows `rows` of `tadj` to `bytes` in a remap's wire
    /// form: their degrees ([`pack_degrees`]), then their references as
    /// global ids, row by row in CSR order, each a little-endian `u32`.
    ///
    /// # Panics
    /// Panics if `tadj` is not the translation [`MovedRows::start`] was
    /// given.
    pub fn pack(&mut self, tadj: &TranslatedAdjacency, rows: Range<usize>, bytes: &mut Vec<u8>) {
        self.check_from(tadj);
        let refs: usize = tadj.degrees(rows.clone()).sum();
        bytes.reserve(4 * (rows.len() + refs));
        pack_degrees(tadj.degrees(rows.clone()), bytes);
        tadj.decode_rows(&self.ghosts, rows, &mut self.block, |refs| {
            u32::pack_into(refs, bytes);
        });
    }

    /// Finishes the move onto `interval`: the rows of `tadj`'s interval
    /// this rank keeps, and the runs it `received` — ascending, each
    /// `(rows, packet)` with the packet in the wire form of
    /// [`MovedRows::pack`] — tile it. Blocks kept whole are left in the
    /// translation; every other block is staged.
    ///
    /// # Panics
    /// Panics if `tadj` is not the translation [`MovedRows::start`] was
    /// given, if the runs do not tile `interval` around the kept rows, or
    /// if a run's degrees do not add up to its references.
    pub fn finish<'a>(
        &mut self,
        tadj: &TranslatedAdjacency,
        interval: Interval,
        received: impl IntoIterator<Item = (Interval, &'a [u8])>,
    ) {
        self.check_from(tadj);
        let old = tadj.interval();
        let kept = old.intersect(&interval);
        let shared = shared_blocks(old, interval);
        let (old_first, new_first) = (old.start / ROWS, interval.start / ROWS);
        self.interval = interval;
        self.num_refs = 0;
        self.blocks.clear();
        self.ptrs.clear();
        self.ptrs.push(0);
        self.refs.clear();
        self.leaving.clear();
        let mut received = received.into_iter().filter(|(rows, _)| !rows.is_empty());
        // The run being read: its rows, its degrees' and its references'
        // bytes, and how many of its references were read.
        let mut run: Option<(Interval, &[u8], &[u8], usize)> = None;
        for b in 0..num_blocks(interval.start, interval.len()) {
            let rows = block_rows(interval.start, interval.len(), b);
            if shared.contains(&(new_first + b)) {
                let from = new_first + b - old_first;
                let bounds = tadj.bounds(from);
                let first = self.leaving.len();
                if !within(bounds, interval) {
                    let at = (&self.ghosts[..], from, interval);
                    tadj.leaving(at, rows.start, &mut self.found, &mut self.leaving);
                }
                let refs = tadj.block_slots(from).len();
                let held = Held::Kept(first..self.leaving.len());
                self.blocks.push((refs, bounds, held));
                self.num_refs += refs;
                continue;
            }
            let first = self.ptrs.len() - 1;
            let (mut g, end) = (interval.start + rows.start, interval.start + rows.end);
            while g < end {
                if kept.contains(g) {
                    let to = end.min(kept.end);
                    let rows = g - old.start..to - old.start;
                    let mut at = self.refs.len();
                    tadj.decode_rows(&self.ghosts, rows.clone(), &mut self.block, |refs| {
                        self.refs.extend_from_slice(refs);
                    });
                    self.ptrs.extend(tadj.degrees(rows).map(|d| {
                        at += d;
                        at as u32
                    }));
                    g = to;
                    continue;
                }
                let (rows, degrees, refs, read) = match run.take() {
                    Some(run) if run.0.contains(g) => run,
                    done => {
                        if let Some((_, _, refs, read)) = done {
                            assert_eq!(4 * read, refs.len(), "adjacency packet fully consumed");
                        }
                        let (rows, packet) =
                            received.next().expect("segments must cover the interval");
                        assert_eq!(rows.start, g, "segments must tile the interval");
                        let (degrees, refs) = packet
                            .split_at_checked(4 * rows.len())
                            .expect("one degree per moved row");
                        assert!(
                            rows.intersect(&kept).is_empty(),
                            "segments must tile the interval"
                        );
                        (rows, degrees, refs, 0)
                    }
                };
                let (to, staged) = (end.min(rows.end), self.refs.len());
                let mut at = read;
                let row_degrees = &degrees[4 * (g - rows.start)..4 * (to - rows.start)];
                self.ptrs.extend(read_words(row_degrees).map(|d| {
                    at += d as usize;
                    (staged + at - read) as u32
                }));
                let row_refs = refs
                    .get(4 * read..4 * at)
                    .expect("adjacency packet fully consumed");
                self.refs.extend(read_words(row_refs));
                run = Some((rows, degrees, refs, at));
                g = to;
            }
            let refs = &self.refs[self.ptrs[first] as usize..];
            self.blocks
                .push((refs.len(), scan(refs), Held::Staged(first)));
            self.num_refs += refs.len();
        }
        if let Some((_, _, refs, read)) = run {
            assert_eq!(4 * read, refs.len(), "adjacency packet fully consumed");
        }
        assert!(
            received.next().is_none(),
            "segments must cover the interval"
        );
    }

    fn check_from(&self, tadj: &TranslatedAdjacency) {
        assert_eq!(
            tadj.id(),
            self.from,
            "rows are moved out of the translation the move started from"
        );
    }
}

/// Appends rows' `degrees` to `bytes` in a remap's wire form, one
/// little-endian `u32` each, with the built-in [`Element::pack_into`]'s
/// pattern: fixed-width copies into a 4 KiB stack stage, appended whole.
// This and `read_words` are inlined into their callers: as an
// out-of-crate call, the same loop measured 3.5× slower.
#[inline]
pub fn pack_degrees(mut degrees: impl Iterator<Item = usize>, bytes: &mut Vec<u8>) {
    let mut stage = [0u8; 4096];
    loop {
        let mut staged = 0;
        for (chunk, d) in stage.chunks_exact_mut(4).zip(&mut degrees) {
            chunk.copy_from_slice(&(d as u32).to_le_bytes());
            staged += 4;
        }
        bytes.extend_from_slice(&stage[..staged]);
        if staged < stage.len() {
            return;
        }
    }
}

/// The little-endian `u32`s of part of a remap packet, read in place.
///
/// # Panics
/// Panics unless `bytes` is a whole number of words.
#[inline]
pub fn read_words(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    assert_eq!(bytes.len() % 4, 0, "a remap packet holds whole u32 words");
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().expect("4-byte chunk")))
}

impl Rows for MovedRows {
    fn interval(&self) -> Interval {
        self.interval
    }

    fn num_refs(&self) -> usize {
        self.num_refs
    }

    fn block(&self, block: usize) -> RowBlock<'_> {
        let (num_refs, bounds, ref held) = self.blocks[block];
        let rows = block_rows(self.interval.start, self.interval.len(), block);
        RowBlock {
            refs: match held {
                Held::Staged(first) => {
                    BlockRefs::Csr(&self.ptrs[*first..=first + rows.len()], &self.refs)
                }
                Held::Kept(leaving) => BlockRefs::Kept(&self.leaving[leaving.clone()]),
            },
            rows,
            bounds,
            num_refs,
        }
    }

    fn kept_from(&self) -> Option<(u64, &[u32])> {
        Some((self.from, &self.ghosts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_words_round_trip_and_ragged_ones_are_refused() {
        let mut bytes = Vec::new();
        pack_degrees([3usize, 0, 7].into_iter(), &mut bytes);
        u32::pack_into(&[9, u32::MAX], &mut bytes);
        assert_eq!(bytes.len(), 20);
        assert_eq!(
            read_words(&bytes).collect::<Vec<_>>(),
            [3, 0, 7, 9, u32::MAX]
        );
        let ragged = std::panic::catch_unwind(|| read_words(&bytes[..6]).count());
        assert!(ragged.is_err(), "6 bytes are not whole words");
    }
}
