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
//!   receive segment names; it travels as `[deg(v)…] ++ [refs…]`, the
//!   remap's wire format;
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
    /// The staged rows' CSR: row pointers into `refs`, from 0.
    ptrs: Vec<usize>,
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

    /// Appends local rows `rows` of `tadj` to `words` in a remap's wire
    /// form: their degrees, then their references as global ids, row by
    /// row in CSR order.
    ///
    /// # Panics
    /// Panics if `tadj` is not the translation [`MovedRows::start`] was
    /// given.
    pub fn pack(&mut self, tadj: &TranslatedAdjacency, rows: Range<usize>, words: &mut Vec<u32>) {
        self.check_from(tadj);
        words.reserve(rows.len() + tadj.num_refs_of(rows.clone()));
        words.extend(rows.clone().map(|l| tadj.degree_of(l) as u32));
        tadj.decode_rows(&self.ghosts, rows, &mut self.block, words);
    }

    /// Finishes the move onto `interval`: the rows of `tadj`'s interval
    /// this rank keeps, and the runs it `received` — ascending, each
    /// `(rows, degrees, references)` in the wire form of
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
        received: impl IntoIterator<Item = (Interval, &'a [u32], &'a [u32])>,
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
        let mut received = received.into_iter().filter(|(rows, ..)| !rows.is_empty());
        // The run being read: its rows, degrees and references, and how
        // many of its references were read.
        let mut run: Option<(Interval, &[u32], &[u32], usize)> = None;
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
                    tadj.decode_rows(&self.ghosts, rows.clone(), &mut self.block, &mut self.refs);
                    self.ptrs.extend(rows.map(|l| {
                        at += tadj.degree_of(l);
                        at
                    }));
                    g = to;
                    continue;
                }
                let (rows, degrees, refs, read) = match run.take() {
                    Some(run) if run.0.contains(g) => run,
                    done => {
                        if let Some((_, _, refs, read)) = done {
                            assert_eq!(read, refs.len(), "adjacency packet fully consumed");
                        }
                        let (rows, degrees, refs) =
                            received.next().expect("segments must cover the interval");
                        assert_eq!(rows.start, g, "segments must tile the interval");
                        assert_eq!(degrees.len(), rows.len(), "one degree per moved row");
                        assert!(
                            rows.intersect(&kept).is_empty(),
                            "segments must tile the interval"
                        );
                        (rows, degrees, refs, 0)
                    }
                };
                let (to, staged) = (end.min(rows.end), self.refs.len());
                let mut at = read;
                self.ptrs
                    .extend(degrees[g - rows.start..to - rows.start].iter().map(|&d| {
                        at += d as usize;
                        staged + at - read
                    }));
                let row_refs = refs.get(read..at).expect("adjacency packet fully consumed");
                self.refs.extend_from_slice(row_refs);
                run = Some((rows, degrees, refs, at));
                g = to;
            }
            let refs = &self.refs[self.ptrs[first]..];
            self.blocks
                .push((refs.len(), scan(refs), Held::Staged(first)));
            self.num_refs += refs.len();
        }
        if let Some((_, _, refs, read)) = run {
            assert_eq!(read, refs.len(), "adjacency packet fully consumed");
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
