//! Each processor's local view of the computational graph.
//!
//! After Phase A the graph is relabeled so vertex ids equal list positions;
//! each rank owns a contiguous interval. [`LocalAdjacency`] is that rank's
//! slice of the CSR structure: for every owned vertex, the *global* ids of
//! its neighbors (which the inspector will classify as local or
//! off-processor). This is exactly the indirection array `ia` of the
//! paper's Fig. 8 loop, restricted to one processor.
//!
//! ## Blocks, and what a remap leaves in place
//!
//! The inspector walks an adjacency in blocks of
//! [`TranslatedAdjacency::BLOCK_ROWS`] rows that sit at **global**
//! multiples of the block size, so a rank's first block may be short, as
//! may its last. Each block carries the smallest and largest global id its
//! rows reference, which makes "does this block leave the owned interval?"
//! one comparison instead of a scan. Because the blocks are global, a block
//! whose rows stay on their rank across a remap is the same block
//! afterwards, with the same bounds.
//!
//! The CSR keeps slack at both ends, so that a remap need not copy what
//! stays. Its adjacency move ([`LocalAdjacency::rehome`]) leaves the rows a
//! rank keeps where they are: rows sent away are dropped by moving the ends, received
//! rows are written into the slack before or after the kept ones, and only
//! the blocks the received rows touch are scanned for their bounds. A rank
//! pays for what moved, not for what it owns.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use stance_locality::Graph;
use stance_onedim::{BlockPartition, Interval};

use crate::schedule::TranslatedAdjacency;

const ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;

/// The `(smallest, largest)` global id a block's rows reference;
/// `(u32::MAX, 0)` for a block that references nothing.
pub(crate) type Bounds = (u32, u32);

/// One rank's slice of the (reordered) computational graph.
///
/// Equality compares what the adjacency says — interval, rows and their
/// references — not where its storage keeps them.
#[derive(Debug, Clone)]
pub struct LocalAdjacency {
    /// The global interval this rank owns.
    interval: Interval,
    /// Row pointers into `refs`: owned row `l` makes
    /// `refs[xadj[row0 + l]..xadj[row0 + l + 1]]`. Entries before `row0`
    /// and after `row0 + len` are slack a remap can write rows into.
    xadj: Vec<usize>,
    row0: usize,
    /// Global neighbor ids, with slack on both sides of the owned rows'.
    refs: Vec<u32>,
    /// Per block, the [`Bounds`] of its references.
    bounds: Vec<Bounds>,
    /// Names these rows: fresh for every extraction, construction and
    /// move, so a translation can tell whose rows it holds.
    id: u64,
    /// The `id` of the adjacency that [`LocalAdjacency::rehome`] turned into
    /// this one: the rows both own are the same rows.
    moved_from: Option<u64>,
}

/// Hands out adjacency ids; 0 is never one, so it can stand for "none".
fn fresh_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The local rows of block `block` of the interval of `len` rows from
/// global row `start`: blocks sit at global multiples of the block size,
/// so the first and the last may be short.
#[inline]
pub(crate) fn block_rows(start: usize, len: usize, block: usize) -> Range<usize> {
    let skip = start % ROWS;
    (block * ROWS).saturating_sub(skip)..len.min((block + 1) * ROWS - skip)
}

/// How many blocks cover the interval of `len` rows from global row
/// `start`.
pub(crate) fn num_blocks(start: usize, len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (start % ROWS + len).div_ceil(ROWS)
    }
}

/// The global blocks that hold the same rows in `old` as in `new` — every
/// whole block of their intersection, and a short block at either end of
/// it only where both intervals cut that block at the same row.
pub(crate) fn shared_blocks(old: Interval, new: Interval) -> Range<usize> {
    let kept = old.intersect(&new);
    if kept.is_empty() {
        return 0..0;
    }
    let rows = |iv: Interval, k: usize| (iv.start.max(k * ROWS), iv.end.min((k + 1) * ROWS));
    let same = |k: usize| rows(old, k) == rows(new, k);
    let (mut first, mut end) = (kept.start / ROWS, (kept.end - 1) / ROWS + 1);
    if !same(first) {
        first += 1;
    }
    if end > first && !same(end - 1) {
        end -= 1;
    }
    first..end.max(first)
}

/// Whether every reference a block with `bounds` makes lies in `iv`.
#[inline]
pub(crate) fn within(bounds: Bounds, iv: Interval) -> bool {
    let (lo, hi) = bounds;
    lo > hi || (iv.start <= lo as usize && (hi as usize) < iv.end)
}

/// Moves `v[from]` to start at `to`, passing every entry through `f` on
/// the way, then makes `v` `len` long. One pass over memory — a
/// `copy_within` and a map at once — through a small buffer, chunk by
/// chunk from the end the run moves towards, so the runs may overlap.
/// Entries outside the moved run are stale: the caller overwrites them.
pub(crate) fn move_within<T: Copy + Default>(
    v: &mut Vec<T>,
    from: Range<usize>,
    to: usize,
    len: usize,
    f: impl Fn(T) -> T,
) {
    const CHUNK: usize = 1024;
    let end = from.end.max(to + from.len());
    if v.len() < end {
        v.resize(end, T::default());
    }
    let mut buf = [T::default(); CHUNK];
    let mut chunk = |at: usize| {
        let n = CHUNK.min(from.len() - at);
        for (b, &x) in buf.iter_mut().zip(&v[from.start + at..from.start + at + n]) {
            *b = f(x);
        }
        v[to + at..to + at + n].copy_from_slice(&buf[..n]);
    };
    if to <= from.start {
        (0..from.len()).step_by(CHUNK).for_each(&mut chunk);
    } else {
        (0..from.len()).step_by(CHUNK).rev().for_each(&mut chunk);
    }
    v.resize(len, T::default());
}

/// Makes room for `head` entries before `store[at..at + len]` and `tail`
/// after it: moves the run right as far as the front is short, and returns
/// that shift. A store short of capacity is replaced by one of exactly the
/// size needed, the run copied into place once.
fn make_room<T: Copy + Default>(
    store: &mut Vec<T>,
    at: usize,
    len: usize,
    head: usize,
    tail: usize,
) -> usize {
    let shift = head.saturating_sub(at);
    let need = at + shift + len + tail;
    if store.capacity() < need {
        let mut grown = Vec::with_capacity(need);
        grown.resize(at + shift, T::default());
        grown.extend_from_slice(&store[at..at + len]);
        grown.resize(need, T::default());
        *store = grown;
        return shift;
    }
    if store.len() < need {
        store.resize(need, T::default());
    }
    if shift > 0 {
        store.copy_within(at..at + len, at + shift);
    }
    shift
}

impl LocalAdjacency {
    /// Extracts rank `rank`'s slice from the reordered graph.
    ///
    /// # Panics
    /// Panics if the partition does not cover the graph's vertex set.
    pub fn extract(graph: &Graph, partition: &BlockPartition, rank: usize) -> Self {
        assert_eq!(
            graph.num_vertices(),
            partition.n(),
            "partition covers {} elements but the graph has {} vertices",
            partition.n(),
            graph.num_vertices()
        );
        let interval = partition.interval_of(rank);
        // A rank's rows are contiguous in the graph's CSR as well: one copy
        // of the window's references, and its row pointers rebased to zero.
        let (rows, adjncy) = graph.csr_window(interval.start..interval.end);
        let base = rows[0];
        Self::tight(
            interval,
            rows.iter().map(|&x| x - base).collect(),
            adjncy[base..rows[interval.len()]].to_vec(),
        )
    }

    /// Builds directly from parts (for tests and custom pipelines).
    ///
    /// # Panics
    /// Panics if the CSR shape is inconsistent.
    pub fn from_parts(interval: Interval, xadj: Vec<usize>, refs: Vec<u32>) -> Self {
        assert_eq!(xadj.len(), interval.len() + 1, "xadj length mismatch");
        assert_eq!(*xadj.first().expect("nonempty xadj"), 0);
        assert_eq!(*xadj.last().expect("nonempty xadj"), refs.len());
        assert!(
            xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj must be monotone"
        );
        Self::tight(interval, xadj, refs)
    }

    /// A slack-free adjacency over a CSR rebased to zero, with every
    /// block's bounds scanned.
    fn tight(interval: Interval, xadj: Vec<usize>, refs: Vec<u32>) -> Self {
        let mut adj = LocalAdjacency {
            interval,
            xadj,
            row0: 0,
            refs,
            bounds: Vec::new(),
            id: fresh_id(),
            moved_from: None,
        };
        adj.bounds = (0..num_blocks(interval.start, interval.len()))
            .map(|b| adj.scan_bounds(b))
            .collect();
        adj
    }

    /// The owned global interval.
    #[inline]
    pub fn interval(&self) -> Interval {
        self.interval
    }

    /// Number of owned vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.interval.len()
    }

    /// Whether this rank owns no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.interval.is_empty()
    }

    /// The owned rows' pointers into the reference storage, `len + 1` of
    /// them.
    #[inline]
    fn row_ptrs(&self) -> &[usize] {
        &self.xadj[self.row0..=self.row0 + self.len()]
    }

    /// Global neighbor ids of the `local`-th owned vertex.
    #[inline]
    pub fn neighbors_of(&self, local: usize) -> &[u32] {
        self.refs_in(local, local + 1)
    }

    /// Degree of the `local`-th owned vertex.
    #[inline]
    pub fn degree_of(&self, local: usize) -> usize {
        self.xadj[self.row0 + local + 1] - self.xadj[self.row0 + local]
    }

    /// All global references in CSR order (the raw indirection array).
    #[inline]
    pub fn refs(&self) -> &[u32] {
        self.refs_in(0, self.len())
    }

    /// Total number of references (2 × local edges + cut edges).
    #[inline]
    pub fn num_refs(&self) -> usize {
        let rows = self.row_ptrs();
        rows[rows.len() - 1] - rows[0]
    }

    /// All references of the contiguous local-vertex range `lo..hi`, as one
    /// slice (rows are CSR-adjacent, so a whole range of rows bulk-copies
    /// with a single `extend_from_slice` instead of one call per row).
    #[inline]
    pub fn refs_in(&self, lo: usize, hi: usize) -> &[u32] {
        &self.refs[self.xadj[self.row0 + lo]..self.xadj[self.row0 + hi]]
    }

    /// The raw CSR window backing local vertices `range`: the row pointers
    /// of `range.start..=range.end` (so `window.0[i + 1] - window.0[i]` is
    /// the degree of local vertex `range.start + i`) together with the
    /// reference storage they index into — what a bulk consumer (the
    /// remap's adjacency move, a chunked inspector pass) wants instead of
    /// one [`LocalAdjacency::neighbors_of`] call per row. The pointers are
    /// positions in that storage, which need not start at the first owned
    /// row's references.
    #[inline]
    pub fn csr_window(&self, range: Range<usize>) -> (&[usize], &[u32]) {
        (
            &self.xadj[self.row0 + range.start..=self.row0 + range.end],
            &self.refs,
        )
    }

    /// Walks the rows block by block, yielding each block's local-vertex
    /// range and the [`Bounds`] of its references — the unit the
    /// inspector's passes decide "interior or not" on.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (Range<usize>, Bounds)> + '_ {
        let (start, len) = (self.interval.start, self.len());
        let rows = move |b| block_rows(start, len, b);
        self.bounds
            .iter()
            .enumerate()
            .map(move |(b, &bounds)| (rows(b), bounds))
    }

    /// This adjacency's id (see the field).
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// The id of the adjacency a move made this one from, if any.
    pub(crate) fn moved_from(&self) -> Option<u64> {
        self.moved_from
    }

    /// The bounds of block `block`'s references, scanned.
    fn scan_bounds(&self, block: usize) -> Bounds {
        let rows = block_rows(self.interval.start, self.len(), block);
        self.refs_in(rows.start, rows.end)
            .iter()
            .fold((u32::MAX, 0), |(lo, hi), &g| (lo.min(g), hi.max(g)))
    }

    /// Re-homes the adjacency onto `interval` after a remap, in place. The
    /// rows of `interval` this rank already owned stay where they are; the
    /// rows it no longer owns are dropped; and `moved` supplies every other
    /// row of `interval` — runs of consecutive rows, ascending, each as
    /// `(rows, degrees, references)` — which are written into the slack
    /// before and after the kept rows (the storage grows only when a side
    /// is short). Blocks whose rows were kept whole keep their bounds; the
    /// others are scanned. The cost is the moved rows plus the boundary
    /// blocks, whatever the size of the kept run.
    ///
    /// # Panics
    /// Panics if the runs do not tile `interval` around the kept rows, or if
    /// a run's degrees do not add up to its references.
    pub fn rehome<'a, I>(&mut self, interval: Interval, moved: I)
    where
        I: Iterator<Item = (Interval, &'a [u32], &'a [u32])> + Clone,
    {
        let old = self.interval;
        let kept = old.intersect(&interval);
        // Hard asserts (one pass over the runs, not their rows): a
        // plan/partition mismatch must not silently assemble a wrong CSR.
        let (mut head, mut tail) = ((0, 0), (0, 0));
        let mut expected = interval.start;
        for (rows, degrees, refs) in moved.clone() {
            if !kept.is_empty() && expected == kept.start {
                expected = kept.end;
            }
            assert_eq!(rows.start, expected, "segments must tile the interval");
            assert_eq!(degrees.len(), rows.len(), "one degree per moved row");
            let side = if rows.end <= kept.start {
                &mut head
            } else {
                &mut tail
            };
            *side = (side.0 + rows.len(), side.1 + refs.len());
            expected = rows.end;
        }
        if !kept.is_empty() && expected == kept.start {
            expected = kept.end;
        }
        assert_eq!(expected, interval.end, "segments must cover the interval");

        // Drop what left by moving the ends; an empty kept run restarts
        // the storage from its front.
        if kept.is_empty() {
            self.row0 = 0;
            self.xadj[0] = 0;
        } else {
            self.row0 += kept.start - old.start;
        }
        let len = kept.len();
        self.row0 += make_room(&mut self.xadj, self.row0, len + 1, head.0, tail.0);
        let (first, last) = (self.xadj[self.row0], self.xadj[self.row0 + len]);
        let shift = make_room(&mut self.refs, first, last - first, head.1, tail.1);
        if shift > 0 {
            for x in &mut self.xadj[self.row0..=self.row0 + len] {
                *x += shift;
            }
        }

        // Write the runs: the head ends exactly where the kept rows begin.
        let mut at = self.row0 - head.0;
        self.xadj[at] = self.xadj[self.row0] - head.1;
        for (rows, degrees, refs) in moved {
            if rows.start == kept.end && !kept.is_empty() {
                assert_eq!(at, self.row0, "head runs end at the kept rows");
                at = self.row0 + len;
            }
            at = self.write_rows(at, degrees, refs);
        }
        self.row0 -= head.0;

        // Bounds: kept whole blocks keep theirs, the rest are scanned.
        let shared = shared_blocks(old, interval);
        let (old_first, new_first) = (old.start / ROWS, interval.start / ROWS);
        let blocks = num_blocks(interval.start, interval.len());
        let from = shared.start.saturating_sub(old_first)..shared.end.saturating_sub(old_first);
        let to = shared.start.saturating_sub(new_first);
        move_within(&mut self.bounds, from, to, blocks, |b| b);
        self.interval = interval;
        for b in 0..blocks {
            if !shared.contains(&(new_first + b)) {
                self.bounds[b] = self.scan_bounds(b);
            }
        }
        self.moved_from = Some(self.id);
        self.id = fresh_id();
    }

    /// Writes a run of rows from row slot `at` on (whose pointer is
    /// already set): their pointers from `degrees`, their references after
    /// the pointer at `at`. Returns the slot after the run.
    fn write_rows(&mut self, at: usize, degrees: &[u32], refs: &[u32]) -> usize {
        let first = self.xadj[at];
        let mut end = first;
        for (x, &d) in self.xadj[at + 1..=at + degrees.len()]
            .iter_mut()
            .zip(degrees)
        {
            end += d as usize;
            *x = end;
        }
        assert_eq!(end - first, refs.len(), "adjacency packet fully consumed");
        self.refs[first..end].copy_from_slice(refs);
        at + degrees.len()
    }

    /// Dismantles the structure into a slack-free `(interval, xadj, refs)`
    /// CSR, row pointers rebased to zero — the inverse of
    /// [`LocalAdjacency::from_parts`].
    pub fn into_parts(self) -> (Interval, Vec<usize>, Vec<u32>) {
        let base = self.row_ptrs()[0];
        let xadj = self.row_ptrs().iter().map(|&x| x - base).collect();
        (self.interval, xadj, self.refs().to_vec())
    }
}

impl PartialEq for LocalAdjacency {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.row_ptrs(), other.row_ptrs());
        self.interval == other.interval
            && self.refs() == other.refs()
            && self.bounds == other.bounds
            && a.iter().zip(b).all(|(&x, &y)| x - a[0] == y - b[0])
    }
}

impl Eq for LocalAdjacency {}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
        Graph::from_edges(n, &edges, coords, 2)
    }

    #[test]
    fn extract_middle_rank() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        assert_eq!(adj.interval(), Interval::new(3, 6));
        assert_eq!(adj.len(), 3);
        // Vertex 3's neighbors: 2 (off-proc) and 4 (local).
        assert_eq!(adj.neighbors_of(0), &[2, 4]);
        assert_eq!(adj.neighbors_of(2), &[4, 6]);
        assert_eq!(adj.degree_of(1), 2);
        assert_eq!(adj.num_refs(), 6);
    }

    #[test]
    fn extract_edge_ranks() {
        let g = path_graph(9);
        let part = BlockPartition::uniform(9, 3);
        let first = LocalAdjacency::extract(&g, &part, 0);
        assert_eq!(first.neighbors_of(0), &[1]);
        let last = LocalAdjacency::extract(&g, &part, 2);
        assert_eq!(last.neighbors_of(2), &[7]);
    }

    #[test]
    fn empty_rank_slice() {
        let g = path_graph(4);
        let part = BlockPartition::from_sizes(&[4, 0]);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        assert!(adj.is_empty());
        assert_eq!(adj.num_refs(), 0);
    }

    #[test]
    fn from_parts_validation() {
        let adj = LocalAdjacency::from_parts(Interval::new(5, 7), vec![0, 2, 3], vec![1, 6, 5]);
        assert_eq!(adj.neighbors_of(0), &[1, 6]);
        assert_eq!(adj.neighbors_of(1), &[5]);
    }

    #[test]
    #[should_panic(expected = "xadj length mismatch")]
    fn from_parts_rejects_bad_shape() {
        let _ = LocalAdjacency::from_parts(Interval::new(0, 3), vec![0, 1], vec![1]);
    }

    /// Blocks sit at global multiples of the block size: an interval from
    /// row 1000 opens with a 24-row block, and a block's bounds are its
    /// rows' extreme references.
    #[test]
    fn blocks_are_global() {
        let g = path_graph(3000);
        let part = BlockPartition::from_sizes(&[1000, 1100, 900]);
        let adj = LocalAdjacency::extract(&g, &part, 1);
        let blocks: Vec<_> = adj.blocks().collect();
        assert_eq!(
            blocks,
            [
                (0..24, (999, 1024)),
                (24..536, (1023, 1536)),
                (536..1048, (1535, 2048)),
                (1048..1100, (2047, 2100)),
            ]
        );
        assert!(!within(blocks[0].1, adj.interval()));
        assert!(within(blocks[1].1, adj.interval()));
        assert!(within((u32::MAX, 0), Interval::EMPTY), "no references");
    }

    /// The rows a block holds in both intervals: whole blocks of the
    /// intersection, and a short end block only where both cut it alike.
    #[test]
    fn shared_blocks_of_two_intervals() {
        let iv = Interval::new;
        assert_eq!(shared_blocks(iv(0, 2000), iv(0, 1100)), 0..2);
        assert_eq!(shared_blocks(iv(100, 2000), iv(100, 1600)), 0..3);
        assert_eq!(shared_blocks(iv(100, 2000), iv(0, 1600)), 1..3);
        assert!(shared_blocks(iv(600, 1500), iv(700, 1000)).is_empty());
        assert!(shared_blocks(iv(0, 512), iv(512, 1024)).is_empty());
        assert_eq!(shared_blocks(iv(1000, 1030), iv(1000, 1030)), 1..3);
    }

    /// A move keeps the rows both intervals own where they were, writes
    /// the rest around them, and leaves an adjacency equal to a fresh
    /// extraction, bounds included, whichever way the interval moved.
    #[test]
    fn rehome_equals_extraction() {
        let g = path_graph(4000);
        let take = |iv: Interval| {
            let part = BlockPartition::from_sizes(&[iv.start, iv.len(), 4000 - iv.end]);
            LocalAdjacency::extract(&g, &part, 1)
        };
        let mut adj = take(Interval::new(1000, 2000));
        let chain = [
            (1500, 2000),
            (700, 2000),
            (700, 3500),
            (3000, 3999),
            (10, 20),
        ];
        for (start, end) in chain {
            let new = Interval::new(start, end);
            let kept = adj.interval().intersect(&new);
            let runs: Vec<LocalAdjacency> = [(new.start, kept.start), (kept.end, new.end)]
                .into_iter()
                .filter(|_| !kept.is_empty())
                .chain(kept.is_empty().then_some((new.start, new.end)))
                .filter(|(a, b)| a < b)
                .map(|(a, b)| take(Interval::new(a, b)))
                .collect();
            let degrees: Vec<Vec<u32>> = runs
                .iter()
                .map(|r| (0..r.len()).map(|l| r.degree_of(l) as u32).collect())
                .collect();
            let before = adj.id();
            adj.rehome(
                new,
                runs.iter()
                    .zip(&degrees)
                    .map(|(r, d)| (r.interval(), &d[..], r.refs())),
            );
            assert_eq!(adj, take(new), "{new}");
            assert_eq!(adj.moved_from(), Some(before));
        }
    }
}
