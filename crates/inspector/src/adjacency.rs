//! Each processor's local view of the computational graph.
//!
//! After Phase A the graph is relabeled so vertex ids equal list positions;
//! each rank owns a contiguous interval. The inspector reads that rank's
//! rows — for every owned vertex, the *global* ids of its neighbors, which
//! it classifies as local or off-processor — through [`Rows`]: exactly the
//! indirection array `ia` of the paper's Fig. 8 loop, restricted to one
//! processor. Three things are rows:
//!
//! * [`MeshRows`] — the rank's window of the mesh's own CSR, read in place:
//!   what a session's set-up builds its schedule and translation from, so
//!   no rank copies its rows;
//! * [`MovedRows`](crate::MovedRows) — what a remap hands the inspector:
//!   the rows that moved, the kept rows of the blocks that must be looked
//!   at again, and nothing for the blocks the translation keeps;
//! * [`LocalAdjacency`] — an owned copy of one rank's rows, for tests,
//!   probes and custom pipelines.
//!
//! ## Blocks
//!
//! The inspector walks the rows in blocks of
//! [`TranslatedAdjacency::BLOCK_ROWS`] rows that sit at **global**
//! multiples of the block size, so a rank's first block may be short, as
//! may its last. Each block carries the smallest and largest global id its
//! rows reference, which makes "does this block leave the owned interval?"
//! one comparison instead of a scan. Because the blocks are global, a block
//! whose rows stay on their rank across a remap is the same block
//! afterwards, with the same bounds.

use std::ops::Range;

use stance_locality::Graph;
use stance_onedim::{BlockPartition, Interval};

use crate::schedule::TranslatedAdjacency;

const ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;

/// The `(smallest, largest)` global id a block's rows reference;
/// `(u32::MAX, 0)` for a block that references nothing.
pub(crate) type Bounds = (u32, u32);

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

/// The [`Bounds`] of a run of references.
#[inline]
pub(crate) fn scan(refs: &[u32]) -> Bounds {
    refs.iter()
        .fold((u32::MAX, 0), |(lo, hi), &g| (lo.min(g), hi.max(g)))
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

/// One block of a rank's rows, as the schedule builders and the
/// translation read it.
#[derive(Debug, Clone)]
pub struct RowBlock<'a> {
    /// The block's local rows.
    pub rows: Range<usize>,
    /// The smallest and largest global id the rows reference;
    /// `(u32::MAX, 0)` when they reference nothing.
    pub bounds: (u32, u32),
    /// How many references the rows make.
    pub num_refs: usize,
    /// Where its references are.
    pub refs: BlockRefs<'a>,
}

/// Where a [`RowBlock`]'s references are.
#[derive(Debug, Clone, Copy)]
pub enum BlockRefs<'a> {
    /// In a CSR: `rows.len() + 1` 32-bit row pointers into a reference
    /// store, row `rows.start + i` making `store[ptrs[i]..ptrs[i + 1]]`.
    Csr(&'a [u32], &'a [u32]),
    /// In the translation the rows were moved out of
    /// ([`Rows::kept_from`]), which keeps the block: a block whose rows
    /// all stayed, cut alike before and after the move. Listed here are
    /// only the references that leave the owned interval, each with its
    /// local row, in CSR order — none for an interior block.
    Kept(&'a [(u32, u32)]),
}

/// A rank's rows, block by block: what
/// [`build_schedule_symmetric`](crate::build_schedule_symmetric),
/// [`build_schedule_simple`](crate::build_schedule_simple) and
/// [`CommSchedule::translate_adjacency`](crate::CommSchedule::translate_adjacency)
/// read. Blocks sit at global multiples of
/// [`TranslatedAdjacency::BLOCK_ROWS`].
pub trait Rows {
    /// The owned global interval.
    fn interval(&self) -> Interval;

    /// Total number of references.
    fn num_refs(&self) -> usize;

    /// Block `block` (below [`Rows::num_blocks`]).
    fn block(&self, block: usize) -> RowBlock<'_>;

    /// Number of blocks.
    fn num_blocks(&self) -> usize {
        let iv = self.interval();
        num_blocks(iv.start, iv.len())
    }

    /// The translation whose blocks these rows keep in place, if any: the
    /// id of the [`TranslatedAdjacency`] the rows were moved out of, which
    /// must be the one a translation of them is written into, and the
    /// global id of each of its ghost slots.
    fn kept_from(&self) -> Option<(u64, &[u32])> {
        None
    }
}

/// Per block of `interval`, the [`Bounds`] of its rows' references —
/// `row_ptrs` (`len + 1` of them) indexing `refs`.
fn scan_bounds(interval: Interval, row_ptrs: &[u32], refs: &[u32]) -> Vec<Bounds> {
    (0..num_blocks(interval.start, interval.len()))
        .map(|b| {
            let rows = block_rows(interval.start, interval.len(), b);
            scan(&refs[row_ptrs[rows.start] as usize..row_ptrs[rows.end] as usize])
        })
        .collect()
}

/// Block `block` of a contiguous CSR over `interval`.
fn csr_block<'a>(
    interval: Interval,
    (row_ptrs, refs): (&'a [u32], &'a [u32]),
    bounds: &[Bounds],
    block: usize,
) -> RowBlock<'a> {
    let rows = block_rows(interval.start, interval.len(), block);
    let ptrs = &row_ptrs[rows.start..=rows.end];
    RowBlock {
        num_refs: (ptrs[ptrs.len() - 1] - ptrs[0]) as usize,
        bounds: bounds[block],
        refs: BlockRefs::Csr(ptrs, refs),
        rows,
    }
}

/// One rank's rows read in place from the (reordered) mesh: its window of
/// the graph's CSR and, per block, the bounds of its references — the one
/// thing set-up computes, in one pass over the window. Nothing is copied.
#[derive(Debug, Clone)]
pub struct MeshRows<'a> {
    interval: Interval,
    row_ptrs: &'a [u32],
    refs: &'a [u32],
    bounds: Vec<Bounds>,
}

impl<'a> MeshRows<'a> {
    /// Rank `rank`'s rows of `graph` under `partition`.
    ///
    /// # Panics
    /// Panics if the partition does not cover the graph's vertex set.
    pub fn new(graph: &'a Graph, partition: &BlockPartition, rank: usize) -> Self {
        assert_eq!(
            graph.num_vertices(),
            partition.n(),
            "partition covers {} elements but the graph has {} vertices",
            partition.n(),
            graph.num_vertices()
        );
        let interval = partition.interval_of(rank);
        // A rank's rows are contiguous in the graph's CSR.
        let (row_ptrs, refs) = graph.csr_window(interval.start..interval.end);
        MeshRows {
            interval,
            row_ptrs,
            refs,
            bounds: scan_bounds(interval, row_ptrs, refs),
        }
    }
}

impl Rows for MeshRows<'_> {
    fn interval(&self) -> Interval {
        self.interval
    }

    fn num_refs(&self) -> usize {
        (self.row_ptrs[self.interval.len()] - self.row_ptrs[0]) as usize
    }

    fn block(&self, block: usize) -> RowBlock<'_> {
        csr_block(
            self.interval,
            (self.row_ptrs, self.refs),
            &self.bounds,
            block,
        )
    }
}

/// One rank's slice of the (reordered) computational graph, copied out of
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalAdjacency {
    /// The global interval this rank owns.
    interval: Interval,
    /// Row pointers into `refs`, from 0: owned row `l` makes
    /// `refs[xadj[l]..xadj[l + 1]]`.
    xadj: Vec<u32>,
    /// Global neighbor ids.
    refs: Vec<u32>,
    /// Per block, the [`Bounds`] of its references.
    bounds: Vec<Bounds>,
}

impl LocalAdjacency {
    /// Extracts rank `rank`'s slice from the reordered graph.
    ///
    /// # Panics
    /// Panics if the partition does not cover the graph's vertex set.
    pub fn extract(graph: &Graph, partition: &BlockPartition, rank: usize) -> Self {
        let MeshRows {
            interval,
            row_ptrs,
            refs,
            bounds,
        } = MeshRows::new(graph, partition, rank);
        // One copy of the window's references, and its row pointers
        // rebased to zero.
        let base = row_ptrs[0];
        LocalAdjacency {
            interval,
            xadj: row_ptrs.iter().map(|&x| x - base).collect(),
            refs: refs[base as usize..row_ptrs[interval.len()] as usize].to_vec(),
            bounds,
        }
    }

    /// Builds directly from parts (for tests and custom pipelines): `xadj`
    /// holds 32-bit row pointers from zero, so `refs` holds at most
    /// `u32::MAX` references.
    ///
    /// # Panics
    /// Panics if the CSR shape is inconsistent.
    pub fn from_parts(interval: Interval, xadj: Vec<u32>, refs: Vec<u32>) -> Self {
        assert_eq!(xadj.len(), interval.len() + 1, "xadj length mismatch");
        assert_eq!(*xadj.first().expect("nonempty xadj"), 0);
        assert_eq!(*xadj.last().expect("nonempty xadj") as usize, refs.len());
        assert!(
            xadj.windows(2).all(|w| w[0] <= w[1]),
            "xadj must be monotone"
        );
        let bounds = scan_bounds(interval, &xadj, &refs);
        LocalAdjacency {
            interval,
            xadj,
            refs,
            bounds,
        }
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

    /// Global neighbor ids of the `local`-th owned vertex.
    #[inline]
    pub fn neighbors_of(&self, local: usize) -> &[u32] {
        self.refs_in(local, local + 1)
    }

    /// Degree of the `local`-th owned vertex.
    #[inline]
    pub fn degree_of(&self, local: usize) -> usize {
        (self.xadj[local + 1] - self.xadj[local]) as usize
    }

    /// Total number of references (2 × local edges + cut edges).
    #[inline]
    pub fn num_refs(&self) -> usize {
        self.refs.len()
    }

    /// All references of the contiguous local-vertex range `lo..hi`, as one
    /// slice (rows are CSR-adjacent, so a whole range of rows bulk-copies
    /// with a single `extend_from_slice` instead of one call per row).
    #[inline]
    pub fn refs_in(&self, lo: usize, hi: usize) -> &[u32] {
        &self.refs[self.xadj[lo] as usize..self.xadj[hi] as usize]
    }

    /// Walks the rows block by block, yielding each block's local-vertex
    /// range and the [`Bounds`] of its references.
    #[cfg(test)]
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (Range<usize>, Bounds)> + '_ {
        (0..Rows::num_blocks(self)).map(|b| {
            let block = self.block(b);
            (block.rows, block.bounds)
        })
    }

    /// Dismantles the structure into its `(interval, xadj, refs)` CSR,
    /// 32-bit row pointers from zero (so at most `u32::MAX` references) —
    /// the inverse of [`LocalAdjacency::from_parts`].
    pub fn into_parts(self) -> (Interval, Vec<u32>, Vec<u32>) {
        (self.interval, self.xadj, self.refs)
    }
}

impl Rows for LocalAdjacency {
    fn interval(&self) -> Interval {
        self.interval
    }

    fn num_refs(&self) -> usize {
        self.refs.len()
    }

    fn block(&self, block: usize) -> RowBlock<'_> {
        csr_block(self.interval, (&self.xadj, &self.refs), &self.bounds, block)
    }
}

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

    /// The mesh's rows read in place are block for block the extracted
    /// copy's: same rows, bounds, reference counts and references.
    #[test]
    fn mesh_rows_are_the_extracted_rows() {
        let g = path_graph(3000);
        let part = BlockPartition::from_sizes(&[1000, 1100, 0, 900]);
        for rank in 0..4 {
            let (mesh, adj) = (
                MeshRows::new(&g, &part, rank),
                LocalAdjacency::extract(&g, &part, rank),
            );
            assert_eq!(
                (mesh.interval(), mesh.num_refs(), Rows::num_blocks(&mesh)),
                (adj.interval(), adj.num_refs(), Rows::num_blocks(&adj))
            );
            for b in 0..Rows::num_blocks(&mesh) {
                let (m, a) = (mesh.block(b), adj.block(b));
                assert_eq!(
                    (&m.rows, m.bounds, m.num_refs),
                    (&a.rows, a.bounds, a.num_refs)
                );
                let (BlockRefs::Csr(mp, ms), BlockRefs::Csr(ap, as_)) = (m.refs, a.refs) else {
                    panic!("block {b} is not a CSR");
                };
                let (m_end, a_end) = (mp[mp.len() - 1] as usize, ap[ap.len() - 1] as usize);
                assert_eq!(&ms[mp[0] as usize..m_end], &as_[ap[0] as usize..a_end]);
            }
        }
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
}
