//! The tests that hold [`build_schedule_symmetric_with`] and
//! [`CommSchedule::translate_adjacency_into`] to the per-reference oracles
//! of [`super::reference`] field for field — schedule,
//! [`TranslatedAdjacency`] (the degree index and the visit-order slot
//! layout included) and [`InspectorWork`], under both sort strategies —
//! on fresh adjacencies and along remap chains, where kept blocks are
//! rebased instead of translated.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use stance_locality::rcb::rcb_ordering;
use stance_locality::{meshgen, Graph};
use stance_onedim::Arrangement;

use super::reference::{slot_of, symmetric_oracle, translate_oracle};
use super::*;
use crate::moved::pack_degrees;
use crate::MovedRows;

const BLOCK_ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;

/// What every reader of a translation relies on, whatever the storage
/// order: `neighbors_of(l)` is row `l`'s references translated one by one,
/// in CSR order, `degree_of(l)` the adjacency's degree — and what the sweep
/// relies on: a block's slots are its rows' `neighbors_of`, concatenated in
/// the order its degree index visits them.
fn assert_rows_read_back(
    schedule: &CommSchedule,
    adj: &LocalAdjacency,
    tadj: &TranslatedAdjacency,
) {
    assert_eq!(tadj.len(), adj.len());
    for l in 0..adj.len() {
        let row = adj.neighbors_of(l).iter();
        let expected: Vec<u32> = row.map(|&g| slot_of(schedule, g)).collect();
        assert_eq!(tadj.neighbors_of(l), expected, "row {l}");
        assert_eq!(tadj.degree_of(l), adj.degree_of(l), "degree of row {l}");
    }
    for block in 0..tadj.num_blocks() {
        let (order, _) = tadj.degree_classes(block);
        let first = tadj.block_rows(block).start;
        let stream: Vec<u32> = order
            .iter()
            .flat_map(|&i| tadj.neighbors_of(first + i as usize))
            .copied()
            .collect();
        assert_eq!(tadj.block_slots(block), stream, "stream of block {block}");
    }
    assert_runs_split_at_ghosts(tadj);
}

/// What the executor's early sweep relies on, by brute force: every block
/// whose slots all lie below `local_len` is in an interior run and every
/// other block in a boundary run; the two lists tile `0..len`, each run
/// ascending, maximal, and cut only where a block starts.
fn assert_runs_split_at_ghosts(tadj: &TranslatedAdjacency) {
    let cut = |l: usize| l == tadj.len() || tadj.block_rows(tadj.block_of(l)).start == l;
    let mut filed = vec![None; tadj.len()];
    for (interior, runs) in [(true, tadj.interior_runs()), (false, tadj.boundary_runs())] {
        for (k, run) in runs.iter().enumerate() {
            assert!(run.start < run.end, "empty run {run:?}");
            assert!(cut(run.start) && cut(run.end), "run {run:?} cuts a block");
            if k > 0 {
                assert!(runs[k - 1].end < run.start, "runs {runs:?} not maximal");
            }
            for l in run.clone() {
                assert_eq!(filed[l].replace(interior), None, "row {l} filed twice");
            }
        }
    }
    for block in 0..tadj.num_blocks() {
        let ghost_free = tadj
            .block_slots(block)
            .iter()
            .all(|&s| s < tadj.local_len());
        for l in tadj.block_rows(block) {
            assert_eq!(filed[l], Some(ghost_free), "row {l} of block {block}");
        }
    }
}

/// What a previous translation of another size leaves behind for
/// `translate_adjacency_into`: `tadj` with every vector cut to half its
/// length, or followed by more than a block of stale entries.
fn stale_storage(tadj: &TranslatedAdjacency, larger: bool) -> TranslatedAdjacency {
    fn resize<T: Clone>(v: &mut Vec<T>, larger: bool, stale: T) {
        let len = if larger {
            2 * v.len() + 700
        } else {
            v.len() / 2
        };
        v.resize(len, stale);
    }
    let mut out = tadj.clone();
    resize(&mut out.slots, larger, 7);
    resize(&mut out.block_start, larger, 7);
    resize(&mut out.order, larger, 7);
    resize(&mut out.visit, larger, 7);
    resize(&mut out.degree, larger, 7);
    resize(&mut out.wide, larger, (7, 9));
    resize(&mut out.class_rows, larger, [7; 10]);
    resize(&mut out.class_skew, larger, [7; 8]);
    resize(&mut out.bounds, larger, (7, 9));
    resize(&mut out.interior, larger, 7..9);
    resize(&mut out.boundary, larger, 7..9);
    out
}

/// Holds the shipped builder and translation to their oracles on one
/// rank's adjacency, fresh and through a reused scratch / a translation
/// recycled from a larger and from a smaller one — and the translation to
/// its readers' contract, oracle or no oracle ([`assert_rows_read_back`]).
/// Returns the translation so callers can assert on its shape.
fn assert_matches_oracles(
    partition: &BlockPartition,
    adj: &LocalAdjacency,
    rank: usize,
) -> TranslatedAdjacency {
    let mut scratch = ScheduleScratch::new();
    let mut recycled = None;
    for strategy in [ScheduleStrategy::Sort1, ScheduleStrategy::Sort2] {
        let (expected, expected_work) = symmetric_oracle(partition, adj, rank, strategy);
        let (fresh, fresh_work) = build_schedule_symmetric(partition, adj, rank, strategy);
        assert_eq!(fresh, expected, "rank {rank} {strategy:?}: schedule");
        assert_eq!(fresh_work, expected_work, "rank {rank} {strategy:?}: work");
        let (reused, reused_work) =
            build_schedule_symmetric_with(partition, adj, rank, strategy, &mut scratch);
        assert_eq!(
            reused, expected,
            "rank {rank} {strategy:?}: reused schedule"
        );
        assert_eq!(reused_work, expected_work);
        fresh.validate(partition);

        let expected_tadj = translate_oracle(&expected, adj);
        let fresh_tadj = fresh.translate_adjacency(adj);
        assert_eq!(
            fresh_tadj, expected_tadj,
            "rank {rank} {strategy:?}: translation"
        );
        assert_rows_read_back(&fresh, adj, &fresh_tadj);
        for larger in [true, false] {
            let out = recycled.insert(stale_storage(&expected_tadj, larger));
            fresh.translate_adjacency_into(adj, out);
            assert_eq!(
                *out, expected_tadj,
                "rank {rank}: translation recycled from a larger ({larger}) one"
            );
        }
        scratch.recycle(reused);
    }
    recycled.expect("two strategies ran")
}

fn assert_all_ranks_match(graph: &Graph, partition: &BlockPartition) {
    for rank in 0..partition.num_procs() {
        let adj = LocalAdjacency::extract(graph, partition, rank);
        assert_matches_oracles(partition, &adj, rank);
    }
}

/// A jittered grid in RCB order: blocks of a few thousand rows whose
/// interior chunks really are interior.
fn ordered_mesh(nx: usize, ny: usize, seed: u64) -> Graph {
    let g = meshgen::triangulated_grid(nx, ny, 0.3, seed);
    rcb_ordering(&g).apply(&g)
}

/// `adj` with every row's references reversed or rotated — rows that
/// `from_parts` accepts and a sorted-row shortcut would get wrong.
fn unsorted(adj: &LocalAdjacency, seed: u64) -> LocalAdjacency {
    let (interval, xadj, mut refs) = adj.clone().into_parts();
    for (l, w) in xadj.windows(2).enumerate() {
        let row = &mut refs[w[0] as usize..w[1] as usize];
        if row.is_empty() {
            continue;
        }
        match (l as u64 ^ seed) % 3 {
            0 => row.reverse(),
            1 => row.rotate_left(1),
            _ => row.rotate_right(1),
        }
    }
    LocalAdjacency::from_parts(interval, xadj, refs)
}

/// Mesh sizes, rank counts, weights (zeros allowed, so intervals may be
/// empty) and a block arrangement.
struct Cases;

#[derive(Debug)]
struct Case {
    graph: Graph,
    partition: BlockPartition,
    seed: u64,
}

/// A partition of `n` elements over `p` ranks with random weights (zeros
/// allowed) and a shuffled block arrangement.
fn random_partition(rng: &mut proptest::TestRng, n: usize, p: usize) -> BlockPartition {
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
    BlockPartition::from_weights(n, &weights, Arrangement::new(order))
}

impl Strategy for Cases {
    type Value = Case;

    fn generate(&self, rng: &mut proptest::TestRng) -> Case {
        let nx = 20 + rng.below(50) as usize;
        let ny = 20 + rng.below(50) as usize;
        let seed = rng.next_u64();
        let graph = ordered_mesh(nx, ny, seed);
        let p = 1 + rng.below(5) as usize;
        let partition = random_partition(rng, graph.num_vertices(), p);
        Case {
            graph,
            partition,
            seed,
        }
    }
}

/// A mesh and a chain of five partitions of it over one rank count.
struct Chains;

impl Strategy for Chains {
    type Value = (Graph, Vec<BlockPartition>);

    fn generate(&self, rng: &mut proptest::TestRng) -> Self::Value {
        let nx = 20 + rng.below(60) as usize;
        let ny = 20 + rng.below(60) as usize;
        let graph = ordered_mesh(nx, ny, rng.next_u64());
        let p = 1 + rng.below(4) as usize;
        let chain = (0..5)
            .map(|_| random_partition(rng, graph.num_vertices(), p))
            .collect();
        (graph, chain)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn builder_and_translation_equal_their_oracles(case in Cases) {
        assert_all_ranks_match(&case.graph, &case.partition);
    }

    #[test]
    fn unsorted_rows_equal_their_oracles(case in Cases) {
        for rank in 0..case.partition.num_procs() {
            let adj = LocalAdjacency::extract(&case.graph, &case.partition, rank);
            assert_matches_oracles(&case.partition, &unsorted(&adj, case.seed), rank);
        }
    }

    #[test]
    fn remap_chains_equal_their_oracles(case in Chains) {
        let (graph, chain) = &case;
        for rank in 0..chain[0].num_procs() {
            assert_chain_matches_oracles(graph, chain, rank);
        }
    }
}

/// Moves the rows of `tadj` — `schedule`'s translation — onto `interval`
/// the way a remap does, the rows it did not own received from `graph`.
fn move_to(
    graph: &Graph,
    (schedule, tadj): (&CommSchedule, &TranslatedAdjacency),
    interval: Interval,
    moved: &mut MovedRows,
) {
    let kept = tadj.interval().intersect(&interval);
    let runs = if kept.is_empty() {
        vec![interval]
    } else {
        vec![
            Interval::new(interval.start, kept.start),
            Interval::new(kept.end, interval.end),
        ]
    };
    let runs: Vec<(Interval, Vec<u8>)> = runs
        .into_iter()
        .filter(|r| !r.is_empty())
        .map(|r| {
            let mut packet = Vec::new();
            pack_degrees(r.iter().map(|v| graph.degree(v)), &mut packet);
            let refs: Vec<u32> = r.iter().flat_map(|v| graph.neighbors(v)).copied().collect();
            u32::pack_into(&refs, &mut packet);
            (r, packet)
        })
        .collect();
    moved.start(schedule, tadj);
    moved.finish(tadj, interval, runs.iter().map(|(r, p)| (*r, &p[..])));
}

/// What a move hands the inspector is the extracted adjacency block for
/// block: rows, bounds and reference counts; the rows themselves wherever
/// it stages them; and, for every block it keeps — each one shared by the
/// old and the new interval — the references that leave the interval.
fn assert_moved_rows_are(moved: &MovedRows, adj: &LocalAdjacency, old: Interval) {
    assert_eq!(
        (moved.interval(), moved.num_refs(), Rows::num_blocks(moved)),
        (adj.interval(), adj.num_refs(), Rows::num_blocks(adj))
    );
    let (iv, shared) = (adj.interval(), shared_blocks(old, adj.interval()));
    for b in 0..Rows::num_blocks(adj) {
        let (m, a) = (moved.block(b), adj.block(b));
        assert_eq!(
            (&m.rows, m.bounds, m.num_refs),
            (&a.rows, a.bounds, a.num_refs)
        );
        let kept = shared.contains(&(iv.start / BLOCK_ROWS + b));
        match m.refs {
            BlockRefs::Kept(leaving) => {
                assert!(kept, "block {b} is not shared but kept");
                let expected: Vec<(u32, u32)> = a
                    .rows
                    .clone()
                    .flat_map(|l| adj.neighbors_of(l).iter().map(move |&g| (l as u32, g)))
                    .filter(|&(_, g)| !iv.contains(g as usize))
                    .collect();
                assert_eq!(leaving, expected, "block {b}");
            }
            BlockRefs::Csr(ptrs, store) => {
                assert!(!kept, "block {b} is shared but staged");
                for (i, l) in a.rows.clone().enumerate() {
                    let row = &store[ptrs[i] as usize..ptrs[i + 1] as usize];
                    assert_eq!(row, adj.neighbors_of(l));
                }
            }
        }
    }
}

/// One rank along a chain of partitions, rebuilt after every move the way
/// a session rebuilds — rows moved out of the translation, schedule from a
/// recycled scratch, translation into the previous one — and every step
/// held to a fresh extraction, the oracles and a fresh translation, and
/// the translation decoded back to the extracted adjacency.
fn assert_chain_matches_oracles(graph: &Graph, chain: &[BlockPartition], rank: usize) {
    let mut scratch = ScheduleScratch::new();
    let mut moved = MovedRows::new();
    let sort2 = ScheduleStrategy::Sort2;
    let adj = LocalAdjacency::extract(graph, &chain[0], rank);
    let (mut schedule, _) =
        build_schedule_symmetric_with(&chain[0], &adj, rank, sort2, &mut scratch);
    let mut tadj = schedule.translate_adjacency(&adj);
    for partition in &chain[1..] {
        let old = tadj.interval();
        move_to(
            graph,
            (&schedule, &tadj),
            partition.interval_of(rank),
            &mut moved,
        );
        let what = format!("rank {rank} on {:?}", partition.sizes());
        let adj = LocalAdjacency::extract(graph, partition, rank);
        assert_moved_rows_are(&moved, &adj, old);
        for strategy in [ScheduleStrategy::Sort1, sort2] {
            let built =
                build_schedule_symmetric_with(partition, &moved, rank, strategy, &mut scratch);
            assert_eq!(
                built,
                symmetric_oracle(partition, &adj, rank, strategy),
                "{what}"
            );
            let built = built.0;
            if strategy == sort2 {
                built.translate_adjacency_into(&moved, &mut tadj);
                assert_eq!(tadj, translate_oracle(&built, &adj), "{what}");
                assert_eq!(tadj, built.translate_adjacency(&adj), "{what}");
                assert_rows_read_back(&built, &adj, &tadj);
                assert_eq!(built.decode_adjacency(&tadj), adj, "{what}");
                scratch.recycle(std::mem::replace(&mut schedule, built));
            } else {
                scratch.recycle(built);
            }
        }
    }
}

/// A kept block that is interior before and after a remap is not
/// translated again: a marker planted in it comes out of the remap shifted
/// by the change of start — on rank 0, whose start stays, untouched — while
/// every block that is not kept whole is written fresh.
#[test]
fn kept_interior_blocks_are_rebased_not_translated() {
    const MARK: u32 = 0xDEAD_0000;
    let g = ordered_mesh(100, 100, 3);
    let (old, new) = (
        BlockPartition::from_sizes(&[5000, 5000]),
        BlockPartition::from_sizes(&[3000, 7000]),
    );
    for rank in 0..2 {
        let (from, to) = (old.interval_of(rank), new.interval_of(rank));
        let adj = LocalAdjacency::extract(&g, &old, rank);
        let (schedule, _) = build_schedule_symmetric(&old, &adj, rank, ScheduleStrategy::Sort2);
        let mut tadj = schedule.translate_adjacency(&adj);
        let kept = |b: &(std::ops::Range<usize>, _)| within(b.1, from) && within(b.1, to);
        let marked: Vec<usize> = adj
            .blocks()
            .enumerate()
            .filter(|(k, b)| {
                kept(b) && shared_blocks(from, to).contains(&(from.start / BLOCK_ROWS + k))
            })
            .map(|(k, _)| from.start / BLOCK_ROWS + k)
            .collect();
        assert!(!marked.is_empty(), "rank {rank} keeps an interior block");
        for &k in &marked {
            let b = k - from.start / BLOCK_ROWS;
            let first = tadj.block_start[b] as usize;
            tadj.slots[first] = MARK;
        }
        let mut moved = MovedRows::new();
        move_to(&g, (&schedule, &tadj), to, &mut moved);
        let (schedule, _) = build_schedule_symmetric(&new, &moved, rank, ScheduleStrategy::Sort2);
        schedule.translate_adjacency_into(&moved, &mut tadj);
        let shift = (from.start as u32).wrapping_sub(to.start as u32);
        for &k in &marked {
            let b = k - to.start / BLOCK_ROWS;
            let first = tadj.block_start[b] as usize;
            assert_eq!(
                tadj.slots[first],
                MARK.wrapping_add(shift),
                "rank {rank} block {k}"
            );
        }
        // Without the markers, the same remap is a fresh translation.
        let fresh = schedule.translate_adjacency(&LocalAdjacency::extract(&g, &new, rank));
        let wrong = (0..tadj.num_refs()).filter(|&s| tadj.slots[s] != fresh.slots[s]);
        assert_eq!(wrong.count(), marked.len());
    }
}

/// An RCB-ordered mesh over two ranks: most blocks read no ghost and a few
/// do, so both run lists are non-empty and an interior run spans several
/// blocks — fresh, and after a remap that keeps and rebases some blocks and
/// translates the others fresh.
#[test]
fn runs_split_at_ghosts_fresh_and_after_a_remap() {
    let g = ordered_mesh(100, 100, 3);
    let (old, new) = (
        BlockPartition::from_sizes(&[5000, 5000]),
        BlockPartition::from_sizes(&[3000, 7000]),
    );
    for rank in 0..2 {
        let adj = LocalAdjacency::extract(&g, &old, rank);
        let (schedule, _) = build_schedule_symmetric(&old, &adj, rank, ScheduleStrategy::Sort2);
        let mut tadj = schedule.translate_adjacency(&adj);
        assert_runs_split_at_ghosts(&tadj);
        assert!(!tadj.boundary_runs().is_empty(), "rank {rank} reads ghosts");
        let widest = tadj
            .interior_runs()
            .iter()
            .map(ExactSizeIterator::len)
            .max();
        assert!(widest > Some(BLOCK_ROWS), "rank {rank}: {widest:?}");
        let mut moved = MovedRows::new();
        move_to(&g, (&schedule, &tadj), new.interval_of(rank), &mut moved);
        let (schedule, _) = build_schedule_symmetric(&new, &moved, rank, ScheduleStrategy::Sort2);
        schedule.translate_adjacency_into(&moved, &mut tadj);
        let adj = LocalAdjacency::extract(&g, &new, rank);
        assert_eq!(tadj, translate_oracle(&schedule, &adj), "rank {rank}");
        assert_runs_split_at_ghosts(&tadj);
    }
}

/// Block lengths around the chunk size: the last chunk is empty, one row,
/// one short, exact, one over, two and a bit.
#[test]
fn block_lengths_around_the_chunk_size() {
    assert_eq!(BLOCK_ROWS, 512, "the lengths below straddle this");
    let g = ordered_mesh(60, 60, 11);
    let n = g.num_vertices();
    for len in [0, 1, 511, 512, 513, 1025] {
        // The block under test sits between two neighbours, so both of its
        // ends are boundaries.
        let partition = BlockPartition::from_sizes(&[1000, len, n - 1000 - len]);
        assert_all_ranks_match(&g, &partition);
        let adj = LocalAdjacency::extract(&g, &partition, 1);
        // Global blocks: rows 1000..1024 make a short first one.
        let blocks = (1000..1000 + len).filter(|g| g % BLOCK_ROWS == 0).count();
        assert_eq!(adj.blocks().count(), blocks + usize::from(len > 0));
        assert_eq!(assert_matches_oracles(&partition, &adj, 1).len(), len);
    }
}

/// Isolated vertices translate like any other row, whether their chunk
/// holds a boundary row or not.
#[test]
fn rows_of_degree_zero() {
    // A 1200-path with every 7th vertex cut out of it, plus a block made of
    // isolated vertices only.
    let n = 1200;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1)
        .filter(|i| i % 7 != 0 && (i + 1) % 7 != 0 && *i < 1100)
        .map(|i| (i, i + 1))
        .collect();
    let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
    let g = Graph::from_edges(n, &edges, coords, 2);
    let partition = BlockPartition::from_sizes(&[600, 503, 97]);
    assert_all_ranks_match(&g, &partition);
    let adj = LocalAdjacency::extract(&g, &partition, 2);
    assert_eq!(adj.num_refs(), 0);
    let tadj = assert_matches_oracles(&partition, &adj, 2);
    assert_eq!((tadj.len(), tadj.num_refs()), (97, 0));
}

/// A ring: every row has two references, so every block holds one class
/// and its visit order is its row order — the stream is the CSR.
#[test]
fn a_block_holding_only_one_class() {
    let n = 3 * BLOCK_ROWS + 40;
    let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
    let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
    let g = Graph::from_edges(n, &edges, coords, 2);
    let partition = BlockPartition::from_sizes(&[2 * BLOCK_ROWS + 7, BLOCK_ROWS + 33]);
    assert_all_ranks_match(&g, &partition);
    let adj = LocalAdjacency::extract(&g, &partition, 0);
    let tadj = assert_matches_oracles(&partition, &adj, 0);
    for block in 0..3 {
        let (order, classes) = tadj.degree_classes(block);
        assert_eq!(classes[2] as usize, order.len(), "block {block}");
        assert!(order.iter().map(|&i| i as usize).eq(0..order.len()));
        let rows = block * BLOCK_ROWS..block * BLOCK_ROWS + order.len();
        let csr: Vec<u32> = rows.flat_map(|l| tadj.neighbors_of(l)).copied().collect();
        assert_eq!(tadj.block_slots(block), csr);
    }
}

/// Hubs of ten and more references next to isolated vertices: the rows of
/// the open-ended last class are the variable-length tail of their block's
/// stream, the rows of degree zero take no room in it, and a hub whose
/// spokes cross a block or a rank boundary translates like any other row.
#[test]
fn rows_of_degree_nine_and_more_are_the_tail_of_the_stream() {
    let n = 1400;
    let hubs = [3u32, 400, 505, 509, 700, 1020, 1100];
    let isolated = |i: u32| i % 11 == 5 && !hubs.contains(&i);
    let mut edges = std::collections::BTreeSet::new();
    for i in 0..n as u32 - 1 {
        if !isolated(i) && !isolated(i + 1) {
            edges.insert((i, i + 1));
        }
    }
    for (k, &h) in hubs.iter().enumerate() {
        // 9 to 15 spokes each, to vertices after the hub.
        for spoke in (h + 2..).filter(|&v| !isolated(v)).take(9 + k) {
            edges.insert((h, spoke));
        }
    }
    let edges: Vec<(u32, u32)> = edges.into_iter().collect();
    let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
    let g = Graph::from_edges(n, &edges, coords, 2);
    // Hub 509's spokes cross rank 0's block boundary at 512, hub 1020's
    // the rank boundary at 1030.
    let partition = BlockPartition::from_sizes(&[1030, 370]);
    assert_all_ranks_match(&g, &partition);
    let adj = LocalAdjacency::extract(&g, &partition, 0);
    let tadj = assert_matches_oracles(&partition, &adj, 0);
    for block in 0..3 {
        let (order, classes) = tadj.degree_classes(block);
        let start = block * BLOCK_ROWS;
        let many = classes[9] as usize;
        let expected_hubs = hubs
            .iter()
            .filter(|&&h| (start..start + order.len()).contains(&(h as usize)))
            .count();
        assert_eq!(many, expected_hubs, "block {block}");
        assert!(classes[0] > 0, "block {block} holds isolated vertices");
        let tail: Vec<u32> = order[order.len() - many..]
            .iter()
            .flat_map(|&i| tadj.neighbors_of(start + i as usize))
            .copied()
            .collect();
        assert!(tail.len() >= 9 * many);
        assert!(tadj.block_slots(block).ends_with(&tail), "block {block}");
    }
    assert!(hubs.iter().all(|&h| g.degree(h as usize) >= 9));
}

/// A shuffled numbering has no locality: every block holds a boundary row
/// and the whole rank goes through the per-reference arm.
#[test]
fn shuffled_numbering_has_no_interior_chunk() {
    let mut new_of_old: Vec<u32> = (0..2500).collect();
    new_of_old.shuffle(&mut StdRng::seed_from_u64(17));
    let g = meshgen::triangulated_grid(50, 50, 0.3, 5).relabel(&new_of_old);
    let partition = BlockPartition::from_sizes(&[1100, 900, 500]);
    assert_all_ranks_match(&g, &partition);
    for rank in 0..3 {
        let adj = LocalAdjacency::extract(&g, &partition, rank);
        assert!(adj.blocks().all(|(_, b)| !within(b, adj.interval())));
    }
}

/// The only off-block reference of a chunk is the last one it makes (and,
/// for the chunk after it, the first): the reduction must cover the whole
/// slice.
#[test]
fn lone_off_block_reference_at_a_chunk_edge() {
    let n = 2 * BLOCK_ROWS + 1;
    let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
    let coords = (0..n).map(|i| [i as f64, 0.0, 0.0]).collect();
    let g = Graph::from_edges(n, &edges, coords, 2);
    // Rank 0's single chunk ends in row 511 → [510, 512]: 512 is rank 1's.
    let partition = BlockPartition::from_sizes(&[BLOCK_ROWS, BLOCK_ROWS + 1]);
    let adj = LocalAdjacency::extract(&g, &partition, 0);
    let refs = adj.refs_in(0, adj.len());
    assert_eq!(refs.last(), Some(&(BLOCK_ROWS as u32)));
    assert_eq!(refs.iter().filter(|&&g| g >= BLOCK_ROWS as u32).count(), 1);
    let tadj = assert_matches_oracles(&partition, &adj, 0);
    let ghost = tadj.local_len();
    assert_eq!(tadj.neighbors_of(BLOCK_ROWS - 1), [ghost - 2, ghost]);
    // Rank 1: chunk 0 opens with the off-block reference, chunk 1 (one
    // row) holds none.
    let adj = LocalAdjacency::extract(&g, &partition, 1);
    let tadj = assert_matches_oracles(&partition, &adj, 1);
    assert_eq!(tadj.neighbors_of(0), [tadj.local_len(), 1]);
}

#[test]
#[should_panic(expected = "rank 3 makes 4294967296 references, more than the u32::MAX")]
fn more_references_than_block_starts_can_address() {
    check_block_starts_fit(3, u32::MAX as usize);
    check_block_starts_fit(3, u32::MAX as usize + 1);
}

/// The packed `local · p + peer` dedup key this builder used to hash on
/// wrapped once `local · p` reached 2³²: with 2¹⁶ ranks, row 65537's pair
/// collided with row 1's and the row was left out of its send list (a
/// debug build panicked on the overflow instead).
#[test]
fn send_list_keeps_rows_whose_packed_pair_key_would_wrap() {
    let p = 1 << 16;
    let mut sizes = vec![0usize; p];
    (sizes[0], sizes[1]) = (70_000, 10);
    let partition = BlockPartition::from_sizes(&sizes);
    let (early, late) = (1usize, (1 << 16) + 1);
    assert!(late as u64 * p as u64 > u64::from(u32::MAX));
    assert_eq!((late * p + 1) as u32, (early * p + 1) as u32);
    // Rows `early` and `late` each reference one vertex of rank 1; every
    // other row is empty.
    let mut xadj = vec![0u32; 70_001];
    xadj[early + 1..].fill(1);
    xadj[late + 1..].fill(2);
    let adj = LocalAdjacency::from_parts(partition.interval_of(0), xadj, vec![70_000, 70_001]);
    for strategy in [ScheduleStrategy::Sort1, ScheduleStrategy::Sort2] {
        let (schedule, work) = build_schedule_symmetric(&partition, &adj, 0, strategy);
        schedule.validate(&partition);
        assert_eq!(schedule.sends(), [(1, vec![early as u32, late as u32])]);
        assert_eq!(schedule.recvs(), [(1, vec![70_000, 70_001])]);
        assert_eq!((work.hash_ops, work.scan_ops), (4, 4));
    }
}

/// A path of 1500 rows with two rows too wide for their degree byte — 320
/// and 260 spokes, each crossing block and rank boundaries — and rows of
/// degree 9 to 20 scattered over the blocks: the rows the open last class
/// holds, and the wide ones listed beside the degree bytes.
fn wide_rows_mesh() -> Graph {
    const N: u32 = 1500;
    let mut edges = std::collections::BTreeSet::new();
    edges.extend((0..N - 1).map(|i| (i, i + 1)));
    let mut spokes = |hub: u32, step: usize, count: usize| {
        let leaves = (0..N).step_by(step).filter(|&v| v.abs_diff(hub) > 1);
        edges.extend(leaves.take(count).map(|v| (hub.min(v), hub.max(v))));
    };
    spokes(700, 4, 320);
    spokes(300, 5, 260);
    for (k, hub) in [100, 513, 1030, 1200, 1400, 1497].into_iter().enumerate() {
        // 9 to 20 references in all, the path's two included.
        spokes(hub, 7 + 2 * k, 7 + 2 * k);
    }
    let edges: Vec<(u32, u32)> = edges.into_iter().collect();
    let coords = (0..N as usize).map(|i| [i as f64, 0.0, 0.0]).collect();
    Graph::from_edges(N as usize, &edges, coords, 2)
}

/// Rows the old layout's row pointers held like any other — a hub of 320
/// references, another of 260 and rows of 9 to 20 — are decoded from
/// their degree bytes, the list of wide rows and their blocks' skews:
/// every translation equals its oracle, reads back row by row through
/// `neighbors_of` and `degree_of`, and decodes to the rows it was made
/// from.
#[test]
fn wide_rows_and_rows_of_nine_to_twenty_decode_like_any_other() {
    let g = wide_rows_mesh();
    assert!(g.degree(700) >= 300 && g.degree(300) >= 255);
    let between: Vec<usize> = (0..g.num_vertices())
        .filter(|&v| (9..=20).contains(&g.degree(v)))
        .collect();
    assert!(between.len() >= 6, "{between:?}");
    for sizes in [&[1500][..], &[512, 988], &[700, 1, 799], &[301, 400, 799]] {
        let partition = BlockPartition::from_sizes(sizes);
        for rank in 0..partition.num_procs() {
            let adj = LocalAdjacency::extract(&g, &partition, rank);
            let tadj = assert_matches_oracles(&partition, &adj, rank);
            let (schedule, _) =
                build_schedule_symmetric(&partition, &adj, rank, ScheduleStrategy::Sort2);
            super::reference::assert_decodes_to(&schedule, &tadj, &adj);
            let iv = partition.interval_of(rank);
            let listed = tadj.wide.iter().map(|&(row, _)| row as usize);
            let expected = [300, 700].into_iter().filter(|&v| iv.contains(v));
            assert!(listed.eq(expected), "rank {rank} of {sizes:?}");
        }
    }
}

/// Remap chains that hand the two wide rows from rank to rank, keep the
/// block of one whole while the interval's start moves — so a block
/// translated fresh lists its wide row before the kept one's — and cut
/// their blocks differently: every step equals a fresh translation and the
/// oracles.
#[test]
fn remap_chains_move_the_wide_rows_between_ranks() {
    let g = wide_rows_mesh();
    let chains: [&[&[usize]]; 2] = [
        &[
            &[512, 988],
            &[256, 1244],
            &[1024, 476],
            &[800, 700],
            &[300, 1200],
            &[512, 988],
        ],
        &[
            &[200, 600, 700],
            &[650, 350, 500],
            &[100, 1100, 300],
            &[1500, 0, 0],
            &[0, 701, 799],
        ],
    ];
    for chain in chains {
        let chain: Vec<BlockPartition> = chain
            .iter()
            .map(|s| BlockPartition::from_sizes(s))
            .collect();
        for rank in 0..chain[0].num_procs() {
            assert_chain_matches_oracles(&g, &chain, rank);
        }
    }
}
