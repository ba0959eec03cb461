//! Remap micro-harness: the measurements behind `bench_remap`'s pipeline
//! groups and the `results/BENCH_remap.json` perf-trajectory entry.
//!
//! The paper's whole pitch is *cheap adaptation* — the MCR controller can
//! only remap often if a remap costs little. This harness measures the
//! **end-to-end remap latency** (value redistribution → adjacency move →
//! schedule rebuild → runner/value-buffer rebuild) of two pipelines:
//!
//! * **legacy** — a frozen copy of the pre-scratch path: an upfront copy
//!   of the owned block, a fresh staging `Vec` per destination, pre-zeroed
//!   destination blocks, one heap `Vec` per received adjacency row, a
//!   fresh plan computed twice, fresh schedule hashes, and a from-scratch
//!   runner + ghosted buffer;
//! * **lean** — the shipped path: `AdaptiveSession::remap_to` over the
//!   session's recycled `RemapScratch` (plan recomputed in place and
//!   shared, values packed straight from the ghosted array, direct CSR
//!   assembly, schedule/runner/value rebuild into retired storage — zero
//!   allocations once warm, pinned by `tests/alloc_free.rs`).
//!
//! Workload: the paper-scale ~30k-vertex mesh, 1/2/4/8 ranks, oscillating
//! between a uniform partition and a shifted one (small shift ≈ a mild
//! load wobble; large shift ≈ a machine losing most of its capacity), on
//! both backends. Wall clock is what differs; virtual-time charging and
//! all values are identical between the two pipelines (pinned by this
//! module's tests).

use std::time::Instant;

use stance::executor::{ComputeCostModel, GhostedArray, LoopRunner};
use stance::inspector::{build_schedule_symmetric, LocalAdjacency};
use stance::onedim::RedistributionPlan;
use stance::prelude::*;
use stance_native::NativeCluster;

/// Application-range tags for the legacy replay (distinct from the shipped
/// pipeline's reserved tags).
const TAG_LEGACY_VALUES: Tag = Tag(0x7010);
const TAG_LEGACY_ADJ: Tag = Tag(0x7011);

/// Rank counts the remap trajectory entry sweeps.
pub const RANK_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// How far the oscillating partition strays from uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shift {
    /// A mild wobble: one rank's share shrinks ~15% — the common case of
    /// a small load fluctuation.
    Small,
    /// A heavy skew: capability ramps 1→2 across ranks — a machine lost
    /// most of its capacity and a large fraction of elements moves.
    Large,
}

impl Shift {
    /// Harness sweep order.
    pub const ALL: [Shift; 2] = [Shift::Small, Shift::Large];

    /// JSON key fragment.
    pub fn name(self) -> &'static str {
        match self {
            Shift::Small => "small",
            Shift::Large => "large",
        }
    }
}

/// The paper-scale bench mesh (~30k vertices, RSB-class ordering).
pub fn remap_mesh() -> Graph {
    stance::scenarios::paper_mesh_ordered(OrderingMethod::Rcb, 42)
}

/// The partition pair a timing run oscillates between: uniform ↔ shifted.
/// At one rank both are the whole list (the identity-remap fast path).
pub fn partition_pair(n: usize, ranks: usize, shift: Shift) -> (BlockPartition, BlockPartition) {
    let uniform = BlockPartition::uniform(n, ranks);
    let weights: Vec<f64> = match shift {
        Shift::Small => (0..ranks)
            .map(|r| if r == 0 { 0.85 } else { 1.0 })
            .collect(),
        Shift::Large => (0..ranks)
            .map(|r| 1.0 + r as f64 / (ranks.max(2) - 1) as f64)
            .collect(),
    };
    let shifted = BlockPartition::from_weights(n, &weights, Arrangement::identity(ranks));
    (uniform, shifted)
}

/// The frozen pre-scratch value redistribution: an upfront `to_vec` is the
/// caller's job; per destination a fresh staging `Vec`; destination blocks
/// pre-zeroed; plan computed fresh.
fn legacy_redistribute_coalesced<E: Element, C: Comm>(
    env: &mut C,
    old: &BlockPartition,
    new: &BlockPartition,
    arrays: &mut [&mut Vec<E>],
) {
    if arrays.is_empty() || old == new {
        return;
    }
    let k = arrays.len();
    let rank = env.rank();
    let old_iv = old.interval_of(rank);
    let new_iv = new.interval_of(rank);
    let plan = RedistributionPlan::between(old, new);
    for m in plan.sends_of(rank) {
        let lo = m.range.start - old_iv.start;
        let hi = m.range.end - old_iv.start;
        let mut bytes = Vec::with_capacity((hi - lo) * k * E::SIZE_BYTES);
        for a in arrays.iter() {
            E::pack_into(&a[lo..hi], &mut bytes);
        }
        env.send(m.dst, TAG_LEGACY_VALUES, Payload::from_bytes(bytes));
    }
    let mut new_blocks: Vec<Vec<E>> = (0..k).map(|_| vec![E::zero(); new_iv.len()]).collect();
    let kept = old_iv.intersect(&new_iv);
    if !kept.is_empty() {
        for (block, a) in new_blocks.iter_mut().zip(arrays.iter()) {
            block[kept.start - new_iv.start..kept.end - new_iv.start]
                .copy_from_slice(&a[kept.start - old_iv.start..kept.end - old_iv.start]);
        }
    }
    for m in plan.recvs_of(rank) {
        let seg = m.range.len();
        let bytes = env.recv(m.src, TAG_LEGACY_VALUES).into_bytes();
        assert_eq!(bytes.len(), seg * k * E::SIZE_BYTES);
        let lo = m.range.start - new_iv.start;
        let seg_bytes = seg * E::SIZE_BYTES;
        for (i, block) in new_blocks.iter_mut().enumerate() {
            E::unpack_into(
                &bytes[i * seg_bytes..(i + 1) * seg_bytes],
                &mut block[lo..lo + seg],
            );
        }
    }
    for (a, block) in arrays.iter_mut().zip(new_blocks) {
        **a = block;
    }
}

/// The frozen pre-scratch adjacency move: one heap `Vec` per received row,
/// then a second pass flattening the rows into CSR.
fn legacy_redistribute_adjacency<C: Comm>(
    env: &mut C,
    old: &BlockPartition,
    new: &BlockPartition,
    adj: &LocalAdjacency,
) -> LocalAdjacency {
    let rank = env.rank();
    let old_iv = old.interval_of(rank);
    let new_iv = new.interval_of(rank);
    let plan = RedistributionPlan::between(old, new);

    for m in plan.sends_of(rank) {
        let mut words = Vec::new();
        for g in m.range.iter() {
            words.push(adj.degree_of(g - old_iv.start) as u32);
        }
        for g in m.range.iter() {
            words.extend_from_slice(adj.neighbors_of(g - old_iv.start));
        }
        env.send(m.dst, TAG_LEGACY_ADJ, Payload::from_u32(words));
    }

    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); new_iv.len()];
    let kept = old_iv.intersect(&new_iv);
    for g in kept.iter() {
        rows[g - new_iv.start] = adj.neighbors_of(g - old_iv.start).to_vec();
    }
    for m in plan.recvs_of(rank) {
        let words = env.recv(m.src, TAG_LEGACY_ADJ).into_u32();
        let count = m.range.len();
        let degrees = &words[..count];
        let mut cursor = count;
        for (offset, g) in m.range.iter().enumerate() {
            let d = degrees[offset] as usize;
            rows[g - new_iv.start] = words[cursor..cursor + d].to_vec();
            cursor += d;
        }
        assert_eq!(cursor, words.len(), "legacy adjacency packet consumed");
    }

    let mut xadj = Vec::with_capacity(new_iv.len() + 1);
    let mut refs = Vec::new();
    xadj.push(0);
    for row in rows {
        refs.extend(row);
        xadj.push(refs.len());
    }
    LocalAdjacency::from_parts(new_iv, xadj, refs)
}

/// One rank's state for the frozen legacy pipeline.
struct LegacyState<E: Field> {
    partition: BlockPartition,
    adj: LocalAdjacency,
    runner: LoopRunner<E>,
    values: GhostedArray<E>,
}

fn legacy_setup<E: Field, C: Comm>(
    env: &mut C,
    graph: &Graph,
    partition: BlockPartition,
    init: fn(usize) -> E,
) -> LegacyState<E> {
    let rank = env.rank();
    let adj = LocalAdjacency::extract(graph, &partition, rank);
    let (sched, _) = build_schedule_symmetric(&partition, &adj, rank, ScheduleStrategy::Sort2);
    let runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
    let iv = partition.interval_of(rank);
    let values = runner.make_values(iv.iter().map(init).collect());
    LegacyState {
        partition,
        adj,
        runner,
        values,
    }
}

/// One frozen-pipeline remap: upfront owned-block copy, allocating
/// redistributions (plan computed twice), fresh schedule build, fresh
/// runner, fresh ghosted buffer — exactly what `apply_remap` did before
/// the scratch.
fn legacy_remap<E: Field, C: Comm>(
    env: &mut C,
    state: &mut LegacyState<E>,
    new_partition: &BlockPartition,
) {
    let rank = env.rank();
    let mut new_local = state.values.local().to_vec();
    legacy_redistribute_coalesced(env, &state.partition, new_partition, &mut [&mut new_local]);
    let new_adj = legacy_redistribute_adjacency(env, &state.partition, new_partition, &state.adj);
    state.partition = new_partition.clone();
    state.adj = new_adj;
    let (sched, _) =
        build_schedule_symmetric(&state.partition, &state.adj, rank, ScheduleStrategy::Sort2);
    state.runner = LoopRunner::new(sched, &state.adj, ComputeCostModel::zero());
    state.values = state.runner.make_values(new_local);
}

/// Which remap pipeline a timing run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The frozen pre-scratch baseline.
    Legacy,
    /// The shipped allocation-lean path (`AdaptiveSession::remap_to`).
    Lean,
}

fn lean_body<E: Field, C: Comm>(
    comm: &mut C,
    graph: &Graph,
    a: &BlockPartition,
    b: &BlockPartition,
    iters: usize,
    init: fn(usize) -> E,
) -> f64 {
    let config = StanceConfig::free().without_load_balancing();
    let mut s = AdaptiveSession::setup_with_partition(
        comm,
        graph,
        a.clone(),
        RelaxationKernel,
        init,
        &config,
    );
    // Warm-up: one full oscillation fills the scratch pools.
    s.remap_to(comm, b.clone(), &mut []);
    s.remap_to(comm, a.clone(), &mut []);
    comm.barrier();
    let t0 = Instant::now();
    for i in 0..iters {
        let target = if i % 2 == 0 { b.clone() } else { a.clone() };
        s.remap_to(comm, target, &mut []);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    comm.barrier();
    elapsed / iters as f64
}

fn legacy_body<E: Field, C: Comm>(
    comm: &mut C,
    graph: &Graph,
    a: &BlockPartition,
    b: &BlockPartition,
    iters: usize,
    init: fn(usize) -> E,
) -> f64 {
    let mut state = legacy_setup(comm, graph, a.clone(), init);
    legacy_remap(comm, &mut state, b);
    legacy_remap(comm, &mut state, a);
    comm.barrier();
    let t0 = Instant::now();
    for i in 0..iters {
        let target = if i % 2 == 0 { b } else { a };
        legacy_remap(comm, &mut state, target);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    comm.barrier();
    elapsed / iters as f64
}

/// Seconds per remap (slowest rank, warm-up excluded) for `iters` forced
/// remaps oscillating uniform ↔ shifted on the given backend.
pub fn time_remap<E: Field>(
    graph: &Graph,
    ranks: usize,
    shift: Shift,
    iters: usize,
    path: Path,
    native: bool,
    init: fn(usize) -> E,
) -> f64 {
    let n = graph.num_vertices();
    let (a, b) = partition_pair(n, ranks, shift);
    let per_rank: Vec<f64> = if native {
        NativeCluster::new(ranks)
            .run(|comm| match path {
                Path::Lean => lean_body(comm, graph, &a, &b, iters, init),
                Path::Legacy => legacy_body(comm, graph, &a, &b, iters, init),
            })
            .into_results()
    } else {
        let spec = ClusterSpec::uniform(ranks).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec)
            .run(|env| match path {
                Path::Lean => lean_body(env, graph, &a, &b, iters, init),
                Path::Legacy => legacy_body(env, graph, &a, &b, iters, init),
            })
            .into_results()
    };
    per_rank.into_iter().fold(0.0, f64::max)
}

fn json_cell(key: &str, legacy: f64, lean: f64, gated: bool) -> String {
    let ratio_key = if gated { "speedup" } else { "ratio" };
    format!(
        "  \"{key}\": {{ \"legacy_us\": {:.1}, \"lean_us\": {:.1}, \"{ratio_key}\": {:.2} }}",
        legacy * 1e6,
        lean * 1e6,
        legacy / lean
    )
}

/// Runs the full legacy-vs-lean remap comparison and renders the
/// `BENCH_remap.json` perf-trajectory entry. Sampling is order-balanced
/// (each repetition times both pipelines back to back, alternating which
/// runs first) so host drift cannot masquerade as a pipeline difference.
pub fn report_json() -> String {
    let reps = crate::sample_count().clamp(3, 7);
    let iters = 6;
    let mesh = remap_mesh();
    let n = mesh.num_vertices();
    let host_threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let mut lines = vec![
        "{".to_string(),
        "  \"bench\": \"remap\",".to_string(),
        format!(
            "  \"workload\": {{ \"vertices\": {n}, \"mesh\": \"paper mesh (RSB-class ordering)\", \"remaps_per_sample\": {iters}, \"samples\": {reps}, \"host_threads\": {host_threads} }},"
        ),
        "  \"methodology\": \"end-to-end remap latency (value redistribution + adjacency move + schedule rebuild + runner/value-buffer rebuild), oscillating uniform <-> shifted partitions; seconds per remap = slowest rank, median over order-balanced interleaved samples, 2-remap warm-up excluded; legacy = frozen pre-scratch pipeline (upfront block copy, per-destination allocations, pre-zeroed blocks, per-row adjacency Vecs, plan built twice, from-scratch schedule/runner/buffers), lean = shipped RemapScratch path; 'sim' cells run the virtual-time backend with a zero-cost network (wall clock measured, virtual charging identical between pipelines), 'native' cells the thread-pool backend; ranks_1 cells oscillate between identical partitions and therefore measure the identity fast path, reported as 'ratio' and excluded from the CI gate (as are 2-rank cells, which carry little movement); host_threads below the rank count means ranks time-share cores\",".to_string(),
    ];

    let mut cells: Vec<String> = Vec::new();
    for native in [false, true] {
        let backend = if native { "native" } else { "sim" };
        for &ranks in &RANK_COUNTS {
            for shift in Shift::ALL {
                for elem in ["f64", "f64x4"] {
                    let time = |path| match elem {
                        "f64" => time_remap::<f64>(&mesh, ranks, shift, iters, path, native, |i| {
                            i as f64
                        }),
                        _ => {
                            time_remap::<[f64; 4]>(&mesh, ranks, shift, iters, path, native, |i| {
                                [i as f64, -(i as f64), 0.5, 1.0]
                            })
                        }
                    };
                    let mut legacy = Vec::with_capacity(reps);
                    let mut lean = Vec::with_capacity(reps);
                    for i in 0..reps {
                        if i % 2 == 0 {
                            legacy.push(time(Path::Legacy));
                            lean.push(time(Path::Lean));
                        } else {
                            lean.push(time(Path::Lean));
                            legacy.push(time(Path::Legacy));
                        }
                    }
                    let median = |mut v: Vec<f64>| {
                        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
                        v[v.len() / 2]
                    };
                    let key = format!("{backend}_{elem}_ranks{ranks}_{}", shift.name());
                    // Only >= 4-rank cells carry the gated "speedup" key:
                    // 1 rank is the identity fast path and 2 ranks move
                    // little data, so their ratios would gate noise.
                    cells.push(json_cell(&key, median(legacy), median(lean), ranks >= 4));
                }
            }
        }
    }
    lines.push(cells.join(",\n"));
    lines.push("}".to_string());
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance::locality::meshgen;

    /// The frozen legacy pipeline and the shipped lean pipeline must land
    /// every value and every adjacency row in exactly the same place — a
    /// mis-timed bench is noise, a wrong one is a lie.
    #[test]
    fn legacy_pipeline_is_bitwise_identical_to_lean() {
        let g = meshgen::triangulated_grid(14, 10, 0.3, 4);
        let n = g.num_vertices();
        for shift in Shift::ALL {
            let (a, b) = partition_pair(n, 3, shift);
            let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
            Cluster::new(spec).run(|env| {
                let config = StanceConfig::free().without_load_balancing();
                let mut session = AdaptiveSession::setup_with_partition(
                    env,
                    &g,
                    a.clone(),
                    RelaxationKernel,
                    |i| (i as f64).sin(),
                    &config,
                );
                let mut legacy = legacy_setup(env, &g, a.clone(), |i| (i as f64).sin());
                for target in [&b, &a, &b, &a] {
                    session.remap_to(env, (*target).clone(), &mut []);
                    legacy_remap(env, &mut legacy, target);
                    assert_eq!(
                        session.local_values(),
                        legacy.values.local(),
                        "values diverged after remap ({shift:?})"
                    );
                    assert_eq!(
                        session.schedule(),
                        legacy.runner.schedule(),
                        "schedules diverged after remap ({shift:?})"
                    );
                }
            });
        }
    }

    #[test]
    fn partition_pairs_shift_as_advertised() {
        let n = 30_000;
        let (a, b) = partition_pair(n, 4, Shift::Small);
        let plan = RedistributionPlan::between(&a, &b);
        let small_moved = plan.elements_moved();
        let (a, b) = partition_pair(n, 4, Shift::Large);
        let plan = RedistributionPlan::between(&a, &b);
        let large_moved = plan.elements_moved();
        assert!(
            small_moved > 0 && small_moved < n / 10,
            "small shift moves a sliver, got {small_moved}"
        );
        assert!(
            large_moved > n / 5,
            "large shift moves a big chunk, got {large_moved}"
        );
        // One rank: identity (the fast-path row).
        let (a1, b1) = partition_pair(n, 1, Shift::Large);
        assert_eq!(a1, b1);
    }

    #[test]
    fn timing_is_positive_for_both_pipelines() {
        let g = meshgen::triangulated_grid(20, 6, 0.2, 1);
        for native in [false, true] {
            assert!(
                time_remap::<f64>(&g, 2, Shift::Large, 2, Path::Legacy, native, |i| i as f64) > 0.0
            );
            assert!(
                time_remap::<f64>(&g, 2, Shift::Large, 2, Path::Lean, native, |i| i as f64) > 0.0
            );
        }
    }
}
