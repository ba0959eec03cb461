//! Tests for the trait-based application API: `Element` pack/unpack
//! round-trips through the simulator's `Payload`, and full adaptive runs
//! (load balancing, forced remaps) with non-`f64` elements and custom
//! kernels.

use std::collections::BTreeSet;

use proptest::prelude::*;
use stance::balance::BalancerConfig;
use stance::executor::{sequential_relaxation, sweep_rows, SweepTeam};
use stance::inspector::{build_schedule_symmetric, LocalAdjacency, TranslatedAdjacency};
use stance::onedim::RedistCostModel;
use stance::prelude::*;
use stance::reassemble;

// ---------------------------------------------------------------------------
// Element pack/unpack round-trips through Payload.
// ---------------------------------------------------------------------------

/// Bit patterns covering negative zero, subnormals, and infinities
/// (NaN is excluded at the use sites because the tests compare with `==`).
fn f64_bits() -> impl Strategy<Value = u64> {
    0u64..u64::MAX
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn f64_elements_round_trip(bits in proptest::collection::vec(0u64..u64::MAX, 0..40)) {
        let values: Vec<f64> = bits
            .into_iter()
            .map(f64::from_bits)
            .filter(|v| !v.is_nan())
            .collect();
        let payload = f64::pack(&values);
        prop_assert_eq!(payload.size_bytes(), values.len() * 8);
        let back = f64::unpack(payload);
        prop_assert_eq!(&back, &values);
        // Bitwise, not just numerically, identical.
        for (a, b) in back.iter().zip(&values) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn pair_elements_round_trip(bits in proptest::collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 0..30)) {
        let values: Vec<[f64; 2]> = bits
            .into_iter()
            .map(|(a, b)| [f64::from_bits(a), f64::from_bits(b)])
            .filter(|v| !v[0].is_nan() && !v[1].is_nan())
            .collect();
        let payload = <[f64; 2]>::pack(&values);
        prop_assert_eq!(payload.size_bytes(), values.len() * 16);
        prop_assert_eq!(<[f64; 2]>::unpack(payload), values);
    }

    #[test]
    fn integer_elements_round_trip(
        small in proptest::collection::vec(0u32..u32::MAX, 0..50),
        wide in proptest::collection::vec(0u64..u64::MAX, 0..50),
    ) {
        prop_assert_eq!(u32::unpack(u32::pack(&small)), small);
        prop_assert_eq!(u64::unpack(u64::pack(&wide)), wide);
    }

    #[test]
    fn f32_elements_round_trip(bits in proptest::collection::vec(0u32..u32::MAX, 0..50)) {
        let values: Vec<f32> = bits
            .into_iter()
            .map(f32::from_bits)
            .filter(|v| !v.is_nan())
            .collect();
        prop_assert_eq!(f32::unpack(f32::pack(&values)), values);
    }

    /// Elements survive an actual trip through the simulated network, not
    /// just through pack/unpack in isolation.
    #[test]
    fn elements_survive_the_wire(seed_bits in f64_bits()) {
        let seed = f64::from_bits(seed_bits);
        let seed = if seed.is_nan() { 0.5 } else { seed };
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let sent: Vec<[f64; 3]> = (0..5)
            .map(|i| [seed, seed * i as f64, i as f64])
            .collect();
        let sent2 = sent.clone();
        Cluster::new(spec).run(move |env| {
            if env.rank() == 0 {
                env.send(1, Tag(7), <[f64; 3]>::pack(&sent2));
            } else {
                let got = <[f64; 3]>::unpack(env.recv(0, Tag(7)));
                assert_eq!(got, sent2);
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Multi-field adaptive runs: a [f64; 2] workload must survive forced remaps
// bitwise (mirrors session.rs's adaptive_run_with_remap_matches_sequential).
// ---------------------------------------------------------------------------

fn init_pair(g: usize) -> [f64; 2] {
    [(g as f64).cos() * 5.0, (g as f64 * 0.11).sin() - 2.0]
}

fn mesh() -> Graph {
    let raw = stance::locality::meshgen::triangulated_grid(12, 10, 0.4, 3);
    stance::prepare_mesh(&raw, OrderingMethod::Rcb).0
}

/// A balancer scaled to the tiny test mesh (see session.rs).
fn test_balancer() -> BalancerConfig {
    BalancerConfig {
        redist_model: RedistCostModel {
            per_message: 1.0e-4,
            per_element: 1.0e-7,
        },
        rebuild_cost_hint: 1.0e-4,
        profitability_margin: 1.0,
        use_mcr: true,
    }
}

#[test]
fn two_field_kernel_survives_forced_remap_bitwise() {
    let m = mesh();
    let n = m.num_vertices();
    let iters = 40;
    let mut expected: Vec<[f64; 2]> = (0..n).map(init_pair).collect();
    sequential_relaxation(&m, &mut expected, iters);

    let m2 = m.clone();
    let mut config = StanceConfig::default().with_check_interval(10);
    config.balancer = test_balancer();
    let spec = ClusterSpec::uniform(3)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::constant(1.0 / 3.0));
    let report = Cluster::new(spec).run(move |env| {
        let mut s = AdaptiveSession::setup(env, &m2, RelaxationKernel, init_pair, &config);
        let rep = s.run_adaptive(env, iters);
        (rep, s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    let (rep0, _, final_part) = &results[0];
    assert!(
        rep0.remaps >= 1,
        "competing load should force a remap: {rep0:?}"
    );
    let blocks: Vec<Vec<[f64; 2]>> = results.iter().map(|(_, v, _)| v.clone()).collect();
    let got = reassemble(final_part, blocks);
    assert_eq!(got, expected, "multi-field adaptive run diverged bitwise");
}

#[test]
fn two_field_run_matches_componentwise_scalar_runs() {
    // The [f64; 2] session must agree bitwise with two independent f64
    // sessions, component by component — the element abstraction cannot
    // perturb arithmetic.
    let m = mesh();
    let n = m.num_vertices();
    let iters = 25;
    let config = StanceConfig::free();

    let run_scalar = |field: usize| {
        let m = m.clone();
        let config = config.clone();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            let mut s =
                AdaptiveSession::setup(env, &m, RelaxationKernel, |g| init_pair(g)[field], &config);
            s.run_adaptive(env, iters);
            (s.local_values().to_vec(), s.partition().clone())
        });
        let results: Vec<_> = report.into_results();
        let part = results[0].1.clone();
        reassemble(&part, results.into_iter().map(|(v, _)| v).collect())
    };
    let first = run_scalar(0);
    let second = run_scalar(1);

    let m2 = m.clone();
    let config2 = config.clone();
    let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
    let report = Cluster::new(spec).run(move |env| {
        let mut s = AdaptiveSession::setup(env, &m2, RelaxationKernel, init_pair, &config2);
        s.run_adaptive(env, iters);
        (s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    let part = results[0].1.clone();
    let pairs = reassemble(&part, results.into_iter().map(|(v, _)| v).collect());

    assert_eq!(pairs.len(), n);
    for (i, pair) in pairs.iter().enumerate() {
        assert_eq!(pair[0].to_bits(), first[i].to_bits(), "field 0, vertex {i}");
        assert_eq!(
            pair[1].to_bits(),
            second[i].to_bits(),
            "field 1, vertex {i}"
        );
    }
}

// ---------------------------------------------------------------------------
// A from-scratch user kernel: the "~30 lines of user code" claim, as a test.
// ---------------------------------------------------------------------------

/// Damped Jacobi: out = (1 − ω) · y[i] + ω · avg(neighbors).
struct DampedJacobi {
    omega: f64,
}

impl<E: Field> Kernel<E> for DampedJacobi {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[E], out: &mut [E]) {
        for (l, o) in out.iter_mut().enumerate() {
            let nbrs = tadj.neighbors_of(l);
            if nbrs.is_empty() {
                *o = combined[l];
                continue;
            }
            let mut t = E::zero();
            for &s in nbrs {
                t = t.add(combined[s as usize]);
            }
            let avg = t.div(nbrs.len() as f64);
            *o = combined[l]
                .scale(1.0 - self.omega)
                .add(avg.scale(self.omega));
        }
    }
}

/// The same kernel in its closure spelling: the row body handed to
/// `sweep_rows`, which visits each block's rows grouped by degree.
struct GroupedDampedJacobi {
    omega: f64,
}

impl<E: Field> Kernel<E> for GroupedDampedJacobi {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[E], out: &mut [E]) {
        self.sweep_chunked(tadj, combined, out, 0..tadj.len());
    }

    #[inline(never)]
    fn sweep_chunked(
        &self,
        tadj: &TranslatedAdjacency,
        combined: &[E],
        out: &mut [E],
        range: std::ops::Range<usize>,
    ) {
        sweep_rows(tadj, out, range, |l, nbrs| {
            if nbrs.is_empty() {
                return combined[l];
            }
            let mut t = E::zero();
            for &s in nbrs {
                t = t.add(combined[s as usize]);
            }
            combined[l]
                .scale(1.0 - self.omega)
                .add(t.div(nbrs.len() as f64).scale(self.omega))
        });
    }

    fn sweeps_ranges(&self) -> bool {
        true
    }
}

/// The matching sequential reference.
fn sequential_damped_jacobi(g: &Graph, y: &mut [f64], omega: f64, iters: usize) {
    let n = g.num_vertices();
    let mut t = vec![0.0; n];
    for _ in 0..iters {
        for (i, ti) in t.iter_mut().enumerate() {
            let nbrs = g.neighbors(i);
            if nbrs.is_empty() {
                *ti = y[i];
                continue;
            }
            let mut acc = 0.0;
            for &j in nbrs {
                acc += y[j as usize];
            }
            let avg = acc / nbrs.len() as f64;
            *ti = y[i] * (1.0 - omega) + avg * omega;
        }
        y.copy_from_slice(&t);
    }
}

#[test]
fn user_kernel_runs_adaptively_and_matches_sequential() {
    user_kernel_matches_sequential(|omega| DampedJacobi { omega });
    user_kernel_matches_sequential(|omega| GroupedDampedJacobi { omega });
}

fn user_kernel_matches_sequential<K: Kernel<f64> + 'static>(kernel: fn(f64) -> K) {
    let m = mesh();
    let n = m.num_vertices();
    let iters = 30;
    let omega = 0.7;
    let init = |g: usize| (g as f64 * 0.05).sin() * 3.0;
    let mut expected: Vec<f64> = (0..n).map(init).collect();
    sequential_damped_jacobi(&m, &mut expected, omega, iters);

    let mut config = StanceConfig::default().with_check_interval(10);
    config.balancer = test_balancer();
    let m2 = m.clone();
    let spec = ClusterSpec::uniform(3)
        .with_network(NetworkSpec::zero_cost())
        .with_load(1, LoadTimeline::constant(0.4));
    let report = Cluster::new(spec).run(move |env| {
        let mut s = AdaptiveSession::setup(env, &m2, kernel(omega), init, &config);
        let rep = s.run_adaptive(env, iters);
        (rep, s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    assert!(
        results[0].0.remaps >= 1,
        "loaded rank 1 should trigger a remap: {:?}",
        results[0].0
    );
    let part = results[0].2.clone();
    let got = reassemble(&part, results.into_iter().map(|(_, v, _)| v).collect());
    assert_eq!(got, expected, "user kernel diverged from its reference");
}

/// A kernel that implements only `sweep` rides the default ranged hook — a
/// whole-block sweep into a temporary per partial window — so it must come
/// out of every team size bit for bit as the sequential loop does: on a
/// locality-ordered mesh and on a block whose every other row reads a
/// ghost.
#[test]
fn sweep_only_kernel_matches_sequential_under_teams() {
    // Every even vertex of rank 0's block is wired into rank 1's.
    let n = 800;
    let edges: Vec<(u32, u32)> = (0..200u32).map(|i| (2 * i, 400 + i)).collect();
    let interleaved = Graph::from_edges(n, &edges, vec![[0.0; 3]; n], 2);

    let (omega, iters) = (0.7, 6);
    let init = |g: usize| (g as f64 * 0.05).sin() * 3.0;
    for (what, graph) in [("interleaved", interleaved), ("mesh", mesh())] {
        let n = graph.num_vertices();
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_damped_jacobi(&graph, &mut expected, omega, iters);
        let expected: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
        let part = BlockPartition::uniform(n, 2);
        for lanes in [2usize, 3] {
            let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
            let report = Cluster::new(spec).run(|env| {
                let rank = env.rank();
                let adj = LocalAdjacency::extract(&graph, &part, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                let mut runner =
                    LoopRunner::new(sched, &adj, ComputeCostModel::zero()).with_team(lanes);
                let mut values =
                    runner.make_values(part.interval_of(rank).iter().map(init).collect());
                runner.run(env, &DampedJacobi { omega }, &mut values, iters);
                values.local().to_vec()
            });
            let got: Vec<u64> = report
                .into_results()
                .iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, expected, "{what}: {lanes} lanes");
        }
    }
}

// ---------------------------------------------------------------------------
// Chunked sweeps: `sweep_chunked` must be bitwise identical to the frozen
// per-vertex scalar formulation, for arbitrary graphs, arbitrary sweep-range
// fragmentation, and arbitrary payload bits — NaN and subnormal included.
// The built-ins' `sweep` *delegates* to `sweep_chunked`, so the reference
// loops below are written out longhand (the pre-blocking formulation), not
// routed through the trait.
// ---------------------------------------------------------------------------

/// The frozen scalar relaxation sweep: `out[l] = Σ combined[s] / deg(l)`
/// accumulated in CSR order from `0.0`, isolated vertices copied through.
fn relaxation_reference(tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
    for (l, o) in out.iter_mut().enumerate() {
        let nbrs = tadj.neighbors_of(l);
        if nbrs.is_empty() {
            *o = combined[l];
            continue;
        }
        let mut t = 0.0f64;
        for &s in nbrs {
            t += combined[s as usize];
        }
        *o = t / nbrs.len() as f64;
    }
}

/// The frozen scalar shifted-Laplacian sweep:
/// `out[l] = (deg(l) + shift) · combined[l] − Σ combined[s]`, subtractions
/// in CSR order.
fn laplacian_reference(tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64], shift: f64) {
    for (l, o) in out.iter_mut().enumerate() {
        let nbrs = tadj.neighbors_of(l);
        let mut acc = combined[l] * (nbrs.len() as f64 + shift);
        for &s in nbrs {
            acc -= combined[s as usize];
        }
        *o = acc;
    }
}

/// Single-rank translated adjacency for an arbitrary edge list (the whole
/// graph is owned, so the combined buffer is exactly the value array).
fn single_rank_tadj(n: usize, raw_edges: &[(usize, usize)]) -> TranslatedAdjacency {
    let edges: Vec<(u32, u32)> = raw_edges
        .iter()
        .filter(|&&(a, b)| a != b)
        .map(|&(a, b)| (a.min(b) as u32, a.max(b) as u32))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let g = Graph::from_edges(n, &edges, vec![[0.0; 3]; n], 2);
    let part = BlockPartition::uniform(n, 1);
    let adj = LocalAdjacency::extract(&g, &part, 0);
    let (sched, _) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort2);
    sched.translate_adjacency(&adj)
}

/// Split `0..n` at the given (arbitrary, possibly duplicated) cut points
/// into consecutive fragments — the ranges team lanes hand
/// `sweep_chunked`, each with its own window of the output.
fn fragments(n: usize, cuts: &[usize]) -> Vec<std::ops::Range<usize>> {
    let mut points: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
    points.push(0);
    points.push(n);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| w[0]..w[1]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `RelaxationKernel::sweep_chunked`, driven over an arbitrary
    /// fragmentation of the vertex range, reproduces the frozen scalar
    /// loop bit for bit — every bit pattern allowed, NaNs compared as bits.
    #[test]
    fn chunked_relaxation_matches_scalar_reference_bitwise(
        n in 2usize..560,
        raw_edges in proptest::collection::vec((0usize..560, 0usize..560), 0..1200),
        value_bits in proptest::collection::vec(0u64..u64::MAX, 560),
        cuts in proptest::collection::vec(0usize..560, 0..10),
    ) {
        let raw_edges: Vec<(usize, usize)> =
            raw_edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let tadj = single_rank_tadj(n, &raw_edges);
        let combined: Vec<f64> = value_bits[..n].iter().map(|&b| f64::from_bits(b)).collect();

        let mut expected = vec![0.0f64; n];
        relaxation_reference(&tadj, &combined, &mut expected);

        let mut got = vec![f64::from_bits(0x7ff8_dead_beef_0000); n];
        for r in fragments(n, &cuts) {
            let window = &mut got[r.clone()];
            Kernel::<f64>::sweep_chunked(&RelaxationKernel, &tadj, &combined, window, r);
        }
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "relaxation diverged at vertex {} ({:e} vs {:e})", i, g, e
            );
        }
    }

    /// Same contract for `LaplacianKernel::sweep_chunked`, including the
    /// diagonal shift (itself an arbitrary finite payload).
    #[test]
    fn chunked_laplacian_matches_scalar_reference_bitwise(
        n in 2usize..560,
        raw_edges in proptest::collection::vec((0usize..560, 0usize..560), 0..1200),
        value_bits in proptest::collection::vec(0u64..u64::MAX, 560),
        cuts in proptest::collection::vec(0usize..560, 0..10),
        shift in -1.0e3f64..1.0e3,
    ) {
        let raw_edges: Vec<(usize, usize)> =
            raw_edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let tadj = single_rank_tadj(n, &raw_edges);
        let combined: Vec<f64> = value_bits[..n].iter().map(|&b| f64::from_bits(b)).collect();

        let mut expected = vec![0.0f64; n];
        laplacian_reference(&tadj, &combined, &mut expected, shift);

        let mut got = vec![f64::from_bits(0x7ff8_dead_beef_0000); n];
        let kernel = LaplacianKernel { shift };
        for r in fragments(n, &cuts) {
            Kernel::<f64>::sweep_chunked(&kernel, &tadj, &combined, &mut got[r.clone()], r);
        }
        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "laplacian diverged at vertex {} ({:e} vs {:e})", i, g, e
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Degree-grouped blocks: `sweep_rows` visits the rows of every whole block
// class by class, and walks the block of a ragged end of a range in the same
// visit order, a row at a time, writing only the range's rows. Whatever the degree
// mix, the block count, the range and the element type, each row must come
// out bit for bit as the frozen per-row loops above compute it.
// ---------------------------------------------------------------------------

/// One sweep's worth of input: a single-rank translation whose rows cover
/// every arm of the driver, and three raw-bit value arrays (the lanes of a
/// `[f64; 3]` payload; lane 0 doubles as the `f64` payload).
#[derive(Debug)]
struct SweepCase {
    tadj: TranslatedAdjacency,
    lanes: [Vec<f64>; 3],
    /// Arbitrary cut points for fragmenting `0..n`.
    cuts: Vec<usize>,
    shift: f64,
}

/// `SweepCase`s of `n` rows; `None` draws `n` from the lengths around the
/// block size.
struct SweepCases(Option<usize>);

/// From this many rows up a case carries the whole planted degree ladder.
const PLANTED_FROM: usize = 100;

impl Strategy for SweepCases {
    type Value = SweepCase;

    fn generate(&self, rng: &mut proptest::TestRng) -> SweepCase {
        let n = self.0.unwrap_or_else(|| match rng.below(8) {
            0 => 0,
            1 => 1,
            2 => 511,
            3 => 512,
            4 => 513,
            5 => 1025,
            _ => 2 + rng.below(1400) as usize,
        });
        // Planted rows sit at random places, so every block gets some.
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut edges = Vec::new();
        let mut free = &ids[..];
        if n >= PLANTED_FROM {
            let mut take = |k: usize| {
                let (taken, rest) = free.split_at(k);
                free = rest;
                taken
            };
            // Degree 0 twice; a hub of exactly `d` leaves for d = 1..=8;
            // a 10-clique (degree exactly 9).
            take(2);
            for d in 1..=8 {
                let star = take(d + 1);
                edges.extend(star[1..].iter().map(|&leaf| (star[0], leaf)));
            }
            let clique = take(10);
            for (k, &a) in clique.iter().enumerate() {
                edges.extend(clique[k + 1..].iter().map(|&b| (a, b)));
            }
            // A star far above 8: its hub is planted, its 40 leaves are not.
            let hub = take(1)[0];
            edges.extend(free[..40].iter().map(|&leaf| (hub, leaf)));
        }
        if free.len() >= 2 {
            for _ in 0..rng.below(3 * free.len() as u64) {
                let pick =
                    |rng: &mut proptest::TestRng| free[rng.below(free.len() as u64) as usize];
                edges.push((pick(rng), pick(rng)));
            }
        }
        const SPECIAL: [u64; 8] = [
            0x7ff8_0000_0000_0000, // NaN
            0xfff0_0000_0000_0001, // a signalling, negative NaN
            0x0000_0000_0000_0000, // +0
            0x8000_0000_0000_0000, // −0
            0x0000_0000_0000_0001, // smallest subnormal
            0x800f_ffff_ffff_ffff, // largest subnormal, negative
            0x7ff0_0000_0000_0000, // +∞
            0xfff0_0000_0000_0000, // −∞
        ];
        let mut payload = || -> Vec<f64> {
            (0..n)
                .map(|_| match rng.below(6) {
                    0 => SPECIAL[rng.below(8) as usize],
                    _ => rng.next_u64(),
                })
                .map(f64::from_bits)
                .collect()
        };
        let lanes = [payload(), payload(), payload()];
        SweepCase {
            tadj: single_rank_tadj(n, &edges),
            lanes,
            cuts: (0..rng.below(10))
                .map(|_| rng.below(1500) as usize)
                .collect(),
            shift: (rng.unit_f64() - 0.5) * 2.0e3,
        }
    }
}

/// What a row the driver must not write still holds afterwards: a finite
/// value no sweep of these inputs produces.
const UNTOUCHED: f64 = -4.242_424_242e242;

/// The wire form of `f64`-built elements with every NaN folded onto one
/// pattern: equality of these is bitwise equality — ±0, subnormals and
/// infinities told apart — except for *which* NaN. A row that reads two
/// NaNs keeps the payload of whichever the compiler made the first
/// operand of its (commutative) add; that is fixed by neither IEEE 754 nor
/// the accumulation order, and differs between two compilations of the
/// same loop.
fn bits<E: Element>(values: &[E]) -> Vec<u64> {
    let mut bytes = Vec::new();
    E::pack_into(values, &mut bytes);
    bytes
        .chunks_exact(8)
        .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
        .map(|b| {
            if f64::from_bits(b).is_nan() {
                u64::MAX
            } else {
                b
            }
        })
        .collect()
}

/// `got` must equal `expected` on every row of `written` and still hold
/// `untouched` everywhere else.
fn assert_rows<E: Element>(
    got: &[E],
    expected: &[E],
    untouched: E,
    written: &[std::ops::Range<usize>],
    what: &str,
) {
    let mut wanted = vec![untouched; got.len()];
    for run in written {
        wanted[run.clone()].copy_from_slice(&expected[run.clone()]);
    }
    if let Some(l) = (0..got.len()).find(|&l| bits(&got[l..=l]) != bits(&wanted[l..=l])) {
        panic!("{what}: row {l} holds {:?}, wanted {:?}", got[l], wanted[l]);
    }
}

/// Drives one kernel over one element type through every way the runtime
/// reaches `sweep_rows`, against `expected` (the per-row loop's output).
fn assert_sweeps_match<E: Field, K: Kernel<E>>(
    kernel: &K,
    case: &SweepCase,
    combined: &[E],
    expected: &[E],
    untouched: E,
) {
    let (tadj, n) = (&case.tadj, case.tadj.len());
    let fresh = || vec![untouched; n];
    let one = std::slice::from_ref;

    let mut got = fresh();
    kernel.sweep(tadj, combined, &mut got);
    assert_rows(&got, expected, untouched, one(&(0..n)), "sweep");

    // Ranges that start and end mid-block, one call each.
    let frags = fragments(n, &case.cuts);
    let mut got = fresh();
    for (k, run) in frags.iter().enumerate() {
        kernel.sweep_chunked(tadj, combined, &mut got[run.clone()], run.clone());
        assert_rows(&got, expected, untouched, &frags[..=k], "fragment");
    }

    // A range strictly inside one block, one that holds exactly one whole
    // block between two ragged ends, and one that starts mid-block and
    // runs to the end, as the last team lane's does.
    for run in [n / 3..n / 3 + n.min(200) / 2, n / 5..n - n / 7, n / 4..n] {
        let mut got = fresh();
        kernel.sweep_chunked(tadj, combined, &mut got[run.clone()], run.clone());
        assert_rows(&got, expected, untouched, one(&run), "range");
    }
}

/// Both built-in kernels, `f64` and `[f64; 3]`, against the per-row loops.
fn assert_case_matches_references(case: &SweepCase) {
    let n = case.tadj.len();
    let zip3 = |lanes: [&Vec<f64>; 3]| -> Vec<[f64; 3]> {
        (0..n).map(|l| lanes.map(|lane| lane[l])).collect()
    };
    let per_lane = |reference: &dyn Fn(&[f64], &mut [f64])| {
        case.lanes.each_ref().map(|lane| {
            let mut out = vec![0.0; n];
            reference(lane, &mut out);
            out
        })
    };
    let combined3 = zip3(case.lanes.each_ref());
    let laplacian = LaplacianKernel { shift: case.shift };

    let relaxed = per_lane(&|x, out| relaxation_reference(&case.tadj, x, out));
    let applied = per_lane(&|x, out| laplacian_reference(&case.tadj, x, out, case.shift));
    assert_sweeps_match(
        &RelaxationKernel,
        case,
        &case.lanes[0],
        &relaxed[0],
        UNTOUCHED,
    );
    assert_sweeps_match(&laplacian, case, &case.lanes[0], &applied[0], UNTOUCHED);
    let untouched = [UNTOUCHED; 3];
    assert_sweeps_match(
        &RelaxationKernel,
        case,
        &combined3,
        &zip3(relaxed.each_ref()),
        untouched,
    );
    assert_sweeps_match(
        &laplacian,
        case,
        &combined3,
        &zip3(applied.each_ref()),
        untouched,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grouped_sweeps_match_the_per_row_loops_bitwise(case in SweepCases(None)) {
        let n = case.tadj.len();
        if n >= PLANTED_FROM {
            // The planted rows are there: every class arm runs, and the
            // generic arm sees degree 0, exactly 9 and far more.
            let degrees: BTreeSet<usize> = (0..n).map(|l| case.tadj.degree_of(l)).collect();
            prop_assert!((0..=9).all(|d| degrees.contains(&d)), "{:?}", degrees);
            prop_assert!(degrees.last() >= Some(&40), "{:?}", degrees);
        }
        assert_case_matches_references(&case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 1300 rows are two blocks and a bit; two lanes cut them at 650,
    /// three at 433 and 866 — all mid-block, so every lane sweeps a ragged
    /// head, and most a ragged tail, around its whole blocks.
    #[test]
    fn teams_whose_lane_cuts_fall_mid_block_match_the_per_row_loops(case in SweepCases(Some(1300))) {
        let n = case.tadj.len();
        let combined: Vec<[f64; 3]> = (0..n).map(|l| case.lanes.each_ref().map(|x| x[l])).collect();
        let mut expected = vec![[0.0; 3]; n];
        RelaxationKernel.sweep(&case.tadj, &combined, &mut expected);
        // The single-lane sweep is itself held to the per-row loops …
        assert_case_matches_references(&case);
        // … and every team size to it.
        for lanes in 1..=3 {
            let mut team = SweepTeam::new(lanes);
            team.rebuild_splits(&case.tadj);
            let mut got = vec![[UNTOUCHED; 3]; n];
            team.sweep_full(&RelaxationKernel, &case.tadj, &combined, &mut got);
            assert_rows(
                &got,
                &expected,
                [UNTOUCHED; 3],
                std::slice::from_ref(&(0..n)),
                "team",
            );
        }
    }
}

/// An order-sensitive digest of what `sweep_rows` hands `row`: the row, and
/// its references in the order they come.
fn digest(l: usize, refs: &[u32]) -> u64 {
    let seed = l as u64 ^ (refs.len() as u64) << 40;
    refs.iter().fold(seed, |h, &s| {
        (h ^ u64::from(s)).wrapping_mul(0x100_0000_01b3)
    })
}

/// `sweep_rows` over the whole of `tadj` hands every row its
/// `neighbors_of`, and over each of `ranges` writes that range's window of
/// the whole sweep, bit for bit.
fn assert_windows_of_the_whole_sweep(
    tadj: &TranslatedAdjacency,
    ranges: &[std::ops::Range<usize>],
) {
    let n = tadj.len();
    let mut whole = vec![0u64; n];
    sweep_rows(tadj, &mut whole, 0..n, digest);
    for (l, &got) in whole.iter().enumerate() {
        assert_eq!(got, digest(l, tadj.neighbors_of(l)), "row {l}");
    }
    for range in ranges {
        let mut window = vec![u64::MAX; range.len()];
        sweep_rows(tadj, &mut window, range.clone(), digest);
        assert_eq!(window, whole[range.clone()], "window {range:?}");
    }
}

/// The ranges around every row of the open last class (degree 9 and up):
/// the row alone, everything before it and everything after it — each cut
/// falls between two of its block's last-class rows, or next to one.
fn ranges_around_the_last_class(tadj: &TranslatedAdjacency) -> Vec<std::ops::Range<usize>> {
    let n = tadj.len();
    (0..n)
        .filter(|&l| tadj.degree_of(l) >= 9)
        .flat_map(|l| [l..l + 1, 0..l, l + 1..n])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A ragged piece walks its whole block in visit order and writes only
    /// its own rows: over arbitrary sub-ranges — ragged starts and ends,
    /// pieces inside one block, cuts between the rows of the open last
    /// class — `sweep_rows` writes the window of the whole sweep.
    #[test]
    fn sweep_rows_over_any_sub_range_is_the_window_of_the_whole_sweep(
        case in SweepCases(None),
        picks in proptest::collection::vec((0usize..1 << 20, 0usize..1 << 20), 1..12),
    ) {
        let n = case.tadj.len();
        let mut ranges = ranges_around_the_last_class(&case.tadj);
        if n >= PLANTED_FROM {
            prop_assert!(ranges.len() >= 3 * 11, "{} last-class cuts", ranges.len());
        }
        ranges.extend(picks.into_iter().map(|(a, b)| {
            let (a, b) = (a % (n + 1), b % (n + 1));
            a.min(b)..a.max(b)
        }));
        assert_windows_of_the_whole_sweep(&case.tadj, &ranges);
    }
}

/// The same over rows too wide for their degree byte — 300 and 256
/// references — beside rows of 9 to 20, with ragged cuts around all of
/// them and lane cuts mid-block.
#[test]
fn sweep_rows_windows_around_wide_rows() {
    let n = 1300;
    let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
    for (hub, step, count) in [(600, 4, 300), (1100, 5, 256), (40, 13, 7), (515, 11, 12)] {
        let leaves = (0..n)
            .step_by(step)
            .filter(|&v: &usize| v.abs_diff(hub) > 1);
        edges.extend(leaves.take(count).map(|v| (hub, v)));
    }
    let tadj = single_rank_tadj(n, &edges);
    assert!(tadj.degree_of(600) >= 300 && tadj.degree_of(1100) >= 256);
    let mut ranges = ranges_around_the_last_class(&tadj);
    ranges.extend([433..866, 650..1300, 0..650, 599..601, 1099..1101]);
    assert_windows_of_the_whole_sweep(&tadj, &ranges);
}
