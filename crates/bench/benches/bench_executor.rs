//! Criterion bench for Phase C: wall-clock cost of the relaxation sweep and
//! of a full gather + sweep iteration on the simulated cluster (backing
//! Tables 4–5's per-iteration costs).
//!
//! The `kernel` group doubles as the trait-dispatch guard: `hardcoded_f64`
//! is a local copy of the pre-trait executor loop, and `generic_kernel_f64`
//! is the shipped `RelaxationKernel` running through the `Kernel<E>` trait.
//! Monomorphization should make the two indistinguishable — a gap here
//! means the generic API grew an abstraction cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use stance::executor::{sequential_relaxation, ComputeCostModel, GhostedArray, LoopRunner};
use stance::inspector::{
    build_schedule_symmetric, LocalAdjacency, ScheduleStrategy, TranslatedAdjacency,
};
use stance::locality::OrderingMethod;
use stance::onedim::BlockPartition;
use stance::prelude::*;
use stance::scenarios;

/// The seed's hardcoded f64 relaxation loop, kept verbatim as the baseline
/// the generic kernel is measured against.
fn hardcoded_relaxation_step(tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
    for (l, o) in out.iter_mut().enumerate() {
        let nbrs = tadj.neighbors_of(l);
        if nbrs.is_empty() {
            *o = combined[l];
            continue;
        }
        let mut t = 0.0;
        for &s in nbrs {
            t += combined[s as usize];
        }
        *o = t / nbrs.len() as f64;
    }
}

fn bench_sweep(c: &mut Criterion) {
    let mesh = scenarios::small_mesh_ordered(OrderingMethod::Rcb, 13);
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, 1);
    let adj = LocalAdjacency::extract(&mesh, &part, 0);
    let (sched, _) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort2);
    let tadj = sched.translate_adjacency(&adj);
    let values: GhostedArray = GhostedArray::from_local((0..n).map(|i| i as f64).collect(), 0);
    let mut out = vec![0.0; n];

    let mut group = c.benchmark_group("kernel");
    group.throughput(Throughput::Elements(tadj.num_refs() as u64));
    group.bench_function("hardcoded_f64_3k", |b| {
        b.iter(|| {
            hardcoded_relaxation_step(std::hint::black_box(&tadj), values.combined(), &mut out);
        });
    });
    group.bench_function("generic_kernel_f64_3k", |b| {
        b.iter(|| {
            Kernel::<f64>::sweep(
                &RelaxationKernel,
                std::hint::black_box(&tadj),
                values.combined(),
                &mut out,
            );
        });
    });
    let pair_values: GhostedArray<[f64; 2]> =
        GhostedArray::from_local((0..n).map(|i| [i as f64, -(i as f64)]).collect(), 0);
    let mut pair_out = vec![[0.0; 2]; n];
    group.bench_function("generic_kernel_f64x2_3k", |b| {
        b.iter(|| {
            Kernel::<[f64; 2]>::sweep(
                &RelaxationKernel,
                std::hint::black_box(&tadj),
                pair_values.combined(),
                &mut pair_out,
            );
        });
    });
    let mut y: Vec<f64> = (0..n).map(|i| i as f64).collect();
    group.bench_function("sequential_step_3k", |b| {
        b.iter(|| sequential_relaxation(std::hint::black_box(&mesh), &mut y, 1));
    });
    group.finish();
}

fn bench_full_iteration(c: &mut Criterion) {
    let mesh = scenarios::small_mesh_ordered(OrderingMethod::Rcb, 13);
    let mut group = c.benchmark_group("cluster_iteration");
    group.sample_size(10);
    for p in [2usize, 4] {
        group.bench_with_input(BenchmarkId::new("gather_sweep", p), &p, |b, &p| {
            b.iter(|| {
                let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
                Cluster::new(spec).run(|env| {
                    let part = BlockPartition::uniform(mesh.num_vertices(), p);
                    let adj = LocalAdjacency::extract(&mesh, &part, env.rank());
                    let (sched, _) =
                        build_schedule_symmetric(&part, &adj, env.rank(), ScheduleStrategy::Sort2);
                    let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
                    let owned = part.interval_of(env.rank()).len();
                    let mut values = runner.make_values(vec![1.0; owned]);
                    runner.run(env, &RelaxationKernel, &mut values, 5);
                })
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep, bench_full_iteration);
criterion_main!(benches);
