//! Cross-crate integration tests: the full Phase A→D pipeline against the
//! sequential reference, across orderings, schedule strategies, partition
//! shapes and cluster configurations.

use stance::executor::sequential_relaxation;
use stance::prelude::*;
use stance::reassemble;

fn init(g: usize) -> f64 {
    ((g * 37 % 101) as f64) * 0.25 - 12.0
}

fn run_parallel(
    mesh: &Graph,
    spec: ClusterSpec,
    config: &StanceConfig,
    iters: usize,
) -> (Vec<f64>, f64) {
    let report = Cluster::new(spec).run(|env| {
        let mut session = AdaptiveSession::setup(env, mesh, RelaxationKernel, init, config);
        session.run_adaptive(env, iters);
        (session.local_values().to_vec(), session.partition().clone())
    });
    let makespan = report.makespan();
    let results: Vec<_> = report.into_results();
    let partition = results[0].1.clone();
    let blocks = results.into_iter().map(|(v, _)| v).collect();
    (reassemble(&partition, blocks), makespan)
}

fn sequential(mesh: &Graph, iters: usize) -> Vec<f64> {
    let mut y: Vec<f64> = (0..mesh.num_vertices()).map(init).collect();
    sequential_relaxation(mesh, &mut y, iters);
    y
}

#[test]
fn every_ordering_produces_correct_results() {
    let raw = stance::locality::meshgen::triangulated_grid(14, 11, 0.4, 5);
    for method in OrderingMethod::ALL {
        let (mesh, _) = stance::prepare_mesh(&raw, method);
        let expected = sequential(&mesh, 15);
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let (got, _) = run_parallel(&mesh, spec, &StanceConfig::free(), 15);
        assert_eq!(got, expected, "ordering {method} broke the pipeline");
    }
}

/// A session builds its schedules with Sort2; Table 3's other strategies
/// are the inspector's to test.
#[test]
fn every_strategy_on_ethernet_cluster() {
    let raw = stance::locality::meshgen::annulus_mesh(10, 36, 2);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Spectral);
    let expected = sequential(&mesh, 12);
    let config = StanceConfig::default().without_load_balancing();
    let spec = ClusterSpec::uniform(4);
    let (got, makespan) = run_parallel(&mesh, spec, &config, 12);
    assert_eq!(got, expected, "the ethernet run broke the pipeline");
    assert!(makespan > 0.0);
}

#[test]
fn shared_bus_network_correctness() {
    let raw = stance::locality::meshgen::triangulated_grid(12, 12, 0.3, 9);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Hilbert);
    let expected = sequential(&mesh, 10);
    let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::ethernet_10mbit_shared());
    let (got, _) = run_parallel(
        &mesh,
        spec,
        &StanceConfig::default().without_load_balancing(),
        10,
    );
    assert_eq!(got, expected, "shared-bus run diverged");
}

#[test]
fn heterogeneous_speeds_with_weighted_partition() {
    let raw = stance::locality::meshgen::triangulated_grid(16, 9, 0.4, 3);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Rcb);
    let speeds = [1.0, 0.5, 0.25];
    let expected = sequential(&mesh, 20);
    let config = StanceConfig::free();
    let partition =
        BlockPartition::from_weights(mesh.num_vertices(), &speeds, Arrangement::identity(3));
    let spec = ClusterSpec::heterogeneous(&speeds).with_network(NetworkSpec::zero_cost());
    let report = Cluster::new(spec).run(|env| {
        let mut session = AdaptiveSession::setup_with_partition(
            env,
            &mesh,
            partition.clone(),
            RelaxationKernel,
            init,
            &config,
        );
        session.run_adaptive(env, 20);
        session.local_values().to_vec()
    });
    let blocks: Vec<_> = report.into_results();
    let got = reassemble(&partition, blocks);
    assert_eq!(got, expected);
}

#[test]
fn weighted_partition_beats_uniform_on_nonuniform_cluster() {
    let raw = stance::locality::meshgen::triangulated_grid(20, 20, 0.3, 8);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Rcb);
    let speeds = [1.0, 0.25];
    let run_with = |weighted: bool| {
        let partition = if weighted {
            BlockPartition::from_weights(mesh.num_vertices(), &speeds, Arrangement::identity(2))
        } else {
            BlockPartition::uniform(mesh.num_vertices(), 2)
        };
        let spec = ClusterSpec::heterogeneous(&speeds).with_network(NetworkSpec::zero_cost());
        let config = StanceConfig::default().without_load_balancing();
        Cluster::new(spec)
            .run(|env| {
                let mut s = AdaptiveSession::setup_with_partition(
                    env,
                    &mesh,
                    partition.clone(),
                    RelaxationKernel,
                    init,
                    &config,
                );
                s.run_adaptive(env, 30);
            })
            .makespan()
    };
    let uniform = run_with(false);
    let weighted = run_with(true);
    assert!(
        weighted < uniform * 0.65,
        "weighted {weighted} should clearly beat uniform {uniform}"
    );
}

#[test]
fn single_rank_runs_whole_problem() {
    let raw = stance::locality::meshgen::triangulated_grid(10, 10, 0.2, 4);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Morton);
    let expected = sequential(&mesh, 8);
    let spec = ClusterSpec::uniform(1);
    let (got, _) = run_parallel(&mesh, spec, &StanceConfig::default(), 8);
    assert_eq!(got, expected);
}

#[test]
fn efficiency_metric_sane_on_real_run() {
    let raw = stance::locality::meshgen::triangulated_grid(24, 24, 0.4, 6);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Spectral);
    let config = StanceConfig::default().without_load_balancing();
    let t1 = run_parallel(&mesh, ClusterSpec::uniform(1), &config, 25).1;
    let t3 = run_parallel(&mesh, ClusterSpec::uniform(3), &config, 25).1;
    let e = stance::static_efficiency(t3, &[t1, t1, t1]);
    assert!(t3 < t1, "three machines must beat one ({t3} vs {t1})");
    assert!(
        e > 0.4 && e <= 1.0 + 1e-9,
        "efficiency {e} outside plausible range"
    );
}

#[test]
fn many_ranks_small_mesh_edge_case() {
    // More ranks than would be sensible: some blocks are tiny; one rank may
    // own a single vertex.
    let raw = stance::locality::meshgen::triangulated_grid(4, 4, 0.1, 2);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Rcb);
    let expected = sequential(&mesh, 6);
    let spec = ClusterSpec::uniform(8).with_network(NetworkSpec::zero_cost());
    let (got, _) = run_parallel(&mesh, spec, &StanceConfig::free(), 6);
    assert_eq!(got, expected);
}
