//! Determinism guarantees: under the point-to-point network model, repeated
//! runs of the full pipeline produce bit-identical results *and* clocks,
//! regardless of host thread scheduling.

use stance::prelude::*;

fn full_run(seed: u64) -> (Vec<f64>, Vec<f64>, Vec<u64>) {
    // A random geometric graph's edges differ per seed (grid jitter alone
    // would only move coordinates, which spectral ordering ignores).
    let raw = stance::locality::meshgen::random_geometric(195, 0.08, seed);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Spectral);
    let config = StanceConfig::default().with_check_interval(5);
    let spec = ClusterSpec::uniform(4)
        .with_network(NetworkSpec::ethernet_10mbit())
        .with_load(1, LoadTimeline::competing_load(0.05, 1.0, 2));
    let report = Cluster::new(spec).run(|env| {
        let mut session =
            AdaptiveSession::setup(env, &mesh, RelaxationKernel, |g| (g as f64).sqrt(), &config);
        session.run_adaptive(env, 30);
        session.local_values().to_vec()
    });
    let clocks: Vec<f64> = report.ranks.iter().map(|r| r.clock.as_secs()).collect();
    let msgs: Vec<u64> = report.ranks.iter().map(|r| r.stats.messages_sent).collect();
    let values: Vec<f64> = report.into_results().into_iter().flatten().collect();
    (values, clocks, msgs)
}

#[test]
fn adaptive_pipeline_is_deterministic() {
    let a = full_run(3);
    let b = full_run(3);
    assert_eq!(a.0, b.0, "values must be bit-identical");
    assert_eq!(a.1, b.1, "virtual clocks must be bit-identical");
    assert_eq!(a.2, b.2, "message counts must be identical");
}

#[test]
fn different_seeds_differ() {
    let a = full_run(3);
    let b = full_run(4);
    assert_ne!(a.0, b.0, "different meshes should give different values");
}

#[test]
fn repeated_schedule_builds_identical() {
    use stance::inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
    let raw = stance::locality::meshgen::random_geometric(300, 0.08, 17);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Rcb);
    let part = BlockPartition::uniform(300, 5);
    for rank in 0..5 {
        let adj = LocalAdjacency::extract(&mesh, &part, rank);
        let (s1, w1) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort1);
        let (s2, w2) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort1);
        assert_eq!(s1, s2);
        assert_eq!(w1, w2);
    }
}

#[test]
fn mesh_generators_deterministic() {
    use stance::locality::meshgen;
    assert_eq!(
        meshgen::triangulated_grid(20, 20, 0.5, 9),
        meshgen::triangulated_grid(20, 20, 0.5, 9)
    );
    assert_eq!(
        meshgen::random_geometric(200, 0.1, 4),
        meshgen::random_geometric(200, 0.1, 4)
    );
    assert_eq!(
        meshgen::annulus_mesh(8, 24, 2),
        meshgen::annulus_mesh(8, 24, 2)
    );
}
