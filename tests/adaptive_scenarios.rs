//! Adaptive-environment scenarios beyond the paper's single experiment:
//! load arriving mid-run, load departing, several machines loaded at once,
//! and the profitability rule declining unprofitable remaps.

use stance::balance::BalancerConfig;
use stance::executor::sequential_relaxation;
use stance::onedim::RedistCostModel;
use stance::prelude::*;
use stance::reassemble;
use stance::sim::LoadPhase;

fn init(g: usize) -> f64 {
    (g as f64 * 0.02).cos() * 4.0
}

fn mesh() -> Graph {
    let raw = stance::locality::meshgen::triangulated_grid(20, 15, 0.4, 6);
    stance::prepare_mesh(&raw, OrderingMethod::Rcb).0
}

/// A balancer scaled for the small test meshes.
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

fn adaptive_config() -> StanceConfig {
    let mut c = StanceConfig::default().with_check_interval(10);
    c.balancer = test_balancer();
    c
}

/// Runs the session and returns (final values reassembled, reports).
fn run(
    m: &Graph,
    spec: ClusterSpec,
    config: &StanceConfig,
    iters: usize,
) -> (Vec<f64>, Vec<SessionReport>) {
    let report = Cluster::new(spec).run(|env| {
        let mut s = AdaptiveSession::setup(env, m, RelaxationKernel, init, config);
        let rep = s.run_adaptive(env, iters);
        (rep, s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    let partition = results[0].2.clone();
    let reports: Vec<SessionReport> = results.iter().map(|(r, _, _)| *r).collect();
    let blocks = results.into_iter().map(|(_, v, _)| v).collect();
    (reassemble(&partition, blocks), reports)
}

#[test]
fn late_arriving_load_triggers_remap_and_stays_correct() {
    let m = mesh();
    let iters = 60;
    let mut expected: Vec<f64> = (0..m.num_vertices()).map(init).collect();
    sequential_relaxation(&m, &mut expected, iters);

    // Load arrives at t=0.05s, well after the run starts, and stays.
    let spec = ClusterSpec::uniform(3)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::competing_load(0.05, f64::INFINITY, 3));
    let (got, reports) = run(&m, spec, &adaptive_config(), iters);
    assert_eq!(got, expected, "values diverged after mid-run remap");
    assert!(
        reports[0].remaps >= 1,
        "late load should trigger a remap: {:?}",
        reports[0]
    );
}

#[test]
fn departing_load_rebalances_back() {
    let m = mesh();
    let iters = 120;
    // Loaded only during the first ~0.08s of the run.
    let spec = ClusterSpec::uniform(2)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::competing_load(0.0, 0.08, 2));
    let report = Cluster::new(spec).run(|env| {
        let config = adaptive_config();
        let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
        let rep = s.run_adaptive(env, iters);
        (rep, s.partition().sizes())
    });
    let (rep0, final_sizes) = &report.ranks[0].result;
    assert!(
        rep0.remaps >= 2,
        "expected shrink then regrow remaps, got {rep0:?}"
    );
    // After the load departs the blocks should be near-equal again.
    let ratio = final_sizes[0] as f64 / final_sizes[1] as f64;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "final blocks should be near-equal, got {final_sizes:?}"
    );
}

#[test]
fn two_loaded_machines_shift_work_to_the_third() {
    let m = mesh();
    let iters = 50;
    let mut expected: Vec<f64> = (0..m.num_vertices()).map(init).collect();
    sequential_relaxation(&m, &mut expected, iters);
    let spec = ClusterSpec::uniform(3)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::constant(0.5))
        .with_load(1, LoadTimeline::constant(0.5));
    let report = Cluster::new(spec).run(|env| {
        let config = adaptive_config();
        let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
        s.run_adaptive(env, iters);
        (
            s.partition().sizes(),
            s.local_values().to_vec(),
            s.partition().clone(),
        )
    });
    let results: Vec<_> = report.into_results();
    let sizes = results[0].0.clone();
    assert!(
        sizes[2] > sizes[0] && sizes[2] > sizes[1],
        "unloaded rank should own the most: {sizes:?}"
    );
    let partition = results[0].2.clone();
    let blocks = results.into_iter().map(|(_, v, _)| v).collect();
    assert_eq!(reassemble(&partition, blocks), expected);
}

#[test]
fn high_margin_suppresses_remaps() {
    let m = mesh();
    let spec = ClusterSpec::uniform(2)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::constant(0.5));
    let mut config = adaptive_config();
    config.balancer.profitability_margin = 1.0e9;
    let (_, reports) = run(&m, spec, &config, 40);
    assert_eq!(reports[0].remaps, 0, "a huge margin must suppress remaps");
    assert!(reports[0].checks > 0);
}

#[test]
fn check_interval_bounds_check_count() {
    let m = mesh();
    for interval in [5usize, 10, 25] {
        let mut config = adaptive_config().with_check_interval(interval);
        config.balancer.profitability_margin = 1.0e9; // decisions: always keep
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let (_, reports) = run(&m, spec, &config, 50);
        let expected_checks = (50 - 1) / interval;
        assert_eq!(
            reports[0].checks, expected_checks,
            "interval {interval} produced wrong check count"
        );
    }
}

/// Churn: an oscillating load timeline (rank 0 repeatedly loses and
/// regains most of its capacity) must force at least 4 controller-driven
/// remaps in one run, with aux arrays attached at every check — and the
/// final values must still match the sequential reference bitwise. This exercises the
/// recycled remap pipeline (`RemapScratch`, schedule/runner rebuild
/// reuse) through repeated shrink/grow cycles rather than a single remap.
#[test]
fn oscillating_load_churn_stays_bitwise_correct() {
    let m = mesh();
    let n = m.num_vertices();
    let blocks = 24;
    let per_block = 10;
    let iters = blocks * per_block;
    let mut expected: Vec<f64> = (0..n).map(init).collect();
    sequential_relaxation(&m, &mut expected, iters);

    // Availability flips between full speed and 1/5 every 160 ms of
    // virtual time — about four blocks at full speed, so the monitor's
    // four-block mean sees each flip — four flips over the run's
    // horizon, each making the current partition wrong again.
    let phases: Vec<LoadPhase> = (0..40)
        .map(|i| LoadPhase {
            start: 0.160 * i as f64,
            available: if i % 2 == 0 { 1.0 } else { 0.2 },
        })
        .collect();
    let config = adaptive_config();
    let spec = ClusterSpec::uniform(2)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::from_phases(phases.clone()));
    let report = Cluster::new(spec).run(|env| {
        // aux[g] = 3g is a second registered field: it rides along
        // through every controller-driven remap.
        let graph = StageGraphBuilder::new()
            .field("values")
            .field("aux")
            .stage("sweep", RelaxationKernel, "values", "values")
            .build();
        let init2 = |name: &str, g| {
            if name == "aux" {
                3.0 * g as f64
            } else {
                init(g)
            }
        };
        let mut s = DataflowSession::setup(env, &m, graph, init2, &config);
        let mut remaps = 0;
        for b in 0..blocks {
            s.run_block(env, per_block);
            if b + 1 < blocks {
                let remaining = iters - (b + 1) * per_block;
                let (remapped, _, _) = s.check_and_rebalance(env, remaining);
                remaps += usize::from(remapped);
            }
        }
        // Aux ownership must match the final partition exactly.
        let iv = s.partition().interval_of(env.rank());
        let aux = s.local("aux");
        assert_eq!(aux.len(), iv.len(), "aux length follows the partition");
        for (offset, g) in iv.iter().enumerate() {
            assert_eq!(aux[offset], 3.0 * g as f64, "aux element strayed");
        }
        (remaps, s.local("values").to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    assert!(
        results[0].0 >= 4,
        "oscillating load should force >= 4 remaps, got {}",
        results[0].0
    );
    let partition = results[0].2.clone();
    let blocks_out = results.into_iter().map(|(_, v, _)| v).collect();
    assert_eq!(
        reassemble(&partition, blocks_out),
        expected,
        "churn run diverged from sequential"
    );
}

/// The same churn on the **native** backend, where load cannot be
/// injected: remaps are forced deterministically through
/// `AdaptiveSession::remap_to` oscillating between skewed partitions,
/// with an aux array attached — wall-clock scheduling must never affect
/// the values (bitwise-identical to the sequential reference).
#[test]
fn native_forced_churn_stays_bitwise_correct() {
    let m = mesh();
    let n = m.num_vertices();
    let cycles = 4;
    let per_phase = 5;
    let iters = cycles * 2 * per_phase;
    let mut expected: Vec<f64> = (0..n).map(init).collect();
    sequential_relaxation(&m, &mut expected, iters);

    let skew_a = BlockPartition::from_sizes(&[n / 5, n / 2, n - n / 5 - n / 2]);
    let skew_b = BlockPartition::from_sizes(&[n / 2, n / 5, n - n / 5 - n / 2]);
    let config = StanceConfig::free();
    let report = stance_native::NativeCluster::new(3).run(|comm| {
        let mut s = AdaptiveSession::setup(comm, &m, RelaxationKernel, init, &config);
        let mut aux: Vec<f64> = s
            .partition()
            .interval_of(comm.rank())
            .iter()
            .map(|g| 3.0 * g as f64)
            .collect();
        for c in 0..cycles {
            s.run_block(comm, per_phase);
            s.remap_to(comm, skew_a.clone(), &mut [&mut aux]);
            s.run_block(comm, per_phase);
            let back = if c + 1 == cycles {
                BlockPartition::uniform(n, 3)
            } else {
                skew_b.clone()
            };
            s.remap_to(comm, back, &mut [&mut aux]);
        }
        let iv = s.partition().interval_of(comm.rank());
        for (offset, g) in iv.iter().enumerate() {
            assert_eq!(aux[offset], 3.0 * g as f64, "aux element strayed");
        }
        (s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    let partition = results[0].1.clone();
    let blocks_out = results.into_iter().map(|(v, _)| v).collect();
    assert_eq!(
        reassemble(&partition, blocks_out),
        expected,
        "native forced churn diverged"
    );
}

/// The full adaptive churn scenario under `with_verification(true)`, on
/// both backends: every schedule build is audited collectively, every
/// remap's redistribution plan is checked, all point-to-point traffic is
/// traced, the final protocol analysis is clean — and the values stay
/// bitwise identical to the sequential reference. The simulator leg runs
/// controller-driven remaps; the native leg forces deterministic churn
/// through `remap_to`.
#[test]
fn verified_adaptive_churn_is_clean_on_both_backends() {
    let m = mesh();
    let n = m.num_vertices();
    let iters = 60;
    let mut expected: Vec<f64> = (0..n).map(init).collect();
    sequential_relaxation(&m, &mut expected, iters);

    let mut config = adaptive_config().with_verification(true);
    config.inspector_cost = InspectorCostModel::zero();
    let spec = ClusterSpec::uniform(3)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::constant(1.0 / 3.0));
    let report = Cluster::new(spec).run(|env| {
        let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
        let rep = s.run_adaptive(env, iters);
        let diags = s.verify_protocol(env);
        assert!(diags.is_empty(), "sim protocol diagnostics: {diags:?}");
        (rep.remaps, s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    assert!(results[0].0 >= 1, "expected a verified remap");
    let partition = results[0].2.clone();
    let blocks = results.into_iter().map(|(_, v, _)| v).collect();
    assert_eq!(
        reassemble(&partition, blocks),
        expected,
        "verified sim churn diverged"
    );

    let skew = BlockPartition::from_sizes(&[n / 5, n / 2, n - n / 5 - n / 2]);
    let config = StanceConfig::free().with_verification(true);
    let report = stance_native::NativeCluster::new(3).run(|comm| {
        let mut s = AdaptiveSession::setup(comm, &m, RelaxationKernel, init, &config);
        s.run_block(comm, iters / 3);
        s.remap_to(comm, skew.clone(), &mut []);
        s.run_block(comm, iters / 3);
        s.remap_to(comm, BlockPartition::uniform(n, 3), &mut []);
        s.run_block(comm, iters - 2 * (iters / 3));
        let diags = s.verify_protocol(comm);
        assert!(diags.is_empty(), "native protocol diagnostics: {diags:?}");
        (s.local_values().to_vec(), s.partition().clone())
    });
    let results: Vec<_> = report.into_results();
    let partition = results[0].1.clone();
    let blocks = results.into_iter().map(|(v, _)| v).collect();
    assert_eq!(
        reassemble(&partition, blocks),
        expected,
        "verified native churn diverged"
    );
}
