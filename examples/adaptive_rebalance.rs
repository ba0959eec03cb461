//! An *adaptive* environment: a competing job arrives on workstation 0
//! partway through the run and departs later. The load balancer detects the
//! change at its periodic checks, remaps twice (shrinking then re-growing
//! rank 0's block), and the timeline of decisions is printed.
//!
//! ```text
//! cargo run --release --example adaptive_rebalance
//! ```

use stance::balance::BalancerConfig;
use stance::onedim::RedistCostModel;
use stance::prelude::*;

fn main() {
    let raw = stance::locality::meshgen::triangulated_grid(60, 50, 0.5, 11);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Rcb);
    println!(
        "mesh: {} vertices, {} edges on 3 workstations",
        mesh.num_vertices(),
        mesh.num_edges()
    );

    // A competing job occupies workstation 0 between t = 1 s and t = 2.5 s
    // (two competitors: availability drops to 1/3).
    let spec = ClusterSpec::uniform(3)
        .with_network(NetworkSpec::ethernet_10mbit())
        .with_load(0, LoadTimeline::competing_load(1.0, 2.5, 2));
    println!("competing load on rank 0 between t=1s and t=2.5s (availability 1/3)\n");

    let config = StanceConfig {
        check_interval: 10,
        balancer: BalancerConfig {
            redist_model: RedistCostModel::ethernet_f64(),
            rebuild_cost_hint: 0.02,
            profitability_margin: 1.0,
            use_mcr: true,
        },
        ..StanceConfig::default()
    };
    let total_iters = 200;

    let mesh_ref = &mesh;
    let report = Cluster::new(spec).run(move |env| {
        let mut session = AdaptiveSession::setup(
            env,
            mesh_ref,
            RelaxationKernel,
            |g| g as f64 * 1e-3,
            &config,
        );
        let mut timeline = Vec::new();
        let mut done = 0;
        while done < total_iters {
            session.run_block(env, config.check_interval);
            done += config.check_interval;
            if done >= total_iters {
                break;
            }
            let sizes_before = session.partition().sizes();
            let (remapped, check, rebalance) = session.check_and_rebalance(env, total_iters - done);
            if env.rank() == 0 {
                timeline.push((
                    done,
                    env.now().as_secs(),
                    remapped,
                    sizes_before,
                    session.partition().sizes(),
                    check,
                    rebalance,
                ));
            }
        }
        (env.now().as_secs(), timeline)
    });

    let (finish, timeline) = &report.ranks[0].result;
    println!("decision timeline (rank 0's view):");
    for (iter, t, remapped, before, after, check, rebalance) in timeline {
        if *remapped {
            println!(
                "  iter {iter:>3} @ t={t:7.3}s  REMAP {before:?} -> {after:?}  (check {check:.4}s, move+rebuild {rebalance:.4}s)"
            );
        } else {
            println!("  iter {iter:>3} @ t={t:7.3}s  keep  {after:?}  (check {check:.4}s)");
        }
    }
    println!(
        "\nfinished at t = {finish:.3}s (makespan {:.3}s)",
        report.makespan()
    );
    println!(
        "expected pattern: remaps soon after t=1s (rank 0 shrinks), another after\n\
         t=2.5s (rank 0 grows back), keeps everywhere else."
    );
}
