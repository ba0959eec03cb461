//! A distributed preconditioned conjugate-gradient solver — a second
//! application class on the same runtime, running through the
//! **multi-field dataflow session**: the solver registers its vectors as
//! named fields (`x`, `r`, `u`, `Au`, `p`, `Ap`) and declares a two-stage
//! kernel graph, and the session supplies partitioning, fused ghost
//! exchange, and the paper's adaptive load balancing for *all* of them at
//! once.
//!
//! The iteration is the Chronopoulos–Gear form of Jacobi-preconditioned
//! CG, which folds the preconditioner solve and the matvec into one
//! session pass:
//!
//! ```text
//! stage "precond" (local):    u  = M⁻¹ r        M = diag(L + I)
//! stage "matvec"  (gathered): Au = (L + I) u
//! ```
//!
//! `precond` reads owned entries only, so the only ghost exchange per
//! iteration is `u`'s — one fused message per neighbor, between the two
//! stages. The host combines the pass's outputs with two dot products
//! (allreduce) and updates `p`, `Ap`, `x`, `r` through named
//! `set_local` writes. Every `check_interval` iterations the session runs
//! a load-balance check; when a competing job on workstation 0 makes a
//! remap profitable, **every registered field moves to the new
//! distribution automatically** — no positional aux-array bookkeeping —
//! and the iteration continues seamlessly.
//!
//! Solves `(L + I) x = b` where `L` is the mesh Laplacian and `b` is chosen
//! so the exact solution is `x*[i] = sin(0.01 i)`; reports convergence,
//! remaps, and checks the result.
//!
//! ```text
//! cargo run --release --example cg_solver
//! ```

use stance::balance::BalancerConfig;
use stance::executor::sequential_laplacian_matvec;
use stance::inspector::TranslatedAdjacency;
use stance::onedim::RedistCostModel;
use stance::prelude::*;

const SHIFT: f64 = 1.0;
const MAX_ITERS: usize = 200;

/// The Jacobi preconditioner as a stage kernel: `u[i] = r[i] / (deg(i) +
/// SHIFT)` — the inverse of `diag(L + I)`. Pointwise, so the stage reads
/// owned entries only (`stage_local`) and never needs a ghost exchange.
struct JacobiKernel;

impl Kernel<f64> for JacobiKernel {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
        for (l, o) in out.iter_mut().enumerate() {
            *o = combined[l] / (tadj.neighbors_of(l).len() as f64 + SHIFT);
        }
    }
}

fn main() {
    let raw = stance::locality::meshgen::triangulated_grid(40, 40, 0.4, 19);
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Spectral);
    let n = mesh.num_vertices();
    println!("solving (L + I)x = b on a {n} vertex mesh, 4 workstations");
    println!("competing job on workstation 0 (availability 1/3) — load balancing on\n");

    // Manufactured solution and right-hand side.
    let x_star: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).sin()).collect();
    let mut b = vec![0.0; n];
    sequential_laplacian_matvec(&mesh, &x_star, SHIFT, &mut b);

    // An adaptive environment: rank 0 loses 2/3 of its capacity to a
    // competing job. The balancer is scaled to this 1.6k-vertex mesh (the
    // defaults assume the paper's 30k workload).
    let spec = ClusterSpec::uniform(4)
        .with_network(NetworkSpec::zero_cost())
        .with_load(0, LoadTimeline::competing_load(0.0, f64::INFINITY, 2));
    let config = StanceConfig {
        check_interval: 10,
        balancer: BalancerConfig {
            redist_model: RedistCostModel {
                per_message: 1.0e-4,
                per_element: 1.0e-7,
            },
            rebuild_cost_hint: 1.0e-4,
            profitability_margin: 1.0,
            use_mcr: true,
        },
        ..StanceConfig::default()
    };

    let mesh_ref = &mesh;
    let b_ref = &b;
    let report = Cluster::new(spec).run(move |env| {
        // The solver's whole state, registered (and checkpointed) by
        // name. One pass = precond then matvec, with u's fused exchange
        // between them.
        let graph = StageGraphBuilder::new()
            .field("x")
            .field("r")
            .field("u")
            .field("Au")
            .field("p")
            .field("Ap")
            .stage_local("precond", JacobiKernel, "r", "u")
            .stage("matvec", LaplacianKernel { shift: SHIFT }, "u", "Au")
            .build();
        let mut session = DataflowSession::setup(
            env,
            mesh_ref,
            graph,
            // x = 0, r = b - A·0 = b; the rest starts zero and is
            // overwritten before first use.
            |name, g| if name == "r" { b_ref[g] } else { 0.0 },
            &config,
        );

        let dot = |env: &mut Env, a: &[f64], c: &[f64]| -> f64 {
            let local: f64 = a.iter().zip(c).map(|(x, y)| x * y).sum();
            env.allreduce_f64(Tag(1), local, |u, v| u + v)
        };

        let rr0 = {
            let r = session.local("r").to_vec();
            dot(env, &r, &r)
        };

        // First pass: u0 = M⁻¹ r0, Au0 = A u0; then p0 = u0, Ap0 = Au0,
        // α0 = γ0/δ0.
        session.run_block(env, 1);
        let (mut gamma, mut alpha) = {
            let r = session.local("r").to_vec();
            let u = session.local("u").to_vec();
            let au = session.local("Au").to_vec();
            let gamma = dot(env, &r, &u);
            let delta = dot(env, &au, &u);
            session.set_local("p", &u);
            session.set_local("Ap", &au);
            (gamma, gamma / delta)
        };

        let mut rr = rr0;
        let mut iterations = 0;
        let mut remaps = 0;
        for k in 0..MAX_ITERS {
            // x += α p, r -= α Ap.
            {
                let mut x = session.local("x").to_vec();
                let mut r = session.local("r").to_vec();
                let p = session.local("p").to_vec();
                let ap = session.local("Ap").to_vec();
                for i in 0..x.len() {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * ap[i];
                }
                session.set_local("x", &x);
                session.set_local("r", &r);
                rr = dot(env, &r, &r);
            }
            iterations = k + 1;
            if env.rank() == 0 && k % 10 == 0 {
                println!("  iter {k:>3}: relative residual {:.3e}", (rr / rr0).sqrt());
            }
            if rr <= rr0 * 1e-20 {
                break;
            }

            // One pass: u = M⁻¹ r (local), fused exchange of u, Au = A u.
            session.run_block(env, 1);

            // The Chronopoulos–Gear recurrences: both dots come from the
            // same pass, then the search directions fold in.
            {
                let r = session.local("r").to_vec();
                let u = session.local("u").to_vec();
                let au = session.local("Au").to_vec();
                let gamma_new = dot(env, &r, &u);
                let delta = dot(env, &au, &u);
                let beta = gamma_new / gamma;
                alpha = gamma_new / (delta - beta * gamma_new / alpha);
                gamma = gamma_new;
                let mut p = session.local("p").to_vec();
                let mut ap = session.local("Ap").to_vec();
                for i in 0..p.len() {
                    p[i] = u[i] + beta * p[i];
                    ap[i] = au[i] + beta * ap[i];
                }
                session.set_local("p", &p);
                session.set_local("Ap", &ap);
            }

            // Periodic load-balance check (collective; the residual test
            // above is identical on every rank, so all ranks get here
            // together). On a remap every named field — x, r, u, Au, p,
            // Ap — moves with the session.
            if (k + 1) % config.check_interval == 0 {
                let (remapped, _, _) = session.check_and_rebalance(env, MAX_ITERS - (k + 1));
                if remapped {
                    remaps += 1;
                    if env.rank() == 0 {
                        println!(
                            "  iter {:>3}: REMAP -> block sizes {:?}",
                            k + 1,
                            session.partition().sizes()
                        );
                    }
                }
            }
        }
        let partition = session.partition().clone();
        (
            session.local("x").to_vec(),
            iterations,
            (rr / rr0).sqrt(),
            remaps,
            partition,
            env.now().as_secs(),
        )
    });

    let (_, iters, rel_res, remaps, _, _) = &report.ranks[0].result;
    println!(
        "\nconverged in {iters} iterations with {remaps} remap(s), relative residual {rel_res:.3e}, makespan {:.3}s",
        report.makespan()
    );
    assert!(
        *remaps >= 1,
        "the loaded workstation should have triggered at least one remap"
    );

    // Verify against the manufactured solution (reassemble along the FINAL
    // partition — the remap moved the blocks).
    let results: Vec<_> = report.into_results();
    let partition = results[0].4.clone();
    let blocks: Vec<Vec<f64>> = results.into_iter().map(|(x, ..)| x).collect();
    let solution = stance::reassemble(&partition, blocks);
    let max_err = solution
        .iter()
        .zip(&x_star)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max)
        / x_star.iter().map(|v| v.abs()).fold(0.0f64, f64::max);
    println!("max relative error vs exact solution: {max_err:.3e}");
    assert!(max_err < 1e-8, "CG failed to converge to the solution");
    println!("verified.");
}
