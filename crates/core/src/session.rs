//! The adaptive session: the paper's own workload — one kernel sweeping
//! one per-vertex array — as a typed façade over the session engine.
//!
//! There is one engine, [`DataflowSession`]: named fields, a stage graph,
//! blocks of passes separated by load-balance checks, remaps, checkpoints
//! (see [`crate::dataflow`]). An [`AdaptiveSession`] *is* that engine
//! driven by the one-field (`"values"`), one-stage graph `values →
//! values`, with the field name spelled for you: [`local_values`] is
//! `local("values")`, [`run_block`] runs passes of the single stage, and
//! every collective (check, remap, checkpoint, restore, protocol
//! verification) is the engine's own. Nothing about the execution
//! structure lives here — a one-field [`DataflowSession`] built by hand
//! behaves bit-for-bit the same, down to the virtual clock.
//!
//! The session is generic over the application: `E` is the per-vertex
//! [`Element`] and the [`Kernel`] sweeping it is handed to
//! [`AdaptiveSession::setup`] (it must be `'static` — the stage graph
//! owns it). The paper's relaxation is
//! `AdaptiveSession::setup(env, &mesh, RelaxationKernel, init, &config)`.
//!
//! What the façade adds over the engine is the **caller-owned aux
//! array** convention: [`AdaptiveSession::remap_to`] and
//! [`AdaptiveSession::checkpoint`] accept per-vertex arrays the session
//! does not own and carry them along, identified by position (and
//! recorded as `"aux0"`, `"aux1"`, … in checkpoints). Applications whose
//! extra arrays must also follow *controller-driven* remaps register them
//! as fields of a [`DataflowSession`] instead — registered fields move
//! and checkpoint under their own names, automatically.
//!
//! [`local_values`]: AdaptiveSession::local_values
//! [`run_block`]: AdaptiveSession::run_block

use stance_executor::{Kernel, LoopStats};
use stance_inspector::CommSchedule;
use stance_locality::Graph;
use stance_onedim::BlockPartition;
use stance_sim::{Comm, Element};
use stance_verify::{Diagnostic, RankTrace};

use crate::checkpoint::SessionCheckpoint;
use crate::config::StanceConfig;
use crate::dataflow::{DataflowSession, StageGraph, StageGraphBuilder};

pub use crate::dataflow::SessionReport;

/// The façade's single field.
const VALUES: &str = "values";

/// The one-field, one-stage graph `values → values`.
fn one_stage<E: Element>(kernel: impl Kernel<E> + 'static) -> StageGraph<E> {
    StageGraphBuilder::new()
        .field(VALUES)
        .stage("sweep", kernel, VALUES, VALUES)
        .build()
}

/// One rank's state for the adaptive computation of one kernel over one
/// array — see the module docs.
pub struct AdaptiveSession<E: Element = f64> {
    engine: DataflowSession<E>,
}

impl<E: Element> AdaptiveSession<E> {
    /// Collective setup with an equal-share initial decomposition (the
    /// paper's adaptive experiment starts this way: "the graph was
    /// decomposed assuming all the processors had equal computational
    /// ratio"). The application supplies its `kernel` and the initial value
    /// `init(g)` of every global element `g`.
    pub fn setup<C: Comm, K: Kernel<E> + 'static>(
        env: &mut C,
        graph: &Graph,
        kernel: K,
        init: impl Fn(usize) -> E,
        config: &StanceConfig,
    ) -> Self {
        let partition = BlockPartition::uniform(graph.num_vertices(), env.size());
        Self::setup_with_partition(env, graph, partition, kernel, init, config)
    }

    /// Collective setup with an explicit initial partition (e.g. weighted by
    /// known machine speeds).
    pub fn setup_with_partition<C: Comm, K: Kernel<E> + 'static>(
        env: &mut C,
        graph: &Graph,
        partition: BlockPartition,
        kernel: K,
        init: impl Fn(usize) -> E,
        config: &StanceConfig,
    ) -> Self {
        let stages = one_stage(kernel);
        let init = |_: &str, g| init(g);
        AdaptiveSession {
            engine: DataflowSession::setup_with_partition(
                env, graph, partition, stages, init, config,
            ),
        }
    }

    /// The current partition.
    pub fn partition(&self) -> &BlockPartition {
        self.engine.partition()
    }

    /// This rank's owned values (in interval order).
    pub fn local_values(&self) -> &[E] {
        self.engine.local(VALUES)
    }

    /// Replaces this rank's owned values (for workloads that recompute
    /// their input between kernel applications, like a solver's search
    /// direction).
    ///
    /// # Panics
    /// Panics if `values` does not match the rank's current interval.
    pub fn set_local_values(&mut self, values: &[E]) {
        self.engine.set_local(VALUES, values);
    }

    /// The current communication schedule.
    pub fn schedule(&self) -> &CommSchedule {
        self.engine.schedule()
    }

    /// Runs a block of iterations, committing each sweep's output as the
    /// next sweep's input, and records the load measurement. Collective.
    pub fn run_block<C: Comm>(&mut self, env: &mut C, iters: usize) -> LoopStats {
        self.engine.run_block(env, iters)
    }

    /// One load-balance check (and remap, if the controller finds it
    /// profitable). Returns `(remapped, check_cost, rebalance_cost)`.
    /// Collective.
    pub fn check_and_rebalance<C: Comm>(
        &mut self,
        env: &mut C,
        remaining_iters: usize,
    ) -> (bool, f64, f64) {
        self.engine.check_and_rebalance(env, remaining_iters)
    }

    /// The monitor's current per-item time estimate (seconds per element
    /// per sweep), if any measurement or carried estimate exists — see
    /// [`DataflowSession::per_item_estimate`].
    pub fn per_item_estimate(&self) -> Option<f64> {
        self.engine.per_item_estimate()
    }

    /// Forces a remap to an explicitly chosen partition, moving the
    /// session's values (and the caller's aux arrays, in the same
    /// coalesced message per destination) and rebuilding the schedule,
    /// without consulting the controller — see
    /// [`DataflowSession::remap_to`]. Each aux array must hold one
    /// element per owned vertex (in interval order) and is
    /// resized/refilled in place. Collective — every rank must pass the
    /// same `new_partition` and the same number of aux arrays. An
    /// identity remap (the current partition) is a no-op.
    ///
    /// # Panics
    /// Panics if `new_partition` does not cover the same list with the
    /// same number of ranks.
    pub fn remap_to<C: Comm>(
        &mut self,
        env: &mut C,
        new_partition: BlockPartition,
        aux: &mut [&mut Vec<E>],
    ) {
        self.engine.remap_with(env, new_partition, aux);
    }

    /// Checkpoints the session collectively — see
    /// [`DataflowSession::checkpoint`] — including the caller's aux
    /// slices. Each `aux` slice must hold one element per owned vertex
    /// (in interval order); every rank must pass the same number of them.
    ///
    /// The blob's field records are name-keyed: the value array is
    /// recorded as `"values"` and the aux slices under the generated
    /// names `"aux0"`, `"aux1"`, … in argument order. Callers with
    /// meaningful names should register their arrays as fields of a
    /// [`DataflowSession`], which records (and validates on restore)
    /// every field under its own name.
    pub fn checkpoint<C: Comm>(&mut self, env: &mut C, aux: &[&[E]]) -> SessionCheckpoint<E> {
        self.engine.checkpoint_with(env, aux)
    }

    /// Collective restore from a [`SessionCheckpoint`], onto **any** rank
    /// count — see [`DataflowSession::restore`] for the same-width /
    /// cross-width semantics. The `"values"` record becomes the session's
    /// values, wherever it stands; every other record is returned as an
    /// aux array, in record order, localized to this rank's new interval.
    ///
    /// # Panics
    /// Panics if `graph` does not have the checkpoint's element count or
    /// the checkpoint has no `"values"` record.
    pub fn restore<C: Comm, K: Kernel<E> + 'static>(
        env: &mut C,
        graph: &Graph,
        kernel: K,
        ckpt: &SessionCheckpoint<E>,
        config: &StanceConfig,
    ) -> (Self, Vec<Vec<E>>) {
        let engine =
            DataflowSession::restore_registered(env, graph, one_stage(kernel), ckpt, config);
        let iv = engine.partition().interval_of(env.rank());
        let aux = ckpt
            .fields()
            .iter()
            .filter(|(name, _)| name != VALUES)
            .map(|(_, a)| a[iv.start..iv.end].to_vec())
            .collect();
        (AdaptiveSession { engine }, aux)
    }

    /// Analyzes the protocol traces recorded so far — see
    /// [`DataflowSession::verify_protocol`]. Collective when verification
    /// is enabled; a local no-op otherwise.
    pub fn verify_protocol<C: Comm>(&mut self, env: &mut C) -> Vec<Diagnostic> {
        self.engine.verify_protocol(env)
    }

    /// The protocol trace recorded so far — `Some` iff the session was
    /// set up with `StanceConfig::with_verification(true)`.
    pub fn trace(&self) -> Option<&RankTrace> {
        self.engine.trace()
    }

    /// The paper's full execution structure: blocks of `check_interval`
    /// iterations separated by load-balance checks, for `total_iters`
    /// iterations. Collective.
    pub fn run_adaptive<C: Comm>(&mut self, env: &mut C, total_iters: usize) -> SessionReport {
        self.engine.run_adaptive(env, total_iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::testkit::{init, mesh, test_balancer};
    use stance_executor::sequential_relaxation;

    #[test]
    fn static_run_matches_sequential() {
        let m = mesh();
        let n = m.num_vertices();
        let iters = 20;
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, iters);

        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            s.run_adaptive(env, iters);
            s.local_values().to_vec()
        });
        let mut got = Vec::with_capacity(n);
        for r in report.into_results() {
            got.extend(r);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn adaptive_run_with_remap_matches_sequential() {
        // Competing load on rank 0 forces a remap; values must still match
        // the sequential reference bitwise afterwards.
        let m = mesh();
        let n = m.num_vertices();
        let iters = 40;
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, iters);

        let m2 = m.clone();
        let mut config = StanceConfig::default().with_check_interval(10);
        config.balancer = test_balancer();
        let spec = ClusterSpec::uniform(3)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0 / 3.0));
        let report = Cluster::new(spec).run(move |env| {
            let mut s = AdaptiveSession::setup(env, &m2, RelaxationKernel, init, &config);
            let rep = s.run_adaptive(env, iters);
            let part = s.partition().clone();
            (rep, s.local_values().to_vec(), part)
        });
        let results: Vec<_> = report.into_results();
        let (rep0, _, final_part) = &results[0];
        assert!(rep0.remaps >= 1, "expected at least one remap: {rep0:?}");
        // The loaded rank should own fewer elements after the remap.
        let sizes = final_part.sizes();
        assert!(sizes[0] < sizes[1], "loaded rank kept too much: {sizes:?}");
        // Reassemble values in global order via each rank's final interval.
        let mut got = vec![0.0; n];
        for (rank, (_, values, _)) in results.iter().enumerate() {
            let iv = final_part.interval_of(rank);
            got[iv.start..iv.end].copy_from_slice(values);
        }
        assert_eq!(got, expected, "adaptive run diverged from sequential");
    }

    #[test]
    fn teamed_adaptive_run_with_remap_matches_sequential() {
        // Worker teams must survive remaps (lane splits recomputed from
        // the new row count) and stay bitwise-sequential, with load
        // balancing active. The remap
        // decisions themselves may differ from the single-lane run — the
        // team-aware cost model changes what the balancer sees — but the
        // values may not.
        let m = mesh();
        let n = m.num_vertices();
        let iters = 40;
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, iters);

        let m2 = m.clone();
        let mut config = StanceConfig::default().with_check_interval(10).with_team(3);
        config.balancer = test_balancer();
        let spec = ClusterSpec::uniform(3)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0 / 3.0));
        let report = Cluster::new(spec).run(move |env| {
            let mut s = AdaptiveSession::setup(env, &m2, RelaxationKernel, init, &config);
            let rep = s.run_adaptive(env, iters);
            (rep, s.local_values().to_vec(), s.partition().clone())
        });
        let results: Vec<_> = report.into_results();
        assert!(
            results[0].0.remaps >= 1,
            "expected at least one remap: {:?}",
            results[0].0
        );
        let final_part = results[0].2.clone();
        let mut got = vec![0.0; n];
        for (rank, (_, values, _)) in results.iter().enumerate() {
            let iv = final_part.interval_of(rank);
            got[iv.start..iv.end].copy_from_slice(values);
        }
        assert_eq!(got, expected, "teamed adaptive run diverged");
    }

    #[test]
    fn load_balancing_reduces_adaptive_runtime() {
        let m = mesh();
        let iters = 50;
        let run = |lb: bool| {
            let m = m.clone();
            let mut config = if lb {
                StanceConfig::default().with_check_interval(10)
            } else {
                StanceConfig::default().without_load_balancing()
            };
            config.balancer = test_balancer();
            // Zero-cost network isolates the load-balancing effect: at 120
            // vertices, Ethernet message latency would swamp the compute
            // imbalance (the full-scale effect is measured by the Table 5
            // harness).
            let spec = ClusterSpec::uniform(2)
                .with_network(NetworkSpec::zero_cost())
                .with_load(0, LoadTimeline::constant(1.0 / 3.0));
            Cluster::new(spec)
                .run(move |env| {
                    let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
                    s.run_adaptive(env, iters)
                })
                .ranks
                .iter()
                .map(|r| r.clock.as_secs())
                .fold(0.0, f64::max)
        };
        let with_lb = run(true);
        let without_lb = run(false);
        assert!(
            with_lb < without_lb * 0.8,
            "load balancing should help: {with_lb} vs {without_lb}"
        );
    }

    #[test]
    fn no_remap_when_balanced() {
        let m = mesh();
        let config = StanceConfig::default();
        let spec = ClusterSpec::paper_cluster(3);
        let report = Cluster::new(spec).run(|env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            s.run_adaptive(env, 30)
        });
        for rep in report.results() {
            assert_eq!(rep.remaps, 0, "balanced cluster must not remap: {rep:?}");
            assert_eq!(rep.checks, 2);
            assert!(rep.check_cost > 0.0);
            assert_eq!(rep.rebalance_cost, 0.0);
        }
    }

    #[test]
    fn report_counters_consistent() {
        let m = mesh();
        let config = StanceConfig::free().with_check_interval(7);
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            s.run_adaptive(env, 21)
        });
        for rep in report.results() {
            assert_eq!(rep.iterations, 21);
            assert_eq!(rep.checks, 2); // after blocks 1 and 2, none after the last
        }
    }

    /// Regression (monitor continuity): `apply_remap` used to reset the
    /// monitor outright, so a rank that records nothing after the remap
    /// (here: its new block is empty) reported `per_item = 0.0` at the
    /// next check. The controller's fallback then treats the silent rank
    /// as average-speed and thrashes work straight back onto a machine
    /// that is 1000x slower. With the carried estimate, the first
    /// post-remap check is informed and keeps the work where it belongs.
    #[test]
    fn first_post_remap_check_is_informed_on_empty_blocks() {
        let m = mesh();
        let mut config = StanceConfig::default().with_check_interval(10);
        config.balancer = test_balancer();
        let spec = ClusterSpec::uniform(2)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0e-3));
        let report = Cluster::new(spec).run(|env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            s.run_block(env, 10);
            let (first, _, _) = s.check_and_rebalance(env, 10_000);
            let sizes = s.partition().sizes();
            // Post-remap block: an empty block records no sample on the
            // loaded rank …
            s.run_block(env, 10);
            // … yet the per-item estimate is carried across the remap.
            let informed = s.per_item_estimate().is_some();
            let (second, _, _) = s.check_and_rebalance(env, 10_000);
            (first, sizes, informed, second)
        });
        for (first, sizes, informed, second) in report.results() {
            assert!(*first, "the 1000x load must trigger the first remap");
            assert_eq!(sizes[0], 0, "the loaded rank should own nothing: {sizes:?}");
            assert!(*informed, "the estimate must survive the remap");
            assert!(
                !*second,
                "an informed post-remap check must not thrash work back"
            );
        }
    }

    /// Anti-starvation companion to the carried-estimate fix: a silenced
    /// rank (empty block, so no measurements can refute its carried
    /// estimate) answers a bounded number of checks from the carry, after
    /// which the estimate expires and the controller's average-capability
    /// fallback probes the rank with work again. If the machine is still
    /// slow, the very next check measures that and moves the work away; if
    /// the transient load is gone, the probe is what hands the cluster its
    /// capacity back — either way the rank is never starved forever.
    #[test]
    fn carry_expiry_probes_a_silenced_rank() {
        let m = mesh();
        let mut config = StanceConfig::default().with_check_interval(10);
        config.balancer = test_balancer();
        let spec = ClusterSpec::uniform(2)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0e-3));
        let report = Cluster::new(spec).run(|env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            s.run_block(env, 10);
            let (first, _, _) = s.check_and_rebalance(env, 10_000);
            let emptied = s.partition().sizes()[0] == 0;
            // Carried-estimate checks: informed Keeps, no thrash.
            let mut kept = 0;
            for _ in 0..3 {
                s.run_block(env, 10);
                let (remapped, _, _) = s.check_and_rebalance(env, 10_000);
                kept += usize::from(!remapped);
            }
            // Budget exhausted: the next check probes the silent rank.
            s.run_block(env, 10);
            let (probed, _, _) = s.check_and_rebalance(env, 10_000);
            let probe_sizes = s.partition().sizes();
            // The probe hands the rank real work, it measures (still slow),
            // and the following check moves the work away again.
            s.run_block(env, 10);
            let (corrected, _, _) = s.check_and_rebalance(env, 10_000);
            let final_sizes = s.partition().sizes();
            (
                first,
                emptied,
                kept,
                probed,
                probe_sizes,
                corrected,
                final_sizes,
            )
        });
        for (first, emptied, kept, probed, probe_sizes, corrected, final_sizes) in report.results()
        {
            assert!(*first && *emptied, "setup: loaded rank should be emptied");
            assert_eq!(*kept, 3, "carried checks must keep the assignment");
            assert!(*probed, "expired carry must trigger a probe remap");
            assert!(
                probe_sizes[0] > 0,
                "the probe should hand the silent rank work: {probe_sizes:?}"
            );
            assert!(*corrected, "fresh slow measurements must move work away");
            assert!(
                final_sizes[0] < probe_sizes[0],
                "correction should shrink the slow rank again: {final_sizes:?} vs {probe_sizes:?}"
            );
        }
    }

    /// `remap_to` is the deterministic repartitioning entry point: an
    /// explicit chain of forced remaps must keep values bitwise equal to
    /// the sequential reference, and an identity remap must be free.
    #[test]
    fn forced_remap_chain_matches_sequential() {
        let m = mesh();
        let n = m.num_vertices();
        let iters = 30;
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, iters);

        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            let phases = [
                BlockPartition::from_sizes(&[20, 40, 60]),
                BlockPartition::from_sizes(&[60, 40, 20]),
                BlockPartition::uniform(n, 3),
            ];
            for part in phases {
                s.run_block(env, iters / 6);
                s.remap_to(env, part, &mut []);
                s.run_block(env, iters / 6);
            }
            // Identity remap: a no-op — no messages, same partition.
            let msgs_before = env.stats().messages_sent;
            let ident = s.partition().clone();
            s.remap_to(env, ident, &mut []);
            assert_eq!(
                env.stats().messages_sent,
                msgs_before,
                "identity must be free"
            );
            (s.local_values().to_vec(), s.partition().clone())
        });
        let results: Vec<_> = report.into_results();
        let partition = results[0].1.clone();
        let blocks = results.into_iter().map(|(v, _)| v).collect();
        assert_eq!(
            crate::reassemble(&partition, blocks),
            expected,
            "forced remap chain diverged from sequential"
        );
    }

    /// Verification is numerically free: a verified adaptive run (audits
    /// after setup and every remap, all p2p traffic traced) produces
    /// bitwise the same values as the sequential reference, and the
    /// collected traces analyze clean.
    #[test]
    fn verified_adaptive_run_is_clean_and_bitwise_identical() {
        let m = mesh();
        let n = m.num_vertices();
        let iters = 40;
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, iters);

        let m2 = m.clone();
        let mut config = StanceConfig::default()
            .with_check_interval(10)
            .with_verification(true);
        config.balancer = test_balancer();
        let spec = ClusterSpec::uniform(3)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0 / 3.0));
        let report = Cluster::new(spec).run(move |env| {
            let mut s = AdaptiveSession::setup(env, &m2, RelaxationKernel, init, &config);
            let rep = s.run_adaptive(env, iters);
            let diags = s.verify_protocol(env);
            let events = s.trace().map_or(0, |t| t.events.len());
            (
                rep,
                s.local_values().to_vec(),
                s.partition().clone(),
                diags,
                events,
            )
        });
        let results: Vec<_> = report.into_results();
        assert!(
            results[0].0.remaps >= 1,
            "the forced load should remap under verification too: {:?}",
            results[0].0
        );
        for (rank, (_, _, _, diags, events)) in results.iter().enumerate() {
            assert!(
                diags.is_empty(),
                "rank {rank} protocol diagnostics: {diags:?}"
            );
            assert!(*events > 0, "rank {rank} recorded no events");
        }
        let final_part = results[0].2.clone();
        let mut got = vec![0.0; n];
        for (rank, (_, values, _, _, _)) in results.iter().enumerate() {
            let iv = final_part.interval_of(rank);
            got[iv.start..iv.end].copy_from_slice(values);
        }
        assert_eq!(got, expected, "verified adaptive run diverged");
    }

    /// With verification off the protocol check is a local no-op: no
    /// trace exists, no messages move, the returned report is empty.
    #[test]
    fn verify_protocol_is_free_when_disabled() {
        let m = mesh();
        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            s.run_block(env, 5);
            let msgs = env.stats().messages_sent;
            let diags = s.verify_protocol(env);
            (
                diags.is_empty(),
                s.trace().is_none(),
                env.stats().messages_sent == msgs,
            )
        });
        for (empty, no_trace, no_msgs) in report.results() {
            assert!(*empty && *no_trace && *no_msgs);
        }
    }

    /// A checkpoint is replicated and restoring it onto the same rank
    /// count continues bitwise-identically to the uninterrupted run —
    /// values, aux arrays and monitor state all survive the round trip.
    #[test]
    fn checkpoint_restore_same_width_is_bitwise() {
        let m = mesh();
        let iters = 10;
        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            let aux: Vec<f64> = s
                .partition()
                .interval_of(env.rank())
                .iter()
                .map(|g| 2.0 * g as f64)
                .collect();
            s.run_block(env, iters);
            let ckpt = s.checkpoint(env, &[&aux]);
            // Uninterrupted continuation …
            s.run_block(env, iters);
            let uninterrupted = s.local_values().to_vec();
            // … versus a fresh session restored from the checkpoint.
            let (mut r, raux) = AdaptiveSession::restore(env, &m, RelaxationKernel, &ckpt, &config);
            assert_eq!(raux.len(), 1);
            assert_eq!(raux[0], aux, "aux array must survive the round trip");
            assert_eq!(
                r.per_item_estimate().map(f64::to_bits),
                s.per_item_estimate().map(f64::to_bits),
                "monitor estimate must be restored bit-for-bit"
            );
            r.run_block(env, iters);
            (uninterrupted, r.local_values().to_vec())
        });
        for (uninterrupted, restored) in report.results() {
            assert_eq!(uninterrupted, restored, "restored run diverged");
        }
    }

    /// Restoring onto a *different* rank count (the shrink path) lands on
    /// the uniform partition and continues correctly: a 2-rank restore of
    /// a 4-rank checkpoint finishes bitwise-identical to the sequential
    /// reference.
    #[test]
    fn restore_onto_fewer_ranks_matches_sequential() {
        let m = mesh();
        let n = m.num_vertices();
        let (first, rest) = (10, 20);
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, first + rest);

        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(4).with_network(NetworkSpec::zero_cost());
        let blob = Cluster::new(spec)
            .run(|env| {
                let mut s = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
                s.run_block(env, first);
                s.checkpoint(env, &[]).to_bytes()
            })
            .into_results()
            .pop()
            .expect("one blob per rank");
        let ckpt = SessionCheckpoint::<f64>::from_bytes(&blob).expect("a valid blob");
        assert_eq!(ckpt.num_procs(), 4);

        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let (mut s, aux) = AdaptiveSession::restore(env, &m, RelaxationKernel, &ckpt, &config);
            assert!(aux.is_empty());
            s.run_block(env, rest);
            (s.local_values().to_vec(), s.partition().clone())
        });
        let results: Vec<_> = report.into_results();
        let partition = results[0].1.clone();
        let blocks = results.into_iter().map(|(v, _)| v).collect();
        assert_eq!(
            crate::reassemble(&partition, blocks),
            expected,
            "cross-width restore diverged from sequential"
        );
    }

    #[test]
    #[should_panic(expected = "partition has")]
    fn setup_rejects_wrong_partition_width() {
        let m = mesh();
        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let bad = BlockPartition::uniform(m.num_vertices(), 3);
            let _ = AdaptiveSession::setup_with_partition(
                env,
                &m,
                bad,
                RelaxationKernel,
                init,
                &config,
            );
        });
    }
}
