//! The session engine: named fields + kernel-stage DAGs driven through
//! the paper's execution structure, with fused ghost exchange.
//!
//! The paper has exactly one execution structure — Phase D's *gather →
//! sweep* loop run in blocks, a load-balance check between blocks, and a
//! remap (move data, re-run the inspector) when the check says so — and
//! this module is its one implementation. Real adaptive applications (the
//! CG example already) sweep *several* kernels over *several* per-vertex
//! arrays each outer iteration, so the engine is built around that shape:
//!
//! * a field registry — **named** per-vertex arrays (name →
//!   [`GhostedArray`]): every registered field moves through remaps and
//!   checkpoints automatically, keyed by name;
//! * a [`StageGraph`] — kernel stages declaring which field they read and
//!   which they write. Its builder checks the declaration itself
//!   (duplicate names, undeclared accesses, dependency cycles, reported
//!   as [`Diagnostic`]s) and orders the stages with one Kahn pass over
//!   the resolved field indices, ties going to declaration order;
//! * a [`DataflowSession`] — one rank's share of the computation
//!   (partition interval, mesh rows, field values, load monitor) plus a
//!   [`LoopRunner`], which owns everything sized from the communication
//!   schedule and performs the one exchange + sweep stage step. Ghost
//!   gathers for fields exchanged at the same dataflow point are **fused
//!   into one message per neighbor per pass**
//!   ([`gather_fused`](stance_executor::gather_fused) on
//!   `TAG_GATHER_FUSED`), and gathers for fields whose writers have not
//!   run since the last exchange are **skipped** (dirty-tracking).
//!
//! [`AdaptiveSession`](crate::AdaptiveSession) — one kernel over one
//! array, the paper's own workload — is the one-field, one-stage spelling
//! of this engine, not a second implementation.
//!
//! The engine is backend-generic: every method that communicates takes
//! any [`Comm`] — the virtual-time simulator (`stance_sim::Env`) for
//! reproducible experiments, or the native thread-pool and TCP process
//! backends for real-hardware runs, where the load monitor feeds on
//! measured wall-clock times instead of modelled ones. All such methods
//! are collectives: every rank of the cluster must call them in the same
//! order (the SPMD contract of §2).
//!
//! With `StanceConfig::with_verification(true)` the session *checks* that
//! contract as it runs: every schedule build and remap is followed by a
//! collective audit of the global invariants (intervals tile, ghosts
//! resolve to owners, one segment per peer and direction, send/recv lists
//! pairwise symmetric — see [`stance_verify`]), each remap's
//! redistribution plan is audited against the old and new partitions, and
//! all traffic, collectives included, is recorded by a
//! [`TraceHook`] on the session's [`Interposed`] communicator — what a
//! [`CheckedComm`](stance_verify::CheckedComm) is — whose trace
//! [`DataflowSession::verify_protocol`] analyzes collectively. A violated
//! invariant panics with the full diagnostic report; results stay bitwise
//! identical either way, and with verification off the hook is `None` and
//! none of the machinery is constructed.
//!
//! ## Exchange points, fusion and skipping
//!
//! At build time every *gathered* read is assigned an **exchange point**:
//! immediately after the latest stage (in topological order) that writes
//! the field — or the start of the pass if no stage writes it before the
//! reader. Reads assigned to the same point form one **fusion group**; at
//! runtime the group is filtered by per-field dirty flags (set when a
//! stage commits a field or the host calls
//! [`DataflowSession::set_local`], cleared by the gather) and the
//! surviving fields travel in **one** message per neighbor. A field
//! nobody re-wrote drops out of its group; a field nobody reads is never
//! gathered at all.
//!
//! All of this is replicated SPMD state — the graph is identical on every
//! rank and host writes are collective — so the dirty filter agrees
//! across ranks and the fused wire format (one segment per selected
//! field, in group order) always matches.
//!
//! Fusion changes *message count*, never bytes or values: the ghosts a
//! fused message lands are bitwise those of per-field gathers (pinned at
//! the primitive, [`stance_executor::gather_fused`] against
//! [`stance_executor::gather`]).

use stance_balance::{load_balance_step, Decision, LoadMonitor, RemapScratch};
use stance_executor::{GhostedArray, Kernel, LoopRunner, LoopStats};
use stance_inspector::{
    build_schedule_symmetric_with, CommSchedule, MeshRows, Rows, ScheduleScratch, ScheduleStrategy,
};
use stance_locality::Graph;
use stance_onedim::BlockPartition;
use stance_sim::tags::TAG_CHECKPOINT;
use stance_sim::{Collectives, Comm, Element, Payload};
use stance_verify::{
    analyze_collective, audit_collective, audit_redistribution, expect_clean, Diagnostic,
    DiagnosticKind, Interposed, RankTrace, TraceHook,
};

use crate::checkpoint::{CheckpointError, SessionCheckpoint};
use crate::config::StanceConfig;

/// Aggregate timing of an adaptive run on one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionReport {
    /// Executor iterations performed.
    pub iterations: usize,
    /// Seconds in the compute sweep (virtual on the simulator, wall-clock
    /// on the native backend).
    pub compute_time: f64,
    /// Load-balance checks performed.
    pub checks: usize,
    /// Remaps performed.
    pub remaps: usize,
    /// Seconds spent in checks (gather + decision + broadcast).
    pub check_cost: f64,
    /// Seconds spent remapping (data movement + schedule rebuild).
    pub rebalance_cost: f64,
    /// This rank's clock when the run finished.
    pub total_time: f64,
}

/// The registry of a session's named per-vertex arrays: one
/// [`GhostedArray`] per field, addressed by name, plus the per-field
/// dirty flag the fused exchange uses to skip gathers of fields whose
/// writers have not run. Each field is one record of a checkpoint, under
/// its name.
pub(crate) struct FieldSet<E: Element = f64> {
    names: Vec<String>,
    pub(crate) arrays: Vec<GhostedArray<E>>,
    /// `dirty[f]` — field `f`'s owned block changed since its ghosts were
    /// last gathered. Starts all-true (initial values were never
    /// exchanged).
    pub(crate) dirty: Vec<bool>,
}

impl<E: Element> FieldSet<E> {
    fn must_index(&self, name: &str) -> usize {
        // Caller error: the name must be one the graph registered.
        self.names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("no field named {name:?} (fields: {:?})", self.names))
    }
}

/// One stage: the kernel plus the fields it reads and writes — by name
/// (`F = String`) as declared, by registration index once built.
struct Stage<E: Element, F = usize> {
    name: String,
    kernel: Box<dyn Kernel<E>>,
    /// The field the kernel sweeps over.
    input: F,
    /// Whether the input is read through its ghosts (and therefore needs
    /// an exchange) or owned entries only.
    gathered: bool,
    /// The field the sweep's output commits to.
    output: F,
}

/// A declaration resolved by [`StageGraphBuilder::validate`]'s checks:
/// every stage's `(input, output)` field indices in declaration order,
/// and the execution order over them.
type Resolved = (Vec<(usize, usize)>, Vec<usize>);

/// Declares a [`StageGraph`]: register fields with
/// [`StageGraphBuilder::field`], then stages with
/// [`StageGraphBuilder::stage`] (ghost-reading input) or
/// [`StageGraphBuilder::stage_local`] (owned-only input).
/// [`StageGraphBuilder::build`] checks the declaration and computes the
/// deterministic schedule; [`StageGraphBuilder::validate`] exposes the
/// diagnostics without panicking.
pub struct StageGraphBuilder<E: Element = f64> {
    fields: Vec<String>,
    stages: Vec<Stage<E, String>>,
}

impl<E: Element> Default for StageGraphBuilder<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Element> StageGraphBuilder<E> {
    /// An empty builder.
    pub fn new() -> Self {
        StageGraphBuilder {
            fields: Vec::new(),
            stages: Vec::new(),
        }
    }

    /// Registers a named per-vertex field. Registration order is the
    /// session's field order and a checkpoint's record order.
    pub fn field(mut self, name: &str) -> Self {
        self.fields.push(name.to_string());
        self
    }

    /// Declares a stage that sweeps `kernel` over field `reads` —
    /// through its **ghosts**, so the runtime exchanges the field's
    /// boundary before the stage runs — and commits the output to field
    /// `writes`. `reads == writes` declares an in-place update (the
    /// relaxation pattern) and creates no self-dependency.
    pub fn stage(
        self,
        name: &str,
        kernel: impl Kernel<E> + 'static,
        reads: &str,
        writes: &str,
    ) -> Self {
        self.push(name, Box::new(kernel), reads, true, writes)
    }

    /// Like [`StageGraphBuilder::stage`], but the kernel promises to
    /// read **owned** entries of `reads` only (e.g. a pointwise
    /// preconditioner), so the field needs no ghost exchange for this
    /// stage and never triggers one.
    pub fn stage_local(
        self,
        name: &str,
        kernel: impl Kernel<E> + 'static,
        reads: &str,
        writes: &str,
    ) -> Self {
        self.push(name, Box::new(kernel), reads, false, writes)
    }

    /// Appends one stage as declared.
    fn push(
        mut self,
        name: &str,
        kernel: Box<dyn Kernel<E>>,
        reads: &str,
        gathered: bool,
        writes: &str,
    ) -> Self {
        self.stages.push(Stage {
            name: name.to_string(),
            kernel,
            input: reads.to_string(),
            gathered,
            output: writes.to_string(),
        });
        self
    }

    /// The declaration's dataflow diagnostics (empty means
    /// [`StageGraphBuilder::build`] will succeed): duplicate field or
    /// stage names, reads/writes of unregistered fields, dependency
    /// cycles. The details name the stage and the field.
    pub fn validate(&self) -> Vec<Diagnostic> {
        self.resolve().err().unwrap_or_default()
    }

    /// Resolves every stage's `(input, output)` to field indices and
    /// orders the stages, or returns every diagnostic found. The order is
    /// one Kahn pass over the resolved indices: stage `a` precedes stage
    /// `b` iff `a != b` and `a`'s output is `b`'s input, and the lowest
    /// ready declaration index goes first, so the schedule is identical
    /// on every rank and across runs. The stages the pass cannot place
    /// are reported as the cycle. The graph is replicated data, so the
    /// diagnostics carry rank 0.
    fn resolve(&self) -> Result<Resolved, Vec<Diagnostic>> {
        let mut diags = Vec::new();
        let fields = &self.fields;
        for (i, f) in fields.iter().enumerate() {
            if fields[..i].contains(f) {
                diags.push(Diagnostic::new(
                    DiagnosticKind::DuplicateFieldName,
                    0,
                    format!("field {f:?} is registered more than once"),
                ));
            }
        }
        let mut access = Vec::with_capacity(self.stages.len());
        for (i, s) in self.stages.iter().enumerate() {
            if self.stages[..i].iter().any(|t| t.name == s.name) {
                diags.push(Diagnostic::new(
                    DiagnosticKind::DuplicateStageName,
                    0,
                    format!("stage {:?} is declared more than once", s.name),
                ));
            }
            let [input, output] = [("reads", &s.input), ("writes", &s.output)].map(|(what, f)| {
                let index = fields.iter().position(|g| g == f);
                if index.is_none() {
                    diags.push(Diagnostic::new(
                        DiagnosticKind::UndeclaredFieldAccess,
                        0,
                        format!("stage {:?} {what} unregistered field {f:?}", s.name),
                    ));
                }
                index
            });
            access.extend(input.zip(output));
        }
        // Ordering only makes sense on a graph whose names resolve.
        if !diags.is_empty() {
            return Err(diags);
        }
        let m = access.len();
        let edge = |a: usize, b: usize| a != b && access[a].1 == access[b].0;
        let mut indegree: Vec<usize> = (0..m)
            .map(|b| (0..m).filter(|&a| edge(a, b)).count())
            .collect();
        let mut order = Vec::with_capacity(m);
        while let Some(next) = (0..m).find(|&i| indegree[i] == 0 && !order.contains(&i)) {
            order.push(next);
            for (b, deg) in indegree.iter_mut().enumerate() {
                if edge(next, b) {
                    *deg -= 1;
                }
            }
        }
        if order.len() < m {
            let cycle: Vec<&str> = (0..m)
                .filter(|i| !order.contains(i))
                .map(|i| self.stages[i].name.as_str())
                .collect();
            return Err(vec![Diagnostic::new(
                DiagnosticKind::StageCycle,
                0,
                format!(
                    "stage dependencies contain a cycle through {}",
                    cycle.join(" -> ")
                ),
            )]);
        }
        Ok((access, order))
    }

    /// Validates the declaration and computes the deterministic stage
    /// schedule and exchange plan.
    ///
    /// # Panics
    /// Panics with the full diagnostic report if the declaration is
    /// invalid, or if no field or no stage was registered.
    pub fn build(self) -> StageGraph<E> {
        // Caller error: a graph with no field has no state to compute on.
        assert!(
            !self.fields.is_empty(),
            "a stage graph needs at least one field"
        );
        // Caller error: a graph with no stage has no pass to run.
        assert!(
            !self.stages.is_empty(),
            "a stage graph needs at least one stage"
        );
        let (access, order) = self.resolve().unwrap_or_else(|diags| {
            // Caller error: the declaration must pass its own checks.
            expect_clean("stage-graph validation", &diags);
            unreachable!("a failed resolution reports why")
        });
        let stages: Vec<Stage<E>> = self
            .stages
            .into_iter()
            .zip(access)
            .map(|(s, (input, output))| Stage {
                name: s.name,
                kernel: s.kernel,
                input,
                gathered: s.gathered,
                output,
            })
            .collect();
        // Exchange plan: a gathered read of field f at topological
        // position r re-exchanges f's ghosts right after f's latest
        // prior writer — or at the start of the pass if no stage before
        // r writes f (the read consumes last pass's / the host's
        // version). Reads sharing a point form one fusion group.
        let mut plan: Vec<Vec<usize>> = vec![Vec::new(); stages.len()];
        for (pos_r, &sr) in order.iter().enumerate() {
            let stage = &stages[sr];
            if !stage.gathered {
                continue;
            }
            let f = stage.input;
            let point = (0..pos_r)
                .rev()
                .find(|&pos_w| stages[order[pos_w]].output == f)
                .map_or(0, |pos_w| pos_w + 1);
            if !plan[point].contains(&f) {
                plan[point].push(f);
            }
        }
        for group in &mut plan {
            // Canonical (replicated) segment order within a fused message.
            group.sort_unstable();
        }
        StageGraph {
            fields: self.fields,
            stages,
            order,
            plan,
        }
    }
}

/// A validated stage DAG with its deterministic schedule and exchange
/// plan, ready to drive a [`DataflowSession`]. Built by
/// [`StageGraphBuilder::build`]; identical on every rank by construction
/// (it is plain replicated data).
pub struct StageGraph<E: Element = f64> {
    /// Field names, registration order (index = the session's field
    /// index).
    fields: Vec<String>,
    /// Stages, declaration order.
    stages: Vec<Stage<E>>,
    /// Execution schedule: `order[pos]` is the declaration index of the
    /// stage run at topological position `pos`.
    order: Vec<usize>,
    /// `plan[pos]` — field indices whose ghosts are exchanged (one fused
    /// message per neighbor) immediately before the stage at position
    /// `pos` runs, before dirty filtering. Sorted ascending.
    plan: Vec<Vec<usize>>,
}

impl<E: Element> StageGraph<E> {
    /// The registered field names, registration order.
    pub fn field_names(&self) -> &[String] {
        &self.fields
    }

    /// Stage names in execution (topological) order.
    pub fn execution_order(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(|&i| self.stages[i].name.as_str())
    }

    /// The fields whose ghosts are exchanged immediately before `stage`
    /// runs (one fused message per neighbor carries all of them), before
    /// dirty filtering.
    ///
    /// # Panics
    /// Panics if no stage of that name exists.
    pub fn fields_gathered_before(&self, stage: &str) -> Vec<&str> {
        let pos = self
            .order
            .iter()
            .position(|&i| self.stages[i].name == stage)
            // Caller error: the name must be one the graph registered.
            .unwrap_or_else(|| panic!("no stage named {stage:?}"));
        self.plan[pos]
            .iter()
            .map(|&f| self.fields[f].as_str())
            .collect()
    }
}

/// One rank's state for an adaptive computation: the [`StageGraph`]'s
/// schedule driven over its named fields through the paper's execution
/// structure — blocks of passes separated by load-balance checks, with
/// full remaps (data movement + inspector re-run) when the controller
/// finds one profitable. *Every* field is named, moves through remaps
/// automatically, and is checkpointed under its name. All communicating
/// methods are collectives (the SPMD contract of §2).
pub struct DataflowSession<E: Element = f64> {
    partition: BlockPartition,
    graph: StageGraph<E>,
    /// The stage step and everything sized from the schedule (translated
    /// adjacency, transport and sweep scratch, lane splits) — shared by
    /// all stages and fields (they live on one mesh, so one inspector
    /// pass serves all) and rebuilt only on remap, so blocks of passes
    /// between load-balance checks are allocation-free. Its translation
    /// is the one copy of the rank's mesh rows the session keeps.
    runner: LoopRunner<E>,
    fields: FieldSet<E>,
    /// Recycled dirty-filtered fusion group (field indices).
    group: Vec<usize>,
    monitor: LoadMonitor,
    config: StanceConfig,
    /// Recycled storage for the whole remap pipeline (plan, message
    /// staging, destination blocks, schedule rebuild) — the remap-path
    /// counterpart of the runner's `CommBuffers`: after the first remap has
    /// warmed it up, a remap's allocation count is bounded and independent
    /// of how many remaps the run has already performed.
    scratch: RemapScratch<E>,
    /// The protocol trace, recording every point-to-point event the
    /// session's communication performs — `Some` iff
    /// `StanceConfig::verify` (boxed so the disabled case costs one
    /// pointer). Analyzed by [`DataflowSession::verify_protocol`].
    verify: Option<Box<RankTrace>>,
}

impl<E: Element> DataflowSession<E> {
    /// Collective setup with an equal-share initial decomposition (the
    /// paper's adaptive experiment starts this way: "the graph was
    /// decomposed assuming all the processors had equal computational
    /// ratio"). `init(name, g)` supplies the initial value of field
    /// `name` at global element `g`.
    pub fn setup<C: Comm>(
        env: &mut C,
        mesh: &Graph,
        graph: StageGraph<E>,
        init: impl Fn(&str, usize) -> E,
        config: &StanceConfig,
    ) -> Self {
        let partition = BlockPartition::uniform(mesh.num_vertices(), env.size());
        Self::setup_with_partition(env, mesh, partition, graph, init, config)
    }

    /// Collective setup with an explicit initial partition (e.g. weighted
    /// by known machine speeds).
    ///
    /// # Panics
    /// Panics if the partition does not match the cluster and the mesh,
    /// or if `config.check_interval` or `config.team_threads` is zero
    /// (both are public fields, so the builder methods' checks can be
    /// bypassed).
    pub fn setup_with_partition<C: Comm>(
        env: &mut C,
        mesh: &Graph,
        partition: BlockPartition,
        graph: StageGraph<E>,
        init: impl Fn(&str, usize) -> E,
        config: &StanceConfig,
    ) -> Self {
        // Caller error: a public field can bypass `with_check_interval`.
        assert!(
            config.check_interval >= 1,
            "check interval must be at least 1"
        );
        // Caller error: a public field can bypass `with_team`.
        assert!(
            config.team_threads >= 1,
            "a rank has at least one compute lane"
        );
        // Caller error: one block per rank of this cluster.
        assert_eq!(
            partition.num_procs(),
            env.size(),
            "partition has {} blocks for {} ranks",
            partition.num_procs(),
            env.size()
        );
        // Caller error: the partition divides this mesh's vertex list.
        assert_eq!(
            partition.n(),
            mesh.num_vertices(),
            "partition covers {} elements for a {}-vertex graph",
            partition.n(),
            mesh.num_vertices()
        );
        // The rank's rows are read in place from the mesh: the schedule
        // and the translation are built from its CSR window, and the
        // translation is all the session keeps of them.
        let rows = MeshRows::new(mesh, &partition, env.rank());
        let mut scratch = RemapScratch::new();
        let mut verify = config
            .verify
            .then(|| Box::new(RankTrace::new(env.rank(), env.size())));
        let schedule = {
            let mut env = Interposed::new(env, verify.as_deref_mut().map(TraceHook::new));
            build_schedule(&mut env, &partition, &rows, config, &mut scratch.schedule)
        };
        let runner =
            LoopRunner::new(schedule, &rows, config.compute_cost).with_team(config.team_threads);
        if verify.is_some() {
            audit(env, partition.n(), &runner, "post-setup schedule audit");
        }
        let iv = partition.interval_of(env.rank());
        let arrays: Vec<GhostedArray<E>> = graph
            .fields
            .iter()
            .map(|name| runner.make_values(iv.iter().map(|g| init(name, g)).collect()))
            .collect();
        let k = graph.fields.len();
        let fields = FieldSet {
            names: graph.fields.clone(),
            arrays,
            dirty: vec![true; k],
        };
        DataflowSession {
            partition,
            graph,
            runner,
            fields,
            group: Vec::with_capacity(k),
            monitor: LoadMonitor::new(),
            config: config.clone(),
            scratch,
            verify,
        }
    }

    /// The current partition.
    pub fn partition(&self) -> &BlockPartition {
        &self.partition
    }

    /// The current communication schedule (shared by every field — the
    /// fields live on one mesh, so one inspector pass serves all).
    pub fn schedule(&self) -> &CommSchedule {
        self.runner.schedule()
    }

    /// This rank's owned values of field `name` (in interval order).
    ///
    /// # Panics
    /// Panics if no field of that name is registered.
    pub fn local(&self, name: &str) -> &[E] {
        self.fields.arrays[self.fields.must_index(name)].local()
    }

    /// Replaces this rank's owned values of field `name` and marks the
    /// field dirty, so its next gathered read re-exchanges ghosts. Host
    /// writes are collective by convention: every rank must update the
    /// same fields between the same passes, or the replicated dirty
    /// filter (and with it the fused wire format) diverges.
    ///
    /// # Panics
    /// Panics if no field of that name is registered, or if `values`
    /// does not match the rank's current interval.
    pub fn set_local(&mut self, name: &str, values: &[E]) {
        let i = self.fields.must_index(name);
        self.fields.arrays[i].set_local(values);
        self.fields.dirty[i] = true;
    }

    /// Runs a block of `passes` full passes — each pass executes every
    /// stage once, in the graph's topological order, with the planned
    /// (dirty-filtered) exchange before each stage — and records the load
    /// measurement. Collective.
    pub fn run_block<C: Comm>(&mut self, env: &mut C, passes: usize) -> LoopStats {
        let DataflowSession {
            graph,
            runner,
            fields,
            group,
            monitor,
            verify,
            ..
        } = self;
        let mut env = Interposed::new(env, verify.as_deref_mut().map(TraceHook::new));
        let mut stats = LoopStats::default();
        for _ in 0..passes {
            let mut pass_time = 0.0;
            for (pos, &si) in graph.order.iter().enumerate() {
                let stage = &graph.stages[si];
                group.clear();
                group.extend(graph.plan[pos].iter().copied().filter(|&f| fields.dirty[f]));
                pass_time += runner.run_stage(
                    &mut env,
                    stage.kernel.as_ref(),
                    &mut fields.arrays,
                    group,
                    stage.input,
                    stage.output,
                );
                for &f in group.iter() {
                    fields.dirty[f] = false;
                }
                fields.dirty[stage.output] = true;
            }
            stats.compute_time += pass_time;
            stats.iterations += 1;
        }
        monitor.record(
            stats.compute_time,
            stats.iterations,
            fields.arrays[0].local_len(),
        );
        stats
    }

    /// One load-balance check (and remap, if the controller finds it
    /// profitable) — every registered field moves to the new
    /// distribution automatically. Returns `(remapped, check_cost,
    /// rebalance_cost)`. Collective.
    pub fn check_and_rebalance<C: Comm>(
        &mut self,
        env: &mut C,
        remaining_passes: usize,
    ) -> (bool, f64, f64) {
        let per_item = self.monitor.per_item_for_check().unwrap_or(0.0);
        let t0 = env.now_secs();
        let decision = {
            let mut env = Interposed::new(env, self.verify.as_deref_mut().map(TraceHook::new));
            load_balance_step(
                &mut env,
                &self.partition,
                per_item,
                remaining_passes,
                &self.config.balancer,
            )
        };
        let check_cost = env.now_secs() - t0;
        match decision {
            Decision::Keep => (false, check_cost, 0.0),
            Decision::Remap(new_partition) => {
                let t1 = env.now_secs();
                self.apply_remap(env, new_partition, &mut []);
                (true, check_cost, env.now_secs() - t1)
            }
        }
    }

    /// The monitor's current per-item time estimate (seconds per element
    /// per pass), if any measurement or carried estimate exists. Exposed
    /// for observability: after a remap the estimate is *carried* (it is
    /// per element, so it survives the block resize), keeping the first
    /// post-remap check informed even on ranks whose new block records
    /// nothing.
    pub fn per_item_estimate(&self) -> Option<f64> {
        self.monitor.per_item_time()
    }

    /// Forces a remap to an explicitly chosen partition, moving **every**
    /// field and rebuilding the schedule, without consulting the
    /// controller. Collective — every rank must pass the same
    /// `new_partition`; an identity remap (the current partition) is a
    /// no-op.
    ///
    /// This is the deterministic repartitioning entry point: benchmarks
    /// use it to measure remap latency, tests to force churn, and
    /// applications with out-of-band knowledge (e.g. a scheduler that
    /// *knows* a machine is about to be withdrawn) to act without waiting
    /// for the load monitor to notice.
    ///
    /// # Panics
    /// Panics if `new_partition` does not cover the same list with the
    /// same number of ranks.
    pub fn remap_to<C: Comm>(&mut self, env: &mut C, new_partition: BlockPartition) {
        self.remap_with(env, new_partition, &mut []);
    }

    /// [`DataflowSession::remap_to`] with caller-owned per-vertex arrays
    /// riding along — the one private path that serves
    /// [`AdaptiveSession`](crate::AdaptiveSession)'s aux arguments.
    pub(crate) fn remap_with<C: Comm>(
        &mut self,
        env: &mut C,
        new_partition: BlockPartition,
        aux: &mut [&mut Vec<E>],
    ) {
        // Caller error: changing the rank count is a restore, not a remap.
        assert_eq!(
            new_partition.num_procs(),
            self.partition.num_procs(),
            "partition rank count changed"
        );
        // Caller error: a remap moves the same list, never a resized one.
        assert_eq!(new_partition.n(), self.partition.n(), "list length changed");
        self.apply_remap(env, new_partition, aux);
    }

    /// Moves every field and the structure to `new_partition` and
    /// rebuilds the schedule and the runner's scratch. Collective.
    ///
    /// The whole pipeline draws on the session's [`RemapScratch`] and
    /// costs what moved, not what the rank owns: the redistribution plan
    /// is computed once and shared; every registered field, then the
    /// caller's `aux` arrays (if any), moves straight out of its own
    /// storage into a recycled block, all of it riding **one** coalesced
    /// message per destination (§2 message coalescing), and each block is
    /// swapped into place — a field's values are copied once. The mesh
    /// rows move out of and into the runner's translation: rows sent away
    /// are decoded on their way out and received ones staged, while the
    /// blocks kept whole stay where they are — the schedule rebuild skips
    /// the interior ones, and the translation rebases them instead of
    /// translating them again. After the first
    /// remap has warmed the scratch, a remap's allocation count is bounded
    /// (pinned by `tests/alloc_free.rs`). After the move every dirty flag
    /// is set: ghost regions are rebuilt empty, so every field's next
    /// gathered read re-exchanges. The monitor rolls over: its per-item
    /// estimate is carried into the new block.
    fn apply_remap<C: Comm>(
        &mut self,
        env: &mut C,
        new_partition: BlockPartition,
        aux: &mut [&mut Vec<E>],
    ) {
        if new_partition == self.partition {
            // Identity: nothing moves, nothing rebuilds. The controller
            // never issues identity remaps (zero saving); this guards the
            // explicit `remap_to` entry point.
            return;
        }
        let plan = self.scratch.take_plan(&self.partition, &new_partition);
        // The trace is taken for the duration so the redistribution and
        // rebuild below can wrap `env` while `self` stays borrowable.
        let mut trace = self.verify.take();
        if trace.is_some() {
            let diags = audit_redistribution(&self.partition, &new_partition, &plan);
            expect_clean("redistribution-plan audit", &diags);
        }
        let fields = self.fields.arrays.len();
        {
            let mut env = Interposed::new(env, trace.as_deref_mut().map(TraceHook::new));
            // Registered fields first, then the caller's arrays, each read
            // straight out of its own storage.
            let arrays = &self.fields.arrays;
            self.scratch.redistribute(
                &mut env,
                &self.partition,
                &new_partition,
                &plan,
                fields + aux.len(),
                |a| match arrays.get(a) {
                    Some(field) => field.local(),
                    None => &aux[a - fields][..],
                },
            );
            // The caller's arrays take their new blocks now; their old
            // storage joins the scratch.
            for (a, block) in aux.iter_mut().zip(&mut self.scratch.new_blocks()[fields..]) {
                std::mem::swap(*a, block);
            }
            self.scratch.redistribute_adjacency(
                &mut env,
                &self.partition,
                &new_partition,
                &plan,
                self.runner.schedule(),
                self.runner.tadj(),
            );
            self.scratch.put_plan(plan);
        }
        self.partition = new_partition;

        let schedule = {
            let mut env = Interposed::new(env, trace.as_deref_mut().map(TraceHook::new));
            build_schedule(
                &mut env,
                &self.partition,
                &self.scratch.rows,
                &self.config,
                &mut self.scratch.schedule,
            )
        };
        let retired = self.runner.rebuild(schedule, &self.scratch.rows);
        self.scratch.schedule.recycle(retired);
        // Every field takes its new block by swapping storage: the values
        // were copied once, by the move.
        let blocks = &mut self.scratch.new_blocks()[..fields];
        for (field, block) in self.fields.arrays.iter_mut().zip(blocks) {
            self.runner.install_values(field, block);
        }
        for d in &mut self.fields.dirty {
            *d = true;
        }
        self.verify = trace;
        if self.verify.is_some() {
            // The rebuilt schedule must satisfy the same global contract
            // the setup schedule did.
            let n = self.partition.n();
            audit(env, n, &self.runner, "post-remap schedule audit");
        }
        self.monitor.rollover();
    }

    /// Checkpoints the session collectively: allgathers every rank's
    /// recovery state (monitor snapshot + every field's owned block) on
    /// the reserved checkpoint tag and assembles the same replicated
    /// [`SessionCheckpoint`] on every rank — so any subset of survivors
    /// can later restore without help from the dead. Every field is
    /// recorded **under its name** — the blob identifies fields by name,
    /// not position, and [`DataflowSession::restore`] validates the names
    /// against the restoring graph.
    ///
    /// # Panics
    /// Panics only if a rank's contribution does not open with its
    /// monitor snapshot, which every rank writes in this same collective.
    pub fn checkpoint<C: Comm>(&mut self, env: &mut C) -> SessionCheckpoint<E> {
        self.checkpoint_with(env, &[])
    }

    /// [`DataflowSession::checkpoint`] with caller-owned per-vertex
    /// slices appended after the registered fields, recorded under the
    /// generated names `"aux0"`, `"aux1"`, … — the one private path that
    /// serves [`AdaptiveSession`](crate::AdaptiveSession)'s aux
    /// arguments.
    pub(crate) fn checkpoint_with<C: Comm>(
        &mut self,
        env: &mut C,
        aux: &[&[E]],
    ) -> SessionCheckpoint<E> {
        let owned = self.fields.arrays[0].local_len();
        for (i, a) in aux.iter().enumerate() {
            // Caller error: an aux array holds one element per owned vertex.
            assert_eq!(
                a.len(),
                owned,
                "aux slice {i} has {} elements for a {owned}-element block",
                a.len()
            );
        }
        let mut bytes = Vec::new();
        crate::checkpoint::write_snapshot(&self.monitor.snapshot(), &mut bytes);
        let blocks = self.fields.arrays.iter().map(GhostedArray::local);
        for block in blocks.chain(aux.iter().copied()) {
            E::pack_into(block, &mut bytes);
        }
        let parts = {
            let mut env = Interposed::new(env, self.verify.as_deref_mut().map(TraceHook::new));
            env.allgather(TAG_CHECKPOINT, Payload::from_bytes(bytes))
        };
        let n = self.partition.n();
        let p = self.partition.num_procs();
        let k = self.fields.arrays.len() + aux.len();
        let mut monitors = Vec::with_capacity(p);
        let mut globals: Vec<Vec<E>> = (0..k).map(|_| vec![E::zero(); n]).collect();
        for (rank, payload) in parts.into_iter().enumerate() {
            let b = payload.into_bytes();
            let (snap, rest) = crate::checkpoint::read_contribution(&b);
            monitors.push(snap);
            let riv = self.partition.interval_of(rank);
            let vb = riv.len() * E::SIZE_BYTES;
            for (i, g) in globals.iter_mut().enumerate() {
                E::unpack_into(&rest[i * vb..(i + 1) * vb], &mut g[riv.start..riv.end]);
            }
        }
        let names = self.graph.fields.iter().cloned();
        let fields = names
            .chain((0..aux.len()).map(|i| format!("aux{i}")))
            .zip(globals)
            .collect();
        SessionCheckpoint {
            n,
            block_sizes: self.partition.block_sizes(),
            arrangement: self.partition.arrangement().as_slice().to_vec(),
            monitors,
            fields,
        }
    }

    /// Collective restore from a [`SessionCheckpoint`], onto **any** rank
    /// count — this is the recovery entry point for shrink-onto-survivors
    /// (pass a [`SurvivorComm`](stance_sim::SurvivorComm) wrapping the
    /// backend) as well as plain same-width restarts.
    ///
    /// Restoring onto the checkpoint's own rank count reinstalls the
    /// partition *and* every rank's monitor snapshot bit-for-bit; a
    /// different rank count starts from [`BlockPartition::uniform`] and
    /// fresh monitors (a redistribution plan cannot cross rank counts, and
    /// fresh monitors keep a recovered run identical to a clean start
    /// from the same blob). The checkpoint's field records are matched to
    /// the graph **by name only**, in whatever order they were recorded:
    /// a checkpoint missing a graph field or holding an unknown one is
    /// rejected — never zipped by position.
    ///
    /// # Errors
    /// [`CheckpointError::ElementCount`] if `mesh` does not have the
    /// checkpoint's element count, [`CheckpointError::MissingField`] if
    /// the graph registers a field the checkpoint has no record of, and
    /// [`CheckpointError::UnexpectedField`] if the checkpoint records one
    /// the graph does not register. The checkpoint is replicated, so the
    /// restore decides this before its first message and every rank
    /// returns the same error.
    pub fn restore<C: Comm>(
        env: &mut C,
        mesh: &Graph,
        graph: StageGraph<E>,
        ckpt: &SessionCheckpoint<E>,
        config: &StanceConfig,
    ) -> Result<Self, CheckpointError> {
        Self::restore_registered(env, mesh, graph, ckpt, config, false)
    }

    /// [`DataflowSession::restore`], which with `extra_records` tolerates
    /// records beyond the graph's fields (the façade's caller-owned aux
    /// arrays, which it hands back to the caller instead).
    pub(crate) fn restore_registered<C: Comm>(
        env: &mut C,
        mesh: &Graph,
        graph: StageGraph<E>,
        ckpt: &SessionCheckpoint<E>,
        config: &StanceConfig,
        extra_records: bool,
    ) -> Result<Self, CheckpointError> {
        if mesh.num_vertices() != ckpt.n() {
            return Err(CheckpointError::ElementCount {
                found: ckpt.n(),
                expected: mesh.num_vertices(),
            });
        }
        if let Some(name) = graph.fields.iter().find(|f| ckpt.field(f).is_none()) {
            return Err(CheckpointError::MissingField(name.clone()));
        }
        if !extra_records {
            let mut records = ckpt.fields().iter();
            if let Some((name, _)) = records.find(|(f, _)| !graph.fields.contains(f)) {
                return Err(CheckpointError::UnexpectedField(name.clone()));
            }
        }
        let same_width = env.size() == ckpt.num_procs();
        let partition = if same_width {
            ckpt.partition()
        } else {
            BlockPartition::uniform(ckpt.n(), env.size())
        };
        let mut session = Self::setup_with_partition(
            env,
            mesh,
            partition,
            graph,
            // Invariant: every name was checked against `ckpt` above.
            |name, g| ckpt.field(name).expect("names validated above")[g],
            config,
        );
        if same_width {
            session
                .monitor
                .restore_snapshot(&ckpt.monitors()[env.rank()]);
        }
        Ok(session)
    }

    /// Analyzes the protocol traces recorded so far: allgathers every
    /// rank's [`RankTrace`] and runs the offline analyzer over the full
    /// set (unmatched sends, phantom receives, payload-shape mismatches,
    /// barrier-arity mismatches, epoch-crossing messages — see [`stance_verify::analyze_traces`]). Every rank
    /// returns the same diagnostics; an empty vector means the traffic
    /// obeyed the protocol. Collective when verification is enabled;
    /// with it disabled there is nothing recorded and nothing to agree
    /// on, so this returns empty without communicating (the config is
    /// replicated, so all ranks skip together).
    pub fn verify_protocol<C: Comm>(&mut self, env: &mut C) -> Vec<Diagnostic> {
        match self.verify.as_deref() {
            None => Vec::new(),
            Some(trace) => analyze_collective(env, trace),
        }
    }

    /// The protocol trace recorded so far — `Some` iff the session was
    /// set up with `StanceConfig::with_verification(true)`.
    pub fn trace(&self) -> Option<&RankTrace> {
        self.verify.as_deref()
    }

    /// The paper's full execution structure: blocks of `check_interval`
    /// passes separated by load-balance checks, for `total_passes`
    /// passes. Collective.
    pub fn run_adaptive<C: Comm>(&mut self, env: &mut C, total_passes: usize) -> SessionReport {
        let mut report = SessionReport::default();
        let mut done = 0;
        while done < total_passes {
            let block = self.config.check_interval.min(total_passes - done);
            let stats = self.run_block(env, block);
            done += block;
            report.iterations += stats.iterations;
            report.compute_time += stats.compute_time;
            if done < total_passes && self.config.load_balancing_enabled() {
                let (remapped, check, rebalance) =
                    self.check_and_rebalance(env, total_passes - done);
                report.checks += 1;
                report.check_cost += check;
                if remapped {
                    report.remaps += 1;
                    report.rebalance_cost += rebalance;
                }
            }
        }
        report.total_time = env.now_secs();
        report
    }
}

/// The collective audit of a verified session's schedule and translation
/// against the rows the translation decodes to (the session keeps no
/// other copy); panics with the report on any violation.
fn audit<C: Comm, E: Element>(env: &mut C, n: usize, runner: &LoopRunner<E>, context: &str) {
    let (schedule, tadj) = (runner.schedule(), runner.tadj());
    let adj = schedule.decode_adjacency(tadj);
    let diags = audit_collective(env, n, schedule, &adj, tadj);
    expect_clean(context, &diags);
}

/// Builds the schedule with Sort2, the paper's choice, charging inspector
/// work to the rank's clock. The builder draws its working storage from
/// `scratch` (recycled across remaps), so set-up and every remap take the
/// same allocation-bounded, communication-free path.
fn build_schedule<C: Comm>(
    env: &mut C,
    partition: &BlockPartition,
    adj: &impl Rows,
    config: &StanceConfig,
    scratch: &mut ScheduleScratch,
) -> CommSchedule {
    let (schedule, work) =
        build_schedule_symmetric_with(partition, adj, env.rank(), ScheduleStrategy::Sort2, scratch);
    env.compute(config.inspector_cost.seconds(&work));
    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use crate::testkit::{init, mesh, test_balancer};
    use stance_executor::{sequential_relaxation, RelaxationKernel};

    /// A one-stage relaxation graph over field `y`.
    fn relax_graph() -> StageGraph<f64> {
        StageGraphBuilder::new()
            .field("y")
            .stage("relax", RelaxationKernel, "y", "y")
            .build()
    }

    #[test]
    fn builder_orders_stages_and_plans_exchanges() {
        let g: StageGraph<f64> = StageGraphBuilder::new()
            .field("r")
            .field("u")
            .field("w")
            // Declared out of dependency order on purpose.
            .stage("matvec", RelaxationKernel, "u", "w")
            .stage_local("precond", RelaxationKernel, "r", "u")
            .build();
        let order: Vec<&str> = g.execution_order().collect();
        assert_eq!(order, ["precond", "matvec"]);
        // u is written by precond, so its exchange sits between the two
        // stages; nothing is exchanged before precond (it reads owned
        // entries only).
        assert_eq!(g.fields_gathered_before("precond"), Vec::<&str>::new());
        assert_eq!(g.fields_gathered_before("matvec"), vec!["u"]);
    }

    #[test]
    #[should_panic(expected = "stage-graph validation")]
    fn build_rejects_cycles() {
        let _ = StageGraphBuilder::<f64>::new()
            .field("a")
            .field("b")
            .stage("fwd", RelaxationKernel, "a", "b")
            .stage("bwd", RelaxationKernel, "b", "a")
            .build();
    }

    #[test]
    #[should_panic(expected = "stage-graph validation")]
    fn build_rejects_undeclared_fields() {
        let _ = StageGraphBuilder::<f64>::new()
            .field("y")
            .stage("relax", RelaxationKernel, "ghost", "y")
            .build();
    }

    /// A builder over `fields` with one ghost-reading relaxation stage per
    /// `(name, reads, writes)`.
    fn builder(fields: &[&str], stages: &[(&str, &str, &str)]) -> StageGraphBuilder<f64> {
        let b = fields
            .iter()
            .fold(StageGraphBuilder::new(), |b, f| b.field(f));
        stages.iter().fold(b, |b, &(name, reads, writes)| {
            b.stage(name, RelaxationKernel, reads, writes)
        })
    }

    fn order_of(b: StageGraphBuilder<f64>) -> Vec<String> {
        b.build().execution_order().map(str::to_string).collect()
    }

    #[test]
    fn in_place_stage_is_not_a_self_cycle() {
        let b = builder(&["y"], &[("relax", "y", "y")]);
        assert_eq!(b.validate(), Vec::new());
        assert_eq!(order_of(b), ["relax"]);
    }

    #[test]
    fn ties_break_by_declaration_order() {
        // Two independent stages: declaration order is the schedule.
        let b = builder(&["a", "b"], &[("z2", "b", "b"), ("a1", "a", "a")]);
        assert_eq!(order_of(b), ["z2", "a1"]);
    }

    #[test]
    fn cycle_detail_names_its_members() {
        // `c` is independent and placed; `a` and `b` feed each other.
        let stages = [("a", "f", "g"), ("b", "g", "f"), ("c", "h", "h")];
        let diags = builder(&["f", "g", "h"], &stages).validate();
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::StageCycle);
        assert!(
            diags[0].detail.ends_with("through a -> b"),
            "{}",
            diags[0].detail
        );
    }

    #[test]
    fn undeclared_access_names_the_stage_and_field() {
        let stages = [("relax", "ghost", "y"), ("spill", "y", "out")];
        let diags = builder(&["y"], &stages).validate();
        assert!(diags
            .iter()
            .all(|d| d.kind == DiagnosticKind::UndeclaredFieldAccess));
        let details: Vec<&str> = diags.iter().map(|d| d.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                "stage \"relax\" reads unregistered field \"ghost\"",
                "stage \"spill\" writes unregistered field \"out\"",
            ]
        );
    }

    /// `check_interval` and `team_threads` are public fields, so the
    /// builder methods' checks can be bypassed; setup re-validates both —
    /// a zero interval used to spin `run_adaptive` forever.
    fn setup_after(poke: impl Fn(&mut StanceConfig), facade: bool) {
        let m = mesh();
        let mut config = StanceConfig::free();
        poke(&mut config);
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            if facade {
                let _ = AdaptiveSession::setup(env, &m, RelaxationKernel, init, &config);
            } else {
                let _ = DataflowSession::setup(env, &m, relax_graph(), |_, g| init(g), &config);
            }
        });
    }

    #[test]
    #[should_panic(expected = "check interval must be at least 1")]
    fn zero_check_interval_is_rejected_at_setup() {
        setup_after(|c| c.check_interval = 0, false);
    }

    #[test]
    #[should_panic(expected = "check interval must be at least 1")]
    fn zero_check_interval_is_rejected_through_the_facade() {
        setup_after(|c| c.check_interval = 0, true);
    }

    #[test]
    #[should_panic(expected = "a rank has at least one compute lane")]
    fn zero_team_threads_is_rejected_at_setup() {
        setup_after(|c| c.team_threads = 0, false);
    }

    #[test]
    #[should_panic(expected = "a rank has at least one compute lane")]
    fn zero_team_threads_is_rejected_through_the_facade() {
        setup_after(|c| c.team_threads = 0, true);
    }

    /// Two independent relaxation fields and one inert field: both relax
    /// fields must match the sequential reference bitwise, the inert
    /// field must stay untouched — and each pass moves exactly one gather
    /// message per neighbor for both relax fields together, while the
    /// inert field is never gathered at all.
    #[test]
    fn multi_field_passes_fuse_skip_and_match_sequential() {
        let m = mesh();
        let n = m.num_vertices();
        let passes = 12;
        let mut exp_y: Vec<f64> = (0..n).map(init).collect();
        let mut exp_z: Vec<f64> = (0..n).map(|g| init(g) * 2.0 + 1.0).collect();
        sequential_relaxation(&m, &mut exp_y, passes);
        sequential_relaxation(&m, &mut exp_z, passes);

        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let results = Cluster::new(spec)
            .run(|env| {
                let graph = StageGraphBuilder::new()
                    .field("y")
                    .field("z")
                    .field("inert")
                    .stage("relax_y", RelaxationKernel, "y", "y")
                    .stage("relax_z", RelaxationKernel, "z", "z")
                    .build();
                let mut s = DataflowSession::setup(
                    env,
                    &m,
                    graph,
                    |name, g| match name {
                        "y" => init(g),
                        "z" => init(g) * 2.0 + 1.0,
                        _ => g as f64,
                    },
                    &config,
                );
                let before = env.stats().messages_sent;
                s.run_block(env, passes);
                (
                    s.local("y").to_vec(),
                    s.local("z").to_vec(),
                    s.local("inert").to_vec(),
                    env.stats().messages_sent - before,
                    s.schedule().sends().len(),
                    s.partition().clone(),
                )
            })
            .into_results();
        let part = results[0].5.clone();
        let mut got_y = vec![0.0; n];
        let mut got_z = vec![0.0; n];
        for (rank, (y, z, inert, msgs, neighbors, _)) in results.iter().enumerate() {
            let iv = part.interval_of(rank);
            got_y[iv.start..iv.end].copy_from_slice(y);
            got_z[iv.start..iv.end].copy_from_slice(z);
            for (offset, g) in iv.iter().enumerate() {
                assert_eq!(inert[offset], g as f64, "inert field changed");
            }
            // Both relax fields share the pass-start exchange point, so
            // they travel in one message per neighbor per pass.
            assert_eq!(
                *msgs,
                (passes * neighbors) as u64,
                "rank {rank}: gather messages != passes x neighbors"
            );
        }
        assert_eq!(got_y, exp_y, "field y diverged");
        assert_eq!(got_z, exp_z, "field z diverged");
    }

    /// A field whose writer never runs is gathered once (the initial
    /// exchange) and then skipped: after the first pass, passes move no
    /// messages for it.
    #[test]
    fn clean_fields_skip_their_gathers() {
        let m = mesh();
        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            // `coeff` is read through its ghosts but never written, so
            // only the first pass exchanges it.
            let graph = StageGraphBuilder::new()
                .field("coeff")
                .field("out")
                .stage("apply", RelaxationKernel, "coeff", "out")
                .build();
            let mut s = DataflowSession::setup(env, &m, graph, |_, g| init(g), &config);
            s.run_block(env, 1);
            let after_first = env.stats().messages_sent;
            s.run_block(env, 3);
            let after_rest = env.stats().messages_sent;
            // Re-dirtying the field by a collective host write brings the
            // exchange back for exactly one pass.
            let poked: Vec<f64> = s.local("coeff").iter().map(|v| v + 1.0).collect();
            s.set_local("coeff", &poked);
            s.run_block(env, 1);
            let after_poke = env.stats().messages_sent;
            s.run_block(env, 1);
            let after_quiet = env.stats().messages_sent;
            (
                after_first,
                after_rest,
                after_poke,
                after_quiet,
                s.schedule().sends().len(),
            )
        });
        for (first, rest, poke, quiet, neighbors) in report.results() {
            assert_eq!(first, rest, "clean field must not be re-gathered");
            if *neighbors > 0 {
                assert!(poke > rest, "set_local must re-dirty the field");
            }
            assert_eq!(poke, quiet, "the poke is worth exactly one exchange");
        }
    }

    /// A worker team must not change any dataflow value: every team
    /// size produces identical bits, across a forced remap (which
    /// recomputes the lane splits).
    #[test]
    fn teamed_passes_are_bitwise_identical() {
        let m = mesh();
        let run = |team: usize| {
            let m = m.clone();
            let config = StanceConfig::free().with_team(team);
            let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
            Cluster::new(spec)
                .run(move |env| {
                    let graph = StageGraphBuilder::new()
                        .field("y")
                        .field("z")
                        .stage("relax_y", RelaxationKernel, "y", "y")
                        .stage("relax_z", RelaxationKernel, "z", "z")
                        .build();
                    let mut s = DataflowSession::setup(
                        env,
                        &m,
                        graph,
                        |name, g| if name == "y" { init(g) } else { -init(g) },
                        &config,
                    );
                    s.run_block(env, 5);
                    s.remap_to(env, BlockPartition::from_sizes(&[50, 30, 40]));
                    s.run_block(env, 5);
                    (s.local("y").to_vec(), s.local("z").to_vec())
                })
                .into_results()
        };
        let reference = run(1);
        for team in [2usize, 4] {
            assert_eq!(run(team), reference, "team = {team} changed values");
        }
    }

    /// Every named field follows a forced remap chain onto the right
    /// owners, and values keep matching the sequential reference.
    #[test]
    fn all_fields_follow_forced_remaps() {
        let m = mesh();
        let n = m.num_vertices();
        let passes = 12;
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, passes);

        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let graph = StageGraphBuilder::new()
                .field("y")
                .field("tag")
                .stage("relax", RelaxationKernel, "y", "y")
                .build();
            let mut s = DataflowSession::setup(
                env,
                &m,
                graph,
                |name, g| if name == "y" { init(g) } else { 3.0 * g as f64 },
                &config,
            );
            for sizes in [[20, 40, 60], [60, 40, 20]] {
                s.run_block(env, passes / 4);
                s.remap_to(env, BlockPartition::from_sizes(&sizes));
                s.run_block(env, passes / 4);
            }
            let iv = s.partition().interval_of(env.rank());
            for (offset, g) in iv.iter().enumerate() {
                assert_eq!(
                    s.local("tag")[offset],
                    3.0 * g as f64,
                    "field strayed during remap"
                );
            }
            (s.local("y").to_vec(), s.partition().clone())
        });
        let results: Vec<_> = report.into_results();
        let partition = results[0].1.clone();
        let blocks = results.into_iter().map(|(v, _)| v).collect();
        assert_eq!(
            crate::reassemble(&partition, blocks),
            expected,
            "remap chain diverged from sequential"
        );
    }

    /// A remap leaves behind what a fresh set-up on the new partition
    /// builds. After set-up and along a chain of forced remaps — shuffled
    /// arrangements, an empty block — the runner's translation, the one
    /// copy of the rows the session keeps, decodes back to a fresh
    /// extraction and carries every block's bounds; its schedule equals
    /// the per-reference oracle; and the translation, kept blocks rebased
    /// rather than rebuilt, equals the oracle and a fresh translation. The
    /// values still match the sequential reference.
    #[test]
    fn remap_chain_leaves_a_fresh_build() {
        use stance_inspector::schedule::reference::{
            assert_decodes_to, symmetric_oracle, translate_oracle,
        };
        use stance_inspector::LocalAdjacency;
        let raw = stance_locality::meshgen::triangulated_grid(100, 60, 0.4, 5);
        let m = crate::prepare_mesh(&raw, OrderingMethod::Rcb).0;
        let n = m.num_vertices();
        let shuffled = |w: &[f64], order: Vec<usize>| {
            BlockPartition::from_weights(n, w, Arrangement::new(order))
        };
        // Ranks that keep whole blocks while their start moves, then a
        // shuffle with an empty block, then back.
        let chain = [
            shuffled(&[1.0, 2.0, 1.0], vec![0, 1, 2]),
            shuffled(&[1.0, 0.0, 2.0], vec![1, 2, 0]),
            shuffled(&[0.5, 1.0, 1.5], vec![0, 2, 1]),
            BlockPartition::uniform(n, 3),
        ];
        let passes = 2;
        let mut expected: Vec<f64> = (0..n).map(init).collect();
        sequential_relaxation(&m, &mut expected, passes * (chain.len() + 1));
        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let mut s = DataflowSession::setup(env, &m, relax_graph(), |_, g| init(g), &config);
            let check = |s: &DataflowSession| {
                let adj = LocalAdjacency::extract(&m, s.partition(), rank);
                let (schedule, tadj) = (s.runner.schedule(), s.runner.tadj());
                assert_decodes_to(schedule, tadj, &adj);
                let sort2 = ScheduleStrategy::Sort2;
                let (oracle, _) = symmetric_oracle(s.partition(), &adj, rank, sort2);
                assert_eq!(*schedule, oracle);
                assert_eq!(*tadj, translate_oracle(&oracle, &adj));
                assert_eq!(*tadj, oracle.translate_adjacency(&adj));
            };
            check(&s);
            for partition in &chain {
                s.run_block(env, passes);
                s.remap_to(env, partition.clone());
                check(&s);
            }
            s.run_block(env, passes);
            (s.local("y").to_vec(), s.partition().clone())
        });
        let results: Vec<_> = report.into_results();
        let partition = results[0].1.clone();
        let blocks = results.into_iter().map(|(v, _)| v).collect();
        assert_eq!(crate::reassemble(&partition, blocks), expected);
    }

    /// A registered field must land on the same owners as the first when
    /// the **controller** (not a forced `remap_to`) moves the partition.
    #[test]
    fn registered_fields_follow_a_controller_remap() {
        let m = mesh();
        let mut config = StanceConfig::default().with_check_interval(10);
        config.balancer = test_balancer();
        let spec = ClusterSpec::uniform(2)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0 / 3.0));
        let report = Cluster::new(spec).run(|env| {
            let graph = StageGraphBuilder::new()
                .field("y")
                .field("aux")
                .stage("relax", RelaxationKernel, "y", "y")
                .build();
            // aux[g] = 3g so ownership is trivially checkable.
            let init2 = |name: &str, g| if name == "y" { init(g) } else { 3.0 * g as f64 };
            let mut s = DataflowSession::setup(env, &m, graph, init2, &config);
            let mut remapped_once = false;
            for _ in 0..4 {
                s.run_block(env, 10);
                let (remapped, _, _) = s.check_and_rebalance(env, 10);
                remapped_once |= remapped;
            }
            let iv = s.partition().interval_of(env.rank());
            assert_eq!(
                s.local("aux").len(),
                iv.len(),
                "field follows the partition"
            );
            for (offset, g) in iv.iter().enumerate() {
                assert_eq!(s.local("aux")[offset], 3.0 * g as f64, "element strayed");
            }
            remapped_once
        });
        assert!(
            report.into_results().into_iter().all(|r| r),
            "the forced load should have remapped at least once"
        );
    }

    /// The private aux path behind the façade: caller-owned arrays ride
    /// *after* the registered fields' staging in a remap, and are
    /// recorded after them (as `"aux0"`, …) in a checkpoint.
    #[test]
    fn caller_arrays_ride_after_registered_fields() {
        let m = mesh();
        let config = StanceConfig::free();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let graph = StageGraphBuilder::new()
                .field("y")
                .field("tag")
                .stage("relax", RelaxationKernel, "y", "y")
                .build();
            let init2 = |name: &str, g| if name == "y" { init(g) } else { 3.0 * g as f64 };
            let mut s = DataflowSession::setup(env, &m, graph, init2, &config);
            let iv = s.partition().interval_of(env.rank());
            let mut mine: Vec<f64> = iv.iter().map(|g| -(g as f64)).collect();
            s.remap_with(
                env,
                BlockPartition::from_sizes(&[20, 40, 60]),
                &mut [&mut mine],
            );
            let iv = s.partition().interval_of(env.rank());
            assert_eq!(mine.len(), iv.len());
            for (offset, g) in iv.iter().enumerate() {
                assert_eq!(s.local("tag")[offset], 3.0 * g as f64, "field strayed");
                assert_eq!(mine[offset], -(g as f64), "caller array strayed");
            }
            let ckpt = s.checkpoint_with(env, &[&mine]);
            let names: Vec<&str> = ckpt.fields().iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["y", "tag", "aux0"]);
            let global = ckpt.field("aux0").expect("caller array recorded");
            assert!(global.iter().enumerate().all(|(g, &v)| v == -(g as f64)));
        });
    }

    /// Named checkpoint round trip: a restored session continues
    /// bitwise-identically, and restores against a graph whose field
    /// names do not match are rejected.
    #[test]
    fn named_checkpoint_round_trips_and_validates_names() {
        let m = mesh();
        let config = StanceConfig::free();
        let graph = || {
            StageGraphBuilder::new()
                .field("y")
                .field("z")
                .stage("relax_y", RelaxationKernel, "y", "y")
                .stage("relax_z", RelaxationKernel, "z", "z")
                .build()
        };
        let init2 = |name: &str, g: usize| if name == "y" { init(g) } else { -init(g) };
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let mut s = DataflowSession::setup(env, &m, graph(), init2, &config);
            s.run_block(env, 5);
            let ckpt = s.checkpoint(env);
            let names: Vec<&str> = ckpt.fields().iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, ["y", "z"]);
            s.run_block(env, 5);
            let mut r = DataflowSession::restore(env, &m, graph(), &ckpt, &config)
                .expect("the checkpoint fits the graph");
            r.run_block(env, 5);
            let same = s.local("y") == r.local("y") && s.local("z") == r.local("z");
            // The round trip survives the wire form too.
            let back =
                SessionCheckpoint::<f64>::from_bytes(&ckpt.to_bytes()).expect("a valid blob");
            (same, back == ckpt)
        });
        for (same, wire_same) in report.results() {
            assert!(same, "restored run diverged");
            assert!(wire_same, "wire round trip changed the checkpoint");
        }
    }

    /// Records are matched by name only: a complete checkpoint whose
    /// records run in another order than the graph's fields (here
    /// reversed, and through the wire form) restores bitwise.
    #[test]
    fn reordered_records_restore_bitwise() {
        let m = mesh();
        let config = StanceConfig::free();
        let graph = || {
            StageGraphBuilder::new()
                .field("y")
                .field("z")
                .stage("relax_y", RelaxationKernel, "y", "y")
                .stage("relax_z", RelaxationKernel, "z", "z")
                .build()
        };
        let init2 = |name: &str, g: usize| if name == "y" { init(g) } else { -init(g) };
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let mut s = DataflowSession::setup(env, &m, graph(), init2, &config);
            s.run_block(env, 5);
            let ckpt = s.checkpoint(env);
            let mut reversed = ckpt.clone();
            reversed.fields.reverse();
            let reversed =
                SessionCheckpoint::<f64>::from_bytes(&reversed.to_bytes()).expect("a valid blob");
            assert_eq!(reversed.fields()[0].0, "z");
            let mut a = DataflowSession::restore(env, &m, graph(), &ckpt, &config)
                .expect("the checkpoint fits the graph");
            let mut b = DataflowSession::restore(env, &m, graph(), &reversed, &config)
                .expect("the checkpoint fits the graph");
            a.run_block(env, 5);
            b.run_block(env, 5);
            for f in ["y", "z"] {
                let bits = |s: &DataflowSession| -> Vec<u64> {
                    s.local(f).iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&a), bits(&b), "field {f} restored differently");
            }
        });
    }

    /// A well-formed checkpoint that does not fit the restoring graph is
    /// an error, the same on every rank, returned before any message
    /// moves: a renamed field is missing, a record the graph lacks is
    /// unexpected, another mesh has another element count, and the façade
    /// needs a `"values"` record.
    #[test]
    fn restore_rejects_mismatched_field_names() {
        let m = mesh();
        let small = stance_locality::meshgen::triangulated_grid(5, 4, 0.0, 0);
        let config = StanceConfig::free();
        let graph = |names: &[&str]| {
            let b = names
                .iter()
                .fold(StageGraphBuilder::new(), |b, f| b.field(f));
            let b = names
                .iter()
                .fold(b, |b, f| b.stage(f, RelaxationKernel, f, f));
            b.build()
        };
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let mut s =
                DataflowSession::setup(env, &m, graph(&["y", "z"]), |_, g| init(g), &config);
            let ckpt = s.checkpoint(env);
            let sent = env.stats().messages_sent;
            let errors = [
                DataflowSession::restore(env, &m, graph(&["y", "w"]), &ckpt, &config).err(),
                DataflowSession::restore(env, &m, graph(&["y"]), &ckpt, &config).err(),
                DataflowSession::restore(env, &small, graph(&["y", "z"]), &ckpt, &config).err(),
                AdaptiveSession::restore(env, &m, RelaxationKernel, &ckpt, &config).err(),
            ];
            assert_eq!(env.stats().messages_sent, sent, "a rejected restore sent");
            errors
        });
        for errors in report.into_results() {
            assert_eq!(
                errors,
                [
                    Some(CheckpointError::MissingField("w".into())),
                    Some(CheckpointError::UnexpectedField("z".into())),
                    Some(CheckpointError::ElementCount {
                        found: m.num_vertices(),
                        expected: small.num_vertices(),
                    }),
                    Some(CheckpointError::MissingField("values".into())),
                ]
            );
        }
    }

    /// Verified multi-field run: audits and protocol analysis stay clean
    /// with fused exchanges on the new reserved tag.
    #[test]
    fn verified_dataflow_run_is_clean() {
        let m = mesh();
        let mut config = StanceConfig::default()
            .with_check_interval(10)
            .with_verification(true);
        config.balancer = test_balancer();
        let spec = ClusterSpec::uniform(3)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0 / 3.0));
        let report = Cluster::new(spec).run(|env| {
            let graph = StageGraphBuilder::new()
                .field("y")
                .field("z")
                .stage("relax_y", RelaxationKernel, "y", "y")
                .stage("relax_z", RelaxationKernel, "z", "z")
                .build();
            let mut s = DataflowSession::setup(
                env,
                &m,
                graph,
                |name, g| if name == "y" { init(g) } else { -init(g) },
                &config,
            );
            let rep = s.run_adaptive(env, 40);
            let diags = s.verify_protocol(env);
            (rep.remaps, diags, s.trace().map_or(0, |t| t.events.len()))
        });
        let results: Vec<_> = report.into_results();
        assert!(results[0].0 >= 1, "load should force a remap");
        for (rank, (_, diags, events)) in results.iter().enumerate() {
            assert!(diags.is_empty(), "rank {rank} diagnostics: {diags:?}");
            assert!(*events > 0, "rank {rank} recorded no events");
        }
    }
}
