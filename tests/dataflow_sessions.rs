//! Acceptance tests for the multi-field dataflow session API: stage-DAG
//! validation diagnostics, the **fused-exchange message contract**
//! (exactly one gather message per neighbor per pass, trace-verified on
//! both backends), bitwise equivalence of the fused exchange with
//! per-field serial references, and name-keyed checkpoint round trips.
//!
//! The message-count check is the tentpole's acceptance criterion: a
//! three-field, two-stage graph whose two relaxation stages both read
//! ghosts at the pass boundary must move **one** `TAG_GATHER_FUSED`
//! message per neighbor per pass — not one per field — while the third
//! (inert) field is never gathered at all. The count comes from the
//! protocol trace the session records under
//! `StanceConfig::with_verification(true)`, so it is the actual traffic,
//! not a model.

use stance::executor::sequential_relaxation;
use stance::prelude::*;
use stance::sim::tags::{TAG_GATHER, TAG_GATHER_FUSED};
use stance_native::NativeCluster;
use stance_verify::{DiagnosticKind, TraceEvent};

fn mesh() -> Graph {
    let raw = stance::locality::meshgen::triangulated_grid(14, 11, 0.4, 5);
    stance::prepare_mesh(&raw, OrderingMethod::Rcb).0
}

fn init(name: &str, g: usize) -> f64 {
    match name {
        "y" => (g as f64 * 0.01).sin() * 5.0,
        "z" => (g as f64 * 0.02).cos() * 3.0,
        _ => g as f64,
    }
}

/// The acceptance graph: two independent relaxation stages sharing the
/// pass-start exchange point, plus an inert field nobody reads or writes.
fn three_field_graph() -> StageGraph<f64> {
    StageGraphBuilder::new()
        .field("y")
        .field("z")
        .field("inert")
        .stage("relax_y", RelaxationKernel, "y", "y")
        .stage("relax_z", RelaxationKernel, "z", "z")
        .build()
}

// ---------------------------------------------------------------------
// DAG validation diagnostics (the non-panicking spelling).
// ---------------------------------------------------------------------

#[test]
fn validate_reports_cycles_without_panicking() {
    let diags = StageGraphBuilder::<f64>::new()
        .field("a")
        .field("b")
        .stage("fwd", RelaxationKernel, "a", "b")
        .stage("bwd", RelaxationKernel, "b", "a")
        .validate();
    assert!(
        diags.iter().any(|d| d.kind == DiagnosticKind::StageCycle),
        "expected a stage-cycle diagnostic, got {diags:?}"
    );
}

#[test]
fn validate_reports_undeclared_reads() {
    let diags = StageGraphBuilder::<f64>::new()
        .field("y")
        .stage("relax", RelaxationKernel, "phantom", "y")
        .validate();
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::UndeclaredFieldAccess),
        "expected an undeclared-field-access diagnostic, got {diags:?}"
    );
}

#[test]
fn validate_reports_duplicate_names() {
    let diags = StageGraphBuilder::<f64>::new()
        .field("y")
        .field("y")
        .stage("relax", RelaxationKernel, "y", "y")
        .stage("relax", RelaxationKernel, "y", "y")
        .validate();
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DuplicateFieldName),
        "expected a duplicate-field-name diagnostic, got {diags:?}"
    );
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::DuplicateStageName),
        "expected a duplicate-stage-name diagnostic, got {diags:?}"
    );
}

#[test]
#[should_panic(expected = "stage-graph validation")]
fn build_panics_on_invalid_graphs() {
    let _ = StageGraphBuilder::<f64>::new()
        .field("a")
        .field("b")
        .stage("fwd", RelaxationKernel, "a", "b")
        .stage("bwd", RelaxationKernel, "b", "a")
        .build();
}

// ---------------------------------------------------------------------
// The fused message contract, trace-verified on both backends.
// ---------------------------------------------------------------------

/// What one rank's traced run returns: per-destination fused-message
/// counts, the plain per-field gather count, this rank's schedule
/// neighbors, the two live fields, and the partition.
type TracedRank = (
    Vec<(usize, usize)>,
    usize,
    Vec<usize>,
    Vec<f64>,
    Vec<f64>,
    BlockPartition,
);

/// One rank's run of the acceptance graph under full verification.
/// Returns, from the recorded protocol trace: the per-destination count
/// of fused gather messages, the count of plain per-field gathers, this
/// rank's schedule neighbors, and the field values for the bitwise half.
fn traced_body<C: Comm>(env: &mut C, mesh: &Graph, passes: usize) -> TracedRank {
    let config = StanceConfig::free()
        .without_load_balancing()
        .with_verification(true);
    let mut s = DataflowSession::setup(env, mesh, three_field_graph(), init, &config);
    s.run_block(env, passes);
    let diags = s.verify_protocol(env);
    assert!(diags.is_empty(), "protocol diagnostics: {diags:?}");
    let neighbors: Vec<usize> = s.schedule().sends().iter().map(|(p, _)| *p).collect();
    let trace = s.trace().expect("verification is on");
    let mut fused_per_dst = vec![0usize; env.size()];
    let mut plain = 0usize;
    for ev in &trace.events {
        if let TraceEvent::Send { dst, tag, .. } = ev {
            if *tag == TAG_GATHER_FUSED {
                fused_per_dst[*dst] += 1;
            } else if *tag == TAG_GATHER {
                plain += 1;
            }
        }
    }
    let counts = fused_per_dst
        .into_iter()
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .collect();
    (
        counts,
        plain,
        neighbors,
        s.local("y").to_vec(),
        s.local("z").to_vec(),
        s.partition().clone(),
    )
}

/// Checks one backend's results: every rank sent exactly `passes` fused
/// messages to each of its schedule neighbors and nothing on the plain
/// gather tag. Returns the reassembled (y, z) globals.
fn check_contract(results: Vec<TracedRank>, passes: usize, backend: &str) -> (Vec<f64>, Vec<f64>) {
    let partition = results[0].5.clone();
    let mut ys = Vec::new();
    let mut zs = Vec::new();
    for (rank, (counts, plain, neighbors, y, z, _)) in results.into_iter().enumerate() {
        let expected: Vec<(usize, usize)> = neighbors.iter().map(|&d| (d, passes)).collect();
        assert_eq!(
            counts, expected,
            "{backend} rank {rank}: fused sends per neighbor != one per pass"
        );
        assert_eq!(
            plain, 0,
            "{backend} rank {rank}: plain per-field gathers leaked into a fused run"
        );
        ys.push(y);
        zs.push(z);
    }
    (
        stance::reassemble(&partition, ys),
        stance::reassemble(&partition, zs),
    )
}

#[test]
fn fused_graph_sends_one_message_per_neighbor_per_pass_on_both_backends() {
    let m = mesh();
    let passes = 7;
    for p in [2usize, 4] {
        let m2 = &m;
        let sim_results =
            Cluster::new(ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost()))
                .run(|env| traced_body(env, m2, passes))
                .into_results();
        let native_results = NativeCluster::new(p)
            .run(|env| traced_body(env, m2, passes))
            .into_results();
        let (sim_y, sim_z) = check_contract(sim_results, passes, "sim");
        let (nat_y, nat_z) = check_contract(native_results, passes, "native");
        assert_eq!(
            bits(&sim_y),
            bits(&nat_y),
            "y diverged across backends at p = {p}"
        );
        assert_eq!(
            bits(&sim_z),
            bits(&nat_z),
            "z diverged across backends at p = {p}"
        );
    }
}

// ---------------------------------------------------------------------
// Fused exchange vs per-field serial references: bitwise identical on
// both backends, without the verifier in the path.
// ---------------------------------------------------------------------

/// What one rank's unverified run returns: the two live fields, the
/// messages it sent during the passes (as `sent` counts them), its
/// schedule neighbor count, and the partition.
type FlavorRank = (Vec<f64>, Vec<f64>, u64, usize, BlockPartition);

fn flavor_body<C: Comm>(
    env: &mut C,
    mesh: &Graph,
    passes: usize,
    sent: impl Fn(&C) -> u64,
) -> FlavorRank {
    let config = StanceConfig::free().without_load_balancing();
    let mut s = DataflowSession::setup(env, mesh, three_field_graph(), init, &config);
    let before = sent(env);
    s.run_block(env, passes);
    (
        s.local("y").to_vec(),
        s.local("z").to_vec(),
        sent(env) - before,
        s.schedule().sends().len(),
        s.partition().clone(),
    )
}

fn reassemble_flavor(results: Vec<FlavorRank>) -> (Vec<f64>, Vec<f64>) {
    let partition = results[0].4.clone();
    let (ys, zs): (Vec<_>, Vec<_>) = results.into_iter().map(|(y, z, ..)| (y, z)).unzip();
    (
        stance::reassemble(&partition, ys),
        stance::reassemble(&partition, zs),
    )
}

/// Each field of the fused run equals its own serial relaxation — the
/// per-field reference — bitwise, on both backends; and on the simulator
/// (whose counters are exact) the passes move `passes x neighbors`
/// messages per rank, one per neighbor per pass for both fields together.
#[test]
fn fused_and_per_field_exchange_are_bitwise_identical() {
    let m = mesh();
    let n = m.num_vertices();
    let passes = 9;
    let mut exp_y: Vec<f64> = (0..n).map(|g| init("y", g)).collect();
    let mut exp_z: Vec<f64> = (0..n).map(|g| init("z", g)).collect();
    sequential_relaxation(&m, &mut exp_y, passes);
    sequential_relaxation(&m, &mut exp_z, passes);
    for p in [1usize, 2, 4] {
        let m2 = &m;
        let sim_results =
            Cluster::new(ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost()))
                .run(|env| flavor_body(env, m2, passes, |e| e.stats().messages_sent))
                .into_results();
        for (rank, (_, _, msgs, neighbors, _)) in sim_results.iter().enumerate() {
            assert_eq!(
                *msgs,
                (passes * neighbors) as u64,
                "sim rank {rank}: gather messages != passes x neighbors at p = {p}"
            );
        }
        let (sy, sz) = reassemble_flavor(sim_results);
        assert_eq!(bits(&sy), bits(&exp_y), "sim y != serial y at p = {p}");
        assert_eq!(bits(&sz), bits(&exp_z), "sim z != serial z at p = {p}");
        let (ny, nz) = reassemble_flavor(
            NativeCluster::new(p)
                .run(|env| flavor_body(env, m2, passes, |_| 0))
                .into_results(),
        );
        assert_eq!(
            bits(&ny),
            bits(&sy),
            "y diverged across backends at p = {p}"
        );
        assert_eq!(
            bits(&nz),
            bits(&sz),
            "z diverged across backends at p = {p}"
        );
    }
}

// ---------------------------------------------------------------------
// Name-keyed checkpoints across the two session APIs.
// ---------------------------------------------------------------------

#[test]
fn legacy_checkpoint_records_generated_names() {
    let m = mesh();
    let config = StanceConfig::free().without_load_balancing();
    let report =
        Cluster::new(ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost())).run(|env| {
            // The one-field spelling: caller-owned aux slices get
            // generated names …
            let mut s =
                AdaptiveSession::setup(env, &m, RelaxationKernel, |g| init("y", g), &config);
            let iv = s.partition().interval_of(env.rank());
            let aux: Vec<f64> = iv.iter().map(|g| g as f64).collect();
            let auto = s.checkpoint(env, &[&aux]);
            // … a registered field is recorded under its own.
            let graph = StageGraphBuilder::new()
                .field("values")
                .field("residual")
                .stage("sweep", RelaxationKernel, "values", "values")
                .build();
            let mut d = DataflowSession::setup(env, &m, graph, init, &config);
            let named = d.checkpoint(env);
            let auto_names: Vec<String> = auto.fields().iter().map(|(n, _)| n.clone()).collect();
            (
                auto_names,
                named.field("residual").map(<[f64]>::to_vec),
                named.to_bytes(),
            )
        });
    for (auto_names, named_field, bytes) in report.results() {
        assert_eq!(*auto_names, ["values", "aux0"]);
        let named_field = named_field.as_ref().expect("named field recorded");
        let expected: Vec<f64> = (0..named_field.len()).map(|g| g as f64).collect();
        assert_eq!(
            named_field, &expected,
            "registered field holds its own data"
        );
        let back = SessionCheckpoint::<f64>::from_bytes(bytes).expect("a valid blob");
        assert_eq!(back.field("residual"), Some(named_field.as_slice()));
    }
}

#[test]
fn dataflow_restore_is_keyed_by_name_not_position() {
    let m = mesh();
    let config = StanceConfig::free().without_load_balancing();
    // Registration order differs between writer and reader — a positional
    // zip would silently swap the fields; the name-keyed restore must not.
    let writer_graph = || {
        StageGraphBuilder::new()
            .field("y")
            .field("z")
            .stage("relax_y", RelaxationKernel, "y", "y")
            .stage("relax_z", RelaxationKernel, "z", "z")
            .build()
    };
    let report =
        Cluster::new(ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost())).run(|env| {
            let mut s = DataflowSession::setup(env, &m, writer_graph(), init, &config);
            s.run_block(env, 3);
            let ckpt = s.checkpoint(env);
            let blob = ckpt.to_bytes();
            let back = SessionCheckpoint::<f64>::from_bytes(&blob).expect("a valid blob");
            let mut r = DataflowSession::restore(env, &m, writer_graph(), &back, &config)
                .expect("the checkpoint fits the graph");
            r.run_block(env, 2);
            s.run_block(env, 2);
            (
                s.local("y") == r.local("y") && s.local("z") == r.local("z"),
                back.field("z").map(<[f64]>::to_vec),
                ckpt.field("z").map(<[f64]>::to_vec),
            )
        });
    for (same, wire_z, live_z) in report.results() {
        assert!(same, "restored run diverged from the original");
        assert_eq!(wire_z, live_z, "field z changed across the wire");
    }
}

#[test]
#[should_panic(expected = "more than once")]
fn checkpoint_rejects_duplicate_field_names() {
    // A checkpoint's keys are the registered field names, so a duplicate
    // is rejected where the names are declared — no session (and hence no
    // checkpoint) can exist with two fields under one name. (A blob
    // forged around this is rejected at decode time; see the
    // `checkpoint` module's own tests.)
    let _ = StageGraphBuilder::<f64>::new()
        .field("values")
        .field("dup")
        .field("dup")
        .stage("sweep", RelaxationKernel, "values", "values")
        .build();
}

/// f64 slices compared as raw bit patterns (catches -0.0 vs 0.0 and NaN
/// payload differences that `==` would hide or over-reject).
fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}
