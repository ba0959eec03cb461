//! Negative paths of the SPMD-contract verifier: every defect kind the
//! analyzers can report is provoked here by a hand-built corruption, and
//! each must produce *its* diagnostic — right kind, right rank, and a
//! detail that names the offending tag, peer, interval or element, so a
//! user reading the panic report can find the bug without re-deriving
//! the analysis.
//!
//! The positive paths (clean runs on both backends, bitwise-identical
//! results under verification) live in `adaptive_scenarios.rs` and
//! `backend_equivalence.rs`; the session-level wiring in
//! `crates/core/src/session.rs`.

use stance::inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
use stance::onedim::{BlockPartition, Interval, RedistributionPlan};
use stance::prelude::*;
use stance::verify::{
    analyze_traces, audit_redistribution, audit_schedules, audit_translation, expect_clean,
    Diagnostic, DiagnosticKind, RankTrace, ScheduleSummary, TraceEvent,
};

// ---------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------

fn summary(
    rank: usize,
    interval: (usize, usize),
    n: usize,
    sends: Vec<(usize, Vec<u32>)>,
    recvs: Vec<(usize, Vec<u32>)>,
) -> ScheduleSummary {
    ScheduleSummary {
        rank,
        interval: Interval::new(interval.0, interval.1),
        index_space: n,
        sends,
        recvs,
    }
}

/// Three ranks over [0, 12), each exchanging its boundary element with
/// its neighbours — a clean baseline each corruption test perturbs.
fn clean_summaries() -> Vec<ScheduleSummary> {
    vec![
        summary(0, (0, 4), 12, vec![(1, vec![3])], vec![(1, vec![4])]),
        summary(
            1,
            (4, 8),
            12,
            vec![(0, vec![4]), (2, vec![7])],
            vec![(0, vec![3]), (2, vec![8])],
        ),
        summary(2, (8, 12), 12, vec![(1, vec![8])], vec![(1, vec![7])]),
    ]
}

fn find(diags: &[Diagnostic], kind: DiagnosticKind) -> &Diagnostic {
    diags
        .iter()
        .find(|d| d.kind == kind)
        .unwrap_or_else(|| panic!("no {kind:?} diagnostic in {diags:?}"))
}

fn send(dst: usize, tag: u32, bytes: u32) -> TraceEvent {
    TraceEvent::Send {
        dst,
        tag: Tag(tag),
        bytes,
    }
}

fn recv(src: usize, tag: u32, bytes: u32) -> TraceEvent {
    TraceEvent::Recv {
        src,
        tag: Tag(tag),
        bytes,
    }
}

fn trace(rank: usize, size: usize, events: Vec<TraceEvent>) -> RankTrace {
    RankTrace { rank, size, events }
}

// ---------------------------------------------------------------------
// Static schedule audit
// ---------------------------------------------------------------------

#[test]
fn clean_baseline_audits_clean() {
    assert_eq!(audit_schedules(&clean_summaries()), Vec::new());
}

/// Kind 1: a rank's interval shrinks, leaving elements nobody owns.
#[test]
fn interval_gap_names_the_orphaned_range() {
    let mut set = clean_summaries();
    set[1].interval = Interval::new(6, 8);
    let d = {
        let diags = audit_schedules(&set);
        find(&diags, DiagnosticKind::IntervalGap).clone()
    };
    assert!(
        d.detail.contains("[4, 6)"),
        "detail must name the orphaned range: {}",
        d.detail
    );
}

/// Kind 2: a rank's interval grows into its neighbour's.
#[test]
fn interval_overlap_names_the_double_owner() {
    let mut set = clean_summaries();
    set[2].interval = Interval::new(6, 12);
    let diags = audit_schedules(&set);
    let d = find(&diags, DiagnosticKind::IntervalOverlap);
    assert_eq!(d.rank, 2);
    assert!(
        d.detail.contains("[6, 12)"),
        "detail must name the overlapping interval: {}",
        d.detail
    );
}

/// Kind 3: the sender's segment and the receiver's expectation disagree
/// in one element — the diagnostic names the position and both globals.
#[test]
fn send_recv_asymmetry_names_the_differing_element() {
    let mut set = clean_summaries();
    set[1].sends[1] = (2, vec![6]); // rank 2 expects global 7
    let diags = audit_schedules(&set);
    let d = find(&diags, DiagnosticKind::SendRecvAsymmetry);
    assert_eq!((d.rank, d.peer), (1, Some(2)));
    assert!(
        d.detail.contains('6') && d.detail.contains('7'),
        "detail must name both globals: {}",
        d.detail
    );
}

/// Kind 3b: a send with no matching receive at all (and the mirror-image
/// receive from a silent sender) are both asymmetries.
#[test]
fn missing_receive_and_missing_send_are_both_reported() {
    let mut set = clean_summaries();
    set[2].recvs.clear(); // rank 1 still sends to rank 2
    let diags = audit_schedules(&set);
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::SendRecvAsymmetry
                && d.rank == 1
                && d.detail.contains("no matching receive")),
        "{diags:?}"
    );
    let mut set = clean_summaries();
    set[2].sends.clear(); // rank 1 still expects from rank 2
    let diags = audit_schedules(&set);
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::SendRecvAsymmetry
                && d.rank == 1
                && d.detail.contains("sends nothing")),
        "{diags:?}"
    );
}

/// Kind 3c: a send segment listed twice. Symmetry alone cannot see it
/// (both copies match the peer's one receive), so the audit names the
/// rank, the peer and the direction — and nothing else.
#[test]
fn duplicated_send_segment_is_an_asymmetry() {
    let mut set = clean_summaries();
    let repeat = set[1].sends[0].clone();
    set[1].sends.push(repeat);
    let diags = audit_schedules(&set);
    assert_eq!(diags.len(), 1, "one repeat, one report: {diags:?}");
    let d = find(&diags, DiagnosticKind::SendRecvAsymmetry);
    assert_eq!((d.rank, d.peer), (1, Some(0)));
    assert!(
        d.detail.contains("rank 0") && d.detail.contains("send segment"),
        "detail must name the peer and the direction: {}",
        d.detail
    );
}

/// Kind 3d: a receive segment listed twice — reported as the repeat it
/// is, not as a ghost fetched from the same peer twice.
#[test]
fn duplicated_receive_segment_is_an_asymmetry() {
    let mut set = clean_summaries();
    let repeat = set[1].recvs[1].clone();
    set[1].recvs.push(repeat);
    let diags = audit_schedules(&set);
    assert_eq!(diags.len(), 1, "one repeat, one report: {diags:?}");
    let d = find(&diags, DiagnosticKind::SendRecvAsymmetry);
    assert_eq!((d.rank, d.peer), (1, Some(2)));
    assert!(
        d.detail.contains("rank 2") && d.detail.contains("receive segment"),
        "detail must name the peer and the direction: {}",
        d.detail
    );
}

/// Kind 4: one ghost fetched from two different peers.
#[test]
fn double_owned_ghost_names_both_sources() {
    let mut set = clean_summaries();
    set[1].recvs[1] = (2, vec![3]); // global 3 already arrives from rank 0
    let diags = audit_schedules(&set);
    let d = find(&diags, DiagnosticKind::DoubleOwnedGhost);
    assert_eq!(d.rank, 1);
    assert!(
        d.detail.contains("ghost 3") && d.detail.contains("rank 0") && d.detail.contains("rank 2"),
        "detail must name the ghost and both sources: {}",
        d.detail
    );
}

/// Kind 5: a ghost requested from a rank that does not own it.
#[test]
fn ghost_from_non_owner_names_the_true_interval() {
    let mut set = clean_summaries();
    set[0].recvs[0] = (1, vec![9]); // rank 1 owns [4, 8), not 9
    let diags = audit_schedules(&set);
    let d = find(&diags, DiagnosticKind::GhostFromNonOwner);
    assert_eq!((d.rank, d.peer), (0, Some(1)));
    assert!(
        d.detail.contains("ghost 9") && d.detail.contains("[4, 8)"),
        "detail must name the ghost and the peer's interval: {}",
        d.detail
    );
}

/// Kind 6: the translated adjacency disagrees with the raw references it
/// is audited against — here provoked by auditing a translation against
/// a *different* mesh's adjacency (same vertex count, different edges).
#[test]
fn classification_mismatch_names_the_vertex() {
    let mesh_a = stance::locality::meshgen::triangulated_grid(8, 8, 0.4, 1);
    let mesh_b = stance::locality::meshgen::triangulated_grid(4, 16, 0.4, 1);
    let part = BlockPartition::uniform(mesh_a.num_vertices(), 2);
    let adj_a = LocalAdjacency::extract(&mesh_a, &part, 0);
    let adj_b = LocalAdjacency::extract(&mesh_b, &part, 0);
    let (schedule, _) = build_schedule_symmetric(&part, &adj_a, 0, ScheduleStrategy::Sort2);
    let tadj = schedule.translate_adjacency(&adj_a);
    // The honest audit is clean …
    assert_eq!(audit_translation(&schedule, &adj_a, &tadj), Vec::new());
    // … the cross-mesh audit is not.
    let diags = audit_translation(&schedule, &adj_b, &tadj);
    let d = find(&diags, DiagnosticKind::ClassificationMismatch);
    assert_eq!(d.rank, 0);
    assert!(
        d.detail.contains("vertex") && d.detail.contains("[0, 32)"),
        "detail must name the vertex and the rank's interval: {}",
        d.detail
    );
}

/// Kind 6 again, the degree index: a translation audited against an
/// adjacency of the same shape in
/// which one row has lost a reference — the sweep would visit that row
/// with the wrong trip count.
#[test]
fn degree_class_mismatch_names_the_vertex_and_both_degrees() {
    let mesh = stance::locality::meshgen::triangulated_grid(8, 8, 0.4, 1);
    let part = BlockPartition::uniform(mesh.num_vertices(), 2);
    let adj_a = LocalAdjacency::extract(&mesh, &part, 0);
    let (schedule, _) = build_schedule_symmetric(&part, &adj_a, 0, ScheduleStrategy::Sort2);
    let tadj = schedule.translate_adjacency(&adj_a);
    assert_eq!(audit_translation(&schedule, &adj_a, &tadj), Vec::new());

    // Row 9 has at least two references: drop its last one.
    let (interval, mut xadj, mut refs) = adj_a.clone().into_parts();
    let degree = xadj[10] - xadj[9];
    assert!(degree >= 2);
    refs.remove(xadj[10] as usize - 1);
    for x in &mut xadj[10..] {
        *x -= 1;
    }
    let adj_b = LocalAdjacency::from_parts(interval, xadj, refs);

    let diags = audit_translation(&schedule, &adj_b, &tadj);
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = find(&diags, DiagnosticKind::ClassificationMismatch);
    assert_eq!(d.rank, 0);
    let expected = format!(
        "vertex 9 of [0, 32) has degree {} but is swept with degree class {degree}",
        degree - 1
    );
    assert_eq!(d.detail, expected);
}

/// Kind 6 once more, the slots themselves: a translation audited against
/// an adjacency of the same shape in which two rows of equal degree have
/// exchanged one reference. Every shape and every degree agrees; the
/// sweep would add up the wrong neighbours in exactly those two rows.
#[test]
fn swapped_reference_names_the_vertex_and_both_slot_lists() {
    let mesh = stance::locality::meshgen::triangulated_grid(8, 8, 0.4, 1);
    let part = BlockPartition::uniform(mesh.num_vertices(), 2);
    let adj_a = LocalAdjacency::extract(&mesh, &part, 0);
    let (schedule, _) = build_schedule_symmetric(&part, &adj_a, 0, ScheduleStrategy::Sort2);
    let tadj = schedule.translate_adjacency(&adj_a);
    assert_eq!(audit_translation(&schedule, &adj_a, &tadj), Vec::new());

    // Two rows of the same degree that reference owned vertices only (so
    // the schedule fetches nothing for them) and open with different ones:
    // exchange those first references.
    let owned = |l: usize| {
        let refs = adj_a.neighbors_of(l);
        !refs.is_empty() && refs.iter().all(|&g| adj_a.interval().contains(g as usize))
    };
    let (a, b) = (0..adj_a.len())
        .flat_map(|a| (a + 1..adj_a.len()).map(move |b| (a, b)))
        .find(|&(a, b)| {
            owned(a)
                && owned(b)
                && adj_a.degree_of(a) == adj_a.degree_of(b)
                && adj_a.neighbors_of(a)[0] != adj_a.neighbors_of(b)[0]
        })
        .expect("two such rows");
    let (interval, xadj, mut refs) = adj_a.clone().into_parts();
    refs.swap(xadj[a] as usize, xadj[b] as usize);
    let adj_b = LocalAdjacency::from_parts(interval, xadj, refs);

    let diags = audit_translation(&schedule, &adj_b, &tadj);
    assert_eq!(diags.len(), 2, "{diags:?}");
    for (d, l) in diags.iter().zip([a, b]) {
        assert_eq!(d.kind, DiagnosticKind::ClassificationMismatch);
        assert_eq!(d.rank, 0);
        // Rank 0's interval starts at 0: an owned global is its own slot.
        let expected = format!(
            "vertex {l} of [0, 32) is swept over slots {:?}, its references translate to {:?}",
            adj_a.neighbors_of(l),
            adj_b.neighbors_of(l)
        );
        assert_eq!(d.detail, expected);
    }
}

/// Kind 7: a redistribution plan that does not match the partitions it
/// is audited against — moves ship data the source no longer owns and
/// the receives no longer tile the new intervals.
#[test]
fn redistribution_tile_errors_name_ranges_and_intervals() {
    let old = BlockPartition::from_sizes(&[6, 6]);
    let new = BlockPartition::from_sizes(&[2, 10]);
    let mid = BlockPartition::from_sizes(&[9, 3]);
    // The honest plan audits clean.
    assert_eq!(
        audit_redistribution(&old, &new, &RedistributionPlan::between(&old, &new)),
        Vec::new()
    );
    // A plan computed for different partitions does not.
    let stale = RedistributionPlan::between(&old, &mid);
    let diags = audit_redistribution(&old, &new, &stale);
    let d = find(&diags, DiagnosticKind::RedistributionTile);
    assert!(
        d.detail.contains('['),
        "detail must name an interval: {}",
        d.detail
    );
    // The tiling failure names the rank whose new interval is short.
    assert!(
        diags
            .iter()
            .any(|d| d.kind == DiagnosticKind::RedistributionTile
                && d.detail.contains("do not tile")),
        "{diags:?}"
    );
}

// ---------------------------------------------------------------------
// Dynamic protocol analysis
// ---------------------------------------------------------------------

/// Kind 8: a send no receiver ever drains.
#[test]
fn unmatched_send_names_stream_and_tag() {
    let traces = vec![trace(0, 2, vec![send(1, 7, 8)]), trace(1, 2, Vec::new())];
    let diags = analyze_traces(&traces);
    let d = find(&diags, DiagnosticKind::UnmatchedSend);
    assert_eq!((d.rank, d.peer, d.tag), (0, Some(1), Some(Tag(7))));
}

/// Kind 9: a receive whose message was never sent.
#[test]
fn phantom_recv_names_stream_and_tag() {
    let traces = vec![trace(0, 2, Vec::new()), trace(1, 2, vec![recv(0, 7, 8)])];
    let diags = analyze_traces(&traces);
    let d = find(&diags, DiagnosticKind::PhantomRecv);
    assert_eq!((d.rank, d.peer, d.tag), (1, Some(0), Some(Tag(7))));
}

/// Kind 10: matched send and receive whose payload sizes differ — the
/// diagnostic names both sizes.
#[test]
fn payload_mismatch_names_both_shapes() {
    let traces = vec![
        trace(0, 2, vec![send(1, 7, 8)]),
        trace(
            1,
            2,
            vec![TraceEvent::Recv {
                src: 0,
                tag: Tag(7),
                bytes: 16,
            }],
        ),
    ];
    let diags = analyze_traces(&traces);
    let d = find(&diags, DiagnosticKind::PayloadMismatch);
    assert_eq!(d.tag, Some(Tag(7)));
    assert!(
        d.detail.contains("sent 8 bytes") && d.detail.contains("received 16 bytes"),
        "detail must name both sizes: {}",
        d.detail
    );
}

/// Kind 11: ranks disagree on how many barriers the run performed.
#[test]
fn barrier_arity_mismatch_names_both_counts() {
    let traces = vec![
        trace(0, 2, vec![TraceEvent::Barrier, TraceEvent::Barrier]),
        trace(1, 2, vec![TraceEvent::Barrier]),
    ];
    let diags = analyze_traces(&traces);
    let d = find(&diags, DiagnosticKind::BarrierArity);
    assert!(
        d.detail.contains('2') && d.detail.contains('1'),
        "detail must name both barrier counts: {}",
        d.detail
    );
}

/// Kind 12: a message received in an earlier barrier epoch than it was
/// sent in — impossible under a correct barrier, so the trace itself is
/// inconsistent. (The reverse — received in a *later* epoch — is legal
/// buffering and must stay clean.)
#[test]
fn epoch_crossing_is_flagged_and_buffering_is_not() {
    // Legal: sent in epoch 0, drained in epoch 1.
    let buffered = vec![
        trace(0, 2, vec![send(1, 9, 4), TraceEvent::Barrier]),
        trace(1, 2, vec![TraceEvent::Barrier, recv(0, 9, 4)]),
    ];
    assert!(
        !analyze_traces(&buffered)
            .iter()
            .any(|d| d.kind == DiagnosticKind::EpochCrossing),
        "cross-epoch buffering is legal"
    );
    // Impossible: sent in epoch 1, received in epoch 0.
    let crossing = vec![
        trace(0, 2, vec![TraceEvent::Barrier, send(1, 9, 4)]),
        trace(1, 2, vec![recv(0, 9, 4), TraceEvent::Barrier]),
    ];
    let diags = analyze_traces(&crossing);
    let d = find(&diags, DiagnosticKind::EpochCrossing);
    assert_eq!(d.tag, Some(Tag(9)));
    assert!(
        d.detail.contains("epoch"),
        "detail must explain the epoch relation: {}",
        d.detail
    );
}

// ---------------------------------------------------------------------
// Failure presentation
// ---------------------------------------------------------------------

/// `expect_clean` — what the session calls on audit failure — panics
/// with the rendered report: context, count, and each diagnostic's
/// labelled line.
#[test]
fn expect_clean_panics_with_the_rendered_report() {
    let mut set = clean_summaries();
    set[1].interval = Interval::new(6, 8);
    let diags = audit_schedules(&set);
    let err = std::panic::catch_unwind(|| expect_clean("negative-path audit", &diags))
        .expect_err("corrupted schedules must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic payload is the report");
    assert!(msg.contains("negative-path audit"), "{msg}");
    assert!(msg.contains("interval-gap"), "{msg}");
    assert!(msg.contains("rank"), "{msg}");
}
