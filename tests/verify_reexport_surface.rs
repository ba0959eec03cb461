//! Pins the `stance::verify` re-export surface the README documents:
//! downstream users reach the whole verifier through the `stance` facade
//! without naming `stance-verify` in their manifest.

use stance::onedim::Interval;
use stance::prelude::*;
use stance::verify::{
    analyze_traces, audit_schedules, CheckedComm, Diagnostic, DiagnosticKind, RankTrace,
    ScheduleSummary,
};

#[test]
fn facade_paths_resolve_and_work() {
    // Protocol checker through the facade, end to end on the simulator.
    let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
    let report = Cluster::new(spec).run(|env| {
        let mut trace = RankTrace::new(env.rank(), env.size());
        let mut checked = CheckedComm::attach(env, &mut trace);
        let peer = 1 - checked.rank();
        if checked.rank() == 0 {
            checked.send(peer, Tag(1), u32::pack(&[7]));
        } else {
            let _ = checked.recv(peer, Tag(1));
        }
        checked.barrier();
        trace
    });
    let traces: Vec<RankTrace> = report.into_results();
    let diags: Vec<Diagnostic> = analyze_traces(&traces);
    assert!(diags.is_empty(), "{diags:?}");

    // Static audit through the facade: a two-rank gap is diagnosed.
    let summaries = vec![
        ScheduleSummary {
            rank: 0,
            interval: Interval::new(0, 4),
            index_space: 10,
            sends: vec![],
            recvs: vec![],
        },
        ScheduleSummary {
            rank: 1,
            interval: Interval::new(6, 10),
            index_space: 10,
            sends: vec![],
            recvs: vec![],
        },
    ];
    let diags = audit_schedules(&summaries);
    assert!(
        diags.iter().any(|d| d.kind == DiagnosticKind::IntervalGap),
        "{diags:?}"
    );
}
