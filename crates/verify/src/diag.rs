//! Structured findings: what went wrong, where, and between whom.

use std::fmt;

use stance_sim::Tag;

/// The kind of contract violation a check found. Each variant corresponds
/// to one invariant of the SPMD contract — the static audit produces the
/// schedule/plan kinds, the trace analyzer the protocol kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    /// The partition intervals leave part of the index space unowned.
    IntervalGap,
    /// Two partition intervals claim the same indices.
    IntervalOverlap,
    /// Rank p's send list to q and q's receive list from p differ.
    SendRecvAsymmetry,
    /// One global element is fetched as a ghost from two different peers.
    DoubleOwnedGhost,
    /// A receive segment lists a global its peer does not own.
    GhostFromNonOwner,
    /// The translated adjacency disagrees with what it was translated
    /// from: its shape, a reference the schedule never fetches, or
    /// per-block degree classes (which the sweep visits rows by) that do
    /// not match the adjacency's degrees.
    ClassificationMismatch,
    /// A redistribution's kept copy + receives do not exactly tile the
    /// new interval.
    RedistributionTile,
    /// The blocking send/receive order contains a cross-rank wait-for
    /// cycle: every rank on the cycle is blocked in a receive whose
    /// matching send comes later in its peer's program order.
    DeadlockCycle,
    /// A send no receive ever consumed.
    UnmatchedSend,
    /// A receive on a (source, tag) stream no in-flight message could
    /// satisfy.
    PhantomRecv,
    /// A matched send/receive pair whose payload kind or byte size
    /// changed in flight.
    PayloadMismatch,
    /// Ranks disagree on how many barriers the run performed.
    BarrierArity,
    /// A matched pair where the receive completed in an *earlier* barrier
    /// epoch than its send was posted in — physically impossible, so the
    /// trace itself is inconsistent.
    EpochCrossing,
    /// Application traffic on a reserved tag the runtime does not use:
    /// the tag is in the reserved band (`Tag::is_reserved`) but is not a
    /// registered runtime tag (`stance_sim::tags`), so it can silently
    /// collide with a future runtime protocol.
    ReservedTagMisuse,
    /// A stage graph's writer→reader dependencies contain a cycle, so no
    /// topological stage schedule exists.
    StageCycle,
    /// A stage reads or writes a field name that was never registered in
    /// the graph's field set.
    UndeclaredFieldAccess,
    /// Two stages in one graph share a name, making the schedule and its
    /// diagnostics ambiguous.
    DuplicateStageName,
    /// Two fields in one registry share a name, so accesses cannot be
    /// resolved to a unique array.
    DuplicateFieldName,
}

impl DiagnosticKind {
    /// Short stable label, used in `Display` and log grepping.
    pub fn label(self) -> &'static str {
        match self {
            DiagnosticKind::IntervalGap => "interval-gap",
            DiagnosticKind::IntervalOverlap => "interval-overlap",
            DiagnosticKind::SendRecvAsymmetry => "send-recv-asymmetry",
            DiagnosticKind::DoubleOwnedGhost => "double-owned-ghost",
            DiagnosticKind::GhostFromNonOwner => "ghost-from-non-owner",
            DiagnosticKind::ClassificationMismatch => "classification-mismatch",
            DiagnosticKind::RedistributionTile => "redistribution-tile",
            DiagnosticKind::DeadlockCycle => "deadlock-cycle",
            DiagnosticKind::UnmatchedSend => "unmatched-send",
            DiagnosticKind::PhantomRecv => "phantom-recv",
            DiagnosticKind::PayloadMismatch => "payload-mismatch",
            DiagnosticKind::BarrierArity => "barrier-arity",
            DiagnosticKind::EpochCrossing => "epoch-crossing",
            DiagnosticKind::ReservedTagMisuse => "reserved-tag-misuse",
            DiagnosticKind::StageCycle => "stage-cycle",
            DiagnosticKind::UndeclaredFieldAccess => "undeclared-field-access",
            DiagnosticKind::DuplicateStageName => "duplicate-stage-name",
            DiagnosticKind::DuplicateFieldName => "duplicate-field-name",
        }
    }
}

/// One verified contract violation: the invariant broken, the rank it was
/// observed on, the peer/tag it involves (when meaningful), and a
/// human-readable detail naming the concrete indices or intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which invariant was broken.
    pub kind: DiagnosticKind,
    /// The rank the violation was observed on.
    pub rank: usize,
    /// The other rank involved, if the violation is about a pair.
    pub peer: Option<usize>,
    /// The message tag involved, if the violation is about a stream.
    pub tag: Option<Tag>,
    /// Concrete detail: the indices, intervals, or counts that disagree.
    pub detail: String,
}

impl Diagnostic {
    /// A diagnostic observed on `rank` with no peer or tag context.
    pub fn new(kind: DiagnosticKind, rank: usize, detail: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            rank,
            peer: None,
            tag: None,
            detail: detail.into(),
        }
    }

    /// Attaches the peer rank.
    pub fn with_peer(mut self, peer: usize) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Attaches the message tag.
    pub fn with_tag(mut self, tag: Tag) -> Self {
        self.tag = Some(tag);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] rank {}", self.kind.label(), self.rank)?;
        if let Some(peer) = self.peer {
            write!(f, " <-> rank {peer}")?;
        }
        if let Some(tag) = self.tag {
            write!(f, " tag {}", tag.0)?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Formats a batch of diagnostics one per line (the panic message of a
/// failed verification pass).
pub(crate) fn render(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_rank_peer_and_tag() {
        let d = Diagnostic::new(DiagnosticKind::UnmatchedSend, 2, "3 sends never received")
            .with_peer(5)
            .with_tag(Tag(7));
        let s = d.to_string();
        assert!(s.contains("unmatched-send"), "{s}");
        assert!(s.contains("rank 2"), "{s}");
        assert!(s.contains("rank 5"), "{s}");
        assert!(s.contains("tag 7"), "{s}");
        assert!(s.contains("3 sends"), "{s}");
    }
}
