//! The static schedule audit: global invariants of the inspector's
//! artifacts, checked from replicated per-rank summaries.
//!
//! Everything here is pure analysis over data the inspector already
//! produced. The only communication is [`audit_collective`]'s one
//! allgather of [`ScheduleSummary`]s, after which every rank runs the
//! identical checks on identical input — so a failing audit fails on
//! every rank with the same report.

use stance_inspector::{CommSchedule, LocalAdjacency, TranslatedAdjacency};
use stance_onedim::{BlockPartition, Interval, RedistributionPlan};
use stance_sim::{Comm, Payload, Tag};

use crate::diag::{render, Diagnostic, DiagnosticKind};

/// Reserved tag for the audit's summary allgather (re-exported from the
/// central [`stance_sim::tags`] registry).
pub const TAG_AUDIT: Tag = stance_sim::tags::TAG_AUDIT;

/// Reserved tag for the protocol checker's trace allgather (see
/// [`crate::analyze_traces`]; re-exported from the central
/// [`stance_sim::tags`] registry).
pub const TAG_TRACE: Tag = stance_sim::tags::TAG_TRACE;

/// One rank's schedule, flattened to globals for cross-rank comparison:
/// send lists are translated from block-local indices to global element
/// ids, so rank p's segment to q and q's segment from p must be equal
/// element-for-element. Serializes to a `u32` payload for the audit's
/// allgather; tests hand-build corrupted summaries directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleSummary {
    /// The rank this summary describes.
    pub rank: usize,
    /// The rank's owned interval.
    pub interval: Interval,
    /// Size of the global index space the partition must tile.
    pub index_space: usize,
    /// `(peer, globals sent)` per send segment, in schedule order.
    pub sends: Vec<(usize, Vec<u32>)>,
    /// `(peer, globals received)` per receive segment, in schedule order.
    pub recvs: Vec<(usize, Vec<u32>)>,
}

impl ScheduleSummary {
    /// Summarizes `schedule` for an index space of `n` elements,
    /// translating send locals to globals.
    pub fn of(schedule: &CommSchedule, n: usize) -> Self {
        let base = schedule.interval().start as u32;
        ScheduleSummary {
            rank: schedule.rank(),
            interval: schedule.interval(),
            index_space: n,
            sends: schedule
                .sends()
                .iter()
                .map(|(peer, locals)| (*peer, locals.iter().map(|&l| base + l).collect()))
                .collect(),
            recvs: schedule.recvs().to_vec(),
        }
    }

    /// Packs the summary into a `u32` payload for the audit allgather.
    pub fn to_payload(&self) -> Payload {
        let mut w: Vec<u32> = vec![
            self.rank as u32,
            self.interval.start as u32,
            self.interval.end as u32,
            self.index_space as u32,
            self.sends.len() as u32,
            self.recvs.len() as u32,
        ];
        for (peer, globals) in self.sends.iter().chain(&self.recvs) {
            w.push(*peer as u32);
            w.push(globals.len() as u32);
            w.extend_from_slice(globals);
        }
        Payload::from_u32(w)
    }

    /// Decodes a payload produced by [`ScheduleSummary::to_payload`].
    ///
    /// # Panics
    /// Panics on a malformed payload (the audit protocol is internal).
    pub fn from_payload(p: Payload) -> Self {
        let w = p.into_u32();
        let rank = w[0] as usize;
        let interval = Interval::new(w[1] as usize, w[2] as usize);
        let index_space = w[3] as usize;
        let n_sends = w[4] as usize;
        let n_recvs = w[5] as usize;
        let mut at = 6usize;
        let segments = |count: usize, at: &mut usize| -> Vec<(usize, Vec<u32>)> {
            (0..count)
                .map(|_| {
                    let peer = w[*at] as usize;
                    let len = w[*at + 1] as usize;
                    let globals = w[*at + 2..*at + 2 + len].to_vec();
                    *at += 2 + len;
                    (peer, globals)
                })
                .collect()
        };
        let sends = segments(n_sends, &mut at);
        let recvs = segments(n_recvs, &mut at);
        assert_eq!(at, w.len(), "trailing words in schedule summary");
        ScheduleSummary {
            rank,
            interval,
            index_space,
            sends,
            recvs,
        }
    }
}

/// One communication step of a rank's program order, as the deadlock
/// check models it: sends are buffered (never block), receives block
/// until the matching send has been *posted* by the peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommOp {
    /// A (buffered) send to `to`.
    Send {
        /// Destination rank.
        to: usize,
    },
    /// A blocking receive from `from`.
    Recv {
        /// Source rank.
        from: usize,
    },
}

/// Audits a full set of per-rank schedule summaries (one per rank, in
/// rank order — the shape [`audit_collective`]'s allgather produces).
/// Checks: intervals tile the index space; send globals are owned by the
/// sender and receive globals by the peer; no global is fetched from two
/// peers; send/recv lists are pairwise symmetric element-for-element;
/// and the gather/scatter orderings the executor derives from the
/// schedules are deadlock-free.
pub fn audit_schedules(summaries: &[ScheduleSummary]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let p = summaries.len();
    for (i, s) in summaries.iter().enumerate() {
        if s.rank != i {
            diags.push(Diagnostic::new(
                DiagnosticKind::SendRecvAsymmetry,
                i,
                format!("summary at position {i} claims rank {}", s.rank),
            ));
            return diags; // Everything downstream keys on rank == index.
        }
    }
    let n = summaries.first().map_or(0, |s| s.index_space);

    // 1. The intervals tile [0, n). Intervals follow the partition's
    // arrangement (not necessarily rank order), so sort by start.
    let mut ivs: Vec<(Interval, usize)> = summaries
        .iter()
        .filter(|s| !s.interval.is_empty())
        .map(|s| (s.interval, s.rank))
        .collect();
    ivs.sort_by_key(|(iv, _)| iv.start);
    let mut covered = 0usize;
    for (iv, rank) in &ivs {
        if iv.start > covered {
            diags.push(Diagnostic::new(
                DiagnosticKind::IntervalGap,
                *rank,
                format!("[{covered}, {}) is owned by no rank", iv.start),
            ));
        } else if iv.start < covered {
            diags.push(Diagnostic::new(
                DiagnosticKind::IntervalOverlap,
                *rank,
                format!("interval {iv} overlaps [{}..] already owned", iv.start),
            ));
        }
        covered = covered.max(iv.end);
    }
    if covered < n {
        diags.push(Diagnostic::new(
            DiagnosticKind::IntervalGap,
            p.saturating_sub(1),
            format!("[{covered}, {n}) is owned by no rank"),
        ));
    }

    // 2. Per-rank segment sanity: sends own their globals, recvs' globals
    // lie in the peer's interval, and no global arrives from two peers.
    for s in summaries {
        for (peer, globals) in &s.sends {
            for &g in globals {
                if !s.interval.contains(g as usize) {
                    diags.push(
                        Diagnostic::new(
                            DiagnosticKind::GhostFromNonOwner,
                            s.rank,
                            format!(
                                "sends global {g} to rank {peer}, but owns only {}",
                                s.interval
                            ),
                        )
                        .with_peer(*peer),
                    );
                }
            }
        }
        let mut seen: Vec<(u32, usize)> = Vec::new();
        for (peer, globals) in &s.recvs {
            let peer_iv = summaries
                .get(*peer)
                .map_or(Interval::EMPTY, |ps| ps.interval);
            for &g in globals {
                if !peer_iv.contains(g as usize) {
                    diags.push(
                        Diagnostic::new(
                            DiagnosticKind::GhostFromNonOwner,
                            s.rank,
                            format!("fetches ghost {g} from rank {peer}, which owns {peer_iv}"),
                        )
                        .with_peer(*peer),
                    );
                }
                if let Some(&(_, first_peer)) = seen.iter().find(|(og, _)| *og == g) {
                    diags.push(
                        Diagnostic::new(
                            DiagnosticKind::DoubleOwnedGhost,
                            s.rank,
                            format!(
                                "ghost {g} fetched from both rank {first_peer} and rank {peer}"
                            ),
                        )
                        .with_peer(*peer),
                    );
                } else {
                    seen.push((g, *peer));
                }
            }
        }
    }

    // 3. Pairwise symmetry: p's send segment to q must equal q's receive
    // segment from p, element-for-element.
    for s in summaries {
        for (peer, sent) in &s.sends {
            let recv_side = summaries
                .get(*peer)
                .and_then(|ps| ps.recvs.iter().find(|(from, _)| *from == s.rank));
            match recv_side {
                None => diags.push(
                    Diagnostic::new(
                        DiagnosticKind::SendRecvAsymmetry,
                        s.rank,
                        format!(
                            "sends {} elements to rank {peer}, which posts no matching receive",
                            sent.len()
                        ),
                    )
                    .with_peer(*peer),
                ),
                Some((_, recvd)) if recvd != sent => {
                    let detail = if recvd.len() != sent.len() {
                        format!(
                            "sends {} elements to rank {peer} but it expects {}",
                            sent.len(),
                            recvd.len()
                        )
                    } else {
                        let at = sent.iter().zip(recvd).position(|(a, b)| a != b).unwrap();
                        format!(
                            "element {at} of the segment to rank {peer} is global {} \
                             on the sender, {} on the receiver",
                            sent[at], recvd[at]
                        )
                    };
                    diags.push(
                        Diagnostic::new(DiagnosticKind::SendRecvAsymmetry, s.rank, detail)
                            .with_peer(*peer),
                    );
                }
                Some(_) => {}
            }
        }
        for (peer, recvd) in &s.recvs {
            let has_send = summaries
                .get(*peer)
                .is_some_and(|ps| ps.sends.iter().any(|(to, _)| *to == s.rank));
            if !has_send {
                diags.push(
                    Diagnostic::new(
                        DiagnosticKind::SendRecvAsymmetry,
                        s.rank,
                        format!(
                            "expects {} elements from rank {peer}, which sends nothing",
                            recvd.len()
                        ),
                    )
                    .with_peer(*peer),
                );
            }
        }
    }

    // 4. The executor orderings derived from these schedules must be
    // deadlock-free (trivially true for sends-then-receives programs with
    // buffered sends and symmetric segments — but a corrupted or
    // hand-built schedule set has no such guarantee).
    if diags.is_empty() {
        let gather: Vec<Vec<CommOp>> = summaries.iter().map(|s| gather_ops(s, false)).collect();
        let scatter: Vec<Vec<CommOp>> = summaries.iter().map(|s| gather_ops(s, true)).collect();
        diags.extend(check_deadlock(&gather));
        diags.extend(check_deadlock(&scatter));
    }
    diags
}

/// One rank's executor program order: gather posts all sends then drains
/// receives in segment order; scatter is the reverse flow.
fn gather_ops(s: &ScheduleSummary, scatter: bool) -> Vec<CommOp> {
    let (send_segs, recv_segs) = if scatter {
        (&s.recvs, &s.sends)
    } else {
        (&s.sends, &s.recvs)
    };
    let mut ops: Vec<CommOp> = send_segs
        .iter()
        .map(|(to, _)| CommOp::Send { to: *to })
        .collect();
    ops.extend(
        recv_segs
            .iter()
            .map(|(from, _)| CommOp::Recv { from: *from }),
    );
    ops
}

/// Simulates one communication step sequence per rank under the
/// transport's semantics — buffered sends, blocking receives — and
/// reports ranks that can never progress. For each stuck rank the
/// wait-for graph (who is blocked on whom) is walked: a cycle is the
/// classic deadlock and is reported once with its full rank cycle; a
/// stuck rank whose sender simply terminated without sending is reported
/// individually.
pub fn check_deadlock(ops: &[Vec<CommOp>]) -> Vec<Diagnostic> {
    let p = ops.len();
    let mut at = vec![0usize; p];
    // in_flight[src * p + dst]: messages posted but not yet received.
    let mut in_flight = vec![0usize; p * p];
    loop {
        let mut progressed = false;
        for (rank, seq) in ops.iter().enumerate() {
            while at[rank] < seq.len() {
                match seq[at[rank]] {
                    CommOp::Send { to } => {
                        in_flight[rank * p + to] += 1;
                        at[rank] += 1;
                        progressed = true;
                    }
                    CommOp::Recv { from } => {
                        if in_flight[from * p + rank] > 0 {
                            in_flight[from * p + rank] -= 1;
                            at[rank] += 1;
                            progressed = true;
                        } else {
                            break;
                        }
                    }
                }
            }
        }
        if !progressed {
            break;
        }
    }

    let blocked_on = |rank: usize| -> Option<usize> {
        (at[rank] < ops[rank].len()).then(|| match ops[rank][at[rank]] {
            CommOp::Recv { from } => from,
            CommOp::Send { .. } => unreachable!("buffered sends never block"),
        })
    };
    let mut diags = Vec::new();
    let mut reported = vec![false; p];
    for rank in 0..p {
        if reported[rank] || blocked_on(rank).is_none() {
            continue;
        }
        // Walk the wait-for chain from this stuck rank; it either reaches
        // a finished rank (starvation) or revisits a rank (cycle).
        let mut chain = vec![rank];
        let mut cur = rank;
        loop {
            match blocked_on(cur) {
                None => {
                    diags.push(
                        Diagnostic::new(
                            DiagnosticKind::DeadlockCycle,
                            rank,
                            format!(
                                "blocked receiving from rank {cur}, which finishes \
                                 without a matching send"
                            ),
                        )
                        .with_peer(cur),
                    );
                    break;
                }
                Some(next) => {
                    if let Some(pos) = chain.iter().position(|&r| r == next) {
                        let cycle: Vec<String> =
                            chain[pos..].iter().map(|r| format!("rank {r}")).collect();
                        diags.push(
                            Diagnostic::new(
                                DiagnosticKind::DeadlockCycle,
                                next,
                                format!(
                                    "wait-for cycle: {} -> rank {next}, every rank blocked \
                                     in a receive posted before its matching send",
                                    cycle.join(" -> ")
                                ),
                            )
                            .with_peer(chain[pos]),
                        );
                        break;
                    }
                    chain.push(next);
                    cur = next;
                }
            }
        }
        for &r in &chain {
            reported[r] = true;
        }
    }
    diags
}

/// Audits one rank's translated adjacency against its schedule and raw
/// adjacency — purely local, no communication. Checks that the shapes
/// agree, that every off-interval reference was actually scheduled as a
/// ghost, and then walks every block the way the sweep does: the degree
/// index must be what the adjacency's degrees say, and the slots each row
/// is swept over — and the ones `neighbors_of` returns for it — must be
/// the translation of that row's references, in CSR order.
pub fn audit_translation(
    schedule: &CommSchedule,
    adj: &LocalAdjacency,
    tadj: &TranslatedAdjacency,
) -> Vec<Diagnostic> {
    let rank = schedule.rank();
    let iv = schedule.interval();
    let mut diags = Vec::new();
    if tadj.len() != adj.len() || tadj.num_ghosts() != schedule.num_ghosts() {
        diags.push(Diagnostic::new(
            DiagnosticKind::ClassificationMismatch,
            rank,
            format!(
                "translated adjacency shape ({} vertices, {} ghosts) does not match \
                 schedule/adjacency ({} vertices, {} ghosts) over {iv}",
                tadj.len(),
                tadj.num_ghosts(),
                adj.len(),
                schedule.num_ghosts()
            ),
        ));
        return diags;
    }
    for l in 0..adj.len() {
        for &g in adj.neighbors_of(l) {
            if !iv.contains(g as usize) && schedule.ghost_slot(g).is_none() {
                diags.push(Diagnostic::new(
                    DiagnosticKind::ClassificationMismatch,
                    rank,
                    format!(
                        "vertex {l} of {iv} references global {g}, which the \
                         schedule never fetches"
                    ),
                ));
            }
        }
    }
    audit_blocks(schedule, adj, tadj, &mut diags);
    diags
}

/// The block walk of [`audit_translation`] (shapes already agree), block
/// by block and class by class exactly as `sweep_rows` goes. The degree
/// index: each block's order a permutation of its rows, the class sizes
/// summing to the block, every row filed under its own degree, each class
/// ascending. The layout: a row of class 1 to 8 is swept over the next
/// `class` slots of its block's stream, any other over `neighbors_of`;
/// both must equal the row's references translated one by one — owned `g`
/// to `g − start`, ghost to `local_len + ghost_slot(g)`.
fn audit_blocks(
    schedule: &CommSchedule,
    adj: &LocalAdjacency,
    tadj: &TranslatedAdjacency,
    diags: &mut Vec<Diagnostic>,
) {
    const ROWS: usize = TranslatedAdjacency::BLOCK_ROWS;
    const LAST: usize = TranslatedAdjacency::DEGREE_CLASSES - 1;
    let iv = schedule.interval();
    let translate = |&g: &u32| {
        if iv.contains(g as usize) {
            Some(g - iv.start as u32)
        } else {
            schedule.ghost_slot(g).map(|s| tadj.local_len() + s)
        }
    };
    let mut mismatch = |detail: String| {
        diags.push(Diagnostic::new(
            DiagnosticKind::ClassificationMismatch,
            schedule.rank(),
            detail,
        ));
    };
    // Blocks sit at global multiples of ROWS.
    let first = iv.start / ROWS;
    let blocks = if iv.is_empty() {
        0
    } else {
        (iv.end - 1) / ROWS + 1 - first
    };
    if tadj.num_blocks() != blocks {
        mismatch(format!(
            "{iv} spans {blocks} blocks, its translation indexes {}",
            tadj.num_blocks()
        ));
        return;
    }
    for block in 0..blocks {
        let start = ((first + block) * ROWS).max(iv.start) - iv.start;
        let (order, classes) = tadj.degree_classes(block);
        let filed: usize = classes.iter().map(|&rows| rows as usize).sum();
        if filed != order.len() {
            mismatch(format!(
                "degree classes of block {block} of {iv} hold {filed} rows, the block has {}",
                order.len()
            ));
            continue;
        }
        let visited = &mut [false; ROWS][..order.len()];
        let mut stream = tadj.block_slots(block);
        let mut rest = order;
        for (class, &rows) in classes.iter().enumerate() {
            let (group, tail) = rest.split_at(rows as usize);
            rest = tail;
            if !group.windows(2).all(|w| w[0] < w[1]) {
                mismatch(format!(
                    "degree class {class} of block {block} of {iv} is not ascending"
                ));
            }
            for &i in group {
                let chunk = (1..LAST).contains(&class).then(|| {
                    let chunk;
                    (chunk, stream) = stream.split_at(class.min(stream.len()));
                    chunk
                });
                let Some(seen) = visited.get_mut(i as usize) else {
                    mismatch(format!(
                        "block {block} of {iv} visits row {i} of its {}",
                        order.len()
                    ));
                    continue;
                };
                *seen = true;
                let l = start + i as usize;
                let degree = adj.degree_of(l);
                if degree.min(LAST) != class {
                    mismatch(format!(
                        "vertex {l} of {iv} has degree {degree} but is swept with degree \
                         class {class}"
                    ));
                    continue;
                }
                let expected = || adj.neighbors_of(l).iter().map(translate);
                if expected().any(|slot| slot.is_none()) {
                    // Reported above as a reference the schedule never fetches.
                    continue;
                }
                let reads = tadj.neighbors_of(l);
                let swept = chunk.unwrap_or(reads);
                let wrong = |slots: &[u32]| !slots.iter().copied().map(Some).eq(expected());
                let views = [
                    ("is swept over", swept),
                    ("reads through neighbors_of", reads),
                ];
                if let Some((how, slots)) = views.into_iter().find(|(_, slots)| wrong(slots)) {
                    mismatch(format!(
                        "vertex {l} of {iv} {how} slots {slots:?}, its references translate \
                         to {:?}",
                        expected().flatten().collect::<Vec<_>>()
                    ));
                }
            }
        }
        if let Some(i) = visited.iter().position(|&seen| !seen) {
            mismatch(format!(
                "vertex {} of {iv} is never visited by its block's sweep order",
                start + i
            ));
        }
    }
}

/// Audits a redistribution plan against the old and new partitions, for
/// every rank: the kept intersection plus the planned receives must
/// exactly tile each rank's new interval, and every planned move must
/// ship data its source owns into its destination's new interval. This
/// is PR 5's debug-assert promoted to a release-mode, user-invokable
/// pass — purely local, since the plan derives from replicated interval
/// tables.
pub fn audit_redistribution(
    old: &BlockPartition,
    new: &BlockPartition,
    plan: &RedistributionPlan,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for m in plan.moves() {
        let src_iv = old.interval_of(m.src);
        let dst_iv = new.interval_of(m.dst);
        if m.range.intersect(&src_iv) != m.range {
            diags.push(
                Diagnostic::new(
                    DiagnosticKind::RedistributionTile,
                    m.src,
                    format!("plans to send {} but owns only {src_iv}", m.range),
                )
                .with_peer(m.dst),
            );
        }
        if m.range.intersect(&dst_iv) != m.range {
            diags.push(
                Diagnostic::new(
                    DiagnosticKind::RedistributionTile,
                    m.dst,
                    format!(
                        "is sent {} by rank {} but its new interval is {dst_iv}",
                        m.range, m.src
                    ),
                )
                .with_peer(m.src),
            );
        }
    }
    for rank in 0..new.num_procs() {
        let new_iv = new.interval_of(rank);
        let kept = old.interval_of(rank).intersect(&new_iv);
        let mut segs: Vec<Interval> = plan.recvs_of(rank).map(|m| m.range).collect();
        if !kept.is_empty() {
            segs.push(kept);
        }
        segs.sort_by_key(|iv| iv.start);
        let mut covered = new_iv.start;
        let mut broken = false;
        for seg in &segs {
            if seg.start != covered {
                broken = true;
                break;
            }
            covered = seg.end;
        }
        if broken || covered != new_iv.end {
            diags.push(Diagnostic::new(
                DiagnosticKind::RedistributionTile,
                rank,
                format!(
                    "kept copy {kept} + {} planned receives do not tile the new \
                     interval {new_iv}",
                    segs.len() - usize::from(!kept.is_empty())
                ),
            ));
        }
    }
    diags
}

/// The collective audit the session runs after every schedule build or
/// remap: audits this rank's translation locally, allgathers schedule
/// summaries on [`TAG_AUDIT`], and audits the global schedule set. Every
/// rank returns the same schedule-level diagnostics.
pub fn audit_collective<C: Comm>(
    env: &mut C,
    n: usize,
    schedule: &CommSchedule,
    adj: &LocalAdjacency,
    tadj: &TranslatedAdjacency,
) -> Vec<Diagnostic> {
    let mut diags = audit_translation(schedule, adj, tadj);
    let mine = ScheduleSummary::of(schedule, n);
    let parts = env.allgather(TAG_AUDIT, mine.to_payload());
    let summaries: Vec<ScheduleSummary> = parts
        .into_iter()
        .map(ScheduleSummary::from_payload)
        .collect();
    diags.extend(audit_schedules(&summaries));
    diags
}

/// Panics with the rendered report if `diags` is non-empty — the
/// behaviour of a failed verification pass inside a session.
pub fn expect_clean(context: &str, diags: &[Diagnostic]) {
    assert!(
        diags.is_empty(),
        "{context} found {} contract violation(s):\n{}",
        diags.len(),
        render(diags)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Two ranks exchanging their boundary elements: the canonical clean
    /// schedule pair.
    fn clean_pair() -> Vec<ScheduleSummary> {
        vec![
            summary(0, (0, 4), 8, vec![(1, vec![3])], vec![(1, vec![4])]),
            summary(1, (4, 8), 8, vec![(0, vec![4])], vec![(0, vec![3])]),
        ]
    }

    #[test]
    fn clean_schedules_have_no_diagnostics() {
        assert_eq!(audit_schedules(&clean_pair()), Vec::new());
    }

    #[test]
    fn summary_payload_round_trips() {
        for s in clean_pair() {
            assert_eq!(ScheduleSummary::from_payload(s.to_payload()), s);
        }
    }

    #[test]
    fn interval_gap_is_named() {
        let mut set = clean_pair();
        set[1].interval = Interval::new(5, 8);
        let diags = audit_schedules(&set);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagnosticKind::IntervalGap && d.detail.contains("[4, 5)")),
            "{diags:?}"
        );
    }

    #[test]
    fn interval_overlap_is_named() {
        let mut set = clean_pair();
        set[1].interval = Interval::new(3, 8);
        let diags = audit_schedules(&set);
        assert!(
            diags
                .iter()
                .any(|d| d.kind == DiagnosticKind::IntervalOverlap && d.rank == 1),
            "{diags:?}"
        );
    }

    #[test]
    fn deadlock_cycle_is_detected() {
        // Both ranks receive before sending: the classic head-to-head
        // blocking-receive deadlock.
        let ops = vec![
            vec![CommOp::Recv { from: 1 }, CommOp::Send { to: 1 }],
            vec![CommOp::Recv { from: 0 }, CommOp::Send { to: 0 }],
        ];
        let diags = check_deadlock(&ops);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].kind, DiagnosticKind::DeadlockCycle);
        assert!(diags[0].detail.contains("cycle"), "{}", diags[0].detail);
    }

    #[test]
    fn sends_then_receives_never_deadlock() {
        let ops = vec![
            vec![CommOp::Send { to: 1 }, CommOp::Recv { from: 1 }],
            vec![CommOp::Send { to: 0 }, CommOp::Recv { from: 0 }],
        ];
        assert_eq!(check_deadlock(&ops), Vec::new());
    }

    #[test]
    fn starved_receive_names_the_finished_peer() {
        let ops = vec![vec![CommOp::Recv { from: 1 }], vec![]];
        let diags = check_deadlock(&ops);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kind, DiagnosticKind::DeadlockCycle);
        assert_eq!(diags[0].peer, Some(1));
        assert!(diags[0].detail.contains("finishes"), "{}", diags[0].detail);
    }
}
