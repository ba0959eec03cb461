#![forbid(unsafe_code)]

//! Verification of the SPMD contract: a static schedule audit and a
//! dynamic checked-`Comm` protocol analyzer.
//!
//! The inspector/executor split (the paper's §3) materializes every
//! communication the runtime will perform as *data* — the
//! [`CommSchedule`](stance_inspector::CommSchedule), the
//! [`RedistributionPlan`](stance_onedim::RedistributionPlan), the
//! translated adjacency — before a single message moves. That makes the
//! whole communication structure checkable, rank-by-rank and globally,
//! in a way ad-hoc message passing never is. This crate is that checker,
//! in two halves:
//!
//! * **Static audit** (the `audit` module): given the per-rank inspector
//!   artifacts, verify the global invariants every backend relies on —
//!   the partition intervals tile the index space, every ghost resolves
//!   to exactly one owner, each peer heads at most one segment per
//!   direction, send/recv lists are pairwise symmetric
//!   element-for-element, every off-block reference is a scheduled
//!   ghost, and a redistribution's kept copy plus receives exactly tile
//!   the new interval.
//! * **Dynamic checker** ([`CheckedComm`] + [`analyze_traces`]): a
//!   [`TraceHook`] on the one [`Comm`](stance_sim::Comm) interposer,
//!   [`Interposed`], recording every point-to-point and barrier event
//!   into a per-rank [`RankTrace`]; the offline analyzer then detects
//!   unmatched sends, receives no in-flight message could satisfy,
//!   barrier arity mismatches, and message/receive pairs that would have
//!   to cross a barrier epoch backwards. The fault injector
//!   ([`FaultyComm`]) is another [`Hook`] on the same interposer.
//!
//! Both halves speak [`Diagnostic`]s — structured findings naming the
//! rank, peer, tag, and interval involved — rather than generic
//! failures, so a broken backend or kernel protocol is debuggable from
//! the report alone. The adaptive session runs both behind
//! `StanceConfig::with_verification(true)`; the conformance and
//! equivalence suites run under [`CheckedComm`] on both backends as the
//! acceptance gate every future backend must pass. A stage graph's own
//! declaration (duplicate names, undeclared fields, dependency cycles) is
//! checked where it is ordered, by `StageGraphBuilder` in `stance`, and
//! reported in the same currency.

mod analyzer;
mod audit;
mod checked;
mod diag;
mod fault;
mod interpose;

pub use analyzer::{analyze_collective, analyze_traces};
pub use audit::{
    audit_collective, audit_redistribution, audit_schedules, audit_translation, expect_clean,
    ScheduleSummary, TAG_AUDIT, TAG_TRACE,
};
pub use checked::{checked_comm_constructions, CheckedComm, RankTrace, TraceEvent, TraceHook};
pub use diag::{Diagnostic, DiagnosticKind};
pub use fault::{
    catch_fault, FaultEvent, FaultHook, FaultKind, FaultPlan, FaultyComm, InjectedFault,
};
pub use interpose::{Hook, Interposed};
