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
//!   to exactly one owner, send/recv lists are pairwise symmetric
//!   element-for-element, every off-block reference is a scheduled
//!   ghost, a redistribution's kept copy plus receives exactly tile the
//!   new interval, and the blocking send/recv order cannot deadlock
//!   (cycle detection on the cross-rank wait-for graph).
//! * **Dataflow audit** ([`audit_stage_graph`]): given a stage graph's
//!   declared field set and per-stage read/write sets, verify the names
//!   resolve unambiguously and the writer→reader dependencies admit a
//!   deterministic topological schedule (cycle detection), before any
//!   kernel runs.
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
//! acceptance gate every future backend must pass.

mod analyzer;
mod audit;
mod checked;
mod dataflow;
mod diag;
mod fault;
mod interpose;

pub use analyzer::{analyze_collective, analyze_traces};
pub use audit::{
    audit_collective, audit_redistribution, audit_schedules, audit_translation, check_deadlock,
    expect_clean, CommOp, ScheduleSummary, TAG_AUDIT, TAG_TRACE,
};
pub use checked::{
    checked_comm_constructions, CheckedComm, PayloadShape, RankTrace, TraceEvent, TraceHook,
};
pub use dataflow::{audit_stage_graph, topological_order, StageDecl};
pub use diag::{Diagnostic, DiagnosticKind};
pub use fault::{
    catch_fault, FaultEvent, FaultHook, FaultKind, FaultPlan, FaultyComm, InjectedFault,
};
pub use interpose::{Hook, Interposed};
