//! # stance-inspector — Phase B: address translation and communication
//! schedules
//!
//! §3.2 of the paper: "Parallel loops can be transformed into an inspector
//! and an executor. The inspector examines the data references and computes
//! the off-processor data to be fetched. It also computes where the data
//! will be stored once it is received."
//!
//! The inspector has two jobs:
//!
//! 1. **Data referencing** — translating global indices into
//!    `(processor, local index)` pairs. Because Phase A produced a
//!    one-dimensional list partitioned into contiguous blocks, the whole
//!    translation "table" is the `O(p)` replicated list of block bounds
//!    ([`translation::IntervalTable`], Fig. 3). The explicit per-element
//!    table ([`translation::DenseTable`]) is implemented as the baseline the
//!    paper compares against.
//! 2. **Communication schedules** — for each processor: which local elements
//!    to send to whom (*send list*) and where received elements land in the
//!    local buffer (*permutation list*). Three builders are provided
//!    ([`schedule`]):
//!    * [`ScheduleStrategy::Sort1`] — symmetry-exploiting, communication-free;
//!      sorts both send lists and permutation segments (Fig. 4);
//!    * [`ScheduleStrategy::Sort2`] — same, but the send list is produced in
//!      ascending local order by construction, so only the receive side
//!      sorts;
//!    * [`ScheduleStrategy::Simple`] — the general strategy: dereference
//!      through a block-distributed explicit translation table and exchange
//!      request lists (two message rounds), as in PARTI/CHAOS \[27\].
//!
//! Duplicate off-processor references are removed with an open-addressing
//! hash table ([`refhash::RefHashMap`]), "to avoid fetching a data item more
//! than once".
//!
//! Both jobs read a rank's rows through [`Rows`]: in place from the mesh at
//! set-up ([`MeshRows`]), out of the previous translation after a remap
//! ([`MovedRows`]), or from an owned copy ([`LocalAdjacency`]). What the
//! inspector hands the executor — the [`TranslatedAdjacency`] — is the one
//! copy of its rows a rank keeps.

#![forbid(unsafe_code)]

pub mod adjacency;
pub mod cost;
pub mod moved;
pub mod refhash;
pub mod schedule;
pub mod translation;

pub use adjacency::{BlockRefs, LocalAdjacency, MeshRows, RowBlock, Rows};
pub use cost::InspectorCostModel;
pub use moved::MovedRows;
pub use refhash::RefHashMap;
pub use schedule::{
    build_schedule_simple, build_schedule_symmetric, build_schedule_symmetric_with, CommSchedule,
    LocalRef, ScheduleScratch, ScheduleStrategy, TranslatedAdjacency,
};
pub use translation::{DenseTable, IntervalTable};
