//! The application-facing kernel API and the generic parallel-loop runner.
//!
//! The paper pitches the runtime as support for *data-parallel
//! applications*: the runtime owns partitioning, the inspector,
//! the gather and load balancing, while the application supplies two
//! things — the per-vertex state type ([`Element`])
//! and the sweep over it ([`Kernel`]). A new workload is therefore a type
//! implementing `Kernel` (usually a few dozen lines), not a fork of the
//! executor.
//!
//! Two kernels ship with the runtime:
//!
//! * [`RelaxationKernel`] — the paper's Fig. 8 irregular loop,
//!
//!   ```text
//!   for 1 ≤ i ≤ number_of_vertices
//!       t[i] := Σ_k y[ia[k]]          (sum over i's neighbors)
//!   for 1 ≤ i ≤ number_of_vertices
//!       y[i] := t[i] / degree(i)
//!   ```
//!
//!   a Jacobi-style relaxation: every vertex replaces its value by the
//!   average of its neighbors;
//! * [`LaplacianKernel`] — the shifted graph-Laplacian operator
//!   `out[i] = (deg(i) + shift) · x[i] − Σ_{j ∈ adj(i)} x[j]`, the matvec
//!   of iterative solvers (see the `cg_solver` example).
//!
//! Both are generic over any [`Field`] element (`f64`, or `[f64; K]` for
//! multi-field state), and both are one row closure handed to
//! [`sweep_rows`], the block walk that visits rows grouped by degree.
//! The translated adjacency stores a block's rows in that visit order, but
//! within a row it preserves the graph's (ascending-neighbor) CSR order, so
//! a parallel sweep accumulates each row in exactly the sequential order —
//! results are **bitwise identical** to the sequential references, which
//! the integration tests assert.

use std::ops::Range;

use stance_inspector::{CommSchedule, Rows, TranslatedAdjacency};
use stance_locality::Graph;
use stance_sim::{Comm, Element};

use crate::buffers::CommBuffers;
use crate::cost::ComputeCostModel;
use crate::ghosted::GhostedArray;
use crate::primitives::{recv_ghosts, send_ghosts, TAG_GATHER_FUSED};
use crate::team::SweepTeam;

/// Elements with the componentwise arithmetic the built-in kernels need.
///
/// Separate from [`Element`] because the runtime core
/// (gather, redistribution) only needs to *move* elements; only
/// kernels need to compute with them. Operations take `self` by value —
/// elements are small `Copy` records.
pub trait Field: Element {
    /// Number of scalar components per element (`1` for `f64`, `K` for
    /// `[f64; K]`). The built-in kernels scale their sweep cost by this,
    /// so a multi-field sweep is charged for the arithmetic it actually
    /// performs.
    const FIELDS: usize;

    /// Componentwise sum.
    fn add(self, rhs: Self) -> Self;
    /// Componentwise difference.
    fn sub(self, rhs: Self) -> Self;
    /// Componentwise product with a scalar.
    fn scale(self, k: f64) -> Self;
    /// Componentwise quotient by a scalar. Distinct from
    /// `scale(1.0 / k)` so generic kernels keep the bitwise behaviour of
    /// their scalar originals (IEEE division is not multiplication by a
    /// reciprocal).
    fn div(self, k: f64) -> Self;
}

impl Field for f64 {
    const FIELDS: usize = 1;

    #[inline]
    fn add(self, rhs: Self) -> Self {
        self + rhs
    }
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        self - rhs
    }
    #[inline]
    fn scale(self, k: f64) -> Self {
        self * k
    }
    #[inline]
    fn div(self, k: f64) -> Self {
        self / k
    }
}

impl<const K: usize> Field for [f64; K] {
    const FIELDS: usize = K;

    #[inline]
    fn add(mut self, rhs: Self) -> Self {
        for (a, b) in self.iter_mut().zip(rhs) {
            *a += b;
        }
        self
    }
    #[inline]
    fn sub(mut self, rhs: Self) -> Self {
        for (a, b) in self.iter_mut().zip(rhs) {
            *a -= b;
        }
        self
    }
    #[inline]
    fn scale(mut self, k: f64) -> Self {
        for a in &mut self {
            *a *= k;
        }
        self
    }
    #[inline]
    fn div(mut self, k: f64) -> Self {
        for a in &mut self {
            *a /= k;
        }
        self
    }
}

/// An application's sweep over its owned vertices.
///
/// The runtime guarantees `combined` is the Fig. 4 layout — owned values at
/// `0..out.len()`, gathered ghost values after them — and that the
/// translated adjacency's local references index into it. The kernel reads
/// `combined`, writes one output per owned vertex, and stays oblivious to
/// partitioning, communication and load balancing.
///
/// The [`Kernel::cost`] hook prices one sweep in reference seconds so the
/// simulator's virtual clock (and therefore the load monitor feeding the
/// paper's remap controller) stays honest for non-default kernels.
///
/// `Sync` is a supertrait so a rank's worker team ([`crate::SweepTeam`])
/// can share one `&Kernel` across its lanes. Kernels are plain parameter
/// records in practice (every kernel in this repository is `Copy`), so the
/// bound costs nothing: a type only fails it by holding un-synchronized
/// interior mutability, which would make the sweep order-dependent and
/// break the bitwise-reproducibility contract anyway.
pub trait Kernel<E: Element>: Sync {
    /// One sweep: reads the combined (owned ++ ghost) buffer through the
    /// translated adjacency, writes owned outputs.
    ///
    /// Implementations must write every slot of `out` and may not assume
    /// anything about its previous contents.
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[E], out: &mut [E]);

    /// The ranged hook: sweeps only the owned vertices in `range` (a
    /// contiguous run of local indices) into `out`, **the window of
    /// `range`** — `out.len() == range.len()` and `out[i]` is the output of
    /// row `range.start + i`. For the whole block, `0..tadj.len()`, the
    /// window is the owned-output slice of [`Kernel::sweep`]. Inputs are
    /// indexed as ever: `combined[l]` is row `l`'s own value.
    ///
    /// The runner sweeps through a [`crate::SweepTeam`] (of one lane,
    /// without [`LoopRunner::with_team`]), which calls this once for each
    /// piece of a run list a lane owns, with that piece's rows and their
    /// window of the output — once, on `0..tadj.len()`, for a one-lane
    /// sweep of the whole block. Per-vertex
    /// outputs must depend only on `combined` entries the vertex
    /// references — true for any kernel fitting this trait's model — so
    /// splitting the sweep cannot change any value.
    ///
    /// The default serves kernels that implement only [`Kernel::sweep`]:
    /// the whole-block range is that sweep, and a partial window sweeps
    /// the **whole** block into a temporary and copies the window out.
    /// Such kernels stay correct under teams without changes, but every
    /// lane recomputes every vertex and allocates — they forfeit what
    /// splitting would win. They forfeit the overlap too: the runner sweeps
    /// the blocks that read no ghost while the ghosts are in flight only
    /// for a kernel whose [`Kernel::sweeps_ranges`] says this hook sweeps
    /// just its range, so a sweep-only kernel is swept once, whole, after
    /// every ghost has landed — the paper's gather-then-sweep.
    ///
    /// The built-in kernels point the delegation the other way: their
    /// `sweep_chunked` is the real implementation — one call of
    /// [`sweep_rows`] with the kernel's arithmetic as a per-row closure —
    /// and their `sweep` calls it for the whole block. [`sweep_rows`]
    /// visits the rows of every whole 512-row block inside `range` grouped
    /// by degree, so the neighbor loop runs with a constant trip count over
    /// references the inspector stored in that very order. That reorders
    /// *where a row's slots live and which row of a block is written
    /// when*, and nothing else: the additions within a row stay in CSR
    /// order, so the outputs are bitwise those of a plain ascending loop.
    /// Override this with
    /// your own row closure over [`sweep_rows`], or with any other
    /// formulation whose *per-vertex accumulation order* is unchanged;
    /// otherwise bitwise reproducibility across team sizes is lost.
    fn sweep_chunked(
        &self,
        tadj: &TranslatedAdjacency,
        combined: &[E],
        out: &mut [E],
        range: Range<usize>,
    ) {
        if range == (0..tadj.len()) {
            return self.sweep(tadj, combined, out);
        }
        let mut block = vec![E::zero(); tadj.len()];
        self.sweep(tadj, combined, &mut block);
        out.copy_from_slice(&block[range]);
    }

    /// Whether [`Kernel::sweep_chunked`] sweeps only the rows of its range
    /// — true of the built-in kernels and of any kernel whose ranged hook
    /// is a [`sweep_rows`] call; `false`, the default, describes a kernel
    /// on the default hook, which sweeps the whole block for any window.
    ///
    /// The runner reads it to choose how a stage's sweep is cut: a kernel
    /// that sweeps ranges is swept in two parts (the blocks that read no
    /// ghost while the ghosts are in flight, the rest once they have
    /// landed), any other kernel once, after the receive, so no call
    /// sweeps the whole block for part of it. It decides cost, never
    /// values: every row is swept exactly once either way.
    fn sweeps_ranges(&self) -> bool {
        false
    }

    /// Reference-seconds of work one sweep over `vertices` owned vertices
    /// with `references` total neighbor references performs. The default is
    /// the paper's relaxation pricing; override it if your kernel does
    /// substantially more (or less) arithmetic per reference.
    fn cost(&self, model: &ComputeCostModel, vertices: usize, references: usize) -> f64 {
        model.sweep_work(vertices, references)
    }
}

/// The one block walk under every built-in sweep: writes
/// `row(l, neighbors of l)` for each owned vertex `l` in `range` into
/// `out`, **the window of `range`** — `out.len() == range.len()`, `out[i]`
/// is row `range.start + i`, and nothing outside the window is reachable.
/// `row` receives the vertex's local index and its combined-buffer
/// references in CSR order.
///
/// What makes the irregular loop slow on a block that fits in cache is not
/// its memory traffic but the exit of the variable-trip neighbor loop,
/// mispredicted whenever two consecutive rows differ in degree — most of
/// the time, on an unstructured mesh. So the rows of every whole block
/// inside `range` are visited **grouped by degree** — blocks of
/// [`TranslatedAdjacency::BLOCK_ROWS`] rows at *global* multiples of the
/// block size, so a rank's first block may be short, as may its last
/// ([`TranslatedAdjacency::block_rows`]) — in the order the inspector
/// planned
/// ([`TranslatedAdjacency::degree_classes`]): for degrees 1 to 8, `row` is
/// called in a loop whose neighbor count is a compile-time constant, so
/// the optimiser unrolls the accumulation and nothing about one row
/// depends on the shape of the next. The inspector stored the block's
/// references in the same order ([`TranslatedAdjacency::block_slots`]), so
/// a class of `rows` rows of degree `D` is the next `rows · D` slots of one
/// forward stream, handed out `D` at a time: no row pointer is loaded, and
/// the visit order is read only to know which `out[i]` a chunk belongs to.
/// The ragged head and tail of a range, and rows with no or more than
/// eight neighbors, go row by row through the same closure and
/// [`TranslatedAdjacency::neighbors_of`].
///
/// Only *where a row's slots live and which row of a block is written
/// when* is reordered. Each call of `row` sees its references in CSR
/// order, so a kernel that accumulates in the order it is handed — and
/// whose outputs depend on nothing but the referenced inputs, as every
/// [`Kernel`] must — writes bit for bit what a plain ascending loop would,
/// for any fragmentation of `0..len` into ranges.
///
/// Call it from a `#[inline(never)]` [`Kernel::sweep_chunked`] and point
/// `sweep` at that, as the built-in kernels do.
///
/// # Panics
/// Panics if `out.len() != range.len()` or `range` exceeds
/// `0..tadj.len()`.
#[inline]
pub fn sweep_rows<E: Element>(
    tadj: &TranslatedAdjacency,
    out: &mut [E],
    range: Range<usize>,
    row: impl Fn(usize, &[u32]) -> E,
) {
    // `out` is the window of `range`: one slot per row swept.
    assert_eq!(out.len(), range.len(), "output length mismatch");
    // Rows past the block have no row pointers to read.
    assert!(range.end <= tadj.len(), "sweep range exceeds the block");
    let mut at = range.start;
    while at < range.end {
        let block = tadj.block_of(at);
        let rows = tadj.block_rows(block);
        let (block_start, block_end) = (rows.start, rows.end);
        if at != block_start || block_end > range.end {
            let end = block_end.min(range.end);
            let ragged = &mut out[at - range.start..end - range.start];
            for (l, o) in ragged.iter_mut().enumerate() {
                *o = row(at + l, tadj.neighbors_of(at + l));
            }
            at = end;
            continue;
        }
        let mut slots = tadj.block_slots(block);
        let out = &mut out[block_start - range.start..block_end - range.start];
        let (mut order, classes) = tadj.degree_classes(block);
        for (degree, &rows) in classes.iter().enumerate() {
            let class;
            (class, order) = order.split_at(rows as usize);
            match degree {
                1 => sweep_class::<1, _, _>(class, &mut slots, out, block_start, &row),
                2 => sweep_class::<2, _, _>(class, &mut slots, out, block_start, &row),
                3 => sweep_class::<3, _, _>(class, &mut slots, out, block_start, &row),
                4 => sweep_class::<4, _, _>(class, &mut slots, out, block_start, &row),
                5 => sweep_class::<5, _, _>(class, &mut slots, out, block_start, &row),
                6 => sweep_class::<6, _, _>(class, &mut slots, out, block_start, &row),
                7 => sweep_class::<7, _, _>(class, &mut slots, out, block_start, &row),
                8 => sweep_class::<8, _, _>(class, &mut slots, out, block_start, &row),
                _ => {
                    for &i in class {
                        let l = block_start + i as usize;
                        out[i as usize] = row(l, tadj.neighbors_of(l));
                    }
                }
            }
        }
        at = block_end;
    }
}

/// One degree class of one block: every row in `class` has exactly `D`
/// neighbors and the class's references are the next `class.len() · D` of
/// the block's `slots`, `D` to a row in visit order — so `row` inlines
/// into a loop of constant trip count over one forward stream, and `class`
/// only says which `out[i]` a chunk belongs to. Leaves `slots` at the next
/// class. `out` is the block's window, `block_start` its first local index.
#[inline(always)]
fn sweep_class<const D: usize, E, F: Fn(usize, &[u32]) -> E>(
    class: &[u16],
    slots: &mut &[u32],
    out: &mut [E],
    block_start: usize,
    row: &F,
) {
    let mine;
    (mine, *slots) = slots.split_at(class.len() * D);
    for (&i, nbrs) in class.iter().zip(mine.chunks_exact(D)) {
        // `chunks_exact(D)` yields nothing but chunks of exactly D slots.
        let nbrs: &[u32; D] = nbrs.try_into().expect("a chunk of D slots");
        out[i as usize] = row(block_start + i as usize, nbrs);
    }
}

/// The paper's Fig. 8 relaxation: each vertex becomes the average of its
/// neighbors (zero-degree vertices keep their value). Works on any
/// [`Field`] element, componentwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelaxationKernel;

impl<E: Field> Kernel<E> for RelaxationKernel {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[E], out: &mut [E]) {
        self.sweep_chunked(tadj, combined, out, 0..tadj.len());
    }

    // One machine-code copy per element type, shared by the single-lane
    // full sweep and the team lanes (`sweep` is a trivial delegation, so
    // every path lands here): letting each call site inline its own copy
    // hands them differently laid-out hot loops, and measured deltas then
    // track code placement instead of the change under test (observed at
    // ±60% on this ~4 ns/vertex loop).
    #[inline(never)]
    fn sweep_chunked(
        &self,
        tadj: &TranslatedAdjacency,
        combined: &[E],
        out: &mut [E],
        range: std::ops::Range<usize>,
    ) {
        sweep_rows(tadj, out, range, |l, nbrs| {
            if nbrs.is_empty() {
                return combined[l];
            }
            let mut t = E::zero();
            for &s in nbrs {
                t = t.add(combined[s as usize]);
            }
            t.div(nbrs.len() as f64)
        });
    }

    fn sweeps_ranges(&self) -> bool {
        true
    }

    fn cost(&self, model: &ComputeCostModel, vertices: usize, references: usize) -> f64 {
        // One add per reference and one divide per vertex — per component.
        E::FIELDS as f64 * model.sweep_work(vertices, references)
    }
}

/// The shifted graph-Laplacian operator
/// `out[i] = (deg(i) + shift) · x[i] − Σ_{j ∈ adj(i)} x[j]`. With
/// `shift > 0` the operator is symmetric positive definite — the workhorse
/// of iterative solvers (see the `cg_solver` example).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplacianKernel {
    /// The diagonal shift added to every vertex degree.
    pub shift: f64,
}

impl<E: Field> Kernel<E> for LaplacianKernel {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[E], out: &mut [E]) {
        self.sweep_chunked(tadj, combined, out, 0..tadj.len());
    }

    // See RelaxationKernel::sweep_chunked: one shared copy keeps every
    // caller on identical machine code.
    #[inline(never)]
    fn sweep_chunked(
        &self,
        tadj: &TranslatedAdjacency,
        combined: &[E],
        out: &mut [E],
        range: std::ops::Range<usize>,
    ) {
        sweep_rows(tadj, out, range, |l, nbrs| {
            let mut acc = combined[l].scale(nbrs.len() as f64 + self.shift);
            for &s in nbrs {
                acc = acc.sub(combined[s as usize]);
            }
            acc
        });
    }

    fn sweeps_ranges(&self) -> bool {
        true
    }

    fn cost(&self, model: &ComputeCostModel, vertices: usize, references: usize) -> f64 {
        // One subtract per reference and one scale per vertex — per
        // component.
        E::FIELDS as f64 * model.sweep_work(vertices, references)
    }
}

/// Sequential reference for [`LaplacianKernel`] over the whole graph.
///
/// # Panics
/// Panics if `x` or `out` is not one element per vertex.
pub fn sequential_laplacian_matvec<E: Field>(graph: &Graph, x: &[E], shift: f64, out: &mut [E]) {
    // One input and one output per vertex of the graph.
    assert_eq!(x.len(), graph.num_vertices());
    assert_eq!(out.len(), graph.num_vertices());
    for (i, o) in out.iter_mut().enumerate() {
        let nbrs = graph.neighbors(i);
        let mut acc = x[i].scale(nbrs.len() as f64 + shift);
        for &j in nbrs {
            acc = acc.sub(x[j as usize]);
        }
        *o = acc;
    }
}

/// The sequential reference: `iters` sweeps of Fig. 8 over the whole graph.
///
/// # Panics
/// Panics if `y` is not one element per vertex.
pub fn sequential_relaxation<E: Field>(graph: &Graph, y: &mut [E], iters: usize) {
    // One value per vertex of the graph.
    assert_eq!(y.len(), graph.num_vertices(), "value array length mismatch");
    let n = graph.num_vertices();
    let mut t = vec![E::zero(); n];
    for _ in 0..iters {
        for (i, ti) in t.iter_mut().enumerate() {
            let nbrs = graph.neighbors(i);
            if nbrs.is_empty() {
                *ti = y[i];
                continue;
            }
            let mut acc = E::zero();
            for &j in nbrs {
                acc = acc.add(y[j as usize]);
            }
            *ti = acc.div(nbrs.len() as f64);
        }
        y.copy_from_slice(&t);
    }
}

/// Timing of a [`LoopRunner`] execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopStats {
    /// Iterations executed.
    pub iterations: usize,
    /// Seconds spent in the compute sweep, in the backend's time: virtual
    /// seconds on the simulator (expanded by machine speed and external
    /// load), wall-clock seconds on the native backend — there, the sweep
    /// before the receive plus the sweep after it, never the wait between
    /// them. Either way this is what the load monitor samples.
    pub compute_time: f64,
}

/// Drives the exchange + sweep stage step on one rank — the one loop
/// body behind both the single-array spelling ([`LoopRunner::run`]) and
/// the multi-field dataflow pass ([`LoopRunner::run_stage`]).
///
/// The runner owns everything that is sized from the schedule: the
/// translated adjacency, the transport scratch ([`CommBuffers`]), the
/// sweep scratch and the worker team. All of it is rebuilt
/// only on remap ([`LoopRunner::rebuild`]), so steady-state iterations
/// perform zero heap allocations (see `tests/alloc_free.rs`). The sweep
/// scratch is a full combined-size buffer, which lets a stage commit by
/// *swapping* it with the output array's storage (one pointer exchange)
/// instead of copying the owned block. The application's [`Kernel`] is
/// passed per call, so one runner serves every stage of a graph.
pub struct LoopRunner<E: Element = f64> {
    schedule: CommSchedule,
    tadj: TranslatedAdjacency,
    cost: ComputeCostModel,
    /// Combined-size sweep scratch: the owned prefix receives sweep
    /// outputs; the ghost suffix exists so commits can swap whole buffers
    /// with the value array (its content is stale by construction and
    /// rewritten by the next gather).
    scratch: Vec<E>,
    bufs: CommBuffers<E>,
    /// The rank's worker team: one lane (the rank thread, no worker
    /// threads) unless [`LoopRunner::with_team`] asked for more.
    team: SweepTeam<E>,
}

impl<E: Element> LoopRunner<E> {
    /// Builds a runner from a schedule and the rank's rows, which it
    /// translates: the translation is all the runner keeps of them.
    pub fn new(schedule: CommSchedule, adj: &impl Rows, cost: ComputeCostModel) -> Self {
        let tadj = schedule.translate_adjacency(adj);
        let scratch = vec![E::zero(); tadj.buffer_len()];
        let bufs = CommBuffers::for_schedule(&schedule);
        let mut team = SweepTeam::new(1);
        team.rebuild_splits(&tadj);
        LoopRunner {
            schedule,
            tadj,
            cost,
            scratch,
            bufs,
            team,
        }
    }

    /// Attaches a persistent worker team of `lanes` compute lanes (lane 0
    /// is the rank thread itself; `lanes - 1` parked worker threads are
    /// spawned now and recycled across every iteration and remap). `1`
    /// sweeps on the rank thread alone. Outputs are **bitwise identical**
    /// for every `lanes` value — the team splits sweeps by deterministic static
    /// chunking and every lane writes its rows straight into its own
    /// disjoint window of the output — so the team size is purely a
    /// throughput knob. The runner's cost model takes the lane count
    /// from here — the only place it is set — so the simulator's clock,
    /// and through it the load balancer, sees the rank's effective speed.
    ///
    /// # Panics
    /// Panics if `lanes` is zero.
    pub fn with_team(mut self, lanes: usize) -> Self {
        // The team model divides by the lane count.
        assert!(lanes >= 1, "a rank has at least one compute lane");
        self.cost = self.cost.with_team(lanes);
        self.team = SweepTeam::new(lanes);
        self.team.rebuild_splits(&self.tadj);
        self
    }

    /// The number of compute lanes sweeps run on (`1` without a team).
    pub fn team_lanes(&self) -> usize {
        self.team.lanes()
    }

    /// The schedule in use.
    pub fn schedule(&self) -> &CommSchedule {
        &self.schedule
    }

    /// The translated adjacency.
    pub fn tadj(&self) -> &TranslatedAdjacency {
        &self.tadj
    }

    /// Replaces the schedule and the rows (after a remap: the
    /// [`MovedRows`](stance_inspector::MovedRows) moved out of this
    /// runner's own translation) while keeping the cost model and team —
    /// **in place**: the
    /// translated adjacency, the transport scratch ([`CommBuffers`]) and
    /// the sweep scratch are all rebuilt into their existing storage
    /// (capacity never shrinks), so a rebuild's allocation count is
    /// bounded and does not grow with how many remaps preceded it.
    ///
    /// Returns the retired schedule so the caller can recycle its storage
    /// (e.g. via `ScheduleScratch::recycle`) instead of dropping it.
    pub fn rebuild(&mut self, schedule: CommSchedule, adj: &impl Rows) -> CommSchedule {
        schedule.translate_adjacency_into(adj, &mut self.tadj);
        self.bufs.rebuild(&schedule);
        let retired = std::mem::replace(&mut self.schedule, schedule);
        // Stale content is fine: every sweep rewrites the owned prefix and
        // the ghost suffix is rewritten by every gather before any read
        // (the same argument as `GhostedArray::swap_data`).
        self.scratch.resize(self.tadj.buffer_len(), E::zero());
        // The team sweeps the new block from now on; its threads are
        // recycled.
        self.team.rebuild_splits(&self.tadj);
        retired
    }

    /// Allocates the ghosted value buffer for this runner with the given
    /// owned values.
    ///
    /// # Panics
    /// Panics if `local` does not match the runner's owned length.
    pub fn make_values(&self, local: Vec<E>) -> GhostedArray<E> {
        // The sweep indexes `combined[l]` for every owned row `l`.
        assert_eq!(local.len(), self.tadj.len(), "owned value length mismatch");
        GhostedArray::from_local(local, self.tadj.num_ghosts() as usize)
    }

    /// Hands a redistributed owned block to an existing ghosted value
    /// buffer for this runner's (post-remap) shape, **without copying it**:
    /// `block` becomes the buffer's storage, its ghost tail appended and
    /// zeroed, and the retired storage comes back in `block` for the next
    /// remap to fill. The in-place counterpart of
    /// [`LoopRunner::make_values`].
    ///
    /// # Panics
    /// Panics if `block` does not match the runner's owned length.
    pub fn install_values(&self, values: &mut GhostedArray<E>, block: &mut Vec<E>) {
        // As in `make_values`: one value per owned row.
        assert_eq!(block.len(), self.tadj.len(), "owned value length mismatch");
        values.swap_in(block, self.tadj.num_ghosts() as usize);
    }

    /// The one stage step, in four parts: pack and send every peer its
    /// boundary values (one fused message per neighbor), sweep the blocks
    /// that read no ghost while those messages are in flight, receive and
    /// unpack the ghosts, sweep the remaining blocks. The output is left in
    /// the sweep scratch; every row is swept exactly once. Returns the
    /// seconds spent sweeping — both sweeps, not the wait between them —
    /// the load monitor's sample.
    ///
    /// The split is [`TranslatedAdjacency::interior_runs`] then
    /// [`TranslatedAdjacency::boundary_runs`]. When nothing the stage reads
    /// is in flight (`input` not exchanged: an empty selection, or a field
    /// whose ghosts are current) the first part is the whole block; a
    /// kernel that cannot sweep part of a block
    /// ([`Kernel::sweeps_ranges`]) is swept whole in the second.
    ///
    /// The simulator's clock is charged exactly as by gather-then-sweep:
    /// the sends and receives charge what they always did, and the sweep's
    /// whole cost is charged after the receives — so virtual time, and
    /// every decision priced from it, does not see the overlap.
    fn stage_step<C: Comm, K: Kernel<E> + ?Sized>(
        &mut self,
        env: &mut C,
        kernel: &K,
        fields: &mut [GhostedArray<E>],
        exchange: &[usize],
        input: usize,
    ) -> f64 {
        let LoopRunner {
            schedule,
            tadj,
            cost,
            scratch,
            bufs,
            team,
        } = self;
        let out = &mut scratch[..tadj.len()];
        let whole = 0..tadj.len();
        let whole = std::slice::from_ref(&whole);
        let (early, late) = if !exchange.contains(&input) {
            (whole, &[][..])
        } else if kernel.sweeps_ranges() {
            (tadj.interior_runs(), tadj.boundary_runs())
        } else {
            (&[][..], whole)
        };
        send_ghosts(
            env,
            schedule,
            fields,
            exchange,
            cost,
            bufs,
            TAG_GATHER_FUSED,
        );
        let t0 = env.now_secs();
        team.sweep_runs(kernel, tadj, fields[input].combined(), out, early);
        let early_secs = env.now_secs() - t0;
        recv_ghosts(
            env,
            schedule,
            fields,
            exchange,
            cost,
            bufs,
            TAG_GATHER_FUSED,
        );
        let work = kernel.cost(cost, tadj.len(), tadj.num_refs());
        let t1 = env.now_secs();
        env.compute(work);
        team.sweep_runs(kernel, tadj, fields[input].combined(), out, late);
        early_secs + (env.now_secs() - t1)
    }

    /// One committed stage of a multi-field pass: exchanges the ghosts of
    /// the fields selected by `exchange` (indices into `fields`), sweeps
    /// `kernel` over `fields[input]`, and commits the output to
    /// `fields[output]` by swapping storage. Returns the seconds spent
    /// sweeping. Collective; every rank must pass the same selection.
    pub fn run_stage<C: Comm, K: Kernel<E> + ?Sized>(
        &mut self,
        env: &mut C,
        kernel: &K,
        fields: &mut [GhostedArray<E>],
        exchange: &[usize],
        input: usize,
        output: usize,
    ) -> f64 {
        let compute_time = self.stage_step(env, kernel, fields, exchange, input);
        // O(1) commit: the swapped-in ghost region is stale, but the
        // output field is now dirty, so its next gathered read rewrites
        // every ghost slot before any sweep sees it.
        fields[output].swap_data(&mut self.scratch);
        compute_time
    }

    /// Runs `iters` iterations over one array: gather ghosts, charge and
    /// perform the sweep, commit the new values. The commit is
    /// double-buffered — the sweep scratch and the value buffer exchange
    /// pointers instead of copying the owned block, so committing is O(1)
    /// regardless of block size. (An application that must leave its
    /// input untouched — a matvec inside a solver — commits to a second
    /// field through [`LoopRunner::run_stage`].) Returns measured timing.
    pub fn run<C: Comm, K: Kernel<E> + ?Sized>(
        &mut self,
        env: &mut C,
        kernel: &K,
        values: &mut GhostedArray<E>,
        iters: usize,
    ) -> LoopStats {
        let group = std::slice::from_mut(values);
        let mut stats = LoopStats::default();
        for _ in 0..iters {
            stats.compute_time += self.run_stage(env, kernel, group, &[0], 0, 0);
            stats.iterations += 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_inspector::{build_schedule_symmetric, LocalAdjacency, ScheduleStrategy};
    use stance_locality::meshgen;
    use stance_onedim::BlockPartition;
    use stance_sim::{Cluster, ClusterSpec, Env, NetworkSpec};

    fn initial_values(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64).sin() * 10.0).collect()
    }

    #[test]
    fn sequential_step_by_hand() {
        // Path 0-1-2: after one sweep y = [y1, (y0+y2)/2, y1].
        let g = Graph::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![[0.0; 3], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            2,
        );
        let mut y = vec![1.0, 2.0, 5.0];
        sequential_relaxation(&g, &mut y, 1);
        assert_eq!(y, vec![2.0, 3.0, 2.0]);
    }

    #[test]
    fn sequential_converges_to_mean_on_clique() {
        // On a complete graph the average of neighbors converges fast.
        let edges = [(0u32, 1u32), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        let g = Graph::from_edges(4, &edges, vec![[0.0; 3]; 4], 2);
        let mut y = vec![0.0, 4.0, 8.0, 12.0];
        sequential_relaxation(&g, &mut y, 60);
        let mean = y.iter().sum::<f64>() / 4.0;
        for v in &y {
            assert!((v - mean).abs() < 1e-9);
        }
    }

    #[test]
    fn isolated_vertex_keeps_value() {
        let g = Graph::from_edges(3, &[(0, 1)], vec![[0.0; 3]; 3], 2);
        let mut y = vec![1.0, 3.0, 7.0];
        sequential_relaxation(&g, &mut y, 5);
        assert_eq!(y[2], 7.0);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let g = meshgen::triangulated_grid(11, 9, 0.4, 6);
        let n = g.num_vertices();
        let iters = 12;
        let mut expected = initial_values(n);
        sequential_relaxation(&g, &mut expected, iters);

        for p in [2usize, 3, 4] {
            let part = BlockPartition::uniform(n, p);
            let g2 = g.clone();
            let part2 = part.clone();
            let spec = ClusterSpec::uniform(p).with_network(NetworkSpec::zero_cost());
            let report = Cluster::new(spec).run(move |env| {
                let rank = env.rank();
                let adj = LocalAdjacency::extract(&g2, &part2, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part2, &adj, rank, ScheduleStrategy::Sort1);
                let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
                let iv = part2.interval_of(rank);
                let init = initial_values(n);
                let mut values = runner.make_values(init[iv.start..iv.end].to_vec());
                runner.run(env, &RelaxationKernel, &mut values, iters);
                values.local().to_vec()
            });
            let mut got = Vec::with_capacity(n);
            for r in report.into_results() {
                got.extend(r);
            }
            assert_eq!(got, expected, "p = {p} diverged from sequential");
        }
    }

    /// `rebuild` must leave the runner exactly as a freshly constructed one:
    /// run the same phase sequence through one recycled runner and through
    /// fresh runners, and compare bitwise.
    #[test]
    fn rebuilt_runner_matches_fresh_runner_bitwise() {
        let g = meshgen::triangulated_grid(11, 9, 0.4, 6);
        let n = g.num_vertices();
        let phases = [
            BlockPartition::from_sizes(&[40, 30, 29]),
            BlockPartition::from_sizes(&[20, 50, 29]),
            BlockPartition::from_sizes(&[33, 33, 33]),
        ];
        let iters = 5;
        let run_recycled = |env: &mut Env| {
            let rank = env.rank();
            let init = initial_values(n);
            let mut runner: Option<LoopRunner<f64>> = None;
            let mut out = Vec::new();
            for part in &phases {
                let adj = LocalAdjacency::extract(&g, part, rank);
                let (sched, _) =
                    build_schedule_symmetric(part, &adj, rank, ScheduleStrategy::Sort2);
                match &mut runner {
                    None => {
                        runner = Some(LoopRunner::new(sched, &adj, ComputeCostModel::zero()));
                    }
                    Some(r) => {
                        let _retired = r.rebuild(sched, &adj);
                    }
                }
                let r = runner.as_mut().expect("runner built");
                let iv = part.interval_of(rank);
                let mut values = r.make_values(init[iv.start..iv.end].to_vec());
                r.run(env, &RelaxationKernel, &mut values, iters);
                out.push(values.local().to_vec());
            }
            out
        };
        let run_fresh = |env: &mut Env| {
            let rank = env.rank();
            let init = initial_values(n);
            let mut out = Vec::new();
            for part in &phases {
                let adj = LocalAdjacency::extract(&g, part, rank);
                let (sched, _) =
                    build_schedule_symmetric(part, &adj, rank, ScheduleStrategy::Sort2);
                let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
                let iv = part.interval_of(rank);
                let mut values = runner.make_values(init[iv.start..iv.end].to_vec());
                runner.run(env, &RelaxationKernel, &mut values, iters);
                out.push(values.local().to_vec());
            }
            out
        };
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let recycled = Cluster::new(spec.clone()).run(run_recycled).into_results();
        let fresh = Cluster::new(spec).run(run_fresh).into_results();
        assert_eq!(recycled, fresh, "rebuilt runner diverged from fresh");
    }

    #[test]
    fn install_values_matches_make_values() {
        let g = meshgen::triangulated_grid(8, 8, 0.2, 4);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 2);
        let adj = LocalAdjacency::extract(&g, &part, 0);
        let (sched, _) = build_schedule_symmetric(&part, &adj, 0, ScheduleStrategy::Sort2);
        let runner: LoopRunner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
        let local: Vec<f64> = (0..adj.len()).map(|i| i as f64).collect();
        let fresh = runner.make_values(local.clone());
        // An arbitrarily shaped pre-owned buffer ends in the same state, and
        // its storage is handed back.
        let mut reused: GhostedArray = GhostedArray::from_local(vec![9.0; 200], 7);
        let mut block = local;
        runner.install_values(&mut reused, &mut block);
        assert_eq!(reused, fresh);
        assert_eq!(block.len(), 207);
    }

    #[test]
    fn multi_field_relaxation_matches_two_scalar_runs() {
        // A [f64; 2] element must evolve exactly like two independent f64
        // arrays, bit for bit.
        let g = meshgen::triangulated_grid(9, 7, 0.3, 2);
        let n = g.num_vertices();
        let iters = 9;
        let mut a: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let mut b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos() * 2.0).collect();
        let mut pair: Vec<[f64; 2]> = a.iter().zip(&b).map(|(&x, &y)| [x, y]).collect();
        sequential_relaxation(&g, &mut a, iters);
        sequential_relaxation(&g, &mut b, iters);
        sequential_relaxation(&g, &mut pair, iters);
        let expected: Vec<[f64; 2]> = a.iter().zip(&b).map(|(&x, &y)| [x, y]).collect();
        assert_eq!(pair, expected);
    }

    #[test]
    fn laplacian_matvec_parallel_matches_sequential() {
        let g = meshgen::triangulated_grid(9, 8, 0.3, 4);
        let n = g.num_vertices();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();
        let shift = 1.0;
        let mut expected = vec![0.0; n];
        sequential_laplacian_matvec(&g, &x, shift, &mut expected);

        let part = BlockPartition::uniform(n, 3);
        let x2 = x.clone();
        let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(move |env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let iv = part.interval_of(rank);
            let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
            let x = runner.make_values(x2[iv.start..iv.end].to_vec());
            let ax = runner.make_values(vec![0.0; iv.len()]);
            let mut fields = [x, ax];
            runner.run_stage(env, &LaplacianKernel { shift }, &mut fields, &[0], 0, 1);
            fields[1].local().to_vec()
        });
        let mut got = Vec::with_capacity(n);
        for r in report.into_results() {
            got.extend(r);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn run_stage_into_another_field_leaves_input_untouched() {
        let g = meshgen::triangulated_grid(6, 6, 0.0, 1);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 2);
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::zero());
            let iv = part.interval_of(rank);
            let init: Vec<f64> = iv.iter().map(|g| g as f64).collect();
            let values = runner.make_values(init.clone());
            let out = runner.make_values(vec![0.0; iv.len()]);
            let mut fields = [values, out];
            runner.run_stage(env, &RelaxationKernel, &mut fields, &[0], 0, 1);
            assert_eq!(
                fields[0].local(),
                init.as_slice(),
                "the input must not change"
            );
            assert_ne!(
                fields[1].local(),
                init.as_slice(),
                "the output must be committed"
            );
        });
    }

    #[test]
    fn laplacian_of_constant_is_shift_scaled() {
        // L·1 = 0, so (L + shift·I)·1 = shift·1.
        let g = meshgen::triangulated_grid(5, 5, 0.0, 0);
        let n = g.num_vertices();
        let x = vec![1.0; n];
        let mut out = vec![0.0; n];
        sequential_laplacian_matvec(&g, &x, 2.5, &mut out);
        for &v in &out {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    /// A user-written kernel exercising the custom-cost hook: out[i] =
    /// max over neighbors (a label-propagation building block).
    struct MaxNeighborKernel;

    impl Kernel<f64> for MaxNeighborKernel {
        fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
            for (l, o) in out.iter_mut().enumerate() {
                let mut best = combined[l];
                for &s in tadj.neighbors_of(l) {
                    best = best.max(combined[s as usize]);
                }
                *o = best;
            }
        }
        fn cost(&self, model: &ComputeCostModel, vertices: usize, references: usize) -> f64 {
            // A compare is cheaper than a multiply-add: charge half.
            0.5 * model.sweep_work(vertices, references)
        }
    }

    #[test]
    fn custom_kernel_cost_hook_drives_clock() {
        let g = meshgen::triangulated_grid(8, 8, 0.0, 0);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 2);
        let cost = ComputeCostModel::sun4();
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let owned = adj.len();
            let refs = adj.num_refs();
            let mut runner = LoopRunner::new(sched, &adj, cost);
            let mut values = runner.make_values(vec![0.0; owned]);
            let stats = runner.run(env, &MaxNeighborKernel, &mut values, 4);
            (stats, owned, refs)
        });
        for (stats, owned, refs) in report.results() {
            let expected = 4.0 * 0.5 * cost.sweep_work(*owned, *refs);
            assert!(
                (stats.compute_time - expected).abs() < 1e-9,
                "half-priced kernel charged {} vs expected {expected}",
                stats.compute_time
            );
        }
    }

    #[test]
    fn multi_field_sweep_charged_per_component() {
        // A [f64; 2] relaxation does twice the arithmetic of the f64 one
        // and must be charged twice the virtual time.
        let g = meshgen::triangulated_grid(8, 8, 0.0, 0);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 2);
        let cost = ComputeCostModel::sun4();
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let refs = adj.num_refs();
            let owned = adj.len();
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let mut runner: LoopRunner<[f64; 2]> = LoopRunner::new(sched, &adj, cost);
            let mut values = runner.make_values(vec![[0.0; 2]; owned]);
            let stats = runner.run(env, &RelaxationKernel, &mut values, 5);
            (stats, owned, refs)
        });
        for (stats, owned, refs) in report.results() {
            let expected = 5.0 * 2.0 * cost.sweep_work(*owned, *refs);
            assert!(
                (stats.compute_time - expected).abs() < 1e-9,
                "two-field sweep charged {} vs expected {expected}",
                stats.compute_time
            );
        }
    }

    #[test]
    fn loop_stats_measure_compute() {
        let g = meshgen::triangulated_grid(8, 8, 0.0, 0);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 2);
        let cost = ComputeCostModel::sun4();
        let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
        let report = Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let refs = adj.num_refs();
            let owned = adj.len();
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let mut runner = LoopRunner::new(sched, &adj, cost);
            let mut values = runner.make_values(vec![0.0; owned]);
            let stats = runner.run(env, &RelaxationKernel, &mut values, 10);
            (stats, owned, refs)
        });
        for (stats, owned, refs) in report.results() {
            let expected = 10.0 * cost.sweep_work(*owned, *refs);
            assert!(
                (stats.compute_time - expected).abs() < 1e-9,
                "compute time {} != expected {expected}",
                stats.compute_time
            );
            assert_eq!(stats.iterations, 10);
        }
    }

    #[test]
    fn loaded_machine_reports_higher_per_item_time() {
        use stance_sim::LoadTimeline;
        let g = meshgen::triangulated_grid(8, 8, 0.0, 0);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 2);
        let spec = ClusterSpec::uniform(2)
            .with_network(NetworkSpec::zero_cost())
            .with_load(0, LoadTimeline::constant(1.0 / 3.0));
        let report = Cluster::new(spec).run(|env| {
            let rank = env.rank();
            let adj = LocalAdjacency::extract(&g, &part, rank);
            let owned = adj.len();
            let (sched, _) = build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
            let mut runner = LoopRunner::new(sched, &adj, ComputeCostModel::sun4());
            let mut values = runner.make_values(vec![0.0; owned]);
            let stats = runner.run(env, &RelaxationKernel, &mut values, 4);
            // "Average computation time per data item" (§5).
            stats.compute_time / (stats.iterations * owned) as f64
        });
        let per_item: Vec<f64> = report.into_results();
        // Rank 0 runs at 1/3 availability: ~3× the per-item time.
        let ratio = per_item[0] / per_item[1];
        assert!(
            (ratio - 3.0).abs() < 0.2,
            "expected ~3× slowdown, got {ratio}"
        );
    }

    /// Team size is purely a throughput knob: any `T` must reproduce the
    /// sequential reference bitwise — lanes write disjoint windows of the
    /// output, each row exactly as a single lane would, so the
    /// accumulation order never changes.
    #[test]
    fn team_runner_matches_sequential_bitwise() {
        let g = meshgen::triangulated_grid(11, 9, 0.4, 6);
        let n = g.num_vertices();
        let iters = 12;
        let mut expected = initial_values(n);
        sequential_relaxation(&g, &mut expected, iters);

        for team in [1usize, 2, 3, 4] {
            let part = BlockPartition::uniform(n, 2);
            let g2 = g.clone();
            let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
            let report = Cluster::new(spec).run(move |env| {
                let rank = env.rank();
                let adj = LocalAdjacency::extract(&g2, &part, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                let mut runner =
                    LoopRunner::new(sched, &adj, ComputeCostModel::zero()).with_team(team);
                assert_eq!(runner.team_lanes(), team);
                let iv = part.interval_of(rank);
                let init = initial_values(n);
                let mut values = runner.make_values(init[iv.start..iv.end].to_vec());
                runner.run(env, &RelaxationKernel, &mut values, iters);
                values.local().to_vec()
            });
            let mut got = Vec::with_capacity(n);
            for r in report.into_results() {
                got.extend(r);
            }
            let bits_got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let bits_exp: Vec<u64> = expected.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_got, bits_exp, "team = {team} diverged from sequential");
        }
    }

    /// A block whose every other row reads a ghost (rank 0's even vertices
    /// are each wired to a vertex of rank 1), with a team: ghost-reading
    /// and ghost-free rows alternate inside every lane's range.
    #[test]
    fn team_runner_correct_on_interleaved_ghost_rows() {
        let n = 200;
        let edges: Vec<(u32, u32)> = (0..50u32).map(|i| (2 * i, 100 + i)).collect();
        let g = Graph::from_edges(n, &edges, vec![[0.0; 3]; n], 2);
        let iters = 6;
        let mut expected = initial_values(n);
        sequential_relaxation(&g, &mut expected, iters);

        for team in [2usize, 4] {
            let part = BlockPartition::uniform(n, 2);
            let g2 = g.clone();
            let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
            let report = Cluster::new(spec).run(move |env| {
                let rank = env.rank();
                let adj = LocalAdjacency::extract(&g2, &part, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                let mut runner =
                    LoopRunner::new(sched, &adj, ComputeCostModel::zero()).with_team(team);
                let iv = part.interval_of(rank);
                let init = initial_values(n);
                let mut values = runner.make_values(init[iv.start..iv.end].to_vec());
                runner.run(env, &RelaxationKernel, &mut values, iters);
                values.local().to_vec()
            });
            let mut got = Vec::with_capacity(n);
            for r in report.into_results() {
                got.extend(r);
            }
            assert_eq!(got, expected, "interleaved team = {team} diverged");
        }
    }

    /// The overlapped step on a mesh large enough to have blocks that read
    /// no ghost: every rank sweeps its interior runs before the receive and
    /// its boundary runs after it, and the result is still the sequential
    /// reference bit for bit — with one lane and with lane shares that
    /// straddle runs, and for a kernel swept whole after the receive.
    #[test]
    fn overlapped_step_matches_sequential_bitwise() {
        let raw = meshgen::triangulated_grid(90, 80, 0.3, 5);
        let g = stance_locality::rcb::rcb_ordering(&raw).apply(&raw);
        let n = g.num_vertices();
        let iters = 7;
        let mut expected = initial_values(n);
        sequential_relaxation(&g, &mut expected, iters);
        let part = BlockPartition::uniform(n, 2);
        for team in [1usize, 3] {
            let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
            let report = Cluster::new(spec).run(|env| {
                let rank = env.rank();
                let adj = LocalAdjacency::extract(&g, &part, rank);
                let (sched, _) =
                    build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                let mut runner =
                    LoopRunner::new(sched, &adj, ComputeCostModel::zero()).with_team(team);
                let tadj = runner.tadj();
                assert!(!tadj.interior_runs().is_empty() && !tadj.boundary_runs().is_empty());
                let iv = part.interval_of(rank);
                let init = initial_values(n);
                let mut values = runner.make_values(init[iv.start..iv.end].to_vec());
                runner.run(env, &RelaxationKernel, &mut values, iters);
                let mut whole = runner.make_values(init[iv.start..iv.end].to_vec());
                runner.run(env, &SweepOnlyRelaxation, &mut whole, iters);
                (values.local().to_vec(), whole.local().to_vec())
            });
            let (mut got, mut got_whole) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for (r, w) in report.into_results() {
                got.extend(r);
                got_whole.extend(w);
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&expected), "team = {team}");
            assert_eq!(
                bits(&got_whole),
                bits(&expected),
                "sweep-only, team = {team}"
            );
        }
    }

    /// The relaxation through `sweep` alone: the default ranged hook.
    struct SweepOnlyRelaxation;

    impl Kernel<f64> for SweepOnlyRelaxation {
        fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
            RelaxationKernel.sweep(tadj, combined, out);
        }
    }

    /// A rebuilt team runner (remap) must match a fresh one bitwise —
    /// the lane splits are recomputed from the new row count.
    #[test]
    fn rebuilt_team_runner_matches_fresh_bitwise() {
        let g = meshgen::triangulated_grid(11, 9, 0.4, 6);
        let n = g.num_vertices();
        let phases = [
            BlockPartition::from_sizes(&[40, 30, 29]),
            BlockPartition::from_sizes(&[20, 50, 29]),
        ];
        let iters = 5;
        let run = |team: usize, recycle: bool| {
            let spec = ClusterSpec::uniform(3).with_network(NetworkSpec::zero_cost());
            Cluster::new(spec)
                .run(|env| {
                    let rank = env.rank();
                    let init = initial_values(n);
                    let mut runner: Option<LoopRunner<f64>> = None;
                    let mut out = Vec::new();
                    for part in &phases {
                        let adj = LocalAdjacency::extract(&g, part, rank);
                        let (sched, _) =
                            build_schedule_symmetric(part, &adj, rank, ScheduleStrategy::Sort2);
                        match &mut runner {
                            Some(r) if recycle => {
                                r.rebuild(sched, &adj);
                            }
                            _ => {
                                runner = Some(
                                    LoopRunner::new(sched, &adj, ComputeCostModel::zero())
                                        .with_team(team),
                                );
                            }
                        }
                        let r = runner.as_mut().expect("runner built");
                        let iv = part.interval_of(rank);
                        let mut values = r.make_values(init[iv.start..iv.end].to_vec());
                        r.run(env, &RelaxationKernel, &mut values, iters);
                        out.push(values.local().to_vec());
                    }
                    out
                })
                .into_results()
        };
        for team in [2usize, 4] {
            assert_eq!(
                run(team, true),
                run(team, false),
                "team = {team}: rebuilt runner diverged from fresh"
            );
            assert_eq!(
                run(team, true),
                run(1, true),
                "team = {team}: teamed runner diverged from single-lane"
            );
        }
    }

    /// The simulator's clock must see the team: a 4-lane rank charges
    /// `sweep_work / team_speedup` per iteration, so the load monitor
    /// (and the balancer) observes the effective per-item speed.
    #[test]
    fn team_aware_cost_speeds_virtual_clock() {
        let g = meshgen::triangulated_grid(8, 8, 0.0, 0);
        let n = g.num_vertices();
        let part = BlockPartition::uniform(n, 2);
        let cost = ComputeCostModel::sun4();
        let run = |team: usize| {
            let part = part.clone();
            let g = g.clone();
            let spec = ClusterSpec::uniform(2).with_network(NetworkSpec::zero_cost());
            Cluster::new(spec)
                .run(move |env| {
                    let rank = env.rank();
                    let adj = LocalAdjacency::extract(&g, &part, rank);
                    let owned = adj.len();
                    let (sched, _) =
                        build_schedule_symmetric(&part, &adj, rank, ScheduleStrategy::Sort2);
                    let mut runner = LoopRunner::new(sched, &adj, cost).with_team(team);
                    let mut values = runner.make_values(vec![0.0; owned]);
                    runner
                        .run(env, &RelaxationKernel, &mut values, 4)
                        .compute_time
                })
                .into_results()
        };
        let serial = run(1);
        let teamed = run(4);
        let speedup = cost.with_team(4).team_speedup();
        for (rank, (t1, t4)) in serial.iter().zip(teamed.iter()).enumerate() {
            assert!(
                (t1 / t4 - speedup).abs() < 1e-9,
                "rank {rank}: clock speedup {} != modelled {speedup}",
                t1 / t4
            );
        }
    }
}
