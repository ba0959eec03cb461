//! The four workloads: what each one runs, on which inputs, and the
//! benchmark-owned serial references its results are verified against.
//!
//! Every per-rank body is generic over [`Comm`], so the native thread
//! backend and the TCP process backend run the same driver code. Inputs
//! are functions of `--seed` only; the program under test receives the
//! generated mesh, never the seed. A body sets its session up once, then
//! makes an untimed warm-up run and `Scale::rounds` timed runs of the same
//! work, taking a stopwatch lap every few milliseconds (`laps.rs`).
//!
//! All relaxation workloads run the default [`StanceConfig`] with two
//! changes (see [`config`]): zero-cost cost models (they only feed the
//! simulator's virtual clock) and `profitability_margin = 1e12`, so every
//! `check_interval = 10` load-balance check runs its full collective and
//! decides *Keep*. The controller code is exercised on every check, but
//! wall-clock noise cannot change what the run does — a controller-driven
//! run on wall clock thrashes (ISSUE 11, Motivation) and could not be gated.

use std::time::Instant;

use stance::executor::ComputeCostModel;
use stance::inspector::{InspectorCostModel, TranslatedAdjacency};
use stance::locality::meshgen;
use stance::prelude::*;
use stance::scenarios::initial_value;
use stance_tcp::codec::Wire;

use crate::host::vm_hwm_kb;
use crate::laps::{self, LapKind};
use crate::trace::{decode_spans, encode_spans, Span, SpanKind, Tracer};

/// Which transport the workload's ranks talk over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One OS thread per rank in this process (`stance-native`).
    Native,
    /// One OS process per rank over loopback sockets (`stance-tcp`).
    Tcp,
}

impl Backend {
    /// The backend's name in metric names and reports.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Native => "native",
            Backend::Tcp => "tcp",
        }
    }
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1M-vertex relaxation, 1 rank × 2 lanes: sweep and team only.
    Sweep1m,
    /// Paper-scale relaxation on 2 TCP process ranks: halo exchange bound.
    Halo30k,
    /// 200k-vertex relaxation with a scripted remap every block.
    Churn200k,
    /// Backward-Euler diffusion by Jacobi-PCG through a dataflow session.
    Cg30k,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Sweep1m,
        Workload::Halo30k,
        Workload::Churn200k,
        Workload::Cg30k,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep1m => "sweep-1m",
            Workload::Halo30k => "halo-30k",
            Workload::Churn200k => "churn-200k",
            Workload::Cg30k => "cg-30k",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists (one line; `BENCHMARK.json` carries the same
    /// text).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sweep1m => {
                "working set far beyond L2, no messages: chunked sweep + SweepTeam do all the work; the control that transport, balance and remap changes must not move"
            }
            Workload::Halo30k => {
                "each rank's block fits L2, so the ghost exchange over loopback sockets costs as much as the sweep: tcp link/wire/codec and executor pack/unpack dominate"
            }
            Workload::Churn200k => {
                "a scripted remap after every 10-iteration block plus periodic checkpoints: the adaptation path (plan, value/adjacency moves, inspector rebuild) is about a third of the work"
            }
            Workload::Cg30k => {
                "Jacobi-PCG through the two-stage dataflow engine with allreduce dot products: the second engine, the second kernel, and latency-bound collectives instead of halo frames"
            }
        }
    }

    /// The transport the ranks use.
    pub fn backend(self) -> Backend {
        match self {
            Workload::Halo30k => Backend::Tcp,
            _ => Backend::Native,
        }
    }

    /// Ranks in the run.
    pub fn ranks(self) -> usize {
        match self {
            Workload::Sweep1m => 1,
            _ => 2,
        }
    }

    /// Compute lanes per rank.
    pub fn lanes(self) -> usize {
        match self {
            Workload::Sweep1m => 2,
            _ => 1,
        }
    }

    /// Iterations per stopwatch lap in the relaxation workloads: each
    /// `check_interval` block is run as `BLOCK / stride` calls of
    /// `run_block(stride)`, sized so a lap takes a few milliseconds — short
    /// enough that every lap is sometimes free of the host's interference.
    /// (`cg-30k` takes a lap per PCG iteration.)
    pub fn stride(self) -> usize {
        match self {
            Workload::Sweep1m | Workload::Churn200k => 1,
            Workload::Halo30k | Workload::Cg30k => BLOCK,
        }
    }
}

/// Iterations per relaxation block: the default `check_interval`.
pub const BLOCK: usize = 10;
/// Period of `churn-200k`'s partition cycle (see [`cycle_partition`]).
pub const CYCLE: usize = 4;
/// `churn-200k` checkpoints after every this-many blocks.
pub const CHECKPOINT_EVERY: usize = 10;
/// PCG stops at this relative residual.
pub const CG_TOL: f64 = 1.0e-8;
/// PCG verification tolerance, as a share of `‖u‖∞`.
pub const CG_VERIFY_TOL: f64 = 1.0e-9;
/// Diagonal shift of the backward-Euler operator `L + shift·I`
/// (`shift = 1/Δt`). Small enough that each solve needs on the order of a
/// hundred PCG iterations.
pub const CG_SHIFT: f64 = 0.02;

/// How much work one repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// `triangulated_grid` dimensions, or `None` for the paper-scale mesh.
    pub grid: Option<(usize, usize)>,
    /// Relaxation iterations (`sweep-1m`, `halo-30k`), blocks
    /// (`churn-200k`) or backward-Euler steps (`cg-30k`) of one timed run.
    pub count: usize,
    /// Timed runs per repetition. Each starts from the initial values again
    /// and follows an untimed warm-up run of the same work.
    pub rounds: usize,
}

impl Workload {
    /// The workload's size: full scale, or the `--quick` smoke scale.
    ///
    /// Full-scale counts are sized so one timed run takes roughly 0.5–1 s
    /// on two 2 GHz cores, and the rounds so a repetition spends about 4 s
    /// of its 6 s in timed runs: the acceptance driver allows about 35 s
    /// per invocation, and a median over many short runs taken back to back
    /// — both cores busy from the warm-up on — is steadier on a shared host
    /// than a few runs that each follow a single-threaded set-up.
    pub fn scale(self, quick: bool) -> Scale {
        match (self, quick) {
            (Workload::Sweep1m, false) => Scale {
                grid: Some((1000, 1000)),
                count: 100,
                rounds: 6,
            },
            (Workload::Sweep1m, true) => Scale {
                grid: Some((200, 150)),
                count: 40,
                rounds: 2,
            },
            (Workload::Halo30k, false) => Scale {
                grid: None,
                count: 4000,
                rounds: 5,
            },
            (Workload::Halo30k, true) => Scale {
                grid: Some((60, 50)),
                count: 200,
                rounds: 2,
            },
            (Workload::Churn200k, false) => Scale {
                grid: Some((500, 400)),
                count: 60,
                rounds: 4,
            },
            (Workload::Churn200k, true) => Scale {
                grid: Some((100, 80)),
                count: 12,
                rounds: 2,
            },
            (Workload::Cg30k, false) => Scale {
                grid: None,
                count: 16,
                rounds: 4,
            },
            (Workload::Cg30k, true) => Scale {
                grid: Some((60, 50)),
                count: 3,
                rounds: 2,
            },
        }
    }
}

/// A generated, RCB-ordered mesh with the time each phase took.
pub struct BuiltMesh {
    /// The ordered mesh the ranks compute on.
    pub mesh: Graph,
    /// Seconds generating the raw mesh.
    pub meshgen_s: f64,
    /// Seconds computing and applying the RCB ordering.
    pub order_s: f64,
}

/// Generates the workload's input from `seed`.
pub fn build_mesh(scale: &Scale, seed: u64) -> BuiltMesh {
    let t0 = Instant::now();
    let raw = match scale.grid {
        Some((nx, ny)) => meshgen::triangulated_grid(nx, ny, 0.3, seed),
        None => meshgen::paper_mesh(seed),
    };
    let meshgen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let (mesh, _) = stance::prepare_mesh(&raw, OrderingMethod::Rcb);
    BuiltMesh {
        mesh,
        meshgen_s,
        order_s: t1.elapsed().as_secs_f64(),
    }
}

/// The session configuration every workload runs (see the module docs).
pub fn config(w: Workload) -> StanceConfig {
    let mut c = StanceConfig {
        compute_cost: ComputeCostModel::zero(),
        inspector_cost: InspectorCostModel::zero(),
        ..StanceConfig::default()
    };
    c.balancer.profitability_margin = 1.0e12;
    if w.lanes() > 1 {
        c = c.with_team(w.lanes());
    }
    c
}

/// The partition `churn-200k` holds during block `step`: the fixed cycle
/// uniform → 1:3 → uniform → 0.85:1 over two ranks. Scripted rather than
/// controller-chosen so that every repetition moves exactly the same
/// elements.
pub fn cycle_partition(n: usize, step: usize) -> BlockPartition {
    let weights: [f64; 2] = match step % CYCLE {
        0 | 2 => [1.0, 1.0],
        1 => [1.0, 3.0],
        _ => [0.85, 1.0],
    };
    BlockPartition::from_weights(n, &weights, Arrangement::identity(2))
}

/// A position-sensitive digest of the values owned from global index
/// `start` on: equal iff (with overwhelming likelihood) every bit of every
/// value is equal *and* sits at the same global index. ≈ 1 ns per element,
/// cheap enough to take after every scripted remap inside the timed run.
pub fn digest(start: usize, values: &[f64]) -> u64 {
    values.iter().enumerate().fold(0u64, |acc, (i, v)| {
        acc.wrapping_add(
            v.to_bits()
                .wrapping_mul(2 * (start + i) as u64 + 1)
                .rotate_left(17),
        )
    })
}

// ---------------------------------------------------------------------
// Frozen serial references. These are the benchmark's own: they do not
// call the runtime's kernels, so a change to the runtime cannot silently
// change what "correct" means. Accumulation orders match the paper's
// Fig. 8 loop (ascending-neighbour CSR order), which is what makes the
// distributed results bitwise comparable.
// ---------------------------------------------------------------------

/// `iters` relaxation sweeps over the whole mesh on one thread: every
/// vertex becomes the mean of its neighbours (isolated vertices keep their
/// value). Double-buffered; `scratch` is the second buffer.
pub fn serial_relaxation(mesh: &Graph, y: &mut Vec<f64>, scratch: &mut Vec<f64>, iters: usize) {
    let n = mesh.num_vertices();
    assert_eq!(y.len(), n, "value array length mismatch");
    scratch.resize(n, 0.0);
    for _ in 0..iters {
        for (i, t) in scratch.iter_mut().enumerate() {
            let nbrs = mesh.neighbors(i);
            if nbrs.is_empty() {
                *t = y[i];
                continue;
            }
            let mut acc = 0.0;
            for &j in nbrs {
                acc += y[j as usize];
            }
            *t = acc / nbrs.len() as f64;
        }
        std::mem::swap(y, scratch);
    }
}

/// `y += a·x`.
fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `p = u + b·p`.
fn xpby(p: &mut [f64], u: &[f64], b: f64) {
    for (pi, ui) in p.iter_mut().zip(u) {
        *pi = ui + b * *pi;
    }
}

/// One rank's share of a dot product, summed in index order.
fn local_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// The serial twin of the distributed dot product: one partial sum per
/// block of the uniform `ranks`-way partition, folded in rank order —
/// the order `Comm::allreduce_f64` guarantees. With the reduction order
/// fixed the serial and distributed solvers take the same number of
/// iterations and can be compared to a tight tolerance.
fn blocked_dot(part: &BlockPartition, a: &[f64], b: &[f64]) -> f64 {
    (0..part.num_procs())
        .map(|r| {
            let iv = part.interval_of(r);
            local_dot(&a[iv.start..iv.end], &b[iv.start..iv.end])
        })
        .reduce(|x, y| x + y)
        .expect("a partition has at least one block")
}

/// Result of a PCG run: the final field and the total iteration count.
pub struct PcgResult {
    /// The solution after the last backward-Euler step.
    pub u: Vec<f64>,
    /// PCG iterations summed over all steps.
    pub iterations: u64,
}

/// The serial reference for `cg-30k`: `steps` backward-Euler diffusion
/// steps `(L + shift·I) u⁺ = shift·u`, each solved by Jacobi-preconditioned
/// CG (Chronopoulos–Gear form, zero initial guess) to relative residual
/// [`CG_TOL`], on one thread over the whole mesh. `ranks` fixes the dot
/// products' reduction order (see [`blocked_dot`]).
pub fn serial_pcg(mesh: &Graph, steps: usize, shift: f64, ranks: usize) -> PcgResult {
    let n = mesh.num_vertices();
    let part = BlockPartition::uniform(n, ranks);
    let precond = |r: &[f64], u: &mut [f64]| {
        for (i, ui) in u.iter_mut().enumerate() {
            *ui = r[i] / (mesh.degree(i) as f64 + shift);
        }
    };
    let matvec = |x: &[f64], out: &mut [f64]| {
        for (i, o) in out.iter_mut().enumerate() {
            let nbrs = mesh.neighbors(i);
            let mut acc = x[i] * (nbrs.len() as f64 + shift);
            for &j in nbrs {
                acc -= x[j as usize];
            }
            *o = acc;
        }
    };
    let mut u_old: Vec<f64> = (0..n).map(initial_value).collect();
    let (mut x, mut r, mut u, mut au, mut p, mut ap) = (
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
    );
    let mut iterations = 0u64;
    for _ in 0..steps {
        x.fill(0.0);
        for (ri, ui) in r.iter_mut().zip(&u_old) {
            *ri = shift * ui;
        }
        let rr0 = blocked_dot(&part, &r, &r);
        precond(&r, &mut u);
        matvec(&u, &mut au);
        let mut gamma = blocked_dot(&part, &r, &u);
        let delta = blocked_dot(&part, &au, &u);
        p.copy_from_slice(&u);
        ap.copy_from_slice(&au);
        let mut alpha = gamma / delta;
        for _ in 0..CG_MAX_ITERS {
            axpy(&mut x, alpha, &p);
            axpy(&mut r, -alpha, &ap);
            let rr = blocked_dot(&part, &r, &r);
            iterations += 1;
            if rr <= rr0 * CG_TOL * CG_TOL {
                break;
            }
            precond(&r, &mut u);
            matvec(&u, &mut au);
            let gamma_new = blocked_dot(&part, &r, &u);
            let delta = blocked_dot(&part, &au, &u);
            let beta = gamma_new / gamma;
            alpha = gamma_new / (delta - beta * gamma_new / alpha);
            gamma = gamma_new;
            xpby(&mut p, &u, beta);
            xpby(&mut ap, &au, beta);
        }
        u_old.copy_from_slice(&x);
    }
    PcgResult {
        u: u_old,
        iterations,
    }
}

/// PCG iteration cap per solve (never reached on these meshes; bounds a
/// runaway solve so a broken build fails instead of hanging).
pub const CG_MAX_ITERS: usize = 2000;

// ---------------------------------------------------------------------
// Per-rank results.
// ---------------------------------------------------------------------

/// What one rank hands back from a repetition.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankOut {
    /// Global index of the first element of the rank's final block.
    pub start: usize,
    /// The rank's final owned values (the solution field for `cg-30k`).
    pub values: Vec<f64>,
    /// Seconds between the barriers bracketing each timed run, in order.
    pub runs_s: Vec<f64>,
    /// The timed runs' laps, by kind (see [`crate::laps`]).
    pub laps: Vec<LapKind>,
    /// Seconds from the barrier before the warm-up run to the barrier after
    /// the last timed run: everything in between is measurement, not set-up.
    pub measured_s: f64,
    /// Seconds in the collective session setup.
    pub session_setup_s: f64,
    /// The rank process's peak RSS after the timed run, KiB.
    pub hwm_kb: u64,
    /// Executor iterations (dataflow passes for `cg-30k`), summed over the
    /// timed runs — like every count below, the warm-up run is left out.
    pub iterations: u64,
    /// Load-balance checks performed.
    pub checks: u64,
    /// Remaps performed (scripted ones included).
    pub remaps: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Bytes of the last checkpoint's serialized blob (0 if none taken).
    pub checkpoint_bytes: u64,
    /// PCG iterations over all steps.
    pub cg_iterations: u64,
    /// `digest` of the owned block after every scripted remap of every
    /// timed run.
    pub digests: Vec<u64>,
    /// `digest` of the owned block at the end of each timed run: every run
    /// must end where the last one — the one `values` holds — ended.
    pub finals: Vec<u64>,
    /// The spans recorded around the session calls (traced runs only).
    pub spans: Vec<Span>,
}

impl RankOut {
    /// Encodes the result for the TCP coordinator link.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + 8 * (self.values.len() + self.digests.len()));
        self.measured_s.put(&mut out);
        self.session_setup_s.put(&mut out);
        for count in [
            self.start as u64,
            self.hwm_kb,
            self.iterations,
            self.checks,
            self.remaps,
            self.checkpoints,
            self.checkpoint_bytes,
            self.cg_iterations,
        ] {
            count.put(&mut out);
        }
        self.runs_s.put(&mut out);
        laps::encode(&self.laps).put(&mut out);
        self.values.put(&mut out);
        self.digests.put(&mut out);
        self.finals.put(&mut out);
        encode_spans(&self.spans).put(&mut out);
        out
    }

    /// Decodes a result reported by `rank` (field order as in
    /// [`RankOut::to_bytes`]).
    pub fn from_bytes(rank: usize, mut bytes: &[u8]) -> RankOut {
        let input = &mut bytes;
        let out = RankOut {
            measured_s: f64::take(input),
            session_setup_s: f64::take(input),
            start: u64::take(input) as usize,
            hwm_kb: u64::take(input),
            iterations: u64::take(input),
            checks: u64::take(input),
            remaps: u64::take(input),
            checkpoints: u64::take(input),
            checkpoint_bytes: u64::take(input),
            cg_iterations: u64::take(input),
            runs_s: Vec::take(input),
            laps: laps::decode(&Vec::<f64>::take(input)),
            values: Vec::take(input),
            digests: Vec::take(input),
            finals: Vec::take(input),
            spans: decode_spans(rank, &Vec::<u64>::take(input)),
        };
        assert!(input.is_empty(), "trailing bytes after a rank result");
        out
    }
}

/// Reassembles the ranks' final blocks into the global vector.
///
/// # Panics
/// Panics if the blocks do not tile `0..n` exactly.
pub fn assemble(n: usize, outs: &[RankOut]) -> Vec<f64> {
    let mut global = vec![f64::NAN; n];
    let mut covered = 0;
    for o in outs {
        global[o.start..o.start + o.values.len()].copy_from_slice(&o.values);
        covered += o.values.len();
    }
    assert_eq!(covered, n, "rank blocks cover {covered} of {n} elements");
    global
}

// ---------------------------------------------------------------------
// Per-rank bodies.
// ---------------------------------------------------------------------

/// Runs one rank's share of a repetition of `w` on `mesh`. Collective:
/// every rank of the cluster calls it. With `traced` the driver records a
/// span around every session call of the timed runs; without it the tracer
/// is inert.
///
/// Every body has the same shape: collective set-up once, then
/// `scale.rounds + 1` runs of the same work, each from the initial values
/// and each bracketed by barriers. Run 0 is the warm-up — it fills caches,
/// recycled buffers and the allocator's pools, and it keeps both cores busy
/// long enough for the host to hand the second one back — and is neither
/// timed, traced nor counted.
pub fn run_rank<C: Comm>(
    env: &mut C,
    w: Workload,
    scale: &Scale,
    mesh: &Graph,
    traced: bool,
) -> RankOut {
    match w {
        Workload::Sweep1m | Workload::Halo30k => relax_rank(env, w, scale, mesh, traced),
        Workload::Churn200k => churn_rank(env, scale, mesh, traced),
        Workload::Cg30k => cg_rank(env, scale, mesh, traced),
    }
}

/// The stopwatch the rank bodies share: the barriers that bracket each
/// run, the seconds between them, and the laps (see [`crate::laps`]) that
/// `wall_s` is made of.
struct RoundClock {
    began: Instant,
    t0: Instant,
    last: Instant,
    counted: bool,
    runs_s: Vec<f64>,
    kinds: Vec<LapKind>,
    /// Laps of each kind in the current run.
    this_run: Vec<u64>,
}

impl RoundClock {
    /// Starts the measured phase (collective) for runs whose laps are of
    /// `kinds` kinds; the last kind is the closing barrier.
    fn start<C: Comm>(env: &mut C, rounds: usize, kinds: usize) -> RoundClock {
        env.barrier();
        let now = Instant::now();
        RoundClock {
            began: now,
            t0: now,
            last: now,
            counted: false,
            runs_s: Vec::with_capacity(rounds),
            kinds: vec![LapKind::default(); kinds],
            this_run: vec![0; kinds],
        }
    }

    /// Opens run `round` (collective): barrier, start the clock, open the
    /// run's span. Run 0 is the warm-up and leaves no times behind.
    fn begin<C: Comm>(&mut self, env: &mut C, tr: &mut Tracer, round: usize) {
        env.barrier();
        self.t0 = Instant::now();
        self.last = self.t0;
        self.counted = round > 0;
        self.this_run.fill(0);
        tr.begin(SpanKind::Run, round);
    }

    /// Ends a lap of `kind`: files the time since the previous lap ended (or
    /// the run began).
    #[inline]
    fn lap(&mut self, kind: usize) {
        let now = Instant::now();
        if self.counted {
            self.kinds[kind].record((now - self.last).as_secs_f64());
            self.this_run[kind] += 1;
        }
        self.last = now;
    }

    /// Closes the run (collective): the closing barrier is its last lap.
    fn end<C: Comm>(&mut self, env: &mut C, tr: &mut Tracer) {
        env.barrier();
        self.lap(self.kinds.len() - 1);
        tr.end();
        if self.counted {
            self.runs_s.push(self.t0.elapsed().as_secs_f64());
            for (kind, n) in self.kinds.iter_mut().zip(&self.this_run) {
                if self.runs_s.len() == 1 {
                    kind.per_run = *n;
                }
                assert_eq!(
                    kind.per_run, *n,
                    "every run of a repetition must take the same laps"
                );
            }
        }
    }

    /// Ends the measured phase and files its times in `out`.
    fn finish(self, out: &mut RankOut) {
        out.measured_s = self.began.elapsed().as_secs_f64();
        out.runs_s = self.runs_s;
        out.laps = self.kinds;
    }
}

/// Lap kinds of `sweep-1m` and `halo-30k`.
mod relax_lap {
    /// `stride` iterations of the sweep (with their ghost exchange).
    pub const SWEEP: usize = 0;
    /// One Keep-check.
    pub const CHECK: usize = 1;
    /// Kinds in all; the last is the closing barrier.
    pub const KINDS: usize = 3;
}

/// Lap kinds of `churn-200k`: the partition cycle has [`CYCLE`] steps, and
/// a sweep or a remap costs what its step's block sizes make it cost.
mod churn_lap {
    use super::CYCLE;
    /// `stride` iterations under cycle step `step`.
    pub fn sweep(step: usize) -> usize {
        step % CYCLE
    }
    /// One Keep-check.
    pub const CHECK: usize = CYCLE;
    /// The scripted remap away from cycle step `step` (digest included).
    pub fn remap(step: usize) -> usize {
        CYCLE + 1 + step % CYCLE
    }
    /// One checkpoint.
    pub const CHECKPOINT: usize = 2 * CYCLE + 1;
    /// The run's last checkpoint, which is also serialized.
    pub const CHECKPOINT_BLOB: usize = 2 * CYCLE + 2;
    /// Kinds in all; the last is the closing barrier.
    pub const KINDS: usize = 2 * CYCLE + 4;
}

/// Lap kinds of `cg-30k`. A PCG iteration is ≈ 0.3 ms with four blocking
/// collectives in it; a lap holds [`cg_lap::CHUNK`] of them, so that how
/// promptly each single wake-up happened averages out within the lap and
/// the best laps are undisturbed ones, not lucky ones.
mod cg_lap {
    /// Full PCG iterations per lap.
    pub const CHUNK: usize = 8;
    /// A step's prologue: right-hand side, first pass, first dots.
    pub const PROLOGUE: usize = 0;
    /// [`CHUNK`] full PCG iterations.
    pub const ITERATIONS: usize = 1;
    /// The end of a step: the `full` iterations (fewer than [`CHUNK`])
    /// since the last whole lap, the converged one and the copy-out.
    pub fn tail(full: usize) -> usize {
        2 + full % CHUNK
    }
    /// Kinds in all; the last is the closing barrier.
    pub const KINDS: usize = 2 + CHUNK + 1;
}

/// `run_adaptive`, spelled out through the session's public methods so the
/// stopwatch can take a lap after every `stride` iterations and every check
/// (and, in a traced run, a span can bracket each block and check). Same
/// blocks of `check_interval` iterations, same checks, same order.
fn run_adaptive_stepped<C: Comm>(
    session: &mut AdaptiveSession,
    env: &mut C,
    total: usize,
    stride: usize,
    tr: &mut Tracer,
    clock: &mut RoundClock,
) -> SessionReport {
    let mut report = SessionReport::default();
    let mut done = 0;
    let mut epoch = 0;
    while done < total {
        let block = BLOCK.min(total - done);
        tr.begin(SpanKind::Block, epoch);
        let mut swept = 0;
        while swept < block {
            let step = stride.min(block - swept);
            report.iterations += session.run_block(env, step).iterations;
            swept += step;
            clock.lap(relax_lap::SWEEP);
        }
        tr.end();
        done += block;
        if done < total {
            let (remapped, _, _) = tr.scoped(SpanKind::Check, epoch, || {
                session.check_and_rebalance(env, total - done)
            });
            report.checks += 1;
            report.remaps += usize::from(remapped);
            clock.lap(relax_lap::CHECK);
        }
        epoch += 1;
    }
    report
}

/// `sweep-1m` and `halo-30k`: `run_adaptive(iters)` of the Fig. 8
/// relaxation, through [`run_adaptive_stepped`].
fn relax_rank<C: Comm>(
    env: &mut C,
    w: Workload,
    scale: &Scale,
    mesh: &Graph,
    traced: bool,
) -> RankOut {
    let (iters, rounds) = (scale.count, scale.rounds);
    let cfg = config(w);
    assert_eq!(cfg.check_interval, BLOCK, "default check interval changed");
    let mut tr = Tracer::new(env.rank(), traced, rounds * (2 * iters / BLOCK + 8));
    let mut idle = Tracer::new(env.rank(), false, 0);
    let t_setup = Instant::now();
    tr.begin(SpanKind::Setup, 0);
    let mut session = AdaptiveSession::setup(env, mesh, RelaxationKernel, initial_value, &cfg);
    tr.end();
    let mut out = RankOut {
        start: session.partition().interval_of(env.rank()).start,
        session_setup_s: t_setup.elapsed().as_secs_f64(),
        ..RankOut::default()
    };
    let initial = session.local_values().to_vec();

    let stride = w.stride();
    let mut clock = RoundClock::start(env, rounds, relax_lap::KINDS);
    for round in 0..=rounds {
        let tr = if round == 0 { &mut idle } else { &mut tr };
        session.set_local_values(&initial);
        clock.begin(env, tr, round);
        let report = run_adaptive_stepped(&mut session, env, iters, stride, tr, &mut clock);
        clock.end(env, tr);
        if round > 0 {
            out.iterations += report.iterations as u64;
            out.checks += report.checks as u64;
            out.remaps += report.remaps as u64;
            out.finals.push(digest(out.start, session.local_values()));
        }
    }
    clock.finish(&mut out);
    out.values = session.local_values().to_vec();
    out.hwm_kb = vm_hwm_kb();
    out.spans = tr.into_spans();
    out
}

/// `churn-200k`: `blocks` × (`run_block(10)` → Keep-check → scripted
/// `remap_to` the next partition of the cycle), with a collective
/// checkpoint after every tenth block. The owned block is digested after
/// every remap so the parent can verify each intermediate state bitwise.
fn churn_rank<C: Comm>(env: &mut C, scale: &Scale, mesh: &Graph, traced: bool) -> RankOut {
    let (blocks, rounds) = (scale.count, scale.rounds);
    assert_eq!(
        blocks % CYCLE,
        0,
        "a run must end on the partition it started on"
    );
    let cfg = config(Workload::Churn200k);
    let n = mesh.num_vertices();
    let total = blocks * BLOCK;
    let mut tr = Tracer::new(env.rank(), traced, rounds * (4 * blocks + 8));
    let mut idle = Tracer::new(env.rank(), false, 0);
    let t_setup = Instant::now();
    tr.begin(SpanKind::Setup, 0);
    let mut session = AdaptiveSession::setup_with_partition(
        env,
        mesh,
        cycle_partition(n, 0),
        RelaxationKernel,
        initial_value,
        &cfg,
    );
    tr.end();
    let mut out = RankOut {
        start: session.partition().interval_of(env.rank()).start,
        session_setup_s: t_setup.elapsed().as_secs_f64(),
        digests: Vec::with_capacity(rounds * blocks),
        ..RankOut::default()
    };
    let initial = session.local_values().to_vec();

    let stride = Workload::Churn200k.stride();
    let mut clock = RoundClock::start(env, rounds, churn_lap::KINDS);
    for round in 0..=rounds {
        let tr = if round == 0 { &mut idle } else { &mut tr };
        let counted = u64::from(round > 0);
        // Every run ends on the partition it started on, so the initial
        // values fit the rank's block again.
        session.set_local_values(&initial);
        clock.begin(env, tr, round);
        for b in 0..blocks {
            tr.begin(SpanKind::Block, b);
            for _ in 0..BLOCK / stride {
                let stats = session.run_block(env, stride);
                out.iterations += counted * stats.iterations as u64;
                clock.lap(churn_lap::sweep(b));
            }
            tr.end();
            let (remapped, _, _) = tr.scoped(SpanKind::Check, b, || {
                session.check_and_rebalance(env, total - (b + 1) * BLOCK)
            });
            out.checks += counted;
            out.remaps += counted * u64::from(remapped);
            clock.lap(churn_lap::CHECK);
            tr.scoped(SpanKind::Remap, b, || {
                session.remap_to(env, cycle_partition(n, b + 1), &mut []);
            });
            out.remaps += counted;
            let start = session.partition().interval_of(env.rank()).start;
            let d = digest(start, session.local_values());
            if round > 0 {
                out.digests.push(d);
            }
            clock.lap(churn_lap::remap(b));
            if (b + 1) % CHECKPOINT_EVERY == 0 {
                let ckpt = tr.scoped(SpanKind::Checkpoint, b, || session.checkpoint(env, &[]));
                out.checkpoints += counted;
                // Serializing is what an application does with a checkpoint;
                // only the last blob's size is kept.
                let last = b + 1 + CHECKPOINT_EVERY > blocks;
                if last {
                    out.checkpoint_bytes = ckpt.to_bytes().len() as u64;
                }
                std::hint::black_box(&ckpt);
                clock.lap(if last {
                    churn_lap::CHECKPOINT_BLOB
                } else {
                    churn_lap::CHECKPOINT
                });
            }
        }
        clock.end(env, tr);
        if round > 0 {
            out.finals.push(digest(out.start, session.local_values()));
        }
    }
    clock.finish(&mut out);
    out.values = session.local_values().to_vec();
    out.hwm_kb = vm_hwm_kb();
    out.spans = tr.into_spans();
    out
}

/// The Jacobi preconditioner as a stage kernel: `u[i] = r[i] / (deg(i) +
/// shift)`, the inverse of `diag(L + shift·I)`. Pointwise, so its stage
/// reads owned entries only and never triggers an exchange.
pub struct JacobiKernel {
    /// The operator's diagonal shift.
    pub shift: f64,
}

impl Kernel<f64> for JacobiKernel {
    fn sweep(&self, tadj: &TranslatedAdjacency, combined: &[f64], out: &mut [f64]) {
        for (l, o) in out.iter_mut().enumerate() {
            *o = combined[l] / (tadj.degree_of(l) as f64 + self.shift);
        }
    }
}

/// The CG stage graph: `precond` (local) then `matvec` (gathered), with
/// `u`'s fused exchange between them. All six solver vectors are
/// registered fields, so they would follow a remap and a checkpoint.
pub fn cg_stage_graph(shift: f64) -> StageGraph {
    StageGraphBuilder::new()
        .field("x")
        .field("r")
        .field("u")
        .field("Au")
        .field("p")
        .field("Ap")
        .stage_local("precond", JacobiKernel { shift }, "r", "u")
        .stage("matvec", LaplacianKernel { shift }, "u", "Au")
        .build()
}

/// Application-range tag for the solver's dot products.
const TAG_DOT: Tag = Tag(0x0D07);

/// The solver's host-side working vectors, allocated once per rank.
struct CgBuffers {
    u_old: Vec<f64>,
    x: Vec<f64>,
    r: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
}

/// `steps` backward-Euler steps from `buf.u_old`, which ends up holding
/// the solution. Returns `(PCG iterations, dataflow passes)`.
fn cg_steps<C: Comm>(
    env: &mut C,
    session: &mut DataflowSession,
    tr: &mut Tracer,
    clock: &mut RoundClock,
    steps: usize,
    buf: &mut CgBuffers,
) -> (u64, u64) {
    let shift = CG_SHIFT;
    let CgBuffers { u_old, x, r, p, ap } = buf;
    let (mut cg_iterations, mut passes) = (0u64, 0u64);
    let mut epoch = 0usize;

    // One span-wrapped allreduce. A macro rather than a closure: it needs
    // `env` and `tr` mutably next to shared borrows of the session.
    macro_rules! dot {
        ($a:expr, $b:expr) => {{
            let local = local_dot($a, $b);
            tr.scoped(SpanKind::Collective, epoch, || {
                env.allreduce_f64(TAG_DOT, local, |a, b| a + b)
            })
        }};
    }
    macro_rules! pass {
        () => {{
            tr.scoped(SpanKind::Pass, epoch, || session.run_block(env, 1));
            passes += 1;
        }};
    }

    for _ in 0..steps {
        tr.begin(SpanKind::Host, epoch);
        x.fill(0.0);
        for (ri, ui) in r.iter_mut().zip(u_old.iter()) {
            *ri = shift * ui;
        }
        session.set_local("x", x);
        session.set_local("r", r);
        tr.end();
        let rr0 = dot!(r, r);
        pass!();
        let mut gamma = dot!(r, session.local("u"));
        let delta = dot!(session.local("Au"), session.local("u"));
        tr.begin(SpanKind::Host, epoch);
        p.copy_from_slice(session.local("u"));
        ap.copy_from_slice(session.local("Au"));
        session.set_local("p", p);
        session.set_local("Ap", ap);
        tr.end();
        let mut alpha = gamma / delta;
        clock.lap(cg_lap::PROLOGUE);
        let mut full = 0;
        for _ in 0..CG_MAX_ITERS {
            epoch += 1;
            tr.begin(SpanKind::Host, epoch);
            axpy(x, alpha, p);
            axpy(r, -alpha, ap);
            session.set_local("x", x);
            session.set_local("r", r);
            tr.end();
            let rr = dot!(r, r);
            cg_iterations += 1;
            if rr <= rr0 * CG_TOL * CG_TOL {
                break;
            }
            pass!();
            let gamma_new = dot!(r, session.local("u"));
            let delta = dot!(session.local("Au"), session.local("u"));
            let beta = gamma_new / gamma;
            alpha = gamma_new / (delta - beta * gamma_new / alpha);
            gamma = gamma_new;
            tr.begin(SpanKind::Host, epoch);
            xpby(p, session.local("u"), beta);
            xpby(ap, session.local("Au"), beta);
            session.set_local("p", p);
            session.set_local("Ap", ap);
            tr.end();
            full += 1;
            if full % cg_lap::CHUNK == 0 {
                clock.lap(cg_lap::ITERATIONS);
            }
        }
        u_old.copy_from_slice(x);
        epoch += 1;
        clock.lap(cg_lap::tail(full));
    }
    (cg_iterations, passes)
}

/// `cg-30k`: the distributed twin of [`serial_pcg`], through a two-stage
/// [`DataflowSession`]. The host keeps working copies of `x`, `r`, `p`,
/// `Ap` in buffers allocated once and writes them back with named
/// `set_local` calls; `u` and `Au` are read in place. A solve writes every
/// field before it reads it, so each run starts over just by starting from
/// the initial `u` again.
fn cg_rank<C: Comm>(env: &mut C, scale: &Scale, mesh: &Graph, traced: bool) -> RankOut {
    let (steps, rounds) = (scale.count, scale.rounds);
    let cfg = config(Workload::Cg30k);
    let mut tr = Tracer::new(env.rank(), traced, rounds * steps * 8 * 256);
    let mut idle = Tracer::new(env.rank(), false, 0);
    let t_setup = Instant::now();
    tr.begin(SpanKind::Setup, 0);
    let mut session = DataflowSession::setup(env, mesh, cg_stage_graph(CG_SHIFT), |_, _| 0.0, &cfg);
    tr.end();
    let iv = session.partition().interval_of(env.rank());
    let mut out = RankOut {
        start: iv.start,
        session_setup_s: t_setup.elapsed().as_secs_f64(),
        ..RankOut::default()
    };
    let m = iv.len();
    let initial: Vec<f64> = iv.iter().map(initial_value).collect();
    let mut buf = CgBuffers {
        u_old: vec![0.0; m],
        x: vec![0.0; m],
        r: vec![0.0; m],
        p: vec![0.0; m],
        ap: vec![0.0; m],
    };

    let mut clock = RoundClock::start(env, rounds, cg_lap::KINDS);
    for round in 0..=rounds {
        let tr = if round == 0 { &mut idle } else { &mut tr };
        buf.u_old.copy_from_slice(&initial);
        clock.begin(env, tr, round);
        let (cg_iterations, passes) = cg_steps(env, &mut session, tr, &mut clock, steps, &mut buf);
        clock.end(env, tr);
        if round > 0 {
            out.cg_iterations += cg_iterations;
            out.iterations += passes;
            out.finals.push(digest(out.start, &buf.u_old));
        }
    }
    clock.finish(&mut out);
    out.values = buf.u_old;
    out.hwm_kb = vm_hwm_kb();
    out.spans = tr.into_spans();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use stance_native::NativeCluster;

    #[test]
    fn names_round_trip_and_shapes_fit_two_cores() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(
                w.ranks() * w.lanes() <= 2,
                "{} needs more than 2 cores",
                w.name()
            );
            assert_eq!(BLOCK % w.stride(), 0, "laps must tile a block");
            assert!(w.why().len() <= 200, "{} why is too long", w.name());
            assert!(!w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn partition_cycle_is_uniform_skewed_uniform_mild() {
        let n = 1000;
        let sizes: Vec<Vec<usize>> = (0..5).map(|s| cycle_partition(n, s).sizes()).collect();
        assert_eq!(sizes[0], vec![500, 500]);
        assert_eq!(sizes[1], vec![250, 750]);
        assert_eq!(sizes[2], vec![500, 500]);
        assert_eq!(sizes[3][0] + sizes[3][1], n);
        assert!(
            sizes[3][0] < 500 && sizes[3][0] > 440,
            "0.85:1 gave {:?}",
            sizes[3]
        );
        assert_eq!(sizes[4], sizes[0], "the cycle has period 4");
        // Consecutive partitions always differ, so every scripted remap moves data.
        for s in 0..8 {
            assert_ne!(cycle_partition(n, s), cycle_partition(n, s + 1));
        }
    }

    #[test]
    fn digest_sees_values_and_positions() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(digest(10, &v), digest(10, &v));
        assert_ne!(digest(10, &v), digest(11, &v));
        assert_ne!(digest(10, &v), digest(10, &[2.0, 1.0, 3.0]));
        assert_ne!(digest(10, &[0.0]), digest(10, &[-0.0]));
        // Digests of adjacent blocks add up to the digest of their union.
        assert_eq!(
            digest(0, &v[..1]).wrapping_add(digest(1, &v[1..])),
            digest(0, &v)
        );
    }

    #[test]
    fn serial_relaxation_by_hand() {
        // Path 0-1-2: one sweep gives [y1, (y0+y2)/2, y1].
        let g = Graph::from_edges(
            3,
            &[(0, 1), (1, 2)],
            vec![[0.0; 3], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]],
            2,
        );
        let mut y = vec![1.0, 2.0, 5.0];
        serial_relaxation(&g, &mut y, &mut Vec::new(), 1);
        assert_eq!(y, vec![2.0, 3.0, 2.0]);
    }

    #[test]
    fn rank_result_codec_round_trips() {
        let out = RankOut {
            start: 17,
            values: vec![1.5, -0.0, 3.25],
            runs_s: vec![0.75, 0.5],
            laps: vec![LapKind {
                per_run: 100,
                best_s: vec![0.004, 0.005],
            }],
            measured_s: 2.0,
            session_setup_s: 0.01,
            hwm_kb: 4242,
            iterations: 100,
            checks: 9,
            remaps: 3,
            checkpoints: 1,
            checkpoint_bytes: 999,
            cg_iterations: 77,
            digests: vec![1, u64::MAX],
            finals: vec![7, 7],
            spans: vec![Span {
                kind: SpanKind::Block,
                rank: 1,
                epoch: 4,
                start_ns: 10,
                end_ns: 20,
                parent: -1,
            }],
        };
        assert_eq!(RankOut::from_bytes(1, &out.to_bytes()), out);
    }

    fn quick_mesh(w: Workload) -> (Scale, Graph) {
        let scale = w.scale(true);
        let mesh = build_mesh(&scale, 5).mesh;
        (scale, mesh)
    }

    /// Every relaxation workload reproduces the serial reference bit for
    /// bit at `--quick` scale, traced or not, and the Keep-only margin
    /// really suppresses every controller remap.
    #[test]
    fn relaxation_workloads_match_the_serial_reference_bitwise() {
        for (w, traced) in [
            (Workload::Sweep1m, false),
            (Workload::Halo30k, true),
            (Workload::Churn200k, false),
            (Workload::Churn200k, true),
        ] {
            let (scale, mesh) = quick_mesh(w);
            let n = mesh.num_vertices();
            let outs = NativeCluster::new(w.ranks())
                .run(|env| run_rank(env, w, &scale, &mesh, traced))
                .into_results();
            // One run's iterations; the counts cover `rounds` timed runs.
            let iters = if w == Workload::Churn200k {
                scale.count * BLOCK
            } else {
                scale.count
            };
            let rounds = scale.rounds as u64;
            let mut y: Vec<f64> = (0..n).map(initial_value).collect();
            serial_relaxation(&mesh, &mut y, &mut Vec::new(), iters);
            let got = assemble(n, &outs);
            assert!(
                got.iter().zip(&y).all(|(a, b)| a.to_bits() == b.to_bits()),
                "{} diverged from the serial reference",
                w.name()
            );
            for o in &outs {
                assert_eq!(o.iterations, rounds * iters as u64);
                assert_eq!(o.runs_s.len(), scale.rounds);
                assert!(o.measured_s >= o.runs_s.iter().sum::<f64>());
                // Every lap kind that occurs was sampled, the laps tile a
                // run, and a run priced at its laps' best times costs no
                // more than the slowest run took.
                let laps_per_run: u64 = o.laps.iter().map(|k| k.per_run).sum();
                assert!(laps_per_run as usize > iters / w.stride());
                let slowest = o.runs_s.iter().fold(0.0f64, |m, v| m.max(*v));
                assert!(laps::projected_s(&o.laps).expect("every kind sampled") <= slowest);
                // Every run starts over, so every run ends in the same state.
                let last = digest(o.start, &o.values);
                assert_eq!(o.finals, vec![last; scale.rounds]);
                assert_eq!(o.spans.is_empty(), !traced);
                if w == Workload::Churn200k {
                    let blocks = scale.count as u64;
                    assert_eq!(o.remaps, rounds * blocks, "only scripted remaps");
                    assert_eq!(o.digests.len(), scale.rounds * scale.count);
                    assert_eq!(
                        o.digests[..scale.count],
                        o.digests[scale.count..2 * scale.count]
                    );
                    assert_eq!(o.checkpoints, rounds * blocks / CHECKPOINT_EVERY as u64);
                    assert!(o.checkpoint_bytes > 8 * n as u64);
                } else {
                    assert_eq!(o.remaps, 0, "margin 1e12 must decide Keep");
                    assert_eq!(o.checks, rounds * (iters.div_ceil(BLOCK) - 1) as u64);
                }
            }
        }
    }

    #[test]
    fn distributed_pcg_matches_the_serial_reference() {
        let w = Workload::Cg30k;
        let (scale, mesh) = quick_mesh(w);
        let n = mesh.num_vertices();
        let outs = NativeCluster::new(w.ranks())
            .run(|env| run_rank(env, w, &scale, &mesh, true))
            .into_results();
        let reference = serial_pcg(&mesh, scale.count, CG_SHIFT, w.ranks());
        let got = assemble(n, &outs);
        let norm = reference.u.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let err = got
            .iter()
            .zip(&reference.u)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        assert!(
            err <= CG_VERIFY_TOL * norm,
            "PCG error {err} vs ‖u‖∞ {norm}"
        );
        assert!(
            reference.iterations > scale.count as u64,
            "solves must iterate"
        );
        for o in &outs {
            assert_eq!(o.cg_iterations, scale.rounds as u64 * reference.iterations);
            assert_eq!(o.finals, vec![digest(o.start, &o.values); scale.rounds]);
            assert!(!o.spans.is_empty());
        }
    }
}
