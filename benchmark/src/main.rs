//! `stance-benchmark`: time-to-solution on real cores for four workloads,
//! plus a per-layer ledger measured from outside the program.
//!
//! The binary plays four roles, chosen by its arguments and environment:
//!
//! * **TCP rank worker** — when `TcpCluster` spawns it with the rendezvous
//!   environment set, `maybe_rank_main` never returns;
//! * **child** (`--child-rep` / `--child-probe`) — one repetition (set-up,
//!   a warm-up run and several timed runs) or one probe phase in a fresh
//!   process, reported as one JSON line;
//! * **one workload** (`--workload W --seed N --seconds S --trace 0|1`) —
//!   the acceptance driver's contract: repetitions for about `S` seconds,
//!   the end-to-end metrics (or, with `--trace 1`, every per-layer metric)
//!   as the last line of stdout;
//! * **the suite** (no `--workload`) — every workload, a printed report,
//!   `--selfcheck` to run it twice and compare, `--quick` as a smoke path.
//!
//! See `README.md` for the metric dictionary and how to read the output.

mod host;
mod json;
mod laps;
mod metrics;
mod probes;
mod rep;
mod stats;
mod trace;
mod workloads;

use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use metrics::{END_TO_END, PER_LAYER, RUN, SPEEDUP, WALL};
use rep::RepArgs;
use stats::Summary;
use workloads::{cycle_partition, Backend, Workload, BLOCK};

/// Default seed (ISSUE 11).
const DEFAULT_SEED: u64 = 11;
/// Default repetitions per workload in suite mode (each holds several timed
/// runs, see `Scale::rounds`).
const DEFAULT_REPS: usize = 5;
/// A time-budgeted run never does fewer repetitions than this.
const MIN_REPS: usize = 3;
/// …nor more than this.
const MAX_REPS: usize = 40;
/// Untraced/traced repetition pairs in a traced run.
const TRACE_PAIRS: usize = 3;
/// A child that has not finished after this long is killed and counted
/// as a failed repetition (a repetition takes 5–7 s on the reference
/// host; the acceptance driver allows a whole invocation 180 s).
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

#[derive(Debug, Clone, Default)]
struct Args {
    child_rep: bool,
    child_probe: bool,
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: bool,
    traced: bool,
    trace_out: Option<PathBuf>,
    quick: bool,
    selfcheck: bool,
    host_probe: bool,
}

const USAGE: &str = "usage: run.sh [--workload NAME] [--seed N] [--seconds S | --reps R] \
[--trace [0|1]] [--quick] [--selfcheck]
  no --workload   run every workload (sweep-1m, halo-30k, churn-200k, cg-30k)
  --seconds S     repeat for about S seconds (at least 3 repetitions)
  --reps R        repeat exactly R times (suite default: 5)
  --trace [1]     add the traced run: per-layer metrics, ledger, Chrome trace
  --quick         small meshes, one repetition: a smoke path (about 15 s)
  --selfcheck     run the suite twice on this build and compare
  --host-probe    print the host fingerprint, spin ratio and triad bandwidth";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--child-rep" => a.child_rep = true,
            "--child-probe" => a.child_probe = true,
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--selfcheck" => a.selfcheck = true,
            "--host-probe" => a.host_probe = true,
            "--workload" => {
                let name = value(&mut it, "--workload")?;
                a.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value(&mut it, "--seed")?;
                a.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value(&mut it, "--seconds")?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                a.seconds = Some(s);
            }
            "--reps" => {
                let v = value(&mut it, "--reps")?;
                let r: usize = v.parse().map_err(|_| format!("bad --reps {v:?}"))?;
                if r == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                a.reps = Some(r);
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver's
                // spelling `--trace 0|1` is accepted too.
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value(&mut it, "--trace-out")?)),
            "-h" | "--help" => return Err(String::new()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.seconds.is_some() && a.reps.is_some() {
        return Err("--seconds and --reps are alternatives".to_string());
    }
    Ok(a)
}

/// Where results and traces are written (`benchmark/out/`; `run.sh`
/// passes it, a bare `cargo run` falls back to the manifest directory).
fn out_dir() -> PathBuf {
    let dir = std::env::var_os("STANCE_BENCH_OUT").map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    );
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("stance-benchmark: cannot create {}: {e}", dir.display());
    }
    dir
}

/// Refuses to run a shape the host cannot run in parallel: with fewer
/// cores than ranks × lanes, wall clock measures oversubscription
/// (ROADMAP item 3(c)).
fn refuse_oversubscription(workloads: &[Workload]) {
    let cores = host::nproc();
    for w in workloads {
        if w.ranks() * w.lanes() > cores {
            eprintln!(
                "stance-benchmark: refusing {}: it needs {} ranks x {} lanes but this host offers {cores} core(s); \
                 wall clock on an oversubscribed host is not a measurement",
                w.name(),
                w.ranks(),
                w.lanes()
            );
            std::process::exit(3);
        }
    }
}

// ---------------------------------------------------------------------
// Children.
// ---------------------------------------------------------------------

/// Spawns this binary as a child, waits (bounded), and parses the last
/// line of its stdout as the report.
fn spawn_child(child_args: &[String]) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(child_args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("child timed out after {CHILD_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(10)),
            Err(e) => return Err(format!("waiting for child: {e}")),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    let last = text.lines().rev().find(|l| !l.trim().is_empty());
    let report = match last {
        Some(line) => {
            Json::parse(line).map_err(|e| format!("child report unparsable ({e}): {line}"))?
        }
        None => return Err(format!("child printed nothing and exited with {status}")),
    };
    match (report.bool("ok"), report.str("error")) {
        (Some(true), _) if status.success() => Ok(report),
        (_, Some(err)) => Err(err.to_string()),
        _ => Err(format!("child exited with {status}")),
    }
}

fn child_args(mode: &str, rep: &RepArgs, trace_out: Option<&Path>) -> Vec<String> {
    let mut v = vec![
        mode.to_string(),
        "--workload".to_string(),
        rep.workload.name().to_string(),
        "--seed".to_string(),
        rep.seed.to_string(),
    ];
    if rep.quick {
        v.push("--quick".to_string());
    }
    if rep.traced {
        v.push("--traced".to_string());
    }
    if let Some(p) = trace_out {
        v.push("--trace-out".to_string());
        v.push(p.display().to_string());
    }
    v
}

// ---------------------------------------------------------------------
// One workload.
// ---------------------------------------------------------------------

/// How many repetitions a run does.
#[derive(Debug, Clone, Copy)]
enum Plan {
    /// Exactly this many.
    Count(usize),
    /// As many as fit in this many seconds (between [`MIN_REPS`] and
    /// [`MAX_REPS`]).
    Seconds(f64),
}

/// Everything measured for one workload.
struct WorkloadRun {
    workload: Workload,
    seed: u64,
    /// Reports of the successful untraced repetitions.
    reps: Vec<Json>,
    /// Reports of the successful traced repetitions.
    traced: Vec<Json>,
    attempted: usize,
    /// One message per failed repetition (or failed probe phase).
    failures: Vec<String>,
    /// Repetitions that ran although the guard's spin probe still said
    /// "disturbed" after every retry.
    disturbed: usize,
    spin_ratios: Vec<f64>,
    /// Per-layer metrics, in dictionary order (traced runs only).
    layers: Vec<(&'static str, f64)>,
    /// Free-form facts for the detail file.
    info: Json,
}

impl WorkloadRun {
    fn new(workload: Workload, seed: u64) -> WorkloadRun {
        WorkloadRun {
            workload,
            seed,
            reps: Vec::new(),
            traced: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            disturbed: 0,
            spin_ratios: Vec::new(),
            layers: Vec::new(),
            info: Json::obj(),
        }
    }

    /// Every sample of `key` in `reps`: one per repetition, or — for
    /// `run_s`, which a repetition reports as a list — one per timed run.
    fn values(reps: &[Json], key: &str) -> Vec<f64> {
        reps.iter()
            .flat_map(|r| match r.get(key) {
                Some(Json::Num(v)) => vec![*v],
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(|v| match v {
                        Json::Num(v) => Some(*v),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            })
            .collect()
    }

    fn summary(&self, key: &str) -> Option<Summary> {
        let v = Self::values(&self.reps, key);
        (!v.is_empty()).then(|| Summary::of(&v))
    }

    /// What the run reports for an end-to-end metric (or the speed-up):
    /// `wall_s` is [`best_wall_s`] over all its timed runs, everything else
    /// the median over its repetitions.
    fn value(&self, name: &str) -> Option<f64> {
        if name == WALL {
            best_wall_s(&self.reps)
        } else {
            self.summary(name).map(|s| s.median)
        }
    }

    /// One repetition in a fresh child (which runs the host-availability
    /// guard itself, right before its ranks launch).
    fn one_rep(&mut self, rep: &RepArgs, trace_out: Option<&Path>) {
        self.attempted += 1;
        match spawn_child(&child_args("--child-rep", rep, trace_out)) {
            Ok(report) => {
                self.spin_ratios.extend(report.num("spin2_ratio"));
                // Never dropped silently: a repetition the guard could not
                // get two cores for still counts, and is counted.
                self.disturbed += usize::from(report.bool("disturbed") == Some(true));
                if rep.traced {
                    self.traced.push(report);
                } else {
                    self.reps.push(report);
                }
            }
            Err(e) => {
                eprintln!(
                    "  rep {} of {} FAILED: {e}",
                    self.attempted,
                    self.workload.name()
                );
                self.failures.push(e);
            }
        }
    }
}

/// `wall_s` of a set of repetitions: their laps pooled by kind, and one run
/// priced at each kind's best times (`laps.rs` says why) — the run's seconds
/// with as little of the host's interference in them as the whole
/// invocation saw. `None` without repetitions, or if they disagree about
/// the laps (they never do: the work is a function of the workload alone).
fn best_wall_s(reps: &[Json]) -> Option<f64> {
    let each = reps
        .iter()
        .map(|r| laps::from_json(r.get("laps")?))
        .collect::<Option<Vec<_>>>()?;
    laps::projected_s(&laps::pooled(&each)?)
}

/// How many untraced repetitions the arguments ask for.
fn plan_of(args: &Args) -> Plan {
    match (args.seconds, args.reps) {
        (Some(s), _) => Plan::Seconds(s),
        (None, Some(r)) => Plan::Count(r),
        (None, None) if args.quick => Plan::Count(1),
        (None, None) => Plan::Count(DEFAULT_REPS),
    }
}

/// Runs one workload: the planned untraced repetitions, then (with
/// `--trace`) the traced phase. The driver's `--workload W --trace 1` asks
/// for the traced phase alone, which brings its own untraced repetitions.
fn run_workload(w: Workload, args: &Args, out: &Path) -> WorkloadRun {
    let mut run = WorkloadRun::new(w, args.seed.unwrap_or(DEFAULT_SEED));
    let rep = RepArgs {
        workload: w,
        seed: run.seed,
        quick: args.quick,
        traced: false,
    };
    if !(args.trace && args.workload.is_some()) {
        let plan = plan_of(args);
        let began = Instant::now();
        loop {
            let done = run.attempted;
            let stop = match plan {
                Plan::Count(n) => done >= n,
                Plan::Seconds(s) => {
                    let mean = began.elapsed().as_secs_f64() / done.max(1) as f64;
                    done >= MAX_REPS
                        || (done >= MIN_REPS && began.elapsed().as_secs_f64() + mean > s)
                }
            };
            if stop {
                break;
            }
            run.one_rep(&rep, None);
        }
    }
    if !args.trace {
        return run;
    }

    // Traced phase: untraced and traced repetitions alternate, so host
    // drift hits both sides of `trace_overhead_frac` alike; then the
    // probe phase in a fresh process of its own.
    let trace_path = out.join(format!("trace-{}.json", w.name()));
    let pairs = if args.quick { 1 } else { TRACE_PAIRS };
    for _ in 0..pairs {
        run.one_rep(&rep, None);
        run.one_rep(
            &RepArgs {
                traced: true,
                ..rep
            },
            Some(&trace_path),
        );
    }
    run.info
        .push("chrome_trace", trace_path.display().to_string());
    run.attempted += 1;
    match spawn_child(&child_args("--child-probe", &rep, None)) {
        Ok(_) if run.traced.is_empty() || run.reps.is_empty() => run
            .failures
            .push("no successful repetition to build the ledger from".to_string()),
        Ok(probes) => assemble_layers(&mut run, &probes),
        Err(e) => {
            eprintln!("  probe phase of {} FAILED: {e}", w.name());
            run.failures.push(e);
        }
    }
    run
}

/// Mean over the scripted blocks of (largest block that step) / (uniform
/// block): how much longer `churn-200k`'s critical-path sweep is than a
/// sweep of the uniform block the probe times. 1 for every other workload.
fn critical_block_factor(w: Workload, vertices: usize, blocks: usize) -> f64 {
    if w != Workload::Churn200k {
        return 1.0;
    }
    let uniform = vertices.div_ceil(2) as f64;
    let total: f64 = (0..blocks)
        .map(|b| {
            *cycle_partition(vertices, b)
                .sizes()
                .iter()
                .max()
                .expect("two blocks") as f64
        })
        .sum();
    total / blocks as f64 / uniform
}

/// `wall_s` of traced repetitions over `wall_s` of untraced ones, minus 1.
/// The traced phase runs them in alternating pairs; each pair gives a ratio
/// taken within a dozen seconds of host time, and the median of the ratios
/// is not moved by one pair that met a bad spell.
fn trace_overhead(run: &WorkloadRun) -> f64 {
    let paired = &run.reps[run.reps.len().saturating_sub(run.traced.len())..];
    let ratios: Vec<f64> = paired
        .iter()
        .zip(&run.traced)
        .filter_map(|(plain, traced)| {
            let one = |r: &Json| best_wall_s(std::slice::from_ref(r));
            Some(one(traced)? / one(plain)? - 1.0)
        })
        .collect();
    if ratios.is_empty() {
        f64::NAN
    } else {
        stats::median(&ratios)
    }
}

/// Builds the per-layer metric list of a traced run from the repetition
/// reports, the span summaries and the probe phase.
fn assemble_layers(run: &mut WorkloadRun, probes: &Json) {
    let w = run.workload;
    let med = |reps: &[Json], key: &str| stats::median(&WorkloadRun::values(reps, key));
    let all: Vec<Json> = run.reps.iter().chain(&run.traced).cloned().collect();
    let span = |r: &Json, key: &str| r.get("spans").and_then(|s| s.num(key)).unwrap_or(0.0);
    let span_med = |key: &str| {
        let v: Vec<f64> = run.traced.iter().map(|r| span(r, key)).collect();
        stats::median(&v)
    };
    let probe = |name: &str| probes.num(name).unwrap_or(f64::NAN);

    // The ledger, per traced repetition, then the median of each share.
    // Rank 0's spans tile its run; `run_block`/pass time is split by the
    // probes: iterations × (critical-path sweep) and × (one gather on the
    // workload's backend); what the split does not explain, plus the
    // driver's own time between spans, is the residual.
    let gather_us = match (w.ranks(), w.backend()) {
        (1, _) => 0.0,
        (_, Backend::Native) => probe("executor.gather_us.native"),
        (_, Backend::Tcp) => probe("executor.gather_us.tcp"),
    };
    let lane_speedup = if w.lanes() > 1 {
        probe("executor.team2_speedup")
    } else {
        1.0
    };
    let mut shares: Vec<[f64; 8]> = Vec::new();
    for r in &run.traced {
        let s = |kind: &str| span(r, &format!("self_s.{kind}"));
        let exec = s("run_block") + s("dataflow_pass");
        let wall: f64 = [
            "run",
            "run_block",
            "check_and_rebalance",
            "remap_to",
            "checkpoint",
            "dataflow_pass",
            "allreduce",
            "host_update",
        ]
        .iter()
        .map(|k| s(k))
        .sum();
        let iters = r.num("iterations").unwrap_or(0.0);
        let vertices = r.num("vertices").unwrap_or(0.0) as usize;
        let factor = critical_block_factor(w, vertices, iters as usize / BLOCK);
        let sweep = iters * probe("executor.sweep_us") * 1e-6 * factor / lane_speedup;
        let exchange = iters * gather_us * 1e-6;
        shares.push([
            sweep / wall,
            exchange / wall,
            s("check_and_rebalance") / wall,
            s("remap_to") / wall,
            s("checkpoint") / wall,
            s("allreduce") / wall,
            s("host_update") / wall,
            ((exec - sweep - exchange).abs() + s("run")) / wall,
        ]);
    }
    let share = |i: usize| stats::median(&shares.iter().map(|s| s[i]).collect::<Vec<_>>());

    let check_us = match span_med("check_ms.median") {
        // A workload with no checks in its own run reports the probe's.
        0.0 => probe("core.check_us"),
        v => v * 1e3,
    };
    let own: Vec<(&str, f64)> = vec![
        (SPEEDUP, med(&run.reps, SPEEDUP)),
        ("locality.meshgen_ms", med(&all, "meshgen_ms")),
        ("locality.order_rcb_ms", med(&all, "order_rcb_ms")),
        ("core.block_ms.p50", span_med("block_ms.p50")),
        ("core.block_ms.p99", span_med("block_ms.p99")),
        ("core.check_us", check_us),
        ("host.spin2_ratio", stats::median(&run.spin_ratios)),
        ("host.disturbed_reps", run.disturbed as f64),
        ("ledger.sweep_frac", share(0)),
        ("ledger.exchange_frac", share(1)),
        ("ledger.check_frac", share(2)),
        ("ledger.remap_frac", share(3)),
        ("ledger.checkpoint_frac", share(4)),
        ("ledger.collective_frac", share(5)),
        ("ledger.host_frac", share(6)),
        ("ledger.residual_frac", share(7)),
        ("trace_overhead_frac", trace_overhead(run)),
    ];
    for m in &PER_LAYER {
        let v = own
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .or_else(|| probes.num(m.name));
        match v {
            Some(v) if v.is_finite() => run.layers.push((m.name, v)),
            _ => run
                .failures
                .push(format!("per-layer metric {} was not measured", m.name)),
        }
    }
    let block_samples = span_med("block_samples");
    for key in ["working_set_bytes", "llc_bytes"] {
        run.info.push(key, probes.num(key).unwrap_or(0.0));
    }
    run.info.push("block_samples", block_samples);
}

// ---------------------------------------------------------------------
// Reporting.
// ---------------------------------------------------------------------

fn print_workload(run: &WorkloadRun) {
    let w = run.workload;
    let any = run.reps.first().or(run.traced.first());
    println!(
        "== {}  ({}, {} rank(s) x {} lane(s), {} vertices, seed {})",
        w.name(),
        w.backend().name(),
        w.ranks(),
        w.lanes(),
        any.and_then(|r| r.num("vertices"))
            .map_or("?".to_string(), |v| format!("{v}")),
        run.seed,
    );
    println!(
        "   failed_reps/attempted_reps {}/{}   disturbed {}",
        run.failures.len(),
        run.attempted,
        run.disturbed
    );
    let line = |name: &str, unit: &str, note: String| {
        match run.summary(name) {
        Some(s) => println!(
            "   {name:<18} median {:<12.6} {unit:<4} q1 {:<11.6} q3 {:<11.6} min {:<11.6} max {:<11.6} n={:<3} spread {:.1}%  ({note})",
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n,
            s.spread() * 100.0,
        ),
        None => println!("   {name:<18} no successful repetition"),
    }
    };
    for m in &END_TO_END {
        let note = format!(
            "{} is better, bound {:.0}%",
            m.better.name(),
            m.bound * 100.0
        );
        if m.name == WALL {
            // Not a median: the sum of the laps' best times (`best_wall_s`).
            // The whole-run seconds it filters are on the next line.
            match run.value(WALL) {
                Some(v) => println!(
                    "   {WALL:<18} best   {v:<12.6} {:<4} one run at the best lap times of {} timed runs  ({note})",
                    m.unit,
                    WorkloadRun::values(&run.reps, RUN).len(),
                ),
                None => println!("   {WALL:<18} no successful repetition"),
            }
            line(
                RUN,
                "s",
                "whole timed runs, host interference included; not gated".to_string(),
            );
        } else {
            line(m.name, m.unit, note);
        }
    }
    line(SPEEDUP, "x", "higher is better, not gated".to_string());
    if let Some(r) = any {
        let n = |k: &str| r.num(k).unwrap_or(0.0);
        println!(
            "   verified: {} timed runs per repetition, in all {} iterations, {} checks, {} remaps, {} checkpoints, PCG {} iterations (reference {}), PCG rel. error {:e}",
            n("rounds"),
            n("iterations"),
            n("checks"),
            n("remaps"),
            n("checkpoints"),
            n("cg_iterations"),
            n("cg_iterations_reference"),
            n("cg_rel_err"),
        );
    }
    // The speed-up is already on the line above, from this run's own
    // untraced repetitions.
    for (name, v) in run.layers.iter().filter(|(name, _)| *name != SPEEDUP) {
        let m = PER_LAYER.iter().find(|m| m.name == *name).expect("listed");
        let note = if m.exact { ", exact" } else { "" };
        println!(
            "   {name:<36} {v:>16.6} {:<6} ({} is better{note})",
            m.unit,
            m.better.name()
        );
    }
}

/// `(name, unit)` of the metrics every run reports from its untraced
/// repetitions: the gated three and the ungated speed-up.
fn reported() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain([(SPEEDUP, "x")])
}

fn layers_json(run: &WorkloadRun) -> Json {
    run.layers
        .iter()
        .fold(Json::obj(), |o, (k, v)| o.set(k, *v))
}

fn strings_json(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::from(s.as_str())).collect())
}

fn detail(run: &WorkloadRun) -> Json {
    let mut e2e = Json::obj();
    if let Some(v) = run.value(WALL) {
        e2e = e2e.set(WALL, Json::obj().set("unit", "s").set("value", v));
    }
    for (name, unit) in reported().chain([(RUN, "s")]) {
        if name == WALL {
            continue;
        }
        if let Some(s) = run.summary(name) {
            e2e = e2e.set(
                name,
                Json::obj()
                    .set("unit", unit)
                    .set("median", s.median)
                    .set("q1", s.q1)
                    .set("q3", s.q3)
                    .set("min", s.min)
                    .set("max", s.max)
                    .set("n", s.n),
            );
        }
    }
    Json::obj()
        .set("workload", run.workload.name())
        .set("why", run.workload.why())
        .set("host", host::fingerprint(run.seed, run.reps.len()))
        .set("attempted_reps", run.attempted)
        .set("failed_reps", run.failures.len())
        .set("failures", strings_json(&run.failures))
        .set("disturbed_reps", run.disturbed)
        .set(
            "spin2_ratios",
            run.spin_ratios
                .iter()
                .map(|v| Json::Num(*v))
                .collect::<Vec<_>>(),
        )
        .set("end_to_end", e2e)
        .set("per_layer", layers_json(run))
        .set("info", run.info.clone())
        .set("reps", run.reps.clone())
        .set("traced_reps", run.traced.clone())
}

fn write_json(path: &Path, doc: &Json) {
    if let Err(e) = std::fs::write(path, doc.render_pretty()) {
        eprintln!("stance-benchmark: cannot write {}: {e}", path.display());
    }
}

/// The acceptance driver's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn contract_line(run: &WorkloadRun, trace: bool) -> Json {
    let mut metrics = Json::obj();
    if trace {
        for (name, v) in &run.layers {
            let unit = PER_LAYER
                .iter()
                .find(|m| m.name == *name)
                .expect("listed")
                .unit;
            metrics = metrics.set(name, Json::obj().set("value", *v).set("unit", unit));
        }
    } else {
        for m in &END_TO_END {
            if let Some(v) = run.value(m.name) {
                metrics = metrics.set(m.name, Json::obj().set("value", v).set("unit", m.unit));
            }
        }
    }
    Json::obj()
        .set("correct", run.failures.is_empty())
        .set("attempted", run.attempted)
        .set("failed", run.failures.len())
        .set("metrics", metrics)
}

// ---------------------------------------------------------------------
// The suite and --selfcheck.
// ---------------------------------------------------------------------

fn run_suite(args: &Args, out: &Path) -> Vec<WorkloadRun> {
    Workload::ALL
        .into_iter()
        .map(|w| {
            let run = run_workload(w, args, out);
            print_workload(&run);
            write_json(&out.join(format!("{}.json", w.name())), &detail(&run));
            run
        })
        .collect()
}

/// The suite's summary document. `offenders` is `--selfcheck`'s verdict.
/// `"claim": null` stays the last key: this benchmark defines the numbers,
/// it claims no gain.
fn suite_summary(suite: &[WorkloadRun], args: &Args, offenders: Option<&[String]>) -> Json {
    let workloads: Vec<Json> = suite
        .iter()
        .map(|run| {
            let e2e = reported()
                .filter_map(|(name, unit)| Some((name, unit, run.value(name)?)))
                .fold(Json::obj(), |o, (name, unit, v)| {
                    o.set(name, Json::obj().set("value", v).set("unit", unit))
                });
            Json::obj()
                .set("name", run.workload.name())
                .set("failed_reps", run.failures.len())
                .set("attempted_reps", run.attempted)
                .set("end_to_end", e2e)
                .set("per_layer", layers_json(run))
        })
        .collect();
    let reps = suite.first().map_or(0, |r| r.reps.len());
    let mut doc = Json::obj()
        .set("benchmark", "stance time-to-solution")
        .set("quick", args.quick)
        .set(
            "host",
            host::fingerprint(args.seed.unwrap_or(DEFAULT_SEED), reps),
        )
        .set("workloads", workloads);
    if let Some(offenders) = offenders {
        doc.push("selfcheck_offenders", strings_json(offenders));
    }
    doc.set("claim", Json::Null)
}

/// Compares two suites run on the same build: end-to-end medians within
/// each metric's bound, exact-count metrics identical. Returns the
/// offenders.
fn selfcheck_offenders(a: &[WorkloadRun], b: &[WorkloadRun]) -> Vec<String> {
    let mut bad = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        let name = ra.workload.name();
        for m in &END_TO_END {
            match (ra.value(m.name), rb.value(m.name)) {
                (Some(va), Some(vb)) => {
                    // Whichever run is taken as the baseline, the other
                    // must not be worse by more than the bound.
                    let worse = (va - vb).abs() / va.min(vb);
                    if worse > m.bound {
                        bad.push(format!(
                            "{name} {}: {va} vs {vb} differ by {:.1}% (bound {:.0}%)",
                            m.name,
                            worse * 100.0,
                            m.bound * 100.0
                        ));
                    }
                }
                _ => bad.push(format!("{name} {}: missing in one of the runs", m.name)),
            }
        }
        for m in PER_LAYER.iter().filter(|m| m.exact) {
            let get =
                |r: &WorkloadRun| r.layers.iter().find(|(k, _)| *k == m.name).map(|(_, v)| *v);
            match (get(ra), get(rb)) {
                (Some(va), Some(vb)) if va.to_bits() == vb.to_bits() => {}
                (va, vb) => bad.push(format!("{name} {}: exact metric {va:?} vs {vb:?}", m.name)),
            }
        }
        for r in [ra, rb] {
            if !r.failures.is_empty() {
                bad.push(format!("{name}: {} failed repetition(s)", r.failures.len()));
            }
        }
    }
    bad
}

fn main() {
    let started = Instant::now();
    stance_tcp::maybe_rank_main(rep::SCENARIOS);

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("stance-benchmark: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    let seed = args.seed.unwrap_or(DEFAULT_SEED);

    if args.child_rep || args.child_probe {
        let Some(workload) = args.workload else {
            eprintln!("stance-benchmark: a child needs --workload");
            std::process::exit(2);
        };
        let rep = RepArgs {
            workload,
            seed,
            quick: args.quick,
            traced: args.traced,
        };
        let report = std::panic::catch_unwind(|| {
            if args.child_probe {
                probes::run(&rep)
            } else {
                rep::run(&rep, started, args.trace_out.as_deref())
            }
        })
        .unwrap_or_else(|_| {
            Json::obj()
                .set("ok", false)
                .set("error", "child panicked (see stderr)")
        });
        println!("{}", report.render());
        std::process::exit(i32::from(report.bool("ok") != Some(true)));
    }

    if args.host_probe {
        // The two program-independent probes, for a quick look at the host.
        let doc = host::fingerprint(seed, 0)
            .set("spin2_ratio", host::spin_probe())
            .set("triad_gbs.t1", host::triad_gbs(1, 64 << 20))
            .set("triad_gbs.t2", host::triad_gbs(2, 64 << 20));
        print!("{}", doc.render_pretty());
        return;
    }

    let out = out_dir();
    if let Some(w) = args.workload {
        refuse_oversubscription(&[w]);
        let run = run_workload(w, &args, &out);
        print_workload(&run);
        let suffix = if args.trace { "-trace" } else { "" };
        write_json(
            &out.join(format!("{}{suffix}.json", w.name())),
            &detail(&run),
        );
        let usable = if args.trace {
            !run.layers.is_empty()
        } else {
            !run.reps.is_empty()
        };
        println!("{}", contract_line(&run, args.trace).render());
        std::process::exit(i32::from(!usable || !run.failures.is_empty()));
    }

    refuse_oversubscription(&Workload::ALL);
    let mut args = args;
    // Exact-count metrics only exist in traced runs.
    args.trace |= args.selfcheck;
    let failures = |suite: &[WorkloadRun]| suite.iter().map(|r| r.failures.len()).sum::<usize>();
    let first = run_suite(&args, &out);
    let mut failed = failures(&first);
    let mut offenders = None;
    if args.selfcheck {
        println!("-- selfcheck: second run of the suite on the same build");
        let second = run_suite(&args, &out);
        failed += failures(&second);
        let bad = selfcheck_offenders(&first, &second);
        for o in &bad {
            println!("SELFCHECK OFFENDER: {o}");
        }
        println!(
            "selfcheck: {}",
            if bad.is_empty() { "PASS" } else { "FAIL" }
        );
        failed += bad.len();
        offenders = Some(bad);
    }
    let summary = suite_summary(&first, &args, offenders.as_deref());
    write_json(&out.join("summary.json"), &summary);
    print!("{}", summary.render_pretty());
    std::process::exit(i32::from(failed > 0));
}
