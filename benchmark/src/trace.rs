//! Spans recorded *around* the calls into the runtime, from the
//! benchmark's own files (tracing inside the program is ROADMAP item 2).
//!
//! A [`Tracer`] is one rank's preallocated span vector. The traced drivers
//! open a span before each public session call (`run_block`,
//! `check_and_rebalance`, `remap_to`, `checkpoint`, an `allreduce`, a host
//! update) and close it after; nothing is written anywhere until the run is
//! over. A disabled tracer is one predictable branch per call, so the same
//! driver code serves the untraced (gated) and traced (ledger) runs.
//!
//! Afterwards the spans become a Chrome-trace JSON file (open it in
//! `chrome://tracing` or <https://ui.perfetto.dev>) and per-kind **self
//! times** — a span's duration minus what its child spans cover — which the
//! ledger is built from.

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// What a span brackets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// The whole timed run (barrier to barrier) — the root of every other
    /// timed span; its self time is the driver's own overhead.
    Run = 0,
    /// Collective session setup (before the timed run).
    Setup = 1,
    /// One `run_block` of relaxation iterations.
    Block = 2,
    /// One `check_and_rebalance`.
    Check = 3,
    /// One scripted `remap_to`.
    Remap = 4,
    /// One `checkpoint`.
    Checkpoint = 5,
    /// One dataflow pass (`run_block(1)` of the CG stage graph).
    Pass = 6,
    /// One `allreduce_f64`.
    Collective = 7,
    /// Host-side vector updates and `set_local` writes of the CG driver.
    Host = 8,
}

impl SpanKind {
    /// Every kind, in discriminant order.
    pub const ALL: [SpanKind; 9] = [
        SpanKind::Run,
        SpanKind::Setup,
        SpanKind::Block,
        SpanKind::Check,
        SpanKind::Remap,
        SpanKind::Checkpoint,
        SpanKind::Pass,
        SpanKind::Collective,
        SpanKind::Host,
    ];

    /// The span's name in the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Run => "run",
            SpanKind::Setup => "setup",
            SpanKind::Block => "run_block",
            SpanKind::Check => "check_and_rebalance",
            SpanKind::Remap => "remap_to",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Pass => "dataflow_pass",
            SpanKind::Collective => "allreduce",
            SpanKind::Host => "host_update",
        }
    }

    fn from_u64(v: u64) -> SpanKind {
        *SpanKind::ALL
            .get(v as usize)
            .unwrap_or_else(|| panic!("span kind {v} out of range"))
    }
}

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What was bracketed.
    pub kind: SpanKind,
    /// The rank that recorded it.
    pub rank: u32,
    /// The driver's counter when it opened (block number, CG iteration).
    pub epoch: u32,
    /// Start, nanoseconds since the Unix epoch (so spans from separate
    /// rank processes share a timeline).
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index (in the same rank's vector) of the span this one is nested
    /// in, or `-1` at top level.
    pub parent: i32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One rank's span recorder.
pub struct Tracer {
    enabled: bool,
    rank: u32,
    /// Wall-clock anchor: `Instant` differences are added to it, so a
    /// span's times are monotone within a rank and comparable across
    /// processes to within the hosts' clock agreement (one host here).
    base_unix_ns: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder for `rank` with room for `capacity` spans. When
    /// `enabled` is false every call is a no-op and nothing is allocated.
    pub fn new(rank: usize, enabled: bool, capacity: usize) -> Tracer {
        let base_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
        Tracer {
            enabled,
            rank: rank as u32,
            base_unix_ns,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            open: Vec::with_capacity(if enabled { 8 } else { 0 }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base_unix_ns + self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in whatever span is currently open.
    #[inline]
    pub fn begin(&mut self, kind: SpanKind, epoch: usize) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(-1, |&i| i as i32);
        self.open.push(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            kind,
            rank: self.rank,
            epoch: epoch as u32,
            start_ns,
            end_ns: start_ns,
            parent,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = now;
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn scoped<R>(&mut self, kind: SpanKind, epoch: usize, f: impl FnOnce() -> R) -> R {
        self.begin(kind, epoch);
        let r = f();
        self.end();
        r
    }

    /// The recorded spans (all closed once the driver has returned).
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Flattens spans for the TCP result codec (five words per span).
pub fn encode_spans(spans: &[Span]) -> Vec<u64> {
    let mut out = Vec::with_capacity(spans.len() * 5);
    for s in spans {
        out.extend_from_slice(&[
            s.kind as u64,
            u64::from(s.epoch),
            s.start_ns,
            s.end_ns,
            (s.parent + 1) as u64,
        ]);
    }
    out
}

/// Inverse of [`encode_spans`] for spans recorded by `rank`.
pub fn decode_spans(rank: usize, words: &[u64]) -> Vec<Span> {
    assert_eq!(words.len() % 5, 0, "span stream is not a multiple of 5");
    words
        .chunks_exact(5)
        .map(|w| Span {
            kind: SpanKind::from_u64(w[0]),
            rank: rank as u32,
            epoch: w[1] as u32,
            start_ns: w[2],
            end_ns: w[3],
            parent: w[4] as i32 - 1,
        })
        .collect()
}

/// Self time per span kind for one rank's spans, in nanoseconds: each
/// span's duration minus the durations of the spans nested directly in it.
pub fn self_times_ns(spans: &[Span]) -> Vec<(SpanKind, u64)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent >= 0 {
            covered[s.parent as usize] += s.dur_ns();
        }
    }
    SpanKind::ALL
        .iter()
        .map(|&kind| {
            let total = spans
                .iter()
                .zip(&covered)
                .filter(|(s, _)| s.kind == kind)
                .map(|(s, c)| s.dur_ns().saturating_sub(*c))
                .sum();
            (kind, total)
        })
        .collect()
}

/// Durations (ns) of every span of `kind`.
pub fn durations_ns(spans: &[Span], kind: SpanKind) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(Span::dur_ns)
        .collect()
}

/// Renders all ranks' spans as a Chrome-trace document: complete (`"X"`)
/// events, one thread lane per rank, timestamps in microseconds from the
/// earliest span.
pub fn chrome_trace(workload: &str, ranks: &[Vec<Span>]) -> Json {
    let t0 = ranks
        .iter()
        .flatten()
        .map(|s| s.start_ns)
        .min()
        .unwrap_or(0);
    let mut events = Vec::new();
    for (rank, spans) in ranks.iter().enumerate() {
        events.push(
            Json::obj()
                .set("name", "thread_name")
                .set("ph", "M")
                .set("pid", 1usize)
                .set("tid", rank)
                .set("args", Json::obj().set("name", format!("rank {rank}"))),
        );
        for s in spans {
            events.push(
                Json::obj()
                    .set("name", s.kind.name())
                    .set("cat", workload)
                    .set("ph", "X")
                    .set("pid", 1usize)
                    .set("tid", rank)
                    .set("ts", (s.start_ns - t0) as f64 / 1000.0)
                    .set("dur", s.dur_ns() as f64 / 1000.0)
                    .set(
                        "args",
                        Json::obj()
                            .set("epoch", u64::from(s.epoch))
                            .set("parent", f64::from(s.parent)),
                    ),
            );
        }
    }
    Json::obj()
        .set("displayTimeUnit", "ms")
        .set("traceEvents", events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, start: u64, end: u64, parent: i32) -> Span {
        Span {
            kind,
            rank: 0,
            epoch: 0,
            start_ns: start,
            end_ns: end,
            parent,
        }
    }

    #[test]
    fn disabled_tracer_records_and_allocates_nothing() {
        let mut t = Tracer::new(0, false, 1000);
        t.begin(SpanKind::Run, 0);
        let v = t.scoped(SpanKind::Block, 1, || 7);
        t.end();
        assert_eq!(v, 7);
        let spans = t.into_spans();
        assert!(spans.is_empty());
        assert_eq!(spans.capacity(), 0);
    }

    #[test]
    fn nesting_is_recorded_through_parent_indices() {
        let mut t = Tracer::new(3, true, 16);
        t.begin(SpanKind::Run, 0);
        t.scoped(SpanKind::Block, 0, || ());
        t.scoped(SpanKind::Check, 0, || ());
        t.end();
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, -1);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert!(spans.iter().all(|s| s.rank == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(SpanKind::Run, 0, 100, -1),
            span(SpanKind::Block, 10, 50, 0),
            span(SpanKind::Collective, 20, 30, 1),
            span(SpanKind::Check, 60, 90, 0),
        ];
        let selfs = self_times_ns(&spans);
        let of = |k| selfs.iter().find(|(kind, _)| *kind == k).unwrap().1;
        assert_eq!(of(SpanKind::Run), 100 - 40 - 30);
        assert_eq!(of(SpanKind::Block), 40 - 10);
        assert_eq!(of(SpanKind::Collective), 10);
        assert_eq!(of(SpanKind::Check), 30);
        assert_eq!(of(SpanKind::Remap), 0);
        // Self times tile the root: they sum to its duration.
        assert_eq!(selfs.iter().map(|(_, t)| t).sum::<u64>(), 100);
    }

    #[test]
    fn span_codec_round_trips() {
        let spans = vec![
            span(SpanKind::Run, 5, 500, -1),
            span(SpanKind::Pass, 6, 60, 0),
            span(SpanKind::Host, 70, 80, 0),
        ];
        assert_eq!(decode_spans(0, &encode_spans(&spans)), spans);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_lane_per_rank() {
        let ranks = vec![
            vec![span(SpanKind::Block, 2_000, 5_000, -1)],
            vec![span(SpanKind::Block, 1_000, 4_000, -1)],
        ];
        let doc = chrome_trace("halo-30k", &ranks);
        let parsed = Json::parse(&doc.render()).expect("chrome trace parses");
        let Some(Json::Arr(events)) = parsed.get("traceEvents") else {
            panic!("no traceEvents");
        };
        assert_eq!(events.len(), 4); // two lane names + two spans
        let x: Vec<&Json> = events.iter().filter(|e| e.str("ph") == Some("X")).collect();
        assert_eq!(x[0].num("ts"), Some(1.0)); // µs from the earliest span
        assert_eq!(x[1].num("ts"), Some(0.0));
        assert_eq!(x[0].num("dur"), Some(3.0));
        assert_eq!(x[0].str("name"), Some("run_block"));
    }
}
