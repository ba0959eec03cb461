//! The metric dictionary: every name the benchmark reports, with its unit
//! and direction. `BENCHMARK.json` at the repository root lists the same
//! names (a unit test holds the two together); `README.md` explains what
//! each one should move.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A gated end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The gated end-to-end metrics, reported per workload: `wall_s` is one run
/// priced at its best laps (`laps.rs`), the other two are medians over
/// repetitions.
///
/// ISSUE 11 sketched four, with bounds of 10 % (15 % for set-up). The
/// acceptance driver refuses a benchmark whose spread over ten runs on ten
/// seeds exceeds its own bound. As the median of whole-run seconds, `wall_s`
/// spread by 3–16 % in the better hours of the 2-vCPU shared host this was
/// written on and by 23–37 % in its worse ones: a busy sibling hardware
/// thread slows a memory-bound sweep by up to 2×, in bursts whose share of
/// the time drifts over minutes. Priced at its best laps it spreads by
/// 1–7 % and 13–21 %; it keeps the widest bound the contract allows,
/// because a refusal costs the whole PR and the neighbours are nobody's to
/// control. `setup_s` is single-threaded
/// and memory-bound and moves with the host by up to 20 %; peak RSS repeats
/// to under 1 % and keeps 10 %.
///
/// The fourth, [`SPEEDUP`], is reported with every run but **not gated**:
/// its two legs react differently to the host's spells (in one episode the
/// single-threaded reference slowed by 25 % while the two-lane run did not),
/// so its spread reached 19 %. It lives in the per-layer list instead.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// An ungated per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, `<layer>.<what>[.<variant>]`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Whether the value is a count that must repeat exactly for a given
    /// seed (`--selfcheck` compares these for equality).
    pub exact: bool,
}

const fn timing(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn rate(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

/// The gated time to solution (see [`END_TO_END`]).
pub const WALL: &str = "wall_s";
/// Barrier-to-barrier seconds of each whole timed run — what `wall_s`
/// filters the host's interference out of. Printed and stored, never gated.
pub const RUN: &str = "run_s";

/// Serial reference seconds ÷ `wall_s`, per repetition (the two are measured
/// back to back in one process); median over the untraced repetitions.
pub const SPEEDUP: &str = "speedup_vs_serial";

/// Every ungated metric, in report order: the speed-up, then the per-layer
/// metrics grouped by layer.
pub const PER_LAYER: [PerLayer; 64] = [
    rate(SPEEDUP, "x"),
    timing("locality.meshgen_ms", "ms"),
    timing("locality.order_rcb_ms", "ms"),
    timing("onedim.plan_us", "us"),
    timing("inspector.extract_ms", "ms"),
    timing("inspector.schedule_ms", "ms"),
    timing("inspector.translate_ms", "ms"),
    count("inspector.ghosts_per_rank", "count"),
    count("inspector.sends_per_rank", "count"),
    timing("executor.sweep_us", "us"),
    rate("executor.sweep_gbs", "GB/s"),
    rate("executor.sweep_frac_of_triad", "ratio"),
    rate("executor.team2_speedup", "x"),
    timing("executor.team_dispatch_us", "us"),
    timing("executor.gather_us.sim", "us"),
    timing("executor.gather_us.native", "us"),
    timing("executor.gather_us.tcp", "us"),
    timing("executor.gather_fused_us.native", "us"),
    timing("balance.decide_us", "us"),
    timing("balance.redistribute_values_ms", "ms"),
    timing("balance.redistribute_adjacency_ms", "ms"),
    count("balance.sim_remaps", "count"),
    count("balance.sim_makespan_vs", "s"),
    timing("core.setup_ms", "ms"),
    timing("core.block_ms.p50", "ms"),
    timing("core.block_ms.p99", "ms"),
    timing("core.check_us", "us"),
    timing("core.remap_large_ms", "ms"),
    timing("core.remap_small_ms", "ms"),
    timing("core.checkpoint_ms", "ms"),
    count("core.checkpoint_bytes", "B"),
    timing("core.restore_ms", "ms"),
    timing("core.dataflow_pass_us", "us"),
    timing("core.set_local_us", "us"),
    timing("sim.pingpong_us", "us"),
    rate("sim.stream_mbs", "MiB/s"),
    timing("sim.barrier_us", "us"),
    timing("sim.allreduce_us", "us"),
    count("sim.messages_per_iter", "count"),
    count("sim.bytes_per_iter", "B"),
    timing("native.pingpong_us", "us"),
    rate("native.stream_mbs", "MiB/s"),
    timing("native.barrier_us", "us"),
    timing("native.allreduce_us", "us"),
    timing("native.launch_us", "us"),
    timing("tcp.pingpong_us", "us"),
    rate("tcp.stream_mbs", "MiB/s"),
    timing("tcp.barrier_us", "us"),
    timing("tcp.allreduce_us", "us"),
    timing("tcp.launch_ms", "ms"),
    timing("verify.overhead_frac", "ratio"),
    rate("host.triad_gbs.t1", "GB/s"),
    rate("host.triad_gbs.t2", "GB/s"),
    timing("host.spin2_ratio", "ratio"),
    timing("host.disturbed_reps", "count"),
    rate("ledger.sweep_frac", "ratio"),
    timing("ledger.exchange_frac", "ratio"),
    timing("ledger.check_frac", "ratio"),
    timing("ledger.remap_frac", "ratio"),
    timing("ledger.checkpoint_frac", "ratio"),
    timing("ledger.collective_frac", "ratio"),
    timing("ledger.host_frac", "ratio"),
    timing("ledger.residual_frac", "ratio"),
    timing("trace_overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workloads::Workload;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(Workload::ALL.iter().map(|w| (w.name(), "s")))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} on {name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; this file is
    /// what the binary emits. They must list the same things.
    #[test]
    fn benchmark_json_agrees_with_the_dictionary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.pairs().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key} is not an array: {other:?}"),
        };

        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (entry, w) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(entry.str("name"), Some(w.name()));
            assert_eq!(entry.str("why"), Some(w.why()));
            assert_eq!(entry.pairs().len(), 2);
        }

        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(entry.str("name"), Some(m.name));
            assert_eq!(entry.str("unit"), Some(m.unit));
            assert_eq!(entry.str("better"), Some(m.better.name()));
            assert_eq!(entry.num("bound"), Some(m.bound));
            assert_eq!(entry.pairs().len(), 4);
        }

        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, m) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(entry.str("name"), Some(m.name));
            assert_eq!(entry.str("unit"), Some(m.unit));
            assert_eq!(entry.str("better"), Some(m.better.name()));
            assert_eq!(entry.pairs().len(), 3);
        }

        let seconds = doc.num("run_seconds").expect("run_seconds");
        assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
        assert!(text.len() <= 64 * 1024);
    }
}
