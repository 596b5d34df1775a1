//! The metric table: every name the benchmark reports, with its unit,
//! direction, bound, the layer it belongs to, the workload that measures
//! it, and the end-to-end metric it is predicted to move.
//!
//! `BENCHMARK.json` at the repository root mirrors the names, units,
//! directions and bounds here (a test compares the two); the layer and
//! interaction tags live only here and in `README.md`, because
//! `BENCHMARK.json`'s schema has no field for them.

use std::collections::BTreeMap;

use crate::json::Json;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` / `"higher"`, as `BENCHMARK.json` spells it.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The four workloads, in run order.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "text_search",
        "scale-10 world, one TextServer: every search class plus a 500-doc re-index; text does ~all the work, so index-layout and evaluator changes must show here first",
    ),
    (
        "single_join",
        "scale-3 world: all applicable methods on Q1-Q4 plus a planner block; core.methods, rel string matching and text share the work, text_search's fast paths are bypassed",
    ),
    (
        "serve_stream",
        "scale-1 world, 4x2 replicated shards with a dead primary: one ServeSession over a 2xQ5+6xQ6 stream; the stack as deployed, plan and probe caches hit",
    ),
    (
        "trace_pipeline",
        "a captured ~10k-event session trace re-driven through recorder sinks, then parsed, replayed and rendered; obs does ~all the work and no other layer any",
    ),
];

/// A metric a user of the system would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name, identical on every workload.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which it may worsen before the
    /// driver rejects a change. `BENCHMARK.json` has one bound a metric,
    /// so the noisiest workload sets it: three times the widest ten-seed
    /// quartile spread measured on any workload (README, "Steadiness"),
    /// rounded up to a multiple of 5 % and capped at the 25 % the driver
    /// admits.
    pub bound: f64,
    /// The bound `--diff --check` and `--twice` judge each workload by, in
    /// [`WORKLOADS`] order: what *that* workload resolves in one pair of
    /// runs on the reference box — twice the widest spread measured on it,
    /// rounded up to a multiple of 5 %, never above `bound`.
    pub resolves: [f64; 4],
    /// What it measures.
    pub meaning: &'static str,
}

impl EndToEnd {
    /// The bound `workload` is judged by; the driver's for a name outside
    /// [`WORKLOADS`].
    pub fn bound_on(&self, workload: &str) -> f64 {
        WORKLOADS
            .iter()
            .position(|(name, _)| *name == workload)
            .map_or(self.bound, |i| self.resolves[i])
    }
}

/// The end-to-end metrics, from the untraced run.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        resolves: [0.25, 0.15, 0.25, 0.20],
        meaning: "median of two batches of at least 5 full set-ups (world generation + index build + sharding + query preparation + trace capture), one before and one after the timed region",
    },
    EndToEnd {
        name: "round_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        resolves: [0.25, 0.15, 0.10, 0.10],
        meaning: "median wall time of one round",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        resolves: [0.25, 0.20, 0.15, 0.15],
        meaning: "operations completed (searches / joins / served queries / events) per second of timed round time",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        resolves: [0.05, 0.05, 0.15, 0.15],
        meaning: "VmHWM of the workload process at exit",
    },
];

/// A number the untraced run measures, prints and records in `BENCH.json`
/// (and `--diff` compares), but that `BENCHMARK.json` does not list: it
/// has no bound this box can honour.
#[derive(Debug, Clone, Copy)]
pub struct Advisory {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// What it measures, and why it is only advisory.
    pub meaning: &'static str,
}

/// The advisory numbers of the untraced run.
pub const ADVISORY: [Advisory; 1] = [Advisory {
    name: "round_p95_ms",
    unit: "ms",
    better: Better::Lower,
    meaning: "95th percentile round time (ten samples beyond it from n = 200). In a closed loop of identical rounds the tail is the machine's interference, not the program's: over ten runs its interquartile spread was 14-31 % per workload, above any bound BENCHMARK.json admits",
}];

/// A metric of one layer, from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name; starts with the layer (module) it belongs to.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads whose traced run measures it (it reads 0 elsewhere).
    pub on: &'static str,
    /// The end-to-end movement it predicts.
    pub moves: &'static str,
}

impl PerLayer {
    /// Whether the metric is a count (or the simulated cost) that must
    /// repeat exactly between two runs of the same code on the same seed.
    pub fn exact(&self) -> bool {
        self.moves == M_EXACT || self.name == "failed_share"
    }
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        on,
        moves,
    }
}

use Better::{Higher as H, Lower as L};

const TS: &str = "text_search";
const SJ: &str = "single_join";
const SS: &str = "serve_stream";
const TP: &str = "trace_pipeline";
const ALL: &str = "all";

const M_TEXT: &str = "round_p50_ms, ops_per_s on text_search (~1:1); on single_join by core.methods.text_share; <10% on serve_stream; none on trace_pipeline";
const M_BUILD: &str = "setup_s everywhere; the re-index slice of text_search rounds";
const M_SHARD: &str = "setup_s and round_p50_ms on serve_stream only";
const M_REL: &str =
    "round_p50_ms on serve_stream (Q5) and the RTP/P+RTP cells of single_join; none on text_search";
const M_METHODS: &str = "round_p50_ms on single_join";
const M_OPT: &str = "none predicted (the planner block is ~4% of the single_join round); a planner rewrite is judged on these alone";
const M_EXEC: &str = "round_p50_ms on serve_stream";
const M_SERVE: &str = "ops_per_s on serve_stream";
const M_OBS: &str = "round_p50_ms, ops_per_s on trace_pipeline";
const M_OVERHEAD: &str =
    "round_p50_ms on serve_stream (always records); must stay ~1.0x on single_join";
const M_SETUP: &str = "setup_s everywhere";
const M_NONE: &str = "none: what the harness itself costs";
const M_SHARE: &str = "none: where the traced round's time went, by self time";
const M_EXACT: &str =
    "must repeat bit-exactly from round to round; any change is a behaviour change, not a speed-up";

/// The per-layer metrics, from the traced run.
pub const PER_LAYER: &[PerLayer] = &[
    // --- text -----------------------------------------------------------
    pl("text.parse_us", "us", L, TS, M_TEXT),
    pl("text.search.word_us", "us", L, TS, M_TEXT),
    pl("text.search.phrase_us", "us", L, TS, M_TEXT),
    pl("text.search.and_or_us", "us", L, TS, M_TEXT),
    pl("text.search.not_us", "us", L, TS, M_TEXT),
    pl("text.search.prefix_us", "us", L, TS, M_TEXT),
    pl("text.search.near_us", "us", L, TS, M_TEXT),
    pl("text.search.or_package70_us", "us", L, TS, M_TEXT),
    pl("text.probe_us", "us", L, TS, M_TEXT),
    pl("text.search_batch_us", "us", L, TS, M_TEXT),
    pl("text.retrieve_us", "us", L, TS, M_TEXT),
    pl("text.postings_per_s", "1/s", H, "text_search, single_join", M_TEXT),
    pl("text.postings_processed", "count", L, "text_search, single_join, serve_stream", M_EXACT),
    pl("text.calls", "count", L, "text_search, single_join", M_EXACT),
    pl("text.index_build_docs_per_s", "1/s", H, TS, M_BUILD),
    pl("text.shard.build_ms", "ms", L, "serve_stream, trace_pipeline", M_SHARD),
    pl("text.shard.search_us", "us", L, SS, M_SHARD),
    pl("text.shard.failover_legs", "count", L, SS, M_EXACT),
    // --- rel ------------------------------------------------------------
    pl("rel.strmatch_ns", "ns", L, SJ, M_REL),
    pl("rel.nested_loop_pairs_per_s", "1/s", H, SJ, M_REL),
    pl("rel.hash_join_ms", "ms", L, SJ, M_REL),
    pl("rel.filter_ms", "ms", L, SJ, M_REL),
    // --- core.methods: the paper's Table 2 as wall time -----------------
    pl("core.methods.ts.q1_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.rtp.q1_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.sj.q1_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_ts.q1_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_rtp.q1_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.ts.q2_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.rtp.q2_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.sj.q2_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_ts.q2_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_rtp.q2_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.ts.q3_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.sj.q3_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_ts.q3_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_rtp.q3_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.ts.q4_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.sj.q4_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_ts.q4_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.p_rtp.q4_ms", "ms", L, SJ, M_METHODS),
    pl("core.methods.text_share", "ratio", L, SJ, M_METHODS),
    pl("core.methods.comparisons", "count", L, SJ, M_EXACT),
    // --- core.optimizer -------------------------------------------------
    pl("core.optimizer.choose_method_us", "us", L, SJ, M_OPT),
    pl("core.optimizer.probe_bounded_k12_us", "us", L, SJ, M_OPT),
    pl("core.optimizer.probe_exhaustive_k12_us", "us", L, SJ, M_OPT),
    pl("core.optimizer.plan_prl_n3_us", "us", L, SJ, M_OPT),
    pl("core.optimizer.plan_prl_n6_us", "us", L, SJ, M_OPT),
    pl("core.optimizer.plan_leftdeep_n6_us", "us", L, SJ, M_OPT),
    pl("core.optimizer.estimate_nodes_us", "us", L, SJ, M_OPT),
    // --- core.exec / core.serve / core.sched ----------------------------
    pl("core.exec.prepare_input_ms", "ms", L, SS, M_EXEC),
    pl("core.exec.plan_prepared_us", "us", L, SS, M_EXEC),
    pl("core.exec.execute_prepared.q5_ms", "ms", L, SS, M_EXEC),
    pl("core.exec.execute_prepared.q6_ms", "ms", L, SS, M_EXEC),
    pl("core.serve.run_ms_per_query", "ms", L, SS, M_SERVE),
    pl("core.serve.dispatch_overhead_ratio", "ratio", L, SS, M_SERVE),
    pl("core.serve.plan_cache_hit_ratio", "ratio", H, SS, M_SERVE),
    pl("core.serve.probe_cache_hit_ratio", "ratio", H, SS, M_SERVE),
    pl("core.serve.shed_share", "ratio", L, SS, M_SERVE),
    pl("core.serve.rejected_share", "ratio", L, SS, M_SERVE),
    pl("core.sched.leg_ns", "ns", L, SS, M_SERVE),
    // --- obs ------------------------------------------------------------
    pl("obs.emit_noop_ns", "ns", L, TP, M_OBS),
    pl("obs.emit_ring_ns", "ns", L, TP, M_OBS),
    pl("obs.emit_jsonl_ns", "ns", L, TP, M_OBS),
    pl("obs.emit_fanout_monitor_ns", "ns", L, TP, M_OBS),
    pl("obs.emit_sampled_ns", "ns", L, TP, M_OBS),
    pl("obs.parse_jsonl_ns", "ns", L, TP, M_OBS),
    pl("obs.monitor_replay_ns", "ns", L, TP, M_OBS),
    pl("obs.calibrate_trace_ns", "ns", L, TP, M_OBS),
    pl("obs.metrics_from_events_ns", "ns", L, TP, M_OBS),
    pl("obs.render_ns", "ns", L, TP, M_OBS),
    pl("obs.parse_jsonl_mb_per_s", "MB/s", H, TP, M_OBS),
    pl("obs.jsonl_bytes_per_event", "B", L, TP, M_EXACT),
    pl("obs.events_per_query", "count", L, "trace_pipeline, serve_stream", M_EXACT),
    pl("obs.overhead_ratio.noop", "ratio", L, SJ, M_OVERHEAD),
    pl("obs.overhead_ratio.ring", "ratio", L, SJ, M_OVERHEAD),
    pl("obs.overhead_ratio.jsonl", "ratio", L, SJ, M_OVERHEAD),
    pl("obs.overhead_ratio.jsonl_monitor", "ratio", L, SJ, M_OVERHEAD),
    pl("obs.overhead_ratio.analyze", "ratio", L, SS, M_OVERHEAD),
    // --- workload / harness ---------------------------------------------
    pl("workload.generate_ms", "ms", L, ALL, M_SETUP),
    pl("bench.trace_overhead_ratio", "ratio", L, ALL, M_NONE),
    pl("bench.timer_ns", "ns", L, ALL, M_NONE),
    pl("bench.attributed_share", "ratio", H, ALL, M_NONE),
    pl("share.text", "ratio", L, ALL, M_SHARE),
    pl("share.rel", "ratio", L, ALL, M_SHARE),
    pl("share.core", "ratio", L, ALL, M_SHARE),
    pl("share.obs", "ratio", L, ALL, M_SHARE),
    pl("share.bench", "ratio", L, ALL, M_SHARE),
    // --- the two exact metrics ------------------------------------------
    pl("sim_cost_s", "sim_s", L, ALL, M_EXACT),
    pl("failed_share", "ratio", L, ALL, "must be 0: operations that returned Err, were refused, or failed the correctness check / operations attempted"),
];

/// The layer a per-layer metric belongs to: its name up to the first dot
/// (`sim_cost_s` and `failed_share` span every layer).
pub fn layer_of(name: &str) -> &str {
    match name {
        "sim_cost_s" | "failed_share" => "all",
        _ => name.split('.').next().unwrap_or(name),
    }
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` for the per-layer or end-to-end metric `name`.
    /// Panics on a name missing from the tables: a typo must not pass
    /// silently as an unreported metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = PER_LAYER
            .iter()
            .map(|m| m.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(ADVISORY.iter().map(|m| m.name))
            .find(|n| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the metric table"));
        self.0.insert(known, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// `{"name": {"value", "unit"}}` over every end-to-end metric.
    pub fn end_to_end_json(&self) -> Json {
        Json::Obj(
            END_TO_END
                .iter()
                .map(|m| (m.name.to_owned(), metric_json(self.get(m.name), m.unit)))
                .collect(),
        )
    }

    /// `{"name": {"value", "unit"}}` over every advisory number.
    pub fn advisory_json(&self) -> Json {
        Json::Obj(
            ADVISORY
                .iter()
                .map(|m| (m.name.to_owned(), metric_json(self.get(m.name), m.unit)))
                .collect(),
        )
    }

    /// `{"name": {"value", "unit"}}` over every per-layer metric; one this
    /// workload does not measure reads 0.
    pub fn per_layer_json(&self) -> Json {
        Json::Obj(
            PER_LAYER
                .iter()
                .map(|m| (m.name.to_owned(), metric_json(self.get(m.name), m.unit)))
                .collect(),
        )
    }
}

fn metric_json(value: Option<f64>, unit: &str) -> Json {
    Json::obj(vec![
        ("value", Json::Num(value.unwrap_or(0.0))),
        ("unit", Json::str(unit)),
    ])
}

/// What `BENCHMARK.json` must contain, generated from the tables above.
pub fn benchmark_json(command: &[&str], paths: &[&str], run_seconds: u32) -> Json {
    let strs = |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::str(s)).collect());
    Json::obj(vec![
        ("command", strs(command)),
        ("paths", strs(paths)),
        ("run_seconds", Json::Num(f64::from(run_seconds))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(name)), ("why", Json::str(why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_respect_the_benchmark_json_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        for m in END_TO_END {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(
                m.resolves.iter().all(|&b| b > 0.0 && b <= m.bound),
                "{}: no workload is judged more loosely than the driver judges",
                m.name
            );
            assert_eq!(m.bound_on(WORKLOADS[3].0), m.resolves[3]);
            assert_eq!(m.bound_on("elsewhere"), m.bound);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}: {}", m.name, m.unit);
            assert!(!m.moves.is_empty() && !m.on.is_empty());
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn every_per_layer_metric_names_a_known_layer() {
        for m in PER_LAYER {
            assert!(
                ["text", "rel", "core", "obs", "workload", "bench", "share", "all"]
                    .contains(&layer_of(m.name)),
                "{}",
                m.name
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// harness prints. They must not drift apart.
    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let on_disk = crate::json::parse(&text).expect("BENCHMARK.json parses");
        let run_seconds = on_disk
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds") as u32;
        assert_eq!(run_seconds, crate::cli::DEFAULT_SECONDS);
        let expected = benchmark_json(&["bash", "perf/run.sh"], &["perf"], run_seconds);
        assert_eq!(
            on_disk, expected,
            "regenerate with `perf/run.sh --benchmark-json > BENCHMARK.json`"
        );
        assert!(text.len() <= 64 * 1024);
    }

    #[test]
    #[should_panic(expected = "not in the metric table")]
    fn unknown_metric_names_are_rejected() {
        Values::new().set("text.serach.word_us", 1.0);
    }
}
