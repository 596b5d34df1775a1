//! The harness end to end: every workload, untraced and traced, on small
//! inputs — set-up, the correctness gate, rounds that repeat the verified
//! round, layer probes, and the result object.

use std::time::Instant;

use textjoin_perf::harness::{run, Options};
use textjoin_perf::json;
use textjoin_perf::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use textjoin_perf::workloads::Size;

fn options(workload: &str, trace: bool, seed: u64) -> Options {
    Options {
        workload: workload.to_owned(),
        seed,
        seconds: 0.0,
        trace,
        size: Size::Smoke,
        out_dir: None,
    }
}

#[test]
fn smoke_runs_three_rounds_of_everything_within_ten_seconds() {
    let start = Instant::now();
    assert_eq!(textjoin_perf::cli::smoke(42), 0);
    // The budget is for the release binary (`perf/run.sh --smoke`); an
    // unoptimised test build gets ten times that.
    let budget = if cfg!(debug_assertions) { 100.0 } else { 10.0 };
    assert!(
        start.elapsed().as_secs_f64() < budget,
        "smoke took {:?}",
        start.elapsed()
    );
}

#[test]
fn the_result_object_has_exactly_the_contract_keys_and_every_metric() {
    let mut ops_per_round = Vec::new();
    for trace in [false, true] {
        let r = run(&options("single_join", trace, 7));
        assert!(r.correct, "{:?}", r.error);
        assert_eq!((r.n, r.failed), (3, 0));
        // Warm-up (1), timed (3) and, traced, the untraced base (3): the
        // same phases `failed` is counted over.
        let rounds = if trace { 7 } else { 4 };
        assert_eq!(r.attempted % rounds, 0);
        ops_per_round.push(r.attempted / rounds);
        let line = r.contract_json().render();
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.get("metrics").unwrap().to_map();
        let expected: Vec<&str> = if trace {
            PER_LAYER.iter().map(|m| m.name).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        assert_eq!(metrics.len(), expected.len());
        for name in expected {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert!(
                m.get("value").and_then(json::Json::as_f64).is_some(),
                "{name}"
            );
            assert!(
                m.get("unit").and_then(json::Json::as_str).is_some(),
                "{name}"
            );
        }
        if !trace {
            for m in END_TO_END {
                let v = r.values.get(m.name).unwrap();
                assert!(v > 0.0, "{} must never read 0, got {v}", m.name);
            }
        }
    }
    assert_eq!(ops_per_round[0], ops_per_round[1]);
}

#[test]
fn traced_runs_attribute_round_time_to_layers_and_report_what_they_measure() {
    for (name, _) in WORKLOADS {
        let r = run(&options(name, true, 42));
        assert!(r.correct, "{name}: {:?}", r.error);
        let v = |m: &str| r.values.get(m).unwrap_or(0.0);
        assert!(
            v("bench.attributed_share") > 0.5,
            "{name}: {}",
            v("bench.attributed_share")
        );
        assert!(v("bench.trace_overhead_ratio") > 0.0);
        assert!(v("workload.generate_ms") > 0.0);
        assert!(v("sim_cost_s") > 0.0 && v("failed_share") == 0.0);
        let shares =
            v("share.text") + v("share.rel") + v("share.core") + v("share.obs") + v("share.bench");
        assert!(
            (shares - 1.0).abs() < 1e-9,
            "{name}: layer shares sum to {shares}"
        );
        match name {
            "text_search" => {
                assert!(v("share.text") > 0.5 && v("share.obs") == 0.0 && v("share.core") == 0.0);
                assert!(
                    v("text.search.or_package70_us") > 0.0
                        && v("text.index_build_docs_per_s") > 0.0
                );
            }
            "single_join" => {
                assert!(v("core.methods.p_rtp.q4_ms") > 0.0 && v("core.methods.text_share") > 0.0);
                assert!(v("rel.strmatch_ns") > 0.0 && v("obs.overhead_ratio.ring") > 0.0);
                assert!(v("core.optimizer.probe_exhaustive_k12_us") > 0.0);
            }
            "serve_stream" => {
                assert!(
                    v("core.serve.plan_cache_hit_ratio") > 0.0
                        && v("text.shard.failover_legs") > 0.0
                );
                assert!(
                    v("core.exec.execute_prepared.q5_ms") > 0.0 && v("core.sched.leg_ns") > 0.0
                );
                assert_eq!(
                    v("core.serve.shed_share") + v("core.serve.rejected_share"),
                    0.0
                );
            }
            "trace_pipeline" => {
                assert!(v("share.obs") > 0.5 && v("share.text") == 0.0);
                assert!(v("obs.emit_jsonl_ns") > 0.0 && v("obs.parse_jsonl_mb_per_s") > 0.0);
            }
            other => panic!("unexpected workload {other}"),
        }
    }
}

#[test]
fn an_unknown_workload_is_not_correct() {
    let r = run(&options("no_such_workload", false, 1));
    assert!(!r.correct && r.error.is_some());
    // A run the gate stopped reads as one attempt, failed: the driver's
    // object must not show a failure share of 0.
    assert_eq!((r.attempted, r.failed), (1, 1));
    let line = json::parse(&r.contract_json().render()).unwrap();
    assert_eq!(line.get("attempted"), line.get("failed"));
}
