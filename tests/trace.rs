//! Trace determinism and span hygiene.
//!
//! The flight recorder's JSONL serialization is the repo's determinism
//! contract made inspectable: two identical runs — same world seed, same
//! fault plan, same query — must serialize byte-identical traces. And the
//! span stack must stay balanced on *every* exit path: a shard dying
//! mid-gather unwinds through guard drops, never leaving an open span.

use std::rc::Rc;

use textjoin::core::cost::params::CostParams;
use textjoin::core::exec::plan_and_execute;
use textjoin::core::methods::ExecContext;
use textjoin::core::optimizer::multi::ExecutionSpace;
use textjoin::core::retry::{RetryBudget, RetryPolicy};
use textjoin::obs::{EventKind, JsonlSink, Recorder, RingSink};
use textjoin::text::faults::{FaultKinds, FaultPlan};
use textjoin::text::server::TextServer;
use textjoin::text::shard::ShardedTextServer;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

fn compact_world(seed: u64) -> World {
    World::generate(WorldSpec {
        seed,
        background_docs: 120,
        students: 30,
        projects: 10,
        ..WorldSpec::default()
    })
}

/// One fixed chaos run, traced: Q5 planned and executed against a fresh
/// faulted server with a JSONL recorder attached. Returns the full trace.
fn golden_chaos_trace(w: &World) -> String {
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let mut server = TextServer::new(w.server.collection().clone());
    server.set_fault_plan(FaultPlan::transient(0xC0FFEE, 0.2, 2));
    let sink = Rc::new(JsonlSink::new());
    server.set_recorder(Some(Recorder::new(sink.clone())));
    let q5 = paper::q5(w);
    plan_and_execute(
        &q5,
        &w.catalog,
        &server,
        params,
        ExecutionSpace::PrlResiduals,
    )
    .expect("bounded faults never exhaust retries");
    sink.contents()
}

#[test]
fn golden_chaos_trace_is_byte_identical_across_runs() {
    let w = compact_world(7);
    let a = golden_chaos_trace(&w);
    let b = golden_chaos_trace(&w);
    assert_eq!(a, b, "two identical runs must serialize identical traces");
    // The golden trace must actually exercise the taxonomy: planner
    // decisions, spans, server calls, and the retry/backoff machinery.
    for needle in [
        "\"type\":\"planner\"",
        "\"rows\":",
        "\"postings\":",
        "\"type\":\"span_begin\"",
        "\"type\":\"span_end\"",
        "\"type\":\"call\"",
        "\"type\":\"retry\"",
        "\"type\":\"backoff\"",
        "\"label\":\"plan\"",
    ] {
        assert!(a.contains(needle), "golden trace is missing {needle}");
    }
    // Dense sequence numbers: line i carries seq i.
    for (i, line) in a.lines().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"seq\":{i},")),
            "line {i} out of sequence: {line}"
        );
    }
}

/// One fixed replicated chaos run recorded twice from the same event
/// stream: the full JSONL and a 1/16 head-sampled JSONL. Returns both.
fn golden_sampled_pair(w: &World) -> (String, String) {
    use textjoin::obs::{Event, SamplePolicy, SampledSink, Sink};

    struct Tee {
        full: Rc<JsonlSink>,
        sampled: Rc<SampledSink>,
    }
    impl Sink for Tee {
        fn record(&self, ev: &Event) {
            self.full.record(ev);
            self.sampled.record(ev);
        }
    }

    let schema = w.server.collection().schema();
    let p = textjoin::core::query::prepare(&paper::q3(w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let dead = s.primary_of(2);
    for i in 0..4 {
        for r in 0..2 {
            let plan = if (i, r) == (2, dead) {
                FaultPlan::dead(11)
            } else {
                FaultPlan::transient(11 ^ ((i as u64) << 24) ^ ((r as u64) << 32), 0.1, 2)
            };
            s.replica_mut(i, r).set_fault_plan(plan);
        }
    }
    let full = Rc::new(JsonlSink::new());
    let kept = Rc::new(JsonlSink::new());
    let sampled = Rc::new(SampledSink::new(
        kept.clone(),
        SamplePolicy::one_in(0xCAFE, 16),
    ));
    s.set_recorder(Some(Recorder::new(Rc::new(Tee {
        full: full.clone(),
        sampled,
    }))));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);
    let _ = textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true);
    (full.contents(), kept.contents())
}

#[test]
fn golden_sampled_trace_is_byte_identical_and_a_subsequence() {
    let w = compact_world(7);
    let (full_a, sampled_a) = golden_sampled_pair(&w);
    let (full_b, sampled_b) = golden_sampled_pair(&w);
    assert_eq!(full_a, full_b, "full golden trace must be deterministic");
    assert_eq!(
        sampled_a, sampled_b,
        "sampled golden trace must be deterministic"
    );

    // The sampled trace is a strict, order-preserving subsequence of the
    // full trace: every kept line exists verbatim in the full trace, in
    // the same relative order.
    let mut full_lines = full_a.lines();
    let mut matched = 0usize;
    for kept_line in sampled_a.lines() {
        assert!(
            full_lines.any(|l| l == kept_line),
            "sampled line not found in order in the full trace: {kept_line}"
        );
        matched += 1;
    }
    let full_count = full_a.lines().count();
    assert!(
        matched > 0 && matched < full_count / 2,
        "sampling must actually drop events ({matched} of {full_count} kept)"
    );

    // The chaos signal survives sampling.
    for needle in [
        "\"type\":\"failover\"",
        "\"type\":\"circuit_open\"",
        "\"err\":",
    ] {
        assert!(
            sampled_a.contains(needle),
            "sampled trace is missing {needle}"
        );
    }
}

#[test]
fn parsed_golden_traces_round_trip_byte_identically() {
    use textjoin::obs::parse_jsonl;

    let w = compact_world(7);
    let full = golden_chaos_trace(&w);
    let (grid_full, grid_sampled) = golden_sampled_pair(&w);
    for (label, text) in [
        ("single-server chaos", &full),
        ("replicated full", &grid_full),
        ("replicated sampled", &grid_sampled),
    ] {
        let events = parse_jsonl(text).unwrap_or_else(|e| panic!("{label}: {e}"));
        let rebuilt: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        assert_eq!(
            &rebuilt, text,
            "{label}: parse → serialize must reproduce the trace byte for byte"
        );
    }
}

#[test]
fn dead_shard_mid_gather_leaves_no_open_span() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let p =
        textjoin::core::query::prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();

    // Shard 2 faults on every operation, unbounded — the gather dies
    // mid-scatter after shards 0 and 1 answered.
    let mut s = ShardedTextServer::new(w.server.collection(), 4, 0x5AD);
    s.shard_mut(2)
        .set_fault_plan(FaultPlan::random(77, 1.0, FaultKinds::transient_only(), 0));
    let sink = Rc::new(RingSink::unbounded());
    let rec = Recorder::new(sink.clone());
    s.set_recorder(Some(rec.clone()));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);

    for method in ["TS", "SJ", "P+RTP"] {
        let err = match method {
            "TS" => textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true).err(),
            "SJ" => textjoin::core::methods::sj::semi_join(&ctx, &fj).err(),
            _ => textjoin::core::methods::probe::probe_rtp(&ctx, &fj, &[0]).err(),
        };
        assert!(err.is_some(), "{method} must fail with shard 2 dead");
        assert_eq!(
            rec.open_spans(),
            0,
            "{method}: the error unwind left a span open"
        );
    }

    // Begin/end balance holds event by event, not just at the end.
    let mut begins = 0i64;
    let mut ends = 0i64;
    for ev in sink.events() {
        match ev.kind {
            EventKind::SpanBegin { .. } => begins += 1,
            EventKind::SpanEnd { .. } => {
                ends += 1;
                assert!(ends <= begins, "span ended before it began");
            }
            _ => {}
        }
    }
    assert!(begins > 0, "the failed gathers must still open spans");
    assert_eq!(begins, ends, "every opened span must close");
}

/// One fixed serve session, traced: a 4-tenant stream with a starved
/// budget, a tight queue, and repeated specs over a replicated server
/// with a dead primary — so the trace exercises the full serve taxonomy
/// (admissions, sheds, budget refusals, cache hits) next to the existing
/// call/retry/backoff machinery. Returns the JSONL and its explain
/// rendering.
fn golden_serve_trace(w: &World) -> (String, String) {
    use textjoin::core::serve::{Backend, ServeConfig, ServeSession, TenantSpec};
    use textjoin::obs::Sink;

    let params = CostParams::mercury(w.server.doc_count() as f64);
    let mut server = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let dead = server.primary_of(2);
    server
        .replica_mut(2, dead)
        .set_fault_plan(FaultPlan::dead(77));
    let mut cfg = ServeConfig::new(params);
    cfg.queue_cap = 2;
    cfg.quantum = 40.0;
    cfg.degrade_depth = 2;
    let tenants = vec![
        TenantSpec::new("alpha", 1e9, 2),
        TenantSpec::new("beta", 1e9, 1),
        TenantSpec::new("gamma", 40.0, 0),
        TenantSpec::new("delta", 1e9, 3),
    ];
    let q5 = paper::q5(w);
    let q6 = paper::q6(w);
    let stream = vec![
        (0, q5.clone()),
        (1, q6.clone()),
        (2, q5.clone()),
        (0, q5.clone()),
        (3, q5.clone()),
        (1, q6.clone()),
        (3, q5.clone()),
        (0, q5),
    ];
    let report =
        ServeSession::new(Backend::Elastic(&mut server), &w.catalog, tenants, cfg).run(&stream);
    let sink = JsonlSink::new();
    for ev in &report.trace {
        sink.record(ev);
    }
    (sink.contents(), textjoin::obs::render(&report.trace))
}

#[test]
fn golden_serve_trace_is_byte_identical_and_renders_serve_events() {
    let w = compact_world(7);
    let (a, ea) = golden_serve_trace(&w);
    let (b, eb) = golden_serve_trace(&w);
    assert_eq!(
        a, b,
        "two identical sessions must serialize identical traces"
    );
    assert_eq!(ea, eb, "explain renderings must match byte-for-byte");

    // The serve taxonomy is present in the JSONL...
    for needle in [
        "\"type\":\"admit\"",
        "\"type\":\"shed\"",
        "\"type\":\"budget_exhausted\"",
        "\"type\":\"cache_hit\"",
        "\"type\":\"call\"",
        "\"type\":\"retry\"",
    ] {
        assert!(a.contains(needle), "golden serve trace is missing {needle}");
    }
    // ...and explain renders each serve event with its dedicated line,
    // not a generic fallthrough.
    for needle in [
        "> admit tenant",
        "! shed tenant",
        "! budget exhausted tenant",
        "= cache hit [",
    ] {
        assert!(
            ea.contains(needle),
            "explain rendering is missing {needle:?}"
        );
    }

    // The serialized serve events round-trip through the parser.
    let parsed = textjoin::obs::parse_jsonl(&a).expect("serve trace parses");
    let resink = JsonlSink::new();
    for ev in &parsed {
        use textjoin::obs::Sink;
        resink.record(ev);
    }
    assert_eq!(
        resink.contents(),
        a,
        "serve trace round-trips byte-identically"
    );
}
