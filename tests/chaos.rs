//! Chaos oracle: under any *seeded, bounded* transient fault plan, every
//! join method must return exactly the brute-force answer — the injected
//! faults may only cost money (retries, simulated backoff, partially
//! charged timeouts), never change a result. And when retries are
//! exhausted (unbounded consecutive faults), methods must fail with a
//! clean error, never a wrong answer.

use textjoin::core::methods::probe::ProbeSchedule;
use textjoin::core::methods::rtp::guarded_rtp;
use textjoin::core::methods::{ExecContext, ForeignJoin, MethodReport, Projection};
use textjoin::rel::strmatch::contains_term;
use textjoin::rel::table::Table;
use textjoin::text::doc::DocId;
use textjoin::text::faults::{FaultKinds, FaultPlan};
use textjoin::text::server::TextServer;
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

/// All (tuple index, docid) pairs the join should produce, by direct scan
/// of the collection — no search API, no index.
fn oracle_pairs(fj: &ForeignJoin<'_>, server: &TextServer) -> Vec<(usize, DocId)> {
    let coll = server.collection();
    let mut out = Vec::new();
    for (ti, tuple) in fj.rel.iter().enumerate() {
        'docs: for d in 0..coll.doc_count() {
            let id = DocId(d as u32);
            let doc = coll.document(id).expect("dense docids");
            for sel in &fj.selections {
                if !doc
                    .values(sel.field)
                    .iter()
                    .any(|v| contains_term(v, &sel.term))
                {
                    continue 'docs;
                }
            }
            for (col, field) in fj.join_cols.iter().zip(&fj.join_fields) {
                let Some(needle) = tuple.get(*col).as_str() else {
                    continue 'docs;
                };
                if needle.trim().is_empty()
                    || !doc.values(*field).iter().any(|v| contains_term(v, needle))
                {
                    continue 'docs;
                }
            }
            out.push((ti, id));
        }
    }
    out
}

/// Projects oracle pairs the way the method output is shaped.
fn oracle_shape(fj: &ForeignJoin<'_>, pairs: &[(usize, DocId)]) -> Vec<String> {
    let mut rows: Vec<String> = match fj.projection {
        Projection::RelOnly => {
            let mut tuples: Vec<usize> = pairs.iter().map(|&(t, _)| t).collect();
            tuples.sort_unstable();
            tuples.dedup();
            tuples
                .into_iter()
                .map(|t| fj.rel.rows()[t].to_string())
                .collect()
        }
        Projection::DocIds => {
            let mut ids: Vec<DocId> = pairs.iter().map(|&(_, d)| d).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.iter().map(|d| format!("[{d}]")).collect()
        }
        Projection::Full => pairs
            .iter()
            .map(|&(t, d)| format!("{}+{d}", fj.rel.rows()[t]))
            .collect(),
    };
    rows.sort();
    rows
}

/// Shapes a method output table the same way.
fn method_shape(fj: &ForeignJoin<'_>, table: &Table) -> Vec<String> {
    let mut rows: Vec<String> = match fj.projection {
        Projection::RelOnly => table.iter().map(|r| r.to_string()).collect(),
        Projection::DocIds => table
            .iter()
            .map(|r| {
                format!(
                    "[{}]",
                    r.get(textjoin::rel::schema::ColId(0))
                        .as_str()
                        .expect("docid column")
                )
            })
            .collect(),
        Projection::Full => {
            let rel_arity = fj.rel.schema().len();
            let docid_col = textjoin::rel::schema::ColId(rel_arity);
            table
                .iter()
                .map(|r| {
                    let rel_part = r.project(
                        &(0..rel_arity)
                            .map(textjoin::rel::schema::ColId)
                            .collect::<Vec<_>>(),
                    );
                    format!(
                        "{rel_part}+{}",
                        r.get(docid_col).as_str().expect("docid column")
                    )
                })
                .collect()
        }
    };
    rows.sort();
    rows
}

fn faulted_server(w: &World, seed: u64, rate: f64) -> TextServer {
    let mut s = TextServer::new(w.server.collection().clone());
    // ≤ 2 consecutive faults per operation — strictly below the standard
    // 4-attempt retry budget, so every operation eventually succeeds.
    s.set_fault_plan(FaultPlan::transient(seed, rate, 2));
    s
}

/// The exact cost decomposition must hold on the fault-injected ledger,
/// a single server's or a sharded aggregate: server charges at the Mercury
/// constants (3 s per invocation, 10 µs per posting, 15 ms per short and
/// 4 s per long document) + simulated backoff + `c_a` × comparisons.
fn assert_decomposition(label: &str, report: &MethodReport, c_a: f64) {
    let u = &report.text;
    assert_eq!(
        u.ns_invocation + u.ns_processing + u.ns_transmission,
        3_000_000_000 * u.invocations
            + 10_000 * u.postings_processed
            + 15_000_000 * u.docs_short
            + 4_000_000_000 * u.docs_long,
        "{label}: text cost must decompose into server charges + backoff"
    );
    assert_eq!(
        report.total_cost(),
        u.total_cost() + c_a * report.rtp_comparisons as f64,
        "{label}: total = text + backoff + c_a × comparisons"
    );
}

#[test]
fn all_methods_survive_transient_faults_with_exact_answers() {
    let mut total_faults_seen = 0u64;
    for world_seed in [7u64, 23] {
        let w = compact_world(world_seed);
        let schema = w.server.collection().schema();
        for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
            let p = textjoin::core::query::prepare(&q, &w.catalog, schema)
                .expect("paper query prepares");
            let fj = p.foreign_join();
            let expected = oracle_shape(&fj, &oracle_pairs(&fj, &w.server));
            for fault_seed in [1u64, 2] {
                for rate in [0.1, 0.3] {
                    let check = |label: String, report: &MethodReport, table: &Table| {
                        assert_eq!(
                            method_shape(&fj, table),
                            expected,
                            "{qname}/{label} (world {world_seed}, fault seed \
                             {fault_seed}, rate {rate}) diverged from the oracle"
                        );
                        assert_decomposition(&label, report, 1e-5);
                    };

                    macro_rules! run {
                        ($label:expr, $body:expr) => {{
                            let s = faulted_server(&w, fault_seed, rate);
                            let ctx = ExecContext::new(&s);
                            #[allow(clippy::redundant_closure_call)]
                            let out = ($body)(&ctx).expect("bounded faults never exhaust retries");
                            check($label.to_string(), &out.report, &out.table);
                            total_faults_seen += s.usage().faults;
                        }};
                    }

                    run!("TS", |ctx| textjoin::core::methods::ts::tuple_substitution(
                        ctx, &fj, true
                    ));
                    run!("TS-naive", |ctx| {
                        textjoin::core::methods::ts::tuple_substitution(ctx, &fj, false)
                    });
                    if !fj.selections.is_empty() {
                        run!("RTP", |ctx| {
                            textjoin::core::methods::rtp::relational_text_processing(ctx, &fj)
                        });
                    }
                    run!("SJ", |ctx| textjoin::core::methods::sj::semi_join(ctx, &fj));
                    for schedule in [ProbeSchedule::ProbeFirst, ProbeSchedule::Lazy] {
                        run!(format!("P+TS/{schedule:?}"), |ctx| {
                            textjoin::core::methods::probe::probe_tuple_substitution(
                                ctx,
                                &fj,
                                &[0],
                                schedule,
                            )
                        });
                    }
                    run!("P+RTP", |ctx| {
                        textjoin::core::methods::probe::probe_rtp(ctx, &fj, &[0])
                    });
                    // The guard, both sides of the budget. Within budget it
                    // books exactly what RTP books on a server with the
                    // same fault seed.
                    if !fj.selections.is_empty() {
                        for budget in [0usize, 10_000] {
                            let s = faulted_server(&w, fault_seed, rate);
                            let g = guarded_rtp(&ExecContext::new(&s), &fj, budget)
                                .expect("bounded faults never exhaust retries");
                            check(format!("guarded_rtp/{budget}"), &g.report, &g.table);
                            total_faults_seen += s.usage().faults;
                            if budget == 10_000 {
                                let s = faulted_server(&w, fault_seed, rate);
                                let rtp = textjoin::core::methods::rtp::relational_text_processing(
                                    &ExecContext::new(&s),
                                    &fj,
                                )
                                .expect("bounded faults never exhaust retries");
                                assert_eq!(g.report.text, rtp.report.text, "{qname}: guarded RTP");
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(
        total_faults_seen > 100,
        "the chaos plans must actually inject faults (saw {total_faults_seen})"
    );
}

#[test]
fn exhausted_retries_fail_cleanly_never_wrongly() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let p =
        textjoin::core::query::prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();

    // Rate 1.0, unbounded consecutive faults: every search/retrieve fails
    // past any retry budget. Methods must error out, not fabricate rows.
    let mut s = TextServer::new(w.server.collection().clone());
    s.set_fault_plan(FaultPlan::random(77, 1.0, FaultKinds::transient_only(), 0));
    let ctx = ExecContext::new(&s);

    assert!(textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true).is_err());
    assert!(textjoin::core::methods::rtp::relational_text_processing(&ctx, &fj).is_err());
    assert!(textjoin::core::methods::sj::semi_join(&ctx, &fj).is_err());
    assert!(textjoin::core::methods::probe::probe_tuple_substitution(
        &ctx,
        &fj,
        &[0],
        ProbeSchedule::ProbeFirst
    )
    .is_err());
    assert!(textjoin::core::methods::probe::probe_rtp(&ctx, &fj, &[0]).is_err());
    // The guard degrades to TS first, but TS cannot run either: still a
    // clean error.
    assert!(guarded_rtp(&ctx, &fj, 10).is_err());
    // Nothing was emitted, but the failed attempts were charged.
    let u = s.usage();
    assert!(u.faults > 0);
    assert!(u.retries > 0);
    assert!(u.ns_backoff > 0);
}

// ---------------------------------------------------------------------
// Sharded chaos: scatter/gather under per-shard fault plans
// ---------------------------------------------------------------------

use textjoin::core::methods::MethodError;
use textjoin::core::retry::{RetryBudget, RetryPolicy};
use textjoin::text::shard::{PartialShardError, ShardedTextServer};
use textjoin::text::TextService;

fn sharded_faulted(w: &World, seed: u64, rate: f64, n_shards: usize) -> ShardedTextServer {
    let mut s = ShardedTextServer::new(w.server.collection(), n_shards, 0x5AD);
    for i in 0..n_shards {
        // Independent seeded streams per shard, each bounded to ≤2
        // consecutive faults.
        s.shard_mut(i)
            .set_fault_plan(FaultPlan::transient(seed ^ ((i as u64) << 24), rate, 2));
    }
    s
}

/// Walks the `std::error::Error::source` chain from a method error and
/// returns the [`PartialShardError`] it carries, if any.
fn find_partial_shard(err: &MethodError) -> Option<&PartialShardError> {
    let mut cur: Option<&(dyn std::error::Error + 'static)> =
        Some(err as &(dyn std::error::Error + 'static));
    while let Some(e) = cur {
        if let Some(pse) = e.downcast_ref::<PartialShardError>() {
            return Some(pse);
        }
        cur = e.source();
    }
    None
}

#[test]
fn sharded_methods_return_exact_answers_or_typed_partial_failures() {
    let mut total_faults_seen = 0u64;
    let mut ok_runs = 0u32;
    for world_seed in [7u64, 23] {
        let w = compact_world(world_seed);
        let schema = w.server.collection().schema();
        for (qname, q) in [("q3", paper::q3(&w)), ("q4", paper::q4(&w))] {
            let p = textjoin::core::query::prepare(&q, &w.catalog, schema)
                .expect("paper query prepares");
            let fj = p.foreign_join();
            let expected = oracle_shape(&fj, &oracle_pairs(&fj, &w.server));
            for fault_seed in [1u64, 2] {
                for rate in [0.1, 0.3] {
                    macro_rules! run {
                        ($label:expr, $body:expr) => {{
                            let s = sharded_faulted(&w, fault_seed, rate, 4);
                            let budget = RetryBudget::new(RetryPolicy::standard());
                            let ctx = ExecContext::with_budget(&s, &budget);
                            #[allow(clippy::redundant_closure_call)]
                            match ($body)(&ctx) {
                                Ok(out) => {
                                    assert_eq!(
                                        method_shape(&fj, &out.table),
                                        expected,
                                        "{qname}/{} (world {world_seed}, fault seed \
                                         {fault_seed}, rate {rate}) diverged from the \
                                         oracle",
                                        $label
                                    );
                                    assert_decomposition($label, &out.report, 1e-5);
                                    ok_runs += 1;
                                }
                                Err(e) => {
                                    // A failed run must be a *typed* partial
                                    // failure (or plain transient exhaustion)
                                    // — never a silently wrong answer.
                                    if let Some(pse) = find_partial_shard(&e) {
                                        assert!(pse.failed_shard < 4);
                                        assert!(pse.error.is_transient());
                                    } else {
                                        match e {
                                            MethodError::Text(te) => {
                                                assert!(te.is_transient())
                                            }
                                            other => panic!(
                                                "{qname}/{}: unexpected failure \
                                                 shape: {other}",
                                                $label
                                            ),
                                        }
                                    }
                                }
                            }
                            total_faults_seen += s.usage().faults;
                        }};
                    }

                    run!("TS", |ctx| textjoin::core::methods::ts::tuple_substitution(
                        ctx, &fj, true
                    ));
                    if !fj.selections.is_empty() {
                        run!("RTP", |ctx| {
                            textjoin::core::methods::rtp::relational_text_processing(ctx, &fj)
                        });
                    }
                    run!("SJ", |ctx| textjoin::core::methods::sj::semi_join(ctx, &fj));
                    run!("P+TS", |ctx| {
                        textjoin::core::methods::probe::probe_tuple_substitution(
                            ctx,
                            &fj,
                            &[0],
                            ProbeSchedule::ProbeFirst,
                        )
                    });
                    run!("P+RTP", |ctx| {
                        textjoin::core::methods::probe::probe_rtp(ctx, &fj, &[0])
                    });
                }
            }
        }
    }
    assert!(
        total_faults_seen > 100,
        "the sharded chaos plans must actually inject faults (saw {total_faults_seen})"
    );
    assert!(
        ok_runs > 50,
        "most bounded-fault runs must complete (saw {ok_runs} successes)"
    );
}

#[test]
fn dead_shard_yields_partial_shard_error_with_the_failed_shard() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let p =
        textjoin::core::query::prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();

    // Shard 2 faults on every operation, unbounded — past any retry
    // budget. The other shards are healthy, so every gather collects
    // shards 0 and 1 before dying at shard 2.
    let mut s = ShardedTextServer::new(w.server.collection(), 4, 0x5AD);
    s.shard_mut(2)
        .set_fault_plan(FaultPlan::random(77, 1.0, FaultKinds::transient_only(), 0));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);

    let mut errs: Vec<MethodError> = vec![
        textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true).unwrap_err(),
        textjoin::core::methods::sj::semi_join(&ctx, &fj).unwrap_err(),
        textjoin::core::methods::probe::probe_tuple_substitution(
            &ctx,
            &fj,
            &[0],
            ProbeSchedule::ProbeFirst,
        )
        .unwrap_err(),
        textjoin::core::methods::probe::probe_rtp(&ctx, &fj, &[0]).unwrap_err(),
    ];
    if !fj.selections.is_empty() {
        errs.push(textjoin::core::methods::rtp::relational_text_processing(&ctx, &fj).unwrap_err());
    }
    for err in &errs {
        let pse = find_partial_shard(err)
            .unwrap_or_else(|| panic!("expected a PartialShardError in: {err}"));
        assert_eq!(pse.failed_shard, 2, "the dead shard must be named");
        assert!(
            pse.error.is_transient(),
            "the underlying fault is transient"
        );
        // Results gathered before the failure ride along in the error.
        for (i, part) in pse.partial.iter().enumerate() {
            if i < pse.failed_shard && !pse.partial.is_empty() {
                assert!(part.is_some(), "shard {i} answered before the failure");
            }
        }
    }
    // The dead shard's ledger carries the exhausted attempts; the healthy
    // shards were still charged for their successful scatter legs.
    assert!(s.shard_usage(2).faults > 0);
    assert!(s.shard_usage(2).retries > 0);
    assert!(s.usage().ns_backoff > 0);
    assert!(s.shard_usage(0).invocations > 0);
    // The adaptive budget has marked shard 2 as dead and tightened it.
    assert!(budget.rate_of(2) > budget.rate_of(0));
}

// ---------------------------------------------------------------------
// Replicated chaos: failover routing, circuit breakers, gather completion
// ---------------------------------------------------------------------

use std::rc::Rc;

use textjoin::obs::{Recorder, RingSink};
use textjoin::text::faults::Fault;

/// The replication acceptance bar: with R = 2 and one shard's primary
/// permanently dead, every method returns exactly the brute-force answer
/// — no `TextError::Shard` ever escapes to the caller, because every
/// scatter leg fails over to the surviving replica.
#[test]
fn replicated_dead_primary_yields_exact_answers_with_no_shard_errors() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let p =
        textjoin::core::query::prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();
    let expected = oracle_shape(&fj, &oracle_pairs(&fj, &w.server));

    // Same topology as the R=1 dead-shard test above, but with a second
    // replica per shard: the identical fault now costs money instead of
    // failing the query.
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let dead = s.primary_of(2);
    s.replica_mut(2, dead).set_fault_plan(FaultPlan::dead(77));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);

    macro_rules! run {
        ($label:expr, $body:expr) => {{
            #[allow(clippy::redundant_closure_call)]
            let out = ($body)(&ctx).unwrap_or_else(|e| {
                panic!("{}: failover must absorb the dead primary: {e}", $label)
            });
            assert_eq!(
                method_shape(&fj, &out.table),
                expected,
                "{}: diverged from the oracle under a dead primary",
                $label
            );
        }};
    }

    run!("TS", |ctx| textjoin::core::methods::ts::tuple_substitution(
        ctx, &fj, true
    ));
    if !fj.selections.is_empty() {
        run!("RTP", |ctx| {
            textjoin::core::methods::rtp::relational_text_processing(ctx, &fj)
        });
    }
    run!("SJ", |ctx| textjoin::core::methods::sj::semi_join(ctx, &fj));
    run!("P+TS", |ctx| {
        textjoin::core::methods::probe::probe_tuple_substitution(
            ctx,
            &fj,
            &[0],
            ProbeSchedule::ProbeFirst,
        )
    });
    run!("P+RTP", |ctx| {
        textjoin::core::methods::probe::probe_rtp(ctx, &fj, &[0])
    });

    // The dead primary was attempted (and charged) until the breaker
    // opened; the surviving replica carried every read for shard 2.
    assert!(
        s.replica(2, dead).usage().faults > 0,
        "the death was paid for"
    );
    assert!(
        s.replica(2, 1 - dead).usage().invocations > 0,
        "the secondary served"
    );
    assert!(budget.breaker_open(2), "the per-shard breaker latched open");
    assert!(
        !budget.breaker_open(0),
        "healthy shards keep their breakers closed"
    );
    // Failover charges are real charges: the aggregate still decomposes
    // into the sum of the shard invoices.
    let mut sum = textjoin::text::server::Usage::default();
    for i in 0..s.shard_count() {
        sum.accumulate(&s.shard_usage(i));
    }
    assert_eq!(s.usage().invocations, sum.invocations);
    assert_eq!(s.usage().faults, sum.faults);
}

/// Breaker lifecycle, scripted end to end: a primary that faults its
/// first 30 search attempts and then recovers drives the shard's breaker
/// open (consecutive exhausted legs at a dead-level EWMA), keeps it open
/// across the fixed-cadence half-open probes that still find it down, and
/// closes it on the first probe that succeeds — after which the primary
/// serves again. The whole event trace must be byte-identical across two
/// runs.
#[test]
fn breaker_opens_probes_and_closes_with_byte_identical_event_traces() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let au = schema.field_by_name("author").expect("author field");
    let student = w.catalog.table("student").expect("student table");
    let name = student.rows()[0]
        .get(student.col("name"))
        .as_str()
        .expect("student names are strings")
        .to_owned();
    let expr = textjoin::text::expr::SearchExpr::term_in(&name, au);
    let fault_free = w.server.search(&expr).expect("healthy search").ids();

    let run = || {
        // One logical shard, two replicas: every search is a single
        // routed leg, so the breaker's state drives the whole trace.
        let mut s = ShardedTextServer::replicated(w.server.collection(), 1, 2, 0x5AD);
        let primary = s.primary_of(0);
        let script: Vec<(u64, Fault)> = (0..30).map(|o| (o, Fault::Unavailable)).collect();
        s.replica_mut(0, primary)
            .set_fault_plan(FaultPlan::scripted(script));
        let sink = Rc::new(RingSink::unbounded());
        s.set_recorder(Some(Recorder::new(sink.clone())));
        let budget = RetryBudget::new(RetryPolicy::standard());
        let ctx = ExecContext::with_budget(&s, &budget);
        for i in 0..80 {
            let r = ctx
                .search(&expr)
                .unwrap_or_else(|e| panic!("search {i}: the replica always serves: {e}"));
            assert_eq!(r.ids(), fault_free, "search {i} diverged");
        }
        assert!(
            !budget.breaker_open(0),
            "the recovered primary closed the breaker"
        );
        let trace: Vec<String> = sink.events().iter().map(|e| e.to_jsonl()).collect();
        trace
    };

    let a = run();
    let b = run();
    assert_eq!(
        a, b,
        "the breaker event trace must be byte-identical across runs"
    );

    let at = |what: &str| -> Vec<usize> {
        a.iter()
            .enumerate()
            .filter(|(_, l)| l.contains(&format!("\"type\":\"{what}\"")))
            .map(|(i, _)| i)
            .collect()
    };
    let opens = at("circuit_open");
    let closes = at("circuit_close");
    let failovers = at("failover");
    assert_eq!(opens.len(), 1, "exactly one open transition");
    assert_eq!(closes.len(), 1, "exactly one close transition");
    assert!(opens[0] < closes[0], "open precedes close");
    assert!(
        failovers.first().is_some_and(|&f| f < opens[0]),
        "failover legs precede the open (the EWMA needs evidence)"
    );
    assert!(
        failovers.iter().any(|&f| opens[0] < f && f < closes[0]),
        "while open, reads are served by the replica"
    );
    assert!(
        failovers.iter().all(|&f| f < closes[0]),
        "after the close, the recovered primary serves directly"
    );
}

/// Gather completion at the executor level: when *every* replica of one
/// shard exhausts its scripted faults mid-gather, the search surfaces a
/// partial-shard error internally — and the completion path re-scatters
/// only the missing shards, reusing the already-paid partial results, so
/// the caller still gets the full answer.
#[test]
fn gather_completion_resumes_from_the_partial_without_rebuying_shards() {
    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let au = schema.field_by_name("author").expect("author field");
    let student = w.catalog.table("student").expect("student table");
    let name = student.rows()[0]
        .get(student.col("name"))
        .as_str()
        .expect("student names are strings")
        .to_owned();
    let expr = textjoin::text::expr::SearchExpr::term_in(&name, au);
    let fault_free = w.server.search(&expr).expect("healthy search").ids();

    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    // Shard 2: the primary faults its first 10 search attempts (past any
    // adaptive leg), the secondary its first 4 (exactly the base failover
    // leg) — so the first gather loses shard 2 on both replicas, and the
    // completion re-scatter finds the secondary recovered.
    let primary = s.primary_of(2);
    s.replica_mut(2, primary)
        .set_fault_plan(FaultPlan::scripted(
            (0..10).map(|o| (o, Fault::Unavailable)).collect(),
        ));
    s.replica_mut(2, 1 - primary)
        .set_fault_plan(FaultPlan::scripted(
            (0..4).map(|o| (o, Fault::Unavailable)).collect(),
        ));
    let sink = Rc::new(RingSink::unbounded());
    s.set_recorder(Some(Recorder::new(sink.clone())));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);

    let r = ctx
        .search(&expr)
        .expect("completion must rescue the gather");
    assert_eq!(r.ids(), fault_free, "the completed gather is exact");
    // The healthy shards' results were reused, not re-bought: one scatter
    // leg each, despite the second pass.
    assert_eq!(s.shard_usage(0).invocations, 1);
    assert_eq!(s.shard_usage(1).invocations, 1);
    // The completion ran under its named span, carrying the
    // gathered-k-of-n attribute.
    let trace: Vec<String> = sink.events().iter().map(|e| e.to_jsonl()).collect();
    assert!(
        trace.iter().any(|l| l.contains("complete-gather[2/4]")),
        "the completion span records how much of the gather was already paid for"
    );
}

/// Completion × migration interplay: the same lost-shard gather as above,
/// but while a paced online migration commits batches *between the
/// query's legs* — so the partial carries an epoch the topology has
/// already moved past. The staleness loop re-scatters only the shards the
/// commits touched, the completion pass re-scatters only the missing
/// shard, untouched shards keep their single paid invoice, and the answer
/// is still exact.
#[test]
fn gather_completion_stays_exact_while_a_migration_commits_between_legs() {
    use textjoin::text::rebalance::{MigrationPlan, Move, MoveStatus};

    let w = compact_world(7);
    let schema = w.server.collection().schema();
    let au = schema.field_by_name("author").expect("author field");
    let student = w.catalog.table("student").expect("student table");
    let name = student.rows()[0]
        .get(student.col("name"))
        .as_str()
        .expect("student names are strings")
        .to_owned();
    let expr = textjoin::text::expr::SearchExpr::term_in(&name, au);
    let fault_free = w.server.search(&expr).expect("healthy search").ids();

    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let n = w.server.collection().doc_count() as u32;
    s.begin_migration(MigrationPlan::new(
        vec![Move {
            range: (DocId(0), DocId(n)),
            src: 1,
            dst: 3,
        }],
        8,
    ));
    // A transfer batch commits before every query leg: the gather races
    // live epoch bumps on shards 1 and 3 the whole way through.
    s.set_migration_pacing(1);
    // Shard 2 loses both replicas on the first pass (primary 10 scripted
    // faults, secondary 4 — the base failover leg), then recovers for the
    // completion pass. The migration never touches shard 2, so these
    // scripts only serve query legs.
    let primary = s.primary_of(2);
    s.replica_mut(2, primary)
        .set_fault_plan(FaultPlan::scripted(
            (0..10).map(|o| (o, Fault::Unavailable)).collect(),
        ));
    s.replica_mut(2, 1 - primary)
        .set_fault_plan(FaultPlan::scripted(
            (0..4).map(|o| (o, Fault::Unavailable)).collect(),
        ));
    let sink = Rc::new(RingSink::unbounded());
    s.set_recorder(Some(Recorder::new(sink.clone())));
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);

    let r = ctx
        .search(&expr)
        .expect("completion must rescue the gather mid-migration");
    assert_eq!(
        r.ids(),
        fault_free,
        "the completed gather is exact mid-migration"
    );
    // Shard 0 is neither faulted nor touched by any move: the staleness
    // re-scatter (shards 1 and 3) and the completion re-scatter (shard 2)
    // both leave its single paid leg alone.
    assert_eq!(
        s.shard_usage(0).invocations,
        1,
        "an untouched shard's result is reused, not re-bought"
    );
    let trace: Vec<String> = sink.events().iter().map(|e| e.to_jsonl()).collect();
    assert!(
        trace.iter().any(|l| l.contains("migration_batch")),
        "transfer batches committed inside the query window"
    );
    assert!(
        trace.iter().any(|l| l.contains("complete-gather")),
        "the lost shard went through the completion path"
    );
    // The interrupted-then-resumed topology still drains to completion.
    let mut steps = 0u32;
    while !s.journal().expect("journal exists").finished() {
        let _ = s.migrate_batch();
        steps += 1;
        assert!(steps < 10_000, "migration failed to drain");
    }
    assert!(s
        .journal()
        .expect("journal exists")
        .entries
        .iter()
        .all(|e| e.status == MoveStatus::Done));
}
