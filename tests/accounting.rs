//! Integration: end-to-end cost-accounting invariants across the server,
//! the join methods, and the executors.

use textjoin::core::cost::params::CostParams;
use textjoin::core::exec::{canonical_rows, execute_single, plan_and_execute};
use textjoin::core::methods::probe::ProbeSchedule;
use textjoin::core::methods::ExecContext;
use textjoin::core::optimizer::multi::ExecutionSpace;
use textjoin::core::optimizer::single::enumerate_methods;
use textjoin::core::query::prepare;
use textjoin::text::server::Usage;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

/// A ledger's time, in ticks.
fn ticks(u: &Usage) -> u64 {
    u.ns_invocation + u.ns_processing + u.ns_transmission + u.ns_backoff
}

/// What `u`'s counts cost at the Mercury constants, in ticks, written out:
/// 3 s per invocation, 10 µs per posting, 15 ms per short and 4 s per long
/// document, plus the backoff it waited.
fn mercury_ticks(u: &Usage) -> u64 {
    3_000_000_000 * u.invocations
        + 10_000 * u.postings_processed
        + 15_000_000 * u.docs_short
        + 4_000_000_000 * u.docs_long
        + u.ns_backoff
}

fn world() -> World {
    World::generate(WorldSpec {
        background_docs: 200,
        students: 50,
        projects: 15,
        ..WorldSpec::default()
    })
}

#[test]
fn method_cost_decomposes_into_server_charges() {
    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let export = w.server.export_stats();
    let stats = p.statistics_from_export(&export, schema);
    let params = CostParams::mercury(w.server.doc_count() as f64);
    for cand in enumerate_methods(&params, &stats, paper::q3(&w).projection, false) {
        w.server.reset_usage();
        let ctx = ExecContext::new(&w.server);
        let out = textjoin::core::exec::execute_single(&ctx, &p, &cand, ProbeSchedule::ProbeFirst)
            .expect("runs");
        let u = w.server.usage();
        assert_eq!(
            ticks(&out.report.text),
            mercury_ticks(&u),
            "{}: reported text cost must equal server charges",
            cand.label
        );
        assert_eq!(
            out.report.ticks(),
            ticks(&u) + 10_000 * out.report.rtp_comparisons,
            "{}: total = text + c_a × comparisons, in ticks",
            cand.label
        );
    }
}

#[test]
fn sampling_cost_is_separate_from_execution() {
    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q1(&w), &w.catalog, schema).expect("q1 prepares");
    w.server.reset_usage();
    let stats = p
        .statistics_by_sampling(&w.server, 5)
        .expect("sampling works");
    let sampling_cost = w.server.usage().total_cost();
    assert!(sampling_cost > 0.0, "sampling is charged");
    assert!(stats.preds[0].selectivity >= 0.0);

    // Execution measured from a clean slate is unaffected by sampling.
    w.server.reset_usage();
    let ctx = ExecContext::new(&w.server);
    let out = textjoin::core::methods::ts::tuple_substitution(&ctx, &p.foreign_join(), true)
        .expect("TS runs");
    assert_eq!(ticks(&out.report.text), ticks(&w.server.usage()));
}

#[test]
fn multi_join_outcome_cost_matches_components() {
    let w = world();
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let q5 = paper::q5(&w);
    for space in [
        ExecutionSpace::LeftDeep,
        ExecutionSpace::Prl,
        ExecutionSpace::PrlResiduals,
    ] {
        w.server.reset_usage();
        let (_, outcome) =
            plan_and_execute(&q5, &w.catalog, &w.server, params, space).expect("q5 runs");
        assert!(outcome.total_cost >= outcome.text.total_cost());
        assert!(outcome.total_cost.is_finite());
    }
}

/// On a lone server no leg overlaps another (there is no scatter phase),
/// so the virtual clock lays every leg end to end: the makespan, the
/// serial transport and the ledger's ticks are one number, for every
/// method on Q1–Q4 and for planned Q5 and Q6.
#[test]
fn a_lone_server_makespan_is_its_serial_transport_and_its_ledger_ticks() {
    use textjoin::core::sched::{SchedConfig, Scheduler};

    let w = world();
    let schema = w.server.collection().schema();
    let export = w.server.export_stats();
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let mut runs = 0;
    for q in [paper::q1(&w), paper::q2(&w), paper::q3(&w), paper::q4(&w)] {
        let p = prepare(&q, &w.catalog, schema).expect("paper query prepares");
        let stats = p.statistics_from_export(&export, schema);
        for cand in enumerate_methods(&params, &stats, q.projection, false) {
            for schedule in [ProbeSchedule::ProbeFirst, ProbeSchedule::Lazy] {
                let sched = Scheduler::new(SchedConfig::new(0x7E97));
                let ctx = ExecContext::new(&w.server).with_transport(&sched);
                let out = execute_single(&ctx, &p, &cand, schedule).expect("runs");
                let label = &cand.label;
                assert_eq!(sched.makespan(), sched.serial_total(), "{label}");
                assert_eq!(sched.makespan(), out.report.text.ticks(), "{label}");
                runs += 1;
            }
        }
    }
    assert!(runs >= 20, "every method ran on Q1–Q4 ({runs} runs)");
    for q in [paper::q5(&w), paper::q6(&w)] {
        let (_, out) = plan_and_execute(
            &q,
            &w.catalog,
            &w.server,
            params,
            ExecutionSpace::PrlResiduals,
        )
        .expect("planned query runs");
        assert!(out.text.ticks() > 0, "the plan reached the text system");
        assert_eq!(out.makespan, out.serial_transport);
        assert_eq!(out.makespan, out.text.ticks());
    }
}

/// The mid-flight budget guard compares integer ticks, so its boundary is
/// exact: under a ceiling equal to a query's charge the query finishes and
/// the next operation is still within budget; one tick lower, the query
/// still finishes (the guard refuses operations, it never interrupts one)
/// and the next charged operation is refused.
#[test]
fn the_budget_guard_refuses_one_tick_past_the_ceiling() {
    use textjoin::core::methods::ts::tuple_substitution;
    use textjoin::core::methods::CostCeiling;
    use textjoin::text::parse::parse_search;
    use textjoin::text::server::TextError;

    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();
    let charge = tuple_substitution(&ExecContext::new(&w.server), &fj, true)
        .expect("q3 runs")
        .report
        .text
        .ticks();
    let next = parse_search("TI='database'", schema).expect("parses");
    for (limit, refused) in [(charge, false), (charge - 1, true)] {
        let ctx = ExecContext {
            ceiling: Some(CostCeiling {
                baseline: w.server.usage().ticks(),
                limit,
            }),
            ..ExecContext::new(&w.server)
        };
        let out = tuple_substitution(&ctx, &fj, true).expect("the query finishes");
        assert_eq!(out.report.text.ticks(), charge);
        match ctx.search(&next) {
            Ok(_) => assert!(!refused, "limit {limit}: the overrun went unnoticed"),
            Err(TextError::BudgetExceeded { spent_ms, limit_ms }) => {
                assert!(refused, "limit {limit}: refused within budget");
                let ms = |t: u64| (t + 500_000) / 1_000_000;
                assert_eq!((spent_ms, limit_ms), (ms(charge), ms(limit)));
            }
            Err(e) => panic!("limit {limit}: unexpected {e}"),
        }
    }
}

#[test]
fn execution_spaces_agree_on_q5_answer() {
    let w = world();
    let params = CostParams::mercury(w.server.doc_count() as f64);
    let q5 = paper::q5(&w);
    let mut canon: Option<Vec<String>> = None;
    for space in [
        ExecutionSpace::LeftDeep,
        ExecutionSpace::Prl,
        ExecutionSpace::PrlResiduals,
    ] {
        let (_, outcome) =
            plan_and_execute(&q5, &w.catalog, &w.server, params, space).expect("q5 runs");
        let rows = canonical_rows(&outcome.table);
        match &canon {
            None => canon = Some(rows),
            Some(expected) => assert_eq!(&rows, expected, "space {space:?} differs"),
        }
    }
}

#[test]
fn term_cap_forces_sj_chunking_without_changing_answers() {
    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q2(&w), &w.catalog, schema).expect("q2 prepares");
    let ctx = ExecContext::new(&w.server);
    let unchunked =
        textjoin::core::methods::sj::semi_join(&ctx, &p.foreign_join()).expect("SJ runs");

    // Same collection under a tiny term cap.
    let mut small = textjoin::text::server::TextServer::new(w.server.collection().clone());
    small.set_max_terms(3);
    let ctx2 = ExecContext::new(&small);
    let chunked =
        textjoin::core::methods::sj::semi_join(&ctx2, &p.foreign_join()).expect("SJ runs");
    assert!(chunked.report.text.invocations > unchunked.report.text.invocations);
    assert_eq!(
        canonical_rows(&chunked.table),
        canonical_rows(&unchunked.table)
    );
}

#[test]
fn batch_extension_reduces_invocation_cost() {
    let w = world();
    let schema = w.server.collection().schema();
    let au = schema.field_by_name("author").expect("author field");
    let student = w.catalog.table("student").expect("student");
    let names: Vec<String> = student
        .iter()
        .take(10)
        .map(|r| {
            r.get(student.col("name"))
                .as_str()
                .expect("names are strings")
                .to_owned()
        })
        .collect();
    let exprs: Vec<textjoin::text::expr::SearchExpr> = names
        .iter()
        .map(|n| textjoin::text::expr::SearchExpr::term_in(n, au))
        .collect();

    w.server.reset_usage();
    let batch = w.server.search_batch(&exprs).expect("batch runs");
    let batched = w.server.usage();
    assert_eq!(batch.results.len(), 10);

    w.server.reset_usage();
    for e in &exprs {
        w.server.search(e).expect("search runs");
    }
    let separate = w.server.usage();
    let (batched_cost, separate_cost) = (batched.total_cost(), separate.total_cost());
    assert!(
        batched_cost < separate_cost,
        "batching must amortize invocations: {batched_cost} vs {separate_cost}"
    );
    // Exactly 9 invocation charges rebated, and the duplicate short forms.
    let saved = separate.since(&batched);
    assert_eq!(
        (
            saved.invocations,
            saved.ns_invocation,
            saved.postings_processed
        ),
        (9, 9 * 3_000_000_000, 0),
        "rebate = 9 × c_i"
    );
    assert_eq!(saved.ns_transmission, 15_000_000 * saved.docs_short);
}

#[test]
fn stats_export_eliminates_probe_invocations() {
    // Section 8: with exported vocabulary statistics, single-column probe
    // questions are answered for free.
    let w = world();
    let export = w.server.export_stats();
    let au = w
        .server
        .collection()
        .schema()
        .field_by_name("author")
        .expect("author");
    w.server.reset_usage();
    let student = w.catalog.table("student").expect("student");
    let mut occurs = 0;
    for r in student.iter() {
        let name = r.get(student.col("name")).as_str().expect("string");
        let word = textjoin::text::token::normalize_word(name);
        if export.occurs(&word, au) {
            occurs += 1;
        }
    }
    assert!(occurs > 0, "some students publish");
    assert_eq!(
        w.server.usage().invocations,
        0,
        "no probes were sent to answer occurrence questions"
    );
}

// ---------------------------------------------------------------------
// Sharded scatter/gather accounting
// ---------------------------------------------------------------------

#[test]
fn sharded_answers_match_single_server_with_per_shard_invoice() {
    use textjoin::text::shard::ShardedTextServer;
    use textjoin::text::TextService;

    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();

    // Plain server baseline.
    w.server.reset_usage();
    let ctx = ExecContext::new(&w.server);
    let plain = textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true).expect("TS runs");

    // Same join over 4 shards: identical multiset, n_shards × the
    // invocation count (every logical search scatters to every shard).
    const N_SHARDS: u64 = 4;
    let sharded = ShardedTextServer::new(w.server.collection(), N_SHARDS as usize, 0x5AD);
    let sctx = ExecContext::new(&sharded);
    let out =
        textjoin::core::methods::ts::tuple_substitution(&sctx, &fj, true).expect("sharded TS runs");
    assert_eq!(
        canonical_rows(&out.table),
        canonical_rows(&plain.table),
        "sharding must not change the join answer"
    );
    let agg = sharded.usage();
    assert_eq!(
        agg.invocations,
        N_SHARDS * plain.report.text.invocations,
        "each logical search is invoiced once per shard"
    );
    // Transmissions are partitioned, not duplicated: the same documents
    // come back, each from exactly one shard.
    assert_eq!(agg.docs_short, plain.report.text.docs_short);
    assert_eq!(agg.docs_long, plain.report.text.docs_long);
    // Postings are partitioned too, and may come in *under* the single
    // server: a shard whose sublist for the first conjunct is empty
    // short-circuits its AND before reading the remaining lists.
    assert!(agg.postings_processed <= plain.report.text.postings_processed);
}

#[test]
fn sharded_aggregate_ledger_is_exactly_the_sum_of_shard_ledgers() {
    use textjoin::text::shard::ShardedTextServer;
    use textjoin::text::TextService;

    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q4(&w), &w.catalog, schema).expect("q4 prepares");
    let fj = p.foreign_join();

    let sharded = ShardedTextServer::new(w.server.collection(), 4, 0x5AD);
    let ctx = ExecContext::new(&sharded);
    let out =
        textjoin::core::methods::probe::probe_rtp(&ctx, &fj, &[0]).expect("sharded P+RTP runs");

    // Fault-free run: the aggregate ledger decomposes exactly into the
    // sum of the per-shard ledgers — no hidden charges, nothing dropped.
    let agg = sharded.usage();
    let mut sum_inv = 0u64;
    let mut sum_ticks = 0;
    for i in 0..sharded.shard_count() {
        let su = sharded.shard_usage(i);
        assert!(su.invocations > 0, "shard {i} took part in the scatter");
        sum_inv += su.invocations;
        sum_ticks += ticks(&su);
    }
    assert_eq!(agg.invocations, sum_inv);
    assert_eq!(ticks(&agg), sum_ticks);

    // And the method report's exact decomposition still holds on the
    // aggregate: shard charges + backoff + c_a × comparisons.
    let u = &out.report.text;
    assert_eq!(ticks(u), mercury_ticks(u));
    assert_eq!(
        out.report.ticks(),
        ticks(u) + 10_000 * out.report.rtp_comparisons
    );
}

#[test]
fn replicated_backoff_lands_in_both_the_aggregate_and_the_shard_invoice() {
    use textjoin::core::retry::{RetryBudget, RetryPolicy};
    use textjoin::text::faults::FaultPlan;
    use textjoin::text::shard::ShardedTextServer;
    use textjoin::text::TextService;

    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();

    // 4 shards × 2 replicas with shard 2's primary permanently dead:
    // every scatter to shard 2 pays failover retries and backoff.
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let dead = s.primary_of(2);
    s.replica_mut(2, dead).set_fault_plan(FaultPlan::dead(77));
    // Backoff charged through both entry points — the legacy shard-level
    // one (lands on the primary) and the replica-level one failover legs
    // use — before the organic workload runs on top.
    s.charge_shard_backoff(1, 2.5);
    s.charge_replica_backoff(3, 1, 4.0);
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(&s, &budget);
    let out = textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true)
        .expect("failover absorbs the dead primary");

    // The answer is still the unreplicated answer.
    let plain =
        textjoin::core::methods::ts::tuple_substitution(&ExecContext::new(&w.server), &fj, true)
            .expect("plain TS runs");
    assert_eq!(canonical_rows(&out.table), canonical_rows(&plain.table));

    // The no-drift pin for charge_shard_backoff / charge_replica_backoff:
    // because the shard invoice sums every replica of the shard and the
    // aggregate sums the same ledgers, retries and backoff land in both
    // views at once — the aggregate must equal the shard-invoice sum
    // field for field, manual charges and failover charges alike.
    let agg = s.usage();
    let mut sum = Usage::default();
    for i in 0..s.shard_count() {
        sum.accumulate(&s.shard_usage(i));
    }
    assert_eq!(agg.retries, sum.retries, "retries cannot drift");
    assert_eq!(agg.ns_backoff, sum.ns_backoff, "backoff cannot drift");
    assert!(
        agg.retries > 2,
        "the dead primary forced organic retries too"
    );
    assert!(
        agg.ns_backoff > 6_500_000_000,
        "manual 6.5s + organic failover backoff"
    );
}

#[test]
fn cancelled_hedge_rebate_keeps_every_accounting_view_in_agreement() {
    use textjoin::core::retry::{RetryBudget, RetryPolicy};
    use textjoin::core::sched::{SchedConfig, Scheduler};
    use textjoin::text::faults::FaultPlan;
    use textjoin::text::shard::ShardedTextServer;
    use textjoin::text::TextService;

    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q3(&w), &w.catalog, schema).expect("q3 prepares");
    let fj = p.foreign_join();

    // 4 shards × 2 replicas, every primary on a latency-only slow plan:
    // primaries always answer, but slow legs race a hedge read on the
    // secondary and the loser's whole charge is rebated mid-flight.
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    for i in 0..s.shard_count() {
        let pri = s.primary_of(i);
        s.replica_mut(i, pri)
            .set_fault_plan(FaultPlan::slow(0xC0DE + i as u64, 0.5));
    }
    let budget = RetryBudget::new(RetryPolicy::standard());
    let sched = Scheduler::new(SchedConfig::new(0x7E97));
    let before = s.usage();
    let ctx = ExecContext::with_budget(&s, &budget).with_transport(&sched);
    let out = textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true)
        .expect("slow replicas never fail the join");

    // The machinery under test actually engaged, and every race had
    // exactly one cancelled loser.
    assert!(
        sched.hedges() > 0,
        "no hedge fired — the slow plan is too tame"
    );
    assert_eq!(sched.hedges(), sched.cancels());

    // Same answer as the unreplicated baseline.
    let plain =
        textjoin::core::methods::ts::tuple_substitution(&ExecContext::new(&w.server), &fj, true)
            .expect("plain TS runs");
    assert_eq!(canonical_rows(&out.table), canonical_rows(&plain.table));

    // View 1 vs view 2: the method's reported ledger must equal the
    // external `Usage::since` delta even though race losers were charged
    // and then rebated inside the measurement window.
    let delta = s.usage().since(&before);
    assert_eq!(delta.invocations, out.report.text.invocations);
    assert_eq!(delta.docs_short, out.report.text.docs_short);
    assert_eq!(delta.docs_long, out.report.text.docs_long);
    assert_eq!(ticks(&delta), ticks(&out.report.text));

    // View 3: the aggregate ledger is exactly the sum of the per-shard
    // invoices — a rebate is an inverse charge on the loser's replica,
    // not a hidden aggregate-side adjustment.
    let agg = s.usage();
    let mut sum = Usage::default();
    for i in 0..s.shard_count() {
        sum.accumulate(&s.shard_usage(i));
    }
    assert_eq!(agg.invocations, sum.invocations);
    assert_eq!(agg.docs_short, sum.docs_short);
    assert_eq!(agg.docs_long, sum.docs_long);
    assert_eq!(ticks(&agg), ticks(&sum));

    // The exact cost decomposition of CLAUDE.md still holds on the
    // post-rebate ledger: server charges + c_a × comparisons.
    let u = &out.report.text;
    assert_eq!(ticks(u), mercury_ticks(u));
    assert_eq!(
        out.report.ticks(),
        ticks(u) + 10_000 * out.report.rtp_comparisons
    );
}

#[test]
fn migration_charges_land_in_a_dedicated_bucket_disjoint_from_queries() {
    use textjoin::text::doc::DocId;
    use textjoin::text::rebalance::{MigrationPlan, Move};
    use textjoin::text::shard::ShardedTextServer;
    use textjoin::text::TextService;

    let w = world();
    let schema = w.server.collection().schema();
    let p = prepare(&paper::q1(&w), &w.catalog, schema).expect("q1 prepares");
    let fj = p.foreign_join();

    let mut s = ShardedTextServer::new(w.server.collection(), 4, 0x5AD);
    let n = w.server.collection().doc_count() as u32;
    s.begin_migration(MigrationPlan::new(
        vec![Move {
            range: (DocId(0), DocId(n)),
            src: 1,
            dst: 3,
        }],
        32,
    ));
    s.set_migration_pacing(3);

    // A query runs while transfer batches interleave with its legs.
    let ctx = ExecContext::new(&s);
    let out = textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true)
        .expect("TS runs mid-migration");
    s.run_migration().expect("fault-free migration completes");

    // The migration bucket is non-trivial and carries the transfer shape:
    // a source leg per batch (c_l per doc) and a destination leg per
    // batch (c_p per posting), each one invocation.
    let mig = s.migration_usage();
    assert!(mig.invocations > 0, "transfers charge invocations");
    assert!(mig.docs_long > 0, "the source leg buys long forms");
    assert!(
        mig.postings_processed > 0,
        "the destination leg ingests postings"
    );
    assert_eq!(mig.docs_short, 0, "no short forms move in a transfer");
    assert_eq!(mig.faults, 0, "fault-free run");
    assert_eq!(
        ticks(&mig),
        3_000_000_000 * mig.invocations
            + 10_000 * mig.postings_processed
            + 4_000_000_000 * mig.docs_long,
        "the migration bucket decomposes into c_i/c_p/c_l charges exactly"
    );

    // Disjointness: the aggregate ledger is exactly the per-shard query
    // invoices plus the migration bucket — transfers never leak into a
    // shard invoice, and queries never leak into the migration bucket.
    let agg = s.usage();
    let mut queries = Usage::default();
    for i in 0..s.shard_count() {
        queries.accumulate(&s.shard_usage(i));
    }
    assert_eq!(agg.invocations, queries.invocations + mig.invocations);
    assert_eq!(agg.docs_long, queries.docs_long + mig.docs_long);
    assert_eq!(
        agg.postings_processed,
        queries.postings_processed + mig.postings_processed
    );
    assert_eq!(ticks(&agg), ticks(&queries) + ticks(&mig));

    // The method's reported ledger (a `Usage::since` delta over the
    // aggregate) still decomposes exactly, with the paced transfer legs
    // it triggered priced by the same constants.
    let u = &out.report.text;
    assert_eq!(ticks(u), mercury_ticks(u));

    // After the drain, further queries grow only the query invoices: the
    // migration bucket is frozen.
    let frozen = s.migration_usage();
    let _ = textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true)
        .expect("TS runs after migration");
    let after = s.migration_usage();
    assert_eq!(after.invocations, frozen.invocations);
    assert_eq!(ticks(&after), ticks(&frozen));
}

#[test]
fn serve_aggregate_decomposes_into_tenant_invoices_plus_migration() {
    use textjoin::core::serve::{Backend, ServeConfig, ServeSession, TenantSpec};
    use textjoin::obs::MonitorConfig;
    use textjoin::text::faults::FaultPlan;
    use textjoin::text::shard::ShardedTextServer;

    let w = world();
    let params = CostParams::mercury(w.server.doc_count() as f64);
    // A degraded hot shard so the session's monitor derives advice and
    // the auto-rebalance path actually bills the migration bucket.
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    for r in 0..2 {
        s.replica_mut(1, r).set_fault_plan(FaultPlan::transient(
            0x5EA7 ^ ((r as u64) << 32),
            0.35,
            2,
        ));
    }
    let mut cfg = ServeConfig::new(params);
    cfg.quantum = 1e9;
    cfg.monitor = Some(MonitorConfig::new(100.0).with_skew(400_000, 320_000));
    cfg.migration_budget = 1e9;
    let tenants = vec![
        TenantSpec::new("a", 1e9, 1),
        TenantSpec::new("b", 1e9, 1),
        TenantSpec::new("c", 1e9, 1),
    ];
    let q5 = paper::q5(&w);
    let q6 = paper::q6(&w);
    let stream: Vec<_> = (0..9)
        .map(|i| (i % 3, if i % 2 == 0 { q5.clone() } else { q6.clone() }))
        .collect();
    let report = ServeSession::new(Backend::Elastic(&mut s), &w.catalog, tenants, cfg).run(&stream);

    assert!(
        report.migration.invocations > 0,
        "the fixture must exercise the migration bucket"
    );
    // Field-for-field: aggregate = Σ tenant invoices + migration bucket.
    // Every field exact, times included.
    let mut sum = Usage::default();
    for t in &report.tenants {
        sum.accumulate(&t.invoice);
    }
    sum.accumulate(&report.migration);
    let a = &report.aggregate;
    assert_eq!(a.invocations, sum.invocations);
    assert_eq!(a.rejected, sum.rejected);
    assert_eq!(a.postings_processed, sum.postings_processed);
    assert_eq!(a.docs_short, sum.docs_short);
    assert_eq!(a.docs_long, sum.docs_long);
    assert_eq!(a.faults, sum.faults);
    assert_eq!(a.retries, sum.retries);
    assert_eq!(a.ns_invocation, sum.ns_invocation);
    assert_eq!(a.ns_processing, sum.ns_processing);
    assert_eq!(a.ns_transmission, sum.ns_transmission);
    assert_eq!(a.ns_backoff, sum.ns_backoff);
    assert_eq!(a.total_cost(), sum.total_cost());

    // And each tenant invoice still prices by the server's constants:
    // c_i/c_p/c_s/c_l plus backoff, nothing else.
    for t in &report.tenants {
        let u = &t.invoice;
        assert_eq!(
            ticks(u),
            mercury_ticks(u),
            "tenant {} invoice must decompose into server constants",
            t.name
        );
    }
}
