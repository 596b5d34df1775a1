//! Integration: every join method agrees with a brute-force oracle.
//!
//! The oracle evaluates the foreign join by scanning every (tuple,
//! document) pair directly against the collection — no inverted index, no
//! search API — using the same normalized term-containment semantics. Any
//! divergence between a method and the oracle is a correctness bug in the
//! index, the evaluator, the method, or the string matcher.

use textjoin::core::methods::probe::ProbeSchedule;
use textjoin::core::methods::{ExecContext, ForeignJoin, Projection, TextSelection};
use textjoin::rel::strmatch::contains_term;
use textjoin::rel::table::Table;
use textjoin::text::doc::DocId;
use textjoin::text::server::TextServer;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

/// All (tuple index, docid) pairs the join should produce, by direct scan.
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

/// Projects oracle pairs the way the method output is shaped, as sorted
/// strings.
fn oracle_shape(fj: &ForeignJoin<'_>, pairs: &[(usize, DocId)]) -> Vec<String> {
    let mut rows: Vec<String> = match fj.projection {
        Projection::RelOnly => {
            let mut tuples: Vec<usize> = pairs.iter().map(|&(t, _)| t).collect();
            tuples.dedup();
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

fn check_all_methods(fj: &ForeignJoin<'_>, server: &TextServer) {
    let expected = oracle_shape(fj, &oracle_pairs(fj, server));
    let ctx = ExecContext::new(server);

    let mut results: Vec<(String, Vec<String>)> = Vec::new();
    results.push((
        "TS".into(),
        method_shape(
            fj,
            &textjoin::core::methods::ts::tuple_substitution(&ctx, fj, true)
                .expect("TS runs")
                .table,
        ),
    ));
    results.push((
        "TS-naive".into(),
        method_shape(
            fj,
            &textjoin::core::methods::ts::tuple_substitution(&ctx, fj, false)
                .expect("TS naive runs")
                .table,
        ),
    ));
    if !fj.selections.is_empty() {
        results.push((
            "RTP".into(),
            method_shape(
                fj,
                &textjoin::core::methods::rtp::relational_text_processing(&ctx, fj)
                    .expect("RTP runs")
                    .table,
            ),
        ));
    }
    results.push((
        "SJ".into(),
        method_shape(
            fj,
            &textjoin::core::methods::sj::semi_join(&ctx, fj)
                .expect("SJ runs")
                .table,
        ),
    ));
    for probe in [vec![0], (0..fj.k()).collect::<Vec<_>>()] {
        for schedule in [ProbeSchedule::ProbeFirst, ProbeSchedule::Lazy] {
            results.push((
                format!("P{probe:?}+TS/{schedule:?}"),
                method_shape(
                    fj,
                    &textjoin::core::methods::probe::probe_tuple_substitution(
                        &ctx, fj, &probe, schedule,
                    )
                    .expect("P+TS runs")
                    .table,
                ),
            ));
        }
        results.push((
            format!("P{probe:?}+RTP"),
            method_shape(
                fj,
                &textjoin::core::methods::probe::probe_rtp(&ctx, fj, &probe)
                    .expect("P+RTP runs")
                    .table,
            ),
        ));
    }
    for (label, got) in results {
        assert_eq!(
            got, expected,
            "{label} disagrees with the brute-force oracle"
        );
    }
}

fn worlds() -> Vec<World> {
    [7u64, 11, 23]
        .into_iter()
        .map(|seed| {
            World::generate(WorldSpec {
                seed,
                background_docs: 150,
                students: 40,
                projects: 12,
                ..WorldSpec::default()
            })
        })
        .collect()
}

#[test]
fn q3_all_methods_match_oracle_full() {
    for w in worlds() {
        let p = textjoin::core::query::prepare(
            &paper::q3(&w),
            &w.catalog,
            w.server.collection().schema(),
        )
        .expect("q3 prepares");
        check_all_methods(&p.foreign_join(), &w.server);
    }
}

#[test]
fn q4_all_methods_match_oracle_all_projections() {
    for w in worlds() {
        for projection in [Projection::RelOnly, Projection::DocIds, Projection::Full] {
            let mut q = paper::q4(&w);
            q.projection = projection;
            let p = textjoin::core::query::prepare(&q, &w.catalog, w.server.collection().schema())
                .expect("q4 prepares");
            check_all_methods(&p.foreign_join(), &w.server);
        }
    }
}

#[test]
fn q1_with_selection_matches_oracle() {
    for w in worlds() {
        let p = textjoin::core::query::prepare(
            &paper::q1(&w),
            &w.catalog,
            w.server.collection().schema(),
        )
        .expect("q1 prepares");
        let fj = p.foreign_join();
        // q1 has one join predicate; only single-predicate probes apply.
        let expected = oracle_shape(&fj, &oracle_pairs(&fj, &w.server));
        let ctx = ExecContext::new(&w.server);
        let ts = method_shape(
            &fj,
            &textjoin::core::methods::ts::tuple_substitution(&ctx, &fj, true)
                .expect("TS runs")
                .table,
        );
        let rtp = method_shape(
            &fj,
            &textjoin::core::methods::rtp::relational_text_processing(&ctx, &fj)
                .expect("RTP runs")
                .table,
        );
        assert_eq!(ts, expected);
        assert_eq!(rtp, expected);
    }
}

/// The acceptance grid for the deterministic transport: every method, on a
/// 4-shard × 2-replica server whose every primary runs slow, under an
/// adaptive budget (hedged reads racing the stragglers), a virtual-time
/// scheduler, and a deliberately tight per-query deadline — and still every
/// method returns exactly the brute-force multiset, no deadline miss
/// escapes as an error, and the concurrent makespan lands strictly below
/// the serial transport time.
#[test]
fn all_methods_match_oracle_under_slow_replicas_hedging_and_deadlines() {
    use textjoin::core::retry::{RetryBudget, RetryPolicy};
    use textjoin::core::sched::{SchedConfig, Scheduler};
    use textjoin::text::faults::FaultPlan;
    use textjoin::text::shard::ShardedTextServer;

    let mut hedges = 0u64;
    let mut misses = 0u64;
    for w in worlds() {
        // q1 carries both a text selection and a join predicate, so all
        // five methods (including RTP, which requires a selection) apply.
        let p = textjoin::core::query::prepare(
            &paper::q1(&w),
            &w.catalog,
            w.server.collection().schema(),
        )
        .expect("q1 prepares");
        let fj = p.foreign_join();
        let expected = oracle_shape(&fj, &oracle_pairs(&fj, &w.server));

        type MethodRun<'a> = Box<dyn Fn(&ExecContext<'_>) -> Table + 'a>;
        let runs: Vec<(&str, MethodRun<'_>)> = vec![
            (
                "TS",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::ts::tuple_substitution(ctx, &fj, true)
                        .expect("TS survives slow replicas")
                        .table
                }),
            ),
            (
                "RTP",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::rtp::relational_text_processing(ctx, &fj)
                        .expect("RTP survives slow replicas")
                        .table
                }),
            ),
            (
                "SJ",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::sj::semi_join(ctx, &fj)
                        .expect("SJ survives slow replicas")
                        .table
                }),
            ),
            (
                "P+TS",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::probe::probe_tuple_substitution(
                        ctx,
                        &fj,
                        &[0],
                        ProbeSchedule::ProbeFirst,
                    )
                    .expect("P+TS survives slow replicas")
                    .table
                }),
            ),
            (
                "P+RTP",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::probe::probe_rtp(ctx, &fj, &[0])
                        .expect("P+RTP survives slow replicas")
                        .table
                }),
            ),
        ];
        for (label, run) in &runs {
            let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
            for i in 0..s.shard_count() {
                let pri = s.primary_of(i);
                s.replica_mut(i, pri)
                    .set_fault_plan(FaultPlan::slow(0xBEEF ^ ((i as u64) << 16), 0.2));
            }
            let budget = RetryBudget::new(RetryPolicy::standard());
            let sched = Scheduler::new(SchedConfig::new(0x7E97).with_deadline(40.0));
            let ctx = ExecContext::with_budget(&s, &budget).with_transport(&sched);
            let table = run(&ctx);
            assert_eq!(
                method_shape(&fj, &table),
                expected,
                "{label} under slow replicas + hedging + deadline disagrees with the oracle"
            );
            assert!(
                sched.makespan() < sched.serial_total(),
                "{label}: concurrent makespan must beat the serial transport"
            );
            hedges += sched.hedges();
            misses += sched.deadline_misses();
        }
    }
    assert!(hedges > 0, "the slow primaries never provoked a hedge");
    assert!(misses > 0, "the 40s deadline never bit");
}

/// The rebalance acceptance grid: every method runs while a paced online
/// migration drains shard 1 into shard 3 on a 4-shard × 2-replica server
/// whose source primary dies permanently after the first committed batch.
/// Every method must return exactly the brute-force multiset even though
/// rows physically move between shards mid-query (transfer legs drain via
/// the surviving replica, gathers re-scatter on epoch bumps), and the
/// migration must then drain to completion with every move committed.
#[test]
fn all_methods_match_oracle_mid_migration_with_dead_source() {
    use textjoin::core::retry::{RetryBudget, RetryPolicy};
    use textjoin::text::doc::DocId;
    use textjoin::text::faults::FaultPlan;
    use textjoin::text::rebalance::{MigrationPlan, Move, MoveStatus};
    use textjoin::text::shard::ShardedTextServer;

    for w in worlds() {
        let p = textjoin::core::query::prepare(
            &paper::q1(&w),
            &w.catalog,
            w.server.collection().schema(),
        )
        .expect("q1 prepares");
        let fj = p.foreign_join();
        let expected = oracle_shape(&fj, &oracle_pairs(&fj, &w.server));

        type MethodRun<'a> = Box<dyn Fn(&ExecContext<'_>) -> Table + 'a>;
        let runs: Vec<(&str, MethodRun<'_>)> = vec![
            (
                "TS",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::ts::tuple_substitution(ctx, &fj, true)
                        .expect("TS survives migration")
                        .table
                }),
            ),
            (
                "RTP",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::rtp::relational_text_processing(ctx, &fj)
                        .expect("RTP survives migration")
                        .table
                }),
            ),
            (
                "SJ",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::sj::semi_join(ctx, &fj)
                        .expect("SJ survives migration")
                        .table
                }),
            ),
            (
                "P+TS",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::probe::probe_tuple_substitution(
                        ctx,
                        &fj,
                        &[0],
                        ProbeSchedule::ProbeFirst,
                    )
                    .expect("P+TS survives migration")
                    .table
                }),
            ),
            (
                "P+RTP",
                Box::new(|ctx: &ExecContext<'_>| {
                    textjoin::core::methods::probe::probe_rtp(ctx, &fj, &[0])
                        .expect("P+RTP survives migration")
                        .table
                }),
            ),
        ];
        for (label, run) in &runs {
            let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
            let n = w.server.collection().doc_count() as u32;
            s.begin_migration(MigrationPlan::new(
                vec![Move {
                    range: (DocId(0), DocId(n)),
                    src: 1,
                    dst: 3,
                }],
                16,
            ));
            // Batch 1 commits cleanly, then the source primary dies: every
            // further source transfer leg must fail over to the replica.
            s.migrate_batch().expect("fault-free first batch");
            let pri = s.primary_of(1);
            s.replica_mut(1, pri)
                .set_fault_plan(FaultPlan::dead(0xDEAD));
            s.set_migration_pacing(2);
            let budget = RetryBudget::new(RetryPolicy::standard());
            let ctx = ExecContext::with_budget(&s, &budget);
            let table = run(&ctx);
            assert_eq!(
                method_shape(&fj, &table),
                expected,
                "{label} mid-migration disagrees with the brute-force oracle"
            );
            let mut steps = 0u32;
            while !s.journal().expect("journal exists").finished() {
                let _ = s.migrate_batch();
                steps += 1;
                assert!(steps < 10_000, "{label}: migration failed to drain");
            }
            assert!(
                s.journal()
                    .expect("journal exists")
                    .entries
                    .iter()
                    .all(|e| e.status == MoveStatus::Done),
                "{label}: a move aborted under a recoverable dead primary"
            );
        }
    }
}

#[test]
fn selections_only_probe_consistency() {
    // A selection-only query (no join predicates is invalid for methods,
    // but a probe on one predicate with a selection must honor both).
    let w = &worlds()[0];
    let schema = w.server.collection().schema();
    let q = textjoin::core::query::SingleJoinQuery {
        relation: "student".into(),
        local_pred: textjoin::rel::expr::Pred::True,
        selections: vec![("1993".into(), "year".into())],
        join: vec![("name".into(), "author".into())],
        projection: Projection::RelOnly,
    };
    let p = textjoin::core::query::prepare(&q, &w.catalog, schema).expect("prepares");
    check_all_methods(&p.foreign_join(), &w.server);
    let _ = TextSelection {
        term: "1993".into(),
        field: schema.field_by_name("year").expect("year field"),
    };
}
