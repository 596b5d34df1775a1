//! Tuple substitution (TS) — paper, Section 3.1.
//!
//! A nested-loop join with the relation as the outer operand: every tuple
//! is substituted into the foreign join predicates, turning them into
//! selection conditions the text system can evaluate. The default variant
//! sends one search per **distinct** projection of the relation onto the
//! join columns (the paper's improvement over naive per-tuple invocation);
//! the naive variant is kept for the ablation bench.

use textjoin_rel::ops::group_by;
use textjoin_rel::table::Rows;
use textjoin_text::expr::SearchExpr;

use super::{fetch_for_projection, report, ExecContext, ForeignJoin, MethodError, MethodOutcome};

/// Runs tuple substitution. With `distinct = true` (the default used by the
/// optimizer), one search is sent per distinct join-column key; all tuples
/// sharing the key reuse its result.
pub fn tuple_substitution<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
    distinct: bool,
) -> Result<MethodOutcome, MethodError> {
    fj.validate()?;
    if fj.join_cols.is_empty() {
        return Err(MethodError::NotApplicable(
            "TS needs at least one foreign join predicate".into(),
        ));
    }
    let start = ctx.invoice.get();
    let _method_span = ctx.span(if distinct { "TS" } else { "TS-naive" });
    let text_schema = ctx.server.schema();
    let mut out = fj.output_table(text_schema, "TS");
    let all = fj.all_preds();

    // Group rows by join-column key; a singleton group per row for naive.
    let groups: Vec<Vec<usize>> = if distinct {
        group_by(fj.rel, &fj.join_cols)
            .into_iter()
            .map(|(_, idx)| idx)
            .collect()
    } else {
        (0..fj.rel.len()).map(|i| vec![i]).collect()
    };

    let _phase_span = ctx.span("substitution");
    for rows in groups {
        let first = rows[0];
        let Some(expr) = fj.instantiated_search(first, &all) else {
            continue; // NULL/empty join value: cannot match, no search sent
        };
        let result = ctx.search(&expr)?;
        if result.is_empty() {
            continue;
        }
        let docs = fetch_for_projection(ctx, fj, result.docs.ids())?;
        for &ri in &rows {
            fj.emit(&mut out, text_schema, ri, &docs);
        }
    }

    let rows = out.len();
    Ok(MethodOutcome {
        table: out,
        report: report(
            if distinct { "TS" } else { "TS-naive" },
            ctx,
            &start,
            0,
            rows,
        ),
    })
}

/// Tuple substitution over the **batched** search interface — the
/// Section 8 extension ("if text systems provide the ability to accept
/// multiple queries in one invocation … invocation and possibly
/// transmission costs for the queries will be reduced").
///
/// Semantically identical to [`tuple_substitution`] with `distinct = true`;
/// the per-key searches are shipped in batches of `batch_size` (each query
/// still bounded by the term cap `M`), so the invocation charge drops from
/// one per key to one per batch, and duplicate documents within a batch
/// ship once.
pub fn tuple_substitution_batched<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
    batch_size: usize,
) -> Result<MethodOutcome, MethodError> {
    fj.validate()?;
    if fj.join_cols.is_empty() {
        return Err(MethodError::NotApplicable(
            "TS needs at least one foreign join predicate".into(),
        ));
    }
    if batch_size == 0 {
        return Err(MethodError::NotApplicable(
            "batch size must be positive".into(),
        ));
    }
    let start = ctx.invoice.get();
    let _method_span = ctx.span("TS-batch");
    let text_schema = ctx.server.schema();
    let mut out = fj.output_table(text_schema, "TS-batch");
    let all = fj.all_preds();

    // One (expr, source rows) per distinct key, like distinct TS.
    let package_span = ctx.span("package");
    let mut units: Vec<(SearchExpr, Vec<usize>)> = Vec::new();
    for (_, rows) in group_by(fj.rel, &fj.join_cols) {
        let first = rows[0];
        if let Some(expr) = fj.instantiated_search(first, &all) {
            units.push((expr, rows));
        }
    }
    drop(package_span);

    let _phase_span = ctx.span("substitution");
    for chunk in units.chunks(batch_size) {
        let exprs: Vec<SearchExpr> = chunk.iter().map(|(e, _)| e.clone()).collect();
        let batch = ctx.search_batch(&exprs)?;
        for ((_, rows), result) in chunk.iter().zip(&batch.results) {
            if result.is_empty() {
                continue;
            }
            let docs = fetch_for_projection(ctx, fj, result.docs.ids())?;
            for &ri in rows {
                fj.emit(&mut out, text_schema, ri, &docs);
            }
        }
    }

    let rows = out.len();
    Ok(MethodOutcome {
        table: out,
        report: report("TS-batch", ctx, &start, 0, rows),
    })
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{corpus, student};
    use super::super::{ForeignJoin, Projection, TextSelection};
    use super::*;
    use textjoin_rel::table::Table;
    use textjoin_rel::tuple;
    use textjoin_rel::value::ValueType;
    use textjoin_text::server::TextServer;
    use textjoin_text::server::Usage;

    fn join<'a>(
        rel: &'a Table,
        server: &TextServer,
        projection: Projection,
        with_selection: bool,
    ) -> ForeignJoin<'a> {
        let ts = server.collection().schema();
        ForeignJoin {
            rel,
            join_cols: vec![rel.col("name")],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: if with_selection {
                vec![TextSelection {
                    term: "text".into(),
                    field: ts.field_by_name("title").unwrap(),
                }]
            } else {
                vec![]
            },
            projection,
        }
    }

    #[test]
    fn ts_joins_students_to_their_docs() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = join(&rel, &server, Projection::Full, false);
        let out = tuple_substitution(&ctx, &fj, true).unwrap();
        // Gravano→doc0, Kao→doc1, Pham→doc2, DeSmedt→none
        assert_eq!(out.table.len(), 3);
        assert_eq!(out.report.output_rows, 3);
        // One search per distinct name (4 distinct names).
        assert_eq!(out.report.text.invocations, 4);
        // Full projection retrieved 3 long forms.
        assert_eq!(out.report.text.docs_long, 3);
    }

    #[test]
    fn ts_with_selection_filters() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = join(&rel, &server, Projection::RelOnly, true);
        let out = tuple_substitution(&ctx, &fj, true).unwrap();
        // Only Gravano and Kao have docs with 'text' in the title.
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.report.text.docs_long, 0, "RelOnly ships no long forms");
    }

    #[test]
    fn distinct_variant_saves_searches() {
        let schema = textjoin_rel::schema::RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("dept", ValueType::Str),
        ]);
        let mut rel = Table::new("r", schema);
        rel.push(tuple!["Garcia", "CS"]);
        rel.push(tuple!["Garcia", "EE"]); // same join key, different tuple
        rel.push(tuple!["Kao", "CS"]);

        let server = corpus();
        let ts = server.collection().schema();
        let mk = |projection| ForeignJoin {
            rel: &rel,
            join_cols: vec![rel.col("name")],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: vec![],
            projection,
        };
        let ctx = ExecContext::new(&server);
        let out = tuple_substitution(&ctx, &mk(Projection::RelOnly), true).unwrap();
        assert_eq!(out.report.text.invocations, 2, "2 distinct names");
        // Both Garcia rows emitted (Garcia matches doc0 and doc3).
        assert_eq!(out.table.len(), 3);

        let server2 = corpus();
        let ts2 = server2.collection().schema();
        let fj2 = ForeignJoin {
            rel: &rel,
            join_cols: vec![rel.col("name")],
            join_fields: vec![ts2.field_by_name("author").unwrap()],
            selections: vec![],
            projection: Projection::RelOnly,
        };
        let ctx2 = ExecContext::new(&server2);
        let naive = tuple_substitution(&ctx2, &fj2, false).unwrap();
        assert_eq!(naive.report.text.invocations, 3, "naive sends per tuple");
        assert_eq!(naive.table.len(), out.table.len(), "same result");
    }

    #[test]
    fn docids_projection_emits_per_match() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = join(&rel, &server, Projection::DocIds, false);
        let out = tuple_substitution(&ctx, &fj, true).unwrap();
        // Gravano→doc0, Kao→doc1, Pham→doc2 = 3 docid rows
        assert_eq!(out.table.len(), 3);
        assert_eq!(out.table.schema().len(), 1);
    }

    #[test]
    fn two_predicate_join() {
        let rel = student();
        let server = corpus();
        let ts = server.collection().schema();
        // name in author AND advisor in author (co-authored with advisor)
        let fj = ForeignJoin {
            rel: &rel,
            join_cols: vec![rel.col("name"), rel.col("advisor")],
            join_fields: vec![
                ts.field_by_name("author").unwrap(),
                ts.field_by_name("author").unwrap(),
            ],
            selections: vec![],
            projection: Projection::RelOnly,
        };
        let ctx = ExecContext::new(&server);
        let out = tuple_substitution(&ctx, &fj, true).unwrap();
        // Only Gravano co-authored with Garcia (doc0).
        assert_eq!(out.table.len(), 1);
        assert_eq!(
            out.table.rows()[0].get(rel.col("name")).as_str(),
            Some("Gravano")
        );
    }

    #[test]
    fn batched_ts_same_answer_fewer_invocations() {
        let rel = student();
        let s1 = corpus();
        let ctx1 = ExecContext::new(&s1);
        let fj1 = join(&rel, &s1, Projection::Full, false);
        let plain = tuple_substitution(&ctx1, &fj1, true).unwrap();

        let s2 = corpus();
        let ctx2 = ExecContext::new(&s2);
        let fj2 = join(&rel, &s2, Projection::Full, false);
        let batched = tuple_substitution_batched(&ctx2, &fj2, 16).unwrap();

        let mut a: Vec<String> = plain.table.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = batched.table.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "batching must not change the join");
        assert_eq!(batched.report.text.invocations, 1, "4 keys, one batch");
        assert!(batched.report.total_cost() < plain.report.total_cost());
        // The saving is exactly the rebated invocations (same retrievals).
        assert_eq!(
            plain.report.text.since(&batched.report.text),
            Usage {
                invocations: 3,
                ns_invocation: 3 * 3_000_000_000,
                ..Usage::default()
            }
        );
    }

    #[test]
    fn batched_ts_respects_batch_size() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = join(&rel, &server, Projection::RelOnly, false);
        let out = tuple_substitution_batched(&ctx, &fj, 2).unwrap();
        assert_eq!(out.report.text.invocations, 2, "4 keys in batches of 2");
        assert!(tuple_substitution_batched(&ctx, &fj, 0).is_err());
    }

    #[test]
    fn cost_accounting_matches_formula_shape() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = join(&rel, &server, Projection::Full, false);
        let out = tuple_substitution(&ctx, &fj, true).unwrap();
        let u = &out.report.text;
        assert_eq!(
            (
                u.ns_invocation,
                u.ns_processing,
                u.ns_transmission,
                u.ns_backoff
            ),
            (
                3_000_000_000 * u.invocations,
                10_000 * u.postings_processed,
                15_000_000 * u.docs_short + 4_000_000_000 * u.docs_long,
                0
            )
        );
        assert_eq!(
            out.report.rtp_comparisons, 0,
            "TS does no relational matching"
        );
    }
}
