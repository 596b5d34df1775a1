//! Relational text processing (RTP) — paper, Section 3.2.
//!
//! Ships the *text selection* conditions to the text system as a single
//! search, then finishes the join on the relational side with SQL string
//! matching. Requires (1) selection conditions on the text data, and (2)
//! join predicates whose semantics SQL string matching can mirror — our
//! `contains_term` matcher is normalization-consistent with the indexer,
//! so every `col in field` predicate qualifies. The matching itself is
//! shared with SJ+RTP and P+RTP (`rel_match`).

use textjoin_rel::table::Rows;
use textjoin_text::server::TextError;

use super::rel_match::Candidates;
use super::ts::tuple_substitution;
use super::{report, ExecContext, ForeignJoin, MethodError, MethodOutcome};

/// Runs relational text processing.
pub fn relational_text_processing<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
) -> Result<MethodOutcome, MethodError> {
    rtp(ctx, fj, None)
}

/// RTP with a candidate-document budget — the runtime safeguard the paper
/// points to at the end of Section 5: *"probe, followed by relational text
/// processing … suffers from the danger that if the selectivity and fanout
/// estimates are unreliable, then too many documents are fetched. We rely
/// on runtime optimization techniques to address such difficulties
/// [CDY]."* The selection search runs; if it matches more than
/// `doc_budget` documents the fetch is abandoned and tuple substitution,
/// whose cost does not depend on the misestimated fanout, answers the
/// query (method `RTP→TS`). Within budget it is RTP (`RTP(guarded)`).
pub fn guarded_rtp<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
    doc_budget: usize,
) -> Result<MethodOutcome, MethodError> {
    rtp(ctx, fj, Some(doc_budget))
}

fn rtp<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
    doc_budget: Option<usize>,
) -> Result<MethodOutcome, MethodError> {
    fj.validate()?;
    let sel = fj.selections_expr().ok_or_else(|| {
        MethodError::NotApplicable("RTP needs selection conditions on the text data".into())
    })?;
    let start = ctx.invoice.get();
    let method_span = ctx.span("RTP");

    // One search carrying only the text selections.
    let search_span = ctx.span("selection-search");
    let searched = ctx.search(&sel);
    drop(search_span);
    let result = match (searched, doc_budget) {
        (Ok(r), Some(budget)) if r.len() > budget => None,
        (Ok(r), _) => Some(r),
        // A guarded selection search that could not be completed — the
        // server stayed down past the retry budget, or renegotiated its
        // term cap below the selection — degrades too.
        (Err(e), Some(_)) if e.is_transient() || matches!(e, TextError::CapReduced { .. }) => None,
        (Err(e), _) => return Err(e.into()),
    };
    let Some(result) = result else {
        // The guard tripped: tuple substitution answers, and the report
        // books everything since `start`, the abandoned search included —
        // runtime re-optimization is not free, it is insurance.
        drop(method_span);
        let mut out = tuple_substitution(ctx, fj, true)?;
        out.report.text = ctx.invoice.get().since(&start);
        out.report.method = "RTP→TS".into();
        return Ok(out);
    };

    let text_schema = ctx.server.schema();
    let mut out = fj.output_table(text_schema, "RTP");
    let found = result.docs.iter().map(|d| (d.id, Some(d)));
    let candidates = Candidates::fetch(ctx, fj, "fetch-long", found)?;

    let _match_span = ctx.span("relational-match");
    let mut matcher = candidates.matcher(fj);
    let mut comparisons = 0u64;
    for row in 0..fj.rel.len() {
        matcher.emit_matches(fj, text_schema, row, &mut out, &mut comparisons);
    }

    let rows = out.len();
    let label = if doc_budget.is_some() {
        "RTP(guarded)"
    } else {
        "RTP"
    };
    Ok(MethodOutcome {
        table: out,
        report: report(label, ctx, &start, comparisons, rows),
    })
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{corpus, student};
    use super::super::{ForeignJoin, Projection, TextSelection};
    use super::*;
    use textjoin_rel::table::Table;
    use textjoin_text::server::TextServer;

    fn join<'a>(rel: &'a Table, server: &TextServer, projection: Projection) -> ForeignJoin<'a> {
        let ts = server.collection().schema();
        ForeignJoin {
            rel,
            join_cols: vec![rel.col("name")],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: vec![TextSelection {
                term: "text".into(),
                field: ts.field_by_name("title").unwrap(),
            }],
            projection,
        }
    }

    #[test]
    fn rtp_single_invocation() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let out =
            relational_text_processing(&ctx, &join(&rel, &server, Projection::RelOnly)).unwrap();
        assert_eq!(out.report.text.invocations, 1, "RTP sends one search");
        // doc0 (Gravano, Garcia) and doc1 (Kao) have 'text' in title.
        assert_eq!(out.table.len(), 2);
    }

    #[test]
    fn rtp_requires_selections() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let mut fj = join(&rel, &server, Projection::RelOnly);
        fj.selections.clear();
        assert!(matches!(
            relational_text_processing(&ctx, &fj),
            Err(MethodError::NotApplicable(_))
        ));
        assert!(matches!(
            guarded_rtp(&ctx, &fj, 10),
            Err(MethodError::NotApplicable(_))
        ));
    }

    #[test]
    fn rtp_short_form_skips_retrieval() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        // author is a short-form field; RelOnly projection → no retrieval.
        let out =
            relational_text_processing(&ctx, &join(&rel, &server, Projection::RelOnly)).unwrap();
        assert_eq!(out.report.text.docs_long, 0);
    }

    #[test]
    fn rtp_full_projection_retrieves() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let out = relational_text_processing(&ctx, &join(&rel, &server, Projection::Full)).unwrap();
        assert_eq!(out.report.text.docs_long, 2, "2 selection matches fetched");
        // Gravano⋈doc0, Kao⋈doc1.
        assert_eq!(out.table.len(), 2);
        // Doc fields present in output.
        let title_col = out.table.schema().column_by_name("title").unwrap();
        assert!(out.table.rows()[0].get(title_col).as_str().is_some());
    }

    #[test]
    fn rtp_matches_ts_result() {
        let rel = student();
        let s1 = corpus();
        let ctx1 = ExecContext::new(&s1);
        let rtp = relational_text_processing(&ctx1, &join(&rel, &s1, Projection::Full)).unwrap();

        let s2 = corpus();
        let ctx2 = ExecContext::new(&s2);
        let ts =
            super::super::ts::tuple_substitution(&ctx2, &join(&rel, &s2, Projection::Full), true)
                .unwrap();

        assert_eq!(
            rows(&rtp),
            rows(&ts),
            "RTP and TS must compute the same join"
        );
    }

    #[test]
    fn rtp_counts_comparisons() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let out =
            relational_text_processing(&ctx, &join(&rel, &server, Projection::RelOnly)).unwrap();
        // 4 tuples × 2 selection-matched docs × 1 predicate = 8 comparisons.
        assert_eq!(out.report.rtp_comparisons, 8);
        assert!((out.report.rtp_cost - 8.0 * ctx.c_a).abs() < 1e-12);
    }

    /// Sorted row renderings, for comparing answers across methods.
    fn rows(out: &MethodOutcome) -> Vec<String> {
        let mut v: Vec<String> = out.table.iter().map(|t| t.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn guarded_rtp_within_budget_books_exactly_rtp() {
        let rel = student();
        let s1 = corpus();
        let fj1 = join(&rel, &s1, Projection::Full);
        let g = guarded_rtp(&ExecContext::new(&s1), &fj1, 100).unwrap();
        let s2 = corpus();
        let fj2 = join(&rel, &s2, Projection::Full);
        let rtp = relational_text_processing(&ExecContext::new(&s2), &fj2).unwrap();
        assert_eq!(g.report.method, "RTP(guarded)");
        assert_eq!(g.report.text, rtp.report.text);
        assert_eq!(rows(&g), rows(&rtp));
    }

    #[test]
    fn guarded_rtp_budget_is_inclusive() {
        let rel = student();
        // Two 'text'-titled candidates: a budget of 2 admits them.
        let server = corpus();
        let fj = join(&rel, &server, Projection::Full);
        let g = guarded_rtp(&ExecContext::new(&server), &fj, 2).unwrap();
        assert_eq!(g.report.method, "RTP(guarded)");
        assert_eq!(g.report.text.invocations, 1);
        // A budget of 1 does not: 4 TS searches plus the abandoned one.
        let server = corpus();
        let fj = join(&rel, &server, Projection::Full);
        let g = guarded_rtp(&ExecContext::new(&server), &fj, 1).unwrap();
        assert_eq!(g.report.method, "RTP→TS");
        assert_eq!(g.report.text.invocations, 5);
    }

    #[test]
    fn guarded_rtp_degrades_to_ts_when_selection_search_stays_down() {
        use textjoin_text::faults::{Fault, FaultPlan};

        let rel = student();
        let mut server = TextServer::new(corpus().collection().clone());
        // The first 4 search ops (the selection search and all its
        // retries) fail; everything after succeeds, so TS runs cleanly.
        server.set_fault_plan(FaultPlan::scripted(
            (0..4).map(|op| (op, Fault::Unavailable)).collect(),
        ));
        let fj = join(&rel, &server, Projection::Full);
        let g = guarded_rtp(&ExecContext::new(&server), &fj, 100).unwrap();
        assert_eq!(g.report.method, "RTP→TS");
        assert_eq!(g.table.len(), 2, "same answer as clean RTP");
        assert_eq!(g.report.text.faults, 4);
    }

    #[test]
    fn guarded_rtp_falls_back_to_ts_and_bills_the_abandoned_search() {
        let rel = student();
        let s1 = corpus();
        let fj1 = join(&rel, &s1, Projection::Full);
        let g = guarded_rtp(&ExecContext::new(&s1), &fj1, 1).unwrap();
        let s2 = corpus();
        let fj2 = join(&rel, &s2, Projection::Full);
        let ts = super::super::ts::tuple_substitution(&ExecContext::new(&s2), &fj2, true).unwrap();
        assert_eq!(rows(&g), rows(&ts), "fallback answer equals TS");
        assert_eq!(g.report.text.invocations, ts.report.text.invocations + 1);
    }
}
