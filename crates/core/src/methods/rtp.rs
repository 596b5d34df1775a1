//! Relational text processing (RTP) — paper, Section 3.2.
//!
//! Ships the *text selection* conditions to the text system as a single
//! search, then finishes the join on the relational side with SQL string
//! matching. Requires (1) selection conditions on the text data, and (2)
//! join predicates whose semantics SQL string matching can mirror — our
//! `contains_term` matcher is normalization-consistent with the indexer,
//! so every `col in field` predicate qualifies. The matching itself is
//! shared with SJ+RTP and P+RTP (`rel_match`).

use textjoin_text::expr::SearchExpr;
use textjoin_text::server::{SearchResult, Usage};

use super::rel_match::Candidates;
use super::{report, ExecContext, ForeignJoin, MethodError, MethodOutcome};

/// Runs relational text processing.
pub fn relational_text_processing(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
) -> Result<MethodOutcome, MethodError> {
    let sel = selection(fj)?;
    let before = ctx.server.usage();
    let _method_span = ctx.span("RTP");

    // One search carrying only the text selections.
    let search_span = ctx.span("selection-search");
    let result = ctx.search(&sel)?;
    drop(search_span);
    complete(ctx, fj, result, &before)
}

/// RTP's first step: validates the join and returns the one search it
/// sends, the conjunction of the text selections.
pub(crate) fn selection(fj: &ForeignJoin<'_>) -> Result<SearchExpr, MethodError> {
    fj.validate()?;
    fj.selections_expr().ok_or_else(|| {
        MethodError::NotApplicable("RTP needs selection conditions on the text data".into())
    })
}

/// RTP's completion from the selection search's `result`: fetches the
/// candidates and matches them relationally. The report books everything
/// since `before`.
pub(crate) fn complete(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    result: SearchResult,
    before: &Usage,
) -> Result<MethodOutcome, MethodError> {
    let text_schema = ctx.server.schema();
    let mut out = fj.output_table(text_schema, "RTP");
    let found = result.docs.iter().map(|d| (d.id, Some(d)));
    let candidates = Candidates::fetch(ctx, fj, "fetch-long", found)?;

    let _match_span = ctx.span("relational-match");
    let mut matcher = candidates.matcher(fj);
    let mut comparisons = 0u64;
    for t in fj.rel.iter() {
        matcher.emit_matches(fj, text_schema, t, &mut out, &mut comparisons);
    }

    let rows = out.len();
    Ok(MethodOutcome {
        table: out,
        report: report("RTP", ctx, before, comparisons, rows),
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
        let out = relational_text_processing(&ctx, &join(&rel, &server, Projection::RelOnly))
            .unwrap();
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
    }

    #[test]
    fn rtp_short_form_skips_retrieval() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        // author is a short-form field; RelOnly projection → no retrieval.
        let out = relational_text_processing(&ctx, &join(&rel, &server, Projection::RelOnly))
            .unwrap();
        assert_eq!(out.report.text.docs_long, 0);
    }

    #[test]
    fn rtp_full_projection_retrieves() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let out =
            relational_text_processing(&ctx, &join(&rel, &server, Projection::Full)).unwrap();
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
        let ts = super::super::ts::tuple_substitution(&ctx2, &join(&rel, &s2, Projection::Full), true)
            .unwrap();

        let mut a: Vec<String> = rtp.table.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = ts.table.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "RTP and TS must compute the same join");
    }

    #[test]
    fn rtp_counts_comparisons() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let out = relational_text_processing(&ctx, &join(&rel, &server, Projection::RelOnly))
            .unwrap();
        // 4 tuples × 2 selection-matched docs × 1 predicate = 8 comparisons.
        assert_eq!(out.report.rtp_comparisons, 8);
        assert!((out.report.rtp_cost - 8.0 * ctx.c_a).abs() < 1e-12);
    }
}
