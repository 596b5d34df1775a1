//! Semi-join (SJ and SJ+RTP) — paper, Section 3.2.
//!
//! Packages many tuple-substituted conjuncts into few searches using the
//! `or` connector: for join-column tuples `x_1 … x_n`, the text system
//! evaluates `⋁_j P(x_j)` instead of `n` separate searches. The number of
//! basic terms per search is bounded by the server's cap `M`, so
//! `⌈n / capacity⌉` searches are sent, where `capacity` accounts for the
//! terms each conjunct contributes and the selections factored out of the
//! disjunction (as in the paper's example `TI=text and (AU=Gravano or … or
//! AU=Kao)`).
//!
//! SJ alone answers docid-projection queries (the text side of the
//! semi-join). For other projections the matched documents are fetched and
//! matched back to tuples relationally — SJ+RTP.

use std::collections::{BTreeMap, VecDeque};

use textjoin_rel::ops::group_by;
use textjoin_rel::table::Rows;
use textjoin_text::doc::{DocId, Document, ShortDoc};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::TextError;

use super::rel_match::Candidates;
use super::{report, ExecContext, ForeignJoin, MethodError, MethodOutcome, Projection};

/// How many conjuncts fit in one search given the term cap `m`, the number
/// of join predicates `k`, and the number of selection terms factored out.
pub(crate) fn conjuncts_per_search(m: usize, k: usize, selection_terms: usize) -> usize {
    m.saturating_sub(selection_terms)
        .checked_div(k.max(1))
        .unwrap_or(0)
}

/// Runs the semi-join method. For [`Projection::DocIds`] this is pure SJ;
/// otherwise the RTP completion step runs after the semi-join (SJ+RTP).
pub fn semi_join<R: Rows>(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_, R>,
) -> Result<MethodOutcome, MethodError> {
    fj.validate()?;
    if fj.join_cols.is_empty() {
        return Err(MethodError::NotApplicable(
            "SJ needs at least one foreign join predicate".into(),
        ));
    }
    let m = ctx.server.max_terms();
    let k = fj.k();
    let sel_terms = fj.selections.len();
    let per = conjuncts_per_search(m, k, sel_terms);
    if per == 0 {
        return Err(MethodError::NotApplicable(format!(
            "term cap {m} cannot fit a conjunct of {k} join terms plus {sel_terms} selections"
        )));
    }

    let before = ctx.server.usage();
    let text_schema = ctx.server.schema();
    let label = if fj.projection == Projection::DocIds {
        "SJ"
    } else {
        "SJ+RTP"
    };
    let _method_span = ctx.span(label);
    let mut out = fj.output_table(text_schema, label);
    let all = fj.all_preds();

    // Distinct join keys with their source rows.
    let groups: Vec<_> = group_by(fj.rel, &fj.join_cols)
        .into_iter()
        .filter_map(|(_, rows)| {
            let mut key = Vec::new();
            fj.key_values(rows[0], &all, &mut key)
                .then_some((key, rows))
        })
        .collect();

    // Send the packed disjunctions through a work queue rather than fixed
    // chunks: the server may renegotiate its term cap mid-join
    // (`CapReduced`), so capacity is recomputed from the live cap before
    // every send, oversized packages are split proactively, and a package
    // the server still refuses (`TooManyTerms` / `CapReduced`) is halved
    // and requeued. Degradation bottoms out at single conjuncts — if one
    // conjunct cannot fit, no packaging can, and the error surfaces.
    let mut matched: BTreeMap<DocId, ShortDoc> = BTreeMap::new();
    let mut queue = VecDeque::new();
    if !groups.is_empty() {
        queue.push_back(groups);
    }
    let package_span = ctx.span("package");
    while let Some(mut chunk) = queue.pop_front() {
        let m_now = ctx.server.max_terms();
        let per_now = conjuncts_per_search(m_now, k, sel_terms);
        if per_now == 0 {
            return Err(MethodError::NotApplicable(format!(
                "term cap {m_now} cannot fit a conjunct of {k} join terms \
                 plus {sel_terms} selections"
            )));
        }
        if chunk.len() > per_now {
            let rest = chunk.split_off(per_now);
            queue.push_front(rest);
        }
        let disjuncts: Vec<SearchExpr> = chunk
            .iter()
            .map(|(key, _)| fj.instantiated_conjunct(&all, key))
            .collect();
        let body = SearchExpr::or(disjuncts);
        let expr = match fj.selections_expr() {
            Some(sel) => SearchExpr::and(vec![sel, body]),
            None => body,
        };
        match ctx.search(&expr) {
            Ok(result) => {
                for d in result.docs.iter() {
                    matched.entry(d.id).or_insert_with(|| d.to_owned());
                }
            }
            Err(TextError::TooManyTerms { .. } | TextError::CapReduced { .. })
                if chunk.len() > 1 =>
            {
                let back = chunk.split_off(chunk.len() / 2);
                queue.push_front(back);
                queue.push_front(chunk);
            }
            Err(e) => return Err(e.into()),
        }
    }
    drop(package_span);

    // Pure semi-join of the text side: emit docids and stop.
    if fj.projection == Projection::DocIds {
        for id in matched.keys() {
            fj.emit(&mut out, text_schema, 0, &[(*id, Document::new())]);
        }
        let rows = out.len();
        return Ok(MethodOutcome {
            table: out,
            report: report(label, ctx, &before, 0, rows),
        });
    }

    // RTP completion: fetch what the matching needs and match docs back to
    // tuples.
    let found = matched.iter().map(|(&id, d)| (id, Some(d.view())));
    let candidates = Candidates::fetch(ctx, fj, "fetch", found)?;
    let _match_span = ctx.span("residual-match");
    let mut matcher = candidates.matcher(fj);
    let mut comparisons = 0u64;
    for row in 0..fj.rel.len() {
        matcher.emit_matches(fj, text_schema, row, &mut out, &mut comparisons);
    }

    let rows = out.len();
    Ok(MethodOutcome {
        table: out,
        report: report(label, ctx, &before, comparisons, rows),
    })
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{corpus, student};
    use super::super::{ForeignJoin, Projection, TextSelection};
    use super::*;
    use textjoin_rel::table::Table;
    use textjoin_text::server::TextServer;

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
    fn capacity_arithmetic() {
        assert_eq!(conjuncts_per_search(70, 1, 1), 69);
        assert_eq!(conjuncts_per_search(70, 2, 0), 35);
        assert_eq!(conjuncts_per_search(70, 3, 1), 23);
        assert_eq!(conjuncts_per_search(2, 3, 0), 0);
        assert_eq!(conjuncts_per_search(2, 1, 2), 0);
    }

    #[test]
    fn sj_packs_into_one_search() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = join(&rel, &server, Projection::DocIds, true);
        let out = semi_join(&ctx, &fj).unwrap();
        assert_eq!(out.report.text.invocations, 1, "4 students fit one search");
        // Docs with 'text' in title authored by any student: doc0, doc1.
        assert_eq!(out.table.len(), 2);
        assert_eq!(out.report.method, "SJ");
    }

    #[test]
    fn sj_respects_term_cap() {
        let rel = student();
        let schema = textjoin_text::doc::TextSchema::bibliographic();
        let coll = corpus();
        let _ = (schema, &coll);
        // Rebuild a server with a tiny cap: each conjunct = 1 join term + 1
        // selection; capacity = (3-1)/1 = 2 conjuncts/search → 4 keys need 2.
        let base = corpus();
        let mut small = TextServer::new(base.collection().clone());
        small.set_max_terms(3);
        let ctx = ExecContext::new(&small);
        let fj = join(&rel, &small, Projection::DocIds, true);
        let out = semi_join(&ctx, &fj).unwrap();
        assert_eq!(out.report.text.invocations, 2);
        assert_eq!(out.table.len(), 2, "result unchanged by chunking");
    }

    #[test]
    fn sj_rtp_matches_ts() {
        let rel = student();
        let s1 = corpus();
        let ctx1 = ExecContext::new(&s1);
        let sj = semi_join(&ctx1, &join(&rel, &s1, Projection::Full, true)).unwrap();
        assert_eq!(sj.report.method, "SJ+RTP");

        let s2 = corpus();
        let ctx2 = ExecContext::new(&s2);
        let ts =
            super::super::ts::tuple_substitution(&ctx2, &join(&rel, &s2, Projection::Full, true), true)
                .unwrap();
        let mut a: Vec<String> = sj.table.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = ts.table.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn sj_rtp_relonly_uses_short_form() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let out = semi_join(&ctx, &join(&rel, &server, Projection::RelOnly, true)).unwrap();
        assert_eq!(out.report.text.docs_long, 0, "author is short-form");
        assert_eq!(out.table.len(), 2); // Gravano, Kao
        assert!(out.report.rtp_comparisons > 0);
    }

    #[test]
    fn sj_without_selection() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let out = semi_join(&ctx, &join(&rel, &server, Projection::DocIds, false)).unwrap();
        // All docs authored by any student: doc0 (Gravano), doc1 (Kao),
        // doc2 (Pham). DeSmedt has none.
        assert_eq!(out.table.len(), 3);
    }

    #[test]
    fn cap_too_small_is_not_applicable() {
        let rel = student();
        let base = corpus();
        let mut small = TextServer::new(base.collection().clone());
        small.set_max_terms(1);
        let ctx = ExecContext::new(&small);
        let fj = join(&rel, &small, Projection::DocIds, true);
        assert!(matches!(
            semi_join(&ctx, &fj),
            Err(MethodError::NotApplicable(_))
        ));
    }

    #[test]
    fn multi_predicate_conjuncts() {
        let rel = student();
        let server = corpus();
        let ts = server.collection().schema();
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
        let out = semi_join(&ctx, &fj).unwrap();
        // Only Gravano (with Garcia) co-authored doc0.
        assert_eq!(out.table.len(), 1);
    }
}
