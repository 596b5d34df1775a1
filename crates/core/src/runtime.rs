//! Runtime re-optimization — the safeguard the paper points to at the end
//! of Section 5: *"probe, followed by relational text processing … suffers
//! from the danger that if the selectivity and fanout estimates are
//! unreliable, then too many documents are fetched. We rely on runtime
//! optimization techniques to address such difficulties [CDY]."*
//!
//! The fetch-heavy methods (RTP, P+RTP) commit to shipping every candidate
//! document before any relational matching happens. The guarded executors
//! here bound that commitment: the candidate set is counted *before*
//! long-form retrieval, and if it exceeds a document budget the plan is
//! abandoned mid-flight in favor of tuple substitution, whose cost does
//! not depend on the misestimated fanout. Whatever was already spent
//! (the selection search / the probes) stays on the meter — runtime
//! re-optimization is not free, it is insurance.

use std::collections::BTreeSet;

use textjoin_rel::table::Table;
use textjoin_text::doc::DocId;
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::TextError;

use crate::methods::cache::{ProbeCache, ProbeOutcome};
use crate::methods::ts::tuple_substitution;
use crate::methods::{ExecContext, ForeignJoin, MethodError, MethodOutcome};

/// What a guarded execution did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardVerdict {
    /// The candidate set fit the budget; the primary method completed.
    PrimaryCompleted,
    /// The budget tripped; tuple substitution finished the query.
    FellBackToTs,
}

/// A guarded outcome: the result plus what happened.
#[derive(Debug, Clone)]
pub struct GuardedOutcome {
    /// The method outcome (its report covers everything spent, including
    /// the abandoned phase).
    pub outcome: MethodOutcome,
    /// Whether the fallback fired.
    pub verdict: GuardVerdict,
    /// Candidate documents counted at the decision point.
    pub candidates_seen: usize,
}

/// RTP with a candidate-document budget: the selection search runs, and if
/// it matches more than `doc_budget` documents the long-form fetch is
/// abandoned and tuple substitution answers the query instead.
pub fn guarded_rtp(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    doc_budget: usize,
) -> Result<GuardedOutcome, MethodError> {
    fj.validate()?;
    if fj.selections.is_empty() {
        return Err(MethodError::NotApplicable(
            "RTP needs selection conditions on the text data".into(),
        ));
    }
    let before = ctx.server.usage();
    let sel = fj.selections_expr().expect("selections checked non-empty");
    let result = match ctx.search(&sel) {
        Ok(r) => r,
        // The guard's selection search could not be completed — the server
        // stayed down past the retry budget, or renegotiated its term cap
        // below the selection. Degrade to tuple substitution instead of
        // failing the query; the failed attempts stay on the meter.
        Err(e) if e.is_transient() || matches!(e, TextError::CapReduced { .. }) => {
            let mut out = tuple_substitution(ctx, fj, true)?;
            out.report.text = ctx.server.usage().since(&before);
            out.report.method = "RTP→TS".into();
            return Ok(GuardedOutcome {
                outcome: out,
                verdict: GuardVerdict::FellBackToTs,
                candidates_seen: 0,
            });
        }
        Err(e) => return Err(e.into()),
    };
    let candidates = result.len();

    if candidates <= doc_budget {
        // Within budget: complete RTP from the candidate set the guard
        // already has in hand — the selection search is billed exactly
        // once (`rtp_with_candidates`).
        let mut out = crate::methods::rtp::rtp_with_candidates(ctx, fj, result)?;
        out.report.text = ctx.server.usage().since(&before);
        out.report.method = "RTP(guarded)".into();
        return Ok(GuardedOutcome {
            outcome: out,
            verdict: GuardVerdict::PrimaryCompleted,
            candidates_seen: candidates,
        });
    }
    // Budget exceeded: abandon before fetching anything; fall back.
    let mut out = tuple_substitution(ctx, fj, true)?;
    out.report.text = ctx.server.usage().since(&before);
    out.report.method = "RTP→TS".into();
    Ok(GuardedOutcome {
        outcome: out,
        verdict: GuardVerdict::FellBackToTs,
        candidates_seen: candidates,
    })
}

/// P+RTP with a candidate budget: the probe phase runs as usual; if the
/// union of probe result sets exceeds `doc_budget`, the document fetch is
/// abandoned and the surviving tuples are finished with tuple substitution
/// (i.e., the plan degrades to P+TS, keeping the probes' pruning).
pub fn guarded_probe_rtp(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    probe_cols: &[usize],
    doc_budget: usize,
) -> Result<GuardedOutcome, MethodError> {
    fj.validate()?;
    if probe_cols.is_empty() || probe_cols.iter().any(|&i| i >= fj.k()) {
        return Err(MethodError::BadProbeColumns(format!(
            "invalid probe columns {probe_cols:?}"
        )));
    }
    let before = ctx.server.usage();

    // Probe phase (identical to probe-first P+RTP).
    let probe_col_ids: Vec<textjoin_rel::schema::ColId> =
        probe_cols.iter().map(|&i| fj.join_cols[i]).collect();
    let mut cache = ProbeCache::new();
    // One probe identity throughout: a single, empty namespace.
    let ns = cache.namespace(Vec::new());
    let mut key = Vec::new();
    let mut matched: BTreeSet<DocId> = BTreeSet::new();
    for (_, rows) in textjoin_rel::ops::group_by(fj.rel, &probe_col_ids) {
        let t = &fj.rel.rows()[rows[0]];
        if !fj.key_values(t, probe_cols, &mut key) {
            continue;
        }
        let expr: SearchExpr = fj
            .instantiated_search(t, probe_cols)
            .expect("key_values succeeded");
        match ctx.try_probe(&expr) {
            Some(ids) => {
                cache.record(
                    ctx.server.topology_epoch(),
                    ns,
                    &key,
                    if ids.is_empty() {
                        ProbeOutcome::Fail
                    } else {
                        ProbeOutcome::Success
                    },
                );
                matched.extend(ids);
            }
            // Probe outcome unknown: never prune without a proven fail, so
            // the key is kept. Its candidate documents stay uncounted; the
            // primary path re-probes with its own degradation if chosen.
            None => cache.record(ctx.server.topology_epoch(), ns, &key, ProbeOutcome::Success),
        }
    }
    let candidates = matched.len();

    if candidates <= doc_budget {
        let mut out = crate::methods::probe::probe_rtp(ctx, fj, probe_cols)?;
        out.report.text = ctx.server.usage().since(&before);
        out.report.method = format!("{}(guarded)", out.report.method);
        return Ok(GuardedOutcome {
            outcome: out,
            verdict: GuardVerdict::PrimaryCompleted,
            candidates_seen: candidates,
        });
    }

    // Too many candidates: degrade to tuple substitution over the
    // survivors — the probes' pruning is kept, the fetch is avoided.
    let mut survivors = Table::new(format!("{}-survivors", fj.rel.name()), fj.rel.schema().clone());
    for t in fj.rel.iter() {
        if fj.key_values(t, probe_cols, &mut key)
            && cache.lookup(ctx.server.topology_epoch(), ns, &key) == Some(ProbeOutcome::Success)
        {
            survivors.push(t.clone());
        }
    }
    let reduced = ForeignJoin {
        rel: &survivors,
        join_cols: fj.join_cols.clone(),
        join_fields: fj.join_fields.clone(),
        selections: fj.selections.clone(),
        projection: fj.projection,
    };
    let mut out = tuple_substitution(ctx, &reduced, true)?;
    out.report.text = ctx.server.usage().since(&before);
    out.report.method = "P+RTP→TS".into();
    Ok(GuardedOutcome {
        outcome: out,
        verdict: GuardVerdict::FellBackToTs,
        candidates_seen: candidates,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testkit::{corpus, student};
    use crate::methods::{Projection, TextSelection};

    fn selection_join<'a>(
        rel: &'a textjoin_rel::table::Table,
        server: &textjoin_text::server::TextServer,
    ) -> ForeignJoin<'a> {
        let ts = server.collection().schema();
        ForeignJoin {
            rel,
            join_cols: vec![rel.col("name")],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: vec![TextSelection {
                term: "text".into(),
                field: ts.field_by_name("title").unwrap(),
            }],
            projection: Projection::Full,
        }
    }

    #[test]
    fn guarded_rtp_within_budget_completes() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = selection_join(&rel, &server);
        let g = guarded_rtp(&ctx, &fj, 100).unwrap();
        assert_eq!(g.verdict, GuardVerdict::PrimaryCompleted);
        assert_eq!(g.candidates_seen, 2); // two 'text'-titled docs
        assert_eq!(g.outcome.table.len(), 2);
        // The guard threads its candidate search through the completion:
        // one search total, not a repeated one.
        assert_eq!(g.outcome.report.text.invocations, 1);
    }

    #[test]
    fn guarded_rtp_degrades_to_ts_when_selection_search_stays_down() {
        use textjoin_text::faults::{Fault, FaultPlan};
        use textjoin_text::server::TextServer;

        let rel = student();
        let base = corpus();
        let mut server = TextServer::new(base.collection().clone());
        // The first 4 search ops (= the guard's selection search and all
        // its retries) fail; everything after succeeds, so the TS fallback
        // runs cleanly.
        server.set_fault_plan(FaultPlan::scripted(vec![
            (0, Fault::Unavailable),
            (1, Fault::Unavailable),
            (2, Fault::Unavailable),
            (3, Fault::Unavailable),
        ]));
        let ctx = ExecContext::new(&server);
        let fj = selection_join(&rel, &server);
        let g = guarded_rtp(&ctx, &fj, 100).unwrap();
        assert_eq!(g.verdict, GuardVerdict::FellBackToTs);
        assert_eq!(g.outcome.report.method, "RTP→TS");
        assert_eq!(g.outcome.table.len(), 2, "same answer as clean RTP");
        assert_eq!(g.outcome.report.text.faults, 4);
    }

    #[test]
    fn guarded_rtp_falls_back_and_matches_ts() {
        let rel = student();
        let s1 = corpus();
        let ctx1 = ExecContext::new(&s1);
        let fj1 = selection_join(&rel, &s1);
        let g = guarded_rtp(&ctx1, &fj1, 1).unwrap(); // budget < 2 candidates
        assert_eq!(g.verdict, GuardVerdict::FellBackToTs);
        assert_eq!(g.outcome.report.method, "RTP→TS");

        let s2 = corpus();
        let ctx2 = ExecContext::new(&s2);
        let fj2 = selection_join(&rel, &s2);
        let ts = tuple_substitution(&ctx2, &fj2, true).unwrap();
        let mut a: Vec<String> = g.outcome.table.iter().map(|t| t.to_string()).collect();
        let mut b: Vec<String> = ts.table.iter().map(|t| t.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "fallback answer equals TS");
        // The aborted selection search is still on the bill.
        assert_eq!(
            g.outcome.report.text.invocations,
            ts.report.text.invocations + 1
        );
    }

    #[test]
    fn guarded_probe_rtp_degrades_to_pts() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let ts_schema = server.collection().schema();
        let fj = ForeignJoin {
            rel: &rel,
            join_cols: vec![rel.col("advisor"), rel.col("name")],
            join_fields: vec![
                ts_schema.field_by_name("author").unwrap(),
                ts_schema.field_by_name("author").unwrap(),
            ],
            selections: vec![],
            projection: Projection::RelOnly,
        };
        // Garcia's probe matches 2 docs; budget 1 forces the fallback.
        let g = guarded_probe_rtp(&ctx, &fj, &[0], 1).unwrap();
        assert_eq!(g.verdict, GuardVerdict::FellBackToTs);
        assert_eq!(g.outcome.report.method, "P+RTP→TS");
        // Same single answer as any other method: Gravano.
        assert_eq!(g.outcome.table.len(), 1);
        // Large budget: primary completes with the same answer.
        let server2 = corpus();
        let ctx2 = ExecContext::new(&server2);
        let fj2 = ForeignJoin { rel: &rel, ..fj.clone() };
        let g2 = guarded_probe_rtp(&ctx2, &fj2, &[0], 100).unwrap();
        assert_eq!(g2.verdict, GuardVerdict::PrimaryCompleted);
        assert_eq!(g2.outcome.table.len(), 1);
    }

    #[test]
    fn guarded_rtp_requires_selections() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let mut fj = selection_join(&rel, &server);
        fj.selections.clear();
        assert!(guarded_rtp(&ctx, &fj, 10).is_err());
    }

    #[test]
    fn guarded_probe_rtp_validates_columns() {
        let rel = student();
        let server = corpus();
        let ctx = ExecContext::new(&server);
        let fj = selection_join(&rel, &server);
        assert!(guarded_probe_rtp(&ctx, &fj, &[], 10).is_err());
        assert!(guarded_probe_rtp(&ctx, &fj, &[9], 10).is_err());
    }
}
