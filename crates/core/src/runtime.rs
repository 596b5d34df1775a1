//! Runtime re-optimization — the safeguard the paper points to at the end
//! of Section 5: *"probe, followed by relational text processing … suffers
//! from the danger that if the selectivity and fanout estimates are
//! unreliable, then too many documents are fetched. We rely on runtime
//! optimization techniques to address such difficulties [CDY]."*
//!
//! The fetch-heavy methods (RTP, P+RTP) commit to shipping every candidate
//! document before any relational matching happens. The guards here bound
//! that commitment without a second executor: each runs its method's first
//! phase (RTP's selection search, P+RTP's probes), counts the candidate
//! set *before* any retrieval, and then runs either the method's own
//! completion or — past a document budget — tuple substitution, whose cost
//! does not depend on the misestimated fanout. Whatever was already spent
//! (the selection search / the probes) stays on the meter — runtime
//! re-optimization is not free, it is insurance.

use textjoin_text::server::{TextError, Usage};

use crate::methods::probe::{validate_probe_cols, ProbePhase};
use crate::methods::rtp;
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
    let sel = rtp::selection(fj)?;
    let before = ctx.server.usage();
    let result = match ctx.search(&sel) {
        Ok(r) => r,
        // The guard's selection search could not be completed — the server
        // stayed down past the retry budget, or renegotiated its term cap
        // below the selection. Degrade to tuple substitution instead of
        // failing the query; the failed attempts stay on the meter.
        Err(e) if e.is_transient() || matches!(e, TextError::CapReduced { .. }) => {
            return fall_back(ctx, fj, &before, "RTP→TS", 0);
        }
        Err(e) => return Err(e.into()),
    };
    let candidates = result.len();
    if candidates > doc_budget {
        return fall_back(ctx, fj, &before, "RTP→TS", candidates);
    }
    // Within budget: RTP's own completion, from the search already paid.
    let mut out = rtp::complete(ctx, fj, result, &before)?;
    out.report.method = "RTP(guarded)".into();
    Ok(GuardedOutcome {
        outcome: out,
        verdict: GuardVerdict::PrimaryCompleted,
        candidates_seen: candidates,
    })
}

/// P+RTP with a candidate budget: the probe phase runs as usual; if the
/// union of probe result sets exceeds `doc_budget`, the document fetch is
/// abandoned and the tuples no probe proved to fail are finished with
/// tuple substitution (i.e., the plan degrades to P+TS, keeping the
/// probes' pruning).
pub fn guarded_probe_rtp(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    probe_cols: &[usize],
    doc_budget: usize,
) -> Result<GuardedOutcome, MethodError> {
    fj.validate()?;
    validate_probe_cols(fj, probe_cols)?;
    let before = ctx.server.usage();
    let phase = ProbePhase::run(ctx, fj, probe_cols);
    let candidates = phase.matched.len();
    if candidates > doc_budget {
        let unpruned = phase.unpruned(ctx, fj, probe_cols);
        let reduced = ForeignJoin {
            rel: &unpruned,
            ..fj.clone()
        };
        return fall_back(ctx, &reduced, &before, "P+RTP→TS", candidates);
    }
    // Within budget: P+RTP's own completion, from the probes already paid.
    let mut out = phase.complete(ctx, fj, probe_cols, &before)?;
    out.report.method = format!("{}(guarded)", out.report.method);
    Ok(GuardedOutcome {
        outcome: out,
        verdict: GuardVerdict::PrimaryCompleted,
        candidates_seen: candidates,
    })
}

/// The guards' fallback: tuple substitution over `fj`, its report booking
/// everything since `before` — the abandoned phase included.
fn fall_back(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    before: &Usage,
    label: &str,
    candidates_seen: usize,
) -> Result<GuardedOutcome, MethodError> {
    let mut out = tuple_substitution(ctx, fj, true)?;
    out.report.text = ctx.server.usage().since(before);
    out.report.method = label.into();
    Ok(GuardedOutcome {
        outcome: out,
        verdict: GuardVerdict::FellBackToTs,
        candidates_seen,
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
        // The 2 probes stay on the bill, plus TS over the 2 students
        // Wiederhold's failed probe did not prune.
        assert_eq!(g.outcome.report.text.invocations, 4);
        // Large budget: primary completes with the same answer, paying
        // exactly what unguarded P+RTP pays — each key probed once.
        let server2 = corpus();
        let ctx2 = ExecContext::new(&server2);
        let g2 = guarded_probe_rtp(&ctx2, &fj, &[0], 100).unwrap();
        assert_eq!(g2.verdict, GuardVerdict::PrimaryCompleted);
        assert_eq!(g2.outcome.report.method, "P1+RTP(guarded)");
        assert_eq!(g2.outcome.table.len(), 1);
        let server3 = corpus();
        let unguarded =
            crate::methods::probe::probe_rtp(&ExecContext::new(&server3), &fj, &[0]).unwrap();
        assert_eq!(g2.outcome.report.text, unguarded.report.text);
        assert_eq!(g2.outcome.report.text.invocations, 2);
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
