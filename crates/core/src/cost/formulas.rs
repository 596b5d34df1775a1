//! Closed-form cost formulas for the join methods (paper, Section 4.3).
//!
//! The paper gives `C_TS` and `C_{P+TS}` explicitly and defers the others
//! to its technical-report companion [CDY]; the versions here complete the
//! family following the same derivation pattern. Conventions:
//!
//! * `n_K` — distinct tuples over all join columns (the searches the
//!   distinct-variant TS sends);
//! * `L_{n,J} = n × (Σ_{i∈J} list_i + sel_postings)` — postings processed;
//! * `V_{n,J} = n × F_J` — total documents across result sets;
//! * `U_{n,J} = D(1 − (1 − F_J/D)^n)` — distinct documents;
//! * `F_J` — joint fanout of the predicates in `J` *and* the constant
//!   selections (selections are independent of which tuple instantiated
//!   the search, so they scale the fanout by `sel_fanout / D`);
//! * `S_J` — joint selectivity of the predicates in `J` (the probability a
//!   probe on `J` succeeds; per the paper's simplification, selections are
//!   not folded into probe success).
//!
//! Every search result is transmitted short-form (`c_s`); long-form
//! retrieval (`c_l`) is added when the projection needs full documents, or
//! — for the RTP family — when some joined field is not in the short form.
//!
//! The formulas return expected counts ([`Work`]), not seconds: the
//! constants are applied by [`CostParams::price`] alone.

use super::correlate::{distinct_docs, joint_fanout, joint_selectivity, total_docs};
use super::params::{CostParams, JoinStatistics, Work};

/// A predicate subset `J` as the estimators walk it: indices into
/// `JoinStatistics::preds`, cheap to walk again.
trait Subset: Iterator<Item = usize> + Clone {}
impl<I: Iterator<Item = usize> + Clone> Subset for I {}

/// Joint fanout of predicate subset `J` combined with the selections.
fn result_fanout(p: &CostParams, s: &JoinStatistics, subset: impl Subset) -> f64 {
    let f_join = joint_fanout(subset.map(|i| s.preds[i].fanout), p.d, p.g);
    if s.sel_terms > 0 && p.d > 0.0 {
        // Selections are a constant extra conjunct: independent thinning.
        f_join * (s.sel_fanout / p.d)
    } else {
        f_join
    }
}

/// Postings processed by one search over subset `J`.
fn postings_per_search(s: &JoinStatistics, subset: impl Subset) -> f64 {
    subset.map(|i| s.preds[i].list_len).sum::<f64>() + s.sel_postings
}

/// Joint selectivity of predicate subset `J` (probe success probability).
fn probe_selectivity(p: &CostParams, s: &JoinStatistics, subset: impl Subset) -> f64 {
    joint_selectivity(subset.map(|i| s.preds[i].selectivity), p.g)
}

/// `n` searches processing `postings_each` postings apiece, shipping `v`
/// documents: short form always, long form too when `long`.
fn phase(n: f64, postings_each: f64, v: f64, long: bool) -> Work {
    Work {
        searches: n,
        postings: n * postings_each,
        docs_short: v,
        docs_long: if long { v } else { 0.0 },
        ..Work::default()
    }
}

/// A "tuple-substitution-shaped" phase: `n` searches over subset `J`, each
/// transmitting its full result set.
fn ts_phase(p: &CostParams, s: &JoinStatistics, n: f64, subset: impl Subset) -> Work {
    let v = total_docs(n, result_fanout(p, s, subset.clone()));
    phase(n, postings_per_search(s, subset), v, s.needs_long)
}

/// `C_TS` — tuple substitution (distinct variant): one search per distinct
/// join-column tuple (paper: `C_TS = c_i N + c_p L_{N,K} + c_l V_{N,K}`,
/// with `N` replaced by `n_K` for the distinct variant).
pub fn cost_ts(p: &CostParams, s: &JoinStatistics) -> Work {
    ts_phase(p, s, s.n_k, all(s))
}

/// `C_TS` for the naive variant (one search per tuple) — ablation only.
pub fn cost_ts_naive(p: &CostParams, s: &JoinStatistics) -> Work {
    ts_phase(p, s, s.n, all(s))
}

/// The probe phase `C_P = c_i N_J + c_p L_{N_J,J} + c_s V_{N_J,J}`:
/// one probe per distinct `J`-key, short-form responses.
pub(crate) fn cost_probe_phase(p: &CostParams, s: &JoinStatistics, subset: &[usize]) -> Work {
    let n_j = s.n_j(subset);
    let subset = subset.iter().copied();
    let v = total_docs(n_j, result_fanout(p, s, subset.clone()));
    phase(n_j, postings_per_search(s, subset), v, false)
}

/// `C_{P+TS} = C_P + c_i R + c_p L_{R,K} + c_l V_{R,K}` with
/// `R = n_K × S_J` — probing, then tuple substitution on the survivors.
///
/// The survivors' result volume uses the *conditional* fanout: probing does
/// not change which substituted queries match, so the documents transmitted
/// in phase 2 total `n_K × F` — the same as unprobed TS (this is the
/// Section 7.2 observation that "the number of long-form documents
/// transmitted is the same for both methods").
pub fn cost_p_ts(p: &CostParams, s: &JoinStatistics, subset: &[usize]) -> Work {
    let r = s.n_k * probe_selectivity(p, s, subset.iter().copied());
    let v = total_docs(s.n_k, result_fanout(p, s, all(s)));
    cost_probe_phase(p, s, subset) + phase(r, postings_per_search(s, all(s)), v, s.needs_long)
}

/// `C_RTP` — one search carrying the selections, result documents matched
/// relationally. `None` when there are no text selections (RTP
/// inapplicable, Section 3.2).
pub(crate) fn cost_rtp(s: &JoinStatistics) -> Option<Work> {
    if s.sel_terms == 0 {
        return None;
    }
    let need_long = s.needs_long || !s.short_form_sufficient;
    Some(Work {
        comparisons: s.sel_fanout * s.n * s.k() as f64,
        ..phase(1.0, s.sel_postings, s.sel_fanout, need_long)
    })
}

/// `C_SJ` / `C_{SJ+RTP}` — OR-packed semi-join searches. `None` when a
/// single conjunct does not fit under the term cap. `rtp_completion` adds
/// the document-fetch + relational matching needed for non-docid
/// projections.
pub fn cost_sj(p: &CostParams, s: &JoinStatistics, rtp_completion: bool) -> Option<Work> {
    let k = s.k().max(1);
    let per = (p.m.saturating_sub(s.sel_terms)) / k;
    if per == 0 {
        return None;
    }
    let n_searches = (s.n_k / per as f64)
        .ceil()
        .max(if s.n_k > 0.0 { 1.0 } else { 0.0 });
    let u = distinct_docs(s.n_k, result_fanout(p, s, all(s)), p.d);
    let join_postings: f64 = all(s).map(|i| s.preds[i].list_len).sum();
    let need_long = rtp_completion && (s.needs_long || !s.short_form_sufficient);
    let comparisons = if rtp_completion {
        u * s.n * k as f64
    } else {
        0.0
    };
    Some(Work {
        postings: s.n_k * join_postings + n_searches * s.sel_postings,
        comparisons,
        ..phase(n_searches, 0.0, u, need_long)
    })
}

/// `C_{P+RTP}` — probes on `J` (whose result sets are the candidate
/// documents), then relational matching against the surviving tuples
/// (Example 3.6).
pub fn cost_p_rtp(p: &CostParams, s: &JoinStatistics, subset: &[usize]) -> Work {
    let n_j = s.n_j(subset);
    let u = distinct_docs(n_j, result_fanout(p, s, subset.iter().copied()), p.d);
    let need_long = s.needs_long || !s.short_form_sufficient;
    let surviving = s.n * probe_selectivity(p, s, subset.iter().copied());
    Work {
        docs_long: if need_long { u } else { 0.0 },
        comparisons: u * surviving * s.k() as f64,
        ..cost_probe_phase(p, s, subset)
    }
}

/// Every predicate, `K`.
fn all(s: &JoinStatistics) -> std::ops::Range<usize> {
    0..s.k()
}

/// Expected matching documents per fully-instantiated search (all join
/// predicates ∧ selections) — the per-tuple output fanout of the foreign
/// join, used by the multi-join planner for cardinality estimation.
pub(crate) fn expected_result_fanout(p: &CostParams, s: &JoinStatistics) -> f64 {
    result_fanout(p, s, all(s))
}

/// Joint selectivity of a predicate subset — the probability a probe on it
/// succeeds. Re-exported for the multi-join planner's probe-node
/// cardinality estimates.
pub(crate) fn probe_success_probability(
    p: &CostParams,
    s: &JoinStatistics,
    subset: &[usize],
) -> f64 {
    probe_selectivity(p, s, subset.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::params::PredStats;

    /// A Q3-like setup: two join predicates, a selective first column.
    fn stats() -> (CostParams, JoinStatistics) {
        let p = CostParams::mercury(10_000.0);
        let s = JoinStatistics {
            n: 100.0,
            n_k: 100.0,
            preds: vec![
                PredStats::simple(0.16, 2.0, 20.0), // project.name in title
                PredStats::simple(0.80, 5.0, 80.0), // member in author
            ],
            sel_fanout: 10_000.0,
            sel_postings: 0.0,
            sel_terms: 0,
            needs_long: true,
            short_form_sufficient: true,
        };
        (p, s)
    }

    #[test]
    fn ts_formula_components() {
        let (p, s) = stats();
        let c = p.price(&cost_ts(&p, &s));
        assert!((c.invocation - 3.0 * 100.0).abs() < 1e-9);
        assert!((c.searches - 100.0).abs() < 1e-12);
        // g=1: joint fanout = min(2,5) = 2; V = 200 docs; long+short.
        let v = 200.0;
        assert!((c.transmission - (0.015 * v + 4.0 * v)).abs() < 1e-9);
    }

    #[test]
    fn p_ts_beats_ts_when_selective_probe() {
        let (p, s) = stats();
        let ts = p.price(&cost_ts(&p, &s)).total();
        let pts = p.price(&cost_p_ts(&p, &s, &[0])).total();
        // s_1 = 0.16, N_1/N = 0.2: probing pays (0.16 < 1 - 0.2).
        assert!(
            pts < ts,
            "P+TS ({pts:.1}) should beat TS ({ts:.1}) at s1=0.16, N1/N=0.2"
        );
    }

    #[test]
    fn ts_beats_p_ts_when_probes_useless() {
        let (p, mut s) = stats();
        s.preds[0].selectivity = 1.0; // every probe succeeds
        s.preds[0].distinct = 100.0; // and every key is unique
        let ts = p.price(&cost_ts(&p, &s)).total();
        let pts = p.price(&cost_p_ts(&p, &s, &[0])).total();
        assert!(pts > ts, "pure overhead: P+TS {pts:.1} vs TS {ts:.1}");
    }

    #[test]
    fn crossover_matches_invocation_analysis() {
        // Section 7.2: with invocation dominating, P+TS wins iff
        // N_1 + s_1·N < N  ⇔  s_1 < 1 − N_1/N.
        let (mut p, mut s) = stats();
        p.constants.c_p = 0.0;
        p.constants.c_s = 0.0;
        p.constants.c_l = 0.0;
        s.needs_long = false;
        for &(s1, n1_frac) in &[(0.3, 0.5), (0.6, 0.5), (0.1, 0.95), (0.9, 0.05)] {
            s.preds[0].selectivity = s1;
            s.preds[0].distinct = n1_frac * s.n;
            let ts = p.price(&cost_ts(&p, &s)).total();
            let pts = p.price(&cost_p_ts(&p, &s, &[0])).total();
            let predicted_pts_wins = s1 < 1.0 - n1_frac;
            assert_eq!(
                pts < ts,
                predicted_pts_wins,
                "s1={s1}, N1/N={n1_frac}: pts={pts}, ts={ts}"
            );
        }
    }

    #[test]
    fn rtp_needs_selections() {
        let (p, s) = stats();
        assert!(cost_rtp(&s).is_none());
        let mut s2 = s;
        s2.sel_terms = 1;
        s2.sel_fanout = 8.0;
        s2.sel_postings = 8.0;
        let c = p.price(&cost_rtp(&s2).unwrap());
        assert!((c.invocation - 3.0).abs() < 1e-12, "single invocation");
        assert!(
            c.total() < p.price(&cost_ts(&p, &s2)).total(),
            "selective RTP wins"
        );
    }

    #[test]
    fn sj_packs_by_term_cap() {
        let (p, mut s) = stats();
        s.needs_long = false;
        // k=2, no selections: 35 conjuncts/search; 100 keys → 3 searches.
        let c = p.price(&cost_sj(&p, &s, false).unwrap());
        assert!((c.searches - 3.0).abs() < 1e-12);
        // Tiny cap: inapplicable.
        let mut p2 = p;
        p2.m = 1;
        assert!(cost_sj(&p2, &s, false).is_none());
    }

    #[test]
    fn sj_transmission_uses_distinct_docs() {
        let (p, s) = stats();
        let w = cost_sj(&p, &s, false).unwrap();
        let v = 100.0 * result_fanout(&p, &s, 0..2);
        // U < V strictly for overlapping result sets.
        assert!(w.docs_short < v);
    }

    #[test]
    fn sj_rtp_adds_completion() {
        let (p, s) = stats();
        let plain = p.price(&cost_sj(&p, &s, false).unwrap());
        let with = p.price(&cost_sj(&p, &s, true).unwrap());
        assert!(with.total() > plain.total());
        assert!(with.rtp > 0.0);
        assert!(
            with.transmission > plain.transmission,
            "long-form fetch added"
        );
    }

    #[test]
    fn p_rtp_cheaper_with_fewer_docs() {
        let (p, mut s) = stats();
        s.needs_long = false;
        let a = p.price(&cost_p_rtp(&p, &s, &[0]));
        let mut s2 = s.clone();
        s2.preds[0].fanout = 0.2; // far fewer candidate docs
        let b = p.price(&cost_p_rtp(&p, &s2, &[0]));
        assert!(b.total() < a.total());
    }

    #[test]
    fn selections_thin_result_fanout() {
        let (p, mut s) = stats();
        let f_no_sel = result_fanout(&p, &s, 0..2);
        s.sel_terms = 1;
        s.sel_fanout = 100.0; // selections match 1% of D
        let f_sel = result_fanout(&p, &s, 0..2);
        assert!((f_sel - f_no_sel * 0.01).abs() < 1e-9);
    }

    #[test]
    fn naive_ts_never_cheaper() {
        let (p, mut s) = stats();
        s.n_k = 60.0; // duplicates exist
        assert!(p.price(&cost_ts_naive(&p, &s)).total() > p.price(&cost_ts(&p, &s)).total());
    }

    #[test]
    fn breakdown_total_sums() {
        let (p, s) = stats();
        let c = p.price(&cost_p_ts(&p, &s, &[0, 1]));
        assert!((c.total() - (c.invocation + c.processing + c.transmission + c.rtp)).abs() < 1e-9);
    }

    /// The fault model charges `rate × mean_backoff` per invocation, so a
    /// flaky link penalizes invocation-heavy methods proportionally to
    /// their search count — enough to flip a close TS-vs-SJ ordering.
    #[test]
    fn fault_model_flips_ordering_toward_invocation_light_methods() {
        let (mut p, mut s) = stats();
        s.needs_long = false;
        // Make TS and SJ nearly tied on a healthy link by discounting SJ's
        // transmission advantage: compare invocation-dominated costs only.
        p.constants.c_p = 0.0;
        p.constants.c_s = 0.0;
        p.constants.c_l = 0.0;
        let ts_clean = p.price(&cost_ts(&p, &s)).total();
        let sj_clean = p.price(&cost_sj(&p, &s, false).unwrap()).total();
        // 100 searches vs 3: SJ already wins, but note the *margin*.
        let margin_clean = ts_clean - sj_clean;
        // A 30% fault rate with the standard schedule (mean 7/3 s/retry).
        let flaky = p.with_fault_model_replicated(
            &textjoin_text::server::Usage {
                invocations: 10,
                faults: 3,
                ..Default::default()
            },
            &crate::retry::RetryPolicy::standard(),
            1,
        );
        assert!((flaky.fault_rate - 0.3).abs() < 1e-12);
        assert!((flaky.effective_c_i() - (3.0 + 0.3 * 7.0 / 3.0)).abs() < 1e-12);
        let ts_flaky = flaky.price(&cost_ts(&flaky, &s)).total();
        let sj_flaky = flaky.price(&cost_sj(&flaky, &s, false).unwrap()).total();
        let margin_flaky = ts_flaky - sj_flaky;
        assert!(
            margin_flaky > margin_clean,
            "flaky link widens the gap: {margin_flaky:.1} vs {margin_clean:.1}"
        );
        // The widening is exactly (searches_TS − searches_SJ) × rate × mean.
        let expected = (100.0 - 3.0) * 0.3 * (7.0 / 3.0);
        assert!(((margin_flaky - margin_clean) - expected).abs() < 1e-9);
        // A fault-free ledger leaves every estimate untouched.
        let clean = p.with_fault_model_replicated(
            &Default::default(),
            &crate::retry::RetryPolicy::standard(),
            1,
        );
        assert_eq!(clean.price(&cost_ts(&clean, &s)).total(), ts_clean);
    }
}
