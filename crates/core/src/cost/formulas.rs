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

use super::correlate::{distinct_docs, joint_fanout, joint_selectivity, total_docs};
use super::params::{CostParams, JoinStatistics};

/// A cost estimate split into the paper's components.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Invocation component (`c_i × searches`).
    pub invocation: f64,
    /// Text-system processing component (`c_p × postings`).
    pub processing: f64,
    /// Transmission component (`c_s`/`c_l` × documents).
    pub transmission: f64,
    /// Relational text-processing component (`c_a × comparisons`).
    pub rtp: f64,
    /// Estimated searches sent (for reporting).
    pub searches: f64,
}

impl CostBreakdown {
    /// Total estimated cost in simulated seconds.
    pub fn total(&self) -> f64 {
        self.invocation + self.processing + self.transmission + self.rtp
    }

    fn plus(self, other: CostBreakdown) -> CostBreakdown {
        CostBreakdown {
            invocation: self.invocation + other.invocation,
            processing: self.processing + other.processing,
            transmission: self.transmission + other.transmission,
            rtp: self.rtp + other.rtp,
            searches: self.searches + other.searches,
        }
    }
}

/// A labeled method cost, as produced by the estimators.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCost {
    /// Method label (`"TS"`, `"P1+TS"`, …).
    pub label: String,
    /// Probe predicate indices, for the probing family.
    pub probe_cols: Vec<usize>,
    /// The estimate.
    pub cost: CostBreakdown,
}

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

/// The transmission cost of shipping `v` result documents: always short
/// form; long form too when the projection needs it.
fn xmit(p: &CostParams, s: &JoinStatistics, v: f64) -> f64 {
    let mut c = p.constants.c_s * v;
    if s.needs_long {
        c += p.constants.c_l * v;
    }
    c
}

/// A "tuple-substitution-shaped" phase: `n` searches over subset `J`, each
/// transmitting its full result set.
fn ts_phase(p: &CostParams, s: &JoinStatistics, n: f64, subset: impl Subset) -> CostBreakdown {
    let f = result_fanout(p, s, subset.clone());
    let v = total_docs(n, f);
    CostBreakdown {
        invocation: p.effective_c_i() * n,
        processing: p.constants.c_p * n * postings_per_search(s, subset),
        transmission: xmit(p, s, v),
        rtp: 0.0,
        searches: n,
    }
}

/// `C_TS` — tuple substitution (distinct variant): one search per distinct
/// join-column tuple (paper: `C_TS = c_i N + c_p L_{N,K} + c_l V_{N,K}`,
/// with `N` replaced by `n_K` for the distinct variant).
pub fn cost_ts(p: &CostParams, s: &JoinStatistics) -> CostBreakdown {
    ts_phase(p, s, s.n_k, all(s))
}

/// `C_TS` for the naive variant (one search per tuple) — ablation only.
pub fn cost_ts_naive(p: &CostParams, s: &JoinStatistics) -> CostBreakdown {
    ts_phase(p, s, s.n, all(s))
}

/// The probe phase `C_P = c_i N_J + c_p L_{N_J,J} + c_s V_{N_J,J}`:
/// one probe per distinct `J`-key, short-form responses.
pub(crate) fn cost_probe_phase(
    p: &CostParams,
    s: &JoinStatistics,
    subset: &[usize],
) -> CostBreakdown {
    let n_j = s.n_j(subset);
    let subset = subset.iter().copied();
    let f = result_fanout(p, s, subset.clone());
    CostBreakdown {
        invocation: p.effective_c_i() * n_j,
        processing: p.constants.c_p * n_j * postings_per_search(s, subset),
        transmission: p.constants.c_s * total_docs(n_j, f),
        rtp: 0.0,
        searches: n_j,
    }
}

/// `C_{P+TS} = C_P + c_i R + c_p L_{R,K} + c_l V_{R,K}` with
/// `R = n_K × S_J` — probing, then tuple substitution on the survivors.
///
/// The survivors' result volume uses the *conditional* fanout: probing does
/// not change which substituted queries match, so the documents transmitted
/// in phase 2 total `n_K × F` — the same as unprobed TS (this is the
/// Section 7.2 observation that "the number of long-form documents
/// transmitted is the same for both methods").
pub fn cost_p_ts(p: &CostParams, s: &JoinStatistics, subset: &[usize]) -> CostBreakdown {
    let probe = cost_probe_phase(p, s, subset);
    let r = s.n_k * probe_selectivity(p, s, subset.iter().copied());
    let v = total_docs(s.n_k, result_fanout(p, s, all(s)));
    probe.plus(CostBreakdown {
        invocation: p.effective_c_i() * r,
        processing: p.constants.c_p * r * postings_per_search(s, all(s)),
        transmission: xmit(p, s, v),
        rtp: 0.0,
        searches: r,
    })
}

/// `C_RTP` — one search carrying the selections, result documents matched
/// relationally. `None` when there are no text selections (RTP
/// inapplicable, Section 3.2).
pub(crate) fn cost_rtp(p: &CostParams, s: &JoinStatistics) -> Option<CostBreakdown> {
    if s.sel_terms == 0 {
        return None;
    }
    let f_sel = s.sel_fanout;
    let need_long = s.needs_long || !s.short_form_sufficient;
    let mut transmission = p.constants.c_s * f_sel;
    if need_long {
        transmission += p.constants.c_l * f_sel;
    }
    Some(CostBreakdown {
        invocation: p.effective_c_i(),
        processing: p.constants.c_p * s.sel_postings,
        transmission,
        rtp: p.c_a * f_sel * s.n * s.k() as f64,
        searches: 1.0,
    })
}

/// `C_SJ` / `C_{SJ+RTP}` — OR-packed semi-join searches. `None` when a
/// single conjunct does not fit under the term cap. `rtp_completion` adds
/// the document-fetch + relational matching needed for non-docid
/// projections.
pub fn cost_sj(
    p: &CostParams,
    s: &JoinStatistics,
    rtp_completion: bool,
) -> Option<CostBreakdown> {
    let k = s.k().max(1);
    let per = (p.m.saturating_sub(s.sel_terms)) / k;
    if per == 0 {
        return None;
    }
    let n_searches = (s.n_k / per as f64).ceil().max(if s.n_k > 0.0 { 1.0 } else { 0.0 });
    let f_per_conjunct = result_fanout(p, s, all(s));
    let u = distinct_docs(s.n_k, f_per_conjunct, p.d);
    let join_postings: f64 = all(s).map(|i| s.preds[i].list_len).sum();
    let mut c = CostBreakdown {
        invocation: p.effective_c_i() * n_searches,
        processing: p.constants.c_p * (s.n_k * join_postings + n_searches * s.sel_postings),
        transmission: p.constants.c_s * u,
        rtp: 0.0,
        searches: n_searches,
    };
    if rtp_completion {
        let need_long = s.needs_long || !s.short_form_sufficient;
        if need_long {
            c.transmission += p.constants.c_l * u;
        }
        c.rtp = p.c_a * u * s.n * k as f64;
    }
    Some(c)
}

/// `C_{P+RTP}` — probes on `J` (whose result sets are the candidate
/// documents), then relational matching against the surviving tuples
/// (Example 3.6).
pub fn cost_p_rtp(p: &CostParams, s: &JoinStatistics, subset: &[usize]) -> CostBreakdown {
    let mut c = cost_probe_phase(p, s, subset);
    let n_j = s.n_j(subset);
    let f_probe = result_fanout(p, s, subset.iter().copied());
    let u = distinct_docs(n_j, f_probe, p.d);
    let need_long = s.needs_long || !s.short_form_sufficient;
    if need_long {
        c.transmission += p.constants.c_l * u;
    }
    let surviving = s.n * probe_selectivity(p, s, subset.iter().copied());
    c.rtp = p.c_a * u * surviving * s.k() as f64;
    c
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
        let c = cost_ts(&p, &s);
        assert!((c.invocation - 3.0 * 100.0).abs() < 1e-9);
        assert!((c.searches - 100.0).abs() < 1e-12);
        // g=1: joint fanout = min(2,5) = 2; V = 200 docs; long+short.
        let v = 200.0;
        assert!((c.transmission - (0.015 * v + 4.0 * v)).abs() < 1e-9);
    }

    #[test]
    fn p_ts_beats_ts_when_selective_probe() {
        let (p, s) = stats();
        let ts = cost_ts(&p, &s).total();
        let pts = cost_p_ts(&p, &s, &[0]).total();
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
        let ts = cost_ts(&p, &s).total();
        let pts = cost_p_ts(&p, &s, &[0]).total();
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
            let ts = cost_ts(&p, &s).total();
            let pts = cost_p_ts(&p, &s, &[0]).total();
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
        assert!(cost_rtp(&p, &s).is_none());
        let mut s2 = s;
        s2.sel_terms = 1;
        s2.sel_fanout = 8.0;
        s2.sel_postings = 8.0;
        let c = cost_rtp(&p, &s2).unwrap();
        assert!((c.invocation - 3.0).abs() < 1e-12, "single invocation");
        assert!(c.total() < cost_ts(&p, &s2).total(), "selective RTP wins");
    }

    #[test]
    fn sj_packs_by_term_cap() {
        let (p, mut s) = stats();
        s.needs_long = false;
        // k=2, no selections: 35 conjuncts/search; 100 keys → 3 searches.
        let c = cost_sj(&p, &s, false).unwrap();
        assert!((c.searches - 3.0).abs() < 1e-12);
        // Tiny cap: inapplicable.
        let mut p2 = p;
        p2.m = 1;
        assert!(cost_sj(&p2, &s, false).is_none());
    }

    #[test]
    fn sj_transmission_uses_distinct_docs() {
        let (p, s) = stats();
        let c = cost_sj(&p, &s, false).unwrap();
        let v = 100.0 * result_fanout(&p, &s, 0..2);
        // U < V strictly for overlapping result sets.
        assert!(c.transmission / p.constants.c_s < v);
    }

    #[test]
    fn sj_rtp_adds_completion() {
        let (p, s) = stats();
        let plain = cost_sj(&p, &s, false).unwrap();
        let with = cost_sj(&p, &s, true).unwrap();
        assert!(with.total() > plain.total());
        assert!(with.rtp > 0.0);
        assert!(with.transmission > plain.transmission, "long-form fetch added");
    }

    #[test]
    fn p_rtp_cheaper_with_fewer_docs() {
        let (p, mut s) = stats();
        s.needs_long = false;
        let a = cost_p_rtp(&p, &s, &[0]);
        let mut s2 = s.clone();
        s2.preds[0].fanout = 0.2; // far fewer candidate docs
        let b = cost_p_rtp(&p, &s2, &[0]);
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
        assert!(cost_ts_naive(&p, &s).total() > cost_ts(&p, &s).total());
    }

    #[test]
    fn breakdown_total_sums() {
        let (p, s) = stats();
        let c = cost_p_ts(&p, &s, &[0, 1]);
        assert!(
            (c.total() - (c.invocation + c.processing + c.transmission + c.rtp)).abs() < 1e-9
        );
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
        let ts_clean = cost_ts(&p, &s).total();
        let sj_clean = cost_sj(&p, &s, false).unwrap().total();
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
        let ts_flaky = cost_ts(&flaky, &s).total();
        let sj_flaky = cost_sj(&flaky, &s, false).unwrap().total();
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
        assert_eq!(cost_ts(&clean, &s).total(), ts_clean);
    }
}
