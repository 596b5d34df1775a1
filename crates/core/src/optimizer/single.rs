//! Single-join optimization — paper, Section 5.
//!
//! Choosing a plan for one relation ⋈ text reduces to (1) costing every
//! applicable method with the Section 4 formulas and (2), for the probing
//! family, choosing the probe column set. The probe-column search comes in
//! two flavors:
//!
//! * [`optimal_probe_exhaustive`] — all `2^k − 1` non-empty subsets;
//! * [`optimal_probe_bounded`] — only subsets of size ≤ `min(k, 2g)`,
//!   justified by Theorem 5.3 (for 1-correlated cost models the optimal
//!   probe has at most 2 columns; generalized, at most `min(k, 2g)`).
//!
//! The formulas price every invocation at `CostParams::effective_c_i`,
//! which folds both the session's fault model and the scatter fan-out.
//! Against a sharded service with stats-aware routing on, the caller must
//! set the *pruned* fan-out (`with_scatter_fanout`) so the candidates here
//! are ranked by the same invoice the executor's scatter paths will
//! actually charge — see `plan_and_execute_with` for the lockstep fold.

use textjoin_obs::cmp_nan_last;

use crate::cost::formulas::{
    cost_p_rtp, cost_p_ts, cost_rtp, cost_sj, cost_ts, CostBreakdown,
};
use crate::cost::params::{CostParams, JoinStatistics};
use crate::methods::Projection;

/// Which executable method a candidate names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// Tuple substitution (distinct variant).
    Ts,
    /// Relational text processing.
    Rtp,
    /// Semi-join (pure, docids projection) or SJ+RTP otherwise.
    Sj,
    /// Probing + tuple substitution.
    PTs,
    /// Probing + relational text processing.
    PRtp,
}

/// A costed candidate plan for the single join.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCandidate {
    /// Which method.
    pub kind: MethodKind,
    /// Display label (`"TS"`, `"P1+TS"`, `"SJ+RTP"`, …).
    pub label: String,
    /// Probe predicate indices (empty for non-probing methods).
    pub probe_cols: Vec<usize>,
    /// The cost estimate.
    pub cost: CostBreakdown,
}

/// Calls `visit` with every non-empty subset of `0..k` of at most
/// `max_size` columns, each ascending, in one reused buffer: an odometer
/// over column indices per size, so the work is the subsets visited.
pub(crate) fn for_each_subset(k: usize, max_size: usize, mut visit: impl FnMut(&[usize])) {
    let mut cols = Vec::with_capacity(max_size.min(k));
    for size in 1..=max_size.min(k) {
        cols.clear();
        cols.extend(0..size);
        loop {
            visit(&cols);
            // The last column with room above it moves up one, and those
            // after it close ranks behind it.
            let Some(i) = (0..size).rfind(|&i| cols[i] < k - size + i) else {
                break;
            };
            cols[i] += 1;
            for j in i + 1..size {
                cols[j] = cols[j - 1] + 1;
            }
        }
    }
}

/// Finds the cheapest probe set by exhaustive `O(2^k)` search, under the
/// cost function `f` (e.g. [`cost_p_ts`] or [`cost_p_rtp`]). `None` when
/// there is no predicate, or more than 30 of them: `2^31` cost calls are a
/// hang.
pub fn optimal_probe_exhaustive(
    p: &CostParams,
    s: &JoinStatistics,
    f: impl Fn(&CostParams, &JoinStatistics, &[usize]) -> CostBreakdown,
) -> Option<(Vec<usize>, CostBreakdown)> {
    if s.k() > 30 {
        return None;
    }
    best_subset(s.k(), p, s, f)
}

/// Finds the cheapest probe set searching only subsets of size
/// ≤ `min(k, 2g)` — the Theorem 5.3 bound, `O(k^(2g))` instead of `O(2^k)`.
pub fn optimal_probe_bounded(
    p: &CostParams,
    s: &JoinStatistics,
    f: impl Fn(&CostParams, &JoinStatistics, &[usize]) -> CostBreakdown,
) -> Option<(Vec<usize>, CostBreakdown)> {
    best_subset(p.g.saturating_mul(2), p, s, f)
}

/// The cheapest subset of at most `max_size` columns: lowest rank, then
/// fewer probe columns (cheaper bookkeeping), then the lower bit mask (the
/// highest column they differ in is the other's) — a total order, so the
/// answer does not depend on the enumeration's. Only a new best is copied.
fn best_subset(
    max_size: usize,
    p: &CostParams,
    s: &JoinStatistics,
    f: impl Fn(&CostParams, &JoinStatistics, &[usize]) -> CostBreakdown,
) -> Option<(Vec<usize>, CostBreakdown)> {
    let mut best: Option<(f64, CostBreakdown)> = None;
    let mut best_cols = Vec::new();
    for_each_subset(s.k(), max_size, |cols| {
        let c = f(p, s, cols);
        let rank = p.rank(c.invocation, c.processing, c.transmission, c.rtp);
        let better = best.is_none_or(|(best_rank, _)| {
            cmp_nan_last(rank, best_rank)
                .then(cols.len().cmp(&best_cols.len()))
                .then_with(|| cols.iter().rev().cmp(best_cols.iter().rev()))
                .is_lt()
        });
        if better {
            best = Some((rank, c));
            best_cols.clear();
            best_cols.extend_from_slice(cols);
        }
    });
    best.map(|(_, c)| (best_cols, c))
}

fn probe_label(prefix: &str, cols: &[usize], suffix: &str) -> String {
    let s: Vec<String> = cols.iter().map(|i| (i + 1).to_string()).collect();
    format!("{prefix}{}+{suffix}", s.join(""))
}

/// Costs every applicable method for the join, using the bounded
/// probe-column search (pass `exhaustive_probe = true` for the `O(2^k)`
/// ablation, which lists no probing method past 30 predicates). Candidates
/// are returned sorted cheapest-first.
pub fn enumerate_methods(
    p: &CostParams,
    s: &JoinStatistics,
    projection: Projection,
    exhaustive_probe: bool,
) -> Vec<MethodCandidate> {
    let mut out = Vec::new();
    let has_joins = s.k() > 0;

    if has_joins {
        out.push(MethodCandidate {
            kind: MethodKind::Ts,
            label: "TS".into(),
            probe_cols: vec![],
            cost: cost_ts(p, s),
        });
    }
    if let Some(c) = cost_rtp(p, s) {
        out.push(MethodCandidate {
            kind: MethodKind::Rtp,
            label: "RTP".into(),
            probe_cols: vec![],
            cost: c,
        });
    }
    if has_joins {
        let rtp_completion = projection != Projection::DocIds;
        if let Some(c) = cost_sj(p, s, rtp_completion) {
            out.push(MethodCandidate {
                kind: MethodKind::Sj,
                label: if rtp_completion { "SJ+RTP" } else { "SJ" }.into(),
                probe_cols: vec![],
                cost: c,
            });
        }
        let search = |f: fn(&CostParams, &JoinStatistics, &[usize]) -> CostBreakdown| {
            if exhaustive_probe {
                optimal_probe_exhaustive(p, s, f)
            } else {
                optimal_probe_bounded(p, s, f)
            }
        };
        if let Some((cols, c)) = search(cost_p_ts) {
            out.push(MethodCandidate {
                kind: MethodKind::PTs,
                label: probe_label("P", &cols, "TS"),
                probe_cols: cols,
                cost: c,
            });
        }
        if let Some((cols, c)) = search(cost_p_rtp) {
            out.push(MethodCandidate {
                kind: MethodKind::PRtp,
                label: probe_label("P", &cols, "RTP"),
                probe_cols: cols,
                cost: c,
            });
        }
    }
    // Without a deadline `rank` is exactly `total()` — the pre-deadline
    // ordering, byte for byte. Under a deadline, methods whose heavy work
    // parallelizes across shards rank ahead at equal total charge.
    let rank =
        |c: &CostBreakdown| p.rank(c.invocation, c.processing, c.transmission, c.rtp);
    out.sort_by(|a, b| cmp_nan_last(rank(&a.cost), rank(&b.cost)));
    out
}

/// Picks the cheapest applicable method.
pub fn choose_method(
    p: &CostParams,
    s: &JoinStatistics,
    projection: Projection,
) -> Option<MethodCandidate> {
    enumerate_methods(p, s, projection, false).into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::params::PredStats;
    use textjoin_text::server::CostConstants;

    fn base() -> (CostParams, JoinStatistics) {
        let p = CostParams::mercury(10_000.0);
        let s = JoinStatistics {
            n: 100.0,
            n_k: 100.0,
            preds: vec![
                PredStats::simple(0.16, 2.0, 20.0),
                PredStats::simple(0.80, 5.0, 80.0),
            ],
            sel_fanout: 10_000.0,
            sel_postings: 0.0,
            sel_terms: 0,
            needs_long: true,
            short_form_sufficient: true,
        };
        (p, s)
    }

    /// The search as it was first written — every candidate subset
    /// materialized in ascending mask order, then `min_by` over them — kept
    /// as the reference the streamed search must equal bit for bit.
    fn subsets_up_to(k: usize, max_size: usize) -> Vec<Vec<usize>> {
        (1u32..1 << k)
            .filter(|mask| mask.count_ones() as usize <= max_size)
            .map(|mask| (0..k).filter(|&i| mask & (1 << i) != 0).collect())
            .collect()
    }

    fn reference_best(
        max_size: usize,
        p: &CostParams,
        s: &JoinStatistics,
    ) -> Option<(Vec<usize>, CostBreakdown)> {
        let rank = |c: &CostBreakdown| p.rank(c.invocation, c.processing, c.transmission, c.rtp);
        subsets_up_to(s.k(), max_size)
            .into_iter()
            .map(|subset| {
                let c = cost_p_ts(p, s, &subset);
                (subset, c)
            })
            .min_by(|a, b| {
                rank(&a.1)
                    .partial_cmp(&rank(&b.1))
                    .expect("costs are finite")
                    .then(a.0.len().cmp(&b.0.len()))
            })
    }

    fn bits(c: &CostBreakdown) -> [u64; 5] {
        [
            c.invocation,
            c.processing,
            c.transmission,
            c.rtp,
            c.searches,
        ]
        .map(f64::to_bits)
    }

    #[test]
    fn subsets_enumeration() {
        for (k, max_size) in [(3, 3), (3, 1), (3, 2), (0, 2), (5, 0), (6, 4), (7, 9)] {
            let mut streamed = Vec::new();
            for_each_subset(k, max_size, |cols| {
                assert!(cols.is_sorted_by(|a, b| a < b), "ascending: {cols:?}");
                streamed.push(cols.to_vec());
            });
            assert!(streamed.is_sorted_by_key(Vec::len), "size by size");
            // Each once: in mask order they are the reference's list.
            streamed.sort_by_key(|cols| cols.iter().map(|i| 1u32 << i).sum::<u32>());
            assert_eq!(streamed, subsets_up_to(k, max_size), "k={k} max={max_size}");
        }
        assert_eq!(subsets_up_to(3, 2).len(), 6);
    }

    #[test]
    fn streamed_search_equals_materialized_reference() {
        // Generated statistics with duplicated predicates (so whole subsets
        // tie on cost) and values drawn from a few levels (so columns tie
        // inside the g-correlated products): the tie-break must pick what
        // `min_by` over ascending masks picked.
        let mut x = 0x5eed_u64;
        let mut draw = |levels: &[f64]| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            levels[((x >> 33) % levels.len() as u64) as usize]
        };
        let (mut ties, mut cases) = (0, 0);
        for k in 1..=12 {
            for g in 1..=3 {
                for _ in 0..6 {
                    let mut preds: Vec<PredStats> = Vec::new();
                    while preds.len() < k {
                        let repeat = !preds.is_empty() && draw(&[0.0, 1.0, 1.0]) == 0.0;
                        let pred = if repeat {
                            preds[draw(&[0.0, 1.0, 2.0]) as usize % preds.len()]
                        } else {
                            PredStats {
                                selectivity: draw(&[0.02, 0.1, 0.1, 0.5, 0.9]),
                                fanout: draw(&[0.0, 1.0, 2.5, 2.5, 40.0]),
                                distinct: draw(&[3.0, 30.0, 30.0, 400.0]),
                                list_len: draw(&[1.0, 2.5, 80.0]),
                            }
                        };
                        preds.push(pred);
                    }
                    let s = JoinStatistics {
                        n: 500.0,
                        n_k: draw(&[120.0, 500.0]),
                        preds,
                        sel_fanout: draw(&[40.0, 10_000.0]),
                        sel_postings: draw(&[0.0, 300.0]),
                        sel_terms: draw(&[0.0, 1.0]) as usize,
                        needs_long: draw(&[0.0, 1.0]) == 1.0,
                        short_form_sufficient: true,
                    };
                    let p = CostParams::mercury(10_000.0).with_g(g);
                    for (got, max_size) in [
                        (optimal_probe_bounded(&p, &s, cost_p_ts), 2 * g),
                        (optimal_probe_exhaustive(&p, &s, cost_p_ts), k),
                    ] {
                        let (cols, cost) = got.expect("k ≥ 1");
                        let (want_cols, want) = reference_best(max_size, &p, &s).expect("k ≥ 1");
                        assert_eq!(cols, want_cols, "k={k} g={g} max={max_size}");
                        assert_eq!(bits(&cost), bits(&want), "k={k} g={g} cols={cols:?}");
                        let tied = subsets_up_to(k, max_size)
                            .iter()
                            .filter(|j| bits(&cost_p_ts(&p, &s, j)) == bits(&want))
                            .count();
                        ties += usize::from(tied > 1);
                        cases += 1;
                    }
                }
            }
        }
        assert!(ties * 10 > cases, "ties really occur: {ties} of {cases}");
    }

    #[test]
    fn bounded_search_is_polynomial_in_k() {
        // 40 predicates: 40 + 780 subsets at g = 1, no 2^40 walk and no
        // mask to overflow.
        let (p, mut s) = base();
        s.preds = (0..40)
            .map(|i| PredStats::simple(0.9 - 0.02 * i as f64, 3.0, 50.0))
            .collect();
        let mut visited = 0;
        for_each_subset(s.k(), 2 * p.g, |_| visited += 1);
        assert_eq!(visited, 40 + 40 * 39 / 2);
        let (cols, _) = optimal_probe_bounded(&p, &s, cost_p_ts).expect("k ≥ 1");
        assert!(!cols.is_empty() && cols.len() <= 2 && cols.iter().all(|&c| c < 40));
    }

    #[test]
    fn exhaustive_search_refuses_what_it_cannot_finish() {
        let (p, mut s) = base();
        s.preds = vec![PredStats::simple(0.5, 3.0, 50.0); 31];
        assert!(optimal_probe_exhaustive(&p, &s, cost_p_ts).is_none());
    }

    #[test]
    fn exhaustive_ablation_at_k31_lists_the_non_probing_methods() {
        let (p, mut s) = base();
        s.preds = vec![PredStats::simple(0.5, 3.0, 50.0); 31];
        let labels = |exhaustive| -> Vec<String> {
            enumerate_methods(&p, &s, Projection::Full, exhaustive)
                .into_iter()
                .map(|c| c.label)
                .collect()
        };
        let ablation = labels(true);
        assert!(ablation.contains(&"TS".to_owned()), "{ablation:?}");
        let bounded = labels(false);
        let non_probing: Vec<&String> = bounded.iter().filter(|l| !l.starts_with('P')).collect();
        assert_eq!(ablation.iter().collect::<Vec<_>>(), non_probing);
    }

    #[test]
    fn theorem_5_3_bound_matches_exhaustive_for_g1() {
        // For 1-correlated cost models the exhaustive optimum is always a
        // subset of ≤ 2 columns — sweep a grid of parameters and check.
        let d = 10_000.0;
        for n1 in [5.0, 50.0, 500.0] {
            for s1 in [0.01, 0.2, 0.9] {
                for f1 in [1.0, 10.0] {
                    let p = CostParams::mercury(d); // g = 1
                    let s = JoinStatistics {
                        n: 1000.0,
                        n_k: 1000.0,
                        preds: vec![
                            PredStats::simple(s1, f1, n1),
                            PredStats::simple(0.5, 3.0, 40.0),
                            PredStats::simple(0.05, 8.0, 300.0),
                            PredStats::simple(0.7, 1.5, 10.0),
                        ],
                        sel_fanout: d,
                        sel_postings: 0.0,
                        sel_terms: 0,
                        needs_long: false,
                        short_form_sufficient: true,
                    };
                    let (ec, e) =
                        optimal_probe_exhaustive(&p, &s, crate::cost::formulas::cost_p_ts)
                            .unwrap();
                    let (bc, b) = optimal_probe_bounded(&p, &s, crate::cost::formulas::cost_p_ts)
                        .unwrap();
                    assert!(
                        (e.total() - b.total()).abs() < 1e-9,
                        "bounded search missed optimum: {ec:?} ({}) vs {bc:?} ({})",
                        e.total(),
                        b.total()
                    );
                    assert!(ec.len() <= 2, "g=1 optimum uses ≤2 columns, got {ec:?}");
                }
            }
        }
    }

    #[test]
    fn example_5_2_multi_column_probe_dominates() {
        // Paper Example 5.2: product (fully independent) selectivity model,
        // invocation cost only; a 2-column probe beats every 1-column probe.
        let mut p = CostParams::mercury(1e6).with_g(3);
        p.constants = CostConstants {
            c_i: 1.0,
            c_p: 0.0,
            c_s: 0.0,
            c_l: 0.0,
        };
        let s = JoinStatistics {
            n: 1e5,
            n_k: 1e5,
            preds: vec![
                PredStats::simple(0.005, 1.0, 1e3),
                PredStats::simple(0.01, 1.0, 10.0),
                PredStats::simple(0.01, 1.0, 10.0),
            ],
            sel_fanout: 1e6,
            sel_postings: 0.0,
            sel_terms: 0,
            needs_long: false,
            short_form_sufficient: true,
        };
        let best1 = subsets_up_to(3, 1)
            .into_iter()
            .map(|j| crate::cost::formulas::cost_p_ts(&p, &s, &j).total())
            .fold(f64::INFINITY, f64::min);
        let (cols, best) =
            optimal_probe_exhaustive(&p, &s, crate::cost::formulas::cost_p_ts).unwrap();
        assert!(cols.len() == 2, "optimal probe is 2-column: {cols:?}");
        assert!(best.total() < best1);
        // And the bounded search (min(k, 2g) = 3) finds it too.
        let (_, b) = optimal_probe_bounded(&p, &s, crate::cost::formulas::cost_p_ts).unwrap();
        assert!((b.total() - best.total()).abs() < 1e-9);
    }

    #[test]
    fn example_5_1_optimal_column_not_most_selective() {
        // Invocation-only model: probe column choice trades N_i against
        // s_i·N — the most selective column is not automatically best.
        let mut p = CostParams::mercury(1e6);
        p.constants = CostConstants {
            c_i: 1.0,
            c_p: 0.0,
            c_s: 0.0,
            c_l: 0.0,
        };
        let s = JoinStatistics {
            n: 1000.0,
            n_k: 1000.0,
            preds: vec![
                // More selective but many distinct values: 900 + 0.1·1000 = 1000.
                PredStats::simple(0.10, 1.0, 900.0),
                // Less selective but few distinct values: 10 + 0.2·1000 = 210.
                PredStats::simple(0.20, 1.0, 10.0),
            ],
            sel_fanout: 1e6,
            sel_postings: 0.0,
            sel_terms: 0,
            needs_long: false,
            short_form_sufficient: true,
        };
        let c0 = crate::cost::formulas::cost_p_ts(&p, &s, &[0]).total();
        let c1 = crate::cost::formulas::cost_p_ts(&p, &s, &[1]).total();
        assert!(
            c1 < c0,
            "column 2 (s=0.2, N_2=10) must beat column 1 (s=0.1, N_1=900): {c1} vs {c0}"
        );
    }

    #[test]
    fn enumerate_sorted_and_labeled() {
        let (p, mut s) = base();
        s.sel_terms = 1;
        s.sel_fanout = 8.0;
        s.sel_postings = 8.0;
        let cands = enumerate_methods(&p, &s, Projection::Full, false);
        assert!(cands.len() >= 4);
        for w in cands.windows(2) {
            assert!(w[0].cost.total() <= w[1].cost.total());
        }
        let labels: Vec<&str> = cands.iter().map(|c| c.label.as_str()).collect();
        assert!(labels.contains(&"TS"));
        assert!(labels.contains(&"RTP"));
        assert!(labels.contains(&"SJ+RTP"));
        assert!(labels.iter().any(|l| l.starts_with('P') && l.ends_with("TS")));
    }

    #[test]
    fn rtp_absent_without_selections() {
        let (p, s) = base();
        let cands = enumerate_methods(&p, &s, Projection::Full, false);
        assert!(cands.iter().all(|c| c.kind != MethodKind::Rtp));
    }

    #[test]
    fn docids_projection_gets_pure_sj() {
        let (p, mut s) = base();
        s.needs_long = false;
        let cands = enumerate_methods(&p, &s, Projection::DocIds, false);
        let sj = cands.iter().find(|c| c.kind == MethodKind::Sj).unwrap();
        assert_eq!(sj.label, "SJ");
    }

    #[test]
    fn choose_picks_cheapest() {
        let (p, mut s) = base();
        s.sel_terms = 1;
        s.sel_fanout = 8.0; // very selective text selection → RTP should win
        s.sel_postings = 8.0;
        let best = choose_method(&p, &s, Projection::Full).unwrap();
        let all = enumerate_methods(&p, &s, Projection::Full, false);
        assert_eq!(best, all[0]);
        // With a selective selection, a relational-processing method (RTP
        // or SJ+RTP, which also exploits it) must beat plain TS.
        assert_ne!(best.kind, MethodKind::Ts);
        let rtp = all.iter().find(|c| c.kind == MethodKind::Rtp).unwrap();
        let ts = all.iter().find(|c| c.kind == MethodKind::Ts).unwrap();
        assert!(rtp.cost.total() < ts.cost.total(), "RTP beats TS at Q1-like params");
    }

    #[test]
    fn exhaustive_flag_never_worse() {
        let (p, s) = base();
        let bounded = enumerate_methods(&p, &s, Projection::Full, false);
        let exhaustive = enumerate_methods(&p, &s, Projection::Full, true);
        let b = bounded.first().unwrap().cost.total();
        let e = exhaustive.first().unwrap().cost.total();
        assert!(e <= b + 1e-9);
    }

    #[test]
    fn choose_survives_a_nan_statistic() {
        let (p, mut s) = base();
        s.preds[1] = PredStats::simple(f64::NAN, 2.0, 50.0);
        // A NaN cost ranks last instead of panicking the comparator.
        let best = choose_method(&p, &s, Projection::Full).unwrap();
        let all = enumerate_methods(&p, &s, Projection::Full, false);
        assert_eq!(best, all[0]);
    }
}
