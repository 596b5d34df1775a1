//! The paper's own evaluation: Table 2, Figures 1–2, the Section 7
//! validation, the Section 4.1 calibration, the Section 6 multi-join
//! comparison, and the ablations DESIGN.md calls out.

use textjoin_core::cost::formulas::{cost_p_rtp, cost_p_ts, cost_sj, cost_ts};
use textjoin_core::cost::params::{CostParams, JoinStatistics};
use textjoin_core::exec::plan_and_execute;
use textjoin_core::methods::probe::{probe_tuple_substitution, ProbeSchedule};
use textjoin_core::methods::rtp::{guarded_rtp, relational_text_processing};
use textjoin_core::methods::ts::{tuple_substitution, tuple_substitution_batched};
use textjoin_core::methods::ExecContext;
use textjoin_core::optimizer::multi::ExecutionSpace;
use textjoin_core::optimizer::single::{optimal_probe_bounded, optimal_probe_exhaustive};
use textjoin_core::query::prepare;
use textjoin_obs::secs;
use textjoin_text::server::Usage;
use textjoin_workload::knobs;
use textjoin_workload::paper;
use textjoin_workload::world::World;

use super::scenario::{measure_candidates, paper_queries, run_method_on, world_params, METHODS};

// ---------------------------------------------------------------------
// Table 2: execution times for sample queries
// ---------------------------------------------------------------------

/// A single measured cell: method × query.
#[derive(Debug, Clone, Default)]
pub struct MeasuredCell {
    /// Simulated seconds; `None` if the method is inapplicable to the query.
    pub secs: Option<f64>,
    /// Output rows (all applicable methods must agree).
    pub rows: Option<usize>,
}

/// Reproduces Table 2: executes every applicable method on Q1–Q4 in the
/// integrated system, reporting simulated seconds. Returns `cells[m][q]`
/// for method `m` (in [`METHODS`] order) and query `q` (Q1..Q4).
pub fn table2(w: &World) -> Vec<Vec<MeasuredCell>> {
    let queries = paper_queries(w);
    let mut cells = vec![vec![MeasuredCell::default(); queries.len()]; METHODS.len()];
    for (qi, pq) in queries.iter().enumerate() {
        for (mi, kind, cols) in pq.methods() {
            if let Ok(m) = run_method_on(&w.server, &pq.prepared, kind, cols) {
                cells[mi][qi].secs = Some(m.secs);
                cells[mi][qi].rows = Some(m.rows);
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------
// Figures 1(A), 1(B): cost-model sweeps
// ---------------------------------------------------------------------

/// One figure: x values and per-method cost series.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Name of the swept parameter.
    pub x_name: &'static str,
    /// The sweep points.
    pub xs: Vec<f64>,
    /// `(method label, cost at each x)`.
    pub series: Vec<(&'static str, Vec<Option<f64>>)>,
}

fn sweep_methods(
    params: &CostParams,
    stats_at: impl Fn(f64) -> JoinStatistics,
    xs: Vec<f64>,
    x_name: &'static str,
) -> Sweep {
    let mut ts = Vec::new();
    let mut sj = Vec::new();
    let mut p1_ts = Vec::new();
    let mut p2_ts = Vec::new();
    let mut p1_rtp = Vec::new();
    let total = |w| Some(params.price(&w).total());
    for &x in &xs {
        let s = stats_at(x);
        ts.push(total(cost_ts(params, &s)));
        sj.push(cost_sj(params, &s, true).and_then(total));
        p1_ts.push(total(cost_p_ts(params, &s, &[0])));
        p2_ts.push(total(cost_p_ts(params, &s, &[1])));
        p1_rtp.push(total(cost_p_rtp(params, &s, &[0])));
    }
    Sweep {
        x_name,
        xs,
        series: vec![
            ("TS", ts),
            ("SJ+RTP", sj),
            ("P1+TS", p1_ts),
            ("P2+TS", p2_ts),
            ("P1+RTP", p1_rtp),
        ],
    }
}

/// Figure 1(A): Q3's method costs as `s_1` (the fraction of project names
/// found in titles) sweeps 0 → 1.
pub fn fig1a(d: f64, points: usize) -> Sweep {
    let params = knobs::mercury_params(d);
    let base = knobs::q3_base(d);
    let xs: Vec<f64> = (0..=points).map(|i| i as f64 / points as f64).collect();
    sweep_methods(&params, |s1| knobs::with_s1(base.clone(), s1), xs, "s1")
}

/// Figure 1(B): Q4's method costs as `N_1/N` (distinct advisors over
/// relation size) sweeps 0.01 → 1, with `s_1` fixed at 1.
pub fn fig1b(d: f64, points: usize) -> Sweep {
    let params = knobs::mercury_params(d);
    let base = knobs::q4_base(d);
    let xs: Vec<f64> = (0..=points)
        .map(|i| 0.01 + (1.0 - 0.01) * i as f64 / points as f64)
        .collect();
    sweep_methods(
        &params,
        |frac| knobs::with_n1_frac(base.clone(), frac),
        xs,
        "N1/N",
    )
}

// ---------------------------------------------------------------------
// Figure 2: TS vs P+TS winner regions
// ---------------------------------------------------------------------

/// The Figure 2 grid: for each `(s_1, N_1/N)` cell, whether P+TS beats TS,
/// plus the analytic boundary prediction `s_1 < 1 − N_1/N`.
#[derive(Debug, Clone)]
pub struct Fig2 {
    /// `s_1` values (rows).
    pub s1s: Vec<f64>,
    /// `N_1/N` values (columns).
    pub fracs: Vec<f64>,
    /// `winner[i][j]` — true when P+TS wins at `(s1s[i], fracs[j])`.
    pub p_ts_wins: Vec<Vec<bool>>,
}

impl Fig2 {
    /// Fraction of grid cells where the winner matches the analytic
    /// approximation `P+TS wins ⇔ s_1 < 1 − N_1/N` (Section 7.2).
    pub fn boundary_agreement(&self) -> f64 {
        let mut agree = 0usize;
        let mut total = 0usize;
        for (i, &s1) in self.s1s.iter().enumerate() {
            for (j, &f) in self.fracs.iter().enumerate() {
                total += 1;
                if self.p_ts_wins[i][j] == (s1 < 1.0 - f) {
                    agree += 1;
                }
            }
        }
        agree as f64 / total.max(1) as f64
    }

    /// ASCII rendering: `P` where P+TS wins, `t` where TS wins.
    pub fn render(&self) -> String {
        let mut out = String::from("rows: s1 (top=1), cols: N1/N (left=0.01)\n");
        for i in (0..self.s1s.len()).rev() {
            for j in 0..self.fracs.len() {
                out.push(if self.p_ts_wins[i][j] { 'P' } else { 't' });
            }
            out.push_str(&format!("  s1={:.2}\n", self.s1s[i]));
        }
        out
    }
}

/// Computes the Figure 2 grid for Q3's base parameters.
pub fn fig2(d: f64, points: usize) -> Fig2 {
    let params = knobs::mercury_params(d);
    let base = knobs::q3_base(d);
    let s1s: Vec<f64> = (0..=points).map(|i| i as f64 / points as f64).collect();
    let fracs: Vec<f64> = (0..=points)
        .map(|i| 0.01 + (1.0 - 0.01) * i as f64 / points as f64)
        .collect();
    let mut p_ts_wins = vec![vec![false; fracs.len()]; s1s.len()];
    for (i, &s1) in s1s.iter().enumerate() {
        for (j, &frac) in fracs.iter().enumerate() {
            let stats = knobs::with_n1_frac(knobs::with_s1(base.clone(), s1), frac);
            let ts = params.price(&cost_ts(&params, &stats)).total();
            let pts = params.price(&cost_p_ts(&params, &stats, &[0])).total();
            p_ts_wins[i][j] = pts < ts;
        }
    }
    Fig2 {
        s1s,
        fracs,
        p_ts_wins,
    }
}

// ---------------------------------------------------------------------
// Section 7 validation: does the model predict the measured ranking?
// ---------------------------------------------------------------------

/// Validation record for one query: the model's cheapest method and the
/// measured cheapest method.
#[derive(Debug, Clone)]
pub struct Validation {
    /// Query label.
    pub query: &'static str,
    /// Model's choice.
    pub predicted: String,
    /// Measured winner.
    pub measured: String,
    /// Per-method `(label, predicted, measured)`.
    pub detail: Vec<(String, f64, f64)>,
    /// Text-service usage summed over the measured runs. Carries the
    /// robustness fields (faults, retries, backoff) so the summary printed
    /// by the `validate` binary cannot silently drop them.
    pub usage: Usage,
}

/// For Q1–Q4: rank methods by the cost model and by measured simulated
/// execution; report both winners.
pub fn validate(w: &World) -> Vec<Validation> {
    paper_queries(w)
        .iter()
        .map(|pq| {
            let mut usage = Usage::default();
            let detail = measure_candidates(w, pq, |c| {
                let m = run_method_on(&w.server, &pq.prepared, c.kind, &c.probe_cols)?;
                usage.accumulate(&m.text);
                Ok(m)
            });
            let winner = |col: fn(&(String, f64, f64)) -> f64| {
                detail
                    .iter()
                    .min_by(|a, b| col(a).partial_cmp(&col(b)).expect("finite"))
                    .map(|d| d.0.clone())
                    .unwrap_or_default()
            };
            Validation {
                query: pq.label,
                predicted: winner(|d| d.1),
                measured: winner(|d| d.2),
                detail,
                usage,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Section 4.1 calibration
// ---------------------------------------------------------------------

/// Recovered cost constants from micro-measurements against the server.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Recovered invocation cost.
    pub c_i: f64,
    /// Recovered per-posting cost.
    pub c_p: f64,
    /// Recovered short-form transmission cost.
    pub c_s: f64,
    /// Recovered long-form transmission cost.
    pub c_l: f64,
}

/// Re-derives the cost constants the way the paper calibrated the
/// OpenODB–Mercury system: run operations, regress cost on counters.
/// (Our server charges exactly linearly, so recovery is exact — the point
/// is exercising the measurement machinery end to end.)
pub fn calibrate(w: &World) -> Calibration {
    let server = &w.server;
    server.reset_usage();
    // A no-op-ish search: unknown word → zero postings, zero results.
    server
        .search_str("TI='zzzzunknownword'")
        .expect("search ok");
    let u1 = server.usage();
    let c_i = u1.total_cost() / u1.invocations as f64;

    // A search with postings and results.
    server.reset_usage();
    server.search_str("TI='query'").expect("search ok");
    let u2 = server.usage();
    let c_s = if u2.docs_short > 0 {
        secs(u2.ns_transmission as i64) / u2.docs_short as f64
    } else {
        0.0
    };
    let c_p = if u2.postings_processed > 0 {
        secs(u2.ns_processing as i64) / u2.postings_processed as f64
    } else {
        0.0
    };

    // A long-form retrieval.
    server.reset_usage();
    let ids = server.search_str("TI='query'").expect("search ok").ids();
    let before = server.usage();
    server.retrieve(ids[0]).expect("retrieve ok");
    let delta = server.usage().since(&before);
    let c_l = secs(delta.ns_transmission as i64) / delta.docs_long as f64;
    server.reset_usage();

    Calibration { c_i, c_p, c_s, c_l }
}

// ---------------------------------------------------------------------
// Section 6 multi-join comparison
// ---------------------------------------------------------------------

/// One execution-space result for Q5.
#[derive(Debug, Clone)]
pub struct SpaceResult {
    /// Space label.
    pub space: &'static str,
    /// Planner's estimate.
    pub est_cost: f64,
    /// Measured simulated cost.
    pub measured: f64,
    /// Probe nodes in the chosen plan.
    pub probes: usize,
    /// Result rows.
    pub rows: usize,
    /// Rendered plan.
    pub plan: String,
}

/// Plans and executes Q5 in each execution space.
pub fn multijoin(w: &World) -> Vec<SpaceResult> {
    let q = paper::q5(w);
    let params = world_params(w);
    let spaces = [
        ("left-deep", ExecutionSpace::LeftDeep),
        ("PrL", ExecutionSpace::Prl),
        ("PrL+residuals", ExecutionSpace::PrlResiduals),
    ];
    let mut out = Vec::new();
    for (label, space) in spaces {
        w.server.reset_usage();
        let (planned, outcome) = plan_and_execute(&q, &w.catalog, &w.server, params, space)
            .expect("q5 plans and executes");
        out.push(SpaceResult {
            space: label,
            est_cost: planned.est_cost,
            measured: outcome.total_cost,
            probes: planned.plan.probe_count(),
            rows: outcome.table.len(),
            plan: planned.plan.display(&q).to_string(),
        });
    }
    out
}

// ---------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------

/// One ablation measurement: a labeled variant with its simulated cost and
/// text invocations.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which knob / variant.
    pub variant: String,
    /// Simulated seconds.
    pub secs: f64,
    /// Text-system invocations.
    pub invocations: u64,
    /// Output rows (must be identical within one ablation group).
    pub rows: usize,
}

/// A group of comparable variants.
#[derive(Debug, Clone)]
pub struct Ablation {
    /// What is being ablated.
    pub name: &'static str,
    /// The measured variants.
    pub rows: Vec<AblationRow>,
}

/// Runs the ablation suite on a world:
/// 1. TS: naive vs distinct vs batched (§3.1 + §8);
/// 2. probe schedule: probe-first vs lazy vs ordered (§3.3);
/// 3. probe-column search: Theorem 5.3 bounded vs exhaustive (§5);
/// 4. runtime guard: unguarded RTP vs guarded with a tight budget (§5/[CDY]).
pub fn ablations(w: &World) -> Vec<Ablation> {
    let schema = w.server.collection().schema();
    let params = world_params(w);
    let mut out = Vec::new();

    // 1. TS variants on Q1 (duplicated join keys come from Q3's member
    //    column; Q1's name column is unique per student, so batching is the
    //    interesting saving there).
    {
        let prepared = prepare(&paper::q1(w), &w.catalog, schema).expect("q1 prepares");
        let fj = prepared.foreign_join();
        let mut rows = Vec::new();
        for (label, runner) in [
            ("TS naive", 0usize),
            ("TS distinct", 1),
            ("TS batched(16)", 2),
        ] {
            let ctx = ExecContext::new(&w.server);
            let r = match runner {
                0 => tuple_substitution(&ctx, &fj, false),
                1 => tuple_substitution(&ctx, &fj, true),
                _ => tuple_substitution_batched(&ctx, &fj, 16),
            }
            .expect("TS variant runs");
            rows.push(AblationRow {
                variant: label.into(),
                secs: r.report.total_cost(),
                invocations: r.report.text.invocations,
                rows: r.report.output_rows,
            });
        }
        out.push(Ablation {
            name: "TS variant (Q1)",
            rows,
        });
    }

    // 2. Probe schedules on Q3 (probe on the project-name predicate).
    {
        let prepared = prepare(&paper::q3(w), &w.catalog, schema).expect("q3 prepares");
        let fj = prepared.foreign_join();
        let mut rows = Vec::new();
        for schedule in [
            ProbeSchedule::ProbeFirst,
            ProbeSchedule::Lazy,
            ProbeSchedule::Ordered,
        ] {
            let ctx = ExecContext::new(&w.server);
            let r =
                probe_tuple_substitution(&ctx, &fj, &[0], schedule).expect("P+TS schedule runs");
            rows.push(AblationRow {
                variant: format!("{schedule:?}"),
                secs: r.report.total_cost(),
                invocations: r.report.text.invocations,
                rows: r.report.output_rows,
            });
        }
        out.push(Ablation {
            name: "P+TS probe schedule (Q3, probe on name)",
            rows,
        });
    }

    // 3. Probe-column search: bounded vs exhaustive plan quality on Q3/Q4.
    {
        let mut rows = Vec::new();
        for (label, q) in [("Q3", paper::q3(w)), ("Q4", paper::q4(w))] {
            let prepared = prepare(&q, &w.catalog, schema).expect("prepares");
            let export = w.server.export_stats();
            let stats = prepared.statistics_from_export(&export, schema);
            let bounded = optimal_probe_bounded(&params, &stats, cost_p_ts).expect("k ≥ 1");
            let exhaustive = optimal_probe_exhaustive(&params, &stats, cost_p_ts).expect("k ≥ 1");
            for (search, (cols, work)) in [("bounded", bounded), ("exhaustive", exhaustive)] {
                rows.push(AblationRow {
                    variant: format!("{label} {search} {cols:?}"),
                    secs: params.price(&work).total(),
                    invocations: work.searches as u64,
                    rows: 0,
                });
            }
        }
        out.push(Ablation {
            name: "probe-column search (estimated P+TS cost)",
            rows,
        });
    }

    // 4. Runtime guard on Q2's RTP (the unselective 'text' selection is
    //    exactly the case where the fetch must be abandoned).
    {
        let prepared = prepare(&paper::q2(w), &w.catalog, schema).expect("q2 prepares");
        let fj = prepared.foreign_join();
        let mut rows = Vec::new();
        let ctx = ExecContext::new(&w.server);
        let unguarded = relational_text_processing(&ctx, &fj).expect("RTP runs");
        rows.push(AblationRow {
            variant: "RTP unguarded".into(),
            secs: unguarded.report.total_cost(),
            invocations: unguarded.report.text.invocations,
            rows: unguarded.report.output_rows,
        });
        let ctx = ExecContext::new(&w.server);
        let guarded = guarded_rtp(&ctx, &fj, 25).expect("guarded RTP runs");
        rows.push(AblationRow {
            variant: format!(
                "RTP guarded(budget 25) → {}",
                if guarded.report.method == "RTP→TS" {
                    "fell back to TS"
                } else {
                    "completed"
                }
            ),
            secs: guarded.report.total_cost(),
            invocations: guarded.report.text.invocations,
            rows: guarded.report.output_rows,
        });
        out.push(Ablation {
            name: "runtime guard (Q2, unselective selection)",
            rows,
        });
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_workload::world::WorldSpec;

    fn small_world() -> World {
        World::generate(WorldSpec {
            background_docs: 300,
            students: 60,
            projects: 20,
            ..WorldSpec::default()
        })
    }

    #[test]
    fn table2_shape_and_agreement() {
        let w = small_world();
        let t = table2(&w);
        assert_eq!(t.len(), METHODS.len());
        for row in &t {
            assert_eq!(row.len(), 4, "Q1..Q4 columns");
        }
        // All applicable methods agree on output size per query.
        for q in 0..4 {
            let sizes: Vec<usize> = t.iter().filter_map(|m| m[q].rows).collect();
            assert!(!sizes.is_empty());
            assert!(
                sizes.windows(2).all(|w| w[0] == w[1]),
                "Q{} row counts disagree: {:?}",
                q + 1,
                sizes
            );
        }
        // TS is never the cheapest on Q1 (the selective selection rules).
        let ts_q1 = t[0][0].secs.expect("TS applicable");
        let rtp_q1 = t[1][0].secs.expect("RTP applicable");
        assert!(rtp_q1 < ts_q1, "RTP {rtp_q1} must beat TS {ts_q1} on Q1");
    }

    #[test]
    fn fig1a_ts_flat_and_pts_rising() {
        let f = fig1a(5_000.0, 10);
        let ts = &f.series[0].1;
        let pts = &f.series[2].1;
        // TS does not depend on s1.
        assert!((ts[0].expect("ts") - ts[10].expect("ts")).abs() < 1e-9);
        // P1+TS rises with s1.
        assert!(pts[10].expect("pts") > pts[0].expect("pts"));
        // At s1 = 1 probing is pure overhead: TS beats P1+TS.
        assert!(ts[10].expect("ts") < pts[10].expect("pts"));
        // At s1 = 0 probing wins.
        assert!(pts[0].expect("pts") < ts[0].expect("ts"));
    }

    #[test]
    fn fig1b_probe_methods_rise_with_n1() {
        let f = fig1b(5_000.0, 10);
        let pts = &f.series[2].1;
        let prtp = &f.series[4].1;
        assert!(pts[10].expect("pts") > pts[0].expect("pts"));
        assert!(prtp[10].expect("prtp") > prtp[0].expect("prtp"));
    }

    #[test]
    fn fig2_boundary_matches_analysis() {
        let f = fig2(5_000.0, 12);
        let agreement = f.boundary_agreement();
        assert!(
            agreement > 0.85,
            "winner regions should approximate s1 < 1 - N1/N; got {agreement}"
        );
        // Both regions are non-trivial (paper: "each method constitutes
        // about half of the space").
        let wins: usize = f
            .p_ts_wins
            .iter()
            .map(|r| r.iter().filter(|&&b| b).count())
            .sum();
        let total = f.s1s.len() * f.fracs.len();
        assert!(wins > total / 5 && wins < 4 * total / 5);
    }

    #[test]
    fn validation_model_predicts_measured_winner() {
        // The paper's claim ("our cost formulas correctly predict the
        // optimal method") holds on its data; on an arbitrary generated
        // world the crude g-correlated joint-fanout model can misrank two
        // close methods (the paper itself flags unreliable fanout
        // estimates, Section 5). The robust translation: the measured
        // winner is among the model's top two, and the model's pick costs
        // at most 3× the measured best.
        let w = small_world();
        for v in validate(&w) {
            let mut by_pred = v.detail.clone();
            by_pred.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
            let top2: Vec<&str> = by_pred.iter().take(2).map(|d| d.0.as_str()).collect();
            assert!(
                top2.contains(&v.measured.as_str()),
                "{}: measured winner {} not in model top-2 {:?}\n{:?}",
                v.query,
                v.measured,
                top2,
                v.detail
            );
            let best_measured = v.detail.iter().map(|d| d.2).fold(f64::INFINITY, f64::min);
            let picked_measured = v
                .detail
                .iter()
                .find(|d| d.0 == v.predicted)
                .map(|d| d.2)
                .expect("predicted method was executed");
            assert!(
                picked_measured <= 3.0 * best_measured,
                "{}: picked {} measured {:.1}s vs best {:.1}s\n{:?}",
                v.query,
                v.predicted,
                picked_measured,
                best_measured,
                v.detail
            );
        }
    }

    #[test]
    fn calibration_recovers_constants() {
        let w = small_world();
        let c = calibrate(&w);
        let k = w.server.constants();
        assert!((c.c_i - k.c_i).abs() < 1e-9);
        assert!((c.c_p - k.c_p).abs() < 1e-9);
        assert!((c.c_s - k.c_s).abs() < 1e-9);
        assert!((c.c_l - k.c_l).abs() < 1e-9);
    }

    #[test]
    fn multijoin_spaces_ordered() {
        let w = small_world();
        let rs = multijoin(&w);
        assert_eq!(rs.len(), 3);
        // Estimated cost can only improve as the space grows.
        assert!(rs[1].est_cost <= rs[0].est_cost + 1e-9);
        assert!(rs[2].est_cost <= rs[1].est_cost + 1e-9);
        // Same answer everywhere.
        assert!(rs.windows(2).all(|w| w[0].rows == w[1].rows));
    }
}
