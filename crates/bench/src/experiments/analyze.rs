//! Plan-quality observability: EXPLAIN ANALYZE, counterfactual regret,
//! misestimation detection.

use textjoin_core::cost::params::CostParams;
use textjoin_core::exec::{execute_prepared, prepare_plan, ExecHooks, MultiOutcome};
use textjoin_core::optimizer::multi::{
    text_join_candidates, with_text_method, ExecutionSpace, PlannedQuery, PlannerInput,
};
use textjoin_core::optimizer::plan::MultiJoinQuery;
use textjoin_core::serve::{Backend, ServeConfig, ServeSession, TenantSpec};
use textjoin_obs::{cmp_nan_last, q_error, quantile, Monitor, MonitorConfig};
use textjoin_text::faults::FaultPlan;
use textjoin_text::server::TextServer;
use textjoin_text::service::TextService;
use textjoin_workload::paper;
use textjoin_workload::world::{World, WorldSpec};

use super::scenario::{measure_candidates, paper_queries, recorded, run_method_on, world_params};

/// One query's counterfactual-regret measurement. Every candidate method
/// is replayed on its own charge-free sandbox — a fresh server over a
/// clone of the collection with the world's own pricing, no recorder —
/// so the unchosen methods' charges land on private ledgers the real
/// world never sees. True regret is chosen actual − best actual.
#[derive(Debug, Clone)]
pub struct RegretRow {
    /// Query label.
    pub query: &'static str,
    /// Candidate methods replayed (including the chosen one).
    pub candidates: usize,
    /// The planner's choice (cheapest estimate).
    pub chosen: String,
    /// Actual simulated cost of the chosen method.
    pub chosen_actual: f64,
    /// The method that actually measured cheapest.
    pub best: String,
    /// Actual simulated cost of the measured best.
    pub best_actual: f64,
    /// True regret: `chosen_actual - best_actual`.
    pub regret: f64,
    /// Regret as a share of the chosen cost (0 when the choice was best).
    pub regret_share: f64,
    /// Plan-level cost Q-error of the chosen run (estimate vs actual).
    pub cost_q: f64,
}

impl RegretRow {
    fn from_measured(query: &'static str, measured: &[(String, f64, f64)]) -> Option<Self> {
        // `measured` is (label, estimate, actual), cheapest estimate first
        // — the head is what the planner picks.
        let chosen = measured.first()?;
        let best = measured.iter().min_by(|a, b| cmp_nan_last(a.2, b.2))?;
        let regret = chosen.2 - best.2;
        Some(RegretRow {
            query,
            candidates: measured.len(),
            chosen: chosen.0.clone(),
            chosen_actual: chosen.2,
            best: best.0.clone(),
            best_actual: best.2,
            regret,
            regret_share: if chosen.2 > 0.0 {
                regret / chosen.2
            } else {
                0.0
            },
            cost_q: q_error(chosen.1, chosen.2),
        })
    }
}

/// A charge-free sandbox: a fresh server over a clone of the world's
/// collection, charging the world's own prices, with no recorder. Its
/// ledger is private, so replaying counterfactual methods on it is
/// passive by construction (`tests/audit.rs` pins this).
fn sandbox(w: &World) -> TextServer {
    TextServer::with_constants(w.server.collection().clone(), w.server.constants())
}

/// Plans `q` in the widest execution space from `plan_on`'s statistics,
/// then executes the chosen plan against `run_on` with EXPLAIN ANALYZE on.
fn plan_and_analyze(
    w: &World,
    q: &MultiJoinQuery,
    plan_on: &dyn TextService,
    params: CostParams,
    run_on: &dyn TextService,
) -> (PlannerInput, PlannedQuery, MultiOutcome) {
    let (input, planned) = prepare_plan(
        q,
        &w.catalog,
        plan_on,
        params,
        ExecutionSpace::PrlResiduals,
        None,
        None,
    )
    .expect("multi-join query plans");
    let hooks = ExecHooks {
        analyze: true,
        ..ExecHooks::default()
    };
    let outcome = execute_prepared(&input, &planned, &w.catalog, run_on, &hooks).expect("executes");
    (input, planned, outcome)
}

/// Counterfactual regret over the single-join paper queries Q1–Q4. Each
/// candidate replays on its own sandbox; with `fault` set, every sandbox
/// gets the same per-query seeded transient plan, so the counterfactuals
/// face exactly the environment the chosen method faced.
pub fn single_join_regret(w: &World, fault: Option<(f64, u32)>) -> Vec<RegretRow> {
    paper_queries(w)
        .iter()
        .enumerate()
        .filter_map(|(qi, pq)| {
            let measured = measure_candidates(w, pq, |c| {
                let mut server = sandbox(w);
                if let Some((rate, burst)) = fault {
                    let seed = 0xA11 ^ ((qi as u64) << 8);
                    server.set_fault_plan(FaultPlan::transient(seed, rate, burst));
                }
                run_method_on(&server, &pq.prepared, c.kind, &c.probe_cols)
            });
            RegretRow::from_measured(pq.label, &measured)
        })
        .collect()
}

/// Counterfactual regret over the multi-join queries Q5/Q6: the chosen
/// plan runs once with EXPLAIN ANALYZE on, then every enumerated text-join
/// method is grafted into the same tree shape and replayed on a fresh
/// sandbox. Returns the rows plus the rendered plan-quality tree of Q5.
pub fn multi_join_regret(w: &World) -> (Vec<RegretRow>, String) {
    let mut rows = Vec::new();
    let mut explain = String::new();
    for (label, q) in [("Q5", paper::q5(w)), ("Q6", paper::q6(w))] {
        let server = sandbox(w);
        let (input, planned, outcome) = plan_and_analyze(w, &q, &server, world_params(w), &server);
        let pq = outcome.plan_quality.as_ref().expect("analyze was on");
        if label == "Q5" {
            explain = pq.render();
        }
        let chosen_shape = format!("{:?}", planned.plan);
        let mut measured: Vec<(String, f64, f64)> = Vec::new();
        let mut chosen_label = "text-scan".to_string();
        for c in text_join_candidates(&input, &planned.plan).unwrap_or_default() {
            let Some(variant) = with_text_method(&planned.plan, c.kind, &c.probe_cols) else {
                continue;
            };
            if format!("{variant:?}") == chosen_shape {
                chosen_label = c.label.clone();
            }
            let vplanned = PlannedQuery {
                plan: variant,
                est_cost: planned.est_cost,
                est_rows: planned.est_rows,
            };
            let vbox = sandbox(w);
            if let Ok(vout) =
                execute_prepared(&input, &vplanned, &w.catalog, &vbox, &ExecHooks::default())
            {
                measured.push((c.label.clone(), c.cost.total(), vout.total_cost));
            }
        }
        // The chosen run itself anchors the row (its estimate is the
        // planner's full-plan estimate); candidate replays only compete
        // for `best`.
        let mut all = vec![(chosen_label, planned.est_cost, outcome.total_cost)];
        all.extend(measured);
        if let Some(row) = RegretRow::from_measured(label, &all) {
            rows.push(row);
        }
    }
    (rows, explain)
}

/// Per-tenant plan quality of a served stream: the serve session with
/// `analyze` on collects one plan-level cost Q-error per completed query;
/// this reports each tenant's p50/p90/max columns.
#[derive(Debug, Clone)]
pub struct ServePlanQualityRow {
    pub tenant: String,
    pub analyzed: usize,
    pub p50_q: f64,
    pub p90_q: f64,
    pub max_q: f64,
}

/// Runs a lean two-tenant serve stream with plan-quality analysis on and
/// reports the per-tenant Q-error columns.
pub fn serve_plan_quality(w: &World) -> Vec<ServePlanQualityRow> {
    let params = world_params(w);
    let server = sandbox(w);
    let mut cfg = ServeConfig::new(params);
    cfg.analyze = true;
    let tenants = vec![
        TenantSpec::new("alpha", 1e9, 1),
        TenantSpec::new("beta", 1e9, 1),
    ];
    let q5 = paper::q5(w);
    let q6 = paper::q6(w);
    let stream = vec![
        (0usize, q5.clone()),
        (1, q6.clone()),
        (0, q6.clone()),
        (1, q5.clone()),
        (0, q5),
        (1, q6),
    ];
    let report = ServeSession::new(Backend::Single(&server), &w.catalog, tenants, cfg).run(&stream);
    report
        .tenants
        .iter()
        .map(|t| ServePlanQualityRow {
            tenant: t.name.clone(),
            analyzed: t.cost_qs.len(),
            p50_q: quantile(&t.cost_qs, 0.50),
            p90_q: quantile(&t.cost_qs, 0.90),
            max_q: t.cost_qs.iter().copied().fold(0.0, f64::max),
        })
        .collect()
}

/// What the two misestimation demos share: three analyzed Q5 runs —
/// planned from `plan_on`'s statistics, executed against `live` — are
/// recorded and replayed through the estimates monitor.
fn estimate_drift_table(
    w: &World,
    plan_on: &dyn TextService,
    params: CostParams,
    live: &TextServer,
) -> String {
    let q = paper::q5(w);
    let events = recorded(live, || {
        for _ in 0..3 {
            plan_and_analyze(w, &q, plan_on, params, live);
        }
    });
    let cfg = MonitorConfig::new(1_000.0).with_estimates(3.0, 1.5);
    Monitor::replay(cfg, &events).render_table()
}

/// Misestimation-detector demo, constants branch: the server's real
/// prices are scaled away from the configured Mercury constants, so the
/// analyzed runs emit samples whose `constants_q` dominates — the monitor
/// names `constants` and advises re-calibration.
pub fn estimate_drift_constants_demo(w: &World) -> String {
    let mut k = w.server.constants();
    k.c_i *= 8.0;
    k.c_p *= 8.0;
    k.c_s *= 8.0;
    k.c_l *= 8.0;
    let server = TextServer::with_constants(w.server.collection().clone(), k);
    estimate_drift_table(w, &server, world_params(w), &server)
}

/// Misestimation-detector demo, selectivity branch: plans are built from
/// the exported statistics of a much smaller corpus (and its document
/// count) but execute against the full one — counts misestimate while
/// prices stay exact, so the monitor names `selectivity` and advises
/// re-exporting statistics.
pub fn estimate_drift_stale_stats_demo(w: &World) -> String {
    // The stale corpus predates most of the publishing activity: far
    // fewer students and projects had documents when the statistics were
    // exported, so every selectivity and fanout in the export undershoots
    // what the live corpus answers.
    let stale = World::generate(WorldSpec {
        student_publish_frac: 0.05,
        docs_per_student_author: 1,
        project_title_hit_frac: 0.04,
        docs_per_hit_project: 1,
        ..w.spec.clone()
    });
    estimate_drift_table(w, &stale.server, world_params(&stale), &sandbox(w))
}

/// The full plan-quality report the `analyze` binary prints.
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// Rendered estimated-vs-actual span tree of the chosen Q5 plan.
    pub explain: String,
    /// Fault-free counterfactual regret, Q1–Q4.
    pub fault_free: Vec<RegretRow>,
    /// Multi-join regret over grafted text-join methods, Q5/Q6.
    pub multi: Vec<RegretRow>,
    /// Regret under seeded transient faults, Q1–Q4.
    pub chaos: Vec<RegretRow>,
    /// Per-tenant plan-quality columns from a served stream.
    pub serve: Vec<ServePlanQualityRow>,
    /// Monitor table for the drifted-constants scenario.
    pub monitor_constants: String,
    /// Monitor table for the stale-statistics scenario.
    pub monitor_stale: String,
}

/// Runs every plan-quality workload: EXPLAIN ANALYZE on Q5, regret over
/// the fault-free and chaos single-join workloads and the multi-join
/// workload, the served per-tenant columns, and both misestimation
/// detector scenarios. Deterministic end to end.
pub fn analyze_report(w: &World) -> AnalyzeReport {
    let (multi, explain) = multi_join_regret(w);
    AnalyzeReport {
        explain,
        fault_free: single_join_regret(w, None),
        multi,
        chaos: single_join_regret(w, Some((0.2, 2))),
        serve: serve_plan_quality(w),
        monitor_constants: estimate_drift_constants_demo(w),
        monitor_stale: estimate_drift_stale_stats_demo(w),
    }
}

/// The `explain --analyze` section: runs the chosen Q5 plan on a sandbox
/// with EXPLAIN ANALYZE on and returns the estimated-vs-actual span tree.
pub fn explain_analyze(w: &World) -> String {
    let server = sandbox(w);
    let (.., outcome) = plan_and_analyze(w, &paper::q5(w), &server, world_params(w), &server);
    outcome.plan_quality.expect("analyze was on").render()
}
