//! Experiment runners reproducing the paper's evaluation (Section 7).
//!
//! Each function is deterministic (seeded worlds, simulated costs) and
//! returns structured results; the `src/bin/*` binaries print them in the
//! paper's shape and `EXPERIMENTS.md` records paper-vs-measured.
//!
//! The evaluation is one setting — five join methods over Q1–Q4 against
//! one text system — and every later table is that setting under a
//! different server. The first section declares the setting once; every
//! experiment below reads it from there.

use std::rc::Rc;

use textjoin_core::cost::formulas::{cost_p_rtp, cost_p_ts, cost_sj, cost_ts, CostBreakdown};
use textjoin_core::cost::params::{CostParams, JoinStatistics};
use textjoin_core::exec::{
    execute_prepared, execute_single, plan_and_execute, prepare_plan, ExecHooks, MultiExecutor,
    MultiOutcome,
};
use textjoin_core::methods::probe::{probe_tuple_substitution, ProbeSchedule};
use textjoin_core::methods::rtp::relational_text_processing;
use textjoin_core::methods::ts::{tuple_substitution, tuple_substitution_batched};
use textjoin_core::methods::{ExecContext, MethodError};
use textjoin_core::optimizer::multi::{
    text_join_candidates, with_text_method, ExecutionSpace, PlannedQuery, PlannerInput,
};
use textjoin_core::optimizer::plan::{MultiJoinQuery, PlanNode};
use textjoin_core::optimizer::single::{
    enumerate_methods, optimal_probe_bounded, optimal_probe_exhaustive, MethodCandidate,
    MethodKind,
};
use textjoin_core::query::{prepare, PreparedQuery, SingleJoinQuery};
use textjoin_core::retry::{RetryBudget, RetryPolicy};
use textjoin_core::runtime::{guarded_rtp, GuardVerdict};
use textjoin_core::sched::{SchedConfig, Scheduler};
use textjoin_core::serve::{
    percentile, Backend, ServeConfig, ServeError, ServeSession, TenantSpec,
};
use textjoin_obs::{
    calibrate_trace, parse_jsonl, q_error, Advice, Event, EventKind, FanoutSink, JsonlSink,
    Monitor, MonitorConfig, Recorder, RingSink, Sink,
};
use textjoin_text::doc::DocId;
use textjoin_text::expr::SearchExpr;
use textjoin_text::faults::FaultPlan;
use textjoin_text::rebalance::{MigrationPlan, Move, MoveStatus};
use textjoin_text::server::{TextServer, Usage};
use textjoin_text::service::TextService;
use textjoin_text::shard::ShardedTextServer;
use textjoin_workload::knobs;
use textjoin_workload::paper;
use textjoin_workload::world::{World, WorldSpec};

// ---------------------------------------------------------------------
// The scenario: methods, queries, topology, fault wiring, runners
// ---------------------------------------------------------------------

/// The default world for execution experiments — sized so Q1–Q4 behave like
/// the paper's setting (Q3 has ~100 membership rows, a few percent of
/// students publish several reports, etc.).
pub fn default_world() -> World {
    World::generate(WorldSpec::default())
}

/// Cost parameters for a world: the Mercury calibration with the world's
/// document count.
pub fn world_params(w: &World) -> CostParams {
    CostParams::mercury(w.server.doc_count() as f64)
}

/// The five join methods in the paper's row order (Table 2): the label
/// every table prints and the method the executor runs for it.
pub const METHODS: [(&str, MethodKind); 5] = [
    ("TS", MethodKind::Ts),
    ("RTP", MethodKind::Rtp),
    ("SJ/SJ+RTP", MethodKind::Sj),
    ("P+TS", MethodKind::PTs),
    ("P+RTP", MethodKind::PRtp),
];

/// Logical shards in every sharded experiment's server.
pub const N_SHARDS: usize = 4;
/// Replicas per shard in the replicated experiments.
pub const N_REPLICAS: usize = 2;
/// The shard whose primary replica is permanently dead in the replicated
/// chaos grid and the serve stream.
pub const DEAD_SHARD: usize = 2;
/// The shard the migrations drain; in the rebalance chaos grid its primary
/// replica dies after batch 1.
pub const SRC_SHARD: usize = 1;
/// The shard taking ownership of what [`SRC_SHARD`] gives up.
pub const DST_SHARD: usize = 3;
/// Documents per migration batch (rebalance chaos, the monitor's executed
/// advice).
pub const BATCH_DOCS: usize = 24;
/// Per-query deadline in simulated seconds (makespan grid, SLO episode).
pub const DEADLINE: f64 = 150.0;
/// Per-operation probability of a latency-only `Slow` fault on each
/// shard's primary replica (makespan grid, SLO episode).
pub const SLOW_RATE: f64 = 0.25;

/// One of the paper's single-join queries, prepared once: its statistics
/// and probe-column choices come from fault-free statistics
/// (`export_stats` is free and never faulted).
pub(crate) struct PaperQuery {
    pub(crate) label: &'static str,
    pub(crate) query: SingleJoinQuery,
    pub(crate) prepared: PreparedQuery,
    stats: JoinStatistics,
    pts: Vec<usize>,
    prtp: Vec<usize>,
}

impl PaperQuery {
    /// The probe columns `kind` needs on this query, `None` when the
    /// method is inapplicable: the paper reports P-methods only for the
    /// multi-predicate queries Q3/Q4 (k ≥ 2).
    pub(crate) fn probe_cols(&self, kind: MethodKind) -> Option<&[usize]> {
        match kind {
            MethodKind::PTs => (self.stats.k() >= 2).then_some(self.pts.as_slice()),
            MethodKind::PRtp => (self.stats.k() >= 2).then_some(self.prtp.as_slice()),
            _ => Some(&[]),
        }
    }

    /// Every applicable `(row index in METHODS, kind, probe columns)`.
    pub(crate) fn methods(&self) -> impl Iterator<Item = (usize, MethodKind, &[usize])> {
        METHODS
            .iter()
            .enumerate()
            .filter_map(move |(mi, &(_, kind))| Some((mi, kind, self.probe_cols(kind)?)))
    }
}

/// Q1–Q4, prepared against the world's own server.
pub(crate) fn paper_queries(w: &World) -> Vec<PaperQuery> {
    let ts_schema = w.server.collection().schema();
    let params = world_params(w);
    let probe_cols = |stats: &JoinStatistics,
                      f: fn(&CostParams, &JoinStatistics, &[usize]) -> CostBreakdown| {
        optimal_probe_bounded(&params, stats, f)
            .map(|(cols, _)| cols)
            .unwrap_or_else(|| vec![0])
    };
    [("Q1", paper::q1(w)), ("Q2", paper::q2(w)), ("Q3", paper::q3(w)), ("Q4", paper::q4(w))]
        .into_iter()
        .map(|(label, query)| {
            let prepared = prepare(&query, &w.catalog, ts_schema).expect("paper query prepares");
            let stats = prepared.statistics_from_export(&w.server.export_stats(), ts_schema);
            let pts = probe_cols(&stats, cost_p_ts);
            let prtp = probe_cols(&stats, cost_p_rtp);
            PaperQuery { label, query, prepared, stats, pts, prtp }
        })
        .collect()
}

/// The one sharded topology: [`N_SHARDS`] logical shards of `replicas`
/// servers each over the world's collection, one partition seed.
fn cluster(w: &World, replicas: usize) -> ShardedTextServer {
    ShardedTextServer::replicated(w.server.collection(), N_SHARDS, replicas, 0x5AD)
}

/// The seed of one grid cell: query, method row and rate column folded
/// into the experiment's base seed.
fn cell_seed(base: u64, qi: usize, mi: usize, ri: usize) -> u64 {
    base ^ ((qi as u64) << 16) ^ ((mi as u64) << 8) ^ ri as u64
}

/// The chaos fault wiring: every replica gets an independent transient
/// plan (same rate, distinct seeded streams, bounded to 2 consecutive —
/// below every retry budget), except `dead`'s primary replica, which is
/// permanently dead: it transiently faults on every single operation.
fn shake(sharded: &mut ShardedTextServer, seed: u64, rate: f64, dead: Option<usize>) {
    let dead = dead.map(|shard| (shard, sharded.primary_of(shard)));
    for i in 0..sharded.shard_count() {
        for r in 0..sharded.replication_factor() {
            let plan = if dead == Some((i, r)) {
                FaultPlan::dead(seed)
            } else {
                FaultPlan::transient(seed ^ ((i as u64) << 24) ^ ((r as u64) << 32), rate, 2)
            };
            sharded.replica_mut(i, r).set_fault_plan(plan);
        }
    }
}

/// Puts every shard's primary replica on a seeded latency-only
/// [`FaultPlan::slow`] plan: it always answers, sometimes late.
fn slow_primaries(sharded: &mut ShardedTextServer, seed: u64) {
    for i in 0..sharded.shard_count() {
        sharded.shard_mut(i).set_fault_plan(FaultPlan::slow(seed ^ i as u64, SLOW_RATE));
    }
}

/// The migration plan draining all of [`SRC_SHARD`] into [`DST_SHARD`].
fn drain_plan(w: &World, batch_docs: usize) -> MigrationPlan {
    let range = (DocId(0), DocId(w.server.doc_count() as u32));
    MigrationPlan::new(vec![Move { range, src: SRC_SHARD, dst: DST_SHARD }], batch_docs)
}

/// Begins `plan` and returns the number of documents it staged.
fn begin_drain(sharded: &mut ShardedTextServer, plan: MigrationPlan) -> u64 {
    sharded.begin_migration(plan).entries.iter().map(|e| e.docs).sum()
}

/// Drives the open migration to completion. A transiently refused batch
/// resumes from the journal on the next attempt, so the loop terminates
/// (bounded consecutive faults, finite plan).
fn drain(sharded: &ShardedTextServer) {
    let mut steps = 0u32;
    while !sharded.journal().expect("journal exists").finished() {
        let _ = sharded.migrate_batch();
        steps += 1;
        assert!(steps < 10_000, "migration failed to drain");
    }
}

/// A fresh seeded virtual-time transport scheduler.
fn scheduler(deadline: Option<f64>) -> Scheduler {
    let cfg = SchedConfig::new(0x7E97);
    Scheduler::new(match deadline {
        Some(d) => cfg.with_deadline(d),
        None => cfg,
    })
}

/// One measured method run: the simulated cost, the rows emitted, and the
/// usage ledger delta (carrying fault/retry counts for the chaos tables).
#[derive(Debug, Clone, Copy)]
pub struct RunMeasure {
    /// Total simulated seconds (text charges + `c_a` × comparisons).
    pub secs: f64,
    /// Rows emitted.
    pub rows: usize,
    /// Text-service usage delta, including `faults` / `retries`.
    pub text: Usage,
}

/// Runs one method on a prepared query against an explicit service — the
/// world's own server, or a fresh (possibly sharded) one carrying fault
/// plans.
pub fn run_method_on(
    server: &dyn TextService,
    prepared: &PreparedQuery,
    kind: MethodKind,
    probe_cols: &[usize],
) -> Result<RunMeasure, MethodError> {
    run_method_ctx(&ExecContext::new(server), prepared, kind, probe_cols)
}

/// Core runner: executes `kind` through an explicit [`ExecContext`] (the
/// sharded benches attach an adaptive retry budget to it).
pub fn run_method_ctx(
    ctx: &ExecContext<'_>,
    prepared: &PreparedQuery,
    kind: MethodKind,
    probe_cols: &[usize],
) -> Result<RunMeasure, MethodError> {
    let cand = MethodCandidate {
        kind,
        label: String::new(),
        probe_cols: probe_cols.to_vec(),
        cost: Default::default(),
    };
    let out = execute_single(ctx, prepared, &cand, ProbeSchedule::ProbeFirst)?;
    Ok(RunMeasure {
        secs: out.report.total_cost(),
        rows: out.report.output_rows,
        text: out.report.text,
    })
}

/// Runs one method under a fresh adaptive [`RetryBudget`] over the
/// standard policy — fresh so adaptive state never leaks between cells —
/// and, when given, on a virtual-time transport.
fn run_budgeted(
    sharded: &ShardedTextServer,
    sched: Option<&Scheduler>,
    prepared: &PreparedQuery,
    kind: MethodKind,
    probe_cols: &[usize],
) -> Result<RunMeasure, MethodError> {
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(sharded, &budget);
    let ctx = match sched {
        Some(sched) => ctx.with_transport(sched),
        None => ctx,
    };
    run_method_ctx(&ctx, prepared, kind, probe_cols)
}

/// Attaches a ring-sink recorder to `server`, runs `run`, and returns the
/// recorded trace.
fn recorded(server: &TextServer, run: impl FnOnce()) -> Vec<Event> {
    let sink = Rc::new(RingSink::unbounded());
    server.set_recorder(Some(Recorder::new(sink.clone())));
    run();
    sink.events()
}

/// Enumerates the cost model's candidate methods for `pq` (cheapest
/// estimate first), runs each through `run`, and returns
/// `(label, estimate, measured)` for every candidate that ran.
fn measure_candidates(
    w: &World,
    pq: &PaperQuery,
    mut run: impl FnMut(&MethodCandidate) -> Result<RunMeasure, MethodError>,
) -> Vec<(String, f64, f64)> {
    enumerate_methods(&world_params(w), &pq.stats, pq.query.projection, false)
        .iter()
        .filter_map(|c| Some((c.label.clone(), c.cost.total(), run(c).ok()?.secs)))
        .collect()
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
    let (input, planned) =
        prepare_plan(q, &w.catalog, plan_on, params, ExecutionSpace::PrlResiduals, None, None)
            .expect("multi-join query plans");
    let hooks = ExecHooks { analyze: true, ..ExecHooks::default() };
    let outcome =
        execute_prepared(&input, &planned, &w.catalog, run_on, &hooks).expect("executes");
    (input, planned, outcome)
}

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

fn sweep_methods(params: &CostParams, stats_at: impl Fn(f64) -> JoinStatistics, xs: Vec<f64>, x_name: &'static str) -> Sweep {
    let mut ts = Vec::new();
    let mut sj = Vec::new();
    let mut p1_ts = Vec::new();
    let mut p2_ts = Vec::new();
    let mut p1_rtp = Vec::new();
    for &x in &xs {
        let s = stats_at(x);
        ts.push(Some(cost_ts(params, &s).total()));
        sj.push(cost_sj(params, &s, true).map(|c| c.total()));
        p1_ts.push(Some(cost_p_ts(params, &s, &[0]).total()));
        p2_ts.push(Some(cost_p_ts(params, &s, &[1]).total()));
        p1_rtp.push(Some(cost_p_rtp(params, &s, &[0]).total()));
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
    sweep_methods(
        &params,
        |s1| knobs::with_s1(base.clone(), s1),
        xs,
        "s1",
    )
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
            let ts = cost_ts(&params, &stats).total();
            let pts = cost_p_ts(&params, &stats, &[0]).total();
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
        (u2.time_transmission) / u2.docs_short as f64
    } else {
        0.0
    };
    let c_p = if u2.postings_processed > 0 {
        u2.time_processing / u2.postings_processed as f64
    } else {
        0.0
    };

    // A long-form retrieval.
    server.reset_usage();
    let ids = server.search_str("TI='query'").expect("search ok").ids();
    let before = server.usage();
    server.retrieve(ids[0]).expect("retrieve ok");
    let delta = server.usage().since(&before);
    let c_l = delta.time_transmission / delta.docs_long as f64;
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

#[cfg(test)]
mod tests {
    use super::*;

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
            let sizes: Vec<usize> = t
                .iter()
                .filter_map(|m| m[q].rows)
                .collect();
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
            let best_measured = v
                .detail
                .iter()
                .map(|d| d.2)
                .fold(f64::INFINITY, f64::min);
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

    #[test]
    fn paper_queries_state_the_applicability_rule_once() {
        let queries = paper_queries(&default_world());
        let labels: Vec<&str> = queries.iter().map(|pq| pq.label).collect();
        assert_eq!(labels, ["Q1", "Q2", "Q3", "Q4"]);
        // P-methods need a composite join (k ≥ 2): Q1/Q2 run the first
        // three rows, Q3/Q4 all five, always in METHODS order.
        for (pq, applicable) in queries.iter().zip([3, 3, 5, 5]) {
            let rows: Vec<(usize, MethodKind)> =
                pq.methods().map(|(mi, kind, _)| (mi, kind)).collect();
            let expected: Vec<(usize, MethodKind)> =
                METHODS.iter().map(|&(_, kind)| kind).enumerate().take(applicable).collect();
            assert_eq!(rows, expected, "{}", pq.label);
        }
    }
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
            let r = probe_tuple_substitution(&ctx, &fj, &[0], schedule)
                .expect("P+TS schedule runs");
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
            let exhaustive =
                optimal_probe_exhaustive(&params, &stats, cost_p_ts).expect("k ≥ 1");
            rows.push(AblationRow {
                variant: format!("{label} bounded {:?}", bounded.0),
                secs: bounded.1.total(),
                invocations: bounded.1.searches as u64,
                rows: 0,
            });
            rows.push(AblationRow {
                variant: format!("{label} exhaustive {:?}", exhaustive.0),
                secs: exhaustive.1.total(),
                invocations: exhaustive.1.searches as u64,
                rows: 0,
            });
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
                if guarded.verdict == GuardVerdict::FellBackToTs {
                    "fell back to TS"
                } else {
                    "completed"
                }
            ),
            secs: guarded.outcome.report.total_cost(),
            invocations: guarded.outcome.report.text.invocations,
            rows: guarded.outcome.report.output_rows,
        });
        out.push(Ablation {
            name: "runtime guard (Q2, unselective selection)",
            rows,
        });
    }

    out
}

// ---------------------------------------------------------------------
// Chaos: cost overhead under injected faults, one grid, four servers
// ---------------------------------------------------------------------

/// Chaos experiment result: per method × fault rate, the total simulated
/// cost over the paper queries the method applies to, and its overhead
/// relative to the rate-0 column. Rows follow [`METHODS`].
#[derive(Debug, Clone)]
pub struct ChaosTable {
    /// Per-operation fault probabilities, first entry 0.0 (the baseline —
    /// which in the replicated and rebalance scenarios still pays for the
    /// dead primary).
    pub rates: Vec<f64>,
    /// `cells[m][r]` = `(total_secs, overhead_pct)`; `None` when the
    /// method applies to no query.
    pub cells: Vec<Vec<Option<(f64, f64)>>>,
    /// `fault_cells[m][r]` = `(faults, retries)` summed over the same
    /// queries — the `Usage::faults` counter surfaced alongside the costs.
    pub fault_cells: Vec<Vec<Option<(u64, u64)>>>,
}

/// What the grid hands a scenario for one cell: the method to run on one
/// query, the column's fault rate, and the cell's seed.
struct ChaosRun<'a> {
    prepared: &'a PreparedQuery,
    kind: MethodKind,
    cols: &'a [usize],
    rate: f64,
    seed: u64,
}

/// The method × rate × query grid every chaos table shares; the scenario
/// supplies only the per-cell server (fresh, so fault and adaptive state
/// never leak between cells). Plans are bounded to 2 consecutive faults —
/// below every retry budget — so injected faults cost money (retries,
/// backoff, partial processing) but never change an answer: every rate
/// column is asserted to return the rate-0 answers. The surfaced
/// fault/retry counters are read back through the
/// [`Usage::metrics_snapshot`] bridge so the printed tables are fed from
/// the same snapshot keys the observability layer exports.
fn chaos_grid(
    w: &World,
    what: &str,
    seed: u64,
    mut run: impl FnMut(&ChaosRun<'_>) -> Option<RunMeasure>,
) -> ChaosTable {
    let rates = vec![0.0, 0.05, 0.1, 0.2];
    let queries = paper_queries(w);
    let mut cells = vec![Vec::new(); METHODS.len()];
    let mut fault_cells = vec![Vec::new(); METHODS.len()];
    for (mi, &(label, kind)) in METHODS.iter().enumerate() {
        let mut baseline: Option<f64> = None;
        let mut baseline_rows: Vec<Option<usize>> = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            let mut total = 0.0;
            let mut faults = 0u64;
            let mut retries = 0u64;
            let mut any = false;
            let mut rows_at_rate: Vec<Option<usize>> = Vec::new();
            for (qi, pq) in queries.iter().enumerate() {
                let r = pq.probe_cols(kind).and_then(|cols| {
                    let seed = cell_seed(seed, qi, mi, ri);
                    run(&ChaosRun { prepared: &pq.prepared, kind, cols, rate, seed })
                });
                rows_at_rate.push(r.map(|m| m.rows));
                if let Some(m) = r {
                    let snap = m.text.metrics_snapshot();
                    total += m.secs;
                    faults += snap.counter("usage.faults");
                    retries += snap.counter("usage.retries");
                    any = true;
                }
            }
            if ri == 0 {
                baseline = any.then_some(total);
                baseline_rows = rows_at_rate.clone();
            }
            assert_eq!(
                rows_at_rate, baseline_rows,
                "{what} changed {label} answers at rate {rate}"
            );
            let cell = match (any, baseline) {
                (true, Some(base)) if base > 0.0 => {
                    Some((total, (total / base - 1.0) * 100.0))
                }
                (true, _) => Some((total, 0.0)),
                _ => None,
            };
            fault_cells[mi].push(cell.is_some().then_some((faults, retries)));
            cells[mi].push(cell);
        }
    }
    ChaosTable { rates, cells, fault_cells }
}

/// Runs every method over Q1–Q4 against a single server under a seeded
/// transient fault plan of increasing rate; the standard 4-attempt retry
/// policy absorbs the faults.
pub fn chaos_table(w: &World) -> ChaosTable {
    chaos_grid(w, "fault injection", 0xC0FFEE, |c| {
        let mut server = TextServer::new(w.server.collection().clone());
        server.set_fault_plan(FaultPlan::transient(c.seed, c.rate, 2));
        run_method_on(&server, c.prepared, c.kind, c.cols).ok()
    })
}

/// Runs every method over Q1–Q4 against an unreplicated [`N_SHARDS`]-shard
/// server whose shards fault independently, with the adaptive
/// [`RetryBudget`] steering per-shard attempts.
pub fn sharded_chaos_table(w: &World) -> ChaosTable {
    chaos_grid(w, "sharded fault injection", 0x5EED, |c| {
        let mut sharded = cluster(w, 1);
        shake(&mut sharded, c.seed, c.rate, None);
        run_budgeted(&sharded, None, c.prepared, c.kind, c.cols).ok()
    })
}

/// Runs every method over Q1–Q4 against an [`N_SHARDS`] × [`N_REPLICAS`]
/// server in which [`DEAD_SHARD`]'s primary is permanently dead and the
/// surviving replicas fault transiently. Every cell proves the failover
/// path (primary exhaustion → circuit breaker → secondary leg) preserves
/// the result multiset under persistent single-replica death.
pub fn replicated_chaos_table(w: &World) -> ChaosTable {
    chaos_grid(w, "replicated fault injection", 0xD0A, |c| {
        let mut sharded = cluster(w, N_REPLICAS);
        shake(&mut sharded, c.seed, c.rate, Some(DEAD_SHARD));
        run_budgeted(&sharded, None, c.prepared, c.kind, c.cols).ok()
    })
}

/// Runs every method over Q1–Q4 while a paced online migration drains
/// [`SRC_SHARD`] into [`DST_SHARD`] in [`BATCH_DOCS`]-document batches.
/// The first batch commits cleanly; then the source's primary dies and
/// the survivors fault transiently. Queries interleave with transfer
/// batches (`set_migration_pacing`), so every cell exercises the
/// epoch-staleness re-gather, replica-sourced transfer, and the
/// journal-resume path at once. Each cell then drains its migration,
/// asserting exactly-once delivery finished every move (never aborted).
/// Returns the table and the documents each cell's plan staged
/// (identical across cells — same collection, same partition seed).
pub fn rebalance_chaos_table(w: &World) -> (ChaosTable, u64) {
    let mut migrated = 0u64;
    let table = chaos_grid(w, "rebalance fault injection", 0x4EB, |c| {
        let mut sharded = cluster(w, N_REPLICAS);
        migrated = begin_drain(&mut sharded, drain_plan(w, BATCH_DOCS));
        sharded.migrate_batch().expect("fault-free first batch");
        shake(&mut sharded, c.seed, c.rate, Some(SRC_SHARD));
        sharded.set_migration_pacing(3);
        let out = run_budgeted(&sharded, None, c.prepared, c.kind, c.cols).ok();
        drain(&sharded);
        let journal = sharded.journal().expect("journal exists");
        assert!(
            journal.entries.iter().all(|e| e.status == MoveStatus::Done),
            "a move aborted under recoverable faults"
        );
        out
    });
    (table, migrated)
}

/// Records the Table-2 workload — every applicable method on Q1–Q4 — as
/// one continuous trace against one fresh server carrying `fault`.
fn workload_trace(w: &World, fault: Option<FaultPlan>) -> Vec<Event> {
    let queries = paper_queries(w);
    let mut server = TextServer::new(w.server.collection().clone());
    if let Some(plan) = fault {
        server.set_fault_plan(plan);
    }
    recorded(&server, || {
        for pq in &queries {
            for (_, kind, cols) in pq.methods() {
                let _ = run_method_on(&server, &pq.prepared, kind, cols);
            }
        }
    })
}

/// Records one P+RTP run under transient faults: the first paper query
/// with a composite join (k ≥ 2) runs against a fresh faulted server with
/// a ring-sink recorder attached, and the recorded trace comes back for
/// the `explain` binary to replay into a span tree. Fully seeded, so the
/// rendered tree is byte-identical across runs.
pub fn explain_run(w: &World) -> Vec<Event> {
    let queries = paper_queries(w);
    let (qi, pq, cols) = queries
        .iter()
        .enumerate()
        .find_map(|(qi, pq)| Some((qi, pq, pq.probe_cols(MethodKind::PRtp)?)))
        .expect("a paper query with a composite join");
    let mut server = TextServer::new(w.server.collection().clone());
    server.set_fault_plan(FaultPlan::transient(cell_seed(0xE1A, qi, 0, 0), 0.2, 2));
    recorded(&server, || {
        run_method_on(&server, &pq.prepared, MethodKind::PRtp, cols).expect("P+RTP runs");
    })
}

// ---------------------------------------------------------------------
// Trace-driven re-calibration (ISSUE 5 tentpole)
// ---------------------------------------------------------------------

/// Records the Table-2 workload against one healthy server. This is the
/// calibration corpus for the fault-free drift table: the server's true
/// prices are the Mercury constants, so fitting them back is a closed
/// loop.
pub fn table2_trace(w: &World) -> Vec<Event> {
    workload_trace(w, None)
}

/// Records the same workload under the chaos bench's seeded transient
/// plan (rate 0.2, ≤2 consecutive). The per-call charges stay exactly
/// linear — faults change *which* calls happen, not their prices — but
/// the trace now carries backoff events, so the fitted fault model
/// (`effective_c_i`) diverges from the configured fault-free one.
pub fn chaos_trace(w: &World) -> Vec<Event> {
    workload_trace(w, Some(FaultPlan::transient(0xCA1, 0.2, 2)))
}

/// One row of a configured-vs-fitted drift table.
#[derive(Debug, Clone, Copy)]
pub struct DriftRow {
    /// Component name (`c_i`, `c_p`, `c_s`, `c_l`).
    pub component: &'static str,
    /// The configured (Mercury) value the planner would otherwise use.
    pub configured: f64,
    /// The least-squares fit from the trace.
    pub fitted: f64,
    /// Relative drift `(fitted - configured) / configured`.
    pub drift: f64,
    /// Call/rebate observations that entered the fit.
    pub observations: u64,
    /// Whether the workload determined this component at all.
    pub determined: bool,
}

/// The drift table for one recorded workload, plus the observed fault
/// model that replaces the analytic `rate × mean_backoff` fold.
#[derive(Debug, Clone)]
pub struct DriftTable {
    /// Events in the trace the fit consumed.
    pub events: usize,
    /// Per-constant drift rows.
    pub rows: Vec<DriftRow>,
    /// Root-mean-square residual of the fit, seconds per call.
    pub rms_residual: f64,
    /// The configured effective invocation price (fault-free analytic).
    pub effective_configured: f64,
    /// The adopted effective invocation price (fitted `c_i` + observed
    /// backoff seconds per invocation).
    pub effective_fitted: f64,
    /// Faults the trace recorded.
    pub faults: i64,
    /// Backoff seconds the trace paid.
    pub backoff_seconds: f64,
}

/// Fits `events` and compares against the world's configured params —
/// the adoption path the planner uses via `plan_and_execute_with`.
pub fn drift_table(w: &World, events: &[Event]) -> DriftTable {
    let params = world_params(w);
    let cal = calibrate_trace(events);
    let adopted = params.with_calibration(&cal);
    let rows = [
        ("c_i", params.constants.c_i, &cal.c_i),
        ("c_p", params.constants.c_p, &cal.c_p),
        ("c_s", params.constants.c_s, &cal.c_s),
        ("c_l", params.constants.c_l, &cal.c_l),
    ]
    .into_iter()
    .map(|(component, configured, fit)| DriftRow {
        component,
        configured,
        fitted: if fit.determined { fit.fitted } else { configured },
        drift: adopted.drift(component).unwrap_or(0.0),
        observations: fit.observations,
        determined: fit.determined,
    })
    .collect();
    DriftTable {
        events: events.len(),
        rows,
        rms_residual: cal.rms_residual(),
        effective_configured: params.effective_c_i(),
        effective_fitted: adopted.fitted.effective_c_i(),
        faults: cal.faults,
        backoff_seconds: cal.backoff_seconds,
    }
}

// ---------------------------------------------------------------------
// Makespan: concurrent transport, hedged replica reads, deadlines
// ---------------------------------------------------------------------

/// One method's aggregate over Q1–Q4 in the makespan grid.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MakespanCell {
    /// Σ issued leg costs — what a serial transport would have taken
    /// (cancelled hedge legs included).
    pub serial: f64,
    /// Σ per-query critical-path times under the concurrency limit.
    pub makespan: f64,
    /// Hedge legs launched against slow-but-alive primaries.
    pub hedges: u64,
    /// Race losers cancelled (their charges rebated).
    pub cancels: u64,
    /// Queries whose critical path crossed the per-query deadline.
    pub deadline_misses: u64,
    /// Output rows summed over the queries (must match fault-free).
    pub rows: usize,
}

/// The makespan grid: runs every method over Q1–Q4 against an [`N_SHARDS`] × [`N_REPLICAS`]
/// server in which each shard's *primary* replica carries a seeded
/// latency-only [`FaultPlan::slow`] plan at [`SLOW_RATE`] (it always
/// answers, sometimes late) and each query runs under the [`DEADLINE`]
/// on a fresh virtual-time [`Scheduler`]. Slow primary legs above the
/// budget's hedge threshold race a hedge read on the secondary; the
/// loser's charge is rebated. Every cell asserts the fault-free row
/// counts — deadline misses degrade or simply finish late, they never
/// error — and that the concurrent makespan lands strictly below the
/// serial transport time. Returns one cell per method in [`METHODS`]
/// order, `None` when the method applies to no query.
pub fn makespan_table(w: &World) -> Vec<Option<MakespanCell>> {
    let mut cells: Vec<Option<MakespanCell>> = vec![None; METHODS.len()];
    for (qi, pq) in paper_queries(w).iter().enumerate() {
        for (mi, kind, cols) in pq.methods() {
            // The fault-free row count is the oracle the cell must match.
            let Ok(base) = run_method_on(&w.server, &pq.prepared, kind, cols) else { continue };
            let mut sharded = cluster(w, N_REPLICAS);
            slow_primaries(&mut sharded, cell_seed(0x510, qi, mi, 0));
            let sched = scheduler(Some(DEADLINE));
            let m = run_budgeted(&sharded, Some(&sched), &pq.prepared, kind, cols)
                .expect("latency-only faults and deadline misses never error");
            let (label, q) = (METHODS[mi].0, pq.label);
            assert_eq!(m.rows, base.rows, "{label} on {q} changed its answer under slow replicas");
            assert!(
                sched.makespan() < sched.serial_total(),
                "{label} on {q}: scatter/gather makespan must beat serial"
            );
            let agg = cells[mi].get_or_insert_with(MakespanCell::default);
            agg.serial += sched.serial_total();
            agg.makespan += sched.makespan();
            agg.hedges += sched.hedges();
            agg.cancels += sched.cancels();
            agg.deadline_misses += sched.deadline_misses();
            agg.rows += m.rows;
        }
    }
    w.server.reset_usage();
    cells
}

/// One Q5 execution in the deadline-degradation demo.
#[derive(Debug, Clone)]
pub struct DeadlineRun {
    /// `"unbounded"` or the deadline label.
    pub label: String,
    /// Total charge of the run.
    pub total: f64,
    /// Critical-path transport time.
    pub makespan: f64,
    /// Serial transport time.
    pub serial: f64,
    /// Method downgrades taken under deadline pressure.
    pub degradations: u64,
    /// Whether the critical path crossed the deadline anyway.
    pub deadline_misses: u64,
    /// Output rows (all runs must agree).
    pub rows: usize,
    /// The executed plan, rendered.
    pub plan: String,
}

/// Executes a Q6 plan that chains two text joins — Sj on the project
/// titles first, then a probe pass and a probing text join on the
/// student authors — on a sharded replicated server, unbounded and then
/// under a deadline derived from the unbounded run's makespan: tight
/// enough that the first text join's transport puts the executor under
/// pressure, so the probe node is skipped and the probing join falls
/// back TS-style instead of erroring. Both runs must return the same
/// rows.
pub fn deadline_demo(w: &World) -> Vec<DeadlineRun> {
    let q = paper::q6(w);
    let params = world_params(w);
    // Text-join project titles first (Sj, the bulk of the transport),
    // then relationally join the member students, probe the survivors on
    // the author predicate, and settle it with a probing text join. The
    // probe and the P+TS join dispatch *after* the Sj join has spent its
    // transport — exactly where deadline pressure bites.
    let plan = PlanNode::TextJoin {
        input: Some(Box::new(PlanNode::Probe {
            input: Box::new(PlanNode::RelJoin {
                left: Box::new(PlanNode::TextJoin {
                    input: Some(Box::new(PlanNode::Scan { rel: 0 })),
                    preds: vec![0],
                    method: MethodKind::Sj,
                    probe_cols: vec![],
                }),
                right: Box::new(PlanNode::Scan { rel: 1 }),
                preds: vec![0],
                foreign_residuals: vec![],
            }),
            preds: vec![1],
        })),
        preds: vec![1],
        method: MethodKind::PTs,
        probe_cols: vec![0],
    };
    let run = |label: String, deadline: Option<f64>| -> DeadlineRun {
        let sharded = cluster(w, N_REPLICAS);
        let export = sharded.export_stats();
        let input = PlannerInput::gather(
            &q,
            &w.catalog,
            &export,
            w.server.collection().schema(),
            params,
        )
        .expect("q6 gathers");
        let sched = scheduler(deadline);
        let mut exec = MultiExecutor::new(&input, &w.catalog, &sharded).expect("q6 executor");
        exec.set_scheduler(&sched);
        let outcome = exec.execute(&plan).expect("q6 executes");
        DeadlineRun {
            label,
            total: outcome.total_cost,
            makespan: outcome.makespan,
            serial: outcome.serial_transport,
            degradations: outcome.degradations,
            deadline_misses: outcome.deadline_misses,
            rows: outcome.table.len(),
            plan: plan.display(&q).to_string(),
        }
    };
    let unbounded = run("unbounded".into(), None);
    // A deadline at 60% of the observed unbounded makespan: the Sj
    // join's transport spends past half the deadline, so the probe pass
    // is skipped and the P+TS join runs TS-style. Derived
    // deterministically from the first run, so the printed table stays
    // byte-identical.
    let deadline = (unbounded.makespan * 0.6).ceil();
    let bounded = run(format!("deadline {deadline:.0}s"), Some(deadline));
    assert_eq!(unbounded.rows, bounded.rows, "degradation changed the answer");
    assert!(
        bounded.degradations > 0,
        "the deadline run must actually degrade"
    );
    vec![unbounded, bounded]
}

// ---------------------------------------------------------------------
// Rebalance tables: stats-routing fan-out and migration amortization
// ---------------------------------------------------------------------

/// One fan-out row: TS over a sharded server with stats-aware routing off
/// vs on.
#[derive(Debug, Clone)]
pub struct FanoutRow {
    /// Query label (`Q1`..`Q4`).
    pub label: &'static str,
    /// Scatter fan-out with routing off (always the shard count).
    pub full: usize,
    /// Fan-out after vocabulary pruning (from the same selection masks
    /// the executor folds into `CostParams::with_scatter_fanout`).
    pub pruned: usize,
    /// Simulated seconds with routing off.
    pub secs_off: f64,
    /// Simulated seconds with routing on.
    pub secs_on: f64,
    /// Output rows (asserted identical off vs on).
    pub rows: usize,
}

/// One amortization row: a full drain of the source shard at a given
/// batch size, every charge read from the dedicated migration bucket.
#[derive(Debug, Clone)]
pub struct AmortizationRow {
    /// Documents per batch.
    pub batch_docs: usize,
    /// Committed batches (`ceil(docs / batch_docs)`).
    pub batches: u64,
    /// Documents migrated.
    pub docs: u64,
    /// Postings ingested on the destination leg.
    pub postings: u64,
    /// Transfer invocations (two legs per batch when fault-free).
    pub invocations: u64,
    /// Total migration cost (simulated seconds).
    pub total_cost: f64,
    /// `total_cost / docs`.
    pub cost_per_doc: f64,
}

/// Rebalance experiment result for the `rebalance` binary: the
/// stats-routing fan-out table and the migration amortization grid (a
/// drain of [`SRC_SHARD`] into [`DST_SHARD`]).
#[derive(Debug, Clone)]
pub struct RebalanceTable {
    /// Per-query fan-out rows.
    pub fanout: Vec<FanoutRow>,
    /// Per-batch-size amortization rows.
    pub amortization: Vec<AmortizationRow>,
}

/// Measures (a) what vocabulary-based shard pruning saves each paper
/// query's TS run — fan-out N vs pruned, with the pruned fan-out computed
/// from the *same* selection masks the executor folds into
/// [`CostParams::with_scatter_fanout`], so the printed table and the
/// planner's `effective_c_i` can never drift — and (b) how migration
/// batch size trades invocation overhead against interruption granularity
/// on a full fault-free drain of one shard. Fully seeded; byte-identical
/// across runs.
pub fn rebalance_table(w: &World) -> RebalanceTable {
    let mut fanout = Vec::new();
    for pq in &paper_queries(w) {
        let label = pq.label;
        let routed = |routing: bool| {
            let sharded = cluster(w, 1);
            sharded.set_stats_routing(routing);
            sharded
        };
        let run = |routing: bool| {
            run_method_on(&routed(routing), &pq.prepared, MethodKind::Ts, &[]).expect("TS runs")
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(off.rows, on.rows, "stats routing changed {label} answers");
        // The same mask fold the executor applies (exec.rs): a shard is
        // relevant if any selection term may match there.
        let sharded = routed(true);
        let schema = TextService::schema(&sharded);
        let sel: Vec<SearchExpr> = pq
            .query
            .selections
            .iter()
            .filter_map(|(term, field)| {
                schema.resolve(field).map(|f| SearchExpr::term_in(term, f))
            })
            .collect();
        let pruned = if sel.is_empty() {
            N_SHARDS
        } else {
            let masks: Vec<Vec<bool>> = sel.iter().map(|e| sharded.relevant_shards(e)).collect();
            (0..N_SHARDS)
                .filter(|&i| masks.iter().any(|m| m[i]))
                .count()
                .max(1)
        };
        fanout.push(FanoutRow {
            label,
            full: N_SHARDS,
            pruned,
            secs_off: off.secs,
            secs_on: on.secs,
            rows: off.rows,
        });
    }

    let mut amortization = Vec::new();
    for &batch in &[4usize, 16, 64] {
        let mut sharded = cluster(w, 1);
        let docs = begin_drain(&mut sharded, drain_plan(w, batch));
        sharded.run_migration().expect("fault-free migration completes");
        let u = sharded.migration_usage();
        amortization.push(AmortizationRow {
            batch_docs: batch,
            batches: docs.div_ceil(batch as u64),
            docs,
            postings: u.postings_processed,
            invocations: u.invocations,
            total_cost: u.total_cost(),
            cost_per_doc: u.total_cost() / docs as f64,
        });
    }

    RebalanceTable { fanout, amortization }
}

// ---------------------------------------------------------------------
// Continuous telemetry: windowed monitor, advice closed loop, SLO burn
// ---------------------------------------------------------------------

/// One observed phase of the monitor's skew closed loop: the rendered
/// per-window health table plus the ledger-side ground truth the windows
/// summarize (per-shard invoice shares over the whole phase).
#[derive(Debug, Clone)]
pub struct SkewPhase {
    /// `render_windows` output for the phase.
    pub table: String,
    /// Advisory migrations the monitor derived during the phase.
    pub advice: Vec<Advice>,
    /// Per-shard share of the total query invoice (`shard_usage`,
    /// fractions summing to 1).
    pub shares: Vec<f64>,
    /// The largest entry of `shares`.
    pub max_share: f64,
}

/// The skew closed loop over an [`N_SHARDS`] × [`N_REPLICAS`] server:
/// observe a degraded shard, execute the monitor's advice through the
/// migration engine in [`BATCH_DOCS`]-document batches, observe again.
#[derive(Debug, Clone)]
pub struct MonitorSkewReport {
    /// The shard whose replicas carry the transient fault plan.
    pub hot_shard: usize,
    /// Per-operation fault probability on the hot shard's replicas.
    pub fault_rate: f64,
    /// Monitor window width (simulated seconds).
    pub window_secs: f64,
    /// Documents the executed advice actually migrated.
    pub migrated_docs: u64,
    /// Phase A: the skewed workload, monitor attached.
    pub before: SkewPhase,
    /// Phase B: the same workload after executing the first advice.
    pub after: SkewPhase,
}

/// The SLO burn-rate episode: healthy traffic, a degraded episode of slow
/// primaries ([`SLOW_RATE`]) under the [`DEADLINE`], then recovery — one
/// continuous monitored timeline.
#[derive(Debug, Clone)]
pub struct MonitorSloReport {
    /// Monitor window width (simulated seconds).
    pub window_secs: f64,
    /// `render_windows` output for the whole timeline.
    pub table: String,
    /// SLO alert transitions `(window, firing)` in order.
    pub transitions: Vec<(u64, bool)>,
    /// Deadline misses summed over all windows.
    pub misses: u64,
    /// Hedged reads summed over all windows.
    pub hedges: u64,
}

/// The drift watchdog on a recorded workload: silent on the faithful
/// trace, flagging within one re-fit after a mid-trace repricing.
#[derive(Debug, Clone)]
pub struct MonitorDriftReport {
    /// Monitor window width (simulated seconds).
    pub window_secs: f64,
    /// Drift alerts on the unmodified trace (must be 0).
    pub clean_alerts: usize,
    /// The simulated repricing factor applied to `c_i` halfway through
    /// the perturbed replay.
    pub repricing: f64,
    /// Components flagged on the perturbed replay:
    /// `(component, configured, fitted)`.
    pub flagged: Vec<(&'static str, f64, f64)>,
}

/// Builds the skew scenario's server: a replicated sharded server whose
/// `hot_shard` replicas carry independent bounded transient fault plans —
/// retries and backoff inflate that shard's invoice share well above its
/// even split, which is exactly the signal the skew detector watches.
fn skew_scenario_server(w: &World, hot_shard: usize, rate: f64) -> ShardedTextServer {
    let mut sharded = cluster(w, N_REPLICAS);
    for r in 0..N_REPLICAS {
        sharded.replica_mut(hot_shard, r).set_fault_plan(FaultPlan::transient(
            0x5EA7 ^ ((r as u64) << 32),
            rate,
            2,
        ));
    }
    sharded
}

/// Runs the full method × query workload against `sharded` with a live
/// monitor teed next to a JSONL trace sink, then proves the offline path
/// agrees: replaying the parsed JSONL through a fresh monitor must
/// reproduce the live windows and alerts byte-for-byte.
fn run_monitored_phase(w: &World, sharded: &ShardedTextServer, cfg: &MonitorConfig) -> SkewPhase {
    let jsonl = Rc::new(JsonlSink::new());
    let mon = Rc::new(Monitor::new(cfg.clone()));
    let tee = Rc::new(FanoutSink::new(vec![
        jsonl.clone() as Rc<dyn Sink>,
        mon.clone(),
    ]));
    sharded.set_recorder(Some(Recorder::new(tee)));
    // One budget for the whole phase: its adaptive state carrying over
    // from query to query is part of what the monitor observes.
    let budget = RetryBudget::new(RetryPolicy::standard());
    let ctx = ExecContext::with_budget(sharded, &budget);
    for pq in &paper_queries(w) {
        for (_, kind, cols) in pq.methods() {
            // Bounded transient faults never error.
            let _ = run_method_ctx(&ctx, &pq.prepared, kind, cols);
        }
    }
    mon.finish();
    sharded.set_recorder(None);

    // Live tee and offline replay must agree exactly — same code path,
    // same windows, same alerts.
    let events = parse_jsonl(&jsonl.contents()).expect("recorded trace parses");
    let replayed = Monitor::replay(cfg.clone(), &events);
    assert_eq!(
        replayed.render_table(),
        mon.render_table(),
        "offline replay diverged from the live monitor"
    );

    let totals: Vec<f64> = (0..N_SHARDS)
        .map(|i| sharded.shard_usage(i).total_cost())
        .collect();
    let sum: f64 = totals.iter().sum();
    let shares: Vec<f64> = totals.iter().map(|t| t / sum).collect();
    let max_share = shares.iter().cloned().fold(0.0, f64::max);
    SkewPhase {
        table: mon.render_table(),
        advice: mon.advice(),
        shares,
        max_share,
    }
}

/// The tentpole closed loop, end to end: (A) run the paper workload
/// against a server whose shard 1 is degraded, with the windowed monitor
/// teed into the flight recorder; the skew detector trips on shard 1's
/// invoice share and derives a migration advisory from the docid traffic
/// it observed. (B) execute exactly that advisory through the online
/// migration engine ([`MigrationPlan::from_advice`]), then run the same
/// workload again — the hot shard's invoice share must drop, which the
/// `monitor` test pins. Fully seeded and byte-identical across runs.
pub fn monitor_skew_report(w: &World) -> MonitorSkewReport {
    const HOT_SHARD: usize = 1;
    const FAULT_RATE: f64 = 0.35;
    const WINDOW_SECS: f64 = 400.0;

    let cfg = MonitorConfig::new(WINDOW_SECS).with_skew(400_000, 320_000);

    let before_server = skew_scenario_server(w, HOT_SHARD, FAULT_RATE);
    let before = run_monitored_phase(w, &before_server, &cfg);
    let advice = before
        .advice
        .first()
        .expect("the degraded shard must trip the skew detector")
        .clone();
    assert_eq!(advice.src, HOT_SHARD, "advice must target the degraded shard");

    // The hot shard's replicas keep faulting transiently while it drains.
    let mut after_server = skew_scenario_server(w, HOT_SHARD, FAULT_RATE);
    let migrated_docs =
        begin_drain(&mut after_server, MigrationPlan::from_advice(&advice, BATCH_DOCS));
    drain(&after_server);
    let after = run_monitored_phase(w, &after_server, &cfg);

    MonitorSkewReport {
        hot_shard: HOT_SHARD,
        fault_rate: FAULT_RATE,
        window_secs: WINDOW_SECS,
        migrated_docs,
        before,
        after,
    }
}

/// The SLO burn-rate monitor over a three-episode timeline sharing one
/// recorder (so the simulated clock runs continuously): a healthy episode,
/// a degraded episode in which every shard's primary replica is slow and
/// each query runs under the makespan deadline (hedges and deadline misses
/// are the SLO-threatening events), then a healthy recovery episode. The
/// dual-window burn rate ignores the first stray bad events, fires during
/// the sustained degradation, and clears during recovery.
pub fn monitor_slo_report(w: &World) -> MonitorSloReport {
    const WINDOW_SECS: f64 = 600.0;

    let queries = paper_queries(w);
    let cfg = MonitorConfig::new(WINDOW_SECS).with_slo(2, 6, 2.0);
    let mon = Rc::new(Monitor::new(cfg));
    let rec = Recorder::new(mon.clone() as Rc<dyn Sink>);

    for episode in 0..3u32 {
        let degraded = episode == 1;
        for (qi, pq) in queries.iter().enumerate() {
            for (mi, kind, cols) in pq.methods() {
                let mut sharded = cluster(w, N_REPLICAS);
                if degraded {
                    slow_primaries(&mut sharded, cell_seed(0x510, qi, mi, 0));
                }
                sharded.set_recorder(Some(rec.clone()));
                let sched = scheduler(Some(DEADLINE));
                // Latency-only faults never error.
                let _ = run_budgeted(&sharded, Some(&sched), &pq.prepared, kind, cols);
            }
        }
    }
    mon.finish();

    let transitions: Vec<(u64, bool)> = mon
        .alerts()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::SloAlert { window, firing, .. } => Some((window, firing)),
            _ => None,
        })
        .collect();
    let (misses, hedges) = mon
        .windows()
        .iter()
        .fold((0, 0), |(m, h), w| (m + w.deadline_misses, h + w.hedges));
    MonitorSloReport {
        window_secs: WINDOW_SECS,
        table: mon.render_table(),
        transitions,
        misses,
        hedges,
    }
}

/// The drift watchdog on the recorded Table-2 workload. The unmodified
/// trace is priced exactly at the configured Mercury constants, so the
/// periodic re-fit stays silent. The perturbed replay simulates the server
/// repricing invocations 1.5× halfway through the trace — the watchdog
/// must flag `c_i` (and only components that actually moved) at its next
/// re-fit over the trailing window.
pub fn monitor_drift_report(w: &World) -> MonitorDriftReport {
    const WINDOW_SECS: f64 = 150.0;
    const REPRICING: f64 = 1.5;

    let params = world_params(w);
    let cfg = MonitorConfig::new(WINDOW_SECS)
        .with_baseline(
            params.constants.c_i,
            params.constants.c_p,
            params.constants.c_s,
            params.constants.c_l,
        )
        .with_drift(2, 4, 0.25);
    let events = table2_trace(w);

    let clean = Monitor::replay(cfg.clone(), &events);
    let clean_alerts = clean
        .alerts()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::DriftAlert { .. }))
        .count();

    // Mid-trace repricing: from the halfway clock on, every invocation
    // costs 1.5× — the charges stay linear, just in a moved c_i.
    let half = events.last().map(|e| e.clock / 2.0).unwrap_or(0.0);
    let perturbed: Vec<Event> = events
        .iter()
        .map(|ev| {
            let mut ev = ev.clone();
            if ev.clock >= half {
                if let EventKind::Call { charge, .. } = &mut ev.kind {
                    charge.time_invocation *= REPRICING;
                }
            }
            ev
        })
        .collect();
    let mon = Monitor::replay(cfg, &perturbed);
    let flagged: Vec<(&'static str, f64, f64)> = mon
        .alerts()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::DriftAlert { component, configured, fitted, drifted: true, .. } => {
                Some((component, configured, fitted))
            }
            _ => None,
        })
        .collect();
    MonitorDriftReport {
        window_secs: WINDOW_SECS,
        clean_alerts,
        repricing: REPRICING,
        flagged,
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;

    /// Two runs of a chaos scenario must agree to the bit, cell for cell.
    fn assert_same_bits(a: &ChaosTable, b: &ChaosTable) {
        assert_eq!(a.cells.len(), METHODS.len());
        for (ra, rb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ra.len(), a.rates.len());
            for (ca, cb) in ra.iter().zip(rb) {
                match (ca, cb) {
                    (Some((sa, oa)), Some((sb, ob))) => {
                        assert_eq!(sa.to_bits(), sb.to_bits());
                        assert_eq!(oa.to_bits(), ob.to_bits());
                    }
                    (None, None) => {}
                    _ => panic!("applicability differs between runs"),
                }
            }
        }
        assert_eq!(a.fault_cells, b.fault_cells);
        // Rate 0 is its own baseline: exactly zero overhead.
        for row in &a.cells {
            if let Some((_, overhead)) = row[0] {
                assert_eq!(overhead, 0.0);
            }
        }
    }

    /// Faults surfaced in the faulted columns, summed over the grid.
    fn injected(t: &ChaosTable) -> u64 {
        t.fault_cells
            .iter()
            .flat_map(|row| row.iter().skip(1).flatten())
            .map(|&(f, _)| f)
            .sum()
    }

    #[test]
    fn chaos_table_is_deterministic_and_monotone_at_zero() {
        let w = default_world();
        let a = chaos_table(&w);
        assert_same_bits(&a, &chaos_table(&w));
        // Rate 0 must also be fault-free in the surfaced counters.
        for row in &a.fault_cells {
            if let Some((faults, retries)) = row[0] {
                assert_eq!((faults, retries), (0, 0));
            }
        }
    }

    #[test]
    fn sharded_chaos_table_is_deterministic_with_exact_counters() {
        let w = default_world();
        let a = sharded_chaos_table(&w);
        assert_same_bits(&a, &sharded_chaos_table(&w));
        // Faulted columns actually exercised the retry machinery somewhere.
        assert!(injected(&a) > 0, "no faults surfaced in the sharded table");
        for row in &a.fault_cells {
            if let Some((faults, retries)) = row[0] {
                assert_eq!((faults, retries), (0, 0), "rate 0 must be fault-free");
            }
        }
    }

    /// Unlike the other chaos tables, even the rate-0 column faults: the
    /// dead primary is attempted (and charged) until the breaker opens,
    /// then served by the surviving replica. Every method row must show
    /// that cost — it proves failover actually ran.
    fn assert_dead_primary_surfaces_at_rate_zero(t: &ChaosTable) {
        for (mi, row) in t.fault_cells.iter().enumerate() {
            if let Some((faults, _)) = row[0] {
                assert!(
                    faults > 0,
                    "{}: dead primary never surfaced a fault at rate 0",
                    METHODS[mi].0
                );
            }
        }
    }

    #[test]
    fn replicated_chaos_table_is_deterministic_and_survives_a_dead_primary() {
        let w = default_world();
        let a = replicated_chaos_table(&w);
        assert_same_bits(&a, &replicated_chaos_table(&w));
        assert_dead_primary_surfaces_at_rate_zero(&a);
        // And the grid's per-rate answer-equality assertion (inside
        // chaos_grid) has already proven every faulted cell returns the
        // rate-0 answers despite the permanently dead replica.
    }

    #[test]
    fn rebalance_chaos_table_is_deterministic_and_drains_every_cell() {
        let w = default_world();
        let (a, migrated) = rebalance_chaos_table(&w);
        let (b, migrated_again) = rebalance_chaos_table(&w);
        assert_same_bits(&a, &b);
        assert_eq!(migrated, migrated_again);
        assert!(migrated > 0, "the drain must stage something");
        // The source's primary dies after batch 1, so rate 0 still faults;
        // the drain-to-`Done` assertion lives inside the scenario.
        assert_dead_primary_surfaces_at_rate_zero(&a);
        assert!(injected(&a) > 0, "no faults surfaced in the rebalance table");
    }

    #[test]
    fn makespan_table_is_deterministic_and_concurrency_pays() {
        let w = default_world();
        let a = makespan_table(&w);
        let b = makespan_table(&w);
        let mut hedges = 0;
        let mut misses = 0;
        for (ca, cb) in a.iter().zip(&b) {
            match (ca, cb) {
                (Some(ca), Some(cb)) => {
                    assert_eq!(ca.serial.to_bits(), cb.serial.to_bits());
                    assert_eq!(ca.makespan.to_bits(), cb.makespan.to_bits());
                    assert_eq!(
                        (ca.hedges, ca.cancels, ca.deadline_misses, ca.rows),
                        (cb.hedges, cb.cancels, cb.deadline_misses, cb.rows)
                    );
                    // Every hedge race has exactly one loser, and it was
                    // cancelled (its charge rebated).
                    assert_eq!(ca.hedges, ca.cancels);
                    // makespan_table itself asserts makespan < serial per
                    // query; the aggregate must agree.
                    assert!(ca.makespan < ca.serial);
                    hedges += ca.hedges;
                    misses += ca.deadline_misses;
                }
                (None, None) => {}
                _ => panic!("applicability differs between runs"),
            }
        }
        assert!(hedges > 0, "no hedge ever fired across the grid");
        assert!(misses > 0, "the deadline never bit — tighten it");
    }

    #[test]
    fn deadline_demo_degrades_without_changing_rows() {
        let w = default_world();
        let a = deadline_demo(&w);
        let b = deadline_demo(&w);
        assert_eq!(a.len(), 2);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.label, rb.label);
            assert_eq!(ra.total.to_bits(), rb.total.to_bits());
            assert_eq!(ra.makespan.to_bits(), rb.makespan.to_bits());
            assert_eq!(ra.rows, rb.rows);
        }
        // deadline_demo itself asserts equal rows and degradations > 0;
        // pin the shape the bench prints: the unbounded run is clean, the
        // bounded run crossed the deadline and shed work.
        assert_eq!((a[0].degradations, a[0].deadline_misses), (0, 0));
        assert!(a[1].deadline_misses > 0);
        assert!(a[1].total < a[0].total, "shed probe work must shed charge");
    }

    #[test]
    fn monitor_skew_closed_loop_reduces_the_hot_share() {
        let w = default_world();
        let r = monitor_skew_report(&w);
        // run_monitored_phase itself asserts offline replay == live tee;
        // here pin the loop's semantics. The advice targets the degraded
        // shard (asserted inside) and actually moved documents.
        assert!(r.migrated_docs > 0, "the advice must migrate something");
        let adv = &r.before.advice[0];
        assert_eq!(adv.src, r.hot_shard);
        assert!(adv.hits > 0 && adv.lo < adv.hi);
        // Executing the advice measurably reduces the hot shard's share
        // of the query invoice on the identical re-run.
        assert!(
            r.after.shares[r.hot_shard] < r.before.shares[r.hot_shard],
            "hot shard share must drop: {:?} -> {:?}",
            r.before.shares,
            r.after.shares
        );
        assert!(r.after.max_share < r.before.max_share);
    }

    #[test]
    fn monitor_slo_burn_fires_during_degradation_and_clears() {
        let w = default_world();
        let r = monitor_slo_report(&w);
        assert!(r.misses > 0, "the deadline never bit");
        assert!(r.hedges > 0, "no hedge ever fired");
        assert!(
            r.transitions.first().is_some_and(|&(_, f)| f),
            "the first SLO transition must be a fire: {:?}",
            r.transitions
        );
        assert!(
            r.transitions.iter().any(|&(_, f)| !f),
            "the alert must clear after the episode: {:?}",
            r.transitions
        );
        // Edge-triggered: transitions strictly alternate.
        for pair in r.transitions.windows(2) {
            assert_ne!(pair[0].1, pair[1].1, "duplicate edge: {:?}", r.transitions);
        }
    }

    #[test]
    fn monitor_drift_flags_repricing_and_stays_silent_when_clean() {
        let w = default_world();
        let r = monitor_drift_report(&w);
        assert_eq!(r.clean_alerts, 0, "faithful trace must not flag drift");
        assert!(
            r.flagged.iter().any(|(c, ..)| *c == "c_i"),
            "the repriced component must be flagged: {:?}",
            r.flagged
        );
        for (component, configured, fitted) in &r.flagged {
            assert!(
                (fitted - configured).abs() > 0.25 * configured.abs(),
                "{component} flagged inside tolerance"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Serve: the multi-tenant serving session
// ---------------------------------------------------------------------

/// Per-tenant measurements from the mixed-stream serve session.
#[derive(Debug, Clone)]
pub struct ServeTenantRow {
    pub name: String,
    pub priority: u32,
    pub budget: f64,
    pub admitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub budget_aborted: u64,
    pub spent: f64,
    pub share_ppm: u64,
    pub p99_cost: f64,
    pub probe_hits: u64,
    pub plan_hits: u64,
}

/// Session-cache savings on a repeated-spec stream: the same four-query
/// stream through the session (caches live across queries) and through
/// the per-execution pipeline (caches die with each query).
#[derive(Debug, Clone)]
pub struct ServeCacheSavings {
    pub queries: usize,
    pub session_total: f64,
    pub per_exec_total: f64,
    pub saved_ppm: u64,
    pub probe_hits: u64,
    pub plan_hits: u64,
}

/// The serve benchmark: a mixed 4-tenant stream (one starved budget, a
/// priority-0 victim, a tight queue forcing degradation and shedding)
/// over a replicated server with a permanently dead primary, plus the
/// repeated-spec cache measurement.
#[derive(Debug, Clone)]
pub struct ServeBenchReport {
    pub stream_len: usize,
    pub completed: u64,
    pub rejected: u64,
    pub shed: u64,
    pub shed_rate_ppm: u64,
    pub degradations: u64,
    pub p99_cost: f64,
    pub aggregate_cost: f64,
    pub tenants: Vec<ServeTenantRow>,
    pub cache: ServeCacheSavings,
}

/// Runs the serve benchmark. Deterministic: seeded world, seeded
/// partitioning, seeded fault plan, simulated clocks.
pub fn serve_bench_report(w: &World) -> ServeBenchReport {
    let params = world_params(w);
    let mut server = cluster(w, N_REPLICAS);
    let dead = server.primary_of(DEAD_SHARD);
    server.replica_mut(DEAD_SHARD, dead).set_fault_plan(FaultPlan::dead(77));

    let mut cfg = ServeConfig::new(params);
    cfg.queue_cap = 1;
    cfg.quantum = 300.0;
    cfg.degrade_depth = 4;
    let tenants = vec![
        TenantSpec::new("alpha", 1e9, 2),
        TenantSpec::new("beta", 1e9, 1),
        TenantSpec::new("gamma", 300.0, 0),
        TenantSpec::new("delta", 1e9, 3),
    ];
    let q5 = paper::q5(w);
    let q6 = paper::q6(w);
    let stream = vec![
        (0usize, q5.clone()),
        (1, q6.clone()),
        (2, q5.clone()),
        (3, q5.clone()),
        (0, q6.clone()),
        (3, q6.clone()),
        (1, q5.clone()),
        (2, q6.clone()),
        (3, q5.clone()),
    ];
    let report =
        ServeSession::new(Backend::Elastic(&mut server), &w.catalog, tenants, cfg).run(&stream);

    let aggregate_cost = report.aggregate.total_cost();
    let all_costs: Vec<f64> = report
        .tenants
        .iter()
        .flat_map(|t| t.costs.iter().copied())
        .collect();
    let mut completed = 0;
    let mut rejected = 0;
    let mut shed = 0;
    let mut degradations = 0;
    for r in &report.records {
        match &r.outcome {
            Ok(out) => {
                completed += 1;
                degradations += out.degradations;
            }
            Err(ServeError::Rejected { .. }) => rejected += 1,
            Err(ServeError::Shed { .. }) => shed += 1,
            Err(_) => {}
        }
    }
    let tenants = report
        .tenants
        .iter()
        .map(|t| ServeTenantRow {
            name: t.name.clone(),
            priority: t.priority,
            budget: t.budget,
            admitted: t.admitted,
            completed: t.completed,
            rejected: t.rejected,
            shed: t.shed,
            budget_aborted: t.budget_aborted,
            spent: t.spent,
            share_ppm: if aggregate_cost > 0.0 {
                (t.invoice.total_cost() / aggregate_cost * 1_000_000.0).round() as u64
            } else {
                0
            },
            p99_cost: percentile(&t.costs, 0.99),
            probe_hits: t.probe_cache.0,
            plan_hits: t.plan_hits,
        })
        .collect();

    // Repeated-spec cache measurement: one tenant, the same spec four
    // times, against the identical fresh single server on both sides.
    // Runs on a compact world where phase-1 probes are *charged* server
    // invocations — on the default world the vocabulary export answers
    // them for free, so there is nothing for a cross-query cache to save.
    let cw = World::generate(WorldSpec {
        background_docs: 150,
        students: 30,
        projects: 10,
        ..WorldSpec::default()
    });
    let cparams = world_params(&cw);
    let cq5 = paper::q5(&cw);
    let repeat: Vec<_> = (0..4).map(|_| (0usize, cq5.clone())).collect();
    let cache_server = TextServer::new(cw.server.collection().clone());
    let mut ccfg = ServeConfig::new(cparams);
    ccfg.quantum = 1e9;
    ccfg.degrade_depth = 0;
    let crep = ServeSession::new(
        Backend::Single(&cache_server),
        &cw.catalog,
        vec![TenantSpec::new("solo", 1e9, 1)],
        ccfg,
    )
    .run(&repeat);
    let session_total: f64 = crep.tenants[0].costs.iter().sum();
    let base_server = TextServer::new(cw.server.collection().clone());
    let mut per_exec_total = 0.0;
    for (_, q) in &repeat {
        let (_, out) = plan_and_execute(q, &cw.catalog, &base_server, cparams, ExecutionSpace::Prl)
            .expect("baseline runs");
        per_exec_total += out.total_cost;
    }
    let cache = ServeCacheSavings {
        queries: repeat.len(),
        session_total,
        per_exec_total,
        saved_ppm: ((1.0 - session_total / per_exec_total) * 1_000_000.0).round() as u64,
        probe_hits: crep.tenants[0].probe_cache.0,
        plan_hits: crep.tenants[0].plan_hits,
    };

    ServeBenchReport {
        stream_len: stream.len(),
        completed,
        rejected,
        shed,
        shed_rate_ppm: (shed as f64 / stream.len() as f64 * 1_000_000.0).round() as u64,
        degradations,
        p99_cost: percentile(&all_costs, 0.99),
        aggregate_cost,
        tenants,
        cache,
    }
}

// ---------------------------------------------------------------------
// Plan-quality observability: EXPLAIN ANALYZE, counterfactual regret,
// misestimation detection
// ---------------------------------------------------------------------

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
        let best = measured
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).expect("finite costs"))?;
        let regret = chosen.2 - best.2;
        Some(RegretRow {
            query,
            candidates: measured.len(),
            chosen: chosen.0.clone(),
            chosen_actual: chosen.2,
            best: best.0.clone(),
            best_actual: best.2,
            regret,
            regret_share: if chosen.2 > 0.0 { regret / chosen.2 } else { 0.0 },
            cost_q: q_error(chosen.1, chosen.2),
        })
    }
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
    let tenants = vec![TenantSpec::new("alpha", 1e9, 1), TenantSpec::new("beta", 1e9, 1)];
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
            p50_q: percentile(&t.cost_qs, 0.50),
            p90_q: percentile(&t.cost_qs, 0.90),
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
    let cfg = MonitorConfig::new(1_000.0).with_estimates(3.0, 1.5, 0.25, 3, 8);
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
