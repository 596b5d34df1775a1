//! The scenario every experiment shares: methods, queries, topology,
//! fault wiring, runners.

use std::rc::Rc;

use textjoin_core::cost::formulas::{cost_p_rtp, cost_p_ts, CostBreakdown};
use textjoin_core::cost::params::{CostParams, JoinStatistics};
use textjoin_core::exec::execute_single;
use textjoin_core::methods::probe::ProbeSchedule;
use textjoin_core::methods::{ExecContext, MethodError};
use textjoin_core::optimizer::single::{
    enumerate_methods, optimal_probe_bounded, MethodCandidate, MethodKind,
};
use textjoin_core::query::{prepare, PreparedQuery, SingleJoinQuery};
use textjoin_core::retry::{RetryBudget, RetryPolicy};
use textjoin_core::sched::{SchedConfig, Scheduler};
use textjoin_obs::{Event, Recorder, RingSink};
use textjoin_text::doc::DocId;
use textjoin_text::faults::FaultPlan;
use textjoin_text::rebalance::{MigrationPlan, Move};
use textjoin_text::server::{TextServer, Usage};
use textjoin_text::service::TextService;
use textjoin_text::shard::ShardedTextServer;
use textjoin_workload::paper;
use textjoin_workload::world::{World, WorldSpec};

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
pub(super) struct PaperQuery {
    pub(super) label: &'static str,
    pub(super) query: SingleJoinQuery,
    pub(super) prepared: PreparedQuery,
    stats: JoinStatistics,
    pts: Vec<usize>,
    prtp: Vec<usize>,
}

impl PaperQuery {
    /// The probe columns `kind` needs on this query, `None` when the
    /// method is inapplicable: the paper reports P-methods only for the
    /// multi-predicate queries Q3/Q4 (k ≥ 2).
    pub(super) fn probe_cols(&self, kind: MethodKind) -> Option<&[usize]> {
        match kind {
            MethodKind::PTs => (self.stats.k() >= 2).then_some(self.pts.as_slice()),
            MethodKind::PRtp => (self.stats.k() >= 2).then_some(self.prtp.as_slice()),
            _ => Some(&[]),
        }
    }

    /// Every applicable `(row index in METHODS, kind, probe columns)`.
    pub(super) fn methods(&self) -> impl Iterator<Item = (usize, MethodKind, &[usize])> {
        METHODS
            .iter()
            .enumerate()
            .filter_map(move |(mi, &(_, kind))| Some((mi, kind, self.probe_cols(kind)?)))
    }
}

/// Q1–Q4, prepared against the world's own server.
pub(super) fn paper_queries(w: &World) -> Vec<PaperQuery> {
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
pub(super) fn cluster(w: &World, replicas: usize) -> ShardedTextServer {
    ShardedTextServer::replicated(w.server.collection(), N_SHARDS, replicas, 0x5AD)
}

/// The seed of one grid cell: query, method row and rate column folded
/// into the experiment's base seed.
pub(super) fn cell_seed(base: u64, qi: usize, mi: usize, ri: usize) -> u64 {
    base ^ ((qi as u64) << 16) ^ ((mi as u64) << 8) ^ ri as u64
}

/// The chaos fault wiring: every replica gets an independent transient
/// plan (same rate, distinct seeded streams, bounded to 2 consecutive —
/// below every retry budget), except `dead`'s primary replica, which is
/// permanently dead: it transiently faults on every single operation.
pub(super) fn shake(sharded: &mut ShardedTextServer, seed: u64, rate: f64, dead: Option<usize>) {
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
pub(super) fn slow_primaries(sharded: &mut ShardedTextServer, seed: u64) {
    for i in 0..sharded.shard_count() {
        sharded.shard_mut(i).set_fault_plan(FaultPlan::slow(seed ^ i as u64, SLOW_RATE));
    }
}

/// The migration plan draining all of [`SRC_SHARD`] into [`DST_SHARD`].
pub(super) fn drain_plan(w: &World, batch_docs: usize) -> MigrationPlan {
    let range = (DocId(0), DocId(w.server.doc_count() as u32));
    MigrationPlan::new(vec![Move { range, src: SRC_SHARD, dst: DST_SHARD }], batch_docs)
}

/// Begins `plan` and returns the number of documents it staged.
pub(super) fn begin_drain(sharded: &mut ShardedTextServer, plan: MigrationPlan) -> u64 {
    sharded.begin_migration(plan).entries.iter().map(|e| e.docs).sum()
}

/// Drives the open migration to completion. A transiently refused batch
/// resumes from the journal on the next attempt, so the loop terminates
/// (bounded consecutive faults, finite plan).
pub(super) fn drain(sharded: &ShardedTextServer) {
    let mut steps = 0u32;
    while !sharded.journal().expect("journal exists").finished() {
        let _ = sharded.migrate_batch();
        steps += 1;
        assert!(steps < 10_000, "migration failed to drain");
    }
}

/// A fresh seeded virtual-time transport scheduler.
pub(super) fn scheduler(deadline: Option<f64>) -> Scheduler {
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
pub(super) fn run_budgeted(
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
pub(super) fn recorded(server: &TextServer, run: impl FnOnce()) -> Vec<Event> {
    let sink = Rc::new(RingSink::unbounded());
    server.set_recorder(Some(Recorder::new(sink.clone())));
    run();
    sink.events()
}

/// Enumerates the cost model's candidate methods for `pq` (cheapest
/// estimate first), runs each through `run`, and returns
/// `(label, estimate, measured)` for every candidate that ran.
pub(super) fn measure_candidates(
    w: &World,
    pq: &PaperQuery,
    mut run: impl FnMut(&MethodCandidate) -> Result<RunMeasure, MethodError>,
) -> Vec<(String, f64, f64)> {
    enumerate_methods(&world_params(w), &pq.stats, pq.query.projection, false)
        .iter()
        .filter_map(|c| Some((c.label.clone(), c.cost.total(), run(c).ok()?.secs)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

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
