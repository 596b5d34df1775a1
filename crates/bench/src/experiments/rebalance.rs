//! Rebalance tables: stats-routing fan-out and migration amortization.

use textjoin_core::optimizer::single::MethodKind;
use textjoin_text::expr::SearchExpr;
use textjoin_text::service::TextService;
use textjoin_workload::world::World;

use super::scenario::{
    begin_drain, cluster, drain_plan, paper_queries, run_method_on, N_SHARDS,
};

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
/// drain of `SRC_SHARD` into `DST_SHARD`).
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
/// `CostParams::with_scatter_fanout`, so the printed table and the
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
