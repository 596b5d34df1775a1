//! Chaos: cost overhead under injected faults — one grid, four servers —
//! and the recorded traces the `explain` and `calibrate` binaries replay.

use textjoin_core::optimizer::single::MethodKind;
use textjoin_core::query::PreparedQuery;
use textjoin_obs::{calibrate_trace, Event};
use textjoin_text::faults::FaultPlan;
use textjoin_text::rebalance::MoveStatus;
use textjoin_text::server::TextServer;
use textjoin_workload::world::World;

use super::scenario::{
    begin_drain, cell_seed, cluster, drain, drain_plan, paper_queries, recorded, run_budgeted,
    run_method_on, shake, world_params, RunMeasure, BATCH_DOCS, DEAD_SHARD, METHODS, N_REPLICAS,
    SRC_SHARD,
};

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
/// `Usage::metrics_snapshot` bridge so the printed tables are fed from
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

/// Runs every method over Q1–Q4 against an unreplicated `N_SHARDS`-shard
/// server whose shards fault independently, with the adaptive
/// `RetryBudget` steering per-shard attempts.
pub fn sharded_chaos_table(w: &World) -> ChaosTable {
    chaos_grid(w, "sharded fault injection", 0x5EED, |c| {
        let mut sharded = cluster(w, 1);
        shake(&mut sharded, c.seed, c.rate, None);
        run_budgeted(&sharded, None, c.prepared, c.kind, c.cols).ok()
    })
}

/// Runs every method over Q1–Q4 against an `N_SHARDS` × [`N_REPLICAS`]
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
/// [`SRC_SHARD`] into `DST_SHARD` in [`BATCH_DOCS`]-document batches.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::default_world;

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
}
