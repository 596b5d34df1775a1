//! Makespan: concurrent transport, hedged replica reads, deadlines.

use textjoin_core::exec::MultiExecutor;
use textjoin_core::optimizer::multi::PlannerInput;
use textjoin_core::optimizer::plan::PlanNode;
use textjoin_core::optimizer::single::MethodKind;
use textjoin_text::service::TextService;
use textjoin_workload::paper;
use textjoin_workload::world::World;

use super::scenario::{
    cell_seed, cluster, paper_queries, run_budgeted, run_method_on, scheduler, slow_primaries,
    world_params, DEADLINE, METHODS, N_REPLICAS,
};

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

/// The makespan grid: runs every method over Q1–Q4 against an `N_SHARDS` × [`N_REPLICAS`]
/// server in which each shard's *primary* replica carries a seeded
/// latency-only `FaultPlan::slow` plan at `SLOW_RATE` (it always
/// answers, sometimes late) and each query runs under the [`DEADLINE`]
/// on a fresh virtual-time `Scheduler`. Slow primary legs above the
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::default_world;

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
}
