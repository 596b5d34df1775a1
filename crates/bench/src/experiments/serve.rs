//! Serve: the multi-tenant serving session.

use textjoin_core::exec::plan_and_execute;
use textjoin_core::optimizer::multi::ExecutionSpace;
use textjoin_core::serve::{
    percentile, Backend, ServeConfig, ServeError, ServeSession, TenantSpec,
};
use textjoin_text::faults::FaultPlan;
use textjoin_text::server::TextServer;
use textjoin_workload::paper;
use textjoin_workload::world::{World, WorldSpec};

use super::scenario::{cluster, world_params, DEAD_SHARD, N_REPLICAS};

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
