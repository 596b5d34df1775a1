//! Integration: the multi-tenant serving session.
//!
//! The headline invariants: every *admitted* query returns the
//! brute-force-exact multiset and every refused query surfaces a typed
//! error (no silent drops); the aggregate server ledger decomposes
//! exactly into Σ per-tenant invoices (+ the migration bucket); a faulty
//! tenant's presence leaves healthy tenants' invoices byte-identical; a
//! single-tenant session is passive (byte-identical to the sequential
//! `plan_and_execute` pipeline); and the session caches strictly reduce
//! total charge on repeated-spec streams without changing any result.

use textjoin::core::cost::params::CostParams;
use textjoin::core::exec::{canonical_rows, plan_and_execute, prepare_plan};
use textjoin::core::optimizer::multi::ExecutionSpace;
use textjoin::core::optimizer::plan::MultiJoinQuery;
use textjoin::core::serve::{Backend, ServeConfig, ServeError, ServeSession, TenantSpec};
use textjoin::obs::EventKind;
use textjoin::rel::catalog::Catalog;
use textjoin::rel::expr::CmpOp;
use textjoin::rel::ops::filter;
use textjoin::rel::strmatch::contains_term;
use textjoin::rel::table::Table;
use textjoin::rel::value::Value;
use textjoin::text::doc::DocId;
use textjoin::text::faults::{FaultKinds, FaultPlan};
use textjoin::text::server::{TextServer, Usage};
use textjoin::text::shard::ShardedTextServer;
use textjoin::text::TextService;
use textjoin::workload::paper;
use textjoin::workload::world::{World, WorldSpec};

fn world() -> World {
    World::generate(WorldSpec {
        background_docs: 150,
        students: 30,
        projects: 10,
        ..WorldSpec::default()
    })
}

fn params_for(w: &World) -> CostParams {
    CostParams::mercury(w.server.doc_count() as f64)
}

/// Brute-force multi-join oracle for `Projection::Full` queries: scans
/// every tuple combination × every document directly against the
/// collection (no index, no search API) and shapes rows the way
/// `canonical_rows` shapes executor output.
fn brute_force_rows(q: &MultiJoinQuery, catalog: &Catalog, server: &TextServer) -> Vec<String> {
    let coll = server.collection();
    let schema = coll.schema();
    // Locally filtered base tables, in query order.
    let tables: Vec<Table> = q
        .relations
        .iter()
        .map(|spec| {
            let t = catalog.table(&spec.name).expect("relation exists");
            filter(t, &spec.local_pred)
        })
        .collect();
    // Every combination of one row per relation.
    let mut combos: Vec<Vec<usize>> = vec![vec![]];
    for t in &tables {
        let mut next = Vec::new();
        for c in &combos {
            for i in 0..t.len() {
                let mut c2 = c.clone();
                c2.push(i);
                next.push(c2);
            }
        }
        combos = next;
    }
    let mut rows = Vec::new();
    for combo in &combos {
        // Relational join predicates.
        let rel_ok = q.rel_joins.iter().all(|j| {
            let lt = &tables[j.left_rel];
            let rt = &tables[j.right_rel];
            let lv = lt.rows()[combo[j.left_rel]].get(lt.col(&j.left_col));
            let rv = rt.rows()[combo[j.right_rel]].get(rt.col(&j.right_col));
            match j.op {
                CmpOp::Eq => lv == rv,
                CmpOp::Ne => lv != rv,
                _ => panic!("oracle only handles Eq/Ne rel joins"),
            }
        });
        if !rel_ok {
            continue;
        }
        'docs: for d in 0..coll.doc_count() {
            let id = DocId(d as u32);
            let doc = coll.document(id).expect("dense docids");
            for (term, field) in &q.selections {
                let fid = schema.field_by_name(field).expect("field exists");
                if !doc.values(fid).iter().any(|v| contains_term(v, term)) {
                    continue 'docs;
                }
            }
            for f in &q.foreign {
                let t = &tables[f.rel];
                let Some(needle) = t.rows()[combo[f.rel]].get(t.col(&f.column)).as_str() else {
                    continue 'docs;
                };
                let fid = schema.field_by_name(&f.field).expect("field exists");
                if needle.trim().is_empty()
                    || !doc.values(fid).iter().any(|v| contains_term(v, needle))
                {
                    continue 'docs;
                }
            }
            // Shape the row exactly like the executor's output schema:
            // qualified relation columns, then docid + document fields.
            let mut cols: Vec<String> = Vec::new();
            for (ri, t) in tables.iter().enumerate() {
                for (c, def) in t.schema().iter() {
                    cols.push(format!(
                        "{}.{}={}",
                        q.relations[ri].name,
                        def.name,
                        t.rows()[combo[ri]].get(c)
                    ));
                }
            }
            cols.push(format!("docid={}", Value::str(id.to_string())));
            for (fid, def) in schema.iter() {
                let vs = doc.values(fid);
                let v = if vs.is_empty() {
                    Value::Null
                } else {
                    Value::str(vs.join("; "))
                };
                cols.push(format!("{}={}", def.name, v));
            }
            cols.sort();
            rows.push(cols.join(", "));
        }
    }
    rows.sort();
    rows
}

/// 4 shards × 2 replicas with shard 2's primary permanently dead: every
/// scatter to shard 2 pays deterministic failover.
fn dead_primary_server(w: &World) -> ShardedTextServer {
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let dead = s.primary_of(2);
    s.replica_mut(2, dead).set_fault_plan(FaultPlan::dead(77));
    s
}

/// Like `dead_primary_server`, but the dead replica only ever answers
/// `Unavailable` — no partial-postings timeouts. Every failed attempt
/// then charges identically *regardless of how far the plan's fault
/// stream has advanced*, which is what makes byte-identical per-tenant
/// invoices on a shared server possible. (`FaultPlan::dead` draws
/// `Timeout { after_postings }` faults whose partial charge depends on
/// the RNG position, so a co-tenant's traffic would shift the draws the
/// healthy tenants see — a property of the shared server, not a leak in
/// the session layer.)
fn unavailable_primary_server(w: &World) -> ShardedTextServer {
    let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    let dead = s.primary_of(2);
    let kinds = FaultKinds {
        unavailable: true,
        timeout: false,
        cap_reduced: false,
        slow: false,
    };
    s.replica_mut(2, dead)
        .set_fault_plan(FaultPlan::random(77, 1.0, kinds, 0));
    s
}

/// A mixed 4-tenant stream over the paper's multi-join queries.
fn mixed_stream(w: &World) -> Vec<(usize, MultiJoinQuery)> {
    let q5 = paper::q5(w);
    let q6 = paper::q6(w);
    vec![
        (0, q5.clone()),
        (1, q6.clone()),
        (2, q5.clone()),
        (3, q5.clone()),
        (0, q6.clone()),
        (3, q6.clone()),
        (1, q5.clone()),
        (2, q6),
        (3, q5),
    ]
}

#[test]
fn admitted_queries_match_brute_force_and_refusals_are_typed() {
    let w = world();
    let mut server = dead_primary_server(&w);
    let mut cfg = ServeConfig::new(params_for(&w));
    // Tight enough that the stream actually sheds and rejects: a small
    // queue, a slow drain, and one starved budget.
    cfg.queue_cap = 2;
    cfg.quantum = 40.0;
    cfg.degrade_depth = 2;
    let tenants = vec![
        TenantSpec::new("alpha", 1e9, 2),
        TenantSpec::new("beta", 1e9, 1),
        TenantSpec::new("gamma", 60.0, 0),
        TenantSpec::new("delta", 1e9, 3),
    ];
    let stream = mixed_stream(&w);
    let session = ServeSession::new(Backend::Elastic(&mut server), &w.catalog, tenants, cfg);
    let report = session.run(&stream);

    // No silent drops: one typed record per stream request, in order.
    assert_eq!(report.records.len(), stream.len());
    for (i, r) in report.records.iter().enumerate() {
        assert_eq!(r.arrival, i as u64);
        assert_eq!(r.tenant, stream[i].0);
    }

    // Every admitted-and-completed query is brute-force exact, even
    // under forced degradation and dead-primary failover.
    let mut completed = 0;
    for r in &report.records {
        if let Ok(out) = &r.outcome {
            let expected = brute_force_rows(&stream[r.arrival as usize].1, &w.catalog, &w.server);
            assert_eq!(
                canonical_rows(&out.table),
                expected,
                "arrival {} disagrees with the brute-force oracle",
                r.arrival
            );
            completed += 1;
        }
    }
    assert!(completed > 0, "the session completed work");

    // The refusal machinery actually engaged, and each refusal is typed.
    let shed: Vec<_> = report
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Err(ServeError::Shed { .. })))
        .collect();
    let rejected: Vec<_> = report
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Err(ServeError::Rejected { .. })))
        .collect();
    assert!(!shed.is_empty(), "the bounded queue shed under overload");
    assert!(!rejected.is_empty(), "the starved budget rejected");
    for r in &shed {
        assert_eq!(r.invoice, Usage::default(), "shed requests charge nothing");
    }
    for r in &rejected {
        assert_eq!(r.tenant, 2, "only the starved tenant is rejected");
        assert_eq!(r.invoice, Usage::default(), "rejections charge nothing");
    }

    // Shedding respects priority: the lowest-priority tenant with queued
    // work is the victim, never the highest.
    assert!(
        shed.iter().all(|r| r.tenant != 3),
        "priority-3 work is never shed first"
    );

    // The aggregate ledger decomposes exactly into Σ tenant invoices
    // (+ the migration bucket, zero here — no monitor, no advice).
    let mut sum = Usage::default();
    for t in &report.tenants {
        sum.accumulate(&t.invoice);
    }
    sum.accumulate(&report.migration);
    assert_eq!(report.aggregate.invocations, sum.invocations);
    assert_eq!(report.aggregate.docs_short, sum.docs_short);
    assert_eq!(report.aggregate.docs_long, sum.docs_long);
    assert_eq!(report.aggregate.postings_processed, sum.postings_processed);
    assert_eq!(report.aggregate.faults, sum.faults);
    assert_eq!(report.aggregate.retries, sum.retries);
    assert_eq!(report.aggregate.total_cost(), sum.total_cost());
}

#[test]
fn faulty_tenant_presence_leaves_healthy_invoices_byte_identical() {
    let w = world();
    let q5 = paper::q5(&w);
    let q6 = paper::q6(&w);
    let tenants = || {
        vec![
            TenantSpec::new("alpha", 1e9, 1),
            TenantSpec::new("beta", 1e9, 1),
            TenantSpec::new("hammer", 1e9, 1),
        ]
    };
    // Isolation config: no forced degradation, no shedding — the
    // *deliberate* cross-tenant couplings stay out of the picture so the
    // invariant under test is purely about charges.
    let cfg = |w: &World| {
        let mut c = ServeConfig::new(params_for(w));
        c.queue_cap = 1000;
        c.degrade_depth = 0;
        c.quantum = 1e9;
        c
    };

    // Run A: healthy tenants only.
    let healthy: Vec<(usize, MultiJoinQuery)> = vec![
        (0, q5.clone()),
        (1, q6.clone()),
        (0, q6.clone()),
        (1, q5.clone()),
    ];
    let mut server_a = unavailable_primary_server(&w);
    let report_a = ServeSession::new(
        Backend::Elastic(&mut server_a),
        &w.catalog,
        tenants(),
        cfg(&w),
    )
    .run(&healthy);

    // Run B: the same healthy requests with a third tenant's queries —
    // which hammer the dead-primary shard — interleaved between them.
    let mixed: Vec<(usize, MultiJoinQuery)> = vec![
        (2, q5.clone()),
        (0, q5.clone()),
        (2, q5.clone()),
        (1, q6.clone()),
        (2, q6.clone()),
        (0, q6),
        (2, q5.clone()),
        (1, q5),
    ];
    let mut server_b = unavailable_primary_server(&w);
    let report_b = ServeSession::new(
        Backend::Elastic(&mut server_b),
        &w.catalog,
        tenants(),
        cfg(&w),
    )
    .run(&mixed);

    // The hammer tenant really pays failover: faults and retries land in
    // its invoice and nobody else's.
    let hammer = &report_b.tenants[2];
    assert!(
        hammer.invoice.faults > 0,
        "the dead primary faults the hammer tenant"
    );
    assert!(hammer.invoice.retries > 0);

    // Healthy tenants' invoices do not move: every count and every time
    // field identical.
    for ti in 0..2 {
        let a = &report_a.tenants[ti].invoice;
        let b = &report_b.tenants[ti].invoice;
        assert_eq!(
            a.invocations, b.invocations,
            "tenant {ti} invocations moved"
        );
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(
            a.postings_processed, b.postings_processed,
            "tenant {ti} postings moved"
        );
        assert_eq!(a.docs_short, b.docs_short);
        assert_eq!(a.docs_long, b.docs_long);
        assert_eq!(a.faults, b.faults, "tenant {ti} faults moved");
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.ns_invocation, b.ns_invocation);
        assert_eq!(a.ns_processing, b.ns_processing);
        assert_eq!(a.ns_transmission, b.ns_transmission);
        assert_eq!(a.ns_backoff, b.ns_backoff);
        assert_eq!(
            report_a.tenants[ti].spent, report_b.tenants[ti].spent,
            "tenant {ti} spent moved"
        );
        assert_eq!(
            report_a.tenants[ti].costs, report_b.tenants[ti].costs,
            "tenant {ti} per-query cost moved"
        );
    }
}

#[test]
fn zero_budget_tenant_is_fully_rejected_with_zero_charges() {
    let w = world();
    let mut cfg = ServeConfig::new(params_for(&w));
    cfg.quantum = 1e9;
    let tenants = vec![
        TenantSpec::new("payer", 1e9, 1),
        TenantSpec::new("broke", 0.0, 1),
    ];
    let q5 = paper::q5(&w);
    let stream = vec![(1, q5.clone()), (0, q5.clone()), (1, q5.clone()), (1, q5)];
    let mut server = dead_primary_server(&w);
    let before = server.usage();
    let report =
        ServeSession::new(Backend::Elastic(&mut server), &w.catalog, tenants, cfg).run(&stream);

    let broke = &report.tenants[1];
    assert_eq!(broke.rejected, 3, "every zero-budget request is rejected");
    assert_eq!(broke.admitted, 0);
    assert_eq!(
        broke.invoice,
        Usage::default(),
        "zero charges for the zero budget"
    );
    for r in report.records.iter().filter(|r| r.tenant == 1) {
        assert!(matches!(r.outcome, Err(ServeError::Rejected { .. })));
    }
    // The payer is untouched; all server charges belong to it.
    assert_eq!(report.tenants[0].completed, 1);
    let delta = server.usage().since(&before);
    assert_eq!(delta.invocations, report.tenants[0].invoice.invocations);
}

#[test]
fn single_tenant_session_is_passive() {
    let w = world();
    let params = params_for(&w);
    // Distinct specs: no cache overlap, so the session layer must add
    // exactly nothing to what the sequential pipeline does.
    let stream = vec![(0, paper::q5(&w)), (0, paper::q6(&w))];

    let serve_server = TextServer::new(w.server.collection().clone());
    let mut cfg = ServeConfig::new(params);
    cfg.quantum = 1e9;
    cfg.degrade_depth = 0;
    let report = ServeSession::new(
        Backend::Single(&serve_server),
        &w.catalog,
        vec![TenantSpec::new("solo", 1e9, 1)],
        cfg,
    )
    .run(&stream);

    // Sequential baseline on an identical fresh server.
    let base_server = TextServer::new(w.server.collection().clone());
    let mut base_usage = Vec::new();
    let mut base_rows = Vec::new();
    let mut base_costs = Vec::new();
    for (_, q) in &stream {
        let before = base_server.usage();
        let (_, out) = plan_and_execute(q, &w.catalog, &base_server, params, ExecutionSpace::Prl)
            .expect("baseline runs");
        base_usage.push(base_server.usage().since(&before));
        base_rows.push(canonical_rows(&out.table));
        base_costs.push(out.total_cost);
    }

    assert_eq!(report.records.len(), 2);
    for (i, r) in report.records.iter().enumerate() {
        let out = r.outcome.as_ref().expect("admitted and completed");
        assert_eq!(
            canonical_rows(&out.table),
            base_rows[i],
            "request {i} rows differ"
        );
        assert_eq!(r.invoice, base_usage[i], "request {i} invoice differs");
        assert_eq!(out.total_cost, base_costs[i], "request {i} cost differs");
    }
    assert_eq!(
        serve_server.usage(),
        base_server.usage(),
        "the session leaves the exact ledger the sequential pipeline leaves"
    );
}

#[test]
fn session_caches_strictly_reduce_charges_on_repeated_specs() {
    let w = world();
    let params = params_for(&w);
    let q5 = paper::q5(&w);
    let stream: Vec<(usize, MultiJoinQuery)> = (0..4).map(|_| (0usize, q5.clone())).collect();

    let serve_server = TextServer::new(w.server.collection().clone());
    let mut cfg = ServeConfig::new(params);
    cfg.quantum = 1e9;
    cfg.degrade_depth = 0;
    let report = ServeSession::new(
        Backend::Single(&serve_server),
        &w.catalog,
        vec![TenantSpec::new("solo", 1e9, 1)],
        cfg,
    )
    .run(&stream);

    // Per-execution baseline: the same stream through the sequential
    // pipeline, whose probe cache dies with each execution.
    let base_server = TextServer::new(w.server.collection().clone());
    let mut base_total = 0.0;
    let mut base_rows = None;
    for (_, q) in &stream {
        let (_, out) = plan_and_execute(q, &w.catalog, &base_server, params, ExecutionSpace::Prl)
            .expect("baseline runs");
        base_total += out.total_cost;
        base_rows = Some(canonical_rows(&out.table));
    }
    let base_rows = base_rows.expect("stream non-empty");

    // Results unchanged, charges strictly reduced, sharing visible.
    let mut serve_total = 0.0;
    for r in &report.records {
        let out = r.outcome.as_ref().expect("completed");
        assert_eq!(canonical_rows(&out.table), base_rows);
        serve_total += out.total_cost;
    }
    assert!(
        serve_total < base_total,
        "session caches must strictly reduce charge: {serve_total} vs {base_total}"
    );
    let (hits, _, _) = report.tenants[0].probe_cache;
    assert!(
        hits > 0,
        "the session probe cache took hits across executions"
    );
    assert!(
        report.tenants[0].plan_hits >= 3,
        "repeat specs hit the plan cache"
    );

    // The trace↔ledger audit stays exact with the charge-free cache
    // events in the stream: summing every recorded charge reproduces the
    // aggregate ledger, and cache hits carry no charge at all.
    let mut cache_hits = 0;
    let mut sum_inv = 0i64;
    let mut sum_ticks = 0i64;
    for ev in &report.trace {
        if let EventKind::CacheHit { .. } = ev.kind {
            cache_hits += 1;
            assert!(ev.kind.charge().is_none(), "cache hits are charge-free");
        }
        if let Some(c) = ev.kind.charge() {
            sum_inv += c.invocations;
            sum_ticks += c.ns_invocation + c.ns_processing + c.ns_transmission + c.ns_backoff;
        }
    }
    assert!(cache_hits > 0, "cache hits are visible in the trace");
    assert_eq!(sum_inv, report.aggregate.invocations as i64);
    let a = &report.aggregate;
    let ledger_ticks = a.ns_invocation + a.ns_processing + a.ns_transmission + a.ns_backoff;
    assert_eq!(sum_ticks, ledger_ticks as i64);
}

#[test]
fn midflight_budget_guard_aborts_and_reconciles_partial_charges() {
    let w = world();
    let params = params_for(&w);
    let q5 = paper::q5(&w);

    // Learn the estimate and the actual on identical scratch servers.
    // Every shard's primary is dead, so every scatter leg pays failover
    // the zero-history estimate cannot price — actuals overrun the
    // estimate, which is exactly the overrun the guard exists for.
    let all_dead = |w: &World| {
        let mut s = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
        for i in 0..4 {
            let dead = s.primary_of(i);
            s.replica_mut(i, dead)
                .set_fault_plan(FaultPlan::dead(77 + i as u64));
        }
        s
    };
    let scratch = all_dead(&w);
    scratch.set_stats_routing(true);
    let (_, planned) = prepare_plan(
        &q5,
        &w.catalog,
        &scratch,
        params,
        ExecutionSpace::Prl,
        None,
        None,
    )
    .expect("plans");
    let est = planned.est_cost;
    let actual_server = all_dead(&w);
    actual_server.set_stats_routing(true);
    let (_, out) = plan_and_execute(&q5, &w.catalog, &actual_server, params, ExecutionSpace::Prl)
        .expect("runs");
    assert!(
        out.total_cost > est,
        "fixture: failover actuals ({}) must overrun the estimate ({est})",
        out.total_cost
    );

    // Budget between estimate and actual: admitted, then aborted.
    let budget = (est + out.total_cost) / 2.0;
    let mut server = all_dead(&w);
    let mut cfg = ServeConfig::new(params);
    cfg.quantum = 1e9;
    let report = ServeSession::new(
        Backend::Elastic(&mut server),
        &w.catalog,
        vec![TenantSpec::new("capped", budget, 1)],
        cfg,
    )
    .run(&[(0, q5)]);

    let r = &report.records[0];
    let Err(ServeError::BudgetExhausted { spent, remaining }) = &r.outcome else {
        panic!("expected a mid-flight budget abort, got {:?}", r.outcome);
    };
    assert!(*spent > 0.0, "partial work was charged");
    assert!(*remaining <= budget);
    assert_eq!(report.tenants[0].budget_aborted, 1);
    // Partial charges are reconciled: the tenant's invoice is exactly
    // the server's ledger delta, and the decomposition still holds.
    assert_eq!(report.tenants[0].invoice, r.invoice);
    assert_eq!(report.aggregate, r.invoice);
    // The typed event is in the trace.
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e.kind, EventKind::BudgetExhausted { .. })));
}

#[test]
fn session_closes_the_rebalance_and_drift_loops() {
    let w = world();
    let params = params_for(&w);
    // A degraded hot shard: replicas fault transiently, so its invoice
    // share climbs and the monitor's skew detector derives advice.
    let mut server = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    for r in 0..2 {
        server
            .replica_mut(1, r)
            .set_fault_plan(FaultPlan::transient(0x5EA7 ^ ((r as u64) << 32), 0.35, 2));
    }
    let mut cfg = ServeConfig::new(params);
    cfg.quantum = 1e9;
    cfg.degrade_depth = 0;
    cfg.monitor = Some(textjoin::obs::MonitorConfig::new(100.0).with_skew(400_000, 320_000));
    cfg.migration_budget = 1e9;
    cfg.adopt_drift_every = 3;
    let epoch_before = server.topology_epoch();
    let q5 = paper::q5(&w);
    let q6 = paper::q6(&w);
    let stream: Vec<(usize, MultiJoinQuery)> = (0..6)
        .flat_map(|i| vec![(i % 2, q5.clone()), ((i + 1) % 2, q6.clone())])
        .collect();
    let report = ServeSession::new(
        Backend::Elastic(&mut server),
        &w.catalog,
        vec![TenantSpec::new("a", 1e9, 1), TenantSpec::new("b", 1e9, 1)],
        cfg,
    )
    .run(&stream);

    // The drift loop closed: refits were adopted into the live params.
    assert!(report.refits > 0, "calibration refits were adopted");
    // The rebalance loop closed: advice was executed under the session
    // migration budget, moving documents and advancing the epoch.
    assert!(report.migrated_docs > 0, "monitor advice was auto-executed");
    assert!(server.topology_epoch() > epoch_before);
    assert!(
        report.migration.invocations > 0,
        "transfers billed the migration bucket"
    );

    // Everything completed still matches the oracle — a mid-session
    // topology change must never change an answer.
    for r in &report.records {
        let out = r.outcome.as_ref().expect("stream completes");
        let expected = brute_force_rows(&stream[r.arrival as usize].1, &w.catalog, &w.server);
        assert_eq!(
            canonical_rows(&out.table),
            expected,
            "arrival {} wrong after rebalance/refit",
            r.arrival
        );
    }

    // And the decomposition holds with a non-zero migration bucket.
    let mut sum = Usage::default();
    for t in &report.tenants {
        sum.accumulate(&t.invoice);
    }
    sum.accumulate(&report.migration);
    assert_eq!(report.aggregate.invocations, sum.invocations);
    assert_eq!(report.aggregate.docs_long, sum.docs_long);
    assert_eq!(report.aggregate.faults, sum.faults);
    assert_eq!(report.aggregate.total_cost(), sum.total_cost());
}

/// FNV-1a over everything a session reports that existed before the
/// statistics export was cached: per-request records (rows, costs,
/// invoices, typed refusals), tenant accounting, both ledgers, the trace
/// as JSONL, the monitor table, and the loop counters.
fn fingerprint(report: &textjoin::core::serve::ServeReport) -> u64 {
    let mut text = format!(
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n{} {}\n",
        report.records,
        report.tenants,
        report.aggregate,
        report.migration,
        report.monitor_table,
        report.migrated_docs,
        report.refits,
    );
    for e in &report.trace {
        text.push_str(&e.to_jsonl());
        text.push('\n');
    }
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The rebalance fixture of `session_closes_the_rebalance_and_drift_loops`
/// under a quantum small enough that requests wait several rounds between
/// admission and dispatch. With a migration budget the monitor's advice
/// stages a migration while they wait.
fn slow_drain_session(migration_budget: f64) -> textjoin::core::serve::ServeReport {
    let w = world();
    let mut server = ShardedTextServer::replicated(w.server.collection(), 4, 2, 0x5AD);
    for r in 0..2 {
        server
            .replica_mut(1, r)
            .set_fault_plan(FaultPlan::transient(0x5EA7 ^ ((r as u64) << 32), 0.35, 2));
    }
    let mut cfg = ServeConfig::new(params_for(&w));
    cfg.quantum = 15.0;
    cfg.queue_cap = 64;
    cfg.degrade_depth = 0;
    cfg.monitor = Some(textjoin::obs::MonitorConfig::new(100.0).with_skew(400_000, 320_000));
    cfg.migration_budget = migration_budget;
    let (q5, q6) = (paper::q5(&w), paper::q6(&w));
    let stream: Vec<(usize, MultiJoinQuery)> = (0..6)
        .flat_map(|i| vec![(i % 2, q5.clone()), ((i + 1) % 2, q6.clone())])
        .collect();
    ServeSession::new(
        Backend::Elastic(&mut server),
        &w.catalog,
        vec![TenantSpec::new("a", 1e9, 1), TenantSpec::new("b", 1e9, 1)],
        cfg,
    )
    .run(&stream)
}

/// Dispatch re-gathers a request's statistics exactly when the server's
/// export changed while it queued, and neither path changes an answer: the
/// fingerprints go back to the commit before the export was cached, where
/// every admission and every dispatch gathered from a freshly walked
/// index. They were re-derived when the ledger moved from float seconds
/// to integer ticks, which changes how a report prints, and `staged` again
/// when an execution's total and makespan became tick sums rendered once
/// (ten times moved in their last bits, e.g. 22.091440000000002 →
/// 22.09144). Each time the two commits' reports agreed in every record,
/// count and tenant field, and in every time field to the nanosecond. If
/// a later change legitimately
/// alters a report (a new event kind, a new ledger field), re-derive both
/// constants on the commit before that change and check that they agree
/// there.
#[test]
fn dispatch_regathers_only_when_the_export_changed_and_answers_never_move() {
    // Staging lands between admissions and dispatches: the requests
    // queued across it re-gather, the ones admitted after it do not.
    let staged = slow_drain_session(1e9);
    assert!(
        staged.migrated_docs > 0,
        "fixture: the monitor's advice staged a migration"
    );
    let completed = staged.records.iter().filter(|r| r.outcome.is_ok()).count() as u64;
    assert_eq!(completed, 12);
    assert!(
        staged.regathered > 0,
        "requests queued across the staging re-gathered"
    );
    assert!(
        staged.regathered < completed,
        "the others kept their admission's statistics"
    );
    assert_eq!(fingerprint(&staged), 0x937f_3f19_3a94_e9cd);

    // Same stream, same waits, no staging: nothing to re-gather.
    let quiet = slow_drain_session(0.0);
    assert_eq!(quiet.migrated_docs, 0);
    assert_eq!(
        quiet.regathered, 0,
        "an unchanged export is never gathered twice"
    );
    assert_eq!(fingerprint(&quiet), 0x98b5_0f70_a6f2_3b7a);
}

/// A request naming a tenant the session was not opened with ends in a
/// typed, charge-free refusal that no tenant's report counts; the rest of
/// the stream is served as if it had not been there.
#[test]
fn unknown_tenant_is_refused_typed_and_charge_free() {
    let w = world();
    let server = TextServer::new(w.server.collection().clone());
    let mut cfg = ServeConfig::new(params_for(&w));
    cfg.quantum = 1e9;
    let q6 = paper::q6(&w);
    let stream = vec![(0, q6.clone()), (1, q6.clone()), (0, q6)];
    let before = server.usage();
    let report = ServeSession::new(
        Backend::Single(&server),
        &w.catalog,
        vec![TenantSpec::new("solo", 1e9, 1)],
        cfg,
    )
    .run(&stream);

    assert_eq!(report.records.len(), stream.len());
    let unknown = &report.records[1];
    assert_eq!(unknown.tenant, 1);
    assert!(matches!(
        unknown.outcome,
        Err(ServeError::UnknownTenant { tenant: 1 })
    ));
    assert_eq!(unknown.invoice, Usage::default());
    assert!(report
        .records
        .iter()
        .filter(|r| r.arrival != 1)
        .all(|r| r.outcome.is_ok()));
    let solo = &report.tenants[0];
    assert_eq!((solo.admitted, solo.completed), (2, 2));
    assert_eq!((solo.rejected, solo.shed, solo.exec_errors), (0, 0, 0));
    assert_eq!(solo.invoice, server.usage().since(&before));
}

/// Every field exact, counts and time ticks alike.
fn assert_same_ledger(a: &Usage, b: &Usage, what: &str) {
    assert_eq!(a.invocations, b.invocations, "{what}: invocations");
    assert_eq!(a.rejected, b.rejected, "{what}: rejected");
    assert_eq!(
        a.postings_processed, b.postings_processed,
        "{what}: postings"
    );
    assert_eq!(a.docs_short, b.docs_short, "{what}: docs_short");
    assert_eq!(a.docs_long, b.docs_long, "{what}: docs_long");
    assert_eq!(a.faults, b.faults, "{what}: faults");
    assert_eq!(a.retries, b.retries, "{what}: retries");
    assert_eq!(a.ns_invocation, b.ns_invocation, "{what}: ns_invocation");
    assert_eq!(a.ns_processing, b.ns_processing, "{what}: ns_processing");
    assert_eq!(
        a.ns_transmission, b.ns_transmission,
        "{what}: ns_transmission"
    );
    assert_eq!(a.ns_backoff, b.ns_backoff, "{what}: ns_backoff");
}

/// Stateful model test over `ServeSession::step`. Seeded sessions of 2–4
/// tenants (budgets from {0, tight, 1e9}, random queue cap, quantum,
/// degradation depth and analyze) over a lone server with transient
/// faults serve a 6–12-arrival Q5/Q6 stream that names one unknown
/// tenant. After every step: each closed record closes an arrival already
/// stepped and never closed before, under the tenant it named; every
/// refusal charges nothing; the records' invoices sum to the server's
/// ledger delta; every answer is the brute-force multiset. After
/// `finish`, every tenant count is the count over its records.
#[test]
fn every_step_keeps_the_outcome_log_exact() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use textjoin::core::serve::{Input, QueryRecord};

    let w = world();
    let params = params_for(&w);
    let queries = [paper::q5(&w), paper::q6(&w)];
    let expected = queries
        .iter()
        .map(|q| brute_force_rows(q, &w.catalog, &w.server))
        .collect::<Vec<_>>();
    let est = |q: &MultiJoinQuery| {
        let (_, planned) = prepare_plan(
            q,
            &w.catalog,
            &w.server,
            params,
            ExecutionSpace::Prl,
            None,
            None,
        )
        .expect("plans");
        planned.est_cost
    };
    // Admits a request or two, then rejects (or aborts mid-flight).
    let tight = 1.5 * est(&queries[0]).max(est(&queries[1]));

    let mut outcomes = [0usize; 5];
    for case in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(0x5E55_10C0 ^ case);
        let n = rng.gen_range(2..=4usize);
        let tenants: Vec<TenantSpec> = (0..n)
            .map(|i| {
                let budget = [0.0, tight, 1e9][rng.gen_range(0..3usize)];
                TenantSpec::new(&format!("t{i}"), budget, rng.gen_range(0..3u32))
            })
            .collect();
        let mut cfg = ServeConfig::new(params);
        cfg.queue_cap = rng.gen_range(1..=4usize);
        cfg.quantum = [0.25 * tight, tight, 1e9][rng.gen_range(0..3usize)];
        cfg.degrade_depth = rng.gen_range(0..=3usize);
        cfg.analyze = rng.gen_bool(0.5);
        let analyze = cfg.analyze;
        let mut server = TextServer::new(w.server.collection().clone());
        server.set_fault_plan(FaultPlan::transient(0xFA17 ^ case, 0.2, 2));
        let len = rng.gen_range(6..=12usize);
        let mut stream: Vec<(usize, usize)> = (0..len)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..2usize)))
            .collect();
        stream[rng.gen_range(0..len)].0 = n;

        let start = server.usage();
        let mut session = ServeSession::new(Backend::Single(&server), &w.catalog, tenants, cfg);
        let inputs = stream
            .iter()
            .map(|&(tenant, k)| Input::Arrive {
                tenant,
                query: &queries[k],
            })
            .chain([Input::Drain]);
        let mut log: Vec<QueryRecord> = Vec::new();
        let mut stepped = 0u64;
        for input in inputs {
            stepped += u64::from(matches!(input, Input::Arrive { .. }));
            let closed = session.step(input).to_vec();
            for r in &closed {
                let what = format!("case {case} arrival {}", r.arrival);
                assert!(r.arrival < stepped, "{what}: closed before it arrived");
                assert!(
                    log.iter().all(|l| l.arrival != r.arrival),
                    "{what}: closed twice"
                );
                let (tenant, k) = stream[r.arrival as usize];
                assert_eq!(r.tenant, tenant, "{what}: wrong tenant");
                match &r.outcome {
                    Ok(out) => {
                        assert_eq!(canonical_rows(&out.table), expected[k], "{what}: rows");
                        assert_eq!(out.cost_q.is_some(), analyze, "{what}: cost_q");
                        outcomes[0] += 1;
                    }
                    Err(ServeError::UnknownTenant { tenant: t }) => {
                        assert_eq!((*t, tenant), (n, n), "{what}: only the unknown tenant");
                        assert_eq!(r.invoice, Usage::default(), "{what}: charged");
                        outcomes[1] += 1;
                    }
                    Err(ServeError::Rejected { .. } | ServeError::Shed { .. }) => {
                        assert_eq!(r.invoice, Usage::default(), "{what}: charged");
                        outcomes[2] += 1;
                    }
                    // Failed before an estimate existed: at admission.
                    Err(ServeError::Exec(_)) if r.est_cost == 0.0 => {
                        assert_eq!(r.invoice, Usage::default(), "{what}: charged");
                    }
                    Err(ServeError::BudgetExhausted { .. }) => outcomes[3] += 1,
                    Err(ServeError::Exec(_)) => outcomes[4] += 1,
                }
                assert!(
                    r.tenant < n || r.outcome.is_err(),
                    "{what}: unknown tenant served"
                );
            }
            log.extend(closed);
            let mut sum = Usage::default();
            for r in &log {
                sum.accumulate(&r.invoice);
            }
            let ledger = server.usage().since(&start);
            assert_same_ledger(
                &sum,
                &ledger,
                &format!("case {case} after {stepped} arrivals"),
            );
        }
        assert_eq!(
            log.len(),
            stream.len(),
            "case {case}: every arrival closed once"
        );

        let report = session.finish();
        assert_eq!(report.records.len(), stream.len());
        for (ti, t) in report.tenants.iter().enumerate() {
            let mine: Vec<&QueryRecord> = log.iter().filter(|r| r.tenant == ti).collect();
            let count = |f: fn(&Result<_, ServeError>) -> bool| {
                mine.iter().filter(|r| f(&r.outcome)).count() as u64
            };
            let costs: Vec<f64> = mine
                .iter()
                .filter_map(|r| r.outcome.as_ref().ok().map(|o| o.total_cost))
                .collect();
            assert_eq!(t.completed, count(|o| o.is_ok()), "case {case} tenant {ti}");
            assert_eq!(
                t.rejected,
                count(|o| matches!(o, Err(ServeError::Rejected { .. })))
            );
            assert_eq!(t.shed, count(|o| matches!(o, Err(ServeError::Shed { .. }))));
            assert_eq!(
                t.budget_aborted,
                count(|o| matches!(o, Err(ServeError::BudgetExhausted { .. })))
            );
            assert_eq!(
                t.exec_errors,
                count(|o| matches!(o, Err(ServeError::Exec(_))))
            );
            assert_eq!(
                t.costs, costs,
                "case {case} tenant {ti}: costs in dispatch order"
            );
            assert_eq!(t.cost_qs.len(), if analyze { costs.len() } else { 0 });
            assert!(t.admitted >= t.completed + t.shed + t.budget_aborted);
            let mut invoice = Usage::default();
            for r in &mine {
                invoice.accumulate(&r.invoice);
            }
            assert_same_ledger(&t.invoice, &invoice, &format!("case {case} tenant {ti}"));
        }
    }
    // The generator reaches every kind of ending but engine failures,
    // which transient faults under the standard retry policy rarely cause.
    assert!(
        outcomes[..4].iter().all(|&k| k > 0),
        "outcome mix {outcomes:?}"
    );
}
