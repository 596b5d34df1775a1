//! The multi-tenant serving session.
//!
//! Everything below `serve` executes one `ForeignJoin` at a time; this
//! module admits a deterministic *stream* of `(tenant, query)` requests
//! against one shared engine and answers the robustness question the
//! single-query world never faced: what happens when tenants collectively
//! demand more than the server's caps, budgets, and fault-degraded
//! capacity can deliver — and how does one misbehaving tenant get kept
//! from starving the rest?
//!
//! Four mechanisms, all deterministic and all typed (a request is never
//! silently dropped):
//!
//! 1. **Admission control & budgets.** Each tenant carries a cost budget
//!    in `Usage` currency (simulated seconds). Admission estimates the
//!    request's plan cost with the real optimizer — planning is
//!    charge-free — and rejects requests whose estimate exceeds the
//!    tenant's remaining budget ([`ServeError::Rejected`]); the estimate
//!    of every *queued* request is held as a committed reservation so a
//!    tenant cannot over-admit against the same remainder. A per-query
//!    [`CostCeiling`] guard aborts mid-flight when actuals overrun
//!    ([`ServeError::BudgetExhausted`]); partial charges stay booked in
//!    the ordinary ledger and are reconciled into the tenant's invoice.
//! 2. **Overload shedding with graceful degradation.** Admitted requests
//!    wait in per-tenant FIFO queues drained by deficit round-robin:
//!    every round each backlogged tenant's deficit grows by one quantum
//!    and it dispatches head requests while their estimates fit, so
//!    long-run service share is equal per tenant regardless of demand.
//!    When the total backlog reaches the degradation watermark,
//!    dispatches run under forced scheduler pressure and the executor's
//!    degradation lattice (probe skip, PTs/PRtp→Ts) trades cost for
//!    latency — never rows. Only when the bounded queue still overflows
//!    is the lowest-priority queued request shed ([`ServeError::Shed`]).
//! 3. **Tenant fault isolation.** Each tenant owns its `RetryBudget`
//!    (breakers, adaptive attempts, hedge thresholds), its fault-model
//!    fold (plans are priced from the tenant's *own* observed ledger, not
//!    the shared one), and its `Usage` invoice measured as a `since`
//!    delta around each execution. The aggregate server ledger decomposes
//!    exactly into Σ tenant invoices + the migration bucket.
//! 4. **Cross-query sharing.** Each tenant carries a session-scoped
//!    [`ProbeCache`] (epoch-keyed, namespaced by full probe identity) and
//!    a plan cache keyed on (spec shape, topology epoch, folded cost
//!    params). Both are charge-free and result-preserving; hits emit
//!    charge-free `CacheHit` events so the trace↔ledger audit stays
//!    exact. Caches are per-tenant by design: sharing *within* a tenant,
//!    unconditional isolation *across* tenants.
//!
//! The session also closes two carried ROADMAP loops when configured: it
//! auto-executes the windowed monitor's rebalance advice through the
//! online migration engine under a session migration budget, and it
//! adopts the drift watchdog's `calibrate_trace` refit into the live
//! session's `CostParams`.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use textjoin_obs::{
    calibrate_trace, Event, EventKind, FanoutSink, Monitor, MonitorConfig, Recorder, RingSink,
    Sink, TraceCalibration,
};
use textjoin_rel::catalog::Catalog;
use textjoin_rel::table::Table;
use textjoin_text::rebalance::MigrationPlan;
use textjoin_text::server::{TextError, TextServer, Usage};
use textjoin_text::service::TextService;
use textjoin_text::shard::ShardedTextServer;

use crate::cost::params::CostParams;
use crate::exec::{execute_prepared, fold_params, plan_prepared, prepare_input, ExecHooks};
use crate::methods::cache::ProbeCache;
use crate::methods::{CostCeiling, MethodError};
use crate::optimizer::multi::{ExecutionSpace, PlannedQuery, PlannerInput};
use crate::optimizer::plan::MultiJoinQuery;
use crate::retry::{RetryBudget, RetryPolicy};

/// A tenant of the serving session.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (reports and bench tables).
    pub name: String,
    /// Cost budget for the whole session, in simulated seconds of
    /// `Usage` currency. Admission, reservation, and the mid-flight
    /// ceiling all draw on it.
    pub budget: f64,
    /// Shedding priority: under queue overflow the *lowest* priority
    /// queued request is shed first (ties broken toward the newest
    /// arrival). Higher numbers are more important.
    pub priority: u32,
}

impl TenantSpec {
    /// A tenant with the given name, budget, and priority.
    pub fn new(name: &str, budget: f64, priority: u32) -> Self {
        Self {
            name: name.to_owned(),
            budget,
            priority,
        }
    }
}

/// Session tuning. Every knob is deterministic; nothing reads a clock or
/// an unseeded RNG.
#[derive(Clone)]
pub struct ServeConfig {
    /// Cost-model parameters every request is planned with (before the
    /// per-tenant fault fold / calibration adoption).
    pub params: CostParams,
    /// Plan space for the optimizer.
    pub space: ExecutionSpace,
    /// Bound on the total number of queued admitted requests; pushing
    /// past it sheds the lowest-priority queued request.
    pub queue_cap: usize,
    /// Deficit-round-robin quantum, simulated seconds added to each
    /// backlogged tenant's deficit per round. Must be positive.
    pub quantum: f64,
    /// Total backlog at or above which dispatches run under forced
    /// scheduler pressure (the degradation lattice: cost only, never
    /// rows). `0` disables forced degradation.
    pub degrade_depth: usize,
    /// Stats-aware shard routing for the serve path. On by default —
    /// the legacy single-query bins keep it opt-in so their recorded
    /// tables stay byte-identical.
    pub stats_routing: bool,
    /// Simulated-seconds budget for auto-executed rebalance advice;
    /// `0.0` disables auto-rebalancing. Requires an elastic backend and
    /// an attached monitor to have any effect.
    pub migration_budget: f64,
    /// Batch size (documents) for auto-executed migrations.
    pub rebalance_batch_docs: usize,
    /// Adopt a `calibrate_trace` refit of the session trace into the
    /// live `CostParams` after every this many dispatches; `0` disables
    /// adoption.
    pub adopt_drift_every: usize,
    /// Attach a windowed health monitor as a tee on the session
    /// recorder. Required for auto-rebalancing (it is the advice
    /// source).
    pub monitor: Option<MonitorConfig>,
    /// EXPLAIN ANALYZE on every dispatch: per-node actual attribution, a
    /// per-query plan-level Q-error column on the tenant report, and one
    /// free `EstimateSample` trace event per completed query (the
    /// misestimation detector's feed). Pure observation — results,
    /// ledgers, and invoices are byte-identical with it on or off.
    pub analyze: bool,
}

impl ServeConfig {
    /// A session over `params` with serving defaults: PrL plan space,
    /// queue capacity 8, quantum 50 simulated seconds, degradation at
    /// backlog 6, stats-aware routing on, auto-rebalance and drift
    /// adoption off, no monitor.
    pub fn new(params: CostParams) -> Self {
        Self {
            params,
            space: ExecutionSpace::Prl,
            queue_cap: 8,
            quantum: 50.0,
            degrade_depth: 6,
            stats_routing: true,
            migration_budget: 0.0,
            rebalance_batch_docs: 24,
            adopt_drift_every: 0,
            monitor: None,
            analyze: false,
        }
    }
}

/// Typed refusal or failure for one request. A request always terminates
/// in exactly one of: a successful [`QueryOutcome`], or one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission rejected the request: the optimizer's estimate exceeded
    /// the tenant's remaining (uncommitted) budget. Nothing was charged.
    Rejected {
        /// The optimizer's estimated plan cost.
        est_cost: f64,
        /// Budget remaining (net of queued reservations) at admission.
        remaining: f64,
    },
    /// The per-query budget guard aborted mid-flight: actual charges
    /// overran the admitted remainder. The partial charge stays booked
    /// and is reconciled into the tenant's invoice.
    BudgetExhausted {
        /// Simulated seconds actually charged before the abort.
        spent: f64,
        /// Simulated seconds the tenant had remaining at dispatch.
        remaining: f64,
    },
    /// The bounded admission queue overflowed and this request was the
    /// lowest-priority queued work.
    Shed {
        /// Requests still queued after the shed.
        queued: u64,
    },
    /// Planning or execution failed for engine reasons (unknown
    /// relation, no plan, text-server refusal...).
    Exec(MethodError),
}

/// A successful execution inside the session.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result rows (the same multiset every join method computes).
    pub table: Table,
    /// Total simulated cost charged to the query.
    pub total_cost: f64,
    /// Critical-path completion time under the transport scheduler.
    pub makespan: f64,
    /// Degradation-lattice downgrades taken under pressure.
    pub degradations: u64,
}

/// The complete, typed story of one request through the session.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// 0-based arrival index in the session stream.
    pub arrival: u64,
    /// Tenant index the request belonged to.
    pub tenant: usize,
    /// The optimizer's estimate at admission (`0.0` if planning failed
    /// before an estimate existed).
    pub est_cost: f64,
    /// How the request ended.
    pub outcome: Result<QueryOutcome, ServeError>,
    /// `Usage` delta booked to the tenant for this request (zero for
    /// rejected/shed requests; partial for budget aborts).
    pub invoice: Usage,
}

/// Per-tenant session accounting.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The spec the session was configured with.
    pub name: String,
    /// Configured budget, simulated seconds.
    pub budget: f64,
    /// Shedding priority.
    pub priority: u32,
    /// Sum of the tenant's per-request `Usage` deltas — the invoice.
    pub invoice: Usage,
    /// Simulated seconds drawn from the budget (text + relational).
    pub spent: f64,
    /// Requests admitted (passed the budget check and were queued).
    pub admitted: u64,
    /// Requests that completed successfully.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests shed from the queue under overload.
    pub shed: u64,
    /// Requests aborted mid-flight by the budget guard.
    pub budget_aborted: u64,
    /// Requests that failed for engine reasons.
    pub exec_errors: u64,
    /// Total cost of each completed request, dispatch order.
    pub costs: Vec<f64>,
    /// Plan-level cost Q-error of each completed request, dispatch order.
    /// Empty unless [`ServeConfig::analyze`] was on.
    pub cost_qs: Vec<f64>,
    /// Session probe-cache counters `(hits, misses, evicted)`.
    pub probe_cache: (u64, u64, u64),
    /// Plan-cache hits.
    pub plan_hits: u64,
}

/// What [`ServeSession::run`] returns.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One record per stream request, arrival order. No silent drops:
    /// `records.len()` equals the stream length.
    pub records: Vec<QueryRecord>,
    /// Per-tenant accounting, tenant-index order.
    pub tenants: Vec<TenantReport>,
    /// Aggregate server `Usage` over the session (delta from session
    /// start). Decomposes exactly into Σ tenant invoices + `migration`.
    pub aggregate: Usage,
    /// The migration bucket's delta over the session.
    pub migration: Usage,
    /// The full session trace (serve events included).
    pub trace: Vec<Event>,
    /// Rendered monitor health table, when a monitor was attached.
    pub monitor_table: Option<String>,
    /// Documents moved by auto-executed rebalance advice.
    pub migrated_docs: u64,
    /// Calibration refits adopted into the live params.
    pub refits: u64,
    /// Dispatches that gathered statistics anew because the server's
    /// export was no longer the one their admission read. Every other
    /// dispatch kept its admission's statistics and only re-folded params.
    pub regathered: u64,
}

/// The shared text backend. `Elastic` grants the session mutable access
/// so it can drive the online migration engine; queries themselves only
/// ever use the immutable [`TextService`] surface.
pub enum Backend<'a> {
    /// A single unsharded server.
    Single(&'a TextServer),
    /// A sharded/replicated server the session may rebalance online.
    Elastic(&'a mut ShardedTextServer),
}

impl Backend<'_> {
    fn service(&self) -> &dyn TextService {
        match self {
            Backend::Single(s) => *s,
            Backend::Elastic(s) => &**s,
        }
    }
}

/// An admitted request waiting in its tenant's queue, carrying the plan
/// and the cache key it was admitted under (a topology change between
/// admission and dispatch invalidates the key and forces a replan, so
/// planner pricing and executor routing stay in lockstep) and the planner
/// input admission prepared, which dispatch refreshes instead of
/// preparing from nothing.
struct QueuedReq {
    arrival: u64,
    input: PlannerInput,
    est: f64,
    key: String,
    planned: PlannedQuery,
}

struct TenantState {
    spec: TenantSpec,
    invoice: Usage,
    /// Simulated seconds drawn from the budget so far.
    spent: f64,
    /// Σ estimates of queued (admitted, undispatched) requests.
    committed: f64,
    retry: RetryBudget,
    probe_cache: RefCell<ProbeCache>,
    plans: BTreeMap<String, PlannedQuery>,
    plan_hits: u64,
    queue: VecDeque<QueuedReq>,
    deficit: f64,
    admitted: u64,
    completed: u64,
    rejected: u64,
    shed: u64,
    budget_aborted: u64,
    exec_errors: u64,
    costs: Vec<f64>,
    cost_qs: Vec<f64>,
}

impl TenantState {
    fn new(spec: TenantSpec) -> Self {
        Self {
            spec,
            invoice: Usage::default(),
            spent: 0.0,
            committed: 0.0,
            retry: RetryBudget::new(RetryPolicy::standard()),
            probe_cache: RefCell::new(ProbeCache::new()),
            plans: BTreeMap::new(),
            plan_hits: 0,
            queue: VecDeque::new(),
            deficit: 0.0,
            admitted: 0,
            completed: 0,
            rejected: 0,
            shed: 0,
            budget_aborted: 0,
            exec_errors: 0,
            costs: Vec::new(),
            cost_qs: Vec::new(),
        }
    }

    fn remaining(&self) -> f64 {
        self.spec.budget - self.spent - self.committed
    }
}

/// The deterministic serving session. Construct with [`new`], feed a
/// stream with [`run`].
///
/// [`new`]: Self::new
/// [`run`]: Self::run
pub struct ServeSession<'a> {
    backend: Backend<'a>,
    catalog: &'a Catalog,
    cfg: ServeConfig,
    tenants: Vec<TenantState>,
    recorder: Rc<Recorder>,
    ring: Rc<RingSink>,
    monitor: Option<Rc<Monitor>>,
    calibration: Option<TraceCalibration>,
    dispatches_since_refit: usize,
    refits: u64,
    advice_consumed: usize,
    migrated_docs: u64,
    regathered: u64,
    records: Vec<QueryRecord>,
    start_usage: Usage,
    start_migration: Usage,
}

impl<'a> ServeSession<'a> {
    /// Opens a session: installs the session recorder (a ring trace,
    /// teed into the monitor when one is configured) on the backend,
    /// switches stats-aware routing to the configured serve default, and
    /// snapshots the ledgers the report's deltas are measured from.
    pub fn new(
        backend: Backend<'a>,
        catalog: &'a Catalog,
        tenants: Vec<TenantSpec>,
        cfg: ServeConfig,
    ) -> Self {
        assert!(cfg.quantum > 0.0, "the DRR quantum must be positive");
        assert!(!tenants.is_empty(), "a session needs at least one tenant");
        let ring = Rc::new(RingSink::unbounded());
        let monitor = cfg.monitor.clone().map(|mc| Rc::new(Monitor::new(mc)));
        let mut sinks: Vec<Rc<dyn Sink>> = vec![ring.clone()];
        if let Some(m) = &monitor {
            sinks.push(m.clone());
        }
        let recorder = Recorder::new(Rc::new(FanoutSink::new(sinks)));
        match &backend {
            Backend::Single(s) => s.set_recorder(Some(recorder.clone())),
            Backend::Elastic(s) => {
                s.set_recorder(Some(recorder.clone()));
                s.set_stats_routing(cfg.stats_routing);
            }
        }
        let start_usage = backend.service().usage();
        let start_migration = match &backend {
            Backend::Elastic(s) => s.migration_usage(),
            Backend::Single(_) => Usage::default(),
        };
        Self {
            backend,
            catalog,
            cfg,
            tenants: tenants.into_iter().map(TenantState::new).collect(),
            recorder,
            ring,
            monitor,
            calibration: None,
            dispatches_since_refit: 0,
            refits: 0,
            advice_consumed: 0,
            migrated_docs: 0,
            regathered: 0,
            records: Vec::new(),
            start_usage,
            start_migration,
        }
    }

    /// Runs the whole stream: each `(tenant, query)` arrival is admitted
    /// (or refused, typed), then one DRR round dispatches what the
    /// deficits afford; after the last arrival the backlog drains with
    /// further rounds. Returns the full per-request, per-tenant, and
    /// ledger story.
    pub fn run(mut self, stream: &[(usize, MultiJoinQuery)]) -> ServeReport {
        for (arrival, (tenant, query)) in stream.iter().enumerate() {
            assert!(*tenant < self.tenants.len(), "unknown tenant index");
            self.admit(arrival as u64, *tenant, query);
            self.round();
            self.maintain();
        }
        while self.total_queued() > 0 {
            self.round();
            self.maintain();
        }
        self.finish()
    }

    fn total_queued(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Admission: estimate with the real optimizer (charge-free), check
    /// the tenant's uncommitted budget remainder, then queue — shedding
    /// on overflow. Every path records a typed outcome or queues.
    fn admit(&mut self, arrival: u64, ti: usize, query: &MultiJoinQuery) {
        let service = self.backend.service();
        let fold = self.tenants[ti].invoice;
        let input = match prepare_input(
            query,
            self.catalog,
            service,
            self.cfg.params,
            self.calibration.as_ref(),
            Some(&fold),
        ) {
            Ok(i) => i,
            Err(e) => {
                self.tenants[ti].exec_errors += 1;
                self.records.push(QueryRecord {
                    arrival,
                    tenant: ti,
                    est_cost: 0.0,
                    outcome: Err(ServeError::Exec(e)),
                    invoice: Usage::default(),
                });
                return;
            }
        };
        let key = plan_key(query, service.topology_epoch(), &input.params);
        let planned = match self.lookup_plan(ti, &key, &input) {
            Ok(p) => p,
            Err(e) => {
                self.tenants[ti].exec_errors += 1;
                self.records.push(QueryRecord {
                    arrival,
                    tenant: ti,
                    est_cost: 0.0,
                    outcome: Err(ServeError::Exec(e)),
                    invoice: Usage::default(),
                });
                return;
            }
        };
        let est = planned.est_cost;
        let remaining = self.tenants[ti].remaining();
        if est > remaining {
            self.recorder.emit(EventKind::BudgetExhausted {
                tenant: ti as u64,
                arrival,
                spent_ms: to_ms(est),
                remaining_ms: to_ms(remaining.max(0.0)),
            });
            self.tenants[ti].rejected += 1;
            self.records.push(QueryRecord {
                arrival,
                tenant: ti,
                est_cost: est,
                outcome: Err(ServeError::Rejected {
                    est_cost: est,
                    remaining,
                }),
                invoice: Usage::default(),
            });
            return;
        }
        self.recorder.emit(EventKind::Admit {
            tenant: ti as u64,
            arrival,
            est_cost: est,
        });
        self.tenants[ti].admitted += 1;
        self.tenants[ti].committed += est;
        self.tenants[ti].queue.push_back(QueuedReq {
            arrival,
            input,
            est,
            key,
            planned,
        });
        while self.total_queued() > self.cfg.queue_cap {
            self.shed_one();
        }
    }

    /// Sheds the lowest-priority queued request (ties broken toward the
    /// newest arrival) — a typed refusal, never a silent drop.
    fn shed_one(&mut self) {
        let victim = self
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| {
                t.queue
                    .iter()
                    .map(move |q| (t.spec.priority, q.arrival, ti))
            })
            .min_by(|a, b| {
                // Lowest priority first; among those, newest arrival.
                a.0.cmp(&b.0).then(b.1.cmp(&a.1))
            })
            .expect("shed_one is only called with a non-empty backlog");
        let (_, arrival, ti) = victim;
        let pos = self.tenants[ti]
            .queue
            .iter()
            .position(|q| q.arrival == arrival)
            .expect("victim is queued");
        let req = self.tenants[ti].queue.remove(pos).expect("victim position");
        self.tenants[ti].committed -= req.est;
        self.tenants[ti].shed += 1;
        let queued = self.total_queued() as u64;
        self.recorder.emit(EventKind::Shed {
            tenant: ti as u64,
            arrival: req.arrival,
            queued,
        });
        self.records.push(QueryRecord {
            arrival: req.arrival,
            tenant: ti,
            est_cost: req.est,
            outcome: Err(ServeError::Shed { queued }),
            invoice: Usage::default(),
        });
    }

    /// One deficit-round-robin round: every backlogged tenant's deficit
    /// grows by a quantum and head requests dispatch while their
    /// estimates fit. An emptied queue resets its deficit (no hoarding).
    fn round(&mut self) {
        let pressure = self.cfg.degrade_depth > 0 && self.total_queued() >= self.cfg.degrade_depth;
        for ti in 0..self.tenants.len() {
            if self.tenants[ti].queue.is_empty() {
                continue;
            }
            self.tenants[ti].deficit += self.cfg.quantum;
            while let Some(head_est) = self.tenants[ti].queue.front().map(|q| q.est) {
                if head_est > self.tenants[ti].deficit {
                    break;
                }
                let req = self.tenants[ti].queue.pop_front().expect("head exists");
                self.tenants[ti].deficit -= req.est;
                self.tenants[ti].committed -= req.est;
                self.dispatch(ti, req, pressure);
            }
            if self.tenants[ti].queue.is_empty() {
                self.tenants[ti].deficit = 0.0;
            }
        }
    }

    /// Executes one dequeued request with the tenant's isolation kit:
    /// its retry budget, its session caches, its budget ceiling, and a
    /// plan re-validated against the current topology epoch. The invoice
    /// delta is measured around the execution regardless of outcome.
    fn dispatch(&mut self, ti: usize, req: QueuedReq, pressure: bool) {
        self.dispatches_since_refit += 1;
        let service = self.backend.service();
        let fold = self.tenants[ti].invoice;
        let calibration = self.calibration.as_ref();
        // Admission gathered this request's statistics. While the server
        // exports the handle they were read from they are what gathering
        // would produce again, and only the params (the tenant's ledger,
        // the calibration, the routed fan-out) can have moved.
        let (query, params) = (&req.input.query, self.cfg.params);
        let input = if req.input.gathered_from(&service.export_stats()) {
            let params = fold_params(query, service, params, calibration, Some(&fold));
            Ok(req.input.with_params(params))
        } else {
            self.regathered += 1;
            prepare_input(query, self.catalog, service, params, calibration, Some(&fold))
        };
        let input = match input {
            Ok(i) => i,
            Err(e) => {
                self.tenants[ti].exec_errors += 1;
                self.records.push(QueryRecord {
                    arrival: req.arrival,
                    tenant: ti,
                    est_cost: req.est,
                    outcome: Err(ServeError::Exec(e)),
                    invoice: Usage::default(),
                });
                return;
            }
        };
        let key = plan_key(&input.query, service.topology_epoch(), &input.params);
        let planned = if key == req.key {
            req.planned
        } else {
            // `service` re-borrows inside `lookup_plan`; end this one.
            // Topology or pricing moved while the request queued: the
            // admitted plan may no longer match what the executor will
            // route, so replan (through the cache) at today's epoch.
            match self.lookup_plan(ti, &key, &input) {
                Ok(p) => p,
                Err(e) => {
                    self.tenants[ti].exec_errors += 1;
                    self.records.push(QueryRecord {
                        arrival: req.arrival,
                        tenant: ti,
                        est_cost: req.est,
                        outcome: Err(ServeError::Exec(e)),
                        invoice: Usage::default(),
                    });
                    return;
                }
            }
        };
        let remaining = (self.tenants[ti].spec.budget - self.tenants[ti].spent).max(0.0);
        let service = self.backend.service();
        let before = service.usage();
        let hooks = ExecHooks {
            retry_budget: Some(&self.tenants[ti].retry),
            probe_cache: Some(&self.tenants[ti].probe_cache),
            ceiling: Some(CostCeiling {
                baseline: before.total_cost(),
                limit: remaining,
            }),
            force_pressure: pressure,
            analyze: self.cfg.analyze,
        };
        let res = execute_prepared(&input, &planned, self.catalog, service, &hooks);
        let delta = service.usage().since(&before);
        self.tenants[ti].invoice.accumulate(&delta);
        let (outcome, spent_now) = match res {
            Ok(out) => {
                self.tenants[ti].completed += 1;
                self.tenants[ti].costs.push(out.total_cost);
                if let Some(pq) = &out.plan_quality {
                    self.tenants[ti].cost_qs.push(pq.cost_q);
                }
                let spent = out.total_cost;
                (
                    Ok(QueryOutcome {
                        table: out.table,
                        total_cost: out.total_cost,
                        makespan: out.makespan,
                        degradations: out.degradations,
                    }),
                    spent,
                )
            }
            Err(MethodError::Text(TextError::BudgetExceeded { spent_ms, limit_ms })) => {
                self.tenants[ti].budget_aborted += 1;
                self.recorder.emit(EventKind::BudgetExhausted {
                    tenant: ti as u64,
                    arrival: req.arrival,
                    spent_ms,
                    remaining_ms: limit_ms,
                });
                (
                    Err(ServeError::BudgetExhausted {
                        spent: delta.total_cost(),
                        remaining,
                    }),
                    delta.total_cost(),
                )
            }
            Err(e) => {
                self.tenants[ti].exec_errors += 1;
                (Err(ServeError::Exec(e)), delta.total_cost())
            }
        };
        self.tenants[ti].spent += spent_now;
        self.records.push(QueryRecord {
            arrival: req.arrival,
            tenant: ti,
            est_cost: req.est,
            outcome,
            invoice: delta,
        });
    }

    /// Plan-cache lookup for a tenant: a hit reuses the cached plan and
    /// emits a charge-free `CacheHit`; a miss runs the optimizer and
    /// remembers the result under the full (spec, epoch, params) key.
    fn lookup_plan(
        &mut self,
        ti: usize,
        key: &str,
        input: &PlannerInput,
    ) -> Result<PlannedQuery, MethodError> {
        if let Some(p) = self.tenants[ti].plans.get(key).cloned() {
            self.tenants[ti].plan_hits += 1;
            self.recorder.emit(EventKind::CacheHit {
                scope: "plan",
                epoch: self.backend.service().topology_epoch(),
            });
            return Ok(p);
        }
        let planned = plan_prepared(input, self.backend.service(), self.cfg.space)?;
        self.tenants[ti]
            .plans
            .insert(key.to_owned(), planned.clone());
        Ok(planned)
    }

    /// Between-round maintenance: adopt a drift refit into the live
    /// params, and auto-execute pending monitor advice through the
    /// online migration engine while the migration budget lasts.
    fn maintain(&mut self) {
        if self.cfg.adopt_drift_every > 0 && self.dispatches_since_refit >= self.cfg.adopt_drift_every
        {
            self.dispatches_since_refit = 0;
            self.calibration = Some(calibrate_trace(&self.ring.events()));
            self.refits += 1;
        }
        self.rebalance();
    }

    /// Auto-executes pending monitor advice through the online migration
    /// engine while the migration budget lasts. Runs strictly between
    /// dispatches (and once at session close, where the monitor flushes
    /// its final window), so every transfer lands in the migration
    /// bucket and never inside a tenant's invoice delta.
    fn rebalance(&mut self) {
        if self.cfg.migration_budget <= 0.0 {
            return;
        }
        let Some(mon) = &self.monitor else {
            return;
        };
        let advice = mon.advice();
        let Backend::Elastic(sh) = &mut self.backend else {
            self.advice_consumed = advice.len();
            return;
        };
        while self.advice_consumed < advice.len() {
            let a = &advice[self.advice_consumed];
            self.advice_consumed += 1;
            let spent = sh.migration_usage().since(&self.start_migration).total_cost();
            if spent >= self.cfg.migration_budget {
                continue;
            }
            let plan = MigrationPlan::from_advice(a, self.cfg.rebalance_batch_docs);
            let journal = sh.begin_migration(plan);
            self.migrated_docs += journal.entries.iter().map(|e| e.docs).sum::<u64>();
            // Transiently refused batches resume from the journal; the
            // step cap bounds a migration a permanently dead replica
            // would otherwise spin on.
            let mut steps = 0u32;
            while sh.journal().is_some_and(|j| !j.finished()) && steps < 10_000 {
                let _ = sh.migrate_batch();
                steps += 1;
            }
        }
    }

    /// Closes the session: finishes the monitor, detaches nothing (the
    /// recorder stays for the caller to inspect), and assembles the
    /// report.
    fn finish(mut self) -> ServeReport {
        if let Some(m) = &self.monitor {
            m.finish();
        }
        // The finish above flushed the monitor's last partial window,
        // which may have derived fresh advice; act on it so a session
        // never exits leaving funded advice unexecuted.
        self.rebalance();
        let aggregate = self.backend.service().usage().since(&self.start_usage);
        let migration = match &self.backend {
            Backend::Elastic(s) => s.migration_usage().since(&self.start_migration),
            Backend::Single(_) => Usage::default(),
        };
        self.records.sort_by_key(|r| r.arrival);
        let tenants = self
            .tenants
            .iter()
            .map(|t| TenantReport {
                name: t.spec.name.clone(),
                budget: t.spec.budget,
                priority: t.spec.priority,
                invoice: t.invoice,
                spent: t.spent,
                admitted: t.admitted,
                completed: t.completed,
                rejected: t.rejected,
                shed: t.shed,
                budget_aborted: t.budget_aborted,
                exec_errors: t.exec_errors,
                costs: t.costs.clone(),
                cost_qs: t.cost_qs.clone(),
                probe_cache: t.probe_cache.borrow().full_stats(),
                plan_hits: t.plan_hits,
            })
            .collect();
        ServeReport {
            records: self.records,
            tenants,
            aggregate,
            migration,
            trace: self.ring.events(),
            monitor_table: self.monitor.as_ref().map(|m| m.render_table()),
            migrated_docs: self.migrated_docs,
            refits: self.refits,
            regathered: self.regathered,
        }
    }
}

/// The plan-cache key: canonical spec shape, the topology epoch the
/// statistics were gathered at, and the *folded* cost params (so a
/// tenant whose observed fault rate moved re-prices instead of reusing a
/// stale plan). Debug renderings are deterministic and total.
fn plan_key(query: &MultiJoinQuery, epoch: u64, params: &CostParams) -> String {
    format!("{query:?}|epoch={epoch}|{params:?}")
}

/// Milliseconds of simulated time, for the integer-valued events.
fn to_ms(seconds: f64) -> u64 {
    (seconds * 1000.0).round() as u64
}

/// Deterministic inclusive percentile over completed-query costs
/// (nearest-rank). Empty input yields `0.0`.
pub fn percentile(costs: &[f64], q: f64) -> f64 {
    if costs.is_empty() {
        return 0.0;
    }
    let mut sorted = costs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("costs are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
