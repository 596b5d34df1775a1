//! The multi-tenant serving session (DESIGN.md §11).
//!
//! A session admits a deterministic stream of `(tenant, query)` requests
//! against one shared engine and keeps tenants that collectively demand
//! more than the server's caps, budgets and fault-degraded capacity can
//! deliver from starving each other. Every mechanism is deterministic and
//! typed:
//!
//! 1. **Admission & budgets.** Admission prices the plan with the real
//!    (charge-free) optimizer and rejects an estimate above the tenant's
//!    budget net of queued reservations ([`ServeError::Rejected`]). A
//!    per-query [`CostCeiling`] aborts mid-flight overruns
//!    ([`ServeError::BudgetExhausted`]); the partial charge stays booked.
//! 2. **Fair dispatch, degradation, shedding.** Per-tenant FIFO queues
//!    drain by deficit round-robin. At the degradation watermark
//!    dispatches run under forced pressure (cost only, never rows); past
//!    the queue cap the lowest-priority queued request is shed
//!    ([`ServeError::Shed`]).
//! 3. **Tenant isolation.** Each tenant owns its `RetryBudget`, its
//!    fault-model fold (priced from its *own* ledger) and its invoice, a
//!    `Usage::since` delta around each execution. The aggregate ledger
//!    is exactly Σ invoices + the migration bucket.
//! 4. **Cross-query sharing.** Per-tenant [`ProbeCache`] and plan cache
//!    (keyed on spec shape, topology epoch, folded params): charge-free,
//!    result-preserving, visible as charge-free `CacheHit` events. Below
//!    both, one statistics gather per query shape and export handle.
//!
//! The session is a step function ([`ServeSession::step`]) over one
//! outcome log: every request ends in exactly one [`QueryRecord`], and a
//! tenant's outcome counts are a fold over that log. Between rounds it
//! can auto-execute the monitor's rebalance advice under a migration
//! budget and adopt the drift watchdog's `calibrate_trace` refit.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use textjoin_obs::{
    calibrate_trace, ns, secs, Event, EventKind, FanoutSink, Monitor, MonitorConfig, Recorder,
    RingSink, Sink, TraceCalibration,
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
use crate::retry::RetryBudget;

/// Plan space every request is planned in.
const SPACE: ExecutionSpace = ExecutionSpace::Prl;
/// Stats-aware routing on an elastic backend (opt-in everywhere else).
const STATS_ROUTING: bool = true;
/// Batch size (documents) for auto-executed migrations.
const REBALANCE_BATCH_DOCS: usize = 24;

/// A tenant of the serving session.
#[derive(Debug, Clone, Default)]
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
    /// Simulated-seconds budget for auto-executed rebalance advice;
    /// `0.0` disables auto-rebalancing. Requires an elastic backend and
    /// an attached monitor to have any effect.
    pub migration_budget: f64,
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
    /// A session over `params` with serving defaults: queue capacity 8,
    /// quantum 50 simulated seconds, degradation at backlog 6,
    /// auto-rebalance and drift adoption off, no monitor. Every session
    /// plans in the PrL space and routes on statistics.
    pub fn new(params: CostParams) -> Self {
        Self {
            params,
            queue_cap: 8,
            quantum: 50.0,
            degrade_depth: 6,
            migration_budget: 0.0,
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
    /// The request named a tenant the session was not opened with.
    /// Nothing was charged and no tenant's report counts it.
    UnknownTenant {
        /// The tenant index the request named.
        tenant: usize,
    },
    /// Planning or execution failed for engine reasons (unknown
    /// relation, no plan, text-server refusal...).
    Exec(MethodError),
}

/// A successful execution inside the session.
#[derive(Clone)]
pub struct QueryOutcome {
    /// The result rows (the same multiset every join method computes).
    pub table: Table,
    /// Total simulated cost charged to the query.
    pub total_cost: f64,
    /// Critical-path completion time under the transport scheduler, in
    /// ticks.
    pub makespan: u64,
    /// Degradation-lattice downgrades taken under pressure.
    pub degradations: u64,
    /// Plan-level cost Q-error. `None` unless [`ServeConfig::analyze`]
    /// was on.
    pub cost_q: Option<f64>,
}

/// Prints `cost_q` only when analyze measured one, so a session without
/// analyze renders its records exactly as before the field existed.
impl fmt::Debug for QueryOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("QueryOutcome");
        d.field("table", &self.table)
            .field("total_cost", &self.total_cost);
        d.field("makespan", &secs(self.makespan as i64))
            .field("degradations", &self.degradations);
        if let Some(q) = &self.cost_q {
            d.field("cost_q", q);
        }
        d.finish()
    }
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
    /// every refusal; partial for budget aborts).
    pub invoice: Usage,
}

/// Per-tenant session accounting. The outcome counts, `costs` and
/// `cost_qs` are folded from the tenant's records; the rest is the
/// session's live state, which admission reads.
#[derive(Debug, Clone, Default)]
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

/// What [`ServeSession::finish`] returns.
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
    /// Dispatches whose admission read an export the server has since
    /// replaced. Every other dispatch kept its admission's statistics and
    /// only re-folded params.
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

/// One event fed to [`ServeSession::step`].
#[derive(Debug, Clone, Copy)]
pub enum Input<'q> {
    /// A request arrives: admit it (an unknown tenant is refused with
    /// [`ServeError::UnknownTenant`]), run one deficit-round-robin round,
    /// then between-round maintenance.
    Arrive {
        tenant: usize,
        query: &'q MultiJoinQuery,
    },
    /// Rounds and maintenance until the backlog is empty.
    Drain,
}

/// A request prepared to run: its planner input, the plan-cache key its
/// plan was found under, and the plan. Admission queues it; the plan's
/// estimate is the tenant's reservation while it waits.
struct Prepared {
    arrival: u64,
    input: PlannerInput,
    key: String,
    planned: PlannedQuery,
}

/// How a request ended.
type Outcome = Result<QueryOutcome, ServeError>;

#[derive(Default)]
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
    queue: VecDeque<Prepared>,
    deficit: f64,
    admitted: u64,
}

/// The deterministic serving session. Construct with [`new`], feed it
/// with [`step`] and close it with [`finish`], or do all three over a
/// whole stream with [`run`].
///
/// [`new`]: Self::new
/// [`step`]: Self::step
/// [`finish`]: Self::finish
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
    arrivals: u64,
    dispatches_since_refit: usize,
    refits: u64,
    advice_consumed: usize,
    migrated_docs: u64,
    regathered: u64,
    /// One statistics gather per query shape, each served only while the
    /// server still exports the handle it was gathered from.
    gathered: Vec<PlannerInput>,
    /// Every closed request, in the order it closed.
    log: Vec<QueryRecord>,
    start_usage: Usage,
    start_migration: Usage,
}

impl<'a> ServeSession<'a> {
    /// Opens a session: installs the session recorder (a ring trace,
    /// teed into the monitor when one is configured) on the backend,
    /// switches stats-aware routing on, and snapshots the ledgers the
    /// report's deltas are measured from.
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
                s.set_stats_routing(STATS_ROUTING);
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
            tenants: tenants
                .into_iter()
                .map(|spec| TenantState {
                    spec,
                    ..Default::default()
                })
                .collect(),
            recorder,
            ring,
            monitor,
            calibration: None,
            arrivals: 0,
            dispatches_since_refit: 0,
            refits: 0,
            advice_consumed: 0,
            migrated_docs: 0,
            regathered: 0,
            gathered: Vec::new(),
            log: Vec::new(),
            start_usage,
            start_migration,
        }
    }

    /// Runs the whole stream: one [`Input::Arrive`] step per request,
    /// then [`finish`](Self::finish), which drains the backlog. Returns
    /// the full per-request, per-tenant, and ledger story.
    pub fn run(mut self, stream: &[(usize, MultiJoinQuery)]) -> ServeReport {
        for &(tenant, ref query) in stream {
            self.step(Input::Arrive { tenant, query });
        }
        self.finish()
    }

    /// Advances the session by one input and returns the records it
    /// closed, in the order they closed. Arrivals are numbered in the
    /// order they are stepped.
    pub fn step(&mut self, input: Input<'_>) -> &[QueryRecord] {
        let closed = self.log.len();
        match input {
            Input::Arrive { tenant, query } => {
                self.admit(tenant, query);
                self.round();
                self.maintain();
            }
            Input::Drain => {
                while self.total_queued() > 0 {
                    self.round();
                    self.maintain();
                }
            }
        }
        &self.log[closed..]
    }

    fn total_queued(&self) -> usize {
        self.tenants.iter().map(|t| t.queue.len()).sum()
    }

    /// Closes one request: the only place a record is written.
    fn record(&mut self, arrival: u64, ti: usize, est: f64, outcome: Outcome, invoice: Usage) {
        self.log.push(QueryRecord {
            arrival,
            tenant: ti,
            est_cost: est,
            outcome,
            invoice,
        });
    }

    /// Admission: estimate with the real optimizer (charge-free), check
    /// the tenant's uncommitted budget remainder, then queue — shedding
    /// on overflow. Every path records a typed outcome or queues.
    fn admit(&mut self, ti: usize, query: &MultiJoinQuery) {
        let (arrival, refused) = (self.arrivals, Usage::default());
        self.arrivals += 1;
        if ti >= self.tenants.len() {
            let outcome = Err(ServeError::UnknownTenant { tenant: ti });
            return self.record(arrival, ti, 0.0, outcome, refused);
        }
        let req = match self.prepare(ti, arrival, query, None) {
            Ok(req) => req,
            Err(e) => return self.record(arrival, ti, 0.0, Err(ServeError::Exec(e)), refused),
        };
        let est = req.planned.est_cost;
        let t = &self.tenants[ti];
        let remaining = t.spec.budget - t.spent - t.committed;
        if est > remaining {
            self.recorder.emit(EventKind::BudgetExhausted {
                tenant: ti as u64,
                arrival,
                spent_ms: to_ms(est),
                remaining_ms: to_ms(remaining.max(0.0)),
            });
            let outcome = Err(ServeError::Rejected {
                est_cost: est,
                remaining,
            });
            return self.record(arrival, ti, est, outcome, refused);
        }
        self.recorder.emit(EventKind::Admit {
            tenant: ti as u64,
            arrival,
            est_cost: est,
        });
        let t = &mut self.tenants[ti];
        t.admitted += 1;
        t.committed += est;
        t.queue.push_back(req);
        while self.total_queued() > self.cfg.queue_cap {
            self.shed_one();
        }
    }

    /// The one prepare → key → plan path, for an arrival and (with the
    /// key and plan admission found) a queued request alike. The input
    /// comes from [`input`](Self::input); a queued request keeps its plan
    /// while the cache key matches, otherwise it replans through the cache
    /// at today's epoch, so planner pricing and executor routing stay in
    /// lockstep. The plan cache is keyed on (spec, epoch, folded params); a
    /// hit emits a charge-free `CacheHit`.
    fn prepare(
        &mut self,
        ti: usize,
        arrival: u64,
        query: &MultiJoinQuery,
        admitted: Option<(String, PlannedQuery)>,
    ) -> Result<Prepared, MethodError> {
        let input = self.input(ti, query)?;
        let service = self.backend.service();
        let epoch = service.topology_epoch();
        let key = plan_key(&input.query, epoch, &input.params);
        let t = &mut self.tenants[ti];
        let planned = match admitted {
            Some((admitted_key, planned)) if admitted_key == key => planned,
            _ => match t.plans.get(&key) {
                Some(p) => {
                    t.plan_hits += 1;
                    self.recorder.emit(EventKind::CacheHit {
                        scope: "plan",
                        epoch,
                    });
                    p.clone()
                }
                None => {
                    let planned = plan_prepared(&input, service, SPACE)?;
                    t.plans.insert(key.clone(), planned.clone());
                    planned
                }
            },
        };
        Ok(Prepared {
            arrival,
            input,
            key,
            planned,
        })
    }

    /// `query`'s planner input under tenant `ti`'s fold: the session's
    /// gather for this query shape, restamped with today's params, while
    /// the server still exports the handle it was gathered from; otherwise
    /// a fresh gather, which replaces it. The catalog is borrowed for the
    /// whole session, so the query and the export handle are the whole key.
    fn input(&mut self, ti: usize, query: &MultiJoinQuery) -> Result<PlannerInput, MethodError> {
        let service = self.backend.service();
        let (params, cal) = (self.cfg.params, self.calibration.as_ref());
        let fold = Some(&self.tenants[ti].invoice);
        let export = service.export_stats();
        let shape = self.gathered.iter().position(|i| i.query == *query);
        if let Some(at) = shape.filter(|&at| self.gathered[at].gathered_from(&export)) {
            let params = fold_params(query, service, params, cal, fold);
            return Ok(self.gathered[at].clone().with_params(params));
        }
        let input = prepare_input(query, self.catalog, service, params, cal, fold)?;
        match shape {
            Some(at) => self.gathered[at] = input.clone(),
            None => self.gathered.push(input.clone()),
        }
        Ok(input)
    }

    /// Sheds the lowest-priority queued request (ties broken toward the
    /// newest arrival) — a typed refusal, never a silent drop. An empty
    /// backlog sheds nothing.
    fn shed_one(&mut self) {
        let victim = self
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(ti, t)| {
                let p = t.spec.priority;
                t.queue
                    .iter()
                    .enumerate()
                    .map(move |(pos, q)| (p, Reverse(q.arrival), ti, pos))
            })
            .min();
        let Some((.., ti, pos)) = victim else {
            return;
        };
        let Some(req) = self.tenants[ti].queue.remove(pos) else {
            return;
        };
        let est = req.planned.est_cost;
        self.tenants[ti].committed -= est;
        let queued = self.total_queued() as u64;
        self.recorder.emit(EventKind::Shed {
            tenant: ti as u64,
            arrival: req.arrival,
            queued,
        });
        let outcome = Err(ServeError::Shed { queued });
        self.record(req.arrival, ti, est, outcome, Usage::default());
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
            while let Some(req) = self.tenants[ti].queue.pop_front() {
                let est = req.planned.est_cost;
                if est > self.tenants[ti].deficit {
                    // The head waits for the next round's quantum.
                    self.tenants[ti].queue.push_front(req);
                    break;
                }
                self.tenants[ti].deficit -= est;
                self.tenants[ti].committed -= est;
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
    fn dispatch(&mut self, ti: usize, req: Prepared, pressure: bool) {
        self.dispatches_since_refit += 1;
        let (arrival, est) = (req.arrival, req.planned.est_cost);
        let export = self.backend.service().export_stats();
        self.regathered += u64::from(!req.input.gathered_from(&export));
        let (query, admitted) = (&req.input.query, Some((req.key, req.planned)));
        let Prepared { input, planned, .. } = match self.prepare(ti, arrival, query, admitted) {
            Ok(req) => req,
            Err(e) => {
                let outcome = Err(ServeError::Exec(e));
                return self.record(arrival, ti, est, outcome, Usage::default());
            }
        };
        let remaining = (self.tenants[ti].spec.budget - self.tenants[ti].spent).max(0.0);
        let service = self.backend.service();
        let before = service.usage();
        let hooks = ExecHooks {
            retry_budget: Some(&self.tenants[ti].retry),
            probe_cache: Some(&self.tenants[ti].probe_cache),
            ceiling: Some(CostCeiling {
                baseline: before.ticks(),
                limit: ns(remaining) as u64,
            }),
            force_pressure: pressure,
            analyze: self.cfg.analyze,
        };
        let res = execute_prepared(&input, &planned, self.catalog, service, &hooks);
        let invoice = service.usage().since(&before);
        self.tenants[ti].invoice.accumulate(&invoice);
        let outcome = match res {
            Ok(out) => Ok(QueryOutcome {
                cost_q: out.plan_quality.map(|pq| pq.cost_q),
                table: out.table,
                total_cost: out.total_cost,
                makespan: out.makespan,
                degradations: out.degradations,
            }),
            Err(MethodError::Text(TextError::BudgetExceeded { spent_ms, limit_ms })) => {
                self.recorder.emit(EventKind::BudgetExhausted {
                    tenant: ti as u64,
                    arrival,
                    spent_ms,
                    remaining_ms: limit_ms,
                });
                Err(ServeError::BudgetExhausted {
                    spent: invoice.total_cost(),
                    remaining,
                })
            }
            Err(e) => Err(ServeError::Exec(e)),
        };
        self.tenants[ti].spent += match &outcome {
            Ok(out) => out.total_cost,
            Err(_) => invoice.total_cost(),
        };
        self.record(arrival, ti, est, outcome, invoice);
    }

    /// Between-round maintenance: adopt a drift refit into the live
    /// params, and auto-execute pending monitor advice through the
    /// online migration engine while the migration budget lasts.
    fn maintain(&mut self) {
        let every = self.cfg.adopt_drift_every;
        if every > 0 && self.dispatches_since_refit >= every {
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
            let spent = sh
                .migration_usage()
                .since(&self.start_migration)
                .total_cost();
            if spent >= self.cfg.migration_budget {
                continue;
            }
            let plan = MigrationPlan::from_advice(a, REBALANCE_BATCH_DOCS);
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

    /// Closes the session: drains the backlog (so no admitted request is
    /// left without a record), finishes the monitor, detaches nothing
    /// (the recorder stays for the caller to inspect), and assembles the
    /// report. The tenants' outcome counts, `costs` and `cost_qs` are
    /// folded from the log in the order it closed, so `costs` stays in
    /// dispatch order.
    pub fn finish(mut self) -> ServeReport {
        self.step(Input::Drain);
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
        let mut tenants: Vec<TenantReport> = self
            .tenants
            .iter()
            .map(|t| TenantReport {
                name: t.spec.name.clone(),
                budget: t.spec.budget,
                priority: t.spec.priority,
                invoice: t.invoice,
                spent: t.spent,
                admitted: t.admitted,
                probe_cache: t.probe_cache.borrow().full_stats(),
                plan_hits: t.plan_hits,
                ..TenantReport::default()
            })
            .collect();
        for r in &self.log {
            // An unknown tenant's refusal belongs to no tenant.
            if let Some(t) = tenants.get_mut(r.tenant) {
                match &r.outcome {
                    Ok(out) => {
                        t.completed += 1;
                        t.costs.push(out.total_cost);
                        t.cost_qs.extend(out.cost_q);
                    }
                    Err(ServeError::Rejected { .. }) => t.rejected += 1,
                    Err(ServeError::Shed { .. }) => t.shed += 1,
                    Err(ServeError::BudgetExhausted { .. }) => t.budget_aborted += 1,
                    Err(ServeError::Exec(_)) => t.exec_errors += 1,
                    Err(ServeError::UnknownTenant { .. }) => {}
                }
            }
        }
        self.log.sort_by_key(|r| r.arrival);
        ServeReport {
            records: self.log,
            tenants,
            aggregate,
            migration,
            // Nothing reads the ring after the session: drained, not cloned.
            trace: self.ring.take(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::Projection;
    use crate::optimizer::plan::{ForeignSpec, RelJoinPred, RelSpec};
    use textjoin_rel::expr::{CmpOp, Pred};
    use textjoin_rel::schema::RelSchema;
    use textjoin_rel::tuple;
    use textjoin_rel::value::ValueType;
    use textjoin_text::doc::{DocId, Document, TextSchema};
    use textjoin_text::index::Collection;
    use textjoin_text::rebalance::Move;

    fn fixture() -> (Catalog, Collection) {
        let mut catalog = Catalog::new();
        let schema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        for (rel, rows) in [
            (
                "student",
                [("Gravano", "CS"), ("Kao", "EE"), ("Pham", "CS")],
            ),
            (
                "faculty",
                [("Garcia", "EE"), ("Dayal", "CS"), ("Ullman", "CS")],
            ),
        ] {
            let mut t = Table::new(rel, schema.clone());
            for (name, dept) in rows {
                t.push(tuple![name, dept]);
            }
            catalog.register(t);
        }
        let schema = TextSchema::bibliographic();
        let au = schema.field_by_name("author").unwrap();
        let yr = schema.field_by_name("year").unwrap();
        let mut coll = Collection::new(schema);
        for (authors, year) in [
            (&["Gravano", "Garcia"][..], "1993"),
            (&["Kao", "Garcia"], "1993"),
            (&["Pham", "Dayal"], "1990"),
            (&["Gravano", "Dayal"], "1993"),
        ] {
            let doc = authors.iter().fold(Document::new(), |d, a| d.with(au, *a));
            coll.add_document(doc.with(yr, year));
        }
        (catalog, coll)
    }

    /// Student–faculty co-authors of 1993 whose departments compare by `op`.
    fn query(op: CmpOp) -> MultiJoinQuery {
        let rel = |name: &str| RelSpec {
            name: name.into(),
            local_pred: Pred::True,
        };
        let author = |rel| ForeignSpec {
            rel,
            column: "name".into(),
            field: "author".into(),
        };
        MultiJoinQuery {
            relations: vec![rel("student"), rel("faculty")],
            rel_joins: vec![RelJoinPred {
                left_rel: 0,
                left_col: "dept".into(),
                op,
                right_rel: 1,
                right_col: "dept".into(),
            }],
            selections: vec![("1993".into(), "year".into())],
            foreign: vec![author(0), author(1)],
            projection: Projection::Full,
        }
    }

    /// Everything gathered and the stamp, map order aside: two gathers
    /// build their distinct-count maps with different hash seeds.
    fn render(i: &PlannerInput) -> String {
        let base: Vec<_> = i
            .base
            .iter()
            .map(|b| (b.rows, b.distinct.iter().collect::<BTreeMap<_, _>>()))
            .collect();
        format!(
            "{:?}",
            (
                &i.query,
                &i.params,
                base,
                &i.foreign,
                i.sel_fanout,
                i.sel_postings,
                i.sel_terms
            )
        )
    }

    /// Two query shapes arrive in turn while migrations commit between
    /// same-shape arrivals. After each commit the shape's gather is stale
    /// and is replaced; every input the session hands out was gathered
    /// from the current export, never a retired one, and is what a fresh
    /// `prepare_input` computes at that point.
    #[test]
    fn a_gather_is_served_only_while_its_export_is_current() {
        let (catalog, coll) = fixture();
        let mut server = ShardedTextServer::new(&coll, 2, 7);
        let params = CostParams::mercury(server.doc_count() as f64);
        let tenants = vec![TenantSpec::new("t", 1e9, 1)];
        let cfg = ServeConfig::new(params);
        let mut session = ServeSession::new(Backend::Elastic(&mut server), &catalog, tenants, cfg);
        let shapes = [query(CmpOp::Ne), query(CmpOp::Eq)];
        let mut retired = Vec::new();
        for round in 0..5 {
            let migrate = round % 2 == 1;
            if migrate {
                let Backend::Elastic(sh) = &mut session.backend else {
                    unreachable!("the session was opened elastic")
                };
                retired.push(sh.export_stats());
                let src = sh.owner_of(DocId(round)).unwrap();
                let mv = Move {
                    range: (DocId(round), DocId(round + 1)),
                    src,
                    dst: 1 - src,
                };
                sh.begin_migration(MigrationPlan::new(vec![mv], 1));
                while sh.journal().is_some_and(|j| !j.finished()) {
                    sh.migrate_batch().unwrap();
                }
            }
            for q in &shapes {
                let service = session.backend.service();
                let export = service.export_stats();
                let replaced = retired.iter().all(|old| !old.ptr_eq(&export));
                assert!(replaced, "each commit replaced the export");
                let fold = session.tenants[0].invoice;
                let fresh = prepare_input(q, &catalog, service, params, None, Some(&fold)).unwrap();
                let memo = session.gathered.iter().find(|i| i.query == *q);
                let stale = memo.is_some_and(|i| !i.gathered_from(&export));
                assert_eq!(
                    stale, migrate,
                    "round {round}: only a commit retires a gather"
                );
                let input = session.input(0, q).unwrap();
                assert!(input.gathered_from(&export));
                assert!(retired.iter().all(|old| !input.gathered_from(old)));
                assert_eq!(render(&input), render(&fresh), "round {round}");
                let closed = session.step(Input::Arrive {
                    tenant: 0,
                    query: q,
                });
                assert!(closed.iter().all(|r| r.outcome.is_ok()), "{closed:?}");
            }
            assert_eq!(session.gathered.len(), shapes.len(), "one gather per shape");
        }
        let report = session.finish();
        assert_eq!(report.records.len(), 10);
        assert!(report.records.iter().all(|r| r.outcome.is_ok()));
    }
}
