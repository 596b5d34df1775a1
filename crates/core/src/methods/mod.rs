//! Foreign-join execution methods (paper, Section 3).
//!
//! A *foreign join* is a join between a stored relation and the external
//! text system, expressed as predicates `rel.col in text.field`. Because the
//! integration is loose, every method ultimately evaluates these predicates
//! by sending instantiated selections to the text server; the methods differ
//! in *how many* searches they send, *what* each search asks, and *where*
//! the residual matching happens:
//!
//! | Method | Module | Searches sent | Residual matching |
//! |--------|--------|---------------|-------------------|
//! | TS     | [`ts`]    | one per (distinct) outer tuple | none |
//! | RTP    | [`rtp`]   | one (text selections only)    | relational string matching |
//! | SJ     | [`sj`]    | ⌈N_K / per-search capacity⌉   | none (docids) or relational (+RTP) |
//! | P+TS   | [`probe`] | probes on a column subset, then TS on survivors | none |
//! | P+RTP  | [`probe`] | probes on a column subset     | relational string matching |

pub mod cache;
pub mod probe;
mod rel_match;
pub mod rtp;
pub mod sj;
pub mod ts;

use std::fmt;
use std::rc::Rc;

use textjoin_obs::{EventKind, Recorder, SpanGuard};
use textjoin_rel::schema::{ColId, RelSchema};
use textjoin_rel::table::Table;
use textjoin_rel::tuple::Tuple;
use textjoin_rel::value::{Value, ValueType};
use textjoin_text::batch::BatchResult;
use textjoin_text::doc::{DocId, Document, FieldId, TextSchema};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::{SearchResult, TextError, Usage};
use textjoin_text::service::TextService;
use textjoin_text::shard::{PartialShardError, ShardedTextServer};

use crate::retry::{RetryBudget, RetryPolicy, Route};
use crate::sched::Scheduler;

/// What the query projects — determines how much document data a method
/// must ship.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Projection {
    /// Only attributes of the relation: the query is a semi-join of the
    /// relation by the text source (each matching tuple emitted once).
    RelOnly,
    /// Only docids: a semi-join of the text source by the relation — the
    /// paper's Q2 (`select docid from student, mercury where ...`).
    DocIds,
    /// Full join rows: relation attributes ++ docid ++ all text fields
    /// (`select *`) — requires long-form document retrieval.
    Full,
}

/// A text selection condition: a constant term that must occur in a field,
/// e.g. `'belief update' in mercury.title`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextSelection {
    /// The constant search term (word or phrase).
    pub term: String,
    /// The field searched.
    pub field: FieldId,
}

/// A fully-specified foreign join between one relation and the text source.
///
/// `join_cols[i]` is joined against `join_fields[i]`: for a tuple `t`, the
/// instantiated predicate is "value of `join_cols[i]` in `t` occurs in
/// `join_fields[i]`". The relation is assumed already reduced by its local
/// selection conditions (the paper omits relation-scan cost for the same
/// reason).
#[derive(Debug, Clone)]
pub struct ForeignJoin<'a> {
    /// The (locally filtered) outer relation.
    pub rel: &'a Table,
    /// Join columns of the relation, parallel to `join_fields`.
    pub join_cols: Vec<ColId>,
    /// Text fields joined against, parallel to `join_cols`.
    pub join_fields: Vec<FieldId>,
    /// Constant text selection conditions.
    pub selections: Vec<TextSelection>,
    /// What to emit.
    pub projection: Projection,
}

/// Why a method could not run on a given query.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodError {
    /// The method's precondition fails (e.g. RTP without text selections).
    NotApplicable(String),
    /// The text server refused or failed a call.
    Text(TextError),
    /// A probe-based method was asked to probe on no columns or unknown
    /// column indices.
    BadProbeColumns(String),
}

impl fmt::Display for MethodError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MethodError::NotApplicable(m) => write!(f, "method not applicable: {m}"),
            MethodError::Text(e) => write!(f, "text server error: {e}"),
            MethodError::BadProbeColumns(m) => write!(f, "bad probe columns: {m}"),
        }
    }
}

impl std::error::Error for MethodError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MethodError::Text(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TextError> for MethodError {
    fn from(e: TextError) -> Self {
        MethodError::Text(e)
    }
}

/// Execution context shared by the methods: the metered text service, the
/// relational text-processing cost constant `c_a` (sec per document–tuple
/// comparison), and the retry policy applied to every server operation.
///
/// Methods reach the service through the retrying wrappers below
/// ([`search`](Self::search), [`probe`](Self::probe), …) instead of calling
/// `ctx.server.*` directly, so transient faults are absorbed uniformly and
/// their simulated backoff is charged into the same [`Usage`] ledger the
/// cost decomposition audits.
///
/// Against a [`ShardedTextServer`] the wrappers switch to *per-shard*
/// scatter/gather: each shard gets its own retry loop (so one flaky shard
/// does not burn the budget of its healthy peers), backoff is charged to
/// the shard that caused the wait, and a shard that exhausts its attempts
/// yields a typed [`PartialShardError`] carrying the per-shard results
/// gathered so far — methods then either re-route around the hole (probes
/// degrade to "unknown", P+RTP's per-key TS fallback recovers) or fail
/// cleanly, never with a wrong multiset. When a [`RetryBudget`] is
/// attached, each shard's attempt count adapts to its observed fault rate.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// The text service (a single server or a sharded one).
    pub server: &'a dyn TextService,
    /// Relational text-processing cost per document–tuple comparison.
    pub c_a: f64,
    /// Retry schedule for transient text-server faults.
    pub retry: RetryPolicy,
    /// Optional adaptive per-shard retry budget (sharded services only).
    pub budget: Option<&'a RetryBudget>,
    /// Optional virtual-time transport scheduler. When attached, every
    /// server leg's charged cost is also booked as a timed leg, scatter
    /// legs overlap under the configured concurrency, slow-but-successful
    /// primary legs are hedged against a replica (with the loser's charge
    /// rebated), and per-query deadlines are tracked. Results are never
    /// affected: the scheduler models *when* work completes, not *what*
    /// it computes.
    pub sched: Option<&'a Scheduler>,
    /// Optional session-scoped probe cache. `None` (the default) keeps
    /// the paper's per-execution caches; a serving session threads one
    /// shared cache through every execution so probe outcomes proved by
    /// one query prune the next (namespaced by the full probe identity,
    /// so only identical probes ever share an entry).
    pub probe_cache: Option<&'a std::cell::RefCell<cache::ProbeCache>>,
    /// Optional per-query cost ceiling. When attached, every charged
    /// wrapper refuses to issue the next operation once the server's
    /// ledger has grown past `baseline + limit`, returning the
    /// non-transient [`TextError::BudgetExceeded`] — the serving
    /// session's mid-flight budget guard. Charges already booked stay.
    pub ceiling: Option<CostCeiling>,
}

/// A per-query charge ceiling for [`ExecContext`]: operations are refused
/// once `server.usage().total_cost() - baseline` exceeds `limit`.
#[derive(Debug, Clone, Copy)]
pub struct CostCeiling {
    /// The server ledger's `total_cost()` when the query started.
    pub baseline: f64,
    /// Simulated seconds the query may charge beyond the baseline.
    pub limit: f64,
}

impl<'a> ExecContext<'a> {
    /// Context with the default `c_a` of 1e-5 sec/comparison and the
    /// standard retry policy.
    pub fn new(server: &'a dyn TextService) -> Self {
        Self {
            server,
            c_a: 1e-5,
            retry: RetryPolicy::standard(),
            budget: None,
            sched: None,
            probe_cache: None,
            ceiling: None,
        }
    }

    /// Context with an explicit retry policy.
    pub fn with_retry(server: &'a dyn TextService, retry: RetryPolicy) -> Self {
        Self {
            server,
            c_a: 1e-5,
            retry,
            budget: None,
            sched: None,
            probe_cache: None,
            ceiling: None,
        }
    }

    /// Context with an adaptive per-shard retry budget. The budget's base
    /// policy also serves as `retry` for unsharded operations.
    pub fn with_budget(server: &'a dyn TextService, budget: &'a RetryBudget) -> Self {
        Self {
            server,
            c_a: 1e-5,
            retry: RetryPolicy::standard(),
            budget: Some(budget),
            sched: None,
            probe_cache: None,
            ceiling: None,
        }
    }

    /// Attaches a virtual-time transport scheduler (builder-style).
    pub fn with_transport(mut self, sched: &'a Scheduler) -> Self {
        self.sched = Some(sched);
        self
    }

    /// Attaches a session-scoped probe cache (builder-style).
    pub fn with_probe_cache(mut self, cache: &'a std::cell::RefCell<cache::ProbeCache>) -> Self {
        self.probe_cache = Some(cache);
        self
    }

    /// Attaches a per-query cost ceiling (builder-style): the mid-flight
    /// budget guard of a serving session.
    pub fn with_ceiling(mut self, ceiling: CostCeiling) -> Self {
        self.ceiling = Some(ceiling);
        self
    }

    /// The mid-flight budget guard: refuses the next charged operation
    /// once the ledger has overrun the attached ceiling. Free when no
    /// ceiling is attached.
    fn guard_budget(&self) -> Result<(), TextError> {
        let Some(c) = self.ceiling else {
            return Ok(());
        };
        let spent = self.server.usage().total_cost() - c.baseline;
        if spent > c.limit {
            return Err(TextError::BudgetExceeded {
                spent_ms: (spent * 1000.0).round() as u64,
                limit_ms: (c.limit * 1000.0).round() as u64,
            });
        }
        Ok(())
    }

    /// The flight recorder attached to the service, if any. Observation is
    /// passive: recording never books a charge into the [`Usage`] ledger.
    pub fn recorder(&self) -> Option<Rc<Recorder>> {
        self.server.recorder()
    }

    /// Opens a method-phase span on the attached recorder (no-op when the
    /// service is not being recorded). The guard closes the span on drop,
    /// including on early error returns.
    pub fn span(&self, label: &str) -> Option<SpanGuard> {
        self.recorder().map(|r| r.span(label))
    }

    /// The retry policy in force for `shard`: the adaptive budget's scaled
    /// policy when one is attached, the flat context policy otherwise.
    fn shard_policy(&self, shard: usize) -> RetryPolicy {
        match self.budget {
            Some(b) => b.policy_for(shard),
            None => self.retry,
        }
    }

    /// Emits a free (chargeless) event on the attached recorder, if any.
    fn emit_event(&self, kind: EventKind) {
        if let Some(rec) = self.recorder() {
            rec.emit(kind);
        }
    }

    /// Emits the docids a gather leg just routed to the client as a free
    /// `DocTraffic` event, attributed to the serving shard. These ids were
    /// *already transmitted* (their charges live on the `Call` events);
    /// this is pure routing metadata so the traffic monitor can derive
    /// rebalance advice from observed traffic instead of seeded windows.
    fn note_doc_traffic(&self, shard: usize, ids: &[DocId]) {
        if ids.is_empty() || self.recorder().is_none() {
            return;
        }
        self.emit_event(EventKind::DocTraffic {
            shard: Some(shard),
            docs: ids.iter().map(|id| id.0 as u64).collect(),
        });
    }

    /// Books one transport leg's charged cost on the attached scheduler
    /// (no-op without one). The first leg whose completion crosses the
    /// query deadline emits a single chargeless `DeadlineMiss` event —
    /// deadline misses degrade downstream, they never error.
    fn record_leg(&self, shard: Option<usize>, label: &str, delta: &Usage) {
        if let Some(sched) = self.sched {
            let t = sched.leg(shard, label, delta.total_cost());
            if t.crossed_deadline {
                self.emit_event(EventKind::DeadlineMiss { shard });
            }
        }
    }

    /// Runs an unsharded server operation as one serial leg on the
    /// scheduler, measured by the service's own ledger delta.
    fn serial_op<T>(
        &self,
        label: &str,
        f: impl FnOnce() -> Result<T, TextError>,
    ) -> Result<T, TextError> {
        if self.sched.is_none() {
            return f();
        }
        let before = self.server.usage();
        let out = f();
        let delta = self.server.usage().since(&before);
        self.record_leg(None, label, &delta);
        out
    }

    /// Retry loop for one replica leg: like [`RetryPolicy::run`] but the
    /// backoff is charged against the failing replica's ledger and — on the
    /// primary leg only (`feed_budget`) — every attempt's outcome feeds the
    /// adaptive budget's EWMA. Secondary legs stay out of the EWMA: it
    /// models the *primary's* health, which is what the breaker routes on.
    fn leg_attempts<T>(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        replica: usize,
        policy: RetryPolicy,
        feed_budget: bool,
        op: &mut impl FnMut(usize) -> Result<T, TextError>,
    ) -> Result<T, TextError> {
        let attempts = policy.max_attempts.max(1);
        let mut failed = 0u32;
        loop {
            match op(replica) {
                Ok(v) => {
                    if feed_budget {
                        if let Some(b) = self.budget {
                            b.observe(shard, false);
                        }
                    }
                    return Ok(v);
                }
                Err(e) if e.is_transient() && failed + 1 < attempts => {
                    if feed_budget {
                        if let Some(b) = self.budget {
                            b.observe(shard, true);
                        }
                    }
                    failed += 1;
                    sh.charge_replica_backoff(shard, replica, policy.backoff_after(failed));
                    if let Some(rec) = self.recorder() {
                        rec.emit(EventKind::Retry {
                            shard: Some(shard),
                            attempt: failed,
                        });
                    }
                }
                Err(e) => {
                    if feed_budget {
                        if let Some(b) = self.budget {
                            b.observe(shard, e.is_transient());
                        }
                    }
                    return Err(e);
                }
            }
        }
    }

    /// One shard leg with replica failover. `op` is called with the replica
    /// index to address. With R=1 this is exactly the pre-replication
    /// per-shard retry loop. With R>1 it consults the breaker (when a
    /// budget is attached): an open breaker skips the primary outright
    /// (charging it nothing), a half-open turn probes it with a single
    /// attempt (success closes the breaker), and otherwise the primary gets
    /// its full adaptive retry loop. On transient exhaustion the leg fails
    /// over through the secondaries in routing order — base policy, EWMA
    /// untouched — emitting a `Failover` event per hop. The caller sees the
    /// last transient error only when every replica is down.
    fn replicated_attempts<T>(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        mut op: impl FnMut(usize) -> Result<T, TextError>,
    ) -> Result<T, TextError> {
        let order = sh.routing_order(shard);
        if order.len() == 1 {
            let before = self.leg_baseline(sh, shard, order[0]);
            let out =
                self.leg_attempts(sh, shard, order[0], self.shard_policy(shard), true, &mut op);
            self.book_leg(sh, shard, order[0], "leg", before);
            return out;
        }
        let primary = order[0];
        let route = match self.budget {
            Some(b) => b.route(shard),
            None => Route::Primary,
        };
        let mut last: Option<TextError> = None;
        match route {
            Route::Primary => {
                let before = self.leg_baseline(sh, shard, primary);
                match self.leg_attempts(
                    sh,
                    shard,
                    primary,
                    self.shard_policy(shard),
                    true,
                    &mut op,
                ) {
                    Ok(v) => {
                        self.settle_primary_leg(sh, shard, primary, order[1], before, &mut op);
                        return Ok(v);
                    }
                    Err(e) if e.is_transient() => {
                        self.book_leg(sh, shard, primary, "leg", before);
                        if let Some(b) = self.budget {
                            if b.open_breaker_if_dead(shard) {
                                self.emit_event(EventKind::CircuitOpen {
                                    shard,
                                    rate: b.rate_of(shard),
                                });
                            }
                        }
                        last = Some(e);
                    }
                    Err(e) => {
                        self.book_leg(sh, shard, primary, "leg", before);
                        return Err(e);
                    }
                }
            }
            Route::HalfOpenProbe => {
                let b = self.budget.expect("half-open probes require a budget");
                let before = self.leg_baseline(sh, shard, primary);
                let attempt = op(primary);
                self.book_leg(sh, shard, primary, "half-open-probe", before);
                match attempt {
                    Ok(v) => {
                        b.observe(shard, false);
                        if b.close_breaker(shard) {
                            self.emit_event(EventKind::CircuitClose {
                                shard,
                                rate: b.rate_of(shard),
                            });
                        }
                        return Ok(v);
                    }
                    Err(e) if e.is_transient() => {
                        b.observe(shard, true);
                        last = Some(e);
                    }
                    Err(e) => return Err(e),
                }
            }
            // Breaker open, not a probe turn: the primary is skipped and
            // charged nothing.
            Route::Replica => {}
        }
        for &r in order.iter().skip(1) {
            self.emit_event(EventKind::Failover { shard, replica: r });
            let before = self.leg_baseline(sh, shard, r);
            let out = self.leg_attempts(sh, shard, r, self.retry, false, &mut op);
            self.book_leg(sh, shard, r, "failover-leg", before);
            match out {
                Ok(v) => return Ok(v),
                Err(e) if e.is_transient() => last = Some(e),
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("a transient failure preceded every failover"))
    }

    /// Snapshot of one replica's ledger before a leg, taken only when a
    /// scheduler is attached (the unscheduled hot path stays free).
    fn leg_baseline(&self, sh: &ShardedTextServer, shard: usize, replica: usize) -> Option<Usage> {
        self.sched.map(|_| sh.replica(shard, replica).usage())
    }

    /// Books one completed (or exhausted) replica leg on the scheduler.
    /// Returns the leg's charged delta when measured.
    fn book_leg(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        replica: usize,
        label: &str,
        before: Option<Usage>,
    ) -> Option<Usage> {
        let before = before?;
        let delta = sh.replica(shard, replica).usage().since(&before);
        self.record_leg(Some(shard), label, &delta);
        Some(delta)
    }

    /// Books a *successful* primary leg's timing and — when the leg was a
    /// straggler (charged cost above the shard's hedge threshold, i.e. the
    /// seeded latency quantile from the budget's EWMA) — races a hedge
    /// read against the first secondary. The hedge replica runs the same
    /// operation once; the virtual clock picks the winner and the loser's
    /// *entire* leg charge is rebated through the ledger (first-winner-
    /// cancels-loser). The result multiset is never affected: replicas are
    /// consistent, so the caller keeps the primary's answer either way.
    fn settle_primary_leg<T>(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        primary: usize,
        hedge_replica: usize,
        before: Option<Usage>,
        op: &mut impl FnMut(usize) -> Result<T, TextError>,
    ) {
        let Some(before) = before else { return };
        let delta = sh.replica(shard, primary).usage().since(&before);
        let cost = delta.total_cost();
        // Threshold first, then feed: a straggler must not raise the bar
        // it is judged against.
        let threshold = self.budget.map(|b| {
            let t = b.hedge_threshold(shard);
            b.observe_latency(shard, cost);
            t
        });
        let (Some(sched), Some(threshold)) = (self.sched, threshold) else {
            self.record_leg(Some(shard), "leg", &delta);
            return;
        };
        if cost <= threshold {
            self.record_leg(Some(shard), "leg", &delta);
            return;
        }
        self.emit_event(EventKind::Hedge {
            shard,
            replica: hedge_replica,
        });
        let hedge_before = sh.replica(shard, hedge_replica).usage();
        let hedged = op(hedge_replica);
        let hedge_delta = sh.replica(shard, hedge_replica).usage().since(&hedge_before);
        let timing = if hedged.is_ok() {
            sched.hedged_leg(shard, "leg", cost, threshold, hedge_delta.total_cost())
        } else {
            // The hedge itself faulted: the primary's answer stands and
            // the failed hedge is the cancelled leg regardless of timing.
            sched.failed_hedge_leg(shard, "leg", cost, threshold, hedge_delta.total_cost())
        };
        if timing.crossed_deadline {
            self.emit_event(EventKind::DeadlineMiss { shard: Some(shard) });
        }
        let (loser, loser_delta) = if timing.hedge_won {
            (primary, &delta)
        } else {
            (hedge_replica, &hedge_delta)
        };
        sh.rebate_replica(shard, loser, loser_delta);
        self.emit_event(EventKind::Cancel {
            shard,
            replica: loser,
        });
    }

    /// Scatter/gather search over every shard with per-shard retries.
    /// Transient exhaustion at shard `i` wraps the results gathered so far
    /// in a typed [`PartialShardError`]; non-transient errors (cap
    /// renegotiations, syntax) propagate raw so the callers' re-packaging
    /// degradation paths keep working unchanged.
    fn sharded_gather(
        &self,
        sh: &ShardedTextServer,
        expr: &SearchExpr,
    ) -> Result<SearchResult, TextError> {
        if expr.term_count() > self.server.max_terms() {
            // Route through the service so the rejection is ledgered once.
            return self.server.search(expr);
        }
        let n = sh.shard_count();
        let _gather = self.span("gather");
        // Scatter phase: shard legs overlap on the virtual clock. The
        // phase must close on every exit, error paths included.
        let opened = self.sched.is_some_and(Scheduler::begin_phase);
        let out = self.gather_shards(sh, expr, n);
        if opened {
            self.sched.expect("opened implies a scheduler").end_phase();
        }
        out
    }

    /// The per-shard gather loop. Routing is decided at the topology epoch
    /// in force when the loop starts; a migration batch committing
    /// mid-gather (paced under these very legs) bumps the epoch, and the
    /// loop re-scatters *only* the shards the commit touched
    /// (`RoutingStale`, charge-free) — mirroring the service-level scatter.
    /// With stats-aware routing on, shards whose vocabulary provably holds
    /// no postings for `expr` are answered empty for free; the planner
    /// folds the same pruned fan-out into its costs
    /// (`CostParams::with_scatter_fanout`).
    fn gather_shards(
        &self,
        sh: &ShardedTextServer,
        expr: &SearchExpr,
        n: usize,
    ) -> Result<SearchResult, TextError> {
        let mut done: Vec<Option<SearchResult>> = vec![None; n];
        let mut from_epoch = sh.topology_epoch();
        let mut relevant = sh.relevant_shards(expr);
        loop {
            let now = sh.topology_epoch();
            if now != from_epoch {
                for i in sh.note_routing_stale(from_epoch) {
                    done[i] = None;
                }
                relevant = sh.relevant_shards(expr);
                from_epoch = now;
            }
            for i in 0..n {
                if done[i].is_some() {
                    continue;
                }
                if !relevant[i] {
                    done[i] = Some(SearchResult { docs: Vec::new() });
                    continue;
                }
                let _shard_span = self.span(&format!("gather/shard{i}"));
                match self.replicated_attempts(sh, i, |r| sh.search_replica(i, r, expr)) {
                    Ok(r) => {
                        self.note_doc_traffic(i, &r.ids());
                        done[i] = Some(r);
                    }
                    Err(e) if e.is_transient() => {
                        return Err(TextError::Shard(Box::new(PartialShardError {
                            partial: done,
                            failed_shard: i,
                            error: e,
                            epoch: sh.topology_epoch(),
                        })))
                    }
                    Err(e) => return Err(e),
                }
            }
            if sh.topology_epoch() == from_epoch {
                break;
            }
        }
        Ok(ShardedTextServer::merge(
            done.into_iter().map(|r| r.expect("all gathered")).collect(),
        ))
    }

    /// [`sharded_gather`](Self::sharded_gather) plus gather completion:
    /// when a replicated gather still fails mid-way (every replica of one
    /// shard down after retries and failover), resume from the
    /// [`PartialShardError`]'s partial results — already-transmitted shard
    /// responses are reused verbatim, only the missing keyspace is
    /// re-scattered. Unreplicated services keep the abort-with-partial
    /// contract unchanged: with no replica to fail over to, an immediate
    /// re-scatter would just re-buy the same postings from the same dead
    /// shard.
    ///
    /// A completion round can itself fail partially (a *different* shard
    /// exhausts its replicas mid-re-scatter). Each round gets its own
    /// `complete-gather[k/n]` span computed from the round's *own* partial
    /// state, so the spans nest in completion order instead of the first
    /// round's counts being stamped on every retry. Rounds continue while
    /// they make progress (strictly more shards gathered); a round that
    /// gathers nothing new means some shard is down on every replica, and
    /// its error propagates.
    fn sharded_search(
        &self,
        sh: &ShardedTextServer,
        expr: &SearchExpr,
    ) -> Result<SearchResult, TextError> {
        let mut out = self.sharded_gather(sh, expr);
        if sh.replication_factor() > 1 {
            while let Err(TextError::Shard(pse)) = out {
                let gathered = pse.gathered();
                let _span = self.span(&format!(
                    "complete-gather[{}/{}]",
                    gathered,
                    pse.partial.len()
                ));
                let before = self.sched.map(|_| self.server.usage());
                // The partials carry the epoch they were gathered at: a
                // migration batch that committed since invalidates exactly
                // the shards it touched, and completion re-scatters those
                // alongside the failed one.
                let round = sh.complete_gather_from(&pse.partial, expr, pse.epoch);
                if let Some(before) = before {
                    let delta = self.server.usage().since(&before);
                    self.record_leg(None, "complete-gather", &delta);
                }
                match round {
                    Err(TextError::Shard(next)) if next.gathered() > gathered => {
                        out = Err(TextError::Shard(next));
                    }
                    other => return other,
                }
            }
        }
        out
    }

    /// Retrying [`TextService::search`]; per-shard retries, replica
    /// failover, and gather completion when sharded.
    pub fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        self.guard_budget()?;
        match self.server.as_sharded() {
            Some(sh) => self.sharded_search(sh, expr),
            None => {
                self.serial_op("search", || {
                    self.retry.run(self.server, || self.server.search(expr))
                })
            }
        }
    }

    /// Retrying [`TextService::probe`]. Sharded probing is all-shards-or-
    /// error: a probe's ids feed candidate sets, so a partial id list would
    /// silently drop matches — the typed error forces the caller through
    /// its degradation path instead. With replication the error only
    /// surfaces (and the caller only degrades to "unknown — don't prune")
    /// when *every* replica of some shard is down.
    pub fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        self.guard_budget()?;
        match self.server.as_sharded() {
            Some(sh) => Ok(self.sharded_search(sh, expr)?.ids()),
            None => {
                self.serial_op("probe", || {
                    self.retry.run(self.server, || self.server.probe(expr))
                })
            }
        }
    }

    /// Degrading probe: probing is an optimization, never a correctness
    /// requirement, so when the server stays down past the retry budget
    /// this returns `None` ("outcome unknown — don't prune") instead of
    /// failing the whole method.
    pub fn try_probe(&self, expr: &SearchExpr) -> Option<Vec<DocId>> {
        self.probe(expr).ok()
    }

    /// Retrying [`TextService::retrieve`]; routed to (and retried against)
    /// the owning shard when sharded, with replica failover.
    pub fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        self.guard_budget()?;
        match self.server.as_sharded() {
            Some(sh) => {
                let shard = sh
                    .owner_of(id)
                    .ok_or(TextError::UnknownDoc(id))?;
                let doc = self.replicated_attempts(sh, shard, |r| sh.retrieve_replica(shard, r, id))?;
                self.note_doc_traffic(shard, &[id]);
                Ok(doc)
            }
            None => {
                self.serial_op("retrieve", || {
                    self.retry.run(self.server, || self.server.retrieve(id))
                })
            }
        }
    }

    /// Retrying [`TextService::search_batch`]. The batch façade validates
    /// caps before charging, so a transient fault fails (and retries) the
    /// whole batch. Sharded batches scatter per shard with per-shard
    /// retries; a shard exhausting its budget yields the typed shard error
    /// (no per-member partial sets — the batch is all-or-error).
    pub fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        self.guard_budget()?;
        match self.server.as_sharded() {
            Some(sh) => {
                for e in exprs {
                    if e.term_count() > self.server.max_terms() {
                        return self.server.search_batch(exprs);
                    }
                }
                let n = sh.shard_count();
                let _gather = self.span("gather");
                let opened = self.sched.is_some_and(Scheduler::begin_phase);
                let out = self.batch_shards(sh, exprs, n);
                if opened {
                    self.sched.expect("opened implies a scheduler").end_phase();
                }
                out
            }
            None => {
                self.serial_op("search-batch", || {
                    self.retry.run(self.server, || self.server.search_batch(exprs))
                })
            }
        }
    }

    /// Batch analogue of [`gather_shards`](Self::gather_shards): a shard is
    /// relevant when *any* member may match there, epoch bumps re-scatter
    /// only the shards a concurrent commit touched.
    fn batch_shards(
        &self,
        sh: &ShardedTextServer,
        exprs: &[SearchExpr],
        n: usize,
    ) -> Result<BatchResult, TextError> {
        let batch_mask = |sh: &ShardedTextServer| -> Vec<bool> {
            let masks: Vec<Vec<bool>> = exprs.iter().map(|e| sh.relevant_shards(e)).collect();
            (0..n)
                .map(|i| masks.iter().any(|m| m[i]) || masks.is_empty())
                .collect()
        };
        let mut done: Vec<Option<BatchResult>> = vec![None; n];
        let mut from_epoch = sh.topology_epoch();
        let mut relevant = batch_mask(sh);
        loop {
            let now = sh.topology_epoch();
            if now != from_epoch {
                for i in sh.note_routing_stale(from_epoch) {
                    done[i] = None;
                }
                relevant = batch_mask(sh);
                from_epoch = now;
            }
            for i in 0..n {
                if done[i].is_some() {
                    continue;
                }
                if !relevant[i] {
                    done[i] = Some(BatchResult {
                        results: vec![SearchResult { docs: Vec::new() }; exprs.len()],
                    });
                    continue;
                }
                let _shard_span = self.span(&format!("gather/shard{i}"));
                match self.replicated_attempts(sh, i, |r| sh.batch_replica(i, r, exprs)) {
                    Ok(b) => {
                        let ids: Vec<DocId> =
                            b.results.iter().flat_map(SearchResult::ids).collect();
                        self.note_doc_traffic(i, &ids);
                        done[i] = Some(b);
                    }
                    Err(e) if e.is_transient() => {
                        return Err(TextError::Shard(Box::new(PartialShardError {
                            partial: Vec::new(),
                            failed_shard: i,
                            error: e,
                            epoch: sh.topology_epoch(),
                        })))
                    }
                    Err(e) => return Err(e),
                }
            }
            if sh.topology_epoch() == from_epoch {
                break;
            }
        }
        let per_shard: Vec<BatchResult> =
            done.into_iter().map(|b| b.expect("all gathered")).collect();
        let results = (0..exprs.len())
            .map(|j| {
                ShardedTextServer::merge(per_shard.iter().map(|b| b.results[j].clone()).collect())
            })
            .collect();
        Ok(BatchResult { results })
    }
}

/// What a method did and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodReport {
    /// Method label (`"TS"`, `"P1+TS"`, ...).
    pub method: String,
    /// Text-server usage charged to this method (delta).
    pub text: Usage,
    /// Document–tuple comparisons performed relationally.
    pub rtp_comparisons: u64,
    /// `c_a ×` comparisons.
    pub rtp_cost: f64,
    /// Rows emitted.
    pub output_rows: usize,
}

impl MethodReport {
    /// Total simulated cost: text-server charges plus relational text
    /// processing.
    pub fn total_cost(&self) -> f64 {
        self.text.total_cost() + self.rtp_cost
    }
}

impl fmt::Display for MethodReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.2}s (text {}, rtp {} cmp = {:.2}s), {} rows",
            self.method,
            self.total_cost(),
            self.text,
            self.rtp_comparisons,
            self.rtp_cost,
            self.output_rows
        )
    }
}

/// A method's result: the output table plus its report.
#[derive(Debug, Clone)]
pub struct MethodOutcome {
    /// Output rows, shaped per the [`Projection`].
    pub table: Table,
    /// Cost/usage report.
    pub report: MethodReport,
}

impl<'a> ForeignJoin<'a> {
    /// Number of foreign join predicates `k`.
    pub fn k(&self) -> usize {
        self.join_cols.len()
    }

    /// Validates internal consistency (parallel arrays, known columns).
    pub fn validate(&self) -> Result<(), MethodError> {
        if self.join_cols.len() != self.join_fields.len() {
            return Err(MethodError::NotApplicable(
                "join_cols and join_fields must be parallel".into(),
            ));
        }
        if self.join_cols.is_empty() && self.selections.is_empty() {
            return Err(MethodError::NotApplicable(
                "foreign join needs at least one join predicate or selection".into(),
            ));
        }
        for c in &self.join_cols {
            if c.0 >= self.rel.schema().len() {
                return Err(MethodError::BadProbeColumns(format!(
                    "column {} out of range",
                    c.0
                )));
            }
        }
        Ok(())
    }

    /// The conjunction of the constant text selections, if any.
    pub fn selections_expr(&self) -> Option<SearchExpr> {
        if self.selections.is_empty() {
            return None;
        }
        Some(SearchExpr::and(
            self.selections
                .iter()
                .map(|s| SearchExpr::term_in(&s.term, s.field))
                .collect(),
        ))
    }

    /// The join-column values of `t` restricted to predicate indices
    /// `which` (indices into `join_cols`). Returns `None` if any value is
    /// NULL or empty — such a tuple can never match, so no search is sent.
    pub fn key_values(&self, t: &Tuple, which: &[usize]) -> Option<Vec<String>> {
        let mut out = Vec::with_capacity(which.len());
        for &i in which {
            match t.get(self.join_cols[i]).as_str() {
                Some(s) if !s.trim().is_empty() => out.push(s.to_owned()),
                _ => return None,
            }
        }
        Some(out)
    }

    /// Builds the conjunct for predicate indices `which` instantiated with
    /// `values` (parallel to `which`): each becomes `value in field`.
    pub fn instantiated_conjunct(&self, which: &[usize], values: &[String]) -> SearchExpr {
        debug_assert_eq!(which.len(), values.len());
        SearchExpr::and(
            which
                .iter()
                .zip(values)
                .map(|(&i, v)| SearchExpr::term_in(v, self.join_fields[i]))
                .collect(),
        )
    }

    /// The full instantiated search for tuple `t` over predicate indices
    /// `which`: selections ∧ instantiated join predicates. `None` if the
    /// tuple has a NULL/empty join value among `which`.
    pub fn instantiated_search(&self, t: &Tuple, which: &[usize]) -> Option<SearchExpr> {
        let values = self.key_values(t, which)?;
        let conj = self.instantiated_conjunct(which, &values);
        Some(match self.selections_expr() {
            Some(sel) => SearchExpr::and(vec![sel, conj]),
            None => conj,
        })
    }

    /// All predicate indices `[0, k)`.
    pub fn all_preds(&self) -> Vec<usize> {
        (0..self.k()).collect()
    }

    /// The output schema for this join's projection.
    pub fn output_schema(&self, text_schema: &TextSchema) -> RelSchema {
        match self.projection {
            Projection::RelOnly => self.rel.schema().clone(),
            Projection::DocIds => {
                RelSchema::from_columns(vec![("docid", ValueType::Str)])
            }
            Projection::Full => {
                let mut s = self.rel.schema().clone();
                let mut add = |name: &str| {
                    let mut candidate = name.to_owned();
                    if s.column_by_name(&candidate).is_some() {
                        candidate = format!("mercury.{name}");
                    }
                    s.add_column(candidate, ValueType::Str);
                };
                add("docid");
                for (_, def) in text_schema.iter() {
                    add(&def.name);
                }
                s
            }
        }
    }

    /// An empty output table for this join.
    pub fn output_table(&self, text_schema: &TextSchema, name: &str) -> Table {
        Table::new(name, self.output_schema(text_schema))
    }

    /// Converts a long-form document into the value suffix appended to an
    /// output row under [`Projection::Full`]: docid, then each field's
    /// values joined with `"; "` (NULL when the field is absent).
    pub fn doc_values(&self, id: DocId, doc: &Document, text_schema: &TextSchema) -> Vec<Value> {
        let mut out = Vec::with_capacity(1 + text_schema.len());
        out.push(Value::str(id.to_string()));
        for (fid, _) in text_schema.iter() {
            let vs = doc.values(fid);
            if vs.is_empty() {
                out.push(Value::Null);
            } else {
                out.push(Value::str(vs.join("; ")));
            }
        }
        out
    }

    /// Emits output rows for one (tuple, matched docs) pair according to the
    /// projection. `docs` must be the long forms when the projection is
    /// `Full`; they may be owned or borrowed.
    pub fn emit<D: std::borrow::Borrow<Document>>(
        &self,
        out: &mut Table,
        text_schema: &TextSchema,
        tuple: &Tuple,
        docs: &[(DocId, D)],
    ) {
        if docs.is_empty() {
            return;
        }
        match self.projection {
            Projection::RelOnly => out.push(tuple.clone()),
            Projection::DocIds => {
                for (id, _) in docs {
                    out.push(Tuple::new(vec![Value::str(id.to_string())]));
                }
            }
            Projection::Full => {
                for (id, d) in docs {
                    let mut vals = tuple.values().to_vec();
                    vals.extend(self.doc_values(*id, d.borrow(), text_schema));
                    out.push(Tuple::new(vals));
                }
            }
        }
    }

    /// Whether every join field is available in short-form results — when
    /// true, RTP-style matching can use the search results themselves and
    /// skip long-form retrieval (unless the projection needs full docs).
    pub fn short_form_sufficient(&self, text_schema: &TextSchema) -> bool {
        self.join_fields
            .iter()
            .all(|f| text_schema.def(*f).in_short_form)
    }
}

/// Helper: builds a [`MethodReport`] from a usage delta.
pub(crate) fn report(
    method: impl Into<String>,
    ctx: &ExecContext<'_>,
    before: &Usage,
    rtp_comparisons: u64,
    output_rows: usize,
) -> MethodReport {
    MethodReport {
        method: method.into(),
        text: ctx.server.usage().since(before),
        rtp_comparisons,
        rtp_cost: ctx.c_a * rtp_comparisons as f64,
        output_rows,
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Shared fixtures for method tests: a small university database and a
    //! Mercury-like collection with known overlaps.

    use textjoin_rel::schema::RelSchema;
    use textjoin_rel::table::Table;
    use textjoin_rel::tuple;
    use textjoin_rel::value::ValueType;
    use textjoin_text::doc::{Document, TextSchema};
    use textjoin_text::index::Collection;
    use textjoin_text::server::TextServer;

    /// Students: name, advisor, area.
    pub fn student() -> Table {
        let schema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("advisor", ValueType::Str),
            ("area", ValueType::Str),
        ]);
        let mut t = Table::new("student", schema);
        t.push(tuple!["Gravano", "Garcia", "db"]);
        t.push(tuple!["Kao", "Garcia", "db"]);
        t.push(tuple!["Pham", "Wiederhold", "ai"]);
        t.push(tuple!["DeSmedt", "Wiederhold", "ai"]);
        t
    }

    /// A collection where:
    /// * doc0: title "text retrieval systems", authors Gravano, Garcia
    /// * doc1: title "text indexing", author Kao
    /// * doc2: title "belief update", author Pham
    /// * doc3: title "query optimization", author Garcia
    pub fn corpus() -> TextServer {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let ab = schema.field_by_name("abstract").unwrap();
        let mut c = Collection::new(schema);
        c.add_document(
            Document::new()
                .with(ti, "text retrieval systems")
                .with(au, "Gravano")
                .with(au, "Garcia")
                .with(ab, "We study text retrieval."),
        );
        c.add_document(
            Document::new()
                .with(ti, "text indexing")
                .with(au, "Kao")
                .with(ab, "Indexing structures for text."),
        );
        c.add_document(
            Document::new()
                .with(ti, "belief update")
                .with(au, "Pham")
                .with(ab, "Belief revision and update."),
        );
        c.add_document(
            Document::new()
                .with(ti, "query optimization")
                .with(au, "Garcia")
                .with(ab, "Optimizing queries."),
        );
        TextServer::new(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use textjoin_text::server::TextServer;
    use testkit::{corpus, student};

    fn fj<'a>(rel: &'a Table, server: &TextServer, projection: Projection) -> ForeignJoin<'a> {
        let ts = server.collection().schema();
        ForeignJoin {
            rel,
            join_cols: vec![rel.col("name")],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: vec![TextSelection {
                term: "text".into(),
                field: ts.field_by_name("title").unwrap(),
            }],
            projection,
        }
    }

    #[test]
    fn validate_catches_mismatch() {
        let rel = student();
        let server = corpus();
        let mut j = fj(&rel, &server, Projection::Full);
        assert!(j.validate().is_ok());
        j.join_fields.clear();
        assert!(j.validate().is_err());
    }

    #[test]
    fn instantiated_search_renders() {
        let rel = student();
        let server = corpus();
        let j = fj(&rel, &server, Projection::Full);
        let e = j
            .instantiated_search(&rel.rows()[0], &j.all_preds())
            .unwrap();
        assert_eq!(
            e.display(server.collection().schema()).to_string(),
            "TI='text' and AU='gravano'"
        );
    }

    #[test]
    fn null_join_value_skips() {
        let server = corpus();
        let schema = RelSchema::from_columns(vec![("name", ValueType::Str)]);
        let mut rel = Table::new("r", schema);
        rel.push(Tuple::new(vec![Value::Null]));
        rel.push(Tuple::new(vec![Value::str("  ")]));
        let ts = server.collection().schema();
        let j = ForeignJoin {
            rel: &rel,
            join_cols: vec![ColId(0)],
            join_fields: vec![ts.field_by_name("author").unwrap()],
            selections: vec![],
            projection: Projection::RelOnly,
        };
        assert!(j.instantiated_search(&rel.rows()[0], &[0]).is_none());
        assert!(j.instantiated_search(&rel.rows()[1], &[0]).is_none());
    }

    #[test]
    fn output_schema_shapes() {
        let rel = student();
        let server = corpus();
        let ts = server.collection().schema();
        assert_eq!(
            fj(&rel, &server, Projection::RelOnly).output_schema(ts).len(),
            3
        );
        assert_eq!(
            fj(&rel, &server, Projection::DocIds).output_schema(ts).len(),
            1
        );
        // rel(3) + docid + 5 fields
        assert_eq!(
            fj(&rel, &server, Projection::Full).output_schema(ts).len(),
            9
        );
    }

    #[test]
    fn short_form_sufficiency() {
        let rel = student();
        let server = corpus();
        let ts = server.collection().schema();
        let j = fj(&rel, &server, Projection::RelOnly);
        assert!(j.short_form_sufficient(ts), "author is short-form");
        let j2 = ForeignJoin {
            join_fields: vec![ts.field_by_name("abstract").unwrap()],
            ..j
        };
        assert!(!j2.short_form_sufficient(ts));
    }
}
