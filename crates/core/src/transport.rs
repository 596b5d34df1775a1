//! The transport layer: everything between a join method and the metered
//! [`TextService`] surface.
//!
//! The paper's mediator reaches the text system only through `search` /
//! `retrieve` calls (§2.3). [`ExecContext`]'s four wrappers are that narrow
//! surface plus what a WAN deployment needs around it: the mid-flight
//! budget guard, retries with charged backoff, replica failover, circuit
//! breakers, hedged reads, gather completion, and the virtual-time
//! scheduler's leg bookkeeping.
//!
//! A sharded scatter is the service's own gather loop
//! ([`ShardedTextServer::gather_search`] / [`gather_batch`]) run over the
//! client's leg — a `gather/shard{i}` span, the retrying, breaker-aware
//! attempts, then `DocTraffic` — so pruning, partial failure and epoch
//! re-scatter are decided in one place for both callers.
//!
//! [`gather_batch`]: ShardedTextServer::gather_batch

use std::cell::RefCell;
use std::rc::Rc;

use textjoin_obs::{ns, EventKind, Recorder, SpanGuard};
use textjoin_text::batch::BatchResult;
use textjoin_text::doc::{DocId, Document};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::{SearchResult, TextError, Usage};
use textjoin_text::service::TextService;
use textjoin_text::shard::ShardedTextServer;

use crate::methods::cache::ProbeCache;
use crate::retry::{RetryBudget, RetryPolicy, Route};
use crate::sched::{LegTiming, Scheduler};

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
///
/// [`PartialShardError`]: textjoin_text::shard::PartialShardError
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
    pub probe_cache: Option<&'a RefCell<ProbeCache>>,
    /// Optional per-query cost ceiling. When attached, every charged
    /// wrapper refuses to issue the next operation once the server's
    /// ledger has grown past `baseline + limit` ticks, returning the
    /// non-transient [`TextError::BudgetExceeded`] — the serving
    /// session's mid-flight budget guard. Charges already booked stay.
    pub ceiling: Option<CostCeiling>,
}

/// A per-query charge ceiling for [`ExecContext`], in ticks: operations
/// are refused once `server.usage().ticks() - baseline` exceeds `limit`.
#[derive(Debug, Clone, Copy)]
pub struct CostCeiling {
    /// The server ledger's `ticks()` when the query started.
    pub baseline: u64,
    /// Ticks the query may charge beyond the baseline.
    pub limit: u64,
}

impl<'a> ExecContext<'a> {
    /// Context with the default `c_a` of 1e-5 sec/comparison and the
    /// standard retry policy.
    pub fn new(server: &'a dyn TextService) -> Self {
        Self::with_retry(server, RetryPolicy::standard())
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
    /// policy also serves as `retry`: for unsharded operations and for
    /// every failover leg.
    pub fn with_budget(server: &'a dyn TextService, budget: &'a RetryBudget) -> Self {
        Self {
            budget: Some(budget),
            ..Self::with_retry(server, budget.base())
        }
    }

    /// Attaches a virtual-time transport scheduler (builder-style).
    pub fn with_transport(mut self, sched: &'a Scheduler) -> Self {
        self.sched = Some(sched);
        self
    }

    /// The mid-flight budget guard: refuses the next charged operation
    /// once the ledger has overrun the attached ceiling. Free when no
    /// ceiling is attached.
    fn guard_budget(&self) -> Result<(), TextError> {
        let Some(c) = self.ceiling else {
            return Ok(());
        };
        let spent = self.server.usage().ticks().saturating_sub(c.baseline);
        if spent > c.limit {
            let ms = |t: u64| t.saturating_add(500_000) / 1_000_000;
            return Err(TextError::BudgetExceeded {
                spent_ms: ms(spent),
                limit_ms: ms(c.limit),
            });
        }
        Ok(())
    }

    /// The flight recorder attached to the service, if any. Observation is
    /// passive: recording never books a charge into the [`Usage`] ledger.
    pub(crate) fn recorder(&self) -> Option<Rc<Recorder>> {
        self.server.recorder()
    }

    /// Opens a method-phase span on the attached recorder (no-op when the
    /// service is not being recorded). The guard closes the span on drop,
    /// including on early error returns.
    pub(crate) fn span(&self, label: &str) -> Option<SpanGuard> {
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
    fn record_leg(&self, shard: Option<usize>, delta: &Usage) {
        if let Some(sched) = self.sched {
            let t = sched.issue(shard, delta.ticks());
            if t.crossed_deadline {
                self.emit_event(EventKind::DeadlineMiss { shard });
            }
        }
    }

    /// Runs `f` as one serial leg on the scheduler, measured by the
    /// service's own ledger delta.
    fn serial_leg<T>(&self, f: impl FnOnce() -> T) -> T {
        let before = self.sched.map(|_| self.server.usage());
        let out = f();
        if let Some(before) = before {
            self.record_leg(None, &self.server.usage().since(&before));
        }
        out
    }

    /// Runs an unsharded server operation as one serial leg under the
    /// context's retry policy, each wait charged to the service as a whole.
    fn unsharded<T>(&self, op: impl FnMut() -> Result<T, TextError>) -> Result<T, TextError> {
        self.serial_leg(|| {
            self.retry.run(
                op,
                |_| {},
                |attempt, seconds| {
                    self.server.charge_backoff(seconds);
                    self.emit_event(EventKind::Retry {
                        shard: None,
                        attempt,
                    });
                },
            )
        })
    }

    /// Retry loop for one replica leg: the backoff is charged against the
    /// failing replica's ledger and — on the primary leg only
    /// (`feed_budget`) — every attempt's outcome feeds the adaptive
    /// budget's EWMA. Secondary legs stay out of the EWMA: it models the
    /// *primary's* health, which is what the breaker routes on.
    fn leg_attempts<T>(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        replica: usize,
        policy: RetryPolicy,
        feed_budget: bool,
        op: &mut impl FnMut(usize) -> Result<T, TextError>,
    ) -> Result<T, TextError> {
        let fed = self.budget.filter(|_| feed_budget);
        policy.run(
            || op(replica),
            |faulted| {
                if let Some(b) = fed {
                    b.observe(shard, faulted);
                }
            },
            |attempt, seconds| {
                sh.charge_replica_backoff(shard, replica, seconds);
                self.emit_event(EventKind::Retry {
                    shard: Some(shard),
                    attempt,
                });
            },
        )
    }

    /// One shard leg with replica failover. `op` is called with the replica
    /// index to address. With R=1 this is exactly the pre-replication
    /// per-shard retry loop. With R>1 it consults the breaker (when a
    /// budget is attached): an open breaker skips the primary outright
    /// (charging it nothing), a half-open turn probes it with a single
    /// attempt (success closes the breaker), and otherwise the primary gets
    /// its full adaptive retry loop. On transient exhaustion the leg fails
    /// over through the secondaries in routing order — base policy, EWMA
    /// untouched — emitting a `Failover` event per hop. The caller sees a
    /// transient error (the last secondary's) only when every replica is
    /// down.
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
            self.book_leg(sh, shard, order[0], before);
            return out;
        }
        let primary = order[0];
        match self.budget.map(|b| (b, b.route(shard))) {
            None | Some((_, Route::Primary)) => {
                let before = self.leg_baseline(sh, shard, primary);
                let policy = self.shard_policy(shard);
                match self.leg_attempts(sh, shard, primary, policy, true, &mut op) {
                    Ok(v) => {
                        self.settle_primary_leg(sh, shard, primary, order[1], before, &mut op);
                        return Ok(v);
                    }
                    Err(e) => {
                        self.book_leg(sh, shard, primary, before);
                        if !e.is_transient() {
                            return Err(e);
                        }
                        if let Some(b) = self.budget.filter(|b| b.open_breaker_if_dead(shard)) {
                            self.emit_event(EventKind::CircuitOpen {
                                shard,
                                rate: b.rate_of(shard),
                            });
                        }
                    }
                }
            }
            Some((b, Route::HalfOpenProbe)) => {
                let before = self.leg_baseline(sh, shard, primary);
                let attempt = op(primary);
                self.book_leg(sh, shard, primary, before);
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
                    Err(e) if e.is_transient() => b.observe(shard, true),
                    Err(e) => return Err(e),
                }
            }
            // Breaker open, not a probe turn: the primary is skipped and
            // charged nothing.
            Some((_, Route::Replica)) => {}
        }
        // The secondaries: the service's failover pass over the rest of the
        // routing order, each hop a retried leg of its own.
        self.emit_event(EventKind::Failover {
            shard,
            replica: order[1],
        });
        sh.failover(shard, &order[1..], |r| {
            let before = self.leg_baseline(sh, shard, r);
            let out = self.leg_attempts(sh, shard, r, self.retry, false, &mut op);
            self.book_leg(sh, shard, r, before);
            out
        })
    }

    /// Snapshot of one replica's ledger before a leg, taken only when a
    /// scheduler is attached (the unscheduled hot path stays free).
    fn leg_baseline(&self, sh: &ShardedTextServer, shard: usize, replica: usize) -> Option<Usage> {
        self.sched.map(|_| sh.replica(shard, replica).usage())
    }

    /// Books one completed (or exhausted) replica leg on the scheduler.
    fn book_leg(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        replica: usize,
        before: Option<Usage>,
    ) {
        if let Some(before) = before {
            let delta = sh.replica(shard, replica).usage().since(&before);
            self.record_leg(Some(shard), &delta);
        }
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
        let cost = delta.ticks();
        // Threshold first, then feed: a straggler must not raise the bar
        // it is judged against.
        let threshold = self.budget.and_then(|b| {
            let t = b.hedge_threshold(shard);
            b.observe_latency(shard, cost);
            t
        });
        let Some((sched, threshold)) = self.sched.zip(threshold).filter(|&(_, t)| cost > t) else {
            self.record_leg(Some(shard), &delta);
            return;
        };
        self.emit_event(EventKind::Hedge {
            shard,
            replica: hedge_replica,
        });
        let hedge_before = sh.replica(shard, hedge_replica).usage();
        let hedged = op(hedge_replica);
        let hedge_delta = sh
            .replica(shard, hedge_replica)
            .usage()
            .since(&hedge_before);
        let timing = sched.race(shard, cost, threshold, hedge_delta.ticks(), hedged.is_ok());
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

    /// One scatter phase: `gather` runs under a `gather` span with the
    /// shard legs overlapping on the virtual clock, and the phase closes on
    /// every exit, error paths included.
    fn scatter_phase<T>(
        &self,
        gather: impl FnOnce() -> Result<T, TextError>,
    ) -> Result<T, TextError> {
        let _gather = self.span("gather");
        let opened = self.sched.filter(|s| s.begin_phase());
        let out = gather();
        if let Some(s) = opened {
            s.end_phase();
        }
        out
    }

    /// The client's gather leg for shard `i`: a `gather/shard{i}` span
    /// around the retrying, failing-over attempts, then the `DocTraffic`
    /// of what the shard shipped (`ids`).
    fn shard_leg<T>(
        &self,
        sh: &ShardedTextServer,
        i: usize,
        op: impl FnMut(usize) -> Result<T, TextError>,
        ids: impl FnOnce(&T) -> Vec<DocId>,
    ) -> Result<T, TextError> {
        let _shard_span = self.span(&format!("gather/shard{i}"));
        let out = self.replicated_attempts(sh, i, op)?;
        self.note_doc_traffic(i, &ids(&out));
        Ok(out)
    }

    /// Scatter/gather search over every shard with per-shard retries: the
    /// service's gather loop (stats-routing pruning, which the planner
    /// folds into its costs through `CostParams::with_scatter_fanout`, and
    /// the re-scatter of exactly the shards a migration commit touched
    /// mid-gather) over the client's legs. Transient exhaustion at shard
    /// `i` wraps the results gathered so far in a typed
    /// [`PartialShardError`](textjoin_text::shard::PartialShardError);
    /// non-transient errors (cap renegotiations, syntax) propagate raw so
    /// the callers' re-packaging degradation paths keep working unchanged.
    ///
    /// Then gather completion: when a replicated gather still fails
    /// mid-way (every replica of one shard down after retries and
    /// failover), resume from the error's partial results —
    /// already-transmitted shard responses are reused verbatim, only the
    /// missing keyspace is re-scattered. Unreplicated services keep the
    /// abort-with-partial contract unchanged: with no replica to fail over
    /// to, an immediate re-scatter would just re-buy the same postings from
    /// the same dead shard.
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
        if expr.term_count() > self.server.max_terms() {
            // Route through the service so the rejection is ledgered once.
            return self.server.search(expr);
        }
        let mut out = self.scatter_phase(|| {
            sh.gather_search(
                vec![None; sh.shard_count()],
                sh.topology_epoch(),
                expr,
                |i| self.shard_leg(sh, i, |r| sh.search_replica(i, r, expr), SearchResult::ids),
            )
        });
        if sh.replication_factor() > 1 {
            while let Err(TextError::Shard(pse)) = out {
                let gathered = pse.gathered();
                let _span = self.span(&format!(
                    "complete-gather[{}/{}]",
                    gathered,
                    pse.partial.len()
                ));
                // The partials carry the epoch they were gathered at: a
                // migration batch that committed since invalidates exactly
                // the shards it touched, and completion re-scatters those
                // alongside the failed one.
                let round =
                    self.serial_leg(|| sh.complete_gather_from(&pse.partial, expr, pse.epoch));
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
            None => self.unsharded(|| self.server.search(expr)),
        }
    }

    /// Retrying [`TextService::probe`]. Sharded probing is all-shards-or-
    /// error: a probe's ids feed candidate sets, so a partial id list would
    /// silently drop matches — the typed error forces the caller through
    /// its degradation path instead. With replication the error only
    /// surfaces (and the caller only degrades to "unknown — don't prune")
    /// when *every* replica of some shard is down.
    pub(crate) fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        self.guard_budget()?;
        match self.server.as_sharded() {
            Some(sh) => Ok(self.sharded_search(sh, expr)?.ids()),
            None => self.unsharded(|| self.server.probe(expr)),
        }
    }

    /// Degrading probe: probing is an optimization, never a correctness
    /// requirement, so when the server stays down past the retry budget
    /// this returns `None` ("outcome unknown — don't prune") instead of
    /// failing the whole method.
    pub(crate) fn try_probe(&self, expr: &SearchExpr) -> Option<Vec<DocId>> {
        self.probe(expr).ok()
    }

    /// Retrying [`TextService::retrieve`]; routed to (and retried against)
    /// the owning shard when sharded, with replica failover.
    pub fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        self.guard_budget()?;
        match self.server.as_sharded() {
            Some(sh) => {
                let shard = sh.owner_of(id).ok_or(TextError::UnknownDoc(id))?;
                let doc =
                    self.replicated_attempts(sh, shard, |r| sh.retrieve_replica(shard, r, id))?;
                self.note_doc_traffic(shard, &[id]);
                Ok(doc)
            }
            None => self.unsharded(|| self.server.retrieve(id)),
        }
    }

    /// Retrying [`TextService::search_batch`]. The batch façade validates
    /// caps before charging, so a transient fault fails (and retries) the
    /// whole batch. Sharded batches scatter per shard with per-shard
    /// retries; a shard exhausting its budget yields the typed shard error
    /// (no per-member partial sets — the batch is all-or-error).
    pub fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        self.guard_budget()?;
        let cap = self.server.max_terms();
        match self.server.as_sharded() {
            // An over-cap member routes through the service so the
            // rejection is ledgered once.
            Some(sh) if exprs.iter().all(|e| e.term_count() <= cap) => self.scatter_phase(|| {
                sh.gather_batch(exprs, |i| {
                    self.shard_leg(
                        sh,
                        i,
                        |r| sh.batch_replica(i, r, exprs),
                        |b| b.results.iter().flat_map(SearchResult::ids).collect(),
                    )
                })
            }),
            Some(_) => self.server.search_batch(exprs),
            None => self.unsharded(|| self.server.search_batch(exprs)),
        }
    }
}

impl Scheduler {
    /// [`issue`](Scheduler::issue) for a leg costed in simulated seconds,
    /// converted to ticks once. The label names the leg for the caller; it
    /// is not recorded.
    pub fn leg(&self, shard: Option<usize>, _label: &str, seconds: f64) -> LegTiming {
        self.issue(shard, ns(seconds).max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::testkit::corpus;
    use textjoin_text::faults::{Fault, FaultPlan};
    use textjoin_text::parse::parse_search;

    #[test]
    fn with_budget_runs_failover_legs_on_the_budgets_base_policy() {
        let single = corpus();
        let mut sh = ShardedTextServer::replicated(single.collection(), 2, 3, 7);
        let order = sh.routing_order(0);
        sh.replica_mut(0, order[0])
            .set_fault_plan(FaultPlan::dead(9));
        // The first secondary refuses once: a retrying leg would get
        // through on its second attempt, a single-attempt leg moves on.
        sh.replica_mut(0, order[1])
            .set_fault_plan(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
        let budget = RetryBudget::new(RetryPolicy::none());
        let ctx = ExecContext::with_budget(&sh, &budget);
        assert_eq!(ctx.retry, RetryPolicy::none());

        let expr = parse_search("TI='text'", sh.schema()).unwrap();
        let got = ctx.search(&expr).expect("the last secondary answers");
        assert_eq!(got.docs, single.search(&expr).unwrap().docs);
        for &r in &order[1..] {
            let u = sh.replica(0, r).usage();
            assert_eq!(u.invocations, 1, "replica {r} is attempted exactly once");
            assert_eq!(
                (u.retries, u.ns_backoff),
                (0, 0),
                "no backoff on a failover leg"
            );
        }
        assert_eq!(sh.replica(0, order[1]).usage().faults, 1);
    }
}
