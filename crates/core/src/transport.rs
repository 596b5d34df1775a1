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
//! Every call hands back its invoice ([`Billed`]); the context sums what
//! it receives, and that sum is what a method, plan node or query costs.
//! The scheduler times each leg by the leg's own invoices.
//!
//! A sharded scatter is the service's own gather loop
//! ([`ShardedTextServer::gather_search`] / [`gather_batch`]) run over the
//! client's leg — a `gather/shard{i}` span, the retrying, breaker-aware
//! attempts, then `DocTraffic` — so pruning, partial failure and epoch
//! re-scatter are decided in one place for both callers.
//!
//! [`gather_batch`]: ShardedTextServer::gather_batch

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use textjoin_obs::{ns, EventKind, Recorder, SpanGuard};
use textjoin_text::batch::BatchResult;
use textjoin_text::doc::{DocId, Document};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::{SearchResult, TextError, Usage};
use textjoin_text::service::{Billed, TextService};
use textjoin_text::shard::ShardedTextServer;

use crate::methods::cache::ProbeCache;
use crate::retry::{RetryBudget, RetryPolicy, Route};
use crate::sched::{LegTiming, Scheduler};

/// Execution context shared by the methods: the metered text service, the
/// relational text-processing cost constant `c_a` (sec per document–tuple
/// comparison), the retry policy, and what the calls have been billed.
///
/// Methods reach the service only through the retrying wrappers below.
/// Against a [`ShardedTextServer`] they scatter per shard: each shard gets
/// its own retry loop and pays its own backoff, and a shard that exhausts
/// its attempts yields a typed [`PartialShardError`] with the results
/// gathered so far, so methods re-route around the hole or fail cleanly,
/// never with a wrong multiset. A [`RetryBudget`] adapts each shard's
/// attempts to its observed fault rate.
///
/// [`PartialShardError`]: textjoin_text::shard::PartialShardError
pub struct ExecContext<'a> {
    /// The text service (a single server or a sharded one).
    pub server: &'a dyn TextService,
    /// Relational text-processing cost per document–tuple comparison.
    pub c_a: f64,
    /// Retry schedule for transient text-server faults.
    pub retry: RetryPolicy,
    /// Optional adaptive per-shard retry budget (sharded services only).
    pub budget: Option<&'a RetryBudget>,
    /// Optional virtual-time transport scheduler: times every leg by its
    /// invoice, overlaps scatter legs, hedges slow primary legs against a
    /// replica (rebating the loser) and tracks the deadline. It models
    /// *when* work completes, never *what* it computes.
    pub sched: Option<&'a Scheduler>,
    /// Optional session-scoped probe cache: a serving session shares one
    /// across executions, so a probe outcome one query proved prunes the
    /// next identical probe. `None` keeps the per-execution caches.
    pub probe_cache: Option<&'a RefCell<ProbeCache>>,
    /// Optional per-query cost ceiling, the serving session's mid-flight
    /// budget guard (see [`CostCeiling`]).
    pub ceiling: Option<CostCeiling>,
    /// The sum of every invoice the context's calls received. Client-side,
    /// shared with no server.
    pub invoice: Cell<Usage>,
}

/// A per-query charge ceiling for [`ExecContext`]: once the context's
/// invoice exceeds `limit` ticks, every charged wrapper refuses the next
/// operation with the non-transient [`TextError::BudgetExceeded`].
/// Charges already booked stay.
#[derive(Debug, Clone, Copy)]
pub struct CostCeiling {
    /// Ticks the query may be billed.
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
            invoice: Cell::default(),
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

    /// Adds a received invoice to the context's.
    pub(crate) fn bill(&self, invoice: &Usage) {
        let mut sum = self.invoice.get();
        sum.accumulate(invoice);
        self.invoice.set(sum);
    }

    /// The mid-flight budget guard (see [`CostCeiling`]).
    fn guard_budget(&self) -> Result<(), TextError> {
        let Some(c) = self.ceiling else {
            return Ok(());
        };
        let spent = self.invoice.get().ticks();
        if spent > c.limit {
            let ms = |t: u64| t.saturating_add(500_000) / 1_000_000;
            return Err(TextError::BudgetExceeded {
                spent_ms: ms(spent),
                limit_ms: ms(c.limit),
            });
        }
        Ok(())
    }

    /// The flight recorder attached to the service, if any.
    pub(crate) fn recorder(&self) -> Option<Rc<Recorder>> {
        self.server.recorder()
    }

    /// Opens a method-phase span on the attached recorder, if any; the
    /// guard closes it on drop, error returns included.
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

    /// Emits the docids a gather leg routed to the client as a free
    /// `DocTraffic` event of the serving shard: routing metadata the
    /// traffic monitor derives rebalance advice from.
    fn note_doc_traffic(&self, shard: usize, ids: &[DocId]) {
        if ids.is_empty() || self.recorder().is_none() {
            return;
        }
        self.emit_event(EventKind::DocTraffic {
            shard: Some(shard),
            docs: ids.iter().map(|id| id.0 as u64).collect(),
        });
    }

    /// Receives one transport leg: bills its invoice and times it on the
    /// scheduler, if any. The first leg to finish past the deadline emits
    /// the one free `DeadlineMiss` event; a miss degrades, never errors.
    fn leg<T>(&self, shard: Option<usize>, leg: Billed<T>) -> Result<T, TextError> {
        self.bill(&leg.invoice);
        if let Some(sched) = self.sched {
            let t = sched.issue(shard, leg.invoice.ticks());
            if t.crossed_deadline {
                self.emit_event(EventKind::DeadlineMiss { shard });
            }
        }
        leg.value
    }

    /// Receives a call that is no transport leg: bills its invoice.
    fn billed<T>(&self, call: Billed<T>) -> Result<T, TextError> {
        self.bill(&call.invoice);
        call.value
    }

    /// Runs an unsharded server operation as one serial leg under the
    /// context's retry policy, each wait charged to the service as a whole.
    fn unsharded<T>(&self, op: impl FnMut() -> Billed<T>) -> Result<T, TextError> {
        let backoff = |seconds| self.server.backoff_billed(seconds);
        let leg = self.attempts(None, self.retry, |_| {}, op, backoff);
        self.leg(None, leg)
    }

    /// Retry loop for one replica leg, its backoff charged to that replica.
    /// On the primary leg only (`feed_budget`) each attempt's outcome feeds
    /// the budget's EWMA, which models the primary's health for the breaker.
    fn leg_attempts<T>(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        replica: usize,
        policy: RetryPolicy,
        feed_budget: bool,
        op: &mut impl FnMut(usize) -> Billed<T>,
    ) -> Billed<T> {
        let fed = self.budget.filter(|_| feed_budget);
        let observe = |faulted| fed.iter().for_each(|b| b.observe(shard, faulted));
        let backoff = |seconds| sh.charge_replica_backoff(shard, replica, seconds);
        self.attempts(Some(shard), policy, observe, || op(replica), backoff)
    }

    /// One retried leg, billed for the caller to receive: `op`'s attempts
    /// under `policy`, each shown to `observe`, each wait charged by
    /// `backoff` and announced as a `Retry` on `shard`.
    fn attempts<T>(
        &self,
        shard: Option<usize>,
        policy: RetryPolicy,
        observe: impl FnMut(bool),
        op: impl FnMut() -> Billed<T>,
        backoff: impl Fn(f64) -> Usage,
    ) -> Billed<T> {
        policy.run(op, observe, |attempt, seconds| {
            let wait = backoff(seconds);
            self.emit_event(EventKind::Retry { shard, attempt });
            wait
        })
    }

    /// One shard leg with replica failover; `op` addresses a replica.
    /// With R=1 it is the shard's retry loop. With R>1 it consults the
    /// breaker, if a budget is attached: open, the primary is skipped
    /// (charged nothing); on a half-open turn it gets one attempt, whose
    /// success closes the breaker; otherwise its full adaptive retry loop.
    /// On transient exhaustion the leg fails over through the secondaries
    /// in routing order (base policy, EWMA untouched), and errs only when
    /// every replica is down.
    fn replicated_attempts<T>(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        mut op: impl FnMut(usize) -> Billed<T>,
    ) -> Result<T, TextError> {
        let order = sh.routing_order(shard);
        if order.len() == 1 {
            let policy = self.shard_policy(shard);
            let leg = self.leg_attempts(sh, shard, order[0], policy, true, &mut op);
            return self.leg(Some(shard), leg);
        }
        let primary = order[0];
        match self.budget.map(|b| (b, b.route(shard))) {
            None | Some((_, Route::Primary)) => {
                let policy = self.shard_policy(shard);
                let leg = self.leg_attempts(sh, shard, primary, policy, true, &mut op);
                if leg.value.is_ok() {
                    return self.settle_primary_leg(sh, shard, primary, order[1], leg, &mut op);
                }
                if let Err(e) = self.leg(Some(shard), leg) {
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
            Some((b, Route::HalfOpenProbe)) => match self.leg(Some(shard), op(primary)) {
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
            },
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
            let leg = self.leg_attempts(sh, shard, r, self.retry, false, &mut op);
            self.leg(Some(shard), leg)
        })
    }

    /// Receives a *successful* primary leg and, when it was a straggler
    /// (invoiced above the shard's hedge threshold), races one hedge
    /// attempt on the first secondary: the virtual clock picks the winner
    /// and the loser is rebated by its own invoice. Replicas are
    /// consistent, so the caller keeps the primary's answer either way.
    fn settle_primary_leg<T>(
        &self,
        sh: &ShardedTextServer,
        shard: usize,
        primary: usize,
        hedge_replica: usize,
        leg: Billed<T>,
        op: &mut impl FnMut(usize) -> Billed<T>,
    ) -> Result<T, TextError> {
        let Some(sched) = self.sched else {
            return self.billed(leg);
        };
        let cost = leg.invoice.ticks();
        // Threshold first, then feed: a straggler must not raise the bar
        // it is judged against.
        let threshold = self.budget.and_then(|b| {
            let t = b.hedge_threshold(shard);
            b.observe_latency(shard, cost);
            t
        });
        let Some(threshold) = threshold.filter(|&t| cost > t) else {
            return self.leg(Some(shard), leg);
        };
        self.bill(&leg.invoice);
        self.emit_event(EventKind::Hedge {
            shard,
            replica: hedge_replica,
        });
        let hedged = op(hedge_replica);
        self.bill(&hedged.invoice);
        let (hedge, ok) = (hedged.invoice.ticks(), hedged.value.is_ok());
        let timing = sched.race(shard, cost, threshold, hedge, ok);
        if timing.crossed_deadline {
            self.emit_event(EventKind::DeadlineMiss { shard: Some(shard) });
        }
        let (loser, invoice) = if timing.hedge_won {
            (primary, &leg.invoice)
        } else {
            (hedge_replica, &hedged.invoice)
        };
        self.bill(&sh.replica(shard, loser).rebate(invoice));
        self.emit_event(EventKind::Cancel {
            shard,
            replica: loser,
        });
        leg.value
    }

    /// One scatter phase: `gather` runs under a `gather` span, its shard
    /// legs overlapping on the virtual clock.
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
        op: impl FnMut(usize) -> Billed<T>,
        ids: impl FnOnce(&T) -> Vec<DocId>,
    ) -> Result<T, TextError> {
        let _shard_span = self.span(&format!("gather/shard{i}"));
        let out = self.replicated_attempts(sh, i, op)?;
        self.note_doc_traffic(i, &ids(&out));
        Ok(out)
    }

    /// Scatter/gather search: the service's gather loop (stats-routing
    /// pruning, epoch re-scatter) over the client's shard legs. Transient
    /// exhaustion at a shard yields a typed
    /// [`PartialShardError`](textjoin_text::shard::PartialShardError);
    /// other errors propagate raw for the callers' re-packaging paths.
    ///
    /// A replicated gather that still fails is completed from the error's
    /// partial results: what was shipped is reused, only the missing
    /// keyspace re-scattered (unreplicated, that would re-buy the same
    /// postings from the same dead shard). Each round, a serial leg under
    /// a `complete-gather[k/n]` span of its own partial state, continues
    /// while it gathers strictly more shards; otherwise its error stands.
    fn sharded_search(
        &self,
        sh: &ShardedTextServer,
        expr: &SearchExpr,
    ) -> Result<SearchResult, TextError> {
        if expr.term_count() > self.server.max_terms() {
            // Route through the service so the rejection is ledgered once.
            return self.billed(self.server.search_billed(expr));
        }
        let leg = |i| {
            let search = |r| self.paced(sh, || sh.search_replica(i, r, expr));
            self.shard_leg(sh, i, search, SearchResult::ids)
        };
        let mut out = self.scatter_phase(|| {
            sh.gather_search(vec![None; sh.shard_count()], sh.topology_epoch(), expr, leg)
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
                let round = sh.complete_gather_from(&pse.partial, expr, pse.epoch);
                match self.leg(None, round) {
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
            None => self.unsharded(|| self.server.search_billed(expr)),
        }
    }

    /// Retrying [`TextService::probe`]. Sharded probing is all-shards-or-
    /// error: a partial id list would silently drop candidates, so the
    /// typed error sends the caller down its degradation path instead.
    pub(crate) fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        self.guard_budget()?;
        match self.server.as_sharded() {
            Some(sh) => Ok(self.sharded_search(sh, expr)?.ids()),
            None => self.unsharded(|| self.server.probe_billed(expr)),
        }
    }

    /// Degrading probe: probing only prunes, so a server down past the
    /// retry budget yields `None` ("unknown — don't prune"), not an error.
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
            None => self.unsharded(|| self.server.retrieve_billed(id)),
        }
    }

    /// Retrying [`TextService::search_batch`]: a transient fault retries
    /// the whole batch. Sharded batches scatter per shard; a shard that
    /// exhausts its budget yields the typed shard error with no partial
    /// sets (the batch is all-or-error).
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
                        |r| self.paced(sh, || sh.batch_replica(i, r, exprs)),
                        |b| b.results.iter().flat_map(SearchResult::ids).collect(),
                    )
                })
            }),
            Some(_) => self.billed(self.server.search_batch_billed(exprs)),
            None => self.unsharded(|| self.server.search_batch_billed(exprs)),
        }
    }

    /// A replica search or batch after the migration pacing tick it owes.
    /// The paced transfer is billed to the context but not to the leg: the
    /// scheduler times a leg by what its replica booked.
    fn paced<T>(&self, sh: &ShardedTextServer, call: impl FnOnce() -> Billed<T>) -> Billed<T> {
        self.bill(&sh.pace_migration());
        call()
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
