//! Scatter/gather over the shards: the per-replica legs, the one failover
//! pass, and the one epoch-watching gather loop.
//!
//! Every scatter — the service's own `search` / `search_batch`, gather
//! completion, and the core layer's per-shard retrying scatter — is the
//! private `gather` below with a different leg, so what a gather does when
//! a shard is pruned, a replica fails or a migration commits underneath it
//! is written once. Legs run in ascending shard order and replicas in
//! routing order, which keeps every trace byte-identical whoever calls.

use std::fmt;

use textjoin_obs::{Charge, EventKind};

use super::ShardedTextServer;
use crate::batch::BatchResult;
use crate::doc::{DocId, Document, ShortForms};
use crate::expr::SearchExpr;
use crate::server::{SearchResult, TextError};
use crate::service::{Billed, TextService};

/// A shard that exhausted its retries mid-gather. Carries the per-shard
/// results already gathered (and charged) before the failure, so callers
/// can account for — or re-route around — exactly what is missing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialShardError {
    /// Per-shard results gathered before the failure, index-parallel to the
    /// shards: `Some` for shards that answered, `None` for the failed shard
    /// and any shard not yet reached. Empty when the gather carried no
    /// per-shard result sets (probe and batch gathers).
    pub partial: Vec<Option<SearchResult>>,
    /// Index of the shard that failed.
    pub failed_shard: usize,
    /// The underlying (transient, retry-exhausted) failure.
    pub error: TextError,
    /// Topology epoch in force when the gather failed. Resuming through
    /// [`ShardedTextServer::complete_gather_from`] compares it against the
    /// current epoch to invalidate partial slots a concurrent migration
    /// commit made stale — so migration-vs-fault diagnoses read directly
    /// off the error chain.
    pub epoch: u64,
}

impl PartialShardError {
    /// Number of shards that had already answered when the gather failed.
    pub fn gathered(&self) -> usize {
        self.partial.iter().filter(|r| r.is_some()).count()
    }
}

impl fmt::Display for PartialShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard {} failed mid-gather at epoch {}: gathered {}/{} shards: {}",
            self.failed_shard,
            self.epoch,
            self.gathered(),
            self.partial.len(),
            self.error
        )
    }
}

impl std::error::Error for PartialShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl ShardedTextServer {
    /// Drops shard `i`'s hidden documents from `res` and remaps the rest
    /// from local to global docids.
    fn globalize(&self, i: usize, res: &mut SearchResult) {
        let hidden = self.hidden.borrow();
        // Staged copies append out of global order; the rename re-sorts.
        res.docs.rename(|local| {
            (!hidden[i].contains(&local)).then(|| self.to_global[i][local.0 as usize])
        });
    }

    /// Searches replica `r` of shard `i` only, remapping result docids to
    /// global ids, billed as that replica's search. A query leg ticks
    /// [`pace_migration`](Self::pace_migration) first, billed on its own.
    pub fn search_replica(&self, i: usize, r: usize, expr: &SearchExpr) -> Billed<SearchResult> {
        self.replicas[i][r].search_billed(expr).map(|mut res| {
            self.globalize(i, &mut res);
            res
        })
    }

    /// Runs a batch on replica `r` of shard `i` only, remapping every
    /// member result's docids to global ids (the replica applies its own
    /// invocation rebates), billed like [`search_replica`](Self::search_replica).
    pub fn batch_replica(&self, i: usize, r: usize, exprs: &[SearchExpr]) -> Billed<BatchResult> {
        self.replicas[i][r].search_batch_billed(exprs).map(|mut b| {
            for res in &mut b.results {
                self.globalize(i, res);
            }
            b
        })
    }

    /// Retrieves global docid `id` from replica `r` of shard `i`, billed.
    /// Fails, free, with `UnknownDoc` when `id` is unknown or not owned by
    /// shard `i`.
    pub fn retrieve_replica(&self, i: usize, r: usize, id: DocId) -> Billed<Document> {
        let routed = self.route.borrow().get(id.0 as usize).copied();
        match routed {
            Some((owner, local)) if owner == i => self.replicas[i][r].retrieve_billed(local),
            _ => Billed::summed(|_| Err(TextError::UnknownDoc(id))),
        }
    }

    /// Union-merges per-shard results into one result set in global docid
    /// order. Shard result sets are disjoint (the partition) and each is
    /// already sorted, so this is a pure merge of their hits; the result
    /// holds each shard's store once.
    pub(crate) fn merge(parts: Vec<SearchResult>) -> SearchResult {
        SearchResult {
            docs: ShortForms::merge(parts.into_iter().map(|r| r.docs)),
        }
    }

    /// Rejects expressions over the aggregate cap before any shard is
    /// contacted (mirrors the single server: rejected searches are free).
    pub(super) fn validate_cap(&self, expr: &SearchExpr) -> Result<(), TextError> {
        let cap = TextService::max_terms(self);
        let count = expr.term_count();
        if count > cap {
            let charge = Charge {
                rejected: 1,
                ..Charge::default()
            };
            self.emit(EventKind::Call {
                op: "search",
                shard: None,
                terms: count as u64,
                err: Some(format!("rejected: {count} terms > aggregate cap {cap}")),
                charge: self.extra.book(charge),
            });
            return Err(TextError::TooManyTerms { count, max: cap });
        }
        Ok(())
    }

    /// The one failover pass: a single `op` attempt per replica of `shard`
    /// in `order` (its [`routing_order`](Self::routing_order), unless a
    /// transfer demotes a replica), moving to the next replica (with a
    /// `Failover` event) when one fails transiently, and surfacing the last
    /// transient error when all do. Non-transient errors (cap
    /// renegotiations, syntax) propagate raw so the callers' re-packaging
    /// lattices keep working unchanged. With R=1 this is exactly one attempt
    /// on the shard.
    pub fn failover<T>(
        &self,
        shard: usize,
        order: &[usize],
        mut op: impl FnMut(usize) -> Result<T, TextError>,
    ) -> Result<T, TextError> {
        let mut last = TextError::Unavailable;
        for (pos, &r) in order.iter().enumerate() {
            match op(r) {
                Err(e) if e.is_transient() => {
                    if let Some(&next) = order.get(pos + 1) {
                        self.emit(EventKind::Failover {
                            shard,
                            replica: next,
                        });
                    }
                    last = e;
                }
                out => return out,
            }
        }
        Err(last)
    }

    /// The one epoch-watching gather loop. Fills the `None` slots of `done`
    /// in ascending shard order — `leg(i)` for a shard the `relevant` mask
    /// keeps, a free `empty()` for one stats routing prunes — then checks
    /// the topology epoch: if a migration batch committed since
    /// `from_epoch`, the slots of the shards it touched are invalidated (a
    /// charge-free [`RoutingStale`] event names them) and only those legs
    /// re-run at the new epoch. Terminates because migrations are finite.
    ///
    /// A leg's transient failure ends the gather with a typed
    /// [`PartialShardError`] carrying `partial(done)`; any other error
    /// propagates raw.
    ///
    /// [`RoutingStale`]: textjoin_obs::EventKind::RoutingStale
    fn gather<T>(
        &self,
        mut done: Vec<Option<T>>,
        mut from_epoch: u64,
        relevant: impl Fn() -> Vec<bool>,
        empty: impl Fn() -> T,
        mut leg: impl FnMut(usize) -> Result<T, TextError>,
        partial: impl FnOnce(Vec<Option<T>>) -> Vec<Option<SearchResult>>,
    ) -> Result<Vec<T>, TextError> {
        let mut mask = relevant();
        loop {
            let now = self.epoch.get();
            if now != from_epoch {
                let shards = self.shards_touched_since(from_epoch);
                for &i in &shards {
                    done[i] = None;
                }
                self.emit(EventKind::RoutingStale {
                    from_epoch,
                    to_epoch: now,
                    shards,
                });
                mask = relevant();
                from_epoch = now;
            }
            for i in 0..done.len() {
                if done[i].is_some() {
                    continue;
                }
                done[i] = Some(if !mask[i] {
                    empty()
                } else {
                    match leg(i) {
                        Ok(r) => r,
                        Err(e) if e.is_transient() => {
                            return Err(TextError::Shard(Box::new(PartialShardError {
                                partial: partial(done),
                                failed_shard: i,
                                error: e,
                                epoch: self.epoch.get(),
                            })))
                        }
                        Err(e) => return Err(e),
                    }
                });
            }
            if self.epoch.get() == from_epoch {
                return Ok(done.into_iter().map(|r| r.expect("all gathered")).collect());
            }
        }
    }

    /// Gathers `expr` over the shards `done` has not answered yet, routed
    /// at `from_epoch`, and union-merges. `leg(i)` buys shard `i`'s answer:
    /// the service passes its single-attempt failover pass, the core
    /// execution layer its retrying, breaker-aware one. A failed gather's
    /// [`PartialShardError`] carries the slots filled so far.
    pub fn gather_search(
        &self,
        done: Vec<Option<SearchResult>>,
        from_epoch: u64,
        expr: &SearchExpr,
        leg: impl FnMut(usize) -> Result<SearchResult, TextError>,
    ) -> Result<SearchResult, TextError> {
        let parts = self.gather(
            done,
            from_epoch,
            || self.relevant_shards(expr),
            SearchResult::default,
            leg,
            |d| d,
        )?;
        Ok(Self::merge(parts))
    }

    /// Batch analogue of [`gather_search`](Self::gather_search), from the
    /// current epoch: a shard is relevant when *any* member may match
    /// there, pruned shards answer every member with a free empty result,
    /// and the per-shard answers union-merge member-wise. All-or-error: a
    /// failed gather's [`PartialShardError`] carries no partial sets.
    pub fn gather_batch(
        &self,
        exprs: &[SearchExpr],
        leg: impl FnMut(usize) -> Result<BatchResult, TextError>,
    ) -> Result<BatchResult, TextError> {
        let n = self.replicas.len();
        let relevant = || {
            let masks: Vec<Vec<bool>> = exprs.iter().map(|e| self.relevant_shards(e)).collect();
            (0..n)
                .map(|i| masks.iter().any(|m| m[i]) || masks.is_empty())
                .collect()
        };
        let empty = || BatchResult {
            results: vec![SearchResult::default(); exprs.len()],
        };
        let mut per_shard = self.gather(
            vec![None; n],
            self.epoch.get(),
            relevant,
            empty,
            leg,
            |_| Vec::new(),
        )?;
        let results = (0..exprs.len())
            .map(|j| {
                let parts = per_shard
                    .iter_mut()
                    .map(|b| std::mem::take(&mut b.results[j]));
                Self::merge(parts.collect())
            })
            .collect();
        Ok(BatchResult { results })
    }

    /// Resumes a gather routed at `from_epoch` from the partial results a
    /// [`PartialShardError`] carried. Shards that answered are reused
    /// verbatim — their postings were paid for once — unless a migration
    /// batch has touched them since (a charge-free `RoutingStale` event
    /// names those); the rest of the keyspace is re-scattered, each leg
    /// failing over through the shard's replicas. A `partial` of another
    /// length (a batch gather's empty one) counts as all-missing. Fails
    /// with a fresh `TextError::Shard` only when every replica of a
    /// missing shard is still down. Bills everything the completion
    /// booked: each leg's attempts and the paced transfers before them.
    pub fn complete_gather_from(
        &self,
        partial: &[Option<SearchResult>],
        expr: &SearchExpr,
        from_epoch: u64,
    ) -> Billed<SearchResult> {
        let done: Vec<Option<SearchResult>> = if partial.len() == self.replicas.len() {
            partial.to_vec()
        } else {
            vec![None; self.replicas.len()]
        };
        Billed::summed(|invoice| {
            self.gather_search(done, from_epoch, expr, |i| {
                self.failover(i, &self.routing_order(i), |r| {
                    invoice.accumulate(&self.pace_migration());
                    let leg = self.search_replica(i, r, expr);
                    invoice.accumulate(&leg.invoice);
                    leg.value
                })
            })
        })
    }

    /// Shards touched (as source or destination) by commits and aborts
    /// since `epoch`, sorted and deduplicated.
    pub(crate) fn shards_touched_since(&self, epoch: u64) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .epoch_log
            .borrow()
            .iter()
            .filter(|&&(e, _, _)| e > epoch)
            .flat_map(|&(_, s, d)| [s, d])
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use textjoin_obs::Recorder;

    use super::super::tests::corpus;
    use super::*;
    use crate::faults::{Fault, FaultPlan};
    use crate::parse::parse_search;
    use crate::rebalance::{MigrationPlan, Move};
    use crate::server::TextServer;

    #[test]
    fn transient_shard_failure_carries_partial_gather() {
        let coll = corpus(40);
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        sharded
            .shard_mut(2)
            .set_fault_plan(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
        let err = TextService::search_str(&sharded, "TI='shared'").unwrap_err();
        let TextError::Shard(pse) = err else {
            panic!("expected a shard error, got {err}");
        };
        assert_eq!(pse.failed_shard, 2);
        assert_eq!(pse.gathered(), 2, "shards 0 and 1 had answered");
        assert!(pse.partial[0].is_some() && pse.partial[1].is_some());
        assert!(pse.partial[2].is_none() && pse.partial[3].is_none());
        // The failed attempt was still charged on shard 2's ledger.
        assert_eq!(sharded.shard_usage(2).faults, 1);
        assert_eq!(sharded.shard_usage(2).invocations, 1);
    }

    #[test]
    fn complete_gather_reuses_paid_partials() {
        let coll = corpus(40);
        let mut s = ShardedTextServer::new(&coll, 4, 7);
        s.shard_mut(2)
            .set_fault_plan(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
        let expr = parse_search("TI='shared'", TextService::schema(&s)).unwrap();
        let err = TextService::search(&s, &expr).unwrap_err();
        let TextError::Shard(pse) = err else {
            panic!("expected a shard error");
        };
        let before = s.shard_usage(0);
        let done = s.complete_gather_from(&pse.partial, &expr, pse.epoch);
        let done = done.value.unwrap();
        assert_eq!(
            s.shard_usage(0),
            before,
            "already-gathered shards are reused, never re-bought"
        );
        let single = TextServer::new(coll.clone());
        assert_eq!(done.docs, single.search(&expr).unwrap().docs);
    }

    #[test]
    fn batch_scatters_with_per_shard_rebates() {
        let coll = corpus(20);
        let sharded = ShardedTextServer::new(&coll, 4, 7);
        let au = TextService::schema(&sharded)
            .field_by_name("author")
            .unwrap();
        let exprs: Vec<SearchExpr> = (0..5)
            .map(|i| SearchExpr::term_in(&format!("author{i}"), au))
            .collect();
        let batch = TextService::search_batch(&sharded, &exprs).unwrap();
        assert_eq!(batch.results.len(), 5);
        for (i, r) in batch.results.iter().enumerate() {
            assert_eq!(r.ids(), vec![DocId(i as u32)], "member {i} finds its doc");
        }
        // Each shard charged one net invocation for the whole batch.
        let u = TextService::usage(&sharded);
        assert_eq!(u.invocations, 4, "batch rebate applied per shard");
    }

    #[test]
    fn paced_migration_under_live_queries_stays_exact_and_emits_stale() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        let sink = Rc::new(crate::obs::RingSink::unbounded());
        sharded.set_recorder(Some(Recorder::new(sink.clone())));
        sharded.begin_migration(MigrationPlan::seeded(3, 4, 40, 4, 1));
        sharded.set_migration_pacing(1);
        let want = single.search_str("TI='shared'").unwrap();
        while sharded.migration_active() {
            let got = TextService::search_str(&sharded, "TI='shared'").unwrap();
            assert_eq!(got.ids(), want.ids(), "exact mid-migration");
            assert_eq!(got.docs, want.docs);
        }
        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::RoutingStale { .. })),
            "a mid-gather commit re-scattered the affected shards"
        );
        assert!(
            events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::RoutingStale { .. }))
                .all(|e| e.kind.charge().is_none()),
            "re-scatter detection is free"
        );
    }

    #[test]
    fn complete_gather_from_an_older_epoch_regathers_moved_shards() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        let expr = parse_search("TI='shared'", TextService::schema(&sharded)).unwrap();
        // A full gather at epoch 0, kept as a stale partial.
        let partial: Vec<Option<SearchResult>> = (0..4)
            .map(|i| {
                Some(
                    sharded
                        .failover(i, &[0], |r| sharded.search_replica(i, r, &expr).value)
                        .unwrap(),
                )
            })
            .collect();
        let src = sharded.owner_of(DocId(0)).unwrap();
        let dst = (src + 1) % 4;
        sharded.begin_migration(MigrationPlan::new(
            vec![Move {
                range: (DocId(0), DocId(40)),
                src,
                dst,
            }],
            40,
        ));
        sharded.run_migration().unwrap();
        let before = TextService::usage(&sharded);
        let completed = sharded.complete_gather_from(&partial, &expr, 0);
        let res = completed.value.unwrap();
        assert_eq!(res.docs, single.search_str("TI='shared'").unwrap().docs);
        let delta = TextService::usage(&sharded).since(&before);
        assert_eq!(
            completed.invoice, delta,
            "the completion bills what it booked"
        );
        assert_eq!(
            delta.invocations, 2,
            "only the move's source and destination re-gathered"
        );
    }
}
