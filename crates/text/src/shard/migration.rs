//! The online migration engine: staging, the charged transfer legs, commit,
//! abort, and the pacing tick that runs batches *under* live queries. Plans
//! and the journal types live in [`crate::rebalance`].


use textjoin_obs::{Charge, EventKind};

use super::ShardedTextServer;
use crate::doc::DocId;
use crate::faults::Fault;
use crate::rebalance::{
    MigrationJournal, MigrationPlan, MigrationProgress, MigrationState, MoveJournal, MoveStatus,
    StagedDoc,
};
use crate::server::{TextError, Usage};
use crate::service::TextService;

/// The migration's next live move, if it has one: steps past the moves
/// already `Done` or `Aborted` (a terminal move holds no cursor, so nothing
/// is lost) and returns the state with the index the next batch works on.
fn live_move(st: &mut Option<MigrationState>) -> Option<(&mut MigrationState, usize)> {
    let state = st.as_mut()?;
    let entries = &state.journal.entries;
    let terminal = |e: &MoveJournal| matches!(e.status, MoveStatus::Done | MoveStatus::Aborted);
    while entries.get(state.current).is_some_and(terminal) {
        state.current += 1;
        state.cursor = 0;
    }
    let mv = state.current;
    (mv < state.plan.moves.len()).then_some((state, mv))
}

impl ShardedTextServer {
    /// Runs the active migration one batch forward for every `every`-th
    /// query leg (0 disables): the deterministic interleaving that puts
    /// topology changes *under* live queries.
    pub fn set_migration_pacing(&self, every: u64) {
        self.pacing.set(every);
        self.ops_since_step.set(0);
    }

    /// Snapshot of the dedicated migration usage bucket — disjoint from
    /// every per-shard query ledger, included in the aggregate
    /// [`usage`](TextService::usage).
    pub fn migration_usage(&self) -> Usage {
        *self.migration_usage.borrow()
    }

    /// The current journal, if a migration was ever begun.
    pub fn journal(&self) -> Option<MigrationJournal> {
        self.migration.borrow().as_ref().map(|m| m.journal.clone())
    }

    /// Whether any move still has work left.
    pub fn migration_active(&self) -> bool {
        self.migration
            .borrow()
            .as_ref()
            .is_some_and(|m| !m.journal.finished())
    }

    /// The non-terminal move the next batch will execute: `(move index,
    /// src, dst)`.
    pub fn current_move(&self) -> Option<(usize, usize, usize)> {
        let mut st = self.migration.borrow_mut();
        let (state, mv) = live_move(&mut st)?;
        let e = &state.journal.entries[mv];
        Some((mv, e.src, e.dst))
    }

    /// Stages `plan` for online execution and returns the initial journal.
    ///
    /// Staging gives every destination replica an invisible physical copy
    /// of each in-flight document (so any replica can serve it the moment
    /// its batch commits) and extends the local→global tables. Staging is
    /// free: the *chargeable* transfer is simulated by the `xfer.out` /
    /// `xfer.in` legs of [`migrate_batch`](Self::migrate_batch), which
    /// book into the dedicated [migration bucket](Self::migration_usage).
    /// Routing is untouched until a batch commits, so queries keep seeing
    /// exactly the pre-migration topology. Panics on a malformed plan or
    /// when a migration is already in flight (misuse, same contract as the
    /// constructor asserts).
    pub fn begin_migration(&mut self, plan: MigrationPlan) -> MigrationJournal {
        assert!(!self.migration_active(), "a migration is already in flight");
        let n_shards = self.replicas.len();
        let mut staged_all = Vec::with_capacity(plan.moves.len());
        let mut entries = Vec::with_capacity(plan.moves.len());
        let mut total_docs = 0u64;
        for m in &plan.moves {
            assert!(
                m.src < n_shards && m.dst < n_shards,
                "move names an unknown shard"
            );
            assert_ne!(m.src, m.dst, "a move never targets its own source");
            let mut staged = Vec::new();
            for g in m.range.0 .0..m.range.1 .0 {
                let global = DocId(g);
                let (owner, src_local) = self.route.borrow()[g as usize];
                if owner != m.src {
                    continue;
                }
                let doc = self.replicas[m.src][0]
                    .collection()
                    .document(src_local)
                    .expect("routed docids are dense")
                    .clone();
                let before = self.replicas[m.dst][0].collection().total_postings();
                let mut dst_local = None;
                for r in 0..self.replicas[m.dst].len() {
                    let local = self.replicas[m.dst][r]
                        .collection_mut()
                        .add_document(doc.clone());
                    match dst_local {
                        None => dst_local = Some(local),
                        Some(prev) => {
                            assert_eq!(prev, local, "replica collections stay identical")
                        }
                    }
                }
                let dst_local = dst_local.expect("at least one replica");
                let postings =
                    (self.replicas[m.dst][0].collection().total_postings() - before) as u64;
                self.hidden.borrow_mut()[m.dst].insert(dst_local);
                self.to_global[m.dst].push(global);
                staged.push(StagedDoc {
                    global,
                    src_local,
                    dst_local,
                    postings,
                });
            }
            entries.push(MoveJournal {
                src: m.src,
                dst: m.dst,
                docs: staged.len() as u64,
                high_water: None,
                status: if staged.is_empty() {
                    MoveStatus::Done
                } else {
                    MoveStatus::Pending
                },
            });
            total_docs += staged.len() as u64;
            staged_all.push(staged);
        }
        let journal = MigrationJournal {
            begun_at_epoch: self.epoch.get(),
            entries,
        };
        self.emit(EventKind::MigrationBegin {
            moves: plan.moves.len() as u64,
            docs: total_docs,
            epoch: self.epoch.get(),
        });
        *self.migration.borrow_mut() = Some(MigrationState {
            plan,
            journal: journal.clone(),
            staged: staged_all,
            current: 0,
            cursor: 0,
            in_flight: 0,
            delivered: 0,
        });
        journal
    }

    /// One transfer leg (`xfer.out` at the `"source"` end, `xfer.in` at the
    /// `"destination"`): a single attempt per replica of `shard` in `order`,
    /// each drawing its fate from the replica's own fault plan. A refusal
    /// costs the connection alone; for any other draw `attempt` gives the
    /// postings delivered before a timeout (`None` when the transfer goes
    /// through) and the payload charge. The leg adds the connection and
    /// fault counters, books the attempt into the migration bucket and
    /// emits the matching `Call` event, so the trace↔ledger audit covers
    /// transfers exactly. Fails transiently when every replica refuses.
    fn xfer_leg(
        &self,
        op: &'static str,
        end: &str,
        shard: usize,
        order: &[usize],
        mut attempt: impl FnMut(Option<Fault>) -> (Option<u64>, Charge),
    ) -> Result<(), TextError> {
        let c_i = self.constants().c_i;
        self.failover(shard, order, |r| {
            let server = &self.replicas[shard][r];
            let (err, payload) = match server.fault_plan().next_search_fault(server.max_terms()) {
                Some(Fault::Unavailable) => (
                    Some(format!("transfer {end} unavailable")),
                    Charge::default(),
                ),
                fault => {
                    let (cut, payload) = attempt(fault);
                    let err = cut.map(|p| format!("transfer {end} timeout after {p} postings"));
                    (err, payload)
                }
            };
            let out = if err.is_some() {
                Err(TextError::Unavailable)
            } else {
                Ok(())
            };
            let charge = Charge {
                invocations: 1,
                faults: i64::from(out.is_err()),
                time_invocation: c_i,
                ..payload
            };
            self.migration_usage.borrow_mut().book(&charge);
            self.emit(EventKind::Call {
                op,
                shard: Some(shard),
                terms: 0,
                err,
                charge,
            });
            out
        })
    }

    /// Runs the active migration one bounded batch forward, reading the
    /// source replicas in their routing order.
    ///
    /// A batch is two charged legs plus a commit:
    ///
    /// 1. **source leg** (`xfer.out`): one invocation plus `c_l` per
    ///    document, failing over through the source replicas; every
    ///    faulted attempt is booked. If every replica refuses, nothing is
    ///    in flight and the call fails transiently — the journal cursor is
    ///    unchanged.
    /// 2. **destination leg** (`xfer.in`): one invocation plus `c_p` per
    ///    posting. A `Timeout` delivers (and charges) a prefix; the
    ///    journal remembers it, so resumption ingests only the remainder —
    ///    transferred postings are never re-bought. If every replica
    ///    refuses, the fetched batch stays in flight and the next call
    ///    resumes the destination leg (`MigrationResume`) without
    ///    re-reading the source.
    /// 3. **commit**: the batch's documents flip visibility (hidden on the
    ///    source, visible on the destination), re-route, bump the topology
    ///    epoch, and advance the journal high-water mark.
    pub fn migrate_batch(&self) -> Result<MigrationProgress, TextError> {
        struct Work {
            mv: usize,
            src: usize,
            dst: usize,
            start: usize,
            n: usize,
            resumed: bool,
            delivered: u64,
            batch_postings: u64,
        }
        let work = {
            let mut st = self.migration.borrow_mut();
            let Some((state, mv)) = live_move(&mut st) else {
                return Ok(MigrationProgress::Idle);
            };
            let entry = &state.journal.entries[mv];
            let staged = &state.staged[mv];
            let resumed = state.in_flight > 0;
            let n = if resumed {
                state.in_flight
            } else {
                state.plan.batch_docs.min(staged.len() - state.cursor)
            };
            let start = state.cursor;
            let batch_postings = staged[start..start + n].iter().map(|d| d.postings).sum();
            Work {
                mv,
                src: entry.src,
                dst: entry.dst,
                start,
                n,
                resumed,
                delivered: state.delivered,
                batch_postings,
            }
        };
        let c = self.constants();
        let slow = |fault: Option<Fault>| match fault {
            Some(Fault::Slow { delta_s }) => f64::from(delta_s),
            _ => 0.0,
        };
        if work.resumed {
            self.emit(EventKind::MigrationResume {
                mv: work.mv as u64,
                src: work.src,
                dst: work.dst,
                docs: work.n as u64,
                epoch: self.epoch.get(),
            });
        } else {
            let order = &self.routing_order(work.src);
            self.xfer_leg("xfer.out", "source", work.src, order, |fault| match fault {
                // An out-leg timeout yields no usable documents: long forms
                // are all-or-nothing per doc, and the batch is re-read whole
                // from the next replica.
                Some(Fault::Timeout { after_postings }) => {
                    (Some(after_postings), Charge::default())
                }
                // None, CapReduced (caps do not bound transfers), or Slow
                // (latency-only) — the read succeeds.
                fault => (
                    None,
                    Charge {
                        docs_long: work.n as i64,
                        time_transmission: c.c_l * work.n as f64,
                        time_backoff: slow(fault),
                        ..Charge::default()
                    },
                ),
            })?;
            let mut st = self.migration.borrow_mut();
            let state = st.as_mut().expect("active migration");
            state.in_flight = work.n;
            state.delivered = 0;
            state.journal.entries[work.mv].status = MoveStatus::InProgress;
        }
        let mut delivered = work.delivered;
        let order = self.routing_order(work.dst);
        let ingested = self.xfer_leg("xfer.in", "destination", work.dst, &order, |fault| {
            let (cut, postings) = match fault {
                Some(Fault::Timeout { after_postings }) => {
                    let part = after_postings.min(work.batch_postings - delivered);
                    delivered += part;
                    (Some(part), part)
                }
                _ => (None, work.batch_postings - delivered),
            };
            let payload = Charge {
                postings: postings as i64,
                time_processing: c.c_p * postings as f64,
                time_backoff: slow(fault),
                ..Charge::default()
            };
            (cut, payload)
        });
        if let Err(e) = ingested {
            // The fetched batch stays in flight; the postings already
            // delivered are journaled so resumption never re-buys them.
            let mut st = self.migration.borrow_mut();
            let state = st.as_mut().expect("active migration");
            state.delivered = delivered;
            return Err(e);
        }
        let (high_water, move_done, finished) = {
            let mut st = self.migration.borrow_mut();
            let state = st.as_mut().expect("active migration");
            let batch = &state.staged[work.mv][work.start..work.start + work.n];
            {
                let mut hidden = self.hidden.borrow_mut();
                let mut route = self.route.borrow_mut();
                for sd in batch {
                    hidden[work.src].insert(sd.src_local);
                    hidden[work.dst].remove(&sd.dst_local);
                    route[sd.global.0 as usize] = (work.dst, sd.dst_local);
                }
            }
            let high_water = batch.last().expect("batches are non-empty").global;
            state.cursor += work.n;
            state.in_flight = 0;
            state.delivered = 0;
            let entry = &mut state.journal.entries[work.mv];
            entry.high_water = Some(high_water);
            let move_done = state.cursor == state.staged[work.mv].len();
            if move_done {
                entry.status = MoveStatus::Done;
                state.current += 1;
                state.cursor = 0;
            }
            (high_water, move_done, state.journal.finished())
        };
        let epoch = self.epoch.get() + 1;
        self.epoch.set(epoch);
        self.epoch_log
            .borrow_mut()
            .push((epoch, work.src, work.dst));
        self.emit(EventKind::MigrationBatch {
            mv: work.mv as u64,
            src: work.src,
            dst: work.dst,
            docs: work.n as u64,
            postings: work.batch_postings,
            high_water: u64::from(high_water.0),
            epoch,
        });
        Ok(MigrationProgress::Committed {
            mv: work.mv,
            docs: work.n,
            resumed: work.resumed,
            move_done,
            finished,
        })
    }

    /// Cleanly abandons the current move: its committed documents revert
    /// to the pre-move routing (visibility flips back), the journal marks
    /// it `Aborted`, and the epoch bumps so in-flight gathers re-scatter
    /// the affected shards. Sunk transfer charges stay booked — they were
    /// spent — but rows are never wrong. Returns `false` when there is no
    /// move to abort.
    pub fn abort_current_move(&self) -> bool {
        let (mv, src, dst, committed) = {
            let mut st = self.migration.borrow_mut();
            let Some((state, mv)) = live_move(&mut st) else {
                return false;
            };
            let src = state.journal.entries[mv].src;
            let dst = state.journal.entries[mv].dst;
            let committed = state.cursor;
            {
                let mut hidden = self.hidden.borrow_mut();
                let mut route = self.route.borrow_mut();
                for sd in &state.staged[mv][..committed] {
                    hidden[src].remove(&sd.src_local);
                    hidden[dst].insert(sd.dst_local);
                    route[sd.global.0 as usize] = (src, sd.src_local);
                }
            }
            let entry = &mut state.journal.entries[mv];
            entry.status = MoveStatus::Aborted;
            entry.high_water = None;
            state.cursor = 0;
            state.in_flight = 0;
            state.delivered = 0;
            state.current += 1;
            (mv, src, dst, committed)
        };
        let epoch = self.epoch.get() + 1;
        self.epoch.set(epoch);
        self.epoch_log.borrow_mut().push((epoch, src, dst));
        self.emit(EventKind::MigrationAbort {
            mv: mv as u64,
            src,
            dst,
            reverted: committed as u64,
            epoch,
        });
        true
    }

    /// Drives the active migration to completion (for fault-free paths;
    /// transient transfer failures propagate for the caller's retry loop,
    /// resuming from the journal).
    pub fn run_migration(&self) -> Result<(), TextError> {
        loop {
            match self.migrate_batch()? {
                MigrationProgress::Idle => return Ok(()),
                MigrationProgress::Committed { .. } => {}
            }
        }
    }

    /// The per-query-leg migration pacing tick (free when pacing is off or
    /// no migration is active). A transiently failed step simply waits for
    /// the next tick — that retry is exactly the journal-resume path.
    pub(super) fn pace_migration(&self) {
        let every = self.pacing.get();
        if every == 0 || !self.migration_active() {
            return;
        }
        let n = self.ops_since_step.get() + 1;
        if n >= every {
            self.ops_since_step.set(0);
            let _ = self.migrate_batch();
        } else {
            self.ops_since_step.set(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::corpus;
    use super::*;
    use crate::faults::{Fault, FaultPlan};
    use crate::rebalance::Move;
    use crate::server::TextServer;

    #[test]
    fn migration_preserves_results_and_reroutes_ownership() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        let plan = MigrationPlan::seeded(3, 4, 40, 3, 2);
        let journal = sharded.begin_migration(plan.clone());
        assert_eq!(journal.begun_at_epoch, 0);
        // Staging alone changes nothing visible and costs nothing.
        assert_eq!(TextService::topology_epoch(&sharded), 0);
        assert_eq!(sharded.migration_usage(), Usage::default());
        sharded.run_migration().unwrap();
        let journal = sharded.journal().unwrap();
        assert!(journal.finished());
        for (e, m) in journal.entries.iter().zip(&plan.moves) {
            assert_eq!(e.status, MoveStatus::Done, "move {m:?}");
            if e.docs > 0 {
                assert!(e.high_water.is_some());
                // Every staged docid now routes to the destination.
                for g in m.range.0 .0..m.range.1 .0 {
                    assert_ne!(sharded.owner_of(DocId(g)), Some(m.src));
                }
            }
        }
        assert!(
            TextService::topology_epoch(&sharded) > 0,
            "commits bump the epoch"
        );
        // Transfers were charged: both legs, postings and long docs > 0.
        let mu = sharded.migration_usage();
        assert!(mu.invocations >= 2 && mu.postings_processed > 0 && mu.docs_long > 0);
        // Queries and retrieves still agree with the single server exactly.
        let want = single.search_str("TI='shared'").unwrap();
        let got = TextService::search_str(&sharded, "TI='shared'").unwrap();
        assert_eq!(got.ids(), want.ids());
        assert_eq!(got.docs, want.docs);
        for g in [0u32, 11, 23, 39] {
            assert_eq!(
                TextService::retrieve(&sharded, DocId(g)).unwrap(),
                single.retrieve(DocId(g)).unwrap()
            );
        }
    }

    #[test]
    fn migration_bucket_is_disjoint_from_query_ledgers() {
        let coll = corpus(40);
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        sharded.begin_migration(MigrationPlan::seeded(3, 4, 40, 2, 4));
        sharded.run_migration().unwrap();
        let mu = sharded.migration_usage();
        assert!(mu.total_cost() > 0.0);
        // No per-shard query ledger saw a transfer charge...
        for i in 0..4 {
            assert_eq!(sharded.shard_usage(i), Usage::default(), "shard {i}");
        }
        // ...yet the aggregate ledger carries the bucket exactly.
        assert_eq!(TextService::usage(&sharded), mu);
        TextService::search_str(&sharded, "TI='shared'").unwrap();
        let mut want = mu;
        for i in 0..4 {
            want.accumulate(&sharded.shard_usage(i));
        }
        assert_eq!(TextService::usage(&sharded), want, "bucket + shard sums");
    }

    #[test]
    fn reset_usage_clears_the_migration_bucket() {
        let coll = corpus(40);
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        sharded.begin_migration(MigrationPlan::seeded(3, 4, 40, 2, 4));
        sharded.run_migration().unwrap();
        assert!(
            TextService::usage(&sharded).total_cost() > 0.0,
            "transfers were booked"
        );
        sharded.reset_usage();
        assert_eq!(TextService::usage(&sharded), Usage::default());
        assert_eq!(sharded.migration_usage(), Usage::default());
    }

    #[test]
    fn interrupted_destination_resumes_without_rebuying_postings() {
        let coll = corpus(40);
        // Fault-free control run to learn the exact transfer invoice.
        let mut control = ShardedTextServer::new(&coll, 4, 7);
        let src = control.owner_of(DocId(0)).unwrap();
        let dst = (src + 1) % 4;
        let mv = Move {
            range: (DocId(0), DocId(40)),
            src,
            dst,
        };
        control.begin_migration(MigrationPlan::new(vec![mv], 40));
        control.run_migration().unwrap();
        let control_postings = control.migration_usage().postings_processed;
        assert!(control_postings > 0);

        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        // The destination times out mid-ingest, then dies once more before
        // recovering: two interrupted attempts, one resume each.
        sharded
            .replica_mut(dst, 0)
            .set_fault_plan(FaultPlan::scripted(vec![
                (0, Fault::Timeout { after_postings: 3 }),
                (1, Fault::Unavailable),
            ]));
        sharded.begin_migration(MigrationPlan::new(vec![mv], 40));
        assert!(matches!(
            sharded.migrate_batch(),
            Err(TextError::Unavailable)
        ));
        assert!(matches!(
            sharded.migrate_batch(),
            Err(TextError::Unavailable)
        ));
        let got = sharded.migrate_batch().unwrap();
        assert_eq!(
            got,
            MigrationProgress::Committed {
                mv: 0,
                docs: sharded.journal().unwrap().entries[0].docs as usize,
                resumed: true,
                move_done: true,
                finished: true,
            }
        );
        let mu = sharded.migration_usage();
        assert_eq!(
            mu.postings_processed, control_postings,
            "interrupts never re-buy postings: the timed-out prefix is kept"
        );
        assert_eq!(mu.faults, 2);
        // The source leg ran exactly once: docs_long charged once.
        assert_eq!(mu.docs_long, control.migration_usage().docs_long);
    }

    #[test]
    fn dead_source_primary_drains_through_a_replica() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let mut sharded = ShardedTextServer::replicated(&coll, 4, 2, 7);
        let src = sharded.owner_of(DocId(5)).unwrap();
        let dst = (src + 1) % 4;
        let p = sharded.primary_of(src);
        sharded
            .replica_mut(src, p)
            .set_fault_plan(FaultPlan::dead(9));
        sharded.begin_migration(MigrationPlan::new(
            vec![Move {
                range: (DocId(0), DocId(40)),
                src,
                dst,
            }],
            3,
        ));
        sharded.run_migration().unwrap();
        assert_eq!(
            sharded.journal().unwrap().entries[0].status,
            MoveStatus::Done
        );
        assert!(
            sharded.migration_usage().faults > 0,
            "dead primary billed faults"
        );
        let want = single.search_str("TI='shared'").unwrap();
        let got = TextService::search_str(&sharded, "TI='shared'").unwrap();
        assert_eq!(got.docs, want.docs, "drained via replica, rows exact");
    }

    #[test]
    fn unresumable_move_aborts_back_to_pre_move_routing() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        let src = sharded.owner_of(DocId(0)).unwrap();
        let dst = (src + 1) % 4;
        sharded.begin_migration(MigrationPlan::new(
            vec![Move {
                range: (DocId(0), DocId(40)),
                src,
                dst,
            }],
            1,
        ));
        // One batch commits, then the operator gives up on the move.
        sharded.migrate_batch().unwrap();
        let moved = DocId(0);
        assert_eq!(sharded.owner_of(moved), Some(dst));
        let epoch_before = TextService::topology_epoch(&sharded);
        assert!(sharded.abort_current_move());
        assert_eq!(sharded.owner_of(moved), Some(src), "committed doc reverted");
        assert_eq!(
            sharded.journal().unwrap().entries[0].status,
            MoveStatus::Aborted
        );
        assert!(sharded.journal().unwrap().finished());
        assert!(!sharded.migration_active());
        assert_eq!(TextService::topology_epoch(&sharded), epoch_before + 1);
        assert!(!sharded.abort_current_move(), "nothing left to abort");
        // Rows are never wrong: results match the single server again.
        let want = single.search_str("TI='shared'").unwrap();
        let got = TextService::search_str(&sharded, "TI='shared'").unwrap();
        assert_eq!(got.docs, want.docs);
        assert_eq!(
            TextService::retrieve(&sharded, moved).unwrap(),
            single.retrieve(moved).unwrap()
        );
    }

    #[test]
    fn stats_routing_stays_sound_during_migration() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        sharded.set_stats_routing(true);
        sharded.begin_migration(MigrationPlan::seeded(5, 4, 40, 4, 2));
        sharded.set_migration_pacing(1);
        while sharded.migration_active() {
            for probe in ["AU='author17'", "AU='author3'", "TI='shared'"] {
                let got = TextService::search_str(&sharded, probe).unwrap();
                let want = single.search_str(probe).unwrap();
                assert_eq!(got.docs, want.docs, "{probe} exact mid-migration");
            }
        }
    }
}
