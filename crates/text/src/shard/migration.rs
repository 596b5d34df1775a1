//! The online migration engine: staging, the charged transfer legs, commit,
//! abort, and the pacing tick that runs batches *under* live queries. Plans
//! and the journal types live in [`crate::rebalance`].

use std::collections::BTreeSet;
use std::rc::Rc;

use textjoin_obs::{ns, Charge, EventKind};

use super::ShardedTextServer;
use crate::doc::{DocId, TextSchema};
use crate::faults::Fault;
use crate::index::Collection;
use crate::rebalance::{
    MigrationJournal, MigrationPlan, MigrationProgress, MigrationState, MoveJournal, MoveStatus,
    StagedDoc,
};
use crate::server::{TextError, TextServer, Usage};
use crate::service::TextService;

/// One write to a shard's collection for all its replicas: the others let go
/// of their handle, so the first's copy-on-write copies only what a sibling
/// cluster or the partition still holds, and then all hold the result.
fn write_shard(copies: &mut [TextServer], write: impl FnOnce(&mut Collection)) {
    let parked = Rc::new(Collection::new(TextSchema::new()));
    for s in &mut copies[1..] {
        s.share(Rc::clone(&parked));
    }
    write(copies[0].collection_mut());
    let coll = copies[0].share(parked);
    for s in copies.iter_mut() {
        s.share(Rc::clone(&coll));
    }
}

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
        self.migration_usage.get()
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
    /// Staging appends an invisible copy of each in-flight document to its
    /// destination shard, one write that all the shard's replicas share (so
    /// any can serve it once its batch commits), and extends the
    /// local→global tables. Staging is free: the *chargeable* transfer is
    /// simulated by the `xfer.out` / `xfer.in` legs of
    /// [`migrate_batch`](Self::migrate_batch), which book into the dedicated
    /// [migration bucket](Self::migration_usage). Routing is untouched until
    /// a batch commits, so queries keep seeing exactly the pre-migration
    /// topology. Panics on a malformed plan or when a migration is already
    /// in flight (misuse, same contract as the constructor asserts).
    pub fn begin_migration(&mut self, plan: MigrationPlan) -> MigrationJournal {
        assert!(!self.migration_active(), "a migration is already in flight");
        let n_shards = self.replicas.len();
        // Every move's in-flight documents, read before any shard is written.
        let mut moving = Vec::with_capacity(plan.moves.len());
        for m in &plan.moves {
            assert!(
                m.src < n_shards && m.dst < n_shards,
                "move names an unknown shard"
            );
            assert_ne!(m.src, m.dst, "a move never targets its own source");
            let route = self.route.borrow();
            let src = self.replicas[m.src][0].collection();
            let docs: Vec<_> = (m.range.0 .0..m.range.1 .0)
                .filter(|&g| route[g as usize].0 == m.src)
                .map(|g| {
                    let src_local = route[g as usize].1;
                    let doc = src.document(src_local).expect("routed docids are dense");
                    (DocId(g), src_local, doc.clone())
                })
                .collect();
            moving.push(docs);
        }
        let mut staged_all: Vec<Vec<StagedDoc>> = vec![Vec::new(); plan.moves.len()];
        for d in plan.moves.iter().map(|m| m.dst).collect::<BTreeSet<_>>() {
            let (hidden, to_global) = (&self.hidden, &mut self.to_global[d]);
            write_shard(&mut self.replicas[d], |coll| {
                for (mv, _) in plan.moves.iter().enumerate().filter(|(_, m)| m.dst == d) {
                    for (global, src_local, doc) in std::mem::take(&mut moving[mv]) {
                        let before = coll.total_postings();
                        let dst_local = coll.add_document(doc);
                        hidden.borrow_mut()[d].insert(dst_local);
                        to_global.push(global);
                        staged_all[mv].push(StagedDoc {
                            global,
                            src_local,
                            dst_local,
                            postings: (coll.total_postings() - before) as u64,
                        });
                    }
                }
            });
        }
        let entries: Vec<MoveJournal> = plan
            .moves
            .iter()
            .zip(&staged_all)
            .map(|(m, staged)| MoveJournal {
                src: m.src,
                dst: m.dst,
                docs: staged.len() as u64,
                high_water: None,
                status: if staged.is_empty() {
                    MoveStatus::Done
                } else {
                    MoveStatus::Pending
                },
            })
            .collect();
        let total_docs = entries.iter().map(|e| e.docs).sum();
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
    /// `"destination"`): a single attempt per replica of `shard` in its
    /// routing order, each drawing its fate from the replica's fault plan.
    /// A refusal costs the connection alone; for any other draw `attempt`
    /// gives the postings delivered before a timeout (`None` when the
    /// transfer goes through) and the payload's counts, with any slow wait
    /// as backoff ticks. The leg prices each attempt, books it into the
    /// migration bucket, adds it to `invoice` and emits the matching `Call`
    /// event. Fails transiently when every replica refuses.
    fn xfer_leg(
        &self,
        op: &'static str,
        end: &str,
        shard: usize,
        invoice: &mut Usage,
        mut attempt: impl FnMut(Option<Fault>) -> (Option<u64>, Charge),
    ) -> Result<(), TextError> {
        self.failover(shard, &self.routing_order(shard), |r| {
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
            let charge = self.constants().price(Charge {
                invocations: 1,
                faults: i64::from(out.is_err()),
                ..payload
            });
            self.emit(EventKind::Call {
                op,
                shard: Some(shard),
                terms: 0,
                err,
                charge: self.migration_usage.book(charge),
            });
            invoice.book(&charge);
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
        self.migrate_batch_into(&mut Usage::default())
    }

    /// [`migrate_batch`](Self::migrate_batch), adding its legs to `invoice`.
    fn migrate_batch_into(&self, invoice: &mut Usage) -> Result<MigrationProgress, TextError> {
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
        let slow = |fault: Option<Fault>| match fault {
            Some(Fault::Slow { delta_s }) => ns(f64::from(delta_s)),
            _ => 0,
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
            self.xfer_leg(
                "xfer.out",
                "source",
                work.src,
                invoice,
                |fault| match fault {
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
                            ns_backoff: slow(fault),
                            ..Charge::default()
                        },
                    ),
                },
            )?;
            let mut st = self.migration.borrow_mut();
            let state = st.as_mut().expect("active migration");
            state.in_flight = work.n;
            state.delivered = 0;
            state.journal.entries[work.mv].status = MoveStatus::InProgress;
        }
        let mut delivered = work.delivered;
        let ingested = self.xfer_leg("xfer.in", "destination", work.dst, invoice, |fault| {
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
                ns_backoff: slow(fault),
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

    /// The migration pacing tick each replica search or batch runs first,
    /// returning the invoice of the transfer it ran (none when pacing is
    /// off). A transiently failed step waits for the next tick: the
    /// journal-resume path.
    pub fn pace_migration(&self) -> Usage {
        let mut invoice = Usage::default();
        let every = self.pacing.get();
        if every == 0 || !self.migration_active() {
            return invoice;
        }
        let n = self.ops_since_step.get() + 1;
        if n >= every {
            self.ops_since_step.set(0);
            let _ = self.migrate_batch_into(&mut invoice);
        } else {
            self.ops_since_step.set(n);
        }
        invoice
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::corpus;
    use super::super::Partition;
    use super::*;
    use crate::faults::{Fault, FaultPlan};
    use crate::obs::{calibrate_trace, secs, Recorder, RingSink};
    use crate::rebalance::Move;
    use crate::server::{CostConstants, TextServer};

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
    fn calibration_counts_the_waits_a_transfer_books() {
        let coll = corpus(40);
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        for s in 0..4 {
            sharded
                .replica_mut(s, 0)
                .set_fault_plan(FaultPlan::slow(s as u64, 0.5));
        }
        let sink = Rc::new(RingSink::unbounded());
        sharded.set_recorder(Some(Recorder::new(sink.clone())));
        sharded.begin_migration(MigrationPlan::seeded(3, 4, 40, 3, 2));
        sharded.run_migration().unwrap();
        // A slowed transfer leg books its wait inside its `Call` charge.
        let waited = sharded.migration_usage().ns_backoff;
        assert!(waited > 0, "a transfer leg was slowed");
        let cal = calibrate_trace(&sink.events());
        assert_eq!(cal.backoff_seconds, secs(waited as i64));
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

    /// Two clusters cut from one partition share its shard collections. A
    /// migration on one writes the destination shard once, into a copy all
    /// its replicas then share; the sibling keeps the partition's, and its
    /// answers, ledgers and statistics handle do not move.
    #[test]
    fn a_migration_writes_its_own_copy_and_spares_the_sibling() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let partition = Partition::new(&coll, 4, 7);
        let mut moved = ShardedTextServer::over(&partition, 3, CostConstants::default());
        let sibling = ShardedTextServer::over(&partition, 3, CostConstants::default());
        let same = |a: &TextServer, b: &TextServer| std::ptr::eq(a.collection(), b.collection());
        for i in 0..4 {
            for r in 0..3 {
                assert!(
                    same(moved.replica(i, r), sibling.replica(i, 0)),
                    "shard {i} replica {r}"
                );
            }
        }
        let probes = [
            "TI='shared'",
            "AU='author0'",
            "TI='subject' and AU='author17'",
        ];
        let answers =
            |s: &ShardedTextServer| probes.map(|q| TextService::search_str(s, q).unwrap().docs);
        let before = answers(&sibling);
        let ledgers = |s: &ShardedTextServer| {
            (
                TextService::usage(s),
                (0..4).map(|i| s.shard_usage(i)).collect::<Vec<_>>(),
            )
        };
        let sibling_ledgers = ledgers(&sibling);
        let sibling_stats = TextService::export_stats(&sibling);
        let moved_stats = TextService::export_stats(&moved);

        let src = moved.owner_of(DocId(0)).unwrap();
        let dst = (src + 1) % 4;
        let mv = Move {
            range: (DocId(0), DocId(40)),
            src,
            dst,
        };
        moved.begin_migration(MigrationPlan::new(vec![mv], 40));
        moved.run_migration().unwrap();

        assert_eq!(ledgers(&sibling), sibling_ledgers);
        assert!(TextService::export_stats(&sibling).ptr_eq(&sibling_stats));
        assert_eq!(answers(&sibling), before);
        assert!(!TextService::export_stats(&moved).ptr_eq(&moved_stats));
        for i in 0..4 {
            assert_eq!(
                same(moved.replica(i, 0), sibling.replica(i, 0)),
                i != dst,
                "shard {i}"
            );
        }
        // A cluster cut later still gets the partition as it was.
        let late = ShardedTextServer::over(&partition, 1, CostConstants::default());
        assert!(same(late.replica(dst, 0), sibling.replica(dst, 0)));
        // Every replica of the destination holds the written copy, and each
        // alone answers what the single server does.
        let want = single.search_str("TI='shared'").unwrap();
        for r in 0..3 {
            assert!(
                same(moved.replica(dst, r), moved.replica(dst, 0)),
                "replica {r}"
            );
            for k in (0..3).filter(|&k| k != r) {
                moved
                    .replica_mut(dst, k)
                    .set_fault_plan(FaultPlan::dead(r as u64));
            }
            let got = TextService::search_str(&moved, "TI='shared'").unwrap();
            assert_eq!(got.docs, want.docs, "served by replica {r}");
            for k in 0..3 {
                moved.replica_mut(dst, k).set_fault_plan(FaultPlan::none());
            }
        }
    }
}
