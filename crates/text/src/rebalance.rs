//! Online shard rebalancing: deterministic migration plans and the journal
//! that makes interrupted moves resumable exactly-once.
//!
//! A [`MigrationPlan`] names docid ranges to drain from one shard to
//! another. [`ShardedTextServer::begin_migration`] stages the plan (every
//! destination replica receives an invisible physical copy of each
//! in-flight document), then
//! [`migrate_batch`](crate::shard::ShardedTextServer::migrate_batch)
//! executes it in bounded batches: each batch buys a **source leg**
//! (`xfer.out` — one invocation plus `c_l` per document read off the
//! source shard) and a **destination leg** (`xfer.in` — one invocation
//! plus `c_p` per posting ingested), both booked in the dedicated
//! migration usage bucket and emitted as `Call` events so the
//! trace↔ledger audit extends to transfers.
//!
//! Robustness mirrors `complete_gather_from`:
//!
//! * either leg can fault ([`Fault::Unavailable`]/[`Fault::Timeout`] —
//!   drawn from the replica's own fault plan) and fail over through the
//!   shard's replica routing order, so a permanently dead source primary
//!   is drained from its replicas;
//! * a batch whose source leg succeeded but whose destination leg
//!   exhausted every replica stays **in flight**: the journal remembers
//!   the fetched documents and the postings already delivered, and the
//!   next [`migrate_batch`] resumes the destination leg without re-buying
//!   either (`MigrationResume`);
//! * [`abort_current_move`](crate::shard::ShardedTextServer::abort_current_move)
//!   reverts an unresumable move's committed documents back to the
//!   pre-move routing — sunk transfer charges stay booked (they were
//!   spent), but rows are never wrong.
//!
//! Every committed batch (and every abort) bumps the topology epoch, which
//! the scatter/gather paths watch to re-scatter only the shards a
//! concurrent commit touched (`RoutingStale`).
//!
//! [`ShardedTextServer::begin_migration`]: crate::shard::ShardedTextServer::begin_migration
//! [`Fault::Unavailable`]: crate::faults::Fault::Unavailable
//! [`Fault::Timeout`]: crate::faults::Fault::Timeout
//! [`migrate_batch`]: crate::shard::ShardedTextServer::migrate_batch

use textjoin_obs::splitmix64;

use crate::doc::DocId;

/// One keyspace move: every document in `range` currently owned by shard
/// `src` migrates to shard `dst`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Half-open global docid range `[range.0, range.1)`.
    pub range: (DocId, DocId),
    /// Shard to drain.
    pub src: usize,
    /// Shard that takes ownership.
    pub dst: usize,
}

/// A deterministic rebalancing plan: an ordered list of moves executed in
/// bounded batches of `batch_docs` documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// Moves, executed strictly in order.
    pub moves: Vec<Move>,
    /// Documents transferred per batch (the unit of interruption).
    pub batch_docs: usize,
}

impl MigrationPlan {
    /// A plan from explicit moves.
    pub fn new(moves: Vec<Move>, batch_docs: usize) -> Self {
        assert!(batch_docs > 0, "a migration batch moves at least one doc");
        Self { moves, batch_docs }
    }

    /// A seeded plan: `n_moves` windows over the docid space, each
    /// draining a seeded source shard into a seeded (distinct)
    /// destination. The same `(seed, n_shards, doc_count, n_moves,
    /// batch_docs)` always yields the same plan.
    pub fn seeded(
        seed: u64,
        n_shards: usize,
        doc_count: usize,
        n_moves: usize,
        batch_docs: usize,
    ) -> Self {
        assert!(n_shards >= 2, "rebalancing needs at least two shards");
        assert!(n_moves > 0, "a plan needs at least one move");
        let window = (doc_count / n_moves).max(1);
        let moves = (0..n_moves)
            .map(|i| {
                let lo = (i * window).min(doc_count) as u32;
                let hi = ((i + 1) * window).min(doc_count) as u32;
                let src = (splitmix64(seed ^ (2 * i as u64 + 1)) % n_shards as u64) as usize;
                let hop =
                    1 + (splitmix64(seed ^ (2 * i as u64 + 2)) % (n_shards as u64 - 1)) as usize;
                Move {
                    range: (DocId(lo), DocId(hi)),
                    src,
                    dst: (src + hop) % n_shards,
                }
            })
            .collect();
        Self::new(moves, batch_docs)
    }

    /// A plan executing one piece of monitor-derived rebalance advice:
    /// drain the advised hot docid range from the hot shard into the
    /// advised destination. This is the policy-layer closure of the loop
    /// — *observed* traffic (the monitor's windowed docid counters)
    /// decides what moves, instead of a seeded window.
    pub fn from_advice(advice: &textjoin_obs::Advice, batch_docs: usize) -> Self {
        assert!(advice.src != advice.dst, "advice never targets its source");
        assert!(advice.lo < advice.hi, "advice ranges are non-empty");
        Self::new(
            vec![Move {
                range: (DocId(advice.lo as u32), DocId(advice.hi as u32)),
                src: advice.src,
                dst: advice.dst,
            }],
            batch_docs,
        )
    }
}

/// Lifecycle of one move in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveStatus {
    /// No batch has committed yet.
    Pending,
    /// At least one batch has run (possibly interrupted mid-batch).
    InProgress,
    /// Every staged document was transferred and re-routed.
    Done,
    /// The move was aborted; committed documents were reverted to `src`.
    Aborted,
}

/// The durable record of one move: enough to resume after any interrupt
/// without re-buying transferred postings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MoveJournal {
    /// Source shard.
    pub src: usize,
    /// Destination shard.
    pub dst: usize,
    /// Documents staged for this move (owned by `src` inside the range at
    /// plan time).
    pub docs: u64,
    /// Highest global docid whose transfer has committed, `None` before
    /// the first committed batch (and after an abort).
    pub high_water: Option<DocId>,
    /// Current lifecycle state.
    pub status: MoveStatus,
}

/// The migration journal: the epoch the migration began at plus one entry
/// per move. Cloned out to callers; the authoritative copy lives inside
/// the sharded server and drives resumption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationJournal {
    /// Topology epoch when `begin_migration` staged the plan.
    pub begun_at_epoch: u64,
    /// Per-move records, index-parallel to the plan's moves.
    pub entries: Vec<MoveJournal>,
}

impl MigrationJournal {
    /// Whether every move has reached a terminal state.
    pub fn finished(&self) -> bool {
        self.entries
            .iter()
            .all(|e| matches!(e.status, MoveStatus::Done | MoveStatus::Aborted))
    }
}

/// One staged document: where it lives on the source, where its invisible
/// copy waits on the destination, and how many postings its transfer
/// costs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StagedDoc {
    pub global: DocId,
    pub src_local: DocId,
    pub dst_local: DocId,
    pub postings: u64,
}

/// In-flight migration state held by the sharded server.
#[derive(Debug)]
pub(crate) struct MigrationState {
    pub plan: MigrationPlan,
    pub journal: MigrationJournal,
    /// Per move: the staged documents, in global docid order.
    pub staged: Vec<Vec<StagedDoc>>,
    /// Index of the move being executed.
    pub current: usize,
    /// Documents of the current move already committed.
    pub cursor: usize,
    /// Documents fetched off the source (paid) but not yet committed: the
    /// resume set after a destination-leg failure.
    pub in_flight: usize,
    /// Postings of the in-flight batch already delivered (and paid) to the
    /// destination across interrupted ingest attempts — never re-charged.
    pub delivered: u64,
}

/// What one [`migrate_batch`] call accomplished.
///
/// [`migrate_batch`]: crate::shard::ShardedTextServer::migrate_batch
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationProgress {
    /// No migration is active (or every move already reached a terminal
    /// state).
    Idle,
    /// A batch committed.
    Committed {
        /// Move index within the plan.
        mv: usize,
        /// Documents committed by this batch.
        docs: usize,
        /// Whether the batch resumed a previously interrupted transfer.
        resumed: bool,
        /// Whether this batch completed its move.
        move_done: bool,
        /// Whether the whole plan is now terminal.
        finished: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_well_formed() {
        let a = MigrationPlan::seeded(11, 4, 40, 3, 2);
        let b = MigrationPlan::seeded(11, 4, 40, 3, 2);
        assert_eq!(a, b);
        assert_eq!(a.moves.len(), 3);
        for m in &a.moves {
            assert_ne!(m.src, m.dst, "a move never targets its own source");
            assert!(m.src < 4 && m.dst < 4);
            assert!(m.range.0 <= m.range.1);
            assert!(m.range.1 .0 <= 40);
        }
        let c = MigrationPlan::seeded(12, 4, 40, 3, 2);
        assert_ne!(a, c, "a different seed deals different moves");
    }

    #[test]
    fn advice_converts_to_a_single_move_plan() {
        let advice = textjoin_obs::Advice {
            window: 3,
            src: 1,
            dst: 2,
            lo: 40,
            hi: 61,
            hits: 17,
        };
        let plan = MigrationPlan::from_advice(&advice, 8);
        assert_eq!(plan.moves.len(), 1);
        assert_eq!(plan.batch_docs, 8);
        assert_eq!(
            plan.moves[0],
            Move {
                range: (DocId(40), DocId(61)),
                src: 1,
                dst: 2,
            }
        );
    }

    #[test]
    fn journal_finishes_only_on_terminal_states() {
        let mut j = MigrationJournal {
            begun_at_epoch: 0,
            entries: vec![MoveJournal {
                src: 0,
                dst: 1,
                docs: 3,
                high_water: None,
                status: MoveStatus::Pending,
            }],
        };
        assert!(!j.finished());
        j.entries[0].status = MoveStatus::InProgress;
        assert!(!j.finished());
        j.entries[0].status = MoveStatus::Aborted;
        assert!(j.finished());
        j.entries[0].status = MoveStatus::Done;
        assert!(j.finished());
    }
}
