//! Sharded text collections: one logical service over many physical servers.
//!
//! A production-scale Mercury-style deployment spreads its collection across
//! many search endpoints. [`ShardedTextServer`] models that: a [`Collection`]
//! is partitioned deterministically (seeded hash of the docid) across N
//! inner [`TextServer`]s, each with its own fault plan, term cap, and
//! [`Usage`] ledger. Every service operation is a scatter/gather:
//!
//! * `search`/`probe` scatter the expression to **all** shards (each shard
//!   charges its own `c_i` — the per-shard invocation charge) and
//!   union-merge the postings in global docid order;
//! * `retrieve` routes to the single shard owning the docid;
//! * the aggregate [`Usage`] is the exact sum of the shard ledgers plus the
//!   aggregate-level counters (cap rejections, client backoff charged to
//!   the service as a whole), so the cost decomposition
//!   `c_i·I + c_p·P + c_s·S + c_l·L + backoff` keeps holding.
//!
//! Partial failure is typed: when a caller's per-shard retry loop gives up
//! on one shard mid-gather, it wraps the per-shard results gathered so far
//! into a [`PartialShardError`] (carried by `TextError::Shard`), so no
//! paid-for shard response is silently dropped and callers can either
//! re-route the missing sub-query or fail cleanly — never return a wrong
//! multiset.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;
use std::sync::Arc;

use textjoin_obs::{Charge, EventKind, MetricsSnapshot, Recorder};

use crate::batch::BatchResult;
use crate::doc::{DocId, Document, ShortDoc, TextSchema};
use crate::expr::{BasicTerm, SearchExpr, TermKind};
use crate::faults::Fault;
use crate::index::Collection;
use crate::parse::parse_search;
use crate::rebalance::{
    MigrationJournal, MigrationPlan, MigrationProgress, MigrationState, MoveJournal, MoveStatus,
    StagedDoc,
};
use crate::server::{
    CostConstants, PartialRetrieveError, SearchResult, TextError, TextServer, Usage,
};
use crate::service::TextService;
use crate::stats::{FieldStats, VocabularyStats};

/// What the shards export, as of the handles it was built from.
#[derive(Debug)]
struct ShardExport {
    /// `parts[i]` is the handle shard `i`'s primary held at build time.
    parts: Vec<VocabularyStats>,
    /// The collection-wide export: the parts, merged.
    merged: VocabularyStats,
}

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

/// `splitmix64` — the same deterministic mixer the fault plans use, applied
/// to docids so the partition is a seeded hash, not a modulo striping.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic partition of one [`Collection`] across N metered
/// [`TextServer`] shards, presenting the same [`TextService`] surface.
///
/// Each logical shard owns R replica servers holding identical copies of
/// the shard's slice, each with its own fault plan, term cap, and ledger.
/// One replica is the seeded-deterministic **primary**; the others form a
/// failover rotation (`routing_order`). R defaults to 1, in which case
/// every path below degenerates to the unreplicated behavior exactly.
#[derive(Debug)]
pub struct ShardedTextServer {
    /// `replicas[i]` = the copies of shard `i`'s slice;
    /// `replicas[i][primary[i]]` is the preferred one.
    replicas: Vec<Vec<TextServer>>,
    /// Per shard: index of the primary replica.
    primary: Vec<usize>,
    /// Global docid → (owning shard, local docid). Interior-mutable: a
    /// committed migration batch re-routes its documents in place.
    route: RefCell<Vec<(usize, DocId)>>,
    /// Per shard: local docid → global docid. Increasing by construction;
    /// migration staging appends the in-flight globals at the destination
    /// (so remapping stays a table lookup, and results re-sort by global
    /// id after the remap).
    to_global: Vec<Vec<DocId>>,
    /// Per shard: local docids physically present but invisible to
    /// queries — staged-not-yet-committed copies on a destination, and
    /// moved-away originals on a source after commit.
    hidden: RefCell<Vec<BTreeSet<DocId>>>,
    /// Aggregate-level counters: cap rejections and client backoff charged
    /// to the service as a whole rather than to one shard.
    extra: RefCell<Usage>,
    partition_seed: u64,
    /// Flight recorder shared with every shard (shard events carry their
    /// stamped shard index; aggregate-ledger events carry `shard: None`).
    recorder: RefCell<Option<Rc<Recorder>>>,
    /// Topology epoch: bumped by every committed (or aborted) migration
    /// batch. Routing decisions are stamped with it; gathers compare.
    epoch: Cell<u64>,
    /// `(epoch, src, dst)` per epoch bump — the log gathers consult to
    /// re-scatter only the shards a concurrent commit touched.
    epoch_log: RefCell<Vec<(u64, usize, usize)>>,
    /// The active migration, if any.
    migration: RefCell<Option<MigrationState>>,
    /// The dedicated migration usage bucket: every transfer-leg charge
    /// lands here, disjoint from the per-shard query ledgers, and is
    /// added into the aggregate [`usage`](TextService::usage).
    migration_usage: RefCell<Usage>,
    /// Whether scatter paths consult per-shard vocabulary stats to skip
    /// provably irrelevant shards. Off by default: pruning changes the
    /// per-shard invoice shape, so callers opt in.
    stats_routing: Cell<bool>,
    /// The one statistics cache: per-shard exports (routing, snapshot)
    /// and their merge (the service's export). Valid while every shard
    /// still holds the handle it was built from — migration staging, the
    /// only thing that changes a shard's content, drops that handle.
    export: RefCell<Option<Rc<ShardExport>>>,
    /// When > 0, every `pacing`-th query leg advances the active migration
    /// by one batch first — the deterministic interleaving knob that runs
    /// migrations *under* live queries.
    pacing: Cell<u64>,
    /// Query legs observed since the last paced migration step.
    ops_since_step: Cell<u64>,
}

impl ShardedTextServer {
    /// Partitions `coll` across `n_shards` servers with the default
    /// (Mercury-calibrated) constants. The partition is the seeded hash
    /// `splitmix64(seed ⊕ docid) mod n_shards`, so the same `(collection,
    /// seed, n_shards)` always yields the same placement.
    pub fn new(coll: &Collection, n_shards: usize, seed: u64) -> Self {
        Self::with_constants(coll, n_shards, seed, CostConstants::default())
    }

    /// Same, with explicit cost constants (shared by every shard so the
    /// aggregate decomposition uses a single constant set).
    pub fn with_constants(
        coll: &Collection,
        n_shards: usize,
        seed: u64,
        constants: CostConstants,
    ) -> Self {
        Self::replicated_with_constants(coll, n_shards, 1, seed, constants)
    }

    /// Partitions `coll` across `n_shards` logical shards of `n_replicas`
    /// servers each, with default constants. Placement of both documents
    /// and primaries is a seeded hash, so the same `(collection, seed,
    /// n_shards, n_replicas)` always yields the same topology.
    pub fn replicated(coll: &Collection, n_shards: usize, n_replicas: usize, seed: u64) -> Self {
        Self::replicated_with_constants(coll, n_shards, n_replicas, seed, CostConstants::default())
    }

    /// Same, with explicit cost constants.
    pub fn replicated_with_constants(
        coll: &Collection,
        n_shards: usize,
        n_replicas: usize,
        seed: u64,
        constants: CostConstants,
    ) -> Self {
        assert!(n_shards > 0, "a sharded server needs at least one shard");
        assert!(n_replicas > 0, "each shard needs at least one replica");
        let mut colls: Vec<Collection> =
            (0..n_shards).map(|_| Collection::new(coll.schema().clone())).collect();
        let mut route = Vec::with_capacity(coll.doc_count());
        let mut to_global: Vec<Vec<DocId>> = vec![Vec::new(); n_shards];
        for g in 0..coll.doc_count() {
            let global = DocId(g as u32);
            let doc = coll.shared_document(global).expect("dense docids");
            let shard = (splitmix64(seed ^ u64::from(global.0)) % n_shards as u64) as usize;
            let local = colls[shard].add_document(Arc::clone(doc));
            route.push((shard, local));
            to_global[shard].push(global);
        }
        let mut replicas: Vec<Vec<TextServer>> = Vec::with_capacity(n_shards);
        let mut primary = Vec::with_capacity(n_shards);
        for (i, c) in colls.into_iter().enumerate() {
            let copies: Vec<TextServer> = (0..n_replicas)
                .map(|_| TextServer::with_constants(c.clone(), constants))
                .collect();
            for s in &copies {
                s.set_shard_index(i);
            }
            // Seeded primary placement: mixed separately from the document
            // partition so the two deals are independent. R=1 pins it to 0.
            primary.push((splitmix64(seed ^ 0xCAB1E ^ i as u64) % n_replicas as u64) as usize);
            replicas.push(copies);
        }
        Self {
            replicas,
            primary,
            route: RefCell::new(route),
            to_global,
            hidden: RefCell::new(vec![BTreeSet::new(); n_shards]),
            extra: RefCell::new(Usage::default()),
            partition_seed: seed,
            recorder: RefCell::new(None),
            epoch: Cell::new(0),
            epoch_log: RefCell::new(Vec::new()),
            migration: RefCell::new(None),
            migration_usage: RefCell::new(Usage::default()),
            stats_routing: Cell::new(false),
            export: RefCell::new(None),
            pacing: Cell::new(0),
            ops_since_step: Cell::new(0),
        }
    }

    /// Attaches (or detaches) a flight recorder, shared with every replica
    /// of every shard so all events land in one totally-ordered trace.
    pub fn set_recorder(&self, rec: Option<Rc<Recorder>>) {
        for copies in &self.replicas {
            for s in copies {
                s.set_recorder(rec.clone());
            }
        }
        *self.recorder.borrow_mut() = rec;
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<Rc<Recorder>> {
        self.recorder.borrow().clone()
    }

    fn emit(&self, kind: EventKind) {
        if let Some(rec) = &*self.recorder.borrow() {
            rec.emit(kind);
        }
    }

    /// Per-shard collection statistics as a metrics snapshot: document
    /// counts and, per field, vocabulary size, total document frequency,
    /// and mean fanout, under `shard{i}.stats.*` keys (plus the aggregate
    /// under plain `stats.*`). Built from the free statistics export of
    /// each shard, so reading it charges nothing — this is the shard-local
    /// statistics export the planner reads for selectivity estimation.
    pub fn stats_snapshot(&self) -> MetricsSnapshot {
        let mut m = MetricsSnapshot::new();
        let export = self.shard_export();
        let schema = self.replicas[0][0].collection().schema();
        let fill = |prefix: &str, stats: &VocabularyStats, m: &mut MetricsSnapshot| {
            m.set_counter(&format!("{prefix}stats.docs"), stats.doc_count as u64);
            for (fid, def) in schema.iter() {
                if let Some(fs) = stats.field(fid) {
                    let base = format!("{prefix}stats.field.{}", def.name);
                    m.set_counter(&format!("{base}.vocabulary"), fs.vocabulary as u64);
                    m.set_counter(&format!("{base}.total_df"), fs.total_df);
                    m.set_value(&format!("{base}.mean_fanout"), fs.mean_fanout());
                }
            }
        };
        for (i, part) in export.parts.iter().enumerate() {
            fill(&format!("shard{i}."), part, &mut m);
        }
        fill("", &export.merged, &mut m);
        m
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.replicas.len()
    }

    /// Number of replicas per shard (1 = unreplicated).
    pub fn replication_factor(&self) -> usize {
        self.replicas[0].len()
    }

    /// The partition seed in force.
    pub fn partition_seed(&self) -> u64 {
        self.partition_seed
    }

    /// Shared read access to shard `i`'s **primary** replica (its ledger,
    /// cap, fault plan).
    pub fn shard(&self, i: usize) -> &TextServer {
        &self.replicas[i][self.primary[i]]
    }

    /// Mutable access to shard `i`'s primary replica, for installing
    /// per-shard fault plans and term caps.
    pub fn shard_mut(&mut self, i: usize) -> &mut TextServer {
        let p = self.primary[i];
        &mut self.replicas[i][p]
    }

    /// Shared read access to replica `r` of shard `i`.
    pub fn replica(&self, i: usize, r: usize) -> &TextServer {
        &self.replicas[i][r]
    }

    /// Mutable access to replica `r` of shard `i`.
    pub fn replica_mut(&mut self, i: usize, r: usize) -> &mut TextServer {
        &mut self.replicas[i][r]
    }

    /// Index of shard `i`'s primary replica.
    pub fn primary_of(&self, i: usize) -> usize {
        self.primary[i]
    }

    /// Shard `i`'s replica routing order: the primary first, then the
    /// secondaries in rotation. Deterministic for a given topology.
    pub fn routing_order(&self, i: usize) -> Vec<usize> {
        let n = self.replicas[i].len();
        let p = self.primary[i];
        (0..n).map(|k| (p + k) % n).collect()
    }

    /// The shard owning global docid `id`, or `None` for unknown ids.
    /// Reflects committed migration batches immediately.
    pub fn owner_of(&self, id: DocId) -> Option<usize> {
        self.route.borrow().get(id.0 as usize).map(|&(s, _)| s)
    }

    /// Snapshot of shard `i`'s ledger: the sum over all its replicas, so
    /// the aggregate identity `usage() = extra + Σ shard_usage(i)` holds
    /// no matter which replica absorbed a charge.
    pub fn shard_usage(&self, i: usize) -> Usage {
        let mut total = Usage::default();
        for s in &self.replicas[i] {
            total.accumulate(&s.usage());
        }
        total
    }

    /// Searches replica `r` of shard `i` only, remapping result docids to
    /// global ids. Charges (and faults) exactly like a search on that
    /// replica's server.
    pub fn search_replica(
        &self,
        i: usize,
        r: usize,
        expr: &SearchExpr,
    ) -> Result<SearchResult, TextError> {
        self.pace_migration();
        let mut res = self.replicas[i][r].search(expr)?;
        {
            let hidden = self.hidden.borrow();
            if !hidden[i].is_empty() {
                res.docs.retain(|d| !hidden[i].contains(&d.id));
            }
        }
        for d in &mut res.docs {
            d.id = self.to_global[i][d.id.0 as usize];
        }
        // Staged copies append out of global order; re-sort after the remap.
        res.docs.sort_by_key(|d| d.id);
        Ok(res)
    }

    /// Searches shard `i`'s primary replica only, remapping result docids
    /// to global ids.
    pub fn search_shard(&self, i: usize, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        self.search_replica(i, self.primary[i], expr)
    }

    /// Probes shard `i` only, returning global docids.
    pub fn probe_shard(&self, i: usize, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        Ok(self.search_shard(i, expr)?.ids())
    }

    /// Runs a batch on replica `r` of shard `i` only, remapping every
    /// member result's docids to global ids (the replica applies its own
    /// invocation rebates).
    pub fn batch_replica(
        &self,
        i: usize,
        r: usize,
        exprs: &[SearchExpr],
    ) -> Result<BatchResult, TextError> {
        self.pace_migration();
        let mut b = self.replicas[i][r].search_batch(exprs)?;
        let hidden = self.hidden.borrow();
        for res in &mut b.results {
            if !hidden[i].is_empty() {
                res.docs.retain(|d| !hidden[i].contains(&d.id));
            }
            for d in &mut res.docs {
                d.id = self.to_global[i][d.id.0 as usize];
            }
            res.docs.sort_by_key(|d| d.id);
        }
        Ok(b)
    }

    /// Runs a batch on shard `i`'s primary replica only.
    pub fn batch_shard(&self, i: usize, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        self.batch_replica(i, self.primary[i], exprs)
    }

    /// Retrieves global docid `id` from replica `r` of shard `i`. Errors
    /// with `UnknownDoc` when `id` is unknown or not owned by shard `i`.
    pub fn retrieve_replica(&self, i: usize, r: usize, id: DocId) -> Result<Document, TextError> {
        let routed = self.route.borrow().get(id.0 as usize).copied();
        match routed {
            Some((owner, local)) if owner == i => self.replicas[i][r].retrieve(local),
            _ => Err(TextError::UnknownDoc(id)),
        }
    }

    /// Charges simulated retry backoff against shard `i`'s primary ledger
    /// (the shard that caused the wait pays for it). Because
    /// [`shard_usage`](Self::shard_usage) sums every replica and the
    /// aggregate [`usage`](TextService::usage) sums the same ledgers, the
    /// backoff lands in both views at once — they cannot drift.
    pub fn charge_shard_backoff(&self, i: usize, seconds: f64) {
        self.charge_replica_backoff(i, self.primary[i], seconds);
    }

    /// Charges simulated retry backoff against one specific replica's
    /// ledger (failover retry loops attribute the wait to the replica that
    /// caused it).
    pub fn charge_replica_backoff(&self, i: usize, r: usize, seconds: f64) {
        self.replicas[i][r].charge_backoff(seconds);
    }

    /// Rebates a previously charged usage delta against one specific
    /// replica's ledger — the cancellation path for a hedged read whose
    /// leg lost the race. Exactly inverts the leg's charges field-for-field
    /// (see [`TextServer::rebate`]), so both the shard sum and the
    /// aggregate ledger forget the cancelled work.
    pub fn rebate_replica(&self, i: usize, r: usize, delta: &Usage) {
        self.replicas[i][r].rebate(delta);
    }

    /// Union-merges per-shard results into one result set in global docid
    /// order. Shard result sets are disjoint (the partition) and each is
    /// already sorted, so this is a pure merge.
    pub fn merge(parts: Vec<SearchResult>) -> SearchResult {
        let mut docs: Vec<ShortDoc> = parts.into_iter().flat_map(|r| r.docs).collect();
        docs.sort_by_key(|d| d.id);
        SearchResult { docs }
    }

    /// Rejects expressions over the aggregate cap before any shard is
    /// contacted (mirrors the single server: rejected searches are free).
    fn validate_cap(&self, expr: &SearchExpr) -> Result<(), TextError> {
        let cap = TextService::max_terms(self);
        let count = expr.term_count();
        if count > cap {
            self.extra.borrow_mut().rejected += 1;
            self.emit(EventKind::Call {
                op: "search",
                shard: None,
                terms: count as u64,
                err: Some(format!("rejected: {count} terms > aggregate cap {cap}")),
                charge: Charge {
                    rejected: 1,
                    ..Charge::default()
                },
            });
            return Err(TextError::TooManyTerms { count, max: cap });
        }
        Ok(())
    }

    /// One failover pass over shard `i`'s routing order: a single search
    /// attempt per replica, moving to the next replica (with a `Failover`
    /// event) when one fails transiently. Non-transient errors (cap
    /// renegotiations, syntax) propagate raw so the callers' re-packaging
    /// lattices keep working unchanged. With R=1 this is exactly one
    /// attempt on the shard, as before replication existed.
    fn failover_search(&self, i: usize, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        let order = self.routing_order(i);
        let mut last: Option<TextError> = None;
        for (pos, &r) in order.iter().enumerate() {
            match self.search_replica(i, r, expr) {
                Ok(res) => return Ok(res),
                Err(e) if e.is_transient() => {
                    if let Some(&next) = order.get(pos + 1) {
                        self.emit(EventKind::Failover {
                            shard: i,
                            replica: next,
                        });
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("routing order is never empty"))
    }

    /// Batch counterpart of [`failover_search`](Self::failover_search).
    fn failover_batch(&self, i: usize, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        let order = self.routing_order(i);
        let mut last: Option<TextError> = None;
        for (pos, &r) in order.iter().enumerate() {
            match self.batch_replica(i, r, exprs) {
                Ok(b) => return Ok(b),
                Err(e) if e.is_transient() => {
                    if let Some(&next) = order.get(pos + 1) {
                        self.emit(EventKind::Failover {
                            shard: i,
                            replica: next,
                        });
                    }
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("routing order is never empty"))
    }

    /// The epoch-watching gather loop shared by scatter and resumption.
    /// Fills the `None` slots of `done` (shards pruned by stats routing
    /// receive a free empty result), then checks the topology epoch: if a
    /// migration batch committed since `from_epoch`, the slots of the
    /// shards it touched are invalidated (a charge-free [`RoutingStale`]
    /// event names them) and only those legs re-run at the new epoch.
    /// Terminates because migrations are finite.
    ///
    /// [`RoutingStale`]: textjoin_obs::EventKind::RoutingStale
    fn gather_loop(
        &self,
        mut done: Vec<Option<SearchResult>>,
        expr: &SearchExpr,
        mut from_epoch: u64,
    ) -> Result<Vec<SearchResult>, TextError> {
        let mut relevant = self.relevant_shards(expr);
        loop {
            let now = self.epoch.get();
            if now != from_epoch {
                let affected = self.shards_touched_since(from_epoch);
                self.emit(EventKind::RoutingStale {
                    from_epoch,
                    to_epoch: now,
                    shards: affected.clone(),
                });
                for &i in &affected {
                    done[i] = None;
                }
                relevant = self.relevant_shards(expr);
                from_epoch = now;
            }
            for i in 0..done.len() {
                if done[i].is_some() {
                    continue;
                }
                if !relevant[i] {
                    done[i] = Some(SearchResult { docs: Vec::new() });
                    continue;
                }
                match self.failover_search(i, expr) {
                    Ok(r) => done[i] = Some(r),
                    Err(e) if e.is_transient() => {
                        return Err(TextError::Shard(Box::new(PartialShardError {
                            partial: done,
                            failed_shard: i,
                            error: e,
                            epoch: self.epoch.get(),
                        })))
                    }
                    Err(e) => return Err(e),
                }
            }
            if self.epoch.get() == from_epoch {
                return Ok(done.into_iter().map(|r| r.expect("all gathered")).collect());
            }
        }
    }

    /// Single-attempt-per-replica scatter/gather over all shards, in shard
    /// order. A shard whose every replica fails transiently wraps the
    /// results gathered so far into a [`PartialShardError`]. Callers
    /// wanting per-shard retries orchestrate
    /// [`search_replica`](Self::search_replica) themselves.
    fn scatter_search(&self, expr: &SearchExpr) -> Result<Vec<SearchResult>, TextError> {
        let done = vec![None; self.replicas.len()];
        self.gather_loop(done, expr, self.epoch.get())
    }

    /// Resumes a failed gather from the partial results a
    /// [`PartialShardError`] carried: shards that already answered are
    /// reused verbatim — their postings were transmitted and paid for once
    /// and are never re-bought — and only the missing shards' keyspace is
    /// re-scattered, each leg failing over through the shard's replica
    /// routing order. Fails with a fresh `TextError::Shard` (carrying the
    /// updated partial) only when every replica of a missing shard is still
    /// down. A `partial` whose length does not match the shard count (e.g.
    /// the empty partial of a batch gather) is treated as all-missing.
    /// Resumes at the current epoch; callers holding a
    /// [`PartialShardError`] should prefer
    /// [`complete_gather_from`](Self::complete_gather_from) with the
    /// error's stamped epoch, which additionally invalidates partial slots
    /// a migration commit made stale.
    pub fn complete_gather(
        &self,
        partial: &[Option<SearchResult>],
        expr: &SearchExpr,
    ) -> Result<SearchResult, TextError> {
        self.complete_gather_from(partial, expr, self.epoch.get())
    }

    /// [`complete_gather`](Self::complete_gather) for a gather whose
    /// routing was decided at `from_epoch`: partial slots for shards a
    /// migration batch has touched since are discarded (their reuse could
    /// double-count or drop a moved document) and re-gathered at the
    /// current epoch, announced by a charge-free `RoutingStale` event.
    pub fn complete_gather_from(
        &self,
        partial: &[Option<SearchResult>],
        expr: &SearchExpr,
        from_epoch: u64,
    ) -> Result<SearchResult, TextError> {
        let done: Vec<Option<SearchResult>> = if partial.len() == self.replicas.len() {
            partial.to_vec()
        } else {
            vec![None; self.replicas.len()]
        };
        Ok(Self::merge(self.gather_loop(done, expr, from_epoch)?))
    }

    // ---- online rebalancing -------------------------------------------

    /// The current topology epoch (also exposed through
    /// [`TextService::topology_epoch`]).
    pub fn topology_epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Shards touched (as source or destination) by commits and aborts
    /// since `epoch`, sorted and deduplicated.
    pub fn shards_touched_since(&self, epoch: u64) -> Vec<usize> {
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

    /// Announces (via a charge-free `RoutingStale` event) that a gather
    /// routed at `from_epoch` observed a later epoch, and returns the
    /// shards whose partial results must be re-gathered. For callers that
    /// orchestrate per-shard legs themselves (the core execution layer);
    /// the service-level scatter paths do this internally.
    pub fn note_routing_stale(&self, from_epoch: u64) -> Vec<usize> {
        let affected = self.shards_touched_since(from_epoch);
        self.emit(EventKind::RoutingStale {
            from_epoch,
            to_epoch: self.epoch.get(),
            shards: affected.clone(),
        });
        affected
    }

    /// Opts scatter paths in (or out) of stats-aware routing: when on,
    /// shards whose vocabulary provably holds no postings for the query's
    /// terms are skipped, turning the fan-out from N into the number of
    /// relevant shards. Off by default — pruning changes the per-shard
    /// invoice shape, and the planner must fold the reduced fan-out into
    /// its costs in lockstep (see `CostParams::with_scatter_fanout`).
    pub fn set_stats_routing(&self, on: bool) {
        self.stats_routing.set(on);
    }

    /// Whether stats-aware routing is on.
    pub fn stats_routing_enabled(&self) -> bool {
        self.stats_routing.get()
    }

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
        let st = self.migration.borrow();
        let state = st.as_ref()?;
        let mut cur = state.current;
        while cur < state.plan.moves.len()
            && matches!(
                state.journal.entries[cur].status,
                MoveStatus::Done | MoveStatus::Aborted
            )
        {
            cur += 1;
        }
        if cur >= state.plan.moves.len() {
            return None;
        }
        let e = &state.journal.entries[cur];
        Some((cur, e.src, e.dst))
    }

    /// Per-shard relevance of `expr` under stats-aware routing: `false`
    /// means the shard's exported vocabulary proves no document there can
    /// match, so its scatter leg is skipped for free. The per-shard stats
    /// include staged-but-hidden physical copies, which only *overcounts*
    /// — pruning never hides a real match. All-true when routing is off.
    pub fn relevant_shards(&self, expr: &SearchExpr) -> Vec<bool> {
        if !self.stats_routing.get() {
            return vec![true; self.replicas.len()];
        }
        let schema = self.replicas[0][0].collection().schema();
        self.shard_export()
            .parts
            .iter()
            .map(|s| Self::expr_may_match(s, schema, expr))
            .collect()
    }

    /// The cached statistics of the current shard contents, rebuilt if any
    /// shard's collection has replaced its handle since the last build.
    fn shard_export(&self) -> Rc<ShardExport> {
        let current = |i: usize| self.shard(i).collection().vocabulary_stats();
        let mut cached = self.export.borrow_mut();
        if let Some(e) = cached.as_ref() {
            if e.parts.iter().enumerate().all(|(i, p)| p.ptr_eq(current(i))) {
                return Rc::clone(e);
            }
        }
        let parts: Vec<VocabularyStats> =
            (0..self.replicas.len()).map(|i| current(i).clone()).collect();
        let merged = VocabularyStats::merged(&parts);
        let e = Rc::new(ShardExport { parts, merged });
        *cached = Some(Rc::clone(&e));
        e
    }

    fn term_may_match(stats: &VocabularyStats, schema: &TextSchema, t: &BasicTerm) -> bool {
        let hit = |fs: &FieldStats| match &t.kind {
            TermKind::Word(w) => fs.occurs(w),
            TermKind::Prefix(p) => fs.occurs_prefix(p),
            TermKind::Phrase(ws) => ws.iter().all(|w| fs.occurs(w)),
        };
        match t.field {
            Some(f) => stats.field(f).is_some_and(hit),
            None => schema.iter().any(|(f, _)| stats.field(f).is_some_and(hit)),
        }
    }

    /// Conservative may-match: `false` only when the vocabulary *proves*
    /// the shard irrelevant. `AndNot` consults only the positive side; an
    /// empty `And` is vacuously relevant, an empty `Or` never matches.
    fn expr_may_match(stats: &VocabularyStats, schema: &TextSchema, expr: &SearchExpr) -> bool {
        match expr {
            SearchExpr::Term(t) => Self::term_may_match(stats, schema, t),
            SearchExpr::Near { a, b, .. } => {
                Self::term_may_match(stats, schema, a) && Self::term_may_match(stats, schema, b)
            }
            SearchExpr::And(cs) => cs.iter().all(|c| Self::expr_may_match(stats, schema, c)),
            SearchExpr::Or(cs) => cs.iter().any(|c| Self::expr_may_match(stats, schema, c)),
            SearchExpr::AndNot(lhs, _) => Self::expr_may_match(stats, schema, lhs),
        }
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
        assert!(
            self.migration
                .borrow()
                .as_ref()
                .is_none_or(|m| m.journal.finished()),
            "a migration is already in flight"
        );
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
                let doc = Arc::clone(
                    self.replicas[m.src][0]
                        .collection()
                        .shared_document(src_local)
                        .expect("routed docids are dense"),
                );
                let before = self.replicas[m.dst][0].collection().total_postings();
                let mut dst_local = None;
                for r in 0..self.replicas[m.dst].len() {
                    let local = self.replicas[m.dst][r]
                        .collection_mut()
                        .add_document(Arc::clone(&doc));
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

    /// Books one transfer-leg attempt into the migration bucket and emits
    /// the matching `Call` event (op `xfer.out`/`xfer.in`), so the
    /// trace↔ledger audit covers transfers exactly.
    fn book_xfer(&self, op: &'static str, shard: usize, err: Option<String>, charge: Charge) {
        {
            let mut u = self.migration_usage.borrow_mut();
            u.invocations += charge.invocations as u64;
            u.postings_processed += charge.postings as u64;
            u.docs_long += charge.docs_long as u64;
            u.faults += charge.faults as u64;
            u.time_invocation += charge.time_invocation;
            u.time_processing += charge.time_processing;
            u.time_transmission += charge.time_transmission;
            u.time_backoff += charge.time_backoff;
        }
        self.emit(EventKind::Call {
            op,
            shard: Some(shard),
            terms: 0,
            err,
            charge,
        });
    }

    /// Runs the active migration one batch forward, reading the source
    /// replicas in their routing order. See
    /// [`migrate_batch_via`](Self::migrate_batch_via).
    pub fn migrate_batch(&self) -> Result<MigrationProgress, TextError> {
        self.migrate_batch_via(None)
    }

    /// Runs one bounded batch of the active migration, with an optional
    /// explicit source replica order (the retry layer passes one that
    /// demotes a breaker-open primary, forcing replica-sourced transfer).
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
    pub fn migrate_batch_via(
        &self,
        src_order: Option<&[usize]>,
    ) -> Result<MigrationProgress, TextError> {
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
            let Some(state) = st.as_mut() else {
                return Ok(MigrationProgress::Idle);
            };
            while state.current < state.plan.moves.len()
                && matches!(
                    state.journal.entries[state.current].status,
                    MoveStatus::Done | MoveStatus::Aborted
                )
            {
                state.current += 1;
                state.cursor = 0;
            }
            if state.current >= state.plan.moves.len() {
                return Ok(MigrationProgress::Idle);
            }
            let mv = state.current;
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
        let c = self.replicas[0][0].constants();
        if work.resumed {
            self.emit(EventKind::MigrationResume {
                mv: work.mv as u64,
                src: work.src,
                dst: work.dst,
                docs: work.n as u64,
                epoch: self.epoch.get(),
            });
        } else {
            let order = match src_order {
                Some(o) => o.to_vec(),
                None => self.routing_order(work.src),
            };
            let mut fetched = false;
            for (pos, &r) in order.iter().enumerate() {
                let server = &self.replicas[work.src][r];
                match server.fault_plan().next_search_fault(server.max_terms()) {
                    Some(Fault::Unavailable) => {
                        self.book_xfer(
                            "xfer.out",
                            work.src,
                            Some("transfer source unavailable".to_string()),
                            Charge {
                                invocations: 1,
                                faults: 1,
                                time_invocation: c.c_i,
                                ..Charge::default()
                            },
                        );
                        if let Some(&next) = order.get(pos + 1) {
                            self.emit(EventKind::Failover {
                                shard: work.src,
                                replica: next,
                            });
                        }
                    }
                    Some(Fault::Timeout { after_postings }) => {
                        // An out-leg timeout yields no usable documents:
                        // long forms are all-or-nothing per doc, and the
                        // batch is re-read whole from the next replica.
                        self.book_xfer(
                            "xfer.out",
                            work.src,
                            Some(format!(
                                "transfer source timeout after {after_postings} postings"
                            )),
                            Charge {
                                invocations: 1,
                                faults: 1,
                                time_invocation: c.c_i,
                                ..Charge::default()
                            },
                        );
                        if let Some(&next) = order.get(pos + 1) {
                            self.emit(EventKind::Failover {
                                shard: work.src,
                                replica: next,
                            });
                        }
                    }
                    fault => {
                        // None, CapReduced (caps do not bound transfers),
                        // or Slow (latency-only) — the read succeeds.
                        let slow = match fault {
                            Some(Fault::Slow { delta_s }) => f64::from(delta_s),
                            _ => 0.0,
                        };
                        self.book_xfer(
                            "xfer.out",
                            work.src,
                            None,
                            Charge {
                                invocations: 1,
                                docs_long: work.n as i64,
                                time_invocation: c.c_i,
                                time_transmission: c.c_l * work.n as f64,
                                time_backoff: slow,
                                ..Charge::default()
                            },
                        );
                        fetched = true;
                        break;
                    }
                }
            }
            if !fetched {
                return Err(TextError::Unavailable);
            }
            let mut st = self.migration.borrow_mut();
            let state = st.as_mut().expect("active migration");
            state.in_flight = work.n;
            state.delivered = 0;
            state.journal.entries[work.mv].status = MoveStatus::InProgress;
        }
        let mut delivered = work.delivered;
        let order = self.routing_order(work.dst);
        let mut ingested = false;
        for (pos, &r) in order.iter().enumerate() {
            let server = &self.replicas[work.dst][r];
            match server.fault_plan().next_search_fault(server.max_terms()) {
                Some(Fault::Unavailable) => {
                    self.book_xfer(
                        "xfer.in",
                        work.dst,
                        Some("transfer destination unavailable".to_string()),
                        Charge {
                            invocations: 1,
                            faults: 1,
                            time_invocation: c.c_i,
                            ..Charge::default()
                        },
                    );
                    if let Some(&next) = order.get(pos + 1) {
                        self.emit(EventKind::Failover {
                            shard: work.dst,
                            replica: next,
                        });
                    }
                }
                Some(Fault::Timeout { after_postings }) => {
                    let part = after_postings.min(work.batch_postings - delivered);
                    self.book_xfer(
                        "xfer.in",
                        work.dst,
                        Some(format!(
                            "transfer destination timeout after {part} postings"
                        )),
                        Charge {
                            invocations: 1,
                            faults: 1,
                            postings: part as i64,
                            time_invocation: c.c_i,
                            time_processing: c.c_p * part as f64,
                            ..Charge::default()
                        },
                    );
                    delivered += part;
                    if let Some(&next) = order.get(pos + 1) {
                        self.emit(EventKind::Failover {
                            shard: work.dst,
                            replica: next,
                        });
                    }
                }
                fault => {
                    let slow = match fault {
                        Some(Fault::Slow { delta_s }) => f64::from(delta_s),
                        _ => 0.0,
                    };
                    let rem = work.batch_postings - delivered;
                    self.book_xfer(
                        "xfer.in",
                        work.dst,
                        None,
                        Charge {
                            invocations: 1,
                            postings: rem as i64,
                            time_invocation: c.c_i,
                            time_processing: c.c_p * rem as f64,
                            time_backoff: slow,
                            ..Charge::default()
                        },
                    );
                    delivered = work.batch_postings;
                    ingested = true;
                    break;
                }
            }
        }
        if !ingested {
            // The fetched batch stays in flight; the postings already
            // delivered are journaled so resumption never re-buys them.
            let mut st = self.migration.borrow_mut();
            let state = st.as_mut().expect("active migration");
            state.delivered = delivered;
            return Err(TextError::Unavailable);
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
        self.epoch_log.borrow_mut().push((epoch, work.src, work.dst));
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
            let Some(state) = st.as_mut() else {
                return false;
            };
            while state.current < state.plan.moves.len()
                && matches!(
                    state.journal.entries[state.current].status,
                    MoveStatus::Done | MoveStatus::Aborted
                )
            {
                state.current += 1;
                state.cursor = 0;
            }
            if state.current >= state.plan.moves.len() {
                return false;
            }
            let mv = state.current;
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
    fn pace_migration(&self) {
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

impl TextService for ShardedTextServer {
    fn schema(&self) -> &TextSchema {
        self.replicas[0][0].collection().schema()
    }

    fn doc_count(&self) -> usize {
        self.route.borrow().len()
    }

    /// The minimum cap over every replica of every shard: a package legal
    /// under the aggregate cap is legal on every server a failover could
    /// route it to.
    fn max_terms(&self) -> usize {
        self.replicas
            .iter()
            .flatten()
            .map(|s| s.max_terms())
            .min()
            .expect("at least one shard")
    }

    fn constants(&self) -> CostConstants {
        self.replicas[0][0].constants()
    }

    /// Exact sum of the per-replica ledgers plus the aggregate-level
    /// counters.
    fn usage(&self) -> Usage {
        let mut total = *self.extra.borrow();
        total.accumulate(&self.migration_usage.borrow());
        for s in self.replicas.iter().flatten() {
            total.accumulate(&s.usage());
        }
        total
    }

    fn reset_usage(&self) {
        *self.extra.borrow_mut() = Usage::default();
        for s in self.replicas.iter().flatten() {
            s.reset_usage();
        }
    }

    /// Backoff charged against the service as a whole (when the caller does
    /// not attribute the wait to one shard — per-shard retry loops use
    /// [`charge_shard_backoff`](Self::charge_shard_backoff) instead).
    fn charge_backoff(&self, seconds: f64) {
        {
            let mut u = self.extra.borrow_mut();
            u.retries += 1;
            u.time_backoff += seconds;
        }
        self.emit(EventKind::Backoff {
            shard: None,
            seconds,
            charge: Charge {
                retries: 1,
                time_backoff: seconds,
                ..Charge::default()
            },
        });
    }

    fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        self.validate_cap(expr)?;
        Ok(Self::merge(self.scatter_search(expr)?))
    }

    fn search_str(&self, query: &str) -> Result<SearchResult, TextError> {
        let expr = parse_search(query, TextService::schema(self))?;
        TextService::search(self, &expr)
    }

    fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        Ok(TextService::search(self, expr)?.ids())
    }

    /// Routes to the owning shard, failing over through its replica
    /// routing order on transient errors (single attempt per replica).
    fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        let routed = self.route.borrow().get(id.0 as usize).copied();
        match routed {
            Some((shard, local)) => {
                let order = self.routing_order(shard);
                let mut last: Option<TextError> = None;
                for (pos, &r) in order.iter().enumerate() {
                    match self.replicas[shard][r].retrieve(local) {
                        Ok(doc) => return Ok(doc),
                        Err(e) if e.is_transient() => {
                            if let Some(&next) = order.get(pos + 1) {
                                self.emit(EventKind::Failover {
                                    shard,
                                    replica: next,
                                });
                            }
                            last = Some(e);
                        }
                        Err(e) => return Err(e),
                    }
                }
                Err(last.expect("routing order is never empty"))
            }
            None => Err(TextError::UnknownDoc(id)),
        }
    }

    fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
        let mut docs = Vec::with_capacity(ids.len());
        for &id in ids {
            match TextService::retrieve(self, id) {
                Ok(doc) => docs.push(doc),
                Err(error) => {
                    return Err(Box::new(PartialRetrieveError {
                        docs,
                        failed: id,
                        error,
                    }))
                }
            }
        }
        Ok(docs)
    }

    /// Scatters the whole batch to every shard (each applies its own
    /// invocation rebate) and union-merges member-wise. Caps are validated
    /// against the aggregate cap up front, so a rejected batch is free.
    fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        for e in exprs {
            self.validate_cap(e)?;
        }
        // A shard is relevant to the batch if any member may match there;
        // pruned shards answer every member with a free empty result.
        let batch_mask = |sh: &Self| -> Vec<bool> {
            let masks: Vec<Vec<bool>> = exprs.iter().map(|e| sh.relevant_shards(e)).collect();
            (0..sh.replicas.len())
                .map(|i| masks.iter().any(|m| m[i]) || masks.is_empty())
                .collect()
        };
        let mut from_epoch = self.epoch.get();
        let mut relevant = batch_mask(self);
        let mut per_shard: Vec<Option<BatchResult>> = vec![None; self.replicas.len()];
        loop {
            let now = self.epoch.get();
            if now != from_epoch {
                let affected = self.shards_touched_since(from_epoch);
                self.emit(EventKind::RoutingStale {
                    from_epoch,
                    to_epoch: now,
                    shards: affected.clone(),
                });
                for &i in &affected {
                    per_shard[i] = None;
                }
                relevant = batch_mask(self);
                from_epoch = now;
            }
            for i in 0..per_shard.len() {
                if per_shard[i].is_some() {
                    continue;
                }
                if !relevant[i] {
                    per_shard[i] = Some(BatchResult {
                        results: vec![SearchResult { docs: Vec::new() }; exprs.len()],
                    });
                    continue;
                }
                match self.failover_batch(i, exprs) {
                    Ok(b) => per_shard[i] = Some(b),
                    Err(e) if e.is_transient() => {
                        return Err(TextError::Shard(Box::new(PartialShardError {
                            partial: Vec::new(),
                            failed_shard: i,
                            error: e,
                            epoch: self.epoch.get(),
                        })))
                    }
                    Err(e) => return Err(e),
                }
            }
            if self.epoch.get() == from_epoch {
                break;
            }
        }
        let per_shard: Vec<BatchResult> =
            per_shard.into_iter().map(|b| b.expect("all gathered")).collect();
        let results = (0..exprs.len())
            .map(|j| Self::merge(per_shard.iter().map(|b| b.results[j].clone()).collect()))
            .collect();
        Ok(BatchResult { results })
    }

    fn export_stats(&self) -> VocabularyStats {
        self.shard_export().merged.clone()
    }

    fn reconstruct_short(&self, id: DocId) -> Option<ShortDoc> {
        let (shard, local) = self.route.borrow().get(id.0 as usize).copied()?;
        let mut short = self.shard(shard).collection().short_form(local)?;
        short.id = id;
        Some(short)
    }

    fn as_sharded(&self) -> Option<&ShardedTextServer> {
        Some(self)
    }

    fn recorder(&self) -> Option<Rc<Recorder>> {
        ShardedTextServer::recorder(self)
    }

    fn topology_epoch(&self) -> u64 {
        self.epoch.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{Document, TextSchema};
    use crate::faults::{Fault, FaultPlan};

    fn corpus(n: usize) -> Collection {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let mut c = Collection::new(schema);
        for i in 0..n {
            c.add_document(
                Document::new()
                    .with(ti, format!("shared subject {i}"))
                    .with(au, format!("author{i}")),
            );
        }
        c
    }

    #[test]
    fn partition_is_deterministic_and_total() {
        let coll = corpus(40);
        let a = ShardedTextServer::new(&coll, 4, 7);
        let b = ShardedTextServer::new(&coll, 4, 7);
        assert_eq!(a.doc_count(), 40);
        let sizes: Vec<usize> = (0..4).map(|i| a.shard(i).doc_count()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 40);
        assert!(sizes.iter().all(|&s| s > 0), "seeded hash spreads docs: {sizes:?}");
        for g in 0..40 {
            assert_eq!(a.owner_of(DocId(g)), b.owner_of(DocId(g)));
        }
        // A different seed re-deals the placement.
        let c = ShardedTextServer::new(&coll, 4, 8);
        assert!((0..40).any(|g| a.owner_of(DocId(g)) != c.owner_of(DocId(g))));
    }

    #[test]
    fn scatter_search_matches_single_server_in_global_id_order() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let sharded = ShardedTextServer::new(&coll, 4, 7);
        let want = single.search_str("TI='shared'").unwrap();
        let got = TextService::search_str(&sharded, "TI='shared'").unwrap();
        assert_eq!(got.ids(), want.ids(), "same docids, global order");
        assert_eq!(got.docs, want.docs, "same short forms");
    }

    #[test]
    fn scatter_charges_each_shard_an_invocation() {
        let coll = corpus(40);
        let sharded = ShardedTextServer::new(&coll, 4, 7);
        TextService::search_str(&sharded, "TI='shared'").unwrap();
        for i in 0..4 {
            assert_eq!(sharded.shard_usage(i).invocations, 1, "shard {i}");
        }
        let u = TextService::usage(&sharded);
        assert_eq!(u.invocations, 4, "per-shard invocation charges aggregate");
        let mut summed = Usage::default();
        for i in 0..4 {
            summed.accumulate(&sharded.shard_usage(i));
        }
        assert_eq!(u, summed, "aggregate ledger is the exact shard sum");
    }

    #[test]
    fn retrieve_routes_to_the_owning_shard_only() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let sharded = ShardedTextServer::new(&coll, 4, 7);
        let want = single.retrieve(DocId(11)).unwrap();
        let got = TextService::retrieve(&sharded, DocId(11)).unwrap();
        assert_eq!(got, want);
        let owner = sharded.owner_of(DocId(11)).unwrap();
        for i in 0..4 {
            let u = sharded.shard_usage(i);
            if i == owner {
                assert_eq!(u.docs_long, 1);
            } else {
                assert_eq!(u, Usage::default(), "shard {i} untouched");
            }
        }
        assert!(matches!(
            TextService::retrieve(&sharded, DocId(999)),
            Err(TextError::UnknownDoc(DocId(999)))
        ));
    }

    #[test]
    fn aggregate_cap_is_min_over_shards_and_rejects_free() {
        let coll = corpus(40);
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        sharded.shard_mut(2).set_max_terms(2);
        assert_eq!(TextService::max_terms(&sharded), 2);
        let err =
            TextService::search_str(&sharded, "AU='a' or AU='b' or AU='c'").unwrap_err();
        assert!(matches!(err, TextError::TooManyTerms { count: 3, max: 2 }));
        let u = TextService::usage(&sharded);
        assert_eq!((u.invocations, u.rejected), (0, 1), "rejected uncharged");
    }

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
    fn reconstruct_short_stamps_global_ids() {
        let coll = corpus(10);
        let sharded = ShardedTextServer::new(&coll, 3, 7);
        let sf = TextService::reconstruct_short(&sharded, DocId(6)).unwrap();
        assert_eq!(sf.id, DocId(6));
        let single = TextServer::new(coll);
        assert_eq!(
            sf,
            TextService::reconstruct_short(&single, DocId(6)).unwrap()
        );
    }

    /// A corpus whose documents also carry long-form fields.
    fn corpus_with_abstracts(n: usize) -> Collection {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let ab = schema.field_by_name("abstract").unwrap();
        let yr = schema.field_by_name("year").unwrap();
        let mut c = Collection::new(schema);
        for i in 0..n {
            c.add_document(
                Document::new()
                    .with(ti, format!("shared subject {i}"))
                    .with(ab, format!("shared abstract of document {i}"))
                    .with(yr, format!("{}", 1990 + i % 5)),
            );
        }
        c
    }

    #[test]
    fn sharded_short_forms_equal_the_single_servers_and_hide_long_fields() {
        let coll = corpus_with_abstracts(40);
        let ab = coll.schema().field_by_name("abstract").unwrap();
        let ti = coll.schema().field_by_name("title").unwrap();
        let single = TextServer::new(coll.clone());
        let sharded = ShardedTextServer::replicated(&coll, 4, 2, 7);
        // The abstract is searchable on both, and shipped by neither.
        for q in ["AB='shared'", "TI='subject' and AB='document'", "YR=1993"] {
            let want = single.search_str(q).unwrap();
            let got = TextService::search_str(&sharded, q).unwrap();
            assert!(!want.docs.is_empty(), "{q}");
            assert_eq!(got.docs, want.docs, "{q}: same short forms, global ids");
            for (i, d) in got.docs.iter().enumerate() {
                assert_eq!(d.id, want.docs[i].id);
                assert_eq!(d.values(ti), [format!("shared subject {}", d.id.0)]);
                assert!(d.values(ab).is_empty(), "long field behind a short form");
                assert!(d.short_form_fields().all(|(f, _)| f != ab));
                assert!(!format!("{d:?}").contains("abstract of"));
                assert_eq!(*d, TextService::reconstruct_short(&sharded, d.id).unwrap());
            }
        }
    }

    #[test]
    fn topology_copies_share_each_document() {
        // Every physical copy — shard, replica, staged migration target —
        // holds the source collection's document by handle: the strings
        // exist once however wide the topology.
        let coll = corpus_with_abstracts(40);
        let mut sharded = ShardedTextServer::replicated(&coll, 4, 3, 7);
        let shares_source = |sharded: &ShardedTextServer, shard: usize, local: DocId, g: u32| {
            let source = coll.shared_document(DocId(g)).unwrap();
            (0..3).all(|r| {
                let copy = sharded.replica(shard, r).collection().shared_document(local);
                copy.is_some_and(|c| Arc::ptr_eq(c, source))
            })
        };
        for g in 0..40u32 {
            let (shard, local) = sharded.route.borrow()[g as usize];
            assert!(shares_source(&sharded, shard, local, g), "doc {g}");
        }
        let journal = sharded.begin_migration(MigrationPlan::seeded(3, 4, 40, 3, 2));
        assert!(journal.entries.iter().any(|e| e.docs > 0), "something was staged");
        let staged: Vec<(usize, DocId, u32)> = {
            let m = sharded.migration.borrow();
            let state = m.as_ref().unwrap();
            state
                .staged
                .iter()
                .zip(&state.journal.entries)
                .flat_map(|(docs, e)| docs.iter().map(|d| (e.dst, d.dst_local, d.global.0)))
                .collect()
        };
        for (dst, dst_local, g) in staged {
            assert!(shares_source(&sharded, dst, dst_local, g), "staged doc {g}");
        }
    }

    #[test]
    fn replica_placement_is_deterministic_and_serves_identically() {
        let coll = corpus(40);
        let a = ShardedTextServer::replicated(&coll, 4, 3, 7);
        let b = ShardedTextServer::replicated(&coll, 4, 3, 7);
        assert_eq!(a.replication_factor(), 3);
        for i in 0..4 {
            assert_eq!(a.primary_of(i), b.primary_of(i));
            assert_eq!(a.routing_order(i)[0], a.primary_of(i));
            let mut sorted = a.routing_order(i);
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "routing order is a permutation");
        }
        // Unreplicated construction pins every primary to replica 0.
        let r1 = ShardedTextServer::new(&coll, 4, 7);
        for i in 0..4 {
            assert_eq!(r1.primary_of(i), 0);
            assert_eq!(r1.routing_order(i), vec![0]);
        }
        // Replication never changes the answer.
        let single = TextServer::new(coll.clone());
        let want = single.search_str("TI='shared'").unwrap();
        let got = TextService::search_str(&a, "TI='shared'").unwrap();
        assert_eq!(got.docs, want.docs);
        // The healthy path charges only the primaries.
        let u = TextService::usage(&a);
        assert_eq!(u.invocations, 4, "secondaries are free while primaries answer");
    }

    #[test]
    fn dead_primary_fails_over_to_a_secondary() {
        let coll = corpus(40);
        let mut s = ShardedTextServer::replicated(&coll, 4, 2, 7);
        let p = s.primary_of(2);
        s.replica_mut(2, p).set_fault_plan(FaultPlan::dead(9));
        let single = TextServer::new(coll.clone());
        let want = single.search_str("TI='shared'").unwrap();
        let got = TextService::search_str(&s, "TI='shared'").unwrap();
        assert_eq!(got.docs, want.docs, "failover preserves the result");
        // The dead primary was charged its failed attempt; the secondary
        // served the real one.
        let sec = (p + 1) % 2;
        assert_eq!(s.replica(2, p).usage().faults, 1);
        assert_eq!(s.replica(2, sec).usage().invocations, 1);
        // Shard and aggregate ledgers both see every replica's charges.
        assert_eq!(s.shard_usage(2).faults, 1);
        let mut summed = *s.extra.borrow();
        for i in 0..4 {
            summed.accumulate(&s.shard_usage(i));
        }
        assert_eq!(TextService::usage(&s), summed);
        // Owner-routed retrieves fail over the same way.
        let victim = (0..40)
            .map(DocId)
            .find(|&g| s.owner_of(g) == Some(2))
            .unwrap();
        let doc = TextService::retrieve(&s, victim).unwrap();
        assert_eq!(doc, single.retrieve(victim).unwrap());
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
        let done = s.complete_gather(&pse.partial, &expr).unwrap();
        assert_eq!(
            s.shard_usage(0),
            before,
            "already-gathered shards are reused, never re-bought"
        );
        let single = TextServer::new(coll.clone());
        assert_eq!(done.docs, single.search(&expr).unwrap().docs);
    }

    #[test]
    fn rebate_replica_unbooks_a_cancelled_leg_everywhere() {
        let coll = corpus(40);
        let s = ShardedTextServer::replicated(&coll, 4, 2, 7);
        let expr = parse_search("TI='shared'", TextService::schema(&s)).unwrap();
        let loser = (s.primary_of(1) + 1) % 2;
        let aggregate_before = TextService::usage(&s);
        let leg_before = s.replica(1, loser).usage();
        s.search_replica(1, loser, &expr).unwrap();
        let leg = s.replica(1, loser).usage().since(&leg_before);
        assert!(leg.total_cost() > 0.0, "the leg did chargeable work");
        s.rebate_replica(1, loser, &leg);
        assert_eq!(s.replica(1, loser).usage(), leg_before);
        assert_eq!(s.shard_usage(1), Usage::default());
        assert_eq!(TextService::usage(&s), aggregate_before);
    }

    #[test]
    fn batch_scatters_with_per_shard_rebates() {
        let coll = corpus(20);
        let sharded = ShardedTextServer::new(&coll, 4, 7);
        let au = TextService::schema(&sharded).field_by_name("author").unwrap();
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

    // ---- online rebalancing -------------------------------------------

    use crate::rebalance::{MigrationPlan, MigrationProgress, Move, MoveStatus};

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
        assert!(TextService::topology_epoch(&sharded) > 0, "commits bump the epoch");
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
    fn interrupted_destination_resumes_without_rebuying_postings() {
        let coll = corpus(40);
        // Fault-free control run to learn the exact transfer invoice.
        let mut control = ShardedTextServer::new(&coll, 4, 7);
        let src = control.owner_of(DocId(0)).unwrap();
        let dst = (src + 1) % 4;
        let mv = Move { range: (DocId(0), DocId(40)), src, dst };
        control.begin_migration(MigrationPlan::new(vec![mv], 40));
        control.run_migration().unwrap();
        let control_postings = control.migration_usage().postings_processed;
        assert!(control_postings > 0);

        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        // The destination times out mid-ingest, then dies once more before
        // recovering: two interrupted attempts, one resume each.
        sharded.replica_mut(dst, 0).set_fault_plan(FaultPlan::scripted(vec![
            (0, Fault::Timeout { after_postings: 3 }),
            (1, Fault::Unavailable),
        ]));
        sharded.begin_migration(MigrationPlan::new(vec![mv], 40));
        assert!(matches!(sharded.migrate_batch(), Err(TextError::Unavailable)));
        assert!(matches!(sharded.migrate_batch(), Err(TextError::Unavailable)));
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
        sharded.replica_mut(src, p).set_fault_plan(FaultPlan::dead(9));
        sharded.begin_migration(MigrationPlan::new(
            vec![Move { range: (DocId(0), DocId(40)), src, dst }],
            3,
        ));
        sharded.run_migration().unwrap();
        assert_eq!(sharded.journal().unwrap().entries[0].status, MoveStatus::Done);
        assert!(sharded.migration_usage().faults > 0, "dead primary billed faults");
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
            vec![Move { range: (DocId(0), DocId(40)), src, dst }],
            1,
        ));
        // One batch commits, then the operator gives up on the move.
        sharded.migrate_batch().unwrap();
        let moved = DocId(0);
        assert_eq!(sharded.owner_of(moved), Some(dst));
        let epoch_before = TextService::topology_epoch(&sharded);
        assert!(sharded.abort_current_move());
        assert_eq!(sharded.owner_of(moved), Some(src), "committed doc reverted");
        assert_eq!(sharded.journal().unwrap().entries[0].status, MoveStatus::Aborted);
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
            events.iter().any(|e| matches!(e.kind, EventKind::RoutingStale { .. })),
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
    fn stats_routing_prunes_provably_irrelevant_shards() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let sharded = ShardedTextServer::new(&coll, 4, 7);
        sharded.set_stats_routing(true);
        // "author17" lives in exactly one document, hence one shard.
        let want = single.search_str("AU='author17'").unwrap();
        let got = TextService::search_str(&sharded, "AU='author17'").unwrap();
        assert_eq!(got.docs, want.docs);
        let u = TextService::usage(&sharded);
        assert_eq!(u.invocations, 1, "three shards pruned for free");
        let owner = sharded.owner_of(DocId(17)).unwrap();
        let mask = sharded.relevant_shards(&parse_search("AU='author17'", TextService::schema(&sharded)).unwrap());
        assert_eq!(mask.iter().filter(|&&b| b).count(), 1);
        assert!(mask[owner]);
        // A term present everywhere prunes nothing.
        let mask = sharded.relevant_shards(&parse_search("TI='shared'", TextService::schema(&sharded)).unwrap());
        assert!(mask.iter().all(|&b| b));
        // Routing off: no pruning, the invoice shape is the classic one.
        sharded.set_stats_routing(false);
        sharded.reset_usage();
        TextService::search_str(&sharded, "AU='author17'").unwrap();
        assert_eq!(TextService::usage(&sharded).invocations, 4);
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

    #[test]
    fn complete_gather_from_an_older_epoch_regathers_moved_shards() {
        let coll = corpus(40);
        let single = TextServer::new(coll.clone());
        let mut sharded = ShardedTextServer::new(&coll, 4, 7);
        let expr = parse_search("TI='shared'", TextService::schema(&sharded)).unwrap();
        // A full gather at epoch 0, kept as a stale partial.
        let partial: Vec<Option<SearchResult>> = (0..4)
            .map(|i| Some(sharded.failover_search(i, &expr).unwrap()))
            .collect();
        let src = sharded.owner_of(DocId(0)).unwrap();
        let dst = (src + 1) % 4;
        sharded.begin_migration(MigrationPlan::new(
            vec![Move { range: (DocId(0), DocId(40)), src, dst }],
            40,
        ));
        sharded.run_migration().unwrap();
        let before = TextService::usage(&sharded);
        let res = sharded.complete_gather_from(&partial, &expr, 0).unwrap();
        assert_eq!(res.docs, single.search_str("TI='shared'").unwrap().docs);
        let delta = TextService::usage(&sharded).since(&before);
        assert_eq!(
            delta.invocations, 2,
            "only the move's source and destination re-gathered"
        );
    }
}
