//! Sharded text collections: one logical service over many physical servers.
//!
//! A Mercury-style deployment spreads its collection across many search
//! endpoints. [`ShardedTextServer`] models that: a [`Collection`] is cut
//! once into a [`Partition`] (seeded hash of the docid), and each cluster
//! over it serves the N shards through inner [`TextServer`]s, each with its
//! own fault plan, term cap and [`Usage`] ledger. `search`/`probe` scatter
//! to **all** shards (each charges its own `c_i`) and union-merge in global
//! docid order; `retrieve` routes to the owning shard. The aggregate
//! [`Usage`] is the exact sum of the shard ledgers, the aggregate-level
//! counters (cap rejections, service-wide backoff) and the migration
//! bucket, so `c_i·I + c_p·P + c_s·S + c_l·L + backoff` keeps holding.
//!
//! Partial failure is typed: a shard that exhausts its retries mid-gather
//! yields a [`PartialShardError`] (in `TextError::Shard`) carrying the
//! results gathered so far, so callers re-route the missing sub-query or
//! fail cleanly — never with a wrong multiset.
//!
//! This module holds the topology, the ledgers, stats routing and the
//! [`TextService`] impl; `gather` the replica legs, the failover pass and
//! the one gather loop; `migration` the online rebalancing engine.

mod gather;
mod migration;

pub use gather::PartialShardError;

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;

use textjoin_obs::{ns, splitmix64, Charge, EventKind, Recorder};

use crate::batch::BatchResult;
use crate::doc::{DocId, Document, ShortDoc, TextSchema};
use crate::expr::{BasicTerm, SearchExpr, TermKind};
use crate::index::Collection;
use crate::parse::parse_search;
use crate::rebalance::MigrationState;
use crate::server::{
    retrieve_each, CostConstants, Ledger, PartialRetrieveError, SearchResult, TextError,
    TextServer, Usage,
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

/// A deterministic partition of one [`Collection`] across N metered
/// [`TextServer`] shards, presenting the same [`TextService`] surface.
///
/// Each logical shard owns R replica servers sharing one collection, the
/// shard's slice, each with its own fault plan, term cap, and ledger.
/// One replica is the seeded-deterministic **primary**; the others form a
/// failover rotation (`routing_order`). R defaults to 1, in which case
/// every path below degenerates to the unreplicated behavior exactly.
#[derive(Debug)]
pub struct ShardedTextServer {
    /// `replicas[i]` = the servers of shard `i`'s slice, one collection;
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
    extra: Ledger,
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
    migration_usage: Ledger,
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

/// One collection dealt out across shards, cut once: every cluster built
/// [`over`](ShardedTextServer::over) it shares its shard collections. The
/// deal is the seeded hash `splitmix64(seed ⊕ docid) mod n_shards`, so the
/// same `(collection, seed, n_shards)` always yields the same placement.
#[derive(Debug)]
pub struct Partition {
    shards: Vec<Rc<Collection>>,
    route: Vec<(usize, DocId)>,
    to_global: Vec<Vec<DocId>>,
    seed: u64,
}

impl Partition {
    /// Cuts `coll` into `n_shards` shards out of its built index.
    pub fn new(coll: &Collection, n_shards: usize, seed: u64) -> Self {
        assert!(n_shards > 0, "a sharded server needs at least one shard");
        let mut to_global: Vec<Vec<DocId>> = vec![Vec::new(); n_shards];
        let route: Vec<(usize, DocId)> = (0..coll.doc_count() as u32)
            .map(|g| {
                let shard = (splitmix64(seed ^ u64::from(g)) % n_shards as u64) as usize;
                to_global[shard].push(DocId(g));
                (shard, DocId(to_global[shard].len() as u32 - 1))
            })
            .collect();
        let shards = coll
            .split(&route, n_shards)
            .into_iter()
            .map(Rc::new)
            .collect();
        Self {
            shards,
            route,
            to_global,
            seed,
        }
    }
}

impl ShardedTextServer {
    /// Partitions `coll` across `n_shards` unreplicated servers with the
    /// default (Mercury-calibrated) constants.
    pub fn new(coll: &Collection, n_shards: usize, seed: u64) -> Self {
        Self::replicated(coll, n_shards, 1, seed)
    }

    /// Partitions `coll` across `n_shards` logical shards of `n_replicas`
    /// servers each, with default constants.
    pub fn replicated(coll: &Collection, n_shards: usize, n_replicas: usize, seed: u64) -> Self {
        Self::over(
            &Partition::new(coll, n_shards, seed),
            n_replicas,
            CostConstants::default(),
        )
    }

    /// A cluster of `n_replicas` servers per shard of `partition`, each
    /// with its own ledger, fault plan, recorder and cap, all replicas of a
    /// shard sharing its collection, and all servers one constant set.
    /// Primaries are placed by a seeded hash, so the topology is too.
    pub fn over(partition: &Partition, n_replicas: usize, constants: CostConstants) -> Self {
        assert!(n_replicas > 0, "each shard needs at least one replica");
        let n_shards = partition.shards.len();
        let mut replicas: Vec<Vec<TextServer>> = Vec::with_capacity(n_shards);
        let mut primary = Vec::with_capacity(n_shards);
        for (i, coll) in partition.shards.iter().enumerate() {
            let copies: Vec<TextServer> = (0..n_replicas)
                .map(|_| TextServer::with_constants(Rc::clone(coll), constants))
                .collect();
            for s in &copies {
                s.set_shard_index(i);
            }
            // Seeded primary placement: mixed separately from the document
            // partition so the two deals are independent. R=1 pins it to 0.
            let seed = partition.seed ^ 0xCAB1E ^ i as u64;
            primary.push((splitmix64(seed) % n_replicas as u64) as usize);
            replicas.push(copies);
        }
        Self {
            replicas,
            primary,
            route: RefCell::new(partition.route.clone()),
            to_global: partition.to_global.clone(),
            hidden: RefCell::new(vec![BTreeSet::new(); n_shards]),
            extra: Ledger::default(),
            recorder: RefCell::new(None),
            epoch: Cell::new(0),
            epoch_log: RefCell::new(Vec::new()),
            migration: RefCell::new(None),
            migration_usage: Ledger::default(),
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
    pub(crate) fn recorder(&self) -> Option<Rc<Recorder>> {
        self.recorder.borrow().clone()
    }

    fn emit(&self, kind: EventKind) {
        if let Some(rec) = &*self.recorder.borrow() {
            rec.emit(kind);
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.replicas.len()
    }

    /// Number of replicas per shard (1 = unreplicated).
    pub fn replication_factor(&self) -> usize {
        self.replicas[0].len()
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
    /// the aggregate identity `usage() = extra + migration_usage() +
    /// Σ shard_usage(i)` holds no matter which replica absorbed a charge.
    pub fn shard_usage(&self, i: usize) -> Usage {
        let mut total = Usage::default();
        for s in &self.replicas[i] {
            total.accumulate(&s.usage());
        }
        total
    }

    /// Charges simulated retry backoff against shard `i`'s primary (the
    /// shard that caused the wait pays), returning the wait's invoice.
    pub fn charge_shard_backoff(&self, i: usize, seconds: f64) -> Usage {
        self.charge_replica_backoff(i, self.primary[i], seconds)
    }

    /// Charges simulated retry backoff against replica `r` of shard `i`,
    /// returning the wait's invoice.
    pub fn charge_replica_backoff(&self, i: usize, r: usize, seconds: f64) -> Usage {
        self.replicas[i][r].backoff_billed(seconds)
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
            if e.parts
                .iter()
                .enumerate()
                .all(|(i, p)| p.ptr_eq(current(i)))
            {
                return Rc::clone(e);
            }
        }
        let parts: Vec<VocabularyStats> = (0..self.replicas.len())
            .map(|i| current(i).clone())
            .collect();
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

    /// The per-replica ledgers, the aggregate-level counters and the
    /// migration bucket, summed.
    fn usage(&self) -> Usage {
        let mut total = self.extra.get();
        total.accumulate(&self.migration_usage.get());
        for s in self.replicas.iter().flatten() {
            total.accumulate(&s.usage());
        }
        total
    }

    fn reset_usage(&self) {
        self.extra.reset();
        self.migration_usage.reset();
        for s in self.replicas.iter().flatten() {
            s.reset_usage();
        }
    }

    /// Backoff charged against the service as a whole (when the caller does
    /// not attribute the wait to one shard — per-shard retry loops use
    /// [`charge_shard_backoff`](Self::charge_shard_backoff) instead).
    fn charge_backoff(&self, seconds: f64) {
        self.backoff_billed(seconds);
    }

    fn backoff_billed(&self, seconds: f64) -> Usage {
        let charge = Charge {
            retries: 1,
            ns_backoff: ns(seconds),
            ..Charge::default()
        };
        self.emit(EventKind::Backoff {
            shard: None,
            charge: self.extra.book(charge),
        });
        charge.into()
    }

    /// A scatter is a gather completed from nothing: single attempt per
    /// replica, in shard order. A shard whose every replica fails
    /// transiently wraps the results gathered so far into a
    /// [`PartialShardError`].
    fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        self.validate_cap(expr)?;
        self.complete_gather_from(&[], expr, self.epoch.get()).value
    }

    fn search_str(&self, query: &str) -> Result<SearchResult, TextError> {
        let expr = parse_search(query, TextService::schema(self))?;
        TextService::search(self, &expr)
    }

    fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        Ok(TextService::search(self, expr)?.docs.into_ids())
    }

    /// Routes to the owning shard, failing over through its replica
    /// routing order on transient errors (single attempt per replica).
    fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        let routed = self.route.borrow().get(id.0 as usize).copied();
        let (shard, local) = routed.ok_or(TextError::UnknownDoc(id))?;
        self.failover(shard, &self.routing_order(shard), |r| {
            self.replicas[shard][r].retrieve(local)
        })
    }

    fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
        retrieve_each(ids, |id| TextService::retrieve(self, id))
    }

    /// Scatters the whole batch to every shard (each applies its own
    /// invocation rebate) and union-merges member-wise. Caps are validated
    /// against the aggregate cap up front, so a rejected batch is free.
    fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        for e in exprs {
            self.validate_cap(e)?;
        }
        self.gather_batch(exprs, |i| {
            self.failover(i, &self.routing_order(i), |r| {
                self.pace_migration();
                self.batch_replica(i, r, exprs).value
            })
        })
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
    use crate::faults::FaultPlan;
    use crate::rebalance::MigrationPlan;

    /// `n` documents sharing a title word, each with its own author.
    pub(super) fn corpus(n: usize) -> Collection {
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
        assert!(
            sizes.iter().all(|&s| s > 0),
            "seeded hash spreads docs: {sizes:?}"
        );
        for g in 0..40 {
            assert_eq!(a.owner_of(DocId(g)), b.owner_of(DocId(g)));
        }
        // A different seed re-deals the placement.
        let c = ShardedTextServer::new(&coll, 4, 8);
        assert!((0..40).any(|g| a.owner_of(DocId(g)) != c.owner_of(DocId(g))));
    }

    #[test]
    fn scatter_matches_single_server_in_global_id_order() {
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
        let err = TextService::search_str(&sharded, "AU='a' or AU='b' or AU='c'").unwrap_err();
        assert!(matches!(err, TextError::TooManyTerms { count: 3, max: 2 }));
        let u = TextService::usage(&sharded);
        assert_eq!((u.invocations, u.rejected), (0, 1), "rejected uncharged");
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
            for (d, w) in got.docs.iter().zip(want.docs.iter()) {
                assert_eq!(d.id, w.id);
                assert_eq!(d.values(ti), [format!("shared subject {}", d.id.0)]);
                assert!(d.values(ab).is_empty(), "long field behind a short form");
                assert!(d.short_form_fields().all(|(f, _)| f != ab));
                assert!(!format!("{d:?}").contains("abstract of"));
                assert_eq!(
                    d.to_owned(),
                    TextService::reconstruct_short(&sharded, d.id).unwrap()
                );
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
            let source = coll.document(DocId(g)).unwrap();
            (0..3).all(|r| {
                let copy = sharded.replica(shard, r).collection().document(local);
                copy.is_some_and(|c| c.ptr_eq(source))
            })
        };
        for g in 0..40u32 {
            let (shard, local) = sharded.route.borrow()[g as usize];
            assert!(shares_source(&sharded, shard, local, g), "doc {g}");
        }
        let journal = sharded.begin_migration(MigrationPlan::seeded(3, 4, 40, 3, 2));
        assert!(
            journal.entries.iter().any(|e| e.docs > 0),
            "something was staged"
        );
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
        assert_eq!(
            u.invocations, 4,
            "secondaries are free while primaries answer"
        );
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
        let mut summed = s.extra.get();
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
    fn a_replica_rebate_unbooks_a_cancelled_leg_everywhere() {
        let coll = corpus(40);
        let s = ShardedTextServer::replicated(&coll, 4, 2, 7);
        let expr = parse_search("TI='shared'", TextService::schema(&s)).unwrap();
        let loser = (s.primary_of(1) + 1) % 2;
        let aggregate_before = TextService::usage(&s);
        let leg_before = s.replica(1, loser).usage();
        let leg = s.search_replica(1, loser, &expr);
        assert!(leg.value.is_ok());
        let booked = s.replica(1, loser).usage().since(&leg_before);
        assert_eq!(leg.invoice, booked, "the leg bills what its replica booked");
        assert!(
            leg.invoice.total_cost() > 0.0,
            "the leg did chargeable work"
        );
        let mut net = s.replica(1, loser).rebate(&leg.invoice);
        net.accumulate(&leg.invoice);
        assert_eq!(net, Usage::default(), "the rebate bills the leg's negation");
        assert_eq!(s.replica(1, loser).usage(), leg_before);
        assert_eq!(s.shard_usage(1), Usage::default());
        assert_eq!(TextService::usage(&s), aggregate_before);
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
        let mask = sharded.relevant_shards(
            &parse_search("AU='author17'", TextService::schema(&sharded)).unwrap(),
        );
        assert_eq!(mask.iter().filter(|&&b| b).count(), 1);
        assert!(mask[owner]);
        // A term present everywhere prunes nothing.
        let mask = sharded
            .relevant_shards(&parse_search("TI='shared'", TextService::schema(&sharded)).unwrap());
        assert!(mask.iter().all(|&b| b));
        // Routing off: no pruning, the invoice shape is the classic one.
        sharded.set_stats_routing(false);
        sharded.reset_usage();
        TextService::search_str(&sharded, "AU='author17'").unwrap();
        assert_eq!(TextService::usage(&sharded).invocations, 4);
    }
}
