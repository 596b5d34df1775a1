//! The loose-integration service surface, as a trait.
//!
//! The paper's premise (Section 2.3) is that the database system talks to
//! *a* text retrieval service through `search`/`retrieve` operations without
//! seeing its internals. [`TextService`] captures exactly that surface so
//! the federated query processor can run unchanged against a single
//! [`TextServer`] or a [`ShardedTextServer`] that scatters each operation
//! across many of them.
//!
//! Everything here is metered: implementations charge the paper's cost
//! constants into a [`Usage`] ledger, and `usage()` must decompose as
//! `c_i·invocations + c_p·postings + c_s·short + c_l·long + time_backoff`.

use crate::batch::BatchResult;
use crate::doc::{DocId, Document, ShortDoc, TextSchema};
use crate::expr::SearchExpr;
use crate::server::{
    CostConstants, PartialRetrieveError, SearchResult, TextError, TextServer, Usage,
};
use crate::shard::ShardedTextServer;
use crate::stats::VocabularyStats;

/// The metered search/retrieve surface of a text retrieval service.
///
/// This is the *only* interface `textjoin-core` may use to answer queries
/// (the loose-integration invariant); the sole sanctioned exception is
/// [`reconstruct_short`](Self::reconstruct_short), which rebuilds short
/// forms that were *already transmitted* and charged.
pub trait TextService {
    /// The collection's text schema.
    fn schema(&self) -> &TextSchema;

    /// Total number of documents `D`. Boolean text services advertise their
    /// collection size, and the paper's cost model needs it.
    fn doc_count(&self) -> usize;

    /// The per-search basic-term cap `M` currently in force. May drop
    /// mid-query under a fault plan that injects `CapReduced`; a sharded
    /// service reports the *minimum* over its shards so a package legal
    /// here is legal everywhere it is scattered.
    fn max_terms(&self) -> usize;

    /// The cost constants in force.
    fn constants(&self) -> CostConstants;

    /// Snapshot of the usage counters. For a sharded service this is the
    /// exact sum of the per-shard ledgers plus any aggregate-level charges.
    fn usage(&self) -> Usage;

    /// Resets the usage counters (all shard ledgers, for a sharded service).
    fn reset_usage(&self);

    /// Charges simulated backoff a client spent waiting before a retry.
    fn charge_backoff(&self, seconds: f64);

    /// Executes a search, returning the short forms of all matches in
    /// docid order.
    fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError>;

    /// Parses and executes a Mercury-syntax search string.
    fn search_str(&self, query: &str) -> Result<SearchResult, TextError>;

    /// A probe (Section 3.3): a search whose caller only needs the docids.
    fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError>;

    /// Long-form retrieval of one document by docid.
    fn retrieve(&self, id: DocId) -> Result<Document, TextError>;

    /// Retrieves many documents, in order, returning the already-charged
    /// prefix inside the error on failure.
    fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>>;

    /// Multi-query invocation (Section 8 batch extension).
    fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError>;

    /// Exports vocabulary statistics (Section 8 extension). Free of query
    /// charges by design. The value is a handle onto an export the service
    /// keeps: while its content does not change, every call returns the
    /// same one ([`VocabularyStats::ptr_eq`]).
    fn export_stats(&self) -> VocabularyStats;

    /// Reconstructs the short form of a document whose short form was
    /// *already transmitted* (and charged) by an earlier search on this
    /// service — the one sanctioned loose-integration exception, used by
    /// P+RTP phase 2 so candidates shipped as probe result sets are not
    /// billed twice. Must not be used to answer a query the service was
    /// never asked.
    fn reconstruct_short(&self, id: DocId) -> Option<ShortDoc>;

    /// Downcast to a sharded service, when the caller wants per-shard
    /// orchestration (per-shard retry budgets, partial-failure gathers).
    fn as_sharded(&self) -> Option<&ShardedTextServer> {
        None
    }

    /// The attached flight recorder, if any. Default: not recording.
    /// Observation is passive by contract — an implementation must charge
    /// identically whether or not a recorder is attached.
    fn recorder(&self) -> Option<std::rc::Rc<textjoin_obs::Recorder>> {
        None
    }

    /// The current topology epoch: bumped whenever a migration batch
    /// commits (or aborts) and docid routing changes. Single servers never
    /// change topology, so the default is a constant 0. Cache keys that
    /// depend on routing decisions must incorporate this value.
    fn topology_epoch(&self) -> u64 {
        0
    }
}

impl TextService for TextServer {
    fn schema(&self) -> &TextSchema {
        self.collection().schema()
    }

    fn doc_count(&self) -> usize {
        TextServer::doc_count(self)
    }

    fn max_terms(&self) -> usize {
        TextServer::max_terms(self)
    }

    fn constants(&self) -> CostConstants {
        TextServer::constants(self)
    }

    fn usage(&self) -> Usage {
        TextServer::usage(self)
    }

    fn reset_usage(&self) {
        TextServer::reset_usage(self)
    }

    fn charge_backoff(&self, seconds: f64) {
        TextServer::charge_backoff(self, seconds)
    }

    fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        TextServer::search(self, expr)
    }

    fn search_str(&self, query: &str) -> Result<SearchResult, TextError> {
        TextServer::search_str(self, query)
    }

    fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        TextServer::probe(self, expr)
    }

    fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        TextServer::retrieve(self, id)
    }

    fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
        TextServer::retrieve_all(self, ids)
    }

    fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError> {
        TextServer::search_batch(self, exprs)
    }

    fn export_stats(&self) -> VocabularyStats {
        TextServer::export_stats(self)
    }

    fn reconstruct_short(&self, id: DocId) -> Option<ShortDoc> {
        self.collection().short_form(id)
    }

    fn recorder(&self) -> Option<std::rc::Rc<textjoin_obs::Recorder>> {
        TextServer::recorder(self)
    }
}
