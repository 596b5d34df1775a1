//! The loose-integration service surface, as a trait.
//!
//! The paper's premise (Section 2.3) is that the database system talks to
//! *a* text retrieval service through `search`/`retrieve` operations without
//! seeing its internals. [`TextService`] captures exactly that surface so
//! the federated query processor can run unchanged against a single
//! [`TextServer`] or a [`ShardedTextServer`] that scatters each operation
//! across many of them.
//!
//! The paper bills each invocation on its own (§4.1), and so does every
//! call here: its [`Billed`] form returns the value with its invoice.
//! Implementations also book each charge into a [`Usage`] ledger, the
//! second record, which decomposes tick for tick as `c_i·invocations +
//! c_p·postings + c_s·short + c_l·long + ns_backoff` ([`CostConstants::price`]).

use crate::batch::BatchResult;
use crate::doc::{DocId, Document, ShortDoc, TextSchema};
use crate::expr::SearchExpr;
use crate::server::{
    CostConstants, PartialRetrieveError, SearchResult, TextError, TextServer, Usage,
};
use crate::shard::ShardedTextServer;
use crate::stats::VocabularyStats;

/// One call's outcome with its invoice.
#[derive(Debug)]
pub struct Billed<T> {
    /// What the call returned.
    pub value: Result<T, TextError>,
    /// The sum of the charges the call booked, a failed call's too.
    pub invoice: Usage,
}

impl<T> Billed<T> {
    /// `call`'s outcome, billed with what it added to the invoice it is
    /// handed.
    pub(crate) fn summed(call: impl FnOnce(&mut Usage) -> Result<T, TextError>) -> Self {
        let mut invoice = Usage::default();
        let value = call(&mut invoice);
        Billed { value, invoice }
    }

    /// The same invoice over the value `f` makes of this one.
    pub(crate) fn map<U>(self, f: impl FnOnce(T) -> U) -> Billed<U> {
        Billed {
            value: self.value.map(f),
            invoice: self.invoice,
        }
    }
}

/// `call`, billed by the ledger delta around it: the billed forms' default.
fn ledger_delta<S: TextService + ?Sized, T>(
    service: &S,
    call: impl FnOnce() -> Result<T, TextError>,
) -> Billed<T> {
    let before = service.usage();
    let value = call();
    Billed {
        value,
        invoice: service.usage().since(&before),
    }
}

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

    /// [`search`](Self::search) with its invoice. The billed forms'
    /// default takes the ledger delta around the call, the library's one
    /// ledger diff, kept for implementors outside the workspace (`perf/`'s
    /// `TimedService`) until they are unhooked; in-tree services override
    /// each form they can bill from what they booked.
    fn search_billed(&self, expr: &SearchExpr) -> Billed<SearchResult> {
        ledger_delta(self, || self.search(expr))
    }

    /// [`probe`](Self::probe) with its invoice.
    fn probe_billed(&self, expr: &SearchExpr) -> Billed<Vec<DocId>> {
        ledger_delta(self, || self.probe(expr))
    }

    /// [`retrieve`](Self::retrieve) with its invoice.
    fn retrieve_billed(&self, id: DocId) -> Billed<Document> {
        ledger_delta(self, || self.retrieve(id))
    }

    /// [`search_batch`](Self::search_batch) with its invoice.
    fn search_batch_billed(&self, exprs: &[SearchExpr]) -> Billed<BatchResult> {
        ledger_delta(self, || self.search_batch(exprs))
    }

    /// [`charge_backoff`](Self::charge_backoff), returning its invoice.
    fn backoff_billed(&self, seconds: f64) -> Usage {
        let wait = || {
            self.charge_backoff(seconds);
            Ok(())
        };
        ledger_delta(self, wait).invoice
    }

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

/// Forwards each listed method to the inherent [`TextServer`] method of
/// the same name.
macro_rules! forward {
    ($(fn $name:ident(&self $(, $arg:ident: $ty:ty)*) -> $ret:ty;)+) => {
        $(fn $name(&self $(, $arg: $ty)*) -> $ret {
            TextServer::$name(self $(, $arg)*)
        })+
    };
}

impl TextService for TextServer {
    forward! {
        fn doc_count(&self) -> usize;
        fn max_terms(&self) -> usize;
        fn constants(&self) -> CostConstants;
        fn usage(&self) -> Usage;
        fn reset_usage(&self) -> ();
        fn charge_backoff(&self, seconds: f64) -> ();
        fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError>;
        fn search_str(&self, query: &str) -> Result<SearchResult, TextError>;
        fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError>;
        fn retrieve(&self, id: DocId) -> Result<Document, TextError>;
        fn retrieve_all(&self, ids: &[DocId])
            -> Result<Vec<Document>, Box<PartialRetrieveError>>;
        fn search_batch(&self, exprs: &[SearchExpr]) -> Result<BatchResult, TextError>;
        fn search_billed(&self, expr: &SearchExpr) -> Billed<SearchResult>;
        fn probe_billed(&self, expr: &SearchExpr) -> Billed<Vec<DocId>>;
        fn retrieve_billed(&self, id: DocId) -> Billed<Document>;
        fn search_batch_billed(&self, exprs: &[SearchExpr]) -> Billed<BatchResult>;
        fn export_stats(&self) -> VocabularyStats;
        fn recorder(&self) -> Option<std::rc::Rc<textjoin_obs::Recorder>>;
    }

    fn schema(&self) -> &TextSchema {
        self.collection().schema()
    }

    fn backoff_billed(&self, seconds: f64) -> Usage {
        self.book_backoff(textjoin_obs::ns(seconds), 1).into()
    }

    fn reconstruct_short(&self, id: DocId) -> Option<ShortDoc> {
        self.collection().short_form(id)
    }
}
