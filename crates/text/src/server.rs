//! The cost-charging text server façade.
//!
//! This is the boundary the paper's *loose integration* assumes: the
//! database system cannot see the text system's internal structures and may
//! only issue `search` and `retrieve` operations (Section 2.3). The façade
//! wraps a [`Collection`] and bills every operation with the paper's cost
//! model (Section 4.1):
//!
//! ```text
//! cost(search) = c_i  +  c_p × Σ |inverted lists processed|  +  c_s × |result set|
//! cost(retrieve) = c_l        (per long-form document; includes its own
//!                              connection overhead, which is why c_l ≫ c_s)
//! ```
//!
//! The constants calibrated on the integrated OpenODB–Mercury system were
//! `c_i = 3 s`, `c_p = 1e-5 s/posting`, `c_s = 0.015 s/doc`, `c_l = 4 s/doc`
//! — available as [`CostConstants::mercury_calibrated`]. All "time" in this
//! crate is simulated time, integer nanosecond ticks that
//! [`CostConstants::price`] charges from these constants; wall-clock time
//! plays no role, which makes every experiment deterministic.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use textjoin_obs::{ns, secs, Charge, EventKind, Recorder};

use crate::doc::{DocId, Document, ShortForms};
use crate::eval::evaluate;
use crate::expr::SearchExpr;
use crate::faults::{Fault, FaultPlan};
use crate::index::Collection;
use crate::parse::{parse_search, ParseError};
use crate::postings::DocSet;
use crate::service::Billed;

/// The cost-model constants of Table 1 / Section 4.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Invocation cost per search call (connection + query shipping), sec.
    pub c_i: f64,
    /// Processing cost per posting on the inverted lists read, sec/posting.
    pub c_p: f64,
    /// Short-form transmission cost, sec/document in the result set.
    pub c_s: f64,
    /// Long-form transmission cost, sec/document retrieved.
    pub c_l: f64,
}

impl CostConstants {
    /// The values calibrated against the OpenODB–Mercury integration
    /// (paper, Section 4.1).
    pub fn mercury_calibrated() -> Self {
        Self {
            c_i: 3.0,
            c_p: 0.000_01,
            c_s: 0.015,
            c_l: 4.0,
        }
    }

    /// `counts` with its invocation, processing and transmission ticks
    /// priced: `ns(c_i)` per invocation, `ns(c_p)` per posting, `ns(c_s)`
    /// per short and `ns(c_l)` per long document. Backoff passes through.
    pub fn price(&self, counts: Charge) -> Charge {
        let per = |c: f64, n: i64| ns(c).wrapping_mul(n);
        Charge {
            ns_invocation: per(self.c_i, counts.invocations),
            ns_processing: per(self.c_p, counts.postings),
            ns_transmission: per(self.c_s, counts.docs_short)
                .wrapping_add(per(self.c_l, counts.docs_long)),
            ..counts
        }
    }
}

impl Default for CostConstants {
    fn default() -> Self {
        Self::mercury_calibrated()
    }
}

/// Declares [`Usage`] from one list of its `u64` counters: the struct, its
/// field-wise sum and its field-wise difference.
macro_rules! usage {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)+
        }

        impl $name {
            /// Adds another ledger or invoice into this one, counter by
            /// counter. The add wraps, as [`book`](Self::book)'s does, so a
            /// rebate's invoice (its fields wrapped negative) subtracts.
            pub fn accumulate(&mut self, other: &$name) {
                $(self.$field = self.$field.wrapping_add(other.$field);)+
            }

            /// The difference `self - earlier`, for measuring a sub-operation.
            pub fn since(&self, earlier: &$name) -> $name {
                $name { $($field: self.$field - earlier.$field),+ }
            }
        }
    };
}

usage! {
    /// Running usage counters and the simulated cost accumulated so far.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Usage {
        /// Number of search invocations (each charged `c_i`).
        invocations,
        /// Number of searches rejected (term cap exceeded); not charged.
        rejected,
        /// Postings processed across all searches (charged `c_p` each).
        postings_processed,
        /// Documents transmitted in short form (charged `c_s` each).
        docs_short,
        /// Documents transmitted in long form (charged `c_l` each).
        docs_long,
        /// Simulated nanoseconds spent on invocations.
        ns_invocation,
        /// Simulated nanoseconds spent processing postings.
        ns_processing,
        /// Simulated nanoseconds spent transmitting results (both forms).
        ns_transmission,
        /// Injected faults observed (each failed attempt also charged above).
        faults,
        /// Client retries performed after transient faults.
        retries,
        /// Simulated nanoseconds the client spent backing off between retries.
        ns_backoff,
        /// Probe-cache hits observed by the client during the measured work.
        /// Free — caches never charge; the counters ride along so every
        /// cost report can say how much sharing backed it. Ledgers and
        /// invoices always carry zero here; methods fold their cache stats
        /// into the report.
        cache_hits,
        /// Probe-cache misses observed by the client (free, see `cache_hits`).
        cache_misses,
        /// Probe-cache entries evicted by epoch garbage collection (free).
        cache_evicted,
    }
}

impl Usage {
    /// Total simulated cost in ticks (nanoseconds).
    pub fn ticks(&self) -> u64 {
        [self.ns_processing, self.ns_transmission, self.ns_backoff]
            .into_iter()
            .fold(self.ns_invocation, u64::wrapping_add)
    }

    /// Total simulated cost in seconds: [`ticks`](Self::ticks) rendered.
    pub fn total_cost(&self) -> f64 {
        secs(self.ticks() as i64)
    }

    /// Books a charge: adds each of its eleven fields to the counter it
    /// mirrors. Resets aside, this is the only way a ledger moves, and the
    /// event that reports a booking carries the `Charge` that was booked, so
    /// a trace and its ledger cannot disagree. The fields are unsigned and
    /// a rebate's charge is negative: the signed add wraps as `-=` does in
    /// a release build.
    pub fn book(&mut self, c: &Charge) {
        self.invocations = self.invocations.wrapping_add_signed(c.invocations);
        self.rejected = self.rejected.wrapping_add_signed(c.rejected);
        self.postings_processed = self.postings_processed.wrapping_add_signed(c.postings);
        self.docs_short = self.docs_short.wrapping_add_signed(c.docs_short);
        self.docs_long = self.docs_long.wrapping_add_signed(c.docs_long);
        self.ns_invocation = self.ns_invocation.wrapping_add_signed(c.ns_invocation);
        self.ns_processing = self.ns_processing.wrapping_add_signed(c.ns_processing);
        self.ns_transmission = self.ns_transmission.wrapping_add_signed(c.ns_transmission);
        self.faults = self.faults.wrapping_add_signed(c.faults);
        self.retries = self.retries.wrapping_add_signed(c.retries);
        self.ns_backoff = self.ns_backoff.wrapping_add_signed(c.ns_backoff);
    }
}

/// A server, a sharded server's aggregate level or its migration bucket:
/// each books into a `Ledger`, whose `book` and `reset` are its only writers.
mod ledger {
    use super::{Charge, RefCell, Usage};

    #[derive(Debug, Default)]
    pub(crate) struct Ledger(RefCell<Usage>);

    impl Ledger {
        /// Books `charge` ([`Usage::book`]) and hands it back.
        pub(crate) fn book(&self, charge: Charge) -> Charge {
            self.0.borrow_mut().book(&charge);
            charge
        }

        pub(crate) fn reset(&self) {
            *self.0.borrow_mut() = Usage::default();
        }

        pub(crate) fn get(&self) -> Usage {
            *self.0.borrow()
        }
    }
}
pub(crate) use ledger::Ledger;

/// The invoice of one booked charge.
impl From<Charge> for Usage {
    fn from(c: Charge) -> Usage {
        let mut u = Usage::default();
        u.book(&c);
        u
    }
}

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}s (inv {} = {:.2}s, post {} = {:.2}s, xmit {}s/{}l = {:.2}s",
            self.total_cost(),
            self.invocations,
            secs(self.ns_invocation as i64),
            self.postings_processed,
            secs(self.ns_processing as i64),
            self.docs_short,
            self.docs_long,
            secs(self.ns_transmission as i64),
        )?;
        // Only rendered when fault injection was active, so fault-free runs
        // print byte-identically to the pre-fault-model format.
        if self.faults > 0 || self.retries > 0 || self.ns_backoff != 0 {
            write!(
                f,
                ", faults {} / retries {} = {:.2}s backoff",
                self.faults,
                self.retries,
                secs(self.ns_backoff as i64),
            )?;
        }
        write!(f, ")")
    }
}

/// Errors surfaced by the text server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextError {
    /// The search had more basic terms than the server's cap `M`.
    TooManyTerms {
        /// Terms in the rejected search.
        count: usize,
        /// The server's cap.
        max: usize,
    },
    /// `retrieve` was called with an unknown docid.
    UnknownDoc(DocId),
    /// The query string failed to parse.
    Parse(ParseError),
    /// The server refused the connection (injected fault). Transient: the
    /// connection attempt was still charged `c_i`.
    Unavailable,
    /// The server gave up mid-scan after processing (and charging for)
    /// `postings` postings (injected fault). Transient.
    Timeout {
        /// Postings processed — and charged — before the deadline.
        postings: u64,
    },
    /// The server renegotiated its term cap down to `new_m` mid-flight
    /// (injected fault). Not transient: an identical retry cannot succeed;
    /// the client must re-package its search under the new cap.
    CapReduced {
        /// The cap now in force.
        new_m: usize,
    },
    /// A shard of a [`ShardedTextServer`](crate::shard::ShardedTextServer)
    /// exhausted its retries mid-gather. Carries the per-shard results
    /// already gathered. Not transient at this level: the per-shard retry
    /// loop already ran; callers re-route or fail cleanly.
    Shard(Box<crate::shard::PartialShardError>),
    /// A serving session's per-query budget guard refused to issue the
    /// next charged operation: actual charges overran the admitted
    /// estimate. Not transient — retrying verbatim would only charge
    /// more. Amounts are integer simulated milliseconds so the error
    /// stays `Eq`-comparable. Charges already booked stay in the ledger.
    BudgetExceeded {
        /// Simulated milliseconds already charged to the query.
        spent_ms: u64,
        /// The guard's limit in simulated milliseconds.
        limit_ms: u64,
    },
}

impl TextError {
    /// Whether an *identical* retry of the failed operation can succeed.
    ///
    /// `Unavailable` and `Timeout` model momentary server conditions, so a
    /// bounded retry loop is the right response. Everything else is
    /// deterministic (cap violations, unknown ids, syntax) — retrying
    /// verbatim would fail forever, the caller must change the request.
    pub fn is_transient(&self) -> bool {
        matches!(self, TextError::Unavailable | TextError::Timeout { .. })
    }
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextError::TooManyTerms { count, max } => {
                write!(f, "search has {count} terms, server allows at most {max}")
            }
            TextError::UnknownDoc(id) => write!(f, "unknown document {id}"),
            TextError::Parse(e) => write!(f, "{e}"),
            TextError::Unavailable => write!(f, "text server unavailable (connection refused)"),
            TextError::Timeout { postings } => {
                write!(
                    f,
                    "text server timed out after processing {postings} postings"
                )
            }
            TextError::CapReduced { new_m } => {
                write!(f, "text server reduced its term cap to {new_m} mid-query")
            }
            TextError::Shard(pse) => write!(f, "{pse}"),
            TextError::BudgetExceeded { spent_ms, limit_ms } => write!(
                f,
                "query budget exceeded: {:.3}s charged of {:.3}s admitted",
                *spent_ms as f64 / 1000.0,
                *limit_ms as f64 / 1000.0
            ),
        }
    }
}

impl std::error::Error for TextError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TextError::Shard(pse) => Some(&**pse),
            _ => None,
        }
    }
}

/// Error from [`TextServer::retrieve_all`]: the retrievals completed before
/// the failure were charged `c_l` each, so their documents are returned
/// rather than silently dropped (the meter and the result set stay
/// consistent).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRetrieveError {
    /// Documents retrieved — and charged — before the failure, in order.
    pub docs: Vec<Document>,
    /// The docid whose retrieval failed.
    pub failed: DocId,
    /// The underlying failure.
    pub error: TextError,
}

impl fmt::Display for PartialRetrieveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "retrieve_all failed at document {} after {} retrievals: {}",
            self.failed,
            self.docs.len(),
            self.error
        )
    }
}

impl std::error::Error for PartialRetrieveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// `retrieve` over `ids` in order, the charged prefix kept inside the
/// error of the first that fails.
pub(crate) fn retrieve_each(
    ids: &[DocId],
    retrieve: impl Fn(DocId) -> Result<Document, TextError>,
) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
    let mut docs = Vec::with_capacity(ids.len());
    for &id in ids {
        match retrieve(id) {
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

impl From<ParseError> for TextError {
    fn from(e: ParseError) -> Self {
        TextError::Parse(e)
    }
}

/// A search result set: the short forms of all matching documents, in docid
/// order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SearchResult {
    /// Matching documents, short form, sorted by docid.
    pub docs: ShortForms,
}

impl SearchResult {
    /// Matching docids in order.
    pub fn ids(&self) -> Vec<DocId> {
        self.docs.ids().to_vec()
    }

    /// Number of matches.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }
}

/// Default per-search basic-term cap — Mercury allowed 70 terms (Section 3.2).
pub const DEFAULT_MAX_TERMS: usize = 70;

/// The text server: a [`Collection`] behind a metered search/retrieve API.
///
/// Interior mutability keeps the API `&self` so that an optimizer, an
/// executor, and a statistics sampler can share one server within a query.
#[derive(Debug)]
pub struct TextServer {
    /// Shared by a shard's replicas and its partition; copied on write.
    coll: Rc<Collection>,
    constants: CostConstants,
    /// `Cell` because an injected [`Fault::CapReduced`] renegotiates the cap
    /// through the shared `&self` API.
    max_terms: Cell<usize>,
    usage: Ledger,
    trace: Cell<bool>,
    log: RefCell<Vec<String>>,
    fault_plan: FaultPlan,
    /// Flight recorder, if attached. Strictly passive: events describe
    /// charges the ledger above has already booked.
    recorder: RefCell<Option<Rc<Recorder>>>,
    /// Position within a [`ShardedTextServer`](crate::shard::ShardedTextServer),
    /// stamped at construction so emitted events carry their shard.
    shard_index: Cell<Option<usize>>,
}

impl TextServer {
    /// Wraps `coll` with the default (Mercury-calibrated) constants and the
    /// default term cap of 70.
    pub fn new(coll: Collection) -> Self {
        Self::with_constants(coll, CostConstants::default())
    }

    /// Wraps `coll`, or a handle other servers share, with explicit cost
    /// constants.
    pub fn with_constants(coll: impl Into<Rc<Collection>>, constants: CostConstants) -> Self {
        Self {
            coll: coll.into(),
            constants,
            max_terms: Cell::new(DEFAULT_MAX_TERMS),
            usage: Ledger::default(),
            trace: Cell::new(false),
            log: RefCell::new(Vec::new()),
            fault_plan: FaultPlan::none(),
            recorder: RefCell::new(None),
            shard_index: Cell::new(None),
        }
    }

    /// Sets the per-search basic-term cap `M`.
    pub fn set_max_terms(&mut self, m: usize) {
        self.max_terms.set(m);
    }

    /// The per-search basic-term cap `M`. May drop mid-query under a fault
    /// plan that injects [`Fault::CapReduced`].
    pub fn max_terms(&self) -> usize {
        self.max_terms.get()
    }

    /// Installs a fault plan (replaces the default no-fault plan).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// The fault plan in force.
    pub(crate) fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The cost constants in force.
    pub fn constants(&self) -> CostConstants {
        self.constants
    }

    /// The wrapped collection. Exposed for corpus construction and for the
    /// statistics-export extension; the paper's join methods never touch it
    /// directly (they would defeat the loose-integration premise), and the
    /// core crate's executor only goes through `search`/`retrieve`.
    pub fn collection(&self) -> &Collection {
        &self.coll
    }

    /// Mutable access to the wrapped collection through a copy-on-write: it
    /// is copied first if another server still holds it. For the sharded
    /// server's migration staging only, which appends copies of in-flight
    /// documents to a destination shard before re-routing. Queries never
    /// mutate the collection.
    pub(crate) fn collection_mut(&mut self) -> &mut Collection {
        Rc::make_mut(&mut self.coll)
    }

    /// Points this server at `coll`, returning the handle it held.
    pub(crate) fn share(&mut self, coll: Rc<Collection>) -> Rc<Collection> {
        std::mem::replace(&mut self.coll, coll)
    }

    /// Total number of documents `D`. Boolean text services advertise their
    /// collection size, and the paper's cost model needs it.
    pub fn doc_count(&self) -> usize {
        self.coll.doc_count()
    }

    /// Enables logging of every search string processed (for tests/demos).
    pub fn set_trace(&self, on: bool) {
        self.trace.set(on);
    }

    /// Drains the trace log.
    pub fn take_log(&self) -> Vec<String> {
        std::mem::take(&mut self.log.borrow_mut())
    }

    /// Attaches (or with `None`, detaches) a flight recorder. Recording is
    /// passive — it never changes a `Usage` field.
    pub fn set_recorder(&self, rec: Option<Rc<Recorder>>) {
        *self.recorder.borrow_mut() = rec;
    }

    /// The attached flight recorder, if any.
    pub(crate) fn recorder(&self) -> Option<Rc<Recorder>> {
        self.recorder.borrow().clone()
    }

    /// Stamps the shard position; called by the sharded server at
    /// construction time.
    pub(crate) fn set_shard_index(&self, i: usize) {
        self.shard_index.set(Some(i));
    }

    fn emit(&self, kind: EventKind) {
        if let Some(rec) = &*self.recorder.borrow() {
            rec.emit(kind);
        }
    }

    /// Snapshot of the usage counters.
    pub fn usage(&self) -> Usage {
        self.usage.get()
    }

    /// Resets the usage counters.
    pub fn reset_usage(&self) {
        self.usage.reset();
    }

    /// Books `charge` for one call, then reports the call with the same
    /// value, and hands it back.
    pub(crate) fn book_call(
        &self,
        op: &'static str,
        terms: usize,
        err: Option<String>,
        charge: Charge,
    ) -> Charge {
        self.emit(EventKind::Call {
            op,
            shard: self.shard_index.get(),
            terms: terms as u64,
            err,
            charge: self.usage.book(charge),
        });
        charge
    }

    /// Books a (negative) `charge`, then reports the refund with the same
    /// value, and hands it back.
    pub(crate) fn book_rebate(&self, charge: Charge) -> Charge {
        self.emit(EventKind::Rebate {
            shard: self.shard_index.get(),
            charge: self.usage.book(charge),
        });
        charge
    }

    /// Books `ticks` of waiting (and `retries` retries), then reports the
    /// wait with the same value, and hands it back.
    pub(crate) fn book_backoff(&self, ticks: i64, retries: i64) -> Charge {
        let charge = Charge {
            retries,
            ns_backoff: ticks,
            ..Charge::default()
        };
        self.emit(EventKind::Backoff {
            shard: self.shard_index.get(),
            charge: self.usage.book(charge),
        });
        charge
    }

    /// Executes a search, returning the short forms of all matches.
    ///
    /// Charges `c_i` for the invocation, `c_p` per posting on the lists
    /// processed, and `c_s` per matching document transmitted. Fails with
    /// [`TextError::TooManyTerms`] if the expression exceeds the cap `M`
    /// (rejected searches are not charged — the connection is refused before
    /// evaluation).
    pub fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        self.search_billed(expr).value
    }

    /// [`search`](Self::search) with its invoice.
    pub(crate) fn search_billed(&self, expr: &SearchExpr) -> Billed<SearchResult> {
        self.search_as(expr, "search").map(|hits| SearchResult {
            docs: self.coll.short_forms(hits),
        })
    }

    /// The charged search path, named `op` for the flight recorder: the
    /// matching docids, which [`search`](Self::search) views as short forms
    /// and [`probe`](Self::probe) hands out as they are, with the call's
    /// invoice. `c_s` is booked per match, from the count.
    fn search_as(&self, expr: &SearchExpr, op: &'static str) -> Billed<DocSet> {
        Billed::summed(|invoice| {
            let count = expr.term_count();
            if count > self.max_terms.get() {
                let err = format!("rejected: {count} terms > cap {}", self.max_terms.get());
                let charge = Charge {
                    rejected: 1,
                    ..Charge::default()
                };
                invoice.book(&self.book_call(op, count, Some(err), charge));
                return Err(TextError::TooManyTerms {
                    count,
                    max: self.max_terms.get(),
                });
            }
            if let Some(fault) = self.fault_plan.next_search_fault(self.max_terms.get()) {
                if let Fault::Slow { delta_s } = fault {
                    // Latency-only: the answer still arrives (late). Charge
                    // the wait as backoff time (the ledger for *all*
                    // simulated time lives in `Usage`) and fall through to
                    // the normal success path below. Not a retry: no
                    // `retries` counter moves and no fault is surfaced.
                    invoice.book(&self.book_backoff(ns(f64::from(delta_s)), 0));
                } else {
                    return Err(self.charge_search_fault(fault, op, count, invoice));
                }
            }
            if self.trace.get() {
                self.log
                    .borrow_mut()
                    .push(expr.display(self.coll.schema()).to_string());
            }
            let out = evaluate(&self.coll, expr);
            let charge = self.constants.price(Charge {
                invocations: 1,
                postings: out.postings_read as i64,
                docs_short: out.docs.len() as i64,
                ..Charge::default()
            });
            invoice.book(&self.book_call(op, count, None, charge));
            Ok(out.docs)
        })
    }

    /// Parses and executes a Mercury-syntax search string.
    pub fn search_str(&self, query: &str) -> Result<SearchResult, TextError> {
        let expr = parse_search(query, self.coll.schema())?;
        self.search(&expr)
    }

    /// A *probe* (paper, Section 3.3): a search whose caller only needs the
    /// result set's docids (short-form response). Costs exactly like
    /// [`search`](Self::search); the convenience is the return type.
    pub fn probe(&self, expr: &SearchExpr) -> Result<Vec<DocId>, TextError> {
        self.probe_billed(expr).value
    }

    /// [`probe`](Self::probe) with its invoice.
    pub(crate) fn probe_billed(&self, expr: &SearchExpr) -> Billed<Vec<DocId>> {
        self.search_as(expr, "probe").map(DocSet::into_ids)
    }

    /// Long-form retrieval of one document by docid. Charges `c_l`, which
    /// subsumes the per-retrieval connection overhead (Section 4.1 notes
    /// each retrieval needs a separate connection).
    pub fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        self.retrieve_billed(id).value
    }

    /// [`retrieve`](Self::retrieve) with its invoice.
    pub(crate) fn retrieve_billed(&self, id: DocId) -> Billed<Document> {
        Billed::summed(|invoice| {
            if self.fault_plan.next_retrieve_fault().is_some() {
                // A refused retrieval still burned a connection attempt:
                // charge `c_i` (counted as an invocation so the cost
                // decomposition stays exact), never the `c_l` of a document
                // that was not shipped.
                let charge = self.constants.price(Charge {
                    invocations: 1,
                    faults: 1,
                    ..Charge::default()
                });
                let err = Some("unavailable".to_string());
                invoice.book(&self.book_call("retrieve", 0, err, charge));
                return Err(TextError::Unavailable);
            }
            let Some(doc) = self.coll.document(id).cloned() else {
                // Nothing was shipped and no connection refused: free.
                let err = format!("unknown document {id}");
                invoice.book(&self.book_call("retrieve", 0, Some(err), Charge::default()));
                return Err(TextError::UnknownDoc(id));
            };
            let charge = self.constants.price(Charge {
                docs_long: 1,
                ..Charge::default()
            });
            invoice.book(&self.book_call("retrieve", 0, None, charge));
            Ok(doc)
        })
    }

    /// Retrieves many documents, in order. On failure the documents fetched
    /// (and charged) before the failing id are returned inside the error —
    /// see [`PartialRetrieveError`] — so no paid-for result is dropped.
    pub fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
        retrieve_each(ids, |id| self.retrieve(id))
    }

    /// Books a fault against the meter, adds it to `invoice` and maps it to
    /// its error. Every failed search attempt burned a connection (`c_i`,
    /// counted as an invocation); a timeout also charges the postings
    /// scanned before the deadline; a cap renegotiation takes effect
    /// immediately.
    fn charge_search_fault(
        &self,
        fault: Fault,
        op: &'static str,
        terms: usize,
        invoice: &mut Usage,
    ) -> TextError {
        let mut counts = Charge {
            invocations: 1,
            faults: 1,
            ..Charge::default()
        };
        let err = match fault {
            Fault::Unavailable => TextError::Unavailable,
            Fault::Timeout { after_postings } => {
                counts.postings = after_postings as i64;
                TextError::Timeout {
                    postings: after_postings,
                }
            }
            Fault::CapReduced { new_m } => {
                self.max_terms.set(new_m);
                TextError::CapReduced { new_m }
            }
            Fault::Slow { .. } => {
                unreachable!("Slow is latency-only and handled on the success path")
            }
        };
        let msg = Some(err.to_string());
        invoice.book(&self.book_call(op, terms, msg, self.constants.price(counts)));
        err
    }

    /// Rebates (un-books) a leg's invoice field for field — the
    /// cancellation path of a hedge race's loser, so only the winner's
    /// charge counts — and emits the `Rebate` with the negated charge.
    /// Returns the rebate's invoice, its fields wrapped negative.
    pub fn rebate(&self, invoice: &Usage) -> Usage {
        Usage::from(self.book_rebate(Charge {
            invocations: -(invoice.invocations as i64),
            rejected: -(invoice.rejected as i64),
            postings: -(invoice.postings_processed as i64),
            docs_short: -(invoice.docs_short as i64),
            docs_long: -(invoice.docs_long as i64),
            ns_invocation: -(invoice.ns_invocation as i64),
            ns_processing: -(invoice.ns_processing as i64),
            ns_transmission: -(invoice.ns_transmission as i64),
            faults: -(invoice.faults as i64),
            retries: -(invoice.retries as i64),
            ns_backoff: -(invoice.ns_backoff as i64),
        }))
    }

    /// Charges simulated backoff time a client spent waiting before a
    /// retry, so all simulated time is billed by the service.
    pub fn charge_backoff(&self, seconds: f64) {
        self.book_backoff(ns(seconds), 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{Document, TextSchema};

    fn server() -> TextServer {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let mut c = Collection::new(schema);
        c.add_document(
            Document::new()
                .with(ti, "Belief Update in AI")
                .with(au, "Radhika"),
        );
        c.add_document(
            Document::new()
                .with(ti, "Text Retrieval")
                .with(au, "Gravano"),
        );
        TextServer::new(c)
    }

    #[test]
    fn search_charges_all_components() {
        let s = server();
        let r = s.search_str("TI='belief update'").unwrap();
        assert_eq!(r.len(), 1);
        let u = s.usage();
        assert_eq!(u.invocations, 1);
        assert!(u.postings_processed > 0);
        assert_eq!(u.docs_short, 1);
        assert_eq!(
            (u.ns_invocation, u.ns_processing, u.ns_transmission),
            (3_000_000_000, 10_000 * u.postings_processed, 15_000_000)
        );
    }

    #[test]
    fn price_fills_three_times_from_counts_and_keeps_the_rest() {
        let counts = Charge {
            invocations: -2,
            postings: 5_080,
            docs_short: 3,
            docs_long: 1,
            faults: 1,
            ns_invocation: 7,
            ns_backoff: 125_000_000,
            ..Charge::default()
        };
        let priced = CostConstants::mercury_calibrated().price(counts);
        assert_eq!(
            priced,
            Charge {
                ns_invocation: -6_000_000_000,
                ns_processing: 50_800_000,
                ns_transmission: 4_045_000_000,
                ..counts
            }
        );
    }

    #[test]
    fn retrieve_charges_long_form() {
        let s = server();
        let ids = s.search_str("AU='gravano'").unwrap().ids();
        let before = s.usage();
        let doc = s.retrieve(ids[0]).unwrap();
        assert!(!doc
            .values(s.collection().schema().field_by_name("title").unwrap())
            .is_empty());
        let delta = s.usage().since(&before);
        assert_eq!(delta.docs_long, 1);
        assert_eq!(delta.ns_transmission, 4_000_000_000);
        assert_eq!(delta.invocations, 0, "retrieval is not a search invocation");
    }

    #[test]
    fn retrieve_hands_out_the_stored_document() {
        // A long form is a handle on the stored values: retrieving copies
        // no string, and writing to what came back leaves the store alone.
        let s = server();
        let stored = s.collection().document(DocId(0)).unwrap().clone();
        let (a, mut b) = (s.retrieve(DocId(0)).unwrap(), s.retrieve(DocId(0)).unwrap());
        assert!(a.ptr_eq(&b) && a.ptr_eq(&stored));
        assert!(s.retrieve_all(&[DocId(0)]).unwrap()[0].ptr_eq(&stored));
        b.push(crate::doc::FieldId(0), "scribble");
        assert_ne!(b, stored);
        assert_eq!(s.retrieve(DocId(0)).unwrap(), a);
        assert_eq!(s.collection().document(DocId(0)), Some(&a));
    }

    #[test]
    fn term_cap_rejects_without_charging() {
        let mut s = server();
        s.set_max_terms(2);
        let q = "AU='a' or AU='b' or AU='c'";
        let err = s.search_str(q).unwrap_err();
        assert!(matches!(err, TextError::TooManyTerms { count: 3, max: 2 }));
        let u = s.usage();
        assert_eq!(u.invocations, 0);
        assert_eq!(u.rejected, 1);
        assert_eq!(u.total_cost(), 0.0);
    }

    #[test]
    fn unknown_doc_retrieve() {
        let s = server();
        assert!(matches!(
            s.retrieve(DocId(999)),
            Err(TextError::UnknownDoc(DocId(999)))
        ));
    }

    #[test]
    fn usage_since_diffs() {
        let s = server();
        s.search_str("AU='radhika'").unwrap();
        let mid = s.usage();
        s.search_str("AU='gravano'").unwrap();
        let delta = s.usage().since(&mid);
        assert_eq!(delta.invocations, 1);
    }

    #[test]
    fn probe_returns_ids_and_costs_like_search() {
        let s = server();
        let ids = s
            .probe(&crate::parse::parse_search("TI='text'", s.collection().schema()).unwrap())
            .unwrap();
        assert_eq!(ids.len(), 1);
        let u = s.usage();
        assert_eq!(u.invocations, 1);
        assert_eq!(u.docs_short, 1);
    }

    #[test]
    fn trace_log_records_queries() {
        let s = server();
        s.set_trace(true);
        s.search_str("TI='text' and AU='gravano'").unwrap();
        let log = s.take_log();
        assert_eq!(log, vec!["TI='text' and AU='gravano'".to_string()]);
        assert!(s.take_log().is_empty());
    }

    #[test]
    fn reset_usage() {
        let s = server();
        s.search_str("TI='text'").unwrap();
        assert!(s.usage().total_cost() > 0.0);
        s.reset_usage();
        assert_eq!(s.usage(), Usage::default());
    }

    #[test]
    fn unavailable_fault_charges_connection_attempt() {
        let mut s = server();
        s.set_fault_plan(crate::faults::FaultPlan::scripted(vec![(
            0,
            crate::faults::Fault::Unavailable,
        )]));
        let err = s.search_str("TI='text'").unwrap_err();
        assert!(matches!(err, TextError::Unavailable));
        assert!(err.is_transient());
        let u = s.usage();
        assert_eq!((u.faults, u.invocations, u.docs_short), (1, 1, 0));
        assert_eq!(u.ns_invocation, 3_000_000_000);
        assert_eq!(u.total_cost(), 3.0);
        // The next attempt (op 1) goes through and returns the real result.
        let r = s.search_str("TI='text'").unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn timeout_fault_charges_partial_processing() {
        let mut s = server();
        s.set_fault_plan(crate::faults::FaultPlan::scripted(vec![(
            0,
            crate::faults::Fault::Timeout {
                after_postings: 250,
            },
        )]));
        let err = s.search_str("TI='text'").unwrap_err();
        assert!(matches!(err, TextError::Timeout { postings: 250 }));
        let u = s.usage();
        assert_eq!(u.postings_processed, 250);
        assert_eq!(
            (u.ns_invocation, u.ns_processing),
            (3_000_000_000, 2_500_000)
        );
        assert_eq!(u.total_cost(), 3.0025);
    }

    #[test]
    fn cap_reduction_takes_effect_immediately() {
        let mut s = server();
        s.set_fault_plan(crate::faults::FaultPlan::scripted(vec![(
            0,
            crate::faults::Fault::CapReduced { new_m: 2 },
        )]));
        let err = s.search_str("TI='text'").unwrap_err();
        assert!(matches!(err, TextError::CapReduced { new_m: 2 }));
        assert!(!err.is_transient());
        assert_eq!(s.max_terms(), 2);
        // An OR-package legal under the old cap is now rejected (uncharged).
        let before = s.usage();
        let err = s.search_str("AU='a' or AU='b' or AU='c'").unwrap_err();
        assert!(matches!(err, TextError::TooManyTerms { count: 3, max: 2 }));
        let delta = s.usage().since(&before);
        assert_eq!(delta.rejected, 1);
        assert_eq!(delta.total_cost(), 0.0);
    }

    #[test]
    fn retrieve_all_returns_partial_results_with_error() {
        let s = server();
        let ids = [DocId(0), DocId(1), DocId(999), DocId(0)];
        let before = s.usage();
        let err = s.retrieve_all(&ids).unwrap_err();
        // The two paid-for documents come back; the failure is identified.
        assert_eq!(err.docs.len(), 2);
        assert_eq!(err.failed, DocId(999));
        assert_eq!(err.error, TextError::UnknownDoc(DocId(999)));
        let delta = s.usage().since(&before);
        assert_eq!(delta.docs_long, 2, "exactly the returned docs are charged");
        assert_eq!(delta.ns_transmission, 8_000_000_000);
        // Success path is unchanged.
        let docs = s.retrieve_all(&[DocId(1), DocId(0)]).unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn fault_free_usage_display_has_no_fault_segment() {
        let s = server();
        s.search_str("TI='text'").unwrap();
        let shown = s.usage().to_string();
        assert!(
            !shown.contains("backoff"),
            "no-fault display changed: {shown}"
        );
        s.charge_backoff(2.5);
        let shown = s.usage().to_string();
        assert!(
            shown.contains("retries 1"),
            "missing backoff segment: {shown}"
        );
        assert!(
            shown.contains("2.50s backoff"),
            "missing backoff time: {shown}"
        );
    }

    #[test]
    fn slow_fault_charges_latency_but_still_answers() {
        let mut s = server();
        s.set_fault_plan(crate::faults::FaultPlan::scripted(vec![(
            0,
            crate::faults::Fault::Slow { delta_s: 5 },
        )]));
        let r = s.search_str("TI='text'").unwrap();
        assert_eq!(r.len(), 1, "slow search still returns the full result");
        let u = s.usage();
        assert_eq!(u.faults, 0, "latency-only faults are not error faults");
        assert_eq!(u.retries, 0, "no retry happened");
        assert_eq!(u.ns_backoff, 5_000_000_000);
        let ticks = 3_000_000_000 + 10_000 * u.postings_processed + 15_000_000 * u.docs_short;
        assert_eq!(u.ns_invocation + u.ns_processing + u.ns_transmission, ticks);
    }

    #[test]
    fn rebate_is_the_exact_inverse_of_a_leg() {
        let s = server();
        let before = s.usage();
        s.search_str("TI='text'").unwrap();
        s.retrieve(DocId(1)).unwrap();
        s.charge_backoff(2.0);
        let leg = s.usage().since(&before);
        assert!(leg.total_cost() > 0.0);
        s.rebate(&leg);
        assert_eq!(
            s.usage(),
            before,
            "rebate must undo the leg field-for-field"
        );
    }

    #[test]
    fn charge_backoff_flows_into_total_cost() {
        let s = server();
        let before = s.usage();
        s.charge_backoff(1.0);
        s.charge_backoff(2.0);
        let delta = s.usage().since(&before);
        assert_eq!(delta.retries, 2);
        assert_eq!(delta.ns_backoff, 3_000_000_000);
        assert_eq!(delta.total_cost(), 3.0);
    }
}
