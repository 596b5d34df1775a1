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
//! crate is simulated seconds charged from these constants; wall-clock time
//! plays no role, which makes every experiment deterministic.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;

use textjoin_obs::{Charge, EventKind, Recorder};

use crate::doc::{DocId, Document, ShortForms};
use crate::eval::evaluate;
use crate::expr::SearchExpr;
use crate::faults::{Fault, FaultPlan};
use crate::index::Collection;
use crate::parse::{parse_search, ParseError};
use crate::postings::DocSet;

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
}

impl Default for CostConstants {
    fn default() -> Self {
        Self::mercury_calibrated()
    }
}

/// Running usage counters and the simulated cost accumulated so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Usage {
    /// Number of search invocations (each charged `c_i`).
    pub invocations: u64,
    /// Number of searches rejected (term cap exceeded); not charged.
    pub rejected: u64,
    /// Postings processed across all searches (charged `c_p` each).
    pub postings_processed: u64,
    /// Documents transmitted in short form (charged `c_s` each).
    pub docs_short: u64,
    /// Documents transmitted in long form (charged `c_l` each).
    pub docs_long: u64,
    /// Simulated seconds spent on invocations.
    pub time_invocation: f64,
    /// Simulated seconds spent processing postings.
    pub time_processing: f64,
    /// Simulated seconds spent transmitting results (both forms).
    pub time_transmission: f64,
    /// Injected faults observed (each failed attempt also charged above).
    pub faults: u64,
    /// Client retries performed after transient faults.
    pub retries: u64,
    /// Simulated seconds the client spent backing off between retries.
    pub time_backoff: f64,
    /// Probe-cache hits observed by the client during the measured work.
    /// Free — caches never charge; the counters ride the ledger so every
    /// cost report can say how much sharing backed it. Server-side
    /// ledgers always carry zero here; methods fold their cache stats
    /// into the *delta* they report.
    pub cache_hits: u64,
    /// Probe-cache misses observed by the client (free, see `cache_hits`).
    pub cache_misses: u64,
    /// Probe-cache entries evicted by epoch garbage collection (free).
    pub cache_evicted: u64,
}

impl Usage {
    /// Total simulated cost in seconds.
    pub fn total_cost(&self) -> f64 {
        self.time_invocation + self.time_processing + self.time_transmission + self.time_backoff
    }

    /// Adds another ledger into this one, counter by counter. Used to sum
    /// per-shard ledgers into a sharded server's aggregate `Usage`.
    pub fn accumulate(&mut self, other: &Usage) {
        self.invocations += other.invocations;
        self.rejected += other.rejected;
        self.postings_processed += other.postings_processed;
        self.docs_short += other.docs_short;
        self.docs_long += other.docs_long;
        self.time_invocation += other.time_invocation;
        self.time_processing += other.time_processing;
        self.time_transmission += other.time_transmission;
        self.faults += other.faults;
        self.retries += other.retries;
        self.time_backoff += other.time_backoff;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evicted += other.cache_evicted;
    }

    /// Books a charge: adds each of its eleven fields to the counter it
    /// mirrors. Resets aside, this is the only way a ledger moves, and the
    /// event that reports a booking carries the `Charge` that was booked, so
    /// a trace and its ledger cannot disagree. The counters are unsigned
    /// and a rebate's charge is negative: the signed add wraps as `-=` does
    /// in a release build. Of the simulated seconds, `x + -y` is `x - y`,
    /// and `x + 0.0` and `x + -0.0` are `x` for every value a ledger holds
    /// (it starts at `+0.0`, and a sum is `-0.0` only if both addends
    /// are), so a field the charge leaves at zero changes no bit.
    pub fn book(&mut self, c: &Charge) {
        self.invocations = self.invocations.wrapping_add_signed(c.invocations);
        self.rejected = self.rejected.wrapping_add_signed(c.rejected);
        self.postings_processed = self.postings_processed.wrapping_add_signed(c.postings);
        self.docs_short = self.docs_short.wrapping_add_signed(c.docs_short);
        self.docs_long = self.docs_long.wrapping_add_signed(c.docs_long);
        self.time_invocation += c.time_invocation;
        self.time_processing += c.time_processing;
        self.time_transmission += c.time_transmission;
        self.faults = self.faults.wrapping_add_signed(c.faults);
        self.retries = self.retries.wrapping_add_signed(c.retries);
        self.time_backoff += c.time_backoff;
    }

    /// The ledger as a metrics snapshot — the shape the shared bench
    /// formatter and the planner-facing exports consume. Counter keys
    /// mirror the field names; simulated seconds land in `values`.
    pub fn metrics_snapshot(&self) -> textjoin_obs::MetricsSnapshot {
        let mut m = textjoin_obs::MetricsSnapshot::new();
        m.set_counter("usage.invocations", self.invocations);
        m.set_counter("usage.rejected", self.rejected);
        m.set_counter("usage.postings", self.postings_processed);
        m.set_counter("usage.docs_short", self.docs_short);
        m.set_counter("usage.docs_long", self.docs_long);
        m.set_counter("usage.faults", self.faults);
        m.set_counter("usage.retries", self.retries);
        m.set_value("usage.time_invocation", self.time_invocation);
        m.set_value("usage.time_processing", self.time_processing);
        m.set_value("usage.time_transmission", self.time_transmission);
        m.set_value("usage.time_backoff", self.time_backoff);
        m.set_value("usage.total_cost", self.total_cost());
        m.set_counter("usage.cache_hits", self.cache_hits);
        m.set_counter("usage.cache_misses", self.cache_misses);
        m.set_counter("usage.cache_evicted", self.cache_evicted);
        m
    }

    /// The difference `self - earlier`, for measuring a sub-operation.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            invocations: self.invocations - earlier.invocations,
            rejected: self.rejected - earlier.rejected,
            postings_processed: self.postings_processed - earlier.postings_processed,
            docs_short: self.docs_short - earlier.docs_short,
            docs_long: self.docs_long - earlier.docs_long,
            time_invocation: self.time_invocation - earlier.time_invocation,
            time_processing: self.time_processing - earlier.time_processing,
            time_transmission: self.time_transmission - earlier.time_transmission,
            faults: self.faults - earlier.faults,
            retries: self.retries - earlier.retries,
            time_backoff: self.time_backoff - earlier.time_backoff,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            cache_evicted: self.cache_evicted - earlier.cache_evicted,
        }
    }
}

impl fmt::Display for Usage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}s (inv {} = {:.2}s, post {} = {:.2}s, xmit {}s/{}l = {:.2}s",
            self.total_cost(),
            self.invocations,
            self.time_invocation,
            self.postings_processed,
            self.time_processing,
            self.docs_short,
            self.docs_long,
            self.time_transmission,
        )?;
        // Only rendered when fault injection was active, so fault-free runs
        // print byte-identically to the pre-fault-model format.
        if self.faults > 0 || self.retries > 0 || self.time_backoff != 0.0 {
            write!(
                f,
                ", faults {} / retries {} = {:.2}s backoff",
                self.faults, self.retries, self.time_backoff,
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
                write!(f, "text server timed out after processing {postings} postings")
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
    coll: Collection,
    constants: CostConstants,
    /// `Cell` because an injected [`Fault::CapReduced`] renegotiates the cap
    /// through the shared `&self` API.
    max_terms: Cell<usize>,
    usage: RefCell<Usage>,
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

    /// Wraps `coll` with explicit cost constants.
    pub fn with_constants(coll: Collection, constants: CostConstants) -> Self {
        Self {
            coll,
            constants,
            max_terms: Cell::new(DEFAULT_MAX_TERMS),
            usage: RefCell::new(Usage::default()),
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

    /// Mutable access to the wrapped collection, for the sharded server's
    /// migration staging only: rebalancing appends copies of in-flight
    /// documents to the destination replicas before re-routing. Queries
    /// never mutate the collection.
    pub(crate) fn collection_mut(&mut self) -> &mut Collection {
        &mut self.coll
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
        *self.usage.borrow()
    }

    /// Resets the usage counters.
    pub fn reset_usage(&self) {
        *self.usage.borrow_mut() = Usage::default();
    }

    /// Books `charge` for one call, then reports the call with the same
    /// value.
    pub(crate) fn book_call(
        &self,
        op: &'static str,
        terms: usize,
        err: Option<String>,
        charge: Charge,
    ) {
        self.usage.borrow_mut().book(&charge);
        self.emit(EventKind::Call {
            op,
            shard: self.shard_index.get(),
            terms: terms as u64,
            err,
            charge,
        });
    }

    /// Books a (negative) `charge`, then reports the refund with the same
    /// value.
    pub(crate) fn book_rebate(&self, charge: Charge) {
        self.usage.borrow_mut().book(&charge);
        self.emit(EventKind::Rebate {
            shard: self.shard_index.get(),
            charge,
        });
    }

    /// Books `seconds` of waiting (and `retries` retries), then reports
    /// the wait with the same value.
    fn book_backoff(&self, seconds: f64, retries: i64) {
        let charge = Charge {
            retries,
            time_backoff: seconds,
            ..Charge::default()
        };
        self.usage.borrow_mut().book(&charge);
        self.emit(EventKind::Backoff {
            shard: self.shard_index.get(),
            seconds,
            charge,
        });
    }

    /// Executes a search, returning the short forms of all matches.
    ///
    /// Charges `c_i` for the invocation, `c_p` per posting on the lists
    /// processed, and `c_s` per matching document transmitted. Fails with
    /// [`TextError::TooManyTerms`] if the expression exceeds the cap `M`
    /// (rejected searches are not charged — the connection is refused before
    /// evaluation).
    pub fn search(&self, expr: &SearchExpr) -> Result<SearchResult, TextError> {
        let hits = self.search_as(expr, "search")?;
        Ok(SearchResult {
            docs: self.coll.short_forms(hits),
        })
    }

    /// The charged search path, named `op` for the flight recorder: the
    /// matching docids, which [`search`](Self::search) views as short forms
    /// and [`probe`](Self::probe) hands out as they are. `c_s` is booked
    /// per match, from the count.
    fn search_as(&self, expr: &SearchExpr, op: &'static str) -> Result<DocSet, TextError> {
        let count = expr.term_count();
        if count > self.max_terms.get() {
            let err = format!("rejected: {count} terms > cap {}", self.max_terms.get());
            let charge = Charge {
                rejected: 1,
                ..Charge::default()
            };
            self.book_call(op, count, Some(err), charge);
            return Err(TextError::TooManyTerms {
                count,
                max: self.max_terms.get(),
            });
        }
        if let Some(fault) = self.fault_plan.next_search_fault(self.max_terms.get()) {
            if let Fault::Slow { delta_s } = fault {
                // Latency-only: the answer still arrives (late). Charge the
                // wait as backoff time (the ledger for *all* simulated time
                // lives in `Usage`) and fall through to the normal success
                // path below. Not a retry: no `retries` counter moves and
                // no fault is surfaced.
                self.book_backoff(f64::from(delta_s), 0);
            } else {
                return Err(self.charge_search_fault(fault, op, count));
            }
        }
        if self.trace.get() {
            self.log
                .borrow_mut()
                .push(expr.display(self.coll.schema()).to_string());
        }
        let out = evaluate(&self.coll, expr);
        let shipped = out.docs.len();
        let c = &self.constants;
        let charge = Charge {
            invocations: 1,
            postings: out.postings_read as i64,
            docs_short: shipped as i64,
            time_invocation: c.c_i,
            time_processing: c.c_p * out.postings_read as f64,
            time_transmission: c.c_s * shipped as f64,
            ..Charge::default()
        };
        self.book_call(op, count, None, charge);
        Ok(out.docs)
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
        Ok(self.search_as(expr, "probe")?.into_ids())
    }

    /// Long-form retrieval of one document by docid. Charges `c_l`, which
    /// subsumes the per-retrieval connection overhead (Section 4.1 notes
    /// each retrieval needs a separate connection).
    pub fn retrieve(&self, id: DocId) -> Result<Document, TextError> {
        if self.fault_plan.next_retrieve_fault().is_some() {
            // A refused retrieval still burned a connection attempt: charge
            // `c_i` (counted as an invocation so the cost decomposition
            // stays exact), never the `c_l` of a document that was not
            // shipped.
            let charge = Charge {
                invocations: 1,
                faults: 1,
                time_invocation: self.constants.c_i,
                ..Charge::default()
            };
            self.book_call("retrieve", 0, Some("unavailable".to_string()), charge);
            return Err(TextError::Unavailable);
        }
        let Some(doc) = self.coll.document(id).cloned() else {
            // Nothing was shipped and no connection refused: free.
            let err = format!("unknown document {id}");
            self.book_call("retrieve", 0, Some(err), Charge::default());
            return Err(TextError::UnknownDoc(id));
        };
        let charge = Charge {
            docs_long: 1,
            time_transmission: self.constants.c_l,
            ..Charge::default()
        };
        self.book_call("retrieve", 0, None, charge);
        Ok(doc)
    }

    /// Retrieves many documents, in order. On failure the documents fetched
    /// (and charged) before the failing id are returned inside the error —
    /// see [`PartialRetrieveError`] — so no paid-for result is dropped.
    pub fn retrieve_all(&self, ids: &[DocId]) -> Result<Vec<Document>, Box<PartialRetrieveError>> {
        let mut docs = Vec::with_capacity(ids.len());
        for &id in ids {
            match self.retrieve(id) {
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

    /// Books a fault against the meter and maps it to its error. Every
    /// failed search attempt burned a connection (`c_i`, counted as an
    /// invocation); a timeout also charges the postings scanned before the
    /// deadline; a cap renegotiation takes effect immediately.
    fn charge_search_fault(&self, fault: Fault, op: &'static str, terms: usize) -> TextError {
        let c = &self.constants;
        let mut charge = Charge {
            invocations: 1,
            faults: 1,
            time_invocation: c.c_i,
            ..Charge::default()
        };
        let err = match fault {
            Fault::Unavailable => TextError::Unavailable,
            Fault::Timeout { after_postings } => {
                charge.postings = after_postings as i64;
                charge.time_processing = c.c_p * after_postings as f64;
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
        self.book_call(op, terms, Some(err.to_string()), charge);
        err
    }

    /// Rebates (un-books) a previously charged usage delta — the
    /// cancellation path for hedged reads and deadline-cancelled legs.
    /// The loser leg's work was booked call-by-call as it ran; cancelling
    /// refunds the *entire* leg field-for-field, so the winner's charge is
    /// the only one that counts and the cost-decomposition identity
    /// (`total_cost = server charges + c_a × comparisons`) survives
    /// exactly. Emits a `Rebate` event carrying the negated charge so the
    /// trace↔ledger audit stays exact too.
    pub fn rebate(&self, delta: &Usage) {
        self.book_rebate(Charge {
            invocations: -(delta.invocations as i64),
            rejected: -(delta.rejected as i64),
            postings: -(delta.postings_processed as i64),
            docs_short: -(delta.docs_short as i64),
            docs_long: -(delta.docs_long as i64),
            time_invocation: -delta.time_invocation,
            time_processing: -delta.time_processing,
            time_transmission: -delta.time_transmission,
            faults: -(delta.faults as i64),
            retries: -(delta.retries as i64),
            time_backoff: -delta.time_backoff,
        });
    }

    /// Charges simulated backoff time a client spent waiting before a
    /// retry. The ledger for *all* simulated time lives in the server's
    /// [`Usage`], so the core crate's retry layer calls this instead of
    /// keeping a second meter (and `Usage::total_cost` keeps decomposing
    /// exactly).
    pub fn charge_backoff(&self, seconds: f64) {
        self.book_backoff(seconds, 1);
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
        let c = s.constants();
        let expected =
            c.c_i + c.c_p * u.postings_processed as f64 + c.c_s * u.docs_short as f64;
        assert!((u.total_cost() - expected).abs() < 1e-9);
    }

    #[test]
    fn retrieve_charges_long_form() {
        let s = server();
        let ids = s.search_str("AU='gravano'").unwrap().ids();
        let before = s.usage();
        let doc = s.retrieve(ids[0]).unwrap();
        assert!(!doc.values(s.collection().schema().field_by_name("title").unwrap()).is_empty());
        let delta = s.usage().since(&before);
        assert_eq!(delta.docs_long, 1);
        assert!((delta.time_transmission - s.constants().c_l).abs() < 1e-9);
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
        let ids = s.probe(&crate::parse::parse_search("TI='text'", s.collection().schema()).unwrap()).unwrap();
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
        assert!((u.total_cost() - s.constants().c_i).abs() < 1e-9);
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
        let c = s.constants();
        assert_eq!(u.postings_processed, 250);
        assert!((u.total_cost() - (c.c_i + c.c_p * 250.0)).abs() < 1e-9);
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
        assert!((delta.time_transmission - 2.0 * s.constants().c_l).abs() < 1e-9);
        // Success path is unchanged.
        let docs = s.retrieve_all(&[DocId(1), DocId(0)]).unwrap();
        assert_eq!(docs.len(), 2);
    }

    #[test]
    fn fault_free_usage_display_has_no_fault_segment() {
        let s = server();
        s.search_str("TI='text'").unwrap();
        let shown = s.usage().to_string();
        assert!(!shown.contains("backoff"), "no-fault display changed: {shown}");
        s.charge_backoff(2.5);
        let shown = s.usage().to_string();
        assert!(shown.contains("retries 1"), "missing backoff segment: {shown}");
        assert!(shown.contains("2.50s backoff"), "missing backoff time: {shown}");
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
        assert!((u.time_backoff - 5.0).abs() < 1e-9);
        let c = s.constants();
        let expected = c.c_i
            + c.c_p * u.postings_processed as f64
            + c.c_s * u.docs_short as f64
            + 5.0;
        assert!((u.total_cost() - expected).abs() < 1e-9);
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
        assert_eq!(s.usage(), before, "rebate must undo the leg field-for-field");
    }

    #[test]
    fn charge_backoff_flows_into_total_cost() {
        let s = server();
        let before = s.usage();
        s.charge_backoff(1.0);
        s.charge_backoff(2.0);
        let delta = s.usage().since(&before);
        assert_eq!(delta.retries, 2);
        assert!((delta.time_backoff - 3.0).abs() < 1e-9);
        assert!((delta.total_cost() - 3.0).abs() < 1e-9);
    }
}
