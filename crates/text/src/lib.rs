//! # textjoin-text — a Boolean text retrieval system
//!
//! A from-scratch, in-process implementation of the class of text retrieval
//! system the paper *"Join Queries with External Text Sources"* (Chaudhuri,
//! Dayal, Yan; SIGMOD 1995) integrates with: an inversion-based Boolean
//! engine in the mold of CMU Project Mercury's CSTR service.
//!
//! The crate has two layers:
//!
//! * **Storage & evaluation** — [`index::Collection`] holds documents and a
//!   word→posting-list directory, found by hash and listed in word order
//!   for truncated terms; a word's list is one
//!   [`postings::FieldList`] per field it occurs in — ascending docids at
//!   the head, positions packed narrow. [`expr::SearchExpr`] is the
//!   Boolean search AST (words, truncated words, phrases, proximity, AND /
//!   OR / NOT, field-limited terms); [`eval`] answers searches by meeting
//!   the docid heads (gallop, bitmap or merge), opening positions only for
//!   phrase and proximity search, and reports how many postings were
//!   processed (a word's whole list, whatever field the term names).
//!   [`token`] is the one tokenizer the index and the search terms share.
//! * **The metered server façade** — [`server::TextServer`] is the *only*
//!   interface the federated query processor uses (the paper's
//!   loose-integration premise). Every `search`/`retrieve` is billed with
//!   the paper's calibrated cost constants, making all experiments
//!   deterministic simulations of the OpenODB–Mercury testbed.
//!
//! Section 8 extensions are included: [`batch`] (multi-query invocations)
//! and [`stats`] (server-side vocabulary statistics export).
//!
//! ```
//! use textjoin_text::{doc::{Document, TextSchema}, index::Collection, server::TextServer};
//!
//! let schema = TextSchema::bibliographic();
//! let ti = schema.field_by_name("title").unwrap();
//! let au = schema.field_by_name("author").unwrap();
//! let mut coll = Collection::new(schema);
//! coll.add_document(Document::new()
//!     .with(ti, "Belief Update Semantics")
//!     .with(au, "Radhika"));
//!
//! let server = TextServer::new(coll);
//! let hits = server.search_str("TI='belief update' and AU='Radhika'").unwrap();
//! assert_eq!(hits.len(), 1);
//! assert!(server.usage().total_cost() > 3.0); // one invocation charged
//! ```

pub mod batch;
pub mod doc;
pub mod eval;
pub mod expr;
pub mod faults;
pub mod index;
pub mod parse;
pub mod postings;
pub mod rebalance;
pub mod server;
pub mod service;
pub mod shard;
pub mod stats;
pub mod token;

pub use textjoin_obs as obs;

pub use doc::{DocId, Document, FieldId, TextSchema};
pub use expr::SearchExpr;
pub use faults::{Fault, FaultKinds, FaultPlan};
pub use index::Collection;
pub use rebalance::{MigrationJournal, MigrationPlan, MigrationProgress, Move, MoveStatus};
pub use server::{CostConstants, PartialRetrieveError, SearchResult, TextError, TextServer, Usage};
pub use service::{Billed, TextService};
pub use shard::{PartialShardError, Partition, ShardedTextServer};
