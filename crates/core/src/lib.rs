//! # textjoin-core — federated join processing with external text sources
//!
//! The primary contribution of the reproduced paper: execution and
//! optimization techniques for conjunctive queries that join stored
//! relations with an external Boolean text retrieval system.
//!
//! * [`methods`] — the foreign-join methods: tuple substitution (TS),
//!   relational text processing (RTP), semi-join (SJ / SJ+RTP), and the
//!   probing family (P+TS, P+RTP) with the probe cache; RTP's runtime
//!   guard (the safeguard Section 5 points to) falls back to tuple
//!   substitution when the selection matches more documents than a budget.
//! * [`cost`] — the Section 4 cost model: Table 1 parameters,
//!   g-correlated joint selectivity/fanout, and closed-form cost formulas
//!   for every method.
//! * [`stats`] — sampling-based estimation of predicate selectivity and
//!   fanout against a live text server (Section 4.2).
//! * [`optimizer`] — single-join method + probe-column selection
//!   (Section 5, incl. the Theorem 5.3 bounded search) and the multi-join
//!   System-R enumeration over PrL trees (Section 6).
//! * [`exec`] — plan execution against a relational catalog and the text
//!   server, with per-operator cost accounting.
//! * [`sched`] — the deterministic virtual-time transport scheduler:
//!   bounded-concurrency scatter legs, hedged replica reads, per-query
//!   deadlines, and the makespan (critical-path) cost they induce.
//! * [`transport`] — everything between a method and the metered service
//!   surface: [`ExecContext`](transport::ExecContext)'s retrying wrappers,
//!   per-shard scatter/gather with replica failover, breakers, hedging,
//!   and gather completion.
//! * [`serve`] — the multi-tenant serving session: admission control
//!   with per-tenant cost budgets, deficit-round-robin fairness with
//!   typed overload shedding, tenant fault isolation (per-tenant retry
//!   budgets, invoices, and fault-model folds), and session-scoped
//!   probe/plan caches.

pub mod cost;
pub mod exec;
pub mod methods;
pub mod optimizer;
pub mod query;
pub mod retry;
pub mod sched;
pub mod serve;
pub mod stats;
pub mod transport;
