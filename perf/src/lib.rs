//! # textjoin-perf — the wall-clock benchmark of the textjoin workspace
//!
//! Four pinned workloads, each stressing one layer of the mediator
//! (`text`, `core.methods`, the served stack, `obs`), measured **from
//! outside** by timing calls into the crates' public functions. The
//! simulated clock (`Usage`) is the paper's cost model and is audited
//! elsewhere; this crate records the *wall* clock and never feeds it back
//! into any deterministic output of the workspace.
//!
//! * [`harness`] runs one workload in one process on one thread: repeated
//!   set-up, an untimed verification pass, warm-up rounds, then timed
//!   rounds of identical work.
//! * [`span`] is the harness-side tracer of the traced run; [`timed`] is
//!   the passive [`TextService`](textjoin_text::TextService) wrapper that
//!   reaches the calls the library makes *into* the text service.
//! * [`metrics`] is the single table of metric names, units, bounds and
//!   predicted interactions that `BENCHMARK.json` mirrors.
//! * [`report`] prints results, merges `BENCH.json`, and diffs two of them.
//!
//! `README.md` records why each workload exists and how to read a diff.

pub mod cli;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod oracle;
pub mod report;
pub mod span;
pub mod stats;
pub mod timed;
pub mod workloads;
