//! Deterministic flight recorder for the textjoin workspace.
//!
//! The cost model already accounts for every simulated charge in a single
//! aggregate [`Usage`](https://docs.rs) ledger; this crate records *where*
//! each charge happened. It defines a span/event model stamped with the
//! **simulated clock** — the cumulative simulated seconds of all charges
//! observed so far — never wall-clock time, so traces are byte-identical
//! across runs (the workspace determinism invariant extends to the trace).
//!
//! Layering: this crate sits *below* `textjoin-text` (which emits
//! server-call events) and is dependency-free. It therefore cannot name
//! `Usage`; instead every chargeable event carries a [`Charge`] whose
//! eleven fields mirror the ledger one-to-one. Summing the charges of a
//! trace must reproduce `Usage::since` exactly — `tests/audit.rs` in the
//! workspace root enforces that reconciliation per method, per backend.
//!
//! Recording is strictly passive: a [`Recorder`] observes charges that the
//! ledgers have already booked and never books any itself, so attaching a
//! recorder (any sink, including [`NoopSink`]) must leave every `Usage`
//! field untouched.

mod analyze;
mod calibrate;
mod event;
mod explain;
mod metrics;
mod monitor;
mod recorder;
mod sample;
mod sink;
mod trace;

pub use analyze::{
    cmp_nan_last, q_error, quantile, CostVector, NodeActual, NodeEstimate, NodeQuality, PlanQuality,
};
pub use calibrate::{calibrate_trace, ComponentFit, TraceCalibration};
pub use event::{Charge, Event, EventKind, PlannerChoice};
pub use explain::render;
pub use metrics::MetricsSnapshot;
pub use monitor::{
    render_windows, Advice, Monitor, MonitorConfig, ShardWindow, WindowStats, MAX_WINDOWS,
};
pub use recorder::{Recorder, SpanGuard};
pub use sample::{is_hot, splitmix64, SampledSink, SamplePolicy};
pub use sink::{FanoutSink, JsonlSink, NoopSink, RingSink, Sink};
pub use trace::{parse_jsonl, TraceParseError};
