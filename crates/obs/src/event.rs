//! The event model: charges, event kinds, and their JSONL encoding.

use std::fmt::Write as _;

use crate::analyze::Measure;
use crate::trace::{Fields, Get};

/// Declares [`Charge`] from one list of `field = "key"` entries, every
/// field an `i64`: the struct, its field-wise sum, and how it is written
/// under and read from its fields' wire keys, in list order.
macro_rules! charge {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* $field:ident = $key:literal),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: i64,)+
        }

        impl $name {
            /// Field-wise sum, for trace↔ledger reconciliation. Every field
            /// wraps: a replayed file may hold any `i64`, and summing it
            /// must not panic. A wrapped sum is still exact modulo 2⁶⁴ and
            /// the same in any order.
            pub fn accumulate(&mut self, other: &$name) {
                $(self.$field = self.$field.wrapping_add(other.$field);)+
            }
        }

        impl Put for $name {
            fn put(&self, w: &mut Line<'_>, key: &str) {
                w.open(key);
                $(w.i64($key, self.$field);)+
                w.close();
            }
        }

        impl Get for $name {
            fn get(f: &Fields<'_, '_>, key: &str) -> Result<Self, String> {
                let c = &f.obj(key)?;
                Ok($name { $($field: i64::get(c, $key)?),+ })
            }
        }
    };
}

charge! {
    /// The per-event charge delta, mirroring the `Usage` ledger field for
    /// field. Counters are signed so a batch *rebate* (the batch extension
    /// refunds per-call invocation and duplicate-transmission charges) can
    /// be expressed as a negative charge; summing all charges of a trace
    /// then reproduces the ledger delta exactly.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Charge {
        /// Search invocations (negative for batch rebates).
        invocations = "inv",
        /// Searches rejected at the term cap (never charged time).
        rejected = "rej",
        /// Postings processed.
        postings = "post",
        /// Documents transmitted in short form (negative for batch rebates).
        docs_short = "short",
        /// Documents transmitted in long form.
        docs_long = "long",
        /// Simulated nanoseconds of invocation cost.
        ns_invocation = "ns_inv",
        /// Simulated nanoseconds of posting processing.
        ns_processing = "ns_proc",
        /// Simulated nanoseconds of result transmission (both forms).
        ns_transmission = "ns_xmit",
        /// Injected faults observed.
        faults = "faults",
        /// Client retries performed.
        retries = "retries",
        /// Simulated nanoseconds of retry backoff.
        ns_backoff = "ns_backoff",
    }
}

/// Simulated seconds as ticks, the nearest whole nanoseconds. Total: out
/// of range saturates, NaN is 0.
pub fn ns(seconds: f64) -> i64 {
    (seconds * 1e9).round() as i64
}

/// Ticks as simulated seconds.
pub fn secs(ticks: i64) -> f64 {
    ticks as f64 / 1e9
}

impl Charge {
    /// Total ticks of this charge — the amount it advances the simulated
    /// clock by.
    pub(crate) fn ticks(&self) -> i64 {
        [self.ns_processing, self.ns_transmission, self.ns_backoff]
            .into_iter()
            .fold(self.ns_invocation, i64::wrapping_add)
    }
}

/// One planner candidate's estimated cost vector, recorded when the
/// optimizer enumerates methods for a (sub)query.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerChoice {
    /// The candidate's display label (e.g. `P+RTP{name}`).
    pub label: String,
    /// Whether the planner picked this candidate (cheapest estimate).
    pub chosen: bool,
    /// The probe-column subset the candidate would probe on.
    pub probe_cols: Vec<usize>,
    /// The candidate's estimate: result rows, postings its searches would
    /// process, and its cost vector.
    pub est: Measure,
    /// The fault-adjusted effective invocation constant the estimate used
    /// (`c_i` plus expected backoff per invocation).
    pub effective_c_i: f64,
}

/// Declares [`EventKind`] and, from the same entries, everything that has
/// to agree with it: an entry is a variant, its `"type"` tag and its
/// fields. A field's name is its wire key and declaration order is wire
/// order; its type says how it is spelled and parsed ([`Put`] and
/// [`Get`]). A `&'static str` field lists the words it may hold,
/// `["what": "word", …]`, and a line holding any other is refused as
/// `unknown what "x"`. A kind that is not laid out field for key names a
/// payload type instead, which brings its own `put_fields`/`get_fields`.
macro_rules! events {
    (@get $f:ident $key:ident: $ty:ty) => {
        <$ty as Get>::get($f, stringify!($key))?
    };
    (@get $f:ident $key:ident: $ty:ty [$what:literal: $($word:literal),+]) => {
        $f.word(stringify!($key), $what, &[$($word),+])?
    };
    (
        $(#[$meta:meta])*
        pub enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $tag:literal
                $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty $([$what:literal: $($word:literal),+])?
                    ),+ $(,)?
                })?
                $(($payload:ty))?
            ),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $ty),+ })? $(($payload))?,
            )+
        }

        impl $name {
            /// The `"type"` tag of every kind, in declaration order.
            pub const TYPES: &'static [&'static str] = &[$($tag),+];

            /// The `"type"` tag this kind is written under.
            pub fn type_name(&self) -> &'static str {
                match self {
                    $($name::$variant { .. } => $tag,)+
                }
            }

            /// Appends this kind's fields to a line, in declaration order.
            fn put_fields(&self, w: &mut Line<'_>) {
                match self {
                    $(
                        $($name::$variant { $($field),+ } => {
                            $(Put::put($field, w, stringify!($field));)+
                        })?
                        $($name::$variant(payload) => <$payload>::put_fields(payload, w),)?
                    )+
                }
            }

            /// The kind written under `tag`, read from the fields of its
            /// line in declaration order (so of two bad fields the first
            /// on the wire is the one reported).
            pub(crate) fn get(tag: &str, f: &Fields<'_, '_>) -> Result<Self, String> {
                Ok(match tag {
                    $(
                        $tag => $($name::$variant {
                            $($field: events!(@get f $field: $ty $([$what: $($word),+])?)),+
                        })? $($name::$variant(<$payload>::get_fields(f)?))?,
                    )+
                    other => return Err(format!("unknown event type \"{other}\"")),
                })
            }
        }
    };
}

events! {
    /// What happened. Every chargeable kind carries the exact [`Charge`] the
    /// emitting ledger booked for it.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EventKind {
        /// A span opened (method, phase, or scatter/gather scope).
        SpanBegin = "span_begin" {
            /// Trace-unique span id.
            id: u64,
            /// Enclosing span, if any.
            parent: Option<u64>,
            /// Span label, e.g. `P+RTP` or `sj/package`.
            label: String,
        },
        /// A span closed. Emitted on drop, so error paths close their spans.
        SpanEnd = "span_end" {
            /// The span being closed.
            id: u64,
            /// The label it was opened with.
            label: String,
        },
        /// One server call: `search`, `probe`, `batch`, or `retrieve`.
        Call = "call" {
            /// Operation name.
            op: &'static str
                ["call op": "search", "probe", "batch", "retrieve", "xfer.out", "xfer.in"],
            /// Shard that served the call (`None` on an unsharded server or
            /// for charges on a sharded server's own ledger).
            shard: Option<usize>,
            /// Basic terms in the search expression (0 for retrieve).
            terms: u64,
            /// Failure description: injected fault, cap rejection, unknown
            /// docid. `None` on success.
            err: Option<String>,
            /// What the ledger booked for this call.
            charge: Charge,
        },
        /// The batch extension refunded per-call charges after a combined
        /// search; the charge fields are negative.
        Rebate = "rebate" {
            /// Shard whose ledger was adjusted, if sharded.
            shard: Option<usize>,
            /// The (negative) adjustment.
            charge: Charge,
        },
        /// The client backed off before a retry; the wait is charged to the
        /// emitting ledger.
        Backoff = "backoff" {
            /// Shard whose ledger absorbed the backoff, if sharded.
            shard: Option<usize>,
            /// The booked charge: `retries`, and the wait as `ns_backoff`.
            charge: Charge,
        },
        /// The retry layer is about to re-issue an operation. Free.
        Retry = "retry" {
            /// Shard being retried, if the retry loop is per-shard.
            shard: Option<usize>,
            /// 1-based count of failures absorbed so far.
            attempt: u32,
        },
        /// A shard leg moved to the next replica in its routing order (the
        /// previous replica was exhausted or skipped by an open breaker). Free:
        /// only real attempts are charged, and those carry their own events.
        Failover = "failover" {
            /// The logical shard being served.
            shard: usize,
            /// The replica the leg moves *to*.
            replica: usize,
        },
        /// A shard's circuit breaker opened: its primary replica looks
        /// persistently dead, so calls route straight to the secondaries. Free.
        CircuitOpen = "circuit_open" {
            /// The shard whose primary is being bypassed.
            shard: usize,
            /// The EWMA fault rate (parts-per-1024) that tripped the breaker.
            rate: u32,
        },
        /// A shard's circuit breaker closed after a successful half-open probe
        /// of the primary. Free.
        CircuitClose = "circuit_close" {
            /// The shard whose primary is back in rotation.
            shard: usize,
            /// The EWMA fault rate (parts-per-1024) after the probe.
            rate: u32,
        },
        /// A hedge leg launched against a secondary replica because the
        /// primary leg exceeded the hedge latency threshold. Free: the hedge
        /// attempt's own call carries its charge, and the loser's charge is
        /// refunded by a [`Rebate`](Self::Rebate).
        Hedge = "hedge" {
            /// The logical shard being served.
            shard: usize,
            /// The replica the hedge leg runs on.
            replica: usize,
        },
        /// A leg was cancelled (the losing half of a hedged read, or a leg
        /// that would have completed past the query deadline). Free: the
        /// cancelled leg's already-booked charge is refunded by an adjacent
        /// [`Rebate`](Self::Rebate) event that carries the negative charge.
        Cancel = "cancel" {
            /// The logical shard whose leg was cancelled.
            shard: usize,
            /// The replica the cancelled leg ran on.
            replica: usize,
        },
        /// The query's virtual completion time passed its deadline; the
        /// executor degrades instead of erroring. Free.
        DeadlineMiss = "deadline_miss" {
            /// Shard whose leg crossed the deadline, if attributable.
            shard: Option<usize>,
        },
        /// An online shard migration started: the plan's moves were staged and
        /// journaled. Free — transfer traffic is charged per batch.
        MigrationBegin = "migration_begin" {
            /// Number of moves in the plan.
            moves: u64,
            /// Total documents the plan intends to transfer.
            docs: u64,
            /// Topology epoch the migration started from.
            epoch: u64,
        },
        /// One migration batch committed: its documents changed owner and the
        /// topology epoch advanced. Free — the batch's transfer legs carry
        /// their own `xfer.out`/`xfer.in` [`Call`](Self::Call) charges.
        MigrationBatch = "migration_batch" {
            /// 0-based index of the move within the plan.
            mv: u64,
            /// Source shard.
            src: usize,
            /// Destination shard.
            dst: usize,
            /// Documents committed by this batch.
            docs: u64,
            /// Postings transferred by this batch.
            postings: u64,
            /// Highest committed global docid of the move so far (the journal
            /// high-water mark).
            high_water: u64,
            /// Topology epoch after the commit.
            epoch: u64,
        },
        /// A batch resumed from the journal: its source-leg documents were
        /// already bought, so only the destination leg re-runs. Free.
        MigrationResume = "migration_resume" {
            /// 0-based index of the move within the plan.
            mv: u64,
            /// Source shard.
            src: usize,
            /// Destination shard.
            dst: usize,
            /// In-flight documents whose destination leg is being retried.
            docs: u64,
            /// Topology epoch at resume time.
            epoch: u64,
        },
        /// An unresumable move aborted: its committed documents reverted to the
        /// source shard's routing. Free — sunk transfer charges stay booked.
        MigrationAbort = "migration_abort" {
            /// 0-based index of the move within the plan.
            mv: u64,
            /// Source shard.
            src: usize,
            /// Destination shard.
            dst: usize,
            /// Documents whose routing was reverted.
            reverted: u64,
            /// Topology epoch after the revert (monotonically increasing even
            /// though the routing table matches the pre-move state).
            epoch: u64,
        },
        /// A gather detected that the topology epoch advanced after its routing
        /// decision and re-scattered only the affected shards. Free.
        RoutingStale = "routing_stale" {
            /// Epoch the routing decision was made at.
            from_epoch: u64,
            /// Epoch observed after the gather legs completed.
            to_epoch: u64,
            /// Shards whose visibility changed in between (re-scattered).
            shards: Vec<usize>,
        },
        /// Docids a gather path routed to the client (search results consumed
        /// or long forms fetched). Free — the underlying calls carry the
        /// charges; this is pure routing metadata for the traffic monitor, so
        /// rebalance advice can be derived from *observed* traffic instead of
        /// seeded windows.
        DocTraffic = "doc_traffic" {
            /// Shard the docids were served from, when attributable.
            shard: Option<usize>,
            /// The global docids, in routing order.
            docs: Vec<u64>,
        },
        /// The load-skew detector crossed its hysteresis band for one shard.
        /// Free, edge-triggered: emitted once when the shard's windowed
        /// invoice share enters the hot band and once when it clears.
        SkewAlert = "skew_alert" {
            /// 0-based index of the window that closed the edge.
            window: u64,
            /// The shard whose invoice share moved.
            shard: usize,
            /// The shard's invoice share in that window, parts-per-million.
            share_ppm: u64,
            /// `true` on enter (share ≥ threshold), `false` on clear.
            hot: bool,
        },
        /// The SLO burn-rate monitor crossed its dual-window alert condition.
        /// Free, edge-triggered like [`SkewAlert`](Self::SkewAlert).
        SloAlert = "slo_alert" {
            /// 0-based index of the window that closed the edge.
            window: u64,
            /// Fast-window burn rate, parts-per-million of budget.
            fast_ppm: u64,
            /// Slow-window burn rate, parts-per-million of budget.
            slow_ppm: u64,
            /// `true` when both windows burn above budget, `false` on clear.
            firing: bool,
        },
        /// The drift watchdog re-fitted the cost constants over its trailing
        /// window and one component drifted past tolerance. Free,
        /// edge-triggered per component.
        DriftAlert = "drift_alert" {
            /// 0-based index of the window that closed the check.
            window: u64,
            /// Which constant drifted (`c_i`, `c_p`, `c_s`, `c_l`).
            component: &'static str ["drift component": "c_i", "c_p", "c_s", "c_l"],
            /// The configured value the planner would otherwise use.
            configured: f64,
            /// The trailing-window least-squares fit.
            fitted: f64,
            /// `true` when drift exceeds tolerance, `false` on clear.
            drifted: bool,
        },
        /// The skew detector derived an advisory migration from observed
        /// traffic: move the hot shard's hottest docid range to the coldest
        /// shard. Free — advice only; executing it is the caller's decision.
        RebalanceAdvice = "rebalance_advice" {
            /// 0-based index of the window the advice was derived from.
            window: u64,
            /// The hot source shard.
            src: usize,
            /// The advised destination shard (lowest invoice share).
            dst: usize,
            /// Advised half-open docid range start.
            lo: u64,
            /// Advised half-open docid range end.
            hi: u64,
            /// Observed traffic hits inside the advised range.
            hits: u64,
        },
        /// A serving session admitted a request for execution: its estimated
        /// plan cost fit the tenant's remaining budget. Free.
        Admit = "admit" {
            /// 0-based tenant index within the session.
            tenant: u64,
            /// 0-based arrival index of the request in the session stream.
            arrival: u64,
            /// The optimizer's estimated plan cost, simulated seconds.
            est_cost: f64,
        },
        /// A serving session shed a queued request under overload — a typed
        /// refusal, never a silent drop. Free.
        Shed = "shed" {
            /// 0-based tenant index within the session.
            tenant: u64,
            /// 0-based arrival index of the shed request.
            arrival: u64,
            /// Requests still queued after the shed.
            queued: u64,
        },
        /// A tenant's cost budget ran out — either at admission (the estimate
        /// exceeded the remainder) or mid-flight (actuals overran the
        /// estimate and the per-query guard aborted). Free; any partial
        /// charges were already booked through the ordinary ledger. Budget
        /// figures are carried in integer milli-seconds of simulated time so
        /// the event stays `Eq`-comparable.
        BudgetExhausted = "budget_exhausted" {
            /// 0-based tenant index within the session.
            tenant: u64,
            /// 0-based arrival index of the refused/aborted request.
            arrival: u64,
            /// Simulated milliseconds charged (admission: the estimate).
            spent_ms: u64,
            /// Simulated milliseconds that remained in the tenant's budget.
            remaining_ms: u64,
        },
        /// A session-scoped cache answered without touching the text server:
        /// `scope` is `"probe"` (probe-outcome cache) or `"plan"` (plan
        /// cache). Free — that is the point.
        CacheHit = "cache_hit" {
            /// Which session cache hit (`probe` or `plan`).
            scope: &'static str ["cache scope": "probe", "plan"],
            /// Topology/stats epoch the cached entry was proved at.
            epoch: u64,
        },
        /// The optimizer estimated one candidate method. Free.
        Planner = "planner" (PlannerChoice),
        /// One per-query plan-quality sample, emitted by the executor when
        /// EXPLAIN ANALYZE attribution is enabled. Free — pure arithmetic over
        /// charges the ledger already booked; emitting it never charges.
        EstimateSample = "estimate_sample" {
            /// Q-error of the estimated total plan cost vs the actual charge.
            cost_q: f64,
            /// Q-error of the estimated result cardinality vs actual rows —
            /// the selectivity/statistics side of a misestimate.
            selectivity_q: f64,
            /// Q-error of the actual charge vs the actual counts re-priced at
            /// the configured constants — the `c_i`/`c_p`/`c_s`/`c_l` side.
            constants_q: f64,
            /// Fraction of the actual cost that was regret against the best
            /// counterfactual candidate, when known (`0.0` otherwise).
            regret_share: f64,
        },
        /// The misestimation detector crossed its threshold: trailing-window
        /// p90 Q-error or regret share is out of band. Free, edge-triggered
        /// like [`SkewAlert`](Self::SkewAlert); `component` names the worst
        /// offender (`selectivity` → stats are stale, re-export stats;
        /// `constants` → the cost constants drifted, run calibrate).
        EstimateDrift = "estimate_drift" {
            /// 0-based index of the window that closed the check.
            window: u64,
            /// Worst component: `selectivity` or `constants`.
            component: &'static str ["estimate component": "selectivity", "constants"],
            /// Trailing-window p90 Q-error of the worst component.
            p90_q: f64,
            /// Trailing-window mean regret share.
            regret_share: f64,
            /// `true` on enter (out of band), `false` on clear.
            firing: bool,
        },
    }
}

impl EventKind {
    /// The charge this event booked, if it is a chargeable kind.
    pub fn charge(&self) -> Option<&Charge> {
        match self {
            EventKind::Call { charge, .. }
            | EventKind::Rebate { charge, .. }
            | EventKind::Backoff { charge, .. } => Some(charge),
            _ => None,
        }
    }
}

/// A recorded event: sequence number, simulated-clock stamp, payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position in the trace (0-based, dense).
    pub seq: u64,
    /// Simulated clock at emission: the exact tick sum of every charge
    /// observed up to and including this event, in simulated seconds.
    pub clock: f64,
    /// The payload.
    pub kind: EventKind,
}

/// How a float is spelled in a trace. A finite one is Rust's
/// shortest-roundtrip `Display`. JSON has no spelling for the other three,
/// so the infinities are written as a literal past `f64::MAX` (which
/// parses back to them) and NaN as `null`.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else if v.is_nan() {
        out.push_str("null");
    } else {
        out.push_str(if v > 0.0 { "1e999" } else { "-1e999" });
    }
}

/// Appends the fields of one JSONL line to a buffer, `"key":value` each,
/// in call order. Integers are written digit by digit and strings are
/// escaped straight into the buffer, so a line allocates only when the
/// buffer itself has to grow.
struct Line<'b>(&'b mut String);

impl Line<'_> {
    /// `"key":`, after a comma unless it is the first of its object. (No
    /// value ends in `{`: a string value ends in its closing quote.)
    fn key(&mut self, key: &str) {
        if !self.0.ends_with('{') {
            self.0.push(',');
        }
        self.0.push('"');
        self.0.push_str(key);
        self.0.push_str("\":");
    }

    fn digits(&mut self, mut v: u64) {
        let mut buf = [b'0'; 20];
        let mut at = buf.len();
        loop {
            at -= 1;
            buf[at] += (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for &d in &buf[at..] {
            self.0.push(d as char);
        }
    }

    fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.digits(v);
    }

    fn i64(&mut self, key: &str, v: i64) {
        self.key(key);
        if v < 0 {
            self.0.push('-');
        }
        self.digits(v.unsigned_abs());
    }

    fn f64(&mut self, key: &str, v: f64) {
        self.key(key);
        push_f64(self.0, v);
    }

    /// A value the caller has already spelled.
    fn raw(&mut self, key: &str, text: &str) {
        self.key(key);
        self.0.push_str(text);
    }

    fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.0.push_str(if v { "true" } else { "false" });
    }

    /// A quoted string with minimal JSON escaping (labels and fault
    /// messages are ASCII, but quotes, backslashes and control characters
    /// must not break the line format).
    fn str(&mut self, key: &str, s: &str) {
        self.key(key);
        self.0.push('"');
        let mut plain = 0;
        for (i, b) in s.bytes().enumerate() {
            if b == b'"' || b == b'\\' || b < 0x20 {
                self.0.push_str(&s[plain..i]);
                plain = i + 1;
                match b {
                    b'"' => self.0.push_str("\\\""),
                    b'\\' => self.0.push_str("\\\\"),
                    b'\n' => self.0.push_str("\\n"),
                    _ => {
                        let _ = write!(self.0, "\\u{b:04x}");
                    }
                }
            }
        }
        self.0.push_str(&s[plain..]);
        self.0.push('"');
    }

    fn null(&mut self, key: &str) {
        self.key(key);
        self.0.push_str("null");
    }

    fn ints(&mut self, key: &str, items: impl Iterator<Item = u64>) {
        self.key(key);
        self.0.push('[');
        for (i, v) in items.enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            self.digits(v);
        }
        self.0.push(']');
    }

    /// Opens a nested object under `key`; `close` ends it.
    fn open(&mut self, key: &str) {
        self.key(key);
        self.0.push('{');
    }

    fn close(&mut self) {
        self.0.push('}');
    }
}

/// How a field of this type is spelled under its key — the writing half of
/// a table field; [`Get`] is the reading half.
trait Put {
    fn put(&self, w: &mut Line<'_>, key: &str);
}

impl Put for u64 {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.u64(key, *self);
    }
}

impl Put for u32 {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.u64(key, u64::from(*self));
    }
}

impl Put for usize {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.u64(key, *self as u64);
    }
}

impl Put for f64 {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.f64(key, *self);
    }
}

impl Put for bool {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.bool(key, *self);
    }
}

impl Put for String {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.str(key, self);
    }
}

impl Put for &'static str {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.str(key, self);
    }
}

impl<T: Put> Put for Option<T> {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        match self {
            Some(v) => v.put(w, key),
            None => w.null(key),
        }
    }
}

impl Put for Vec<u64> {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.ints(key, self.iter().copied());
    }
}

impl Put for Vec<usize> {
    fn put(&self, w: &mut Line<'_>, key: &str) {
        w.ints(key, self.iter().map(|&v| v as u64));
    }
}

impl PlannerChoice {
    /// The one kind not laid out field for key: the [`Measure`] nests under
    /// `est`, its cost vector's fields first, then `rows` and `postings`.
    /// `get_fields` (beside [`Get`]) reads it back.
    fn put_fields(&self, w: &mut Line<'_>) {
        w.str("label", &self.label);
        w.bool("chosen", self.chosen);
        self.probe_cols.put(w, "probe_cols");
        w.open("est");
        w.f64("invocation", self.est.cost.invocation);
        w.f64("processing", self.est.cost.processing);
        w.f64("transmission", self.est.cost.transmission);
        w.f64("rtp", self.est.cost.rtp);
        w.f64("searches", self.est.cost.searches);
        w.f64("rows", self.est.rows);
        w.f64("postings", self.est.postings);
        w.close();
        w.f64("effective_c_i", self.effective_c_i);
    }
}

impl Event {
    /// One JSONL line, fixed field order, no trailing newline. Floats use
    /// Rust's shortest-roundtrip `Display`, which is deterministic, so two
    /// identical runs serialize byte-identically.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write_jsonl(&mut out);
        out
    }

    /// Appends what [`to_jsonl`](Self::to_jsonl) returns to `out`.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        self.write_line(out, None);
    }

    /// [`write_jsonl`](Self::write_jsonl), given what [`push_f64`] spells
    /// the clock as by a caller that has it. Only a charged event moves
    /// the clock and the float is half the cost of a line, so
    /// [`JsonlSink`](crate::JsonlSink) keeps the text from one event to
    /// the next.
    pub(crate) fn write_line(&self, out: &mut String, clock: Option<&str>) {
        let mut w = Line(out);
        w.0.push('{');
        w.u64("seq", self.seq);
        match clock {
            Some(text) => w.raw("clock", text),
            None => w.f64("clock", self.clock),
        }
        w.str("type", self.kind.type_name());
        self.kind.put_fields(&mut w);
        w.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_total_and_accumulate() {
        let mut a = Charge {
            invocations: 1,
            ns_invocation: 3_000_000_000,
            ..Charge::default()
        };
        let b = Charge {
            docs_short: 2,
            ns_transmission: 30_000_000,
            ..Charge::default()
        };
        a.accumulate(&b);
        assert_eq!(a.invocations, 1);
        assert_eq!(a.docs_short, 2);
        assert_eq!(a.ticks(), 3_030_000_000);
        assert_ne!(a, Charge::default());
    }

    #[test]
    fn jsonl_escapes_and_is_stable() {
        let ev = Event {
            seq: 7,
            clock: 3.015,
            kind: EventKind::Call {
                op: "search",
                shard: Some(2),
                terms: 4,
                err: Some("cap \"M\" hit".into()),
                charge: Charge::default(),
            },
        };
        let line = ev.to_jsonl();
        assert!(line.starts_with("{\"seq\":7,\"clock\":3.015,"));
        assert!(line.contains("\\\"M\\\""));
        assert_eq!(line, ev.to_jsonl());
    }

    #[test]
    fn write_jsonl_appends_to_what_the_buffer_holds() {
        let a = Event {
            seq: 0,
            clock: 0.5,
            kind: EventKind::SpanBegin {
                id: 0,
                parent: None,
                label: "a\\b\u{1}\"c\"".into(),
            },
        };
        let b = Event {
            seq: 1,
            clock: 0.5,
            kind: EventKind::Rebate {
                shard: Some(3),
                charge: Charge {
                    invocations: -2,
                    ns_invocation: -6_000_000_000,
                    ..Charge::default()
                },
            },
        };
        let mut buf = String::from("kept");
        a.write_jsonl(&mut buf);
        b.write_jsonl(&mut buf);
        assert_eq!(buf, format!("kept{}{}", a.to_jsonl(), b.to_jsonl()));
        assert_eq!(
            a.to_jsonl(),
            "{\"seq\":0,\"clock\":0.5,\"type\":\"span_begin\",\"id\":0,\"parent\":null,\
             \"label\":\"a\\\\b\\u0001\\\"c\\\"\"}"
        );
        assert!(b.to_jsonl().ends_with(
            "\"shard\":3,\"charge\":{\"inv\":-2,\"rej\":0,\"post\":0,\"short\":0,\"long\":0,\
             \"ns_inv\":-6000000000,\"ns_proc\":0,\"ns_xmit\":0,\"faults\":0,\"retries\":0,\"ns_backoff\":0}}"
        ));
    }

    #[test]
    fn non_finite_floats_are_written_as_json() {
        let ev = Event {
            seq: 0,
            clock: 0.0,
            kind: EventKind::EstimateSample {
                cost_q: f64::INFINITY,
                selectivity_q: f64::NEG_INFINITY,
                constants_q: f64::NAN,
                regret_share: f64::MAX,
            },
        };
        assert_eq!(
            ev.to_jsonl(),
            format!(
                "{{\"seq\":0,\"clock\":0,\"type\":\"estimate_sample\",\"cost_q\":1e999,\
                 \"selectivity_q\":-1e999,\"constants_q\":null,\"regret_share\":{}}}",
                f64::MAX
            )
        );
    }
}
