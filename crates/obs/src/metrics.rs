//! BTreeMap-backed metrics: counters, gauges, and fixed-bucket histograms.
//!
//! Keys are plain dotted strings; events served by shard `i` additionally
//! bump a `shard{i}.`-prefixed copy of each key. BTreeMaps keep iteration
//! (and therefore rendering) deterministic.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};
use std::ops::AddAssign;

use crate::event::{Event, EventKind};

/// A histogram over fixed power-of-two buckets: bucket `k` counts values
/// `v` with `v <= 2^k` (the last bucket is an unbounded overflow bucket).
/// The bucket layout is fixed at construction, so rendering never depends
/// on the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, ascending; one extra overflow bucket
    /// follows the last bound.
    bounds: Vec<u64>,
    counts: Vec<u64>,
}

impl Histogram {
    /// `buckets` power-of-two bounds `1, 2, 4, …, 2^(buckets-1)` plus an
    /// overflow bucket.
    pub(crate) fn pow2(buckets: usize) -> Self {
        let bounds: Vec<u64> = (0..buckets as u32).map(|k| 1u64 << k).collect();
        let counts = vec![0; buckets + 1];
        Self { bounds, counts }
    }

    /// Records one observation.
    pub(crate) fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
    }

    /// Total observations.
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The representative value reported for bucket `idx`: the rounded-up
    /// midpoint of the bucket's value range. The unbounded overflow
    /// bucket reports the midpoint of the *next* doubling — the best
    /// guess the layout allows.
    fn midpoint(&self, idx: usize) -> u64 {
        let lo = if idx == 0 { 0 } else { self.bounds[idx - 1] + 1 };
        let hi = match self.bounds.get(idx) {
            Some(&b) => b,
            None => self
                .bounds
                .last()
                .map(|&b| b.saturating_mul(2))
                .unwrap_or(u64::MAX),
        };
        lo + (hi - lo).div_ceil(2)
    }

    /// Deterministic quantile estimate from the bucket midpoints: the
    /// midpoint of the bucket holding the `ceil(q × total)`-th smallest
    /// observation. `q` is clamped into `[0, 1]` (NaN reads as 0), so
    /// `q = 0.0` is the lowest occupied bucket and `q = 1.0` the highest —
    /// both always defined on a non-empty histogram. `None` only when the
    /// histogram has no observations at all.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(self.midpoint(idx));
            }
        }
        // Unreachable: the cumulative count reaches `total ≥ rank`, but
        // keep the result defined rather than panicking on a future edit.
        Some(self.midpoint(self.counts.len() - 1))
    }

    /// `(upper_bound, count)` pairs for the non-empty buckets; the
    /// overflow bucket reports `u64::MAX` as its bound.
    pub(crate) fn nonzero(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (self.bounds.get(i).copied().unwrap_or(u64::MAX), c))
            .collect()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .nonzero()
            .iter()
            .map(|&(b, c)| {
                if b == u64::MAX {
                    format!("inf:{c}")
                } else {
                    format!("≤{b}:{c}")
                }
            })
            .collect();
        write!(f, "[{}]", parts.join(" "))
    }
}

/// A metrics registry: counters, values and histograms under dotted keys,
/// built from an event stream ([`from_events`](Self::from_events)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Accumulated floating-point values (simulated seconds, ratios).
    pub values: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
    /// The buffer [`absorb`](Self::absorb) builds composite keys
    /// (`shard3.calls.search`) in, so an event whose keys all exist
    /// allocates nothing. Empty between calls: equality sees only the
    /// registry.
    key: String,
}

/// Adds `by` to `map[key]`, which starts at zero. Looks up by `&str`: the
/// key is copied only the first time it is seen.
fn bump<V: AddAssign + Default>(map: &mut BTreeMap<String, V>, key: &str, by: V) {
    match map.get_mut(key) {
        Some(v) => *v += by,
        None => {
            let mut v = V::default();
            v += by;
            map.insert(key.to_string(), v);
        }
    }
}

/// Formats a composite key into `buf`, replacing what was there.
fn keyed<'b>(buf: &'b mut String, args: fmt::Arguments<'_>) -> &'b str {
    buf.clear();
    let _ = buf.write_fmt(args);
    buf
}

/// [`keyed`] for a key with no number in it: plain copies, not `fmt`.
/// `CacheHit` is three events in four of a served session, and every
/// replay keys it.
fn joined<'b>(buf: &'b mut String, parts: &[&str]) -> &'b str {
    buf.clear();
    parts.iter().for_each(|part| buf.push_str(part));
    buf
}

impl MetricsSnapshot {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `key`.
    pub fn incr(&mut self, key: &str, by: u64) {
        if by > 0 {
            bump(&mut self.counters, key, by);
        }
    }

    /// Adds `by` to value `key`.
    pub fn add_value(&mut self, key: &str, by: f64) {
        if by != 0.0 {
            bump(&mut self.values, key, by);
        }
    }

    /// Sets value `key` (gauge semantics).
    pub fn set_value(&mut self, key: &str, v: f64) {
        self.values.insert(key.to_string(), v);
    }

    /// Sets counter `key` (gauge semantics for integer facts such as
    /// per-shard document counts).
    pub fn set_counter(&mut self, key: &str, v: u64) {
        self.counters.insert(key.to_string(), v);
    }

    /// Records `v` into histogram `key`, creating it with `pow2(24)`
    /// buckets on first use.
    pub(crate) fn observe(&mut self, key: &str, v: u64) {
        match self.histograms.get_mut(key) {
            Some(h) => h.observe(v),
            None => {
                let mut h = Histogram::pow2(24);
                h.observe(v);
                self.histograms.insert(key.to_string(), h);
            }
        }
    }

    /// `(p50, p90, p99)` quantile estimates for histogram `key`, from
    /// bucket midpoints. `None` when the histogram is absent or empty.
    pub fn quantiles(&self, key: &str) -> Option<(u64, u64, u64)> {
        let h = self.histograms.get(key)?;
        Some((h.quantile(0.50)?, h.quantile(0.90)?, h.quantile(0.99)?))
    }

    /// Folds one event into the registry — the single definition of how
    /// the event stream maps to metrics keys.
    pub(crate) fn absorb(&mut self, kind: &EventKind) {
        let mut buf = std::mem::take(&mut self.key);
        let k = &mut buf;
        match kind {
            EventKind::Call {
                op,
                shard,
                err,
                charge,
                ..
            } => {
                self.incr(joined(k, &["calls.", op]), 1);
                if let Some(i) = shard {
                    self.incr(keyed(k, format_args!("shard{i}.calls.{op}")), 1);
                }
                for (key, v) in [
                    ("postings", charge.postings),
                    ("docs_short", charge.docs_short),
                    ("docs_long", charge.docs_long),
                    ("faults", charge.faults),
                    ("rejected", charge.rejected),
                ] {
                    if v > 0 {
                        self.incr(key, v as u64);
                        if let Some(i) = shard {
                            self.incr(keyed(k, format_args!("shard{i}.{key}")), v as u64);
                        }
                    }
                }
                if err.is_none() && *op != "retrieve" {
                    self.observe("hist.postings", charge.postings.max(0) as u64);
                    self.observe("hist.docs_short", charge.docs_short.max(0) as u64);
                }
            }
            EventKind::Backoff { shard, charge, .. } => {
                self.incr("retries", charge.retries.max(0) as u64);
                self.add_value("time_backoff", charge.time_backoff);
                if let Some(i) = shard {
                    self.incr(
                        keyed(k, format_args!("shard{i}.retries")),
                        charge.retries.max(0) as u64,
                    );
                    self.add_value(
                        keyed(k, format_args!("shard{i}.time_backoff")),
                        charge.time_backoff,
                    );
                }
            }
            EventKind::Rebate { .. } => self.incr("rebates", 1),
            EventKind::Retry { .. } => self.incr("retry_attempts", 1),
            EventKind::Failover { shard, replica } => {
                self.incr("failovers", 1);
                self.incr(keyed(k, format_args!("shard{shard}.failovers")), 1);
                self.incr(
                    keyed(k, format_args!("shard{shard}.replica{replica}.serves")),
                    1,
                );
            }
            EventKind::CircuitOpen { shard, .. } => {
                self.incr("circuit.open", 1);
                self.incr(keyed(k, format_args!("shard{shard}.circuit.open")), 1);
            }
            EventKind::CircuitClose { shard, .. } => {
                self.incr("circuit.close", 1);
                self.incr(keyed(k, format_args!("shard{shard}.circuit.close")), 1);
            }
            EventKind::Hedge { shard, replica } => {
                self.incr("hedges", 1);
                self.incr(keyed(k, format_args!("shard{shard}.hedges")), 1);
                self.incr(
                    keyed(k, format_args!("shard{shard}.replica{replica}.hedges")),
                    1,
                );
            }
            EventKind::Cancel { shard, replica } => {
                self.incr("cancels", 1);
                self.incr(keyed(k, format_args!("shard{shard}.cancels")), 1);
                self.incr(
                    keyed(k, format_args!("shard{shard}.replica{replica}.cancels")),
                    1,
                );
            }
            EventKind::DeadlineMiss { shard } => {
                self.incr("deadline.miss", 1);
                if let Some(i) = shard {
                    self.incr(keyed(k, format_args!("shard{i}.deadline.miss")), 1);
                }
            }
            EventKind::MigrationBegin { moves, docs, .. } => {
                self.incr("migration.begin", 1);
                self.incr("migration.docs_planned", *docs);
                self.incr("migration.moves_planned", *moves);
            }
            EventKind::MigrationBatch {
                src,
                dst,
                docs,
                postings,
                ..
            } => {
                self.incr("migration.batches", 1);
                self.incr("migration.docs_moved", *docs);
                self.incr("migration.postings_moved", *postings);
                self.incr(
                    keyed(k, format_args!("shard{src}.migration.docs_out")),
                    *docs,
                );
                self.incr(
                    keyed(k, format_args!("shard{dst}.migration.docs_in")),
                    *docs,
                );
            }
            EventKind::MigrationResume { docs, .. } => {
                self.incr("migration.resumes", 1);
                self.incr("migration.docs_resumed", *docs);
            }
            EventKind::MigrationAbort { reverted, .. } => {
                self.incr("migration.aborts", 1);
                self.incr("migration.docs_reverted", *reverted);
            }
            EventKind::RoutingStale { shards, .. } => {
                self.incr("routing.stale", 1);
                self.incr("routing.stale_shards", shards.len() as u64);
            }
            EventKind::DocTraffic { shard, docs } => {
                self.incr("traffic.docs", docs.len() as u64);
                if let Some(i) = shard {
                    self.incr(
                        keyed(k, format_args!("shard{i}.traffic.docs")),
                        docs.len() as u64,
                    );
                }
            }
            EventKind::SkewAlert { shard, hot, .. } => {
                let key = if *hot {
                    "monitor.skew.hot"
                } else {
                    "monitor.skew.clear"
                };
                self.incr(key, 1);
                self.incr(keyed(k, format_args!("shard{shard}.{key}")), 1);
            }
            EventKind::SloAlert { firing, .. } => {
                self.incr(
                    if *firing {
                        "monitor.slo.alert"
                    } else {
                        "monitor.slo.clear"
                    },
                    1,
                );
            }
            EventKind::DriftAlert {
                component, drifted, ..
            } => {
                let key = if *drifted {
                    "monitor.drift.alert"
                } else {
                    "monitor.drift.clear"
                };
                self.incr(key, 1);
                self.incr(joined(k, &[key, ".", component]), 1);
            }
            EventKind::RebalanceAdvice { src, dst, .. } => {
                self.incr("monitor.advice", 1);
                self.incr(keyed(k, format_args!("shard{src}.monitor.advice_out")), 1);
                self.incr(keyed(k, format_args!("shard{dst}.monitor.advice_in")), 1);
            }
            EventKind::Admit { tenant, .. } => {
                self.incr("serve.admitted", 1);
                self.incr(keyed(k, format_args!("tenant{tenant}.admitted")), 1);
            }
            EventKind::Shed { tenant, .. } => {
                self.incr("serve.shed", 1);
                self.incr(keyed(k, format_args!("tenant{tenant}.shed")), 1);
            }
            EventKind::BudgetExhausted { tenant, .. } => {
                self.incr("serve.budget_exhausted", 1);
                self.incr(keyed(k, format_args!("tenant{tenant}.budget_exhausted")), 1);
            }
            EventKind::CacheHit { scope, .. } => {
                self.incr("serve.cache_hits", 1);
                self.incr(joined(k, &["serve.cache_hits.", scope]), 1);
            }
            EventKind::SpanBegin { .. } => self.incr("spans", 1),
            EventKind::SpanEnd { .. } => {}
            EventKind::Planner(p) => {
                self.incr("planner.candidates", 1);
                if p.chosen {
                    self.incr("planner.chosen", 1);
                }
            }
            EventKind::EstimateSample { .. } => self.incr("analyze.samples", 1),
            EventKind::EstimateDrift { firing, component, .. } => {
                let key = if *firing {
                    "monitor.estimate.alert"
                } else {
                    "monitor.estimate.clear"
                };
                self.incr(key, 1);
                self.incr(joined(k, &[key, ".", component]), 1);
            }
        }
        buf.clear();
        self.key = buf;
    }

    /// The registry of `events` — offline replay for rendered traces (the
    /// `explain` binary rebuilds quantiles from a JSONL file through this).
    pub fn from_events(events: &[Event]) -> Self {
        let mut m = Self::new();
        for ev in events {
            m.absorb(&ev.kind);
        }
        m
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Value (0.0 when absent).
    pub fn value(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// Deterministic multi-line rendering: one `key value` line per
    /// counter, value, and histogram, in BTreeMap (lexicographic) order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k} {v}\n"));
        }
        for (k, v) in &self.values {
            out.push_str(&format!("{k} {v:.6}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("{k} {h}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::pow2(3); // bounds 1, 2, 4 + overflow
        h.observe(1);
        h.observe(2);
        h.observe(3);
        h.observe(100);
        assert_eq!(h.total(), 4);
        assert_eq!(h.nonzero(), vec![(1, 1), (2, 1), (4, 1), (u64::MAX, 1)]);
        assert_eq!(h.to_string(), "[≤1:1 ≤2:1 ≤4:1 inf:1]");
    }

    #[test]
    fn quantiles_come_from_bucket_midpoints() {
        let mut h = Histogram::pow2(4); // bounds 1, 2, 4, 8 + overflow
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for _ in 0..9 {
            h.observe(1);
        }
        h.observe(7); // bucket (4,8] → midpoint 7
        assert_eq!(h.quantile(0.5), Some(1));
        assert_eq!(h.quantile(0.9), Some(1), "rank 9 still in the first bucket");
        assert_eq!(h.quantile(0.99), Some(7));
        h.observe(1000); // overflow → midpoint of the next doubling (8,16]
        assert_eq!(h.quantile(1.0), Some(13));
    }

    #[test]
    fn snapshot_quantiles_and_event_replay_match_live_registry() {
        use crate::event::Charge;
        let charge = Charge {
            invocations: 1,
            postings: 100,
            docs_short: 3,
            ..Charge::default()
        };
        let events = vec![Event {
            seq: 0,
            clock: 0.0,
            kind: EventKind::Call {
                op: "search",
                shard: Some(1),
                terms: 2,
                err: None,
                charge,
            },
        }];
        let replayed = MetricsSnapshot::from_events(&events);
        let mut live = MetricsSnapshot::new();
        live.absorb(&events[0].kind);
        assert_eq!(replayed, live);
        let (p50, p90, p99) = replayed.quantiles("hist.postings").unwrap();
        assert_eq!((p50, p90, p99), (97, 97, 97), "single obs in (64,128]");
        assert!(replayed.quantiles("hist.nope").is_none());
    }

    #[test]
    fn render_is_sorted_and_stable() {
        let mut m = MetricsSnapshot::new();
        m.incr("b", 1);
        m.incr("a", 1);
        m.add_value("t", 2.5);
        let r = m.render();
        assert_eq!(r, "a 1\nb 1\nt 2.500000\n");
    }

    #[test]
    fn quantile_edges_are_defined() {
        // Empty histograms have no quantiles at any q.
        let h = Histogram::pow2(4);
        for q in [0.0, 0.5, 1.0, f64::NAN, -3.0, 7.0] {
            assert_eq!(h.quantile(q), None, "empty at q={q}");
        }
        // Non-empty: q=0 is the lowest occupied bucket, q=1 the highest,
        // and out-of-range / NaN q clamp instead of panicking or lying.
        let mut h = Histogram::pow2(4); // bounds 1, 2, 4, 8 + overflow
        h.observe(1);
        h.observe(7); // bucket (4,8] → midpoint 7
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(7));
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    #[test]
    fn single_bucket_histograms_have_quantiles() {
        // pow2(0): no bounds, only the unbounded overflow bucket. Its
        // midpoint is the midpoint of (0, u64::MAX] — crude, but defined.
        let mut h = Histogram::pow2(0);
        assert_eq!(h.quantile(0.5), None);
        h.observe(5);
        let mid = 1u64 << 63;
        assert_eq!(h.quantile(0.0), Some(mid));
        assert_eq!(h.quantile(0.5), Some(mid));
        assert_eq!(h.quantile(1.0), Some(mid));
        // pow2(1): one real bucket (0,1] plus overflow reporting the next
        // doubling's midpoint.
        let mut h = Histogram::pow2(1);
        h.observe(1);
        assert_eq!(h.quantile(1.0), Some(1));
        h.observe(9);
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(1.0), Some(2), "overflow reports (1,2] midpoint");
    }

    #[test]
    fn golden_render_with_shards_and_histograms() {
        use crate::event::Charge;
        let mut m = MetricsSnapshot::new();
        m.absorb(&EventKind::Call {
            op: "search",
            shard: Some(1),
            terms: 2,
            err: None,
            charge: Charge {
                invocations: 1,
                postings: 3,
                docs_short: 2,
                ..Charge::default()
            },
        });
        m.absorb(&EventKind::Failover {
            shard: 1,
            replica: 1,
        });
        m.add_value("time_backoff", 0.25);
        assert_eq!(
            m.render(),
            "calls.search 1\n\
             docs_short 2\n\
             failovers 1\n\
             postings 3\n\
             shard1.calls.search 1\n\
             shard1.docs_short 2\n\
             shard1.failovers 1\n\
             shard1.postings 3\n\
             shard1.replica1.serves 1\n\
             time_backoff 0.250000\n\
             hist.docs_short [≤2:1]\n\
             hist.postings [≤4:1]\n"
        );
    }

    #[test]
    fn shard_tagged_kinds_bump_exactly_these_keys() {
        use crate::event::Charge;
        let charge = Charge {
            invocations: 1,
            rejected: 1,
            postings: 7,
            docs_short: 2,
            docs_long: 1,
            faults: 1,
            retries: 2,
            time_backoff: 0.5,
            ..Charge::default()
        };
        let kinds = [
            EventKind::Call {
                op: "search",
                shard: Some(1),
                terms: 2,
                err: None,
                charge,
            },
            EventKind::Backoff {
                shard: Some(1),
                seconds: 0.5,
                charge,
            },
            EventKind::Failover {
                shard: 2,
                replica: 1,
            },
            EventKind::CircuitOpen {
                shard: 2,
                rate: 900,
            },
            EventKind::CircuitClose { shard: 2, rate: 10 },
            EventKind::Hedge {
                shard: 3,
                replica: 0,
            },
            EventKind::Cancel {
                shard: 3,
                replica: 1,
            },
            EventKind::DeadlineMiss { shard: Some(3) },
            EventKind::MigrationBatch {
                mv: 0,
                src: 0,
                dst: 4,
                docs: 5,
                postings: 50,
                high_water: 9,
                epoch: 1,
            },
            EventKind::DocTraffic {
                shard: Some(1),
                docs: vec![4, 5, 6],
            },
            EventKind::SkewAlert {
                window: 0,
                shard: 2,
                share_ppm: 700_000,
                hot: true,
            },
            EventKind::RebalanceAdvice {
                window: 0,
                src: 2,
                dst: 0,
                lo: 1,
                hi: 9,
                hits: 3,
            },
        ];
        let mut m = MetricsSnapshot::new();
        for kind in &kinds {
            m.absorb(kind);
        }
        let counters: Vec<&str> = m.counters.keys().map(String::as_str).collect();
        assert_eq!(
            counters,
            [
                "calls.search",
                "cancels",
                "circuit.close",
                "circuit.open",
                "deadline.miss",
                "docs_long",
                "docs_short",
                "failovers",
                "faults",
                "hedges",
                "migration.batches",
                "migration.docs_moved",
                "migration.postings_moved",
                "monitor.advice",
                "monitor.skew.hot",
                "postings",
                "rejected",
                "retries",
                "shard0.migration.docs_out",
                "shard0.monitor.advice_in",
                "shard1.calls.search",
                "shard1.docs_long",
                "shard1.docs_short",
                "shard1.faults",
                "shard1.postings",
                "shard1.rejected",
                "shard1.retries",
                "shard1.traffic.docs",
                "shard2.circuit.close",
                "shard2.circuit.open",
                "shard2.failovers",
                "shard2.monitor.advice_out",
                "shard2.monitor.skew.hot",
                "shard2.replica1.serves",
                "shard3.cancels",
                "shard3.deadline.miss",
                "shard3.hedges",
                "shard3.replica0.hedges",
                "shard3.replica1.cancels",
                "shard4.migration.docs_in",
                "traffic.docs",
            ]
        );
        let values: Vec<&str> = m.values.keys().map(String::as_str).collect();
        assert_eq!(values, ["shard1.time_backoff", "time_backoff"]);
        let hists: Vec<&str> = m.histograms.keys().map(String::as_str).collect();
        assert_eq!(hists, ["hist.docs_short", "hist.postings"]);

        // The same stream again finds every key: counters double, none is
        // added.
        let once = m.clone();
        for kind in &kinds {
            m.absorb(kind);
        }
        assert_eq!(m.counters.len(), once.counters.len());
        for (key, v) in &once.counters {
            assert_eq!(m.counter(key), 2 * v, "{key}");
        }
        assert_eq!(m.value("shard1.time_backoff"), 1.0);
        assert_eq!(m.histograms["hist.postings"].total(), 2);
    }
}
