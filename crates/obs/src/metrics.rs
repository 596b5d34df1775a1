//! The histograms `explain` prints: fixed power-of-two buckets over the
//! postings and short-form documents of a trace's successful,
//! non-`retrieve` calls, replayed from the events.

use std::fmt::{self, Write as _};

use crate::event::{Event, EventKind};

/// A histogram over fixed power-of-two buckets: bucket `k` counts values
/// `v` with `v <= 2^k` (the last bucket is an unbounded overflow bucket).
/// The bucket layout is fixed at construction, so rendering never depends
/// on the data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Histogram {
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
        let lo = idx.checked_sub(1).map_or(0, |i| self.bounds[i] + 1);
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

/// The quantile registry of a trace: a histogram of postings and one of
/// short-form documents, over the calls that succeeded and are not
/// `retrieve` (a long-form fetch processes no postings).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    docs_short: Histogram,
    postings: Histogram,
}

impl MetricsSnapshot {
    /// Empty histograms of `pow2(24)` buckets.
    fn new() -> Self {
        Self {
            docs_short: Histogram::pow2(24),
            postings: Histogram::pow2(24),
        }
    }

    /// The histograms under their keys, in key order.
    fn histograms(&self) -> [(&'static str, &Histogram); 2] {
        [
            ("hist.docs_short", &self.docs_short),
            ("hist.postings", &self.postings),
        ]
    }

    /// `(p50, p90, p99)` quantile estimates for histogram `key`
    /// (`hist.postings` or `hist.docs_short`), from bucket midpoints.
    /// `None` when the key is unknown or the histogram empty.
    pub fn quantiles(&self, key: &str) -> Option<(u64, u64, u64)> {
        let (_, h) = self.histograms().into_iter().find(|&(k, _)| k == key)?;
        Some((h.quantile(0.50)?, h.quantile(0.90)?, h.quantile(0.99)?))
    }

    /// Folds one event into the histograms: a successful, non-`retrieve`
    /// call is observed, every other event is not.
    fn absorb(&mut self, kind: &EventKind) {
        if let EventKind::Call {
            op,
            err: None,
            charge,
            ..
        } = kind
        {
            if *op != "retrieve" {
                self.postings.observe(charge.postings.max(0) as u64);
                self.docs_short.observe(charge.docs_short.max(0) as u64);
            }
        }
    }

    /// The histograms of `events` — offline replay for rendered traces (the
    /// `explain` binary rebuilds quantiles from a JSONL file through this).
    pub fn from_events(events: &[Event]) -> Self {
        let mut m = Self::new();
        for ev in events {
            m.absorb(&ev.kind);
        }
        m
    }

    /// Deterministic rendering: one `key [buckets]` line per non-empty
    /// histogram, in key order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, h) in self.histograms() {
            if h.total() > 0 {
                let _ = writeln!(out, "{key} {h}");
            }
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
        assert_eq!(m.render(), "", "empty histograms print nothing");
        m.postings.observe(3);
        m.docs_short.observe(1);
        let r = m.render();
        assert_eq!(r, "hist.docs_short [≤1:1]\nhist.postings [≤4:1]\n");
        assert_eq!(m.render(), r);
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
        assert_eq!(
            m.render(),
            "hist.docs_short [≤2:1]\n\
             hist.postings [≤4:1]\n"
        );
    }
}
