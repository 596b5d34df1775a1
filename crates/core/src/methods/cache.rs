//! The probe cache — paper, Section 3.3.
//!
//! Probing remembers, per query execution, which probe keys (join-column
//! value combinations) are known to fail or succeed, "so that no duplicate
//! probes are sent". The same structure serves the plain fail-query cache
//! the paper mentions for tuple substitution.
//!
//! Entries are keyed by the **topology epoch** the outcome was observed at
//! as well as the probe-key values: an online migration batch committing
//! mid-execution re-routes docids, so an outcome proved against the old
//! routing must not prune under the new one. A bumped epoch therefore
//! *misses* (the probe is re-sent and re-recorded at the new epoch) rather
//! than clearing the cache — single servers never change topology, so
//! their epoch is constantly 0 and behavior is unchanged.
//!
//! A cache shared across queries also keys by **namespace** — the probe's
//! identity besides its key values — so an outcome can only answer a
//! byte-identical probe.

use std::collections::HashMap;
use std::sync::Arc;

/// Outcome recorded for a probe key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeOutcome {
    /// The probe (or a query implying it) matched at least one document.
    Success,
    /// The probe returned no matching documents — every query agreeing on
    /// the probe columns is a fail-query.
    Fail,
}

/// The outcomes of one namespace at one epoch, by probe-key values.
type Outcomes = HashMap<Vec<Arc<str>>, ProbeOutcome>;

/// A cache from (topology epoch, namespace, probe-key values) to outcomes.
/// Per-execution by default; a serving session promotes one instance to
/// session scope and threads it through every execution.
///
/// A [namespace](Self::namespace) is resolved once per execution and the
/// key values are the relation's own shared strings, so a lookup hashes a
/// borrowed slice and builds nothing; only [`record`](Self::record) allocates.
#[derive(Debug, Default)]
pub struct ProbeCache {
    namespaces: HashMap<Vec<String>, usize>,
    entries: HashMap<(u64, usize), Outcomes>,
    hits: u64,
    misses: u64,
    evicted: u64,
    latest_epoch: u64,
}

impl ProbeCache {
    /// Empty cache.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// The namespace of `identity` — whatever besides the key values tells
    /// one probe from another (a method passes its text selections and
    /// probed fields). Outcomes never cross namespaces.
    pub(crate) fn namespace(&mut self, identity: Vec<String>) -> usize {
        let next = self.namespaces.len();
        *self.namespaces.entry(identity).or_insert(next)
    }

    /// Epoch garbage collection: once an operation arrives at `epoch`,
    /// every entry older than the *previous* epoch is unreachable —
    /// lookups pin at most the current and the immediately preceding
    /// routing (an in-flight gather that began just before the commit).
    /// Anything older is dropped and counted as evicted.
    fn advance(&mut self, epoch: u64) {
        if epoch <= self.latest_epoch {
            return;
        }
        self.latest_epoch = epoch;
        let floor = epoch.saturating_sub(1);
        let before = self.len();
        self.entries.retain(|&(e, _), _| e >= floor);
        self.evicted += (before - self.len()) as u64;
    }

    /// Looks up a key at `epoch`, recording a hit or miss. An outcome
    /// recorded at a different epoch is invisible: routing may have moved
    /// the documents it was proved against.
    pub(crate) fn lookup(
        &mut self,
        epoch: u64,
        ns: usize,
        key: &[Arc<str>],
    ) -> Option<ProbeOutcome> {
        let out = self.peek(epoch, ns, key);
        match out {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        out
    }

    /// [`lookup`](Self::lookup) without touching the hit/miss counters —
    /// for phases that can only *act* on one of the two outcomes and must
    /// not claim a hit for the other.
    pub(crate) fn peek(&mut self, epoch: u64, ns: usize, key: &[Arc<str>]) -> Option<ProbeOutcome> {
        self.advance(epoch);
        self.entries.get(&(epoch, ns))?.get(key).copied()
    }

    /// Counts a hit that [`peek`](Self::peek) proved usable.
    pub(crate) fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Counts a miss for a [`peek`](Self::peek) that found nothing usable.
    pub(crate) fn note_miss(&mut self) {
        self.misses += 1;
    }

    /// Records an outcome for a key at `epoch`. Later records overwrite
    /// earlier ones (a success learned from a full query upgrades a
    /// pending state).
    pub(crate) fn record(
        &mut self,
        epoch: u64,
        ns: usize,
        key: &[Arc<str>],
        outcome: ProbeOutcome,
    ) {
        self.advance(epoch);
        let keys = self.entries.entry((epoch, ns)).or_default();
        keys.insert(key.to_vec(), outcome);
    }

    /// Number of cached keys, over all epochs.
    pub(crate) fn len(&self) -> usize {
        self.entries.values().map(HashMap::len).sum()
    }

    /// `(hits, misses, evicted)` counters — a report's `cache_hits`,
    /// `cache_misses` and `cache_evicted`.
    pub(crate) fn full_stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(values: &[&str]) -> Vec<Arc<str>> {
        values.iter().map(|&v| Arc::from(v)).collect()
    }

    #[test]
    fn lookup_and_record() {
        let mut c = ProbeCache::new();
        let key = key(&["garcia"]);
        assert_eq!(c.lookup(0, 0, &key), None);
        c.record(0, 0, &key, ProbeOutcome::Fail);
        assert_eq!(c.lookup(0, 0, &key), Some(ProbeOutcome::Fail));
        assert_eq!(c.full_stats(), (1, 1, 0));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn overwrite_upgrades() {
        let mut c = ProbeCache::new();
        let key = key(&["x", "y"]);
        c.record(0, 0, &key, ProbeOutcome::Fail);
        c.record(0, 0, &key, ProbeOutcome::Success);
        assert_eq!(c.lookup(0, 0, &key), Some(ProbeOutcome::Success));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn multi_column_keys_distinct() {
        let mut c = ProbeCache::new();
        c.record(0, 0, &key(&["a", "b"]), ProbeOutcome::Fail);
        assert_eq!(c.lookup(0, 0, &key(&["a"])), None);
        assert_eq!(c.lookup(0, 0, &key(&["a", "b"])), Some(ProbeOutcome::Fail));
    }

    #[test]
    fn namespaces_are_interned_and_keep_outcomes_apart() {
        let mut c = ProbeCache::new();
        let au = c.namespace(vec!["f:1".into()]);
        let ti = c.namespace(vec!["s:text@0".into(), "f:1".into()]);
        assert_ne!(au, ti);
        assert_eq!(
            c.namespace(vec!["f:1".into()]),
            au,
            "same identity, same namespace"
        );
        c.record(0, au, &key(&["garcia"]), ProbeOutcome::Fail);
        assert_eq!(c.lookup(0, ti, &key(&["garcia"])), None);
        assert_eq!(c.lookup(0, au, &key(&["garcia"])), Some(ProbeOutcome::Fail));
        // Epoch GC counts keys whatever namespace holds them.
        c.record(0, ti, &key(&["garcia"]), ProbeOutcome::Success);
        assert_eq!(c.peek(2, au, &key(&["garcia"])), None);
        assert_eq!((c.len(), c.full_stats().2), (0, 2));
    }

    #[test]
    fn epoch_gc_drops_everything_older_than_the_previous_epoch() {
        let mut c = ProbeCache::new();
        c.record(0, 0, &key(&["a"]), ProbeOutcome::Fail);
        c.record(1, 0, &key(&["b"]), ProbeOutcome::Success);
        c.record(2, 0, &key(&["c"]), ProbeOutcome::Fail);
        // Advancing to epoch 3 makes epochs ≤ 1 unreachable: epoch 0 and 1
        // entries are dropped, epoch 2 (the previous epoch) survives.
        assert_eq!(c.lookup(3, 0, &key(&["c"])), None);
        assert_eq!(c.full_stats().2, 2, "epochs 0 and 1 evicted");
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(2, 0, &key(&["c"])), Some(ProbeOutcome::Fail));
        // peek never counts.
        let (h, m, _) = c.full_stats();
        assert_eq!(c.peek(3, 0, &key(&["zzz"])), None);
        assert_eq!((h, m), {
            let (h2, m2, _) = c.full_stats();
            (h2, m2)
        });
    }

    #[test]
    fn epoch_bump_misses_without_clearing() {
        let mut c = ProbeCache::new();
        let key = key(&["garcia"]);
        c.record(3, 0, &key, ProbeOutcome::Fail);
        // A migration commit bumped the epoch: the stale fail-entry must
        // not prune against the new routing.
        assert_eq!(c.lookup(4, 0, &key), None);
        // The old entry survives (a still-in-flight gather pinned at the
        // old epoch keeps its pruning power).
        assert_eq!(c.lookup(3, 0, &key), Some(ProbeOutcome::Fail));
        c.record(4, 0, &key, ProbeOutcome::Success);
        assert_eq!(c.lookup(4, 0, &key), Some(ProbeOutcome::Success));
        assert_eq!(c.len(), 2);
    }
}
