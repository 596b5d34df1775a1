//! Vocabulary statistics export — the Section 8 statistics extension.
//!
//! The paper's discussion: *"the text system can help the optimizer by
//! making available statistics such as distribution of fanout of the words
//! in the vocabulary. Such information will eliminate the need for sending
//! all single-column probes to the text system."*
//!
//! [`VocabularyStats`] is that export: per-field document frequencies and a
//! fanout histogram, handed to the client optimizer for free (no `c_i`/`c_p`
//! charges — the point of the extension). It is index data, not a
//! query-time aggregate: a [`Collection`] builds it once per content
//! version ([`Collection::vocabulary_stats`]) and every request receives
//! the same immutable handle.

use std::collections::HashMap;
use std::sync::Arc;

use crate::doc::FieldId;
use crate::index::Collection;
use crate::server::TextServer;

/// Per-field statistics for one field of the collection.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct FieldStats {
    /// Number of distinct words occurring in the field.
    pub vocabulary: usize,
    /// Total document-frequency mass: Σ over words of df(word, field).
    pub total_df: u64,
    /// Histogram of document frequencies: `histogram[b]` counts words whose
    /// df falls in bucket `b` (power-of-two buckets: df ∈ [2^b, 2^(b+1))).
    pub histogram: Vec<u64>,
    /// The field's words with their document frequencies, ascending by
    /// word: a prefix question is a range seek, a merge is a sorted walk.
    words: Vec<(Arc<str>, u32)>,
    /// Point-lookup index over `words` (the keys are the same strings).
    df: HashMap<Arc<str>, u32>,
}

impl FieldStats {
    /// Appends `word` with document frequency `df > 0`. Words arrive in
    /// strictly ascending order.
    fn push(&mut self, word: Arc<str>, df: u32) {
        debug_assert!(self.words.last().is_none_or(|(w, _)| **w < *word));
        self.vocabulary += 1;
        self.total_df += u64::from(df);
        let bucket = df.ilog2() as usize;
        if self.histogram.len() <= bucket {
            self.histogram.resize(bucket + 1, 0);
        }
        self.histogram[bucket] += 1;
        self.words.push((Arc::clone(&word), df));
        self.df.insert(word, df);
    }

    /// Document frequency of `word` in this field, 0 if absent.
    pub fn fanout(&self, word: &str) -> u32 {
        self.df.get(word).copied().unwrap_or(0)
    }

    /// Whether `word` occurs in this field at all — answers a single-column
    /// probe without contacting the server.
    pub(crate) fn occurs(&self, word: &str) -> bool {
        self.fanout(word) > 0
    }

    /// Whether any word in this field starts with `prefix` — the
    /// truncation-query analogue of [`occurs`](Self::occurs), used by
    /// stats-aware shard routing to prove a shard irrelevant. The words
    /// sharing a prefix are contiguous in ascending order and the first of
    /// them is the first word not below the prefix itself.
    pub fn occurs_prefix(&self, prefix: &str) -> bool {
        let at = self.words.partition_point(|(w, _)| **w < *prefix);
        self.words.get(at).is_some_and(|(w, _)| w.starts_with(prefix))
    }
}

/// The exported statistics bundle: an immutable handle. `clone` copies a
/// pointer, `==` compares content, [`ptr_eq`](Self::ptr_eq) tells whether
/// two handles are the same export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VocabularyStats {
    /// Total number of documents `D`.
    pub doc_count: usize,
    /// Indexed by [`FieldId`].
    per_field: Arc<[FieldStats]>,
}

impl VocabularyStats {
    /// Computes the export from a collection, in one pass over the list
    /// heads of the index.
    /// In a deployment this runs on the server; clients receive the result
    /// without paying query costs. Callers want
    /// [`Collection::vocabulary_stats`], which runs this once per content
    /// version.
    pub fn compute(coll: &Collection) -> Self {
        let mut per_field: Vec<FieldStats> = Vec::new();
        per_field.resize_with(coll.schema().len(), FieldStats::default);
        for (word, list) in coll.iter_terms() {
            // One string per word, however many fields it occurs in.
            let word: Arc<str> = Arc::from(word);
            for l in list.fields(None) {
                let f = usize::from(l.field().0);
                if per_field.len() <= f {
                    per_field.resize_with(f + 1, FieldStats::default);
                }
                // A list head is the field's documents: its length is df.
                per_field[f].push(Arc::clone(&word), l.docs().len() as u32);
            }
        }
        Self {
            doc_count: coll.doc_count(),
            per_field: per_field.into(),
        }
    }

    /// Merges per-shard exports into collection-wide statistics. Because
    /// the shards partition the collection, per-word document frequencies
    /// sum exactly; vocabulary, total df, and the fanout histogram are
    /// rebuilt from the summed frequencies. The parts are only read, and
    /// the merged export shares their word strings.
    pub fn merged(parts: &[VocabularyStats]) -> Self {
        let fields = parts.iter().map(|p| p.per_field.len()).max().unwrap_or(0);
        let per_field: Vec<FieldStats> = (0..fields)
            .map(|f| {
                // Each part's words are one ascending run: the stable sort
                // merges the runs, then equal neighbours sum.
                let mut all: Vec<&(Arc<str>, u32)> = parts
                    .iter()
                    .filter_map(|p| p.per_field.get(f))
                    .flat_map(|fs| &fs.words)
                    .collect();
                all.sort_by(|a, b| a.0.cmp(&b.0));
                let mut fs = FieldStats::default();
                let mut run = all.into_iter().peekable();
                while let Some((word, first)) = run.next() {
                    let mut df = *first;
                    while let Some((_, d)) = run.next_if(|(w, _)| w == word) {
                        df += d;
                    }
                    fs.push(Arc::clone(word), df);
                }
                fs
            })
            .collect();
        Self {
            doc_count: parts.iter().map(|p| p.doc_count).sum(),
            per_field: per_field.into(),
        }
    }

    /// Whether `self` and `other` are the same export (not merely equal
    /// ones): the cheap way to tell that statistics did not change.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.per_field, &other.per_field)
    }

    /// Statistics for `field`.
    pub fn field(&self, field: FieldId) -> Option<&FieldStats> {
        self.per_field.get(usize::from(field.0))
    }

    /// Exact fanout of `word` in `field` (0 if unknown).
    pub fn fanout(&self, word: &str, field: FieldId) -> u32 {
        self.field(field).map(|f| f.fanout(word)).unwrap_or(0)
    }

    /// Whether `word` occurs in `field` — a free single-column probe.
    pub fn occurs(&self, word: &str, field: FieldId) -> bool {
        self.fanout(word, field) > 0
    }
}

impl TextServer {
    /// Exports vocabulary statistics (Section 8 extension). Free of query
    /// charges by design, and free of work after the first call: the
    /// collection owns the export and this hands out its handle.
    pub fn export_stats(&self) -> VocabularyStats {
        self.collection().vocabulary_stats().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{Document, TextSchema};

    impl FieldStats {
        /// Mean fanout over the field's vocabulary (average documents per
        /// word).
        fn mean_fanout(&self) -> f64 {
            if self.vocabulary == 0 {
                0.0
            } else {
                self.total_df as f64 / self.vocabulary as f64
            }
        }
    }

    fn coll() -> (Collection, FieldId, FieldId) {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let mut c = Collection::new(schema);
        c.add_document(Document::new().with(ti, "text retrieval text").with(au, "Gravano"));
        c.add_document(Document::new().with(ti, "text indexing").with(au, "Kao"));
        c.add_document(Document::new().with(ti, "query processing").with(au, "Gravano"));
        (c, ti, au)
    }

    #[test]
    fn fanout_counts_documents_not_occurrences() {
        let (c, ti, _) = coll();
        let stats = VocabularyStats::compute(&c);
        // "text" appears twice in doc0 but df counts documents.
        assert_eq!(stats.fanout("text", ti), 2);
        assert_eq!(stats.fanout("query", ti), 1);
        assert_eq!(stats.fanout("gravano", ti), 0);
    }

    #[test]
    fn occurs_is_free_probe() {
        let (c, ti, au) = coll();
        let stats = VocabularyStats::compute(&c);
        assert!(stats.occurs("gravano", au));
        assert!(!stats.occurs("gravano", ti));
        assert!(!stats.occurs("zzz", au));
    }

    #[test]
    fn per_field_aggregates() {
        let (c, _, au) = coll();
        let stats = VocabularyStats::compute(&c);
        let fs = stats.field(au).unwrap();
        assert_eq!(fs.vocabulary, 2); // gravano, kao
        assert_eq!(fs.total_df, 3); // gravano ×2, kao ×1
        assert!((fs.mean_fanout() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets() {
        let (c, _, au) = coll();
        let stats = VocabularyStats::compute(&c);
        let fs = stats.field(au).unwrap();
        // kao df=1 → bucket 0; gravano df=2 → bucket 1.
        assert_eq!(fs.histogram, vec![1, 1]);
    }

    #[test]
    fn export_via_server_charges_nothing() {
        let (c, _, au) = coll();
        let server = TextServer::new(c);
        let stats = server.export_stats();
        assert!(stats.occurs("kao", au));
        assert_eq!(server.usage().total_cost(), 0.0);
        assert_eq!(stats.doc_count, 3);
    }
}
