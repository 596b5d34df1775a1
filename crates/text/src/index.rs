//! The inverted index and document store.
//!
//! Mirrors the paper's inversion-based model (Section 2.1): each word maps —
//! through a main-memory *directory* — to an inverted list of postings. We
//! keep the directory as an ordered map so truncated searches (`filter?`)
//! become range scans, and store documents alongside for long-form
//! retrieval by docid.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::OnceLock;

use crate::doc::{DocId, DocStore, Document, FieldId, ShortDoc, ShortForms, TextSchema};
use crate::postings::{DocSet, Occurrence, PostingList};
use crate::stats::VocabularyStats;
use crate::token::for_each_token;

/// A searchable document collection: schema + document store + inverted
/// index. This is the passive storage layer; cost accounting lives in
/// [`crate::server::TextServer`].
#[derive(Debug, Clone)]
pub struct Collection {
    schema: TextSchema,
    /// Each document's values are stored once; short forms, long forms,
    /// replicas and migration copies are clones of its handle, and a
    /// result set or a replica holds the store itself.
    docs: DocStore,
    /// Directory: word → inverted list. Ordered for prefix range scans.
    directory: BTreeMap<String, PostingList>,
    /// The statistics export of the current content, built when first asked
    /// for. `add_document` — the only mutation there is — empties it, so a
    /// handle never outlives the content it describes.
    stats: OnceLock<VocabularyStats>,
}

impl Collection {
    /// Creates an empty collection over `schema`.
    pub fn new(schema: TextSchema) -> Self {
        Self {
            schema,
            docs: DocStore::default(),
            directory: BTreeMap::new(),
            stats: OnceLock::new(),
        }
    }

    /// The collection's schema.
    pub fn schema(&self) -> &TextSchema {
        &self.schema
    }

    /// Total number of documents — the paper's parameter `D`.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of distinct indexed words.
    pub fn vocabulary_size(&self) -> usize {
        self.directory.len()
    }

    /// Adds a document, indexing every word of every field value, and
    /// returns its docid. Docids are assigned densely in insertion order,
    /// which keeps every inverted list sorted on append. Passing a clone of
    /// a document another collection holds shares the strings; only the
    /// postings are this collection's own.
    pub fn add_document(&mut self, doc: Document) -> DocId {
        self.stats.take();
        let id = DocId(self.docs.len() as u32);
        let directory = &mut self.directory;
        // One buffer for every word of the document; a key is allocated
        // only for a word the directory has not seen.
        let mut buf = String::new();
        for (field, values) in doc.iter() {
            for (value_idx, value) in (0u32..).zip(values) {
                for_each_token(value, &mut buf, |word, pos| {
                    let occ = Occurrence { value_idx, pos };
                    match directory.get_mut(word) {
                        Some(list) => list.push(id, field, occ),
                        None => directory
                            .entry(word.to_owned())
                            .or_default()
                            .push(id, field, occ),
                    }
                });
            }
        }
        self.docs.push(doc);
        id
    }

    /// Long-form retrieval: the full document for `id`, or `None` if the
    /// docid is unknown. Cloning it shares the stored values.
    pub fn document(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.0 as usize)
    }

    /// The short form of `id`, owning a handle on the stored document.
    pub fn short_form(&self, id: DocId) -> Option<ShortDoc> {
        self.document(id)
            .map(|d| ShortDoc::new(id, d.clone(), &self.schema))
    }

    /// The short forms of `hits`, which this collection's evaluator found:
    /// a view on its store, one handle on the store and none on a document.
    pub(crate) fn short_forms(&self, hits: DocSet) -> ShortForms {
        ShortForms::new(hits.into_ids(), &self.docs, &self.schema)
    }

    /// The inverted list for `word` (already normalized), or `None` if the
    /// word is not in the vocabulary. The returned list spans all fields;
    /// callers pick the field lists they need.
    pub(crate) fn lookup(&self, word: &str) -> Option<&PostingList> {
        self.directory.get(word)
    }

    /// Inverted lists for all words with the given prefix — the access path
    /// behind truncated search terms like `filter?`.
    pub(crate) fn prefix_lookup<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a PostingList)> + 'a {
        self.directory
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(move |(w, _)| w.starts_with(prefix))
            .map(|(w, l)| (w.as_str(), l))
    }

    /// Document frequency of `word` within `field` — how many documents
    /// contain the word in that field. This is the per-term *fanout* the
    /// paper's statistics (Section 4.2) estimate by sampling.
    pub fn doc_frequency(&self, word: &str, field: FieldId) -> usize {
        self.lookup(word)
            .and_then(|l| l.fields(Some(field)).first())
            .map_or(0, |l| l.docs().len())
    }

    /// Iterates over all `(word, list)` entries — used by the statistics
    /// export extension (Section 8).
    pub fn iter_terms(&self) -> impl Iterator<Item = (&str, &PostingList)> {
        self.directory.iter().map(|(w, l)| (w.as_str(), l))
    }

    /// The vocabulary statistics of the current content (Section 8
    /// extension): computed on the first call after a change, the same
    /// handle on every call until the next [`add_document`].
    ///
    /// [`add_document`]: Self::add_document
    pub fn vocabulary_stats(&self) -> &VocabularyStats {
        self.stats.get_or_init(|| VocabularyStats::compute(self))
    }

    /// Sum of the lengths of all inverted lists (total postings).
    pub fn total_postings(&self) -> usize {
        self.directory.values().map(PostingList::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Collection, FieldId, FieldId) {
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
                .with(ti, "Information Filtering")
                .with(au, "Gravano")
                .with(au, "Garcia"),
        );
        c.add_document(
            Document::new()
                .with(ti, "Update Propagation")
                .with(au, "Garcia"),
        );
        (c, ti, au)
    }

    #[test]
    fn add_and_retrieve() {
        let (c, ti, _) = sample();
        assert_eq!(c.doc_count(), 3);
        let d = c.document(DocId(1)).unwrap();
        assert_eq!(d.values(ti), ["Information Filtering"]);
        assert!(c.document(DocId(99)).is_none());
    }

    #[test]
    fn lookup_is_case_normalized() {
        let (c, _, _) = sample();
        assert!(c.lookup("belief").is_some());
        assert!(c.lookup("Belief").is_none(), "directory stores normalized words");
    }

    #[test]
    fn doc_frequency_per_field() {
        let (c, ti, au) = sample();
        assert_eq!(c.doc_frequency("update", ti), 2);
        assert_eq!(c.doc_frequency("garcia", au), 2);
        assert_eq!(c.doc_frequency("garcia", ti), 0);
        assert_eq!(c.doc_frequency("zzz", au), 0);
    }

    #[test]
    fn prefix_lookup_range() {
        let (c, _, _) = sample();
        let words: Vec<&str> = c.prefix_lookup("gra").map(|(w, _)| w).collect();
        assert_eq!(words, ["gravano"]);
        let words: Vec<&str> = c.prefix_lookup("ga").map(|(w, _)| w).collect();
        assert_eq!(words, ["garcia"]);
        assert_eq!(c.prefix_lookup("zzz").count(), 0);
    }

    #[test]
    fn posting_lists_sorted_across_docs() {
        let (c, _, _) = sample();
        let l = c.lookup("update").unwrap();
        for f in l.fields(None) {
            assert!(f.docs().is_sorted());
            assert!(f.postings().is_sorted());
        }
    }

    #[test]
    fn totals() {
        let (c, _, _) = sample();
        assert!(c.vocabulary_size() >= 8);
        assert_eq!(
            c.total_postings(),
            c.iter_terms().map(|(_, l)| l.len()).sum::<usize>()
        );
    }
}
