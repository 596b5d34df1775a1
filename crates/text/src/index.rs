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
    /// postings are this collection's own. A document no other handle
    /// shares is stored at exact capacity.
    pub fn add_document(&mut self, mut doc: Document) -> DocId {
        self.stats.take();
        doc.shrink_to_fit();
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

    /// Adds `docs` as [`add_document`](Self::add_document) adds each, then
    /// frees the room the lists grew into: a bulk-built index has none.
    pub fn extend(&mut self, docs: impl IntoIterator<Item = Document>) {
        for doc in docs {
            self.add_document(doc);
        }
        for list in self.directory.values_mut() {
            list.shrink_to_fit();
        }
    }

    /// Deals this collection out into `n` parts without reading a document
    /// again. `route` gives each docid here its `(part, docid there)`, the
    /// part's next dense one, and every `(word, field)` list is cut by it:
    /// each part equals its documents added in docid order.
    pub(crate) fn split(&self, route: &[(usize, DocId)], n: usize) -> Vec<Collection> {
        let mut parts: Vec<Collection> = (0..n)
            .map(|_| Collection::new(self.schema.clone()))
            .collect();
        for (doc, &(at, _)) in (0..).map_while(|g| self.docs.get(g)).zip(route) {
            parts[at].docs.push(doc.clone());
        }
        let mut dirs = vec![Vec::new(); n];
        for (word, list) in &self.directory {
            for (dir, dealt) in dirs.iter_mut().zip(list.deal(route, n)) {
                if !dealt.is_empty() {
                    dir.push((word.clone(), dealt));
                }
            }
        }
        for (part, dir) in parts.iter_mut().zip(dirs) {
            // Already in word order: the map is built without a search.
            part.directory = dir.into_iter().collect();
        }
        parts
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
    use proptest::prelude::*;

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
        assert!(
            c.lookup("Belief").is_none(),
            "directory stores normalized words"
        );
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

    #[test]
    fn a_stored_document_has_no_spare_capacity() {
        let mut c = Collection::new(TextSchema::bibliographic());
        // Fields out of order, one value at a time: the list, the runs and
        // the title all have room to spare.
        let build = || {
            Document::new()
                .with(FieldId(2), "an abstract")
                .with(FieldId(1), "Garcia")
                .with(FieldId(0), String::with_capacity(64) + "belief update")
                .with(FieldId(1), "Radhika")
                .with(FieldId(4), "Uni")
        };
        let want = build();
        assert!(want.spare_capacity() > 0);
        let id = c.add_document(build());
        let stored = c.document(id).unwrap();
        assert_eq!(stored.spare_capacity(), 0);
        assert_eq!(stored, &want);
        // A document another handle holds is stored as it is: no copy, no
        // shrink.
        let shared = Document::new().with(FieldId(0), String::with_capacity(64) + "shared");
        let spare = shared.spare_capacity();
        let id = c.add_document(shared.clone());
        let stored = c.document(id).unwrap();
        assert!(stored.ptr_eq(&shared));
        assert_eq!(stored.spare_capacity(), spare);
        assert!(spare > 0);
    }

    #[test]
    fn a_built_index_has_no_spare_capacity() {
        // Enough documents for every list to grow several times, words
        // repeated within a value (offsets kept) and values long enough to
        // widen the occurrence lanes partway through.
        let docs: Vec<Document> = (0..300)
            .map(|i| {
                let filler = "w ".repeat(i % 40);
                Document::new()
                    .with(FieldId(0), format!("belief {filler} update belief"))
                    .with(FieldId(1), format!("author{} garcia", i % 7))
                    .with(FieldId(1), "garcia")
            })
            .collect();
        let mut bulk = Collection::new(TextSchema::bibliographic());
        bulk.extend(docs.iter().cloned());
        let mut single = Collection::new(TextSchema::bibliographic());
        for d in &docs {
            single.add_document(d.clone());
        }
        assert_eq!(terms(&bulk), terms(&single));
        assert!(single.iter_terms().any(|(_, l)| l.spare_capacity() > 0));
        let spare = |c: &Collection| {
            c.iter_terms()
                .map(|(_, l)| l.spare_capacity())
                .sum::<usize>()
        };
        assert_eq!(spare(&bulk), 0);
        let route: Vec<(usize, DocId)> = (0..300).map(|i| (i % 3, DocId(i as u32 / 3))).collect();
        for part in bulk.split(&route, 3) {
            assert_eq!(spare(&part), 0);
        }
    }

    /// Words that land in several fields, one of them lower-cased into two
    /// characters (`İ` → `i` + U+0307).
    const WORDS: &[&str] = &["belief", "update", "filter", "Straße", "İzmir", "ai"];

    /// A document: values pushed to title, author or abstract, so a field
    /// often holds several.
    fn document() -> impl Strategy<Value = Document> {
        let value = (
            0u16..3,
            prop::collection::vec(prop::sample::select(WORDS), 0..4),
        );
        prop::collection::vec(value, 0..5).prop_map(|values| {
            let mut doc = Document::new();
            for (field, words) in values {
                doc.push(FieldId(field), words.join(" "));
            }
            doc
        })
    }

    fn terms(c: &Collection) -> Vec<(String, PostingList)> {
        c.iter_terms()
            .map(|(w, l)| (w.to_owned(), l.clone()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Cutting the built index equals indexing each part's documents
        /// afresh in docid order, for any deal into 1 to 7 parts, empty
        /// parts included: every list and every document.
        #[test]
        fn split_equals_reindexing_each_part(
            docs in prop::collection::vec(document(), 0..24),
            n in 1usize..8,
            deal in prop::collection::vec(0usize..7, 24),
        ) {
            let mut coll = Collection::new(TextSchema::bibliographic());
            let mut want: Vec<Collection> =
                (0..n).map(|_| Collection::new(coll.schema().clone())).collect();
            let mut route = Vec::new();
            for (d, &at) in docs.iter().zip(&deal) {
                coll.add_document(d.clone());
                route.push((at % n, want[at % n].add_document(d.clone())));
            }
            let parts = coll.split(&route, n);
            prop_assert_eq!(parts.len(), n);
            for (got, want) in parts.iter().zip(&want) {
                prop_assert_eq!(terms(got), terms(want));
                prop_assert_eq!(got.total_postings(), want.total_postings());
                prop_assert_eq!(got.doc_count(), want.doc_count());
                for i in 0..want.doc_count() as u32 {
                    prop_assert_eq!(got.document(DocId(i)), want.document(DocId(i)));
                }
            }
        }
    }
}
