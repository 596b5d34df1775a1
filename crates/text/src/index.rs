//! The inverted index and document store.
//!
//! Mirrors the paper's inversion-based model (Section 2.1): each word maps —
//! through a main-memory *directory* — to an inverted list of postings. The
//! directory finds a word by hash and lists its words in order on demand,
//! so truncated searches (`filter?`) become range scans of a sorted order.
//! Documents are stored alongside for long-form retrieval by docid.

use std::fmt;
use std::sync::OnceLock;

use crate::doc::{DocId, DocStore, Document, FieldId, ShortDoc, ShortForms, TextSchema};
use crate::postings::{DocSet, Occurrence, PostingList};
use crate::stats::VocabularyStats;
use crate::token::for_each_token;

/// How many slots the directory keeps per word, at least: its slot table
/// grows, doubling, before a word would make it more than half full. At
/// that load a linear probe meets about 1.5 slots for a word there and 2.5
/// for one that is not. Like `GALLOP_RATIO` it is a property of the probe
/// loop, not of a workload, so nothing sets it.
const SLOTS_PER_WORD: usize = 2;

/// The slot a linear probe for `word` starts from in a table of `len`
/// slots, a power of two: the high bits of a multiplicative hash of the
/// word's bytes. The hash is fixed, so a directory is the same on every
/// run.
fn home(word: &str, len: usize) -> usize {
    let mut hash = 0u64;
    for &b in word.as_bytes() {
        hash = (hash.rotate_left(5) ^ u64::from(b)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    ((hash >> (63 - len.trailing_zeros())) >> 1) as usize
}

/// The directory: word → inverted list, found by hash and listed in word
/// order. Nothing reads the slot table in its own order, so no output can
/// depend on where a word hashes.
#[derive(Clone, Default)]
struct Directory {
    /// Every word once, with its list, in the order the words arrived.
    entries: Vec<(Box<str>, PostingList)>,
    /// A power-of-two table of entry index + 1, 0 where empty, probed
    /// linearly from the slot the high bits of a word's hash pick.
    slots: Vec<u32>,
    /// The entry indices in word order, sorted when first read after a new
    /// word arrives; a new word empties it.
    order: OnceLock<Vec<u32>>,
}

impl Directory {
    /// A directory of `entries`, given in word order.
    fn sorted(entries: Vec<(Box<str>, PostingList)>) -> Self {
        let mut dir = Self {
            order: OnceLock::from((0..entries.len() as u32).collect::<Vec<_>>()),
            entries,
            slots: Vec::new(),
        };
        dir.rehash();
        dir
    }

    /// The index of `word`'s entry, or the empty slot where it would go.
    fn find(&self, word: &str) -> Result<usize, usize> {
        let Some(mask) = self.slots.len().checked_sub(1) else {
            return Err(0);
        };
        let mut at = home(word, self.slots.len());
        loop {
            match self.slots[at] as usize {
                0 => return Err(at),
                e if &*self.entries[e - 1].0 == word => return Ok(e - 1),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// `word`'s list, an empty one added if the word is new.
    fn list_mut(&mut self, word: &str) -> &mut PostingList {
        let at = match self.find(word) {
            Ok(e) => return &mut self.entries[e].1,
            Err(at) => at,
        };
        self.order.take();
        let e = self.entries.len();
        self.entries.push((word.into(), PostingList::default()));
        if self.entries.len() * SLOTS_PER_WORD > self.slots.len() {
            self.rehash();
        } else {
            self.slots[at] = e as u32 + 1;
        }
        &mut self.entries[e].1
    }

    /// Rebuilds the slot table at the least power of two that keeps it
    /// within [`SLOTS_PER_WORD`].
    fn rehash(&mut self) {
        let n = (self.entries.len() * SLOTS_PER_WORD).next_power_of_two();
        self.slots = vec![0; n];
        for e in 0..self.entries.len() {
            if let Err(at) = self.find(&self.entries[e].0) {
                self.slots[at] = e as u32 + 1;
            }
        }
    }

    /// The entry indices in word order.
    fn order(&self) -> &[u32] {
        self.order.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.entries.len() as u32).collect();
            order.sort_unstable_by(|&a, &b| {
                self.entries[a as usize].0.cmp(&self.entries[b as usize].0)
            });
            order
        })
    }

    /// The entries in word order, from the first not below `word` on.
    fn iter_from(&self, word: &str) -> impl Iterator<Item = (&str, &PostingList)> {
        let order = self.order();
        let from = order.partition_point(|&e| &*self.entries[e as usize].0 < word);
        order[from..].iter().map(|&e| {
            let (word, list) = &self.entries[e as usize];
            (&**word, list)
        })
    }
}

impl fmt::Debug for Directory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter_from("")).finish()
    }
}

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
    /// Directory: word → inverted list, found by hash, listed in order.
    directory: Directory,
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
            directory: Directory::default(),
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
        self.directory.entries.len()
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
                    directory.list_mut(word).push(id, field, occ);
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
        self.directory.entries.shrink_to_fit();
        for (_, list) in &mut self.directory.entries {
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
        for (word, list) in self.iter_terms() {
            for (dir, dealt) in dirs.iter_mut().zip(list.deal(route, n)) {
                if !dealt.is_empty() {
                    dir.push((word.into(), dealt));
                }
            }
        }
        for (part, dir) in parts.iter_mut().zip(dirs) {
            // Dealt in word order: each part's order is already sorted.
            part.directory = Directory::sorted(dir);
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
        let e = self.directory.find(word).ok()?;
        Some(&self.directory.entries[e].1)
    }

    /// Inverted lists for all words with the given prefix — the access path
    /// behind truncated search terms like `filter?`.
    pub(crate) fn prefix_lookup<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, &'a PostingList)> + 'a {
        self.directory
            .iter_from(prefix)
            .take_while(move |(w, _)| w.starts_with(prefix))
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
        self.directory.iter_from("")
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
        self.directory.entries.iter().map(|(_, l)| l.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
        let entries = &bulk.directory.entries;
        assert_eq!(entries.capacity(), entries.len());
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

    /// `doc`, indexed as document `id` into a plain ordered map: the
    /// directory's model.
    fn index_into(model: &mut BTreeMap<String, PostingList>, id: DocId, doc: &Document) {
        for (field, values) in doc.iter() {
            for (value_idx, value) in (0u32..).zip(values) {
                for_each_token(value, &mut String::new(), |word, pos| {
                    let occ = Occurrence { value_idx, pos };
                    model
                        .entry(word.to_owned())
                        .or_default()
                        .push(id, field, occ);
                });
            }
        }
    }

    /// `c` against `model`: every word in order, a lookup of each and of
    /// `probe`, a prefix scan from `probe` and the totals.
    fn agrees(c: &Collection, model: &BTreeMap<String, PostingList>, probe: &str) {
        assert!(c
            .iter_terms()
            .eq(model.iter().map(|(w, l)| (w.as_str(), l))));
        for (w, l) in model {
            assert_eq!(c.lookup(w), Some(l), "{w}");
        }
        assert_eq!(c.lookup(probe), model.get(probe));
        let want = model
            .iter()
            .filter(|(w, _)| w.starts_with(probe))
            .map(|(w, l)| (w.as_str(), l));
        assert!(c.prefix_lookup(probe).eq(want), "prefix {probe}");
        assert_eq!(c.vocabulary_size(), model.len());
        let postings: usize = model.values().map(PostingList::len).sum();
        assert_eq!(c.total_postings(), postings);
    }

    #[test]
    fn words_that_share_a_home_slot_are_all_found() {
        // Eight words that all start probing from one slot of the
        // 16-slot table eight words fill, and four more that would.
        let same: Vec<String> = (0..)
            .map(|i| format!("w{i}"))
            .filter(|w| home(w, 16) == home("w0", 16))
            .take(12)
            .collect();
        let (words, absent) = same.split_at(8);
        let mut c = Collection::new(TextSchema::bibliographic());
        let mut model = BTreeMap::new();
        for (i, w) in (0u32..).zip(words) {
            let doc = Document::new().with(FieldId(0), format!("{w} {}", words[0]));
            index_into(&mut model, DocId(i), &doc);
            c.add_document(doc);
        }
        assert_eq!(c.directory.slots.len(), 16);
        for probe in absent.iter().chain(words) {
            agrees(&c, &model, probe);
        }
    }

    /// One step against the directory and its model.
    #[derive(Debug, Clone)]
    enum Step {
        Add(Document),
        Extend(Vec<Document>),
        /// Replaces the collection with the first of `n` parts it is split
        /// into, document `g` going to part `g % n`.
        Split(usize),
        /// Checks every read against the model, `probe` looked up and
        /// scanned as a prefix.
        Read(String),
    }

    /// Documents over a vocabulary of up to 39 words of `a`–`c`, enough to
    /// grow the slot table several times and to make words share a slot.
    fn small_vocabulary_document() -> impl Strategy<Value = Document> {
        let value = (0u16..3, prop::collection::vec("[a-c]{1,3}", 0..4));
        prop::collection::vec(value, 0..4).prop_map(|values| {
            let mut doc = Document::new();
            for (field, words) in values {
                doc.push(FieldId(field), words.join(" "));
            }
            doc
        })
    }

    /// Four adds, a bulk add and a split to every three reads.
    fn step() -> impl Strategy<Value = Step> {
        let doc = small_vocabulary_document;
        let more = prop::collection::vec(doc(), 0..4);
        let args = ((0u8..9, doc()), (more, 1usize..4, "[a-c]{0,3}"));
        args.prop_map(|((op, doc), (more, n, probe))| match op {
            0..4 => Step::Add(doc),
            4 => Step::Extend(more),
            5 => Step::Split(n),
            _ => Step::Read(probe),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The directory answers every read as an ordered map would,
        /// whatever the interleaving: new words arriving after an ordered
        /// read, bulk adds, and collections cut out of a split.
        #[test]
        fn directory_reads_as_an_ordered_map(steps in prop::collection::vec(step(), 0..24)) {
            let mut c = Collection::new(TextSchema::bibliographic());
            let mut docs: Vec<Document> = Vec::new();
            let mut model = BTreeMap::new();
            for step in steps {
                match step {
                    Step::Add(doc) => {
                        index_into(&mut model, c.add_document(doc.clone()), &doc);
                        docs.push(doc);
                    }
                    Step::Extend(more) => {
                        for doc in &more {
                            index_into(&mut model, DocId(docs.len() as u32), doc);
                            docs.push(doc.clone());
                        }
                        c.extend(more);
                    }
                    Step::Split(n) => {
                        let route: Vec<(usize, DocId)> =
                            (0..docs.len()).map(|g| (g % n, DocId((g / n) as u32))).collect();
                        c = c.split(&route, n).swap_remove(0);
                        docs = docs.into_iter().step_by(n).collect();
                        model.clear();
                        for (id, doc) in (0u32..).zip(&docs) {
                            index_into(&mut model, DocId(id), doc);
                        }
                    }
                    Step::Read(probe) => agrees(&c, &model, &probe),
                }
            }
            agrees(&c, &model, "");
        }

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
