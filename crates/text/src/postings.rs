//! Sorted posting lists and linear-time set operations.
//!
//! In an inverted index (paper, Section 2.1), each word is associated with an
//! inverted list of *postings* recording the docids of documents in which the
//! word appears; a posting may also carry the field and the word position.
//! Lists are kept sorted, so Boolean set operations (and positional phrase /
//! proximity checks) run in time linear in the lengths of the input lists —
//! the assumption under which the paper's processing cost is proportional to
//! the *sum of the lengths of the inverted lists processed* (constant `c_p`).

use crate::doc::{DocId, FieldId};

/// One posting: a word occurrence in a specific field position of a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Posting {
    /// Document in which the word occurs.
    pub doc: DocId,
    /// Field in which the word occurs.
    pub field: FieldId,
    /// Index of the field value within the (multi-valued) field.
    pub value_idx: u16,
    /// Word position within that field value.
    pub pos: u32,
}

impl Posting {
    /// Whether this occurrence passes a term's field restriction (`None`
    /// admits every field).
    pub fn is_in(&self, field: Option<FieldId>) -> bool {
        field.is_none_or(|f| self.field == f)
    }
}

/// A sorted inverted list. Postings are ordered by
/// `(doc, field, value_idx, pos)`; the ordering invariant is maintained by
/// construction (documents are indexed in docid order) and checked in debug
/// builds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    postings: Vec<Posting>,
}

impl PostingList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a list from pre-sorted postings.
    ///
    /// # Panics
    /// Debug builds panic if `postings` is not sorted.
    pub fn from_sorted(postings: Vec<Posting>) -> Self {
        debug_assert!(postings.windows(2).all(|w| w[0] <= w[1]));
        Self { postings }
    }

    /// Appends a posting, which must sort at or after the current tail.
    pub fn push(&mut self, p: Posting) {
        debug_assert!(self.postings.last().is_none_or(|last| *last <= p));
        self.postings.push(p);
    }

    /// Number of postings (the list *length* the cost model charges for).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// The raw postings, sorted.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// The distinct docids with a posting in `field` (`None`: in any
    /// field), ascending — one filtered pass over the borrowed list.
    pub fn doc_ids(&self, field: Option<FieldId>) -> impl Iterator<Item = DocId> + '_ {
        let mut last = None;
        self.postings
            .iter()
            .filter(move |p| p.is_in(field))
            .filter_map(move |p| (last.replace(p.doc) != Some(p.doc)).then_some(p.doc))
    }

    /// [`doc_ids`](Self::doc_ids) as a set.
    pub fn docs(&self, field: Option<FieldId>) -> DocSet {
        DocSet::from_sorted(self.doc_ids(field).collect())
    }
}

/// A sorted, deduplicated set of docids — the docid-level view on which the
/// Boolean connectives operate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocSet {
    ids: Vec<DocId>,
}

impl DocSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from sorted, deduplicated ids.
    ///
    /// # Panics
    /// Debug builds panic if `ids` is not strictly increasing.
    pub fn from_sorted(ids: Vec<DocId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        Self { ids }
    }

    /// Builds from arbitrary ids (sorts and dedups).
    ///
    /// This is also the k-way union: hand it `k` ascending sets back to
    /// back. The stable sort is a natural merge sort — it finds the runs
    /// and merges them in balanced order, `O(n log k)` — where folding a
    /// two-way union re-copies the accumulated result once per operand.
    pub fn from_unsorted(mut ids: Vec<DocId>) -> Self {
        ids.sort();
        ids.dedup();
        Self { ids }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Sorted ids.
    pub fn ids(&self) -> &[DocId] {
        &self.ids
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: DocId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Set intersection by linear merge.
    pub fn intersect(&self, other: &DocSet) -> DocSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        while i < self.ids.len() && j < other.ids.len() {
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.ids[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        DocSet::from_sorted(out)
    }

    /// Set difference `self \ other` by linear merge.
    pub fn difference(&self, other: &DocSet) -> DocSet {
        let (mut i, mut j) = (0, 0);
        let mut out = Vec::with_capacity(self.len());
        while i < self.ids.len() {
            if j >= other.ids.len() {
                out.extend_from_slice(&self.ids[i..]);
                break;
            }
            match self.ids[i].cmp(&other.ids[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.ids[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        DocSet::from_sorted(out)
    }
}

/// The `(doc, field, value)` a posting's position counts within.
fn value_key(p: &Posting) -> (DocId, FieldId, u16) {
    (p.doc, p.field, p.value_idx)
}

/// Walks two inverted lists in step and calls `on_run` with each pair of
/// position runs that share a `(doc, field, value)` within `field`. Each
/// cursor steps over the postings outside `field` as it advances, so the
/// walk compares what a filtered copy of each list would hold without
/// making one.
fn for_each_shared_value<'a>(
    a: &'a PostingList,
    b: &'a PostingList,
    field: Option<FieldId>,
    mut on_run: impl FnMut(&'a [Posting], &'a [Posting]),
) {
    let (a, b) = (a.postings(), b.postings());
    // The first index at or after `from` whose posting is in `field`.
    let next_in_field = |list: &[Posting], from: usize| {
        from + list[from..].iter().take_while(|p| !p.is_in(field)).count()
    };
    let (mut i, mut j) = (next_in_field(a, 0), next_in_field(b, 0));
    while i < a.len() && j < b.len() {
        let key = value_key(&a[i]);
        match key.cmp(&value_key(&b[j])) {
            std::cmp::Ordering::Less => i = next_in_field(a, i + 1),
            std::cmp::Ordering::Greater => j = next_in_field(b, j + 1),
            std::cmp::Ordering::Equal => {
                let i_end = i + a[i..].iter().take_while(|p| value_key(p) == key).count();
                let j_end = j + b[j..].iter().take_while(|p| value_key(p) == key).count();
                on_run(&a[i..i_end], &b[j..j_end]);
                i = next_in_field(a, i_end);
                j = next_in_field(b, j_end);
            }
        }
    }
}

/// Positional join used for proximity search.
///
/// Returns the docids in which some posting of `a` and some posting of `b`
/// occur in the *same field value* of the same document, within `field`
/// (`None`: any field), with `pos(b) - pos(a)` in `[min_gap, max_gap]`. For
/// `near10`, use `[-10, 10]`.
pub fn positional_join(
    a: &PostingList,
    b: &PostingList,
    field: Option<FieldId>,
    min_gap: i64,
    max_gap: i64,
) -> DocSet {
    let mut out = Vec::new();
    for_each_shared_value(a, b, field, |xs, ys| {
        let doc = xs[0].doc;
        let near = |x: &Posting, y: &Posting| {
            let gap = i64::from(y.pos) - i64::from(x.pos);
            gap >= min_gap && gap <= max_gap
        };
        if out.last() != Some(&doc) && xs.iter().any(|x| ys.iter().any(|y| near(x, y))) {
            out.push(doc);
        }
    });
    DocSet::from_sorted(out)
}

/// One step of phrase matching: the postings of `next` that directly follow
/// (gap exactly 1, same doc/field/value, within `field`) some posting of
/// `carrier`.
pub fn phrase_step(
    carrier: &PostingList,
    next: &PostingList,
    field: Option<FieldId>,
) -> PostingList {
    let mut out = Vec::new();
    for_each_shared_value(carrier, next, field, |xs, ys| {
        out.extend(
            ys.iter()
                .filter(|y| xs.iter().any(|x| x.pos + 1 == y.pos))
                .copied(),
        );
    });
    PostingList::from_sorted(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(ids: &[u32]) -> DocSet {
        DocSet::from_sorted(ids.iter().map(|&i| DocId(i)).collect())
    }

    fn union(sets: &[&DocSet]) -> DocSet {
        DocSet::from_unsorted(sets.iter().flat_map(|s| s.ids()).copied().collect())
    }

    #[test]
    fn union_of_many_overlapping_sets() {
        // 70 sets (an M-sized OR package): set k holds the multiples
        // of k below 500, so every id is shared by several of them.
        let sets: Vec<DocSet> = (1..=70u32)
            .map(|k| ds(&(0..500).filter(|i| i % k == 0).collect::<Vec<_>>()))
            .collect();
        let merged = union(&sets.iter().collect::<Vec<_>>());
        assert_eq!(merged, ds(&(0..500).collect::<Vec<_>>()));
        let sparse = union(&sets[49..].iter().collect::<Vec<_>>());
        let expect: Vec<u32> = (0..500).filter(|i| (50..=70).any(|k| i % k == 0)).collect();
        assert_eq!(sparse, ds(&expect));
    }

    #[test]
    fn intersect_union_difference() {
        let a = ds(&[1, 3, 5, 7]);
        let b = ds(&[3, 4, 5, 8]);
        assert_eq!(a.intersect(&b), ds(&[3, 5]));
        assert_eq!(union(&[&a, &b]), ds(&[1, 3, 4, 5, 7, 8]));
        assert_eq!(a.difference(&b), ds(&[1, 7]));
        assert_eq!(b.difference(&a), ds(&[4, 8]));
    }

    #[test]
    fn ops_with_empty() {
        let a = ds(&[1, 2]);
        let e = DocSet::new();
        assert_eq!(a.intersect(&e), e);
        assert_eq!(union(&[&a, &e]), a);
        assert_eq!(union(&[&e, &a]), a);
        assert_eq!(union(&[&e, &e]), e);
        assert_eq!(union(&[]), e);
        assert_eq!(union(&[&a]), a);
        assert_eq!(a.difference(&e), a);
        assert_eq!(e.difference(&a), e);
    }

    #[test]
    fn from_unsorted_dedups() {
        let s = DocSet::from_unsorted(vec![DocId(5), DocId(1), DocId(5), DocId(3)]);
        assert_eq!(s, ds(&[1, 3, 5]));
    }

    #[test]
    fn contains_binary_search() {
        let a = ds(&[2, 4, 6]);
        assert!(a.contains(DocId(4)));
        assert!(!a.contains(DocId(5)));
    }

    fn pl(entries: &[(u32, u16, u16, u32)]) -> PostingList {
        PostingList::from_sorted(
            entries
                .iter()
                .map(|&(d, f, v, p)| Posting {
                    doc: DocId(d),
                    field: FieldId(f),
                    value_idx: v,
                    pos: p,
                })
                .collect(),
        )
    }

    #[test]
    fn posting_list_docs_dedup() {
        let l = pl(&[(1, 0, 0, 0), (1, 0, 0, 4), (2, 1, 0, 1)]);
        assert_eq!(l.len(), 3);
        assert_eq!(l.doc_ids(None).count(), 2);
        assert_eq!(l.docs(None), ds(&[1, 2]));
    }

    #[test]
    fn docs_restricted_to_a_field() {
        let l = pl(&[
            (1, 0, 0, 0),
            (1, 1, 0, 0),
            (2, 0, 0, 3),
            (2, 0, 1, 0),
            (4, 1, 0, 2),
        ]);
        assert_eq!(l.docs(Some(FieldId(0))), ds(&[1, 2]));
        assert_eq!(l.docs(Some(FieldId(1))), ds(&[1, 4]));
        assert_eq!(l.docs(Some(FieldId(2))), ds(&[]));
        assert_eq!(l.docs(None), ds(&[1, 2, 4]));
    }

    #[test]
    fn phrase_positional_join() {
        // doc1: "belief update" in field0 value0; doc2 has the words apart.
        let belief = pl(&[(1, 0, 0, 0), (2, 0, 0, 0)]);
        let update = pl(&[(1, 0, 0, 1), (2, 0, 0, 5)]);
        let adjacent = positional_join(&belief, &update, None, 1, 1);
        assert_eq!(adjacent, ds(&[1]));
        assert_eq!(phrase_step(&belief, &update, None), pl(&[(1, 0, 0, 1)]));
        // near5 (either order): doc2's gap of 5 qualifies.
        let near5 = positional_join(&belief, &update, None, -5, 5);
        assert_eq!(near5, ds(&[1, 2]));
    }

    #[test]
    fn positional_ops_restrict_by_field_inline() {
        // doc1 has the pair adjacent in field 0, doc2 in field 1.
        let a = pl(&[(1, 0, 0, 0), (2, 1, 0, 4)]);
        let b = pl(&[(1, 0, 0, 1), (2, 1, 0, 5)]);
        assert_eq!(positional_join(&a, &b, None, 1, 1), ds(&[1, 2]));
        assert_eq!(positional_join(&a, &b, Some(FieldId(0)), 1, 1), ds(&[1]));
        assert_eq!(positional_join(&a, &b, Some(FieldId(1)), 1, 1), ds(&[2]));
        assert_eq!(positional_join(&a, &b, Some(FieldId(2)), 1, 1), ds(&[]));
        assert_eq!(phrase_step(&a, &b, Some(FieldId(1))), pl(&[(2, 1, 0, 5)]));
        assert!(phrase_step(&a, &b, Some(FieldId(2))).is_empty());
    }

    #[test]
    fn positional_join_requires_same_value() {
        // Words adjacent in positions but in *different* values of a
        // multi-valued field must not match as a phrase.
        let a = pl(&[(1, 0, 0, 0)]);
        let b = pl(&[(1, 0, 1, 1)]);
        assert!(positional_join(&a, &b, None, 1, 1).is_empty());
    }

    #[test]
    fn positional_join_multiple_runs() {
        let a = pl(&[(1, 0, 0, 0), (3, 0, 0, 2), (3, 0, 0, 9)]);
        let b = pl(&[(1, 0, 0, 7), (3, 0, 0, 3)]);
        assert_eq!(positional_join(&a, &b, None, 1, 1), ds(&[3]));
    }
}
