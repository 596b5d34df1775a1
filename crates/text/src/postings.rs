//! Per-(word, field) inverted lists and the sorted merges that run on them.
//!
//! In an inverted index (paper, Section 2.1), each word is associated with an
//! inverted list of *postings* recording the docids of documents in which the
//! word appears; a posting may also carry the field and the word position.
//! A word's list is one [`FieldList`] per field it occurs in: a head of
//! ascending distinct docids, which is all a Boolean connective reads, and a
//! side array of positions that only phrase and proximity search touch.
//! Lists are sorted, so every operation is a merge at most linear in its
//! inputs — the assumption under which the paper's processing cost is
//! proportional to the *sum of the lengths of the inverted lists processed*
//! (constant `c_p`).

use std::borrow::Cow;

use crate::doc::{DocId, FieldId};

/// One occurrence of a word in a field of a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Occurrence {
    /// Index of the field value within the (multi-valued) field.
    pub value_idx: u32,
    /// Word position within that field value.
    pub pos: u32,
}

/// The inverted list of one word in one field: the documents holding the
/// word there and, per document, its occurrences in `(value_idx, pos)`
/// order. The ordering is maintained by construction (documents are indexed
/// in docid order) and checked in debug builds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldList {
    field: FieldId,
    /// Ascending, distinct.
    docs: Vec<DocId>,
    /// `starts[i]` is where `docs[i]`'s occurrences begin in `occs`.
    starts: Vec<u32>,
    occs: Vec<Occurrence>,
}

impl FieldList {
    /// An empty list for `field`, with room for `docs` documents and `occs`
    /// occurrences.
    pub(crate) fn with_capacity(field: FieldId, docs: usize, occs: usize) -> Self {
        Self {
            field,
            docs: Vec::with_capacity(docs),
            starts: Vec::with_capacity(docs),
            occs: Vec::with_capacity(occs),
        }
    }

    /// The field this list covers.
    pub fn field(&self) -> FieldId {
        self.field
    }

    /// The documents with the word in this field, ascending — the field's
    /// document frequency is this slice's length.
    pub fn docs(&self) -> &[DocId] {
        &self.docs
    }

    /// Number of postings (occurrences) in this field.
    pub fn len(&self) -> usize {
        self.occs.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.occs.is_empty()
    }

    /// The occurrences within `docs()[i]`, sorted.
    pub(crate) fn occurrences(&self, i: usize) -> &[Occurrence] {
        let end = self
            .starts
            .get(i + 1)
            .map_or(self.occs.len(), |&e| e as usize);
        &self.occs[self.starts[i] as usize..end]
    }

    /// Every posting, flat: `(doc, occurrence)` ascending.
    pub fn postings(&self) -> impl Iterator<Item = (DocId, Occurrence)> + '_ {
        (0..self.docs.len())
            .flat_map(move |i| self.occurrences(i).iter().map(move |&o| (self.docs[i], o)))
    }

    /// Appends an occurrence, which must sort at or after the current tail.
    pub(crate) fn push(&mut self, doc: DocId, occ: Occurrence) {
        let tail = self.docs.last().zip(self.occs.last());
        debug_assert!(tail.is_none_or(|(&d, &o)| (d, o) <= (doc, occ)));
        if self.docs.last() != Some(&doc) {
            let start = u32::try_from(self.occs.len()).expect("under 2^32 postings a list");
            self.docs.push(doc);
            self.starts.push(start);
        }
        self.occs.push(occ);
    }
}

/// A word's inverted list: its field lists, ascending by field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    fields: Vec<FieldList>,
}

impl PostingList {
    /// Appends a posting, which must sort at or after the tail of its
    /// field's list.
    pub(crate) fn push(&mut self, doc: DocId, field: FieldId, occ: Occurrence) {
        let at = match self.fields.iter().position(|l| l.field >= field) {
            Some(at) if self.fields[at].field == field => at,
            at => {
                let at = at.unwrap_or(self.fields.len());
                // A word has a field or two: no room for four up front.
                self.fields.reserve_exact(1);
                self.fields
                    .insert(at, FieldList::with_capacity(field, 0, 0));
                at
            }
        };
        self.fields[at].push(doc, occ);
    }

    /// This list dealt out by `route` (docid → `(part, docid there)`) into
    /// `n` parts, as [`Collection::split`](crate::index::Collection::split)
    /// deals it: each part's lists allocated at their length, and each
    /// document's occurrences copied whole.
    pub(crate) fn deal(&self, route: &[(usize, DocId)], n: usize) -> Vec<PostingList> {
        let mut parts = vec![PostingList::default(); n];
        for list in &self.fields {
            let mut sizes = vec![(0, 0); n];
            for (i, d) in list.docs.iter().enumerate() {
                let size = &mut sizes[route[d.0 as usize].0];
                *size = (size.0 + 1, size.1 + list.occurrences(i).len());
            }
            let mut dealt: Vec<FieldList> = sizes
                .iter()
                .map(|&(docs, occs)| FieldList::with_capacity(list.field, docs, occs))
                .collect();
            for (i, d) in list.docs.iter().enumerate() {
                let (at, local) = route[d.0 as usize];
                let part = &mut dealt[at];
                // No longer than `list`, whose starts are `u32`.
                part.starts.push(part.occs.len() as u32);
                part.docs.push(local);
                part.occs.extend_from_slice(list.occurrences(i));
            }
            for (part, l) in parts.iter_mut().zip(dealt).filter(|(_, l)| !l.is_empty()) {
                part.fields.reserve_exact(1);
                part.fields.push(l);
            }
        }
        parts
    }

    /// Number of postings across all fields: the list *length* the cost
    /// model charges for, whatever field a term is restricted to.
    pub fn len(&self) -> usize {
        self.fields.iter().map(FieldList::len).sum()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// The field lists a term's restriction admits: all of them for `None`,
    /// at most one for a field.
    pub fn fields(&self, field: Option<FieldId>) -> &[FieldList] {
        match field {
            None => &self.fields,
            Some(f) => match self.fields.iter().position(|l| l.field == f) {
                Some(at) => &self.fields[at..=at],
                None => &[],
            },
        }
    }
}

/// A sorted, deduplicated set of docids — the answer of an evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocSet {
    ids: Vec<DocId>,
}

impl DocSet {
    /// Builds from sorted, deduplicated ids.
    ///
    /// # Panics
    /// Debug builds panic if `ids` is not strictly increasing.
    pub(crate) fn from_sorted(ids: Vec<DocId>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        Self { ids }
    }

    /// Builds from arbitrary ids (sorts and dedups).
    ///
    /// This is also the k-way union: hand it `k` ascending sets back to
    /// back. The stable sort is a natural merge sort — it finds the runs
    /// and merges them in balanced order, `O(n log k)` — where folding a
    /// two-way union re-copies the accumulated result once per operand.
    pub(crate) fn from_unsorted(mut ids: Vec<DocId>) -> Self {
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

    /// The sorted ids, by value.
    pub(crate) fn into_ids(self) -> Vec<DocId> {
        self.ids
    }
}

/// How many times longer one ascending list must be than the other before
/// their intersection gallops through it instead of stepping. Below this a
/// search per element loses to the plain merge; it is a property of the
/// two loops, not of a workload, so nothing sets it.
const GALLOP_RATIO: usize = 16;

/// Calls `on_shared(i, j)` for every `a[i] == b[j]` of two ascending
/// distinct lists, in ascending order.
pub(crate) fn for_each_shared(a: &[DocId], b: &[DocId], mut on_shared: impl FnMut(usize, usize)) {
    if a.len() * GALLOP_RATIO <= b.len() {
        gallop(a, b, on_shared);
    } else if b.len() * GALLOP_RATIO <= a.len() {
        gallop(b, a, |j, i| on_shared(i, j));
    } else {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (x, y) = (a[i], b[j]);
            if x == y {
                on_shared(i, j);
            }
            // Which cursor moves is data, not a branch to mispredict.
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
    }
}

/// [`for_each_shared`] for a `short` list against a much longer one: each
/// element is sought from the previous hit.
fn gallop(short: &[DocId], long: &[DocId], mut on_shared: impl FnMut(usize, usize)) {
    let mut j = 0;
    for (i, x) in short.iter().enumerate() {
        j = seek(long, j, *x);
        match long.get(j) {
            None => return,
            Some(y) if y == x => on_shared(i, j),
            Some(_) => {}
        }
    }
}

/// The first index of ascending `long` whose docid is not below `x`, given
/// that everything before `from` is: doubling steps from there, then a
/// binary search inside the last step.
fn seek(long: &[DocId], from: usize, x: DocId) -> usize {
    let (mut j, mut step) = (from, 1);
    while j + step < long.len() && long[j + step] < x {
        j += step;
        step *= 2;
    }
    let end = (j + step + 1).min(long.len());
    j + long[j..end].partition_point(|y| *y < x)
}

/// Intersection of two ascending distinct lists.
pub(crate) fn intersect(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    for_each_shared(a, b, |i, _| out.push(a[i]));
    out
}

/// Difference `a \\ b` of two ascending distinct lists, by linear merge.
pub(crate) fn difference(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0;
    for x in a {
        while b.get(j).is_some_and(|y| y < x) {
            j += 1;
        }
        if b.get(j) != Some(x) {
            out.push(*x);
        }
    }
    out
}

/// Union of two ascending distinct lists, by linear merge.
pub(crate) fn union(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Whether `y` lies in the same field value as some occurrence of `xs`
/// with `pos(y) - pos(x)` in `[min_gap, min_gap + width]`.
fn follows(xs: &[Occurrence], y: &Occurrence, min_gap: i64, width: u64) -> bool {
    let from = i64::from(y.pos) - min_gap;
    // `gap - min_gap` as unsigned: one comparison tells both bounds.
    xs.iter()
        .any(|x| x.value_idx == y.value_idx && (from - i64::from(x.pos)).cast_unsigned() <= width)
}

/// One step of positional matching within one field: the occurrences of
/// `next` that lie in the same document and field value as some occurrence
/// of `carrier`, with `pos(next) - pos(carrier)` in `[min_gap, max_gap]` —
/// `[1, 1]` for the next word of a phrase, `[-10, 10]` for `near10`. The
/// lists are intersected on their docids first; positions are compared
/// only inside the documents both hold.
pub(crate) fn positional_step(
    carrier: &FieldList,
    next: &FieldList,
    (min_gap, max_gap): (i64, i64),
) -> FieldList {
    let mut out = FieldList::with_capacity(next.field, 0, 0);
    debug_assert!(min_gap <= max_gap);
    let width = (max_gap - min_gap).cast_unsigned();
    for_each_shared(&carrier.docs, &next.docs, |i, j| {
        let xs = carrier.occurrences(i);
        for y in next.occurrences(j) {
            if follows(xs, y, min_gap, width) {
                out.push(next.docs[j], *y);
            }
        }
    });
    out
}

/// A positional term listed whole: `chain` is one field's list of each word
/// in turn, and every [`positional_step`] carries the occurrences of the
/// *last* matched word forward.
pub(crate) fn positional_list<'a>(chain: &[&'a FieldList], gaps: (i64, i64)) -> Cow<'a, FieldList> {
    let (first, rest) = chain.split_first().expect("a chain has a first word");
    rest.iter().fold(Cow::Borrowed(*first), |carrier, next| {
        Cow::Owned(positional_step(&carrier, next, gaps))
    })
}

/// Appends to `out` the documents of ascending `cands` in which `chain`
/// matches. Candidates [`GALLOP_RATIO`] times fewer than the chain's
/// shortest head are verified one by one; against anything longer the term
/// is listed whole and intersected — the same two loops, at the same
/// sizes, as [`for_each_shared`]'s.
pub(crate) fn positional_within(
    chain: &[&FieldList],
    gaps: (i64, i64),
    cands: &[DocId],
    out: &mut Vec<DocId>,
) {
    let shortest = chain.iter().map(|l| l.docs.len()).min().unwrap_or(0);
    if cands.len() * GALLOP_RATIO <= shortest {
        out.extend(positional_at(chain, gaps, cands));
    } else {
        let listed = positional_list(chain, gaps);
        for_each_shared(cands, &listed.docs, |i, _| out.push(cands[i]));
    }
}

/// Whether `chain` matches anywhere: the documents of its shortest head are
/// verified until the first hit.
pub(crate) fn positional_any(chain: &[&FieldList], gaps: (i64, i64)) -> bool {
    let shortest = chain.iter().min_by_key(|l| l.docs.len());
    shortest.is_some_and(|l| positional_at(chain, gaps, &l.docs).next().is_some())
}

/// The positional chain, document at a time: those of ascending `cands` in
/// which `chain` matches, found as the iterator is advanced. Every head is
/// sought to the candidate from where the last one left it, and positions
/// are compared only inside that document, the survivors of each word
/// carried to the next in two reused buffers.
fn positional_at<'a>(
    chain: &'a [&'a FieldList],
    (min_gap, max_gap): (i64, i64),
    cands: &'a [DocId],
) -> impl Iterator<Item = DocId> + 'a {
    let width = (max_gap - min_gap).cast_unsigned();
    let mut at = vec![0; chain.len()];
    let (mut carried, mut spare) = (Vec::new(), Vec::new());
    cands.iter().copied().filter(move |doc| {
        for (list, j) in chain.iter().zip(&mut at) {
            *j = seek(&list.docs, *j, *doc);
            if list.docs.get(*j) != Some(doc) {
                return false;
            }
        }
        carried.clear();
        carried.extend_from_slice(chain[0].occurrences(at[0]));
        for (list, &j) in chain.iter().zip(&at).skip(1) {
            spare.clear();
            let ys = list.occurrences(j).iter();
            spare.extend(ys.filter(|y| follows(&carried, y, min_gap, width)));
            std::mem::swap(&mut carried, &mut spare);
        }
        !carried.is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ids(ids: &[u32]) -> Vec<DocId> {
        ids.iter().map(|&i| DocId(i)).collect()
    }

    fn ds(v: &[u32]) -> DocSet {
        DocSet::from_sorted(ids(v))
    }

    fn union_all(sets: &[&[DocId]]) -> DocSet {
        DocSet::from_unsorted(sets.concat())
    }

    #[test]
    fn union_of_many_overlapping_sets() {
        // 70 sets (an M-sized OR package): set k holds the multiples
        // of k below 500, so every id is shared by several of them.
        let sets: Vec<Vec<DocId>> = (1..=70u32)
            .map(|k| ids(&(0..500).filter(|i| i % k == 0).collect::<Vec<_>>()))
            .collect();
        let sets: Vec<&[DocId]> = sets.iter().map(Vec::as_slice).collect();
        assert_eq!(union_all(&sets), ds(&(0..500).collect::<Vec<_>>()));
        let expect: Vec<u32> = (0..500).filter(|i| (50..=70).any(|k| i % k == 0)).collect();
        assert_eq!(union_all(&sets[49..]), ds(&expect));
    }

    #[test]
    fn intersect_union_difference() {
        let a = ids(&[1, 3, 5, 7]);
        let b = ids(&[3, 4, 5, 8]);
        assert_eq!(intersect(&a, &b), ids(&[3, 5]));
        assert_eq!(union(&a, &b), ids(&[1, 3, 4, 5, 7, 8]));
        assert_eq!(union_all(&[&a, &b]), ds(&[1, 3, 4, 5, 7, 8]));
        assert_eq!(difference(&a, &b), ids(&[1, 7]));
        assert_eq!(difference(&b, &a), ids(&[4, 8]));
    }

    #[test]
    fn ops_with_empty() {
        let a = ids(&[1, 2]);
        let e: Vec<DocId> = Vec::new();
        assert_eq!(intersect(&a, &e), e);
        assert_eq!(intersect(&e, &a), e);
        assert_eq!(union(&a, &e), a);
        assert_eq!(union(&e, &a), a);
        assert_eq!(union(&e, &e), e);
        assert_eq!(union_all(&[]), DocSet::default());
        assert_eq!(union_all(&[&a]), ds(&[1, 2]));
        assert_eq!(difference(&a, &e), a);
        assert_eq!(difference(&e, &a), e);
    }

    #[test]
    fn skewed_lists_gallop_to_the_same_answer() {
        // One side far more than GALLOP_RATIO times the other, hits at the
        // head, in the middle, at the tail, and misses between and beyond.
        let long = ids(&(0..4000).map(|i| i * 3).collect::<Vec<_>>());
        for short in [
            vec![0],
            vec![11_997],
            vec![1, 2, 4],
            vec![0, 3, 6, 5_999, 6_000, 11_997, 20_000],
            vec![12_000, 12_001],
            vec![],
        ] {
            let short = ids(&short);
            let want: Vec<DocId> = short
                .iter()
                .filter(|d| d.0 % 3 == 0 && d.0 < 12_000)
                .copied()
                .collect();
            assert_eq!(intersect(&short, &long), want);
            assert_eq!(intersect(&long, &short), want);
            let mut pairs = Vec::new();
            for_each_shared(&long, &short, |i, j| pairs.push((long[i], short[j])));
            assert_eq!(pairs, want.iter().map(|&d| (d, d)).collect::<Vec<_>>());
            let rest: Vec<DocId> = short
                .iter()
                .filter(|d| !want.contains(d))
                .copied()
                .collect();
            assert_eq!(difference(&short, &long), rest);
            assert_eq!(difference(&long, &short).len(), long.len() - want.len());
        }
    }

    #[test]
    fn from_unsorted_dedups() {
        let s = DocSet::from_unsorted(ids(&[5, 1, 5, 3]));
        assert_eq!(s, ds(&[1, 3, 5]));
    }

    /// A list from `(doc, field, value_idx, pos)` tuples, each field's in
    /// order.
    fn pl(entries: &[(u32, u16, u32, u32)]) -> PostingList {
        let mut list = PostingList::default();
        for &(d, f, value_idx, pos) in entries {
            list.push(DocId(d), FieldId(f), Occurrence { value_idx, pos });
        }
        list
    }

    fn docs_in(l: &PostingList, field: Option<FieldId>) -> Vec<Vec<DocId>> {
        l.fields(field).iter().map(|f| f.docs().to_vec()).collect()
    }

    #[test]
    fn field_lists_hold_distinct_docs() {
        let l = pl(&[(1, 0, 0, 0), (1, 0, 0, 4), (2, 1, 0, 1)]);
        assert_eq!(l.len(), 3);
        assert_eq!(docs_in(&l, None), [ids(&[1]), ids(&[2])]);
        let f0 = &l.fields(Some(FieldId(0)))[0];
        assert_eq!(
            f0.occurrences(0).iter().map(|o| o.pos).collect::<Vec<_>>(),
            [0, 4]
        );
    }

    #[test]
    fn fields_restricted_and_kept_ascending() {
        // Field 1 is pushed before field 0 exists.
        let l = pl(&[
            (1, 1, 0, 0),
            (1, 0, 0, 0),
            (2, 0, 0, 3),
            (2, 0, 1, 0),
            (4, 1, 0, 2),
        ]);
        assert_eq!(docs_in(&l, Some(FieldId(0))), [ids(&[1, 2])]);
        assert_eq!(docs_in(&l, Some(FieldId(1))), [ids(&[1, 4])]);
        assert!(l.fields(Some(FieldId(2))).is_empty());
        assert_eq!(docs_in(&l, None), [ids(&[1, 2]), ids(&[1, 4])]);
        assert_eq!(l.fields(None)[0].occurrences(1).len(), 2);
    }

    /// The step in field `f`, if both words occur there.
    fn step(a: &PostingList, b: &PostingList, f: u16, gaps: (i64, i64)) -> Vec<DocId> {
        let f = Some(FieldId(f));
        match (a.fields(f), b.fields(f)) {
            ([a], [b]) => positional_step(a, b, gaps).docs().to_vec(),
            _ => Vec::new(),
        }
    }

    #[test]
    fn phrase_and_proximity_steps() {
        // doc1: "belief update" in field0 value0; doc2 has the words apart.
        let belief = pl(&[(1, 0, 0, 0), (2, 0, 0, 0)]);
        let update = pl(&[(1, 0, 0, 1), (2, 0, 0, 5)]);
        let carried = positional_step(&belief.fields(None)[0], &update.fields(None)[0], (1, 1));
        assert_eq!(carried, pl(&[(1, 0, 0, 1)]).fields(None)[0]);
        // near5 (either order): doc2's gap of 5 qualifies.
        assert_eq!(step(&belief, &update, 0, (-5, 5)), ids(&[1, 2]));
        assert_eq!(step(&update, &belief, 0, (-5, 5)), ids(&[1, 2]));
        assert_eq!(step(&update, &belief, 0, (1, 1)), ids(&[]));
    }

    #[test]
    fn steps_stay_inside_one_field() {
        // doc2 has the pair adjacent in field 0, doc1 in field 1, and doc3
        // one word in each field at adjacent positions.
        let a = pl(&[(2, 0, 0, 0), (3, 0, 0, 0), (1, 1, 0, 4)]);
        let b = pl(&[(2, 0, 0, 1), (1, 1, 0, 5), (3, 1, 0, 1)]);
        assert_eq!(step(&a, &b, 0, (1, 1)), ids(&[2]));
        assert_eq!(step(&a, &b, 1, (1, 1)), ids(&[1]));
        assert_eq!(step(&a, &b, 2, (1, 1)), ids(&[]));
    }

    #[test]
    fn steps_require_the_same_value() {
        // Words adjacent in positions but in *different* values of a
        // multi-valued field must not match as a phrase.
        let a = pl(&[(1, 0, 0, 0)]);
        let b = pl(&[(1, 0, 1, 1)]);
        assert!(step(&a, &b, 0, (1, 1)).is_empty());
        assert!(step(&a, &b, 0, (-9, 9)).is_empty());
    }

    #[test]
    fn steps_over_multiple_runs() {
        let a = pl(&[(1, 0, 0, 0), (3, 0, 0, 2), (3, 0, 0, 9)]);
        let b = pl(&[(1, 0, 0, 7), (3, 0, 0, 3), (3, 0, 0, 10), (3, 0, 0, 12)]);
        let carried = positional_step(&a.fields(None)[0], &b.fields(None)[0], (1, 1));
        assert_eq!(carried, pl(&[(3, 0, 0, 3), (3, 0, 0, 10)]).fields(None)[0]);
    }

    /// A field-0 list of `docs` documents out of `span`, a few occurrences
    /// each over a few values, from a fixed generator.
    fn generated(seed: u64, docs: u32, span: u32) -> PostingList {
        let mut x = seed;
        let mut draw = |n: u32| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % u64::from(n)) as u32
        };
        let mut entries = BTreeSet::new();
        for _ in 0..docs {
            let doc = draw(span);
            for _ in 0..=draw(3) {
                entries.insert((doc, 0, draw(2), draw(6)));
            }
        }
        pl(&entries.into_iter().collect::<Vec<_>>())
    }

    fn matches_at(chain: &[&FieldList], gaps: (i64, i64), cands: &[DocId]) -> Vec<DocId> {
        positional_at(chain, gaps, cands).collect()
    }

    #[test]
    fn candidate_kernel_over_the_whole_head_is_the_merge() {
        let mut hits = 0;
        for seed in 0..40u64 {
            let lists = [
                generated(seed, 60, 90),
                generated(seed + 100, 90, 90),
                generated(seed + 200, 40, 90),
            ];
            let [a, b, c] = [0, 1, 2].map(|i| &lists[i].fields(None)[0]);
            for gaps in [(1, 1), (-2, 2), (0, 0)] {
                let step = positional_step(a, b, gaps);
                assert_eq!(
                    matches_at(&[a, b], gaps, a.docs()),
                    step.docs(),
                    "{seed} {gaps:?}"
                );
                assert_eq!(
                    matches_at(&[a, b], gaps, b.docs()),
                    step.docs(),
                    "{seed} {gaps:?}"
                );
                let chain = [a, b, c];
                let listed = positional_list(&chain, gaps);
                assert_eq!(listed.docs(), positional_step(&step, c, gaps).docs());
                assert_eq!(
                    matches_at(&chain, gaps, c.docs()),
                    listed.docs(),
                    "{seed} {gaps:?}"
                );
                assert_eq!(positional_any(&chain, gaps), !listed.is_empty());
                hits += listed.docs().len();
                // Any candidates, on either side of the ratio, get the
                // listed answer restricted to them.
                let every: Vec<DocId> = (0..95).map(DocId).collect();
                for cands in [&every[..], &every[40..42], &every[88..], &[]] {
                    let mut got = Vec::new();
                    positional_within(&chain, gaps, cands, &mut got);
                    assert_eq!(got, intersect(cands, listed.docs()));
                    assert_eq!(matches_at(&chain, gaps, cands), got);
                }
            }
        }
        assert!(hits > 100, "three-word chains do match: {hits}");
    }

    #[test]
    fn candidate_kernel_is_lazy_and_survives_the_end_of_a_head() {
        let a = pl(&[(1, 0, 0, 0), (4, 0, 0, 0), (9, 0, 0, 0)]);
        let b = pl(&[(1, 0, 0, 1), (4, 0, 0, 1), (9, 0, 0, 5)]);
        let chain = [&a.fields(None)[0], &b.fields(None)[0]];
        let cands = ids(&[0, 1, 2, 4, 9, 12, 13]);
        // An emptiness probe takes the first match and looks no further.
        assert_eq!(positional_at(&chain, (1, 1), &cands).next(), Some(DocId(1)));
        assert_eq!(matches_at(&chain, (1, 1), &cands), ids(&[1, 4]));
        assert!(positional_any(&chain, (1, 1)));
        assert!(!positional_any(&chain, (2, 3)));
    }
}
