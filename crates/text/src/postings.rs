//! Per-(word, field) inverted lists and the kernels that run on them.
//!
//! In an inverted index (paper, Section 2.1), each word is associated with an
//! inverted list of *postings* recording the docids of documents in which the
//! word appears; a posting may also carry the field and the word position.
//! A word's list is one [`FieldList`] per field it occurs in: a head of
//! ascending distinct docids, which is all a Boolean connective reads, and
//! positions packed as narrow as the list allows, which only phrase and
//! proximity search decode. Lists are sorted, so every operation is at most
//! linear in its inputs — the assumption under which the paper's processing
//! cost is proportional to the *sum of the lengths of the inverted lists
//! processed* (constant `c_p`), whatever their bytes and whichever of the
//! three loops below walks them.

use std::borrow::Cow;
use std::ops::Range;

use crate::doc::{DocId, FieldId};

/// One occurrence of a word in a field of a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Occurrence {
    /// Index of the field value within the (multi-valued) field.
    pub value_idx: u32,
    /// Word position within that field value.
    pub pos: u32,
}

/// Unsigned integers packed into words, each in a lane of the narrowest of
/// 8, 16, 32 and 64 bits that holds every one of them.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Packed {
    lane: u32,
    len: usize,
    words: Vec<u64>,
}

/// The bits `x` needs.
fn width(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

impl Packed {
    /// Empty, in the lane that holds `bits`, with room for `n` values.
    fn new(bits: u32, n: usize) -> Self {
        let (lane, len) = (bits.next_power_of_two().max(8), 0);
        let words = Vec::with_capacity((n * lane as usize).div_ceil(64));
        Self { lane, len, words }
    }

    fn get(&self, i: usize) -> u64 {
        let bit = i * self.lane as usize;
        self.words[bit / 64] >> (bit % 64) & u64::MAX >> (64 - self.lane)
    }

    /// Appends `x`, widening the lane if it does not hold `x`.
    fn push(&mut self, x: u64) {
        self.widen(width(x), |x, _| x);
        self.put(x);
    }

    /// Appends `x`, which the lane holds.
    fn put(&mut self, x: u64) {
        let bit = self.len * self.lane as usize;
        if bit.is_multiple_of(64) {
            self.words.push(0);
        }
        self.words[bit / 64] |= x << (bit % 64);
        self.len += 1;
    }

    /// Re-lays each value `x` as `relay(x, lane)` in a lane holding `bits`.
    fn widen(&mut self, bits: u32, relay: impl Fn(u64, u32) -> u64) {
        if bits > self.lane {
            let mut wide = Packed::new(bits, self.words.capacity() * 64 / self.lane as usize);
            (0..self.len).for_each(|i| wide.push(relay(self.get(i), wide.lane)));
            *self = wide;
        }
    }
}

/// `occ` in a `lane`-bit lane: `value_idx` in the high half, `pos` below.
fn encode(occ: Occurrence, lane: u32) -> u64 {
    u64::from(occ.value_idx) << (lane / 2) | u64::from(occ.pos)
}

fn decode(x: u64, lane: u32) -> Occurrence {
    let value_idx = (x >> (lane / 2)) as u32;
    let pos = (x & u64::MAX >> (64 - lane / 2)) as u32;
    Occurrence { value_idx, pos }
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
    /// `starts[i]` is where `docs[i]`'s occurrences begin in `occs`, kept
    /// only once some document holds two: until then it is `i`.
    starts: Packed,
    /// Each occurrence [`encode`]d in a lane whose halves hold every
    /// `value_idx` and `pos` of the list.
    occs: Packed,
}

impl FieldList {
    /// An empty list for `field`.
    pub(crate) fn new(field: FieldId) -> Self {
        Self {
            field,
            docs: Vec::new(),
            starts: Packed::new(0, 0),
            occs: Packed::new(0, 0),
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
        self.occs.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.occs.len == 0
    }

    /// Where `docs()[i]`'s occurrences lie in `occs`.
    fn run(&self, i: usize) -> Range<usize> {
        let (starts, n) = (&self.starts, self.starts.len);
        match i + 1 < n {
            true => starts.get(i) as usize..starts.get(i + 1) as usize,
            false if n > 0 => starts.get(i) as usize..self.len(),
            false => i..i + 1,
        }
    }

    /// The occurrences within `docs()[i]`, sorted.
    #[inline]
    pub(crate) fn occurrences(&self, i: usize) -> impl Iterator<Item = Occurrence> + '_ {
        self.decoded(self.run(i))
    }

    /// The occurrences at `run` of `occs`, decoded.
    fn decoded(&self, run: Range<usize>) -> impl Iterator<Item = Occurrence> + '_ {
        run.map(|k| self.decode_at(k))
    }

    fn decode_at(&self, k: usize) -> Occurrence {
        decode(self.occs.get(k), self.occs.lane)
    }

    /// Every posting, flat: `(doc, occurrence)` ascending.
    pub fn postings(&self) -> impl Iterator<Item = (DocId, Occurrence)> + '_ {
        (0..self.docs.len()).flat_map(move |i| self.occurrences(i).map(move |o| (self.docs[i], o)))
    }

    /// Appends an occurrence, which must sort at or after the current tail,
    /// widening the lanes it does not fit.
    pub(crate) fn push(&mut self, doc: DocId, occ: Occurrence) {
        let tail = |d| (d, decode(self.occs.get(self.len() - 1), self.occs.lane));
        debug_assert!(self.docs.last().is_none_or(|&d| tail(d) <= (doc, occ)));
        if self.docs.last() != Some(&doc) {
            if self.starts.len > 0 {
                self.starts.push(self.len() as u64);
            }
            self.docs.push(doc);
        } else if self.starts.len == 0 {
            // The tail document's second occurrence: each before held one.
            self.starts = Packed::new(0, self.docs.capacity());
            (0..self.docs.len() as u64).for_each(|i| self.starts.push(i));
        }
        let need = 2 * width(u64::from(occ.value_idx.max(occ.pos)));
        let (from, occs) = (self.occs.lane, &mut self.occs);
        occs.widen(need, |x, to| encode(decode(x, from), to));
        occs.push(encode(occ, occs.lane));
    }

    /// This list dealt out by `route` into `n` parts, each at exact capacity
    /// and equal to its documents' occurrences pushed afresh. One pass finds
    /// every part's lanes; a second copies each document's codes as they
    /// are where its part's lane is this list's, and re-lays them where it
    /// is narrower.
    fn deal(&self, route: &[(usize, DocId)], n: usize) -> Vec<FieldList> {
        #[derive(Clone, Default)]
        struct Tally {
            docs: usize,
            occs: usize,
            last_start: usize,
            starts: bool,
            codes: u64,
        }
        let mut tally = vec![Tally::default(); n];
        for (i, d) in self.docs.iter().enumerate() {
            let (run, t) = (self.run(i), &mut tally[route[d.0 as usize].0]);
            (t.docs, t.last_start) = (t.docs + 1, t.occs);
            t.occs += run.len();
            t.starts |= run.len() > 1;
            // Or-ed codes need the bits of their widest value and position.
            t.codes = run.fold(t.codes, |codes, k| codes | self.occs.get(k));
        }
        let mut parts: Vec<FieldList> = (tally.iter())
            .map(|t| {
                let widest = decode(t.codes, self.occs.lane);
                let starts = match t.starts {
                    true => Packed::new(width(t.last_start as u64), t.docs),
                    false => Packed::new(0, 0),
                };
                let need = 2 * width(u64::from(widest.value_idx.max(widest.pos)));
                FieldList {
                    field: self.field,
                    docs: Vec::with_capacity(t.docs),
                    starts,
                    occs: Packed::new(need, t.occs),
                }
            })
            .collect();
        let from = self.occs.lane;
        for (i, d) in self.docs.iter().enumerate() {
            let (at, local) = route[d.0 as usize];
            let part = &mut parts[at];
            if tally[at].starts {
                part.starts.put(part.occs.len as u64);
            }
            part.docs.push(local);
            let to = part.occs.lane;
            for x in self.run(i).map(|k| self.occs.get(k)) {
                part.occs.put(if to == from {
                    x
                } else {
                    encode(decode(x, from), to)
                });
            }
        }
        parts
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
                self.fields.insert(at, FieldList::new(field));
                at
            }
        };
        self.fields[at].push(doc, occ);
    }

    /// This list dealt out by `route` (docid → `(part, docid there)`) into
    /// `n` parts, as [`Collection::split`](crate::index::Collection::split)
    /// deals it: each part's lists equal to its documents indexed afresh,
    /// and at exact capacity.
    pub(crate) fn deal(&self, route: &[(usize, DocId)], n: usize) -> Vec<PostingList> {
        let mut parts = vec![PostingList::default(); n];
        for list in &self.fields {
            for (part, dealt) in parts.iter_mut().zip(list.deal(route, n)) {
                if !dealt.docs.is_empty() {
                    part.fields.reserve_exact(1);
                    part.fields.push(dealt);
                }
            }
        }
        parts
    }

    pub(crate) fn shrink_to_fit(&mut self) {
        for l in &mut self.fields {
            l.docs.shrink_to_fit();
            l.starts.words.shrink_to_fit();
            l.occs.words.shrink_to_fit();
        }
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
pub(crate) const GALLOP_RATIO: usize = 16;

/// How many bitmap words a marking may span per list element it walks:
/// marking is taken where `words <= elements * MARK_WORDS_PER_ELEMENT`. A
/// merge step is a load-compare-advance chain, about 3.6 ns an element on
/// a 2-core Xeon VM whatever the span; marking is a store an element that
/// waits on no other, about 0.7 ns, plus a clear and a scan at about 1 ns a
/// word. Timed on pairs of random lists of 100 to 5 600 docids over spans
/// of 60 to 25 000 words, the two loops cross between 1.6 and 2.2 words an
/// element. Like [`GALLOP_RATIO`] it is a property of the loops, so nothing
/// sets it.
const MARK_WORDS_PER_ELEMENT: usize = 2;

/// Two bitmaps over one span of docids, bit `d % 64` of word
/// `d / 64 - base` standing for docid `d`: the kernels' scratch space, one
/// per evaluation. A kernel marks one list or several on each side and
/// reads off the docids both sides hold, word by word.
#[derive(Debug, Default)]
pub(crate) struct Marks {
    /// The word of docid `64 * base`.
    base: usize,
    sides: [Vec<u64>; 2],
}

impl Marks {
    /// Whether marking the docids `lo..=hi` pays against stepping through
    /// `elements` of them.
    fn pay(lo: DocId, hi: DocId, elements: usize) -> bool {
        hi.0 as usize / 64 + 1 - lo.0 as usize / 64 <= elements * MARK_WORDS_PER_ELEMENT
    }

    /// Unmarks both sides, spanning them over the docids `lo..=hi`.
    fn span(&mut self, lo: DocId, hi: DocId) {
        self.base = lo.0 as usize / 64;
        for bits in &mut self.sides {
            bits.clear();
            bits.resize(hi.0 as usize / 64 + 1 - self.base, 0);
        }
    }

    /// Marks ascending `ids`, which lie in the span, on `side`.
    fn mark(&mut self, side: usize, ids: &[DocId]) {
        // Or-ed into a register while the docids stay in one word: a store
        // per docid would wait on the last one's.
        let (bits, base) = (&mut self.sides[side], self.base);
        let Some(first) = ids.first() else { return };
        let (mut w, mut word) = (first.0 as usize / 64, 0u64);
        for d in ids {
            let at = d.0 as usize / 64;
            if at != w {
                bits[w - base] |= word;
                (w, word) = (at, 0);
            }
            word |= 1 << (d.0 % 64);
        }
        bits[w - base] |= word;
    }

    /// Calls `on_both(d, i, j)` for every docid `d` marked on both sides,
    /// ascending, where `i` and `j` count the docids each side marks below
    /// `d`: its index in the lists marked there.
    fn each_in_both(&self, mut on_both: impl FnMut(DocId, usize, usize)) {
        let (mut i, mut j) = (0, 0);
        let words = self.sides[0].iter().zip(&self.sides[1]);
        for (w, (&x, &y)) in (self.base..).zip(words) {
            let mut both = x & y;
            while both != 0 {
                let bit = both.trailing_zeros();
                let below = !(u64::MAX << bit);
                let rank = |bits: u64| (bits & below).count_ones() as usize;
                on_both(DocId((w * 64) as u32 + bit), i + rank(x), j + rank(y));
                both &= both - 1;
            }
            (i, j) = (i + x.count_ones() as usize, j + y.count_ones() as usize);
        }
    }

    /// The docids marked on side 0, ascending.
    fn ids(&self) -> Vec<DocId> {
        let bits = &self.sides[0];
        let mut out = Vec::with_capacity(bits.iter().map(|x| x.count_ones() as usize).sum());
        for (w, &x) in (self.base..).zip(bits) {
            let mut x = x;
            while x != 0 {
                out.push(DocId((w * 64) as u32 + x.trailing_zeros()));
                x &= x - 1;
            }
        }
        out
    }
}

/// The part of ascending `ids` within `lo..=hi`.
fn clip(ids: &[DocId], lo: DocId, hi: DocId) -> Range<usize> {
    ids.partition_point(|d| *d < lo)..ids.partition_point(|d| *d <= hi)
}

/// Calls `on_shared(i, j)` for every `a[i] == b[j]` of two ascending
/// distinct lists, in ascending order, by whichever of three loops the
/// lists favour: a gallop of the short one through a long one
/// [`GALLOP_RATIO`] times longer, a marking of both where they are dense in
/// the span they share, else a merge.
pub(crate) fn for_each_shared(
    a: &[DocId],
    b: &[DocId],
    marks: &mut Marks,
    mut on_shared: impl FnMut(usize, usize),
) {
    if a.len() * GALLOP_RATIO <= b.len() {
        gallop(a, b, on_shared);
    } else if b.len() * GALLOP_RATIO <= a.len() {
        gallop(b, a, |j, i| on_shared(i, j));
    } else {
        match overlap(a, b) {
            Some((lo, hi)) if Marks::pay(lo, hi, a.len() + b.len()) => {
                marked(a, b, marks, on_shared);
            }
            _ => merge(a, b, on_shared),
        }
    }
}

/// The docids two ascending lists can share: from the later first to the
/// earlier last, if that is a span.
fn overlap(a: &[DocId], b: &[DocId]) -> Option<(DocId, DocId)> {
    let (lo, hi) = (*a.first()?.max(b.first()?), *a.last()?.min(b.last()?));
    (lo <= hi).then_some((lo, hi))
}

/// [`for_each_shared`] by one sorted merge, a step an element.
fn merge(a: &[DocId], b: &[DocId], mut on_shared: impl FnMut(usize, usize)) {
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

/// [`for_each_shared`] by marking the parts of both lists inside the span
/// they share, each on its side, and reading off the docids both hold.
fn marked(a: &[DocId], b: &[DocId], marks: &mut Marks, mut on_shared: impl FnMut(usize, usize)) {
    let Some((lo, hi)) = overlap(a, b) else {
        return;
    };
    let (ra, rb) = (clip(a, lo, hi), clip(b, lo, hi));
    marks.span(lo, hi);
    marks.mark(0, &a[ra.clone()]);
    marks.mark(1, &b[rb.clone()]);
    marks.each_in_both(|_, i, j| on_shared(ra.start + i, rb.start + j));
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
pub(crate) fn intersect(a: &[DocId], b: &[DocId], marks: &mut Marks) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    for_each_shared(a, b, marks, |i, _| out.push(a[i]));
    out
}

/// Difference `a \\ b` of two ascending distinct lists: `a` between the
/// documents it shares with `b`.
pub(crate) fn difference(a: &[DocId], b: &[DocId], marks: &mut Marks) -> Vec<DocId> {
    let (mut out, mut from) = (Vec::with_capacity(a.len()), 0);
    for_each_shared(a, b, marks, |i, _| {
        out.extend_from_slice(&a[from..i]);
        from = i + 1;
    });
    out.extend_from_slice(&a[from..]);
    out
}

/// The union of ascending distinct lists: marked and read off the bitmap
/// where that pays, else laid back to back and sorted
/// ([`DocSet::from_unsorted`]), which is a copy where one list is
/// [`GALLOP_RATIO`] times longer than all the others together.
pub(crate) fn union<L: AsRef<[DocId]>>(lists: &[L], marks: &mut Marks) -> Vec<DocId> {
    let each = || lists.iter().map(AsRef::as_ref);
    let total: usize = each().map(<[DocId]>::len).sum();
    let longest = each().map(<[DocId]>::len).max().unwrap_or(0);
    let lo = each().filter_map(<[DocId]>::first).min();
    match (lo, each().filter_map(<[DocId]>::last).max()) {
        (Some(&lo), Some(&hi))
            if (total - longest) * GALLOP_RATIO > longest && Marks::pay(lo, hi, total) =>
        {
            marks.span(lo, hi);
            each().for_each(|l| marks.mark(0, l));
            marks.ids()
        }
        _ => {
            let mut ids = Vec::with_capacity(total);
            each().for_each(|l| ids.extend_from_slice(l));
            DocSet::from_unsorted(ids).into_ids()
        }
    }
}

/// The documents of ascending `a` that some list of `any` holds: a
/// conjunction with a disjunction, whose lists are marked inside `a`'s span
/// rather than merged. Lists [`GALLOP_RATIO`] times shorter than `a`
/// together, or too sparse for marks to pay, are merged and intersected.
pub(crate) fn sift<L: AsRef<[DocId]>>(a: &[DocId], any: &[L], marks: &mut Marks) -> Vec<DocId> {
    let total: usize = any.iter().map(|l| l.as_ref().len()).sum();
    match (a.first(), a.last()) {
        (Some(&lo), Some(&hi))
            if total * GALLOP_RATIO > a.len() && Marks::pay(lo, hi, a.len() + total) =>
        {
            marks.span(lo, hi);
            for l in any.iter().map(AsRef::as_ref) {
                marks.mark(0, &l[clip(l, lo, hi)]);
            }
            marks.mark(1, a);
            let mut out = Vec::with_capacity(a.len());
            marks.each_in_both(|d, _, _| out.push(d));
            out
        }
        _ => intersect(a, &union(any, marks), marks),
    }
}

/// The occurrences of `ys` that lie in the same field value as some
/// occurrence of `xs` with `pos(y) - pos(x)` in `[min_gap, max_gap]`. Both
/// runs are sorted, so the earliest `x` an ascending `y` can follow only
/// moves forward: each side is decoded once.
fn followers(
    xs: impl Iterator<Item = Occurrence>,
    ys: impl Iterator<Item = Occurrence>,
    (min_gap, max_gap): (i64, i64),
) -> impl Iterator<Item = Occurrence> {
    let mut xs = xs.peekable();
    let at = |o: &Occurrence| (o.value_idx, i64::from(o.pos));
    ys.filter(move |y| {
        let (value_idx, pos) = at(y);
        while xs.next_if(|x| at(x) < (value_idx, pos - max_gap)).is_some() {}
        xs.peek()
            .is_some_and(|x| at(x) <= (value_idx, pos - min_gap))
    })
}

/// The documents `carrier` and `next` share, each as `next`'s index of it
/// and the two lists' runs there. The pairs are gathered first and their
/// runs looked up in a pass of their own, so that no document's loads wait
/// on the branches taken for the one before.
fn shared_runs(
    carrier: &FieldList,
    next: &FieldList,
    marks: &mut Marks,
) -> Vec<(usize, Range<usize>, Range<usize>)> {
    let mut pairs = Vec::with_capacity(carrier.docs.len().min(next.docs.len()));
    for_each_shared(&carrier.docs, &next.docs, marks, |i, j| pairs.push((i, j)));
    (pairs.into_iter())
        .map(|(i, j)| (j, carrier.run(i), next.run(j)))
        .collect()
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
    gaps: (i64, i64),
    marks: &mut Marks,
) -> FieldList {
    debug_assert!(gaps.0 <= gaps.1);
    let mut out = FieldList::new(next.field);
    for (j, xs, ys) in shared_runs(carrier, next, marks) {
        for y in followers(carrier.decoded(xs), next.decoded(ys), gaps) {
            out.push(next.docs[j], y);
        }
    }
    out
}

/// A positional term listed whole: `chain` is one field's list of each word
/// in turn. Every [`positional_step`] but the last carries the occurrences
/// of the word it matched forward; the last keeps only the documents, and
/// a document whose runs each hold one occurrence is decided by one
/// comparison.
pub(crate) fn positional_list(
    chain: &[&FieldList],
    (min_gap, max_gap): (i64, i64),
    marks: &mut Marks,
) -> Vec<DocId> {
    let (first, rest) = chain.split_first().expect("a chain has a first word");
    let Some((last, between)) = rest.split_last() else {
        return first.docs.clone();
    };
    let gaps = (min_gap, max_gap);
    let carrier = between.iter().fold(Cow::Borrowed(*first), |carrier, next| {
        Cow::Owned(positional_step(&carrier, next, gaps, marks))
    });
    let runs = shared_runs(&carrier, last, marks);
    // Every shared document is written, and kept by counting it: a match
    // is data, not a branch to mispredict.
    let (mut out, mut kept) = (vec![DocId(0); runs.len()], 0);
    for (j, xs, ys) in runs {
        let matched = if xs.len() == 1 && ys.len() == 1 {
            let (x, y) = (carrier.decode_at(xs.start), last.decode_at(ys.start));
            let gap = i64::from(y.pos) - i64::from(x.pos);
            (x.value_idx == y.value_idx) & (min_gap <= gap) & (gap <= max_gap)
        } else {
            let (xs, ys) = (carrier.decoded(xs), last.decoded(ys));
            followers(xs, ys, gaps).next().is_some()
        };
        out[kept] = last.docs[j];
        kept += usize::from(matched);
    }
    out.truncate(kept);
    out
}

/// The documents of ascending `cands` in which `chain` matches. Candidates
/// [`GALLOP_RATIO`] times fewer than the chain's shortest head are verified
/// one by one; against anything longer the term is listed whole and
/// intersected — the same split, at the same sizes, as
/// [`for_each_shared`]'s between gallop and the other two loops.
pub(crate) fn positional_within(
    chain: &[&FieldList],
    gaps: (i64, i64),
    cands: &[DocId],
    marks: &mut Marks,
) -> Vec<DocId> {
    let shortest = chain.iter().map(|l| l.docs.len()).min().unwrap_or(0);
    if cands.len() * GALLOP_RATIO <= shortest {
        positional_at(chain, gaps, cands).collect()
    } else {
        intersect(cands, &positional_list(chain, gaps, marks), marks)
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
    gaps: (i64, i64),
    cands: &'a [DocId],
) -> impl Iterator<Item = DocId> + 'a {
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
        carried.extend(chain[0].occurrences(at[0]));
        for (list, &j) in chain.iter().zip(&at).skip(1) {
            spare.clear();
            spare.extend(followers(
                carried.iter().copied(),
                list.occurrences(j),
                gaps,
            ));
            std::mem::swap(&mut carried, &mut spare);
        }
        !carried.is_empty()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    // Each kernel as one evaluation hands it a bitmap: a fresh one here.
    fn intersect(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
        super::intersect(a, b, &mut Marks::default())
    }

    fn difference(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
        super::difference(a, b, &mut Marks::default())
    }

    fn union(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
        super::union(&[a, b], &mut Marks::default())
    }

    fn positional_step(carrier: &FieldList, next: &FieldList, gaps: (i64, i64)) -> FieldList {
        super::positional_step(carrier, next, gaps, &mut Marks::default())
    }

    fn positional_list(chain: &[&FieldList], gaps: (i64, i64)) -> Vec<DocId> {
        super::positional_list(chain, gaps, &mut Marks::default())
    }

    fn positional_within(
        chain: &[&FieldList],
        gaps: (i64, i64),
        cands: &[DocId],
        out: &mut Vec<DocId>,
    ) {
        out.extend(super::positional_within(
            chain,
            gaps,
            cands,
            &mut Marks::default(),
        ));
    }

    impl PostingList {
        /// Bytes this list's vectors hold allocated past their length.
        pub(crate) fn spare_capacity(&self) -> usize {
            fn spare<T>(v: &Vec<T>) -> usize {
                (v.capacity() - v.len()) * size_of::<T>()
            }
            let lists = self.fields.iter();
            spare(&self.fields)
                + lists
                    .map(|l| spare(&l.docs) + spare(&l.starts.words) + spare(&l.occs.words))
                    .sum::<usize>()
        }
    }

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
            for_each_shared(&long, &short, &mut Marks::default(), |i, j| {
                pairs.push((long[i], short[j]))
            });
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
        assert_eq!(f0.occurrences(0).map(|o| o.pos).collect::<Vec<_>>(), [0, 4]);
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
        assert_eq!(l.fields(None)[0].occurrences(1).count(), 2);
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
                assert_eq!(listed, positional_step(&step, c, gaps).docs());
                assert_eq!(
                    matches_at(&chain, gaps, c.docs()),
                    listed,
                    "{seed} {gaps:?}"
                );
                assert_eq!(positional_any(&chain, gaps), !listed.is_empty());
                hits += listed.len();
                // Any candidates, on either side of the ratio, get the
                // listed answer restricted to them.
                let every: Vec<DocId> = (0..95).map(DocId).collect();
                for cands in [&every[..], &every[40..42], &every[88..], &[]] {
                    let mut got = Vec::new();
                    positional_within(&chain, gaps, cands, &mut got);
                    assert_eq!(got, intersect(cands, &listed));
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

    /// Values at and around every lane boundary.
    const EDGES: &[u32] = &[
        0,
        1,
        15,
        16,
        255,
        256,
        65_535,
        65_536,
        u32::MAX - 1,
        u32::MAX,
    ];

    /// Sorted, distinct `(doc, occurrence)` entries: a run of small values,
    /// then a run drawn from [`EDGES`], so the lanes widen partway through.
    fn entries() -> impl Strategy<Value = Vec<(DocId, Occurrence)>> {
        let entry = (0u32..3, 0..EDGES.len(), 0..EDGES.len());
        let runs = (
            prop::collection::vec(entry.clone(), 0..30),
            prop::collection::vec(entry, 0..30),
        );
        runs.prop_map(|(small, wide)| {
            let mut doc = 0;
            let mut out = BTreeSet::new();
            let small = small
                .into_iter()
                .map(|(g, v, p)| (g, v as u32 % 16, p as u32 % 16));
            let wide = wide.into_iter().map(|(g, v, p)| (g, EDGES[v], EDGES[p]));
            for (gap, value_idx, pos) in small.chain(wide) {
                doc += gap;
                out.insert((DocId(doc), Occurrence { value_idx, pos }));
            }
            out.into_iter().collect()
        })
    }

    fn packed(field: FieldId, model: &[(DocId, Occurrence)]) -> FieldList {
        let mut list = FieldList::new(field);
        model.iter().for_each(|&(d, o)| list.push(d, o));
        list
    }

    /// The positional step read off the models: the entries of `next` with
    /// an entry of `carrier` in the same document and value, `gaps` before.
    fn model_step(
        carrier: &[(DocId, Occurrence)],
        next: &[(DocId, Occurrence)],
        (min_gap, max_gap): (i64, i64),
    ) -> Vec<(DocId, Occurrence)> {
        let follows = |&(d, y): &(DocId, Occurrence)| {
            carrier.iter().any(|&(e, x)| {
                let gap = i64::from(y.pos) - i64::from(x.pos);
                e == d && x.value_idx == y.value_idx && (min_gap..=max_gap).contains(&gap)
            })
        };
        next.iter().copied().filter(follows).collect()
    }

    fn model_docs(model: &[(DocId, Occurrence)]) -> Vec<DocId> {
        let mut docs: Vec<DocId> = model.iter().map(|&(d, _)| d).collect();
        docs.dedup();
        docs
    }

    /// `n` docids drawn from `lo..lo + span`, ascending and distinct.
    fn drawn(x: &mut u64, n: usize, lo: u32, span: u32) -> Vec<DocId> {
        let mut ids: Vec<DocId> = (0..n)
            .map(|_| {
                *x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                DocId(lo + (*x >> 33) as u32 % span)
            })
            .collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// One to three occurrences of each of `docs`, over two values.
    fn occurring(x: &mut u64, docs: &[DocId]) -> Vec<(DocId, Occurrence)> {
        let mut draw = |n: u64| {
            *x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((*x >> 33) % n) as u32
        };
        let mut out = BTreeSet::new();
        for &d in docs {
            for _ in 0..=draw(3) {
                let (value_idx, pos) = (draw(2), draw(5));
                out.insert((d, Occurrence { value_idx, pos }));
            }
        }
        out.into_iter().collect()
    }

    /// Every `a[i] == b[j]`, ascending, read off a map of `b`.
    fn model_pairs(a: &[DocId], b: &[DocId]) -> Vec<(usize, usize)> {
        let at: std::collections::BTreeMap<_, _> = b.iter().zip(0..).collect();
        (a.iter().enumerate())
            .filter_map(|(i, d)| at.get(d).map(|&j| (i, j)))
            .collect()
    }

    /// The pairs a loop calls back, in order.
    fn pairs_of(each: impl FnOnce(&mut dyn FnMut(usize, usize))) -> Vec<(usize, usize)> {
        let mut got = Vec::new();
        each(&mut |i, j| got.push((i, j)));
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Gallop, marks and merge each call back exactly the shared index
        /// pairs, in order, and so does the loop `for_each_shared` picks;
        /// over lists of up to 3 000 docids whose lengths and spans put each
        /// of the three in play, the set kernels and the positional steps
        /// answer as the plain model does. One bitmap serves every call, as
        /// one serves an evaluation.
        #[test]
        fn kernels_agree_with_the_plain_model(
            seed in 0u64..u64::MAX,
            sizes in (0usize..300, 0usize..3000, 0usize..200),
            words in (1u32..400, 1u32..400),
            offset in 0u32..20_000,
            gaps in prop::sample::select(&[(1, 1), (-3, 3), (0, 0)][..]),
        ) {
            let ((na, nb, nc), (wa, wb), mut x) = (sizes, words, seed);
            let a = drawn(&mut x, na, offset / 2, wa * 64);
            let b = drawn(&mut x, nb, offset, wb * 64);
            let c = drawn(&mut x, nc, 0, 30_000);
            let marks = &mut Marks::default();
            let want = model_pairs(&a, &b);
            prop_assert_eq!(&pairs_of(|f| merge(&a, &b, f)), &want);
            prop_assert_eq!(&pairs_of(|f| gallop(&a, &b, f)), &want);
            prop_assert_eq!(&pairs_of(|f| gallop(&b, &a, |j, i| f(i, j))), &want);
            prop_assert_eq!(&pairs_of(|f| marked(&a, &b, marks, f)), &want);
            prop_assert_eq!(&pairs_of(|f| for_each_shared(&a, &b, marks, f)), &want);

            let (sa, sb, sc): (BTreeSet<_>, BTreeSet<_>, BTreeSet<_>) =
                (a.iter().collect(), b.iter().collect(), c.iter().collect());
            let set = |s: BTreeSet<&DocId>| s.into_iter().copied().collect::<Vec<_>>();
            let bc = set(&sb | &sc);
            prop_assert_eq!(super::intersect(&a, &b, marks), set(&sa & &sb));
            prop_assert_eq!(super::difference(&a, &b, marks), set(&sa - &sb));
            prop_assert_eq!(super::difference(&b, &a, marks), set(&sb - &sa));
            prop_assert_eq!(super::union(&[&b, &c], marks), bc.clone());
            prop_assert_eq!(super::union(&[&a, &b, &c], marks), set(&(&sa | &sb) | &sc));
            prop_assert_eq!(sift(&a, &[&b, &c], marks), set(&sa & &(&sb | &sc)));
            prop_assert_eq!(sift(&c, &[&a, &b], marks), set(&sc & &(&sa | &sb)));

            let (ma, mb, mc) = (occurring(&mut x, &a), occurring(&mut x, &b), occurring(&mut x, &c));
            let (la, lb, lc) = (packed(FieldId(0), &ma), packed(FieldId(0), &mb), packed(FieldId(0), &mc));
            let step = super::positional_step(&la, &lb, gaps, marks);
            prop_assert_eq!(step.postings().collect::<Vec<_>>(), model_step(&ma, &mb, gaps));
            let two = model_docs(&model_step(&ma, &mb, gaps));
            prop_assert_eq!(super::positional_list(&[&la, &lb], gaps, marks), two.clone());
            let three = model_docs(&model_step(&model_step(&ma, &mb, gaps), &mc, gaps));
            prop_assert_eq!(super::positional_list(&[&la, &lb, &lc], gaps, marks), three);
            for cands in [&a, &b, &c, &bc] {
                let within = super::positional_within(&[&la, &lb], gaps, cands, marks);
                prop_assert_eq!(within, super::intersect(cands, &two, marks));
            }
        }

        /// A packed list reads back as the plain list of postings it was
        /// built from, whatever lanes its values need, and every positional
        /// kernel over packed lists answers as over the plain ones.
        #[test]
        fn packed_lists_agree_with_the_plain_model(
            a in entries(),
            b in entries(),
            gaps in prop::sample::select(&[(1, 1), (-3, 3), (0, 0), (-1, 1)][..]),
        ) {
            let (la, lb) = (packed(FieldId(0), &a), packed(FieldId(0), &b));
            prop_assert_eq!(la.postings().collect::<Vec<_>>(), a.clone());
            prop_assert_eq!(la.len(), a.len());
            prop_assert_eq!(la.docs(), &model_docs(&a)[..]);
            let want = model_step(&a, &b, gaps);
            let step = positional_step(&la, &lb, gaps);
            prop_assert_eq!(step.postings().collect::<Vec<_>>(), want.clone());
            prop_assert_eq!(&step, &packed(FieldId(0), &want));
            let chain = [&la, &lb];
            prop_assert_eq!(positional_any(&chain, gaps), !want.is_empty());
            let every: Vec<DocId> = (0..200).map(DocId).collect();
            let hits = model_docs(&want);
            for cands in [&every[..], la.docs(), lb.docs(), hits.get(..1).unwrap_or(&[])] {
                let mut got = Vec::new();
                positional_within(&chain, gaps, cands, &mut got);
                prop_assert_eq!(got, intersect(cands, &hits));
            }
        }
    }
}
