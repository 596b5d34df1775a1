//! Search evaluation against a [`Collection`].
//!
//! Processing follows the paper's model (Sections 2.1, 4.1): the inverted
//! lists named by the search are retrieved, and sorted-merge set operations
//! are performed on them. The evaluator therefore reports, alongside the
//! matching docids, the **sum of the lengths of the inverted lists
//! processed** — exactly the quantity the cost constant `c_p` multiplies.

use std::borrow::Cow;

use crate::doc::{DocId, FieldId};
use crate::expr::{BasicTerm, SearchExpr, TermKind};
use crate::index::Collection;
use crate::postings::{
    difference, intersect, positional_any, positional_list, positional_within, union, DocSet,
    FieldList, Occurrence, PostingList,
};

/// The outcome of evaluating a search expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Matching documents.
    pub docs: DocSet,
    /// Sum of lengths of the inverted lists retrieved to answer the search.
    pub postings_read: usize,
}

/// An ascending distinct docid list: borrowed from the index where a list
/// head already is the answer, owned where a merge made a new one.
type Docs<'a> = Cow<'a, [DocId]>;

/// Evaluates `expr` against `coll`.
///
/// Inverted lists are read where they live. A fielded word is the docid
/// slice at the head of its field list, the connectives merge such slices,
/// and phrase and proximity search intersect the slices first and look at
/// positions only inside the documents that survive. A word's list is
/// charged whole — every field's postings — whatever the term is restricted
/// to: the simulated server reads the list it finds in the directory.
pub fn evaluate(coll: &Collection, expr: &SearchExpr) -> EvalOutcome {
    let mut eval = Eval { coll, read: 0 };
    let docs = eval.expr(expr);
    EvalOutcome {
        docs: DocSet::from_sorted(docs.into_owned()),
        postings_read: eval.read,
    }
}

/// `k` ascending lists laid back to back, as one.
fn merged<'a>(ids: Vec<DocId>) -> Docs<'a> {
    Cow::Owned(DocSet::from_unsorted(ids).into_ids())
}

/// One evaluation: the collection and the postings read so far.
struct Eval<'a> {
    coll: &'a Collection,
    read: usize,
}

impl<'a> Eval<'a> {
    fn expr(&mut self, expr: &SearchExpr) -> Docs<'a> {
        match expr {
            SearchExpr::Term(_) | SearchExpr::Near { .. } => self.open(expr).docs(),
            SearchExpr::And(cs) => {
                let Some((first, rest)) = cs.split_first() else {
                    // An empty conjunction matches everything; Boolean text
                    // systems reject such searches, and the server layer
                    // does too, but the evaluator is total.
                    return Cow::Owned((0..self.coll.doc_count() as u32).map(DocId).collect());
                };
                // Conjuncts are opened — looked up and charged — left to
                // right, but a positional one is merged whole only if nothing
                // listed stands beside it: given candidates, it is verified
                // inside them.
                let mut acc = self.open(first);
                for c in rest {
                    // Short-circuit: remaining lists still *could* be read
                    // by a real system, but sorted-merge intersection stops
                    // as soon as one side is exhausted; we model the
                    // favorable case consistently.
                    let empty = match &acc {
                        Opened::Listed(docs) => docs.is_empty(),
                        Opened::Held(term) => !term.matches_any(),
                    };
                    if empty {
                        return Cow::Borrowed(&[]);
                    }
                    acc = Opened::Listed(match (acc, self.open(c)) {
                        (Opened::Listed(a), Opened::Listed(b)) => Cow::Owned(intersect(&a, &b)),
                        (Opened::Listed(cands), Opened::Held(term))
                        | (Opened::Held(term), Opened::Listed(cands)) => term.within(&cands),
                        (Opened::Held(a), Opened::Held(b)) => b.within(&a.list()),
                    });
                }
                acc.docs()
            }
            SearchExpr::Or(cs) => match cs.as_slice() {
                [a, b] => {
                    let (lhs, rhs) = (self.expr(a), self.expr(b));
                    Cow::Owned(union(&lhs, &rhs))
                }
                cs => {
                    let mut ids = Vec::new();
                    for c in cs {
                        ids.extend_from_slice(&self.expr(c));
                    }
                    merged(ids)
                }
            },
            SearchExpr::AndNot(a, b) => {
                let (lhs, rhs) = (self.expr(a), self.expr(b));
                Cow::Owned(difference(&lhs, &rhs))
            }
        }
    }

    /// Opens one conjunct: a phrase or NEAR has its lists looked up and
    /// charged and is held; anything else is evaluated to its documents.
    fn open(&mut self, expr: &SearchExpr) -> Opened<'a> {
        match expr {
            SearchExpr::Term(t) => self.term(t),
            SearchExpr::Near { a, b, distance } => self.near(a, b, *distance),
            other => Opened::Listed(self.expr(other)),
        }
    }

    /// Looks up `word`'s inverted list and charges its full length: the
    /// list is read whole whatever field the term is restricted to.
    fn read_list(&mut self, word: &str) -> Option<&'a PostingList> {
        self.coll.lookup(word).inspect(|l| self.read += l.len())
    }

    fn term(&mut self, term: &BasicTerm) -> Opened<'a> {
        Opened::Listed(match &term.kind {
            TermKind::Word(w) => match self.read_list(w) {
                Some(list) => word_docs(list, term.field),
                None => Cow::Borrowed(&[]),
            },
            TermKind::Prefix(p) if p.is_empty() => Cow::Borrowed(&[]),
            TermKind::Prefix(p) => {
                let mut ids = Vec::new();
                for (_, list) in self.coll.prefix_lookup(p) {
                    self.read += list.len();
                    for l in list.fields(term.field) {
                        ids.extend_from_slice(l.docs());
                    }
                }
                merged(ids)
            }
            TermKind::Phrase(words) => return self.phrase(words, term.field),
        })
    }

    /// Phrase evaluation: the words must appear consecutively within a
    /// single field value.
    fn phrase(&mut self, words: &[String], field: Option<FieldId>) -> Opened<'a> {
        let mut lists = Vec::with_capacity(words.len());
        for w in words {
            match self.read_list(w) {
                Some(list) => lists.push(Cow::Borrowed(list)),
                // A phrase containing an unindexed word matches nothing,
                // but the lists read so far were still processed.
                None => return Opened::Listed(Cow::Borrowed(&[])),
            }
        }
        match lists.as_slice() {
            [] => Opened::Listed(Cow::Borrowed(&[])),
            [Cow::Borrowed(only)] => Opened::Listed(word_docs(only, field)),
            _ => Opened::Held(Positional {
                lists,
                field,
                gaps: (1, 1),
            }),
        }
    }

    /// The list a NEAR operand stands for.
    fn operand(&mut self, t: &BasicTerm) -> Option<Cow<'a, PostingList>> {
        match &t.kind {
            TermKind::Word(w) => self.read_list(w).map(Cow::Borrowed),
            // Proximity over phrases/prefixes is not part of the paper's
            // model; treat the first word only.
            TermKind::Phrase(ws) => self.read_list(ws.first()?).map(Cow::Borrowed),
            TermKind::Prefix(p) => {
                if p.is_empty() {
                    return None;
                }
                // The expansion's lists as one new list.
                let mut all: Vec<(FieldId, DocId, Occurrence)> = Vec::new();
                for (_, list) in self.coll.prefix_lookup(p) {
                    self.read += list.len();
                    for l in list.fields(t.field) {
                        all.extend(l.postings().map(|(doc, occ)| (l.field(), doc, occ)));
                    }
                }
                all.sort_unstable();
                let mut merged = PostingList::default();
                for (field, doc, occ) in all {
                    merged.push(doc, field, occ);
                }
                Some(Cow::Owned(merged))
            }
        }
    }

    fn near(&mut self, a: &BasicTerm, b: &BasicTerm, distance: u32) -> Opened<'a> {
        let (Some(la), Some(lb)) = (self.operand(a), self.operand(b)) else {
            return Opened::Listed(Cow::Borrowed(&[]));
        };
        // Both operands must hit the same field value, so two restrictions
        // either agree or can never both hold.
        let field = match (a.field, b.field) {
            (Some(fa), Some(fb)) if fa != fb => return Opened::Listed(Cow::Borrowed(&[])),
            (fa, fb) => fa.or(fb),
        };
        let distance = i64::from(distance);
        Opened::Held(Positional {
            lists: vec![la, lb],
            field,
            gaps: (-distance, distance),
        })
    }
}

/// The documents holding a word within `field`: one field's slice as it
/// stands, or the few field slices of an unrestricted term merged.
fn word_docs(list: &PostingList, field: Option<FieldId>) -> Docs<'_> {
    match list.fields(field) {
        [] => Cow::Borrowed(&[]),
        [one] => Cow::Borrowed(one.docs()),
        many => merged(many.iter().flat_map(|l| l.docs()).copied().collect()),
    }
}

/// A conjunct as [`Eval::open`] leaves it.
enum Opened<'a> {
    /// Evaluated: its documents.
    Listed(Docs<'a>),
    /// A phrase or NEAR, charged but not yet merged.
    Held(Positional<'a>),
}

impl<'a> Opened<'a> {
    fn docs(self) -> Docs<'a> {
        match self {
            Opened::Listed(docs) => docs,
            Opened::Held(term) => term.list(),
        }
    }
}

/// A phrase or NEAR over `lists` (the index's own, or a truncation's
/// expansion merged), two or more: inside one value of a field that `field`
/// admits, an occurrence of the first must be followed `gaps` positions on
/// by one of each later list in turn.
struct Positional<'a> {
    lists: Vec<Cow<'a, PostingList>>,
    field: Option<FieldId>,
    gaps: (i64, i64),
}

impl Positional<'_> {
    /// Positions never compare across fields, so each field the term
    /// admits and every word occurs in is walked on its own: its list of
    /// each word, in order.
    fn chains(&self) -> impl Iterator<Item = Vec<&FieldList>> {
        let (first, rest) = self.lists.split_first().expect("two lists or more");
        first.fields(self.field).iter().filter_map(move |start| {
            let mut chain = vec![start];
            for next in rest {
                chain.push(next.fields(Some(start.field())).first()?);
            }
            Some(chain)
        })
    }

    /// Every document the term matches: the whole-list merge.
    fn list<'d>(&self) -> Docs<'d> {
        let mut ids = Vec::new();
        for chain in self.chains() {
            ids.extend_from_slice(positional_list(&chain, self.gaps).docs());
        }
        merged(ids)
    }

    /// The documents of `cands` the term matches.
    fn within<'d>(&self, cands: &[DocId]) -> Docs<'d> {
        let mut ids = Vec::new();
        for chain in self.chains() {
            positional_within(&chain, self.gaps, cands, &mut ids);
        }
        merged(ids)
    }

    /// Whether the term matches at all, which is what the charging of the
    /// next conjunct turns on, without listing it.
    fn matches_any(&self) -> bool {
        self.chains().any(|chain| positional_any(&chain, self.gaps))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{Document, TextSchema};

    fn fixture() -> (Collection, FieldId, FieldId) {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let mut c = Collection::new(schema);
        // doc0
        c.add_document(
            Document::new()
                .with(ti, "Belief Update and Revision")
                .with(au, "Radhika"),
        );
        // doc1
        c.add_document(
            Document::new()
                .with(ti, "Information Filtering Systems")
                .with(au, "Gravano")
                .with(au, "Garcia"),
        );
        // doc2
        c.add_document(
            Document::new()
                .with(ti, "Update of Belief Networks")
                .with(au, "Garcia"),
        );
        (c, ti, au)
    }

    fn ids(s: &DocSet) -> Vec<u32> {
        s.ids().iter().map(|d| d.0).collect()
    }

    #[test]
    fn word_term() {
        let (c, ti, _) = fixture();
        let out = evaluate(&c, &SearchExpr::term_in("update", ti));
        assert_eq!(ids(&out.docs), [0, 2]);
        assert_eq!(out.postings_read, c.lookup("update").unwrap().len());
    }

    #[test]
    fn field_restriction() {
        let (c, _, au) = fixture();
        // "update" never occurs in the author field.
        let out = evaluate(&c, &SearchExpr::term_in("update", au));
        assert!(out.docs.is_empty());
        // ... but the list was still read.
        assert!(out.postings_read > 0);
    }

    #[test]
    fn phrase_requires_adjacency() {
        let (c, ti, _) = fixture();
        // doc0 has "belief update" adjacent; doc2 has them separated.
        let out = evaluate(&c, &SearchExpr::term_in("belief update", ti));
        assert_eq!(ids(&out.docs), [0]);
    }

    #[test]
    fn three_word_phrase() {
        let (c, ti, _) = fixture();
        let out = evaluate(&c, &SearchExpr::term_in("information filtering systems", ti));
        assert_eq!(ids(&out.docs), [1]);
        let out = evaluate(&c, &SearchExpr::term_in("filtering information systems", ti));
        assert!(out.docs.is_empty());
    }

    #[test]
    fn and_or_not() {
        let (c, ti, au) = fixture();
        let both = SearchExpr::and(vec![
            SearchExpr::term_in("update", ti),
            SearchExpr::term_in("garcia", au),
        ]);
        assert_eq!(ids(&evaluate(&c, &both).docs), [2]);

        let either = SearchExpr::or(vec![
            SearchExpr::term_in("radhika", au),
            SearchExpr::term_in("garcia", au),
        ]);
        assert_eq!(ids(&evaluate(&c, &either).docs), [0, 1, 2]);

        let diff = SearchExpr::AndNot(
            Box::new(SearchExpr::term_in("update", ti)),
            Box::new(SearchExpr::term_in("revision", ti)),
        );
        assert_eq!(ids(&evaluate(&c, &diff).docs), [2]);
    }

    #[test]
    fn prefix_term() {
        let (c, ti, _) = fixture();
        // filter? matches "filtering"
        let out = evaluate(&c, &SearchExpr::term_in("filter?", ti));
        assert_eq!(ids(&out.docs), [1]);
        // updat? matches "update"
        let out = evaluate(&c, &SearchExpr::term_in("updat?", ti));
        assert_eq!(ids(&out.docs), [0, 2]);
    }

    #[test]
    fn near_search() {
        let (c, ti, _) = fixture();
        let near = |d| SearchExpr::Near {
            a: BasicTerm::parse_text("belief", Some(ti)),
            b: BasicTerm::parse_text("networks", Some(ti)),
            distance: d,
        };
        // doc2: "Update of Belief Networks" — gap 1.
        assert_eq!(ids(&evaluate(&c, &near(1)).docs), [2]);
        // order-insensitive: (networks, belief) also matches.
        let swapped = SearchExpr::Near {
            a: BasicTerm::parse_text("networks", Some(ti)),
            b: BasicTerm::parse_text("belief", Some(ti)),
            distance: 1,
        };
        assert_eq!(ids(&evaluate(&c, &swapped).docs), [2]);
    }

    #[test]
    fn near_with_empty_prefix_matches_nothing() {
        let (c, ti, _) = fixture();
        let e = SearchExpr::Near {
            a: BasicTerm {
                kind: TermKind::Prefix(String::new()),
                field: Some(ti),
            },
            b: BasicTerm::parse_text("update", Some(ti)),
            distance: 3,
        };
        let out = evaluate(&c, &e);
        assert!(out.docs.is_empty(), "empty prefix must not merge the index");
    }

    #[test]
    fn unknown_words_match_nothing() {
        let (c, ti, _) = fixture();
        assert!(evaluate(&c, &SearchExpr::term_in("xyzzy", ti)).docs.is_empty());
        assert!(evaluate(&c, &SearchExpr::term_in("xyzzy update", ti))
            .docs
            .is_empty());
    }

    #[test]
    fn postings_accounting_sums_all_lists() {
        let (c, ti, au) = fixture();
        let e = SearchExpr::and(vec![
            SearchExpr::term_in("update", ti),
            SearchExpr::term_in("garcia", au),
        ]);
        let expected = c.lookup("update").unwrap().len() + c.lookup("garcia").unwrap().len();
        assert_eq!(evaluate(&c, &e).postings_read, expected);
    }

    #[test]
    fn and_short_circuits_on_empty() {
        let (c, ti, au) = fixture();
        let e = SearchExpr::and(vec![
            SearchExpr::term_in("xyzzy", ti),
            SearchExpr::term_in("garcia", au),
        ]);
        let out = evaluate(&c, &e);
        assert!(out.docs.is_empty());
        assert_eq!(out.postings_read, 0, "second list not read after empty lhs");
    }

    #[test]
    fn multivalue_phrase_does_not_cross_values() {
        let schema = TextSchema::bibliographic();
        let au = schema.field_by_name("author").unwrap();
        let mut c = Collection::new(schema);
        c.add_document(Document::new().with(au, "Luis").with(au, "Gravano"));
        // "luis gravano" as a phrase must not match across the two values.
        let out = evaluate(&c, &SearchExpr::term_in("luis gravano", au));
        assert!(out.docs.is_empty());
        let out = evaluate(&c, &SearchExpr::term_in("luis", au));
        assert_eq!(ids(&out.docs), [0]);
    }

    #[test]
    fn value_index_past_u16_does_not_wrap() {
        // Values 0 and 65 536 of one field: a 16-bit value index gave both
        // the index 0, and "luis" (value 0, position 0) then sat right
        // before "gravano" (value 65 536, position 1).
        let schema = TextSchema::bibliographic();
        let au = schema.field_by_name("author").unwrap();
        let mut d = Document::new().with(au, "Luis");
        for _ in 1..65_536 {
            d.push(au, "Filler");
        }
        d.push(au, "Hector Gravano");
        assert_eq!(d.values(au).len(), 65_537);
        let mut c = Collection::new(schema);
        c.add_document(d);
        let docs = |e: &SearchExpr| ids(&evaluate(&c, e).docs);
        assert!(docs(&SearchExpr::term_in("luis gravano", au)).is_empty());
        let near = SearchExpr::Near {
            a: BasicTerm::parse_text("luis", Some(au)),
            b: BasicTerm::parse_text("gravano", Some(au)),
            distance: 1,
        };
        assert!(docs(&near).is_empty());
        assert_eq!(docs(&SearchExpr::term_in("gravano", au)), [0]);
        assert_eq!(docs(&SearchExpr::term_in("hector gravano", au)), [0]);
    }
}
