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
use crate::postings::{phrase_step, positional_join, DocSet, PostingList};

/// The outcome of evaluating a search expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// Matching documents.
    pub docs: DocSet,
    /// Sum of lengths of the inverted lists retrieved to answer the search.
    pub postings_read: usize,
}

/// Evaluates `expr` against `coll`.
///
/// Inverted lists are read where they live: a term's docids come from one
/// filtered pass over the borrowed list, and the only postings ever copied
/// are the carrier of a multi-word phrase and the merged list of a
/// truncated NEAR operand, both of which are new lists.
pub fn evaluate(coll: &Collection, expr: &SearchExpr) -> EvalOutcome {
    let mut postings_read = 0;
    let docs = eval_expr(coll, expr, &mut postings_read);
    EvalOutcome {
        docs,
        postings_read,
    }
}

fn eval_expr(coll: &Collection, expr: &SearchExpr, postings_read: &mut usize) -> DocSet {
    match expr {
        SearchExpr::Term(t) => eval_term(coll, t, postings_read),
        SearchExpr::Near { a, b, distance } => eval_near(coll, a, b, *distance, postings_read),
        SearchExpr::And(cs) => {
            let mut iter = cs.iter();
            let Some(first) = iter.next() else {
                // An empty conjunction matches everything; Boolean text
                // systems reject such searches, and the server layer does
                // too, but the evaluator is total.
                return all_docs(coll);
            };
            let mut acc = eval_expr(coll, first, postings_read);
            for c in iter {
                if acc.is_empty() {
                    // Short-circuit: remaining lists still *could* be read
                    // by a real system, but sorted-merge intersection stops
                    // as soon as one side is exhausted; we model the
                    // favorable case consistently.
                    break;
                }
                let rhs = eval_expr(coll, c, postings_read);
                acc = acc.intersect(&rhs);
            }
            acc
        }
        SearchExpr::Or(cs) => {
            let mut ids = Vec::new();
            for c in cs {
                ids.extend_from_slice(eval_expr(coll, c, postings_read).ids());
            }
            DocSet::from_unsorted(ids)
        }
        SearchExpr::AndNot(a, b) => {
            let lhs = eval_expr(coll, a, postings_read);
            let rhs = eval_expr(coll, b, postings_read);
            lhs.difference(&rhs)
        }
    }
}

fn all_docs(coll: &Collection) -> DocSet {
    DocSet::from_sorted((0..coll.doc_count() as u32).map(DocId).collect())
}

/// Looks up `word`'s inverted list and charges its full length: the list is
/// read whole whatever field the term is restricted to.
fn read_list<'a>(
    coll: &'a Collection,
    word: &str,
    postings_read: &mut usize,
) -> Option<&'a PostingList> {
    let list = coll.lookup(word)?;
    *postings_read += list.len();
    Some(list)
}

fn eval_term(coll: &Collection, term: &BasicTerm, postings_read: &mut usize) -> DocSet {
    match &term.kind {
        TermKind::Word(w) => {
            if w.is_empty() {
                return DocSet::new();
            }
            match read_list(coll, w, postings_read) {
                Some(list) => list.docs(term.field),
                None => DocSet::new(),
            }
        }
        TermKind::Prefix(p) => {
            if p.is_empty() {
                return DocSet::new();
            }
            let mut ids = Vec::new();
            for (_, list) in coll.prefix_lookup(p) {
                *postings_read += list.len();
                ids.extend(list.doc_ids(term.field));
            }
            DocSet::from_unsorted(ids)
        }
        TermKind::Phrase(words) => eval_phrase(coll, words, term.field, postings_read),
    }
}

/// Phrase evaluation: the words must appear consecutively within a single
/// field value. Implemented as a chain of positional joins carrying the
/// position of the *last* matched word forward.
fn eval_phrase(
    coll: &Collection,
    words: &[String],
    field: Option<FieldId>,
    postings_read: &mut usize,
) -> DocSet {
    let mut lists = Vec::with_capacity(words.len());
    for w in words {
        match read_list(coll, w, postings_read) {
            Some(list) => lists.push(list),
            // A phrase containing an unindexed word matches nothing, but the
            // lists read so far were still processed.
            None => return DocSet::new(),
        }
    }
    // Carrier: postings of word i that end a valid prefix of the phrase.
    // Every step matched within `field`, so the carrier needs no filter.
    let (mut carrier, rest) = match lists.as_slice() {
        [] => return DocSet::new(),
        [only] => return only.docs(field),
        [first, second, rest @ ..] => (phrase_step(first, second, field), rest),
    };
    for next in rest {
        if carrier.is_empty() {
            break;
        }
        carrier = phrase_step(&carrier, next, field);
    }
    carrier.docs(None)
}

fn eval_near(
    coll: &Collection,
    a: &BasicTerm,
    b: &BasicTerm,
    distance: u32,
    postings_read: &mut usize,
) -> DocSet {
    let get = |t: &BasicTerm, postings_read: &mut usize| -> Option<Cow<'_, PostingList>> {
        match &t.kind {
            TermKind::Word(w) => read_list(coll, w, postings_read).map(Cow::Borrowed),
            // Proximity over phrases/prefixes is not part of the paper's
            // model; treat the first word only.
            TermKind::Phrase(ws) => ws
                .first()
                .and_then(|w| read_list(coll, w, postings_read))
                .map(Cow::Borrowed),
            TermKind::Prefix(p) => {
                if p.is_empty() {
                    return None;
                }
                let mut merged = Vec::new();
                for (_, l) in coll.prefix_lookup(p) {
                    *postings_read += l.len();
                    merged.extend(l.postings().iter().filter(|p| p.is_in(t.field)));
                }
                merged.sort_unstable();
                Some(Cow::Owned(PostingList::from_sorted(merged)))
            }
        }
    };
    let (Some(la), Some(lb)) = (get(a, postings_read), get(b, postings_read)) else {
        return DocSet::new();
    };
    // Both operands must hit the same field value, so two restrictions
    // either agree or can never both hold.
    let field = match (a.field, b.field) {
        (Some(fa), Some(fb)) if fa != fb => return DocSet::new(),
        (fa, fb) => fa.or(fb),
    };
    positional_join(&la, &lb, field, -i64::from(distance), i64::from(distance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::{DocId, Document, TextSchema};

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
        let _ = DocId(0);
    }
}
