//! Property test: the indexed evaluator agrees with a naive per-document
//! matcher on randomly generated collections and search expressions — on
//! the matching documents *and* on `postings_read`, the quantity `c_p`
//! multiplies, which is checked against a model that never touches the
//! index (see [`model_postings`]).

use std::collections::BTreeSet;

use proptest::prelude::*;
use textjoin_text::doc::{DocId, Document, FieldId, TextSchema};
use textjoin_text::expr::{BasicTerm, SearchExpr, TermKind};
use textjoin_text::index::Collection;
use textjoin_text::token::{normalize_phrase, tokenize};

const VOCAB: &[&str] = &["red", "green", "blue", "redgreen", "cyan", "magenta"];

fn word() -> impl Strategy<Value = &'static str> {
    prop::sample::select(VOCAB)
}

#[derive(Debug, Clone)]
struct Spec {
    docs: Vec<(Vec<&'static str>, Vec<&'static str>)>, // (title words, authors)
}

fn spec() -> impl Strategy<Value = Spec> {
    prop::collection::vec(
        (
            prop::collection::vec(word(), 0..5),
            prop::collection::vec(word(), 0..3),
        ),
        1..10,
    )
    .prop_map(|docs| Spec { docs })
}

/// A term's field restriction: title, author, or none (any field).
fn field() -> impl Strategy<Value = Option<FieldId>> {
    (0u8..3).prop_map(|f| {
        let schema = TextSchema::bibliographic();
        match f {
            0 => schema.field_by_name("title"),
            1 => schema.field_by_name("author"),
            _ => None,
        }
    })
}

/// Random expression trees over title/author/unfielded terms.
fn expr(depth: u32) -> BoxedStrategy<SearchExpr> {
    let leaf = ((word(), field()), (word(), field()), 0u8..5).prop_map(
        |((w, field), (w2, field2), kind)| {
            match kind {
                0 => SearchExpr::Term(BasicTerm::parse_text(w, field)),
                1 => SearchExpr::Term(BasicTerm {
                    kind: TermKind::Prefix(w[..2.min(w.len())].to_owned()),
                    field,
                }),
                2 => SearchExpr::Term(BasicTerm::parse_text(&format!("{w} {w}"), field)),
                // A phrase that may name a word no document holds.
                3 => SearchExpr::Term(BasicTerm::parse_text(&format!("{w} {w2} cyan"), field)),
                _ => SearchExpr::Near {
                    a: BasicTerm::parse_text(w, field),
                    b: BasicTerm::parse_text("blue", field2),
                    distance: 2,
                },
            }
        },
    );
    leaf.prop_recursive(depth, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(SearchExpr::and),
            prop::collection::vec(inner.clone(), 1..4).prop_map(SearchExpr::or),
            (inner.clone(), inner).prop_map(|(a, b)| SearchExpr::AndNot(Box::new(a), Box::new(b))),
        ]
    })
    .boxed()
}

fn build(spec: &Spec) -> Collection {
    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").unwrap();
    let au = schema.field_by_name("author").unwrap();
    let mut coll = Collection::new(schema);
    for (title, authors) in &spec.docs {
        let mut d = Document::new();
        if !title.is_empty() {
            d.push(ti, title.join(" "));
        }
        for a in authors {
            d.push(au, *a);
        }
        coll.add_document(d);
    }
    coll
}

/// Naive matcher: no index, no set ops — per-document recursion.
fn naive_match(doc: &Document, e: &SearchExpr) -> bool {
    match e {
        SearchExpr::Term(t) => naive_term(doc, t),
        SearchExpr::Near { a, b, distance } => {
            // Word-only proximity within a single field value.
            let (Some(wa), Some(wb)) = (term_word(a), term_word(b)) else {
                return false;
            };
            // Both words sit in one field value, so that value's field
            // must pass both restrictions.
            let schema = TextSchema::bibliographic();
            let admits = |t: &BasicTerm, f: FieldId| t.field.is_none_or(|g| g == f);
            for f in schema
                .iter()
                .map(|(id, _)| id)
                .filter(|&f| admits(a, f) && admits(b, f))
            {
                for v in doc.values(f) {
                    let toks = tokenize(v);
                    for x in toks.iter().filter(|t| t.word == wa) {
                        for y in toks.iter().filter(|t| t.word == wb) {
                            let gap = i64::from(y.pos) - i64::from(x.pos);
                            if gap.abs() <= i64::from(*distance) {
                                return true;
                            }
                        }
                    }
                }
            }
            false
        }
        SearchExpr::And(cs) => cs.iter().all(|c| naive_match(doc, c)),
        SearchExpr::Or(cs) => cs.iter().any(|c| naive_match(doc, c)),
        SearchExpr::AndNot(a, b) => naive_match(doc, a) && !naive_match(doc, b),
    }
}

fn term_word(t: &BasicTerm) -> Option<String> {
    match &t.kind {
        TermKind::Word(w) => Some(w.clone()),
        TermKind::Phrase(ws) => ws.first().cloned(),
        TermKind::Prefix(_) => None,
    }
}

fn naive_term(doc: &Document, t: &BasicTerm) -> bool {
    let schema = TextSchema::bibliographic();
    let fields: Vec<_> = match t.field {
        Some(f) => vec![f],
        None => schema.iter().map(|(id, _)| id).collect(),
    };
    for f in fields {
        for v in doc.values(f) {
            let toks = tokenize(v);
            let ok = match &t.kind {
                TermKind::Word(w) => toks.iter().any(|tk| &tk.word == w),
                // An empty truncation names no word: it matches nothing.
                TermKind::Prefix(p) => {
                    !p.is_empty() && toks.iter().any(|tk| tk.word.starts_with(p.as_str()))
                }
                TermKind::Phrase(ws) => {
                    let words: Vec<&str> = toks.iter().map(|tk| tk.word.as_str()).collect();
                    let ned: Vec<&str> = ws.iter().map(String::as_str).collect();
                    !ned.is_empty()
                        && words.len() >= ned.len()
                        && words.windows(ned.len()).any(|w| w == ned.as_slice())
                }
            };
            if ok {
                return true;
            }
        }
    }
    false
}

/// The documents `e` matches, by per-document recursion.
fn naive_docs(coll: &Collection, e: &SearchExpr) -> BTreeSet<u32> {
    (0..coll.doc_count() as u32)
        .filter(|&i| naive_match(coll.document(DocId(i)).unwrap(), e))
        .collect()
}

/// Length of the inverted list of every indexed word `wanted` accepts: the
/// occurrences of those words in any field of any document, counted from
/// the documents themselves.
fn list_len(coll: &Collection, wanted: impl Fn(&str) -> bool) -> usize {
    (0..coll.doc_count() as u32)
        .flat_map(|i| coll.document(DocId(i)).unwrap().iter())
        .flat_map(|(_, values)| values)
        .flat_map(|v| tokenize(v))
        .filter(|t| wanted(&t.word))
        .count()
}

/// The lists a basic term reads, as a NEAR operand sees it (a phrase stands
/// for its first word).
fn operand_postings(coll: &Collection, t: &BasicTerm) -> usize {
    match &t.kind {
        TermKind::Word(w) => list_len(coll, |x| x == w),
        TermKind::Phrase(ws) => ws.first().map_or(0, |w| list_len(coll, |x| x == w)),
        TermKind::Prefix(p) if p.is_empty() => 0,
        TermKind::Prefix(p) => list_len(coll, |x| x.starts_with(p.as_str())),
    }
}

/// Independent model of `postings_read`, the documented contract of
/// `eval::evaluate`: the sum of the lengths of the directory lists the
/// search names, each read whole whatever field the term is restricted to.
/// Two short-circuits are part of the contract: a phrase stops at its first
/// unindexed word, and a conjunction stops reading once the running
/// intersection is empty.
fn model_postings(coll: &Collection, e: &SearchExpr) -> usize {
    match e {
        SearchExpr::Term(t) => match &t.kind {
            TermKind::Phrase(ws) => ws
                .iter()
                .map(|w| list_len(coll, |x| x == w))
                .take_while(|&len| len > 0)
                .sum(),
            _ => operand_postings(coll, t),
        },
        SearchExpr::Near { a, b, .. } => operand_postings(coll, a) + operand_postings(coll, b),
        SearchExpr::And(cs) => {
            let mut read = 0;
            let mut acc: Option<BTreeSet<u32>> = None;
            for c in cs {
                if acc.as_ref().is_some_and(BTreeSet::is_empty) {
                    break;
                }
                read += model_postings(coll, c);
                let docs = naive_docs(coll, c);
                acc = Some(match acc {
                    Some(acc) => acc.intersection(&docs).copied().collect(),
                    None => docs,
                });
            }
            read
        }
        SearchExpr::Or(cs) => cs.iter().map(|c| model_postings(coll, c)).sum(),
        SearchExpr::AndNot(a, b) => model_postings(coll, a) + model_postings(coll, b),
    }
}

/// The evaluator's answer and its `postings_read` against the two models.
fn check(coll: &Collection, e: &SearchExpr) -> Result<(), String> {
    let out = textjoin_text::eval::evaluate(coll, e);
    let got: BTreeSet<u32> = out.docs.ids().iter().map(|d| d.0).collect();
    if got.len() != out.docs.len() || !out.docs.ids().is_sorted() {
        return Err(format!("result not a sorted set: {:?}", out.docs));
    }
    let expected = naive_docs(coll, e);
    if got != expected {
        return Err(format!("docs {got:?} != {expected:?} for {e:?}"));
    }
    let model = model_postings(coll, e);
    if out.postings_read != model {
        return Err(format!(
            "postings_read {} != model {model} for {e:?}",
            out.postings_read
        ));
    }
    Ok(())
}

/// A collection wide enough for the two shapes the generated trees never
/// reach: 240 documents over 120 words sharing the stem `pre`, each word in
/// several titles and author values, neighbours adjacent.
fn wide_collection() -> Collection {
    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").unwrap();
    let au = schema.field_by_name("author").unwrap();
    let mut coll = Collection::new(schema);
    for d in 0..240usize {
        let w = |k: usize| format!("pre{:03}", (d * 7 + k * 13) % 120);
        coll.add_document(
            Document::new()
                .with(ti, format!("{} {} other {}", w(0), w(1), w(2)))
                .with(au, w(3))
                .with(au, format!("{} {}", w(4), w(0))),
        );
    }
    coll
}

#[test]
fn wide_or_package_matches_models() {
    // 96 disjuncts — past the M = 70 an SJ package is capped at — mixing
    // fielded and unfielded leaves, alone and under a selective conjunct.
    let coll = wide_collection();
    let ti = coll.schema().field_by_name("title");
    let au = coll.schema().field_by_name("author");
    let disjuncts: Vec<SearchExpr> = (0..96usize)
        .map(|k| {
            let field = [ti, au, None][k % 3];
            SearchExpr::Term(BasicTerm::parse_text(
                &format!("pre{:03}", (k * 5) % 120),
                field,
            ))
        })
        .collect();
    let package = SearchExpr::or(disjuncts);
    assert!(matches!(&package, SearchExpr::Or(cs) if cs.len() >= 70));
    check(&coll, &package).unwrap();
    let selected = SearchExpr::and(vec![
        SearchExpr::Term(BasicTerm::parse_text("pre003", ti)),
        package.clone(),
    ]);
    check(&coll, &selected).unwrap();
    let refused = SearchExpr::and(vec![
        SearchExpr::Term(BasicTerm::parse_text("absent", ti)),
        package,
    ]);
    check(&coll, &refused).unwrap();
    assert_eq!(
        textjoin_text::eval::evaluate(&coll, &refused).postings_read,
        0
    );
}

#[test]
fn wide_prefix_matches_models() {
    // `pre?` expands to all 120 words, `pre0?` to 100, `pre11?` to 10.
    let coll = wide_collection();
    let ti = coll.schema().field_by_name("title");
    let au = coll.schema().field_by_name("author");
    for stem in ["pre", "pre0", "pre11", "pre119", "prf", ""] {
        for field in [ti, au, None] {
            let prefix = BasicTerm {
                kind: TermKind::Prefix(stem.to_owned()),
                field,
            };
            check(&coll, &SearchExpr::Term(prefix.clone())).unwrap();
            let near = SearchExpr::Near {
                a: prefix,
                b: BasicTerm::parse_text("other", ti),
                distance: 1,
            };
            let out = textjoin_text::eval::evaluate(&coll, &near);
            assert_eq!(out.postings_read, model_postings(&coll, &near), "{near:?}");
        }
    }
    let all = textjoin_text::eval::evaluate(
        &coll,
        &SearchExpr::Term(BasicTerm {
            kind: TermKind::Prefix("pre".to_owned()),
            field: None,
        }),
    );
    assert_eq!(all.docs.len(), 240);
    assert_eq!(
        all.postings_read,
        coll.total_postings() - 240,
        "all but `other`"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn evaluator_matches_naive_oracle(s in spec(), e in expr(3)) {
        let coll = build(&s);
        let checked = check(&coll, &e);
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn phrase_normalization_consistent(s in spec(), a in word(), b in word()) {
        // Searching "A B" equals searching the normalized phrase.
        let coll = build(&s);
        let schema = coll.schema().clone();
        let ti = schema.field_by_name("title").unwrap();
        let raw = format!("{} {}", a.to_uppercase(), b);
        let e1 = SearchExpr::term_in(&raw, ti);
        let normalized = normalize_phrase(&raw).join(" ");
        let e2 = SearchExpr::term_in(&normalized, ti);
        let r1 = textjoin_text::eval::evaluate(&coll, &e1);
        let r2 = textjoin_text::eval::evaluate(&coll, &e2);
        prop_assert_eq!(r1.docs, r2.docs);
    }
}
