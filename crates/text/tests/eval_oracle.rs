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

/// One document: title words, authors (one value each), abstract words.
type DocSpec = (Vec<&'static str>, Vec<&'static str>, Vec<&'static str>);

#[derive(Debug, Clone)]
struct Spec {
    docs: Vec<DocSpec>,
}

fn spec() -> impl Strategy<Value = Spec> {
    prop::collection::vec(
        (
            prop::collection::vec(word(), 0..5),
            prop::collection::vec(word(), 0..3),
            prop::collection::vec(word(), 0..6),
        ),
        1..10,
    )
    .prop_map(|docs| Spec { docs })
}

/// A term's field restriction: title, author, abstract, institution (which
/// no generated document fills), or none (any field).
fn field() -> impl Strategy<Value = Option<FieldId>> {
    (0u8..6).prop_map(|f| {
        let schema = TextSchema::bibliographic();
        match f {
            0 => schema.field_by_name("title"),
            1 => schema.field_by_name("author"),
            2 => schema.field_by_name("abstract"),
            3 => schema.field_by_name("institution"),
            _ => None,
        }
    })
}

/// Random expression trees over title/author/unfielded terms.
fn expr(depth: u32) -> BoxedStrategy<SearchExpr> {
    let leaf = ((word(), field()), (word(), field()), 0u8..6).prop_map(
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
                // Proximity to a truncated word: every expansion counts.
                4 => SearchExpr::Near {
                    a: BasicTerm {
                        kind: TermKind::Prefix(w[..2.min(w.len())].to_owned()),
                        field,
                    },
                    b: BasicTerm::parse_text(w2, field2),
                    distance: 1,
                },
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
    let ab = schema.field_by_name("abstract").unwrap();
    let mut coll = Collection::new(schema);
    for (title, authors, abstr) in &spec.docs {
        let mut d = Document::new();
        if !title.is_empty() {
            d.push(ti, title.join(" "));
        }
        for a in authors {
            d.push(au, *a);
        }
        if !abstr.is_empty() {
            d.push(ab, abstr.join(" "));
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
            // Proximity of two words within a single field value.
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
                    for x in toks.iter().filter(|t| operand_accepts(a, &t.word)) {
                        for y in toks.iter().filter(|t| operand_accepts(b, &t.word)) {
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

/// Whether `word` is one a NEAR operand stands for: the word itself, a
/// phrase's first word, or any expansion of a (non-empty) truncation.
fn operand_accepts(t: &BasicTerm, word: &str) -> bool {
    match &t.kind {
        TermKind::Word(w) => word == w,
        TermKind::Phrase(ws) => ws.first().is_some_and(|w| word == w),
        TermKind::Prefix(p) => !p.is_empty() && word.starts_with(p.as_str()),
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
    list_len(coll, |x| operand_accepts(t, x))
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
            check(&coll, &near).unwrap();
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

/// A collection skewed the way the benchmark's is: `topic` in every one of
/// 5 200 titles (and in three more fields of some documents), against
/// author names held by one to three documents each.
fn skewed_collection() -> Collection {
    let schema = TextSchema::bibliographic();
    let field = |name| schema.field_by_name(name).unwrap();
    let (ti, au, ab, inst) = (
        field("title"),
        field("author"),
        field("abstract"),
        field("institution"),
    );
    let mut coll = Collection::new(schema);
    for d in 0..5200usize {
        let mut doc = Document::new().with(ti, format!("topic t{}", d % 7));
        doc.push(
            au,
            match d {
                17 => "rare".to_owned(),
                0 | 2600 | 5199 => "few".to_owned(),
                4000 => "topic".to_owned(),
                _ => format!("n{}", d % 50),
            },
        );
        if d % 3 == 0 {
            doc.push(ab, format!("a topical study of topic s{} topics", d % 5));
        }
        if d % 11 == 0 {
            doc.push(inst, format!("topology institute of topic i{}", d % 4));
        }
        coll.add_document(doc);
    }
    coll
}

#[test]
fn skewed_intersections_in_both_orders() {
    // A one-document and a three-document author list against the
    // 5 200-document topic list: the short side gallops through the long
    // one, whichever operand it is, under every connective that merges.
    let coll = skewed_collection();
    let ti = coll.schema().field_by_name("title");
    let au = coll.schema().field_by_name("author");
    let term = |w: &str, f| SearchExpr::Term(BasicTerm::parse_text(w, f));
    for name in ["rare", "few", "topic", "nobody"] {
        for (lhs, rhs) in [
            (term(name, au), term("topic", ti)),
            (term("topic", ti), term(name, au)),
            (term(name, au), term("topic", None)),
            (term("topic", None), term(name, None)),
        ] {
            check(&coll, &SearchExpr::and(vec![lhs.clone(), rhs.clone()])).unwrap();
            check(&coll, &SearchExpr::or(vec![lhs.clone(), rhs.clone()])).unwrap();
            check(&coll, &SearchExpr::AndNot(Box::new(lhs), Box::new(rhs))).unwrap();
        }
    }
    let hit = SearchExpr::and(vec![term("topic", ti), term("few", au)]);
    let out = textjoin_text::eval::evaluate(&coll, &hit);
    assert_eq!(out.docs.ids(), [DocId(0), DocId(2600), DocId(5199)]);
    // Positional operands are intersected the same way: `t3` is in a
    // seventh of the titles `topic` is in, `i2` in one institution in 44.
    for (a, b, f) in [
        ("topic", "t3", ti),
        ("t3", "topic", None),
        ("i2", "topic", None),
    ] {
        check(&coll, &term(&format!("{a} {b}"), f)).unwrap();
        let near = SearchExpr::Near {
            a: BasicTerm::parse_text(a, f),
            b: BasicTerm::parse_text(b, None),
            distance: 3,
        };
        check(&coll, &near).unwrap();
    }
}

#[test]
fn unfielded_word_in_four_fields() {
    let coll = skewed_collection();
    let term = |f| SearchExpr::Term(BasicTerm::parse_text("topic", f));
    let schema = coll.schema().clone();
    let mut per_field = 0;
    for (fid, def) in schema.iter() {
        let held = textjoin_text::eval::evaluate(&coll, &term(Some(fid)))
            .docs
            .len();
        assert_eq!(held > 0, def.name != "year", "{}", def.name);
        per_field += held;
        check(&coll, &term(Some(fid))).unwrap();
    }
    check(&coll, &term(None)).unwrap();
    let any = textjoin_text::eval::evaluate(&coll, &term(None));
    assert_eq!(any.docs.len(), 5200);
    assert!(
        per_field > 5200,
        "the field lists overlap; the answer is a set"
    );
}

#[test]
fn term_in_a_field_its_word_never_occurs_in() {
    // Empty answer, and the whole list is charged all the same.
    let coll = skewed_collection();
    let yr = coll.schema().field_by_name("year");
    let whole = list_len(&coll, |w| w == "topic");
    assert!(whole > 5200);
    let exprs = [
        SearchExpr::Term(BasicTerm::parse_text("topic", yr)),
        SearchExpr::Term(BasicTerm::parse_text("topic topic", yr)),
        SearchExpr::Term(BasicTerm {
            kind: TermKind::Prefix("topic".into()),
            field: yr,
        }),
        SearchExpr::Near {
            a: BasicTerm::parse_text("topic", yr),
            b: BasicTerm::parse_text("rare", None),
            distance: 9,
        },
    ];
    for e in &exprs {
        let out = textjoin_text::eval::evaluate(&coll, e);
        assert!(out.docs.is_empty(), "{e:?}");
        assert!(out.postings_read >= whole, "{e:?}");
        check(&coll, e).unwrap();
    }
}

/// Documents where the same two words meet in different fields.
fn crossing_collection() -> Collection {
    let schema = TextSchema::bibliographic();
    let field = |name| schema.field_by_name(name).unwrap();
    let (ti, au, ab, inst) = (
        field("title"),
        field("author"),
        field("abstract"),
        field("institution"),
    );
    let mut coll = Collection::new(schema);
    // 0: the phrase in the title only.
    coll.add_document(
        Document::new()
            .with(ti, "on belief update")
            .with(ab, "update belief"),
    );
    // 1: the phrase in the abstract only.
    coll.add_document(
        Document::new()
            .with(ti, "update")
            .with(ab, "a belief update story"),
    );
    // 2: `belief` ends the title, `update` starts the abstract: no phrase.
    coll.add_document(Document::new().with(ti, "belief").with(ab, "update"));
    // 3: the words in two values of one field: no phrase either.
    coll.add_document(Document::new().with(au, "belief").with(au, "update"));
    // 4: truncation's expansions, spread over words and fields.
    coll.add_document(
        Document::new()
            .with(ti, "beliefs update")
            .with(inst, "believers update belief"),
    );
    // 5: an expansion near the word in a third field.
    coll.add_document(Document::new().with(ab, "update of the belief"));
    coll
}

#[test]
fn unfielded_phrase_in_two_fields_of_different_documents() {
    let coll = crossing_collection();
    let phrase = |f| SearchExpr::Term(BasicTerm::parse_text("belief update", f));
    let any = textjoin_text::eval::evaluate(&coll, &phrase(None));
    assert_eq!(any.docs.ids(), [DocId(0), DocId(1)]);
    for f in ["title", "author", "abstract", "year", "institution"] {
        check(&coll, &phrase(coll.schema().field_by_name(f))).unwrap();
    }
    check(&coll, &phrase(None)).unwrap();
    check(
        &coll,
        &SearchExpr::Term(BasicTerm::parse_text("a belief update story", None)),
    )
    .unwrap();
}

#[test]
fn prefix_near_over_several_words_and_fields() {
    // `belie?` is belief, beliefs and believers, in four fields.
    let coll = crossing_collection();
    let near = |fa, fb, distance| SearchExpr::Near {
        a: BasicTerm {
            kind: TermKind::Prefix("belie".into()),
            field: fa,
        },
        b: BasicTerm::parse_text("update", fb),
        distance,
    };
    let any = textjoin_text::eval::evaluate(&coll, &near(None, None, 1));
    assert_eq!(any.docs.ids(), [DocId(0), DocId(1), DocId(4)]);
    let wider = textjoin_text::eval::evaluate(&coll, &near(None, None, 3));
    assert_eq!(wider.docs.ids(), [DocId(0), DocId(1), DocId(4), DocId(5)]);
    let fields: Vec<Option<FieldId>> = ["title", "abstract", "institution", "year"]
        .iter()
        .map(|f| coll.schema().field_by_name(f))
        .chain([None])
        .collect();
    for &fa in &fields {
        for &fb in &fields {
            for distance in [0, 1, 3] {
                check(&coll, &near(fa, fb, distance)).unwrap();
                let SearchExpr::Near { a, b, .. } = near(fa, fb, distance) else {
                    unreachable!()
                };
                check(
                    &coll,
                    &SearchExpr::Near {
                        a: b,
                        b: a,
                        distance,
                    },
                )
                .unwrap();
            }
        }
    }
}

/// A collection skewed the way a join's instantiated searches meet it: the
/// words of `belief update` each sit in hundreds of titles (450 and 300 of
/// 900) and in a few dozen abstracts, adjacent in some documents, apart or
/// alone in others, beside author words held by one document or a handful.
/// A conjunct that lists 18 documents or fewer is 16 times under the title
/// chain's shortest head, one that lists 19 or more is not.
fn positional_collection() -> Collection {
    let schema = TextSchema::bibliographic();
    let field = |name| schema.field_by_name(name).unwrap();
    let (ti, au, ab) = (field("title"), field("author"), field("abstract"));
    let mut coll = Collection::new(schema);
    for d in 0..900usize {
        let mut doc = Document::new();
        match d {
            // Adjacent positions, but in two values of the field.
            36 => doc.push(ti, "belief").push(ti, "x update"),
            // The phrase in the second value only.
            72 => doc.push(ti, "old belief").push(ti, "belief update"),
            _ if d % 24 == 0 => doc.push(ti, "belief update notes"),
            _ if d % 12 == 0 => doc.push(ti, "belief update drafts"),
            _ if d % 6 == 0 => doc.push(ti, "update on belief"),
            _ if d % 2 == 0 => doc.push(ti, format!("belief systems s{}", d % 5)),
            _ if d % 3 == 0 => doc.push(ti, "update logs"),
            _ => doc.push(ti, "misc paper"),
        };
        match d % 50 {
            7 => doc.push(ab, "a belief update in the abstract"),
            9 => doc.push(ab, "update the belief"),
            _ => &mut doc,
        };
        doc.push(au, format!("n{}", d % 40));
        for (held, name) in [
            (d == 24, "solo"),
            (d == 6, "lonely"),
            (d == 1, "nomatch"),
            (d == 7, "abstracted"),
            (d == 36, "crossval"),
            (d == 72, "secondvalue"),
            (d % 100 == 0, "mixed"),
            (d % 48 == 12 && d < 860, "edge18"),
            (d % 48 == 24, "edge19"),
        ] {
            if held {
                doc.push(au, name);
            }
        }
        coll.add_document(doc);
    }
    coll
}

#[test]
fn positional_conjuncts_match_models() {
    let coll = positional_collection();
    let schema = coll.schema().clone();
    let (ti, au, ab) = (
        schema.field_by_name("title"),
        schema.field_by_name("author"),
        schema.field_by_name("abstract"),
    );
    // The sizes the cases below rely on.
    let df = |w, f: Option<FieldId>| coll.doc_frequency(w, f.unwrap());
    assert_eq!((df("belief", ti), df("update", ti)), (450, 300));
    assert_eq!((df("belief", ab), df("update", ab)), (36, 36));
    assert_eq!((df("edge18", au), df("edge19", au)), (18, 19));
    // 18 × 16 ≤ 300 < 19 × 16: the two edges straddle the ratio.

    let term = |w: &str, f| SearchExpr::Term(BasicTerm::parse_text(w, f));
    let phrase = term("belief update", ti);
    let near = |a: &str, b: &str, distance| SearchExpr::Near {
        a: BasicTerm::parse_text(a, ti),
        b: BasicTerm::parse_text(b, ti),
        distance,
    };
    let prefix_near = SearchExpr::Near {
        a: BasicTerm {
            kind: TermKind::Prefix("beli".into()),
            field: ti,
        },
        b: BasicTerm::parse_text("update", ti),
        distance: 1,
    };
    let and = SearchExpr::and;
    let or = SearchExpr::or;
    let not = |a, b| SearchExpr::AndNot(Box::new(a), Box::new(b));
    let rare = |w: &str| term(w, au);
    let package = or(["solo", "lonely", "nomatch", "crossval", "secondvalue"]
        .map(rare)
        .to_vec());

    let ids = |e: &SearchExpr| -> Vec<u32> {
        let out = textjoin_text::eval::evaluate(&coll, e);
        out.docs.ids().iter().map(|d| d.0).collect()
    };
    let read = |e: &SearchExpr| textjoin_text::eval::evaluate(&coll, e).postings_read;
    let len = |w: &str| list_len(&coll, |x| x == w);

    // Answers pinned outright, so the models are not all there is.
    assert_eq!(ids(&and(vec![phrase.clone(), rare("solo")])), [24]);
    assert_eq!(ids(&and(vec![rare("secondvalue"), phrase.clone()])), [72]);
    assert_eq!(ids(&and(vec![phrase.clone(), rare("crossval")])), [0u32; 0]);
    assert_eq!(ids(&and(vec![phrase.clone(), rare("lonely")])), [0u32; 0]);
    assert_eq!(
        ids(&and(vec![phrase.clone(), rare("mixed")])),
        [0, 300, 600]
    );
    assert_eq!(ids(&and(vec![phrase.clone(), package.clone()])), [24, 72]);
    assert_eq!(
        ids(&and(vec![term("belief update", None), rare("abstracted")])),
        [7]
    );
    assert_eq!(ids(&and(vec![phrase.clone(), rare("edge18")])).len(), 18);
    assert_eq!(ids(&and(vec![phrase.clone(), rare("edge19")])).len(), 19);
    // A first phrase with no answer stops the charging at its own lists; a
    // phrase with an unindexed word stops it inside the phrase.
    let never = term("notes belief", ti);
    assert_eq!(
        read(&and(vec![never.clone(), rare("solo"), package.clone()])),
        len("notes") + len("belief")
    );
    let unseen = term("belief unseen update", ti);
    assert_eq!(
        read(&and(vec![unseen.clone(), rare("solo")])),
        len("belief")
    );
    assert_eq!(
        read(&and(vec![phrase.clone(), rare("solo")])),
        len("belief") + len("update") + len("solo")
    );

    let cases = vec![
        // A phrase before, after and between rare words.
        and(vec![phrase.clone(), rare("solo")]),
        and(vec![rare("solo"), phrase.clone()]),
        and(vec![rare("mixed"), phrase.clone(), rare("n0")]),
        and(vec![phrase.clone(), rare("lonely")]),
        and(vec![phrase.clone(), rare("nomatch")]),
        and(vec![rare("nobody"), phrase.clone()]),
        // A first phrase that is empty, one that is not, one cut short.
        and(vec![never.clone(), rare("solo"), package.clone()]),
        and(vec![term("systems update", ti), rare("solo")]),
        and(vec![rare("solo"), never]),
        and(vec![unseen, rare("solo")]),
        and(vec![
            rare("solo"),
            term("belief update unseen", ti),
            rare("mixed"),
        ]),
        // Two positional conjuncts, with and without a listed one.
        and(vec![
            phrase.clone(),
            near("update", "notes", 1),
            rare("mixed"),
        ]),
        and(vec![
            rare("mixed"),
            phrase.clone(),
            near("notes", "belief", 2),
        ]),
        and(vec![phrase.clone(), near("update", "drafts", 1)]),
        and(vec![
            phrase.clone(),
            term("update notes", ti),
            rare("edge19"),
        ]),
        // Three words; the second value; two values; two fields.
        and(vec![term("belief update notes", ti), rare("solo")]),
        and(vec![term("belief update notes", ti), rare("edge18")]),
        and(vec![rare("mixed"), term("belief update drafts", None)]),
        and(vec![phrase.clone(), rare("secondvalue")]),
        and(vec![phrase.clone(), rare("crossval")]),
        and(vec![rare("crossval"), near("belief", "update", 1)]),
        and(vec![term("belief update", None), rare("abstracted")]),
        and(vec![
            term("belief update", None),
            or(vec![rare("abstracted"), rare("solo")]),
        ]),
        and(vec![term("belief update", ab), rare("abstracted")]),
        and(vec![term("n7", None), term("belief update", None)]),
        // NEAR in both operand orders, and over a truncation.
        and(vec![near("belief", "update", 2), rare("lonely")]),
        and(vec![near("update", "belief", 2), rare("lonely")]),
        and(vec![rare("mixed"), near("update", "belief", 2)]),
        and(vec![near("belief", "update", 0), rare("mixed")]),
        and(vec![prefix_near.clone(), rare("mixed")]),
        and(vec![rare("solo"), prefix_near]),
        // Nested, under an OR package, on either side of AND NOT.
        SearchExpr::And(vec![
            SearchExpr::And(vec![phrase.clone(), rare("mixed")]),
            term("notes", ti),
        ]),
        SearchExpr::And(vec![
            rare("mixed"),
            SearchExpr::And(vec![phrase.clone(), term("notes", ti)]),
        ]),
        and(vec![phrase.clone(), package.clone()]),
        and(vec![package.clone(), phrase.clone()]),
        or(vec![
            and(vec![phrase.clone(), rare("solo")]),
            and(vec![near("belief", "update", 2), rare("lonely")]),
        ]),
        not(and(vec![phrase.clone(), rare("mixed")]), term("notes", ti)),
        not(package.clone(), and(vec![phrase.clone(), package.clone()])),
        and(vec![phrase.clone(), not(rare("mixed"), term("notes", ti))]),
        and(vec![not(term("belief", ti), phrase.clone()), rare("mixed")]),
        // Candidates just under and just over the ratio, and far over it.
        and(vec![phrase.clone(), rare("edge18")]),
        and(vec![rare("edge18"), phrase.clone()]),
        and(vec![phrase.clone(), rare("edge19")]),
        and(vec![rare("edge19"), phrase.clone()]),
        and(vec![near("update", "belief", 2), rare("edge18")]),
        and(vec![near("update", "belief", 2), rare("edge19")]),
        and(vec![phrase.clone(), rare("n0")]),
        and(vec![term("paper", ti), phrase.clone()]),
        and(vec![phrase, term("belief", ti)]),
    ];
    for e in &cases {
        check(&coll, e).unwrap();
    }
}

/// A collection dense the way the benchmark's topic words are: 2 000
/// documents over a six-word vocabulary, three title words and six abstract
/// words each, so every word's title list holds about 840 documents and its
/// abstract list about 1 330, within a span of 32 bitmap words. Every
/// conjunction, difference and disjunction over such lists is marked, not
/// merged, and adjacent pairs make phrases hold in about one abstract in
/// eight.
fn dense_collection() -> Collection {
    const WORDS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "eps", "zeta"];
    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").unwrap();
    let ab = schema.field_by_name("abstract").unwrap();
    let mut coll = Collection::new(schema);
    let mut x = 17u64;
    let mut words = |n: usize| {
        let drawn: Vec<&str> = (0..n)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                WORDS[(x >> 33) as usize % WORDS.len()]
            })
            .collect();
        drawn.join(" ")
    };
    for _ in 0..2000 {
        coll.add_document(Document::new().with(ti, words(3)).with(ab, words(6)));
    }
    coll
}

#[test]
fn dense_lists_are_marked_and_match_models() {
    let coll = dense_collection();
    let ti = coll.schema().field_by_name("title");
    let ab = coll.schema().field_by_name("abstract");
    let term = |w: &str, f| SearchExpr::Term(BasicTerm::parse_text(w, f));
    let any = |f| SearchExpr::or(vec![term("beta", f), term("gamma", f), term("delta", f)]);
    let not = |a, b| SearchExpr::AndNot(Box::new(a), Box::new(b));
    let near = |a, b, f| SearchExpr::Near {
        a: BasicTerm::parse_text(a, f),
        b: BasicTerm::parse_text(b, f),
        distance: 2,
    };
    let cases = [
        // An AND over a marked OR: the listed side filtered through it.
        SearchExpr::and(vec![term("alpha", ti), any(ab)]),
        SearchExpr::and(vec![any(ab), term("alpha", ti)]),
        SearchExpr::and(vec![term("alpha", None), any(None), term("zeta", ab)]),
        SearchExpr::and(vec![any(ti), any(ab)]),
        // A NOT with a dense subtrahend, a word's or a disjunction's.
        not(term("alpha", ti), term("beta", ab)),
        not(term("alpha", None), any(None)),
        not(any(ab), term("eps", ti)),
        // A held phrase or NEAR beside a marked OR.
        SearchExpr::and(vec![term("alpha beta", ab), any(ti)]),
        SearchExpr::and(vec![any(ti), term("gamma delta", None)]),
        SearchExpr::and(vec![near("alpha", "eps", ab), any(ti)]),
        // Positional terms listed whole: the last step keeps documents only.
        term("alpha beta", ab),
        term("beta gamma delta", None),
        near("zeta", "alpha", None),
        // The union itself the answer.
        any(None),
    ];
    for e in &cases {
        check(&coll, e).unwrap();
        assert!(
            !textjoin_text::eval::evaluate(&coll, e).docs.is_empty(),
            "{e:?} matches"
        );
    }
}

/// Every posting of the index as `(word, doc, field, value_idx, pos)`.
fn flattened(coll: &Collection) -> Vec<(String, u32, FieldId, u32, u32)> {
    let mut out = Vec::new();
    for (word, list) in coll.iter_terms() {
        assert!(list.fields(None).is_sorted_by_key(|l| l.field()));
        for l in list.fields(None) {
            assert!(l.docs().windows(2).all(|w| w[0] < w[1]), "{word}: docs");
            assert_eq!(l.postings().count(), l.len());
            out.extend(
                l.postings()
                    .map(|(doc, o)| (word.to_owned(), doc.0, l.field(), o.value_idx, o.pos)),
            );
        }
        assert_eq!(
            list.fields(None).iter().map(|l| l.len()).sum::<usize>(),
            list.len()
        );
    }
    out
}

/// The same tuples from the stored documents alone.
fn tokenized(coll: &Collection) -> Vec<(String, u32, FieldId, u32, u32)> {
    let mut out = Vec::new();
    for d in 0..coll.doc_count() as u32 {
        for (field, values) in coll.document(DocId(d)).unwrap().iter() {
            for (value_idx, v) in values.iter().enumerate() {
                out.extend(
                    tokenize(v)
                        .into_iter()
                        .map(|t| (t.word, d, field, value_idx as u32, t.pos)),
                );
            }
        }
    }
    out
}

/// The layout holds exactly the documents' tokens, each once.
fn assert_layout_is_the_tokens(coll: &Collection) {
    let (mut index, mut docs) = (flattened(coll), tokenized(coll));
    assert_eq!(index.len(), coll.total_postings());
    // `flattened` is ascending as produced: by word, field, document,
    // value and position.
    assert!(index.is_sorted_by_key(|(w, d, f, v, p)| (w.clone(), *f, *d, *v, *p)));
    index.sort();
    docs.sort();
    assert_eq!(index, docs);
}

#[test]
fn layout_of_the_fixed_collections_is_their_tokens() {
    assert_layout_is_the_tokens(&wide_collection());
    assert_layout_is_the_tokens(&skewed_collection());
    assert_layout_is_the_tokens(&crossing_collection());
    assert_layout_is_the_tokens(&positional_collection());
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
    fn layout_is_the_tokens(s in spec()) {
        assert_layout_is_the_tokens(&build(&s));
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
