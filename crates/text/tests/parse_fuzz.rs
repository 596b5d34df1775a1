//! Properties of the Mercury-syntax parser, the text half of the "total
//! parsers" item: it never panics on generated input, `search_str` is
//! `parse_search` followed by `search` and nothing more, and what
//! `display` prints parses back to the expression it printed — with one
//! pinned, documented exception ([`multi_char_fold_does_not_round_trip`]).

use proptest::prelude::*;
use textjoin_text::doc::{DocId, Document, FieldId, TextSchema};
use textjoin_text::expr::{BasicTerm, SearchExpr, TermKind};
use textjoin_text::index::Collection;
use textjoin_text::parse::parse_search;
use textjoin_text::server::{TextError, TextServer};
use textjoin_text::token::tokenize;

/// What query strings are made of: every token class of the grammar, whole
/// and broken (unbalanced quotes and parentheses, bare `=` and `?`, `near`
/// with no distance and with one no `u32` holds), known and unknown field
/// aliases, words of the collection, and text outside ASCII.
const PIECES: &[&str] = &[
    "'",
    "\"",
    "(",
    ")",
    "=",
    "?",
    " ",
    "  ",
    "\t",
    "\n",
    "-",
    "_",
    "!",
    ",",
    "and",
    "AND",
    "or",
    "not",
    "near",
    "near3",
    "NEAR0",
    "near123456789012",
    "near-1",
    "TI",
    "ti",
    "AU",
    "AB",
    "YR",
    "title",
    "XX",
    "red",
    "green",
    "blue",
    "Red",
    "gre",
    "1993",
    "é",
    "İ",
    "ß",
    "日本",
    "\u{307}",
    "\u{0}",
];

/// Pieces, run together or spaced apart at random: both `TI=red` and
/// `TIred`, both `near3` as an operator and as the tail of a word.
fn query() -> impl Strategy<Value = String> {
    prop::collection::vec((prop::sample::select(PIECES), prop::bool::ANY), 0..16).prop_map(|ps| {
        ps.iter()
            .map(|&(piece, spaced)| format!("{piece}{}", if spaced { " " } else { "" }))
            .collect()
    })
}

/// Well-formed queries over the same vocabulary, so that most of them
/// parse and many of them match.
fn well_formed() -> impl Strategy<Value = String> {
    const FIELD: &[&str] = &["", "TI=", "AU=", "AB=", "title="];
    const TEXT: &[&str] = &[
        "red",
        "'green'",
        "'red green'",
        "gre?",
        "'blue?'",
        "Blue",
        "''",
    ];
    const JOIN: &[&str] = &[" and ", " or ", " not ", " near2 ", " near "];
    let term = (prop::sample::select(FIELD), prop::sample::select(TEXT))
        .prop_map(|(f, t)| format!("{f}{t}"));
    (
        term,
        prop::collection::vec(
            (
                prop::sample::select(JOIN),
                (prop::sample::select(FIELD), prop::sample::select(TEXT)),
                prop::bool::ANY,
            ),
            0..5,
        ),
    )
        .prop_map(|(first, rest)| {
            let mut q = first;
            for (join, (f, t), paren) in rest {
                q = if paren {
                    format!("({q}){join}{f}{t}")
                } else {
                    format!("{q}{join}{f}{t}")
                };
            }
            q
        })
}

fn collection() -> Collection {
    let schema = TextSchema::bibliographic();
    let field = |name| schema.field_by_name(name).unwrap();
    let (ti, au, ab) = (field("title"), field("author"), field("abstract"));
    let mut coll = Collection::new(schema);
    let words = ["red", "green", "blue", "grey", "1993"];
    for d in 0..24usize {
        let w = |k: usize| words[(d * 3 + k * 7) % words.len()];
        coll.add_document(
            Document::new()
                .with(ti, format!("{} {}", w(0), w(1)))
                .with(au, w(2))
                .with(ab, format!("{} {} {} {}", w(1), w(3), w(0), w(4))),
        );
    }
    coll
}

/// An answer reduced to what two entry points must agree on.
fn outcome(
    r: Result<textjoin_text::server::SearchResult, TextError>,
) -> Result<Vec<DocId>, TextError> {
    r.map(|r| r.ids())
}

/// Words `tokenize` maps to themselves, one to a token.
const FIXED_POINTS: &[&str] = &[
    "red", "green", "x1", "42", "über", "日本", "and", "near3", "ß",
];

fn fixed_point() -> impl Strategy<Value = String> {
    prop::sample::select(FIXED_POINTS).prop_map(str::to_owned)
}

fn any_field() -> impl Strategy<Value = Option<FieldId>> {
    (0u16..7).prop_map(|f| (f < 5).then_some(FieldId(f)))
}

fn basic_term() -> impl Strategy<Value = BasicTerm> {
    let kind = prop_oneof![
        fixed_point().prop_map(TermKind::Word),
        fixed_point().prop_map(TermKind::Prefix),
        prop::collection::vec(fixed_point(), 2..5).prop_map(TermKind::Phrase),
        // The empty word and the empty truncation print as `''` and `'?'`.
        (0u8..2).prop_map(|k| match k {
            0 => TermKind::Word(String::new()),
            _ => TermKind::Prefix(String::new()),
        }),
    ];
    (kind, any_field()).prop_map(|(kind, field)| BasicTerm { kind, field })
}

/// Expression trees in the shape the constructors (and so the parser)
/// keep: no `And` directly under `And`, no single-child connective.
fn expr() -> BoxedStrategy<SearchExpr> {
    let leaf = prop_oneof![
        basic_term().prop_map(SearchExpr::Term),
        (basic_term(), basic_term(), 0u32..u32::MAX)
            .prop_map(|(a, b, distance)| SearchExpr::Near { a, b, distance }),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(SearchExpr::and),
            prop::collection::vec(inner.clone(), 1..4).prop_map(SearchExpr::or),
            (inner.clone(), inner).prop_map(|(a, b)| SearchExpr::AndNot(Box::new(a), Box::new(b))),
        ]
    })
    .boxed()
}

#[test]
fn fixed_points_are_fixed_points() {
    for w in FIXED_POINTS {
        let toks = tokenize(w);
        assert_eq!(toks.len(), 1, "{w}");
        assert_eq!(toks[0].word, *w);
    }
}

/// `İ` lower-cases to `i` + U+0307. The combining dot is kept inside the
/// word when it comes out of a fold, but it is not a word character on
/// its own: `display` prints the normalized word, and parsing that text
/// splits it at the dot. Known and documented, not fixed here — a term
/// built by `parse_text` is searched as built; only the printed form is
/// not a faithful query.
#[test]
fn multi_char_fold_does_not_round_trip() {
    let schema = TextSchema::bibliographic();
    let term = SearchExpr::Term(BasicTerm::parse_text("İnot", None));
    assert_eq!(
        term,
        SearchExpr::Term(BasicTerm {
            kind: TermKind::Word("i\u{307}not".into()),
            field: None,
        })
    );
    let shown = term.display(&schema).to_string();
    assert_eq!(shown, "'i\u{307}not'");
    let back = parse_search(&shown, &schema).unwrap();
    assert_eq!(
        back,
        SearchExpr::Term(BasicTerm {
            kind: TermKind::Phrase(vec!["i".into(), "not".into()]),
            field: None,
        })
    );
    // The indexed side folds the same way, so the term as built still
    // finds the document.
    let ti = schema.field_by_name("title").unwrap();
    let mut coll = Collection::new(schema);
    coll.add_document(Document::new().with(ti, "İNOT"));
    let server = TextServer::new(coll);
    assert_eq!(server.search(&term).unwrap().ids(), [DocId(0)]);
    assert!(server.search(&back).unwrap().ids().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Any string is either an expression or a located error.
    #[test]
    fn parse_is_total(q in prop_oneof![query(), well_formed()]) {
        let schema = TextSchema::bibliographic();
        match parse_search(&q, &schema) {
            Ok(e) => {
                prop_assert!(e.term_count() >= 1, "{q:?} parsed to {e:?}");
                // What parsed prints, and the print parses.
                let shown = e.display(&schema).to_string();
                prop_assert!(parse_search(&shown, &schema).is_ok(), "{q:?} -> {shown:?}");
            }
            Err(err) => {
                prop_assert!(err.offset <= q.len(), "{q:?}: {err}");
                prop_assert!(!err.message.is_empty());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `search_str(q)` is `search(&parse_search(q)?)`: the same docids or
    /// the same error, and ledgers that never part — over a stream of
    /// queries, so that the second property covers accumulated charges.
    #[test]
    fn search_str_is_parse_then_search(
        broken in prop::collection::vec(query(), 32..33),
        formed in prop::collection::vec(well_formed(), 96..97),
        cap in 2usize..9,
    ) {
        let coll = collection();
        let schema = coll.schema().clone();
        let (mut by_str, mut by_expr) = (TextServer::new(coll.clone()), TextServer::new(coll));
        by_str.set_max_terms(cap);
        by_expr.set_max_terms(cap);
        let mut answered = 0;
        for q in broken.iter().chain(&formed) {
            let before = by_str.usage();
            let got = outcome(by_str.search_str(q));
            let want = match parse_search(q, &schema) {
                Ok(e) => outcome(by_expr.search(&e)),
                Err(err) => Err(TextError::Parse(err)),
            };
            prop_assert_eq!(&got, &want, "{:?}", q);
            prop_assert_eq!(by_str.usage(), by_expr.usage(), "{:?}", q);
            if matches!(got, Err(TextError::Parse(_))) {
                prop_assert_eq!(by_str.usage(), before, "a parse error charges nothing");
            }
            answered += usize::from(got.is_ok_and(|ids| !ids.is_empty()));
        }
        prop_assert!(answered >= 8, "only {answered} queries matched anything");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// `parse(display(e)) == e` for expressions whose words are fixed
    /// points of `tokenize`.
    #[test]
    fn display_round_trips(e in expr()) {
        let schema = TextSchema::bibliographic();
        let shown = e.display(&schema).to_string();
        let back = parse_search(&shown, &schema);
        prop_assert_eq!(back.as_ref(), Ok(&e), "{}", shown);
    }
}
