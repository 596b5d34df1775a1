//! Property: a search result is the collection's short forms, hit for hit.
//!
//! For generated collections and expressions, every `search`, `search_str`
//! and `search_batch` answer equals the `ShortDoc`s that
//! `Collection::short_form` builds for the ids `evaluate` finds: the same
//! ids in the same order, the same values in every field (none in a
//! long-form one), the same `==` and the same `Debug` bytes. It is checked
//! on a lone server, on a 1×1 topology, and on a replicated 4×2 topology
//! with a migration staged but not committed (hidden copies on the
//! destinations), then again with one batch committed (hidden originals on
//! the source, visible copies out of docid order on the destination).

use proptest::prelude::*;
use textjoin_text::doc::{Document, ShortDoc, TextSchema};
use textjoin_text::eval::evaluate;
use textjoin_text::expr::{BasicTerm, SearchExpr, TermKind};
use textjoin_text::index::Collection;
use textjoin_text::parse::parse_search;
use textjoin_text::rebalance::MigrationPlan;
use textjoin_text::server::{SearchResult, TextServer};
use textjoin_text::service::TextService;
use textjoin_text::shard::ShardedTextServer;

const VOCAB: &[&str] = &["join", "text", "query", "probe", "semi", "tuple"];

/// Fields a term may name; an index past the end is "any field".
const FIELDS: &[&str] = &["title", "author", "abstract", "year"];

/// One document: title words, authors, abstract words, a year offset.
type DocSpec = (Vec<&'static str>, Vec<&'static str>, Vec<&'static str>, u8);

fn docs() -> impl Strategy<Value = Vec<DocSpec>> {
    let word = || prop::sample::select(VOCAB);
    prop::collection::vec(
        (
            prop::collection::vec(word(), 0..4),
            prop::collection::vec(word(), 0..3),
            prop::collection::vec(word(), 0..5),
            0u8..4,
        ),
        1..40,
    )
}

fn build(docs: &[DocSpec]) -> Collection {
    let schema = TextSchema::bibliographic();
    let [ti, au, ab, yr] = ["title", "author", "abstract", "year"]
        .map(|f| schema.field_by_name(f).expect("bibliographic field"));
    let mut coll = Collection::new(schema);
    for (title, authors, abstr, year) in docs {
        let mut d = Document::new().with(yr, format!("{}", 1990 + u16::from(*year)));
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

/// Words, two-word phrases and truncations, fielded or not, under `and`,
/// `or` and `not`.
fn expr() -> BoxedStrategy<SearchExpr> {
    let word = || prop::sample::select(VOCAB);
    let leaf = (word(), word(), 0usize..FIELDS.len() + 1, 0u8..3).prop_map(|(w, w2, f, kind)| {
        let field = FIELDS
            .get(f)
            .and_then(|name| TextSchema::bibliographic().field_by_name(name));
        SearchExpr::Term(match kind {
            0 => BasicTerm::parse_text(w, field),
            1 => BasicTerm::parse_text(&format!("{w} {w2}"), field),
            _ => BasicTerm {
                kind: TermKind::Prefix(w[..2].to_owned()),
                field,
            },
        })
    });
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(SearchExpr::and),
            prop::collection::vec(inner.clone(), 1..3).prop_map(SearchExpr::or),
            (inner.clone(), inner).prop_map(|(a, b)| SearchExpr::AndNot(Box::new(a), Box::new(b))),
        ]
    })
    .boxed()
}

/// What every service must answer `expr` with: the evaluator's ids, each
/// as the collection's own short form.
fn short_forms(coll: &Collection, expr: &SearchExpr) -> Vec<ShortDoc> {
    evaluate(coll, expr)
        .docs
        .ids()
        .iter()
        .map(|&id| coll.short_form(id).expect("the evaluator finds stored ids"))
        .collect()
}

/// `got` against `want`, hit for hit and as a whole.
fn check(got: &SearchResult, want: &[ShortDoc], schema: &TextSchema) {
    assert_eq!(got.len(), want.len());
    assert_eq!(got.ids(), want.iter().map(|d| d.id).collect::<Vec<_>>());
    let mut hits = 0;
    for (hit, want) in got.docs.iter().zip(want) {
        assert_eq!(hit.id, want.id);
        for (f, _) in schema.iter() {
            assert_eq!(hit.values(f), want.values(f), "{} in field {f:?}", want.id);
        }
        assert!(hit.short_form_fields().eq(want.short_form_fields()));
        assert_eq!(format!("{hit:?}"), format!("{want:?}"));
        assert!(hit.to_owned() == *want, "{want:?}");
        hits += 1;
    }
    assert_eq!(hits, want.len());
    assert_eq!(format!("{:?}", got.docs), format!("{want:?}"));
    let owned: Vec<ShortDoc> = got.docs.clone().into_iter().collect();
    assert_eq!(owned, want);
}

/// Every search path of `s` over `exprs` against the short forms of `coll`.
fn check_service(
    s: &dyn TextService,
    coll: &Collection,
    exprs: &[SearchExpr],
    want: &[Vec<ShortDoc>],
) {
    let schema = coll.schema();
    for (e, want) in exprs.iter().zip(want) {
        check(&s.search(e).expect("within the term cap"), want, schema);
        let shown = e.display(schema).to_string();
        let parsed = parse_search(&shown, schema).expect("a displayed search parses");
        let got = s.search_str(&shown).expect("within the term cap");
        check(&got, &short_forms(coll, &parsed), schema);
    }
    let batch = s.search_batch(exprs).expect("within the term cap");
    assert_eq!(batch.results.len(), exprs.len());
    for (got, want) in batch.results.iter().zip(want) {
        check(got, want, schema);
    }
}

/// Checks `exprs` on the lone server, the 1×1 topology and the 4×2 one,
/// staged and then with one batch committed.
fn check_topologies(coll: &Collection, exprs: &[SearchExpr], seed: u64) {
    let want: Vec<Vec<ShortDoc>> = exprs.iter().map(|e| short_forms(coll, e)).collect();
    let lone = TextServer::new(coll.clone());
    let one = ShardedTextServer::new(coll, 1, seed);
    let mut wide = ShardedTextServer::replicated(coll, 4, 2, seed);
    // Pruned shards answer with a free empty part, which the merge skips.
    wide.set_stats_routing(seed.is_multiple_of(2));
    wide.begin_migration(MigrationPlan::seeded(seed, 4, coll.doc_count(), 2, 3));
    for s in [&lone as &dyn TextService, &one, &wide] {
        check_service(s, coll, exprs, &want);
    }
    wide.migrate_batch().expect("a fault-free batch commits");
    check_service(&wide, coll, exprs, &want);
    // Results built over different stores compare by what they show.
    for e in exprs {
        assert_eq!(
            TextService::search(&wide, e).unwrap(),
            lone.search(e).unwrap()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_result_is_the_collections_short_forms(
        docs in docs(),
        exprs in prop::collection::vec(expr(), 1..4),
        seed in 0u64..1_000,
    ) {
        check_topologies(&build(&docs), &exprs, seed);
    }
}

/// A collection of a few thousand documents: hits read from every part of
/// the lone server's store, and from many documents per shard.
#[test]
fn results_read_across_a_large_store() {
    let docs: Vec<DocSpec> = (0..2_600)
        .map(|i| {
            let w = |k: usize| VOCAB[(i * 7 + k * 3) % VOCAB.len()];
            (
                vec![w(0), w(1)],
                vec![w(2)],
                vec![w(3), w(4), w(5)],
                (i % 4) as u8,
            )
        })
        .collect();
    let coll = build(&docs);
    let schema = coll.schema();
    let exprs: Vec<SearchExpr> = [
        "TI=join",
        "AU=text or AB='probe semi'",
        "TI=qu? not AB=tuple",
    ]
    .iter()
    .map(|q| parse_search(q, schema).expect("a valid search"))
    .collect();
    check_topologies(&coll, &exprs, 7);
}
