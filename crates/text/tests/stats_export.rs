//! Property tests: the statistics export is index-owned data handed out by
//! handle, and the handle is never stale.
//!
//! Over generated sequences of `add_document`, migration stage / commit /
//! interrupt-and-resume / abort and failover, the handle `export_stats`
//! returns always equals a from-scratch count over the stored documents
//! ([`oracle_compute`], which never reads the index, and [`oracle_merged`],
//! the per-word sum every request used to make), two calls with no mutation
//! between them return the same handle, and a mutation retires every handle
//! it made wrong.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;
use textjoin_text::doc::{DocId, Document, FieldId, TextSchema};
use textjoin_text::expr::{BasicTerm, SearchExpr, TermKind};
use textjoin_text::faults::{Fault, FaultPlan};
use textjoin_text::index::Collection;
use textjoin_text::rebalance::MigrationPlan;
use textjoin_text::server::TextServer;
use textjoin_text::shard::ShardedTextServer;
use textjoin_text::stats::VocabularyStats;
use textjoin_text::token::tokenize;
use textjoin_text::TextService;

/// What an export must say: `D` and every `(field, word)` document
/// frequency.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Model {
    doc_count: usize,
    df: BTreeMap<FieldId, HashMap<String, u32>>,
}

/// The export of `coll`, counted from the stored documents alone: a
/// `(field, word)` pair's document frequency is the number of documents
/// with the word among that field's tokens. Nothing here reads the index,
/// so the suite pins the export whatever the inverted lists look like.
fn oracle_compute(coll: &Collection) -> Model {
    let mut df: BTreeMap<FieldId, HashMap<String, u32>> = BTreeMap::new();
    for (fid, _) in coll.schema().iter() {
        df.insert(fid, HashMap::new());
    }
    for id in 0..coll.doc_count() as u32 {
        for (fid, values) in coll.document(DocId(id)).unwrap().iter() {
            let words: BTreeSet<String> = values
                .iter()
                .flat_map(|v| tokenize(v))
                .map(|t| t.word)
                .collect();
            for word in words {
                *df.entry(fid).or_default().entry(word).or_insert(0) += 1;
            }
        }
    }
    Model {
        doc_count: coll.doc_count(),
        df,
    }
}

/// Per-shard exports merged the way every request used to merge them:
/// per-word frequencies sum.
fn oracle_merged(parts: &[Model]) -> Model {
    let mut doc_count = 0;
    let mut df: BTreeMap<FieldId, HashMap<String, u32>> = BTreeMap::new();
    for part in parts {
        doc_count += part.doc_count;
        for (fid, words) in &part.df {
            let merged = df.entry(*fid).or_default();
            for (word, d) in words {
                *merged.entry(word.clone()).or_insert(0) += d;
            }
        }
    }
    Model { doc_count, df }
}

/// `handle` says exactly what `model` says: counts, aggregates rebuilt
/// from the model's frequencies, every word's fanout, and nothing more.
fn assert_says(handle: &VocabularyStats, model: &Model, what: &str) {
    assert_eq!(handle.doc_count, model.doc_count, "{what}: D");
    for (fid, words) in &model.df {
        let fs = handle
            .field(*fid)
            .unwrap_or_else(|| panic!("{what}: no field {fid:?}"));
        // As many words as the model and each of the model's present: the
        // same set.
        assert_eq!(fs.vocabulary, words.len(), "{what}: vocabulary of {fid:?}");
        let mut histogram: Vec<u64> = Vec::new();
        for (word, &d) in words {
            assert_eq!(fs.fanout(word), d, "{what}: fanout of {word:?} in {fid:?}");
            assert!(handle.occurs(word, *fid));
            let bucket = (32 - d.leading_zeros()).saturating_sub(1) as usize;
            if histogram.len() <= bucket {
                histogram.resize(bucket + 1, 0);
            }
            histogram[bucket] += 1;
        }
        assert_eq!(
            fs.total_df,
            words.values().map(|&d| u64::from(d)).sum::<u64>()
        );
        assert_eq!(fs.histogram, histogram, "{what}: histogram of {fid:?}");
        assert_eq!(fs.fanout("never-indexed"), 0);
    }
}

/// `Collection::doc_frequency` and the export answer the same question.
fn assert_doc_frequency_agrees(coll: &Collection) {
    let export = coll.vocabulary_stats();
    let model = oracle_compute(coll);
    for (fid, _) in coll.schema().iter() {
        for word in model.df.values().flat_map(HashMap::keys) {
            let df = coll.doc_frequency(word, fid) as u32;
            assert_eq!(df, export.fanout(word, fid), "{word:?} in {fid:?}");
            assert_eq!(df, model.df[&fid].get(word).copied().unwrap_or(0));
        }
        assert_eq!(coll.doc_frequency("never-indexed", fid), 0);
    }
}

/// Words over a three-letter alphabet: short, so that they share prefixes
/// and are each other's prefixes.
fn word() -> impl Strategy<Value = String> {
    "[a-c]{1,4}"
}

/// A document: title words, authors, abstract words.
type DocSpec = (Vec<String>, Vec<String>, Vec<String>);

fn doc_spec() -> impl Strategy<Value = DocSpec> {
    (
        prop::collection::vec(word(), 0..5),
        prop::collection::vec(word(), 0..3),
        prop::collection::vec(word(), 0..6),
    )
}

fn document(schema: &TextSchema, (title, authors, abstr): &DocSpec) -> Document {
    let mut d = Document::new();
    if !title.is_empty() {
        d.push(schema.field_by_name("title").unwrap(), title.join(" "));
    }
    for a in authors {
        d.push(schema.field_by_name("author").unwrap(), a.as_str());
    }
    if !abstr.is_empty() {
        d.push(schema.field_by_name("abstract").unwrap(), abstr.join(" "));
    }
    d
}

fn collection(docs: &[DocSpec]) -> Collection {
    let schema = TextSchema::bibliographic();
    let mut coll = Collection::new(schema.clone());
    for spec in docs {
        coll.add_document(document(&schema, spec));
    }
    assert_doc_frequency_agrees(&coll);
    coll
}

/// One step against a sharded server.
#[derive(Debug, Clone)]
enum Op {
    /// Stage a seeded plan (skipped while a migration is in flight).
    Stage {
        seed: u64,
        moves: usize,
        batch: usize,
    },
    /// Run one batch. With `interrupt`, every replica of the destination
    /// refuses once first: the batch stays in flight and the next one
    /// resumes it from the journal.
    Batch { interrupt: bool },
    /// Abandon the current move.
    Abort,
    /// Kill a shard's primary for good, then search: the leg is served by
    /// a secondary (or fails, with one replica).
    Failover { shard: usize },
    /// A scatter search, which also ticks a paced migration.
    Search,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..1000, 1usize..4, 1usize..5).prop_map(|(seed, moves, batch)| Op::Stage {
            seed,
            moves,
            batch
        }),
        prop::bool::ANY.prop_map(|interrupt| Op::Batch { interrupt }),
        (0u8..1).prop_map(|_| Op::Abort),
        (0usize..8).prop_map(|shard| Op::Failover { shard }),
        (0u8..1).prop_map(|_| Op::Search),
    ]
}

/// The per-shard models of `sharded`, from the shard collections as they
/// physically are (staged copies and moved-away originals included — the
/// export describes the index, not the routing).
fn shard_models(sharded: &ShardedTextServer) -> Vec<Model> {
    (0..sharded.shard_count())
        .map(|i| oracle_compute(sharded.shard(i).collection()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A collection's handle is built once per content version:
    /// `add_document` retires it, nothing else does, and a retired handle
    /// keeps describing the content it was built from.
    #[test]
    fn collection_handle_follows_add_document(
        docs in prop::collection::vec(doc_spec(), 1..12),
        ask_every in 1usize..4,
    ) {
        let schema = TextSchema::bibliographic();
        let mut coll = Collection::new(schema.clone());
        let mut retired: Vec<(VocabularyStats, Model)> = Vec::new();
        for (i, spec) in docs.iter().enumerate() {
            coll.add_document(document(&schema, spec));
            if i % ask_every != 0 {
                continue;
            }
            let model = oracle_compute(&coll);
            let handle = coll.vocabulary_stats().clone();
            assert_says(&handle, &model, "after add_document");
            assert_doc_frequency_agrees(&coll);
            prop_assert_eq!(&handle, &VocabularyStats::compute(&coll));
            prop_assert!(handle.ptr_eq(coll.vocabulary_stats()), "no mutation, same handle");
            for (old, _) in &retired {
                prop_assert!(!handle.ptr_eq(old), "a retired handle came back");
            }
            // A copy shares the handle until one of the two changes, and
            // then each answers for its own content.
            let mut copy = coll.clone();
            prop_assert!(copy.vocabulary_stats().ptr_eq(&handle));
            copy.add_document(document(&schema, spec));
            prop_assert!(!copy.vocabulary_stats().ptr_eq(&handle));
            assert_says(copy.vocabulary_stats(), &oracle_compute(&copy), "the copy");
            prop_assert!(coll.vocabulary_stats().ptr_eq(&handle), "the original kept its own");
            retired.push((handle, model));
        }
        for (old, model) in &retired {
            assert_says(old, model, "a retired handle");
        }
    }

    /// The merged export of any partition equals the single server's.
    #[test]
    fn merged_export_equals_the_single_servers(
        docs in prop::collection::vec(doc_spec(), 1..40),
        shards in 1usize..7,
        replicas in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let coll = collection(&docs);
        let single = TextServer::new(coll.clone());
        let sharded = ShardedTextServer::replicated(&coll, shards, replicas, seed);
        let want = single.export_stats();
        let got = TextService::export_stats(&sharded);
        prop_assert_eq!(&got, &want);
        assert_says(&got, &oracle_compute(&coll), "merged");
        assert_says(&got, &oracle_merged(&shard_models(&sharded)), "merged, by shard");
        prop_assert!(got.ptr_eq(&TextService::export_stats(&sharded)));
        prop_assert!(want.ptr_eq(&single.export_stats()));
        prop_assert_eq!(TextService::usage(&sharded).total_cost(), 0.0, "export is free");
        prop_assert_eq!(single.usage().total_cost(), 0.0, "export is free");
    }

    /// Whatever a sharded server goes through, its export, its routing
    /// masks and its snapshot describe the shard contents of that moment;
    /// only staging (the one step that changes content) replaces handles.
    #[test]
    fn sharded_export_is_never_stale(
        docs in prop::collection::vec(doc_spec(), 4..30),
        shards in 2usize..5,
        replicas in 1usize..3,
        seed in 0u64..1_000_000,
        pacing in 0u64..3,
        ops in prop::collection::vec(op(), 1..16),
    ) {
        let coll = collection(&docs);
        let schema = coll.schema().clone();
        let title = schema.field_by_name("title").unwrap();
        let mut sharded = ShardedTextServer::replicated(&coll, shards, replicas, seed);
        sharded.set_stats_routing(true);
        sharded.set_migration_pacing(pacing);
        let query = SearchExpr::term_in("a", title);

        let mut models = shard_models(&sharded);
        let mut handle = TextService::export_stats(&sharded);
        let mut parts: Vec<VocabularyStats> =
            (0..shards).map(|i| sharded.shard(i).export_stats()).collect();
        assert_says(&handle, &oracle_merged(&models), "at start");

        for op in &ops {
            match *op {
                Op::Stage { seed, moves, batch } => {
                    if !sharded.migration_active() {
                        sharded.begin_migration(MigrationPlan::seeded(
                            seed,
                            shards,
                            coll.doc_count(),
                            moves,
                            batch,
                        ));
                    }
                }
                Op::Batch { interrupt } => {
                    if let (true, Some((_, _, dst))) = (interrupt, sharded.current_move()) {
                        for r in 0..replicas {
                            sharded
                                .replica_mut(dst, r)
                                .set_fault_plan(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
                        }
                    }
                    let _ = sharded.migrate_batch();
                }
                Op::Abort => {
                    sharded.abort_current_move();
                }
                Op::Failover { shard } => {
                    let shard = shard % shards;
                    let primary = sharded.primary_of(shard);
                    sharded
                        .replica_mut(shard, primary)
                        .set_fault_plan(FaultPlan::dead(seed));
                    let _ = TextService::search(&sharded, &query);
                }
                Op::Search => {
                    let _ = TextService::search(&sharded, &query);
                }
            }

            let now = shard_models(&sharded);
            let got = TextService::export_stats(&sharded);
            prop_assert!(got.ptr_eq(&TextService::export_stats(&sharded)), "{op:?}: asked twice");
            assert_says(&got, &oracle_merged(&now), &format!("after {op:?}"));
            let fresh: Vec<VocabularyStats> = (0..shards)
                .map(|i| VocabularyStats::compute(sharded.shard(i).collection()))
                .collect();
            prop_assert_eq!(&got, &VocabularyStats::merged(&fresh));

            // A handle is replaced exactly where content changed.
            for i in 0..shards {
                let part = sharded.shard(i).export_stats();
                prop_assert_eq!(part.ptr_eq(&parts[i]), now[i] == models[i], "{op:?}: shard {i}");
                assert_says(&part, &now[i], "a shard's export");
                parts[i] = part;
            }
            prop_assert_eq!(got.ptr_eq(&handle), now == models, "{op:?}: merged");
            assert_says(&handle, &oracle_merged(&models), "the handle held across the step");

            // Routing reads the same statistics.
            for text in ["a", "b", "abc", "cc", "zz"] {
                for (kind, present) in [
                    (TermKind::Word(text.into()), (|w: &str, t: &str| w == t) as fn(&str, &str) -> bool),
                    (TermKind::Prefix(text.into()), |w: &str, t: &str| w.starts_with(t)),
                ] {
                    let expr = SearchExpr::Term(BasicTerm { kind, field: Some(title) });
                    let want: Vec<bool> = now
                        .iter()
                        .map(|m| m.df[&title].keys().any(|w| present(w, text)))
                        .collect();
                    prop_assert_eq!(sharded.relevant_shards(&expr), want, "{op:?}: {expr:?}");
                }
            }

            models = now;
            handle = got;
        }
    }

    /// `occurs_prefix` is a range seek over sorted words; the definition is
    /// the linear scan.
    #[test]
    fn occurs_prefix_is_the_linear_scan(
        docs in prop::collection::vec(doc_spec(), 0..12),
        probes in prop::collection::vec("[a-d]{0,5}", 1..24),
    ) {
        let coll = collection(&docs);
        let stats = coll.vocabulary_stats();
        let model = oracle_compute(&coll);
        for (fid, words) in &model.df {
            let fs = stats.field(*fid).unwrap();
            // The empty prefix, every generated probe, and every prefix of
            // every word the field holds.
            let held = words.keys().flat_map(|w| (1..=w.len()).map(move |n| &w[..n]));
            for prefix in std::iter::once("").chain(probes.iter().map(String::as_str)).chain(held) {
                prop_assert_eq!(
                    fs.occurs_prefix(prefix),
                    words.keys().any(|w| w.starts_with(prefix)),
                    "{prefix:?} in {fid:?} over {words:?}"
                );
            }
        }
    }
}
