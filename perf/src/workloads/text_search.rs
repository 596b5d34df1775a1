//! `text_search`: the text engine alone.
//!
//! One `TextServer` over a scale-10 world (≈21k documents, ≈450k
//! postings — the index is far larger than L2). A round is a seeded,
//! fixed list of calls into the server's public surface covering every
//! expression class the evaluator distinguishes — word, phrase, AND/OR,
//! NOT, truncation, proximity, and a 70-term SJ-shaped OR package (the
//! term cap `M`) — through `search`, `search_str`, `probe`,
//! `search_batch` and `retrieve_all`, plus the write side: re-indexing a
//! 500-document slice into a fresh `Collection`. `rel`, `core` and `obs`
//! do nothing here, so an index-layout or evaluator change must show on
//! this workload first, and one that speeds reads but slows
//! `add_document` shows in the same round (and in `setup_s`).
//!
//! All search terms come from the 40-word topic vocabulary, whose words
//! are equally frequent by construction, and author names from the
//! student table, so the amount of work barely depends on the seed even
//! though every term, name and document does.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use textjoin_text::doc::{DocId, Document};
use textjoin_text::expr::SearchExpr;
use textjoin_text::index::Collection;
use textjoin_text::parse::parse_search;
use textjoin_text::server::{SearchResult, TextServer};
use textjoin_workload::names::TOPICS;
use textjoin_workload::world::World;

use super::{fold, generate, p50, rng, RoundOutcome, Size, Workload, FNV, MS, US};
use crate::metrics::Values;
use crate::oracle;
use crate::span::{total_ns, Span, Tracer, ROUND};

/// World scale (multiples of the default world).
const SCALE: usize = 10;

/// Documents re-indexed per round.
const REINDEX_DOCS: usize = 500;

/// Terms in the OR package: the text system's cap `M`.
const PACKAGE_TERMS: usize = 70;

/// How many operations of each kind a round holds. Sized so a round takes
/// 60–100 ms on the reference box with no class above a third of it.
struct Mix {
    per_class: usize,
    prefix: usize,
    package: usize,
    probes: usize,
    batches: usize,
    batch_width: usize,
    retrieves: usize,
    retrieve_width: usize,
}

const FULL: Mix = Mix {
    per_class: 12,
    prefix: 8,
    package: 8,
    probes: 16,
    batches: 8,
    batch_width: 8,
    retrieves: 8,
    retrieve_width: 16,
};

const SMOKE: Mix = Mix {
    per_class: 2,
    prefix: 2,
    package: 2,
    probes: 2,
    batches: 1,
    batch_width: 4,
    retrieves: 1,
    retrieve_width: 4,
};

/// One operation of the round.
enum Op {
    /// `parse_search` alone (the front half of every `search_str`).
    Parse(String),
    /// `TextServer::search` on a prebuilt expression.
    Search(&'static str, SearchExpr),
    /// `TextServer::search_str`; the expression is kept for the oracle.
    SearchStr(&'static str, String, SearchExpr),
    /// `TextServer::probe`.
    Probe(SearchExpr),
    /// `TextServer::search_batch`.
    Batch(Vec<SearchExpr>),
    /// `TextServer::retrieve_all`.
    Retrieve(Vec<DocId>),
    /// Index `REINDEX_DOCS` documents into a fresh collection.
    Reindex,
}

/// The workload state.
pub struct TextSearch {
    world: World,
    ops: Vec<Op>,
    /// The documents the re-index slice copies, and this round's copy.
    slice: std::ops::Range<usize>,
    slice_copy: std::cell::RefCell<Vec<Document>>,
}

fn ids_checksum(ids: impl Iterator<Item = DocId>) -> u64 {
    let (mut n, mut sum) = (0u64, 0u64);
    for id in ids {
        n += 1;
        sum = sum.wrapping_add(u64::from(id.0).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }
    fold(fold(FNV, n), sum)
}

impl TextSearch {
    /// Generates the world and the seeded operation list.
    pub fn setup(seed: u64, size: Size, t: &Tracer) -> Self {
        let (scale, mix) = match size {
            Size::Full => (SCALE, &FULL),
            Size::Smoke => (1, &SMOKE),
        };
        let world = generate(seed, scale, t);
        let ops = build_ops(&world, seed, mix);
        let docs = world.server.doc_count();
        let len = REINDEX_DOCS.min(docs);
        let start = rng(seed, 7).gen_range(0..docs - len + 1);
        Self {
            world,
            ops,
            slice: start..start + len,
            slice_copy: Default::default(),
        }
    }

    fn server(&self) -> &TextServer {
        &self.world.server
    }

    /// A copy of the documents the re-index operation indexes.
    fn slice_docs(&self) -> Vec<Document> {
        let coll = self.world.server.collection();
        self.slice
            .clone()
            .map(|i| {
                coll.document(DocId(i as u32))
                    .expect("slice is in range")
                    .clone()
            })
            .collect()
    }

    /// The operation list's strings, for the seed-plumbing test.
    pub fn describe(&self) -> Vec<String> {
        let schema = self.server().collection().schema();
        self.ops
            .iter()
            .map(|op| match op {
                Op::Parse(q) | Op::SearchStr(_, q, _) => q.clone(),
                Op::Search(_, e) | Op::Probe(e) => e.display(schema).to_string(),
                Op::Batch(es) => es
                    .iter()
                    .map(|e| e.display(schema).to_string())
                    .collect::<Vec<_>>()
                    .join(" | "),
                Op::Retrieve(ids) => format!("{ids:?}"),
                Op::Reindex => "reindex".to_owned(),
            })
            .collect()
    }

    /// Runs one operation, returning its result checksum (`None` on error)
    /// and, when `keep` is set, the docids it answered with. The span
    /// covers the call *and* the release of what it returned: freeing a
    /// result set is part of what the call costs its caller.
    fn run_op(&self, op: &Op, t: &Tracer, keep: Option<&mut Vec<Vec<DocId>>>) -> Option<u64> {
        let server = self.server();
        let want_ids = keep.is_some();
        let ids_of = |r: &SearchResult| if want_ids { vec![r.ids()] } else { Vec::new() };
        let digest = |r: &SearchResult| ids_checksum(r.docs.iter().map(|d| d.id));
        let (sum, kept): (u64, Vec<Vec<DocId>>) = match op {
            Op::Parse(q) => {
                let schema = server.collection().schema();
                let terms = t.time("text.parse", || {
                    parse_search(q, schema).map(|e| e.term_count())
                });
                (terms.ok()? as u64, Vec::new())
            }
            Op::Search(name, e) => t.time(name, || {
                let r = server.search(e).ok()?;
                Some((digest(&r), ids_of(&r)))
            })?,
            Op::SearchStr(name, q, _) => t.time(name, || {
                let r = server.search_str(q).ok()?;
                Some((digest(&r), ids_of(&r)))
            })?,
            Op::Probe(e) => t.time("text.probe", || {
                let ids = server.probe(e).ok()?;
                let sum = ids_checksum(ids.iter().copied());
                Some((sum, if want_ids { vec![ids] } else { Vec::new() }))
            })?,
            Op::Batch(es) => t.time("text.search_batch", || {
                let b = server.search_batch(es).ok()?;
                let sum = b.results.iter().fold(FNV, |h, r| fold(h, digest(r)));
                Some((sum, b.results.iter().flat_map(ids_of).collect()))
            })?,
            Op::Retrieve(ids) => t.time("text.retrieve", || {
                let docs = server.retrieve_all(ids).ok()?;
                if want_ids {
                    let coll = server.collection();
                    if !ids
                        .iter()
                        .zip(&docs)
                        .all(|(id, d)| coll.document(*id) == Some(d))
                    {
                        return None;
                    }
                }
                let sum = docs.iter().fold(fold(FNV, docs.len() as u64), |h, d| {
                    fold(h, d.value_count() as u64)
                });
                Some((sum, Vec::new()))
            })?,
            Op::Reindex => {
                let schema = server.collection().schema().clone();
                // Taken, not cloned: `prepare` made this round's copy.
                let docs = self.slice_copy.take();
                t.time("text.index_build", || {
                    let mut fresh = Collection::new(schema);
                    for d in docs {
                        fresh.add_document(d);
                    }
                    let sum = fold(
                        fold(FNV, fresh.total_postings() as u64),
                        fresh.vocabulary_size() as u64,
                    );
                    (sum, Vec::new())
                })
            }
        };
        if let Some(k) = keep {
            k.extend(kept);
        }
        Some(sum)
    }

    /// The expressions behind the docid lists `run_op(.., keep)` returns,
    /// in the same order.
    fn oracle_exprs(&self) -> Vec<&SearchExpr> {
        let mut out = Vec::new();
        for op in &self.ops {
            match op {
                Op::Search(_, e) | Op::SearchStr(_, _, e) | Op::Probe(e) => out.push(e),
                Op::Batch(es) => out.extend(es.iter()),
                Op::Parse(_) | Op::Retrieve(_) | Op::Reindex => {}
            }
        }
        out
    }
}

fn build_ops(world: &World, seed: u64, mix: &Mix) -> Vec<Op> {
    let schema = world.server.collection().schema();
    let parse = |q: &str| parse_search(q, schema).expect("generated queries are well formed");
    let mut rng = rng(seed, 1);
    let mut topic = {
        let mut pool: Vec<&str> = Vec::new();
        move |rng: &mut StdRng| {
            if pool.is_empty() {
                pool = TOPICS.to_vec();
                pool.shuffle(rng);
            }
            pool.pop().expect("refilled above")
        }
    };
    let student = world.catalog.table("student").expect("world has student");
    let mut names: Vec<String> = student
        .column_values(student.col("name"))
        .iter()
        .filter_map(|v| v.as_str().map(str::to_owned))
        .collect();
    names.shuffle(&mut rng);
    let mut next_name = {
        let mut i = 0usize;
        move || {
            i += 1;
            names[(i - 1) % names.len()].clone()
        }
    };

    let mut ops: Vec<Op> = Vec::new();
    // Alternate the two entry points so both `search` and `search_str`
    // see every class. (Counted in pushes, not in `ops.len()`: the
    // `search_str` branch adds two operations.)
    let mut pushes = 0usize;
    let mut push = |ops: &mut Vec<Op>, name: &'static str, q: String| {
        let e = parse(&q);
        if pushes.is_multiple_of(2) {
            ops.push(Op::Parse(q.clone()));
            ops.push(Op::SearchStr(name, q, e));
        } else {
            ops.push(Op::Search(name, e));
        }
        pushes += 1;
    };
    for _ in 0..mix.per_class {
        let (a, b, c) = (topic(&mut rng), topic(&mut rng), topic(&mut rng));
        push(&mut ops, "text.search.word", format!("TI={a}"));
        push(&mut ops, "text.search.phrase", format!("AB='{a} {b}'"));
        push(
            &mut ops,
            "text.search.and_or",
            format!("TI={a} and (AB={b} or AB={c})"),
        );
        push(&mut ops, "text.search.not", format!("TI={a} not AB={b}"));
        push(&mut ops, "text.search.near", format!("AB={a} near3 AB={c}"));
    }
    for _ in 0..mix.prefix {
        let w = topic(&mut rng);
        push(
            &mut ops,
            "text.search.prefix",
            format!("TI='{}?'", &w[..w.len().min(4)]),
        );
    }
    for _ in 0..mix.package {
        let sel = topic(&mut rng);
        let disjuncts: Vec<String> = (0..PACKAGE_TERMS - 1)
            .map(|_| format!("AU={}", next_name()))
            .collect();
        push(
            &mut ops,
            "text.search.or_package70",
            format!("TI={sel} and ({})", disjuncts.join(" or ")),
        );
    }
    for _ in 0..mix.probes {
        ops.push(Op::Probe(parse(&format!(
            "TI={} and AU={}",
            topic(&mut rng),
            next_name()
        ))));
    }
    for _ in 0..mix.batches {
        ops.push(Op::Batch(
            (0..mix.batch_width)
                .map(|_| parse(&format!("AU={} and YR=1993", next_name())))
                .collect(),
        ));
    }
    let docs = world.server.doc_count();
    for _ in 0..mix.retrieves {
        ops.push(Op::Retrieve(
            (0..mix.retrieve_width)
                .map(|_| DocId(rng.gen_range(0..docs) as u32))
                .collect(),
        ));
    }
    ops.push(Op::Reindex);
    // Interleave the classes so no class runs against a cache warmed only
    // by itself.
    ops.shuffle(&mut rng);
    ops
}

impl Workload for TextSearch {
    fn prepare(&mut self) {
        self.server().reset_usage();
        *self.slice_copy.borrow_mut() = self.slice_docs();
    }

    fn round(&mut self, t: &Tracer) -> RoundOutcome {
        let mut out = RoundOutcome {
            attempted: self.ops.len() as u64,
            failed: 0,
            checksum: FNV,
            sim_cost: 0.0,
        };
        for op in &self.ops {
            match self.run_op(op, t, None) {
                Some(sum) => out.checksum = fold(out.checksum, sum),
                None => out.failed += 1,
            }
        }
        out.sim_cost = self.server().usage().total_cost();
        out
    }

    fn verify(&mut self) -> Result<RoundOutcome, String> {
        self.prepare();
        let t = Tracer::off();
        let mut answers: Vec<Vec<DocId>> = Vec::new();
        let mut out = RoundOutcome {
            attempted: self.ops.len() as u64,
            failed: 0,
            checksum: FNV,
            sim_cost: 0.0,
        };
        for (i, op) in self.ops.iter().enumerate() {
            let sum = self.run_op(op, &t, Some(&mut answers)).ok_or_else(|| {
                format!("text_search: operation {i} failed or retrieved a wrong document")
            })?;
            out.checksum = fold(out.checksum, sum);
        }
        out.sim_cost = self.server().usage().total_cost();

        let exprs = self.oracle_exprs();
        let expected = oracle::scan(self.server().collection(), &exprs);
        if answers.len() != expected.len() {
            return Err("text_search: answer/expression count mismatch".into());
        }
        let schema = self.server().collection().schema();
        for ((got, want), e) in answers.iter().zip(&expected).zip(&exprs) {
            if got != want {
                return Err(format!(
                    "text_search: {} answered {} docs, brute-force scan finds {}",
                    e.display(schema),
                    got.len(),
                    want.len()
                ));
            }
        }
        if expected.iter().all(Vec::is_empty) {
            return Err("text_search: every expression is empty — the term list is broken".into());
        }
        // The write side: the fresh index must hold exactly the slice's
        // word occurrences.
        let slice = self.slice_docs();
        let words: usize = slice
            .iter()
            .flat_map(|d| d.iter().flat_map(|(_, vs)| vs.iter()))
            .map(|v| oracle::words(v).len())
            .sum();
        let mut fresh = Collection::new(schema.clone());
        for d in &slice {
            fresh.add_document(d.clone());
        }
        if fresh.total_postings() != words || fresh.doc_count() != slice.len() {
            return Err(format!(
                "text_search: re-index holds {} postings for {} word occurrences",
                fresh.total_postings(),
                words
            ));
        }
        Ok(out)
    }

    fn layer_metrics(&mut self, _t: &Tracer, spans: &[Span], _budget: Duration, out: &mut Values) {
        for class in [
            "word",
            "phrase",
            "and_or",
            "not",
            "prefix",
            "near",
            "or_package70",
        ] {
            let span = format!("text.search.{class}");
            out.set(&format!("text.search.{class}_us"), p50(spans, &span, US));
        }
        out.set("text.parse_us", p50(spans, "text.parse", US));
        out.set("text.probe_us", p50(spans, "text.probe", US));
        out.set("text.search_batch_us", p50(spans, "text.search_batch", US));
        out.set("text.retrieve_us", p50(spans, "text.retrieve", US));
        let rounds = spans.iter().filter(|s| s.name == ROUND).count().max(1) as f64;
        let usage = self.server().usage();
        out.set("text.postings_processed", usage.postings_processed as f64);
        out.set(
            "text.calls",
            self.ops
                .iter()
                .filter(|op| !matches!(op, Op::Parse(_) | Op::Reindex))
                .count() as f64,
        );
        let search_s =
            (total_ns(spans, "text.search") + total_ns(spans, "text.probe")) as f64 / 1e9;
        if search_s > 0.0 {
            out.set(
                "text.postings_per_s",
                usage.postings_processed as f64 * rounds / search_s,
            );
        }
        let build_ms = p50(spans, "text.index_build", MS);
        if build_ms > 0.0 {
            out.set(
                "text.index_build_docs_per_s",
                self.slice.len() as f64 / (build_ms / 1e3),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_fixes_the_term_list() {
        let t = Tracer::off();
        let a = TextSearch::setup(5, Size::Smoke, &t).describe();
        let b = TextSearch::setup(5, Size::Smoke, &t).describe();
        let c = TextSearch::setup(6, Size::Smoke, &t).describe();
        assert_eq!(a, b, "same seed, same operations");
        assert_ne!(a, c, "another seed, other terms");
    }

    #[test]
    fn every_class_goes_through_both_search_and_search_str() {
        for size in [Size::Smoke, Size::Full] {
            let w = TextSearch::setup(5, size, &Tracer::off());
            let classes = |pick: fn(&Op) -> Option<&'static str>| {
                let mut names: Vec<_> = w.ops.iter().filter_map(pick).collect();
                names.sort_unstable();
                names.dedup();
                names
            };
            let direct = classes(|op| match op {
                Op::Search(name, _) => Some(name),
                _ => None,
            });
            let parsed = classes(|op| match op {
                Op::SearchStr(name, ..) => Some(name),
                _ => None,
            });
            assert_eq!(direct.len(), 7, "{direct:?}");
            assert_eq!(direct, parsed);
            let count = |f: fn(&Op) -> bool| w.ops.iter().filter(|op| f(op)).count();
            assert_eq!(
                count(|op| matches!(op, Op::Search(..))),
                count(|op| matches!(op, Op::SearchStr(..)))
            );
            assert_eq!(
                count(|op| matches!(op, Op::Parse(_))),
                count(|op| matches!(op, Op::SearchStr(..))),
                "one stand-alone parse per search_str"
            );
        }
    }

    #[test]
    fn the_package_sits_exactly_at_the_term_cap() {
        let w = TextSearch::setup(5, Size::Smoke, &Tracer::off());
        let widest = w
            .oracle_exprs()
            .iter()
            .map(|e| e.term_count())
            .max()
            .unwrap();
        assert_eq!(widest, PACKAGE_TERMS);
        assert_eq!(widest, w.server().max_terms());
    }
}
