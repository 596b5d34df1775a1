//! Property tests: the two callers of the one gather loop agree.
//!
//! A sharded service scatters every operation itself (one attempt per
//! replica, `TextService::{search, search_batch, retrieve}`), and
//! [`ExecContext`] scatters the same operations from the client side with
//! its own legs (spans, retry loop, `DocTraffic`). With
//! [`RetryPolicy::none`] the client's legs make exactly the attempts the
//! service's do, so over two identically built topologies the two must
//! return the same answers (or the same [`PartialShardError`]), leave the
//! same ledger on every replica, and emit the same events once the
//! client's own `gather*` spans and `DocTraffic` events are dropped —
//! whatever is pruned, fails over, or migrates underneath the gather.
//!
//! [`PartialShardError`]: textjoin_text::shard::PartialShardError

use std::collections::HashMap;
use std::rc::Rc;

use proptest::prelude::*;
use textjoin_core::methods::ExecContext;
use textjoin_core::retry::RetryPolicy;
use textjoin_obs::{EventKind, Recorder, RingSink};
use textjoin_text::doc::{DocId, Document, TextSchema};
use textjoin_text::expr::SearchExpr;
use textjoin_text::faults::{Fault, FaultPlan};
use textjoin_text::index::Collection;
use textjoin_text::rebalance::MigrationPlan;
use textjoin_text::shard::ShardedTextServer;
use textjoin_text::TextService;

/// Words over a three-letter alphabet, so that terms hit, miss and share
/// documents, and stats routing has shards to prune.
fn word() -> impl Strategy<Value = String> {
    "[a-c]{1,3}"
}

/// A document: title words and authors.
type DocSpec = (Vec<String>, Vec<String>);

fn collection(docs: &[DocSpec]) -> Collection {
    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").expect("title");
    let au = schema.field_by_name("author").expect("author");
    let mut coll = Collection::new(schema);
    for (title, authors) in docs {
        let mut d = Document::new().with(ti, title.join(" "));
        for a in authors {
            d.push(au, a.as_str());
        }
        coll.add_document(d);
    }
    coll
}

fn term() -> impl Strategy<Value = SearchExpr> {
    (word(), prop::bool::ANY).prop_map(|(w, in_title)| {
        let schema = TextSchema::bibliographic();
        let field = if in_title { "title" } else { "author" };
        SearchExpr::term_in(
            &w,
            schema.field_by_name(field).expect("bibliographic field"),
        )
    })
}

/// One to four terms: the topologies cap one replica at 2–5 terms, so some
/// expressions are rejected at the aggregate cap.
fn expr() -> impl Strategy<Value = SearchExpr> {
    prop_oneof![
        term(),
        prop::collection::vec(term(), 2..5).prop_map(SearchExpr::and),
        prop::collection::vec(term(), 2..5).prop_map(SearchExpr::or),
        (term(), term()).prop_map(|(a, b)| SearchExpr::AndNot(Box::new(a), Box::new(b))),
    ]
}

/// One operation, sent through both callers.
#[derive(Debug, Clone)]
enum Op {
    Search(SearchExpr),
    Batch(Vec<SearchExpr>),
    /// A docid, possibly past the end of the collection.
    Retrieve(u32),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        expr().prop_map(Op::Search),
        prop::collection::vec(expr(), 0..4).prop_map(Op::Batch),
        (0u32..34).prop_map(Op::Retrieve),
    ]
}

/// What one replica does to the calls it receives.
#[derive(Debug, Clone)]
enum Health {
    Healthy,
    /// Every call fails transiently.
    Dead(u64),
    /// Transient faults and slow answers at fixed search ordinals.
    Scripted(Vec<(u64, Fault)>),
}

fn health() -> impl Strategy<Value = Health> {
    let fault = prop_oneof![
        (0u8..1).prop_map(|_| Fault::Unavailable),
        (0u64..40).prop_map(|after_postings| Fault::Timeout { after_postings }),
        (1u32..4).prop_map(|delta_s| Fault::Slow { delta_s }),
    ];
    prop_oneof![
        (0u8..1).prop_map(|_| Health::Healthy),
        (0u64..1000).prop_map(Health::Dead),
        prop::collection::vec((0u64..24, fault), 1..5).prop_map(Health::Scripted),
    ]
}

/// Everything a topology is built from. Two builds of one spec behave
/// identically.
#[derive(Debug, Clone)]
struct Spec {
    docs: Vec<DocSpec>,
    shards: usize,
    replicas: usize,
    seed: u64,
    stats_routing: bool,
    /// `(plan seed, moves, batch docs, pacing)`; staged when there are two
    /// shards to move between, and advanced every `pacing`-th leg.
    migration: (u64, usize, usize, u64),
    /// The term cap of replica (0, 0).
    cap: usize,
    /// Per shard: the replica that stays healthy, and what the others do.
    /// A lone replica (R = 1) takes its scripted faults itself.
    faults: Vec<(usize, Vec<Health>)>,
}

fn build(spec: &Spec) -> (ShardedTextServer, Rc<RingSink>) {
    let coll = collection(&spec.docs);
    let mut sh = ShardedTextServer::replicated(&coll, spec.shards, spec.replicas, spec.seed);
    sh.set_stats_routing(spec.stats_routing);
    sh.replica_mut(0, 0).set_max_terms(spec.cap);
    for (i, (live, health)) in spec.faults.iter().take(spec.shards).enumerate() {
        for (r, health) in health.iter().enumerate().take(spec.replicas) {
            let plan = match health {
                Health::Scripted(script) if spec.replicas == 1 || r != live % spec.replicas => {
                    FaultPlan::scripted(script.clone())
                }
                Health::Dead(seed) if spec.replicas > 1 && r != live % spec.replicas => {
                    FaultPlan::dead(*seed)
                }
                _ => continue,
            };
            sh.replica_mut(i, r).set_fault_plan(plan);
        }
    }
    let sink = Rc::new(RingSink::unbounded());
    sh.set_recorder(Some(Recorder::new(sink.clone())));
    let (plan_seed, moves, batch, pacing) = spec.migration;
    if spec.shards >= 2 {
        sh.begin_migration(MigrationPlan::seeded(
            plan_seed,
            spec.shards,
            coll.doc_count(),
            moves,
            batch,
        ));
        sh.set_migration_pacing(pacing);
    }
    (sh, sink)
}

/// The events a topology recorded, without the ones only the client emits:
/// its `gather*` spans and `DocTraffic`. The spans that remain are
/// renumbered in order of appearance and re-parented past the dropped
/// ones, as if the client's spans had never taken an id.
fn service_events(sink: &RingSink) -> Vec<EventKind> {
    let mut parent_of: HashMap<u64, Option<u64>> = HashMap::new();
    let mut renumbered: HashMap<u64, u64> = HashMap::new();
    let mut out = Vec::new();
    for event in sink.events() {
        match event.kind {
            EventKind::SpanBegin { id, parent, label } => {
                parent_of.insert(id, parent);
                if label.starts_with("gather") {
                    continue;
                }
                let mut kept_parent = parent;
                while let Some(p) = kept_parent.filter(|p| !renumbered.contains_key(p)) {
                    kept_parent = parent_of[&p];
                }
                let new_id = renumbered.len() as u64;
                renumbered.insert(id, new_id);
                out.push(EventKind::SpanBegin {
                    id: new_id,
                    parent: kept_parent.map(|p| renumbered[&p]),
                    label,
                });
            }
            EventKind::SpanEnd { id, label } => {
                if let Some(&id) = renumbered.get(&id) {
                    out.push(EventKind::SpanEnd { id, label });
                }
            }
            EventKind::DocTraffic { .. } => {}
            kind => out.push(kind),
        }
    }
    out
}

fn assert_same_state(svc: &ShardedTextServer, cli: &ShardedTextServer, what: &str) {
    for i in 0..svc.shard_count() {
        for r in 0..svc.replication_factor() {
            assert_eq!(
                svc.replica(i, r).usage(),
                cli.replica(i, r).usage(),
                "{what}: ledger of replica {r} of shard {i}"
            );
        }
    }
    assert_eq!(
        svc.migration_usage(),
        cli.migration_usage(),
        "{what}: migration bucket"
    );
    assert_eq!(
        TextService::usage(svc),
        TextService::usage(cli),
        "{what}: aggregate"
    );
    assert_eq!(svc.topology_epoch(), cli.topology_epoch(), "{what}: epoch");
    assert_eq!(svc.journal(), cli.journal(), "{what}: journal");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn service_scatter_and_client_scatter_agree(
        docs in prop::collection::vec(
            (prop::collection::vec(word(), 1..5), prop::collection::vec(word(), 0..3)),
            4..32,
        ),
        topology in (1usize..7, 1usize..4, 0u64..1_000_000, prop::bool::ANY),
        migration in (0u64..1000, 1usize..4, 1usize..5, 1u64..5),
        cap in 2usize..6,
        faults in prop::collection::vec((0usize..3, prop::collection::vec(health(), 3)), 6),
        ops in prop::collection::vec(op(), 1..14),
    ) {
        let (shards, replicas, seed, stats_routing) = topology;
        let spec = Spec { docs, shards, replicas, seed, stats_routing, migration, cap, faults };
        let (svc, svc_sink) = build(&spec);
        let (cli, cli_sink) = build(&spec);
        let ctx = ExecContext::with_retry(&cli, RetryPolicy::none());
        assert_same_state(&svc, &cli, "as built");

        for op in &ops {
            let what = format!("{op:?} on {shards}x{replicas}");
            match op {
                Op::Search(e) => {
                    prop_assert_eq!(TextService::search(&svc, e), ctx.search(e), "{}", what)
                }
                Op::Batch(es) => {
                    prop_assert_eq!(TextService::search_batch(&svc, es), ctx.search_batch(es), "{}", what)
                }
                Op::Retrieve(id) => {
                    prop_assert_eq!(TextService::retrieve(&svc, DocId(*id)), ctx.retrieve(DocId(*id)), "{}", what)
                }
            }
            assert_same_state(&svc, &cli, &what);
            prop_assert_eq!(service_events(&svc_sink), service_events(&cli_sink), "{}", what);
        }
    }
}
