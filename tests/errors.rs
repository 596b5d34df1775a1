//! Integration: error surfaces across the loose-integration boundary.
//!
//! Every `TextError` / `MethodError` variant (including the fault-injected
//! ones) must round-trip through `Display` and `std::error::Error`, the
//! transient classification must match the retry layer's contract, and the
//! degradation paths (SJ package splitting under a renegotiated cap,
//! partial `retrieve_all`) must keep answers and charges consistent.

use std::error::Error;

use textjoin::core::methods::sj::semi_join;
use textjoin::core::methods::{ExecContext, ForeignJoin, MethodError, Projection, TextSelection};
use textjoin::rel::schema::RelSchema;
use textjoin::rel::table::Table;
use textjoin::rel::tuple;
use textjoin::rel::value::ValueType;
use textjoin::text::doc::{DocId, Document, TextSchema};
use textjoin::text::faults::{Fault, FaultPlan};
use textjoin::text::index::Collection;
use textjoin::text::parse::parse_search;
use textjoin::text::server::{PartialRetrieveError, TextError, TextServer};
use textjoin::text::shard::PartialShardError;

fn sample_shard_error() -> PartialShardError {
    PartialShardError {
        partial: vec![None, None],
        failed_shard: 1,
        error: TextError::Unavailable,
        epoch: 4,
    }
}

fn all_text_errors() -> Vec<TextError> {
    let parse_err = parse_search("TI=", &TextSchema::bibliographic())
        .expect_err("incomplete query must not parse");
    vec![
        TextError::TooManyTerms { count: 9, max: 4 },
        TextError::UnknownDoc(DocId(7)),
        TextError::Parse(parse_err),
        TextError::Unavailable,
        TextError::Timeout { postings: 123 },
        TextError::CapReduced { new_m: 5 },
        TextError::Shard(Box::new(sample_shard_error())),
    ]
}

#[test]
fn every_text_error_displays_and_is_std_error() {
    let errors = all_text_errors();
    let mut rendered: Vec<String> = Vec::new();
    for e in &errors {
        let msg = e.to_string();
        assert!(!msg.is_empty(), "{e:?} renders empty");
        // Usable through the trait object, like any downstream caller.
        let dyn_err: &dyn Error = e;
        assert_eq!(dyn_err.to_string(), msg);
        rendered.push(msg);
    }
    rendered.sort();
    rendered.dedup();
    assert_eq!(
        rendered.len(),
        errors.len(),
        "each variant needs a distinguishable message"
    );
}

#[test]
fn transient_classification_matches_retry_contract() {
    for e in all_text_errors() {
        let expected = matches!(e, TextError::Unavailable | TextError::Timeout { .. });
        assert_eq!(
            e.is_transient(),
            expected,
            "{e}: only momentary server conditions are retryable verbatim"
        );
    }
}

#[test]
fn every_method_error_displays_and_converts() {
    let variants: Vec<MethodError> = vec![
        MethodError::NotApplicable("RTP needs selections".into()),
        MethodError::Text(TextError::Unavailable),
        MethodError::BadProbeColumns("index 9 out of range".into()),
    ];
    for e in &variants {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        let dyn_err: &dyn Error = e;
        assert_eq!(dyn_err.to_string(), msg);
    }
    // From<TextError> wraps into the Text variant.
    let converted: MethodError = TextError::Timeout { postings: 5 }.into();
    assert!(matches!(
        converted,
        MethodError::Text(TextError::Timeout { postings: 5 })
    ));
}

#[test]
fn partial_retrieve_error_chains_to_its_cause() {
    let e = PartialRetrieveError {
        docs: vec![Document::new(), Document::new()],
        failed: DocId(3),
        error: TextError::Unavailable,
    };
    let msg = e.to_string();
    assert!(
        msg.contains("2 retrievals"),
        "message carries progress: {msg}"
    );
    assert!(msg.contains('3'), "message names the failed docid: {msg}");
    let source = e.source().expect("source chains to the TextError");
    assert_eq!(source.to_string(), TextError::Unavailable.to_string());
}

/// The two partial-failure carriers compose: a retrieval that dies because
/// a *shard* died mid-gather chains `PartialRetrieveError` →
/// `TextError::Shard` → `PartialShardError` → the root `TextError`, and
/// every link is reachable through `std::error::Error::source`.
#[test]
fn partial_failures_compose_through_the_source_chain() {
    let shard_err = PartialShardError {
        partial: vec![None, None, None],
        failed_shard: 2,
        error: TextError::Timeout { postings: 41 },
        epoch: 0,
    };
    let e = PartialRetrieveError {
        docs: vec![Document::new()],
        failed: DocId(9),
        error: TextError::Shard(Box::new(shard_err)),
    };

    // Link 1: the retrieve error's source is the shard-carrying TextError.
    let link1 = e.source().expect("retrieve error chains to its cause");
    assert!(link1.to_string().contains("shard 2"), "got: {link1}");

    // Link 2: that TextError's source is the PartialShardError itself,
    // downcastable with its gathered state intact.
    let link2 = link1.source().expect("Shard chains to the partial error");
    let pse = link2
        .downcast_ref::<PartialShardError>()
        .expect("the partial shard state survives the chain");
    assert_eq!(pse.failed_shard, 2);
    assert_eq!(pse.gathered(), 0, "no shard had answered yet");

    // Link 3: the partial error's source is the root fault; non-Shard
    // TextErrors terminate the chain.
    let root = link2.source().expect("partial error chains to the fault");
    assert_eq!(
        root.to_string(),
        TextError::Timeout { postings: 41 }.to_string()
    );
    assert!(root.source().is_none(), "the root fault ends the chain");

    // And the same walk works from a MethodError wrapper, as join-method
    // callers see it.
    let m: MethodError = TextError::Shard(Box::new(PartialShardError {
        partial: vec![None],
        failed_shard: 0,
        error: TextError::Unavailable,
        epoch: 0,
    }))
    .into();
    let mut hops = 0;
    let mut cur: Option<&dyn Error> = Some(&m);
    let mut found = false;
    while let Some(err) = cur {
        if err.downcast_ref::<PartialShardError>().is_some() {
            found = true;
        }
        cur = err.source();
        hops += 1;
        assert!(hops < 10, "the chain must terminate");
    }
    assert!(found, "MethodError → TextError::Shard → PartialShardError");
}

/// A `PartialShardError` names the topology epoch the gather was routed at:
/// completion resumes from exactly that epoch, re-scattering only shards a
/// concurrent migration commit touched. The epoch must survive `Display`
/// and the `source` chain alongside the partial state.
#[test]
fn partial_shard_error_carries_its_routing_epoch() {
    let e = sample_shard_error();
    assert_eq!(e.epoch, 4);
    let msg = e.to_string();
    assert!(msg.contains("epoch 4"), "Display names the epoch: {msg}");
    // Wrapped and recovered through the chain, the epoch is intact.
    let wrapped = TextError::Shard(Box::new(sample_shard_error()));
    let link = wrapped.source().expect("Shard chains to the partial error");
    let pse = link
        .downcast_ref::<PartialShardError>()
        .expect("downcast recovers the typed state");
    assert_eq!(pse.epoch, 4, "the routing epoch survives the source chain");
    assert_eq!(pse.failed_shard, 1);
}

/// Eight join keys, term cap 5: SJ packs 4 conjuncts + 1 selection per
/// search. A scripted `CapReduced { new_m: 3 }` hits the second package;
/// SJ must halve it, recompute capacity from the live cap, and finish with
/// the same answer — the renegotiation costs one extra (charged) attempt.
#[test]
fn sj_recovers_by_package_splitting_when_cap_is_lowered_between_batches() {
    let build = |plan: FaultPlan| {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let mut coll = Collection::new(schema);
        for i in 0..8 {
            coll.add_document(
                Document::new()
                    .with(ti, "common subject")
                    .with(au, format!("author{i}")),
            );
        }
        let mut server = TextServer::new(coll);
        server.set_max_terms(5);
        server.set_fault_plan(plan);
        server
    };
    let rel_schema = RelSchema::from_columns(vec![("name", ValueType::Str)]);
    let mut rel = Table::new("people", rel_schema);
    for i in 0..8 {
        rel.push(tuple![format!("author{i}")]);
    }
    let fj = |server: &TextServer| ForeignJoin {
        rel: &rel,
        join_cols: vec![rel.col("name")],
        join_fields: vec![server
            .collection()
            .schema()
            .field_by_name("author")
            .unwrap()],
        selections: vec![TextSelection {
            term: "common".into(),
            field: server.collection().schema().field_by_name("title").unwrap(),
        }],
        projection: Projection::DocIds,
    };

    // Fault-free baseline: 8 keys / 4 per package = 2 searches.
    let clean = build(FaultPlan::none());
    let clean_out = semi_join(&ExecContext::new(&clean), &fj(&clean)).expect("SJ runs");
    assert_eq!(clean_out.table.len(), 8);
    assert_eq!(clean_out.report.text.invocations, 2);

    // The second package (search ordinal 1) gets the cap renegotiation.
    let faulted = build(FaultPlan::scripted(vec![(
        1,
        Fault::CapReduced { new_m: 3 },
    )]));
    let out =
        semi_join(&ExecContext::new(&faulted), &fj(&faulted)).expect("SJ degrades, not fails");
    assert_eq!(out.table.len(), 8, "same answer under the lowered cap");
    assert_eq!(faulted.max_terms(), 3, "the renegotiated cap is in force");
    // ok(4) + faulted attempt + ok(2) + ok(2): all four attempts charged.
    assert_eq!(out.report.text.invocations, 4);
    assert_eq!(out.report.text.faults, 1);
    assert_eq!(
        out.report.text.retries, 0,
        "CapReduced is not transient — no blind retry, only re-packaging"
    );
}

fn eight_doc_collection() -> Collection {
    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").unwrap();
    let au = schema.field_by_name("author").unwrap();
    let mut coll = Collection::new(schema);
    for i in 0..8 {
        coll.add_document(
            Document::new()
                .with(ti, "common subject")
                .with(au, format!("author{i}")),
        );
    }
    coll
}

/// Satellite pin: a replicated gather that fails twice — a *different*
/// shard each round — runs one completion round per failure, and each
/// round's span carries the round's own progress (`complete-gather[1/4]`
/// then `complete-gather[2/4]`) instead of the first round's counts being
/// stamped on every retry.
#[test]
fn completion_rounds_carry_their_own_progress_labels() {
    use std::rc::Rc;
    use textjoin::obs::{EventKind, Recorder, RingSink};
    use textjoin::text::expr::SearchExpr;
    use textjoin::text::shard::ShardedTextServer;

    let coll = eight_doc_collection();
    let ti = coll.schema().field_by_name("title").unwrap();
    let mut s = ShardedTextServer::replicated(&coll, 4, 2, 0x5AD);
    for r in 0..2 {
        // Shard 1: both replicas fault their first four searches, so the
        // initial scatter exhausts the 4-attempt policy on the primary
        // leg and the failover leg alike — then the shard recovers in
        // time for the first completion round.
        s.replica_mut(1, r).set_fault_plan(FaultPlan::scripted(
            (0..4).map(|o| (o, Fault::Unavailable)).collect(),
        ));
        // Shard 2: both replicas fault exactly their first search — the
        // first completion round's single attempt per replica fails, the
        // second round's succeeds.
        s.replica_mut(2, r)
            .set_fault_plan(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
    }
    let sink = Rc::new(RingSink::unbounded());
    s.set_recorder(Some(Recorder::new(sink.clone())));
    let ctx = ExecContext::new(&s);
    let out = ctx
        .search(&SearchExpr::term_in("common", ti))
        .expect("two completion rounds finish the gather");
    assert_eq!(out.ids().len(), 8, "every shard's documents were gathered");

    let labels: Vec<String> = sink
        .events()
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::SpanBegin { label, .. } if label.starts_with("complete-gather[") => {
                Some(label.clone())
            }
            _ => None,
        })
        .collect();
    assert_eq!(
        labels,
        vec!["complete-gather[1/4]", "complete-gather[2/4]"],
        "each completion round is labelled with its own gathered count"
    );
}

/// A completion round that gathers nothing new means some shard is down on
/// every replica: the typed partial error propagates (carrying the best
/// partial state reached) instead of re-scattering forever.
#[test]
fn completion_stops_when_a_round_makes_no_progress() {
    use textjoin::text::expr::SearchExpr;
    use textjoin::text::shard::ShardedTextServer;

    let coll = eight_doc_collection();
    let ti = coll.schema().field_by_name("title").unwrap();
    let mut s = ShardedTextServer::replicated(&coll, 4, 2, 0x5AD);
    for r in 0..2 {
        // Shard 1 recovers after the initial scatter; shard 2 is dead on
        // both replicas, permanently.
        s.replica_mut(1, r).set_fault_plan(FaultPlan::scripted(
            (0..4).map(|o| (o, Fault::Unavailable)).collect(),
        ));
        s.replica_mut(2, r).set_fault_plan(FaultPlan::dead(77));
    }
    let ctx = ExecContext::new(&s);
    let err = ctx
        .search(&SearchExpr::term_in("common", ti))
        .expect_err("a shard dead on every replica must surface");
    match err {
        TextError::Shard(pse) => {
            assert_eq!(pse.failed_shard, 2, "the dead shard is named");
            assert_eq!(
                pse.gathered(),
                2,
                "the error carries the best partial state reached (shards 0 and 1)"
            );
        }
        other => panic!("expected a typed partial error, got {other:?}"),
    }
}

/// A cap too small for even a single conjunct cannot be packaged around:
/// the method reports inapplicability instead of looping.
#[test]
fn sj_surfaces_unpackageable_cap_cleanly() {
    let schema = TextSchema::bibliographic();
    let au = schema.field_by_name("author").unwrap();
    let mut coll = Collection::new(schema);
    coll.add_document(Document::new().with(au, "solo"));
    let mut server = TextServer::new(coll);
    server.set_max_terms(5);
    // The very first package triggers renegotiation down to 1 term — with
    // a 1-term selection, zero conjuncts fit.
    server.set_fault_plan(FaultPlan::scripted(vec![(
        0,
        Fault::CapReduced { new_m: 1 },
    )]));
    let rel_schema = RelSchema::from_columns(vec![("name", ValueType::Str)]);
    let mut rel = Table::new("people", rel_schema);
    rel.push(tuple!["solo"]);
    rel.push(tuple!["other"]);
    let fj = ForeignJoin {
        rel: &rel,
        join_cols: vec![rel.col("name")],
        join_fields: vec![server
            .collection()
            .schema()
            .field_by_name("author")
            .unwrap()],
        selections: vec![TextSelection {
            term: "anything".into(),
            field: server.collection().schema().field_by_name("title").unwrap(),
        }],
        projection: Projection::DocIds,
    };
    let err = semi_join(&ExecContext::new(&server), &fj).expect_err("cannot fit one conjunct");
    assert!(matches!(err, MethodError::NotApplicable(_)), "got {err:?}");
}
