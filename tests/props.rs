//! Property-based tests (proptest) on cross-crate invariants:
//! Boolean-algebra laws of the search engine, consistency between the
//! relational string matcher and the text index, cost-model bounds, and
//! the Theorem 5.3 probe-search guarantee.

use proptest::prelude::*;

use textjoin::core::cost::correlate::{distinct_docs, joint_fanout, joint_selectivity, total_docs};
use textjoin::core::cost::formulas::{cost_p_ts, cost_ts, cost_ts_naive};
use textjoin::core::cost::params::{CostParams, JoinStatistics, PredStats};
use textjoin::core::optimizer::single::{optimal_probe_bounded, optimal_probe_exhaustive};
use textjoin::rel::strmatch::contains_term;
use textjoin::text::doc::{DocId, Document, TextSchema};
use textjoin::text::expr::SearchExpr;
use textjoin::text::index::Collection;
use textjoin::text::server::TextServer;

const VOCAB: &[&str] = &[
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
];

fn word() -> impl Strategy<Value = &'static str> {
    prop::sample::select(VOCAB)
}

/// A small random collection: each document is 1–6 words in the title and
/// 0–2 author words.
fn collection() -> impl Strategy<Value = Collection> {
    prop::collection::vec(
        (
            prop::collection::vec(word(), 1..6),
            prop::collection::vec(word(), 0..3),
        ),
        1..12,
    )
    .prop_map(|docs| {
        let schema = TextSchema::bibliographic();
        let ti = schema.field_by_name("title").expect("title");
        let au = schema.field_by_name("author").expect("author");
        let mut coll = Collection::new(schema);
        for (title, authors) in docs {
            let mut d = Document::new().with(ti, title.join(" "));
            for a in authors {
                d.push(au, a);
            }
            coll.add_document(d);
        }
        coll
    })
}

proptest! {
    /// Search results agree with the relational string matcher document by
    /// document — the "consistent semantics" requirement RTP rests on.
    #[test]
    fn search_matches_contains_term(coll in collection(), w in word()) {
        let schema = coll.schema().clone();
        let ti = schema.field_by_name("title").expect("title");
        let server = TextServer::new(coll);
        let hits: std::collections::HashSet<DocId> =
            server.search(&SearchExpr::term_in(w, ti)).expect("search").ids().into_iter().collect();
        for d in 0..server.doc_count() {
            let id = DocId(d as u32);
            let doc = server.collection().document(id).expect("dense ids");
            let expected = doc.values(ti).iter().any(|v| contains_term(v, w));
            prop_assert_eq!(hits.contains(&id), expected, "doc {} word {}", d, w);
        }
    }

    /// Boolean algebra: AND is intersection, OR is union, NOT is difference
    /// of the single-term result sets.
    #[test]
    fn boolean_connectives_are_set_ops(coll in collection(), a in word(), b in word()) {
        let schema = coll.schema().clone();
        let ti = schema.field_by_name("title").expect("title");
        let server = TextServer::new(coll);
        let sa: std::collections::BTreeSet<DocId> =
            server.search(&SearchExpr::term_in(a, ti)).expect("a").ids().into_iter().collect();
        let sb: std::collections::BTreeSet<DocId> =
            server.search(&SearchExpr::term_in(b, ti)).expect("b").ids().into_iter().collect();

        let and = server.search(&SearchExpr::and(vec![
            SearchExpr::term_in(a, ti), SearchExpr::term_in(b, ti)])).expect("and");
        prop_assert_eq!(
            and.ids(), sa.intersection(&sb).copied().collect::<Vec<_>>());

        let or = server.search(&SearchExpr::or(vec![
            SearchExpr::term_in(a, ti), SearchExpr::term_in(b, ti)])).expect("or");
        prop_assert_eq!(
            or.ids(), sa.union(&sb).copied().collect::<Vec<_>>());

        let not = server.search(&SearchExpr::AndNot(
            Box::new(SearchExpr::term_in(a, ti)),
            Box::new(SearchExpr::term_in(b, ti)))).expect("not");
        prop_assert_eq!(
            not.ids(), sa.difference(&sb).copied().collect::<Vec<_>>());
    }

    /// A phrase is at most as frequent as each of its words, and any doc
    /// matching the phrase matches both words.
    #[test]
    fn phrase_subset_of_words(coll in collection(), a in word(), b in word()) {
        let schema = coll.schema().clone();
        let ti = schema.field_by_name("title").expect("title");
        let server = TextServer::new(coll);
        let phrase = format!("{a} {b}");
        let ph = server.search(&SearchExpr::term_in(&phrase, ti)).expect("phrase");
        let both = server.search(&SearchExpr::and(vec![
            SearchExpr::term_in(a, ti), SearchExpr::term_in(b, ti)])).expect("and");
        let both_set: std::collections::HashSet<DocId> = both.ids().into_iter().collect();
        for id in ph.ids() {
            prop_assert!(both_set.contains(&id));
        }
    }

    /// Cost-model bounds: U ≤ V, U ≤ D, both non-negative.
    #[test]
    fn distinct_docs_bounded(n in 0.0f64..10_000.0, f in 0.0f64..50.0, d in 1.0f64..100_000.0) {
        let u = distinct_docs(n, f, d);
        let v = total_docs(n, f);
        prop_assert!(u >= -1e-9);
        prop_assert!(u <= v + 1e-9);
        prop_assert!(u <= d + 1e-9);
    }

    /// Joint statistics shrink (or hold) as g grows.
    #[test]
    fn correlation_monotone_in_g(
        sels in prop::collection::vec(0.0f64..1.0, 1..6),
        fans in prop::collection::vec(0.0f64..20.0, 1..6),
        d in 100.0f64..10_000.0,
    ) {
        for g in 1..sels.len() {
            prop_assert!(joint_selectivity(&sels, g + 1) <= joint_selectivity(&sels, g) + 1e-12);
        }
        for g in 1..fans.len() {
            // Fanouts < D make the normalized product shrink as well.
            if fans.iter().all(|&f| f <= d) {
                prop_assert!(joint_fanout(&fans, d, g + 1) <= joint_fanout(&fans, d, g) + 1e-9);
            }
        }
    }

    /// The distinct-tuple TS variant never costs more than naive TS.
    #[test]
    fn distinct_ts_never_worse(
        n in 1.0f64..5_000.0,
        dup in 1.0f64..10.0,
        s in 0.01f64..1.0,
        f in 0.0f64..10.0,
    ) {
        let p = CostParams::mercury(10_000.0);
        let stats = JoinStatistics {
            n,
            n_k: (n / dup).max(1.0),
            preds: vec![PredStats::simple(s, f, (n / dup).max(1.0))],
            sel_fanout: 10_000.0,
            sel_postings: 0.0,
            sel_terms: 0,
            needs_long: false,
            short_form_sufficient: true,
        };
        let (ts, naive) = (p.price(&cost_ts(&p, &stats)), p.price(&cost_ts_naive(&p, &stats)));
        prop_assert!(ts.total() <= naive.total() + 1e-9);
    }

    /// Theorem 5.3: under the fully-correlated model (g = 1) the bounded
    /// probe search (subsets of ≤ 2 columns) finds the exhaustive optimum.
    #[test]
    fn theorem_5_3_random_instances(
        pred_params in prop::collection::vec(
            (0.01f64..1.0, 0.0f64..20.0, 1.0f64..2_000.0), 1..6),
        n in 10.0f64..10_000.0,
    ) {
        let p = CostParams::mercury(50_000.0); // g = 1
        let stats = JoinStatistics {
            n,
            n_k: n,
            preds: pred_params
                .iter()
                .map(|&(s, f, d)| PredStats::simple(s, f, d.min(n)))
                .collect(),
            sel_fanout: 50_000.0,
            sel_postings: 0.0,
            sel_terms: 0,
            needs_long: false,
            short_form_sufficient: true,
        };
        let (_, e) = optimal_probe_exhaustive(&p, &stats, cost_p_ts).expect("k ≥ 1");
        let (cols, b) = optimal_probe_bounded(&p, &stats, cost_p_ts).expect("k ≥ 1");
        let (e, b) = (p.price(&e), p.price(&b));
        prop_assert!((e.total() - b.total()).abs() < 1e-6,
            "bounded {} ({:?}) vs exhaustive {}", b.total(), cols, e.total());
    }
}

// ---------------------------------------------------------------------
// Plan-quality: on exact-stats uniform worlds, EXPLAIN ANALYZE must
// report Q-error 1.0 and the counterfactual regret must be zero.
// ---------------------------------------------------------------------

/// A uniform single-relation world the cost model is *exact* on: one
/// relation row whose key matches exactly `f` documents, an optional
/// selection term present in every document (so the selection scaling
/// factor is 1 and intersections are exact), no faults, n = 1 (the
/// distinct-docs formula `D(1-(1-F/D)^n)` is exact only at n = 1).
fn uniform_world(
    f: usize,
    bg: usize,
    with_selection: bool,
    projection: textjoin::core::methods::Projection,
) -> (
    textjoin::rel::catalog::Catalog,
    TextServer,
    textjoin::core::optimizer::plan::MultiJoinQuery,
) {
    use textjoin::core::optimizer::plan::{ForeignSpec, MultiJoinQuery, RelSpec};
    use textjoin::rel::catalog::Catalog;
    use textjoin::rel::expr::Pred;
    use textjoin::rel::schema::RelSchema;
    use textjoin::rel::table::Table;
    use textjoin::rel::tuple;
    use textjoin::rel::value::ValueType;

    let mut catalog = Catalog::new();
    let mut r = Table::new("r", RelSchema::from_columns(vec![("name", ValueType::Str)]));
    r.push(tuple!["alpha"]);
    catalog.register(r);

    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").expect("title");
    let au = schema.field_by_name("author").expect("author");
    let mut coll = Collection::new(schema);
    for _ in 0..f {
        coll.add_document(Document::new().with(ti, "common").with(au, "alpha"));
    }
    for _ in 0..bg {
        coll.add_document(Document::new().with(ti, "common").with(au, "beta"));
    }
    let q = MultiJoinQuery {
        relations: vec![RelSpec {
            name: "r".into(),
            local_pred: Pred::True,
        }],
        rel_joins: vec![],
        selections: if with_selection {
            vec![("common".into(), "title".into())]
        } else {
            vec![]
        },
        foreign: vec![ForeignSpec {
            rel: 0,
            column: "name".into(),
            field: "author".into(),
        }],
        projection,
    };
    (catalog, TextServer::new(coll), q)
}

proptest! {
    /// On a fault-free world whose exported statistics describe the
    /// corpus exactly, the planner's estimate matches the booked actuals
    /// to within float noise (per-query cost and rows Q-error == 1.0),
    /// and no counterfactual text-join method measures cheaper than the
    /// chosen one (true regret == 0) — for every generated workload.
    #[test]
    fn exact_stats_mean_unit_q_error_and_zero_regret(
        f in 1usize..5,
        bg in 0usize..7,
        with_selection in proptest::bool::ANY,
        full in proptest::bool::ANY,
    ) {
        use textjoin::core::exec::{execute_prepared, prepare_plan, ExecHooks};
        use textjoin::core::methods::Projection;
        use textjoin::core::optimizer::multi::{
            text_join_candidates, with_text_method, ExecutionSpace, PlannedQuery,
        };

        let projection = if full { Projection::Full } else { Projection::RelOnly };
        let (catalog, server, q) = uniform_world(f, bg, with_selection, projection);
        let params = CostParams::mercury(server.doc_count() as f64);
        let (input, planned) = prepare_plan(
            &q, &catalog, &server, params, ExecutionSpace::PrlResiduals, None, None,
        ).expect("plans");
        let hooks = ExecHooks { analyze: true, ..ExecHooks::default() };
        let outcome = execute_prepared(&input, &planned, &catalog, &server, &hooks)
            .expect("executes");
        let pq = outcome.plan_quality.as_ref().expect("analyze was on");
        prop_assert!(
            (pq.cost_q - 1.0).abs() < 1e-9,
            "cost q {} on exact stats (f={f} bg={bg} sel={with_selection} full={full})\n{}",
            pq.cost_q, pq.render()
        );
        prop_assert!(
            (pq.rows_q - 1.0).abs() < 1e-9,
            "rows q {} on exact stats\n{}", pq.rows_q, pq.render()
        );
        // Counterfactual regret: graft every enumerated text-join method
        // into the same tree and replay each on its own fresh sandbox —
        // none may measure cheaper than the chosen plan.
        if let Some(cands) = text_join_candidates(&input, &planned.plan) {
            for c in cands {
                let Some(variant) = with_text_method(&planned.plan, c.kind, &c.probe_cols)
                else { continue };
                let vplanned = PlannedQuery {
                    plan: variant,
                    est_cost: planned.est_cost,
                    est_rows: planned.est_rows,
                };
                let vbox = TextServer::new(server.collection().clone());
                if let Ok(vout) = execute_prepared(
                    &input, &vplanned, &catalog, &vbox, &ExecHooks::default(),
                ) {
                    prop_assert!(
                        outcome.total_cost <= vout.total_cost + 1e-9,
                        "regret: chosen {} but {} measured {}",
                        outcome.total_cost, c.label, vout.total_cost
                    );
                }
            }
        }
    }
}

/// Estimates are counts priced once, so on exact statistics an estimate's
/// postings are the booked postings as floats, not just within noise: for
/// every node of the chosen plan and of every counterfactual method
/// grafted into it, over a grid of uniform worlds.
#[test]
fn exact_stats_estimate_the_booked_postings_exactly() {
    use textjoin::core::exec::{execute_prepared, prepare_plan, ExecHooks};
    use textjoin::core::methods::Projection;
    use textjoin::core::optimizer::multi::{
        text_join_candidates, with_text_method, ExecutionSpace, PlannedQuery,
    };

    let analyze = ExecHooks {
        analyze: true,
        ..ExecHooks::default()
    };
    let mut checked = 0;
    for f in 1..40 {
        for bg in 0..7 {
            for with_selection in [false, true] {
                for projection in [Projection::RelOnly, Projection::Full] {
                    let (catalog, server, q) = uniform_world(f, bg, with_selection, projection);
                    let params = CostParams::mercury(server.doc_count() as f64);
                    let (input, planned) = prepare_plan(
                        &q,
                        &catalog,
                        &server,
                        params,
                        ExecutionSpace::PrlResiduals,
                        None,
                        None,
                    )
                    .expect("plans");
                    let mut plans = vec![planned.plan.clone()];
                    for c in text_join_candidates(&input, &planned.plan).unwrap_or_default() {
                        plans.extend(with_text_method(&planned.plan, c.kind, &c.probe_cols));
                    }
                    for plan in plans {
                        let planned = PlannedQuery { plan, ..planned };
                        let fresh = TextServer::new(server.collection().clone());
                        let Ok(out) =
                            execute_prepared(&input, &planned, &catalog, &fresh, &analyze)
                        else {
                            continue;
                        };
                        for n in &out.plan_quality.expect("analyze was on").nodes {
                            assert_eq!(
                                n.est.est.postings, n.act.postings,
                                "{} (f={f} bg={bg} sel={with_selection} {projection:?})",
                                n.est.label
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 39 * 7 * 4, "{checked} nodes checked");
}

// ---------------------------------------------------------------------
// The RTP family's comparison counts and the multi-join's pair counts
// are the `c_a` / `c_pair` terms of every recorded cost: they are booked
// from cardinalities and short-circuit position, so an independent model
// of those must reproduce them exactly, whatever the matcher touches.
// ---------------------------------------------------------------------

mod counts {
    use proptest::prelude::*;

    use textjoin::core::cost::params::CostParams;
    use textjoin::core::exec::{row_strings, MultiExecutor};
    use textjoin::core::methods::probe::probe_rtp;
    use textjoin::core::methods::rtp::relational_text_processing;
    use textjoin::core::methods::sj::semi_join;
    use textjoin::core::methods::ts::tuple_substitution;
    use textjoin::core::methods::{
        ExecContext, ForeignJoin, MethodOutcome, Projection, TextSelection,
    };
    use textjoin::core::optimizer::multi::PlannerInput;
    use textjoin::core::optimizer::plan::{
        ForeignSpec, MultiJoinQuery, PlanNode, RelJoinPred, RelSpec,
    };
    use textjoin::core::optimizer::single::MethodKind;
    use textjoin::rel::catalog::Catalog;
    use textjoin::rel::expr::{CmpOp, Pred};
    use textjoin::rel::schema::{ColId, RelSchema};
    use textjoin::rel::strmatch::contains_term;
    use textjoin::rel::table::Table;
    use textjoin::rel::tuple::Tuple;
    use textjoin::rel::value::{Value, ValueType};
    use textjoin::text::doc::{DocId, Document, FieldId, TextSchema};
    use textjoin::text::index::Collection;
    use textjoin::text::server::TextServer;

    /// Single tokens: a `RelJoin` residual matches against the
    /// `"; "`-joined document column, which single tokens cannot straddle
    /// (DESIGN §3.2; the hazard itself is pinned below by
    /// `residual_matches_across_the_value_straddle_known_hazard`).
    const NAMES: &[&str] = &["Ann", "BOB", "cy", "dee"];

    /// For the RTP family, which keeps values apart: names of several
    /// words, punctuation inside a name, and one first word shared by
    /// three of them — the candidate word index finds "Ann Lee" among
    /// "ann", "ann lee" and "ann b. lee" and must tell them apart.
    const WORDY_NAMES: &[&str] = &[
        "Ann",
        "Ann Lee",
        "Ann B. Lee",
        "O'Neil-LEE",
        "BOB",
        "cy lee",
    ];

    /// A join value: NULL, empty, blank, or a name.
    fn cell(names: &'static [&'static str]) -> impl Strategy<Value = Value> {
        (0usize..3 + names.len()).prop_map(move |i| match i {
            0 => Value::Null,
            1 => Value::str(""),
            2 => Value::str("  "),
            i => Value::str(names[i - 3]),
        })
    }

    fn relation(
        name: &'static str,
        names: &'static [&'static str],
    ) -> impl Strategy<Value = Table> {
        prop::collection::vec((cell(names), cell(names)), 0..7).prop_map(move |rows| {
            let schema =
                RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
            let mut t = Table::new(name, schema);
            for (a, b) in rows {
                t.push(Tuple::new(vec![a, b]));
            }
            t
        })
    }

    /// Documents with 0–3 author values (short form), an abstract of 0–3
    /// names (long form only), and a title most of them share.
    fn corpus(names: &'static [&'static str]) -> impl Strategy<Value = TextServer> {
        let names = move || prop::collection::vec(prop::sample::select(names), 0..4);
        prop::collection::vec((names(), names(), 0usize..4), 1..9).prop_map(|docs| {
            let schema = TextSchema::bibliographic();
            let field = |n: &str| schema.field_by_name(n).expect("bibliographic field");
            let (ti, au, ab) = (field("title"), field("author"), field("abstract"));
            let mut coll = Collection::new(schema);
            for (authors, abstract_words, rare) in docs {
                let title = if rare == 0 { "rare" } else { "common topic" };
                let mut d = Document::new().with(ti, title);
                for a in authors {
                    d.push(au, a.to_lowercase());
                }
                if !abstract_words.is_empty() {
                    d.push(ab, abstract_words.join(", "));
                }
                coll.add_document(d);
            }
            TextServer::new(coll)
        })
    }

    fn holds(doc: &Document, field: FieldId, needle: &str) -> bool {
        doc.values(field).iter().any(|v| contains_term(v, needle))
    }

    /// The paper's `c_a` rule for one (tuple, candidate) pair: predicates
    /// in order, one comparison each, stop at the first that fails; a NULL
    /// join value is a comparison that fails.
    fn checks(fj: &ForeignJoin<'_>, t: &Tuple, doc: &Document) -> u64 {
        let mut n = 0;
        for (&col, &field) in fj.join_cols.iter().zip(&fj.join_fields) {
            n += 1;
            if !t
                .get(col)
                .as_str()
                .is_some_and(|needle| holds(doc, field, needle))
            {
                break;
            }
        }
        n
    }

    /// The join values a search can be instantiated with, if all are usable.
    fn key<'t>(fj: &ForeignJoin<'_>, t: &'t Tuple, preds: &[usize]) -> Option<Vec<&'t str>> {
        preds
            .iter()
            .map(|&i| {
                t.get(fj.join_cols[i])
                    .as_str()
                    .filter(|s| !s.trim().is_empty())
            })
            .collect()
    }

    /// Docids satisfying the selections and, for `key`, predicates `preds`.
    fn search(
        fj: &ForeignJoin<'_>,
        server: &TextServer,
        preds: &[usize],
        key: &[&str],
    ) -> Vec<DocId> {
        (0..server.doc_count() as u32)
            .map(DocId)
            .filter(|&id| {
                let doc = server.collection().document(id).expect("dense ids");
                fj.selections.iter().all(|s| holds(doc, s.field, &s.term))
                    && preds
                        .iter()
                        .zip(key)
                        .all(|(&i, k)| holds(doc, fj.join_fields[i], k))
            })
            .collect()
    }

    fn total_checks(
        fj: &ForeignJoin<'_>,
        server: &TextServer,
        tuples: &[&Tuple],
        cands: &[DocId],
    ) -> u64 {
        let doc = |id: &DocId| server.collection().document(*id).expect("dense ids");
        tuples
            .iter()
            .map(|t| cands.iter().map(|id| checks(fj, t, doc(id))).sum::<u64>())
            .sum()
    }

    /// `student ⋈text` on `student.name in author` (by TS), then
    /// `⋈ faculty` on `dept !=` with `faculty.name in author` as the join's
    /// residual; titles must hold "common".
    fn residual_query() -> (MultiJoinQuery, PlanNode) {
        let q = MultiJoinQuery {
            relations: ["student", "faculty"]
                .map(|name| RelSpec {
                    name: name.into(),
                    local_pred: Pred::True,
                })
                .to_vec(),
            rel_joins: vec![RelJoinPred {
                left_rel: 0,
                left_col: "dept".into(),
                op: CmpOp::Ne,
                right_rel: 1,
                right_col: "dept".into(),
            }],
            selections: vec![("common".into(), "title".into())],
            foreign: [0, 1]
                .map(|rel| ForeignSpec {
                    rel,
                    column: "name".into(),
                    field: "author".into(),
                })
                .to_vec(),
            projection: Projection::Full,
        };
        let plan = PlanNode::RelJoin {
            left: Box::new(PlanNode::TextJoin {
                input: Some(Box::new(PlanNode::Scan { rel: 0 })),
                preds: vec![0],
                method: MethodKind::Ts,
                probe_cols: vec![],
            }),
            right: Box::new(PlanNode::Scan { rel: 1 }),
            preds: vec![0],
            foreign_residuals: vec![1],
        };
        (q, plan)
    }

    fn shape(fj: &ForeignJoin<'_>, out: &MethodOutcome) -> Vec<String> {
        let mut rows = row_strings(&out.table);
        if fj.projection == Projection::DocIds {
            rows.dedup();
        }
        rows
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rtp_family_books_the_short_circuit_count(
            rel in relation("r", WORDY_NAMES),
            server in corpus(WORDY_NAMES),
            k in 1usize..3,
            long_fields in (proptest::bool::ANY, proptest::bool::ANY),
            projection in prop::sample::select(&[Projection::RelOnly, Projection::DocIds, Projection::Full][..]),
        ) {
            let schema = server.collection().schema();
            let field = |long: bool| schema.field_by_name(if long { "abstract" } else { "author" }).expect("field");
            let fj = ForeignJoin {
                rel: &rel,
                join_cols: [ColId(0), ColId(1)][..k].to_vec(),
                join_fields: [field(long_fields.0), field(long_fields.1)][..k].to_vec(),
                selections: vec![TextSelection {
                    term: "common".into(),
                    field: schema.field_by_name("title").expect("title"),
                }],
                projection,
            };
            let ctx = ExecContext::new(&server);
            let all: Vec<usize> = (0..k).collect();
            let every_tuple: Vec<&Tuple> = rel.iter().collect();
            let ts = tuple_substitution(&ctx, &fj, true).expect("TS runs");

            // RTP: every tuple against every selection match.
            let rtp = relational_text_processing(&ctx, &fj).expect("RTP runs");
            let selected = search(&fj, &server, &[], &[]);
            prop_assert_eq!(rtp.report.rtp_comparisons, total_checks(&fj, &server, &every_tuple, &selected));
            prop_assert_eq!(shape(&fj, &rtp), shape(&fj, &ts));

            // SJ+RTP: every tuple against the union of the full-key matches;
            // the pure semi-join (docids) matches nothing back.
            let sj = semi_join(&ctx, &fj).expect("SJ runs");
            let mut matched: Vec<DocId> = rel
                .iter()
                .filter_map(|t| key(&fj, t, &all))
                .flat_map(|key| search(&fj, &server, &all, &key))
                .collect();
            matched.sort_unstable();
            matched.dedup();
            let expected = if projection == Projection::DocIds {
                0
            } else {
                total_checks(&fj, &server, &every_tuple, &matched)
            };
            prop_assert_eq!(sj.report.rtp_comparisons, expected);
            prop_assert_eq!(shape(&fj, &sj), shape(&fj, &ts));

            // P+RTP on predicate 0: tuples whose probe matched something,
            // against the union of the probes' matches.
            let prtp = probe_rtp(&ctx, &fj, &[0]).expect("P+RTP runs");
            let probed: Vec<(&Tuple, Vec<DocId>)> = rel
                .iter()
                .filter_map(|t| Some((t, search(&fj, &server, &[0], &key(&fj, t, &[0])?))))
                .filter(|(_, ids)| !ids.is_empty())
                .collect();
            let mut cands: Vec<DocId> = probed.iter().flat_map(|(_, ids)| ids.iter().copied()).collect();
            cands.sort_unstable();
            cands.dedup();
            let survivors: Vec<&Tuple> = probed.iter().map(|(t, _)| *t).collect();
            prop_assert_eq!(prtp.report.rtp_comparisons, total_checks(&fj, &server, &survivors, &cands));
            prop_assert_eq!(shape(&fj, &prtp), shape(&fj, &ts));
        }

        /// `student ⋈text` then `⋈ faculty` with `faculty.name in author`
        /// as the join's residual: pairs and comparisons are the operand
        /// cardinalities multiplied out, not what evaluation touched (the
        /// `dept !=` conjunct fails first on most pairs).
        #[test]
        fn rel_join_books_pairs_and_residuals_from_cardinalities(
            student in relation("student", NAMES),
            faculty in relation("faculty", NAMES),
            server in corpus(NAMES),
        ) {
            let (q, plan) = residual_query();
            let schema = server.collection().schema();
            let au = schema.field_by_name("author").expect("author");
            let ti = schema.field_by_name("title").expect("title");
            // The left operand, by brute force: (student, document) pairs.
            let mut left: Vec<(&Tuple, &Document)> = Vec::new();
            for s in student.iter() {
                let Some(name) = s.get(ColId(0)).as_str().filter(|n| !n.trim().is_empty()) else {
                    continue;
                };
                for d in 0..server.doc_count() as u32 {
                    let doc = server.collection().document(DocId(d)).expect("dense ids");
                    if holds(doc, ti, "common") && holds(doc, au, name) {
                        left.push((s, doc));
                    }
                }
            }
            let rows = left
                .iter()
                .flat_map(|(s, doc)| faculty.iter().map(move |f| (*s, *doc, f)))
                .filter(|(s, doc, f)| {
                    s.get(ColId(1)).sql_cmp(f.get(ColId(1))).is_some_and(|o| o.is_ne())
                        && f.get(ColId(0)).as_str().is_some_and(|n| holds(doc, au, n))
                })
                .count();

            let mut catalog = Catalog::new();
            catalog.register(student.clone());
            catalog.register(faculty.clone());
            let params = CostParams::mercury(server.doc_count() as f64);
            let input = PlannerInput::gather(&q, &catalog, &server.export_stats(), schema, params)
                .expect("gathers");
            let out = MultiExecutor::new(&input, &catalog, ExecContext::new(&server))
                .expect("prepares")
                .execute(&plan)
                .expect("executes");
            let pairs = (left.len() * faculty.len()) as u64;
            prop_assert_eq!(out.rel_pairs, pairs);
            prop_assert_eq!(out.rtp_comparisons, pairs, "one residual, and TS compares nothing");
            prop_assert_eq!(out.table.len(), rows);
        }
    }

    /// KNOWN HAZARD (DESIGN §3.2, ROADMAP item 3), pinned not fixed. A
    /// `RelJoin` residual reads a document's authors as the one column
    /// `doc_values` builds by joining them with `"; "`; normalization
    /// drops the separator, so `"lee bo"` matches the end of `"Ann Lee"`
    /// run into the start of `"Bo Cy"`. No author is called that: the text
    /// index and the RTP family's matcher, which keep values apart, both
    /// say so. Whoever makes the residual per-value flips `STRADDLES`.
    #[test]
    fn residual_matches_across_the_value_straddle_known_hazard() {
        const STRADDLES: usize = 1; // 0 once fixed

        let schema = TextSchema::bibliographic();
        let field = |n: &str| schema.field_by_name(n).expect("bibliographic field");
        let (ti, au) = (field("title"), field("author"));
        let mut coll = Collection::new(schema.clone());
        coll.add_document(
            Document::new()
                .with(ti, "common topic")
                .with(au, "Ann Lee")
                .with(au, "Bo Cy"),
        );
        let server = TextServer::new(coll);
        let relation = |name: &str, row: [&str; 2]| {
            let columns = vec![("name", ValueType::Str), ("dept", ValueType::Str)];
            let mut t = Table::new(name, RelSchema::from_columns(columns));
            t.push(Tuple::new(row.map(Value::str).to_vec()));
            t
        };
        let student = relation("student", ["Ann Lee", "db"]);
        let faculty = relation("faculty", ["lee bo", "ai"]);

        // `student ⋈text` finds the document; `faculty.name in author` is
        // then the residual of `⋈ faculty`.
        let (q, plan) = residual_query();
        let mut catalog = Catalog::new();
        catalog.register(student);
        catalog.register(faculty.clone());
        let params = CostParams::mercury(server.doc_count() as f64);
        let input = PlannerInput::gather(&q, &catalog, &server.export_stats(), &schema, params)
            .expect("gathers");
        let out = MultiExecutor::new(&input, &catalog, ExecContext::new(&server))
            .expect("prepares")
            .execute(&plan)
            .expect("executes");
        assert_eq!(
            out.table.len(),
            STRADDLES,
            "the residual, across two author values"
        );

        // The same predicate as a foreign join of `faculty`: no match, by
        // the text index (TS) and by the relational matcher (RTP) alike.
        let fj = ForeignJoin {
            rel: &faculty,
            join_cols: vec![ColId(0)],
            join_fields: vec![au],
            selections: vec![TextSelection {
                term: "common".into(),
                field: ti,
            }],
            projection: Projection::Full,
        };
        let ctx = ExecContext::new(&server);
        assert!(tuple_substitution(&ctx, &fj, true)
            .expect("TS runs")
            .table
            .is_empty());
        let rtp = relational_text_processing(&ctx, &fj).expect("RTP runs");
        assert!(rtp.table.is_empty(), "values are matched one at a time");
        assert_eq!(
            rtp.report.rtp_comparisons, 1,
            "one tuple, one candidate, one check"
        );
    }
}

// ---------------------------------------------------------------------
// Result multisets are topology-invariant: the fixed case of
// `accounting.rs::sharded_answers_match_single_server_with_per_shard_invoice`
// (Q3, TS, 4 shards) over every applicable method of Q1–Q4 and generated
// topologies. This is the contract that lets the gather loop move without
// the answers or the counted work moving with it.
// ---------------------------------------------------------------------

mod topology {
    use proptest::prelude::*;

    use textjoin::core::cost::params::CostParams;
    use textjoin::core::exec::{canonical_rows, execute_single};
    use textjoin::core::methods::probe::ProbeSchedule;
    use textjoin::core::methods::ExecContext;
    use textjoin::core::optimizer::single::enumerate_methods;
    use textjoin::core::query::prepare;
    use textjoin::text::server::Usage;
    use textjoin::text::shard::ShardedTextServer;
    use textjoin::text::TextService;
    use textjoin::workload::paper;
    use textjoin::workload::world::{World, WorldSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Fault-free, stats routing off: whatever the shard count, replica
        /// count and partition seed, every method returns the lone
        /// server's rows and ships the lone server's documents, reads no
        /// more postings than it, and is invoiced each logical search once
        /// per shard — on the primaries alone.
        #[test]
        fn every_method_answers_alike_on_every_topology(
            shards in 1usize..7,
            replicas in 1usize..4,
            seed in 0u64..1_000_000,
        ) {
            let w = World::generate(WorldSpec {
                background_docs: 120,
                students: 30,
                projects: 10,
                ..WorldSpec::default()
            });
            let schema = w.server.collection().schema();
            let export = w.server.export_stats();
            let params = CostParams::mercury(w.server.doc_count() as f64);
            for (name, q) in [
                ("Q1", paper::q1(&w)),
                ("Q2", paper::q2(&w)),
                ("Q3", paper::q3(&w)),
                ("Q4", paper::q4(&w)),
            ] {
                let p = prepare(&q, &w.catalog, schema).expect("prepares");
                let stats = p.statistics_from_export(&export, schema);
                for cand in enumerate_methods(&params, &stats, q.projection, false) {
                    let what = format!("{name} {} on {shards}x{replicas} seed {seed}", cand.label);
                    w.server.reset_usage();
                    let lone = execute_single(
                        &ExecContext::new(&w.server), &p, &cand, ProbeSchedule::ProbeFirst,
                    ).expect("lone server runs");
                    let one = lone.report.text;

                    let sharded =
                        ShardedTextServer::replicated(w.server.collection(), shards, replicas, seed);
                    let out = execute_single(
                        &ExecContext::new(&sharded), &p, &cand, ProbeSchedule::ProbeFirst,
                    ).expect("sharded service runs");
                    prop_assert_eq!(canonical_rows(&out.table), canonical_rows(&lone.table), "{}", what);

                    let agg = sharded.usage();
                    prop_assert_eq!(agg.invocations, shards as u64 * one.invocations, "{}", what);
                    // Transmissions are partitioned, not duplicated: the
                    // same documents come back, each from one shard, and
                    // each retrieve is invoiced once.
                    prop_assert_eq!(agg.docs_short, one.docs_short, "{}", what);
                    prop_assert_eq!(agg.docs_long, one.docs_long, "{}", what);
                    // A shard whose first conjunct is empty short-circuits
                    // its AND before reading the remaining lists.
                    prop_assert!(agg.postings_processed <= one.postings_processed, "{}", what);
                    for i in 0..shards {
                        for r in (0..replicas).filter(|&r| r != sharded.primary_of(i)) {
                            prop_assert_eq!(
                                sharded.replica(i, r).usage(), Usage::default(),
                                "{}: secondary {} of shard {} stays free", what, r, i
                            );
                        }
                    }
                }
            }
        }
    }
}
