//! Property test: the view executor is the materializing one.
//!
//! `MultiExecutor` keeps every intermediate relation of a PrL plan as a
//! view of row indices and builds a row only where it leaves the plan.
//! Over generated small catalogs, collections and PrL plans — scans with
//! local predicates, probe nodes, relational joins on `=` / `!=` with
//! foreign residuals, and a text join with each menu method, text-first
//! included — every node's output, executed on its own, must be the
//! reference built here row for row, order and column names included:
//!
//! * a scan is the catalog rows its local predicate passes;
//! * a probe node keeps the rows whose probe matches a document;
//! * a relational join is the nested loop over concatenated rows,
//!   left-major, its predicates evaluated on the concatenation;
//! * a text join is the same method run over the reference's
//!   materialized input table, on a server of its own.
//!
//! The whole plan's `rel_pairs` and `rtp_comparisons` must be their closed
//! forms over the reference's cardinalities.

use proptest::prelude::*;
use textjoin_core::cost::params::CostParams;
use textjoin_core::exec::MultiExecutor;
use textjoin_core::methods::probe::{probe_rtp, probe_tuple_substitution, ProbeSchedule};
use textjoin_core::methods::rtp::relational_text_processing;
use textjoin_core::methods::sj::semi_join;
use textjoin_core::methods::ts::tuple_substitution;
use textjoin_core::methods::{
    ExecContext, ForeignJoin, MethodError, MethodOutcome, Projection, TextSelection,
};
use textjoin_core::optimizer::multi::PlannerInput;
use textjoin_core::optimizer::plan::{ForeignSpec, MultiJoinQuery, PlanNode, RelJoinPred, RelSpec};
use textjoin_core::optimizer::single::MethodKind;
use textjoin_rel::catalog::Catalog;
use textjoin_rel::expr::{CmpOp, Pred};
use textjoin_rel::schema::RelSchema;
use textjoin_rel::table::Table;
use textjoin_rel::tuple::Tuple;
use textjoin_rel::value::{Value, ValueType};
use textjoin_text::doc::{DocId, Document, TextSchema};
use textjoin_text::expr::SearchExpr;
use textjoin_text::index::Collection;
use textjoin_text::server::TextServer;

const RELATIONS: [&str; 3] = ["student", "faculty", "project"];
/// Names shared by the relations and the documents' authors; a cell also
/// draws NULL (index 5) or a blank string (6), which never match.
const NAMES: [&str; 5] = ["Garcia", "Kao", "Pham", "Lee", "Ann Lee"];
const DEPTS: [&str; 2] = ["CS", "EE"];
const WORDS: [&str; 4] = ["text", "belief", "query", "update"];

/// Per relation: rows of (name index, dept index).
type Rows = Vec<(usize, usize)>;
/// Per document: title word indices and author name indices.
type Docs = Vec<(Vec<usize>, Vec<usize>)>;

fn name(i: usize) -> Value {
    match i {
        5 => Value::Null,
        6 => Value::str("  "),
        i => Value::str(NAMES[i]),
    }
}

fn catalog(rows: &[Rows; 3]) -> Catalog {
    let mut catalog = Catalog::new();
    for (rel, rows) in RELATIONS.iter().zip(rows) {
        let schema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        let mut t = Table::new(*rel, schema);
        for &(n, d) in rows {
            let dept = DEPTS.get(d).map_or(Value::Null, Value::str);
            t.push(Tuple::new(vec![name(n), dept]));
        }
        catalog.register(t);
    }
    catalog
}

fn collection(docs: &Docs) -> Collection {
    let schema = TextSchema::bibliographic();
    let ti = schema.field_by_name("title").expect("title");
    let au = schema.field_by_name("author").expect("author");
    let mut coll = Collection::new(schema);
    for (title, authors) in docs {
        let words: Vec<&str> = title.iter().map(|&w| WORDS[w]).collect();
        let mut d = Document::new().with(ti, words.join(" "));
        for &a in authors {
            d.push(au, NAMES[a]);
        }
        coll.add_document(d);
    }
    coll
}

/// Three relations, each `name in author`; student–faculty and
/// faculty–project joined on `dept` with `ops`; a local predicate on each
/// relation (none, `dept = 'CS'`, `name != 'Kao'`); an optional selection.
fn query(ops: (bool, bool), locals: [usize; 3], selection: bool) -> MultiJoinQuery {
    let local = |i: usize| match i {
        0 => Pred::True,
        1 => Pred::eq(textjoin_rel::schema::ColId(1), "CS"),
        _ => Pred::Cmp {
            col: textjoin_rel::schema::ColId(0),
            op: CmpOp::Ne,
            rhs: Value::str("Kao"),
        },
    };
    let dept = |l: usize, r: usize, eq: bool| RelJoinPred {
        left_rel: l,
        left_col: "dept".into(),
        op: if eq { CmpOp::Eq } else { CmpOp::Ne },
        right_rel: r,
        right_col: "dept".into(),
    };
    MultiJoinQuery {
        relations: (0..3)
            .map(|i| RelSpec {
                name: RELATIONS[i].into(),
                local_pred: local(locals[i]),
            })
            .collect(),
        rel_joins: vec![dept(0, 1, ops.0), dept(1, 2, ops.1)],
        selections: if selection {
            vec![("text".into(), "title".into())]
        } else {
            vec![]
        },
        foreign: (0..3)
            .map(|rel| ForeignSpec {
                rel,
                column: "name".into(),
                field: "author".into(),
            })
            .collect(),
        projection: Projection::Full,
    }
}

const METHODS: [MethodKind; 5] = [
    MethodKind::Ts,
    MethodKind::Rtp,
    MethodKind::Sj,
    MethodKind::PTs,
    MethodKind::PRtp,
];

/// A left-deep PrL tree over the relations in `order`: the text join sits
/// after the first `text_at` relations (0: the text-first scan), bit `k`
/// of `probes` puts a probe node over the `k`-th relational input below
/// the text join, and relations joined above it carry their foreign
/// predicate as a residual.
fn plan(order: [usize; 3], text_at: usize, probes: usize, method: MethodKind) -> PlanNode {
    let probe = |node: PlanNode, rels: &[usize], k: usize| {
        if probes >> k & 1 == 1 {
            PlanNode::Probe {
                input: Box::new(node),
                preds: rels.to_vec(),
            }
        } else {
            node
        }
    };
    let text_join = |input: Option<PlanNode>, preds: Vec<usize>| PlanNode::TextJoin {
        input: input.map(Box::new),
        probe_cols: if matches!(method, MethodKind::PTs | MethodKind::PRtp) {
            vec![0]
        } else {
            vec![]
        },
        preds,
        method,
    };
    let mut joined: Vec<usize> = Vec::new();
    let mut cur = if text_at == 0 {
        text_join(None, vec![])
    } else {
        joined.push(order[0]);
        probe(PlanNode::Scan { rel: order[0] }, &joined, 0)
    };
    if text_at == 1 {
        cur = text_join(Some(probe(cur, &joined, 4)), joined.clone());
    }
    let start = usize::from(text_at > 0);
    for (k, &rel) in order.iter().enumerate().skip(start) {
        let below_text = joined.len() < text_at;
        let right = PlanNode::Scan { rel };
        let right = if below_text {
            probe(right, &[rel], k + 1)
        } else {
            right
        };
        // Relational joins 0 (student–faculty) and 1 (faculty–project).
        let preds = [(0, 0, 1), (1, 1, 2)]
            .into_iter()
            .filter(|&(_, a, b)| {
                (a == rel && joined.contains(&b)) || (b == rel && joined.contains(&a))
            })
            .map(|(i, _, _)| i)
            .collect();
        cur = PlanNode::RelJoin {
            left: Box::new(cur),
            right: Box::new(right),
            preds,
            foreign_residuals: if below_text { vec![] } else { vec![rel] },
        };
        joined.push(rel);
        if joined.len() == text_at {
            let input = probe(cur, &joined, 4);
            cur = text_join(Some(input), joined.clone());
        }
    }
    cur
}

/// The reference's materialized output of a node, and the closed-form
/// pair and comparison counts of its subtree.
struct Reference {
    table: Table,
    pairs: u64,
    comparisons: u64,
}

struct Fixture<'a> {
    q: &'a MultiJoinQuery,
    catalog: &'a Catalog,
    /// The reference's own server: its charges never reach the executor's.
    server: &'a TextServer,
}

impl Fixture<'_> {
    fn text_schema(&self) -> &TextSchema {
        self.server.collection().schema()
    }

    fn col(t: &Table, rel: usize, col: &str) -> textjoin_rel::schema::ColId {
        t.col(&format!("{}.{col}", RELATIONS[rel]))
    }

    fn selections(&self) -> Vec<SearchExpr> {
        self.q
            .selections
            .iter()
            .map(|(term, field)| {
                SearchExpr::term_in(term, self.text_schema().resolve(field).expect("field"))
            })
            .collect()
    }

    fn reference(&self, node: &PlanNode) -> Result<Reference, MethodError> {
        let text_schema = self.text_schema();
        let au = text_schema.field_by_name("author").expect("author");
        Ok(match node {
            PlanNode::Scan { rel } => {
                let spec = &self.q.relations[*rel];
                let t = self.catalog.table(&spec.name).expect("relation");
                let mut schema = RelSchema::new();
                for (_, def) in t.schema().iter() {
                    schema.add_column(format!("{}.{}", spec.name, def.name), def.ty);
                }
                let rows = t
                    .iter()
                    .filter(|r| spec.local_pred.eval(r))
                    .cloned()
                    .collect();
                Reference {
                    table: Table::new(spec.name.clone(), schema).with_rows(rows),
                    pairs: 0,
                    comparisons: 0,
                }
            }
            PlanNode::Probe { input, preds } => {
                let mut inner = self.reference(input)?;
                let t = &inner.table;
                let mut kept = Vec::new();
                for row in t.iter() {
                    let mut conj = self.selections();
                    for &i in preds {
                        let c = Self::col(t, self.q.foreign[i].rel, &self.q.foreign[i].column);
                        match row.get(c).as_str() {
                            Some(s) if !s.trim().is_empty() => {
                                conj.push(SearchExpr::term_in(s, au))
                            }
                            _ => break,
                        }
                    }
                    if conj.len() == self.q.selections.len() + preds.len()
                        && !self.server.search(&SearchExpr::and(conj))?.is_empty()
                    {
                        kept.push(row.clone());
                    }
                }
                let schema = t.schema().clone();
                inner.table = Table::new("probe", schema).with_rows(kept);
                inner
            }
            PlanNode::RelJoin {
                left,
                right,
                preds,
                foreign_residuals,
            } => {
                let (l, r) = (self.reference(left)?, self.reference(right)?);
                let schema = l.table.schema().concat(r.table.schema(), r.table.name());
                let joined = Table::new("join", schema.clone());
                let col = |rel: usize, c: &str| Self::col(&joined, rel, c);
                let mut conds: Vec<Pred> = preds
                    .iter()
                    .map(|&i| {
                        let p = &self.q.rel_joins[i];
                        Pred::CmpCols {
                            left: col(p.left_rel, &p.left_col),
                            op: p.op,
                            right: col(p.right_rel, &p.right_col),
                        }
                    })
                    .collect();
                for &i in foreign_residuals {
                    let f = &self.q.foreign[i];
                    conds.push(Pred::ContainsCol {
                        hay_col: joined.col(&f.field),
                        needle_col: col(f.rel, &f.column),
                    });
                }
                let pred = Pred::and(conds);
                let mut rows = Vec::new();
                for a in l.table.iter() {
                    for b in r.table.iter() {
                        let row = Tuple::new([a.values(), b.values()].concat());
                        if pred.eval(&row) {
                            rows.push(row);
                        }
                    }
                }
                let n = (l.table.len() * r.table.len()) as u64;
                Reference {
                    table: Table::new("join", schema).with_rows(rows),
                    pairs: l.pairs + r.pairs + n,
                    comparisons: l.comparisons + r.comparisons + n * foreign_residuals.len() as u64,
                }
            }
            PlanNode::TextJoin { input: None, .. } => {
                let sel = self.selections();
                if sel.is_empty() {
                    return Err(MethodError::NotApplicable("no selections".into()));
                }
                let mut schema = RelSchema::new();
                schema.add_column("docid", ValueType::Str);
                for (_, def) in text_schema.iter() {
                    schema.add_column(def.name.clone(), ValueType::Str);
                }
                let coll = self.server.collection();
                let rows = self
                    .server
                    .search(&SearchExpr::and(sel))?
                    .ids()
                    .into_iter()
                    .map(|id: DocId| {
                        let doc = coll.document(id).expect("document");
                        let mut values = vec![Value::str(id.to_string())];
                        for (f, _) in text_schema.iter() {
                            let vs = doc.values(f);
                            values.push(if vs.is_empty() {
                                Value::Null
                            } else {
                                Value::str(vs.join("; "))
                            });
                        }
                        Tuple::new(values)
                    })
                    .collect();
                Reference {
                    table: Table::new("mercury", schema).with_rows(rows),
                    pairs: 0,
                    comparisons: 0,
                }
            }
            PlanNode::TextJoin {
                input: Some(input),
                preds,
                method,
                probe_cols,
            } => {
                let inner = self.reference(input)?;
                let t = &inner.table;
                let fj = ForeignJoin {
                    rel: t,
                    join_cols: preds
                        .iter()
                        .map(|&i| Self::col(t, self.q.foreign[i].rel, &self.q.foreign[i].column))
                        .collect(),
                    join_fields: vec![au; preds.len()],
                    selections: self
                        .q
                        .selections
                        .iter()
                        .map(|(term, field)| TextSelection {
                            term: term.clone(),
                            field: text_schema.resolve(field).expect("field"),
                        })
                        .collect(),
                    projection: if preds.len() < self.q.foreign.len() {
                        Projection::Full
                    } else {
                        self.q.projection
                    },
                };
                let out = run(&ExecContext::new(self.server), &fj, *method, probe_cols)?;
                Reference {
                    table: out.table,
                    pairs: inner.pairs,
                    comparisons: inner.comparisons + out.report.rtp_comparisons,
                }
            }
        })
    }
}

fn run(
    ctx: &ExecContext<'_>,
    fj: &ForeignJoin<'_>,
    method: MethodKind,
    probe_cols: &[usize],
) -> Result<MethodOutcome, MethodError> {
    match method {
        MethodKind::Ts => tuple_substitution(ctx, fj, true),
        MethodKind::Rtp => relational_text_processing(ctx, fj),
        MethodKind::Sj => semi_join(ctx, fj),
        MethodKind::PTs => probe_tuple_substitution(ctx, fj, probe_cols, ProbeSchedule::ProbeFirst),
        MethodKind::PRtp => probe_rtp(ctx, fj, probe_cols),
    }
}

/// Every node of `plan`, parent before children.
fn nodes(plan: &PlanNode) -> Vec<&PlanNode> {
    let mut out = vec![plan];
    match plan {
        PlanNode::Scan { .. } | PlanNode::TextJoin { input: None, .. } => {}
        PlanNode::Probe { input, .. }
        | PlanNode::TextJoin {
            input: Some(input), ..
        } => {
            out.extend(nodes(input));
        }
        PlanNode::RelJoin { left, right, .. } => {
            out.extend(nodes(left));
            out.extend(nodes(right));
        }
    }
    out
}

fn column_names(t: &Table) -> Vec<String> {
    t.schema().iter().map(|(_, d)| d.name.clone()).collect()
}

const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [0, 2, 1],
    [1, 0, 2],
    [1, 2, 0],
    [2, 0, 1],
    [2, 1, 0],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn each_node_is_the_materialized_nested_loop(
        rows in (
            prop::collection::vec((0usize..7, 0usize..3), 0..6),
            prop::collection::vec((0usize..7, 0usize..3), 0..6),
            prop::collection::vec((0usize..7, 0usize..3), 0..6),
        ),
        docs in prop::collection::vec(
            (prop::collection::vec(0usize..4, 1..3), prop::collection::vec(0usize..5, 0..3)),
            0..7,
        ),
        shape in (0usize..6, 0usize..4, 0usize..32, 0usize..5),
        knobs in ((prop::bool::ANY, prop::bool::ANY), (0usize..3, 0usize..3, 0usize..3), prop::bool::ANY),
    ) {
        let rows = [rows.0, rows.1, rows.2];
        let catalog = catalog(&rows);
        let coll = collection(&docs);
        let (ops, locals, selection) = knobs;
        let q = query(ops, [locals.0, locals.1, locals.2], selection);
        let (order, text_at, probes, method) = shape;
        let plan = plan(ORDERS[order], text_at, probes, METHODS[method]);
        prop_assert!(plan.is_valid_prl(), "{:?}", plan);

        let server = TextServer::new(coll.clone());
        let params = CostParams::mercury(server.doc_count().max(1) as f64);
        let input = PlannerInput::gather(&q, &catalog, &server.export_stats(), coll.schema(), params)
            .expect("the query fits the catalog");
        let exec = MultiExecutor::new(&input, &catalog, ExecContext::new(&server))
            .expect("every relation is in the catalog");
        let reference_server = TextServer::new(coll.clone());
        let fixture = Fixture { q: &q, catalog: &catalog, server: &reference_server };

        for node in nodes(&plan) {
            let (got, want) = (exec.execute(node), fixture.reference(node));
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(got.table.rows(), want.table.rows(), "rows of {:?}", node);
                    prop_assert_eq!(column_names(&got.table), column_names(&want.table));
                    prop_assert_eq!(got.rel_pairs, want.pairs, "pairs of {:?}", node);
                    prop_assert_eq!(got.rtp_comparisons, want.comparisons, "c_a count of {:?}", node);
                }
                (Err(got), Err(want)) => {
                    prop_assert_eq!(std::mem::discriminant(&got), std::mem::discriminant(&want))
                }
                (got, want) => panic!("{node:?}: view {got:?}, reference {:?}", want.map(|w| w.table)),
            }
        }
    }
}
