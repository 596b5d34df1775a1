//! Plan execution.
//!
//! * [`execute_single`] — runs a [`MethodCandidate`] chosen by the
//!   single-join optimizer against a prepared query.
//! * [`MultiExecutor`] — interprets a multi-join [`PlanNode`] (PrL tree)
//!   against the relational catalog and the text server, evaluating probe
//!   nodes, relational joins (with foreign residuals), and the text join.
//!   Its intermediate relations are views of row indices (`View`): rows
//!   are built only where they leave the plan.
//! * [`plan_and_execute`] and [`plan_and_execute_with`] — plan and run a
//!   multi-join end to end. Their stages are public too, for callers that
//!   cache between them (a serving session): [`prepare_input`] folds the
//!   parameters and gathers statistics, [`plan_prepared`] enumerates,
//!   [`prepare_plan`] does both, and [`execute_prepared`] runs the plan
//!   under session hooks.
//!
//! All text costs are charged by the server; relational join work is
//! tallied as tuple-pair counts and charged with the planner's
//! [`RelCostModel`](crate::optimizer::relcost::RelCostModel), so measured
//! and estimated costs are directly comparable.

use std::borrow::Cow;
use std::ops::Deref;
use std::rc::Rc;

use textjoin_obs::{ns, secs, Charge, CostVector, Measure, PlanQuality};
use textjoin_rel::catalog::Catalog;
use textjoin_rel::expr::{CmpOp, Pred};
use textjoin_rel::join::{hash_join, nested_loop_join};
use textjoin_rel::ops::group_by;
use textjoin_rel::schema::{ColId, RelSchema};
use textjoin_rel::table::{Rows, Table};
use textjoin_rel::tuple::Tuple;
use textjoin_rel::value::{Value, ValueType};
use textjoin_text::doc::{DocId, TextSchema};
use textjoin_text::expr::SearchExpr;
use textjoin_text::server::Usage;
use textjoin_text::service::TextService;

use crate::cost::params::rel_ticks;
use crate::retry::{RetryBudget, RetryPolicy};
use crate::sched::{SchedConfig, Scheduler};

use crate::methods::CostCeiling;
use crate::methods::{
    doc_values,
    probe::{probe_rtp, probe_tuple_substitution, ProbeSchedule},
    rtp::relational_text_processing,
    sj::semi_join,
    ts::tuple_substitution,
    ExecContext, ForeignJoin, MethodError, MethodOutcome,
};
use crate::optimizer::multi::PlannerInput;
use crate::optimizer::plan::{MultiJoinQuery, PlanNode};
use crate::optimizer::single::{MethodCandidate, MethodKind};
use crate::query::PreparedQuery;

/// Runs the chosen single-join method.
pub fn execute_single(
    ctx: &ExecContext<'_>,
    prepared: &PreparedQuery,
    cand: &MethodCandidate,
    schedule: ProbeSchedule,
) -> Result<MethodOutcome, MethodError> {
    let fj = prepared.foreign_join();
    match cand.kind {
        MethodKind::Ts => tuple_substitution(ctx, &fj, true),
        MethodKind::Rtp => relational_text_processing(ctx, &fj),
        MethodKind::Sj => semi_join(ctx, &fj),
        MethodKind::PTs => probe_tuple_substitution(ctx, &fj, &cand.probe_cols, schedule),
        MethodKind::PRtp => probe_rtp(ctx, &fj, &cand.probe_cols),
    }
}

/// The result of executing a multi-join plan.
#[derive(Debug, Clone)]
pub struct MultiOutcome {
    /// The final rows.
    pub table: Table,
    /// Text-server usage charged to the plan.
    pub text: Usage,
    /// Relational tuple pairs compared across joins.
    pub rel_pairs: u64,
    /// Relational text-processing comparisons (residuals + RTP methods).
    pub rtp_comparisons: u64,
    /// Total simulated cost in seconds: the tick sum text +
    /// `ns(c_pair)`·pairs + `ns(c_a)`·comparisons, rendered once.
    pub total_cost: f64,
    /// Critical-path completion time of the transport under bounded
    /// concurrency, in ticks. Whenever no leg overlaps another (no
    /// scheduler, or a lone server: no scatter phase) the transport is
    /// serial: `makespan == serial_transport == text.ticks()`.
    pub makespan: u64,
    /// What a fully serial transport would have taken, in ticks
    /// (cancelled hedge legs included — their work was issued).
    pub serial_transport: u64,
    /// Hedge legs launched against a slow-but-alive primary replica.
    pub hedges: u64,
    /// Legs cancelled (one race loser per hedge, its charge rebated).
    pub cancels: u64,
    /// Queries whose critical path crossed the deadline (0 or 1).
    pub deadline_misses: u64,
    /// Method downgrades taken under deadline pressure instead of erroring.
    pub degradations: u64,
    /// Estimated-vs-actual reconciliation per plan node, when EXPLAIN
    /// ANALYZE attribution was enabled ([`MultiExecutor::analyze`]).
    /// Pure post-hoc arithmetic — never present unless asked for, and
    /// never perturbs a charge when it is.
    pub plan_quality: Option<PlanQuality>,
}

/// A table an intermediate relation reads its rows from: a catalog table,
/// or one the plan built (a text join's output, the text-first scan's
/// documents).
#[derive(Debug, Clone)]
enum Part<'a> {
    Catalog(&'a Table),
    Built(Rc<Table>),
}

impl Deref for Part<'_> {
    type Target = Table;

    fn deref(&self) -> &Table {
        match self {
            Part::Catalog(t) => t,
            Part::Built(t) => t,
        }
    }
}

/// An intermediate relation of a PrL plan, read in place. Each row is one
/// row index per part; the columns are the parts' columns side by side,
/// under the plan's names. A scan holds the catalog rows its local
/// predicate passes, a probe node a subset of its input's rows, a
/// relational join its input pairs' index tuples: no operator copies a
/// row. A [`Tuple`] is built only where a row leaves the plan — at a text
/// join's emit, in [`doc_table`], and at the root ([`View::into_table`]).
#[derive(Debug, Clone)]
struct View<'a> {
    name: String,
    schema: RelSchema,
    parts: Vec<Part<'a>>,
    /// Per column: the part it comes from and its column there.
    cols: Vec<(usize, ColId)>,
    /// Row `i`'s index into part `p` is `idx[i * parts.len() + p]`.
    idx: Vec<usize>,
    /// Whether this is [`View::built`]'s view, every row of its one part
    /// in order: [`View::into_table`] then hands the table over.
    whole: bool,
}

impl Rows for View<'_> {
    fn schema(&self) -> &RelSchema {
        &self.schema
    }

    fn len(&self) -> usize {
        self.idx.len() / self.parts.len()
    }

    fn value(&self, row: usize, c: ColId) -> &Value {
        let (p, col) = self.cols[c.0];
        self.parts[p].rows()[self.idx[row * self.parts.len() + p]].get(col)
    }
}

impl<'a> View<'a> {
    /// Rows `idx` of `part`, its columns named by `schema`.
    fn of(name: String, schema: RelSchema, part: Part<'a>, idx: Vec<usize>) -> Self {
        Self {
            name,
            cols: (0..schema.len()).map(|c| (0, ColId(c))).collect(),
            schema,
            parts: vec![part],
            idx,
            whole: false,
        }
    }

    /// A table the plan built, whole.
    fn built(t: Table) -> Self {
        let (name, schema) = (t.name().to_owned(), t.schema().clone());
        let idx = (0..t.len()).collect();
        let view = Self::of(name, schema, Part::Built(Rc::new(t)), idx);
        Self {
            whole: true,
            ..view
        }
    }

    /// The rows of `self` numbered by `rows`, in that order.
    fn select(&self, name: String, rows: impl Iterator<Item = usize>) -> Self {
        let n = self.parts.len();
        Self {
            name,
            schema: self.schema.clone(),
            parts: self.parts.clone(),
            cols: self.cols.clone(),
            idx: rows
                .flat_map(|i| &self.idx[i * n..][..n])
                .copied()
                .collect(),
            whole: false,
        }
    }

    /// `l ⋈ r` over the row pairs `pairs`: `r`'s parts follow `l`'s, and
    /// its columns follow `l`'s under [`RelSchema::concat`]'s names.
    fn join(l: &Self, r: &Self, pairs: &[(usize, usize)]) -> Self {
        let (ln, rn) = (l.parts.len(), r.parts.len());
        let mut idx = Vec::with_capacity(pairs.len() * (ln + rn));
        for &(i, j) in pairs {
            idx.extend_from_slice(&l.idx[i * ln..][..ln]);
            idx.extend_from_slice(&r.idx[j * rn..][..rn]);
        }
        Self {
            name: format!("({} ⋈ {})", l.name, r.name),
            schema: l.schema.concat(&r.schema, &r.name),
            parts: [l.parts.as_slice(), &r.parts].concat(),
            cols: l
                .cols
                .iter()
                .copied()
                .chain(r.cols.iter().map(|&(p, c)| (p + ln, c)))
                .collect(),
            idx,
            whole: false,
        }
    }

    /// The rows leave the plan: each is built here, part by part. A
    /// [`whole`](View::whole) view's table is handed over as it is.
    fn into_table(mut self) -> Table {
        if self.whole {
            if let Some(Part::Built(t)) = self.parts.pop() {
                return Rc::try_unwrap(t).unwrap_or_else(|t| Table::clone(&t));
            }
        }
        let n = self.parts.len();
        let rows = self
            .idx
            .chunks_exact(n)
            .map(|row| {
                let mut values = Vec::with_capacity(self.schema.len());
                for (part, &i) in self.parts.iter().zip(row) {
                    values.extend_from_slice(part.rows()[i].values());
                }
                Tuple::new(values)
            })
            .collect();
        Table::new(self.name, self.schema).with_rows(rows)
    }
}

/// Executes multi-join PrL plans.
pub struct MultiExecutor<'a> {
    input: &'a PlannerInput,
    /// The context every text operation runs under, `c_a` the plan's.
    ctx: ExecContext<'a>,
    /// Each relation's scan: the catalog rows its local predicate passes,
    /// under qualified column names (`relation.column`).
    scans: Vec<View<'a>>,
    /// EXPLAIN ANALYZE: book per-node actuals, attach a [`PlanQuality`].
    analyze: bool,
}

/// What one execution has booked so far: the relational pairs and RTP
/// comparisons behind its local matching charge and, under EXPLAIN
/// ANALYZE, each node's exclusive actuals by pre-order id.
#[derive(Default)]
struct Tally {
    rel_pairs: u64,
    rtp_comparisons: u64,
    actuals: Vec<Measure>,
}

impl<'a> MultiExecutor<'a> {
    /// Prepares the executor: one scan per base relation, its rows those
    /// the local predicate passes, its column names qualified so
    /// intermediate schemas never clash; no row is copied. Every text
    /// operation runs under `ctx`, its `c_a` replaced by the comparison
    /// constant the plan was priced with.
    pub fn new(
        input: &'a PlannerInput,
        catalog: &'a Catalog,
        ctx: ExecContext<'a>,
    ) -> Result<Self, MethodError> {
        let mut scans = Vec::with_capacity(input.query.relations.len());
        for spec in &input.query.relations {
            let t = catalog.table(&spec.name).ok_or_else(|| {
                MethodError::NotApplicable(format!("unknown relation {:?}", spec.name))
            })?;
            let mut schema = RelSchema::new();
            for (_, def) in t.schema().iter() {
                schema.add_column(format!("{}.{}", spec.name, def.name), def.ty);
            }
            let rows = (0..t.len())
                .filter(|&i| spec.local_pred.eval(&t.rows()[i]))
                .collect();
            scans.push(View::of(spec.name.clone(), schema, Part::Catalog(t), rows));
        }
        Ok(Self {
            input,
            ctx: ExecContext {
                c_a: input.params.c_a,
                ..ctx
            },
            scans,
            analyze: false,
        })
    }

    /// Switches on EXPLAIN ANALYZE attribution: [`execute`](Self::execute)
    /// prices the plan with `optimizer::multi::estimate_nodes` and books
    /// each node's *exclusive* actuals under the same [`PlanNode::fold`] —
    /// the `Usage` delta of its own work (its inputs ran before it), its
    /// output rows, and its local matching cost. Attribution only reads
    /// ledgers the server already booked; it never charges.
    pub(crate) fn analyze(self) -> Self {
        Self {
            analyze: true,
            ..self
        }
    }

    fn query(&self) -> &MultiJoinQuery {
        &self.input.query
    }

    fn text_schema(&self) -> &TextSchema {
        self.ctx.server.schema()
    }

    /// Column id of `rel.col` in `schema`.
    fn resolve_col(&self, schema: &RelSchema, rel: usize, col: &str) -> Result<ColId, MethodError> {
        let name = format!("{}.{}", self.query().relations[rel].name, col);
        schema.column_by_name(&name).ok_or_else(|| {
            MethodError::NotApplicable(format!("column {name:?} not in intermediate schema"))
        })
    }

    /// Rejects a plan that does not fit the query — a relation, relational
    /// join or foreign predicate index out of range — before anything is
    /// charged.
    fn check(&self, plan: &PlanNode) -> Result<(), MethodError> {
        let q = self.query();
        let within = |idx: &[usize], len: usize| idx.iter().all(|&i| i < len);
        plan.fold(&mut |node, id, _, _: Vec<()>| {
            let fits = match node {
                PlanNode::Scan { rel } => *rel < q.relations.len(),
                PlanNode::Probe { preds, .. } | PlanNode::TextJoin { preds, .. } => {
                    within(preds, q.foreign.len())
                }
                PlanNode::RelJoin {
                    preds,
                    foreign_residuals,
                    ..
                } => within(preds, q.rel_joins.len()) && within(foreign_residuals, q.foreign.len()),
            };
            if fits {
                Ok(())
            } else {
                Err(MethodError::NotApplicable(format!(
                    "plan node {id} does not fit the query"
                )))
            }
        })
    }

    /// Executes `plan`, returning the rows and the cost accounting.
    pub fn execute(&self, plan: &PlanNode) -> Result<MultiOutcome, MethodError> {
        self.check(plan)?;
        let estimates = self
            .analyze
            .then(|| crate::optimizer::multi::estimate_nodes(self.input, plan));
        let (server, c_a, c_pair) = (self.ctx.server, self.ctx.c_a, self.input.rel_model.c_pair);
        let before = server.usage();
        let mut tally = Tally {
            actuals: vec![Measure::default(); estimates.as_ref().map_or(0, Vec::len)],
            ..Tally::default()
        };
        let table = plan
            .fold(&mut |node, id, _, inputs| {
                // One snapshot before the node's own work (its inputs have
                // run), one booking after it.
                let start = self
                    .analyze
                    .then(|| (server.usage(), tally.rel_pairs, tally.rtp_comparisons));
                let out = self.eval(node, inputs, &mut tally)?;
                if let Some((u0, pairs0, comps0)) = start {
                    // Backoff seconds fold into the invocation component,
                    // mirroring the planner's `effective_c_i` fold.
                    let d = server.usage().since(&u0);
                    tally.actuals[id] = Measure {
                        rows: out.len() as f64,
                        postings: d.postings_processed as f64,
                        cost: CostVector {
                            invocation: secs((d.ns_invocation + d.ns_backoff) as i64),
                            processing: secs(d.ns_processing as i64),
                            transmission: secs(d.ns_transmission as i64),
                            rtp: secs(rel_ticks(
                                c_a,
                                tally.rtp_comparisons - comps0,
                                c_pair,
                                tally.rel_pairs - pairs0,
                            ) as i64),
                            searches: d.invocations as f64,
                        },
                    };
                }
                Ok::<_, MethodError>(out)
            })?
            .into_owned()
            .into_table();
        let text = server.usage().since(&before);
        let total = text.ticks() + rel_ticks(c_a, tally.rtp_comparisons, c_pair, tally.rel_pairs);
        let (makespan, serial_transport, hedges, cancels, deadline_misses, degradations) =
            match self.ctx.sched {
                Some(s) => (
                    s.makespan(),
                    s.serial_total(),
                    s.hedges(),
                    s.cancels(),
                    s.deadline_misses(),
                    s.degradations(),
                ),
                None => (text.ticks(), text.ticks(), 0, 0, 0, 0),
            };
        let plan_quality = estimates.map(|est| PlanQuality::new(est, &tally.actuals));
        Ok(MultiOutcome {
            table,
            text,
            rel_pairs: tally.rel_pairs,
            rtp_comparisons: tally.rtp_comparisons,
            total_cost: secs(total as i64),
            makespan,
            serial_transport,
            hedges,
            cancels,
            deadline_misses,
            degradations,
            plan_quality,
        })
    }

    /// One node's own work over its inputs' views, left to right.
    fn eval<'s>(
        &'s self,
        node: &PlanNode,
        inputs: Vec<Cow<'s, View<'a>>>,
        tally: &mut Tally,
    ) -> Result<Cow<'s, View<'a>>, MethodError> {
        // `fold` hands over one view per input.
        let mut inputs = inputs.into_iter();
        let out = match (node, inputs.next(), inputs.next()) {
            // Lent, not copied: every operator reads its input by reference.
            (PlanNode::Scan { rel }, ..) => return Ok(Cow::Borrowed(&self.scans[*rel])),
            (PlanNode::Probe { preds, .. }, Some(t), _) => {
                // Graceful degradation: probing only prunes, it never
                // decides membership, so under deadline pressure the
                // probe phase is skipped outright — the downstream text
                // join settles the same multiset.
                if let Some(s) = self.ctx.sched.filter(|s| s.under_pressure()) {
                    s.note_degradation();
                    return Ok(t);
                }
                self.eval_probe(&t, preds)?
            }
            (
                PlanNode::RelJoin {
                    preds,
                    foreign_residuals,
                    ..
                },
                Some(lt),
                Some(rt),
            ) => self.eval_rel_join(&lt, &rt, preds, foreign_residuals, tally)?,
            (
                PlanNode::TextJoin {
                    input: Some(_),
                    preds,
                    method,
                    probe_cols,
                },
                Some(t),
                _,
            ) => self.eval_text_join(&t, preds, *method, probe_cols, tally)?,
            (PlanNode::TextJoin { input: None, .. }, ..) => self.eval_text_scan()?,
            _ => {
                return Err(MethodError::NotApplicable(
                    "plan node is missing an input".into(),
                ))
            }
        };
        Ok(Cow::Owned(out))
    }

    /// Probe node: keep tuples whose probe (selections ∧ instantiated
    /// probe predicates) matches something.
    fn eval_probe(&self, t: &View<'a>, preds: &[usize]) -> Result<View<'a>, MethodError> {
        let fj = self.foreign_join(t, preds)?;
        let all = fj.all_preds();
        let mut keep = vec![false; t.len()];
        for (_, rows) in group_by(t, &fj.join_cols) {
            // NULL/empty keys can never match: no probe is sent.
            let Some(expr) = fj.instantiated_search(rows[0], &all) else {
                continue;
            };
            // Probing prunes; it never decides membership. When the server
            // stays down past the retry budget the outcome is unknown, so
            // the group is kept and the downstream text join settles it.
            match self.ctx.try_probe(&expr) {
                Some(ids) if ids.is_empty() => {}
                _ => {
                    for r in rows {
                        keep[r] = true;
                    }
                }
            }
        }
        let kept = (0..t.len()).filter(|&i| keep[i]);
        Ok(t.select(format!("probe({})", t.name), kept))
    }

    /// Relational join node: a hash join keyed on the first equality among
    /// `preds`, every other predicate and each foreign residual checked on
    /// the pairs the key matches; a nested loop when no predicate is an
    /// equality. Both find the same pairs in the same left-major order.
    fn eval_rel_join(
        &self,
        lt: &View<'a>,
        rt: &View<'a>,
        preds: &[usize],
        residuals: &[usize],
        tally: &mut Tally,
    ) -> Result<View<'a>, MethodError> {
        let q = self.query();
        let off = lt.schema().len();
        let mut key = None;
        let mut conds = Vec::new();
        for &i in preds {
            let p = &q.rel_joins[i];
            // One side lives in the left schema, the other in the right.
            let (lcol, rcol) = if self
                .resolve_col(lt.schema(), p.left_rel, &p.left_col)
                .is_ok()
            {
                (
                    self.resolve_col(lt.schema(), p.left_rel, &p.left_col)?,
                    self.resolve_col(rt.schema(), p.right_rel, &p.right_col)?,
                )
            } else {
                (
                    self.resolve_col(lt.schema(), p.right_rel, &p.right_col)?,
                    self.resolve_col(rt.schema(), p.left_rel, &p.left_col)?,
                )
            };
            if p.op == CmpOp::Eq && key.is_none() {
                key = Some((lcol, rcol));
                continue;
            }
            conds.push(Pred::CmpCols {
                left: lcol,
                op: p.op,
                right: ColId(rcol.0 + off),
            });
        }
        for &i in residuals {
            let fp = &q.foreign[i];
            // Document field column (unqualified name) is on the left side
            // (the text source was joined into the accumulated plan).
            let field_name = &self.text_schema().def(self.input.foreign[i].field).name;
            let hay = lt.schema().column_by_name(field_name).ok_or_else(|| {
                MethodError::NotApplicable(format!(
                    "document field column {field_name:?} missing for residual"
                ))
            })?;
            let needle = self.resolve_col(rt.schema(), fp.rel, &fp.column)?;
            conds.push(Pred::ContainsCol {
                hay_col: hay,
                needle_col: ColId(needle.0 + off),
            });
        }
        let residual = Pred::and(conds);
        // Booked from the cardinalities, as the planner prices them
        // (`RelCostModel::join_matching`), not from what the join's
        // short-circuiting evaluation happens to touch.
        tally.rel_pairs += (lt.len() * rt.len()) as u64;
        if !residuals.is_empty() {
            tally.rtp_comparisons += (lt.len() * rt.len() * residuals.len()) as u64;
        }
        let pairs = match key {
            Some((lcol, rcol)) => hash_join(lt, rt, lcol, rcol, &residual),
            None => nested_loop_join(lt, rt, &residual),
        };
        Ok(View::join(lt, rt, &pairs))
    }

    /// The foreign join of `t` with the text source on the foreign
    /// predicates `preds`, under the query's text selections.
    fn foreign_join<'t>(
        &self,
        t: &'t View<'a>,
        preds: &[usize],
    ) -> Result<ForeignJoin<'t, View<'a>>, MethodError> {
        let q = self.query();
        let join_cols = preds
            .iter()
            .map(|&i| self.resolve_col(t.schema(), q.foreign[i].rel, &q.foreign[i].column))
            .collect::<Result<_, _>>()?;
        Ok(ForeignJoin {
            rel: t,
            join_cols,
            join_fields: preds.iter().map(|&i| self.input.foreign[i].field).collect(),
            selections: self.input.selections.clone(),
            projection: self.input.text_projection(preds.len()),
        })
    }

    fn eval_text_join(
        &self,
        t: &View<'a>,
        preds: &[usize],
        method: MethodKind,
        probe_cols: &[usize],
        tally: &mut Tally,
    ) -> Result<View<'a>, MethodError> {
        let fj = self.foreign_join(t, preds)?;
        let ctx = &self.ctx;
        // Graceful degradation: under deadline pressure the probing
        // methods drop their probe phase and fall back TS-style (the
        // universal method — same multiset, no extra text round-trips
        // spent on pruning that may no longer pay for itself).
        let method = match (method, ctx.sched) {
            (MethodKind::PTs | MethodKind::PRtp, Some(s)) if s.under_pressure() => {
                s.note_degradation();
                MethodKind::Ts
            }
            (m, _) => m,
        };
        let outcome = match method {
            MethodKind::Ts => tuple_substitution(ctx, &fj, true)?,
            MethodKind::Rtp => relational_text_processing(ctx, &fj)?,
            MethodKind::Sj => semi_join(ctx, &fj)?,
            MethodKind::PTs => {
                probe_tuple_substitution(ctx, &fj, probe_cols, ProbeSchedule::ProbeFirst)?
            }
            MethodKind::PRtp => probe_rtp(ctx, &fj, probe_cols)?,
        };
        tally.rtp_comparisons += outcome.report.rtp_comparisons;
        Ok(View::built(outcome.table))
    }

    /// Text-first access: evaluate the selections, retrieve the matching
    /// documents, and materialize them as a relation
    /// `(docid, field_1, …, field_m)`.
    fn eval_text_scan(&self) -> Result<View<'a>, MethodError> {
        let selections = &self.input.selections;
        if selections.is_empty() {
            return Err(MethodError::NotApplicable(
                "text-first scan requires text selections".into(),
            ));
        }
        let expr = SearchExpr::and(
            selections
                .iter()
                .map(|s| SearchExpr::term_in(&s.term, s.field))
                .collect(),
        );
        let result = self.ctx.search(&expr)?;
        let docs = doc_table(&self.ctx, &result.ids(), self.text_schema())?;
        Ok(View::built(docs))
    }
}

/// Materializes documents as a relation `(docid, field…)`, retrieving the
/// long forms (charged, with the context's retry policy).
pub(crate) fn doc_table(
    ctx: &ExecContext<'_>,
    ids: &[DocId],
    text_schema: &TextSchema,
) -> Result<Table, MethodError> {
    let mut schema = RelSchema::new();
    schema.add_column("docid", ValueType::Str);
    for (_, def) in text_schema.iter() {
        schema.add_column(def.name.clone(), ValueType::Str);
    }
    let mut out = Table::new("mercury", schema);
    for &id in ids {
        out.push(Tuple::new(doc_values(id, &ctx.retrieve(id)?, text_schema)));
    }
    Ok(out)
}

/// Convenience: plan and execute a multi-join query end to end.
pub fn plan_and_execute(
    query: &MultiJoinQuery,
    catalog: &Catalog,
    server: &dyn TextService,
    params: crate::cost::params::CostParams,
    space: crate::optimizer::multi::ExecutionSpace,
) -> Result<(crate::optimizer::multi::PlannedQuery, MultiOutcome), MethodError> {
    plan_and_execute_with(query, catalog, server, params, space, None)
}

/// [`plan_and_execute`] with an optional trace-driven calibration. With
/// `Some`, the planner adopts the calibration's fitted constants and
/// *observed* fault model (backoff seconds per invocation as the trace
/// actually paid them) instead of folding the analytic
/// `ledger rate × schedule mean` approximation; with `None` it behaves
/// exactly as before.
pub fn plan_and_execute_with(
    query: &MultiJoinQuery,
    catalog: &Catalog,
    server: &dyn TextService,
    params: crate::cost::params::CostParams,
    space: crate::optimizer::multi::ExecutionSpace,
    calibration: Option<&textjoin_obs::TraceCalibration>,
) -> Result<(crate::optimizer::multi::PlannedQuery, MultiOutcome), MethodError> {
    let (input, planned) = prepare_plan(query, catalog, server, params, space, calibration, None)?;
    let outcome = execute_prepared(&input, &planned, catalog, server, &ExecHooks::default())?;
    Ok((planned, outcome))
}

/// Execution knobs a serving session threads through one query. The
/// default (all `None`/`false`) reproduces [`plan_and_execute`] exactly.
#[derive(Default)]
pub struct ExecHooks<'a> {
    /// Per-tenant adaptive retry budget (breakers, hedge thresholds).
    pub retry_budget: Option<&'a RetryBudget>,
    /// Session-scoped probe cache shared across executions.
    pub probe_cache: Option<&'a std::cell::RefCell<crate::methods::cache::ProbeCache>>,
    /// Mid-flight budget guard: refuse charged operations past the limit.
    pub ceiling: Option<CostCeiling>,
    /// Assert overload pressure so the degradation lattice fires from the
    /// first plan node (cost-only downgrades, never rows).
    pub force_pressure: bool,
    /// EXPLAIN ANALYZE: attribute actual charges back to plan-node ids and
    /// attach a [`PlanQuality`] summary to the outcome (plus one free
    /// `EstimateSample` trace event when a recorder is attached). Pure
    /// observation — results and every `Usage` view are byte-identical
    /// with it on or off.
    pub analyze: bool,
}

/// The planning half of [`plan_and_execute_with`]: folds the observed
/// fault model (or adopts a trace calibration), prices the stats-routed
/// scatter fan-out, gathers statistics, and runs the optimizer. Entirely
/// charge-free — only the execution half touches the metered service.
/// `fold_usage` overrides the ledger the fault model is folded from
/// (serving sessions pass the tenant's own history so one tenant's faults
/// never re-price another tenant's plans); `None` reads the server's
/// aggregate ledger as before.
#[allow(clippy::too_many_arguments)]
pub fn prepare_plan(
    query: &MultiJoinQuery,
    catalog: &Catalog,
    server: &dyn TextService,
    params: crate::cost::params::CostParams,
    space: crate::optimizer::multi::ExecutionSpace,
    calibration: Option<&textjoin_obs::TraceCalibration>,
    fold_usage: Option<&Usage>,
) -> Result<(PlannerInput, crate::optimizer::multi::PlannedQuery), MethodError> {
    let input = prepare_input(query, catalog, server, params, calibration, fold_usage)?;
    let planned = plan_prepared(&input, server, space)?;
    Ok((input, planned))
}

/// The parameter-fold + statistics-gather prefix of [`prepare_plan`]:
/// everything up to (but not including) the optimizer enumeration. A
/// serving session calls this once per query shape and statistics export,
/// restamping the result for each request (see [`fold_params`]), and skips
/// [`plan_prepared`] on a plan-cache hit.
pub fn prepare_input(
    query: &MultiJoinQuery,
    catalog: &Catalog,
    server: &dyn TextService,
    params: crate::cost::params::CostParams,
    calibration: Option<&textjoin_obs::TraceCalibration>,
    fold_usage: Option<&Usage>,
) -> Result<PlannerInput, MethodError> {
    let export = server.export_stats();
    let params = fold_params(query, server, params, calibration, fold_usage);
    let mut input = PlannerInput::gather(query, catalog, &export, server.schema(), params)
        .map_err(|e| MethodError::NotApplicable(e.to_string()))?;
    input.obs = server.recorder();
    Ok(input)
}

/// The params half of [`prepare_input`]: folds the observed fault model
/// (or adopts a calibration) and the scatter fan-out into `params`. An
/// input whose statistics are still current ([`PlannerInput::gathered_from`]
/// the server's export) is brought up to date by stamping it with these
/// ([`PlannerInput::with_params`]) — what a serving session does between a
/// request's admission and its dispatch.
pub(crate) fn fold_params(
    query: &MultiJoinQuery,
    server: &dyn TextService,
    params: crate::cost::params::CostParams,
    calibration: Option<&textjoin_obs::TraceCalibration>,
    fold_usage: Option<&Usage>,
) -> crate::cost::params::CostParams {
    let params = match calibration {
        // A calibration carries its own observed fault model; adopting it
        // replaces the analytic fold below wholesale.
        Some(cal) => params.with_calibration(cal).fitted,
        None => {
            // Fold the session's observed fault rate into the planner's
            // cost model (expected-retry charge per invocation);
            // fault-free sessions fold a rate of zero and plan exactly as
            // before. Replicated services fail over before they retry, so
            // their effective rate is the observed per-server rate to the
            // power of the replica count.
            let replicas = server
                .as_sharded()
                .map(|s| s.replication_factor())
                .unwrap_or(1);
            let observed = fold_usage.copied().unwrap_or_else(|| server.usage());
            params.with_fault_model_replicated(&observed, &RetryPolicy::standard(), replicas)
        }
    };
    // The deadline-aware rank divides parallelizable work by the transport
    // parallelism — the shard count when the service scatters. With
    // stats-aware routing on, the executor's scatter paths skip shards the
    // per-shard vocabularies prove irrelevant to the query's text
    // selections, so the planner prices the *pruned* fan-out instead
    // (parallelism and the effective_c_i fold alike), the fan-out the
    // executor will actually scatter to. The selection-only mask is a superset of any instantiated search's
    // relevance (instantiation only ANDs more terms), so the priced
    // fan-out never undercounts a scatter the executor will perform.
    match server.as_sharded() {
        Some(sh) if sh.stats_routing_enabled() => {
            let schema = server.schema();
            let sel_exprs: Vec<textjoin_text::expr::SearchExpr> = query
                .selections
                .iter()
                .filter_map(|(term, field)| {
                    schema
                        .resolve(field)
                        .map(|f| textjoin_text::expr::SearchExpr::term_in(term, f))
                })
                .collect();
            let fanout = if sel_exprs.is_empty() {
                sh.shard_count()
            } else {
                let masks: Vec<Vec<bool>> =
                    sel_exprs.iter().map(|e| sh.relevant_shards(e)).collect();
                (0..sh.shard_count())
                    .filter(|&i| masks.iter().any(|m| m[i]))
                    .count()
                    .max(1)
            };
            params
                .with_parallelism(fanout as f64)
                .with_scatter_fanout(fanout as f64)
        }
        Some(sh) => params.with_parallelism(sh.shard_count() as f64),
        None => params,
    }
}

/// The optimizer-enumeration suffix of [`prepare_plan`], spanned in the
/// trace as `plan`.
pub fn plan_prepared(
    input: &PlannerInput,
    server: &dyn TextService,
    space: crate::optimizer::multi::ExecutionSpace,
) -> Result<crate::optimizer::multi::PlannedQuery, MethodError> {
    let plan_span = server.recorder().map(|r| r.span("plan"));
    let planned = crate::optimizer::multi::plan_query(input, space)
        .ok_or_else(|| MethodError::NotApplicable("no plan found".into()))?;
    drop(plan_span);
    Ok(planned)
}

/// The execution half of [`plan_and_execute_with`]: builds the seeded
/// virtual-time scheduler from the folded params' deadline, applies any
/// session hooks, and runs the plan. With default hooks this is
/// byte-identical to the tail of the original fused pipeline.
pub fn execute_prepared(
    input: &PlannerInput,
    planned: &crate::optimizer::multi::PlannedQuery,
    catalog: &Catalog,
    server: &dyn TextService,
    hooks: &ExecHooks<'_>,
) -> Result<MultiOutcome, MethodError> {
    // Every execution gets a virtual-time schedule (seeded; deadline from
    // the cost params) so the outcome reports a real makespan next to the
    // total charge. Without a budget no hedging can fire, and without a
    // deadline no degradation can trigger, so charges are exactly as
    // before — the scheduler is then purely observational.
    let sched = Scheduler::new(match input.params.deadline {
        Some(d) => SchedConfig::new(0x7e97).with_deadline(ns(d).max(0) as u64),
        None => SchedConfig::new(0x7e97),
    });
    if hooks.force_pressure {
        sched.force_pressure();
    }
    let ctx = match hooks.retry_budget {
        Some(rb) => ExecContext::with_budget(server, rb),
        None => ExecContext::new(server),
    };
    let ctx = ExecContext {
        probe_cache: hooks.probe_cache,
        ceiling: hooks.ceiling,
        ..ctx.with_transport(&sched)
    };
    let exec = MultiExecutor::new(input, catalog, ctx)?;
    let exec = if hooks.analyze { exec.analyze() } else { exec };
    let outcome = exec.execute(&planned.plan)?;
    if let (Some(pq), Some(rec)) = (&outcome.plan_quality, server.recorder()) {
        // One free sample per analyzed query: the plan-level Q-errors the
        // misestimation detector windows over. `regret_share` is filled by
        // the replay harness (the executor cannot know the counterfactuals).
        rec.emit(textjoin_obs::EventKind::EstimateSample {
            cost_q: pq.cost_q,
            selectivity_q: pq.rows_q,
            constants_q: constants_q(&input.params, &outcome.text),
            regret_share: 0.0,
        });
    }
    Ok(outcome)
}

/// Q-error between what the run actually paid the text system and what
/// its booked *counts* should have cost at the planner's configured
/// constants. Selectivity misestimates cancel out (counts are actuals on
/// both sides), so a drift here isolates the constants: backoff seconds
/// from an unmodelled fault rate, or a server whose real per-unit prices
/// moved away from the configured `CostConstants`.
pub(crate) fn constants_q(params: &crate::cost::params::CostParams, text: &Usage) -> f64 {
    let mut repriced = Usage::default();
    repriced.book(&params.constants.price(Charge {
        invocations: text.invocations as i64,
        postings: text.postings_processed as i64,
        docs_short: text.docs_short as i64,
        docs_long: text.docs_long as i64,
        ..Charge::default()
    }));
    textjoin_obs::q_error(repriced.total_cost(), text.total_cost())
}

/// Comparison helper for result equivalence in tests and benches: rows
/// rendered to strings, sorted.
pub fn row_strings(t: &Table) -> Vec<String> {
    let mut v: Vec<String> = t.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

/// Order-insensitive comparison helper: each row rendered as sorted
/// `column=value` pairs, then the rows sorted. Two plans with different
/// join orders produce permuted column layouts; this normalizes them.
pub fn canonical_rows(t: &Table) -> Vec<String> {
    let mut rows: Vec<String> = t
        .iter()
        .map(|r| {
            let mut cols: Vec<String> = t
                .schema()
                .iter()
                .map(|(c, def)| format!("{}={}", def.name, r.get(c)))
                .collect();
            cols.sort();
            cols.join(", ")
        })
        .collect();
    rows.sort();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::params::CostParams;
    use crate::methods::Projection;
    use crate::optimizer::multi::ExecutionSpace;
    use crate::optimizer::plan::{ForeignSpec, RelJoinPred, RelSpec};
    use crate::optimizer::single::choose_method;
    use crate::query::{prepare, SingleJoinQuery};
    use textjoin_rel::expr::CmpOp;
    use textjoin_rel::tuple;
    use textjoin_text::doc::Document;
    use textjoin_text::index::Collection;
    use textjoin_text::server::TextServer;

    fn fixture() -> (Catalog, TextServer) {
        let mut catalog = Catalog::new();
        let sschema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        let mut student = Table::new("student", sschema.clone());
        student.push(tuple!["Gravano", "CS"]);
        student.push(tuple!["Kao", "EE"]);
        student.push(tuple!["Pham", "CS"]);
        catalog.register(student);
        let mut faculty = Table::new("faculty", sschema);
        faculty.push(tuple!["Garcia", "EE"]);
        faculty.push(tuple!["Dayal", "CS"]);
        catalog.register(faculty);

        let schema = textjoin_text::doc::TextSchema::bibliographic();
        let ti = schema.field_by_name("title").unwrap();
        let au = schema.field_by_name("author").unwrap();
        let yr = schema.field_by_name("year").unwrap();
        let mut coll = Collection::new(schema);
        coll.add_document(
            Document::new()
                .with(ti, "joint work")
                .with(au, "Gravano")
                .with(au, "Garcia")
                .with(yr, "May 1993"),
        );
        coll.add_document(
            Document::new()
                .with(ti, "kao solo")
                .with(au, "Kao")
                .with(yr, "May 1993"),
        );
        coll.add_document(
            Document::new()
                .with(ti, "dayal pham")
                .with(au, "Dayal")
                .with(au, "Pham")
                .with(yr, "May 1990"),
        );
        (catalog, TextServer::new(coll))
    }

    fn q5() -> MultiJoinQuery {
        MultiJoinQuery {
            relations: vec![
                RelSpec {
                    name: "student".into(),
                    local_pred: Pred::True,
                },
                RelSpec {
                    name: "faculty".into(),
                    local_pred: Pred::True,
                },
            ],
            rel_joins: vec![RelJoinPred {
                left_rel: 0,
                left_col: "dept".into(),
                op: CmpOp::Ne,
                right_rel: 1,
                right_col: "dept".into(),
            }],
            selections: vec![("1993".into(), "year".into())],
            foreign: vec![
                ForeignSpec {
                    rel: 0,
                    column: "name".into(),
                    field: "author".into(),
                },
                ForeignSpec {
                    rel: 1,
                    column: "name".into(),
                    field: "author".into(),
                },
            ],
            projection: Projection::Full,
        }
    }

    #[test]
    fn single_join_dispatch_all_methods() {
        let (catalog, server) = fixture();
        let q = SingleJoinQuery {
            relation: "student".into(),
            local_pred: Pred::True,
            selections: vec![("1993".into(), "year".into())],
            join: vec![("name".into(), "author".into())],
            projection: Projection::Full,
        };
        let prepared = prepare(&q, &catalog, server.collection().schema()).unwrap();
        let export = server.export_stats();
        let stats = prepared.statistics_from_export(&export, server.collection().schema());
        let params = CostParams::mercury(server.doc_count() as f64);
        let cands =
            crate::optimizer::single::enumerate_methods(&params, &stats, Projection::Full, false);
        assert!(cands.len() >= 3);
        let mut results = Vec::new();
        for cand in &cands {
            let ctx = ExecContext::new(&server);
            let out = execute_single(&ctx, &prepared, cand, ProbeSchedule::ProbeFirst).unwrap();
            results.push((cand.label.clone(), row_strings(&out.table)));
        }
        // Every method computes the same join.
        for w in results.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{} vs {}", w[0].0, w[1].0);
        }
        // Expected: Gravano ⋈ doc0 and Kao ⋈ doc1 (1993 docs only).
        assert_eq!(results[0].1.len(), 2);
    }

    #[test]
    fn choose_and_execute() {
        let (catalog, server) = fixture();
        let q = SingleJoinQuery {
            relation: "student".into(),
            local_pred: Pred::True,
            selections: vec![],
            join: vec![("name".into(), "author".into())],
            projection: Projection::RelOnly,
        };
        let prepared = prepare(&q, &catalog, server.collection().schema()).unwrap();
        let export = server.export_stats();
        let stats = prepared.statistics_from_export(&export, server.collection().schema());
        let params = CostParams::mercury(server.doc_count() as f64);
        let best = choose_method(&params, &stats, Projection::RelOnly).unwrap();
        let ctx = ExecContext::new(&server);
        let out = execute_single(&ctx, &prepared, &best, ProbeSchedule::ProbeFirst).unwrap();
        assert_eq!(out.table.len(), 3, "all three students authored something");
    }

    #[test]
    fn multi_plan_executes_q5() {
        let (catalog, server) = fixture();
        let params = CostParams::mercury(server.doc_count() as f64);
        let (planned, outcome) = plan_and_execute(
            &q5(),
            &catalog,
            &server,
            params,
            ExecutionSpace::PrlResiduals,
        )
        .unwrap();
        assert!(planned.plan.is_valid_prl());
        // Expected matches in 1993 docs, cross-department co-authorships:
        // doc0: Gravano(CS) × Garcia(EE) qualifies.
        // doc1: Kao has no co-author → no faculty pairing... except the
        // join predicate only requires *some* faculty from another dept
        // with name in authors: doc1 has no faculty author → drops.
        assert_eq!(outcome.table.len(), 1, "{}", outcome.table);
        let row = &outcome.table.rows()[0];
        let name_col = outcome
            .table
            .schema()
            .column_by_name("student.name")
            .unwrap();
        assert_eq!(row.get(name_col).as_str(), Some("Gravano"));
        assert!(outcome.total_cost > 0.0);
    }

    #[test]
    fn multi_prl_and_left_deep_agree_on_rows() {
        let (catalog, server) = fixture();
        let params = CostParams::mercury(server.doc_count() as f64);
        let (_, with_probes) = plan_and_execute(
            &q5(),
            &catalog,
            &server,
            params,
            ExecutionSpace::PrlResiduals,
        )
        .unwrap();
        let server2 = {
            let (_, s) = fixture();
            s
        };
        let (_, without) =
            plan_and_execute(&q5(), &catalog, &server2, params, ExecutionSpace::LeftDeep).unwrap();
        assert_eq!(
            canonical_rows(&with_probes.table),
            canonical_rows(&without.table),
            "probes must not change the answer"
        );
    }

    #[test]
    fn doc_table_materializes_fields() {
        let (_, server) = fixture();
        let ctx = ExecContext::new(&server);
        let t = doc_table(&ctx, &[DocId(0), DocId(2)], server.collection().schema()).unwrap();
        assert_eq!(t.len(), 2);
        let au = t.schema().column_by_name("author").unwrap();
        assert_eq!(t.rows()[0].get(au).as_str(), Some("Gravano; Garcia"));
        assert_eq!(server.usage().docs_long, 2, "long retrieval charged");
    }

    #[test]
    fn restamped_input_is_the_input_prepared_from_nothing() {
        use textjoin_text::rebalance::{MigrationPlan, Move};
        use textjoin_text::shard::ShardedTextServer;
        let (catalog, single) = fixture();
        let mut server = ShardedTextServer::new(single.collection(), 2, 7);
        server.set_stats_routing(true);
        let q = q5();
        let params = CostParams::mercury(server.doc_count() as f64);
        // Everything gathered and the stamp, map order aside.
        let render = |i: &PlannerInput| {
            let base: Vec<_> = i
                .base
                .iter()
                .map(|b| {
                    (
                        b.rows,
                        b.distinct
                            .iter()
                            .collect::<std::collections::BTreeMap<_, _>>(),
                    )
                })
                .collect();
            format!(
                "{:?}",
                (
                    &i.query,
                    &i.params,
                    base,
                    &i.foreign,
                    i.sel_fanout,
                    i.sel_postings,
                    i.sel_terms
                )
            )
        };
        let admitted = prepare_input(&q, &catalog, &server, params, None, None).unwrap();

        // Same export, a ledger that moved: the statistics stay, the
        // stamp is folded anew.
        let history = Usage {
            invocations: 10,
            faults: 4,
            ..Usage::default()
        };
        let fresh = prepare_input(&q, &catalog, &server, params, None, Some(&history)).unwrap();
        assert_ne!(
            fresh.params, admitted.params,
            "fixture: the fold moved the params"
        );
        assert!(admitted.gathered_from(&server.export_stats()));
        let kept = admitted.with_params(fold_params(&q, &server, params, None, Some(&history)));
        assert_eq!(render(&kept), render(&fresh));

        // Staging replaces the export: what was gathered is out of date.
        let src = server.owner_of(DocId(0)).unwrap();
        let mv = Move {
            range: (DocId(0), DocId(3)),
            src,
            dst: 1 - src,
        };
        server.begin_migration(MigrationPlan::new(vec![mv], 1));
        assert!(!kept.gathered_from(&server.export_stats()));
        let fresh = prepare_input(&q, &catalog, &server, params, None, None).unwrap();
        assert!(fresh.gathered_from(&server.export_stats()));
        assert_ne!(
            render(&fresh),
            render(&kept),
            "fixture: the staged copies moved the statistics"
        );
        assert_eq!(server.usage().total_cost(), 0.0, "preparing is free");
    }

    #[test]
    fn text_scan_plan_executes() {
        // A hand-built PrL+residuals plan that accesses the text source
        // first, then joins student relationally via a containment
        // residual — exercising eval_text_scan and residual evaluation.
        let (catalog, server) = fixture();
        let q = q5();
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        let input =
            PlannerInput::gather(&q, &catalog, &export, server.collection().schema(), params)
                .unwrap();
        let exec = MultiExecutor::new(&input, &catalog, ExecContext::new(&server)).unwrap();
        let plan = PlanNode::RelJoin {
            left: Box::new(PlanNode::RelJoin {
                left: Box::new(PlanNode::TextJoin {
                    input: None,
                    preds: vec![],
                    method: MethodKind::Rtp,
                    probe_cols: vec![],
                }),
                right: Box::new(PlanNode::Scan { rel: 0 }),
                preds: vec![],
                foreign_residuals: vec![0], // student.name in author
            }),
            right: Box::new(PlanNode::Scan { rel: 1 }),
            preds: vec![0],             // dept !=
            foreign_residuals: vec![1], // faculty.name in author
        };
        let out = exec.execute(&plan).unwrap();
        // Same answer as the planner-chosen plans: Gravano × Garcia, doc0.
        assert_eq!(out.table.len(), 1);
        assert!(out.text.invocations >= 1, "text scan invoked the server");
        assert!(out.rtp_comparisons > 0, "residuals counted");
    }

    /// Students and advisors joined on department and name equalities, each
    /// name contained in a 1993 document's authors. The advisors repeat keys
    /// (two CS Gravanos), so buckets hold several rows.
    fn advisor_fixture() -> (Catalog, TextServer, MultiJoinQuery) {
        let (mut catalog, server) = fixture();
        let schema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        let mut advisor = Table::new("advisor", schema);
        for (name, dept) in [
            ("Gravano", "CS"),
            ("Garcia", "CS"),
            ("Kao", "EE"),
            ("Pham", "CS"),
            ("Pham", "EE"),
            ("Gravano", "CS"),
        ] {
            advisor.push(tuple![name, dept]);
        }
        catalog.register(advisor);
        let eq = |col: &str| RelJoinPred {
            left_rel: 0,
            left_col: col.into(),
            op: CmpOp::Eq,
            right_rel: 1,
            right_col: col.into(),
        };
        let mut q = q5();
        q.relations[1].name = "advisor".into();
        q.rel_joins = vec![eq("dept"), eq("name")];
        (catalog, server, q)
    }

    #[test]
    fn rel_join_on_an_equality_is_the_nested_loop_row_for_row() {
        let (catalog, server, q) = advisor_fixture();
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        let input =
            PlannerInput::gather(&q, &catalog, &export, server.collection().schema(), params)
                .unwrap();
        let exec = MultiExecutor::new(&input, &catalog, ExecContext::new(&server)).unwrap();
        let col = |t: &Table, name: &str| t.schema().column_by_name(name).unwrap();
        let shifted = |l: &Table, r: &Table, name: &str| ColId(col(r, name).0 + l.schema().len());
        let scan = |rel: usize| exec.scans[rel].clone().into_table();
        let (student, advisor) = (&scan(0), &scan(1));
        // The nested loop's pairs, each as the one row it stands for.
        let rows_of = |l: &Table, r: &Table, pairs: Vec<(usize, usize)>| -> Vec<Tuple> {
            let row = |(i, j): (usize, usize)| {
                Tuple::new([l.rows()[i].values(), r.rows()[j].values()].concat())
            };
            pairs.into_iter().map(row).collect()
        };

        // Documents ⋈ student on a containment residual alone (no
        // equality: the nested loop), then ⋈ advisor keyed on the
        // department equality with the advisor's residual on the pairs.
        let docs_students = PlanNode::RelJoin {
            left: Box::new(PlanNode::TextJoin {
                input: None,
                preds: vec![],
                method: MethodKind::Rtp,
                probe_cols: vec![],
            }),
            right: Box::new(PlanNode::Scan { rel: 0 }),
            preds: vec![],
            foreign_residuals: vec![0],
        };
        let inner = exec.execute(&docs_students).unwrap();
        let plan = PlanNode::RelJoin {
            left: Box::new(docs_students),
            right: Box::new(PlanNode::Scan { rel: 1 }),
            preds: vec![0],
            foreign_residuals: vec![1],
        };
        let out = exec.execute(&plan).unwrap();
        let (l, r) = (&inner.table, advisor);
        let pred = Pred::and(vec![
            Pred::CmpCols {
                left: col(l, "student.dept"),
                op: CmpOp::Eq,
                right: shifted(l, r, "advisor.dept"),
            },
            Pred::ContainsCol {
                hay_col: col(l, "author"),
                needle_col: shifted(l, r, "advisor.name"),
            },
        ]);
        let expected = rows_of(l, r, nested_loop_join(l, r, &pred));
        assert_eq!(out.table.rows(), expected);
        assert_eq!(out.table.len(), 4, "{}", out.table);
        let pairs = (l.len() * r.len()) as u64;
        assert_eq!(out.rel_pairs, inner.rel_pairs + pairs);
        assert_eq!(out.rtp_comparisons, inner.rtp_comparisons + pairs);

        // Two equalities: the first keys the join, the second is checked
        // on the pairs it matches.
        let plan = PlanNode::RelJoin {
            left: Box::new(PlanNode::Scan { rel: 0 }),
            right: Box::new(PlanNode::Scan { rel: 1 }),
            preds: vec![0, 1],
            foreign_residuals: vec![],
        };
        let out = exec.execute(&plan).unwrap();
        let (l, r) = (student, advisor);
        let on = |c: &str| Pred::CmpCols {
            left: col(l, &format!("student.{c}")),
            op: CmpOp::Eq,
            right: shifted(l, r, &format!("advisor.{c}")),
        };
        let pairs = nested_loop_join(l, r, &Pred::and(vec![on("dept"), on("name")]));
        let expected = rows_of(l, r, pairs);
        assert_eq!(out.table.rows(), expected);
        assert_eq!(out.table.len(), 4, "{}", out.table);
        assert_eq!(out.rel_pairs, (l.len() * r.len()) as u64);
        assert_eq!(out.rtp_comparisons, 0);
    }

    #[test]
    fn text_scan_requires_selections() {
        let (catalog, server) = fixture();
        let mut q = q5();
        q.selections.clear();
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        let input =
            PlannerInput::gather(&q, &catalog, &export, server.collection().schema(), params)
                .unwrap();
        let exec = MultiExecutor::new(&input, &catalog, ExecContext::new(&server)).unwrap();
        let plan = PlanNode::TextJoin {
            input: None,
            preds: vec![],
            method: MethodKind::Rtp,
            probe_cols: vec![],
        };
        assert!(matches!(
            exec.execute(&plan),
            Err(MethodError::NotApplicable(_))
        ));
    }

    #[test]
    fn plans_that_do_not_fit_the_query_are_refused_before_any_charge() {
        let (catalog, server) = fixture();
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        let input = PlannerInput::gather(
            &q5(),
            &catalog,
            &export,
            server.collection().schema(),
            params,
        )
        .unwrap();
        let exec = MultiExecutor::new(&input, &catalog, ExecContext::new(&server)).unwrap();
        let scan = |rel| Box::new(PlanNode::Scan { rel });
        let text_join = PlanNode::TextJoin {
            input: Some(scan(0)),
            preds: vec![0],
            method: MethodKind::Ts,
            probe_cols: vec![],
        };
        let malformed = [
            PlanNode::Scan { rel: 5 },
            PlanNode::RelJoin {
                left: scan(0),
                right: scan(1),
                preds: vec![7],
                foreign_residuals: vec![],
            },
            // The residual index is bad; the text join below it would charge.
            PlanNode::RelJoin {
                left: Box::new(text_join),
                right: scan(1),
                preds: vec![0],
                foreign_residuals: vec![4],
            },
        ];
        for plan in &malformed {
            let out = exec.execute(plan);
            assert!(
                matches!(out, Err(MethodError::NotApplicable(_))),
                "{plan:?}: {out:?}"
            );
            assert_eq!(server.usage(), Usage::default(), "{plan:?} charged");
        }
    }

    #[test]
    fn eleven_relations_are_refused_not_aborted() {
        let (catalog, server) = fixture();
        let mut q = q5();
        q.relations = vec![q.relations[0].clone(); 11];
        q.rel_joins.clear();
        q.foreign.truncate(1);
        let params = CostParams::mercury(server.doc_count() as f64);
        let planned = prepare_plan(
            &q,
            &catalog,
            &server,
            params,
            ExecutionSpace::Prl,
            None,
            None,
        );
        assert!(matches!(planned, Err(MethodError::NotApplicable(_))));
    }

    #[test]
    fn a_retry_budget_runs_the_plan_under_its_base_policy() {
        use textjoin_text::faults::{Fault, FaultPlan};
        let (catalog, mut server) = fixture();
        server.set_fault_plan(FaultPlan::scripted(vec![(0, Fault::Unavailable)]));
        let params = CostParams::mercury(server.doc_count() as f64);
        let (input, planned) = prepare_plan(
            &q5(),
            &catalog,
            &server,
            params,
            ExecutionSpace::PrlResiduals,
            None,
            None,
        )
        .unwrap();
        let budget = RetryBudget::new(RetryPolicy::none());
        let hooks = ExecHooks {
            retry_budget: Some(&budget),
            ..ExecHooks::default()
        };
        let _ = execute_prepared(&input, &planned, &catalog, &server, &hooks);
        let u = server.usage();
        assert_eq!(
            (u.faults, u.retries),
            (1, 0),
            "a single-attempt policy never retries"
        );
    }

    #[test]
    fn probe_node_execution_filters() {
        use textjoin_rel::value::Value;
        use textjoin_text::faults::{FaultKinds, FaultPlan};

        let (mut catalog, server) = fixture();
        // A NULL-named student, and a second Gravano sharing a probe key.
        let mut student = catalog.table("student").unwrap().clone();
        student.push(Tuple::new(vec![Value::Null, Value::str("CS")]));
        student.push(tuple!["Gravano", "EE"]);
        catalog.register(student);
        let q = q5();
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        let input =
            PlannerInput::gather(&q, &catalog, &export, server.collection().schema(), params)
                .unwrap();
        let names = |t: &Table| -> Vec<Option<String>> {
            t.iter()
                .map(|r| r.get(ColId(0)).as_str().map(str::to_owned))
                .collect()
        };
        let some = |names: &[&str]| -> Vec<Option<String>> {
            names.iter().map(|&n| Some(n.to_owned())).collect()
        };

        // Probe students on pred 0 with the 1993 selection: Gravano and Kao
        // have 1993 docs; Pham's only doc is 1990.
        let plan = PlanNode::Probe {
            input: Box::new(PlanNode::Scan { rel: 0 }),
            preds: vec![0],
        };
        let exec = MultiExecutor::new(&input, &catalog, ExecContext::new(&server)).unwrap();
        let out = exec.execute(&plan).unwrap();
        assert_eq!(names(&out.table), some(&["Gravano", "Kao", "Gravano"]));
        // One probe per distinct non-NULL key (Gravano, Kao, Pham), none
        // for the NULL-named student.
        assert_eq!(out.text.invocations, 3);

        // Every operation faults past the retry budget: each outcome is
        // unknown and an unknown outcome never prunes, so every non-NULL
        // group is kept. The NULL-named student still cannot match.
        let mut down = TextServer::new(server.collection().clone());
        down.set_fault_plan(FaultPlan::random(77, 1.0, FaultKinds::transient_only(), 0));
        let exec = MultiExecutor::new(&input, &catalog, ExecContext::new(&down)).unwrap();
        let out = exec.execute(&plan).unwrap();
        assert_eq!(
            names(&out.table),
            some(&["Gravano", "Kao", "Pham", "Gravano"])
        );
        assert!(out.text.faults > 0);
    }
}
