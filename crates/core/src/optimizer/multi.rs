//! Multi-join enumeration — paper, Section 6.
//!
//! A System-R style dynamic program over subsets of {relations} ∪ {TEXT},
//! extended to the PrL execution space: when a plan for subset `S` is
//! extended with relation `R_i`, the four alternatives of the modified
//! `Enumerate` are considered —
//!
//! (a) `joinPlan(optPlan(S), R_i)`
//! (b) `joinPlan(probe(optPlan(S)), R_i)`
//! (c) `joinPlan(optPlan(S), probe(R_i))`
//! (d) `joinPlan(probe(optPlan(S)), probe(R_i))`
//!
//! — with probe columns chosen by the bounded Section 5 search. Probe nodes
//! are only generated while the text source is not yet joined (they are
//! redundant afterwards). Because a probed plan and an unprobed plan over
//! the same subset are incomparable by cost alone (the probe buys a smaller
//! relation at a price), each subset keeps a small **Pareto set** of
//! (cost, cardinality) candidates rather than a single optimum; this
//! implements the paper's observation that "there will not be a single
//! optimal plan for {R_1, R_2}" while still guaranteeing the final plan is
//! never worse than the best traditional left-deep plan (all left-deep
//! trees remain in the space).

use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::rc::Rc;

use textjoin_obs::{cmp_nan_last, CostVector, EventKind, NodeEstimate, PlannerChoice, Recorder};
use textjoin_rel::catalog::Catalog;
use textjoin_rel::ops::{distinct_count, filter};
use textjoin_text::doc::{FieldId, TextSchema};
use textjoin_text::stats::VocabularyStats;

use crate::cost::formulas::{
    cost_probe_phase, expected_result_fanout, probe_success_probability,
};
use crate::cost::formulas::CostBreakdown;
use crate::cost::params::{CostParams, JoinStatistics, PredStats};
use crate::methods::{Projection, TextSelection};
use crate::optimizer::plan::{MultiJoinQuery, PlanNode};
use crate::optimizer::relcost::{containment_selectivity, join_selectivity, RelCostModel};
use crate::optimizer::single::{enumerate_methods, for_each_subset, MethodCandidate, MethodKind};
use crate::query::QueryError;
use crate::stats::{export_predicate, export_selections};

/// Per-foreign-predicate information gathered before planning.
#[derive(Debug, Clone)]
pub struct ForeignInfo {
    /// Selectivity/fanout/distinct statistics of the predicate.
    pub stats: PredStats,
    /// The resolved text field.
    pub field: FieldId,
    /// Whether the field is available in short-form results.
    pub short_form: bool,
}

/// Per-relation information gathered before planning.
#[derive(Debug, Clone)]
pub struct BaseRelInfo {
    /// Rows after the local predicate.
    pub rows: f64,
    /// Distinct counts of the columns the query references.
    pub distinct: HashMap<String, f64>,
}

/// Everything the planner needs, gathered once: the query's statistics — a
/// function of the query, the catalog and the statistics export alone —
/// stamped with the cost parameters they are priced under.
#[derive(Debug, Clone)]
pub struct PlannerInput {
    /// The query being planned.
    pub query: MultiJoinQuery,
    /// Cost-model parameters: the stamp ([`with_params`](Self::with_params)
    /// replaces it and nothing else).
    pub params: CostParams,
    /// Relational cost constants.
    pub rel_model: RelCostModel,
    /// Per-relation statistics.
    pub base: Vec<BaseRelInfo>,
    /// Per-foreign-predicate statistics.
    pub foreign: Vec<ForeignInfo>,
    /// Joint fanout of the text selections (`D` if none).
    pub sel_fanout: f64,
    /// Summed inverted-list length of the selection terms.
    pub sel_postings: f64,
    /// Number of selection terms.
    pub sel_terms: usize,
    /// The text selections, their fields resolved at gather time.
    pub(crate) selections: Vec<TextSelection>,
    /// Flight recorder for planner decision events, if attached. Emits one
    /// zero-charge [`EventKind::Planner`] event per costed method candidate
    /// at each final-position text-join decision, so a trace shows *why*
    /// the executed method was picked (estimated cost vector, probe-column
    /// set, and the fault-adjusted `effective_c_i` the estimates priced
    /// invocations with).
    pub obs: Option<Rc<Recorder>>,
    /// The export the statistics were read from.
    export: VocabularyStats,
}

impl PlannerInput {
    /// Gathers statistics for `query` from the catalog and the text
    /// server's statistics export, and stamps them with `params`.
    pub fn gather(
        query: &MultiJoinQuery,
        catalog: &Catalog,
        export: &VocabularyStats,
        text_schema: &TextSchema,
        params: CostParams,
    ) -> Result<Self, QueryError> {
        let mut base = Vec::with_capacity(query.relations.len());
        let mut filtered_tables = Vec::with_capacity(query.relations.len());
        for spec in &query.relations {
            let t = catalog
                .table(&spec.name)
                .ok_or_else(|| QueryError::UnknownRelation(spec.name.clone()))?;
            let filtered = filter(t, &spec.local_pred);
            let mut distinct = HashMap::new();
            let mut note_col = |name: &str, table: &textjoin_rel::table::Table| {
                if let Some(c) = table.schema().column_by_name(name) {
                    distinct.insert(name.to_owned(), distinct_count(table, c) as f64);
                }
            };
            for j in &query.rel_joins {
                if query.relations[j.left_rel].name == spec.name {
                    note_col(&j.left_col, &filtered);
                }
                if query.relations[j.right_rel].name == spec.name {
                    note_col(&j.right_col, &filtered);
                }
            }
            for fp in &query.foreign {
                if query.relations[fp.rel].name == spec.name {
                    note_col(&fp.column, &filtered);
                }
            }
            base.push(BaseRelInfo {
                rows: filtered.len() as f64,
                distinct,
            });
            filtered_tables.push(filtered);
        }
        let mut foreign = Vec::with_capacity(query.foreign.len());
        for fp in &query.foreign {
            let table = &filtered_tables[fp.rel];
            let col = table
                .schema()
                .column_by_name(&fp.column)
                .ok_or_else(|| QueryError::UnknownColumn(fp.column.clone()))?;
            let field = text_schema
                .resolve(&fp.field)
                .ok_or_else(|| QueryError::UnknownField(fp.field.clone()))?;
            foreign.push(ForeignInfo {
                stats: export_predicate(export, table, col, field),
                field,
                short_form: text_schema.def(field).in_short_form,
            });
        }
        let selections: Vec<TextSelection> = query
            .selections
            .iter()
            .map(|(term, field)| {
                Ok(TextSelection {
                    term: term.clone(),
                    field: text_schema
                        .resolve(field)
                        .ok_or_else(|| QueryError::UnknownField(field.clone()))?,
                })
            })
            .collect::<Result<_, QueryError>>()?;
        let (sel_fanout, sel_postings, sel_terms) = export_selections(export, &selections);
        Ok(Self {
            query: query.clone(),
            params,
            rel_model: RelCostModel::default(),
            base,
            foreign,
            sel_fanout,
            sel_postings,
            sel_terms,
            selections,
            obs: None,
            export: export.clone(),
        })
    }

    /// Whether `export` is the very export these statistics were gathered
    /// from: if so, gathering again (same query, same catalog) would
    /// recompute what is already here.
    pub(crate) fn gathered_from(&self, export: &VocabularyStats) -> bool {
        self.export.ptr_eq(export)
    }

    /// The same gathered statistics under other cost parameters.
    pub(crate) fn with_params(self, params: CostParams) -> Self {
        Self { params, ..self }
    }

    /// Builds [`JoinStatistics`] for the foreign predicates `preds`
    /// evaluated against an intermediate relation with `rows` tuples.
    ///
    /// The statistics are consumed by the formulas with `self.params` as
    /// environment — including its fault model (`fault_rate`,
    /// `mean_backoff`), which every invocation-count term is multiplied
    /// against via `CostParams::effective_c_i`. Keep that in sync with the
    /// executor: `plan_and_execute` folds the session's observed fault
    /// rate into `params` before gathering, so the planner prices retries
    /// with the same schedule `ExecContext` actually charges. The same
    /// lockstep rule covers the scatter fan-out: when the sharded
    /// service's stats-aware routing is on, `plan_and_execute` folds the
    /// *pruned* fan-out (`CostParams::with_scatter_fanout`, computed from
    /// the same per-shard vocabulary masks the scatter paths consult) so
    /// `effective_c_i` prices exactly the shards a search will invoice.
    fn stats_for(&self, rows: f64, preds: &[usize], projection: Projection) -> JoinStatistics {
        let pred_stats: Vec<PredStats> = preds
            .iter()
            .map(|&i| {
                let mut ps = self.foreign[i].stats;
                // A column cannot have more distinct values than the
                // intermediate has rows.
                ps.distinct = ps.distinct.min(rows.max(1.0));
                ps
            })
            .collect();
        let n_k = pred_stats
            .iter()
            .map(|p| p.distinct)
            .product::<f64>()
            .min(rows);
        JoinStatistics {
            n: rows,
            n_k,
            preds: pred_stats,
            sel_fanout: self.sel_fanout,
            sel_postings: self.sel_postings,
            sel_terms: self.sel_terms,
            needs_long: projection == Projection::Full,
            short_form_sufficient: preds.iter().all(|&i| self.foreign[i].short_form),
        }
    }

    /// The projection a text join evaluating `preds_here` of the foreign
    /// predicates must produce: full documents whenever later relational
    /// residuals will need the document fields. The planner prices it and
    /// the executor runs it.
    pub(crate) fn text_projection(&self, preds_here: usize) -> Projection {
        if preds_here < self.foreign.len() {
            Projection::Full
        } else {
            self.query.projection
        }
    }

    /// The method menu of a text join evaluating `preds` over `in_rows`
    /// input rows, cheapest first, and the join's estimated output rows.
    /// The only place a multi-join runs the single-join enumeration.
    fn text_join_menu(&self, in_rows: f64, preds: &[usize]) -> (Vec<MethodCandidate>, f64) {
        let projection = self.text_projection(preds.len());
        let stats = self.stats_for(in_rows, preds, projection);
        (
            enumerate_methods(&self.params, &stats, projection, false),
            text_join_rows(&self.params, &stats, projection, in_rows),
        )
    }

    /// The estimate of `node`'s own work over inputs of `in_rows` rows
    /// (left to right): one rule per node kind, read by the dynamic
    /// program, EXPLAIN ANALYZE and the method menu alike. A text join is
    /// priced as the menu entry its method and probe columns name.
    fn price(&self, node: &PlanNode, in_rows: &[f64]) -> Priced {
        let (p, c) = (&self.params, &self.params.constants);
        let priced = |rows, cost| Priced::new(p, rows, cost, String::new());
        match node {
            PlanNode::Scan { rel } => priced(self.base[*rel].rows, CostBreakdown::default()),
            PlanNode::Probe { preds, .. } => {
                let stats = self.stats_for(in_rows[0], preds, Projection::RelOnly);
                let local: Vec<usize> = (0..preds.len()).collect();
                priced(
                    in_rows[0] * probe_success_probability(p, &stats, &local),
                    cost_probe_phase(p, &stats, &local),
                )
            }
            PlanNode::RelJoin {
                preds,
                foreign_residuals,
                ..
            } => {
                let (l, r) = (in_rows[0], in_rows[1]);
                let distinct =
                    |rel: usize, col: &str| *self.base[rel].distinct.get(col).unwrap_or(&1.0);
                let sel = preds
                    .iter()
                    .map(|&i| {
                        let j = &self.query.rel_joins[i];
                        let dl = distinct(j.left_rel, &j.left_col);
                        join_selectivity(j.op, dl, distinct(j.right_rel, &j.right_col))
                    })
                    .chain(
                        foreign_residuals
                            .iter()
                            .map(|&i| containment_selectivity(self.foreign[i].stats.fanout, p.d)),
                    )
                    .product::<f64>();
                // Relational matching work lands in the rtp slot, priced
                // exactly as the executor books it: `c_pair`·pairs +
                // `c_a`·residual comparisons.
                let rtp = self
                    .rel_model
                    .join_matching(l, r, foreign_residuals.len(), p.c_a);
                priced(
                    l * r * sel,
                    CostBreakdown {
                        rtp,
                        ..CostBreakdown::default()
                    },
                )
            }
            PlanNode::TextJoin {
                input: Some(_),
                preds,
                method,
                probe_cols,
            } => {
                let (menu, rows) = self.text_join_menu(in_rows[0], preds);
                let named = menu
                    .iter()
                    .position(|m| m.kind == *method && m.probe_cols == *probe_cols)
                    .unwrap_or(0);
                match menu.into_iter().nth(named) {
                    Some(m) => Priced::new(p, rows, m.cost, m.label),
                    None => Priced::new(p, rows, CostBreakdown::default(), "?".to_owned()),
                }
            }
            // The text-first scan: one search for the selections, every
            // match shipped.
            PlanNode::TextJoin { input: None, .. } => {
                let mut transmission = c.c_s * self.sel_fanout;
                if self.query.projection == Projection::Full {
                    transmission += c.c_l * self.sel_fanout;
                }
                let cost = CostBreakdown {
                    invocation: p.effective_c_i(),
                    processing: c.c_p * self.sel_postings,
                    transmission,
                    rtp: 0.0,
                    searches: 1.0,
                };
                Priced {
                    postings: self.sel_postings,
                    ..priced(self.sel_fanout, cost)
                }
            }
        }
    }
}

/// One plan node's own estimate ([`PlannerInput::price`]), its inputs
/// excluded.
struct Priced {
    rows: f64,
    postings: f64,
    cost: CostBreakdown,
    /// For a text join, the label of the menu entry it is priced as.
    method: String,
}

impl Priced {
    fn new(p: &CostParams, rows: f64, cost: CostBreakdown, method: String) -> Self {
        Self {
            rows,
            postings: est_postings(p, cost.processing),
            cost,
            method,
        }
    }
}

/// The execution space the planner searches.
///
/// * `LeftDeep` — the paper's *traditional* space: the text source is
///   treated like a relation, so all foreign predicates (and text
///   selections) are evaluated together, forcing the text join after every
///   relation that carries a foreign predicate. No probe nodes.
/// * `Prl` — the paper's contribution (Section 6): `LeftDeep` plus probe
///   nodes acting as semi-join reducers before the text join.
/// * `PrlResiduals` — an extension beyond the paper: the text source may
///   join at any position, with foreign predicates on later relations
///   evaluated relationally (RTP-style residuals) against the retrieved
///   document fields. Subsumes both other spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionSpace {
    /// Traditional left-deep trees, text joined last.
    LeftDeep,
    /// Left-deep + probe nodes (the paper's PrL trees).
    Prl,
    /// PrL + early text join with relational residuals (extension).
    PrlResiduals,
}

/// A finished plan with its estimates.
#[derive(Debug, Clone)]
pub struct PlannedQuery {
    /// The chosen PrL tree.
    pub plan: PlanNode,
    /// Estimated total cost (simulated seconds).
    pub est_cost: f64,
    /// Estimated output rows.
    pub est_rows: f64,
}

#[derive(Debug, Clone)]
struct Candidate {
    node: PlanNode,
    rows: f64,
    cost: f64,
}

impl Candidate {
    /// `node` over the candidates of its inputs, left to right, at the
    /// node's own [`PlannerInput::price`].
    fn new(input: &PlannerInput, node: PlanNode, inputs: &[&Candidate]) -> Self {
        // On the stack: the dynamic program builds thousands of these.
        let mut in_rows = [0.0; 2];
        for (rows, c) in in_rows.iter_mut().zip(inputs) {
            *rows = c.rows;
        }
        let own = input.price(&node, &in_rows[..inputs.len()]);
        Self::priced(node, inputs, &own)
    }

    /// `node` over `inputs` at its own price `own`: their cost plus its.
    fn priced(node: PlanNode, inputs: &[&Candidate], own: &Priced) -> Self {
        Self {
            cost: inputs.iter().map(|c| c.cost).sum::<f64>() + own.cost.total(),
            rows: own.rows,
            node,
        }
    }
}

/// The most relations [`plan_query`] enumerates: the dynamic program is
/// exponential in the relation count.
const MAX_RELATIONS: usize = 10;

/// Pareto set cap per subset: keeps enumeration polynomial in practice.
const MAX_CANDIDATES: usize = 8;

fn pareto_insert(set: &mut Vec<Candidate>, cand: Candidate) {
    // Dominated by an existing candidate?
    if set
        .iter()
        .any(|c| c.cost <= cand.cost + 1e-12 && c.rows <= cand.rows + 1e-12)
    {
        return;
    }
    // Remove candidates the new one dominates.
    set.retain(|c| !(cand.cost <= c.cost + 1e-12 && cand.rows <= c.rows + 1e-12));
    set.push(cand);
    if set.len() > MAX_CANDIDATES {
        set.sort_by(|a, b| cmp_nan_last(a.cost, b.cost));
        set.truncate(MAX_CANDIDATES);
    }
}

/// Plans `query` over the chosen [`ExecutionSpace`]. `None` when no plan
/// exists, or when the query joins more than ten relations (the
/// enumeration is exponential in their number).
pub fn plan_query(input: &PlannerInput, space: ExecutionSpace) -> Option<PlannedQuery> {
    let enable_probes = space != ExecutionSpace::LeftDeep;
    let n = input.query.relations.len();
    if n > MAX_RELATIONS {
        return None;
    }
    let text_bit: u64 = 1 << n;
    let full: u64 = (1 << (n + 1)) - 1;

    // BTreeMap, not HashMap: subset visit order feeds candidate-vector
    // order (and with a recorder attached, planner event order), so it must
    // not depend on hasher seeding.
    let mut best: BTreeMap<u64, Vec<Candidate>> = BTreeMap::new();

    // Seed: single-relation scans.
    for r in 0..n {
        let scan = Candidate::new(input, PlanNode::Scan { rel: r }, &[]);
        pareto_insert(best.entry(1 << r).or_default(), scan);
    }
    // Seed: text-first scan (needs selections, and residual evaluation of
    // every foreign predicate — only legal in the extended space unless the
    // query has no foreign predicates at all).
    if input.sel_terms > 0
        && (space == ExecutionSpace::PrlResiduals || input.foreign.is_empty())
    {
        let node = PlanNode::TextJoin {
            input: None,
            preds: vec![],
            method: MethodKind::Rtp,
            probe_cols: vec![],
        };
        pareto_insert(
            best.entry(text_bit).or_default(),
            Candidate::new(input, node, &[]),
        );
    }

    // Stage-wise extension.
    for size in 1..=n {
        let subsets: Vec<u64> = best
            .keys()
            .copied()
            .filter(|&s| (s & !text_bit).count_ones() as usize + usize::from(s & text_bit != 0) == size)
            .collect();
        for s in subsets {
            // Extended once, into larger subsets only: taken, not copied.
            let cands = best.remove(&s).unwrap_or_default();
            for cand in cands {
                // Extend with each absent relation.
                for r in 0..n {
                    let bit = 1u64 << r;
                    if s & bit != 0 {
                        continue;
                    }
                    for next in extend_with_relation(input, &cand, s, r, text_bit, enable_probes)
                    {
                        pareto_insert(best.entry(s | bit).or_default(), next);
                    }
                }
                // Extend with the text source. Outside the extended space,
                // the text join must wait until every relation carrying a
                // foreign predicate is present (all text predicates are
                // evaluated together — the paper's traditional semantics).
                if s & text_bit == 0 && s != 0 {
                    let all_foreign_present = (0..input.foreign.len())
                        .all(|i| s & (1 << input.query.foreign[i].rel) != 0);
                    if space == ExecutionSpace::PrlResiduals || all_foreign_present {
                        if let Some(next) = extend_with_text(input, &cand, s) {
                            pareto_insert(best.entry(s | text_bit).or_default(), next);
                        }
                    }
                }
            }
        }
    }

    let finals = best.remove(&full)?;
    let winner = finals
        .into_iter()
        .min_by(|a, b| cmp_nan_last(a.cost, b.cost))?;
    Some(PlannedQuery {
        plan: winner.node,
        est_cost: winner.cost,
        est_rows: winner.rows,
    })
}

/// Estimated postings behind a processing-cost component: the formulas
/// price every processed posting at `c_p`, so the count is recoverable
/// exactly by dividing the constant back out.
fn est_postings(params: &CostParams, processing: f64) -> f64 {
    if params.constants.c_p > 0.0 {
        processing / params.constants.c_p
    } else {
        0.0
    }
}

/// The per-node estimates the dynamic program priced `plan` with, in
/// **pre-order** (parent before children, inputs left to right): the
/// executor books actual charges under the same [`PlanNode::fold`], so
/// index `i` of the returned vector is plan-node id `i` on both sides —
/// the EXPLAIN ANALYZE contract. The per-node costs are *exclusive*
/// (children excluded) and sum to the planner's `est_cost`.
pub fn estimate_nodes(input: &PlannerInput, plan: &PlanNode) -> Vec<NodeEstimate> {
    let q = &input.query;
    let mut out = Vec::new();
    let Ok(_) = plan.fold(&mut |node, id, depth, in_rows: Vec<f64>| {
        let own = input.price(node, &in_rows);
        // Labelled here, where they are read: the dynamic program formats
        // no strings.
        let label = match node {
            PlanNode::Scan { rel } => format!("scan {}", q.relations[*rel].name),
            PlanNode::Probe { preds, .. } => {
                let cols: Vec<String> = preds
                    .iter()
                    .map(|&i| {
                        let fp = &q.foreign[i];
                        format!("{}.{}", q.relations[fp.rel].name, fp.column)
                    })
                    .collect();
                format!("probe {{{}}}", cols.join(","))
            }
            PlanNode::RelJoin {
                preds,
                foreign_residuals,
                ..
            } => {
                format!(
                    "join preds={} residuals={}",
                    preds.len(),
                    foreign_residuals.len()
                )
            }
            PlanNode::TextJoin { input: Some(_), .. } => format!("text-join {}", own.method),
            PlanNode::TextJoin { input: None, .. } => "text-scan".to_owned(),
        };
        out.push(NodeEstimate {
            id,
            depth,
            label,
            rows: own.rows,
            postings: own.postings,
            cost: CostVector {
                invocation: own.cost.invocation,
                processing: own.cost.processing,
                transmission: own.cost.transmission,
                rtp: own.cost.rtp,
            },
        });
        Ok::<_, Infallible>(own.rows)
    });
    out.sort_unstable_by_key(|e| e.id);
    out
}

/// Estimated output rows of a text join. Projections that emit one row
/// per matching document (`Full`, `DocIds`) produce (tuple, doc) pairs —
/// input rows times the expected result fanout. `RelOnly` has semijoin
/// semantics (the methods' `emit` pushes each surviving tuple exactly
/// once), so the estimate is survivors: input rows times the joint probe
/// success probability, the same rule probe nodes price with.
fn text_join_rows(
    params: &CostParams,
    stats: &JoinStatistics,
    projection: Projection,
    in_rows: f64,
) -> f64 {
    match projection {
        Projection::RelOnly => {
            let local: Vec<usize> = (0..stats.k()).collect();
            in_rows * probe_success_probability(params, stats, &local)
        }
        _ => in_rows * expected_result_fanout(params, stats),
    }
}

/// The method menu the planner considered for `plan`'s text join (the
/// first in pre-order that has an input), cheapest first, exactly as the
/// extension step enumerated it. The counterfactual-regret replay executes
/// every entry; the plan's stored method is the one the planner chose.
/// `None` for text-first plans (a text scan has no method alternatives).
pub fn text_join_candidates(input: &PlannerInput, plan: &PlanNode) -> Option<Vec<MethodCandidate>> {
    let mut menu: Option<(usize, Vec<MethodCandidate>)> = None;
    let Ok(_) = plan.fold(&mut |node, id, _, in_rows: Vec<f64>| {
        if let PlanNode::TextJoin {
            input: Some(_),
            preds,
            ..
        } = node
        {
            if menu.as_ref().is_none_or(|(first, _)| id < *first) {
                menu = Some((id, input.text_join_menu(in_rows[0], preds).0));
            }
        }
        Ok::<_, Infallible>(input.price(node, &in_rows).rows)
    });
    menu.map(|(_, m)| m)
}

/// Clones `plan` with its text join's method swapped — the counterfactual
/// replay tool. `None` when the plan has no method-bearing text join.
pub fn with_text_method(plan: &PlanNode, kind: MethodKind, cols: &[usize]) -> Option<PlanNode> {
    let mut out = plan.clone();
    let (method, probe_cols) = text_method_mut(&mut out)?;
    (*method, *probe_cols) = (kind, cols.to_vec());
    Some(out)
}

/// The method and probe columns of the first text join in pre-order that
/// has an input — the one [`text_join_candidates`] reads the menu of.
fn text_method_mut(node: &mut PlanNode) -> Option<(&mut MethodKind, &mut Vec<usize>)> {
    match node {
        PlanNode::TextJoin {
            input: Some(_),
            method,
            probe_cols,
            ..
        } => Some((method, probe_cols)),
        PlanNode::Probe { input, .. } => text_method_mut(input),
        PlanNode::RelJoin { left, right, .. } => {
            text_method_mut(left).or_else(|| text_method_mut(right))
        }
        PlanNode::Scan { .. } | PlanNode::TextJoin { input: None, .. } => None,
    }
}

/// Foreign predicate indices whose relation is inside the mask.
fn preds_in(input: &PlannerInput, mask: u64) -> Vec<usize> {
    (0..input.foreign.len())
        .filter(|&i| mask & (1 << input.query.foreign[i].rel) != 0)
        .collect()
}

/// Probe-set candidates over `avail`, bounded per Theorem 5.3: the subsets
/// of at most `min(k, 2g)` predicates, enumerated directly (`O(k^(2g))`,
/// whatever `k` is). They come in ascending order of the bit mask over
/// `avail`'s positions — a set is ranked by its last member, then the one
/// before — which is the order the candidates have always been offered to
/// the Pareto filter in.
fn probe_subsets(g: usize, avail: &[usize]) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    for_each_subset(avail.len(), g.saturating_mul(2), |cols| {
        out.push(cols.to_vec())
    });
    out.sort_by(|a, b| a.iter().rev().cmp(b.iter().rev()));
    for cols in &mut out {
        for c in cols {
            *c = avail[*c];
        }
    }
    out
}

/// The foreign predicates some probe node of `node` already evaluates.
fn probed(node: &PlanNode) -> Vec<usize> {
    let mut out = Vec::new();
    let Ok(()) = node.fold(&mut |n, _, _, _: Vec<()>| {
        if let PlanNode::Probe { preds, .. } = n {
            out.extend(preds);
        }
        Ok::<_, Infallible>(())
    });
    out
}

/// All candidates for joining relation `r` onto `cand` (alternatives a–d).
fn extend_with_relation(
    input: &PlannerInput,
    cand: &Candidate,
    s: u64,
    r: usize,
    text_bit: u64,
    enable_probes: bool,
) -> Vec<Candidate> {
    let text_joined = s & text_bit != 0;
    let probing = enable_probes && !text_joined;
    // `of` as it is, plus `of` probed on each bounded subset of `avail`.
    let with_probes = |of: &Candidate, avail: &[usize]| {
        let subsets = if probing {
            probe_subsets(input.params.g, avail)
        } else {
            vec![]
        };
        let mut out = vec![of.clone()];
        for preds in subsets {
            let node = PlanNode::Probe {
                input: Box::new(of.node.clone()),
                preds,
            };
            out.push(Candidate::new(input, node, &[of]));
        }
        out
    };

    // Left-side variants: the plan as-is, plus probed versions (b) on the
    // predicates it has not probed yet.
    let done = if probing { probed(&cand.node) } else { vec![] };
    let avail: Vec<usize> = preds_in(input, s)
        .into_iter()
        .filter(|i| !done.contains(i))
        .collect();
    let lefts = with_probes(cand, &avail);
    // Right-side variants: scan, plus probed scans (c).
    let on_r: Vec<usize> = (0..input.foreign.len())
        .filter(|&i| input.query.foreign[i].rel == r)
        .collect();
    let rights = with_probes(
        &Candidate::new(input, PlanNode::Scan { rel: r }, &[]),
        &on_r,
    );

    // Join predicates between S and R.
    let join_preds: Vec<usize> = (0..input.query.rel_joins.len())
        .filter(|&i| {
            let p = &input.query.rel_joins[i];
            let lbit = 1u64 << p.left_rel;
            let rbit = 1u64 << p.right_rel;
            (s & lbit != 0 && p.right_rel == r) || (s & rbit != 0 && p.left_rel == r)
        })
        .collect();
    // Foreign residuals: predicates on R evaluable relationally because the
    // text source is already joined.
    let residuals = if text_joined { on_r } else { vec![] };

    let mut out = Vec::new();
    for l in &lefts {
        for rt in &rights {
            let node = PlanNode::RelJoin {
                left: Box::new(l.node.clone()),
                right: Box::new(rt.node.clone()),
                preds: join_preds.clone(),
                foreign_residuals: residuals.clone(),
            };
            out.push(Candidate::new(input, node, &[l, rt]));
        }
    }
    out
}

/// The candidate for joining the text source onto `cand`: the cheapest
/// entry of the method menu.
fn extend_with_text(input: &PlannerInput, cand: &Candidate, s: u64) -> Option<Candidate> {
    let preds = preds_in(input, s);
    if preds.is_empty() && input.sel_terms == 0 {
        // A text join with neither predicates nor selections is a cross
        // product with the whole collection — never considered.
        return None;
    }
    let (menu, rows) = input.text_join_menu(cand.rows, &preds);
    // Record the method menu for final-position text joins (every relation
    // already in the plan): one event per candidate, cheapest flagged
    // chosen. Earlier-position decisions are skipped to keep traces small.
    let n = input.query.relations.len();
    if let Some(rec) = input.obs.as_ref() {
        if (0..n).all(|r| s & (1 << r) != 0) {
            for (idx, c) in menu.iter().enumerate() {
                rec.emit(EventKind::Planner(PlannerChoice {
                    label: c.label.clone(),
                    chosen: idx == 0,
                    probe_cols: c.probe_cols.clone(),
                    invocation: c.cost.invocation,
                    processing: c.cost.processing,
                    transmission: c.cost.transmission,
                    rtp: c.cost.rtp,
                    searches: c.cost.searches,
                    est_rows: rows,
                    est_postings: est_postings(&input.params, c.cost.processing),
                    effective_c_i: input.params.effective_c_i(),
                }));
            }
        }
    }
    // The node names the cheapest entry, so this is exactly its `price`,
    // without enumerating the menu a second time.
    let best = menu.into_iter().next()?;
    let node = PlanNode::TextJoin {
        input: Some(Box::new(cand.node.clone())),
        preds,
        method: best.kind,
        probe_cols: best.probe_cols,
    };
    let own = Priced::new(&input.params, rows, best.cost, best.label);
    Some(Candidate::priced(node, &[cand], &own))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::plan::{ForeignSpec, RelJoinPred, RelSpec};
    use textjoin_rel::expr::{CmpOp, Pred};
    use textjoin_rel::schema::RelSchema;
    use textjoin_rel::table::Table;
    use textjoin_rel::tuple;
    use textjoin_rel::value::ValueType;
    use textjoin_text::doc::{Document, TextSchema};
    use textjoin_text::index::Collection;
    use textjoin_text::server::TextServer;

    /// Q5 fixture: students and faculty, papers in a given year.
    fn fixture() -> (Catalog, TextServer) {
        let mut catalog = Catalog::new();
        let sschema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("dept", ValueType::Str),
        ]);
        let mut student = Table::new("student", sschema);
        // Many students, few of whom write papers.
        for i in 0..30 {
            student.push(tuple![format!("Student{i}"), "CS"]);
        }
        student.push(tuple!["Gravano", "CS"]);
        student.push(tuple!["Kao", "EE"]);
        catalog.register(student);

        let fschema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("dept", ValueType::Str),
        ]);
        let mut faculty = Table::new("faculty", fschema);
        faculty.push(tuple!["Garcia", "EE"]);
        faculty.push(tuple!["Dayal", "CS"]);
        catalog.register(faculty);

        let schema = TextSchema::bibliographic();
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
                .with(ti, "solo work")
                .with(au, "Kao")
                .with(yr, "May 1993"),
        );
        coll.add_document(
            Document::new()
                .with(ti, "older work")
                .with(au, "Dayal")
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

    fn gather(q: &MultiJoinQuery) -> PlannerInput {
        let (catalog, server) = fixture();
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        PlannerInput::gather(q, &catalog, &export, server.collection().schema(), params)
            .unwrap()
    }

    #[test]
    fn gather_collects_stats() {
        let input = gather(&q5());
        assert_eq!(input.base.len(), 2);
        assert_eq!(input.base[0].rows, 32.0);
        assert_eq!(input.foreign.len(), 2);
        // 2 of 32 student names appear as authors.
        assert!((input.foreign[0].stats.selectivity - 2.0 / 32.0).abs() < 1e-9);
        assert_eq!(input.sel_terms, 1);
        assert_eq!(input.sel_fanout, 2.0); // two 1993 docs
    }

    #[test]
    fn plans_are_valid_prl() {
        let input = gather(&q5());
        let planned = plan_query(&input, ExecutionSpace::Prl).unwrap();
        assert!(planned.plan.is_valid_prl());
        assert!(planned.plan.has_text_join());
        let shown = planned.plan.display(&q5()).to_string();
        assert!(shown.contains("Scan(student)") && shown.contains("Scan(faculty)"));
    }

    #[test]
    fn prl_space_never_worse_than_left_deep() {
        let input = gather(&q5());
        let prl = plan_query(&input, ExecutionSpace::Prl).unwrap();
        let ld = plan_query(&input, ExecutionSpace::LeftDeep).unwrap();
        assert!(
            prl.est_cost <= ld.est_cost + 1e-9,
            "PrL {:.2} must not exceed left-deep {:.2}",
            prl.est_cost,
            ld.est_cost
        );
        assert_eq!(ld.plan.probe_count(), 0, "baseline has no probes");
    }

    #[test]
    fn example_6_1_probe_reduces_student_before_faculty_join() {
        // Example 6.1's setting: large student and faculty relations, a
        // low-selectivity relational predicate (dept !=), and few students
        // who write papers. Without a text selection, the traditional
        // left-deep plan must join student × faculty first (a huge
        // intermediate) and then run the foreign join over it; the PrL
        // plan probes student down to the few publishing students first.
        let (mut catalog, server) = fixture();
        let sschema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("dept", ValueType::Str),
        ]);
        let mut student = Table::new("student", sschema.clone());
        for i in 0..500 {
            student.push(tuple![format!("Student{i}"), format!("D{}", i % 5)]);
        }
        student.push(tuple!["Gravano", "CS"]);
        catalog.register(student);
        let mut faculty = Table::new("faculty", sschema);
        for i in 0..500 {
            faculty.push(tuple![format!("Prof{i}"), format!("D{}", i % 5)]);
        }
        faculty.push(tuple!["Garcia", "EE"]);
        catalog.register(faculty);

        let mut q = q5();
        q.selections.clear(); // no cheap RTP shortcut
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        let mut input = PlannerInput::gather(
            &q,
            &catalog,
            &export,
            server.collection().schema(),
            params,
        )
        .unwrap();
        // A per-pair cost representative of the OpenODB-era nested loop:
        // joining 501 × 501 tuples is NOT free, which is what makes
        // reducing student before the join worthwhile.
        input.rel_model.c_pair = 1e-3;

        let prl = plan_query(&input, ExecutionSpace::Prl).unwrap();
        let ld = plan_query(&input, ExecutionSpace::LeftDeep).unwrap();
        assert!(
            prl.plan.probe_count() >= 1,
            "plan should probe:\n{}",
            prl.plan.display(&input.query)
        );
        assert!(
            prl.est_cost < ld.est_cost,
            "probing must pay off: PrL {:.1} vs LD {:.1}",
            prl.est_cost,
            ld.est_cost
        );
    }

    #[test]
    fn text_first_plan_available_with_selections() {
        // One document matches the selection and both relations are
        // large: scanning the text first and evaluating each foreign
        // predicate as a residual beats any text join over the relations
        // (which would ship long forms for the residual, or search per
        // tuple, or match the whole student × faculty join).
        let (mut catalog, server) = fixture();
        let schema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        for (rel, who) in [("student", "Student"), ("faculty", "Prof")] {
            let mut t = Table::new(rel, schema.clone());
            for i in 0..500 {
                t.push(tuple![format!("{who}{i}"), format!("D{}", i % 5)]);
            }
            catalog.register(t);
        }
        let mut q = q5();
        q.selections = vec![("joint".into(), "title".into())];
        q.projection = Projection::RelOnly;
        let export = server.export_stats();
        let params = CostParams::mercury(server.doc_count() as f64);
        let input =
            PlannerInput::gather(&q, &catalog, &export, server.collection().schema(), params)
                .unwrap();
        assert_eq!(input.sel_fanout, 1.0);
        let planned = plan_query(&input, ExecutionSpace::PrlResiduals).unwrap();
        let mut leftmost = &planned.plan;
        while let Some(first) = leftmost.children().next() {
            leftmost = first;
        }
        assert!(
            matches!(leftmost, PlanNode::TextJoin { input: None, .. }),
            "{}",
            planned.plan.display(&input.query)
        );
    }

    #[test]
    fn text_first_scan_pays_the_effective_invocation_cost() {
        // A flaky link scattered to four shards: every search pays the
        // fault model's expected backoff once per shard it reaches.
        let (catalog, server) = fixture();
        let flaky = textjoin_text::server::Usage {
            invocations: 10,
            faults: 3,
            ..Default::default()
        };
        let params = CostParams::mercury(server.doc_count() as f64)
            .with_scatter_fanout(4.0)
            .with_fault_model_replicated(&flaky, &crate::retry::RetryPolicy::standard(), 1);
        assert!(params.effective_c_i() > 4.0 * params.constants.c_i);
        let export = server.export_stats();
        let input = PlannerInput::gather(
            &q5(),
            &catalog,
            &export,
            server.collection().schema(),
            params,
        )
        .unwrap();
        let scan = PlanNode::TextJoin {
            input: None,
            preds: vec![],
            method: MethodKind::Rtp,
            probe_cols: vec![],
        };
        let est = estimate_nodes(&input, &scan);
        assert_eq!(est[0].cost.invocation, params.effective_c_i());
    }

    #[test]
    fn single_relation_multijoin_reduces_to_single_join() {
        let mut q = q5();
        q.relations.truncate(1);
        q.rel_joins.clear();
        q.foreign.truncate(1);
        let input = gather(&q);
        let planned = plan_query(&input, ExecutionSpace::Prl).unwrap();
        assert!(matches!(planned.plan, PlanNode::TextJoin { .. }));
    }

    #[test]
    fn pareto_insert_dominance() {
        let mk = |cost: f64, rows: f64| Candidate {
            node: PlanNode::Scan { rel: 0 },
            rows,
            cost,
        };
        let mut set = Vec::new();
        pareto_insert(&mut set, mk(10.0, 100.0));
        pareto_insert(&mut set, mk(20.0, 50.0)); // incomparable: kept
        assert_eq!(set.len(), 2);
        pareto_insert(&mut set, mk(15.0, 200.0)); // dominated by first
        assert_eq!(set.len(), 2);
        pareto_insert(&mut set, mk(5.0, 40.0)); // dominates both
        assert_eq!(set.len(), 1);
    }

    /// The loop `probe_subsets` replaced: every mask of `k` bits, ascending,
    /// kept if it has at most `min(k, 2g)` of them set.
    fn mask_loop(g: usize, avail: &[usize]) -> Vec<Vec<usize>> {
        let k = avail.len();
        (1u32..1 << k)
            .filter(|mask| mask.count_ones() as usize <= k.min(2 * g))
            .map(|mask| (0..k).filter(|i| mask & (1 << i) != 0).map(|i| avail[i]).collect())
            .collect()
    }

    #[test]
    fn probe_subsets_are_the_mask_loops_element_for_element() {
        for k in 0..=12 {
            // Predicate indices need not be dense.
            let avail: Vec<usize> = (0..k).map(|i| 3 * i + 1).collect();
            for g in 0..=3 {
                assert_eq!(probe_subsets(g, &avail), mask_loop(g, &avail), "k {k} g {g}");
            }
        }
    }

    /// 31 predicates on the relations in hand used to be a panic, and 20 a
    /// million masks walked to keep 210.
    #[test]
    fn forty_predicates_plan_without_walking_the_masks() {
        let avail: Vec<usize> = (0..40).collect();
        let subsets = probe_subsets(1, &avail);
        assert_eq!(subsets.len(), 40 + 40 * 39 / 2);
        assert_eq!((&subsets[0][..], &subsets[819][..]), (&[0][..], &[38, 39][..]));

        let mut q = q5();
        let on_student = q.foreign[0].clone();
        q.foreign.extend(std::iter::repeat_n(on_student, 39));
        let mut input = gather(&q);
        input.params.g = 1;
        assert!(plan_query(&input, ExecutionSpace::Prl).is_some());
    }

    /// 63 foreign predicates used to abort on the probed-predicate bitmask:
    /// a candidate's probed predicates are now read off its probe nodes.
    #[test]
    fn seventy_predicates_plan_past_the_old_bitmask() {
        let mut q = q5();
        let on_student = q.foreign[0].clone();
        q.foreign.extend(std::iter::repeat_n(on_student, 68));
        let mut input = gather(&q);
        input.params.g = 1;
        assert_eq!(input.foreign.len(), 70);
        let planned = plan_query(&input, ExecutionSpace::Prl).unwrap();
        assert!(planned.plan.is_valid_prl() && planned.est_cost.is_finite());
    }
}
