//! PrL trees — the extended execution space (paper, Section 6).
//!
//! A **PrL tree** is a left-deep join tree augmented with *probe nodes*
//! between relational joins (or between a scan and a join). A probe node
//! semi-joins its input with the text source on a chosen subset of the
//! foreign predicates, shrinking the relation before later joins; all probe
//! nodes precede the (single) text-join node, after which probes would be
//! redundant.
//!
//! The multi-join query model lives here too: a set of relations with
//! local predicates, relational join predicates between them, constant
//! text selections, and foreign predicates tying relation columns to text
//! fields.

use std::fmt;

use textjoin_rel::expr::{CmpOp, Pred};

use crate::methods::Projection;
use crate::optimizer::single::MethodKind;

/// One relation in a multi-join query.
#[derive(Debug, Clone, PartialEq)]
pub struct RelSpec {
    /// Catalog name.
    pub name: String,
    /// Local selection applied at scan time.
    pub local_pred: Pred,
}

/// A relational join predicate `left.col <op> right.col` between two
/// relations of the query.
#[derive(Debug, Clone, PartialEq)]
pub struct RelJoinPred {
    /// Index of the left relation in [`MultiJoinQuery::relations`].
    pub left_rel: usize,
    /// Column name in the left relation.
    pub left_col: String,
    /// Comparison operator.
    pub op: CmpOp,
    /// Index of the right relation.
    pub right_rel: usize,
    /// Column name in the right relation.
    pub right_col: String,
}

/// A foreign predicate `rel.col in text.field`.
#[derive(Debug, Clone, PartialEq)]
pub struct ForeignSpec {
    /// Index of the relation in [`MultiJoinQuery::relations`].
    pub rel: usize,
    /// Column name.
    pub column: String,
    /// Text field name or alias.
    pub field: String,
}

/// A conjunctive query over several relations and the text source.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiJoinQuery {
    /// The stored relations.
    pub relations: Vec<RelSpec>,
    /// Join predicates among the relations.
    pub rel_joins: Vec<RelJoinPred>,
    /// Constant text selections `(term, field)`.
    pub selections: Vec<(String, String)>,
    /// Foreign join predicates.
    pub foreign: Vec<ForeignSpec>,
    /// Projection at the text join (multi-join queries that keep document
    /// attributes use `Full`).
    pub projection: Projection,
}

/// A node of a PrL execution tree. Cardinality and cost annotations are
/// estimates; the executor reports actuals.
#[derive(Debug, Clone)]
pub enum PlanNode {
    /// Scan of a base relation (local predicate applied).
    Scan {
        /// Index into [`MultiJoinQuery::relations`].
        rel: usize,
    },
    /// Probe node: semi-join reduction of `input` by the text source on
    /// the foreign predicates `preds` (indices into
    /// [`MultiJoinQuery::foreign`]). Always precedes the text join.
    Probe {
        /// The reduced input.
        input: Box<PlanNode>,
        /// Foreign predicate indices probed on.
        preds: Vec<usize>,
    },
    /// Relational join of the running (left) intermediate with a base-side
    /// (right) node, on `preds` (indices into rel_joins) plus any foreign
    /// predicates that became relational residuals because the text source
    /// was joined earlier (`foreign_residuals`).
    RelJoin {
        /// Left (accumulated) input.
        left: Box<PlanNode>,
        /// Right input (scan or probed scan — left-deep shape).
        right: Box<PlanNode>,
        /// Relational join predicate indices.
        preds: Vec<usize>,
        /// Foreign predicate indices evaluated relationally here.
        foreign_residuals: Vec<usize>,
    },
    /// The foreign join with the text source, evaluating the foreign
    /// predicates `preds` with the chosen method. `input` is `None` when
    /// the text source is accessed first (a pure text-selection scan,
    /// which requires text selections).
    TextJoin {
        /// The relational input, if any.
        input: Option<Box<PlanNode>>,
        /// Foreign predicate indices evaluated here.
        preds: Vec<usize>,
        /// The join method chosen by the single-join optimizer.
        method: MethodKind,
        /// Probe predicate indices (within `preds`) for probing methods.
        probe_cols: Vec<usize>,
    },
}

impl PlanNode {
    /// The node's inputs, left to right.
    pub(crate) fn children(&self) -> impl Iterator<Item = &PlanNode> {
        let (first, second) = match self {
            PlanNode::Scan { .. } => (None, None),
            PlanNode::Probe { input, .. } => (Some(&**input), None),
            PlanNode::RelJoin { left, right, .. } => (Some(&**left), Some(&**right)),
            PlanNode::TextJoin { input, .. } => (input.as_deref(), None),
        };
        first.into_iter().chain(second)
    }

    /// Folds the tree bottom-up: `f` sees each node with its **pre-order**
    /// id (parent before children, inputs left to right), its depth and
    /// its inputs' results, left to right, and runs after all of them.
    /// The first `Err` ends the fold: no later node runs. Every per-node
    /// walk (estimates, execution, the method menu) is this one, so node
    /// `i` is the same node on every side.
    pub(crate) fn fold<T, E>(
        &self,
        f: &mut impl FnMut(&PlanNode, usize, usize, Vec<T>) -> Result<T, E>,
    ) -> Result<T, E> {
        fn go<T, E>(
            node: &PlanNode,
            next_id: &mut usize,
            depth: usize,
            f: &mut impl FnMut(&PlanNode, usize, usize, Vec<T>) -> Result<T, E>,
        ) -> Result<T, E> {
            let id = *next_id;
            *next_id += 1;
            let inputs = node
                .children()
                .map(|c| go(c, next_id, depth + 1, f))
                .collect::<Result<_, _>>()?;
            f(node, id, depth, inputs)
        }
        go(self, &mut 0, 0, f)
    }

    /// Whether the subtree contains the text-join node.
    pub(crate) fn has_text_join(&self) -> bool {
        matches!(self, PlanNode::TextJoin { .. }) || self.children().any(PlanNode::has_text_join)
    }

    /// Number of probe nodes in the subtree.
    pub fn probe_count(&self) -> usize {
        usize::from(matches!(self, PlanNode::Probe { .. }))
            + self.children().map(PlanNode::probe_count).sum::<usize>()
    }

    /// Checks the PrL invariant: probe nodes precede the text join — no
    /// probe node may sit above (consume the output of) the text join.
    pub fn is_valid_prl(&self) -> bool {
        let probe = matches!(self, PlanNode::Probe { .. });
        self.children()
            .all(|c| c.is_valid_prl() && !(probe && c.has_text_join()))
    }

    /// Pretty-prints the plan with the query's names.
    pub fn display<'a>(&'a self, q: &'a MultiJoinQuery) -> DisplayPlan<'a> {
        DisplayPlan { node: self, q }
    }
}

/// [`fmt::Display`] helper for plans.
pub struct DisplayPlan<'a> {
    node: &'a PlanNode,
    q: &'a MultiJoinQuery,
}

impl fmt::Display for DisplayPlan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_node(self.node, self.q, f, 0)
    }
}

fn fmt_node(
    n: &PlanNode,
    q: &MultiJoinQuery,
    f: &mut fmt::Formatter<'_>,
    depth: usize,
) -> fmt::Result {
    let pad = "  ".repeat(depth);
    let column = |i: usize| {
        let fp = &q.foreign[i];
        format!("{}.{}", q.relations[fp.rel].name, fp.column)
    };
    let contained = |i: &usize| format!("{} in {}", column(*i), q.foreign[*i].field);
    match n {
        PlanNode::Scan { rel } => writeln!(f, "{pad}Scan({})", q.relations[*rel].name)?,
        PlanNode::Probe { preds, .. } => {
            let ps: Vec<String> = preds.iter().map(|&i| column(i)).collect();
            writeln!(f, "{pad}Probe[{}]", ps.join(", "))?;
        }
        PlanNode::RelJoin {
            preds,
            foreign_residuals,
            ..
        } => {
            let mut conds: Vec<String> = preds
                .iter()
                .map(|&i| {
                    let p = &q.rel_joins[i];
                    format!(
                        "{}.{} {} {}.{}",
                        q.relations[p.left_rel].name,
                        p.left_col,
                        p.op,
                        q.relations[p.right_rel].name,
                        p.right_col
                    )
                })
                .collect();
            conds.extend(foreign_residuals.iter().map(contained));
            writeln!(f, "{pad}RelJoin[{}]", conds.join(" and "))?;
        }
        PlanNode::TextJoin {
            input,
            preds,
            method,
            probe_cols,
        } => {
            let ps: Vec<String> = preds.iter().map(contained).collect();
            writeln!(
                f,
                "{pad}TextJoin[{}] method={method:?} probe={probe_cols:?}",
                ps.join(" and ")
            )?;
            if input.is_none() {
                writeln!(f, "{pad}  TextScan(selections only)")?;
            }
        }
    }
    n.children().try_for_each(|c| fmt_node(c, q, f, depth + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q5_like() -> MultiJoinQuery {
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

    fn prl_plan() -> PlanNode {
        // Probe student, join faculty, then text join — Example 6.1's shape.
        PlanNode::TextJoin {
            input: Some(Box::new(PlanNode::RelJoin {
                left: Box::new(PlanNode::Probe {
                    input: Box::new(PlanNode::Scan { rel: 0 }),
                    preds: vec![0],
                }),
                right: Box::new(PlanNode::Scan { rel: 1 }),
                preds: vec![0],
                foreign_residuals: vec![],
            })),
            preds: vec![0, 1],
            method: MethodKind::Ts,
            probe_cols: vec![],
        }
    }

    #[test]
    fn flags() {
        let p = prl_plan();
        assert!(p.has_text_join());
        assert_eq!(p.probe_count(), 1);
        assert!(p.is_valid_prl());
    }

    #[test]
    fn fold_numbers_pre_order_and_runs_inputs_first() {
        let mut seen = Vec::new();
        let nodes = prl_plan().fold(&mut |_, id, depth, inputs: Vec<usize>| {
            seen.push((id, depth));
            Ok::<_, ()>(1 + inputs.iter().sum::<usize>())
        });
        assert_eq!(nodes, Ok(5));
        // Inputs run first, left to right; ids are pre-order.
        assert_eq!(seen, [(3, 3), (2, 2), (4, 2), (1, 1), (0, 0)]);
        seen.sort_unstable();
        let depths: Vec<usize> = seen.iter().map(|&(_, d)| d).collect();
        assert_eq!(depths, [0, 1, 2, 3, 2]);

        let mut ran = 0;
        let first_leaf = prl_plan().fold(&mut |_, id, _, _: Vec<()>| {
            ran += 1;
            if id == 3 {
                Err(id)
            } else {
                Ok(())
            }
        });
        assert_eq!(
            (first_leaf, ran),
            (Err(3), 1),
            "no node runs after the first Err"
        );
    }

    #[test]
    fn probe_after_text_join_invalid() {
        let bad = PlanNode::Probe {
            input: Box::new(PlanNode::TextJoin {
                input: Some(Box::new(PlanNode::Scan { rel: 0 })),
                preds: vec![0],
                method: MethodKind::Ts,
                probe_cols: vec![],
            }),
            preds: vec![1],
        };
        assert!(!bad.is_valid_prl());
    }

    #[test]
    fn display_renders_tree() {
        let q = q5_like();
        let s = prl_plan().display(&q).to_string();
        assert!(s.contains("Probe[student.name]"));
        assert!(s.contains("RelJoin[student.dept != faculty.dept]"));
        assert!(s.contains("TextJoin[student.name in author and faculty.name in author]"));
        assert!(s.contains("Scan(faculty)"));
    }

    #[test]
    fn text_scan_display() {
        let q = q5_like();
        let p = PlanNode::TextJoin {
            input: None,
            preds: vec![],
            method: MethodKind::Rtp,
            probe_cols: vec![],
        };
        let s = p.display(&q).to_string();
        assert!(s.contains("TextScan"));
        assert!(p.is_valid_prl());
    }
}
