//! Relational-side cost and cardinality estimates for multi-join planning.
//!
//! The paper charges text-system operations precisely and treats relational
//! work as comparatively cheap (its single-join formulas omit the relation
//! scan entirely). Multi-join planning, however, needs *relative* relational
//! costs — Example 6.1 turns on the fact that reducing `student` with a
//! probe lowers the cost of `student ⋈ faculty`. We use the classic
//! System-R style distinct-value-based join selectivities; the pairs a
//! join compares are priced at `CostParams::c_pair`.

use textjoin_rel::expr::CmpOp;

/// Selectivity of `a <op> b` between columns with `dl` and `dr` distinct
/// values (System-R conventions).
pub(crate) fn join_selectivity(op: CmpOp, dl: f64, dr: f64) -> f64 {
    let dmax = dl.max(dr).max(1.0);
    match op {
        CmpOp::Eq => 1.0 / dmax,
        CmpOp::Ne => 1.0 - 1.0 / dmax,
        // Range comparisons: the traditional 1/3 default.
        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => 1.0 / 3.0,
    }
}

/// Selectivity of a *containment residual*: a foreign predicate
/// `rel.col in doc.field` evaluated relationally after the text source was
/// joined. Per tuple pair, the probability the document contains the term
/// is `fanout / D`.
pub(crate) fn containment_selectivity(fanout: f64, d: f64) -> f64 {
    if d <= 0.0 {
        0.0
    } else {
        (fanout / d).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_vs_ne() {
        let eq = join_selectivity(CmpOp::Eq, 10.0, 40.0);
        let ne = join_selectivity(CmpOp::Ne, 10.0, 40.0);
        assert!((eq - 0.025).abs() < 1e-12);
        assert!((ne - 0.975).abs() < 1e-12);
        assert!((eq + ne - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_distincts() {
        assert_eq!(join_selectivity(CmpOp::Eq, 0.0, 0.0), 1.0);
        assert_eq!(join_selectivity(CmpOp::Lt, 5.0, 5.0), 1.0 / 3.0);
    }

    #[test]
    fn containment_clamps() {
        assert_eq!(containment_selectivity(5.0, 100.0), 0.05);
        assert_eq!(containment_selectivity(500.0, 100.0), 1.0);
        assert_eq!(containment_selectivity(5.0, 0.0), 0.0);
    }
}
