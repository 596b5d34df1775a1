//! Row predicates.
//!
//! Predicates are evaluated over a single tuple; join predicates are
//! expressed over the *concatenated* schema of the join's operands. A join
//! does not concatenate a pair to test it: it [binds](Pred::bind) the
//! predicate to its two operands once and evaluates the bound form on
//! pairs of row indices.

use std::fmt;

use crate::schema::ColId;
use crate::strmatch::{contains_term, like, Normalized};
use crate::table::Rows;
use crate::tuple::Tuple;
use crate::value::Value;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    fn eval(self, ord: Option<std::cmp::Ordering>) -> bool {
        use std::cmp::Ordering::*;
        match (self, ord) {
            (_, None) => false, // NULL or type mismatch: predicate is false
            (CmpOp::Eq, Some(Equal)) => true,
            (CmpOp::Ne, Some(o)) => o != Equal,
            (CmpOp::Lt, Some(Less)) => true,
            (CmpOp::Le, Some(Less | Equal)) => true,
            (CmpOp::Gt, Some(Greater)) => true,
            (CmpOp::Ge, Some(Greater | Equal)) => true,
            _ => false,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A Boolean predicate over one tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Always true (the empty conjunction).
    True,
    /// `col <op> literal`.
    Cmp {
        /// Column operand.
        col: ColId,
        /// Operator.
        op: CmpOp,
        /// Literal operand.
        rhs: Value,
    },
    /// `left <op> right` over two columns (join predicates).
    CmpCols {
        /// Left column.
        left: ColId,
        /// Operator.
        op: CmpOp,
        /// Right column.
        right: ColId,
    },
    /// SQL `col LIKE pattern`.
    Like {
        /// Column operand (string).
        col: ColId,
        /// LIKE pattern with `%`/`_`.
        pattern: String,
    },
    /// Term containment: the literal occurs (word-boundary, normalized) in
    /// the column's string — the relational mirror of a text search term.
    ContainsTerm {
        /// Column searched.
        col: ColId,
        /// The term looked for.
        term: String,
    },
    /// Term containment between columns: `needle_col`'s value occurs in
    /// `hay_col`'s string. This is the RTP join predicate
    /// (`student.name in mercury.author` computed relationally).
    ContainsCol {
        /// Column holding the text searched.
        hay_col: ColId,
        /// Column holding the term looked for.
        needle_col: ColId,
    },
    /// Conjunction.
    And(Vec<Pred>),
    /// Disjunction.
    Or(Vec<Pred>),
    /// Negation.
    Not(Box<Pred>),
}

impl Pred {
    /// `col = literal` shorthand.
    pub fn eq(col: ColId, rhs: impl Into<Value>) -> Self {
        Pred::Cmp {
            col,
            op: CmpOp::Eq,
            rhs: rhs.into(),
        }
    }

    /// `col > literal` shorthand.
    pub fn gt(col: ColId, rhs: impl Into<Value>) -> Self {
        Pred::Cmp {
            col,
            op: CmpOp::Gt,
            rhs: rhs.into(),
        }
    }

    /// Conjunction that flattens and drops `True` children.
    pub fn and(children: Vec<Pred>) -> Self {
        let mut flat = Vec::new();
        for c in children {
            match c {
                Pred::True => {}
                Pred::And(cs) => flat.extend(cs),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Pred::True,
            1 => flat.pop().expect("len checked"),
            _ => Pred::And(flat),
        }
    }

    /// Evaluates over `t`.
    pub fn eval(&self, t: &Tuple) -> bool {
        match self {
            Pred::True => true,
            Pred::Cmp { col, op, rhs } => op.eval(t.get(*col).sql_cmp(rhs)),
            Pred::CmpCols { left, op, right } => op.eval(t.get(*left).sql_cmp(t.get(*right))),
            Pred::Like { col, pattern } => t
                .get(*col)
                .as_str()
                .is_some_and(|s| like(s, pattern)),
            Pred::ContainsTerm { col, term } => t
                .get(*col)
                .as_str()
                .is_some_and(|s| contains_term(s, term)),
            Pred::ContainsCol {
                hay_col,
                needle_col,
            } => match (t.get(*hay_col).as_str(), t.get(*needle_col).as_str()) {
                (Some(h), Some(n)) => contains_term(h, n),
                _ => false,
            },
            Pred::And(cs) => cs.iter().all(|c| c.eval(t)),
            Pred::Or(cs) => cs.iter().any(|c| c.eval(t)),
            Pred::Not(c) => !c.eval(t),
        }
    }

    /// Binds this predicate — expressed over the concatenation of `l`'s
    /// and `r`'s schemas — to the two operands: every column reference is
    /// resolved to a side and an index, and every string a containment
    /// test reads is normalized, once per row (`|l| + |r|` normalizations
    /// for a `ContainsCol`, where evaluating [`eval`](Self::eval) on each
    /// concatenated pair does `2·|l|·|r|`).
    pub fn bind<'a, L: Rows, R: Rows>(&'a self, l: &'a L, r: &'a R) -> BoundPred<'a, L, R> {
        let mut bound = BoundPred {
            left: l,
            right: r,
            root: BoundNode::True,
            norm_cols: Vec::new(),
        };
        bound.root = bound.bind_node(self, l.schema().len());
        bound
    }
}

/// A column of a join's concatenated schema, resolved to its operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SideCol {
    right: bool,
    col: ColId,
}

/// One column's strings in normalized form, row-aligned with its side
/// (`None` where the value is not a string).
#[derive(Debug)]
struct NormCol {
    of: SideCol,
    rows: Vec<Option<Normalized>>,
}

/// [`Pred`] with columns resolved to a side and containment operands
/// replaced by indices into [`BoundPred::norm_cols`].
#[derive(Debug)]
enum BoundNode<'a> {
    True,
    Cmp(SideCol, CmpOp, &'a Value),
    CmpCols(SideCol, CmpOp, SideCol),
    Like(SideCol, &'a str),
    ContainsTerm { hay: usize, term: Normalized },
    ContainsCol { hay: usize, needle: usize },
    And(Vec<BoundNode<'a>>),
    Or(Vec<BoundNode<'a>>),
    Not(Box<BoundNode<'a>>),
}

/// A join predicate bound to its two operands by [`Pred::bind`].
/// [`eval`](Self::eval) on rows `(i, j)` equals [`Pred::eval`] on the
/// concatenation of left row `i` and right row `j`, without building it.
#[derive(Debug)]
pub struct BoundPred<'a, L, R> {
    left: &'a L,
    right: &'a R,
    root: BoundNode<'a>,
    norm_cols: Vec<NormCol>,
}

impl<'a, L: Rows, R: Rows> BoundPred<'a, L, R> {
    fn bind_node(&mut self, p: &'a Pred, split: usize) -> BoundNode<'a> {
        let side = |c: &ColId| SideCol {
            right: c.0 >= split,
            col: ColId(c.0.checked_sub(split).unwrap_or(c.0)),
        };
        match p {
            Pred::True => BoundNode::True,
            Pred::Cmp { col, op, rhs } => BoundNode::Cmp(side(col), *op, rhs),
            Pred::CmpCols { left, op, right } => BoundNode::CmpCols(side(left), *op, side(right)),
            Pred::Like { col, pattern } => BoundNode::Like(side(col), pattern),
            Pred::ContainsTerm { col, term } => BoundNode::ContainsTerm {
                hay: self.norm_col(side(col)),
                term: Normalized::new(term),
            },
            Pred::ContainsCol {
                hay_col,
                needle_col,
            } => BoundNode::ContainsCol {
                hay: self.norm_col(side(hay_col)),
                needle: self.norm_col(side(needle_col)),
            },
            Pred::And(cs) => BoundNode::And(cs.iter().map(|c| self.bind_node(c, split)).collect()),
            Pred::Or(cs) => BoundNode::Or(cs.iter().map(|c| self.bind_node(c, split)).collect()),
            Pred::Not(c) => BoundNode::Not(Box::new(self.bind_node(c, split))),
        }
    }

    /// Index of `of`'s normalized column, normalizing it on first use.
    fn norm_col(&mut self, of: SideCol) -> usize {
        if let Some(i) = self.norm_cols.iter().position(|n| n.of == of) {
            return i;
        }
        let side: &dyn Rows = if of.right { self.right } else { self.left };
        let norm = |i| side.value(i, of.col).as_str().map(Normalized::new);
        let rows = (0..side.len()).map(norm).collect();
        self.norm_cols.push(NormCol { of, rows });
        self.norm_cols.len() - 1
    }

    /// Evaluates on the pair (row `li` of the left operand, row `ri` of
    /// the right one).
    ///
    /// # Panics
    /// Panics if a row index, or a column the predicate names, is out of
    /// range.
    pub fn eval(&self, li: usize, ri: usize) -> bool {
        self.eval_node(&self.root, li, ri)
    }

    fn eval_node(&self, node: &BoundNode<'_>, li: usize, ri: usize) -> bool {
        let value = |c: &SideCol| {
            if c.right {
                self.right.value(ri, c.col)
            } else {
                self.left.value(li, c.col)
            }
        };
        let norm = |i: usize| {
            let n = &self.norm_cols[i];
            n.rows[if n.of.right { ri } else { li }].as_ref()
        };
        match node {
            BoundNode::True => true,
            BoundNode::Cmp(col, op, rhs) => op.eval(value(col).sql_cmp(rhs)),
            BoundNode::CmpCols(left, op, right) => op.eval(value(left).sql_cmp(value(right))),
            BoundNode::Like(col, pattern) => value(col).as_str().is_some_and(|s| like(s, pattern)),
            BoundNode::ContainsTerm { hay, term } => norm(*hay).is_some_and(|h| h.contains(term)),
            BoundNode::ContainsCol { hay, needle } => match (norm(*hay), norm(*needle)) {
                (Some(h), Some(n)) => h.contains(n),
                _ => false,
            },
            BoundNode::And(cs) => cs.iter().all(|c| self.eval_node(c, li, ri)),
            BoundNode::Or(cs) => cs.iter().any(|c| self.eval_node(c, li, ri)),
            BoundNode::Not(c) => !self.eval_node(c, li, ri),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    #[test]
    fn cmp_literal() {
        let t = tuple!["AI", 4i64];
        assert!(Pred::eq(ColId(0), "AI").eval(&t));
        assert!(Pred::gt(ColId(1), 3i64).eval(&t));
        assert!(!Pred::gt(ColId(1), 4i64).eval(&t));
    }

    #[test]
    fn null_comparisons_false() {
        let t = Tuple::new(vec![Value::Null]);
        assert!(!Pred::eq(ColId(0), "x").eval(&t));
        assert!(!Pred::Cmp {
            col: ColId(0),
            op: CmpOp::Ne,
            rhs: Value::str("x")
        }
        .eval(&t));
    }

    #[test]
    fn cmp_cols_for_joins() {
        // faculty.dept != student.dept over a concatenated row
        let t = tuple!["CS", "EE"];
        let p = Pred::CmpCols {
            left: ColId(0),
            op: CmpOp::Ne,
            right: ColId(1),
        };
        assert!(p.eval(&t));
        let same = tuple!["CS", "CS"];
        assert!(!p.eval(&same));
    }

    #[test]
    fn contains_variants() {
        let t = tuple!["Update of Belief Networks", "belief"];
        assert!(Pred::ContainsTerm {
            col: ColId(0),
            term: "belief networks".into()
        }
        .eval(&t));
        assert!(Pred::ContainsCol {
            hay_col: ColId(0),
            needle_col: ColId(1)
        }
        .eval(&t));
        assert!(Pred::Like {
            col: ColId(0),
            pattern: "%Belief%".into()
        }
        .eval(&t));
    }

    #[test]
    fn boolean_connectives() {
        let t = tuple![1i64];
        let p = Pred::and(vec![Pred::True, Pred::gt(ColId(0), 0i64)]);
        assert!(p.eval(&t));
        assert!(matches!(p, Pred::Cmp { .. }), "True dropped, And collapsed");
        let q = Pred::Or(vec![Pred::eq(ColId(0), 2i64), Pred::eq(ColId(0), 1i64)]);
        assert!(q.eval(&t));
        assert!(!Pred::Not(Box::new(q)).eval(&t));
    }
}
