//! Binary join operators.
//!
//! The relational side offers the traditional methods: nested-loop join
//! with an arbitrary residual predicate, and hash join for equi-joins. A
//! join copies no row: it returns the matching `(left row, right row)`
//! index pairs, in the order of the concatenated rows they stand for.

use std::collections::HashMap;

use crate::expr::Pred;
use crate::schema::ColId;
use crate::table::Rows;
use crate::value::Value;

/// Nested-loop join: every pair of row indices `(i, j)` satisfying `pred`,
/// left-major in the operands' row order. `pred` is expressed over the
/// concatenated schema (right columns numbered from `l.schema().len()`)
/// and bound to the operands once.
pub fn nested_loop_join<L: Rows, R: Rows>(l: &L, r: &R, pred: &Pred) -> Vec<(usize, usize)> {
    let bound = pred.bind(l, r);
    (0..l.len())
        .flat_map(|i| (0..r.len()).map(move |j| (i, j)))
        .filter(|&(i, j)| bound.eval(i, j))
        .collect()
}

/// Hash equi-join on `l.lcol = r.rcol`, with a residual predicate over the
/// concatenated schema. NULL keys never join, and keys of different types
/// never match (SQL semantics, as [`Value::sql_cmp`] has them).
///
/// Builds on `r`, each bucket in `r`'s row order, and probes with `l`'s rows
/// in order, so the pairs are exactly [`nested_loop_join`]'s sequence under
/// `l.lcol = r.rcol ∧ residual`: callers may rely on their order.
pub fn hash_join<L: Rows, R: Rows>(
    l: &L,
    r: &R,
    lcol: ColId,
    rcol: ColId,
    residual: &Pred,
) -> Vec<(usize, usize)> {
    let residual = residual.bind(l, r);
    let mut buckets: HashMap<&Value, Vec<usize>> = HashMap::new();
    for ri in 0..r.len() {
        let k = r.value(ri, rcol);
        if !k.is_null() {
            buckets.entry(k).or_default().push(ri);
        }
    }
    // A NULL probe key finds no bucket: none was built for NULL.
    let bucket = |li| {
        buckets
            .get(l.value(li, lcol))
            .map_or(&[][..], Vec::as_slice)
    };
    (0..l.len())
        .flat_map(|li| bucket(li).iter().map(move |&ri| (li, ri)))
        .filter(|&(li, ri)| residual.eval(li, ri))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::RelSchema;
    use crate::table::Table;
    use crate::tuple;
    use crate::tuple::Tuple;
    use crate::value::ValueType;

    fn student() -> Table {
        let schema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        let mut t = Table::new("student", schema);
        t.push(tuple!["Gravano", "CS"]);
        t.push(tuple!["Kao", "CS"]);
        t.push(tuple!["Pham", "EE"]);
        t
    }

    fn faculty() -> Table {
        let schema =
            RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        let mut t = Table::new("faculty", schema);
        t.push(tuple!["Garcia", "CS"]);
        t.push(tuple!["Dayal", "EE"]);
        t
    }

    #[test]
    fn nested_loop_cross_and_theta() {
        let s = student();
        let f = faculty();
        let cross = nested_loop_join(&s, &f, &Pred::True);
        assert_eq!(cross, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        // theta: different departments (the Q5 predicate)
        let p = Pred::CmpCols {
            left: ColId(1),
            op: CmpOp::Ne,
            right: ColId(3),
        };
        // Gravano-Dayal, Kao-Dayal, Pham-Garcia
        assert_eq!(nested_loop_join(&s, &f, &p), [(0, 1), (1, 1), (2, 0)]);
    }

    #[test]
    fn join_schema_prefixes_clashes() {
        let s = student();
        let f = faculty();
        // The schema a pair's row stands for; predicates are written over it.
        let j = s.schema().concat(f.schema(), f.name());
        assert!(j.column_by_name("faculty.name").is_some());
        assert!(j.column_by_name("name").is_some());
        let same_dept = Pred::CmpCols {
            left: j.column_by_name("dept").unwrap(),
            op: CmpOp::Eq,
            right: j.column_by_name("faculty.dept").unwrap(),
        };
        assert_eq!(
            nested_loop_join(&s, &f, &same_dept),
            [(0, 0), (1, 0), (2, 1)]
        );
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let s = student();
        let f = faculty();
        let eq = Pred::CmpCols {
            left: ColId(1),
            op: CmpOp::Eq,
            right: ColId(3),
        };
        let nl = nested_loop_join(&s, &f, &eq);
        let hj = hash_join(&s, &f, ColId(1), ColId(1), &Pred::True);
        assert_eq!(hj, nl, "same pairs, same order");
        assert_eq!(hj, [(0, 0), (1, 0), (2, 1)]);
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let mut s = student();
        s.push(Tuple::new(vec![Value::str("Ghost"), Value::Null]));
        let mut f = faculty();
        f.push(Tuple::new(vec![Value::str("Phantom"), Value::Null]));
        let hj = hash_join(&s, &f, ColId(1), ColId(1), &Pred::True);
        assert!(hj.iter().all(|&(i, j)| i < 3 && j < 2));
    }

    #[test]
    fn hash_join_residual() {
        let s = student();
        let f = faculty();
        // same dept AND student name != 'Kao'
        let residual = Pred::Cmp {
            col: ColId(0),
            op: CmpOp::Ne,
            rhs: Value::str("Kao"),
        };
        let hj = hash_join(&s, &f, ColId(1), ColId(1), &residual);
        assert_eq!(hj, [(0, 0), (2, 1)]); // Gravano-Garcia, Pham-Dayal
    }

    #[test]
    fn empty_side_joins() {
        let s = student();
        let empty = Table::new("empty", s.schema().clone());
        assert!(nested_loop_join(&empty, &s, &Pred::True).is_empty());
        assert!(hash_join(&s, &empty, ColId(1), ColId(1), &Pred::True).is_empty());
    }
}
