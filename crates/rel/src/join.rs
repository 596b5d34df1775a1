//! Binary join operators.
//!
//! The relational side offers the traditional methods: nested-loop join
//! with an arbitrary residual predicate, and hash join for equi-joins.
//! Join outputs concatenate the operand schemas; name clashes on the right
//! are prefixed with the right table's name.

use std::collections::HashMap;

use crate::expr::Pred;
use crate::schema::ColId;
use crate::table::Table;
use crate::value::Value;

/// Builds the concatenated output schema/table shell for a join of `l`, `r`.
fn join_shell(l: &Table, r: &Table) -> Table {
    let schema = l.schema().concat(r.schema(), r.name());
    Table::new(format!("({} ⋈ {})", l.name(), r.name()), schema)
}

/// Nested-loop join: emits `lrow ++ rrow` for every pair satisfying `pred`,
/// left-major in the operands' row order. `pred` is expressed over the
/// concatenated schema (left columns first, right columns numbered from
/// `l.schema().len()`); it is bound to the operands
/// once and only the surviving pairs are concatenated.
pub fn nested_loop_join(l: &Table, r: &Table, pred: &Pred) -> Table {
    let bound = pred.bind(l, r);
    let mut rows = Vec::new();
    for (i, lt) in l.iter().enumerate() {
        for (j, rt) in r.iter().enumerate() {
            if bound.eval(i, j) {
                rows.push(lt.concat(rt));
            }
        }
    }
    join_shell(l, r).with_rows(rows)
}

/// Hash equi-join on `l.lcol = r.rcol`, with a residual predicate over the
/// concatenated schema. NULL keys never join, and keys of different types
/// never match (SQL semantics, as [`Value::sql_cmp`] has them).
///
/// Builds on `r`, each bucket in `r`'s row order, and probes with `l`'s rows
/// in order, so the output is exactly [`nested_loop_join`]'s sequence under
/// `l.lcol = r.rcol ∧ residual`: callers may rely on row order.
pub fn hash_join(l: &Table, r: &Table, lcol: ColId, rcol: ColId, residual: &Pred) -> Table {
    let residual = residual.bind(l, r);
    let mut buckets: HashMap<&Value, Vec<usize>> = HashMap::new();
    for (ri, rt) in r.iter().enumerate() {
        let k = rt.get(rcol);
        if !k.is_null() {
            buckets.entry(k).or_default().push(ri);
        }
    }
    let mut rows = Vec::new();
    for (li, lt) in l.iter().enumerate() {
        // A NULL probe key finds no bucket: none was built for NULL.
        for &ri in buckets.get(lt.get(lcol)).into_iter().flatten() {
            if residual.eval(li, ri) {
                rows.push(lt.concat(&r.rows()[ri]));
            }
        }
    }
    join_shell(l, r).with_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::RelSchema;
    use crate::tuple;
    use crate::tuple::Tuple;
    use crate::value::ValueType;

    fn student() -> Table {
        let schema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("dept", ValueType::Str),
        ]);
        let mut t = Table::new("student", schema);
        t.push(tuple!["Gravano", "CS"]);
        t.push(tuple!["Kao", "CS"]);
        t.push(tuple!["Pham", "EE"]);
        t
    }

    fn faculty() -> Table {
        let schema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("dept", ValueType::Str),
        ]);
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
        assert_eq!(cross.len(), 6);
        assert_eq!(cross.schema().len(), 4);
        // theta: different departments (the Q5 predicate)
        let p = Pred::CmpCols {
            left: ColId(1),
            op: CmpOp::Ne,
            right: ColId(3),
        };
        let theta = nested_loop_join(&s, &f, &p);
        assert_eq!(theta.len(), 3); // Gravano-Dayal, Kao-Dayal, Pham-Garcia
    }

    #[test]
    fn join_schema_prefixes_clashes() {
        let s = student();
        let f = faculty();
        let j = nested_loop_join(&s, &f, &Pred::True);
        assert!(j.schema().column_by_name("faculty.name").is_some());
        assert!(j.schema().column_by_name("faculty.dept").is_some());
        assert!(j.schema().column_by_name("name").is_some());
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
        assert_eq!(hj.rows(), nl.rows(), "same rows, same order");
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let mut s = student();
        s.push(Tuple::new(vec![Value::str("Ghost"), Value::Null]));
        let mut f = faculty();
        f.push(Tuple::new(vec![Value::str("Phantom"), Value::Null]));
        let hj = hash_join(&s, &f, ColId(1), ColId(1), &Pred::True);
        assert!(hj.iter().all(|t| !t.get(ColId(1)).is_null()));
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
        assert_eq!(hj.len(), 2); // Gravano-Garcia, Pham-Dayal
    }

    #[test]
    fn empty_side_joins() {
        let s = student();
        let empty = Table::new("empty", s.schema().clone());
        assert!(nested_loop_join(&empty, &s, &Pred::True).is_empty());
        assert!(hash_join(&s, &empty, ColId(1), ColId(1), &Pred::True).is_empty());
    }
}
