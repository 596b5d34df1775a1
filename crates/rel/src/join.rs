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
use crate::tuple::Tuple;
use crate::value::Value;

/// Builds the concatenated output schema/table shell for a join of `l`, `r`.
fn join_shell(l: &Table, r: &Table) -> Table {
    let schema = l.schema().concat(r.schema(), r.name());
    Table::new(format!("({} ⋈ {})", l.name(), r.name()), schema)
}

/// Nested-loop join: emits `lrow ++ rrow` for every pair satisfying `pred`,
/// left-major in the operands' row order. `pred` is expressed over the
/// concatenated schema (left columns first, right columns shifted by
/// `l.schema().len()` — see [`Pred::shift`]); it is bound to the operands
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

/// Hash equi-join on `l.lcol = r.rcol`, with an optional residual predicate
/// over the concatenated schema. NULL keys never join (SQL semantics).
pub fn hash_join(l: &Table, r: &Table, lcol: ColId, rcol: ColId, residual: &Pred) -> Table {
    let residual = residual.bind(l, r);
    // Build on the smaller side; probe with the larger.
    let build_left = l.len() <= r.len();
    let (build, probe) = if build_left { (l, r) } else { (r, l) };
    let (bcol, pcol) = if build_left { (lcol, rcol) } else { (rcol, lcol) };

    let mut ht: HashMap<&Value, Vec<usize>> = HashMap::new();
    for (bi, bt) in build.iter().enumerate() {
        let k = bt.get(bcol);
        if !k.is_null() {
            ht.entry(k).or_default().push(bi);
        }
    }
    let mut rows = Vec::new();
    for (pi, pt) in probe.iter().enumerate() {
        let k = pt.get(pcol);
        if k.is_null() {
            continue;
        }
        for &bi in ht.get(k).into_iter().flatten() {
            let (li, ri) = if build_left { (bi, pi) } else { (pi, bi) };
            if residual.eval(li, ri) {
                rows.push(l.rows()[li].concat(&r.rows()[ri]));
            }
        }
    }
    // Hash join may permute output order relative to nested loop; sort by
    // nothing — bag semantics, callers must not rely on order.
    join_shell(l, r).with_rows(rows)
}

/// Semi-join `l ⋉ r` on `l.lcol = r.rcol`: rows of `l` with at least one
/// match in `r`. Keeps `l`'s schema. This is the relational analogue of the
/// reduction the paper's *probe nodes* perform on a relation.
pub fn semi_join(l: &Table, r: &Table, lcol: ColId, rcol: ColId) -> Table {
    let keys: std::collections::HashSet<&Value> = r
        .iter()
        .map(|t| t.get(rcol))
        .filter(|v| !v.is_null())
        .collect();
    let rows: Vec<Tuple> = l
        .iter()
        .filter(|t| keys.contains(t.get(lcol)))
        .cloned()
        .collect();
    Table::new(format!("({} ⋉ {})", l.name(), r.name()), l.schema().clone()).with_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use crate::schema::RelSchema;
    use crate::tuple;
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
        assert_eq!(nl.len(), hj.len());
        let mut nl_rows: Vec<String> = nl.iter().map(|t| t.to_string()).collect();
        let mut hj_rows: Vec<String> = hj.iter().map(|t| t.to_string()).collect();
        nl_rows.sort();
        hj_rows.sort();
        assert_eq!(nl_rows, hj_rows);
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
    fn semi_join_reduces() {
        let s = student();
        let f = faculty();
        let sj = semi_join(&s, &f, s.col("dept"), f.col("dept"));
        assert_eq!(sj.len(), 3, "all students have a same-dept faculty");
        let mut tiny = Table::new(
            "one",
            RelSchema::from_columns(vec![("dept", ValueType::Str)]),
        );
        tiny.push(tuple!["CS"]);
        let sj = semi_join(&s, &tiny, s.col("dept"), ColId(0));
        assert_eq!(sj.len(), 2);
        assert_eq!(sj.schema(), s.schema(), "semi-join keeps left schema");
    }

    #[test]
    fn empty_side_joins() {
        let s = student();
        let empty = Table::new("empty", s.schema().clone());
        assert!(nested_loop_join(&empty, &s, &Pred::True).is_empty());
        assert!(hash_join(&s, &empty, ColId(1), ColId(1), &Pred::True).is_empty());
        assert!(semi_join(&s, &empty, ColId(1), ColId(1)).is_empty());
    }
}
