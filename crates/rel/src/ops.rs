//! Unary relational operators.
//!
//! These are plain functions from [`Table`] to [`Table`] ([`group_by`]
//! reads any [`Rows`]); the federated executor composes them. Everything is
//! set-at-a-time and in-memory, which matches the paper's setting (the
//! relational side is never the bottleneck; its reading cost is the same
//! across all join methods and is omitted from the cost formulas).

use std::collections::{HashMap, HashSet};

use crate::expr::Pred;
use crate::schema::ColId;
use crate::table::{Rows, Table};
use crate::tuple::Tuple;
use crate::value::Value;

/// σ — rows of `t` satisfying `pred`.
pub fn filter(t: &Table, pred: &Pred) -> Table {
    let rows: Vec<Tuple> = t.iter().filter(|r| pred.eval(r)).cloned().collect();
    Table::new(format!("σ({})", t.name()), t.schema().clone()).with_rows(rows)
}

/// Projection with duplicate elimination — the paper's "distinct tuples in
/// the projection of the relational table over the join columns", the
/// quantity `N_J` that tuple substitution and probing are charged for.
pub fn project_distinct(t: &Table, cols: &[ColId]) -> Table {
    let schema = t.schema().project(cols);
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut rows = Vec::new();
    for r in t.iter() {
        let key = r.key(cols);
        if seen.insert(key) {
            rows.push(r.project(cols));
        }
    }
    Table::new(format!("πδ({})", t.name()), schema).with_rows(rows)
}

/// δ — duplicate elimination over whole rows.
pub fn distinct(t: &Table) -> Table {
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    let mut rows = Vec::new();
    for r in t.iter() {
        if seen.insert(r.values().to_vec()) {
            rows.push(r.clone());
        }
    }
    Table::new(format!("δ({})", t.name()), t.schema().clone()).with_rows(rows)
}

/// Sorts rows by `cols` (lexicographically, NULLs first). Stable, so equal
/// keys preserve input order. The P+TS variant for ordered relations
/// (paper, Section 3.3) relies on this grouping.
pub fn sort_by(t: &Table, cols: &[ColId]) -> Table {
    let mut rows = t.rows().to_vec();
    rows.sort_by(|a, b| {
        for &c in cols {
            let o = a.get(c).total_cmp(b.get(c));
            if o != std::cmp::Ordering::Equal {
                return o;
            }
        }
        std::cmp::Ordering::Equal
    });
    Table::new(format!("sort({})", t.name()), t.schema().clone()).with_rows(rows)
}

/// Number of distinct values in column `c` — the paper's `N_i`.
pub fn distinct_count(t: &Table, c: ColId) -> usize {
    let mut seen: HashSet<&Value> = HashSet::new();
    for r in t.iter() {
        seen.insert(r.get(c));
    }
    seen.len()
}

/// Number of distinct keys over a column *set* — the paper's `N_J` for a
/// multi-column probe.
pub fn distinct_count_multi(t: &Table, cols: &[ColId]) -> usize {
    let mut seen: HashSet<Vec<Value>> = HashSet::new();
    for r in t.iter() {
        seen.insert(r.key(cols));
    }
    seen.len()
}

/// Groups row indices by key over `cols`, in first-appearance order.
/// Returns `(key, row indices)` pairs.
pub fn group_by<R: Rows>(t: &R, cols: &[ColId]) -> Vec<(Vec<Value>, Vec<usize>)> {
    let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
    let mut group_of: HashMap<Vec<&Value>, usize> = HashMap::new();
    // Keys are looked up borrowed, through one buffer; a key is copied
    // out of the relation only when it starts a group.
    let mut key = Vec::with_capacity(cols.len());
    for i in 0..t.len() {
        key.clear();
        key.extend(cols.iter().map(|&c| t.value(i, c)));
        match group_of.get(key.as_slice()) {
            Some(&g) => groups[g].1.push(i),
            None => {
                group_of.insert(key.clone(), groups.len());
                groups.push((key.iter().map(|&v| v.clone()).collect(), vec![i]));
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;
    use crate::tuple;
    use crate::value::ValueType;

    fn sample() -> Table {
        let schema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("advisor", ValueType::Str),
            ("year", ValueType::Int),
        ]);
        let mut t = Table::new("student", schema);
        t.push(tuple!["Gravano", "Garcia", 4i64]);
        t.push(tuple!["Kao", "Garcia", 2i64]);
        t.push(tuple!["Pham", "Wiederhold", 4i64]);
        t.push(tuple!["Gravano", "Garcia", 4i64]); // duplicate row
        t
    }

    #[test]
    fn filter_selects() {
        let t = sample();
        let f = filter(&t, &Pred::gt(t.col("year"), 3i64));
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|r| r.get(t.col("year")) == &Value::Int(4)));
    }

    #[test]
    fn project_distinct_drops_duplicates() {
        let t = sample();
        let adv = t.col("advisor");
        let pd = project_distinct(&t, &[adv]);
        assert_eq!(pd.len(), 2);
        assert_eq!(pd.schema().len(), 1);
    }

    #[test]
    fn distinct_whole_rows() {
        let t = sample();
        assert_eq!(distinct(&t).len(), 3);
    }

    #[test]
    fn sort_groups_equal_keys() {
        let t = sample();
        let s = sort_by(&t, &[t.col("advisor")]);
        let advisors: Vec<Option<&str>> = s
            .iter()
            .map(|r| r.get(t.col("advisor")).as_str())
            .collect();
        assert_eq!(
            advisors,
            [Some("Garcia"), Some("Garcia"), Some("Garcia"), Some("Wiederhold")]
        );
    }

    #[test]
    fn distinct_counts() {
        let t = sample();
        assert_eq!(distinct_count(&t, t.col("advisor")), 2);
        assert_eq!(distinct_count(&t, t.col("name")), 3);
        assert_eq!(
            distinct_count_multi(&t, &[t.col("name"), t.col("advisor")]),
            3
        );
    }

    #[test]
    fn group_by_first_appearance_order() {
        let t = sample();
        let groups = group_by(&t, &[t.col("advisor")]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, vec![Value::str("Garcia")]);
        assert_eq!(groups[0].1, vec![0, 1, 3]);
        assert_eq!(groups[1].1, vec![2]);
    }

    #[test]
    fn empty_table_ops() {
        let t = Table::new(
            "empty",
            RelSchema::from_columns(vec![("x", ValueType::Int)]),
        );
        assert!(filter(&t, &Pred::True).is_empty());
        assert!(distinct(&t).is_empty());
        assert_eq!(distinct_count(&t, ColId(0)), 0);
        assert!(group_by(&t, &[ColId(0)]).is_empty());
    }
}
