//! Property tests: relational-algebra laws of the operators and joins.

use std::cmp::Ordering;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use textjoin_rel::expr::{CmpOp, Pred};
use textjoin_rel::join::{hash_join, nested_loop_join};
use textjoin_rel::ops::{
    distinct, distinct_count_multi, filter, group_by, project_distinct, sort_by,
};
use textjoin_rel::schema::{ColId, RelSchema};
use textjoin_rel::strmatch::{contains_term, like, Normalized};
use textjoin_rel::table::Table;
use textjoin_rel::tuple::Tuple;
use textjoin_rel::value::{Value, ValueType};

const KEYS: &[&str] = &["a", "b", "c", "d"];

fn table(name: &'static str) -> impl Strategy<Value = Table> {
    prop::collection::vec((prop::sample::select(KEYS), 0i64..5), 0..12).prop_map(move |rows| {
        let schema =
            RelSchema::from_columns(vec![("k", ValueType::Str), ("v", ValueType::Int)]);
        let mut t = Table::new(name, schema);
        for (k, v) in rows {
            t.push(Tuple::new(vec![Value::str(k), Value::int(v)]));
        }
        t
    })
}

/// A left row and a right row as the one row a join over their tables
/// stands for.
fn concat(a: &Tuple, b: &Tuple) -> Tuple {
    Tuple::new([a.values(), b.values()].concat())
}

fn row_set(t: &Table) -> Vec<String> {
    let mut v: Vec<String> = t.iter().map(|r| r.to_string()).collect();
    v.sort();
    v
}

/// `contains_term` as it was first written — one `String` per word, then a
/// window compare — kept as the reference for the normalized form.
fn reference_contains_term(haystack: &str, needle: &str) -> bool {
    fn words(s: &str) -> Vec<String> {
        let mut out = Vec::new();
        let mut cur = String::new();
        for c in s.chars() {
            if c.is_alphanumeric() {
                cur.extend(c.to_lowercase());
            } else if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }
    let (hay, ned) = (words(haystack), words(needle));
    !ned.is_empty() && hay.windows(ned.len()).any(|w| w == ned.as_slice())
}

/// Letters in both cases, digits, punctuation, and three awkward folds:
/// 'İ' lowercases to two chars (the second not alphanumeric), 'ß' is
/// lowercase with a two-char uppercase, 'ǅ' is titlecase.
const PIECES: &[&str] = &[
    "a", "B", "ab", "Ab", "bA", "7", "42", "İ", "ß", "ǅ", "é", " ", " ", ", ", "-", "; ", ".",
];

/// The same letters cut into words at one place or another: a needle that
/// fails does so only because its word boundary sits elsewhere ("ab a"
/// against "a ba").
fn recut() -> impl Strategy<Value = (String, String)> {
    ("[a-b]{2,6}", 1usize..6, 1usize..6).prop_map(|(letters, hay_cut, needle_cut)| {
        let cut = |at: usize| {
            let (head, tail) = letters.split_at(at.min(letters.len()));
            format!("{head} {tail}")
        };
        (cut(hay_cut), cut(needle_cut))
    })
}

fn text(max_pieces: usize) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(PIECES), 0..max_pieces)
        .prop_map(|pieces| pieces.concat())
}

/// Join operands: a string and an integer column each, NULLs in both, the
/// strings few and nested so containment between columns hits one way and
/// not the other.
fn operand(name: &'static str) -> impl Strategy<Value = Table> {
    const NAMES: &[&str] = &["a", "b", "a b", "B; a", "c a-b", "ab", "İ ß", ""];
    let cell = (prop::sample::select(NAMES), 0i64..3, 0usize..4);
    prop::collection::vec(cell, 0..6).prop_map(move |rows| {
        let schema = RelSchema::from_columns(vec![("s", ValueType::Str), ("n", ValueType::Int)]);
        let mut t = Table::new(name, schema);
        for (s, n, nulls) in rows {
            let s = if nulls == 1 {
                Value::Null
            } else {
                Value::str(s)
            };
            let n = if nulls == 2 {
                Value::Null
            } else {
                Value::int(n)
            };
            t.push(Tuple::new(vec![s, n]));
        }
        t
    })
}

/// Predicates over the four columns of `operand ++ operand`. Operands of
/// either side and either type land on both ends of every leaf, so
/// type-mismatched and NULL comparisons are generated too.
fn join_pred() -> impl Strategy<Value = Pred> {
    const OPS: &[CmpOp] = &[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    let col = || (0usize..4).prop_map(ColId);
    let leaf = prop_oneof![
        (col(), prop::sample::select(OPS), col()).prop_map(|(left, op, right)| Pred::CmpCols {
            left,
            op,
            right
        }),
        (col(), col()).prop_map(|(hay_col, needle_col)| Pred::ContainsCol {
            hay_col,
            needle_col
        }),
        (col(), text(3)).prop_map(|(col, term)| Pred::ContainsTerm { col, term }),
        (col(), prop::sample::select(OPS), 0i64..3).prop_map(|(col, op, rhs)| Pred::Cmp {
            col,
            op,
            rhs: Value::int(rhs)
        }),
        (col(), prop::sample::select(&["%a%", "_", "%"][..])).prop_map(|(col, pattern)| {
            Pred::Like {
                col,
                pattern: pattern.into(),
            }
        }),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Pred::And),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Pred::Or),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

proptest! {
    /// The normalized form answers containment exactly as the reference
    /// does, and always finds a run of the haystack's own words.
    #[test]
    fn normalized_contains_agrees_with_reference(
        mixed in (text(10), text(4)),
        recut in recut(),
        from in 0usize..4,
    ) {
        for (hay, needle) in [mixed, recut] {
            let h = Normalized::new(&hay);
            let expected = reference_contains_term(&hay, &needle);
            prop_assert_eq!(h.contains(&Normalized::new(&needle)), expected, "{:?} in {:?}", needle, hay);
            prop_assert_eq!(contains_term(&hay, &needle), expected);
            let words: Vec<&str> =
                hay.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()).collect();
            let run = &words[from.min(words.len())..(from + 2).min(words.len())];
            if !run.is_empty() {
                prop_assert!(h.contains(&Normalized::new(&run.join(" ~ "))), "{:?} in {:?}", run, hay);
            }
        }
    }

}

proptest! {
    // Predicate shape × operand columns × row contents is a large space for
    // the default 64 cases: a `ContainsCol` over two string columns whose
    // values contain each other one way only comes up about once in 50.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A bound predicate on a pair of row indices is the predicate on the
    /// concatenated row; the joins built on it emit exactly the pairs whose
    /// concatenation satisfies it, the nested loop in left-major order.
    #[test]
    fn bound_pair_evaluation_is_concat_evaluation(l in operand("l"), r in operand("r"), p in join_pred()) {
        let bound = p.bind(&l, &r);
        let mut expected = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                let row = concat(a, b);
                prop_assert_eq!(bound.eval(i, j), p.eval(&row), "pair ({}, {}) of {:?}", i, j, p);
                if p.eval(&row) {
                    expected.push((i, j));
                }
            }
        }
        prop_assert_eq!(nested_loop_join(&l, &r, &p), expected);

        // Hash join on the integer columns with `p` as the residual: the
        // nested loop's rows, in its order.
        let keyed = Pred::and(vec![
            Pred::CmpCols { left: ColId(1), op: CmpOp::Eq, right: ColId(3) },
            p.clone(),
        ]);
        let hj = hash_join(&l, &r, ColId(1), ColId(1), &p);
        prop_assert_eq!(hj, nested_loop_join(&l, &r, &keyed));
    }
}

/// `Value` as it was while it owned its string — same variants in the same
/// order, same derives. The shared-string `Value` must be
/// indistinguishable from it to every hash table, sort and printed table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OwnedValue {
    Null,
    Int(i64),
    Text(String),
}

impl OwnedValue {
    fn of(v: &Value) -> Self {
        match v {
            Value::Null => OwnedValue::Null,
            Value::Int(i) => OwnedValue::Int(*i),
            Value::Str(s) => OwnedValue::Text(s.to_string()),
        }
    }

    fn sql_cmp(&self, other: &Self) -> Option<Ordering> {
        match (self, other) {
            (OwnedValue::Int(a), OwnedValue::Int(b)) => Some(a.cmp(b)),
            (OwnedValue::Text(a), OwnedValue::Text(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    fn total_cmp(&self, other: &Self) -> Ordering {
        let rank = |v: &Self| match v {
            OwnedValue::Null => 0,
            OwnedValue::Int(_) => 1,
            OwnedValue::Text(_) => 2,
        };
        self.sql_cmp(other).unwrap_or_else(|| rank(self).cmp(&rank(other)))
    }

    fn display(&self) -> String {
        match self {
            OwnedValue::Null => "NULL".into(),
            OwnedValue::Int(i) => i.to_string(),
            OwnedValue::Text(s) => format!("'{s}'"),
        }
    }
}

fn std_hash(v: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Two columns that take NULLs, integers and strings alike — a few of
/// each, some one a prefix of another, some multi-byte, `"1"` beside `1`.
fn mixed_table(name: &'static str) -> impl Strategy<Value = Table> {
    const STRS: &[&str] = &["", "a", "ab", "b", "B", "1", "é", "ß", "a b; c"];
    let cell = || {
        (0usize..STRS.len() + 4).prop_map(|i| match i {
            0 => Value::Null,
            1..=3 => Value::int(i as i64 - 2),
            i => Value::str(STRS[i - 4]),
        })
    };
    prop::collection::vec((cell(), cell()), 0..10).prop_map(move |rows| {
        let schema = RelSchema::from_columns(vec![("x", ValueType::Str), ("y", ValueType::Str)]);
        // `with_rows`: a checked `push` would refuse the integers.
        Table::new(name, schema)
            .with_rows(rows.into_iter().map(|(x, y)| Tuple::new(vec![x, y])).collect())
    })
}

proptest! {
    /// Cell by cell: equality, both orderings, the printed form and the
    /// std hash are what the owning representation gave.
    #[test]
    fn shared_string_value_is_the_owned_value(t in mixed_table("t")) {
        let cells: Vec<&Value> = t.iter().flat_map(|r| r.values()).collect();
        for a in &cells {
            let oa = OwnedValue::of(a);
            prop_assert_eq!(a.to_string(), oa.display());
            prop_assert_eq!(std_hash(*a), std_hash(&oa), "hash of {}", a);
            for b in &cells {
                let ob = OwnedValue::of(b);
                prop_assert_eq!(a == b, oa == ob, "{} == {}", a, b);
                prop_assert_eq!(a.sql_cmp(b), oa.sql_cmp(&ob), "{} sql_cmp {}", a, b);
                prop_assert_eq!(a.total_cmp(b), oa.total_cmp(&ob), "{} total_cmp {}", a, b);
            }
        }
    }

    /// The operators that hash rows — grouping, distinct projection, the
    /// hash join — against a model keyed by owned strings.
    #[test]
    fn hashing_operators_agree_with_an_owned_key_model(l in mixed_table("l"), r in mixed_table("r")) {
        let key = |row: &Tuple, cols: &[ColId]| -> Vec<OwnedValue> {
            cols.iter().map(|&c| OwnedValue::of(row.get(c))).collect()
        };
        for cols in [&[ColId(0)][..], &[ColId(1), ColId(0)], &[]] {
            // First-appearance order, by linear search: no hashing in the model.
            let mut model: Vec<(Vec<OwnedValue>, Vec<usize>)> = Vec::new();
            for (i, row) in l.iter().enumerate() {
                let k = key(row, cols);
                match model.iter_mut().find(|(have, _)| *have == k) {
                    Some((_, rows)) => rows.push(i),
                    None => model.push((k, vec![i])),
                }
            }
            let groups = group_by(&l, cols);
            let got: Vec<(Vec<OwnedValue>, Vec<usize>)> = groups
                .iter()
                .map(|(k, rows)| (k.iter().map(OwnedValue::of).collect(), rows.clone()))
                .collect();
            prop_assert_eq!(&got, &model, "group_by over {:?}", cols);
            let firsts: Vec<Vec<OwnedValue>> = model.into_iter().map(|(k, _)| k).collect();
            let all: Vec<ColId> = (0..cols.len()).map(ColId).collect();
            let projected: Vec<Vec<OwnedValue>> =
                project_distinct(&l, cols).iter().map(|row| key(row, &all)).collect();
            prop_assert_eq!(projected, firsts, "project_distinct over {:?}", cols);
        }

        // Left-major, as the nested loop would emit them.
        let mut pairs = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                let (ka, kb) = (OwnedValue::of(a.get(ColId(0))), OwnedValue::of(b.get(ColId(1))));
                if ka != OwnedValue::Null && ka == kb {
                    pairs.push((i, j));
                }
            }
        }
        prop_assert_eq!(hash_join(&l, &r, ColId(0), ColId(1), &Pred::True), pairs);
    }
}

proptest! {
    // Keys drawn from a handful of NULLs, integers and strings ("1" beside
    // 1), so duplicates, NULLs on either side and type-mismatched keys all
    // come up in most cases; the residual is any generated join predicate.
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Hash join is the nested loop under `key ∧ residual`, as a sequence:
    /// the same pairs in the same left-major order.
    #[test]
    fn hash_join_is_the_nested_loop_sequence(
        l in mixed_table("l"),
        r in mixed_table("r"),
        cols in (0usize..2, 0usize..2),
        residual in join_pred(),
    ) {
        let (lcol, rcol) = (ColId(cols.0), ColId(cols.1));
        let keyed = Pred::and(vec![
            Pred::CmpCols { left: lcol, op: CmpOp::Eq, right: ColId(rcol.0 + 2) },
            residual.clone(),
        ]);
        let nl = nested_loop_join(&l, &r, &keyed);
        let hj = hash_join(&l, &r, lcol, rcol, &residual);
        prop_assert_eq!(hj, nl, "key {:?}, residual {:?}", (lcol, rcol), residual);
    }
}

/// Rows can cross threads: the shared strings are `Arc`, not `Rc`.
#[test]
fn rows_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Value>();
    assert_send_sync::<Tuple>();
    assert_send_sync::<Table>();
}

/// A clone is another handle on the same bytes — in a cell, and so in
/// every row an operator copies.
#[test]
fn cloning_a_string_value_shares_its_allocation() {
    fn bytes(v: &Value) -> &Arc<str> {
        match v {
            Value::Str(s) => s,
            other => panic!("{other} is not a string"),
        }
    }
    let v = Value::str(String::from("Garcia-Molina"));
    assert!(Arc::ptr_eq(bytes(&v), bytes(&v.clone())));
    let row = Tuple::new(vec![v.clone(), Value::int(1)]);
    let joined = concat(&row, &row);
    for copy in [
        row.clone().get(ColId(0)),
        joined.get(ColId(2)),
        &row.key(&[ColId(0)])[0],
        row.project(&[ColId(0)]).get(ColId(0)),
    ] {
        assert!(Arc::ptr_eq(bytes(&v), bytes(copy)));
    }
    let schema = RelSchema::from_columns(vec![("k", ValueType::Str), ("v", ValueType::Int)]);
    let t = Table::new("t", schema).with_rows(vec![row]);
    let kept = filter(&t, &Pred::True);
    assert!(Arc::ptr_eq(bytes(&v), bytes(kept.rows()[0].get(ColId(0)))));
    assert!(Arc::ptr_eq(bytes(&v), bytes(&group_by(&t, &[ColId(0)])[0].0[0])));
}

proptest! {
    /// Filter by conjunction equals sequential filters.
    #[test]
    fn filter_composes(t in table("t"), a in 0i64..5, b in 0i64..5) {
        let p1 = Pred::gt(ColId(1), a);
        let p2 = Pred::Cmp { col: ColId(1), op: CmpOp::Lt, rhs: Value::int(b) };
        let both = filter(&t, &Pred::and(vec![p1.clone(), p2.clone()]));
        let seq = filter(&filter(&t, &p1), &p2);
        prop_assert_eq!(row_set(&both), row_set(&seq));
    }

    /// Distinct is idempotent and never grows.
    #[test]
    fn distinct_idempotent(t in table("t")) {
        let d1 = distinct(&t);
        let d2 = distinct(&d1);
        prop_assert!(d1.len() <= t.len());
        prop_assert_eq!(row_set(&d1), row_set(&d2));
    }

    /// project_distinct row count equals the multi-column distinct count.
    #[test]
    fn project_distinct_counts(t in table("t")) {
        let cols = vec![ColId(0), ColId(1)];
        let pd = project_distinct(&t, &cols);
        prop_assert_eq!(pd.len(), distinct_count_multi(&t, &cols));
    }

    /// sort_by produces a sorted permutation.
    #[test]
    fn sort_by_sorts(t in table("t")) {
        let s = sort_by(&t, &[ColId(0), ColId(1)]);
        prop_assert_eq!(s.len(), t.len());
        prop_assert_eq!(row_set(&s), row_set(&t));
        for w in s.rows().windows(2) {
            let o = w[0]
                .get(ColId(0))
                .total_cmp(w[1].get(ColId(0)))
                .then(w[0].get(ColId(1)).total_cmp(w[1].get(ColId(1))));
            prop_assert!(o != std::cmp::Ordering::Greater);
        }
    }

    /// LIKE with no wildcards is equality; %s% matches any embedding.
    #[test]
    fn like_laws(s in "[a-z]{0,6}", pre in "[a-z]{0,3}", post in "[a-z]{0,3}") {
        prop_assert!(like(&s, &s));
        let embedded = format!("{pre}{s}{post}");
        let pat = format!("%{s}%");
        prop_assert!(like(&embedded, &pat));
        prop_assert!(like(&embedded, "%"));
    }

    /// contains_term is reflexive on normalized text and invariant under
    /// case change of the needle.
    #[test]
    fn contains_term_laws(words in prop::collection::vec("[a-z]{1,5}", 1..4)) {
        let text = words.join(" ");
        prop_assert!(contains_term(&text, &text));
        prop_assert!(contains_term(&text, &text.to_uppercase()));
        for w in &words {
            prop_assert!(contains_term(&text, w));
        }
    }
}
