//! Scalar values.
//!
//! The relational side of the integrated system (the paper's OpenODB role)
//! needs only a small type lattice: variable-length strings (the join
//! columns — names, titles — are all `varchar`), integers (`student.year`),
//! and SQL-style `NULL`.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A scalar value stored in a tuple.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// SQL NULL. Compares equal to itself for grouping/distinct purposes,
    /// but predicate comparisons against NULL are false (SQL three-valued
    /// logic collapsed to two values, which is all conjunctive queries need).
    Null,
    /// A 64-bit integer.
    Int(i64),
    /// A string (`varchar`). The bytes are shared: cloning the value (into
    /// a join row, a grouping key, a filtered table) bumps a reference
    /// count and copies nothing. `Arc`, not `Rc`, so rows are `Send`.
    Str(Arc<str>),
}

impl Value {
    /// Builds a string value (one allocation: the shared copy of `s`).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Builds an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Whether this is NULL.
    pub(crate) fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The string contents if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison: `None` if either side is NULL or the types are
    /// incomparable; otherwise the ordering.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for sorting and grouping (NULL sorts first,
    /// integers before strings). Unlike [`sql_cmp`](Self::sql_cmp) this is
    /// total, so NULLs group together.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Int(_) => 1,
                Value::Str(_) => 2,
            }
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

/// The declared type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueType {
    /// Integer column.
    Int,
    /// String column.
    Str,
}

impl Value {
    /// Whether the value conforms to `ty` (NULL conforms to every type).
    pub(crate) fn conforms_to(&self, ty: ValueType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _) | (Value::Int(_), ValueType::Int) | (Value::Str(_), ValueType::Str)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_cmp_null_is_none() {
        assert_eq!(Value::Null.sql_cmp(&Value::int(1)), None);
        assert_eq!(Value::int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::int(1).sql_cmp(&Value::int(2)), Some(Ordering::Less));
        assert_eq!(
            Value::str("a").sql_cmp(&Value::str("a")),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::str("a").sql_cmp(&Value::int(1)), None);
    }

    #[test]
    fn total_cmp_is_total() {
        let vals = [Value::Null, Value::int(3), Value::str("x")];
        for a in &vals {
            for b in &vals {
                let _ = a.total_cmp(b); // must not panic
            }
            assert_eq!(a.total_cmp(a), Ordering::Equal);
        }
        assert_eq!(Value::Null.total_cmp(&Value::int(0)), Ordering::Less);
        assert_eq!(Value::int(9).total_cmp(&Value::str("")), Ordering::Less);
    }

    #[test]
    fn conversions_and_accessors() {
        let v: Value = "abc".into();
        assert_eq!(v.as_str(), Some("abc"));
        let v: Value = 42i64.into();
        assert_eq!(v, Value::Int(42));
        assert!(Value::Null.is_null());
    }

    #[test]
    fn conforms() {
        assert!(Value::int(1).conforms_to(ValueType::Int));
        assert!(!Value::int(1).conforms_to(ValueType::Str));
        assert!(Value::Null.conforms_to(ValueType::Int));
        assert!(Value::Null.conforms_to(ValueType::Str));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::int(-5).to_string(), "-5");
        assert_eq!(Value::str("hi").to_string(), "'hi'");
    }
}
