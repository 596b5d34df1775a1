//! Tuples (rows).

use std::fmt;

use crate::schema::ColId;
use crate::value::Value;

/// A row: values positionally aligned with a [`crate::schema::RelSchema`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Builds a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// The value in column `c`.
    ///
    /// # Panics
    /// Panics if `c` is out of range.
    pub fn get(&self, c: ColId) -> &Value {
        &self.values[c.0]
    }

    /// Number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.values.len()
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Projection onto `cols` in the given order.
    pub fn project(&self, cols: &[ColId]) -> Tuple {
        Tuple {
            values: cols.iter().map(|&c| self.get(c).clone()).collect(),
        }
    }

    /// The projection used as a grouping/distinct key.
    pub fn key(&self, cols: &[ColId]) -> Vec<Value> {
        cols.iter().map(|&c| self.get(c).clone()).collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Convenience macro-free constructor from heterogeneous literals.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::tuple::Tuple::new(vec![$($crate::value::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_and_arity() {
        let t = tuple!["Radhika", "AI", 4i64];
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(ColId(0)).as_str(), Some("Radhika"));
        assert_eq!(t.get(ColId(2)), &Value::Int(4));
    }

    #[test]
    fn concat_and_project() {
        let a = tuple!["x", 1i64];
        let b = tuple!["y"];
        let c = Tuple::new([a.values(), b.values()].concat());
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(ColId(2)).as_str(), Some("y"));
        let p = c.project(&[ColId(2), ColId(0)]);
        assert_eq!(p.values(), &[Value::str("y"), Value::str("x")]);
    }

    #[test]
    fn key_extracts_columns() {
        let t = tuple!["a", "b", "c"];
        assert_eq!(t.key(&[ColId(1)]), vec![Value::str("b")]);
    }

    #[test]
    fn display() {
        let t = tuple!["a", 7i64];
        assert_eq!(t.to_string(), "['a', 7]");
    }
}
