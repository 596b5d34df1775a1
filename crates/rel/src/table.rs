//! In-memory tables.

use std::fmt;

use crate::schema::{ColId, RelSchema};
use crate::tuple::Tuple;
use crate::value::Value;

/// Read access to a relation by row index: a [`Table`], or a view whose rows
/// index other tables. Grouping, join predicates and the joins read any `Rows`.
pub trait Rows {
    /// The schema.
    fn schema(&self) -> &RelSchema;
    /// Number of rows.
    fn len(&self) -> usize;
    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The value in column `c` of row `row`.
    fn value(&self, row: usize, c: ColId) -> &Value;
}

impl Rows for Table {
    fn schema(&self) -> &RelSchema {
        &self.schema
    }
    fn len(&self) -> usize {
        self.rows.len()
    }
    fn value(&self, row: usize, c: ColId) -> &Value {
        self.rows[row].get(c)
    }
}

/// A named, schema-ful bag of tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    name: String,
    schema: RelSchema,
    rows: Vec<Tuple>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: RelSchema) -> Self {
        Self {
            name: name.into(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the table (intermediate results get synthesized names).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The schema.
    pub fn schema(&self) -> &RelSchema {
        &self.schema
    }

    /// Number of rows — the paper's `N` for a joining relation.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the arity or a value type does not match the schema.
    pub fn push(&mut self, t: Tuple) {
        assert_eq!(
            t.arity(),
            self.schema.len(),
            "tuple arity {} != schema arity {} for table {}",
            t.arity(),
            self.schema.len(),
            self.name
        );
        for (c, def) in self.schema.iter() {
            assert!(
                t.get(c).conforms_to(def.ty),
                "value {} does not conform to column {} of table {}",
                t.get(c),
                def.name,
                self.name
            );
        }
        self.rows.push(t);
    }

    /// The rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Iterates over rows.
    pub fn iter(&self) -> std::slice::Iter<'_, Tuple> {
        self.rows.iter()
    }

    /// Column id by name.
    ///
    /// # Panics
    /// Panics if the column does not exist — table construction is
    /// programmer-facing, so a typo should fail loudly.
    pub fn col(&self, name: &str) -> ColId {
        self.schema
            .column_by_name(name)
            .unwrap_or_else(|| panic!("no column {name:?} in table {}", self.name))
    }

    /// All values of one column, in row order.
    pub fn column_values(&self, c: ColId) -> Vec<Value> {
        self.rows.iter().map(|t| t.get(c).clone()).collect()
    }

    /// Replaces the rows wholesale (used by operators that permute rows).
    pub fn with_rows(mut self, rows: Vec<Tuple>) -> Self {
        self.rows = rows;
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {} [{} rows]", self.name, self.schema, self.len())?;
        for t in self.rows.iter().take(20) {
            writeln!(f, "  {t}")?;
        }
        if self.len() > 20 {
            writeln!(f, "  ... {} more", self.len() - 20)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;
    use crate::value::ValueType;

    fn student() -> Table {
        let schema = RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("year", ValueType::Int),
        ]);
        let mut t = Table::new("student", schema);
        t.push(tuple!["Gravano", 4i64]);
        t.push(tuple!["Kao", 2i64]);
        t
    }

    #[test]
    fn push_and_len() {
        let t = student();
        assert_eq!(t.len(), 2);
        assert_eq!(t.rows()[1].get(t.col("name")).as_str(), Some("Kao"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        let mut t = student();
        t.push(tuple!["x"]);
    }

    #[test]
    #[should_panic(expected = "conform")]
    fn type_mismatch_panics() {
        let mut t = student();
        t.push(tuple![1i64, 2i64]);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn unknown_column_panics() {
        student().col("nope");
    }

    #[test]
    fn null_allowed_any_type() {
        let mut t = student();
        t.push(Tuple::new(vec![Value::Null, Value::Null]));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn column_values_in_order() {
        let t = student();
        let names = t.column_values(t.col("name"));
        assert_eq!(names, vec![Value::str("Gravano"), Value::str("Kao")]);
    }
}
