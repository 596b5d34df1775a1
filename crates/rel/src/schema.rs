//! Relation schemas.

use std::fmt;

use crate::value::ValueType;

/// Index of a column within a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColId(pub usize);

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name (unique within the schema).
    pub name: String,
    /// Declared type.
    pub ty: ValueType,
}

/// An ordered list of columns.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RelSchema {
    columns: Vec<ColumnDef>,
}

impl RelSchema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics on duplicate column names.
    pub fn from_columns(cols: Vec<(impl Into<String>, ValueType)>) -> Self {
        let mut s = Self::new();
        for (name, ty) in cols {
            s.add_column(name, ty);
        }
        s
    }

    /// Appends a column and returns its id.
    ///
    /// # Panics
    /// Panics if a column of the same name exists.
    pub fn add_column(&mut self, name: impl Into<String>, ty: ValueType) -> ColId {
        let name = name.into();
        assert!(
            self.column_by_name(&name).is_none(),
            "duplicate column {name:?}"
        );
        let id = ColId(self.columns.len());
        self.columns.push(ColumnDef { name, ty });
        id
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// Whether the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Looks up a column id by name.
    pub fn column_by_name(&self, name: &str) -> Option<ColId> {
        self.columns.iter().position(|c| c.name == name).map(ColId)
    }

    /// The definition of `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub(crate) fn def(&self, id: ColId) -> &ColumnDef {
        &self.columns[id.0]
    }

    /// Iterates `(ColId, &ColumnDef)`.
    pub fn iter(&self) -> impl Iterator<Item = (ColId, &ColumnDef)> {
        self.columns.iter().enumerate().map(|(i, c)| (ColId(i), c))
    }

    /// Concatenates two schemas (for join outputs), prefixing clashing
    /// names on the right with `rprefix.`.
    pub fn concat(&self, other: &RelSchema, rprefix: &str) -> RelSchema {
        let mut out = self.clone();
        for (_, c) in other.iter() {
            let name = if out.column_by_name(&c.name).is_some() {
                format!("{rprefix}.{}", c.name)
            } else {
                c.name.clone()
            };
            out.add_column(name, c.ty);
        }
        out
    }

    /// Projects onto `cols`, preserving the given order.
    pub(crate) fn project(&self, cols: &[ColId]) -> RelSchema {
        let mut out = RelSchema::new();
        for &c in cols {
            let d = self.def(c);
            out.add_column(d.name.clone(), d.ty);
        }
        out
    }
}

impl fmt::Display for RelSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(
                f,
                "{} {}",
                c.name,
                match c.ty {
                    ValueType::Int => "int",
                    ValueType::Str => "varchar",
                }
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn student() -> RelSchema {
        RelSchema::from_columns(vec![
            ("name", ValueType::Str),
            ("area", ValueType::Str),
            ("year", ValueType::Int),
        ])
    }

    #[test]
    fn add_and_lookup() {
        let s = student();
        assert_eq!(s.len(), 3);
        assert_eq!(s.column_by_name("area"), Some(ColId(1)));
        assert_eq!(s.column_by_name("nope"), None);
        assert_eq!(s.def(ColId(2)).ty, ValueType::Int);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_name_panics() {
        let mut s = student();
        s.add_column("name", ValueType::Str);
    }

    #[test]
    fn concat_prefixes_clashes() {
        let a = student();
        let b = RelSchema::from_columns(vec![("name", ValueType::Str), ("dept", ValueType::Str)]);
        let j = a.concat(&b, "faculty");
        assert_eq!(j.len(), 5);
        assert!(j.column_by_name("faculty.name").is_some());
        assert!(j.column_by_name("dept").is_some());
    }

    #[test]
    fn project_reorders() {
        let s = student();
        let p = s.project(&[ColId(2), ColId(0)]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.def(ColId(0)).name, "year");
        assert_eq!(p.def(ColId(1)).name, "name");
    }

    #[test]
    fn display_format() {
        assert_eq!(
            student().to_string(),
            "(name varchar, area varchar, year int)"
        );
    }
}
