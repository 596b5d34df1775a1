//! A named-table catalog.

use std::collections::BTreeMap;

use crate::table::Table;

/// The database: a map of named tables.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Table>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) a table under its own name.
    pub fn register(&mut self, table: Table) {
        self.tables.insert(table.name().to_owned(), table);
    }

    /// The table named `name`.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelSchema;
    use crate::tuple;
    use crate::value::ValueType;

    #[test]
    fn register_and_lookup() {
        let mut cat = Catalog::new();
        let schema = RelSchema::from_columns(vec![("name", ValueType::Str)]);
        let mut t = Table::new("student", schema);
        t.push(tuple!["Kao"]);
        cat.register(t);
        assert_eq!(cat.table("student").unwrap().len(), 1);
        assert!(cat.table("faculty").is_none());
    }

    #[test]
    fn register_replaces_a_table_of_the_same_name() {
        let mut cat = Catalog::new();
        let schema = RelSchema::from_columns(vec![("name", ValueType::Str)]);
        cat.register(Table::new("student", schema.clone()));
        let mut t2 = Table::new("student", schema);
        t2.push(tuple!["Kao"]);
        t2.push(tuple!["Pham"]);
        cat.register(t2);
        assert_eq!(cat.table("student").unwrap().len(), 2);
    }
}
