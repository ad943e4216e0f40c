//! Row storage: populated tables and databases.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::EngineError;
use crate::schema::{DatabaseSchema, TableSchema};
use crate::value::{DataType, Value};

/// A populated table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub schema: TableSchema,
    pub rows: Vec<Vec<Value>>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table { schema, rows: Vec::new() }
    }

    /// Insert a row, checking arity and (loosely) types: NULL fits any
    /// column, Int fits Float columns.
    pub fn insert(&mut self, row: Vec<Value>) -> Result<(), EngineError> {
        if row.len() != self.schema.columns.len() {
            return Err(EngineError::Arity {
                table: self.schema.name.clone(),
                expected: self.schema.columns.len(),
                got: row.len(),
            });
        }
        for (v, col) in row.iter().zip(&self.schema.columns) {
            let ok = match (v.type_of(), col.ty) {
                (None, _) => true,
                (Some(DataType::Int), DataType::Float) => true,
                (Some(t), expected) => t == expected,
            };
            if !ok {
                return Err(EngineError::TypeMismatch {
                    table: self.schema.name.clone(),
                    column: col.name.clone(),
                    expected: col.ty,
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All non-null values of one column (used by joinability detection).
    pub fn column_values(&self, idx: usize) -> impl Iterator<Item = &Value> {
        self.rows.iter().map(move |r| &r[idx]).filter(|v| !v.is_null())
    }
}

/// A populated database.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Database {
    pub name: String,
    pub tables: BTreeMap<String, Table>,
}

impl Database {
    /// Create an empty database from a schema.
    pub fn from_schema(schema: &DatabaseSchema) -> Self {
        let tables =
            schema.tables.iter().map(|t| (t.name.clone(), Table::new(t.clone()))).collect();
        Database { name: schema.name.clone(), tables }
    }

    pub fn table(&self, name: &str) -> Option<&Table> {
        // Case-insensitive fallback keeps generated SQL robust.
        self.tables
            .get(name)
            .or_else(|| self.tables.values().find(|t| t.schema.name.eq_ignore_ascii_case(name)))
    }

    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        if self.tables.contains_key(name) {
            return self.tables.get_mut(name);
        }
        let key = self.tables.keys().find(|k| k.eq_ignore_ascii_case(name)).cloned()?;
        self.tables.get_mut(&key)
    }

    /// Insert a row into a named table.
    pub fn insert(&mut self, table: &str, row: Vec<Value>) -> Result<(), EngineError> {
        match self.table_mut(table) {
            Some(t) => t.insert(row),
            None => Err(EngineError::UnknownTable { table: table.to_string() }),
        }
    }

    /// The schema view of this database.
    pub fn schema(&self) -> DatabaseSchema {
        let mut s = DatabaseSchema::new(self.name.clone());
        for t in self.tables.values() {
            s.tables.push(t.schema.clone());
        }
        s
    }
}

/// A populated collection of databases (content counterpart of
/// [`crate::schema::Collection`]).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Store {
    pub databases: BTreeMap<String, Database>,
}

impl Store {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add(&mut self, db: Database) {
        self.databases.insert(db.name.clone(), db);
    }

    pub fn database(&self, name: &str) -> Option<&Database> {
        self.databases.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn people() -> Table {
        Table::new(
            TableSchema::new("people")
                .column("id", DataType::Int)
                .column("name", DataType::Text)
                .column("height", DataType::Float),
        )
    }

    #[test]
    fn insert_checks_arity() {
        let mut t = people();
        let err = t.insert(vec![Value::Int(1)]).unwrap_err();
        assert!(matches!(err, EngineError::Arity { expected: 3, got: 1, .. }));
    }

    #[test]
    fn insert_checks_types() {
        let mut t = people();
        let err = t
            .insert(vec![Value::Text("x".into()), Value::Text("a".into()), Value::Float(1.0)])
            .unwrap_err();
        assert!(matches!(err, EngineError::TypeMismatch { .. }));
    }

    #[test]
    fn int_widens_to_float_and_null_fits() {
        let mut t = people();
        t.insert(vec![Value::Int(1), Value::Null, Value::Int(180)]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn column_values_skips_nulls() {
        let mut t = people();
        t.insert(vec![Value::Int(1), Value::Null, Value::Float(1.5)]).unwrap();
        t.insert(vec![Value::Int(2), Value::Text("bo".into()), Value::Null]).unwrap();
        assert_eq!(t.column_values(1).count(), 1);
        assert_eq!(t.column_values(2).count(), 1);
    }

    #[test]
    fn database_case_insensitive_lookup() {
        let mut schema = DatabaseSchema::new("d");
        schema.add_table(TableSchema::new("Singer").column("id", DataType::Int));
        let db = Database::from_schema(&schema);
        assert!(db.table("singer").is_some());
        assert!(db.table("SINGER").is_some());
        assert!(db.table("nope").is_none());
    }
}
