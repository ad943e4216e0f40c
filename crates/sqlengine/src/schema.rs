//! Logical schema: columns, tables, databases, and collections of databases.
//!
//! The *collection* level models the paper's "massive databases" setting: a
//! single searchable space `D` of many databases, each with its own tables
//! (Table 1 notation).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::value::DataType;

/// A column definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ColumnDef {
    pub name: String,
    pub ty: DataType,
    /// Optional human comment (the schema questioner consumes these).
    pub comment: Option<String>,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, ty: DataType) -> Self {
        ColumnDef { name: name.into(), ty, comment: None }
    }
}

/// A foreign-key constraint: `table.column → ref_table.ref_column`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ForeignKey {
    pub column: String,
    pub ref_table: String,
    pub ref_column: String,
}

/// A table definition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Index into `columns` of the primary key, if any.
    pub primary_key: Option<usize>,
    pub foreign_keys: Vec<ForeignKey>,
}

impl TableSchema {
    pub fn new(name: impl Into<String>) -> Self {
        TableSchema {
            name: name.into(),
            columns: Vec::new(),
            primary_key: None,
            foreign_keys: Vec::new(),
        }
    }

    pub fn column(mut self, name: impl Into<String>, ty: DataType) -> Self {
        self.columns.push(ColumnDef::new(name, ty));
        self
    }

    pub fn primary(mut self, idx: usize) -> Self {
        assert!(idx < self.columns.len(), "primary key index out of range");
        self.primary_key = Some(idx);
        self
    }

    pub fn foreign(
        mut self,
        column: impl Into<String>,
        ref_table: impl Into<String>,
        ref_column: impl Into<String>,
    ) -> Self {
        self.foreign_keys.push(ForeignKey {
            column: column.into(),
            ref_table: ref_table.into(),
            ref_column: ref_column.into(),
        });
        self
    }

    /// Position of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// "table(col1, col2, …)" — the flattened form used as retrieval-target
    /// text by the baselines and in prompts.
    pub fn flat_text(&self) -> String {
        let cols: Vec<&str> = self.columns.iter().map(|c| c.name.as_str()).collect();
        format!("{}({})", self.name, cols.join(", "))
    }
}

/// A database definition: named set of tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatabaseSchema {
    pub name: String,
    /// Tables in insertion order; keyed map kept alongside for O(1) lookup.
    pub tables: Vec<TableSchema>,
}

impl DatabaseSchema {
    pub fn new(name: impl Into<String>) -> Self {
        DatabaseSchema { name: name.into(), tables: Vec::new() }
    }

    pub fn add_table(&mut self, table: TableSchema) {
        assert!(
            self.table(&table.name).is_none(),
            "duplicate table {:?} in database {:?}",
            table.name,
            self.name
        );
        self.tables.push(table);
    }

    pub fn table(&self, name: &str) -> Option<&TableSchema> {
        self.tables.iter().find(|t| t.name.eq_ignore_ascii_case(name))
    }

    pub fn table_names(&self) -> Vec<&str> {
        self.tables.iter().map(|t| t.name.as_str()).collect()
    }
}

/// A collection of databases — the full routing space `D`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Collection {
    /// Databases keyed by name, iteration order deterministic.
    pub databases: BTreeMap<String, DatabaseSchema>,
}

impl Collection {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_database(&mut self, db: DatabaseSchema) {
        assert!(!self.databases.contains_key(&db.name), "duplicate database {:?}", db.name);
        self.databases.insert(db.name.clone(), db);
    }

    pub fn database(&self, name: &str) -> Option<&DatabaseSchema> {
        self.databases.get(name)
    }

    pub fn num_databases(&self) -> usize {
        self.databases.len()
    }

    pub fn num_tables(&self) -> usize {
        self.databases.values().map(|d| d.tables.len()).sum()
    }

    pub fn num_columns(&self) -> usize {
        self.databases.values().flat_map(|d| d.tables.iter()).map(|t| t.columns.len()).sum()
    }

    /// Iterate `(database, table)` pairs deterministically.
    pub fn tables(&self) -> impl Iterator<Item = (&DatabaseSchema, &TableSchema)> {
        self.databases.values().flat_map(|d| d.tables.iter().map(move |t| (d, t)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concert_db() -> DatabaseSchema {
        let mut db = DatabaseSchema::new("concert_singer");
        db.add_table(
            TableSchema::new("singer")
                .column("singer_id", DataType::Int)
                .column("name", DataType::Text)
                .primary(0),
        );
        db.add_table(
            TableSchema::new("concert")
                .column("concert_id", DataType::Int)
                .column("year", DataType::Int)
                .primary(0),
        );
        db.add_table(
            TableSchema::new("singer_in_concert")
                .column("singer_id", DataType::Int)
                .column("concert_id", DataType::Int)
                .foreign("singer_id", "singer", "singer_id")
                .foreign("concert_id", "concert", "concert_id"),
        );
        db
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let t = TableSchema::new("t").column("Name", DataType::Text);
        assert_eq!(t.column_index("name"), Some(0));
        assert_eq!(t.column_index("NAME"), Some(0));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    fn flat_text_format() {
        let t =
            TableSchema::new("singer").column("id", DataType::Int).column("name", DataType::Text);
        assert_eq!(t.flat_text(), "singer(id, name)");
    }

    #[test]
    fn collection_counts() {
        let mut c = Collection::new();
        c.add_database(concert_db());
        assert_eq!(c.num_databases(), 1);
        assert_eq!(c.num_tables(), 3);
        assert_eq!(c.num_columns(), 6);
    }

    #[test]
    #[should_panic(expected = "duplicate table")]
    fn duplicate_table_rejected() {
        let mut db = DatabaseSchema::new("d");
        db.add_table(TableSchema::new("t"));
        db.add_table(TableSchema::new("t"));
    }

    #[test]
    fn foreign_keys_recorded() {
        let db = concert_db();
        let jt = db.table("singer_in_concert").unwrap();
        assert_eq!(jt.foreign_keys.len(), 2);
        assert_eq!(jt.foreign_keys[0].ref_table, "singer");
    }
}
