//! Content-based joinable-table detection (paper §4.1.5).
//!
//! "We adopted a heuristic way that two tables are joinable if the exact
//! match overlap (Jaccard similarity) of their column values is greater than
//! 0.85." Detection runs over populated databases and feeds
//! [`crate::graph::SchemaGraph::add_joinable_edge`];
//! [`crate::graph::SchemaGraph::with_joins`] builds the graph with them.

use std::collections::BTreeSet;

use dbcopilot_sqlengine::{Database, Value};

use crate::graph::SchemaGraph;

/// Default Jaccard threshold from the paper.
pub const DEFAULT_JACCARD_THRESHOLD: f64 = 0.85;

/// Jaccard similarity of two value sets (exact-match overlap).
pub fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = a.intersection(b).count();
    let union = a.len() + b.len() - inter;
    if union == 0 {
        0.0
    } else {
        inter as f64 / union as f64
    }
}

fn canon(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("t:{}", s.to_ascii_lowercase()),
        Value::Int(i) => format!("n:{i}"),
        Value::Float(f) => format!("f:{f}"),
        Value::Bool(b) => format!("b:{b}"),
        Value::Null => "∅".into(),
    }
}

/// Detected joinable pair.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinablePair {
    pub table_a: String,
    pub column_a: String,
    pub table_b: String,
    pub column_b: String,
    pub jaccard: f64,
}

/// Scan all column pairs across distinct tables of one database and return
/// pairs whose value sets overlap above `threshold`.
pub fn detect_joinable(db: &Database, threshold: f64) -> Vec<JoinablePair> {
    // Precompute value sets per (table, column).
    let mut sets: Vec<(String, String, BTreeSet<String>)> = Vec::new();
    for table in db.tables.values() {
        for (ci, col) in table.schema.columns.iter().enumerate() {
            let vals: BTreeSet<String> = table.column_values(ci).map(canon).collect();
            if !vals.is_empty() {
                sets.push((table.schema.name.clone(), col.name.clone(), vals));
            }
        }
    }
    let mut out = Vec::new();
    for i in 0..sets.len() {
        for j in (i + 1)..sets.len() {
            if sets[i].0 == sets[j].0 {
                continue; // same table
            }
            let sim = jaccard(&sets[i].2, &sets[j].2);
            if sim > threshold {
                out.push(JoinablePair {
                    table_a: sets[i].0.clone(),
                    column_a: sets[i].1.clone(),
                    table_b: sets[j].0.clone(),
                    column_b: sets[j].1.clone(),
                    jaccard: sim,
                });
            }
        }
    }
    out
}

/// Detect joinable pairs in every database of a store and add the edges to
/// the schema graph. Returns the number of edges added.
pub fn augment_graph_with_joinable(
    graph: &mut SchemaGraph,
    store: &dbcopilot_sqlengine::Store,
    threshold: f64,
) -> usize {
    let mut added = 0;
    for db in store.databases.values() {
        for pair in detect_joinable(db, threshold) {
            graph.add_joinable_edge(&db.name, &pair.table_a, &pair.table_b);
            added += 1;
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcopilot_sqlengine::{DataType, DatabaseSchema, TableSchema};

    fn db_with_overlap() -> Database {
        let mut schema = DatabaseSchema::new("d");
        schema.add_table(
            TableSchema::new("orders")
                .column("order_id", DataType::Int)
                .column("customer", DataType::Text),
        );
        schema.add_table(
            TableSchema::new("shipments")
                .column("ship_id", DataType::Int)
                .column("client", DataType::Text),
        );
        let mut db = Database::from_schema(&schema);
        for (i, name) in ["ann", "bo", "cy", "di"].iter().enumerate() {
            db.insert("orders", vec![Value::Int(i as i64), Value::Text((*name).into())]).unwrap();
        }
        for (i, name) in ["ann", "bo", "cy", "di"].iter().enumerate() {
            db.insert("shipments", vec![Value::Int(100 + i as i64), Value::Text((*name).into())])
                .unwrap();
        }
        db
    }

    #[test]
    fn jaccard_basics() {
        let a: BTreeSet<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let b: BTreeSet<String> = ["y", "z"].iter().map(|s| s.to_string()).collect();
        assert!((jaccard(&a, &b) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(jaccard(&a, &a), 1.0);
        assert_eq!(jaccard(&BTreeSet::new(), &BTreeSet::new()), 0.0);
    }

    #[test]
    fn detects_full_overlap() {
        let db = db_with_overlap();
        let pairs = detect_joinable(&db, DEFAULT_JACCARD_THRESHOLD);
        assert_eq!(pairs.len(), 1, "{pairs:?}");
        assert_eq!(pairs[0].column_a, "customer");
        assert_eq!(pairs[0].column_b, "client");
        assert!((pairs[0].jaccard - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ids_disjoint_not_joinable() {
        let db = db_with_overlap();
        // order_id = 0..3, ship_id = 100..103 → no pair for int columns
        let pairs = detect_joinable(&db, 0.5);
        assert!(pairs.iter().all(|p| p.column_a != "order_id"));
    }

    #[test]
    fn threshold_respected() {
        let db = db_with_overlap();
        assert!(detect_joinable(&db, 1.0).is_empty(), "strictly-greater threshold");
    }

    #[test]
    fn augments_schema_graph() {
        let db = db_with_overlap();
        let mut coll = dbcopilot_sqlengine::Collection::new();
        coll.add_database(db.schema());
        let bare = SchemaGraph::build(&coll);
        let orders = bare.table_node("d", "orders").unwrap();
        assert!(bare.related_tables(orders).is_empty());
        let mut store = dbcopilot_sqlengine::Store::new();
        store.add(db);
        let g = SchemaGraph::with_joins(&coll, &store);
        assert_eq!(g.related_tables(orders).len(), 1);
    }
}
