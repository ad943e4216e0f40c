//! SQL engine micro-benchmarks: parsing, and each executor shape through
//! the interned/index-resolved/hash-join engine against a prepared database
//! (the serving and eval hot path), at two row scales — the rows the CI
//! baseline gate watches.

use criterion::{criterion_group, criterion_main, Criterion};

use dbcopilot_sqlengine::{
    execute_prepared, parse_select, DataType, Database, DatabaseSchema, PreparedDb, TableSchema,
    Value,
};

fn make_db(rows: usize) -> Database {
    let mut schema = DatabaseSchema::new("bench");
    schema.add_table(
        TableSchema::new("orders")
            .column("order_id", DataType::Int)
            .column("name", DataType::Text)
            .column("amount", DataType::Float)
            .column("status", DataType::Text)
            .column("customer_id", DataType::Int)
            .primary(0),
    );
    schema.add_table(
        TableSchema::new("customer")
            .column("customer_id", DataType::Int)
            .column("name", DataType::Text)
            .column("region", DataType::Text)
            .primary(0),
    );
    let mut db = Database::from_schema(&schema);
    let statuses = ["active", "pending", "closed"];
    let regions = ["north", "south", "east", "west"];
    for i in 0..rows {
        db.insert(
            "orders",
            vec![
                Value::Int(i as i64),
                Value::Text(format!("o{i}")),
                Value::Float((i % 97) as f64 * 1.5),
                Value::Text(statuses[i % 3].into()),
                Value::Int((i % (rows / 4).max(1)) as i64),
            ],
        )
        .unwrap();
    }
    for i in 0..rows / 4 {
        db.insert(
            "customer",
            vec![
                Value::Int(i as i64),
                Value::Text(format!("c{i}")),
                Value::Text(regions[i % 4].into()),
            ],
        )
        .unwrap();
    }
    db
}

/// The executor shapes under the perf gate. Each runs as
/// `sqlengine/{shape}_{rows}/{interp|compiled}`.
const SHAPES: &[(&str, &str)] = &[
    ("scan_filter", "SELECT name FROM orders WHERE amount > 50"),
    (
        "join",
        "SELECT o.name FROM orders AS o JOIN customer AS c \
         ON o.customer_id = c.customer_id WHERE c.region = 'north'",
    ),
    ("group_by", "SELECT status, COUNT(*), SUM(amount) FROM orders GROUP BY status"),
    ("distinct", "SELECT DISTINCT status, customer_id FROM orders"),
    ("subquery", "SELECT name FROM orders WHERE amount = (SELECT MAX(amount) FROM orders)"),
    (
        "join_group_by",
        "SELECT c.region, COUNT(*), AVG(o.amount) FROM orders AS o \
         JOIN customer AS c ON o.customer_id = c.customer_id \
         GROUP BY c.region ORDER BY c.region",
    ),
];

fn bench_engine(c: &mut Criterion) {
    c.bench_function("parse_join_query", |b| {
        b.iter(|| {
            parse_select(
                "SELECT o.name FROM orders AS o JOIN customer AS c \
                 ON o.customer_id = c.customer_id WHERE c.region = 'north' ORDER BY o.name LIMIT 10",
            )
        })
    });
    for rows in [100usize, 1000] {
        let pdb = PreparedDb::prepare(&make_db(rows));
        for (shape, sql) in SHAPES {
            c.bench_function(&format!("sqlengine/{shape}_{rows}/compiled"), |b| {
                b.iter(|| execute_prepared(&pdb, sql))
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_engine
}
criterion_main!(benches);
