//! SQL semantics suite: NULL handling, aggregate edge cases, multi-key
//! ordering, nested subqueries — behaviors EX comparison depends on.

use dbcopilot_sqlengine::{
    execute, execution_match, DataType, Database, DatabaseSchema, PreparedDb, TableSchema, Value,
};

fn db() -> PreparedDb {
    let mut schema = DatabaseSchema::new("sem");
    schema.add_table(
        TableSchema::new("items")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("price", DataType::Float)
            .column("category", DataType::Text)
            .primary(0),
    );
    schema.add_table(TableSchema::new("empty").column("x", DataType::Int));
    let mut db = Database::from_schema(&schema);
    let rows: Vec<(i64, &str, Option<f64>, Option<&str>)> = vec![
        (1, "apple", Some(1.5), Some("fruit")),
        (2, "beet", Some(0.5), Some("veg")),
        (3, "corn", None, Some("veg")),
        (4, "date", Some(8.0), None),
        (5, "fig", Some(1.5), Some("fruit")),
    ];
    for (id, name, price, cat) in rows {
        db.insert(
            "items",
            vec![
                Value::Int(id),
                Value::Text(name.into()),
                price.map(Value::Float).unwrap_or(Value::Null),
                cat.map(|c| Value::Text(c.into())).unwrap_or(Value::Null),
            ],
        )
        .unwrap();
    }
    PreparedDb::prepare(&db)
}

#[test]
fn null_excluded_from_comparisons() {
    let d = db();
    // corn has NULL price: excluded from both sides of the split
    let above = execute(&d, "SELECT name FROM items WHERE price > 1.0").unwrap();
    let below = execute(&d, "SELECT name FROM items WHERE price <= 1.0").unwrap();
    assert_eq!(above.rows.len() + below.rows.len(), 4);
}

#[test]
fn aggregates_skip_nulls() {
    let d = db();
    let rs = execute(&d, "SELECT COUNT(price), AVG(price) FROM items").unwrap();
    assert!(rs.rows[0][0].sql_eq(&Value::Int(4)));
    assert!(rs.rows[0][1].sql_eq(&Value::Float((1.5 + 0.5 + 8.0 + 1.5) / 4.0)));
}

#[test]
fn aggregates_over_empty_table() {
    let d = db();
    let rs = execute(&d, "SELECT COUNT(*), SUM(x), MIN(x) FROM empty").unwrap();
    assert!(rs.rows[0][0].sql_eq(&Value::Int(0)));
    assert!(rs.rows[0][1].is_null(), "SUM of nothing is NULL");
    assert!(rs.rows[0][2].is_null(), "MIN of nothing is NULL");
}

#[test]
fn group_by_treats_null_as_its_own_group() {
    let d = db();
    let rs = execute(&d, "SELECT category, COUNT(*) FROM items GROUP BY category").unwrap();
    assert_eq!(rs.rows.len(), 3, "fruit, veg, NULL: {:?}", rs.rows);
}

#[test]
fn is_null_filters() {
    let d = db();
    let rs = execute(&d, "SELECT name FROM items WHERE price IS NULL").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert!(rs.rows[0][0].sql_eq(&Value::Text("corn".into())));
    let rs = execute(&d, "SELECT name FROM items WHERE category IS NOT NULL").unwrap();
    assert_eq!(rs.rows.len(), 4);
}

#[test]
fn multi_key_order_by() {
    let d = db();
    // price ASC with NULLs first (total order), then name DESC as tiebreak
    let rs = execute(&d, "SELECT name FROM items ORDER BY price ASC, name DESC").unwrap();
    let names: Vec<String> = rs
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.clone(),
            v => v.to_string(),
        })
        .collect();
    assert_eq!(names[0], "corn", "NULL price sorts first: {names:?}");
    // apple and fig tie at 1.5 → name DESC puts fig before apple
    let fig = names.iter().position(|n| n == "fig").unwrap();
    let apple = names.iter().position(|n| n == "apple").unwrap();
    assert!(fig < apple, "{names:?}");
}

#[test]
fn nested_subqueries_two_deep() {
    let d = db();
    let rs = execute(
        &d,
        "SELECT name FROM items WHERE price = \
         (SELECT MAX(price) FROM items WHERE id IN (SELECT id FROM items WHERE category = 'fruit'))",
    )
    .unwrap();
    // max fruit price is 1.5 → apple and fig
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn scalar_subquery_empty_is_null() {
    let d = db();
    let rs =
        execute(&d, "SELECT name FROM items WHERE price = (SELECT MAX(x) FROM empty)").unwrap();
    assert!(rs.rows.is_empty(), "comparison with NULL matches nothing");
}

#[test]
fn distinct_with_nulls() {
    let d = db();
    let rs = execute(&d, "SELECT DISTINCT category FROM items").unwrap();
    assert_eq!(rs.rows.len(), 3);
}

#[test]
fn limit_zero_and_overlarge() {
    let d = db();
    assert!(execute(&d, "SELECT name FROM items LIMIT 0").unwrap().rows.is_empty());
    assert_eq!(execute(&d, "SELECT name FROM items LIMIT 99").unwrap().rows.len(), 5);
}

#[test]
fn ex_match_is_case_insensitive_on_keywords_not_values() {
    let d = db();
    assert!(execution_match(
        &d,
        "select name from items where category = 'fruit'",
        "SELECT name FROM items WHERE category = 'fruit'"
    )
    .is_match());
    assert!(!execution_match(
        &d,
        "SELECT name FROM items WHERE category = 'fruit'",
        "SELECT name FROM items WHERE category = 'FRUIT'"
    )
    .is_match());
}

#[test]
fn arithmetic_in_projections_and_filters() {
    let d = db();
    let rs =
        execute(&d, "SELECT name FROM items WHERE price * 2 > 3.0 AND price + 1 < 10").unwrap();
    assert_eq!(rs.rows.len(), 1); // date (8.0)
}

#[test]
fn between_inclusive_bounds() {
    let d = db();
    let rs = execute(&d, "SELECT name FROM items WHERE price BETWEEN 0.5 AND 1.5").unwrap();
    assert_eq!(rs.rows.len(), 3); // beet, apple, fig
}

#[test]
fn not_like_and_wildcards() {
    let d = db();
    let rs = execute(&d, "SELECT name FROM items WHERE name NOT LIKE '%e%'").unwrap();
    // apple(e) beet(e) corn date(e) fig → corn, fig
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn having_with_aggregate_on_other_column() {
    let d = db();
    let rs = execute(&d, "SELECT category FROM items GROUP BY category HAVING AVG(price) > 1.0")
        .unwrap();
    // fruit avg 1.5 ✓; veg avg (0.5, NULL skipped) = 0.5 ✗; NULL category avg 8.0 ✓
    assert_eq!(rs.rows.len(), 2);
}
