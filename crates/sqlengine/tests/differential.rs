//! Differential tests: the compiled execution path must be observably
//! identical to the interpreter — same columns, same rows in the same
//! order, and byte-identical error messages — over randomized queries
//! covering every clause the engine implements. The repair loop derives
//! its RNG stream from error text, so error parity is not cosmetic: a
//! single diverging byte changes downstream EX numbers.

use proptest::prelude::*;

use dbcopilot_sqlengine::exec::interpret;
use dbcopilot_sqlengine::{
    execute, DataType, Database, DatabaseSchema, PreparedDb, TableSchema, Value,
};

/// A small multi-table database exercising the hazards the compiled path
/// must replicate: NULLs in join keys and aggregates, duplicate join keys,
/// text shared across tables, -0.0 vs 0.0, integers beyond 2^53 (where
/// f64 equality classes collapse), and an empty table.
fn diff_db() -> Database {
    let mut schema = DatabaseSchema::new("diffdb");
    schema.add_table(
        TableSchema::new("singer")
            .column("id", DataType::Int)
            .column("name", DataType::Text)
            .column("age", DataType::Int)
            .column("country", DataType::Text)
            .column("net", DataType::Float),
    );
    schema.add_table(
        TableSchema::new("concert")
            .column("cid", DataType::Int)
            .column("singer_id", DataType::Int)
            .column("city", DataType::Text)
            .column("year", DataType::Int)
            .column("score", DataType::Float),
    );
    schema.add_table(
        TableSchema::new("album")
            .column("aid", DataType::Int)
            .column("singer_id", DataType::Int)
            .column("title", DataType::Text),
    );
    schema.add_table(
        TableSchema::new("nobody").column("nid", DataType::Int).column("note", DataType::Text),
    );
    let mut db = Database::from_schema(&schema);
    let text = |s: &str| Value::Text(s.to_string());
    let singers: &[(Value, Value, Value, Value, Value)] = &[
        (Value::Int(1), text("adele"), Value::Int(30), text("uk"), Value::Float(1.5)),
        (Value::Int(2), text("bruno"), Value::Int(32), text("usa"), Value::Float(-0.0)),
        (Value::Int(3), text("celine"), Value::Null, text("canada"), Value::Float(0.0)),
        (Value::Int(4), text("drake"), Value::Int(30), text("canada"), Value::Null),
        (Value::Int(5), text("elvis"), Value::Int(42), text("usa"), Value::Float(2.5)),
        (Value::Int(6), text("adele"), Value::Int(25), text("usa"), Value::Float(1e15)),
        (
            Value::Int(9007199254740993),
            text("ghost"),
            Value::Int(99),
            Value::Null,
            Value::Float(9007199254740992.0),
        ),
    ];
    for (id, name, age, country, net) in singers.iter().cloned() {
        db.insert("singer", vec![id, name, age, country, net]).unwrap();
    }
    let concerts: &[(i64, Value, Value, Value, Value)] = &[
        (10, Value::Int(1), text("london"), Value::Int(1999), Value::Float(4.5)),
        (11, Value::Int(1), text("austin"), Value::Int(2020), Value::Float(3.0)),
        (12, Value::Int(2), text("usa"), Value::Int(2020), Value::Null),
        (13, Value::Int(2), text("austin"), Value::Int(1999), Value::Float(4.5)),
        (14, Value::Null, text("london"), Value::Int(2005), Value::Float(1.0)),
        (15, Value::Int(5), text("memphis"), Value::Int(1956), Value::Float(5.0)),
        (16, Value::Int(5), text("memphis"), Value::Int(1957), Value::Float(5.0)),
        (17, Value::Int(8), text("nowhere"), Value::Int(2001), Value::Float(2.0)),
        (18, Value::Int(9007199254740992), text("ghost town"), Value::Int(2024), Value::Float(0.5)),
    ];
    for (cid, sid, city, year, score) in concerts.iter().cloned() {
        db.insert("concert", vec![Value::Int(cid), sid, city, year, score]).unwrap();
    }
    let albums: &[(i64, Value, &str)] = &[
        (100, Value::Int(1), "19"),
        (101, Value::Int(1), "25"),
        (102, Value::Int(2), "doo-wops"),
        (103, Value::Int(5), "blue hawaii"),
        (104, Value::Null, "untitled"),
    ];
    for (aid, sid, title) in albums.iter().cloned() {
        db.insert("album", vec![Value::Int(aid), sid, text(title)]).unwrap();
    }
    db
}

/// Run one SQL string through the interpreter and the compiled path on the
/// prepared database; the two must agree observably.
fn check(db: &Database, pdb: &PreparedDb, sql: &str) -> Result<(), TestCaseError> {
    let interp = interpret(db, sql);
    let compiled = execute(pdb, sql);
    match (&interp, &compiled) {
        (Ok(a), Ok(b)) => {
            // Debug formatting distinguishes -0.0 from 0.0 and NaN bit
            // patterns well enough for "observably identical".
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"), "results diverge on: {}", sql);
        }
        (Err(a), Err(b)) => {
            prop_assert_eq!(a.to_string(), b.to_string(), "errors diverge on: {}", sql);
        }
        _ => {
            prop_assert!(
                false,
                "strategy disagreement on {}\n  interpreted: {:?}\n  compiled: {:?}",
                sql,
                interp,
                compiled
            );
        }
    }
    Ok(())
}

fn rnd(state: &mut u64, n: usize) -> usize {
    (proptest::next_state(state) % n as u64) as usize
}

fn pick<'a>(state: &mut u64, xs: &[&'a str]) -> &'a str {
    xs[rnd(state, xs.len())]
}

fn chance(state: &mut u64, pct: usize) -> bool {
    rnd(state, 100) < pct
}

const TABLES: &[&str] = &["singer", "concert", "album", "nobody"];

fn columns_of(table: &str) -> &'static [&'static str] {
    match table {
        "singer" => &["id", "name", "age", "country", "net"],
        "concert" => &["cid", "singer_id", "city", "year", "score"],
        "album" => &["aid", "singer_id", "title"],
        _ => &["nid", "note"],
    }
}

fn num_columns_of(table: &str) -> &'static [&'static str] {
    match table {
        "singer" => &["id", "age", "net"],
        "concert" => &["cid", "singer_id", "year", "score"],
        "album" => &["aid", "singer_id"],
        _ => &["nid"],
    }
}

fn text_columns_of(table: &str) -> &'static [&'static str] {
    match table {
        "singer" => &["name", "country"],
        "concert" => &["city"],
        "album" => &["title"],
        _ => &["note"],
    }
}

/// Literals drawn from values present in the data, absent values, edge
/// floats, huge integers, and NULL.
fn literal(state: &mut u64) -> &'static str {
    pick(
        state,
        &[
            "0",
            "1",
            "2",
            "5",
            "25",
            "30",
            "32",
            "1999",
            "2020",
            "9007199254740993",
            "9007199254740992",
            "-1",
            "0.0",
            "-0.0",
            "1.5",
            "4.5",
            "1e15",
            "'usa'",
            "'uk'",
            "'austin'",
            "'adele'",
            "'memphis'",
            "'nope'",
            "NULL",
        ],
    )
}

/// A column reference; occasionally qualified, occasionally bogus (to
/// exercise unknown-column error parity, including the deferred-resolution
/// quirk where `SELECT bogus FROM t WHERE false` succeeds).
fn column(state: &mut u64, table: &str) -> String {
    if chance(state, 4) {
        return pick(state, &["bogus", "singer.bogus", "zzz.id"]).to_string();
    }
    let col = pick(state, columns_of(table));
    if chance(state, 30) {
        format!("{table}.{col}")
    } else {
        col.to_string()
    }
}

/// Scalar expression over one table: column, literal, or arithmetic.
fn scalar(state: &mut u64, table: &str, depth: usize) -> String {
    match if depth == 0 { rnd(state, 2) } else { rnd(state, 4) } {
        0 => column(state, table),
        1 => literal(state).to_string(),
        2 => {
            let op = pick(state, &["+", "-", "*", "/"]);
            format!("{} {op} {}", scalar(state, table, depth - 1), scalar(state, table, depth - 1))
        }
        _ => format!("-{}", scalar(state, table, depth - 1)),
    }
}

/// A small uncorrelated subquery usable in IN / scalar positions.
fn subquery(state: &mut u64, scalar_pos: bool) -> String {
    let table = pick(state, &["singer", "concert", "album", "nobody", "missing_table"]);
    let col = if table == "missing_table" { "id" } else { pick(state, columns_of(table)) };
    if scalar_pos {
        let agg = pick(state, &["MAX", "MIN", "COUNT", "SUM", "AVG"]);
        let mut s = format!("SELECT {agg}({col}) FROM {table}");
        if chance(state, 30) {
            s.push_str(&format!(" WHERE {}", predicate(state, table, 0)));
        }
        s
    } else {
        let mut s = format!("SELECT {col} FROM {table}");
        if chance(state, 40) {
            s.push_str(&format!(" WHERE {}", predicate(state, table, 0)));
        }
        s
    }
}

/// Boolean predicate over one table.
fn predicate(state: &mut u64, table: &str, depth: usize) -> String {
    let simple = |state: &mut u64| -> String {
        match rnd(state, 7) {
            0 | 1 => {
                let op = pick(state, &["=", "<>", "<", "<=", ">", ">="]);
                format!("{} {op} {}", scalar(state, table, 1), scalar(state, table, 1))
            }
            2 => {
                let col = pick(state, columns_of(table));
                let not = if chance(state, 50) { " NOT" } else { "" };
                format!("{col} IS{not} NULL")
            }
            3 => {
                let col = pick(state, text_columns_of(table));
                let pat = pick(state, &["'%a%'", "'a%'", "'%usa'", "'m_mphis'", "'%'", "''"]);
                format!("{col} LIKE {pat}")
            }
            4 => {
                let col = pick(state, num_columns_of(table));
                let (a, b) = (literal(state), literal(state));
                format!("{col} BETWEEN {a} AND {b}")
            }
            5 => {
                let col = pick(state, columns_of(table));
                let not = if chance(state, 30) { "NOT " } else { "" };
                if chance(state, 50) {
                    format!(
                        "{col} {not}IN ({}, {}, {})",
                        literal(state),
                        literal(state),
                        literal(state)
                    )
                } else {
                    format!("{col} {not}IN ({})", subquery(state, false))
                }
            }
            _ => {
                let op = pick(state, &["=", "<", ">"]);
                format!("{} {op} ({})", scalar(state, table, 1), subquery(state, true))
            }
        }
    };
    if depth == 0 {
        return simple(state);
    }
    match rnd(state, 4) {
        0 => format!("{} AND {}", predicate(state, table, depth - 1), simple(state)),
        1 => format!("{} OR {}", predicate(state, table, depth - 1), simple(state)),
        2 => format!("NOT ({})", predicate(state, table, depth - 1)),
        _ => simple(state),
    }
}

/// ORDER BY / LIMIT tail. ORDER BY may reference a projection alias.
fn tail(state: &mut u64, table: &str, aliases: &[String]) -> String {
    let mut s = String::new();
    if chance(state, 50) {
        let key = if !aliases.is_empty() && chance(state, 40) {
            aliases[rnd(state, aliases.len())].clone()
        } else {
            column(state, table)
        };
        let dir = pick(state, &["", " ASC", " DESC"]);
        s.push_str(&format!(" ORDER BY {key}{dir}"));
        if chance(state, 30) {
            s.push_str(&format!(", {}", column(state, table)));
        }
    }
    if chance(state, 40) {
        s.push_str(&format!(" LIMIT {}", rnd(state, 6)));
    }
    s
}

/// Flat (non-grouped) single-table query.
fn flat_query(state: &mut u64) -> String {
    let table = pick(state, TABLES);
    let distinct = if chance(state, 30) { "DISTINCT " } else { "" };
    let mut aliases = Vec::new();
    let projs = if chance(state, 15) {
        "*".to_string()
    } else {
        let n = 1 + rnd(state, 3);
        let mut parts = Vec::new();
        for i in 0..n {
            let e = scalar(state, table, 1);
            if chance(state, 30) {
                let a = format!("al{i}");
                parts.push(format!("{e} AS {a}"));
                aliases.push(a);
            } else {
                parts.push(e);
            }
        }
        parts.join(", ")
    };
    let mut sql = format!("SELECT {distinct}{projs} FROM {table}");
    if chance(state, 70) {
        sql.push_str(&format!(" WHERE {}", predicate(state, table, 1)));
    }
    sql.push_str(&tail(state, table, &aliases));
    sql
}

/// Join query over singer ⋈ concert (sometimes + album). Mixes pure
/// equality keys (hash-join path), residual conjuncts, literal-only and
/// non-equi ON clauses (nested-loop fallback), and bogus tables/columns.
fn join_query(state: &mut u64) -> String {
    let on = match rnd(state, 6) {
        0 | 1 => "singer.id = concert.singer_id".to_string(),
        2 => "concert.singer_id = singer.id AND concert.year > 1990".to_string(),
        3 => format!(
            "singer.id = concert.singer_id AND concert.city = {}",
            pick(state, &["'austin'", "'usa'", "singer.country"])
        ),
        4 => "singer.id < concert.singer_id".to_string(),
        _ => format!("concert.city = {}", pick(state, &["'memphis'", "singer.country", "'nope'"])),
    };
    let mut sql = format!(
        "SELECT {}, {} FROM singer JOIN concert ON {on}",
        column(state, "singer"),
        if chance(state, 85) {
            format!("concert.{}", pick(state, columns_of("concert")))
        } else {
            "concert.bogus".to_string()
        },
    );
    match rnd(state, 8) {
        0 => sql.push_str(" JOIN album ON album.singer_id = singer.id"),
        1 => sql.push_str(" JOIN nobody ON nobody.nid = singer.id"),
        2 => sql.push_str(" JOIN missing_table ON missing_table.x = singer.id"),
        _ => {}
    }
    if chance(state, 50) {
        let t = pick(state, &["singer", "concert"]);
        sql.push_str(&format!(" WHERE {}", predicate(state, t, 0)));
    }
    if chance(state, 40) {
        sql.push_str(&format!(
            " ORDER BY {}",
            pick(state, &["singer.id", "concert.cid", "concert.year DESC, singer.id"])
        ));
    }
    if chance(state, 30) {
        sql.push_str(&format!(" LIMIT {}", rnd(state, 8)));
    }
    sql
}

/// Grouped/aggregated query (with or without GROUP BY and HAVING).
fn grouped_query(state: &mut u64) -> String {
    let table = pick(state, &["singer", "concert", "nobody"]);
    let key = pick(state, columns_of(table));
    let num = pick(state, num_columns_of(table));
    let agg_fn = pick(state, &["COUNT", "SUM", "AVG", "MIN", "MAX"]);
    let agg_arg = match rnd(state, 4) {
        0 if agg_fn == "COUNT" => "*".to_string(),
        1 => format!("DISTINCT {num}"),
        _ => num.to_string(),
    };
    let mut sql = if chance(state, 75) {
        format!("SELECT {key}, {agg_fn}({agg_arg}) AS m FROM {table}")
    } else {
        // global aggregate, no GROUP BY (empty-group representative)
        let wild = if chance(state, 15) { ", *" } else { "" };
        format!("SELECT {agg_fn}({agg_arg}) AS m{wild} FROM {table}")
    };
    if chance(state, 50) {
        sql.push_str(&format!(" WHERE {}", predicate(state, table, 0)));
    }
    if sql.contains(&format!("SELECT {key},")) {
        sql.push_str(&format!(" GROUP BY {key}"));
        if chance(state, 50) {
            sql.push_str(&format!(
                " HAVING {agg_fn}({agg_arg}) {} {}",
                pick(state, &[">", ">=", "<", "="]),
                rnd(state, 5)
            ));
        }
        if chance(state, 40) {
            sql.push_str(&format!(" ORDER BY {}", pick(state, &["m", "m DESC", "1"])));
        }
    }
    if chance(state, 30) {
        sql.push_str(&format!(" LIMIT {}", rnd(state, 4)));
    }
    sql
}

fn any_query(state: &mut u64) -> String {
    match rnd(state, 3) {
        0 => flat_query(state),
        1 => join_query(state),
        _ => grouped_query(state),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flat scans: projections, WHERE, DISTINCT, ORDER BY (incl. aliases),
    /// LIMIT, subqueries in predicates, deliberate unknown columns.
    #[test]
    fn compiled_matches_interpreter_on_flat_queries(seed in 0u64..1_000_000) {
        let db = diff_db();
        let pdb = PreparedDb::prepare(&db);
        let mut state = seed;
        for _ in 0..4 {
            let sql = flat_query(&mut state);
            check(&db, &pdb, &sql)?;
        }
    }

    /// Joins: hash equi-join, residual conjuncts, nested-loop fallback,
    /// NULL/absent keys, three-way joins, bind errors.
    #[test]
    fn compiled_matches_interpreter_on_joins(seed in 0u64..1_000_000) {
        let db = diff_db();
        let pdb = PreparedDb::prepare(&db);
        let mut state = seed;
        for _ in 0..4 {
            let sql = join_query(&mut state);
            check(&db, &pdb, &sql)?;
        }
    }

    /// GROUP BY / HAVING / global aggregates / DISTINCT aggregates,
    /// including the empty table (empty-group representative row).
    #[test]
    fn compiled_matches_interpreter_on_grouped_queries(seed in 0u64..1_000_000) {
        let db = diff_db();
        let pdb = PreparedDb::prepare(&db);
        let mut state = seed;
        for _ in 0..4 {
            let sql = grouped_query(&mut state);
            check(&db, &pdb, &sql)?;
        }
    }

    /// Everything mixed — the long-haul differential sweep.
    #[test]
    fn compiled_matches_interpreter_on_mixed_queries(seed in 0u64..1_000_000) {
        let db = diff_db();
        let pdb = PreparedDb::prepare(&db);
        let mut state = seed;
        for _ in 0..4 {
            let sql = any_query(&mut state);
            check(&db, &pdb, &sql)?;
        }
    }
}

/// Directed cases for hazards the generator may hit only rarely. Each was
/// chosen because the compiled path has a dedicated mechanism for it.
#[test]
fn directed_parity_cases() {
    let db = diff_db();
    let pdb = PreparedDb::prepare(&db);
    let cases = [
        // Deferred column resolution: unknown column never evaluated.
        "SELECT bogus FROM singer WHERE 1 = 0",
        "SELECT bogus FROM singer",
        "SELECT name FROM singer WHERE 1 = 0 AND bogus = 3",
        // Join bind-error ordering: earlier join errors win over later binds.
        "SELECT name FROM singer JOIN missing_table ON missing_table.x = singer.id JOIN concert ON concert.singer_id = singer.id",
        "SELECT bogus FROM singer JOIN missing_table ON missing_table.x = singer.id",
        // Hash-join key classes: -0.0 = 0.0, int/float cross-type equality,
        // i64 beyond 2^53 colliding with its f64 neighbour.
        "SELECT s.id FROM singer AS s JOIN concert ON s.net = concert.score",
        "SELECT singer.id, concert.cid FROM singer JOIN concert ON singer.id = concert.singer_id WHERE singer.id > 9007199254740000",
        // NULL keys never match, on either side.
        "SELECT singer.name FROM singer JOIN concert ON singer.age = concert.singer_id",
        // Build-side selection both ways round (small ⋈ large, large ⋈ small).
        "SELECT album.title FROM album JOIN concert ON album.singer_id = concert.singer_id",
        "SELECT album.title FROM concert JOIN album ON album.singer_id = concert.singer_id",
        // Empty build/probe sides.
        "SELECT note FROM nobody JOIN singer ON nobody.nid = singer.id",
        "SELECT note FROM singer JOIN nobody ON nobody.nid = singer.id",
        // Residual conjunct errors must fire per matched pair, in order.
        "SELECT name FROM singer JOIN concert ON singer.id = concert.singer_id AND concert.city + 1 > 0",
        // DISTINCT float canonicalization: -0.0/0.0 fold, 1e15 boundary.
        "SELECT DISTINCT net FROM singer",
        "SELECT DISTINCT net / 1 FROM singer",
        // ORDER BY alias after wildcard (positional-quirk replication).
        "SELECT *, age AS k FROM singer ORDER BY k",
        "SELECT age AS k, * FROM singer ORDER BY k DESC",
        // Aggregates over NULLs, empty groups, DISTINCT aggregates.
        "SELECT COUNT(age), COUNT(*), SUM(net), AVG(age), MIN(name), MAX(net) FROM singer",
        "SELECT COUNT(DISTINCT country) FROM singer",
        "SELECT SUM(nid) FROM nobody",
        "SELECT country, COUNT(*) FROM singer GROUP BY country HAVING COUNT(*) > 1",
        "SELECT COUNT(*), * FROM singer",
        // Scalar subqueries: empty → NULL, aggregate over empty table.
        "SELECT name FROM singer WHERE age = (SELECT MAX(nid) FROM nobody)",
        "SELECT name FROM singer WHERE age > (SELECT AVG(year) FROM concert)",
        // IN subquery with NULLs in the probe and the list.
        "SELECT name FROM singer WHERE age IN (SELECT singer_id FROM concert)",
        "SELECT name FROM singer WHERE age NOT IN (SELECT singer_id FROM concert)",
        "SELECT cid FROM concert WHERE singer_id IN (SELECT id FROM singer)",
        // Subquery with its own error, evaluated lazily per row.
        "SELECT name FROM singer WHERE age IN (SELECT nope FROM concert)",
        "SELECT name FROM singer WHERE 1 = 0 AND age IN (SELECT nope FROM concert)",
        // Arithmetic type errors: message parity matters to the repair RNG.
        "SELECT name + 1 FROM singer",
        "SELECT net / 0 FROM singer",
        "SELECT net / 0.0 FROM singer",
        // LIKE edge patterns.
        "SELECT name FROM singer WHERE name LIKE '%'",
        "SELECT name FROM singer WHERE name LIKE ''",
        "SELECT name FROM singer WHERE country LIKE 'u__'",
        // BETWEEN with NULL bounds.
        "SELECT name FROM singer WHERE age BETWEEN NULL AND 40",
        // Case-insensitive table lookup.
        "SELECT NAME FROM SINGER WHERE COUNTRY = 'usa'",
    ];
    for sql in cases {
        if let Err(e) = check(&db, &pdb, sql) {
            panic!("directed case failed: {e}");
        }
    }
}

/// The compiled path is deterministic: two separately prepared databases
/// produce byte-identical results (symbol assignment must never leak into
/// observable output).
#[test]
fn prepared_execution_is_deterministic() {
    let db = diff_db();
    let pdb1 = PreparedDb::prepare(&db);
    let pdb2 = PreparedDb::prepare(&db);
    let mut state = 0xD1FFu64;
    for _ in 0..64 {
        let sql = any_query(&mut state);
        let a = execute(&pdb1, &sql);
        let b = execute(&pdb2, &sql);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "nondeterministic on: {sql}");
    }
}
