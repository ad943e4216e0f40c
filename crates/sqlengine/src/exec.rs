//! The tuple-at-a-time interpreter: the differential oracle for
//! [`mod@crate::compile`].
//!
//! It resolves names per row and nested-loops every join — slow and
//! obviously right, which is its whole job. Nothing serves or evaluates
//! through it: `tests/differential.rs`, the eval crate's engine-parity
//! suite and this module's own directed tests call [`interpret`] and hold
//! the compiled engine to identical `ResultSet`s and identical errors.
//!
//! Supported: inner joins (nested loop), WHERE, GROUP BY + aggregates,
//! HAVING, ORDER BY, LIMIT, DISTINCT, uncorrelated scalar/IN subqueries.
//! Semantics follow SQLite where they matter for execution-accuracy
//! comparison (NULL-skipping aggregates, case-insensitive LIKE, empty scalar
//! subquery → NULL).

use std::collections::HashSet;

use crate::ast::{AggFunc, BinOp, Expr, OrderKey, Projection, Select, SortDir};
use crate::compile::ResultSet;
use crate::error::EngineError;
use crate::parser::parse_select;
use crate::storage::Database;
use crate::value::Value;

/// Parse and interpret a SELECT statement: the reference result the
/// compiled engine must reproduce.
pub fn interpret(db: &Database, sql: &str) -> Result<ResultSet, EngineError> {
    interpret_select(db, &parse_select(sql)?)
}

/// Subqueries recurse here, so a reference result never touches the
/// compiled engine.
fn interpret_select(db: &Database, sel: &Select) -> Result<ResultSet, EngineError> {
    // Resolve scope: one binding per FROM/JOIN table.
    let mut scope = Scope { bindings: Vec::new() };
    scope.bind(db, &sel.from)?;
    let mut rows: Vec<Vec<Value>> = {
        let t = db
            .table(&sel.from.table)
            .ok_or_else(|| EngineError::UnknownTable { table: sel.from.table.clone() })?;
        t.rows.clone()
    };
    for join in &sel.joins {
        scope.bind(db, &join.table)?;
        let jt = db
            .table(&join.table.table)
            .ok_or_else(|| EngineError::UnknownTable { table: join.table.table.clone() })?;
        let mut next = Vec::new();
        for left in &rows {
            for right in &jt.rows {
                let mut combined = left.clone();
                combined.extend(right.iter().cloned());
                let keep = eval(&join.on, &combined, &scope, db, None)?.is_truthy();
                if keep {
                    next.push(combined);
                }
            }
        }
        rows = next;
    }

    // WHERE
    if let Some(w) = &sel.where_clause {
        let mut kept = Vec::with_capacity(rows.len());
        for row in rows {
            if eval(w, &row, &scope, db, None)?.is_truthy() {
                kept.push(row);
            }
        }
        rows = kept;
    }

    let aggregated = !sel.group_by.is_empty()
        || sel.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate(),
            Projection::Wildcard => false,
        })
        || sel.having.as_ref().is_some_and(Expr::contains_aggregate)
        || sel.order_by.iter().any(|o| o.expr.contains_aggregate());

    let (columns, mut out_rows, sort_keys) = if aggregated {
        project_grouped(sel, &rows, &scope, db)?
    } else {
        project_flat(sel, &rows, &scope, db)?
    };

    // ORDER BY (sort keys were computed in the right context already)
    if !sel.order_by.is_empty() {
        let mut order: Vec<usize> = (0..out_rows.len()).collect();
        order.sort_by(|&a, &b| {
            for (ki, key) in sel.order_by.iter().enumerate() {
                let va = &sort_keys[a][ki];
                let vb = &sort_keys[b][ki];
                let ord = va.total_cmp(vb);
                let ord = match key.dir {
                    SortDir::Asc => ord,
                    SortDir::Desc => ord.reverse(),
                };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        apply_permutation(&mut out_rows, &order);
    }

    // DISTINCT
    if sel.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|r| seen.insert(canon_row(r)));
    }

    // LIMIT
    if let Some(n) = sel.limit {
        out_rows.truncate(n);
    }

    Ok(ResultSet { columns, rows: out_rows })
}

/// Reorder `rows` so that `rows[k]` becomes the old `rows[perm[k]]`,
/// in place via cycle decomposition — no take-and-collect shuffle, no
/// second row vector.
fn apply_permutation<T>(rows: &mut [T], perm: &[usize]) {
    debug_assert_eq!(rows.len(), perm.len());
    let mut perm = perm.to_vec();
    for start in 0..perm.len() {
        if perm[start] == usize::MAX {
            continue; // already placed by an earlier cycle
        }
        let mut i = start;
        loop {
            let src = perm[i];
            perm[i] = usize::MAX;
            if src == start {
                break;
            }
            rows.swap(i, src);
            i = src;
        }
    }
}

// ---------------------------------------------------------------------------
// Scope & resolution
// ---------------------------------------------------------------------------

struct Binding {
    name: String,
    columns: Vec<String>,
    offset: usize,
}

struct Scope {
    bindings: Vec<Binding>,
}

impl Scope {
    fn bind(&mut self, db: &Database, tref: &crate::ast::TableRef) -> Result<(), EngineError> {
        if let Some(dbname) = &tref.database {
            if !dbname.eq_ignore_ascii_case(&db.name) {
                return Err(EngineError::WrongDatabase {
                    expected: db.name.clone(),
                    got: dbname.clone(),
                });
            }
        }
        let t = db
            .table(&tref.table)
            .ok_or_else(|| EngineError::UnknownTable { table: tref.table.clone() })?;
        let offset = self.width();
        self.bindings.push(Binding {
            name: tref.binding().to_string(),
            columns: t.schema.columns.iter().map(|c| c.name.clone()).collect(),
            offset,
        });
        Ok(())
    }

    fn width(&self) -> usize {
        self.bindings.last().map(|b| b.offset + b.columns.len()).unwrap_or(0)
    }

    /// Resolve `[qualifier.]column` to a flat row index.
    fn resolve(&self, qualifier: Option<&str>, column: &str) -> Result<usize, EngineError> {
        match qualifier {
            Some(q) => {
                let b = self
                    .bindings
                    .iter()
                    .find(|b| b.name.eq_ignore_ascii_case(q))
                    .ok_or_else(|| EngineError::UnknownTable { table: q.to_string() })?;
                let idx =
                    b.columns.iter().position(|c| c.eq_ignore_ascii_case(column)).ok_or_else(
                        || EngineError::UnknownColumn { column: format!("{q}.{column}") },
                    )?;
                Ok(b.offset + idx)
            }
            None => {
                let mut found = None;
                for b in &self.bindings {
                    if let Some(idx) = b.columns.iter().position(|c| c.eq_ignore_ascii_case(column))
                    {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn { column: column.into() });
                        }
                        found = Some(b.offset + idx);
                    }
                }
                found.ok_or_else(|| EngineError::UnknownColumn { column: column.into() })
            }
        }
    }

    /// All columns with their flat indices (for `SELECT *`).
    fn all_columns(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for b in &self.bindings {
            for (i, c) in b.columns.iter().enumerate() {
                out.push((c.clone(), b.offset + i));
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Projection
// ---------------------------------------------------------------------------

type Projected = (Vec<String>, Vec<Vec<Value>>, Vec<Vec<Value>>);

pub(crate) fn projection_name(p: &Projection, i: usize) -> String {
    match p {
        Projection::Wildcard => "*".into(),
        Projection::Expr { alias: Some(a), .. } => a.clone(),
        Projection::Expr { expr: Expr::Column { column, .. }, .. } => column.clone(),
        _ => format!("col{i}"),
    }
}

fn project_flat(
    sel: &Select,
    rows: &[Vec<Value>],
    scope: &Scope,
    db: &Database,
) -> Result<Projected, EngineError> {
    let mut columns = Vec::new();
    for (i, p) in sel.projections.iter().enumerate() {
        match p {
            Projection::Wildcard => {
                for (name, _) in scope.all_columns() {
                    columns.push(name);
                }
            }
            _ => columns.push(projection_name(p, i)),
        }
    }
    let alias_map = alias_exprs(sel);
    let mut out = Vec::with_capacity(rows.len());
    let mut keys = Vec::with_capacity(rows.len());
    for row in rows {
        let mut vals = Vec::with_capacity(columns.len());
        for p in &sel.projections {
            match p {
                Projection::Wildcard => {
                    for (_, idx) in scope.all_columns() {
                        vals.push(row[idx].clone());
                    }
                }
                Projection::Expr { expr, .. } => vals.push(eval(expr, row, scope, db, None)?),
            }
        }
        let mut krow = Vec::with_capacity(sel.order_by.len());
        for key in &sel.order_by {
            krow.push(eval_order_key(key, row, scope, db, None, &alias_map, &vals, sel)?);
        }
        out.push(vals);
        keys.push(krow);
    }
    Ok((columns, out, keys))
}

fn project_grouped(
    sel: &Select,
    rows: &[Vec<Value>],
    scope: &Scope,
    db: &Database,
) -> Result<Projected, EngineError> {
    // Group rows by the GROUP BY key (empty key = single global group).
    let mut groups: Vec<(Vec<Value>, Vec<Vec<Value>>)> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for row in rows {
        let mut key = Vec::with_capacity(sel.group_by.len());
        for g in &sel.group_by {
            key.push(eval(g, row, scope, db, None)?);
        }
        let ck = canon_row(&key);
        match index.get(&ck) {
            Some(&gi) => groups[gi].1.push(row.clone()),
            None => {
                index.insert(ck, groups.len());
                groups.push((key, vec![row.clone()]));
            }
        }
    }
    // A global aggregate over zero rows still yields one output row
    // (e.g. `SELECT COUNT(*) FROM empty` → 0).
    if groups.is_empty() && sel.group_by.is_empty() {
        groups.push((Vec::new(), Vec::new()));
    }

    let mut columns = Vec::new();
    for (i, p) in sel.projections.iter().enumerate() {
        match p {
            Projection::Wildcard => {
                return Err(EngineError::Unsupported {
                    feature: "SELECT * with GROUP BY/aggregates".into(),
                })
            }
            _ => columns.push(projection_name(p, i)),
        }
    }

    let alias_map = alias_exprs(sel);
    let mut out = Vec::new();
    let mut keys = Vec::new();
    for (_, grows) in &groups {
        if let Some(h) = &sel.having {
            if !eval(h, first_or_empty(grows), scope, db, Some(grows))?.is_truthy() {
                continue;
            }
        }
        let mut vals = Vec::with_capacity(columns.len());
        for p in &sel.projections {
            if let Projection::Expr { expr, .. } = p {
                vals.push(eval(expr, first_or_empty(grows), scope, db, Some(grows))?);
            }
        }
        let mut krow = Vec::with_capacity(sel.order_by.len());
        for key in &sel.order_by {
            krow.push(eval_order_key(
                key,
                first_or_empty(grows),
                scope,
                db,
                Some(grows),
                &alias_map,
                &vals,
                sel,
            )?);
        }
        out.push(vals);
        keys.push(krow);
    }
    Ok((columns, out, keys))
}

fn first_or_empty(rows: &[Vec<Value>]) -> &[Value] {
    rows.first().map(|r| r.as_slice()).unwrap_or(&[])
}

/// Map projection aliases to their positions so ORDER BY can reference them.
pub(crate) fn alias_exprs(sel: &Select) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    for p in &sel.projections {
        match p {
            Projection::Wildcard => pos += 1, // widths differ, but aliases never point here
            Projection::Expr { alias, .. } => {
                if let Some(a) = alias {
                    out.push((a.clone(), pos));
                }
                pos += 1;
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn eval_order_key(
    key: &OrderKey,
    row: &[Value],
    scope: &Scope,
    db: &Database,
    group: Option<&Vec<Vec<Value>>>,
    alias_map: &[(String, usize)],
    projected: &[Value],
    _sel: &Select,
) -> Result<Value, EngineError> {
    // ORDER BY <alias> refers to the projected value.
    if let Expr::Column { table: None, column } = &key.expr {
        if let Some((_, pos)) = alias_map.iter().find(|(a, _)| a.eq_ignore_ascii_case(column)) {
            if let Some(v) = projected.get(*pos) {
                return Ok(v.clone());
            }
        }
    }
    eval(&key.expr, row, scope, db, group.map(|g| g.as_slice()))
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

/// Evaluate an expression.
///
/// `group`: when `Some`, aggregate calls evaluate over these rows and plain
/// columns read from the representative `row`.
fn eval(
    expr: &Expr,
    row: &[Value],
    scope: &Scope,
    db: &Database,
    group: Option<&[Vec<Value>]>,
) -> Result<Value, EngineError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column { table, column } => {
            let idx = scope.resolve(table.as_deref(), column)?;
            row.get(idx).cloned().ok_or_else(|| EngineError::Eval {
                message: format!("row too narrow for column {column}"),
            })
        }
        Expr::Binary { op, left, right } => {
            let l = eval(left, row, scope, db, group)?;
            match op {
                BinOp::And => {
                    if !l.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                    let r = eval(right, row, scope, db, group)?;
                    Ok(Value::Bool(r.is_truthy()))
                }
                BinOp::Or => {
                    if l.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                    let r = eval(right, row, scope, db, group)?;
                    Ok(Value::Bool(r.is_truthy()))
                }
                _ => {
                    let r = eval(right, row, scope, db, group)?;
                    eval_binop(*op, &l, &r)
                }
            }
        }
        Expr::Not(e) => {
            let v = eval(e, row, scope, db, group)?;
            Ok(Value::Bool(!v.is_truthy()))
        }
        Expr::Neg(e) => {
            let v = eval(e, row, scope, db, group)?;
            match v {
                Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                Value::Float(f) => Ok(Value::Float(-f)),
                Value::Null => Ok(Value::Null),
                other => Err(EngineError::Eval { message: format!("cannot negate {other}") }),
            }
        }
        Expr::IsNull { expr, negated } => {
            let v = eval(expr, row, scope, db, group)?;
            Ok(Value::Bool(v.is_null() != *negated))
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval(expr, row, scope, db, group)?;
            match v {
                Value::Text(s) => {
                    let m = like_match(pattern, &s);
                    Ok(Value::Bool(m != *negated))
                }
                Value::Null => Ok(Value::Bool(false)),
                other => Err(EngineError::Eval { message: format!("LIKE on non-text {other}") }),
            }
        }
        Expr::Between { expr, low, high } => {
            let v = eval(expr, row, scope, db, group)?;
            let lo = eval(low, row, scope, db, group)?;
            let hi = eval(high, row, scope, db, group)?;
            let ge = matches!(
                v.sql_cmp(&lo),
                Some(std::cmp::Ordering::Greater | std::cmp::Ordering::Equal)
            );
            let le = matches!(
                v.sql_cmp(&hi),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            Ok(Value::Bool(ge && le))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval(expr, row, scope, db, group)?;
            let mut found = false;
            for item in list {
                let iv = eval(item, row, scope, db, group)?;
                if v.sql_eq(&iv) {
                    found = true;
                    break;
                }
            }
            Ok(Value::Bool(found != *negated))
        }
        Expr::InSubquery { expr, subquery, negated } => {
            let v = eval(expr, row, scope, db, group)?;
            let rs = interpret_select(db, subquery)?;
            let found = rs.rows.iter().any(|r| r.first().is_some_and(|iv| v.sql_eq(iv)));
            Ok(Value::Bool(found != *negated))
        }
        Expr::ScalarSubquery(sub) => {
            let rs = interpret_select(db, sub)?;
            if rs.columns.len() != 1 {
                return Err(EngineError::ScalarSubquery {
                    rows: rs.rows.len(),
                    cols: rs.columns.len(),
                });
            }
            Ok(rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null))
        }
        Expr::Aggregate { func, arg, distinct } => {
            let rows = group.ok_or_else(|| EngineError::Eval {
                message: format!("aggregate {func} outside GROUP BY context"),
            })?;
            eval_aggregate(*func, arg.as_deref(), *distinct, rows, scope, db)
        }
    }
}

fn eval_binop(op: BinOp, l: &Value, r: &Value) -> Result<Value, EngineError> {
    use BinOp::*;
    match op {
        Eq => Ok(Value::Bool(l.sql_eq(r))),
        NotEq => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Bool(false));
            }
            Ok(Value::Bool(!l.sql_eq(r)))
        }
        Lt | LtEq | Gt | GtEq => {
            let ord = match l.sql_cmp(r) {
                Some(o) => o,
                None => return Ok(Value::Bool(false)),
            };
            let b = match op {
                Lt => ord == std::cmp::Ordering::Less,
                LtEq => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                GtEq => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            match (l, r) {
                // Wrapping keeps debug and release builds identical on
                // overflow (predicted SQL is adversarial input; a panic
                // here would take down a serving worker).
                (Value::Int(a), Value::Int(b)) if op != Div => Ok(Value::Int(match op {
                    Add => a.wrapping_add(*b),
                    Sub => a.wrapping_sub(*b),
                    Mul => a.wrapping_mul(*b),
                    _ => unreachable!(),
                })),
                _ => {
                    let (a, b) = match (l.as_f64(), r.as_f64()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(EngineError::Eval {
                                message: format!("arithmetic on non-numeric: {l} {op} {r}"),
                            })
                        }
                    };
                    let v = match op {
                        Add => a + b,
                        Sub => a - b,
                        Mul => a * b,
                        Div => {
                            if b == 0.0 {
                                return Ok(Value::Null);
                            }
                            a / b
                        }
                        _ => unreachable!(),
                    };
                    Ok(Value::Float(v))
                }
            }
        }
        And | Or => unreachable!("handled by eval"),
    }
}

fn eval_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    distinct: bool,
    rows: &[Vec<Value>],
    scope: &Scope,
    db: &Database,
) -> Result<Value, EngineError> {
    // COUNT(*) counts rows directly.
    if func == AggFunc::Count && arg.is_none() {
        return Ok(Value::Int(rows.len() as i64));
    }
    let arg =
        arg.ok_or_else(|| EngineError::Eval { message: format!("{func} requires an argument") })?;
    let mut vals = Vec::with_capacity(rows.len());
    for row in rows {
        let v = eval(arg, row, scope, db, None)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        vals.retain(|v| seen.insert(canon_value(v)));
    }
    match func {
        AggFunc::Count => Ok(Value::Int(vals.len() as i64)),
        AggFunc::Sum => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                let s: i64 = vals.iter().map(|v| if let Value::Int(i) = v { *i } else { 0 }).sum();
                Ok(Value::Int(s))
            } else {
                let mut s = 0.0;
                for v in &vals {
                    s += v.as_f64().ok_or_else(|| EngineError::Eval {
                        message: format!("SUM over non-numeric {v}"),
                    })?;
                }
                Ok(Value::Float(s))
            }
        }
        AggFunc::Avg => {
            if vals.is_empty() {
                return Ok(Value::Null);
            }
            let mut s = 0.0;
            for v in &vals {
                s += v.as_f64().ok_or_else(|| EngineError::Eval {
                    message: format!("AVG over non-numeric {v}"),
                })?;
            }
            Ok(Value::Float(s / vals.len() as f64))
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
                            Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// Case-insensitive SQL LIKE with `%` and `_` wildcards.
fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let t: Vec<char> = text.to_lowercase().chars().collect();
    like_rec(&p, &t)
}

pub(crate) fn like_rec(p: &[char], t: &[char]) -> bool {
    match p.first() {
        None => t.is_empty(),
        Some('%') => {
            // Greedy-or-empty: try all split points.
            (0..=t.len()).any(|i| like_rec(&p[1..], &t[i..]))
        }
        Some('_') => !t.is_empty() && like_rec(&p[1..], &t[1..]),
        Some(&c) => t.first() == Some(&c) && like_rec(&p[1..], &t[1..]),
    }
}

/// Canonical string key for a value (grouping / DISTINCT).
pub(crate) fn canon_value(v: &Value) -> String {
    match v {
        Value::Null => "∅".into(),
        Value::Bool(b) => format!("b:{b}"),
        Value::Int(i) => format!("n:{i}"),
        Value::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                format!("n:{}", *f as i64)
            } else {
                format!("f:{f:.9}")
            }
        }
        Value::Text(s) => format!("t:{s}"),
    }
}

/// Canonical string key for a row.
pub(crate) fn canon_row(row: &[Value]) -> String {
    let parts: Vec<String> = row.iter().map(canon_value).collect();
    parts.join("\u{1f}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{execute, PreparedDb};
    use crate::schema::{DatabaseSchema, TableSchema};
    use crate::value::DataType;

    /// A fixture database, as stored and as prepared for the compiled
    /// engine.
    struct Fixture {
        db: Database,
        prepared: PreparedDb,
    }

    impl Fixture {
        /// Run `sql` through both engines: the interpreter and the compiled
        /// path must return the same result set (the same columns, the same
        /// rows in the same order) or the same error text. Returns the
        /// compiled path's result.
        fn run(&self, sql: &str) -> Result<ResultSet, EngineError> {
            let interpreted = interpret(&self.db, sql);
            let compiled = execute(&self.prepared, sql);
            match (&interpreted, &compiled) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "results diverge on: {sql}")
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "errors diverge on: {sql}")
                }
                _ => panic!(
                    "one engine failed on {sql}\n  interpreted: {interpreted:?}\n  \
                     compiled: {compiled:?}"
                ),
            }
            compiled
        }
    }

    /// The paper's running example database (Example 1-2).
    fn concert_db() -> Fixture {
        let mut schema = DatabaseSchema::new("concert_singer");
        schema.add_table(
            TableSchema::new("singer")
                .column("singer_id", DataType::Int)
                .column("name", DataType::Text)
                .column("age", DataType::Int)
                .primary(0),
        );
        schema.add_table(
            TableSchema::new("concert")
                .column("concert_id", DataType::Int)
                .column("venue", DataType::Text)
                .column("year", DataType::Int)
                .primary(0),
        );
        schema.add_table(
            TableSchema::new("singer_in_concert")
                .column("singer_id", DataType::Int)
                .column("concert_id", DataType::Int)
                .foreign("singer_id", "singer", "singer_id")
                .foreign("concert_id", "concert", "concert_id"),
        );
        let mut db = Database::from_schema(&schema);
        for (id, name, age) in [(1, "Ann", 30), (2, "Bo", 42), (3, "Cy", 25), (4, "Di", 35)] {
            db.insert("singer", vec![Value::Int(id), Value::Text(name.into()), Value::Int(age)])
                .unwrap();
        }
        for (id, venue, year) in [(10, "Arena", 2014), (11, "Hall", 2014), (12, "Club", 2022)] {
            db.insert("concert", vec![Value::Int(id), Value::Text(venue.into()), Value::Int(year)])
                .unwrap();
        }
        for (s, c) in [(1, 10), (2, 10), (1, 11), (3, 12)] {
            db.insert("singer_in_concert", vec![Value::Int(s), Value::Int(c)]).unwrap();
        }
        let prepared = PreparedDb::prepare(&db);
        Fixture { db, prepared }
    }

    #[test]
    fn select_star() {
        let db = concert_db();
        let rs = db.run("SELECT * FROM singer").unwrap();
        assert_eq!(rs.columns, vec!["singer_id", "name", "age"]);
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn where_filter() {
        let db = concert_db();
        let rs = db.run("SELECT name FROM singer WHERE age > 30").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn paper_example2_join() {
        let db = concert_db();
        let rs = db
            .run(
                "SELECT s.name FROM singer_in_concert AS sc \
             JOIN singer AS s ON sc.singer_id = s.singer_id \
             JOIN concert AS c ON sc.concert_id = c.concert_id \
             WHERE c.year = 2014",
            )
            .unwrap();
        let mut names: Vec<String> = rs
            .rows
            .iter()
            .map(|r| match &r[0] {
                Value::Text(s) => s.clone(),
                other => panic!("{other:?}"),
            })
            .collect();
        names.sort();
        assert_eq!(names, vec!["Ann", "Ann", "Bo"]);
    }

    #[test]
    fn group_by_count_order() {
        let db = concert_db();
        let rs = db
            .run(
                "SELECT venue, COUNT(*) AS n FROM concert \
             JOIN singer_in_concert AS sc ON concert.concert_id = sc.concert_id \
             GROUP BY venue ORDER BY n DESC LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert!(rs.rows[0][0].sql_eq(&Value::Text("Arena".into())));
        assert!(rs.rows[0][1].sql_eq(&Value::Int(2)));
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let db = concert_db();
        let rs = db.run("SELECT COUNT(*) FROM singer WHERE age > 100").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert!(rs.rows[0][0].sql_eq(&Value::Int(0)));
    }

    #[test]
    fn scalar_subquery_max() {
        let db = concert_db();
        let rs =
            db.run("SELECT name FROM singer WHERE age = (SELECT MAX(age) FROM singer)").unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert!(rs.rows[0][0].sql_eq(&Value::Text("Bo".into())));
    }

    #[test]
    fn in_subquery() {
        let db = concert_db();
        let rs = db
            .run(
                "SELECT name FROM singer WHERE singer_id IN \
             (SELECT singer_id FROM singer_in_concert WHERE concert_id = 10)",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn distinct_dedups() {
        let db = concert_db();
        let rs = db.run("SELECT DISTINCT year FROM concert").unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn having_filters_groups() {
        let db = concert_db();
        let rs = db
            .run(
                "SELECT concert_id FROM singer_in_concert GROUP BY concert_id HAVING COUNT(*) >= 2",
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        assert!(rs.rows[0][0].sql_eq(&Value::Int(10)));
    }

    #[test]
    fn order_by_text_asc() {
        let db = concert_db();
        let rs = db.run("SELECT name FROM singer ORDER BY name ASC").unwrap();
        assert!(rs.rows[0][0].sql_eq(&Value::Text("Ann".into())));
        assert!(rs.rows[3][0].sql_eq(&Value::Text("Di".into())));
    }

    #[test]
    fn db_qualified_tables_allowed() {
        let db = concert_db();
        let rs = db.run("SELECT name FROM concert_singer.singer WHERE age < 30").unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn wrong_database_qualifier_fails() {
        let db = concert_db();
        let err = db.run("SELECT * FROM other_db.singer").unwrap_err();
        assert!(matches!(err, EngineError::WrongDatabase { .. }));
    }

    #[test]
    fn unknown_table_fails() {
        let db = concert_db();
        assert!(matches!(
            db.run("SELECT * FROM nonexistent"),
            Err(EngineError::UnknownTable { .. })
        ));
    }

    #[test]
    fn unknown_column_fails() {
        let db = concert_db();
        assert!(matches!(
            db.run("SELECT bogus FROM singer"),
            Err(EngineError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn ambiguous_column_fails() {
        let db = concert_db();
        let err = db
            .run(
                "SELECT singer_id FROM singer JOIN singer_in_concert \
             ON singer.singer_id = singer_in_concert.singer_id",
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::AmbiguousColumn { .. }));
    }

    #[test]
    fn like_patterns() {
        let db = concert_db();
        let rs = db.run("SELECT name FROM singer WHERE name LIKE 'a%'").unwrap();
        assert_eq!(rs.rows.len(), 1); // Ann, case-insensitive
        let rs = db.run("SELECT name FROM singer WHERE name LIKE '__'").unwrap();
        assert_eq!(rs.rows.len(), 3); // Bo, Cy, Di
    }

    #[test]
    fn arithmetic_and_division() {
        let db = concert_db();
        let rs = db.run("SELECT age * 2 FROM singer WHERE singer_id = 1").unwrap();
        assert!(rs.rows[0][0].sql_eq(&Value::Int(60)));
        let rs = db.run("SELECT age / 0 FROM singer WHERE singer_id = 1").unwrap();
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn avg_and_sum() {
        let db = concert_db();
        let rs = db.run("SELECT AVG(age), SUM(age) FROM singer").unwrap();
        assert!(rs.rows[0][0].sql_eq(&Value::Float(33.0)));
        assert!(rs.rows[0][1].sql_eq(&Value::Int(132)));
    }

    #[test]
    fn count_distinct() {
        let db = concert_db();
        let rs = db.run("SELECT COUNT(DISTINCT singer_id) FROM singer_in_concert").unwrap();
        assert!(rs.rows[0][0].sql_eq(&Value::Int(3)));
    }

    #[test]
    fn between() {
        let db = concert_db();
        let rs = db.run("SELECT name FROM singer WHERE age BETWEEN 25 AND 35").unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn order_by_alias() {
        let db = concert_db();
        let rs = db
            .run("SELECT name, age * 2 AS doubled FROM singer ORDER BY doubled DESC LIMIT 1")
            .unwrap();
        assert!(rs.rows[0][0].sql_eq(&Value::Text("Bo".into())));
    }
}
