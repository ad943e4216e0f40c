//! SQL rendering: turn an AST back into SQL text.
//!
//! Round-trips with the parser (`parse(render(ast))` is semantically
//! identical), which the cross-crate property tests verify. Used by tools
//! that manipulate queries programmatically and by diagnostics.

use std::fmt::Write;

use crate::ast::{BinOp, Expr, OrderKey, Projection, Select, SortDir, TableRef};
use crate::value::Value;

/// Render a SELECT statement as SQL text.
pub fn render_select(sel: &Select) -> String {
    let mut out = String::from("SELECT ");
    if sel.distinct {
        out.push_str("DISTINCT ");
    }
    let projs: Vec<String> = sel.projections.iter().map(render_projection).collect();
    out.push_str(&projs.join(", "));
    out.push_str(" FROM ");
    out.push_str(&render_table_ref(&sel.from));
    for j in &sel.joins {
        write!(out, " JOIN {} ON {}", render_table_ref(&j.table), render_expr(&j.on)).unwrap();
    }
    if let Some(w) = &sel.where_clause {
        write!(out, " WHERE {}", render_expr(w)).unwrap();
    }
    if !sel.group_by.is_empty() {
        let keys: Vec<String> = sel.group_by.iter().map(render_expr).collect();
        write!(out, " GROUP BY {}", keys.join(", ")).unwrap();
    }
    if let Some(h) = &sel.having {
        write!(out, " HAVING {}", render_expr(h)).unwrap();
    }
    if !sel.order_by.is_empty() {
        let keys: Vec<String> = sel.order_by.iter().map(render_order_key).collect();
        write!(out, " ORDER BY {}", keys.join(", ")).unwrap();
    }
    if let Some(n) = sel.limit {
        write!(out, " LIMIT {n}").unwrap();
    }
    out
}

fn render_projection(p: &Projection) -> String {
    match p {
        Projection::Wildcard => "*".to_string(),
        Projection::Expr { expr, alias: Some(a) } => format!("{} AS {}", render_expr(expr), a),
        Projection::Expr { expr, alias: None } => render_expr(expr),
    }
}

fn render_table_ref(t: &TableRef) -> String {
    let base = match &t.database {
        Some(db) => format!("{db}.{}", t.table),
        None => t.table.clone(),
    };
    match &t.alias {
        Some(a) => format!("{base} AS {a}"),
        None => base,
    }
}

fn render_order_key(k: &OrderKey) -> String {
    let dir = match k.dir {
        SortDir::Asc => "ASC",
        SortDir::Desc => "DESC",
    };
    format!("{} {}", render_expr(&k.expr), dir)
}

fn render_value(v: &Value) -> String {
    match v {
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
        other => other.to_string(),
    }
}

/// Render an expression (fully parenthesized where precedence matters).
pub fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Column { table: Some(t), column } => format!("{t}.{column}"),
        Expr::Column { table: None, column } => column.clone(),
        Expr::Literal(v) => render_value(v),
        Expr::Binary { op, left, right } => {
            let l = render_expr(left);
            let r = render_expr(right);
            match op {
                BinOp::And | BinOp::Or => format!("({l} {op} {r})"),
                _ => format!("({l} {op} {r})"),
            }
        }
        Expr::Not(x) => format!("NOT ({})", render_expr(x)),
        Expr::Neg(x) => format!("-({})", render_expr(x)),
        Expr::IsNull { expr, negated } => {
            format!("{} IS {}NULL", render_expr(expr), if *negated { "NOT " } else { "" })
        }
        Expr::Like { expr, pattern, negated } => format!(
            "{} {}LIKE '{}'",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            pattern.replace('\'', "''")
        ),
        Expr::Between { expr, low, high } => {
            format!("{} BETWEEN {} AND {}", render_expr(expr), render_expr(low), render_expr(high))
        }
        Expr::InList { expr, list, negated } => {
            let items: Vec<String> = list.iter().map(render_expr).collect();
            format!(
                "{} {}IN ({})",
                render_expr(expr),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        Expr::InSubquery { expr, subquery, negated } => format!(
            "{} {}IN ({})",
            render_expr(expr),
            if *negated { "NOT " } else { "" },
            render_select(subquery)
        ),
        Expr::ScalarSubquery(s) => format!("({})", render_select(s)),
        Expr::Aggregate { func, arg: None, .. } => format!("{func}(*)"),
        Expr::Aggregate { func, arg: Some(a), distinct } => {
            format!("{func}({}{})", if *distinct { "DISTINCT " } else { "" }, render_expr(a))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_select;

    fn roundtrip(sql: &str) -> String {
        let ast = parse_select(sql).expect("parse input");
        let rendered = render_select(&ast);
        parse_select(&rendered).unwrap_or_else(|e| panic!("reparse {rendered:?}: {e}"));
        rendered
    }

    #[test]
    fn roundtrip_simple() {
        let r = roundtrip("SELECT name FROM singer WHERE age > 30");
        assert!(r.contains("WHERE (age > 30)"));
    }

    #[test]
    fn roundtrip_join_group() {
        roundtrip(
            "SELECT s.name, COUNT(*) AS n FROM singer AS s \
             JOIN concert AS c ON s.id = c.id \
             WHERE c.year = 2014 GROUP BY s.name HAVING COUNT(*) > 2 \
             ORDER BY n DESC LIMIT 3",
        );
    }

    #[test]
    fn roundtrip_subqueries() {
        roundtrip(
            "SELECT name FROM t WHERE x IN (SELECT y FROM u) \
             AND z = (SELECT MAX(z) FROM t)",
        );
    }

    #[test]
    fn roundtrip_escaping() {
        let r = roundtrip("SELECT name FROM t WHERE a = 'it''s'");
        assert!(r.contains("'it''s'"));
    }

    #[test]
    fn roundtrip_distinct_between_like() {
        roundtrip(
            "SELECT DISTINCT a FROM t WHERE b BETWEEN 1 AND 5 AND name LIKE '%x%' \
             AND c IS NOT NULL AND d NOT IN (1, 2)",
        );
    }

    #[test]
    fn rendered_sql_executes_identically() {
        use crate::schema::{DatabaseSchema, TableSchema};
        use crate::storage::Database;
        use crate::value::DataType;
        let mut schema = DatabaseSchema::new("d");
        schema.add_table(
            TableSchema::new("t").column("a", DataType::Int).column("b", DataType::Text),
        );
        let mut db = Database::from_schema(&schema);
        for i in 0..10 {
            db.insert("t", vec![Value::Int(i), Value::Text(format!("x{i}"))]).unwrap();
        }
        let sql = "SELECT b FROM t WHERE a > 4 ORDER BY b DESC LIMIT 3";
        let rendered = render_select(&parse_select(sql).unwrap());
        let pdb = crate::compile::PreparedDb::prepare(&db);
        assert!(crate::compare::execution_match(&pdb, sql, &rendered).is_match());
    }
}
