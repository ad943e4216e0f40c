//! Abstract syntax tree for the supported SQL subset.
//!
//! The subset covers what the synthetic workloads and the paper's example
//! queries need: single-`SELECT` statements with inner joins, WHERE, GROUP
//! BY/HAVING, ORDER BY, LIMIT, DISTINCT, aggregates, and uncorrelated scalar
//! / IN subqueries.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        };
        write!(f, "{s}")
    }
}

/// Expressions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Expr {
    /// Column reference, optionally qualified: `[table.]column`.
    Column {
        table: Option<String>,
        column: String,
    },
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    Neg(Box<Expr>),
    /// `expr IS NULL` / `expr IS NOT NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    /// `expr LIKE 'pattern'` with `%`/`_` wildcards.
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    /// `expr BETWEEN low AND high`.
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
    },
    /// `expr IN (v1, v2, …)` or `expr IN (SELECT …)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<Select>,
        negated: bool,
    },
    /// `(SELECT …)` producing a single value.
    ScalarSubquery(Box<Select>),
    /// Aggregate call; `arg = None` encodes `COUNT(*)`.
    Aggregate {
        func: AggFunc,
        arg: Option<Box<Expr>>,
        distinct: bool,
    },
}

impl Expr {
    pub fn col(name: &str) -> Expr {
        Expr::Column { table: None, column: name.to_string() }
    }

    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }

    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary { op, left: Box::new(l), right: Box::new(r) }
    }

    /// Does this expression (transitively) contain an aggregate call?
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Aggregate { .. } => true,
            Expr::Column { .. } | Expr::Literal(_) => false,
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::Not(e) | Expr::Neg(e) => e.contains_aggregate(),
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => expr.contains_aggregate(),
            Expr::Between { expr, low, high } => {
                expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::InSubquery { expr, .. } => expr.contains_aggregate(),
            Expr::ScalarSubquery(_) => false,
        }
    }

    /// Collect all referenced column names (unqualified) into `out`.
    pub fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Column { column, .. } => out.push(column),
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_columns(out),
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => expr.collect_columns(out),
            Expr::Between { expr, low, high } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                expr.collect_columns(out);
                subquery.collect_columns(out);
            }
            Expr::ScalarSubquery(s) => s.collect_columns(out),
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.collect_columns(out);
                }
            }
        }
    }
}

/// One projected column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Projection {
    /// `SELECT *`
    Wildcard,
    Expr {
        expr: Expr,
        alias: Option<String>,
    },
}

/// A table reference in FROM/JOIN with an optional alias.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableRef {
    /// Optional database qualifier (`db.table`), checked against the target
    /// database at execution time.
    pub database: Option<String>,
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    /// Name the reference binds to in scope: alias if present, else table.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An inner join clause.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Join {
    pub table: TableRef,
    pub on: Expr,
}

/// ORDER BY direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortDir {
    Asc,
    Desc,
}

/// One ORDER BY key.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OrderKey {
    pub expr: Expr,
    pub dir: SortDir,
}

/// A SELECT statement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Select {
    pub distinct: bool,
    pub projections: Vec<Projection>,
    pub from: TableRef,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
}

impl Select {
    fn collect_columns<'a>(&'a self, out: &mut Vec<&'a str>) {
        for p in &self.projections {
            if let Projection::Expr { expr, .. } = p {
                expr.collect_columns(out);
            }
        }
        for j in &self.joins {
            j.on.collect_columns(out);
        }
        if let Some(w) = &self.where_clause {
            w.collect_columns(out);
        }
        for g in &self.group_by {
            g.collect_columns(out);
        }
        if let Some(h) = &self.having {
            h.collect_columns(out);
        }
        for o in &self.order_by {
            o.expr.collect_columns(out);
        }
    }

    /// All referenced column names across the statement (including
    /// subqueries), lowercased and deduplicated.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut raw = Vec::new();
        self.collect_columns(&mut raw);
        let mut out: Vec<String> = raw.iter().map(|c| c.to_ascii_lowercase()).collect();
        let mut subs = Vec::new();
        if let Some(w) = &self.where_clause {
            find_subqueries(w, &mut subs);
        }
        if let Some(h) = &self.having {
            find_subqueries(h, &mut subs);
        }
        for s in subs {
            out.extend(s.referenced_columns());
        }
        out.sort();
        out.dedup();
        out
    }
}

/// Collect nested subqueries of an expression.
fn find_subqueries<'a>(e: &'a Expr, out: &mut Vec<&'a Select>) {
    match e {
        Expr::InSubquery { subquery, .. } => out.push(subquery),
        Expr::ScalarSubquery(s) => out.push(s),
        Expr::Binary { left, right, .. } => {
            find_subqueries(left, out);
            find_subqueries(right, out);
        }
        Expr::Not(x) | Expr::Neg(x) => find_subqueries(x, out),
        Expr::Between { expr, low, high } => {
            find_subqueries(expr, out);
            find_subqueries(low, out);
            find_subqueries(high, out);
        }
        Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => find_subqueries(expr, out),
        Expr::InList { expr, list, .. } => {
            find_subqueries(expr, out);
            for e in list {
                find_subqueries(e, out);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn agg_parse() {
        assert_eq!(AggFunc::parse("count"), Some(AggFunc::Count));
        assert_eq!(AggFunc::parse("MAX"), Some(AggFunc::Max));
        assert_eq!(AggFunc::parse("median"), None);
    }

    #[test]
    fn contains_aggregate_walks_tree() {
        let e = Expr::bin(
            BinOp::Gt,
            Expr::Aggregate { func: AggFunc::Count, arg: None, distinct: false },
            Expr::lit(Value::Int(2)),
        );
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn table_ref_binding_prefers_alias() {
        let t = TableRef { database: None, table: "singer".into(), alias: Some("s".into()) };
        assert_eq!(t.binding(), "s");
        let t2 = TableRef { database: None, table: "singer".into(), alias: None };
        assert_eq!(t2.binding(), "singer");
    }
}
