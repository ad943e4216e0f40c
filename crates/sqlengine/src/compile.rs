//! Compiled query execution: compile once, run allocation-lean.
//!
//! The interpreter in [`crate::exec`] resolves column names per row, clones
//! whole tables up front, and materializes full cross-products for joins.
//! This module splits execution into a **compile** phase — every column
//! reference becomes a flat `(slot, column)` index, text payloads are
//! interned through the per-database [`Interner`], equality join predicates
//! are classified for hash joins — and a **run** phase that carries joined
//! rows as index tuples into the base tables until projection forces
//! materialization, with group/DISTINCT keys in flat per-query arenas.
//!
//! Semantics are mirrored from the interpreter exactly, including error
//! *messages* and error *timing*: the interpreter resolves columns lazily
//! per row (so `SELECT bogus FROM t WHERE false` succeeds), which compiled
//! execution reproduces with deferred `CExpr::Error` nodes that only fail
//! when actually evaluated. The differential proptest suite in
//! `tests/differential.rs` holds the two paths to identical `ResultSet`s
//! and identical errors.
//!
//! One deliberate non-goal: the interpreter keys groups on a joined string
//! (`canon_row`), where a text value containing `\u{1f}` can collide across
//! column boundaries. Compiled execution keys on structured `CKey` slices
//! and does not reproduce that collision.

use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::sync::OnceLock;

use crate::ast::{AggFunc, BinOp, Expr, Projection, Select, SortDir, TableRef};
use crate::error::EngineError;
use crate::intern::{Interner, Symbol};
use crate::parser::parse_select;
use crate::storage::{Database, Store};
use crate::value::Value;

// ---------------------------------------------------------------------------
// Compiled values
// ---------------------------------------------------------------------------

/// A runtime value in the compiled engine. Mirrors [`Value`] except that
/// text carries a shared `Arc<str>` payload plus its interner symbol when
/// the string is known to the database: two interned texts compare by a
/// single integer compare, and cloning is a refcount bump.
#[derive(Debug, Clone)]
pub(crate) enum CVal {
    Null,
    Int(i64),
    Float(f64),
    Bool(bool),
    Text(Option<Symbol>, Arc<str>),
}

impl CVal {
    pub fn is_null(&self) -> bool {
        matches!(self, CVal::Null)
    }

    /// Mirror of [`Value::as_f64`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            CVal::Int(i) => Some(*i as f64),
            CVal::Float(f) => Some(*f),
            CVal::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Mirror of [`Value::sql_eq`], with a symbol fast path for interned
    /// text: equal symbols from the same interner mean equal strings.
    pub fn sql_eq(&self, other: &CVal) -> bool {
        match (self, other) {
            (CVal::Null, _) | (_, CVal::Null) => false,
            (CVal::Text(sa, a), CVal::Text(sb, b)) => match (sa, sb) {
                (Some(x), Some(y)) => x == y,
                _ => Arc::ptr_eq(a, b) || a == b,
            },
            (CVal::Bool(a), CVal::Bool(b)) => a == b,
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            },
        }
    }

    /// Mirror of [`Value::sql_cmp`].
    pub fn sql_cmp(&self, other: &CVal) -> Option<Ordering> {
        match (self, other) {
            (CVal::Null, _) | (_, CVal::Null) => None,
            (CVal::Text(_, a), CVal::Text(_, b)) => {
                if Arc::ptr_eq(a, b) {
                    Some(Ordering::Equal)
                } else {
                    Some(a.cmp(b))
                }
            }
            (CVal::Bool(a), CVal::Bool(b)) => Some(a.cmp(b)),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => a.partial_cmp(&b),
                _ => None,
            },
        }
    }

    /// Mirror of [`Value::total_cmp`]: NULL < Bool < numbers < Text.
    pub fn total_cmp(&self, other: &CVal) -> Ordering {
        fn rank(v: &CVal) -> u8 {
            match v {
                CVal::Null => 0,
                CVal::Bool(_) => 1,
                CVal::Int(_) | CVal::Float(_) => 2,
                CVal::Text(..) => 3,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (CVal::Null, CVal::Null) => Ordering::Equal,
            (CVal::Bool(a), CVal::Bool(b)) => a.cmp(b),
            (CVal::Text(_, a), CVal::Text(_, b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            _ => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.partial_cmp(&b).unwrap_or(Ordering::Equal)
            }
        }
    }

    /// Mirror of [`Value::is_truthy`].
    pub fn is_truthy(&self) -> bool {
        match self {
            CVal::Bool(b) => *b,
            CVal::Int(i) => *i != 0,
            CVal::Float(f) => *f != 0.0,
            _ => false,
        }
    }
}

/// Display mirrors [`Value`]'s Display byte-for-byte: eval error messages
/// embed operand values, and the repair loop's RNG stream derives from the
/// error text, so the two engines must render identically.
impl std::fmt::Display for CVal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CVal::Null => write!(f, "NULL"),
            CVal::Int(i) => write!(f, "{i}"),
            CVal::Float(v) => write!(f, "{v}"),
            CVal::Text(_, s) => write!(f, "'{s}'"),
            CVal::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// Intern a stored value into the prepare-phase representation.
fn cval_intern(v: &Value, interner: &mut Interner) -> CVal {
    match v {
        Value::Null => CVal::Null,
        Value::Int(i) => CVal::Int(*i),
        Value::Float(f) => CVal::Float(*f),
        Value::Bool(b) => CVal::Bool(*b),
        Value::Text(s) => {
            let (sym, arc) = interner.intern(s);
            CVal::Text(Some(sym), arc)
        }
    }
}

/// Convert a value from outside the database (query literal, subquery
/// result) without growing the interner: a string the database knows gets
/// its symbol, anything else stays content-compared.
fn cval_lookup(v: &Value, interner: &Interner) -> CVal {
    match v {
        Value::Null => CVal::Null,
        Value::Int(i) => CVal::Int(*i),
        Value::Float(f) => CVal::Float(*f),
        Value::Bool(b) => CVal::Bool(*b),
        Value::Text(s) => match interner.lookup(s) {
            Some((sym, arc)) => CVal::Text(Some(sym), arc),
            None => CVal::Text(None, Arc::from(s.as_str())),
        },
    }
}

fn cval_to_value(v: &CVal) -> Value {
    match v {
        CVal::Null => Value::Null,
        CVal::Int(i) => Value::Int(*i),
        CVal::Float(f) => Value::Float(*f),
        CVal::Bool(b) => Value::Bool(*b),
        CVal::Text(_, s) => Value::Text(s.to_string()),
    }
}

// ---------------------------------------------------------------------------
// Canonical keys
// ---------------------------------------------------------------------------

/// Grouping / DISTINCT key with the same equivalence classes as the
/// interpreter's `canon_value` string — but hashable without formatting:
/// integral floats merge with ints (`5` groups with `5.0`), non-integral
/// floats key on their 9-digit rendering, text keys share the interned
/// payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CKey {
    Null,
    Bool(bool),
    Int(i64),
    Float(Box<str>),
    Text(Arc<str>),
}

pub(crate) fn ckey(v: &CVal) -> CKey {
    match v {
        CVal::Null => CKey::Null,
        CVal::Bool(b) => CKey::Bool(*b),
        CVal::Int(i) => CKey::Int(*i),
        CVal::Float(f) => {
            if f.fract() == 0.0 && f.abs() < 1e15 {
                CKey::Int(*f as i64)
            } else {
                CKey::Float(format!("{f:.9}").into())
            }
        }
        CVal::Text(_, s) => CKey::Text(Arc::clone(s)),
    }
}

/// Hash-join / IN-set key with the same equivalence classes as
/// [`Value::sql_eq`]: all numerics (bools included) collapse to f64 bits
/// with `-0.0` normalized, text keys by content. `None` means the value
/// can never compare equal to anything (NULL, NaN) and is excluded from
/// both build and probe sides.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum EqKey {
    Num(u64),
    Text(Arc<str>),
}

fn num_key(f: f64) -> Option<EqKey> {
    if f.is_nan() {
        return None;
    }
    let f = if f == 0.0 { 0.0 } else { f }; // -0.0 == 0.0 must share a bucket
    Some(EqKey::Num(f.to_bits()))
}

pub(crate) fn eq_key(v: &CVal) -> Option<EqKey> {
    match v {
        CVal::Null => None,
        CVal::Int(i) => num_key(*i as f64),
        CVal::Float(f) => num_key(*f),
        CVal::Bool(b) => num_key(if *b { 1.0 } else { 0.0 }),
        CVal::Text(_, s) => Some(EqKey::Text(Arc::clone(s))),
    }
}

fn value_eq_key(v: &Value, interner: &Interner) -> Option<EqKey> {
    eq_key(&cval_lookup(v, interner))
}

// ---------------------------------------------------------------------------
// Prepared databases
// ---------------------------------------------------------------------------

/// One table in prepared (interned, row-major flat) form.
#[derive(Debug, Clone)]
pub(crate) struct PreparedTable {
    name: String,
    columns: Vec<String>,
    cells: Vec<CVal>,
    width: usize,
    nrows: usize,
}

impl PreparedTable {
    #[inline]
    fn cell(&self, row: usize, col: usize) -> &CVal {
        &self.cells[row * self.width + col]
    }
}

/// A database in execution-ready form: every text payload interned once,
/// rows flattened. Build once with [`PreparedDb::prepare`] and reuse across
/// queries (the eval loops and the serving pipeline do).
#[derive(Debug, Clone)]
pub struct PreparedDb {
    pub name: String,
    tables: Vec<PreparedTable>,
    interner: Interner,
}

impl PreparedDb {
    /// Prepare every table (deterministic: tables in storage order, cells
    /// row-major, so symbol assignment is reproducible).
    pub fn prepare(db: &Database) -> PreparedDb {
        let mut interner = Interner::new();
        let mut tables = Vec::new();
        for (key, t) in &db.tables {
            interner.intern(key);
            let columns: Vec<String> = t.schema.columns.iter().map(|c| c.name.clone()).collect();
            for c in &columns {
                interner.intern(c);
            }
            let width = columns.len();
            let mut cells = Vec::with_capacity(t.rows.len() * width);
            for row in &t.rows {
                for v in row {
                    cells.push(cval_intern(v, &mut interner));
                }
            }
            tables.push(PreparedTable {
                name: key.clone(),
                columns,
                cells,
                width,
                nrows: t.rows.len(),
            });
        }
        PreparedDb { name: db.name.clone(), tables, interner }
    }

    /// Mirror of [`Database::table`]: exact name first, then the first
    /// case-insensitive match in storage order.
    fn lookup(&self, name: &str) -> Option<usize> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .or_else(|| self.tables.iter().position(|t| t.name.eq_ignore_ascii_case(name)))
    }
}

/// A [`Store`] paired with lazily-built [`PreparedDb`]s, one per database:
/// the first query against a database pays the prepare cost, later queries
/// (eval loops, repair rounds, served asks) reuse the interned tables.
#[derive(Debug, Default)]
pub struct PreparedStore {
    store: Store,
    prepared: std::collections::BTreeMap<String, OnceLock<PreparedDb>>,
}

impl Clone for PreparedStore {
    fn clone(&self) -> Self {
        // Prepared state is a cache; a clone re-prepares on demand.
        PreparedStore::new(self.store.clone())
    }
}

impl PreparedStore {
    pub fn new(store: Store) -> Self {
        let prepared = store.databases.keys().map(|k| (k.clone(), OnceLock::new())).collect();
        PreparedStore { store, prepared }
    }

    pub fn store(&self) -> &Store {
        &self.store
    }

    pub fn database(&self, name: &str) -> Option<&Database> {
        self.store.database(name)
    }

    /// The prepared form of a database, building it on first use.
    pub fn prepared(&self, name: &str) -> Option<&PreparedDb> {
        let cell = self.prepared.get(name)?;
        let db = self.store.database(name)?;
        Some(cell.get_or_init(|| PreparedDb::prepare(db)))
    }
}

// ---------------------------------------------------------------------------
// Compiled form
// ---------------------------------------------------------------------------

/// A compiled expression: every surviving column reference is a flat
/// `(slot, table, column)` index; resolution failures become deferred
/// [`CExpr::Error`] nodes that only fail when evaluated, matching the
/// interpreter's lazy per-row resolution.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Lit(CVal),
    Col { slot: u16, table: u16, col: u16, name: Box<str> },
    Error(EngineError),
    Binary { op: BinOp, left: Box<CExpr>, right: Box<CExpr> },
    Not(Box<CExpr>),
    Neg(Box<CExpr>),
    IsNull { expr: Box<CExpr>, negated: bool },
    Like { expr: Box<CExpr>, pattern: Vec<char>, negated: bool },
    Between { expr: Box<CExpr>, low: Box<CExpr>, high: Box<CExpr> },
    InList { expr: Box<CExpr>, list: Vec<CExpr>, negated: bool },
    InSub { expr: Box<CExpr>, sub: usize, negated: bool },
    ScalarSub(usize),
    Agg { func: AggFunc, arg: Option<Box<CExpr>>, distinct: bool },
}

/// One compiled join. `keys` is the maximal *prefix* of equality conjuncts
/// whose operands are provably error-free (bare columns / literals) with
/// one side on already-joined slots and the other on the new table — those
/// drive the hash table. The remaining conjuncts run as `residual` per
/// candidate pair, preserving the interpreter's left-to-right evaluation
/// order. When no usable prefix exists, `full_on` falls back to a nested
/// loop over the original predicate.
#[derive(Debug, Clone)]
pub(crate) struct CompiledJoin {
    table: usize,
    keys: Vec<(CExpr, CExpr)>,
    residual: Vec<CExpr>,
    full_on: Option<CExpr>,
}

#[derive(Debug, Clone)]
pub(crate) struct COrderKey {
    alias: Option<usize>,
    expr: CExpr,
    desc: bool,
}

/// A SELECT compiled against a [`PreparedDb`]: name resolution, literal
/// interning, join classification, and projection layout all done once.
#[derive(Debug, Clone)]
pub struct CompiledSelect {
    distinct: bool,
    limit: Option<usize>,
    from_table: usize,
    joins: Vec<CompiledJoin>,
    /// A JOIN clause that failed to bind (unknown table / wrong database).
    /// Earlier joins still run first — their evaluation errors outrank this
    /// one, exactly as in the interpreter.
    join_error: Option<EngineError>,
    filter: Option<CExpr>,
    aggregated: bool,
    group_by: Vec<CExpr>,
    having: Option<CExpr>,
    /// `SELECT *` under GROUP BY: unsupported, but only *after* group keys
    /// evaluate (the interpreter groups first, then rejects).
    wildcard_in_grouped: bool,
    columns: Vec<String>,
    projections: Vec<CExpr>,
    order_by: Vec<COrderKey>,
    subs: Vec<Result<CompiledSelect, EngineError>>,
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

struct CBinding {
    name: String,
    columns: Vec<String>,
    table: usize,
}

struct CScope {
    bindings: Vec<CBinding>,
}

impl CScope {
    fn bind(&mut self, pdb: &PreparedDb, tref: &TableRef) -> Result<(), EngineError> {
        if let Some(dbname) = &tref.database {
            if !dbname.eq_ignore_ascii_case(&pdb.name) {
                return Err(EngineError::WrongDatabase {
                    expected: pdb.name.clone(),
                    got: dbname.clone(),
                });
            }
        }
        let ti = pdb
            .lookup(&tref.table)
            .ok_or_else(|| EngineError::UnknownTable { table: tref.table.clone() })?;
        self.bindings.push(CBinding {
            name: tref.binding().to_string(),
            columns: pdb.tables[ti].columns.clone(),
            table: ti,
        });
        Ok(())
    }

    /// Mirror of the interpreter's `Scope::resolve`, returning binding slot
    /// + table + column indices instead of a flat row offset.
    fn resolve(
        &self,
        qualifier: Option<&str>,
        column: &str,
    ) -> Result<(u16, u16, u16), EngineError> {
        match qualifier {
            Some(q) => {
                let (slot, b) = self
                    .bindings
                    .iter()
                    .enumerate()
                    .find(|(_, b)| b.name.eq_ignore_ascii_case(q))
                    .ok_or_else(|| EngineError::UnknownTable { table: q.to_string() })?;
                let idx =
                    b.columns.iter().position(|c| c.eq_ignore_ascii_case(column)).ok_or_else(
                        || EngineError::UnknownColumn { column: format!("{q}.{column}") },
                    )?;
                Ok((slot as u16, b.table as u16, idx as u16))
            }
            None => {
                let mut found = None;
                for (slot, b) in self.bindings.iter().enumerate() {
                    if let Some(idx) = b.columns.iter().position(|c| c.eq_ignore_ascii_case(column))
                    {
                        if found.is_some() {
                            return Err(EngineError::AmbiguousColumn { column: column.into() });
                        }
                        found = Some((slot as u16, b.table as u16, idx as u16));
                    }
                }
                found.ok_or_else(|| EngineError::UnknownColumn { column: column.into() })
            }
        }
    }
}

/// Compile a SELECT against a prepared database. The only hard errors are
/// FROM-clause binding failures (the interpreter fails those before any
/// evaluation); everything else is deferred into the compiled form so
/// error timing matches interpretation.
pub fn compile(pdb: &PreparedDb, sel: &Select) -> Result<CompiledSelect, EngineError> {
    let mut scope = CScope { bindings: Vec::new() };
    let mut subs = Vec::new();
    scope.bind(pdb, &sel.from)?;
    let from_table = scope.bindings[0].table;

    let mut joins = Vec::new();
    let mut join_error = None;
    for j in &sel.joins {
        if let Err(e) = scope.bind(pdb, &j.table) {
            join_error = Some(e);
            break;
        }
        let new_slot = scope.bindings.len() - 1;
        let table = scope.bindings[new_slot].table;
        joins.push(classify_join(&j.on, table, new_slot, &scope, pdb, &mut subs));
    }

    let aggregated = !sel.group_by.is_empty()
        || sel.projections.iter().any(|p| match p {
            Projection::Expr { expr, .. } => expr.contains_aggregate(),
            Projection::Wildcard => false,
        })
        || sel.having.as_ref().is_some_and(Expr::contains_aggregate)
        || sel.order_by.iter().any(|o| o.expr.contains_aggregate());

    let mut columns = Vec::new();
    let mut projections = Vec::new();
    let mut wildcard_in_grouped = false;
    for (i, p) in sel.projections.iter().enumerate() {
        match p {
            Projection::Wildcard => {
                if aggregated {
                    wildcard_in_grouped = true;
                } else {
                    for (slot, b) in scope.bindings.iter().enumerate() {
                        for (ci, c) in b.columns.iter().enumerate() {
                            columns.push(c.clone());
                            projections.push(CExpr::Col {
                                slot: slot as u16,
                                table: b.table as u16,
                                col: ci as u16,
                                name: c.as_str().into(),
                            });
                        }
                    }
                }
            }
            Projection::Expr { expr, .. } => {
                columns.push(crate::exec::projection_name(p, i));
                projections.push(compile_expr(expr, &scope, pdb, &mut subs));
            }
        }
    }

    let alias_map = crate::exec::alias_exprs(sel);
    let mut order_by = Vec::with_capacity(sel.order_by.len());
    for k in &sel.order_by {
        let alias = match &k.expr {
            Expr::Column { table: None, column } => {
                alias_map.iter().find(|(a, _)| a.eq_ignore_ascii_case(column)).map(|(_, pos)| *pos)
            }
            _ => None,
        };
        order_by.push(COrderKey {
            alias,
            expr: compile_expr(&k.expr, &scope, pdb, &mut subs),
            desc: k.dir == SortDir::Desc,
        });
    }

    Ok(CompiledSelect {
        distinct: sel.distinct,
        limit: sel.limit,
        from_table,
        joins,
        join_error,
        filter: sel.where_clause.as_ref().map(|w| compile_expr(w, &scope, pdb, &mut subs)),
        aggregated,
        group_by: sel.group_by.iter().map(|g| compile_expr(g, &scope, pdb, &mut subs)).collect(),
        having: sel.having.as_ref().map(|h| compile_expr(h, &scope, pdb, &mut subs)),
        wildcard_in_grouped,
        columns,
        projections,
        order_by,
        subs,
    })
}

/// Which side of a join does a pure operand read from?
enum Side {
    Old,
    New,
    Any, // literal: constant on either side
}

/// Compile `e` only if it is provably error-free at evaluation time — a
/// bare resolved column or a literal. Anything else (arithmetic can raise,
/// unresolved columns defer errors) disqualifies the conjunct from hash
/// classification.
fn pure_operand(
    e: &Expr,
    new_slot: usize,
    scope: &CScope,
    pdb: &PreparedDb,
) -> Option<(CExpr, Side)> {
    match e {
        Expr::Literal(v) => Some((CExpr::Lit(cval_lookup(v, &pdb.interner)), Side::Any)),
        Expr::Column { table, column } => {
            let (slot, tbl, col) = scope.resolve(table.as_deref(), column).ok()?;
            let side = if (slot as usize) == new_slot { Side::New } else { Side::Old };
            Some((CExpr::Col { slot, table: tbl, col, name: column.as_str().into() }, side))
        }
        _ => None,
    }
}

/// Split an ON predicate into hash keys + residual conjuncts. Only a
/// *prefix* of equality conjuncts may become keys: a pair the hash probe
/// skips is exactly a pair where the interpreter's AND chain short-circuits
/// false before reaching any residual, so no evaluation (or error) is lost.
fn classify_join(
    on: &Expr,
    table: usize,
    new_slot: usize,
    scope: &CScope,
    pdb: &PreparedDb,
    subs: &mut Vec<Result<CompiledSelect, EngineError>>,
) -> CompiledJoin {
    let mut conjuncts = Vec::new();
    flatten_and(on, &mut conjuncts);
    let mut keys = Vec::new();
    let mut rest = 0;
    for (i, c) in conjuncts.iter().enumerate() {
        rest = i;
        let Expr::Binary { op: BinOp::Eq, left, right } = c else { break };
        let Some((cl, sl)) = pure_operand(left, new_slot, scope, pdb) else { break };
        let Some((cr, sr)) = pure_operand(right, new_slot, scope, pdb) else { break };
        // (old_expr, new_expr), literals bending to whichever side needs one
        match (sl, sr) {
            (Side::Old, Side::New) | (Side::Old, Side::Any) | (Side::Any, Side::New) => {
                keys.push((cl, cr))
            }
            (Side::New, Side::Old) | (Side::New, Side::Any) | (Side::Any, Side::Old) => {
                keys.push((cr, cl))
            }
            _ => break,
        }
        rest = i + 1;
    }
    if keys.is_empty() {
        return CompiledJoin {
            table,
            keys,
            residual: Vec::new(),
            full_on: Some(compile_expr(on, scope, pdb, subs)),
        };
    }
    let residual = conjuncts[rest..].iter().map(|c| compile_expr(c, scope, pdb, subs)).collect();
    CompiledJoin { table, keys, residual, full_on: None }
}

/// Flatten an AND tree in evaluation order (left subtree first).
fn flatten_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    if let Expr::Binary { op: BinOp::And, left, right } = e {
        flatten_and(left, out);
        flatten_and(right, out);
    } else {
        out.push(e);
    }
}

fn compile_expr(
    e: &Expr,
    scope: &CScope,
    pdb: &PreparedDb,
    subs: &mut Vec<Result<CompiledSelect, EngineError>>,
) -> CExpr {
    let sub = |s: &Select, subs: &mut Vec<Result<CompiledSelect, EngineError>>| {
        subs.push(compile(pdb, s));
        subs.len() - 1
    };
    match e {
        Expr::Literal(v) => CExpr::Lit(cval_lookup(v, &pdb.interner)),
        Expr::Column { table, column } => match scope.resolve(table.as_deref(), column) {
            Ok((slot, tbl, col)) => {
                CExpr::Col { slot, table: tbl, col, name: column.as_str().into() }
            }
            Err(err) => CExpr::Error(err),
        },
        Expr::Binary { op, left, right } => CExpr::Binary {
            op: *op,
            left: Box::new(compile_expr(left, scope, pdb, subs)),
            right: Box::new(compile_expr(right, scope, pdb, subs)),
        },
        Expr::Not(x) => CExpr::Not(Box::new(compile_expr(x, scope, pdb, subs))),
        Expr::Neg(x) => CExpr::Neg(Box::new(compile_expr(x, scope, pdb, subs))),
        Expr::IsNull { expr, negated } => CExpr::IsNull {
            expr: Box::new(compile_expr(expr, scope, pdb, subs)),
            negated: *negated,
        },
        Expr::Like { expr, pattern, negated } => CExpr::Like {
            expr: Box::new(compile_expr(expr, scope, pdb, subs)),
            pattern: pattern.to_lowercase().chars().collect(),
            negated: *negated,
        },
        Expr::Between { expr, low, high } => CExpr::Between {
            expr: Box::new(compile_expr(expr, scope, pdb, subs)),
            low: Box::new(compile_expr(low, scope, pdb, subs)),
            high: Box::new(compile_expr(high, scope, pdb, subs)),
        },
        Expr::InList { expr, list, negated } => CExpr::InList {
            expr: Box::new(compile_expr(expr, scope, pdb, subs)),
            list: list.iter().map(|i| compile_expr(i, scope, pdb, subs)).collect(),
            negated: *negated,
        },
        Expr::InSubquery { expr, subquery, negated } => {
            let probe = Box::new(compile_expr(expr, scope, pdb, subs));
            CExpr::InSub { expr: probe, sub: sub(subquery, subs), negated: *negated }
        }
        Expr::ScalarSubquery(s) => CExpr::ScalarSub(sub(s, subs)),
        Expr::Aggregate { func, arg, distinct } => CExpr::Agg {
            func: *func,
            arg: arg.as_ref().map(|a| Box::new(compile_expr(a, scope, pdb, subs))),
            distinct: *distinct,
        },
    }
}

// ---------------------------------------------------------------------------
// Run phase
// ---------------------------------------------------------------------------

/// Group context during aggregation: the tuple arena plus the member tuple
/// indices of the current group.
#[derive(Clone, Copy)]
struct Grp<'a> {
    data: &'a [u32],
    width: usize,
    rows: &'a [u32],
}

/// Cached result of an uncorrelated subquery. The interpreter re-executes
/// subqueries per outer row; results are deterministic, so computing once
/// and replaying (value or error) per evaluation is observably identical.
enum SubCache {
    In(HashSet<EqKey>),
    Scalar(CVal),
}

struct Machine<'a> {
    pdb: &'a PreparedDb,
    c: &'a CompiledSelect,
    cache: Vec<OnceCell<Result<SubCache, EngineError>>>,
}

/// Execute a compiled SELECT against its prepared database.
pub fn run(pdb: &PreparedDb, c: &CompiledSelect) -> Result<ResultSet, EngineError> {
    let cache = c.subs.iter().map(|_| OnceCell::new()).collect();
    Machine { pdb, c, cache }.run()
}

impl<'a> Machine<'a> {
    fn run(&self) -> Result<ResultSet, EngineError> {
        let c = self.c;
        // Base scan: index tuples, no row clones.
        let mut width = 1usize;
        let mut data: Vec<u32> = (0..self.pdb.tables[c.from_table].nrows as u32).collect();
        for join in &c.joins {
            data = self.join(join, &data, width)?;
            width += 1;
        }
        if let Some(e) = &c.join_error {
            return Err(e.clone());
        }
        if let Some(f) = &c.filter {
            let mut kept = Vec::with_capacity(data.len());
            for tup in data.chunks_exact(width) {
                if self.eval(f, tup, None)?.is_truthy() {
                    kept.extend_from_slice(tup);
                }
            }
            data = kept;
        }
        if c.aggregated {
            self.run_grouped(&data, width)
        } else {
            self.run_flat(&data, width)
        }
    }

    /// Join the current tuple arena with one more table. Equality prefixes
    /// hash-partition on the smaller side; the output order is always the
    /// interpreter's nested-loop order (left-major, right rows ascending).
    fn join(&self, j: &CompiledJoin, data: &[u32], width: usize) -> Result<Vec<u32>, EngineError> {
        let t = &self.pdb.tables[j.table];
        let n_old = data.len() / width;
        let n_new = t.nrows;
        let mut out = Vec::new();
        if n_old == 0 || n_new == 0 {
            return Ok(out);
        }
        let mut cand = vec![0u32; width + 1];
        if let Some(on) = &j.full_on {
            for tup in data.chunks_exact(width) {
                cand[..width].copy_from_slice(tup);
                for r in 0..n_new as u32 {
                    cand[width] = r;
                    if self.eval(on, &cand, None)?.is_truthy() {
                        out.extend_from_slice(&cand);
                    }
                }
            }
            return Ok(out);
        }

        // Key evaluators: old-side exprs read existing slots, new-side
        // exprs read only the new slot (scratch tuple), both proven pure.
        let mut scratch = vec![0u32; width + 1];
        let nk = j.keys.len();
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        if n_new <= n_old {
            // Build on the new table, probe old tuples in order: matches
            // come out left-major with right rows ascending for free.
            let mut map: HashMap<Vec<EqKey>, Vec<u32>> = HashMap::with_capacity(n_new);
            'new_rows: for r in 0..n_new as u32 {
                scratch[width] = r;
                let mut key = Vec::with_capacity(nk);
                for (_, ne) in &j.keys {
                    match eq_key(&self.eval(ne, &scratch, None)?) {
                        Some(k) => key.push(k),
                        None => continue 'new_rows, // NULL/NaN never matches
                    }
                }
                map.entry(key).or_default().push(r);
            }
            let mut key = Vec::with_capacity(nk);
            'old_tuples: for (i, tup) in data.chunks_exact(width).enumerate() {
                key.clear();
                for (oe, _) in &j.keys {
                    match eq_key(&self.eval(oe, tup, None)?) {
                        Some(k) => key.push(k),
                        None => continue 'old_tuples,
                    }
                }
                if let Some(rs) = map.get(&key) {
                    for &r in rs {
                        pairs.push((i as u32, r));
                    }
                }
            }
        } else {
            // Build on the old side, probe new rows, then restore the
            // interpreter's (left, right) order by sorting the index pairs.
            let mut map: HashMap<Vec<EqKey>, Vec<u32>> = HashMap::with_capacity(n_old);
            'old_tuples2: for (i, tup) in data.chunks_exact(width).enumerate() {
                let mut key = Vec::with_capacity(nk);
                for (oe, _) in &j.keys {
                    match eq_key(&self.eval(oe, tup, None)?) {
                        Some(k) => key.push(k),
                        None => continue 'old_tuples2,
                    }
                }
                map.entry(key).or_default().push(i as u32);
            }
            let mut key = Vec::with_capacity(nk);
            'new_rows2: for r in 0..n_new as u32 {
                scratch[width] = r;
                key.clear();
                for (_, ne) in &j.keys {
                    match eq_key(&self.eval(ne, &scratch, None)?) {
                        Some(k) => key.push(k),
                        None => continue 'new_rows2,
                    }
                }
                if let Some(is) = map.get(&key) {
                    for &i in is {
                        pairs.push((i, r));
                    }
                }
            }
            pairs.sort_unstable();
        }

        // Residual conjuncts run in interpreter pair order; errors inside
        // them surface for the first equality-matching pair, exactly where
        // the interpreter's AND chain would reach them.
        for (i, r) in pairs {
            let base = i as usize * width;
            cand[..width].copy_from_slice(&data[base..base + width]);
            cand[width] = r;
            let mut ok = true;
            for res in &j.residual {
                if !self.eval(res, &cand, None)?.is_truthy() {
                    ok = false;
                    break;
                }
            }
            if ok {
                out.extend_from_slice(&cand);
            }
        }
        Ok(out)
    }

    fn run_flat(&self, data: &[u32], width: usize) -> Result<ResultSet, EngineError> {
        let c = self.c;
        let n = data.len() / width.max(1);
        let ow = c.columns.len();
        let kw = c.order_by.len();
        let mut out: Vec<CVal> = Vec::with_capacity(n * ow);
        let mut keys: Vec<CVal> = Vec::with_capacity(n * kw);
        for tup in data.chunks_exact(width) {
            let base = out.len();
            for p in &c.projections {
                let v = self.eval(p, tup, None)?;
                out.push(v);
            }
            for k in &c.order_by {
                let v = self.order_key(k, tup, None, &out[base..base + ow])?;
                keys.push(v);
            }
        }
        self.finish(out, keys, n)
    }

    fn run_grouped(&self, data: &[u32], width: usize) -> Result<ResultSet, EngineError> {
        let c = self.c;
        let n = data.len() / width.max(1);
        let gw = c.group_by.len();
        // Pass 1: evaluate group keys into a flat arena (errors surface in
        // row order, before the wildcard check — interpreter ordering).
        let mut keybuf: Vec<CKey> = Vec::with_capacity(n * gw);
        for tup in data.chunks_exact(width) {
            for g in &c.group_by {
                let v = self.eval(g, tup, None)?;
                keybuf.push(ckey(&v));
            }
        }
        // Pass 2: bucket tuple indices by key slice, first-seen order.
        let mut index: HashMap<&[CKey], usize> = HashMap::new();
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for i in 0..n {
            let k = &keybuf[i * gw..(i + 1) * gw];
            match index.get(k) {
                Some(&g) => groups[g].push(i as u32),
                None => {
                    index.insert(k, groups.len());
                    groups.push(vec![i as u32]);
                }
            }
        }
        // A global aggregate over zero rows still yields one output row.
        if groups.is_empty() && gw == 0 {
            groups.push(Vec::new());
        }
        if c.wildcard_in_grouped {
            return Err(EngineError::Unsupported {
                feature: "SELECT * with GROUP BY/aggregates".into(),
            });
        }

        let ow = c.columns.len();
        let mut out: Vec<CVal> = Vec::new();
        let mut keys: Vec<CVal> = Vec::new();
        let mut outn = 0usize;
        for g in &groups {
            let rep: &[u32] = match g.first() {
                Some(&i) => &data[i as usize * width..(i as usize + 1) * width],
                None => &[],
            };
            let grp = Some(Grp { data, width, rows: g });
            if let Some(h) = &c.having {
                if !self.eval(h, rep, grp)?.is_truthy() {
                    continue;
                }
            }
            let base = out.len();
            for p in &c.projections {
                let v = self.eval(p, rep, grp)?;
                out.push(v);
            }
            for k in &c.order_by {
                let v = self.order_key(k, rep, grp, &out[base..base + ow])?;
                keys.push(v);
            }
            outn += 1;
        }
        self.finish(out, keys, outn)
    }

    /// ORDER BY / DISTINCT / LIMIT over the flat output arenas, then
    /// materialize through the index permutation.
    fn finish(&self, out: Vec<CVal>, keys: Vec<CVal>, n: usize) -> Result<ResultSet, EngineError> {
        let c = self.c;
        let ow = c.columns.len();
        let kw = c.order_by.len();
        let mut perm: Vec<usize> = (0..n).collect();
        if kw > 0 {
            perm.sort_by(|&a, &b| {
                for (ki, key) in c.order_by.iter().enumerate() {
                    let va = &keys[a * kw + ki];
                    let vb = &keys[b * kw + ki];
                    let ord = va.total_cmp(vb);
                    let ord = if key.desc { ord.reverse() } else { ord };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
        }
        if c.distinct {
            let mut ck: Vec<CKey> = Vec::with_capacity(n * ow);
            for v in &out {
                ck.push(ckey(v));
            }
            let mut seen: HashSet<&[CKey]> = HashSet::with_capacity(n);
            perm.retain(|&i| seen.insert(&ck[i * ow..(i + 1) * ow]));
        }
        if let Some(l) = c.limit {
            perm.truncate(l);
        }
        let rows: Vec<Vec<Value>> = perm
            .iter()
            .map(|&i| out[i * ow..(i + 1) * ow].iter().map(cval_to_value).collect())
            .collect();
        Ok(ResultSet { columns: c.columns.clone(), rows })
    }

    fn order_key(
        &self,
        k: &COrderKey,
        tup: &[u32],
        grp: Option<Grp<'_>>,
        projected: &[CVal],
    ) -> Result<CVal, EngineError> {
        // ORDER BY <alias> refers to the projected value when in range
        // (the interpreter falls back to scope resolution otherwise).
        if let Some(pos) = k.alias {
            if let Some(v) = projected.get(pos) {
                return Ok(v.clone());
            }
        }
        self.eval(&k.expr, tup, grp)
    }

    fn eval(&self, e: &CExpr, tup: &[u32], grp: Option<Grp<'_>>) -> Result<CVal, EngineError> {
        match e {
            CExpr::Lit(v) => Ok(v.clone()),
            CExpr::Col { slot, table, col, name } => match tup.get(*slot as usize) {
                Some(&row) => {
                    Ok(self.pdb.tables[*table as usize].cell(row as usize, *col as usize).clone())
                }
                None => {
                    Err(EngineError::Eval { message: format!("row too narrow for column {name}") })
                }
            },
            CExpr::Error(err) => Err(err.clone()),
            CExpr::Binary { op, left, right } => {
                let l = self.eval(left, tup, grp)?;
                match op {
                    BinOp::And => {
                        if !l.is_truthy() {
                            return Ok(CVal::Bool(false));
                        }
                        let r = self.eval(right, tup, grp)?;
                        Ok(CVal::Bool(r.is_truthy()))
                    }
                    BinOp::Or => {
                        if l.is_truthy() {
                            return Ok(CVal::Bool(true));
                        }
                        let r = self.eval(right, tup, grp)?;
                        Ok(CVal::Bool(r.is_truthy()))
                    }
                    _ => {
                        let r = self.eval(right, tup, grp)?;
                        eval_binop(*op, &l, &r)
                    }
                }
            }
            CExpr::Not(x) => {
                let v = self.eval(x, tup, grp)?;
                Ok(CVal::Bool(!v.is_truthy()))
            }
            CExpr::Neg(x) => {
                let v = self.eval(x, tup, grp)?;
                match v {
                    CVal::Int(i) => Ok(CVal::Int(i.wrapping_neg())),
                    CVal::Float(f) => Ok(CVal::Float(-f)),
                    CVal::Null => Ok(CVal::Null),
                    other => Err(EngineError::Eval { message: format!("cannot negate {other}") }),
                }
            }
            CExpr::IsNull { expr, negated } => {
                let v = self.eval(expr, tup, grp)?;
                Ok(CVal::Bool(v.is_null() != *negated))
            }
            CExpr::Like { expr, pattern, negated } => {
                let v = self.eval(expr, tup, grp)?;
                match v {
                    CVal::Text(_, s) => {
                        let t: Vec<char> = s.to_lowercase().chars().collect();
                        let m = crate::exec::like_rec(pattern, &t);
                        Ok(CVal::Bool(m != *negated))
                    }
                    CVal::Null => Ok(CVal::Bool(false)),
                    other => {
                        Err(EngineError::Eval { message: format!("LIKE on non-text {other}") })
                    }
                }
            }
            CExpr::Between { expr, low, high } => {
                let v = self.eval(expr, tup, grp)?;
                let lo = self.eval(low, tup, grp)?;
                let hi = self.eval(high, tup, grp)?;
                let ge = matches!(v.sql_cmp(&lo), Some(Ordering::Greater | Ordering::Equal));
                let le = matches!(v.sql_cmp(&hi), Some(Ordering::Less | Ordering::Equal));
                Ok(CVal::Bool(ge && le))
            }
            CExpr::InList { expr, list, negated } => {
                let v = self.eval(expr, tup, grp)?;
                let mut found = false;
                for item in list {
                    let iv = self.eval(item, tup, grp)?;
                    if v.sql_eq(&iv) {
                        found = true;
                        break;
                    }
                }
                Ok(CVal::Bool(found != *negated))
            }
            CExpr::InSub { expr, sub, negated } => {
                // Probe expression first — its errors outrank subquery
                // errors, as in the interpreter.
                let v = self.eval(expr, tup, grp)?;
                let set = self.sub_in(*sub)?;
                let found = match eq_key(&v) {
                    Some(k) => set.contains(&k),
                    None => false, // NULL/NaN probes match nothing
                };
                Ok(CVal::Bool(found != *negated))
            }
            CExpr::ScalarSub(sub) => self.sub_scalar(*sub),
            CExpr::Agg { func, arg, distinct } => {
                let g = grp.ok_or_else(|| EngineError::Eval {
                    message: format!("aggregate {func} outside GROUP BY context"),
                })?;
                self.eval_aggregate(*func, arg.as_deref(), *distinct, g)
            }
        }
    }

    fn eval_aggregate(
        &self,
        func: AggFunc,
        arg: Option<&CExpr>,
        distinct: bool,
        g: Grp<'_>,
    ) -> Result<CVal, EngineError> {
        if func == AggFunc::Count && arg.is_none() {
            return Ok(CVal::Int(g.rows.len() as i64));
        }
        let arg = arg
            .ok_or_else(|| EngineError::Eval { message: format!("{func} requires an argument") })?;
        let mut vals = Vec::with_capacity(g.rows.len());
        for &ri in g.rows {
            let base = ri as usize * g.width;
            let tup = &g.data[base..base + g.width];
            let v = self.eval(arg, tup, None)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if distinct {
            let mut seen = HashSet::new();
            vals.retain(|v| seen.insert(ckey(v)));
        }
        match func {
            AggFunc::Count => Ok(CVal::Int(vals.len() as i64)),
            AggFunc::Sum => {
                if vals.is_empty() {
                    return Ok(CVal::Null);
                }
                if vals.iter().all(|v| matches!(v, CVal::Int(_))) {
                    let s: i64 =
                        vals.iter().map(|v| if let CVal::Int(i) = v { *i } else { 0 }).sum();
                    Ok(CVal::Int(s))
                } else {
                    let mut s = 0.0;
                    for v in &vals {
                        s += v.as_f64().ok_or_else(|| EngineError::Eval {
                            message: format!("SUM over non-numeric {v}"),
                        })?;
                    }
                    Ok(CVal::Float(s))
                }
            }
            AggFunc::Avg => {
                if vals.is_empty() {
                    return Ok(CVal::Null);
                }
                let mut s = 0.0;
                for v in &vals {
                    s += v.as_f64().ok_or_else(|| EngineError::Eval {
                        message: format!("AVG over non-numeric {v}"),
                    })?;
                }
                Ok(CVal::Float(s / vals.len() as f64))
            }
            AggFunc::Min | AggFunc::Max => {
                let mut best: Option<CVal> = None;
                for v in vals {
                    best = Some(match best {
                        None => v,
                        Some(b) => {
                            let keep_new = match v.sql_cmp(&b) {
                                Some(Ordering::Less) => func == AggFunc::Min,
                                Some(Ordering::Greater) => func == AggFunc::Max,
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
                Ok(best.unwrap_or(CVal::Null))
            }
        }
    }

    fn sub_run(&self, idx: usize) -> &Result<SubCache, EngineError> {
        self.cache[idx].get_or_init(|| match &self.c.subs[idx] {
            Err(e) => Err(e.clone()),
            Ok(cs) => {
                let rs = run(self.pdb, cs)?;
                // Each sub index has exactly one use site, so the cached
                // shape matches how it will be consumed.
                if matches!(self.sub_kind(idx), SubKind::Scalar) {
                    if rs.columns.len() != 1 {
                        return Err(EngineError::ScalarSubquery {
                            rows: rs.rows.len(),
                            cols: rs.columns.len(),
                        });
                    }
                    let v = rs
                        .rows
                        .first()
                        .map(|r| cval_lookup(&r[0], &self.pdb.interner))
                        .unwrap_or(CVal::Null);
                    Ok(SubCache::Scalar(v))
                } else {
                    let mut set = HashSet::with_capacity(rs.rows.len());
                    for r in &rs.rows {
                        if let Some(v) = r.first() {
                            if let Some(k) = value_eq_key(v, &self.pdb.interner) {
                                set.insert(k);
                            }
                        }
                    }
                    Ok(SubCache::In(set))
                }
            }
        })
    }

    fn sub_kind(&self, idx: usize) -> SubKind {
        find_sub_kind(
            &self.c.projections,
            &self.c.group_by,
            &self.c.having,
            &self.c.filter,
            &self.c.order_by,
            &self.c.joins,
            idx,
        )
    }

    fn sub_in(&self, idx: usize) -> Result<&HashSet<EqKey>, EngineError> {
        match self.sub_run(idx) {
            Ok(SubCache::In(set)) => Ok(set),
            Ok(SubCache::Scalar(_)) => unreachable!("sub cached under the wrong shape"),
            Err(e) => Err(e.clone()),
        }
    }

    fn sub_scalar(&self, idx: usize) -> Result<CVal, EngineError> {
        match self.sub_run(idx) {
            Ok(SubCache::Scalar(v)) => Ok(v.clone()),
            Ok(SubCache::In(_)) => unreachable!("sub cached under the wrong shape"),
            Err(e) => Err(e.clone()),
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum SubKind {
    In,
    Scalar,
}

fn find_sub_kind(
    projections: &[CExpr],
    group_by: &[CExpr],
    having: &Option<CExpr>,
    filter: &Option<CExpr>,
    order_by: &[COrderKey],
    joins: &[CompiledJoin],
    idx: usize,
) -> SubKind {
    fn walk(e: &CExpr, idx: usize, out: &mut Option<SubKind>) {
        match e {
            CExpr::InSub { expr, sub, .. } => {
                if *sub == idx {
                    *out = Some(SubKind::In);
                }
                walk(expr, idx, out);
            }
            CExpr::ScalarSub(sub) => {
                if *sub == idx {
                    *out = Some(SubKind::Scalar);
                }
            }
            CExpr::Binary { left, right, .. } => {
                walk(left, idx, out);
                walk(right, idx, out);
            }
            CExpr::Not(x) | CExpr::Neg(x) => walk(x, idx, out),
            CExpr::IsNull { expr, .. } | CExpr::Like { expr, .. } => walk(expr, idx, out),
            CExpr::Between { expr, low, high } => {
                walk(expr, idx, out);
                walk(low, idx, out);
                walk(high, idx, out);
            }
            CExpr::InList { expr, list, .. } => {
                walk(expr, idx, out);
                for i in list {
                    walk(i, idx, out);
                }
            }
            CExpr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    walk(a, idx, out);
                }
            }
            CExpr::Lit(_) | CExpr::Col { .. } | CExpr::Error(_) => {}
        }
    }
    let mut out = None;
    for e in projections.iter().chain(group_by) {
        walk(e, idx, &mut out);
    }
    if let Some(h) = having {
        walk(h, idx, &mut out);
    }
    if let Some(f) = filter {
        walk(f, idx, &mut out);
    }
    for k in order_by {
        walk(&k.expr, idx, &mut out);
    }
    for j in joins {
        if let Some(on) = &j.full_on {
            walk(on, idx, &mut out);
        }
        for r in &j.residual {
            walk(r, idx, &mut out);
        }
    }
    out.unwrap_or(SubKind::In)
}

/// Mirror of the interpreter's `eval_binop` over compiled values.
fn eval_binop(op: BinOp, l: &CVal, r: &CVal) -> Result<CVal, EngineError> {
    use BinOp::*;
    match op {
        Eq => Ok(CVal::Bool(l.sql_eq(r))),
        NotEq => {
            if l.is_null() || r.is_null() {
                return Ok(CVal::Bool(false));
            }
            Ok(CVal::Bool(!l.sql_eq(r)))
        }
        Lt | LtEq | Gt | GtEq => {
            let ord = match l.sql_cmp(r) {
                Some(o) => o,
                None => return Ok(CVal::Bool(false)),
            };
            let b = match op {
                Lt => ord == Ordering::Less,
                LtEq => ord != Ordering::Greater,
                Gt => ord == Ordering::Greater,
                GtEq => ord != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(CVal::Bool(b))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(CVal::Null);
            }
            match (l, r) {
                // Wrapping to match the interpreter (see exec::eval_binop).
                (CVal::Int(a), CVal::Int(b)) if op != Div => Ok(CVal::Int(match op {
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
                                return Ok(CVal::Null);
                            }
                            a / b
                        }
                        _ => unreachable!(),
                    };
                    Ok(CVal::Float(v))
                }
            }
        }
        And | Or => unreachable!("handled by eval"),
    }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// A query result: named columns and rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    pub fn empty() -> Self {
        ResultSet { columns: Vec::new(), rows: Vec::new() }
    }
}

/// Parse, compile and run a SELECT statement against a prepared database.
pub fn execute(pdb: &PreparedDb, sql: &str) -> Result<ResultSet, EngineError> {
    let c = compile(pdb, &parse_select(sql)?)?;
    run(pdb, &c)
}
