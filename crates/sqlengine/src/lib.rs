//! `dbcopilot-sqlengine` — a minimal in-memory relational engine.
//!
//! The paper evaluates end-to-end NL2SQL with *execution accuracy* (EX):
//! predicted SQL and gold SQL are executed against the target database and
//! their results compared. The original work runs SQLite; this crate is the
//! offline substitute, covering the SQL subset the synthetic workloads (and
//! the paper's own example queries) use:
//!
//! * inner joins, WHERE, GROUP BY + aggregates, HAVING, ORDER BY, LIMIT,
//!   DISTINCT;
//! * uncorrelated scalar and `IN` subqueries;
//! * `LIKE`, `BETWEEN`, `IS [NOT] NULL`, arithmetic.
//!
//! Out of scope (documented in DESIGN.md): outer joins, UNION, correlated
//! subqueries, CASE — none are emitted by the workload generator, and a
//! predicted query using them simply fails execution (EX = 0), exactly as an
//! invalid query would against SQLite.
//!
//! ```
//! use dbcopilot_sqlengine::{
//!     execute, DataType, Database, DatabaseSchema, PreparedDb, TableSchema, Value,
//! };
//!
//! let mut schema = DatabaseSchema::new("world");
//! schema.add_table(
//!     TableSchema::new("city").column("name", DataType::Text).column("pop", DataType::Int),
//! );
//! let mut db = Database::from_schema(&schema);
//! db.insert("city", vec![Value::Text("ulm".into()), Value::Int(126_000)]).unwrap();
//! db.insert("city", vec![Value::Text("bern".into()), Value::Int(134_000)]).unwrap();
//!
//! // Intern and flatten once; every later query reuses the prepared form.
//! let pdb = PreparedDb::prepare(&db);
//! let rs = execute(&pdb, "SELECT name FROM city WHERE pop > 130000").unwrap();
//! assert_eq!(rs.rows.len(), 1);
//! ```

pub mod ast;
pub mod compare;
pub mod compile;
pub mod error;
pub mod exec;
pub mod intern;
pub mod lexer;
pub mod parser;
pub mod render;
pub mod schema;
pub mod storage;
pub mod value;

pub use ast::{AggFunc, BinOp, Expr, Join, OrderKey, Projection, Select, SortDir, TableRef};
pub use compare::{compare_to_gold, execution_match, results_equal, ExOutcome};
pub use compile::{compile, execute, CompiledSelect, PreparedDb, PreparedStore, ResultSet};
pub use error::EngineError;
pub use intern::{Interner, Symbol};
pub use parser::parse_select;
pub use render::{render_expr, render_select};
pub use schema::{Collection, ColumnDef, DatabaseSchema, ForeignKey, TableSchema};
pub use storage::{Database, Store, Table};
pub use value::{DataType, Value};
