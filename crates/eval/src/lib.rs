//! `dbcopilot-eval` — metrics and the experiment harness that regenerates
//! every table and figure of the paper's evaluation (§4).
//!
//! * [`metrics`] — Recall@k (database/table) and mAP (§4.1.4);
//! * [`harness`] — corpus preparation, method construction ([Table 3–5
//!   baselines + DBCopilot]), the [`Workbench`] that builds each once per
//!   experiment run, parallel routing evaluation;
//! * [`ex`] — end-to-end execution accuracy and cost (Table 6), including
//!   the oracle tests and human-in-the-loop selection;
//! * [`ask`] — end-to-end evaluation of any `QueryPipeline` (the facade's
//!   staged ask path): answered rate, EX vs gold, per-stage failure
//!   counts, fallback/repair recoveries;
//! * [`resources`] — QPS / build time / index size (Table 5);
//! * [`figures`] — Figure 7(a/b) and series rendering;
//! * [`scale`] — `quick`/`full` experiment presets (`DBC_SCALE`).
//!
//! ```
//! use dbcopilot_eval::RoutingMetrics;
//! use dbcopilot_graph::QuerySchema;
//! use dbcopilot_retrieval::RoutingResult;
//!
//! let result = RoutingResult {
//!     tables: vec![("world".into(), "city".into(), 1.0)],
//!     databases: vec![("world".into(), 1.0)],
//! };
//! let gold = QuerySchema::new("world", vec!["city".into()]);
//! let mut metrics = RoutingMetrics::default();
//! metrics.add(&result, &gold);
//! // finalize() averages over queries and scales to percentages
//! assert_eq!(metrics.finalize().db_r1, 100.0);
//! ```

pub mod ask;
pub mod ex;
pub mod figures;
pub mod harness;
pub mod metrics;
pub mod resources;
pub mod scale;

pub use ask::{eval_ask, render_ask_table, AskAccuracy};
pub use ex::{eval_ex, ExReport, SchemaSource, Strategy};
pub use figures::{map_by_db_size, recall_curve, render_series};
pub use harness::{
    baseline_train_pairs, build_method, eval_routing, eval_routing_served, fit_dbcopilot, prepare,
    BuildReport, CorpusKind, MethodKind, Prepared, Workbench,
};
pub use metrics::{average_precision, db_recall_at_k, table_recall_at_k, RoutingMetrics};
pub use resources::{
    measure_concurrent, measure_qps, render_precision_table, render_table5, PrecisionRow,
    ResourceReport,
};
pub use scale::Scale;
