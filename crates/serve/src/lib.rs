//! `dbcopilot-serve` — the concurrent serving layer over schema routing
//! *and* the full question→SQL pipeline.
//!
//! DBCopilot is only useful at scale if it can be *served*: many clients
//! asking questions over one loaded model, concurrently, with
//! sub-model-call latency for repeated questions. This crate provides
//! that front, plus the end-to-end pipeline contract it serves:
//!
//! * [`QueryPipeline`] — the question→SQL→result trait (implemented by
//!   the facade's `DbCopilot`), with [`AskOptions`] (top-k candidate
//!   fallback, execution-feedback repair budget, trace verbosity), the
//!   staged [`AskError`] taxonomy (every variant a typed
//!   [`std::error::Error`]) and the introspectable [`AskReport`] trace;
//! * [`RouterService`] — wraps any [`SchemaRouter`] (the trained
//!   `DbcRouter`, or any baseline) behind an `Arc`, micro-batches
//!   concurrent requests, deduplicates identical in-flight questions, and
//!   executes batches on the persistent worker pool from
//!   `dbcopilot-runtime`;
//! * [`AskService`] — the same machinery fronting a full
//!   [`QueryPipeline`], so the LRU cache holds complete answers (and
//!   typed failures), not just routes;
//! * [`LruCache`] — the deterministic, capacity-bounded cache keyed on
//!   [`normalize_question`], with hit/miss counters;
//! * [`ServiceConfig`] / [`ServiceStats`] — cache size and routing depth
//!   (builder-style; batching has no knobs) and serving counters.
//!
//! ```
//! use std::sync::Arc;
//! use dbcopilot_retrieval::{Bm25Index, Bm25Params, Target, TargetSet};
//! use dbcopilot_serve::{RouterService, ServiceConfig};
//!
//! // Any SchemaRouter can be served; a tiny BM25 index stands in here.
//! let targets = TargetSet {
//!     targets: vec![Target {
//!         database: "concert_singer".into(),
//!         table: "singer".into(),
//!         text: "singer name song".into(),
//!     }],
//! };
//! let index = Bm25Index::build(targets, Bm25Params::default());
//! let service = RouterService::new(Arc::new(index), ServiceConfig::default());
//!
//! let first = service.route("How many singers are there?");
//! let again = service.route("how many singers are there"); // cache hit
//! assert_eq!(first.database_names(), again.database_names());
//! assert_eq!(service.stats().cache_hits, 1);
//! ```
//!
//! [`SchemaRouter`]: dbcopilot_retrieval::SchemaRouter

pub mod ask;
pub mod cache;
mod handle;
pub mod pipeline;
pub mod service;

pub use ask::AskService;
pub use cache::{normalize_question, LruCache};
pub use pipeline::{
    Answer, AskError, AskOptions, AskOutcome, AskReport, AttemptOutcome, ExecutionError,
    GenerationError, PromptError, QueryPipeline, RoutingError, ScoredCandidate, SqlAttempt,
    StageTimings, TraceLevel,
};
pub use service::{RouterService, ServiceConfig, ServiceStats};
