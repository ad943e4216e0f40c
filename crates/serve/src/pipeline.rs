//! The end-to-end question→SQL pipeline contract: options, typed errors,
//! introspectable reports, and the [`QueryPipeline`] trait the serving
//! layer fronts.
//!
//! The paper's LLM–copilot collaboration (Figure 1) is *fallible at every
//! stage*: routing can miss, a routed schema can resolve to nothing, the
//! LLM can fail to ground the question, and generated SQL can error at
//! execution. This module makes each stage's failure a typed value instead
//! of a silent `None`:
//!
//! ```text
//! question ──► route ──► resolve prompt ──► generate SQL ──► execute
//!              │          │                  │                │
//!              ▼          ▼                  ▼                ▼
//!        AskError::  AskError::        AskError::       AskError::
//!        Routing     Prompt            Generation       Execution
//! ```
//!
//! A pipeline walks the router's top-k candidate schemata and, on an
//! execution error, re-prompts the generator with the failed SQL and the
//! engine error (execution-feedback repair). [`AskOptions`] dials the
//! candidate count and the repair budget; [`AskReport`] records every
//! candidate, every SQL attempt with its outcome, and per-stage timings.

use std::time::Duration;

use dbcopilot_graph::QuerySchema;
use dbcopilot_sqlengine::{EngineError, ResultSet};

/// How much of the pipeline's work an [`AskReport`] retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// Every attempt with its SQL and outcome (the default).
    #[default]
    Stages,
    /// Like [`TraceLevel::Stages`], plus the full rendered prompt text of
    /// every attempt.
    Full,
}

/// Options for [`QueryPipeline::ask_with`], builder-style:
///
/// ```
/// use dbcopilot_serve::{AskOptions, TraceLevel};
///
/// let opts = AskOptions::new().top_k(5).repair_attempts(2).trace(TraceLevel::Full);
/// assert_eq!(opts.top_k, 5);
/// let legacy = AskOptions::first_candidate(); // the old single-candidate path
/// assert_eq!((legacy.top_k, legacy.repair_attempts), (1, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct AskOptions {
    /// How many candidate schemata (best first, one per database) the
    /// fallback loop walks. Minimum 1.
    pub top_k: usize,
    /// How many execution-feedback re-prompts are allowed per candidate
    /// after a SQL execution error. `0` disables repair.
    pub repair_attempts: usize,
    /// Report verbosity.
    pub trace: TraceLevel,
}

impl Default for AskOptions {
    fn default() -> Self {
        AskOptions { top_k: 3, repair_attempts: 1, trace: TraceLevel::Stages }
    }
}

impl AskOptions {
    pub fn new() -> Self {
        Self::default()
    }

    /// The pre-redesign behavior: best candidate only, no repair.
    pub fn first_candidate() -> Self {
        Self::new().top_k(1).repair_attempts(0)
    }

    pub fn top_k(mut self, k: usize) -> Self {
        self.top_k = k.max(1);
        self
    }

    pub fn repair_attempts(mut self, n: usize) -> Self {
        self.repair_attempts = n;
        self
    }

    pub fn trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }
}

/// One candidate schema as scored by the router.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    pub schema: QuerySchema,
    /// Sequence log-probability from beam search.
    pub logp: f32,
}

/// What happened to one generated-SQL attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum AttemptOutcome {
    /// The SQL executed; the answer was built from this attempt.
    Success { rows: usize },
    /// The generator could not ground the question on this candidate
    /// schema (no SQL emitted). Repair cannot help here — the loop moves
    /// to the next candidate.
    NoSql,
    /// The SQL failed to execute; the error feeds the next repair prompt.
    ExecutionError(EngineError),
}

/// One row of the pipeline trace: a single prompt→SQL→execution attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlAttempt {
    /// Index into [`AskReport::candidates`].
    pub candidate: usize,
    /// Which database this attempt ran against.
    pub database: String,
    /// `0` for the initial attempt on a candidate, `n` for the n-th
    /// execution-feedback repair.
    pub repair: usize,
    /// Full rendered prompt text ([`TraceLevel::Full`] only).
    pub prompt: Option<String>,
    /// The generated SQL (`None` when grounding failed).
    pub sql: Option<String>,
    pub outcome: AttemptOutcome,
}

/// Wall-clock spent in each pipeline stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimings {
    /// Schema routing (beam search + candidate merging).
    pub route: Duration,
    /// Prompt construction + SQL generation, summed over attempts.
    pub generate: Duration,
    /// SQL execution, summed over attempts.
    pub execute: Duration,
    /// End-to-end, including stage glue.
    pub total: Duration,
}

/// The answer to a natural-language question: the chosen schema, the SQL
/// that executed, and its result.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The candidate schema the successful SQL ran against.
    pub schema: QuerySchema,
    pub sql: String,
    pub result: ResultSet,
    /// Execution errors hit — and recovered from — on the way to this
    /// answer (earlier candidates and failed repair rounds). Never
    /// silently dropped.
    pub recovered_errors: Vec<EngineError>,
}

/// A full pipeline trace: the answer plus everything that led to it.
#[derive(Debug, Clone)]
pub struct AskReport {
    pub question: String,
    pub answer: Answer,
    /// Scored candidates the router proposed (best first, truncated to
    /// [`AskOptions::top_k`]).
    pub candidates: Vec<ScoredCandidate>,
    /// Index of the winning candidate in `candidates`.
    pub chosen: usize,
    /// Every prompt/SQL attempt in order.
    pub attempts: Vec<SqlAttempt>,
    pub timings: StageTimings,
}

impl AskReport {
    /// Whether the answer needed the fallback machinery at all — a later
    /// candidate or a repair re-prompt (as opposed to first-shot success).
    pub fn recovered(&self) -> bool {
        self.chosen > 0 || !self.answer.recovered_errors.is_empty()
    }
}

// ---------------------------------------------------------------------
// error taxonomy
// ---------------------------------------------------------------------

/// The router produced no candidate schemata.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingError {
    pub question: String,
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "routing produced no candidate schema for {:?}", self.question)
    }
}

impl std::error::Error for RoutingError {}

/// No routed candidate resolved to any known database/tables in the
/// collection (stale router, renamed schema, …).
#[derive(Debug, Clone, PartialEq)]
pub struct PromptError {
    /// How many candidates were tried.
    pub candidates: usize,
}

impl std::fmt::Display for PromptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "none of the {} routed candidates resolved to a known schema", self.candidates)
    }
}

impl std::error::Error for PromptError {}

/// The generator could not ground the question on any candidate schema —
/// no SQL was ever produced.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationError {
    /// How many candidates were prompted.
    pub candidates: usize,
}

impl std::fmt::Display for GenerationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SQL generation failed on all {} candidate schemata", self.candidates)
    }
}

impl std::error::Error for GenerationError {}

/// Every generated SQL failed to execute, across all candidates and
/// repair attempts. Carries the full attempt trace; the last engine error
/// is the [`std::error::Error::source`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionError {
    /// The failed attempts, in order.
    pub attempts: Vec<SqlAttempt>,
    /// The last execution error observed.
    pub last: EngineError,
}

impl std::fmt::Display for ExecutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "all {} SQL attempts failed to execute; last error: {}",
            self.attempts.len(),
            self.last
        )
    }
}

impl std::error::Error for ExecutionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.last)
    }
}

/// Why a question could not be answered, by pipeline stage.
///
/// Every variant (and every wrapped stage error, including the engine's
/// [`EngineError`]) implements [`std::error::Error`], so the whole
/// taxonomy composes with `?`, `anyhow`-style dynamic errors, and plain
/// `{}` formatting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AskError {
    /// Stage 1: the router emitted no candidates.
    Routing(RoutingError),
    /// Stage 2: no candidate resolved against the collection.
    Prompt(PromptError),
    /// Stage 3: the generator produced no SQL on any candidate.
    Generation(GenerationError),
    /// Stage 4: SQL was produced but every attempt failed to execute.
    Execution(ExecutionError),
}

impl AskError {
    /// Short stable stage name (metrics keys, log fields).
    pub fn stage(&self) -> &'static str {
        match self {
            AskError::Routing(_) => "routing",
            AskError::Prompt(_) => "prompt",
            AskError::Generation(_) => "generation",
            AskError::Execution(_) => "execution",
        }
    }
}

impl std::fmt::Display for AskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AskError::Routing(e) => write!(f, "routing failed: {e}"),
            AskError::Prompt(e) => write!(f, "prompt resolution failed: {e}"),
            AskError::Generation(e) => write!(f, "SQL generation failed: {e}"),
            AskError::Execution(e) => write!(f, "SQL execution failed: {e}"),
        }
    }
}

impl std::error::Error for AskError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AskError::Routing(e) => Some(e),
            AskError::Prompt(e) => Some(e),
            AskError::Generation(e) => Some(e),
            AskError::Execution(e) => Some(e),
        }
    }
}

/// The result of one end-to-end ask (what [`crate::AskService`] caches).
pub type AskOutcome = Result<AskReport, AskError>;

// ---------------------------------------------------------------------
// the pipeline trait
// ---------------------------------------------------------------------

/// An end-to-end question→SQL→result pipeline.
///
/// Implemented by the facade's `DbCopilot`; anything implementing it can
/// be put behind an [`crate::AskService`] (cache + micro-batching + pool
/// dispatch) or evaluated by `dbcopilot-eval`'s end-to-end harness.
pub trait QueryPipeline: Send + Sync {
    /// Answer a question with full control and a full trace.
    fn ask_with(&self, question: &str, opts: &AskOptions) -> Result<AskReport, AskError>;

    /// Answer a question with default options, keeping only the answer.
    fn ask(&self, question: &str) -> Result<Answer, AskError> {
        self.ask_with(question, &AskOptions::default()).map(|r| r.answer)
    }
}

impl<P: QueryPipeline + ?Sized> QueryPipeline for &P {
    fn ask_with(&self, question: &str, opts: &AskOptions) -> Result<AskReport, AskError> {
        (**self).ask_with(question, opts)
    }
}

impl<P: QueryPipeline + ?Sized> QueryPipeline for Box<P> {
    fn ask_with(&self, question: &str, opts: &AskOptions) -> Result<AskReport, AskError> {
        (**self).ask_with(question, opts)
    }
}

impl<P: QueryPipeline + ?Sized> QueryPipeline for std::sync::Arc<P> {
    fn ask_with(&self, question: &str, opts: &AskOptions) -> Result<AskReport, AskError> {
        (**self).ask_with(question, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec_error() -> ExecutionError {
        ExecutionError {
            attempts: vec![SqlAttempt {
                candidate: 0,
                database: "world".into(),
                repair: 0,
                prompt: None,
                sql: Some("SELECT".into()),
                outcome: AttemptOutcome::ExecutionError(EngineError::Parse {
                    message: "unexpected end".into(),
                }),
            }],
            last: EngineError::Parse { message: "unexpected end".into() },
        }
    }

    #[test]
    fn options_builder_clamps_top_k() {
        let o = AskOptions::new().top_k(0);
        assert_eq!(o.top_k, 1);
    }

    #[test]
    fn error_taxonomy_is_std_error_with_sources() {
        let errors: Vec<AskError> = vec![
            AskError::Routing(RoutingError { question: "q".into() }),
            AskError::Prompt(PromptError { candidates: 3 }),
            AskError::Generation(GenerationError { candidates: 3 }),
            AskError::Execution(exec_error()),
        ];
        for e in &errors {
            let dynerr: &dyn std::error::Error = e;
            assert!(!dynerr.to_string().is_empty());
            assert!(dynerr.source().is_some(), "every stage wraps a typed cause: {e}");
        }
        // the execution variant chains down to the engine error
        let exec = &errors[3];
        let source = std::error::Error::source(exec).unwrap();
        let engine = source.source().expect("ExecutionError sources the EngineError");
        assert!(engine.to_string().contains("parse error"));
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(AskError::Prompt(PromptError { candidates: 1 }).stage(), "prompt");
        assert_eq!(AskError::Execution(exec_error()).stage(), "execution");
    }

    #[test]
    fn report_recovered_detects_fallback() {
        let answer = Answer {
            schema: QuerySchema::new("world", vec!["city".into()]),
            sql: "SELECT COUNT(*) FROM city".into(),
            result: ResultSet::empty(),
            recovered_errors: Vec::new(),
        };
        let mut report = AskReport {
            question: "q".into(),
            answer,
            candidates: vec![ScoredCandidate {
                schema: QuerySchema::new("world", vec!["city".into()]),
                logp: -0.5,
            }],
            chosen: 0,
            attempts: Vec::new(),
            timings: StageTimings::default(),
        };
        assert!(!report.recovered());
        report.chosen = 1;
        assert!(report.recovered());
    }
}
