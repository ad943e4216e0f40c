//! # DBCopilot — natural language querying over massive databases
//!
//! A complete Rust reproduction of *DBCopilot: Natural Language Querying
//! over Massive Databases via Schema Routing* (EDBT 2025). The crate
//! re-exports the full workspace and provides [`DbCopilot`], the end-to-end
//! pipeline of the paper's Figure 1:
//!
//! 1. **Schema routing** — a compact generative-retrieval model
//!    ([`dbcopilot_core::DbcRouter`]) navigates a question to its target
//!    database and tables under graph-constrained diverse beam search;
//! 2. **SQL generation** — an LLM (here the offline
//!    [`dbcopilot_nl2sql::CopilotLM`]) receives the routed schema in a
//!    schema-aware prompt and emits SQL, which executes on the in-memory
//!    engine ([`dbcopilot_sqlengine`]).
//!
//! The pipeline is *staged and fallible*: [`DbCopilot::ask`] walks the
//! router's top-k candidate schemata, re-prompts the LLM with the engine
//! error when generated SQL fails (execution-feedback repair), and
//! returns `Result<Answer, AskError>` — a typed error naming the stage
//! that failed instead of a silent `None`. [`DbCopilot::ask_with`]
//! additionally returns the full [`AskReport`] trace: scored candidates,
//! every SQL attempt with its outcome, per-stage timings.
//!
//! ```no_run
//! use dbcopilot::{AskOptions, DbCopilot, PipelineConfig};
//! use dbcopilot_synth::{build_spider_like, CorpusSizes};
//!
//! let corpus = build_spider_like(&CorpusSizes { num_databases: 20, train_n: 500, test_n: 50 }, 7);
//! let copilot = DbCopilot::fit(&corpus, PipelineConfig::default());
//! match copilot.ask("How many singers are there?") {
//!     Ok(answer) => println!("{} -> {} rows", answer.sql, answer.result.rows.len()),
//!     Err(e) => eprintln!("failed at the {} stage: {e}", e.stage()),
//! }
//! let report = copilot.ask_with("How many singers are there?", &AskOptions::new().top_k(5));
//! ```

pub use dbcopilot_core as core;
pub use dbcopilot_eval as eval;
pub use dbcopilot_graph as graph;
pub use dbcopilot_http as http;
pub use dbcopilot_nl2sql as nl2sql;
pub use dbcopilot_nn as nn;
pub use dbcopilot_retrieval as retrieval;
pub use dbcopilot_runtime as runtime;
pub use dbcopilot_serve as serve;
pub use dbcopilot_sqlengine as sqlengine;
pub use dbcopilot_synth as synth;

use std::time::{Duration, Instant};

use dbcopilot_core::{DbcRouter, RouterConfig, SerializationMode};
use dbcopilot_graph::{QuerySchema, SchemaGraph};
use dbcopilot_nl2sql::{basic_prompt, repair_prompt, CopilotLM, LlmConfig, PromptSchema};
use dbcopilot_sqlengine::{execute, EngineError, PreparedStore};
use dbcopilot_synth::{questioner_pairs, Corpus, Questioner, QuestionerConfig};

pub use dbcopilot_serve::{
    Answer, AskError, AskOptions, AskReport, AttemptOutcome, ExecutionError, GenerationError,
    PromptError, QueryPipeline, RoutingError, ScoredCandidate, SqlAttempt, StageTimings,
    TraceLevel,
};

/// End-to-end pipeline configuration. Builder-style so adding a knob is
/// not a breaking change:
///
/// ```
/// use dbcopilot::PipelineConfig;
/// let cfg = PipelineConfig::new().synth_pairs(1000).seed(7);
/// assert_eq!(cfg.synth_pairs, 1000);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct PipelineConfig {
    pub router: RouterConfig,
    pub llm: LlmConfig,
    /// Synthetic training pairs for the router.
    pub synth_pairs: usize,
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            router: RouterConfig::default(),
            llm: LlmConfig::default(),
            synth_pairs: 4000,
            seed: 0xdbc,
        }
    }
}

impl PipelineConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn router(mut self, router: RouterConfig) -> Self {
        self.router = router;
        self
    }

    pub fn llm(mut self, llm: LlmConfig) -> Self {
        self.llm = llm;
        self
    }

    pub fn synth_pairs(mut self, n: usize) -> Self {
        self.synth_pairs = n;
        self
    }

    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The LLM-copilot collaboration pipeline (paper Figure 1).
pub struct DbCopilot {
    pub router: DbcRouter,
    pub llm: CopilotLM,
    corpus_collection: dbcopilot_sqlengine::Collection,
    /// Databases with interned cells, prepared lazily per database on
    /// first execution and reused across every ask/repair round after.
    corpus_store: PreparedStore,
}

impl DbCopilot {
    /// Train the full pipeline over a corpus: schema graph construction,
    /// questioner training, training-data synthesis, and router fitting.
    pub fn fit(corpus: &Corpus, cfg: PipelineConfig) -> Self {
        let mut graph = SchemaGraph::build(&corpus.collection);
        dbcopilot_graph::augment_graph_with_joinable(
            &mut graph,
            &corpus.store,
            dbcopilot_graph::joinable::DEFAULT_JACCARD_THRESHOLD,
        );
        let pairs = questioner_pairs(corpus);
        let questioner = Questioner::train(&pairs, &QuestionerConfig::default());
        let examples = dbcopilot_core::synthesize_training_data(
            &graph,
            &corpus.meta,
            &questioner,
            cfg.synth_pairs,
            cfg.seed,
        );
        let (router, _) = DbcRouter::fit(graph, &examples, cfg.router, SerializationMode::Dfs);
        DbCopilot {
            router,
            llm: CopilotLM::new(cfg.llm),
            corpus_collection: corpus.collection.clone(),
            corpus_store: PreparedStore::new(corpus.store.clone()),
        }
    }

    /// Assemble a pipeline from an already-trained router (e.g. one loaded
    /// via [`dbcopilot_core::load_router_slice`], or a shared test fixture) and
    /// the corpus it should answer over.
    pub fn from_parts(
        router: DbcRouter,
        llm_cfg: LlmConfig,
        collection: dbcopilot_sqlengine::Collection,
        store: dbcopilot_sqlengine::Store,
    ) -> Self {
        DbCopilot {
            router,
            llm: CopilotLM::new(llm_cfg),
            corpus_collection: collection,
            corpus_store: PreparedStore::new(store),
        }
    }

    /// Route a question to its best schema.
    pub fn route(&self, question: &str) -> Option<QuerySchema> {
        self.router.best_schema(question)
    }

    /// Full pipeline with default options (top-3 candidate fallback, one
    /// execution-feedback repair): route, prompt, generate SQL, execute.
    ///
    /// `Ok` means the question was answered end to end — the returned
    /// [`Answer`] holds the executed SQL and its result (plus any
    /// execution errors recovered from along the way). `Err` names the
    /// stage that exhausted its options.
    pub fn ask(&self, question: &str) -> Result<Answer, AskError> {
        self.ask_with(question, &AskOptions::default()).map(|r| r.answer)
    }

    /// Full pipeline with explicit [`AskOptions`], returning the complete
    /// [`AskReport`] trace (scored candidates, every SQL attempt with its
    /// outcome, per-stage timings).
    pub fn ask_with(&self, question: &str, opts: &AskOptions) -> Result<AskReport, AskError> {
        let start = Instant::now();
        let decoded = self.router.route_schemata(question);
        let route_time = start.elapsed();
        let candidates: Vec<ScoredCandidate> = decoded
            .into_iter()
            .take(opts.top_k.max(1))
            .map(|d| ScoredCandidate { schema: d.schema, logp: d.logp })
            .collect();
        if candidates.is_empty() {
            return Err(AskError::Routing(RoutingError { question: question.to_string() }));
        }
        self.ask_candidates_inner(question, candidates, opts, start, route_time)
    }

    /// The candidate-fallback loop over an explicit candidate list (what
    /// [`ask_with`](DbCopilot::ask_with) runs after routing). Public so the
    /// loop is testable — and steerable — with hand-picked candidates.
    pub fn ask_candidates(
        &self,
        question: &str,
        candidates: Vec<ScoredCandidate>,
        opts: &AskOptions,
    ) -> Result<AskReport, AskError> {
        let start = Instant::now();
        if candidates.is_empty() {
            return Err(AskError::Routing(RoutingError { question: question.to_string() }));
        }
        self.ask_candidates_inner(question, candidates, opts, start, Duration::ZERO)
    }

    fn ask_candidates_inner(
        &self,
        question: &str,
        candidates: Vec<ScoredCandidate>,
        opts: &AskOptions,
        start: Instant,
        route_time: Duration,
    ) -> Result<AskReport, AskError> {
        let mut attempts: Vec<SqlAttempt> = Vec::new();
        let mut exec_errors: Vec<EngineError> = Vec::new();
        let mut generate_time = Duration::ZERO;
        let mut execute_time = Duration::ZERO;
        let mut resolved_any = false;
        let mut generated_any = false;

        for (ci, cand) in candidates.iter().enumerate() {
            let prompt_schema = PromptSchema::resolve(&self.corpus_collection, &cand.schema);
            if prompt_schema.tables.is_empty() {
                continue; // candidate names no known tables
            }
            let Some(pdb) = self.corpus_store.prepared(&cand.schema.database) else {
                continue; // candidate database has no populated instance
            };
            resolved_any = true;

            // Initial attempt, then up to `repair_attempts` re-prompts fed
            // with the failed SQL and its engine error. Identifiers the
            // engine rejects accumulate out of `pruned` so an identifier
            // dropped on round 1 cannot sneak back on round 2.
            let mut feedback: Option<(String, EngineError)> = None;
            let mut pruned = prompt_schema.clone();
            for repair in 0..=opts.repair_attempts {
                let gen_start = Instant::now();
                let (prompt, out) = match &feedback {
                    None => {
                        let p = basic_prompt(&prompt_schema, question);
                        let o = self.llm.generate_sql(&p, question);
                        (p, o)
                    }
                    Some((failed_sql, err)) => {
                        let p = repair_prompt(&pruned, question, failed_sql, &err.to_string());
                        let o = self
                            .llm
                            .generate_sql_with_feedback(&p, question, failed_sql, err, repair);
                        (p, o)
                    }
                };
                generate_time += gen_start.elapsed();
                let prompt_text = (opts.trace == TraceLevel::Full).then(|| prompt.text.clone());

                let Some(sql) = out.sql else {
                    attempts.push(SqlAttempt {
                        candidate: ci,
                        database: cand.schema.database.clone(),
                        repair,
                        prompt: prompt_text,
                        sql: None,
                        outcome: AttemptOutcome::NoSql,
                    });
                    break; // grounding failed: feedback cannot conjure missing tables
                };
                generated_any = true;

                let exec_start = Instant::now();
                let executed = execute(pdb, &sql);
                execute_time += exec_start.elapsed();
                match executed {
                    Ok(result) => {
                        attempts.push(SqlAttempt {
                            candidate: ci,
                            database: cand.schema.database.clone(),
                            repair,
                            prompt: prompt_text,
                            sql: Some(sql.clone()),
                            outcome: AttemptOutcome::Success { rows: result.rows.len() },
                        });
                        let answer = Answer {
                            schema: cand.schema.clone(),
                            sql,
                            result,
                            recovered_errors: exec_errors,
                        };
                        return Ok(AskReport {
                            question: question.to_string(),
                            answer,
                            candidates,
                            chosen: ci,
                            attempts,
                            timings: StageTimings {
                                route: route_time,
                                generate: generate_time,
                                execute: execute_time,
                                total: start.elapsed(),
                            },
                        });
                    }
                    Err(err) => {
                        // Failed attempts are the failure report.
                        attempts.push(SqlAttempt {
                            candidate: ci,
                            database: cand.schema.database.clone(),
                            repair,
                            prompt: prompt_text,
                            sql: Some(sql.clone()),
                            outcome: AttemptOutcome::ExecutionError(err.clone()),
                        });
                        exec_errors.push(err.clone());
                        if let Some(ident) = err.offending_identifier() {
                            pruned = pruned.without_identifier(ident);
                        }
                        feedback = Some((sql, err));
                    }
                }
            }
            // repairs exhausted on this candidate → walk to the next
        }

        Err(match exec_errors.last() {
            Some(last) => {
                let last = last.clone();
                AskError::Execution(ExecutionError { attempts, last })
            }
            None if resolved_any => {
                debug_assert!(!generated_any, "generated SQL must succeed or error");
                AskError::Generation(GenerationError { candidates: candidates.len() })
            }
            None => AskError::Prompt(PromptError { candidates: candidates.len() }),
        })
    }

    /// Ask a batch of questions, data-parallel over the persistent worker
    /// pool in `dbcopilot-runtime`. Outcomes are in question order and
    /// bit-for-bit identical at any `DBC_THREADS` value (each question is
    /// answered independently; no state is shared across items).
    pub fn ask_batch(
        &self,
        questions: &[String],
        opts: &AskOptions,
    ) -> Vec<Result<AskReport, AskError>> {
        dbcopilot_runtime::pooled_map(questions, |_, q| self.ask_with(q, opts))
    }

    /// Share this pipeline read-only across threads (the serving entry
    /// point for [`dbcopilot_serve::AskService`]).
    pub fn into_shared(self) -> std::sync::Arc<DbCopilot> {
        std::sync::Arc::new(self)
    }
}

impl QueryPipeline for DbCopilot {
    fn ask_with(&self, question: &str, opts: &AskOptions) -> Result<AskReport, AskError> {
        DbCopilot::ask_with(self, question, opts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcopilot_synth::{build_spider_like, CorpusSizes};

    #[test]
    fn pipeline_end_to_end() {
        let corpus =
            build_spider_like(&CorpusSizes { num_databases: 8, train_n: 200, test_n: 20 }, 11);
        let mut cfg = PipelineConfig::default();
        cfg.router.epochs = 5;
        cfg.synth_pairs = 800;
        let copilot = DbCopilot::fit(&corpus, cfg);
        // ask every test question; at least some should execute end to end
        let mut executed = 0;
        for inst in corpus.test.iter().take(10) {
            if let Ok(ans) = copilot.ask(&inst.question) {
                assert!(!ans.sql.is_empty());
                executed += 1;
            }
        }
        assert!(executed > 0, "pipeline should answer at least one question");
    }
}
