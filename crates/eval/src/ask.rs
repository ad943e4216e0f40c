//! End-to-end *ask* evaluation: drive any [`QueryPipeline`] over a test
//! split and measure what the routing metrics cannot — how many questions
//! are answered at all, how many answers are execution-accurate against
//! gold, where the failures land in the pipeline, and how often the
//! candidate-fallback/repair machinery rescued an answer.

use dbcopilot_serve::{AskError, AskOptions, QueryPipeline};
use dbcopilot_sqlengine::{compare_to_gold, execute, PreparedDb};
use dbcopilot_synth::{Corpus, Instance};
use std::collections::HashMap;

/// Aggregated end-to-end ask metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AskAccuracy {
    pub queries: usize,
    /// Questions answered end to end (`ask_with` returned `Ok`).
    pub answered: usize,
    /// Answered questions whose result matches gold execution, in percent
    /// of all queries (execution accuracy).
    pub ex: f64,
    /// Answers that needed the fallback machinery (a later candidate or a
    /// repair re-prompt).
    pub recovered: usize,
    /// Failures by pipeline stage.
    pub routing_errors: usize,
    pub prompt_errors: usize,
    pub generation_errors: usize,
    pub execution_errors: usize,
    /// Gold queries that failed to execute (corpus defects; counted as
    /// misses).
    pub gold_errors: usize,
    pub(crate) matches: usize,
}

impl AskAccuracy {
    /// Percent of queries answered end to end.
    pub fn answered_pct(&self) -> f64 {
        self.answered as f64 / self.queries.max(1) as f64 * 100.0
    }

    fn merge(&mut self, other: &AskAccuracy) {
        self.queries += other.queries;
        self.answered += other.answered;
        self.recovered += other.recovered;
        self.routing_errors += other.routing_errors;
        self.prompt_errors += other.prompt_errors;
        self.generation_errors += other.generation_errors;
        self.execution_errors += other.execution_errors;
        self.gold_errors += other.gold_errors;
        self.matches += other.matches;
    }

    fn finalize(mut self) -> Self {
        self.ex = self.matches as f64 / self.queries.max(1) as f64 * 100.0;
        self
    }
}

/// Questions per evaluation work unit — fixed (never derived from the
/// thread count) so partial-metric merge order is machine-independent.
const ASK_CHUNK: usize = 32;

/// Evaluate a pipeline end to end over instances, data-parallel over
/// fixed-size question chunks on the persistent worker pool; partial
/// metrics merge in chunk order, so the result is deterministic at any
/// `DBC_THREADS`.
///
/// Execution accuracy re-executes each answer's SQL against the *gold*
/// database and compares to the gold result — an answer that ran on the
/// wrong database scores as a miss even though it executed.
pub fn eval_ask(
    pipeline: &dyn QueryPipeline,
    corpus: &Corpus,
    instances: &[Instance],
    opts: &AskOptions,
) -> AskAccuracy {
    let partials = dbcopilot_runtime::pooled_map_chunks(instances, ASK_CHUNK, |_, part| {
        let mut m = AskAccuracy { queries: part.len(), ..Default::default() };
        // Per-chunk prepared-database cache: instances in a chunk cluster
        // on few databases, so gold + answer execution share one interned
        // copy instead of re-walking `Table` storage per query.
        let mut prepared: HashMap<&str, PreparedDb> = HashMap::new();
        for inst in part {
            match pipeline.ask_with(&inst.question, opts) {
                Ok(report) => {
                    m.answered += 1;
                    if report.recovered() {
                        m.recovered += 1;
                    }
                    let Some(db) = corpus.store.database(&inst.schema.database) else {
                        m.gold_errors += 1;
                        continue;
                    };
                    let pdb = prepared
                        .entry(inst.schema.database.as_str())
                        .or_insert_with(|| PreparedDb::prepare(db));
                    let gold = match execute(pdb, &inst.sql) {
                        Ok(rs) => rs,
                        Err(_) => {
                            m.gold_errors += 1;
                            continue;
                        }
                    };
                    if compare_to_gold(pdb, &gold, &report.answer.sql).is_match() {
                        m.matches += 1;
                    }
                }
                Err(AskError::Routing(_)) => m.routing_errors += 1,
                Err(AskError::Prompt(_)) => m.prompt_errors += 1,
                Err(AskError::Generation(_)) => m.generation_errors += 1,
                Err(AskError::Execution(_)) => m.execution_errors += 1,
                Err(_) => m.generation_errors += 1, // non_exhaustive future stages
            }
        }
        m
    });
    let mut total = AskAccuracy::default();
    for p in &partials {
        total.merge(p);
    }
    total.finalize()
}

/// Render a small comparison table of ask configurations (the end-to-end
/// section of Table 5, `exp_quality table5`).
pub fn render_ask_table(rows: &[(String, AskAccuracy)]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22} {:>9} {:>7} {:>10} {:>7} {:>7} {:>7} {:>7}\n",
        "Config", "Answered", "EX", "Recovered", "RouteE", "PromE", "GenE", "ExecE"
    ));
    for (name, m) in rows {
        out.push_str(&format!(
            "{:<22} {:>8.1}% {:>6.1}% {:>10} {:>7} {:>7} {:>7} {:>7}\n",
            name,
            m.answered_pct(),
            m.ex,
            m.recovered,
            m.routing_errors,
            m.prompt_errors,
            m.generation_errors,
            m.execution_errors,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbcopilot_serve::{
        Answer, AskReport, ExecutionError, ScoredCandidate, SqlAttempt, StageTimings,
    };
    use dbcopilot_sqlengine::EngineError;

    /// A pipeline that answers by executing the instance's own gold SQL
    /// when the question embeds it, else fails at a chosen stage.
    struct GoldEcho {
        corpus: Corpus,
    }

    impl QueryPipeline for GoldEcho {
        fn ask_with(
            &self,
            question: &str,
            _opts: &AskOptions,
        ) -> Result<AskReport, dbcopilot_serve::AskError> {
            let inst = self
                .corpus
                .test
                .iter()
                .find(|i| i.question == question)
                .expect("question from the test split");
            if question.len().is_multiple_of(5) {
                // deterministic subset of failures, stage execution
                let last = EngineError::Parse { message: "truncated".into() };
                return Err(dbcopilot_serve::AskError::Execution(ExecutionError {
                    attempts: vec![SqlAttempt {
                        candidate: 0,
                        database: inst.schema.database.clone(),
                        repair: 0,
                        prompt: None,
                        sql: Some("SELECT".into()),
                        outcome: dbcopilot_serve::AttemptOutcome::ExecutionError(last.clone()),
                    }],
                    last,
                }));
            }
            let db = self.corpus.store.database(&inst.schema.database).unwrap();
            let result = execute(&PreparedDb::prepare(db), &inst.sql).unwrap();
            Ok(AskReport {
                question: question.to_string(),
                answer: Answer {
                    schema: inst.schema.clone(),
                    sql: inst.sql.clone(),
                    result,
                    recovered_errors: Vec::new(),
                },
                candidates: vec![ScoredCandidate { schema: inst.schema.clone(), logp: 0.0 }],
                chosen: 0,
                attempts: Vec::new(),
                timings: StageTimings::default(),
            })
        }
    }

    fn tiny_corpus() -> Corpus {
        dbcopilot_synth::build_spider_like(
            &dbcopilot_synth::CorpusSizes { num_databases: 4, train_n: 40, test_n: 20 },
            13,
        )
    }

    #[test]
    fn gold_echo_scores_perfect_ex_on_answered() {
        let corpus = tiny_corpus();
        let pipeline = GoldEcho { corpus: tiny_corpus() };
        let m = eval_ask(&pipeline, &corpus, &corpus.test, &AskOptions::default());
        assert_eq!(m.queries, corpus.test.len());
        assert_eq!(m.answered + m.execution_errors, m.queries);
        assert!(m.answered > 0, "{m:?}");
        // every answered question echoed gold SQL → every answer matches
        assert!((m.ex - m.answered_pct()).abs() < 1e-9, "{m:?}");
    }

    #[test]
    fn eval_ask_is_deterministic_across_thread_counts() {
        let corpus = tiny_corpus();
        let pipeline = GoldEcho { corpus: tiny_corpus() };
        let opts = AskOptions::default();
        let a = dbcopilot_runtime::with_thread_count(1, || {
            eval_ask(&pipeline, &corpus, &corpus.test, &opts)
        });
        let b = dbcopilot_runtime::with_thread_count(2, || {
            eval_ask(&pipeline, &corpus, &corpus.test, &opts)
        });
        assert_eq!(a, b);
    }

    #[test]
    fn render_table_lists_configs() {
        let rows = vec![("k=1".to_string(), AskAccuracy::default())];
        let text = render_ask_table(&rows);
        assert!(text.contains("k=1"));
        assert!(text.contains("Answered"));
    }
}
