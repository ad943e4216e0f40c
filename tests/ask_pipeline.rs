//! The staged ask pipeline: seeded candidate-fallback and repair cases,
//! pooled `ask_batch` bit-identity across thread counts, and
//! `AskService` parity with direct asks.
//!
//! Shares one small trained pipeline across tests (`OnceLock` — train
//! once, assert many).

use std::sync::OnceLock;

use dbcopilot::nl2sql::LlmConfig;
use dbcopilot::serve::{AskService, ServiceConfig};
use dbcopilot::{
    AskError, AskOptions, AttemptOutcome, DbCopilot, PipelineConfig, ScoredCandidate, TraceLevel,
};
use dbcopilot_graph::QuerySchema;
use dbcopilot_synth::{build_spider_like, Corpus, CorpusSizes};

fn corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        build_spider_like(&CorpusSizes { num_databases: 8, train_n: 200, test_n: 30 }, 11)
    })
}

fn fixture() -> &'static DbCopilot {
    static FIX: OnceLock<DbCopilot> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut cfg = PipelineConfig::default();
        cfg.router.epochs = 6;
        cfg.synth_pairs = 700;
        DbCopilot::fit(corpus(), cfg)
    })
}

/// A gold candidate for the corpus' first test instance, plus a decoy
/// candidate that cannot ground the question (tables from an unrelated
/// database).
fn gold_and_decoy() -> (QuerySchema, QuerySchema) {
    let c = corpus();
    let inst = &c.test[0];
    let gold = inst.schema.clone();
    let decoy_db = c
        .collection
        .databases
        .keys()
        .find(|name| !name.eq_ignore_ascii_case(&gold.database))
        .expect("corpus has several databases");
    let tables = c.collection.database(decoy_db).unwrap().tables.iter().map(|t| t.name.clone());
    (gold, QuerySchema::new(decoy_db.clone(), tables.collect()))
}

#[test]
fn candidate_fallback_recovers_when_first_candidate_cannot_ground() {
    // Candidate #1 is a decoy schema from the wrong database: grounding
    // fails (NoSql). Candidate #2 is gold: the walk recovers the answer.
    let copilot = fixture();
    let inst = &corpus().test[0];
    let (gold, decoy) = gold_and_decoy();

    let single = copilot.ask_candidates(
        &inst.question,
        vec![ScoredCandidate { schema: decoy.clone(), logp: -0.1 }],
        &AskOptions::first_candidate().trace(TraceLevel::Stages),
    );
    // decoy alone must not answer via the gold path
    match &single {
        Ok(report) => assert!(
            !report.answer.schema.database.eq_ignore_ascii_case(&gold.database),
            "decoy-only ask cannot reach the gold database"
        ),
        Err(e) => assert_ne!(e.stage(), "routing"),
    }

    let report = copilot
        .ask_candidates(
            &inst.question,
            vec![
                ScoredCandidate { schema: decoy, logp: -0.1 },
                ScoredCandidate { schema: gold.clone(), logp: -0.2 },
            ],
            &AskOptions::new().top_k(2).trace(TraceLevel::Stages),
        )
        .expect("gold candidate must answer");
    assert_eq!(report.chosen, 1, "the walk must fall through to candidate #2");
    assert!(report.recovered());
    assert!(
        report.answer.schema.database.eq_ignore_ascii_case(&gold.database),
        "answer must come from the gold candidate"
    );
    // the trace shows what happened on the decoy (either no SQL, or SQL
    // that failed/ran against the decoy db before the walk moved on)
    assert!(report.attempts.iter().any(|a| a.candidate == 0 || a.candidate == 1));
    assert!(matches!(report.attempts.last().unwrap().outcome, AttemptOutcome::Success { .. }));
}

#[test]
fn repair_reprompt_recovers_failing_sql_within_one_candidate() {
    // A slip-heavy LLM (60% truncated SQL) over the gold candidate only:
    // find seeded questions where the first attempt yields failing SQL and
    // one execution-feedback repair recovers the answer.
    let c = corpus();
    let slippy = DbCopilot::from_parts(
        dbcopilot_core::load_router_slice(
            &dbcopilot_core::router_to_vec(&fixture().router).unwrap(),
        )
        .unwrap(),
        LlmConfig::perfect().seed(5).malformed_sql(0.6),
        c.collection.clone(),
        c.store.clone(),
    );

    let mut repaired = 0;
    let mut first_shot = 0;
    for inst in &c.test {
        let gold_cand = || vec![ScoredCandidate { schema: inst.schema.clone(), logp: 0.0 }];
        let strict =
            slippy.ask_candidates(&inst.question, gold_cand(), &AskOptions::first_candidate());
        let lenient = slippy.ask_candidates(
            &inst.question,
            gold_cand(),
            &AskOptions::new().top_k(1).repair_attempts(2).trace(TraceLevel::Full),
        );
        match (&strict, &lenient) {
            (Err(AskError::Execution(e)), Ok(report)) => {
                // candidate #1 yielded failing SQL; the repair re-prompt
                // succeeded where no-repair failed
                assert!(!e.attempts.is_empty());
                assert!(report.recovered(), "repair success must be marked recovered");
                assert!(!report.answer.recovered_errors.is_empty());
                let last = report.attempts.last().unwrap();
                assert!(last.repair > 0, "the winning attempt must be a repair turn");
                let prompt = last.prompt.as_deref().expect("TraceLevel::Full keeps prompts");
                assert!(prompt.contains("Failed SQL:"), "repair prompt carries the failed SQL");
                repaired += 1;
            }
            (Ok(_), Ok(_)) => first_shot += 1,
            _ => {}
        }
    }
    assert!(first_shot > 0, "some questions answer first shot even at 60% slip rate");
    assert!(repaired > 0, "repair must rescue at least one failing-SQL question");
}

#[test]
fn ask_batch_is_bit_identical_across_thread_counts() {
    let copilot = fixture();
    let questions: Vec<String> =
        corpus().test.iter().take(16).map(|i| i.question.clone()).collect();
    let opts = AskOptions::new().top_k(3).repair_attempts(1).trace(TraceLevel::Full);
    let runs: Vec<_> = [1usize, 2]
        .iter()
        .map(|&n| dbcopilot::runtime::with_thread_count(n, || copilot.ask_batch(&questions, &opts)))
        .collect();
    assert_eq!(runs[0].len(), questions.len());
    for (a, b) in runs[0].iter().zip(&runs[1]) {
        match (a, b) {
            (Ok(x), Ok(y)) => {
                // everything but wall-clock timings must be bit-identical
                assert_eq!(x.answer, y.answer);
                assert_eq!(x.candidates, y.candidates);
                assert_eq!(x.chosen, y.chosen);
                assert_eq!(x.attempts, y.attempts);
            }
            (Err(x), Err(y)) => assert_eq!(x, y),
            (x, y) => panic!("outcomes diverge across thread counts: {x:?} vs {y:?}"),
        }
    }
}

#[test]
fn ask_service_answers_identical_to_direct_ask() {
    let copilot = fixture();
    let opts = AskOptions::new().top_k(3).repair_attempts(1);
    let service = AskService::new(std::sync::Arc::new(copilot), opts.clone(), ServiceConfig::new());
    let questions: Vec<String> = corpus().test.iter().map(|i| i.question.clone()).collect();
    let served = service.ask_many(&questions);
    let mut answered = 0;
    for (outcome, q) in served.iter().zip(&questions) {
        let direct = copilot.ask_with(q, &opts);
        match (outcome.as_ref(), &direct) {
            (Ok(s), Ok(d)) => {
                answered += 1;
                assert_eq!(s.answer, d.answer, "question {q:?}");
                assert_eq!(s.chosen, d.chosen, "question {q:?}");
            }
            (Err(s), Err(d)) => assert_eq!(s, d, "question {q:?}"),
            (s, d) => panic!("served {s:?} vs direct {d:?} disagree for {q:?}"),
        }
    }
    assert!(answered > 0, "service must answer some questions");

    // a second pass is all cache hits and metric-identical
    let again = service.ask_many(&questions);
    for (a, b) in served.iter().zip(&again) {
        match (a.as_ref(), b.as_ref()) {
            (Ok(x), Ok(y)) => assert_eq!(x.answer, y.answer),
            (Err(x), Err(y)) => assert_eq!(x, y),
            _ => panic!("cached outcome changed"),
        }
    }
    assert!(service.stats().cache_hits >= questions.len() as u64);
}

#[test]
fn empty_candidates_surface_a_routing_error() {
    let copilot = fixture();
    let err = copilot
        .ask_candidates("How many singers are there?", Vec::new(), &AskOptions::default())
        .expect_err("no candidates cannot answer");
    assert_eq!(err.stage(), "routing");
    assert!(err.to_string().contains("no candidate"));
}

#[test]
fn unresolvable_candidates_surface_a_prompt_error() {
    let copilot = fixture();
    let ghost = ScoredCandidate {
        schema: QuerySchema::new("no_such_database", vec!["ghost_table".into()]),
        logp: 0.0,
    };
    let err = copilot
        .ask_candidates("How many singers are there?", vec![ghost], &AskOptions::default())
        .expect_err("unknown database cannot answer");
    assert_eq!(err.stage(), "prompt");
}
