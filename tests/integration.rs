//! Cross-crate integration tests: the full pipeline at small scale.
//!
//! Router training dominates this suite's wall time, so the accuracy tests
//! share two `OnceLock` fixtures: a prepared Spider-like benchmark
//! ([`prepared`]) and a single router trained once on its synthetic pairs
//! ([`fixture`]) — train once, assert many.

use std::sync::OnceLock;

use dbcopilot::eval::{
    build_method, eval_routing, prepare, CorpusKind, MethodKind, Prepared, Scale,
};
use dbcopilot::nl2sql::LlmConfig;
use dbcopilot::{AskOptions, DbCopilot, PipelineConfig};
use dbcopilot_core::{DbcRouter, SerializationMode};
use dbcopilot_synth::{build_spider_like, CorpusSizes};

fn test_scale() -> Scale {
    let mut s = Scale::quick();
    s.spider = CorpusSizes { num_databases: 12, train_n: 300, test_n: 60 };
    s.synth_pairs = 900;
    s.router.epochs = 6;
    s
}

/// Shared prepared benchmark (corpus + graph + synthetic pairs), built once.
fn prepared() -> &'static Prepared {
    static PREP: OnceLock<Prepared> = OnceLock::new();
    PREP.get_or_init(|| prepare(CorpusKind::Spider, &test_scale()))
}

/// Shared once-trained pipeline around the one fixture router
/// (`fixture().router` for routing-metric tests, `.ask` for end-to-end).
/// Separate from [`prepared`] so tests that only need the benchmark don't
/// pay for training.
fn fixture() -> &'static DbCopilot {
    static FIX: OnceLock<DbCopilot> = OnceLock::new();
    FIX.get_or_init(|| {
        let p = prepared();
        let (router, _) = DbcRouter::fit(
            p.graph.clone(),
            &p.synth_examples,
            test_scale().router.clone(),
            SerializationMode::Dfs,
        );
        DbCopilot::from_parts(
            router,
            LlmConfig::default(),
            p.corpus.collection.clone(),
            p.corpus.store.clone(),
        )
    })
}

#[test]
fn router_beats_zero_shot_bm25_on_synonym_questions() {
    // The paper's robustness claim (Table 4): lexical retrieval collapses
    // under synonym substitution; the trained router does not.
    let p = prepared();
    let scale = test_scale();
    let syn = p.corpus.test_syn.as_ref().unwrap();

    let (bm25, _) = build_method(MethodKind::Bm25, p, &scale);
    let m_bm25 = eval_routing(bm25.as_ref(), syn, 100);
    let m_dbc = eval_routing(&fixture().router, syn, 100);
    assert!(
        m_dbc.db_r1 > m_bm25.db_r1,
        "router {:.1} should beat BM25 {:.1} on synonym questions",
        m_dbc.db_r1,
        m_bm25.db_r1
    );
}

#[test]
fn routed_schemata_are_always_valid() {
    // Constrained decoding guarantees every candidate is a valid schema on
    // the graph, for arbitrary questions (§3.5) — even for an untrained
    // model, so this uses the shared benchmark but no trained fixture.
    let p = prepared();
    let router = DbcRouter::untrained(p.graph.clone(), test_scale().router.clone());
    for q in [
        "how many things are there",
        "zorgon blaster quux",
        "",
        "list the names of vocalists that are associated with the live show named 'X'",
    ] {
        for cand in router.route_schemata(q) {
            assert!(
                p.graph.is_valid_schema(&cand.schema),
                "invalid schema {} for question {q:?}",
                cand.schema
            );
        }
    }
}

#[test]
fn smoke_quickstart_pipeline() {
    // Fast end-to-end smoke: the quickstart pipeline on a tiny corpus must
    // route at least one test question to a non-empty schema and execute the
    // generated SQL to a ResultSet. Keeps the zero-to-working path honest
    // without the cost of the accuracy-threshold tests below.
    let corpus = build_spider_like(&CorpusSizes { num_databases: 4, train_n: 80, test_n: 10 }, 7);
    let mut cfg = PipelineConfig::default();
    cfg.router.epochs = 8;
    cfg.synth_pairs = 300;
    let copilot = DbCopilot::fit(&corpus, cfg);

    let mut routed_nonempty = false;
    let mut executed = false;
    for inst in &corpus.test {
        if let Ok(ans) = copilot.ask(&inst.question) {
            if !ans.schema.database.is_empty() && !ans.schema.tables.is_empty() {
                routed_nonempty = true;
            }
            executed = true; // Ok means the SQL executed to a ResultSet
        }
        if routed_nonempty && executed {
            break;
        }
    }
    assert!(routed_nonempty, "no question routed to a non-empty schema");
    assert!(executed, "no generated SQL executed to a ResultSet");
}

#[test]
fn full_pipeline_answers_questions() {
    let copilot = fixture();
    let mut routed_right = 0;
    let mut executed = 0;
    for inst in &prepared().corpus.test {
        if let Ok(ans) = copilot.ask(&inst.question) {
            if ans.schema.database.eq_ignore_ascii_case(&inst.schema.database) {
                routed_right += 1;
            }
            executed += 1;
        }
    }
    let n = prepared().corpus.test.len();
    assert!(routed_right > 0, "no question routed to the right database");
    assert!(executed > n / 4, "only {executed}/{n} questions executed end to end");
}

#[test]
fn topk_fallback_with_repair_answers_strictly_more_questions() {
    // The redesign's acceptance bar: walking the router's top-3
    // candidates with one execution-feedback repair answers strictly more
    // test questions end to end than the old single-candidate path — and
    // never loses one (the fallback loop starts from the same candidate).
    let copilot = fixture();
    let single_opts = AskOptions::first_candidate();
    let fallback_opts = AskOptions::new().top_k(3).repair_attempts(1);
    let mut single = 0usize;
    let mut fallback = 0usize;
    let mut regressions = Vec::new();
    for inst in &prepared().corpus.test {
        let s = copilot.ask_with(&inst.question, &single_opts).is_ok();
        let f = copilot.ask_with(&inst.question, &fallback_opts).is_ok();
        single += s as usize;
        fallback += f as usize;
        if s && !f {
            regressions.push(inst.question.clone());
        }
    }
    assert!(regressions.is_empty(), "fallback lost answers: {regressions:?}");
    assert!(
        fallback > single,
        "top-3 + repair ({fallback}) must answer strictly more than single-candidate ({single})"
    );
}

#[test]
fn recovered_answers_surface_their_execution_errors() {
    // Satellite of the redesign: execution errors are never dropped — an
    // answer that needed the fallback machinery reports what failed, and a
    // terminal failure carries the typed engine error chain.
    let copilot = fixture();
    let opts = AskOptions::new().top_k(3).repair_attempts(1);
    let mut saw_recovered_error = false;
    for inst in &prepared().corpus.test {
        match copilot.ask_with(&inst.question, &opts) {
            Ok(report) => {
                for err in &report.answer.recovered_errors {
                    saw_recovered_error = true;
                    assert!(!err.to_string().is_empty());
                }
            }
            Err(dbcopilot::AskError::Execution(e)) => {
                saw_recovered_error = true;
                assert!(!e.attempts.is_empty(), "execution failure must carry its attempts");
            }
            Err(_) => {}
        }
    }
    // With the default 3% malformed-SQL rate over 60 questions × up to 3
    // candidates, at least one execution error must have surfaced.
    assert!(saw_recovered_error, "no execution error surfaced anywhere in the corpus");
}

#[test]
fn quantized_routing_matches_f32_recall_and_candidate_order() {
    // The quantized hot path must be quality-invisible at quick scale:
    // R@1/R@5 within one point of the f32 reference, and the ranked
    // candidate list identical on (nearly) every eval question. The i8
    // router is a bit-exact codec round-trip of the shared fixture, so the
    // only difference between the two runs is the precision knob.
    use dbcopilot::retrieval::SchemaRouter;
    use dbcopilot_core::{load_router_slice, router_to_vec, PrecisionSwitch, RoutePrecision};

    let p = prepared();
    let f32_router = &fixture().router;
    let buf = router_to_vec(f32_router).expect("fixture router must serialize");
    let mut i8_router = load_router_slice(&buf).expect("fixture bundle must load");
    i8_router.set_precision(RoutePrecision::I8);

    let m_f32 = eval_routing(f32_router, &p.corpus.test, 100);
    let m_i8 = eval_routing(&i8_router, &p.corpus.test, 100);
    assert!(
        (m_f32.db_r1 - m_i8.db_r1).abs() <= 1.0,
        "i8 R@1 {:.1} drifted more than a point from f32 {:.1}",
        m_i8.db_r1,
        m_f32.db_r1
    );
    assert!(
        (m_f32.db_r5 - m_i8.db_r5).abs() <= 1.0,
        "i8 R@5 {:.1} drifted more than a point from f32 {:.1}",
        m_i8.db_r5,
        m_f32.db_r5
    );

    let mut identical = 0usize;
    for inst in &p.corpus.test {
        let a = f32_router.route(&inst.question, 100);
        let b = i8_router.route(&inst.question, 100);
        identical += (a.database_names() == b.database_names()) as usize;
    }
    let frac = identical as f64 / p.corpus.test.len() as f64;
    assert!(
        frac >= 0.95,
        "i8 candidate order matches f32 on only {identical}/{} questions",
        p.corpus.test.len()
    );
}

#[test]
fn experiments_are_deterministic() {
    let scale = test_scale();
    let a = {
        let p = prepare(CorpusKind::Spider, &scale);
        let (bm25, _) = build_method(MethodKind::Bm25, &p, &scale);
        eval_routing(bm25.as_ref(), &p.corpus.test, 100)
    };
    let b = {
        let p = prepare(CorpusKind::Spider, &scale);
        let (bm25, _) = build_method(MethodKind::Bm25, &p, &scale);
        eval_routing(bm25.as_ref(), &p.corpus.test, 100)
    };
    assert_eq!(a, b, "same seed must give identical metrics");
}
