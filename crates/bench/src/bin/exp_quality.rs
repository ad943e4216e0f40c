//! The paper's evaluation in one program: Tables 2–7 and Figures 7 and 10.
//!
//! ```sh
//! DBC_SCALE=quick cargo run --release --bin exp_quality                 # every table
//! DBC_SCALE=quick cargo run --release --bin exp_quality -- table3 fig7  # just these
//! ```
//!
//! Table names: `table2` … `table7`, `fig7`, `fig10`; they print in the
//! order given. Every table reads one [`Workbench`], so a run prepares each
//! corpus once and builds each (corpus, method) once, however many tables
//! use it. Table 5 is the only one whose output holds timings; the others
//! print the same bytes at any `DBC_THREADS`.

use std::sync::Arc;
use std::time::Duration;

use dbcopilot::{AskOptions, DbCopilot};
use dbcopilot_core::{
    examples_from_instances, load_router_slice, router_to_vec, DbcRouter, SerializationMode,
    TrainExample,
};
use dbcopilot_eval::{
    eval_ask, eval_ex, eval_routing, fit_dbcopilot, map_by_db_size, measure_concurrent,
    measure_qps, recall_curve, render_ask_table, render_precision_table, render_series,
    render_table5, CorpusKind, MethodKind, PrecisionRow, ResourceReport, RoutingMetrics, Scale,
    SchemaSource, Strategy, Workbench,
};
use dbcopilot_http::{wire, Dispatcher, HttpClient, HttpConfig, HttpServer};
use dbcopilot_nl2sql::CopilotLM;
use dbcopilot_retrieval::{PrecisionSwitch, RoutePrecision, RoutingResult, SchemaRouter};
use dbcopilot_serve::{
    AskOutcome, AskService, QueryPipeline, RouterService, ServiceConfig, ServiceStats,
};
use dbcopilot_synth::{render_table2, DatasetStats, Instance};

/// A table's name on the command line, and the function that prints it.
type Table = (&'static str, fn(&Workbench));

const TABLES: &[Table] = &[
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6),
    ("table7", table7),
    ("fig7", fig7),
    ("fig10", fig10),
];

fn main() {
    let mut chosen = Vec::new();
    for name in std::env::args().skip(1) {
        match TABLES.iter().find(|(table, _)| *table == name) {
            Some(&(_, run)) => chosen.push(run),
            None => {
                let names: Vec<&str> = TABLES.iter().map(|(table, _)| *table).collect();
                eprintln!("usage: exp_quality [{}]…", names.join("|"));
                std::process::exit(2);
            }
        }
    }
    if chosen.is_empty() {
        chosen = TABLES.iter().map(|&(_, run)| run).collect();
    }
    let bench = Workbench::new(Scale::from_env());
    for run in chosen {
        run(&bench);
    }
}

/// Table 2: dataset statistics of the three benchmark corpora.
fn table2(bench: &Workbench) {
    let mut stats = Vec::new();
    for &kind in CorpusKind::ALL {
        let p = bench.prepared(kind);
        stats.push(DatasetStats::of(&p.corpus));
        if kind == CorpusKind::Spider {
            // robustness variants share the collection (paper footnote)
            let mut syn = DatasetStats::of(&p.corpus);
            syn.name = "spider-syn".into();
            syn.train = 0;
            let mut real = syn.clone();
            real.name = "spider-real".into();
            stats.push(syn);
            stats.push(real);
        }
    }
    println!("== Table 2 — dataset statistics ==");
    println!("{}", render_table2(&stats));
}

/// Table 3: schema routing on the regular test sets — DBCopilot vs
/// zero-shot (BM25, SXFMR), LLM-enhanced (CRUSH×2) and fine-tuned
/// (BM25-ft, DTR) baselines on every corpus.
fn table3(bench: &Workbench) {
    for &kind in CorpusKind::ALL {
        let test = &bench.prepared(kind).corpus.test;
        let rows = routing_rows(bench, kind, test);
        println!("{}", render_routing_rows(&format!("Table 3 — {}", kind.name()), &rows));
    }
}

/// Table 4: schema routing on the robustness test sets (Spider-syn /
/// Spider-real analogs): questions paraphrase or drop schema mentions.
fn table4(bench: &Workbench) {
    let corpus = &bench.prepared(CorpusKind::Spider).corpus;
    let syn = corpus.test_syn.as_ref().expect("spider corpus has syn variant");
    let real = corpus.test_real.as_ref().expect("spider corpus has real variant");
    let rows_syn = routing_rows(bench, CorpusKind::Spider, syn);
    let rows_real = routing_rows(bench, CorpusKind::Spider, real);
    println!("{}", render_routing_rows("Table 4 — Spider-syn", &rows_syn));
    println!("{}", render_routing_rows("Table 4 — Spider-real", &rows_real));
}

/// Every method's routing metrics on `instances` of `corpus`.
fn routing_rows(
    bench: &Workbench,
    corpus: CorpusKind,
    instances: &[Instance],
) -> Vec<(String, RoutingMetrics)> {
    MethodKind::ALL
        .iter()
        .map(|&method| {
            eprintln!("  [{}] evaluating {}", corpus.name(), method.label());
            let (router, _) = bench.method(corpus, method);
            (method.label().to_string(), eval_routing(router, instances, 100))
        })
        .collect()
}

fn render_routing_rows(title: &str, rows: &[(String, RoutingMetrics)]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<14} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "Method", "DB R@1", "DB R@5", "Tab R@5", "Tab R@15", "mAP"
    ));
    for (name, m) in rows {
        out.push_str(&format!(
            "{:<14} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
            name, m.db_r1, m.db_r5, m.table_r5, m.table_r15, m.map
        ));
    }
    out
}

/// A CRUSH router as the paper timed it: every query first waits out a
/// commercial-LLM round trip.
struct WithLlmLatency<'a>(&'a (dyn SchemaRouter + Send + Sync), Duration);

impl SchemaRouter for WithLlmLatency<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn route(&self, question: &str, top_tables: usize) -> RoutingResult {
        std::thread::sleep(self.1);
        self.0.route(question, top_tables)
    }
}

/// Table 5: method efficiency and resource consumption — QPS, build time
/// (training + indexing), serialized index size — then, for the DBCopilot
/// router, f32 vs i8 routing, and end-to-end ask (single candidate vs
/// top-3 + repair) directly, behind `AskService` and over the HTTP edge.
/// SQL-engine timings are not measured here: `exp_perf --trace 1` reports
/// them per served request.
///
/// The paper's CRUSH rows are slow because each query round-trips a
/// commercial LLM; set `DBC_LLM_LATENCY_MS` (default 300) to simulate that
/// latency for the CRUSH rows, or 0 to disable.
fn table5(bench: &Workbench) {
    let llm_ms: u64 =
        std::env::var("DBC_LLM_LATENCY_MS").ok().and_then(|v| v.parse().ok()).unwrap_or(300);
    let prepared = bench.prepared(CorpusKind::Spider);
    let test = &prepared.corpus.test;
    let questions: Vec<String> = test.iter().map(|i| i.question.clone()).take(64).collect();
    let mut rows = Vec::new();
    for &method in MethodKind::ALL {
        let (router, build) = bench.method(CorpusKind::Spider, method);
        eprintln!("  measuring {}", method.label());
        let crush = matches!(method, MethodKind::CrushBm25 | MethodKind::CrushSxfmr);
        let qps = if crush && llm_ms > 0 {
            let slow = WithLlmLatency(router, Duration::from_millis(llm_ms));
            measure_qps(&slow, &questions, 16)
        } else {
            measure_qps(router, &questions, 64)
        };
        rows.push(ResourceReport {
            method: method.label().to_string(),
            qps,
            build_secs: build.build_secs,
            disk_mb: build.disk_bytes as f64 / 1e6,
        });
    }
    // The trained DBCopilot router also serves the sections below, each
    // from its own copy of the (bit-exact) DBC1 bundle.
    let saved = router_to_vec(bench.dbcopilot(CorpusKind::Spider).0)
        .expect("trained router must serialize");
    let load = || load_router_slice(&saved).expect("saved router must load");

    // The same router behind the serving layer: 4 concurrent clients
    // cycling the question batch, so the number reflects caching +
    // micro-batching + pool dispatch.
    eprintln!("  measuring DBC (served)");
    let service = RouterService::from_router(load(), ServiceConfig::default());
    let qps = measure_concurrent(&questions, 256, 4, |q| {
        let _ = service.route(q);
    });
    drop(service);
    let dbc = rows.last().expect("DBCopilot is measured last").clone();
    rows.push(ResourceReport { method: "DBC (served)".to_string(), qps, ..dbc });
    println!("== Table 5 — efficiency & resource consumption ==");
    println!("{}", render_table5(&rows));
    println!("(CRUSH rows include {llm_ms} ms simulated LLM latency per query;");
    println!(" the served row adds the RouterService cache + worker-pool front)");

    // Quantized routing: the same trained bundle scored at f32 and i8.
    // Recall is measured, not asserted — at quick scale quantization noise
    // should leave it unchanged, and printing both makes any drift visible.
    eprintln!("  measuring quantized routing (f32 vs i8)");
    let mut router = load();
    let mut precision_rows = Vec::new();
    for (label, precision) in [("f32", RoutePrecision::F32), ("i8", RoutePrecision::I8)] {
        router.set_precision(precision);
        let m = eval_routing(&router, test, 100);
        precision_rows.push(PrecisionRow {
            precision: label.to_string(),
            latency_us: 1e6 / measure_qps(&router, &questions, 64),
            db_r1: m.db_r1,
            db_r5: m.db_r5,
        });
    }
    println!("== Quantized routing — f32 vs i8 (same router) ==");
    println!("{}", render_precision_table(&precision_rows));

    // End-to-end ask: routing accuracy only bounds what the full
    // question→SQL→result path delivers. Measure the single-candidate path
    // against top-3 fallback + execution-feedback repair, then the same
    // pipeline behind the AskService answer cache.
    eprintln!("  measuring end-to-end ask (k=1 vs k=3 + repair)");
    // back to the f32 reference path for the end-to-end section
    router.set_precision(RoutePrecision::F32);
    let routing = eval_routing(&router, test, 100);
    let copilot = DbCopilot::from_parts(
        router,
        Default::default(),
        prepared.corpus.collection.clone(),
        prepared.corpus.store.clone(),
    );
    let single = eval_ask(&copilot, &prepared.corpus, test, &AskOptions::first_candidate());
    let fallback =
        eval_ask(&copilot, &prepared.corpus, test, &AskOptions::new().top_k(3).repair_attempts(1));
    assert!(
        fallback.answered >= single.answered,
        "fallback must never answer fewer questions ({} vs {})",
        fallback.answered,
        single.answered,
    );
    println!("== End-to-end ask — question → SQL → result ({} questions) ==", test.len());
    println!("routing DB R@1 {:.1}%  (upper-bounds what k=1 can answer)", routing.db_r1);
    println!(
        "{}",
        render_ask_table(&[
            ("k=1 (no fallback)".to_string(), single),
            ("k=3 + 1 repair".to_string(), fallback),
        ])
    );

    eprintln!("  measuring DBC ask (served)");
    let service = AskService::from_pipeline(
        copilot,
        AskOptions::new().top_k(3).repair_attempts(1),
        ServiceConfig::default(),
    );
    let qps = measure_concurrent(&questions, 256, 4, |q| {
        let _ = service.ask(q);
    });
    let stats = service.stats();
    println!(
        "AskService (k=3 + repair): {qps:.1} answers/s over 4 clients \
         ({} cache hits / {} pipeline runs)",
        stats.cache_hits, stats.computed
    );
    // Served answers are the same computation: check outcome identity
    // against the direct pooled batch path, question by question.
    let served = service.ask_many(&questions);
    let direct = service.pipeline().ask_batch(&questions, service.options());
    for ((s, d), q) in served.iter().zip(&direct).zip(&questions) {
        let identical = match (s.as_ref(), d) {
            (Ok(s), Ok(d)) => s.answer == d.answer && s.chosen == d.chosen,
            (Err(s), Err(d)) => s == d,
            _ => false,
        };
        assert!(identical, "served and direct ask disagree on {q:?}");
    }
    println!(
        "(served ask outcomes identical to direct ask — cache and pool are quality-invisible)"
    );

    // HTTP edge: the same AskService served over a real socket. Asserts
    // byte parity — the HTTP response body for every question must equal
    // the wire rendering of the direct outcome, so the network edge is
    // provably quality-invisible too — and reports the server's own
    // latency histogram over those requests. Throughput of the edge is
    // `exp_perf`'s to measure (`BENCH_<n>.json` at the repo root).
    eprintln!("  measuring DBC ask (HTTP edge)");
    struct AskOnly<P: QueryPipeline + 'static>(Arc<AskService<P>>);
    impl<P: QueryPipeline + 'static> Dispatcher for AskOnly<P> {
        fn ask(&self, question: &str) -> Arc<AskOutcome> {
            self.0.ask(question)
        }
        fn stats(&self) -> Vec<(&'static str, ServiceStats)> {
            vec![("ask", self.0.stats())]
        }
    }
    let service = Arc::new(service);
    let server = HttpServer::bind(
        "127.0.0.1:0",
        AskOnly(Arc::clone(&service)),
        HttpConfig::new().workers(4),
    )
    .expect("bind the HTTP edge on an ephemeral port");
    let mut parity = HttpClient::connect(server.addr()).expect("parity client connects");
    for q in &questions {
        let response =
            parity.post("/ask", &wire::question_body(q)).expect("parity request completes");
        let (status, body) = wire::ask_response(&service.ask(q));
        assert_eq!(
            (response.status, response.body.as_str()),
            (status, body.as_str()),
            "HTTP-served answer differs from direct ask for {q:?}"
        );
    }
    drop(parity);
    println!(
        "(HTTP-served bodies byte-identical to direct ask renderings over {} questions)",
        questions.len()
    );
    let edge = server.stats();
    println!(
        "HTTP edge: p50 {} µs, p95 {} µs per request over {} requests on {} connection(s); \
         throughput: see BENCH_<n>.json",
        edge.p50_us, edge.p95_us, edge.requests, edge.accepted
    );
    let final_stats = server.shutdown();
    assert_eq!(final_stats.in_flight, 0, "graceful drain leaves nothing in flight");
}

/// Table 6: end-to-end schema-agnostic NL2SQL — execution accuracy (EX) and
/// LLM cost for the oracle tests, three prompt strategies over three
/// routing methods, and human-in-the-loop selection. Runs Spider, Bird and
/// the Spider-syn robustness variant like the paper.
fn table6(bench: &Workbench) {
    for &kind in &[CorpusKind::Spider, CorpusKind::Bird] {
        let prepared = bench.prepared(kind);
        let llm = CopilotLM::new(bench.scale.llm.clone());
        let sources: Vec<(&str, SchemaSource)> = vec![
            ("CRUSH_BM25", SchemaSource::Method(bench.method(kind, MethodKind::CrushBm25).0)),
            ("DTR", SchemaSource::Method(bench.method(kind, MethodKind::Dtr).0)),
            ("DBCopilot", SchemaSource::Copilot(bench.dbcopilot(kind).0)),
        ];
        let mut eval_sets: Vec<(&str, &[Instance])> = vec![("regular", &prepared.corpus.test)];
        if let Some(syn) = prepared.corpus.test_syn.as_ref() {
            eval_sets.push(("syn", syn));
        }
        for (set_name, instances) in eval_sets {
            let mut rows = Vec::new();
            // --- oracle tests
            for (name, source, strat) in [
                ("Gold T. & C.", SchemaSource::OracleGoldTc, Strategy::Best),
                ("Gold T.", SchemaSource::OracleGoldT, Strategy::Best),
                ("Gold DB", SchemaSource::OracleGoldDb, Strategy::Best),
                ("5 DB w. Gold", SchemaSource::OracleFiveDb, Strategy::Multiple(5)),
            ] {
                let r = eval_ex(&prepared.corpus, instances, &source, strat, &llm);
                rows.push((name.to_string(), r.ex, r.cost));
            }
            // --- methods × strategies
            for (strat_name, strat) in [
                ("Top 1", Strategy::Best),
                ("Top 5", Strategy::Multiple(5)),
                ("COT 5", Strategy::Cot(5)),
                ("Human 5", Strategy::HumanInTheLoop(5)),
            ] {
                for (mname, source) in &sources {
                    let r = eval_ex(&prepared.corpus, instances, source, strat, &llm);
                    rows.push((format!("{mname} / {strat_name}"), r.ex, r.cost));
                }
            }
            println!("== Table 6 — {} ({set_name}) ==", kind.name());
            println!("{:<28} {:>8} {:>9}", "Config", "EX", "Cost ($)");
            for (name, ex, cost) in rows {
                println!("{name:<28} {ex:>8.2} {cost:>9.4}");
            }
            println!();
        }
    }
}

/// Table 7: ablation studies — basic serialization (BS), original training
/// data (OD), mixed data (MD), no constrained decoding (CD), no diverse
/// beam search (DB). Reported as deltas from the full DBCopilot, on Spider
/// and Bird as in the paper.
fn table7(bench: &Workbench) {
    for &kind in &[CorpusKind::Spider, CorpusKind::Bird] {
        let prepared = bench.prepared(kind);
        let test = &prepared.corpus.test;
        println!("== Table 7 — ablations on {} ==", kind.name());
        let (full, _) = bench.dbcopilot(kind);
        let base = eval_routing(full, test, 100);
        println!(
            "DBCopilot      DB R@1 {:6.2}  DB R@5 {:6.2}  Tab R@5 {:6.2}  Tab R@15 {:6.2}",
            base.db_r1, base.db_r5, base.table_r5, base.table_r15
        );
        let delta = |router: &DbcRouter| {
            let v = eval_routing(router, test, 100);
            format!(
                "ΔDB R@1 {:+6.2}  ΔDB R@5 {:+6.2}  ΔTab R@5 {:+6.2}  ΔTab R@15 {:+6.2}",
                v.db_r1 - base.db_r1,
                v.db_r5 - base.db_r5,
                v.table_r5 - base.table_r5,
                v.table_r15 - base.table_r15
            )
        };
        let fit = |examples: &[TrainExample], mode| {
            fit_dbcopilot(prepared, examples, &bench.scale, mode).0
        };

        let basic = fit(&prepared.synth_examples, SerializationMode::Basic);
        println!("w/ BS          {}", delta(&basic));
        // w/ original NL2SQL training data (train DBs are disjoint from
        // test DBs, so generative retrieval cannot reach unseen schemata)
        let original = examples_from_instances(&prepared.corpus.train);
        if !original.is_empty() {
            println!("w/ OD          {}", delta(&fit(&original, SerializationMode::Dfs)));
            // mixed synthetic + original
            let mixed = [prepared.synth_examples.as_slice(), &original].concat();
            println!("w/ MD          {}", delta(&fit(&mixed, SerializationMode::Dfs)));
        }

        // decode-time ablations keep the trained weights and change only
        // the decoding options, on a copy: other tables read the shared one
        let saved = router_to_vec(full).expect("trained router must serialize");
        let mut copy = load_router_slice(&saved).expect("saved router must load");
        copy.decode_opts.constrained = false;
        println!("w/o CD         {}", delta(&copy));
        copy.decode_opts.constrained = true;
        copy.decode_opts.diverse = false;
        println!("w/o DB         {}", delta(&copy));
        println!();
    }
}

/// Figure 7: (a) table mAP vs database size; (b) table recall@k vs k.
fn fig7(bench: &Workbench) {
    let prepared = bench.prepared(CorpusKind::Spider);
    let methods = [
        MethodKind::Bm25,
        MethodKind::Sxfmr,
        MethodKind::CrushBm25,
        MethodKind::Dtr,
        MethodKind::DbCopilot,
    ];
    let ks = [1usize, 5, 10, 20, 30, 50];
    let mut fig7a = Vec::new();
    let mut fig7b = Vec::new();
    for &m in &methods {
        eprintln!("  [Spider] figure 7 for {}", m.label());
        let (router, _) = bench.method(CorpusKind::Spider, m);
        let rows = map_by_db_size(router, &prepared.corpus.test, &prepared.corpus.collection, 100);
        fig7a.push((
            m.label().to_string(),
            rows.iter().map(|&(b, v, _)| (b as f64, v)).collect::<Vec<_>>(),
        ));
        let curve = recall_curve(router, &prepared.corpus.test, &ks);
        fig7b.push((
            m.label().to_string(),
            curve.iter().map(|&(k, v)| (k as f64, v)).collect::<Vec<_>>(),
        ));
    }
    println!(
        "{}",
        render_series("Figure 7(a) — table mAP by database size (x = #tables bucket)", &fig7a)
    );
    println!("{}", render_series("Figure 7(b) — table recall@k (x = k)", &fig7b));
}

/// Figure 10: database recall@1 and table recall@5 vs the amount of
/// synthetic training data.
fn fig10(bench: &Workbench) {
    let fracs = [0.2f64, 0.4, 0.6, 0.8, 1.0];
    let mut series_db = Vec::new();
    let mut series_tab = Vec::new();
    for &kind in CorpusKind::ALL {
        let prepared = bench.prepared(kind);
        let all = &prepared.synth_examples;
        let mut db_pts = Vec::new();
        let mut tab_pts = Vec::new();
        for &f in &fracs {
            let n = ((all.len() as f64 * f) as usize).max(10);
            eprintln!("  {} with {} pairs", kind.name(), n);
            // every pair: that is the full router the other tables read
            let fitted;
            let router = if n == all.len() {
                bench.dbcopilot(kind).0
            } else {
                fitted = fit_dbcopilot(prepared, &all[..n], &bench.scale, SerializationMode::Dfs).0;
                &fitted
            };
            let m = eval_routing(router, &prepared.corpus.test, 100);
            db_pts.push((n as f64, m.db_r1));
            tab_pts.push((n as f64, m.table_r5));
        }
        series_db.push((kind.name().to_string(), db_pts));
        series_tab.push((kind.name().to_string(), tab_pts));
    }
    println!("{}", render_series("Figure 10 — database recall@1 vs #synthetic pairs", &series_db));
    println!("{}", render_series("Figure 10 — table recall@5 vs #synthetic pairs", &series_tab));
}
