//! The replay trace: where one ask's time goes, layer by layer.
//!
//! Every span is a timed call from this file into one layer's public entry
//! point, on the calling thread; spans inside the program are a later
//! change. An ask is replayed level by level on the same question: the
//! whole request over a socket, then the serving front alone, then the
//! pipeline alone, then each stage the pipeline calls. A span's parent is
//! the span one level up *for the same question*, and a level's self time
//! is its mean minus the means of its children. Because the levels are
//! separate calls they do not nest in time; `request` ties them together.
//!
//! The metrics are means in µs over the replayed questions. Every `cold`
//! call goes to a serving front built for that pass, so it cannot hit.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dbcopilot::core::ShardedRouter;
use dbcopilot::http::proto::{read_request, ByteStream, Conn, Limits};
use dbcopilot::http::wire::{self, question_body};
use dbcopilot::http::{HttpClient, HttpConfig, HttpServer, Response, ServiceApp};
use dbcopilot::nl2sql::{basic_prompt, PromptSchema};
use dbcopilot::nn::quant::dot_i8;
use dbcopilot::nn::QuantizedVec;
use dbcopilot::retrieval::SchemaRouter;
use dbcopilot::runtime::{global_pool, with_thread_count};
use dbcopilot::serve::{AskReport, AskService, RouterService};
use dbcopilot::sqlengine::{compile, parse_select, PreparedDb};
use dbcopilot::synth::{generate_collection, generate_instances, GenConfig, Lexicon, TEST_STYLE};

use crate::alloc;
use crate::deploy::{ask_options, service_config, Deployment, Tier, CORPUS_SEED, TOP_TABLES};
use crate::loadgen::http_post;
use crate::names::{Metrics, PER_LAYER};
use crate::pool::Pool;
use crate::recorder::{percentile, sample_ns};

/// Questions replayed through the `/ask` levels, and through the costlier
/// `/route` levels.
pub const ASK_QUESTIONS: usize = 256;
pub const ROUTE_QUESTIONS: usize = 96;
/// A replayed stage further than this from the pipeline's own timing of it
/// gets a warning. The small stages sit near 0.2 by construction: the
/// pipeline drops the prompt, the parse tree and the compiled plan inside
/// its timers, the replay between its spans.
const GAP_WARNING: f64 = 0.35;
/// Questions whose allocations are counted.
const ALLOC_QUESTIONS: usize = 64;

pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
    request: u32,
}

/// Spans kept in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::with_capacity(1 << 14) }
    }

    /// Time `f` as one span; returns its result and the span's id.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start = self.origin.elapsed();
        let out = black_box(f());
        let end = self.origin.elapsed();
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let id = self.spans.len() as u32;
        let (start_ns, end_ns, request) = (ns(start), ns(end), request as u32);
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        (out, id)
    }

    fn durations_ns(&self, name: &str) -> Vec<u32> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| sample_ns(Duration::from_nanos(s.end_ns - s.start_ns)))
            .collect()
    }

    fn mean_us(&self, name: &str) -> f64 {
        let samples = self.durations_ns(name);
        assert!(!samples.is_empty(), "no span named {name}");
        samples.iter().map(|&ns| f64::from(ns)).sum::<f64>() / samples.len() as f64 / 1e3
    }

    fn p95_us(&self, name: &str) -> f64 {
        f64::from(percentile(&mut self.durations_ns(name), 0.95).expect("spans exist")) / 1e3
    }

    /// Write every span as JSON beside the binary, which is inside the
    /// build's target directory: `<target dir>/release/exp_perf.trace.json`.
    pub fn write(&self) -> std::io::Result<std::path::PathBuf> {
        let path = std::env::current_exe()?.with_file_name("exp_perf.trace.json");
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str("[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{comma}\n",
                s.name, s.start_ns, s.end_ns, s.request
            ));
        }
        out.push_str("]\n");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

/// A cold serving stack for one replay pass: fresh caches over the shared
/// pipeline and tier, one connection worker.
fn cold_server(deployment: &Deployment, tier: &Arc<ShardedRouter>) -> HttpServer {
    let app = ServiceApp::new(
        AskService::new(Arc::clone(&deployment.copilot), ask_options(), service_config()),
        RouterService::new(Arc::clone(tier), service_config()),
    );
    HttpServer::bind("127.0.0.1:0", app, HttpConfig::new().workers(1)).expect("bind replay server")
}

fn mean_us(total: Duration, n: usize) -> f64 {
    total.as_secs_f64() * 1e6 / n as f64
}

/// Mean µs of `f` over `iterations` calls.
fn time_loop(iterations: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    mean_us(start.elapsed(), iterations)
}

/// Replay the pool's first questions through every layer. Returns the
/// replay's per-layer metrics, the spans, and warnings about the trace's
/// own consistency (a negative self time, an attribution gap over 0.15).
pub fn replay(
    deployment: &Deployment,
    pool: &Pool,
    questions: usize,
) -> (Metrics, Tracer, Vec<String>) {
    let mut m = Metrics::new(PER_LAYER);
    let mut tracer = Tracer::new();
    let copilot = &deployment.copilot;
    let opts = ask_options();
    let tier = Arc::new(deployment.load_tier(Tier::A));
    black_box(tier.route(&pool.questions[0], TOP_TABLES)); // decode and calibrate every shard

    // Replay questions answered by their first candidate's first SQL, so
    // the stages replayed below are all the work the pipeline did.
    let reports: Vec<(&String, AskReport)> = pool
        .questions
        .iter()
        .filter_map(|q| copilot.ask_with(q, &opts).ok().map(|r| (q, r)))
        .filter(|(_, r)| r.attempts.len() == 1 && r.chosen == 0)
        .take(questions)
        .collect();
    assert!(reports.len() >= questions / 2, "too few single-attempt questions to replay");
    let n = reports.len();
    let prepared: BTreeMap<&str, PreparedDb> = reports
        .iter()
        .map(|(_, r)| r.answer.schema.database.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .map(|db| {
            (
                db,
                PreparedDb::prepare(
                    deployment.corpus.store.database(db).expect("routed database exists"),
                ),
            )
        })
        .collect();

    // Untraced reference for `trace.overhead_share`: the same cold requests
    // with one clock read around the whole pass.
    let untraced_us = {
        let server = cold_server(deployment, &tier);
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        let bodies: Vec<String> = reports.iter().map(|(q, _)| question_body(q)).collect();
        let start = Instant::now();
        for body in &bodies {
            black_box(client.post("/ask", body).expect("untraced ask"));
        }
        mean_us(start.elapsed(), n)
    };

    let (mut route_ns, mut generate_ns, mut execute_ns) = (0u128, 0u128, 0u128);
    with_thread_count(1, || {
        let server = cold_server(deployment, &tier);
        let mut client = HttpClient::connect(server.addr()).expect("connect");
        let front = AskService::new(Arc::clone(copilot), opts.clone(), service_config());
        let limits = Limits::default();
        for (i, (q, oracle)) in reports.iter().enumerate() {
            let body = question_body(q);
            let wire_request = http_post("/ask", &body);

            let (_, s_http) = tracer
                .span("http.request_us", None, i, || client.post("/ask", &body).expect("ask"));
            let (request, _) = tracer.span("http.parse_us", Some(s_http), i, || {
                let mut conn = Conn::new(ByteStream::new(wire_request.clone()));
                read_request(&mut conn, &limits, Duration::from_secs(1), Duration::from_secs(1))
                    .expect("own request parses")
            });
            tracer.span("http.decode_body_us", Some(s_http), i, || {
                wire::parse_question(&request.body).expect("own body decodes")
            });
            let (outcome, s_serve) =
                tracer.span("serve.ask_miss_us", Some(s_http), i, || front.ask(q));
            tracer.span("http.render_us", Some(s_http), i, || {
                let (status, body) = wire::ask_response(&outcome);
                Response::json(status, body).to_bytes(true)
            });

            tracer.span("serve.normalize_us", Some(s_serve), i, || {
                dbcopilot::serve::normalize_question(q)
            });
            let (report, s_facade) = tracer.span("facade.ask_with_us", Some(s_serve), i, || {
                copilot.ask_with(q, &opts).expect("pooled questions answer")
            });
            route_ns += report.timings.route.as_nanos();
            generate_ns += report.timings.generate.as_nanos();
            execute_ns += report.timings.execute.as_nanos();

            let (candidates, s_route) = tracer
                .span("core.route_us", Some(s_facade), i, || copilot.router.route_schemata(q));
            tracer.span("core.beam_search_us", Some(s_route), i, || copilot.router.sequences(q));
            let (schema, _) = tracer.span("nl2sql.resolve_us", Some(s_facade), i, || {
                PromptSchema::resolve(&deployment.corpus.collection, &candidates[0].schema)
            });
            let (prompt, _) =
                tracer.span("nl2sql.prompt_us", Some(s_facade), i, || basic_prompt(&schema, q));
            let (generated, _) = tracer.span("nl2sql.generate_us", Some(s_facade), i, || {
                copilot.llm.generate_sql(&prompt, q)
            });
            let sql = generated.sql.expect("an answered question generates SQL");
            assert_eq!(sql, oracle.answer.sql, "the replay must redo the pipeline's own work");
            let pdb = &prepared[oracle.answer.schema.database.as_str()];
            let (select, _) = tracer.span("sqlengine.parse_us", Some(s_facade), i, || {
                parse_select(&sql).expect("generated SQL parses")
            });
            let (compiled, _) = tracer.span("sqlengine.compile_us", Some(s_facade), i, || {
                compile::compile(pdb, &select).expect("generated SQL compiles")
            });
            tracer.span("sqlengine.run_us", Some(s_facade), i, || {
                compile::run(pdb, &compiled).expect("generated SQL runs")
            });

            // The hot side: the same question again, now cached.
            tracer.span("serve.ask_hit_us", None, i, || front.ask(q));
            tracer
                .span("http.request_hot_us", None, i, || client.post("/ask", &body).expect("ask"));
        }

        // The /route side, over the head.
        let route_front = RouterService::new(Arc::clone(&tier), service_config());
        let shards: Vec<_> = (0..tier.num_shards()).filter_map(|s| tier.shard_router(s)).collect();
        let names = tier.database_names();
        for (i, q) in pool.head().iter().take(ROUTE_QUESTIONS.min(questions)).enumerate() {
            let body = question_body(q);
            tracer.span("http.route_request_us", None, i, || {
                client.post("/route", &body).expect("route")
            });
            tracer.span("serve.route_miss_us", None, i, || route_front.route(q));
            let (routing, s_sharded) =
                tracer.span("core.route_sharded_us", None, i, || tier.route(q, TOP_TABLES));
            tracer.span("core.route_shard_sum_us", Some(s_sharded), i, || {
                shards.iter().map(|r| r.route(q, TOP_TABLES).tables.len()).sum::<usize>()
            });
            let db = &names[i % names.len()];
            let owner = tier.shard_router(tier.shard_of_db(db)).expect("owning shard is not empty");
            tracer.span("core.name_logp_us", None, i, || owner.name_logp_unconstrained(q, db));
            tracer.span("http.render_route_us", None, i, || {
                let (status, body) = wire::route_response(q, &routing);
                Response::json(status, body).to_bytes(true)
            });
        }
    });

    let mean = |name: &str| tracer.mean_us(name);
    let mut warnings = Vec::new();
    let mut self_time = |m: &mut Metrics, name: &str, parent: f64, children: &[f64]| {
        let own = parent - children.iter().sum::<f64>();
        if own < 0.0 {
            warnings.push(format!("{name} is negative: {own:.1} us"));
        }
        m.set(name, own);
    };
    // Every span is named after the per-layer metric that holds its mean.
    for name in tracer.spans.iter().map(|s| s.name).collect::<std::collections::BTreeSet<_>>() {
        m.set(name, mean(name));
    }
    for (p95, of) in [
        ("http.request_p95_us", "http.request_us"),
        ("facade.ask_with_p95_us", "facade.ask_with_us"),
        ("core.route_p95_us", "core.route_us"),
    ] {
        m.set(p95, tracer.p95_us(of));
    }
    let stages = ["nl2sql.resolve_us", "nl2sql.prompt_us", "nl2sql.generate_us"].map(mean);
    let engine = ["sqlengine.parse_us", "sqlengine.compile_us", "sqlengine.run_us"].map(mean);
    self_time(
        &mut m,
        "http.socket_self_us",
        mean("http.request_us"),
        &[
            mean("http.parse_us"),
            mean("http.decode_body_us"),
            mean("serve.ask_miss_us"),
            mean("http.render_us"),
        ],
    );
    self_time(
        &mut m,
        "serve.miss_self_us",
        mean("serve.ask_miss_us"),
        &[mean("serve.normalize_us"), mean("facade.ask_with_us")],
    );
    self_time(
        &mut m,
        "facade.self_us",
        mean("facade.ask_with_us"),
        &[&[mean("core.route_us")][..], &stages, &engine].concat(),
    );
    self_time(&mut m, "core.merge_self_us", mean("core.route_us"), &[mean("core.beam_search_us")]);
    self_time(
        &mut m,
        "core.calibrate_self_us",
        mean("core.route_sharded_us"),
        &[mean("core.route_shard_sum_us")],
    );

    // The pipeline's own `StageTimings` against the replayed stages.
    let own_us = |total_ns: u128| total_ns as f64 / 1e3 / n as f64;
    for (metric, replayed, own) in [
        ("attribution.route_gap_share", mean("core.route_us"), own_us(route_ns)),
        ("attribution.generate_gap_share", stages[1] + stages[2], own_us(generate_ns)),
        ("attribution.execute_gap_share", engine.iter().sum::<f64>(), own_us(execute_ns)),
    ] {
        let gap = (replayed - own).abs() / own;
        if gap > GAP_WARNING {
            warnings
                .push(format!("{metric} is {gap:.3}: replayed {replayed:.1} us, own {own:.1} us"));
        }
        m.set(metric, gap);
    }
    m.set("trace.overhead_share", mean("http.request_us") / untraced_us - 1.0);
    if mean("core.route_us") < 0.8 * mean("facade.ask_with_us") {
        warnings.push("routing is under 0.8 of an ask: ask_cold no longer measures routing".into());
    }

    kernels(deployment, &reports, &mut m);
    allocations(deployment, &reports, &prepared, &mut m);
    (m, tracer, warnings)
}

/// Kernels and batches, timed as loops (no spans: a span per call would
/// cost more than some of these calls).
fn kernels(deployment: &Deployment, reports: &[(&String, AskReport)], m: &mut Metrics) {
    let copilot = &deployment.copilot;
    let quant = copilot.router.model.quant.as_ref().expect("the served router is frozen to i8");
    let matrix = &quant
        .store()
        .entries()
        .iter()
        .max_by_key(|e| e.matrix.rows() * e.matrix.cols())
        .expect("a frozen model has matrices")
        .matrix;
    let x = QuantizedVec::quantize(&vec![0.25; matrix.cols()]);
    let mut out = Vec::new();
    m.set("nn.matvec_i8_us", time_loop(2_000, || matrix.matvec_into(black_box(&x), &mut out)));
    // Multiply-accumulates of that product, computed from the shape.
    m.set("nn.matvec_i8_macs", (matrix.rows() * matrix.cols()) as f64);
    let (a, b) = (matrix.row(0), matrix.row(matrix.rows() - 1));
    m.set(
        "nn.dot_i8_ns",
        time_loop(1_000_000, || {
            black_box(dot_i8(black_box(a), b));
        }) * 1e3,
    );

    let (one, sixteen) = ([1u64], [1u64; 16]);
    m.set(
        "runtime.pool_map1_us",
        time_loop(2_000, || drop(black_box(global_pool().map(&one, |_, v| v + 1)))),
    );
    m.set(
        "runtime.pool_map16_us",
        time_loop(2_000, || drop(black_box(global_pool().map(&sixteen, |_, v| v + 1)))),
    );

    let questions: Vec<String> = reports.iter().map(|(q, _)| q.to_string()).collect();
    let batches: Vec<&[String]> = questions.chunks_exact(16).take(8).collect();
    let asked = (batches.len() * 16) as f64;
    let start = Instant::now();
    for batch in &batches {
        black_box(copilot.router.route_batch(batch, TOP_TABLES));
    }
    m.set("core.route_batch16_us_per_q", start.elapsed().as_secs_f64() * 1e6 / asked);
    let front = AskService::new(Arc::clone(copilot), ask_options(), service_config());
    let start = Instant::now();
    for batch in &batches {
        black_box(front.ask_many(batch));
    }
    m.set("serve.ask_many16_us_per_q", start.elapsed().as_secs_f64() * 1e6 / asked);

    // The SQL engine at a row scale the serving corpus does not reach.
    let big = generate_collection(&GenConfig {
        num_databases: 2,
        rows_per_table: (2048, 4096),
        ..GenConfig::spider_like(CORPUS_SEED)
    });
    let instances = generate_instances(&big, &Lexicon::new(), 32, TEST_STYLE, CORPUS_SEED);
    let start = Instant::now();
    let prepared: BTreeMap<&String, PreparedDb> =
        big.store.databases.iter().map(|(name, db)| (name, PreparedDb::prepare(db))).collect();
    m.set("sqlengine.prepare_bigrows_ms", start.elapsed().as_secs_f64() * 1e3);
    let compiled: Vec<_> = instances
        .iter()
        .map(|inst| {
            let pdb = &prepared[&inst.schema.database];
            (
                pdb,
                compile::compile(pdb, &parse_select(&inst.sql).expect("gold SQL parses"))
                    .expect("gold SQL compiles"),
            )
        })
        .collect();
    let start = Instant::now();
    for (pdb, select) in &compiled {
        black_box(compile::run(pdb, select).expect("gold SQL runs"));
    }
    m.set("sqlengine.run_bigrows_us", mean_us(start.elapsed(), compiled.len()));
}

/// Exact allocation counts of single calls, summed over the first
/// `ALLOC_QUESTIONS` replayed questions. The rest of the process is idle.
fn allocations(
    deployment: &Deployment,
    reports: &[(&String, AskReport)],
    prepared: &BTreeMap<&str, PreparedDb>,
    m: &mut Metrics,
) {
    let copilot = &deployment.copilot;
    let opts = ask_options();
    let subset = &reports[..ALLOC_QUESTIONS.min(reports.len())];
    let front = AskService::new(Arc::clone(copilot), opts.clone(), service_config());
    let outcomes: Vec<_> = subset.iter().map(|(q, _)| front.ask(q)).collect();
    let wire_requests: Vec<Vec<u8>> =
        subset.iter().map(|(q, _)| http_post("/ask", &question_body(q))).collect();
    let compiled: Vec<_> = subset
        .iter()
        .map(|(_, r)| {
            let pdb = &prepared[r.answer.schema.database.as_str()];
            let select = parse_select(&r.answer.sql).expect("answered SQL parses");
            (pdb, compile::compile(pdb, &select).expect("answered SQL compiles"))
        })
        .collect();
    let limits = Limits::default();

    let ((), count, bytes) = alloc::count(|| {
        for (q, _) in subset {
            black_box(copilot.ask_with(q, &opts).is_ok());
        }
    });
    m.set("alloc.ask_cold_count", count as f64);
    m.set("alloc.ask_cold_bytes", bytes as f64);
    let ((), count, _) = alloc::count(|| {
        for (q, _) in subset {
            black_box(front.ask(q));
        }
    });
    m.set("alloc.ask_hot_count", count as f64);
    let ((), count, _) = alloc::count(|| {
        for (q, _) in subset {
            black_box(copilot.router.route_schemata(q).len());
        }
    });
    m.set("alloc.route_count", count as f64);
    let ((), count, _) = alloc::count(|| {
        for (pdb, select) in &compiled {
            black_box(compile::run(pdb, select).is_ok());
        }
    });
    m.set("alloc.sql_run_count", count as f64);
    let ((), count, _) = alloc::count(|| {
        for bytes in &wire_requests {
            let mut conn = Conn::new(ByteStream::new(bytes.as_slice()));
            let second = Duration::from_secs(1);
            black_box(read_request(&mut conn, &limits, second, second).is_ok());
        }
    });
    m.set("alloc.http_parse_count", count as f64);
    let ((), count, _) = alloc::count(|| {
        for outcome in &outcomes {
            let (status, body) = wire::ask_response(outcome);
            black_box(Response::json(status, body).to_bytes(true).len());
        }
    });
    m.set("alloc.http_render_count", count as f64);
}
