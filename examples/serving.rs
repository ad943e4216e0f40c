//! Serving: one trained model, many concurrent clients — routing *and*
//! full question→SQL→result answers.
//!
//! Trains a router over a small corpus, puts it behind the
//! `RouterService` (LRU cache + micro-batching + persistent worker pool),
//! then drives it with N concurrent client threads replaying a skewed
//! workload — a few questions are popular, the rest form a long tail, the
//! shape real traffic has. Prints served throughput against the unserved
//! per-call baseline, plus the cache and batching counters. Then lifts
//! the same machinery to end-to-end serving: the `AskService` caches
//! complete answers (SQL + result + trace), so repeated questions skip
//! routing, prompting, generation *and* execution. The fleet-operations
//! act grows a sharded tier by one database (retraining only the owning
//! shard) and publishes it to live traffic with zero dropped requests.
//! Closes at the HTTP edge: the same stack behind a real socket, driven
//! by keep-alive `HttpClient` threads — under capacity, then more clients
//! than a throttled deployment admits (admission control sheds 429s), and
//! a graceful drain with requests still in flight. Throughput and latency
//! of the edge are `exp_perf`'s to measure; this only shows the behaviour.
//!
//! ```sh
//! cargo run --release --example serving
//! DBC_THREADS=4 DBC_CLIENTS=16 cargo run --release --example serving
//! ```

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use dbcopilot::{AskOptions, DbCopilot, QueryPipeline};
use dbcopilot_core::{DbcRouter, SerializationMode, ShardedRouter};
use dbcopilot_http::{wire, Dispatcher, HttpClient, HttpConfig, HttpServer, ServiceApp};
use dbcopilot_retrieval::SchemaRouter;
use dbcopilot_serve::{AskService, RouterService, ServiceConfig};
use dbcopilot_sqlengine::{DataType, DatabaseSchema, TableSchema};
use dbcopilot_synth::{build_spider_like, CorpusSizes};

fn main() {
    let clients: usize =
        std::env::var("DBC_CLIENTS").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    let rounds_per_client = 40;

    println!("Building a 16-database corpus and training the router …");
    let corpus = build_spider_like(&CorpusSizes { num_databases: 16, train_n: 500, test_n: 32 }, 7);
    let graph = dbcopilot_graph::SchemaGraph::build(&corpus.collection);
    let questioner = dbcopilot_synth::Questioner::train(
        &dbcopilot_synth::questioner_pairs(&corpus),
        &dbcopilot_synth::QuestionerConfig::default(),
    );
    let examples =
        dbcopilot_core::synthesize_training_data(&graph, &corpus.meta, &questioner, 1200, 0xdbc);
    let cfg = dbcopilot_core::RouterConfig { epochs: 6, ..Default::default() };
    let (router, _) = DbcRouter::fit(graph, &examples, cfg, SerializationMode::Dfs);
    let router = router.into_shared();

    // The workload: every client replays the test questions, but 3 of them
    // are 10x more popular than the rest (skew is what makes caches pay).
    let mut workload: Vec<String> = Vec::new();
    for (i, inst) in corpus.test.iter().enumerate() {
        let copies = if i < 3 { 10 } else { 1 };
        workload.extend(std::iter::repeat_n(inst.question.clone(), copies));
    }
    let total_requests = clients * rounds_per_client;

    // Baseline: every request routes the model, no sharing of any kind.
    println!("\nUnserved baseline ({total_requests} sequential routes) …");
    let start = Instant::now();
    for i in 0..total_requests {
        let q = &workload[i % workload.len()];
        let _ = router.route(q, 100);
    }
    let base_secs = start.elapsed().as_secs_f64();
    println!("  {:.1} req/s", total_requests as f64 / base_secs);

    // Served: shared Arc'd router behind cache + micro-batching + pool.
    let service = RouterService::new(Arc::clone(&router), ServiceConfig::new());
    println!("\nServing the same workload to {clients} concurrent clients …");
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let (service, workload) = (&service, &workload);
            s.spawn(move || {
                for round in 0..rounds_per_client {
                    // the baseline's request sequence, partitioned across
                    // clients — both runs serve the same question multiset
                    let i = client * rounds_per_client + round;
                    let result = service.route(&workload[i % workload.len()]);
                    assert!(!result.databases.is_empty());
                }
            });
        }
    });
    let served_secs = start.elapsed().as_secs_f64();
    let stats = service.stats();
    println!(
        "  {:.1} req/s ({:.1}x the baseline)",
        total_requests as f64 / served_secs,
        base_secs / served_secs
    );
    println!(
        "  cache: {} hits / {} misses over {} entries (hit rate {:.0}%)",
        stats.cache_hits,
        stats.cache_misses,
        stats.cached,
        100.0 * stats.cache_hits as f64 / (stats.cache_hits + stats.cache_misses).max(1) as f64
    );
    println!(
        "  batching: {} micro-batches, {} routed questions, largest batch {}",
        stats.batches, stats.computed, stats.max_batch_observed
    );

    // Same-answer sanity check: serving never changes routing results.
    let probe = &corpus.test[0].question;
    assert_eq!(
        service.route(probe).database_names(),
        router.route(probe, 100).database_names(),
        "served and direct routing must agree"
    );
    println!(
        "\nServed results match direct routing — the cache and the pool are invisible to quality."
    );
    drop(service);

    // -----------------------------------------------------------------
    // End-to-end serving: the cache fronts complete answers, not routes.
    // -----------------------------------------------------------------
    println!("\nLifting to end-to-end serving (question → SQL → result) …");
    let copilot = DbCopilot::from_parts(
        Arc::into_inner(router).expect("router service dropped"),
        Default::default(),
        corpus.collection.clone(),
        corpus.store.clone(),
    );

    // Unserved baseline: every request runs the full pipeline.
    let opts = AskOptions::new().top_k(3).repair_attempts(1);
    let start = Instant::now();
    for i in 0..total_requests {
        let _ = copilot.ask_with(&workload[i % workload.len()], &opts);
    }
    let ask_base_secs = start.elapsed().as_secs_f64();
    println!("  unserved: {:.1} answers/s", total_requests as f64 / ask_base_secs);

    let ask_service = AskService::from_pipeline(copilot, opts.clone(), ServiceConfig::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in 0..clients {
            let (ask_service, workload) = (&ask_service, &workload);
            s.spawn(move || {
                for round in 0..rounds_per_client {
                    let i = client * rounds_per_client + round;
                    let _ = ask_service.ask(&workload[i % workload.len()]);
                }
            });
        }
    });
    let ask_secs = start.elapsed().as_secs_f64();
    let stats = ask_service.stats();
    println!(
        "  served:   {:.1} answers/s ({:.1}x) — {} cache hits, {} pipeline runs",
        total_requests as f64 / ask_secs,
        ask_base_secs / ask_secs,
        stats.cache_hits,
        stats.computed
    );

    // Answer parity: a served answer is the direct answer, errors included.
    let served = ask_service.ask(probe);
    let direct = ask_service.pipeline().ask_with(probe, &opts);
    match (served.as_ref(), &direct) {
        (Ok(s), Ok(d)) => assert_eq!(s.answer, d.answer, "served answers must match direct"),
        (Err(s), Err(d)) => assert_eq!(s, d, "served failures must match direct"),
        _ => panic!("served and direct ask disagree"),
    }
    println!("\nServed answers match direct asks — end-to-end serving is quality-invisible.");
    // Keep the trained pipeline for the HTTP act below.
    let copilot = Arc::clone(ask_service.pipeline());
    drop(ask_service);

    // -----------------------------------------------------------------
    // Zero-downtime hot swap: grow a sharded tier and publish it while
    // clients are routing. No request is dropped; the generation advances.
    // -----------------------------------------------------------------
    println!("\nSharded tier + hot swap under load …");
    let shard_cfg = dbcopilot_core::RouterConfig { epochs: 2, ..Default::default() };
    let (tier, _) =
        ShardedRouter::fit(&corpus.collection, &examples, shard_cfg, SerializationMode::Dfs, 2);
    // No cache: every request must exercise whichever generation is live.
    let service = RouterService::new(Arc::new(tier), ServiceConfig::new().cache_capacity(0));

    // One new database lands in exactly one shard; only that shard retrains.
    let mut grown = corpus.collection.clone();
    let mut db = DatabaseSchema::new("incident_reports");
    db.add_table(TableSchema::new("incident").column("id", DataType::Int).primary(0));
    grown.add_database(db);
    let owner = service.router().shard_of_db("incident_reports");
    let (next, retrained) =
        service.router().extend(&grown, &corpus.meta, &questioner, 32, 2).expect("extend");
    println!(
        "  incident_reports lands on shard {owner}; retrained {:?} of {} shards",
        retrained.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
        next.num_shards()
    );

    let next = Arc::new(next);
    std::thread::scope(|s| {
        for client in 0..clients {
            let (service, workload) = (&service, &workload);
            s.spawn(move || {
                for round in 0..rounds_per_client {
                    let i = client * rounds_per_client + round;
                    let r = service.route(&workload[i % workload.len()]);
                    assert!(!r.databases.is_empty(), "every request is answered across the swap");
                }
            });
        }
        service.publish(Arc::clone(&next)); // mid-flight: drains the old generation
    });
    let stats = service.stats();
    println!(
        "  published mid-flight: generation {} (was 1), {} routes served, \
         new tier holds {} databases",
        service.generation(),
        stats.computed,
        service.router().num_databases()
    );
    assert_eq!(service.generation(), 2);
    println!("\nHot swap complete — zero drops, stale cache generations invalidated.");

    // -----------------------------------------------------------------
    // The HTTP edge: the same stack behind a real socket. Act one stays
    // under capacity, act two puts more concurrent clients on an
    // artificially slow deployment than it admits to show admission
    // control shedding, act three drains gracefully with requests still in
    // flight.
    // -----------------------------------------------------------------
    println!("\nServing over HTTP ({clients} keep-alive clients) …");
    let questions: Vec<String> = corpus.test.iter().map(|i| i.question.clone()).collect();
    let app = ServiceApp::new(
        AskService::new(Arc::clone(&copilot), opts.clone(), ServiceConfig::new()),
        service, // the sharded, already-swapped route tier from the act above
    );
    let server = HttpServer::bind("127.0.0.1:0", app, HttpConfig::new().workers(4).backlog(16))
        .expect("bind the HTTP edge");
    let seen = drive(server.addr(), &questions, clients, rounds_per_client);
    println!("  under capacity: {seen:?}");
    // smoke assertions (CI runs this example): the edge must actually serve
    assert!(seen.ok + seen.failed > 0, "HTTP edge served nothing");
    assert_eq!(seen.transport_errors, 0, "transport errors under plain load");
    assert_eq!(seen.shed, 0, "load under capacity never sheds");
    assert!(seen.ok > 0, "at least the popular questions answer with 200");
    let edge = server.stats();
    println!(
        "  edge: p50 {} µs, p95 {} µs over {} requests on {} connections",
        edge.p50_us, edge.p95_us, edge.requests, edge.accepted
    );
    server.shutdown();

    // Act two: a deliberately slow deployment (25 ms per answer) that
    // admits 4 connections (2 workers + 2 backlog) facing 8 concurrent
    // clients — admission control must shed the surplus as fast 429s
    // instead of queueing.
    println!("\nOverloading a throttled deployment (8 clients against capacity 4) …");
    struct Throttled<D: Dispatcher> {
        inner: D,
        delay: std::time::Duration,
    }
    impl<D: Dispatcher> Dispatcher for Throttled<D> {
        fn ask(&self, question: &str) -> Arc<dbcopilot_serve::AskOutcome> {
            std::thread::sleep(self.delay);
            self.inner.ask(question)
        }
    }
    let slow_app = Throttled {
        inner: AskOnly(AskService::new(Arc::clone(&copilot), opts.clone(), ServiceConfig::new())),
        delay: std::time::Duration::from_millis(25),
    };
    let server = HttpServer::bind(
        "127.0.0.1:0",
        slow_app,
        HttpConfig::new().workers(2).backlog(2).retry_after_secs(1),
    )
    .expect("bind the throttled edge");
    let seen = drive(server.addr(), &questions, 8, 25);
    println!("  overloaded:     {seen:?}");
    assert_eq!(seen.transport_errors, 0, "sheds must be clean 429s, not broken sockets");
    assert!(seen.shed > 0, "more clients than the edge admits must shed");
    assert_eq!(seen.ok + seen.failed + seen.shed, 8 * 25, "every request answered");

    // Act three: graceful drain with requests still in flight — every
    // admitted request completes, then the port is released.
    let addr = server.addr();
    let before = server.stats().accepted;
    let drain_pack = std::thread::spawn(move || {
        let mut answered = 0;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|i| {
                    s.spawn(move || {
                        let mut c = HttpClient::connect(addr).expect("drain client connects");
                        let body = format!("{{\"question\":\"drain probe {i}\"}}");
                        // A typed pipeline failure (404/422) is still an
                        // answered request; only a 5xx or a dead socket
                        // would mean the drain dropped it.
                        let r = c.post("/ask", &body).expect("in-flight request answered");
                        assert!(r.status < 500, "got {}", r.status);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("drain client");
                answered += 1;
            }
        });
        answered
    });
    let deadline = Instant::now() + std::time::Duration::from_secs(10);
    while server.stats().accepted < before + 4 {
        assert!(Instant::now() < deadline, "drain probes never admitted");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let final_stats = server.shutdown();
    let answered = drain_pack.join().expect("drain pack");
    assert_eq!(answered, 4, "zero dropped in-flight across the drain");
    assert_eq!(final_stats.in_flight, 0);
    std::net::TcpListener::bind(addr).expect("port released after shutdown");
    println!("  drained gracefully: {} in-flight answered, 0 dropped, port released", answered);
    println!("\nHTTP serving complete — shed under overload, zero drops under drain.");
}

/// What the clients of one load act saw: 2xx, 429 (shed by admission
/// control), any other status (typed pipeline failures), no response at all.
#[derive(Debug, Default)]
struct Seen {
    ok: usize,
    shed: usize,
    failed: usize,
    transport_errors: usize,
}

/// `clients` keep-alive client threads each `POST /ask` `per_client`
/// questions, reconnecting whenever the server closes the connection (it
/// does after a 429).
fn drive(addr: SocketAddr, questions: &[String], clients: usize, per_client: usize) -> Seen {
    let one_client = |client: usize| -> Vec<Option<u16>> {
        let mut conn: Option<HttpClient> = None;
        let mut post = |question: &str| {
            let mut c = conn.take().map_or_else(|| HttpClient::connect(addr), Ok).ok()?;
            let response = c.post("/ask", &wire::question_body(question)).ok()?;
            conn = response.keep_alive.then_some(c);
            Some(response.status)
        };
        (0..per_client)
            .map(|i| post(&questions[(client * per_client + i) % questions.len()]))
            .collect()
    };
    let statuses: Vec<Option<u16>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients).map(|c| scope.spawn(move || one_client(c))).collect();
        handles.into_iter().flat_map(|h| h.join().expect("load client")).collect()
    });
    let mut seen = Seen::default();
    for status in statuses {
        match status {
            Some(200..=299) => seen.ok += 1,
            Some(429) => seen.shed += 1,
            Some(_) => seen.failed += 1,
            None => seen.transport_errors += 1,
        }
    }
    seen
}

/// An ask-only [`Dispatcher`]: the route front stays on the main deployment.
struct AskOnly<P: QueryPipeline + 'static>(AskService<P>);

impl<P: QueryPipeline + 'static> Dispatcher for AskOnly<P> {
    fn ask(&self, question: &str) -> Arc<dbcopilot_serve::AskOutcome> {
        self.0.ask(question)
    }
}
