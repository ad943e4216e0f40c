//! Serving: one trained pipeline behind the HTTP edge.
//!
//! Trains a small copilot, fronts the question → SQL → result pipeline
//! with an `AskService` and its router with a `RouterService` (answer
//! cache + micro-batching + worker pool), serves both over `HttpServer`,
//! and talks to it with `HttpClient`: one `POST /ask`, one `POST /route`,
//! one `GET /stats` and one `POST /admin/publish`, then a graceful
//! shutdown. The route tier's router is loaded from a `DBC1` bundle, as a
//! deployment would load it, and a publish reloads it as the next
//! generation.
//!
//! Throughput and latency are `exp_perf`'s to measure. Shedding under
//! overload, the zero-drop drain and the hot swap under load are asserted
//! by `crates/http/tests/overload.rs` and `crates/serve/tests/service.rs`.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;

use dbcopilot::{AskOptions, DbCopilot, PipelineConfig};
use dbcopilot_core::{load_router_slice, router_to_vec};
use dbcopilot_http::{wire, HttpClient, HttpConfig, HttpServer, ServiceApp};
use dbcopilot_serve::{AskService, RouterService, ServiceConfig};
use dbcopilot_synth::{build_spider_like, CorpusSizes};

fn main() {
    println!("Building a 16-database corpus and training the pipeline …");
    let corpus = build_spider_like(&CorpusSizes { num_databases: 16, train_n: 500, test_n: 32 }, 7);
    let mut cfg = PipelineConfig::default();
    cfg.router.epochs = 6;
    cfg.synth_pairs = 1200;
    let copilot = DbCopilot::fit(&corpus, cfg);

    // A question the pipeline answers directly, so the served `/ask` shows
    // an answer rather than a typed failure.
    let opts = AskOptions::new();
    let question = corpus
        .test
        .iter()
        .map(|i| i.question.clone())
        .find(|q| copilot.ask_with(q, &opts).is_ok())
        .expect("the pipeline answers some test question");

    let bundle = router_to_vec(&copilot.router).expect("the trained router serializes");
    let load = move || load_router_slice(&bundle).map(Arc::new).map_err(|e| e.to_string());
    let route_cfg = ServiceConfig::new().top_tables(3);
    let route = RouterService::new(load().expect("the bundle loads"), route_cfg);
    let ask = AskService::new(copilot.into_shared(), opts, ServiceConfig::new());
    let app = ServiceApp::new(ask, route).with_publisher(move |_spec| load());
    let server = HttpServer::bind("127.0.0.1:0", app, HttpConfig::new().workers(2))
        .expect("bind the HTTP edge on an ephemeral port");
    println!("Serving on http://{}", server.addr());

    let mut client = HttpClient::connect(server.addr()).expect("connect to the edge");
    let body = wire::question_body(&question);

    let asked = client.post("/ask", &body).expect("/ask answers");
    println!("\nPOST /ask {question:?}\n  {} {}", asked.status, asked.body);
    assert_eq!(asked.status, 200, "served as the direct pipeline answered it");

    let routed = client.post("/route", &body).expect("/route answers");
    println!("\nPOST /route {question:?}\n  {} {}", routed.status, routed.body);
    assert_eq!(routed.status, 200, "/route must rank databases");

    let published = client.post("/admin/publish", "{}").expect("/admin/publish answers");
    println!("\nPOST /admin/publish\n  {} {}", published.status, published.body);
    assert_eq!(published.status, 200, "the publisher reloads the bundle");
    assert!(published.body.contains("\"generation\":2"), "the publish advances the generation");

    let stats = client.get("/stats").expect("/stats answers");
    println!("\nGET /stats\n  {} {}", stats.status, stats.body);
    assert_eq!(stats.status, 200);

    drop(client);
    let edge = server.shutdown();
    assert_eq!(edge.in_flight, 0, "a graceful shutdown leaves nothing in flight");
    println!("\nShut down after {} requests on {} connection(s).", edge.requests, edge.accepted);
}
