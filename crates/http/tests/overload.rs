//! Overload and lifecycle battery: admission-control shedding under
//! saturation, graceful drain with zero dropped in-flight requests,
//! slow-loris eviction with slot reuse, and hot swap driven over HTTP.

mod common;

use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{ok_report, raw_ask, EchoBackend, SLOW_QUESTION};
use dbcopilot_http::{HttpClient, HttpConfig, HttpServer, ServiceApp};
use dbcopilot_retrieval::{RoutingResult, SchemaRouter};
use dbcopilot_serve::{
    AskError, AskOptions, AskReport, AskService, QueryPipeline, RouterService, ServiceConfig,
};
use serde::Value;

fn ask_body(question: &str) -> String {
    format!("{{\"question\":\"{question}\"}}")
}

/// What one load client observed: a status, or transport breakage.
type ClientResult = Result<(u16, Option<String>), String>;

/// Fire `n` single-request clients at once; returns each client's status
/// and `Retry-After` header.
fn fire(addr: std::net::SocketAddr, n: usize, question: &str) -> Vec<ClientResult> {
    let mut results = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|i| {
                let body = ask_body(&format!("{question} {i}"));
                scope.spawn(move || -> ClientResult {
                    let mut client =
                        HttpClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
                    let response =
                        client.post("/ask", &body).map_err(|e| format!("request: {e}"))?;
                    Ok((response.status, response.header("retry-after").map(String::from)))
                })
            })
            .collect();
        for handle in handles {
            results.push(handle.join().expect("client thread"));
        }
    });
    results
}

#[test]
fn saturation_sheds_429_with_retry_after_and_admitted_requests_complete() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        EchoBackend::slow(Duration::from_millis(150)),
        HttpConfig::new().workers(2).backlog(1).retry_after_secs(7),
    )
    .unwrap();

    // 12 simultaneous clients against capacity 3 (2 workers + 1 backlog):
    // the surplus must be shed, everything admitted must complete.
    let results = fire(server.addr(), 12, "overload");
    let mut ok = 0;
    let mut shed = 0;
    for result in &results {
        match result {
            Ok((200, _)) => ok += 1,
            Ok((429, retry_after)) => {
                shed += 1;
                assert_eq!(retry_after.as_deref(), Some("7"), "429 must carry Retry-After");
            }
            other => panic!("unexpected client outcome: {other:?}"),
        }
    }
    assert_eq!(ok + shed, 12, "every client got a definite answer");
    assert!(shed > 0, "12 clients against capacity 3 must shed");
    assert!(ok >= 3, "admitted requests all completed, got {ok}");

    let stats = server.stats();
    assert_eq!(stats.shed, shed as u64);
    assert_eq!(stats.responses_with(429), shed as u64);
    assert_eq!(stats.responses_with(200), ok as u64);
}

#[test]
fn graceful_shutdown_answers_every_admitted_request_and_releases_the_port() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        EchoBackend::slow(Duration::from_millis(100)),
        HttpConfig::new().workers(2).backlog(8),
    )
    .unwrap();
    let addr = server.addr();

    let clients = std::thread::spawn(move || fire(addr, 6, "draining"));
    // Wait until the accept loop has admitted all six (a finished TCP
    // handshake alone can still be sitting un-accepted in the kernel
    // backlog), then pull the plug with most of them still in flight.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().accepted < 6 {
        assert!(Instant::now() < deadline, "clients never got admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.shutdown();

    let results = clients.join().expect("client pack");
    let mut answered = 0;
    for result in results {
        match result {
            Ok((200, _)) | Ok((429, _)) => answered += 1,
            other => panic!("dropped in-flight request: {other:?}"),
        }
    }
    assert_eq!(answered, 6, "zero dropped across the drain");
    assert_eq!(stats.in_flight, 0, "drain leaves nothing in flight");

    // The port is actually released, not leaked to a lingering listener.
    TcpListener::bind(addr).expect("port rebindable after shutdown");
}

#[test]
fn graceful_shutdown_delivers_the_responses_a_pipelined_connection_had_queued() {
    let server =
        HttpServer::bind("127.0.0.1:0", EchoBackend::fast(), HttpConfig::new().workers(1)).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // Two quick answers wait in the connection's output buffer for the
    // slow one pipelined behind them; the drain begins while it runs.
    let wire: String = ["first", "second", "slow third"].iter().map(|q| raw_ask(q, "")).collect();
    client.send_raw(wire.as_bytes()).unwrap();
    let deadline = Instant::now() + SLOW_QUESTION;
    while server.stats().requests < 3 {
        assert!(Instant::now() < deadline, "the slow request finished before the drain began");
        std::thread::yield_now();
    }
    let stats = server.shutdown();
    assert_eq!((stats.responses_with(200), stats.in_flight), (3, 0));

    for (question, keep_alive) in [("first", true), ("second", true), ("slow third", false)] {
        let response = client.read_response().expect("a queued response was lost in the drain");
        assert_eq!(response.status, 200);
        assert!(response.body.contains(&format!("SELECT '{question}'")), "{}", response.body);
        assert_eq!(response.keep_alive, keep_alive, "{question}: only the last one closes");
    }
    assert!(client.read_response().is_err(), "drained connections close");
}

#[test]
fn a_megabyte_question_is_parsed_in_time_and_pins_no_worker() {
    let server =
        HttpServer::bind("127.0.0.1:0", EchoBackend::fast(), HttpConfig::new().workers(2)).unwrap();
    let read_timeout = HttpConfig::new().read_timeout;
    // Exactly the default body limit: read and parsed, not refused with 413.
    let limit = HttpConfig::new().limits.max_body_bytes;
    let body = ask_body(&"a".repeat(limit - ask_body("").len()));
    assert_eq!(body.len(), limit);

    let began = Instant::now();
    std::thread::scope(|scope| {
        let big = scope.spawn(|| {
            let mut client = HttpClient::connect(server.addr()).unwrap();
            let response = client.post("/ask", &body).expect("the 1 MiB ask");
            assert_eq!(response.status, 200);
            // The connection is as good as new afterwards.
            assert_eq!(client.post("/ask", &ask_body("next")).unwrap().status, 200);
        });
        let mut other = HttpClient::connect(server.addr()).unwrap();
        assert_eq!(other.get("/healthz").unwrap().status, 200);
        big.join().expect("big client");
    });
    // A string reader that re-validated the rest of the body for every
    // character spent ~16 s here.
    assert!(began.elapsed() < read_timeout, "took {:?}", began.elapsed());
    assert_eq!(server.stats().responses_with(200), 3);
}

#[test]
fn a_pipelining_client_that_never_reads_meets_the_write_deadline() {
    let write_timeout = Duration::from_millis(300);
    let server = HttpServer::bind(
        "127.0.0.1:0",
        EchoBackend::fast(),
        // The write timeout is the read timeout.
        HttpConfig::new().workers(2).read_timeout(write_timeout),
    )
    .unwrap();
    let mut hostile = HttpClient::connect(server.addr()).unwrap();
    let batch = "GET /healthz HTTP/1.1\r\n\r\n".repeat(10_000);
    // Keep pipelining, never read: once the sockets between the two are
    // full the server's write blocks, times out, and the connection is
    // closed — which is what ends this loop.
    let deadline = Instant::now() + Duration::from_secs(30);
    while hostile.send_raw(batch.as_bytes()).is_ok() {
        assert!(Instant::now() < deadline, "the server kept buffering for a peer that never reads");
    }
    // The worker is free again and the process is fine.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.stats().in_flight > 0 {
        assert!(Instant::now() < deadline, "the connection was never released");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut next = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(next.get("/healthz").unwrap().status, 200);
}

#[test]
fn slow_loris_client_is_evicted_with_408_and_the_slot_is_reused() {
    let server = HttpServer::bind(
        "127.0.0.1:0",
        EchoBackend::fast(),
        HttpConfig::new()
            .workers(1)
            .backlog(0)
            .read_timeout(Duration::from_millis(400))
            .idle_timeout(Duration::from_millis(2000)),
    )
    .unwrap();

    // The loris: opens the only slot and drips half a request line.
    let mut loris = HttpClient::connect(server.addr()).unwrap();
    loris.send_raw(b"GET /heal").unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // While the loris holds the slot, the next client is shed — the slot is
    // genuinely occupied.
    let mut crowded_out = HttpClient::connect(server.addr()).unwrap();
    let crowded_out = crowded_out.post("/ask", &ask_body("crowded")).unwrap();
    assert_eq!(crowded_out.status, 429, "single slot held by the stalled client");

    // The eviction: no progress before the read deadline → 408, close.
    let evicted = Instant::now();
    let response = loris.read_response().unwrap();
    assert_eq!(response.status, 408);
    assert!(!response.keep_alive);
    assert!(
        evicted.elapsed() < Duration::from_secs(2),
        "eviction must come from the read deadline, not a hang"
    );

    // Regression core: the freed slot serves the next client.
    let mut next = HttpClient::connect(server.addr()).unwrap();
    let response = next.post("/ask", &ask_body("after eviction")).unwrap();
    assert_eq!(response.status, 200, "slot reused after evicting the loris");
    assert_eq!(server.stats().responses_with(408), 1);
}

// ---------------------------------------------------------------------
// hot swap over HTTP
// ---------------------------------------------------------------------

/// A router whose answers are stamped with its version tag.
struct TaggedRouter {
    tag: String,
}

impl SchemaRouter for TaggedRouter {
    fn name(&self) -> &str {
        &self.tag
    }

    fn route(&self, _question: &str, _top_tables: usize) -> RoutingResult {
        RoutingResult {
            tables: vec![(self.tag.clone(), "t".into(), 1.0)],
            databases: vec![(self.tag.clone(), 1.0)],
        }
    }
}

/// A pipeline stub so the [`ServiceApp`] has an ask front too.
struct EchoPipeline;

impl QueryPipeline for EchoPipeline {
    fn ask_with(&self, question: &str, _opts: &AskOptions) -> Result<AskReport, AskError> {
        Ok(ok_report(question))
    }
}

#[test]
fn hot_swap_over_http_bumps_generation_and_stops_serving_stale_routes() {
    let app = ServiceApp::new(
        AskService::from_pipeline(EchoPipeline, AskOptions::new(), ServiceConfig::default()),
        RouterService::from_router(TaggedRouter { tag: "v1".into() }, ServiceConfig::default()),
    )
    .with_publisher(|spec: &Value| {
        let tag =
            spec.get("tag").and_then(Value::as_str).ok_or("publish spec needs a \"tag\" string")?;
        Ok(Arc::new(TaggedRouter { tag: tag.to_string() }))
    });
    let server = HttpServer::bind("127.0.0.1:0", app, HttpConfig::new().workers(2)).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // v1 serves and populates the route cache.
    for _ in 0..2 {
        let response = client.post("/route", &ask_body("which db?")).unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body.contains("\"database\":\"v1\""), "{}", response.body);
    }
    let health = client.get("/healthz").unwrap().json().unwrap();
    assert_eq!(health.get("generation"), Some(&Value::Int(1)));

    // A malformed publish is rejected without swapping anything.
    let response = client.post("/admin/publish", "{\"nope\":1}").unwrap();
    assert_eq!(response.status, 409, "{}", response.body);

    // The real publish bumps the generation...
    let response = client.post("/admin/publish", "{\"tag\":\"v2\"}").unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    assert_eq!(response.json().unwrap().get("generation"), Some(&Value::Int(2)));

    // ...which /stats reflects...
    let stats = client.get("/stats").unwrap().json().unwrap();
    let route_stats =
        stats.get("services").and_then(|s| s.get("route")).expect("route service stats");
    assert_eq!(route_stats.get("generation"), Some(&Value::Int(2)));

    // ...and stale v1 cache entries stop being served immediately.
    let response = client.post("/route", &ask_body("which db?")).unwrap();
    assert_eq!(response.status, 200);
    assert!(response.body.contains("\"database\":\"v2\""), "stale cache served: {}", response.body);
}
