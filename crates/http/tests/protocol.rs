//! Protocol-conformance battery over a real socket: keep-alive reuse,
//! pipelined sequential requests, truncation, limit breaches, malformed
//! inputs, the status-code mapping, and a garbage-bytes property test.

mod common;

use std::io::Read;
use std::net::Shutdown;
use std::sync::OnceLock;
use std::time::Duration;

use common::{raw_ask, serve};
use dbcopilot_http::{HttpClient, HttpConfig, HttpServer};
use proptest::next_state;
use proptest::prelude::*;
use serde::Value;

fn ask_body(question: &str) -> String {
    format!("{{\"question\":\"{question}\"}}")
}

/// `error.<field>` of a structured error body.
fn error_field(body: &str, field: &str) -> Option<Value> {
    let v: Value = serde_json::from_str(body).ok()?;
    v.get("error")?.get(field).cloned()
}

#[test]
fn keep_alive_serves_many_requests_on_one_connection() {
    let server = serve(HttpConfig::new().workers(2));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for i in 0..5 {
        let response = client.post("/ask", &ask_body(&format!("q{i}"))).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert!(response.keep_alive, "server should offer keep-alive");
        assert!(response.body.contains(&format!("SELECT 'q{i}'")), "{}", response.body);
    }
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    let stats = server.stats();
    assert_eq!(stats.accepted, 1, "all six requests rode one connection");
    assert_eq!(stats.requests, 6);
    assert_eq!(stats.responses_with(200), 6);
}

#[test]
fn pipelined_sequential_requests_answer_in_order() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let body = ask_body("pipelined");
    let two = format!(
        "GET /healthz HTTP/1.1\r\n\r\nPOST /ask HTTP/1.1\r\ncontent-length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    client.send_raw(two.as_bytes()).unwrap();
    let first = client.read_response().unwrap();
    assert_eq!(first.status, 200);
    assert!(first.body.contains("\"status\":\"ok\""), "{}", first.body);
    let second = client.read_response().unwrap();
    assert_eq!(second.status, 200);
    assert!(second.body.contains("SELECT 'pipelined'"), "{}", second.body);
    assert_eq!(server.stats().accepted, 1);
}

#[test]
fn everything_pipelined_is_answered_before_the_server_waits_for_more() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // Eight whole requests and the first half of a ninth in one write: the
    // server holds eight responses when it runs out of input, and must
    // write them before it sleeps on the rest — the client sends nothing
    // more until it has read all eight.
    let ninth = raw_ask("the ninth", "");
    let (sent_now, sent_later) = ninth.split_at(ninth.len() / 2);
    let mut wire: String = (0..8).map(|i| raw_ask(&format!("q{i}"), "")).collect();
    wire.push_str(sent_now);
    client.send_raw(wire.as_bytes()).unwrap();
    for i in 0..8 {
        let response = client.read_response().unwrap();
        assert_eq!(response.status, 200);
        assert!(
            response.body.contains(&format!("SELECT 'q{i}'")),
            "out of order: {}",
            response.body
        );
    }
    client.send_raw(sent_later.as_bytes()).unwrap();
    let response = client.read_response().unwrap();
    assert!(response.body.contains("SELECT 'the ninth'"), "{}", response.body);
    assert_eq!((server.stats().accepted, server.stats().requests), (1, 9));
}

#[test]
fn connection_close_mid_pipeline_delivers_what_came_before_it_and_stops() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let wire = [
        raw_ask("first", ""),
        raw_ask("second", "connection: close\r\n"),
        raw_ask("third", ""),
        raw_ask("fourth", ""),
    ]
    .concat();
    client.send_raw(wire.as_bytes()).unwrap();
    let first = client.read_response().unwrap();
    assert!(first.keep_alive && first.body.contains("SELECT 'first'"), "{}", first.body);
    let second = client.read_response().unwrap();
    assert!(!second.keep_alive && second.body.contains("SELECT 'second'"), "{}", second.body);
    assert!(client.read_response().is_err(), "the connection closes after the second response");
    assert_eq!(server.stats().requests, 2, "requests behind a close are not read");
}

#[test]
fn handler_panic_mid_pipeline_delivers_the_responses_queued_before_it() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let wire =
        [raw_ask("first", ""), raw_ask("second", ""), raw_ask("panic now", ""), raw_ask("x", "")]
            .concat();
    client.send_raw(wire.as_bytes()).unwrap();
    for question in ["first", "second"] {
        let response = client.read_response().unwrap();
        assert_eq!(response.status, 200);
        assert!(response.body.contains(&format!("SELECT '{question}'")), "{}", response.body);
    }
    let panicked = client.read_response().unwrap();
    assert_eq!(panicked.status, 500);
    assert_eq!(error_field(&panicked.body, "stage"), Some(Value::String("panic".into())));
    assert!(!panicked.keep_alive);
    assert!(client.read_response().is_err(), "a panicked connection is closed");
}

#[test]
fn truncated_request_line_closes_without_a_response() {
    let server = serve(HttpConfig::new().workers(1).read_timeout(Duration::from_millis(200)));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    client.send_raw(b"GET /hea").unwrap();
    client.stream().shutdown(Shutdown::Write).unwrap();
    let mut rest = Vec::new();
    client.stream().try_clone().unwrap().read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "mid-request EOF gets no response, got {rest:?}");
    // ...and the server is still serving.
    let mut next = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(next.get("/healthz").unwrap().status, 200);
}

#[test]
fn oversized_head_answers_431() {
    let server = serve(HttpConfig::new().workers(1).max_head_bytes(256));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let huge = format!("GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n", "y".repeat(1000));
    client.send_raw(huge.as_bytes()).unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 431);
    assert!(!response.keep_alive, "protocol errors close the connection");
    assert_eq!(error_field(&response.body, "stage"), Some(Value::String("protocol".into())));
}

#[test]
fn too_many_headers_answer_431() {
    let server = serve(HttpConfig::new().workers(1).max_headers(4));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut request = String::from("GET /healthz HTTP/1.1\r\n");
    for i in 0..10 {
        request.push_str(&format!("x-h{i}: {i}\r\n"));
    }
    request.push_str("\r\n");
    client.send_raw(request.as_bytes()).unwrap();
    assert_eq!(client.read_response().unwrap().status, 431);
}

#[test]
fn oversized_declared_body_answers_413_without_reading_it() {
    let server = serve(HttpConfig::new().workers(1).max_body_bytes(64));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // Head only — the 1000-byte body is never sent; the server must reject
    // from the declaration alone instead of waiting for bytes.
    client.send_raw(b"POST /ask HTTP/1.1\r\ncontent-length: 1000\r\n\r\n").unwrap();
    let response = client.read_response().unwrap();
    assert_eq!(response.status, 413);
    let v: Value = serde_json::from_str(&response.body).unwrap();
    let declared = v.get("error").and_then(|e| e.get("declared")).cloned();
    assert_eq!(declared, Some(Value::Int(1000)));
}

#[test]
fn wrong_methods_and_unknown_paths_get_405_and_404() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let response = client.get("/ask").unwrap();
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("POST"));
    let response = client.post("/healthz", "{}").unwrap();
    assert_eq!(response.status, 405);
    assert_eq!(response.header("allow"), Some("GET"));
    let response = client.get("/no/such/endpoint").unwrap();
    assert_eq!(response.status, 404);
    // all of the above are well-formed requests: the connection stays open
    assert_eq!(server.stats().accepted, 1);
}

#[test]
fn malformed_json_answers_400_with_structured_body_and_keeps_the_connection() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let response = client.post("/ask", "{oops").unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(error_field(&response.body, "stage"), Some(Value::String("protocol".into())));
    assert_eq!(error_field(&response.body, "status"), Some(Value::Int(400)));
    // a body-level 400 is the client's fault, not the connection's
    assert_eq!(client.post("/ask", &ask_body("still here")).unwrap().status, 200);
    let response = client.post("/ask", "{\"question\": 17}").unwrap();
    assert_eq!(response.status, 400, "non-string question");
}

#[test]
fn deeply_nested_json_answers_400_and_the_server_keeps_serving() {
    // 20 KB, far under the 1 MiB body cap. An unbounded recursive parser
    // overflows the worker's stack here, which aborts the whole process —
    // catch_unwind cannot contain it.
    let server = serve(HttpConfig::new().workers(1));
    let hostile = "[".repeat(20_000);
    for path in ["/ask", "/admin/publish"] {
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let response = client.post(path, &hostile).unwrap();
        assert_eq!(response.status, 400, "{path}: {}", response.body);
        assert_eq!(error_field(&response.body, "stage"), Some(Value::String("protocol".into())));
    }
    let mut fresh = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(fresh.get("/healthz").unwrap().status, 200);
}

#[test]
fn unsupported_version_transfer_encoding_and_bad_method_map_precisely() {
    let server = serve(HttpConfig::new().workers(1));
    let cases: &[(&str, u16)] = &[
        ("GET /healthz HTTP/2.0\r\n\r\n", 505),
        ("POST /ask HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 501),
        ("get /healthz HTTP/1.1\r\n\r\n", 400),
        ("GET healthz HTTP/1.1\r\n\r\n", 400),
    ];
    for (request, expected) in cases {
        let mut client = HttpClient::connect(server.addr()).unwrap();
        client.send_raw(request.as_bytes()).unwrap();
        let response = client.read_response().unwrap();
        assert_eq!(response.status, *expected, "{request:?}");
        assert!(!response.keep_alive, "{request:?} must close");
    }
}

#[test]
fn pipeline_failures_map_to_their_status_over_the_wire() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let response = client.post("/ask", &ask_body("missing db")).unwrap();
    assert_eq!(response.status, 404);
    assert_eq!(error_field(&response.body, "stage"), Some(Value::String("routing".into())));
}

#[test]
fn handler_panic_answers_500_and_closes_only_that_connection() {
    let server = serve(HttpConfig::new().workers(2));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let response = client.post("/ask", &ask_body("panic now")).unwrap();
    assert_eq!(response.status, 500);
    assert_eq!(error_field(&response.body, "stage"), Some(Value::String("panic".into())));
    assert!(!response.keep_alive, "a panicked connection is not reused");
    // the listener and other workers are unaffected
    let mut next = HttpClient::connect(server.addr()).unwrap();
    assert_eq!(next.post("/ask", &ask_body("fine")).unwrap().status, 200);
}

#[test]
fn publish_without_a_publisher_answers_409() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let response = client.post("/admin/publish", "{\"tag\":\"v2\"}").unwrap();
    assert_eq!(response.status, 409);
    assert_eq!(error_field(&response.body, "stage"), Some(Value::String("admin".into())));
}

#[test]
fn stats_endpoint_reports_edge_counters() {
    let server = serve(HttpConfig::new().workers(1));
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for _ in 0..3 {
        assert_eq!(client.post("/ask", &ask_body("count me")).unwrap().status, 200);
    }
    let response = client.get("/stats").unwrap();
    assert_eq!(response.status, 200);
    let v = response.json().unwrap();
    let edge = v.get("server").expect("server section");
    assert_eq!(edge.get("accepted"), Some(&Value::Int(1)));
    assert_eq!(edge.get("shed"), Some(&Value::Int(0)));
    let latency = edge.get("latency_us").expect("latency section");
    assert_eq!(latency.get("count"), Some(&Value::Int(3)), "3 handler samples before /stats");
    assert!(v.get("services").is_some(), "services section present (empty for a bare backend)");
}

#[test]
fn every_status_a_client_sees_is_counted_once() {
    let server = serve(HttpConfig::new().workers(1).max_head_bytes(512).max_body_bytes(4096));
    let mut seen = std::collections::BTreeMap::<u16, u64>::new();
    {
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let asks = ["fine", "missing db", "gone db", "unprocessable question"];
        let mut statuses: Vec<u16> =
            asks.iter().map(|q| client.post("/ask", &ask_body(q)).unwrap().status).collect();
        statuses.push(client.post("/ask", "{oops").unwrap().status);
        statuses.push(client.post("/route", &ask_body("no routing front")).unwrap().status);
        statuses.push(client.post("/admin/publish", "{}").unwrap().status);
        statuses.push(client.get("/ask").unwrap().status);
        statuses.push(client.get("/no/such/endpoint").unwrap().status);
        statuses.push(client.post("/ask", &ask_body("panic now")).unwrap().status);
        assert_eq!(statuses, [200, 404, 410, 422, 400, 501, 409, 405, 404, 500]);
        statuses.iter().for_each(|status| *seen.entry(*status).or_default() += 1);
    }
    // Protocol errors close the connection: one each.
    let huge = format!("GET /healthz HTTP/1.1\r\nx-pad: {}\r\n\r\n", "y".repeat(1000));
    for (request, expected) in [
        ("GET /healthz HTTP/2.0\r\n\r\n", 505),
        ("POST /ask HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n", 501),
        ("POST /ask HTTP/1.1\r\ncontent-length: 5000\r\n\r\n", 413),
        (huge.as_str(), 431),
    ] {
        let mut client = HttpClient::connect(server.addr()).unwrap();
        client.send_raw(request.as_bytes()).unwrap();
        assert_eq!(client.read_response().unwrap().status, expected, "{request:?}");
        *seen.entry(expected).or_default() += 1;
    }
    // 408 and 429 are counted against what clients saw in overload.rs.
    assert_eq!(server.stats().responses, seen.into_iter().collect::<Vec<_>>());
}

/// The shared server the garbage property test hammers.
fn garbage_target() -> &'static HttpServer {
    static SERVER: OnceLock<HttpServer> = OnceLock::new();
    SERVER.get_or_init(|| {
        serve(
            HttpConfig::new()
                .workers(2)
                .read_timeout(Duration::from_millis(200))
                .idle_timeout(Duration::from_millis(200)),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte garbage never panics the server: every connection
    /// ends in a clean close or an `HTTP/1.1` error response, and the
    /// server keeps serving afterwards.
    #[test]
    fn arbitrary_garbage_never_kills_the_server(seed in 0u64..u64::MAX) {
        let server = garbage_target();
        let mut state = seed;
        let len = (next_state(&mut state) % 300) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| (next_state(&mut state) & 0xff) as u8).collect();

        let mut client = HttpClient::connect(server.addr()).unwrap();
        // Ignore write failures: the server may legitimately slam the door
        // mid-write (e.g. garbage that parses as an oversized head).
        let _ = client.send_raw(&bytes);
        let _ = client.stream().shutdown(Shutdown::Write);
        let mut answer = Vec::new();
        let _ = client.stream().try_clone().unwrap().read_to_end(&mut answer);
        prop_assert!(
            answer.is_empty() || answer.starts_with(b"HTTP/1.1 "),
            "garbage got a non-HTTP reply: {:?} -> {:?}",
            &bytes[..bytes.len().min(40)],
            &answer[..answer.len().min(40)]
        );

        let mut probe = HttpClient::connect(server.addr()).unwrap();
        prop_assert!(probe.get("/healthz").unwrap().status == 200, "server died");
    }
}
