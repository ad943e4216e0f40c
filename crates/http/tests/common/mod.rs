//! Shared fixtures for the protocol/overload suites: a scriptable
//! in-process backend and a canned successful report.
#![allow(dead_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dbcopilot_graph::QuerySchema;
use dbcopilot_http::{Dispatcher, HttpConfig, HttpServer};
use dbcopilot_serve::{
    Answer, AskError, AskOutcome, AskReport, GenerationError, PromptError, RoutingError,
    StageTimings,
};
use dbcopilot_sqlengine::ResultSet;

/// A minimal successful pipeline outcome echoing the question.
pub fn ok_report(question: &str) -> AskReport {
    AskReport {
        question: question.to_string(),
        answer: Answer {
            schema: QuerySchema::new("testdb", vec!["t".into()]),
            sql: format!("SELECT '{question}'"),
            result: ResultSet {
                columns: vec!["echo".into()],
                rows: vec![vec![dbcopilot_sqlengine::Value::Text(question.to_string())]],
            },
            recovered_errors: Vec::new(),
        },
        candidates: Vec::new(),
        chosen: 0,
        attempts: Vec::new(),
        timings: StageTimings::default(),
    }
}

/// Scriptable backend: echoes questions, optionally sleeping per request.
/// Questions starting with `"missing"`, `"gone"` and `"unprocessable"` fail
/// the routing, prompt and generation stages (→ 404, 410, 422 on the wire);
/// questions starting with `"panic"` panic in the handler, and ones
/// starting with `"slow"` take [`SLOW_QUESTION`] whatever the delay.
pub struct EchoBackend {
    pub delay: Duration,
    pub asked: AtomicU64,
}

/// How long a question starting with `"slow"` takes.
pub const SLOW_QUESTION: Duration = Duration::from_millis(300);

impl EchoBackend {
    pub fn fast() -> Self {
        EchoBackend { delay: Duration::ZERO, asked: AtomicU64::new(0) }
    }

    pub fn slow(delay: Duration) -> Self {
        EchoBackend { delay, asked: AtomicU64::new(0) }
    }
}

impl Dispatcher for EchoBackend {
    fn ask(&self, question: &str) -> Arc<AskOutcome> {
        self.asked.fetch_add(1, Ordering::Relaxed);
        if !self.delay.is_zero() {
            std::thread::sleep(self.delay);
        }
        if question.starts_with("slow") {
            std::thread::sleep(SLOW_QUESTION);
        }
        if question.starts_with("panic") {
            panic!("scripted handler panic");
        }
        if question.starts_with("gone") {
            return Arc::new(Err(AskError::Prompt(PromptError { candidates: 1 })));
        }
        if question.starts_with("unprocessable") {
            return Arc::new(Err(AskError::Generation(GenerationError { candidates: 1 })));
        }
        if question.starts_with("missing") {
            return Arc::new(Err(AskError::Routing(RoutingError {
                question: question.to_string(),
            })));
        }
        Arc::new(Ok(ok_report(question)))
    }
}

/// `POST /ask` for `question` as raw bytes, for tests that pipeline several
/// requests in one write; `extra_header` is a whole `name: value\r\n` line or
/// empty.
pub fn raw_ask(question: &str, extra_header: &str) -> String {
    let body = format!("{{\"question\":\"{question}\"}}");
    format!("POST /ask HTTP/1.1\r\n{extra_header}content-length: {}\r\n\r\n{body}", body.len())
}

/// Bind an [`EchoBackend`]-backed server on an ephemeral port.
pub fn serve(cfg: HttpConfig) -> HttpServer {
    HttpServer::bind("127.0.0.1:0", EchoBackend::fast(), cfg).expect("bind ephemeral port")
}
