//! The HTTP/1.1 edge: accept loop, bounded admission, connection workers
//! on the runtime [`WorkerPool`], request routing, and graceful drain.
//!
//! ```text
//! socket ──► accept thread ──► bounded admission ──► WorkerPool conn thread
//!                                │ (over budget:           │ keep-alive loop
//!                                ▼  429 + Retry-After)     ▼
//!                              shed                  Dispatcher (AskService /
//!                                                    RouterService micro-batcher)
//! ```
//!
//! Admission control is a hard bound on connections in flight
//! ([`HttpConfig::workers`] executing + [`HttpConfig::backlog`] queued):
//! the accept thread sheds everything beyond it with an immediate
//! `429 Too Many Requests` carrying `Retry-After`, so overload degrades
//! into fast, explicit rejections instead of unbounded queueing.
//!
//! Shutdown is a graceful drain: stop accepting, answer everything already
//! admitted (in-progress requests finish; queued connections get one
//! grace window to submit a request, answered with `Connection: close`),
//! then join every thread and release the port. Each request handler runs
//! under `catch_unwind`, so one poisoned request answers 500 and closes
//! its own connection — the listener and the other workers never notice.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dbcopilot_retrieval::RoutingResult;
use dbcopilot_runtime::WorkerPool;
use dbcopilot_serve::{AskOutcome, AskService, QueryPipeline, RouterService, ServiceStats};
use serde::Value;

use crate::histogram::Histogram;
use crate::proto::{self, Conn, Limits, Request, RequestError, Response};
use crate::wire;

/// Tuning knobs for [`HttpServer`], builder-style like the other service
/// configs in the workspace.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct HttpConfig {
    /// Connection worker threads (each runs one connection's keep-alive
    /// loop at a time).
    pub workers: usize,
    /// Admitted connections allowed to queue beyond the busy workers
    /// before the accept thread starts shedding 429s.
    pub backlog: usize,
    /// Head, header-count and body budgets for one request (breach → 431,
    /// 431, 413).
    pub limits: Limits,
    /// Progress deadline for reading one request once its first byte has
    /// arrived — the slow-loris bound (lapse → 408, connection evicted).
    pub read_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests.
    pub idle_timeout: Duration,
    /// `Retry-After` seconds on 429 shed responses.
    pub retry_after_secs: u32,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 8,
            backlog: 32,
            limits: Limits::default(),
            read_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(5),
            retry_after_secs: 1,
        }
    }
}

impl HttpConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    pub fn backlog(mut self, n: usize) -> Self {
        self.backlog = n;
        self
    }

    pub fn max_head_bytes(mut self, n: usize) -> Self {
        self.limits.max_head_bytes = n;
        self
    }

    pub fn max_headers(mut self, n: usize) -> Self {
        self.limits.max_headers = n;
        self
    }

    pub fn max_body_bytes(mut self, n: usize) -> Self {
        self.limits.max_body_bytes = n;
        self
    }

    pub fn read_timeout(mut self, d: Duration) -> Self {
        self.read_timeout = d;
        self
    }

    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.idle_timeout = d;
        self
    }

    pub fn retry_after_secs(mut self, secs: u32) -> Self {
        self.retry_after_secs = secs;
        self
    }
}

/// What the edge serves. Implemented by [`ServiceApp`] over the real
/// serving stack; tests implement it directly with mock backends.
pub trait Dispatcher: Send + Sync + 'static {
    /// Answer `POST /ask`.
    fn ask(&self, question: &str) -> Arc<AskOutcome>;

    /// Answer `POST /route`; `None` means this deployment has no routing
    /// front (the endpoint answers 501).
    fn route(&self, question: &str) -> Option<Arc<RoutingResult>> {
        let _ = question;
        None
    }

    /// Backing-service counters surfaced under `"services"` in `/stats`.
    fn stats(&self) -> Vec<(&'static str, ServiceStats)> {
        Vec::new()
    }

    /// The published router generation (0 when nothing is swappable).
    fn generation(&self) -> u64 {
        0
    }

    /// Handle `POST /admin/publish`: stage-specific spec in, new
    /// generation out. The default deployment has nothing to publish.
    fn publish(&self, spec: &Value) -> Result<u64, String> {
        let _ = spec;
        Err("this deployment has no publishable router".into())
    }
}

/// The standard deployment: an [`AskService`] fronting the full pipeline,
/// a [`RouterService`] fronting routing, and an optional publisher hook
/// that turns an `/admin/publish` body into the next router generation.
pub struct ServiceApp<P, R>
where
    P: QueryPipeline + 'static,
    R: dbcopilot_retrieval::SchemaRouter + Send + Sync + 'static,
{
    pub ask: AskService<P>,
    pub route: RouterService<R>,
    /// Builds the next router from the `/admin/publish` request body.
    /// `None` → the endpoint answers 409.
    #[allow(clippy::type_complexity)]
    pub publisher: Option<Box<dyn Fn(&Value) -> Result<Arc<R>, String> + Send + Sync>>,
}

impl<P, R> ServiceApp<P, R>
where
    P: QueryPipeline + 'static,
    R: dbcopilot_retrieval::SchemaRouter + Send + Sync + 'static,
{
    pub fn new(ask: AskService<P>, route: RouterService<R>) -> Self {
        ServiceApp { ask, route, publisher: None }
    }

    pub fn with_publisher(
        mut self,
        publisher: impl Fn(&Value) -> Result<Arc<R>, String> + Send + Sync + 'static,
    ) -> Self {
        self.publisher = Some(Box::new(publisher));
        self
    }
}

impl<P, R> Dispatcher for ServiceApp<P, R>
where
    P: QueryPipeline + 'static,
    R: dbcopilot_retrieval::SchemaRouter + Send + Sync + 'static,
{
    fn ask(&self, question: &str) -> Arc<AskOutcome> {
        self.ask.ask(question)
    }

    fn route(&self, question: &str) -> Option<Arc<RoutingResult>> {
        Some(self.route.route(question))
    }

    fn stats(&self) -> Vec<(&'static str, ServiceStats)> {
        vec![("ask", self.ask.stats()), ("route", self.route.stats())]
    }

    fn generation(&self) -> u64 {
        self.route.generation()
    }

    fn publish(&self, spec: &Value) -> Result<u64, String> {
        let publisher = self.publisher.as_ref().ok_or("no publisher configured")?;
        let next = publisher(spec)?;
        Ok(self.route.publish(next))
    }
}

/// Edge-level counters, separate from the backing services' caches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted by the listener (admitted + shed).
    pub accepted: u64,
    /// Connections rejected with 429 by admission control.
    pub shed: u64,
    /// Requests parsed and routed to a handler.
    pub requests: u64,
    /// `(status, count)` over every response written, ascending status.
    pub responses: Vec<(u16, u64)>,
    /// Admitted connections currently open.
    pub in_flight: u64,
    /// Handler latency percentiles from the fixed-bucket histogram, µs.
    pub p50_us: u64,
    pub p95_us: u64,
    /// Samples in the latency histogram.
    pub latency_count: u64,
}

impl ServerStats {
    /// Count of responses with `status`.
    pub fn responses_with(&self, status: u16) -> u64 {
        self.responses.iter().find(|(s, _)| *s == status).map(|(_, n)| *n).unwrap_or(0)
    }
}

struct State {
    app: Box<dyn Dispatcher>,
    cfg: HttpConfig,
    shutdown: AtomicBool,
    accepted: AtomicU64,
    shed: AtomicU64,
    requests: AtomicU64,
    in_flight: AtomicU64,
    /// Responses written, one counter per entry of [`STATUSES`].
    responses: [AtomicU64; STATUSES.len()],
    latency: Histogram,
}

/// Every status the edge emits, ascending: `route_request`'s and
/// `wire::ask_status`'s, the protocol errors, the shed 429, the panic 500.
const STATUSES: [u16; 14] = [200, 400, 404, 405, 408, 409, 410, 413, 422, 429, 431, 500, 501, 505];

impl State {
    fn count_response(&self, status: u16) {
        let mut counters = STATUSES.iter().zip(&self.responses);
        if let Some((_, count)) = counters.find(|(&s, _)| s == status) {
            count.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            responses: STATUSES
                .iter()
                .zip(&self.responses)
                .map(|(&status, count)| (status, count.load(Ordering::Relaxed)))
                .filter(|&(_, count)| count > 0)
                .collect(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            p50_us: self.latency.p50_us(),
            p95_us: self.latency.p95_us(),
            latency_count: self.latency.count(),
        }
    }
}

/// Decrements the in-flight gauge when a connection ends, even if its
/// handler panicked out of the worker.
struct ConnSlot(Arc<State>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::Release);
    }
}

/// The running edge. Dropping it (or calling
/// [`shutdown`](HttpServer::shutdown)) drains gracefully.
pub struct HttpServer {
    state: Arc<State>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    pool: Option<WorkerPool>,
}

impl HttpServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `app`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        app: impl Dispatcher,
        cfg: HttpConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let mut cfg = cfg;
        cfg.workers = cfg.workers.max(1);
        let pool = WorkerPool::new(cfg.workers);
        let state = Arc::new(State {
            app: Box::new(app),
            cfg,
            shutdown: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            responses: Default::default(),
            latency: Histogram::new(),
        });
        let accept = {
            let state = Arc::clone(&state);
            let pool_handle = pool.handle();
            std::thread::Builder::new()
                .name("dbc-http-accept".into())
                // dbc-lint: allow(no-raw-spawn): the accept loop blocks in
                // accept() for the server's lifetime — it must own a
                // dedicated thread, not occupy a pool worker.
                .spawn(move || accept_loop(&listener, &state, &pool_handle))?
        };
        Ok(HttpServer { state, addr, accept: Some(accept), pool: Some(pool) })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Edge counters.
    pub fn stats(&self) -> ServerStats {
        self.state.snapshot()
    }

    /// Graceful drain: stop accepting, answer every admitted request,
    /// join all threads, release the port. Returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.drain();
        self.state.snapshot()
    }

    fn drain(&mut self) {
        if self.accept.is_none() {
            return;
        }
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept() so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        // Dropping the pool drains queued connections (each gets its grace
        // window under the shutdown flag) and joins the workers.
        drop(self.pool.take());
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.drain();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>, pool: &dbcopilot_runtime::PoolHandle) {
    let max_pending = (state.cfg.workers + state.cfg.backlog) as u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if state.shutdown.load(Ordering::SeqCst) {
            break; // the wake connection (or anything racing it) is not served
        }
        state.accepted.fetch_add(1, Ordering::Relaxed);
        // Admission control: beyond the busy workers + backlog budget,
        // shed immediately rather than queue without bound.
        if state.in_flight.load(Ordering::Acquire) >= max_pending {
            shed(state, stream);
            continue;
        }
        state.in_flight.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(state);
        pool.execute(move || {
            let slot = ConnSlot(Arc::clone(&state));
            handle_connection(&state, stream);
            drop(slot);
        });
    }
}

/// Reject one connection with `429 Too Many Requests` + `Retry-After`,
/// without reading the request (the whole point is to spend nothing on it).
fn shed(state: &State, mut stream: TcpStream) {
    state.shed.fetch_add(1, Ordering::Relaxed);
    state.count_response(429);
    let body = wire::error_body(
        "admission",
        429,
        "server over capacity; retry after the indicated delay",
        vec![("retry_after_secs", Value::UInt(state.cfg.retry_after_secs as u64))],
    );
    let response = Response::json(429, body).header("retry-after", state.cfg.retry_after_secs);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let _ = stream.write_all(&response.to_bytes(false));
    let _ = stream.flush();
}

/// One connection's keep-alive loop.
fn handle_connection(state: &State, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(state.cfg.read_timeout));
    let mut conn = Conn::new(stream);
    // Idle waits run in short slices so a drain never blocks on an idle
    // keep-alive connection for the full idle budget.
    let slice = Duration::from_millis(50).min(state.cfg.idle_timeout.max(Duration::from_millis(1)));
    let mut idled = Duration::ZERO;
    loop {
        let draining = state.shutdown.load(Ordering::SeqCst);
        let request =
            proto::read_request(&mut conn, &state.cfg.limits, slice, state.cfg.read_timeout);
        let request = match request {
            Ok(request) => request,
            Err(RequestError::Idle) => {
                idled += slice;
                // When draining, one grace slice is all a queued connection
                // gets to put a request on the wire.
                if draining || idled >= state.cfg.idle_timeout {
                    break;
                }
                continue;
            }
            Err(RequestError::Closed) | Err(RequestError::Disconnected) => break,
            Err(error) => {
                if let Some(response) = protocol_error_response(&error) {
                    state.count_response(response.status);
                    let _ = conn.write_response(&response, false);
                }
                break;
            }
        };
        idled = Duration::ZERO;
        state.requests.fetch_add(1, Ordering::Relaxed);

        let start = Instant::now();
        let handled = catch_unwind(AssertUnwindSafe(|| route_request(state, &request)));
        let (response, panicked) = match handled {
            Ok(response) => (response, false),
            Err(_) => {
                let body = wire::error_body(
                    "panic",
                    500,
                    "request handler panicked; connection closed",
                    Vec::new(),
                );
                (Response::json(500, body), true)
            }
        };
        state.latency.record_us(start.elapsed().as_micros() as u64);
        state.count_response(response.status);

        let draining = state.shutdown.load(Ordering::SeqCst);
        let keep_alive = request.keep_alive && !panicked && !draining;
        if conn.write_response(&response, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

/// The response for an unparseable request, or `None` to close silently.
fn protocol_error_response(error: &RequestError) -> Option<Response> {
    let mut detail: Vec<(&str, Value)> = Vec::new();
    let (status, message) = match error {
        RequestError::Stalled => {
            (408, "no progress on the request before the read deadline".to_string())
        }
        RequestError::HeadTooLarge => {
            (431, "request line + headers exceed the configured budget".to_string())
        }
        RequestError::BodyTooLarge { declared } => {
            detail.push(("declared", Value::UInt(*declared)));
            (413, format!("declared body of {declared} bytes exceeds the configured budget"))
        }
        RequestError::Bad(msg) => (400, msg.clone()),
        RequestError::Unsupported(what) => (501, format!("{what} is not supported")),
        RequestError::Version(v) => (505, format!("{v} is not supported; use HTTP/1.1")),
        RequestError::Closed
        | RequestError::Idle
        | RequestError::Disconnected
        | RequestError::Io(_) => return None,
    };
    Some(Response::json(status, wire::error_body("protocol", status, &message, detail)))
}

/// Route one parsed request to its handler.
fn route_request(state: &State, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = wire::render(&wire::obj(vec![
                ("status", Value::String("ok".into())),
                ("generation", Value::UInt(state.app.generation())),
            ]));
            Response::json(200, body)
        }
        ("GET", "/stats") => {
            let snapshot = state.snapshot();
            let services = state.app.stats();
            Response::json(200, stats_body(&snapshot, &services))
        }
        ("POST", "/ask") => match wire::parse_question(&request.body) {
            Ok(question) => {
                let outcome = state.app.ask(&question);
                let (status, body) = wire::ask_response(&outcome);
                Response::json(status, body)
            }
            Err(why) => bad_request(&why),
        },
        ("POST", "/route") => match wire::parse_question(&request.body) {
            Ok(question) => match state.app.route(&question) {
                Some(routing) => {
                    let (status, body) = wire::route_response(&question, &routing);
                    Response::json(status, body)
                }
                None => Response::json(
                    501,
                    wire::error_body(
                        "protocol",
                        501,
                        "this deployment has no routing front",
                        vec![],
                    ),
                ),
            },
            Err(why) => bad_request(&why),
        },
        ("POST", "/admin/publish") => {
            let spec = if request.body.is_empty() {
                Ok(Value::Object(Vec::new()))
            } else {
                serde_json::from_slice(&request.body)
                    .map_err(|e| format!("body is not valid JSON: {e}"))
            };
            match spec {
                Ok(spec) => match state.app.publish(&spec) {
                    Ok(generation) => {
                        let body =
                            wire::render(&wire::obj(vec![("generation", Value::UInt(generation))]));
                        Response::json(200, body)
                    }
                    Err(why) => {
                        Response::json(409, wire::error_body("admin", 409, &why, Vec::new()))
                    }
                },
                Err(why) => bad_request(&why),
            }
        }
        // Known paths with the wrong method answer 405 + Allow.
        (_, "/healthz") | (_, "/stats") => method_not_allowed("GET"),
        (_, "/ask") | (_, "/route") | (_, "/admin/publish") => method_not_allowed("POST"),
        (_, path) => Response::json(
            404,
            wire::error_body("protocol", 404, &format!("no such endpoint {path:?}"), Vec::new()),
        ),
    }
}

fn bad_request(why: &str) -> Response {
    Response::json(400, wire::error_body("protocol", 400, why, Vec::new()))
}

fn method_not_allowed(allow: &'static str) -> Response {
    Response::json(
        405,
        wire::error_body("protocol", 405, &format!("method not allowed; use {allow}"), Vec::new()),
    )
    .header("allow", allow)
}

/// The `/stats` payload: edge counters + per-service serving counters.
fn stats_body(server: &ServerStats, services: &[(&'static str, ServiceStats)]) -> String {
    let responses = server
        .responses
        .iter()
        .map(|(status, n)| (status.to_string(), Value::UInt(*n)))
        .collect::<Vec<_>>();
    let server_value = wire::obj(vec![
        ("accepted", Value::UInt(server.accepted)),
        ("shed", Value::UInt(server.shed)),
        ("requests", Value::UInt(server.requests)),
        ("in_flight", Value::UInt(server.in_flight)),
        (
            "latency_us",
            wire::obj(vec![
                ("p50", Value::UInt(server.p50_us)),
                ("p95", Value::UInt(server.p95_us)),
                ("count", Value::UInt(server.latency_count)),
            ]),
        ),
        ("responses", Value::Object(responses)),
    ]);
    let services = services
        .iter()
        .map(|(name, stats)| (name.to_string(), wire::service_stats_value(stats)))
        .collect::<Vec<_>>();
    wire::render(&wire::obj(vec![("server", server_value), ("services", Value::Object(services))]))
}
