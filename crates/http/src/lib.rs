//! `dbcopilot-http` — the hand-rolled HTTP/1.1 serving edge.
//!
//! Turns the in-process serving layer (`dbcopilot-serve`'s [`AskService`]
//! and [`RouterService`]) into a network service, with no async runtime:
//! plain `std::net` sockets, connection threads on the shared
//! [`WorkerPool`](dbcopilot_runtime::WorkerPool), and a strict little
//! HTTP/1.1 parser.
//!
//! ```text
//! socket ──► accept thread ──► bounded admission ──► connection thread
//!                 │ shed 429 + Retry-After              │ keep-alive loop
//!                 ▼                                     ▼
//!            (over budget)                    AskService / RouterService
//!                                             (micro-batcher, LRU cache,
//!                                              sharded router, hot swap)
//! ```
//!
//! # Endpoints
//!
//! | endpoint              | body                        | answers |
//! |-----------------------|-----------------------------|---------|
//! | `POST /ask`           | `{"question": "..."}`       | 200 full answer; 404/410/422/500 typed pipeline failure |
//! | `POST /route`         | `{"question": "..."}`       | 200 ranked databases + tables |
//! | `GET /stats`          | —                           | edge counters, latency percentiles, per-service cache/shard stats |
//! | `GET /healthz`        | —                           | `{"status":"ok","generation":N}` |
//! | `POST /admin/publish` | deployment-defined spec     | 200 new generation; 409 when not publishable |
//!
//! Protocol breaches get precise statuses (400/408/413/431/501/505), and
//! admission control sheds overload with 429 + `Retry-After` — see
//! [`proto`] and [`server`] for the full tables.
//!
//! # Quick start
//!
//! ```no_run
//! use dbcopilot_http::{HttpClient, HttpConfig, HttpServer, ServiceApp};
//! use dbcopilot_serve::{AskOptions, AskService, RouterService, ServiceConfig};
//! # fn serve<P, R>(copilot: P, router: R) -> std::io::Result<()>
//! # where
//! #     P: dbcopilot_serve::QueryPipeline + 'static,
//! #     R: dbcopilot_retrieval::SchemaRouter + Send + Sync + 'static,
//! # {
//! let app = ServiceApp::new(
//!     AskService::from_pipeline(copilot, AskOptions::new(), ServiceConfig::default()),
//!     RouterService::from_router(router, ServiceConfig::default()),
//! );
//! let server = HttpServer::bind("127.0.0.1:0", app, HttpConfig::new().workers(4))?;
//!
//! let mut client = HttpClient::connect(server.addr())?;
//! let response = client.post("/ask", "{\"question\":\"how many cities?\"}")?;
//! assert_eq!(response.status, 200);
//!
//! let stats = server.shutdown(); // graceful drain, port released
//! assert_eq!(stats.in_flight, 0);
//! # Ok(()) }
//! ```

pub mod client;
pub mod histogram;
pub mod proto;
pub mod server;
pub mod wire;

pub use client::{HttpClient, HttpResponse};
pub use histogram::Histogram;
pub use proto::{Limits, Request, RequestError, Response};
pub use server::{Dispatcher, HttpConfig, HttpServer, ServerStats, ServiceApp};

#[cfg(doc)]
use dbcopilot_serve::{AskService, RouterService};
