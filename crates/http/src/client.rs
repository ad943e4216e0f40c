//! A minimal blocking HTTP/1.1 client: keep-alive connection reuse, JSON
//! request helpers, raw-byte access for protocol tests.
//!
//! This is the counterpart the test battery, the examples and `exp_perf`
//! drive the edge with — it speaks exactly the subset the server speaks
//! (`Content-Length` framing, keep-alive) and exposes the raw socket so
//! conformance tests can write arbitrary garbage.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use serde::Value;

use crate::proto::{self, Conn, Limits, Transport};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    pub status: u16,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: String,
    /// Whether the server announced it will keep the connection open.
    pub keep_alive: bool,
}

impl HttpResponse {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        proto::header(&self.headers, name)
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<Value, String> {
        serde_json::from_str(&self.body).map_err(|e| format!("body is not valid JSON: {e}"))
    }
}

/// A blocking keep-alive connection to the edge.
pub struct HttpClient {
    conn: Conn<TcpStream>,
}

/// How long a response (or a write) may take.
const TIMEOUT: Duration = Duration::from_secs(10);

impl HttpClient {
    /// Connect; responses and writes get a 10 s deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(HttpClient { conn: Conn::new(stream) })
    }

    /// The underlying socket, for tests that need to shutdown/linger/etc.
    pub fn stream(&self) -> &TcpStream {
        self.conn.transport()
    }

    /// Write raw bytes on the socket — no framing, no response read. For
    /// protocol-conformance tests (garbage, truncation, slow-loris drips).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.conn.send(bytes)
    }

    /// `GET path` and read the response.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// `POST path` with a JSON body and read the response.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// Issue one request and read its response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        let body = body.unwrap_or("");
        let mut head = String::with_capacity(96 + body.len());
        head.push_str(method);
        head.push(' ');
        head.push_str(path);
        head.push_str(" HTTP/1.1\r\nhost: dbcopilot\r\n");
        if !body.is_empty() {
            head.push_str("content-type: application/json\r\n");
        }
        head.push_str("content-length: ");
        head.push_str(&body.len().to_string());
        head.push_str("\r\n\r\n");
        head.push_str(body);
        self.send_raw(head.as_bytes())?;
        self.read_response()
    }

    /// Read one response off the socket (framed by `Content-Length`).
    /// Leftover bytes stay buffered for the next response.
    pub fn read_response(&mut self) -> io::Result<HttpResponse> {
        read_response(&mut self.conn, TIMEOUT)
    }
}

/// Read and parse one response through the shared message reader: no size
/// limits (the peer is the server under test), `timeout` for both the first
/// byte and the rest of the message.
pub(crate) fn read_response<T: Transport>(
    conn: &mut Conn<T>,
    timeout: Duration,
) -> io::Result<HttpResponse> {
    const UNBOUNDED: Limits =
        Limits { max_head_bytes: usize::MAX, max_headers: usize::MAX, max_body_bytes: usize::MAX };
    let head = conn.read_head(&UNBOUNDED, timeout, timeout)?;
    let status_line = head.start_line();
    let status: u16 =
        status_line.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad status line {status_line:?}"))
        })?;
    let headers = head.headers(UNBOUNDED.max_headers)?;
    let body = conn.read_body(&head, &headers, &UNBOUNDED)?;
    let keep_alive =
        proto::header(&headers, "connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
    let body = String::from_utf8_lossy(&body).into_owned();
    Ok(HttpResponse { status, headers, body, keep_alive })
}
