//! HTTP/1.1 protocol plumbing: a buffered connection reader with strict
//! limits and per-phase read deadlines, request parsing, and response
//! writing.
//!
//! The parser is deliberately small and strict — it accepts the subset of
//! HTTP/1.1 the DBCopilot edge speaks (`Content-Length` bodies, keep-alive,
//! no chunked transfer coding) and answers everything else with a precise
//! status code instead of guessing:
//!
//! | breach                                   | outcome                  |
//! |------------------------------------------|--------------------------|
//! | head (request line + headers) over budget| [`RequestError::HeadTooLarge`] → 431 |
//! | more than `max_headers` header lines     | [`RequestError::HeadTooLarge`] → 431 |
//! | declared body over budget                | [`RequestError::BodyTooLarge`] → 413 |
//! | malformed request line / header / length | [`RequestError::Bad`] → 400 |
//! | `Transfer-Encoding` present              | [`RequestError::Unsupported`] → 501 |
//! | HTTP version other than 1.0/1.1          | [`RequestError::Version`] → 505 |
//! | no progress before the read deadline     | [`RequestError::Stalled`] → 408 (slow-loris eviction) |
//!
//! Reads go through [`Conn`], which keeps leftover bytes across requests so
//! keep-alive and pipelined requests on one socket parse correctly. Every
//! read runs under an explicit deadline on the transport
//! ([`Transport::set_read_deadline`], handed over only when it changes) — a
//! client that connects and then stalls mid-request is evicted when the
//! deadline lapses, never held forever.
//!
//! Writes go through [`Conn`] too. A message is written at once unless the
//! peer's next message is already buffered: then it waits in the output
//! buffer, and the answers to messages that arrived together leave
//! together, in order. The buffer is also written when it reaches 1 KiB
//! (`OUT_BOUND`), when a response closes the connection, and always before
//! the connection sleeps in `read` — so no peer ever waits on bytes this
//! side is holding.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A byte stream the protocol layer can read with deadlines. Implemented
/// by [`TcpStream`] (via `set_read_timeout`) and by in-memory streams for
/// tests and benches.
pub trait Transport: Read + Write {
    /// Apply a deadline to subsequent reads (`None` clears it). A read that
    /// makes no progress before the deadline fails with `WouldBlock` or
    /// `TimedOut`.
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(timeout)
    }
}

/// In-memory transport for parser tests and benches: reads from a fixed
/// input, collects writes, ignores deadlines.
pub struct ByteStream {
    input: io::Cursor<Vec<u8>>,
    /// Everything written to the stream (the would-be wire output).
    pub output: Vec<u8>,
}

impl ByteStream {
    pub fn new(input: impl Into<Vec<u8>>) -> Self {
        ByteStream { input: io::Cursor::new(input.into()), output: Vec::new() }
    }
}

impl Read for ByteStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.input.read(buf)
    }
}

impl Write for ByteStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.output.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Transport for ByteStream {
    fn set_read_deadline(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }
}

/// Hard ceilings the parser enforces while reading one request.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Request line + all header lines, bytes.
    pub max_head_bytes: usize,
    /// Header line count.
    pub max_headers: usize,
    /// Declared `Content-Length`, bytes.
    pub max_body_bytes: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_head_bytes: 16 * 1024, max_headers: 64, max_body_bytes: 1024 * 1024 }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// Header `(name, value)` pairs, names lowercased.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`; HTTP/1.0 opt-in).
    pub keep_alive: bool,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }
}

/// Why [`read_request`] produced no request.
#[derive(Debug)]
pub enum RequestError {
    /// Clean close: the peer disconnected between requests (no bytes of a
    /// new request had arrived). Not an error — the keep-alive loop ends.
    Closed,
    /// No first byte arrived inside the idle window. The caller decides
    /// whether to keep waiting (still inside the keep-alive idle budget) or
    /// close the connection.
    Idle,
    /// The peer disconnected mid-request; there is nothing to respond to.
    Disconnected,
    /// Bytes of a request arrived but the peer stopped making progress
    /// before the read deadline — the slow-loris shape. Respond 408, close.
    Stalled,
    /// Request line + headers exceeded [`Limits::max_head_bytes`] or
    /// [`Limits::max_headers`] → 431.
    HeadTooLarge,
    /// Declared `Content-Length` exceeded [`Limits::max_body_bytes`] → 413.
    BodyTooLarge { declared: u64 },
    /// Structurally invalid request → 400.
    Bad(String),
    /// `Transfer-Encoding` (chunked uploads) is outside the spoken subset → 501.
    Unsupported(String),
    /// Not HTTP/1.0 or HTTP/1.1 → 505.
    Version(String),
    /// Transport-level failure; close without a response.
    Io(io::Error),
}

/// What a [`RequestError`] means to a caller that speaks `io::Result` (the
/// client role): the transport failure itself, EOF, a lapsed deadline, or a
/// malformed message.
impl From<RequestError> for io::Error {
    fn from(error: RequestError) -> Self {
        match error {
            RequestError::Io(e) => e,
            RequestError::Closed | RequestError::Disconnected => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-message")
            }
            RequestError::Idle | RequestError::Stalled => {
                io::Error::new(io::ErrorKind::TimedOut, "no progress before the read deadline")
            }
            malformed => io::Error::new(io::ErrorKind::InvalidData, format!("{malformed:?}")),
        }
    }
}

/// Buffered HTTP/1.1 message reader over a [`Transport`] — the one framer
/// both roles use ([`read_request`] on the server, the client's response
/// reader). It retains leftover bytes between messages (keep-alive reuse,
/// pipelined sequential messages) and hands bytes out only through checked
/// splits, so no caller can index past what was read.
pub struct Conn<T: Transport> {
    transport: T,
    buf: Vec<u8>,
    start: usize,
    /// Bytes accepted for the peer and not yet written.
    out: Vec<u8>,
    /// The read deadline the transport was last given.
    read_deadline: Option<Duration>,
}

/// Pending output is written once it reaches this size, whatever the peer
/// has pipelined behind it: about two cached answers, so a saturated
/// pipeline costs half its writes and no answer waits behind more than a
/// couple of others. It is also what keeps a peer that never reads from
/// growing this process: it fills the socket and meets the write timeout
/// instead. (Why not larger: ROADMAP item 1(vi).)
const OUT_BOUND: usize = 1024;

/// A framed message head, and the deadline the rest of its message must
/// meet. Only [`Conn::read_head`] makes one, so a body is never read
/// without the head that declares it.
pub(crate) struct Head {
    text: String,
    deadline: Instant,
}

impl Head {
    fn lines(&self) -> impl Iterator<Item = &str> {
        let lines = self.text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
        lines.skip_while(|l| l.is_empty())
    }

    /// The request or status line.
    pub(crate) fn start_line(&self) -> &str {
        self.lines().next().unwrap_or("")
    }

    /// Header `(name, value)` pairs, names lowercased.
    pub(crate) fn headers(&self, max: usize) -> Result<Vec<(String, String)>, RequestError> {
        let mut headers: Vec<(String, String)> = Vec::new();
        // Skip the start line; the terminating blank line is the other empty one.
        for line in self.lines().skip(1).filter(|l| !l.is_empty()) {
            if headers.len() >= max {
                return Err(RequestError::HeadTooLarge);
            }
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| RequestError::Bad(format!("bad header {line:?}")))?;
            if name.is_empty() || name.contains(' ') || name.contains('\t') {
                return Err(RequestError::Bad(format!("bad header name {name:?}")));
            }
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        Ok(headers)
    }
}

/// First value of a header, by lowercase name.
pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

impl<T: Transport> Conn<T> {
    pub fn new(transport: T) -> Self {
        Conn {
            transport,
            buf: Vec::with_capacity(4096),
            start: 0,
            out: Vec::new(),
            read_deadline: None,
        }
    }

    pub(crate) fn transport(&self) -> &T {
        &self.transport
    }

    /// Bytes buffered but not yet consumed.
    fn buffered(&self) -> &[u8] {
        self.buf.get(self.start..).unwrap_or_default()
    }

    fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.buffered().len());
        self.start = (self.start + n).min(self.buf.len());
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
    }

    /// Read more bytes before `timeout` lapses. What EOF (or a reset) and a
    /// lapsed deadline mean depends on whether a message is under way:
    /// between messages they are a clean close and an idle connection.
    fn fill(&mut self, timeout: Duration, mid_message: bool) -> Result<(), RequestError> {
        let (gone, lapsed) = if mid_message {
            (RequestError::Disconnected, RequestError::Stalled)
        } else {
            (RequestError::Closed, RequestError::Idle)
        };
        // A zero timeout would mean "no deadline" to the OS; clamp to the
        // smallest representable one so a lapsed budget still times out.
        let timeout = timeout.max(Duration::from_millis(1));
        // Never sleep in `read` holding bytes the peer may be waiting for.
        self.flush().map_err(RequestError::Io)?;
        if self.read_deadline != Some(timeout) {
            self.transport.set_read_deadline(Some(timeout)).map_err(RequestError::Io)?;
            self.read_deadline = Some(timeout);
        }
        if self.start > 0 && self.buf.len() + 4096 > self.buf.capacity() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        let mut chunk = [0u8; 4096];
        loop {
            return match self.transport.read(&mut chunk) {
                Ok(0) => Err(gone),
                Ok(n) => {
                    self.buf.extend_from_slice(chunk.get(..n).unwrap_or(&chunk));
                    Ok(())
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    Err(lapsed)
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => Err(gone),
                Err(e) => Err(RequestError::Io(e)),
            };
        }
    }

    /// Split the next unit off the buffer once `frame` says how many
    /// buffered bytes it spans, reading more until `deadline` while it does
    /// not yet (`Ok(None)`, or a length the buffer has not reached).
    fn take(
        &mut self,
        deadline: Instant,
        frame: impl Fn(&[u8]) -> Result<Option<usize>, RequestError>,
    ) -> Result<Vec<u8>, RequestError> {
        loop {
            if let Some(n) = frame(self.buffered())? {
                if let Some(unit) = self.buffered().get(..n) {
                    let unit = unit.to_vec();
                    self.consume(n);
                    return Ok(unit);
                }
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(RequestError::Stalled);
            }
            self.fill(remaining, true)?;
        }
    }

    /// Frame one message head; the timeouts are [`read_request`]'s.
    pub(crate) fn read_head(
        &mut self,
        limits: &Limits,
        idle_timeout: Duration,
        read_timeout: Duration,
    ) -> Result<Head, RequestError> {
        // Phase 1: first byte (or reuse bytes a previous message left over).
        if self.buffered().is_empty() {
            self.fill(idle_timeout, false)?;
        }

        // Leading blank lines before the start line are tolerated (RFC 9112
        // §2.2): consume them before framing the head, so they never count
        // toward the head budget or frame an empty head.
        let blank = self.buffered().iter().take_while(|&&b| b == b'\r' || b == b'\n').count();
        if blank > 0 {
            self.consume(blank);
            if self.buffered().is_empty() {
                // Only blank bytes so far; let the caller's idle budget decide
                // how long to keep waiting for a real start line. They were
                // not a message: whatever waited behind them goes out now.
                self.flush().map_err(RequestError::Io)?;
                return Err(RequestError::Idle);
            }
        }

        // Phase 2: the head, under one rolling deadline from here on.
        let deadline = Instant::now() + read_timeout;
        let head = self.take(deadline, |buffered| match find_head_end(buffered) {
            Some(end) if end > limits.max_head_bytes => Err(RequestError::HeadTooLarge),
            None if buffered.len() > limits.max_head_bytes => Err(RequestError::HeadTooLarge),
            end => Ok(end),
        })?;
        let text =
            String::from_utf8(head).map_err(|_| RequestError::Bad("head is not UTF-8".into()))?;
        Ok(Head { text, deadline })
    }

    /// Phase 3: the `Content-Length` body `headers` declare, under the
    /// deadline `head` started.
    pub(crate) fn read_body(
        &mut self,
        head: &Head,
        headers: &[(String, String)],
        limits: &Limits,
    ) -> Result<Vec<u8>, RequestError> {
        let declared: u64 = match header(headers, "content-length") {
            None => 0,
            Some(v) => v
                .parse()
                .map_err(|_| RequestError::Bad(format!("malformed content-length {v:?}")))?,
        };
        if declared > limits.max_body_bytes as u64 {
            return Err(RequestError::BodyTooLarge { declared });
        }
        self.take(head.deadline, |_| Ok(Some(declared as usize)))
    }

    /// Queue bytes for the peer; they are written now unless the peer's next
    /// message is already buffered (see the module doc for when they are).
    pub(crate) fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.extend_from_slice(bytes);
        self.flush_unless_pipelined()
    }

    fn flush_unless_pipelined(&mut self) -> io::Result<()> {
        if self.buffered().is_empty() || self.out.len() >= OUT_BOUND {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Write everything queued, in one write.
    fn flush(&mut self) -> io::Result<()> {
        if self.out.is_empty() {
            return Ok(());
        }
        let written = self.transport.write_all(&self.out);
        self.out.clear();
        written?;
        self.transport.flush()
    }

    /// Queue a full response; it is written when the module doc says queued
    /// bytes are, and one that closes the connection takes everything queued
    /// with it.
    pub fn write_response(&mut self, response: &Response, keep_alive: bool) -> io::Result<()> {
        response.write_to(&mut self.out, keep_alive);
        if keep_alive {
            self.flush_unless_pipelined()
        } else {
            self.flush()
        }
    }
}

/// Locate the end of the header block in `bytes`: the byte index just past
/// the first `\r\n\r\n` (or lenient `\n\n`).
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    while let Some(at) = rest.iter().position(|&b| b == b'\n') {
        rest = rest.get(at + 1..)?;
        match rest {
            [b'\n', ..] => return Some(bytes.len() - rest.len() + 1),
            [b'\r', b'\n', ..] => return Some(bytes.len() - rest.len() + 2),
            _ => {}
        }
    }
    None
}

/// Read and parse one request.
///
/// `idle_timeout` bounds the wait for the request's first byte (keep-alive
/// idling); `read_timeout` is the progress deadline for the rest of the
/// request — once any byte has arrived, the whole head and body must
/// complete before it lapses, or the read fails with
/// [`RequestError::Stalled`].
pub fn read_request<T: Transport>(
    conn: &mut Conn<T>,
    limits: &Limits,
    idle_timeout: Duration,
    read_timeout: Duration,
) -> Result<Request, RequestError> {
    let head = conn.read_head(limits, idle_timeout, read_timeout)?;
    let request_line = head.start_line();
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => return Err(RequestError::Bad(format!("malformed request line {request_line:?}"))),
    };
    if !method.bytes().all(|b| b.is_ascii_uppercase()) || method.len() > 16 {
        return Err(RequestError::Bad(format!("malformed method {method:?}")));
    }
    if !path.starts_with('/') {
        return Err(RequestError::Bad(format!("request target {path:?} is not origin-form")));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        v if v.starts_with("HTTP/") => return Err(RequestError::Version(v.to_string())),
        v => return Err(RequestError::Bad(format!("malformed version {v:?}"))),
    };

    let mut request = Request {
        method: method.to_string(),
        path: path.to_string(),
        headers: head.headers(limits.max_headers)?,
        body: Vec::new(),
        keep_alive: http11,
    };
    if let Some(connection) = request.header("connection") {
        let token = connection.to_ascii_lowercase();
        if token.contains("close") {
            request.keep_alive = false;
        } else if token.contains("keep-alive") {
            request.keep_alive = true;
        }
    }
    if let Some(te) = request.header("transfer-encoding") {
        return Err(RequestError::Unsupported(format!("transfer-encoding: {te}")));
    }
    request.body = conn.read_body(&head, &request.headers, limits)?;
    Ok(request)
}

// ---------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------

/// A response about to be written: status, extra headers, JSON body.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    /// Extra headers beyond the automatic `Content-Type`,
    /// `Content-Length` and `Connection`.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Response {
    pub fn json(status: u16, body: String) -> Self {
        Response { status, headers: Vec::new(), body }
    }

    pub fn header(mut self, name: &str, value: impl std::fmt::Display) -> Self {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize to wire bytes, with `Connection: keep-alive`/`close`
    /// reflecting what the server will actually do.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        self.write_to(&mut out, keep_alive);
        out
    }

    /// Append the wire bytes to `out` — the one serialiser, for a
    /// connection's output buffer and for [`Response::to_bytes`].
    fn write_to(&self, out: &mut Vec<u8>, keep_alive: bool) {
        // Writing to a `Vec` cannot fail.
        let _ = write!(out, "HTTP/1.1 {} {}\r\n", self.status, reason(self.status));
        for (name, value) in &self.headers {
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(b": ");
            out.extend_from_slice(value.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        if !self.body.is_empty() {
            out.extend_from_slice(b"content-type: application/json\r\n");
        }
        let _ = write!(out, "content-length: {}\r\n", self.body.len());
        out.extend_from_slice(if keep_alive {
            b"connection: keep-alive\r\n\r\n".as_slice()
        } else {
            b"connection: close\r\n\r\n".as_slice()
        });
        out.extend_from_slice(self.body.as_bytes());
    }
}

/// Reason phrase for every status the edge emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        410 => "Gone",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{read_response, HttpResponse};
    use proptest::next_state;
    use proptest::prelude::*;

    fn parse(input: &str) -> Result<Request, RequestError> {
        let mut conn = Conn::new(ByteStream::new(input.as_bytes().to_vec()));
        read_request(&mut conn, &Limits::default(), Duration::from_secs(1), Duration::from_secs(1))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse("POST /ask HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello")
            .expect("valid request");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/ask");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET /healthz HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
        let req = parse("GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive, "HTTP/1.0 opts in explicitly");
    }

    #[test]
    fn leading_blank_lines_are_tolerated() {
        let req = parse("\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.path, "/healthz");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let two = "GET /healthz HTTP/1.1\r\n\r\nPOST /ask HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
        let mut conn = Conn::new(ByteStream::new(two.as_bytes().to_vec()));
        let limits = Limits::default();
        let first =
            read_request(&mut conn, &limits, Duration::from_secs(1), Duration::from_secs(1))
                .unwrap();
        assert_eq!(first.path, "/healthz");
        let second =
            read_request(&mut conn, &limits, Duration::from_secs(1), Duration::from_secs(1))
                .unwrap();
        assert_eq!((second.path.as_str(), second.body.as_slice()), ("/ask", b"{}".as_slice()));
    }

    #[test]
    fn limits_map_to_the_right_errors() {
        let limits = Limits { max_head_bytes: 64, max_headers: 2, max_body_bytes: 8 };
        let run = |input: &str| {
            let mut conn = Conn::new(ByteStream::new(input.as_bytes().to_vec()));
            read_request(&mut conn, &limits, Duration::from_secs(1), Duration::from_secs(1))
        };
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(100));
        assert!(matches!(run(&long), Err(RequestError::HeadTooLarge)), "oversized head");
        let many = "GET / HTTP/1.1\r\na: 1\r\nb: 2\r\nc: 3\r\n\r\n";
        assert!(matches!(run(many), Err(RequestError::HeadTooLarge)), "too many headers");
        let body = "POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789";
        assert!(
            matches!(run(body), Err(RequestError::BodyTooLarge { declared: 9 })),
            "oversized body is rejected from the declared length, before reading it"
        );
    }

    #[test]
    fn malformed_inputs_are_bad_requests() {
        for input in [
            "GET\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "get / HTTP/1.1\r\n\r\n",
            "GET noslash HTTP/1.1\r\n\r\n",
            "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET / HTTP/1.1\r\nbad name: x\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "GET / FTP/9\r\n\r\n",
        ] {
            assert!(matches!(parse(input), Err(RequestError::Bad(_))), "{input:?}");
        }
        assert!(matches!(parse("GET / HTTP/2.0\r\n\r\n"), Err(RequestError::Version(_))));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(RequestError::Unsupported(_))
        ));
    }

    #[test]
    fn eof_shapes_are_distinguished() {
        assert!(matches!(parse(""), Err(RequestError::Closed)), "clean close between requests");
        assert!(
            matches!(parse("GET /truncat"), Err(RequestError::Disconnected)),
            "mid-request EOF"
        );
    }

    /// Delivers its input in seeded pseudo-random chunks of 1–`max_chunk`
    /// bytes, to exercise every way a message can be split across reads, and
    /// records the size of every write.
    struct Chunked {
        input: ByteStream,
        state: u64,
        max_chunk: u64,
        writes: Vec<usize>,
    }

    impl Chunked {
        fn conn(input: &[u8], seed: u64) -> Conn<Chunked> {
            Self::conn_with(input, seed, 40)
        }

        fn conn_with(input: &[u8], seed: u64, max_chunk: u64) -> Conn<Chunked> {
            let input = ByteStream::new(input);
            Conn::new(Chunked { input, state: seed, max_chunk, writes: Vec::new() })
        }
    }

    impl Read for Chunked {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = (1 + next_state(&mut self.state) % self.max_chunk).min(buf.len() as u64);
            self.input.read(&mut buf[..n as usize])
        }
    }

    impl Write for Chunked {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.input.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Transport for Chunked {
        fn set_read_deadline(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
    }

    const SECOND: Duration = Duration::from_secs(1);

    fn requests<T: Transport>(conn: &mut Conn<T>) -> Vec<Request> {
        let limits = Limits::default();
        (0..2).map(|_| read_request(conn, &limits, SECOND, SECOND).expect("request")).collect()
    }

    fn responses<T: Transport>(conn: &mut Conn<T>) -> Vec<HttpResponse> {
        (0..2).map(|_| read_response(conn, SECOND).expect("response")).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// However the bytes of two pipelined messages are split across
        /// reads, both roles parse what they parse from the unsplit input —
        /// and the first message never eats into the second.
        #[test]
        fn any_split_parses_like_the_unsplit_input(seed in 0u64..u64::MAX) {
            let two_requests = b"POST /ask HTTP/1.1\r\nHost: x\r\nContent-Length: 16\r\n\r\n\
                {\"question\":\"a\"}GET /healthz HTTP/1.0\nConnection: keep-alive\n\n";
            let whole = requests(&mut Conn::new(ByteStream::new(two_requests.as_slice())));
            prop_assert_eq!((whole[1].path.as_str(), whole[1].keep_alive), ("/healthz", true));
            prop_assert_eq!(&requests(&mut Chunked::conn(two_requests, seed)), &whole);

            let two_responses = [
                Response::json(200, "{\"ok\":true}".into()).header("retry-after", 2).to_bytes(true),
                Response::json(429, String::new()).to_bytes(false),
            ]
            .concat();
            let whole = responses(&mut Conn::new(ByteStream::new(two_responses.as_slice())));
            let seen: Vec<_> =
                whole.iter().map(|r| (r.status, r.body.as_str(), r.keep_alive)).collect();
            prop_assert_eq!(seen, vec![(200, "{\"ok\":true}", true), (429, "", false)]);
            prop_assert_eq!(&responses(&mut Chunked::conn(&two_responses, seed)), &whole);
        }
    }

    /// One write per response: what [`Conn::write_response`] did before
    /// output was buffered, kept as the reference its bytes are held to.
    fn write_response_unbuffered<T: Transport>(
        conn: &mut Conn<T>,
        response: &Response,
        keep_alive: bool,
    ) -> io::Result<()> {
        conn.transport.write_all(&response.to_bytes(keep_alive))?;
        conn.transport.flush()
    }

    /// The server's keep-alive loop in miniature: answer every request with
    /// what was read of it until the input ends, a request asks to close, or
    /// one does not parse (400, close).
    fn answer_all(
        conn: &mut Conn<Chunked>,
        write: fn(&mut Conn<Chunked>, &Response, bool) -> io::Result<()>,
    ) {
        let limits = Limits::default();
        loop {
            match read_request(conn, &limits, SECOND, SECOND) {
                Ok(request) => {
                    let body =
                        format!("{{\"path\":{:?},\"n\":{}}}", request.path, request.body.len());
                    write(conn, &Response::json(200, body), request.keep_alive).unwrap();
                    if !request.keep_alive {
                        break;
                    }
                }
                // The server may stop waiting here (a drain does): nothing
                // may still be queued behind the blank lines just skipped.
                Err(RequestError::Idle) => assert!(conn.out.is_empty(), "idle with output queued"),
                Err(RequestError::Bad(why)) => {
                    write(conn, &Response::json(400, format!("{why:?}")), false).unwrap();
                    break;
                }
                Err(_) => break,
            }
        }
        assert!(conn.out.is_empty(), "the loop ended with output still queued");
    }

    /// A seeded sequence of pipelined requests: mostly well-formed keep-alive
    /// ones of several sizes, now and then stray blank lines, a
    /// `connection: close`, a malformed head, or a truncated tail.
    fn request_sequence(seed: u64) -> Vec<u8> {
        let mut state = seed;
        let mut bytes = Vec::new();
        for _ in 0..next_state(&mut state) % 12 {
            let body = "x".repeat((next_state(&mut state) % 300) as usize);
            match next_state(&mut state) % 16 {
                0 => bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n"),
                1 => bytes.extend_from_slice(b"get /healthz HTTP/1.1\r\n\r\n"),
                2 => bytes.extend_from_slice(b"\r\n\r\n"),
                3..=8 => bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\n\r\n"),
                _ => bytes.extend_from_slice(
                    format!("POST /ask HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}", body.len())
                        .as_bytes(),
                ),
            }
        }
        if next_state(&mut state).is_multiple_of(4) {
            bytes.extend_from_slice(b"POST /ask HTTP/1.1\r\ncontent-le");
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Buffering output moves write boundaries and nothing else: for any
        /// request sequence, split across reads anywhere, the peer receives
        /// byte for byte what one write per response sent it, in no more
        /// writes.
        #[test]
        fn buffered_output_is_the_unbuffered_bytes(seed in 0u64..u64::MAX) {
            let input = request_sequence(seed);
            // Reads of a few bytes, of a request or so, or of several requests.
            let max_chunk = [8, 200, 6000][(seed % 3) as usize];
            let mut reference = Chunked::conn_with(&input, seed, max_chunk);
            answer_all(&mut reference, write_response_unbuffered);
            let mut conn = Chunked::conn_with(&input, seed, max_chunk);
            answer_all(&mut conn, Conn::write_response);
            prop_assert_eq!(&conn.transport.input.output, &reference.transport.input.output);
            prop_assert!(conn.transport.writes.len() <= reference.transport.writes.len());
        }
    }

    #[test]
    fn requests_that_arrive_together_are_answered_in_bounded_writes() {
        let one = b"GET /healthz HTTP/1.1\r\n\r\n";
        // Reads as large as `fill` asks for.
        let whole_reads =
            |requests: usize| Chunked::conn_with(&one.repeat(requests), 1, u64::MAX >> 1);
        // Six requests in one read, answers smaller than the bound: one
        // write, not six.
        let mut conn = whole_reads(6);
        answer_all(&mut conn, Conn::write_response);
        assert_eq!(conn.transport.writes.len(), 1, "{:?}", conn.transport.writes);
        assert!(conn.transport.writes[0] < OUT_BOUND);

        // Ten thousand requests ahead of a peer that never reads: however
        // much is pipelined, no write (so no buffer) passes the bound by
        // more than the response that crossed it, and few fall short of it.
        let mut reference = Chunked::conn(&one.repeat(10_000), 1);
        answer_all(&mut reference, write_response_unbuffered);
        let response = reference.transport.writes[0];
        let mut conn = whole_reads(10_000);
        answer_all(&mut conn, Conn::write_response);
        let (output, writes) = (&conn.transport.input.output, &conn.transport.writes);
        assert_eq!(output, &reference.transport.input.output);
        let largest = writes.iter().copied().max().unwrap();
        assert!(largest < OUT_BOUND + response, "a write of {largest} bytes");
        assert!(writes.len() < 2 * output.len() / OUT_BOUND, "{} writes", writes.len());
    }

    #[test]
    fn the_read_deadline_reaches_the_transport_only_when_it_changes() {
        struct Deadlines(ByteStream, Vec<Option<Duration>>);
        impl Read for Deadlines {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.0.read(&mut buf[..1])
            }
        }
        impl Write for Deadlines {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.write(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl Transport for Deadlines {
            fn set_read_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
                self.1.push(timeout);
                Ok(())
            }
        }
        // One byte per read: dozens of fills, all under the same idle slice.
        let mut conn = Conn::new(Deadlines(ByteStream::new("\r\n".repeat(40)), Vec::new()));
        let limits = Limits::default();
        for _ in 0..80 {
            let idle = read_request(&mut conn, &limits, SECOND, SECOND);
            assert!(matches!(idle, Err(RequestError::Idle)));
        }
        assert!(matches!(
            read_request(&mut conn, &limits, SECOND, SECOND),
            Err(RequestError::Closed)
        ));
        assert_eq!(conn.transport.1, [Some(SECOND)]);
        // A different deadline is handed over.
        let _ = read_request(&mut conn, &limits, 2 * SECOND, SECOND);
        assert_eq!(conn.transport.1, [Some(SECOND), Some(2 * SECOND)]);
    }

    #[test]
    fn the_client_role_is_as_strict_as_the_server_role() {
        for (malformed, kind) in [
            ("HTTP/1.1 200 OK\r\nno-colon-here\r\n\r\n", io::ErrorKind::InvalidData),
            ("HTTP/1.1 200 OK\r\ncontent-length: nope\r\n\r\n", io::ErrorKind::InvalidData),
            ("HTTP/1.1 OK\r\n\r\n", io::ErrorKind::InvalidData),
            ("HTTP/1.1 200 OK\r\ncontent-length: 9\r\n\r\n{}", io::ErrorKind::UnexpectedEof),
        ] {
            let response = read_response(&mut Conn::new(ByteStream::new(malformed)), SECOND);
            assert_eq!(response.expect_err(malformed).kind(), kind, "{malformed:?}");
        }
    }

    #[test]
    fn response_bytes_have_framing_headers() {
        let resp = Response::json(200, "{\"ok\":true}".into()).header("retry-after", 2);
        let text = String::from_utf8(resp.to_bytes(true)).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"));
        let text = String::from_utf8(Response::json(429, String::new()).to_bytes(false)).unwrap();
        assert!(text.contains("connection: close\r\n"));
        assert!(!text.contains("content-type"), "empty bodies carry no content type");
    }
}
