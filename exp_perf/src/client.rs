//! The generator's side of a connection: a keep-alive socket that writes
//! pre-rendered requests and reads `Content-Length`-framed responses.
//!
//! `dbcopilot::http::HttpClient` always sleeps in `read` until a response
//! arrives. On the shared two-core boxes the benchmark runs on, waking a
//! sleeping thread costs tens of microseconds and that cost drifts from
//! minute to minute with the host; a generator that sleeps puts that drift
//! into every latency it reports. This reader can poll the socket for a
//! while before it sleeps, so a response that arrives soon is seen the
//! moment it arrives.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

/// How long a read may take before the connection counts as dead.
const READ_DEADLINE: Duration = Duration::from_secs(10);

pub struct Client {
    stream: TcpStream,
    nonblocking: bool,
    buf: Vec<u8>,
    /// `buf[start..]` is unread.
    start: usize,
}

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// `(status, head length, body length)` of the response at the front of
/// `bytes`, once its head has arrived in full.
fn parse_head(bytes: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(head_len) = bytes.windows(4).position(|w| w == b"\r\n\r\n").map(|at| at + 4) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&bytes[..head_len]).map_err(|_| invalid("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut body_len = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                body_len = value.trim().parse().map_err(|_| invalid("bad content-length"))?;
            }
        }
    }
    Ok(Some((status, head_len, body_len)))
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_DEADLINE))?;
        stream.set_write_timeout(Some(READ_DEADLINE))?;
        Ok(Client { stream, nonblocking: false, buf: Vec::with_capacity(16 << 10), start: 0 })
    }

    fn set_nonblocking(&mut self, on: bool) -> io::Result<()> {
        if self.nonblocking != on {
            self.stream.set_nonblocking(on)?;
            self.nonblocking = on;
        }
        Ok(())
    }

    /// Write one pre-rendered request.
    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        // A request is far smaller than the socket buffer, so this never
        // waits, whichever mode the socket is in.
        self.stream.write_all(request)
    }

    /// Read more bytes: poll for up to `spin`, then sleep until they come.
    fn fill(&mut self, spin: Duration) -> io::Result<()> {
        let mut chunk = [0u8; 16 << 10];
        let began = Instant::now();
        let n = loop {
            let polling = began.elapsed() < spin;
            self.set_nonblocking(polling)?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => break n,
                Err(e) if polling && e.kind() == io::ErrorKind::WouldBlock => {
                    std::hint::spin_loop();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        // Drop what has been read, before it piles up: with requests
        // pipelined the buffer seldom runs empty.
        if self.start == self.buf.len() || self.start >= chunk.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// The next response: its status and where its body lies in
    /// [`Client::bytes`]. Polls the socket for up to `spin` before sleeping.
    pub fn read_response(&mut self, spin: Duration) -> io::Result<(u16, Range<usize>)> {
        let spin = spin.min(READ_DEADLINE);
        loop {
            if let Some((status, head_len, body_len)) = parse_head(&self.buf[self.start..])? {
                let body = self.start + head_len..self.start + head_len + body_len;
                if body.end <= self.buf.len() {
                    self.start = body.end;
                    return Ok((status, body));
                }
            }
            self.fill(spin)?;
        }
    }

    /// The bytes a range returned by [`Client::read_response`] refers to,
    /// valid until the next read.
    pub fn bytes(&self, range: Range<usize>) -> &[u8] {
        &self.buf[range]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse_once_complete() {
        let one = b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}";
        assert_eq!(parse_head(&one[..30]).unwrap(), None);
        assert_eq!(parse_head(one).unwrap(), Some((200, one.len() - 7, 7)));
        let none = b"HTTP/1.1 204 No Content\r\n\r\n";
        assert_eq!(parse_head(none).unwrap(), Some((204, none.len(), 0)));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn pipelined_responses_come_out_one_by_one_polling_or_sleeping() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut peer, _) = listener.accept().unwrap();
            let mut request = [0u8; 4];
            peer.read_exact(&mut request).unwrap();
            // Two responses in one write, a third split across two.
            peer.write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nabHTTP/1.1 404 Not Found\r\ncontent-length: 3\r\n\r\ncde").unwrap();
            peer.read_exact(&mut request).unwrap();
            peer.write_all(b"HTTP/1.1 200 OK\r\ncontent-le").unwrap();
            peer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            peer.write_all(b"ngth: 1\r\n\r\nz").unwrap();
        });
        let mut client = Client::connect(addr).unwrap();
        client.send(b"ping").unwrap();
        let (status, body) = client.read_response(Duration::from_millis(1)).unwrap();
        assert_eq!((status, client.bytes(body)), (200, &b"ab"[..]));
        let (status, body) = client.read_response(Duration::MAX).unwrap();
        assert_eq!((status, client.bytes(body)), (404, &b"cde"[..]));
        client.send(b"ping").unwrap();
        let (status, body) = client.read_response(Duration::ZERO).unwrap();
        assert_eq!((status, client.bytes(body)), (200, &b"z"[..]));
        server.join().unwrap();
        assert!(client.read_response(Duration::from_millis(1)).is_err());
    }
}
