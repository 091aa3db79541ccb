//! The one blocking HTTP client under both `charserve::Client` and
//! `charstore::RemoteTier`.
//!
//! Before this crate the workspace carried two hand-rolled copies of
//! "dial, write a request, read a response": the CLI client and the
//! remote store tier, each with its own framing bugs to keep in sync,
//! and each paying a fresh TCP connect (plus, on loopback, a
//! `TIME_WAIT` entry) per request. [`HttpClient`] replaces both: it
//! keeps a small pool of idle keep-alive connections, reuses one when
//! available, and transparently re-dials once when a pooled connection
//! turns out to have been closed by the server between requests —
//! the classic stale-keep-alive race.
//!
//! The framing itself lives in the crate root (sans-IO); this module
//! only adds sockets, timeouts and the pool.

use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::{
    encode_request_head, is_disconnect, parse_response_head, too_large, Parsed, ResponseHead,
};

/// Read chunk size while waiting for a response head/body.
const READ_CHUNK: usize = 16 * 1024;

/// Idle connections kept per client. Loopback dials are cheap; the
/// pool exists to avoid per-request connects in hot loops, not to act
/// as a connection cache for a fleet.
const MAX_IDLE: usize = 8;

/// Dial + I/O deadlines for a client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection.
    pub connect_timeout: Duration,
    /// Per-read / per-write deadline once connected.
    pub io_timeout: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
        }
    }
}

/// One request, by reference. `response_limit` bounds the accepted
/// response body *before* any allocation happens ([`too_large`] is the
/// typed rejection).
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec<'a> {
    /// `GET` / `POST` / `PUT` / ….
    pub method: &'a str,
    /// Absolute path.
    pub path: &'a str,
    /// `Content-Type` header value.
    pub content_type: &'a str,
    /// Body bytes (empty slice for body-less requests).
    pub body: &'a [u8],
    /// Optional `X-Trace-Id` to propagate.
    pub trace: Option<&'a str>,
    /// Maximum accepted response body size.
    pub response_limit: usize,
    /// Whether to offer keep-alive. `false` sends `Connection: close`
    /// — the close-per-request mode the load bench measures against.
    pub keep_alive: bool,
}

impl<'a> RequestSpec<'a> {
    /// A body-less `GET`.
    #[must_use]
    pub fn get(path: &'a str, response_limit: usize) -> RequestSpec<'a> {
        RequestSpec {
            method: "GET",
            path,
            content_type: "text/plain",
            body: &[],
            trace: None,
            response_limit,
            keep_alive: true,
        }
    }

    /// Attaches an `X-Trace-Id` header.
    #[must_use]
    pub fn with_trace(mut self, trace: Option<&'a str>) -> RequestSpec<'a> {
        self.trace = trace;
        self
    }

    /// Switches to `Connection: close` (one request per connection).
    #[must_use]
    pub fn closing(mut self) -> RequestSpec<'a> {
        self.keep_alive = false;
        self
    }
}

/// A status + body pair — everything the callers above this layer
/// interpret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// The response status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
}

/// One established keep-alive connection: a socket plus the unconsumed
/// tail of the last read (bytes past the previous response belong to
/// the next one).
#[derive(Debug)]
pub struct HttpConnection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl HttpConnection {
    /// Dials `addr` (first address that answers within the connect
    /// timeout wins) and applies the I/O deadlines. `TCP_NODELAY` is
    /// set: every exchange here is a small request waiting on a small
    /// response, the exact pattern Nagle's algorithm penalizes.
    ///
    /// # Errors
    ///
    /// Returns the last dial error, or `InvalidInput` if `addr` does
    /// not resolve at all.
    pub fn connect(addr: &str, config: &ClientConfig) -> io::Result<HttpConnection> {
        let mut last_err = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, config.connect_timeout) {
                Ok(stream) => {
                    stream.set_nodelay(true)?;
                    let io_timeout = (!config.io_timeout.is_zero()).then_some(config.io_timeout);
                    stream.set_read_timeout(io_timeout)?;
                    stream.set_write_timeout(io_timeout)?;
                    return Ok(HttpConnection {
                        stream,
                        buf: Vec::new(),
                    });
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("address `{addr}` did not resolve"),
            )
        }))
    }

    /// Writes one request (always offering keep-alive; the server's
    /// response head decides whether the connection survives).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn send(&mut self, spec: &RequestSpec<'_>) -> io::Result<()> {
        let head = encode_request_head(
            spec.method,
            spec.path,
            spec.content_type,
            spec.body.len(),
            spec.trace,
            spec.keep_alive,
        );
        // One buffered write: head + body in a single syscall keeps
        // tiny requests in one segment.
        let mut wire = head.into_bytes();
        wire.extend_from_slice(spec.body);
        self.stream.write_all(&wire)?;
        self.stream.flush()
    }

    /// Reads one full response. Returns the parsed head and the body;
    /// bytes past the body stay buffered for the next call.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` if the server closes mid-response, the typed
    /// [`too_large`] error if the declared body exceeds `limit`, and
    /// `InvalidData` on framing violations.
    pub fn read_response(&mut self, limit: usize) -> io::Result<(ResponseHead, Vec<u8>)> {
        let (head, body_len) = self.read_head(limit)?;
        let body = self.read_body(body_len)?;
        Ok((head, body))
    }

    /// Reads and consumes one response head whose declared body fits
    /// `limit`; returns it with the body length.
    fn read_head(&mut self, limit: usize) -> io::Result<(ResponseHead, usize)> {
        let (head, consumed) = loop {
            match parse_response_head(&self.buf)? {
                Parsed::Complete { head, consumed } => break (head, consumed),
                Parsed::NeedMore => self.fill()?,
            }
        };
        if head.content_length > limit as u64 {
            return Err(too_large(head.content_length, limit));
        }
        let body_len = usize::try_from(head.content_length).expect("checked against limit");
        self.buf.drain(..consumed);
        Ok((head, body_len))
    }

    /// Reads a body of `len` bytes into one allocation of `len` bytes:
    /// the buffered prefix moves into it and the rest is read straight
    /// into it, never past the body's end.
    fn read_body(&mut self, len: usize) -> io::Result<Vec<u8>> {
        let have = self.buf.len().min(len);
        let mut body = Vec::with_capacity(len);
        body.extend(self.buf.drain(..have));
        (&mut self.stream)
            .take((len - have) as u64)
            .read_to_end(&mut body)?;
        if body.len() < len {
            return Err(closed_mid_response());
        }
        Ok(body)
    }

    /// Whether any response bytes have arrived on this connection for
    /// the current exchange. A reused pooled connection failing with
    /// *zero* bytes read is the stale-keep-alive race and safe to
    /// retry; failing mid-response is not.
    fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    fn fill(&mut self) -> io::Result<()> {
        let start = self.buf.len();
        self.buf.resize(start + READ_CHUNK, 0);
        let n = self.stream.read(&mut self.buf[start..]);
        self.buf.truncate(start + n.as_ref().copied().unwrap_or(0));
        match n? {
            0 => Err(closed_mid_response()),
            _ => Ok(()),
        }
    }
}

fn closed_mid_response() -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        "connection closed mid-response",
    )
}

/// Wraps an already-connected stream as it is, with no timeouts or
/// socket options applied. Tests that write raw bytes to a server read
/// its replies through this.
impl From<TcpStream> for HttpConnection {
    fn from(stream: TcpStream) -> HttpConnection {
        HttpConnection {
            stream,
            buf: Vec::new(),
        }
    }
}

/// A cloneable keep-alive HTTP client for one address.
///
/// Clones share the idle-connection pool, so a `Store` handing its
/// remote tier to several threads still reuses sockets across all of
/// them. Every public entry point is a complete request/response
/// round trip; the pool is invisible except for the speed.
#[derive(Debug, Clone)]
pub struct HttpClient {
    addr: Arc<str>,
    config: ClientConfig,
    idle: Arc<Mutex<Vec<HttpConnection>>>,
}

impl HttpClient {
    /// A client for `addr` (host:port) with the given deadlines. No
    /// connection is dialed until the first request.
    #[must_use]
    pub fn new(addr: &str, config: ClientConfig) -> HttpClient {
        HttpClient {
            addr: Arc::from(addr),
            config,
            idle: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// The address this client dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Idle pooled connections right now (tests assert reuse with it).
    #[must_use]
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().expect("httpwire pool poisoned").len()
    }

    /// One request/response round trip, reusing a pooled connection
    /// when one is idle. If a *reused* connection fails before any
    /// response byte arrives (the server closed it while it sat in the
    /// pool), the request is retried once on a fresh dial; errors on a
    /// fresh connection propagate immediately.
    ///
    /// # Errors
    ///
    /// Dial, I/O and framing errors; [`too_large`] when the response
    /// body exceeds `spec.response_limit`.
    pub fn send(&self, spec: &RequestSpec<'_>) -> io::Result<HttpResponse> {
        // Pop in its own statement: an `if let` on the lock expression
        // would hold the guard across `exchange`, which re-locks the
        // pool to return the connection — a self-deadlock.
        let pooled = self.idle.lock().expect("httpwire pool poisoned").pop();
        if let Some(conn) = pooled {
            match self.exchange(conn, spec) {
                Ok(resp) => return Ok(resp),
                Err(RoundTripError { error, retryable }) => {
                    if !retryable {
                        return Err(error);
                    }
                }
            }
        }
        let conn = HttpConnection::connect(&self.addr, &self.config)?;
        self.exchange(conn, spec).map_err(|e| e.error)
    }

    fn exchange(
        &self,
        mut conn: HttpConnection,
        spec: &RequestSpec<'_>,
    ) -> Result<HttpResponse, RoundTripError> {
        let fail = |conn: &HttpConnection, error: io::Error| RoundTripError {
            retryable: is_disconnect(&error) && !conn.has_buffered(),
            error,
        };
        conn.send(spec).map_err(|e| fail(&conn, e))?;
        let (head, body_len) = conn
            .read_head(spec.response_limit)
            .map_err(|e| fail(&conn, e))?;
        // The head has arrived, so a failure from here on is never
        // retried: it may be a stalled daemon, and a retry would double
        // the wait.
        let body = conn.read_body(body_len).map_err(|error| RoundTripError {
            error,
            retryable: false,
        })?;
        if head.keep_alive {
            let mut idle = self.idle.lock().expect("httpwire pool poisoned");
            if idle.len() < MAX_IDLE {
                idle.push(conn);
            }
        }
        Ok(HttpResponse {
            status: head.status,
            body,
        })
    }
}

struct RoundTripError {
    error: io::Error,
    retryable: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// A minimal in-thread server that answers `count` requests on a
    /// single connection, then closes it.
    fn keep_alive_server(count: usize) -> (String, thread::JoinHandle<usize>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut served = 0usize;
            let mut buf = Vec::new();
            for _ in 0..count {
                // Read one request head + body.
                let (head, consumed) = loop {
                    match crate::parse_request_head(&buf).expect("parse") {
                        Parsed::Complete { head, consumed } => break (head, consumed),
                        Parsed::NeedMore => {
                            let mut chunk = [0u8; 4096];
                            let n = stream.read(&mut chunk).expect("read");
                            if n == 0 {
                                return served;
                            }
                            buf.extend_from_slice(&chunk[..n]);
                        }
                    }
                };
                let total = consumed + head.content_length as usize;
                while buf.len() < total {
                    let mut chunk = [0u8; 4096];
                    let n = stream.read(&mut chunk).expect("read body");
                    assert!(n > 0, "client closed mid-body");
                    buf.extend_from_slice(&chunk[..n]);
                }
                buf.drain(..total);
                let reply = crate::Response::json(200, format!("{{\"n\": {served}}}"))
                    .encode(true, head.trace_id.as_deref());
                stream.write_all(&reply).expect("write");
                served += 1;
            }
            served
        });
        (addr, handle)
    }

    #[test]
    fn pooled_connection_is_reused_across_requests() {
        let (addr, handle) = keep_alive_server(3);
        let client = HttpClient::new(&addr, ClientConfig::default());
        for n in 0..3 {
            let resp = client
                .send(&RequestSpec::get("/healthz", 1024))
                .expect("round trip");
            assert_eq!(resp.status, 200);
            assert_eq!(resp.body, format!("{{\"n\": {n}}}").into_bytes());
        }
        // One TCP connection served all three requests…
        assert_eq!(handle.join().expect("server"), 3);
        // …and it is back in the pool.
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn stale_pooled_connection_retries_on_a_fresh_dial() {
        // Server 1 answers one request keep-alive, then closes. The
        // client pools the (now doomed) connection. Server 2 on the
        // same port answers the retry.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            for turn in 0..2 {
                let (mut stream, _) = listener.accept().expect("accept");
                let mut buf = Vec::new();
                loop {
                    match crate::parse_request_head(&buf).expect("parse") {
                        Parsed::Complete { .. } => break,
                        Parsed::NeedMore => {
                            let mut chunk = [0u8; 4096];
                            let n = stream.read(&mut chunk).expect("read");
                            assert!(n > 0);
                            buf.extend_from_slice(&chunk[..n]);
                        }
                    }
                }
                let reply =
                    crate::Response::json(200, format!("{{\"turn\": {turn}}}")).encode(true, None);
                stream.write_all(&reply).expect("write");
                // Closing despite advertising keep-alive: exactly the
                // stale-pool race the client must absorb.
            }
        });
        let client = HttpClient::new(&addr, ClientConfig::default());
        let first = client.send(&RequestSpec::get("/a", 1024)).expect("first");
        assert_eq!(first.body, b"{\"turn\": 0}");
        assert_eq!(client.idle_connections(), 1);
        let second = client.send(&RequestSpec::get("/b", 1024)).expect("retry");
        assert_eq!(second.body, b"{\"turn\": 1}");
        handle.join().expect("server");
    }

    /// Two pipelined responses arriving in one write read back in
    /// order, each call consuming exactly one response's bytes.
    #[test]
    fn read_response_consumes_exactly_one_pipelined_response() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut wire = crate::Response::json(200, "first").encode(true, None);
            wire.extend_from_slice(&crate::Response::json(404, "second").encode(false, None));
            stream.write_all(&wire).expect("write");
        });
        let mut conn = HttpConnection::from(TcpStream::connect(addr).expect("connect"));
        let (head, body) = conn.read_response(1024).expect("first");
        assert_eq!((head.status, body.as_slice()), (200, &b"first"[..]));
        let (head, body) = conn.read_response(1024).expect("second");
        assert_eq!((head.status, body.as_slice()), (404, &b"second"[..]));
        handle.join().expect("server");
    }

    /// Reads one body-less request head off `stream`.
    fn read_request_head(stream: &mut TcpStream) {
        let mut buf = Vec::new();
        while let Parsed::NeedMore = crate::parse_request_head(&buf).expect("parse") {
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).expect("read");
            assert!(n > 0, "client closed mid-request");
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Index of the first byte where `got` and `want` differ, if any.
    fn first_difference(got: &[u8], want: &[u8]) -> Option<usize> {
        (got != want).then(|| got.iter().zip(want).take_while(|(a, b)| a == b).count())
    }

    /// A body longer than a read chunk that arrives partly with its
    /// head and then in small delayed writes, the last of which also
    /// carries a pipelined second response: the body reads byte for
    /// byte, and the second response stays on the connection intact.
    #[test]
    fn body_arriving_after_its_head_reads_whole_and_keeps_the_next_response() {
        const BODY: usize = 40_000;
        let body: Vec<u8> = (0..BODY).map(|i| (i % 251) as u8).collect();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let sent = body.clone();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let first =
                crate::Response::bytes(200, "application/octet-stream", sent).encode(true, None);
            let with_head = first.len() - BODY + 5_000;
            stream.write_all(&first[..with_head]).expect("write");
            let mut rest = first[with_head..].to_vec();
            rest.extend_from_slice(&crate::Response::json(404, "second").encode(false, None));
            // 4,999 does not divide the rest, so one write straddles the
            // end of the body and the start of the second response.
            for piece in rest.chunks(4_999) {
                thread::sleep(Duration::from_millis(10));
                stream.write_all(piece).expect("write");
            }
        });
        let mut conn = HttpConnection::from(TcpStream::connect(addr).expect("connect"));
        let (head, got) = conn.read_response(1 << 20).expect("first");
        assert_eq!(head.status, 200);
        assert_eq!(first_difference(&got, &body), None, "body differs");
        let (head, got) = conn.read_response(1024).expect("second");
        assert_eq!((head.status, got.as_slice()), (404, &b"second"[..]));
        handle.join().expect("server");
    }

    /// A pooled connection that dies after part of a large body fails
    /// the request with the disconnect: its head had arrived, so the
    /// client must not send the request again on a fresh dial.
    #[test]
    fn pooled_connection_dying_mid_body_is_not_retried() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            read_request_head(&mut stream);
            let reply = crate::Response::json(200, "pooled").encode(true, None);
            stream.write_all(&reply).expect("write");
            read_request_head(&mut stream);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 100000\r\n\r\n")
                .expect("write");
            stream.write_all(&[7u8; 30_000]).expect("write");
            // Drop: the daemon dies 70,000 bytes short.
            listener
        });
        let client = HttpClient::new(
            &addr,
            ClientConfig {
                connect_timeout: Duration::from_secs(2),
                io_timeout: Duration::from_secs(2),
            },
        );
        let first = client
            .send(&RequestSpec::get("/a", 1 << 20))
            .expect("first");
        assert_eq!(first.body, b"pooled");
        assert_eq!(client.idle_connections(), 1);
        let err = client
            .send(&RequestSpec::get("/b", 1 << 20))
            .expect_err("a body cut short must fail");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        let listener = handle.join().expect("server");
        listener.set_nonblocking(true).expect("nonblocking");
        match listener.accept() {
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            other => panic!("the request went out again on a fresh dial: {other:?}"),
        }
    }

    #[test]
    fn oversized_response_is_rejected_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut chunk = [0u8; 4096];
            let _ = stream.read(&mut chunk).expect("read");
            // Claim an absurd body; never send it.
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 999999999999\r\n\r\n")
                .expect("write");
        });
        let client = HttpClient::new(&addr, ClientConfig::default());
        let err = client
            .send(&RequestSpec::get("/big", 1024))
            .expect_err("must reject");
        assert!(crate::is_too_large(&err), "unexpected error: {err}");
        handle.join().expect("server");
    }

    #[test]
    fn truncated_response_is_an_error_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut chunk = [0u8; 4096];
            let _ = stream.read(&mut chunk).expect("read");
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\nonly-a-few-bytes")
                .expect("write");
            // Drop: the promised 50 bytes never finish.
        });
        let client = HttpClient::new(&addr, ClientConfig::default());
        let err = client
            .send(&RequestSpec::get("/trunc", 1024))
            .expect_err("must error");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        handle.join().expect("server");
    }

    #[test]
    fn dead_endpoint_fails_fast() {
        let client = HttpClient::new(
            "127.0.0.1:1",
            ClientConfig {
                connect_timeout: Duration::from_millis(300),
                io_timeout: Duration::from_millis(300),
            },
        );
        let start = std::time::Instant::now();
        assert!(client.send(&RequestSpec::get("/healthz", 1024)).is_err());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "dead endpoint should fail within the connect timeout"
        );
    }
}
