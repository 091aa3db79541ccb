//! Sans-IO HTTP/1.1 framing plus one shared blocking client.
//!
//! This crate is the single wire layer under both ends of the
//! workspace's HTTP surface: the `charserve` daemon's event-driven
//! front end and the two clients that talk to it (`charserve::Client`
//! and `charstore::RemoteTier`). The protocol code is **sans-IO**:
//! [`parse_request_head`] and [`parse_response_head`] consume plain
//! byte slices and either yield a parsed head plus the number of bytes
//! consumed or ask for more input — no reads, no blocking, no sockets —
//! so a nonblocking reactor, a blocking client and a unit test all
//! drive the exact same parser. Serialization mirrors it:
//! [`Response::encode_head`] and [`encode_request_head`] produce head
//! bytes the caller writes, followed by the body, however it likes.
//!
//! The subset spoken is deliberately tiny — `Content-Length` bodies
//! only, no chunked encoding, no TLS — but unlike the pre-reactor
//! daemon it includes **keep-alive and pipelining**: heads carry the
//! `Connection` semantics (HTTP/1.1 defaults to keep-alive), and since
//! the parser reports how many bytes it consumed, a buffer holding
//! several pipelined requests parses them back to back.
//!
//! Limits are enforced before allocation, the same discipline as
//! `charstore::wire::Reader`: head size, line length and header count
//! are bounded during parsing, and the declared `Content-Length` is
//! checked against the route's cap (by the caller, via [`too_large`])
//! before any body buffer exists.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::io;

pub mod blocking;

pub use blocking::{ClientConfig, HttpClient, HttpConnection, HttpResponse, RequestSpec};

/// Maximum accepted request-line + header-line length.
pub const MAX_LINE_BYTES: usize = 8 * 1024;
/// Maximum accepted number of header lines per request. Without a cap
/// a client could stream headers forever and pin the connection's
/// buffer (and, pre-reactor, its thread).
pub const MAX_HEADER_LINES: usize = 64;
/// Maximum accepted total head (request line + headers) size. Bounds
/// the per-connection buffer a trickling client can occupy before its
/// request either parses or is rejected.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Marker payload of the "declared body exceeds the route limit"
/// error, so a server can answer `413` instead of a generic `400`.
#[derive(Debug)]
struct PayloadTooLarge {
    declared: u64,
    limit: usize,
}

impl std::fmt::Display for PayloadTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "declared body of {} bytes exceeds the {}-byte limit",
            self.declared, self.limit
        )
    }
}

impl std::error::Error for PayloadTooLarge {}

/// The typed oversized-body rejection: servers map it to `413 Payload
/// Too Large` while plain framing errors stay `400`.
#[must_use]
pub fn too_large(declared: u64, limit: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        PayloadTooLarge { declared, limit },
    )
}

/// Whether an error is the oversized-body rejection from [`too_large`].
#[must_use]
pub fn is_too_large(e: &io::Error) -> bool {
    e.get_ref()
        .is_some_and(|inner| inner.is::<PayloadTooLarge>())
}

/// Whether an error means the peer went away (or stalled past a
/// timeout) rather than sent something malformed. Responding is
/// pointless and the condition is routine under real traffic.
#[must_use]
pub fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::NotConnected
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
    )
}

/// A parsed request line + headers, before any body byte is consumed.
/// The server routes on this to pick the body limit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHead {
    /// `GET` / `POST` / `PUT` / ….
    pub method: String,
    /// Absolute path, e.g. `/characterize`.
    pub path: String,
    /// Declared `Content-Length` (0 when the header is absent).
    pub content_length: u64,
    /// Raw `X-Trace-Id` header value, if the client sent one.
    /// Validation is the adopter's job; garbage is simply ignored.
    pub trace_id: Option<String>,
    /// Whether the connection survives this exchange: HTTP/1.1
    /// defaults to keep-alive, `Connection: close` (or HTTP/1.0
    /// without `Connection: keep-alive`) ends it.
    pub keep_alive: bool,
}

/// A parsed response status line + headers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseHead {
    /// The status code.
    pub status: u16,
    /// Declared `Content-Length` (0 when absent).
    pub content_length: u64,
    /// Whether the server will keep the connection open after the body.
    pub keep_alive: bool,
}

/// The outcome of feeding a buffer to a head parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parsed<T> {
    /// The buffer does not yet hold a complete head; read more bytes
    /// and call again with the grown buffer.
    NeedMore,
    /// A complete head. `consumed` bytes (through the blank line) are
    /// spoken for; the body, if any, starts at `buf[consumed..]`.
    Complete {
        /// The parsed head.
        head: T,
        /// Bytes of `buf` the head occupied, including the terminator.
        consumed: usize,
    },
}

/// Splits the head region of `buf` into lines, returning the lines and
/// the total consumed length, or `None` if the blank line has not
/// arrived yet. Enforces [`MAX_LINE_BYTES`], [`MAX_HEADER_LINES`] and
/// [`MAX_HEAD_BYTES`] as it goes, so a trickling or flooding client is
/// rejected as early as possible.
#[allow(clippy::type_complexity)]
fn split_head(buf: &[u8]) -> io::Result<Option<(Vec<&str>, usize)>> {
    let mut lines = Vec::new();
    let mut start = 0usize;
    loop {
        let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') else {
            // No terminator yet: bound what a partial line/head may buffer.
            if buf.len() - start > MAX_LINE_BYTES {
                return Err(invalid("header line too long"));
            }
            if buf.len() > MAX_HEAD_BYTES {
                return Err(invalid("request head too large"));
            }
            return Ok(None);
        };
        let mut line = &buf[start..start + nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        if line.len() > MAX_LINE_BYTES {
            return Err(invalid("header line too long"));
        }
        let consumed = start + nl + 1;
        if line.is_empty() {
            // The blank line ends the head — but only after at least a
            // request/status line; a leading blank line is malformed.
            if lines.is_empty() {
                return Err(invalid("empty request head"));
            }
            return Ok(Some((lines, consumed)));
        }
        if lines.len() > MAX_HEADER_LINES {
            return Err(invalid("too many header lines"));
        }
        if consumed > MAX_HEAD_BYTES {
            return Err(invalid("request head too large"));
        }
        lines.push(std::str::from_utf8(line).map_err(|_| invalid("header line is not UTF-8"))?);
        start = consumed;
    }
}

/// The headers this wire layer cares about, parsed in one pass.
struct Headers {
    content_length: u64,
    trace_id: Option<String>,
    connection: Option<String>,
}

fn parse_headers(lines: &[&str]) -> io::Result<Headers> {
    let mut headers = Headers {
        content_length: 0,
        trace_id: None,
        connection: None,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            headers.content_length = value
                .trim()
                .parse::<u64>()
                .map_err(|_| invalid("bad Content-Length"))?;
        } else if name.eq_ignore_ascii_case("x-trace-id") {
            headers.trace_id = Some(value.trim().to_string());
        } else if name.eq_ignore_ascii_case("connection") {
            headers.connection = Some(value.trim().to_ascii_lowercase());
        }
    }
    Ok(headers)
}

/// Keep-alive semantics for a parsed `HTTP/1.x` version token plus an
/// optional `Connection` header value.
fn keep_alive(version: &str, connection: Option<&str>) -> bool {
    match connection {
        Some("close") => false,
        Some("keep-alive") => true,
        _ => version != "HTTP/1.0",
    }
}

/// Tries to parse one request head from the front of `buf`.
///
/// # Errors
///
/// Returns an `InvalidData` error on any framing violation (malformed
/// request line, oversized head, header flood, bad `Content-Length`).
pub fn parse_request_head(buf: &[u8]) -> io::Result<Parsed<RequestHead>> {
    let Some((lines, consumed)) = split_head(buf)? else {
        return Ok(Parsed::NeedMore);
    };
    let request_line = lines[0];
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(invalid(format!("malformed request line `{request_line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported version `{version}`")));
    }
    let headers = parse_headers(&lines[1..])?;
    Ok(Parsed::Complete {
        head: RequestHead {
            method: method.to_string(),
            path: path.to_string(),
            content_length: headers.content_length,
            trace_id: headers.trace_id,
            keep_alive: keep_alive(version, headers.connection.as_deref()),
        },
        consumed,
    })
}

/// Tries to parse one response head from the front of `buf`.
///
/// # Errors
///
/// Returns an `InvalidData` error on any framing violation.
pub fn parse_response_head(buf: &[u8]) -> io::Result<Parsed<ResponseHead>> {
    let Some((lines, consumed)) = split_head(buf)? else {
        return Ok(Parsed::NeedMore);
    };
    let status_line = lines[0];
    let mut parts = status_line.split_whitespace();
    let (Some(version), Some(status)) = (parts.next(), parts.next()) else {
        return Err(invalid(format!("malformed status line `{status_line}`")));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported version `{version}`")));
    }
    let status = status
        .parse::<u16>()
        .map_err(|_| invalid("non-numeric status"))?;
    let headers = parse_headers(&lines[1..])?;
    Ok(Parsed::Complete {
        head: ResponseHead {
            status,
            content_length: headers.content_length,
            keep_alive: keep_alive(version, headers.connection.as_deref()),
        },
        consumed,
    })
}

/// The canonical reason phrase for the statuses this tree answers.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A response as a value: status, content type and body bytes. Route
/// handlers build and return these — serialization to the wire (and
/// the keep-alive / trace decoration) happens in one place,
/// [`Response::encode_head`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The status code ([`reason`] supplies the phrase).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` seconds — the backpressure header on `429`s.
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    #[must_use]
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.into().into_bytes(),
            retry_after: None,
        }
    }

    /// A response with an explicit content type and raw body bytes.
    #[must_use]
    pub fn bytes(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type,
            body,
            retry_after: None,
        }
    }

    /// A `429 Too Many Requests` carrying explicit backpressure: the
    /// client should retry after `retry_after` seconds.
    #[must_use]
    pub fn too_many_requests(retry_after: u32, body: impl Into<String>) -> Response {
        Response {
            retry_after: Some(retry_after),
            ..Response::json(429, body)
        }
    }

    /// Serializes the status line and headers. On the wire the body
    /// follows them unchanged, so a writer sends these bytes and then
    /// [`Response::body`] without joining them into one buffer.
    /// `keep_alive` selects the `Connection` header; a `trace` is echoed
    /// as `X-Trace-Id` so the caller learns the ID the server logged
    /// under.
    #[must_use]
    pub fn encode_head(&self, keep_alive: bool, trace: Option<&str>) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            head.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        if let Some(trace) = trace {
            head.push_str(&format!("X-Trace-Id: {trace}\r\n"));
        }
        head.push_str(if keep_alive {
            "Connection: keep-alive\r\n\r\n"
        } else {
            "Connection: close\r\n\r\n"
        });
        head.into_bytes()
    }
}

/// Serializes one request head (the caller appends the body bytes).
#[must_use]
pub fn encode_request_head(
    method: &str,
    path: &str,
    content_type: &str,
    body_len: usize,
    trace: Option<&str>,
    keep_alive: bool,
) -> String {
    let trace = match trace {
        Some(trace) => format!("X-Trace-Id: {trace}\r\n"),
        None => String::new(),
    };
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: charserve\r\nContent-Type: {content_type}\r\nContent-Length: {body_len}\r\n{trace}Connection: {connection}\r\n\r\n"
    )
}

/// The whole response as one buffer, for tests that write raw bytes.
#[cfg(test)]
impl Response {
    fn encode(&self, keep_alive: bool, trace: Option<&str>) -> Vec<u8> {
        let mut wire = self.encode_head(keep_alive, trace);
        wire.extend_from_slice(&self.body);
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_head_parses_incrementally() {
        let wire = b"POST /characterize HTTP/1.1\r\nContent-Length: 18\r\nX-Trace-Id: 00ff\r\n\r\n{\"scale\": \"micro\"}GET /next HTTP/1.1\r\n\r\n";
        // Every strict prefix short of the blank line asks for more.
        let head_end = wire.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4;
        for cut in 0..head_end {
            assert_eq!(
                parse_request_head(&wire[..cut]).unwrap(),
                Parsed::NeedMore,
                "cut at {cut}"
            );
        }
        let Parsed::Complete { head, consumed } = parse_request_head(wire).unwrap() else {
            panic!("complete head not parsed");
        };
        assert_eq!(consumed, head_end);
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/characterize");
        assert_eq!(head.content_length, 18);
        assert_eq!(head.trace_id.as_deref(), Some("00ff"));
        assert!(head.keep_alive, "HTTP/1.1 defaults to keep-alive");
        // The body and the next pipelined request sit exactly after.
        assert_eq!(&wire[consumed..consumed + 18], br#"{"scale": "micro"}"#);
        let Parsed::Complete { head: next, .. } =
            parse_request_head(&wire[consumed + 18..]).unwrap()
        else {
            panic!("pipelined head not parsed");
        };
        assert_eq!(next.path, "/next");
    }

    #[test]
    fn connection_semantics() {
        for (wire, expect) in [
            ("GET / HTTP/1.1\r\n\r\n", true),
            ("GET / HTTP/1.1\r\nConnection: close\r\n\r\n", false),
            ("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n", false),
            ("GET / HTTP/1.0\r\n\r\n", false),
            ("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", true),
        ] {
            let Parsed::Complete { head, .. } = parse_request_head(wire.as_bytes()).unwrap() else {
                panic!("head not parsed: {wire:?}")
            };
            assert_eq!(head.keep_alive, expect, "wire {wire:?}");
        }
    }

    #[test]
    fn bare_lf_lines_parse_too() {
        let wire = b"GET /healthz HTTP/1.1\nContent-Length: 0\n\n";
        let Parsed::Complete { head, consumed } = parse_request_head(wire).unwrap() else {
            panic!("LF-only head not parsed")
        };
        assert_eq!(head.path, "/healthz");
        assert_eq!(consumed, wire.len());
    }

    #[test]
    fn framing_violations_are_errors() {
        // Malformed request line.
        assert!(parse_request_head(b"GETonly\r\n\r\n").is_err());
        // Unsupported version.
        assert!(parse_request_head(b"GET / HTTP/2\r\n\r\n").is_err());
        // Bad Content-Length values: garbage, negative, overflow.
        // These are malformed (400), not honest-but-oversized (413).
        for bad in ["junk", "-5", "99999999999999999999999999"] {
            let wire = format!("GET / HTTP/1.1\r\nContent-Length: {bad}\r\n\r\n");
            let err = parse_request_head(wire.as_bytes()).expect_err(bad);
            assert!(!is_too_large(&err), "{bad} misclassified as 413");
        }
        // Leading blank line.
        assert!(parse_request_head(b"\r\nGET / HTTP/1.1\r\n\r\n").is_err());
        // Header flood.
        let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..(MAX_HEADER_LINES + 2) {
            flood.extend_from_slice(format!("X-Flood-{i}: y\r\n").as_bytes());
        }
        assert!(parse_request_head(&flood).is_err());
        // A single line over the line limit — even without a newline.
        let long = vec![b'a'; MAX_LINE_BYTES + 2];
        assert!(parse_request_head(&long).is_err());
    }

    #[test]
    fn response_head_round_trips_through_encode() {
        let resp = Response::json(200, r#"{"ok": true}"#);
        let wire = resp.encode(true, Some("00aa00aa00aa00aa"));
        let text = String::from_utf8(wire.clone()).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("X-Trace-Id: 00aa00aa00aa00aa\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        let Parsed::Complete { head, consumed } = parse_response_head(&wire).unwrap() else {
            panic!("encoded response did not parse")
        };
        assert_eq!(head.status, 200);
        assert_eq!(head.content_length, 12);
        assert!(head.keep_alive);
        assert_eq!(&wire[consumed..], br#"{"ok": true}"#);

        let closing = Response::json(400, "{}").encode(false, None);
        let Parsed::Complete { head, .. } = parse_response_head(&closing).unwrap() else {
            panic!("closing response did not parse")
        };
        assert!(!head.keep_alive);
    }

    #[test]
    fn retry_after_renders_on_backpressure_responses() {
        let wire = Response::too_many_requests(2, "{\"error\": \"busy\"}\n").encode(false, None);
        let text = String::from_utf8(wire).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
    }

    /// One head parser's answer to hostile bytes: no panic, only
    /// `InvalidData`, and nothing past the caps a caller sizes its
    /// buffer by. It asks for more only while `buf` fits
    /// [`MAX_HEAD_BYTES`]; a complete head's lines, its blank
    /// terminator aside, fit it too, each within [`MAX_LINE_BYTES`],
    /// with at most [`MAX_HEADER_LINES`] header lines after the first.
    fn assert_within_caps<T>(buf: &[u8], parsed: io::Result<Parsed<T>>) {
        match parsed {
            Ok(Parsed::NeedMore) => assert!(buf.len() <= MAX_HEAD_BYTES, "{} bytes", buf.len()),
            Ok(Parsed::Complete { consumed, .. }) => {
                let terminator = if buf[..consumed].ends_with(b"\r\n") {
                    2
                } else {
                    1
                };
                let lines: Vec<&[u8]> = buf[..consumed - terminator]
                    .split_inclusive(|&b| b == b'\n')
                    .collect();
                assert!(consumed - terminator <= MAX_HEAD_BYTES);
                assert!(lines.len() <= 1 + MAX_HEADER_LINES, "{} lines", lines.len());
                assert!(lines.iter().all(|line| line.len() <= MAX_LINE_BYTES + 2));
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        }
    }

    fn assert_heads_hold(buf: &[u8]) {
        assert_within_caps(buf, parse_request_head(buf));
        assert_within_caps(buf, parse_response_head(buf));
    }

    /// A request head and two response heads as this crate writes them.
    fn valid_heads() -> Vec<Vec<u8>> {
        vec![
            encode_request_head(
                "POST",
                "/characterize",
                "application/json",
                18,
                Some("00000000000000ff"),
                true,
            )
            .into_bytes(),
            Response::json(200, "{}").encode_head(true, Some("00aa00aa00aa00aa")),
            Response::too_many_requests(1, "{}").encode_head(false, None),
        ]
    }

    #[test]
    fn head_parsers_survive_arbitrary_bytes() {
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Raw bytes; then bytes from a head-like alphabet, some long
        // enough to cross the line and head caps, behind a valid first
        // line of each kind so the header loop sees them.
        let alphabet = b"ab:- 0123456789\r\n\n\n";
        for case in 0..3000 {
            let len = (next() % 400) as usize;
            let raw: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            assert_heads_hold(&raw);
            let len = if case % 100 == 0 { 20_000 } else { len };
            let text: Vec<u8> = (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect();
            for first in [&b"GET / HTTP/1.1\r\n"[..], b"HTTP/1.1 200 OK\r\n"] {
                let mut head = first.to_vec();
                head.extend_from_slice(&text);
                assert_heads_hold(&head);
            }
        }
        // A flood of short header lines, complete or not.
        let mut flood = b"HTTP/1.1 200 OK\r\n".to_vec();
        for _ in 0..4 * MAX_HEADER_LINES {
            flood.extend_from_slice(b"a: 1\r\n");
            assert_heads_hold(&flood);
            let mut done = flood.clone();
            done.extend_from_slice(b"\r\n");
            assert_heads_hold(&done);
        }
    }

    #[test]
    fn head_parsers_survive_truncation_and_flips() {
        for head in valid_heads() {
            for cut in 0..head.len() {
                assert_eq!(
                    parse_request_head(&head[..cut]).ok(),
                    Some(Parsed::NeedMore)
                );
                assert_eq!(
                    parse_response_head(&head[..cut]).ok(),
                    Some(Parsed::NeedMore)
                );
            }
            for pos in 0..head.len() {
                for flip in 1..=255u8 {
                    let mut flipped = head.clone();
                    flipped[pos] ^= flip;
                    assert_heads_hold(&flipped);
                }
            }
        }
    }

    #[test]
    fn too_large_marker_is_typed() {
        let e = too_large(100, 10);
        assert!(is_too_large(&e));
        assert!(!is_too_large(&invalid("other")));
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }
}
