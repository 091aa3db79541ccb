//! The nonblocking event loop under the daemon: epoll readiness,
//! per-connection state machines, keep-alive + pipelining, and bounded
//! admission with explicit backpressure.
//!
//! The pre-reactor daemon spent one OS thread per connection, parked in
//! blocking reads — a slow or idle client pinned a thread, and overload
//! collapsed into the kernel accept queue. Here **one** thread owns
//! every connection:
//!
//! ```text
//!            epoll (level-triggered, crates/compat/polling)
//!   accept ──► Conn{rbuf} ──parse──► Router handler ──► Conn{wqueue} ──► write
//!                 │                     │ Reply::Later                ▲
//!                 │                     ▼                             │
//!                 │               FlightBoard ──► WorkerPool ──► completion
//!                 │                                queue + eventfd waker
//!                 └── deadlines: header read / keep-alive idle
//! ```
//!
//! Requests are parsed **from buffers** ([`httpwire`]'s sans-IO
//! parser), so keep-alive and pipelining fall out for free: whatever
//! bytes are buffered past one request are simply the next request.
//! Responses join the connection's write queue in arrival order — a
//! connection suspended on a pending computation ([`Reply::Later`])
//! stops consuming its buffer until the completion lands, which is
//! exactly what keeps pipelined responses ordered. A response queues as
//! two buffers, its encoded head and its body as the handler built it,
//! and `write_vectored` sends them together: a large body (a stored
//! object) is never copied behind its head.
//!
//! CPU-bound work never runs here. A handler that needs the worker
//! pool returns [`Reply::Later`] after wiring its completion callback
//! to the [`Deferred`] it was given; the callback (on the pool thread)
//! pushes the rendered response onto the completion queue and rings the
//! eventfd [`polling::Waker`], and the reactor resumes the parked
//! connection. A connection that died while parked is simply absent
//! from the table when its completion arrives — the delivery is
//! discarded, the flight's other waiters are unaffected.
//!
//! Admission is bounded at the front door: beyond
//! [`ReactorConfig::max_connections`] live connections, new arrivals
//! get `429 Too Many Requests` + `Retry-After` and are closed (and far
//! beyond it, dropped without ceremony) — measured backpressure instead
//! of accept-queue collapse.

use crate::router::{error_body, Deferred, Reply, Request};
use httpwire::{Parsed, RequestHead, Response};
use polling::{Interest, Poller, Waker};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Token of the listening socket.
const LISTENER: u64 = 0;
/// Token of the cross-thread waker eventfd.
const WAKER: u64 = 1;
/// First connection token (monotonic, never reused — a completion for
/// a dead connection can never hit a recycled slot).
const FIRST_CONN: u64 = 2;

/// Socket read chunk size.
const READ_CHUNK: usize = 16 * 1024;

/// Queued buffers handed to one `write_vectored` call.
const MAX_IOV: usize = 16;

/// Cap on buffered not-yet-parsed pipeline bytes while a connection is
/// suspended on a pending computation. Past it the reactor stops
/// reading (drops read interest) until the connection resumes — TCP
/// backpressure does the rest.
const PIPELINE_BUF_CAP: usize = 64 * 1024;

/// `Retry-After` seconds advertised on backpressure rejections.
pub const RETRY_AFTER_SECS: u32 = 1;

/// Admission and timeout knobs of one reactor instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Live-connection cap; arrivals beyond it answer `429` + close.
    pub max_connections: usize,
    /// Deadline for a partially-received request (head or body) to
    /// finish arriving. Expiry answers `408` and closes — the slowloris
    /// bound, replacing the old hardcoded 30 s blocking read timeout.
    pub header_timeout: Duration,
    /// How long an idle keep-alive connection may sit between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            max_connections: 256,
            header_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// What the reactor asks of the layer above it: route a parsed request
/// to a response (or a deferred one), bound request bodies, and expose
/// the shutdown flag. `charserve::server` implements this over its
/// typed router; reactor tests implement it in a dozen lines.
pub trait Service {
    /// Body limit for a routed head (checked before any body buffering).
    fn body_limit(&self, head: &RequestHead) -> usize;
    /// Handles one complete request. Runs on the reactor thread inside
    /// the request's trace scope — expensive work must go through
    /// [`Reply::Later`] and a worker pool, not block here.
    fn handle(&self, request: &Request, deferred: &Deferred) -> Reply;
    /// Polled once per loop iteration; `true` starts the drain: stop
    /// accepting, flush and close idle connections, let suspended
    /// computations finish and deliver, then return from `run`.
    fn shutdown_requested(&self) -> bool;
    /// A connection was rejected at admission (`429` + close).
    fn on_rejected(&self) {}
    /// A routed request was fully answered (response queued for write).
    fn on_request_done(&self, elapsed: Duration) {
        let _ = elapsed;
    }
}

/// Connection lifecycle.
#[derive(Debug)]
enum State {
    /// Parsing requests from `rbuf` as bytes arrive.
    Ready,
    /// Suspended on a pending computation; pipelined successors stay
    /// buffered until the completion lands.
    Waiting {
        started: Instant,
        keep_alive: bool,
        trace: obs::TraceId,
    },
    /// Admission-rejected: flush the queued `429` and close.
    Rejected,
}

/// Which clock a connection deadline runs on. The kind matters when
/// re-arming: a quiescent connection that starts sending a request
/// must move from the long idle clock to the short header clock, but
/// bytes trickling in must never reset a running header clock (that
/// reset is exactly what a slowloris client exploits).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Clock {
    /// Slowloris guard: a partial request is buffered.
    Header,
    /// Keep-alive guard: quiescent between requests.
    Idle,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    peer: String,
    rbuf: Vec<u8>,
    /// Unwritten response buffers, oldest first; none is empty.
    wqueue: VecDeque<Vec<u8>>,
    /// Bytes of the front buffer already written.
    wpos: usize,
    state: State,
    deadline: Option<(Clock, Instant)>,
    /// The peer's write half is gone (clean EOF); drain what is
    /// processable, answer it, then close.
    read_closed: bool,
    close_after_flush: bool,
    interest: Interest,
}

impl Conn {
    /// Queues a response behind everything still unwritten: its head,
    /// then its body, moved and not copied.
    fn respond(&mut self, response: Response, keep_alive: bool, trace: Option<&str>) {
        self.wqueue
            .push_back(response.encode_head(keep_alive, trace));
        if !response.body.is_empty() {
            self.wqueue.push_back(response.body);
        }
    }

    /// Drops `n` written bytes from the front of the queue: every
    /// buffer they finish leaves, and the rest count into the next.
    fn advance(&mut self, mut n: usize) {
        while let Some(front) = self.wqueue.front() {
            let left = front.len() - self.wpos;
            if n < left {
                self.wpos += n;
                return;
            }
            n -= left;
            self.wpos = 0;
            self.wqueue.pop_front();
        }
    }

    fn flushed(&self) -> bool {
        self.wqueue.is_empty()
    }
}

enum Filled {
    /// Read everything available; the peer is still there.
    More,
    /// Clean EOF: the peer closed its write half.
    Eof,
    /// The connection errored; close it.
    Dead,
}

/// The event loop. [`Reactor::run`] consumes it and blocks the calling
/// thread until the service requests shutdown and the drain completes.
pub struct Reactor<S> {
    listener: TcpListener,
    service: Arc<S>,
    config: ReactorConfig,
    poller: Poller,
    waker: Arc<Waker>,
    completions: Arc<Mutex<Vec<(u64, Response)>>>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    draining: bool,
}

impl<S> std::fmt::Debug for Reactor<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor")
            .field("connections", &self.conns.len())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<S: Service> Reactor<S> {
    /// Wires the epoll instance, registers the listener and the waker.
    ///
    /// # Errors
    ///
    /// Returns any error from epoll setup or from making the listener
    /// nonblocking.
    pub fn new(listener: TcpListener, service: Arc<S>, config: ReactorConfig) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(listener.as_raw_fd(), LISTENER, Interest::READABLE)?;
        let waker = Arc::new(Waker::new(&poller, WAKER)?);
        Ok(Reactor {
            listener,
            service,
            config,
            poller,
            waker,
            completions: Arc::new(Mutex::new(Vec::new())),
            conns: HashMap::new(),
            next_token: FIRST_CONN,
            draining: false,
        })
    }

    /// Runs the event loop to completion (shutdown + drain).
    ///
    /// # Errors
    ///
    /// Returns only `epoll_wait` errors; per-connection errors close
    /// that connection and never stop the loop.
    pub fn run(mut self) -> io::Result<()> {
        let mut events = Vec::new();
        loop {
            self.poller.wait(&mut events, self.next_timeout())?;
            for event in events.clone() {
                match event.token {
                    LISTENER => self.accept_ready(),
                    WAKER => self.waker.drain(),
                    token => {
                        let Some(mut conn) = self.conns.remove(&token) else {
                            continue;
                        };
                        if self.drive(&mut conn, event.readable) {
                            self.conns.insert(token, conn);
                        } else {
                            self.close(conn);
                        }
                    }
                }
            }
            self.apply_completions();
            self.expire_deadlines();
            if self.service.shutdown_requested() {
                self.begin_drain();
            }
            if self.draining && self.conns.is_empty() {
                return Ok(());
            }
        }
    }

    /// Next `epoll_wait` timeout: the nearest connection deadline, or
    /// block indefinitely (completions arrive via the waker).
    fn next_timeout(&self) -> Option<Duration> {
        let next = self
            .conns
            .values()
            .filter_map(|c| c.deadline.map(|(_, at)| at))
            .min()?;
        Some(next.saturating_duration_since(Instant::now()))
    }

    fn accept_ready(&mut self) {
        loop {
            let (stream, peer) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if self.draining {
                continue; // dropped: the daemon is going away
            }
            let over_cap = self.conns.len() >= self.config.max_connections;
            // Far past the cap even polite rejection stops: each 429
            // still holds an fd until flushed, and a peer that ignores
            // them does not deserve one.
            if over_cap && self.conns.len() >= self.config.max_connections * 2 + 16 {
                continue;
            }
            let _ = stream.set_nonblocking(true);
            let _ = stream.set_nodelay(true);
            let token = self.next_token;
            self.next_token += 1;
            let mut conn = Conn {
                stream,
                token,
                peer: peer.to_string(),
                rbuf: Vec::new(),
                wqueue: VecDeque::new(),
                wpos: 0,
                state: State::Ready,
                deadline: None, // finish() arms the idle clock

                read_closed: false,
                close_after_flush: false,
                interest: Interest::READABLE,
            };
            if over_cap {
                self.service.on_rejected();
                conn.state = State::Rejected;
                conn.deadline = Some((Clock::Header, Instant::now() + self.config.header_timeout));
                conn.close_after_flush = true;
                conn.interest = Interest::WRITABLE;
                conn.respond(
                    Response::too_many_requests(
                        RETRY_AFTER_SECS,
                        error_body("server is at its connection limit"),
                    ),
                    false,
                    None,
                );
            }
            if self
                .poller
                .add(conn.stream.as_raw_fd(), token, conn.interest)
                .is_err()
            {
                continue; // conn drops closed
            }
            // A fresh socket is writable immediately: flush the 429 (or
            // just settle interest) without waiting for an event.
            if self.finish(&mut conn) {
                self.conns.insert(token, conn);
            } else {
                self.close(conn);
            }
        }
    }

    /// Reads, parses, dispatches and flushes one connection after a
    /// readiness event. Returns `false` when the connection is done.
    fn drive(&mut self, conn: &mut Conn, readable: bool) -> bool {
        if readable && self.may_read(conn) {
            match self.fill(conn) {
                Filled::More => {}
                Filled::Eof => conn.read_closed = true,
                Filled::Dead => return false,
            }
        }
        self.finish(conn)
    }

    fn may_read(&self, conn: &Conn) -> bool {
        !conn.read_closed
            && !conn.close_after_flush
            && match conn.state {
                State::Ready => true,
                State::Waiting { .. } => conn.rbuf.len() < PIPELINE_BUF_CAP,
                State::Rejected => false,
            }
    }

    /// Drains the socket into `rbuf` until `WouldBlock` (or the
    /// pipeline cap while suspended).
    fn fill(&self, conn: &mut Conn) -> Filled {
        loop {
            if matches!(conn.state, State::Waiting { .. }) && conn.rbuf.len() >= PIPELINE_BUF_CAP {
                return Filled::More;
            }
            let start = conn.rbuf.len();
            conn.rbuf.resize(start + READ_CHUNK, 0);
            match conn.stream.read(&mut conn.rbuf[start..]) {
                Ok(0) => {
                    conn.rbuf.truncate(start);
                    return Filled::Eof;
                }
                Ok(n) => conn.rbuf.truncate(start + n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    conn.rbuf.truncate(start);
                    return Filled::More;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    conn.rbuf.truncate(start);
                }
                Err(_) => {
                    conn.rbuf.truncate(start);
                    return Filled::Dead;
                }
            }
        }
    }

    /// Parses and dispatches every complete buffered request, stopping
    /// at a partial request, a suspension, or a to-be-closed state.
    fn pump(&mut self, conn: &mut Conn) {
        loop {
            if !matches!(conn.state, State::Ready) || conn.close_after_flush {
                return;
            }
            let (head, consumed) = match httpwire::parse_request_head(&conn.rbuf) {
                Err(e) => {
                    conn.respond(Response::json(400, error_body(&e.to_string())), false, None);
                    conn.close_after_flush = true;
                    conn.rbuf.clear();
                    return;
                }
                Ok(Parsed::NeedMore) => {
                    // Partial head: start the slowloris clock, replacing
                    // any idle clock — but never reset a running one.
                    if !conn.rbuf.is_empty() && !matches!(conn.deadline, Some((Clock::Header, _))) {
                        conn.deadline =
                            Some((Clock::Header, Instant::now() + self.config.header_timeout));
                    }
                    return;
                }
                Ok(Parsed::Complete { head, consumed }) => (head, consumed),
            };
            let limit = self.service.body_limit(&head);
            if head.content_length > limit as u64 {
                let msg = format!(
                    "declared body of {} bytes exceeds the {limit}-byte limit",
                    head.content_length
                );
                conn.respond(Response::json(413, error_body(&msg)), false, None);
                conn.close_after_flush = true;
                conn.rbuf.clear();
                return;
            }
            let total = consumed + head.content_length as usize;
            if conn.rbuf.len() < total {
                // Head parsed, body still arriving: same clock rules.
                if !matches!(conn.deadline, Some((Clock::Header, _))) {
                    conn.deadline =
                        Some((Clock::Header, Instant::now() + self.config.header_timeout));
                }
                return;
            }
            let body = conn.rbuf[consumed..total].to_vec();
            conn.rbuf.drain(..total);
            conn.deadline = None;
            self.dispatch(conn, &head, body);
        }
    }

    /// Routes one complete request under its (adopted or minted) trace.
    fn dispatch(&mut self, conn: &mut Conn, head: &RequestHead, body: Vec<u8>) {
        let request = Request {
            method: head.method.clone(),
            path: head.path.clone(),
            body,
        };
        let trace = head
            .trace_id
            .as_deref()
            .and_then(obs::TraceId::parse)
            .unwrap_or_else(obs::TraceId::generate);
        let started = Instant::now();
        let deferred = self.deferred_for(conn.token);
        let reply = obs::with_trace(trace, || {
            let mut span = obs::span("http_request");
            span.field("method", &request.method);
            span.field("path", &request.path);
            span.field("peer", &conn.peer);
            self.service.handle(&request, &deferred)
        });
        match reply {
            Reply::Now(response) => {
                conn.respond(response, head.keep_alive, Some(&trace.to_string()));
                self.service.on_request_done(started.elapsed());
                if !head.keep_alive {
                    conn.close_after_flush = true;
                    conn.rbuf.clear();
                }
            }
            Reply::Later => {
                conn.state = State::Waiting {
                    started,
                    keep_alive: head.keep_alive,
                    trace,
                };
            }
        }
    }

    /// A delivery handle bound to `token`: the completion callback (on
    /// a pool thread) queues the response and rings the eventfd.
    fn deferred_for(&self, token: u64) -> Deferred {
        let completions = Arc::clone(&self.completions);
        let waker = Arc::clone(&self.waker);
        Deferred::new(move |response| {
            completions
                .lock()
                .expect("completion queue poisoned")
                .push((token, response));
            waker.wake();
        })
    }

    /// Resumes connections whose deferred responses have landed. A
    /// token no longer in the table is a connection that died while
    /// waiting — its delivery is discarded.
    fn apply_completions(&mut self) {
        let pending: Vec<(u64, Response)> = {
            let mut queue = self.completions.lock().expect("completion queue poisoned");
            std::mem::take(&mut *queue)
        };
        for (token, response) in pending {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if let State::Waiting {
                started,
                keep_alive,
                trace,
            } = conn.state
            {
                conn.state = State::Ready;
                conn.respond(response, keep_alive, Some(&trace.to_string()));
                self.service.on_request_done(started.elapsed());
                if keep_alive {
                    // Back to parsing: pipelined successors may already
                    // be buffered. The idle deadline re-arms in finish.
                    conn.deadline = None;
                } else {
                    conn.close_after_flush = true;
                    conn.rbuf.clear();
                }
            }
            if self.finish(&mut conn) {
                self.conns.insert(token, conn);
            } else {
                self.close(conn);
            }
        }
    }

    /// Pump + flush + re-arm: the common tail of every wakeup. Returns
    /// `false` when the connection should be closed.
    fn finish(&mut self, conn: &mut Conn) -> bool {
        self.pump(conn);
        if conn.read_closed && matches!(conn.state, State::Ready) {
            // Clean EOF and nothing suspended: everything processable
            // was answered; whatever partial tail remains can never
            // complete. Flush and go.
            conn.close_after_flush = true;
        }
        if !self.write_out(conn) {
            return false;
        }
        if conn.flushed() && conn.close_after_flush {
            return false;
        }
        // Idle keep-alive deadline: armed only when truly quiescent.
        if matches!(conn.state, State::Ready) && conn.rbuf.is_empty() && conn.flushed() {
            conn.deadline = Some((Clock::Idle, Instant::now() + self.config.idle_timeout));
        }
        let want = Interest {
            readable: self.may_read(conn),
            writable: !conn.flushed(),
        };
        if want != conn.interest {
            conn.interest = want;
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, want)
                .is_err()
            {
                return false;
            }
        }
        true
    }

    /// Writes as much of the queue as the socket accepts right now,
    /// up to `MAX_IOV` buffers per call, resuming mid-buffer after a
    /// partial write.
    fn write_out(&self, conn: &mut Conn) -> bool {
        while !conn.flushed() {
            let mut iov = [IoSlice::new(&[]); MAX_IOV];
            for (slot, buf) in iov.iter_mut().zip(&conn.wqueue) {
                *slot = IoSlice::new(buf);
            }
            iov[0] = IoSlice::new(&conn.wqueue[0][conn.wpos..]);
            let count = conn.wqueue.len().min(MAX_IOV);
            match conn.stream.write_vectored(&iov[..count]) {
                Ok(0) => return false,
                Ok(n) => conn.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }

    /// Closes expired connections: `408` for a half-received request
    /// (the slowloris case), silent close for an idle keep-alive.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|(_, at)| at <= now))
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            conn.deadline = None;
            let mid_request = matches!(conn.state, State::Ready) && !conn.rbuf.is_empty();
            if mid_request {
                obs::info!(
                    "charserve",
                    "client {} timed out mid-request ({} bytes buffered)",
                    conn.peer,
                    conn.rbuf.len()
                );
                conn.respond(
                    Response::json(408, error_body("timed out waiting for the full request")),
                    false,
                    None,
                );
                conn.rbuf.clear();
            }
            conn.close_after_flush = true;
            if self.finish(&mut conn) {
                self.conns.insert(token, conn);
            } else {
                self.close(conn);
            }
        }
    }

    /// Starts (idempotently) the shutdown drain: stop accepting, close
    /// everything idle, keep suspended connections until their
    /// computations deliver.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        let _ = self.poller.delete(self.listener.as_raw_fd());
        let waiting = self
            .conns
            .values()
            .filter(|c| matches!(c.state, State::Waiting { .. }))
            .count();
        obs::info!(
            "charserve",
            "shutdown: draining {} connections ({} suspended on computations)",
            self.conns.len(),
            waiting
        );
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            if !matches!(conn.state, State::Waiting { .. }) {
                conn.close_after_flush = true;
                conn.rbuf.clear();
            }
            if self.finish(&mut conn) {
                self.conns.insert(token, conn);
            } else {
                self.close(conn);
            }
        }
    }

    fn close(&self, conn: Conn) {
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        // conn.stream drops here, closing the fd.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use httpwire::{ClientConfig, HttpConnection, RequestSpec};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    /// A toy service: `GET /echo` and `GET /big` answer inline,
    /// `POST /slow` answers from a background thread after a delay
    /// (standing in for the worker pool), `POST /stop` requests
    /// shutdown.
    struct Toy {
        stop: AtomicBool,
        rejected: AtomicU64,
        done: AtomicU64,
    }

    impl Toy {
        fn new() -> Toy {
            Toy {
                stop: AtomicBool::new(false),
                rejected: AtomicU64::new(0),
                done: AtomicU64::new(0),
            }
        }
    }

    impl Service for Toy {
        fn body_limit(&self, _head: &RequestHead) -> usize {
            1024
        }
        fn handle(&self, request: &Request, deferred: &Deferred) -> Reply {
            match (request.method.as_str(), request.path.as_str()) {
                ("GET", "/echo") => Reply::Now(Response::json(200, "echo")),
                ("GET", "/big") => {
                    Reply::Now(Response::bytes(200, "application/octet-stream", big_body()))
                }
                ("POST", "/slow") => {
                    let deferred = deferred.clone();
                    let delay = String::from_utf8_lossy(&request.body)
                        .trim()
                        .parse::<u64>()
                        .unwrap_or(50);
                    std::thread::spawn(move || {
                        std::thread::sleep(Duration::from_millis(delay));
                        deferred.deliver(Response::json(200, "slow"));
                    });
                    Reply::Later
                }
                ("POST", "/stop") => {
                    self.stop.store(true, Ordering::Release);
                    Reply::Now(Response::json(200, "bye"))
                }
                _ => Reply::Now(Response::json(404, "nope")),
            }
        }
        fn shutdown_requested(&self) -> bool {
            self.stop.load(Ordering::Acquire)
        }
        fn on_rejected(&self) {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        fn on_request_done(&self, _elapsed: Duration) {
            self.done.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Length of the `/big` body: more than the socket buffers of a
    /// client that is not reading can hold.
    const BIG_BODY: usize = 8 << 20;

    /// The `/big` body: consecutive little-endian `u32`s, so a write
    /// resumed at a wrong offset shows as a mismatch.
    fn big_body() -> Vec<u8> {
        (0..(BIG_BODY / 4) as u32)
            .flat_map(u32::to_le_bytes)
            .collect()
    }

    fn boot(config: ReactorConfig) -> (String, Arc<Toy>, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let toy = Arc::new(Toy::new());
        let service = Arc::clone(&toy);
        let handle = std::thread::spawn(move || {
            Reactor::new(listener, service, config)
                .unwrap()
                .run()
                .unwrap();
        });
        (addr, toy, handle)
    }

    /// Reads one response: `(status, body)`.
    fn read(conn: &mut HttpConnection) -> (u16, String) {
        let (head, body) = conn.read_response(1024).unwrap();
        (head.status, String::from_utf8(body).unwrap())
    }

    /// A keep-alive connection with one `GET path` already sent.
    fn get(addr: &str, path: &str) -> HttpConnection {
        let mut conn = HttpConnection::connect(addr, &ClientConfig::default()).unwrap();
        conn.send(&RequestSpec::get(path, 1024)).unwrap();
        conn
    }

    fn stop(addr: &str, handle: std::thread::JoinHandle<()>) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"POST /stop HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        assert_eq!(read(&mut HttpConnection::from(s)).0, 200);
        handle.join().unwrap();
    }

    #[test]
    fn keep_alive_pipelining_preserves_response_order() {
        let (addr, toy, handle) = boot(ReactorConfig::default());
        let mut s = TcpStream::connect(&addr).unwrap();
        // Three pipelined requests in one write: a slow one FIRST, then
        // two fast ones. Responses must come back in request order.
        s.write_all(
            b"POST /slow HTTP/1.1\r\nContent-Length: 3\r\n\r\n100\
              GET /echo HTTP/1.1\r\n\r\n\
              GET /missing HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        s.flush().unwrap();
        let mut conn = HttpConnection::from(s);
        let bodies: Vec<(u16, String)> = (0..3).map(|_| read(&mut conn)).collect();
        assert_eq!(
            bodies,
            vec![
                (200, "slow".to_string()),
                (200, "echo".to_string()),
                (404, "nope".to_string()),
            ],
            "pipelined responses out of order"
        );
        assert_eq!(toy.done.load(Ordering::Relaxed), 3);
        stop(&addr, handle);
    }

    /// A multi-MiB response to a client that reads slowly, then a
    /// pipelined reply. The socket takes the first response in partial
    /// writes, the first of which ends inside its body, so the writer
    /// resumes mid-buffer and across the head/body and response
    /// boundaries; both responses arrive byte for byte, in order, as
    /// the head encoding lays them out.
    #[test]
    fn slow_reader_gets_a_large_body_and_the_next_reply_byte_for_byte() {
        let (addr, _toy, handle) = boot(ReactorConfig::default());
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(
            b"GET /big HTTP/1.1\r\nX-Trace-Id: 00000000000000b1\r\n\r\n\
              GET /echo HTTP/1.1\r\nX-Trace-Id: 00000000000000b2\r\n\r\n",
        )
        .unwrap();
        let mut want = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\n\
             Content-Length: {BIG_BODY}\r\nX-Trace-Id: 00000000000000b1\r\n\
             Connection: keep-alive\r\n\r\n"
        )
        .into_bytes();
        want.extend(big_body());
        want.extend_from_slice(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 4\r\n\
              X-Trace-Id: 00000000000000b2\r\nConnection: keep-alive\r\n\r\necho",
        );
        // Not reading at first lets the reactor fill the socket buffers.
        std::thread::sleep(Duration::from_millis(100));
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut got = Vec::with_capacity(want.len());
        let mut chunk = vec![0u8; 64 * 1024];
        while got.len() < want.len() {
            let n = s.read(&mut chunk).unwrap();
            assert!(n > 0, "closed after {} of {} bytes", got.len(), want.len());
            got.extend_from_slice(&chunk[..n]);
            std::thread::sleep(Duration::from_micros(200));
        }
        let first_difference = got.iter().zip(&want).position(|(a, b)| a != b);
        assert_eq!(first_difference, None, "response bytes differ");
        assert_eq!(got.len(), want.len());
        stop(&addr, handle);
    }

    #[test]
    fn slowloris_trickles_do_not_block_other_clients() {
        let (addr, _toy, handle) = boot(ReactorConfig::default());
        // Eight connections that sent half a request line and stalled.
        let stalled: Vec<TcpStream> = (0..8)
            .map(|_| {
                let mut s = TcpStream::connect(&addr).unwrap();
                s.write_all(b"GET /ech").unwrap();
                s.flush().unwrap();
                s
            })
            .collect();
        // A well-behaved client gets served promptly regardless.
        let started = Instant::now();
        assert_eq!(read(&mut get(&addr, "/echo")), (200, "echo".to_string()));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "stalled connections delayed a live client by {:?}",
            started.elapsed()
        );
        drop(stalled);
        stop(&addr, handle);
    }

    #[test]
    fn half_received_requests_time_out_with_408() {
        let (addr, _toy, handle) = boot(ReactorConfig {
            header_timeout: Duration::from_millis(150),
            ..ReactorConfig::default()
        });
        let started = Instant::now();
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET /echo HTTP/1.1\r\nX-Part").unwrap();
        s.flush().unwrap();
        assert_eq!(read(&mut HttpConnection::from(s)).0, 408);
        // The partial request must expire on the short header clock —
        // if it sat out the 60 s idle clock instead, the deadline was
        // armed on the wrong clock.
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "408 took {:?}: expired on the idle clock, not the header clock",
            started.elapsed()
        );
        stop(&addr, handle);
    }

    #[test]
    fn idle_keep_alive_connections_are_closed_quietly() {
        let (addr, _toy, handle) = boot(ReactorConfig {
            idle_timeout: Duration::from_millis(150),
            ..ReactorConfig::default()
        });
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET /echo HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(
            read(&mut HttpConnection::from(s.try_clone().unwrap())).0,
            200
        );
        // Sit idle past the deadline: the server closes (clean EOF).
        let mut probe = [0u8; 1];
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(s.read(&mut probe).unwrap(), 0, "expected server close");
        stop(&addr, handle);
    }

    #[test]
    fn admission_rejects_beyond_max_connections_while_serving_the_admitted() {
        let (addr, toy, handle) = boot(ReactorConfig {
            max_connections: 2,
            ..ReactorConfig::default()
        });
        // Two admitted keep-alive connections hold the slots.
        let mut held: Vec<HttpConnection> = (0..2)
            .map(|_| {
                let mut conn = get(&addr, "/echo");
                assert_eq!(read(&mut conn).0, 200);
                conn
            })
            .collect();
        // The third arrival is told to back off, with Retry-After.
        let mut over = HttpConnection::from(TcpStream::connect(&addr).unwrap());
        let (head, _) = over.read_response(1024).unwrap();
        assert_eq!(head.status, 429);
        assert!(!head.keep_alive, "rejections must close");
        assert_eq!(toy.rejected.load(Ordering::Relaxed), 1);
        // The admitted connections still work.
        let conn = &mut held[0];
        conn.send(&RequestSpec::get("/echo", 1024)).unwrap();
        assert_eq!(read(conn).0, 200);
        drop(held);
        drop(over);
        stop(&addr, handle);
    }

    #[test]
    fn disconnect_while_suspended_discards_the_completion() {
        let (addr, toy, handle) = boot(ReactorConfig::default());
        // Start a slow request, then vanish before the answer exists.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"POST /slow HTTP/1.1\r\nContent-Length: 3\r\n\r\n200")
            .unwrap();
        s.flush().unwrap();
        drop(s);
        std::thread::sleep(Duration::from_millis(400));
        // The reactor survived the orphaned delivery and still serves.
        assert_eq!(read(&mut get(&addr, "/echo")).0, 200);
        // The orphaned request still "completed" (latency observed at
        // delivery), plus the live one: exactly 2.
        assert_eq!(toy.done.load(Ordering::Relaxed), 2);
        stop(&addr, handle);
    }

    /// A client that disconnects mid-head or mid-body never has its
    /// bytes dispatched as a (shorter, or empty-bodied) request.
    #[test]
    fn truncated_requests_are_never_dispatched() {
        let (addr, toy, handle) = boot(ReactorConfig::default());
        for partial in [
            &b"GET /echo HTTP/1.1\r\n"[..],
            b"GET /echo HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ] {
            let mut s = TcpStream::connect(&addr).unwrap();
            s.write_all(partial).unwrap();
            s.flush().unwrap();
            drop(s);
        }
        assert_eq!(read(&mut get(&addr, "/echo")), (200, "echo".to_string()));
        // Only the complete request was handled.
        assert_eq!(toy.done.load(Ordering::Relaxed), 1);
        stop(&addr, handle);
    }
}
