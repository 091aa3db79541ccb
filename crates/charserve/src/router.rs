//! The typed router: route handlers are plain functions from a context
//! and a parsed [`Request`] to a [`Response`] value — never a socket.
//!
//! The pre-reactor daemon dispatched through one big
//! `match (method, path)` whose arms wrote raw `TcpStream`s, so
//! exercising a handler meant booting a listener. Here a handler is
//! `fn(&C, &Request, &Deferred) -> Reply`: it computes a value and the
//! transport (the reactor, or a unit test's bare function call)
//! decides how bytes leave the building. Handlers that answer from
//! state in hand return [`Reply::Now`]; the one handler whose answer
//! comes off the worker pool ([`Reply::Later`]) hands its eventual
//! [`Response`] to the [`Deferred`] it was given — the reactor parks
//! the connection until the deferred fires, a test just reads the
//! channel it wired in.

use crate::json;
use httpwire::{RequestHead, Response};
use std::sync::mpsc;
use std::sync::Arc;

/// Maximum accepted body length for JSON endpoints.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;
/// Maximum accepted body length for object ingest (`PUT /object/…`):
/// checksummed containers of captured GEMM streams run far past the
/// JSON limit at Full scale. Defined as the client-side fetch cap so
/// the two ends of the object protocol can never drift apart — a
/// daemon that stored objects larger than the fetch cap would force
/// permanent recomputes fleet-wide.
pub const MAX_OBJECT_BYTES: usize = charstore::remote::MAX_OBJECT_BYTES;

/// The body limit for a routed request head: object ingest accepts
/// full container payloads, every JSON endpoint keeps the tight cap.
/// The reactor checks a declared `Content-Length` against it before
/// allocating the body.
#[must_use]
pub fn body_limit(head: &RequestHead) -> usize {
    if head.method == "PUT" && head.path.starts_with("/object/") {
        MAX_OBJECT_BYTES
    } else {
        MAX_BODY_BYTES
    }
}

/// A parsed request head plus its body — the value route handlers
/// receive. Handlers never see a socket; the reactor (or a test)
/// assembles this from parsed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET` / `POST` / `PUT` / ….
    pub method: String,
    /// Absolute path, e.g. `/characterize`.
    pub path: String,
    /// Raw body bytes (empty when there was none). JSON endpoints
    /// decode UTF-8 themselves; object endpoints take the bytes as-is.
    pub body: Vec<u8>,
}

impl Request {
    /// A body-less request — the common case in handler unit tests.
    #[must_use]
    pub fn new(method: &str, path: &str) -> Request {
        Request {
            method: method.to_string(),
            path: path.to_string(),
            body: Vec::new(),
        }
    }
}

/// A route handler. `C` is the server's shared context; the
/// [`Deferred`] is only touched by handlers that answer asynchronously.
pub type Handler<C> = fn(&C, &Request, &Deferred) -> Reply;

/// What a handler produced.
#[derive(Debug)]
pub enum Reply {
    /// A complete response, ready to serialize.
    Now(Response),
    /// The response is being computed elsewhere (the worker pool); it
    /// will arrive through the [`Deferred`] the handler was given. The
    /// reactor suspends the connection — later pipelined requests on it
    /// wait their turn, preserving response order.
    Later,
}

/// A claim ticket for a response produced off the serving thread.
///
/// The reactor builds one per request, binding it to the connection
/// awaiting the answer; handlers clone it into completion callbacks.
/// Delivery is one-shot at the receiving end — a connection that died
/// while waiting simply discards the delivery.
#[derive(Clone)]
pub struct Deferred {
    deliver: Arc<dyn Fn(Response) + Send + Sync>,
}

impl std::fmt::Debug for Deferred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deferred").finish_non_exhaustive()
    }
}

impl Deferred {
    /// A deferred response slot delivering through `deliver`.
    #[must_use]
    pub fn new(deliver: impl Fn(Response) + Send + Sync + 'static) -> Deferred {
        Deferred {
            deliver: Arc::new(deliver),
        }
    }

    /// A deferred slot wired to a channel — the unit-test transport.
    #[must_use]
    pub fn channel() -> (Deferred, mpsc::Receiver<Response>) {
        let (tx, rx) = mpsc::channel();
        (
            Deferred::new(move |response| {
                let _ = tx.send(response);
            }),
            rx,
        )
    }

    /// Delivers the response to whatever transport awaits it.
    pub fn deliver(&self, response: Response) {
        (self.deliver)(response);
    }
}

/// The standard JSON error body.
#[must_use]
pub fn error_body(msg: &str) -> String {
    format!("{{\"error\": \"{}\"}}\n", json::escape(msg))
}

/// One registered route.
struct Route<C> {
    method: &'static str,
    path: &'static str,
    /// Exact match on `path`, or prefix match (for `/object/<key>`).
    prefix: bool,
    handler: Handler<C>,
}

/// A method + path table mapping requests to typed handlers.
pub struct Router<C> {
    routes: Vec<Route<C>>,
}

impl<C> std::fmt::Debug for Router<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let routes: Vec<String> = self
            .routes
            .iter()
            .map(|r| format!("{} {}{}", r.method, r.path, if r.prefix { "*" } else { "" }))
            .collect();
        f.debug_struct("Router").field("routes", &routes).finish()
    }
}

impl<C> Default for Router<C> {
    fn default() -> Self {
        Router { routes: Vec::new() }
    }
}

impl<C> Router<C> {
    /// An empty router (every request answers 404).
    #[must_use]
    pub fn new() -> Router<C> {
        Router::default()
    }

    /// Registers an exact-path route.
    #[must_use]
    pub fn route(mut self, method: &'static str, path: &'static str, handler: Handler<C>) -> Self {
        self.routes.push(Route {
            method,
            path,
            prefix: false,
            handler,
        });
        self
    }

    /// Registers a prefix route (`path` is the prefix, e.g. `/object/`).
    /// Exact routes win over prefix routes regardless of registration
    /// order.
    #[must_use]
    pub fn route_prefix(
        mut self,
        method: &'static str,
        path: &'static str,
        handler: Handler<C>,
    ) -> Self {
        self.routes.push(Route {
            method,
            path,
            prefix: true,
            handler,
        });
        self
    }

    /// Dispatches one request; unmatched requests answer `404`.
    pub fn dispatch(&self, ctx: &C, request: &Request, deferred: &Deferred) -> Reply {
        let matching = |prefix_pass: bool| {
            self.routes.iter().find(|r| {
                r.prefix == prefix_pass
                    && r.method == request.method
                    && if r.prefix {
                        request.path.starts_with(r.path)
                    } else {
                        request.path == r.path
                    }
            })
        };
        match matching(false).or_else(|| matching(true)) {
            Some(route) => (route.handler)(ctx, request, deferred),
            None => Reply::Now(Response::json(
                404,
                error_body(&format!("no such endpoint {}", request.path)),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(_: &u32, _: &Request, _: &Deferred) -> Reply {
        Reply::Now(Response::json(200, "ok"))
    }

    fn echo_ctx(ctx: &u32, _: &Request, _: &Deferred) -> Reply {
        Reply::Now(Response::json(200, format!("{ctx}")))
    }

    fn object(_: &u32, req: &Request, _: &Deferred) -> Reply {
        Reply::Now(Response::json(200, req.path.clone()))
    }

    fn later(_: &u32, _: &Request, deferred: &Deferred) -> Reply {
        let deferred = deferred.clone();
        std::thread::spawn(move || deferred.deliver(Response::json(200, "eventually")));
        Reply::Later
    }

    fn body(reply: &Reply) -> String {
        match reply {
            Reply::Now(r) => String::from_utf8(r.body.clone()).unwrap(),
            Reply::Later => panic!("expected an immediate reply"),
        }
    }

    fn router() -> Router<u32> {
        Router::new()
            .route("GET", "/healthz", ok)
            .route("GET", "/ctx", echo_ctx)
            .route("POST", "/later", later)
            .route_prefix("GET", "/object/", object)
    }

    #[test]
    fn routes_dispatch_by_method_and_path_without_sockets() {
        let (deferred, _rx) = Deferred::channel();
        let r = router();
        assert_eq!(
            body(&r.dispatch(&7, &Request::new("GET", "/healthz"), &deferred)),
            "ok"
        );
        assert_eq!(
            body(&r.dispatch(&7, &Request::new("GET", "/ctx"), &deferred)),
            "7"
        );
        // Prefix routes see the full path.
        assert_eq!(
            body(&r.dispatch(&7, &Request::new("GET", "/object/00ff"), &deferred)),
            "/object/00ff"
        );
        // Wrong method on a known path, and an unknown path: 404.
        for req in [
            Request::new("PUT", "/healthz"),
            Request::new("GET", "/nope"),
        ] {
            let Reply::Now(resp) = r.dispatch(&7, &req, &deferred) else {
                panic!("404 must be immediate")
            };
            assert_eq!(resp.status, 404);
        }
    }

    #[test]
    fn head_and_body_split_lets_routes_pick_their_limit() {
        let head = |wire: &[u8]| match httpwire::parse_request_head(wire).unwrap() {
            httpwire::Parsed::Complete { head, .. } => head,
            httpwire::Parsed::NeedMore => panic!("head not parsed: {wire:?}"),
        };
        let put = head(b"PUT /object/abc HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY");
        assert_eq!(put.content_length, 4);
        assert_eq!(body_limit(&put), MAX_OBJECT_BYTES);
        // Every other route, a GET of the same path included, keeps
        // the JSON cap.
        for wire in [
            &b"POST /characterize HTTP/1.1\r\n\r\n"[..],
            b"GET /object/abc HTTP/1.1\r\n\r\n",
            b"PUT /stats HTTP/1.1\r\n\r\n",
        ] {
            assert_eq!(body_limit(&head(wire)), MAX_BODY_BYTES, "{wire:?}");
        }
    }

    #[test]
    fn deferred_replies_arrive_through_the_channel() {
        let (deferred, rx) = Deferred::channel();
        let r = router();
        let Reply::Later = r.dispatch(&7, &Request::new("POST", "/later"), &deferred) else {
            panic!("later route must suspend")
        };
        let resp = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("deferred response");
        assert_eq!(resp.body, b"eventually");
    }
}
