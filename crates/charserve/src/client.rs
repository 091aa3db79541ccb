//! A small blocking client for the daemon — the engine behind
//! `charstore request`, the integration tests and the CI smoke job.
//!
//! Built on the shared [`httpwire::HttpClient`], so consecutive calls
//! reuse one keep-alive connection instead of dialing per request —
//! the same client core [`charstore::RemoteTier`] uses for the object
//! protocol.

use crate::router;
use httpwire::{ClientConfig, HttpClient, RequestSpec};
use std::time::Duration;

/// Default read timeout: characterizations at Mini/Full scale take
/// minutes, so the client waits generously rather than aborting a
/// computation the server will finish.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(3600);

/// A blocking keep-alive client bound to one daemon address. Clones
/// share the underlying connection pool.
#[derive(Debug, Clone)]
pub struct Client {
    http: HttpClient,
}

impl Client {
    /// A client for `addr` (`host:port`) with the default timeout.
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            http: HttpClient::new(
                &addr.into(),
                ClientConfig {
                    io_timeout: DEFAULT_TIMEOUT,
                    ..ClientConfig::default()
                },
            ),
        }
    }

    /// Overrides the read timeout (tests use short ones). Existing
    /// pooled connections are dropped; the next request re-dials.
    #[must_use]
    pub fn with_timeout(self, timeout: Duration) -> Client {
        Client {
            http: HttpClient::new(
                self.http.addr(),
                ClientConfig {
                    io_timeout: timeout,
                    ..ClientConfig::default()
                },
            ),
        }
    }

    /// One request/response round trip: `(status, body)`. Inside an
    /// [`obs::with_trace`] scope the request carries an `X-Trace-Id`
    /// header, which the daemon adopts — client-side spans and
    /// daemon-side spans land in the same trace.
    ///
    /// # Errors
    ///
    /// Returns a description on connect, I/O or framing failure.
    pub fn roundtrip(&self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let trace = obs::current_trace().map(|t| t.to_string());
        let response = self
            .http
            .send(&RequestSpec {
                method,
                path,
                content_type: "application/json",
                body: body.as_bytes(),
                trace: trace.as_deref(),
                response_limit: router::MAX_BODY_BYTES,
                keep_alive: true,
            })
            .map_err(|e| format!("cannot reach charserve at {}: {e}", self.http.addr()))?;
        String::from_utf8(response.body)
            .map(|body| (response.status, body))
            .map_err(|_| format!("{path} answered a non-UTF-8 body"))
    }

    fn expect_ok(&self, method: &str, path: &str, body: &str) -> Result<String, String> {
        match self.roundtrip(method, path, body)? {
            (200, body) => Ok(body),
            (status, body) => Err(format!("{path} answered {status}: {}", body.trim())),
        }
    }

    /// `GET /healthz`.
    ///
    /// # Errors
    ///
    /// Fails on any non-200 answer or transport error.
    pub fn healthz(&self) -> Result<String, String> {
        self.expect_ok("GET", "/healthz", "")
    }

    /// `GET /stats`.
    ///
    /// # Errors
    ///
    /// Fails on any non-200 answer or transport error.
    pub fn stats(&self) -> Result<String, String> {
        self.expect_ok("GET", "/stats", "")
    }

    /// `POST /characterize` with a raw JSON body (empty string for the
    /// server defaults).
    ///
    /// # Errors
    ///
    /// Fails on any non-200 answer or transport error.
    pub fn characterize(&self, body: &str) -> Result<String, String> {
        self.expect_ok("POST", "/characterize", body)
    }

    /// `GET /metrics` — the daemon's process-wide metrics registry in
    /// Prometheus text exposition format.
    ///
    /// # Errors
    ///
    /// Fails on any non-200 answer or transport error.
    pub fn metrics(&self) -> Result<String, String> {
        self.expect_ok("GET", "/metrics", "")
    }

    /// `GET /trace` — the daemon's recent spans as chrome://tracing
    /// JSON (load the dump via `about:tracing` or Perfetto).
    ///
    /// # Errors
    ///
    /// Fails on any non-200 answer or transport error.
    pub fn trace_dump(&self) -> Result<String, String> {
        self.expect_ok("GET", "/trace", "")
    }

    /// `POST /shutdown`.
    ///
    /// # Errors
    ///
    /// Fails on any non-200 answer or transport error.
    pub fn shutdown(&self) -> Result<String, String> {
        self.expect_ok("POST", "/shutdown", "")
    }
}
