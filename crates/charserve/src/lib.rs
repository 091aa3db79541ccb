//! The characterization service: a long-running daemon over the
//! [`charstore`] artifact store.
//!
//! PR 2–3 made every pipeline stage a pure, content-addressed function;
//! this crate is the "characterize once, serve millions" layer on top:
//! many clients share one warm store through a persistent server
//! instead of each warming their own.
//!
//! * [`reactor`] — the nonblocking event loop: **one** thread drives
//!   every connection through epoll (via the `polling` compat shim —
//!   no network dependencies, matching the offline compat-crate
//!   approach), with HTTP/1.1 keep-alive + pipelining, header/idle
//!   deadlines, and bounded admission (`429` + `Retry-After` past the
//!   connection cap).
//! * [`router`] — the typed route table: handlers are
//!   `fn(&Ctx, &Request, &Deferred) -> Reply` values that never touch
//!   a socket, so every route unit-tests as a bare function call.
//! * [`server`] — the policy layer: answers request hits straight from
//!   the shared [`charstore::Store`] and schedules misses onto a
//!   bounded worker-thread pool, suspending the connection
//!   ([`router::Reply::Later`]) instead of blocking a thread.
//! * [`singleflight`] — request deduplication: N concurrent requests
//!   for the same key run the expensive computation **once**; the
//!   other N−1 register completion callbacks on the leader's flight
//!   and share its result.
//! * [`pool`] — the bounded worker pool the leaders schedule onto.
//! * [`json`] — a small JSON reader for the wire format. The HTTP
//!   framing itself is the shared sans-IO [`httpwire`] core; the
//!   per-route body limits live in [`router`], and how the daemon
//!   answers framing violations on the wire is tested in `http`.
//! * [`client`] — a blocking keep-alive client (over
//!   [`httpwire::HttpClient`]) for the CLI (`charstore request`),
//!   tests and CI.
//!
//! Endpoints:
//!
//! | endpoint | answer |
//! |---|---|
//! | `GET /healthz` | liveness + store root |
//! | `GET /stats` | request hit/miss/dedup, object hit/miss/publish, inflight, worker and store counters |
//! | `POST /characterize` | scale + network + seed → artifact digests + provenance |
//! | `GET /object/<key>` | raw checksummed container bytes (404 on miss; the client re-checksums) |
//! | `PUT /object/<key>` | validated object ingest through the store's atomic put path |
//! | `POST /shutdown` | stops the accept loop after responding |
//!
//! The object endpoints are the serving side of the store's **remote
//! tier** ([`charstore::RemoteTier`]): a worker with an empty local
//! store pointed at a warmed daemon answers `get` misses over the wire
//! and write-through-publishes its own `put`s, so a fleet shares one
//! warm cache without a shared filesystem.
//!
//! A `POST /characterize` request is keyed by
//! [`powerpruning::cache::request_key`]; a repeat answered from the
//! stored manifest costs **zero training epochs and zero simulated
//! transitions** — the acceptance bar the `service-smoke` CI job
//! asserts end to end.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
#[cfg(test)]
mod http;
pub mod json;
pub mod pool;
pub mod reactor;
pub mod router;
pub mod server;
pub mod singleflight;

pub use client::Client;
pub use server::{ServeConfig, Server};
