//! The charserve daemon: a typed router over the nonblocking reactor,
//! plus the hit / single-flight / worker-pool serving policy.
//!
//! Transport and policy are split across three layers:
//!
//! * [`crate::reactor`] owns every socket — epoll readiness, keep-alive
//!   and pipelining, header/idle deadlines, and the connection-count
//!   admission gate (`429` + `Retry-After` beyond
//!   [`ServeConfig::max_connections`]).
//! * [`crate::router`] maps `(method, path)` to typed handlers
//!   `fn(&Arc<Ctx>, &Request, &Deferred) -> Reply` — handlers compute
//!   values, never touch sockets, and unit-test as bare function calls.
//! * This module is the policy: the serving order for
//!   `POST /characterize`, the second admission gate
//!   ([`ServeConfig::max_pending`] bounds *pending computations*, not
//!   connections), and the `/stats`–`/metrics` accounting.
//!
//! Serving policy for `POST /characterize`, in order:
//!
//! 1. **Store hit** — a [`powerpruning::cache::RequestManifest`] stored
//!    under the request key answers immediately, without touching a
//!    pipeline (zero training epochs, zero simulated transitions).
//! 2. **Backpressure** — a request that would *lead* a new computation
//!    while [`ServeConfig::max_pending`] flights are already open gets
//!    `429` + `Retry-After`. Joining an open flight is always free — a
//!    duplicate costs nothing and is never throttled.
//! 3. **Single-flight** — the request joins the flight for its key: the
//!    first requester (leader) schedules the computation onto the
//!    bounded worker pool; every concurrent duplicate registers a
//!    completion callback on the same flight and shares the one result.
//!    The handler returns [`Reply::Later`]; the reactor parks the
//!    connection (no thread waits) until the flight's callback delivers
//!    the rendered response through the connection's [`Deferred`].
//! 4. **Compute** — the worker builds a pipeline over the **shared**
//!    cache ([`powerpruning::Pipeline::with_shared_cache`]) and serves
//!    the request through the exact lookup → compute → store path the
//!    standalone pipeline uses, so per-stage artifacts warmed by other
//!    tools (e.g. `charstore warm`) are honored and newly computed ones
//!    are visible to them.

use crate::json::{self, JsonValue};
use crate::pool::WorkerPool;
use crate::reactor::{Reactor, ReactorConfig, Service, RETRY_AFTER_SECS};
use crate::router::{self, error_body, Deferred, Reply, Request, Router};
use crate::singleflight::{FlightBoard, Joined};
use charstore::Digest128;
use httpwire::{RequestHead, Response};
use obs::metrics::InstanceCounter;
use powerpruning::cache::CharacterizationRun;
use powerpruning::{CharCache, NetworkKind, Pipeline, PipelineConfig, Scale};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, LazyLock};
use std::time::Duration;

/// Configuration of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:7878`; port 0 picks an ephemeral one).
    pub addr: String,
    /// Worker threads for characterization misses.
    pub workers: usize,
    /// Root of the shared artifact store.
    pub store_dir: PathBuf,
    /// Live-connection cap; arrivals beyond it answer `429` and close.
    pub max_connections: usize,
    /// Pending-computation cap: a `POST /characterize` that would lead
    /// a **new** flight while this many are open answers `429` +
    /// `Retry-After`. Joining an open flight is never throttled.
    pub max_pending: usize,
    /// Deadline for a partially-received request to finish arriving
    /// (the slowloris bound; expiry answers `408`).
    pub header_timeout: Duration,
    /// How long an idle keep-alive connection may sit between requests
    /// before the daemon closes it.
    pub idle_timeout: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 2,
            store_dir: PathBuf::from(powerpruning::cache::DEFAULT_CACHE_DIR),
            max_connections: 256,
            max_pending: 32,
            header_timeout: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(60),
        }
    }
}

/// Request-level counters exposed by `GET /stats`. Each also feeds the
/// process-wide `charserve_*_total` registry counter on `/metrics`;
/// `/stats` reads this daemon's own counts, which stay exact when
/// several daemons share a process.
#[derive(Debug)]
struct Stats {
    /// `POST /characterize` requests accepted.
    requests: InstanceCounter,
    /// Requests answered straight from a stored manifest.
    hits: InstanceCounter,
    /// Requests that led a computation (one per unique missing key).
    misses: InstanceCounter,
    /// Requests that waited on another request's computation.
    deduped: InstanceCounter,
    /// `GET /object/…` requests answered with container bytes — the
    /// remote tier's hits, as seen from the serving side.
    object_hits: InstanceCounter,
    /// `GET /object/…` requests answered `404`.
    object_misses: InstanceCounter,
    /// `PUT /object/…` ingests accepted (validated and stored).
    object_publishes: InstanceCounter,
    /// Connections turned away at the door (`429`, over
    /// [`ServeConfig::max_connections`]).
    rejected: InstanceCounter,
    /// Characterize requests refused for pending-work backpressure
    /// (`429`, over [`ServeConfig::max_pending`]).
    throttled: InstanceCounter,
}

impl Stats {
    fn new() -> Stats {
        Stats {
            requests: InstanceCounter::new("charserve_requests_total"),
            hits: InstanceCounter::new("charserve_request_hits_total"),
            misses: InstanceCounter::new("charserve_request_misses_total"),
            deduped: InstanceCounter::new("charserve_request_deduped_total"),
            object_hits: InstanceCounter::new("charserve_object_hits_total"),
            object_misses: InstanceCounter::new("charserve_object_misses_total"),
            object_publishes: InstanceCounter::new("charserve_object_publishes_total"),
            rejected: InstanceCounter::new("charserve_rejected_total"),
            throttled: InstanceCounter::new("charserve_throttled_total"),
        }
    }
}

/// Wall time per handled request, parse to response, any route.
static REQUEST_SECONDS: LazyLock<obs::metrics::Histogram> = LazyLock::new(|| {
    obs::metrics::histogram("charserve_request_seconds", obs::metrics::LATENCY_SECONDS)
});

/// The daemon's shared context — everything a route handler can reach.
struct Ctx {
    cache: Arc<CharCache>,
    flights: FlightBoard<CharacterizationRun>,
    pool: WorkerPool,
    stats: Stats,
    shutdown: AtomicBool,
    addr: SocketAddr,
    store_dir: String,
    max_pending: usize,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("addr", &self.addr)
            .field("store_dir", &self.store_dir)
            .finish_non_exhaustive()
    }
}

/// The daemon. [`Server::bind`] opens the listener (so the chosen port
/// is known immediately); [`Server::serve`] blocks until a
/// `POST /shutdown` arrives.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
    reactor: ReactorConfig,
}

impl Server {
    /// Opens the store and binds the listener.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the store or binding.
    pub fn bind(cfg: &ServeConfig) -> io::Result<Server> {
        // Eager registration: an idle daemon's `GET /metrics` must
        // already expose the full counter set at zero, including the
        // simulator counters no request has touched yet. The request
        // counters register with `Stats::new` below and the store's
        // when `CharCache::open` builds it.
        LazyLock::force(&REQUEST_SECONDS);
        gatesim::register_metrics();
        let cache = Arc::new(CharCache::open(&cfg.store_dir)?);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        obs::info!(
            "charserve",
            "listening on {}, {} workers, store {}, {} connections / {} pending max",
            addr,
            cfg.workers,
            cfg.store_dir.display(),
            cfg.max_connections,
            cfg.max_pending
        );
        Ok(Server {
            listener,
            ctx: Arc::new(Ctx {
                cache,
                flights: FlightBoard::new(),
                pool: WorkerPool::new(cfg.workers),
                stats: Stats::new(),
                shutdown: AtomicBool::new(false),
                addr,
                store_dir: cfg.store_dir.display().to_string(),
                max_pending: cfg.max_pending,
            }),
            reactor: ReactorConfig {
                max_connections: cfg.max_connections,
                header_timeout: cfg.header_timeout,
                idle_timeout: cfg.idle_timeout,
            },
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.addr
    }

    /// Runs the reactor until shutdown. The drain order guarantees a
    /// waiter that spent minutes on a computation never gets its
    /// connection cut by process exit: the reactor keeps suspended
    /// connections alive until their flights deliver, and the worker
    /// pool (still running underneath it) is joined only after the
    /// reactor has returned.
    ///
    /// # Errors
    ///
    /// Returns any `epoll_wait` error from the event loop itself
    /// (per-connection errors are answered with 4xx/5xx or dropped and
    /// never stop the daemon).
    pub fn serve(self) -> io::Result<()> {
        let service = Arc::new(ServeService {
            ctx: Arc::clone(&self.ctx),
            router: build_router(),
        });
        Reactor::new(self.listener, service, self.reactor)?.run()?;
        obs::info!("charserve", "shutdown: draining worker pool");
        self.ctx.pool.shutdown();
        Ok(())
    }
}

/// The glue between the transport and the routes: the reactor calls
/// these per-request hooks, the router picks the handler.
struct ServeService {
    ctx: Arc<Ctx>,
    router: Router<Arc<Ctx>>,
}

impl Service for ServeService {
    fn body_limit(&self, head: &RequestHead) -> usize {
        router::body_limit(head)
    }

    fn handle(&self, request: &Request, deferred: &Deferred) -> Reply {
        self.router.dispatch(&self.ctx, request, deferred)
    }

    fn shutdown_requested(&self) -> bool {
        self.ctx.shutdown.load(Ordering::Acquire)
    }

    fn on_rejected(&self) {
        self.ctx.stats.rejected.inc();
    }

    fn on_request_done(&self, elapsed: Duration) {
        REQUEST_SECONDS.observe_duration(elapsed);
    }
}

fn build_router() -> Router<Arc<Ctx>> {
    Router::new()
        .route("GET", "/healthz", handle_healthz)
        .route("GET", "/stats", handle_stats)
        .route("GET", "/metrics", handle_metrics)
        .route("GET", "/trace", handle_trace)
        .route("POST", "/characterize", handle_characterize)
        .route("POST", "/shutdown", handle_shutdown)
        .route_prefix("GET", "/object/", handle_object_get)
        .route_prefix("PUT", "/object/", handle_object_put)
}

fn handle_healthz(ctx: &Arc<Ctx>, _request: &Request, _deferred: &Deferred) -> Reply {
    Reply::Now(Response::json(
        200,
        format!(
            "{{\"status\": \"ok\", \"store\": \"{}\", \"workers\": {}}}\n",
            json::escape(&ctx.store_dir),
            ctx.pool.size()
        ),
    ))
}

fn handle_stats(ctx: &Arc<Ctx>, _request: &Request, _deferred: &Deferred) -> Reply {
    Reply::Now(Response::json(200, render_stats(ctx)))
}

fn handle_metrics(_ctx: &Arc<Ctx>, _request: &Request, _deferred: &Deferred) -> Reply {
    Reply::Now(Response::bytes(
        200,
        "text/plain; version=0.0.4",
        obs::metrics::render_prometheus().into_bytes(),
    ))
}

fn handle_trace(_ctx: &Arc<Ctx>, _request: &Request, _deferred: &Deferred) -> Reply {
    Reply::Now(Response::bytes(
        200,
        "application/json",
        obs::trace::trace_json().into_bytes(),
    ))
}

fn handle_shutdown(ctx: &Arc<Ctx>, _request: &Request, _deferred: &Deferred) -> Reply {
    // The reactor polls the flag right after this response is queued —
    // no accept-loop poke needed, the event that delivered this request
    // already woke it.
    ctx.shutdown.store(true, Ordering::Release);
    Reply::Now(Response::json(200, "{\"status\": \"shutting down\"}\n"))
}

fn render_stats(ctx: &Ctx) -> String {
    let s = &ctx.stats;
    let store = ctx.cache.store().counters();
    format!(
        concat!(
            "{{\n",
            "  \"service\": \"charserve\",\n",
            "  \"requests\": {},\n",
            "  \"request_hits\": {},\n",
            "  \"request_misses\": {},\n",
            "  \"request_deduped\": {},\n",
            "  \"object_hits\": {},\n",
            "  \"object_misses\": {},\n",
            "  \"object_publishes\": {},\n",
            "  \"rejected\": {},\n",
            "  \"throttled\": {},\n",
            "  \"retrain_hits\": {},\n",
            "  \"retrain_misses\": {},\n",
            "  \"inflight\": {},\n",
            "  \"workers\": {},\n",
            "  \"store\": {{\"mem_hits\": {}, \"disk_hits\": {}, \"misses\": {}, \"puts\": {}}}\n",
            "}}\n"
        ),
        s.requests.get(),
        s.hits.get(),
        s.misses.get(),
        s.deduped.get(),
        s.object_hits.get(),
        s.object_misses.get(),
        s.object_publishes.get(),
        s.rejected.get(),
        s.throttled.get(),
        obs::metrics::counter_value("charcache_retrain_hits_total").unwrap_or(0),
        obs::metrics::counter_value("charcache_retrain_misses_total").unwrap_or(0),
        ctx.flights.inflight(),
        ctx.pool.size(),
        store.mem_hits,
        store.disk_hits,
        store.misses,
        store.puts,
    )
}

/// Parses the `<32-hex-key>` tail of an `/object/` path.
fn object_key(path: &str) -> Option<Digest128> {
    path.strip_prefix("/object/").and_then(Digest128::from_hex)
}

/// `GET /object/<key>`: the raw checksummed container bytes. The bytes
/// are served as stored, **without** a server-side decode — the
/// whole-file checksum travels inside the container and the client
/// re-validates it, so a corrupt stored object degrades to a miss at
/// the requesting worker instead of costing this daemon a decode per
/// serve.
fn handle_object_get(ctx: &Arc<Ctx>, request: &Request, _deferred: &Deferred) -> Reply {
    let Some(key) = object_key(&request.path) else {
        return Reply::Now(Response::json(
            400,
            error_body("object path must be /object/<32-hex-key>"),
        ));
    };
    Reply::Now(match ctx.cache.store().get_encoded(key) {
        Some(bytes) => {
            ctx.stats.object_hits.inc();
            Response::bytes(200, "application/octet-stream", bytes)
        }
        None => {
            ctx.stats.object_misses.inc();
            Response::json(404, error_body(&format!("no object {key}")))
        }
    })
}

/// `PUT /object/<key>`: validates the container (every checksum, every
/// bound) and ingests it through the store's atomic put path. A corrupt
/// or oversized payload is a client error — it can never poison the
/// store.
fn handle_object_put(ctx: &Arc<Ctx>, request: &Request, _deferred: &Deferred) -> Reply {
    let Some(key) = object_key(&request.path) else {
        return Reply::Now(Response::json(
            400,
            error_body("object path must be /object/<32-hex-key>"),
        ));
    };
    // `put_encoded` validates every checksum before the atomic ingest
    // and stores the received bytes as-is — no re-encode of a buffer
    // already in hand. A failed validation is the client's fault.
    Reply::Now(match ctx.cache.store().put_encoded(key, &request.body) {
        Ok(()) => {
            ctx.stats.object_publishes.inc();
            Response::json(200, "{\"status\": \"stored\"}\n")
        }
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            Response::json(400, error_body(&format!("corrupt object payload: {e}")))
        }
        Err(e) => Response::json(500, error_body(&format!("object store failed: {e}"))),
    })
}

/// Parses the request body into a pipeline configuration and network.
/// An empty body means "Micro LeNet-5 at the default seed".
fn parse_characterize(body: &str) -> Result<(PipelineConfig, NetworkKind), String> {
    let parsed = if body.trim().is_empty() {
        JsonValue::Object(Vec::new())
    } else {
        json::parse(body)?
    };
    let scale = match parsed.get("scale").and_then(JsonValue::as_str) {
        None => Scale::Micro,
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "micro" => Scale::Micro,
            "mini" => Scale::Mini,
            "full" => Scale::Full,
            other => return Err(format!("unknown scale `{other}` (micro | mini | full)")),
        },
    };
    let kind = match parsed.get("network").and_then(JsonValue::as_str) {
        None => NetworkKind::LeNet5,
        Some(s) => match s.to_ascii_lowercase().as_str() {
            "lenet5" => NetworkKind::LeNet5,
            "resnet20" => NetworkKind::ResNet20,
            "resnet50" => NetworkKind::ResNet50,
            "efficientnet" | "efficientnetlite" => NetworkKind::EfficientNetLite,
            other => {
                return Err(format!(
                    "unknown network `{other}` (lenet5 | resnet20 | resnet50 | efficientnet)"
                ))
            }
        },
    };
    let mut cfg = PipelineConfig::for_scale(scale);
    if let Some(seed) = parsed.get("seed") {
        cfg.seed = seed
            .as_u64()
            .ok_or_else(|| "seed must be a non-negative integer up to 2^53".to_string())?;
    }
    Ok((cfg, kind))
}

fn scale_token(scale: Scale) -> &'static str {
    match scale {
        Scale::Micro => "micro",
        Scale::Mini => "mini",
        Scale::Full => "full",
    }
}

fn network_token(kind: NetworkKind) -> &'static str {
    match kind {
        NetworkKind::LeNet5 => "lenet5",
        NetworkKind::ResNet20 => "resnet20",
        NetworkKind::ResNet50 => "resnet50",
        NetworkKind::EfficientNetLite => "efficientnet",
    }
}

fn render_run(
    cfg: &PipelineConfig,
    kind: NetworkKind,
    run: &CharacterizationRun,
    deduped: bool,
) -> String {
    let m = &run.manifest;
    format!(
        concat!(
            "{{\n",
            "  \"request_key\": \"{}\",\n",
            "  \"scale\": \"{}\",\n",
            "  \"network\": \"{}\",\n",
            "  \"seed\": {},\n",
            "  \"store_hit\": {},\n",
            "  \"deduped\": {},\n",
            "  \"accuracy\": {:.6},\n",
            "  \"captures\": {},\n",
            "  \"power_codes\": {},\n",
            "  \"training_epochs\": {},\n",
            "  \"sim_transitions\": {},\n",
            "  \"artifacts\": {{\"training\": \"{}\", \"capture\": \"{}\", ",
            "\"characterization\": \"{}\", \"timing\": \"{}\"}}\n",
            "}}\n"
        ),
        run.request_key,
        scale_token(cfg.scale),
        network_token(kind),
        cfg.seed,
        run.manifest_hit,
        deduped,
        m.accuracy,
        m.captures,
        m.power_codes,
        run.training_epochs,
        run.sim_transitions,
        m.training,
        m.capture,
        m.characterization,
        m.timing,
    )
}

fn handle_characterize(ctx: &Arc<Ctx>, request: &Request, deferred: &Deferred) -> Reply {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return Reply::Now(Response::json(
            400,
            error_body("characterize body is not UTF-8"),
        ));
    };
    let (cfg, kind) = match parse_characterize(body) {
        Ok(parsed) => parsed,
        Err(e) => return Reply::Now(Response::json(400, error_body(&e))),
    };
    ctx.stats.requests.inc();
    let key = powerpruning::cache::request_key(&cfg, kind);

    // 1. Store hit: a stored manifest answers without any pipeline.
    if let Some(manifest) = ctx.cache.lookup_manifest(key) {
        ctx.stats.hits.inc();
        let run = CharacterizationRun {
            request_key: key,
            manifest,
            manifest_hit: true,
            training_epochs: 0,
            sim_transitions: 0,
        };
        return Reply::Now(Response::json(200, render_run(&cfg, kind, &run, false)));
    }

    // 2. Backpressure: leading a NEW computation is subject to the
    //    pending-work cap; joining an open flight costs nothing and is
    //    always admitted. Only the reactor thread creates flights, so
    //    the contains/join pair cannot race with another admitter.
    if !ctx.flights.contains(key) && ctx.flights.inflight() >= ctx.max_pending {
        ctx.stats.throttled.inc();
        return Reply::Now(Response::too_many_requests(
            RETRY_AFTER_SECS,
            error_body("server is at its pending-computation limit, try again shortly"),
        ));
    }

    // 3. Single-flight: register this connection's delivery on the
    //    flight for the key, leading it if absent. The callback runs on
    //    whichever pool thread completes the flight; the reactor keeps
    //    the connection parked until the delivery lands.
    let delivery = deferred.clone();
    let role = ctx.flights.join(key, move |value, deduped| {
        delivery.deliver(match value.as_ref() {
            Ok(run) => Response::json(200, render_run(&cfg, kind, run, deduped)),
            Err(e) => {
                obs::error!("charserve", "characterization for key {key} failed: {e}");
                Response::json(500, error_body(e))
            }
        });
    });
    match role {
        Joined::Leader => {
            ctx.stats.misses.inc();
            // The worker re-runs the same code path the standalone
            // pipeline uses; stage-level warm artifacts still hit.
            // The request's trace re-enters scope on the pool thread,
            // so the pipeline's stage spans and the store's remote
            // fetches stay under the one trace the client saw.
            let job_ctx = Arc::clone(ctx);
            let job_trace = obs::current_trace();
            let submitted = ctx.pool.submit(move || {
                let job = || {
                    let cache = Arc::clone(&job_ctx.cache);
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        Pipeline::with_shared_cache(cfg, cache).characterization_request(kind)
                    }))
                    .map_err(|panic| {
                        let msg = panic
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_string())
                            .or_else(|| panic.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "worker panicked".to_string());
                        format!("characterization failed: {msg}")
                    });
                    job_ctx.flights.complete(key, result);
                };
                match job_trace {
                    Some(trace) => obs::with_trace(trace, job),
                    None => job(),
                }
            });
            if let Err(e) = submitted {
                ctx.flights.complete(key, Err(e));
            }
        }
        Joined::Waiter => {
            ctx.stats.deduped.inc();
        }
    }
    Reply::Later
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use charstore::{container, digest_bytes, RemoteTier, Section};
    use httpwire::{ClientConfig, HttpConnection, RequestSpec};
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::atomic::AtomicU64;

    /// Reads one response: `(status, body)`.
    fn read(conn: &mut HttpConnection) -> (u16, String) {
        let (head, body) = conn.read_response(router::MAX_BODY_BYTES).unwrap();
        (head.status, String::from_utf8(body).unwrap())
    }

    fn u64_field(v: &JsonValue, name: &str) -> u64 {
        v.get(name)
            .and_then(JsonValue::as_u64)
            .unwrap_or_else(|| panic!("missing numeric field `{name}` in {v:?}"))
    }

    fn boot_with(
        tweak: impl FnOnce(&mut ServeConfig),
    ) -> (PathBuf, String, std::thread::JoinHandle<()>) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "charserve-server-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            store_dir: dir.clone(),
            ..ServeConfig::default()
        };
        tweak(&mut cfg);
        let server = Server::bind(&cfg).expect("bind charserve");
        let addr = server.local_addr().to_string();
        let daemon = std::thread::spawn(move || server.serve().expect("serve"));
        (dir, addr, daemon)
    }

    fn boot() -> (PathBuf, String, std::thread::JoinHandle<()>) {
        boot_with(|_| ())
    }

    /// The satellite regression: a client killed mid-request must be
    /// logged-and-dropped by the reactor — the daemon keeps accepting
    /// and `/healthz` still answers.
    #[test]
    fn mid_request_disconnects_do_not_stop_the_daemon() {
        let (dir, addr, daemon) = boot();
        let client = Client::new(&addr);

        // Killed mid-body: the declared 64 bytes never arrive.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"POST /characterize HTTP/1.1\r\nContent-Length: 64\r\n\r\nhalf")
            .unwrap();
        s.flush().unwrap();
        drop(s);
        // Killed mid-request-line.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET /healthz HTT").unwrap();
        drop(s);
        // Killed mid-headers.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"PUT /object/00 HTTP/1.1\r\nContent-Len")
            .unwrap();
        drop(s);

        client
            .healthz()
            .expect("daemon stopped answering after mid-request disconnects");

        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// `GET /metrics` serves the process-wide registry in Prometheus
    /// text form (request, store-tier and simulator families all
    /// registered at bind), and a client-sent `X-Trace-Id` is adopted:
    /// echoed on the response and stamped on the recorded spans.
    #[test]
    fn metrics_endpoint_serves_registry_and_traces_are_adopted() {
        let (dir, addr, daemon) = boot();
        let client = Client::new(&addr);

        let metrics = client.metrics().expect("GET /metrics");
        for family in [
            "# TYPE charserve_requests_total counter",
            "# TYPE charserve_request_seconds histogram",
            "# TYPE charserve_rejected_total counter",
            "# TYPE charserve_throttled_total counter",
            "charstore_remote_hits_total",
            "charstore_mem_hits_total",
            "gatesim_sim_transitions_total",
        ] {
            assert!(
                metrics.contains(family),
                "missing `{family}` in:\n{metrics}"
            );
        }

        // Hand-rolled request so we control the X-Trace-Id header. The
        // explicit `Connection: close` makes read_to_string terminate.
        let trace = obs::TraceId::generate();
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(
            format!("GET /healthz HTTP/1.1\r\nX-Trace-Id: {trace}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .unwrap();
        s.flush().unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(
            raw.contains(&format!("X-Trace-Id: {trace}")),
            "adopted trace not echoed on the response:\n{raw}"
        );
        let (spans, _) = obs::trace::snapshot();
        assert!(
            spans
                .iter()
                .any(|s| s.trace == trace.0 && s.name == "http_request"),
            "no http_request span recorded under trace {trace}"
        );

        // The trace dump endpoint returns chrome://tracing JSON.
        let dump = client.trace_dump().expect("GET /trace");
        assert!(dump.starts_with("{"), "not a JSON object: {dump}");
        assert!(dump.contains("\"traceEvents\""));

        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Object endpoints: publish/fetch round-trips bit-identical bytes,
    /// misses are 404s, corrupt payloads and bad keys are client
    /// errors, oversized declarations are 413s — and `/stats` accounts
    /// for all of it.
    #[test]
    fn object_endpoints_serve_validate_and_count() {
        let (dir, addr, daemon) = boot();
        let client = Client::new(&addr);
        let tier = RemoteTier::new(&addr);
        let key = digest_bytes("server-test", b"obj");

        // Miss before anything is stored.
        assert_eq!(tier.fetch(key).unwrap(), None);

        // Publish a valid container; fetch returns the exact bytes.
        let sections = vec![
            Section::new(3, vec![7u8; 128]),
            Section::new(9, vec![1, 2, 3]),
        ];
        let encoded = container::encode(&sections);
        tier.publish(key, &encoded).unwrap();
        assert_eq!(tier.fetch(key).unwrap(), Some(encoded.clone()));

        // A corrupt payload is rejected (400) and never stored.
        let key2 = digest_bytes("server-test", b"obj2");
        let mut bad = encoded.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x01;
        assert!(tier.publish(key2, &bad).is_err());
        assert_eq!(tier.fetch(key2).unwrap(), None);

        // A non-hex key is a 400.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET /object/nothex HTTP/1.1\r\n\r\n").unwrap();
        s.flush().unwrap();
        assert_eq!(read(&mut HttpConnection::from(s)).0, 400);

        // An oversized declared body is a 413 — rejected before any
        // allocation, even on the object route's generous limit.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(
            format!(
                "PUT /object/{key} HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                router::MAX_OBJECT_BYTES + 1
            )
            .as_bytes(),
        )
        .unwrap();
        s.flush().unwrap();
        assert_eq!(read(&mut HttpConnection::from(s)).0, 413);
        // …while the same declaration on a JSON route also 413s at the
        // much lower JSON cap.
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(
            format!(
                "POST /characterize HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                router::MAX_BODY_BYTES + 1
            )
            .as_bytes(),
        )
        .unwrap();
        s.flush().unwrap();
        assert_eq!(read(&mut HttpConnection::from(s)).0, 413);

        let stats = json::parse(&client.stats().unwrap()).unwrap();
        assert_eq!(u64_field(&stats, "object_hits"), 1);
        assert_eq!(u64_field(&stats, "object_misses"), 2);
        assert_eq!(u64_field(&stats, "object_publishes"), 1);

        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Pipelined requests on one keep-alive connection answer in
    /// request order, and each response can be read back individually.
    #[test]
    fn keep_alive_pipelining_answers_in_order() {
        let (dir, addr, daemon) = boot();
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(
            b"GET /healthz HTTP/1.1\r\n\r\n\
              GET /nope HTTP/1.1\r\n\r\n\
              GET /stats HTTP/1.1\r\n\r\n",
        )
        .unwrap();
        s.flush().unwrap();
        let mut conn = HttpConnection::from(s);
        let (status, body) = read(&mut conn);
        assert_eq!(status, 200);
        assert!(body.contains("\"status\": \"ok\""), "not healthz: {body}");
        assert_eq!(read(&mut conn).0, 404);
        let (status, body) = read(&mut conn);
        assert_eq!(status, 200);
        assert!(
            body.contains("\"service\": \"charserve\""),
            "not stats: {body}"
        );
        drop(conn);

        let client = Client::new(&addr);
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// With the pending-computation cap at zero, a cold characterize is
    /// throttled with `429` + `Retry-After` while cheap endpoints keep
    /// answering — and `/stats` accounts for the refusal.
    #[test]
    fn cold_characterize_is_throttled_at_the_pending_cap() {
        let (dir, addr, daemon) = boot_with(|cfg| cfg.max_pending = 0);
        let client = Client::new(&addr);

        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(
            b"POST /characterize HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )
        .unwrap();
        s.flush().unwrap();
        let mut raw = String::new();
        s.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 429 "),
            "expected a 429 throttle:\n{raw}"
        );
        assert!(
            raw.contains(&format!("Retry-After: {RETRY_AFTER_SECS}")),
            "throttle response must advertise Retry-After:\n{raw}"
        );

        client.healthz().expect("healthz under throttle");
        let stats = json::parse(&client.stats().unwrap()).unwrap();
        assert_eq!(u64_field(&stats, "requests"), 1);
        assert_eq!(u64_field(&stats, "throttled"), 1);
        assert_eq!(u64_field(&stats, "request_misses"), 0);

        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Connections beyond `max_connections` are turned away with `429`
    /// while admitted connections keep being served.
    #[test]
    fn excess_connections_are_rejected_with_429() {
        let (dir, addr, daemon) = boot_with(|cfg| cfg.max_connections = 1);

        // Fill the one slot with a live keep-alive connection.
        let mut held = HttpConnection::connect(&addr, &ClientConfig::default()).unwrap();
        held.send(&RequestSpec::get("/healthz", router::MAX_BODY_BYTES))
            .unwrap();
        assert_eq!(read(&mut held).0, 200);

        // The next arrival is told to back off…
        let mut over = TcpStream::connect(&addr).unwrap();
        let mut raw = String::new();
        over.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 429 "),
            "expected a 429 rejection:\n{raw}"
        );

        // …while the admitted connection still answers, and counts it.
        held.send(&RequestSpec::get("/stats", router::MAX_BODY_BYTES))
            .unwrap();
        let (status, body) = read(&mut held);
        assert_eq!(status, 200);
        let stats = json::parse(&body).unwrap();
        assert_eq!(u64_field(&stats, "rejected"), 1);
        drop(held);

        // The freed slot admits the shutdown request (allow a beat for
        // the reactor to observe the close).
        let client = Client::new(&addr);
        let mut last = Err("never tried".to_string());
        for _ in 0..50 {
            last = client.shutdown();
            if last.is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        last.expect("shutdown after slot freed");
        daemon.join().expect("daemon thread");
        let _ = std::fs::remove_dir_all(dir);
    }
}
