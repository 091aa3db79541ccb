//! `warm_serve`: a closed loop of one keep-alive client against an
//! in-process daemon whose store set-up warmed with a set of distinct
//! Micro request manifests. Every request is a manifest hit: the
//! reactor, `httpwire` and the store's memory tier, with no training
//! and no simulation.

use super::{micro_request, Daemon};
use crate::check::Digest;
use crate::layers;
use crate::tracing::Tracer;
use crate::window::Window;
use crate::work::{timed, Opts, Outcome, Stream};
use httpwire::{ClientConfig, HttpClient, RequestSpec};
use std::time::{Duration, Instant};

/// Set-ups per run (`setup_s` is their median); each boots and warms a
/// daemon.
const SETUPS: usize = 3;

/// Distinct request keys the store is warmed with.
const KEYS: usize = 8;

/// Threads that warm the keys in set-up, keeping both of the daemon's
/// workers busy.
const WARMERS: usize = 2;

/// How often the traced pass drains the span ring: a few spans per
/// request at tens of thousands of requests a second stays well under
/// the ring's 4,096 slots.
const HARVEST_EVERY: Duration = Duration::from_millis(20);

/// A warmed daemon and, per key, the request body and the exact
/// response a warm hit must return.
struct Fixture {
    daemon: Daemon,
    keys: Vec<(String, Vec<u8>)>,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let daemon = Daemon::boot("serve")?;
    let mut stream = Stream::new(seed, 0);
    let bodies: Vec<String> = (0..KEYS)
        .map(|_| micro_request(stream.next_u64()))
        .collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = bodies
            .chunks(KEYS / WARMERS)
            .map(|chunk| {
                let client = daemon.client.clone();
                s.spawn(move || {
                    chunk
                        .iter()
                        .try_for_each(|b| client.characterize(b).map(drop))
                })
            })
            .collect();
        workers.into_iter().try_for_each(|w| {
            w.join()
                .map_err(|_| "warming client panicked".to_string())?
        })
    })?;
    let keys = bodies
        .into_iter()
        .map(|b| {
            let warm = daemon.client.characterize(&b)?;
            if !warm.contains("\"store_hit\": true") {
                return Err(format!("a warmed key missed the store: {warm}"));
            }
            Ok((b, warm.into_bytes()))
        })
        .collect::<Result<_, String>>()?;
    Ok(Fixture { daemon, keys })
}

pub fn run(opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let mut fixtures = Vec::new();
    for _ in 0..SETUPS {
        fixtures.push(timed(&mut out.setup_s, || setup(opts.seed))?);
    }
    let fx = fixtures.pop().expect("SETUPS > 0");
    for spare in fixtures {
        spare.daemon.stop()?;
    }

    let w0 = Window::now();
    let (e0, t0) = (nn::train::epochs_run(), gatesim::sim_transitions());
    let pass = closed_loop(&fx, opts, None, out);
    let w = Window::now().since(&w0);
    out.digest = digest(&fx, &w, e0, t0, out);
    out.gaps_s = pass.gaps_s;
    out.ops_s = pass.latencies_s;

    if opts.trace {
        let mut tracer = Tracer::start();
        let w0 = Window::now();
        let (e0, t0) = (nn::train::epochs_run(), gatesim::sim_transitions());
        let pass = closed_loop(&fx, opts, Some(&mut tracer), out);
        tracer.harvest();
        let w = Window::now().since(&w0);
        out.traced_digest = digest(&fx, &w, e0, t0, out);
        let ops = pass.latencies_s.len() as f64;
        layers::common(
            out,
            &tracer,
            &w,
            nn::train::epochs_run() - e0,
            gatesim::sim_transitions() - t0,
            ops,
        );
        out.traced_ops_s = pass.latencies_s;
    }
    fx.daemon.stop()
}

/// Checks a window's accounting (every request a store hit, no work)
/// and digests the warm responses with the window's work counts.
fn digest(fx: &Fixture, w: &Window, e0: u64, t0: u64, out: &mut Outcome) -> String {
    let epochs = nn::train::epochs_run() - e0;
    let transitions = gatesim::sim_transitions() - t0;
    let t = &mut out.tally;
    t.same(
        "daemon request hits vs requests",
        w.value("charserve_request_hits_total"),
        w.value("charserve_requests_total"),
    );
    t.same(
        "daemon request-latency observations vs requests",
        w.hist_count("charserve_request_seconds"),
        w.value("charserve_requests_total"),
    );
    t.same("epochs while serving", epochs, 0);
    t.same("transitions while serving", transitions, 0);
    let mut d = Digest::default();
    for (body, warm) in &fx.keys {
        d.bytes(body.as_bytes()).bytes(warm);
    }
    d.u64(epochs).u64(transitions).hex()
}

struct Pass {
    latencies_s: Vec<f64>,
    /// Wall time between consecutive completions, in completion order.
    gaps_s: Vec<f64>,
}

/// Runs the closed loop for `opts.seconds` on the calling thread: one
/// client on one keep-alive connection sends its next request as soon
/// as the previous one is answered, picking keys from its seeded
/// stream. One client thread and the daemon's reactor fit a two-core
/// host; more client threads, or requests pipelined on the connection,
/// made throughput swing by a third from run to run. A response that is
/// not a 200 carrying the key's exact warm body counts as failed.
fn closed_loop(
    fx: &Fixture,
    opts: &Opts,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Pass {
    let http = HttpClient::new(&fx.daemon.addr, ClientConfig::default());
    let mut order = Stream::new(opts.seed, 1);
    let mut pass = Pass {
        latencies_s: Vec::with_capacity(1 << 20),
        gaps_s: Vec::with_capacity(1 << 20),
    };
    let (mut failed, mut first_failure) = (0u64, None);
    let window = Duration::from_secs_f64(opts.seconds);
    let began = Instant::now();
    let (mut last_done, mut last_harvest) = (began, began);
    while began.elapsed() < window {
        let (body, warm) = &fx.keys[order.below(fx.keys.len())];
        let spec = RequestSpec {
            method: "POST",
            path: "/characterize",
            content_type: "application/json",
            body: body.as_bytes(),
            trace: None,
            response_limit: 1 << 16,
            keep_alive: true,
        };
        let sent = Instant::now();
        let response = http.send(&spec);
        let done = Instant::now();
        match response {
            Ok(r) if r.status == 200 && r.body == *warm => {
                pass.latencies_s.push((done - sent).as_secs_f64());
                pass.gaps_s.push((done - last_done).as_secs_f64());
                last_done = done;
            }
            other => {
                failed += 1;
                first_failure.get_or_insert_with(|| match other {
                    Ok(r) => format!(
                        "status {} body {:?}",
                        r.status,
                        String::from_utf8_lossy(&r.body)
                    ),
                    Err(e) => format!("transport: {e}"),
                });
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            if last_harvest.elapsed() >= HARVEST_EVERY {
                t.harvest();
                last_harvest = Instant::now();
            }
        }
    }
    out.tally.attempted += pass.latencies_s.len() as u64 + failed;
    out.tally.failed += failed;
    if let Some(f) = first_failure {
        out.tally
            .failures
            .push(format!("request failed ({failed} times): {f}"));
    }
    pass
}
