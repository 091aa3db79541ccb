//! `remote_replay`: a fleet worker's cold start. Each replay opens an
//! empty local store whose remote tier is an in-process daemon holding
//! a warmed Micro request, then runs prepare, capture, characterize and
//! timing through it: four remote hits, each fetched, checksummed,
//! written to local disk and decoded.

use super::{config, micro_request, stage_outputs, Daemon, WIRE_SEED_MASK};
use crate::check::Digest;
use crate::layers;
use crate::tracing::Tracer;
use crate::window::Window;
use crate::work::{timed, Opts, Outcome, WorkDir};
use charserve::json::{self, JsonValue};
use charstore::{Digest128, Store};
use powerpruning::{NetworkKind, Pipeline, PipelineConfig, Scale};
use std::time::Instant;

/// Set-ups per run (`setup_s` is their median); each boots a daemon and
/// computes one Micro request.
const SETUPS: usize = 5;

const KIND: NetworkKind = NetworkKind::LeNet5;

/// Remote hits per replay: one per cacheable stage.
const STAGE_OBJECTS: u64 = 4;

/// Replays between full artifact comparisons and store verifies (the
/// first replay is always checked in full).
const FULL_CHECK_EVERY: usize = 16;

/// Replays a pass times at least, whatever `--seconds` says, so that
/// the p99 always has ten samples beyond it.
const MIN_REPLAYS: usize = 1000;

/// Untimed replay time before the measured pass: a process's first
/// replays grow its allocator and page cache, a one-off cost a
/// long-lived worker does not pay per replay.
const WARMUP_SECONDS: f64 = 0.1;

/// Replays between span harvests in the traced pass.
const HARVEST_EVERY: usize = 16;

const STAGE_SPANS: [&str; 4] = ["prepare", "capture", "characterize", "timing"];

/// A daemon holding one warmed request, and the container bytes of the
/// request's four stage objects as the daemon stores them.
struct Fixture {
    daemon: Daemon,
    objects: Vec<(Digest128, Vec<u8>)>,
}

fn setup(seed: u64) -> Result<Fixture, String> {
    let daemon = Daemon::boot("replay-daemon")?;
    let reply = daemon.client.characterize(&micro_request(seed))?;
    let parsed = json::parse(&reply)?;
    let artifacts = parsed.get("artifacts").ok_or("no artifacts in the reply")?;
    let store = Store::open(daemon.store_dir()).map_err(|e| format!("daemon store: {e}"))?;
    let objects = ["training", "capture", "characterization", "timing"]
        .iter()
        .map(|stage| {
            let key = artifacts
                .get(stage)
                .and_then(JsonValue::as_str)
                .and_then(Digest128::from_hex)
                .ok_or_else(|| format!("no {stage} key in the reply"))?;
            let bytes = store
                .get_encoded(key)
                .ok_or_else(|| format!("the daemon does not hold {stage} object {key}"))?;
            Ok((key, bytes))
        })
        .collect::<Result<_, String>>()?;
    Ok(Fixture { daemon, objects })
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
    let cfg = config(Scale::Micro, opts.seed & WIRE_SEED_MASK);

    let warm_digest = replays(&fx, cfg, (WARMUP_SECONDS, 1), &mut Vec::new(), None, out)?;
    let budget = (opts.seconds, MIN_REPLAYS);
    let mut ops = Vec::new();
    out.digest = replays(&fx, cfg, budget, &mut ops, None, out)?;
    out.tally.same("warm-up digest", &warm_digest, &out.digest);
    out.ops_s = ops;

    if opts.trace {
        let mut tracer = Tracer::start();
        let w0 = Window::now();
        let (e0, t0) = (nn::train::epochs_run(), gatesim::sim_transitions());
        let mut ops = Vec::new();
        out.traced_digest = replays(&fx, cfg, budget, &mut ops, Some(&mut tracer), out)?;
        tracer.harvest();
        let w = Window::now().since(&w0);
        let n = ops.len() as f64;
        layers::common(
            out,
            &tracer,
            &w,
            nn::train::epochs_run() - e0,
            gatesim::sim_transitions() - t0,
            n,
        );
        let decode: f64 = STAGE_SPANS.iter().map(|s| tracer.self_secs(s)).sum();
        out.layer("cache.decode_s", decode / n);
        out.traced_ops_s = ops;
    }
    fx.daemon.stop()
}

/// Replays until both `seconds` of replay time are spent and `min`
/// replays are timed, checking each against the daemon's objects.
/// Returns the digest of the decoded outputs and the per-replay work
/// counts.
fn replays(
    fx: &Fixture,
    cfg: PipelineConfig,
    (seconds, min): (f64, usize),
    ops: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
    out: &mut Outcome,
) -> Result<String, String> {
    let hits = || obs::metrics::counter_value("charstore_remote_hits_total").unwrap_or(0);
    let mut digest = String::new();
    let mut remote_bytes = 0u64;
    while ops.len() < min || ops.iter().sum::<f64>() < seconds {
        let local = WorkDir::new("replay")?;
        let (e0, t0, h0) = (nn::train::epochs_run(), gatesim::sim_transitions(), hits());
        let traced = tracer.is_some();
        let span = |name| traced.then(|| obs::span(name));
        let started = Instant::now();
        let p = Pipeline::with_cache_dir_remote(cfg, local.path(), Some(&fx.daemon.addr));
        let mut prepared = {
            let _s = span("bench_prepare");
            p.prepare(KIND)
        };
        let captures = {
            let _s = span("bench_capture");
            p.capture(&mut prepared)
        };
        let chars = {
            let _s = span("bench_characterize");
            p.characterize(&captures)
        };
        let timing = {
            let _s = span("bench_timing");
            p.characterize_timing(f64::MAX)
        };
        ops.push(started.elapsed().as_secs_f64());

        let counts = [
            nn::train::epochs_run() - e0,
            gatesim::sim_transitions() - t0,
            hits() - h0,
        ];
        let t = &mut out.tally;
        t.same(
            "replay [epochs, transitions, remote hits]",
            counts,
            [0, 0, STAGE_OBJECTS],
        );
        let mut d = Digest::default();
        stage_outputs(&mut d, prepared.accuracy, &chars.power_profile, &timing);
        for c in counts {
            d.u64(c);
        }
        let d = d.hex();
        if digest.is_empty() {
            digest = d;
        } else {
            t.same("replay digest repeats", &d, &digest);
        }
        let store = p.cache().ok_or("no local store opened")?.store();
        if traced {
            remote_bytes += store
                .disk_bytes()
                .map_err(|e| format!("local store: {e}"))?;
        }
        if (ops.len() - 1).is_multiple_of(FULL_CHECK_EVERY) {
            for (key, bytes) in &fx.objects {
                let local_bytes = store.get_encoded(*key);
                t.check(local_bytes.as_ref() == Some(bytes), || {
                    format!("local object {key} differs from the daemon's")
                });
            }
            let clean = store
                .verify()
                .map(|r| r.is_clean())
                .map_err(|e| e.to_string());
            t.check(clean == Ok(true), || {
                format!("local store verify: {clean:?}")
            });
        }
        if let Some(tr) = tracer.as_deref_mut() {
            if ops.len().is_multiple_of(HARVEST_EVERY) {
                tr.harvest();
            }
        }
    }
    if tracer.is_some() {
        out.layer(
            "charstore.remote_bytes",
            remote_bytes as f64 / ops.len() as f64,
        );
    }
    Ok(digest)
}
