//! Management CLI for the characterization artifact store and the
//! `charserve` daemon over it.
//!
//! ```text
//! charstore [--dir DIR] [--remote ADDR] ls     list stored artifacts
//! charstore [--dir DIR] [--remote ADDR] stat [KEY-PREFIX]
//!                                              store totals, or one artifact's provenance
//! charstore [--dir DIR] [--remote ADDR] warm [--scale S] [--all-networks] [--sweep]
//!                                              run the full cacheable pipeline (prepare,
//!                                              capture, characterize, timing) against the
//!                                              store and report hits/misses, the
//!                                              training-epoch and gate-transition counters
//!                                              and seconds per stage and in training;
//!                                              --sweep also runs the power-threshold sweep
//!                                              so every sweep-point retrain artifact is
//!                                              warmed (reported as retrain_hits/misses)
//! charstore [--dir DIR] gc --max-bytes N       delete oldest artifacts over the budget
//! charstore [--dir DIR] verify                 re-checksum every object on disk
//! charstore [--dir DIR] serve [--addr A] [--workers N]
//!                            [--max-connections N] [--max-pending N]
//!                            [--header-timeout-ms N] [--idle-timeout-ms N]
//!                                              run the charserve daemon over the store
//!                                              (connection/pending caps answer 429 with
//!                                              Retry-After; the timeouts bound slowloris
//!                                              reads and idle keep-alive connections)
//! charstore request [--addr A] [--scale S] [--network N] [--seed X]
//!                                              POST a characterization request
//! charstore request [--addr A] (--healthz | --stats | --shutdown)
//!                                              daemon health / counters / clean stop
//! charstore request [--addr A] (--metrics | --trace)
//!                                              daemon Prometheus metrics / span dump
//! ```
//!
//! `stat` and `warm` also print the process-wide per-tier counter
//! table from the `obs` metrics registry (memory/disk/remote hits,
//! misses, writes, errors); characterization requests run under a
//! fresh trace ID that is logged here and forwarded to the daemon as
//! `X-Trace-Id`, so client and daemon logs/spans join up.
//!
//! `--dir` falls back to `POWERPRUNING_CACHE_DIR`, then to the default
//! `.powerpruning-cache`; `--remote` (accepted by `warm`, `stat` and
//! `ls`) falls back to `POWERPRUNING_REMOTE_STORE` and attaches a
//! `charserve` object endpoint as the store's remote tier — `warm
//! --remote` against an empty local store answers every stage from the
//! warmed daemon with zero training epochs and zero simulated
//! transitions, pulling the artifacts into the local disk tier as it
//! goes. `warm` run twice against the same store must report `misses=0
//! training_epochs=0 sim_transitions=0` on the second run — a fully
//! warmed store answers all four stages without a single training
//! epoch or gate-level transition; with `--sweep` the second run must
//! additionally report `retrain_misses=0`, the sweep replaying every
//! retraining point from stored artifacts. The CI cache-smoke job asserts
//! exactly that, then runs `verify` over the resulting store; the
//! service-smoke job drives `serve`/`request` end to end, asserts
//! single-flight deduplication via `/stats`, and replays the warm run
//! from a second empty store over `--remote`.

use charserve::{Client, ServeConfig, Server};
use charstore::{RemoteTier, Store};
use powerpruning::cache::{decode_provenance, CharCache, DEFAULT_CACHE_DIR, REMOTE_STORE_ENV};
use powerpruning::pipeline::{NetworkKind, Pipeline, PipelineConfig, Scale};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::SystemTime;

struct Args {
    dir: String,
    remote: Option<String>,
    command: String,
    rest: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut dir =
        std::env::var("POWERPRUNING_CACHE_DIR").unwrap_or_else(|_| DEFAULT_CACHE_DIR.to_string());
    let mut explicit_remote = None;
    let mut command = None;
    let mut rest = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--dir" => {
                dir = argv.next().ok_or("--dir needs a value")?;
            }
            "--remote" => {
                explicit_remote = Some(argv.next().ok_or("--remote needs a value")?);
            }
            _ if command.is_none() => command = Some(arg),
            _ => rest.push(arg),
        }
    }
    let command =
        command.ok_or("missing command (ls | stat | warm | gc | verify | serve | request)")?;
    let remote_commands = matches!(command.as_str(), "warm" | "stat" | "ls");
    if explicit_remote.is_some() && !remote_commands {
        return Err(format!(
            "--remote applies to warm, stat and ls, not `{command}`"
        ));
    }
    // The env fallback only ever *adds* the tier to commands that take
    // it; it must not turn `serve` or `gc` into an error.
    let remote = explicit_remote.or_else(|| {
        std::env::var(REMOTE_STORE_ENV)
            .ok()
            .filter(|a| !a.trim().is_empty() && remote_commands)
    });
    Ok(Args {
        dir,
        remote,
        command,
        rest,
    })
}

fn open_store(dir: &str, remote: Option<&str>) -> Result<Store, String> {
    let store = Store::open(dir).map_err(|e| format!("cannot open store at `{dir}`: {e}"))?;
    Ok(match remote {
        Some(addr) => store.with_remote(RemoteTier::new(addr)),
        None => store,
    })
}

/// Prints the full per-tier counter set from the metrics registry as
/// one aligned table. Counters are process-wide (they aggregate every
/// store instance this process opened); a `-` marks a counter the
/// tier does not have.
fn print_tier_table() {
    let cell = |name: &str| {
        if name.is_empty() {
            "-".to_string()
        } else {
            obs::metrics::counter_value(name).map_or_else(|| "-".to_string(), |v| v.to_string())
        }
    };
    println!("per-tier counters (this process):");
    println!(
        "  {:<8}{:>10}{:>10}{:>10}{:>10}",
        "tier", "hits", "misses", "writes", "errors"
    );
    for (tier, hits, misses, writes, errors) in [
        ("memory", "charstore_mem_hits_total", "", "", ""),
        (
            "disk",
            "charstore_disk_hits_total",
            "charstore_misses_total",
            "charstore_puts_total",
            "",
        ),
        (
            "remote",
            "charstore_remote_hits_total",
            "charstore_remote_misses_total",
            "charstore_remote_publishes_total",
            "charstore_remote_errors_total",
        ),
    ] {
        println!(
            "  {:<8}{:>10}{:>10}{:>10}{:>10}",
            tier,
            cell(hits),
            cell(misses),
            cell(writes),
            cell(errors)
        );
    }
}

fn age(modified: SystemTime) -> String {
    match modified.elapsed() {
        Ok(d) if d.as_secs() < 120 => format!("{}s ago", d.as_secs()),
        Ok(d) if d.as_secs() < 7200 => format!("{}m ago", d.as_secs() / 60),
        Ok(d) => format!("{}h ago", d.as_secs() / 3600),
        Err(_) => "future".to_string(),
    }
}

fn cmd_ls(dir: &str, remote: Option<&str>) -> Result<(), String> {
    let store = open_store(dir, remote)?;
    let mut entries = store.entries().map_err(|e| e.to_string())?;
    entries.sort_by_key(|e| e.modified);
    match store.remote() {
        Some(tier) => println!(
            "store {dir} (remote {}): {} local artifacts",
            tier.addr(),
            entries.len()
        ),
        None => println!("store {dir}: {} artifacts", entries.len()),
    }
    for e in &entries {
        println!("  {}  {:>9} bytes  {}", e.key, e.bytes, age(e.modified));
    }
    Ok(())
}

fn cmd_stat(dir: &str, remote: Option<&str>, rest: &[String]) -> Result<(), String> {
    let store = open_store(dir, remote)?;
    let entries = store.entries().map_err(|e| e.to_string())?;
    if let Some(prefix) = rest.first() {
        let matches: Vec<_> = entries
            .iter()
            .filter(|e| e.key.to_hex().starts_with(prefix.as_str()))
            .collect();
        match matches.as_slice() {
            [] => return Err(format!("no artifact matches prefix `{prefix}`")),
            [e] => {
                let sections = store
                    .get(e.key)
                    .ok_or_else(|| format!("artifact {} is corrupted", e.key))?;
                println!("{}  {} bytes, {} sections", e.key, e.bytes, sections.len());
                for (k, v) in decode_provenance(&sections) {
                    println!("  {k}: {v}");
                }
            }
            many => {
                return Err(format!(
                    "prefix `{prefix}` is ambiguous ({} matches)",
                    many.len()
                ))
            }
        }
        return Ok(());
    }
    let total: u64 = entries.iter().map(|e| e.bytes).sum();
    println!(
        "store {dir}: {} artifacts, {total} bytes on disk",
        entries.len()
    );
    if let Some(tier) = store.remote() {
        println!("remote tier: {}", tier.addr());
    }
    print_tier_table();
    Ok(())
}

fn cmd_warm(dir: &str, remote: Option<&str>, rest: &[String]) -> Result<(), String> {
    let mut scale = Scale::Micro;
    let mut all_networks = false;
    let mut sweep = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match it.next().map(String::as_str) {
                    Some("micro") => Scale::Micro,
                    Some("mini") => Scale::Mini,
                    Some("full") => Scale::Full,
                    other => return Err(format!("bad --scale {other:?}")),
                }
            }
            "--all-networks" => all_networks = true,
            "--sweep" => sweep = true,
            other => return Err(format!("unknown warm option `{other}`")),
        }
    }
    if CharCache::disabled_by_env() {
        return Err("cache disabled (POWERPRUNING_CACHE=off) — nothing to warm".into());
    }
    let cache = CharCache::open_with_remote(dir, remote)
        .map_err(|e| format!("cannot open store at `{dir}`: {e}"))?;
    let cache = Arc::new(cache);
    let pipeline =
        Pipeline::with_shared_cache(PipelineConfig::for_scale(scale), Arc::clone(&cache));
    let all = NetworkKind::all();
    let kinds: &[NetworkKind] = if all_networks {
        &all
    } else {
        &[NetworkKind::LeNet5]
    };
    let retrain_counter = |name: &str| obs::metrics::counter_value(name).unwrap_or(0);
    let epochs_before = nn::train::epochs_run();
    let transitions_before = gatesim::sim_transitions();
    let retrain_hits_before = retrain_counter("charcache_retrain_hits_total");
    let retrain_misses_before = retrain_counter("charcache_retrain_misses_total");
    let gates_pruned_before = retrain_counter("gatesim_gates_pruned_total");
    let ledger_before = ledger_readings();
    for &kind in kinds {
        // One trace per warmed network: the stage spans recorded below
        // and any remote-tier fetches (which forward the ID as
        // `X-Trace-Id`) land in daemon logs under the same trace.
        let trace = obs::TraceId::generate();
        eprintln!(
            "warming {} at {scale:?} scale (trace {trace})...",
            kind.label()
        );
        obs::with_trace(trace, || {
            let mut prepared = pipeline.prepare(kind);
            let captures = pipeline.capture(&mut prepared);
            let chars = pipeline.characterize(&captures);
            let probe = pipeline.characterize_timing(f64::MAX);
            eprintln!(
                "  accuracy {:.3}, {} captures, {} power codes, timing floor {:.1} ps",
                prepared.accuracy,
                captures.len(),
                chars.power_profile.codes().len(),
                probe.psum_floor_ps
            );
            if sweep {
                // Warm the sweep-point retrain artifacts too: the power
                // threshold sweep retrains at every kept-count point,
                // each call keyed through the retrain cache.
                let series = pipeline.power_threshold_sweep(kind);
                eprintln!(
                    "  sweep: {} retrained points warmed",
                    series.points.len().saturating_sub(1)
                );
            }
        });
    }
    let c = cache.counters();
    let store = cache.store().counters();
    println!(
        "warm complete: scale={scale:?} networks={} hits={} misses={} remote_hits={} remote_publishes={} remote_errors={} training_epochs={} sim_transitions={} retrain_hits={} retrain_misses={} gates_pruned={}",
        kinds.len(),
        c.hits,
        c.misses,
        store.remote_hits,
        store.remote_publishes,
        store.remote_errors,
        nn::train::epochs_run() - epochs_before,
        gatesim::sim_transitions() - transitions_before,
        retrain_counter("charcache_retrain_hits_total") - retrain_hits_before,
        retrain_counter("charcache_retrain_misses_total") - retrain_misses_before,
        retrain_counter("gatesim_gates_pruned_total") - gates_pruned_before,
    );
    print_tier_table();
    let gets = obs::metrics::histogram("charstore_get_seconds", obs::metrics::LATENCY_SECONDS);
    if gets.count() > 0 {
        // A tail quantile is printed only once ten samples lie beyond
        // it; below that it reads the slowest get's bucket bound.
        let mut latency = format!("p50 {:.3} ms", gets.quantile(0.50) * 1e3);
        for (label, q, min_gets) in [("p95", 0.95, 200), ("p99", 0.99, 1_000)] {
            if gets.count() >= min_gets {
                latency += &format!(", {label} {:.3} ms", gets.quantile(q) * 1e3);
            }
        }
        println!("store get latency: {latency} over {} gets", gets.count());
    }
    let ledger = ledger_readings();
    let spent = |i: usize| {
        let ((sum, count), (sum0, count0)) = (ledger[i], ledger_before[i]);
        (sum - sum0, count - count0)
    };
    let stages: Vec<String> = (0..4)
        .map(|i| format!("{}={:.3}", LEDGER[i].0, spent(i).0))
        .collect();
    println!("stage seconds: {}", stages.join(" "));
    let (seconds, epochs) = spent(4);
    println!("training: seconds={seconds:.3} epochs={epochs}");
    Ok(())
}

/// The wall-clock histograms `warm` reports as its time ledger: the four
/// pipeline stages in order, then training epochs (the baseline's, which
/// prepare includes, and every retrain's).
const LEDGER: [(&str, &str); 5] = [
    ("prepare", "pipeline_prepare_seconds"),
    ("capture", "pipeline_capture_seconds"),
    ("characterize", "pipeline_characterize_seconds"),
    ("timing", "pipeline_timing_seconds"),
    ("training", "nn_training_epoch_seconds"),
];

/// `(sum, count)` of each [`LEDGER`] histogram.
fn ledger_readings() -> [(f64, u64); 5] {
    LEDGER.map(|(_, metric)| {
        let h = obs::metrics::histogram(metric, obs::metrics::LATENCY_SECONDS);
        (h.sum(), h.count())
    })
}

fn cmd_verify(dir: &str) -> Result<(), String> {
    let store = open_store(dir, None)?;
    let report = store.verify().map_err(|e| e.to_string())?;
    println!(
        "verify: {} objects checked, {} ok, {} corrupt",
        report.checked,
        report.ok,
        report.corrupt.len()
    );
    if !report.is_clean() {
        for key in &report.corrupt {
            eprintln!("  corrupt: {key}");
        }
        return Err("store verification failed".to_string());
    }
    Ok(())
}

fn cmd_gc(dir: &str, rest: &[String]) -> Result<(), String> {
    let mut max_bytes = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max-bytes" => {
                max_bytes = Some(
                    it.next()
                        .ok_or("--max-bytes needs a value")?
                        .parse::<u64>()
                        .map_err(|e| format!("bad --max-bytes: {e}"))?,
                )
            }
            other => return Err(format!("unknown gc option `{other}`")),
        }
    }
    let max_bytes = max_bytes.ok_or("gc requires --max-bytes N")?;
    let store = open_store(dir, None)?;
    let report = store.gc(max_bytes).map_err(|e| e.to_string())?;
    println!(
        "gc: deleted {} artifacts ({} bytes), kept {} ({} bytes)",
        report.deleted, report.freed_bytes, report.kept, report.kept_bytes
    );
    Ok(())
}

/// Default daemon address shared by `serve` and `request`.
const DEFAULT_ADDR: &str = "127.0.0.1:7878";

fn cmd_serve(dir: &str, rest: &[String]) -> Result<(), String> {
    let mut cfg = ServeConfig {
        addr: DEFAULT_ADDR.to_string(),
        workers: 2,
        store_dir: dir.into(),
        ..ServeConfig::default()
    };
    let parse_num = |name: &str, value: Option<&String>| -> Result<u64, String> {
        value
            .ok_or(format!("{name} needs a value"))?
            .parse()
            .map_err(|e| format!("bad {name}: {e}"))
    };
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--workers" => {
                cfg.workers = parse_num("--workers", it.next())? as usize;
            }
            "--max-connections" => {
                cfg.max_connections = parse_num("--max-connections", it.next())? as usize;
            }
            "--max-pending" => {
                cfg.max_pending = parse_num("--max-pending", it.next())? as usize;
            }
            "--header-timeout-ms" => {
                cfg.header_timeout =
                    std::time::Duration::from_millis(parse_num("--header-timeout-ms", it.next())?);
            }
            "--idle-timeout-ms" => {
                cfg.idle_timeout =
                    std::time::Duration::from_millis(parse_num("--idle-timeout-ms", it.next())?);
            }
            other => return Err(format!("unknown serve option `{other}`")),
        }
    }
    let server = Server::bind(&cfg).map_err(|e| format!("cannot start charserve: {e}"))?;
    println!(
        "charserve listening on {} over store {dir} ({} workers, {} connections / {} pending max)",
        server.local_addr(),
        cfg.workers,
        cfg.max_connections,
        cfg.max_pending
    );
    server.serve().map_err(|e| e.to_string())?;
    println!("charserve stopped");
    Ok(())
}

fn cmd_request(rest: &[String]) -> Result<(), String> {
    let mut addr = DEFAULT_ADDR.to_string();
    let mut scale = None;
    let mut network = None;
    let mut seed: Option<u64> = None;
    let mut action = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
            "--scale" => scale = Some(it.next().ok_or("--scale needs a value")?.clone()),
            "--network" => network = Some(it.next().ok_or("--network needs a value")?.clone()),
            "--seed" => {
                let parsed: u64 = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
                // The JSON wire format carries numbers as f64, so the
                // server rejects seeds beyond 2^53; fail here with a
                // clear message instead of a server-side 400.
                if parsed > (1 << 53) {
                    return Err(format!("--seed {parsed} exceeds the wire limit of 2^53"));
                }
                seed = Some(parsed);
            }
            "--healthz" | "--stats" | "--shutdown" | "--metrics" | "--trace" => {
                action = Some(arg.clone());
            }
            other => return Err(format!("unknown request option `{other}`")),
        }
    }
    let client = Client::new(addr);
    let body = match action.as_deref() {
        Some("--healthz") => client.healthz()?,
        Some("--stats") => client.stats()?,
        Some("--shutdown") => client.shutdown()?,
        Some("--metrics") => client.metrics()?,
        Some("--trace") => client.trace_dump()?,
        _ => {
            let mut fields = Vec::new();
            if let Some(s) = scale {
                fields.push(format!("\"scale\": \"{}\"", charserve::json::escape(&s)));
            }
            if let Some(n) = network {
                fields.push(format!("\"network\": \"{}\"", charserve::json::escape(&n)));
            }
            if let Some(s) = seed {
                fields.push(format!("\"seed\": {s}"));
            }
            // The request travels under a fresh trace ID (sent as
            // `X-Trace-Id`): grep the daemon's logs or /trace dump for
            // it to see this request's span tree.
            let trace = obs::TraceId::generate();
            eprintln!("request trace {trace}");
            obs::with_trace(trace, || {
                client.characterize(&format!("{{{}}}", fields.join(", ")))
            })?
        }
    };
    print!("{body}");
    Ok(())
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.command.as_str() {
        "ls" => cmd_ls(&args.dir, args.remote.as_deref()),
        "stat" => cmd_stat(&args.dir, args.remote.as_deref(), &args.rest),
        "warm" => cmd_warm(&args.dir, args.remote.as_deref(), &args.rest),
        "gc" => cmd_gc(&args.dir, &args.rest),
        "verify" => cmd_verify(&args.dir),
        "serve" => cmd_serve(&args.dir, &args.rest),
        "request" => cmd_request(&args.rest),
        other => Err(format!(
            "unknown command `{other}` (ls | stat | warm | gc | verify | serve | request)"
        )),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("charstore: {msg}");
            ExitCode::FAILURE
        }
    }
}
