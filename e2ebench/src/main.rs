//! End-to-end and per-layer benchmark of the PowerPruning reproduction.
//!
//! ```text
//! e2ebench --workload <cold_request|retrain_sweep|warm_serve|remote_replay>
//!          [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload: a few timed set-ups, then an untraced pass that
//! measures for `--seconds` (at least one operation). With `--trace 1`
//! a traced pass follows, with a span around every call into a layer;
//! it reports the per-layer metrics, its overhead over the untraced
//! pass, and checks that its outputs equal the untraced pass's.
//! Outputs are also checked against reference digests pinned for the
//! default and a held-out seed.
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones). Exits non-zero without that line when the workload
//! cannot run at all.

mod check;
mod layers;
mod metrics;
mod stats;
mod tracing;
mod window;
mod work;
mod workloads;

use metrics::{Def, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;
use work::{Opts, Outcome};

/// The variables that would silently change what a run measures: a
/// disabled cache, a foreign store directory, a remote tier, a scale.
const SCRUBBED_ENV: [&str; 4] = [
    "POWERPRUNING_CACHE",
    "POWERPRUNING_CACHE_DIR",
    "POWERPRUNING_REMOTE_STORE",
    "POWERPRUNING_SCALE",
];

/// `PipelineConfig`'s default master seed.
const DEFAULT_SEED: u64 = 0xdac2023;

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {})",
            workloads::NAMES.join(", ")
        ));
    }
    if !(opts.seconds > 0.0 && opts.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, opts))
}

/// Removes the environment knobs that would change what is measured
/// and silences the program's logger. Runs before any thread starts.
fn hermetic() {
    for var in SCRUBBED_ENV {
        if std::env::var_os(var).is_some() {
            eprintln!("e2ebench: ignoring {var} from the environment");
            std::env::remove_var(var);
        }
    }
    std::env::remove_var(obs::log::ENV_KNOB);
    obs::log::set_level(obs::log::Level::Off);
}

fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match workload {
        "cold_request" => workloads::cold::run(opts, &mut out)?,
        "retrain_sweep" => workloads::sweep::run(opts, &mut out)?,
        "warm_serve" => workloads::serve::run(opts, &mut out)?,
        "remote_replay" => workloads::replay::run(opts, &mut out)?,
        _ => unreachable!("validated in parse_args"),
    }
    if out.ops_s.is_empty() {
        return Err("the untraced pass completed no operation".into());
    }
    if opts.trace {
        out.tally.same(
            "traced digest equals untraced digest",
            &out.traced_digest,
            &out.digest,
        );
        let overhead = stats::median(&out.traced_ops_s) / stats::median(&out.ops_s) - 1.0;
        out.layer("trace.overhead_pct", overhead * 100.0);
    }
    match check::reference(workload, opts.seed) {
        Some(pinned) => out
            .tally
            .same("pinned reference digest", out.digest.as_str(), pinned),
        None => out.note(format!(
            "no reference digest pinned for seed {}; checked for internal consistency only",
            opts.seed
        )),
    }
    Ok(out)
}

/// Measured time per throughput slice: long enough for thousands of
/// served requests or dozens of replays, short enough for sixty slices
/// in a fifteen-second run.
const RATE_SLICE_S: f64 = 0.25;

/// The end-to-end values of an outcome, in [`END_TO_END`] order.
fn end_to_end(out: &Outcome) -> Vec<f64> {
    let paced = if out.gaps_s.is_empty() {
        &out.ops_s
    } else {
        &out.gaps_s
    };
    vec![
        stats::median(&out.setup_s),
        stats::median(&out.ops_s) * 1e3,
        stats::slice_rate(paced, RATE_SLICE_S),
        work::peak_rss_mb(),
    ]
}

fn json_metrics(defs: &[Def], values: &[f64]) -> String {
    let mut s = String::from("{");
    for (i, (d, v)) in defs.iter().zip(values).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let v = if v.is_finite() { *v } else { 0.0 };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            d.name, d.unit
        );
    }
    s.push('}');
    s
}

/// The human-readable report: the end-to-end metrics under each
/// workload's own names, every reported metric with its unit, and the
/// check results.
fn report(workload: &str, opts: &Opts, out: &Outcome, e2e: &[f64], layers: &[f64]) -> String {
    let mut r = format!(
        "e2ebench {workload} seed={} seconds={} trace={}\n",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let n = out.ops_s.len();
    let mut sorted = out.ops_s.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = stats::p99_or_max(&sorted);
    let _ = writeln!(
        r,
        "operations timed: {n}; the p99 below is {}",
        if tail.is_p99 {
            "the p99"
        } else {
            "the slowest operation (fewer than 1000: no p99 with ten samples beyond it)"
        }
    );
    // (name, unit, the workload it is measured on or "" for every
    // workload, value).
    let named = [
        ("setup_s", "s", "", e2e[0]),
        ("cold_request_s", "s", "cold_request", e2e[1] / 1e3),
        ("sweep_s", "s", "retrain_sweep", e2e[1] / 1e3),
        ("serve_rps", "1/s", "warm_serve", e2e[2]),
        ("serve_p50_ms", "ms", "warm_serve", e2e[1]),
        ("serve_p99_ms", "ms", "warm_serve", tail.value * 1e3),
        ("replay_p50_ms", "ms", "remote_replay", e2e[1]),
        ("replay_p99_ms", "ms", "remote_replay", tail.value * 1e3),
        ("peak_rss_mb", "MB", "", e2e[3]),
        ("error_rate", "ratio", "", out.tally.error_rate()),
    ];
    for (name, unit, on, value) in named {
        if on.is_empty() {
            let _ = writeln!(r, "  {name:<42} {value:>16.6} {unit}");
        } else if on == workload {
            let _ = writeln!(r, "  {name:<42} {value:>16.6} {unit:<6} (n={n})");
        } else {
            let _ = writeln!(r, "  {name:<42} {:>16} {unit:<6} (measured on {on})", "-");
        }
    }
    for (d, v) in END_TO_END.iter().zip(e2e) {
        let _ = writeln!(
            r,
            "  {:<42} {v:>16.6} {:<6} {} is better, bound {}",
            d.name, d.unit, d.better, d.bound
        );
    }
    for (d, v) in PER_LAYER.iter().zip(layers) {
        let _ = writeln!(
            r,
            "  {:<42} {v:>16.6} {:<6} {} is better, moves {}",
            d.name, d.unit, d.better, d.moves
        );
    }
    let _ = writeln!(r, "output digest: {}", out.digest);
    for note in &out.notes {
        let _ = writeln!(r, "note: {note}");
    }
    let _ = write!(r, "checks: {}", out.tally.summary());
    r
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    hermetic();
    let result = run(&workload, &opts);
    let _ = std::fs::remove_dir(work::WORK_ROOT);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let e2e = end_to_end(&out);
    let layers: Vec<f64> = PER_LAYER
        .iter()
        .map(|d| out.layers.get(d.name).copied().unwrap_or(0.0))
        .collect();
    println!(
        "{}",
        report(
            &workload,
            &opts,
            &out,
            &e2e,
            if opts.trace { &layers } else { &[] }
        )
    );
    let metrics = if opts.trace {
        json_metrics(PER_LAYER, &layers)
    } else {
        json_metrics(END_TO_END, &e2e)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.tally.failed == 0,
        out.tally.attempted,
        out.tally.failed
    );
    ExitCode::SUCCESS
}
