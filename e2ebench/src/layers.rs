//! Per-layer metrics every traced pass reports the same way: counters
//! and histograms as deltas over the traced window, span totals from
//! the harvest, each divided by the operations the window timed.

use crate::stats::percentile;
use crate::tracing::Tracer;
use crate::window::Window;
use crate::work::Outcome;
use crate::workloads::ratio;

/// Summed `charcache_{training,captures,characterization,timing}_<outcome>_total`
/// over a window: the four cacheable stages' hits or misses.
pub fn stage_cache(w: &Window, outcome: &str) -> f64 {
    ["training", "captures", "characterization", "timing"]
        .iter()
        .map(|k| w.value(&format!("charcache_{k}_{outcome}_total")))
        .sum()
}

/// Fills the layer metrics whose source is the same on every workload.
/// `ops` is the number of operations the traced window timed.
pub fn common(out: &mut Outcome, tr: &Tracer, w: &Window, epochs: u64, transitions: u64, ops: f64) {
    let per = |v: f64| ratio(v, ops);
    let (scheduled, filtered) = (
        w.value("gatesim_events_scheduled_total"),
        w.value("gatesim_events_filtered_total"),
    );
    let mut fetch_ms: Vec<f64> = tr
        .durations_us("store_remote_fetch")
        .iter()
        .map(|&us| us as f64 * 1e-3)
        .collect();
    fetch_ms.sort_by(f64::total_cmp);

    for (name, value) in [
        ("nn.epochs", per(epochs as f64)),
        (
            "nn.s_per_epoch",
            ratio(tr.secs("nn_train_epoch"), tr.count("nn_train_epoch") as f64),
        ),
        (
            "systolic.stats_s",
            per(tr.secs("systolic_run_network_stats")),
        ),
        ("gatesim.transitions", per(transitions as f64)),
        ("gatesim.events_scheduled", per(scheduled)),
        ("gatesim.events_filtered", per(filtered)),
        (
            "gatesim.filter_ratio",
            ratio(filtered, scheduled + filtered),
        ),
        (
            "gatesim.gates_pruned",
            per(w.value("gatesim_gates_pruned_total")),
        ),
        (
            "gatesim.prune_plan_s",
            per(w.hist_sum("gatesim_prune_plan_seconds")),
        ),
        ("charstore.puts", per(w.value("charstore_puts_total"))),
        ("charstore.put_s", per(tr.secs("store_put"))),
        ("charstore.get_s", per(tr.secs("store_get"))),
        (
            "charstore.mem_hits",
            per(w.value("charstore_mem_hits_total")),
        ),
        (
            "charstore.disk_hits",
            per(w.value("charstore_disk_hits_total")),
        ),
        (
            "charstore.remote_hits",
            per(w.value("charstore_remote_hits_total")),
        ),
        (
            "charstore.remote_fetch_p50_ms",
            if fetch_ms.is_empty() {
                0.0
            } else {
                percentile(&fetch_ms, 0.5)
            },
        ),
        ("charcache.stage_hits", per(stage_cache(w, "hits"))),
        ("charcache.stage_misses", per(stage_cache(w, "misses"))),
        (
            "charcache.retrain_misses",
            per(w.value("charcache_retrain_misses_total")),
        ),
        (
            "charserve.request_hits",
            per(w.value("charserve_request_hits_total")),
        ),
        (
            "charserve.rejected",
            per(w.value("charserve_rejected_total")),
        ),
        (
            "charserve.throttled",
            per(w.value("charserve_throttled_total")),
        ),
        (
            "charserve.object_hits",
            per(w.value("charserve_object_hits_total")),
        ),
        (
            "charserve.server_p50_ms",
            w.hist_quantile("charserve_request_seconds", 0.5) * 1e3,
        ),
        (
            "charserve.server_p99_ms",
            w.hist_quantile("charserve_request_seconds", 0.99) * 1e3,
        ),
        ("trace.spans", tr.harvested as f64),
        ("trace.spans_dropped", tr.dropped as f64),
    ] {
        out.layer(name, value);
    }
}

/// The conservation check: `parts` must account for `wall` to within
/// 5%. Records the unattributed share under `share_metric`, counts a
/// violation as a failed check, and returns the unattributed seconds.
pub fn conservation(
    out: &mut Outcome,
    share_metric: &'static str,
    wall: f64,
    parts: &[f64],
) -> f64 {
    let unattributed = wall - parts.iter().sum::<f64>();
    let share = ratio(unattributed.abs(), wall);
    out.layer(share_metric, share);
    out.tally.check(share < 0.05, || {
        format!(
            "{share_metric}: {:.1}% of {wall:.3} s is not covered by {parts:?}",
            share * 100.0
        )
    });
    unattributed
}
