//! Every metric the benchmark reports, with its unit, its direction,
//! and — for per-layer metrics — the end-to-end metric and workload it
//! is expected to move. `BENCHMARK.json` lists the same names and units
//! (a test keeps the two in step).

/// One metric definition.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: f64,
    /// Per-layer metrics: what a change to this layer should move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        moves,
    }
}

/// Reported with `--trace 0`, on every workload. The "operation" is the
/// workload's unit of work: one cold request, one sweep, one served
/// request, one replay.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

const COLD: &str = "op_p50_ms on cold_request";
const SWEEP: &str = "op_p50_ms on retrain_sweep";
const SERVE: &str = "ops_per_s and serve_p99_ms on warm_serve";
const REPLAY: &str = "op_p50_ms on remote_replay";
const ALL: &str = "none (diagnostic)";

/// Reported with `--trace 1`, on every workload (0 where the layer does
/// no work — which is itself checked: no transitions outside
/// `cold_request`, no epochs on `warm_serve` and `remote_replay`).
pub const PER_LAYER: &[Def] = &[
    layer("pipeline.prepare_s", "s", "lower", COLD),
    layer("pipeline.capture_s", "s", "lower", SWEEP),
    layer("pipeline.characterize_s", "s", "lower", COLD),
    layer("pipeline.timing_s", "s", "lower", COLD),
    layer("pipeline.unattributed_s", "s", "lower", COLD),
    layer("pipeline.unattributed_share", "ratio", "lower", ALL),
    layer(
        "pipeline.characterize_unattributed_share",
        "ratio",
        "lower",
        ALL,
    ),
    layer("nn.epochs", "count", "lower", COLD),
    layer("nn.s_per_epoch", "s", "lower", COLD),
    layer("nn.retrain_epochs", "count", "lower", SWEEP),
    layer("nn.retrain_s", "s", "lower", SWEEP),
    layer("systolic.stats_s", "s", "lower", COLD),
    layer("systolic.energy_s", "s", "lower", SWEEP),
    layer("gatesim.power_s", "s", "lower", COLD),
    layer("gatesim.transitions", "count", "lower", COLD),
    layer("gatesim.power_transitions", "count", "lower", COLD),
    layer("gatesim.timing_transitions", "count", "lower", COLD),
    layer("gatesim.power_ns_per_transition", "ns", "lower", COLD),
    layer("gatesim.timing_ns_per_transition", "ns", "lower", COLD),
    layer("gatesim.events_scheduled", "count", "lower", COLD),
    layer("gatesim.events_filtered", "count", "higher", COLD),
    layer("gatesim.filter_ratio", "ratio", "higher", COLD),
    layer("gatesim.gates_pruned", "count", "higher", COLD),
    layer("gatesim.prune_plan_s", "s", "lower", COLD),
    layer("charstore.puts", "count", "lower", SWEEP),
    layer("charstore.put_s", "s", "lower", SWEEP),
    layer("charstore.get_s", "s", "lower", REPLAY),
    layer("charstore.mem_hits", "count", "higher", SERVE),
    layer("charstore.disk_hits", "count", "lower", SERVE),
    layer("charstore.remote_hits", "count", "higher", REPLAY),
    layer("charstore.remote_fetch_p50_ms", "ms", "lower", REPLAY),
    layer("charstore.remote_bytes", "B", "lower", REPLAY),
    layer("charcache.stage_hits", "count", "higher", SWEEP),
    layer("charcache.stage_misses", "count", "lower", SWEEP),
    layer("charcache.retrain_misses", "count", "lower", SWEEP),
    layer("charserve.server_p50_ms", "ms", "lower", SERVE),
    layer("charserve.server_p99_ms", "ms", "lower", SERVE),
    layer("charserve.request_hits", "count", "higher", SERVE),
    layer("charserve.rejected", "count", "lower", SERVE),
    layer("charserve.throttled", "count", "lower", SERVE),
    layer("charserve.object_hits", "count", "higher", REPLAY),
    layer("cache.decode_s", "s", "lower", REPLAY),
    layer("trace.overhead_pct", "%", "lower", ALL),
    layer("trace.spans", "count", "lower", ALL),
    layer("trace.spans_dropped", "count", "lower", ALL),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The entries of one metric list in `BENCHMARK.json`, as
    /// `(name, unit, better, bound)`; the file keeps one flat object
    /// per metric, so a scan for the quoted fields suffices.
    fn listed(doc: &str, key: &str) -> Vec<(String, String, String, f64)> {
        let start = doc.find(&format!("\"{key}\": [")).expect("list present");
        let body = &doc[start..start + doc[start..].find(']').expect("list closes")];
        let field = |entry: &str, f: &str| -> String {
            let from = entry.find(&format!("\"{f}\": ")).map(|i| i + f.len() + 4);
            from.map_or(String::new(), |i| {
                entry[i..]
                    .trim_start_matches('"')
                    .split(['"', ',', '}'])
                    .next()
                    .unwrap_or_default()
                    .to_string()
            })
        };
        body.split('{')
            .skip(1)
            .map(|e| {
                let bound = field(e, "bound").parse().unwrap_or(0.0);
                (
                    field(e, "name"),
                    field(e, "unit"),
                    field(e, "better"),
                    bound,
                )
            })
            .collect()
    }

    fn defs(list: &[Def]) -> Vec<(String, String, String, f64)> {
        list.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).unwrap();
        assert_eq!(listed(&doc, "end_to_end"), defs(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), defs(PER_LAYER));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
