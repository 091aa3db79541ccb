//! The traced run's span harvest.
//!
//! The benchmark opens its own spans (`bench_*`) around each public
//! call it makes, and the program records its own (`prepare`,
//! `store_get`, `http_request`, ...) into the `obs` ring. A [`Tracer`]
//! drains the ring incrementally — the ring holds 4,096 spans, so a
//! busy window must be harvested before it wraps — and folds every
//! record into per-name totals of duration and self time. Spans that
//! were overwritten before a harvest are counted, not guessed.

use obs::trace::SpanRecord;
use std::collections::BTreeMap;

/// Totals for one span name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanAgg {
    pub count: u64,
    /// Sum of durations, µs.
    pub total_us: u64,
    /// Sum of self times (duration minus child coverage), µs.
    pub self_us: u64,
    /// Every duration, µs, in harvest order.
    pub durations_us: Vec<u64>,
}

/// Per-record self time: duration minus the part of the record's
/// interval that its children (records naming it as parent) cover.
/// Overlapping children are counted once.
#[must_use]
pub fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in records {
        if r.parent != 0 {
            children
                .entry(r.parent)
                .or_default()
                .push((r.start_us, r.start_us + r.dur_us));
        }
    }
    records
        .iter()
        .map(|r| {
            let (lo, hi) = (r.start_us, r.start_us + r.dur_us);
            let Some(kids) = children.get_mut(&r.id) else {
                return r.dur_us;
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, lo);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(hi));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            r.dur_us - covered.min(r.dur_us)
        })
        .collect()
}

/// Incremental harvester of the span ring.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Ring position (total spans ever recorded) at the last harvest.
    seen: u64,
    aggs: BTreeMap<&'static str, SpanAgg>,
    /// Spans overwritten in the ring before they could be harvested.
    pub dropped: u64,
    /// Spans harvested.
    pub harvested: u64,
}

impl Tracer {
    /// Starts harvesting from the ring's current position: spans
    /// recorded before this call are not part of the trace.
    #[must_use]
    pub fn start() -> Tracer {
        Tracer {
            seen: obs::trace::snapshot().1,
            ..Tracer::default()
        }
    }

    /// Folds every span recorded since the last harvest into the
    /// totals. A child and its parent harvested in different batches
    /// leave the parent's self time at its full duration; harvests
    /// happen between operations, where no benchmark span is open.
    pub fn harvest(&mut self) {
        let (records, total) = obs::trace::snapshot();
        let fresh = total - self.seen;
        self.seen = total;
        let available = records.len() as u64;
        self.dropped += fresh.saturating_sub(available);
        let batch = &records[records.len() - fresh.min(available) as usize..];
        self.fold(batch);
    }

    fn fold(&mut self, batch: &[SpanRecord]) {
        for (r, own) in batch.iter().zip(self_times(batch)) {
            let agg = self.aggs.entry(r.name).or_default();
            agg.count += 1;
            agg.total_us += r.dur_us;
            agg.self_us += own;
            agg.durations_us.push(r.dur_us);
        }
        self.harvested += batch.len() as u64;
    }

    /// Every harvested duration of `name`, µs.
    #[must_use]
    pub fn durations_us(&self, name: &str) -> &[u64] {
        self.aggs.get(name).map_or(&[], |a| &a.durations_us)
    }

    /// Summed duration of `name`, seconds.
    #[must_use]
    pub fn secs(&self, name: &str) -> f64 {
        self.aggs
            .get(name)
            .map_or(0.0, |a| a.total_us as f64 * 1e-6)
    }

    /// Summed self time of `name`, seconds.
    #[must_use]
    pub fn self_secs(&self, name: &str) -> f64 {
        self.aggs.get(name).map_or(0.0, |a| a.self_us as f64 * 1e-6)
    }

    /// Number of `name` spans harvested.
    #[must_use]
    pub fn count(&self, name: &str) -> u64 {
        self.aggs.get(name).map_or(0, |a| a.count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent,
            trace: 0,
            start_us,
            dur_us,
            tid: 1,
            fields: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let records = [
            rec("root", 1, 0, 0, 100),
            rec("a", 2, 1, 10, 20),
            // Overlaps `a` by 5 µs and runs past the root's end.
            rec("b", 3, 1, 25, 90),
            rec("leaf", 4, 2, 12, 5),
        ];
        assert_eq!(self_times(&records), vec![100 - 90, 20 - 5, 90, 5]);
    }

    #[test]
    fn a_childless_span_is_all_self_time() {
        assert_eq!(self_times(&[rec("x", 9, 7, 0, 42)]), vec![42]);
    }

    #[test]
    fn harvest_takes_only_new_spans_and_counts_them_by_name() {
        {
            let _before = obs::span("e2ebench_test_before");
        }
        let mut t = Tracer::start();
        {
            let _outer = obs::span("e2ebench_test_outer");
            let _inner = obs::span("e2ebench_test_inner");
        }
        t.harvest();
        assert_eq!(t.count("e2ebench_test_before"), 0);
        assert_eq!(t.count("e2ebench_test_outer"), 1);
        assert_eq!(t.count("e2ebench_test_inner"), 1);
        assert_eq!(t.dropped, 0);
        assert!(t.self_secs("e2ebench_test_outer") <= t.secs("e2ebench_test_outer"));
        assert_eq!(t.durations_us("e2ebench_test_inner").len(), 1);
    }
}
