//! The process-global metrics registry.
//!
//! Metrics are registered by static name on first use and live for the
//! life of the process (the cells are leaked, so handles are `Copy` and
//! updates are single relaxed atomic ops with no lock, no `Arc`, no
//! registry lookup). Registration itself takes a mutex — do it once in
//! a `LazyLock` static next to the code that updates the metric:
//!
//! ```
//! use std::sync::LazyLock;
//! static REQUESTS: LazyLock<obs::metrics::Counter> =
//!     LazyLock::new(|| obs::metrics::counter("myapp_requests_total"));
//! REQUESTS.inc();
//! ```
//!
//! Names must match the Prometheus identifier grammar and a name maps
//! to exactly one metric kind for the life of the process — re-register
//! the same counter freely (you get the same cell back), but asking for
//! `"x"` as a counter after it was registered as a histogram panics:
//! that is a naming bug, and letting it slide would render duplicate
//! `# TYPE` lines that scrapers reject.
//!
//! Histograms use fixed, caller-supplied upper bounds. Quantiles are
//! estimated by linear interpolation inside the owning bucket — exact
//! at bucket edges, bounded by bucket width in between — which is the
//! standard Prometheus trade: no per-sample storage, mergeable across
//! processes, good enough to tell 2 ms from 200 ms.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default latency buckets in **seconds**: 100 µs to ~100 s,
/// roughly ×3 per step. Wide enough for a memory-tier store hit and a
/// Full-scale characterization in the same histogram.
pub const LATENCY_SECONDS: &[f64] = &[
    0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
];

/// Default gate-settle-time buckets in **picoseconds** for the
/// simulator histograms: combinational MAC paths settle in the
/// hundreds-of-ps range.
pub const SETTLE_PS: &[f64] = &[
    25.0, 50.0, 100.0, 200.0, 400.0, 800.0, 1600.0, 3200.0, 6400.0, 12800.0,
];

/// A registered monotonic counter. `Copy`; one relaxed atomic add per
/// update.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A count kept per instance (one store, one daemon) that also feeds
/// the process-wide registry counter of the same name. [`Self::inc`]
/// and [`Self::add`] bump both in one call; [`Self::get`] reads the
/// instance's own count, which stays exact when several instances
/// share a process.
#[derive(Debug)]
pub struct InstanceCounter {
    local: AtomicU64,
    total: Counter,
}

impl InstanceCounter {
    /// A zeroed instance count feeding the registry counter `name`.
    ///
    /// # Panics
    ///
    /// As [`counter`]: on an invalid name, or if `name` is already
    /// registered as a different metric kind.
    #[must_use]
    pub fn new(name: &'static str) -> InstanceCounter {
        InstanceCounter {
            local: AtomicU64::new(0),
            total: counter(name),
        }
    }

    /// Adds `n` to this instance and to the registry counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.local.fetch_add(n, Ordering::Relaxed);
        self.total.add(n);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// This instance's count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

/// A registered gauge: a settable signed value (queue depths, inflight
/// requests).
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    cell: &'static AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// The shared storage of one histogram.
#[derive(Debug)]
struct HistogramCore {
    /// Strictly increasing upper bounds; an implicit `+Inf` bucket
    /// follows the last.
    bounds: Vec<f64>,
    /// One cell per bound plus the overflow bucket (non-cumulative).
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values as `f64` bits (updated by CAS — observes
    /// are orders of magnitude rarer than counter bumps).
    sum_bits: AtomicU64,
}

/// A registered fixed-bucket histogram.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    core: &'static HistogramCore,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .core
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.core.bounds.len());
        self.core.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        let _ = self
            .core
            .sum_bits
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |bits| {
                Some((f64::from_bits(bits) + v).to_bits())
            });
    }

    /// Records a duration in seconds.
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Times `f` and records the elapsed seconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.observe_duration(start.elapsed());
        out
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.core.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    #[must_use]
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.core.sum_bits.load(Ordering::Relaxed))
    }

    /// Estimated quantile `q` in `[0, 1]` by linear interpolation
    /// inside the owning bucket. Returns 0.0 on an empty histogram; an
    /// observation in the overflow bucket clamps to the last bound.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        let snapshot: Vec<u64> = self
            .core
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = snapshot.iter().sum();
        if total == 0 {
            return 0.0;
        }
        // Rank of the target observation, 1-based, clamped into range.
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &n) in snapshot.iter().enumerate() {
            if n == 0 {
                continue;
            }
            cum += n;
            if cum >= rank {
                let upper = match self.core.bounds.get(i) {
                    Some(&b) => b,
                    // Overflow bucket: no upper edge to interpolate
                    // toward; clamp to the last finite bound.
                    None => return *self.core.bounds.last().unwrap_or(&0.0),
                };
                let lower = if i == 0 {
                    // First bucket: assume observations start at 0
                    // (every histogram in this tree records
                    // non-negative latencies/times).
                    0.0f64.min(upper)
                } else {
                    self.core.bounds[i - 1]
                };
                let into = n - (cum - rank); // 1 ..= n
                return lower + (upper - lower) * into as f64 / n as f64;
            }
        }
        *self.core.bounds.last().unwrap_or(&0.0)
    }
}

#[derive(Debug)]
enum Metric {
    Counter(&'static AtomicU64),
    Gauge(&'static AtomicI64),
    Histogram(&'static HistogramCore),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// `BTreeMap` so the exposition renders in a stable name order.
static REGISTRY: Mutex<BTreeMap<&'static str, Metric>> = Mutex::new(BTreeMap::new());

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .next()
            .is_some_and(|b| b.is_ascii_alphabetic() || b == b'_' || b == b':')
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
}

/// Locks the registry, shrugging off poisoning: every critical section
/// here either reads or does a single `insert`, so a panic inside one
/// (e.g. the kind-mismatch panic below) cannot leave the map torn.
fn lock_registry() -> std::sync::MutexGuard<'static, BTreeMap<&'static str, Metric>> {
    REGISTRY
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn register<T>(
    name: &'static str,
    make: impl FnOnce() -> (Metric, T),
    reuse: impl FnOnce(&Metric) -> Option<T>,
) -> T {
    assert!(valid_name(name), "invalid metric name `{name}`");
    let mut registry = lock_registry();
    if let Some(existing) = registry.get(name) {
        let kind = existing.kind();
        return reuse(existing)
            .unwrap_or_else(|| panic!("metric `{name}` is already registered as a {kind}"));
    }
    let (metric, handle) = make();
    registry.insert(name, metric);
    handle
}

/// Registers (or fetches) the counter named `name`.
///
/// # Panics
///
/// Panics on an invalid Prometheus name or if `name` is already
/// registered as a different metric kind.
pub fn counter(name: &'static str) -> Counter {
    register(
        name,
        || {
            let cell: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
            (Metric::Counter(cell), Counter { cell })
        },
        |m| match m {
            Metric::Counter(cell) => Some(Counter { cell }),
            _ => None,
        },
    )
}

/// Registers (or fetches) the gauge named `name`.
///
/// # Panics
///
/// Panics on an invalid Prometheus name or if `name` is already
/// registered as a different metric kind.
pub fn gauge(name: &'static str) -> Gauge {
    register(
        name,
        || {
            let cell: &'static AtomicI64 = Box::leak(Box::new(AtomicI64::new(0)));
            (Metric::Gauge(cell), Gauge { cell })
        },
        |m| match m {
            Metric::Gauge(cell) => Some(Gauge { cell }),
            _ => None,
        },
    )
}

/// Registers (or fetches) the histogram named `name` with the given
/// upper bucket bounds (an `+Inf` overflow bucket is implicit). A
/// re-registration returns the existing histogram — the original
/// bounds win.
///
/// # Panics
///
/// Panics on an invalid name, empty or non-increasing `bounds`, or if
/// `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str, bounds: &[f64]) -> Histogram {
    assert!(!bounds.is_empty(), "histogram `{name}` needs >= 1 bound");
    assert!(
        bounds.windows(2).all(|w| w[0] < w[1]) && bounds.iter().all(|b| b.is_finite()),
        "histogram `{name}` bounds must be finite and strictly increasing"
    );
    register(
        name,
        || {
            let core: &'static HistogramCore = Box::leak(Box::new(HistogramCore {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0.0f64.to_bits()),
            }));
            (Metric::Histogram(core), Histogram { core })
        },
        |m| match m {
            Metric::Histogram(core) => Some(Histogram { core }),
            _ => None,
        },
    )
}

/// Reads a registered counter's value by name — `None` if no counter
/// of that name exists. The CLI tables read foreign crates' metrics
/// through this without needing their `LazyLock` statics exported.
#[must_use]
pub fn counter_value(name: &str) -> Option<u64> {
    let registry = lock_registry();
    match registry.get(name) {
        Some(Metric::Counter(cell)) => Some(cell.load(Ordering::Relaxed)),
        _ => None,
    }
}

/// Renders the whole registry in the Prometheus text exposition format
/// (version 0.0.4): one `# TYPE` line per metric, cumulative
/// `_bucket{le="…"}` series plus `_sum`/`_count` for histograms.
#[must_use]
pub fn render_prometheus() -> String {
    let registry = lock_registry();
    let mut out = String::new();
    for (name, metric) in registry.iter() {
        let _ = writeln!(out, "# TYPE {name} {}", metric.kind());
        match metric {
            Metric::Counter(cell) => {
                let _ = writeln!(out, "{name} {}", cell.load(Ordering::Relaxed));
            }
            Metric::Gauge(cell) => {
                let _ = writeln!(out, "{name} {}", cell.load(Ordering::Relaxed));
            }
            Metric::Histogram(core) => {
                let mut cum = 0u64;
                for (i, bound) in core.bounds.iter().enumerate() {
                    cum += core.buckets[i].load(Ordering::Relaxed);
                    let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
                }
                cum += core.buckets[core.bounds.len()].load(Ordering::Relaxed);
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                let sum = f64::from_bits(core.sum_bits.load(Ordering::Relaxed));
                let _ = writeln!(out, "{name}_sum {sum}");
                let _ = writeln!(out, "{name}_count {}", core.count.load(Ordering::Relaxed));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let c = counter("obs_test_concurrent_total");
        let before = c.get();
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get() - before, THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn counter_reregistration_returns_the_same_cell() {
        let a = counter("obs_test_shared_total");
        let b = counter("obs_test_shared_total");
        a.add(3);
        b.add(4);
        assert_eq!(a.get(), b.get());
        assert!(a.get() >= 7);
        assert_eq!(counter_value("obs_test_shared_total"), Some(a.get()));
        assert_eq!(counter_value("obs_test_no_such_metric"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let _ = counter("obs_test_kind_conflict");
        let _ = gauge("obs_test_kind_conflict");
    }

    #[test]
    fn instance_counters_are_exact_and_sum_into_the_registry() {
        let a = InstanceCounter::new("obs_test_instance_total");
        let b = InstanceCounter::new("obs_test_instance_total");
        let before = counter_value("obs_test_instance_total").expect("registered");
        a.add(3);
        b.inc();
        a.inc();
        assert_eq!((a.get(), b.get()), (4, 1));
        assert_eq!(
            counter_value("obs_test_instance_total").expect("registered") - before,
            5
        );
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn instance_counter_kind_conflicts_panic() {
        let _ = histogram("obs_test_instance_conflict", &[1.0]);
        let _ = InstanceCounter::new("obs_test_instance_conflict");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_panic() {
        let _ = counter("not a metric name");
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = gauge("obs_test_gauge");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_quantiles_on_a_known_distribution() {
        let h = histogram(
            "obs_test_quantiles",
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
        );
        // 1..=100 spread evenly over value space 0.01..=10.0: the
        // quantile of q should sit within one bucket of 10 q.
        for i in 1..=1000 {
            h.observe(i as f64 / 100.0);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.sum() - 5005.0).abs() < 1e-6);
        for (q, expect) in [(0.5, 5.0), (0.95, 9.5), (0.99, 9.9)] {
            let got = h.quantile(q);
            assert!(
                (got - expect).abs() <= 1.0,
                "q{q}: got {got}, expected ~{expect}"
            );
        }
        let (p50, p95, p99) = (h.quantile(0.50), h.quantile(0.95), h.quantile(0.99));
        assert!(p50 <= p95 && p95 <= p99);
    }

    #[test]
    fn histogram_overflow_clamps_to_last_bound() {
        let h = histogram("obs_test_overflow", &[1.0, 2.0]);
        h.observe(100.0);
        h.observe(200.0);
        assert_eq!(h.quantile(0.5), 2.0);
        assert_eq!(h.quantile(1.0), 2.0);
    }

    #[test]
    fn empty_histogram_quantile_is_zero() {
        let h = histogram("obs_test_empty", &[1.0]);
        assert_eq!(h.quantile(0.99), 0.0);
    }

    /// A tiny parser over the exposition output: every non-comment line
    /// is `name[{labels}] value`, every `# TYPE` name appears exactly
    /// once, and histogram bucket counts are cumulative.
    #[test]
    fn prometheus_output_parses_without_duplicates() {
        let c = counter("obs_test_expo_total");
        c.add(7);
        let g = gauge("obs_test_expo_gauge");
        g.set(-3);
        let h = histogram("obs_test_expo_seconds", &[0.5, 1.5]);
        h.observe(0.2);
        h.observe(1.0);
        h.observe(9.0);

        let text = render_prometheus();
        let mut typed = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().expect("TYPE line has a name");
                assert!(
                    matches!(parts.next(), Some("counter" | "gauge" | "histogram")),
                    "bad TYPE line: {line}"
                );
                assert!(typed.insert(name.to_string()), "duplicate TYPE for {name}");
                continue;
            }
            assert!(!line.starts_with('#'), "unexpected comment: {line}");
            let (name_part, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in: {line}");
            let base = name_part.split('{').next().unwrap();
            assert!(valid_name(base), "invalid sample name in: {line}");
        }
        // The three metrics we just touched are all present…
        assert!(text.contains("obs_test_expo_total 7"));
        assert!(text.contains("obs_test_expo_gauge -3"));
        // …and the histogram's buckets are cumulative with +Inf = count.
        assert!(text.contains("obs_test_expo_seconds_bucket{le=\"0.5\"} 1"));
        assert!(text.contains("obs_test_expo_seconds_bucket{le=\"1.5\"} 2"));
        assert!(text.contains("obs_test_expo_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("obs_test_expo_seconds_count 3"));
    }
}
