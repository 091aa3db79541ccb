//! Window-scoped views of the process-global `obs` registry.
//!
//! Every counter and histogram in the program is process-global and
//! monotonic, so set-up work (store warming, a daemon's prime request,
//! health probes) would leak into a measurement read as an absolute
//! value. A [`Window`] is a parsed snapshot of the registry's
//! Prometheus exposition; `end.since(&start)` is exactly what the
//! measured window added.

use std::collections::BTreeMap;

/// One histogram: upper bounds plus cumulative counts, the last cell
/// being the `+Inf` bucket.
#[derive(Debug, Clone, Default, PartialEq)]
struct Hist {
    bounds: Vec<f64>,
    cumulative: Vec<f64>,
    sum: f64,
}

/// Counters, gauges and histograms by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Window {
    values: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

impl Window {
    /// Snapshots the live registry.
    #[must_use]
    pub fn now() -> Window {
        Window::parse(&obs::metrics::render_prometheus())
    }

    /// Parses Prometheus text exposition as `obs` renders it.
    #[must_use]
    pub fn parse(text: &str) -> Window {
        let mut w = Window::default();
        // The histogram whose series follow the latest `# TYPE` line.
        let mut current_hist: Option<String> = None;
        for line in text.lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let mut parts = decl.split_whitespace();
                current_hist = match (parts.next(), parts.next()) {
                    (Some(name), Some("histogram")) => {
                        w.hists.insert(name.to_string(), Hist::default());
                        Some(name.to_string())
                    }
                    _ => None,
                };
                continue;
            }
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let hist = current_hist
                .as_deref()
                .and_then(|h| Some((h, series.strip_prefix(h)?)));
            match hist {
                Some((h, rest)) => {
                    let entry = w.hists.get_mut(h).expect("declared above");
                    if let Some(le) = rest
                        .strip_prefix("_bucket{le=\"")
                        .and_then(|r| r.strip_suffix("\"}"))
                    {
                        if le != "+Inf" {
                            entry.bounds.push(le.parse().unwrap_or(f64::INFINITY));
                        }
                        entry.cumulative.push(value);
                    } else if rest == "_sum" {
                        entry.sum = value;
                    }
                }
                None => {
                    w.values.insert(series.to_string(), value);
                }
            }
        }
        w
    }

    /// What happened between `start` and this snapshot.
    #[must_use]
    pub fn since(&self, start: &Window) -> Window {
        let values = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), v - start.values.get(k).copied().unwrap_or(0.0)))
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, h)| {
                let before = start.hists.get(k);
                let cumulative = h
                    .cumulative
                    .iter()
                    .enumerate()
                    .map(|(i, c)| c - before.and_then(|b| b.cumulative.get(i)).unwrap_or(&0.0))
                    .collect();
                let sum = h.sum - before.map_or(0.0, |b| b.sum);
                (
                    k.clone(),
                    Hist {
                        bounds: h.bounds.clone(),
                        cumulative,
                        sum,
                    },
                )
            })
            .collect();
        Window { values, hists }
    }

    /// A counter or gauge; 0 when the metric is not registered.
    #[must_use]
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sum of a histogram's observations.
    #[must_use]
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.sum)
    }

    /// Number of a histogram's observations.
    #[must_use]
    pub fn hist_count(&self, name: &str) -> f64 {
        self.hists
            .get(name)
            .and_then(|h| h.cumulative.last().copied())
            .unwrap_or(0.0)
    }

    /// Quantile `q` of a histogram, interpolating linearly inside the
    /// owning bucket the way `obs` does (the first bucket starts at 0;
    /// the overflow bucket clamps to the last bound). 0 when empty.
    #[must_use]
    pub fn hist_quantile(&self, name: &str, q: f64) -> f64 {
        let Some(h) = self.hists.get(name) else {
            return 0.0;
        };
        let total = h.cumulative.last().copied().unwrap_or(0.0);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * total).ceil().clamp(1.0, total);
        let mut below = 0.0;
        for (i, &cum) in h.cumulative.iter().enumerate() {
            if cum >= rank && cum > below {
                let Some(&upper) = h.bounds.get(i) else {
                    return h.bounds.last().copied().unwrap_or(0.0);
                };
                let lower = if i == 0 { 0.0 } else { h.bounds[i - 1] };
                return lower + (upper - lower) * (rank - below) / (cum - below);
            }
            below = cum;
        }
        h.bounds.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE a_total counter\na_total 5\n\
        # TYPE lat histogram\n\
        lat_bucket{le=\"0.001\"} 2\nlat_bucket{le=\"0.01\"} 2\nlat_bucket{le=\"+Inf\"} 2\n\
        lat_sum 0.001\nlat_count 2\n";
    const AFTER: &str = "# TYPE a_total counter\na_total 12\n\
        # TYPE b_total counter\nb_total 3\n\
        # TYPE lat histogram\n\
        lat_bucket{le=\"0.001\"} 3\nlat_bucket{le=\"0.01\"} 6\nlat_bucket{le=\"+Inf\"} 7\n\
        lat_sum 0.05\nlat_count 7\n";

    #[test]
    fn deltas_exclude_everything_before_the_window() {
        let w = Window::parse(AFTER).since(&Window::parse(BEFORE));
        assert_eq!(w.value("a_total"), 7.0);
        assert_eq!(w.value("b_total"), 3.0, "registered inside the window");
        assert_eq!(w.value("missing_total"), 0.0);
        assert_eq!(w.hist_count("lat"), 5.0);
        assert!((w.hist_sum("lat") - 0.049).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_the_bucket() {
        let w = Window::parse(AFTER).since(&Window::parse(BEFORE));
        // Window buckets: 1 in (0, 1ms], 3 in (1ms, 10ms], 1 overflow.
        assert!((w.hist_quantile("lat", 0.2) - 0.001).abs() < 1e-12);
        // Rank 3 of 5 is the 2nd of 3 in the second bucket.
        let p50 = w.hist_quantile("lat", 0.5);
        assert!((p50 - (0.001 + 0.009 * 2.0 / 3.0)).abs() < 1e-12, "{p50}");
        assert_eq!(w.hist_quantile("lat", 0.99), 0.01, "overflow clamps");
        assert_eq!(Window::default().hist_quantile("lat", 0.5), 0.0);
    }

    #[test]
    fn reads_the_live_registry() {
        let c = obs::metrics::counter("e2ebench_window_test_total");
        let start = Window::now();
        c.add(4);
        assert_eq!(
            Window::now()
                .since(&start)
                .value("e2ebench_window_test_total"),
            4.0
        );
    }
}
