//! Order statistics over timing samples.

/// 1-based nearest rank of percentile `p` (in `[0, 1]`) over `n`
/// samples. The small epsilon keeps `0.99 * 1000` at rank 990 despite
/// binary rounding.
fn rank(n: usize, p: f64) -> usize {
    (((p * n as f64) - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample:
/// the smallest sample with at least a share `p` of all samples at or
/// below it.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// Whether percentile `p` over `n` samples has at least ten samples
/// beyond it — the rule for reporting a tail percentile at all.
#[must_use]
pub fn has_ten_beyond(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// Median of an unsorted sample (nearest rank, so always a sample).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Throughput that a short stall cannot move: `durations` (the measured
/// time each operation accounts for, in completion order) are grouped
/// into consecutive slices of at least `slice` seconds, each slice's
/// rate is its operation count over its time, and the mean of the
/// middle half of the slice rates is returned. Unlike the median, that
/// mean moves smoothly when a run's slices fall into two speeds. A
/// trailing slice shorter than `slice` is dropped unless it is the only
/// one.
#[must_use]
pub fn slice_rate(durations: &[f64], slice: f64) -> f64 {
    let mut rates = Vec::new();
    let (mut n, mut secs) = (0usize, 0.0);
    for d in durations {
        n += 1;
        secs += d;
        if secs >= slice {
            rates.push(n as f64 / secs);
            (n, secs) = (0, 0.0);
        }
    }
    if rates.is_empty() && n > 0 {
        rates.push(n as f64 / secs);
    }
    rates.sort_by(f64::total_cmp);
    let middle = &rates[rates.len() / 4..rates.len() - rates.len() / 4];
    if middle.is_empty() {
        0.0
    } else {
        middle.iter().sum::<f64>() / middle.len() as f64
    }
}

/// A tail latency and whether it is the true p99 (at least ten samples
/// beyond it) or, for short runs, the slowest sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub is_p99: bool,
}

/// The p99 of an ascending-sorted, non-empty sample when it has ten
/// samples beyond it, else the maximum.
#[must_use]
pub fn p99_or_max(sorted: &[f64]) -> Tail {
    if has_ten_beyond(sorted.len(), 0.99) {
        Tail {
            value: percentile(sorted, 0.99),
            is_p99: true,
        }
    } else {
        Tail {
            value: *sorted.last().expect("non-empty sample"),
            is_p99: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn slice_rate_averages_the_middle_half_and_ignores_a_stall() {
        // Slices of eight 0.125 s operations, one of them stalled.
        let mut d = vec![0.125; 100];
        d[35] = 5.0;
        assert_eq!(slice_rate(&d, 1.0), 8.0);
        // One operation longer than a slice is its own slice.
        assert!((slice_rate(&[4.0], 1.0) - 0.25).abs() < 1e-12);
        // A short trailing slice is dropped.
        assert!((slice_rate(&[0.5, 0.5, 0.1], 1.0) - 2.0).abs() < 1e-12);
        assert_eq!(slice_rate(&[], 1.0), 0.0);
        // Slices at 1, 2, 3 and 4 per second: the middle two average.
        let d = [
            1.0,
            0.5,
            0.5,
            1.0 / 3.0,
            1.0 / 3.0,
            1.0 / 3.0,
            0.25,
            0.25,
            0.25,
            0.25,
        ];
        assert!((slice_rate(&d, 0.99) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!has_ten_beyond(999, 0.99));
        assert!(has_ten_beyond(1000, 0.99));
        assert!(has_ten_beyond(20, 0.5));
        assert!(!has_ten_beyond(19, 0.5));
        assert!(!has_ten_beyond(0, 0.5));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            p99_or_max(&short),
            Tail {
                value: 999.0,
                is_p99: false
            }
        );
        let long: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            p99_or_max(&long),
            Tail {
                value: 990.0,
                is_p99: true
            }
        );
    }
}
