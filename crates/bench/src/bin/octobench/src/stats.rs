//! Medians, percentiles and spreads. Small, exact, and tested: every
//! number the benchmark prints goes through one of these.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice, so a missing sample can never read as 0.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it — the tail a sample of `n` can support.
pub fn highest_supported_percentile(n: usize) -> f64 {
    // 1 - q is 1/den exactly; in integers, so that n = 100 supports p90
    [(0.9999, 10_000), (0.999, 1_000), (0.99, 100), (0.9, 10)]
        .into_iter()
        .find(|(_, den)| n >= 10 * den)
        .map_or(0.5, |(q, _)| q)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default "exclusive" method), which is what the
/// benchmark driver uses to judge run-to-run spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |i: usize| {
        // quantile i of 4 sits at 1-based position i*(n+1)/4: interpolate
        // between its neighbours, extrapolating when it falls off an end
        let pos = (i * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (v[j] - v[j - 1]) * (pos - j as f64)
    };
    (at(1), at(3))
}

/// `rung - below`, clamped at zero. The flag is true when the clamp
/// fired: a self time can only go negative through noise or a ladder
/// bug, and either way the caller must say so instead of printing it.
pub fn self_time(rung: f64, below: f64) -> (f64, bool) {
    let d = rung - below;
    if d < 0.0 {
        (0.0, true)
    } else {
        (d, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        // median of chunk rates ignores one slow chunk
        assert_eq!(
            median(&[100.0, 101.0, 99.0, 100.0, 12.0, 100.0, 102.0, 98.0]),
            100.0
        );
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(15), 0.5);
        assert_eq!(highest_supported_percentile(99), 0.5);
        assert_eq!(highest_supported_percentile(100), 0.9);
        assert_eq!(highest_supported_percentile(999), 0.9);
        assert_eq!(highest_supported_percentile(1_000), 0.99);
        assert_eq!(highest_supported_percentile(10_000), 0.999);
        assert_eq!(highest_supported_percentile(200_000), 0.9999);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn self_time_clamps_and_flags() {
        assert_eq!(self_time(10.0, 4.0), (6.0, false));
        assert_eq!(self_time(4.0, 10.0), (0.0, true));
        assert_eq!(self_time(5.0, 5.0), (0.0, false));
    }
}
