//! Summary statistics used by every reported timing.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns NaN for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), interpolated linearly
/// between the two nearest ranks. Returns NaN for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest percentile that still has at least ten samples beyond
/// it: with `n` sorted samples this is the sample at position `n - 11`,
/// the `100 * (n - 10) / n`-th percentile. Returns `(percentile, value)`,
/// or `None` when fewer than eleven samples exist.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some((100.0 * (n - 10) as f64 / n as f64, v[n - 11]))
}

/// A timing summarised the way every latency here is reported.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// Percentile of [`Summary::tail`] (see [`tail`]); NaN when too few samples.
    pub tail_pct: f64,
    /// Value at `tail_pct`; NaN when too few samples.
    pub tail: f64,
}

/// Median and tail of `values`.
pub fn summarize(values: &[f64]) -> Summary {
    let (tail_pct, tail) = tail(values).unwrap_or((f64::NAN, f64::NAN));
    Summary {
        count: values.len(),
        p50: median(values),
        tail_pct,
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let v: Vec<f64> = (0..1000).map(f64::from).rev().collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 99.0);
        assert_eq!(value, 989.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), 10);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (0..11).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(value, 0.0);
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_percentile_grows_with_sample_count() {
        let small: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail(&small).unwrap(), (90.0, 89.0));
        let large: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(tail(&large).unwrap(), (99.9, 9989.0));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), median(&v));
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
        assert!(quantile(&[], 0.25).is_nan());
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
