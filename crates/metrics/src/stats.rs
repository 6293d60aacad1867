//! Nearest-rank percentiles over `f64` samples.

/// The `p`-th percentile (0–100) of `samples` by nearest-rank.
///
/// Returns 0 for an empty slice; `p <= 0` returns the minimum. Samples are
/// ordered by [`f64::total_cmp`], so NaN entries sort last (as the largest
/// values) instead of panicking.
///
/// # Examples
///
/// ```
/// use hawkeye_metrics::stats::percentile;
///
/// let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 50.0), 3.0);
/// assert_eq!(percentile(&xs, 100.0), 5.0);
/// ```
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest-rank: rank 1 is the minimum (so p=0 maps to it, not to a
    // clamped rank 0), rank n the maximum.
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    sorted[rank.min(n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 1.0), 1.0);
        assert_eq!(percentile(&xs, 25.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 2.0);
        assert_eq!(percentile(&xs, 75.0), 3.0);
        assert_eq!(percentile(&xs, 99.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn percentile_p0_returns_minimum() {
        let xs = [9.0, 7.0, 8.0];
        assert_eq!(percentile(&xs, 0.0), 7.0);
        assert_eq!(percentile(&xs, -5.0), 7.0, "negative p clamps to minimum");
        assert_eq!(percentile(&[42.0], 0.0), 42.0);
    }

    #[test]
    fn percentile_tolerates_nan_samples() {
        // Regression: `partial_cmp().unwrap()` used to panic here. NaN now
        // sorts last (total order), so finite percentiles stay meaningful.
        let xs = [f64::NAN, 2.0, 1.0, f64::NAN, 3.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 40.0), 2.0);
        assert_eq!(percentile(&xs, 60.0), 3.0);
        assert!(percentile(&xs, 100.0).is_nan(), "NaN is the top of the order");
        assert!(!percentile(&[f64::NAN], 50.0).is_finite());
    }
}
