//! Time-series recording for figure reproduction.
//!
//! The paper's figures plot quantities over time (RSS in Fig. 1, MMU
//! overhead and huge-page counts in Figs. 6–7). Experiments attach a
//! [`Recorder`] to the kernel and sample named series at a fixed simulated
//! period; bench targets then render the series as text columns.

use crate::time::Cycles;
use std::collections::BTreeMap;

/// One (time, value) observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Simulated time of the observation, in seconds.
    pub secs: f64,
    /// Observed value.
    pub value: f64,
}

/// How [`TimeSeries::resample`] reduces the samples inside one time bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reduce {
    /// Arithmetic mean of the bin's values (rates, percentages).
    Mean,
    /// Sum of the bin's values (event counts per bin).
    Sum,
    /// Maximum of the bin's values (peaks).
    Max,
}

impl Reduce {
    fn apply(self, values: impl Iterator<Item = f64>) -> f64 {
        let mut n = 0u64;
        let mut sum = 0.0;
        let mut max = f64::NEG_INFINITY;
        for v in values {
            n += 1;
            sum += v;
            max = max.max(v);
        }
        match self {
            Reduce::Mean => {
                if n == 0 {
                    0.0
                } else {
                    sum / n as f64
                }
            }
            Reduce::Sum => sum,
            Reduce::Max => {
                if n == 0 {
                    0.0
                } else {
                    max
                }
            }
        }
    }
}

/// A named sequence of observations ordered by time.
///
/// # Examples
///
/// ```
/// use hawkeye_metrics::TimeSeries;
///
/// let mut rss = TimeSeries::new("rss_mb");
/// rss.push(0.0, 10.0);
/// rss.push(1.0, 42.0);
/// assert_eq!(rss.last().unwrap().value, 42.0);
/// assert_eq!(rss.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// Creates an empty series named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries { name: name.into(), samples: Vec::new() }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation. Times must be non-decreasing:
    /// resampling and figure reconstruction assume it, and an
    /// out-of-order push would corrupt them silently, so debug builds
    /// assert. Merging independently-recorded series (e.g. per-pid
    /// overhead curves in the analyzer) is what [`TimeSeries::merge_sorted`]
    /// is for.
    pub fn push(&mut self, secs: f64, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|s| s.secs <= secs),
            "TimeSeries {:?}: out-of-order push ({} after {})",
            self.name,
            secs,
            self.samples.last().map_or(f64::NAN, |s| s.secs),
        );
        self.samples.push(Sample { secs, value });
    }

    /// Merges two time-sorted series into a new one named `name`,
    /// preserving time order. Stable: on equal timestamps, `self`'s
    /// samples come first. Both inputs must individually be sorted (the
    /// invariant [`TimeSeries::push`] asserts).
    pub fn merge_sorted(&self, other: &TimeSeries, name: impl Into<String>) -> TimeSeries {
        let mut out = TimeSeries::new(name);
        out.samples.reserve(self.samples.len() + other.samples.len());
        let (mut i, mut j) = (0, 0);
        while i < self.samples.len() && j < other.samples.len() {
            if other.samples[j].secs < self.samples[i].secs {
                out.samples.push(other.samples[j]);
                j += 1;
            } else {
                out.samples.push(self.samples[i]);
                i += 1;
            }
        }
        out.samples.extend_from_slice(&self.samples[i..]);
        out.samples.extend_from_slice(&other.samples[j..]);
        out
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All observations in insertion order.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// The most recent observation, if any.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Maximum observed value (`None` if empty).
    pub fn max_value(&self) -> Option<f64> {
        self.samples.iter().map(|s| s.value).fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Resamples onto `bins` fixed-width time bins spanning
    /// `[first.secs, last.secs]`, reducing the samples that fall into each
    /// bin with `reduce`. Empty bins are skipped (no interpolation), so
    /// the result has at most `bins` entries; each carries the bin's
    /// *center* time. Unlike [`TimeSeries::downsample`] (which picks
    /// samples by index and so drifts with sampling density), resampling
    /// produces figure bins aligned on simulated time — what the report
    /// pipeline's sparkline figures want. Deterministic: pure f64
    /// arithmetic over the samples in time order.
    pub fn resample(&self, bins: usize, reduce: Reduce) -> Vec<Sample> {
        if bins == 0 || self.samples.is_empty() {
            return Vec::new();
        }
        let t0 = self.samples[0].secs;
        let t1 = self.samples[self.samples.len() - 1].secs;
        let width = (t1 - t0) / bins as f64;
        if width <= 0.0 {
            // Degenerate span: everything lands in one bin.
            let v = reduce.apply(self.samples.iter().map(|s| s.value));
            return vec![Sample { secs: t0, value: v }];
        }
        let mut out = Vec::new();
        let mut start = 0;
        for b in 0..bins {
            // The final bin is closed on the right so `t1` is included.
            let hi = if b + 1 == bins { f64::INFINITY } else { t0 + width * (b + 1) as f64 };
            let mut end = start;
            while end < self.samples.len() && self.samples[end].secs < hi {
                end += 1;
            }
            if end > start {
                let v = reduce.apply(self.samples[start..end].iter().map(|s| s.value));
                out.push(Sample { secs: t0 + width * (b as f64 + 0.5), value: v });
            }
            start = end;
        }
        out
    }

    /// Downsamples to at most `n` evenly spaced samples (by index), always
    /// keeping the final sample. Useful when printing long runs as figures.
    pub fn downsample(&self, n: usize) -> Vec<Sample> {
        if n == 0 || self.samples.is_empty() {
            return Vec::new();
        }
        if self.samples.len() <= n {
            return self.samples.clone();
        }
        let stride = self.samples.len() as f64 / n as f64;
        let mut out: Vec<Sample> = (0..n).map(|i| self.samples[(i as f64 * stride) as usize]).collect();
        let last = *self.samples.last().expect("non-empty");
        if out.last().map(|s| s.secs) != Some(last.secs) {
            *out.last_mut().expect("n > 0") = last;
        }
        out
    }
}

/// A collection of named [`TimeSeries`], keyed by name.
///
/// Experiments record into a `Recorder`; bench targets iterate it to print
/// figure data. Keys are ordered (BTreeMap) so output is deterministic.
///
/// # Examples
///
/// ```
/// use hawkeye_metrics::Recorder;
///
/// let mut rec = Recorder::new();
/// rec.record("mmu_overhead", 0.5, 31.0);
/// rec.record("mmu_overhead", 1.0, 12.0);
/// assert_eq!(rec.series("mmu_overhead").unwrap().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    series: BTreeMap<String, TimeSeries>,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `(secs, value)` to the series called `name`, creating it on
    /// first use.
    pub fn record(&mut self, name: &str, secs: f64, value: f64) {
        self.series
            .entry(name.to_string())
            .or_insert_with(|| TimeSeries::new(name))
            .push(secs, value);
    }

    /// Convenience: record using a [`Cycles`] timestamp.
    pub fn record_at(&mut self, name: &str, at: Cycles, value: f64) {
        self.record(name, at.as_secs(), value);
    }

    /// Looks up a series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Iterates all series in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TimeSeries)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Names of all recorded series.
    pub fn names(&self) -> Vec<&str> {
        self.series.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_roundtrip() {
        let mut s = TimeSeries::new("x");
        assert!(s.is_empty());
        s.push(0.0, 1.0);
        s.push(2.0, 5.0);
        assert_eq!(s.name(), "x");
        assert_eq!(s.len(), 2);
        assert_eq!(s.max_value(), Some(5.0));
        assert_eq!(s.last().unwrap().secs, 2.0);
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let mut s = TimeSeries::new("x");
        for i in 0..100 {
            s.push(i as f64, i as f64);
        }
        let d = s.downsample(10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0].secs, 0.0);
        assert_eq!(d.last().unwrap().secs, 99.0);
        assert!(s.downsample(0).is_empty());
        assert_eq!(s.downsample(1000).len(), 100);
    }

    #[test]
    fn resample_bins_on_time_not_index() {
        let mut s = TimeSeries::new("x");
        // Dense early samples, one late sample: index-based downsampling
        // would put most picks early; time bins must not.
        for i in 0..9 {
            s.push(i as f64 * 0.1, 1.0);
        }
        s.push(10.0, 5.0);
        let bins = s.resample(2, Reduce::Mean);
        assert_eq!(bins.len(), 2);
        assert_eq!(bins[0].secs, 2.5);
        assert_eq!(bins[0].value, 1.0);
        assert_eq!(bins[1].secs, 7.5);
        assert_eq!(bins[1].value, 5.0);
    }

    #[test]
    fn resample_reduces_sum_and_max_and_skips_empty_bins() {
        let mut s = TimeSeries::new("x");
        s.push(0.0, 1.0);
        s.push(0.5, 2.0);
        s.push(4.0, 7.0); // bins over (1,2) and (2,3) are empty
        let sum = s.resample(4, Reduce::Sum);
        assert_eq!(
            sum.iter().map(|b| (b.secs, b.value)).collect::<Vec<_>>(),
            vec![(0.5, 3.0), (3.5, 7.0)]
        );
        let max = s.resample(1, Reduce::Max);
        assert_eq!(max[0].value, 7.0);
    }

    #[test]
    fn resample_degenerate_cases() {
        let empty = TimeSeries::new("e");
        assert!(empty.resample(4, Reduce::Mean).is_empty());
        let mut point = TimeSeries::new("p");
        point.push(3.0, 1.0);
        point.push(3.0, 3.0);
        let bins = point.resample(4, Reduce::Mean);
        assert_eq!(bins.len(), 1, "zero-width span collapses to one bin");
        assert_eq!(bins[0].value, 2.0);
        assert!(point.resample(0, Reduce::Sum).is_empty());
    }

    #[test]
    #[should_panic(expected = "out-of-order push")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_asserts() {
        let mut s = TimeSeries::new("x");
        s.push(2.0, 1.0);
        s.push(1.0, 2.0);
    }

    #[test]
    fn merge_sorted_interleaves_stably() {
        let mut a = TimeSeries::new("a");
        a.push(0.0, 1.0);
        a.push(2.0, 2.0);
        a.push(2.0, 3.0);
        let mut b = TimeSeries::new("b");
        b.push(1.0, 10.0);
        b.push(2.0, 20.0);
        b.push(5.0, 30.0);
        let m = a.merge_sorted(&b, "merged");
        assert_eq!(m.name(), "merged");
        let got: Vec<(f64, f64)> = m.samples().iter().map(|s| (s.secs, s.value)).collect();
        // Equal timestamps: all of `a`'s samples precede `b`'s.
        assert_eq!(
            got,
            vec![(0.0, 1.0), (1.0, 10.0), (2.0, 2.0), (2.0, 3.0), (2.0, 20.0), (5.0, 30.0)]
        );
        let empty = TimeSeries::new("e");
        assert_eq!(empty.merge_sorted(&b, "eb").len(), 3);
        assert_eq!(b.merge_sorted(&empty, "be").len(), 3);
    }

    #[test]
    fn recorder_orders_by_name() {
        let mut r = Recorder::new();
        r.record("b", 0.0, 1.0);
        r.record("a", 0.0, 2.0);
        r.record("b", 1.0, 3.0);
        assert_eq!(r.names(), vec!["a", "b"]);
        assert_eq!(r.series("b").unwrap().len(), 2);
        assert!(r.series("zz").is_none());
    }
}
