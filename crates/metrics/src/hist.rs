//! The one histogram: a log-bucketed, mergeable distribution over `u64`
//! with deterministic percentiles, in two layouts.
//!
//! [`Histogram<SUB, N>`] splits every octave of the value space into
//! `2^SUB` sub-buckets keyed by the `SUB` mantissa bits below the leading
//! one. Two layouts are in use:
//!
//! * [`LogHistogram`] (`SUB = 0`) — one bucket per power of two. The
//!   registry's histograms (fault service cycles, walk cycles, lock hold
//!   and retry times) and the analyzer's distributions use it.
//! * [`QuantileSketch`] (`SUB = 2`) — four buckets per octave, a 25 %
//!   relative error bar, for the fleet's per-epoch SLO percentiles.
//!
//! Bookkeeping is pure integer, so identical observation sequences give
//! identical percentiles on every platform.
//!
//! **Exact-merge contract**: every field — bucket counts, count, sum, min,
//! max — is additive (or a min/max), so [`Histogram::merge`] over any
//! sharding of an observation stream produces a histogram `==` to
//! ingesting the stream into one. This is what makes hot paths free to
//! batch observations outside the registry lock, and per-epoch fleet
//! series reducible over host groups with no dependence on the worker
//! count.

/// Log-bucketed histogram over `u64` with `2^SUB` sub-buckets per octave
/// and `N = (65 − SUB) · 2^SUB` buckets.
///
/// Bucket layout (index → values):
/// * `0..2^SUB` — the exact values `0..2^SUB` (bucket 0 holds zeros);
/// * `((e − SUB + 1) << SUB) | m` — values with floor-log2 `e ≥ SUB` whose
///   `SUB` mantissa bits below the leading one equal `m`.
///
/// `N` is a separate parameter only because stable Rust cannot size an
/// array from `SUB`; constructing a histogram with any other `N` fails to
/// compile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram<const SUB: u32, const N: usize> {
    counts: [u64; N],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// One bucket per power of two: bucket 0 holds zeros, bucket `i ≥ 1`
/// holds `[2^(i−1), 2^i)`. Percentiles resolve to the selected bucket's
/// **upper** bound, so they are within a factor of 2 above the truth.
pub type LogHistogram = Histogram<0, 65>;

/// Four sub-buckets per octave. Percentiles resolve to the selected
/// bucket's **lower** bound, so they are within 25 % below the truth and
/// exact for streams that only hold bucket boundaries.
pub type QuantileSketch = Histogram<2, 252>;

impl<const SUB: u32, const N: usize> Default for Histogram<SUB, N> {
    fn default() -> Self {
        const { assert!(N == (65 - SUB as usize) << SUB, "N must be (65 - SUB) << SUB") };
        Histogram { counts: [0; N], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl<const SUB: u32, const N: usize> Histogram<SUB, N> {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket holding `v`: with `s` the number of low bits dropped
    /// (`floor_log2(v) − SUB`, at least 0), the index is `s · 2^SUB` plus
    /// the value's top `SUB + 1` bits.
    fn bucket(v: u64) -> usize {
        let s = (v | 1).ilog2().saturating_sub(SUB);
        ((s as usize) << SUB) + (v >> s) as usize
    }

    /// The smallest value in bucket `i`.
    fn lo(i: usize) -> u64 {
        let s = (i >> SUB).saturating_sub(1);
        ((i - (s << SUB)) as u64) << s
    }

    /// The largest value in bucket `i`.
    fn hi(i: usize) -> u64 {
        let s = (i >> SUB).saturating_sub(1);
        Self::lo(i) + ((1u64 << s) - 1)
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation, rounded down (0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// True when nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `p`-th percentile (0–100): a bound of the bucket holding the
    /// rank-`⌈p/100·n⌉` observation, clamped to the observed `[min, max]`
    /// (0 when empty). The upper bound for [`LogHistogram`], the lower
    /// bound for [`QuantileSketch`] — see the aliases.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                let bound = if SUB == 0 { Self::hi(i) } else { Self::lo(i) };
                return bound.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one. Exact: merging shards of a
    /// stream equals ingesting the whole stream (see the module docs).
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-tree SplitMix64 (the kernel's rng lives above this crate
    /// in the dependency graph).
    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn buckets_tile_the_value_space<const SUB: u32, const N: usize>() {
        let (bucket, lo, hi) =
            (Histogram::<SUB, N>::bucket, Histogram::<SUB, N>::lo, Histogram::<SUB, N>::hi);
        assert_eq!(lo(0), 0);
        assert_eq!(hi(N - 1), u64::MAX);
        for i in 0..N {
            assert_eq!(bucket(lo(i)), i, "SUB={SUB}: lo of bucket {i} maps home");
            assert_eq!(bucket(hi(i)), i, "SUB={SUB}: hi of bucket {i} maps home");
            if i + 1 < N {
                assert_eq!(hi(i) + 1, lo(i + 1), "SUB={SUB}: bucket {i} abuts {}", i + 1);
            }
        }
    }

    #[test]
    fn buckets_tile_the_value_space_in_both_layouts() {
        buckets_tile_the_value_space::<0, 65>();
        buckets_tile_the_value_space::<2, 252>();
        // SUB = 0 is the power-of-two layout: bucket i ≥ 1 is [2^(i−1), 2^i).
        for i in 1..65 {
            assert_eq!(LogHistogram::lo(i), 1 << (i - 1));
        }
    }

    fn empty_reads_zero<const SUB: u32, const N: usize>() {
        let h = Histogram::<SUB, N>::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.percentile(99.9), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn empty_histograms_read_zero() {
        empty_reads_zero::<0, 65>();
        empty_reads_zero::<2, 252>();
    }

    /// A fixed stream whose percentiles were captured from the two
    /// pre-merge implementations. Upper vs lower bound changes p50/p90 in
    /// both layouts, so swapping the rule fails here.
    #[test]
    fn golden_percentiles_match_both_layouts() {
        let mut rng = SplitMix64(0x601D);
        let stream: Vec<u64> = (0..1000)
            .map(|_| {
                let r = rng.next();
                (r >> 24) >> (r % 40) // log-uniform over [0, 2^40)
            })
            .collect();
        let mut log = LogHistogram::new();
        let mut sketch = QuantileSketch::new();
        for &v in &stream {
            log.observe(v);
            sketch.observe(v);
        }
        let ps = [0.0, 50.0, 90.0, 99.0, 99.9, 100.0];
        assert_eq!(
            ps.map(|p| log.percentile(p)),
            [0, 524_287, 68_719_476_735, 1_043_450_987_055, 1_043_450_987_055, 1_043_450_987_055]
        );
        assert_eq!(
            ps.map(|p| sketch.percentile(p)),
            [0, 458_752, 51_539_607_552, 687_194_767_360, 962_072_674_304, 962_072_674_304]
        );
        assert_eq!(log.mean(), 35_355_103_254);
        assert_eq!(sketch.mean(), 35_355_103_254);
    }

    #[test]
    fn log_histogram_resolves_to_upper_bounds() {
        let mut h = LogHistogram::new();
        for v in [0, 1, 2, 3, 4, 1000, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.percentile(0.0), 0, "p0 resolves to the zero bucket");
        assert_eq!(h.percentile(50.0), 3, "rank 4 is 3, in [2, 4)");
        assert_eq!(h.percentile(100.0), u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
    }

    #[test]
    fn sketch_quantiles_are_exact_on_bucket_boundaries() {
        // Feed only bucket lower boundaries: quantiles must come back
        // exactly (the sketch resolves to bucket lows and clamps to the
        // observed range).
        let boundaries: Vec<u64> = (4..64usize)
            .flat_map(|e| (0..4u64).map(move |sub| (4 + sub) << (e - 2)))
            .collect();
        let mut s = QuantileSketch::new();
        for &b in &boundaries {
            s.observe(b);
        }
        let n = boundaries.len();
        for (k, &b) in boundaries.iter().enumerate() {
            // Percentile that selects rank k+1: aim at the half-step so
            // f64 rounding in ⌈p/100·n⌉ cannot tip the rank either way.
            let p = 100.0 * (k as f64 + 0.5) / n as f64;
            assert_eq!(s.percentile(p), b, "rank {} of {n}", k + 1);
        }
        assert_eq!(s.percentile(0.0), boundaries[0]);
        assert_eq!(s.percentile(100.0), *boundaries.last().unwrap());
    }

    #[test]
    fn quantile_error_is_bounded_per_layout() {
        let mut log = LogHistogram::new();
        let mut sketch = QuantileSketch::new();
        for v in 1..=100_000u64 {
            log.observe(v);
            sketch.observe(v);
        }
        for (p, truth) in [(50.0, 50_000.0), (90.0, 90_000.0), (99.0, 99_000.0), (99.9, 99_900.0)]
        {
            let got = sketch.percentile(p) as f64;
            let rel = (got - truth).abs() / truth;
            assert!(rel <= 0.25, "sketch p{p}: {got} vs {truth} (rel {rel:.3})");
            let got = log.percentile(p) as f64;
            assert!((truth..=2.0 * truth).contains(&got), "log p{p}: {got} vs {truth}");
        }
        assert_eq!(sketch.mean(), 50_000);
        assert_eq!(log.mean(), 50_000);
    }

    fn merge_of_shards_equals_single_ingestion<const SUB: u32, const N: usize>() {
        let mut rng = SplitMix64(0x9A17);
        let stream: Vec<u64> = (0..10_000)
            .map(|_| {
                // Mix magnitudes: zeros, small exact values, and wide-range
                // cycle-like numbers.
                let r = rng.next();
                match r % 8 {
                    0 => 0,
                    1 => r % 4,
                    2..=5 => r % 1_000_000,
                    _ => r,
                }
            })
            .collect();
        let mut whole = Histogram::<SUB, N>::new();
        for &v in &stream {
            whole.observe(v);
        }
        for shards in [1usize, 2, 4, 8] {
            let mut parts = vec![Histogram::<SUB, N>::new(); shards];
            for (i, &v) in stream.iter().enumerate() {
                parts[i % shards].observe(v);
            }
            let mut merged = Histogram::<SUB, N>::new();
            for p in &parts {
                merged.merge(p);
            }
            assert_eq!(merged, whole, "SUB={SUB}, {shards} shards");
        }
        // Merging tracks the extremes, including a shard's zero.
        let (mut a, mut b) = (Histogram::<SUB, N>::new(), Histogram::<SUB, N>::new());
        a.observe(10);
        b.observe(1000);
        b.observe(0);
        a.merge(&b);
        assert_eq!((a.count(), a.sum(), a.min(), a.max()), (3, 1010, 0, 1000));
    }

    #[test]
    fn merge_of_shards_equals_single_ingestion_in_both_layouts() {
        merge_of_shards_equals_single_ingestion::<0, 65>();
        merge_of_shards_equals_single_ingestion::<2, 252>();
    }
}
