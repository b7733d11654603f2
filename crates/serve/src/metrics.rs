//! Latency-SLO metrics: a fixed-memory latency histogram, and the exact
//! percentile summary it is checked against.
//!
//! Serving SLOs are stated as tail percentiles (p50/p99), not means — a
//! recommendation that misses its latency budget is dropped by the caller,
//! so the tail *is* the product metric. Both summaries use the standard
//! nearest-rank-with-interpolation definition. [`summarize_latencies_us`]
//! reads every sample; [`LatencyHistogram`] is what an engine records into,
//! because its memory does not grow with traffic: a sample list costs 8
//! bytes per request for as long as the engine runs.

/// Sub-buckets per power of two, as bits: a bucket is ≤ 1/32 of its lower bound wide.
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// One bucket per value below 64 µs, then 32 per power of two up to 2³⁵ µs
/// (≈ 9.5 h). Larger values land in the top bucket.
const BUCKETS: usize = 31 * SUB;

/// The bucket `us` is counted in.
fn bucket_of(us: u64) -> usize {
    if us < SUB as u64 {
        return us as usize;
    }
    let octave = us.ilog2() - SUB_BITS;
    let sub = (us >> octave) as usize & (SUB - 1);
    (((octave as usize + 1) << SUB_BITS) | sub).min(BUCKETS - 1)
}

/// The smallest value counted in bucket `i`.
const fn lower_bound(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    ((SUB + (i & (SUB - 1))) as u64) << ((i >> SUB_BITS) - 1)
}

static LOWER_BOUNDS: [u64; BUCKETS] = {
    let mut bounds = [0; BUCKETS];
    let mut i = 0;
    while i < BUCKETS {
        bounds[i] = lower_bound(i);
        i += 1;
    }
    bounds
};

/// Percentile summary of a latency sample set, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Worst observed.
    pub max_us: f64,
}

impl LatencySummary {
    /// The all-zero summary for an empty sample set.
    pub fn empty() -> Self {
        LatencySummary {
            count: 0,
            mean_us: 0.0,
            p50_us: 0.0,
            p90_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
        }
    }
}

/// Linear-interpolated percentile (`q` in `[0, 1]`) of `count` ascending
/// samples, `at(r)` being the one of rank `r`. Panics when `count` is 0.
fn interpolate(count: usize, q: f64, at: impl Fn(usize) -> u64) -> f64 {
    assert!(count > 0, "percentile of empty sample set");
    assert!((0.0..=1.0).contains(&q), "percentile q out of range: {q}");
    let pos = q * (count - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    at(lo) as f64 * (1.0 - frac) + at(hi) as f64 * frac
}

/// The summary of `count` samples summing to `sum` with maximum `max`,
/// ranked by `at`.
fn summarize(count: usize, sum: u128, max: u64, at: impl Fn(usize) -> u64) -> LatencySummary {
    if count == 0 {
        return LatencySummary::empty();
    }
    let pct = |q| interpolate(count, q, &at);
    LatencySummary {
        count,
        mean_us: sum as f64 / count as f64,
        p50_us: pct(0.50),
        p90_us: pct(0.90),
        p99_us: pct(0.99),
        max_us: max as f64,
    }
}

/// Sorts `samples` in place and summarizes it exactly: the reference a
/// [`LatencyHistogram`]'s summary is tested against.
pub fn summarize_latencies_us(samples: &mut [u64]) -> LatencySummary {
    samples.sort_unstable();
    let sum = samples.iter().map(|&x| x as u128).sum();
    let max = samples.last().copied().unwrap_or(0);
    summarize(samples.len(), sum, max, |r| samples[r])
}

/// Latencies in microseconds, counted in fixed log-spaced buckets (8 KB
/// whatever the traffic). Values below 64 µs are kept exactly; above, each
/// power of two is cut into 32 buckets, so a percentile reads at most one
/// bucket (≤ 1/32 of the value) low. Count, mean and max are exact.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Counts one sample.
    pub fn record(&mut self, us: u64) {
        self.counts[bucket_of(us)] += 1;
        self.count += 1;
        self.sum += u128::from(us);
        self.max = self.max.max(us);
    }

    /// Adds `other`'s samples: the histogram of both sample sets.
    pub fn merge(&mut self, other: &Self) {
        for (n, m) in self.counts.iter_mut().zip(&other.counts) {
            *n += m;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Every sample, ascending, each at its bucket's lower bound.
    pub fn iter(&self) -> impl Iterator<Item = &u64> + '_ {
        let runs = self.counts.iter().zip(&LOWER_BOUNDS);
        runs.flat_map(|(&n, lower)| std::iter::repeat_n(lower, n as usize))
    }

    /// The percentiles of [`Self::iter`]'s samples, with the exact count,
    /// mean and max.
    pub fn summary(&self) -> LatencySummary {
        let at = |r| *self.iter().nth(r).expect("rank below count");
        summarize(self.len(), self.sum, self.max, at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn histogram_of(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        samples.iter().for_each(|&us| h.record(us));
        h
    }

    /// Bucketed percentiles read low by less than one bucket's width —
    /// 1 µs in the exact range, at most 1/32 of the value above it — and
    /// count, mean and max are the exact summary's.
    fn assert_within_one_bucket(samples: &[u64]) {
        let got = histogram_of(samples).summary();
        let want = summarize_latencies_us(&mut samples.to_vec());
        assert_eq!(got.count, want.count);
        assert_eq!(got.mean_us, want.mean_us);
        assert_eq!(got.max_us, want.max_us);
        for (got, want) in [
            (got.p50_us, want.p50_us),
            (got.p90_us, want.p90_us),
            (got.p99_us, want.p99_us),
        ] {
            let low = want - got;
            assert!(
                (0.0..1.0 + want / 32.0).contains(&low),
                "{got} vs exact {want}"
            );
        }
    }

    #[test]
    fn percentiles_of_known_set() {
        let pct = |q| interpolate(100, q, |r| r as u64 + 1);
        assert!((pct(0.0) - 1.0).abs() < 1e-12);
        assert!((pct(1.0) - 100.0).abs() < 1e-12);
        assert!((pct(0.5) - 50.5).abs() < 1e-12);
        assert!((pct(0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn summary_handles_singletons_and_empties() {
        assert_eq!(summarize_latencies_us(&mut []), LatencySummary::empty());
        assert_eq!(
            LatencyHistogram::default().summary(),
            LatencySummary::empty()
        );
        let s = summarize_latencies_us(&mut [42]);
        assert_eq!(s.count, 1);
        assert_eq!(s.p50_us, 42.0);
        assert_eq!(s.p99_us, 42.0);
        assert_eq!(s.max_us, 42.0);
        assert_eq!(histogram_of(&[42]).summary(), s);
    }

    #[test]
    fn summary_sorts_unsorted_input() {
        let mut v = vec![30, 10, 20];
        let s = summarize_latencies_us(&mut v);
        assert_eq!(s.p50_us, 20.0);
        assert_eq!(s.max_us, 30.0);
        assert!((s.mean_us - 20.0).abs() < 1e-12);
    }

    #[test]
    fn the_histogram_is_at_most_8_kb() {
        assert!(std::mem::size_of::<LatencyHistogram>() <= 8 * 1024);
    }

    #[test]
    fn values_below_64_us_iterate_exactly() {
        let samples: Vec<u64> = (0..64).rev().chain([7, 0, 63]).collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let h = histogram_of(&samples);
        assert_eq!(h.iter().copied().collect::<Vec<_>>(), sorted);
        assert_eq!(h.summary(), summarize_latencies_us(&mut sorted));
    }

    #[test]
    fn edge_values_land_in_the_bucket_that_bounds_them() {
        let mut edges = vec![0, 31, 32, 63, 64];
        for k in 6..35 {
            edges.extend([(1u64 << k) - 1, 1 << k]);
        }
        for us in edges {
            let i = bucket_of(us);
            let width = lower_bound(i + 1) - lower_bound(i);
            assert!(
                lower_bound(i) <= us && us < lower_bound(i) + width,
                "{us} in bucket {i}"
            );
            assert!(
                width == 1 || width <= us / 32,
                "{us}: bucket {i} is {width} wide"
            );
            if us.is_power_of_two() {
                assert_eq!(lower_bound(i), us, "2^k opens a bucket");
            }
        }
    }

    #[test]
    fn a_value_above_the_top_bucket_clamps_there_and_max_stays_exact() {
        let top = LOWER_BOUNDS[BUCKETS - 1];
        for us in [1u64 << 35, 1 << 40, u64::MAX] {
            let h = histogram_of(&[5, us]);
            assert_eq!(h.iter().copied().collect::<Vec<_>>(), vec![5, top]);
            let s = h.summary();
            assert_eq!(s.max_us, us as f64);
            assert_eq!(s.mean_us, (5 + us as u128) as f64 / 2.0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn percentiles_land_within_one_bucket_of_the_exact_summary(
            samples in prop::collection::vec(0u64..1 << 34, 1..400),
            scale in 0u32..20,
        ) {
            let samples: Vec<u64> = samples.iter().map(|&us| us >> scale).collect();
            assert_within_one_bucket(&samples);
        }

        #[test]
        fn merging_equals_recording_the_concatenation(
            a in prop::collection::vec(0u64..1 << 36, 0..200),
            b in prop::collection::vec(0u64..100_000, 0..200),
        ) {
            let mut merged = histogram_of(&a);
            merged.merge(&histogram_of(&b));
            prop_assert_eq!(merged, histogram_of(&[a, b].concat()));
        }

        #[test]
        fn iteration_is_ascending_and_as_long_as_len(
            samples in prop::collection::vec(0u64..1 << 36, 0..300),
        ) {
            let h = histogram_of(&samples);
            let seen: Vec<u64> = h.iter().copied().collect();
            prop_assert_eq!(seen.len(), h.len());
            prop_assert!(seen.windows(2).all(|w| w[0] <= w[1]));
        }
    }
}
