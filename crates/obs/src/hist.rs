//! Fixed-bucket log-linear latency histograms (HdrHistogram-style).
//!
//! Hoisted from `ppq_bench::report` so the same quantile machinery
//! serves both offline bench reports and the live metrics registry;
//! `ppq_bench` re-exports these types, so bench callers are unchanged.

/// Number of linear sub-buckets per power-of-two range of the latency
/// histogram: values are resolved to a relative error of at most
/// `1/SUB_BUCKETS` (≈ 1.6%), HdrHistogram's default precision class.
pub(crate) const SUB_BUCKETS: usize = 64;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Power-of-two ranges tracked above the linear region. The top bucket
/// ends at `2^(SUB_BITS + RANGES)` ns ≈ 1100 s — far beyond any latency a
/// load run can record without the run itself timing out.
const RANGES: usize = 34;

/// Total bucket count of the fixed layout — shared with the atomic
/// variant in the registry so both index identically.
pub(crate) const TOTAL_BUCKETS: usize = SUB_BUCKETS * (RANGES + 1);

/// Largest value the histogram resolves; anything above is clamped
/// into the top bucket.
const MAX_TRACKABLE: u64 = ((2 * SUB_BUCKETS as u64) - 1) << (RANGES as u32 - 1);

/// Bucket index of a value: identity in the unit region, log-linear
/// above it. For `range ≥ 1` a value `v ∈ [64·2^(r-1), 128·2^(r-1))`
/// stores the 6 bits below its leading bit, so the pair `(range, sub)`
/// identifies the interval `[(64+sub)·2^(r-1), (64+sub+1)·2^(r-1))`.
#[inline]
pub(crate) fn bucket_index(nanos: u64) -> usize {
    let nanos = nanos.min(MAX_TRACKABLE);
    if nanos < SUB_BUCKETS as u64 {
        return nanos as usize;
    }
    let msb = 63 - nanos.leading_zeros();
    let range = msb - SUB_BITS + 1;
    let sub = (nanos >> (range - 1)) as usize & (SUB_BUCKETS - 1);
    range as usize * SUB_BUCKETS + sub
}

/// Lowest value that maps to bucket `i` (the reported quantile value;
/// using the lower edge keeps reported percentiles ≤ the true value,
/// never inflating a tail claim).
#[inline]
fn value_of(i: usize) -> u64 {
    let range = (i / SUB_BUCKETS) as u32;
    let sub = (i % SUB_BUCKETS) as u64;
    if range == 0 {
        sub
    } else {
        (sub + SUB_BUCKETS as u64) << (range - 1)
    }
}

/// Fixed-bucket log-linear latency histogram (HdrHistogram-style).
///
/// Values (nanoseconds) up to `SUB_BUCKETS` land in exact unit buckets;
/// above that, each power-of-two range is split into `SUB_BUCKETS` linear
/// sub-buckets, bounding the relative quantization error by
/// `1/SUB_BUCKETS` at every magnitude. Recording is O(1) and allocation
/// free, so it is safe inside a latency-sensitive measurement loop; the
/// layout is fixed at construction, so histograms recorded on different
/// worker threads merge bucket-by-bucket without rebinning.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; TOTAL_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuild from raw parts — the registry's atomic histogram snapshots
    /// into this shape. `count` is derived from the buckets so the
    /// invariant `count == Σ buckets` holds by construction.
    pub(crate) fn from_parts(buckets: Vec<u64>, sum: u128, min: u64, max: u64) -> LatencyHistogram {
        assert_eq!(buckets.len(), TOTAL_BUCKETS);
        let count = buckets.iter().sum();
        LatencyHistogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Record one latency observation in nanoseconds.
    #[inline]
    pub fn record(&mut self, nanos: u64) {
        self.buckets[bucket_index(nanos)] += 1;
        self.count += 1;
        self.sum += nanos as u128;
        self.min = self.min.min(nanos);
        self.max = self.max.max(nanos);
    }

    /// Record a [`std::time::Duration`].
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Fold another histogram (same fixed layout) into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded values in nanoseconds.
    #[inline]
    pub fn sum_nanos(&self) -> u128 {
        self.sum
    }

    /// Smallest recorded value (0 when empty).
    #[inline]
    pub fn min_nanos(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (0 when empty).
    #[inline]
    pub fn max_nanos(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in [0, 1]: the bucket holding the
    /// `ceil(q * count)`-th observation, reported at its lower edge
    /// (clamped to the recorded min/max so exact extremes survive).
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max; // the top observation is tracked exactly
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return value_of(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded values (exact, not bucket-quantized).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Condense into the fixed percentile set the reports use.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_us: self.mean() / 1_000.0,
            min_us: if self.count == 0 {
                0.0
            } else {
                self.min as f64 / 1_000.0
            },
            p50_us: self.value_at_quantile(0.50) as f64 / 1_000.0,
            p90_us: self.value_at_quantile(0.90) as f64 / 1_000.0,
            p99_us: self.value_at_quantile(0.99) as f64 / 1_000.0,
            p999_us: self.value_at_quantile(0.999) as f64 / 1_000.0,
            max_us: self.max as f64 / 1_000.0,
        }
    }
}

/// The percentile digest of one histogram, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencySummary {
    pub count: u64,
    pub mean_us: f64,
    pub min_us: f64,
    pub p50_us: f64,
    pub p90_us: f64,
    pub p99_us: f64,
    pub p999_us: f64,
    pub max_us: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_is_exact_in_unit_region() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS as u64 {
            h.record(v);
        }
        assert_eq!(h.count(), SUB_BUCKETS as u64);
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), SUB_BUCKETS as u64 - 1);
        // Every recorded unit value is recoverable exactly.
        for (q, want) in [(0.5, 31), (0.25, 15)] {
            assert_eq!(h.value_at_quantile(q), want);
        }
    }

    #[test]
    fn histogram_relative_error_is_bounded() {
        // Log-spaced probes across nine decades: the bucket's lower edge
        // must be within 1/SUB_BUCKETS of the true value.
        let mut v = 1u64;
        while v < 1_000_000_000_000 {
            let mut h = LatencyHistogram::new();
            h.record(v);
            let got = h.value_at_quantile(0.5);
            let err = (v as f64 - got as f64).abs() / v as f64;
            assert!(
                err <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "value {v}: reported {got}, rel err {err}"
            );
            assert!(
                got <= v,
                "lower-edge reporting must never exceed the true value"
            );
            v = v * 7 / 2 + 1;
        }
    }

    #[test]
    fn histogram_quantiles_match_exact_on_known_sample() {
        // 1..=10_000 ns: percentiles are analytic.
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        for (q, want) in [
            (0.5, 5_000.0),
            (0.9, 9_000.0),
            (0.99, 9_900.0),
            (0.999, 9_990.0),
        ] {
            let got = h.value_at_quantile(q) as f64;
            assert!(
                (got - want).abs() / want <= 1.0 / SUB_BUCKETS as f64 + 1e-12,
                "q={q}: got {got}, want ~{want}"
            );
        }
        assert_eq!(h.value_at_quantile(1.0), 10_000);
        assert!((h.mean() - 5_000.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge_equals_combined_recording() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut all = LatencyHistogram::new();
        for i in 0..5_000u64 {
            let v = (i * 2_654_435_761) % 50_000_000; // spread over ranges
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(a.value_at_quantile(q), all.value_at_quantile(q), "q={q}");
        }
        assert_eq!(a.summary(), all.summary());
    }

    #[test]
    fn histogram_handles_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0);
        h.record(u64::MAX); // clamped into the top bucket, no panic
        assert_eq!(h.count(), 2);
        assert_eq!(h.value_at_quantile(0.0), 0);
        assert_eq!(h.value_at_quantile(1.0), u64::MAX); // clamped to recorded max
        let empty = LatencyHistogram::new();
        assert_eq!(empty.value_at_quantile(0.5), 0);
        assert_eq!(empty.summary().count, 0);
        assert_eq!(empty.min_nanos(), 0);
    }

    #[test]
    fn from_parts_derives_count_from_buckets() {
        let mut direct = LatencyHistogram::new();
        for v in [5u64, 500, 50_000, 5_000_000] {
            direct.record(v);
        }
        let rebuilt = LatencyHistogram::from_parts(
            direct.buckets.clone(),
            direct.sum,
            direct.min,
            direct.max,
        );
        assert_eq!(rebuilt.count(), direct.count());
        assert_eq!(rebuilt.summary(), direct.summary());
    }
}
