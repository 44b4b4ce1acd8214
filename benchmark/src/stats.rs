//! Exact order statistics over recorded samples (no histogram buckets).

/// Samples needed beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile read off sorted samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// The quantile actually reported: the requested one, or the highest
    /// one that still has [`MIN_BEYOND`] samples beyond it.
    pub q: f64,
    pub samples: usize,
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `q·n` samples at or below it. When fewer than
/// [`MIN_BEYOND`] samples lie beyond that rank, the rank is lowered until
/// they do (with 10 samples or fewer, the minimum is reported) and `q`
/// says which quantile that is.
pub fn percentile(sorted: &[f64], q: f64) -> Percentile {
    let n = sorted.len();
    assert!(n > 0, "percentile of no samples");
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n);
    let supported = n.saturating_sub(MIN_BEYOND).max(1);
    let rank = wanted.min(supported);
    Percentile {
        value: sorted[rank - 1],
        q: if rank == wanted {
            q
        } else {
            rank as f64 / n as f64
        },
        samples: n,
    }
}

/// Time-weighted percentile of ascending `sorted` durations: the smallest
/// duration such that the longer ones together take at most `1 - q` of
/// the total. A closed loop has one request in flight at every instant, so
/// this is the latency of the request that a caller arriving at a random
/// instant finds in its way, which a stall raises however few requests
/// it hits.
pub fn time_weighted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let allowed = (1.0 - q) * sorted.iter().sum::<f64>();
    let mut longer = 0.0;
    for &v in sorted.iter().rev() {
        longer += v;
        if longer > allowed {
            return v;
        }
    }
    sorted[0]
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// Median of unsorted values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_is_exact() {
        let v = ramp(1000);
        assert_eq!(percentile(&v, 0.5).value, 500.0);
        assert_eq!(percentile(&v, 0.99).value, 990.0);
        assert_eq!(percentile(&v, 0.99).q, 0.99);
        assert_eq!(percentile(&v, 0.99).samples, 1000);
        // 2000 samples: rank 1980, 20 beyond.
        assert_eq!(percentile(&ramp(2000), 0.99).value, 1980.0);
    }

    #[test]
    fn percentile_without_ten_samples_beyond_is_lowered() {
        // 500 samples: p99 is rank 495 with only 5 beyond; rank 490 is
        // the highest with 10 beyond.
        let p = percentile(&ramp(500), 0.99);
        assert_eq!(p.value, 490.0);
        assert!((p.q - 0.98).abs() < 1e-12);
        // Exactly enough: 1000 samples leave 10 beyond rank 990.
        assert_eq!(percentile(&ramp(1000), 0.99).q, 0.99);
        // Tiny sample: falls back to the minimum, never panics.
        assert_eq!(percentile(&ramp(5), 0.99).value, 1.0);
    }

    #[test]
    fn time_weighted_percentile_sees_a_rare_stall() {
        // 9900 requests of 10 us and one stall of 1500 us: 1.5 % of the
        // time, 0.01 % of the requests.
        let mut v = vec![10.0; 9900];
        v.push(1500.0);
        assert_eq!(percentile(&v, 0.99).value, 10.0);
        assert_eq!(time_weighted(&v, 0.99), 1500.0);
        assert_eq!(time_weighted(&v, 0.98), 10.0);
        assert_eq!(time_weighted(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
