//! Order statistics for the benchmark's reports.
//!
//! Two shapes of data come through here: short lists of per-round values
//! (setup times, throughputs), summarised exactly by [`Summary`], and
//! millions of per-row latencies, folded into a fixed-size log-linear
//! [`LatencyHist`] so that memory does not grow with the run. Every
//! reported timing carries its sample count, and a tail percentile is
//! only reported where at least [`TAIL_SAMPLES`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: u64 = 10;

/// Percentiles tried, highest first, when the sample cannot support p99.
const FALLBACK_PERCENTILES: [u64; 4] = [99, 95, 90, 50];

/// Median of a sample (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so
/// the spread printed here is the one the acceptance check computes.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// The highest of p99, p95, p90 and p50 that has at least
/// [`TAIL_SAMPLES`] samples beyond it, or `None` below 20 samples.
pub fn supported_percentile(count: u64) -> Option<f64> {
    FALLBACK_PERCENTILES
        .into_iter()
        .find(|p| count.saturating_sub(rank(*p, count)) >= TAIL_SAMPLES)
        .map(|p| p as f64)
}

/// Nearest rank of percentile `p` in `count` samples (integer math, so
/// p90 of 100 samples is exactly rank 90).
fn rank(p: u64, count: u64) -> u64 {
    (p * count).div_ceil(100).clamp(1, count.max(1))
}

/// Median and quartiles of a list of per-round values, with its count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            count: values.len(),
            median: median(values),
            q1,
            q3,
        }
    }
}

/// Sub-buckets per power of two: relative error below 0.013%, so a
/// percentile near 200 ms resolves to 50 µs.
const SUB_BITS: u32 = 12;
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are exact (microseconds).
const LINEAR: u64 = SUB;
/// Powers of two covered above [`LINEAR`].
const OCTAVES: u64 = 40;

/// Log-linear histogram of microsecond samples: exact below 8192 µs,
/// then 4096 sub-buckets per power of two.
#[derive(Debug, Clone)]
pub struct LatencyHist {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            buckets: vec![0; (LINEAR + OCTAVES * SUB) as usize],
            count: 0,
            max: 0,
        }
    }
}

impl LatencyHist {
    fn index(v: u64) -> usize {
        if v < LINEAR {
            return v as usize;
        }
        let shift = (63 - v.leading_zeros()) - SUB_BITS;
        let mant = (v >> shift) - SUB;
        (LINEAR + shift as u64 * SUB + mant).min(LINEAR + OCTAVES * SUB - 1) as usize
    }

    /// Midpoint of bucket `idx`.
    fn value_of(idx: usize) -> f64 {
        let idx = idx as u64;
        if idx < LINEAR {
            return idx as f64;
        }
        let (shift, mant) = ((idx - LINEAR) / SUB, (idx - LINEAR) % SUB);
        let lo = (SUB + mant) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    pub fn record(&mut self, micros: u64) {
        self.buckets[Self::index(micros)] += 1;
        self.count += 1;
        self.max = self.max.max(micros);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile `p` (0–100) in microseconds; 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p * self.count as f64 / 100.0).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value_of(i).min(self.max as f64);
            }
        }
        self.max as f64
    }

    /// The tail the sample supports: `(percentile, value µs)`, p99 when at
    /// least 1000 samples were taken (see [`supported_percentile`]); the
    /// maximum below 20 samples.
    pub fn tail(&self) -> (f64, f64) {
        match supported_percentile(self.count) {
            Some(p) => (p, self.percentile(p)),
            None => (100.0, self.max as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0));
    }

    #[test]
    fn summary_carries_count() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.count, s.median, s.q1, s.q3), (5, 3.0, 1.5, 4.5));
    }

    #[test]
    fn supported_percentile_needs_ten_beyond() {
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(999), Some(95.0));
        assert_eq!(supported_percentile(200), Some(95.0));
        assert_eq!(supported_percentile(199), Some(90.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(0), None);
    }

    #[test]
    fn hist_is_exact_in_linear_range() {
        let mut h = LatencyHist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(50.0), 50.0);
        assert_eq!(h.percentile(90.0), 90.0);
        assert_eq!(h.percentile(100.0), 100.0);
        assert_eq!(h.tail(), (90.0, 90.0));
    }

    #[test]
    fn hist_relative_error_is_small() {
        for v in [300u64, 9_000, 12_345, 207_000, 3_000_000, 1 << 40] {
            let mut h = LatencyHist::default();
            h.record(v);
            h.record(v * 2); // keeps max above v
            let got = h.percentile(50.0);
            let err = (got - v as f64).abs() / v as f64;
            assert!(err < 0.00013, "{v}: got {got}, error {err}");
        }
    }

    #[test]
    fn tiny_hist_reports_max() {
        let mut h = LatencyHist::default();
        h.record(5);
        h.record(9);
        assert_eq!(h.tail(), (100.0, 9.0));
        assert_eq!(LatencyHist::default().percentile(50.0), 0.0);
    }
}
