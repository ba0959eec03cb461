//! Order statistics for the benchmark's reports: medians, quartiles and
//! nearest-rank percentiles over small samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default *exclusive* method), because that is the routine the acceptance
//! driver applies to this benchmark's outputs — `--selfcheck` and the
//! printed spreads must agree with what the driver will compute.

/// Median, quartiles, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (equal to the second quartile).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`.
    ///
    /// # Panics
    /// Panics if `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Summary {
        let sorted = sorted(values);
        let (q1, median, q3) = quartiles(&sorted);
        Summary {
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// Interquartile range as a share of the median — the spread the
    /// driver holds against each metric's bound.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// `values` in ascending order.
///
/// # Panics
/// Panics if `values` is empty or holds a NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "no samples");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points of ascending `sorted`, computed as
/// Python's `statistics.quantiles(sorted, n=4)` does: cut `i` sits at
/// position `i·(n+1)/4` (1-based), linearly interpolated and clamped to
/// the data. A single sample is its own quartiles.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    let n = sorted.len();
    assert!(n >= 1, "no samples");
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // delta may exceed 4 or go negative only through the clamp, which
        // the Python routine shares: it extrapolates from the edge pair.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least `p` percent of the data at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// Reference values from CPython 3.11:
    /// `statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)` → `[2.75, 5.5, 8.25]`,
    /// `statistics.quantiles([1, 2, 4, 8, 16], n=4)` → `[1.5, 4.0, 12.0]`,
    /// `statistics.quantiles([10, 20], n=4)` → `[7.5, 15.0, 22.5]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
    }

    #[test]
    fn summary_orders_and_measures_spread() {
        let s = Summary::of(&[10.0, 8.0, 9.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Fewer than 100 samples: p99 is the maximum.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 99.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_loud() {
        let _ = median(&[]);
    }
}
