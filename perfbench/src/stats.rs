//! The shared percentile helper: every timing the benchmark prints goes
//! through [`summarize`], which reports the median, the highest percentile
//! of a fixed ladder that still has at least [`TAIL_BEYOND`] samples
//! beyond it, and the sample count.

/// A percentile is reported as a tail only if at least this many samples
/// lie beyond it; fewer make it a reading of single outliers.
pub const TAIL_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first, as exact fractions
/// `(numerator, denominator)` so ranks are computed in integers.
const TAIL_LADDER: [(usize, usize); 6] = [
    (9999, 10_000),
    (999, 1_000),
    (99, 100),
    (95, 100),
    (90, 100),
    (75, 100),
];

/// Median, tail percentile and sample count of one set of samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median (mean of the two middle samples for an even count).
    pub median: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least [`TAIL_BEYOND`] samples beyond it; `None` when the set is too
    /// small for any.
    pub tail: Option<(f64, f64)>,
}

/// Nearest-rank index of the `num/den` quantile in `n` sorted samples:
/// the 1-based rank `ceil(num * n / den)`, clamped to `1..=n`, minus one.
fn rank_index(n: usize, num: usize, den: usize) -> usize {
    (num * n).div_ceil(den).clamp(1, n) - 1
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of `samples` (NaN when empty).
pub fn median(samples: &[f64]) -> f64 {
    median_of_sorted(&sorted(samples))
}

/// The nearest-rank `pct` percentile of `samples` (NaN when empty),
/// regardless of how many samples lie beyond it. `pct` is given in
/// hundredths of a percent so ranks stay exact (`9900` = p99).
pub fn percentile(samples: &[f64], pct_hundredths: usize) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return f64::NAN;
    }
    v[rank_index(v.len(), pct_hundredths, 10_000)]
}

/// Summarize `samples`: median, highest resolvable tail, count.
pub fn summarize(samples: &[f64]) -> Summary {
    let v = sorted(samples);
    let n = v.len();
    let tail = TAIL_LADDER.iter().find_map(|&(num, den)| {
        if n == 0 {
            return None;
        }
        let i = rank_index(n, num, den);
        (n - 1 - i >= TAIL_BEYOND).then(|| (100.0 * num as f64 / den as f64, v[i]))
    });
    Summary {
        n,
        median: median_of_sorted(&v),
        tail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_has_no_median_or_tail() {
        let s = summarize(&[]);
        assert_eq!(s.n, 0);
        assert!(s.median.is_nan());
        assert_eq!(s.tail, None);
    }

    #[test]
    fn small_sets_report_a_median_but_no_tail() {
        let s = summarize(&[3.0]);
        assert_eq!((s.n, s.median, s.tail), (1, 3.0, None));
        let s = summarize(&[5.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.n, s.median, s.tail), (4, 3.0, None));
        let s = summarize(&[9.0, 1.0, 5.0]);
        assert_eq!(s.median, 5.0);
    }

    #[test]
    fn tied_samples_give_the_tied_value_everywhere() {
        // 200 samples: p99 (rank 198) has 2 beyond, p95 (rank 190) has 10.
        let s = summarize(&[7.5; 200]);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.tail, Some((95.0, 7.5)));
        assert_eq!(percentile(&[7.5; 200], 9900), 7.5);
    }

    #[test]
    fn exact_boundary_has_exactly_ten_beyond() {
        // 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((99.0, 990.0)));
        // 999 samples: p99 is rank 990 with only 9 beyond, so p95 is the
        // highest resolvable tail.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((95.0, 950.0)));
        // 40 samples: p75 is rank 30 with 10 beyond; 39 is one short.
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, Some((75.0, 30.0)));
        let v: Vec<f64> = (1..=39).map(f64::from).collect();
        assert_eq!(summarize(&v).tail, None);
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let a: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let b: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(summarize(&a), summarize(&b));
        assert_eq!(percentile(&a, 9000), 89.0);
        assert_eq!(median(&a), 49.5);
    }
}
