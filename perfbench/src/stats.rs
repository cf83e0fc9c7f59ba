//! Order statistics and the percentile-reporting rule.
//!
//! A tail percentile is only worth reporting when the sample reaches past
//! it: the harness reports the highest of [`PERCENTILES`] that has at least
//! [`MIN_BEYOND`] samples above it, and a workload that names a fixed
//! percentile (`p99_ms`) sizes its sample so that percentile qualifies.

/// Percentiles the harness may report, ascending, in tenths of a percent
/// (so 99.9 is exact).
pub const PERCENTILES_PERMILLE: [u32; 4] = [500, 900, 990, 999];

/// Samples that must lie strictly beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `permille`-th percentile in `n`
/// sorted samples: `ceil(n · p)`, at least 1.
fn rank(n: usize, permille: u32) -> usize {
    (n * permille as usize).div_ceil(1000).max(1)
}

/// Number of samples strictly beyond the nearest-rank percentile.
pub fn beyond(n: usize, permille: u32) -> usize {
    n.saturating_sub(rank(n, permille))
}

/// Whether `n` samples support reporting the `permille`-th percentile.
pub fn supports(n: usize, permille: u32) -> bool {
    beyond(n, permille) >= MIN_BEYOND
}

/// The highest reportable percentile (in permille) for `n` samples, if any.
pub fn highest_supported(n: usize) -> Option<u32> {
    PERCENTILES_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| supports(n, p))
}

/// Nearest-rank percentile of an ascending slice. `f64::INFINITY` entries
/// (failed operations) sort last, so failures push tails up as they should.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), permille) - 1]
}

/// Sorts a sample ascending (total order; infinities last).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Human label of a permille percentile: `p99`, `p99.9`.
pub fn label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("p{}", permille / 10)
    } else {
        format!("p{}.{}", permille / 10, permille % 10)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 990), 10);
        assert!(supports(1000, 990));
        assert_eq!(beyond(999, 990), 9);
        assert!(!supports(999, 990));
    }

    #[test]
    fn highest_supported_picks_the_deepest_tail_with_ten_beyond() {
        assert_eq!(highest_supported(5), None);
        assert_eq!(highest_supported(20), Some(500));
        assert_eq!(highest_supported(100), Some(900));
        assert_eq!(highest_supported(999), Some(900));
        assert_eq!(highest_supported(1000), Some(990));
        assert_eq!(highest_supported(9_999), Some(990));
        assert_eq!(highest_supported(10_000), Some(999));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 500.0);
        assert_eq!(percentile(&s, 990), 990.0);
        assert_eq!(percentile(&s, 999), 999.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn failures_count_as_missing_the_tail() {
        let mut v: Vec<f64> = vec![1.0; 990];
        v.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let s = sorted(v);
        assert_eq!(percentile(&s, 990), 1.0);
        let mut v: Vec<f64> = vec![1.0; 989];
        v.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert_eq!(percentile(&sorted(v), 990), f64::INFINITY);
    }

    #[test]
    fn median_and_labels() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(label(990), "p99");
        assert_eq!(label(999), "p99.9");
    }
}
