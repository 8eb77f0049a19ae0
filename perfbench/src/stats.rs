//! Order statistics used by the report: nearest-rank percentiles, the
//! "at least ten samples beyond" rule for tail percentiles, each input's
//! fastest timings, and geomeans.

/// Percentiles the report may quote, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly above a quoted percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples, computed in
/// whole tenths of a percent so that e.g. p99.9 of 10 000 is exactly 9 990.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).max(1)
}

/// `true` when at least [`MIN_BEYOND`] of `n` samples lie beyond `p`.
pub fn quotable(n: usize, p: f64) -> bool {
    n > 0 && n - rank(n, p).min(n) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples can support, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| quotable(n, p))
}

/// Nearest-rank percentile `p` of ascending `sorted`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// The `keep` smallest values of each group, pooled and sorted ascending.
/// Groups shorter than `keep` contribute all their values.
pub fn pooled_fastest(groups: &[Vec<f64>], keep: usize) -> Vec<f64> {
    let mut pooled = Vec::new();
    for group in groups {
        let mut g = group.clone();
        g.sort_by(f64::total_cmp);
        g.truncate(keep);
        pooled.extend(g);
    }
    pooled.sort_by(f64::total_cmp);
    pooled
}

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive `values`; a zero entry makes it zero.
pub fn geomean(values: &[f64]) -> f64 {
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert!(!quotable(99, 90.0));
        assert!(quotable(100, 90.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
    }

    #[test]
    fn tail_percentile_climbs_with_sample_count() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in 1..2_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(n - rank(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn pooled_fastest_keeps_the_smallest_of_each_group() {
        let groups = vec![vec![5.0, 1.0, 3.0], vec![2.0, 9.0, 4.0], vec![0.5]];
        assert_eq!(pooled_fastest(&groups, 2), vec![0.5, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(pooled_fastest(&groups, 1), vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[0.0, 4.0]), 0.0);
    }
}
