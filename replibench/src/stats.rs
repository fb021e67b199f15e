//! Order statistics over timing samples.

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Percentiles a tail may be reported at, in tenths of a percent,
/// highest first.
const TAIL_PERMILLE: [u64; 5] = [999, 990, 950, 900, 500];

/// The nearest-rank position (1-based) of the `permille`-th percentile
/// among `count` samples.
fn rank(count: usize, permille: u64) -> usize {
    ((permille * count as u64).div_ceil(1000) as usize).clamp(1, count.max(1))
}

/// The highest percentile of [`TAIL_PERMILLE`] that leaves at least ten
/// samples beyond it among `count` samples (50 when none does), in
/// tenths of a percent.
pub fn tail_permille(count: usize) -> u64 {
    TAIL_PERMILLE
        .into_iter()
        .find(|&p| count >= 10 && count - rank(count, p) >= 10)
        .unwrap_or(500)
}

/// The `permille`-th percentile (nearest rank) of `sorted`, which must
/// be in ascending order; 0 for an empty slice.
pub fn percentile(sorted: &[f64], permille: u64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_permille(10_000), 999);
        assert_eq!(tail_permille(9_999), 990);
        assert_eq!(tail_permille(1_000), 990);
        assert_eq!(tail_permille(200), 950);
        assert_eq!(tail_permille(100), 900);
        assert_eq!(tail_permille(5), 500);
    }

    #[test]
    fn nearest_rank_percentile() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 500), 50.0);
        assert_eq!(percentile(&sorted, 990), 99.0);
        assert_eq!(percentile(&sorted, 1000), 100.0);
    }
}
