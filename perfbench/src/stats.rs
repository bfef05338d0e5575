//! Order statistics the report is built from.

/// Median of `values` (mean of the middle pair for even counts); `NaN`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// The `p`-th percentile (0..=100) by the nearest-rank rule on a sorted
/// copy: the smallest value with at least `p` % of the samples at or
/// below it. `NaN` for an empty slice.
pub fn percentile(values: &[u64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// A timing summarised over repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub median: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        Summary { median: median(values), mad: mad(values), n: values.len() }
    }

    /// A value that was computed or counted once, not sampled.
    pub fn single(value: f64) -> Self {
        Summary { median: value, mad: 0.0, n: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // Deviations from 3 are 2, 1, 0, 1, 97: their median is 1.
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7, 3, 9], 50.0), 7.0);
        assert_eq!(percentile(&[7], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }
}
