//! Correlation-based feature pruning.
//!
//! The paper removes features whose pairwise Pearson correlation exceeds
//! 80 %; within each offending pair, the feature with the *larger total
//! correlation against all other features* is dropped. This runs last in
//! the preprocessing chain, and the surviving column indices become part of
//! the saved configuration so the runtime predictor builds only the kept
//! features.

use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::MlError;

/// Pearson correlation matrix of the columns of `x` (`cols × cols`).
///
/// Zero-variance columns get correlation 0 against everything (and 1 with
/// themselves) rather than NaN.
pub fn correlation_matrix(x: &Matrix) -> Matrix {
    let d = x.cols();
    let n = x.rows() as f64;
    let means = x.col_means();
    let stds = x.col_stds();
    let mut corr = Matrix::zeros(d, d);
    for i in 0..d {
        corr.set(i, i, 1.0);
        for j in i + 1..d {
            let v = if stds[i] == 0.0 || stds[j] == 0.0 {
                0.0
            } else {
                let mut cov = 0.0;
                for row in x.row_iter() {
                    cov += (row[i] - means[i]) * (row[j] - means[j]);
                }
                cov / (n * stds[i] * stds[j])
            };
            corr.set(i, j, v);
            corr.set(j, i, v);
        }
    }
    corr
}

/// Fitted pruner: the surviving column indices, in original order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorrelationPruner {
    /// Correlation magnitude above which a pair is considered redundant.
    pub threshold: f64,
    /// Indices of retained features.
    pub kept: Vec<usize>,
}

impl CorrelationPruner {
    /// Decide which features to keep.
    ///
    /// Iteratively: find the pair with `|corr| > threshold`; drop the
    /// member with the larger summed `|corr|` against all still-alive
    /// features; repeat until no pair exceeds the threshold.
    pub fn fit(x: &Matrix, threshold: f64) -> Result<Self, MlError> {
        if x.cols() == 0 {
            return Err(MlError::BadShape("no features".into()));
        }
        let corr = correlation_matrix(x);
        let d = x.cols();
        let mut alive = vec![true; d];
        loop {
            // Total |corr| of each alive feature against other alive ones.
            let totals: Vec<f64> = (0..d)
                .map(|i| {
                    if !alive[i] {
                        return 0.0;
                    }
                    (0..d).filter(|&j| j != i && alive[j]).map(|j| corr.get(i, j).abs()).sum()
                })
                .collect();
            // Worst offending pair among alive features.
            let mut worst: Option<(usize, usize, f64)> = None;
            for i in 0..d {
                if !alive[i] {
                    continue;
                }
                for (j, &alive_j) in alive.iter().enumerate().skip(i + 1) {
                    if !alive_j {
                        continue;
                    }
                    let c = corr.get(i, j).abs();
                    if c > threshold && worst.is_none_or(|(_, _, w)| c > w) {
                        worst = Some((i, j, c));
                    }
                }
            }
            match worst {
                None => break,
                Some((i, j, _)) => {
                    let drop = if totals[i] >= totals[j] { i } else { j };
                    alive[drop] = false;
                }
            }
        }
        let kept = (0..d).filter(|&i| alive[i]).collect();
        Ok(Self { threshold, kept })
    }

    /// Apply the pruning to a matrix.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if self.kept.iter().any(|&i| i >= x.cols()) {
            return Err(MlError::BadShape("kept index out of range".into()));
        }
        Ok(x.select_cols(&self.kept))
    }

    /// Apply the pruning to a single feature row.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        self.kept.iter().map(|&i| row[i]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correlation_of_identical_columns_is_one() {
        let x = Matrix::from_vec(4, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 5.0, 5.0]);
        let c = correlation_matrix(&x);
        assert!((c.get(0, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_of_anticorrelated_columns() {
        let x = Matrix::from_vec(4, 2, vec![1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0]);
        let c = correlation_matrix(&x);
        assert!((c.get(0, 1) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_columns_near_zero() {
        let x = Matrix::from_vec(
            8,
            2,
            vec![
                1.0, 1.0, 2.0, -1.0, 3.0, 1.0, 4.0, -1.0, 5.0, 1.0, 6.0, -1.0, 7.0, 1.0, 8.0, -1.0,
            ],
        );
        let c = correlation_matrix(&x);
        // Exact value for this 8-sample construction is ≈ −0.218.
        assert!(c.get(0, 1).abs() < 0.25);
    }

    #[test]
    fn constant_column_correlation_is_zero_not_nan() {
        let x = Matrix::from_vec(3, 2, vec![5.0, 1.0, 5.0, 2.0, 5.0, 3.0]);
        let c = correlation_matrix(&x);
        assert_eq!(c.get(0, 1), 0.0);
        assert!(c.all_finite());
    }

    #[test]
    fn pruner_drops_duplicate_feature() {
        // col0 and col1 identical; col2 independent.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let v = i as f64;
                vec![v, v, if i % 2 == 0 { 1.0 } else { -1.0 }]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let p = CorrelationPruner::fit(&x, 0.8).unwrap();
        assert_eq!(p.kept.len(), 2);
        assert!(p.kept.contains(&2));
        // Exactly one of the duplicated pair survives.
        assert_eq!(p.kept.iter().filter(|&&i| i < 2).count(), 1);
    }

    #[test]
    fn pruner_drops_most_connected_feature_first() {
        // col0 correlates with col1 and col2 (it is v; they are v + tiny
        // independent wiggles); col1 and col2 correlate with each other
        // too, but col0's total correlation is highest... all three are
        // mutually > 0.8, so after dropping the hub one more drop may be
        // needed. Final result must have no pair above threshold.
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let v = i as f64;
                let w1 = if i % 2 == 0 { 0.5 } else { -0.5 };
                let w2 = if i % 3 == 0 { 0.5 } else { -0.5 };
                vec![v, v + w1, v + w2]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let p = CorrelationPruner::fit(&x, 0.8).unwrap();
        let pruned = p.transform(&x).unwrap();
        let c = correlation_matrix(&pruned);
        for i in 0..pruned.cols() {
            for j in i + 1..pruned.cols() {
                assert!(c.get(i, j).abs() <= 0.8 + 1e-9);
            }
        }
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let x = Matrix::from_vec(3, 3, vec![1.0, 1.0, 9.0, 2.0, 2.0, 7.0, 3.0, 3.0, 8.0]);
        let p = CorrelationPruner::fit(&x, 0.8).unwrap();
        let t = p.transform(&x).unwrap();
        assert_eq!(p.transform_row(x.row(1)), t.row(1).to_vec());
    }

    #[test]
    fn uncorrelated_features_all_kept() {
        let rows: Vec<Vec<f64>> =
            (0..30).map(|i| vec![i as f64, if i % 2 == 0 { 1.0 } else { -1.0 }]).collect();
        let x = Matrix::from_rows(&rows);
        let p = CorrelationPruner::fit(&x, 0.8).unwrap();
        assert_eq!(p.kept, vec![0, 1]);
    }
}
