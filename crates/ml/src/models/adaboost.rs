//! AdaBoost.R2 regression boosting (Drucker, 1997; the regression variant
//! of Freund & Schapire's AdaBoost referenced by the paper).
//!
//! Each round trains a weak tree on rows *resampled* according to the
//! current weights, computes the weighted average loss `L̄` of that tree,
//! converts it to a confidence `β = L̄/(1−L̄)`, and up-weights the rows the
//! tree got wrong. Prediction is the **weighted median** of the stage
//! predictions under weights `ln(1/β)` — the defining quirk of .R2.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::models::tree::{ColumnRanks, DecisionTree};
use crate::models::Regressor;
use crate::MlError;

/// AdaBoost.R2 model and hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaBoostR2 {
    /// Maximum boosting rounds (may stop early on a perfect/terrible fit).
    pub n_rounds: usize,
    /// Depth of each weak tree (AdaBoost favours shallow learners, but
    /// scikit-learn's regressor default is a fairly deep tree).
    pub max_depth: usize,
    /// RNG seed for weighted resampling.
    pub seed: u64,
    /// Fitted stages.
    pub stages: Vec<DecisionTree>,
    /// Per-stage weights `ln(1/β)`.
    pub stage_weights: Vec<f64>,
}

impl Default for AdaBoostR2 {
    fn default() -> Self {
        Self { n_rounds: 50, max_depth: 6, seed: 0, stages: Vec::new(), stage_weights: Vec::new() }
    }
}

/// Weighted median of `(value, weight)` pairs: smallest value whose
/// cumulative weight reaches half the total.
fn weighted_median(pairs: &mut [(f64, f64)]) -> f64 {
    debug_assert!(!pairs.is_empty());
    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite predictions"));
    let total: f64 = pairs.iter().map(|p| p.1).sum();
    let mut cum = 0.0;
    for &(v, w) in pairs.iter() {
        cum += w;
        if cum >= 0.5 * total {
            return v;
        }
    }
    pairs.last().expect("non-empty").0
}

impl Regressor for AdaBoostR2 {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::BadShape("empty training data".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::BadShape("label length mismatch".into()));
        }
        let n = x.rows();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut weights = vec![1.0 / n as f64; n];
        let ranks = ColumnRanks::new(x);
        self.stages.clear();
        self.stage_weights.clear();

        for round in 0..self.n_rounds {
            // Weighted resampling via inverse-CDF draws.
            let mut cdf = Vec::with_capacity(n);
            let mut acc = 0.0;
            for &w in &weights {
                acc += w;
                cdf.push(acc);
            }
            let total = acc;
            let sample: Vec<usize> = (0..n)
                .map(|_| {
                    let u = rng.gen_range(0.0..total);
                    cdf.partition_point(|&c| c < u).min(n - 1)
                })
                .collect();

            let mut tree = DecisionTree {
                max_depth: self.max_depth,
                seed: self.seed.wrapping_add(round as u64 + 1),
                ..DecisionTree::default()
            };
            tree.fit_ranked(x, y, &sample, &ranks);

            // Linear loss normalised by the largest error.
            let errors: Vec<f64> =
                (0..n).map(|i| (tree.predict_row(x.row(i)) - y[i]).abs()).collect();
            let max_err = errors.iter().cloned().fold(0.0f64, f64::max);
            if max_err == 0.0 {
                // Perfect stage: give it a large weight and stop.
                self.stages.push(tree);
                self.stage_weights.push(10.0);
                break;
            }
            let avg_loss: f64 =
                errors.iter().zip(&weights).map(|(&e, &w)| (e / max_err) * w).sum::<f64>()
                    / weights.iter().sum::<f64>();
            if avg_loss >= 0.5 {
                // Weak learner no better than chance: stop (keep at least
                // one stage so the model is usable).
                if self.stages.is_empty() {
                    self.stages.push(tree);
                    self.stage_weights.push(1e-3);
                }
                break;
            }
            let beta = avg_loss / (1.0 - avg_loss);
            // Down-weight rows the stage predicted well.
            for (w, &e) in weights.iter_mut().zip(&errors) {
                *w *= beta.powf(1.0 - e / max_err);
            }
            let sum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= sum;
            }
            self.stages.push(tree);
            self.stage_weights.push((1.0 / beta).ln());
        }

        if self.stages.is_empty() {
            return Err(MlError::Numeric("no usable boosting stage".into()));
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert!(!self.stages.is_empty(), "predict before fit");
        let mut pairs: Vec<(f64, f64)> = self
            .stages
            .iter()
            .zip(&self.stage_weights)
            .map(|(t, &w)| (t.predict_row(row), w))
            .collect();
        weighted_median(&mut pairs)
    }

    fn is_fitted(&self) -> bool {
        !self.stages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use crate::models::test_support::nonlinear_dataset;

    #[test]
    fn weighted_median_basics() {
        let mut p = vec![(1.0, 1.0), (2.0, 1.0), (3.0, 1.0)];
        assert_eq!(weighted_median(&mut p), 2.0);
        // Heavy weight drags the median.
        let mut p = vec![(1.0, 10.0), (2.0, 1.0), (3.0, 1.0)];
        assert_eq!(weighted_median(&mut p), 1.0);
    }

    #[test]
    fn boosting_improves_on_single_weak_tree() {
        let (x, y) = nonlinear_dataset(300, 30);
        let (xt, yt) = nonlinear_dataset(150, 31);
        let mut weak = DecisionTree::with_depth(3);
        weak.fit(&x, &y).unwrap();
        let mut boosted = AdaBoostR2 { max_depth: 3, n_rounds: 40, ..AdaBoostR2::default() };
        boosted.fit(&x, &y).unwrap();
        let weak_rmse = rmse(&weak.predict(&xt), &yt);
        let boosted_rmse = rmse(&boosted.predict(&xt), &yt);
        assert!(boosted_rmse < weak_rmse, "boosting did not help: {boosted_rmse} vs {weak_rmse}");
    }

    #[test]
    fn perfect_fit_stops_early() {
        // Step data a depth-2 tree nails exactly.
        let rows: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..40).map(|i| if i < 20 { 0.0 } else { 1.0 }).collect();
        let mut m = AdaBoostR2 { max_depth: 2, n_rounds: 50, ..AdaBoostR2::default() };
        m.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert!(m.stages.len() < 50, "did not stop early: {} stages", m.stages.len());
        assert_eq!(m.predict_row(&[5.0]), 0.0);
        assert_eq!(m.predict_row(&[35.0]), 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = nonlinear_dataset(150, 32);
        let fit = |seed: u64| {
            let mut m = AdaBoostR2 { seed, n_rounds: 10, ..AdaBoostR2::default() };
            m.fit(&x, &y).unwrap();
            m.predict(&x)
        };
        assert_eq!(fit(3), fit(3));
    }

    #[test]
    fn stage_weights_are_positive() {
        let (x, y) = nonlinear_dataset(200, 33);
        let mut m = AdaBoostR2::default();
        m.fit(&x, &y).unwrap();
        assert!(m.stage_weights.iter().all(|&w| w > 0.0));
        assert_eq!(m.stage_weights.len(), m.stages.len());
    }
}
