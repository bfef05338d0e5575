//! Random forest regressor: bagged CART trees with per-split feature
//! subsampling (Breiman, 2001).
//!
//! Each tree trains on a bootstrap resample of the rows and examines a
//! random subset of features at every split; the forest predicts the mean
//! of its trees. Variance drops roughly with the number of trees, at the
//! cost of an evaluation time that scales linearly with the ensemble size —
//! the exact trade-off that sinks Random Forest in the paper's estimated-
//! speedup ranking (Tables III/IV) despite its strong RMSE.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::models::tree::{sum_leaves_set_valued, ColumnRanks, DecisionTree};
use crate::models::Regressor;
use crate::MlError;

/// Random forest model and hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    /// Number of trees.
    pub n_trees: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// Minimum rows per leaf.
    pub min_samples_leaf: usize,
    /// Fraction of features examined per split.
    pub max_features: f64,
    /// RNG seed (bootstraps and per-tree feature sampling derive from it).
    pub seed: u64,
    /// Fitted trees.
    pub trees: Vec<DecisionTree>,
}

impl Default for RandomForest {
    fn default() -> Self {
        Self {
            n_trees: 100,
            max_depth: 12,
            min_samples_leaf: 1,
            max_features: 0.7,
            seed: 0,
            trees: Vec::new(),
        }
    }
}

impl RandomForest {
    /// Forest with an explicit size and depth.
    pub fn new(n_trees: usize, max_depth: usize) -> Self {
        Self { n_trees, max_depth, ..Self::default() }
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::BadShape("empty training data".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::BadShape("label length mismatch".into()));
        }
        if self.n_trees == 0 {
            return Err(MlError::BadShape("n_trees must be positive".into()));
        }
        let n = x.rows();
        let ranks = ColumnRanks::new(x);
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.trees = (0..self.n_trees)
            .map(|t| {
                let bootstrap: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                let mut tree = DecisionTree {
                    max_depth: self.max_depth,
                    min_samples_leaf: self.min_samples_leaf,
                    max_features: Some(self.max_features),
                    seed: self.seed.wrapping_add(t as u64 + 1),
                    ..DecisionTree::default()
                };
                tree.fit_ranked(x, y, &bootstrap, &ranks);
                tree
            })
            .collect();
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert!(!self.trees.is_empty(), "predict before fit");
        self.trees.iter().map(|t| t.predict_row(row)).sum::<f64>() / self.trees.len() as f64
    }

    fn predict_rows(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        debug_assert!(!self.trees.is_empty(), "predict before fit");
        sum_leaves_set_valued(self.trees.iter().map(|t| t.nodes.as_slice()), rows, width, out);
        for sum in out {
            *sum /= self.trees.len() as f64;
        }
    }

    fn is_fitted(&self) -> bool {
        !self.trees.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{r2, rmse};
    use crate::models::test_support::nonlinear_dataset;

    #[test]
    fn beats_single_tree_on_held_out_data() {
        let (x, y) = nonlinear_dataset(400, 20);
        let (xt, yt) = nonlinear_dataset(200, 21);
        let mut tree = DecisionTree::with_depth(12);
        tree.fit(&x, &y).unwrap();
        let mut forest = RandomForest::new(60, 12);
        forest.fit(&x, &y).unwrap();
        let tree_rmse = rmse(&tree.predict(&xt), &yt);
        let forest_rmse = rmse(&forest.predict(&xt), &yt);
        assert!(
            forest_rmse < tree_rmse,
            "forest {forest_rmse} not better than single tree {tree_rmse}"
        );
    }

    #[test]
    fn strong_fit_on_nonlinear_data() {
        let (x, y) = nonlinear_dataset(400, 22);
        let mut forest = RandomForest::new(50, 12);
        forest.fit(&x, &y).unwrap();
        assert!(r2(&forest.predict(&x), &y) > 0.9);
    }

    #[test]
    fn deterministic_per_seed() {
        let (x, y) = nonlinear_dataset(150, 23);
        let fit = |seed: u64| {
            let mut f = RandomForest { n_trees: 10, seed, ..RandomForest::default() };
            f.fit(&x, &y).unwrap();
            f.predict(&x)
        };
        assert_eq!(fit(5), fit(5));
        assert_ne!(fit(5), fit(6));
    }

    #[test]
    fn trees_differ_from_each_other() {
        let (x, y) = nonlinear_dataset(150, 24);
        let mut f = RandomForest { n_trees: 5, ..RandomForest::default() };
        f.fit(&x, &y).unwrap();
        let probe = x.row(0);
        let preds: Vec<f64> = f.trees.iter().map(|t| t.predict_row(probe)).collect();
        let all_equal = preds.windows(2).all(|w| w[0] == w[1]);
        assert!(!all_equal, "bootstrap produced identical trees: {preds:?}");
    }

    #[test]
    fn prediction_is_tree_mean() {
        let (x, y) = nonlinear_dataset(100, 25);
        let mut f = RandomForest { n_trees: 7, ..RandomForest::default() };
        f.fit(&x, &y).unwrap();
        let probe = x.row(3);
        let mean: f64 =
            f.trees.iter().map(|t| t.predict_row(probe)).sum::<f64>() / f.trees.len() as f64;
        assert!((f.predict_row(probe) - mean).abs() < 1e-12);
    }

    #[test]
    fn zero_trees_rejected() {
        let (x, y) = nonlinear_dataset(50, 26);
        let mut f = RandomForest { n_trees: 0, ..RandomForest::default() };
        assert!(f.fit(&x, &y).is_err());
    }
}
