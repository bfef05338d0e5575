//! Second-order gradient boosting with regularised exact-greedy splits —
//! the XGBoost algorithm (Chen & Guestrin, 2016) for squared-error loss.
//!
//! For squared loss the per-row gradients are `g = ŷ − y` and hessians
//! `h = 1`. Each round fits a tree maximising the structure gain
//!
//! ```text
//! gain = ½·[ G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ) ] − γ
//! ```
//!
//! with optimal leaf weight `w* = −G/(H+λ)`, scaled by the learning rate.
//! This is the model the paper selects on both platforms: best RMSE of the
//! fast-to-evaluate family, hence best estimated speedup.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::models::tree::{
    leaf_value, partition, sum_leaves_set_valued, ColumnRanks, Node, NodeSorter, LEAF,
};
use crate::models::Regressor;
use crate::MlError;

/// Gradient-boosting model and hyper-parameters (XGBoost naming).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GradientBoosting {
    /// Boosting rounds (trees).
    pub n_rounds: usize,
    /// Depth limit per tree.
    pub max_depth: usize,
    /// Learning rate `η`.
    pub eta: f64,
    /// L2 leaf regularisation `λ`.
    pub lambda: f64,
    /// Split penalty `γ` (minimum gain to split).
    pub gamma: f64,
    /// Minimum hessian sum per child (`min_child_weight`).
    pub min_child_weight: f64,
    /// Row subsample fraction per round.
    pub subsample: f64,
    /// RNG seed for subsampling.
    pub seed: u64,
    /// Constant base prediction (mean of the training labels).
    pub base_score: f64,
    /// Fitted trees (flat node arrays; leaf `value` is the scaled weight).
    pub trees: Vec<Vec<Node>>,
}

impl Default for GradientBoosting {
    fn default() -> Self {
        Self {
            n_rounds: 200,
            max_depth: 6,
            eta: 0.1,
            lambda: 1.0,
            gamma: 0.0,
            min_child_weight: 1.0,
            subsample: 1.0,
            seed: 0,
            base_score: 0.0,
            trees: Vec::new(),
        }
    }
}

impl GradientBoosting {
    /// Model with explicit round count and depth.
    pub fn new(n_rounds: usize, max_depth: usize, eta: f64) -> Self {
        Self { n_rounds, max_depth, eta, ..Self::default() }
    }

    /// Total number of nodes across all trees (evaluation-cost proxy).
    pub fn total_nodes(&self) -> usize {
        self.trees.iter().map(Vec::len).sum()
    }

    /// Split-frequency feature importance (XGBoost's "weight" metric):
    /// how often each feature is chosen as a split, normalised to sum to
    /// one. Zero vector if the model is unfitted or never split.
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut counts = vec![0.0f64; n_features];
        for tree in &self.trees {
            for node in tree {
                if node.feature != LEAF {
                    counts[node.feature as usize] += 1.0;
                }
            }
        }
        let total: f64 = counts.iter().sum();
        if total > 0.0 {
            for c in &mut counts {
                *c /= total;
            }
        }
        counts
    }

    fn build_node(
        &self,
        x: &Matrix,
        g: &[f64],
        sorter: &mut NodeSorter,
        idx: &mut [usize],
        depth: usize,
        nodes: &mut Vec<Node>,
    ) -> u32 {
        let g_sum: f64 = idx.iter().map(|&i| g[i]).sum();
        let h_sum = idx.len() as f64; // h = 1 per row for squared loss
        let weight = -g_sum / (h_sum + self.lambda) * self.eta;
        let me = nodes.len() as u32;
        nodes.push(Node { feature: LEAF, threshold: 0.0, left: 0, right: 0, value: weight });

        if depth >= self.max_depth || idx.len() < 2 {
            return me;
        }
        let parent_obj = g_sum * g_sum / (h_sum + self.lambda);

        let mut best: Option<(u32, f64, f64)> = None;
        for f in 0..x.cols() {
            let Some(node) = sorter.sort(f, g, idx) else {
                continue;
            };
            let mut gl = 0.0;
            let mut start = 0;
            for pair in node.groups.windows(2) {
                let ((value, split), (next, _)) = (pair[0], pair[1]);
                for &gv in &node.labels[start..split] {
                    gl += gv;
                }
                start = split;
                let hl = split as f64;
                let hr = h_sum - hl;
                if hl < self.min_child_weight || hr < self.min_child_weight {
                    continue;
                }
                let gr = g_sum - gl;
                let gain = 0.5
                    * (gl * gl / (hl + self.lambda) + gr * gr / (hr + self.lambda) - parent_obj)
                    - self.gamma;
                if gain > best.map_or(1e-12, |(_, _, b)| b) {
                    let threshold = 0.5 * (value + next);
                    best = Some((f as u32, threshold, gain));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return me;
        };

        let mid = partition(idx, |&i| x.get(i, feature as usize) <= threshold);
        let (li, ri) = idx.split_at_mut(mid);
        let left = self.build_node(x, g, sorter, li, depth + 1, nodes);
        let right = self.build_node(x, g, sorter, ri, depth + 1, nodes);
        let node = &mut nodes[me as usize];
        node.feature = feature;
        node.threshold = threshold;
        node.left = left;
        node.right = right;
        me
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::BadShape("empty training data".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::BadShape("label length mismatch".into()));
        }
        if !(0.0..=1.0).contains(&self.subsample) || self.subsample == 0.0 {
            return Err(MlError::BadShape("subsample in (0, 1] required".into()));
        }
        let n = x.rows();
        self.base_score = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![self.base_score; n];
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.trees.clear();
        let ranks = ColumnRanks::new(x);
        let mut sorter = ranks.sorter();

        for _ in 0..self.n_rounds {
            // Gradients at the current prediction.
            let g: Vec<f64> = pred.iter().zip(y).map(|(&p, &t)| p - t).collect();

            let mut idx: Vec<usize> = (0..n).collect();
            if self.subsample < 1.0 {
                idx.shuffle(&mut rng);
                idx.truncate(((n as f64 * self.subsample) as usize).max(2));
            }

            let mut nodes = Vec::new();
            self.build_node(x, &g, &mut sorter, &mut idx, 0, &mut nodes);
            // Update predictions with the new tree.
            for (i, p) in pred.iter_mut().enumerate() {
                *p += leaf_value(&nodes, x.row(i));
            }
            self.trees.push(nodes);
        }
        Ok(())
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert!(!self.trees.is_empty(), "predict before fit");
        self.base_score + self.trees.iter().map(|t| leaf_value(t, row)).sum::<f64>()
    }

    fn predict_rows(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        debug_assert!(!self.trees.is_empty(), "predict before fit");
        sum_leaves_set_valued(self.trees.iter().map(Vec::as_slice), rows, width, out);
        for sum in out {
            *sum += self.base_score;
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
    use crate::models::test_support::{linear_dataset, nonlinear_dataset};
    use crate::models::tree::DecisionTree;

    #[test]
    fn strong_fit_on_nonlinear_data() {
        let (x, y) = nonlinear_dataset(400, 40);
        let mut m = GradientBoosting::new(150, 5, 0.1);
        m.fit(&x, &y).unwrap();
        assert!(r2(&m.predict(&x), &y) > 0.97, "r2 {}", r2(&m.predict(&x), &y));
    }

    #[test]
    fn generalises_better_than_single_tree() {
        let (x, y) = nonlinear_dataset(400, 41);
        let (xt, yt) = nonlinear_dataset(200, 42);
        let mut tree = DecisionTree::with_depth(12);
        tree.fit(&x, &y).unwrap();
        let mut gbt = GradientBoosting::new(150, 5, 0.1);
        gbt.fit(&x, &y).unwrap();
        let t = rmse(&tree.predict(&xt), &yt);
        let b = rmse(&gbt.predict(&xt), &yt);
        assert!(b < t, "gbt {b} vs tree {t}");
    }

    #[test]
    fn learning_rate_shrinkage_applies() {
        // With eta = 0 every tree contributes nothing.
        let (x, y) = linear_dataset(100, 43);
        let mut m = GradientBoosting::new(10, 3, 0.0);
        m.fit(&x, &y).unwrap();
        let base = m.base_score;
        for row in x.row_iter() {
            assert_eq!(m.predict_row(row), base);
        }
    }

    #[test]
    fn gamma_prunes_splits() {
        let (x, y) = nonlinear_dataset(200, 44);
        let mut loose = GradientBoosting { gamma: 0.0, n_rounds: 20, ..Default::default() };
        loose.fit(&x, &y).unwrap();
        let mut strict = GradientBoosting { gamma: 1e6, n_rounds: 20, ..Default::default() };
        strict.fit(&x, &y).unwrap();
        assert!(
            strict.total_nodes() < loose.total_nodes(),
            "gamma did not prune: {} vs {}",
            strict.total_nodes(),
            loose.total_nodes()
        );
    }

    #[test]
    fn lambda_shrinks_leaf_weights() {
        let (x, y) = nonlinear_dataset(200, 45);
        let leaf_mag = |lambda: f64| {
            let mut m = GradientBoosting { lambda, n_rounds: 5, eta: 1.0, ..Default::default() };
            m.fit(&x, &y).unwrap();
            m.trees
                .iter()
                .flatten()
                .filter(|n| n.feature == LEAF)
                .map(|n| n.value.abs())
                .fold(0.0f64, f64::max)
        };
        assert!(leaf_mag(100.0) < leaf_mag(0.0));
    }

    #[test]
    fn subsample_is_deterministic_and_valid() {
        let (x, y) = nonlinear_dataset(200, 46);
        let fit = |seed: u64| {
            let mut m =
                GradientBoosting { subsample: 0.5, seed, n_rounds: 20, ..Default::default() };
            m.fit(&x, &y).unwrap();
            m.predict(&x)
        };
        assert_eq!(fit(1), fit(1));
        let mut m = GradientBoosting { subsample: 0.0, ..Default::default() };
        assert!(m.fit(&x, &y).is_err());
    }

    #[test]
    fn feature_importance_finds_the_signal() {
        use rand::rngs::StdRng;
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(48);
        // Five features; only feature 2 carries signal.
        let rows: Vec<Vec<f64>> =
            (0..300).map(|_| (0..5).map(|_| rng.gen_range(-1.0..1.0)).collect()).collect();
        let y: Vec<f64> = rows.iter().map(|r| (r[2] * 4.0).sin() * 3.0).collect();
        let mut m = GradientBoosting::new(60, 4, 0.2);
        m.fit(&Matrix::from_rows(&rows), &y).unwrap();
        let imp = m.feature_importance(5);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The exact share depends on the RNG stream behind the noise
        // features; "more than half of all splits" is the stream-robust
        // form of "the signal dominates".
        assert!(imp[2] > 0.5, "signal feature importance only {:.2}: {imp:?}", imp[2]);
        for (i, &v) in imp.iter().enumerate() {
            if i != 2 {
                assert!(v < imp[2], "noise feature {i} outranked the signal");
            }
        }
    }

    #[test]
    fn unfitted_importance_is_zero() {
        let m = GradientBoosting::default();
        assert_eq!(m.feature_importance(3), vec![0.0; 3]);
    }

    #[test]
    fn residuals_shrink_across_rounds() {
        let (x, y) = nonlinear_dataset(300, 47);
        let rmse_at = |rounds: usize| {
            let mut m = GradientBoosting::new(rounds, 4, 0.2);
            m.fit(&x, &y).unwrap();
            rmse(&m.predict(&x), &y)
        };
        let early = rmse_at(5);
        let late = rmse_at(80);
        assert!(late < early * 0.5, "training loss stalled: {early} -> {late}");
    }
}
