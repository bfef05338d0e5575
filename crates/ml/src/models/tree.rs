//! CART regression tree with exact greedy variance-reduction splits.
//!
//! The tree is stored as a flat node array (index-linked, serde-friendly);
//! prediction walks from the root following threshold comparisons. The
//! split search sorts each candidate feature's values within the node and
//! scans split points accumulating left/right label sums — `O(d·n·log n)`
//! per node, plenty for the paper's ~10³-sample datasets.
//!
//! The same builder powers [`crate::models::RandomForest`] (bootstrap
//! rows plus per-split feature subsampling) and
//! [`crate::models::AdaBoostR2`] (weighted resampling).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::models::Regressor;
use crate::MlError;

/// One node of the flat tree. `feature == u32::MAX` marks a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Split feature, or `u32::MAX` for a leaf.
    pub feature: u32,
    /// Split threshold: rows with `x[feature] <= threshold` go left.
    pub threshold: f64,
    /// Index of the left child (valid when not a leaf).
    pub left: u32,
    /// Index of the right child (valid when not a leaf).
    pub right: u32,
    /// Mean label of the node's training rows (the prediction at a leaf).
    pub value: f64,
}

pub(crate) const LEAF: u32 = u32::MAX;

/// The value of the leaf `row` falls in, walking one flat tree from its
/// root.
#[inline]
pub(crate) fn leaf_value(nodes: &[Node], row: &[f64]) -> f64 {
    let mut node = &nodes[0];
    while node.feature != LEAF {
        node = if row[node.feature as usize] <= node.threshold {
            &nodes[node.left as usize]
        } else {
            &nodes[node.right as usize]
        };
    }
    node.value
}

/// For every `width`-wide row of the row-major batch `rows`, the sum over
/// `trees` of the leaf the row falls in, written to `out`.
///
/// Evaluated tree-major: one tree's nodes stay in L1 while every row walks
/// it. Each row's sum starts from the value `Iterator::sum` starts from and
/// adds the trees in order, so it is bitwise the
/// `trees.map(|t| leaf_value(t, row)).sum::<f64>()` of the one-row path.
pub(crate) fn sum_leaves_tree_major<'a>(
    trees: impl Iterator<Item = &'a [Node]>,
    rows: &[f64],
    width: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(rows.len(), width * out.len());
    out.fill(std::iter::empty::<f64>().sum());
    for nodes in trees {
        for (row, acc) in rows.chunks_exact(width).zip(out.iter_mut()) {
            *acc += leaf_value(nodes, row);
        }
    }
}

/// Decision-tree regressor and hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum rows a node needs before a split is attempted.
    pub min_samples_split: usize,
    /// Minimum rows each child must keep.
    pub min_samples_leaf: usize,
    /// Features examined per split: `None` = all, `Some(f)` = random
    /// subset of `ceil(f · d)` features (used by random forests).
    pub max_features: Option<f64>,
    /// RNG seed for feature subsampling.
    pub seed: u64,
    /// Flat node storage; node 0 is the root.
    pub nodes: Vec<Node>,
}

impl Default for DecisionTree {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_samples_split: 2,
            min_samples_leaf: 1,
            max_features: None,
            seed: 0,
            nodes: Vec::new(),
        }
    }
}

impl DecisionTree {
    /// Tree with an explicit depth limit.
    pub fn with_depth(max_depth: usize) -> Self {
        Self { max_depth, ..Self::default() }
    }

    /// Number of nodes (0 before fitting).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Depth of the fitted tree.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], i: u32) -> usize {
            let n = nodes[i as usize];
            if n.feature == LEAF {
                0
            } else {
                1 + walk(nodes, n.left).max(walk(nodes, n.right))
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0)
        }
    }

    /// Fit on a row subset (used by ensembles); `idx` selects rows of `x`.
    pub fn fit_on(&mut self, x: &Matrix, y: &[f64], idx: &[usize]) -> Result<(), MlError> {
        if x.rows() == 0 || x.cols() == 0 || idx.is_empty() {
            return Err(MlError::BadShape("empty training data".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::BadShape("label length mismatch".into()));
        }
        self.nodes.clear();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut work = idx.to_vec();
        self.build(x, y, &mut work, 0, &mut rng);
        Ok(())
    }

    /// Recursive node construction; returns the node's index.
    fn build(
        &mut self,
        x: &Matrix,
        y: &[f64],
        idx: &mut [usize],
        depth: usize,
        rng: &mut StdRng,
    ) -> u32 {
        let value = idx.iter().map(|&i| y[i]).sum::<f64>() / idx.len() as f64;
        let me = self.nodes.len() as u32;
        self.nodes.push(Node { feature: LEAF, threshold: 0.0, left: 0, right: 0, value });

        if depth >= self.max_depth || idx.len() < self.min_samples_split {
            return me;
        }
        let Some((feature, threshold)) = self.best_split(x, y, idx, rng) else {
            return me;
        };

        // Partition rows in place around the split.
        let mid = partition(idx, |&i| x.get(i, feature as usize) <= threshold);
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        let left = self.build(x, y, left_idx, depth + 1, rng);
        let right = self.build(x, y, right_idx, depth + 1, rng);
        let node = &mut self.nodes[me as usize];
        node.feature = feature;
        node.threshold = threshold;
        node.left = left;
        node.right = right;
        me
    }

    /// Exact greedy split search: minimise the weighted child variance
    /// (equivalently maximise variance reduction).
    fn best_split(
        &self,
        x: &Matrix,
        y: &[f64],
        idx: &[usize],
        rng: &mut StdRng,
    ) -> Option<(u32, f64)> {
        let d = x.cols();
        let n = idx.len();
        let features: Vec<usize> = match self.max_features {
            None => (0..d).collect(),
            Some(frac) => {
                let count = ((d as f64 * frac).ceil() as usize).clamp(1, d);
                let mut all: Vec<usize> = (0..d).collect();
                all.shuffle(rng);
                all.truncate(count);
                all
            }
        };

        let total_sum: f64 = idx.iter().map(|&i| y[i]).sum();
        let total_sq: f64 = idx.iter().map(|&i| y[i] * y[i]).sum();
        let parent_score = total_sq - total_sum * total_sum / n as f64;

        let mut best: Option<(u32, f64, f64)> = None; // (feature, threshold, score)
        let mut pairs: Vec<(f64, f64)> = Vec::with_capacity(n);
        for &f in &features {
            pairs.clear();
            pairs.extend(idx.iter().map(|&i| (x.get(i, f), y[i])));
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));

            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            for split in 1..n {
                let (xv, yv) = pairs[split - 1];
                left_sum += yv;
                left_sq += yv * yv;
                // Can't split between equal feature values.
                if xv == pairs[split].0 {
                    continue;
                }
                let nl = split;
                let nr = n - split;
                if nl < self.min_samples_leaf || nr < self.min_samples_leaf {
                    continue;
                }
                let right_sum = total_sum - left_sum;
                let right_sq = total_sq - left_sq;
                // Weighted child SSE (lower is better).
                let score = (left_sq - left_sum * left_sum / nl as f64)
                    + (right_sq - right_sum * right_sum / nr as f64);
                if best.map_or(score < parent_score - 1e-12, |(_, _, b)| score < b) {
                    // Midpoint threshold, like scikit-learn.
                    let threshold = 0.5 * (xv + pairs[split].0);
                    best = Some((f as u32, threshold, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

/// Stable-ish partition: reorders `idx` so rows satisfying `pred` come
/// first; returns the boundary.
fn partition<F: Fn(&usize) -> bool>(idx: &mut [usize], pred: F) -> usize {
    let mut mid = 0;
    for i in 0..idx.len() {
        if pred(&idx[i]) {
            idx.swap(mid, i);
            mid += 1;
        }
    }
    mid
}

impl Regressor for DecisionTree {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let idx: Vec<usize> = (0..x.rows()).collect();
        self.fit_on(x, y, &idx)
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        debug_assert!(!self.nodes.is_empty(), "predict before fit");
        leaf_value(&self.nodes, row)
    }

    fn is_fitted(&self) -> bool {
        !self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::r2;
    use crate::models::test_support::nonlinear_dataset;

    #[test]
    fn fits_step_function_exactly() {
        // y = 1 for x < 0, y = 5 for x >= 0: one split suffices.
        let rows: Vec<Vec<f64>> = (-10..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (-10..10).map(|i| if i < 0 { 1.0 } else { 5.0 }).collect();
        let mut t = DecisionTree::with_depth(3);
        t.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert_eq!(t.predict_row(&[-5.0]), 1.0);
        assert_eq!(t.predict_row(&[5.0]), 5.0);
        assert!(t.node_count() <= 7, "tree larger than needed: {}", t.node_count());
    }

    #[test]
    fn depth_zero_is_mean_predictor() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let mut t = DecisionTree::with_depth(0);
        t.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert_eq!(t.node_count(), 1);
        assert_eq!(t.predict_row(&[3.0]), 4.5);
    }

    #[test]
    fn respects_max_depth() {
        let (x, y) = nonlinear_dataset(300, 10);
        for depth in [1, 2, 4] {
            let mut t = DecisionTree::with_depth(depth);
            t.fit(&x, &y).unwrap();
            assert!(t.depth() <= depth, "depth {} > limit {depth}", t.depth());
        }
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (x, y) = nonlinear_dataset(100, 11);
        let mut t = DecisionTree { min_samples_leaf: 10, ..DecisionTree::default() };
        t.fit(&x, &y).unwrap();
        // Count samples reaching each leaf by re-routing the training data.
        let mut counts = vec![0usize; t.node_count()];
        for row in x.row_iter() {
            let mut i = 0u32;
            loop {
                let n = t.nodes[i as usize];
                if n.feature == LEAF {
                    counts[i as usize] += 1;
                    break;
                }
                i = if row[n.feature as usize] <= n.threshold { n.left } else { n.right };
            }
        }
        for (i, n) in t.nodes.iter().enumerate() {
            if n.feature == LEAF {
                assert!(counts[i] >= 10, "leaf {i} has only {} samples", counts[i]);
            }
        }
    }

    #[test]
    fn deep_tree_beats_shallow_on_nonlinear_data() {
        let (x, y) = nonlinear_dataset(400, 12);
        let fit_r2 = |depth: usize| {
            let mut t = DecisionTree::with_depth(depth);
            t.fit(&x, &y).unwrap();
            r2(&t.predict(&x), &y)
        };
        let shallow = fit_r2(2);
        let deep = fit_r2(10);
        assert!(deep > shallow + 0.1, "deep {deep} vs shallow {shallow}");
        assert!(deep > 0.9, "deep tree fit too weak: {deep}");
    }

    #[test]
    fn predictions_within_label_range() {
        let (x, y) = nonlinear_dataset(200, 13);
        let mut t = DecisionTree::default();
        t.fit(&x, &y).unwrap();
        let lo = y.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = y.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for row in x.row_iter() {
            let p = t.predict_row(row);
            assert!((lo..=hi).contains(&p), "prediction {p} outside [{lo}, {hi}]");
        }
    }

    #[test]
    fn constant_labels_give_single_leaf() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![7.0; 20];
        let mut t = DecisionTree::default();
        t.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert_eq!(t.node_count(), 1, "split on constant labels");
        assert_eq!(t.predict_row(&[100.0]), 7.0);
    }

    #[test]
    fn duplicate_feature_values_never_split_between_equals() {
        // All feature values identical -> no valid split.
        let rows = vec![vec![1.0]; 30];
        let y: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let mut t = DecisionTree::default();
        t.fit(&Matrix::from_rows(&rows), &y).unwrap();
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn feature_subsampling_is_deterministic_per_seed() {
        let (x, y) = nonlinear_dataset(150, 14);
        let fit = |seed: u64| {
            let mut t = DecisionTree { max_features: Some(0.5), seed, ..DecisionTree::default() };
            t.fit(&x, &y).unwrap();
            t.predict(&x)
        };
        assert_eq!(fit(1), fit(1));
        assert_ne!(fit(1), fit(2), "different seeds produced identical trees");
    }

    #[test]
    fn fit_on_subset_ignores_other_rows() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let mut y: Vec<f64> = (0..10).map(|_| 1.0).collect();
        // Poison rows outside the subset.
        y[8] = 1e9;
        y[9] = -1e9;
        let mut t = DecisionTree::default();
        t.fit_on(&Matrix::from_rows(&rows), &y, &[0, 1, 2, 3, 4, 5]).unwrap();
        assert_eq!(t.predict_row(&[2.0]), 1.0);
    }

    #[test]
    fn partition_helper() {
        let mut v = vec![5, 2, 8, 1, 9, 3];
        let mid = partition(&mut v, |&x| x < 5);
        assert_eq!(mid, 3);
        assert!(v[..mid].iter().all(|&x| x < 5));
        assert!(v[mid..].iter().all(|&x| x >= 5));
    }
}
