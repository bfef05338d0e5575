//! Histogram-based gradient boosting with leaf-wise growth — the two ideas
//! that define LightGBM (Ke et al., 2017).
//!
//! * **Histogram splits** — features are pre-quantised into ≤ 255 bins;
//!   split search scans bin histograms of gradient sums instead of sorted
//!   raw values, turning each node's split search into `O(d·bins)`.
//! * **Leaf-wise growth** — instead of expanding level by level, the leaf
//!   with the globally largest gain splits next, until `max_leaves` is
//!   reached. Equal leaf budgets produce deeper, more asymmetric trees
//!   that usually fit better than depth-wise ones.
//!
//! Loss is squared error (gradients `g = ŷ − y`, hessians 1), with L2 leaf
//! regularisation like the XGBoost-style sibling model.

use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::models::tree::{leaf_value, sum_leaves_set_valued, Node, LEAF};
use crate::models::Regressor;
use crate::MlError;
const MAX_BINS: usize = 255;

/// Per-feature quantisation grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinMapper {
    /// Upper bin edges; value ≤ `edge[b]` falls into bin `b`. The last
    /// bin is unbounded.
    pub edges: Vec<Vec<f64>>,
}

impl BinMapper {
    /// Build ≤ `max_bins` quantile bins per feature.
    pub fn fit(x: &Matrix, max_bins: usize) -> Self {
        let max_bins = max_bins.clamp(2, MAX_BINS);
        let edges = (0..x.cols())
            .map(|j| {
                let mut vals = x.col(j);
                vals.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
                vals.dedup();
                if vals.len() <= max_bins {
                    // Each distinct value gets a bin; edges midway between.
                    vals.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
                } else {
                    // Quantile edges.
                    (1..max_bins)
                        .map(|b| {
                            let pos = b * (vals.len() - 1) / max_bins;
                            0.5 * (vals[pos] + vals[pos + 1])
                        })
                        .collect::<Vec<f64>>()
                }
            })
            .collect();
        Self { edges }
    }

    /// Bin index of a raw value for feature `j`.
    #[inline]
    pub fn bin(&self, j: usize, v: f64) -> usize {
        self.edges[j].partition_point(|&e| e < v)
    }

    /// Bins per feature (edges + 1).
    pub fn n_bins(&self, j: usize) -> usize {
        self.edges[j].len() + 1
    }
}

/// A leaf pending expansion during leaf-wise growth.
struct GrowingLeaf {
    node: u32,
    rows: Vec<usize>,
    g_sum: f64,
    /// Best split found: (gain, feature, bin, threshold).
    best: Option<(f64, usize, usize, f64)>,
}

/// Histogram gradient-boosting model and hyper-parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HistGradientBoosting {
    /// Boosting rounds (trees).
    pub n_rounds: usize,
    /// Maximum leaves per tree (LightGBM's `num_leaves`).
    pub max_leaves: usize,
    /// Learning rate.
    pub eta: f64,
    /// L2 leaf regularisation.
    pub lambda: f64,
    /// Minimum rows per leaf (`min_data_in_leaf`).
    pub min_data_in_leaf: usize,
    /// Histogram bins per feature.
    pub max_bins: usize,
    /// Constant base prediction.
    pub base_score: f64,
    /// Fitted quantisation grid.
    pub mapper: Option<BinMapper>,
    /// Fitted trees (leaf `value` holds the scaled weight).
    pub trees: Vec<Vec<Node>>,
}

impl Default for HistGradientBoosting {
    fn default() -> Self {
        Self {
            n_rounds: 200,
            max_leaves: 31,
            eta: 0.1,
            lambda: 1.0,
            min_data_in_leaf: 3,
            max_bins: 255,
            base_score: 0.0,
            mapper: None,
            trees: Vec::new(),
        }
    }
}

impl HistGradientBoosting {
    /// Model with an explicit round count and leaf budget.
    pub fn new(n_rounds: usize, max_leaves: usize, eta: f64) -> Self {
        Self { n_rounds, max_leaves, eta, ..Self::default() }
    }

    /// Find the best histogram split of a leaf; returns
    /// `(gain, feature, bin, threshold)`.
    fn best_split(
        &self,
        binned: &[Vec<u16>],
        mapper: &BinMapper,
        rows: &[usize],
        g: &[f64],
        g_sum: f64,
    ) -> Option<(f64, usize, usize, f64)> {
        let h_sum = rows.len() as f64;
        let parent_obj = g_sum * g_sum / (h_sum + self.lambda);
        let mut best: Option<(f64, usize, usize, f64)> = None;
        for (f, col) in binned.iter().enumerate() {
            let n_bins = mapper.n_bins(f);
            if n_bins < 2 {
                continue;
            }
            // Histogram of gradient sums and counts per bin.
            let mut hist_g = vec![0.0f64; n_bins];
            let mut hist_n = vec![0u32; n_bins];
            for &r in rows {
                let b = col[r] as usize;
                hist_g[b] += g[r];
                hist_n[b] += 1;
            }
            // Scan split points between bins.
            let mut gl = 0.0;
            let mut nl = 0u32;
            for b in 0..n_bins - 1 {
                gl += hist_g[b];
                nl += hist_n[b];
                if nl == 0 {
                    continue;
                }
                let nr = rows.len() as u32 - nl;
                if nr == 0 {
                    break;
                }
                if (nl as usize) < self.min_data_in_leaf || (nr as usize) < self.min_data_in_leaf {
                    continue;
                }
                let gr = g_sum - gl;
                let hl = nl as f64;
                let hr = nr as f64;
                let gain = 0.5
                    * (gl * gl / (hl + self.lambda) + gr * gr / (hr + self.lambda) - parent_obj);
                if gain > best.map_or(1e-12, |(b, _, _, _)| b) {
                    best = Some((gain, f, b, mapper.edges[f][b]));
                }
            }
        }
        best
    }

    fn grow_tree(&self, binned: &[Vec<u16>], mapper: &BinMapper, g: &[f64], n: usize) -> Vec<Node> {
        let mut nodes = Vec::new();
        let all_rows: Vec<usize> = (0..n).collect();
        let g_sum: f64 = g.iter().sum();
        nodes.push(Node {
            feature: LEAF,
            threshold: 0.0,
            left: 0,
            right: 0,
            value: -g_sum / (n as f64 + self.lambda) * self.eta,
        });
        let mut leaves = vec![GrowingLeaf {
            node: 0,
            best: self.best_split(binned, mapper, &all_rows, g, g_sum),
            rows: all_rows,
            g_sum,
        }];

        let mut n_leaves = 1;
        while n_leaves < self.max_leaves {
            // Leaf-wise: expand the leaf with the largest gain.
            let Some(pos) = leaves
                .iter()
                .enumerate()
                .filter(|(_, l)| l.best.is_some())
                .max_by(|a, b| {
                    let ga = a.1.best.expect("filtered").0;
                    let gb = b.1.best.expect("filtered").0;
                    ga.partial_cmp(&gb).expect("finite gains")
                })
                .map(|(i, _)| i)
            else {
                break;
            };
            let leaf = leaves.swap_remove(pos);
            let (_, feature, _bin, threshold) = leaf.best.expect("selected leaf has a split");

            let (left_rows, right_rows): (Vec<usize>, Vec<usize>) =
                leaf.rows.iter().partition(|&&r| (binned[feature][r] as usize) <= _bin);
            debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());

            let gl: f64 = left_rows.iter().map(|&r| g[r]).sum();
            let gr = leaf.g_sum - gl;
            let left_id = nodes.len() as u32;
            nodes.push(Node {
                feature: LEAF,
                threshold: 0.0,
                left: 0,
                right: 0,
                value: -gl / (left_rows.len() as f64 + self.lambda) * self.eta,
            });
            let right_id = nodes.len() as u32;
            nodes.push(Node {
                feature: LEAF,
                threshold: 0.0,
                left: 0,
                right: 0,
                value: -gr / (right_rows.len() as f64 + self.lambda) * self.eta,
            });
            let parent = &mut nodes[leaf.node as usize];
            parent.feature = feature as u32;
            parent.threshold = threshold;
            parent.left = left_id;
            parent.right = right_id;

            leaves.push(GrowingLeaf {
                node: left_id,
                best: self.best_split(binned, mapper, &left_rows, g, gl),
                rows: left_rows,
                g_sum: gl,
            });
            leaves.push(GrowingLeaf {
                node: right_id,
                best: self.best_split(binned, mapper, &right_rows, g, gr),
                rows: right_rows,
                g_sum: gr,
            });
            n_leaves += 1;
        }
        nodes
    }

    /// Leaves of a fitted tree (testing/introspection).
    pub fn leaf_count(tree: &[Node]) -> usize {
        tree.iter().filter(|n| n.feature == LEAF).count()
    }
}

impl Regressor for HistGradientBoosting {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::BadShape("empty training data".into()));
        }
        if x.rows() != y.len() {
            return Err(MlError::BadShape("label length mismatch".into()));
        }
        if self.max_leaves < 2 {
            return Err(MlError::BadShape("max_leaves must be ≥ 2".into()));
        }
        let n = x.rows();
        let mapper = BinMapper::fit(x, self.max_bins);
        // Column-major binned copy: binned[feature][row].
        let binned: Vec<Vec<u16>> = (0..x.cols())
            .map(|j| (0..n).map(|i| mapper.bin(j, x.get(i, j)) as u16).collect())
            .collect();

        self.base_score = y.iter().sum::<f64>() / n as f64;
        let mut pred = vec![self.base_score; n];
        self.trees.clear();
        for _ in 0..self.n_rounds {
            let g: Vec<f64> = pred.iter().zip(y).map(|(&p, &t)| p - t).collect();
            let tree = self.grow_tree(&binned, &mapper, &g, n);
            for (i, p) in pred.iter_mut().enumerate() {
                *p += leaf_value(&tree, x.row(i));
            }
            self.trees.push(tree);
        }
        self.mapper = Some(mapper);
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
    use crate::models::test_support::nonlinear_dataset;

    #[test]
    fn bin_mapper_quantiles() {
        let rows: Vec<Vec<f64>> = (0..1000).map(|i| vec![i as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let m = BinMapper::fit(&x, 10);
        assert_eq!(m.n_bins(0), 10);
        // Bins should be roughly equal-count.
        let mut counts = vec![0usize; 10];
        for i in 0..1000 {
            counts[m.bin(0, i as f64)] += 1;
        }
        for &c in &counts {
            assert!((50..=200).contains(&c), "unbalanced bin: {counts:?}");
        }
    }

    #[test]
    fn bin_mapper_few_distinct_values() {
        let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![(i % 3) as f64]).collect();
        let x = Matrix::from_rows(&rows);
        let m = BinMapper::fit(&x, 255);
        assert_eq!(m.n_bins(0), 3);
        assert_eq!(m.bin(0, 0.0), 0);
        assert_eq!(m.bin(0, 1.0), 1);
        assert_eq!(m.bin(0, 2.0), 2);
    }

    #[test]
    fn strong_fit_on_nonlinear_data() {
        let (x, y) = nonlinear_dataset(500, 50);
        let mut m = HistGradientBoosting::new(150, 31, 0.1);
        m.fit(&x, &y).unwrap();
        let score = r2(&m.predict(&x), &y);
        assert!(score > 0.97, "r2 {score}");
    }

    #[test]
    fn generalises_on_held_out_data() {
        let (x, y) = nonlinear_dataset(500, 51);
        let (xt, yt) = nonlinear_dataset(200, 52);
        let mut m = HistGradientBoosting::new(150, 31, 0.1);
        m.fit(&x, &y).unwrap();
        let e = rmse(&m.predict(&xt), &yt);
        let spread = yt.iter().cloned().fold(f64::MIN, f64::max)
            - yt.iter().cloned().fold(f64::MAX, f64::min);
        assert!(e < spread * 0.15, "held-out rmse {e} vs label spread {spread}");
    }

    #[test]
    fn respects_leaf_budget() {
        let (x, y) = nonlinear_dataset(300, 53);
        let mut m = HistGradientBoosting::new(5, 8, 0.3);
        m.fit(&x, &y).unwrap();
        for tree in &m.trees {
            assert!(
                HistGradientBoosting::leaf_count(tree) <= 8,
                "leaf budget exceeded: {}",
                HistGradientBoosting::leaf_count(tree)
            );
        }
    }

    #[test]
    fn leaf_wise_beats_tiny_budget() {
        let (x, y) = nonlinear_dataset(400, 54);
        let fit_rmse = |leaves: usize| {
            let mut m = HistGradientBoosting::new(40, leaves, 0.2);
            m.fit(&x, &y).unwrap();
            rmse(&m.predict(&x), &y)
        };
        assert!(fit_rmse(31) < fit_rmse(3), "larger leaf budget did not help");
    }

    #[test]
    fn coarse_bins_still_fit() {
        let (x, y) = nonlinear_dataset(300, 55);
        let mut m = HistGradientBoosting { max_bins: 8, ..HistGradientBoosting::default() };
        m.fit(&x, &y).unwrap();
        assert!(r2(&m.predict(&x), &y) > 0.8);
    }

    #[test]
    fn invalid_leaf_budget_rejected() {
        let (x, y) = nonlinear_dataset(50, 56);
        let mut m = HistGradientBoosting { max_leaves: 1, ..HistGradientBoosting::default() };
        assert!(m.fit(&x, &y).is_err());
    }
}
