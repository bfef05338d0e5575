//! CART regression tree with exact greedy variance-reduction splits.
//!
//! The tree is stored as a flat node array (index-linked, serde-friendly);
//! prediction walks from the root following threshold comparisons. The
//! split search orders the node's rows by each candidate feature and scans
//! the split points between distinct values, accumulating left/right label
//! sums. A fit ranks every column's distinct values once
//! (`ColumnRanks`), so a node orders its rows with a stable counting sort
//! by rank — `O(n + values)` per feature rather than a comparison sort's
//! `O(n·log n)` — and skips a feature constant within the node, where no
//! split exists. The order is the one a stable sort by value gives, so the
//! label sums, and with them the fitted tree, are the same bits.
//!
//! The same builder powers [`crate::models::RandomForest`] (bootstrap
//! rows plus per-split feature subsampling) and
//! [`crate::models::AdaBoostR2`] (weighted resampling).
//!
//! # Batched prediction is set-valued
//!
//! One row walks a tree with `leaf_value`: a chain of dependent,
//! data-dependent branches. A batch (`Regressor::predict_rows` of the
//! summing ensembles, `sum_leaves_set_valued` here) does not repeat that
//! walk per row. Per chunk of 64 rows — a `u64` is a set of rows — each
//! column's *value classes* are derived once: the distinct bit patterns the
//! column takes, ascending with NaN last, each with the set of rows holding
//! a value up to it. A tree is then walked once per chunk from the root
//! with the full set; a node splits the set by comparing its threshold with
//! the column's classes (`value <= threshold`, the comparison `leaf_value`
//! makes, so NaN, ±0 and a value equal to the threshold go where they
//! went), only non-empty sides are followed, and a leaf adds its value to
//! the sum of every row in its set. The leaf sets of a tree partition the
//! chunk, so a row's sum receives one leaf per tree, the trees in order,
//! from `Iterator::sum`'s start value: the bits of the one-row path. The
//! cost is nodes reached × classes of the split column, which for the rows
//! of a decision sweep (one shape, three thread counts, a few values per
//! plan axis) is a handful of comparisons per node for all 54 rows; a
//! batch whose every value is distinct goes through the same code with one
//! class per row and gains nothing. The class table is a per-thread
//! scratch, so a warm call allocates nothing.

use std::cell::RefCell;

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

/// Whether `nodes` is a tree [`leaf_value`] can walk for rows `width`
/// wide: not empty, and every split on a column inside the row with both
/// children after it in `nodes` (every learner here pushes a node's
/// children after it), which bounds every descent.
pub(crate) fn check_nodes(nodes: &[Node], width: usize) -> Result<(), MlError> {
    if nodes.is_empty() {
        return Err(MlError::BadShape("a tree with no nodes".into()));
    }
    for (at, node) in nodes.iter().enumerate().filter(|(_, node)| node.feature != LEAF) {
        let later = |child: u32| (at + 1..nodes.len()).contains(&(child as usize));
        if node.feature as usize >= width || !later(node.left) || !later(node.right) {
            return Err(MlError::BadShape(format!(
                "tree node {at} of {} splits on column {} of {width} into nodes {} and {}",
                nodes.len(),
                node.feature,
                node.left,
                node.right
            )));
        }
    }
    Ok(())
}

/// Rows per set-valued descent: one `u64` holds a set of them.
const CHUNK_ROWS: usize = u64::BITS as usize;

/// The *value classes* of a chunk of at most [`CHUNK_ROWS`] rows: for every
/// column, the distinct bit patterns it takes in the chunk. A column that
/// is constant over the chunk is one class; a column whose every row
/// differs has one class per row.
struct ValueClasses {
    /// Column `c`'s classes are `classes[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// `(value, at_most)` per class, a column's classes ascending by value
    /// with NaN last: `at_most` is the set (bit `r` = row `r` of the chunk)
    /// of rows holding this value or one sorted before it, so the rows
    /// `<=` any threshold are the `at_most` of one class.
    classes: Vec<(f64, u64)>,
}

thread_local! {
    /// One class table per thread, as the sweep's own scratch is, so a warm
    /// `predict_rows` allocates nothing.
    static VALUE_CLASSES: RefCell<ValueClasses> =
        const { RefCell::new(ValueClasses { starts: Vec::new(), classes: Vec::new() }) };
}

impl ValueClasses {
    /// Rebuild the table for `rows` (row-major, `width` wide, at most
    /// [`CHUNK_ROWS`] of them).
    fn derive(&mut self, rows: &[f64], width: usize) {
        self.starts.clear();
        self.classes.clear();
        let n = rows.len() / width;
        for col in 0..width {
            let start = self.classes.len();
            self.starts.push(start);
            let bits_at = |r: usize| rows[r * width + col].to_bits();
            let mut first = 0;
            while first < n {
                // A sweep's rows change a column rarely: take the whole run
                // of consecutive rows holding these bits at once.
                let bits = bits_at(first);
                let mut end = first + 1;
                while end < n && bits_at(end) == bits {
                    end += 1;
                }
                let run = (u64::MAX >> (CHUNK_ROWS - (end - first))) << first;
                let value = f64::from_bits(bits);
                let column = &mut self.classes[start..];
                match column.iter_mut().find(|c| c.0.to_bits() == bits) {
                    Some(class) => class.1 |= run,
                    None => {
                        // Ascending, NaN (which is `<=` nothing) last.
                        let at = column
                            .partition_point(|c| c.0 <= value || (value.is_nan() && !c.0.is_nan()));
                        self.classes.insert(start + at, (value, run));
                    }
                }
                first = end;
            }
            // Own rows, so far; from here every class's and its predecessors'.
            let mut at_most = 0;
            for class in &mut self.classes[start..] {
                at_most |= class.1;
                class.1 = at_most;
            }
        }
        self.starts.push(self.classes.len());
    }

    /// The rows whose `feature` column is `<= threshold`: the comparison
    /// [`leaf_value`] makes, against the column's classes instead of its
    /// rows.
    #[inline]
    fn at_most(&self, feature: u32, threshold: f64) -> u64 {
        let col = feature as usize;
        let column = &self.classes[self.starts[col]..self.starts[col + 1]];
        column.iter().take_while(|class| class.0 <= threshold).last().map_or(0, |class| class.1)
    }
}

/// Walk one tree with the set `rows` of chunk rows at node `at`: split the
/// set at every node it reaches, follow only non-empty sides, and add the
/// leaf's value to `out[r]` for every row `r` that ends in it.
fn descend(
    nodes: &[Node],
    mut at: u32,
    mut rows: u64,
    classes: &ValueClasses,
    out: &mut [f64; CHUNK_ROWS],
) {
    loop {
        let node = &nodes[at as usize];
        if node.feature == LEAF {
            while rows != 0 {
                // (`%`: the index of a set bit, visibly in bounds.)
                out[rows.trailing_zeros() as usize % CHUNK_ROWS] += node.value;
                rows &= rows - 1;
            }
            return;
        }
        let left = rows & classes.at_most(node.feature, node.threshold);
        let right = rows & !left;
        if left != 0 && right != 0 {
            descend(nodes, node.left, left, classes, out);
        }
        (at, rows) = if right != 0 { (node.right, right) } else { (node.left, left) };
    }
}

/// For every `width`-wide row of the row-major batch `rows`, the sum over
/// `trees` of the leaf the row falls in, written to `out`: bitwise the
/// `trees.map(|t| leaf_value(t, row)).sum::<f64>()` of the one-row path,
/// evaluated set-valued (see the module doc) — each chunk of
/// [`CHUNK_ROWS`] rows derives its [`ValueClasses`] once and walks every
/// tree once.
pub(crate) fn sum_leaves_set_valued<'a>(
    trees: impl Iterator<Item = &'a [Node]> + Clone,
    rows: &[f64],
    width: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(rows.len(), width * out.len());
    VALUE_CLASSES.with(|classes| {
        let classes = &mut *classes.borrow_mut();
        for (rows, out) in rows.chunks(CHUNK_ROWS * width).zip(out.chunks_mut(CHUNK_ROWS)) {
            classes.derive(rows, width);
            let all = u64::MAX >> (CHUNK_ROWS - out.len());
            let mut sums = [std::iter::empty::<f64>().sum(); CHUNK_ROWS];
            for nodes in trees.clone() {
                descend(nodes, 0, all, classes, &mut sums);
            }
            out.copy_from_slice(&sums[..out.len()]);
        }
    });
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
        self.fit_ranked(x, y, idx, &ColumnRanks::new(x));
        Ok(())
    }

    /// [`DecisionTree::fit_on`] with `x`'s ranks already taken (an
    /// ensemble ranks its matrix once for all its trees); `idx` is
    /// non-empty and `y` as long as `x`.
    pub(crate) fn fit_ranked(&mut self, x: &Matrix, y: &[f64], idx: &[usize], ranks: &ColumnRanks) {
        self.nodes.clear();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut work = idx.to_vec();
        self.build(x, y, &mut ranks.sorter(), &mut work, 0, &mut rng);
    }

    /// Recursive node construction; returns the node's index.
    fn build(
        &mut self,
        x: &Matrix,
        y: &[f64],
        sorter: &mut NodeSorter,
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
        let Some((feature, threshold)) = self.best_split(y, sorter, idx, rng) else {
            return me;
        };

        // Partition rows in place around the split.
        let mid = partition(idx, |&i| x.get(i, feature as usize) <= threshold);
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());

        let left = self.build(x, y, sorter, left_idx, depth + 1, rng);
        let right = self.build(x, y, sorter, right_idx, depth + 1, rng);
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
        y: &[f64],
        sorter: &mut NodeSorter,
        idx: &[usize],
        rng: &mut StdRng,
    ) -> Option<(u32, f64)> {
        let d = sorter.columns();
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
        for &f in &features {
            let Some(node) = sorter.sort(f, y, idx) else {
                continue;
            };
            let mut left_sum = 0.0;
            let mut left_sq = 0.0;
            let mut start = 0;
            // A split falls between two values, never between equal ones.
            for pair in node.groups.windows(2) {
                let ((xv, split), (next, _)) = (pair[0], pair[1]);
                for &yv in &node.labels[start..split] {
                    left_sum += yv;
                    left_sq += yv * yv;
                }
                start = split;
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
                    let threshold = 0.5 * (xv + next);
                    best = Some((f as u32, threshold, score));
                }
            }
        }
        best.map(|(f, t, _)| (f, t))
    }
}

/// Every column's values as ranks: row `i`'s rank in column `f` counts the
/// distinct values of the column below `x[i][f]` (values that compare
/// equal, such as `−0` and `+0`, share one). Taken once per fit, so a node
/// orders its rows by a column with a counting sort instead of a
/// comparison sort.
pub(crate) struct ColumnRanks {
    /// Column `f`'s ranks are `ranks[f * rows..(f + 1) * rows]`.
    ranks: Vec<u32>,
    rows: usize,
    /// Column `f`'s distinct values, ascending, are
    /// `values[starts[f]..starts[f + 1]]`: rank `r` holds `values[starts[f] + r]`.
    values: Vec<f64>,
    starts: Vec<usize>,
}

/// A node's rows ordered by one column, as [`NodeSorter::sort`] leaves
/// them.
pub(crate) struct SortedNode<'s> {
    /// The rows' labels, ascending by the column's value and, among equal
    /// values, in the node's row order.
    pub labels: &'s [f64],
    /// One `(value, end)` per distinct value of the column in the node,
    /// ascending: its rows are `labels[previous end..end]`.
    pub groups: &'s [(f64, usize)],
}

/// Orders nodes' rows by a column of one fit's [`ColumnRanks`], reusing its
/// buffers from node to node.
pub(crate) struct NodeSorter<'r> {
    ranks: &'r ColumnRanks,
    node_ranks: Vec<u32>,
    counts: Vec<usize>,
    order: Vec<usize>,
    labels: Vec<f64>,
    groups: Vec<(f64, usize)>,
}

impl ColumnRanks {
    /// Rank every column of `x`.
    ///
    /// # Panics
    /// Panics on a NaN feature value.
    pub(crate) fn new(x: &Matrix) -> Self {
        let rows = x.rows();
        let mut ranks = vec![0; rows * x.cols()];
        let (mut values, mut starts) = (Vec::new(), Vec::with_capacity(x.cols() + 1));
        let mut order: Vec<usize> = (0..rows).collect();
        for (f, column) in ranks.chunks_exact_mut(rows.max(1)).enumerate() {
            order.sort_unstable_by(|&a, &b| {
                x.get(a, f).partial_cmp(&x.get(b, f)).expect("finite features")
            });
            starts.push(values.len());
            for &i in &order {
                let v = x.get(i, f);
                if values.len() == starts[f] || values[values.len() - 1] != v {
                    values.push(v);
                }
                column[i] = (values.len() - 1 - starts[f]) as u32;
            }
        }
        starts.push(values.len());
        Self { ranks, rows, values, starts }
    }

    /// A sorter for nodes of this fit.
    pub(crate) fn sorter(&self) -> NodeSorter<'_> {
        NodeSorter {
            ranks: self,
            node_ranks: Vec::new(),
            counts: Vec::new(),
            order: Vec::new(),
            labels: Vec::new(),
            groups: Vec::new(),
        }
    }
}

impl NodeSorter<'_> {
    /// Columns of the ranked matrix.
    pub(crate) fn columns(&self) -> usize {
        self.ranks.starts.len() - 1
    }

    /// The node's rows `idx` ordered by column `f` as a stable sort by value
    /// orders them, so sums over the labels run in the same order, grouped
    /// by value. `None` when the column is constant over the node, where no
    /// split exists.
    ///
    /// Within a group the values compare equal, so they are one bit pattern
    /// or zeros of either sign; either way `0.5 · (a + b)` of two groups'
    /// values does not depend on which of its rows each was taken from.
    pub(crate) fn sort(
        &mut self,
        f: usize,
        labels: &[f64],
        idx: &[usize],
    ) -> Option<SortedNode<'_>> {
        let Self { ranks, node_ranks, counts, order, labels: sorted, groups } = self;
        let column = &ranks.ranks[f * ranks.rows..(f + 1) * ranks.rows];
        let values = &ranks.values[ranks.starts[f]..ranks.starts[f + 1]];
        node_ranks.clear();
        node_ranks.extend(idx.iter().map(|&i| column[i]));
        let (lo, hi) = node_ranks.iter().fold((u32::MAX, 0), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        if lo == hi {
            return None;
        }
        sorted.clear();
        groups.clear();
        let levels = (hi - lo) as usize + 1;
        if levels <= 4 * idx.len() {
            // Counting sort: each value's rows start after every lower
            // value's, and arrive in `idx` order.
            counts.clear();
            counts.resize(levels, 0);
            for &r in node_ranks.iter() {
                counts[(r - lo) as usize] += 1;
            }
            let mut end = 0;
            for (level, count) in counts.iter_mut().enumerate() {
                if *count > 0 {
                    (*count, end) = (end, end + *count);
                    groups.push((values[lo as usize + level], end));
                }
            }
            sorted.resize(idx.len(), 0.0);
            for (&i, &r) in idx.iter().zip(node_ranks.iter()) {
                let slot = &mut counts[(r - lo) as usize];
                sorted[*slot] = labels[i];
                *slot += 1;
            }
        } else {
            // Few rows over many values: a stable sort of the positions is
            // cheaper than the counts.
            order.clear();
            order.extend(0..idx.len());
            order.sort_by_key(|&p| node_ranks[p]);
            sorted.extend(order.iter().map(|&p| labels[idx[p]]));
            for (end, pair) in (1..).zip(order.windows(2)) {
                if node_ranks[pair[0]] != node_ranks[pair[1]] {
                    groups.push((values[node_ranks[pair[0]] as usize], end));
                }
            }
            groups.push((values[hi as usize], idx.len()));
        }
        Some(SortedNode { labels: sorted, groups })
    }
}

/// Reorders `idx` so rows satisfying `pred` come first; returns the
/// boundary. An unstable swap partition: the rows on either side come out
/// in an order of their own, and that order is the order the children's
/// split searches add their labels in — part of every fitted tree's bits.
/// Making it stable would change the trees.
pub(crate) fn partition<F: Fn(&usize) -> bool>(idx: &mut [usize], pred: F) -> usize {
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
    use crate::models::{GradientBoosting, HistGradientBoosting, RandomForest};
    use rand::Rng;

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

    /// `n` rows × 6 columns, i.i.d. uniform: every value its own class.
    fn dense_rows(n: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| (0..6).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect()
    }

    /// `n` rows shaped like a decision sweep's (rungs of 18 points over one
    /// shape), their values taken from `donors`: columns 0–1 hold one value,
    /// columns 2–3 one per rung, column 4 cycles through three values and
    /// column 5 through three with repeats, out of order.
    fn sweep_rows(n: usize, donors: &[Vec<f64>]) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let (rung, point) = (i / 18, i % 18);
                let donor = [0, 0, rung % 4, rung % 4, point % 3, [2, 0, 0, 1, 2, 1][point % 6]];
                (0..6).map(|col| donors[donor[col]][col]).collect()
            })
            .collect()
    }

    /// `n` rows whose values are, half of them, NaN of either sign, ±0, ±∞,
    /// or a threshold `nodes` split on in that column (or a neighbour one
    /// ulp away); the rest dense.
    fn edge_rows(n: usize, nodes: &[Node], seed: u64) -> Vec<Vec<f64>> {
        let pools: Vec<Vec<f64>> = (0..6)
            .map(|col| {
                let thresholds = nodes.iter().filter(|n| n.feature == col).map(|n| n.threshold);
                [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY]
                    .into_iter()
                    .chain(thresholds.flat_map(|t| [t, t.next_up(), t.next_down()]))
                    .collect()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = dense_rows(n, seed + 1);
        for value in rows.iter_mut().flat_map(|row| row.iter_mut().zip(&pools)) {
            if rng.gen_range(0..2) == 0 {
                *value.0 = value.1[rng.gen_range(0..value.1.len())];
            }
        }
        rows
    }

    #[test]
    fn set_valued_descent_is_bitwise_the_one_row_walk() {
        let train = dense_rows(300, 20);
        let y: Vec<f64> = train
            .iter()
            .map(|r| r[0] * r[0] + 2.0 * (3.0 * r[1]).sin() + r[2] * r[3] - r[4] + 0.5 * r[5])
            .collect();
        let x = Matrix::from_rows(&train);

        // Two hand-built trees ride in every ensemble: a single leaf, and a
        // one-sided chain deeper than any fitted tree whose thresholds are
        // feature values of the sweep-shaped batches (and zero).
        let leaf = |value| Node { feature: LEAF, threshold: 0.0, left: 0, right: 0, value };
        let single = vec![leaf(0.375)];
        let mut chain = Vec::new();
        for depth in 0..20u32 {
            let col = depth % 6;
            let threshold = if depth == 7 { 0.0 } else { train[depth as usize % 4][col as usize] };
            let node = Node {
                feature: col,
                threshold,
                left: 2 * depth + 1,
                right: 2 * depth + 2,
                value: 0.0,
            };
            chain.extend([node, leaf(f64::from(depth) - 0.7)]);
        }
        chain.push(leaf(-11.25));
        let as_tree =
            |nodes: &Vec<Node>| DecisionTree { nodes: nodes.clone(), ..DecisionTree::default() };

        let mut gbt = GradientBoosting::new(30, 4, 0.2);
        gbt.fit(&x, &y).unwrap();
        gbt.trees.insert(1, single.clone());
        gbt.trees.push(chain.clone());
        let mut hist = HistGradientBoosting::new(30, 15, 0.2);
        hist.fit(&x, &y).unwrap();
        hist.trees.insert(1, single.clone());
        hist.trees.push(chain.clone());
        // The default depth limit (12): deep, unbalanced fitted trees.
        let mut forest = RandomForest { n_trees: 20, ..RandomForest::default() };
        forest.fit(&x, &y).unwrap();
        assert!(forest.trees.iter().any(|t| t.depth() >= 10));
        forest.trees.insert(1, as_tree(&single));
        forest.trees.push(as_tree(&chain));

        let models: [(&str, Vec<Node>, &dyn Regressor); 3] = [
            ("gbt", gbt.trees.concat(), &gbt),
            ("hist_gbt", hist.trees.concat(), &hist),
            ("forest", forest.trees.iter().flat_map(|t| t.nodes.clone()).collect(), &forest),
        ];
        for (name, nodes, model) in models {
            // One row, two, and either side of the 64-row chunk boundary.
            for n in [1, 2, 54, 63, 64, 65, 130] {
                let batches = [
                    ("sweep", sweep_rows(n, &train)),
                    ("dense", dense_rows(n, 21)),
                    ("edge", edge_rows(n, &nodes, 22)),
                ];
                for (shape, batch) in batches {
                    let mut out = vec![f64::NAN; n];
                    model.predict_rows(&batch.concat(), 6, &mut out);
                    for (r, (row, pred)) in batch.iter().zip(&out).enumerate() {
                        assert_eq!(
                            pred.to_bits(),
                            model.predict_row(row).to_bits(),
                            "{name}, {shape} batch of {n}, row {r}: {row:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn node_order_is_the_stable_sort_by_value() {
        // Columns of 2, 5 and 60 levels, zeros of both signs, and all
        // distinct; nodes from 2 rows to all of them, bootstrap-style
        // repeats included, so both the counting sort and its fallback run.
        let mut rng = StdRng::seed_from_u64(30);
        let n = 400;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    f64::from(rng.gen_range(0..2u32)),
                    [-1.5, -0.0, 0.0, 2.0, 7.25][rng.gen_range(0..5usize)],
                    f64::from(rng.gen_range(0..60u32)) - 30.0,
                    rng.gen_range(-1.0..1.0),
                ]
            })
            .collect();
        let x = Matrix::from_rows(&rows);
        let labels: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let ranks = ColumnRanks::new(&x);
        let mut sorter = ranks.sorter();
        for size in [2, 3, 7, 40, 150, n] {
            for _ in 0..5 {
                let idx: Vec<usize> = (0..size).map(|_| rng.gen_range(0..n)).collect();
                for f in 0..x.cols() {
                    let mut pairs: Vec<(f64, f64)> =
                        idx.iter().map(|&i| (x.get(i, f), labels[i])).collect();
                    pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                    let Some(node) = sorter.sort(f, &labels, &idx) else {
                        assert!(pairs.iter().all(|p| p.0 == pairs[0].0), "column {f} split");
                        continue;
                    };
                    let expected: Vec<u64> = pairs.iter().map(|p| p.1.to_bits()).collect();
                    let got: Vec<u64> = node.labels.iter().map(|l| l.to_bits()).collect();
                    assert_eq!(got, expected, "column {f}, {size} rows");
                    // A group ends exactly where the sorted values change.
                    let ends: Vec<usize> =
                        (1..size).filter(|&p| pairs[p - 1].0 != pairs[p].0).chain([size]).collect();
                    assert_eq!(node.groups.iter().map(|g| g.1).collect::<Vec<_>>(), ends);
                    for &(value, end) in node.groups {
                        assert_eq!(value, pairs[end - 1].0, "column {f}, {size} rows");
                    }
                }
            }
        }
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
