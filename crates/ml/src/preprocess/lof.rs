//! Local Outlier Factor (Breunig et al., SIGMOD 2000).
//!
//! Density-based outlier detection: each point's *local reachability
//! density* is compared with that of its k nearest neighbours. A LOF score
//! near 1 means the point sits in a region of density similar to its
//! neighbours; scores well above 1 flag local outliers that global
//! statistical filters miss. The paper runs LOF after standardisation
//! (distances need comparable scales) to clean the gathered timings.
//!
//! The neighbour search is exact and brute force: O(n²·d) time at worst,
//! each unordered pair's distance computed once and offered to both rows
//! (`distance(a, b)` is bitwise `distance(b, a)`). Each row keeps its k
//! nearest in a bounded list ordered by `(distance, index)`, a total order,
//! so the list it ends with is the unique k least whatever order the offers
//! came in. Rows are taken eight at a time into a column-major tile, so a
//! row's distances to all eight are eight running sums over its columns,
//! each in column order; every eight columns the sums are checked against
//! how near each pair must be to enter either of its rows' lists, and the
//! tile is left there once none can — exact, because adding a non-negative
//! term never lowers a sum and `√` is monotone. Memory is O(n·k) plus the
//! tile: no n × n matrix ever exists. The order of a row's neighbours —
//! nearest first, equidistant rows by ascending index — is the order of its
//! sums, so it is part of the result: the scores, the flagged set and every
//! artefact trained after the filter depend on it bit for bit. (A
//! GEMM-shaped `‖x‖² + ‖y‖² − 2x·y` search would be faster still but rounds
//! differently, moves ties, and with them the artefact.)

use crate::data::Matrix;
use crate::MlError;

/// LOF detector configuration.
#[derive(Debug, Clone)]
pub struct LocalOutlierFactor {
    /// Neighbourhood size `k` (scikit-learn defaults to 20).
    pub k: usize,
    /// Points with `LOF > threshold` are flagged (1.5 is a common choice).
    pub threshold: f64,
}

impl Default for LocalOutlierFactor {
    fn default() -> Self {
        Self { k: 20, threshold: 1.5 }
    }
}

impl LocalOutlierFactor {
    /// Create a detector with explicit parameters.
    pub fn new(k: usize, threshold: f64) -> Self {
        Self { k: k.max(1), threshold }
    }

    /// Compute LOF scores for every row of `x`.
    ///
    /// # Errors
    /// Fails when there are fewer than `k + 1` samples or a value is not
    /// finite.
    pub fn scores(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        let n = x.rows();
        if n <= self.k {
            return Err(MlError::BadShape(format!("need more than k={} samples, got {n}", self.k)));
        }
        if !x.all_finite() {
            return Err(MlError::Numeric("non-finite feature values".into()));
        }
        Ok(scores_from_neighbours(&self.nearest(x)))
    }

    /// Every row's `k` nearest other rows as `(distance, row)`, nearest
    /// first, equidistant rows by ascending index. Needs more than `k` rows.
    /// One distance per pair, offered to both rows' lists (see the module
    /// doc).
    fn nearest(&self, x: &Matrix) -> Vec<Vec<(f64, usize)>> {
        let (n, k, width) = (x.rows(), self.k, x.cols());
        let mut lists = Neighbours {
            k,
            lists: (0..n).map(|_| Vec::with_capacity(k)).collect(),
            bounds: vec![(f64::INFINITY, usize::MAX); n],
        };
        // Rows go `TILE` at a time into a column-major tile, so a row's
        // distances to all of them are one pass over its columns. Each row up
        // to the block's last pairs with the block's later rows, the nearest
        // indices first.
        let mut tile = vec![[0.0; TILE]; width];
        for first in (0..n).step_by(TILE) {
            let block = first..(first + TILE).min(n);
            for (lane, j) in block.clone().enumerate() {
                for (column, &v) in tile.iter_mut().zip(x.row(j)) {
                    column[lane] = v;
                }
            }
            for i in (0..block.end).rev() {
                // How near a pair must be to enter either list: nowhere for
                // a lane past the block or not after row i.
                let own = lists.bounds[i].0;
                let mut reach = [f64::NEG_INFINITY; TILE];
                for (lane, j) in block.clone().enumerate().filter(|&(_, j)| j > i) {
                    reach[lane] = own.max(lists.bounds[j].0);
                }
                let Some(dists) = distances_within(x.row(i), &tile, &reach) else {
                    continue;
                };
                let mut may = 0u32;
                for (lane, (&d, &r)) in dists.iter().zip(&reach).enumerate() {
                    may |= u32::from(d <= r) << lane;
                }
                while may != 0 {
                    let lane = may.trailing_zeros() as usize;
                    lists.offer_pair(i, first + lane, dists[lane]);
                    may &= may - 1;
                }
            }
        }
        lists.lists
    }

    /// Indices of rows whose LOF score is at or below the threshold
    /// (i.e. the inliers to keep), in the original order.
    pub fn inlier_indices(&self, x: &Matrix) -> Result<Vec<usize>, MlError> {
        Ok(self
            .scores(x)?
            .iter()
            .enumerate()
            .filter(|(_, &s)| s <= self.threshold)
            .map(|(i, _)| i)
            .collect())
    }
}

/// Rows per distance tile: [`distances_within`] keeps one running sum per
/// row.
const TILE: usize = 8;

/// Every row's nearest-first list while the pairs are offered, with what
/// an offer to it must come before: its `k`-th entry, or anything while it
/// holds fewer.
struct Neighbours {
    k: usize,
    lists: Vec<Vec<(f64, usize)>>,
    bounds: Vec<(f64, usize)>,
}

impl Neighbours {
    /// Offer the pair `(i, j)` at distance `d` to both rows' lists.
    #[inline]
    fn offer_pair(&mut self, i: usize, j: usize, d: f64) {
        self.offer(i, (d, j));
        self.offer(j, (d, i));
    }

    /// Insert `candidate` into row `row`'s list, kept ascending by
    /// [`before`] and at most `k` long, if it comes before the list's
    /// bound.
    #[inline]
    fn offer(&mut self, row: usize, candidate: (f64, usize)) {
        if !before(&candidate, &self.bounds[row]) {
            return;
        }
        let list = &mut self.lists[row];
        if list.len() == self.k {
            list.pop();
        }
        let at = list.partition_point(|entry| before(entry, &candidate));
        list.insert(at, candidate);
        if list.len() == self.k {
            self.bounds[row] = list[self.k - 1];
        }
    }
}

/// `(distance, index)` order: nearer first, equidistant rows by index.
#[inline]
fn before(a: &(f64, usize), b: &(f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// Columns summed between two looks at whether a tile can stop early.
const COLUMNS_PER_LOOK: usize = 8;

/// The Euclidean distance from `a` to each of the rows held column-major in
/// `tile`: per row, the squared differences summed over the columns in
/// order, then the square root — one running sum per row, so each is
/// bitwise the distance of that one pair on its own.
///
/// `None` once every row is known to be farther than its `reach`: adding a
/// non-negative term never lowers a sum and `√` is monotone, so a partial
/// sum whose root exceeds the reach means the full distance does too.
#[inline]
fn distances_within(a: &[f64], tile: &[[f64; TILE]], reach: &[f64; TILE]) -> Option<[f64; TILE]> {
    let mut sums = [0.0f64; TILE];
    for (a, tile) in a.chunks(COLUMNS_PER_LOOK).zip(tile.chunks(COLUMNS_PER_LOOK)) {
        if sums.iter().zip(reach).all(|(s, &r)| s.sqrt() > r) {
            return None;
        }
        for (&ac, column) in a.iter().zip(tile) {
            for (sum, &bc) in sums.iter_mut().zip(column) {
                *sum += (ac - bc) * (ac - bc);
            }
        }
    }
    Some(sums.map(f64::sqrt))
}

/// LOF of every point from every point's nearest-first neighbour list.
fn scores_from_neighbours(neighbours: &[Vec<(f64, usize)>]) -> Vec<f64> {
    // k-distance of each point = distance to its k-th neighbour.
    let k_dist: Vec<f64> = neighbours.iter().map(|nb| nb[nb.len() - 1].0).collect();

    // Local reachability density.
    let lrd: Vec<f64> = neighbours
        .iter()
        .map(|nb| {
            let sum: f64 = nb.iter().map(|&(d, j)| d.max(k_dist[j])).sum();
            if sum == 0.0 {
                // All neighbours coincide: infinite density; use a large
                // finite stand-in so ratios stay meaningful.
                f64::MAX / 1e6
            } else {
                nb.len() as f64 / sum
            }
        })
        .collect();

    // LOF = mean neighbour density / own density.
    neighbours
        .iter()
        .enumerate()
        .map(|(i, nb)| {
            let mean_nb: f64 = nb.iter().map(|&(_, j)| lrd[j]).sum::<f64>() / nb.len() as f64;
            mean_nb / lrd[i]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tight cluster plus one far-away point.
    fn cluster_with_outlier() -> Matrix {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..30 {
            let a = (i % 6) as f64 * 0.1;
            let b = (i / 6) as f64 * 0.1;
            rows.push(vec![a, b]);
        }
        rows.push(vec![10.0, 10.0]);
        Matrix::from_rows(&rows)
    }

    #[test]
    fn outlier_gets_high_score() {
        let x = cluster_with_outlier();
        let lof = LocalOutlierFactor::new(5, 1.5);
        let scores = lof.scores(&x).unwrap();
        let outlier = scores[30];
        let max_inlier = scores[..30].iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            outlier > 3.0 && outlier > 2.0 * max_inlier,
            "outlier {outlier} vs max inlier {max_inlier}"
        );
    }

    #[test]
    fn inliers_score_near_one() {
        let x = cluster_with_outlier();
        let lof = LocalOutlierFactor::new(5, 1.5);
        let scores = lof.scores(&x).unwrap();
        let mean_inlier: f64 = scores[..30].iter().sum::<f64>() / 30.0;
        assert!((0.8..1.3).contains(&mean_inlier), "mean inlier LOF {mean_inlier}");
    }

    #[test]
    fn inlier_indices_drop_the_outlier() {
        let x = cluster_with_outlier();
        let keep = LocalOutlierFactor::new(5, 1.5).inlier_indices(&x).unwrap();
        assert!(!keep.contains(&30), "outlier retained");
        assert!(keep.len() >= 28, "too many inliers dropped: kept {}", keep.len());
    }

    /// Dense cluster at origin, sparse-but-regular cluster far away, and a
    /// point that is globally mid-range but locally isolated from the dense
    /// cluster.
    fn varying_density() -> Matrix {
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for i in 0..25 {
            rows.push(vec![(i % 5) as f64 * 0.05, (i / 5) as f64 * 0.05]);
        }
        for i in 0..25 {
            rows.push(vec![50.0 + (i % 5) as f64 * 2.0, (i / 5) as f64 * 2.0]);
        }
        rows.push(vec![1.5, 1.5]); // near dense cluster but locally isolated
        Matrix::from_rows(&rows)
    }

    #[test]
    fn local_outlier_in_varying_density() {
        // Global z-score methods would keep the isolated point; LOF flags it.
        let x = varying_density();
        let scores = LocalOutlierFactor::new(5, 1.5).scores(&x).unwrap();
        assert!(scores[50] > 1.5, "local outlier score {} too low", scores[50]);
    }

    /// Euclidean distance between two rows, one row at a time.
    fn distance(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(&a, &b)| (a - b) * (a - b)).sum::<f64>().sqrt()
    }

    /// The neighbour search `scores` ran before it selected: every distance
    /// of a row collected, stably sorted by distance alone (so equidistant
    /// rows keep their ascending-index order) and cut to `k`.
    fn nearest_by_full_sort(lof: &LocalOutlierFactor, x: &Matrix) -> Vec<Vec<(f64, usize)>> {
        (0..x.rows())
            .map(|i| {
                let mut dists: Vec<(f64, usize)> = (0..x.rows())
                    .filter(|&j| j != i)
                    .map(|j| (distance(x.row(i), x.row(j)), j))
                    .collect();
                dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
                dists.truncate(lof.k);
                dists
            })
            .collect()
    }

    #[test]
    fn selected_neighbours_are_bitwise_the_full_sort() {
        // Ties are where a selection could part from a stable sort: an
        // integer lattice (every point has four neighbours at distance 1,
        // four at √2, …) with three of its points repeated exactly.
        let mut lattice: Vec<Vec<f64>> =
            (0..49).map(|i| vec![(i % 7) as f64, (i / 7) as f64]).collect();
        lattice.extend([vec![3.0, 3.0], vec![3.0, 3.0], vec![0.0, 6.0]]);
        // Three stacked copies of it in 3-D, plus repeats: a row's nearest
        // reach into rows both below and above its own index at every
        // distance, so the pairs offered from either side must agree.
        let mut stacked: Vec<Vec<f64>> = (0..3)
            .flat_map(|z| (0..49).map(move |i| vec![(i % 7) as f64, (i / 7) as f64, z as f64]))
            .collect();
        stacked.extend([
            vec![3.0, 3.0, 1.0],
            vec![3.0, 3.0, 1.0],
            vec![0.0, 0.0, 0.0],
            vec![6.0, 6.0, 2.0],
            vec![6.0, 6.0, 2.0],
        ]);
        let fixtures = [
            cluster_with_outlier(),
            varying_density(),
            Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]),
            Matrix::from_rows(&lattice),
            Matrix::from_rows(&stacked),
        ];
        let bits = |lists: &[Vec<(f64, usize)>]| -> Vec<Vec<(u64, usize)>> {
            lists.iter().map(|nb| nb.iter().map(|&(d, j)| (d.to_bits(), j)).collect()).collect()
        };
        for x in &fixtures {
            // Cuts inside a group of equidistant rows, and every other row.
            for k in [1, 3, 5, 6, 9, 20, x.rows() - 1].into_iter().filter(|&k| k < x.rows()) {
                let lof = LocalOutlierFactor::new(k, 1.5);
                let (nearest, reference) = (lof.nearest(x), nearest_by_full_sort(&lof, x));
                assert_eq!(bits(&nearest), bits(&reference), "{} rows, k = {k}", x.rows());
                assert!(nearest.iter().all(|nb| nb.capacity() == k), "a list holds more than k");
                let scores = lof.scores(x).unwrap();
                let expected = scores_from_neighbours(&reference);
                assert_eq!(
                    scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                    "{} rows, k = {k}",
                    x.rows()
                );
            }
        }
    }

    #[test]
    fn too_few_samples_rejected() {
        let x = Matrix::zeros(5, 2);
        assert!(LocalOutlierFactor::new(5, 1.5).scores(&x).is_err());
    }

    #[test]
    fn non_finite_values_rejected() {
        let mut x = cluster_with_outlier();
        x.set(7, 1, f64::NAN);
        assert!(LocalOutlierFactor::new(5, 1.5).scores(&x).is_err());
    }

    #[test]
    fn duplicate_points_do_not_panic() {
        let x = Matrix::from_rows(&vec![vec![1.0, 1.0]; 10]);
        let scores = LocalOutlierFactor::new(3, 1.5).scores(&x).unwrap();
        assert!(scores.iter().all(|s| s.is_finite()));
    }
}
