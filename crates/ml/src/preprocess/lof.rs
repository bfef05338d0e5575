//! Local Outlier Factor (Breunig et al., SIGMOD 2000).
//!
//! Density-based outlier detection: each point's *local reachability
//! density* is compared with that of its k nearest neighbours. A LOF score
//! near 1 means the point sits in a region of density similar to its
//! neighbours; scores well above 1 flag local outliers that global
//! statistical filters miss. The paper runs LOF after standardisation
//! (distances need comparable scales) to clean the gathered timings.
//!
//! The neighbour search is exact. Each row keeps its k nearest in a
//! bounded list ordered by `(distance, index)`, a total order, so the list
//! it ends with is the unique k least whatever order the candidates came
//! in. The order of a row's neighbours — nearest first, equidistant rows by
//! ascending index — is part of the result: the scores, the flagged set and
//! every artefact trained after the filter depend on it bit for bit, so
//! every distance is the one running sum of its pair's squared differences
//! in column order, then `√`. (A GEMM-shaped `‖x‖² + ‖y‖² − 2x·y` search
//! would round differently, move ties, and with them the artefact.)
//!
//! The search groups rows that agree bit for bit on a leading block of
//! columns ([`LocalOutlierFactor::scores_grouped`]): an install's rows are
//! sweeps, and every point of one sweep shares the columns its shape (and
//! thread count) fills. For each pair of groups the running sum over the
//! block is computed once, in column order — bitwise the partial value the
//! sum of every pair of their rows passes through. A row visits the groups
//! in the order of that block sum, nearest first, and stops at the first
//! whose root exceeds the k-th distance of its list: adding a non-negative
//! term never lowers a sum and `√` is monotone, so no pair with a row of
//! that group or any later one can enter. Inside a visited group the rows
//! go eight at a time into a column-major tile, and each pair's sum goes on
//! from the shared block sum over the remaining columns; every eight
//! columns the sums are checked against the list's bound, and the tile is
//! left once none can enter, exact for the same reason.
//!
//! Cost: the block sums take O(g²·b) time for g groups and a block of b
//! columns, and a group's rows take the groups off a heap of its g sums,
//! O(log g) per visit. Each row pays O(d − b) per row of every group it
//! visits, which on an install's rows is a few groups of many: the 3,240
//! rows of a 60-shape widened install (180 groups of 18, b = 17 of d = 25)
//! complete 705,276 pair sums, where the pairs number 5,245,380. A block of
//! width 0 is one group, so every row visits every other: O(n²·d), each
//! pair summed from both of its rows. Memory is O(n·k + n + g) plus one
//! tile fill: no n × n or g × g table ever exists.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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
        self.scores_grouped(x, 0)
    }

    /// [`LocalOutlierFactor::scores`], with the neighbour search grouping
    /// rows that agree bit for bit on their first `shared` columns (all of
    /// them when `shared` exceeds the width). The scores are bitwise the
    /// same for every `shared`; only the time differs, and it falls most
    /// when many rows share such a block (see the module doc).
    ///
    /// # Errors
    /// As [`LocalOutlierFactor::scores`].
    pub fn scores_grouped(&self, x: &Matrix, shared: usize) -> Result<Vec<f64>, MlError> {
        let n = x.rows();
        if n <= self.k {
            return Err(MlError::BadShape(format!("need more than k={} samples, got {n}", self.k)));
        }
        if !x.all_finite() {
            return Err(MlError::Numeric("non-finite feature values".into()));
        }
        Ok(scores_from_neighbours(&self.nearest_grouped(x, shared)))
    }

    /// Every row's `k` nearest other rows as `(distance, row)`, nearest
    /// first, equidistant rows by ascending index: the search with all rows
    /// in one group.
    #[cfg(test)]
    fn nearest(&self, x: &Matrix) -> Vec<Vec<(f64, usize)>> {
        self.nearest_grouped(x, 0)
    }

    /// [`LocalOutlierFactor::nearest`], with rows grouped by their first
    /// `shared` columns' bits (see the module doc). Needs more than `k`
    /// rows.
    fn nearest_grouped(&self, x: &Matrix, shared: usize) -> Vec<Vec<(f64, usize)>> {
        let k = self.k;
        let shared = shared.min(x.cols());
        // A tile holds `width` columns, in a slot of at least one.
        let (width, stride) = (x.cols() - shared, (x.cols() - shared).max(1));
        let groups = Groups::of(x, shared);
        let mut lists: Vec<Vec<(f64, usize)>> =
            (0..x.rows()).map(|_| Vec::with_capacity(k)).collect();
        // The bounds of one group's rows' lists, and the rows of a group
        // they visit, up to `FILL` at a time, `TILE` at a time into
        // column-major tiles of the columns after the block.
        let mut bounds: Vec<(f64, usize)> = Vec::new();
        let mut tiles = vec![[0.0; TILE]; groups.largest().min(FILL).div_ceil(TILE) * stride];
        for g in 0..groups.len() {
            let own = groups.members(g);
            let lead = &x.row(own[0])[..shared];
            bounds.clear();
            bounds.resize(own.len(), (f64::INFINITY, usize::MAX));
            // The block sums to every group, nearest first (as bits, which
            // order non-negative sums as their values): a row stops after
            // the nearest few groups of many.
            let mut nearest_first: BinaryHeap<_> = (0..groups.len())
                .map(|h| {
                    let sum = squared_sum(0.0, lead, &x.row(groups.members(h)[0])[..shared]);
                    Reverse((sum.to_bits(), h))
                })
                .collect();
            while let Some(Reverse((sum, h))) = nearest_first.pop() {
                let (sum, root) = (f64::from_bits(sum), f64::from_bits(sum).sqrt());
                // Every pair with a row of `h` is at least `root` apart, and
                // so is every pair with a row of a later group: a row whose
                // list is bound nearer is done.
                if bounds.iter().all(|bound| root > bound.0) {
                    break;
                }
                for others in groups.members(h).chunks(FILL) {
                    for (lanes, tile) in others.chunks(TILE).zip(tiles.chunks_mut(stride)) {
                        for (lane, &j) in lanes.iter().enumerate() {
                            for (column, &v) in tile.iter_mut().zip(&x.row(j)[shared..]) {
                                column[lane] = v;
                            }
                        }
                    }
                    for (&i, bound) in own.iter().zip(&mut bounds).filter(|(_, b)| root <= b.0) {
                        let (row, list) = (&x.row(i)[shared..], &mut lists[i]);
                        for (lanes, tile) in others.chunks(TILE).zip(tiles.chunks(stride)) {
                            // How near a pair must be to enter the list:
                            // nowhere for a lane past the group or holding
                            // row i.
                            let mut reach = [f64::NEG_INFINITY; TILE];
                            for (r, _) in reach.iter_mut().zip(lanes).filter(|&(_, &j)| j != i) {
                                *r = bound.0;
                            }
                            let Some(dists) = distances_within(sum, row, &tile[..width], &reach)
                            else {
                                continue;
                            };
                            for ((&d, &r), &j) in dists.iter().zip(&reach).zip(lanes) {
                                if d <= r {
                                    offer(list, k, bound, (d, j));
                                }
                            }
                        }
                    }
                }
            }
        }
        lists
    }

    /// Indices of rows whose LOF score is at or below the threshold
    /// (i.e. the inliers to keep), in the original order; `shared` as in
    /// [`LocalOutlierFactor::scores_grouped`].
    ///
    /// # Errors
    /// As [`LocalOutlierFactor::scores`].
    pub fn inlier_indices(&self, x: &Matrix, shared: usize) -> Result<Vec<usize>, MlError> {
        Ok(self
            .scores_grouped(x, shared)?
            .iter()
            .enumerate()
            .filter(|(_, &s)| s <= self.threshold)
            .map(|(i, _)| i)
            .collect())
    }
}

/// The rows of a matrix grouped by the bits of their first `shared`
/// columns: rows sorted by group, each group's rows ascending.
struct Groups {
    rows: Vec<usize>,
    /// Where each group starts in `rows`, and `rows.len()` last.
    starts: Vec<usize>,
}

impl Groups {
    fn of(x: &Matrix, shared: usize) -> Self {
        let bits = |i: usize| x.row(i)[..shared].iter().map(|v| v.to_bits());
        let mut rows: Vec<usize> = (0..x.rows()).collect();
        rows.sort_by(|&a, &b| bits(a).cmp(bits(b)));
        let mut starts = vec![0];
        starts.extend((1..rows.len()).filter(|&at| bits(rows[at - 1]).ne(bits(rows[at]))));
        starts.push(rows.len());
        Self { rows, starts }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn members(&self, group: usize) -> &[usize] {
        &self.rows[self.starts[group]..self.starts[group + 1]]
    }

    /// Rows in the largest group.
    fn largest(&self) -> usize {
        self.starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }
}

/// Rows per distance tile: [`distances_within`] keeps one running sum per
/// row.
const TILE: usize = 8;

/// Rows of a visited group held in tiles at once, a bound on the tiles'
/// memory whatever the size of a group.
const FILL: usize = 32 * TILE;

/// Insert `candidate` into a list kept ascending by [`before`] and at most
/// `k` long, if it comes before the list's `bound`: its `k`-th entry, or
/// anything while it holds fewer.
#[inline]
fn offer(
    list: &mut Vec<(f64, usize)>,
    k: usize,
    bound: &mut (f64, usize),
    candidate: (f64, usize),
) {
    if !before(&candidate, bound) {
        return;
    }
    if list.len() == k {
        list.pop();
    }
    // Shift the entries after it up one, from the end (on an install's
    // rows, faster than a binary search and `Vec::insert`).
    list.push(candidate);
    let mut at = list.len() - 1;
    while at > 0 && before(&candidate, &list[at - 1]) {
        list[at] = list[at - 1];
        at -= 1;
    }
    list[at] = candidate;
    if list.len() == k {
        *bound = list[k - 1];
    }
}

/// `(distance, index)` order: nearer first, equidistant rows by index.
#[inline]
fn before(a: &(f64, usize), b: &(f64, usize)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && a.1 < b.1)
}

/// `sum` plus the squared differences of `a` and `b`, added in column
/// order.
#[inline]
fn squared_sum(mut sum: f64, a: &[f64], b: &[f64]) -> f64 {
    for (&ac, &bc) in a.iter().zip(b) {
        sum += (ac - bc) * (ac - bc);
    }
    sum
}

/// Columns summed between two looks at whether a tile can stop early.
const COLUMNS_PER_LOOK: usize = 8;

/// The Euclidean distance from a row to each of the rows held column-major
/// in `tile`, when their leading columns summed to `sum`: per row, the
/// squared differences of `a` and its columns added to `sum` in column
/// order, then the square root — one running sum per row, so each is
/// bitwise the distance of that one pair on its own.
///
/// `None` once every row is known to be farther than its `reach`: adding a
/// non-negative term never lowers a sum and `√` is monotone, so a partial
/// sum whose root exceeds the reach means the full distance does too.
#[inline]
fn distances_within(
    sum: f64,
    a: &[f64],
    tile: &[[f64; TILE]],
    reach: &[f64; TILE],
) -> Option<[f64; TILE]> {
    let mut sums = [sum; TILE];
    let looks = a.chunks(COLUMNS_PER_LOOK).zip(tile.chunks(COLUMNS_PER_LOOK));
    for (look, (a, tile)) in looks.enumerate() {
        // The first look would see `sum`, which the caller checked.
        if look > 0 && sums.iter().zip(reach).all(|(s, &r)| s.sqrt() > r) {
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
        let keep = LocalOutlierFactor::new(5, 1.5).inlier_indices(&x, 0).unwrap();
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

    /// Neighbour lists and scores as bits.
    fn bits(lists: &[Vec<(f64, usize)>]) -> Vec<Vec<(u64, usize)>> {
        lists.iter().map(|nb| nb.iter().map(|&(d, j)| (d.to_bits(), j)).collect()).collect()
    }

    fn score_bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|s| s.to_bits()).collect()
    }

    /// The grouped search at each width in `shared` against the full-sort
    /// reference: every list and score bitwise equal.
    fn check_grouped(x: &Matrix, k: usize, shared: &[usize]) -> Result<(), String> {
        let lof = LocalOutlierFactor::new(k, 1.5);
        let reference = nearest_by_full_sort(&lof, x);
        let expected = score_bits(&scores_from_neighbours(&reference));
        for &width in shared {
            let at = format!("{} rows, k = {k}, shared = {width}", x.rows());
            let nearest = lof.nearest_grouped(x, width);
            if bits(&nearest) != bits(&reference) {
                return Err(format!("lists differ: {at}"));
            }
            if score_bits(&lof.scores_grouped(x, width).map_err(|e| e.to_string())?) != expected {
                return Err(format!("scores differ: {at}"));
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn grouped_search_is_bitwise_the_full_sort(
            seed in 0u64..u64::MAX,
            n_groups in 1usize..10,
            largest in 1usize..10,
            block in 0usize..5,
            tail in 0usize..11,
            k_pick in 0usize..1000,
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            // Groups of random size (one row each when `largest` is 1) that
            // share a leading block of `block` columns, drawn from few
            // values, so groups meet at equal block sums; `-0.0` and `0.0`
            // are equal values with different bits, so they make different
            // groups. The rest of each row is a half-integer lattice point
            // (equidistant ties), sometimes an exact copy of its group's
            // previous row; then the rows are shuffled.
            const LEAD: [f64; 6] = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.5];
            // A row has at least one column (the reference sums none to
            // `-0.0`).
            let tail = if block == 0 { tail.max(1) } else { tail };
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for _ in 0..n_groups {
                let lead: Vec<f64> = (0..block).map(|_| LEAD[rng.gen_range(0..LEAD.len())]).collect();
                for member in 0..rng.gen_range(1..largest + 1) {
                    let mut row = lead.clone();
                    if member > 0 && rng.gen_range(0..4) == 0 {
                        row = rows[rows.len() - 1].clone();
                    } else {
                        row.extend((0..tail).map(|_| f64::from(rng.gen_range(0..5u32)) * 0.5));
                    }
                    rows.push(row);
                }
            }
            for at in (1..rows.len()).rev() {
                rows.swap(at, rng.gen_range(0..at + 1));
            }
            if rows.len() < 2 {
                return Ok(());
            }
            let x = Matrix::from_rows(&rows);
            let k = 1 + k_pick % (rows.len() - 1);
            let widths = [0, block / 2, block, block + tail];
            proptest::prop_assert!(check_grouped(&x, k, &widths).is_ok(), "{:?}", check_grouped(&x, k, &widths));
        }
    }

    #[test]
    fn groups_larger_than_a_fill_are_exact() {
        // Two groups each wider than the tiles hold at once, on a lattice
        // (ties at every distance) with repeated rows.
        let rows: Vec<Vec<f64>> = (0..2 * FILL + 40)
            .map(|i| vec![(i % 2) as f64, ((i / 2) % 9) as f64, ((i / 18) % 7) as f64])
            .collect();
        let x = Matrix::from_rows(&rows);
        for k in [1, 7, 20] {
            assert_eq!(check_grouped(&x, k, &[0, 1, 3]), Ok(()));
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
