//! Model training: tune every candidate family on the training split
//! (the right half of the paper's Fig. 2).

use std::hint::black_box;
use std::time::Instant;

use adsala_gemm::plan::PlanGrid;
use adsala_gemm::{OpShape, Precision};
use adsala_ml::data::Dataset;
use adsala_ml::metrics::normalised_rmse;
use adsala_ml::tune::{GridSearch, ModelSpec};
use adsala_ml::{AnyModel, ModelKind, Regressor};
use serde::{Deserialize, Serialize};

use crate::preprocess::PreprocessConfig;
use crate::select::predict_point_for_op_capped;
use crate::AdsalaError;

/// One tuned family: its chosen spec and its fitted model.
pub struct TrainedCandidate {
    pub kind: ModelKind,
    pub spec: ModelSpec,
    pub model: AnyModel,
}

/// The per-family row of the paper's Tables III/IV.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelReport {
    pub kind: ModelKind,
    /// Test-set RMSE normalised by the mean predictor's RMSE.
    pub test_nrmse: f64,
    /// Mean speedup over the test shapes ignoring evaluation overhead.
    pub ideal_mean_speedup: f64,
    /// Aggregate (total-time ratio) speedup ignoring evaluation overhead.
    pub ideal_aggregate_speedup: f64,
    /// Measured model evaluation time per GEMM call, microseconds
    /// (a full thread-count selection sweep).
    pub eval_time_us: f64,
    /// Mean speedup including the evaluation overhead.
    pub est_mean_speedup: f64,
    /// Aggregate speedup including the evaluation overhead.
    pub est_aggregate_speedup: f64,
}

/// Tune one family (optionally with a custom grid) on the training split.
fn train_family(
    kind: ModelKind,
    grid_override: Option<&[ModelSpec]>,
    train: &Dataset,
    folds: usize,
    seed: u64,
) -> Result<TrainedCandidate, AdsalaError> {
    let gs = GridSearch { folds, seed };
    let default_grid;
    let grid: &[ModelSpec] = match grid_override {
        Some(g) => g,
        None => {
            default_grid = ModelSpec::default_grid(kind);
            &default_grid
        }
    };
    let (result, model) = gs.tune(grid, train)?;
    Ok(TrainedCandidate { kind, spec: result.spec, model })
}

/// Tune every requested family.
pub fn train_all_families(
    kinds: &[ModelKind],
    grids: &[(ModelKind, Vec<ModelSpec>)],
    train: &Dataset,
    folds: usize,
    seed: u64,
) -> Result<Vec<TrainedCandidate>, AdsalaError> {
    kinds
        .iter()
        .map(|&kind| {
            let over = grids.iter().find(|(k, _)| *k == kind).map(|(_, g)| g.as_slice());
            train_family(kind, over, train, folds, seed)
        })
        .collect()
}

/// Test-set normalised RMSE of a fitted model.
pub fn test_nrmse(model: &AnyModel, test: &Dataset) -> f64 {
    normalised_rmse(&model.predict(&test.x), &test.y)
}

/// Measure the per-call model-evaluation time: the decision sweep the
/// runtime serves on a cache miss ([`predict_point_for_op_capped`],
/// uncapped), averaged over `probes` distinct inputs and `reps` timed
/// repetitions. Returns seconds.
pub fn measure_eval_time(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    probes: &[(u64, u64, u64)],
    reps: u32,
) -> f64 {
    debug_assert!(!grid.is_empty() && !probes.is_empty());
    let sweep = |&(m, k, n): &(u64, u64, u64)| {
        let shape = OpShape::gemm(Precision::F32, m, k, n);
        black_box(predict_point_for_op_capped(model, config, grid, black_box(shape), u32::MAX));
    };
    // Warm-up sweep so lazy CPU state doesn't inflate the first probe.
    probes.iter().take(1).for_each(sweep);
    let reps = reps.max(1);
    let start = Instant::now();
    for _ in 0..reps {
        probes.iter().for_each(sweep);
    }
    start.elapsed().as_secs_f64() / (reps as f64 * probes.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_ml::data::Matrix;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    fn toy_dataset(n: usize) -> Dataset {
        let mut rng = StdRng::seed_from_u64(80);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let y: Vec<f64> = rows.iter().map(|r| r[0] * r[0] - r[1]).collect();
        Dataset::new(Matrix::from_rows(&rows), y).unwrap()
    }

    #[test]
    fn train_family_returns_fitted_model() {
        let data = toy_dataset(150);
        let c = train_family(ModelKind::DecisionTree, None, &data, 3, 0).unwrap();
        assert_eq!(c.kind, ModelKind::DecisionTree);
        assert!(c.model.is_fitted());
    }

    #[test]
    fn grid_override_is_used() {
        let data = toy_dataset(100);
        let grid = vec![ModelSpec::DecisionTree { max_depth: 2, min_samples_leaf: 1 }];
        let c = train_family(ModelKind::DecisionTree, Some(&grid), &data, 3, 0).unwrap();
        assert_eq!(c.spec, grid[0]);
    }

    #[test]
    fn train_all_families_covers_requested_kinds() {
        let data = toy_dataset(120);
        let kinds = [ModelKind::LinearRegression, ModelKind::DecisionTree];
        let out = train_all_families(&kinds, &[], &data, 3, 0).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].kind, ModelKind::LinearRegression);
        assert_eq!(out[1].kind, ModelKind::DecisionTree);
    }

    #[test]
    fn nrmse_for_good_model_below_one() {
        let data = toy_dataset(200);
        let c = train_family(ModelKind::DecisionTree, None, &data, 3, 0).unwrap();
        let score = test_nrmse(&c.model, &data);
        assert!(score < 0.7, "tree should beat the mean predictor: {score}");
    }
}
