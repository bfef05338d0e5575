//! Hyper-parameter tuning: grid search with stratified k-fold CV.
//!
//! The paper tunes every candidate model on the preprocessed training data
//! with cross-validation folds (not leave-one-out — the dataset is big
//! enough) before the speedup-based model selection. [`ModelSpec`] is a
//! plain-data description of one hyper-parameter point; the default grids
//! are modest by design, mirroring the "small dataset, fast install" spirit
//! of the paper.

use serde::{Deserialize, Serialize};

use crate::data::{Dataset, KFold};
use crate::metrics::rmse;
use crate::models::{
    AdaBoostR2, AnyModel, BayesianRidge, DecisionTree, ElasticNet, GradientBoosting,
    HistGradientBoosting, LinearRegression, ModelKind, RandomForest, Regressor,
};
use crate::MlError;

/// A concrete hyper-parameter point for one model family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ModelSpec {
    LinearRegression,
    ElasticNet { alpha: f64, l1_ratio: f64 },
    BayesianRidge,
    DecisionTree { max_depth: usize, min_samples_leaf: usize },
    RandomForest { n_trees: usize, max_depth: usize, max_features: f64 },
    AdaBoost { n_rounds: usize, max_depth: usize },
    XgBoost { n_rounds: usize, max_depth: usize, eta: f64, lambda: f64 },
    LightGbm { n_rounds: usize, max_leaves: usize, eta: f64 },
}

impl ModelSpec {
    /// The family this spec belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            ModelSpec::LinearRegression => ModelKind::LinearRegression,
            ModelSpec::ElasticNet { .. } => ModelKind::ElasticNet,
            ModelSpec::BayesianRidge => ModelKind::BayesianRidge,
            ModelSpec::DecisionTree { .. } => ModelKind::DecisionTree,
            ModelSpec::RandomForest { .. } => ModelKind::RandomForest,
            ModelSpec::AdaBoost { .. } => ModelKind::AdaBoost,
            ModelSpec::XgBoost { .. } => ModelKind::XgBoost,
            ModelSpec::LightGbm { .. } => ModelKind::LightGbm,
        }
    }

    /// Instantiate an unfitted model (seeded deterministically).
    pub fn build(&self, seed: u64) -> AnyModel {
        match *self {
            ModelSpec::LinearRegression => AnyModel::LinearRegression(LinearRegression::new()),
            ModelSpec::ElasticNet { alpha, l1_ratio } => {
                AnyModel::ElasticNet(ElasticNet::new(alpha, l1_ratio))
            }
            ModelSpec::BayesianRidge => AnyModel::BayesianRidge(BayesianRidge::default()),
            ModelSpec::DecisionTree { max_depth, min_samples_leaf } => {
                AnyModel::DecisionTree(DecisionTree {
                    max_depth,
                    min_samples_leaf,
                    seed,
                    ..DecisionTree::default()
                })
            }
            ModelSpec::RandomForest { n_trees, max_depth, max_features } => {
                AnyModel::RandomForest(RandomForest {
                    n_trees,
                    max_depth,
                    max_features,
                    seed,
                    ..RandomForest::default()
                })
            }
            ModelSpec::AdaBoost { n_rounds, max_depth } => AnyModel::AdaBoost(AdaBoostR2 {
                n_rounds,
                max_depth,
                seed,
                ..AdaBoostR2::default()
            }),
            ModelSpec::XgBoost { n_rounds, max_depth, eta, lambda } => {
                AnyModel::XgBoost(GradientBoosting {
                    n_rounds,
                    max_depth,
                    eta,
                    lambda,
                    seed,
                    ..GradientBoosting::default()
                })
            }
            ModelSpec::LightGbm { n_rounds, max_leaves, eta } => {
                AnyModel::LightGbm(HistGradientBoosting {
                    n_rounds,
                    max_leaves,
                    eta,
                    ..HistGradientBoosting::default()
                })
            }
        }
    }

    /// A small default grid for each family.
    pub fn default_grid(kind: ModelKind) -> Vec<ModelSpec> {
        match kind {
            ModelKind::LinearRegression => vec![ModelSpec::LinearRegression],
            ModelKind::ElasticNet => [0.01, 0.1, 1.0]
                .iter()
                .flat_map(|&alpha| {
                    [0.2, 0.5, 0.8]
                        .iter()
                        .map(move |&l1_ratio| ModelSpec::ElasticNet { alpha, l1_ratio })
                })
                .collect(),
            ModelKind::BayesianRidge => vec![ModelSpec::BayesianRidge],
            ModelKind::DecisionTree => [6, 10, 14]
                .iter()
                .flat_map(|&max_depth| {
                    [1, 3].iter().map(move |&min_samples_leaf| ModelSpec::DecisionTree {
                        max_depth,
                        min_samples_leaf,
                    })
                })
                .collect(),
            ModelKind::RandomForest => [50, 100]
                .iter()
                .flat_map(|&n_trees| {
                    [10, 14].iter().map(move |&max_depth| ModelSpec::RandomForest {
                        n_trees,
                        max_depth,
                        max_features: 0.7,
                    })
                })
                .collect(),
            ModelKind::AdaBoost => [30, 60]
                .iter()
                .flat_map(|&n_rounds| {
                    [4, 6].iter().map(move |&max_depth| ModelSpec::AdaBoost { n_rounds, max_depth })
                })
                .collect(),
            ModelKind::XgBoost => [100, 200]
                .iter()
                .flat_map(|&n_rounds| {
                    [4, 6].iter().map(move |&max_depth| ModelSpec::XgBoost {
                        n_rounds,
                        max_depth,
                        eta: 0.1,
                        lambda: 1.0,
                    })
                })
                .collect(),
            ModelKind::LightGbm => [100, 200]
                .iter()
                .flat_map(|&n_rounds| {
                    [15, 31].iter().map(move |&max_leaves| ModelSpec::LightGbm {
                        n_rounds,
                        max_leaves,
                        eta: 0.1,
                    })
                })
                .collect(),
        }
    }
}

/// Result of a grid search over one family.
#[derive(Debug, Clone)]
pub struct TuneResult {
    /// The winning hyper-parameter point.
    pub spec: ModelSpec,
    /// Its mean CV RMSE; `None` when the grid had one spec, so nothing was
    /// chosen and nothing cross-validated.
    pub cv_rmse: Option<f64>,
    /// Every `(spec, mean CV RMSE)` evaluated, in grid order (empty for a
    /// one-spec grid).
    pub trials: Vec<(ModelSpec, f64)>,
}

/// Grid search with stratified k-fold CV; refits the winner on all data.
/// A one-spec grid has no choice to make, so it is refitted without CV.
#[derive(Debug, Clone)]
pub struct GridSearch {
    pub folds: usize,
    pub seed: u64,
}

impl Default for GridSearch {
    fn default() -> Self {
        Self { folds: 4, seed: 0 }
    }
}

impl GridSearch {
    /// Mean CV RMSE of one spec on a dataset.
    pub fn cv_rmse(&self, spec: &ModelSpec, data: &Dataset) -> Result<f64, MlError> {
        let folds = KFold::new(self.folds, self.seed).split(&data.y);
        let mut total = 0.0;
        for (train_idx, val_idx) in &folds {
            let train = data.select(train_idx);
            let val = data.select(val_idx);
            let mut model = spec.build(self.seed);
            model.fit(&train.x, &train.y)?;
            total += rmse(&model.predict(&val.x), &val.y);
        }
        Ok(total / folds.len() as f64)
    }

    /// Tune a grid, returning the best spec and a model refitted on all of
    /// `data`.
    pub fn tune(
        &self,
        grid: &[ModelSpec],
        data: &Dataset,
    ) -> Result<(TuneResult, AnyModel), MlError> {
        let mut trials = Vec::new();
        let (spec, cv_rmse) = match grid {
            [] => return Err(MlError::BadShape("empty grid".into())),
            [only] => (only.clone(), None),
            _ => {
                for spec in grid {
                    let score = self.cv_rmse(spec, data)?;
                    trials.push((spec.clone(), score));
                }
                let (spec, score) = trials
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite RMSE"))
                    .cloned()
                    .expect("non-empty grid");
                (spec, Some(score))
            }
        };
        let mut model = spec.build(self.seed);
        model.fit(&data.x, &data.y)?;
        Ok((TuneResult { spec, cv_rmse, trials }, model))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Matrix;
    use crate::models::test_support::nonlinear_dataset;

    fn dataset(n: usize, seed: u64) -> Dataset {
        let (x, y) = nonlinear_dataset(n, seed);
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn every_family_has_a_grid() {
        for kind in ModelKind::table_candidates() {
            let grid = ModelSpec::default_grid(kind);
            assert!(!grid.is_empty(), "{kind:?} grid empty");
            assert!(grid.iter().all(|s| s.kind() == kind));
        }
    }

    #[test]
    fn spec_build_matches_kind() {
        for kind in ModelKind::table_candidates() {
            for spec in ModelSpec::default_grid(kind) {
                assert_eq!(spec.build(0).kind(), kind);
            }
        }
    }

    #[test]
    fn cv_rmse_reflects_model_quality() {
        let data = dataset(250, 70);
        let gs = GridSearch::default();
        let tree = gs
            .cv_rmse(&ModelSpec::DecisionTree { max_depth: 10, min_samples_leaf: 1 }, &data)
            .unwrap();
        let stump = gs
            .cv_rmse(&ModelSpec::DecisionTree { max_depth: 1, min_samples_leaf: 1 }, &data)
            .unwrap();
        assert!(tree < stump, "deeper tree should cross-validate better");
    }

    #[test]
    fn tune_picks_lowest_cv_rmse() {
        let data = dataset(200, 71);
        let grid = vec![
            ModelSpec::DecisionTree { max_depth: 1, min_samples_leaf: 1 },
            ModelSpec::DecisionTree { max_depth: 8, min_samples_leaf: 1 },
        ];
        let (result, model) = GridSearch::default().tune(&grid, &data).unwrap();
        assert_eq!(result.trials.len(), 2);
        let best_trial =
            result.trials.iter().min_by(|a, b| a.1.partial_cmp(&b.1).unwrap()).unwrap();
        assert_eq!(result.spec, best_trial.0);
        assert_eq!(result.cv_rmse, Some(best_trial.1));
        assert!(model.is_fitted());
    }

    #[test]
    fn one_spec_grid_is_refit_without_cross_validation() {
        let data = dataset(120, 74);
        let spec = ModelSpec::DecisionTree { max_depth: 6, min_samples_leaf: 1 };
        let gs = GridSearch::default();
        let (result, model) = gs.tune(std::slice::from_ref(&spec), &data).unwrap();
        assert_eq!(result.spec, spec);
        assert_eq!(result.cv_rmse, None);
        assert!(result.trials.is_empty());
        // The refit is the one a cross-validated search would have made.
        let mut reference = spec.build(gs.seed);
        reference.fit(&data.x, &data.y).unwrap();
        let bits =
            |m: &AnyModel| m.predict(&data.x).iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&model), bits(&reference));
    }

    #[test]
    fn tuned_model_is_refit_on_all_data() {
        // The returned model must be usable on data of the training width.
        let data = dataset(150, 72);
        let (_, model) = GridSearch::default()
            .tune(&ModelSpec::default_grid(ModelKind::DecisionTree), &data)
            .unwrap();
        let preds = model.predict(&data.x);
        assert_eq!(preds.len(), data.len());
    }

    #[test]
    fn empty_grid_rejected() {
        let data = Dataset::new(Matrix::zeros(4, 1), vec![0.0; 4]).unwrap();
        assert!(GridSearch::default().tune(&[], &data).is_err());
    }

    #[test]
    fn deterministic_tuning() {
        let data = dataset(120, 73);
        let grid = ModelSpec::default_grid(ModelKind::DecisionTree);
        let a = GridSearch::default().tune(&grid, &data).unwrap().0;
        let b = GridSearch::default().tune(&grid, &data).unwrap().0;
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.cv_rmse, b.cv_rmse);
    }
}
