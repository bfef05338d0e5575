//! Regression models: the eight families the paper compares in its
//! Tables III/IV.
//!
//! | Family | Models |
//! |---|---|
//! | Linear | [`LinearRegression`], [`ElasticNet`], [`BayesianRidge`] |
//! | Tree   | [`DecisionTree`], [`RandomForest`], [`AdaBoostR2`], [`GradientBoosting`] (XGBoost-style), [`HistGradientBoosting`] (LightGBM-style) |
//!
//! All models implement [`Regressor`] and are wrapped by [`AnyModel`] for
//! uniform storage, serde round-tripping (the trained model is an ADSALA
//! install-time artefact) and dispatch inside the tuning/selection code.

pub mod adaboost;
pub mod bayes_ridge;
pub mod elastic_net;
pub mod forest;
pub mod gbt;
pub mod hist_gbt;
pub mod linear;
pub mod tree;

pub use adaboost::AdaBoostR2;
pub use bayes_ridge::BayesianRidge;
pub use elastic_net::ElasticNet;
pub use forest::RandomForest;
pub use gbt::GradientBoosting;
pub use hist_gbt::HistGradientBoosting;
pub use linear::LinearRegression;
pub use tree::DecisionTree;

use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::MlError;

/// Common interface of every regression model.
pub trait Regressor {
    /// Fit on a feature matrix and labels.
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError>;

    /// Predict one sample. Panics or returns garbage if not fitted — use
    /// [`Regressor::is_fitted`] when unsure.
    fn predict_row(&self, row: &[f64]) -> f64;

    /// Predict every row of a matrix.
    fn predict(&self, x: &Matrix) -> Vec<f64> {
        x.row_iter().map(|r| self.predict_row(r)).collect()
    }

    /// Predict every `width`-wide row of the row-major batch `rows` into
    /// `out` (one slot per row) without allocating once warm; bitwise equal
    /// to [`Regressor::predict_row`] on each row. The tree ensembles
    /// override it to evaluate set-valued (see [`tree`]): per chunk of 64
    /// rows a tree is walked once with the set of rows, split at a node by
    /// the distinct values its column takes, so a batch whose columns
    /// repeat few values (a decision sweep's) costs a walk per tree, not
    /// per row and tree; every row still adds one leaf per tree in tree
    /// order, hence the same bits.
    fn predict_rows(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        debug_assert_eq!(rows.len(), width * out.len());
        for (row, pred) in rows.chunks_exact(width).zip(out) {
            *pred = self.predict_row(row);
        }
    }

    /// Whether `fit` has completed successfully.
    fn is_fitted(&self) -> bool;
}

/// Identifier for each model family, in the display order of the paper's
/// Tables III/IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelKind {
    LinearRegression,
    ElasticNet,
    BayesianRidge,
    DecisionTree,
    RandomForest,
    AdaBoost,
    XgBoost,
    LightGbm,
}

impl ModelKind {
    /// The eight families compared in Tables III/IV: every implemented
    /// family, in table order.
    pub fn table_candidates() -> [ModelKind; 8] {
        [
            ModelKind::LinearRegression,
            ModelKind::ElasticNet,
            ModelKind::BayesianRidge,
            ModelKind::DecisionTree,
            ModelKind::RandomForest,
            ModelKind::AdaBoost,
            ModelKind::XgBoost,
            ModelKind::LightGbm,
        ]
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::LinearRegression => "Linear Regression",
            ModelKind::ElasticNet => "ElasticNet",
            ModelKind::BayesianRidge => "Bayes Regression",
            ModelKind::DecisionTree => "Decision Tree",
            ModelKind::RandomForest => "Random Forest",
            ModelKind::AdaBoost => "AdaBoost",
            ModelKind::XgBoost => "XGBoost",
            ModelKind::LightGbm => "LightGBM",
        }
    }
}

/// A model of any family, with uniform fit/predict and serde support.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum AnyModel {
    LinearRegression(LinearRegression),
    ElasticNet(ElasticNet),
    BayesianRidge(BayesianRidge),
    DecisionTree(DecisionTree),
    RandomForest(RandomForest),
    AdaBoost(AdaBoostR2),
    XgBoost(GradientBoosting),
    LightGbm(HistGradientBoosting),
}

impl AnyModel {
    /// A model of the given family with library-default hyper-parameters.
    pub fn default_for(kind: ModelKind) -> AnyModel {
        match kind {
            ModelKind::LinearRegression => AnyModel::LinearRegression(LinearRegression::new()),
            ModelKind::ElasticNet => AnyModel::ElasticNet(ElasticNet::default()),
            ModelKind::BayesianRidge => AnyModel::BayesianRidge(BayesianRidge::default()),
            ModelKind::DecisionTree => AnyModel::DecisionTree(DecisionTree::default()),
            ModelKind::RandomForest => AnyModel::RandomForest(RandomForest::default()),
            ModelKind::AdaBoost => AnyModel::AdaBoost(AdaBoostR2::default()),
            ModelKind::XgBoost => AnyModel::XgBoost(GradientBoosting::default()),
            ModelKind::LightGbm => AnyModel::LightGbm(HistGradientBoosting::default()),
        }
    }

    /// Whether this model, as loaded, can predict rows `width` wide: it is
    /// fitted, a linear model holds one weight per column, and every tree
    /// node splits on a column inside the row and points only at later
    /// nodes of its tree, so every descent ends at a leaf. A model this
    /// library fitted always passes; a damaged document may not.
    ///
    /// # Errors
    /// [`MlError::BadShape`] naming the first defect, or
    /// [`MlError::NotFitted`].
    pub fn check_width(&self, width: usize) -> Result<(), MlError> {
        let weights = |coef: &[f64]| {
            if coef.len() == width {
                Ok(())
            } else {
                Err(MlError::BadShape(format!("{} weights for {width} columns", coef.len())))
            }
        };
        let tree = |nodes: &[tree::Node]| tree::check_nodes(nodes, width);
        match self {
            AnyModel::LinearRegression(m) => weights(&m.coef),
            AnyModel::ElasticNet(m) => weights(&m.coef),
            AnyModel::BayesianRidge(m) => weights(&m.coef),
            AnyModel::DecisionTree(m) => tree(&m.nodes),
            AnyModel::RandomForest(m) => m.trees.iter().try_for_each(|t| tree(&t.nodes)),
            AnyModel::AdaBoost(m) if m.stage_weights.len() != m.stages.len() => {
                Err(MlError::BadShape(format!(
                    "{} stage weights for {} stages",
                    m.stage_weights.len(),
                    m.stages.len()
                )))
            }
            AnyModel::AdaBoost(m) => m.stages.iter().try_for_each(|t| tree(&t.nodes)),
            AnyModel::XgBoost(m) => m.trees.iter().try_for_each(|t| tree(t)),
            AnyModel::LightGbm(m) => m.trees.iter().try_for_each(|t| tree(t)),
        }?;
        if self.is_fitted() {
            Ok(())
        } else {
            Err(MlError::NotFitted)
        }
    }

    /// Which family this model belongs to.
    pub fn kind(&self) -> ModelKind {
        match self {
            AnyModel::LinearRegression(_) => ModelKind::LinearRegression,
            AnyModel::ElasticNet(_) => ModelKind::ElasticNet,
            AnyModel::BayesianRidge(_) => ModelKind::BayesianRidge,
            AnyModel::DecisionTree(_) => ModelKind::DecisionTree,
            AnyModel::RandomForest(_) => ModelKind::RandomForest,
            AnyModel::AdaBoost(_) => ModelKind::AdaBoost,
            AnyModel::XgBoost(_) => ModelKind::XgBoost,
            AnyModel::LightGbm(_) => ModelKind::LightGbm,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $inner:ident => $body:expr) => {
        match $self {
            AnyModel::LinearRegression($inner) => $body,
            AnyModel::ElasticNet($inner) => $body,
            AnyModel::BayesianRidge($inner) => $body,
            AnyModel::DecisionTree($inner) => $body,
            AnyModel::RandomForest($inner) => $body,
            AnyModel::AdaBoost($inner) => $body,
            AnyModel::XgBoost($inner) => $body,
            AnyModel::LightGbm($inner) => $body,
        }
    };
}

impl Regressor for AnyModel {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        dispatch!(self, m => m.fit(x, y))
    }

    fn predict_row(&self, row: &[f64]) -> f64 {
        dispatch!(self, m => m.predict_row(row))
    }

    fn predict(&self, x: &Matrix) -> Vec<f64> {
        dispatch!(self, m => m.predict(x))
    }

    fn predict_rows(&self, rows: &[f64], width: usize, out: &mut [f64]) {
        dispatch!(self, m => m.predict_rows(rows, width, out))
    }

    fn is_fitted(&self) -> bool {
        dispatch!(self, m => m.is_fitted())
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;

    /// Deterministic nonlinear regression problem:
    /// `y = x0² + 2·sin(x1·3) + 0.5·x2 + noise`.
    pub fn nonlinear_dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)]
            })
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| {
                r[0] * r[0] + 2.0 * (r[1] * 3.0).sin() + 0.5 * r[2] + rng.gen_range(-0.05..0.05)
            })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    /// Deterministic linear problem: `y = 3·x0 − 2·x1 + 1 + noise`.
    pub fn linear_dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> =
            (0..n).map(|_| vec![rng.gen_range(-5.0..5.0), rng.gen_range(-5.0..5.0)]).collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| 3.0 * r[0] - 2.0 * r[1] + 1.0 + rng.gen_range(-0.01..0.01))
            .collect();
        (Matrix::from_rows(&rows), y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_models_report_their_kind() {
        for kind in ModelKind::table_candidates() {
            let m = AnyModel::default_for(kind);
            assert_eq!(m.kind(), kind);
            assert!(!m.is_fitted());
        }
    }

    #[test]
    fn table_candidates_order_matches_paper() {
        let names: Vec<&str> = ModelKind::table_candidates().iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "Linear Regression",
                "ElasticNet",
                "Bayes Regression",
                "Decision Tree",
                "Random Forest",
                "AdaBoost",
                "XGBoost",
                "LightGBM"
            ]
        );
    }

    #[test]
    fn every_model_fits_and_predicts() {
        let (x, y) = test_support::nonlinear_dataset(120, 0);
        for kind in ModelKind::table_candidates() {
            let mut m = AnyModel::default_for(kind);
            assert!(m.check_width(x.cols()).is_err(), "{kind:?} passed the load check unfitted");
            m.fit(&x, &y).unwrap_or_else(|e| panic!("{kind:?} failed to fit: {e}"));
            assert!(m.is_fitted(), "{kind:?} not fitted after fit");
            // Every learner lays its trees out as the load check requires.
            m.check_width(x.cols()).unwrap_or_else(|e| panic!("{kind:?} failed the check: {e}"));
            let preds = m.predict(&x);
            assert_eq!(preds.len(), y.len());
            assert!(
                preds.iter().all(|p| p.is_finite()),
                "{kind:?} produced non-finite predictions"
            );
        }
    }

    #[test]
    fn predict_rows_is_bitwise_predict_row() {
        let (x, y) = test_support::nonlinear_dataset(120, 2);
        // A 54-row batch: the size of a widened-grid decision sweep.
        let (batch, _) = test_support::nonlinear_dataset(54, 3);
        let rows: Vec<f64> = batch.row_iter().flatten().copied().collect();
        for kind in ModelKind::table_candidates() {
            let mut m = AnyModel::default_for(kind);
            m.fit(&x, &y).unwrap();
            let mut out = vec![f64::NAN; batch.rows()];
            m.predict_rows(&rows, batch.cols(), &mut out);
            for (row, pred) in batch.row_iter().zip(&out) {
                assert_eq!(pred.to_bits(), m.predict_row(row).to_bits(), "{kind:?}");
            }
        }
    }

    /// `n` rows of five columns: constant, binary, 60 levels, continuous,
    /// and `{−1, −0, +0, 1}` (zeros of both signs compare equal), with a
    /// label that depends on all but the first.
    fn mixed_level_dataset(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                vec![
                    2.5,
                    f64::from(rng.gen_range(0..2u32)),
                    f64::from(rng.gen_range(0..60u32)) * 0.5 - 7.0,
                    rng.gen_range(-3.0..3.0),
                    [-1.0, -0.0, 0.0, 1.0][rng.gen_range(0..4usize)],
                ]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| {
                3.0 * r[1] + (0.4 * r[2]).sin() * r[3] + r[3] * r[3] - 2.0 * r[4]
                    + rng.gen_range(-0.1..0.1)
            })
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn tree_learners_keep_recorded_prediction_bits() {
        // FNV-1a of every prediction's bits, on the training rows and on
        // held-out rows, recorded before the exact-greedy split search
        // ranked its columns instead of sorting them per node: a split
        // search may get faster, never different.
        let (x, y) = mixed_level_dataset(240, 7);
        let (probe, _) = mixed_level_dataset(100, 8);
        let models: [(&str, AnyModel, u64); 7] = [
            ("tree", AnyModel::DecisionTree(DecisionTree::default()), 0xea3c_e249_f545_b0c1),
            (
                "tree, leaf ≥ 5",
                AnyModel::DecisionTree(DecisionTree {
                    max_depth: 6,
                    min_samples_leaf: 5,
                    ..DecisionTree::default()
                }),
                0x3aec_f666_b9e2_029f,
            ),
            (
                "forest",
                AnyModel::RandomForest(RandomForest {
                    n_trees: 10,
                    max_depth: 8,
                    max_features: 0.6,
                    seed: 3,
                    ..RandomForest::default()
                }),
                0xed3c_636d_3c0b_a217,
            ),
            (
                "adaboost",
                AnyModel::AdaBoost(AdaBoostR2 {
                    n_rounds: 10,
                    max_depth: 4,
                    seed: 5,
                    ..AdaBoostR2::default()
                }),
                0x4553_2ca7_a539_0df1,
            ),
            ("gbt", AnyModel::XgBoost(GradientBoosting::new(30, 4, 0.2)), 0x382a_9bea_aa9c_f968),
            (
                "gbt, subsample 0.7",
                AnyModel::XgBoost(GradientBoosting {
                    subsample: 0.7,
                    seed: 9,
                    ..GradientBoosting::new(30, 4, 0.2)
                }),
                0xa560_fea3_3db8_44af,
            ),
            (
                "gbt, min_child_weight 4",
                AnyModel::XgBoost(GradientBoosting {
                    min_child_weight: 4.0,
                    gamma: 0.01,
                    ..GradientBoosting::new(20, 5, 0.3)
                }),
                0xf0db_eb23_9181_66cd,
            ),
        ];
        for (name, mut model, recorded) in models {
            model.fit(&x, &y).unwrap();
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for p in model.predict(&x).into_iter().chain(model.predict(&probe)) {
                for b in p.to_bits().to_le_bytes() {
                    hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(format!("{hash:016x}"), format!("{recorded:016x}"), "{name}");
        }
    }

    #[test]
    fn serde_roundtrip_preserves_predictions() {
        let (x, y) = test_support::nonlinear_dataset(100, 1);
        for kind in ModelKind::table_candidates() {
            let mut m = AnyModel::default_for(kind);
            m.fit(&x, &y).unwrap();
            let json = serde_json::to_string(&m).unwrap();
            let back: AnyModel = serde_json::from_str(&json).unwrap();
            let p1 = m.predict(&x);
            let p2 = back.predict(&x);
            assert_eq!(p1, p2, "{kind:?} predictions changed after serde roundtrip");
        }
    }
}
