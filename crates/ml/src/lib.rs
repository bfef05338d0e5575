//! From-scratch regression ML substrate for the ADSALA reproduction.
//!
//! The paper's installation workflow trains and compares eight regression
//! families using a scikit-learn/XGBoost/LightGBM stack. No such stack
//! exists in the sanctioned offline crate set, so this crate implements
//! the required algorithms directly:
//!
//! * **Linear family** — ordinary least squares, ElasticNet (coordinate
//!   descent), Bayesian ridge (evidence maximisation).
//! * **Tree family** — CART regression tree, random forest, AdaBoost.R2,
//!   second-order gradient boosting (XGBoost-style exact greedy splits),
//!   histogram gradient boosting (LightGBM-style leaf-wise growth).
//! * **Preprocessing** — Yeo-Johnson power transform with MLE-estimated λ,
//!   standardisation, Local Outlier Factor removal, correlation pruning.
//! * **Model selection** — stratified train/test splitting, k-fold cross
//!   validation, grid-search hyper-parameter tuning.
//!
//! Everything is deterministic given a seed, serialisable with `serde`
//! (the trained model is one of the two artefacts ADSALA stores at install
//! time), and dependency-free beyond `rand`/`serde`.

#![forbid(unsafe_code)]

pub mod data;
pub mod linalg;
pub mod metrics;
pub mod models;
pub mod preprocess;
pub mod tune;

pub use data::{Dataset, Matrix};
pub use models::{AnyModel, ModelKind, Regressor};

/// Errors surfaced by fitting or preprocessing.
#[derive(Debug, Clone, PartialEq)]
pub enum MlError {
    /// Input matrices/labels have inconsistent or empty shapes.
    BadShape(String),
    /// A numeric routine failed to converge or produced non-finite values.
    Numeric(String),
    /// The model was used before `fit`.
    NotFitted,
}

impl std::fmt::Display for MlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MlError::BadShape(s) => write!(f, "bad shape: {s}"),
            MlError::Numeric(s) => write!(f, "numeric failure: {s}"),
            MlError::NotFitted => write!(f, "model used before fit"),
        }
    }
}

impl std::error::Error for MlError {}
