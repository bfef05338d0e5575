//! ADSALA — Architecture and Data-Structure Aware Linear Algebra.
//!
//! The paper's contribution: a GEMM front-end that uses a regression model
//! to pick, per call, the execution configuration minimising runtime. The
//! paper learns one axis (the thread count); this library generalises the
//! learned decision to a full [`adsala_gemm::plan::ExecutionPlan`] —
//! threads, cache-blocking scale and multiplication algorithm (blocked,
//! Strassen, Z-order), on the kernel CPU detection dispatches — while
//! keeping the paper's two-phase life cycle:
//!
//! **Installation** ([`gather`] → [`preprocess`] → [`train`] → [`select`]):
//! sample GEMM shapes quasi-randomly, time them at a grid of candidate
//! plan points on the target machine (simulated node or the real host) —
//! the paper's thread ladder is the grid's default, threads-only special
//! case — build the Table II feature set (plus the plan axes for grid
//! installs), run the Yeo-Johnson → standardise → LOF → correlation-prune
//! chain, tune all candidate model families with cross-validation, and
//! pick the family with the best *estimated speedup*
//! `s = t_orig / (t_ADSALA + t_eval)`. The products are two artefacts
//! ([`artifact`], schema v4): a preprocessing config and a trained model,
//! plus the candidate grid they were fitted against.
//!
//! **Runtime**: load the artefacts once, and for every GEMM call evaluate
//! the model at each candidate grid point, run the GEMM with the argmin
//! plan, and memoise the decision for repeated shapes. The runtime is
//! layered for concurrent serving:
//!
//! 1. [`bundle::ArtifactBundle`] — the immutable artefacts (config +
//!    model + candidate grid), shared behind an `Arc`;
//! 2. [`cache::DecisionCache`] — a lock-striped, capacity-bounded memo
//!    with per-shard last-shape fast paths and hit/miss/eviction
//!    counters;
//! 3. [`service::AdsalaService`] — the `Send + Sync` serving handle that
//!    owns a persistent [`adsala_gemm::ThreadPool`] and answers typed
//!    [`OpRequest`]s — GEMM, SYRK, GEMV, in `f32` or `f64` — through one
//!    `run` entry point, from any number of client threads;
//! 4. [`scheduler::ServiceScheduler`] — admission control and deadlines
//!    in front of the service: a FIFO gate, then one `run_with` call.
//!
//! As in the paper, the models are trained once and then only served: a
//! service serves the bundle it was built with and keeps per-routine sums
//! of its prediction error ([`ServiceStats::prediction`]). The remedy for
//! a model that no longer predicts the machine is a fresh install and a
//! new [`AdsalaService`] built on it.
//!
//! There is one decision path ([`select`]'s single pricing sweep, folded
//! into its argmin) and one serving path (the service's execute → observe
//! → recover stage, which the scheduler enters through `run_with`). The
//! paper's single-threaded runtime class (Fig. 3) is a service used from
//! one thread: its §III-C "same shape as the previous call" memo is the
//! cache's per-shard last-shape fast path.
//!
//! ```no_run
//! use adsala::install::{InstallConfig, Installation};
//! use adsala_machine::{MachineModel, SimTimer};
//!
//! let timer = SimTimer::new(MachineModel::gadi());
//! let install = Installation::run(&timer, &InstallConfig::quick()).unwrap();
//! let service = install.into_service(); // Send + Sync, share by reference
//! let shape = adsala::OpShape::gemm(adsala::Precision::F32, 64, 2048, 64);
//! let decision = service.select_for_capped(shape, u32::MAX);
//! assert!(decision.threads() >= 1);
//! ```

#![forbid(unsafe_code)]

pub mod artifact;
pub mod bundle;
pub mod cache;
pub mod features;
pub mod gather;
pub mod install;
pub mod preprocess;
pub mod scheduler;
pub mod select;
pub mod service;
pub mod speedup;
pub mod train;

pub use artifact::{Artifact, ModelTable};
pub use bundle::{ArtifactBundle, PlanDecision};
pub use cache::{CacheStats, DecisionCache};
pub use features::{shape_terms, RowLayout, FEATURE_COUNT};
pub use gather::{GatherConfig, GemmRecord, ThreadLadder, TrainingData};
pub use install::{InstallConfig, Installation};
pub use preprocess::{
    fit_preprocess, fit_preprocess_with, PreprocessConfig, PreprocessOptions, PreprocessReport,
};
pub use scheduler::{ScheduledRun, SchedulerConfig, SchedulerStats, ServiceScheduler};
pub use select::{estimate_speedups, predict_point_for_op_capped, SpeedupEstimate};
pub use service::{AdsalaService, AlgorithmMix, RunOptions, ServiceConfig, ServiceStats};
pub use speedup::SpeedupStats;
pub use train::{train_all_families, ModelReport, TrainedCandidate};

// The operation vocabulary of the serving surface lives in the kernel
// crate (descriptors borrow operand slices); re-export it so `adsala`
// alone is enough to build and run requests.
pub use adsala_gemm::dispatch::{
    GemmArgs, GemvArgs, OpRequest, OpShape, OpStats, Precision, Routine, ShapeError, SyrkArgs,
};

/// Everything a serving-layer caller needs in one import: the request
/// vocabulary, the service and scheduler handles, decisions, cache counters,
/// and the error enum.
///
/// ```no_run
/// use adsala::prelude::*;
///
/// # fn demo(service: &AdsalaService) -> Result<(), AdsalaError> {
/// let a = vec![1.0f32; 64 * 32];
/// let x = vec![1.0f32; 32];
/// let mut y = vec![0.0f32; 64];
/// let mut req: OpRequest<'_, f32> =
///     GemvArgs { m: 64, n: 32, alpha: 1.0, a: &a, lda: 32, x: &x, beta: 0.0, y: &mut y }.into();
/// let (decision, stats) = service.run(&mut req)?;
/// assert_eq!(stats.routine, Routine::Gemv);
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::artifact::{Artifact, ModelTable};
    pub use crate::bundle::{ArtifactBundle, PlanDecision};
    pub use crate::cache::CacheStats;
    pub use crate::install::{InstallConfig, Installation};
    pub use crate::scheduler::{ScheduledRun, SchedulerConfig, SchedulerStats, ServiceScheduler};
    pub use crate::service::{AdsalaService, RunOptions, ServiceConfig, ServiceStats};
    pub use crate::AdsalaError;
    pub use adsala_gemm::dispatch::{
        GemmArgs, GemvArgs, OpRequest, OpShape, OpStats, Precision, Routine, ShapeError, SyrkArgs,
    };
    pub use adsala_gemm::plan::{ExecutionPlan, PlanGrid};
    pub use adsala_gemm::Transpose;
}

/// Errors from the installation or runtime pipelines.
#[derive(Debug)]
pub enum AdsalaError {
    /// Underlying ML failure.
    Ml(adsala_ml::MlError),
    /// Not enough data survived gathering/filtering.
    InsufficientData(String),
    /// Artefact (de)serialisation failure.
    Artifact(String),
    /// A request's operands were dimensionally inconsistent (slice too
    /// short, leading dimension smaller than a row).
    Shape(adsala_gemm::ShapeError),
    /// The input is recognised but this build cannot serve it (e.g. an
    /// artefact schema version newer than [`Artifact::VERSION`]).
    Unsupported(String),
    /// An operation's kernel batch panicked and could not be recovered by
    /// the degraded retry (see the service's fault-tolerance docs). The
    /// output buffer contents are unspecified; the service itself is
    /// healthy and keeps serving.
    Execution {
        /// The routine whose execution failed.
        routine: Routine,
        /// The captured panic message.
        detail: String,
    },
    /// A deadline expired before the operation ran: the caller's
    /// [`service::RunOptions::deadline`] passed, or a scheduler admission
    /// wait exceeded its timeout, and the request was refused before it
    /// started. The output buffer is untouched.
    Timeout(String),
}

impl std::fmt::Display for AdsalaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdsalaError::Ml(e) => write!(f, "ml error: {e}"),
            AdsalaError::InsufficientData(s) => write!(f, "insufficient data: {s}"),
            AdsalaError::Artifact(s) => write!(f, "artifact error: {s}"),
            AdsalaError::Shape(e) => write!(f, "{e}"),
            AdsalaError::Unsupported(s) => write!(f, "unsupported: {s}"),
            AdsalaError::Execution { routine, detail } => {
                write!(f, "{routine} execution failed: {detail}")
            }
            AdsalaError::Timeout(s) => write!(f, "timed out: {s}"),
        }
    }
}

impl std::error::Error for AdsalaError {}

impl From<adsala_ml::MlError> for AdsalaError {
    fn from(e: adsala_ml::MlError) -> Self {
        AdsalaError::Ml(e)
    }
}

impl From<adsala_gemm::ShapeError> for AdsalaError {
    fn from(e: adsala_gemm::ShapeError) -> Self {
        AdsalaError::Shape(e)
    }
}
