//! The immutable runtime artefact bundle — layer 1 of the serving stack.
//!
//! [`ArtifactBundle`] is everything the runtime phase needs to make an
//! execution-plan decision: the fitted preprocessing configuration, the
//! per-routine [`ModelTable`], and the candidate [`PlanGrid`]. It is
//! deliberately immutable — no memo, no counters — so one bundle can sit
//! behind an `Arc` and be read by any number of serving threads without
//! synchronisation. The mutable concerns live in the layers above it:
//! memoisation in [`crate::cache::DecisionCache`], execution and
//! diagnostics in [`crate::service::AdsalaService`].
//!
//! Decisions are routine- and precision-generic:
//! [`ArtifactBundle::decide_op_capped`] takes an [`OpShape`] (routine,
//! precision, dimensions) and a thread cap (`u32::MAX` for none), picks
//! the routine's model (GEMM fallback), maps the dimensions into the
//! §III-A GEMM feature space, and sweeps the grid. A bundle built from a
//! threads-only grid (every migrated v1/v2 artefact) decides
//! bit-identically to the pre-plan thread ladder and emits threads-only
//! plans.
//!
//! A bundle round-trips through [`crate::artifact::Artifact`] (the
//! on-disk JSON installation artefact, schema v4), which adds provenance
//! (machine name, schema version) on top of these fields.

use std::path::Path;
use std::sync::Arc;

use adsala_gemm::plan::{ExecutionPlan, PlanGrid};
use adsala_gemm::{OpShape, Routine};
use adsala_ml::AnyModel;
use serde::{Deserialize, Serialize};

use crate::artifact::{Artifact, ModelTable};
use crate::preprocess::PreprocessConfig;
use crate::select::predict_point_for_op_capped;
use crate::AdsalaError;

/// The outcome of a plan selection: the full learned execution plan plus
/// the model's runtime prediction for it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanDecision {
    /// The chosen execution plan (threads, blocking, algorithm); it runs
    /// on the process-wide dispatched kernel.
    pub plan: ExecutionPlan,
    /// Model-predicted runtime under that plan (seconds).
    pub predicted_runtime_s: f64,
    /// Whether the decision came from a memo rather than a model sweep.
    pub memoised: bool,
}

impl PlanDecision {
    /// The plan's thread count — the axis the paper learns.
    pub fn threads(&self) -> u32 {
        self.plan.threads
    }
}

/// The immutable installation artefacts, packaged for shared serving.
///
/// Cloning is cheap-ish (the models dominate); for concurrent use wrap it
/// once via [`ArtifactBundle::into_shared`] and clone the `Arc` instead.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ArtifactBundle {
    /// Preprocessing artefact (the paper's "config file").
    pub config: PreprocessConfig,
    /// Per-routine trained models (GEMM mandatory, rest fall back to it).
    pub models: ModelTable,
    /// Candidate plan grid swept per decision (threads-only for migrated
    /// pre-grid artefacts).
    pub grid: PlanGrid,
}

impl ArtifactBundle {
    /// Assemble a bundle from its parts. The paper's thread ladder is
    /// [`PlanGrid::threads_only`]; a single GEMM model is
    /// [`ModelTable::gemm_only`].
    ///
    /// # Panics
    /// Panics if `grid` has no candidate points — a runtime with nothing to
    /// sweep cannot decide anything — or if `config` was not fitted on rows
    /// of the grid's [`crate::RowLayout`] (a threads-only grid pairs with a
    /// ladder-trained config, a wider one with a config trained on it).
    pub fn new(config: PreprocessConfig, models: ModelTable, grid: PlanGrid) -> Self {
        assert!(!grid.is_empty(), "need at least one candidate plan point");
        if let Err(mismatch) = config.check_fits(&grid) {
            panic!("config does not fit the grid: {mismatch}");
        }
        Self { config, models, grid }
    }

    /// Install a dedicated model for one routine (builder-style).
    pub fn with_routine_model(mut self, routine: Routine, model: AnyModel) -> Self {
        self.models = self.models.with(routine, model);
        self
    }

    /// Candidate thread counts (the grid's thread axis).
    pub fn candidates(&self) -> &[u32] {
        &self.grid.threads
    }

    /// Wrap into the shared handle the serving layer uses.
    pub fn into_shared(self) -> Arc<Self> {
        Arc::new(self)
    }

    /// Run one full model sweep over the candidate grid for any operation,
    /// considering only plans with at most `cap` threads (`u32::MAX`: no
    /// cap). Pure: no memo is consulted or updated, so equal inputs always
    /// produce equal decisions.
    ///
    /// The sweep clamps every candidate to `cap` threads *before* the
    /// model prices it, so both the chosen plan and its predicted runtime
    /// respect the cap (no decide-then-clamp mismatch). Every cap at or
    /// above the grid maximum is the same sweep.
    pub fn decide_op_capped(&self, shape: OpShape, cap: u32) -> PlanDecision {
        let model = self.models.for_routine(shape.routine);
        let (point, predicted_runtime_s) =
            predict_point_for_op_capped(model, &self.config, &self.grid, shape, cap);
        PlanDecision {
            plan: point.materialise(shape.precision),
            predicted_runtime_s,
            memoised: false,
        }
    }

    /// The largest candidate thread count in the grid — the widest plan
    /// any uncapped decision can emit.
    pub fn max_candidate_threads(&self) -> u32 {
        self.grid.threads.iter().copied().max().unwrap_or(1)
    }

    /// Strip provenance off an on-disk artefact.
    pub fn from_artifact(artifact: Artifact) -> Self {
        Self { config: artifact.config, models: artifact.models, grid: artifact.grid }
    }

    /// Re-attach provenance, producing a saveable artefact.
    pub fn to_artifact(&self, machine: &str) -> Artifact {
        Artifact::from_table(machine, self.config.clone(), self.models.clone(), self.grid.clone())
    }

    /// Save as a versioned installation artefact at `path`.
    pub fn save(&self, machine: &str, path: &Path) -> Result<(), AdsalaError> {
        self.to_artifact(machine).save(path)
    }

    /// Load a bundle back from a saved installation artefact.
    pub fn load(path: &Path) -> Result<Self, AdsalaError> {
        Ok(Self::from_artifact(Artifact::load(path)?))
    }
}

/// Train a small, deterministic bundle on the simulated Gadi node — the
/// shared fixture for this crate's unit tests and the workspace's
/// integration/stress tests, so every layer exercises the same model.
#[doc(hidden)]
pub fn quick_test_bundle() -> ArtifactBundle {
    quick_test_bundle_over(None)
}

/// [`quick_test_bundle`] gathered, trained and deciding over `grid`
/// (`None`: the simulated node's thread ladder).
#[doc(hidden)]
pub fn quick_test_bundle_over(grid: Option<PlanGrid>) -> ArtifactBundle {
    use crate::gather::{GatherConfig, TrainingData};
    use crate::preprocess::fit_preprocess;
    use adsala_machine::{MachineModel, SimTimer};
    use adsala_ml::tune::ModelSpec;
    use adsala_ml::Regressor;

    let timer = SimTimer::new(MachineModel::gadi());
    let config = GatherConfig { n_shapes: 60, reps: 2, grid, ..GatherConfig::quick() };
    let data = TrainingData::gather(&timer, &config);
    let fitted = fit_preprocess(&data).unwrap();
    let mut model =
        ModelSpec::XgBoost { n_rounds: 40, max_depth: 4, eta: 0.2, lambda: 1.0 }.build(0);
    model.fit(&fitted.dataset.x, &fitted.dataset.y).unwrap();
    ArtifactBundle::new(fitted.config, ModelTable::gemm_only(model), data.grid)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use adsala_gemm::Precision;

    pub(crate) use super::quick_test_bundle as quick_bundle;

    fn decide(bundle: &ArtifactBundle, m: u64, k: u64, n: u64) -> PlanDecision {
        bundle.decide_op_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX)
    }

    #[test]
    fn decide_is_pure_and_in_ladder() {
        let bundle = quick_bundle();
        let first = decide(&bundle, 256, 256, 256);
        let again = decide(&bundle, 256, 256, 256);
        assert_eq!(first, again, "an immutable bundle must be deterministic");
        assert!(bundle.candidates().contains(&first.threads()));
        assert!(first.plan.is_threads_only(), "a threads-only grid emits threads-only plans");
        assert!(first.predicted_runtime_s > 0.0);
        assert!(!first.memoised);
    }

    #[test]
    fn decide_op_covers_every_routine() {
        let bundle = quick_bundle();
        for shape in [
            OpShape::gemm(Precision::F32, 256, 256, 256),
            OpShape::gemm(Precision::F64, 256, 256, 256),
            OpShape::syrk(Precision::F64, 512, 64),
            OpShape::gemv(Precision::F32, 4096, 512),
        ] {
            let d = bundle.decide_op_capped(shape, u32::MAX);
            assert!(bundle.candidates().contains(&d.threads()), "{shape:?}");
            assert!(d.predicted_runtime_s > 0.0);
        }
    }

    #[test]
    fn decide_matches_gemm_equivalent_decision() {
        // Without dedicated models, a routine's decision equals the GEMM
        // decision at its gemm-equivalent dimensions — bit for bit.
        let bundle = quick_bundle();
        let syrk = bundle.decide_op_capped(OpShape::syrk(Precision::F32, 300, 40), u32::MAX);
        assert_eq!(syrk, decide(&bundle, 300, 40, 300));
        let gemv = bundle.decide_op_capped(OpShape::gemv(Precision::F32, 2000, 500), u32::MAX);
        assert_eq!(gemv, decide(&bundle, 2000, 500, 1));
    }

    #[test]
    fn dedicated_routine_model_takes_precedence() {
        use adsala_ml::tune::ModelSpec;
        use adsala_ml::Regressor;

        let base = quick_bundle();
        // A deliberately different model for SYRK: a depth-2 stump fit on
        // a trivial dataset will decide differently often enough.
        let mut other = ModelSpec::DecisionTree { max_depth: 2, min_samples_leaf: 1 }.build(7);
        let x = adsala_ml::data::Matrix::from_rows(&[
            vec![0.0; base.config.pruner.kept.len()],
            vec![1.0; base.config.pruner.kept.len()],
        ]);
        other.fit(&x, &[0.0, 1.0]).unwrap();
        let bundle = base.with_routine_model(Routine::Syrk, other);
        assert!(bundle.models.has_dedicated(Routine::Syrk));
        // GEMM decisions are untouched.
        let d = decide(&bundle, 256, 256, 256);
        assert!(bundle.candidates().contains(&d.threads()));
    }

    #[test]
    fn artifact_roundtrip_preserves_decisions() {
        let bundle = quick_bundle();
        let art = bundle.to_artifact("gadi-sim");
        assert_eq!(art.machine, "gadi-sim");
        let back =
            ArtifactBundle::from_artifact(Artifact::from_json(&art.to_json().unwrap()).unwrap());
        for (m, k, n) in [(64, 64, 64), (1000, 500, 1000), (64, 4096, 64)] {
            assert_eq!(decide(&bundle, m, k, n), decide(&back, m, k, n));
        }
        for shape in
            [OpShape::syrk(Precision::F64, 400, 80), OpShape::gemv(Precision::F32, 1000, 1000)]
        {
            assert_eq!(
                bundle.decide_op_capped(shape, u32::MAX),
                back.decide_op_capped(shape, u32::MAX)
            );
        }
    }

    #[test]
    fn save_load_via_filesystem() {
        let bundle = quick_bundle();
        let dir = std::env::temp_dir().join("adsala-bundle-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bundle.json");
        bundle.save("gadi-sim", &path).unwrap();
        let back = ArtifactBundle::load(&path).unwrap();
        assert_eq!(back.candidates(), bundle.candidates());
        assert_eq!(back.grid, bundle.grid);
        assert_eq!(decide(&back, 128, 512, 128), decide(&bundle, 128, 512, 128));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "at least one candidate")]
    fn empty_ladder_rejected() {
        let bundle = quick_bundle();
        ArtifactBundle::new(bundle.config, bundle.models, PlanGrid::threads_only(Vec::new()));
    }

    #[test]
    #[should_panic(expected = "config does not fit the grid")]
    fn grid_of_another_layout_rejected() {
        let bundle = quick_bundle();
        ArtifactBundle::new(bundle.config, bundle.models, PlanGrid::full(vec![1, 2]));
    }
}
