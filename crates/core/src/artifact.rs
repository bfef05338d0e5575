//! Installation artefacts: the files ADSALA saves at install time and
//! loads at program boot (Figs. 2/3 of the paper).
//!
//! One JSON document holds the preprocessing configuration, another the
//! trained models; both are bundled with provenance (machine name,
//! candidate plan grid) so a runtime handle can be reconstructed with
//! nothing else.
//!
//! **Schema v4** widens the candidate [`PlanGrid`] with the algorithm
//! axis and per-axis cache-block scales: v3's uniform `block_percents`
//! list becomes a list of [`BlockScale`] triples, and the grid gains an
//! `algorithms` list plus a `feature_rev` tag naming the plan-feature
//! layout its model was trained on. All three earlier schemas still load
//! and decide bit-identically to the build that wrote them:
//!
//! * **v3** (uniform block scales, no algorithm axis) → each
//!   `block_percent` becomes [`BlockScale::uniform`], the algorithm list
//!   pins [`Algorithm::Blocked`], and `feature_rev` stays at the legacy
//!   layout — the candidate set, iteration order and feature rows are
//!   unchanged, so decisions are bit-exact;
//! * **v2** (per-routine [`ModelTable`], `candidates` list) → the list
//!   becomes [`PlanGrid::threads_only`];
//! * **v1** (single GEMM model) → the model additionally migrates into
//!   the table's GEMM slot, which every other routine falls back to
//!   (sound because each routine's shape maps into the same GEMM feature
//!   space — see [`adsala_gemm::OpShape::gemm_equivalent`]).
//!
//! v3 and v4 documents written before the `B`-packing and ISA grid axes
//! were deleted carry `packing` and `isa` lists in their grid. Loading
//! ignores both keys on purpose (the derived deserialisers skip keys a
//! struct does not name), so a grid that listed the scalar ISA loses
//! those candidates and keeps exactly its dispatched ones, in their
//! order. No host plan ever executed the packing axis, and a scalar point
//! was the timed optimum of no swept shape; the feature rows keep
//! both columns as the constants a shared-`B`, dispatched point wrote
//! ([`crate::RowLayout`]), so such a document decides as before.

use std::fs;
use std::path::Path;

use adsala_gemm::plan::{Algorithm, BlockScale, PlanGrid, FEATURE_REV_LEGACY};
use adsala_gemm::Routine;
use adsala_ml::AnyModel;
use serde::{Deserialize, Serialize, Value};

use crate::bundle::ArtifactBundle;
use crate::preprocess::PreprocessConfig;
use crate::service::AdsalaService;
use crate::AdsalaError;

/// Trained models, one slot per routine.
///
/// The GEMM slot is mandatory (it is what the installation pipeline
/// trains and what v1 artefacts migrate into); SYRK and GEMV slots are
/// optional and fall back to the GEMM model, evaluated at the routine's
/// GEMM-equivalent shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelTable {
    /// The GEMM selector — also the fallback for every other routine.
    pub gemm: AnyModel,
    /// Dedicated SYRK selector, if one was trained.
    pub syrk: Option<AnyModel>,
    /// Dedicated GEMV selector, if one was trained.
    pub gemv: Option<AnyModel>,
}

impl ModelTable {
    /// A table holding only the GEMM model (the v1 layout).
    pub fn gemm_only(model: AnyModel) -> Self {
        Self { gemm: model, syrk: None, gemv: None }
    }

    /// Replace one routine's slot (builder-style).
    pub fn with(mut self, routine: Routine, model: AnyModel) -> Self {
        match routine {
            Routine::Gemm => self.gemm = model,
            Routine::Syrk => self.syrk = Some(model),
            Routine::Gemv => self.gemv = Some(model),
        }
        self
    }

    /// The model serving `routine`: its dedicated slot, or the GEMM
    /// fallback.
    pub fn for_routine(&self, routine: Routine) -> &AnyModel {
        match routine {
            Routine::Gemm => &self.gemm,
            Routine::Syrk => self.syrk.as_ref().unwrap_or(&self.gemm),
            Routine::Gemv => self.gemv.as_ref().unwrap_or(&self.gemm),
        }
    }

    /// Whether every model can predict rows `width` wide
    /// ([`AnyModel::check_width`]).
    pub(crate) fn check_width(&self, width: usize) -> Result<(), AdsalaError> {
        [Some(&self.gemm), self.syrk.as_ref(), self.gemv.as_ref()]
            .into_iter()
            .flatten()
            .try_for_each(|model| model.check_width(width))
            .map_err(|e| AdsalaError::Artifact(format!("model: {e}")))
    }

    /// Whether `routine` has its own trained model (vs the GEMM fallback).
    pub fn has_dedicated(&self, routine: Routine) -> bool {
        match routine {
            Routine::Gemm => true,
            Routine::Syrk => self.syrk.is_some(),
            Routine::Gemv => self.gemv.is_some(),
        }
    }
}

/// A complete, self-describing installation artefact (schema v4).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Artifact {
    /// Schema version; [`Artifact::VERSION`] when written by this build.
    pub version: u32,
    /// Name of the machine the artefact was trained for.
    pub machine: String,
    /// Candidate plan grid the runtime sweeps (threads-only when the
    /// artefact was migrated from v1/v2 or installed without a grid).
    pub grid: PlanGrid,
    /// Preprocessing configuration ("config file" in Fig. 2).
    pub config: PreprocessConfig,
    /// Per-routine trained models ("trained model" in Fig. 2, per slot).
    pub models: ModelTable,
}

/// The v1 on-disk layout: a single GEMM model under the `model` key.
/// Kept only so [`Artifact::from_json`] can migrate old documents.
#[derive(Deserialize)]
struct ArtifactV1 {
    machine: String,
    candidates: Vec<u32>,
    config: PreprocessConfig,
    model: AnyModel,
}

/// The v2 on-disk layout: a model table, but a bare thread-count list
/// where v3+ has the plan grid. Kept only for migration.
#[derive(Deserialize)]
struct ArtifactV2 {
    machine: String,
    candidates: Vec<u32>,
    config: PreprocessConfig,
    models: ModelTable,
}

/// The v3 on-disk grid: one uniform `block_percents` scale list and no
/// algorithm axis. Kept only for migration. Its `packing` and `isa` keys
/// are deliberately not named, so loading ignores them (see the module
/// docs).
#[derive(Deserialize)]
struct PlanGridV3 {
    threads: Vec<u32>,
    block_percents: Vec<u32>,
    plan_features: bool,
}

impl PlanGridV3 {
    /// Widen into the v4 grid without changing the dispatched candidates,
    /// their iteration order, or (via [`FEATURE_REV_LEGACY`]) the feature
    /// rows — migrated artefacts decide bit-identically.
    fn widen(self) -> PlanGrid {
        PlanGrid {
            threads: self.threads,
            blockings: self.block_percents.into_iter().map(BlockScale::uniform).collect(),
            algorithms: vec![Algorithm::Blocked],
            plan_features: self.plan_features,
            feature_rev: FEATURE_REV_LEGACY,
        }
    }
}

/// The v3 on-disk layout: a full artefact around the uniform-scale grid.
#[derive(Deserialize)]
struct ArtifactV3 {
    machine: String,
    grid: PlanGridV3,
    config: PreprocessConfig,
    models: ModelTable,
}

/// Minimal probe to branch on the schema version before a full parse.
#[derive(Deserialize)]
struct VersionProbe {
    version: u32,
}

/// Reject any non-finite number anywhere in the document.
///
/// The typed float impls deserialize `null` (and JSON's out-of-range
/// literals like `1e999` parse to ∞), so a corrupted predicted-runtime
/// curve would otherwise flow silently into the runtime's argmin sweep,
/// where a single NaN poisons every comparison. Walking the raw tree
/// before the typed parse catches the corruption at the load boundary.
fn reject_non_finite(v: &Value) -> Result<(), AdsalaError> {
    match v {
        Value::F64(f) if !f.is_finite() => Err(AdsalaError::Artifact(
            "non-finite number in artifact JSON (corrupted model or curve)".into(),
        )),
        Value::Seq(items) => items.iter().try_for_each(reject_non_finite),
        Value::Map(entries) => entries.iter().try_for_each(|(_, x)| reject_non_finite(x)),
        _ => Ok(()),
    }
}

/// Sanity-check a loaded (post-migration) candidate grid: every axis the
/// runtime sweeps must be non-empty, thread counts must be positive and
/// strictly ascending (the ladder order the installers write and the
/// capped-selection path binary-searches), and block scales must be
/// positive (a zero percent would collapse a cache-block axis to nothing).
fn validate_grid(grid: &PlanGrid) -> Result<(), AdsalaError> {
    let bad = |msg: String| Err(AdsalaError::Artifact(msg));
    if grid.threads.is_empty() {
        return bad("artifact has no thread candidates".into());
    }
    if grid.threads[0] == 0 {
        return bad("artifact grid has a zero thread candidate".into());
    }
    if grid.threads.windows(2).any(|w| w[0] >= w[1]) {
        return bad(format!(
            "artifact thread ladder is not strictly ascending: {:?}",
            grid.threads
        ));
    }
    for (axis, empty) in
        [("blockings", grid.blockings.is_empty()), ("algorithms", grid.algorithms.is_empty())]
    {
        if empty {
            return bad(format!("artifact grid has an empty `{axis}` axis"));
        }
    }
    if grid.blockings.iter().any(|b| b.mc_percent == 0 || b.kc_percent == 0 || b.nc_percent == 0) {
        return bad("artifact grid has a zero cache-block scale".into());
    }
    Ok(())
}

impl Artifact {
    /// Current schema version.
    pub const VERSION: u32 = 4;
    /// The legacy single-model schema still accepted by `from_json`.
    pub const V1: u32 = 1;
    /// The legacy threads-only schema still accepted by `from_json`.
    pub const V2: u32 = 2;
    /// The legacy uniform-block-scale schema still accepted by
    /// `from_json`.
    pub const V3: u32 = 3;

    /// Bundle runtime state into an artefact with a full model table and
    /// candidate grid.
    pub fn from_table(
        machine: &str,
        config: PreprocessConfig,
        models: ModelTable,
        grid: PlanGrid,
    ) -> Self {
        Self { version: Self::VERSION, machine: machine.to_string(), grid, config, models }
    }

    /// Candidate thread counts (the grid's thread axis).
    pub fn candidates(&self) -> &[u32] {
        &self.grid.threads
    }

    /// Serialise to a JSON string (always the current schema).
    pub fn to_json(&self) -> Result<String, AdsalaError> {
        serde_json::to_string(self).map_err(|e| AdsalaError::Artifact(e.to_string()))
    }

    /// Deserialise from a JSON string, migrating older documents: a v3
    /// uniform-scale grid widens to per-axis triples with a pinned
    /// blocked algorithm list, a v2 thread-count list becomes a
    /// threads-only [`PlanGrid`], and a v1 single model additionally
    /// lands in the table's GEMM slot. Versions this build does not know
    /// return [`AdsalaError::Unsupported`]; a document whose grid is
    /// malformed, or whose config was not fitted on rows of the grid's
    /// [`crate::RowLayout`], returns [`AdsalaError::Artifact`].
    pub fn from_json(json: &str) -> Result<Self, AdsalaError> {
        let err = |e: serde_json::Error| AdsalaError::Artifact(e.to_string());
        // Validate the raw tree before any typed parse: the typed float
        // path maps non-finite values to NaN, which would only surface
        // later as a poisoned argmin inside the decision sweep.
        let raw: Value = serde_json::from_str(json).map_err(err)?;
        reject_non_finite(&raw)?;
        let probe: VersionProbe = serde_json::from_str(json).map_err(err)?;
        let artifact = match probe.version {
            Self::V1 => {
                let ArtifactV1 { machine, candidates, config, model } =
                    serde_json::from_str(json).map_err(err)?;
                Artifact {
                    version: Self::VERSION,
                    machine,
                    grid: PlanGrid::threads_only(candidates),
                    config,
                    models: ModelTable::gemm_only(model),
                }
            }
            Self::V2 => {
                let ArtifactV2 { machine, candidates, config, models } =
                    serde_json::from_str(json).map_err(err)?;
                Artifact {
                    version: Self::VERSION,
                    machine,
                    grid: PlanGrid::threads_only(candidates),
                    config,
                    models,
                }
            }
            Self::V3 => {
                let ArtifactV3 { machine, grid, config, models } =
                    serde_json::from_str(json).map_err(err)?;
                Artifact { version: Self::VERSION, machine, grid: grid.widen(), config, models }
            }
            Self::VERSION => serde_json::from_str::<Artifact>(json).map_err(err)?,
            v => {
                return Err(AdsalaError::Unsupported(format!(
                    "artifact schema version {v}; this build reads v{} through v{}",
                    Self::V1,
                    Self::VERSION
                )))
            }
        };
        validate_grid(&artifact.grid)?;
        // The grid decides which columns a row has; a chain fitted on
        // another layout would index past a row inside the decision sweep.
        artifact.config.check_fits(&artifact.grid).map_err(AdsalaError::Artifact)?;
        // A damaged model would index past a row, or never reach a leaf.
        artifact.models.check_width(artifact.config.pruner.kept.len())?;
        Ok(artifact)
    }

    /// Write the artefact to disk.
    pub fn save(&self, path: &Path) -> Result<(), AdsalaError> {
        fs::write(path, self.to_json()?).map_err(|e| AdsalaError::Artifact(e.to_string()))
    }

    /// Load an artefact from disk (v1 documents migrate transparently).
    pub fn load(path: &Path) -> Result<Self, AdsalaError> {
        let json = fs::read_to_string(path).map_err(|e| AdsalaError::Artifact(e.to_string()))?;
        Self::from_json(&json)
    }

    /// Strip provenance, keeping the parts the serving stack needs.
    pub fn into_bundle(self) -> ArtifactBundle {
        ArtifactBundle::from_artifact(self)
    }

    /// Build the shared, concurrent serving handle (Fig. 3's
    /// "instantiation" step).
    pub fn into_service(self) -> AdsalaService {
        AdsalaService::new(self.into_bundle().into_shared())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::{GatherConfig, TrainingData};
    use crate::preprocess::fit_preprocess;
    use adsala_machine::{MachineModel, SimTimer};
    use adsala_ml::tune::ModelSpec;
    use adsala_ml::Regressor;

    fn artifact() -> Artifact {
        artifact_over(None)
    }

    /// A small artefact gathered and fitted over `grid` (`None`: the
    /// simulated node's thread ladder).
    fn artifact_over(grid: Option<PlanGrid>) -> Artifact {
        let timer = SimTimer::new(MachineModel::gadi());
        let gc = GatherConfig { n_shapes: 50, reps: 2, grid, ..GatherConfig::quick() };
        let data = TrainingData::gather(&timer, &gc);
        let fitted = fit_preprocess(&data).unwrap();
        let mut model = ModelSpec::DecisionTree { max_depth: 8, min_samples_leaf: 1 }.build(0);
        model.fit(&fitted.dataset.x, &fitted.dataset.y).unwrap();
        Artifact::from_table("gadi-sim", fitted.config, ModelTable::gemm_only(model), data.grid)
    }

    /// The uncapped f32-GEMM decision of a service.
    fn decide(service: &AdsalaService, m: u64, k: u64, n: u64) -> crate::PlanDecision {
        let shape = adsala_gemm::OpShape::gemm(adsala_gemm::Precision::F32, m, k, n);
        service.select_for_capped(shape, u32::MAX)
    }

    /// Writer for the v1 layout, so migration is testable in-unit.
    #[derive(Serialize)]
    struct V1Writer {
        version: u32,
        machine: String,
        candidates: Vec<u32>,
        config: PreprocessConfig,
        model: AnyModel,
    }

    /// Writer for the v2 layout (model table, bare thread list).
    #[derive(Serialize)]
    struct V2Writer {
        version: u32,
        machine: String,
        candidates: Vec<u32>,
        config: PreprocessConfig,
        models: ModelTable,
    }

    /// Writer for the v3 grid (uniform block scales, no algorithm axis).
    #[derive(Serialize)]
    struct GridV3Writer {
        threads: Vec<u32>,
        block_percents: Vec<u32>,
        plan_features: bool,
    }

    /// Writer for the v3 layout.
    #[derive(Serialize)]
    struct V3Writer {
        version: u32,
        machine: String,
        grid: GridV3Writer,
        config: PreprocessConfig,
        models: ModelTable,
    }

    #[test]
    fn json_roundtrip_preserves_behaviour() {
        let art = artifact();
        let json = art.to_json().unwrap();
        let back = Artifact::from_json(&json).unwrap();
        let a = art.clone().into_service();
        let b = back.into_service();
        for (m, k, n) in [(64, 64, 64), (1000, 500, 1000), (64, 4096, 64)] {
            assert_eq!(decide(&a, m, k, n), decide(&b, m, k, n));
        }
    }

    #[test]
    fn v1_document_migrates_to_gemm_slot() {
        let art = artifact();
        let v1 = V1Writer {
            version: Artifact::V1,
            machine: art.machine.clone(),
            candidates: art.candidates().to_vec(),
            config: art.config.clone(),
            model: art.models.gemm.clone(),
        };
        let json = serde_json::to_string(&v1).unwrap();
        let migrated = Artifact::from_json(&json).unwrap();
        assert_eq!(migrated.version, Artifact::VERSION);
        assert!(migrated.grid.is_threads_only(), "v1 artefacts degrade to threads-only grids");
        assert!(!migrated.models.has_dedicated(adsala_gemm::Routine::Syrk));
        let a = art.into_service();
        let b = migrated.into_service();
        for (m, k, n) in [(64, 64, 64), (1000, 500, 1000), (2000, 64, 2000)] {
            assert_eq!(decide(&a, m, k, n), decide(&b, m, k, n));
        }
    }

    #[test]
    fn v2_document_migrates_to_threads_only_grid() {
        let art = artifact();
        let v2 = V2Writer {
            version: Artifact::V2,
            machine: art.machine.clone(),
            candidates: art.candidates().to_vec(),
            config: art.config.clone(),
            models: art.models.clone(),
        };
        let json = serde_json::to_string(&v2).unwrap();
        let migrated = Artifact::from_json(&json).unwrap();
        assert_eq!(migrated.version, Artifact::VERSION);
        assert_eq!(migrated.grid, PlanGrid::threads_only(art.candidates().to_vec()));
        assert!(!migrated.grid.plan_features);
        let a = art.into_service();
        let b = migrated.into_service();
        for (m, k, n) in [(64, 64, 64), (1000, 500, 1000), (2000, 64, 2000)] {
            assert_eq!(decide(&a, m, k, n), decide(&b, m, k, n));
        }
    }

    #[test]
    fn v3_document_widens_bit_exactly() {
        use adsala_gemm::plan::FEATURE_REV_LEGACY;
        // A v3 grid with every legacy axis populated, and a config fitted
        // on its rows.
        let art = artifact_over(Some(PlanGrid::full(vec![1, 8, 96])));
        let v3 = V3Writer {
            version: Artifact::V3,
            machine: art.machine.clone(),
            grid: GridV3Writer {
                threads: art.candidates().to_vec(),
                block_percents: vec![100, 50, 200],
                plan_features: true,
            },
            config: art.config.clone(),
            models: art.models.clone(),
        };
        // A v3 build also wrote the since-deleted ISA and `B`-packing axes,
        // which loading ignores.
        let axes = "\"block_percents\":[100,50,200],";
        let json = serde_json::to_string(&v3).unwrap().replacen(
            axes,
            &format!(
                "\"isa\":[\"Dispatched\",\"Scalar\"],{axes}\"packing\":[\"SharedB\",\"Independent\"],"
            ),
            1,
        );
        assert!(json.contains("\"isa\"") && json.contains("\"packing\""));
        let migrated = Artifact::from_json(&json).unwrap();
        assert_eq!(migrated.version, Artifact::VERSION);
        assert_eq!(
            migrated.grid.blockings,
            vec![BlockScale::uniform(100), BlockScale::uniform(50), BlockScale::uniform(200)]
        );
        assert_eq!(migrated.grid.algorithms, vec![Algorithm::Blocked]);
        assert_eq!(migrated.grid.feature_rev, FEATURE_REV_LEGACY);
        assert!(migrated.grid.plan_features);
        // The widened grid enumerates exactly the v3 dispatched candidates:
        // the pinned algorithm axis adds no points.
        assert_eq!(migrated.grid.len(), art.candidates().len() * 3);
        assert!(migrated.grid.points().all(|p| p.algorithm == Algorithm::Blocked));
        assert_eq!(migrated.grid, art.grid, "the widened grid is the full legacy grid");
        let a = art.into_service();
        let b = migrated.into_service();
        for (m, k, n) in [(64, 64, 64), (1000, 500, 1000), (2000, 64, 2000)] {
            assert_eq!(decide(&a, m, k, n), decide(&b, m, k, n));
        }
    }

    #[test]
    fn config_that_does_not_fit_the_grid_is_refused_at_load() {
        let refused = |art: &Artifact, what: &str| match Artifact::from_json(
            &serde_json::to_string(art).unwrap(),
        ) {
            Err(AdsalaError::Artifact(_)) => {}
            other => panic!("{what}: expected Artifact error, got {other:?}"),
        };
        let art =
            crate::bundle::quick_test_bundle_over(Some(PlanGrid::widened(vec![1, 2, 4], 384)))
                .to_artifact("gadi-sim");
        let width = crate::RowLayout::of(&art.grid).width();
        assert!(art.config.pruner.kept.iter().any(|&col| col >= crate::features::FEATURE_COUNT));
        let json = art.to_json().unwrap();
        assert!(Artifact::from_json(&json).is_ok());

        // The grid now promises 17-column rows to a chain that keeps plan-
        // axis columns: loading it used to succeed, and the first decision
        // indexed past the row inside the sweep, on a serving thread.
        let flipped = json.replace("\"plan_features\":true", "\"plan_features\":false");
        assert_ne!(flipped, json);
        match Artifact::from_json(&flipped) {
            Err(AdsalaError::Artifact(msg)) => assert!(msg.contains("17 columns"), "{msg}"),
            other => panic!("expected Artifact error, got {other:?}"),
        }

        let mut short = art.clone();
        short.config.yeo_johnson.lambdas.pop();
        refused(&short, "truncated lambdas");
        let mut short = art.clone();
        short.config.scaler.stds.pop();
        refused(&short, "truncated stds");
        let mut long = art.clone();
        long.config.scaler.means.push(0.0);
        refused(&long, "extra mean");
        let mut wide = art.clone();
        wide.config.pruner.kept.push(width);
        refused(&wide, "kept column past the row");
        let mut none = art.clone();
        none.config.pruner.kept.clear();
        refused(&none, "no kept column");
        let mut unsorted = art.clone();
        unsorted.config.pruner.kept.swap(0, 1);
        refused(&unsorted, "kept columns out of order");
    }

    #[test]
    fn an_install_over_every_grid_constructor_loads() {
        for grid in [
            None,
            Some(PlanGrid::full(vec![1, 8, 96])),
            Some(PlanGrid::widened(vec![1, 2, 4], 384)),
        ] {
            let art = artifact_over(grid);
            let back = Artifact::from_json(&art.to_json().unwrap()).expect("round trip");
            assert_eq!(back.grid, art.grid);
            assert_eq!(back.config, art.config);
        }
    }

    #[test]
    fn model_table_falls_back_to_gemm() {
        let art = artifact();
        let table = art.models;
        assert!(table.has_dedicated(Routine::Gemm));
        assert!(!table.has_dedicated(Routine::Gemv));
        // Fallback resolves to the very same model object.
        assert!(std::ptr::eq(table.for_routine(Routine::Gemv), &table.gemm));
        assert!(std::ptr::eq(table.for_routine(Routine::Syrk), &table.gemm));
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let art = artifact();
        let dir = std::env::temp_dir().join("adsala-artifact-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        art.save(&path).unwrap();
        let back = Artifact::load(&path).unwrap();
        assert_eq!(back.machine, "gadi-sim");
        assert_eq!(back.grid, art.grid);
        assert_eq!(back.version, Artifact::VERSION);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_version_is_unsupported() {
        let mut art = artifact();
        art.version = 99;
        let json = serde_json::to_string(&art).unwrap();
        match Artifact::from_json(&json) {
            Err(AdsalaError::Unsupported(msg)) => assert!(msg.contains("99"), "{msg}"),
            other => panic!("expected Unsupported, got {other:?}"),
        }
    }

    #[test]
    fn empty_candidates_rejected() {
        let mut art = artifact();
        art.grid.threads.clear();
        let json = serde_json::to_string(&art).unwrap();
        assert!(Artifact::from_json(&json).is_err());
    }

    #[test]
    fn garbage_json_rejected() {
        assert!(Artifact::from_json("{not json").is_err());
        assert!(Artifact::load(Path::new("/nonexistent/artifact.json")).is_err());
    }

    #[test]
    fn corrupted_model_curve_rejected_at_load() {
        let json = artifact().to_json().unwrap();
        // The first split threshold of the fitted model becomes `1e999`,
        // which parses to +∞ and would reach the decision sweep as NaN via
        // the typed float path.
        let models = json.find("\"models\"").expect("a model table");
        let at = models + json[models..].find("\"threshold\":").expect("a split") + 12;
        let len = json[at..]
            .find(|ch: char| !(ch.is_ascii_digit() || "-+.eE".contains(ch)))
            .expect("a number token");
        let corrupt = format!("{}1e999{}", &json[..at], &json[at + len..]);
        assert_ne!(corrupt, json, "corruption must alter the document");
        match Artifact::from_json(&corrupt) {
            Err(AdsalaError::Artifact(msg)) => {
                assert!(msg.contains("non-finite"), "{msg}")
            }
            other => panic!("expected Artifact error, got {other:?}"),
        }
        // The pristine document still loads.
        assert!(Artifact::from_json(&json).is_ok());
    }

    #[test]
    fn model_of_a_deleted_family_is_refused_at_load() {
        // Earlier builds had SVR and k-NN model variants. A document naming
        // one must be refused with a typed error, not panic a loader.
        let json = artifact().to_json().unwrap();
        let tree = "\"gemm\":{\"DecisionTree\":";
        assert!(json.contains(tree));
        for family in ["Svr", "Knn"] {
            let doc = json.replace(tree, &format!("\"gemm\":{{\"{family}\":"));
            match Artifact::from_json(&doc) {
                Err(AdsalaError::Artifact(msg)) => {
                    assert!(msg.contains("unknown variant") && msg.contains(family), "{msg}")
                }
                other => panic!("{family}: expected Artifact error, got {other:?}"),
            }
        }
    }

    #[test]
    fn unsorted_thread_ladder_rejected() {
        let mut art = artifact();
        art.grid.threads = vec![4, 2, 8];
        let json = serde_json::to_string(&art).unwrap();
        match Artifact::from_json(&json) {
            Err(AdsalaError::Artifact(msg)) => {
                assert!(msg.contains("ascending"), "{msg}")
            }
            other => panic!("expected Artifact error, got {other:?}"),
        }
        art.grid.threads = vec![0, 1, 2];
        let json = serde_json::to_string(&art).unwrap();
        assert!(Artifact::from_json(&json).is_err());
    }

    #[test]
    fn empty_grid_axis_rejected() {
        for strip in [
            |g: &mut PlanGrid| g.blockings.clear(),
            |g: &mut PlanGrid| g.algorithms.clear(),
            |g: &mut PlanGrid| {
                g.blockings = vec![BlockScale { mc_percent: 0, kc_percent: 100, nc_percent: 100 }]
            },
        ] {
            let mut art = artifact();
            strip(&mut art.grid);
            let json = serde_json::to_string(&art).unwrap();
            match Artifact::from_json(&json) {
                Err(AdsalaError::Artifact(_)) => {}
                other => panic!("expected Artifact error, got {other:?}"),
            }
        }
    }
}
