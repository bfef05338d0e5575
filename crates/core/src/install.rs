//! The complete installation workflow (the paper's Fig. 2, end to end):
//! gather → preprocess → split → tune every family → score by estimated
//! speedup → select → refit the winner on all data.

use std::collections::HashSet;

use adsala_machine::GemmTimer;
use adsala_ml::data::stratified_split;
use adsala_ml::tune::ModelSpec;
use adsala_ml::{AnyModel, ModelKind, Regressor};
use adsala_sampling::GemmShape;

use crate::artifact::{Artifact, ModelTable};
use crate::bundle::ArtifactBundle;
use crate::gather::{GatherConfig, TrainingData};
use crate::preprocess::{fit_preprocess, PreprocessConfig, PreprocessReport};
use crate::select::estimate_speedups;
use crate::service::AdsalaService;
use crate::train::{measure_eval_time, test_nrmse, train_all_families, ModelReport};
use crate::AdsalaError;

/// Installation settings.
#[derive(Debug, Clone)]
pub struct InstallConfig {
    /// Data-gathering settings.
    pub gather: GatherConfig,
    /// Model families to tune and compare.
    pub families: Vec<ModelKind>,
    /// Per-family hyper-parameter grid overrides (empty = library defaults).
    pub grids: Vec<(ModelKind, Vec<ModelSpec>)>,
    /// Cross-validation folds during tuning.
    pub folds: usize,
    /// Fraction of *shapes* held out for testing (the paper uses 30 %).
    pub test_fraction: f64,
    /// Timing repetitions in the speedup estimation.
    pub speedup_reps: u32,
    /// Cap on test shapes used for speedup estimation (0 = all).
    pub max_speedup_shapes: usize,
    /// Multiplier applied to the measured evaluation time — 1.0 for the
    /// native Rust models; ≈1000 reproduces the paper's Python-stack
    /// overhead regime (see the `eval-overhead` ablation).
    pub eval_scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl InstallConfig {
    /// Paper-scale settings: 1763 shapes, all eight table families.
    pub fn paper() -> Self {
        Self {
            gather: GatherConfig::paper(),
            families: ModelKind::table_candidates().to_vec(),
            grids: Vec::new(),
            folds: 4,
            test_fraction: 0.3,
            speedup_reps: 3,
            max_speedup_shapes: 0,
            eval_scale: 1.0,
            seed: 0xADA_0001,
        }
    }

    /// Fast settings for tests and examples: fewer shapes, cheaper grids,
    /// two representative families.
    pub fn quick() -> Self {
        Self {
            gather: GatherConfig::quick(),
            families: vec![ModelKind::LinearRegression, ModelKind::XgBoost],
            grids: vec![(
                ModelKind::XgBoost,
                vec![ModelSpec::XgBoost { n_rounds: 60, max_depth: 4, eta: 0.15, lambda: 1.0 }],
            )],
            folds: 3,
            test_fraction: 0.3,
            speedup_reps: 2,
            max_speedup_shapes: 40,
            eval_scale: 1.0,
            seed: 0xADA_0002,
        }
    }

    /// Moderate settings for the repro harness: all eight families with
    /// grids sized to finish in minutes on the simulator.
    pub fn harness() -> Self {
        Self {
            gather: GatherConfig { n_shapes: 800, reps: 5, ..GatherConfig::paper() },
            families: ModelKind::table_candidates().to_vec(),
            grids: vec![
                (
                    ModelKind::RandomForest,
                    vec![ModelSpec::RandomForest { n_trees: 80, max_depth: 12, max_features: 0.7 }],
                ),
                (ModelKind::AdaBoost, vec![ModelSpec::AdaBoost { n_rounds: 40, max_depth: 6 }]),
                (
                    ModelKind::XgBoost,
                    vec![ModelSpec::XgBoost { n_rounds: 150, max_depth: 6, eta: 0.1, lambda: 1.0 }],
                ),
                (
                    ModelKind::LightGbm,
                    vec![ModelSpec::LightGbm { n_rounds: 150, max_leaves: 31, eta: 0.1 }],
                ),
            ],
            folds: 3,
            test_fraction: 0.3,
            speedup_reps: 5,
            max_speedup_shapes: 0,
            eval_scale: 1.0,
            seed: 0xADA_0003,
        }
    }
}

/// A completed installation: everything Fig. 2 produces, plus the
/// comparison table that drove the selection.
pub struct Installation {
    pub machine: String,
    pub max_threads: u32,
    pub data: TrainingData,
    pub preprocess_report: PreprocessReport,
    pub config: PreprocessConfig,
    /// One row per tuned family (Tables III/IV).
    pub reports: Vec<ModelReport>,
    /// The winning family.
    pub selected: ModelKind,
    /// The production model: the winner refitted on all preprocessed data.
    pub model: AnyModel,
    /// Runtime candidate grid (the gather grid; threads-only for ladder
    /// installs).
    pub grid: adsala_gemm::plan::PlanGrid,
    /// Shapes held out from training (used by Table V-style evaluations).
    pub test_shapes: Vec<GemmShape>,
}

impl Installation {
    /// Run the full workflow against a timer.
    pub fn run<T: GemmTimer + ?Sized>(
        timer: &T,
        cfg: &InstallConfig,
    ) -> Result<Installation, AdsalaError> {
        // 1. Gather + preprocess.
        let data = TrainingData::gather(timer, &cfg.gather);
        let fitted = fit_preprocess(&data)?;

        // 2. Shape-level stratified split (stratify on log footprint so
        //    both splits cover the size range).
        let log_mem: Vec<f64> = data
            .shapes
            .iter()
            .map(|s| (s.memory_bytes(cfg.gather.precision) as f64).ln())
            .collect();
        let (train_shape_idx, test_shape_idx) =
            stratified_split(&log_mem, cfg.test_fraction, 10, cfg.seed);
        let as_set =
            |idx: &[usize]| -> HashSet<GemmShape> { idx.iter().map(|&i| data.shapes[i]).collect() };
        let train_shapes = as_set(&train_shape_idx);
        let test_shapes_set = as_set(&test_shape_idx);

        let mut train_rows = Vec::new();
        let mut test_rows = Vec::new();
        for (row, &rec_idx) in fitted.row_records.iter().enumerate() {
            let shape = data.records[rec_idx].shape;
            if train_shapes.contains(&shape) {
                train_rows.push(row);
            } else if test_shapes_set.contains(&shape) {
                test_rows.push(row);
            }
        }
        if train_rows.len() < 50 || test_rows.len() < 10 {
            return Err(AdsalaError::InsufficientData(format!(
                "train/test rows {}/{}",
                train_rows.len(),
                test_rows.len()
            )));
        }
        let train_set = fitted.dataset.select(&train_rows);
        let test_set = fitted.dataset.select(&test_rows);

        // 3. Tune every family on the training split.
        //
        // The runtime sweep uses the same candidate grid the gathering
        // phase sampled: the model has no information between grid points,
        // and a threads-only sweep keeps the per-call evaluation in the
        // tens of microseconds — the regime of the paper's Tables III/IV
        // `t_eval`. Grid installs sweep every (threads, isa, blocking,
        // algorithm) point instead.
        let grid_runtime = data.grid.clone();
        let tuned = train_all_families(&cfg.families, &cfg.grids, &train_set, cfg.folds, cfg.seed)?;

        // 4. Score every family: NRMSE + measured eval time + estimated
        //    speedups over the held-out shapes.
        let mut speedup_shapes: Vec<GemmShape> =
            test_shape_idx.iter().map(|&i| data.shapes[i]).collect();
        if cfg.max_speedup_shapes > 0 && speedup_shapes.len() > cfg.max_speedup_shapes {
            speedup_shapes.truncate(cfg.max_speedup_shapes);
        }
        let probes: Vec<(u64, u64, u64)> =
            speedup_shapes.iter().take(4).map(|s| (s.m, s.k, s.n)).collect();

        let mut reports = Vec::with_capacity(tuned.len());
        for cand in &tuned {
            let nrmse = test_nrmse(&cand.model, &test_set);
            let eval_s = cfg.eval_scale
                * measure_eval_time(&cand.model, &fitted.config, &grid_runtime, &probes, 3);
            let speedups = estimate_speedups(
                &cand.model,
                &fitted.config,
                &grid_runtime,
                &speedup_shapes,
                timer,
                eval_s,
                cfg.speedup_reps,
            );
            reports.push(ModelReport {
                kind: cand.kind,
                test_nrmse: nrmse,
                ideal_mean_speedup: speedups.ideal_mean,
                ideal_aggregate_speedup: speedups.ideal_aggregate,
                eval_time_us: eval_s * 1e6,
                est_mean_speedup: speedups.est_mean,
                est_aggregate_speedup: speedups.est_aggregate,
            });
        }

        // 5. Select by estimated mean speedup (§IV-D) and refit the winner
        //    on the full preprocessed dataset.
        let best = reports
            .iter()
            .max_by(|a, b| {
                a.est_mean_speedup.partial_cmp(&b.est_mean_speedup).expect("finite speedups")
            })
            .expect("at least one family");
        let selected = best.kind;
        let winning_spec =
            tuned.iter().find(|c| c.kind == selected).expect("winner was tuned").spec.clone();
        let mut model = winning_spec.build(cfg.seed);
        model.fit(&fitted.dataset.x, &fitted.dataset.y)?;

        Ok(Installation {
            machine: timer.name(),
            max_threads: timer.max_threads(),
            data,
            preprocess_report: fitted.report,
            config: fitted.config,
            reports,
            selected,
            model,
            grid: grid_runtime,
            test_shapes: speedup_shapes,
        })
    }

    /// Runtime candidate thread counts (the grid's thread axis).
    pub fn candidates(&self) -> &[u32] {
        &self.grid.threads
    }

    /// Hand back the immutable artefact bundle — the input the serving
    /// layer is built from.
    pub fn into_bundle(self) -> ArtifactBundle {
        ArtifactBundle::new(self.config, ModelTable::gemm_only(self.model), self.grid)
    }

    /// Build the shared, concurrent serving handle from this
    /// installation.
    pub fn into_service(self) -> AdsalaService {
        AdsalaService::new(self.into_bundle().into_shared())
    }

    /// Bundle into a saveable artefact (schema v4, carrying the grid).
    pub fn to_artifact(&self) -> Artifact {
        Artifact::from_table(
            &self.machine,
            self.config.clone(),
            ModelTable::gemm_only(self.model.clone()),
            self.grid.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_machine::{MachineModel, SimTimer};

    #[test]
    fn quick_install_end_to_end() {
        let timer = SimTimer::new(MachineModel::gadi());
        let install = Installation::run(&timer, &InstallConfig::quick()).unwrap();
        assert_eq!(install.reports.len(), 2);
        assert!(install.model.is_fitted());
        assert_eq!(install.max_threads, 96);
        assert_eq!(install.candidates(), crate::gather::ThreadLadder::geometric(96).counts);
        assert_eq!(install.grid, install.data.grid);
        assert!(install.grid.is_threads_only(), "ladder installs stay threads-only");
        assert!(!install.test_shapes.is_empty());

        // The tree-boosting family must beat plain linear regression on
        // this nonlinear response surface.
        let lin = install.reports.iter().find(|r| r.kind == ModelKind::LinearRegression).unwrap();
        let xgb = install.reports.iter().find(|r| r.kind == ModelKind::XgBoost).unwrap();
        assert!(
            xgb.test_nrmse < lin.test_nrmse,
            "XGBoost nrmse {} not below linear {}",
            xgb.test_nrmse,
            lin.test_nrmse
        );
        assert_eq!(install.selected, ModelKind::XgBoost);
        assert!(
            xgb.est_mean_speedup > 1.0,
            "selected model should speed GEMM up: {}",
            xgb.est_mean_speedup
        );
    }

    #[test]
    fn runtime_handle_from_install_works() {
        let timer = SimTimer::new(MachineModel::gadi());
        let install = Installation::run(&timer, &InstallConfig::quick()).unwrap();
        let service = install.into_service();
        let shape = adsala_gemm::OpShape::gemm(adsala_gemm::Precision::F32, 64, 2048, 64);
        let d = service.select_for_capped(shape, u32::MAX);
        assert!((1..=96).contains(&d.threads()));
    }

    /// A small widened-grid install, gather to refit: Yeo–Johnson, LOF,
    /// pruning, two-fold CV and both refits all feed its artefact.
    fn small_widened_install() -> Installation {
        let cfg = InstallConfig {
            gather: GatherConfig {
                n_shapes: 20,
                reps: 2,
                max_dim: Some(4608),
                grid: Some(adsala_gemm::plan::PlanGrid::widened(vec![1, 2, 4], 384)),
                seed: 0x2023_0012,
                ..GatherConfig::paper()
            },
            families: vec![ModelKind::XgBoost],
            grids: vec![(
                ModelKind::XgBoost,
                vec![ModelSpec::XgBoost { n_rounds: 8, max_depth: 4, eta: 0.15, lambda: 1.0 }],
            )],
            folds: 2,
            test_fraction: 0.3,
            speedup_reps: 1,
            max_speedup_shapes: 8,
            eval_scale: 1.0,
            seed: 0xADA_0012,
        };
        Installation::run(&SimTimer::new(MachineModel::gadi()), &cfg).unwrap()
    }

    /// FNV-1a over `bytes` fed as little-endian 8-byte words, the last one
    /// zero-padded: the `artifact_hash` the benchmark prints.
    fn artifact_hash(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            for b in word {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    #[test]
    fn widened_install_artifact_keeps_its_recorded_hash() {
        // Recorded before the install's preprocessing and split search were
        // rewritten for speed: every fitted bit of the chain and the model
        // must survive such a rewrite. Re-recorded when the grid's
        // `B`-packing axis was deleted: the JSON lost exactly its
        // `"packing":["SharedB"],` key and nothing else.
        let install = small_widened_install();
        let json = install.to_artifact().to_json().unwrap();
        assert_eq!(format!("{:016x}", artifact_hash(json.as_bytes())), "53ba9333f265ee9d");
    }

    #[test]
    fn artifact_roundtrip_from_install() {
        let timer = SimTimer::new(MachineModel::gadi());
        let install = Installation::run(&timer, &InstallConfig::quick()).unwrap();
        let art = install.to_artifact();
        let json = art.to_json().unwrap();
        let back = Artifact::from_json(&json).unwrap();
        assert_eq!(back.machine, install.machine);
    }
}
