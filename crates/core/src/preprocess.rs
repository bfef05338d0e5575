//! The install-time preprocessing chain and its runtime counterpart.
//!
//! Fitting order follows §IV-C of the paper exactly:
//!
//! 1. build the Table II features for every gathered record,
//! 2. Yeo-Johnson transform (λ per feature by MLE) — the gathered GEMM
//!    feature distributions are heavily skewed (Fig. 4),
//! 3. standardise features,
//! 4. Local Outlier Factor removal (density methods need the scaling),
//! 5. drop one of each feature pair with |corr| > 0.8.
//!
//! The label is `ln(runtime)` standardised — runtimes span six orders of
//! magnitude, and the log keeps small-GEMM accuracy from being drowned by
//! large-GEMM squared errors (a deviation from the paper, which does not
//! state its label handling; see DESIGN.md).
//!
//! The fitted [`PreprocessConfig`] is one of the two saved artefacts; its
//! [`PreprocessConfig::features_for_point`] turns a `(shape, plan point)`
//! into a model-ready row (a decision sweep builds the same rows as one
//! batch, see [`crate::select`]).

use adsala_gemm::plan::{PlanGrid, PlanPoint};
use adsala_gemm::OpShape;
use adsala_ml::data::{Dataset, Matrix};
use adsala_ml::preprocess::scaler::LabelScaler;
use adsala_ml::preprocess::yeo_johnson::transform_value;
use adsala_ml::preprocess::{CorrelationPruner, LocalOutlierFactor, StandardScaler, YeoJohnson};
use serde::{Deserialize, Serialize};

use crate::features::{shape_terms, RowLayout};
use crate::gather::TrainingData;
use crate::AdsalaError;

/// Fitted preprocessing parameters — the paper's "config file" artefact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreprocessConfig {
    pub yeo_johnson: YeoJohnson,
    pub scaler: StandardScaler,
    pub pruner: CorrelationPruner,
    pub label: LabelScaler,
}

impl PreprocessConfig {
    /// Model-ready feature row of one candidate `point` of `grid` for any
    /// routine's shape: the raw row in the grid's [`RowLayout`] (the
    /// routine's dimensions mapped into the GEMM feature space), then the
    /// fitted chain. A thread count is [`PlanPoint::threads_only`].
    pub fn features_for_point(
        &self,
        grid: &PlanGrid,
        shape: &OpShape,
        point: &PlanPoint,
    ) -> Vec<f64> {
        self.transform_raw(&RowLayout::of(grid).row(shape, point))
    }

    /// [`PreprocessConfig::features_for_point`] for a grid known only by
    /// its plan-axis layout revision ([`PlanGrid::feature_rev`]). Only
    /// valid against a config fitted on plan-axis rows.
    pub fn features_for_op_plan(
        &self,
        shape: &OpShape,
        point: &PlanPoint,
        feature_rev: u32,
    ) -> Vec<f64> {
        self.transform_raw(&RowLayout::with_plan_axes(feature_rev).row(shape, point))
    }

    /// Whether this chain was fitted on rows of `grid`'s [`RowLayout`]: one
    /// Yeo-Johnson λ, mean and deviation per raw column, and a non-empty,
    /// strictly ascending list of kept columns inside the row. A chain that
    /// fails this indexes out of bounds the first time it transforms a row.
    pub(crate) fn check_fits(&self, grid: &PlanGrid) -> Result<(), String> {
        let width = RowLayout::of(grid).width();
        let fitted =
            [self.yeo_johnson.lambdas.len(), self.scaler.means.len(), self.scaler.stds.len()];
        if fitted != [width; 3] {
            return Err(format!(
                "config has {fitted:?} lambdas/means/stds but the grid's rows have {width} columns"
            ));
        }
        let kept = &self.pruner.kept;
        if kept.is_empty() || kept.windows(2).any(|w| w[0] >= w[1]) || kept[kept.len() - 1] >= width
        {
            return Err(format!(
                "config keeps columns {kept:?}: not a non-empty, strictly ascending subset of \
                 the grid's {width}-column rows"
            ));
        }
        Ok(())
    }

    /// Raw column `col` of a feature row through the fitted chain:
    /// Yeo-Johnson, then standardise — the row transforms' operations in
    /// their order, one column at a time, so a sweep can transform a value
    /// its candidates share once.
    #[inline]
    pub(crate) fn transform_column(&self, col: usize, raw: f64) -> f64 {
        let v = transform_value(raw, self.yeo_johnson.lambdas[col]);
        (v - self.scaler.means[col]) / self.scaler.stds[col]
    }

    /// The model row of a raw feature row: the kept columns, transformed.
    fn transform_raw(&self, raw: &[f64]) -> Vec<f64> {
        self.pruner.kept.iter().map(|&col| self.transform_column(col, raw[col])).collect()
    }

    /// Map a model prediction back to seconds.
    pub fn runtime_from_prediction(&self, pred: f64) -> f64 {
        self.label.inverse_one(pred).exp()
    }

    /// Map a measured runtime to label space.
    pub fn label_for_runtime(&self, runtime_s: f64) -> f64 {
        (self.label.transform(&[runtime_s.max(1e-12).ln()]))[0]
    }
}

/// What the preprocessing did (for reports and the Fig. 4 reproduction).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PreprocessReport {
    pub rows_in: usize,
    pub rows_after_lof: usize,
    pub features_in: usize,
    pub features_kept: Vec<usize>,
    /// Per-feature skewness before the Yeo-Johnson transform.
    pub skew_before: Vec<f64>,
    /// Per-feature skewness after.
    pub skew_after: Vec<f64>,
}

/// Outcome of fitting the chain on gathered data.
pub struct FittedPreprocess {
    pub config: PreprocessConfig,
    pub dataset: Dataset,
    pub report: PreprocessReport,
    /// For each dataset row, the index of the originating record in
    /// `TrainingData::records` (LOF removes rows, so this is not 1:1).
    pub row_records: Vec<usize>,
}

/// Ablation knobs for the preprocessing chain. Defaults reproduce the
/// paper's pipeline; the `repro ablation` commands flip individual steps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PreprocessOptions {
    /// Apply the Yeo-Johnson transform (identity λ = 1 when off).
    pub yeo_johnson: bool,
    /// Run LOF outlier removal.
    pub lof: bool,
    /// Correlation-pruning threshold (1.0 effectively disables pruning).
    pub corr_threshold: f64,
}

impl Default for PreprocessOptions {
    fn default() -> Self {
        Self { yeo_johnson: true, lof: true, corr_threshold: 0.8 }
    }
}

/// Fit the full chain on gathered training data with the paper's settings.
pub fn fit_preprocess(data: &TrainingData) -> Result<FittedPreprocess, AdsalaError> {
    fit_preprocess_with(data, PreprocessOptions::default())
}

/// Fit the chain with explicit ablation options.
pub fn fit_preprocess_with(
    data: &TrainingData,
    opts: PreprocessOptions,
) -> Result<FittedPreprocess, AdsalaError> {
    if data.is_empty() {
        return Err(AdsalaError::InsufficientData("no gathered records".into()));
    }
    // 1. Raw features and log labels. Grid-gathered data appends the plan
    //    axes as features; ladder-gathered data keeps the paper's Table II
    //    space bit-for-bit.
    let layout = RowLayout::of(&data.grid);
    let mut raw = vec![0.0; data.records.len() * layout.width()];
    for (r, row) in data.records.iter().zip(raw.chunks_exact_mut(layout.width())) {
        layout.write(&shape_terms(r.shape.m, r.shape.k, r.shape.n), &r.point, row);
    }
    let x_raw = Matrix::from_vec(data.records.len(), layout.width(), raw);
    let log_runtime: Vec<f64> = data.records.iter().map(|r| r.runtime_s.max(1e-12).ln()).collect();

    // 2. Yeo-Johnson (identity when ablated: λ = 1 for every feature).
    let yj = if opts.yeo_johnson {
        YeoJohnson::fit(&x_raw)?
    } else {
        YeoJohnson { lambdas: vec![1.0; x_raw.cols()] }
    };
    let x_yj = yj.transform(&x_raw)?;
    let skew_before: Vec<f64> = (0..x_raw.cols())
        .map(|j| adsala_ml::preprocess::yeo_johnson::skewness(&x_raw.col(j)))
        .collect();
    let skew_after: Vec<f64> = (0..x_yj.cols())
        .map(|j| adsala_ml::preprocess::yeo_johnson::skewness(&x_yj.col(j)))
        .collect();

    // 3. Standardise.
    let scaler = StandardScaler::fit(&x_yj)?;
    let x_std = scaler.transform(&x_yj)?;

    // 4. LOF outlier removal (density-based, hence after scaling).
    let lof = LocalOutlierFactor::default();
    let keep_rows = if opts.lof && x_std.rows() > lof.k + 1 {
        lof.inlier_indices(&x_std)?
    } else {
        (0..x_std.rows()).collect()
    };
    if keep_rows.len() < 20 {
        return Err(AdsalaError::InsufficientData(format!(
            "only {} rows survive outlier filtering",
            keep_rows.len()
        )));
    }
    let x_filtered = x_std.select_rows(&keep_rows);
    let y_filtered: Vec<f64> = keep_rows.iter().map(|&i| log_runtime[i]).collect();

    // 5. Correlation pruning (the paper's threshold is 80%).
    let pruner = CorrelationPruner::fit(&x_filtered, opts.corr_threshold)?;
    let x_pruned = pruner.transform(&x_filtered)?;

    // Label standardisation.
    let label = LabelScaler::fit(&y_filtered)?;
    let y_final = label.transform(&y_filtered);

    let report = PreprocessReport {
        rows_in: x_raw.rows(),
        rows_after_lof: keep_rows.len(),
        features_in: x_raw.cols(),
        features_kept: pruner.kept.clone(),
        skew_before,
        skew_after,
    };
    let dataset = Dataset::new(x_pruned, y_final)?;
    Ok(FittedPreprocess {
        config: PreprocessConfig { yeo_johnson: yj, scaler, pruner, label },
        dataset,
        report,
        row_records: keep_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::GatherConfig;
    use adsala_machine::{MachineModel, SimTimer};

    fn fitted() -> FittedPreprocess {
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig { n_shapes: 60, reps: 2, ..GatherConfig::quick() };
        let data = crate::gather::TrainingData::gather(&timer, &config);
        fit_preprocess(&data).unwrap()
    }

    #[test]
    fn pipeline_produces_consistent_dataset() {
        let f = fitted();
        assert_eq!(f.dataset.x.rows(), f.dataset.y.len());
        assert_eq!(f.dataset.x.cols(), f.config.pruner.kept.len());
        assert!(f.dataset.x.all_finite());
        assert!(f.report.rows_after_lof <= f.report.rows_in);
        assert!(
            f.report.rows_after_lof as f64 >= 0.8 * f.report.rows_in as f64,
            "LOF removed more than 20% of rows: {} of {}",
            f.report.rows_in - f.report.rows_after_lof,
            f.report.rows_in
        );
    }

    #[test]
    fn pruning_actually_drops_redundant_features() {
        // m*k+k*n+m*n correlates > 0.8 with its constituents in this
        // domain; at least a few of the 17 raw features must go.
        let f = fitted();
        assert!(f.report.features_kept.len() < f.report.features_in, "no features pruned");
        assert!(f.report.features_kept.len() >= 3, "pruning too aggressive");
    }

    #[test]
    fn yeo_johnson_reduces_mean_skewness() {
        // Fig. 4: the transform must de-skew the feature set overall.
        let f = fitted();
        let mean_abs = |v: &[f64]| v.iter().map(|s| s.abs()).sum::<f64>() / v.len() as f64;
        let before = mean_abs(&f.report.skew_before);
        let after = mean_abs(&f.report.skew_after);
        assert!(after < before * 0.5, "skewness barely improved: {before:.2} -> {after:.2}");
    }

    #[test]
    fn runtime_feature_path_matches_batch_path() {
        let f = fitted();
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig { n_shapes: 60, reps: 2, ..GatherConfig::quick() };
        let data = crate::gather::TrainingData::gather(&timer, &config);
        // Row 0 of the surviving dataset corresponds to some record; check
        // the fast path reproduces the batch transform for a fresh input.
        let r = data.records[0];
        let shape = OpShape::gemm(adsala_gemm::Precision::F32, r.shape.m, r.shape.k, r.shape.n);
        let row = f.config.features_for_point(&data.grid, &shape, &r.point);
        assert_eq!(row.len(), f.config.pruner.kept.len());
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn per_column_transform_is_the_row_chain() {
        let f = fitted();
        let ladder = PlanGrid::threads_only(vec![1, 3, 96]);
        for (m, k, n, t) in [(1, 1, 1, 1), (64, 4096, 64, 3), (2000, 300, 1, 96)] {
            let shape = OpShape::gemm(adsala_gemm::Precision::F32, m, k, n);
            let point = PlanPoint::threads_only(t);
            let mut row = RowLayout::Table2.row(&shape, &point);
            f.config.yeo_johnson.transform_row(&mut row);
            f.config.scaler.transform_row(&mut row);
            let chain = f.config.pruner.transform_row(&row);
            let per_column = f.config.features_for_point(&ladder, &shape, &point);
            assert_eq!(chain.len(), per_column.len());
            for (a, b) in chain.iter().zip(&per_column) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn plan_feature_fit_keeps_at_least_one_plan_axis() {
        use adsala_gemm::plan::{Algorithm, BlockScale};
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig {
            n_shapes: 40,
            reps: 2,
            grid: Some(PlanGrid::full(vec![1, 4, 16, 96])),
            ..GatherConfig::quick()
        };
        let data = crate::gather::TrainingData::gather(&timer, &config);
        assert_eq!(RowLayout::of(&data.grid), RowLayout::LegacyAxes);
        let f = fit_preprocess(&data).unwrap();
        assert_eq!(f.report.features_in, RowLayout::LegacyAxes.width());
        assert_eq!(f.config.check_fits(&data.grid), Ok(()));
        // The plan axes are weakly correlated with the size terms, so the
        // pruner must keep the one that varies (`block_scale`; the other
        // legacy columns, `isa_scalar` and `packing_independent`, are
        // constant).
        let block_scale = crate::features::FEATURE_COUNT + 1;
        assert!(
            f.config.pruner.kept.contains(&block_scale),
            "the block-scale column was pruned: kept {:?}",
            f.config.pruner.kept
        );
        // The runtime plan path produces rows of the fitted width.
        let point = PlanPoint {
            threads: 4,
            blocking: BlockScale::uniform(50),
            algorithm: Algorithm::Blocked,
        };
        let shape = OpShape::gemm(adsala_gemm::Precision::F32, 500, 300, 400);
        let row = f.config.features_for_point(&data.grid, &shape, &point);
        assert_eq!(row.len(), f.config.pruner.kept.len());
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn widened_grid_fit_uses_the_axes_layout() {
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig {
            n_shapes: 40,
            reps: 2,
            grid: Some(PlanGrid::widened(vec![1, 4, 16, 96], 512)),
            ..GatherConfig::quick()
        };
        let data = crate::gather::TrainingData::gather(&timer, &config);
        assert_eq!(RowLayout::of(&data.grid), RowLayout::Axes);
        let f = fit_preprocess(&data).unwrap();
        assert_eq!(f.report.features_in, RowLayout::Axes.width());
        // The runtime plan path produces rows of the fitted width for a
        // widened-grid point (a Strassen candidate here).
        let point = data
            .grid
            .points()
            .find(|p| matches!(p.algorithm, adsala_gemm::plan::Algorithm::Strassen { .. }))
            .expect("widened grid has Strassen candidates");
        let shape = OpShape::gemm(adsala_gemm::Precision::F32, 2048, 2048, 2048);
        let row = f.config.features_for_point(&data.grid, &shape, &point);
        // The entry perfbench pins builds the same row from the revision.
        assert_eq!(row, f.config.features_for_op_plan(&shape, &point, data.grid.feature_rev));
        assert_eq!(row.len(), f.config.pruner.kept.len());
        assert!(row.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn label_roundtrip() {
        let f = fitted();
        for &rt in &[1e-6, 3.5e-4, 0.02, 1.7] {
            let label = f.config.label_for_runtime(rt);
            let back = f.config.runtime_from_prediction(label);
            assert!((back / rt - 1.0).abs() < 1e-9, "{rt} -> {back}");
        }
    }

    #[test]
    fn empty_data_rejected() {
        let data = TrainingData {
            records: vec![],
            shapes: vec![],
            grid: PlanGrid::threads_only(vec![]),
            machine: "none".into(),
            max_threads: 1,
        };
        assert!(fit_preprocess(&data).is_err());
    }
}
