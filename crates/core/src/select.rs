//! Speedup-based model selection (§IV-D).
//!
//! Predictive accuracy alone does not pick the best model: a slow-to-
//! evaluate model pays its evaluation time on every GEMM call. The paper
//! scores each tuned candidate by the estimated speedup
//!
//! ```text
//! s = t_original / (t_ADSALA + t_eval)
//! ```
//!
//! averaged over the test GEMMs, where `t_original` uses the maximum
//! thread count (the conventional default) and `t_ADSALA` uses the
//! model-chosen count. The candidate with the highest estimated mean
//! speedup wins.
//!
//! Every decision is one sweep (`priced_points`: clamp the thread axis
//! to the cap, skip aliased rungs, price the rest) folded into its argmin
//! ([`predict_point_for_op_capped`]). An uncapped sweep is
//! `cap = u32::MAX`; the paper's thread ladder is a
//! [`PlanGrid::threads_only`] grid.
//!
//! # How a sweep is priced
//!
//! `t_eval` is the sweep, and at the small shapes where the paper's gains
//! live it is comparable to the kernel, so the sweep is priced as one
//! batch rather than candidate by candidate. A candidate's model row is
//! its kept raw columns through the fitted chain
//! (`PreprocessConfig::transform_column`: Yeo-Johnson `powf`, then
//! standardise), and most of those values are shared between candidates:
//!
//! | raw columns | depend on | transformed | values over the batch |
//! |---|---|---|---|
//! | `m, k, n, m*k, m*n, k*n, m*k*n, mem` | the shape | once per sweep | one |
//! | `n_threads` and the eight `…/n_threads` terms | shape × clamped thread count | once per distinct clamped count | one per priced rung |
//! | the plan-axis columns | one non-thread axis each | once per distinct value | one per distinct axis value |
//! | columns the pruner dropped | — | never | — |
//!
//! The rows go into a per-thread scratch buffer, row-major: the first
//! rung's rows are built column by column, a later rung's rows are copies
//! of them with the thread-dependent columns replaced. A rung whose
//! clamped thread count was already priced is skipped whole, and
//! [`PlanGrid::rung`] lists a rung's distinct points, so no two points are
//! ever compared. The model prices the batch in one
//! [`Regressor::predict_rows`] call, and the tree ensembles use what the
//! last column of the table says: they find each column's few distinct
//! values again (a scan of the batch, about an eighth of the sweep — cheap
//! enough that the sweep does not hand its own bookkeeping down through
//! the model interface) and walk each tree once with the *set* of
//! candidates, splitting the set at a node by those values, instead of
//! once per candidate. A warm sweep allocates nothing, and its points,
//! their order and the bits of every prediction are those of pricing each
//! candidate alone with `predict_at_point`, the one-row reference the tests
//! compare against.

use std::cell::RefCell;

use adsala_gemm::plan::{PlanGrid, PlanPoint};
use adsala_machine::GemmTimer;
use adsala_ml::{AnyModel, Regressor};
use adsala_sampling::GemmShape;
use serde::{Deserialize, Serialize};

use crate::features::{depends_on_threads, shape_terms, write_table2, RowLayout, FEATURE_COUNT};
use crate::preprocess::PreprocessConfig;

/// Speedup estimates for one model over a set of test shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupEstimate {
    pub ideal_mean: f64,
    pub ideal_aggregate: f64,
    pub est_mean: f64,
    pub est_aggregate: f64,
}

/// Evaluate the model at one (possibly clamped) candidate point: the
/// one-row reference the batched sweep is compared with.
#[cfg(test)]
pub(crate) fn predict_at_point(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: &adsala_gemm::OpShape,
    point: &PlanPoint,
) -> f64 {
    model.predict_row(&config.features_for_point(grid, shape, point))
}

/// What one sweep fills. One per thread (as the packing arenas of
/// `adsala_gemm::workspace` are), so a warm sweep allocates nothing.
struct SweepScratch {
    /// The distinct candidates under the cap, in grid order.
    points: Vec<PlanPoint>,
    /// Their model rows, row-major `points × kept columns`.
    rows: Vec<f64>,
    /// The model's raw prediction for each.
    preds: Vec<f64>,
    /// `(column, raw value, model-row value)` of every plan-axis value
    /// this sweep has transformed.
    axis_values: Vec<(usize, f64, f64)>,
}

thread_local! {
    static SWEEP_SCRATCH: RefCell<SweepScratch> = const {
        RefCell::new(SweepScratch {
            points: Vec::new(),
            rows: Vec::new(),
            preds: Vec::new(),
            axis_values: Vec::new(),
        })
    };
}

/// Plan-axis column `col` at raw value `raw` as the model sees it,
/// transformed the first time the sweep meets the value.
fn axis_value(
    seen: &mut Vec<(usize, f64, f64)>,
    config: &PreprocessConfig,
    col: usize,
    raw: f64,
) -> f64 {
    if let Some(&(_, _, value)) =
        seen.iter().find(|&&(c, r, _)| c == col && r.to_bits() == raw.to_bits())
    {
        return value;
    }
    let value = config.transform_column(col, raw);
    seen.push((col, raw, value));
    value
}

/// The one pricing sweep: every distinct grid point under `cap`, in grid
/// order, with the model's raw (preprocessed-target) prediction for it,
/// handed to `fold` as two parallel slices.
///
/// Each candidate's thread count is clamped to `cap` *before* the model
/// evaluates it, so whatever a fold picks — and its predicted runtime —
/// describes a configuration that actually respects the cap (the fix for
/// the clamp-after-decide bug, where a capped call executed `cap` threads
/// but reported the prediction of the uncapped winner).
///
/// Clamping can alias thread rungs (ladder `[1, 2, 4, 8]` under cap 3
/// yields `1, 2, 3, 3`); a rung whose clamped count was already priced is
/// skipped whole, and within a rung [`PlanGrid::rung`] lists each distinct
/// point once, so every point is priced once in the grid's candidate order
/// and a cap at or above the grid maximum sweeps exactly the grid. The
/// feature chain accepts any thread count, so off-ladder caps (like 3) are
/// predicted genuinely, not approximated by a neighbouring ladder rung.
/// For a threads-only grid the sweep visits the legacy thread ladder with
/// the legacy 17-feature rows, in the legacy order — so a migrated
/// (pre-grid) artefact decides bit-identically to the pre-plan runtime;
/// a grid that sweeps more axes gets them appended to every row, in the
/// grid's [`RowLayout`].
///
/// The rows are those `predict_at_point` builds one at a time, bit for
/// bit, but built as one batch (see the module doc): a column is
/// transformed once for all the candidates that share its value, and the
/// model prices the batch in one [`Regressor::predict_rows`] call (a tree
/// ensemble walks each tree once for the whole batch).
fn priced_points<R>(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: adsala_gemm::OpShape,
    cap: u32,
    fold: impl FnOnce(&[PlanPoint], &[f64]) -> R,
) -> R {
    debug_assert!(!grid.is_empty());
    let cap = cap.max(1);
    let kept = config.pruner.kept.as_slice();
    let (m, k, n) = shape.gemm_equivalent();
    let terms = shape_terms(m, k, n);
    let layout = RowLayout::of(grid);
    SWEEP_SCRATCH.with(|scratch| {
        let SweepScratch { points, rows, preds, axis_values } = &mut *scratch.borrow_mut();
        points.clear();
        rows.clear();
        axis_values.clear();
        let mut raw = [0.0; RowLayout::MAX_WIDTH];
        let raw = &mut raw[..layout.width()];
        // The current rung's Table II columns as the model sees them,
        // indexed by raw column; only kept columns are filled.
        let mut table2 = [0.0; FEATURE_COUNT];
        let mut rung_len = 0;
        for (i, &threads) in grid.threads.iter().enumerate() {
            let threads = threads.min(cap);
            if grid.threads[..i].iter().any(|&seen| seen.min(cap) == threads) {
                continue;
            }
            let first_rung = points.is_empty();
            write_table2(&terms, threads, raw);
            for &col in kept {
                if col < FEATURE_COUNT && (first_rung || depends_on_threads(col)) {
                    table2[col] = config.transform_column(col, raw[col]);
                }
            }
            if first_rung {
                for point in grid.rung(threads) {
                    layout.write_axes(&point, raw);
                    rows.extend(kept.iter().map(|&col| {
                        if col < FEATURE_COUNT {
                            table2[col]
                        } else {
                            axis_value(axis_values, config, col, raw[col])
                        }
                    }));
                    points.push(point);
                }
                rung_len = points.len();
            } else {
                // A later rung's rows are the first rung's with the
                // thread-dependent columns replaced: the shape and the
                // other plan axes are the same.
                for j in 0..rung_len {
                    let row = rows.len();
                    rows.extend_from_within(j * kept.len()..(j + 1) * kept.len());
                    for (value, &col) in rows[row..].iter_mut().zip(kept) {
                        if depends_on_threads(col) {
                            *value = table2[col];
                        }
                    }
                    points.push(PlanPoint { threads, ..points[j] });
                }
            }
        }
        preds.clear();
        preds.resize(points.len(), 0.0);
        model.predict_rows(rows, kept.len(), preds);
        fold(points, preds)
    })
}

/// Predict the runtime-minimising plan-grid point with at most `cap`
/// threads for any routine's shape, returning the argmin point (the first
/// strict minimum in grid order) and its predicted runtime in seconds.
/// `cap = u32::MAX` is the uncapped decision.
///
/// The sweep already evaluates the model at every candidate, so the
/// winner's prediction comes for free — callers must not re-evaluate the
/// model for the chosen point (that would double the per-call cost the
/// paper's `t_eval` budget accounts for).
pub fn predict_point_for_op_capped(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: adsala_gemm::OpShape,
    cap: u32,
) -> (PlanPoint, f64) {
    let first = grid.threads.first().copied().unwrap_or(1).min(cap.max(1));
    let mut best = (PlanPoint::threads_only(first), f64::INFINITY);
    priced_points(model, config, grid, shape, cap, |points, preds| {
        for (&point, &pred) in points.iter().zip(preds) {
            if pred < best.1 {
                best = (point, pred);
            }
        }
    });
    (best.0, config.runtime_from_prediction(best.1))
}

/// Estimate ideal and evaluation-inclusive speedups of `model` over
/// `shapes`, timing through `timer`. The model's choice is a full
/// plan-grid point; the baseline stays the conventional default (all
/// threads, default plan axes).
///
/// `t_eval_s` is the measured per-call model evaluation time (seconds);
/// `reps` is the timing repetition count per configuration.
pub fn estimate_speedups<T: GemmTimer + ?Sized>(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shapes: &[GemmShape],
    timer: &T,
    t_eval_s: f64,
    reps: u32,
) -> SpeedupEstimate {
    let p_max = timer.max_threads();
    let mut ideal_ratios = Vec::with_capacity(shapes.len());
    let mut est_ratios = Vec::with_capacity(shapes.len());
    let mut total_orig = 0.0;
    let mut total_adsala = 0.0;
    let mut total_adsala_eval = 0.0;
    for &shape in shapes {
        let t_orig = timer.time(shape, p_max, reps);
        let op = adsala_gemm::OpShape::gemm(adsala_gemm::Precision::F32, shape.m, shape.k, shape.n);
        let (chosen, _) = predict_point_for_op_capped(model, config, grid, op, u32::MAX);
        let t_adsala = timer.time_plan(shape, &chosen, reps);
        ideal_ratios.push(t_orig / t_adsala);
        est_ratios.push(t_orig / (t_adsala + t_eval_s));
        total_orig += t_orig;
        total_adsala += t_adsala;
        total_adsala_eval += t_adsala + t_eval_s;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    SpeedupEstimate {
        ideal_mean: mean(&ideal_ratios),
        ideal_aggregate: total_orig / total_adsala.max(f64::MIN_POSITIVE),
        est_mean: mean(&est_ratios),
        est_aggregate: total_orig / total_adsala_eval.max(f64::MIN_POSITIVE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::quick_test_bundle_over;
    use crate::gather::{GatherConfig, TrainingData};
    use crate::preprocess::fit_preprocess;
    use adsala_gemm::{OpShape, Precision, Routine};
    use adsala_machine::{MachineModel, SimTimer};
    use adsala_ml::tune::ModelSpec;

    /// The trained model with the paper's thread ladder as a threads-only
    /// grid.
    fn setup() -> (SimTimer, PreprocessConfig, AnyModel, PlanGrid) {
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig { n_shapes: 80, reps: 2, ..GatherConfig::quick() };
        let data = TrainingData::gather(&timer, &config);
        let fitted = fit_preprocess(&data).unwrap();
        let spec = ModelSpec::XgBoost { n_rounds: 60, max_depth: 5, eta: 0.15, lambda: 1.0 };
        let mut model = spec.build(0);
        model.fit(&fitted.dataset.x, &fitted.dataset.y).unwrap();
        (timer, fitted.config, model, data.grid)
    }

    fn gemm(m: u64, k: u64, n: u64) -> OpShape {
        OpShape::gemm(Precision::F32, m, k, n)
    }

    #[test]
    fn predicted_threads_are_candidates() {
        let (_, config, model, grid) = setup();
        for op in [gemm(64, 64, 64), gemm(2000, 2000, 2000), gemm(64, 4096, 64)] {
            let (point, _) = predict_point_for_op_capped(&model, &config, &grid, op, u32::MAX);
            assert!(grid.threads.contains(&point.threads));
            assert_eq!(point, PlanPoint::threads_only(point.threads));
        }
    }

    #[test]
    fn sweep_runtime_matches_argmin_reevaluation() {
        let (_, config, model, grid) = setup();
        for (m, k, n) in [(128, 512, 128), (2000, 64, 2000)] {
            let (point, runtime_s) =
                predict_point_for_op_capped(&model, &config, &grid, gemm(m, k, n), u32::MAX);
            let row = config.features_for_point(&grid, &gemm(m, k, n), &point);
            let expected = config.runtime_from_prediction(model.predict_row(&row));
            assert_eq!(runtime_s, expected, "sweep must reuse the argmin's prediction");
            assert!(runtime_s > 0.0);
        }
    }

    #[test]
    fn capped_sweep_respects_cap_and_generalises_the_uncapped_sweep() {
        let (_, config, model, grid) = setup();
        let max = grid.threads.iter().copied().max().unwrap();
        for op in [gemm(64, 64, 64), gemm(128, 512, 128), gemm(2000, 64, 2000)] {
            // Off-ladder cap: the winner must obey it, and its prediction
            // must be a genuine model evaluation at the clamped count.
            let (point, rt) = predict_point_for_op_capped(&model, &config, &grid, op, 3);
            assert!(point.threads <= 3, "{point:?}");
            let re = config
                .runtime_from_prediction(predict_at_point(&model, &config, &grid, &op, &point));
            assert_eq!(rt.to_bits(), re.to_bits(), "prediction must match the clamped point");

            // A cap at/above the grid max clamps nothing: every such cap
            // is the uncapped sweep, whose winner is the first strict
            // minimum over the ladder.
            let uncapped = predict_point_for_op_capped(&model, &config, &grid, op, u32::MAX);
            for wide in [max, max + 1] {
                let capped = predict_point_for_op_capped(&model, &config, &grid, op, wide);
                assert_eq!(capped.0, uncapped.0);
                assert_eq!(capped.1.to_bits(), uncapped.1.to_bits());
            }
            let raw =
                |t: u32| predict_at_point(&model, &config, &grid, &op, &PlanPoint::threads_only(t));
            let best = raw(uncapped.0.threads);
            let mut before_winner = true;
            for &t in &grid.threads {
                before_winner &= t != uncapped.0.threads;
                assert!(if before_winner { raw(t) > best } else { raw(t) >= best }, "rung {t}");
            }

            // Cap 1 forces the serial plan.
            let (serial, _) = predict_point_for_op_capped(&model, &config, &grid, op, 1);
            assert_eq!(serial.threads, 1);
        }
    }

    #[test]
    fn batched_sweep_is_bitwise_the_per_point_reference() {
        let ladder = PlanGrid::threads_only(vec![1, 2, 4, 8, 48, 96]);
        let full = PlanGrid::full(vec![1, 4, 16, 96]);
        let widened = PlanGrid::widened(vec![1, 2, 4], 384);
        // Repeated non-thread axis entries: the sweep must price the first
        // occurrence of each point only.
        let mut repeated = full.clone();
        repeated.blockings.push(repeated.blockings[1]);
        repeated.isa.insert(1, repeated.isa[0]);

        let trained = [ladder, full, widened].map(|grid| quick_test_bundle_over(Some(grid)));
        let shapes = [
            gemm(64, 64, 64),
            gemm(1, 4096, 300),
            gemm(2000, 64, 2000),
            OpShape::syrk(Precision::F64, 512, 1),
            OpShape::syrk(Precision::F32, 300, 900),
            OpShape::gemv(Precision::F32, 1, 700),
            OpShape::gemv(Precision::F64, 3000, 200),
        ];
        // The repeated grid shares the full grid's feature layout, so its
        // model.
        for (grid, bundle) in trained.iter().map(|b| (&b.grid, b)).chain([(&repeated, &trained[1])])
        {
            let (config, model) = (&bundle.config, bundle.models.for_routine(Routine::Gemm));
            let max = grid.threads.iter().copied().max().unwrap();
            for cap in [1, 2, 3, 5, max, max + 1, u32::MAX] {
                for shape in shapes {
                    // Clamp, skip a point already seen, price the rest one
                    // row at a time.
                    let mut reference: Vec<(PlanPoint, f64)> = Vec::new();
                    for mut point in grid.points() {
                        point.threads = point.threads.min(cap);
                        if !reference.iter().any(|(seen, _)| *seen == point) {
                            let pred = predict_at_point(model, config, grid, &shape, &point);
                            reference.push((point, pred));
                        }
                    }
                    priced_points(model, config, grid, shape, cap, |points, preds| {
                        assert_eq!(points.len(), reference.len(), "{shape:?} cap {cap}");
                        assert_eq!(preds.len(), reference.len());
                        for ((point, pred), (ref_point, ref_pred)) in
                            points.iter().zip(preds).zip(&reference)
                        {
                            assert_eq!(point, ref_point, "{shape:?} cap {cap}");
                            assert_eq!(
                                pred.to_bits(),
                                ref_pred.to_bits(),
                                "{shape:?} cap {cap} {point:?}"
                            );
                        }
                    });
                }
            }
        }
    }

    /// Decisions recorded at the commit before the row builders were folded
    /// into [`RowLayout`] (debug and release builds agree): the quick test
    /// bundle over each grid flavour × six shapes × caps `{1, 3, none}`, as
    /// `(threads, (mc, kc, nc) percent, algorithm, predicted seconds' bits)`.
    /// The `PlanGrid::full` flavour was re-recorded when the grid's
    /// `B`-packing axis was deleted: its quick install no longer gathers
    /// rows for that axis's second value, so it trains a different model.
    /// Every pinned point has the dispatched ISA; the plan is the point
    /// materialised, whose block sizes are the host's.
    #[test]
    fn decisions_are_bitwise_the_recorded_ones() {
        use adsala_gemm::plan::Algorithm::{Blocked as B, ZOrder as Z};
        use adsala_gemm::plan::{Algorithm, BlockScale};
        type Pin = (u32, (u32, u32, u32), Algorithm, u64);
        const H: (u32, u32, u32) = (100, 100, 100);
        const HALF: (u32, u32, u32) = (50, 50, 50);
        const TWICE: (u32, u32, u32) = (200, 200, 200);
        const KC: (u32, u32, u32) = (100, 50, 100);
        const KN: (u32, u32, u32) = (100, 200, 200);
        let shapes = [
            gemm(64, 64, 64),
            OpShape::gemm(Precision::F64, 2000, 64, 2000),
            OpShape::syrk(Precision::F32, 300, 900),
            OpShape::syrk(Precision::F64, 512, 1),
            OpShape::gemv(Precision::F32, 1, 700),
            OpShape::gemv(Precision::F64, 3000, 200),
        ];
        #[rustfmt::skip]
        let pinned: [(Option<PlanGrid>, [[Pin; 3]; 6]); 3] = [
            (None, [
                [(1, H, B, 0x3f1091f6760314da); 3],
                [(1, H, B, 0x3f5f1803162b19ec), (3, H, B, 0x3f4a2b7efcb798a5), (8, H, B, 0x3f43885b5df00ac0)],
                [(1, H, B, 0x3f6c1ec0de792e99), (3, H, B, 0x3f5abfa61ed8acc1), (24, H, B, 0x3f51f5140311d3fa)],
                [(1, H, B, 0x3f5025de791a14c8), (3, H, B, 0x3f34223024d954ea), (24, H, B, 0x3f1ae493f6aa56ca)],
                [(1, H, B, 0x3f120780609d0549); 3],
                [(1, H, B, 0x3f75af41996c1f69), (3, H, B, 0x3f5daf10854f245b), (16, H, B, 0x3f462fa8d7d95b75)],
            ]),
            (Some(PlanGrid::full(vec![1, 4, 16, 96])), [
                [(1, H, B, 0x3eff3ddb0114ddf9); 3],
                [(1, HALF, B, 0x3f75857ce99b7dc6), (3, HALF, B, 0x3f5f1e38ee46779c), (96, H, B, 0x3f407648e11e5ff3)],
                [(1, HALF, B, 0x3f6324c215fbfb07), (3, H, B, 0x3f57b64b62fd6a47), (16, TWICE, B, 0x3f4dc58ccaf570d6)],
                [(1, HALF, B, 0x3f41e456e423097c), (3, H, B, 0x3f2553b5c7353d65), (16, TWICE, B, 0x3f17331278f415a5)],
                [(1, TWICE, B, 0x3f33fda11900ab0a); 3],
                [(1, HALF, B, 0x3f6fff6eb8d97276), (3, HALF, B, 0x3f4e5b0b34418ded), (96, HALF, B, 0x3f2503ed29db07a5)],
            ]),
            (Some(PlanGrid::widened(vec![1, 2, 4], 384)), [
                [(1, KN, Z, 0x3ef9ab0d3b366a4a); 3],
                [(1, H, B, 0x3f782a8ae8e4b09a), (3, KC, B, 0x3f6668bfb0b66d04), (4, KC, B, 0x3f6668bfb0b66d04)],
                [(1, KC, Z, 0x3f5b6c6525dbb444), (2, H, B, 0x3f51bfd3895b1a0c), (2, H, B, 0x3f51bfd3895b1a0c)],
                [(1, KC, B, 0x3f419f2c9d21eb95), (3, KC, B, 0x3f2e647b3e7cbaac), (4, KC, B, 0x3f2e647b3e7cbaac)],
                [(1, KN, Z, 0x3f20c738cb045147); 3],
                [(1, KN, Z, 0x3f2f34f3a58fd16a); 3],
            ]),
        ];
        for (grid, by_shape) in pinned {
            let bundle = quick_test_bundle_over(grid);
            for (shape, by_cap) in shapes.iter().zip(by_shape) {
                for (cap, (threads, (mc, kc, nc), algorithm, bits)) in
                    [1, 3, u32::MAX].into_iter().zip(by_cap)
                {
                    let point = PlanPoint {
                        blocking: BlockScale::new(mc, kc, nc),
                        algorithm,
                        ..PlanPoint::threads_only(threads)
                    };
                    let decision = bundle.decide_op_capped(*shape, cap);
                    let context = format!("{:?} {shape:?} cap {cap}", bundle.grid.threads);
                    assert_eq!(decision.plan, point.materialise(shape.precision), "{context}");
                    assert_eq!(decision.predicted_runtime_s.to_bits(), bits, "{context}");
                }
            }
        }
    }

    #[test]
    fn model_avoids_max_threads_for_tiny_gemm() {
        let (_, config, model, grid) = setup();
        let (point, _) =
            predict_point_for_op_capped(&model, &config, &grid, gemm(48, 48, 48), u32::MAX);
        assert!(point.threads < 96, "model chose max threads for a tiny GEMM");
    }

    #[test]
    fn speedup_estimate_beats_one_on_small_shapes() {
        let (timer, config, model, grid) = setup();
        let shapes: Vec<GemmShape> = vec![
            GemmShape::new(64, 64, 64),
            GemmShape::new(128, 256, 128),
            GemmShape::new(64, 2048, 64),
            GemmShape::new(300, 300, 300),
            GemmShape::new(64, 64, 4096),
        ];
        let est = estimate_speedups(&model, &config, &grid, &shapes, &timer, 0.0, 2);
        assert!(
            est.ideal_mean > 1.2,
            "ML thread selection should clearly beat max threads: {est:?}"
        );
        assert!(est.ideal_aggregate > 1.0, "{est:?}");
    }

    #[test]
    fn eval_overhead_lowers_estimates() {
        let (timer, config, model, grid) = setup();
        let shapes = vec![GemmShape::new(64, 64, 64), GemmShape::new(128, 128, 128)];
        let no_overhead = estimate_speedups(&model, &config, &grid, &shapes, &timer, 0.0, 2);
        let heavy = estimate_speedups(&model, &config, &grid, &shapes, &timer, 1.0, 2);
        assert!(heavy.est_mean < no_overhead.est_mean);
        // The baseline at max threads is itself tens of milliseconds for
        // these shapes (contention), so only a very large eval overhead is
        // guaranteed to push the estimate below break-even.
        assert!(heavy.est_mean < 1.0, "1 s of eval overhead must sink tiny GEMMs");
        // Ideal columns are oblivious to the overhead.
        assert!((heavy.ideal_mean - no_overhead.ideal_mean).abs() < 1e-12);
    }
}
