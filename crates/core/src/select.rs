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
//! to the cap, skip aliased points, price the rest) under one of two
//! folds: the argmin ([`predict_point_for_op_capped`]) and the
//! per-thread-count curve ([`predict_curve_for_op`]). An uncapped sweep is
//! `cap = u32::MAX`; the paper's thread ladder is a
//! [`PlanGrid::threads_only`] grid.

use adsala_gemm::plan::{PlanGrid, PlanPoint};
use adsala_machine::GemmTimer;
use adsala_ml::{AnyModel, Regressor};
use adsala_sampling::GemmShape;
use serde::{Deserialize, Serialize};

use crate::preprocess::PreprocessConfig;

/// Speedup estimates for one model over a set of test shapes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedupEstimate {
    pub ideal_mean: f64,
    pub ideal_aggregate: f64,
    pub est_mean: f64,
    pub est_aggregate: f64,
}

/// Evaluate the model at one (possibly clamped) candidate point.
/// `pub(crate)` so the bundle can price a single conservative fallback
/// plan with the same feature path the sweep uses.
pub(crate) fn predict_at_point(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: &adsala_gemm::OpShape,
    point: &PlanPoint,
) -> f64 {
    let row = if grid.plan_features {
        config.features_for_op_plan(shape, point, grid.feature_rev)
    } else {
        config.features_for_op(shape, point.threads)
    };
    model.predict_row(&row)
}

/// The one pricing sweep: every distinct grid point under `cap`, in grid
/// order, with the model's raw (preprocessed-target) prediction for it.
///
/// Each candidate's thread count is clamped to `cap` *before* the model
/// evaluates it, so whatever a fold picks — and its predicted runtime —
/// describes a configuration that actually respects the cap (the fix for
/// the clamp-after-decide bug, where a capped call executed `cap` threads
/// but reported the prediction of the uncapped winner).
///
/// Clamping can alias grid points (ladder `[1, 2, 4, 8]` under cap 3
/// yields `1, 2, 3, 3`); duplicates are priced once, keeping the grid's
/// candidate order, so a cap at or above the grid maximum sweeps exactly
/// the grid. The feature chain accepts any thread count, so off-ladder
/// caps (like 3) are predicted genuinely, not approximated by a
/// neighbouring ladder rung. For a threads-only grid the sweep visits the
/// legacy thread ladder with the legacy 17-feature rows, in the legacy
/// order — so a migrated (pre-grid) artefact decides bit-identically to
/// the pre-plan runtime; grid-trained artefacts
/// ([`PlanGrid::plan_features`]) get the plan axes appended to every row.
fn priced_points(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: adsala_gemm::OpShape,
    cap: u32,
) -> Vec<(PlanPoint, f64)> {
    debug_assert!(!grid.is_empty());
    let cap = cap.max(1);
    let mut priced: Vec<(PlanPoint, f64)> = Vec::with_capacity(grid.len());
    for mut point in grid.points() {
        point.threads = point.threads.min(cap);
        if priced.iter().any(|(seen, _)| *seen == point) {
            continue;
        }
        priced.push((point, predict_at_point(model, config, grid, &shape, &point)));
    }
    priced
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
    for priced in priced_points(model, config, grid, shape, cap) {
        if priced.1 < best.1 {
            best = priced;
        }
    }
    (best.0, config.runtime_from_prediction(best.1))
}

/// The full predicted-runtime curve a joint scheduler optimises over: for
/// each distinct capped thread count in the grid, the best point at that
/// count (argmin over the non-thread axes) and its predicted runtime in
/// seconds, sorted by ascending thread count.
///
/// The curve's global minimum is exactly the
/// [`predict_point_for_op_capped`] decision; the other rows price what
/// running narrower costs, which is what lets a co-scheduler trade one
/// op's threads for another's.
pub fn predict_curve_for_op(
    model: &AnyModel,
    config: &PreprocessConfig,
    grid: &PlanGrid,
    shape: adsala_gemm::OpShape,
    cap: u32,
) -> Vec<(PlanPoint, f64)> {
    // Best (point, raw prediction) per thread count, in first-seen order.
    let mut per_count: Vec<(PlanPoint, f64)> = Vec::new();
    for (point, pred) in priced_points(model, config, grid, shape, cap) {
        match per_count.iter_mut().find(|(best, _)| best.threads == point.threads) {
            Some(entry) => {
                if pred < entry.1 {
                    *entry = (point, pred);
                }
            }
            None => per_count.push((point, pred)),
        }
    }
    per_count.sort_by_key(|(point, _)| point.threads);
    for (_, pred) in &mut per_count {
        *pred = config.runtime_from_prediction(*pred);
    }
    per_count
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
    use crate::gather::{GatherConfig, TrainingData};
    use crate::preprocess::fit_preprocess;
    use adsala_gemm::{OpShape, Precision};
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
        let grid = PlanGrid::threads_only(data.ladder.counts.clone());
        (timer, fitted.config, model, grid)
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
            let row = config.features_for(m, k, n, point.threads);
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
    fn curve_minimum_is_the_capped_decision() {
        let (_, config, model, grid) = setup();
        for (op, cap) in
            [(gemm(64, 64, 64), u32::MAX), (gemm(128, 512, 128), 3), (gemm(2000, 64, 2000), 8)]
        {
            let curve = predict_curve_for_op(&model, &config, &grid, op, cap);
            // One row per distinct clamped thread count, ascending.
            let counts: Vec<u32> = curve.iter().map(|(p, _)| p.threads).collect();
            let mut expected: Vec<u32> = grid.threads.iter().map(|&t| t.min(cap)).collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(counts, expected);
            assert!(curve.iter().all(|&(_, rt)| rt > 0.0));

            // The curve's argmin row is exactly the capped decision.
            let (best_point, best_rt) =
                predict_point_for_op_capped(&model, &config, &grid, op, cap);
            let min = curve
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .expect("curve is non-empty");
            assert_eq!(min.0, best_point);
            assert_eq!(min.1.to_bits(), best_rt.to_bits());
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
