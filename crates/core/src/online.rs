//! Online drift recording — the one place served traffic reaches back
//! toward the model.
//!
//! The paper trains its runtime-prediction models once at install time
//! and then only serves them. The serving stack measures `wall_ns` for
//! every executed op anyway, so it compares each measurement with the
//! prediction the op ran under, in [`DriftDetector`]: per routine, the
//! running sums behind [`PredictionErrorStats`] and an
//! exponentially-weighted moving average of |ln(measured / predicted)|,
//! updated from one logarithm under one short lock. When a routine's
//! rolling error leaves the band (thermal throttling, a co-tenant,
//! frequency scaling, a bundle installed on another machine — anything
//! that invalidates the install-time timings), the detector trips, and a
//! service with [`OnlineConfig::enabled`] stops trusting model *choices*:
//! it serves conservative max-threads plans until the error recovers or a
//! reinstalled bundle is published with
//! [`crate::service::AdsalaService::swap_bundle`], which resets the
//! detector.
//!
//! Served traffic is not used to retrain. It only shows the plans the
//! model already chose — one per shape, and only max-threads plans while
//! the detector is tripped — so a refit from it cannot tell a plan's
//! effect from a shape's. A fresh install on the changed machine is the
//! remedy.
//!
//! **Epoch semantics.** A swap is two ordered steps: publish the new
//! bundle (one `RwLock` write), then bump the decision-cache generation.
//! Serving threads read the generation *before* loading the bundle and
//! publish decisions via `insert_if_generation`, so a decision computed
//! against bundle generation `g` can never enter the memo at generation
//! `g+1` — readers always see a coherent `(bundle, memo)` epoch, and a
//! swap neither blocks nor drops an in-flight request (requests already
//! executing simply finish under the plan they decided with).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use adsala_gemm::{PredictionErrorStats, Routine};
use parking_lot::Mutex;

/// Tunables for the drift recorder and the fallback it can trigger.
/// `Copy` so it can ride inside [`crate::service::ServiceConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineConfig {
    /// Whether a tripped drift detector changes behaviour (conservative
    /// max-threads plans until the error recovers or a swap resets the
    /// detector). Error accounting is always on; this gates the control
    /// action only, so a default service behaves bit-identically to one
    /// with no online layer at all.
    pub enabled: bool,
    /// Drift-detector smoothing and warm-up.
    pub drift: DriftConfig,
}

impl OnlineConfig {
    /// The config with the drift-fallback control action switched on.
    pub fn enabled() -> Self {
        Self { enabled: true, ..Self::default() }
    }
}

/// How fast the drift detector's rolling error moves and when it starts
/// to count.
#[derive(Debug, Clone, Copy)]
pub struct DriftConfig {
    /// EWMA smoothing factor in (0, 1]; smaller = slower, steadier.
    pub alpha: f64,
    /// Ignore a routine until it has this many observations, so a cold
    /// EWMA can't trip on startup noise.
    pub min_samples: u64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self { alpha: 0.1, min_samples: 32 }
    }
}

/// The detector trips when a routine's rolling |ln(measured/predicted)|
/// exceeds this (≈ a sustained 42% runtime miss).
const TRIP_ABS_LOG_ERROR: f64 = 0.35;
/// It recovers (untrips) when every routine's rolling error is back below
/// this; the gap to the trip threshold is the hysteresis.
const RECOVER_ABS_LOG_ERROR: f64 = 0.15;
/// Log-ratios are clamped to ±32 nats (a factor of ~8·10¹³) so a single
/// absurd prediction cannot swamp the sums.
const LOG_CLAMP: f64 = 32.0;

/// Rolling state for one routine. Log-space is the natural domain: the
/// models are trained on `ln(runtime)` labels, and a symmetric ±x% miss
/// contributes equally in either direction.
#[derive(Debug, Clone, Copy, Default)]
struct RoutineErrorState {
    samples: u64,
    ewma_abs_log: f64,
    /// Σ |ln(measured / predicted)|.
    sum_abs_log: f64,
    /// Σ ln(measured / predicted) — positive means the model is
    /// optimistic (reality slower than predicted).
    sum_log: f64,
    /// Ops where measured > predicted.
    overshoots: u64,
}

/// One routine's rolling error, as reported in [`DriftSnapshot`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoutineDriftStats {
    /// Observations folded into this routine's EWMA and sums.
    pub samples: u64,
    /// Rolling |ln(measured / predicted)|.
    pub ewma_abs_log_error: f64,
    /// This routine's predicted-vs-measured error since the last reset.
    pub prediction: PredictionErrorStats,
}

/// Point-in-time view of the detector.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriftSnapshot {
    /// Whether the detector is currently tripped.
    pub tripped: bool,
    /// Times the detector has tripped since construction.
    pub trips: u64,
    /// Per-routine rolling error, indexed like [`Routine`] (GEMM, SYRK,
    /// GEMV); use [`DriftSnapshot::for_routine`].
    pub routines: [RoutineDriftStats; 3],
}

impl DriftSnapshot {
    /// This routine's rolling error.
    pub fn for_routine(&self, routine: Routine) -> RoutineDriftStats {
        self.routines[routine_index(routine)]
    }

    /// Predicted-vs-measured error over every routine: the fold of the
    /// per-routine rows.
    pub(crate) fn prediction(&self) -> PredictionErrorStats {
        let mut all = PredictionErrorStats::default();
        for row in self.routines.iter().map(|r| r.prediction) {
            let n = row.samples as f64;
            all.samples += row.samples;
            all.mean_abs_log_error += row.mean_abs_log_error * n;
            all.mean_log_ratio += row.mean_log_ratio * n;
            all.overshoot_fraction += row.overshoot_fraction * n;
        }
        let denom = all.samples.max(1) as f64;
        all.mean_abs_log_error /= denom;
        all.mean_log_ratio /= denom;
        all.overshoot_fraction /= denom;
        all
    }

    /// The worst rolling error across routines with any samples.
    pub fn max_ewma_abs_log_error(&self) -> f64 {
        self.routines
            .iter()
            .filter(|r| r.samples > 0)
            .map(|r| r.ewma_abs_log_error)
            .fold(0.0, f64::max)
    }
}

fn routine_index(routine: Routine) -> usize {
    match routine {
        Routine::Gemm => 0,
        Routine::Syrk => 1,
        Routine::Gemv => 2,
    }
}

/// Per-routine predicted-vs-measured error — running sums and a rolling
/// average — with a trip wire.
///
/// Readers (the serving hot path) pay one relaxed `AtomicBool` load via
/// [`DriftDetector::is_drifted`]; the per-observation update takes one
/// short per-routine mutex that only the observation path touches.
#[derive(Debug)]
pub struct DriftDetector {
    config: DriftConfig,
    routines: [Mutex<RoutineErrorState>; 3],
    drifted: AtomicBool,
    trips: AtomicU64,
}

impl DriftDetector {
    /// Build a detector with the given band.
    pub fn new(config: DriftConfig) -> Self {
        Self {
            config,
            routines: [
                Mutex::new(RoutineErrorState::default()),
                Mutex::new(RoutineErrorState::default()),
                Mutex::new(RoutineErrorState::default()),
            ],
            drifted: AtomicBool::new(false),
            trips: AtomicU64::new(0),
        }
    }

    /// Fold in one executed op. Pairs without a prediction or a
    /// measurement are ignored (they say nothing about model quality).
    pub fn record(&self, routine: Routine, predicted_s: f64, wall_ns: u64) {
        if !predicted_s.is_finite() || predicted_s <= 0.0 || wall_ns == 0 {
            return;
        }
        let log_ratio = (wall_ns as f64 * 1e-9 / predicted_s).ln().clamp(-LOG_CLAMP, LOG_CLAMP);
        let abs_log = log_ratio.abs();
        let (samples, ewma) = {
            let mut state = self.routines[routine_index(routine)].lock();
            state.samples += 1;
            state.sum_abs_log += abs_log;
            state.sum_log += log_ratio;
            state.overshoots += u64::from(log_ratio > 0.0);
            state.ewma_abs_log = if state.samples == 1 {
                abs_log
            } else {
                state.ewma_abs_log + self.config.alpha * (abs_log - state.ewma_abs_log)
            };
            (state.samples, state.ewma_abs_log)
        };
        if samples < self.config.min_samples {
            return;
        }
        if ewma > TRIP_ABS_LOG_ERROR {
            if !self.drifted.swap(true, Ordering::Relaxed) {
                self.trips.fetch_add(1, Ordering::Relaxed);
            }
        } else if ewma < RECOVER_ABS_LOG_ERROR && self.drifted.load(Ordering::Relaxed) {
            // Hysteresis: only a clear recovery (or a reset by a bundle
            // swap) untrips. One routine recovering is enough only if
            // no other routine is still outside the band.
            let any_bad = (0..3).any(|i| {
                let s = self.routines[i].lock();
                s.samples >= self.config.min_samples && s.ewma_abs_log > RECOVER_ABS_LOG_ERROR
            });
            if !any_bad {
                self.drifted.store(false, Ordering::Relaxed);
            }
        }
    }

    /// Whether the detector is currently tripped (one relaxed load — this
    /// is the serving path's only interaction with the detector).
    pub fn is_drifted(&self) -> bool {
        self.drifted.load(Ordering::Relaxed)
    }

    /// Times the detector has tripped since construction.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Zero every sum and rolling error and untrip — called when a bundle
    /// swap publishes a reinstalled model, because they measured the old
    /// one, and by an operator override.
    pub fn reset(&self) {
        for state in &self.routines {
            *state.lock() = RoutineErrorState::default();
        }
        self.drifted.store(false, Ordering::Relaxed);
    }

    /// Snapshot trips and per-routine error.
    pub fn snapshot(&self) -> DriftSnapshot {
        let mut routines = [RoutineDriftStats::default(); 3];
        for (i, slot) in routines.iter_mut().enumerate() {
            let s = *self.routines[i].lock();
            let denom = s.samples.max(1) as f64;
            *slot = RoutineDriftStats {
                samples: s.samples,
                ewma_abs_log_error: s.ewma_abs_log,
                prediction: PredictionErrorStats {
                    samples: s.samples,
                    mean_abs_log_error: s.sum_abs_log / denom,
                    mean_log_ratio: s.sum_log / denom,
                    overshoot_fraction: s.overshoots as f64 / denom,
                },
            };
        }
        DriftSnapshot { tripped: self.is_drifted(), trips: self.trips(), routines }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_detector_trips_on_sustained_error_and_resets() {
        let cfg = DriftConfig { min_samples: 8, ..DriftConfig::default() };
        let d = DriftDetector::new(cfg);
        assert!(!d.is_drifted());
        // Perfect predictions: never trips.
        for _ in 0..50 {
            d.record(Routine::Gemm, 1e-3, 1_000_000);
        }
        assert!(!d.is_drifted());
        // A sustained 2× slowdown (ln 2 ≈ 0.69 > 0.35 trip band).
        for _ in 0..50 {
            d.record(Routine::Gemm, 1e-3, 2_000_000);
        }
        assert!(d.is_drifted());
        assert_eq!(d.trips(), 1);
        let snap = d.snapshot();
        assert!(snap.tripped);
        assert!(snap.for_routine(Routine::Gemm).ewma_abs_log_error > TRIP_ABS_LOG_ERROR);
        assert_eq!(snap.for_routine(Routine::Gemv).samples, 0);
        d.reset();
        assert!(!d.is_drifted());
        assert_eq!(d.snapshot().for_routine(Routine::Gemm).samples, 0);
        assert_eq!(d.trips(), 1, "reset clears state, not the trip count");
    }

    #[test]
    fn drift_detector_recovers_with_hysteresis() {
        let cfg = DriftConfig { min_samples: 4, alpha: 0.5 };
        let d = DriftDetector::new(cfg);
        for _ in 0..20 {
            d.record(Routine::Syrk, 1e-3, 3_000_000);
        }
        assert!(d.is_drifted());
        // Accurate again: EWMA decays below the recover band and untrips.
        for _ in 0..40 {
            d.record(Routine::Syrk, 1e-3, 1_000_000);
        }
        assert!(!d.is_drifted(), "{:?}", d.snapshot());
    }

    #[test]
    fn drift_detector_needs_min_samples() {
        let cfg = DriftConfig { min_samples: 100, ..DriftConfig::default() };
        let d = DriftDetector::new(cfg);
        for _ in 0..99 {
            d.record(Routine::Gemm, 1e-3, 10_000_000);
        }
        assert!(!d.is_drifted(), "cold detector must not trip");
        d.record(Routine::Gemm, 1e-3, 10_000_000);
        assert!(d.is_drifted());
    }

    #[test]
    fn drift_detector_ignores_unpredicted_ops() {
        let d = DriftDetector::new(DriftConfig { min_samples: 1, ..DriftConfig::default() });
        for _ in 0..100 {
            d.record(Routine::Gemm, 0.0, 5_000_000);
            d.record(Routine::Gemm, -1.0, 5_000_000);
            d.record(Routine::Gemm, 1e-3, 0);
        }
        assert!(!d.is_drifted());
        assert_eq!(d.snapshot().for_routine(Routine::Gemm).samples, 0);
    }

    #[test]
    fn prediction_meter_tracks_log_error() {
        let d = DriftDetector::new(DriftConfig::default());
        // Perfect prediction: 1 ms predicted, 1 ms measured.
        d.record(Routine::Gemm, 1e-3, 1_000_000);
        // 2× slower than predicted (model optimistic / overshoot).
        d.record(Routine::Gemm, 1e-3, 2_000_000);
        // 2× faster than predicted.
        d.record(Routine::Gemm, 2e-3, 1_000_000);
        let s = d.snapshot().prediction();
        assert_eq!(s.samples, 3);
        let ln2 = std::f64::consts::LN_2;
        assert!((s.mean_abs_log_error - 2.0 * ln2 / 3.0).abs() < 1e-4, "{s:?}");
        assert!(s.mean_log_ratio.abs() < 1e-4, "{s:?}");
        assert!((s.overshoot_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!(s.mean_abs_pct() > 0.0);
        d.reset();
        assert_eq!(d.snapshot().prediction(), PredictionErrorStats::default());
    }

    #[test]
    fn prediction_meter_ignores_unpredicted_ops() {
        let d = DriftDetector::new(DriftConfig::default());
        d.record(Routine::Gemm, 0.0, 1_000_000);
        d.record(Routine::Gemm, -1.0, 1_000_000);
        d.record(Routine::Gemm, 1e-3, 0);
        assert_eq!(d.snapshot().prediction().samples, 0);
    }

    #[test]
    fn global_error_is_the_fold_of_the_routine_rows() {
        let d = DriftDetector::new(DriftConfig::default());
        for i in 0..5u64 {
            d.record(Routine::Syrk, 1e-3, 1_500_000 + 100_000 * i);
        }
        let syrk_only = d.snapshot();
        assert_eq!(syrk_only.for_routine(Routine::Gemm), RoutineDriftStats::default());
        assert_eq!(syrk_only.prediction(), syrk_only.for_routine(Routine::Syrk).prediction);

        for i in 0..3u64 {
            d.record(Routine::Gemm, 2e-3, 1_000_000 + 300_000 * i);
            d.record(Routine::Gemv, 1e-4, 50_000 + 10_000 * i);
        }
        let snap = d.snapshot();
        assert_eq!(snap.for_routine(Routine::Syrk), syrk_only.for_routine(Routine::Syrk));
        let all = snap.prediction();
        let rows = snap.routines.map(|r| r.prediction);
        assert_eq!(all.samples, rows.iter().map(|r| r.samples).sum::<u64>());
        assert_eq!(all.samples, 11);
        let sum_of = |field: fn(&PredictionErrorStats) -> f64| -> f64 {
            rows.iter().map(|r| field(r) * r.samples as f64).sum()
        };
        let n = all.samples as f64;
        assert!((all.mean_abs_log_error * n - sum_of(|r| r.mean_abs_log_error)).abs() < 1e-12);
        assert!((all.mean_log_ratio * n - sum_of(|r| r.mean_log_ratio)).abs() < 1e-12);
        assert!((all.overshoot_fraction * n - sum_of(|r| r.overshoot_fraction)).abs() < 1e-12);
        // Only SYRK ran slower than predicted: 5 overshoots in 11.
        assert!((all.overshoot_fraction - 5.0 / 11.0).abs() < 1e-12, "{all:?}");
    }
}
