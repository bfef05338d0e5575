//! Online adaptation — the control plane that closes the loop from
//! execution back to the model.
//!
//! The paper trains its runtime-prediction models once at install time
//! and serves them forever; but the serving stack already measures
//! `wall_ns` for every executed op, so production traffic is a free,
//! perfectly-targeted training set. This module spends it, in three
//! pieces layered on the data plane without slowing it down:
//!
//! 1. [`ObservationReservoir`] — a bounded, lock-cheap sink the service
//!    and scheduler feed with `(shape, plan, predicted, measured)`
//!    tuples. The hot path is a sampling check, one `try_lock`, and a
//!    copy into a preallocated ring: zero allocation, and contention
//!    *drops* the observation rather than blocking the caller.
//! 2. [`DriftDetector`] — the one recorder of predicted-vs-measured
//!    error: per routine, the running sums behind
//!    [`PredictionErrorStats`] and an exponentially-weighted moving
//!    average of |ln(measured / predicted)|, updated from one logarithm
//!    under one short lock. When a routine's rolling error leaves the
//!    band (thermal throttling, a co-tenant, frequency scaling — anything
//!    that invalidates the install-time timings), the detector trips and
//!    the service stops trusting model *choices*, serving conservative
//!    max-threads plans until the error recovers or a retrain lands.
//! 3. [`OnlineAdapter`] / [`retrain_now`] — a background retrainer that
//!    rebuilds the affected [`crate::artifact::ModelTable`] entries from
//!    the reservoir (the same `train` machinery as installation, fed
//!    observed rather than synthetic timings) and atomically hot-swaps
//!    the service's `Arc<ArtifactBundle>` under live traffic.
//!
//! **Epoch semantics.** A swap is two ordered steps: publish the new
//! bundle (one `RwLock` write), then bump the decision-cache generation.
//! Serving threads read the generation *before* loading the bundle and
//! publish decisions via `insert_if_generation`, so a decision computed
//! against bundle generation `g` can never enter the memo at generation
//! `g+1` — readers always see a coherent `(bundle, memo)` epoch, and a
//! swap neither blocks nor drops an in-flight request (requests already
//! executing simply finish under the plan they decided with).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use adsala_gemm::plan::{BlockScale, ExecutionPlan, IsaChoice, PlanGrid, PlanPoint};
use adsala_gemm::{BlockSizes, KernelIsa, OpShape, Precision, PredictionErrorStats, Routine};
use adsala_ml::data::{Dataset, Matrix};
use adsala_ml::tune::ModelSpec;
use parking_lot::{Condvar, Mutex};

use crate::service::AdsalaService;
use crate::train::train_family;
use crate::AdsalaError;

/// One executed operation, as the feedback loop sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// What ran.
    pub shape: OpShape,
    /// The plan it ran under.
    pub plan: ExecutionPlan,
    /// The model's runtime prediction for that plan (seconds; ≤ 0 when
    /// the call carried no prediction).
    pub predicted_runtime_s: f64,
    /// Measured end-to-end wall time (nanoseconds).
    pub wall_ns: u64,
}

/// Tunables for the always-on observation/drift side of the loop.
/// `Copy` so it can ride inside [`crate::service::ServiceConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineConfig {
    /// Whether a tripped drift detector changes behaviour (conservative
    /// fallback plans). Observation and error accounting are always on;
    /// this gates the control action only, so a default service behaves
    /// bit-identically to one with no online layer at all.
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

/// Reservoir occupancy and traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReservoirStats {
    /// Observations currently resident.
    pub resident: u64,
    /// Observations accepted since construction (drains don't reset it).
    pub recorded: u64,
    /// Observations dropped because a stripe was contended (`try_lock`
    /// failed) — the price of never blocking the hot path.
    pub contended_drops: u64,
}

struct Stripe {
    buf: Vec<Observation>,
    /// Overwrite cursor once the stripe is full (bounded ring).
    next: usize,
}

/// A bounded, striped, never-blocking sink of [`Observation`]s.
///
/// Writers pay a relaxed fetch-add (stripe rotation), one `try_lock`, and a
/// `Vec` write into preallocated storage. A contended stripe drops the
/// observation; a full stripe overwrites its oldest resident — both are
/// fine for a statistical training set, and neither can stall a serving
/// thread.
pub struct ObservationReservoir {
    stripes: Box<[Mutex<Stripe>]>,
    stripe_mask: usize,
    per_stripe_capacity: usize,
    calls: AtomicU64,
    recorded: AtomicU64,
    contended_drops: AtomicU64,
}

impl std::fmt::Debug for ObservationReservoir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObservationReservoir")
            .field("stripes", &self.stripes.len())
            .field("per_stripe_capacity", &self.per_stripe_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ObservationReservoir {
    /// The service's reservoir: 4096 observations over 8 stripes, every
    /// observation kept.
    pub(crate) fn for_service() -> Self {
        Self::new(8, 4096)
    }

    /// Build a reservoir with `stripes` lock stripes (rounded up to a
    /// power of two, at least 1) sharing `capacity` total slots. All
    /// storage is allocated up front.
    pub(crate) fn new(stripes: usize, capacity: usize) -> Self {
        let stripes = stripes.max(1).next_power_of_two();
        let per_stripe_capacity = capacity.div_ceil(stripes).max(1);
        Self {
            stripes: (0..stripes)
                .map(|_| {
                    Mutex::new(Stripe { buf: Vec::with_capacity(per_stripe_capacity), next: 0 })
                })
                .collect(),
            stripe_mask: stripes - 1,
            per_stripe_capacity,
            calls: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            contended_drops: AtomicU64::new(0),
        }
    }

    /// Offer one observation. Never blocks and never allocates: dropped
    /// on stripe contention, or copied into the ring. Returns `true` only
    /// if the observation is now resident.
    pub fn record(&self, obs: Observation) -> bool {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        // Rotate stripes by arrival order so concurrent writers spread out.
        let stripe = &self.stripes[(call as usize) & self.stripe_mask];
        let Some(mut guard) = stripe.try_lock() else {
            self.contended_drops.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        if guard.buf.len() < self.per_stripe_capacity {
            guard.buf.push(obs);
        } else {
            let slot = guard.next;
            guard.buf[slot] = obs;
            guard.next = (slot + 1) % self.per_stripe_capacity;
        }
        drop(guard);
        self.recorded.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Take every resident observation, leaving the reservoir empty but
    /// with its storage still preallocated. Called by the (cold)
    /// retrainer, so it may block on the stripe locks.
    pub fn drain(&self) -> Vec<Observation> {
        let mut out = Vec::new();
        for stripe in self.stripes.iter() {
            let mut guard = stripe.lock();
            out.append(&mut guard.buf);
            guard.next = 0;
        }
        out
    }

    /// Observations currently resident.
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.lock().buf.len()).sum()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity (per-stripe bound × stripe count).
    pub fn capacity(&self) -> usize {
        self.per_stripe_capacity * self.stripes.len()
    }

    /// Snapshot the traffic counters.
    pub fn stats(&self) -> ReservoirStats {
        ReservoirStats {
            resident: self.len() as u64,
            recorded: self.recorded.load(Ordering::Relaxed),
            contended_drops: self.contended_drops.load(Ordering::Relaxed),
        }
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
            // Hysteresis: only a clear recovery (or a reset after a
            // retrain) untrips. One routine recovering is enough only if
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

    /// Zero every sum and rolling error and untrip — called when a
    /// freshly retrained bundle goes live, because they measured the old
    /// model.
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

/// Invert [`PlanPoint::materialise`] as far as the grid allows: recover
/// the abstract grid point a concrete executed plan corresponds to, so an
/// observation can be featurised exactly like the install sweep that
/// trained the model. Thread count and algorithm invert exactly; the
/// packing axis, which no host plan carries, inverts to the grid's first
/// packing value; the ISA inverts to `Scalar` iff the plan pinned the
/// scalar kernel; a materialised blocking override is matched against the grid's
/// `blockings` (host-default blocking ⇒ the uniform 100 triple). An
/// off-grid blocking falls back to the default triple rather than failing
/// — the feature is then slightly wrong for that row, which a statistical
/// refit tolerates.
pub fn point_for_plan(grid: &PlanGrid, precision: Precision, plan: &ExecutionPlan) -> PlanPoint {
    let isa = match plan.kernel_isa {
        Some(KernelIsa::Scalar) => IsaChoice::Scalar,
        _ => IsaChoice::Dispatched,
    };
    let blocking = match plan.blocking {
        None => BlockScale::default(),
        Some(concrete) => {
            let base = BlockSizes::dispatched_for(precision);
            grid.blockings
                .iter()
                .copied()
                .find(|s| base.scaled_axes(s.mc_percent, s.kc_percent, s.nc_percent) == concrete)
                .unwrap_or_default()
        }
    };
    PlanPoint {
        threads: plan.threads.max(1),
        isa,
        blocking,
        packing: grid.packing.first().copied().unwrap_or_default(),
        algorithm: plan.algorithm,
    }
}

/// Tunables for the retrainer.
#[derive(Debug, Clone)]
pub struct RetrainConfig {
    /// A routine is only refit once the reservoir holds at least this
    /// many of its observations (a tiny refit would trade a stale model
    /// for an overfit one).
    pub min_observations: usize,
    /// The model family/hyperparameters to refit with. A single fixed
    /// spec, not a tuning grid: online refits must be fast and
    /// predictable, and the install already chose the family.
    pub spec: ModelSpec,
    /// Cross-validation folds for the (single-spec) fit.
    pub folds: usize,
    /// Seed for the fit.
    pub seed: u64,
    /// How often the background adapter wakes to check for work.
    pub poll_interval: Duration,
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self {
            min_observations: 64,
            spec: ModelSpec::XgBoost { n_rounds: 40, max_depth: 4, eta: 0.2, lambda: 1.0 },
            folds: 3,
            seed: 0,
            poll_interval: Duration::from_millis(50),
        }
    }
}

/// What one retrain pass did.
#[derive(Debug, Clone, Default)]
pub struct RetrainOutcome {
    /// Routines whose model was refit and went live.
    pub retrained: Vec<Routine>,
    /// Routines that had observations but fewer than `min_observations`.
    pub skipped: Vec<Routine>,
    /// Observations drained from the reservoir for this pass.
    pub observations: usize,
    /// The cache generation the swap produced (`None` when nothing was
    /// retrained, so nothing swapped).
    pub swap_generation: Option<u64>,
    /// Time spent fitting models (off the serving path).
    pub train_latency: Duration,
    /// Time the swap itself took: the bundle publish plus the cache
    /// generation bump — the only moments serving threads can even
    /// notice, and neither blocks them.
    pub swap_latency: Duration,
}

impl RetrainOutcome {
    /// Whether a new bundle went live.
    pub fn swapped(&self) -> bool {
        self.swap_generation.is_some()
    }
}

/// Run one retrain pass synchronously: drain the reservoir, refit every
/// routine with enough observations (features and labels through the
/// bundle's *existing* preprocessing config, so routines that are not
/// refit stay consistent), and hot-swap the refreshed bundle into the
/// service. Returns without swapping when no routine has enough data.
///
/// Observations are drained destructively; a pass that refits nothing
/// still consumes what it drained (the reservoir is a stream, not a
/// database — the next pass sees the next window of traffic).
pub fn retrain_now(
    service: &AdsalaService,
    cfg: &RetrainConfig,
) -> Result<RetrainOutcome, AdsalaError> {
    let observations = service.drain_observations();
    let bundle = service.bundle();
    let mut by_routine: BTreeMap<&'static str, (Routine, Vec<Observation>)> = BTreeMap::new();
    for obs in &observations {
        if obs.wall_ns == 0 {
            continue;
        }
        by_routine
            .entry(obs.shape.routine.as_str())
            .or_insert_with(|| (obs.shape.routine, Vec::new()))
            .1
            .push(*obs);
    }

    let fit_start = Instant::now();
    let mut models = bundle.models.clone();
    let mut outcome = RetrainOutcome { observations: observations.len(), ..Default::default() };
    for (routine, rows) in by_routine.into_values() {
        if rows.len() < cfg.min_observations {
            outcome.skipped.push(routine);
            continue;
        }
        let x: Vec<Vec<f64>> = rows
            .iter()
            .map(|o| {
                let point = point_for_plan(&bundle.grid, o.shape.precision, &o.plan);
                bundle.config.features_for_point(&bundle.grid, &o.shape, &point)
            })
            .collect();
        let y: Vec<f64> =
            rows.iter().map(|o| bundle.config.label_for_runtime(o.wall_ns as f64 * 1e-9)).collect();
        let data = Dataset::new(Matrix::from_rows(&x), y)?;
        let trained = train_family(
            cfg.spec.kind(),
            Some(std::slice::from_ref(&cfg.spec)),
            &data,
            cfg.folds,
            cfg.seed,
        )?;
        models = models.with(routine, trained.model);
        outcome.retrained.push(routine);
    }
    outcome.train_latency = fit_start.elapsed();

    if !outcome.retrained.is_empty() {
        let refreshed = bundle.refreshed(models).into_shared();
        let swap_start = Instant::now();
        let generation = service.swap_bundle(refreshed);
        outcome.swap_latency = swap_start.elapsed();
        outcome.swap_generation = Some(generation);
    }
    Ok(outcome)
}

#[derive(Debug, Default)]
struct AdapterState {
    stop: bool,
    kick: bool,
}

#[derive(Debug)]
struct AdapterShared {
    state: Mutex<AdapterState>,
    wake: Condvar,
    retrain_passes: AtomicU64,
    swaps: AtomicU64,
    errors: AtomicU64,
    last_outcome: Mutex<Option<RetrainOutcome>>,
}

/// The background retrainer thread: wakes on a poll interval (or an
/// explicit [`OnlineAdapter::trigger`]), and when triggered or when the
/// service's drift detector is tripped runs [`retrain_now`] and hot-swaps
/// the result. Dropping the adapter stops and joins the thread.
#[derive(Debug)]
pub struct OnlineAdapter {
    shared: Arc<AdapterShared>,
    handle: Option<JoinHandle<()>>,
}

impl OnlineAdapter {
    /// Spawn the retrainer against `service`.
    pub fn spawn(service: Arc<AdsalaService>, cfg: RetrainConfig) -> Self {
        let shared = Arc::new(AdapterShared {
            state: Mutex::new(AdapterState::default()),
            wake: Condvar::new(),
            retrain_passes: AtomicU64::new(0),
            swaps: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            last_outcome: Mutex::new(None),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("adsala-online".into())
            .spawn(move || Self::run(thread_shared, service, cfg))
            .expect("spawn online adapter thread");
        Self { shared, handle: Some(handle) }
    }

    fn run(shared: Arc<AdapterShared>, service: Arc<AdsalaService>, cfg: RetrainConfig) {
        loop {
            let kicked = {
                let mut state = shared.state.lock();
                if !state.stop && !state.kick {
                    shared.wake.wait_for(&mut state, cfg.poll_interval);
                }
                if state.stop {
                    return;
                }
                std::mem::take(&mut state.kick)
            };
            if !(kicked || service.is_drifted()) {
                continue;
            }
            shared.retrain_passes.fetch_add(1, Ordering::Relaxed);
            match retrain_now(&service, &cfg) {
                Ok(outcome) => {
                    if outcome.swapped() {
                        shared.swaps.fetch_add(1, Ordering::Relaxed);
                    }
                    *shared.last_outcome.lock() = Some(outcome);
                }
                Err(_) => {
                    shared.errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// Ask the thread to run a retrain pass now (returns immediately).
    pub fn trigger(&self) {
        self.shared.state.lock().kick = true;
        self.shared.wake.notify_all();
    }

    /// Retrain passes attempted so far.
    pub fn retrain_passes(&self) -> u64 {
        self.shared.retrain_passes.load(Ordering::Relaxed)
    }

    /// Passes that produced a live hot-swap.
    pub fn swaps(&self) -> u64 {
        self.shared.swaps.load(Ordering::Relaxed)
    }

    /// Passes that failed (fit error); the thread keeps running.
    pub fn errors(&self) -> u64 {
        self.shared.errors.load(Ordering::Relaxed)
    }

    /// The most recent pass's outcome, if any pass has completed.
    pub fn last_outcome(&self) -> Option<RetrainOutcome> {
        self.shared.last_outcome.lock().clone()
    }

    /// Stop and join the background thread (also runs on drop).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.state.lock().stop = true;
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for OnlineAdapter {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_gemm::PackingStrategy;

    fn obs(i: u64) -> Observation {
        Observation {
            shape: OpShape::gemm(Precision::F32, 64 + i, 64, 64),
            plan: ExecutionPlan::with_threads(4),
            predicted_runtime_s: 1e-3,
            wall_ns: 1_000_000 + i,
        }
    }

    #[test]
    fn reservoir_records_and_drains() {
        let r = ObservationReservoir::new(2, 16);
        assert!(r.is_empty());
        for i in 0..10 {
            assert!(r.record(obs(i)));
        }
        assert_eq!(r.len(), 10);
        let drained = r.drain();
        assert_eq!(drained.len(), 10);
        assert!(r.is_empty());
        let stats = r.stats();
        assert_eq!(stats.recorded, 10);
        assert_eq!(stats.contended_drops, 0);
        // Storage survives the drain: refill without reallocation.
        assert!(r.record(obs(99)));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn reservoir_is_bounded_and_overwrites_oldest() {
        let r = ObservationReservoir::new(1, 4);
        assert_eq!(r.capacity(), 4);
        for i in 0..10 {
            r.record(obs(i));
        }
        assert_eq!(r.len(), 4, "ring must stay bounded");
        let drained = r.drain();
        // The four newest observations survive (6..10 in ring order).
        let mut walls: Vec<u64> = drained.iter().map(|o| o.wall_ns - 1_000_000).collect();
        walls.sort_unstable();
        assert_eq!(walls, vec![6, 7, 8, 9]);
    }

    #[test]
    fn reservoir_drops_on_contention_instead_of_blocking() {
        let r = ObservationReservoir::new(1, 8);
        // Hold the only stripe hostage; the writer must drop, not block.
        let guard = r.stripes[0].lock();
        let start = Instant::now();
        assert!(!r.record(obs(0)));
        assert!(start.elapsed() < Duration::from_millis(100));
        drop(guard);
        assert_eq!(r.stats().contended_drops, 1);
        assert!(r.record(obs(1)));
    }

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

    #[test]
    fn point_for_plan_inverts_materialise_across_the_grid() {
        for grid in [PlanGrid::full(vec![1, 2, 4, 8]), PlanGrid::widened(vec![1, 2, 4, 8], 512)] {
            for point in grid.points() {
                for precision in [Precision::F32, Precision::F64] {
                    let plan = point.materialise(precision);
                    // Packing does not reach the plan: it inverts to the
                    // grid's first packing value.
                    let expected = PlanPoint { packing: grid.packing[0], ..point };
                    assert_eq!(point_for_plan(&grid, precision, &plan), expected, "{plan:?}");
                }
            }
        }
        // Threads-only plans invert on a threads-only grid too.
        let ladder = PlanGrid::threads_only(vec![1, 2, 4]);
        let plan = ExecutionPlan::with_threads(2);
        let point = point_for_plan(&ladder, Precision::F32, &plan);
        assert_eq!(point, PlanPoint::threads_only(2));
        assert_eq!(point.packing, PackingStrategy::SharedB);
    }

    #[test]
    fn point_for_plan_off_grid_blocking_falls_back_to_default() {
        let grid = PlanGrid::threads_only(vec![1, 2, 4]);
        let plan = ExecutionPlan::with_threads(4)
            .with_blocking(BlockSizes::dispatched_for(Precision::F32).scaled(73));
        assert_eq!(point_for_plan(&grid, Precision::F32, &plan).blocking, BlockScale::default());
    }
}
