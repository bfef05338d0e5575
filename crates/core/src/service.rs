//! The shared, concurrent ADSALA serving layer — layer 3 of the stack.
//!
//! [`AdsalaService`] is what the ROADMAP's "serve heavy traffic" goal
//! needs and the paper's single-client C++ class is not: a `Send + Sync`
//! handle that any number of client threads can call through a shared
//! reference. It composes the two layers below it —
//!
//! * an `Arc`-shared immutable [`ArtifactBundle`] for model sweeps,
//! * a lock-striped [`DecisionCache`] for memoisation —
//!
//! and owns one persistent [`ThreadPool`]. Every request executes through
//! the pooled kernel drivers on that pool, so the service path never pays
//! the per-call OS-thread spawn/join the paper's profiler analysis
//! (§VI-D) identifies as the dominant overhead for small shapes. The pool
//! also owns the packing [`adsala_gemm::Workspace`]: workers reuse warm
//! per-worker arenas (zero packing-path heap allocations at steady
//! state, observable as [`ServiceStats::workspace`]).
//!
//! The serving surface is routine- and precision-generic: build an
//! [`OpRequest`] from a typed descriptor ([`adsala_gemm::GemmArgs`],
//! [`adsala_gemm::SyrkArgs`], [`adsala_gemm::GemvArgs`] — `f32` or `f64`)
//! and hand it to [`AdsalaService::run`]. One entry point validates,
//! decides, and executes. Malformed operands come back as [`crate::AdsalaError::Shape`]
//! instead of killing a serving thread with a panic.
//!
//! Diagnostics are counters behind one door, [`AdsalaService::stats`]:
//! `evaluations` counts actual model sweeps (concurrent racing misses may
//! sweep the same shape twice — both count), `cache` the memo traffic.
//!
//! **Prediction error.** The paper trains once at install time and then
//! only serves, and so does this service: it serves the bundle it was
//! built with, and every model-decided call takes the same decision path
//! (the memo, then the sweep). Each one also adds `ln(measured /
//! predicted)` to its routine's running sums (one logarithm under one
//! short lock), which [`ServiceStats::prediction`] and
//! [`ServiceStats::prediction_by_routine`] report; nothing on the serving
//! path reads them. The remedy for a model that no longer predicts this
//! machine is a fresh install and a new service built on it.
//!
//! **Fault tolerance.** A kernel panic — a bug, or an injected fault from
//! [`adsala_gemm::fault`] — is confined to the request that triggered it:
//! the batch panic is caught at this boundary (the pool's workers survive
//! it, each on its own warm arena), and the request is retried once on
//! the *degraded plan* — serial, blocked loop nest at the default blocking,
//! on the same dispatched kernel as every other op — which shares no
//! workers with anything else and runs inline on the caller's thread.
//! Since the thread count changes no result bit, a recovered op returns
//! exactly the bits an unfaulted threads-only plan would have. The retry
//! is attempted only when it is sound: the deadline (if any) must not have
//! passed, and the op must be idempotent
//! ([`OpRequest::is_idempotent`], i.e. `β == 0` — a partial first attempt
//! may have dirtied the output buffer, and with `β ≠ 0` the output is
//! also an input). An unrecoverable op returns
//! [`AdsalaError::Execution`]; the service itself stays healthy either
//! way. [`RunOptions::deadline`] bounds a call end-to-end: a request
//! whose deadline has already passed is refused up front with
//! [`AdsalaError::Timeout`] before touching the memo or the pool. The
//! counters (`panics_recovered`, `degraded_retries`, `execution_failures`,
//! `deadline_misses`) land in [`ServiceStats`].
//!
//! **Sharing the pool.** The model prices each plan for a node the call
//! has to itself, as the paper's install does. Under concurrency it does
//! not: an op that asks for every worker while others hold them spends
//! its time waiting at the pool — the synchronisation cost §VI-D puts
//! small-GEMM losses in. So the service counts the ops in flight (a
//! `run_with` past its validate and deadline checks, and a `run_pinned`,
//! which occupies cores too), and an op that arrives while `n - 1` others
//! are in flight decides within its share of the workers: the largest
//! rung of the thread axis at most `max(1, workers / n)` (1 if no rung is
//! that small) lowers the caller's cap. The share goes into the sweep like
//! any other cap, so the decision's prediction describes the plan that
//! runs, and it stays on the ladder; the memo grows by at most one entry
//! per rung per shape. A lone op decides exactly as before, and so do
//! [`AdsalaService::select_for_capped`] and the bundle-level decisions.
//! [`ServiceStats::share_capped`] counts the calls the share lowered.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use adsala_gemm::dispatch::{OpRequest, OpShape, OpStats};
use adsala_gemm::plan::{Algorithm, ExecutionPlan};
use adsala_gemm::{ArenaStats, Element, PoolStats, PredictionErrorStats, Routine, ThreadPool};
use parking_lot::Mutex;

use crate::bundle::{ArtifactBundle, PlanDecision};
use crate::cache::{CacheStats, DecisionCache};
use crate::AdsalaError;

/// Tunables for [`AdsalaService`]. The decision memo is always
/// [`DecisionCache::default`] (its stripe count and capacity are
/// [`crate::cache::DEFAULT_CACHE_SHARDS`] and
/// [`crate::cache::DEFAULT_CACHE_CAPACITY`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceConfig {
    /// Worker threads in the persistent GEMM pool; 0 means one per
    /// available hardware thread.
    pub pool_workers: usize,
}

/// Per-call options for [`AdsalaService::run_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Upper bound on the executed thread count (the host's core budget
    /// for this call); 0 means no cap beyond the model's choice and the
    /// op's share of the pool while other ops are in flight.
    pub host_max_threads: u32,
    /// Refuse the call with [`AdsalaError::Timeout`] if this instant has
    /// passed before execution starts (also re-checked before a degraded
    /// retry). `None` means no deadline.
    pub deadline: Option<Instant>,
}

impl RunOptions {
    /// Cap the executed thread count at `max`.
    pub fn with_host_cap(max: u32) -> Self {
        Self { host_max_threads: max, ..Self::default() }
    }

    /// Set the call's deadline (builder-style).
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The thread cap these options impose on the decision sweep
    /// (`u32::MAX` when uncapped).
    ///
    /// The cap bounds the *sweep*, not the executed plan after the fact:
    /// the model prices candidates clamped to the cap and the argmin is
    /// taken among them, so a capped call's `PlanDecision` reports the
    /// predicted runtime of the configuration that actually runs.
    pub fn thread_cap(&self) -> u32 {
        if self.host_max_threads == 0 {
            u32::MAX
        } else {
            self.host_max_threads.max(1)
        }
    }
}

/// A thread-safe ADSALA BLAS server: shared artefacts, striped memo,
/// persistent execution pool, one `run` entry point for every routine
/// and precision.
#[derive(Debug)]
pub struct AdsalaService {
    /// The artefacts every decision is made with, fixed at construction.
    bundle: Arc<ArtifactBundle>,
    /// Decisions are memoised per `(shape, normalised thread cap)`: a
    /// capped sweep is a genuinely different optimisation problem, so a
    /// capped decision must never be served to an uncapped caller (or
    /// vice versa). Caps at or above the grid's maximum candidate
    /// normalise to the same key as "no cap", sharing one entry.
    cache: DecisionCache<(OpShape, u32)>,
    pool: ThreadPool,
    /// Model sweeps performed (memo hits don't count).
    evaluations: AtomicU64,
    /// Ops reported with `OpStats::plan_degraded` (see
    /// [`ServiceStats::plan_downgrades`] for what that covers).
    plan_downgrades: AtomicU64,
    /// Per-routine predicted-vs-measured error.
    errors: PredictionErrors,
    /// Executed-algorithm tallies: `[blocked, strassen, zorder]`, counted
    /// by what actually ran (a refused Strassen plan lands in `blocked`
    /// *and* in `plan_downgrades`).
    algo_executed: [AtomicU64; 3],
    /// Kernel-batch panics caught at the service boundary (whether or not
    /// the degraded retry then succeeded).
    panics_recovered: AtomicU64,
    /// Degraded-plan retries attempted after a caught panic.
    degraded_retries: AtomicU64,
    /// Ops that returned [`AdsalaError::Execution`] — panicked and could
    /// not be (or were not safely) retried.
    execution_failures: AtomicU64,
    /// Calls refused with [`AdsalaError::Timeout`] because their deadline
    /// had passed.
    deadline_misses: AtomicU64,
    /// Ops in `run_with` (past its validate and deadline checks) or in
    /// `run_pinned` right now: the load an arriving op's share is
    /// computed from.
    in_flight: AtomicUsize,
    /// `run_with` calls whose thread cap the pool share lowered.
    share_capped: AtomicU64,
}

/// Executed-algorithm mix of a service — the `[service]` plan-mix line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlgorithmMix {
    /// Ops that ran the blocked loop nest (including degraded plans).
    pub blocked: u64,
    /// Ops that ran the Strassen recursion.
    pub strassen: u64,
    /// Ops that ran the Z-order serial traversal.
    pub zorder: u64,
}

/// One-call snapshot of every service-level counter, for `[service]`
/// report lines and scheduler diagnostics.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Model sweeps performed (memo hits don't count).
    pub evaluations: u64,
    /// Ops whose report carried [`OpStats::plan_degraded`]: a requested
    /// algorithm refused, a degraded retry — and every SYRK/GEMV served
    /// under a plan with a non-thread axis, which those routines do not
    /// honour (most of the count under a grid install with mixed routines).
    pub plan_downgrades: u64,
    /// Predicted-vs-measured error over every routine (the fold of
    /// `prediction_by_routine`).
    pub prediction: PredictionErrorStats,
    /// Predicted-vs-measured error, one row per routine in
    /// [`Routine::ALL`] order (GEMM, SYRK, GEMV).
    pub prediction_by_routine: [PredictionErrorStats; 3],
    /// Decision-memo counters.
    pub cache: CacheStats,
    /// Execution-pool size.
    pub pool: PoolStats,
    /// Packing-arena counters of the pool's workspace.
    pub workspace: ArenaStats,
    /// Executed-algorithm mix.
    pub algorithms: AlgorithmMix,
    /// Kernel-batch panics caught and isolated at the service boundary.
    pub panics_recovered: u64,
    /// Degraded-plan retries attempted after a caught panic.
    pub degraded_retries: u64,
    /// Ops that failed with [`AdsalaError::Execution`].
    pub execution_failures: u64,
    /// Calls refused with [`AdsalaError::Timeout`] (expired deadline).
    pub deadline_misses: u64,
    /// `run_with` calls whose thread cap their share of the pool lowered,
    /// because other ops were in flight.
    pub share_capped: u64,
}

impl AdsalaService {
    /// Build a service with default tunables.
    pub fn new(bundle: Arc<ArtifactBundle>) -> Self {
        Self::with_config(bundle, ServiceConfig::default())
    }

    /// Build a service with an explicit pool size.
    pub fn with_config(bundle: Arc<ArtifactBundle>, cfg: ServiceConfig) -> Self {
        let pool = if cfg.pool_workers == 0 {
            ThreadPool::with_host_parallelism()
        } else {
            ThreadPool::new(cfg.pool_workers)
        };
        Self {
            bundle,
            cache: DecisionCache::default(),
            pool,
            evaluations: AtomicU64::new(0),
            plan_downgrades: AtomicU64::new(0),
            errors: PredictionErrors::default(),
            algo_executed: [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)],
            panics_recovered: AtomicU64::new(0),
            degraded_retries: AtomicU64::new(0),
            execution_failures: AtomicU64::new(0),
            deadline_misses: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            share_capped: AtomicU64::new(0),
        }
    }

    /// The artefact bundle the service was built with (a cheap `Arc`
    /// clone).
    pub fn bundle(&self) -> Arc<ArtifactBundle> {
        Arc::clone(&self.bundle)
    }

    /// Candidate thread counts swept per decision (the grid's thread
    /// axis).
    pub fn candidates(&self) -> Vec<u32> {
        self.bundle.candidates().to_vec()
    }

    /// Worker threads in the persistent execution pool.
    pub(crate) fn pool_workers(&self) -> usize {
        self.pool.workers()
    }

    /// Enter the in-flight count. Returns the slot, which leaves the
    /// count when dropped, and the count with this op in it.
    fn enter(&self) -> (InFlight<'_>, usize) {
        let in_flight = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        (InFlight(&self.in_flight), in_flight)
    }

    /// The memo-then-sweep decision for `shape` under `cap`, a cap already
    /// normalised on the bundle's grid. A sweep counts in `evaluations`.
    fn decide(&self, shape: OpShape, cap: u32) -> PlanDecision {
        if let Some(hit) = self.cache.get((shape, cap)) {
            return hit;
        }
        let decision = self.bundle.decide_op_capped(shape, cap);
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        self.cache.insert((shape, cap), decision);
        decision
    }

    /// Pick the execution plan for any operation among the plans with at
    /// most `cap` threads (`u32::MAX`: no cap): memo first, model sweep on
    /// a miss. Candidates above the cap are clamped onto it before the
    /// model prices them, so the returned decision's predicted runtime
    /// describes the plan that will actually execute. Memoised per
    /// `(shape, normalised cap)`; a sweep counts in `evaluations`.
    /// Callable concurrently through `&self`; equal inputs always yield
    /// equal plans because both the cache and the bundle are
    /// deterministic. The load on the pool plays no part here: only
    /// [`AdsalaService::run_with`] lowers a cap to the op's share.
    pub fn select_for_capped(&self, shape: OpShape, cap: u32) -> PlanDecision {
        self.decide(shape, normalised_cap(&self.bundle, cap))
    }

    /// Serve one operation with default options: validate the operands,
    /// pick the execution plan (memoised per `(routine, precision,
    /// shape)`), and execute on the persistent pool.
    ///
    /// ```no_run
    /// use adsala::prelude::*;
    ///
    /// # fn demo(service: &AdsalaService) -> Result<(), AdsalaError> {
    /// let (m, n, k) = (64, 64, 256);
    /// let a = vec![1.0f64; m * k];
    /// let b = vec![0.5f64; k * n];
    /// let mut c = vec![0.0f64; m * n];
    /// let mut req: OpRequest<'_, f64> =
    ///     GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
    /// let (decision, stats) = service.run(&mut req)?;
    /// assert_eq!(stats.routine, Routine::Gemm);
    /// assert!(decision.threads() >= 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn run<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
    ) -> Result<(PlanDecision, OpStats), AdsalaError> {
        self.run_with(req, RunOptions::default())
    }

    /// Like [`AdsalaService::run`] with per-call options (host thread
    /// cap, deadline). While other ops are in flight, the cap is lowered
    /// further to this op's share of the pool (see the module docs).
    pub fn run_with<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
        opts: RunOptions,
    ) -> Result<(PlanDecision, OpStats), AdsalaError> {
        // Reject malformed operands before touching the memo or the pool.
        req.validate()?;
        // An expired deadline is refused with the output buffer untouched.
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            self.deadline_misses.fetch_add(1, Ordering::Relaxed);
            return Err(AdsalaError::Timeout(format!(
                "{} deadline passed before execution started",
                req.routine()
            )));
        }
        let (_slot, in_flight) = self.enter();
        let mut cap = normalised_cap(&self.bundle, opts.thread_cap());
        if in_flight >= 2 {
            let share = pool_share(self.bundle.candidates(), self.pool.workers(), in_flight);
            if share < cap {
                self.share_capped.fetch_add(1, Ordering::Relaxed);
                cap = share;
            }
        }
        let decision = self.decide(req.shape(), cap);
        // The cap bounded the sweep, so the decision *is* the executed
        // plan — no post-hoc clamp that would desynchronise the reported
        // prediction from the configuration that runs.
        let predicted = Some(decision.predicted_runtime_s);
        let stats = self.serve(req, &decision.plan, predicted, opts.deadline, true)?;
        Ok((decision, stats))
    }

    /// The one execute → observe → recover stage behind
    /// [`AdsalaService::run_with`] and [`AdsalaService::run_pinned`]: run a
    /// validated request under `plan`
    /// inside the panic boundary, book the outcome, and on a kernel panic
    /// isolate it and (when `allow_retry`) retry once on the degraded plan.
    ///
    /// `predicted_s` is the model's prediction for `plan`; `None` (a
    /// caller-pinned plan) skips the prediction stamp and the feedback
    /// loop. `deadline` is re-checked before a retry.
    fn serve<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
        plan: &ExecutionPlan,
        predicted_s: Option<f64>,
        deadline: Option<Instant>,
        allow_retry: bool,
    ) -> Result<OpStats, AdsalaError> {
        match self.execute_guarded(req, plan) {
            Ok(stats) => Ok(self.settle(req.shape(), plan, predicted_s, stats)),
            Err(detail) => {
                self.panics_recovered.fetch_add(1, Ordering::Relaxed);
                self.retry_degraded(req, &detail, deadline, allow_retry)
            }
        }
    }

    /// Run a validated request under `plan`, converting a kernel-batch
    /// panic into the captured message instead of unwinding through the
    /// serving layer.
    fn execute_guarded<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
        plan: &ExecutionPlan,
    ) -> Result<OpStats, String> {
        catch_unwind(AssertUnwindSafe(|| req.execute_validated(&self.pool, plan)))
            .map_err(panic_message)
    }

    /// Book one executed op: stamp the prediction it ran under (if any),
    /// count a plan downgrade, tally the algorithm that actually ran, and
    /// add its prediction error (only when there is a prediction to
    /// compare the measurement against).
    fn settle(
        &self,
        shape: OpShape,
        plan: &ExecutionPlan,
        predicted_s: Option<f64>,
        mut stats: OpStats,
    ) -> OpStats {
        if stats.plan_degraded {
            self.plan_downgrades.fetch_add(1, Ordering::Relaxed);
        }
        let slot = match stats.exec.algorithm {
            Algorithm::Blocked => 0,
            Algorithm::Strassen { .. } => 1,
            Algorithm::ZOrder => 2,
        };
        self.algo_executed[slot].fetch_add(1, Ordering::Relaxed);
        if let Some(predicted_s) = predicted_s {
            stats.predicted_ns = predicted_ns(predicted_s);
            self.observe(shape, plan, predicted_s, stats.exec.wall_ns);
        }
        stats
    }

    /// The plan a panicked request retries on: serial, blocked loop nest,
    /// default blocking, the dispatched kernel. It shares no pool worker
    /// with the failed attempt and runs inline on the caller's thread, so
    /// it cannot re-trip a worker-scoped fault.
    fn degraded_plan() -> ExecutionPlan {
        ExecutionPlan::with_threads(1)
    }

    /// The recovery arm: after an isolated panic (`detail`), rerun `req`
    /// once on [`AdsalaService::degraded_plan`].
    ///
    /// Refused with [`AdsalaError::Execution`] when the caller pinned the
    /// plan (`allow_retry` is false: substituting a different
    /// configuration would betray the pin), when the op is not idempotent,
    /// or when `deadline` has passed. A recovered op is *not* fed to
    /// [`AdsalaService::observe`] — the decision's prediction does not
    /// describe the degraded plan that actually ran — but it still counts
    /// as a plan downgrade and in the executed-algorithm mix.
    fn retry_degraded<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
        detail: &str,
        deadline: Option<Instant>,
        allow_retry: bool,
    ) -> Result<OpStats, AdsalaError> {
        let refused = if !allow_retry {
            Some("pinned plan, no retry")
        } else if !req.is_idempotent() {
            // The first attempt may have dirtied the β-scaled output;
            // rerunning would double-apply it.
            Some("not retried: beta != 0 makes a rerun unsound")
        } else if deadline.is_some_and(|d| Instant::now() >= d) {
            // Not a clean Timeout: the panicked attempt may have written
            // into the output buffer, which Timeout promises is untouched.
            self.deadline_misses.fetch_add(1, Ordering::Relaxed);
            Some("deadline passed before the degraded retry")
        } else {
            None
        };
        let outcome = match refused {
            Some(why) => Err(format!("{detail} ({why})")),
            None => {
                self.degraded_retries.fetch_add(1, Ordering::Relaxed);
                self.execute_guarded(req, &Self::degraded_plan()).map_err(|retry_detail| {
                    format!("{detail}; degraded retry also failed: {retry_detail}")
                })
            }
        };
        match outcome {
            Ok(mut stats) => {
                stats.plan_degraded = true;
                let plan = stats.plan;
                Ok(self.settle(req.shape(), &plan, None, stats))
            }
            Err(detail) => {
                self.execution_failures.fetch_add(1, Ordering::Relaxed);
                Err(AdsalaError::Execution { routine: req.routine(), detail })
            }
        }
    }

    /// Execute a request under a caller-pinned [`ExecutionPlan`] on the
    /// service's pool, skipping the model sweep and the memo. Downgrade
    /// and algorithm-mix telemetry still apply; the prediction-error sums
    /// do not (a pinned run carries no prediction to compare against), and
    /// a kernel panic is isolated but never retried on a different plan.
    /// The op counts as in flight while it runs, so ops arriving meanwhile
    /// decide within their share of the pool; its own plan is never capped.
    pub fn run_pinned<T: Element>(
        &self,
        req: &mut OpRequest<'_, T>,
        plan: &ExecutionPlan,
    ) -> Result<OpStats, AdsalaError> {
        req.validate()?;
        let (_slot, _) = self.enter();
        self.serve(req, plan, None, None, false)
    }

    /// Add one executed op's prediction error to its routine's running
    /// sums. The serve stage calls this for every model-decided op. One
    /// logarithm under one short per-routine lock; the error is kept per
    /// routine, so the plan the op ran under is not read.
    pub fn observe(
        &self,
        shape: OpShape,
        _plan: &ExecutionPlan,
        predicted_runtime_s: f64,
        wall_ns: u64,
    ) {
        self.errors.record(shape.routine, predicted_runtime_s, wall_ns);
    }

    /// Snapshot every service-level counter at once — the one way to ask.
    ///
    /// On a warm service, `workspace.allocations` stops moving while
    /// `workspace.bytes_reused` keeps climbing: the observable form of the
    /// zero-allocation hot path (the paper's Table VII "data copy"
    /// component with the allocator taken out of it).
    pub fn stats(&self) -> ServiceStats {
        let prediction_by_routine = self.errors.snapshot();
        ServiceStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            plan_downgrades: self.plan_downgrades.load(Ordering::Relaxed),
            prediction: fold(&prediction_by_routine),
            prediction_by_routine,
            cache: self.cache.stats(),
            pool: self.pool.stats(),
            workspace: self.pool.workspace().arena_stats(),
            algorithms: AlgorithmMix {
                blocked: self.algo_executed[0].load(Ordering::Relaxed),
                strassen: self.algo_executed[1].load(Ordering::Relaxed),
                zorder: self.algo_executed[2].load(Ordering::Relaxed),
            },
            panics_recovered: self.panics_recovered.load(Ordering::Relaxed),
            degraded_retries: self.degraded_retries.load(Ordering::Relaxed),
            execution_failures: self.execution_failures.load(Ordering::Relaxed),
            deadline_misses: self.deadline_misses.load(Ordering::Relaxed),
            share_capped: self.share_capped.load(Ordering::Relaxed),
        }
    }

    /// Forget all memoised decisions (e.g. after a machine change). The
    /// counters and the evaluation count are preserved.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }
}

/// An op's place in [`AdsalaService`]'s in-flight count, handed back on
/// drop — on every exit path, an unwinding one included.
struct InFlight<'s>(&'s AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Log-ratios are clamped to ±32 nats (a factor of ~8·10¹³) so a single
/// absurd prediction cannot swamp the sums.
const LOG_CLAMP: f64 = 32.0;

/// One routine's running sums of `ln(measured / predicted)`. Log space is
/// the natural domain: the models are trained on `ln(runtime)` labels, and
/// a symmetric ±x% miss contributes equally in either direction.
#[derive(Debug, Clone, Copy, Default)]
struct ErrorSums {
    samples: u64,
    /// Σ |ln(measured / predicted)|.
    sum_abs_log: f64,
    /// Σ ln(measured / predicted) — positive means the model is
    /// optimistic (reality slower than predicted).
    sum_log: f64,
    /// Ops where measured > predicted.
    overshoots: u64,
}

/// Per-routine prediction-error sums, in [`Routine::ALL`] order, each
/// behind a short lock that only [`AdsalaService::observe`] and the
/// stats snapshot take.
#[derive(Debug, Default)]
struct PredictionErrors([Mutex<ErrorSums>; 3]);

impl PredictionErrors {
    /// Add one executed op. Pairs without a prediction or a measurement
    /// are ignored (they say nothing about model quality).
    fn record(&self, routine: Routine, predicted_s: f64, wall_ns: u64) {
        if !predicted_s.is_finite() || predicted_s <= 0.0 || wall_ns == 0 {
            return;
        }
        let log_ratio = (wall_ns as f64 * 1e-9 / predicted_s).ln().clamp(-LOG_CLAMP, LOG_CLAMP);
        let slot = match routine {
            Routine::Gemm => 0,
            Routine::Syrk => 1,
            Routine::Gemv => 2,
        };
        let mut sums = self.0[slot].lock();
        sums.samples += 1;
        sums.sum_abs_log += log_ratio.abs();
        sums.sum_log += log_ratio;
        sums.overshoots += u64::from(log_ratio > 0.0);
    }

    /// Each routine's sums as means.
    fn snapshot(&self) -> [PredictionErrorStats; 3] {
        std::array::from_fn(|i| {
            let s = *self.0[i].lock();
            let denom = s.samples.max(1) as f64;
            PredictionErrorStats {
                samples: s.samples,
                mean_abs_log_error: s.sum_abs_log / denom,
                mean_log_ratio: s.sum_log / denom,
                overshoot_fraction: s.overshoots as f64 / denom,
            }
        })
    }
}

/// The error over every routine: the sample-weighted fold of the rows.
fn fold(rows: &[PredictionErrorStats; 3]) -> PredictionErrorStats {
    let mut all = PredictionErrorStats::default();
    for row in rows {
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

/// Normalise a thread cap into the memo key space of `bundle`'s grid:
/// caps at or above its largest candidate are equivalent to "no cap" (the
/// sweep is identical), so they share one entry per shape.
fn normalised_cap(bundle: &ArtifactBundle, cap: u32) -> u32 {
    cap.clamp(1, bundle.max_candidate_threads())
}

/// An op's share of a `workers`-wide pool while `in_flight` ops hold it
/// (itself included), rounded down onto the thread axis `rungs`: the
/// largest rung at most `max(1, workers / in_flight)`, or 1 when no rung
/// is that small.
fn pool_share(rungs: &[u32], workers: usize, in_flight: usize) -> u32 {
    let fair = (workers / in_flight).max(1);
    rungs.iter().copied().filter(|&t| t as usize <= fair).max().unwrap_or(1)
}

/// Render a caught panic payload as a message for
/// [`AdsalaError::Execution`] details.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A model prediction in seconds as integer nanoseconds for
/// [`OpStats::predicted_ns`] (0 for absent/absurd predictions).
fn predicted_ns(predicted_runtime_s: f64) -> u64 {
    if predicted_runtime_s > 0.0 && predicted_runtime_s.is_finite() {
        (predicted_runtime_s * 1e9).round().max(0.0) as u64
    } else {
        0
    }
}

// The whole point of the service layer: shareable across client threads.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<AdsalaService>();

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::tests::quick_bundle;
    use adsala_gemm::dispatch::{GemmArgs, GemvArgs, Precision, SyrkArgs};

    /// The uncapped f32-GEMM decision for `(m, k, n)`.
    fn decide(svc: &AdsalaService, m: u64, k: u64, n: u64) -> PlanDecision {
        svc.select_for_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX)
    }

    fn service() -> AdsalaService {
        AdsalaService::with_config(quick_bundle().into_shared(), ServiceConfig { pool_workers: 4 })
    }

    #[test]
    fn decisions_memoise_across_calls() {
        let svc = service();
        let first = decide(&svc, 128, 512, 128);
        let second = decide(&svc, 128, 512, 128);
        assert!(!first.memoised);
        assert!(second.memoised);
        assert_eq!(first.threads(), second.threads());
        assert_eq!(svc.stats().evaluations, 1, "memo hit must not re-sweep");
        let stats = svc.stats().cache;
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn sgemm_runs_on_pool_and_is_correct() {
        let svc = service();
        let (m, k, n) = (33usize, 17usize, 29usize);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 5) as f32 * 0.5).collect();
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (decision, stats) = svc.run_with(&mut req, RunOptions::with_host_cap(4)).unwrap();
        assert!(svc.candidates().contains(&decision.threads()));
        assert_eq!(stats.routine, Routine::Gemm);
        assert_eq!(stats.precision, Precision::F32);
        assert!(stats.exec.threads_used >= 1 && stats.exec.threads_used <= 4);
        let mut c_ref = vec![0.0f32; m * n];
        adsala_gemm::naive::naive_gemm(
            adsala_gemm::Transpose::No,
            adsala_gemm::Transpose::No,
            m,
            n,
            k,
            1.0f32,
            &a,
            k,
            &b,
            n,
            0.0,
            &mut c_ref,
            n,
        );
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }

    #[test]
    fn run_serves_every_routine_and_precision() {
        let svc = service();
        let (m, n, k) = (24usize, 20usize, 16usize);

        let a64: Vec<f64> = (0..m * k).map(|i| (i % 9) as f64 - 4.0).collect();
        let b64: Vec<f64> = (0..k * n).map(|i| (i % 5) as f64 * 0.5).collect();
        let mut c64 = vec![0.0f64; m * n];
        let mut req: OpRequest<'_, f64> =
            GemmArgs::untransposed(m, n, k, 1.0, &a64, k, &b64, n, 0.0, &mut c64, n).into();
        let (_, stats) = svc.run(&mut req).unwrap();
        assert_eq!((stats.routine, stats.precision), (Routine::Gemm, Precision::F64));

        let mut csy = vec![0.0f64; m * m];
        let mut req: OpRequest<'_, f64> =
            SyrkArgs { m, k, alpha: 1.0, a: &a64, lda: k, beta: 0.0, c: &mut csy, ldc: m }.into();
        let (d, stats) = svc.run(&mut req).unwrap();
        assert_eq!(stats.routine, Routine::Syrk);
        assert!(svc.candidates().contains(&d.threads()));

        let x32: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let a32: Vec<f32> = (0..m * n).map(|i| (i % 3) as f32).collect();
        let mut y32 = vec![0.0f32; m];
        let mut req: OpRequest<'_, f32> =
            GemvArgs { m, n, alpha: 1.0, a: &a32, lda: n, x: &x32, beta: 0.0, y: &mut y32 }.into();
        let (_, stats) = svc.run(&mut req).unwrap();
        assert_eq!((stats.routine, stats.precision), (Routine::Gemv, Precision::F32));

        // Three distinct (routine, precision, shape) keys were decided.
        assert_eq!(svc.stats().cache.entries, 3);
    }

    #[test]
    fn run_rejects_undersized_operands() {
        let svc = service();
        let a = vec![0.0f32; 5]; // needs 12 for 4x3
        let b = vec![0.0f32; 6];
        let mut c = vec![9.0f32; 8];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(4, 2, 3, 1.0, &a, 3, &b, 2, 0.0, &mut c, 2).into();
        match svc.run(&mut req) {
            Err(AdsalaError::Shape(e)) => assert_eq!(e.routine, Routine::Gemm),
            other => panic!("expected shape error, got {other:?}"),
        }
        assert!(c.iter().all(|&v| v == 9.0), "output must be untouched");
        assert_eq!(svc.stats().cache.lookups(), 0, "invalid requests must not touch the memo");
    }

    #[test]
    fn host_cap_clamps_executed_threads() {
        let svc = service();
        let (m, n, k) = (512usize, 512usize, 32usize);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (_, stats) = svc.run_with(&mut req, RunOptions::with_host_cap(2)).unwrap();
        assert!(stats.exec.threads_used <= 2, "{stats:?}");
    }

    #[test]
    fn pool_share_rounds_down_onto_the_ladder() {
        let rungs = [1, 2, 4, 8];
        assert_eq!(pool_share(&rungs, 8, 2), 4);
        assert_eq!(pool_share(&rungs, 8, 3), 2);
        assert_eq!(pool_share(&rungs, 6, 2), 2, "3 workers each is not a rung");
        assert_eq!(pool_share(&rungs, 2, 2), 1);
        assert_eq!(pool_share(&rungs, 2, 5), 1, "at least one worker each");
        assert_eq!(pool_share(&[2, 4], 2, 2), 1, "no rung that small");
    }

    #[test]
    fn algorithm_mix_counts_what_actually_ran() {
        let svc = service();
        let (m, n, k) = (32usize, 32usize, 32usize);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];

        // A model-decided run lands in the blocked bucket (the quick
        // bundle's grid has no algorithm axis).
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        svc.run(&mut req).unwrap();
        assert_eq!(svc.stats().algorithms, AlgorithmMix { blocked: 1, strassen: 0, zorder: 0 });

        // A pinned Z-order plan is honoured and tallied as such.
        let zorder =
            ExecutionPlan { algorithm: Algorithm::ZOrder, ..ExecutionPlan::with_threads(1) };
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let stats = svc.run_pinned(&mut req, &zorder).unwrap();
        assert_eq!(stats.exec.algorithm, Algorithm::ZOrder);
        assert!(!stats.plan_degraded);

        // A Strassen plan on an ineligible (tiny) shape degrades to the
        // blocked driver: the mix records the executed algorithm and the
        // downgrade counter records the refusal.
        let downgrades_before = svc.stats().plan_downgrades;
        let strassen = ExecutionPlan {
            algorithm: Algorithm::Strassen { cutoff: 64 },
            ..ExecutionPlan::with_threads(1)
        };
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let stats = svc.run_pinned(&mut req, &strassen).unwrap();
        assert_eq!(stats.exec.algorithm, Algorithm::Blocked);
        assert!(stats.plan_degraded);

        let snapshot = svc.stats();
        assert_eq!(snapshot.algorithms, AlgorithmMix { blocked: 2, strassen: 0, zorder: 1 });
        assert_eq!(snapshot.plan_downgrades, downgrades_before + 1);
    }

    #[test]
    fn host_cap_bounds_the_sweep_not_just_execution() {
        // Regression: the cap used to be applied *after* the uncapped
        // argmin, so a capped call executed `cap` threads while reporting
        // the uncapped winner's (plan, prediction). The cap must bound
        // the candidate sweep itself, including off-ladder caps that sit
        // between grid points.
        let svc = service();
        let shape = OpShape::gemm(Precision::F32, 512, 64, 512);
        let capped = svc.select_for_capped(shape, 3);
        assert!(capped.threads() <= 3, "{capped:?}");
        let direct = svc.bundle().decide_op_capped(shape, 3);
        assert_eq!(capped.plan, direct.plan, "service must serve the capped sweep's argmin");
        assert_eq!(
            capped.predicted_runtime_s, direct.predicted_runtime_s,
            "prediction must describe the executed configuration"
        );

        // Capped and uncapped decisions are distinct memo entries.
        let uncapped = svc.select_for_capped(shape, u32::MAX);
        assert_eq!(svc.stats().evaluations, 2, "distinct caps must sweep separately");
        assert_eq!(svc.stats().cache.entries, 2);
        assert!(uncapped.threads() >= capped.threads());

        // A cap at/above the grid's maximum is "no cap" and shares the
        // uncapped entry instead of re-sweeping.
        let wide = svc.select_for_capped(shape, u32::MAX - 1);
        assert!(wide.memoised);
        assert_eq!(wide.plan, uncapped.plan);
        assert_eq!(svc.stats().evaluations, 2);

        // And the executed plan is the capped decision, not a clamp.
        let (m, n, k) = (512usize, 512usize, 64usize);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (decision, stats) = svc.run_with(&mut req, RunOptions::with_host_cap(3)).unwrap();
        assert_eq!(decision.plan, capped.plan);
        assert!(stats.exec.threads_used <= 3, "{stats:?}");
    }

    #[test]
    fn run_stamps_prediction_and_feeds_the_meter() {
        let svc = service();
        let (m, n, k) = (64usize, 64usize, 64usize);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let mut req: OpRequest<'_, f32> =
            GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
        let (decision, stats) = svc.run(&mut req).unwrap();
        assert!(decision.predicted_runtime_s > 0.0);
        assert_eq!(stats.predicted_ns, (decision.predicted_runtime_s * 1e9).round() as u64);
        assert!(stats.prediction_log_error().is_some());
        let s = svc.stats();
        assert_eq!(s.prediction.samples, 1);
        assert_eq!(s.prediction_by_routine[0].samples, 1);
    }

    #[test]
    fn observed_gemm_traffic_fills_only_the_gemm_row() {
        let svc = service();
        let shapes: Vec<OpShape> = (0..8u64)
            .map(|i| {
                OpShape::gemm(Precision::F32, 32 + 16 * (i % 4), 64 + 64 * (i % 3), 32 + 8 * i)
            })
            .collect();
        // Healthy traffic: each op runs within ±2 % of its prediction.
        for round in 0..8u64 {
            for (j, &shape) in shapes.iter().enumerate() {
                let d = svc.select_for_capped(shape, 1);
                let factor = 1.0 + 0.02 * (((round + j as u64) % 5) as f64 - 2.0) / 2.0;
                let wall_ns = (d.predicted_runtime_s * factor * 1e9).round() as u64;
                svc.observe(shape, &d.plan, d.predicted_runtime_s, wall_ns);
            }
        }
        let s = svc.stats();
        let [gemm, syrk, gemv] = s.prediction_by_routine;
        assert_eq!(gemm.samples, 8 * shapes.len() as u64);
        assert!(gemm.mean_abs_log_error > 0.0 && gemm.mean_abs_log_error < 0.1, "{gemm:?}");
        assert_eq!((syrk.samples, gemv.samples), (0, 0));
        assert_eq!(s.prediction, gemm, "one routine's row is the whole fold");
    }

    #[test]
    fn a_first_run_with_decision_is_the_models_and_memoises_on_repeat() {
        let svc = service();
        let (m, n, k) = (96usize, 48usize, 32usize);
        let a = vec![1.0f32; m * k];
        let b = vec![1.0f32; k * n];
        let mut c = vec![0.0f32; m * n];
        let mut serve = || {
            let mut req: OpRequest<'_, f32> =
                GemmArgs::untransposed(m, n, k, 1.0, &a, k, &b, n, 0.0, &mut c, n).into();
            svc.run_with(&mut req, RunOptions::with_host_cap(1)).unwrap().0
        };
        let first = serve();
        let again = serve();
        assert!(!first.memoised, "this shape's first model decision is a sweep");
        let shape = OpShape::gemm(Precision::F32, m as u64, k as u64, n as u64);
        assert_eq!(first, svc.bundle().decide_op_capped(shape, 1), "the model's own decision");
        assert!(again.memoised);
        assert_eq!(again.plan, first.plan);
        assert!(c.iter().all(|&v| v == k as f32));
        assert_eq!(svc.stats().prediction_by_routine[0].samples, 2);
    }

    #[test]
    fn prediction_meter_tracks_log_error() {
        let errors = PredictionErrors::default();
        // Perfect prediction: 1 ms predicted, 1 ms measured.
        errors.record(Routine::Gemm, 1e-3, 1_000_000);
        // 2× slower than predicted (model optimistic / overshoot).
        errors.record(Routine::Gemm, 1e-3, 2_000_000);
        // 2× faster than predicted.
        errors.record(Routine::Gemm, 2e-3, 1_000_000);
        let s = fold(&errors.snapshot());
        assert_eq!(s.samples, 3);
        let ln2 = std::f64::consts::LN_2;
        assert!((s.mean_abs_log_error - 2.0 * ln2 / 3.0).abs() < 1e-4, "{s:?}");
        assert!(s.mean_log_ratio.abs() < 1e-4, "{s:?}");
        assert!((s.overshoot_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!(s.mean_abs_pct() > 0.0);
    }

    #[test]
    fn prediction_meter_ignores_unpredicted_ops() {
        let errors = PredictionErrors::default();
        errors.record(Routine::Gemm, 0.0, 1_000_000);
        errors.record(Routine::Gemm, -1.0, 1_000_000);
        errors.record(Routine::Gemm, 1e-3, 0);
        assert_eq!(fold(&errors.snapshot()).samples, 0);
    }

    #[test]
    fn unpredicted_ops_leave_every_routine_row_empty() {
        let errors = PredictionErrors::default();
        for _ in 0..100 {
            for routine in Routine::ALL {
                errors.record(routine, 0.0, 5_000_000);
                errors.record(routine, -1.0, 5_000_000);
                errors.record(routine, f64::NAN, 5_000_000);
                errors.record(routine, 1e-3, 0);
            }
        }
        assert_eq!(errors.snapshot(), [PredictionErrorStats::default(); 3]);
    }

    #[test]
    fn global_error_is_the_fold_of_the_routine_rows() {
        let errors = PredictionErrors::default();
        for i in 0..5u64 {
            errors.record(Routine::Syrk, 1e-3, 1_500_000 + 100_000 * i);
        }
        let syrk_only = errors.snapshot();
        assert_eq!(syrk_only[0], PredictionErrorStats::default());
        assert_eq!(fold(&syrk_only), syrk_only[1]);

        for i in 0..3u64 {
            errors.record(Routine::Gemm, 2e-3, 1_000_000 + 300_000 * i);
            errors.record(Routine::Gemv, 1e-4, 50_000 + 10_000 * i);
        }
        let rows = errors.snapshot();
        assert_eq!(rows[1], syrk_only[1]);
        let all = fold(&rows);
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
    fn clear_cache_forces_reevaluation() {
        let svc = service();
        decide(&svc, 100, 100, 100);
        svc.clear_cache();
        let d = decide(&svc, 100, 100, 100);
        assert!(!d.memoised);
        assert_eq!(svc.stats().evaluations, 2);
    }

    #[test]
    fn shared_bundle_feeds_many_services() {
        let bundle = quick_bundle().into_shared();
        let a = AdsalaService::with_config(Arc::clone(&bundle), ServiceConfig { pool_workers: 1 });
        let b = AdsalaService::with_config(bundle, ServiceConfig { pool_workers: 1 });
        assert_eq!(decide(&a, 64, 2048, 64).threads(), decide(&b, 64, 2048, 64).threads());
    }
}
