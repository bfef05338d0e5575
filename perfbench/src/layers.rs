//! The adapter: every call from the benchmark into the library is in this
//! file, so a later change to the library's public surface (ROADMAP item
//! 2 plans to collapse it) touches the benchmark here and nowhere else.
//!
//! Entry points used: `Installation::run` (plus `TrainingData::gather` and
//! `fit_preprocess` for the install stage split), `AdsalaService::{
//! with_config, run, run_pinned, select_for_capped, clear_cache, observe,
//! stats}`, `ServiceScheduler::{with_config, submit, stats}`,
//! `ArtifactBundle::decide_op_capped`, the model's `predict_row` on a
//! `features_for_op_plan` row, `estimate_speedups`, `DecisionCache::{new,
//! get, insert}`, `OpRequest::validate`, `gemm_with_stats{,_pooled}`,
//! `pack_a`/`pack_b` over `MatView::row_major`, `Kernel::{dispatched,
//! for_isa, run}`, `ThreadPool::{new, scope_execute}`, `naive_gemm`,
//! `syrk_with_stats`, `gemv_with_stats`, `SimTimer::time_plan`,
//! `DomainSampler::sample`, `KernelIsa::dispatched`, `CacheInfo::detected`.
//! None of what ROADMAP item 2 plans to delete (`AdsalaGemm`,
//! `gemm_with_stats_pooled_unshared`, `service.sgemm/dgemm`,
//! `select_threads`, the single-counter getters) is used.

use std::sync::Arc;
use std::time::Instant;

use adsala::cache::DEFAULT_CACHE_CAPACITY;
use adsala::gather::{GatherConfig, TrainingData};
use adsala::install::{InstallConfig, Installation};
use adsala::preprocess::fit_preprocess;
use adsala::select::estimate_speedups;
use adsala::service::ServiceConfig;
use adsala::{
    AdsalaService, ArtifactBundle, DecisionCache, GemmArgs, GemvArgs, OpShape, PlanDecision,
    SchedulerConfig, ServiceScheduler, SyrkArgs,
};
use adsala_gemm::pack::{pack_a, pack_b, MatView};
use adsala_gemm::plan::{Algorithm, PlanGrid};
use adsala_gemm::{
    gemm_with_stats, gemm_with_stats_pooled, gemv_with_stats, naive::naive_gemm, syrk_with_stats,
    CacheInfo, Element, GemmCall, Kernel, KernelIsa, ThreadPool, Transpose,
};
use adsala_machine::{GemmTimer, MachineModel, SimTimer};
use adsala_ml::tune::ModelSpec;
use adsala_ml::{ModelKind, Regressor};
use adsala_sampling::{DomainSampler, GemmShape, MemoryCap};

pub use adsala::{OpRequest, OpStats, Precision, Routine, SchedulerStats, ServiceStats};
pub use adsala_gemm::{ExecutionPlan, GemmStats, ThreadPool as Pool};

use crate::workloads::{Fnv, Spec};

/// Element types the benchmark generates operands for.
pub trait Scalar: Element + Into<f64> {
    /// Unit roundoff of the type, as an `f64`.
    const EPS: f64;
    fn from_f64(v: f64) -> Self;
}

impl Scalar for f32 {
    const EPS: f64 = f32::EPSILON as f64;
    fn from_f64(v: f64) -> Self {
        v as f32
    }
}

impl Scalar for f64 {
    const EPS: f64 = f64::EPSILON;
    fn from_f64(v: f64) -> Self {
        v
    }
}

// ---------------------------------------------------------------- install

/// The label every decision-dependent metric carries.
pub const DECISION_SOURCE: &str = "sim:gadi";

/// Thread rungs of the pinned candidate grid.
const GRID_THREADS: [u32; 3] = [1, 2, 4];
const STRASSEN_CUTOFF: u32 = 384;

fn sim_timer() -> SimTimer {
    SimTimer::new(MachineModel::gadi())
}

/// The pinned simulator install: one family, one hyper-parameter point,
/// fixed seeds. A host install is deliberately not used: its timings, and
/// so its decisions, differ from run to run. Sized so set-up takes about a
/// second; the shape domain is capped at the largest dimension any
/// workload issues.
fn install_config(smoke: bool) -> InstallConfig {
    let (n_shapes, n_rounds) = if smoke { (30, 8) } else { (60, 60) };
    InstallConfig {
        gather: GatherConfig {
            n_shapes,
            reps: 2,
            max_dim: Some(4608),
            grid: Some(PlanGrid::widened(GRID_THREADS.to_vec(), STRASSEN_CUTOFF)),
            seed: 0x2023_0012,
            ..GatherConfig::paper()
        },
        families: vec![ModelKind::XgBoost],
        grids: vec![(
            ModelKind::XgBoost,
            vec![ModelSpec::XgBoost { n_rounds, max_depth: 4, eta: 0.15, lambda: 1.0 }],
        )],
        folds: 2,
        test_fraction: 0.3,
        speedup_reps: 1,
        max_speedup_shapes: 8,
        eval_scale: 1.0,
        seed: 0xADA_0012,
    }
}

/// What set-up keeps of an install.
pub struct Installed {
    pub bundle: Arc<ArtifactBundle>,
    /// Shapes the install held out of training (the Table V protocol).
    pub test_shapes: Vec<GemmShape>,
    /// FNV-1a of the artefact JSON: equal across processes iff the
    /// decision source is the same.
    pub artifact_hash: u64,
}

pub fn install(smoke: bool) -> Installed {
    let install = Installation::run(&sim_timer(), &install_config(smoke))
        .expect("the pinned simulator install has enough rows to train on");
    let test_shapes = install.test_shapes.clone();
    let mut hash = Fnv::default();
    let json = install.to_artifact().to_json().expect("a fitted model serialises");
    for chunk in json.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash.write(u64::from_le_bytes(word));
    }
    Installed { bundle: install.into_bundle().into_shared(), test_shapes, artifact_hash: hash.0 }
}

/// Seconds the install's first two stages take on their own (the third,
/// training, is the rest of `Installation::run`).
pub fn install_stage_seconds(smoke: bool) -> (f64, f64) {
    let cfg = install_config(smoke);
    let t = Instant::now();
    let data = TrainingData::gather(&sim_timer(), &cfg.gather);
    let gather_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fitted = fit_preprocess(&data).expect("the pinned gather preprocesses");
    let preprocess_s = t.elapsed().as_secs_f64();
    std::hint::black_box(fitted);
    (gather_s, preprocess_s)
}

// ------------------------------------------------------------ the stack

/// Pool workers of the service under test: the host's cores, at most the
/// widest thread rung.
pub fn pool_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(4)
}

/// The serving stack under test.
pub struct Stack {
    pub service: Arc<AdsalaService>,
    pub scheduler: ServiceScheduler,
}

impl Stack {
    pub fn new(bundle: Arc<ArtifactBundle>) -> Self {
        let cfg = ServiceConfig { pool_workers: pool_workers(), ..ServiceConfig::default() };
        let service = Arc::new(AdsalaService::with_config(bundle, cfg));
        let scheduler =
            ServiceScheduler::with_config(Arc::clone(&service), SchedulerConfig::default());
        Stack { service, scheduler }
    }

    pub fn clear_cache(&self) {
        self.service.clear_cache();
    }

    pub fn service_stats(&self) -> ServiceStats {
        self.service.stats()
    }

    pub fn scheduler_stats(&self) -> SchedulerStats {
        self.scheduler.stats()
    }
}

/// What one served request came back with, whichever rung served it.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub plan: ExecutionPlan,
    pub stats: OpStats,
    pub fused: bool,
}

impl Served {
    pub fn nonblocked(&self) -> bool {
        self.plan.algorithm != Algorithm::Blocked
    }
}

fn transpose(t: bool) -> Transpose {
    if t {
        Transpose::Yes
    } else {
        Transpose::No
    }
}

/// Build the library request for `spec` over its operand slices.
pub fn request<'a, T: Scalar>(
    spec: &Spec,
    a: &'a [T],
    b: &'a [T],
    c: &'a mut [T],
) -> OpRequest<'a, T> {
    let (alpha, beta) = (T::ONE, T::from_f64(spec.beta));
    let lda = spec.ld(spec.a_dims().1);
    match spec.routine {
        Routine::Gemm => GemmArgs {
            trans_a: transpose(spec.trans_a),
            trans_b: transpose(spec.trans_b),
            m: spec.m,
            n: spec.n,
            k: spec.k,
            alpha,
            a,
            lda,
            b,
            ldb: spec.ld(spec.b_dims().1),
            beta,
            c,
            ldc: spec.ld(spec.n),
        }
        .into(),
        Routine::Syrk => {
            SyrkArgs { m: spec.m, k: spec.k, alpha, a, lda, beta, c, ldc: spec.ld(spec.m) }.into()
        }
        Routine::Gemv => GemvArgs { m: spec.m, n: spec.n, alpha, a, lda, x: b, beta, y: c }.into(),
    }
}

/// `scheduler.submit`: admission, wave planning, fusion, execution.
pub fn submit<T: Scalar>(stack: &Stack, req: &mut OpRequest<'_, T>) -> Result<Served, String> {
    stack
        .scheduler
        .submit(req)
        .map(|r| Served { plan: r.plan, stats: r.stats, fused: r.fused })
        .map_err(|e| e.to_string())
}

/// `service.run`: validate, decide (cache or sweep), execute, observe.
pub fn run<T: Scalar>(stack: &Stack, req: &mut OpRequest<'_, T>) -> Result<Served, String> {
    stack
        .service
        .run(req)
        .map(|(d, stats)| Served { plan: d.plan, stats, fused: false })
        .map_err(|e| e.to_string())
}

/// `service.run_pinned`: validate and execute under a given plan.
pub fn run_pinned<T: Scalar>(
    stack: &Stack,
    req: &mut OpRequest<'_, T>,
    plan: &ExecutionPlan,
) -> Result<OpStats, String> {
    stack.service.run_pinned(req, plan).map_err(|e| e.to_string())
}

/// `OpRequest::validate` alone.
pub fn validate<T: Scalar>(req: &OpRequest<'_, T>) -> bool {
    req.validate().is_ok()
}

/// The service's decision for a request's shape: a cache hit, or a sweep
/// and an insert.
pub fn decide<T: Scalar>(stack: &Stack, req: &OpRequest<'_, T>) -> PlanDecision {
    stack.service.select_for_capped(req.shape(), u32::MAX)
}

/// The blocked/Strassen/Z-order driver on a pool, under `plan`, with no
/// service around it. `None` for routines that have no such rung.
pub fn raw_pooled<T: Scalar>(
    pool: &ThreadPool,
    spec: &Spec,
    plan: &ExecutionPlan,
    a: &[T],
    b: &[T],
    c: &mut [T],
) -> Option<GemmStats> {
    (spec.routine == Routine::Gemm).then(|| {
        let call = GemmCall {
            trans_a: transpose(spec.trans_a),
            trans_b: transpose(spec.trans_b),
            ..GemmCall::new(spec.m, spec.n, spec.k, 1)
        }
        .with_plan(*plan);
        gemm_with_stats_pooled(
            pool,
            &call,
            T::ONE,
            a,
            spec.ld(spec.a_dims().1),
            b,
            spec.ld(spec.b_dims().1),
            T::from_f64(spec.beta),
            c,
            spec.ld(spec.n),
        )
    })
}

pub fn new_pool(workers: usize) -> ThreadPool {
    ThreadPool::new(workers)
}

// ------------------------------------------------- single-layer probes

/// An uncached model sweep over the whole candidate grid: the paper's
/// `t_eval`.
pub fn sweep(bundle: &ArtifactBundle, m: u64, k: u64, n: u64) -> PlanDecision {
    bundle.decide_op_capped(OpShape::gemm(Precision::F32, m, k, n), u32::MAX)
}

pub fn grid_points(bundle: &ArtifactBundle) -> usize {
    bundle.grid.len()
}

/// Model-ready feature rows of one shape, one per grid point: what a
/// sweep hands to [`predict_row`].
pub fn feature_rows(bundle: &ArtifactBundle, m: u64, k: u64, n: u64) -> Vec<Vec<f64>> {
    let shape = OpShape::gemm(Precision::F32, m, k, n);
    bundle
        .grid
        .points()
        .map(|p| bundle.config.features_for_op_plan(&shape, &p, bundle.grid.feature_rev))
        .collect()
}

/// The GEMM model's evaluation of one feature row.
pub fn predict_row(bundle: &ArtifactBundle, row: &[f64]) -> f64 {
    bundle.models.for_routine(Routine::Gemm).predict_row(row)
}

/// The paper's Table V protocol on the simulator: mean over held-out
/// shapes of `t_all_threads / (t_chosen + t_eval)` with the measured
/// `t_eval`.
pub fn sim_speedup_mean(installed: &Installed, t_eval_s: f64) -> f64 {
    let b = &installed.bundle;
    let model = b.models.for_routine(Routine::Gemm);
    estimate_speedups(model, &b.config, &b.grid, &installed.test_shapes, &sim_timer(), t_eval_s, 1)
        .est_mean
}

/// One simulator timing query, as the install's gather stage issues them.
pub fn sim_time_query(bundle: &ArtifactBundle, i: u64) -> f64 {
    let point = bundle.grid.points().next().expect("grids are never empty");
    sim_timer().time_plan(GemmShape::new(64 + i % 64, 96, 128), &point, 1)
}

/// `count` shapes from the install's quasi-random domain sampler.
pub fn sample_domain(count: usize) -> usize {
    DomainSampler::new(MemoryCap::paper_training(), adsala_sampling::Precision::F32, 0x2023_0012)
        .sample(count)
        .len()
}

/// A decision cache of the service's default geometry, keyed like the
/// service keys its own.
pub struct ProbeCache(DecisionCache<(OpShape, u32)>);

impl ProbeCache {
    pub const CAPACITY: usize = DEFAULT_CACHE_CAPACITY;

    pub fn new() -> Self {
        ProbeCache(DecisionCache::new(16, Self::CAPACITY))
    }

    fn key(i: u64) -> (OpShape, u32) {
        (OpShape::gemm(Precision::F32, 8 + i % 4096, 8 + i / 4096, 64), 4)
    }

    pub fn get(&self, i: u64) -> bool {
        self.0.get(Self::key(i)).is_some()
    }

    pub fn insert(&self, i: u64, decision: PlanDecision) {
        self.0.insert(Self::key(i), decision);
    }
}

/// `service.observe` on a service of its own, so that made-up
/// observations never reach the drift detector of the stack under test.
pub struct ObserveProbe {
    service: AdsalaService,
    shape: OpShape,
    decision: PlanDecision,
}

impl ObserveProbe {
    pub fn new(bundle: Arc<ArtifactBundle>) -> Self {
        let shape = OpShape::gemm(Precision::F32, 128, 128, 128);
        let decision = bundle.decide_op_capped(shape, u32::MAX);
        let cfg = ServiceConfig { pool_workers: 1, ..ServiceConfig::default() };
        ObserveProbe { service: AdsalaService::with_config(bundle, cfg), shape, decision }
    }

    pub fn observe(&self, wall_ns: u64) {
        self.service.observe(
            self.shape,
            &self.decision.plan,
            self.decision.predicted_runtime_s,
            wall_ns,
        );
    }
}

/// `scope_execute` of one empty task per worker.
pub fn pool_dispatch(pool: &ThreadPool, workers: usize) {
    let tasks: Vec<Box<dyn FnOnce() + Send>> =
        (0..workers).map(|_| Box::new(|| {}) as Box<dyn FnOnce() + Send>).collect();
    pool.scope_execute(tasks);
}

/// Which algorithm a ladder rung runs.
#[derive(Debug, Clone, Copy)]
pub enum Algo {
    Blocked,
    Strassen,
    ZOrder,
}

/// One single-threaded `gemm_with_stats` call (`beta = 0`, no transposes,
/// the dispatched kernel) at leading dimensions `ld`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_serial<T: Scalar>(
    algo: Algo,
    m: usize,
    n: usize,
    k: usize,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    c: &mut [T],
    ldc: usize,
) -> GemmStats {
    let algorithm = match algo {
        Algo::Blocked => Algorithm::Blocked,
        Algo::Strassen => Algorithm::Strassen { cutoff: STRASSEN_CUTOFF },
        Algo::ZOrder => Algorithm::ZOrder,
    };
    let call = GemmCall::new(m, n, k, 1)
        .with_plan(ExecutionPlan::with_threads(1).with_algorithm(algorithm));
    gemm_with_stats(&call, T::ONE, a, lda, b, ldb, T::ZERO, c, ldc)
}

/// `gemm_with_stats_pooled` of a dense square at `threads`.
pub fn gemm_pooled_square(
    pool: &ThreadPool,
    n: usize,
    threads: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) -> GemmStats {
    gemm_with_stats_pooled(pool, &GemmCall::new(n, n, n, threads), 1.0, a, n, b, n, 0.0, c, n)
}

/// The textbook triple loop: the zero rung of the ladder.
pub fn gemm_naive(n: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    naive_gemm(Transpose::No, Transpose::No, n, n, n, 1.0, a, n, b, n, 0.0, c, n);
}

pub fn syrk_serial(m: usize, k: usize, a: &[f32], c: &mut [f32]) -> GemmStats {
    syrk_with_stats(m, k, 1.0, a, k, 0.0, c, m, 1)
}

pub fn gemv_serial(m: usize, n: usize, a: &[f32], x: &[f32], y: &mut [f32]) -> GemmStats {
    gemv_with_stats(m, n, 1.0, a, n, x, 0.0, y, 1)
}

/// Pack a dense `rows×cols` block as an `A` block; returns bytes written.
pub fn pack_a_block(src: &[f32], rows: usize, cols: usize, buf: &mut [f32]) -> u64 {
    let mr = Kernel::<f32>::dispatched().mr;
    pack_a(&MatView::row_major(src, rows, cols, cols), mr, buf)
}

/// Pack a dense `rows×cols` block as a `B` block; returns bytes written.
pub fn pack_b_block(src: &[f32], rows: usize, cols: usize, buf: &mut [f32]) -> u64 {
    let nr = Kernel::<f32>::dispatched().nr;
    pack_b(&MatView::row_major(src, rows, cols, cols), nr, buf)
}

/// Elements a packed block of `rows×cols` needs when the tiled side is
/// rounded up to the dispatched register tile.
pub fn packed_len(rows: usize, cols: usize) -> usize {
    let k = Kernel::<f32>::dispatched();
    rows.next_multiple_of(k.mr) * cols.next_multiple_of(k.nr)
}

/// A micro-kernel and packed panels for it that stay in L1.
pub struct MicroProbe<T: Scalar> {
    kernel: Kernel<T>,
    kc: usize,
    a_panel: Vec<T>,
    b_panel: Vec<T>,
    tile: Vec<T>,
}

impl<T: Scalar> MicroProbe<T> {
    pub const KC: usize = 256;

    /// The dispatched kernel, or the scalar one.
    pub fn new(scalar: bool) -> Self {
        let kernel = if scalar { Kernel::for_isa(KernelIsa::Scalar) } else { Kernel::dispatched() };
        let fill = |len: usize| (0..len).map(|i| T::from_f64((i % 7) as f64 * 0.125)).collect();
        MicroProbe {
            kernel,
            kc: Self::KC,
            a_panel: fill(Self::KC * kernel.mr),
            b_panel: fill(Self::KC * kernel.nr),
            tile: vec![T::ZERO; kernel.mr * kernel.nr],
        }
    }

    pub fn flops_per_call(&self) -> u64 {
        2 * (self.kernel.mr * self.kernel.nr * self.kc) as u64
    }

    pub fn call(&mut self) {
        let k = &self.kernel;
        // SAFETY: the panels hold kc·mr and kc·nr elements, the tile holds
        // mr·nr elements at row stride nr and nothing else accesses it,
        // the live region is the whole tile, and `dispatched`/`for_isa`
        // only hand out kernels this CPU can run.
        unsafe {
            k.run(
                self.kc,
                self.a_panel.as_ptr(),
                self.b_panel.as_ptr(),
                self.tile.as_mut_ptr(),
                k.nr,
                k.mr,
                k.nr,
                T::ONE,
                T::ZERO,
            );
        }
        std::hint::black_box(&mut self.tile);
    }
}

// ---------------------------------------------------------- fingerprint

pub fn dispatched_isa() -> String {
    KernelIsa::dispatched().as_str().to_string()
}

/// `(l1d, l2, l3)` bytes as the library detected them.
pub fn detected_caches() -> Option<(usize, usize, usize)> {
    CacheInfo::detected().map(|c| (c.l1d, c.l2, c.l3))
}
