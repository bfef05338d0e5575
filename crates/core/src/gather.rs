//! Install-time data gathering (the left half of the paper's Fig. 2).
//!
//! Shapes come from a scrambled Halton sampler under a memory cap; each
//! shape is timed at a candidate grid of execution plans — in the paper
//! just a ladder of thread counts, optionally extended with ISA, cache-
//! blocking and packing axes ([`adsala_gemm::PlanGrid`]) — each
//! configuration averaged over several repetitions. The paper runs
//! different thread counts in different program executions to avoid
//! perturbation — here that corresponds to independent noise streams per
//! `(shape, plan point)`.

use adsala_gemm::plan::{PlanGrid, PlanPoint};
use adsala_gemm::{OpShape, Routine};
use adsala_machine::GemmTimer;
use adsala_sampling::{DomainSampler, GemmShape, MemoryCap, Precision};
use serde::{Deserialize, Serialize};

/// One timed configuration: the atom of the training set. Every row
/// records the full plan point it was timed under; threads-only gathers
/// carry the default axes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GemmRecord {
    pub shape: GemmShape,
    /// The candidate plan this row was timed under.
    pub point: PlanPoint,
    /// Mean measured runtime in seconds.
    pub runtime_s: f64,
}

impl GemmRecord {
    /// The row's thread count (the point's thread axis).
    pub fn threads(&self) -> u32 {
        self.point.threads
    }
}

/// The thread counts at which each shape is timed — the two generators of
/// a grid's thread axis ([`PlanGrid::threads_only`] over `counts`).
///
/// Timing all 256 counts on a Setonix-sized node is wasteful; a geometric
/// ladder (plus the maximum) covers the response curve, and the regression
/// model interpolates between rungs at runtime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThreadLadder {
    pub counts: Vec<u32>,
}

impl ThreadLadder {
    /// Geometric-ish ladder: 1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96,
    /// 128, 192, 256 — clipped to `max`, always including `max`.
    pub fn geometric(max: u32) -> Self {
        let base = [1u32, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256];
        let mut counts: Vec<u32> = base.iter().copied().filter(|&c| c <= max).collect();
        if counts.last() != Some(&max) {
            counts.push(max);
        }
        Self { counts }
    }

    /// Every thread count from 1 to `max` (used by the exhaustive
    /// optimal-thread histograms, Figs. 1/8/9).
    pub fn full(max: u32) -> Self {
        Self { counts: (1..=max).collect() }
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// `true` if the ladder is empty.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Data-gathering configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatherConfig {
    /// Number of GEMM shapes to sample (the paper uses 1763).
    pub n_shapes: usize,
    /// Memory cap for sampled shapes.
    pub cap: MemoryCap,
    /// Operand precision.
    pub precision: Precision,
    /// Repetitions per configuration (the paper times ten iterations).
    pub reps: u32,
    /// Per-dimension upper bound override (`None` = the paper's 74 000).
    /// Used when the routine's own constraints shrink the sensible domain
    /// (e.g. SYRK's `m×m` output).
    pub max_dim: Option<u64>,
    /// Candidate plan grid; `None` = the paper's sweep, a threads-only
    /// grid over the geometric ladder up to the machine maximum.
    pub grid: Option<PlanGrid>,
    /// Halton scrambling / sampling seed.
    pub seed: u64,
}

impl GatherConfig {
    /// The paper's settings: 1763 shapes within 500 MB, ten repetitions.
    pub fn paper() -> Self {
        Self {
            n_shapes: 1763,
            cap: MemoryCap::paper_training(),
            precision: Precision::F32,
            reps: 10,
            max_dim: None,
            grid: None,
            seed: 0x2023_000A,
        }
    }

    /// A smaller configuration for quick runs and tests.
    pub fn quick() -> Self {
        Self { n_shapes: 160, reps: 3, ..Self::paper() }
    }

    /// The `n_shapes` shapes a gather for `routine` times: Halton draws
    /// projected onto the GEMM equivalents of the routine's calls
    /// ([`OpShape::project`]), the shapes serving prices them at (a SYRK
    /// row is `(m, k, m)`, a GEMV row `(m, n, 1)`). A projection over the
    /// memory cap is dropped and another drawn; GEMM draws pass through.
    pub fn sample_shapes(&self, routine: Routine) -> Vec<GemmShape> {
        let mut sampler = DomainSampler::new(self.cap, self.precision, self.seed);
        if let Some(max_dim) = self.max_dim {
            sampler = sampler.with_dim_bounds(1, max_dim);
        }
        let mut shapes = Vec::with_capacity(self.n_shapes);
        while shapes.len() < self.n_shapes {
            let s = sampler.next_shape();
            let (m, k, n) = OpShape::project(routine, (s.m, s.k, s.n));
            let shape = GemmShape::new(m, k, n);
            if shape.memory_bytes(self.precision) <= self.cap.bytes {
                shapes.push(shape);
            }
        }
        shapes
    }
}

/// The gathered training set plus its provenance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingData {
    pub records: Vec<GemmRecord>,
    pub shapes: Vec<GemmShape>,
    /// The candidate grid the records were swept over (threads-only for
    /// the paper's ladder sweep).
    pub grid: PlanGrid,
    pub machine: String,
    pub max_threads: u32,
}

impl TrainingData {
    /// Gather timings for `config` from `timer`: every sampled shape, as
    /// the GEMM equivalent of a call to the timer's routine, is timed at
    /// every point of the candidate grid.
    pub fn gather<T: GemmTimer + ?Sized>(timer: &T, config: &GatherConfig) -> TrainingData {
        let grid = config.grid.clone().unwrap_or_else(|| {
            PlanGrid::threads_only(ThreadLadder::geometric(timer.max_threads()).counts)
        });
        let shapes = config.sample_shapes(timer.routine());
        let mut records = Vec::with_capacity(shapes.len() * grid.len());
        for &shape in &shapes {
            for point in grid.points() {
                records.push(GemmRecord {
                    shape,
                    point,
                    runtime_s: timer.time_plan(shape, &point, config.reps),
                });
            }
        }
        TrainingData {
            records,
            shapes,
            grid,
            machine: timer.name(),
            max_threads: timer.max_threads(),
        }
    }

    /// The measured-optimal thread count per shape (argmin over the
    /// sweep) — the quantity histogrammed in the paper's Figs. 1 and 8.
    pub fn optimal_threads(&self) -> Vec<(GemmShape, u32)> {
        self.optimal_points().into_iter().map(|(shape, point)| (shape, point.threads)).collect()
    }

    /// The measured-optimal plan point per shape (argmin over the grid).
    pub fn optimal_points(&self) -> Vec<(GemmShape, PlanPoint)> {
        self.shapes
            .iter()
            .map(|&shape| {
                let best = self
                    .records
                    .iter()
                    .filter(|r| r.shape == shape)
                    .min_by(|a, b| a.runtime_s.partial_cmp(&b.runtime_s).expect("finite runtimes"))
                    .expect("every shape has records");
                (shape, best.point)
            })
            .collect()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing was gathered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Histogram helper: counts of values in `bins` equal-width bins over
/// `[0, max]`. Returns `(bin_upper_edges, counts)`.
pub fn histogram(values: &[u32], max: u32, bins: usize) -> (Vec<u32>, Vec<usize>) {
    let bins = bins.max(1);
    let width = (max as f64 / bins as f64).max(1.0);
    let mut counts = vec![0usize; bins];
    for &v in values {
        let b = ((v as f64 / width).floor() as usize).min(bins - 1);
        counts[b] += 1;
    }
    let edges = (1..=bins).map(|b| (b as f64 * width).round() as u32).collect();
    (edges, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_machine::{MachineModel, SimTimer};

    fn quick_data() -> TrainingData {
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig { n_shapes: 30, reps: 2, ..GatherConfig::quick() };
        TrainingData::gather(&timer, &config)
    }

    #[test]
    fn ladder_respects_max_and_includes_it() {
        let l = ThreadLadder::geometric(96);
        assert_eq!(*l.counts.last().unwrap(), 96);
        assert!(l.counts.iter().all(|c| (1..=96).contains(c)));
        assert!(l.counts.windows(2).all(|w| w[0] < w[1]), "ladder not sorted");
        let l = ThreadLadder::geometric(100);
        assert_eq!(*l.counts.last().unwrap(), 100);
    }

    #[test]
    fn full_ladder_is_exhaustive() {
        let l = ThreadLadder::full(8);
        assert_eq!(l.counts, vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn gather_produces_expected_record_count() {
        let data = quick_data();
        assert_eq!(data.shapes.len(), 30);
        assert_eq!(data.len(), 30 * ThreadLadder::geometric(96).len());
        assert!(data.records.iter().all(|r| r.runtime_s > 0.0));
        assert!(data.grid.is_threads_only());
        assert!(data.records.iter().all(|r| r.point.is_default_axes()));
        assert_eq!(data.max_threads, 96);
    }

    #[test]
    fn grid_gather_sweeps_every_plan_point() {
        let timer = SimTimer::new(MachineModel::gadi());
        let grid = PlanGrid::full(vec![1, 8, 96]);
        let config = GatherConfig {
            n_shapes: 6,
            reps: 2,
            grid: Some(grid.clone()),
            ..GatherConfig::quick()
        };
        let data = TrainingData::gather(&timer, &config);
        assert_eq!(data.len(), 6 * grid.len());
        assert_eq!(data.grid, grid);
        assert!(data.records.iter().all(|r| r.runtime_s > 0.0));
        // The default-axes rows are bit-identical to a plain ladder sweep
        // of the same shapes (same timer stream).
        let ladder_cfg = GatherConfig {
            n_shapes: 6,
            reps: 2,
            grid: Some(PlanGrid::threads_only(vec![1, 8, 96])),
            ..GatherConfig::quick()
        };
        let ladder_data = TrainingData::gather(&timer, &ladder_cfg);
        let defaults: Vec<&GemmRecord> =
            data.records.iter().filter(|r| r.point.is_default_axes()).collect();
        assert_eq!(defaults.len(), ladder_data.records.len());
        for (a, b) in defaults.iter().zip(&ladder_data.records) {
            assert_eq!(**a, *b);
        }
        // Non-default axes actually change the measurement.
        let rescaled = data
            .records
            .iter()
            .find(|r| !r.point.blocking.is_default())
            .expect("grid sweeps rescaled blocks");
        let base = data
            .records
            .iter()
            .find(|r| {
                r.shape == rescaled.shape
                    && r.point == PlanPoint::threads_only(rescaled.point.threads)
            })
            .unwrap();
        assert_ne!(rescaled.runtime_s, base.runtime_s);
    }

    #[test]
    fn routine_gathers_record_the_shapes_serving_prices() {
        // SYRK's (m, k, m) can be far over the cap its GEMM draw met:
        // large m with small k and n is common in the paper's domain.
        let config = GatherConfig { reps: 1, ..GatherConfig::quick() };
        for routine in [Routine::Syrk, Routine::Gemv] {
            let timer = SimTimer::for_routine(MachineModel::gadi(), routine);
            let data = TrainingData::gather(&timer, &config);
            assert_eq!(data.shapes.len(), config.n_shapes);
            for shape in data.records.iter().map(|r| r.shape).chain(data.shapes.iter().copied()) {
                let n = if routine == Routine::Syrk { shape.m } else { 1 };
                assert_eq!(shape.n, n, "{routine} row {shape:?}");
                assert!(shape.memory_bytes(config.precision) <= config.cap.bytes, "{shape:?}");
            }
        }
        // GEMM draws pass through: the sampler's own shapes, in order.
        let mut sampler = DomainSampler::new(config.cap, config.precision, config.seed);
        assert_eq!(config.sample_shapes(Routine::Gemm), sampler.sample(config.n_shapes));
    }

    #[test]
    fn gather_is_deterministic() {
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig { n_shapes: 10, reps: 2, ..GatherConfig::quick() };
        let a = TrainingData::gather(&timer, &config);
        let b = TrainingData::gather(&timer, &config);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn optimal_threads_one_entry_per_shape() {
        let data = quick_data();
        let opt = data.optimal_threads();
        assert_eq!(opt.len(), data.shapes.len());
        for (shape, best) in &opt {
            // The reported best must not lose to any ladder rung.
            let best_time = data
                .records
                .iter()
                .find(|r| r.shape == *shape && r.threads() == *best)
                .unwrap()
                .runtime_s;
            for r in data.records.iter().filter(|r| r.shape == *shape) {
                assert!(best_time <= r.runtime_s + 1e-15);
            }
        }
    }

    #[test]
    fn small_shapes_rarely_prefer_max_threads() {
        // The paper's Fig. 1 phenomenon must emerge from gathered data.
        let timer = SimTimer::new(MachineModel::gadi());
        let config = GatherConfig {
            n_shapes: 60,
            cap: MemoryCap::paper_small(),
            reps: 2,
            ..GatherConfig::quick()
        };
        let data = TrainingData::gather(&timer, &config);
        let opt = data.optimal_threads();
        let at_max = opt.iter().filter(|(_, p)| *p == 96).count();
        assert!(
            at_max * 3 < opt.len(),
            "{at_max}/{} small shapes still prefer max threads",
            opt.len()
        );
    }

    #[test]
    fn histogram_bins_cover_all_values() {
        let values = vec![1, 5, 10, 48, 96, 96];
        let (edges, counts) = histogram(&values, 96, 8);
        assert_eq!(edges.len(), 8);
        assert_eq!(counts.iter().sum::<usize>(), values.len());
    }
}
