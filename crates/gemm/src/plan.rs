//! Execution plans — the full "how to run" decision for one routine call.
//!
//! The paper's runtime learns a single knob, the thread count. The
//! substrate has more knobs that matter: which micro-kernel ISA to run,
//! how to block for the cache hierarchy, and *which algorithm* multiplies
//! at all (the blocked loop nest, Strassen recursion, or a Morton-ordered
//! serial traversal). [`ExecutionPlan`] carries all of them from the
//! decision layer down to the drivers, so "pick a thread count" becomes
//! "pick how to run".
//!
//! The candidate grid ([`PlanGrid`], [`PlanPoint`]) sweeps threads,
//! cache blocking and algorithm. It has no `B`-packing axis (the host
//! drivers have one way to get `B`, so such an axis could not change what
//! runs) and no ISA axis (the scalar kernel was the timed optimum of no
//! swept shape). The ISA stays an execution knob:
//! [`ExecutionPlan::kernel_isa`] pins a kernel for tests and benchmarks,
//! and `ADSALA_FORCE_SCALAR` forces the scalar one.
//!
//! A plan is deliberately *descriptive*, not prescriptive: `None` axes
//! mean "derive from the host" (process-wide ISA dispatch, topology-fitted
//! block sizes), so a threads-only plan — what a migrated v1/v2 artefact
//! degrades to — executes exactly like the pre-plan runtime did.

use crate::blocking::BlockSizes;
use crate::isa::KernelIsa;
use serde::{Deserialize, Serialize};

/// Which multiplication algorithm a plan dispatches. The default blocked
/// loop nest is always legal; the alternatives are only *profitable* on a
/// subset of shapes, which is exactly why the choice belongs to the
/// learned plan rather than a hard-coded size threshold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// The GotoBLAS/BLIS blocked loop nest (the substrate's workhorse).
    #[default]
    Blocked,
    /// Strassen recursion down to `cutoff`, blocked driver at the base
    /// case. Refused (degrading to [`Algorithm::Blocked`]) when any
    /// dimension is odd or smaller than `2·cutoff`.
    Strassen {
        /// Minimum sub-problem dimension: recursion stops once a halved
        /// dimension would drop below this (clamped to at least
        /// [`crate::strassen::MIN_CUTOFF`] at execution time).
        cutoff: u32,
    },
    /// Serial blocked traversal that walks the macro-block grid in Morton
    /// (Z-order) order, reusing the last packed `B` panel across adjacent
    /// blocks. Single-threaded by construction.
    ZOrder,
}

impl Algorithm {
    /// Short label for stats lines, plan-mix telemetry and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Blocked => "blocked",
            Algorithm::Strassen { .. } => "strassen",
            Algorithm::ZOrder => "zorder",
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Strassen { cutoff } => write!(f, "strassen:{cutoff}"),
            other => f.write_str(other.as_str()),
        }
    }
}

/// The full learned decision: every execution knob for one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// Worker threads (≥ 1).
    pub threads: u32,
    /// Micro-kernel ISA; `None` defers to the process-wide dispatch
    /// ([`KernelIsa::dispatched`]). An explicit ISA is still clamped to
    /// scalar at execution time when the host cannot run it or
    /// `ADSALA_FORCE_SCALAR` is set.
    pub kernel_isa: Option<KernelIsa>,
    /// Cache blocking; `None` derives `MC/KC/NC` from the host topology
    /// for the resolved kernel's register tile.
    pub blocking: Option<BlockSizes>,
    /// Multiplication algorithm. Non-default algorithms may degrade back
    /// to [`Algorithm::Blocked`] at execution time when the shape is
    /// ineligible (odd dims below a Strassen cutoff); the executed
    /// algorithm is reported in the stats.
    pub algorithm: Algorithm,
}

impl ExecutionPlan {
    /// A threads-only plan: every other axis defers to the host defaults.
    /// This is what migrated (pre-grid) artefacts and the plain BLAS
    /// entry points produce, and it executes exactly like the pre-plan
    /// runtime.
    pub fn with_threads(threads: u32) -> Self {
        Self {
            threads: threads.max(1),
            kernel_isa: None,
            blocking: None,
            algorithm: Algorithm::Blocked,
        }
    }

    /// `true` when every non-thread axis is at its host-default setting.
    pub fn is_threads_only(&self) -> bool {
        self.kernel_isa.is_none() && self.blocking.is_none() && self.algorithm == Algorithm::Blocked
    }

    /// Builder: pin the micro-kernel ISA.
    pub fn with_isa(mut self, isa: KernelIsa) -> Self {
        self.kernel_isa = Some(isa);
        self
    }

    /// Builder: pin the cache blocking.
    pub fn with_blocking(mut self, blocks: BlockSizes) -> Self {
        self.blocking = Some(blocks);
        self
    }

    /// Builder: pick the multiplication algorithm.
    pub fn with_algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Compact human-readable form for stats lines and tables, e.g.
    /// `t=8 isa=auto blk=auto`. The algorithm is appended
    /// only when it deviates from the blocked default
    /// (`… algo=strassen:512`), so threads-only lines keep their
    /// historical shape.
    pub fn describe(&self) -> String {
        let isa = match self.kernel_isa {
            None => "auto".to_string(),
            Some(isa) => format!("{isa:?}").to_lowercase(),
        };
        let blk = match self.blocking {
            None => "auto".to_string(),
            Some(b) => format!("{}x{}x{}", b.mc, b.kc, b.nc),
        };
        let mut out = format!("t={} isa={} blk={}", self.threads, isa, blk);
        if self.algorithm != Algorithm::Blocked {
            out.push_str(&format!(" algo={}", self.algorithm));
        }
        out
    }
}

impl Default for ExecutionPlan {
    fn default() -> Self {
        Self::with_threads(1)
    }
}

/// Per-axis cache-block scales in percent of the host-derived baseline
/// (100/100/100 = host default). Until schema v4 the grid carried one
/// scalar `block_percent` applied to all three axes; a v3 percent `p`
/// migrates to the uniform triple `(p, p, p)`, which materialises
/// bit-identically ([`BlockSizes::scaled_axes`] generalises
/// [`BlockSizes::scaled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BlockScale {
    /// `MC` scale in percent.
    pub mc_percent: u32,
    /// `KC` scale in percent.
    pub kc_percent: u32,
    /// `NC` scale in percent.
    pub nc_percent: u32,
}

impl BlockScale {
    /// The same scale on all three axes — what a v3 `block_percent`
    /// migrates to.
    pub fn uniform(percent: u32) -> Self {
        Self { mc_percent: percent, kc_percent: percent, nc_percent: percent }
    }

    /// Per-axis constructor.
    pub fn new(mc_percent: u32, kc_percent: u32, nc_percent: u32) -> Self {
        Self { mc_percent, kc_percent, nc_percent }
    }

    /// `true` when every axis is at the host default (100%).
    pub fn is_default(&self) -> bool {
        *self == Self::default()
    }

    /// The cartesian product of per-axis percent domains, `mc`-major —
    /// list defaults (100) first in each axis to keep the grid's
    /// defaults-first candidate ordering.
    pub fn axes_product(mc: &[u32], kc: &[u32], nc: &[u32]) -> Vec<BlockScale> {
        let mut out = Vec::with_capacity(mc.len() * kc.len() * nc.len());
        for &m in mc {
            for &k in kc {
                for &n in nc {
                    out.push(BlockScale::new(m, k, n));
                }
            }
        }
        out
    }
}

impl Default for BlockScale {
    fn default() -> Self {
        Self::uniform(100)
    }
}

/// Plan-feature layout revision 1: the legacy three plan columns
/// (`isa_scalar`, `block_scale`, `packing_independent`) that v3 grid
/// artefacts were trained on. Migrated artefacts keep this revision so
/// their models keep seeing byte-identical rows.
pub const FEATURE_REV_LEGACY: u32 = 1;
/// Plan-feature layout revision 2: per-axis blocking scales plus the
/// algorithm one-hots and Strassen cutoff.
pub const FEATURE_REV_AXES: u32 = 2;

/// One candidate point of a [`PlanGrid`]: the abstract, host-portable
/// form of an execution plan. [`PlanPoint::materialise`] turns it into a
/// concrete [`ExecutionPlan`] for a precision on the current host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PlanPoint {
    /// Worker threads (≥ 1).
    pub threads: u32,
    /// Per-axis cache-block scales (100/100/100 = host default).
    pub blocking: BlockScale,
    /// Multiplication algorithm.
    pub algorithm: Algorithm,
}

impl PlanPoint {
    /// The point with every non-thread axis at its default.
    pub fn threads_only(threads: u32) -> Self {
        Self {
            threads: threads.max(1),
            blocking: BlockScale::default(),
            algorithm: Algorithm::Blocked,
        }
    }

    /// `true` when every non-thread axis is at its default setting.
    pub fn is_default_axes(&self) -> bool {
        self.blocking.is_default() && self.algorithm == Algorithm::Blocked
    }

    /// Concrete plan for `precision` on this host. Default axes map to
    /// `None` (derive from the host), so a threads-only point executes
    /// exactly like the pre-plan runtime.
    pub fn materialise(&self, precision: crate::dispatch::Precision) -> ExecutionPlan {
        let mut plan = ExecutionPlan::with_threads(self.threads);
        if !self.blocking.is_default() {
            plan = plan.with_blocking(BlockSizes::dispatched_for(precision).scaled_axes(
                self.blocking.mc_percent,
                self.blocking.kc_percent,
                self.blocking.nc_percent,
            ));
        }
        plan.with_algorithm(self.algorithm)
    }
}

impl Default for PlanPoint {
    fn default() -> Self {
        Self::threads_only(1)
    }
}

/// The candidate domain the install sweep samples and the model predicts
/// over: a cartesian grid of plan axes.
///
/// A [`PlanGrid::threads_only`] grid (what migrated v1/v2 artefacts carry)
/// enumerates exactly the old thread ladder, so every downstream decision
/// is bit-identical to the pre-grid pipeline. A migrated v3 grid carries
/// its `block_percent` ladder as uniform [`BlockScale`] triples and
/// [`FEATURE_REV_LEGACY`], again candidate-for-candidate identical.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanGrid {
    /// Thread-count candidates (the paper's ladder).
    pub threads: Vec<u32>,
    /// Cache-block scale candidates (defaults first; each entry scales
    /// the three axes independently).
    pub blockings: Vec<BlockScale>,
    /// Algorithm candidates (defaults first).
    pub algorithms: Vec<Algorithm>,
    /// Whether timing rows gathered from this grid carry the plan axes as
    /// model features (false for threads-only grids, preserving the
    /// paper's 17-feature space).
    pub plan_features: bool,
    /// Plan-feature layout revision ([`FEATURE_REV_LEGACY`] or
    /// [`FEATURE_REV_AXES`]); ignored when `plan_features` is false.
    pub feature_rev: u32,
}

impl PlanGrid {
    /// The degenerate grid of the paper: a thread ladder with every other
    /// axis pinned to its default.
    pub fn threads_only(threads: Vec<u32>) -> Self {
        Self {
            threads,
            blockings: vec![BlockScale::default()],
            algorithms: vec![Algorithm::Blocked],
            plan_features: false,
            feature_rev: FEATURE_REV_LEGACY,
        }
    }

    /// The full legacy grid: thread ladder × {100, 50, 200}% uniform
    /// blocking. Kept at [`FEATURE_REV_LEGACY`] — the v3 artefact shape,
    /// whose `isa_scalar` column its rows write as the constant `0.0`.
    pub fn full(threads: Vec<u32>) -> Self {
        Self {
            threads,
            blockings: vec![100, 50, 200].into_iter().map(BlockScale::uniform).collect(),
            algorithms: vec![Algorithm::Blocked],
            plan_features: true,
            feature_rev: FEATURE_REV_LEGACY,
        }
    }

    /// The widened algorithm-axis grid: thread ladder × per-axis blocking
    /// deviations × {blocked, strassen, zorder}; rows carry the
    /// [`FEATURE_REV_AXES`] feature layout.
    pub fn widened(threads: Vec<u32>, strassen_cutoff: u32) -> Self {
        Self {
            threads,
            blockings: BlockScale::axes_product(&[100], &[100, 50, 200], &[100, 200]),
            algorithms: vec![
                Algorithm::Blocked,
                Algorithm::Strassen { cutoff: strassen_cutoff },
                Algorithm::ZOrder,
            ],
            plan_features: true,
            feature_rev: FEATURE_REV_AXES,
        }
    }

    /// `true` when the blocking and algorithm axes each hold only their
    /// default, so the thread axis is the whole decision.
    pub fn is_threads_only(&self) -> bool {
        self.blockings == [BlockScale::default()] && self.algorithms == [Algorithm::Blocked]
    }

    /// Number of candidate points.
    pub fn len(&self) -> usize {
        self.threads.len() * self.blockings.len() * self.algorithms.len()
    }

    /// `true` when the grid has no candidate points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every candidate point, thread-major with default axes first —
    /// for a threads-only grid this is exactly the old candidate order,
    /// and for a migrated v3 grid (singleton algorithm axis) the order is
    /// unchanged too, so strict-`<` argmin sweeps keep their tie-breaking
    /// behaviour.
    pub fn points(&self) -> impl Iterator<Item = PlanPoint> + '_ {
        self.threads.iter().flat_map(move |&threads| self.rung_points(threads, false))
    }

    /// The distinct candidates of one thread rung, at `threads`, in
    /// [`PlanGrid::points`] order. An axis entry equal to an earlier entry
    /// of its axis only repeats points the earlier one already listed, so
    /// skipping it there leaves exactly the first occurrence of every
    /// point — what a decision sweep prices.
    pub fn rung(&self, threads: u32) -> impl Iterator<Item = PlanPoint> + '_ {
        self.rung_points(threads, true)
    }

    fn rung_points(&self, threads: u32, distinct: bool) -> impl Iterator<Item = PlanPoint> + '_ {
        fn axis<T: PartialEq + Copy>(
            entries: &[T],
            distinct: bool,
        ) -> impl Iterator<Item = T> + '_ {
            entries
                .iter()
                .enumerate()
                .filter(move |&(i, entry)| !(distinct && entries[..i].contains(entry)))
                .map(|(_, &entry)| entry)
        }
        axis(&self.blockings, distinct).flat_map(move |blocking| {
            axis(&self.algorithms, distinct).map(move |algorithm| PlanPoint {
                threads,
                blocking,
                algorithm,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_only_plan_has_default_axes() {
        let p = ExecutionPlan::with_threads(8);
        assert_eq!(p.threads, 8);
        assert!(p.is_threads_only());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ExecutionPlan::with_threads(0).threads, 1);
        assert_eq!(ExecutionPlan::default().threads, 1);
    }

    #[test]
    fn builders_leave_threads_alone() {
        let p = ExecutionPlan::with_threads(4).with_isa(KernelIsa::Scalar);
        assert_eq!(p.threads, 4);
        assert_eq!(p.kernel_isa, Some(KernelIsa::Scalar));
        assert!(!p.is_threads_only());
    }

    #[test]
    fn algorithm_plans_are_not_threads_only() {
        let p = ExecutionPlan::with_threads(4).with_algorithm(Algorithm::Strassen { cutoff: 256 });
        assert!(!p.is_threads_only());
        assert_eq!(
            ExecutionPlan { threads: 9, ..p }.algorithm,
            Algorithm::Strassen { cutoff: 256 }
        );
        assert!(ExecutionPlan::with_threads(4)
            .with_algorithm(Algorithm::Blocked)
            .is_threads_only());
    }

    #[test]
    fn describe_is_compact() {
        let p = ExecutionPlan::with_threads(8);
        assert_eq!(p.describe(), "t=8 isa=auto blk=auto");
        let q = p.with_isa(KernelIsa::Scalar);
        assert_eq!(q.describe(), "t=8 isa=scalar blk=auto");
        let s = p.with_algorithm(Algorithm::Strassen { cutoff: 512 });
        assert_eq!(s.describe(), "t=8 isa=auto blk=auto algo=strassen:512");
        let z = p.with_algorithm(Algorithm::ZOrder);
        assert_eq!(z.describe(), "t=8 isa=auto blk=auto algo=zorder");
    }

    #[test]
    fn threads_only_grid_reduces_to_the_ladder() {
        let grid = PlanGrid::threads_only(vec![1, 2, 4, 8]);
        assert!(grid.is_threads_only());
        assert_eq!(grid.len(), 4);
        let points: Vec<_> = grid.points().collect();
        assert_eq!(points.len(), 4);
        for (p, &t) in points.iter().zip(&grid.threads) {
            assert_eq!(*p, PlanPoint::threads_only(t));
            assert!(p.is_default_axes());
        }
    }

    #[test]
    fn full_grid_enumerates_the_cartesian_product() {
        let grid = PlanGrid::full(vec![1, 8]);
        assert!(!grid.is_threads_only());
        assert_eq!(grid.len(), 2 * 3);
        let points: Vec<_> = grid.points().collect();
        assert_eq!(points.len(), grid.len());
        // Thread-major, defaults first: the first point of each thread
        // count is the threads-only point.
        assert_eq!(points[0], PlanPoint::threads_only(1));
        assert_eq!(points[3], PlanPoint::threads_only(8));
        // All points distinct.
        let mut uniq = points.clone();
        uniq.sort_by_key(|p| (p.threads, p.blocking.kc_percent));
        uniq.dedup();
        assert_eq!(uniq.len(), points.len());
    }

    #[test]
    fn rung_lists_each_distinct_point_of_a_thread_count_once() {
        // Without repeated axis entries a rung is that count's slice of
        // `points()`.
        let grid = PlanGrid::widened(vec![1, 8], 256);
        let rung: Vec<_> = grid.rung(8).collect();
        assert_eq!(rung, grid.points().filter(|p| p.threads == 8).collect::<Vec<_>>());

        // A repeated entry is skipped where it repeats: the rung is the
        // first occurrence of every point, in `points()` order.
        let mut dup = PlanGrid::full(vec![4]);
        dup.blockings.push(BlockScale::uniform(50));
        dup.blockings.push(BlockScale::default());
        let mut first_seen: Vec<PlanPoint> = Vec::new();
        for p in dup.points() {
            if !first_seen.contains(&p) {
                first_seen.push(p);
            }
        }
        assert!(first_seen.len() < dup.len());
        assert_eq!(dup.rung(4).collect::<Vec<_>>(), first_seen);
    }

    #[test]
    fn widened_grid_spans_the_algorithm_axis() {
        let grid = PlanGrid::widened(vec![1, 8], 256);
        assert!(!grid.is_threads_only());
        assert_eq!(grid.feature_rev, FEATURE_REV_AXES);
        // 2 threads × (1·3·2) blockings × 3 algos.
        assert_eq!(grid.len(), 2 * 6 * 3);
        let points: Vec<_> = grid.points().collect();
        assert_eq!(points[0], PlanPoint::threads_only(1));
        assert!(points.iter().any(|p| p.algorithm == Algorithm::Strassen { cutoff: 256 }));
        assert!(points.iter().any(|p| p.algorithm == Algorithm::ZOrder));
        // Per-axis deviations really are per-axis: some candidate scales
        // KC without touching MC.
        assert!(points
            .iter()
            .any(|p| p.blocking.kc_percent != 100 && p.blocking.mc_percent == 100));
    }

    #[test]
    fn materialise_maps_defaults_to_auto() {
        use crate::dispatch::Precision;
        let p = PlanPoint::threads_only(6).materialise(Precision::F32);
        assert_eq!(p, ExecutionPlan::with_threads(6));
        assert!(p.is_threads_only());

        let point = PlanPoint {
            threads: 4,
            blocking: BlockScale::uniform(50),
            algorithm: Algorithm::Blocked,
        };
        let q = point.materialise(Precision::F32);
        assert_eq!(q.threads, 4);
        assert_eq!(q.kernel_isa, None, "a grid point never pins the kernel");
        let blocks = q.blocking.expect("non-default percent pins blocking");
        assert!(blocks.is_valid());
    }

    #[test]
    fn materialise_uniform_scale_matches_legacy_scaled() {
        use crate::dispatch::Precision;
        // A migrated v3 block_percent=p must materialise bit-identically
        // to the old `scaled(p)` path.
        for percent in [50u32, 200] {
            let point =
                PlanPoint { blocking: BlockScale::uniform(percent), ..PlanPoint::threads_only(4) };
            let plan = point.materialise(Precision::F32);
            assert_eq!(
                plan.blocking,
                Some(BlockSizes::dispatched_for(Precision::F32).scaled(percent))
            );
        }
    }

    #[test]
    fn materialise_carries_the_algorithm() {
        use crate::dispatch::Precision;
        let point = PlanPoint {
            algorithm: Algorithm::Strassen { cutoff: 128 },
            ..PlanPoint::threads_only(2)
        };
        let plan = point.materialise(Precision::F64);
        assert_eq!(plan.algorithm, Algorithm::Strassen { cutoff: 128 });
        assert!(plan.blocking.is_none(), "default blocking stays host-derived");
        assert!(!point.is_default_axes());
    }

    #[test]
    fn axes_product_is_mc_major_defaults_first() {
        let b = BlockScale::axes_product(&[100, 50], &[100, 200], &[100]);
        assert_eq!(b.len(), 4);
        assert_eq!(b[0], BlockScale::default());
        assert_eq!(b[1], BlockScale::new(100, 200, 100));
        assert_eq!(b[2], BlockScale::new(50, 100, 100));
    }

    #[test]
    fn serde_roundtrip() {
        let p = ExecutionPlan::with_threads(6)
            .with_isa(KernelIsa::Scalar)
            .with_blocking(BlockSizes::for_f32())
            .with_algorithm(Algorithm::Strassen { cutoff: 384 });
        let v = serde::Serialize::to_value(&p);
        let back: ExecutionPlan = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(p, back);

        let grid = PlanGrid::widened(vec![1, 4], 256);
        let v = serde::Serialize::to_value(&grid);
        let back: PlanGrid = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(grid, back);
    }
}
