//! The feature-row layout: which raw columns a model row has, and how a
//! `(shape, plan point)` fills them.
//!
//! The columns every row starts with are the paper's Table II. Two groups:
//! Group 1 captures serial-runtime terms (matrix sizes, memory footprint,
//! FLOP count), Group 2 the same terms divided by the thread count
//! (parallel-runtime terms). Seventeen features in total; the correlation
//! pruner later removes the redundant ones, exactly as §IV-C describes. A
//! grid that sweeps more than the thread axis appends one column per
//! non-thread plan axis, in one of two layouts ([`RowLayout`]); which one a
//! grid's rows have is decided here and nowhere else.
//!
//! The feature space is defined over GEMM `(m, k, n)`; other routines
//! enter it through their GEMM-equivalent dimensions (SYRK `(m, k)` as
//! the `m×k · k×m` product it computes, GEMV `(m, n)` as `m×n · n×1`) via
//! [`OpShape::gemm_equivalent`], so one trained model — or one per-routine
//! model trained on that routine's timings — serves every routine. A
//! thread count enters it as [`PlanPoint::threads_only`].

use adsala_gemm::plan::{Algorithm, PlanGrid, PlanPoint, FEATURE_REV_AXES};
use adsala_gemm::OpShape;

/// Number of Table II columns — the whole row of a threads-only grid.
pub const FEATURE_COUNT: usize = 17;

/// Names of the Table II columns, in row order.
const TABLE2_NAMES: [&str; FEATURE_COUNT] = [
    // Group 1 — serial terms.
    "m",
    "k",
    "n",
    "n_threads",
    "m*k",
    "m*n",
    "k*n",
    "m*k*n",
    "m*k+k*n+m*n",
    // Group 2 — parallel terms.
    "m/n_threads",
    "k/n_threads",
    "n/n_threads",
    "m*k/n_threads",
    "m*n/n_threads",
    "k*n/n_threads",
    "m*k*n/n_threads",
    "(m*k+k*n+m*n)/n_threads",
];

/// Names of the [`RowLayout::LegacyAxes`] plan-axis columns. `block_scale`
/// is the v3 uniform cache-block scale; migrated v4 points reproduce it
/// from `kc_percent` (the three axes are equal on a migrated uniform
/// triple), keeping these rows bit-identical under v3→v4 migration.
/// `isa_scalar` and `packing_independent` are the constant `0.0` (see
/// [`RowLayout`]).
const LEGACY_AXIS_NAMES: [&str; 3] = ["isa_scalar", "block_scale", "packing_independent"];

/// Names of the [`RowLayout::Axes`] plan-axis columns: the constant
/// `isa_scalar` column, per-axis cache-block scales, the constant
/// `packing_independent` column (both as in [`LEGACY_AXIS_NAMES`]),
/// one-hot algorithm flags and the Strassen cutoff (0 when not Strassen).
const AXIS_NAMES: [&str; 8] = [
    "isa_scalar",
    "mc_scale",
    "kc_scale",
    "nc_scale",
    "packing_independent",
    "algo_strassen",
    "algo_zorder",
    "strassen_cutoff",
];

/// The `n_threads` column, and the Group 2 (`…/n_threads`) columns.
const THREADS_COL: usize = 3;
const PER_THREAD_COLS: std::ops::Range<usize> = 9..FEATURE_COUNT;

/// Whether raw column `col` changes with the thread count: the count
/// itself and the Group 2 terms. The other Table II columns depend on the
/// shape alone and the plan-axis columns on one non-thread axis each, so a
/// sweep over one shape transforms them once.
pub(crate) fn depends_on_threads(col: usize) -> bool {
    col == THREADS_COL || PER_THREAD_COLS.contains(&col)
}

/// The eight thread-independent Table II terms of a GEMM-equivalent shape,
/// in column order: `m, k, n, m*k, m*n, k*n, m*k*n, m*k+k*n+m*n` — what
/// [`RowLayout::write`] takes, so a caller writing many rows of one shape
/// computes them once.
pub fn shape_terms(m: u64, k: u64, n: u64) -> [f64; 8] {
    let (mf, kf, nf) = (m as f64, k as f64, n as f64);
    let mk = mf * kf;
    let mn = mf * nf;
    let kn = kf * nf;
    [mf, kf, nf, mk, mn, kn, mf * kf * nf, mk + kn + mn]
}

/// Write the Table II columns of a shape (its [`shape_terms`]) at one
/// thread count into `out[..FEATURE_COUNT]`.
pub(crate) fn write_table2(terms: &[f64; 8], n_threads: u32, out: &mut [f64]) {
    let t = f64::from(n_threads.max(1));
    out[..THREADS_COL].copy_from_slice(&terms[..THREADS_COL]);
    out[THREADS_COL] = t;
    out[THREADS_COL + 1..PER_THREAD_COLS.start].copy_from_slice(&terms[THREADS_COL..]);
    for (per_thread, term) in out[PER_THREAD_COLS].iter_mut().zip(terms) {
        *per_thread = term / t;
    }
}

/// Which raw columns the rows of a candidate grid have. A data format with
/// three revisions, all live: artefacts of every schema keep deciding from
/// the rows their model was fitted on.
///
/// Both plan-axis layouts keep two columns of deleted grid axes, each
/// written as the constant `0.0`: `isa_scalar`, the value every point on
/// the dispatched kernel wrote when the grid had an ISA axis (the scalar
/// kernel never won a sweep), and `packing_independent`, the value every
/// shared-`B` point wrote when the grid had a `B`-packing axis (no host
/// plan executed it). Keeping the columns at their indices leaves every
/// fitted chain's kept indices, and every row of a point that never named
/// a deleted value, byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowLayout {
    /// Table II alone — a threads-only grid (every v1/v2 artefact, and the
    /// paper's pipeline bit for bit).
    Table2,
    /// Table II plus the three plan-axis columns of the v3 plan space
    /// (`isa_scalar` and `packing_independent`, both now constant, and the
    /// uniform `block_scale`).
    LegacyAxes,
    /// Table II plus eight plan-axis columns: the constant `isa_scalar`,
    /// per-axis blocking scales, the constant `packing_independent`, the
    /// algorithm one-hots and the Strassen cutoff.
    Axes,
}

impl RowLayout {
    /// Width of the widest layout (a stack row buffer's size).
    pub(crate) const MAX_WIDTH: usize = FEATURE_COUNT + AXIS_NAMES.len();

    /// The layout of the rows gathered from, fitted on and priced over
    /// `grid`.
    pub fn of(grid: &PlanGrid) -> Self {
        if grid.plan_features {
            Self::with_plan_axes(grid.feature_rev)
        } else {
            Self::Table2
        }
    }

    /// The plan-axis layout of revision `feature_rev`
    /// ([`PlanGrid::feature_rev`]).
    pub(crate) fn with_plan_axes(feature_rev: u32) -> Self {
        if feature_rev >= FEATURE_REV_AXES {
            Self::Axes
        } else {
            Self::LegacyAxes
        }
    }

    fn axis_names(self) -> &'static [&'static str] {
        match self {
            Self::Table2 => &[],
            Self::LegacyAxes => &LEGACY_AXIS_NAMES,
            Self::Axes => &AXIS_NAMES,
        }
    }

    /// Number of raw columns, before correlation pruning.
    pub fn width(self) -> usize {
        FEATURE_COUNT + self.axis_names().len()
    }

    /// Names of the raw columns, in row order.
    pub fn names(self) -> Vec<&'static str> {
        TABLE2_NAMES.iter().chain(self.axis_names()).copied().collect()
    }

    /// Write the raw row of `point` for a shape (its [`shape_terms`]) into
    /// `out` ([`RowLayout::width`] long).
    pub fn write(self, terms: &[f64; 8], point: &PlanPoint, out: &mut [f64]) {
        write_table2(terms, point.threads, out);
        self.write_axes(point, out);
    }

    /// The plan-axis columns of [`RowLayout::write`] alone. They depend on
    /// the point's non-thread axes, not on the shape or the thread count.
    pub(crate) fn write_axes(self, point: &PlanPoint, out: &mut [f64]) {
        // `isa_scalar` and `packing_independent` are constant.
        let (isa, packing) = (0.0, 0.0);
        let scale = |percent: u32| f64::from(percent.max(1)) / 100.0;
        let out = &mut out[FEATURE_COUNT..];
        match self {
            Self::Table2 => {}
            // The v3 space had one uniform scale; kc carries it on a
            // migrated uniform triple (all three axes equal), bit-exactly.
            Self::LegacyAxes => {
                out.copy_from_slice(&[isa, scale(point.blocking.kc_percent), packing])
            }
            Self::Axes => {
                let (strassen, zorder, cutoff) = match point.algorithm {
                    Algorithm::Blocked => (0.0, 0.0, 0.0),
                    Algorithm::Strassen { cutoff } => (1.0, 0.0, f64::from(cutoff) / 1024.0),
                    Algorithm::ZOrder => (0.0, 1.0, 0.0),
                };
                out.copy_from_slice(&[
                    isa,
                    scale(point.blocking.mc_percent),
                    scale(point.blocking.kc_percent),
                    scale(point.blocking.nc_percent),
                    packing,
                    strassen,
                    zorder,
                    cutoff,
                ]);
            }
        }
    }

    /// The raw row of `point` for any routine's shape, mapped into the GEMM
    /// feature space.
    pub fn row(self, shape: &OpShape, point: &PlanPoint) -> Vec<f64> {
        let (m, k, n) = shape.gemm_equivalent();
        let mut row = vec![0.0; self.width()];
        self.write(&shape_terms(m, k, n), point, &mut row);
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_gemm::plan::{BlockScale, FEATURE_REV_LEGACY};
    use adsala_gemm::Precision;

    /// The Table II row of a GEMM `(m, k, n)` at a thread count.
    fn table2(m: u64, k: u64, n: u64, threads: u32) -> Vec<f64> {
        RowLayout::Table2
            .row(&OpShape::gemm(Precision::F32, m, k, n), &PlanPoint::threads_only(threads))
    }

    #[test]
    fn op_features_map_through_gemm_equivalents() {
        // SYRK (m, k) lands on GEMM (m, k, m); GEMV (m, n) on (m, n, 1).
        let point = PlanPoint::threads_only(8);
        for layout in [RowLayout::Table2, RowLayout::LegacyAxes, RowLayout::Axes] {
            assert_eq!(
                layout.row(&OpShape::syrk(Precision::F64, 100, 30), &point),
                layout.row(&OpShape::gemm(Precision::F64, 100, 30, 100), &point)
            );
            assert_eq!(
                layout.row(&OpShape::gemv(Precision::F32, 500, 200), &point),
                layout.row(&OpShape::gemm(Precision::F32, 500, 200, 1), &point)
            );
        }
    }

    #[test]
    fn precision_does_not_enter_the_feature_space() {
        // Table II has no element-size term: precision segregates cache
        // entries and model slots, not features.
        let point = PlanPoint::threads_only(3);
        assert_eq!(
            RowLayout::Axes.row(&OpShape::gemm(Precision::F32, 7, 8, 9), &point),
            RowLayout::Axes.row(&OpShape::gemm(Precision::F64, 7, 8, 9), &point)
        );
    }

    #[test]
    fn names_and_vector_agree_in_length() {
        let point = PlanPoint::threads_only(5);
        let shape = OpShape::gemm(Precision::F32, 2, 3, 4);
        for (layout, width) in [
            (RowLayout::Table2, FEATURE_COUNT),
            (RowLayout::LegacyAxes, FEATURE_COUNT + 3),
            (RowLayout::Axes, FEATURE_COUNT + 8),
        ] {
            assert_eq!(layout.width(), width);
            assert_eq!(layout.names().len(), width);
            assert_eq!(layout.row(&shape, &point).len(), width);
            assert!(width <= RowLayout::MAX_WIDTH);
        }
        assert_eq!(RowLayout::with_plan_axes(FEATURE_REV_LEGACY), RowLayout::LegacyAxes);
        assert_eq!(RowLayout::with_plan_axes(FEATURE_REV_AXES), RowLayout::Axes);
    }

    /// The one pin of the row format: for every grid constructor, the
    /// layout its rows have, that layout's width and column names, and the
    /// literal raw row of a non-default point of GEMM `(2, 3, 4)` at two
    /// threads.
    #[test]
    fn each_grid_constructor_pins_its_layout_and_raw_row() {
        // Table II of (2, 3, 4) at two threads: m, k, n, threads, m*k, m*n,
        // k*n, m*k*n, memory words, then each of the eight over threads.
        const TABLE2_ROW: [f64; FEATURE_COUNT] = [
            2.0, 3.0, 4.0, 2.0, 6.0, 8.0, 12.0, 24.0, 26.0, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 12.0,
            13.0,
        ];
        let v3_fixture =
            concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures/artifact_v3.json");
        let migrated_v3 = crate::Artifact::load(std::path::Path::new(v3_fixture))
            .expect("the v3 fixture loads")
            .grid;
        let legacy_point = PlanPoint {
            threads: 2,
            blocking: BlockScale::uniform(50),
            algorithm: Algorithm::Blocked,
        };
        let axes_point = PlanPoint {
            blocking: BlockScale::new(100, 50, 200),
            algorithm: Algorithm::Strassen { cutoff: 512 },
            ..legacy_point
        };
        let table: [(&str, PlanGrid, RowLayout, PlanPoint, &[f64]); 5] = [
            // A threads-only grid ignores every non-thread axis.
            (
                "threads_only",
                PlanGrid::threads_only(vec![1, 2]),
                RowLayout::Table2,
                axes_point,
                &[],
            ),
            (
                "full",
                PlanGrid::full(vec![1, 2]),
                RowLayout::LegacyAxes,
                legacy_point,
                &[0.0, 0.5, 0.0],
            ),
            // A default-axes point appends the all-defaults columns.
            (
                "full, default axes",
                PlanGrid::full(vec![1, 2]),
                RowLayout::LegacyAxes,
                PlanPoint::threads_only(2),
                &[0.0, 1.0, 0.0],
            ),
            // The v3 space had one uniform scale; the kc axis carries it.
            (
                "migrated v3",
                migrated_v3,
                RowLayout::LegacyAxes,
                PlanPoint { blocking: BlockScale::new(70, 150, 90), ..legacy_point },
                &[0.0, 1.5, 0.0],
            ),
            (
                "widened",
                PlanGrid::widened(vec![1, 2], 512),
                RowLayout::Axes,
                axes_point,
                &[0.0, 1.0, 0.5, 2.0, 0.0, 1.0, 0.0, 0.5],
            ),
        ];
        for (name, grid, layout, point, axes) in table {
            assert_eq!(RowLayout::of(&grid), layout, "{name}");
            assert_eq!(layout.width(), FEATURE_COUNT + axes.len(), "{name}");
            let names = layout.names();
            assert_eq!(names.len(), layout.width(), "{name}");
            assert_eq!(&names[..FEATURE_COUNT], &TABLE2_NAMES, "{name}");
            let axis_names: &[&str] = match axes.len() {
                0 => &[],
                3 => &["isa_scalar", "block_scale", "packing_independent"],
                _ => &[
                    "isa_scalar",
                    "mc_scale",
                    "kc_scale",
                    "nc_scale",
                    "packing_independent",
                    "algo_strassen",
                    "algo_zorder",
                    "strassen_cutoff",
                ],
            };
            assert_eq!(&names[FEATURE_COUNT..], axis_names, "{name}");
            let row = layout.row(&OpShape::gemm(Precision::F32, 2, 3, 4), &point);
            assert_eq!(&row[..FEATURE_COUNT], &TABLE2_ROW, "{name}");
            assert_eq!(&row[FEATURE_COUNT..], axes, "{name}");
        }
        // Z-order flips the second one-hot and zeroes the cutoff; a default
        // point is all-default columns in the wide layout too.
        let shape = OpShape::gemm(Precision::F32, 2, 3, 4);
        let zorder = PlanPoint { algorithm: Algorithm::ZOrder, ..axes_point };
        assert_eq!(&RowLayout::Axes.row(&shape, &zorder)[FEATURE_COUNT + 5..], &[0.0, 1.0, 0.0]);
        assert_eq!(
            &RowLayout::Axes.row(&shape, &PlanPoint::threads_only(2))[FEATURE_COUNT..],
            &[0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]
        );
    }

    #[test]
    fn legacy_rows_read_the_uniform_scale_from_kc() {
        // A migrated v3 point (uniform triple) must produce the exact
        // legacy row; the kc axis carries the shared value.
        let migrated =
            PlanPoint { blocking: BlockScale::uniform(150), ..PlanPoint::threads_only(8) };
        let f = RowLayout::LegacyAxes.row(&OpShape::gemm(Precision::F32, 10, 20, 30), &migrated);
        assert_eq!(f[FEATURE_COUNT + 1], 1.5);
        assert_eq!(f.len(), FEATURE_COUNT + 3);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let mut f = [0.0; FEATURE_COUNT];
        write_table2(&shape_terms(2, 3, 4), 0, &mut f);
        assert_eq!(f[3], 1.0);
        assert_eq!(f[15], 24.0);
    }

    #[test]
    fn all_features_finite_for_paper_domain_extremes() {
        for &(m, k, n) in &[(1, 1, 1), (74_000, 1, 1), (74_000, 220, 74_000)] {
            for &t in &[1u32, 256] {
                assert!(table2(m, k, n, t).iter().all(|v| v.is_finite()));
            }
        }
    }
}
