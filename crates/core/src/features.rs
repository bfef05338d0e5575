//! The paper's Table II feature set.
//!
//! Two groups: Group 1 captures serial-runtime terms (matrix sizes, memory
//! footprint, FLOP count), Group 2 the same terms divided by the thread
//! count (parallel-runtime terms). Seventeen features in total; the
//! correlation pruner later removes the redundant ones, exactly as §IV-C
//! describes.
//!
//! The feature space is defined over GEMM `(m, k, n)`; other routines
//! enter it through their GEMM-equivalent dimensions (SYRK `(m, k)` as
//! the `m×k · k×m` product it computes, GEMV `(m, n)` as `m×n · n×1`) via
//! [`build_features_for_op`], so one trained model — or one per-routine
//! model trained on that routine's timings — serves every routine.

use adsala_gemm::plan::{Algorithm, IsaChoice, PackingStrategy, PlanPoint, FEATURE_REV_AXES};
use adsala_gemm::OpShape;

/// Number of raw features before correlation pruning.
pub const FEATURE_COUNT: usize = 17;

/// Raw feature count when the legacy (rev-1) plan axes ride along
/// (grid-trained models): the Table II set plus one column per non-thread
/// plan axis of the v3 plan space.
pub const PLAN_FEATURE_COUNT: usize = FEATURE_COUNT + 3;

/// Raw feature count for the rev-2 (per-axis blocking + algorithm) plan
/// feature layout.
pub const PLAN_FEATURE_COUNT_AXES: usize = FEATURE_COUNT + 8;

/// Raw plan-feature row width for a given feature revision.
pub fn plan_feature_count(feature_rev: u32) -> usize {
    if feature_rev >= FEATURE_REV_AXES {
        PLAN_FEATURE_COUNT_AXES
    } else {
        PLAN_FEATURE_COUNT
    }
}

/// Names of the raw features, in [`build_features`] order.
pub fn feature_names() -> [&'static str; FEATURE_COUNT] {
    [
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
    ]
}

/// The `n_threads` column, and the Group 2 (`…/n_threads`) columns.
const THREADS_COL: usize = 3;
const PER_THREAD_COLS: std::ops::Range<usize> = 9..FEATURE_COUNT;

/// Whether Table II column `col` changes with the thread count: the
/// count itself and the Group 2 terms. The other eight depend on the shape
/// alone, so a sweep over one shape transforms them once.
pub(crate) fn depends_on_threads(col: usize) -> bool {
    col == THREADS_COL || PER_THREAD_COLS.contains(&col)
}

/// The eight thread-independent Table II terms of a shape, in column
/// order: `m, k, n, m*k, m*n, k*n, m*k*n, m*k+k*n+m*n`.
pub(crate) fn shape_terms(m: u64, k: u64, n: u64) -> [f64; 8] {
    let (mf, kf, nf) = (m as f64, k as f64, n as f64);
    let mk = mf * kf;
    let mn = mf * nf;
    let kn = kf * nf;
    [mf, kf, nf, mk, mn, kn, mf * kf * nf, mk + kn + mn]
}

/// Write the Table II columns of a shape (its [`shape_terms`]) at one
/// thread count into `out[..FEATURE_COUNT]`.
pub(crate) fn write_features(terms: &[f64; 8], n_threads: u32, out: &mut [f64]) {
    let t = f64::from(n_threads.max(1));
    out[..THREADS_COL].copy_from_slice(&terms[..THREADS_COL]);
    out[THREADS_COL] = t;
    out[THREADS_COL + 1..PER_THREAD_COLS.start].copy_from_slice(&terms[THREADS_COL..]);
    for (per_thread, term) in out[PER_THREAD_COLS].iter_mut().zip(terms) {
        *per_thread = term / t;
    }
}

/// Build the raw feature vector for one `(m, k, n, n_threads)` input.
pub fn build_features(m: u64, k: u64, n: u64, n_threads: u32) -> Vec<f64> {
    let mut f = vec![0.0; FEATURE_COUNT];
    write_features(&shape_terms(m, k, n), n_threads, &mut f);
    f
}

/// Build the raw feature vector for any routine's shape: map the
/// routine's own dimensions into the GEMM feature space
/// ([`OpShape::gemm_equivalent`]), then build the Table II features.
pub fn build_features_for_op(shape: &OpShape, n_threads: u32) -> Vec<f64> {
    let (m, k, n) = shape.gemm_equivalent();
    build_features(m, k, n, n_threads)
}

/// Names of the legacy (rev-1) plan-axis columns appended by
/// [`build_plan_features`]. `block_scale` is the v3 uniform cache-block
/// scale; migrated v4 points reproduce it from `kc_percent` (the three
/// axes are equal on a migrated uniform triple), keeping rev-1 rows
/// bit-identical under v3→v4 migration.
pub fn plan_feature_names() -> [&'static str; 3] {
    ["isa_scalar", "block_scale", "packing_independent"]
}

/// Names of the rev-2 plan-axis columns: per-axis cache-block scales plus
/// one-hot algorithm flags and the Strassen cutoff (0 when not Strassen).
pub fn plan_feature_names_axes() -> [&'static str; 8] {
    [
        "isa_scalar",
        "mc_scale",
        "kc_scale",
        "nc_scale",
        "packing_independent",
        "algo_strassen",
        "algo_zorder",
        "strassen_cutoff",
    ]
}

/// Write the plan-axis columns of `point` in the layout of `feature_rev`
/// into `out` (`plan_feature_count(feature_rev) - FEATURE_COUNT` wide).
/// They depend on the point's non-thread axes alone, not on the shape.
pub(crate) fn write_plan_axes(point: &PlanPoint, feature_rev: u32, out: &mut [f64]) {
    let isa = match point.isa {
        IsaChoice::Dispatched => 0.0,
        IsaChoice::Scalar => 1.0,
    };
    let packing = match point.packing {
        PackingStrategy::SharedB => 0.0,
        PackingStrategy::Independent => 1.0,
    };
    let scale = |percent: u32| f64::from(percent.max(1)) / 100.0;
    if feature_rev >= FEATURE_REV_AXES {
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
    } else {
        // The v3 space had one uniform scale; kc carries it on a migrated
        // uniform triple (all three axes equal), bit-exactly.
        out.copy_from_slice(&[isa, scale(point.blocking.kc_percent), packing]);
    }
}

/// Build the extended feature vector for one plan-grid point: the Table II
/// set at the point's thread count, plus one column per non-thread plan
/// axis in the layout of `feature_rev` (the owning
/// [`adsala_gemm::PlanGrid::feature_rev`]). Only grid-trained models
/// ([`adsala_gemm::PlanGrid::plan_features`]) consume these; threads-only
/// artefacts keep the 17-feature space.
pub fn build_plan_features(
    m: u64,
    k: u64,
    n: u64,
    point: &PlanPoint,
    feature_rev: u32,
) -> Vec<f64> {
    let mut f = vec![0.0; plan_feature_count(feature_rev)];
    write_features(&shape_terms(m, k, n), point.threads, &mut f);
    write_plan_axes(point, feature_rev, &mut f[FEATURE_COUNT..]);
    f
}

/// The [`build_plan_features`] analogue of [`build_features_for_op`].
pub fn build_plan_features_for_op(
    shape: &OpShape,
    point: &PlanPoint,
    feature_rev: u32,
) -> Vec<f64> {
    let (m, k, n) = shape.gemm_equivalent();
    build_plan_features(m, k, n, point, feature_rev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsala_gemm::plan::FEATURE_REV_LEGACY;
    use adsala_gemm::Precision;

    #[test]
    fn op_features_map_through_gemm_equivalents() {
        // GEMM is the identity mapping.
        assert_eq!(
            build_features_for_op(&OpShape::gemm(Precision::F32, 2, 3, 4), 2),
            build_features(2, 3, 4, 2)
        );
        // SYRK (m, k) lands on GEMM (m, k, m); GEMV (m, n) on (m, n, 1).
        assert_eq!(
            build_features_for_op(&OpShape::syrk(Precision::F64, 100, 30), 8),
            build_features(100, 30, 100, 8)
        );
        assert_eq!(
            build_features_for_op(&OpShape::gemv(Precision::F32, 500, 200), 4),
            build_features(500, 200, 1, 4)
        );
    }

    #[test]
    fn precision_does_not_enter_the_feature_space() {
        // Table II has no element-size term: precision segregates cache
        // entries and model slots, not features.
        assert_eq!(
            build_features_for_op(&OpShape::gemm(Precision::F32, 7, 8, 9), 3),
            build_features_for_op(&OpShape::gemm(Precision::F64, 7, 8, 9), 3)
        );
    }

    #[test]
    fn names_and_vector_agree_in_length() {
        assert_eq!(feature_names().len(), FEATURE_COUNT);
        assert_eq!(build_features(2, 3, 4, 5).len(), FEATURE_COUNT);
        assert_eq!(FEATURE_COUNT + plan_feature_names().len(), PLAN_FEATURE_COUNT);
        assert_eq!(FEATURE_COUNT + plan_feature_names_axes().len(), PLAN_FEATURE_COUNT_AXES);
        let point = PlanPoint::threads_only(5);
        for (rev, width) in
            [(FEATURE_REV_LEGACY, PLAN_FEATURE_COUNT), (FEATURE_REV_AXES, PLAN_FEATURE_COUNT_AXES)]
        {
            assert_eq!(build_plan_features(2, 3, 4, &point, rev).len(), width);
            assert_eq!(plan_feature_count(rev), width);
        }
    }

    #[test]
    fn plan_features_extend_the_base_row() {
        use adsala_gemm::plan::BlockScale;
        let point = PlanPoint {
            threads: 5,
            isa: IsaChoice::Scalar,
            blocking: BlockScale::uniform(50),
            packing: PackingStrategy::Independent,
            algorithm: Algorithm::Blocked,
        };
        let f = build_plan_features(2, 3, 4, &point, FEATURE_REV_LEGACY);
        assert_eq!(&f[..FEATURE_COUNT], &build_features(2, 3, 4, 5)[..]);
        assert_eq!(&f[FEATURE_COUNT..], &[1.0, 0.5, 1.0]);
        // A default-axes point appends the all-defaults columns.
        let base = build_plan_features(2, 3, 4, &PlanPoint::threads_only(5), FEATURE_REV_LEGACY);
        assert_eq!(&base[FEATURE_COUNT..], &[0.0, 1.0, 0.0]);
        // And the op-shaped builder maps through gemm equivalents.
        assert_eq!(
            build_plan_features_for_op(
                &OpShape::syrk(Precision::F64, 100, 30),
                &point,
                FEATURE_REV_LEGACY
            ),
            build_plan_features(100, 30, 100, &point, FEATURE_REV_LEGACY)
        );
    }

    #[test]
    fn axes_rev_appends_per_axis_and_algorithm_columns() {
        use adsala_gemm::plan::BlockScale;
        let point = PlanPoint {
            threads: 5,
            isa: IsaChoice::Scalar,
            blocking: BlockScale::new(100, 50, 200),
            packing: PackingStrategy::Independent,
            algorithm: Algorithm::Strassen { cutoff: 512 },
        };
        let f = build_plan_features(2, 3, 4, &point, FEATURE_REV_AXES);
        assert_eq!(&f[..FEATURE_COUNT], &build_features(2, 3, 4, 5)[..]);
        assert_eq!(&f[FEATURE_COUNT..], &[1.0, 1.0, 0.5, 2.0, 1.0, 1.0, 0.0, 0.5]);
        // Z-order flips the second one-hot and zeroes the cutoff.
        let z = PlanPoint { algorithm: Algorithm::ZOrder, ..point };
        let fz = build_plan_features(2, 3, 4, &z, FEATURE_REV_AXES);
        assert_eq!(&fz[FEATURE_COUNT + 5..], &[0.0, 1.0, 0.0]);
        // A default point is all-default columns in the wide layout too.
        let base = build_plan_features(2, 3, 4, &PlanPoint::threads_only(5), FEATURE_REV_AXES);
        assert_eq!(&base[FEATURE_COUNT..], &[0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn legacy_rows_read_the_uniform_scale_from_kc() {
        use adsala_gemm::plan::BlockScale;
        // A migrated v3 point (uniform triple) must produce the exact
        // legacy row; the kc axis carries the shared value.
        let migrated = PlanPoint {
            threads: 8,
            isa: IsaChoice::Dispatched,
            blocking: BlockScale::uniform(150),
            packing: PackingStrategy::SharedB,
            algorithm: Algorithm::Blocked,
        };
        let f = build_plan_features(10, 20, 30, &migrated, FEATURE_REV_LEGACY);
        assert_eq!(f[FEATURE_COUNT + 1], 1.5);
        assert_eq!(f.len(), PLAN_FEATURE_COUNT);
    }

    #[test]
    fn known_values() {
        let f = build_features(2, 3, 4, 2);
        assert_eq!(f[0], 2.0); // m
        assert_eq!(f[1], 3.0); // k
        assert_eq!(f[2], 4.0); // n
        assert_eq!(f[3], 2.0); // threads
        assert_eq!(f[4], 6.0); // m*k
        assert_eq!(f[5], 8.0); // m*n
        assert_eq!(f[6], 12.0); // k*n
        assert_eq!(f[7], 24.0); // m*k*n
        assert_eq!(f[8], 26.0); // memory words
        assert_eq!(f[9], 1.0); // m/t
        assert_eq!(f[15], 12.0); // m*k*n/t
        assert_eq!(f[16], 13.0); // mem/t
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let f = build_features(2, 3, 4, 0);
        assert_eq!(f[3], 1.0);
        assert_eq!(f[15], 24.0);
    }

    #[test]
    fn all_features_finite_for_paper_domain_extremes() {
        for &(m, k, n) in &[(1, 1, 1), (74_000, 1, 1), (74_000, 220, 74_000)] {
            for &t in &[1u32, 256] {
                assert!(build_features(m, k, n, t).iter().all(|v| v.is_finite()));
            }
        }
    }
}
