//! Plan-equivalence coverage: every plan the candidate grid can emit —
//! each combination of thread count and block scale — must compute the
//! correct product across transpose combos and skewed shapes, give the
//! same bits on a private pool as on the process pool (sized to the host),
//! and (with the scalar kernel pinned) be invariant to the thread count.

use adsala_repro::adsala_gemm::dispatch::Precision;
use adsala_repro::adsala_gemm::gemm::{gemm_with_stats, gemm_with_stats_pooled, GemmCall};
use adsala_repro::adsala_gemm::isa::KernelIsa;
use adsala_repro::adsala_gemm::naive::naive_gemm;
use adsala_repro::adsala_gemm::plan::{ExecutionPlan, PlanGrid, PlanPoint};
use adsala_repro::adsala_gemm::pool::ThreadPool;
use adsala_repro::adsala_gemm::Transpose;

/// `(m, n, k, trans_a, trans_b)`: a square mid-size call plus skewed and
/// sub-register-tile shapes, each with a different transpose combination.
const CASES: &[(usize, usize, usize, bool, bool)] = &[
    (64, 64, 64, false, false),
    (7, 93, 5, true, false),
    (80, 9, 33, false, true),
    (33, 48, 40, true, true),
    (1, 257, 1, false, false),
];

fn fill<T: From<f32>>(n: usize, seed: u64) -> Vec<T> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            T::from(((s % 1000) as f32 - 500.0) / 100.0)
        })
        .collect()
}

fn transposes(ta: bool, tb: bool) -> (Transpose, Transpose) {
    let t = |flag| if flag { Transpose::Yes } else { Transpose::No };
    (t(ta), t(tb))
}

/// Stored-operand dimensions and leading strides for a transposed call.
fn strides(
    m: usize,
    n: usize,
    k: usize,
    ta: Transpose,
    tb: Transpose,
) -> (usize, usize, usize, usize) {
    let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
    let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
    (ar * ac, br * bc, ac.max(1), bc.max(1))
}

macro_rules! grid_plans_are_correct_and_pool_invariant {
    ($name:ident, $t:ty, $precision:expr, $tol:expr) => {
        #[test]
        fn $name() {
            let grid = PlanGrid::full(vec![1, 3]);
            let pool = ThreadPool::new(3);
            for (idx, point) in grid.points().enumerate() {
                let plan = point.materialise($precision);
                for &(m, n, k, ta, tb) in CASES {
                    let (ta, tb) = transposes(ta, tb);
                    let (a_len, b_len, lda, ldb) = strides(m, n, k, ta, tb);
                    let seed = idx as u64 * 31 + m as u64;
                    let a: Vec<$t> = fill(a_len.max(1), seed);
                    let b: Vec<$t> = fill(b_len.max(1), seed + 1);
                    let mut c_global: Vec<$t> = fill(m * n, seed + 2);
                    let mut c_pooled = c_global.clone();
                    let mut c_ref = c_global.clone();
                    let alpha = <$t>::from(1.25f32);
                    let beta = <$t>::from(-0.5f32);

                    let call = GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, 1) }
                        .with_plan(plan);
                    gemm_with_stats(&call, alpha, &a, lda, &b, ldb, beta, &mut c_global, n);
                    gemm_with_stats_pooled(
                        &pool, &call, alpha, &a, lda, &b, ldb, beta, &mut c_pooled, n,
                    );
                    naive_gemm(ta, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_ref, n);

                    for (i, (x, y)) in c_global.iter().zip(&c_ref).enumerate() {
                        let (x, y) = (f64::from(*x), f64::from(*y));
                        assert!(
                            (x - y).abs() <= $tol * (1.0 + y.abs()),
                            "plan [{}] wrong at {i} for {m}x{n}x{k} ta={ta:?} tb={tb:?}: {x} vs {y}",
                            plan.describe()
                        );
                    }
                    assert_eq!(
                        c_global,
                        c_pooled,
                        "a private pool drifted from the process pool for plan [{}] \
                         on {m}x{n}x{k} ta={ta:?} tb={tb:?}",
                        plan.describe()
                    );
                }
            }
        }
    };
}

grid_plans_are_correct_and_pool_invariant!(
    every_f64_grid_plan_is_correct_and_pool_invariant,
    f64,
    Precision::F64,
    1e-9
);
grid_plans_are_correct_and_pool_invariant!(
    every_f32_grid_plan_is_correct_and_pool_invariant,
    f32,
    Precision::F32,
    1e-4
);

/// Grid plans with the scalar kernel pinned must be bitwise invariant to
/// the thread count: threads split `M`/`N` (never the `K` accumulation),
/// so only the blocking axis may legitimately change the result bits.
#[test]
fn scalar_plans_are_thread_invariant() {
    let grid = PlanGrid::full(vec![1, 2, 5]);
    let pool = ThreadPool::new(4);
    for point in grid.points() {
        let plan = point.materialise(Precision::F64).with_isa(KernelIsa::Scalar);
        let reference = ExecutionPlan { threads: 1, ..plan };
        for &(m, n, k, ta, tb) in CASES {
            let (ta, tb) = transposes(ta, tb);
            let (a_len, b_len, lda, ldb) = strides(m, n, k, ta, tb);
            let a: Vec<f64> = fill(a_len.max(1), 17);
            let b: Vec<f64> = fill(b_len.max(1), 18);
            let mut c_plan: Vec<f64> = fill(m * n, 19);
            let mut c_ref = c_plan.clone();

            let base = GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, 1) };
            gemm_with_stats_pooled(
                &pool,
                &base.with_plan(plan),
                1.0,
                &a,
                lda,
                &b,
                ldb,
                0.5,
                &mut c_plan,
                n,
            );
            gemm_with_stats(&base.with_plan(reference), 1.0, &a, lda, &b, ldb, 0.5, &mut c_ref, n);
            assert_eq!(
                c_plan,
                c_ref,
                "scalar plan [{}] must match its single-threaded form bitwise \
                 on {m}x{n}x{k} ta={ta:?} tb={tb:?}",
                plan.describe()
            );
        }
    }
}

/// A materialised threads-only grid point must execute exactly like the
/// plain (pre-plan) entry point — this is the execution-layer half of the
/// v1/v2 artefact migration guarantee.
#[test]
fn threads_only_points_execute_like_the_plain_call() {
    for threads in [1u32, 4] {
        let plan = PlanPoint::threads_only(threads).materialise(Precision::F64);
        assert!(plan.is_threads_only());
        for &(m, n, k, ta, tb) in CASES {
            let (ta, tb) = transposes(ta, tb);
            let (a_len, b_len, lda, ldb) = strides(m, n, k, ta, tb);
            let a: Vec<f64> = fill(a_len.max(1), 23);
            let b: Vec<f64> = fill(b_len.max(1), 24);
            let mut c_plan: Vec<f64> = fill(m * n, 25);
            let mut c_plain = c_plan.clone();

            let plain =
                GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, threads as usize) };
            gemm_with_stats(&plain.with_plan(plan), 2.0, &a, lda, &b, ldb, -1.0, &mut c_plan, n);
            gemm_with_stats(&plain, 2.0, &a, lda, &b, ldb, -1.0, &mut c_plain, n);
            assert_eq!(
                c_plan, c_plain,
                "threads-only plan t={threads} drifted from the plain call on {m}x{n}x{k}"
            );
        }
    }
}
