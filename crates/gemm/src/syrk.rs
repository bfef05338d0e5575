//! SYRK — symmetric rank-k update, `C ← α·A·Aᵀ + β·C` (lower triangle).
//!
//! The paper's conclusion names extending ML thread selection "to other
//! BLAS operations" as future work; SYRK is the natural first target
//! because it shares GEMM's packing/micro-kernel anatomy while doing half
//! the FLOPs (only the lower triangle of the symmetric output is stored).
//!
//! It shares the code too: SYRK is the blocked GEMM `A·Aᵀ` of
//! [`crate::gemm`] — same prologue, same task builder, same loop nest, `B`
//! being the transposed view of `A` — run under a different partition and
//! a different merge. The output rows are split into per-thread row bands
//! whose *triangle areas* are balanced (band edges follow a square-root
//! law, since the work below row `r` grows like `r²`), and the
//! lower-triangle merge stops each band at its diagonal, skips tiles
//! strictly above it and masks the merge of tiles straddling it, so the
//! strict upper triangle of `C` is never written. A tile wholly on or
//! below the diagonal runs the fused kernel, as GEMM's do; only the tiles
//! the diagonal cuts are staged. Both write back by the one rule (see
//! [`crate::microkernel`]), so which tiles the bands cut changes no bit.

use crate::gemm::{run_tiles, Member, Merge, Prologue};
use crate::microkernel::write_back;
use crate::pack::MatView;
use crate::plan::ExecutionPlan;
use crate::pool::ThreadPool;
use crate::stats::GemmStats;
use crate::threading::ThreadGrid;
use crate::Element;

/// `C ← α·A·Aᵀ + β·C`, updating only the lower triangle (row-major, `A` is
/// `m×k` with row stride `lda`, `C` is `m×m` with row stride `ldc`).
///
/// Returns the same execution statistics as the GEMM driver. Workers run
/// on the process-wide pool ([`ThreadPool::global`]);
/// [`syrk_with_stats_pooled`] runs the same driver on a pool the caller
/// owns.
///
/// # Panics
/// Panics if a buffer is too small for its described shape.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn syrk_with_stats<T: Element>(
    m: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
    threads: usize,
) -> GemmStats {
    syrk_with_stats_pooled(ThreadPool::global(), m, k, alpha, a, lda, beta, c, ldc, threads)
}

/// [`syrk_with_stats`] on `pool`, its band workers drawing on their warm
/// packing arenas — the dispatch layer's serving path: the one-member
/// batch `A·Aᵀ` on a `bands×1` grid under the lower-triangle merge. Band
/// partitioning and per-band arithmetic do not depend on the pool, so
/// results are bitwise-equal on every pool.
///
/// # Panics
/// Panics if a buffer is too small for its described shape.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn syrk_with_stats_pooled<T: Element>(
    pool: &ThreadPool,
    m: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
    threads: usize,
) -> GemmStats {
    let a_view = MatView::row_major(a, m, k, lda);
    let member = Member::new(a_view, m, m, alpha, beta, c, ldc);
    // SYRK takes no plan: the process-wide kernel and its blocking.
    let pro = Prologue::<T>::resolve(&ExecutionPlan::with_threads(1), None, m, m, k);
    if m == 0 {
        return pro.empty_stats();
    }
    let bands = band_edges(m, threads.max(1), pro.blocks.mr);
    let grid = ThreadGrid { rows: bands.len() - 1, cols: 1 };
    let rows = |band: usize| (bands[band], bands[band + 1]);
    // SAFETY: `member` was checked for this `m×m`, and `band_edges` ascend
    // strictly from 0 to `m`, so the bands partition the rows.
    unsafe { run_tiles::<T, LowerTriangle>(pool, &pro, &a_view.t(), &member, grid, rows) };
    pro.finish(&member.stats, grid)
}

/// SYRK's merge: row `r` of `C` is written up to its diagonal element.
struct LowerTriangle;

impl Merge for LowerTriangle {
    const FULL: bool = false;

    #[inline(always)]
    fn live_cols(row: usize, ns: usize) -> usize {
        (row + 1).min(ns)
    }
}

/// Row-band edges with balanced triangle area: `edges[t] ≈ m·√(t/T)`,
/// rounded to `mr` multiples, deduplicated, always covering `[0, m]`.
pub fn band_edges(m: usize, threads: usize, mr: usize) -> Vec<usize> {
    let mut edges = vec![0usize];
    for t in 1..threads {
        let frac = (t as f64 / threads as f64).sqrt();
        let e = ((m as f64 * frac / mr as f64).round() as usize) * mr;
        let e = e.min(m);
        if e > *edges.last().expect("non-empty") {
            edges.push(e);
        }
    }
    if *edges.last().expect("non-empty") < m {
        edges.push(m);
    }
    edges
}

/// Reference SYRK for the tests: naive lower-triangle update.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn naive_syrk<T: Element>(
    m: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    for i in 0..m {
        for j in 0..=i {
            let mut acc = T::ZERO;
            for l in 0..k {
                acc = a[i * lda + l].mul_add_e(a[j * lda + l], acc);
            }
            write_back(&mut c[i * ldc + j], alpha, acc, beta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::{fnv1a, FNV_BASIS};
    use crate::isa::KernelIsa;

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f64 - 1000.0) / 300.0
            })
            .collect()
    }

    fn check(m: usize, k: usize, threads: usize, alpha: f64, beta: f64) {
        let a = fill(m * k.max(1), 1);
        let mut c = fill(m * m, 2);
        let mut c_ref = c.clone();
        syrk_with_stats(m, k, alpha, &a, k.max(1), beta, &mut c, m, threads);
        naive_syrk(m, k, alpha, &a, k.max(1), beta, &mut c_ref, m);
        for i in 0..m {
            for j in 0..m {
                let (x, y) = (c[i * m + j], c_ref[i * m + j]);
                assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                    "mismatch at ({i},{j}): {x} vs {y} (m={m} k={k} t={threads})"
                );
            }
        }
    }

    #[test]
    fn serial_matches_naive() {
        for &(m, k) in &[(1, 1), (8, 8), (17, 33), (64, 20), (100, 7)] {
            check(m, k, 1, 1.0, 0.0);
        }
    }

    #[test]
    fn parallel_matches_naive() {
        for &threads in &[2, 3, 4, 8] {
            check(150, 40, threads, 1.0, 0.5);
        }
    }

    #[test]
    fn alpha_beta_paths() {
        check(60, 25, 4, 2.0, 0.0);
        check(60, 25, 4, -0.5, 1.0);
        check(60, 25, 4, 1.0, -2.0);
    }

    #[test]
    fn upper_triangle_is_never_touched() {
        let m = 70;
        let k = 15;
        let a = fill(m * k, 3);
        let mut c = vec![0.0f64; m * m];
        for i in 0..m {
            for j in i + 1..m {
                c[i * m + j] = f64::NAN; // poison the strict upper triangle
            }
        }
        syrk_with_stats(m, k, 1.0, &a, k, 0.0, &mut c, m, 4);
        for i in 0..m {
            for j in 0..m {
                let v = c[i * m + j];
                if j > i {
                    assert!(v.is_nan(), "upper ({i},{j}) was written: {v}");
                } else {
                    assert!(v.is_finite(), "lower ({i},{j}) is NaN");
                }
            }
        }
    }

    #[test]
    fn large_k_accumulates_across_blocks() {
        check(32, 900, 3, 1.0, 1.0);
    }

    #[test]
    fn k_zero_scales_lower_triangle_by_beta() {
        let m = 10;
        let mut c = vec![4.0f64; m * m];
        syrk_with_stats::<f64>(m, 0, 1.0, &[], 1, 0.25, &mut c, m, 2);
        for i in 0..m {
            for j in 0..m {
                let expect = if j <= i { 1.0 } else { 4.0 };
                assert_eq!(c[i * m + j], expect, "({i},{j})");
            }
        }
    }

    #[test]
    fn band_edges_cover_and_balance() {
        for &(m, t) in &[(100, 4), (1000, 16), (64, 64), (7, 3)] {
            let edges = band_edges(m, t, 8);
            assert_eq!(edges[0], 0);
            assert_eq!(*edges.last().unwrap(), m);
            assert!(edges.windows(2).all(|w| w[0] < w[1]), "{edges:?}");
        }
        // Square-root spacing: the last band should be much thinner than
        // the first for a triangle.
        let edges = band_edges(1024, 8, 8);
        let first = edges[1] - edges[0];
        let last = edges[edges.len() - 1] - edges[edges.len() - 2];
        assert!(first > 2 * last, "bands not triangle-balanced: {edges:?}");
    }

    #[test]
    fn stats_are_reported() {
        let m = 128;
        let k = 64;
        let a = fill(m * k, 4);
        let mut c = vec![0.0f64; m * m];
        let stats = syrk_with_stats(m, k, 1.0, &a, k, 0.0, &mut c, m, 4);
        assert!(stats.threads_used >= 2);
        assert!(stats.kernel_calls > 0);
        assert!(stats.a_packed_bytes > 0 && stats.b_packed_bytes > 0);
    }

    /// The process pool (sized to the host) against a private pool of 4.
    #[test]
    fn pooled_driver_matches_scoped_driver_bitwise() {
        let pool = crate::pool::ThreadPool::new(4);
        for &(m, k, threads) in &[(64usize, 20usize, 4usize), (150, 40, 8), (33, 7, 3)] {
            let a = fill(m * k, 11);
            let mut c1 = fill(m * m, 12);
            let mut c2 = c1.clone();
            let s1 = syrk_with_stats(m, k, 1.5, &a, k, 0.5, &mut c1, m, threads);
            let s2 = syrk_with_stats_pooled(&pool, m, k, 1.5, &a, k, 0.5, &mut c2, m, threads);
            assert_eq!(c1, c2, "pooled SYRK differs at m={m} k={k} t={threads}");
            assert_eq!(s1.kernel_calls, s2.kernel_calls);
            assert_eq!(s1.threads_used, s2.threads_used);
        }
    }

    /// SYRK on `isa`'s kernel: [`syrk_with_stats`] with the kernel pinned,
    /// on the process pool.
    #[allow(clippy::too_many_arguments)] // BLAS-style signature
    fn syrk_at<T: Element>(
        isa: KernelIsa,
        m: usize,
        k: usize,
        alpha: T,
        a: &[T],
        beta: T,
        c: &mut [T],
        threads: usize,
    ) {
        let a_view = MatView::row_major(a, m, k, k);
        let member = Member::new(a_view, m, m, alpha, beta, c, m);
        let pro = Prologue::<T>::resolve(&ExecutionPlan::with_threads(1), Some(isa), m, m, k);
        let bands = band_edges(m, threads, pro.blocks.mr);
        let grid = ThreadGrid { rows: bands.len() - 1, cols: 1 };
        let rows = |band: usize| (bands[band], bands[band + 1]);
        // SAFETY: as in `syrk_with_stats_pooled`.
        unsafe {
            run_tiles::<T, LowerTriangle>(
                ThreadPool::global(),
                &pro,
                &a_view.t(),
                &member,
                grid,
                rows,
            )
        };
    }

    /// The hash of `C` after SYRKs whose lower triangles hold tiles wholly
    /// below the diagonal and tiles it cuts, at general α and β, on 1, 2
    /// and 3 threads (`k` below every derived `KC`, so one depth block on
    /// any host).
    fn syrk_bits<T: Element + Into<f64> + From<f32>>(isa: KernelIsa, from: fn(f64) -> T) -> u64 {
        let to_t = |v: Vec<f64>| -> Vec<T> { v.into_iter().map(from).collect() };
        let mut hash = FNV_BASIS;
        for (m, k) in [(45usize, 29usize), (77, 53)] {
            let a = to_t(fill(m * k, 31));
            let c0 = to_t(fill(m * m, 32));
            for (alpha, beta) in [(1.25f32, -0.75f32), (-0.5, 0.3)] {
                for threads in 1..=3 {
                    let mut c = c0.clone();
                    syrk_at(isa, m, k, T::from(alpha), &a, T::from(beta), &mut c, threads);
                    hash = fnv1a(hash, &c);
                }
            }
        }
        hash
    }

    /// SYRK's bits at general α and β, recorded per kernel; a kernel with
    /// no recorded bits is a printed skip.
    #[test]
    fn write_back_keeps_its_recorded_bits() {
        const RECORDED: [(KernelIsa, u64, u64); 3] = [
            (KernelIsa::Avx512, 0x9360_bd87_43f4_c9c5, 0x66d9_b14d_d33e_e4d9),
            (KernelIsa::Avx2Fma, 0x9360_bd87_43f4_c9c5, 0x66d9_b14d_d33e_e4d9),
            (KernelIsa::Scalar, 0xf576_dbbe_976c_2574, 0x13b6_2796_54b5_df0f),
        ];
        for isa in KernelIsa::supported() {
            let got = (syrk_bits(isa, |x| x as f32), syrk_bits(isa, |x| x));
            eprintln!("{isa}: {:#018x}, {:#018x}", got.0, got.1);
            match RECORDED.iter().find(|r| r.0 == isa) {
                Some(&(_, f32_bits, f64_bits)) => assert_eq!(got, (f32_bits, f64_bits), "{isa}"),
                None => eprintln!("skipped: no bits recorded for the {isa} kernel"),
            }
        }
    }

    #[test]
    fn f32_path() {
        let m = 33;
        let k = 21;
        let a: Vec<f32> = fill(m * k, 5).iter().map(|&v| v as f32).collect();
        let mut c = vec![0.0f32; m * m];
        let mut c_ref = c.clone();
        syrk_with_stats(m, k, 1.0f32, &a, k, 0.0, &mut c, m, 3);
        naive_syrk(m, k, 1.0f32, &a, k, 0.0, &mut c_ref, m);
        for (x, y) in c.iter().zip(&c_ref) {
            assert!((x - y).abs() <= 1e-3 * (1.0 + y.abs()));
        }
    }
}
