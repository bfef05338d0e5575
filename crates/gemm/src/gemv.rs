//! GEMV — matrix-vector multiply, `y ← α·A·x + β·y`.
//!
//! The second routine of the future-work extension. Level-2 BLAS does no
//! packing: the matrix is streamed once, so the kernel is memory-bound
//! almost immediately and the optimal thread count saturates at however
//! many threads it takes to reach the machine's bandwidth — a very
//! different response curve from GEMM, which is exactly why per-routine
//! ML thread selection is interesting.

use crate::isa::KernelIsa;
use crate::microkernel::write_back;
use crate::pool::ThreadPool;
use crate::stats::{GemmStats, StatsCollector, ThreadLocalStats};
use crate::threading::SendMutPtr;
use crate::Element;
use std::time::Instant;

/// GEMV streams rows through plain (auto-vectorised) dot products — there
/// is no register-tile micro-kernel to dispatch, so its stats report the
/// scalar ISA at a degenerate `1×1` tile.
const GEMV_KERNEL: (KernelIsa, usize, usize) = (KernelIsa::Scalar, 1, 1);

/// `y ← α·A·x + β·y` for row-major `A` (`m×n`, row stride `lda`) on up to
/// `threads` worker threads (row-partitioned) of the process-wide pool
/// ([`ThreadPool::global`]).
///
/// Returns execution statistics (no packing, so only kernel counters are
/// populated; `kernel_calls` counts row-block dot products).
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemv_with_stats<T: Element>(
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    beta: T,
    y: &mut [T],
    threads: usize,
) -> GemmStats {
    gemv_with_stats_pooled(ThreadPool::global(), m, n, alpha, a, lda, x, beta, y, threads)
}

/// [`gemv_with_stats`] on `pool`. Level-2 BLAS packs nothing, so there is
/// no arena traffic here. Row partitioning and per-row arithmetic do not
/// depend on the pool, so results are bitwise-equal on every pool.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn gemv_with_stats_pooled<T: Element>(
    pool: &ThreadPool,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    beta: T,
    y: &mut [T],
    threads: usize,
) -> GemmStats {
    assert!(lda >= n.max(1), "lda too small");
    if m > 0 && n > 0 {
        assert!(a.len() >= (m - 1) * lda + n, "A buffer too small");
    }
    assert!(x.len() >= n, "x too short");
    assert!(y.len() >= m, "y too short");

    let start = Instant::now();
    if m == 0 {
        // Degenerate shapes still report their wall time (see the GEMM
        // driver's identical early out).
        return GemmStats {
            kernel_isa: GEMV_KERNEL.0,
            mr: GEMV_KERNEL.1,
            nr: GEMV_KERNEL.2,
            wall_ns: start.elapsed().as_nanos() as u64,
            ..GemmStats::default()
        };
    }
    // Never exceed one row per thread: the kernel is bandwidth-bound.
    let threads = threads.max(1).min(m);

    let collector = StatsCollector::default();
    if threads == 1 {
        let mut local = ThreadLocalStats::default();
        row_range(a, lda, x, y.as_mut_ptr(), 0, m, n, alpha, beta, &mut local);
        collector.absorb(&local);
    } else {
        let y_ptr = SendMutPtr(y.as_mut_ptr());
        let base = m / threads;
        let extra = m % threads;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
        let mut r0 = 0;
        for t in 0..threads {
            let rows = base + usize::from(t < extra);
            let r1 = r0 + rows;
            let collector = &collector;
            let start_row = r0;
            tasks.push(Box::new(move || {
                let mut local = ThreadLocalStats::default();
                let ptr = y_ptr;
                row_range(a, lda, x, ptr.0, start_row, r1, n, alpha, beta, &mut local);
                collector.absorb(&local);
            }));
            r0 = r1;
        }
        pool.scope_execute(tasks);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    collector.finish(threads, threads, 1, wall_ns, GEMV_KERNEL)
}

/// Dot-product rows `[r0, r1)` into `y`. `y` may be a raw shared pointer;
/// row ranges are disjoint across workers. Every worker enters here, so
/// the fault-injection hook sits at the top, with the rows as the
/// `m×1×n` product they are.
#[allow(clippy::too_many_arguments)]
fn row_range<T: Element>(
    a: &[T],
    lda: usize,
    x: &[T],
    y: *mut T,
    r0: usize,
    r1: usize,
    n: usize,
    alpha: T,
    beta: T,
    stats: &mut ThreadLocalStats,
) {
    crate::fault::kernel_entry(r1 - r0, 1, n);
    let t0 = Instant::now();
    for i in r0..r1 {
        // n = 0 leaves `a` conceptually empty; never index into it then.
        let row: &[T] = if n == 0 { &[] } else { &a[i * lda..i * lda + n] };
        let mut acc = T::ZERO;
        for (av, xv) in row.iter().zip(&x[..n]) {
            acc = av.mul_add_e(*xv, acc);
        }
        // SAFETY: rows [r0, r1) are owned exclusively by this worker.
        write_back(unsafe { &mut *y.add(i) }, alpha, acc, beta);
        stats.kernel_calls += 1;
    }
    stats.kernel_ns += t0.elapsed().as_nanos() as u64;
}

/// Reference GEMV for tests.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn naive_gemv<T: Element>(
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    x: &[T],
    beta: T,
    y: &mut [T],
) {
    for i in 0..m {
        let mut acc = T::ZERO;
        for j in 0..n {
            acc = a[i * lda + j].mul_add_e(x[j], acc);
        }
        write_back(&mut y[i], alpha, acc, beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                ((s % 2000) as f64 - 1000.0) / 400.0
            })
            .collect()
    }

    fn check(m: usize, n: usize, threads: usize, alpha: f64, beta: f64) {
        let a = fill(m * n.max(1), 1);
        let x = fill(n.max(1), 2);
        let mut y = fill(m, 3);
        let mut y_ref = y.clone();
        gemv_with_stats(m, n, alpha, &a, n.max(1), &x, beta, &mut y, threads);
        naive_gemv(m, n, alpha, &a, n.max(1), &x, beta, &mut y_ref);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            assert!(
                (u - v).abs() <= 1e-10 * (1.0 + v.abs()),
                "mismatch at {i}: {u} vs {v} (m={m} n={n} t={threads})"
            );
        }
    }

    #[test]
    fn serial_matches_naive() {
        for &(m, n) in &[(1, 1), (5, 7), (64, 64), (100, 3), (3, 100)] {
            check(m, n, 1, 1.0, 0.0);
        }
    }

    #[test]
    fn parallel_matches_naive() {
        for &t in &[2, 3, 7, 16] {
            check(257, 129, t, 1.0, 0.0);
        }
    }

    #[test]
    fn alpha_beta_paths() {
        check(50, 40, 4, 2.5, 0.0);
        check(50, 40, 4, 1.0, 1.0);
        check(50, 40, 4, -1.0, 0.5);
    }

    #[test]
    fn threads_clamped_to_rows() {
        let a = fill(3 * 8, 4);
        let x = fill(8, 5);
        let mut y = vec![0.0f64; 3];
        let stats = gemv_with_stats(3, 8, 1.0, &a, 8, &x, 0.0, &mut y, 100);
        assert!(stats.threads_used <= 3);
        assert_eq!(stats.kernel_calls, 3);
    }

    #[test]
    fn zero_n_applies_beta_only() {
        let mut y = vec![2.0f64; 4];
        gemv_with_stats::<f64>(4, 0, 1.0, &[], 1, &[], 0.5, &mut y, 2);
        assert!(y.iter().all(|&v| v == 1.0));
    }

    /// The process pool (sized to the host) against a private pool of 4.
    #[test]
    fn pooled_driver_matches_scoped_driver_bitwise() {
        let pool = crate::pool::ThreadPool::new(4);
        for &(m, n, threads) in &[(257usize, 129usize, 7usize), (64, 64, 2), (5, 100, 16)] {
            let a = fill(m * n, 11);
            let x = fill(n, 12);
            let mut y1 = fill(m, 13);
            let mut y2 = y1.clone();
            let s1 = gemv_with_stats(m, n, 2.0, &a, n, &x, 0.25, &mut y1, threads);
            let s2 = gemv_with_stats_pooled(&pool, m, n, 2.0, &a, n, &x, 0.25, &mut y2, threads);
            assert_eq!(y1, y2, "pooled GEMV differs at m={m} n={n} t={threads}");
            assert_eq!(s1.kernel_calls, s2.kernel_calls);
            assert_eq!(s1.threads_used, s2.threads_used);
        }
    }

    #[test]
    fn f32_path() {
        let m = 41;
        let n = 23;
        let a: Vec<f32> = fill(m * n, 6).iter().map(|&v| v as f32).collect();
        let x: Vec<f32> = fill(n, 7).iter().map(|&v| v as f32).collect();
        let mut y = vec![0.0f32; m];
        let mut y_ref = y.clone();
        gemv_with_stats(m, n, 1.0f32, &a, n, &x, 0.0, &mut y, 4);
        naive_gemv(m, n, 1.0f32, &a, n, &x, 0.0, &mut y_ref);
        for (u, v) in y.iter().zip(&y_ref) {
            assert!((u - v).abs() <= 1e-4 * (1.0 + v.abs()));
        }
    }
}
