//! SYRK — symmetric rank-k update, `C ← α·A·Aᵀ + β·C` (lower triangle).
//!
//! The paper's conclusion names extending ML thread selection "to other
//! BLAS operations" as future work; SYRK is the natural first target
//! because it shares GEMM's packing/micro-kernel anatomy while doing half
//! the FLOPs (only the lower triangle of the symmetric output is stored).
//!
//! Implementation: the output rows are split into per-thread row bands
//! whose *triangle areas* are balanced (band edges follow a square-root
//! law, since the work below row `r` grows like `r²`). Each band runs a
//! blocked GEMM of `A[band, :] · Aᵀ[:, 0..band_end]`, skipping tiles
//! strictly above the diagonal and masking the merge of tiles straddling
//! it, so the strict upper triangle of `C` is never written.

use crate::blocking::BlockSizes;
use crate::gemm::scale_row_by_beta;
use crate::isa::{Kernel, MAX_TILE_ELEMS};
use crate::pack::{pack_a, pack_b, MatView};
use crate::pool::Executor;
use crate::stats::{GemmStats, StatsCollector, ThreadLocalStats};
use crate::threading::SendMutPtr;
use crate::workspace::with_thread_arena;
use crate::{beta_scaled, Element};
use std::time::Instant;

/// `C ← α·A·Aᵀ + β·C`, updating only the lower triangle (row-major, `A` is
/// `m×k` with row stride `lda`, `C` is `m×m` with row stride `ldc`).
///
/// Returns the same execution statistics as the GEMM driver. Workers are
/// spawned per call; serving paths should use [`syrk_with_stats_pooled`].
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
    drive(Executor::Scoped, m, k, alpha, a, lda, beta, c, ldc, threads)
}

/// Like [`syrk_with_stats`], but running the band workers on a persistent
/// [`crate::pool::ThreadPool`] with warm per-worker packing arenas — the
/// dispatch layer's serving path. Band partitioning and per-band
/// arithmetic are identical, so results are bitwise-equal to the scoped
/// driver.
///
/// # Panics
/// Panics if a buffer is too small for its described shape.
#[allow(clippy::too_many_arguments)] // BLAS-style signature
pub fn syrk_with_stats_pooled<T: Element>(
    pool: &crate::pool::ThreadPool,
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
    drive(Executor::Pool(pool), m, k, alpha, a, lda, beta, c, ldc, threads)
}

/// The one banded SYRK driver behind both public entry points; packing
/// scratch comes from the executor's arena (pool slot or thread-local).
#[allow(clippy::too_many_arguments)]
fn drive<T: Element>(
    exec: Executor<'_>,
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
    assert!(ldc >= m.max(1), "ldc too small");
    if m > 0 {
        assert!(c.len() >= (m - 1) * ldc + m, "C buffer too small");
    }
    let a_view = MatView::row_major(a, m, k, lda);
    // SYRK shares GEMM's packing/micro-kernel anatomy, so it runs the
    // same dispatched register-tile kernel (accumulate-only entry; the
    // triangle merge is masked per element below).
    let kernel = Kernel::<T>::dispatched();
    let kernel_stat = (kernel.isa, kernel.mr, kernel.nr);
    let start = Instant::now();
    if m == 0 {
        // Degenerate shapes still report their wall time (see the GEMM
        // driver's identical early out).
        return GemmStats {
            kernel_isa: kernel.isa,
            mr: kernel.mr,
            nr: kernel.nr,
            wall_ns: start.elapsed().as_nanos() as u64,
            ..GemmStats::default()
        };
    }

    let blocks = BlockSizes::dispatched::<T>().clamped(m, m, k.max(1));
    let bands = band_edges(m, threads.max(1), blocks.mr);
    let n_bands = bands.len() - 1;

    let collector = StatsCollector::default();
    if n_bands == 1 {
        let mut local = ThreadLocalStats::default();
        with_thread_arena(|arena| {
            let (a_buf, b_buf, reused) = arena.checkout_pair::<T>(&blocks);
            local.arena_bytes_reused += reused;
            // SAFETY: single worker owns all of C.
            unsafe {
                band_subproblem(
                    &kernel,
                    &a_view,
                    c.as_mut_ptr(),
                    ldc,
                    0,
                    m,
                    k,
                    alpha,
                    beta,
                    &blocks,
                    a_buf,
                    b_buf,
                    &mut local,
                );
            }
        });
        collector.absorb(&local);
    } else {
        let c_ptr = SendMutPtr(c.as_mut_ptr());
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(n_bands);
        for b in 0..n_bands {
            let (r0, r1) = (bands[b], bands[b + 1]);
            let collector = &collector;
            let blocks = &blocks;
            tasks.push(Box::new(move || {
                let mut local = ThreadLocalStats::default();
                let ptr = c_ptr;
                exec.with_arena(|arena| {
                    let (a_buf, b_buf, reused) = arena.checkout_pair::<T>(blocks);
                    local.arena_bytes_reused += reused;
                    // SAFETY: band rows [r0, r1) are disjoint across
                    // workers, each worker writes only columns 0..=row
                    // within its rows, and the executor blocks until
                    // every task completes, keeping the borrows alive.
                    unsafe {
                        band_subproblem(
                            &kernel, &a_view, ptr.0, ldc, r0, r1, k, alpha, beta, blocks, a_buf,
                            b_buf, &mut local,
                        );
                    }
                });
                collector.absorb(&local);
            }));
        }
        exec.run(tasks);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    collector.finish(n_bands, n_bands, 1, wall_ns, kernel_stat)
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

/// One worker's band: rows `[r0, r1)` of the lower triangle, packing into
/// caller-provided arena scratch.
///
/// # Safety
/// `c` points at the full matrix origin; rows `[r0, r1)` (columns
/// `0..=row`) must be valid and not concurrently accessed.
#[allow(clippy::too_many_arguments)]
unsafe fn band_subproblem<T: Element>(
    kernel: &Kernel<T>,
    a: &MatView<'_, T>,
    c: *mut T,
    ldc: usize,
    r0: usize,
    r1: usize,
    k: usize,
    alpha: T,
    beta: T,
    blocks: &BlockSizes,
    a_buf: &mut [T],
    b_buf: &mut [T],
    stats: &mut ThreadLocalStats,
) {
    let BlockSizes { mc, kc, nc, mr, nr } = *blocks;
    let ms = r1 - r0;
    if ms == 0 {
        return;
    }
    if k == 0 {
        // β-scale the band's lower triangle only.
        for i in r0..r1 {
            scale_row_by_beta(std::slice::from_raw_parts_mut(c.add(i * ldc), i + 1), beta);
        }
        return;
    }
    let ns = r1; // columns 0..r1 participate for this band
    let at = a.t();
    debug_assert!(a_buf.len() >= mc.div_ceil(mr) * mr * kc);
    debug_assert!(b_buf.len() >= kc * nc.div_ceil(nr) * nr);
    debug_assert!((mr, nr) == (kernel.mr, kernel.nr), "blocks/kernel tile mismatch");
    // The register tile staged in memory for the masked triangle merge;
    // MAX_TILE_ELEMS is the maximum over the table `kernel` came from.
    let mut tile = [T::ZERO; MAX_TILE_ELEMS];

    let mut jc = 0;
    while jc < ns {
        let ncur = (ns - jc).min(nc);
        let mut pc = 0;
        while pc < k {
            let kcur = (k - pc).min(kc);
            let beta_eff = if pc == 0 { beta } else { T::ONE };
            // β = 0 (first rank update only): write-only merge, chosen
            // here so the element loops below carry no branch — `C` may be
            // uninitialised and must not be read (NaN/Inf would survive
            // `0·C`). Bitwise equal to the general form for finite `C`.
            let overwrite = beta_eff == T::ZERO;

            let t0 = Instant::now();
            // "B" is Aᵀ: columns jc..jc+ncur are A's rows jc.. transposed.
            let b_block = at.sub(pc, jc, kcur, ncur);
            stats.b_packed_bytes += pack_b(&b_block, nr, b_buf);
            stats.pack_ns += t0.elapsed().as_nanos() as u64;

            let mut ic = 0;
            while ic < ms {
                let mcur = (ms - ic).min(mc);
                let t0 = Instant::now();
                let a_block = a.sub(r0 + ic, pc, mcur, kcur);
                stats.a_packed_bytes += pack_a(&a_block, mr, a_buf);
                stats.pack_ns += t0.elapsed().as_nanos() as u64;

                let t0 = Instant::now();
                let m_strips = mcur.div_ceil(mr);
                let n_strips = ncur.div_ceil(nr);
                for jr in 0..n_strips {
                    let j0 = jc + jr * nr; // global column of tile origin
                    let live_n = (ncur - jr * nr).min(nr);
                    let b_panel = &b_buf[jr * nr * kcur..(jr + 1) * nr * kcur];
                    for ir in 0..m_strips {
                        let i0 = r0 + ic + ir * mr; // global row of tile origin
                        let live_m = (mcur - ir * mr).min(mr);
                        // Tile strictly above the diagonal: every element
                        // has column > row; skip entirely.
                        if j0 > i0 + live_m - 1 {
                            continue;
                        }
                        let a_panel = &a_buf[ir * mr * kcur..(ir + 1) * mr * kcur];
                        // SAFETY: packed panels hold kcur·mr / kcur·nr
                        // elements and the staged tile holds mr·nr
                        // (≤ MAX_TILE_ELEMS).
                        kernel.acc(kcur, a_panel.as_ptr(), b_panel.as_ptr(), tile.as_mut_ptr());
                        // Masked merge: only elements with column ≤ row.
                        for di in 0..live_m {
                            let gi = i0 + di;
                            let max_col = if gi >= j0 { (gi - j0 + 1).min(live_n) } else { 0 };
                            if max_col == 0 {
                                continue;
                            }
                            let acc_row = &tile[di * nr..di * nr + max_col];
                            let row = std::slice::from_raw_parts_mut(c.add(gi * ldc + j0), max_col);
                            if overwrite {
                                for (out, &acc) in row.iter_mut().zip(acc_row) {
                                    *out = alpha.mul_add_e(acc, T::ZERO);
                                }
                            } else {
                                for (out, &acc) in row.iter_mut().zip(acc_row) {
                                    *out = alpha.mul_add_e(acc, beta_eff.mul_add_e(*out, T::ZERO));
                                }
                            }
                        }
                        stats.kernel_calls += 1;
                    }
                }
                stats.kernel_ns += t0.elapsed().as_nanos() as u64;
                ic += mcur;
            }
            pc += kcur;
        }
        jc += ncur;
    }
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
            let out = &mut c[i * ldc + j];
            *out = alpha.mul_add_e(acc, beta_scaled(beta, *out));
        }
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
