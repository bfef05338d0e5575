//! Property-based correctness of the GEMM substrate: the blocked,
//! packed, multi-threaded implementation must agree with the naive
//! triple loop for arbitrary shapes, strides, scalars, transposes and
//! thread counts.

use adsala_repro::adsala_gemm::blocking::reads_in_place;
use adsala_repro::adsala_gemm::gemm::{gemm_with_stats, gemm_with_stats_pooled, GemmCall};
use adsala_repro::adsala_gemm::gemv::{gemv_with_stats, naive_gemv};
use adsala_repro::adsala_gemm::naive::naive_gemm;
use adsala_repro::adsala_gemm::pool::ThreadPool;
use adsala_repro::adsala_gemm::syrk::{naive_syrk, syrk_with_stats, syrk_with_stats_pooled};
use adsala_repro::adsala_gemm::{BlockSizes, Element, Kernel, KernelIsa, ThreadGrid, Transpose};
use proptest::prelude::*;

fn fill(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 1000) as f64 - 500.0) / 100.0
        })
        .collect()
}

/// The numeric glue `Element` does not carry, for tests generic over the
/// precision.
trait Scalar: Element {
    const EPS: f64;
    /// A NaN with a payload no arithmetic produces: a cell holding these
    /// bits after a call was neither written nor derived from a read.
    const SENTINEL: Self;
    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn bits(self) -> u64;
}

impl Scalar for f32 {
    const EPS: f64 = f32::EPSILON as f64;
    const SENTINEL: Self = f32::from_bits(0x7fc0_beef);
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl Scalar for f64 {
    const EPS: f64 = f64::EPSILON;
    const SENTINEL: Self = f64::from_bits(0x7ff8_0000_dead_beef);
    fn from_f64(v: f64) -> Self {
        v
    }
    fn to_f64(self) -> f64 {
        self
    }
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

/// One SYRK case on padded leading dimensions (`lda > k`, `ldc > m`), with
/// `k` spanning three `kc` blocks of the dispatched blocking: the lower
/// triangle must match `naive_syrk`, the strict upper triangle and every
/// padding cell (NaN sentinels, `A`'s included, and with β = 0 the lower
/// triangle's old contents too) must be neither written nor read, and the
/// whole buffer must be bitwise the serial result for every thread count,
/// on the process pool (sized to the host) and on a private pool.
#[allow(clippy::too_many_arguments)]
fn syrk_padded_case<T: Scalar>(
    pool: &ThreadPool,
    m: usize,
    k_tail: usize,
    pad_a: usize,
    pad_c: usize,
    alpha: f64,
    beta: f64,
    seed: u64,
) -> Result<(), TestCaseError> {
    let k = 2 * BlockSizes::dispatched::<T>().kc + k_tail;
    let (lda, ldc) = (k + pad_a, m + pad_c);
    let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));

    let mut a = vec![T::SENTINEL; m * lda];
    for (row, values) in a.chunks_mut(lda).zip(fill(m * k, seed).chunks(k)) {
        for (cell, &v) in row.iter_mut().zip(values) {
            *cell = T::from_f64(v / 5.0);
        }
    }
    let mut c0 = vec![T::SENTINEL; m * ldc];
    if beta != T::ZERO {
        for (i, (row, values)) in
            c0.chunks_mut(ldc).zip(fill(m * m, seed + 1).chunks(m)).enumerate()
        {
            for (cell, &v) in row.iter_mut().zip(&values[..=i]) {
                *cell = T::from_f64(v);
            }
        }
    }

    let mut serial = c0.clone();
    syrk_with_stats(m, k, alpha, &a, lda, beta, &mut serial, ldc, 1);
    let mut reference = c0.clone();
    naive_syrk(m, k, alpha, &a, lda, beta, &mut reference, ldc);

    let row_norm: Vec<f64> = a
        .chunks(lda)
        .map(|row| row[..k].iter().map(|v| v.to_f64().powi(2)).sum::<f64>().sqrt())
        .collect();
    for i in 0..m {
        for j in 0..ldc {
            let (got, want, old) = (serial[i * ldc + j], reference[i * ldc + j], c0[i * ldc + j]);
            if j > i {
                prop_assert!(
                    got.bits() == T::SENTINEL.bits(),
                    "({i},{j}) outside the triangle written"
                );
                continue;
            }
            let magnitude = alpha.to_f64().abs() * row_norm[i] * row_norm[j]
                + if beta == T::ZERO { 0.0 } else { (beta.to_f64() * old.to_f64()).abs() };
            let tol = 8.0 * T::EPS * (k + 2) as f64 * magnitude;
            prop_assert!(
                (got.to_f64() - want.to_f64()).abs() <= tol,
                "({i},{j}): {got:?} vs naive {want:?} (tol {tol:e}, m={m} k={k})"
            );
        }
    }

    let serial_bits: Vec<u64> = serial.iter().map(|v| v.bits()).collect();
    for threads in 1..=4 {
        let mut global = c0.clone();
        syrk_with_stats(m, k, alpha, &a, lda, beta, &mut global, ldc, threads);
        let mut pooled = c0.clone();
        syrk_with_stats_pooled(pool, m, k, alpha, &a, lda, beta, &mut pooled, ldc, threads);
        for (what, c) in [("process pool", &global), ("private pool", &pooled)] {
            let bits: Vec<u64> = c.iter().map(|v| v.bits()).collect();
            prop_assert!(
                bits == serial_bits,
                "{what} t={threads} differs from serial (m={m} k={k})"
            );
        }
    }
    Ok(())
}

/// One `m×n×k` GEMM on 1, 2, 4 and 8 threads at every `(α, β)` of
/// α ∈ {1, 1.25, −1} × β ∈ {0, 1, 0.3, −0.75}: the grid decides which
/// cells fall in full and which in edge tiles, and both write back by one
/// rule, so every thread count must give the serial bits.
fn thread_invariant_case<T: Scalar>(m: usize, n: usize, k: usize) -> Result<(), TestCaseError> {
    let convert = |v: Vec<f64>| -> Vec<T> { v.into_iter().map(T::from_f64).collect() };
    let (a, b, c0) = (convert(fill(m * k, 11)), convert(fill(k * n, 12)), convert(fill(m * n, 13)));
    for alpha in [1.0, 1.25, -1.0] {
        for beta in [0.0, 1.0, 0.3, -0.75] {
            let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
            let run = |threads: usize| {
                let mut c = c0.clone();
                let call = GemmCall::new(m, n, k, threads);
                gemm_with_stats(&call, alpha, &a, k, &b, n, beta, &mut c, n);
                c.iter().map(|v| v.bits()).collect::<Vec<u64>>()
            };
            let serial = run(1);
            for t in [2, 4, 8] {
                prop_assert!(
                    run(t) == serial,
                    "{m}x{n}x{k} α={alpha:?} β={beta:?}: {t} threads differ from 1"
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn blocked_gemm_matches_naive(
        m in 1usize..90,
        n in 1usize..90,
        k in 0usize..70,
        threads in 1usize..9,
        ta in prop::bool::ANY,
        tb in prop::bool::ANY,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let ta = if ta { Transpose::Yes } else { Transpose::No };
        let tb = if tb { Transpose::Yes } else { Transpose::No };
        let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
        let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
        let a = fill((ar * ac).max(1), seed);
        let b = fill((br * bc).max(1), seed + 1);
        let mut c = fill(m * n, seed + 2);
        let mut c_ref = c.clone();

        let call = GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, threads) };
        gemm_with_stats(&call, alpha, &a, ac.max(1), &b, bc.max(1), beta, &mut c, n);
        naive_gemm(ta, tb, m, n, k, alpha, &a, ac.max(1), &b, bc.max(1), beta, &mut c_ref, n);

        for (i, (x, y)) in c.iter().zip(&c_ref).enumerate() {
            prop_assert!(
                (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                "mismatch at {i}: {x} vs {y} (m={m} n={n} k={k} t={threads})"
            );
        }
    }

    #[test]
    fn strided_c_padding_is_never_touched(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        pad in 1usize..8,
        threads in 1usize..5,
    ) {
        let a = fill(m * k, 7);
        let b = fill(k * n, 8);
        let ldc = n + pad;
        let mut c = vec![f64::NAN; m * ldc];
        // Initialise only the live view; padding stays NaN.
        for i in 0..m {
            for j in 0..n {
                c[i * ldc + j] = 0.0;
            }
        }
        let call = GemmCall::new(m, n, k, threads);
        gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, ldc);
        for i in 0..m {
            for j in 0..ldc {
                if j < n {
                    prop_assert!(c[i * ldc + j].is_finite(), "live cell ({i},{j}) is NaN");
                } else {
                    prop_assert!(c[i * ldc + j].is_nan(), "padding ({i},{j}) was written");
                }
            }
        }
    }

    #[test]
    fn thread_count_never_changes_the_result(
        m in 1usize..60,
        n in 1usize..60,
        k in 1usize..50,
    ) {
        thread_invariant_case::<f32>(m, n, k)?;
        thread_invariant_case::<f64>(m, n, k)?;
    }

    #[test]
    fn stats_volume_scales_with_problem(
        m in 8usize..80,
        n in 8usize..80,
        k in 8usize..60,
    ) {
        // The packed path's volume: deep enough that both workers' operands
        // are above the L2 rule under which the kernel reads them in place.
        let kernel = Kernel::<f64>::dispatched();
        let grid = ThreadGrid::choose(2, m, n, kernel.mr, kernel.nr);
        let (ms, ns) = (m / grid.rows, n / grid.cols);
        let k = (k..).step_by(16).find(|&k| !reads_in_place::<f64>(ms, ns, k)).unwrap();
        let a = fill(m * k, 13);
        let b = fill(k * n, 14);
        let mut c = vec![0.0f64; m * n];
        let call = GemmCall::new(m, n, k, 2);
        let stats = gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.0, &mut c, n);
        // Everything must be packed at least once; padding only inflates.
        prop_assert!(stats.a_packed_bytes >= (m * k * 8) as u64);
        prop_assert!(stats.b_packed_bytes >= (k * n * 8) as u64);
        prop_assert!(stats.kernel_calls >= 1);
    }

    #[test]
    fn syrk_matches_naive_reference(
        m in 1usize..70,
        k in 0usize..50,
        threads in 1usize..7,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..500,
    ) {
        let a = fill((m * k).max(1), seed);
        let mut c = fill(m * m, seed + 1);
        let mut c_ref = c.clone();
        syrk_with_stats(m, k, alpha, &a, k.max(1), beta, &mut c, m, threads);
        naive_syrk(m, k, alpha, &a, k.max(1), beta, &mut c_ref, m);
        for i in 0..m {
            for j in 0..m {
                let (x, y) = (c[i * m + j], c_ref[i * m + j]);
                prop_assert!(
                    (x - y).abs() <= 1e-9 * (1.0 + y.abs()),
                    "({i},{j}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn gemv_matches_naive_reference(
        m in 1usize..200,
        n in 0usize..150,
        threads in 1usize..9,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..500,
    ) {
        let a = fill((m * n).max(1), seed);
        let x = fill(n.max(1), seed + 1);
        let mut y = fill(m, seed + 2);
        let mut y_ref = y.clone();
        gemv_with_stats(m, n, alpha, &a, n.max(1), &x, beta, &mut y, threads);
        naive_gemv(m, n, alpha, &a, n.max(1), &x, beta, &mut y_ref);
        for (i, (u, v)) in y.iter().zip(&y_ref).enumerate() {
            prop_assert!((u - v).abs() <= 1e-9 * (1.0 + v.abs()), "row {i}: {u} vs {v}");
        }
    }
}

proptest! {
    // The pooled driver spawns a pool per case; keep the case count low.
    #![proptest_config(ProptestConfig::with_cases(16))]

    // The process pool (sized to the host) against a private pool of 4.
    #[test]
    fn pooled_gemm_bit_matches_scoped_gemm(
        m in 1usize..80,
        n in 1usize..80,
        k in 1usize..60,
        threads in 2usize..8,
        seed in 0u64..200,
    ) {
        let pool = ThreadPool::new(4);
        let a = fill(m * k, seed);
        let b = fill(k * n, seed + 1);
        let mut c1 = fill(m * n, seed + 2);
        let mut c2 = c1.clone();
        let call = GemmCall::new(m, n, k, threads);
        gemm_with_stats(&call, 1.0, &a, k, &b, n, 0.5, &mut c1, n);
        gemm_with_stats_pooled(&pool, &call, 1.0, &a, k, &b, n, 0.5, &mut c2, n);
        prop_assert_eq!(c1, c2);
    }
}

proptest! {
    // The shim's case stream is fixed per test name: these 24 cases cover
    // all nine {0, 1, general}² pairs of α and β.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn syrk_on_padded_leading_dimensions_is_exact_masked_and_thread_invariant(
        m in 1usize..120,
        k_tail in 1usize..40,
        pad_a in 1usize..9,
        pad_c in 1usize..9,
        alpha_kind in 0usize..3,
        beta_kind in 0usize..3,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        seed in 0u64..500,
    ) {
        // Ragged: not a multiple of any kernel's `mr` (6, 8, 12).
        let m = (m..).find(|m| m % 6 != 0 && m % 8 != 0).expect("unbounded");
        let alpha = [0.0, 1.0, alpha][alpha_kind];
        let beta = [0.0, 1.0, beta][beta_kind];
        let pool = ThreadPool::new(4);
        syrk_padded_case::<f32>(&pool, m, k_tail, pad_a, pad_c, alpha, beta, seed)?;
        syrk_padded_case::<f64>(&pool, m, k_tail, pad_a, pad_c, alpha, beta, seed)?;
    }
}

/// A GEMM over several blocks of every loop: `A` transposed, `B` both
/// ways, leading dimensions padded with NaN sentinels, β ≠ 0, at an
/// explicit blocking small enough that `k ≥ 2·KC`, `n ≥ 2·NC` and
/// `m > MC` whatever this host's caches derive. On one thread and on
/// three, every live cell must match `naive_gemm` within
/// `8ε(k+2)·(|α|Σ|a||b| + |β·c|)` and no padding cell may change, and
/// three threads must give the serial bits.
fn gemm_across_blocks_case<T: Scalar>(tb: Transpose) {
    let kernel = Kernel::<T>::dispatched();
    let (mr, nr) = (kernel.mr, kernel.nr);
    let blocks = BlockSizes { mc: 3 * mr, kc: 48, nc: 2 * nr, mr, nr };
    let (m, n, k) = (3 * mr + 5, 2 * blocks.nc + nr / 2 + 1, 2 * blocks.kc + 11);
    assert!(m > blocks.mc && n >= 2 * blocks.nc && k >= 2 * blocks.kc);
    let (alpha, beta) = (T::from_f64(1.25), T::from_f64(-0.75));
    // Stored `A` is k×m (transposed), `B` k×n or n×k.
    let (b_rows, b_cols) = if tb.is_transposed() { (n, k) } else { (k, n) };
    let (lda, ldb, ldc) = (m + 3, b_cols + 2, n + 4);
    let padded = |rows: usize, cols: usize, ld: usize, seed: u64| {
        let mut buf = vec![T::SENTINEL; rows * ld];
        for (row, values) in buf.chunks_mut(ld).zip(fill(rows * cols, seed).chunks(cols)) {
            for (cell, &v) in row.iter_mut().zip(values) {
                *cell = T::from_f64(v / 5.0);
            }
        }
        buf
    };
    let a = padded(k, m, lda, 61);
    let b = padded(b_rows, b_cols, ldb, 62);
    let c0 = padded(m, n, ldc, 63);
    let a_at = |i: usize, l: usize| a[l * lda + i].to_f64();
    let b_at = |l: usize, j: usize| {
        if tb.is_transposed() { b[j * ldb + l] } else { b[l * ldb + j] }.to_f64()
    };

    let mut reference = c0.clone();
    naive_gemm(Transpose::Yes, tb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut reference, ldc);
    let mut serial_bits = Vec::new();
    for threads in [1, 3] {
        let call =
            GemmCall { trans_a: Transpose::Yes, trans_b: tb, ..GemmCall::new(m, n, k, threads) }
                .with_blocks(blocks);
        let mut c = c0.clone();
        gemm_with_stats(&call, alpha, &a, lda, &b, ldb, beta, &mut c, ldc);
        let what = format!("{m}x{n}x{k} tb={tb:?} t{threads}");
        for i in 0..m {
            for j in 0..ldc {
                let (got, want, old) = (c[i * ldc + j], reference[i * ldc + j], c0[i * ldc + j]);
                if j >= n {
                    assert_eq!(got.bits(), T::SENTINEL.bits(), "padding ({i},{j}) written: {what}");
                    continue;
                }
                let products: f64 = (0..k).map(|l| (a_at(i, l) * b_at(l, j)).abs()).sum();
                let magnitude =
                    alpha.to_f64().abs() * products + (beta.to_f64() * old.to_f64()).abs();
                let tol = 8.0 * T::EPS * (k + 2) as f64 * magnitude;
                assert!(
                    (got.to_f64() - want.to_f64()).abs() <= tol,
                    "({i},{j}): {got:?} vs naive {want:?} (tol {tol:e}, {what})"
                );
            }
        }
        let bits: Vec<u64> = c.iter().map(|v| v.bits()).collect();
        if threads == 1 {
            serial_bits = bits;
        } else {
            assert!(bits == serial_bits, "{what}: differs from the serial bits");
        }
    }
}

#[test]
fn gemm_across_column_and_depth_blocks_matches_naive() {
    for tb in [Transpose::No, Transpose::Yes] {
        gemm_across_blocks_case::<f32>(tb);
        gemm_across_blocks_case::<f64>(tb);
    }
}

/// Signed zeros through every write-back. The operands are small
/// integers, so every accumulation order is exact and the only bits left
/// to differ are those the write-back rule decides: α < 0, all-zero rows of
/// `A` (their cells accumulate `+0`, and `α·(+0)` is `−0`), `C` seeded with
/// `+0`, `−0` and small integers, at β ∈ {0, 1, −0.75}. The rule gives
/// `−0 + β̂·C`, which is never `−0`. With rows and columns of both full and
/// edge tiles, GEMM on every kernel this host runs and SYRK on the
/// dispatched one must give the naive references' bits at 1, 2 and 3
/// threads.
fn signed_zero_case<T: Scalar>() {
    let small = |i: usize| T::from_f64(((i * 7 + 3) % 9) as f64 - 4.0);
    let signed = |i: usize| match i % 3 {
        0 => T::from_f64(0.0),
        1 => T::from_f64(-0.0),
        _ => small(i),
    };
    let bits = |c: &[T]| c.iter().map(|v| v.bits()).collect::<Vec<u64>>();
    for isa in KernelIsa::supported() {
        let kernel = Kernel::<T>::for_isa(isa);
        let (m, n, k) = (2 * kernel.mr + 3, 2 * kernel.nr + 5, 7);
        let mut a: Vec<T> = (0..m * k).map(small).collect();
        for row in [0, m - 1] {
            a[row * k..][..k].fill(T::ZERO);
        }
        let b: Vec<T> = (0..k * n).map(|i| small(i + 5)).collect();
        let c0: Vec<T> = (0..m * n).map(signed).collect();
        for alpha in [-1.0, -0.5] {
            for beta in [0.0, 1.0, -0.75] {
                let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
                let mut want = c0.clone();
                naive_gemm(
                    Transpose::No,
                    Transpose::No,
                    m,
                    n,
                    k,
                    alpha,
                    &a,
                    k,
                    &b,
                    n,
                    beta,
                    &mut want,
                    n,
                );
                for threads in 1..=3 {
                    let mut got = c0.clone();
                    let call = GemmCall::new(m, n, k, threads).with_isa(isa);
                    gemm_with_stats(&call, alpha, &a, k, &b, n, beta, &mut got, n);
                    assert!(
                        bits(&got) == bits(&want),
                        "GEMM on {} α={alpha:?} β={beta:?} t{threads}: {:?}",
                        kernel.isa,
                        got.iter().zip(&want).find(|(x, y)| x.bits() != y.bits())
                    );
                }
            }
        }
    }
    let kernel = Kernel::<T>::dispatched();
    let m = 2 * kernel.mr.max(kernel.nr) + 3;
    let k = 7;
    let mut a: Vec<T> = (0..m * k).map(small).collect();
    for row in [0, m - 1] {
        a[row * k..][..k].fill(T::ZERO);
    }
    let c0: Vec<T> = (0..m * m).map(signed).collect();
    for alpha in [-1.0, -0.5] {
        for beta in [0.0, 1.0, -0.75] {
            let (alpha, beta) = (T::from_f64(alpha), T::from_f64(beta));
            let mut want = c0.clone();
            naive_syrk(m, k, alpha, &a, k, beta, &mut want, m);
            for threads in 1..=3 {
                let mut got = c0.clone();
                syrk_with_stats(m, k, alpha, &a, k, beta, &mut got, m, threads);
                assert!(
                    bits(&got) == bits(&want),
                    "SYRK on {} α={alpha:?} β={beta:?} t{threads}",
                    kernel.isa
                );
            }
        }
    }
}

#[test]
fn signed_zeros_follow_the_one_write_back_rule() {
    signed_zero_case::<f32>();
    signed_zero_case::<f64>();
}

/// β = 0 over a NaN output, at 1 and 2 threads: SYRK's lower triangle and
/// all of GEMV's `y` must come out finite and equal to the naive
/// references (run over the same NaN output), and SYRK's strict upper
/// triangle must keep its NaN bits.
fn beta_zero_over_nan_case<T: Scalar>() {
    let (m, n, k) = (37usize, 29usize, 45usize);
    let convert = |v: Vec<f64>| -> Vec<T> { v.into_iter().map(T::from_f64).collect() };
    let (alpha, zero) = (T::from_f64(1.25), T::ZERO);
    let a = convert(fill(m * k, 31));
    let x = convert(fill(n, 32));
    // `a` read as the GEMV matrix is `m×n` at `lda = k`.
    let gemv_a = &a[..(m - 1) * k + n];
    let tol = |terms: f64, depth: usize| 8.0 * T::EPS * (depth + 2) as f64 * terms;

    let mut syrk_want = vec![T::SENTINEL; m * m];
    naive_syrk(m, k, alpha, &a, k, zero, &mut syrk_want, m);
    let mut gemv_want = vec![T::SENTINEL; m];
    naive_gemv(m, n, alpha, gemv_a, k, &x, zero, &mut gemv_want);
    for threads in [1, 2] {
        let mut c = vec![T::SENTINEL; m * m];
        let s = syrk_with_stats(m, k, alpha, &a, k, zero, &mut c, m, threads);
        assert_eq!(s.threads_used, threads, "SYRK: the grid must split: {s:?}");
        for i in 0..m {
            for j in 0..m {
                let got = c[i * m + j];
                if j > i {
                    assert_eq!(
                        got.bits(),
                        T::SENTINEL.bits(),
                        "SYRK t{threads}: ({i},{j}) written"
                    );
                    continue;
                }
                let want = syrk_want[i * m + j].to_f64();
                let terms: f64 =
                    (0..k).map(|p| (a[i * k + p].to_f64() * a[j * k + p].to_f64()).abs()).sum();
                assert!(
                    got.to_f64().is_finite() && want.is_finite(),
                    "SYRK t{threads}: ({i},{j}) read the NaN output: {got:?} vs naive {want}"
                );
                assert!(
                    (got.to_f64() - want).abs() <= tol(1.25 * terms, k),
                    "SYRK t{threads}: ({i},{j}) {got:?} vs naive {want}"
                );
            }
        }

        let mut y = vec![T::SENTINEL; m];
        let s = gemv_with_stats(m, n, alpha, gemv_a, k, &x, zero, &mut y, threads);
        assert_eq!(s.threads_used, threads, "GEMV: the grid must split: {s:?}");
        for (i, (&got, &want)) in y.iter().zip(&gemv_want).enumerate() {
            let (got, want) = (got.to_f64(), want.to_f64());
            let terms: f64 = (0..n).map(|p| (a[i * k + p].to_f64() * x[p].to_f64()).abs()).sum();
            assert!(
                got.is_finite() && want.is_finite(),
                "GEMV t{threads}: y[{i}] read the NaN output: {got} vs naive {want}"
            );
            assert!(
                (got - want).abs() <= tol(1.25 * terms, n),
                "GEMV t{threads}: y[{i}] {got} vs naive {want}"
            );
        }
    }
}

#[test]
fn beta_zero_overwrites_a_nan_output_in_syrk_and_gemv() {
    beta_zero_over_nan_case::<f32>();
    beta_zero_over_nan_case::<f64>();
}
