//! SIMD-vs-scalar equivalence suite for the kernel-dispatch layer.
//!
//! The SIMD micro-kernels (AVX-512 / AVX2+FMA / NEON) partition the
//! depth sum across vector lanes and contract multiply-adds into FMAs,
//! so their results differ from the scalar reference path by rounding
//! only. This suite pins that claim down, for **every ISA the host can
//! execute** and not only the one it dispatches (an AVX-512 host still
//! covers the AVX2 kernels; an ISA the host lacks is a printed skip —
//! see `isa_coverage_is_on_the_log`):
//!
//! * every `(transpose_a, transpose_b)` combination, skewed shapes, and
//!   edge tiles (`live_m < MR`, `live_n < NR`) agree within an
//!   accumulation-order error bound derived per element from exact
//!   `f64`/`f128`-style arithmetic (`C·ε·k` times the magnitude sum of
//!   the dot product — the standard reordering bound),
//! * the β = 0 and α = 1 write-backs agree under both kernels (and
//!   β = 0 never reads `C` under either),
//! * the scalar path itself stays **bitwise identical** to the
//!   pre-dispatch (PR 4) implementation, reconstructed here from the
//!   public `accumulate`/`merge_tile` contract.
//!
//! Every comparison pins its kernels on the driver call
//! (`GemmCall::with_isa`), so the scalar path is covered on every host,
//! whatever CPU detection dispatches.

use adsala_repro::adsala::bundle::quick_test_bundle;
use adsala_repro::adsala::{AdsalaService, ServiceConfig};
use adsala_repro::adsala_gemm::blocking::NR;
use adsala_repro::adsala_gemm::blocking::{reads_in_place, BlockSizes, CacheInfo};
use adsala_repro::adsala_gemm::gemm::{gemm_with_stats, gemm_with_stats_pooled, GemmCall};
use adsala_repro::adsala_gemm::isa::{Kernel, KernelIsa};
use adsala_repro::adsala_gemm::microkernel::{accumulate, merge_tile};
use adsala_repro::adsala_gemm::pack::{pack_a, pack_b, MatView};
use adsala_repro::adsala_gemm::pool::ThreadPool;
use adsala_repro::adsala_gemm::{
    gemv_with_stats, gemv_with_stats_pooled, syrk_with_stats, syrk_with_stats_pooled, Algorithm,
    Element, ExecutionPlan, GemvArgs, OpRequest, SyrkArgs, Transpose,
};

fn fill_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            ((s % 2000) as f32 - 1000.0) / 250.0
        })
        .collect()
}

fn fill_f64(n: usize, seed: u64) -> Vec<f64> {
    fill_f32(n, seed).into_iter().map(f64::from).collect()
}

/// Logical `op(A)`/`op(B)` element accessors for building error bounds.
fn op_at<T: Element + Into<f64>>(
    data: &[T],
    ld: usize,
    transposed: bool,
    i: usize,
    j: usize,
) -> f64 {
    if transposed {
        data[j * ld + i].into()
    } else {
        data[i * ld + j].into()
    }
}

/// Per-element reordering bound: different summation orders (and FMA
/// contraction) of the same dot product differ by at most
/// `C · ε · k · Σ_l |a_il|·|b_lj|` plus the α/β merge rounding, which is
/// absorbed into the same form via the output magnitude.
#[allow(clippy::too_many_arguments)]
fn assert_equivalent<T: Element + Into<f64>>(
    label: &str,
    simd: &[T],
    scalar: &[T],
    a: &[T],
    lda: usize,
    ta: Transpose,
    b: &[T],
    ldb: usize,
    tb: Transpose,
    c_init: &[f64],
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    beta: f64,
    eps: f64,
) {
    assert_eq!(simd.len(), scalar.len());
    for i in 0..m {
        for j in 0..n {
            let mut mag = 0.0f64;
            for l in 0..k {
                mag += (op_at(a, lda, ta.is_transposed(), i, l)
                    * op_at(b, ldb, tb.is_transposed(), l, j))
                .abs();
            }
            let scale =
                alpha.abs() * mag + beta.abs() * c_init[i * n + j].abs() + f64::MIN_POSITIVE;
            let bound = 8.0 * eps * (k as f64 + 2.0) * scale;
            let (x, y): (f64, f64) = (simd[i * n + j].into(), scalar[i * n + j].into());
            assert!(
                (x - y).abs() <= bound,
                "{label}: ({i},{j}) dispatched {x} vs scalar {y}, |Δ| = {} > bound {bound}",
                (x - y).abs()
            );
        }
    }
}

/// The ISAs the suite compares with the scalar path: every SIMD ISA this
/// host can execute (scalar itself when there is none).
fn exercised_isas() -> Vec<KernelIsa> {
    let simd: Vec<_> = KernelIsa::supported().filter(|&isa| isa != KernelIsa::Scalar).collect();
    if simd.is_empty() {
        vec![KernelIsa::Scalar]
    } else {
        simd
    }
}

/// What a runner covered, on its log (`-- --nocapture`, as CI runs it):
/// the dispatched ISA (CPU detection's pick), and per ISA whether the
/// equivalence cases ran its kernels (with their tiles) or skipped it.
#[test]
fn isa_coverage_is_on_the_log() {
    let exercised = exercised_isas();
    println!("simd_equivalence: dispatched() = {}", KernelIsa::dispatched());
    for isa in KernelIsa::ALL {
        let (k32, k64) = (Kernel::<f32>::for_isa(isa), Kernel::<f64>::for_isa(isa));
        if exercised.contains(&isa) {
            println!(
                "simd_equivalence: {isa}: exercised, runs as {} (f32 {}x{}, f64 {}x{})",
                k32.isa, k32.mr, k32.nr, k64.mr, k64.nr
            );
        } else if isa.is_supported() {
            println!("simd_equivalence: {isa}: the reference side of every comparison");
        } else {
            println!("simd_equivalence: {isa}: skipped, this host cannot execute it");
        }
    }
    // The blocks the driver tests ran at on this host: the ones here and
    // in `gemm_correctness` that size `k` from `KC` derive it from these.
    match CacheInfo::detected() {
        Some(c) => println!("simd_equivalence: caches l1d={} l2={} l3={}", c.l1d, c.l2, c.l3),
        None => println!("simd_equivalence: caches not probed, fallback blocks"),
    }
    println!("simd_equivalence: f32 blocks {:?}", BlockSizes::dispatched::<f32>());
    println!("simd_equivalence: f64 blocks {:?}", BlockSizes::dispatched::<f64>());
    // The dispatched ISA is never the one left out.
    assert!(exercised.contains(&KernelIsa::dispatched()));
}

/// Run one GEMM under an explicit ISA, returning the output.
#[allow(clippy::too_many_arguments)]
fn run_isa<T: Element>(
    isa: KernelIsa,
    ta: Transpose,
    tb: Transpose,
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c_init: &[T],
) -> (Vec<T>, KernelIsa) {
    let mut c = c_init.to_vec();
    let call =
        GemmCall { trans_a: ta, trans_b: tb, ..GemmCall::new(m, n, k, threads) }.with_isa(isa);
    let stats = gemm_with_stats(&call, alpha, a, lda, b, ldb, beta, &mut c, n.max(1));
    (c, stats.kernel_isa)
}

/// The suite's shape grid: square, skewed both ways, sub-tile, ragged
/// edges around every kernel's MR/NR, and a deep-k accumulation case.
const SHAPES: [(usize, usize, usize); 9] = [
    (64, 64, 64),
    (97, 33, 131),  // ragged in every dimension
    (5, 3, 7),      // below any register tile: all-edge tiles
    (1, 1, 600),    // deep k, single element
    (256, 17, 40),  // tall-skinny, live_n < NR tiles
    (13, 257, 96),  // short-wide, live_m < MR tiles
    (6, 16, 128),   // exactly one AVX2 f32 tile
    (12, 32, 128),  // exactly one AVX-512 f32 tile
    (48, 48, 1200), // multiple KC blocks (β_eff accumulation path)
];

#[test]
fn dispatched_matches_scalar_all_transposes_f32() {
    let isas = exercised_isas();
    for &(m, n, k) in &SHAPES {
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
                let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
                let a = fill_f32(ar * ac, 11);
                let b = fill_f32(br * bc, 22);
                let c0 = fill_f32(m * n, 33);
                let c0_f64: Vec<f64> = c0.iter().map(|&v| f64::from(v)).collect();
                let (alpha, beta) = (1.3f32, -0.4f32);
                let (scalar, ran) = run_isa(
                    KernelIsa::Scalar,
                    ta,
                    tb,
                    m,
                    n,
                    k,
                    3,
                    alpha,
                    &a,
                    ac,
                    &b,
                    bc,
                    beta,
                    &c0,
                );
                assert_eq!(ran, KernelIsa::Scalar);
                for &isa in &isas {
                    let (simd, ran) =
                        run_isa(isa, ta, tb, m, n, k, 3, alpha, &a, ac, &b, bc, beta, &c0);
                    assert_eq!(ran, Kernel::<f32>::for_isa(isa).isa);
                    assert_equivalent(
                        &format!("{isa} f32 {m}x{n}x{k} {ta:?}/{tb:?}"),
                        &simd,
                        &scalar,
                        &a,
                        ac,
                        ta,
                        &b,
                        bc,
                        tb,
                        &c0_f64,
                        m,
                        n,
                        k,
                        f64::from(alpha),
                        f64::from(beta),
                        f64::from(f32::EPSILON),
                    );
                }
            }
        }
    }
}

#[test]
fn dispatched_matches_scalar_all_transposes_f64() {
    let isas = exercised_isas();
    for &(m, n, k) in &SHAPES {
        for ta in [Transpose::No, Transpose::Yes] {
            for tb in [Transpose::No, Transpose::Yes] {
                let (ar, ac) = if ta.is_transposed() { (k, m) } else { (m, k) };
                let (br, bc) = if tb.is_transposed() { (n, k) } else { (k, n) };
                let a = fill_f64(ar * ac, 44);
                let b = fill_f64(br * bc, 55);
                let c0 = fill_f64(m * n, 66);
                let (alpha, beta) = (0.75f64, 2.0f64);
                let (scalar, _) = run_isa(
                    KernelIsa::Scalar,
                    ta,
                    tb,
                    m,
                    n,
                    k,
                    4,
                    alpha,
                    &a,
                    ac,
                    &b,
                    bc,
                    beta,
                    &c0,
                );
                for &isa in &isas {
                    let (simd, ran) =
                        run_isa(isa, ta, tb, m, n, k, 4, alpha, &a, ac, &b, bc, beta, &c0);
                    assert_eq!(ran, Kernel::<f64>::for_isa(isa).isa);
                    assert_equivalent(
                        &format!("{isa} f64 {m}x{n}x{k} {ta:?}/{tb:?}"),
                        &simd,
                        &scalar,
                        &a,
                        ac,
                        ta,
                        &b,
                        bc,
                        tb,
                        &c0,
                        m,
                        n,
                        k,
                        alpha,
                        beta,
                        f64::EPSILON,
                    );
                }
            }
        }
    }
}

#[test]
fn beta_zero_and_alpha_one_specialisations_agree() {
    let (m, n, k) = (45, 29, 77);
    let a = fill_f32(m * k, 7);
    let b = fill_f32(k * n, 8);
    let zero_c = vec![0.0f32; m * n];
    let c0 = fill_f32(m * n, 9);
    let c0_f64: Vec<f64> = c0.iter().map(|&v| f64::from(v)).collect();
    for (alpha, beta, c_init, label) in
        [(1.0f32, 0.0f32, &zero_c, "α=1 β=0"), (2.5, 0.0, &zero_c, "β=0"), (1.0, 0.5, &c0, "α=1")]
    {
        let c_init_f64: Vec<f64> = if beta == 0.0 { vec![0.0; m * n] } else { c0_f64.clone() };
        let no = Transpose::No;
        let (scalar, _) =
            run_isa(KernelIsa::Scalar, no, no, m, n, k, 2, alpha, &a, k, &b, n, beta, c_init);
        for isa in exercised_isas() {
            let (simd, _) = run_isa(isa, no, no, m, n, k, 2, alpha, &a, k, &b, n, beta, c_init);
            assert_equivalent(
                &format!("{isa} {label}"),
                &simd,
                &scalar,
                &a,
                k,
                no,
                &b,
                n,
                no,
                &c_init_f64,
                m,
                n,
                k,
                f64::from(alpha),
                f64::from(beta),
                f64::from(f32::EPSILON),
            );
        }
    }
}

#[test]
fn beta_zero_never_reads_c_under_dispatch() {
    // NaN-poisoned output: β = 0 BLAS semantics must hold under whatever
    // kernel dispatch resolves to, including on edge tiles.
    let (m, n, k) = (19, 21, 16);
    let a = fill_f32(m * k, 1);
    let b = fill_f32(k * n, 2);
    let mut c = vec![f32::NAN; m * n];
    let call = GemmCall::new(m, n, k, 2);
    gemm_with_stats(&call, 1.0f32, &a, k, &b, n, 0.0, &mut c, n);
    assert!(c.iter().all(|v| v.is_finite()), "β = 0 must overwrite NaN garbage");

    // Every routine, driver and serving path: a NaN-poisoned output under
    // β = 0 must come back bit for bit what a zeroed output comes back as
    // (the degraded retry of `OpRequest::is_idempotent` ops rests on it).
    let pool = ThreadPool::new(3);
    let service = AdsalaService::with_config(
        quick_test_bundle().into_shared(),
        ServiceConfig { pool_workers: 3 },
    );
    beta_zero_overwrites_nan::<f32>(&pool, &service, f32::NAN);
    beta_zero_overwrites_nan::<f64>(&pool, &service, f64::NAN);
}

/// Every (routine, path) under β = 0, from a `poison`ed and from a zeroed
/// output, compared bitwise.
fn beta_zero_overwrites_nan<T: Element + From<f32>>(
    pool: &ThreadPool,
    service: &AdsalaService,
    poison: T,
) {
    let (m, n, k) = (37usize, 23usize, 18usize);
    let a: Vec<T> = fill_f32(m * k.max(n), 3).into_iter().map(T::from).collect();
    let b: Vec<T> = fill_f32(k * n, 4).into_iter().map(T::from).collect();
    let (alpha, zero) = (T::from(1.5), T::ZERO);
    // SYRK writes the lower triangle only; everything else in its buffer
    // must keep the start value, which is what `live` filters out.
    let lower = |i: usize| i % m <= i / m;
    let all = |_: usize| true;
    let strassen = GemmCall::new(128, 128, 128, 1).with_plan(
        ExecutionPlan::with_threads(1).with_algorithm(Algorithm::Strassen { cutoff: 64 }),
    );
    let big_a: Vec<T> = fill_f32(128 * 128, 5).into_iter().map(T::from).collect();

    // Run on a poisoned and on a zeroed output; every live cell must agree.
    let check = |label: &str, len: usize, live: &dyn Fn(usize) -> bool, run: &dyn Fn(&mut [T])| {
        let mut poisoned = vec![poison; len];
        let mut zeroed = vec![zero; len];
        run(&mut poisoned);
        run(&mut zeroed);
        for i in (0..len).filter(|&i| live(i)) {
            assert!(
                poisoned[i] == zeroed[i],
                "{label}: β = 0 read the poisoned output at {i}: {:?} vs {:?}",
                poisoned[i],
                zeroed[i]
            );
        }
    };
    check("syrk process pool", m * m, &lower, &|c| {
        syrk_with_stats(m, k, alpha, &a, k, zero, c, m, 3);
    });
    check("syrk private pool", m * m, &lower, &|c| {
        syrk_with_stats_pooled(pool, m, k, alpha, &a, k, zero, c, m, 3);
    });
    check("syrk k=0", m * m, &lower, &|c| {
        syrk_with_stats(m, 0, alpha, &a, 1, zero, c, m, 2);
    });
    check("syrk service", m * m, &lower, &|c| {
        let mut req: OpRequest<'_, T> =
            SyrkArgs { m, k, alpha, a: &a, lda: k, beta: zero, c, ldc: m }.into();
        service.run(&mut req).expect("valid SYRK");
    });
    check("gemv process pool", m, &all, &|y| {
        gemv_with_stats(m, n, alpha, &a, n, &b, zero, y, 3);
    });
    check("gemv private pool", m, &all, &|y| {
        gemv_with_stats_pooled(pool, m, n, alpha, &a, n, &b, zero, y, 3);
    });
    check("gemv service", m, &all, &|y| {
        let mut req: OpRequest<'_, T> =
            GemvArgs { m, n, alpha, a: &a, lda: n, x: &b, beta: zero, y }.into();
        service.run(&mut req).expect("valid GEMV");
    });
    check("gemm k=0", m * n, &all, &|c| {
        gemm_with_stats(&GemmCall::new(m, n, 0, 2), alpha, &a, 1, &b, n, zero, c, n);
    });
    check("gemm strassen", 128 * 128, &all, &|c| {
        let s = gemm_with_stats(&strassen, alpha, &big_a, 128, &big_a, 128, zero, c, 128);
        assert!(matches!(s.algorithm, Algorithm::Strassen { .. }), "{s:?}");
    });
}

/// The process pool (sized to the host) against a private pool of 4:
/// which workers run the tiles changes no per-tile FLOP order, so the
/// results are bitwise identical under the SIMD kernels too, not just
/// scalar.
#[test]
fn pooled_and_scoped_agree_bitwise_under_dispatch() {
    let pool = ThreadPool::new(4);
    let (m, n, k) = (192, 56, 144);
    let a = fill_f64(m * k, 13);
    let b = fill_f64(k * n, 14);
    let c0 = fill_f64(m * n, 15);
    let call = GemmCall::new(m, n, k, 4);
    let mut c_global = c0.clone();
    let mut c_pooled = c0;
    let s1 = gemm_with_stats(&call, 1.1, &a, k, &b, n, 0.3, &mut c_global, n);
    let s2 = gemm_with_stats_pooled(&pool, &call, 1.1, &a, k, &b, n, 0.3, &mut c_pooled, n);
    assert_eq!(c_global, c_pooled);
    assert_eq!(s1.kernel_isa, s2.kernel_isa);
    assert_eq!((s1.mr, s1.nr), (s2.mr, s2.nr));
    assert_eq!(s1.kernel_isa, KernelIsa::dispatched());
}

/// The blocked loop nest on one thread with every block packed — what the
/// drivers ran for every shape before they read operands that fit L2 in
/// place — rebuilt from the public pack routines at `blocks` (clamped to
/// the shape). `tile(kcur, a_panel, b_panel, (row, col), (live_m, live_n),
/// beta_eff)` merges one register tile whose origin is `C`'s `(row, col)`.
fn packed_loop_nest<T: Element>(
    blocks: BlockSizes,
    a: MatView<'_, T>,
    b: MatView<'_, T>,
    beta: T,
    mut tile: impl FnMut(usize, &[T], &[T], (usize, usize), (usize, usize), T),
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let BlockSizes { mc, kc, nc, mr, nr } = blocks.clamped(m, n, k);
    let mut a_buf = vec![T::ZERO; mc.div_ceil(mr) * mr * kc];
    let mut b_buf = vec![T::ZERO; kc * nc.div_ceil(nr) * nr];
    let mut jc = 0;
    while jc < n {
        let ncur = (n - jc).min(nc);
        let mut pc = 0;
        while pc < k {
            let kcur = (k - pc).min(kc);
            let beta_eff = if pc == 0 { beta } else { T::ONE };
            pack_b(&b.sub(pc, jc, kcur, ncur), nr, &mut b_buf);
            let mut ic = 0;
            while ic < m {
                let mcur = (m - ic).min(mc);
                pack_a(&a.sub(ic, pc, mcur, kcur), mr, &mut a_buf);
                for jr in 0..ncur.div_ceil(nr) {
                    let j0 = jr * nr;
                    let live_n = (ncur - j0).min(nr);
                    let b_panel = &b_buf[jr * nr * kcur..(jr + 1) * nr * kcur];
                    for ir in 0..mcur.div_ceil(mr) {
                        let i0 = ir * mr;
                        let live_m = (mcur - i0).min(mr);
                        let a_panel = &a_buf[ir * mr * kcur..(ir + 1) * mr * kcur];
                        let origin = (ic + i0, jc + j0);
                        tile(kcur, a_panel, b_panel, origin, (live_m, live_n), beta_eff);
                    }
                }
                ic += mcur;
            }
            pc += kcur;
        }
        jc += ncur;
    }
}

#[test]
fn scalar_path_is_bitwise_identical_to_pr4_reference() {
    // Reconstruct the pre-dispatch (PR 4) driver inline from the public
    // scalar micro-kernel contract — same blocking constants, same pack
    // layout, same per-tile accumulate + merge order — and require the
    // scalar-pinned driver to reproduce it bit for bit.
    let (m, n, k) = (100usize, 73usize, 65usize);
    let a = fill_f64(m * k, 91);
    let b = fill_f64(k * n, 92);
    let c0 = fill_f64(m * n, 93);
    let (alpha, beta) = (1.25f64, -0.5f64);

    // The driver under test: serial, scalar-pinned, pre-dispatch blocking.
    let blocks = BlockSizes::for_f64();
    let call = GemmCall::new(m, n, k, 1).with_blocks(blocks).with_isa(KernelIsa::Scalar);
    let mut c_driver = c0.clone();
    let stats = gemm_with_stats(&call, alpha, &a, k, &b, n, beta, &mut c_driver, n);
    assert_eq!(stats.kernel_isa, KernelIsa::Scalar);
    assert_eq!((stats.mr, stats.nr), (blocks.mr, blocks.nr));

    // The PR 4 loop nest, re-derived from the public contract.
    let a_view = MatView::row_major(&a, m, k, k);
    let b_view = MatView::row_major(&b, k, n, n);
    let mut c_ref = c0;
    packed_loop_nest(blocks, a_view, b_view, beta, |kcur, ap, bp, (i, j), (lm, ln), beta_eff| {
        let acc = accumulate(kcur, ap, bp);
        // SAFETY: the tile origin and live region lie inside the m×n C
        // buffer by loop construction.
        unsafe {
            let c = c_ref[i * n + j..].as_mut_ptr();
            merge_tile(acc.as_ptr().cast(), NR, c, n, lm, |_| ln, alpha, beta_eff)
        }
    });
    assert_eq!(c_driver, c_ref, "scalar-pinned driver must match the pre-dispatch loop nest");
}

/// The logical `rows×cols` operand stored at `ld`, transposed or not.
fn operand<T: Element>(data: &[T], rows: usize, cols: usize, ld: usize, t: bool) -> MatView<'_, T> {
    if t {
        MatView::row_major(data, cols, rows, ld).t()
    } else {
        MatView::row_major(data, rows, cols, ld)
    }
}

/// `x` and `y` are the same value, NaN included (a NaN cell of `C` that
/// nothing may write stays NaN on both sides).
fn same<T: PartialEq>(x: T, y: T) -> bool {
    #[allow(clippy::eq_op)]
    let both_nan = x != x && y != y;
    x == y || both_nan
}

/// Operands that fit L2 are read in place and only their ragged strips
/// packed: for every ISA this host runs, the blocked and Z-order drivers
/// must give the packed loop nest's bits — row-major and transposed `A`
/// and `B` (a transposed `B` is packed), padded leading dimensions, ragged
/// `m` and `n`, `k = 1` and several `KC` blocks, α ∈ {1, general},
/// β ∈ {0 over a NaN `C`, 1, general} — on shapes under the rule and one
/// above it (packed on both sides). Under the rule two workers on a
/// private pool must also give the packed loop nest's bits.
fn in_place_reads_match_packed<T: Element + From<f32>>() {
    let nan = T::ZERO * T::from(f32::INFINITY);
    let fill = |len: usize, seed: u64| -> Vec<T> {
        fill_f32(len, seed).into_iter().map(T::from).collect::<Vec<T>>()
    };
    let pool = ThreadPool::new(2);
    let pad = 3;
    for isa in KernelIsa::supported() {
        let kernel = Kernel::<T>::for_isa(isa);
        let blocks = BlockSizes::for_isa::<T>(isa);
        let (mr, nr) = (kernel.mr, kernel.nr);
        // Above the rule at the least work: two rows, one ragged B strip.
        let above = (1..).map(|k| k * 64).find(|&k| !reads_in_place::<T>(2, nr + 1, k)).unwrap();
        let shapes = [
            (3 * mr + 2, 2 * nr + 3, 2 * blocks.kc + 5),
            (mr + 1, nr + 1, 1),
            (2 * mr, nr, 37),
            (2, nr + 1, above),
        ];
        assert!(reads_in_place::<T>(mr + 1, nr + 1, 1) && reads_in_place::<T>(2 * mr, nr, 37));
        for (m, n, k) in shapes {
            let under = reads_in_place::<T>(m, n, k);
            let one = T::ONE;
            let (alpha, beta) = (T::from(1.25), T::from(-0.75));
            let transposes = [(false, false), (true, true), (true, false), (false, true)];
            let scalars = [
                (alpha, T::ZERO),
                (one, beta),
                (one, T::ZERO),
                (one, one),
                (alpha, one),
                (alpha, beta),
            ];
            // Fewer cases where they cost the most: deep, and above the rule.
            let (transposes, scalars) = if !under {
                (&transposes[..2], &scalars[5..])
            } else if k > 2 * blocks.kc {
                (&transposes[..], &scalars[..2])
            } else {
                (&transposes[..], &scalars[..])
            };
            for &(ta, tb) in transposes {
                let (lda, ldb, ldc) =
                    (if ta { m } else { k } + pad, if tb { k } else { n } + pad, n + pad);
                let a = fill(if ta { k } else { m } * lda, 81);
                let b = fill(if tb { n } else { k } * ldb, 82);
                let (a_view, b_view) = (operand(&a, m, k, lda, ta), operand(&b, k, n, ldb, tb));
                let flag = |t| if t { Transpose::Yes } else { Transpose::No };
                let serial =
                    GemmCall { trans_a: flag(ta), trans_b: flag(tb), ..GemmCall::new(m, n, k, 1) }
                        .with_isa(isa);
                let zorder = serial.with_plan(serial.plan.with_algorithm(Algorithm::ZOrder));
                for &(alpha, beta) in scalars {
                    let c0 = if beta == T::ZERO { vec![nan; m * ldc] } else { fill(m * ldc, 83) };
                    let mut want = c0.clone();
                    packed_loop_nest(
                        blocks,
                        a_view,
                        b_view,
                        beta,
                        |kc, ap, bp, (i, j), (lm, ln), be| {
                            let c = want[i * ldc + j..].as_mut_ptr();
                            // SAFETY: panels packed for this kernel's tile; the
                            // live region lies inside C by loop construction.
                            unsafe {
                                kernel.run(kc, ap.as_ptr(), bp.as_ptr(), c, ldc, lm, ln, alpha, be)
                            }
                        },
                    );
                    let what = format!("{isa} {m}x{n}x{k} ta={ta} tb={tb} α={alpha:?} β={beta:?}");
                    for call in [serial, zorder] {
                        let mut got = c0.clone();
                        let s =
                            gemm_with_stats(&call, alpha, &a, lda, &b, ldb, beta, &mut got, ldc);
                        assert_eq!(s.kernel_isa, kernel.isa, "{what}");
                        let differs = got.iter().zip(&want).position(|(&x, &y)| !same(x, y));
                        assert_eq!(
                            differs, None,
                            "{what} {:?}: in place differs from packed",
                            s.algorithm
                        );
                    }
                    if under {
                        // Two workers on a private pool, each deciding the
                        // rule on its own tile: still the packed bits.
                        let threads = GemmCall::new(m, n, k, 2).with_isa(isa);
                        let call = GemmCall { trans_a: flag(ta), trans_b: flag(tb), ..threads };
                        let mut pooled = c0.clone();
                        gemm_with_stats_pooled(
                            &pool,
                            &call,
                            alpha,
                            &a,
                            lda,
                            &b,
                            ldb,
                            beta,
                            &mut pooled,
                            ldc,
                        );
                        let differs = pooled.iter().zip(&want).position(|(&x, &y)| !same(x, y));
                        assert_eq!(differs, None, "{what}: two pooled workers differ from packed");
                    }
                }
            }
        }
    }
}

#[test]
fn in_place_reads_are_bitwise_the_packed_loop_nest() {
    in_place_reads_match_packed::<f32>();
    in_place_reads_match_packed::<f64>();
}

/// Panels holding one live line each, built element by element with no
/// pack routine: depth step `l` of the `A` panel has `a_at(l)` in slot 0
/// of `mr`, of the `B` panel `b_at(l)` in slot 0 of `nr`, zeros elsewhere.
/// Every kernel accumulates tile element (0, 0) as the sequential chain
/// over `l` it uses for any other slot, so the tile's first element is
/// the driver's value for that output element whatever tile it fell in.
fn single_line_panels<T: Element>(
    kcur: usize,
    mr: usize,
    nr: usize,
    a_at: impl Fn(usize) -> T,
    b_at: impl Fn(usize) -> T,
) -> (Vec<T>, Vec<T>) {
    let mut a_panel = vec![T::ZERO; kcur * mr];
    let mut b_panel = vec![T::ZERO; kcur * nr];
    for l in 0..kcur {
        a_panel[l * mr] = a_at(l);
        b_panel[l * nr] = b_at(l);
    }
    (a_panel, b_panel)
}

/// Orientation pins for the packing primitives: drivers whose operands
/// reach each primitive (row-major and transposed `A` and `B`, SYRK's
/// `A`/`Aᵀ` pair), with padded leading dimensions and several `KC` blocks,
/// against outputs rebuilt one element at a time from hand-filled panels.
/// A pack routine that moved a wrong or inexact value anywhere changes
/// the driver's bits and not the reference's.
fn orientations_match_elementwise_reference<T: Element>(fill: fn(usize, u64) -> Vec<T>) {
    let pad = 3;
    // GEMM at a pinned scalar kernel (its merge is one formula on every
    // tile); the operands are still packed by the dispatched primitives.
    let (m, n, k) = (37usize, 29usize, 70usize);
    let blocks =
        BlockSizes { mc: 16, kc: 24, nc: 16, ..BlockSizes::for_isa::<T>(KernelIsa::Scalar) };
    let kc = blocks.clamped(m, n, k).kc;
    let alpha = fill(1, 70)[0];
    let beta = fill(1, 71)[0];
    assert!(beta != T::ZERO && alpha != T::ZERO);
    for (ta, tb) in [(false, false), (true, false), (false, true), (true, true)] {
        let (lda, ldb) = (if ta { m } else { k } + pad, if tb { k } else { n } + pad);
        let a = fill(if ta { k } else { m } * lda, 72);
        let b = fill(if tb { n } else { k } * ldb, 73);
        let c0 = fill(m * n, 74);
        let op_a = |i: usize, l: usize| if ta { a[l * lda + i] } else { a[i * lda + l] };
        let op_b = |l: usize, j: usize| if tb { b[j * ldb + l] } else { b[l * ldb + j] };

        let flag = |t| if t { Transpose::Yes } else { Transpose::No };
        let call = GemmCall { trans_a: flag(ta), trans_b: flag(tb), ..GemmCall::new(m, n, k, 1) }
            .with_blocks(blocks)
            .with_isa(KernelIsa::Scalar);
        let mut c_driver = c0.clone();
        let stats = gemm_with_stats(&call, alpha, &a, lda, &b, ldb, beta, &mut c_driver, n);
        assert_eq!(stats.kernel_isa, KernelIsa::Scalar);

        let mut c_ref = c0;
        let (mr, nr) = (stats.mr, stats.nr);
        for i in 0..m {
            for j in 0..n {
                for pc in (0..k).step_by(kc) {
                    let kcur = (k - pc).min(kc);
                    let (a_panel, b_panel) =
                        single_line_panels(kcur, mr, nr, |l| op_a(i, pc + l), |l| op_b(pc + l, j));
                    let acc = accumulate(kcur, &a_panel, &b_panel);
                    let beta_eff = if pc == 0 { beta } else { T::ONE };
                    // SAFETY: a 1×1 live region at element (i, j) of C.
                    unsafe {
                        let c = &mut c_ref[i * n + j];
                        merge_tile(acc.as_ptr().cast(), NR, c, n, 1, |_| 1, alpha, beta_eff)
                    };
                }
            }
        }
        assert!(c_driver == c_ref, "GEMM ta={ta} tb={tb} differs from the elementwise reference");
    }

    // SYRK at the dispatched kernel (it has no other): `pack_a` of the
    // row-major `A`, `pack_b` of `Aᵀ`. Its merge is the driver's own
    // per-element formula on every tile.
    let kernel = Kernel::<T>::dispatched();
    let m = 23usize;
    let kc = BlockSizes::dispatched::<T>().clamped(m, m, usize::MAX).kc;
    let k = 2 * kc + 5;
    let (lda, ldc) = (k + pad, m + pad);
    let a = fill(m * lda, 75);
    let c0 = fill(m * ldc, 76);
    let mut c_driver = c0.clone();
    syrk_with_stats(m, k, alpha, &a, lda, beta, &mut c_driver, ldc, 1);
    let mut c_ref = c0;
    let mut tile = vec![T::ZERO; kernel.mr * kernel.nr];
    for i in 0..m {
        for j in 0..=i {
            for pc in (0..k).step_by(kc) {
                let kcur = (k - pc).min(kc);
                let (a_panel, b_panel) = single_line_panels(
                    kcur,
                    kernel.mr,
                    kernel.nr,
                    |l| a[i * lda + pc + l],
                    |l| a[j * lda + pc + l],
                );
                // SAFETY: panels of kcur·mr / kcur·nr, a tile of mr·nr.
                unsafe { kernel.acc(kcur, a_panel.as_ptr(), b_panel.as_ptr(), tile.as_mut_ptr()) };
                let beta_eff = if pc == 0 { beta } else { T::ONE };
                let out = &mut c_ref[i * ldc + j];
                *out = alpha.mul_add_e(tile[0], beta_eff.mul_add_e(*out, T::ZERO));
            }
        }
    }
    assert!(c_driver == c_ref, "SYRK differs from the elementwise reference");
}

#[test]
fn transposed_operands_and_syrk_match_elementwise_packed_reference() {
    orientations_match_elementwise_reference::<f32>(fill_f32);
    orientations_match_elementwise_reference::<f64>(fill_f64);
}

#[test]
fn kernel_level_edge_tiles_match_scalar_masking() {
    // Every (live_m, live_n) mask of every executable SIMD kernel's own
    // tile, against the scalar kernel on panels packed from the same
    // dense data: the scalar kernel covers the SIMD tile with its own
    // (smaller) tiles, written unmasked into a reference block.
    let scal = Kernel::<f32>::for_isa(KernelIsa::Scalar);
    let kc = 23usize;
    for kern in exercised_isas().into_iter().map(Kernel::<f32>::for_isa) {
        let (mr, nr) = (kern.mr, kern.nr);
        let (ref_m, ref_n) = (mr.next_multiple_of(scal.mr), nr.next_multiple_of(scal.nr));
        // Row i of A is dense_a[i·kc..], depth step l of B dense_b[l·ref_n..].
        let dense_a = fill_f32(ref_m * kc, 3);
        let dense_b = fill_f32(kc * ref_n, 4);
        // One packed panel pair: rows r0.. of A in `pm` slots, columns c0..
        // of B in `pn` slots.
        let pack = |r0: usize, pm: usize, c0: usize, pn: usize| {
            let mut ap = vec![0.0f32; kc * pm];
            let mut bp = vec![0.0f32; kc * pn];
            for l in 0..kc {
                for i in 0..pm {
                    ap[l * pm + i] = dense_a[(r0 + i) * kc + l];
                }
                bp[l * pn..][..pn].copy_from_slice(&dense_b[l * ref_n + c0..][..pn]);
            }
            (ap, bp)
        };
        let mut want = vec![-7.0f32; ref_m * ref_n];
        for r0 in (0..ref_m).step_by(scal.mr) {
            for c0 in (0..ref_n).step_by(scal.nr) {
                let (ap, bp) = pack(r0, scal.mr, c0, scal.nr);
                let origin = want[r0 * ref_n + c0..].as_mut_ptr();
                // SAFETY: scalar-tile panels; a full scalar tile at
                // (r0, c0) lies inside the ref_m×ref_n block.
                unsafe {
                    scal.run(
                        kc,
                        ap.as_ptr(),
                        bp.as_ptr(),
                        origin,
                        ref_n,
                        scal.mr,
                        scal.nr,
                        1.5,
                        0.25,
                    )
                };
            }
        }
        let (ap, bp) = pack(0, mr, 0, nr);
        for live_m in 1..=mr {
            for live_n in 1..=nr {
                let mut got = vec![-7.0f32; mr * nr];
                // SAFETY: panels packed for this kernel's tile; the live
                // region lies inside the mr×nr buffer.
                unsafe {
                    kern.run(
                        kc,
                        ap.as_ptr(),
                        bp.as_ptr(),
                        got.as_mut_ptr(),
                        nr,
                        live_m,
                        live_n,
                        1.5,
                        0.25,
                    )
                };
                for i in 0..mr {
                    for j in 0..nr {
                        let (x, y) = (got[i * nr + j], want[i * ref_n + j]);
                        if i < live_m && j < live_n {
                            let mag: f32 = (0..kc)
                                .map(|l| (dense_a[i * kc + l] * dense_b[l * ref_n + j]).abs())
                                .sum();
                            let bound = 8.0 * f32::EPSILON * (kc as f32 + 2.0) * (1.5 * mag + 2.0);
                            assert!(
                                (x - y).abs() <= bound,
                                "{} live ({live_m},{live_n}) @ ({i},{j}): {x} vs {y}",
                                kern.isa
                            );
                        } else {
                            assert_eq!(
                                x, -7.0,
                                "{}: dead lane ({i},{j}) written at ({live_m},{live_n})",
                                kern.isa
                            );
                        }
                    }
                }
            }
        }
    }
}
