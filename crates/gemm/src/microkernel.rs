//! The **scalar reference** register-blocked micro-kernel, and the one
//! write-back rule every tile of `C` follows.
//!
//! The kernel multiplies one packed `MR×kc` micro-panel of `A` by one packed
//! `kc×NR` micro-panel of `B`, accumulating into an `MR×NR` register tile,
//! and finally merges the tile into `C`.
//!
//! Since the kernel-dispatch layer ([`crate::isa`]) landed, drivers reach
//! this code through [`crate::isa::KernelIsa::Scalar`]'s [`crate::isa::Kernel`]
//! entry — the always-available portable path, dispatched on hosts with no
//! SIMD kernel and reached elsewhere by a driver call that pins it
//! ([`crate::gemm::GemmCall::with_isa`]). Its accumulation (tile geometry,
//! 4-way depth unroll, accumulation order) is unchanged from the
//! pre-dispatch implementation, so scalar results stay bitwise identical
//! across releases; the SIMD kernels accumulate with different rounding.
//!
//! The accumulator is a fixed-size 2-D array so LLVM keeps it entirely in
//! vector registers and unrolls the `MR×NR` update; the packed operands are
//! read with unit stride, operands read in place through their own strides
//! — one depth loop, `accumulate_strided`, takes both. Edge tiles (fewer
//! than `MR` rows or `NR` columns live in `C`) run the same arithmetic —
//! the packed panels are zero padded — and only the write-back is masked.
//!
//! ## The write-back rule
//!
//! Every write-back of every routine computes, per live element,
//! `C ← α·acc + β̂·C` with each product rounded on its own and then the
//! sum, where `β̂·C` is `β·C + 0` — or `0` with `C` never read when β = 0
//! (BLAS semantics: the output may hold NaN/Inf garbage, which `0·C` would
//! propagate). The `+ 0` makes `β̂·C` `+0` where `β·C` is `−0`. The rule is
//! written twice: per element in `write_back`, which the naive
//! references, GEMV, SYRK's reference and the masked merge [`merge_tile`]
//! call — the scalar kernel, every SIMD kernel's edge tiles and SYRK's
//! diagonal tiles all merge through it — and once in vectors, for the full
//! tiles of the SIMD template ([`crate::isa`]), with the same operations
//! in the same order. So a cell's bits do not depend on the kind of tile
//! it falls in, and the thread grid, which decides that, changes no result
//! bit.

use crate::blocking::{MR, NR};
use crate::Element;

/// Multiply one micro-panel pair and merge into `C`.
///
/// * `kc` — depth of the rank update,
/// * `a_panel` — `kc·MR` packed values (column-major strips from
///   [`crate::pack::pack_a`]),
/// * `b_panel` — `kc·NR` packed values (row-major strips from
///   [`crate::pack::pack_b`]),
/// * `c` / `ldc` — destination tile origin and its row stride,
/// * `live_m` / `live_n` — live rows/columns of `C` (≤ `MR`/`NR`),
/// * `alpha`, `beta` — merge coefficients; `beta` is the *effective* β
///   (the caller passes the user β on the first rank update of a tile and
///   `1` afterwards).
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn microkernel<T: Element>(
    kc: usize,
    a_panel: &[T],
    b_panel: &[T],
    c: &mut [T],
    ldc: usize,
    live_m: usize,
    live_n: usize,
    alpha: T,
    beta: T,
) {
    if live_m > 0 {
        assert!(c.len() >= (live_m - 1) * ldc + live_n, "C tile out of bounds");
    }
    assert!(live_m <= MR && live_n <= NR, "live region larger than the tile");
    let acc = accumulate(kc, a_panel, b_panel);
    // SAFETY: the asserts above guarantee every `i·ldc + j` written by the
    // merge (i < live_m, j < live_n) is inside `c`, and the accumulator
    // holds MR rows of NR.
    unsafe {
        merge_tile(acc.as_ptr().cast(), NR, c.as_mut_ptr(), ldc, live_m, |_| live_n, alpha, beta)
    }
}

/// Compute the `MR×NR` accumulator tile for one packed micro-panel pair:
/// the in-place kernel's depth loop at the panels' strides.
///
/// # Panics
/// If a panel holds fewer than `kc` steps.
#[inline(always)]
pub fn accumulate<T: Element>(kc: usize, a_panel: &[T], b_panel: &[T]) -> [[T; NR]; MR] {
    assert!(a_panel.len() >= kc * MR && b_panel.len() >= kc * NR, "panel shorter than kc steps");
    // SAFETY: by the assert, every step l < kc reads inside both panels.
    unsafe { accumulate_strided(kc, a_panel.as_ptr(), 1, MR, b_panel.as_ptr(), NR) }
}

/// The accumulator tile of `A·B` over `kc` depth steps, `A(i, l)` at
/// `a[i·a_rs + l·a_ks]` and `B(l, j)` at `b[l·b_ks + j]`: packed panels
/// ([`accumulate`]) or operands read in place (see [`crate::isa::Kernel`]),
/// one rank-1 update a step.
///
/// The depth loop is 4-way unrolled with *sequential* accumulation —
/// the same single accumulator tile is updated in the same `l` order as
/// the plain loop, so results are bitwise identical whatever the strides;
/// the unroll only removes loop overhead and gives LLVM longer
/// straight-line stretches to keep the tile in vector registers.
///
/// # Safety
/// Every `A(i, l)` for `i < MR`, `l < kc` and every `B(l, j)` for
/// `j < NR`, `l < kc` must be readable.
#[inline(always)]
pub(crate) unsafe fn accumulate_strided<T: Element>(
    kc: usize,
    a: *const T,
    a_rs: usize,
    a_ks: usize,
    b: *const T,
    b_ks: usize,
) -> [[T; NR]; MR] {
    let mut acc = [[T::ZERO; NR]; MR];
    let rank1_update = |acc: &mut [[T; NR]; MR], l: usize| {
        // SAFETY: A(·, l) and B(l, ·) are readable by the contract.
        let b_row = unsafe { std::slice::from_raw_parts(b.add(l * b_ks), NR) };
        for (i, acc_row) in acc.iter_mut().enumerate() {
            let ai = unsafe { *a.add(i * a_rs + l * a_ks) };
            for (out, &bj) in acc_row.iter_mut().zip(b_row) {
                *out = ai.mul_add_e(bj, *out);
            }
        }
    };
    let mut l = 0;
    while l + 4 <= kc {
        rank1_update(&mut acc, l);
        rank1_update(&mut acc, l + 1);
        rank1_update(&mut acc, l + 2);
        rank1_update(&mut acc, l + 3);
        l += 4;
    }
    while l < kc {
        rank1_update(&mut acc, l);
        l += 1;
    }
    acc
}

/// The write-back rule (module docs) for one element of `C`:
/// `out ← α·acc + β̂·out`, `out` read only when β ≠ 0.
#[inline(always)]
pub(crate) fn write_back<T: Element>(out: &mut T, alpha: T, acc: T, beta: T) {
    let scaled_c = if beta == T::ZERO { T::ZERO } else { beta.mul_add_e(*out, T::ZERO) };
    *out = alpha.mul_add_e(acc, scaled_c);
}

/// The one masked merge: `write_back` of a tile staged row-major at
/// `tile`, rows `stride` apart, into the first `live_cols(i)` elements of
/// each row `i < live_m` of the `C` tile at `c`, rows `ldc` apart.
///
/// # Safety
/// For every `i < live_m`, `live_cols(i)` elements at `tile + i·stride`
/// are readable, and as many at `c + i·ldc` are valid for writes (and for
/// reads unless β = 0) with no concurrent access.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub unsafe fn merge_tile<T: Element>(
    tile: *const T,
    stride: usize,
    c: *mut T,
    ldc: usize,
    live_m: usize,
    live_cols: impl Fn(usize) -> usize,
    alpha: T,
    beta: T,
) {
    for i in 0..live_m {
        let cols = live_cols(i);
        // SAFETY: row i of both tiles is in bounds by the contract, and
        // one row slice of `C` exists at a time.
        let src = std::slice::from_raw_parts(tile.add(i * stride), cols);
        let dst = std::slice::from_raw_parts_mut(c.add(i * ldc), cols);
        for (out, &acc) in dst.iter_mut().zip(src) {
            write_back(out, alpha, acc, beta);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pack a dense row-major `MR x kc` A-block and `kc x NR` B-block the
    /// way the real pack routines would (single full strip each).
    fn pack_dense(a: &[f64], b: &[f64], kc: usize) -> (Vec<f64>, Vec<f64>) {
        let mut ap = vec![0.0; kc * MR];
        for l in 0..kc {
            for i in 0..MR {
                ap[l * MR + i] = a[i * kc + l];
            }
        }
        let mut bp = vec![0.0; kc * NR];
        for l in 0..kc {
            bp[l * NR..l * NR + NR].copy_from_slice(&b[l * NR..l * NR + NR]);
        }
        (ap, bp)
    }

    fn reference(a: &[f64], b: &[f64], kc: usize) -> Vec<f64> {
        let mut c = vec![0.0; MR * NR];
        for i in 0..MR {
            for j in 0..NR {
                for l in 0..kc {
                    c[i * NR + j] += a[i * kc + l] * b[l * NR + j];
                }
            }
        }
        c
    }

    #[test]
    fn full_tile_matches_reference() {
        let kc = 17;
        let a: Vec<f64> = (0..MR * kc).map(|i| (i % 13) as f64 - 6.0).collect();
        let b: Vec<f64> = (0..kc * NR).map(|i| (i % 7) as f64 * 0.5).collect();
        let (ap, bp) = pack_dense(&a, &b, kc);
        let mut c = vec![0.0; MR * NR];
        microkernel(kc, &ap, &bp, &mut c, NR, MR, NR, 1.0, 0.0);
        assert_eq!(c, reference(&a, &b, kc));
    }

    #[test]
    fn alpha_beta_merge() {
        let kc = 3;
        let a = vec![1.0; MR * kc];
        let b = vec![1.0; kc * NR];
        let (ap, bp) = pack_dense(&a, &b, kc);
        let mut c = vec![2.0; MR * NR];
        microkernel(kc, &ap, &bp, &mut c, NR, MR, NR, 0.5, 3.0);
        // 0.5 * (kc) + 3.0 * 2.0 = 1.5 + 6.0
        assert!(c.iter().all(|&v| (v - 7.5).abs() < 1e-12));
    }

    #[test]
    fn masked_writeback_preserves_dead_lanes() {
        let kc = 2;
        let a = vec![1.0; MR * kc];
        let b = vec![1.0; kc * NR];
        let (ap, bp) = pack_dense(&a, &b, kc);
        let mut c = vec![-9.0; MR * NR];
        microkernel(kc, &ap, &bp, &mut c, NR, 2, 3, 1.0, 0.0);
        for i in 0..MR {
            for j in 0..NR {
                let v = c[i * NR + j];
                if i < 2 && j < 3 {
                    assert_eq!(v, kc as f64);
                } else {
                    assert_eq!(v, -9.0, "dead lane ({i},{j}) overwritten");
                }
            }
        }
    }

    #[test]
    fn zero_kc_only_applies_beta() {
        let ap: Vec<f64> = vec![];
        let bp: Vec<f64> = vec![];
        let mut c = vec![4.0; MR * NR];
        microkernel(0, &ap, &bp, &mut c, NR, MR, NR, 1.0, 0.25);
        assert!(c.iter().all(|&v| v == 1.0));
    }

    #[test]
    fn unrolled_accumulate_matches_sequential_reference_every_kc() {
        // Cover the 4-way unrolled body, the remainder loop, and both
        // together, against a plain sequential accumulation in the same
        // order (must be bitwise equal — same FLOPs, same order).
        for kc in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 33] {
            let ap: Vec<f64> = (0..kc * MR).map(|i| ((i % 23) as f64 - 11.0) * 0.37).collect();
            let bp: Vec<f64> = (0..kc * NR).map(|i| ((i % 19) as f64 - 9.0) * 0.53).collect();
            let mut expect = [[0.0f64; NR]; MR];
            for l in 0..kc {
                for i in 0..MR {
                    let ai = ap[l * MR + i];
                    for j in 0..NR {
                        expect[i][j] = ai.mul_add_e(bp[l * NR + j], expect[i][j]);
                    }
                }
            }
            assert_eq!(accumulate(kc, &ap, &bp), expect, "kc = {kc}");
        }
    }

    #[test]
    fn beta_zero_never_reads_c() {
        // BLAS β = 0 semantics: C may hold garbage (NaN) and must be
        // fully overwritten, not propagated.
        let kc = 3;
        let a = vec![1.0; MR * kc];
        let b = vec![2.0; kc * NR];
        let (ap, bp) = pack_dense(&a, &b, kc);
        let mut c = vec![f64::NAN; MR * NR];
        microkernel(kc, &ap, &bp, &mut c, NR, MR, NR, 0.5, 0.0);
        for (i, &v) in c.iter().enumerate() {
            assert_eq!(v, 0.5 * (kc as f64) * 2.0, "lane {i} kept NaN from C");
        }
        // Masked variant: dead lanes keep their (NaN) values, live lanes
        // are clean.
        let mut c = vec![f64::NAN; MR * NR];
        microkernel(kc, &ap, &bp, &mut c, NR, 2, 3, 1.0, 0.0);
        for i in 0..MR {
            for j in 0..NR {
                let v = c[i * NR + j];
                if i < 2 && j < 3 {
                    assert_eq!(v, kc as f64 * 2.0);
                } else {
                    assert!(v.is_nan(), "dead lane ({i},{j}) was written");
                }
            }
        }
    }

    #[test]
    fn alpha_one_path_matches_general_arithmetic() {
        let kc = 5;
        let a: Vec<f64> = (0..MR * kc).map(|i| (i % 11) as f64 - 5.0).collect();
        let b: Vec<f64> = (0..kc * NR).map(|i| (i % 7) as f64 * 0.25).collect();
        let (ap, bp) = pack_dense(&a, &b, kc);
        let init: Vec<f64> = (0..MR * NR).map(|i| (i as f64 - 30.0) * 0.1).collect();

        // α = 1 takes the one rule like any α (`1·acc` is exact): the
        // reference is `acc + (β·c + 0)`, computed directly.
        let acc = accumulate(kc, &ap, &bp);
        let beta = -0.75;
        let mut c = init.clone();
        microkernel(kc, &ap, &bp, &mut c, NR, MR, NR, 1.0, beta);
        for i in 0..MR {
            for j in 0..NR {
                let expect = acc[i][j] + beta.mul_add_e(init[i * NR + j], 0.0);
                assert_eq!(c[i * NR + j], expect, "({i},{j})");
            }
        }
    }
}
