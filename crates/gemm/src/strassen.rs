//! Strassen recursion on top of the blocked driver.
//!
//! Classic Strassen trades one multiplication for extra additions: each
//! recursion level replaces 8 half-size products with 7, an asymptotic
//! win that becomes a *practical* win only once the sub-problems are
//! large enough for the saved kernel work to outweigh the quadrant
//! add/copy traffic. That threshold is shape- and host-dependent — which
//! is exactly why the algorithm choice lives on the learned
//! [`crate::plan::ExecutionPlan`] rather than in a hard-coded size test.
//!
//! Implementation shape:
//!
//! * The recursion computes `C += α·op(A)·op(B)` with `C` pre-scaled by
//!   `β` once at the top, so every base case is a plain accumulate
//!   (`β = 1`) through [`crate::gemm`]'s blocked driver with the plan's
//!   remaining axes (threads, ISA, blocking) intact.
//! * Operand quadrants are addressed through a `Quad` — an offset into
//!   the caller's buffer plus the original leading dimension and
//!   transpose flag — so no input data is ever copied to take a
//!   quadrant; only the seven product temporaries and the two quadrant
//!   sums are materialised.
//! * All temporaries come from one up-front checkout of a dedicated
//!   thread-local [`PackArena`] (separate from the packing arena the
//!   blocked base case borrows on this same thread), preserving the
//!   zero-allocation steady state: one warm arena per serving thread,
//!   no per-call heap traffic.
//!
//! Eligibility is strict: every dimension must be even and at least
//! `2·cutoff` (per level), otherwise the dispatch layer degrades the call
//! to the blocked driver and reports the downgrade via the executed
//! algorithm in [`GemmStats`].

use std::cell::RefCell;
use std::time::Instant;

use crate::gemm::{drive, scale_row_by_beta, GemmCall};
use crate::plan::Algorithm;
use crate::pool::ThreadPool;
use crate::stats::GemmStats;
use crate::workspace::PackArena;
use crate::{Element, Transpose};

/// Hard floor on the recursion cutoff: below this the quadrant add/copy
/// traffic always dominates the saved kernel work, so plan-supplied
/// cutoffs are clamped up to it at execution time.
pub const MIN_CUTOFF: u32 = 64;

/// How many recursion levels Strassen would take for this shape: halve
/// all three dimensions while they stay even and at least `2·cutoff`.
pub fn levels(m: usize, n: usize, k: usize, cutoff: u32) -> u32 {
    let cut = cutoff.max(MIN_CUTOFF) as usize;
    let (mut m, mut n, mut k) = (m, n, k);
    let mut l = 0;
    while m % 2 == 0 && n % 2 == 0 && k % 2 == 0 && m.min(n).min(k) >= 2 * cut {
        m /= 2;
        n /= 2;
        k /= 2;
        l += 1;
    }
    l
}

/// `true` when Strassen would recurse at least once for this shape — the
/// dispatch layer's eligibility test. Ineligible calls run blocked.
pub fn applicable(m: usize, n: usize, k: usize, cutoff: u32) -> bool {
    levels(m, n, k, cutoff) > 0
}

/// `true` when one more recursion level is legal for this sub-problem.
fn recursable(m: usize, n: usize, k: usize, cut: usize) -> bool {
    m.is_multiple_of(2) && n.is_multiple_of(2) && k.is_multiple_of(2) && m.min(n).min(k) >= 2 * cut
}

/// Scratch elements the recursion needs for an `m×n×k` problem: per
/// level, two quadrant-sum buffers (`m/2·k/2` and `k/2·n/2`) plus one
/// product buffer (`m/2·n/2`); the seven products run sequentially, so
/// children reuse one child-sized region.
fn scratch_elems(m: usize, n: usize, k: usize, cut: usize) -> usize {
    if !recursable(m, n, k, cut) {
        return 0;
    }
    let (m2, n2, k2) = (m / 2, n / 2, k / 2);
    m2 * k2 + k2 * n2 + m2 * n2 + scratch_elems(m2, n2, k2, cut)
}

thread_local! {
    /// Strassen's temporary store, deliberately distinct from the packing
    /// [`crate::workspace::with_thread_arena`] arena: the serial blocked
    /// base case borrows *that* arena on this same thread while the
    /// recursion still holds its scratch, so the two must never share a
    /// `RefCell`.
    static STRASSEN_ARENA: RefCell<PackArena> = const { RefCell::new(PackArena::new()) };
}

/// Counter snapshot of the calling thread's Strassen scratch arena (test
/// and telemetry hook for the zero-allocation invariant).
pub fn strassen_arena_stats() -> crate::workspace::ArenaStats {
    STRASSEN_ARENA.with(|arena| arena.borrow().stats())
}

/// A read-only quadrant of an input operand: offset + original leading
/// dimension + transpose flag. Logical element `(i, j)` lives at
/// `data[off + j·ld + i]` when transposed, `data[off + i·ld + j]`
/// otherwise — so a quadrant of a transposed operand is just a different
/// offset with the flag kept, and the base case can hand `data[off..]`
/// straight to the blocked driver as a stored matrix.
#[derive(Clone, Copy)]
struct Quad<'a, T> {
    data: &'a [T],
    off: usize,
    ld: usize,
    trans: bool,
}

impl<'a, T: Element> Quad<'a, T> {
    fn new(data: &'a [T], ld: usize, trans: bool) -> Self {
        Self { data, off: 0, ld, trans }
    }

    /// The quadrant whose logical top-left corner is `(i0, j0)`.
    fn sub(self, i0: usize, j0: usize) -> Self {
        let off = self.off + if self.trans { j0 * self.ld + i0 } else { i0 * self.ld + j0 };
        Self { off, ..self }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> T {
        self.data[self.off + if self.trans { j * self.ld + i } else { i * self.ld + j }]
    }

    /// The stored-matrix slice the blocked driver consumes.
    fn slice(&self) -> &'a [T] {
        &self.data[self.off..]
    }

    fn transpose_flag(&self) -> Transpose {
        if self.trans {
            Transpose::Yes
        } else {
            Transpose::No
        }
    }
}

/// Everything the recursion threads through unchanged.
struct Ctx<'p> {
    pool: &'p ThreadPool,
    /// The caller's call with the algorithm forced back to blocked — the
    /// base case must not re-enter the Strassen dispatch. Each base case
    /// takes its plan and kernel pin, with its own shape and flags.
    base: GemmCall,
    /// Effective cutoff (plan cutoff clamped to [`MIN_CUTOFF`]).
    cut: usize,
    /// Aggregated counters across all base-case driver calls.
    agg: GemmStats,
}

impl Ctx<'_> {
    /// Fold one base-case call's stats in: volume counters sum, the
    /// thread grid reports the widest sub-call, kernel identity is
    /// uniform across sub-calls.
    fn absorb(&mut self, s: &GemmStats) {
        self.agg.kernel_isa = s.kernel_isa;
        self.agg.mr = s.mr;
        self.agg.nr = s.nr;
        self.agg.threads_used = self.agg.threads_used.max(s.threads_used);
        self.agg.grid_rows = self.agg.grid_rows.max(s.grid_rows);
        self.agg.grid_cols = self.agg.grid_cols.max(s.grid_cols);
        self.agg.a_packed_bytes += s.a_packed_bytes;
        self.agg.b_packed_bytes += s.b_packed_bytes;
        self.agg.arena_bytes_reused += s.arena_bytes_reused;
        self.agg.kernel_calls += s.kernel_calls;
        self.agg.pack_ns += s.pack_ns;
        self.agg.kernel_ns += s.kernel_ns;
        self.agg.sync_ns += s.sync_ns;
    }
}

/// `dst[i·cols + j] = x(i,j) ± y(i,j)` — materialise a quadrant sum or
/// difference as a dense row-major temporary.
fn combine_quads<T: Element>(
    dst: &mut [T],
    rows: usize,
    cols: usize,
    x: Quad<'_, T>,
    y: Quad<'_, T>,
    subtract: bool,
) {
    let mut idx = 0;
    for i in 0..rows {
        for j in 0..cols {
            let (xv, yv) = (x.at(i, j), y.at(i, j));
            dst[idx] = if subtract { xv.sub_e(yv) } else { xv + yv };
            idx += 1;
        }
    }
}

/// `C[i0.., j0..] += coef · M` for an `m2×n2` dense product buffer.
#[allow(clippy::too_many_arguments)]
fn axpy_quadrant<T: Element>(
    c: &mut [T],
    ldc: usize,
    i0: usize,
    j0: usize,
    m2: usize,
    n2: usize,
    coef: T,
    m_buf: &[T],
) {
    for i in 0..m2 {
        let row = &mut c[(i0 + i) * ldc + j0..][..n2];
        let src = &m_buf[i * n2..][..n2];
        for (cv, &mv) in row.iter_mut().zip(src) {
            *cv = coef.mul_add_e(mv, *cv);
        }
    }
}

/// `C += α·op(A)·op(B)` with `C` already initialised. Recurses while the
/// shape allows, otherwise runs one blocked base-case accumulate.
#[allow(clippy::too_many_arguments)]
fn accumulate<T: Element>(
    ctx: &mut Ctx<'_>,
    a: Quad<'_, T>,
    b: Quad<'_, T>,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    c: &mut [T],
    ldc: usize,
    scratch: &mut [T],
) {
    if !recursable(m, n, k, ctx.cut) {
        let call = GemmCall {
            trans_a: a.transpose_flag(),
            trans_b: b.transpose_flag(),
            m,
            n,
            k,
            ..ctx.base
        };
        let s = drive(ctx.pool, &call, alpha, a.slice(), a.ld, b.slice(), b.ld, T::ONE, c, ldc);
        ctx.absorb(&s);
        return;
    }

    let (m2, n2, k2) = (m / 2, n / 2, k / 2);
    let (t_a, rest) = scratch.split_at_mut(m2 * k2);
    let (t_b, rest) = rest.split_at_mut(k2 * n2);
    let (m_buf, child) = rest.split_at_mut(m2 * n2);

    let (a11, a12, a21, a22) = (a, a.sub(0, k2), a.sub(m2, 0), a.sub(m2, k2));
    let (b11, b12, b21, b22) = (b, b.sub(0, n2), b.sub(k2, 0), b.sub(k2, n2));
    let neg_alpha = T::ZERO.sub_e(alpha);

    // One product at a time into `m_buf`, immediately scattered into the
    // C quadrants with ±α — only one M_i is ever live, which is what
    // keeps the scratch footprint at three buffers per level.
    let product =
        |ctx: &mut Ctx<'_>, pa: Quad<'_, T>, pb: Quad<'_, T>, m_buf: &mut [T], child: &mut [T]| {
            m_buf.fill(T::ZERO);
            accumulate(ctx, pa, pb, m2, n2, k2, T::ONE, m_buf, n2, child);
        };

    // M1 = (A11 + A22)(B11 + B22) → C11 += αM1, C22 += αM1
    combine_quads(t_a, m2, k2, a11, a22, false);
    combine_quads(t_b, k2, n2, b11, b22, false);
    product(ctx, Quad::new(t_a, k2, false), Quad::new(t_b, n2, false), m_buf, child);
    axpy_quadrant(c, ldc, 0, 0, m2, n2, alpha, m_buf);
    axpy_quadrant(c, ldc, m2, n2, m2, n2, alpha, m_buf);

    // M2 = (A21 + A22)·B11 → C21 += αM2, C22 -= αM2
    combine_quads(t_a, m2, k2, a21, a22, false);
    product(ctx, Quad::new(t_a, k2, false), b11, m_buf, child);
    axpy_quadrant(c, ldc, m2, 0, m2, n2, alpha, m_buf);
    axpy_quadrant(c, ldc, m2, n2, m2, n2, neg_alpha, m_buf);

    // M3 = A11·(B12 − B22) → C12 += αM3, C22 += αM3
    combine_quads(t_b, k2, n2, b12, b22, true);
    product(ctx, a11, Quad::new(t_b, n2, false), m_buf, child);
    axpy_quadrant(c, ldc, 0, n2, m2, n2, alpha, m_buf);
    axpy_quadrant(c, ldc, m2, n2, m2, n2, alpha, m_buf);

    // M4 = A22·(B21 − B11) → C11 += αM4, C21 += αM4
    combine_quads(t_b, k2, n2, b21, b11, true);
    product(ctx, a22, Quad::new(t_b, n2, false), m_buf, child);
    axpy_quadrant(c, ldc, 0, 0, m2, n2, alpha, m_buf);
    axpy_quadrant(c, ldc, m2, 0, m2, n2, alpha, m_buf);

    // M5 = (A11 + A12)·B22 → C12 += αM5, C11 -= αM5
    combine_quads(t_a, m2, k2, a11, a12, false);
    product(ctx, Quad::new(t_a, k2, false), b22, m_buf, child);
    axpy_quadrant(c, ldc, 0, n2, m2, n2, alpha, m_buf);
    axpy_quadrant(c, ldc, 0, 0, m2, n2, neg_alpha, m_buf);

    // M6 = (A21 − A11)(B11 + B12) → C22 += αM6
    combine_quads(t_a, m2, k2, a21, a11, true);
    combine_quads(t_b, k2, n2, b11, b12, false);
    product(ctx, Quad::new(t_a, k2, false), Quad::new(t_b, n2, false), m_buf, child);
    axpy_quadrant(c, ldc, m2, n2, m2, n2, alpha, m_buf);

    // M7 = (A12 − A22)(B21 + B22) → C11 += αM7
    combine_quads(t_a, m2, k2, a12, a22, true);
    combine_quads(t_b, k2, n2, b21, b22, false);
    product(ctx, Quad::new(t_a, k2, false), Quad::new(t_b, n2, false), m_buf, child);
    axpy_quadrant(c, ldc, 0, 0, m2, n2, alpha, m_buf);
}

/// The Strassen driver behind the dispatch layer: `C ← α·op(A)·op(B) +
/// β·C` for a shape [`applicable`] already accepted. Every base case runs
/// on `pool`, like [`crate::gemm`]'s driver.
#[allow(clippy::too_many_arguments)]
pub(crate) fn strassen_with_stats<T: Element>(
    pool: &ThreadPool,
    call: &GemmCall,
    cutoff: u32,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) -> GemmStats {
    let (m, n, k) = (call.m, call.n, call.k);
    debug_assert!(applicable(m, n, k, cutoff), "dispatch must pre-check eligibility");
    assert!(ldc >= n.max(1), "ldc too small");
    assert!(c.len() >= (m - 1) * ldc + n, "C buffer too small");

    let start = Instant::now();
    // Apply β once up front (same element-wise form as the blocked
    // driver's k == 0 path); every accumulation below then runs β = 1.
    if beta != T::ONE {
        for i in 0..m {
            scale_row_by_beta(&mut c[i * ldc..][..n], beta);
        }
    }

    let cut = cutoff.max(MIN_CUTOFF) as usize;
    let mut ctx = Ctx {
        pool,
        base: call.with_plan(call.plan.with_algorithm(Algorithm::Blocked)),
        cut,
        agg: GemmStats::default(),
    };
    let total = scratch_elems(m, n, k, cut);
    STRASSEN_ARENA.with(|cell| {
        let mut arena = cell.borrow_mut();
        let (scratch, reused) = arena.checkout_elems::<T>(total);
        ctx.agg.arena_bytes_reused += reused;
        let a_q = Quad::new(a, lda, call.trans_a.is_transposed());
        let b_q = Quad::new(b, ldb, call.trans_b.is_transposed());
        accumulate(&mut ctx, a_q, b_q, m, n, k, alpha, c, ldc, scratch);
    });

    let mut stats = ctx.agg;
    stats.algorithm = Algorithm::Strassen { cutoff };
    stats.wall_ns = start.elapsed().as_nanos() as u64;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_respect_parity_and_cutoff() {
        // Recursion halves while min(m,n,k) ≥ 2·cutoff, so base-case
        // dimensions land in [cutoff, 2·cutoff).
        assert_eq!(levels(2048, 2048, 2048, 512), 2); // base 512
        assert_eq!(levels(2048, 2048, 2048, 256), 3); // base 256
        assert_eq!(levels(2048, 2048, 2048, 64), 5); // base 64
                                                     // Odd dimension stops recursion immediately.
        assert_eq!(levels(2047, 2048, 2048, 64), 0);
        // Any dimension below 2·cutoff refuses.
        assert_eq!(levels(2048, 2048, 128, 256), 0);
        // Cutoffs below the floor are clamped up.
        assert_eq!(levels(256, 256, 256, 1), levels(256, 256, 256, MIN_CUTOFF));
    }

    #[test]
    fn applicability_is_levels_nonzero() {
        assert!(applicable(256, 256, 256, 64));
        assert!(!applicable(255, 256, 256, 64));
        assert!(!applicable(64, 64, 64, 64));
    }

    #[test]
    fn scratch_covers_every_level() {
        let cut = MIN_CUTOFF as usize;
        // Two levels at 256³ (base 64): 3·(128²) + 3·(64²).
        assert_eq!(scratch_elems(256, 256, 256, cut), 3 * 128 * 128 + 3 * 64 * 64);
        // Three levels at 512³: 3·(256²) + 3·(128²) + 3·(64²).
        assert_eq!(scratch_elems(512, 512, 512, cut), 3 * 256 * 256 + 3 * 128 * 128 + 3 * 64 * 64);
        assert_eq!(scratch_elems(255, 256, 256, cut), 0);
    }

    #[test]
    fn quad_addresses_transposed_quadrants() {
        // Stored 4×6 consumed as its transpose: logical 6×4.
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let q = Quad::new(&data[..], 6, true);
        assert_eq!(q.at(0, 0), 0.0);
        assert_eq!(q.at(5, 0), 5.0); // logical row 5 = stored col 5
        assert_eq!(q.at(0, 3), 18.0); // logical col 3 = stored row 3
        let q22 = q.sub(3, 2); // logical rows 3.., cols 2..
        assert_eq!(q22.at(0, 0), 15.0); // stored (2, 3)
        assert_eq!(q22.at(2, 1), 23.0); // stored (3, 5)
    }

    #[test]
    fn combine_and_axpy_do_the_arithmetic() {
        let x_data = [1.0f64, 2.0, 3.0, 4.0];
        let y_data = [10.0f64, 20.0, 30.0, 40.0];
        let x = Quad::new(&x_data[..], 2, false);
        let y = Quad::new(&y_data[..], 2, false);
        let mut sum = vec![0.0; 4];
        combine_quads(&mut sum, 2, 2, x, y, false);
        assert_eq!(sum, vec![11.0, 22.0, 33.0, 44.0]);
        combine_quads(&mut sum, 2, 2, y, x, true);
        assert_eq!(sum, vec![9.0, 18.0, 27.0, 36.0]);

        let mut c = vec![1.0f64; 9];
        axpy_quadrant(&mut c, 3, 1, 1, 2, 2, -2.0, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(c, vec![1.0, 1.0, 1.0, 1.0, -1.0, -3.0, 1.0, -5.0, -7.0]);
    }
}
