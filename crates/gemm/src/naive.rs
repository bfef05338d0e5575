//! Reference triple-loop GEMM used as a correctness oracle.
//!
//! Deliberately simple: no blocking, no packing, no threading. Every
//! optimised path in this crate is property-tested against these kernels.

use crate::microkernel::write_back;
use crate::{Element, Transpose};

/// `C ← α·op(A)·op(B) + β·C` with the straightforward `i,j,l` loop nest.
///
/// All matrices are row-major; `lda`/`ldb`/`ldc` are row strides of the
/// *stored* operands (before logical transposition).
///
/// # Panics
/// Panics if any stride is too small for the stored operand shape.
#[allow(clippy::too_many_arguments)]
pub fn naive_gemm<T: Element>(
    trans_a: Transpose,
    trans_b: Transpose,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    // Stored shapes: op(A) is m×k, so A is m×k (NoTrans) or k×m (Trans).
    let (a_rows, a_cols) = if trans_a.is_transposed() { (k, m) } else { (m, k) };
    let (b_rows, b_cols) = if trans_b.is_transposed() { (n, k) } else { (k, n) };
    assert!(lda >= a_cols.max(1), "lda too small");
    assert!(ldb >= b_cols.max(1), "ldb too small");
    assert!(ldc >= n.max(1), "ldc too small");
    // Zero-width/-height operands are never dereferenced (e.g. A when
    // k = 0), so only demand backing storage when both dims are live.
    if a_rows > 0 && a_cols > 0 {
        assert!(a.len() >= (a_rows - 1) * lda + a_cols, "A buffer too small");
    }
    if b_rows > 0 && b_cols > 0 {
        assert!(b.len() >= (b_rows - 1) * ldb + b_cols, "B buffer too small");
    }
    if m > 0 && n > 0 {
        assert!(c.len() >= (m - 1) * ldc + n, "C buffer too small");
    }

    let at = |i: usize, l: usize| -> T {
        if trans_a.is_transposed() {
            a[l * lda + i]
        } else {
            a[i * lda + l]
        }
    };
    let bt = |l: usize, j: usize| -> T {
        if trans_b.is_transposed() {
            b[j * ldb + l]
        } else {
            b[l * ldb + j]
        }
    };

    for i in 0..m {
        for j in 0..n {
            let mut acc = T::ZERO;
            for l in 0..k {
                acc = at(i, l).mul_add_e(bt(l, j), acc);
            }
            write_back(&mut c[i * ldc + j], alpha, acc, beta);
        }
    }
}

/// Convenience wrapper over [`naive_gemm`] for untransposed, tightly
/// packed operands with `α = 1`, `β = 0`.
pub fn naive_matmul<T: Element>(m: usize, n: usize, k: usize, a: &[T], b: &[T]) -> Vec<T> {
    let mut c = vec![T::ZERO; m * n];
    naive_gemm(
        Transpose::No,
        Transpose::No,
        m,
        n,
        k,
        T::ONE,
        a,
        k.max(1),
        b,
        n.max(1),
        T::ZERO,
        &mut c,
        n.max(1),
    );
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_times_identity() {
        let eye = |d: usize| -> Vec<f64> {
            let mut v = vec![0.0; d * d];
            for i in 0..d {
                v[i * d + i] = 1.0;
            }
            v
        };
        let a = eye(4);
        let c = naive_matmul(4, 4, 4, &a, &a);
        assert_eq!(c, a);
    }

    #[test]
    fn known_2x2() {
        // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0f64, 2.0, 3.0, 4.0];
        let b = [5.0f64, 6.0, 7.0, 8.0];
        let c = naive_matmul(2, 2, 2, &a, &b);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn alpha_beta_combine() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [10.0f32, 10.0, 10.0, 10.0];
        naive_gemm(Transpose::No, Transpose::No, 2, 2, 2, 2.0, &a, 2, &b, 2, 0.5, &mut c, 2);
        // 2*A*B + 0.5*C = 2*B + 5
        assert_eq!(c, [7.0, 9.0, 11.0, 13.0]);
    }

    #[test]
    fn transpose_a() {
        // A stored 2x3 (k=2 rows, m=3 cols when transposed): op(A) = Aᵀ is 3x2.
        let a = [1.0f64, 2.0, 3.0, 4.0, 5.0, 6.0]; // [[1,2,3],[4,5,6]]
        let b = [1.0f64, 0.0, 0.0, 1.0]; // 2x2 identity
        let mut c = vec![0.0f64; 6];
        naive_gemm(Transpose::Yes, Transpose::No, 3, 2, 2, 1.0, &a, 3, &b, 2, 0.0, &mut c, 2);
        // Aᵀ = [[1,4],[2,5],[3,6]]
        assert_eq!(c, vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_b() {
        let a = [1.0f64, 0.0, 0.0, 1.0];
        let b = [1.0f64, 2.0, 3.0, 4.0]; // stored 2x2
        let mut c = vec![0.0f64; 4];
        naive_gemm(Transpose::No, Transpose::Yes, 2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
        // Bᵀ = [[1,3],[2,4]]
        assert_eq!(c, vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn degenerate_dims_are_noops_or_scale() {
        // k = 0: C ← β·C only.
        let a: [f64; 0] = [];
        let b: [f64; 0] = [];
        let mut c = [2.0f64, 4.0];
        naive_gemm(Transpose::No, Transpose::No, 1, 2, 0, 1.0, &a, 1, &b, 2, 0.5, &mut c, 2);
        assert_eq!(c, [1.0, 2.0]);
    }

    #[test]
    fn strided_c_untouched_outside_view() {
        // C is a 2x1 view with row stride 2: the odd slots are padding and
        // must survive the call.
        let a = [1.0f64, 1.0]; // 2x1
        let b = [3.0f64]; // 1x1
        let mut c = [0.0f64, 99.0, 0.0, 99.0];
        naive_gemm(Transpose::No, Transpose::No, 2, 1, 1, 1.0, &a, 1, &b, 1, 0.0, &mut c, 2);
        assert_eq!(c, [3.0, 99.0, 3.0, 99.0]);
    }
}
