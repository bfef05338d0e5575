//! The correctness oracle: sampled output entries against an
//! f64-accumulated reference, under the repository's reordering bound
//! `8·ε·(k+2)·(|α|·Σ|a||b| + |β||c₀|)`.

use crate::layers::{Routine, Scalar};
use crate::workloads::{Rng, Spec};

/// Output entries checked per request.
pub const SAMPLES: usize = 64;

/// Element `(i, l)` of a stored operand, or of its transpose.
fn at<T: Scalar>(data: &[T], ld: usize, transposed: bool, i: usize, l: usize) -> f64 {
    if transposed { data[l * ld + i] } else { data[i * ld + l] }.into()
}

/// Check [`SAMPLES`] entries of `c` (picked by `rng`) against the
/// reference for `spec` over inputs `a`, `b` and the output's previous
/// contents `c0` (read only when `beta != 0`). `alpha` is 1 throughout the
/// benchmark. Returns `false` on the first entry outside the bound; a NaN
/// is always outside it.
pub fn check<T: Scalar>(
    spec: &Spec,
    a: &[T],
    b: &[T],
    c: &[T],
    c0: Option<&[T]>,
    rng: &mut Rng,
) -> bool {
    let lda = spec.ld(spec.a_dims().1);
    let ldb = spec.ld(spec.b_dims().1);
    let (depth, ldc) = match spec.routine {
        Routine::Gemm => (spec.k, spec.ld(spec.n)),
        Routine::Syrk => (spec.k, spec.ld(spec.m)),
        Routine::Gemv => (spec.n, 1),
    };
    for _ in 0..SAMPLES {
        let i = rng.below(spec.m);
        let j = match spec.routine {
            Routine::Gemm => rng.below(spec.n),
            // Only the lower triangle is written.
            Routine::Syrk => rng.below(i + 1),
            Routine::Gemv => 0,
        };
        let (mut dot, mut mag) = (0.0f64, 0.0f64);
        for l in 0..depth {
            let x = at(a, lda, spec.routine == Routine::Gemm && spec.trans_a, i, l);
            let y = match spec.routine {
                Routine::Gemm => at(b, ldb, spec.trans_b, l, j),
                Routine::Syrk => at(a, lda, false, j, l),
                Routine::Gemv => b[l].into(),
            };
            dot += x * y;
            mag += (x * y).abs();
        }
        let prior: f64 = match c0 {
            Some(c0) if spec.beta != 0.0 => c0[i * ldc + j].into(),
            _ => 0.0,
        };
        let expected = dot + spec.beta * prior;
        let scale = mag + spec.beta.abs() * prior.abs() + f64::MIN_POSITIVE;
        let bound = 8.0 * T::EPS * (depth as f64 + 2.0) * scale;
        let got: f64 = c[i * ldc + j].into();
        // A NaN compares false, and so fails.
        let within = (got - expected).abs() <= bound;
        if !within {
            return false;
        }
    }
    true
}

/// `value` moved far outside the bound of any entry of `spec`'s output
/// (operands are in `[-1, 1)`, so the bound stays below `depth²`): what
/// the self-tests feed the oracle to prove that it trips.
pub fn corrupted<T: Scalar>(spec: &Spec, value: T) -> T {
    let depth = spec.k.max(spec.n) as f64;
    T::from_f64(value.into() + 1.0 + depth * depth)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Precision;
    use crate::workloads::{build, WorkloadKind};

    /// Plain triple loop in f64, rounded once: the oracle must accept it.
    fn reference_output(spec: &Spec, a: &[f32], b: &[f32], c0: &[f32]) -> Vec<f32> {
        let (rows, cols) = spec.c_dims();
        let ldc = if spec.routine == Routine::Gemv { 1 } else { spec.ld(cols) };
        let mut c = c0.to_vec();
        let lda = spec.ld(spec.a_dims().1);
        let ldb = spec.ld(spec.b_dims().1);
        for i in 0..rows {
            for j in 0..cols {
                if spec.routine == Routine::Syrk && j > i {
                    continue;
                }
                let depth = if spec.routine == Routine::Gemv { spec.n } else { spec.k };
                let mut dot = 0.0f64;
                for l in 0..depth {
                    let x = at(a, lda, spec.routine == Routine::Gemm && spec.trans_a, i, l);
                    let y = match spec.routine {
                        Routine::Gemm => at(b, ldb, spec.trans_b, l, j),
                        Routine::Syrk => at(a, lda, false, j, l),
                        Routine::Gemv => f64::from(b[l]),
                    };
                    dot += x * y;
                }
                c[i * ldc + j] = (dot + spec.beta * f64::from(c0[i * ldc + j])) as f32;
            }
        }
        c
    }

    #[test]
    fn accepts_a_right_output_and_trips_on_a_corrupted_one() {
        // Every f32 request shape class of the mixed workload: GEMM with
        // and without transposes, padding and beta; SYRK; GEMV.
        let w = build(WorkloadKind::MixedClients, 3, true);
        let mut rng = Rng::new(11);
        for spec in w.specs.iter().filter(|s| s.precision == Precision::F32) {
            let fill = |len: usize, rng: &mut Rng| -> Vec<f32> {
                (0..len).map(|_| rng.unit() as f32).collect()
            };
            let a = fill(spec.stored_len(spec.a_dims()), &mut rng);
            let b = fill(spec.stored_len(spec.b_dims()), &mut rng);
            let c0 = fill(spec.stored_len(spec.c_dims()).max(spec.m), &mut rng);
            let c = reference_output(spec, &a, &b, &c0);
            assert!(check(spec, &a, &b, &c, Some(&c0), &mut rng), "{spec:?}");

            // Whichever entries get sampled, the check must trip.
            let bad: Vec<f32> = c.iter().map(|&v| corrupted(spec, v)).collect();
            assert!(!check(spec, &a, &b, &bad, Some(&c0), &mut rng), "{spec:?}");
            let nan = vec![f32::NAN; c.len()];
            assert!(!check(spec, &a, &b, &nan, Some(&c0), &mut rng), "{spec:?}");
        }
    }
}
