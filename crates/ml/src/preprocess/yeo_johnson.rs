//! Yeo-Johnson power transformation with maximum-likelihood λ estimation.
//!
//! Yeo-Johnson extends Box-Cox to non-positive values (Weisberg, 2001):
//!
//! ```text
//! ψ(x, λ) =  ((x+1)^λ − 1) / λ            x ≥ 0, λ ≠ 0
//!            ln(x+1)                       x ≥ 0, λ = 0
//!            −((−x+1)^(2−λ) − 1) / (2−λ)   x < 0, λ ≠ 2
//!            −ln(−x+1)                     x < 0, λ = 2
//! ```
//!
//! λ is chosen per feature by maximising the profile log-likelihood of a
//! Gaussian model on the transformed data; the paper automates this with
//! MLE so the install-time workflow needs no manual tuning. We optimise by
//! golden-section search on `λ ∈ [−5, 5]` (the likelihood is unimodal for
//! all practical inputs).

use serde::{Deserialize, Serialize};

use crate::data::Matrix;
use crate::MlError;

/// Transform a single value with parameter `lambda`.
pub fn transform_value(x: f64, lambda: f64) -> f64 {
    const EPS: f64 = 1e-12;
    if x >= 0.0 {
        if lambda.abs() < EPS {
            (x + 1.0).ln()
        } else {
            ((x + 1.0).powf(lambda) - 1.0) / lambda
        }
    } else if (lambda - 2.0).abs() < EPS {
        -(-x + 1.0).ln()
    } else {
        -((-x + 1.0).powf(2.0 - lambda) - 1.0) / (2.0 - lambda)
    }
}

/// Inverse of [`transform_value`].
pub fn inverse_value(t: f64, lambda: f64) -> f64 {
    const EPS: f64 = 1e-12;
    if t >= 0.0 {
        if lambda.abs() < EPS {
            t.exp() - 1.0
        } else {
            (t * lambda + 1.0).powf(1.0 / lambda) - 1.0
        }
    } else if (lambda - 2.0).abs() < EPS {
        1.0 - (-t).exp()
    } else {
        1.0 - (1.0 - t * (2.0 - lambda)).powf(1.0 / (2.0 - lambda))
    }
}

/// One column's Gaussian profile log-likelihood as a function of λ (up to
/// an additive constant): `−n/2·ln σ̂² + (λ−1)·Σ sign(x)·ln(|x|+1)`.
///
/// The column is held as its distinct values and, per row, which one it
/// holds: an evaluation transforms each distinct value once and sums the
/// looked-up results in row order, so the mean and variance are the same
/// additions, in the same order, as over the transformed rows. The
/// Jacobian sum does not depend on λ and is taken once.
struct Likelihood {
    /// The column's distinct values (by bits).
    values: Vec<f64>,
    /// Per row, the index of its value in `values`.
    rows: Vec<u32>,
    /// `Σ sign(x)·ln(|x|+1)` over the rows, in row order.
    jacobian: f64,
    /// `values` transformed at the λ being evaluated.
    transformed: Vec<f64>,
}

impl Likelihood {
    fn new(xs: &[f64]) -> Self {
        let mut bits: Vec<u64> = xs.iter().map(|x| x.to_bits()).collect();
        bits.sort_unstable();
        bits.dedup();
        let rows =
            xs.iter().map(|x| bits.binary_search(&x.to_bits()).expect("a row's own value") as u32);
        Self {
            rows: rows.collect(),
            jacobian: xs.iter().map(|&x| x.signum() * (x.abs() + 1.0).ln()).sum(),
            transformed: Vec::with_capacity(bits.len()),
            values: bits.into_iter().map(f64::from_bits).collect(),
        }
    }

    fn at(&mut self, lambda: f64) -> f64 {
        self.transformed.clear();
        self.transformed.extend(self.values.iter().map(|&x| transform_value(x, lambda)));
        let t = &self.transformed;
        let n = self.rows.len() as f64;
        let mean = self.rows.iter().map(|&r| t[r as usize]).sum::<f64>() / n;
        let var =
            self.rows.iter().map(|&r| (t[r as usize] - mean) * (t[r as usize] - mean)).sum::<f64>()
                / n;
        if var <= 0.0 || !var.is_finite() {
            return f64::NEG_INFINITY;
        }
        -0.5 * n * var.ln() + (lambda - 1.0) * self.jacobian
    }
}

/// Golden-section maximisation of the profile likelihood over `[lo, hi]`.
fn golden_section_max(xs: &[f64], lo: f64, hi: f64, iters: usize) -> f64 {
    const INV_PHI: f64 = 0.618_033_988_749_894_9;
    let mut likelihood = Likelihood::new(xs);
    let (mut a, mut b) = (lo, hi);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = likelihood.at(c);
    let mut fd = likelihood.at(d);
    for _ in 0..iters {
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = likelihood.at(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = likelihood.at(d);
        }
    }
    0.5 * (a + b)
}

/// Fitted per-feature Yeo-Johnson transform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct YeoJohnson {
    /// One λ per feature column.
    pub lambdas: Vec<f64>,
}

impl YeoJohnson {
    /// Estimate λ for every column of `x` by MLE: 62 golden-section
    /// evaluations of the column's profile likelihood over `[−5, 5]`, or
    /// λ = 1 for a constant column.
    ///
    /// An evaluation transforms each *distinct* value of the column once —
    /// a gathered design repeats few values per column (shapes × plan
    /// points), so this is tens of `powf` instead of thousands — and sums the
    /// transformed rows in row order, the additions a per-row pass makes, so
    /// λ is the same bits either way. The λ-independent Jacobian term is
    /// summed once per column.
    ///
    /// # Errors
    /// Fails on an empty matrix or non-finite inputs.
    pub fn fit(x: &Matrix) -> Result<Self, MlError> {
        if x.rows() == 0 || x.cols() == 0 {
            return Err(MlError::BadShape("empty matrix".into()));
        }
        if !x.all_finite() {
            return Err(MlError::Numeric("non-finite feature values".into()));
        }
        let lambdas = (0..x.cols())
            .map(|j| {
                let col = x.col(j);
                // A constant column has a flat likelihood; identity (λ=1)
                // is the canonical choice.
                let first = col[0];
                if col.iter().all(|&v| v == first) {
                    1.0
                } else {
                    golden_section_max(&col, -5.0, 5.0, 60)
                }
            })
            .collect();
        Ok(Self { lambdas })
    }

    /// Transform a matrix (columns must match the fitted width).
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        if x.cols() != self.lambdas.len() {
            return Err(MlError::BadShape(format!(
                "fitted on {} features, got {}",
                self.lambdas.len(),
                x.cols()
            )));
        }
        let mut out = x.clone();
        for i in 0..x.rows() {
            for (j, &l) in self.lambdas.iter().enumerate() {
                out.set(i, j, transform_value(x.get(i, j), l));
            }
        }
        Ok(out)
    }

    /// Transform a single feature row in place (runtime hot path).
    pub fn transform_row(&self, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.lambdas.len());
        for (v, &l) in row.iter_mut().zip(&self.lambdas) {
            *v = transform_value(*v, l);
        }
    }

    /// Inverse-transform a matrix.
    pub fn inverse_transform(&self, t: &Matrix) -> Result<Matrix, MlError> {
        if t.cols() != self.lambdas.len() {
            return Err(MlError::BadShape("feature count mismatch".into()));
        }
        let mut out = t.clone();
        for i in 0..t.rows() {
            for (j, &l) in self.lambdas.iter().enumerate() {
                out.set(i, j, inverse_value(t.get(i, j), l));
            }
        }
        Ok(out)
    }
}

/// Sample skewness (Fisher-Pearson, biased) — used by tests and the Fig. 4
/// reproduction to show the transform de-skews features.
pub fn skewness(xs: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let m2 = xs.iter().map(|&x| (x - mean).powi(2)).sum::<f64>() / n;
    let m3 = xs.iter().map(|&x| (x - mean).powi(3)).sum::<f64>() / n;
    if m2 <= 0.0 {
        0.0
    } else {
        m3 / m2.powf(1.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Matrix;

    #[test]
    fn identity_at_lambda_one() {
        for &x in &[-3.0, -0.5, 0.0, 0.7, 42.0] {
            assert!((transform_value(x, 1.0) - x).abs() < 1e-12);
        }
    }

    #[test]
    fn log_branch_at_lambda_zero() {
        assert!((transform_value(3.0, 0.0) - 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn negative_branch_at_lambda_two() {
        assert!((transform_value(-3.0, 2.0) + 4.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn transform_is_monotone() {
        for &lambda in &[-2.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.5] {
            let mut prev = f64::NEG_INFINITY;
            let mut x = -10.0;
            while x <= 10.0 {
                let t = transform_value(x, lambda);
                assert!(t > prev, "not monotone at x={x}, λ={lambda}");
                prev = t;
                x += 0.25;
            }
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for &lambda in &[-1.5, 0.0, 0.5, 1.0, 2.0, 2.7] {
            for &x in &[-8.0, -1.0, -0.1, 0.0, 0.1, 1.0, 100.0] {
                let t = transform_value(x, lambda);
                let back = inverse_value(t, lambda);
                assert!(
                    (back - x).abs() < 1e-8 * (1.0 + x.abs()),
                    "roundtrip failed: x={x}, λ={lambda}, got {back}"
                );
            }
        }
    }

    #[test]
    fn mle_deskews_lognormal_data() {
        // Log-normal-ish data: heavy right skew; after YJ the skewness
        // magnitude must drop substantially.
        let xs: Vec<f64> = (1..500).map(|i| ((i as f64) * 0.017).exp()).collect();
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let yj = YeoJohnson::fit(&x).unwrap();
        let t = yj.transform(&x).unwrap();
        let before = skewness(&xs).abs();
        let after = skewness(&t.col(0)).abs();
        assert!(
            after < before * 0.3,
            "skewness barely improved: {before} -> {after} (λ={})",
            yj.lambdas[0]
        );
    }

    #[test]
    fn mle_on_gaussianish_data_is_near_identity() {
        // Symmetric data centred at zero should get λ close to 1.
        let xs: Vec<f64> = (0..400).map(|i| ((i % 21) as f64 - 10.0) / 3.0).collect();
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>());
        let yj = YeoJohnson::fit(&x).unwrap();
        assert!((yj.lambdas[0] - 1.0).abs() < 0.35, "expected λ≈1, got {}", yj.lambdas[0]);
    }

    #[test]
    fn constant_column_gets_identity_lambda() {
        let x = Matrix::from_vec(4, 1, vec![3.0; 4]);
        let yj = YeoJohnson::fit(&x).unwrap();
        assert_eq!(yj.lambdas, vec![1.0]);
    }

    #[test]
    fn fitted_lambdas_keep_recorded_bits() {
        // λ per column, recorded before the likelihood was evaluated once
        // per distinct value: constant, binary, 60 levels (skewed, then
        // straddling zero), continuous (skewed, then mostly negative).
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<Vec<f64>> = (0..500)
            .map(|_| {
                let level = f64::from(rng.gen_range(0..60u32));
                vec![
                    4.0,
                    f64::from(rng.gen_range(0..2u32)),
                    (level / 6.0).exp2(),
                    level - 45.0,
                    rng.gen_range(0.0..5.0f64).exp(),
                    rng.gen_range(-20.0..5.0),
                ]
            })
            .collect();
        let yj = YeoJohnson::fit(&Matrix::from_rows(&rows)).unwrap();
        let bits: Vec<String> =
            yj.lambdas.iter().map(|l| format!("{:016x}", l.to_bits())).collect();
        assert_eq!(
            bits,
            [
                "3ff0000000000000",
                "3fba980dd30c2238",
                "bf995df3622cde5a",
                "3ff1eec469635928",
                "bfa2c183cee6a7e5",
                "3ff2154a7b576168",
            ]
        );
    }

    #[test]
    fn transform_row_matches_matrix_path() {
        let x = Matrix::from_vec(3, 2, vec![1.0, 10.0, 4.0, 100.0, 9.0, 1000.0]);
        let yj = YeoJohnson::fit(&x).unwrap();
        let t = yj.transform(&x).unwrap();
        let mut row = x.row(1).to_vec();
        yj.transform_row(&mut row);
        assert_eq!(row, t.row(1));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let x = Matrix::zeros(3, 2);
        let yj = YeoJohnson { lambdas: vec![1.0] };
        assert!(yj.transform(&x).is_err());
    }

    /// The profile likelihood as one pass over the rows computes it.
    fn log_likelihood_per_row(xs: &[f64], lambda: f64) -> f64 {
        let n = xs.len() as f64;
        let transformed: Vec<f64> = xs.iter().map(|&x| transform_value(x, lambda)).collect();
        let mean = transformed.iter().sum::<f64>() / n;
        let var = transformed.iter().map(|&t| (t - mean) * (t - mean)).sum::<f64>() / n;
        if var <= 0.0 || !var.is_finite() {
            return f64::NEG_INFINITY;
        }
        let jacobian: f64 = xs.iter().map(|&x| x.signum() * (x.abs() + 1.0).ln()).sum();
        -0.5 * n * var.ln() + (lambda - 1.0) * jacobian
    }

    #[test]
    fn likelihood_over_distinct_values_is_bitwise_the_per_row_pass() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let columns: [Vec<f64>; 4] = [
            (0..300).map(|_| f64::from(rng.gen_range(0..2u32))).collect(),
            (0..300).map(|_| [-3.0, -0.0, 0.0, 0.5, 40.0][rng.gen_range(0..5usize)]).collect(),
            (0..300).map(|_| f64::from(rng.gen_range(0..60u32)) * 1.5 - 20.0).collect(),
            (0..300).map(|_| rng.gen_range(-2.0..9.0)).collect(),
        ];
        for xs in &columns {
            let mut likelihood = Likelihood::new(xs);
            for lambda in [-5.0, -1.3, 0.0, 1e-13, 0.7, 1.0, 2.0, 2.0 + 1e-13, 3.9, 5.0] {
                assert_eq!(
                    likelihood.at(lambda).to_bits(),
                    log_likelihood_per_row(xs, lambda).to_bits(),
                    "λ = {lambda}"
                );
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let yj = YeoJohnson { lambdas: vec![0.5, -1.0, 2.0] };
        let json = serde_json::to_string(&yj).unwrap();
        let back: YeoJohnson = serde_json::from_str(&json).unwrap();
        assert_eq!(yj, back);
    }
}
