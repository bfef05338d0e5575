//! Deterministic measurement noise.
//!
//! Real GEMM timings vary run to run (the paper repeats every measurement
//! ten times and pins NUMA policy precisely to tame this). The simulator
//! reproduces that variance with multiplicative log-normal noise whose
//! value is a pure function of `(experiment seed, shape, threads, rep)` —
//! so a figure regenerates identically, yet distinct repetitions of the
//! same configuration scatter like real measurements.

/// SplitMix64: a high-quality 64-bit mixer, used to hash experiment
/// coordinates into independent streams.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combine experiment coordinates into one seed.
pub fn combine(parts: &[u64]) -> u64 {
    let mut h = 0x243F_6A88_85A3_08D3u64; // π digits — arbitrary constant
    for &p in parts {
        h = splitmix64(h ^ p);
    }
    h
}

/// Uniform `(0, 1)` from a hash (never exactly 0).
#[inline]
fn unit(h: u64) -> f64 {
    ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// Standard normal via Box–Muller from two hashed uniforms.
pub fn standard_normal(seed: u64) -> f64 {
    let u1 = unit(splitmix64(seed));
    let u2 = unit(splitmix64(seed ^ 0xDEAD_BEEF_CAFE_F00D));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Multiplicative log-normal factor `exp(σ·z)` with mean-one correction
/// `exp(−σ²/2)`.
pub fn lognormal_factor(seed: u64, sigma: f64) -> f64 {
    (sigma * standard_normal(seed) - 0.5 * sigma * sigma).exp()
}

/// Heavy-tail jitter: with probability `prob`, an extra slowdown factor
/// `1 + Exp(scale)` models OS noise, page-cache misses and NUMA
/// imbalance spikes — the outliers that make single measurements of HPC
/// kernels untrustworthy (and the reason the paper repeats every timing
/// ten times). Returns 1.0 otherwise.
pub fn spike_factor(seed: u64, prob: f64, scale: f64) -> f64 {
    if prob <= 0.0 {
        return 1.0;
    }
    let h = splitmix64(seed ^ 0x5157_E1F0_0D15_EA5E);
    let u = ((h >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
    if u < prob {
        let h2 = splitmix64(h);
        let v = ((h2 >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        1.0 + scale * (-v.ln())
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_eq!(combine(&[1, 2, 3]), combine(&[1, 2, 3]));
        assert_ne!(combine(&[1, 2, 3]), combine(&[3, 2, 1]));
        assert_eq!(lognormal_factor(7, 0.05), lognormal_factor(7, 0.05));
    }

    #[test]
    fn normal_moments() {
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|i| standard_normal(combine(&[i]))).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|&z| (z - mean) * (z - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_factor_near_mean_one() {
        let n = 20_000;
        let sigma = 0.08;
        let mean: f64 =
            (0..n).map(|i| lognormal_factor(combine(&[i, 99]), sigma)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn factors_always_positive() {
        for i in 0..1000 {
            assert!(lognormal_factor(combine(&[i, 5]), 0.3) > 0.0);
        }
    }

    #[test]
    fn zero_sigma_is_exactly_one() {
        assert_eq!(lognormal_factor(123, 0.0), 1.0);
    }

    #[test]
    fn spikes_occur_at_roughly_the_requested_rate() {
        let n = 50_000;
        let spiked = (0..n).filter(|&i| spike_factor(combine(&[i, 7]), 0.03, 1.0) > 1.0).count();
        let rate = spiked as f64 / n as f64;
        assert!((0.02..0.04).contains(&rate), "spike rate {rate}");
    }

    #[test]
    fn spike_factor_is_deterministic_and_at_least_one() {
        for i in 0..500 {
            let s = combine(&[i, 3]);
            let f = spike_factor(s, 0.05, 2.0);
            assert_eq!(f, spike_factor(s, 0.05, 2.0));
            assert!(f >= 1.0);
        }
    }

    #[test]
    fn zero_probability_never_spikes() {
        for i in 0..100 {
            assert_eq!(spike_factor(combine(&[i]), 0.0, 1.0), 1.0);
        }
    }
}
