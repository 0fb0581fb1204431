//! Special functions of the normal distribution.
//!
//! Implemented in-crate (rather than pulling a statistics dependency) per the
//! workspace dependency policy. Accuracy targets are documented per function
//! and verified against reference values in the unit tests. Normal draws
//! come from [`SimRng::standard_normal`](cdt_types::SimRng::standard_normal).

/// The error function `erf(x)`, via the Abramowitz & Stegun 7.1.26
/// rational approximation (max absolute error ≈ 1.5e-7, ample for
/// truncated-Gaussian CDF normalization of simulation inputs).
#[must_use]
pub fn erf(x: f64) -> f64 {
    // erf is odd: erf(-x) = -erf(x).
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();

    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    const P: f64 = 0.327_591_1;

    let t = 1.0 / (1.0 + P * x);
    let y = 1.0 - (((((A5 * t + A4) * t) + A3) * t + A2) * t + A1) * t * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function `Φ(x)`.
#[must_use]
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal probability density function `φ(x)`.
#[must_use]
pub fn normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Mean of a Gaussian `N(mu, sigma²)` truncated to `[lo, hi]`.
///
/// Used by tests to verify that a sample mean of truncated observations
/// converges to the analytic truncated mean, and by the population model to
/// report the *effective* expected quality of a seller.
#[must_use]
pub fn truncated_normal_mean(mu: f64, sigma: f64, lo: f64, hi: f64) -> f64 {
    assert!(sigma > 0.0 && lo < hi);
    let alpha = (lo - mu) / sigma;
    let beta = (hi - mu) / sigma;
    let z = normal_cdf(beta) - normal_cdf(alpha);
    if z <= f64::EPSILON {
        // Degenerate truncation: the interval carries ~no mass; fall back to
        // the nearest boundary.
        return if mu < lo { lo } else { hi };
    }
    mu + sigma * (normal_pdf(alpha) - normal_pdf(beta)) / z
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::SimRng;

    #[test]
    fn erf_reference_values() {
        // Reference values from tables (A&S): erf(0)=0, erf(1)=0.8427008,
        // erf(2)=0.9953223, erf(0.5)=0.5204999.
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.842_700_8).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_3).abs() < 1e-6);
        assert!((erf(0.5) - 0.520_499_9).abs() < 1e-6);
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.1, 0.7, 1.3, 2.9] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-4);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-4);
    }

    #[test]
    fn standard_normal_draws_follow_the_normal_cdf() {
        let n = 4_000_000;
        let mut rng = SimRng::new(7);
        let mut xs: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        xs.sort_unstable_by(f64::total_cmp);
        // Kolmogorov–Smirnov distance against Φ, below its 1% critical value.
        let nf = n as f64;
        let d = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| {
                let f = normal_cdf(x);
                ((i + 1) as f64 / nf - f).max(f - i as f64 / nf)
            })
            .fold(0.0, f64::max);
        assert!(d < 1.63 / nf.sqrt(), "KS distance {d}");
        // The ziggurat's tail sampler covers |x| > R: its share must match
        // 2Φ(−R) ≈ 2.58e-4 within 4 standard errors.
        const R: f64 = 3.654_152_885_361_009;
        let p = 2.0 * normal_cdf(-R);
        let share = xs.iter().filter(|x| x.abs() > R).count() as f64 / nf;
        let se = (p * (1.0 - p) / nf).sqrt();
        assert!((share - p).abs() < 4.0 * se, "tail share {share} vs {p}");
    }

    #[test]
    fn truncated_mean_symmetric_case() {
        // Symmetric truncation around the mean leaves the mean unchanged.
        let m = truncated_normal_mean(0.5, 0.1, 0.0, 1.0);
        assert!((m - 0.5).abs() < 1e-9);
    }

    #[test]
    fn truncated_mean_is_pulled_inward() {
        // mu near the upper bound: truncation pulls the mean below mu.
        let m = truncated_normal_mean(0.95, 0.2, 0.0, 1.0);
        assert!(m < 0.95 && m > 0.5);
        // mu near the lower bound: truncation pushes the mean above mu.
        let m2 = truncated_normal_mean(0.05, 0.2, 0.0, 1.0);
        assert!(m2 > 0.05 && m2 < 0.5);
    }

    #[test]
    fn truncated_mean_degenerate_interval() {
        // Mass far outside the interval: falls back to the nearest bound.
        assert!((truncated_normal_mean(10.0, 0.01, 0.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((truncated_normal_mean(-10.0, 0.01, 0.0, 1.0)).abs() < 1e-12);
    }
}
