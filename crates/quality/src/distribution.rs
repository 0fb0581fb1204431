//! Quality distributions: the unknown per-observation law of `q_{i,l}^t`.
//!
//! Def. 3 of the paper only requires each observation to lie in `[0, 1]`
//! with a fixed (unknown) expectation `q_i`. The evaluation section uses a
//! truncated Gaussian; we additionally provide Beta, Uniform-width, and
//! Bernoulli models so tests and ablations can probe the CMAB policies under
//! different noise shapes (the Chernoff–Hoeffding analysis of Lemma 17 only
//! needs bounded support, so the regret guarantee covers all of them).

use crate::math::truncated_normal_mean;
use cdt_types::SimRng;

/// A bounded-support quality distribution with a known expectation.
pub trait QualityDistribution: Send + Sync {
    /// Draws one observation `q_{i,l}^t ∈ [0, 1]`.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Fills `row` with one observation per slot, in order. It must draw
    /// exactly what calling [`QualityDistribution::sample`] once per slot
    /// draws: the same values from the same generator draws, so the
    /// stream after the row is the same too.
    fn fill_row(&self, rng: &mut SimRng, row: &mut [f64]) {
        for slot in row {
            *slot = self.sample(rng);
        }
    }

    /// The exact expectation of [`QualityDistribution::sample`]. This is the
    /// `q_i` the bandit is trying to learn, so it must be the mean of the
    /// *realized* (post-truncation) distribution, not the nominal parameter.
    fn mean(&self) -> f64;
}

/// Gaussian `N(mu, sigma²)` truncated to `[0, 1]` by rejection sampling —
/// the observation model of the paper's evaluation (Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedGaussian {
    /// Location parameter (the nominal expected quality).
    pub mu: f64,
    /// Scale parameter `σ > 0`.
    pub sigma: f64,
}

impl TruncatedGaussian {
    /// Creates a truncated Gaussian; `mu` is clamped into `[0, 1]` and
    /// `sigma` must be positive.
    ///
    /// # Panics
    /// Panics if `sigma <= 0` or not finite.
    #[must_use]
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0,
            "sigma must be finite and > 0, got {sigma}"
        );
        Self {
            mu: mu.clamp(0.0, 1.0),
            sigma,
        }
    }
}

impl QualityDistribution for TruncatedGaussian {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Rejection sampling. With mu in [0,1] the acceptance probability is
        // Φ((1 − μ)/σ) − Φ(−μ/σ), lowest with μ at a bound: Φ(1/σ) − ½,
        // which is 0.50 at σ = 0.1, 0.48 at σ = 0.5 and 0.34 at σ = 1. UCB
        // converges onto the sellers with μ near 1, so in a long run about
        // half of their draws are rejected.
        loop {
            let x = self.mu + self.sigma * rng.standard_normal();
            if (0.0..=1.0).contains(&x) {
                return x;
            }
        }
    }

    fn fill_row(&self, rng: &mut SimRng, row: &mut [f64]) {
        // The rejection loop of `sample`, once per row and without a
        // branch on acceptance, which is a coin flip the CPU mispredicts
        // for μ near a bound. Each candidate is written to the next free
        // slot, and the acceptance bit moves past it: a rejected candidate
        // is overwritten by the next one. The same normals are drawn in
        // the same order, and the same values kept.
        let mut j = 0;
        while j < row.len() {
            let x = self.mu + self.sigma * rng.standard_normal();
            row[j] = x;
            j += usize::from((0.0..=1.0).contains(&x));
        }
    }

    fn mean(&self) -> f64 {
        truncated_normal_mean(self.mu, self.sigma, 0.0, 1.0)
    }
}

/// Beta(α, β) distribution — naturally supported on `[0, 1]`.
///
/// Sampled via Jöhnk's algorithm for small parameters and the ratio of
/// gamma variates (Marsaglia–Tsang) otherwise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaQuality {
    /// Shape parameter `α > 0`.
    pub alpha: f64,
    /// Shape parameter `β > 0`.
    pub beta: f64,
}

impl BetaQuality {
    /// Creates a Beta distribution.
    ///
    /// # Panics
    /// Panics unless both shapes are finite and positive.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha.is_finite() && alpha > 0.0, "alpha must be > 0");
        assert!(beta.is_finite() && beta > 0.0, "beta must be > 0");
        Self { alpha, beta }
    }

    /// A Beta with the given mean and a "concentration" ν (= α + β).
    /// Larger ν ⇒ tighter observations around the mean.
    ///
    /// # Panics
    /// Panics unless `mean ∈ (0, 1)` and `concentration > 0`.
    #[must_use]
    pub fn with_mean(mean: f64, concentration: f64) -> Self {
        assert!(mean > 0.0 && mean < 1.0, "mean must be in (0,1)");
        assert!(concentration > 0.0, "concentration must be > 0");
        Self::new(mean * concentration, (1.0 - mean) * concentration)
    }

    fn sample_gamma(shape: f64, rng: &mut SimRng) -> f64 {
        // Marsaglia–Tsang for shape >= 1; boost trick for shape < 1.
        if shape < 1.0 {
            let u: f64 = rng.uniform(f64::EPSILON..1.0);
            return Self::sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = rng.standard_normal();
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.uniform(f64::EPSILON..1.0);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }
}

impl QualityDistribution for BetaQuality {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let x = Self::sample_gamma(self.alpha, rng);
        let y = Self::sample_gamma(self.beta, rng);
        if x + y == 0.0 {
            0.5
        } else {
            x / (x + y)
        }
    }

    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }
}

/// Uniform on `[mean − half_width, mean + half_width] ∩ [0, 1]`, implemented
/// as clamped-shift so the mean stays exact when the interval fits in `[0,1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformQuality {
    lo: f64,
    hi: f64,
}

impl UniformQuality {
    /// Uniform around `mean` with the given half-width, intersected with
    /// `[0, 1]` symmetrically so the expectation remains `mean`.
    ///
    /// # Panics
    /// Panics unless `mean ∈ [0, 1]` and `half_width ≥ 0`.
    #[must_use]
    pub fn centered(mean: f64, half_width: f64) -> Self {
        assert!((0.0..=1.0).contains(&mean), "mean must be in [0,1]");
        assert!(half_width >= 0.0, "half_width must be >= 0");
        // Shrink the half-width so the interval stays inside [0,1]; this
        // preserves symmetry and hence the exact mean.
        let w = half_width.min(mean).min(1.0 - mean);
        Self {
            lo: mean - w,
            hi: mean + w,
        }
    }
}

impl QualityDistribution for UniformQuality {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if self.hi <= self.lo {
            self.lo
        } else {
            rng.uniform_inclusive(self.lo..=self.hi)
        }
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// Bernoulli quality: the observation is 1 with probability `p`, else 0.
/// The harshest bounded-noise model — useful in regret stress tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BernoulliQuality {
    /// Success probability (= mean quality).
    pub p: f64,
}

impl BernoulliQuality {
    /// Creates a Bernoulli quality model.
    ///
    /// # Panics
    /// Panics unless `p ∈ [0, 1]`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p must be in [0,1]");
        Self { p }
    }
}

impl QualityDistribution for BernoulliQuality {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        if rng.bernoulli(self.p) {
            1.0
        } else {
            0.0
        }
    }

    fn mean(&self) -> f64 {
        self.p
    }
}

/// Type-erased quality model so heterogeneous populations can mix models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QualityModel {
    /// Truncated Gaussian observation noise (the paper's model).
    TruncatedGaussian(TruncatedGaussian),
    /// Beta-distributed observations.
    Beta(BetaQuality),
    /// Uniform observations.
    Uniform(UniformQuality),
    /// Bernoulli observations.
    Bernoulli(BernoulliQuality),
}

impl QualityDistribution for QualityModel {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            QualityModel::TruncatedGaussian(d) => d.sample(rng),
            QualityModel::Beta(d) => d.sample(rng),
            QualityModel::Uniform(d) => d.sample(rng),
            QualityModel::Bernoulli(d) => d.sample(rng),
        }
    }

    fn fill_row(&self, rng: &mut SimRng, row: &mut [f64]) {
        match self {
            QualityModel::TruncatedGaussian(d) => d.fill_row(rng, row),
            QualityModel::Beta(d) => d.fill_row(rng, row),
            QualityModel::Uniform(d) => d.fill_row(rng, row),
            QualityModel::Bernoulli(d) => d.fill_row(rng, row),
        }
    }

    fn mean(&self) -> f64 {
        match self {
            QualityModel::TruncatedGaussian(d) => d.mean(),
            QualityModel::Beta(d) => d.mean(),
            QualityModel::Uniform(d) => d.mean(),
            QualityModel::Bernoulli(d) => d.mean(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::check::{check, check_all};

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Fills a row of `len` from `seed` and draws `len` single samples
    /// from the same seed: both must keep the same values and leave the
    /// generator at the same point.
    fn assert_row_matches_samples<D: QualityDistribution>(d: &D, len: usize, seed: u64) {
        let (mut rows, mut draws) = (SimRng::new(seed), SimRng::new(seed));
        let mut row = vec![f64::NAN; len];
        d.fill_row(&mut rows, &mut row);
        let samples: Vec<f64> = (0..len).map(|_| d.sample(&mut draws)).collect();
        assert_eq!(bits(&row), bits(&samples), "{row:?} vs {samples:?}");
        assert_eq!(
            rows.next_u64(),
            draws.next_u64(),
            "the stream after the row"
        );
    }

    fn empirical_mean<D: QualityDistribution>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn assert_in_unit<D: QualityDistribution>(d: &D, seed: u64) {
        let mut rng = SimRng::new(seed);
        for _ in 0..5_000 {
            let x = d.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x), "sample {x} left [0,1]");
        }
    }

    #[test]
    fn truncated_gaussian_support_and_mean() {
        let d = TruncatedGaussian::new(0.7, 0.2);
        assert_in_unit(&d, 1);
        let m = empirical_mean(&d, 100_000, 2);
        assert!(
            (m - d.mean()).abs() < 5e-3,
            "empirical {m} vs analytic {}",
            d.mean()
        );
    }

    #[test]
    fn truncated_gaussian_mean_shifts_under_asymmetric_truncation() {
        let d = TruncatedGaussian::new(0.95, 0.3);
        assert!(d.mean() < 0.95, "upper truncation must pull the mean down");
        let m = empirical_mean(&d, 100_000, 3);
        assert!((m - d.mean()).abs() < 5e-3);
    }

    #[test]
    fn truncated_gaussian_sample_mean_matches_the_analytic_mean() {
        // μ near either bound exercises the rejection against [0, 1].
        let n = 200_000;
        for (seed, mu) in [0.03, 0.5, 0.97].into_iter().enumerate() {
            let d = TruncatedGaussian::new(mu, 0.1);
            let mut rng = SimRng::new(20 + seed as u64);
            let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            let se = (var / n as f64).sqrt();
            assert!(
                (mean - d.mean()).abs() < 4.0 * se,
                "mu = {mu}: sample mean {mean} vs analytic {} (se {se})",
                d.mean()
            );
        }
    }

    #[test]
    fn truncated_gaussian_clamps_mu() {
        let d = TruncatedGaussian::new(1.7, 0.2);
        assert!((d.mu - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite")]
    fn truncated_gaussian_rejects_zero_sigma() {
        let _ = TruncatedGaussian::new(0.5, 0.0);
    }

    #[test]
    fn truncated_gaussian_rows_draw_what_single_samples_draw() {
        // μ at a bound rejects about half of its draws at small σ, the
        // shape a converged UCB run observes most.
        check(
            1_000,
            |rng| {
                let mu = match rng.below(4) {
                    0 => 0.0,
                    1 => 1.0,
                    _ => rng.uniform_inclusive(0.0..=1.0),
                };
                let sigma = 1.0 - rng.uniform(0.0..1.0);
                (mu, sigma, rng.below(65) as usize, rng.next_u64())
            },
            |&(mu, sigma, len, seed)| {
                assert_row_matches_samples(&TruncatedGaussian::new(mu, sigma), len, seed);
            },
        );
    }

    #[test]
    fn beta_support_and_mean() {
        let d = BetaQuality::new(2.0, 5.0);
        assert_in_unit(&d, 4);
        assert!((d.mean() - 2.0 / 7.0).abs() < 1e-12);
        let m = empirical_mean(&d, 100_000, 5);
        assert!((m - d.mean()).abs() < 5e-3);
    }

    #[test]
    fn beta_with_mean_constructor() {
        let d = BetaQuality::with_mean(0.3, 10.0);
        assert!((d.mean() - 0.3).abs() < 1e-12);
        assert!((d.alpha - 3.0).abs() < 1e-12);
        assert!((d.beta - 7.0).abs() < 1e-12);
    }

    #[test]
    fn beta_small_shapes_sample_ok() {
        // Exercises the shape<1 boost path of the gamma sampler.
        let d = BetaQuality::new(0.4, 0.6);
        assert_in_unit(&d, 6);
        let m = empirical_mean(&d, 100_000, 7);
        assert!((m - 0.4).abs() < 6e-3, "empirical {m}");
    }

    #[test]
    fn uniform_centered_preserves_mean() {
        let d = UniformQuality::centered(0.8, 0.5);
        assert_in_unit(&d, 8);
        // Half-width shrinks to 0.2 so the interval is [0.6, 1.0]; mean 0.8.
        assert!((d.mean() - 0.8).abs() < 1e-12);
        let m = empirical_mean(&d, 100_000, 9);
        assert!((m - 0.8).abs() < 5e-3);
    }

    #[test]
    fn uniform_zero_width_is_deterministic() {
        let d = UniformQuality::centered(0.0, 0.3);
        let mut rng = SimRng::new(10);
        assert_eq!(d.sample(&mut rng), 0.0);
    }

    #[test]
    fn bernoulli_mean() {
        let d = BernoulliQuality::new(0.25);
        assert_in_unit(&d, 11);
        let m = empirical_mean(&d, 100_000, 12);
        assert!((m - 0.25).abs() < 5e-3);
    }

    #[test]
    fn quality_model_dispatch() {
        let models = [
            QualityModel::TruncatedGaussian(TruncatedGaussian::new(0.5, 0.1)),
            QualityModel::Beta(BetaQuality::new(2.0, 2.0)),
            QualityModel::Uniform(UniformQuality::centered(0.5, 0.1)),
            QualityModel::Bernoulli(BernoulliQuality::new(0.5)),
        ];
        for (i, m) in models.iter().enumerate() {
            assert!((m.mean() - 0.5).abs() < 1e-9, "model {i} mean");
            assert_in_unit(m, 13 + i as u64);
        }
    }

    #[test]
    fn quality_model_rows_draw_what_single_samples_draw() {
        let models = [
            QualityModel::TruncatedGaussian(TruncatedGaussian::new(0.97, 0.1)),
            QualityModel::Beta(BetaQuality::new(0.4, 2.0)),
            QualityModel::Uniform(UniformQuality::centered(0.3, 0.2)),
            QualityModel::Bernoulli(BernoulliQuality::new(0.7)),
        ];
        let cases = models
            .into_iter()
            .flat_map(|m| [0, 1, 2, 10, 33].map(move |len| (m, len)));
        check_all(cases, |&(model, len)| {
            assert_row_matches_samples(&model, len, 30 + len as u64);
        });
    }
}
