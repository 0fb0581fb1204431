//! The observation law of `q_{i,l}^t`.
//!
//! Def. 3 of the paper only requires each observation to lie in `[0, 1]`
//! with a fixed (unknown) expectation `q_i`. The evaluation section
//! (Sec. V-A) draws it from a Gaussian truncated to `[0, 1]`, the one model
//! here. The Chernoff–Hoeffding analysis of Lemma 17 only needs bounded
//! support, so the regret guarantee does not depend on its shape.

use crate::math::truncated_normal_mean;
use cdt_types::SimRng;

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

    /// Draws one observation `q_{i,l}^t ∈ [0, 1]`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
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

    /// Fills `row` with one observation per slot, in order. It draws
    /// exactly what calling [`TruncatedGaussian::sample`] once per slot
    /// draws: the same values from the same generator draws, so the
    /// stream after the row is the same too.
    pub fn fill_row(&self, rng: &mut SimRng, row: &mut [f64]) {
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

    /// The exact expectation of [`TruncatedGaussian::sample`]. This is the
    /// `q_i` the bandit is trying to learn, so it is the mean of the
    /// *realized* (post-truncation) distribution, not the nominal `mu`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        truncated_normal_mean(self.mu, self.sigma, 0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_types::check::check;

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Fills a row of `len` from `seed` and draws `len` single samples
    /// from the same seed: both must keep the same values and leave the
    /// generator at the same point.
    fn assert_row_matches_samples(d: &TruncatedGaussian, len: usize, seed: u64) {
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

    fn empirical_mean(d: &TruncatedGaussian, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::new(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    fn assert_in_unit(d: &TruncatedGaussian, seed: u64) {
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
}
