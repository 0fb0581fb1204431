//! Seeded generation of whole seller populations.
//!
//! Reproduces the paper's Sec. V-A recipe: expected qualities drawn
//! uniformly from `[0, 1]`, cost parameters `a_i ∈ [0.1, 0.5]`,
//! `b_i ∈ [0.1, 1]`, truncated-Gaussian observation noise.

use crate::distribution::TruncatedGaussian;
use cdt_types::{SellerCostParams, SellerId, SimRng};

/// Ground-truth profile of one seller: its (hidden) quality law and its
/// privately-known cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SellerProfile {
    /// The observation law of `q_{i,l}^t`.
    pub quality: TruncatedGaussian,
    /// Cost parameters `(a_i, b_i)` of Eq. 6.
    pub cost: SellerCostParams,
}

impl SellerProfile {
    /// The true expected quality `q_i` (mean of the realized observation
    /// distribution). The bandit never sees this; the oracle policy and the
    /// regret accounting do.
    #[must_use]
    pub fn expected_quality(&self) -> f64 {
        self.quality.mean()
    }
}

/// A complete population of `M` sellers, the hidden state of the CMAB game.
#[derive(Debug, Clone, PartialEq)]
pub struct SellerPopulation {
    profiles: Vec<SellerProfile>,
}

impl SellerPopulation {
    /// Builds a population from explicit profiles.
    #[must_use]
    pub fn from_profiles(profiles: Vec<SellerProfile>) -> Self {
        Self { profiles }
    }

    /// Generates a population with the paper's default parameter ranges
    /// (Sec. V-A / Table II):
    ///
    /// - expected quality `q_i ~ U[0, 1]` (nominal; realized mean follows
    ///   from truncation),
    /// - observation noise: Gaussian with `σ = noise_sigma` truncated to
    ///   `[0, 1]`,
    /// - `a_i ~ U[0.1, 0.5]`, `b_i ~ U[0.1, 1]`.
    pub fn generate_paper_defaults(m: usize, noise_sigma: f64, rng: &mut SimRng) -> Self {
        let profiles = (0..m)
            .map(|_| {
                let mu: f64 = rng.uniform_inclusive(0.0..=1.0);
                SellerProfile {
                    quality: TruncatedGaussian::new(mu, noise_sigma),
                    cost: SellerCostParams {
                        a: rng.uniform_inclusive(0.1..=0.5),
                        b: rng.uniform_inclusive(0.1..=1.0),
                    },
                }
            })
            .collect();
        Self { profiles }
    }

    /// Number of sellers `M`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// `true` when the population is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// One seller's profile.
    #[must_use]
    pub fn profile(&self, id: SellerId) -> &SellerProfile {
        &self.profiles[id.index()]
    }

    /// Iterates `(SellerId, &SellerProfile)`.
    pub fn iter(&self) -> impl Iterator<Item = (SellerId, &SellerProfile)> {
        self.profiles
            .iter()
            .enumerate()
            .map(|(i, p)| (SellerId(i), p))
    }

    /// The true expected qualities of all sellers, indexed by seller id.
    #[must_use]
    pub fn expected_qualities(&self) -> Vec<f64> {
        self.profiles
            .iter()
            .map(SellerProfile::expected_quality)
            .collect()
    }

    /// Cost parameter vector indexed by seller id (for `SystemConfig`).
    #[must_use]
    pub fn cost_params(&self) -> Vec<SellerCostParams> {
        self.profiles.iter().map(|p| p.cost).collect()
    }

    /// Seller ids sorted by true expected quality, best first. Ties broken
    /// by id for determinism. This is the oracle's ranking.
    #[must_use]
    pub fn ranking_by_true_quality(&self) -> Vec<SellerId> {
        let mut ids: Vec<SellerId> = (0..self.len()).map(SellerId).collect();
        let q = self.expected_qualities();
        ids.sort_by(|x, y| {
            q[y.index()]
                .partial_cmp(&q[x.index()])
                .expect("qualities are finite")
                .then(x.index().cmp(&y.index()))
        });
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seller(mu: f64) -> SellerProfile {
        SellerProfile {
            quality: TruncatedGaussian::new(mu, 0.1),
            cost: SellerCostParams { a: 0.2, b: 0.3 },
        }
    }

    #[test]
    fn generate_respects_parameter_ranges() {
        let mut rng = SimRng::new(42);
        let pop = SellerPopulation::generate_paper_defaults(300, 0.1, &mut rng);
        assert_eq!(pop.len(), 300);
        for (_, p) in pop.iter() {
            assert!((0.1..=0.5).contains(&p.cost.a));
            assert!((0.1..=1.0).contains(&p.cost.b));
            let q = p.expected_quality();
            assert!((0.0..=1.0).contains(&q));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = SellerPopulation::generate_paper_defaults(50, 0.1, &mut SimRng::new(9));
        let b = SellerPopulation::generate_paper_defaults(50, 0.1, &mut SimRng::new(9));
        assert_eq!(a, b);
        let c = SellerPopulation::generate_paper_defaults(50, 0.1, &mut SimRng::new(10));
        assert_ne!(a, c);
    }

    #[test]
    fn ranking_orders_by_quality_desc() {
        let pop = SellerPopulation::from_profiles(vec![seller(0.2), seller(0.9), seller(0.5)]);
        assert_eq!(
            pop.ranking_by_true_quality(),
            vec![SellerId(1), SellerId(2), SellerId(0)]
        );
    }

    #[test]
    fn ranking_breaks_ties_by_id() {
        let pop = SellerPopulation::from_profiles(vec![seller(0.5), seller(0.5), seller(0.5)]);
        assert_eq!(
            pop.ranking_by_true_quality(),
            vec![SellerId(0), SellerId(1), SellerId(2)]
        );
    }

    #[test]
    fn expected_qualities_match_profiles() {
        let pop = SellerPopulation::from_profiles(vec![seller(0.2), seller(0.7)]);
        let q = pop.expected_qualities();
        let means = [0.2, 0.7].map(|mu| TruncatedGaussian::new(mu, 0.1).mean());
        assert_eq!(q, means);
    }

    #[test]
    fn cost_params_are_indexed_by_id() {
        let mut rng = SimRng::new(3);
        let pop = SellerPopulation::generate_paper_defaults(10, 0.1, &mut rng);
        let costs = pop.cost_params();
        for (id, p) in pop.iter() {
            assert_eq!(costs[id.index()], p.cost);
        }
    }
}
