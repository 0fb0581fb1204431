//! Declarative policy construction, so experiments can name their
//! comparison set as data.

use cdt_bandit::{
    CmabUcbPolicy, CucbPolicy, EpsilonFirstPolicy, EpsilonGreedyPolicy, OraclePolicy, RandomPolicy,
    SelectionPolicy, ThompsonPolicy,
};
use cdt_quality::SellerPopulation;

/// A policy to instantiate for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicySpec {
    /// The paper's CMAB-HS UCB policy.
    CmabHs,
    /// CMAB-HS with an overridden exploration weight (ablation of the
    /// `K + 1` factor in Eq. 19).
    CmabHsWithWeight(f64),
    /// The clairvoyant optimal policy.
    Optimal,
    /// ε-first with the given exploration fraction.
    EpsilonFirst(f64),
    /// ε-greedy with the given per-round exploration probability.
    EpsilonGreedy(f64),
    /// Uniform random selection.
    Random,
    /// Gaussian Thompson sampling.
    Thompson,
    /// Classical CUCB (Chen et al.).
    Cucb,
}

impl PolicySpec {
    /// The paper's comparison set (Sec. V-A): optimal, CMAB-HS, ε-first at
    /// the two extreme ε values the paper reports, random.
    #[must_use]
    pub fn paper_set() -> Vec<PolicySpec> {
        vec![
            PolicySpec::Optimal,
            PolicySpec::CmabHs,
            PolicySpec::EpsilonFirst(0.1),
            PolicySpec::EpsilonFirst(0.5),
            PolicySpec::Random,
        ]
    }

    /// Instantiates the policy for a scenario of `m` sellers, selection
    /// size `k`, horizon `n`, over the given hidden `population` (only the
    /// oracle reads it).
    #[must_use]
    pub fn build(
        &self,
        m: usize,
        k: usize,
        n: usize,
        population: &SellerPopulation,
    ) -> Box<dyn SelectionPolicy> {
        match *self {
            PolicySpec::CmabHs => Box::new(CmabUcbPolicy::new(m, k)),
            PolicySpec::CmabHsWithWeight(w) => {
                Box::new(CmabUcbPolicy::new(m, k).with_exploration_weight(w))
            }
            PolicySpec::Optimal => Box::new(OraclePolicy::new(population.expected_qualities(), k)),
            PolicySpec::EpsilonFirst(eps) => Box::new(EpsilonFirstPolicy::new(m, k, n, eps)),
            PolicySpec::EpsilonGreedy(eps) => Box::new(EpsilonGreedyPolicy::new(m, k, eps)),
            PolicySpec::Random => Box::new(RandomPolicy::new(m, k)),
            PolicySpec::Thompson => Box::new(ThompsonPolicy::new(m, k)),
            PolicySpec::Cucb => Box::new(CucbPolicy::new(m, k)),
        }
    }

    /// Stable display label (matches the paper's legends).
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            PolicySpec::CmabHs => "CMAB-HS".into(),
            PolicySpec::CmabHsWithWeight(w) => format!("CMAB-HS(w={w})"),
            PolicySpec::Optimal => "optimal".into(),
            PolicySpec::EpsilonFirst(e) => format!("{e}-first"),
            PolicySpec::EpsilonGreedy(e) => format!("{e}-greedy"),
            PolicySpec::Random => "random".into(),
            PolicySpec::Thompson => "thompson".into(),
            PolicySpec::Cucb => "CUCB".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdt_quality::{SellerProfile, TruncatedGaussian};
    use cdt_types::{SellerCostParams, SimRng};

    fn quality(i: usize, m: usize) -> TruncatedGaussian {
        TruncatedGaussian::new((i as f64 + 1.0) / (m as f64 + 1.0), 0.1)
    }

    fn population(m: usize) -> SellerPopulation {
        SellerPopulation::from_profiles(
            (0..m)
                .map(|i| SellerProfile {
                    quality: quality(i, m),
                    cost: SellerCostParams { a: 0.2, b: 0.3 },
                })
                .collect(),
        )
    }

    #[test]
    fn paper_set_matches_section_5a() {
        let labels: Vec<String> = PolicySpec::paper_set().iter().map(|p| p.label()).collect();
        assert_eq!(
            labels,
            vec!["optimal", "CMAB-HS", "0.1-first", "0.5-first", "random"]
        );
    }

    #[test]
    fn build_produces_working_policies() {
        use cdt_types::Round;
        let pop = population(6);
        let mut rng = SimRng::new(1);
        for spec in [
            PolicySpec::CmabHs,
            PolicySpec::CmabHsWithWeight(1.0),
            PolicySpec::Optimal,
            PolicySpec::EpsilonFirst(0.2),
            PolicySpec::EpsilonGreedy(0.2),
            PolicySpec::Random,
            PolicySpec::Thompson,
            PolicySpec::Cucb,
        ] {
            let mut p = spec.build(6, 2, 100, &pop);
            let sel = p.select(Round(1), &mut rng);
            assert!(!sel.is_empty(), "{} selected nothing", spec.label());
        }
    }

    #[test]
    fn oracle_uses_population_truth() {
        let pop = population(4);
        let p = PolicySpec::Optimal.build(4, 1, 10, &pop);
        // Highest quality is the last profile.
        assert_eq!(p.game_quality(cdt_types::SellerId(3)), quality(3, 4).mean());
    }

    #[test]
    fn labels_are_unique() {
        let set = PolicySpec::paper_set();
        let labels: std::collections::HashSet<String> = set.iter().map(PolicySpec::label).collect();
        assert_eq!(labels.len(), set.len());
    }
}
