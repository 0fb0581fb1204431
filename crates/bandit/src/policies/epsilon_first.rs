//! The ε-first baseline (Vermorel & Mohri; used as a comparison algorithm
//! in the paper's evaluation).

use crate::estimator::QualityEstimator;
use crate::policy::{random_k_subset_into, SelectionPolicy};
use crate::topk::top_k_by_score_into;
use cdt_quality::ObservationMatrix;
use cdt_types::{Round, SellerId, SimRng};

/// Pure exploration for the first `⌈εN⌉` rounds (uniform random
/// `K`-subsets), then pure exploitation (top-K by sample mean) for the
/// remaining `(1−ε)N` rounds.
#[derive(Debug, Clone)]
pub struct EpsilonFirstPolicy {
    estimator: QualityEstimator,
    k: usize,
    epsilon: f64,
    horizon: usize,
    /// Reused candidate key buffer for top-K selection.
    topk_scratch: Vec<u128>,
}

impl EpsilonFirstPolicy {
    /// Creates an ε-first policy for `m` sellers, selection size `k`, a
    /// known horizon of `n` rounds, and exploration fraction `epsilon`.
    ///
    /// # Panics
    /// Panics unless `epsilon ∈ [0, 1]`.
    #[must_use]
    pub fn new(m: usize, k: usize, n: usize, epsilon: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&epsilon),
            "epsilon must lie in [0, 1], got {epsilon}"
        );
        Self {
            estimator: QualityEstimator::new(m),
            k,
            epsilon,
            horizon: n,
            topk_scratch: Vec::new(),
        }
    }

    /// Number of pure-exploration rounds `⌈εN⌉`.
    #[must_use]
    pub fn exploration_rounds(&self) -> usize {
        (self.epsilon * self.horizon as f64).ceil() as usize
    }

    /// `true` while `round` falls inside the exploration phase.
    #[must_use]
    pub fn is_exploring(&self, round: Round) -> bool {
        round.index() < self.exploration_rounds()
    }
}

impl SelectionPolicy for EpsilonFirstPolicy {
    fn name(&self) -> String {
        format!("{}-first", self.epsilon)
    }

    fn select(&mut self, round: Round, rng: &mut SimRng) -> Vec<SellerId> {
        let mut out = Vec::new();
        self.select_into(round, rng, &mut out);
        out
    }

    fn select_into(&mut self, round: Round, rng: &mut SimRng, out: &mut Vec<SellerId>) {
        if self.is_exploring(round) {
            random_k_subset_into(self.estimator.num_sellers(), self.k, rng, out);
        } else {
            top_k_by_score_into(self.estimator.means(), self.k, &mut self.topk_scratch, out);
        }
    }

    fn observe(&mut self, _round: Round, observations: &ObservationMatrix) {
        self.estimator.update_round(observations);
    }

    fn game_quality(&self, id: SellerId) -> f64 {
        self.estimator.mean(id)
    }

    fn estimator(&self) -> &QualityEstimator {
        &self.estimator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_boundary_is_ceil_of_epsilon_n() {
        let p = EpsilonFirstPolicy::new(10, 2, 100, 0.1);
        assert_eq!(p.exploration_rounds(), 10);
        assert!(p.is_exploring(Round(9)));
        assert!(!p.is_exploring(Round(10)));

        let p = EpsilonFirstPolicy::new(10, 2, 7, 0.5);
        assert_eq!(p.exploration_rounds(), 4); // ceil(3.5)
    }

    #[test]
    fn exploitation_picks_top_k_by_mean() {
        let mut p = EpsilonFirstPolicy::new(3, 1, 10, 0.1);
        let m = ObservationMatrix::new(
            vec![SellerId(0), SellerId(1), SellerId(2)],
            vec![vec![0.2], vec![0.9], vec![0.5]],
        );
        p.observe(Round(0), &m);
        let mut rng = SimRng::new(1);
        assert_eq!(p.select(Round(5), &mut rng), vec![SellerId(1)]);
    }

    #[test]
    fn exploration_is_random_k_subset() {
        let mut p = EpsilonFirstPolicy::new(10, 3, 100, 0.5);
        let mut rng = SimRng::new(2);
        let sel = p.select(Round(0), &mut rng);
        assert_eq!(sel.len(), 3);
        let set: std::collections::HashSet<_> = sel.iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn epsilon_zero_never_explores() {
        let p = EpsilonFirstPolicy::new(5, 2, 100, 0.0);
        assert_eq!(p.exploration_rounds(), 0);
        assert!(!p.is_exploring(Round(0)));
    }

    #[test]
    fn epsilon_one_always_explores() {
        let p = EpsilonFirstPolicy::new(5, 2, 100, 1.0);
        assert!(p.is_exploring(Round(99)));
    }

    #[test]
    fn name_embeds_epsilon() {
        assert_eq!(EpsilonFirstPolicy::new(5, 2, 10, 0.3).name(), "0.3-first");
    }

    #[test]
    #[should_panic(expected = "epsilon must lie in [0, 1]")]
    fn rejects_bad_epsilon() {
        let _ = EpsilonFirstPolicy::new(5, 2, 10, 1.5);
    }
}
